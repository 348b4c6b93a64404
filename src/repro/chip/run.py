"""The unified run API.

Every simulation the repo can perform — one TCG core, a SmarCo chip, the
Xeon baseline, or a SmarCo-vs-Xeon comparison — is described by a frozen
:class:`repro.exp.RunRequest` and executed by :func:`execute`, which
returns a :class:`RunOutcome`: the result object *plus* the full
``StatsRegistry`` dump of the simulation.  The sweep runner
(``repro.exp.runner``), the CLI and the benches all go through this one
entry point, so there is a single source of truth for how a request maps
to a simulator build.

The historical per-kind helpers (:func:`run_smarco`, :func:`run_xeon`,
:func:`compare`) remain as thin shims: they accept a ``RunRequest`` as
their first argument, and their old kwargs signatures still work but
emit :class:`DeprecationWarning`.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace
from typing import Any, Dict, Optional, Union

from ..config import AuditConfig, SmarCoConfig, XeonConfig, smarco_default
from ..core.ports import FixedLatencyPort
from ..core.tcg import TCGCore
from ..errors import ConfigError
from ..exp.request import RunRequest
from ..power.energy import PowerModel, XeonPowerModel
from ..power.report import build_energy_report
from ..sim.engine import Simulator
from ..sim.rng import RngTree
from ..sim.stats import StatsRegistry
from ..workloads.base import get_profile
from .results import DictResult, result_from_dict
from .smarco import SmarCoChip, SmarcoRunResult
from .xeon import XeonRunResult, XeonSystem

__all__ = [
    "TcgRunResult",
    "ComparisonResult",
    "RunOutcome",
    "execute",
    "run_smarco",
    "run_xeon",
    "compare",
]


@dataclass
class TcgRunResult(DictResult):
    """Outcome of a single-core microbench (``kind="tcg"``, Fig 17)."""

    workload: str
    policy: str
    threads: int
    cycles: float
    instructions: int

    _COMPUTED = ("ipc",)

    @property
    def ipc(self) -> float:
        return self.instructions / self.cycles if self.cycles else 0.0


@dataclass
class ComparisonResult(DictResult):
    """SmarCo-vs-Xeon outcome for one workload (one Fig 22 bar pair)."""

    workload: str
    smarco: SmarcoRunResult
    xeon: XeonRunResult
    smarco_watts: float
    xeon_watts: float

    _COMPUTED = ("speedup", "energy_efficiency_gain")

    @property
    def speedup(self) -> float:
        """SmarCo throughput over Xeon throughput (Fig 22 left bars).

        ``nan`` (never a silent ``0.0``) when the baseline did no work.
        """
        if not self.xeon.throughput_ips:
            return float("nan")
        return self.smarco.throughput_ips / self.xeon.throughput_ips

    @property
    def energy_efficiency_gain(self) -> float:
        """(perf/W SmarCo) / (perf/W Xeon) (Fig 22 right bars).

        ``nan`` when either side's perf/W is undefined (zero baseline
        throughput or zero billed watts).
        """
        if not (self.xeon.throughput_ips and self.xeon_watts
                and self.smarco_watts):
            return float("nan")
        smarco_eff = self.smarco.throughput_ips / self.smarco_watts
        xeon_eff = self.xeon.throughput_ips / self.xeon_watts
        return smarco_eff / xeon_eff

    def to_dict(self) -> Dict[str, Any]:
        out = {
            "type": type(self).__name__,
            "workload": self.workload,
            "smarco": self.smarco.to_dict(),
            "xeon": self.xeon.to_dict(),
            "smarco_watts": self.smarco_watts,
            "xeon_watts": self.xeon_watts,
        }
        for name in self._COMPUTED:
            out[name] = getattr(self, name)
        return out

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ComparisonResult":
        return cls(
            workload=data["workload"],
            smarco=SmarcoRunResult.from_dict(data["smarco"]),
            xeon=XeonRunResult.from_dict(data["xeon"]),
            smarco_watts=data["smarco_watts"],
            xeon_watts=data["xeon_watts"],
        )


@dataclass
class RunOutcome:
    """What :func:`execute` returns: the result plus the stats dump.

    ``stats`` is the flat registry dump; :meth:`stats_tree` nests it by
    component path.  ``components`` is the simulated system's component
    tree (:meth:`repro.sim.Component.tree_dict`) so per-run telemetry
    records exactly what was wired to what.
    """

    request: RunRequest
    result: DictResult
    stats: Dict[str, float]
    components: Dict[str, Any] = field(default_factory=dict)
    #: invariant audit report (:meth:`repro.sim.Auditor.summary`), or None
    #: when the run was not audited
    audit: Optional[Dict[str, Any]] = None
    #: activity-proportional energy report
    #: (:meth:`repro.power.report.EnergyReport.to_dict`), or None for run
    #: kinds without chip activity counters.  Observation-only: excluded
    #: from the pinned golden digests, which hash result + stats alone.
    energy: Optional[Dict[str, Any]] = None

    def stats_tree(self) -> Dict[str, Any]:
        """The flat stats dump nested by dotted component path."""
        from ..sim.stats import nest_flat_stats

        return nest_flat_stats(self.stats)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "request": self.request.snapshot(),
            "result": self.result.to_dict(),
            "stats": self.stats,
            "components": self.components,
            "audit": self.audit,
            "energy": self.energy,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "RunOutcome":
        from ..exp.request import request_from_snapshot

        return cls(
            request=request_from_snapshot(data["request"]),
            result=result_from_dict(data["result"]),
            stats=dict(data["stats"]),
            # tolerate cache files written before components existed
            components=dict(data.get("components", {})),
            audit=data.get("audit"),
            # tolerate cache files written before energy accounting existed
            energy=data.get("energy"),
        )


# -- the dispatcher ----------------------------------------------------------------


def execute(request: RunRequest,
            audit: Optional[AuditConfig] = None) -> RunOutcome:
    """Build the system a request describes, run it, and collect stats.

    ``audit=None`` defers to the ``REPRO_AUDIT`` environment variable
    (unset/off means no auditing); pass an explicit
    :class:`~repro.config.AuditConfig` to override.  An audited run adds
    no simulation events — results match the unaudited run exactly — and
    attaches the auditor's report as ``RunOutcome.audit``.
    """
    request.validate()
    executors = {
        "tcg": _execute_tcg,
        "smarco": _execute_smarco,
        "xeon": _execute_xeon,
        "compare": _execute_compare,
        "sched": _execute_sched,
        "traffic": _execute_traffic,
    }
    try:
        executor = executors[request.kind]
    except KeyError:  # pragma: no cover
        raise ConfigError(f"unknown run kind {request.kind!r}") from None
    outcome = executor(request, audit)
    # observation-only: billed from the finished run's stats, never fed
    # back, so results and golden digests are untouched
    energy_report = build_energy_report(outcome)
    if energy_report is not None:
        outcome.energy = energy_report.to_dict()
    return outcome


def _make_auditor(audit: Optional[AuditConfig]):
    """Resolve the effective audit config; None when auditing is off."""
    cfg = audit if audit is not None else AuditConfig.from_env()
    if not cfg.enabled:
        return None
    from ..sim.invariants import Auditor

    return Auditor(cfg)


def _execute_tcg(request: RunRequest,
                 audit: Optional[AuditConfig] = None) -> RunOutcome:
    """One TCG core behind a fixed-latency memory port (the Fig 17 rig)."""
    profile = get_profile(request.workload)
    sim = Simulator()
    registry = StatsRegistry()
    port = FixedLatencyPort(sim, request.mem_latency)
    core = TCGCore(sim, 0, port, policy=request.core_policy,
                   registry=registry)
    auditor = _make_auditor(audit)
    if auditor is not None:
        auditor.install(core)
    rng_tree = RngTree(request.seed)
    n = request.threads_per_core
    for t in range(n):
        core.add_thread(profile.stream(
            request.instrs_per_thread,
            rng_tree.stream(f"{request.workload}.{t}"),
            thread_id=t, gang_size=n, gang_rank=t,
        ))
    core.start()
    sim.run()
    if auditor is not None:
        auditor.end_of_run(sim.now)
    result = TcgRunResult(
        workload=request.workload,
        policy=request.core_policy,
        threads=n,
        # elapsed, not sim.now: core.ipc is defined over start->finish
        cycles=core.elapsed,
        instructions=core.instructions,
    )
    return RunOutcome(request=request, result=result, stats=registry.dump(),
                      components=core.tree_dict(),
                      audit=auditor.summary() if auditor is not None else None)


def _execute_smarco(request: RunRequest,
                    audit: Optional[AuditConfig] = None) -> RunOutcome:
    profile = get_profile(request.workload)
    auditor = _make_auditor(audit)
    chip = SmarCoChip(request.smarco_config, seed=request.seed,
                      core_policy=request.core_policy,
                      realtime_fraction=request.realtime_fraction)
    if auditor is not None:
        auditor.install(chip)
    chip.load_profile(profile, request.threads_per_core,
                      request.instrs_per_thread,
                      total_threads=request.total_threads,
                      shared_code=request.shared_code)
    result = chip.run(max_cycles=request.run_cycles)
    if auditor is not None:
        auditor.end_of_run(chip.sim.now)
    return RunOutcome(request=request, result=result,
                      stats=chip.registry.dump(),
                      components=chip.tree_dict(),
                      audit=auditor.summary() if auditor is not None else None)


def _execute_xeon(request: RunRequest,
                  audit: Optional[AuditConfig] = None) -> RunOutcome:
    profile = get_profile(request.workload)
    system = XeonSystem(request.xeon_config, seed=request.seed)
    auditor = _make_auditor(audit)
    if auditor is not None:
        # the baseline declares no checkers yet; install() is a no-op walk
        # and the summary records zero checks
        auditor.install(system)
    system.load_profile(profile, request.xeon_threads,
                        request.xeon_instrs_per_thread,
                        stagger_creation=request.stagger_creation)
    system.sim.run(until=request.run_cycles)
    result = system.collect_result()
    if auditor is not None:
        auditor.end_of_run(system.sim.now)
    return RunOutcome(request=request, result=result,
                      stats=system.registry.dump(),
                      components=system.tree_dict(),
                      audit=auditor.summary() if auditor is not None else None)


def _execute_compare(request: RunRequest,
                     audit: Optional[AuditConfig] = None) -> RunOutcome:
    """One Fig 22 (or Fig 26, via ``technology_nm=40``) data point.

    Energy accounting is conservative: SmarCo is billed the *full-chip*
    power (paper Table 1's 240 W class) even when the simulated geometry
    is scaled down, with a 0.5 activity floor — the paper's workloads
    keep the chip busy.
    """
    smarco_outcome = _execute_smarco(replace(request, kind="smarco"), audit)
    xeon_outcome = _execute_xeon(replace(request, kind="xeon"), audit)
    smarco_result = smarco_outcome.result
    xeon_result = xeon_outcome.result

    smarco_power = PowerModel(
        request.power_config if request.power_config is not None
        else smarco_default())
    xeon_power = XeonPowerModel(request.xeon_config)
    result = ComparisonResult(
        workload=request.workload,
        smarco=smarco_result,
        xeon=xeon_result,
        smarco_watts=smarco_power.total_watts(
            utilization=max(0.5, smarco_result.utilization),
            technology_nm=request.technology_nm,
        ),
        xeon_watts=xeon_power.total_watts(
            utilization=max(0.1, xeon_result.utilization)),
    )
    # both systems are component roots ("chip." / "xeon." prefixes), so the
    # two flat dumps merge without collision
    stats: Dict[str, float] = {}
    stats.update(smarco_outcome.stats)
    stats.update(xeon_outcome.stats)
    combined_audit = None
    if smarco_outcome.audit is not None or xeon_outcome.audit is not None:
        combined_audit = {"smarco": smarco_outcome.audit,
                          "xeon": xeon_outcome.audit}
    return RunOutcome(
        request=request, result=result, stats=stats,
        components={"smarco": smarco_outcome.components,
                    "xeon": xeon_outcome.components},
        audit=combined_audit,
    )


def _execute_sched(request: RunRequest,
                   audit: Optional[AuditConfig] = None) -> RunOutcome:
    """One (policy, scenario) race on the audited scenario testbed."""
    from ..sched.scenarios import collect_sched_result, prepare_sched_scenario

    registry = StatsRegistry()
    auditor = _make_auditor(audit)
    sched_config = (request.smarco_config.scheduler
                    if request.smarco_config is not None else None)
    run = prepare_sched_scenario(
        policy=request.sched_policy,
        scenario=request.sched_scenario,
        seed=request.seed,
        workload=request.workload,
        tasks=request.sched_tasks,
        contexts=request.sched_contexts,
        config=sched_config,
        registry=registry,
        auditor=auditor,
    )
    if request.run_cycles is not None:
        # bounded horizon: an audit would flag the deliberately
        # unfinished tasks, so the audited path requires a full run
        run.bed.start()
        run.sim.run(until=request.run_cycles)
    else:
        run.bed.run()
    result = collect_sched_result(run)
    return RunOutcome(request=request, result=result, stats=registry.dump(),
                      audit=auditor.summary() if auditor is not None else None)


def _execute_traffic(request: RunRequest,
                     audit: Optional[AuditConfig] = None) -> RunOutcome:
    """One open-loop cluster run (see :mod:`repro.traffic.cluster`).

    The chip-model calibration run inside :func:`~repro.traffic.cluster.
    calibrate_chip` goes back through :func:`execute` (under the
    ``REPRO_AUDIT`` environment setting, like any run); the queueing tier
    itself declares no invariant checkers, so the explicit ``audit``
    override has nothing to attach to here.
    """
    from ..traffic.cluster import run_traffic

    registry = StatsRegistry()
    result = run_traffic(request, registry=registry)
    return RunOutcome(request=request, result=result, stats=registry.dump())


# -- legacy per-kind helpers (thin shims over execute) -----------------------------


def _warn_kwargs(name: str) -> None:
    warnings.warn(
        f"{name}(workload, **kwargs) is deprecated; build a "
        f"repro.exp.RunRequest and pass it as the only argument",
        DeprecationWarning, stacklevel=3)


def run_smarco(
    workload: Union[RunRequest, str],
    config: Optional[SmarCoConfig] = None,
    threads_per_core: int = 8,
    instrs_per_thread: int = 600,
    seed: int = 0,
    core_policy: str = "inpair",
    realtime_fraction: float = 0.0,
) -> SmarcoRunResult:
    """Run a named workload on a SmarCo chip (prefer passing a RunRequest)."""
    if isinstance(workload, RunRequest):
        return _execute_smarco(replace(workload, kind="smarco")).result
    _warn_kwargs("run_smarco")
    request = RunRequest(
        kind="smarco", workload=workload, seed=seed, smarco_config=config,
        threads_per_core=threads_per_core,
        instrs_per_thread=instrs_per_thread,
        core_policy=core_policy, realtime_fraction=realtime_fraction,
    )
    return _execute_smarco(request).result


def run_xeon(
    workload: Union[RunRequest, str],
    config: Optional[XeonConfig] = None,
    n_threads: int = 48,
    instrs_per_thread: int = 40_000,
    seed: int = 0,
    stagger_creation: bool = True,
) -> XeonRunResult:
    """Run a named workload on the baseline (prefer passing a RunRequest)."""
    if isinstance(workload, RunRequest):
        return _execute_xeon(replace(workload, kind="xeon")).result
    _warn_kwargs("run_xeon")
    request = RunRequest(
        kind="xeon", workload=workload, seed=seed, xeon_config=config,
        xeon_threads=n_threads, xeon_instrs_per_thread=instrs_per_thread,
        stagger_creation=stagger_creation,
    )
    return _execute_xeon(request).result


def compare(
    workload: Union[RunRequest, str],
    smarco_config: Optional[SmarCoConfig] = None,
    xeon_config: Optional[XeonConfig] = None,
    smarco_threads_per_core: int = 8,
    smarco_instrs_per_thread: int = 600,
    xeon_threads: int = 48,
    xeon_instrs_per_thread: int = 40_000,
    seed: int = 0,
    technology_nm: Optional[int] = None,
    power_config: Optional[SmarCoConfig] = None,
) -> ComparisonResult:
    """SmarCo vs Xeon on one workload (prefer passing a RunRequest)."""
    if isinstance(workload, RunRequest):
        return _execute_compare(replace(workload, kind="compare")).result
    _warn_kwargs("compare")
    request = RunRequest(
        kind="compare", workload=workload, seed=seed,
        smarco_config=smarco_config, xeon_config=xeon_config,
        threads_per_core=smarco_threads_per_core,
        instrs_per_thread=smarco_instrs_per_thread,
        xeon_threads=xeon_threads,
        xeon_instrs_per_thread=xeon_instrs_per_thread,
        technology_nm=technology_nm, power_config=power_config,
    )
    return _execute_compare(request).result
