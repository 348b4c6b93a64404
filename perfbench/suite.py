"""The benchmark's workloads, the calls it times, and its correctness checks.

A workload is a tuple of :class:`repro.exp.RunRequest` built from a seed.
Single-request workloads are timed through the same public calls that
``repro.chip.run._execute_smarco`` / ``_execute_xeon`` make (build the
system, ``load_profile``, run, ``registry.dump()``, energy report); the
sweep workload is timed through ``repro.exp.Runner.run``.  Nothing here
changes the simulator: it only calls it and reads what it returns.
"""

from __future__ import annotations

import json
import shutil
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Tuple

from repro.chip.run import RunOutcome
from repro.chip.smarco import SmarCoChip
from repro.chip.xeon import XeonSystem
from repro.config import smarco_default, smarco_scaled
from repro.exp import ExperimentSpec, RunRequest
from repro.exp.cache import code_version
from repro.exp.runner import Runner, SweepResult
from repro.power.report import build_energy_report
from repro.workloads.base import get_profile

__all__ = ["Workload", "WORKLOADS", "Invocation", "invoke", "build_system",
           "check_outcome", "outcome_mismatch", "replay_problems",
           "new_runner", "discard", "expected_instructions", "geometry"]


# -- workloads -------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    """A named benchmark input: requests made from a seed.

    ``sweep`` workloads are answered as one :class:`ExperimentSpec` by the
    Runner's worker pool; the others are one request timed call by call.
    ``tiny`` selects a seconds-long geometry for the benchmark's own tests.
    """

    name: str
    default_seed: int
    #: ``(seed, tiny) -> requests``
    requests: Callable[[int, bool], Tuple[RunRequest, ...]]
    sweep: bool = False

    def spec(self, seed: int, tiny: bool = False) -> ExperimentSpec:
        return ExperimentSpec.explicit(f"perfbench-{self.name}",
                                       self.requests(seed, tiny))


def _chip256_wordcount(seed: int, tiny: bool) -> Tuple[RunRequest, ...]:
    cfg = smarco_scaled(2, 4) if tiny else smarco_default()
    return (RunRequest(kind="smarco", workload="wordcount", seed=seed,
                       smarco_config=cfg, threads_per_core=4,
                       instrs_per_thread=20 if tiny else 150),)


def _chip64_ocean(seed: int, tiny: bool) -> Tuple[RunRequest, ...]:
    cfg = smarco_scaled(2, 4) if tiny else smarco_scaled(4, 16)
    return (RunRequest(kind="smarco", workload="splash2.ocean", seed=seed,
                       smarco_config=cfg, threads_per_core=4,
                       instrs_per_thread=20 if tiny else 100),)


#: Fig 23's thread ladder, cut to five rungs.  Work per point is fixed, so
#: instructions per thread shrink as threads grow (as in the Fig 23 bench).
LADDER_THREADS = (8, 32, 64, 128, 256)
LADDER_XEON_WORK = 2_000_000
LADDER_SMARCO_WORK = 32_000


def _sweep_kmp_ladder(seed: int, tiny: bool) -> Tuple[RunRequest, ...]:
    threads = (2, 8) if tiny else LADDER_THREADS
    xeon_work = 8_000 if tiny else LADDER_XEON_WORK
    smarco_work = 1_600 if tiny else LADDER_SMARCO_WORK
    cfg = smarco_scaled(1 if tiny else 2, 4 if tiny else 16)
    xeon = [RunRequest(kind="xeon", workload="kmp", seed=seed, xeon_threads=n,
                       xeon_instrs_per_thread=xeon_work // n)
            for n in threads]
    smarco = [RunRequest(kind="smarco", workload="kmp", seed=seed,
                         smarco_config=cfg, threads_per_core=8,
                         total_threads=n, instrs_per_thread=smarco_work // n)
              for n in threads]
    return tuple(xeon + smarco)


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload("chip256-wordcount", 0, _chip256_wordcount),
    Workload("chip64-ocean", 0, _chip64_ocean),
    Workload("sweep-kmp-ladder", 23, _sweep_kmp_ladder, sweep=True),
)}


def expected_instructions(request: RunRequest) -> int:
    """The instruction total a request asks for."""
    if request.kind == "xeon":
        return request.xeon_threads * request.xeon_instrs_per_thread
    if request.total_threads is not None:
        return request.total_threads * request.instrs_per_thread
    cfg = request.smarco_config or smarco_default()
    return (cfg.sub_rings * cfg.cores_per_sub_ring
            * request.threads_per_core * request.instrs_per_thread)


def geometry(request: RunRequest) -> Dict[str, object]:
    """The shape of one request, for the provenance record."""
    if request.kind == "xeon":
        return {"kind": "xeon", "workload": request.workload,
                "threads": request.xeon_threads,
                "instrs_per_thread": request.xeon_instrs_per_thread,
                "stagger_creation": request.stagger_creation}
    cfg = request.smarco_config or smarco_default()
    return {"kind": "smarco", "workload": request.workload,
            "sub_rings": cfg.sub_rings,
            "cores_per_sub_ring": cfg.cores_per_sub_ring,
            "threads_per_core": request.threads_per_core,
            "total_threads": request.total_threads,
            "instrs_per_thread": request.instrs_per_thread}


# -- one timed invocation --------------------------------------------------------


@dataclass
class Invocation:
    """One request simulated call by call, with host seconds per phase."""

    outcome: RunOutcome
    events: int
    setup_s: float
    run_s: float
    wall_s: float


def build_system(request: RunRequest):
    """Build and load the system a request describes (the set-up phase)."""
    profile = get_profile(request.workload)
    if request.kind == "xeon":
        system = XeonSystem(request.xeon_config, seed=request.seed)
        system.load_profile(profile, request.xeon_threads,
                            request.xeon_instrs_per_thread,
                            stagger_creation=request.stagger_creation)
        return system
    chip = SmarCoChip(request.smarco_config, seed=request.seed,
                      core_policy=request.core_policy,
                      realtime_fraction=request.realtime_fraction)
    chip.load_profile(profile, request.threads_per_core,
                      request.instrs_per_thread,
                      total_threads=request.total_threads,
                      shared_code=request.shared_code)
    return chip


def invoke(request: RunRequest) -> Invocation:
    """Set up, run, dump stats and bill energy for one request, timed."""
    start = time.perf_counter()
    system = build_system(request)
    built = time.perf_counter()
    if request.kind == "xeon":
        system.sim.run(until=request.run_cycles)
        result = system.collect_result()
    else:
        result = system.run(max_cycles=request.run_cycles)
    ran = time.perf_counter()
    outcome = RunOutcome(request=request, result=result,
                         stats=system.registry.dump())
    report = build_energy_report(outcome)
    if report is not None:
        outcome.energy = report.to_dict()
    done = time.perf_counter()
    return Invocation(outcome=outcome, events=system.sim.events_executed,
                      setup_s=built - start, run_s=ran - built,
                      wall_s=done - start)


def new_runner(work_dir: Path, workers: int) -> Runner:
    """A Runner over a fresh, empty cache, built as a new process would.

    The source digest is recomputed, because a fresh process pays for it
    and ``code_version`` otherwise caches it for the process lifetime.
    """
    base = Path(tempfile.mkdtemp(prefix="runner-", dir=work_dir))
    return Runner(workers=workers, base_dir=base,
                  version=code_version(refresh=True))


def discard(runner: Runner) -> None:
    shutil.rmtree(runner.runs_dir.parent, ignore_errors=True)


# -- correctness -----------------------------------------------------------------


def check_outcome(outcome: RunOutcome) -> List[str]:
    """Invariants every finished run must hold; empty when it is correct."""
    request, result, stats = outcome.request, outcome.result, outcome.stats
    problems = []
    want = expected_instructions(request)
    if result.instructions != want:
        problems.append(f"retired {result.instructions} instructions, "
                        f"requested {want}")
    if request.kind == "xeon":
        return problems
    if result.cores_done != result.total_cores:
        problems.append(f"{result.cores_done} of {result.total_cores} "
                        "cores finished")
    if stats["chip.noc.injected"] != stats["chip.noc.delivered"]:
        problems.append(f"NoC injected {stats['chip.noc.injected']} but "
                        f"delivered {stats['chip.noc.delivered']} packets")
    if stats["chip.req_latency.count"] != result.mem_requests:
        problems.append(f"{stats['chip.req_latency.count']} request "
                        f"latencies for {result.mem_requests} requests")
    return problems


def _canonical(outcome: RunOutcome) -> Tuple[str, str, str]:
    # JSON text compares NaN equal to NaN, which float comparison does not
    return tuple(json.dumps(part, sort_keys=True) for part in
                 (outcome.result.to_dict(), outcome.stats, outcome.energy))


def outcome_mismatch(got: RunOutcome, want: RunOutcome) -> List[str]:
    """Which of result / stats / energy differ between two outcomes."""
    return [f"{name} differs from the reference run"
            for name, a, b in zip(("result", "stats", "energy"),
                                  _canonical(got), _canonical(want))
            if a != b]


def replay_problems(replay: SweepResult, cold: List[RunOutcome]) -> List[List[str]]:
    """Per point: a cache replay must hit and return the cold outcome."""
    out = []
    for got, want in zip(replay.outcomes, cold):
        problems = outcome_mismatch(got, want)
        if replay.hit_rate != 1.0:
            problems.append(f"replay hit rate {replay.hit_rate}, not 1.0")
        out.append(problems)
    return out

