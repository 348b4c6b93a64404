"""Run sessions: build a system, pause it at a cycle, freeze it, resume it.

A :class:`RunSession` is the stateful counterpart of the one-shot
:func:`repro.chip.run.execute`: it builds the system a
:class:`~repro.exp.request.RunRequest` describes, can simulate to an
arbitrary cycle horizon (``run_to``), capture a versioned
:class:`~repro.sim.checkpoint.Checkpoint` of everything live (kernel
queues, component state, RNG streams, stats, id counters), restore one
into a freshly rebuilt system, and finish the run into the same
:class:`~repro.chip.run.RunOutcome` the one-shot path produces.

The contract is bit-identical resume: ``build -> run_to(T) -> save;
restore -> finish`` returns exactly the outcome of ``build -> finish``.
The warm-started sweep runner and the ``checkpoint`` CLI subcommands are
both thin layers over this class.

Checkpointable kinds are ``smarco``, ``xeon`` and ``sched`` — the three
run kinds with a single long-lived simulator.  (``tcg`` is a microbench
that finishes in milliseconds; ``compare`` is two sessions back to back.)
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Dict, Optional, Union

from ..errors import CheckpointError, ConfigError
from ..exp.request import RunRequest, request_from_snapshot
from ..mem.request import request_id_state, set_request_id_state
from ..noc.packet import packet_id_state, set_packet_id_state
from ..sched.task import set_task_id_state, task_id_state
from ..sim.checkpoint import (
    Checkpoint,
    SnapshotScope,
    FORMAT_VERSION,
    load_checkpoint,
    save_checkpoint,
)
from ..workloads.base import get_profile
from .run import RunOutcome
from .smarco import SmarCoChip
from .xeon import XeonSystem

__all__ = ["RunSession", "SESSION_KINDS", "session_code_digest"]

#: run kinds a session can checkpoint/restore
SESSION_KINDS = ("smarco", "xeon", "sched")


def session_code_digest() -> str:
    """The code digest stamped into (and checked against) checkpoints."""
    from ..exp.cache import code_version

    return code_version()


class RunSession:
    """One buildable, pausable, freezable simulation run."""

    def __init__(self, request: RunRequest) -> None:
        if request.kind not in SESSION_KINDS:
            raise ConfigError(
                f"run kind {request.kind!r} does not support sessions; "
                f"supported: {', '.join(SESSION_KINDS)}")
        request.validate()
        self.request = request
        self.kind = request.kind
        self._result = None
        if self.kind == "smarco":
            profile = get_profile(request.workload)
            chip = SmarCoChip(request.smarco_config, seed=request.seed,
                              core_policy=request.core_policy,
                              realtime_fraction=request.realtime_fraction)
            chip.load_profile(profile, request.threads_per_core,
                              request.instrs_per_thread,
                              total_threads=request.total_threads,
                              shared_code=request.shared_code)
            self.system = chip
            self.sim = chip.sim
            self.scope = SnapshotScope(
                chip.sim, roots=(chip,), rng=chip.rng,
                registry=chip.registry)
        elif self.kind == "xeon":
            profile = get_profile(request.workload)
            system = XeonSystem(request.xeon_config, seed=request.seed)
            system.load_profile(profile, request.xeon_threads,
                                request.xeon_instrs_per_thread,
                                stagger_creation=request.stagger_creation)
            self.system = system
            self.sim = system.sim
            self.scope = SnapshotScope(
                system.sim, roots=(system,), rng=system.rng,
                registry=system.registry)
        else:  # sched
            from ..sched.scenarios import prepare_sched_scenario

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
            )
            self.system = run
            self.sim = run.sim
            self.scope = SnapshotScope(
                run.sim, roots=(), rng=run.rng, registry=run.registry,
                extra_anchors={"testbed": run.bed, "policy": run.scheduler})

    # -- driving -------------------------------------------------------------

    @property
    def now(self) -> float:
        return self.sim.now

    @property
    def finished(self) -> bool:
        return self._result is not None

    def run_to(self, cycles: float) -> None:
        """Simulate to an absolute cycle horizon (a clean snapshot point)."""
        if self.kind == "smarco" or self.kind == "xeon":
            self.system.run_to(cycles)
        else:
            self.system.bed.start()
            self.sim.run(until=cycles)

    def finish(self) -> RunOutcome:
        """Run to the horizon (``request.run_cycles`` or completion) and
        collect the run outcome (idempotent)."""
        if self._result is not None:
            return self._result
        horizon = self.request.run_cycles
        if self.kind == "smarco":
            result = self.system.run(max_cycles=horizon)
            outcome = RunOutcome(request=self.request, result=result,
                                 stats=self.system.registry.dump(),
                                 components=self.system.tree_dict())
        elif self.kind == "xeon":
            self.sim.run(until=horizon)
            result = self.system.collect_result()
            outcome = RunOutcome(request=self.request, result=result,
                                 stats=self.system.registry.dump(),
                                 components=self.system.tree_dict())
        else:
            from ..sched.scenarios import collect_sched_result

            if horizon is not None:
                self.system.bed.start()
                self.sim.run(until=horizon)
            else:
                self.system.bed.run()
            result = collect_sched_result(self.system)
            outcome = RunOutcome(request=self.request, result=result,
                                 stats=self.system.registry.dump())
        self._result = outcome
        return outcome

    # -- checkpointing -------------------------------------------------------

    def _extra_state(self) -> Dict[str, Any]:
        extra: Dict[str, Any] = {
            "ids": {
                "request": request_id_state(),
                "packet": packet_id_state(),
                "task": task_id_state(),
            },
        }
        if self.kind == "sched":
            extra["testbed"] = self.system.bed.state_dict()
            extra["policy"] = self.system.scheduler.state_dict()
        return extra

    def _apply_extra(self, extra: Dict[str, Any]) -> None:
        ids = extra["ids"]
        set_request_id_state(ids["request"])
        set_packet_id_state(ids["packet"])
        set_task_id_state(ids["task"])
        if self.kind == "sched":
            self.system.bed.load_state(extra["testbed"])
            self.system.scheduler.load_state(extra["policy"])

    def checkpoint(self) -> Checkpoint:
        """Freeze the session at the current cycle."""
        if self._result is not None:
            raise CheckpointError("session already finished; nothing to save")
        data, objects = self.scope.capture(self._extra_state())
        return Checkpoint(
            format=FORMAT_VERSION,
            code_digest=session_code_digest(),
            schema=self.scope.schema_hash(),
            kind=self.kind,
            request=self.request.snapshot(),
            cycle=self.sim.now,
            data=data,
            objects=objects,
        )

    def save(self, path: Union[str, Path]) -> Path:
        """Checkpoint and write to ``path`` (gzip when it ends in .gz)."""
        return save_checkpoint(self.checkpoint(), Path(path))

    @classmethod
    def restore(cls, source: Union[Checkpoint, str, Path],
                request: Optional[RunRequest] = None,
                allow_code_skew: bool = False) -> "RunSession":
        """Rebuild a session from a checkpoint (strict by default).

        The system is rebuilt from the checkpoint's own request snapshot
        (or an explicitly supplied equivalent ``request``), verified
        against the header, and then overwritten wholesale with the
        frozen state.
        """
        ckpt = (source if isinstance(source, Checkpoint)
                else load_checkpoint(Path(source)))
        req = (request if request is not None
               else request_from_snapshot(ckpt.request))
        session = cls(req)
        ckpt.verify(session.scope, session_code_digest(),
                    allow_code_skew=allow_code_skew)
        extra = session.scope.restore(ckpt.data, ckpt.objects)
        session._apply_extra(extra)
        return session
