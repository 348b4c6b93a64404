"""The parallel experiment runner.

``Runner.run(spec)`` expands an :class:`ExperimentSpec` into sweep
points, satisfies what it can from the content-addressed result cache,
fans the remaining points out across ``workers`` processes (plain
``multiprocessing``; ``workers=1`` is a deterministic serial fallback),
and writes one telemetry record per point under ``<base_dir>/runs/``.

Determinism: every simulation is fully seeded by its request, so a
parallel sweep returns results bit-identical to a serial sweep of the
same spec — workers only change wall-clock time, never outcomes.
Results come back in point order regardless of completion order.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from ..chip.run import RunOutcome, execute
from ..sim.stats import nest_flat_stats
from .cache import ResultCache, code_version, request_key
from .request import request_from_snapshot
from .spec import ExperimentSpec, SweepPoint
from .telemetry import RunRecord, utc_now, write_record

__all__ = ["Runner", "SweepResult", "resolve_workers"]

#: Environment knob CI uses to pin worker count (e.g. ``REPRO_WORKERS=2``).
WORKERS_ENV = "REPRO_WORKERS"


def resolve_workers(workers: Optional[int] = None) -> int:
    """Explicit argument wins; else ``$REPRO_WORKERS``; else serial.

    A value that does not parse as an integer is *reported*, not
    silently coerced: ``REPRO_WORKERS=two`` used to mean 1 with no hint
    of the typo.
    """
    if workers is None:
        raw = os.environ.get(WORKERS_ENV, "").strip()
        workers = 1
        if raw:
            try:
                workers = int(raw)
            except ValueError:
                import warnings
                warnings.warn(
                    f"ignoring invalid {WORKERS_ENV}={raw!r} (expected an "
                    "integer); using 1", RuntimeWarning, stacklevel=2)
    return max(1, workers)


def _execute_payload(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Worker entry point: simulate one request from its snapshot.

    With a ``warm`` checkpoint path, the worker restores the shared
    post-warmup snapshot into the point's own build and simulates only
    the measurement suffix instead of re-running the warm-up prefix.
    """
    request = request_from_snapshot(payload["snapshot"])
    start = time.perf_counter()
    warm = payload.get("warm")
    if warm:
        from ..chip.session import RunSession

        outcome = RunSession.restore(warm, request=request).finish()
    else:
        outcome = execute(request)
    return {
        "outcome": outcome.to_dict(),
        "wall_time_s": time.perf_counter() - start,
        "worker": f"pid{os.getpid()}",
    }


@dataclass
class SweepResult:
    """Everything one sweep produced, in point order."""

    spec_name: str
    outcomes: List[RunOutcome]
    records: List[RunRecord]
    hits: int
    misses: int
    wall_time_s: float
    workers: int
    #: points satisfied by restoring a shared post-warmup checkpoint
    #: (a partial hit: only the measurement suffix was simulated)
    warm_hits: int = 0
    #: the cache's per-kind counters ("hit" / "warm" / "miss")
    hit_counts: Dict[str, int] = field(default_factory=dict)

    @property
    def results(self) -> List[Any]:
        """The bare result objects (SmarcoRunResult etc.), in point order."""
        return [outcome.result for outcome in self.outcomes]

    @property
    def n_points(self) -> int:
        return len(self.outcomes)

    @property
    def hit_rate(self) -> float:
        return self.hits / self.n_points if self.n_points else 0.0


class Runner:
    """Run experiment specs through the cache and a worker pool."""

    def __init__(
        self,
        workers: Optional[int] = None,
        base_dir: os.PathLike = "results",
        use_cache: bool = True,
        version: Optional[str] = None,
    ) -> None:
        from pathlib import Path

        base = Path(base_dir)
        self.workers = resolve_workers(workers)
        self.runs_dir = base / "runs"
        self.cache = ResultCache(base / "cache")
        self.warm_dir = base / "cache" / "warm"
        self.use_cache = use_cache
        self.version = version if version is not None else code_version()

    def run(self, spec: ExperimentSpec,
            warm_start: bool = False) -> SweepResult:
        points = spec.points()
        sweep_start = time.perf_counter()
        outcomes: List[Optional[RunOutcome]] = [None] * len(points)
        records: List[Optional[RunRecord]] = [None] * len(points)
        keys = [request_key(p.request, self.version) for p in points]

        pending: List[SweepPoint] = []
        for point, key in zip(points, keys):
            cached = self.cache.get(key) if self.use_cache else None
            if cached is not None:
                self.cache.note("hit")
                outcomes[point.index] = RunOutcome.from_dict(cached)
                records[point.index] = self._record(
                    spec, point, key, cached, cache="hit",
                    worker="cache", wall_time_s=0.0)
            else:
                pending.append(point)

        warm_paths = self._materialize_warm(pending) if warm_start else {}
        executed = self._execute(pending, warm_paths)
        for point, done in zip(pending, executed):
            key = keys[point.index]
            kind = "warm" if point.index in warm_paths else "miss"
            self.cache.note(kind)
            outcome_dict = done["outcome"]
            if self.use_cache:
                self.cache.put(key, outcome_dict)
            outcomes[point.index] = RunOutcome.from_dict(outcome_dict)
            records[point.index] = self._record(
                spec, point, key, outcome_dict, cache=kind,
                worker=done["worker"], wall_time_s=done["wall_time_s"])

        for record in records:
            write_record(self.runs_dir, record)
        counts = self.cache.hit_counts()
        return SweepResult(
            spec_name=spec.name,
            outcomes=list(outcomes),
            records=list(records),
            hits=len(points) - len(pending),
            misses=len(pending) - len(warm_paths),
            wall_time_s=time.perf_counter() - sweep_start,
            workers=self.workers,
            warm_hits=len(warm_paths),
            hit_counts=counts,
        )

    # -- internals ---------------------------------------------------------------

    def _materialize_warm(self,
                          pending: List[SweepPoint]) -> Dict[int, str]:
        """One shared post-warmup checkpoint per warm group.

        Pending points with ``warm_cycles > 0`` are grouped by their
        :meth:`~repro.exp.request.RunRequest.warm_base`; each group's
        base is simulated to ``warm_cycles`` exactly once (or reused
        from an earlier sweep on disk) and every point in the group is
        mapped to the resulting checkpoint file.
        """
        from ..chip.session import SESSION_KINDS, RunSession

        groups: Dict[str, List[SweepPoint]] = {}
        bases: Dict[str, Any] = {}
        for point in pending:
            request = point.request
            if request.warm_cycles <= 0 or request.kind not in SESSION_KINDS:
                continue
            base = request.warm_base()
            wkey = request_key(base, self.version)
            groups.setdefault(wkey, []).append(point)
            bases[wkey] = base
        warm_paths: Dict[int, str] = {}
        for wkey, members in groups.items():
            path = self.warm_dir / f"{wkey}.ckpt.gz"
            if not path.is_file():
                session = RunSession(bases[wkey])
                session.run_to(bases[wkey].warm_cycles)
                session.save(path)
            for point in members:
                warm_paths[point.index] = str(path)
        return warm_paths

    def _execute(self, pending: List[SweepPoint],
                 warm_paths: Optional[Dict[int, str]] = None,
                 ) -> List[Dict[str, Any]]:
        warm_paths = warm_paths or {}
        payloads = [{"snapshot": p.request.snapshot(),
                     "warm": warm_paths.get(p.index)} for p in pending]
        if self.workers <= 1 or len(pending) <= 1:
            return [dict(_execute_payload(payload), worker="serial")
                    for payload in payloads]
        methods = multiprocessing.get_all_start_methods()
        ctx = multiprocessing.get_context(
            "fork" if "fork" in methods else None)
        n = min(self.workers, len(pending))
        with ctx.Pool(processes=n) as pool:
            return pool.map(_execute_payload, payloads, chunksize=1)

    def _record(self, spec: ExperimentSpec, point: SweepPoint, key: str,
                outcome_dict: Dict[str, Any], cache: str, worker: str,
                wall_time_s: float) -> RunRecord:
        return RunRecord(
            run_id=key[:12],
            spec=spec.name,
            index=point.index,
            label=point.label,
            cache=cache,
            worker=worker,
            wall_time_s=wall_time_s,
            code_version=self.version,
            timestamp=utc_now(),
            request=outcome_dict["request"],
            result=outcome_dict["result"],
            stats=outcome_dict["stats"],
            stats_tree=nest_flat_stats(outcome_dict["stats"]),
            components=outcome_dict.get("components", {}),
            audit=outcome_dict.get("audit"),
            energy=outcome_dict.get("energy"),
        )
