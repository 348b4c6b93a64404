"""MapReduce runtime on SmarCo (paper §3.6, Fig 15).

Execution follows the paper's four stages:

1. the framework slices the input by hardware resources
   (:mod:`repro.mapreduce.slicing`);
2. the master (host CPU) maps Map tasks onto sub-rings ``0..N``; each
   task's data is staged in SPM when it fits, otherwise it spills and
   exchanges with main memory;
3. Reduce nodes on sub-rings ``K1..Km`` run ``reduce()`` over the
   shuffled intermediate pairs;
4. the master merges Reduce outputs.

The runtime always computes the *functional* result (real Python
map/reduce).  When given a scheduler-policy and context budget it also
*times* the job on the laxity scheduler testbed, charging per-item work so
the examples can show stage-level concurrency without the full-chip
simulator.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Hashable, List, Optional, Sequence, Tuple

from ..config import SmarCoConfig, smarco_scaled
from ..errors import WorkloadError
from ..sched import POLICIES, SchedulerTestbed, Task
from ..sim.engine import Simulator

__all__ = ["MapReduceJob", "TaskPlacement", "StageTiming", "MapReduceResult",
           "MapReduceRuntime"]

MapFn = Callable[[Any], List[Tuple[Hashable, Any]]]
ReduceFn = Callable[[Hashable, List[Any]], Tuple[Hashable, Any]]


@dataclass(frozen=True)
class MapReduceJob:
    """A user job: a map function and a reduce function."""

    name: str
    map_fn: MapFn
    reduce_fn: ReduceFn
    #: rough work per input item on a TCG thread, for the timing model
    cycles_per_map_item: float = 200.0
    cycles_per_reduce_item: float = 120.0


@dataclass(frozen=True)
class TaskPlacement:
    """Where one task landed (paper Fig 15's sub-ring assignment)."""

    stage: str            # "map" | "reduce"
    index: int
    sub_ring: int
    core: int
    thread: int
    items: int
    spm_resident: bool


@dataclass
class StageTiming:
    cycles: float = 0.0
    tasks: int = 0


@dataclass
class MapReduceResult:
    """Functional output plus placement and (optional) timing."""

    output: Dict[Hashable, Any]
    placements: List[TaskPlacement] = field(default_factory=list)
    shuffle_pairs: int = 0
    map_timing: Optional[StageTiming] = None
    reduce_timing: Optional[StageTiming] = None

    @property
    def total_cycles(self) -> float:
        total = 0.0
        for timing in (self.map_timing, self.reduce_timing):
            if timing is not None:
                total += timing.cycles
        return total


class MapReduceRuntime:
    """Binds jobs to a SmarCo chip configuration."""

    def __init__(
        self,
        config: Optional[SmarCoConfig] = None,
        map_sub_rings: Optional[Sequence[int]] = None,
        reduce_sub_rings: Optional[Sequence[int]] = None,
        simulate_timing: bool = True,
        bytes_per_item: int = 64,
    ) -> None:
        self.config = config if config is not None else smarco_scaled(4)
        all_rings = list(range(self.config.sub_rings))
        if len(all_rings) == 1:
            default_map, default_reduce = all_rings, all_rings
        else:
            cut = max(1, len(all_rings) * 3 // 4)
            default_map, default_reduce = all_rings[:cut], all_rings[cut:]
        self.map_sub_rings = list(map_sub_rings) if map_sub_rings else default_map
        self.reduce_sub_rings = (list(reduce_sub_rings) if reduce_sub_rings
                                 else default_reduce)
        if not self.map_sub_rings or not self.reduce_sub_rings:
            raise WorkloadError("need at least one map and one reduce sub-ring")
        bad = [r for r in self.map_sub_rings + self.reduce_sub_rings
               if not 0 <= r < self.config.sub_rings]
        if bad:
            raise WorkloadError(f"sub-rings {bad} outside chip")
        self.simulate_timing = simulate_timing
        self.bytes_per_item = bytes_per_item

    # -- placement -----------------------------------------------------------

    def _place(self, stage: str, rings: Sequence[int], index: int,
               items: int) -> TaskPlacement:
        cfg = self.config
        ring = rings[index % len(rings)]
        slot = index // len(rings)
        core = slot % cfg.cores_per_sub_ring
        thread = (slot // cfg.cores_per_sub_ring) % cfg.tcg.hw_threads
        spm_resident = items * self.bytes_per_item <= cfg.tcg.spm_bytes - 256
        return TaskPlacement(stage, index, ring, core, thread, items,
                             spm_resident)

    @staticmethod
    def _items_in(chunk: Any) -> int:
        try:
            return max(1, len(chunk))
        except TypeError:
            return 1

    # -- timing --------------------------------------------------------------------

    def _time_stage(self, job: MapReduceJob, placements: List[TaskPlacement],
                    cycles_per_item: float) -> StageTiming:
        """Run one stage's tasks on the laxity testbed; SPM spill costs
        extra memory traffic (the paper's 'exchange data with main
        memory' case)."""
        sim = Simulator()
        scheduler = POLICIES.get(self.config.scheduler.policy)(
            config=self.config.scheduler)
        contexts = (len({p.sub_ring for p in placements})
                    * self.config.cores_per_sub_ring
                    * self.config.tcg.running_threads)
        bed = SchedulerTestbed(sim, scheduler, contexts=max(1, contexts))
        horizon = 1e12
        for p in placements:
            work = p.items * cycles_per_item
            if not p.spm_resident:
                work *= 1.6                    # DRAM exchange penalty
            bed.submit(Task(work_cycles=work, deadline=horizon))
        result = bed.run()
        return StageTiming(cycles=result.latest, tasks=len(placements))

    # -- execution --------------------------------------------------------------------

    def run(self, job: MapReduceJob, input_slices: Sequence[Any]) -> MapReduceResult:
        """Execute a job over pre-sliced input."""
        if not input_slices:
            return MapReduceResult(output={})

        # Stage 2: map tasks on map sub-rings.
        placements: List[TaskPlacement] = []
        intermediate: List[Tuple[Hashable, Any]] = []
        for i, chunk in enumerate(input_slices):
            placements.append(self._place("map", self.map_sub_rings, i,
                                          self._items_in(chunk)))
            pairs = job.map_fn(chunk)
            intermediate.extend(pairs)

        # Shuffle: group by key; each key lands on one reduce task.
        grouped: Dict[Hashable, List[Any]] = {}
        for key, value in intermediate:
            grouped.setdefault(key, []).append(value)

        # Stage 3: reduce tasks on reduce sub-rings.
        output: Dict[Hashable, Any] = {}
        reduce_placements: List[TaskPlacement] = []
        for i, (key, values) in enumerate(sorted(grouped.items(), key=str)):
            reduce_placements.append(
                self._place("reduce", self.reduce_sub_rings, i, len(values))
            )
            out_key, out_value = job.reduce_fn(key, values)
            output[out_key] = out_value

        result = MapReduceResult(
            output=output,
            placements=placements + reduce_placements,
            shuffle_pairs=len(intermediate),
        )
        if self.simulate_timing:
            result.map_timing = self._time_stage(
                job, placements, job.cycles_per_map_item)
            result.reduce_timing = self._time_stage(
                job, reduce_placements, job.cycles_per_reduce_item)
        return result
