"""Adversarial scheduling scenarios and the audited scenario harness.

A *scenario* is a deterministic, seed-driven script of trouble for a
scheduler: a timed task arrival sequence plus optional context-drain
events.  Four adversarial families (plus a benign baseline) stress the
axes along which the related-work policies differ:

* ``uniform``        — the benign Fig 21 shape: one wave, moderate slack.
* ``skewed``         — heavy-tailed (Pareto) task sizes: a few monsters
  among many minnows; punishes policies that let one context eat a
  monster late.
* ``deadline-storm`` — bursts of near-simultaneous arrivals with tight
  per-burst deadlines; punishes high decision overhead and any policy
  that lets early bursts starve late ones.
* ``subring-drain``  — half the execution contexts fail mid-run (a
  sub-ring drain); punishes plans that banked on full parallelism.
* ``mact-hostile``   — sparse-access tasks whose small scattered
  requests defeat MACT batching, inflating their effective work and
  memory-stall share; this is where the data-criticality signal earns
  its keep.

Every scenario draws exclusively from named
:class:`~repro.sim.rng.RngTree` streams, so a (scenario, seed) pair is
bit-reproducible across processes and platforms.

:func:`run_sched_scenario` races one registered policy against one
scenario on a :class:`ScenarioTestbed` — a context pool that exercises
the *full* policy protocol (``submit`` / ``assign`` / context
lifecycle) — under the PR 4 invariant audit layer (task conservation,
context conservation), and returns a :class:`SchedRunResult` that
serialises through the shared result protocol into the experiment
cache, telemetry and report layers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..analysis.quantiles import quantile, thin_sorted
from ..catalog import Catalog
from ..chip.results import DictResult
from ..errors import SchedulerError
from ..sim.engine import Simulator
from ..sim.rng import RngTree
from ..sim.snapshot import snapshotable
from ..sim.stats import StatsRegistry
from .policy import POLICIES
from .task import Task, TaskPriority

__all__ = [
    "SchedScenario",
    "ScenarioScript",
    "ScenarioTestbed",
    "SchedRunResult",
    "SCENARIOS",
    "prepare_sched_scenario",
    "collect_sched_result",
    "run_sched_scenario",
]

#: default deadline-success metric horizon scale (cycles of work per task)
_WORK_LO, _WORK_HI = 60_000.0, 160_000.0

#: most response samples a result record ships (thinned to evenly-spaced
#: order statistics beyond this, which preserves the quantile structure)
RESPONSE_SAMPLE_CAP = 512


@dataclass(frozen=True)
class ScenarioScript:
    """The expanded, deterministic event script of one scenario run."""

    #: (arrival_time, task) pairs; arrival times need not be sorted
    arrivals: Tuple[Tuple[float, Task], ...]
    #: (time, n_contexts) drain events (a drain never kills the last
    #: context — the harness clamps it)
    drains: Tuple[Tuple[float, int], ...] = ()


#: a scenario builder: (rng_tree, profile, n_tasks, contexts) -> script
ScenarioFn = Callable[[RngTree, Any, int, int], ScenarioScript]


@dataclass(frozen=True)
class SchedScenario:
    """One registered adversarial scenario."""

    summary: str
    build: ScenarioFn


#: every registered scenario, by name
SCENARIOS: Catalog[SchedScenario] = Catalog("scenario", SchedulerError)


# -- criticality stamping -----------------------------------------------------


def _base_criticality(profile: Any) -> float:
    """Static per-workload criticality estimate (stall share of work).

    The live signal comes from the hop-trace latency breakdown
    (``repro.analysis.breakdown`` / PR 3) via
    :func:`repro.sched.zoo.criticality_from_breakdown`; scenarios fall
    back to the workload profile's memory shape when no measured rows
    are supplied: accesses that neither hit SPM nor batch well are the
    ones that stall.
    """
    if profile is None:
        return 0.5
    return max(0.05, profile.mem_ratio * (1.0 - profile.spm_fraction))


def _stamp(task: Task, criticality: float, **extra: float) -> Task:
    payload = {"criticality": round(criticality, 9)}
    payload.update(extra)
    task.payload = payload
    return task


# -- the scenario catalogue ---------------------------------------------------


def _s_uniform(rng_tree: RngTree, profile: Any, n_tasks: int,
               contexts: int) -> ScenarioScript:
    rng = rng_tree.stream("uniform.tasks")
    base = _base_criticality(profile)
    # tight enough that a policy wasting its last wave misses the tail
    deadline = _WORK_HI * max(2.0, n_tasks / max(1, contexts)) * 0.80
    arrivals = []
    for _ in range(n_tasks):
        work = rng.uniform(_WORK_LO, _WORK_HI)
        pri = TaskPriority.HIGH if rng.random() < 0.15 else TaskPriority.NORMAL
        task = Task(work_cycles=work, deadline=deadline, priority=pri)
        arrivals.append((0.0, _stamp(task, base * rng.uniform(0.8, 1.2))))
    return ScenarioScript(arrivals=tuple(arrivals))


SCENARIOS.add("uniform", SchedScenario(
    "benign baseline: one wave, uniform sizes, loose deadline", _s_uniform))


def _s_skewed(rng_tree: RngTree, profile: Any, n_tasks: int,
              contexts: int) -> ScenarioScript:
    rng = rng_tree.stream("skewed.tasks")
    base = _base_criticality(profile)
    deadline = _WORK_HI * max(2.0, n_tasks / max(1, contexts)) * 1.2
    arrivals = []
    for _ in range(n_tasks):
        work = min(8.0 * _WORK_HI, 0.4 * _WORK_LO * rng.paretovariate(1.3)
                   + 0.5 * _WORK_LO)
        task = Task(work_cycles=work, deadline=deadline)
        arrivals.append((0.0, _stamp(task, base * rng.uniform(0.8, 1.2))))
    return ScenarioScript(arrivals=tuple(arrivals))


SCENARIOS.add("skewed", SchedScenario(
    "heavy-tailed (Pareto) task sizes: a few monsters among "
    "many minnows", _s_skewed))


def _s_deadline_storm(rng_tree: RngTree, profile: Any, n_tasks: int,
                      contexts: int) -> ScenarioScript:
    rng = rng_tree.stream("storm.tasks")
    base = _base_criticality(profile)
    bursts = 4
    # bursts land faster than the pool can drain them, so the backlog
    # compounds: by the last burst the queue is the real adversary
    mean_work = 0.5 * (0.5 * _WORK_LO + 0.8 * _WORK_HI)
    gap = mean_work * max(1.0, n_tasks / (bursts * max(1, contexts))) * 0.55
    arrivals = []
    for i in range(n_tasks):
        burst = i % bursts
        at = burst * gap + rng.uniform(0.0, 0.02 * gap)
        work = rng.uniform(0.5 * _WORK_LO, 0.8 * _WORK_HI)
        slack = rng.uniform(1.1, 2.6)       # tight relative to queue depth
        pri = TaskPriority.HIGH if rng.random() < 0.3 else TaskPriority.NORMAL
        task = Task(work_cycles=work, priority=pri, arrival=at,
                    deadline=at + slack * work
                    * max(1.0, n_tasks / (bursts * max(1, contexts))))
        arrivals.append((at, _stamp(task, base * rng.uniform(0.9, 1.1))))
    return ScenarioScript(arrivals=tuple(arrivals))


SCENARIOS.add("deadline-storm", SchedScenario(
    "bursts of near-simultaneous arrivals with tight "
    "per-burst deadlines", _s_deadline_storm))


def _s_subring_drain(rng_tree: RngTree, profile: Any, n_tasks: int,
                     contexts: int) -> ScenarioScript:
    rng = rng_tree.stream("drain.tasks")
    base = _base_criticality(profile)
    # headroom budgeted for the *full* pool: the drain is the surprise
    deadline = _WORK_HI * max(2.0, n_tasks / max(1, contexts)) * 0.9
    arrivals = []
    for _ in range(n_tasks):
        work = rng.uniform(_WORK_LO, _WORK_HI)
        task = Task(work_cycles=work, deadline=deadline)
        arrivals.append((0.0, _stamp(task, base * rng.uniform(0.8, 1.2))))
    drain_at = _WORK_HI * 1.5
    return ScenarioScript(arrivals=tuple(arrivals),
                          drains=((drain_at, contexts // 2),))


SCENARIOS.add("subring-drain", SchedScenario(
    "half the contexts fail mid-run (sub-ring drain)", _s_subring_drain))


def _s_mact_hostile(rng_tree: RngTree, profile: Any, n_tasks: int,
                    contexts: int) -> ScenarioScript:
    rng = rng_tree.stream("mact.tasks")
    base = _base_criticality(profile)
    deadline = _WORK_HI * max(2.0, n_tasks / max(1, contexts)) * 1.15
    arrivals = []
    for _ in range(n_tasks):
        # sparsity: fraction of a task's accesses that land alone in a
        # MACT line and pay full DRAM latency instead of batching
        sparsity = rng.uniform(0.1, 1.0)
        work = rng.uniform(0.6 * _WORK_LO, _WORK_HI) * (1.0 + 1.5 * sparsity)
        task = Task(work_cycles=work, deadline=deadline)
        arrivals.append((0.0, _stamp(task, base * (0.5 + 2.5 * sparsity),
                                     sparsity=round(sparsity, 9))))
    return ScenarioScript(arrivals=tuple(arrivals))


SCENARIOS.add("mact-hostile", SchedScenario(
    "sparse scattered accesses defeat MACT batching: "
    "inflated work, high criticality variance", _s_mact_hostile))


# -- the audited scenario testbed --------------------------------------------


@snapshotable
class _ContextSlot:
    """Explicit-state form of one context's dispatch loop.

    Each phase boundary is one resume of the old ``_context_proc``
    generator, issuing identical schedule/wait calls in identical order,
    so the slot can travel through checkpoints.
    """

    __slots__ = ("bed", "ctx", "task", "phase")

    def __init__(self, bed: "ScenarioTestbed", ctx: int) -> None:
        self.bed = bed
        self.ctx = ctx
        self.task: Optional[Task] = None
        self.phase = "init"

    def _step(self, _payload=None) -> None:
        bed = self.bed
        sim = bed.sim
        while True:
            if self.phase == "init":
                bed.scheduler.release_context(self.ctx)
                bed._dispatch()
                self.phase = "pick"
                continue
            if self.phase == "pick":
                task = bed._grants.pop(self.ctx, None)
                if task is None:
                    if (bed._drain_pending
                            and bed.scheduler.withdraw_context(self.ctx)):
                        bed._drain_pending -= 1
                        bed.drained += 1
                        return
                    if bed._finished >= bed._expected:
                        return
                    bed._wake.wait(self._step)
                    return
                self.task = task
                self.phase = "start"
                sim.schedule(bed.scheduler.decision_overhead, self._step, None)
                return
            if self.phase == "start":
                task = self.task
                task.started_at = sim.now
                self.phase = "work"
                sim.schedule(task.work_cycles, self._step, None)
                return
            # work done
            task = self.task
            task.finished_at = sim.now
            self.task = None
            bed._finished += 1
            bed.scheduler.release_context(self.ctx)
            bed._dispatch()
            bed._wake.fire()        # idle contexts re-check for exit/drain
            self.phase = "pick"


class ScenarioTestbed:
    """A context pool driving the *full* policy protocol under audit.

    Unlike :class:`~repro.sched.dispatch.SchedulerTestbed` (which only
    calls ``next_task``), this testbed runs the hardware dispatch
    protocol end-to-end: idle contexts park in the policy's null thread
    chain, a dispatch step pairs them with tasks via ``assign()``, and
    contexts return themselves on completion — so allocation-aware
    policies (``smt-balance``) see real per-context history, and the
    audit layer can check both task and context conservation.
    """

    def __init__(self, sim: Simulator, scheduler, contexts: int = 64,
                 auditor=None) -> None:
        if contexts <= 0:
            raise SchedulerError("need at least one context")
        self.sim = sim
        self.scheduler = scheduler
        self.contexts = contexts
        self.auditor = auditor
        self._wake = sim.signal("scenario.wake")
        self._tasks: List[Task] = []
        self._expected = 0
        self._finished = 0
        self._grants: Dict[int, Task] = {}
        self._started_ids: set = set()
        self._drain_pending = 0
        self.drained = 0
        self._started = False
        self._slots: List[_ContextSlot] = []

    # -- script loading ----------------------------------------------------

    def load(self, script: ScenarioScript) -> None:
        """Schedule every arrival and drain event of a scenario script."""
        self._expected += len(script.arrivals)
        for at, task in script.arrivals:
            if at <= 0:
                self._submit(task)
            else:
                self.sim.schedule_at(at, self._submit, task)
        for at, count in script.drains:
            self.sim.schedule_at(at, self._drain, count)

    def _submit(self, task: Task) -> None:
        self._tasks.append(task)
        self.scheduler.submit(task)
        self._dispatch()
        self._wake.fire()

    def _drain(self, count: int) -> None:
        # never kill the last context: the script must stay completable
        alive = self.contexts - self.drained - self._drain_pending
        self._drain_pending += max(0, min(count, alive - 1))
        self._wake.fire()

    # -- the dispatch protocol ---------------------------------------------

    def _dispatch(self) -> None:
        """Pair free contexts with tasks until either chain runs dry."""
        while True:
            pair = self.scheduler.assign()
            if pair is None:
                return
            context, task = pair
            if self.auditor is not None:
                self.auditor.count("task_conservation")
                if context in self._grants:
                    self.auditor.violation(
                        "task_conservation", f"sched.{self.scheduler.name}",
                        self.sim.now,
                        f"context {context} granted twice concurrently")
                if task.task_id in self._started_ids:
                    self.auditor.violation(
                        "task_conservation", f"sched.{self.scheduler.name}",
                        self.sim.now,
                        f"task {task.task_id} dispatched twice")
            self._started_ids.add(task.task_id)
            self._grants[context] = task

    # -- snapshot protocol --------------------------------------------------

    def state_dict(self) -> dict:
        return {
            "tasks": list(self._tasks),
            "expected": self._expected,
            "finished": self._finished,
            "grants": dict(self._grants),
            "started_ids": set(self._started_ids),
            "drain_pending": self._drain_pending,
            "drained": self.drained,
            "started": self._started,
            "slots": list(self._slots),
        }

    def load_state(self, state: dict) -> None:
        self._tasks = list(state["tasks"])
        self._expected = state["expected"]
        self._finished = state["finished"]
        self._grants = dict(state["grants"])
        self._started_ids = set(state["started_ids"])
        self._drain_pending = state["drain_pending"]
        self.drained = state["drained"]
        self._started = state["started"]
        self._slots = list(state["slots"])

    # -- running -----------------------------------------------------------

    def start(self) -> None:
        if self._started:
            return
        self._started = True
        for ctx in range(self.contexts):
            slot = _ContextSlot(self, ctx)
            self._slots.append(slot)
            self.sim.schedule(0, slot._step, None)

    def run(self) -> List[Task]:
        self.start()
        self.sim.run()
        if self.auditor is not None:
            self._end_of_run_audit()
        return list(self._tasks)

    def _end_of_run_audit(self) -> None:
        now = self.sim.now
        where = f"sched.{self.scheduler.name}"
        self.auditor.count("task_conservation")
        unfinished = [t for t in self._tasks if not t.finished]
        if unfinished:
            self.auditor.violation(
                "task_conservation", where, now,
                f"{len(unfinished)} of {len(self._tasks)} tasks never "
                f"finished (first: {unfinished[0]!r})")
        if self._finished != self._expected:
            self.auditor.violation(
                "task_conservation", where, now,
                f"finished {self._finished} tasks, expected {self._expected}")
        if self.scheduler.pending:
            self.auditor.violation(
                "task_conservation", where, now,
                f"{self.scheduler.pending} tasks still queued at end-of-run")
        self.auditor.count("context_conservation")
        if self._grants:
            self.auditor.violation(
                "context_conservation", where, now,
                f"{len(self._grants)} granted contexts never ran their task")
        alive_free = self.scheduler.free_contexts
        if alive_free + self.drained != self.contexts:
            self.auditor.violation(
                "context_conservation", where, now,
                f"context leak: {alive_free} free + {self.drained} drained "
                f"!= {self.contexts} total")


# -- the run result -----------------------------------------------------------


@dataclass
class SchedRunResult(DictResult):
    """Outcome of one (policy, scenario) race (``kind="sched"``)."""

    policy: str
    scenario: str
    workload: str
    tasks_total: int
    tasks_finished: int
    contexts: int
    contexts_drained: int
    decision_overhead: int
    makespan: float              # sim time when the last task exited
    earliest_exit: float
    latest_exit: float
    deadline_success_rate: float
    mean_response: float
    #: exact nearest-rank p99 of this run's response times; ``nan`` (never
    #: a silent 0.0) when no task produced a response time
    p99_response: float
    #: up to :data:`RESPONSE_SAMPLE_CAP` evenly-spaced order statistics of
    #: the sorted response times — the pooling payload
    #: ``analysis.winners`` aggregates instead of averaging p99s
    response_samples: Tuple[float, ...] = ()

    _COMPUTED = ("miss_rate", "exit_spread")

    def to_dict(self) -> Dict[str, Any]:
        out = super().to_dict()
        # lists round-trip through JSON unchanged; tuples would not
        out["response_samples"] = list(self.response_samples)
        return out

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "SchedRunResult":
        obj = super().from_dict(data)
        obj.response_samples = tuple(obj.response_samples or ())
        return obj

    @property
    def miss_rate(self) -> float:
        return 1.0 - self.deadline_success_rate

    @property
    def exit_spread(self) -> float:
        """max − min exit time (Fig 21's visual width)."""
        return self.latest_exit - self.earliest_exit


# -- the harness --------------------------------------------------------------


@dataclass
class ScenarioRun:
    """A fully-wired (policy, scenario) race, ready to simulate.

    The session/checkpoint layer builds one of these, runs the simulator
    to an arbitrary horizon, snapshots or restores the pieces, and calls
    :func:`collect_sched_result` at the end; :func:`run_sched_scenario`
    is the one-shot convenience wrapper over the same parts.
    """

    sim: Simulator
    registry: StatsRegistry
    rng: RngTree
    scheduler: Any
    bed: "ScenarioTestbed"
    policy: str
    scenario: str
    workload: str


def prepare_sched_scenario(
    policy: str = "laxity",
    scenario: str = "uniform",
    seed: int = 0,
    workload: Optional[str] = "kmp",
    tasks: int = 128,
    contexts: int = 64,
    config=None,
    registry: Optional[StatsRegistry] = None,
    auditor=None,
) -> ScenarioRun:
    """Build the testbed and load the scenario script (no sim run yet)."""
    if tasks <= 0:
        raise SchedulerError("need at least one task")
    profile = None
    if workload:
        from ..workloads.base import get_profile

        profile = get_profile(workload)
    sched_scenario = SCENARIOS.get(scenario)
    reg = registry if registry is not None else StatsRegistry()
    sched = POLICIES.get(policy)(config=config, registry=reg)
    if auditor is not None:
        auditor.installed.append(f"sched:{policy}/{scenario}")
    rng_tree = RngTree(seed).child(f"sched.{scenario}")
    script = sched_scenario.build(rng_tree, profile, tasks, contexts)

    sim = Simulator()
    bed = ScenarioTestbed(sim, sched, contexts=contexts, auditor=auditor)
    bed.load(script)
    return ScenarioRun(sim=sim, registry=reg, rng=rng_tree, scheduler=sched,
                       bed=bed, policy=policy, scenario=scenario,
                       workload=workload or "")


def run_sched_scenario(
    policy: str = "laxity",
    scenario: str = "uniform",
    seed: int = 0,
    workload: Optional[str] = "kmp",
    tasks: int = 128,
    contexts: int = 64,
    config=None,
    registry: Optional[StatsRegistry] = None,
    auditor=None,
) -> SchedRunResult:
    """Race one registered policy against one scenario, audited.

    ``registry`` collects the policy's live counters alongside the
    result; ``auditor`` is a PR 4 :class:`~repro.sim.invariants.Auditor`
    (or None for an unaudited run).
    """
    run = prepare_sched_scenario(
        policy=policy, scenario=scenario, seed=seed, workload=workload,
        tasks=tasks, contexts=contexts, config=config, registry=registry,
        auditor=auditor)
    run.bed.run()
    return collect_sched_result(run)


def collect_sched_result(run: ScenarioRun) -> SchedRunResult:
    """Fold a finished :class:`ScenarioRun` into a result record."""
    bed = run.bed
    done = list(bed._tasks)
    sched = run.scheduler
    policy = run.policy
    scenario = run.scenario
    workload = run.workload
    contexts = bed.contexts

    exits = sorted(t.finished_at for t in done if t.finished_at is not None)
    responses = sorted(t.response_time for t in done
                       if t.response_time is not None)
    finished = len(exits)
    success = (sum(1 for t in done if not t.missed) / len(done)
               if done else 0.0)
    # ceil-based nearest rank via the shared quantile module; the old
    # int(0.99 * (n - 1)) truncated downward and reported ~p89 as "p99"
    # on small samples.  nan, never 0.0, when no task responded.
    p99 = (quantile(responses, 0.99, is_sorted=True)
           if responses else float("nan"))
    return SchedRunResult(
        policy=policy,
        scenario=scenario,
        workload=workload,
        tasks_total=len(done),
        tasks_finished=finished,
        contexts=contexts,
        contexts_drained=bed.drained,
        decision_overhead=sched.decision_overhead,
        makespan=exits[-1] if exits else 0.0,
        earliest_exit=exits[0] if exits else 0.0,
        latest_exit=exits[-1] if exits else 0.0,
        deadline_success_rate=success,
        mean_response=((sum(responses) / len(responses)) if responses
                       else float("nan")),
        p99_response=p99,
        response_samples=tuple(thin_sorted(responses, RESPONSE_SAMPLE_CAP))
        if responses else (),
    )
