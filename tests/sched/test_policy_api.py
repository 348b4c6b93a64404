"""Conformance suite for the SchedulerPolicy protocol.

Every policy in the registry — including ones added after this file was
written — is run through the same contract: uniform construction, task
conservation, an intact context lifecycle, deterministic ordering under
fixed seeds, and a clean invariant audit on every scenario.  A golden
digest pins the default laxity policy bit-identical to its pre-registry
behaviour.
"""

import hashlib
import json

import pytest

from repro.config import SchedulerConfig
from repro.errors import ConfigError, SchedulerError
from repro.sched import (
    POLICIES,
    LaxityScheduler,
    SchedulerPolicy,
    SchedulerTestbed,
    Task,
    TaskPriority,
    run_sched_scenario,
)
from repro.sched.policy import register_policy
from repro.sim.engine import Simulator
from repro.sim.invariants import Auditor
from repro.sim.rng import RngTree
from repro.sim.stats import StatsRegistry
from repro.config import AuditConfig


def _tasks(n=24, seed=0, deadline=500_000.0):
    rng = RngTree(seed).stream("conformance.tasks")
    out = []
    for _ in range(n):
        pri = TaskPriority.HIGH if rng.random() < 0.3 else TaskPriority.NORMAL
        out.append(Task(work_cycles=rng.uniform(10_000, 90_000),
                        deadline=deadline, priority=pri,
                        payload={"criticality": rng.random()}))
    return out


@pytest.fixture(params=POLICIES.names())
def policy_name(request):
    return request.param


class TestRegistry:
    def test_builtins_registered(self):
        names = POLICIES.names()
        for expected in ("laxity", "deadline", "fifo", "smt-balance",
                         "criticality"):
            assert expected in names

    def test_get_policy_unknown(self):
        with pytest.raises(SchedulerError, match="unknown scheduling policy"):
            POLICIES.get("nope")

    def test_duplicate_name_rejected(self):
        with pytest.raises(SchedulerError, match="duplicate"):
            @register_policy("laxity")
            class Clash(SchedulerPolicy):   # pragma: no cover - rejected
                def _enqueue(self, task):
                    pass

                def _select(self):
                    return None

                @property
                def pending(self):
                    return 0

    def test_non_policy_rejected(self):
        with pytest.raises(SchedulerError, match="not a SchedulerPolicy"):
            register_policy("oops")(object)

    def test_summaries_cover_every_policy(self):
        for name, policy in POLICIES.items():
            card = policy.describe()
            assert card["name"] == name
            assert card["summary"]
            assert card["decision_overhead"] > 0

    def test_config_validate_uses_registry(self):
        SchedulerConfig(policy="smt-balance").validate()
        with pytest.raises(ConfigError, match="unknown scheduler policy"):
            SchedulerConfig(policy="random").validate()


class TestConformance:
    """Contract every registered policy must honour."""

    def test_uniform_constructor(self, policy_name):
        reg = StatsRegistry()
        sched = POLICIES.get(policy_name)(name="s0",
                                          config=SchedulerConfig(),
                                          registry=reg)
        assert sched.name == "s0"
        assert sched.registry is reg
        assert sched.decision_overhead > 0
        assert type(sched).policy_name == policy_name

    def test_task_conservation(self, policy_name):
        sched = POLICIES.get(policy_name)()
        tasks = _tasks(24)
        for t in tasks:
            sched.submit(t)
        assert sched.pending == 24
        drained = []
        while True:
            task = sched.next_task()
            if task is None:
                break
            drained.append(task)
        assert sched.pending == 0
        assert sched.next_task() is None
        # every submitted task came back exactly once
        assert sorted(t.task_id for t in drained) == sorted(
            t.task_id for t in tasks)
        assert sched.stats()["submitted"] == 24
        assert sched.stats()["dispatched"] == 24

    def test_context_lifecycle(self, policy_name):
        sched = POLICIES.get(policy_name)()
        for cid in range(4):
            sched.release_context(cid)
        assert sched.free_contexts == 4
        assert sched.acquire_context() == 0          # FIFO
        assert sched.withdraw_context(2) is True
        assert sched.withdraw_context(2) is False    # already gone
        assert sched.free_contexts == 2
        got = {sched.acquire_context(), sched.acquire_context()}
        assert got == {1, 3}
        assert sched.acquire_context() is None

    def test_assign_pairs_context_and_task(self, policy_name):
        sched = POLICIES.get(policy_name)()
        assert sched.assign() is None                # nothing queued, no ctx
        for t in _tasks(3):
            sched.submit(t)
        assert sched.assign() is None                # tasks but no context
        sched.release_context(7)
        pair = sched.assign()
        assert pair is not None
        context, task = pair
        assert context == 7
        assert isinstance(task, Task)
        assert sched.free_contexts == 0
        assert sched.pending == 2
        assert sched.assign() is None                # context pool exhausted

    def test_deterministic_ordering(self, policy_name):
        def drain_order(seed):
            sched = POLICIES.get(policy_name)()
            for t in _tasks(16, seed=seed):
                sched.submit(t)
            order = []
            while sched.pending:
                # record positions, not global task ids (ids are a
                # process-wide counter)
                order.append(sched.next_task().work_cycles)
            return order

        assert drain_order(3) == drain_order(3)
        # and the policy actually reacts to the task set
        assert drain_order(3) != drain_order(4)

    @pytest.mark.parametrize("scenario", ["uniform", "skewed",
                                          "deadline-storm", "subring-drain",
                                          "mact-hostile"])
    def test_audited_scenario_run_is_clean(self, policy_name, scenario):
        auditor = Auditor(AuditConfig(enabled=True, fail_fast=True))
        result = run_sched_scenario(policy_name, scenario, seed=1,
                                    tasks=20, contexts=6, auditor=auditor)
        assert result.tasks_finished == result.tasks_total == 20
        assert auditor.clean
        assert auditor.summary()["total_checks"] > 0
        if scenario == "subring-drain":
            assert result.contexts_drained == 3
        else:
            assert result.contexts_drained == 0

    def test_scenario_runs_are_deterministic(self, policy_name):
        a = run_sched_scenario(policy_name, "skewed", seed=5, tasks=18,
                               contexts=5)
        b = run_sched_scenario(policy_name, "skewed", seed=5, tasks=18,
                               contexts=5)
        assert a == b
        c = run_sched_scenario(policy_name, "skewed", seed=6, tasks=18,
                               contexts=5)
        assert a != c


class TestZoo:
    def test_criticality_orders_by_payload(self):
        from repro.sched import task_criticality

        sched = POLICIES.get("criticality")()
        low = Task(work_cycles=100, deadline=1000,
                   payload={"criticality": 0.1})
        high = Task(work_cycles=100, deadline=1000,
                    payload={"criticality": 0.9})
        bare = Task(work_cycles=100, deadline=1000)   # no payload -> 0.0
        assert task_criticality(bare) == 0.0
        for t in (low, bare, high):
            sched.submit(t)
        assert sched.next_task() is high
        assert sched.next_task() is low
        assert sched.next_task() is bare

    def test_criticality_from_breakdown(self):
        from repro.analysis import BreakdownRow
        from repro.sched import criticality_from_breakdown

        rows = [BreakdownRow("noc", "link", count=3, mean=10.0),
                BreakdownRow("mem", "dram", count=1, mean=50.0)]
        # hop-count-weighted mean hop latency
        assert criticality_from_breakdown(rows) == pytest.approx(80.0 / 4)
        assert criticality_from_breakdown([]) == 0.0

    def test_smt_balance_tracks_served_work(self):
        sched = POLICIES.get("smt-balance")()
        for t in _tasks(6, seed=2):
            sched.submit(t)
        for cid in range(2):
            sched.release_context(cid)
        seen = {}
        while True:
            pair = sched.assign()
            if pair is None:
                break
            context, task = pair
            seen[context] = seen.get(context, 0.0) + task.work_cycles
            sched.release_context(context)
        # both contexts were exercised and the imbalance stays within one
        # max-size task of even
        assert set(seen) == {0, 1}
        assert abs(seen[0] - seen[1]) <= 90_000


GOLDEN_LAXITY_DIGEST = "cc72d4796d098ebc"


class TestGoldenLaxity:
    """The default policy must stay bit-identical across the refactor."""

    def test_testbed_schedule_digest(self):
        rng = RngTree(7).stream("golden.tasks")
        tasks = []
        for _ in range(96):
            work = rng.uniform(50_000, 150_000)
            pri = (TaskPriority.HIGH if rng.random() < 0.25
                   else TaskPriority.NORMAL)
            tasks.append(Task(work_cycles=work, deadline=400_000,
                              priority=pri))
        sim = Simulator()
        bed = SchedulerTestbed(sim, LaxityScheduler(), contexts=24)
        for t in tasks:
            bed.submit(t)
        result = bed.run()
        # digest over (work, priority, start, finish) in submit order: any
        # ordering or timing change to the laxity policy shows up here
        payload = [(round(t.work_cycles, 6), t.priority.value,
                    round(t.started_at, 6), round(t.finished_at, 6))
                   for t in tasks]
        digest = hashlib.sha256(
            json.dumps(payload).encode()).hexdigest()[:16]
        assert digest == GOLDEN_LAXITY_DIGEST
        assert result.success_rate == 0.8125
