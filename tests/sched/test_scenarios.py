"""The adversarial scenario catalogue and the exp-layer sched run kind."""

import json

import pytest

from repro.chip.results import result_from_dict
from repro.chip.run import execute
from repro.config import AuditConfig
from repro.errors import ConfigError, SchedulerError
from repro.exp import ExperimentSpec, RunRequest, Runner
from repro.sched import SCENARIOS, SchedRunResult, run_sched_scenario
from repro.sched.scenarios import SchedScenario
from repro.sim.rng import RngTree
from repro.workloads.base import get_profile


class TestCatalogue:
    def test_five_scenarios_registered(self):
        names = SCENARIOS.names()
        for expected in ("uniform", "skewed", "deadline-storm",
                         "subring-drain", "mact-hostile"):
            assert expected in names

    def test_unknown_scenario(self):
        with pytest.raises(SchedulerError, match="unknown scenario"):
            SCENARIOS.get("nope")

    def test_duplicate_scenario_rejected(self):
        with pytest.raises(SchedulerError, match="duplicate"):
            SCENARIOS.add("uniform", SchedScenario("again", lambda *a: None))

    def test_summaries(self):
        assert all(s.summary for _, s in SCENARIOS.items())

    @pytest.mark.parametrize("name", SCENARIOS.names())
    def test_scripts_are_deterministic(self, name):
        profile = get_profile("kmp")
        build = SCENARIOS.get(name).build

        def fingerprint(seed):
            script = build(RngTree(seed), profile, 20, 8)
            return [(at, t.work_cycles, t.deadline, t.priority.value)
                    for at, t in script.arrivals], list(script.drains)

        assert fingerprint(11) == fingerprint(11)
        assert fingerprint(11) != fingerprint(12)

    @pytest.mark.parametrize("name", SCENARIOS.names())
    def test_criticality_stamped(self, name):
        script = SCENARIOS.get(name).build(RngTree(0), get_profile("kmp"),
                                          10, 4)
        for _, task in script.arrivals:
            assert task.payload["criticality"] > 0

    def test_storm_has_timed_arrivals(self):
        script = SCENARIOS.get("deadline-storm").build(
            RngTree(0), get_profile("kmp"), 16, 4)
        times = sorted({at for at, _ in script.arrivals})
        assert len(times) > 4            # several distinct burst instants
        assert times[0] < times[-1]

    def test_drain_event_present_and_clamped(self):
        script = SCENARIOS.get("subring-drain").build(
            RngTree(0), get_profile("kmp"), 12, 6)
        assert script.drains == ((script.drains[0][0], 3),)
        # the harness never drains the last context even if asked to
        result = run_sched_scenario("fifo", "subring-drain", seed=0,
                                    tasks=6, contexts=1)
        assert result.contexts_drained == 0
        assert result.tasks_finished == 6


class TestSchedRunResult:
    def test_roundtrip_through_result_protocol(self):
        result = run_sched_scenario("laxity", "uniform", seed=2, tasks=12,
                                    contexts=4)
        data = json.loads(json.dumps(result.to_dict()))
        assert data["type"] == "SchedRunResult"
        assert "miss_rate" in data and "exit_spread" in data
        rebuilt = result_from_dict(data)
        assert isinstance(rebuilt, SchedRunResult)
        assert rebuilt == result

    def test_computed_fields(self):
        result = run_sched_scenario("fifo", "uniform", seed=0, tasks=10,
                                    contexts=3)
        assert result.miss_rate == pytest.approx(
            1.0 - result.deadline_success_rate)
        assert result.exit_spread == pytest.approx(
            result.latest_exit - result.earliest_exit)

    def test_bad_inputs(self):
        with pytest.raises(SchedulerError):
            run_sched_scenario("laxity", "uniform", tasks=0)
        with pytest.raises(SchedulerError):
            run_sched_scenario("laxity", "uniform", tasks=4, contexts=0)


class TestExpIntegration:
    def test_request_validation(self):
        RunRequest(kind="sched").validate()
        with pytest.raises(ConfigError, match="unknown scheduling policy"):
            RunRequest(kind="sched", sched_policy="nope").validate()
        with pytest.raises(ConfigError, match="unknown scenario"):
            RunRequest(kind="sched", sched_scenario="nope").validate()
        with pytest.raises(ConfigError, match=">=1 task"):
            RunRequest(kind="sched", sched_tasks=0).validate()

    def test_execute_sched_audited(self):
        request = RunRequest(kind="sched", sched_policy="criticality",
                             sched_scenario="mact-hostile", sched_tasks=16,
                             sched_contexts=6, seed=4)
        outcome = execute(request, audit=AuditConfig(enabled=True,
                                                     fail_fast=True))
        assert isinstance(outcome.result, SchedRunResult)
        assert outcome.result.policy == "criticality"
        assert outcome.result.scenario == "mact-hostile"
        assert outcome.audit is not None and outcome.audit["clean"]
        # the policy's live counters land in the stats dump
        assert outcome.stats["criticality.submitted"] == 16
        assert outcome.stats["criticality.dispatched"] == 16
        # audited == unaudited, bit for bit
        plain = execute(request, audit=AuditConfig(enabled=False))
        assert plain.result == outcome.result

    def test_sched_policy_is_a_sweep_axis(self, tmp_path):
        base = RunRequest(kind="sched", sched_tasks=10, sched_contexts=4)
        spec = ExperimentSpec.grid(
            "zoo-mini", base,
            sched_policy=["laxity", "fifo"],
            sched_scenario=["uniform", "skewed"])
        runner = Runner(workers=1, base_dir=tmp_path)
        sweep = runner.run(spec)
        assert sweep.n_points == 4
        seen = {(o.result.policy, o.result.scenario)
                for o in sweep.outcomes}
        assert seen == {("laxity", "uniform"), ("laxity", "skewed"),
                        ("fifo", "uniform"), ("fifo", "skewed")}
        # the cache key includes the new axes: a second pass is all hits
        again = Runner(workers=1, base_dir=tmp_path).run(spec)
        assert again.hits == 4
        assert [o.to_dict() for o in again.outcomes] == \
               [o.to_dict() for o in sweep.outcomes]

    def test_policy_axis_changes_cache_key(self, tmp_path):
        a = RunRequest(kind="sched", sched_policy="laxity")
        b = a.replace(sched_policy="fifo")
        from repro.exp.cache import request_key
        assert request_key(a) != request_key(b)


class TestWinners:
    def test_matrix_and_rendering(self):
        from repro.analysis import render_winners, winners_matrix

        results = []
        for policy, scenario, succ, mk in [
            ("laxity", "uniform", 1.0, 100.0),
            ("fifo", "uniform", 0.8, 90.0),
            ("laxity", "storm", 0.9, 100.0),
            ("fifo", "storm", 0.9, 80.0),     # tie on success -> faster wins
        ]:
            results.append({"type": "SchedRunResult", "policy": policy,
                            "scenario": scenario,
                            "deadline_success_rate": succ, "makespan": mk,
                            "p99_response": 1.0})
        matrix = winners_matrix(results)
        assert matrix.winners == {"uniform": "laxity", "storm": "fifo"}
        assert matrix.overall in ("laxity", "fifo")
        text = render_winners(results)
        assert "1.000*" in text and "winners:" in text

    def test_records_filter(self):
        from repro.analysis import sched_results_from_records

        class FakeRecord:
            def __init__(self, result):
                self.result = result

        records = [
            FakeRecord({"type": "SchedRunResult", "policy": "laxity",
                        "scenario": "uniform",
                        "deadline_success_rate": 1.0, "makespan": 1.0}),
            FakeRecord({"type": "SmarcoRunResult"}),
        ]
        assert len(sched_results_from_records(records)) == 1

    def test_empty(self):
        from repro.analysis import render_winners

        assert "No sched sweep runs" in render_winners([])
