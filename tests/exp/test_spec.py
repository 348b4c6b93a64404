"""ExperimentSpec: declarative grid / explicit sweep expansion."""

import pytest

from repro.errors import ConfigError
from repro.exp import ExperimentSpec, RunRequest


class TestGrid:
    def test_cartesian_expansion_order(self):
        spec = ExperimentSpec.grid(
            "g", RunRequest(kind="tcg"),
            workload=["kmp", "wordcount"], seed=[0, 1, 2])
        points = spec.points()
        assert spec.n_points == len(points) == 6
        # first axis is the outer loop, second the inner
        combos = [(p.request.workload, p.request.seed) for p in points]
        assert combos == [("kmp", 0), ("kmp", 1), ("kmp", 2),
                          ("wordcount", 0), ("wordcount", 1), ("wordcount", 2)]
        assert [p.index for p in points] == list(range(6))

    def test_base_fields_survive(self):
        base = RunRequest(kind="tcg", instrs_per_thread=123, mem_latency=99.0)
        spec = ExperimentSpec.grid("g", base, seed=[0, 1])
        for point in spec.points():
            assert point.request.instrs_per_thread == 123
            assert point.request.mem_latency == 99.0

    def test_unknown_axis_rejected(self):
        with pytest.raises(ConfigError):
            ExperimentSpec.grid("g", RunRequest(), voltage=[1, 2])

    def test_empty_axis_rejected(self):
        with pytest.raises(ConfigError):
            ExperimentSpec.grid("g", RunRequest(), seed=[])

    def test_nameless_spec_rejected(self):
        with pytest.raises(ConfigError):
            ExperimentSpec(name="")

    def test_points_validate_requests(self):
        for bad in ({"threads_per_core": [0]}, {"workload": ["quake"]},
                    {"core_policy": ["bogus"]}):
            spec = ExperimentSpec.grid("g", RunRequest(), **bad)
            with pytest.raises(ConfigError):
                spec.points()


class TestExplicit:
    def test_explicit_overrides_grid(self):
        requests = [RunRequest(kind="tcg", seed=s) for s in (5, 6, 7)]
        spec = ExperimentSpec.explicit("e", requests)
        points = spec.points()
        assert [p.request.seed for p in points] == [5, 6, 7]
        assert spec.n_points == 3

    def test_labels_are_unique(self):
        requests = [RunRequest(kind="tcg")] * 4
        labels = [p.label for p in ExperimentSpec.explicit("e", requests).points()]
        assert len(set(labels)) == 4
