"""RunRequest: the frozen, serialisable run description."""

import dataclasses

import pytest

from repro.config import smarco_scaled, xeon_default
from repro.errors import ConfigError
from repro.exp import RunRequest, request_from_snapshot


class TestRunRequest:
    def test_frozen(self):
        request = RunRequest()
        with pytest.raises(dataclasses.FrozenInstanceError):
            request.workload = "rnc"

    def test_replace_returns_new_request(self):
        request = RunRequest(workload="kmp", seed=0)
        other = request.replace(seed=7)
        assert other.seed == 7 and request.seed == 0
        assert other.workload == "kmp"

    def test_validate_rejects_unknown_kind(self):
        with pytest.raises(ConfigError):
            RunRequest(kind="gpu").validate()

    def test_validate_rejects_nonpositive_counts(self):
        with pytest.raises(ConfigError):
            RunRequest(threads_per_core=0).validate()
        with pytest.raises(ConfigError):
            RunRequest(xeon_instrs_per_thread=0).validate()

    def test_validate_accepts_every_kind(self):
        for kind in ("tcg", "smarco", "xeon", "compare"):
            RunRequest(kind=kind).validate()


class TestEnergyKnobs:
    """DVFS / technology knobs validate eagerly and key the cache."""

    def test_unknown_dvfs_rejected(self):
        with pytest.raises(ConfigError, match="unknown dvfs point"):
            RunRequest(dvfs="ludicrous").validate()

    def test_unknown_node_rejected(self):
        with pytest.raises(ConfigError):
            RunRequest(technology_nm=22).validate()

    def test_dvfs_and_node_are_cache_key_axes(self):
        from repro.exp.cache import request_key

        base = RunRequest(workload="kmp")
        keys = {
            request_key(base),
            request_key(base.replace(dvfs="eco")),
            request_key(base.replace(technology_nm=40)),
            request_key(base.replace(power_gate_idle=True)),
        }
        assert len(keys) == 4


class TestSnapshotRoundtrip:
    def test_plain_request(self):
        request = RunRequest(kind="xeon", workload="search", seed=11,
                             xeon_threads=12)
        snap = request.snapshot()
        assert snap["kind"] == "xeon" and snap["seed"] == 11
        assert request_from_snapshot(snap) == request

    def test_nested_configs_roundtrip(self):
        request = RunRequest(
            kind="compare", workload="terasort", seed=3,
            smarco_config=smarco_scaled(2, 8),
            xeon_config=xeon_default(),
            power_config=smarco_scaled(1, 4),
            technology_nm=40,
        )
        snap = request.snapshot()
        # the snapshot is plain data (JSON-ready), not dataclasses
        assert isinstance(snap["smarco_config"], dict)
        assert isinstance(snap["smarco_config"]["mact"], dict)
        rebuilt = request_from_snapshot(snap)
        assert rebuilt == request
        assert rebuilt.smarco_config.sub_rings == 2
        assert rebuilt.power_config.sub_rings == 1

    def test_snapshot_is_json_serialisable(self):
        import json

        request = RunRequest(smarco_config=smarco_scaled(1, 2))
        text = json.dumps(request.snapshot())
        assert request_from_snapshot(json.loads(text)) == request
        # telemetry, cache records and checkpoints written before two
        # executor fields were retired still load to the same request
        old = json.loads(text)
        old.update({"shards": 0, "shard_quantum": None})
        assert request_from_snapshot(old) == request
