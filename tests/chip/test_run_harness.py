"""Tests for the comparison harness (chip/run.py)."""

import pytest

from repro.chip import ComparisonResult, execute
from repro.config import smarco_scaled
from repro.errors import ConfigError
from repro.exp import RunRequest


class TestRunHelpers:
    def test_run_smarco_request(self):
        request = RunRequest(kind="smarco", workload="kmp",
                             smarco_config=smarco_scaled(1, 4),
                             threads_per_core=4, instrs_per_thread=100)
        result = execute(request).result
        assert result.instructions == 4 * 4 * 100

    def test_unknown_workload(self):
        with pytest.raises(ConfigError, match="unknown workload 'quake'"):
            execute(RunRequest(workload="quake",
                               smarco_config=smarco_scaled(1, 2)))

    def test_run_smarco_policy_passthrough(self):
        base = RunRequest(workload="kmp", smarco_config=smarco_scaled(1, 4),
                          threads_per_core=8, instrs_per_thread=100)
        pair = execute(base.replace(core_policy="inpair")).result
        coarse = execute(base.replace(core_policy="coarse")).result
        assert pair.cycles != coarse.cycles        # policies actually differ

    def test_execute_returns_outcome_with_stats(self):
        request = RunRequest(kind="smarco", workload="kmp",
                             smarco_config=smarco_scaled(1, 4),
                             threads_per_core=4, instrs_per_thread=80)
        outcome = execute(request)
        assert outcome.request == request
        assert outcome.result.instructions == 4 * 4 * 80
        assert outcome.stats                       # registry dump rides along


class TestCompare:
    @pytest.fixture(scope="class")
    def result(self):
        return execute(RunRequest(
            kind="compare", workload="wordcount",
            smarco_config=smarco_scaled(2, 8), instrs_per_thread=150,
            xeon_threads=16, xeon_instrs_per_thread=10_000, seed=9)).result

    def test_result_shape(self, result):
        assert isinstance(result, ComparisonResult)
        assert result.workload == "wordcount"
        assert result.smarco.throughput_ips > 0
        assert result.xeon.throughput_ips > 0

    def test_speedup_definition(self, result):
        assert result.speedup == pytest.approx(
            result.smarco.throughput_ips / result.xeon.throughput_ips)

    def test_full_chip_power_billing(self, result):
        """Energy accounting bills SmarCo at full-chip (Table-1 class)
        power even for the scaled geometry."""
        assert result.smarco_watts > 100       # 240W-class, not a 16-core sliver
        assert 0 < result.xeon_watts <= 165

    def test_energy_gain_consistent(self, result):
        smarco_eff = result.smarco.throughput_ips / result.smarco_watts
        xeon_eff = result.xeon.throughput_ips / result.xeon_watts
        assert result.energy_efficiency_gain == pytest.approx(
            smarco_eff / xeon_eff)

    def test_prototype_node_scaling(self):
        base = RunRequest(kind="compare", workload="kmp",
                          smarco_config=smarco_scaled(1, 4),
                          instrs_per_thread=100, xeon_threads=8,
                          xeon_instrs_per_thread=5_000, seed=3)
        at32 = execute(base).result
        at40 = execute(base.replace(technology_nm=40)).result
        # the 40nm node burns more power -> lower energy-efficiency gain
        assert at40.smarco_watts > at32.smarco_watts
        assert at40.energy_efficiency_gain < at32.energy_efficiency_gain
        # throughput (and hence speedup) is node-independent here
        assert at40.speedup == pytest.approx(at32.speedup)
