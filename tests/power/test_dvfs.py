"""DVFS operating-point registry tests."""

import pytest

from repro.errors import ConfigError
from repro.power import DVFS_POINTS, DvfsPoint


class TestRegistry:
    def test_nominal_is_calibration_point(self):
        point = DVFS_POINTS.get("nominal")
        assert point.frequency_ghz == pytest.approx(1.5)
        assert point.voltage == pytest.approx(1.0)
        assert point.dynamic_scale == pytest.approx(1.0)
        assert point.static_scale == pytest.approx(1.0)

    def test_unknown_name_raises(self):
        with pytest.raises(ConfigError, match="unknown dvfs point"):
            DVFS_POINTS.get("ludicrous")

    def test_list_sorted_by_frequency(self):
        freqs = [p.frequency_ghz for _, p in DVFS_POINTS.items()]
        assert freqs == sorted(freqs)

    def test_summaries_cover_every_point(self):
        for name, point in DVFS_POINTS.items():
            assert point.name == name
            assert point.describe().startswith(f"{name}:")


class TestScaling:
    def test_dynamic_energy_is_v_squared(self):
        point = DvfsPoint("x", frequency_ghz=1.0, voltage=0.8)
        assert point.dynamic_scale == pytest.approx(0.64)

    def test_static_power_is_linear_in_v(self):
        point = DvfsPoint("x", frequency_ghz=1.0, voltage=0.8)
        assert point.static_scale == pytest.approx(0.8)

    def test_turbo_costs_more_per_event_than_eco(self):
        assert DVFS_POINTS.get("turbo").dynamic_scale > DVFS_POINTS.get("eco").dynamic_scale

    def test_describe_mentions_frequency(self):
        assert "1.50 GHz" in DVFS_POINTS.get("nominal").describe()
