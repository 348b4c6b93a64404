"""Arrival processes: registry, determinism, rate fidelity."""

import pytest

from repro.errors import TrafficError
from repro.sim.rng import RngTree
from repro.traffic import ARRIVALS, ArrivalProcess, generate_requests


class TestRegistry:
    def test_three_processes_registered(self):
        names = ARRIVALS.names()
        for expected in ("poisson", "bursty", "diurnal"):
            assert expected in names

    def test_unknown_arrival(self):
        with pytest.raises(TrafficError, match="unknown arrival"):
            ARRIVALS.get("tsunami")

    def test_duplicate_rejected(self):
        with pytest.raises(TrafficError, match="duplicate"):
            ARRIVALS.add("poisson", ArrivalProcess("again", lambda *a: None))

    def test_summaries(self):
        assert all(a.summary for _, a in ARRIVALS.items())


def _times(name, seed, rate=0.01, n=500):
    return [t for t in ARRIVALS.get(name).build(RngTree(seed), rate, n)]


class TestProcesses:
    @pytest.mark.parametrize("name", ARRIVALS.names())
    def test_deterministic_and_seed_sensitive(self, name):
        assert _times(name, 3) == _times(name, 3)
        assert _times(name, 3) != _times(name, 4)

    @pytest.mark.parametrize("name", ARRIVALS.names())
    def test_monotone_nonnegative(self, name):
        times = _times(name, 0)
        assert len(times) == 500
        assert times[0] >= 0.0
        assert all(b >= a for a, b in zip(times, times[1:]))

    @pytest.mark.parametrize("name", ARRIVALS.names())
    def test_long_run_rate_near_requested(self, name):
        rate, n = 0.02, 8000
        times = _times(name, 1, rate=rate, n=n)
        realised = n / times[-1]
        # 15% tolerance: bursty/diurnal converge slower than poisson
        assert realised == pytest.approx(rate, rel=0.15)

    def test_bursty_is_burstier_than_poisson(self):
        # squared-coefficient-of-variation of the gaps: 1 for Poisson,
        # substantially above 1 for the MMPP
        def scv(times):
            gaps = [b - a for a, b in zip(times, times[1:])]
            mean = sum(gaps) / len(gaps)
            var = sum((g - mean) ** 2 for g in gaps) / len(gaps)
            return var / (mean * mean)

        poisson = scv(_times("poisson", 7, n=8000))
        bursty = scv(_times("bursty", 7, n=8000))
        assert poisson == pytest.approx(1.0, rel=0.3)
        assert bursty > poisson * 1.5

    @pytest.mark.parametrize("name", ARRIVALS.names())
    def test_bad_inputs(self, name):
        build = ARRIVALS.get(name).build
        with pytest.raises(TrafficError, match="rate"):
            list(build(RngTree(0), 0.0, 10))
        with pytest.raises(TrafficError, match="request"):
            list(build(RngTree(0), 1.0, 0))


class TestGenerateRequests:
    def test_flows_independent_of_arrival_process(self):
        a = generate_requests("poisson", RngTree(5), 0.01, 200, 400)
        b = generate_requests("bursty", RngTree(5), 0.01, 200, 400)
        assert [r.flow for r in a] == [r.flow for r in b]
        assert [r.arrival for r in a] != [r.arrival for r in b]

    def test_request_fields(self):
        reqs = generate_requests("poisson", RngTree(0), 0.01, 50, 321)
        assert [r.req_id for r in reqs] == list(range(50))
        assert all(r.instrs == 321 for r in reqs)
        assert all(not r.finished for r in reqs)
        assert all(r.latency is None for r in reqs)

    def test_bad_instrs(self):
        with pytest.raises(TrafficError, match="instrs"):
            generate_requests("poisson", RngTree(0), 0.01, 10, 0)
