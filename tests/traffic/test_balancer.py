"""Front-end balancer policies over stub chip servers."""

import pytest

from repro.errors import TrafficError
from repro.traffic import BALANCERS, LoadBalancer
from repro.traffic.request import TrafficRequest


class StubServer:
    def __init__(self, outstanding, subrings=2, ring_busy=None):
        self.outstanding = outstanding
        self.subrings = subrings
        self._ring = ring_busy or [0] * subrings

    def subring_outstanding(self, subring):
        return self._ring[subring]


def _req(flow=0):
    return TrafficRequest(req_id=0, arrival=0.0, flow=flow, instrs=100)


class TestRegistry:
    def test_three_policies_registered(self):
        names = BALANCERS.names()
        for expected in ("round-robin", "least-outstanding",
                         "subring-aware"):
            assert expected in names

    def test_unknown_balancer(self):
        with pytest.raises(TrafficError, match="unknown balancer"):
            BALANCERS.get("clairvoyant")

    def test_duplicate_rejected(self):
        with pytest.raises(TrafficError, match="duplicate"):
            @BALANCERS.register("round-robin")
            class Dup(LoadBalancer):   # pragma: no cover - rejected
                pass

    def test_summaries_and_describe(self):
        for _, balancer in BALANCERS.items():
            assert balancer.summary != LoadBalancer.summary


class TestPolicies:
    def test_round_robin_cycles(self):
        rr = BALANCERS.get("round-robin")()
        servers = [StubServer(99), StubServer(0), StubServer(0)]
        picks = [rr.route(_req(), servers) for _ in range(6)]
        assert picks == [0, 1, 2, 0, 1, 2]       # ignores load entirely

    def test_least_outstanding_picks_emptiest(self):
        lo = BALANCERS.get("least-outstanding")()
        servers = [StubServer(5), StubServer(2), StubServer(7)]
        assert lo.route(_req(), servers) == 1

    def test_least_outstanding_tie_breaks_low_index(self):
        lo = BALANCERS.get("least-outstanding")()
        servers = [StubServer(3), StubServer(3)]
        assert lo.route(_req(), servers) == 0

    def test_subring_aware_follows_flow_affinity(self):
        sa = BALANCERS.get("subring-aware")()
        # flow 1 -> sub-ring 1; chip 0 is globally emptier but its
        # sub-ring 1 is busier than chip 1's
        servers = [StubServer(1, ring_busy=[0, 4]),
                   StubServer(3, ring_busy=[3, 0])]
        assert sa.route(_req(flow=1), servers) == 1
        # flow 0 -> sub-ring 0: chip 0's is the emptier one
        assert sa.route(_req(flow=0), servers) == 0

    def test_subring_aware_falls_back_to_total_load(self):
        sa = BALANCERS.get("subring-aware")()
        servers = [StubServer(6, ring_busy=[2, 2]),
                   StubServer(1, ring_busy=[2, 2])]
        assert sa.route(_req(flow=0), servers) == 1
