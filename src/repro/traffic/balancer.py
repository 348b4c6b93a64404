"""Front-end load balancers: who gets the next request.

A :class:`LoadBalancer` sees every arrival before the chips do and picks
the serving chip from the live cluster state (per-chip and per-sub-ring
outstanding counts).  Three registered policies span the design space
the who-wins-where analysis of ``repro.sched`` made familiar:

* ``round-robin``       — stateless rotation; optimal when service times
  are uniform, tail-hostile when they are not (a slow chip keeps
  receiving its share).
* ``least-outstanding`` — join the chip with the fewest in-flight plus
  queued requests; the classic datacenter default.
* ``subring-aware``     — route on the *sub-ring* occupancy of the
  request's preferred sub-ring (its flow key hashed onto the chip's
  sub-ring count): requests of one flow co-locate where their SPM/MACT
  affinity lives, falling back to least-outstanding among chips whose
  home sub-ring is saturated.  This is the policy that knows the chip
  is not a featureless server — cross-ring placement pays the bridge
  penalty (see ``docs/traffic.md``).

Policies are registered by name in :data:`BALANCERS` so
``RunRequest.traffic_balancer`` is a plain cache-key string, mirroring
the scheduler policy catalogue.
"""

from __future__ import annotations

from typing import Sequence, Type

from ..catalog import Catalog
from ..errors import TrafficError
from .request import TrafficRequest

__all__ = ["LoadBalancer", "BALANCERS"]


class LoadBalancer:
    """Routing policy base: subclass, set ``summary``, register."""

    summary = "abstract"

    def route(self, request: TrafficRequest, servers: Sequence) -> int:
        """Index of the serving chip for ``request``."""
        raise NotImplementedError


#: every registered balancer class, by name
BALANCERS: Catalog[Type[LoadBalancer]] = Catalog("balancer", TrafficError)


# -- the catalogue -----------------------------------------------------------


@BALANCERS.register("round-robin")
class RoundRobinBalancer(LoadBalancer):
    """Stateless rotation over the chips."""

    summary = "rotate over chips regardless of load"

    def __init__(self) -> None:
        self._next = 0

    def route(self, request: TrafficRequest, servers: Sequence) -> int:
        chip = self._next % len(servers)
        self._next = chip + 1
        return chip


@BALANCERS.register("least-outstanding")
class LeastOutstandingBalancer(LoadBalancer):
    """Join the chip with the fewest in-flight + queued requests."""

    summary = "join the chip with the fewest outstanding requests"

    def route(self, request: TrafficRequest, servers: Sequence) -> int:
        return min(range(len(servers)),
                   key=lambda i: (servers[i].outstanding, i))


@BALANCERS.register("subring-aware")
class SubringAwareBalancer(LoadBalancer):
    """Place a flow where its preferred sub-ring is least busy.

    The flow key hashes to one sub-ring index; among the chips, prefer
    the one whose *that* sub-ring has the most headroom (then fewest
    total outstanding, then lowest index).  Keeping a flow's requests on
    their home sub-ring avoids the cross-ring service penalty and keeps
    the MACT seeing the adjacent small accesses it batches best.
    """

    summary = "flow-affine: least-busy preferred sub-ring, then least load"

    def route(self, request: TrafficRequest, servers: Sequence) -> int:
        subring = request.flow % servers[0].subrings
        return min(range(len(servers)),
                   key=lambda i: (servers[i].subring_outstanding(subring),
                                  servers[i].outstanding, i))
