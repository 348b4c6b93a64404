"""Hierarchical ring NoC (paper §3.2, Fig 4).

One main ring connects 16 bridge routers (one per sub-ring), 4 memory
controllers at equal spacing, the main task scheduler, and the PCIe/IO
stop.  Each sub-ring connects its 16 cores plus its bridge router.

Routing is leg-chained: a core-to-memory packet crosses its sub-ring to
the bridge, pays the bridge transfer latency, then rides the main ring to
the controller stop.  Every leg models link contention through
:class:`~repro.noc.link.RingSegment`.
"""

from __future__ import annotations

from typing import Dict, Generator, List, Optional

from ..config import RingConfig
from ..errors import NocError
from ..sim.component import Component
from ..sim.engine import Completion, Simulator
from ..sim.snapshot import snapshotable
from ..sim.stats import StatsRegistry
from .packet import NodeId, Packet
from .ring import Ring

__all__ = ["HierarchicalRingNoC"]


@snapshotable
class _NocFlight:
    """Explicit-state form of the leg-chained routing process.

    Phases mirror the old ``_route`` generator's yield points: each
    sub-ring / main-ring leg is a :class:`Completion` the flight waits
    on, with the bridge transfer delays between them.
    """

    __slots__ = ("noc", "packet", "completion", "phase")

    def __init__(self, noc: "HierarchicalRingNoC", packet: Packet,
                 completion: Completion) -> None:
        self.noc = noc
        self.packet = packet
        self.completion = completion
        self.phase = "start"

    def _src_ring(self) -> Optional[int]:
        return self.noc._ring_of(self.packet.src)

    def _dst_ring(self) -> Optional[int]:
        return self.noc._ring_of(self.packet.dst)

    def _step(self, _payload=None) -> None:
        noc = self.noc
        sim = noc.sim
        packet = self.packet
        while True:
            if self.phase == "start":
                src_ring = self._src_ring()
                dst_ring = self._dst_ring()
                if (src_ring is not None and dst_ring is not None
                        and src_ring == dst_ring):
                    # Same sub-ring: one leg.
                    leg = noc.sub_ring_nets[src_ring].send(
                        packet, noc.sub_stop(packet.src),
                        noc.sub_stop(packet.dst), final=False)
                    self.phase = "deliver"
                    leg.wait(self._step)
                    return
                if src_ring is not None:
                    # Leg 1: source sub-ring to its bridge.
                    leg = noc.sub_ring_nets[src_ring].send(
                        packet, noc.sub_stop(packet.src),
                        noc.sub_stop(NodeId("bridge", ring=src_ring)),
                        final=False)
                    self.phase = "bridge_in"
                    leg.wait(self._step)
                    return
                self.phase = "main"
                continue
            if self.phase == "bridge_in":
                src_ring = self._src_ring()
                if packet.traces:
                    packet.advance_traces(
                        "bridge", f"{noc.path}.bridge{src_ring}", sim.now)
                self.phase = "main"
                sim.schedule(noc.config.bridge_latency, self._step, None)
                return
            if self.phase == "main":
                # Leg 2: main ring.
                src_ring = self._src_ring()
                dst_ring = self._dst_ring()
                if src_ring is not None:
                    main_src = noc.main_stop(NodeId("bridge", ring=src_ring))
                else:
                    main_src = noc.main_stop(packet.src)
                if dst_ring is not None:
                    main_dst = noc.main_stop(NodeId("bridge", ring=dst_ring))
                else:
                    main_dst = noc.main_stop(packet.dst)
                self.phase = "bridge_out"
                if main_src != main_dst:
                    leg = noc.main_ring.send(packet, main_src, main_dst,
                                             final=False)
                    leg.wait(self._step)
                    return
                continue
            if self.phase == "bridge_out":
                # Leg 3: destination sub-ring (if destination is a core).
                dst_ring = self._dst_ring()
                if dst_ring is None:
                    self.phase = "deliver"
                    continue
                if packet.traces:
                    packet.advance_traces(
                        "bridge", f"{noc.path}.bridge{dst_ring}", sim.now)
                self.phase = "leg_out"
                sim.schedule(noc.config.bridge_latency, self._step, None)
                return
            if self.phase == "leg_out":
                dst_ring = self._dst_ring()
                leg = noc.sub_ring_nets[dst_ring].send(
                    packet, noc.sub_stop(NodeId("bridge", ring=dst_ring)),
                    noc.sub_stop(packet.dst), final=False)
                self.phase = "deliver"
                leg.wait(self._step)
                return
            if self.phase == "deliver":
                noc.delivered.inc()
                noc.latency.add(sim.now - packet.created_at)
                packet.deliver(sim.now)
                self.completion.finish(sim.now)
                return
            raise NocError(f"noc flight in unknown phase {self.phase!r}")


class HierarchicalRingNoC(Component):
    """The full on-chip network of the SmarCo chip.

    Packets enter either through :meth:`send` (returns the routing
    :class:`~repro.sim.engine.Process` to block on) or fire-and-forget
    through the ``inject`` input port.
    """

    def __init__(
        self,
        sim: Simulator,
        sub_rings: int,
        cores_per_sub_ring: int,
        mem_channels: int,
        config: Optional[RingConfig] = None,
        registry: Optional[StatsRegistry] = None,
        parent: Optional[Component] = None,
        name: str = "noc",
    ) -> None:
        if mem_channels > sub_rings:
            raise NocError("more memory controllers than main-ring bridge slots")
        super().__init__(name, parent=parent, sim=sim, registry=registry)
        self.config = config if config is not None else RingConfig()
        self.inject = self.in_port("inject", Packet, handler=self.send)
        self.num_sub_rings = sub_rings
        self.cores_per_sub_ring = cores_per_sub_ring

        # -- main-ring stop layout: bridges with MCs interleaved at equal
        #    spacing, then scheduler + IO stops.
        self.main_stops: List[NodeId] = []
        self._main_stop_of: Dict[NodeId, int] = {}
        spacing = max(1, sub_rings // max(1, mem_channels))
        mc_placed = 0
        for s in range(sub_rings):
            self._add_main_stop(NodeId("bridge", ring=s))
            if (s + 1) % spacing == 0 and mc_placed < mem_channels:
                self._add_main_stop(NodeId("mc", index=mc_placed))
                mc_placed += 1
        while mc_placed < mem_channels:
            self._add_main_stop(NodeId("mc", index=mc_placed))
            mc_placed += 1
        self._add_main_stop(NodeId("sched"))
        self._add_main_stop(NodeId("io"))

        self.main_ring = Ring.from_config(
            sim, "main", len(self.main_stops), self.config,
            is_main=True, registry=self.stats,
        )

        # -- sub-rings: cores 0..n-1, bridge at the last stop.
        self.sub_ring_nets: List[Ring] = [
            Ring.from_config(
                sim, f"sub{s}", cores_per_sub_ring + 1, self.config,
                is_main=False, registry=self.stats,
            )
            for s in range(sub_rings)
        ]

        self.injected = self.stats.counter("injected")
        self.delivered = self.stats.counter("delivered")
        self.latency = self.stats.accumulator("latency")

    def attach_audit(self, auditor) -> None:
        auditor.register_flow(self.path, self.injected, self.delivered)
        for ring in [self.main_ring] + self.sub_ring_nets:
            for seg in ring.segments:
                auditor.register_link(seg.cw)
                auditor.register_link(seg.ccw)
                if seg.bidi is not None:
                    auditor.register_link(seg.bidi)

    def _add_main_stop(self, node: NodeId) -> None:
        self._main_stop_of[node] = len(self.main_stops)
        self.main_stops.append(node)

    # -- stop lookup -------------------------------------------------------------

    def main_stop(self, node: NodeId) -> int:
        """Main-ring stop index of a bridge / mc / sched / io node."""
        try:
            return self._main_stop_of[node]
        except KeyError:
            raise NocError(f"{node} is not on the main ring") from None

    def sub_stop(self, node: NodeId) -> int:
        """Sub-ring stop index of a core or bridge node."""
        if node.kind == "core":
            if not 0 <= node.index < self.cores_per_sub_ring:
                raise NocError(f"{node}: core index out of range")
            return node.index
        if node.kind == "bridge":
            return self.cores_per_sub_ring
        raise NocError(f"{node} is not on a sub-ring")

    def _ring_of(self, node: NodeId) -> Optional[int]:
        """Sub-ring number for core nodes, None for main-ring devices."""
        return node.ring if node.kind == "core" else None

    # -- sending -------------------------------------------------------------------

    def send(self, packet: Packet) -> Completion:
        """Route ``packet`` from ``packet.src`` to ``packet.dst``."""
        sim = self.sim
        packet.created_at = sim.now
        self.injected.inc()
        completion = Completion(sim, f"noc.pkt{packet.pkt_id}")
        flight = _NocFlight(self, packet, completion)
        sim.schedule(0, flight._step, None)
        return completion

    # -- snapshot protocol -------------------------------------------------------------

    def snapshot_anchors(self) -> dict:
        anchors = {"ring:main": self.main_ring}
        for i, ring in enumerate(self.sub_ring_nets):
            anchors[f"ring:sub{i}"] = ring
        return anchors

    def extra_state(self) -> dict:
        return {
            "main": self.main_ring.state_dict(),
            "subs": [ring.state_dict() for ring in self.sub_ring_nets],
        }

    def load_extra_state(self, state: dict) -> None:
        self.main_ring.load_state(state["main"])
        for ring, ring_state in zip(self.sub_ring_nets, state["subs"]):
            ring.load_state(ring_state)

    # -- chip-level metrics -----------------------------------------------------------

    def total_bytes(self) -> int:
        return self.main_ring.total_bytes() + sum(
            r.total_bytes() for r in self.sub_ring_nets
        )

    def mean_latency(self) -> float:
        return self.latency.mean

    def bandwidth_utilization(self, now: float) -> float:
        """Mean segment utilisation across the whole chip in [0, now]."""
        if now <= 0:
            return 0.0
        links = []
        for ring in [self.main_ring] + self.sub_ring_nets:
            for seg in ring.segments:
                links.append(seg.cw.utilization(now))
                links.append(seg.ccw.utilization(now))
                if seg.bidi is not None:
                    links.append(seg.bidi.utilization(now))
        return sum(links) / len(links) if links else 0.0
