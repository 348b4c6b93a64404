"""Activity-proportional energy accounting (the dynamic half of Table 1).

The static :class:`~repro.power.energy.PowerModel` answers "what does the
chip burn at activity factor u?" without looking at what the simulator
did.  This module closes that gap: every component already emits scoped
counters (``chip.subring3.mact.requests_in``, ``chip.noc.main.seg0.cw.bytes``
…), so a run's *dynamic* energy can be computed as

    E_dyn = sum over event kinds k of  count_k x e_k

with one calibrated energy-per-event constant ``e_k`` per kind, while
static energy stays time-proportional (leakage watts x seconds).

Calibration
-----------
Per Table 1 component C (Cores, Hierarchy Ring, MACT, SPM+Cache, MC+PHY)
the peak dynamic power at 32 nm / 1.5 GHz / utilization 1.0 is
``peak_W(C) x (1 - STATIC_FRACTION)`` — exactly what
``PowerModel.breakdown(1.0)`` reports above its static floor.  Each event
kind k that lives in C has a relative weight ``w_k`` (e.g. an SPM access
costs ~sqrt(128/16) of a 16 KB cache access) and a *structural full-tilt
rate* ``r_k`` in events/cycle (e.g. every core port busy every cycle).
Solving

    sum over k in C of  (w_k * s_C) * r_k * f_cal  =  P_dyn(C)

for the per-component scale ``s_C`` gives ``e_k = w_k * s_C`` joules per
event.  By construction, a run whose counters hit every full-tilt rate
dissipates exactly the Table 1 dynamic power — the conservation tests
pin this reconciliation.

DVFS and power gating
---------------------
Per-event dynamic energy scales with V² and static power with V (see
:mod:`repro.power.dvfs`); technology scaling reuses
:func:`repro.power.tech.scale_power`.  With ``power_gate_idle`` a
sub-ring whose cores retired nothing sheds its static share (its slice
of Cores/MACT/SPM+Cache leakage plus its ring bit-stops).  All of this
is observation-only: it reads stats after the run and never alters
simulated behaviour, so pinned golden digests are unaffected.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Tuple

from ..config import SmarCoConfig, smarco_default
from ..errors import ConfigError
from .area import AreaModel
from .dvfs import DVFS_POINTS, DvfsPoint
from .energy import STATIC_FRACTION, CAL_FREQUENCY_GHZ, PowerModel
from .tech import scale_power

__all__ = [
    "EventSpec",
    "EVENT_SPECS",
    "EnergyAccounting",
    "ActivityEnergyModel",
    "classify_stat",
]


@dataclass(frozen=True)
class EventSpec:
    """One countable event kind billed to a Table 1 component."""

    kind: str
    #: Table 1 row the event's energy is drawn from
    component: str
    #: relative energy weight within the component (dimensionless)
    weight: float
    #: one-line provenance note (rendered in docs/power.md)
    note: str


#: DMA moves block-sized bursts; bill one transfer as this many
#: word-granularity SPM accesses.
DMA_BURST_WEIGHT = 16.0
#: SRAM access energy grows ~sqrt(capacity); SPM (128 KB) vs cache (16 KB).
SPM_WEIGHT = math.sqrt(128 / 16)

EVENT_SPECS: Dict[str, EventSpec] = {
    spec.kind: spec
    for spec in (
        EventSpec("core_op", "Cores", 1.0,
                  "one retired instruction through a TCG issue slot"),
        EventSpec("icache_access", "SPM+Cache", 1.0,
                  "one 16 KB I-cache lookup (hit or miss)"),
        EventSpec("dcache_access", "SPM+Cache", 1.0,
                  "one 16 KB D-cache lookup (hit or miss)"),
        EventSpec("spm_access", "SPM+Cache", SPM_WEIGHT,
                  "one SPM word access; sqrt(128/16) x a 16 KB lookup"),
        EventSpec("dma_transfer", "SPM+Cache", DMA_BURST_WEIGHT,
                  "one DMA block burst ~ 16 word accesses"),
        EventSpec("ring_flit_hop", "Hierarchy Ring", 1.0,
                  "one byte crossing one ring segment or direct link"),
        EventSpec("mact_lookup", "MACT", 1.0,
                  "one MACT line lookup (collected or bypassed)"),
        EventSpec("ddr_access", "MC+PHY", 1.0,
                  "one DRAM bank access through a channel"),
    )
}


def classify_stat(name: str) -> Optional[str]:
    """Map a flat scoped-stat name to an event kind (None = not billed).

    Only ``chip.``-rooted counters participate, so compare-kind stat
    merges (``xeon.`` prefix) are naturally excluded.
    """
    parts = name.split(".")
    if len(parts) < 2 or parts[0] != "chip":
        return None
    last = parts[-1]
    parent = parts[-2]
    if last == "retired" and parent.startswith("core"):
        return "core_op"
    if parent == "icache" and last in ("hits", "misses"):
        return "icache_access"
    if parent == "dcache" and last in ("hits", "misses"):
        return "dcache_access"
    if last == "spm_hits" and parent.startswith("core"):
        return "spm_access"
    if parent.startswith("spm") and last in ("reads", "writes",
                                             "remote_accesses"):
        return "spm_access"
    if parent == "dma" and last == "transfers":
        return "dma_transfer"
    if last == "bytes" and parts[1] in ("noc", "direct"):
        return "ring_flit_hop"
    if parent == "mact" and last in ("requests_in", "bypasses"):
        return "mact_lookup"
    if last == "requests" and parent.startswith("dram"):
        return "ddr_access"
    return None


@dataclass
class EnergyAccounting:
    """Energy split of one run (all joules; observation-only)."""

    cycles: float
    seconds: float
    frequency_ghz: float
    technology_nm: int
    dvfs: Optional[str]
    power_gate_idle: bool
    dynamic_joules: float
    static_joules: float
    by_component: Dict[str, Dict[str, float]] = field(default_factory=dict)
    by_event: Dict[str, Dict[str, float]] = field(default_factory=dict)
    by_path: Dict[str, float] = field(default_factory=dict)
    gated_subrings: List[str] = field(default_factory=list)
    gated_joules: float = 0.0

    @property
    def total_joules(self) -> float:
        return self.dynamic_joules + self.static_joules

    @property
    def average_watts(self) -> float:
        if self.seconds <= 0:
            return math.nan
        return self.total_joules / self.seconds

    def to_dict(self) -> Dict[str, Any]:
        return {
            "cycles": self.cycles,
            "seconds": self.seconds,
            "frequency_ghz": self.frequency_ghz,
            "technology_nm": self.technology_nm,
            "dvfs": self.dvfs,
            "power_gate_idle": self.power_gate_idle,
            "dynamic_joules": self.dynamic_joules,
            "static_joules": self.static_joules,
            "total_joules": self.total_joules,
            "average_watts": self.average_watts,
            "by_component": self.by_component,
            "by_event": self.by_event,
            "by_path": self.by_path,
            "gated_subrings": list(self.gated_subrings),
            "gated_joules": self.gated_joules,
        }


class ActivityEnergyModel:
    """Calibrated energy-per-event model for one chip configuration."""

    def __init__(self, config: Optional[SmarCoConfig] = None) -> None:
        self.config = config if config is not None else smarco_default()
        self.power = PowerModel(self.config)
        self._area = AreaModel(self.config)
        self._peak = self.power._peak_breakdown_32nm()
        self._rates = self._full_activity_rates()
        self._epe = self._calibrate()

    # -- calibration ----------------------------------------------------------

    def _full_activity_rates(self) -> Dict[str, float]:
        """Structural full-tilt rates in events per core cycle."""
        cfg = self.config
        cores = cfg.total_cores
        return {
            "core_op": cfg.tcg.issue_width * cores,
            "icache_access": float(cores),
            "dcache_access": float(cores),
            "spm_access": float(cores),
            "dma_transfer": cfg.sub_rings / DMA_BURST_WEIGHT,
            # every router bit toggling every cycle, in bytes
            "ring_flit_hop": self._area._ring_bit_stops() / 8.0,
            "mact_lookup": float(cfg.sub_rings),
            "ddr_access": cfg.memory.channels / cfg.memory.row_hit_occupancy,
        }

    def _calibrate(self) -> Dict[str, float]:
        """Joules per event at 32 nm, V = 1.0."""
        f_cal_hz = CAL_FREQUENCY_GHZ * 1e9
        weighted_rate: Dict[str, float] = {}
        for spec in EVENT_SPECS.values():
            weighted_rate[spec.component] = (
                weighted_rate.get(spec.component, 0.0)
                + spec.weight * self._rates[spec.kind])
        epe: Dict[str, float] = {}
        for spec in EVENT_SPECS.values():
            p_dyn = self._peak[spec.component] * (1 - STATIC_FRACTION)
            scale = p_dyn / (f_cal_hz * weighted_rate[spec.component])
            epe[spec.kind] = spec.weight * scale
        return epe

    def energy_per_event(self, kind: str, technology_nm: Optional[int] = None,
                         dvfs: Optional[str] = None) -> float:
        """Joules per event at the given node / operating point."""
        if kind not in self._epe:
            raise ConfigError(
                f"unknown event kind {kind!r}; known: {sorted(self._epe)}")
        node = (technology_nm if technology_nm is not None
                else self.config.technology_nm)
        point = self._resolve_dvfs(dvfs)
        return (scale_power(self._epe[kind], 32, node) * point.dynamic_scale)

    def full_activity_counts(self, cycles: float) -> Dict[str, float]:
        """Synthetic event counts of a run at structural full tilt."""
        return {k: r * cycles for k, r in self._rates.items()}

    # -- extraction -----------------------------------------------------------

    def extract_counts(
        self, stats: Mapping[str, Any],
    ) -> Tuple[Dict[str, float], Dict[str, Dict[str, float]]]:
        """Fold flat scoped stats into (counts by kind, counts by path)."""
        by_kind: Dict[str, float] = {k: 0.0 for k in EVENT_SPECS}
        by_path: Dict[str, Dict[str, float]] = {}
        for name, value in stats.items():
            if not isinstance(value, (int, float)):
                continue
            kind = classify_stat(name)
            if kind is None:
                continue
            by_kind[kind] += value
            path = name.rsplit(".", 1)[0]
            bucket = by_path.setdefault(path, {})
            bucket[kind] = bucket.get(kind, 0.0) + value
        return by_kind, by_path

    def _idle_subrings(self, stats: Mapping[str, Any]) -> List[str]:
        """Sub-rings whose cores retired nothing (power-gating candidates)."""
        retired: Dict[str, float] = {}
        for name, value in stats.items():
            if not isinstance(value, (int, float)):
                continue
            parts = name.split(".")
            if (len(parts) == 4 and parts[0] == "chip"
                    and parts[1].startswith("subring")
                    and parts[2].startswith("core") and parts[3] == "retired"):
                retired[parts[1]] = retired.get(parts[1], 0.0) + value
        return sorted(sr for sr, total in retired.items() if total == 0)

    # -- accounting -----------------------------------------------------------

    def _resolve_dvfs(self, dvfs: Optional[str]) -> DvfsPoint:
        if dvfs is None:
            return DvfsPoint("config", self.config.frequency_ghz, 1.0)
        return DVFS_POINTS.get(dvfs)

    def _gated_static_watts(self, static_w: Dict[str, float],
                            idle: List[str]) -> float:
        """Static watts shed by gating the given idle sub-rings."""
        if not idle:
            return 0.0
        cfg = self.config
        per_ring = (static_w["Cores"] + static_w["MACT"]
                    + static_w["SPM+Cache"]) / cfg.sub_rings
        sub_bits = (cfg.cores_per_sub_ring + 1) * cfg.ring.sub_ring_bits
        ring_share = sub_bits / self._area._ring_bit_stops()
        per_ring += static_w["Hierarchy Ring"] * ring_share
        return per_ring * len(idle)

    def accounting(self, stats: Mapping[str, Any], cycles: float, *,
                   technology_nm: Optional[int] = None,
                   dvfs: Optional[str] = None,
                   power_gate_idle: bool = False) -> EnergyAccounting:
        """Account one run's energy from its flat scoped stats."""
        by_kind, by_path = self.extract_counts(stats)
        idle = self._idle_subrings(stats) if power_gate_idle else []
        return self._account(by_kind, by_path, cycles,
                             technology_nm=technology_nm, dvfs=dvfs,
                             power_gate_idle=power_gate_idle, idle=idle)

    def accounting_from_counts(self, counts: Mapping[str, float],
                               cycles: float, *,
                               technology_nm: Optional[int] = None,
                               dvfs: Optional[str] = None) -> EnergyAccounting:
        """Account synthetic per-kind counts (conservation tests)."""
        by_kind = {k: float(counts.get(k, 0.0)) for k in EVENT_SPECS}
        unknown = set(counts) - set(EVENT_SPECS)
        if unknown:
            raise ConfigError(f"unknown event kinds: {sorted(unknown)}")
        return self._account(by_kind, {}, cycles,
                             technology_nm=technology_nm, dvfs=dvfs,
                             power_gate_idle=False, idle=[])

    def _account(self, by_kind: Dict[str, float],
                 by_path: Dict[str, Dict[str, float]], cycles: float, *,
                 technology_nm: Optional[int], dvfs: Optional[str],
                 power_gate_idle: bool, idle: List[str]) -> EnergyAccounting:
        node = (technology_nm if technology_nm is not None
                else self.config.technology_nm)
        point = self._resolve_dvfs(dvfs)
        seconds = cycles / (point.frequency_ghz * 1e9) if cycles else 0.0

        # per-event dynamic joules at the requested node / operating point
        epe = {k: scale_power(e, 32, node) * point.dynamic_scale
               for k, e in self._epe.items()}
        by_event = {k: {"count": by_kind[k], "joules": by_kind[k] * epe[k]}
                    for k in EVENT_SPECS}
        dyn_by_component: Dict[str, float] = {}
        for kind, spec in EVENT_SPECS.items():
            dyn_by_component[spec.component] = (
                dyn_by_component.get(spec.component, 0.0)
                + by_event[kind]["joules"])

        # static: leakage watts x seconds, V-scaled, minus gated share
        static_w = {c: scale_power(p * STATIC_FRACTION, 32, node)
                    * point.static_scale
                    for c, p in self._peak.items()}
        gated_w = self._gated_static_watts(static_w, idle)
        gated_joules = gated_w * seconds
        total_static_w = sum(static_w.values())
        static_scale = ((total_static_w - gated_w) / total_static_w
                        if total_static_w > 0 else 0.0)

        by_component = {}
        for comp in self._peak:
            stat_j = static_w[comp] * seconds * static_scale
            dyn_j = dyn_by_component.get(comp, 0.0)
            by_component[comp] = {"static": stat_j, "dynamic": dyn_j,
                                  "total": stat_j + dyn_j}

        path_joules = {
            path: sum(count * epe[kind] for kind, count in kinds.items())
            for path, kinds in by_path.items()}

        return EnergyAccounting(
            cycles=cycles,
            seconds=seconds,
            frequency_ghz=point.frequency_ghz,
            technology_nm=node,
            dvfs=dvfs,
            power_gate_idle=power_gate_idle,
            dynamic_joules=sum(v["joules"] for v in by_event.values()),
            static_joules=sum(v["static"] for v in by_component.values()),
            by_component=by_component,
            by_event=by_event,
            by_path=path_joules,
            gated_subrings=idle,
            gated_joules=gated_joules,
        )

    def full_activity_energy(self, cycles: float,
                             technology_nm: Optional[int] = None) -> float:
        """Total joules at structural full tilt — reconciles with
        ``PowerModel.energy_joules(cycles, 1.0, node)`` by construction."""
        acct = self.accounting_from_counts(
            self.full_activity_counts(cycles), cycles,
            technology_nm=technology_nm)
        return acct.total_joules
