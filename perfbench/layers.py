"""Per-layer metrics: profiled self time by ``repro`` package, and counts.

Layers are the ``repro`` packages below.  Each one lists the end-to-end
metric it should move, and on which workload, so a later change can say
in advance which numbers it expects to move.

=========== ====================================== ==========================
layer       per-layer metrics                      should move
=========== ====================================== ==========================
sim         sim.self_s .calls .events .ns_per_event sim_ips on chip256-*,
            stats.self_s (sim/stats.py alone)       chip64-*
noc         noc.self_s .calls .packets .hops        sim_ips on chip256-*
            .latency_cyc .seg_wait_cyc .bidi_share  most, then chip64-*
mem         mem.self_s .calls, mem.mact.*,          MACT/DRAM: sim_ips on
            mem.dram.*, mem.req_latency_cyc,        chip64-*; cache model:
            mem.l1_miss_ratio .llc_miss_ratio       sim_ips on sweep-*
core        core.self_s .calls .retired .park_cyc   sim_ips on chip256-*,
            .icache_hit_rate .dcache_hit_rate       sweep-* (Xeon OoO)
            .idle_ratio
workloads   workloads.self_s .calls                 sim_ips on sweep-*
chip        chip.self_s .calls .sim_cycles .ipc     setup_s; sim_ips on
                                                    chip256-*
power       power.self_s                            wall_s on chip workloads
exp         exp.self_s .points .hit_rate            wall_s, replay_s on
            .replay_ms_per_point                    sweep-kmp-ladder only
tracing     trace.overhead_s, other.self_s          nothing
=========== ====================================== ==========================

``noc/traffic.py`` (granularity sampling for the workload generators) is
folded under ``workloads``.  Every other function, inside ``repro`` or
not, is folded under ``other``, so the layer self times plus ``other``
account for all profiled time (``stats`` is a part of ``sim``).

Counts are simulated statistics from ``registry.dump()``, summed over the
workload's requests, so they repeat exactly for a seed.  ``core.*`` cache
rates are the SmarCo TCG cores' I/D caches; ``mem.l1_miss_ratio`` and
``mem.llc_miss_ratio`` and ``core.idle_ratio`` are the Xeon's.  A count or
ratio for a component the workload does not have reads 0.
"""

from __future__ import annotations

import os
import pstats
import re
from typing import Dict, Iterable, List

import repro

__all__ = ["LAYERS", "fold_profile", "count_metrics"]

LAYERS = ("sim", "noc", "mem", "core", "workloads", "chip", "power", "exp")

_PACKAGE = os.path.dirname(os.path.abspath(repro.__file__)) + os.sep
_FOLDED = {os.path.join("noc", "traffic.py"): "workloads"}
_STATS_MODULE = os.path.join("sim", "stats.py")


def _layer_of(filename: str) -> str:
    if not filename.startswith(_PACKAGE):
        return "other"
    rel = filename[len(_PACKAGE):]
    if rel in _FOLDED:
        return _FOLDED[rel]
    head = rel.split(os.sep, 1)[0]
    return head if head in LAYERS else "other"


def fold_profile(profile) -> Dict[str, float]:
    """Self seconds and call counts per layer from a ``cProfile.Profile``."""
    out: Dict[str, float] = {}
    for layer in LAYERS + ("other",):
        out[f"{layer}.self_s"] = 0.0
        if layer != "other":
            out[f"{layer}.calls"] = 0
    out["stats.self_s"] = 0.0
    raw = pstats.Stats(profile).stats
    for (filename, _line, _func), (_cc, calls, self_s, _cum, _by) in raw.items():
        layer = _layer_of(filename)
        out[f"{layer}.self_s"] += self_s
        if layer != "other":
            out[f"{layer}.calls"] += calls
        if filename == _PACKAGE + _STATS_MODULE:
            out["stats.self_s"] += self_s
    return out


# -- simulated counts ------------------------------------------------------------


class _Stats:
    """Sums over flat stat names matching a regex, across several dumps."""

    def __init__(self, dumps: Iterable[Dict[str, float]]) -> None:
        self.dumps = list(dumps)

    def sum(self, pattern: str) -> float:
        rx = re.compile(pattern)
        return sum(v for d in self.dumps for k, v in d.items()
                   if rx.fullmatch(k))

    def total(self, pattern: str) -> float:
        """Sum of an accumulator's samples (``mean * count``)."""
        rx = re.compile(pattern + r"\.count")
        return sum(d[k] * d[k[:-len("count")] + "mean"]
                   for d in self.dumps for k in d if rx.fullmatch(k))

    def mean(self, pattern: str) -> float:
        return _ratio(self.total(pattern), self.sum(pattern + r"\.count"))

    def hit_rate(self, pattern: str) -> float:
        hits = self.sum(pattern + r"\.hits")
        return _ratio(hits, hits + self.sum(pattern + r"\.misses"))


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


_SEG = r"chip\.noc\.(main|sub\d+)\.seg\d+"
_CORE = r"chip\.subring\d+\.core\d+"
_MACT = r"chip\.subring\d+\.mact"
_DRAM = r"chip\.mem\.mc\d+\.dram\d+"


def count_metrics(outcomes: List, events: int) -> Dict[str, float]:
    """Simulated per-layer counts of finished runs (deterministic)."""
    s = _Stats(o.stats for o in outcomes)
    results = [o.result for o in outcomes]
    xeon = [o.result for o in outcomes if o.request.kind == "xeon"]
    cycles = sum(r.cycles for r in results)
    mact_in = s.sum(_MACT + r"\.requests_in")
    mact_out = s.sum(_MACT + r"\.batches_out")
    return {
        "sim.events": events,
        "noc.packets": s.sum(r"chip\.(noc|direct)\.injected"),
        "noc.hops": s.total(r"chip\.noc\.(main|sub\d+)\.hops"),
        "noc.latency_cyc": s.mean(r"chip\.noc\.latency"),
        "noc.seg_wait_cyc": s.total(_SEG + r"\.(cw|ccw|bidi)\.wait"),
        "noc.bidi_share": _ratio(s.sum(_SEG + r"\.bidi\.packets"),
                                 s.sum(_SEG + r"\.(cw|ccw|bidi)\.packets")),
        "mem.mact.requests_in": mact_in,
        "mem.mact.batches_out": mact_out,
        "mem.mact.merge_ratio": _ratio(mact_in, mact_out),
        "mem.mact.bypasses": s.sum(_MACT + r"\.bypasses"),
        "mem.mact.splits": s.sum(_MACT + r"\.splits"),
        "mem.mact.collect_wait_cyc": s.total(_MACT + r"\.collect_wait"),
        "mem.dram.requests": s.sum(_DRAM + r"\.requests"),
        "mem.dram.bank_wait_cyc": s.total(_DRAM + r"\.bank_wait"),
        "mem.dram.bus_wait_cyc": s.total(_DRAM + r"\.bus_wait"),
        "mem.req_latency_cyc": s.mean(r"chip\.req_latency"),
        "mem.l1_miss_ratio": 1.0 - s.hit_rate(r"xeon\.core\d+\.l1d")
        if xeon else 0.0,
        "mem.llc_miss_ratio": 1.0 - s.hit_rate(r"xeon\.llc") if xeon else 0.0,
        "core.retired": s.sum(_CORE + r"\.retired")
        + s.sum(r"xeon\.xcore\d+\.instructions"),
        "core.park_cyc": s.total(_CORE + r"\.park_cycles"),
        "core.icache_hit_rate": s.hit_rate(_CORE + r"\.icache"),
        "core.dcache_hit_rate": s.hit_rate(_CORE + r"\.dcache"),
        "core.idle_ratio": _ratio(sum(r.idle_ratio for r in xeon), len(xeon)),
        "chip.sim_cycles": cycles,
        "chip.ipc": _ratio(sum(r.instructions for r in results), cycles),
    }

