"""A cluster of SmarCo chips behind a front-end balancer, open loop.

This is the datacenter tier of the repro: open-loop arrivals
(:mod:`repro.traffic.arrivals`) flow through a registered front-end
balancer (:mod:`repro.traffic.balancer`) onto N chip servers, and every
request's arrival → start → finish stamps fold into the shared quantile
module (:mod:`repro.analysis.quantiles`) as p50/p95/p99/p99.9 and
SLO-violation fractions.

**The chip service model.**  Simulating a full cycle-accurate
:class:`~repro.chip.smarco.SmarCoChip` per request would cap runs at a
few thousand requests; instead each server is a *calibrated* queueing
model of one chip, and the calibration is a real chip run:

* :func:`calibrate_chip` executes the traffic request's own workload on
  a (hop-trace-sampled) SmarCoChip through the unified
  :func:`repro.chip.run.execute` entry point and measures the full-load
  per-context CPI plus the PR-3 hop-stamped latency histograms.
* A chip serves up to ``contexts`` (cores × threads/core) requests
  concurrently; excess requests queue FIFO at the chip.
* A request's service time is ``instrs × CPI × jitter``, where
  ``jitter`` is drawn from the measured hop-latency distribution
  normalised to mean 1 — the memory-tail variability the trace layer
  observed, applied per request.  (Assumption, stated: one multiplier
  per request models fully-correlated memory behaviour within a
  request, which is tail-conservative; see ``docs/traffic.md``.)
* A request landing off its flow's home sub-ring (because that
  sub-ring's context share is saturated) pays the cross-ring bridge
  penalty ``CROSS_RING_PENALTY`` — the structural term that makes the
  ``subring-aware`` balancer a different policy, not a relabelling.

Offered load is expressed as ``rho``, the arrival rate as a fraction of
the cluster's calibrated service capacity, so sweeps over
``traffic_load`` trace the offered-load-vs-latency hockey stick the SLO
report renders.  Everything is seeded through one
:class:`~repro.sim.rng.RngTree`, so a traffic run is deterministic and
cache-keyable like every other run kind.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import deque
from dataclasses import dataclass
from typing import Any, Deque, Dict, List, Optional, Sequence, Tuple

from ..analysis.quantiles import ReservoirQuantiles, thin_sorted
from ..chip.results import DictResult
from ..errors import TrafficError
from ..sim.engine import Simulator
from ..sim.rng import RngTree
from ..sim.stats import StatsRegistry
from .arrivals import generate_requests
from .balancer import create_balancer
from .request import TrafficRequest

__all__ = [
    "CROSS_RING_PENALTY",
    "LATENCY_SAMPLE_CAP",
    "ChipCalibration",
    "ChipServer",
    "TrafficRunResult",
    "calibrate_chip",
    "synthetic_calibration",
    "run_traffic",
]

#: service multiplier for a request executing off its home sub-ring
#: (bridge hop both ways on the hierarchical ring; see docs/traffic.md)
CROSS_RING_PENALTY = 1.3

#: most latency samples a result record ships (thinned order statistics)
LATENCY_SAMPLE_CAP = 512

#: reservoir size of the streaming sketch (exact below this many requests)
RESERVOIR_CAPACITY = 8192


# -- calibration -------------------------------------------------------------


@dataclass(frozen=True)
class ChipCalibration:
    """What the cluster model knows about one chip, measured or synthetic."""

    workload: str
    contexts: int                        # concurrent service slots
    subrings: int
    cpi: float                           # full-load per-context CPI
    frequency_ghz: float
    #: empirical service-jitter distribution, mean-normalised to 1.0:
    #: bucket bounds plus weights; a request's multiplier is drawn
    #: uniformly inside its bucket (a point mass when lo == hi)
    jitter_lo: Tuple[float, ...]
    jitter_hi: Tuple[float, ...]
    jitter_weights: Tuple[float, ...]
    source: str = "measured"

    def __post_init__(self) -> None:
        if self.contexts <= 0 or self.subrings <= 0:
            raise TrafficError("calibration needs >= 1 context and sub-ring")
        if self.cpi <= 0:
            raise TrafficError(f"calibrated CPI must be positive: {self.cpi}")
        if not self.jitter_weights \
                or len({len(self.jitter_lo), len(self.jitter_hi),
                        len(self.jitter_weights)}) != 1 \
                or any(lo > hi for lo, hi in zip(self.jitter_lo,
                                                 self.jitter_hi)):
            raise TrafficError("jitter distribution is malformed")


_UNIT_JITTER = ((1.0,), (1.0,), (1.0,))


def _normalise_jitter(los: Sequence[float], his: Sequence[float],
                      weights: Sequence[float]
                      ) -> Tuple[Tuple[float, ...], Tuple[float, ...],
                                 Tuple[float, ...]]:
    """Scale a bucketed distribution to mean 1, weights to sum 1.

    The mean of a uniform draw in ``[lo, hi]`` is the midpoint, so the
    distribution mean is the weighted midpoint sum.
    """
    total = sum(weights)
    if total <= 0:
        return _UNIT_JITTER
    mean = sum((lo + hi) / 2.0 * w
               for lo, hi, w in zip(los, his, weights)) / total
    if mean <= 0:
        return _UNIT_JITTER
    return (tuple(lo / mean for lo in los),
            tuple(hi / mean for hi in his),
            tuple(w / total for w in weights))


def synthetic_calibration(contexts: int = 32, subrings: int = 2,
                          cpi: float = 2.0, frequency_ghz: float = 1.5,
                          workload: str = "synthetic") -> ChipCalibration:
    """A fixed calibration for kernels/tests that must not run a chip.

    The jitter shape is a mild heavy tail (most requests under the mean,
    a minority several times over it) so percentile math has something
    to measure.
    """
    los, his, weights = _normalise_jitter(
        (0.3, 0.9, 1.3, 3.0), (0.9, 1.3, 3.0, 9.0), (0.45, 0.40, 0.12, 0.03))
    return ChipCalibration(workload=workload, contexts=contexts,
                           subrings=subrings, cpi=cpi,
                           frequency_ghz=frequency_ghz,
                           jitter_lo=los, jitter_hi=his,
                           jitter_weights=weights, source="synthetic")


_HIST_MARK = ".hophist."


#: an open top bucket ``>X`` is modelled as uniform over [X, 4X]
_TAIL_STRETCH = 4.0


def _bucket_bounds(label: str) -> Optional[Tuple[float, float]]:
    """Duration bounds of one histogram bin label.

    Labels come from :meth:`repro.sim.stats.Histogram.bin_labels`:
    ``<=8``, ``(8,32]``, ``>2048``.
    """
    try:
        if label.startswith("<="):
            return 0.0, float(label[2:])
        if label.startswith(">"):
            edge = float(label[1:])
            return edge, edge * _TAIL_STRETCH
        if label.startswith("(") and label.endswith("]"):
            lo, hi = label[1:-1].split(",")
            return float(lo), float(hi)
    except ValueError:      # pragma: no cover - defensive
        return None
    return None


def _jitter_from_stats(stats: Dict[str, float]
                       ) -> Tuple[Tuple[float, ...], Tuple[float, ...],
                                  Tuple[float, ...]]:
    """Pool every hop-latency histogram into one jitter distribution.

    Bucket fractions are weighted by their histogram's sample count, so
    a hot stage (thousands of DRAM hops) outweighs a rarely-visited one.
    Falls back to the deterministic unit jitter when the run was not
    traced (no ``.hophist.`` keys).
    """
    counts: Dict[str, float] = {}
    for key, value in stats.items():
        if _HIST_MARK in key and key.endswith(".count"):
            counts[key[: -len(".count")]] = value
    pooled: Dict[Tuple[float, float], float] = {}
    for key, value in stats.items():
        if _HIST_MARK not in key or not key.endswith("]"):
            continue
        hist, _, label = key.rpartition("[")
        bounds = _bucket_bounds(label[:-1])
        total = counts.get(hist, 0.0)
        if bounds is None or total <= 0 or value <= 0:
            continue
        pooled[bounds] = pooled.get(bounds, 0.0) + value * total
    if not pooled:
        return _UNIT_JITTER
    buckets = sorted(pooled)
    return _normalise_jitter([b[0] for b in buckets],
                             [b[1] for b in buckets],
                             [pooled[b] for b in buckets])


#: per-process memo: calibration request snapshot -> ChipCalibration
_CALIBRATIONS: Dict[str, ChipCalibration] = {}


def calibrate_chip(request: Any) -> ChipCalibration:
    """Measure a chip service model by running the real chip once.

    ``request`` is the traffic :class:`~repro.exp.RunRequest`; the
    calibration run reuses its workload, seed, chip config and
    thread/instruction budgets, with hop-trace sampling forced to 1.0 so
    the jitter distribution has the full per-request latency evidence.
    Memoised per process on the calibration request snapshot.
    """
    import dataclasses

    from ..chip.run import execute
    from ..config import smarco_scaled
    from ..exp.cache import canonical_json

    config = request.smarco_config
    if config is None:
        config = smarco_scaled(2, 4)
    if not config.trace_sample_rate:
        config = dataclasses.replace(config, trace_sample_rate=1.0)
    # reset every traffic_* axis to its default so sweep points that vary
    # only in arrival/balancer/load/... share one calibration (and one
    # memo entry)
    traffic_defaults = {
        f.name: f.default for f in dataclasses.fields(type(request))
        if f.name.startswith("traffic_")}
    calib_request = request.replace(
        kind="smarco", smarco_config=config,
        run_cycles=None, warm_cycles=0.0, warm_axes=(), **traffic_defaults)
    key = canonical_json(calib_request.snapshot())
    cached = _CALIBRATIONS.get(key)
    if cached is not None:
        return cached
    outcome = execute(calib_request)
    result = outcome.result
    contexts = (config.sub_rings * config.cores_per_sub_ring
                * request.threads_per_core)
    if not result.instructions:
        raise TrafficError(
            f"calibration run of {request.workload!r} retired no "
            "instructions; cannot derive a service model")
    cpi = result.cycles * contexts / result.instructions
    los, his, weights = _jitter_from_stats(outcome.stats)
    calibration = ChipCalibration(
        workload=request.workload, contexts=contexts,
        subrings=config.sub_rings, cpi=cpi,
        frequency_ghz=config.frequency_ghz,
        jitter_lo=los, jitter_hi=his, jitter_weights=weights,
        source="measured")
    _CALIBRATIONS[key] = calibration
    return calibration


# -- the cluster -------------------------------------------------------------


class _JitterSampler:
    """Inverse-CDF bucket pick + intra-bucket uniform draw."""

    __slots__ = ("los", "his", "_cum", "rng")

    def __init__(self, calibration: ChipCalibration, rng) -> None:
        self.los = calibration.jitter_lo
        self.his = calibration.jitter_hi
        self._cum: List[float] = []
        acc = 0.0
        for w in calibration.jitter_weights:
            acc += w
            self._cum.append(acc)
        self._cum[-1] = 1.0          # guard against float drift
        self.rng = rng

    def __call__(self) -> float:
        i = bisect_left(self._cum, self.rng.random())
        lo, hi = self.los[i], self.his[i]
        if lo == hi:
            return lo
        return lo + (hi - lo) * self.rng.random()


class ChipServer:
    """One chip as a calibrated multi-context queueing server."""

    def __init__(self, sim: Simulator, chip_id: int,
                 calibration: ChipCalibration, jitter: _JitterSampler,
                 collector: "_Collector") -> None:
        self.sim = sim
        self.chip_id = chip_id
        self.calibration = calibration
        self.capacity = calibration.contexts
        self.subrings = calibration.subrings
        # nominal per-sub-ring context share (>= 1)
        self.ring_share = max(1, self.capacity // self.subrings)
        self.jitter = jitter
        self.collector = collector
        self.busy = 0
        self.served = 0
        self.queue: Deque[TrafficRequest] = deque()
        self._ring_busy = [0] * self.subrings

    @property
    def outstanding(self) -> int:
        """In-flight plus queued — the balancer's load signal."""
        return self.busy + len(self.queue)

    def subring_outstanding(self, subring: int) -> int:
        return self._ring_busy[subring]

    def submit(self, request: TrafficRequest) -> None:
        request.chip = self.chip_id
        request.subring = request.flow % self.subrings
        if self.busy < self.capacity:
            self._start(request)
        else:
            self.queue.append(request)

    def _start(self, request: TrafficRequest) -> None:
        request.started_at = self.sim.now
        self.busy += 1
        home = request.subring
        if self._ring_busy[home] < self.ring_share:
            ring, penalty = home, 1.0
            request.home_hit = True
        else:
            # home sub-ring saturated: spill to the least busy ring and
            # pay the bridge round trip
            ring = min(range(self.subrings), key=lambda r: (self._ring_busy[r], r))
            penalty = CROSS_RING_PENALTY
            request.home_hit = False
        self._ring_busy[ring] += 1
        service = (request.instrs * self.calibration.cpi
                   * self.jitter() * penalty)
        self.sim.schedule(service, self._finish, (request, ring))
    def _finish(self, payload: Tuple[TrafficRequest, int]) -> None:
        request, ring = payload
        request.finished_at = self.sim.now
        self.busy -= 1
        self._ring_busy[ring] -= 1
        self.served += 1
        self.collector.record(request)
        if self.queue:
            self._start(self.queue.popleft())


class _Collector:
    """Folds completed requests into the streaming quantile sketch."""

    def __init__(self, rng, slo_cycles: Sequence[float],
                 reservoir_capacity: int) -> None:
        self.sketch = ReservoirQuantiles(reservoir_capacity, rng)
        self.slo_cycles = list(slo_cycles)
        self.slo_hits = [0] * len(self.slo_cycles)
        self.completed = 0
        self.wait_sum = 0.0
        self.home_hits = 0
        self.last_finish = 0.0

    def record(self, request: TrafficRequest) -> None:
        latency = request.latency
        assert latency is not None
        self.completed += 1
        self.sketch.add(latency)
        self.wait_sum += request.wait or 0.0
        if request.home_hit:
            self.home_hits += 1
        if request.finished_at > self.last_finish:
            self.last_finish = request.finished_at
        for i, bound in enumerate(self.slo_cycles):
            if latency > bound:
                self.slo_hits[i] += 1


# -- the result --------------------------------------------------------------


@dataclass
class TrafficRunResult(DictResult):
    """Outcome of one open-loop cluster run (``kind="traffic"``)."""

    workload: str
    arrival: str
    balancer: str
    chips: int
    contexts_per_chip: int
    requests_total: int
    requests_completed: int
    load: float                      # offered rho (fraction of capacity)
    rate_per_cycle: float            # the realised arrival rate lambda
    base_service_cycles: float       # calibrated solo service time
    frequency_ghz: float
    duration_cycles: float           # last completion time
    mean_latency: float
    mean_wait: float
    p50_latency: float
    p95_latency: float
    p99_latency: float
    p999_latency: float
    slo_targets: Tuple[float, ...]       # multiples of base_service_cycles
    slo_violations: Tuple[float, ...]    # violation fraction per target
    per_chip_served: Tuple[int, ...]
    home_hit_rate: float
    quantile_mode: str                   # "exact" | "reservoir"
    calibration_source: str              # "measured" | "synthetic"
    latency_samples: Tuple[float, ...] = ()

    _COMPUTED = ("throughput_rps", "p99_latency_ms")

    _TUPLES = ("slo_targets", "slo_violations", "per_chip_served",
               "latency_samples")

    @property
    def throughput_rps(self) -> float:
        """Completed requests per second of simulated wall time."""
        if not self.duration_cycles:
            return float("nan")
        seconds = self.duration_cycles / (self.frequency_ghz * 1e9)
        return self.requests_completed / seconds

    @property
    def p99_latency_ms(self) -> float:
        return self.p99_latency / (self.frequency_ghz * 1e9) * 1e3

    def to_dict(self) -> Dict[str, Any]:
        out = super().to_dict()
        for name in self._TUPLES:
            out[name] = list(getattr(self, name))
        return out

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "TrafficRunResult":
        obj = super().from_dict(data)
        for name in cls._TUPLES:
            setattr(obj, name, tuple(getattr(obj, name) or ()))
        return obj


# -- the driver --------------------------------------------------------------


def run_traffic(request: Any, registry: Optional[StatsRegistry] = None,
                calibration: Optional[ChipCalibration] = None,
                reservoir_capacity: int = RESERVOIR_CAPACITY
                ) -> TrafficRunResult:
    """One open-loop traffic run described by a ``kind="traffic"`` request.

    Calibrates the chip service model (unless one is injected — perf
    kernels and unit tests pass :func:`synthetic_calibration`), expands
    the arrival process, drives the cluster to drain and folds the
    latencies through the shared quantile sketch.
    """
    chips = request.traffic_chips
    if chips <= 0:
        raise TrafficError(f"need at least one chip, got {chips}")
    if not 0.0 < request.traffic_load:
        raise TrafficError(
            f"offered load must be positive, got {request.traffic_load!r}")
    if calibration is None:
        calibration = calibrate_chip(request)

    base_service = request.traffic_instrs * calibration.cpi
    rate = (request.traffic_load * chips * calibration.contexts
            / base_service)
    slo_targets = tuple(request.traffic_slo)
    if not slo_targets or any(t <= 0 for t in slo_targets):
        raise TrafficError(f"SLO targets must be positive: {slo_targets!r}")
    slo_cycles = [t * base_service for t in slo_targets]

    rng = RngTree(request.seed).child("traffic")
    requests = generate_requests(
        request.traffic_arrival, rng.child("arrivals"), rate,
        request.traffic_requests, request.traffic_instrs)

    sim = Simulator()
    collector = _Collector(rng.stream("reservoir"), slo_cycles,
                           reservoir_capacity)
    jitter = _JitterSampler(calibration, rng.stream("jitter"))
    servers = [ChipServer(sim, i, calibration, jitter, collector)
               for i in range(chips)]
    balancer = create_balancer(request.traffic_balancer)

    def inject(req: TrafficRequest) -> None:
        servers[balancer.route(req, servers)].submit(req)

    for req in requests:
        sim.schedule_at(req.arrival, inject, req)
    sim.run()

    completed = collector.completed
    if completed != len(requests):
        raise TrafficError(
            f"cluster leaked requests: {completed}/{len(requests)} completed")
    sketch = collector.sketch
    qs = sketch.quantiles((0.50, 0.95, 0.99, 0.999))
    result = TrafficRunResult(
        workload=request.workload,
        arrival=request.traffic_arrival,
        balancer=request.traffic_balancer,
        chips=chips,
        contexts_per_chip=calibration.contexts,
        requests_total=len(requests),
        requests_completed=completed,
        load=request.traffic_load,
        rate_per_cycle=rate,
        base_service_cycles=base_service,
        frequency_ghz=calibration.frequency_ghz,
        duration_cycles=collector.last_finish,
        mean_latency=sketch.mean,
        mean_wait=collector.wait_sum / completed,
        p50_latency=qs[0.50],
        p95_latency=qs[0.95],
        p99_latency=qs[0.99],
        p999_latency=qs[0.999],
        slo_targets=slo_targets,
        slo_violations=tuple(h / completed for h in collector.slo_hits),
        per_chip_served=tuple(s.served for s in servers),
        home_hit_rate=collector.home_hits / completed,
        quantile_mode="exact" if sketch.exact else "reservoir",
        calibration_source=calibration.source,
        latency_samples=tuple(sketch.thinned(LATENCY_SAMPLE_CAP)),
    )
    if registry is not None:
        registry.counter("traffic.requests").inc(completed)
        registry.accumulator("traffic.latency").add(result.mean_latency)
        for server in servers:
            registry.counter(f"traffic.chip{server.chip_id}.served").inc(
                server.served)
    return result
