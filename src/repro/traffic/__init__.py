"""Open-loop datacenter traffic over clusters of SmarCo chips.

The package splits along the request's path through the datacenter tier:

* :mod:`repro.traffic.request`  — the timestamped unit of work;
* :mod:`repro.traffic.arrivals` — seeded open-loop arrival processes
  (Poisson, bursty MMPP, diurnal), registered by name in ``ARRIVALS``;
* :mod:`repro.traffic.balancer` — front-end routing policies
  (round-robin, least-outstanding, subring-aware), registered by name
  in ``BALANCERS``;
* :mod:`repro.traffic.cluster`  — calibrated chip servers, the cluster
  driver and the :class:`TrafficRunResult` it folds latencies into.

``RunRequest(kind="traffic")`` through :func:`repro.chip.run.execute` is
the supported entry point; :func:`run_traffic` is the engine underneath.
"""

from .arrivals import ARRIVALS, ArrivalProcess, generate_requests
from .balancer import BALANCERS, LoadBalancer
from .cluster import (
    CROSS_RING_PENALTY,
    ChipCalibration,
    ChipServer,
    TrafficRunResult,
    calibrate_chip,
    run_traffic,
    synthetic_calibration,
)
from .request import TrafficRequest

__all__ = [
    "ArrivalProcess",
    "ARRIVALS",
    "generate_requests",
    "LoadBalancer",
    "BALANCERS",
    "CROSS_RING_PENALTY",
    "ChipCalibration",
    "ChipServer",
    "TrafficRunResult",
    "calibrate_chip",
    "run_traffic",
    "synthetic_calibration",
    "TrafficRequest",
]
