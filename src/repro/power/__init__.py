"""Area / power / energy models (McPAT / CACTI / Orion substitutes).

Two complementary layers:

* the **static** Table 1 models (:class:`AreaModel`, :class:`PowerModel`,
  :class:`XeonPowerModel`) — calibrated breakdowns parameterised only by
  configuration and an activity scalar;
* the **activity-proportional** layer (:class:`ActivityEnergyModel`,
  :func:`build_energy_report`) — energy-per-event constants calibrated
  against the static model's peak, billed from the scoped stats a run
  actually emitted, with DVFS operating points (:data:`DVFS_POINTS`) and
  idle sub-ring power gating.  See docs/power.md.
"""

from .activity import (
    EVENT_SPECS,
    ActivityEnergyModel,
    EnergyAccounting,
    EventSpec,
    classify_stat,
)
from .area import AreaModel
from .dvfs import DVFS_POINTS, DvfsPoint
from .energy import PowerModel, XeonPowerModel, energy_efficiency
from .report import EnergyReport, build_energy_report
from .tech import NODES, TechNode, scale_area, scale_power

__all__ = [
    "AreaModel",
    "PowerModel",
    "XeonPowerModel",
    "energy_efficiency",
    "TechNode",
    "NODES",
    "scale_area",
    "scale_power",
    "ActivityEnergyModel",
    "EnergyAccounting",
    "EventSpec",
    "EVENT_SPECS",
    "classify_stat",
    "DvfsPoint",
    "DVFS_POINTS",
    "EnergyReport",
    "build_energy_report",
]
