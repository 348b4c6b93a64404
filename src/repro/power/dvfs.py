"""DVFS operating points (frequency + voltage pairs).

Dynamic energy per event scales with V² (CV² switching energy); dynamic
*power* therefore scales with f·V².  Static (leakage) power scales
roughly linearly with V in the sub-threshold-dominated regime we care
about.  Frequency changes wall-clock time — a run of N simulated cycles
takes N/f seconds — but never the simulated cycle count itself: DVFS is
an observation-layer knob, so every pinned golden digest is unchanged
under any operating point.

The calibration point is ``nominal`` (1.5 GHz at V=1.0, the Table 1
operating point); other points are expressed relative to it.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..catalog import Catalog
from ..errors import ConfigError

__all__ = ["DvfsPoint", "DVFS_POINTS"]


@dataclass(frozen=True)
class DvfsPoint:
    """One frequency/voltage operating point."""

    name: str
    frequency_ghz: float
    #: supply voltage relative to the 1.5 GHz calibration point
    voltage: float

    @property
    def dynamic_scale(self) -> float:
        """Per-event dynamic *energy* multiplier (∝ V²)."""
        return self.voltage ** 2

    @property
    def static_scale(self) -> float:
        """Static *power* multiplier (∝ V)."""
        return self.voltage

    def describe(self) -> str:
        return (f"{self.name}: {self.frequency_ghz:.2f} GHz @ "
                f"{self.voltage:.2f} V_rel "
                f"(dyn energy x{self.dynamic_scale:.2f}, "
                f"static power x{self.static_scale:.2f})")


#: The operating-point table.  ``nominal`` is the Table 1 calibration
#: point; the others bracket it the way server DVFS ladders do.  Names
#: sort in ascending frequency, so ``names()`` is the DVFS ladder.
DVFS_POINTS: Catalog[DvfsPoint] = Catalog("dvfs point", ConfigError)
for _point in (DvfsPoint("crawl", frequency_ghz=0.9, voltage=0.80),
               DvfsPoint("eco", frequency_ghz=1.2, voltage=0.90),
               DvfsPoint("nominal", frequency_ghz=1.5, voltage=1.00),
               DvfsPoint("turbo", frequency_ghz=1.8, voltage=1.10)):
    DVFS_POINTS.add(_point.name, _point)
