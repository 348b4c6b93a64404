"""``repro.exp`` — the parallel experiment-runner subsystem.

The pieces, bottom-up:

* :class:`RunRequest` (``.request``) — one frozen, serialisable run
  description; the unit every other layer speaks.
* :class:`ExperimentSpec` (``.spec``) — a declarative sweep: a base
  request plus axes (grid) or an explicit request list.
* :class:`ResultCache` (``.cache``) — content-addressed on-disk store
  keyed by ``sha256(request snapshot + code version)``.
* :class:`Runner` (``.runner``) — expands a spec, skips cached points,
  fans misses across ``multiprocessing`` workers (serial fallback), and
  writes per-run telemetry (``.telemetry``) under ``results/runs/``.

``Runner`` and friends are loaded lazily so that ``repro.chip`` can
import :class:`RunRequest` without a circular import.
"""

from .request import RUN_KINDS, RunRequest, request_from_snapshot
from .spec import ExperimentSpec, SweepPoint

__all__ = [
    "RunRequest",
    "RUN_KINDS",
    "request_from_snapshot",
    "ExperimentSpec",
    "SweepPoint",
    "ResultCache",
    "HIT_KINDS",
    "code_version",
    "request_key",
    "Runner",
    "SweepResult",
    "resolve_workers",
    "RunRecord",
    "load_records",
    "summarize_runs",
    "SoakReport",
    "random_request",
    "run_soak",
]

_LAZY = {
    "ResultCache": "cache",
    "HIT_KINDS": "cache",
    "code_version": "cache",
    "request_key": "cache",
    "Runner": "runner",
    "SweepResult": "runner",
    "resolve_workers": "runner",
    "RunRecord": "telemetry",
    "load_records": "telemetry",
    "summarize_runs": "telemetry",
    "SoakReport": "soak",
    "random_request": "soak",
    "run_soak": "soak",
}


def __getattr__(name):
    if name in _LAZY:
        import importlib

        module = importlib.import_module(f".{_LAZY[name]}", __name__)
        value = getattr(module, name)
        globals()[name] = value
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
