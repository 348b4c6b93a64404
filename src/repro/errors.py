"""Exception hierarchy for the SmarCo reproduction library.

All library-raised exceptions derive from :class:`ReproError` so callers can
catch everything from this package with one ``except`` clause.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every exception raised by the ``repro`` package."""


class SimulationError(ReproError):
    """The discrete-event kernel was used incorrectly (e.g. scheduling in
    the past or running a finished simulation)."""


class ConfigError(ReproError):
    """A configuration object is inconsistent or out of the supported range."""


class IsaError(ReproError):
    """Base class for ISA-level failures."""


class AssemblerError(IsaError):
    """The assembler rejected a program (bad mnemonic, operand, or label)."""


class MachineError(IsaError):
    """The functional machine hit an illegal state (bad register, trap)."""


class MemoryError_(ReproError):
    """An access fell outside a modelled memory region or violated
    an alignment/ownership rule.  Named with a trailing underscore to avoid
    shadowing the builtin :class:`MemoryError`."""


class MemoryModelError(MemoryError_):
    """A memory-model lifecycle invariant was violated: a request was
    completed twice, or a hop trace was stamped out of time order."""


class NocError(ReproError):
    """A packet could not be routed or a link/router invariant broke."""


class WiringError(ReproError):
    """The component hierarchy or its port wiring is malformed (duplicate
    child names, unconnected required ports, type-incompatible wires, or a
    lifecycle method called out of phase)."""


class AuditError(ReproError):
    """A runtime invariant checker (``repro.sim.invariants``) detected a
    model-consistency violation while auditing a simulation."""


class SchedulerError(ReproError):
    """A task-scheduler invariant was violated (e.g. duplicate task id)."""


class WorkloadError(ReproError):
    """A workload generator was configured with impossible parameters."""


class AnalysisError(ReproError):
    """An analysis helper was fed an impossible input (e.g. a quantile
    of an empty sample, or a quantile outside (0, 1])."""


class TrafficError(ReproError):
    """The open-loop traffic layer was misconfigured (unknown arrival
    process or balancer policy, non-positive rate, empty cluster)."""


class CheckpointError(ReproError):
    """A simulation snapshot could not be captured or restored (live
    state the codec cannot serialise, or a corrupt container)."""


class CheckpointSchemaError(CheckpointError):
    """The checkpoint's component-tree schema does not match the system
    rebuilt from the request — the saved blob describes a different
    structure and restoring it would silently corrupt state."""


class CheckpointVersionError(CheckpointError):
    """The checkpoint was written by a different format version or a
    different code digest than the restoring process."""
