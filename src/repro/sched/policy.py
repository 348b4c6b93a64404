"""The formal scheduler-policy surface: ABC + named registry.

Thread-to-core allocation is a design space, not a single algorithm (the
paper's laxity scheduler is one point; the SMT allocation-policy family
and data-criticality-aware placement are others).  This module defines
the contract every policy implements and the registry that makes the
set pluggable:

* :class:`SchedulerPolicy` — the abstract base.  Subclasses implement
  the *selection* hooks (``_enqueue`` / ``_select`` / ``pending``); the
  base class provides the full **context lifecycle** (the Fig 16 null
  thread chain: ``acquire_context`` / ``release_context`` /
  ``free_contexts`` / ``assign``) and the submit/dispatch stats
  counters, so every policy exposes the same surface — the historical
  asymmetry where only the laxity scheduler managed contexts is gone.
* :func:`register_policy` — class decorator adding a policy under a
  stable name (``@register_policy("laxity")``) to :data:`POLICIES`, the
  :class:`~repro.catalog.Catalog` every lookup goes through
  (``POLICIES.get(name)``; the ``policies`` CLI subcommand renders
  ``describe()`` for each entry).

Every policy constructor takes the same keyword surface
``(name=None, config=None, registry=None)`` so factories, the scenario
harness and the conformance test suite can instantiate any registered
policy uniformly.
"""

from __future__ import annotations

import abc
from collections import deque
from typing import Callable, ClassVar, Deque, Dict, Optional, Tuple, Type

from ..catalog import Catalog
from ..errors import SchedulerError
from ..sim.stats import StatsRegistry
from .task import Task

__all__ = ["SchedulerPolicy", "POLICIES", "register_policy"]


class SchedulerPolicy(abc.ABC):
    """Abstract base of every task-scheduling policy.

    The surface a chip, testbed or scenario harness may rely on:

    ``submit(task)``
        enqueue one task (counts ``<name>.submitted``).
    ``next_task()``
        pop the policy's best pending task, or None when idle (counts
        ``<name>.dispatched``).
    ``pending``
        number of queued tasks.
    ``acquire_context()`` / ``release_context(id)`` / ``free_contexts``
        the null thread chain of free execution contexts (FIFO).
    ``assign()``
        one hardware dispatch step: pair the best task with a free
        context, or None when either chain is empty.
    ``decision_overhead``
        cycles charged per scheduling decision (hardware vs software).
    """

    #: registry key; set by :func:`register_policy`
    policy_name: ClassVar[str] = ""
    #: one-line description for ``policies list`` / docs
    summary: ClassVar[str] = ""
    #: cycles per scheduling decision
    decision_overhead: ClassVar[int] = 50

    def __init__(self, name: Optional[str] = None,
                 config=None,
                 registry: Optional[StatsRegistry] = None) -> None:
        from ..config import SchedulerConfig

        self.name = name if name is not None else (self.policy_name or
                                                   type(self).__name__)
        self.config = config if config is not None else SchedulerConfig()
        reg = registry if registry is not None else StatsRegistry()
        self.registry = reg
        self.submitted = reg.counter(f"{self.name}.submitted")
        self.dispatched = reg.counter(f"{self.name}.dispatched")
        self._null_chain: Deque[int] = deque()
        self._setup()

    def _setup(self) -> None:
        """Subclass hook: build queues/tables (runs at the end of init)."""

    # -- task queue (selection is the subclass's whole job) ----------------

    def submit(self, task: Task) -> None:
        self.submitted.inc()
        self._enqueue(task)

    def next_task(self) -> Optional[Task]:
        """The policy's best pending task (None when idle)."""
        task = self._select()
        if task is not None:
            self.dispatched.inc()
        return task

    @abc.abstractmethod
    def _enqueue(self, task: Task) -> None:
        """Add one task to the policy's pending structure."""

    @abc.abstractmethod
    def _select(self) -> Optional[Task]:
        """Remove and return the best pending task (None when empty)."""

    @property
    @abc.abstractmethod
    def pending(self) -> int:
        """Number of tasks waiting to be dispatched."""

    # -- null thread chain (free contexts; uniform across policies) --------

    def release_context(self, context_id: int) -> None:
        """A thread context finished its task: append to the null chain."""
        self._null_chain.append(context_id)
        self._on_release(context_id)

    def acquire_context(self) -> Optional[int]:
        """Pop a free thread context (None when every context is busy)."""
        return self._null_chain.popleft() if self._null_chain else None

    def withdraw_context(self, context_id: int) -> bool:
        """Remove one *specific* free context from the null chain.

        This is the drain/failure event of a sub-ring: the context stops
        being schedulable.  Returns False when the context is not
        currently free (e.g. already granted)."""
        try:
            self._null_chain.remove(context_id)
        except ValueError:
            return False
        return True

    @property
    def free_contexts(self) -> int:
        return len(self._null_chain)

    def assign(self) -> Optional[Tuple[int, Task]]:
        """One hardware dispatch step: pair the best pending task with a
        free context.  Returns None when either chain is empty."""
        if not self._null_chain or not self.pending:
            return None
        context = self.acquire_context()
        task = self.next_task()
        return context, task

    def _on_release(self, context_id: int) -> None:
        """Subclass hook: observe a context returning to the null chain
        (allocation-aware policies track per-context history here)."""

    # -- snapshot protocol --------------------------------------------------

    def state_dict(self) -> Dict[str, object]:
        """Snapshot of the policy's mutable scheduling state.

        The base class owns the null thread chain; the pending-task
        structure comes from the :meth:`_queue_state` hook, which every
        registered policy must implement (the conformance suite enforces
        ``load_state(state_dict())`` identity).  The submitted/dispatched
        counters live in the stats registry and travel with it.
        """
        return {
            "null_chain": list(self._null_chain),
            "queue": self._queue_state(),
        }

    def load_state(self, state: Dict[str, object]) -> None:
        self._null_chain = deque(state["null_chain"])
        self._load_queue_state(state["queue"])

    def _queue_state(self) -> object:
        """Subclass hook: snapshot the pending-task structure."""
        raise NotImplementedError(
            f"{type(self).__name__} does not implement _queue_state(); "
            f"every registered policy must support checkpointing")

    def _load_queue_state(self, state: object) -> None:
        """Subclass hook: restore the pending-task structure."""
        raise NotImplementedError(
            f"{type(self).__name__} does not implement _load_queue_state(); "
            f"every registered policy must support checkpointing")

    # -- introspection ------------------------------------------------------

    def stats(self) -> Dict[str, float]:
        """Live counters (the stats hook of the policy protocol)."""
        return {
            "submitted": self.submitted.value,
            "dispatched": self.dispatched.value,
            "pending": float(self.pending),
            "free_contexts": float(self.free_contexts),
        }

    @classmethod
    def describe(cls) -> Dict[str, object]:
        """Registry card: name, overhead, one-liner, full docstring."""
        return {
            "name": cls.policy_name or cls.__name__,
            "class": cls.__name__,
            "decision_overhead": cls.decision_overhead,
            "summary": cls.summary or (cls.__doc__ or "").strip().splitlines()[0],
            "doc": (cls.__doc__ or "").strip(),
        }

    def __repr__(self) -> str:  # pragma: no cover
        return (f"{type(self).__name__}(name={self.name!r}, "
                f"pending={self.pending}, free={self.free_contexts})")


# -- the registry ------------------------------------------------------------

#: every registered policy class, by name
POLICIES: Catalog[Type[SchedulerPolicy]] = Catalog("scheduling policy",
                                                   SchedulerError)


def register_policy(name: str) -> Callable[[Type[SchedulerPolicy]],
                                           Type[SchedulerPolicy]]:
    """Class decorator: add a :class:`SchedulerPolicy` under ``name``."""

    def decorate(cls: Type[SchedulerPolicy]) -> Type[SchedulerPolicy]:
        if not (isinstance(cls, type) and issubclass(cls, SchedulerPolicy)):
            raise SchedulerError(
                f"@register_policy({name!r}): {cls!r} is not a "
                f"SchedulerPolicy subclass")
        POLICIES.add(name, cls)
        cls.policy_name = name
        return cls

    return decorate
