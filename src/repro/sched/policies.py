"""The paper's task-scheduling policies, on the pluggable policy API.

* :class:`LaxityScheduler` — the paper's hardware scheduler: per-sub-ring
  chain tables (high-priority + normal) ordered by static slack
  (deadline − work).  With equal deadlines this schedules the *longest*
  task first, which is what tightens the exit-time spread in Fig 21.
  Hardware decision overhead is a few cycles.
* :class:`DeadlineScheduler` — the software baseline ([21] in the paper):
  earliest-deadline-first with FIFO tie-break (so equal-deadline tasks run
  in arrival order) and a software decision overhead of hundreds of
  cycles.
* :class:`FifoScheduler` — arrival order, no deadline awareness.

All three are registered with :mod:`repro.sched.policy` (``"laxity"``,
``"deadline"``, ``"fifo"``) and share the full
:class:`~repro.sched.policy.SchedulerPolicy` surface — including the
context lifecycle that used to be laxity-only.  The related-work policies
live in :mod:`repro.sched.zoo`.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional

from .chains import ChainTable
from .policy import SchedulerPolicy, register_policy
from .task import Task, TaskPriority

__all__ = ["LaxityScheduler", "DeadlineScheduler", "FifoScheduler"]


@register_policy("laxity")
class LaxityScheduler(SchedulerPolicy):
    """Hardware laxity-aware scheduler of one sub-ring (Fig 16).

    Three chain tables, as the figure draws them: the *null thread chain*
    (free thread contexts, FIFO — provided by the policy base class), the
    *normal thread chain*, and the *high-priority thread chain* (both
    sorted by static slack).
    """

    summary = ("paper 3.7: least static slack first via RAM chain tables "
               "(HIGH chain preempts NORMAL)")
    #: cycles per scheduling decision (RAM chain head pop + thread attach)
    decision_overhead = 4

    def _setup(self) -> None:
        entries = self.config.chain_table_entries
        self.high = ChainTable(f"{self.name}.high",
                               key=lambda t: t.static_slack,
                               capacity=entries)
        self.normal = ChainTable(f"{self.name}.normal",
                                 key=lambda t: t.static_slack,
                                 capacity=entries)

    def _enqueue(self, task: Task) -> None:
        table = self.high if task.priority is TaskPriority.HIGH else self.normal
        table.insert(task)

    def _select(self) -> Optional[Task]:
        """Highest-priority, least-slack task (None when idle)."""
        task = self.high.pop_head()
        if task is None:
            task = self.normal.pop_head()
        return task

    @property
    def pending(self) -> int:
        return len(self.high) + len(self.normal)

    def _queue_state(self) -> dict:
        return {"high": self.high.state_dict(),
                "normal": self.normal.state_dict()}

    def _load_queue_state(self, state: dict) -> None:
        self.high.load_state(state["high"])
        self.normal.load_state(state["normal"])


@register_policy("deadline")
class DeadlineScheduler(SchedulerPolicy):
    """Software EDF baseline with per-decision OS overhead."""

    summary = ("software EDF baseline: earliest deadline first, FIFO "
               "tie-break, OS-scale decision cost")
    decision_overhead = 200

    def _setup(self) -> None:
        self._queue: Deque[Task] = deque()

    def _enqueue(self, task: Task) -> None:
        self._queue.append(task)

    def _select(self) -> Optional[Task]:
        if not self._queue:
            return None
        # EDF with FIFO tie-break: min deadline, earliest arrival wins
        best = min(self._queue, key=lambda t: (t.deadline, t.arrival, t.task_id))
        self._queue.remove(best)
        return best

    @property
    def pending(self) -> int:
        return len(self._queue)

    def _queue_state(self) -> list:
        return list(self._queue)

    def _load_queue_state(self, state: list) -> None:
        self._queue = deque(state)


@register_policy("fifo")
class FifoScheduler(SchedulerPolicy):
    """Arrival-order baseline."""

    summary = "arrival order, no deadline awareness"
    decision_overhead = 50

    def _setup(self) -> None:
        self._queue: Deque[Task] = deque()

    def _enqueue(self, task: Task) -> None:
        self._queue.append(task)

    def _select(self) -> Optional[Task]:
        if not self._queue:
            return None
        return self._queue.popleft()

    @property
    def pending(self) -> int:
        return len(self._queue)

    def _queue_state(self) -> list:
        return list(self._queue)

    def _load_queue_state(self, state: list) -> None:
        self._queue = deque(state)

