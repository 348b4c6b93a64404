"""Task scheduling: the pluggable policy zoo and its adversarial scenarios.

The package is a plug-in subsystem: :mod:`repro.sched.policy` defines the
:class:`SchedulerPolicy` contract and the :data:`POLICIES` catalogue, the
paper's schedulers live in :mod:`repro.sched.policies`, the related-work
competitors in :mod:`repro.sched.zoo`, and :mod:`repro.sched.scenarios`
supplies the deterministic adversarial scripts plus the audited harness
that races any (policy, scenario) pair.
"""

from .chains import ChainTable
from .dispatch import (
    MainScheduler,
    SchedulerTestbed,
    TestbedResult,
    TimeSharedTestbed,
)
from .policies import DeadlineScheduler, FifoScheduler, LaxityScheduler
from .policy import POLICIES, SchedulerPolicy, register_policy
from .scenarios import (
    SCENARIOS,
    SchedRunResult,
    ScenarioTestbed,
    run_sched_scenario,
)
from .task import Task, TaskPriority
from .zoo import (
    CriticalityScheduler,
    SmtBalanceScheduler,
    criticality_from_breakdown,
    task_criticality,
)

__all__ = [
    "Task",
    "TaskPriority",
    "ChainTable",
    # the policy protocol + registry
    "SchedulerPolicy",
    "POLICIES",
    "register_policy",
    # registered policies
    "LaxityScheduler",
    "DeadlineScheduler",
    "FifoScheduler",
    "SmtBalanceScheduler",
    "CriticalityScheduler",
    "task_criticality",
    "criticality_from_breakdown",
    # testbeds and scenarios
    "MainScheduler",
    "SchedulerTestbed",
    "TimeSharedTestbed",
    "TestbedResult",
    "ScenarioTestbed",
    "SchedRunResult",
    "SCENARIOS",
    "run_sched_scenario",
]
