"""Resilience: deterministic fault injection + crash containment.

Two halves, mirroring how the paper's deployment survived 20 days of
hostile Internet traffic:

* :mod:`repro.resilience.faults` -- a seeded :class:`FaultPlan` that
  makes the stack misbehave on purpose (wire corruption, mid-session
  disconnects, locked SQLite databases, failed enrichment lookups,
  crashing visits), ambient and zero-cost when not installed;
* the hardening that makes those faults survivable --
  :mod:`~repro.resilience.retry` (exponential backoff + jitter),
  :mod:`~repro.resilience.deadletter` (quarantine instead of data
  loss), and :mod:`~repro.resilience.supervisor` (restart crashed TCP
  servers).

``repro chaos --plan <name>`` runs the full experiment under a fault
plan and verifies the conservation invariant
``events_generated == events_stored + events_quarantined``.
"""

from repro.resilience.deadletter import DeadLetterWriter, read_dead_letters
from repro.resilience.faults import (BUILTIN_PLANS, NULL_PLAN, FaultPlan,
                                     FaultSpec, InjectedFault, current,
                                     from_payload, install, install_local,
                                     load_plan, plan_from_dict)
from repro.resilience.retry import (RetryPolicy, is_sqlite_busy,
                                    run_with_retry, sqlite_busy_retry)
from repro.resilience.supervisor import ServerSupervisor, SupervisorPolicy

__all__ = [
    "BUILTIN_PLANS", "DeadLetterWriter", "FaultPlan", "FaultSpec",
    "InjectedFault", "NULL_PLAN", "RetryPolicy", "ServerSupervisor",
    "SupervisorPolicy", "current", "from_payload", "install",
    "install_local", "is_sqlite_busy", "load_plan", "plan_from_dict",
    "read_dead_letters", "run_with_retry", "sqlite_busy_retry",
]
