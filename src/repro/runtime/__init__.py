"""The run-scoped ambient context: telemetry + fault plan, together.

Before this module existed the stack had two independent ambient
singletons -- ``obs.current()`` (telemetry) and ``faults.current()``
(chaos) -- each with its own install dance.  A :class:`RunContext`
bundles both so drivers and replay workers deal with exactly one
object:

* :meth:`RunContext.activate` installs both process-wide -- in the
  driver, and in each forked shard worker, whose private registries and
  fault counters live in its own process;
* :meth:`RunContext.report` snapshots everything a worker must hand
  back, and :meth:`RunContext.absorb` folds such a report into the
  driver's context -- counters add, histograms combine, fault
  evaluation/fire counts sum -- so telemetry and chaos accounting stay
  *exact* under parallelism.

Workers build their context with :func:`worker_context`, which clones
the fault plan (same specs and seed, zeroed counters) and gives the
worker a metrics registry of its own with tracing disabled (per-visit
spans are a serial-replay feature; shard timings live in the manifest's
``replay`` section instead).
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator, Mapping

from repro import obs
from repro.resilience import faults

__all__ = ["RunContext", "worker_context"]


@dataclass
class RunContext:
    """One run's (or one worker's) ambient telemetry + fault plan."""

    telemetry: obs.Telemetry = field(default_factory=lambda:
                                     obs.NULL_TELEMETRY)
    fault_plan: faults.FaultPlan = field(default_factory=lambda:
                                         faults.NULL_PLAN)

    @contextmanager
    def activate(self) -> Iterator["RunContext"]:
        """Install both halves process-wide for the duration."""
        with obs.install(self.telemetry), faults.install(self.fault_plan):
            yield self

    def report(self) -> dict:
        """Picklable snapshot of everything a worker must hand back."""
        metrics = (self.telemetry.metrics.snapshot()
                   if self.telemetry.enabled else None)
        spans = (list(self.telemetry.tracer.spans)
                 if self.telemetry.tracer.enabled else None)
        return {"metrics": metrics, "spans": spans,
                "faults": self.fault_plan.snapshot()}

    def absorb(self, report: Mapping) -> None:
        """Fold a worker's :meth:`report` into this context."""
        metrics = report.get("metrics")
        if metrics:
            self.telemetry.metrics.merge(metrics)
        fault_counts = report.get("faults")
        if fault_counts:
            self.fault_plan.absorb(fault_counts)


def worker_context(telemetry_enabled: bool,
                   fault_payload: Mapping | None, *,
                   tracing: bool = False) -> RunContext:
    """Build the private context one replay worker runs under.

    ``fault_payload`` is :meth:`FaultPlan.payload` of the driver's plan
    (or ``None`` for a clean run); the clone starts with zeroed
    counters so the worker's :meth:`RunContext.report` is exactly its
    own share of the accounting.  With ``tracing`` the worker gets a
    real tracer whose spans travel back in :meth:`RunContext.report`
    for the driver to stitch into one timeline (shard-prefixed pids in
    the Chrome export); without it, tracing is a no-op as before.
    """
    telemetry = obs.Telemetry(enabled=telemetry_enabled)
    if tracing and telemetry_enabled:
        telemetry.tracer = obs.Tracer(
            observer=telemetry.flight.record_span)
    else:
        telemetry.tracer = obs.NullTracer()
    plan = (faults.from_payload(fault_payload)
            if fault_payload is not None else faults.NULL_PLAN)
    return RunContext(telemetry=telemetry, fault_plan=plan)
