"""Observability: metrics, spans, and run manifests.

The subsystem is bundled behind one object, :class:`Telemetry`::

    telemetry = Telemetry(enabled=True)
    with obs.install(telemetry):          # visible via obs.current()
        with telemetry.tracer.span("replay.visit", actor=ip):
            ...
        telemetry.metrics.inc("events", dbms="redis")

The experiment driver times its own phases (build, replay, split,
convert, ...) into a plain ``{phase: seconds}`` dict that becomes the
manifest's ``phases`` section; it stays out of the registry, whose
counters ride checkpoint deltas and are merged back on resume.

Layers that are not handed a telemetry object explicitly (raw-payload
clipping, clustering, converter) report into ``obs.current()``, which
defaults to :data:`NULL_TELEMETRY` -- a bundle of no-op implementations
-- so instrumentation is free unless a driver installs a live bundle.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Iterator

from repro.obs.flight import FlightRecorder, NullFlightRecorder
from repro.obs.logging import NullOpsLogger, OpsLogger
from repro.obs.metrics import (Histogram, MetricsRegistry,
                               NullMetricsRegistry)
from repro.obs.tracing import NullTracer, Tracer

__all__ = [
    "FlightRecorder", "Histogram", "MetricsRegistry",
    "NullFlightRecorder", "NullMetricsRegistry", "NullOpsLogger",
    "NullTracer", "OpsLogger", "Telemetry", "Tracer", "NULL_TELEMETRY",
    "current", "install", "install_local",
]


class Telemetry:
    """One run's metrics registry + tracer + ops plane.

    The operational half (structured :attr:`logger`, :attr:`flight`
    recorder) is wired so every log record lands in the flight ring
    and every completed span leaves a summary there -- the last N
    operational facts are always available for a crash dump, whether
    or not a log file was attached.
    """

    def __init__(self, enabled: bool = True, *,
                 flight_capacity: int = 512):
        self.enabled = enabled
        if enabled:
            self.metrics: MetricsRegistry = MetricsRegistry()
            self.flight: FlightRecorder = FlightRecorder(flight_capacity)
            self.tracer: Tracer | NullTracer = Tracer(
                observer=self.flight.record_span)
            self.logger: OpsLogger = OpsLogger()
            self.logger.attach_recorder(self.flight.record)
        else:
            self.metrics = NullMetricsRegistry()
            self.flight = NullFlightRecorder()
            self.tracer = NullTracer()
            self.logger = NullOpsLogger()

    def __repr__(self) -> str:
        return f"Telemetry(enabled={self.enabled})"


#: The always-available no-op bundle.
NULL_TELEMETRY = Telemetry(enabled=False)

_current: Telemetry = NULL_TELEMETRY

#: Per-thread override of the process-wide bundle.  A resume's
#: fast-forward (``replay._fast_forward_visit``) mutes the driver
#: thread with it while the SQLite writer threads keep reporting into
#: the process-wide bundle.
_local = threading.local()


def current() -> Telemetry:
    """The installed telemetry bundle (no-op unless a run installed one).

    A thread-local bundle installed via :func:`install_local` shadows
    the process-wide one on its thread.
    """
    override = getattr(_local, "current", None)
    return override if override is not None else _current


@contextmanager
def install(telemetry: Telemetry) -> Iterator[Telemetry]:
    """Make ``telemetry`` the process-wide :func:`current` bundle."""
    global _current
    previous = _current
    _current = telemetry
    try:
        yield telemetry
    finally:
        _current = previous


@contextmanager
def install_local(telemetry: Telemetry) -> Iterator[Telemetry]:
    """Make ``telemetry`` the :func:`current` bundle on *this thread*
    only -- other threads keep seeing the process-wide bundle."""
    previous = getattr(_local, "current", None)
    _local.current = telemetry
    try:
        yield telemetry
    finally:
        _local.current = previous
