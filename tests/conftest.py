"""Shared fixtures.

The end-to-end experiment is expensive, so one heavily-downscaled run is
shared across the whole session (``small_experiment``); unit tests build
their own tiny worlds instead.
"""

from __future__ import annotations

import pytest

from repro.deployment import ExperimentConfig, run_experiment
from repro.honeypots.base import SessionContext
from repro.netsim.clock import SimClock
from repro.pipeline.sinks import BufferSink


@pytest.fixture
def clock() -> SimClock:
    return SimClock()


@pytest.fixture
def log_store() -> BufferSink:
    return BufferSink()


@pytest.fixture
def session_context(clock, log_store) -> SessionContext:
    return SessionContext(src_ip="203.0.113.7", src_port=40000,
                          clock=clock, sink=log_store)


@pytest.fixture(scope="session")
def small_experiment(tmp_path_factory):
    """One downscaled full experiment, shared by integration tests."""
    output = tmp_path_factory.mktemp("experiment")
    return run_experiment(ExperimentConfig(
        seed=1234, volume_scale=0.0005, output_dir=output))
