"""Tests for the live HTTP surface (``/metrics`` + ``/healthz``), the
supervisor health snapshot behind it, and shard-trace stitching into
one Chrome timeline."""

import asyncio
import json
import urllib.error
import urllib.request

import pytest

from repro.honeypots import RedisHoneypot
from repro.honeypots.tcp import TcpHoneypotServer, serve_honeypots
from repro.netsim.clock import SimClock
from repro.obs.live import LiveOpsServer
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import NullTracer, Tracer
from repro.pipeline.sinks import BufferSink
from repro.resilience import ServerSupervisor


def _get(url):
    try:
        with urllib.request.urlopen(url, timeout=10) as response:
            return response.status, dict(response.headers), response.read()
    except urllib.error.HTTPError as error:
        return error.code, dict(error.headers), error.read()


@pytest.fixture
def registry():
    registry = MetricsRegistry()
    registry.inc("events", 3, dbms="redis")
    return registry


class TestLiveOpsServer:
    def test_metrics_endpoint_serves_prometheus_text(self, registry):
        server = LiveOpsServer(registry.snapshot,
                               lambda: {"status": "ok"})
        port = server.start()
        try:
            status, headers, body = _get(
                f"http://127.0.0.1:{port}/metrics")
        finally:
            server.close()
        assert status == 200
        assert headers["Content-Type"] == ("text/plain; version=0.0.4; "
                                           "charset=utf-8")
        assert (b'repro_events_total{dbms="redis"} 3'
                in body.splitlines())

    def test_healthz_ok_is_200(self, registry):
        server = LiveOpsServer(registry.snapshot,
                               lambda: {"status": "ok", "detail": 1})
        port = server.start()
        try:
            status, headers, body = _get(
                f"http://127.0.0.1:{port}/healthz")
        finally:
            server.close()
        assert status == 200
        assert headers["Content-Type"] == "application/json"
        assert json.loads(body) == {"status": "ok", "detail": 1}

    def test_healthz_degraded_is_503(self, registry):
        server = LiveOpsServer(registry.snapshot,
                               lambda: {"status": "degraded"})
        port = server.start()
        try:
            status, _, body = _get(f"http://127.0.0.1:{port}/healthz")
        finally:
            server.close()
        assert status == 503
        assert json.loads(body)["status"] == "degraded"

    def test_unknown_path_is_404(self, registry):
        server = LiveOpsServer(registry.snapshot,
                               lambda: {"status": "ok"})
        port = server.start()
        try:
            status, _, _ = _get(f"http://127.0.0.1:{port}/nope")
        finally:
            server.close()
        assert status == 404

    def test_source_exception_is_500_not_crash(self, registry):
        def broken():
            raise RuntimeError("snapshot failed")

        server = LiveOpsServer(broken, lambda: {"status": "ok"})
        port = server.start()
        try:
            status, _, body = _get(f"http://127.0.0.1:{port}/metrics")
            # The listener survives the bad request.
            again, _, _ = _get(f"http://127.0.0.1:{port}/healthz")
        finally:
            server.close()
        assert status == 500
        assert b"snapshot failed" in body
        assert again == 200

    def test_request_counter(self, registry):
        server = LiveOpsServer(registry.snapshot,
                               lambda: {"status": "ok"})
        port = server.start()
        try:
            _get(f"http://127.0.0.1:{port}/metrics")
            _get(f"http://127.0.0.1:{port}/healthz")
        finally:
            server.close()
        assert server.requests == 2


class _FakeServer:
    """Duck-typed TcpHoneypotServer for health-shape tests."""

    def __init__(self, honeypot_id, serving=True):
        self.honeypot = RedisHoneypot(honeypot_id)
        self.host = "127.0.0.1"
        self.port = 1234
        self.is_serving = serving


class TestSupervisorHealth:
    def test_all_serving_is_ok(self):
        supervisor = ServerSupervisor([_FakeServer("hp-a"),
                                       _FakeServer("hp-b")])
        health = supervisor.health()
        assert health["status"] == "ok"
        assert [l["honeypot_id"] for l in health["listeners"]] \
            == ["hp-a", "hp-b"]
        assert all(l["serving"] for l in health["listeners"])
        assert health["restarts_total"] == 0

    def test_dead_listener_degrades(self):
        supervisor = ServerSupervisor([_FakeServer("hp-a"),
                                       _FakeServer("hp-b",
                                                   serving=False)])
        health = supervisor.health()
        assert health["status"] == "degraded"
        down = [l for l in health["listeners"] if not l["serving"]]
        assert [l["honeypot_id"] for l in down] == ["hp-b"]

    def test_abandoned_listener_degrades(self):
        supervisor = ServerSupervisor([_FakeServer("hp-a")])
        supervisor.abandoned.add(0)
        supervisor.restarts[0] = 6
        health = supervisor.health()
        assert health["status"] == "degraded"
        assert health["abandoned_total"] == 1
        assert health["listeners"][0]["restarts"] == 6

    def test_live_farm_end_to_end(self):
        async def scenario():
            clock = SimClock()
            store = BufferSink()
            servers = await serve_honeypots(
                [RedisHoneypot("hp-live")], clock, store)
            supervisor = ServerSupervisor(servers)
            try:
                health = supervisor.health()
                assert health["status"] == "ok"
                assert health["listeners"][0]["port"] == servers[0].port
                await servers[0].stop()
                assert supervisor.health()["status"] == "degraded"
            finally:
                for server in servers:
                    await server.stop()

        asyncio.run(scenario())


class TestTraceStitching:
    def _shard_spans(self, count):
        tracer = Tracer(clock=iter(range(100)).__next__)
        for index in range(count):
            with tracer.span("replay.visit", seq=index):
                pass
        return tracer.spans

    def test_absorb_remaps_ids_and_sets_pid(self):
        driver = Tracer(clock=iter(range(100)).__next__)
        with driver.span("driver.work"):
            pass
        spans = self._shard_spans(2)
        absorbed = driver.absorb(spans, pid=3, name="shard 1")
        assert absorbed == 2
        shard_spans = [s for s in driver.spans if s.get("pid") == 3]
        driver_ids = {s["id"] for s in driver.spans
                      if "pid" not in s}
        assert len(shard_spans) == 2
        assert not {s["id"] for s in shard_spans} & driver_ids
        assert driver.process_names[3] == "shard 1"

    def test_absorb_remaps_parent_links_within_batch(self):
        shard = Tracer(clock=iter(range(100)).__next__)
        with shard.span("outer"):
            with shard.span("inner"):
                pass
        driver = Tracer()
        driver.absorb(shard.spans, pid=2)
        inner = [s for s in driver.spans if s["name"] == "inner"][0]
        outer = [s for s in driver.spans if s["name"] == "outer"][0]
        assert inner["parent"] == outer["id"]

    def test_chrome_export_separates_process_lanes(self, tmp_path):
        driver = Tracer(clock=iter(range(100)).__next__)
        driver.process_names[1] = "driver"
        with driver.span("driver.work"):
            pass
        driver.absorb(self._shard_spans(1), pid=2, name="shard 0")
        path = driver.export_chrome(tmp_path / "trace.json")
        document = json.loads(path.read_text())
        events = document["traceEvents"]
        metadata = [e for e in events if e["ph"] == "M"]
        assert [(e["pid"], e["args"]["name"]) for e in metadata] \
            == [(1, "driver"), (2, "shard 0")]
        pids = {e["pid"] for e in events if e["ph"] == "X"}
        assert pids == {1, 2}

    def test_chrome_export_without_process_names_has_no_metadata(
            self, tmp_path):
        tracer = Tracer(clock=iter(range(100)).__next__)
        with tracer.span("x"):
            pass
        path = tracer.export_chrome(tmp_path / "trace.json")
        events = json.loads(path.read_text())["traceEvents"]
        assert all(e["ph"] == "X" for e in events)
        assert all(e["pid"] == 1 for e in events)

    def test_null_tracer_absorb_is_noop(self):
        tracer = NullTracer()
        assert tracer.absorb([{"id": 1}], pid=2) == 0
        assert tracer.spans == []
