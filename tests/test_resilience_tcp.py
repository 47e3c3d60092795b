"""TCP-layer resilience: crash containment, connection limits, the
server supervisor, and survival against abusive (slow-loris / RST)
clients."""

import asyncio
import socket

import pytest

from repro import obs
from repro.honeypots import RedisHoneypot
from repro.honeypots.base import Honeypot, HoneypotSession
from repro.honeypots.tcp import TcpHoneypotServer, serve_honeypots
from repro.netsim.clock import SimClock
from repro.pipeline.sinks import BufferSink
from repro.resilience import (ServerSupervisor, SupervisorPolicy,
                              abrupt_reset, flood, slow_loris)


class _CrashingSession(HoneypotSession):
    def on_data(self, data: bytes) -> bytes:
        raise RuntimeError("parser exploded")


class CrashingHoneypot(Honeypot):
    honeypot_type = "crashtest"
    dbms = "mysql"

    def new_session(self, context):
        return _CrashingSession(self.info, context)


def run(coro):
    return asyncio.run(asyncio.wait_for(coro, timeout=30))


async def start_server(honeypot, **kwargs):
    store = BufferSink()
    server = TcpHoneypotServer(honeypot, SimClock(), store,
                               **kwargs)
    await server.start()
    return server, store


async def talk(port: int, payload: bytes) -> bytes:
    """Send ``payload`` and read one reply chunk (``b""`` = closed)."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    writer.write(payload)
    await writer.drain()
    data = await reader.read(65536)
    writer.close()
    try:
        await writer.wait_closed()
    except (ConnectionResetError, BrokenPipeError):
        pass
    return data


class TestSessionErrorContainment:
    def test_session_exception_closes_peer_cleanly(self):
        telemetry = obs.Telemetry(enabled=True)

        async def scenario():
            server, store = await start_server(CrashingHoneypot("crash"))
            try:
                # If the exception escaped, the peer would hang until
                # timeout; a clean close yields EOF promptly.
                data = await asyncio.wait_for(talk(server.port, b"boom"), 5)
                assert data == b""
            finally:
                await server.stop()
            return store

        with obs.install(telemetry):
            store = run(scenario())
        assert telemetry.metrics.counter_value("tcp.session_errors",
                                               dbms="mysql") == 1
        types = [event.event_type for event in store]
        assert types[0] == "connect"
        assert types[-1] == "disconnect"
        assert telemetry.metrics.gauge_value("tcp.open_connections",
                                             dbms="mysql") == 0

    def test_server_keeps_serving_after_session_crash(self):
        async def scenario():
            server, _ = await start_server(CrashingHoneypot("crash"))
            try:
                await talk(server.port, b"first")
                assert server.is_serving
                # A second client still gets served (and contained).
                await talk(server.port, b"second")
            finally:
                await server.stop()

        run(scenario())


class TestConnectionLimits:
    def test_idle_timeout_reaps_connection(self):
        telemetry = obs.Telemetry(enabled=True)

        async def scenario():
            server, _ = await start_server(
                RedisHoneypot("idle"), idle_timeout=0.2)
            try:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port)
                # Send nothing: the server must hang up on us.
                data = await asyncio.wait_for(reader.read(-1), 5)
                assert data == b""
                writer.close()
                await writer.wait_closed()
            finally:
                await server.stop()

        with obs.install(telemetry):
            run(scenario())
        assert telemetry.metrics.counter_value("tcp.idle_timeouts",
                                               dbms="redis") == 1

    def test_max_session_bytes_cuts_flood(self):
        telemetry = obs.Telemetry(enabled=True)

        async def scenario():
            server, _ = await start_server(
                RedisHoneypot("flood"), max_session_bytes=4096)
            try:
                written = await flood("127.0.0.1", server.port,
                                      total_bytes=1 << 20,
                                      chunk_size=1024)
                assert written < (1 << 20)
            finally:
                await server.stop()

        with obs.install(telemetry):
            run(scenario())
        assert telemetry.metrics.counter_value("tcp.overlimit_closes",
                                               dbms="redis") == 1

    def test_slow_loris_defeated_by_idle_timeout(self):
        telemetry = obs.Telemetry(enabled=True)

        async def scenario():
            server, _ = await start_server(
                RedisHoneypot("loris"), idle_timeout=0.15)
            try:
                # Dribbling slower than the idle timeout gets us cut off
                # long before all chunks are delivered.
                sent = await slow_loris("127.0.0.1", server.port,
                                        chunks=50, interval=0.4)
                assert sent < 50
            finally:
                await server.stop()

        with obs.install(telemetry):
            run(scenario())
        assert telemetry.metrics.counter_value("tcp.idle_timeouts",
                                               dbms="redis") >= 1

    def test_abrupt_reset_survived(self):
        async def scenario():
            server, store = await start_server(RedisHoneypot("rst"))
            try:
                await abrupt_reset("127.0.0.1", server.port)
                await asyncio.sleep(0.1)
                assert server.is_serving
                # Normal clients still work afterwards.
                reply = await talk(server.port, b"PING\r\n")
                assert b"PONG" in reply or reply == b""
            finally:
                await server.stop()
            return store

        store = run(scenario())
        assert any(e.event_type == "disconnect" for e in store)


class TestServeHoneypotsCleanup:
    def test_failed_start_stops_earlier_servers(self):
        async def scenario():
            # Reserve a free base port, then occupy base+1 with a live
            # listener so the second start() fails after the first
            # succeeded.
            probe = socket.socket()
            probe.bind(("127.0.0.1", 0))
            base = probe.getsockname()[1]
            probe.close()
            blocker = socket.socket()
            blocker.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            blocker.bind(("127.0.0.1", base + 1))
            blocker.listen(1)
            store = BufferSink()
            with pytest.raises(OSError):
                await serve_honeypots(
                    [RedisHoneypot("a"), RedisHoneypot("b")],
                    SimClock(), store, port_base=base)
            blocker.close()
            # The first server's port must have been released.
            probe = socket.socket()
            probe.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            probe.bind(("127.0.0.1", base))
            probe.close()

        run(scenario())


class TestSupervisor:
    def test_restarts_crashed_server(self):
        telemetry = obs.Telemetry(enabled=True)

        async def scenario():
            server, _ = await start_server(RedisHoneypot("sup"))
            port = server.port
            supervisor = ServerSupervisor(
                [server], SupervisorPolicy(check_interval=0.05,
                                           base_backoff=0.01))
            await supervisor.start()
            try:
                # Simulate a listener crash.
                server._server.close()
                await server._server.wait_closed()
                assert not server.is_serving
                deadline = asyncio.get_running_loop().time() + 10
                while not server.is_serving:
                    assert asyncio.get_running_loop().time() < deadline
                    await asyncio.sleep(0.05)
                assert server.port == port  # same port reclaimed
                reply = await talk(port, b"PING\r\n")
                assert isinstance(reply, bytes)
            finally:
                await supervisor.stop()
                await server.stop()
            return supervisor

        with obs.install(telemetry):
            supervisor = run(scenario())
        assert supervisor.restarts_total() >= 1
        assert telemetry.metrics.counter_value(
            "resilience.server_restarts", dbms="redis") >= 1

    def test_gives_up_after_max_restarts(self):
        async def scenario():
            server, _ = await start_server(RedisHoneypot("sup2"))
            port = server.port
            await server.stop()
            # Hold the port hostage so every restart fails.
            blocker = socket.socket()
            blocker.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            blocker.bind(("127.0.0.1", port))
            blocker.listen(1)
            supervisor = ServerSupervisor(
                [server], SupervisorPolicy(check_interval=0.02,
                                           base_backoff=0.0,
                                           max_backoff=0.0,
                                           max_restarts=2))
            await supervisor.start()
            try:
                deadline = asyncio.get_running_loop().time() + 10
                while not supervisor.abandoned:
                    assert asyncio.get_running_loop().time() < deadline
                    await asyncio.sleep(0.02)
            finally:
                await supervisor.stop()
                blocker.close()
            return supervisor

        supervisor = run(scenario())
        assert supervisor.abandoned == {0}
        assert supervisor.restarts[0] == 3  # 2 within budget + the give-up
