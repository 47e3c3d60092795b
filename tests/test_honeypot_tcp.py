"""Integration tests: honeypots served over real TCP sockets.

The same session objects the fast simulation uses are bound to asyncio
servers and attacked through :class:`TcpWire` -- proving the honeypots
work against real network clients.
"""

import asyncio
import threading
import time

import pytest

from repro.clients import (ElasticClient, MSSQLClient, MongoClient,
                           MySQLClient, PostgresClient, RedisClient,
                           TcpWire)
from repro.honeypots import (Elasticpot, LowInteractionMSSQL,
                             LowInteractionMySQL, MongoHoneypot,
                             RedisHoneypot, StickyElephant)
from repro.honeypots.tcp import TcpHoneypotServer
from repro.netsim.clock import SimClock
from repro.pipeline.sinks import BufferSink


class ServerHarness:
    """Runs one TCP honeypot server on a background event loop."""

    def __init__(self, honeypot):
        self.store = BufferSink()
        self.server = TcpHoneypotServer(honeypot, SimClock(),
                                        self.store)
        self.loop = asyncio.new_event_loop()
        self.thread = threading.Thread(target=self.loop.run_forever,
                                       daemon=True)
        self.thread.start()
        future = asyncio.run_coroutine_threadsafe(self.server.start(),
                                                  self.loop)
        self.port = future.result(timeout=5)

    def stop(self):
        asyncio.run_coroutine_threadsafe(self.server.stop(),
                                         self.loop).result(timeout=5)
        self.loop.call_soon_threadsafe(self.loop.stop)
        self.thread.join(timeout=5)


@pytest.fixture
def harness(request):
    harnesses = []

    def start(honeypot):
        h = ServerHarness(honeypot)
        harnesses.append(h)
        return h

    yield start
    for h in harnesses:
        h.stop()


def test_mysql_over_tcp(harness):
    h = harness(LowInteractionMySQL("tcp-mysql"))
    client = MySQLClient(TcpWire("127.0.0.1", h.port,
                                 expect_greeting=True))
    assert client.connect() == "8.0.36"
    result = client.login("root", "opensesame")
    client.close()
    assert not result.success
    assert result.error_code == 1045
    logins = [e for e in h.store if e.event_type == "login_attempt"]
    assert logins[0].password == "opensesame"


def test_mssql_over_tcp(harness):
    h = harness(LowInteractionMSSQL("tcp-mssql"))
    client = MSSQLClient(TcpWire("127.0.0.1", h.port))
    options = client.connect()
    assert options
    result = client.login("sa", "123")
    client.close()
    assert not result.success
    assert result.error_number == 18456


def test_redis_medium_over_tcp(harness):
    h = harness(RedisHoneypot("tcp-redis", config="fake_data"))
    client = RedisClient(TcpWire("127.0.0.1", h.port))
    client.connect()
    keys = client.command("KEYS", "*")
    assert isinstance(keys, list) and len(keys) == 200
    assert client.command("SET", "x", "y").value == "OK"
    assert client.command("GET", "x") == b"y"
    client.close()


def test_sticky_elephant_over_tcp(harness):
    h = harness(StickyElephant("tcp-psql"))
    client = PostgresClient(TcpWire("127.0.0.1", h.port))
    client.connect()
    assert client.login("postgres", "postgres")
    result = client.query("SELECT version();")
    client.terminate()
    assert result.ok
    assert result.rows and b"PostgreSQL" in result.rows[0][0]


def test_elasticpot_over_tcp(harness):
    h = harness(Elasticpot("tcp-es"))
    client = ElasticClient(TcpWire("127.0.0.1", h.port))
    client.connect()
    banner = client.get_json("/")
    client.close()
    assert banner["version"]["number"] == "1.4.2"


def test_mongo_over_tcp(harness):
    h = harness(MongoHoneypot("tcp-mongo"))
    client = MongoClient(TcpWire("127.0.0.1", h.port))
    client.connect()
    hello = client.is_master_legacy()
    assert hello["ismaster"] is True
    assert client.list_databases() == ["customers"]
    documents = client.find_all("customers", "records", batch=3)
    client.close()
    assert len(documents) == 3


def test_serve_honeypots_port_base_assigns_sequential_ports():
    import socket

    from repro.honeypots.tcp import serve_honeypots

    # Find a free region: bind an ephemeral port and use it as the base
    # (the OS will not hand out nearby ephemeral ports immediately).
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    base = probe.getsockname()[1]
    probe.close()

    async def scenario():
        store = BufferSink()
        servers = await serve_honeypots(
            [RedisHoneypot("pb-redis"), Elasticpot("pb-es")],
            SimClock(), store, port_base=base)
        try:
            return [server.port for server in servers]
        finally:
            for server in servers:
                await server.stop()

    ports = asyncio.run(scenario())
    assert ports == [base, base + 1]


def test_tcp_connections_counted_when_telemetry_installed():
    from repro import obs

    telemetry = obs.Telemetry(enabled=True)
    metrics = telemetry.metrics
    with obs.install(telemetry):
        h = ServerHarness(RedisHoneypot("tcp-redis-metrics"))
        try:
            client = RedisClient(TcpWire("127.0.0.1", h.port))
            client.connect()
            client.command("PING")
            client.close()
            # The handler finalizes its counters asynchronously.
            deadline = time.monotonic() + 5
            while (metrics.gauge_value("tcp.open_connections",
                                       dbms="redis") != 0
                   or metrics.counter_value("tcp.bytes_out",
                                            dbms="redis") == 0):
                assert time.monotonic() < deadline, "handler never closed"
                time.sleep(0.01)
        finally:
            h.stop()
    assert metrics.counter_value("tcp.connections", dbms="redis") == 1
    assert metrics.gauge_value("tcp.open_connections", dbms="redis") == 0
    assert metrics.counter_value("tcp.bytes_in", dbms="redis") > 0
    assert metrics.counter_value("tcp.bytes_out", dbms="redis") > 0


def test_concurrent_sessions_do_not_interleave(harness):
    h = harness(RedisHoneypot("tcp-redis-2"))
    clients = []
    for index in range(4):
        client = RedisClient(TcpWire("127.0.0.1", h.port))
        client.connect()
        clients.append(client)
    for index, client in enumerate(clients):
        client.command("SET", f"key{index}", str(index))
    for index, client in enumerate(clients):
        assert client.command("GET", f"key{index}") == str(index).encode()
        client.close()
    connects = [e for e in h.store if e.event_type == "connect"]
    assert len(connects) == 4
