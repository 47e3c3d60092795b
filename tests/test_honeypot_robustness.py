"""Robustness fuzzing: honeypots must survive arbitrary client bytes.

The paper's honeypots face whatever the Internet throws at them (RDP
cookies, TLS hellos, truncated protocols).  Property: no honeypot
session ever raises on any byte sequence, the connect/disconnect pair
is always logged, and a session reports closed-state consistently.
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.honeypots import (Elasticpot, LowInteractionMSSQL,
                             LowInteractionMySQL, LowInteractionPostgres,
                             LowInteractionRedis, MongoHoneypot,
                             RedisHoneypot, StickyElephant)
from repro.honeypots.base import SessionContext
from repro.netsim.clock import SimClock
from repro.pipeline.sinks import BufferSink

FACTORIES = [
    lambda: LowInteractionMySQL("fuzz"),
    lambda: LowInteractionPostgres("fuzz"),
    lambda: LowInteractionRedis("fuzz"),
    lambda: LowInteractionMSSQL("fuzz"),
    lambda: RedisHoneypot("fuzz"),
    lambda: StickyElephant("fuzz"),
    lambda: Elasticpot("fuzz"),
    lambda: MongoHoneypot("fuzz", config="default"),
]


def drive(factory, chunks):
    store = BufferSink()
    context = SessionContext("203.0.113.1", 1234, SimClock(),
                             store)
    session = factory().new_session(context)
    greeting = session.connect()
    assert isinstance(greeting, bytes)
    for chunk in chunks:
        if session.closed:
            break
        reply = session.receive(chunk)
        assert isinstance(reply, bytes)
    session.disconnect()
    assert session.closed
    # receive() after close is a no-op, not an error.
    assert session.receive(b"more") == b""
    types = [event.event_type for event in store]
    assert types[0] == "connect"
    assert types[-1] == "disconnect"
    return store


@pytest.mark.parametrize("index", range(len(FACTORIES)))
@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.function_scoped_fixture])
@given(chunks=st.lists(st.binary(min_size=1, max_size=128), max_size=6))
def test_random_bytes_never_crash(index, chunks):
    drive(FACTORIES[index], chunks)


@pytest.mark.parametrize("index", range(len(FACTORIES)))
def test_realworld_garbage_probes(index):
    probes = [
        b"\x16\x03\x01\x02\x00\x01\x00\x01\xfc\x03\x03",  # TLS hello
        b"GET / HTTP/1.0\r\n\r\n",
        b"\x03\x00\x00+&\xe0\x00\x00\x00\x00\x00Cookie: "
        b"mstshash=Administr\r\n",
        b"JDWP-Handshake",
        b"SSH-2.0-OpenSSH_8.9\r\n",
        b"\x00" * 64,
        b"\xff" * 64,
    ]
    for probe in probes:
        drive(FACTORIES[index], [probe])


@pytest.mark.parametrize("index", range(len(FACTORIES)))
def test_single_byte_dribble(index):
    # One byte at a time must behave like one big chunk (no crashes, no
    # lost state).
    payload = b"PING\r\nGET / HTTP/1.1\r\n\r\n\x00\x01\x02"
    drive(FACTORIES[index], [bytes([b]) for b in payload])


GARBAGE_PREFIXES = [
    b"",
    b"\x16\x03\x01\x02\x00",            # TLS client hello fragment
    b"GET /shell?cd+/tmp HTTP/1.1\r\n",  # Mozi-style HTTP probe
    b"\x00\x00\x00\x00",
    b"\xff\xfe\xfd",
    b"SSH-2.0-Go\r\n",
]

PROTOCOLISH_TAILS = [
    b"PING\r\n*1\r\n$4\r\nINFO\r\n",
    b"\x03\x00\x00\x0b\x06\xe0\x00\x00\x00\x00\x00",
    b'{"query": {"match_all": {}}}\r\n\r\n',
    b"\x00\x00\x00\x24\x00\x00\x00\x00\xd4\x07\x00\x00",
    b"LOGIN sa 123456\r\n",
]


def random_splits(rng, payload):
    """Cut ``payload`` into 1..6 chunks at random byte boundaries."""
    if len(payload) < 2:
        return [payload] if payload else []
    cuts = sorted(rng.sample(range(1, len(payload)),
                             min(rng.randint(0, 5), len(payload) - 1)))
    return [payload[a:b]
            for a, b in zip([0] + cuts, cuts + [len(payload)])]


@pytest.mark.parametrize("index", range(len(FACTORIES)))
def test_seeded_fuzz_byte_splits_and_garbage_prefixes(index):
    # Deterministic fuzz pass (satellite of the fault-injection PR):
    # garbage prefixes glued to protocol-ish bytes, re-chunked at random
    # boundaries.  No exception may escape, and every event the session
    # does emit must be well-formed (JSON round-trip preserves it).
    rng = random.Random(f"fuzz:{index}")
    for round_number in range(12):
        payload = (rng.choice(GARBAGE_PREFIXES)
                   + rng.choice(PROTOCOLISH_TAILS)
                   + bytes(rng.randrange(256)
                           for _ in range(rng.randint(0, 40))))
        store = drive(FACTORIES[index], random_splits(rng, payload))
        for event in store:
            from repro.pipeline.logstore import LogEvent

            assert LogEvent.from_json(event.to_json()) == event
            assert event.event_type in {
                "connect", "disconnect", "login_attempt", "command",
                "query", "http_request", "malformed"}
