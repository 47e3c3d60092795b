"""Tests for the high-interaction MongoDB honeypot."""

import pytest

from repro.honeypots import MongoHoneypot
from repro.honeypots.base import MemoryWire
from repro.honeypots.mongo_honeypot import (DECOY_COLLECTION,
                                            DECOY_DATABASE,
                                            FAKE_CUSTOMERS)
from repro.pipeline.logstore import EventType
from repro.protocols import mongo_wire as wire_codec


@pytest.fixture
def honeypot() -> MongoHoneypot:
    return MongoHoneypot("hp")


@pytest.fixture
def wire(honeypot, session_context):
    wire = MemoryWire(honeypot, session_context)
    wire.connect()
    return wire


def msg(wire, request_id, body):
    reader = wire_codec.MessageReader()
    replies = reader.feed(wire.send(wire_codec.build_msg(request_id,
                                                         body)))
    assert len(replies) == 1
    return replies[0].body


class TestHandshakes:
    def test_legacy_ismaster_gets_op_reply(self, wire):
        reader = wire_codec.MessageReader()
        (reply,) = reader.feed(wire.send(wire_codec.build_query(
            1, "admin.$cmd", {"isMaster": 1})))
        assert isinstance(reply, wire_codec.ReplyMessage)
        assert reply.documents[0]["ismaster"] is True

    def test_op_msg_hello(self, wire):
        reply = msg(wire, 1, {"hello": 1, "$db": "admin"})
        assert reply["isWritablePrimary"] is True

    def test_response_to_matches_request(self, wire):
        reader = wire_codec.MessageReader()
        (reply,) = reader.feed(wire.send(wire_codec.build_msg(
            77, {"ping": 1, "$db": "admin"})))
        assert reply.header.response_to == 77


class TestDecoyData:
    def test_fake_customers_planted(self, wire):
        reply = msg(wire, 1, {"find": DECOY_COLLECTION,
                              "$db": DECOY_DATABASE})
        batch = reply["cursor"]["firstBatch"]
        assert len(batch) == FAKE_CUSTOMERS
        assert "credit_card" in batch[0]

    def test_default_config_is_empty(self, session_context):
        wire = MemoryWire(MongoHoneypot("hp", config="default"),
                          session_context)
        wire.connect()
        reply = msg(wire, 1, {"listDatabases": 1, "$db": "admin"})
        assert reply["databases"] == []

    def test_each_instance_has_own_engine(self, session_context, clock,
                                          log_store):
        from repro.honeypots.base import SessionContext

        first = MongoHoneypot("hp1")
        second = MongoHoneypot("hp2")
        wire1 = MemoryWire(first, session_context)
        wire1.connect()
        msg(wire1, 1, {"dropDatabase": 1, "$db": DECOY_DATABASE})
        context = SessionContext("2.2.2.2", 2, clock, log_store)
        wire2 = MemoryWire(second, context)
        wire2.connect()
        reply = msg(wire2, 1, {"listDatabases": 1, "$db": "admin"})
        assert [d["name"] for d in reply["databases"]] == [DECOY_DATABASE]


class TestRansomFlow:
    def test_full_dump_wipe_note_sequence(self, wire):
        databases = msg(wire, 1, {"listDatabases": 1, "$db": "admin"})
        names = [d["name"] for d in databases["databases"]]
        assert names == [DECOY_DATABASE]
        collections = msg(wire, 2, {"listCollections": 1,
                                    "$db": DECOY_DATABASE})
        assert [c["name"] for c in
                collections["cursor"]["firstBatch"]] == [DECOY_COLLECTION]
        dump = msg(wire, 3, {"find": DECOY_COLLECTION,
                             "$db": DECOY_DATABASE})
        assert len(dump["cursor"]["firstBatch"]) == FAKE_CUSTOMERS
        dropped = msg(wire, 4, {"drop": DECOY_COLLECTION,
                                "$db": DECOY_DATABASE})
        assert dropped["ok"] == 1.0
        note = msg(wire, 5, {"insert": "README", "$db": DECOY_DATABASE,
                             "documents": [{"content": "pay 0.007 BTC"}]})
        assert note["n"] == 1
        refound = msg(wire, 6, {"find": "README", "$db": DECOY_DATABASE})
        assert refound["cursor"]["firstBatch"][0]["content"] == \
            "pay 0.007 BTC"

    def test_errors_return_ok_zero(self, wire):
        reply = msg(wire, 1, {"drop": "nonexistent", "$db": "nope"})
        assert reply["ok"] == 0.0
        assert reply["codeName"] == "NamespaceNotFound"

    def test_unknown_command_survives_session(self, wire):
        reply = msg(wire, 1, {"shutdown": 1, "$db": "admin"})
        assert reply["ok"] == 0.0
        assert msg(wire, 2, {"ping": 1, "$db": "admin"})["ok"] == 1.0


class TestLogging:
    def test_commands_logged_with_action(self, wire, log_store):
        msg(wire, 1, {"listDatabases": 1, "$db": "admin"})
        msg(wire, 2, {"find": DECOY_COLLECTION, "$db": DECOY_DATABASE})
        actions = [e.action for e in log_store
                   if e.event_type == EventType.COMMAND.value]
        assert actions == ["listDatabases", "find"]

    def test_driver_bookkeeping_stripped(self, wire, log_store):
        msg(wire, 1, {"ping": 1, "$db": "admin", "lsid": {"id": b"x"}})
        (event,) = [e for e in log_store
                    if e.event_type == EventType.COMMAND.value]
        assert "lsid" not in event.raw

    def test_garbage_closes_connection(self, session_context, log_store):
        wire = MemoryWire(MongoHoneypot("hp"), session_context)
        wire.connect()
        wire.send(b"\x01\x00\x00\x00" + b"GARBAGEPADDING!!")
        assert wire.server_closed


def test_unknown_config_rejected():
    with pytest.raises(ValueError):
        MongoHoneypot("hp", config="open")


def test_seed_determinism():
    a = MongoHoneypot("hp", seed=9).engine.find(DECOY_DATABASE,
                                                DECOY_COLLECTION)
    b = MongoHoneypot("hp", seed=9).engine.find(DECOY_DATABASE,
                                                DECOY_COLLECTION)
    strip = lambda docs: [{k: v for k, v in d.items() if k != "_id"}
                          for d in docs]
    assert strip(a) == strip(b)
