"""Tests for the medium-interaction Redis honeypot."""

import pytest

from repro.honeypots import RedisHoneypot
from repro.honeypots.base import MemoryWire
from repro.honeypots.redis_honeypot import FAKE_LOGIN_ENTRIES
from repro.pipeline.logstore import EventType
from repro.protocols import resp


def decode(data: bytes):
    values = resp.RespParser().feed(data)
    assert len(values) == 1, values
    return values[0]


@pytest.fixture
def wire(session_context):
    wire = MemoryWire(RedisHoneypot("hp"), session_context)
    wire.connect()
    return wire


class TestBasicCommands:
    def test_ping(self, wire):
        assert decode(wire.send(resp.encode_command("PING"))).value == \
            "PONG"

    def test_ping_with_message(self, wire):
        assert decode(wire.send(resp.encode_command("PING", "hi"))) == \
            b"hi"

    def test_echo(self, wire):
        assert decode(wire.send(resp.encode_command("ECHO", "x"))) == b"x"

    def test_set_get_del(self, wire):
        assert decode(wire.send(resp.encode_command("SET", "k", "v"))
                      ).value == "OK"
        assert decode(wire.send(resp.encode_command("GET", "k"))) == b"v"
        assert decode(wire.send(resp.encode_command("DEL", "k"))) == 1
        assert decode(wire.send(resp.encode_command("GET", "k"))) is None

    def test_keys_and_dbsize(self, wire):
        wire.send(resp.encode_command("SET", "a", "1"))
        wire.send(resp.encode_command("SET", "b", "2"))
        assert decode(wire.send(resp.encode_command("KEYS", "*"))) == [
            b"a", b"b"]
        assert decode(wire.send(resp.encode_command("DBSIZE"))) == 2

    def test_type(self, wire):
        wire.send(resp.encode_command("SET", "s", "v"))
        assert decode(wire.send(resp.encode_command("TYPE", "s"))
                      ).value == "string"
        assert decode(wire.send(resp.encode_command("TYPE", "missing"))
                      ).value == "none"

    def test_flushdb(self, wire):
        wire.send(resp.encode_command("SET", "a", "1"))
        wire.send(resp.encode_command("FLUSHDB"))
        assert decode(wire.send(resp.encode_command("DBSIZE"))) == 0

    def test_unknown_command_errors(self, wire):
        reply = decode(wire.send(resp.encode_command("NOPE")))
        assert isinstance(reply, resp.Error)
        assert "unknown command" in reply.message

    def test_wrong_arity_errors(self, wire):
        reply = decode(wire.send(resp.encode_command("GET")))
        assert isinstance(reply, resp.Error)
        assert "wrong number of arguments" in reply.message

    def test_quit_closes(self, wire):
        wire.send(resp.encode_command("QUIT"))
        assert wire.server_closed

    def test_inline_commands_work(self, wire):
        assert b"/var/lib/redis" in wire.send(b"CONFIG GET dir\r\n")


class TestAttackSurface:
    def test_config_set_persists(self, wire):
        wire.send(resp.encode_command("CONFIG", "SET", "dir",
                                      "/var/spool/cron"))
        reply = decode(wire.send(resp.encode_command("CONFIG", "GET",
                                                     "dir")))
        assert reply == [b"dir", b"/var/spool/cron"]

    def test_slaveof_changes_role(self, wire):
        wire.send(resp.encode_command("SLAVEOF", "1.2.3.4", "6379"))
        info = decode(wire.send(resp.encode_command("INFO")))
        assert b"role:slave" in info
        wire.send(resp.encode_command("SLAVEOF", "NO", "ONE"))
        info = decode(wire.send(resp.encode_command("INFO")))
        assert b"role:master" in info

    def test_module_load_enables_system_exec(self, wire):
        reply = decode(wire.send(resp.encode_command("system.exec", "id")))
        assert isinstance(reply, resp.Error)
        wire.send(resp.encode_command("MODULE", "LOAD", "/tmp/exp.so"))
        reply = decode(wire.send(resp.encode_command("system.exec", "id")))
        assert not isinstance(reply, resp.Error)

    def test_module_unload(self, wire):
        wire.send(resp.encode_command("MODULE", "LOAD", "/tmp/exp.so"))
        assert decode(wire.send(resp.encode_command(
            "MODULE", "UNLOAD", "system"))).value == "OK"

    def test_eval_cve_payload_gets_fake_id_output(self, wire):
        payload = ('local io_l = package.loadlib("liblua5.1.so.0", '
                   '"luaopen_io"); local f = io.popen("id", "r");')
        reply = decode(wire.send(resp.encode_command("EVAL", payload,
                                                     "0")))
        assert b"uid=" in reply

    def test_eval_benign_returns_null(self, wire):
        assert decode(wire.send(resp.encode_command(
            "EVAL", "return 1", "0"))) is None

    def test_client_list_shows_peer(self, wire, session_context):
        reply = decode(wire.send(resp.encode_command("CLIENT", "LIST")))
        assert session_context.src_ip.encode() in reply

    def test_save_and_bgsave(self, wire):
        assert decode(wire.send(resp.encode_command("SAVE"))).value == \
            "OK"
        assert "saving" in decode(wire.send(
            resp.encode_command("BGSAVE"))).value.lower()

    def test_auth_logged_open_server(self, wire, log_store):
        wire.send(resp.encode_command("AUTH", "guessme"))
        logins = [e for e in log_store
                  if e.event_type == EventType.LOGIN_ATTEMPT.value]
        assert logins and logins[0].password == "guessme"


class TestConfigurations:
    def test_default_config_is_empty(self, session_context):
        wire = MemoryWire(RedisHoneypot("hp", config="default"),
                          session_context)
        wire.connect()
        assert decode(wire.send(resp.encode_command("DBSIZE"))) == 0

    def test_fake_data_config_has_200_entries(self, session_context):
        wire = MemoryWire(RedisHoneypot("hp", config="fake_data"),
                          session_context)
        wire.connect()
        keys = decode(wire.send(resp.encode_command("KEYS", "*")))
        assert len(keys) == FAKE_LOGIN_ENTRIES
        value = decode(wire.send(resp.encode_command("GET", keys[0])))
        assert value

    def test_unknown_config_rejected(self):
        with pytest.raises(ValueError):
            RedisHoneypot("hp", config="bogus")

    def test_engine_shared_across_sessions(self, session_context, clock,
                                           log_store):
        from repro.honeypots.base import SessionContext

        honeypot = RedisHoneypot("hp")
        wire1 = MemoryWire(honeypot, session_context)
        wire1.connect()
        wire1.send(resp.encode_command("SET", "persist", "yes"))
        wire1.close()
        context2 = SessionContext("198.51.100.9", 1234, clock,
                                  log_store)
        wire2 = MemoryWire(honeypot, context2)
        wire2.connect()
        assert decode(wire2.send(resp.encode_command("GET", "persist"))
                      ) == b"yes"


def test_actions_logged_with_subcommands(session_context, log_store):
    wire = MemoryWire(RedisHoneypot("hp"), session_context)
    wire.connect()
    wire.send(resp.encode_command("CONFIG", "SET", "dir", "/tmp"))
    wire.send(resp.encode_command("MODULE", "LOAD", "/tmp/exp.so"))
    actions = [e.action for e in log_store
               if e.event_type == EventType.COMMAND.value]
    assert "CONFIG SET" in actions
    assert "MODULE LOAD" in actions
