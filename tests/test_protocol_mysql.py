"""Tests for the MySQL protocol codec."""

import pytest
from hypothesis import given, strategies as st

from repro.protocols import mysql
from repro.protocols.errors import ProtocolError

SALT = bytes(range(20))


class TestFraming:
    def test_frame_and_read(self):
        reader = mysql.PacketReader()
        packets = reader.feed(mysql.frame(b"abc", 3))
        assert packets == [(3, b"abc")]

    def test_split_across_feeds(self):
        reader = mysql.PacketReader()
        data = mysql.frame(b"payload", 0)
        assert reader.feed(data[:5]) == []
        assert reader.feed(data[5:]) == [(0, b"payload")]

    def test_multiple_packets(self):
        reader = mysql.PacketReader()
        data = mysql.frame(b"a", 0) + mysql.frame(b"b", 1)
        assert reader.feed(data) == [(0, b"a"), (1, b"b")]

    def test_sequence_id_range_validated(self):
        with pytest.raises(ValueError):
            mysql.frame(b"", 256)


class TestHandshake:
    def test_roundtrip(self):
        raw = mysql.build_handshake_v10("8.0.36", 99, SALT)
        parsed = mysql.parse_handshake_v10(raw)
        assert parsed.server_version == "8.0.36"
        assert parsed.thread_id == 99
        assert parsed.auth_plugin_data == SALT
        assert parsed.auth_plugin_name == mysql.NATIVE_PASSWORD_PLUGIN
        assert parsed.capabilities & mysql.CLIENT_PROTOCOL_41

    def test_salt_minimum_length(self):
        with pytest.raises(ValueError):
            mysql.build_handshake_v10("8.0", 1, b"short")

    def test_reject_non_handshake(self):
        with pytest.raises(ProtocolError):
            mysql.parse_handshake_v10(b"\xffgarbage")


class TestHandshakeResponse:
    def test_roundtrip_with_database(self):
        raw = mysql.build_handshake_response("root", b"\x01" * 20,
                                             database="mysql")
        parsed = mysql.parse_handshake_response(raw)
        assert parsed.username == "root"
        assert parsed.auth_response == b"\x01" * 20
        assert parsed.database == "mysql"
        assert parsed.auth_plugin_name == mysql.NATIVE_PASSWORD_PLUGIN

    def test_roundtrip_without_database(self):
        raw = mysql.build_handshake_response("sa", b"")
        parsed = mysql.parse_handshake_response(raw)
        assert parsed.username == "sa"
        assert parsed.database is None

    def test_rejects_pre41_clients(self):
        import struct
        payload = struct.pack("<IIB", 0, 0, 0) + b"\x00" * 23
        with pytest.raises(ProtocolError):
            mysql.parse_handshake_response(payload)

    def test_rejects_overlong_auth_response(self):
        with pytest.raises(ValueError):
            mysql.build_handshake_response("u", b"\x00" * 256)


class TestAuthSwitch:
    def test_roundtrip(self):
        raw = mysql.build_auth_switch_request(
            mysql.CLEAR_PASSWORD_PLUGIN, b"data")
        plugin, data = mysql.parse_auth_switch_request(raw)
        assert plugin == mysql.CLEAR_PASSWORD_PLUGIN
        assert data == b"data"
        assert mysql.is_auth_switch(raw)

    def test_clear_password_roundtrip(self):
        raw = mysql.build_clear_password_response("hunter2")
        assert mysql.parse_clear_password(raw) == "hunter2"

    def test_reject_non_switch(self):
        with pytest.raises(ProtocolError):
            mysql.parse_auth_switch_request(b"\x00")


#: An OK packet payload: header, 0 affected rows, insert id 0, status
#: SERVER_STATUS_AUTOCOMMIT, 0 warnings.
OK_PACKET = b"\x00\x00\x00\x02\x00\x00\x00"


class TestOkErr:
    def test_ok_detection(self):
        assert mysql.is_ok(OK_PACKET)
        assert not mysql.is_err(OK_PACKET)

    def test_err_roundtrip(self):
        raw = mysql.build_err(1045, "28000", "Access denied")
        parsed = mysql.parse_err(raw)
        assert parsed.code == 1045
        assert parsed.sql_state == "28000"
        assert parsed.message == "Access denied"
        assert mysql.is_err(raw)

    def test_err_requires_five_char_state(self):
        with pytest.raises(ValueError):
            mysql.build_err(1, "28", "x")

    def test_parse_err_rejects_ok(self):
        with pytest.raises(ProtocolError):
            mysql.parse_err(OK_PACKET)


@given(st.text(alphabet=st.characters(min_codepoint=33,
                                      max_codepoint=126),
               min_size=1, max_size=32),
       st.binary(max_size=20))
def test_handshake_response_roundtrip_property(username, auth):
    raw = mysql.build_handshake_response(username, auth)
    parsed = mysql.parse_handshake_response(raw)
    assert parsed.username == username
    assert parsed.auth_response == auth


@given(st.integers(min_value=0, max_value=0xFFFF),
       st.text(alphabet="0123456789ABCDEF", min_size=5, max_size=5),
       st.text(max_size=64))
def test_err_roundtrip_property(code, state, message):
    parsed = mysql.parse_err(mysql.build_err(code, state, message))
    assert (parsed.code, parsed.sql_state) == (code, state)
    assert parsed.message == message
