"""MySQL client/server protocol.

Implements the connection-phase subset used by the low-interaction MySQL
honeypot and its attackers: packet framing, the ``HandshakeV10`` greeting,
``HandshakeResponse41`` login packets, the ``AuthSwitchRequest`` trick that
Qeeqbox-style honeypots use to elicit *cleartext* passwords, and OK / ERR
terminal packets.

Wire format reference:
https://dev.mysql.com/doc/dev/mysql-server/latest/page_protocol_connection_phase.html
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

from repro.protocols.errors import ProtocolError

# Capability flags (subset).
CLIENT_LONG_PASSWORD = 0x00000001
CLIENT_PROTOCOL_41 = 0x00000200
CLIENT_CONNECT_WITH_DB = 0x00000008
CLIENT_SECURE_CONNECTION = 0x00008000
CLIENT_PLUGIN_AUTH = 0x00080000

#: Default server capabilities advertised by the honeypot.
SERVER_CAPABILITIES = (CLIENT_LONG_PASSWORD | CLIENT_PROTOCOL_41
                       | CLIENT_CONNECT_WITH_DB | CLIENT_SECURE_CONNECTION
                       | CLIENT_PLUGIN_AUTH)

NATIVE_PASSWORD_PLUGIN = "mysql_native_password"
CLEAR_PASSWORD_PLUGIN = "mysql_clear_password"

_MAX_PACKET = 16 * 1024 * 1024 - 1

#: MySQL error code for access-denied.
ER_ACCESS_DENIED = 1045


def frame(payload: bytes, sequence_id: int) -> bytes:
    """Wrap ``payload`` in the 4-byte MySQL packet header."""
    if len(payload) > _MAX_PACKET:
        raise ValueError("payload exceeds maximum MySQL packet size")
    if not 0 <= sequence_id <= 255:
        raise ValueError("sequence id must fit in one byte")
    return struct.pack("<I", len(payload))[:3] + bytes([sequence_id]) + payload


@dataclass
class PacketReader:
    """Incremental splitter for the MySQL packet stream."""

    _buffer: bytearray = field(default_factory=bytearray)

    def feed(self, data: bytes) -> list[tuple[int, bytes]]:
        """Add bytes; return completed ``(sequence_id, payload)`` packets."""
        self._buffer += data
        packets = []
        while len(self._buffer) >= 4:
            length = int.from_bytes(self._buffer[:3], "little")
            if length > _MAX_PACKET:
                raise ProtocolError(f"oversized MySQL packet ({length})")
            if len(self._buffer) < 4 + length:
                break
            sequence_id = self._buffer[3]
            payload = bytes(self._buffer[4:4 + length])
            del self._buffer[:4 + length]
            packets.append((sequence_id, payload))
        return packets


@dataclass(frozen=True)
class HandshakeV10:
    """Server greeting packet."""

    server_version: str
    thread_id: int
    auth_plugin_data: bytes
    capabilities: int
    character_set: int
    status_flags: int
    auth_plugin_name: str


def build_handshake_v10(server_version: str, thread_id: int,
                        auth_plugin_data: bytes,
                        capabilities: int = SERVER_CAPABILITIES,
                        character_set: int = 0xFF,
                        status_flags: int = 0x0002,
                        auth_plugin_name: str = NATIVE_PASSWORD_PLUGIN,
                        ) -> bytes:
    """Encode a HandshakeV10 payload (unframed)."""
    if len(auth_plugin_data) < 8:
        raise ValueError("auth plugin data must be at least 8 bytes")
    part1, part2 = auth_plugin_data[:8], auth_plugin_data[8:]
    # Part 2 is always NUL-terminated and padded to at least 13 bytes.
    part2 = part2 + b"\x00" * max(0, 13 - len(part2) - 1) + b"\x00"
    payload = bytearray()
    payload += b"\x0a"
    payload += server_version.encode() + b"\x00"
    payload += struct.pack("<I", thread_id)
    payload += part1 + b"\x00"
    payload += struct.pack("<H", capabilities & 0xFFFF)
    payload += bytes([character_set])
    payload += struct.pack("<H", status_flags)
    payload += struct.pack("<H", (capabilities >> 16) & 0xFFFF)
    payload += bytes([len(auth_plugin_data) + 1
                      if capabilities & CLIENT_PLUGIN_AUTH else 0])
    payload += b"\x00" * 10
    payload += part2
    if capabilities & CLIENT_PLUGIN_AUTH:
        payload += auth_plugin_name.encode() + b"\x00"
    return bytes(payload)


def parse_handshake_v10(payload: bytes) -> HandshakeV10:
    """Decode a HandshakeV10 payload."""
    if not payload or payload[0] != 0x0A:
        raise ProtocolError("not a HandshakeV10 packet")
    end = payload.find(b"\x00", 1)
    if end < 0:
        raise ProtocolError("unterminated server version")
    server_version = payload[1:end].decode("utf-8", "replace")
    offset = end + 1
    try:
        (thread_id,) = struct.unpack_from("<I", payload, offset)
        offset += 4
        part1 = payload[offset:offset + 8]
        offset += 9  # 8 bytes of salt + filler
        (cap_low,) = struct.unpack_from("<H", payload, offset)
        offset += 2
        character_set = payload[offset]
        offset += 1
        (status_flags,) = struct.unpack_from("<H", payload, offset)
        offset += 2
        (cap_high,) = struct.unpack_from("<H", payload, offset)
        offset += 2
        auth_data_len = payload[offset]
        offset += 1 + 10  # length byte + reserved
    except (struct.error, IndexError) as exc:
        raise ProtocolError("truncated HandshakeV10") from exc
    capabilities = cap_low | (cap_high << 16)
    part2_len = max(13, auth_data_len - 8)
    part2 = payload[offset:offset + part2_len].rstrip(b"\x00")
    offset += part2_len
    plugin_name = ""
    if capabilities & CLIENT_PLUGIN_AUTH:
        end = payload.find(b"\x00", offset)
        plugin_name = payload[offset:end if end >= 0 else len(payload)
                              ].decode("utf-8", "replace")
    return HandshakeV10(server_version, thread_id, part1 + part2,
                        capabilities, character_set, status_flags,
                        plugin_name)


@dataclass(frozen=True)
class HandshakeResponse41:
    """Client login packet."""

    capabilities: int
    max_packet_size: int
    character_set: int
    username: str
    auth_response: bytes
    database: str | None
    auth_plugin_name: str | None


def build_handshake_response(username: str, auth_response: bytes,
                             database: str | None = None,
                             auth_plugin_name: str = NATIVE_PASSWORD_PLUGIN,
                             capabilities: int | None = None,
                             max_packet_size: int = 16 * 1024 * 1024,
                             character_set: int = 0xFF) -> bytes:
    """Encode a HandshakeResponse41 payload (unframed)."""
    if capabilities is None:
        capabilities = (CLIENT_PROTOCOL_41 | CLIENT_SECURE_CONNECTION
                        | CLIENT_PLUGIN_AUTH | CLIENT_LONG_PASSWORD)
        if database is not None:
            capabilities |= CLIENT_CONNECT_WITH_DB
    payload = bytearray()
    payload += struct.pack("<I", capabilities)
    payload += struct.pack("<I", max_packet_size)
    payload += bytes([character_set])
    payload += b"\x00" * 23
    payload += username.encode() + b"\x00"
    if len(auth_response) > 255:
        raise ValueError("auth response too long for 1-byte length prefix")
    payload += bytes([len(auth_response)]) + auth_response
    if capabilities & CLIENT_CONNECT_WITH_DB and database is not None:
        payload += database.encode() + b"\x00"
    if capabilities & CLIENT_PLUGIN_AUTH:
        payload += auth_plugin_name.encode() + b"\x00"
    return bytes(payload)


def parse_handshake_response(payload: bytes) -> HandshakeResponse41:
    """Decode a HandshakeResponse41 payload."""
    try:
        capabilities, max_packet, charset = struct.unpack_from(
            "<IIB", payload, 0)
    except struct.error as exc:
        raise ProtocolError("truncated HandshakeResponse41") from exc
    if not capabilities & CLIENT_PROTOCOL_41:
        raise ProtocolError("client does not speak protocol 4.1")
    offset = 4 + 4 + 1 + 23
    end = payload.find(b"\x00", offset)
    if end < 0:
        raise ProtocolError("unterminated username")
    username = payload[offset:end].decode("utf-8", "replace")
    offset = end + 1
    if offset >= len(payload):
        raise ProtocolError("missing auth response")
    auth_len = payload[offset]
    offset += 1
    auth_response = payload[offset:offset + auth_len]
    if len(auth_response) != auth_len:
        raise ProtocolError("truncated auth response")
    offset += auth_len
    database = None
    if capabilities & CLIENT_CONNECT_WITH_DB and offset < len(payload):
        end = payload.find(b"\x00", offset)
        if end < 0:
            raise ProtocolError("unterminated database name")
        database = payload[offset:end].decode("utf-8", "replace")
        offset = end + 1
    plugin_name = None
    if capabilities & CLIENT_PLUGIN_AUTH and offset < len(payload):
        end = payload.find(b"\x00", offset)
        plugin_name = payload[offset:end if end >= 0 else len(payload)
                              ].decode("utf-8", "replace")
    return HandshakeResponse41(capabilities, max_packet, charset, username,
                               auth_response, database, plugin_name)


def build_auth_switch_request(plugin_name: str,
                              plugin_data: bytes = b"") -> bytes:
    """Encode an AuthSwitchRequest (0xFE) payload.

    Switching to ``mysql_clear_password`` makes a cooperating client send
    its password in cleartext -- the standard honeypot credential-capture
    trick.
    """
    return b"\xfe" + plugin_name.encode() + b"\x00" + plugin_data


def parse_auth_switch_request(payload: bytes) -> tuple[str, bytes]:
    """Decode an AuthSwitchRequest payload into (plugin name, data)."""
    if not payload or payload[0] != 0xFE:
        raise ProtocolError("not an AuthSwitchRequest")
    end = payload.find(b"\x00", 1)
    if end < 0:
        raise ProtocolError("unterminated plugin name")
    return payload[1:end].decode("utf-8", "replace"), payload[end + 1:]


def build_clear_password_response(password: str) -> bytes:
    """Encode the client's cleartext-password AuthSwitchResponse."""
    return password.encode() + b"\x00"


def parse_clear_password(payload: bytes) -> str:
    """Decode a cleartext-password AuthSwitchResponse."""
    return payload.rstrip(b"\x00").decode("utf-8", "replace")


def build_err(code: int, sql_state: str, message: str) -> bytes:
    """Encode an ERR packet payload."""
    if len(sql_state) != 5:
        raise ValueError("SQL state must be exactly 5 characters")
    return (b"\xff" + struct.pack("<H", code) + b"#" + sql_state.encode()
            + message.encode())


@dataclass(frozen=True)
class ErrPacket:
    """Decoded ERR packet."""

    code: int
    sql_state: str
    message: str


def parse_err(payload: bytes) -> ErrPacket:
    """Decode an ERR packet payload."""
    if not payload or payload[0] != 0xFF:
        raise ProtocolError("not an ERR packet")
    if len(payload) < 9 or payload[3:4] != b"#":
        raise ProtocolError("malformed ERR packet")
    (code,) = struct.unpack_from("<H", payload, 1)
    sql_state = payload[4:9].decode("ascii", "replace")
    message = payload[9:].decode("utf-8", "replace")
    return ErrPacket(code, sql_state, message)


def is_ok(payload: bytes) -> bool:
    """Whether ``payload`` is an OK packet."""
    return bool(payload) and payload[0] == 0x00


def is_err(payload: bytes) -> bool:
    """Whether ``payload`` is an ERR packet."""
    return bool(payload) and payload[0] == 0xFF


def is_auth_switch(payload: bytes) -> bool:
    """Whether ``payload`` is an AuthSwitchRequest."""
    return bool(payload) and payload[0] == 0xFE
