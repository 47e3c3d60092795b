"""MySQL client (login phase).

Cooperates with the server's auth-plugin negotiation, including the
switch to ``mysql_clear_password`` that honeypots request -- real
brute-force tools do the same, which is why the paper's low-interaction
tier sees plaintext credentials.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.clients.wire import Wire, WireError
from repro.protocols import mysql
from repro.protocols.errors import ProtocolError


@dataclass(frozen=True)
class LoginResult:
    """Outcome of one login attempt."""

    success: bool
    error_code: int | None = None
    error_message: str | None = None


class MySQLClient:
    """Minimal MySQL client: handshake + authenticate."""

    def __init__(self, wire: Wire):
        self._wire = wire
        self._reader = mysql.PacketReader()
        self.server_version: str | None = None

    def connect(self) -> str:
        """Open the connection and read the server handshake.

        Returns the advertised server version.
        """
        greeting = self._wire.connect()
        packets = self._feed(greeting)
        if not packets:
            raise WireError("no MySQL handshake received")
        handshake = mysql.parse_handshake_v10(packets[0][1])
        self.server_version = handshake.server_version
        return handshake.server_version

    def login(self, username: str, password: str,
              database: str | None = None) -> LoginResult:
        """Attempt to authenticate; follows auth-switch requests."""
        # The scramble-based auth response is irrelevant against a
        # honeypot that will switch to cleartext anyway.
        response = mysql.build_handshake_response(
            username, b"\x00" * 20, database=database)
        packets = self._feed(self._wire.send(mysql.frame(response, 1)))
        if not packets:
            raise WireError("no reply to login request")
        payload = packets[0][1]
        if mysql.is_auth_switch(payload):
            plugin, _data = mysql.parse_auth_switch_request(payload)
            if plugin != mysql.CLEAR_PASSWORD_PLUGIN:
                return LoginResult(False, None,
                                   f"unsupported auth plugin {plugin}")
            reply = self._wire.send(mysql.frame(
                mysql.build_clear_password_response(password), 3))
            packets = self._feed(reply)
            if not packets:
                raise WireError("no reply to auth switch response")
            payload = packets[0][1]
        if mysql.is_ok(payload):
            return LoginResult(True)
        if mysql.is_err(payload):
            err = mysql.parse_err(payload)
            return LoginResult(False, err.code, err.message)
        raise WireError(f"unexpected login reply {payload[:16]!r}")

    def close(self) -> None:
        """Close the connection."""
        self._wire.close()

    def _feed(self, data: bytes) -> list[tuple[int, bytes]]:
        try:
            return self._reader.feed(data)
        except ProtocolError as exc:
            raise WireError(f"malformed server data: {exc}") from exc
