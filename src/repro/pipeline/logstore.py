"""Structured honeypot log events.

Each honeypot in the paper logs to its own ``.log``/``.json`` files; here
every honeypot emits :class:`LogEvent` records into an
:data:`EventSink`.  The sinks in :mod:`repro.pipeline.sinks` collect
them (``BufferSink``), persist them as consolidated JSON-lines files
(``RawLogSink``, the raw-log stage of the paper's pipeline) and convert
them into SQLite.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass
from typing import Callable

from repro import obs


class EventType(str, enum.Enum):
    """Kinds of honeypot observations."""

    CONNECT = "connect"
    DISCONNECT = "disconnect"
    LOGIN_ATTEMPT = "login_attempt"
    COMMAND = "command"
    QUERY = "query"
    HTTP_REQUEST = "http_request"
    MALFORMED = "malformed"


@dataclass(frozen=True, slots=True)
class LogEvent:
    """One observation made by a honeypot.

    Attributes
    ----------
    timestamp:
        POSIX timestamp (simulated clock).
    honeypot_id:
        Unique deployment instance, e.g. ``"low-mysql-007"``.
    honeypot_type:
        Software identity, e.g. ``"qeeqbox"`` or ``"sticky_elephant"``.
    dbms:
        Emulated service: ``mysql`` / ``postgresql`` / ``redis`` /
        ``mssql`` / ``elasticsearch`` / ``mongodb``.
    interaction:
        ``low`` / ``medium`` / ``high``.
    config:
        Deployment configuration label (``default``, ``fake_data``,
        ``login_disabled``, ``multi``, ``single``).
    src_ip / src_port:
        The client endpoint.
    event_type:
        The :class:`EventType` value.
    action:
        Normalized action token used as the clustering "term", e.g.
        ``"SET"``, ``"COPY FROM PROGRAM"``, ``"GET /_nodes"``.
    username / password:
        Captured credentials for login attempts.
    raw:
        Raw payload excerpt (truncated) for manual inspection.
    """

    timestamp: float
    honeypot_id: str
    honeypot_type: str
    dbms: str
    interaction: str
    config: str
    src_ip: str
    src_port: int
    event_type: str
    action: str | None = None
    username: str | None = None
    password: str | None = None
    raw: str | None = None

    def to_json(self) -> str:
        """Serialize as a single JSON line.

        The dict literal spells the fields in declaration order, so the
        output bytes are identical to the historical ``asdict()`` form
        without paying its recursive copy on every event.
        """
        return json.dumps(
            {"timestamp": self.timestamp,
             "honeypot_id": self.honeypot_id,
             "honeypot_type": self.honeypot_type,
             "dbms": self.dbms,
             "interaction": self.interaction,
             "config": self.config,
             "src_ip": self.src_ip,
             "src_port": self.src_port,
             "event_type": self.event_type,
             "action": self.action,
             "username": self.username,
             "password": self.password,
             "raw": self.raw},
            separators=(",", ":"), ensure_ascii=False)

    @classmethod
    def from_json(cls, line: str) -> "LogEvent":
        """Parse a JSON line back into an event."""
        data = json.loads(line)
        return cls(**data)


#: Callable honeypots use to emit events.
EventSink = Callable[[LogEvent], None]


def consolidated_group_name(interaction: str, dbms: str,
                            config: str) -> str:
    """The consolidated raw-log file of one ``(interaction, dbms,
    config)`` group.

    One definition shared by every writer and reader of the layout --
    the streaming ``RawLogSink``, the dataset export, the converter's
    per-group row counts and the audit: checkpoint/resume records
    committed byte offsets *per group file name*, so all of them must
    spell it identically.
    """
    return f"{interaction}-{dbms}-{config}.jsonl"


#: Maximum stored length of the raw payload excerpt.
MAX_RAW = 2048


def truncate_raw(raw: bytes | str | None) -> str | None:
    """Clamp a raw payload for logging, decoding bytes leniently.

    Actual clippings are counted in the installed telemetry registry:
    ``logstore.raw_truncated`` is the number of clipped payloads and
    ``logstore.raw_truncated_bytes`` the payload bytes the capture
    dropped -- measured pre-decode (the wire size of a ``bytes``
    payload; UTF-8 size of a ``str`` one), minus the UTF-8 size of the
    excerpt that was kept.
    """
    if raw is None:
        return None
    if isinstance(raw, bytes):
        raw_bytes = len(raw)
        raw = raw.decode("utf-8", "replace")
    else:
        raw_bytes = None
    if len(raw) > MAX_RAW:
        kept = raw[:MAX_RAW]
        if raw_bytes is None:
            raw_bytes = len(raw.encode("utf-8"))
        metrics = obs.current().metrics
        metrics.inc("logstore.raw_truncated")
        metrics.inc("logstore.raw_truncated_bytes",
                    raw_bytes - len(kept.encode("utf-8")))
        return kept
    return raw
