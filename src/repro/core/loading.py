"""Load per-IP views from a converted SQLite database.

The analysis operates on two shapes of data:

* :class:`IpProfile` -- per-(IP, DBMS) aggregates: event counts, first /
  last day seen, source metadata, and the ordered action sequence used
  for classification and clustering;
* raw event iteration for the table builders in
  :mod:`repro.core.reports`.

Profiles are built from the columnar event form served by
:class:`repro.core.store.AnalysisStore` -- one ordered scan of the
database, shared by every downstream consumer.  :func:`load_ip_profiles`
keeps the original path-based API: given a path it performs one private
scan (no cache side effects); given a store it reuses the store's
columnar load and digest-keyed artifact cache.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.store import AnalysisStore, ColumnarEvents

#: Seconds per day, used to bucket timestamps into experiment days.
DAY_SECONDS = 86400.0

#: The ``events`` columns :func:`build_profiles` reads: every scanned
#: column except ``interaction``, which no profile field records.
PROFILE_COLUMNS = (
    "timestamp", "src_ip", "dbms", "config", "country", "asn",
    "as_name", "as_type", "institutional", "event_type", "action",
    "username", "password", "raw",
)


@dataclass
class IpProfile:
    """Everything observed from one source IP against one DBMS."""

    src_ip: str
    dbms: str
    country: str = "Unknown"
    asn: int | None = None
    as_name: str = "Unknown"
    as_type: str = "Unknown"
    institutional: bool = False
    connects: int = 0
    login_attempts: int = 0
    #: Distinct (username, password) pairs tried.
    credentials: set[tuple[str, str]] = field(default_factory=set)
    #: Ordered action tokens (commands, queries, HTTP requests).
    actions: list[str] = field(default_factory=list)
    #: Raw payload excerpts, for signature matching.
    raws: list[str] = field(default_factory=list)
    malformed: int = 0
    first_ts: float = float("inf")
    last_ts: float = float("-inf")
    days_seen: set[int] = field(default_factory=set)
    configs: set[str] = field(default_factory=set)

    @property
    def active_days(self) -> int:
        """Number of distinct experiment days with activity."""
        return len(self.days_seen)

    @property
    def interacted(self) -> bool:
        """Whether the IP did anything beyond connecting."""
        return bool(self.actions or self.login_attempts or self.malformed)


def load_ip_profiles(source: "str | Path | AnalysisStore", *,
                     interaction: str | None = None,
                     dbms: str | None = None,
                     start_ts: float | None = None,
                     ) -> dict[tuple[str, str], IpProfile]:
    """Build per-(IP, DBMS) profiles from a converted database.

    Parameters
    ----------
    source:
        SQLite database path produced by the pipeline, or an
        :class:`~repro.core.store.AnalysisStore` (whose columnar load
        and artifact cache are then reused).
    interaction / dbms:
        Optional filters, pushed down into the scan.
    start_ts:
        Experiment start timestamp for day bucketing; defaults to the
        earliest event in the (filtered) database.
    """
    from repro.core.store import borrow_store

    with borrow_store(source) as store:
        return store.profiles(interaction=interaction, dbms=dbms,
                              start_ts=start_ts)


def build_profiles(columns: "ColumnarEvents", start_ts: float,
                   ) -> dict[tuple[str, str], IpProfile]:
    """Fold columnar events (ordered by timestamp, id) into profiles."""
    profiles: dict[tuple[str, str], IpProfile] = {}
    n = columns.n
    if not n:
        return profiles
    timestamps = columns.timestamps.tolist()
    src_ips = columns.src_ip.decode()
    dbms_values = columns.dbms.decode()
    countries = columns.country.decode()
    as_names = columns.as_name.decode()
    as_types = columns.as_type.decode()
    asns = [None if value != value else int(value)  # NaN-safe
            for value in columns.asn.tolist()]
    institutional = columns.institutional.tolist()
    event_types = columns.event_type.decode()
    actions = columns.action.decode()
    usernames = columns.username.decode()
    passwords = columns.password.decode()
    raws = columns.raw.decode()
    configs = columns.config.decode()
    #: Raw payloads repeat heavily across bots; hash each distinct one
    #: once instead of per malformed event.
    digest_cache: dict[str, str] = {}
    for i in range(n):
        key = (src_ips[i], dbms_values[i])
        profile = profiles.get(key)
        if profile is None:
            profile = IpProfile(
                src_ip=src_ips[i], dbms=dbms_values[i],
                country=countries[i], asn=asns[i],
                as_name=as_names[i], as_type=as_types[i],
                institutional=bool(institutional[i]))
            profiles[key] = profile
        timestamp = timestamps[i]
        if timestamp < profile.first_ts:
            profile.first_ts = timestamp
        if timestamp > profile.last_ts:
            profile.last_ts = timestamp
        profile.days_seen.add(int((timestamp - start_ts) // DAY_SECONDS))
        profile.configs.add(configs[i])
        event_type = event_types[i]
        if event_type == "connect":
            profile.connects += 1
        elif event_type == "login_attempt":
            profile.login_attempts += 1
            username = usernames[i] or ""
            profile.credentials.add((username, passwords[i] or ""))
            # The username is part of the clustering term: brute-force
            # tools differ in the account lists they target, and that
            # is what separates their clusters.
            profile.actions.append(f"LOGIN {username}")
        elif event_type in ("command", "query", "http_request"):
            if actions[i]:
                profile.actions.append(actions[i])
            if raws[i]:
                profile.raws.append(raws[i])
        elif event_type == "malformed":
            profile.malformed += 1
            raw = raws[i] or ""
            if raw:
                profile.raws.append(raw)
            # A coarse content fingerprint keeps different probe
            # families (RDP cookies vs JDWP handshakes vs TLS hellos)
            # in different clustering terms while identical bot
            # payloads still collide.
            digest = digest_cache.get(raw)
            if digest is None:
                digest = hashlib.md5(
                    raw.encode("utf-8", "replace")).hexdigest()[:6]
                digest_cache[raw] = digest
            profile.actions.append(f"MALFORMED {digest}")
    return profiles


def action_sequences(profiles: dict[tuple[str, str], IpProfile],
                     *, dbms: str | None = None,
                     require_actions: bool = True,
                     ) -> dict[str, list[str]]:
    """Per-IP action sequences (the clustering "documents").

    When ``require_actions`` is set, IPs that only connected are
    excluded -- the paper notes that clustering pure scanners is
    uninformative.
    """
    sequences: dict[str, list[str]] = {}
    for (src_ip, profile_dbms), profile in profiles.items():
        if dbms is not None and profile_dbms != dbms:
            continue
        if require_actions and not profile.actions:
            continue
        sequences[src_ip] = list(profile.actions)
    return sequences
