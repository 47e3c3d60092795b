"""Log -> SQLite conversion (Figure 1, step 4).

Cleans and standardizes the honeypot logs into a single queryable SQLite
database.  The paper chose SQLite "for convenience"; the analysis layer
(:mod:`repro.core`) reads exclusively from these databases, never from
the traffic generator -- preserving the paper's separation between data
collection and analysis.

The conversion is streaming: one writer loop (:func:`convert_stream`)
pulls event batches off a queue -- typically fed by a
:class:`~repro.pipeline.sinks.SQLiteWriterSink` -- and consumes them in
chunks of :data:`CHUNK_ROWS`: each chunk is enriched (one shared lookup
cache across chunks), inserted via ``executemany`` in its own retried
transaction, and released, so memory stays bounded by the chunk size
rather than the run size.  :func:`convert_to_sqlite` runs the same loop
over any iterable.  By default the database is opened with
write-oriented pragmas (in-memory journal, ``synchronous=OFF``); the
file is private and rebuilt from scratch, so durability mid-conversion
buys nothing.

Checkpointed runs pass ``durable=True``, which trades the throw-away
pragmas for WAL mode + ``synchronous=NORMAL`` and honors
:class:`CommitRequest` barriers: flush the pending batch, ``COMMIT``,
``PRAGMA wal_checkpoint(TRUNCATE)``, and ``fsync`` the database file,
then report ``(rows_written, chained row digest)`` back to the driver.
The chained digest ``H_i = sha256(H_{i-1} || repr(row_i))`` (computed in
durable mode only) is what ``repro run --resume`` later recomputes over
the on-disk prefix to prove the database really contains exactly the
rows a checkpoint claims.
"""

from __future__ import annotations

import hashlib
import itertools
import os
import random
import sqlite3
import threading
import time
from pathlib import Path
from typing import Callable, Iterable, Iterator

from repro import obs
from repro.netsim.geoip import GeoIPDatabase
from repro.pipeline.enrich import (_FALLBACK, EnrichedEvent, enrich_events,
                                   enrich_iter)
from repro.pipeline.institutional import InstitutionalScannerList
from repro.pipeline.logstore import LogEvent, consolidated_group_name
from repro.resilience import faults
from repro.resilience.retry import sqlite_busy_retry

#: Events enriched + inserted per transaction.
CHUNK_ROWS = 4096

_PRAGMAS = """
PRAGMA journal_mode = MEMORY;
PRAGMA synchronous = OFF;
PRAGMA temp_store = MEMORY;
"""

#: Pragmas for checkpointed runs: WAL survives a crash, NORMAL syncs at
#: every WAL checkpoint -- the commit barrier adds an explicit fsync on
#: top, so a journal checkpoint never claims rows the disk lacks.
_DURABLE_PRAGMAS = """
PRAGMA journal_mode = WAL;
PRAGMA synchronous = NORMAL;
PRAGMA temp_store = MEMORY;
"""

_SCHEMA = """
CREATE TABLE IF NOT EXISTS events (
    id INTEGER PRIMARY KEY,
    timestamp REAL NOT NULL,
    honeypot_id TEXT NOT NULL,
    honeypot_type TEXT NOT NULL,
    dbms TEXT NOT NULL,
    interaction TEXT NOT NULL,
    config TEXT NOT NULL,
    src_ip TEXT NOT NULL,
    src_port INTEGER NOT NULL,
    event_type TEXT NOT NULL,
    action TEXT,
    username TEXT,
    password TEXT,
    raw TEXT,
    country TEXT NOT NULL,
    asn INTEGER,
    as_name TEXT NOT NULL,
    as_type TEXT NOT NULL,
    institutional INTEGER NOT NULL
);
"""

#: Built *after* the bulk insert (a sorted bulk index build is far
#: cheaper than maintaining every index on each ``executemany``): the
#: single-column filter indexes, the composite indexes behind the
#: analysis store's filter pushdown (interaction/dbms slices ordered
#: by time, per-source lookups), plus ``ANALYZE`` so the query planner
#: actually picks them.  Nothing reads these databases mid-conversion
#: -- checkpoint validation scans by rowid -- so the indexes only have
#: to exist once conversion finishes.
_POST_INDEXES = """
CREATE INDEX IF NOT EXISTS idx_events_src_ip ON events (src_ip);
CREATE INDEX IF NOT EXISTS idx_events_type ON events (event_type);
CREATE INDEX IF NOT EXISTS idx_events_dbms ON events (dbms, interaction);
CREATE INDEX IF NOT EXISTS idx_events_pushdown
    ON events (interaction, dbms, timestamp);
CREATE INDEX IF NOT EXISTS idx_events_src_dbms
    ON events (src_ip, dbms);
ANALYZE;
"""

#: Data columns in canonical insert order (``id`` assigned by SQLite;
#: because the schema uses a plain ``INTEGER PRIMARY KEY``, inserts
#: after a tail truncation continue the 1..N sequence contiguously).
_ROW_COLUMNS = ("timestamp, honeypot_id, honeypot_type, dbms, "
                "interaction, config, src_ip, src_port, event_type, "
                "action, username, password, raw, country, asn, "
                "as_name, as_type, institutional")

_INSERT = f"""
INSERT INTO events ({_ROW_COLUMNS})
VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)
"""

#: First link of the chained row digest.  The chain is resumable from
#: any committed link, unlike a raw running ``sha256`` object.
DIGEST_SEED = b"\x00" * 32


def chain_digest(previous: bytes, row: tuple) -> bytes:
    """One link of the row-digest chain: ``sha256(prev || repr(row))``.

    ``repr`` of the insert tuple is stable across store/load because
    every column's Python type round-trips exactly through SQLite
    (floats as REAL, ints as INTEGER, str/None as TEXT/NULL).
    """
    return hashlib.sha256(previous + repr(row).encode("utf-8")).digest()


def prefix_digest(db_path: str | Path, rows: int) -> str | None:
    """Chained digest of the first ``rows`` events (id order), or
    ``None`` if the database is missing or holds fewer rows."""
    db_path = Path(db_path)
    if rows == 0:
        return DIGEST_SEED.hex()
    if not db_path.exists():
        return None
    digest = DIGEST_SEED
    seen = 0
    connection = sqlite3.connect(f"file:{db_path}?mode=ro", uri=True)
    try:
        cursor = connection.execute(
            f"SELECT {_ROW_COLUMNS} FROM events ORDER BY id LIMIT ?",
            (rows,))
        for row in cursor:
            digest = chain_digest(digest, tuple(row))
            seen += 1
    except sqlite3.DatabaseError:
        return None
    finally:
        connection.close()
    return digest.hex() if seen == rows else None


def truncate_events(db_path: str | Path, rows: int) -> int:
    """Durably delete every events row beyond the first ``rows``.

    The idempotent resume step that discards uncommitted tail rows a
    crash may have left behind.  Returns the number of rows removed.
    """
    db_path = Path(db_path)
    if not db_path.exists():
        return 0
    connection = sqlite3.connect(db_path)
    try:
        if connection.execute("SELECT 1 FROM sqlite_master WHERE "
                              "name = 'events'").fetchone() is None:
            # The writer died before committing its schema (it had no
            # committed rows yet): nothing to cut.
            return 0
        (removed,) = connection.execute(
            "SELECT COUNT(*) FROM events WHERE id > ?", (rows,)).fetchone()
        connection.execute("DELETE FROM events WHERE id > ?", (rows,))
        connection.commit()
        connection.execute("PRAGMA wal_checkpoint(TRUNCATE)")
    finally:
        connection.close()
    fd = os.open(db_path, os.O_RDWR)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)
    return removed


class CommitRequest:
    """Barrier token a driver enqueues into a durable conversion.

    The writer flushes everything received before the token, commits,
    WAL-checkpoints, fsyncs, fills in ``rows``/``digest``, and sets
    ``done``.
    """

    def __init__(self) -> None:
        self.done = threading.Event()
        self.rows = 0
        self.digest = ""


def convert_to_sqlite(events: Iterable[LogEvent], db_path: str | Path,
                      geoip: GeoIPDatabase,
                      scanners: InstitutionalScannerList | None = None,
                      *, chunk_rows: int = CHUNK_ROWS) -> Path:
    """Enrich ``events`` and write them to a SQLite database.

    ``events`` is consumed lazily, one :data:`CHUNK_ROWS` batch at a
    time (see module docstring).  An existing database at ``db_path``
    is replaced.  Returns the database path.
    """
    iterator = iter(events)
    end = object()

    def get() -> object:
        return list(itertools.islice(iterator, chunk_rows)) or end

    return convert_stream(get, db_path, geoip, scanners, sentinel=end,
                          chunk_rows=chunk_rows)["path"]


def convert_stream(get: Callable[[], object], db_path: str | Path,
                   geoip: GeoIPDatabase,
                   scanners: InstitutionalScannerList | None = None,
                   *, sentinel: object, durable: bool = False,
                   resume: tuple[int, str] | None = None,
                   chunk_rows: int = CHUNK_ROWS) -> dict:
    """The writer loop: pull items from ``get()`` until ``sentinel``.

    Lists of :class:`LogEvent` are buffered and inserted in
    ``chunk_rows`` batches.  ``durable`` selects the crash-consistent
    mode: WAL pragmas, :class:`CommitRequest` barriers (flush the
    partial batch, COMMIT + ``wal_checkpoint(TRUNCATE)`` + fsync, then
    acknowledge with the post-barrier row count and chain digest), and
    the chained row digest itself.

    ``resume=(rows, digest_hex)`` (durable only) reopens an existing
    database whose committed prefix the caller has already validated
    and truncated; otherwise any existing database is replaced.
    Returns the final state: ``{"path", "rows", "digest"}`` (``digest``
    is ``None`` unless durable).
    """
    telemetry = obs.current()
    db_path = Path(db_path)
    db_path.parent.mkdir(parents=True, exist_ok=True)
    if resume is None:
        for stale in (db_path, db_path.with_name(db_path.name + "-wal"),
                      db_path.with_name(db_path.name + "-shm")):
            stale.unlink(missing_ok=True)
        rows_written, digest = 0, DIGEST_SEED
    else:
        rows_written, digest = resume[0], bytes.fromhex(resume[1])
    connection = sqlite3.connect(db_path)
    enrich_seconds = 0.0
    insert_seconds = 0.0
    barrier_count = 0
    resumed_at = rows_written
    lookup_cache: dict = {}
    scanners = scanners or InstitutionalScannerList()
    retry_rng = random.Random(f"sqlite-retry:{db_path.name}")
    buffer: list[LogEvent] = []

    def write(chunk: list[LogEvent]) -> None:
        nonlocal enrich_seconds, insert_seconds, rows_written, digest
        with telemetry.tracer.span("convert.enrich", db=db_path.name):
            start = time.perf_counter()
            rows = _rows(chunk, geoip, scanners, lookup_cache)
            enrich_seconds += time.perf_counter() - start
        with telemetry.tracer.span("convert.insert", db=db_path.name):
            start = time.perf_counter()

            def insert() -> None:
                # Transient lock (a concurrent writer, or the injected
                # `sqlite.locked` fault) must not abort a whole replay:
                # each chunk is one transaction, rolled back and retried
                # with exponential backoff.  Committing per chunk (cheap
                # under WAL + synchronous=NORMAL -- no fsync until a
                # barrier) means a retry's rollback can only ever
                # discard this chunk, never one the digest chain covers.
                faults.current().maybe_raise(
                    "sqlite.locked",
                    lambda: sqlite3.OperationalError(
                        "database is locked"))
                connection.executemany(_INSERT, rows)
                connection.commit()

            sqlite_busy_retry(insert, reset=connection.rollback,
                              rng=retry_rng, db=db_path.name)
            insert_seconds += time.perf_counter() - start
        if durable:
            for row in rows:
                digest = chain_digest(digest, row)
        rows_written += len(rows)

    def flush() -> None:
        if buffer:
            write(buffer)
            buffer.clear()

    def barrier() -> None:
        nonlocal barrier_count
        start = time.perf_counter()
        connection.commit()
        connection.execute("PRAGMA wal_checkpoint(TRUNCATE)")
        fd = os.open(db_path, os.O_RDWR)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)
        barrier_count += 1
        telemetry.metrics.observe("checkpoint.barrier_seconds",
                                  time.perf_counter() - start,
                                  db=db_path.name)

    try:
        connection.executescript(
            (_DURABLE_PRAGMAS if durable else _PRAGMAS) + _SCHEMA)
        while True:
            item = get()
            if item is sentinel:
                break
            if type(item) is CommitRequest:
                flush()
                barrier()
                item.rows = rows_written
                item.digest = digest.hex()
                item.done.set()
                continue
            buffer.extend(item)
            while len(buffer) >= chunk_rows:
                write(buffer[:chunk_rows])
                del buffer[:chunk_rows]
        flush()
        with telemetry.tracer.span("convert.index", db=db_path.name):
            start = time.perf_counter()
            connection.executescript(_POST_INDEXES)
            telemetry.metrics.observe("convert.index_seconds",
                                      time.perf_counter() - start,
                                      db=db_path.name)
        if durable:
            barrier()
        telemetry.metrics.observe("convert.enrich_seconds",
                                  enrich_seconds, db=db_path.name)
        telemetry.metrics.observe("convert.insert_seconds",
                                  insert_seconds, db=db_path.name)
        telemetry.metrics.inc("convert.rows_written",
                              rows_written - resumed_at, db=db_path.name)
        if durable:
            telemetry.metrics.inc("checkpoint.db_barriers", barrier_count,
                                  db=db_path.name)
    finally:
        connection.close()
    return {"path": db_path, "rows": rows_written,
            "digest": digest.hex() if durable else None}


def _row(enriched: EnrichedEvent) -> tuple:
    event = enriched.event
    return (event.timestamp, event.honeypot_id, event.honeypot_type,
            event.dbms, event.interaction, event.config, event.src_ip,
            event.src_port, event.event_type, event.action, event.username,
            event.password, event.raw, enriched.country, enriched.asn,
            enriched.as_name, enriched.as_type,
            int(enriched.institutional))


def _rows(events: list[LogEvent], geoip: GeoIPDatabase,
          scanners: InstitutionalScannerList, cache: dict) -> list[tuple]:
    """Fused enrich + row build: ``[_row(e) for e in enrich_iter(...)]``
    without the per-event :class:`EnrichedEvent` intermediate.

    Must stay behaviorally identical to that composition: the keyed
    ``enrich.lookup`` fault fires once per cache miss, only successful
    lookups are cached, and failures fall back to :data:`_FALLBACK`
    and count ``resilience.enrich_fallbacks``.
    """
    rows = []
    append = rows.append
    get = cache.get
    for event in events:
        metadata = get(event.src_ip)
        if metadata is None:
            try:
                faults.current().maybe_raise("enrich.lookup",
                                             key=event.src_ip)
                record = geoip.lookup(event.src_ip)
                metadata = (record.country, record.asn, record.as_name,
                            record.as_type.value,
                            scanners.is_institutional(event.src_ip,
                                                      record.asn))
                cache[event.src_ip] = metadata
            except Exception:
                obs.current().metrics.inc("resilience.enrich_fallbacks")
                metadata = _FALLBACK
        country, asn, as_name, as_type, institutional = metadata
        append((event.timestamp, event.honeypot_id, event.honeypot_type,
                event.dbms, event.interaction, event.config, event.src_ip,
                event.src_port, event.event_type, event.action,
                event.username, event.password, event.raw, country, asn,
                as_name, as_type, int(institutional)))
    return rows


def open_database(db_path: str | Path) -> sqlite3.Connection:
    """Open a converted database read-only with row access by name."""
    connection = sqlite3.connect(f"file:{Path(db_path)}?mode=ro", uri=True)
    connection.row_factory = sqlite3.Row
    return connection


def read_events(db_path: str | Path) -> Iterator[sqlite3.Row]:
    """Iterate over all event rows of a converted database."""
    connection = open_database(db_path)
    try:
        yield from connection.execute(
            "SELECT * FROM events ORDER BY timestamp, id")
    finally:
        connection.close()


def count_events(db_path: str | Path) -> int:
    """Total number of event rows in a converted database."""
    connection = open_database(db_path)
    try:
        (count,) = connection.execute(
            "SELECT COUNT(*) FROM events").fetchone()
        return count
    finally:
        connection.close()


def group_counts(db_path: str | Path) -> dict[str, int]:
    """Row counts per ``(interaction, dbms, config)`` group, keyed by
    the consolidated raw-log file name each group maps to (see
    :func:`repro.pipeline.logstore.consolidated_group_name`), so the
    audit can line database rows up against raw-log lines."""
    connection = open_database(db_path)
    try:
        return {
            consolidated_group_name(interaction, dbms, config): count
            for interaction, dbms, config, count in connection.execute(
                "SELECT interaction, dbms, config, COUNT(*) "
                "FROM events GROUP BY interaction, dbms, config")}
    finally:
        connection.close()
