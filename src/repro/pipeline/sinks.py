"""Composable event sinks: the streaming half of the pipeline.

The paper's pipeline (Figure 1) is collection -> raw logs -> SQLite.
The sinks here let events flow through the whole pipeline *once*,
without a fully-buffered pass per stage: a sink is any callable
``sink(event) -> None`` (the :data:`~repro.pipeline.logstore.EventSink`
contract honeypot sessions already emit into), optionally with a
``close()`` finalizer, and sinks compose::

    TeeSink(
        CountingSink(),                      # manifest breakdowns
        TierSplitSink(                       # low vs medium/high
            SQLiteWriterSink("low.sqlite", ...),     # own writer thread
            SQLiteWriterSink("midhigh.sqlite", ...), # own writer thread
        ),
        RawLogSink("raw-logs/"),             # consolidated JSONL
    )

:class:`SQLiteWriterSink` hands its events, in batches, to a dedicated
writer thread running :func:`~repro.pipeline.convert.convert_stream`,
so the low and medium/high conversions proceed concurrently while the
replay engine is still producing events.

Checkpointed runs construct the writer sinks with ``durable=True``:
the same writer loop then runs in its crash-consistent mode, and the
driver's :meth:`SQLiteWriterSink.commit` barrier blocks until every
event handed to the sink so far is fsync-durable on disk, returning
the committed ``(rows, digest)`` state recorded in the run journal.
``resume=(rows, digest_hex)`` re-opens a validated database instead of
replacing it.
"""

from __future__ import annotations

import contextvars
import os
import queue
import threading
from collections import Counter
from pathlib import Path
from typing import Iterator, Protocol, runtime_checkable

from repro import obs
from repro.pipeline.logstore import LogEvent, consolidated_group_name

__all__ = [
    "BufferSink", "CountingSink", "EventSinkProtocol", "RawLogSink",
    "SQLiteWriterSink", "TeeSink", "TierSplitSink", "close_sink",
]


@runtime_checkable
class EventSinkProtocol(Protocol):
    """Structural type of a sink: a callable consuming one event."""

    def __call__(self, event: LogEvent) -> None: ...


def close_sink(sink: object) -> object:
    """Call ``sink.close()`` if the sink has one; returns its result."""
    close = getattr(sink, "close", None)
    return close() if callable(close) else None


def _feed(sink: EventSinkProtocol, events: list[LogEvent]) -> None:
    """Hand a batch to ``sink``: one ``many`` call where the sink has
    one (one dispatch per batch instead of per event), else per event."""
    batched = getattr(sink, "many", None)
    if batched is not None:
        batched(events)
    else:
        for event in events:
            sink(event)


class TeeSink:
    """Fans every event out to each child sink, in order."""

    def __init__(self, *sinks: EventSinkProtocol):
        self.sinks = sinks

    def __call__(self, event: LogEvent) -> None:
        for sink in self.sinks:
            sink(event)

    def many(self, events: list[LogEvent]) -> None:
        """Fan a pre-collected batch out to each child, in order."""
        for sink in self.sinks:
            _feed(sink, events)

    def close(self) -> None:
        for sink in self.sinks:
            close_sink(sink)


class TierSplitSink:
    """Routes events to a low-tier or medium/high-tier sink by the
    event's interaction level, counting each side."""

    def __init__(self, low: EventSinkProtocol, midhigh: EventSinkProtocol):
        self.low = low
        self.midhigh = midhigh
        self.low_count = 0
        self.midhigh_count = 0

    def __call__(self, event: LogEvent) -> None:
        if event.interaction == "low":
            self.low_count += 1
            self.low(event)
        else:
            self.midhigh_count += 1
            self.midhigh(event)

    def many(self, events: list[LogEvent]) -> None:
        """Route a batch, preserving per-tier event order."""
        low = [event for event in events if event.interaction == "low"]
        if len(low) == len(events):
            midhigh: list[LogEvent] = []
        elif low:
            midhigh = [event for event in events
                       if event.interaction != "low"]
        else:
            midhigh = events
        if low:
            self.low_count += len(low)
            _feed(self.low, low)
        if midhigh:
            self.midhigh_count += len(midhigh)
            _feed(self.midhigh, midhigh)

    def close(self) -> None:
        # Close both sides even when one fails, so a low-tier writer
        # error cannot leave the midhigh writer thread dangling.
        try:
            close_sink(self.low)
        finally:
            close_sink(self.midhigh)


class CountingSink:
    """Tallies the manifest breakdowns (type/DBMS/interaction/honeypot)
    in the same single pass that feeds the writers."""

    def __init__(self) -> None:
        self.total = 0
        self.counts: dict[str, Counter] = {
            "event_type": Counter(), "dbms": Counter(),
            "interaction": Counter(), "honeypot_id": Counter()}

    def __call__(self, event: LogEvent) -> None:
        self.total += 1
        self.counts["event_type"][event.event_type] += 1
        self.counts["dbms"][event.dbms] += 1
        self.counts["interaction"][event.interaction] += 1
        self.counts["honeypot_id"][event.honeypot_id] += 1

    def many(self, events: list[LogEvent]) -> None:
        """Tally a batch via ``Counter.update`` (C-level counting)."""
        self.total += len(events)
        counts = self.counts
        counts["event_type"].update(
            event.event_type for event in events)
        counts["dbms"].update(event.dbms for event in events)
        counts["interaction"].update(
            event.interaction for event in events)
        counts["honeypot_id"].update(
            event.honeypot_id for event in events)

    def snapshot(self) -> dict:
        """JSON-serializable state for a run-journal checkpoint."""
        return {"total": self.total,
                "counts": {category: dict(counter)
                           for category, counter in self.counts.items()}}

    def restore(self, state: dict) -> None:
        """Restore counts recorded by :meth:`snapshot` (resume path)."""
        self.total = int(state.get("total", 0))
        for category, values in (state.get("counts") or {}).items():
            if category in self.counts:
                self.counts[category] = Counter(
                    {key: int(count) for key, count in values.items()})


class BufferSink:
    """Collects events into a list: the one in-memory collector.

    The dataset export needs a full pass, and ``repro serve``, the
    examples and the tests read the capture back from :attr:`events`.
    """

    def __init__(self) -> None:
        self.events: list[LogEvent] = []

    def __call__(self, event: LogEvent) -> None:
        self.events.append(event)

    def many(self, events: list[LogEvent]) -> None:
        self.events.extend(events)

    def __iter__(self) -> Iterator[LogEvent]:
        return iter(self.events)

    def __len__(self) -> int:
        return len(self.events)


class RawLogSink:
    """Streams consolidated JSONL raw logs (Figure 1, step 2).

    Writes one file per ``(interaction, dbms, config)`` group, named
    by :func:`~repro.pipeline.logstore.consolidated_group_name`, with
    one :meth:`~repro.pipeline.logstore.LogEvent.to_json` line per
    event in arrival order.  Each group's file handle opens on the
    group's first event and every event is appended as it arrives.

    For checkpointed runs, :meth:`commit` fsyncs every open group file
    and reports committed byte offsets; ``resume={name: bytes}``
    reopens the (already truncated) group files in append mode and
    keeps their recorded offsets alive across later checkpoints even
    if a group sees no further events.
    """

    def __init__(self, directory: str | Path, *,
                 resume: dict[str, int] | None = None):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self._handles: dict[str, object] = {}
        self._committed: dict[str, int] = dict(resume or {})
        self._append = resume is not None

    def __call__(self, event: LogEvent) -> None:
        name = consolidated_group_name(event.interaction, event.dbms,
                                       event.config)
        handle = self._handles.get(name)
        if handle is None:
            handle = self._handles[name] = open(
                self.directory / name, "a" if self._append else "w",
                encoding="utf-8")
        handle.write(event.to_json() + "\n")

    def commit(self) -> dict[str, int]:
        """Flush + fsync every group file; returns ``{name: bytes}``."""
        for name, handle in self._handles.items():
            handle.flush()
            os.fsync(handle.fileno())
            self._committed[name] = (self.directory / name).stat().st_size
        return dict(self._committed)

    def close(self) -> list[Path]:
        """Close every group file; returns the paths written, sorted."""
        for handle in self._handles.values():
            handle.close()
        names = set(self._handles) | set(self._committed)
        paths = sorted(self.directory / name for name in names)
        self._handles = {}
        return paths


class SQLiteWriterSink:
    """Streams events into a SQLite conversion on a dedicated thread.

    The writer thread (started lazily on the first event, so a sharded
    driver can still fork cleanly before any event flows) drains an
    unbounded queue of event batches, commit tokens and the
    end-of-stream sentinel through
    :func:`~repro.pipeline.convert.convert_stream`; :meth:`close`
    sends the end-of-stream sentinel, joins the thread, and re-raises
    any conversion failure in the caller.  Two writer sinks -- one per
    tier -- is what lets both database conversions run concurrently
    with each other and with the replay itself.
    """

    _SENTINEL = object()
    #: Events accumulated driver-side before one queue hand-off.  The
    #: replay loop and the writer threads share the GIL; batching turns
    #: ~160k per-event ``put``/``get`` wakeups per run into a few
    #: hundred, without changing event order or durability semantics
    #: (commit barriers and close flush the partial batch first).
    BATCH = 512

    def __init__(self, db_path: str | Path, geoip, scanners=None, *,
                 durable: bool = False,
                 resume: tuple[int, str] | None = None):
        if resume is not None and not durable:
            raise ValueError("resume requires a durable writer sink")
        self.db_path = Path(db_path)
        self._geoip = geoip
        self._scanners = scanners
        self._durable = durable
        self._resume = resume
        self._queue: queue.SimpleQueue = queue.SimpleQueue()
        self._pending: list[LogEvent] = []
        self._thread: threading.Thread | None = None
        self._error: BaseException | None = None
        self.path: Path | None = None
        #: Final ``(rows, digest)`` state after a durable close.
        self.committed_state: dict | None = None

    def _ensure_thread(self) -> None:
        if self._thread is not None:
            return
        # Run the writer inside a copy of the caller's context so
        # correlation fields (run_id, shard) bound at submission
        # time follow the records the writer thread logs.
        context = contextvars.copy_context()
        self._thread = threading.Thread(
            target=lambda: context.run(self._run),
            name=f"sqlite-writer-{self.db_path.name}",
            daemon=True)
        self._thread.start()
        obs.current().logger.info("sink.writer_start",
                                  db=self.db_path.name,
                                  durable=self._durable)

    def _check_alive(self) -> None:
        # Fail fast: keeping the replay running while the writer is
        # dead would silently drop every subsequent event.
        if self._error is not None:
            raise RuntimeError(
                f"sqlite writer for {self.db_path.name} already "
                f"failed") from self._error

    def __call__(self, event: LogEvent) -> None:
        self.many([event])

    def many(self, events: list[LogEvent]) -> None:
        """Accept a batch, handed to the writer thread every
        :attr:`BATCH` events."""
        self._check_alive()
        self._ensure_thread()
        pending = self._pending
        pending.extend(events)
        if len(pending) >= self.BATCH:
            self._queue.put(pending)
            self._pending = []

    def _flush_pending(self) -> None:
        """Hand the partial batch to the writer thread."""
        if self._pending:
            self._queue.put(self._pending)
            self._pending = []

    def _run(self) -> None:
        from repro.pipeline.convert import convert_stream

        try:
            state = convert_stream(
                self._queue.get, self.db_path, self._geoip,
                self._scanners, sentinel=self._SENTINEL,
                durable=self._durable, resume=self._resume)
            if self._durable:
                self.committed_state = {"rows": state["rows"],
                                        "digest": state["digest"]}
            self.path = state["path"]
        except BaseException as error:  # re-raised by close()/commit()
            self._error = error

    def commit(self, timeout: float | None = None) -> dict:
        """Durability barrier: block until every event handed to this
        sink so far is committed, WAL-checkpointed, and fsynced.

        Returns the committed ``{"rows": int, "digest": hex}`` state
        for the run-journal checkpoint.  Only durable sinks support
        commit; a sink that has seen no events reports its resume
        state (or the empty state) without touching the disk.
        """
        from repro.pipeline.convert import CommitRequest, DIGEST_SEED

        if not self._durable:
            raise RuntimeError("commit() requires durable=True")
        self._check_alive()
        if self._thread is None:
            rows, digest = self._resume or (0, DIGEST_SEED.hex())
            return {"rows": rows, "digest": digest}
        self._flush_pending()
        token = CommitRequest()
        self._queue.put(token)
        waited = 0.0
        while not token.done.wait(0.1):
            waited += 0.1
            if self._error is not None or not self._thread.is_alive():
                if self._error is not None:
                    raise RuntimeError(
                        f"sqlite writer for {self.db_path.name} failed "
                        f"during commit") from self._error
                raise RuntimeError(
                    f"sqlite writer for {self.db_path.name} exited "
                    f"before acknowledging commit")
            if timeout is not None and waited >= timeout:
                raise TimeoutError(
                    f"commit barrier on {self.db_path.name} timed out "
                    f"after {timeout:.1f}s")
        return {"rows": token.rows, "digest": token.digest}

    def close(self) -> Path:
        """Finish the conversion; returns the database path (idempotent).

        Any exception raised on the writer thread -- at any point, not
        just during the final drain -- is re-raised here.
        """
        if self._error is not None:
            raise self._error
        if self.path is not None and self._thread is None:
            return self.path
        # With no events so far, the writer still runs: it produces the
        # (empty) database, or a resume's post-indexes and final barrier.
        self._ensure_thread()
        self._flush_pending()
        self._queue.put(self._SENTINEL)
        self._thread.join()
        self._thread = None
        if self._error is not None:
            obs.current().logger.error(
                "sink.writer_failed", db=self.db_path.name,
                error=f"{type(self._error).__name__}: {self._error}")
            raise self._error
        assert self.path is not None
        obs.current().logger.info("sink.writer_done",
                                  db=self.db_path.name)
        return self.path

    def abort(self) -> None:
        """Best-effort shutdown after a driver-side failure: stop the
        writer thread without raising, leaving whatever the database
        has durably committed for a later ``--resume`` to validate."""
        thread = self._thread
        self._thread = None
        if thread is None or not thread.is_alive():
            return
        self._flush_pending()
        self._queue.put(self._SENTINEL)
        thread.join(timeout=30.0)
