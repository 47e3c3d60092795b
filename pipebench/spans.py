"""Span recording for the traced benchmark run.

The program is not modified: :func:`installed` swaps the public
callables at each layer boundary for timing wrappers for the length of
one traced pass, and puts the originals back afterwards.

A span is a compact tuple ``(name, start_ns, end_ns, parent, tag)``
kept in memory in a per-thread list (the SQLite writer threads record
their own lists).  ``parent`` is the index of the enclosing span in the
same list, or -1 at top level.  ``tag`` carries what the summary needs
without keeping references to program objects: the DBMS of a honeypot
call, the database of a store call, the batch size of a sink call, or
for a replayed visit its ``(ip, seq, bytes_in, bytes_out)``.  All spans
under a visit share that visit's ``ip:seq`` id when written out.
"""

from __future__ import annotations

import functools
import gzip
import math
import threading
import time
from contextlib import contextmanager
from pathlib import Path

_END = object()

#: Report sections rendered by ``repro.cli.report_text`` (looked up in
#: that module's namespace, which is where the wrappers go).
REPORT_SECTIONS = ("hourly_series", "logins_by_country", "credential_stats",
                   "classification_table", "campaign_summary")

#: ``AnalysisStore`` methods -> metric stem.
STORE_CALLS = {"events": "scan", "rows": "rows", "profiles": "profiles",
               "classifications": "classify", "tf": "tf",
               "linkage": "linkage", "sequences": "sequences",
               "cluster_labels": "cluster", "hourly_series": "hourly"}

#: Every DBMS the deployment plan exposes (Table 4).
DBMS = ("elasticsearch", "mongodb", "mssql", "mysql", "postgresql", "redis")


class Recorder:
    """Collects spans from every thread that calls a wrapped function."""

    def __init__(self) -> None:
        #: One span list per thread that recorded a span.
        self.threads: list[list] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    def _state(self) -> tuple[list, list]:
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = ([], [])
            with self._lock:
                self.threads.append(state[0])
        return state

    def wrap(self, fn, name: str, tag=None):
        """``fn`` timed as span ``name``; ``tag(args)`` labels it."""
        clock = time.perf_counter_ns
        state = self._state

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            spans, stack = state()
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                spans[index] = (name, start, clock(), parent,
                                tag(args) if tag is not None else None)
                stack.pop()

        return wrapper

    def stream(self, outcomes):
        """Time each pull of a replay outcome stream as one visit span."""
        clock = time.perf_counter_ns
        while True:
            spans, stack = self._state()
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                outcome = next(outcomes, _END)
            finally:
                end = clock()
                stack.pop()
            if outcome is _END:
                # The last pull waits for the pool to wind down.
                spans[index] = ("replay.drain", start, end, parent, None)
                return
            spans[index] = ("replay.visit", start, end, parent,
                            (outcome.actor_ip, outcome.sequence,
                             outcome.bytes_in, outcome.bytes_out))
            yield outcome

    def count(self) -> int:
        return sum(len(spans) for spans in self.threads)

    def write(self, path: Path) -> Path:
        """Write every span as gzipped TSV: thread, index, parent, name,
        start_ns, end_ns, visit id (``ip:seq`` of the enclosing visit)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1,
                       encoding="utf-8") as handle:
            handle.write("thread\tindex\tparent\tname\tstart_ns\tend_ns"
                         "\tvisit\n")
            for number, spans in enumerate(self.threads):
                visits: list[str] = []
                for index, span in enumerate(spans):
                    if span is None:
                        visits.append("")
                        continue
                    name, start, end, parent, tag = span
                    if name == "replay.visit":
                        visit = f"{tag[0]}:{tag[1]}"
                    else:
                        visit = visits[parent] if parent >= 0 else ""
                    visits.append(visit)
                    handle.write(f"{number}\t{index}\t{parent}\t{name}"
                                 f"\t{start}\t{end}\t{visit}\n")
        return path


class Summary:
    """Self and inclusive time per span name (and per name + tag)."""

    def __init__(self, recorder: Recorder) -> None:
        self.total: dict[str, float] = {}
        self.self_time: dict[tuple, float] = {}
        self.calls: dict[str, int] = {}
        #: Seconds of every ``replay.visit`` span, for the percentiles.
        self.visit_seconds: list[float] = []
        self.tags: dict[str, list] = {}
        for spans in recorder.threads:
            child = [0] * len(spans)
            for span in spans:
                if span is not None and span[3] >= 0:
                    child[span[3]] += span[2] - span[1]
            for index, span in enumerate(spans):
                if span is None:
                    continue
                name, start, end, _, tag = span
                seconds = (end - start) / 1e9
                self.total[name] = self.total.get(name, 0.0) + seconds
                self.calls[name] = self.calls.get(name, 0) + 1
                key = (name, tag if isinstance(tag, str) else None)
                self.self_time[key] = (self.self_time.get(key, 0.0)
                                       + seconds - child[index] / 1e9)
                if name == "replay.visit":
                    self.visit_seconds.append(seconds)
                if tag is not None and not isinstance(tag, str):
                    self.tags.setdefault(name, []).append(tag)

    def self_s(self, name: str, tag: str | None = None) -> float:
        """Self time of ``name`` (for one tag, or summed over tags)."""
        if tag is not None:
            return self.self_time.get((name, tag), 0.0)
        return sum(seconds for (span, _), seconds in self.self_time.items()
                   if span == name)


def percentile_us(values: list[float], share: float) -> float:
    """Nearest-rank percentile of ``values`` (seconds) in microseconds."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(0, math.ceil(share * len(ordered)) - 1)
    return ordered[rank] * 1e6


def _dbms(args) -> str:
    return args[0].honeypot.dbms


def _db(args) -> str:
    return Path(args[0].db_path).stem


def _batch(args) -> int:
    return len(args[1])


@contextmanager
def installed(recorder: Recorder, *, honeypots: bool = True):
    """Wrap every layer boundary for the duration of the block.

    ``honeypots=False`` leaves the honeypot wire unwrapped: in a forked
    pool it runs inside the workers, where a wrapper's spans are lost.
    """
    import repro.cli as cli
    import repro.deployment.experiment as experiment
    from repro.core.store import AnalysisStore
    from repro.deployment.checkpoint import Checkpointer
    from repro.honeypots.base import MemoryWire
    from repro.netsim.geoip import GeoIPDatabase
    from repro.pipeline.sinks import SQLiteWriterSink, TeeSink

    patches: list[tuple[object, str, object]] = []

    def patch(owner, attr: str, name: str, tag=None):
        original = getattr(owner, attr)
        patches.append((owner, attr, original))
        setattr(owner, attr, recorder.wrap(original, name, tag))

    patch(experiment, "build_plan", "plan.build")
    patch(experiment, "build_world", "population.build")
    patch(experiment, "compile_visits", "replay.compile")
    build_engine = experiment.build_engine

    def traced_engine(*args, **kwargs):
        engine = build_engine(*args, **kwargs)
        replay = engine.replay
        engine.replay = lambda *a, **k: recorder.stream(replay(*a, **k))
        return engine

    patches.append((experiment, "build_engine", build_engine))
    experiment.build_engine = traced_engine
    if honeypots:
        for method in ("connect", "send", "close"):
            patch(MemoryWire, method, f"honeypot.{method}", _dbms)
    patch(TeeSink, "many", "sinks.many", _batch)
    patch(SQLiteWriterSink, "close", "convert.close")
    patch(GeoIPDatabase, "lookup", "enrich.lookup")
    patch(Checkpointer, "maybe_checkpoint", "checkpoint.maybe")
    for method in STORE_CALLS:
        patch(AnalysisStore, method, f"store.{method}", _db)
    for section in REPORT_SECTIONS:
        patch(cli, section, f"reports.{section}")
    try:
        yield recorder
    finally:
        for owner, attr, original in reversed(patches):
            setattr(owner, attr, original)


def collect_layers(s: Summary, *, sharded: bool,
                   shards: list[dict], events: int) -> dict[str, float]:
    """Per-layer metrics of one traced ``run_experiment`` call.

    ``shards`` is the manifest's per-shard list (sharded runs) and
    ``events`` the events stored.  Layers that ran out of the main process's
    sight (the honeypots and agents of a forked pool) or did not run at
    all read 0.
    """
    out: dict[str, float] = {}
    visits = s.visit_seconds
    out["plan.build_s"] = s.total.get("plan.build", 0.0)
    out["population.build_s"] = s.total.get("population.build", 0.0)
    out["replay.compile_s"] = s.total.get("replay.compile", 0.0)
    out["replay.visits"] = len(visits)
    pulls = s.total.get("replay.visit", 0.0) + s.total.get("replay.drain",
                                                           0.0)
    if sharded and shards:
        walls = [shard["wall_seconds"] for shard in shards]
        out["replay.visit_s"] = sum(walls)
        out["replay.shards"] = len(shards)
        out["replay.shard_wall_max_s"] = max(walls)
        out["replay.shard_wall_min_s"] = min(walls)
        out["replay.shard_visits_max"] = max(x["visits"] for x in shards)
        out["replay.shard_visits_min"] = min(x["visits"] for x in shards)
        out["replay.shard_events_max"] = max(x["events"] for x in shards)
        out["replay.shard_events_min"] = min(x["events"] for x in shards)
    else:
        # Serial: the main process is the one shard and a pull is a visit.
        out["replay.visit_s"] = pulls
        out["replay.shards"] = 1 if visits else 0
        out["replay.shard_wall_max_s"] = pulls
        out["replay.shard_wall_min_s"] = pulls
        out["replay.shard_visits_max"] = len(visits)
        out["replay.shard_visits_min"] = len(visits)
        out["replay.shard_events_max"] = events
        out["replay.shard_events_min"] = events
    out["replay.wait_s"] = pulls
    out["replay.visit_p50_us"] = percentile_us(visits, 0.50)
    out["replay.visit_p999_us"] = percentile_us(visits, 0.999)

    out["honeypots.busy_s"] = sum(s.self_s(f"honeypot.{m}")
                                  for m in ("connect", "send", "close"))
    for dbms in DBMS:
        out[f"honeypots.busy_s.{dbms}"] = sum(
            s.self_s(f"honeypot.{m}", dbms)
            for m in ("connect", "send", "close"))
    out["honeypots.sessions"] = s.calls.get("honeypot.connect", 0)
    out["honeypots.sends"] = s.calls.get("honeypot.send", 0)
    tags = s.tags.get("replay.visit", [])
    out["honeypots.bytes_in"] = sum(tag[2] for tag in tags)
    out["honeypots.bytes_out"] = sum(tag[3] for tag in tags)
    out["agents.busy_s"] = 0.0 if sharded else s.self_s("replay.visit")

    out["sinks.many_s"] = s.total.get("sinks.many", 0.0)
    out["sinks.batches"] = s.calls.get("sinks.many", 0)
    out["sinks.events"] = sum(s.tags.get("sinks.many", []))
    out["convert.close_wait_s"] = s.total.get("convert.close", 0.0)
    out["enrich.lookups"] = s.calls.get("enrich.lookup", 0)
    out["checkpoint.busy_s"] = s.total.get("checkpoint.maybe", 0.0)
    return out


def report_layers(cold: Summary, warm: Summary) -> dict[str, float]:
    """Per-layer metrics of one traced cold + warm report pair.

    Store and section times are self times from the cold pass (nested
    store calls are charged to the callee); ``store.cache_load_s`` is
    the inclusive time of top-level store calls in the warm pass.
    """
    out: dict[str, float] = {}
    for db in ("low", "midhigh"):
        out[f"store.scan_s.{db}"] = cold.self_s("store.events", db)
    for method, stem in STORE_CALLS.items():
        if method != "events":
            out[f"store.{stem}_s"] = cold.self_s(f"store.{method}")
    for section in REPORT_SECTIONS:
        out[f"reports.{section}_s"] = cold.self_s(f"reports.{section}")
    out["store.cache_load_s"] = sum(
        seconds for (name, _), seconds in warm.self_time.items()
        if name.startswith("store."))
    return out
