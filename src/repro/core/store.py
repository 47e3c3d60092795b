"""Columnar analysis store with content-keyed caching.

Every headline result of the paper (Tables 5-12, Figures 2-9, the
Section 6 cluster review) is a derived view over one converted SQLite
``events`` table.  Before this module existed, each of the ~30 report
and figure builders independently re-scanned that table and rebuilt
Python :class:`~repro.core.loading.IpProfile` objects from scratch.
The :class:`AnalysisStore` replaces that with a three-level pipeline:

1. **Projected scans.**  A caller names the ``events`` columns it
   reads (:data:`~repro.core.temporal.SERIES_COLUMNS` for the hourly
   series, :data:`~repro.core.loading.PROFILE_COLUMNS` for profiles)
   and gets a compact columnar form (:class:`ColumnarEvents`) holding
   just those: dictionary-encoded string columns plus numpy arrays for
   timestamps and numeric fields.  Per filter (``interaction=...`` /
   ``dbms=...``) the store keeps one resident load in memory and
   fetches each missing column at most once, in one query that pushes
   the filters down into SQL ``WHERE`` clauses on the converter's
   indexes.  Rows come back in ``id`` (rowid) order and are put in
   ``(timestamp, id)`` order by a stable argsort of the timestamps, so
   SQLite never sorts.  A wider load already in memory serves any
   narrower request; a resident unfiltered load serves filtered
   slices by boolean mask.

2. **Derived-artifact caching.**  Expensive derived artifacts --
   profile maps, TF matrices (:mod:`repro.core.tf`), linkage matrices
   (:mod:`repro.core.clustering`) -- are memoized in memory and
   persisted to disk, keyed by a SHA-256 **content digest** of the
   database file plus the query/clustering parameters.  Columnar
   loads are keyed by filter *and* projection, so a warm pass reads
   back only the columns it asks for.  A modified database yields a
   different digest, so stale artifacts are never served; they are
   simply ignored on disk (and unreadable/corrupt cache files are
   treated as misses, never errors).

3. **Observability.**  Cache hits/misses, stale reads, scan time, the
   cells each scan fetched (rows x columns), and per-kind build times
   are reported through :mod:`repro.obs` under the
   ``analysis.*`` metrics family, and mirrored into the store's local
   :attr:`AnalysisStore.stats` dict for callers without a telemetry
   bundle installed.

The cache lives in ``<database>.cache/`` next to the database by
default; ``REPRO_ANALYSIS_CACHE_DIR`` relocates it and
``REPRO_ANALYSIS_CACHE=0`` (or ``repro report --no-cache``) disables
persistence entirely.
"""

from __future__ import annotations

import hashlib
import itertools
import os
import pickle
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator

import numpy as np

from repro import obs
from repro.core.classification import Classification, classify_ips
from repro.core.clustering import AgglomerativeClustering
from repro.core.loading import (PROFILE_COLUMNS, IpProfile,
                                action_sequences, build_profiles)
from repro.core.tf import TfVectorizer
from repro.pipeline.convert import open_database

__all__ = [
    "AnalysisStore", "ColumnarEvents", "StringColumn", "TfArtifact",
    "CACHE_DIR_ENV", "CACHE_TOGGLE_ENV", "SCAN_COLUMNS", "borrow_store",
]

#: Relocates the on-disk cache (a directory; one subdir per database).
CACHE_DIR_ENV = "REPRO_ANALYSIS_CACHE_DIR"
#: Set to ``0`` / ``off`` / ``false`` / ``no`` to disable persistence.
CACHE_TOGGLE_ENV = "REPRO_ANALYSIS_CACHE"

#: Bump when the columnar layout or artifact formats change; old cache
#: files then simply stop matching and are ignored.
_CACHE_VERSION = 2

#: Every ``events`` column the store can load, in canonical order.
SCAN_COLUMNS = (
    "timestamp", "src_ip", "dbms", "interaction", "config", "country",
    "asn", "as_name", "as_type", "institutional", "event_type",
    "action", "username", "password", "raw",
)
#: Numeric columns and their array dtype (``asn`` NULL decodes to NaN);
#: every other column is a dictionary-encoded :class:`StringColumn`.
_NUMERIC = {"timestamp": np.float64, "asn": np.float64,
            "institutional": bool}


def _projection(columns) -> tuple[str, ...]:
    """``columns`` as a canonical, duplicate-free tuple."""
    wanted = set(columns)
    unknown = wanted.difference(SCAN_COLUMNS)
    if unknown:
        raise ValueError(f"unknown events column(s): {sorted(unknown)}")
    return tuple(name for name in SCAN_COLUMNS if name in wanted)


@dataclass(frozen=True)
class StringColumn:
    """A dictionary-encoded string column.

    ``codes[i]`` indexes into ``pool``; ``-1`` encodes SQL ``NULL``.
    Pool strings are interned, so equal values share one object across
    columns and across cache reloads.
    """

    codes: np.ndarray
    pool: tuple[str, ...]

    def __len__(self) -> int:
        return len(self.codes)

    def decode(self) -> list[str | None]:
        """Materialize the column as a list of Python strings."""
        pool = self.pool
        return [pool[code] if code >= 0 else None
                for code in self.codes.tolist()]

    def take(self, indices: np.ndarray) -> "StringColumn":
        """Row subset sharing this column's pool."""
        return StringColumn(self.codes[indices], self.pool)

    def eq_mask(self, value: str) -> np.ndarray:
        """Boolean mask of rows equal to ``value``."""
        try:
            code = self.pool.index(value)
        except ValueError:
            return np.zeros(len(self.codes), dtype=bool)
        return self.codes == code

    def unique_values(self) -> list[str]:
        """Distinct non-NULL values present (pool order)."""
        present = np.unique(self.codes)
        return [self.pool[code] for code in present.tolist() if code >= 0]


def _encode(values) -> StringColumn:
    """Dictionary-encode a sequence of strings and ``None``s.

    The code map is a ``defaultdict`` fed by a C-level counter, so the
    per-cell work never enters the interpreter; ``None`` gets a code
    like any value and is then remapped to ``-1`` in one vectorised
    pass.
    """
    index = defaultdict(itertools.count().__next__)
    codes = np.fromiter(map(index.__getitem__, values), dtype=np.int32,
                        count=len(values))
    pool = list(index)
    null = index.get(None)
    if null is not None:
        del pool[null]
        codes = np.where(codes == null, np.int32(-1),
                         codes - (codes > null).astype(np.int32))
    return StringColumn(codes, tuple(map(sys.intern, pool)))


def _decode_column(name: str, values) -> "np.ndarray | StringColumn":
    dtype = _NUMERIC.get(name)
    if dtype is None:
        return _encode(values)
    return np.array(values, dtype=dtype)


def _take(column, indices: np.ndarray):
    if isinstance(column, StringColumn):
        return column.take(indices)
    return column[indices]


class ColumnarEvents:
    """The events table (or a slice) in columnar form.

    Rows are ordered by ``(timestamp, id)``.  Only the columns of the
    requested projection are present; each is an attribute named after
    its SQL column (``timestamps`` for ``timestamp``), and reading one
    outside the projection raises :class:`AttributeError`.
    """

    __slots__ = ("n", "_columns")

    def __init__(self, n: int, columns: dict):
        self.n = n
        self._columns = columns

    def __reduce__(self):
        return (ColumnarEvents, (self.n, self._columns))

    def __getattr__(self, name: str):
        if name.startswith("_"):
            raise AttributeError(name)
        key = "timestamp" if name == "timestamps" else name
        try:
            return self._columns[key]
        except KeyError:
            raise AttributeError(
                f"column {key!r} is not in this projection "
                f"{tuple(self._columns)}") from None

    @property
    def columns(self) -> tuple[str, ...]:
        """The loaded columns, in canonical order."""
        return _projection(self._columns)

    def __contains__(self, name: str) -> bool:
        return name in self._columns

    def covers(self, names) -> bool:
        """Whether every column in ``names`` is loaded."""
        return all(name in self._columns for name in names)

    def project(self, names) -> "ColumnarEvents":
        """The same rows restricted to ``names`` (no copy)."""
        return ColumnarEvents(
            self.n, {name: self._columns[name] for name in names})

    def merged(self, other: "ColumnarEvents") -> "ColumnarEvents":
        """These columns plus ``other``'s (same rows, same order)."""
        return ColumnarEvents(self.n, {**other._columns, **self._columns})

    def select(self, mask: np.ndarray) -> "ColumnarEvents":
        """Row subset by boolean mask (order preserved)."""
        indices = np.flatnonzero(mask)
        return ColumnarEvents(
            len(indices), {name: _take(column, indices)
                           for name, column in self._columns.items()})

    def filter(self, *, interaction: str | None = None,
               dbms: str | None = None) -> "ColumnarEvents":
        """Filtered view; no-op when both filters are ``None``."""
        if interaction is None and dbms is None:
            return self
        mask = np.ones(self.n, dtype=bool)
        if interaction is not None:
            mask &= self.interaction.eq_mask(interaction)
        if dbms is not None:
            mask &= self.dbms.eq_mask(dbms)
        return self.select(mask)


@dataclass(frozen=True)
class TfArtifact:
    """A fitted TF featurization of one DBMS's action sequences."""

    ips: tuple[str, ...]
    vocabulary: dict[str, int]
    matrix: np.ndarray


def _filters(interaction: str | None,
             dbms: str | None) -> dict[str, str]:
    """The column -> value equalities a filter applies."""
    return {column: value for column, value in (("interaction", interaction),
                                                ("dbms", dbms))
            if value is not None}


def _where(interaction: str | None,
           dbms: str | None) -> tuple[str, list[str]]:
    """The SQL ``WHERE`` clause (and its parameters) of a filter."""
    filters = _filters(interaction, dbms)
    if not filters:
        return "", []
    return (" WHERE " + " AND ".join(f"{column} = ?" for column in filters),
            list(filters.values()))


def _scan_columnar(connection, names: tuple[str, ...], *,
                   interaction: str | None, dbms: str | None,
                   order: np.ndarray | None = None,
                   ) -> tuple[ColumnarEvents, np.ndarray]:
    """One projected scan of ``events`` with WHERE pushdown.

    Rows are fetched in ``id`` (rowid) order, which needs no sort, and
    then put in ``(timestamp, id)`` order by a stable argsort of their
    timestamps.  ``order`` is that permutation from an earlier scan of
    the same filter; without it, ``timestamp`` is fetched too.  Returns
    the decoded columns and the permutation.
    """
    fetch = list(names)
    if order is None and "timestamp" not in fetch:
        fetch.append("timestamp")
    where, params = _where(interaction, dbms)
    cursor = connection.cursor()
    cursor.row_factory = None  # plain tuples: fastest fetch path
    rows = cursor.execute(
        f"SELECT {', '.join(fetch)} FROM events{where} ORDER BY id",
        params).fetchall()
    n = len(rows)
    values = list(zip(*rows)) if rows else [()] * len(fetch)
    del rows
    columns = {}
    for name in fetch:
        # Release each column's Python objects as soon as it is encoded.
        columns[name] = _decode_column(name, values.pop(0))
    if order is None:
        order = np.argsort(columns["timestamp"], kind="stable")
    elif len(order) != n:
        raise RuntimeError("events changed between scans of one store")
    return ColumnarEvents(n, {name: _take(column, order)
                              for name, column in columns.items()}), order


def _cache_disabled_by_env() -> bool:
    return os.environ.get(CACHE_TOGGLE_ENV, "").strip().lower() in (
        "0", "off", "false", "no")


class AnalysisStore:
    """One converted database, loaded once, derived views cached.

    Parameters
    ----------
    db_path:
        A converted SQLite database (:mod:`repro.pipeline.convert`).
    cache_dir:
        Where derived artifacts persist; defaults to
        ``<db_path>.cache/`` (or under :data:`CACHE_DIR_ENV`).
    use_cache:
        When false, nothing is read from or written to disk; the store
        still memoizes in memory for its own lifetime.
    """

    def __init__(self, db_path: str | Path, *,
                 cache_dir: str | Path | None = None,
                 use_cache: bool = True):
        self.db_path = Path(db_path)
        self.use_cache = use_cache and not _cache_disabled_by_env()
        if cache_dir is None:
            base = os.environ.get(CACHE_DIR_ENV)
            if base:
                cache_dir = Path(base) / f"{self.db_path.name}.cache"
            else:
                cache_dir = self.db_path.with_name(
                    f"{self.db_path.name}.cache")
        self.cache_dir = Path(cache_dir)
        self._digest: str | None = None
        #: ``(st_mtime_ns, st_size)`` of the file the current digest /
        #: memo belong to; compared on every access so a long-lived
        #: store notices the database changing underneath it.
        self._digest_stat: tuple[int, int] | None = None
        self._memory: dict = {}
        self._connection = None
        #: Local mirror of the ``analysis.*`` metrics, for callers
        #: without an installed telemetry bundle (and the benchmarks).
        self.stats: dict = {"hits": 0, "misses": 0, "stale": 0,
                            "scans": 0, "scan_cells": 0,
                            "scan_seconds": 0.0,
                            "build_seconds": {}}

    # -- plumbing ---------------------------------------------------------

    @classmethod
    def of(cls, source: "AnalysisStore | str | Path",
           **kwargs) -> "AnalysisStore":
        """Coerce a store-or-path into a store."""
        if isinstance(source, cls):
            return source
        return cls(source, **kwargs)

    def close(self) -> None:
        """Close the shared read-only connection (a later query reopens)."""
        if self._connection is not None:
            self._connection.close()
            self._connection = None

    def __enter__(self) -> "AnalysisStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    @property
    def connection(self):
        """The shared read-only connection (opened lazily)."""
        if self._connection is None:
            self._connection = open_database(self.db_path)
        return self._connection

    def query(self, sql: str, params=()):  # -> sqlite3.Cursor
        """Run an ad-hoc SQL query on the shared connection."""
        return self.connection.execute(sql, params)

    def rows(self, sql: str, params=()) -> list[tuple]:
        """Run an aggregate query, caching its rows by content digest.

        The workhorse of the SQL-backed table builders: the result set
        (a list of plain tuples) is keyed by the database digest plus
        the statement and its parameters, so a warm report suite never
        touches the events table at all -- not even for ``GROUP BY``
        aggregates.
        """
        key = (sql, tuple(params))

        def build() -> list[tuple]:
            cursor = self.connection.cursor()
            cursor.row_factory = None  # plain, picklable tuples
            return cursor.execute(sql, params).fetchall()

        return self._artifact("query", key, build)

    def _file_stat(self) -> tuple[int, int] | None:
        """``(st_mtime_ns, st_size)`` of the database, if it exists."""
        try:
            st = os.stat(self.db_path)
        except FileNotFoundError:
            return None
        return (st.st_mtime_ns, st.st_size)

    def _refresh(self) -> None:
        """Drop digest + memo when the database file changed on disk.

        A long-lived store (report -> re-run -> report in one process)
        must not serve artifacts keyed to a dead digest; the stat pair
        is taken *before* any hashing so a concurrent rewrite at worst
        causes one extra refresh, never a stale serve.
        """
        stat = self._file_stat()
        if stat == self._digest_stat:
            return
        if self._digest_stat is not None:
            self._memory.clear()
            # The old connection may point at a dead inode (the usual
            # rewrite is unlink + recreate); reopen lazily.
            self.close()
            self.stats["stale"] += 1
            obs.current().metrics.inc("analysis.store_refreshed")
        self._digest = None
        self._digest_stat = stat

    @property
    def digest(self) -> str:
        """SHA-256 content digest of the database file.

        Revalidated against ``(st_mtime_ns, st_size)`` on every access,
        so the digest -- and everything keyed by it -- tracks the file
        actually on disk.
        """
        self._refresh()
        if self._digest is None:
            digest = hashlib.sha256()
            with open(self.db_path, "rb") as handle:
                for chunk in iter(lambda: handle.read(1 << 20), b""):
                    digest.update(chunk)
            self._digest = digest.hexdigest()
        return self._digest

    def clear_cache(self) -> int:
        """Delete every persisted artifact; returns the file count."""
        removed = 0
        if self.cache_dir.is_dir():
            for path in self.cache_dir.glob("*.pkl"):
                path.unlink(missing_ok=True)
                removed += 1
        self._memory.clear()
        return removed

    # -- artifact cache ---------------------------------------------------

    def _cache_path(self, kind: str, params: tuple) -> Path:
        key = hashlib.sha256(
            f"{_CACHE_VERSION}:{kind}:{self.digest}:{params!r}"
            .encode("utf-8")).hexdigest()[:24]
        return self.cache_dir / f"{kind}-{key}.pkl"

    def _artifact(self, kind: str, params: tuple, build: Callable):
        """Memory -> disk -> build, recording hit/miss metrics."""
        self._refresh()
        metrics = obs.current().metrics
        memo_key = (kind, params)
        if memo_key in self._memory:
            self.stats["hits"] += 1
            metrics.inc("analysis.cache_hits", kind=kind, layer="memory")
            return self._memory[memo_key]
        if self.use_cache:
            path = self._cache_path(kind, params)
            value = self._load_artifact(path, kind)
            if value is not None:
                self.stats["hits"] += 1
                metrics.inc("analysis.cache_hits", kind=kind,
                            layer="disk")
                self._memory[memo_key] = value[0]
                return value[0]
        self.stats["misses"] += 1
        metrics.inc("analysis.cache_misses", kind=kind)
        start = time.perf_counter()
        result = build()
        elapsed = time.perf_counter() - start
        builds = self.stats["build_seconds"]
        builds[kind] = builds.get(kind, 0.0) + elapsed
        metrics.observe("analysis.build_seconds", elapsed, kind=kind)
        if self.use_cache:
            self._write_artifact(self._cache_path(kind, params), kind,
                                 params, result)
        self._memory[memo_key] = result
        return result

    def _load_artifact(self, path: Path, kind: str):
        """Read one artifact; stale/corrupt files count as misses.

        Returns a 1-tuple holding the value (so cached ``None`` would
        remain distinguishable from a miss), or ``None`` on miss.
        """
        if not path.exists():
            return None
        try:
            payload = pickle.loads(path.read_bytes())
            if (payload["version"] != _CACHE_VERSION
                    or payload["digest"] != self.digest):
                raise ValueError("cache entry does not match database")
            return (payload["value"],)
        except Exception:
            # A stale, truncated, or otherwise unreadable artifact is
            # ignored (and rebuilt), never an error.
            self.stats["stale"] += 1
            obs.current().metrics.inc("analysis.cache_stale", kind=kind)
            return None

    def _write_artifact(self, path: Path, kind: str, params: tuple,
                        value) -> None:
        payload = {"version": _CACHE_VERSION, "digest": self.digest,
                   "kind": kind, "params": params, "value": value}
        try:
            self.cache_dir.mkdir(parents=True, exist_ok=True)
            scratch = path.with_suffix(f".tmp.{os.getpid()}")
            scratch.write_bytes(
                pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL))
            os.replace(scratch, path)
        except OSError:
            # A read-only or full cache directory degrades to
            # memory-only caching rather than failing the analysis.
            obs.current().metrics.inc("analysis.cache_write_errors",
                                      kind=kind)

    # -- the projected scan -----------------------------------------------

    def events(self, *, interaction: str | None = None,
               dbms: str | None = None,
               columns=SCAN_COLUMNS) -> ColumnarEvents:
        """The events table (or a filtered slice) in columnar form.

        Only ``columns`` are loaded.  Each distinct (filter, projection)
        request is one cached artifact; building it reads from the
        columns already in memory wherever it can: a resident load of
        the same filter that covers the projection is projected, and a
        resident unfiltered load that also covers the filter columns is
        masked.  A filter that keeps every row (by SQL count) is served
        as the unfiltered load.  Otherwise only the missing columns are
        fetched, in one query with the filters pushed down into SQL.
        """
        names = _projection(columns)
        params = (interaction, dbms, names)
        served = self._artifact(
            "events", params, lambda: self._load(interaction, dbms, names))
        self._keep((interaction, dbms), served, None)
        return served

    def _resident(self, interaction: str | None, dbms: str | None):
        """``(columns, order)`` loaded so far for one filter, if any."""
        return self._memory.get(("resident", interaction, dbms),
                                (None, None))

    def _keep(self, key: tuple, events: ColumnarEvents,
              order: np.ndarray | None) -> None:
        """Fold ``events`` into the resident load of filter ``key``."""
        resident, known = self._resident(*key)
        if resident is not None:
            if resident.covers(events.columns):
                return
            events = resident.merged(events)
            order = known if known is not None else order
        self._memory[("resident", *key)] = (events, order)

    def _count(self, interaction: str | None, dbms: str | None) -> int:
        """Rows matching a filter (an index-only SQL count, memoized)."""
        key = ("count", interaction, dbms)
        if key not in self._memory:
            where, params = _where(interaction, dbms)
            self._memory[key] = self.connection.execute(
                f"SELECT COUNT(*) FROM events{where}", params).fetchone()[0]
        return self._memory[key]

    def _load(self, interaction: str | None, dbms: str | None,
              names: tuple[str, ...]) -> ColumnarEvents:
        if (interaction is not None or dbms is not None) and (
                self._count(interaction, dbms) == self._count(None, None)):
            # The filter keeps every row (a tier filter on that tier's
            # database): serve it from the unfiltered load.
            interaction = dbms = None
        if interaction is not None or dbms is not None:
            full, _ = self._resident(None, None)
            needed = names + tuple(_filters(interaction, dbms))
            if full is not None and full.covers(needed):
                return full.project(needed).filter(
                    interaction=interaction, dbms=dbms).project(names)
        resident, order = self._resident(interaction, dbms)
        missing = tuple(name for name in names
                        if resident is None or name not in resident)
        if missing:
            fetched, order = self._scan(interaction, dbms, missing, order)
            self._keep((interaction, dbms), fetched, order)
            resident, _ = self._resident(interaction, dbms)
        return resident.project(names)

    def _scan(self, interaction: str | None, dbms: str | None,
              names: tuple[str, ...], order: np.ndarray | None,
              ) -> tuple[ColumnarEvents, np.ndarray]:
        telemetry = obs.current()
        start = time.perf_counter()
        with telemetry.tracer.span("analysis.scan", db=self.db_path.name):
            columns, order = _scan_columnar(
                self.connection, names, interaction=interaction,
                dbms=dbms, order=order)
        elapsed = time.perf_counter() - start
        cells = columns.n * len(columns.columns)
        self.stats["scans"] += 1
        self.stats["scan_cells"] += cells
        self.stats["scan_seconds"] += elapsed
        telemetry.metrics.observe("analysis.scan_seconds", elapsed,
                                  db=self.db_path.name)
        telemetry.metrics.inc("analysis.scan_rows", columns.n,
                              db=self.db_path.name)
        telemetry.metrics.inc("analysis.scan_cells", cells,
                              db=self.db_path.name)
        return columns, order

    # -- derived views ----------------------------------------------------

    def profiles(self, *, interaction: str | None = None,
                 dbms: str | None = None, start_ts: float | None = None,
                 ) -> dict[tuple[str, str], IpProfile]:
        """Per-(IP, DBMS) profiles (see :func:`load_ip_profiles`)."""
        params = ("v1", interaction, dbms, start_ts)

        def build() -> dict[tuple[str, str], IpProfile]:
            columns = self.events(interaction=interaction, dbms=dbms,
                                  columns=PROFILE_COLUMNS)
            base_ts = start_ts
            if base_ts is None:
                base_ts = (float(columns.timestamps[0])
                           if columns.n else 0.0)
            return build_profiles(columns, base_ts)

        return self._artifact("profiles", params, build)

    def classifications(self) -> dict[tuple[str, str], "Classification"]:
        """Per-(IP, DBMS) behavior classifications (cached).

        :func:`~repro.core.classification.classify_ips` is pure in the
        profile map, so one digest-keyed artifact serves every consumer
        (Table 8, Table 10/11, campaigns, the cluster review).
        """
        return self._artifact(
            "classify", ("v1",),
            lambda: classify_ips(self.profiles()))

    def sequences(self, *, dbms: str | None = None,
                  require_actions: bool = True) -> dict[str, list[str]]:
        """Per-IP action sequences (the clustering documents)."""
        return action_sequences(self.profiles(), dbms=dbms,
                                require_actions=require_actions)

    def tf(self, dbms: str) -> TfArtifact:
        """Fitted TF matrix over ``dbms``'s interactive IPs (cached)."""
        params = ("v1", dbms)

        def build() -> TfArtifact:
            sequences = self.sequences(dbms=dbms)
            ips = tuple(sorted(sequences))
            documents = [sequences[ip] for ip in ips]
            vectorizer = TfVectorizer()
            matrix = (vectorizer.fit_transform(documents) if documents
                      else np.zeros((0, 0)))
            return TfArtifact(ips=ips, vocabulary=vectorizer.vocabulary,
                              matrix=matrix)

        return self._artifact("tf", params, build)

    def linkage(self, dbms: str, *, method: str = "ward") -> np.ndarray:
        """Dendrogram over the TF matrix of ``dbms`` (cached)."""
        from repro.core.clustering import linkage as linkage_fn

        params = ("v1", dbms, method)

        def build() -> np.ndarray:
            artifact = self.tf(dbms)
            if len(artifact.ips) < 2:
                return np.empty((0, 4))
            return linkage_fn(artifact.matrix, method)

        return self._artifact("linkage", params, build)

    def cluster_labels(self, dbms: str, *,
                       distance_threshold: float = 0.18,
                       method: str = "ward",
                       ) -> dict[tuple[str, str], int]:
        """(ip, dbms) -> cluster label, from the cached dendrogram.

        Matches :func:`repro.core.reports.cluster_dbms` exactly: pure
        scanners are excluded, clusters cut at ``distance_threshold``.
        """
        artifact = self.tf(dbms)
        if not artifact.ips:
            return {}
        model = AgglomerativeClustering(
            distance_threshold=distance_threshold, method=method)
        model.fit(artifact.matrix,
                  linkage_matrix=self.linkage(dbms, method=method))
        return {(ip, dbms): int(label)
                for ip, label in zip(artifact.ips, model.labels_)}

    def hourly_series(self, *, interaction: str | None = None,
                      dbms: str | None = None, label: str | None = None):
        """Figure 2 series for one slice (see :mod:`repro.core.temporal`)."""
        from repro.core.temporal import SERIES_COLUMNS, series_from_columns

        columns = self.events(interaction=interaction, dbms=dbms,
                              columns=SERIES_COLUMNS)
        if not columns.n:
            return series_from_columns(columns, label or "empty")
        return series_from_columns(columns, label or (dbms or "all"))

    def per_dbms_series(self, *, interaction: str = "low") -> dict:
        """Figures 6-9: one hourly series per DBMS."""
        from repro.core.temporal import SERIES_COLUMNS, series_from_columns

        sliced = self.events(interaction=interaction,
                             columns=SERIES_COLUMNS + ("dbms",))
        return {name: series_from_columns(
                    sliced.filter(dbms=name), name)
                for name in sorted(sliced.dbms.unique_values())}


@contextmanager
def borrow_store(source: AnalysisStore | str | Path, *,
                 use_cache: bool = False) -> Iterator[AnalysisStore]:
    """Yield ``source`` as a store; close it only if we created it.

    Path-based callers get a private, uncached store (the pre-store
    behavior: fresh connection, no cache side effects next to the
    database); store-based callers share the caller's cache and
    connection.
    """
    if isinstance(source, AnalysisStore):
        yield source
        return
    store = AnalysisStore(source, use_cache=use_cache)
    try:
        yield store
    finally:
        store.close()
