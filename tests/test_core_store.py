"""Tests for the columnar analysis store and its content-keyed cache.

Correctness bar: everything served warm from the cache must be equal --
byte-identical where the artifact is rendered text -- to a cold build,
a changed database must invalidate every cached artifact, and stale or
corrupt cache files must be ignored (rebuilt), never raised.
"""

import pickle
import sqlite3

import numpy as np
import pytest

from repro.core.loading import PROFILE_COLUMNS, load_ip_profiles
from repro.core.reports import cluster_dbms
from repro.core.store import (AnalysisStore, CACHE_DIR_ENV,
                              CACHE_TOGGLE_ENV, SCAN_COLUMNS, borrow_store)
from repro.core.temporal import SERIES_COLUMNS
from repro.netsim.address_space import AddressSpace
from repro.netsim.asdb import ASType
from repro.netsim.geoip import GeoIPDatabase
from repro.pipeline.convert import convert_to_sqlite
from repro.pipeline.logstore import LogEvent

BASE_TS = 1711065600.0


def _make_db(path, n_ips: int = 6):
    """A small converted database with every event shape the loader
    folds: connects, logins, commands, and malformed probes, spread
    over two DBMSes and both interaction tiers."""
    space = AddressSpace()
    space.register_as(64500, "ExampleNet", "US", ASType.HOSTING)
    ips = [str(space.allocate(64500)) for _ in range(n_ips)]
    geoip = GeoIPDatabase.from_address_space(space)

    def event(ip, offset, dbms="redis", interaction="medium",
              event_type="connect", **kwargs):
        return LogEvent(timestamp=BASE_TS + offset, honeypot_id="hp",
                        honeypot_type="test", dbms=dbms,
                        interaction=interaction, config="multi",
                        src_ip=ip, src_port=1, event_type=event_type,
                        **kwargs)

    events = []
    for index, ip in enumerate(ips):
        offset = index * 60.0
        events.append(event(ip, offset))
        events.append(event(ip, offset + 1, event_type="login_attempt",
                            username="root", password=f"pw{index % 2}"))
        # Two action dialects so clustering has two groups to find.
        actions = (["SET", "GET", "GET"] if index % 2
                   else ["CONFIG GET", "KEYS", "FLUSHALL"])
        for step, action in enumerate(actions):
            events.append(event(ip, offset + 2 + step,
                                event_type="command", action=action,
                                raw=action.lower()))
        events.append(event(ip, offset + 10, dbms="mysql",
                            interaction="low", event_type="malformed",
                            raw=f"\x03probe-{index % 2}"))
    return convert_to_sqlite(events, path, geoip)


@pytest.fixture
def db_path(tmp_path):
    return _make_db(tmp_path / "events.sqlite")


class TestColumnarEvents:
    def test_filter_pushdown_matches_in_memory_mask(self, db_path):
        # A fresh store with only a filtered request pushes the WHERE
        # down into SQL; a store that already has the full table serves
        # the same slice by boolean mask.  Both must agree exactly.
        pushed = AnalysisStore(db_path, use_cache=False)
        masked = AnalysisStore(db_path, use_cache=False)
        full = masked.events()
        for kwargs in ({"interaction": "low"}, {"dbms": "redis"},
                       {"interaction": "medium", "dbms": "redis"},
                       {"dbms": "absent"}):
            a = pushed.events(**kwargs)
            b = masked.events(**kwargs)
            assert a.n == b.n
            assert np.array_equal(a.timestamps, b.timestamps)
            assert a.src_ip.decode() == b.src_ip.decode()
            assert a.action.decode() == b.action.decode()
        assert full.n == pushed.events().n

    def test_unique_values(self, db_path):
        store = AnalysisStore(db_path, use_cache=False)
        assert sorted(store.events().dbms.unique_values()) == [
            "mysql", "redis"]


def _make_scan_db(path):
    """A database whose ``id`` order is not its timestamp order.

    Events are converted out of time order, with tied timestamps,
    non-ASCII strings, and NULL ``asn``/``action``/``username``/
    ``password``/``raw`` cells.
    """
    space = AddressSpace()
    space.register_as(64500, "ExampleNet", "US", ASType.HOSTING)
    ips = [str(space.allocate(64500)) for _ in range(5)]
    geoip = GeoIPDatabase.from_address_space(space)
    shapes = [
        ("connect", {}),
        ("login_attempt", {"username": "r\u00f6\u00f6t",
                           "password": "p\u00e4ss\u2603"}),
        ("login_attempt", {"username": "sa"}),
        ("command", {"action": "SELECT '\u65e5\u672c'",
                     "raw": "select '\u65e5\u672c'"}),
        ("command", {"action": "INFO"}),
        ("malformed", {"raw": "\x16\x03\u00ff"}),
    ]
    events = []
    for step in range(60):
        event_type, fields = shapes[step % len(shapes)]
        # Offsets run backwards in blocks and repeat: ids ascend while
        # timestamps descend, and every timestamp is shared by 3 rows.
        offset = float((59 - step) // 3)
        events.append(LogEvent(
            timestamp=BASE_TS + offset, honeypot_id="hp",
            honeypot_type="test",
            dbms=("mssql", "redis", "mysql")[step % 3],
            interaction=("low", "medium")[step % 2],
            config=("single", "multi")[step % 2],
            src_ip=ips[step % len(ips)], src_port=1,
            event_type=event_type, **fields))
    path = convert_to_sqlite(events, path, geoip)
    with sqlite3.connect(path) as connection:
        connection.execute("UPDATE events SET asn = NULL WHERE id % 4 = 0")
        connection.execute(
            "UPDATE events SET as_name = 'B\u00e9ta Netz' WHERE id % 5 = 0")
    return path


def _oracle(db_path, interaction=None, dbms=None) -> dict:
    """The pre-projection decode: all 15 columns, ``ORDER BY timestamp,
    id`` in SQL, one Python value per cell."""
    clauses, params = [], []
    for column, value in (("interaction", interaction), ("dbms", dbms)):
        if value is not None:
            clauses.append(f"{column} = ?")
            params.append(value)
    where = (" WHERE " + " AND ".join(clauses)) if clauses else ""
    with sqlite3.connect(db_path) as connection:
        rows = connection.execute(
            f"SELECT {', '.join(SCAN_COLUMNS)} FROM events{where} "
            "ORDER BY timestamp, id", params).fetchall()
    columns = {name: [row[index] for row in rows]
               for index, name in enumerate(SCAN_COLUMNS)}
    columns["asn"] = [None if value is None else float(value)
                      for value in columns["asn"]]
    columns["institutional"] = [bool(value)
                                for value in columns["institutional"]]
    return columns


def _decoded(events, name):
    column = getattr(events, "timestamps" if name == "timestamp" else name)
    if name == "asn":
        return [None if value != value else value
                for value in column.tolist()]
    if isinstance(column, np.ndarray):
        return column.tolist()
    return column.decode()


_PROJECTIONS = ([(name,) for name in SCAN_COLUMNS]
                + [SERIES_COLUMNS, SERIES_COLUMNS + ("dbms",),
                   PROFILE_COLUMNS, SCAN_COLUMNS])
_FILTERS = [{}, {"interaction": "low"}, {"interaction": "medium"},
            {"dbms": "mssql"}, {"interaction": "low", "dbms": "redis"},
            {"dbms": "absent"}]


class TestProjectedScan:
    @pytest.fixture
    def scan_db(self, tmp_path):
        return _make_scan_db(tmp_path / "scan.sqlite")

    def test_crafted_db_exercises_the_ordering(self, scan_db):
        with sqlite3.connect(scan_db) as connection:
            by_id = [row[0] for row in connection.execute(
                "SELECT timestamp FROM events ORDER BY id")]
            nulls = connection.execute(
                "SELECT COUNT(*) FROM events WHERE asn IS NULL").fetchone()
        assert by_id != sorted(by_id)
        assert len(set(by_id)) < len(by_id)
        assert nulls[0] > 0

    @pytest.mark.parametrize("projection", _PROJECTIONS,
                             ids=lambda p: "+".join(p))
    @pytest.mark.parametrize("filters", _FILTERS,
                             ids=lambda f: repr(f) if f else "all")
    def test_projection_matches_oracle(self, scan_db, projection,
                                       filters):
        expected = _oracle(scan_db, **filters)
        n = len(expected["timestamp"])
        # Three routes to the same slice: a fresh pushed-down scan, a
        # mask over a resident unfiltered load, and a narrow load
        # widened by fetching only the missing columns.
        pushed = AnalysisStore(scan_db, use_cache=False)
        masked = AnalysisStore(scan_db, use_cache=False)
        masked.events()
        widened = AnalysisStore(scan_db, use_cache=False)
        widened.events(columns=("src_ip",), **filters)
        for store in (pushed, masked, widened):
            events = store.events(columns=projection, **filters)
            assert events.n == n
            assert events.columns == projection
            for name in projection:
                assert _decoded(events, name) == expected[name], name
            store.close()

    def test_each_missing_column_fetched_once(self, scan_db):
        store = AnalysisStore(scan_db, use_cache=False)
        n = store.events(columns=("src_ip",)).n
        assert store.stats["scan_cells"] == 2 * n  # + timestamp to sort
        store.events(columns=SERIES_COLUMNS)  # already resident
        assert store.stats["scans"] == 1
        store.events(columns=("src_ip", "raw", "dbms"))
        assert store.stats["scans"] == 2
        assert store.stats["scan_cells"] == 4 * n  # only raw, dbms
        store.events(dbms="mysql", columns=("raw", "src_ip"))  # by mask
        assert store.stats["scans"] == 2

    def test_filter_keeping_every_row_reuses_unfiltered_load(
            self, scan_db):
        # A tier filter on that tier's own database selects every row,
        # so it only fetches the columns the unfiltered load lacks.
        with sqlite3.connect(scan_db) as connection:
            connection.execute("UPDATE events SET interaction = 'low'")
        store = AnalysisStore(scan_db, use_cache=False)
        n = store.events(columns=SERIES_COLUMNS).n
        events = store.events(interaction="low",
                              columns=SERIES_COLUMNS + ("dbms",))
        assert store.stats["scans"] == 2
        assert store.stats["scan_cells"] == 3 * n
        expected = _oracle(scan_db, interaction="low")
        for name in SERIES_COLUMNS + ("dbms",):
            assert _decoded(events, name) == expected[name], name

    def test_unknown_column_rejected(self, scan_db):
        store = AnalysisStore(scan_db, use_cache=False)
        with pytest.raises(ValueError, match="bogus"):
            store.events(columns=("timestamp", "bogus"))
        with pytest.raises(AttributeError, match="raw"):
            store.events(columns=SERIES_COLUMNS).raw

    def test_cold_report_scans_each_database_once(self, db_path):
        from repro.cli import report_text

        with sqlite3.connect(db_path) as connection:
            (rows,) = connection.execute(
                "SELECT COUNT(*) FROM events").fetchone()
        with AnalysisStore(db_path, use_cache=False) as low, \
                AnalysisStore(db_path, use_cache=False) as midhigh:
            report_text(low, midhigh, 0.002)
            assert low.stats["scans"] == midhigh.stats["scans"] == 1
            # Figure 2 is all the low tier is scanned for.
            assert low.stats["scan_cells"] == rows * len(SERIES_COLUMNS)
            assert (midhigh.stats["scan_cells"]
                    == rows * len(PROFILE_COLUMNS))

    def test_warm_low_pass_loads_only_its_projection(self, db_path):
        from repro.core.temporal import hourly_series

        with AnalysisStore(db_path) as cold:
            series = hourly_series(cold)
        (artifact,) = cold.cache_dir.glob("events-*.pkl")
        payload = pickle.loads(artifact.read_bytes())
        assert payload["value"].columns == SERIES_COLUMNS
        with AnalysisStore(db_path) as warm:
            assert hourly_series(warm) == series
            assert warm.stats["scans"] == 0


class TestStoreMatchesDirectLoad:
    def test_profiles_equal_path_api(self, db_path):
        store = AnalysisStore(db_path, use_cache=False)
        assert store.profiles() == load_ip_profiles(db_path)
        assert (store.profiles(interaction="low")
                == load_ip_profiles(db_path, interaction="low"))

    def test_cluster_labels_equal_profile_api(self, db_path):
        store = AnalysisStore(db_path, use_cache=False)
        profiles = load_ip_profiles(db_path)
        direct = cluster_dbms(profiles, "redis", distance_threshold=0.1)
        assert store.cluster_labels("redis",
                                    distance_threshold=0.1) == direct
        # Two credential/action dialects -> two clusters.
        assert len(set(direct.values())) == 2


class TestWarmCache:
    def test_warm_results_byte_identical_to_cold(self, db_path):
        cold = AnalysisStore(db_path)
        cold_profiles = cold.profiles()
        cold_tf = cold.tf("redis")
        cold_linkage = cold.linkage("redis")
        assert cold.stats["misses"] > 0 and cold.stats["scans"] == 1

        warm = AnalysisStore(db_path)
        assert warm.profiles() == cold_profiles
        assert pickle.dumps(warm.profiles()) == pickle.dumps(cold_profiles)
        assert warm.tf("redis").ips == cold_tf.ips
        assert np.array_equal(warm.tf("redis").matrix, cold_tf.matrix)
        assert np.array_equal(warm.linkage("redis"), cold_linkage)
        # The warm store never touched the events table.
        assert warm.stats["scans"] == 0
        assert warm.stats["misses"] == 0
        assert warm.stats["hits"] >= 3

    def test_warm_report_text_byte_identical(self, db_path):
        from repro.cli import report_text

        with AnalysisStore(db_path) as store:
            cold = report_text(store, store, 0.002)
        with AnalysisStore(db_path) as store:
            warm = report_text(store, store, 0.002)
            assert store.stats["scans"] == 0
        assert warm == cold

    def test_memory_memoization_without_disk(self, db_path):
        store = AnalysisStore(db_path, use_cache=False)
        assert store.profiles() is store.profiles()
        assert store.stats["scans"] == 1
        assert not store.cache_dir.exists()


class TestInvalidation:
    @staticmethod
    def _insert_event(db_path, ip="198.51.100.9"):
        with sqlite3.connect(db_path) as connection:
            connection.execute(
                "INSERT INTO events (timestamp, honeypot_id, "
                "honeypot_type, dbms, interaction, config, src_ip, "
                "src_port, event_type, country, as_name, as_type, "
                "institutional) VALUES (?, 'hp', 'test', 'redis', "
                "'medium', 'multi', ?, 1, 'connect', "
                "'US', 'ExampleNet', 'hosting', 0)",
                (BASE_TS + 9999, ip))

    def test_changed_database_invalidates(self, db_path):
        first = AnalysisStore(db_path)
        before = first.profiles()
        digest_before = first.digest
        first.close()

        self._insert_event(db_path)

        second = AnalysisStore(db_path)
        after = second.profiles()
        assert second.digest != digest_before
        assert second.stats["scans"] == 1  # cache did not satisfy it
        assert ("198.51.100.9", "redis") in after
        assert ("198.51.100.9", "redis") not in before

    def test_long_lived_store_sees_rewritten_database(self, db_path):
        # Regression: the digest used to be computed once per store
        # lifetime, so a report -> re-run -> report sequence in one
        # process served artifacts keyed to the dead digest.
        store = AnalysisStore(db_path)
        before = store.profiles()
        digest_before = store.digest
        assert ("198.51.100.9", "redis") not in before

        self._insert_event(db_path)

        after = store.profiles()
        assert store.digest != digest_before
        assert ("198.51.100.9", "redis") in after
        # And the refreshed digest keys fresh disk artifacts: a second
        # store opened now is warm against the *new* content.
        warm = AnalysisStore(db_path)
        assert warm.profiles() == after
        assert warm.stats["scans"] == 0

    def test_long_lived_uncached_store_drops_memo_on_rewrite(
            self, db_path):
        store = AnalysisStore(db_path, use_cache=False)
        before = store.profiles()
        self._insert_event(db_path, ip="203.0.113.77")
        after = store.profiles()
        assert after is not before
        assert ("203.0.113.77", "redis") in after

    def test_stale_artifacts_ignored_not_crashed(self, db_path):
        cold = AnalysisStore(db_path)
        cold.profiles()
        cold.linkage("redis")
        (profiles_file,) = cold.cache_dir.glob("profiles-*.pkl")
        (linkage_file,) = cold.cache_dir.glob("linkage-*.pkl")
        profiles_file.write_bytes(b"\x00garbage")              # corrupt
        linkage_file.write_bytes(pickle.dumps({"version": -1}))  # stale

        warm = AnalysisStore(db_path)
        assert warm.profiles() == cold.profiles()
        assert np.array_equal(warm.linkage("redis"),
                              cold.linkage("redis"))
        assert warm.stats["stale"] == 2
        # Both rebuilds were fed from still-valid cached inputs
        # (columnar events, the TF matrix) -- no rescan.
        assert warm.stats["scans"] == 0

    def test_clear_cache(self, db_path):
        store = AnalysisStore(db_path)
        store.profiles()
        assert store.clear_cache() > 0
        assert not list(store.cache_dir.glob("*.pkl"))


class TestEnvironmentKnobs:
    def test_toggle_env_disables_persistence(self, db_path, monkeypatch):
        monkeypatch.setenv(CACHE_TOGGLE_ENV, "0")
        store = AnalysisStore(db_path)
        store.profiles()
        assert not store.use_cache
        assert not store.cache_dir.exists()

    def test_cache_dir_env_relocates(self, db_path, monkeypatch, tmp_path):
        target = tmp_path / "elsewhere"
        monkeypatch.setenv(CACHE_DIR_ENV, str(target))
        store = AnalysisStore(db_path)
        store.profiles()
        assert store.cache_dir.is_dir()
        assert store.cache_dir.parent == target
        assert not db_path.with_name(f"{db_path.name}.cache").exists()


class TestBorrowStore:
    def test_path_gets_private_uncached_store(self, db_path):
        with borrow_store(db_path) as store:
            assert isinstance(store, AnalysisStore)
            assert not store.use_cache
        assert store._connection is None  # closed on exit

    def test_existing_store_is_shared_not_closed(self, db_path):
        owner = AnalysisStore(db_path, use_cache=False)
        owner.events()
        with borrow_store(owner) as store:
            assert store is owner
        assert owner._connection is not None
        owner.close()


class TestConverterIndexes:
    def test_pushdown_indexes_and_analyze(self, db_path):
        with sqlite3.connect(db_path) as connection:
            indexes = {row[0] for row in connection.execute(
                "SELECT name FROM sqlite_master WHERE type = 'index'")}
            assert "idx_events_pushdown" in indexes
            assert "idx_events_src_dbms" in indexes
            # ANALYZE ran at conversion time.
            stats = connection.execute(
                "SELECT COUNT(*) FROM sqlite_stat1").fetchone()[0]
            assert stats > 0
            # The planner actually uses the composite index for the
            # store's filtered scans.
            (plan,) = [row[3] for row in connection.execute(
                "EXPLAIN QUERY PLAN SELECT * FROM events "
                "WHERE interaction = 'low' AND dbms = 'mysql'")][:1]
            assert "idx_events_pushdown" in plan
