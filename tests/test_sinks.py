"""Tests for the composable event-sink pipeline."""

import sqlite3

import pytest

from repro.netsim.address_space import AddressSpace
from repro.netsim.asdb import ASType
from repro.netsim.geoip import GeoIPDatabase
from repro.pipeline.convert import count_events, read_events
from repro.pipeline.institutional import InstitutionalScannerList
from repro.pipeline.logstore import LogEvent
from repro.pipeline.sinks import (BufferSink, CountingSink,
                                  EventSinkProtocol, RawLogSink,
                                  SQLiteWriterSink, TeeSink, TierSplitSink,
                                  close_sink)


def make_event(**overrides) -> LogEvent:
    base = dict(timestamp=1711065600.0, honeypot_id="hp-1",
                honeypot_type="qeeqbox", dbms="mysql", interaction="low",
                config="multi", src_ip="20.0.0.1", src_port=5555,
                event_type="connect")
    base.update(overrides)
    return LogEvent(**base)


@pytest.fixture
def world():
    space = AddressSpace()
    space.register_as(64500, "HOSTCO", "Germany", ASType.HOSTING)
    ip = str(space.allocate(64500))
    geoip = GeoIPDatabase.from_address_space(space)
    return geoip, InstitutionalScannerList(), ip


class TestBasicSinks:
    def test_plain_callable_satisfies_protocol(self):
        assert isinstance(BufferSink(), EventSinkProtocol)

    def test_close_sink_tolerates_closeless_sinks(self):
        events = []
        assert close_sink(events.append) is None

    def test_tee_fans_out_in_order(self):
        seen = []
        tee = TeeSink(lambda e: seen.append(("a", e)),
                      lambda e: seen.append(("b", e)))
        event = make_event()
        tee(event)
        assert seen == [("a", event), ("b", event)]

    def test_tee_close_closes_children(self):
        raw = BufferSink()
        counting = CountingSink()
        closed = []

        class Closeable:
            def __call__(self, event):
                pass

            def close(self):
                closed.append(True)

        TeeSink(raw, counting, Closeable()).close()
        assert closed == [True]

    def test_tier_split_routes_by_interaction(self):
        low, midhigh = BufferSink(), BufferSink()
        split = TierSplitSink(low, midhigh)
        split(make_event(interaction="low"))
        split(make_event(interaction="medium"))
        split(make_event(interaction="high"))
        assert (split.low_count, split.midhigh_count) == (1, 2)
        assert [e.interaction for e in low] == ["low"]
        assert [e.interaction for e in midhigh] == ["medium", "high"]

    def test_counting_sink_tallies_breakdowns(self):
        counting = CountingSink()
        counting(make_event(event_type="connect", dbms="redis"))
        counting(make_event(event_type="command", dbms="redis",
                            interaction="medium"))
        assert counting.total == 2
        assert counting.counts["event_type"] == {"connect": 1,
                                                 "command": 1}
        assert counting.counts["dbms"] == {"redis": 2}
        assert counting.counts["interaction"] == {"low": 1, "medium": 1}

    def test_buffer_sink_iterates_and_sizes(self):
        buffer = BufferSink()
        events = [make_event(src_port=p) for p in (1, 2, 3)]
        for event in events:
            buffer(event)
        assert len(buffer) == 3
        assert list(buffer) == events


class TestRawLogSink:
    def test_matches_logstore_consolidated_layout(self, tmp_path):
        events = [make_event(),
                  make_event(dbms="redis", interaction="medium",
                             config="default"),
                  make_event(src_port=6000)]
        sink = RawLogSink(tmp_path)
        for event in events:
            sink(event)
        paths = sink.close()
        # One file per (interaction, dbms, config), one to_json() line
        # per event, in arrival order.
        expected = {"low-mysql-multi.jsonl": [events[0], events[2]],
                    "medium-redis-default.jsonl": [events[1]]}
        assert [p.name for p in paths] == sorted(expected)
        for path in paths:
            assert path.read_text(encoding="utf-8") == "".join(
                event.to_json() + "\n" for event in expected[path.name])

    def test_close_is_resettable(self, tmp_path):
        sink = RawLogSink(tmp_path)
        sink(make_event())
        assert len(sink.close()) == 1
        assert sink.close() == []


class TestSQLiteWriterSink:
    def test_streams_events_to_database(self, tmp_path, world):
        geoip, scanners, ip = world
        sink = SQLiteWriterSink(tmp_path / "out.sqlite", geoip, scanners)
        for port in (1000, 2000, 3000):
            sink(make_event(src_ip=ip, src_port=port))
        path = sink.close()
        assert count_events(path) == 3
        assert {row["src_port"] for row in read_events(path)} == \
            {1000, 2000, 3000}

    def test_close_is_idempotent(self, tmp_path, world):
        geoip, scanners, ip = world
        sink = SQLiteWriterSink(tmp_path / "out.sqlite", geoip, scanners)
        sink(make_event(src_ip=ip))
        assert sink.close() == sink.close()

    def test_no_events_still_creates_empty_database(self, tmp_path, world):
        geoip, scanners, _ip = world
        sink = SQLiteWriterSink(tmp_path / "empty.sqlite", geoip, scanners)
        path = sink.close()
        assert path.exists()
        assert count_events(path) == 0

    def test_conversion_error_surfaces_in_close(self, tmp_path, world):
        geoip, scanners, ip = world
        # The database path is an existing directory: the conversion
        # thread fails, and close() must re-raise in the caller instead
        # of swallowing the loss.
        bad = tmp_path / "taken.sqlite"
        bad.mkdir()
        sink = SQLiteWriterSink(bad, geoip, scanners)
        sink(make_event(src_ip=ip))
        with pytest.raises(Exception):
            sink.close()
        # Still raising on a second close -- never "recovers" into
        # silently pretending the data was written.
        with pytest.raises(Exception):
            sink.close()


class TestWriterParity:
    """Plain and durable writer sinks run one writer loop: same chunk
    boundaries, same rows; only the durable one chains a digest."""

    def run_sink(self, tmp_path, world, events, *, durable):
        from repro.resilience import faults

        geoip, scanners, _ip = world
        plan = faults.load_plan("sqlite-lock")
        name = "durable" if durable else "plain"
        with faults.install(plan):
            sink = SQLiteWriterSink(tmp_path / f"{name}.sqlite", geoip,
                                    scanners, durable=durable)
            for start in range(0, len(events), 1000):
                sink.many(events[start:start + 1000])
            path = sink.close()
        with sqlite3.connect(path) as connection:
            rows = connection.execute(
                "SELECT * FROM events ORDER BY id").fetchall()
        return sink, rows, plan.snapshot()["sqlite.locked"]

    def test_plain_and_durable_agree(self, tmp_path, world):
        from repro.pipeline.convert import CHUNK_ROWS, prefix_digest

        _geoip, _scanners, ip = world
        count = 2 * CHUNK_ROWS + 100
        events = [make_event(src_ip=ip, src_port=1024 + index % 60000,
                             timestamp=1711065600.0 + index,
                             interaction=("low", "high")[index % 2])
                  for index in range(count)]
        plain, plain_rows, plain_locked = self.run_sink(
            tmp_path, world, events, durable=False)
        durable, durable_rows, durable_locked = self.run_sink(
            tmp_path, world, events, durable=True)

        assert len(plain_rows) == count
        assert plain_rows == durable_rows
        # Three chunks (CHUNK_ROWS, CHUNK_ROWS, 100) plus the two
        # injected lock retries.
        assert plain_locked == durable_locked == {"evaluations": 5,
                                                  "fires": 2}
        assert plain.committed_state is None
        assert durable.committed_state == {
            "rows": count,
            "digest": prefix_digest(durable.path, count)}
