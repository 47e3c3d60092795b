"""Tests for log events, conversion and the enrichment pipeline."""

import pytest

from repro.netsim.address_space import AddressSpace
from repro.netsim.asdb import ASType
from repro.netsim.geoip import GeoIPDatabase
from repro.pipeline.convert import (convert_to_sqlite, count_events,
                                    open_database, read_events)
from repro.pipeline.enrich import enrich_events
from repro.pipeline.institutional import InstitutionalScannerList
from repro.pipeline.logstore import MAX_RAW, LogEvent, truncate_raw
from repro.pipeline.sinks import RawLogSink


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
    space.register_as(64501, "SECSCAN", "United States", ASType.SECURITY)
    ips = {"attacker": str(space.allocate(64500)),
           "scanner": str(space.allocate(64501))}
    geoip = GeoIPDatabase.from_address_space(space)
    scanners = InstitutionalScannerList()
    scanners.add_asn(64501)
    return geoip, scanners, ips


class TestLogStore:
    def test_json_roundtrip(self):
        event = make_event(event_type="login_attempt", username="sa",
                           password="123", action="login")
        assert LogEvent.from_json(event.to_json()) == event

    def test_unicode_survives_json(self):
        event = make_event(raw="päylöad ☃")
        assert LogEvent.from_json(event.to_json()).raw == "päylöad ☃"

    def test_truncate_raw(self):
        assert truncate_raw(None) is None
        assert truncate_raw(b"\xff\xfe") == "��"
        assert len(truncate_raw("x" * 99999)) == 2048

    def test_jsonl_roundtrip_preserves_every_field(self, tmp_path):
        events = [
            make_event(event_type="login_attempt", action="login",
                       username="sa", password="pä55 ☃", raw="SELECT 1;",
                       timestamp=1711065601.25),
            make_event(event_type="query", action="KEYS", username=None,
                       password=None, raw=None, src_port=1),
        ]
        sink = RawLogSink(tmp_path)
        for event in events:
            sink(event)
        [path] = sink.close()
        loaded = [LogEvent.from_json(line) for line in
                  path.read_text(encoding="utf-8").splitlines()]
        assert loaded == events

    def test_truncate_raw_str_passthrough_below_limit(self):
        assert truncate_raw("short") == "short"

    def test_truncate_raw_exactly_at_limit_untouched(self):
        payload = "y" * MAX_RAW
        assert truncate_raw(payload) is payload
        assert len(truncate_raw("y" * (MAX_RAW + 1))) == MAX_RAW

    def test_truncate_raw_bytes_exactly_at_limit(self):
        assert truncate_raw(b"z" * MAX_RAW) == "z" * MAX_RAW

    def test_truncate_raw_non_utf8_bytes(self):
        # Invalid UTF-8 decodes via replacement, then clamps.
        decoded = truncate_raw(b"\x80\x81ok\xff")
        assert decoded == "��ok�"
        long_bad = b"\xff" * (MAX_RAW + 10)
        assert truncate_raw(long_bad) == "�" * MAX_RAW

    def test_truncation_is_counted_when_telemetry_installed(self):
        from repro import obs

        telemetry = obs.Telemetry(enabled=True)
        with obs.install(telemetry):
            truncate_raw("a" * MAX_RAW)        # not clipped
            truncate_raw("b" * (MAX_RAW + 7))  # clipped by 7
        assert telemetry.metrics.counter_value(
            "logstore.raw_truncated") == 1
        assert telemetry.metrics.counter_value(
            "logstore.raw_truncated_bytes") == 7

    def test_truncation_bytes_measured_pre_decode(self):
        from repro import obs

        # A bytes payload is measured on the wire: 2-byte UTF-8
        # sequences double the dropped-byte count relative to chars.
        payload = ("é" * (MAX_RAW + 5)).encode("utf-8")
        telemetry = obs.Telemetry(enabled=True)
        with obs.install(telemetry):
            kept = truncate_raw(payload)
        assert kept == "é" * MAX_RAW
        assert telemetry.metrics.counter_value(
            "logstore.raw_truncated") == 1
        assert telemetry.metrics.counter_value(
            "logstore.raw_truncated_bytes") == len(payload) - len(
                kept.encode("utf-8"))

    def test_truncation_str_input_counts_utf8_bytes(self):
        from repro import obs

        payload = "é" * (MAX_RAW + 3)
        telemetry = obs.Telemetry(enabled=True)
        with obs.install(telemetry):
            kept = truncate_raw(payload)
        assert kept == "é" * MAX_RAW
        # str payloads fall back to their UTF-8 size: 2 bytes per "é".
        assert telemetry.metrics.counter_value(
            "logstore.raw_truncated_bytes") == 2 * 3


class TestEnrichment:
    def test_metadata_attached(self, world):
        geoip, scanners, ips = world
        events = [make_event(src_ip=ips["attacker"]),
                  make_event(src_ip=ips["scanner"])]
        enriched = enrich_events(events, geoip, scanners)
        assert enriched[0].country == "Germany"
        assert enriched[0].asn == 64500
        assert enriched[0].as_type == "Hosting"
        assert not enriched[0].institutional
        assert enriched[1].institutional

    def test_unknown_ip_enriched_as_unknown(self, world):
        geoip, scanners, _ips = world
        (enriched,) = enrich_events([make_event(src_ip="203.0.113.99")],
                                    geoip, scanners)
        assert enriched.country == "Unknown"
        assert enriched.asn is None

    def test_enrichment_preserves_event_order(self, world):
        geoip, scanners, ips = world
        events = [make_event(src_ip=ips["attacker"], src_port=p)
                  for p in range(10)]
        enriched = enrich_events(events, geoip, scanners)
        assert [e.event.src_port for e in enriched] == list(range(10))


class TestInstitutionalList:
    def test_asn_membership(self):
        scanners = InstitutionalScannerList()
        scanners.add_asn(398324)
        assert scanners.is_institutional("1.2.3.4", 398324)
        assert not scanners.is_institutional("1.2.3.4", 14618)

    def test_ip_membership(self):
        scanners = InstitutionalScannerList()
        scanners.add_ip("20.0.0.5")
        assert scanners.is_institutional("20.0.0.5", None)
        assert not scanners.is_institutional("20.0.0.6", None)

    def test_len(self):
        scanners = InstitutionalScannerList()
        scanners.add_asn(1)
        scanners.add_ip("1.1.1.1")
        assert len(scanners) == 2


class TestSqliteConversion:
    def test_convert_and_read_back(self, tmp_path, world):
        geoip, scanners, ips = world
        events = [
            make_event(src_ip=ips["attacker"]),
            make_event(src_ip=ips["attacker"],
                       event_type="login_attempt", username="sa",
                       password="123", action="login"),
            make_event(src_ip=ips["scanner"]),
        ]
        db = convert_to_sqlite(events, tmp_path / "out.sqlite", geoip,
                               scanners)
        assert count_events(db) == 3
        rows = list(read_events(db))
        assert rows[0]["country"] == "Germany"
        assert rows[1]["username"] == "sa"
        assert rows[2]["institutional"] == 1

    def test_rows_ordered_by_timestamp(self, tmp_path, world):
        geoip, scanners, ips = world
        events = [make_event(src_ip=ips["attacker"], timestamp=t)
                  for t in (30.0, 10.0, 20.0)]
        db = convert_to_sqlite(events, tmp_path / "o.sqlite", geoip,
                               scanners)
        timestamps = [row["timestamp"] for row in read_events(db)]
        assert timestamps == sorted(timestamps)

    def test_existing_database_replaced(self, tmp_path, world):
        geoip, scanners, ips = world
        path = tmp_path / "db.sqlite"
        convert_to_sqlite([make_event(src_ip=ips["attacker"])], path,
                          geoip, scanners)
        convert_to_sqlite([], path, geoip, scanners)
        assert count_events(path) == 0

    def test_database_opens_read_only(self, tmp_path, world):
        import sqlite3

        geoip, scanners, ips = world
        db = convert_to_sqlite([make_event(src_ip=ips["attacker"])],
                               tmp_path / "ro.sqlite", geoip, scanners)
        connection = open_database(db)
        with pytest.raises(sqlite3.OperationalError):
            connection.execute("DELETE FROM events")
        connection.close()
