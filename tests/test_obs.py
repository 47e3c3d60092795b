"""Tests for the observability layer: metrics registry, tracer,
manifest round-trip, and the instrumented experiment driver."""

import json
import sys
import threading
from pathlib import Path

import pytest

from repro import obs
from repro.obs import report as obs_report
from repro.obs.metrics import MetricsRegistry, NullMetricsRegistry
from repro.obs.tracing import NullTracer, Tracer

GOLDEN_TRACE = Path(__file__).parent / "data" / "trace_golden.json"


class FakeClock:
    """Returns 0.0, 1.0, 2.0, ... on successive calls."""

    def __init__(self) -> None:
        self.now = -1.0

    def __call__(self) -> float:
        self.now += 1.0
        return self.now


class TestMetricsRegistry:
    def test_counter_inc_and_read(self):
        registry = MetricsRegistry()
        registry.inc("events")
        registry.inc("events", 4)
        assert registry.counter_value("events") == 5

    def test_counters_separate_by_labels(self):
        registry = MetricsRegistry()
        registry.inc("events", dbms="redis")
        registry.inc("events", 2, dbms="mysql")
        assert registry.counter_value("events", dbms="redis") == 1
        assert registry.counter_value("events", dbms="mysql") == 2
        assert registry.counter_value("events") == 0
        assert registry.counter_total("events") == 3

    def test_label_order_does_not_matter(self):
        registry = MetricsRegistry()
        registry.inc("x", a=1, b=2)
        registry.inc("x", b=2, a=1)
        assert registry.counter_value("x", b=2, a=1) == 2

    def test_gauge_set_and_add(self):
        registry = MetricsRegistry()
        registry.set_gauge("open", 3)
        registry.add_gauge("open", 2)
        registry.add_gauge("open", -4)
        assert registry.gauge_value("open") == 1

    def test_histogram_statistics(self):
        registry = MetricsRegistry()
        for value in (1.0, 2.0, 4.0, 8.0):
            registry.observe("latency", value)
        histogram = registry.histogram("latency")
        assert histogram.count == 4
        assert histogram.total == 15.0
        assert histogram.min == 1.0
        assert histogram.max == 8.0
        assert histogram.mean == pytest.approx(3.75)

    def test_histogram_log_scale_buckets(self):
        registry = MetricsRegistry()
        # 3 -> le 4; 0.75 -> le 1; exactly 2 -> le 2; 0 -> le 0.
        for value in (3.0, 0.75, 2.0, 0.0):
            registry.observe("h", value)
        buckets = {b["le"]: b["count"]
                   for b in registry.histogram("h").snapshot()["buckets"]}
        assert buckets == {0.0: 1, 1.0: 1, 2.0: 1, 4.0: 1}

    def test_counter_increments_are_exact_under_threads(self):
        registry = MetricsRegistry()

        def worker():
            for _ in range(5000):
                registry.inc("n", worker=True)
                registry.observe("v", 1.0)

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert registry.counter_value("n", worker=True) == 40000
        assert registry.histogram("v").count == 40000

    def test_snapshot_shape(self):
        registry = MetricsRegistry()
        registry.inc("c", 2, dbms="redis")
        registry.set_gauge("g", 7)
        registry.observe("h", 3.0)
        snapshot = registry.snapshot()
        assert snapshot["counters"] == [
            {"name": "c", "labels": {"dbms": "redis"}, "value": 2}]
        assert snapshot["gauges"] == [
            {"name": "g", "labels": {}, "value": 7}]
        (histogram,) = snapshot["histograms"]
        assert histogram["name"] == "h" and histogram["count"] == 1
        # Snapshot must be JSON-serializable as-is.
        json.dumps(snapshot)

    def test_null_registry_drops_everything(self):
        registry = NullMetricsRegistry()
        registry.inc("c")
        registry.set_gauge("g", 1)
        registry.add_gauge("g", 1)
        registry.observe("h", 1.0)
        assert not registry.enabled
        assert registry.counter_value("c") == 0
        assert registry.snapshot() == {"counters": [], "gauges": [],
                                       "histograms": []}


class TestTracer:
    def make_nested_trace(self) -> Tracer:
        tracer = Tracer(clock=FakeClock())  # epoch consumes t=0
        with tracer.span("outer", kind="test"):
            with tracer.span("inner.a", idx=1):
                pass
            with tracer.span("inner.b"):
                pass
        return tracer

    def test_span_nesting_and_parents(self):
        tracer = self.make_nested_trace()
        spans = {span["name"]: span for span in tracer.spans}
        assert spans["outer"]["parent"] is None
        assert spans["inner.a"]["parent"] == spans["outer"]["id"]
        assert spans["inner.b"]["parent"] == spans["outer"]["id"]
        # Children complete before the parent records.
        assert [s["name"] for s in tracer.spans] == ["inner.a", "inner.b",
                                                     "outer"]

    def test_span_timing_with_fake_clock(self):
        tracer = self.make_nested_trace()
        spans = {span["name"]: span for span in tracer.spans}
        assert spans["outer"]["start"] == 1.0
        assert spans["outer"]["dur"] == 5.0
        assert spans["inner.a"]["start"] == 2.0
        assert spans["inner.a"]["dur"] == 1.0
        assert spans["inner.b"]["start"] == 4.0

    def test_sibling_spans_have_no_parent_after_pop(self):
        tracer = Tracer(clock=FakeClock())
        with tracer.span("first"):
            pass
        with tracer.span("second"):
            pass
        spans = {span["name"]: span for span in tracer.spans}
        assert spans["second"]["parent"] is None

    def test_chrome_export_matches_golden_file(self, tmp_path):
        tracer = self.make_nested_trace()
        path = tracer.export_chrome(tmp_path / "trace.json")
        produced = json.loads(path.read_text(encoding="utf-8"))
        golden = json.loads(GOLDEN_TRACE.read_text(encoding="utf-8"))
        assert produced == golden

    def test_jsonl_export_round_trips(self, tmp_path):
        tracer = self.make_nested_trace()
        path = tracer.export_jsonl(tmp_path / "trace.jsonl")
        lines = [json.loads(line) for line
                 in path.read_text(encoding="utf-8").splitlines()]
        assert len(lines) == 3
        # Sorted by start time: outer opened first.
        assert lines[0]["name"] == "outer"
        assert {line["name"] for line in lines} == {"outer", "inner.a",
                                                    "inner.b"}

    def test_exception_inside_span_still_records(self):
        tracer = Tracer(clock=FakeClock())
        with pytest.raises(RuntimeError):
            with tracer.span("doomed"):
                raise RuntimeError("boom")
        assert [span["name"] for span in tracer.spans] == ["doomed"]

    def test_null_tracer_collects_nothing(self, tmp_path):
        tracer = NullTracer()
        with tracer.span("ignored", x=1):
            pass
        assert tracer.spans == []
        chrome = tracer.export_chrome(tmp_path / "t.json")
        assert json.loads(chrome.read_text())["traceEvents"] == []


class TestInstallation:
    def test_default_is_null(self):
        telemetry = obs.current()
        assert not telemetry.enabled
        assert not telemetry.metrics.enabled

    def test_install_and_restore(self):
        telemetry = obs.Telemetry(enabled=True)
        with obs.install(telemetry):
            assert obs.current() is telemetry
            obs.current().metrics.inc("x")
        assert obs.current() is obs.NULL_TELEMETRY
        assert telemetry.metrics.counter_value("x") == 1

    def test_install_restores_after_exception(self):
        with pytest.raises(ValueError):
            with obs.install(obs.Telemetry(enabled=True)):
                raise ValueError
        assert obs.current() is obs.NULL_TELEMETRY


class TestManifest:
    def make_manifest(self) -> dict:
        return {
            "schema": obs_report.SCHEMA,
            "generated_at": "2026-08-06T00:00:00+00:00",
            "config": {"seed": 7, "volume_scale": 0.001,
                       "output_dir": "out"},
            "wall_time_seconds": 2.0,
            "phases": {"build_world": 0.5, "replay": 1.5},
            "visits_total": 10,
            "events_total": 42,
            "events_by_type": {"connect": 21, "disconnect": 21},
            "events_by_dbms": {"redis": 42},
            "events_by_interaction": {"medium": 42},
            "events_by_honeypot": {"hp-1": 42},
            "split": {"low": 0, "midhigh": 42},
            "db_rows": {"low": 0, "midhigh": 42},
            "bytes": {"in": 1000, "out": 2000},
            "peak_rss_bytes": 1048576,
            "metrics": {"counters": [], "gauges": [], "histograms": []},
            "trace": {"spans": 3, "path": None},
        }

    def test_write_load_round_trip(self, tmp_path):
        manifest = self.make_manifest()
        path = obs_report.write_report(manifest, tmp_path / "r.json")
        assert obs_report.load_report(path) == manifest

    def test_write_is_atomic(self, tmp_path, monkeypatch):
        # A write that dies part-way leaves the previous manifest
        # intact and no temp file behind.
        path = obs_report.write_report(self.make_manifest(),
                                       tmp_path / "r.json")

        def torn_dump(obj, handle, **kwargs):
            handle.write('{"schema": "repro.run_rep')
            raise OSError("disk full")

        monkeypatch.setattr(obs_report.json, "dump", torn_dump)
        with pytest.raises(OSError, match="disk full"):
            obs_report.write_report({"schema": obs_report.SCHEMA},
                                    path)
        assert obs_report.load_report(path) == self.make_manifest()
        assert [p.name for p in tmp_path.iterdir()] == ["r.json"]

    def test_concurrent_writers_never_tear(self, tmp_path):
        # The live reporter and the driver may write the same manifest
        # from two threads: their temp files must not collide.
        path = tmp_path / "r.json"
        errors = []

        def writer(tag: int) -> None:
            try:
                for index in range(50):
                    obs_report.write_report(
                        {"schema": obs_report.SCHEMA, "tag": tag,
                         "index": index}, path)
                    obs_report.load_report(path)
            except Exception as error:  # surfaced below
                errors.append(error)

        threads = [threading.Thread(target=writer, args=(tag,))
                   for tag in range(2)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert obs_report.load_report(path)["index"] == 49
        assert [p.name for p in tmp_path.iterdir()] == ["r.json"]

    def test_load_rejects_foreign_json(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text('{"hello": "world"}', encoding="utf-8")
        with pytest.raises(ValueError, match="not a run_report"):
            obs_report.load_report(path)

    def test_format_summary_mentions_key_facts(self):
        text = obs_report.format_summary(self.make_manifest())
        assert "replay" in text
        assert "42" in text
        assert "seed=7" in text
        assert "1.0 MiB" in text  # peak RSS
        assert "events by type" in text

    def test_format_summary_tolerates_sparse_manifest(self):
        text = obs_report.format_summary({"schema": obs_report.SCHEMA})
        assert "visits" in text


class TestInstrumentedExperiment:
    @pytest.fixture(scope="class")
    def telemetry_run(self, tmp_path_factory):
        from repro.deployment import ExperimentConfig, run_experiment

        output = tmp_path_factory.mktemp("telemetry-run")
        return run_experiment(ExperimentConfig(
            seed=99, volume_scale=0.0001, output_dir=output,
            telemetry=True, trace_out=output / "trace.json"))

    def test_manifest_event_count_is_exact(self, telemetry_run):
        manifest = telemetry_run.report
        assert manifest["events_total"] == telemetry_run.events_total
        assert sum(manifest["events_by_type"].values()) == \
            telemetry_run.events_total
        assert sum(manifest["events_by_dbms"].values()) == \
            telemetry_run.events_total
        assert sum(manifest["events_by_honeypot"].values()) == \
            telemetry_run.events_total

    def test_split_counts_partition_the_store(self, telemetry_run):
        manifest = telemetry_run.report
        split = manifest["split"]
        assert split["low"] + split["midhigh"] == \
            telemetry_run.events_total
        assert manifest["db_rows"] == split

    def test_phase_times_cover_the_wall_time(self, telemetry_run):
        manifest = telemetry_run.report
        total = sum(manifest["phases"].values())
        assert total <= manifest["wall_time_seconds"]
        assert total >= 0.9 * manifest["wall_time_seconds"]
        for name in ("build_plan", "build_world", "compile_visits",
                     "replay", "split", "convert"):
            assert name in manifest["phases"]

    def test_manifest_written_next_to_databases(self, telemetry_run):
        assert telemetry_run.report_path.name == "run_report.json"
        assert telemetry_run.report_path.parent == \
            telemetry_run.low_db.parent
        loaded = obs_report.load_report(telemetry_run.report_path)
        assert loaded["events_total"] == telemetry_run.events_total

    def test_bytes_and_visits_recorded(self, telemetry_run):
        manifest = telemetry_run.report
        assert manifest["bytes"]["in"] > 0
        assert manifest["bytes"]["out"] > 0
        assert manifest["visits_total"] == telemetry_run.visits_total > 0

    def test_convert_metrics_match_rows(self, telemetry_run):
        counters = {(c["name"], c["labels"].get("db")): c["value"]
                    for c in telemetry_run.report["metrics"]["counters"]}
        assert counters[("convert.rows_written", "low.sqlite")] == \
            telemetry_run.report["db_rows"]["low"]
        assert counters[("convert.rows_written", "midhigh.sqlite")] == \
            telemetry_run.report["db_rows"]["midhigh"]

    def test_chrome_trace_exported(self, telemetry_run):
        document = json.loads(
            telemetry_run.trace_path.read_text(encoding="utf-8"))
        events = document["traceEvents"]
        assert len(events) == telemetry_run.report["trace"]["spans"]
        names = {event["name"] for event in events}
        assert "replay.visit" in names
        assert "convert.enrich" in names

    def test_disabled_run_has_no_report(self, small_experiment):
        assert small_experiment.report is None
        assert small_experiment.report_path is None
        assert not (Path(small_experiment.config.output_dir)
                    / "run_report.json").exists()


class TestClusteringInstrumentation:
    def test_linkage_reports_merge_metrics(self):
        import numpy as np

        from repro.core.clustering import AgglomerativeClustering

        matrix = np.array([[0.0, 0.0], [0.0, 1.0], [4.0, 0.0],
                           [4.0, 1.0]])
        telemetry = obs.Telemetry(enabled=True)
        with obs.install(telemetry):
            model = AgglomerativeClustering(n_clusters=2).fit(matrix)
        assert model.n_clusters_ == 2
        metrics = telemetry.metrics
        assert metrics.counter_value("clustering.linkage_calls",
                                     method="ward") == 1
        assert metrics.counter_value("clustering.merges",
                                     method="ward") == 3
        histogram = metrics.histogram("clustering.linkage_seconds",
                                      method="ward")
        assert histogram is not None and histogram.count == 1
        n_hist = metrics.histogram("clustering.n_clusters", method="ward")
        assert n_hist.max == 2
