"""Tests for the live operations plane: Prometheus exposition, shard
metric deltas (worker-side bookkeeping + driver-side fold), correlated
structured logging, and the crash flight recorder.

The load-bearing invariant here is *delta-merge equivalence*: folding
every delta a shard emitter takes must reconstruct exactly the
registry an end-of-run merge would produce (counters and histograms;
gauges fold by max and are excluded by design).  It is asserted both
synthetically and on randomized workloads.
"""

import io
import json
import os
import random
import signal
import subprocess
import sys
import textwrap
import threading

import pytest

from repro import obs
from repro.obs.exposition import render_prometheus
from repro.obs.flight import FlightRecorder, NullFlightRecorder
from repro.obs.live import (LiveAggregator, ShardEmitter, counters_equal,
                            snapshot_delta)
from repro.obs.logging import (NullOpsLogger, OpsLogger, bind,
                               context_fields)
from repro.obs.metrics import MetricsRegistry


# -- Prometheus exposition --------------------------------------------------

class TestRenderPrometheus:
    def test_counter_gets_total_suffix_and_namespace(self):
        registry = MetricsRegistry()
        registry.inc("tcp.bytes_in", 7, dbms="redis")
        text = render_prometheus(registry)
        assert ('repro_tcp_bytes_in_total{dbms="redis"} 7'
                in text.splitlines())
        assert "# TYPE repro_tcp_bytes_in_total counter" in text

    def test_gauge_rendered_without_total_suffix(self):
        registry = MetricsRegistry()
        registry.set_gauge("open_connections", 3, dbms="mysql")
        text = render_prometheus(registry)
        assert ('repro_open_connections{dbms="mysql"} 3'
                in text.splitlines())
        assert "# TYPE repro_open_connections gauge" in text

    def test_labels_sorted_by_key(self):
        registry = MetricsRegistry()
        registry.inc("x", zebra="z", alpha="a", mid="m")
        line = [l for l in render_prometheus(registry).splitlines()
                if l.startswith("repro_x_total")][0]
        assert line == ('repro_x_total{alpha="a",mid="m",zebra="z"} 1')

    def test_label_values_escaped(self):
        registry = MetricsRegistry()
        registry.inc("x", path='C:\\tmp', quote='say "hi"', nl="a\nb")
        line = [l for l in render_prometheus(registry).splitlines()
                if l.startswith("repro_x_total")][0]
        assert '\\\\tmp' in line
        assert '\\"hi\\"' in line
        assert 'a\\nb' in line
        assert "\n" not in line

    def test_metric_name_sanitized(self):
        registry = MetricsRegistry()
        registry.inc("weird-name.with spaces")
        text = render_prometheus(registry)
        assert "repro_weird_name_with_spaces_total 1" in text

    def test_histogram_bucket_sum_count_invariants(self):
        registry = MetricsRegistry()
        for value in (0.5, 1.5, 3.0, 100.0):
            registry.observe("latency", value, op="get")
        text = render_prometheus(registry)
        lines = text.splitlines()
        buckets = [l for l in lines
                   if l.startswith("repro_latency_bucket")]
        # Cumulative: counts are non-decreasing along the bucket list.
        counts = [int(l.rsplit(" ", 1)[1]) for l in buckets]
        assert counts == sorted(counts)
        # Terminal +Inf bucket equals _count.
        inf_line = [l for l in buckets if 'le="+Inf"' in l][0]
        count_line = [l for l in lines
                      if l.startswith("repro_latency_count")][0]
        assert inf_line.rsplit(" ", 1)[1] == count_line.rsplit(" ", 1)[1]
        assert count_line.endswith(" 4")
        sum_line = [l for l in lines
                    if l.startswith("repro_latency_sum")][0]
        assert float(sum_line.rsplit(" ", 1)[1]) == pytest.approx(105.0)
        assert "# TYPE repro_latency histogram" in lines

    def test_histogram_le_label_composed_with_series_labels(self):
        registry = MetricsRegistry()
        registry.observe("latency", 1.0, op="get")
        bucket = [l for l in render_prometheus(registry).splitlines()
                  if l.startswith("repro_latency_bucket")][0]
        assert bucket.startswith('repro_latency_bucket{op="get",le="')

    def test_accepts_snapshot_dict(self):
        registry = MetricsRegistry()
        registry.inc("events", 3)
        assert (render_prometheus(registry.snapshot())
                == render_prometheus(registry))

    def test_empty_registry_renders_empty(self):
        assert render_prometheus(MetricsRegistry()) == ""

    def test_output_deterministic(self):
        registry = MetricsRegistry()
        for index in range(20):
            registry.inc("events", index, dbms=f"db{index % 3}")
            registry.observe("lat", index * 0.1, op=f"op{index % 2}")
        assert (render_prometheus(registry)
                == render_prometheus(registry))


# -- delta computation ------------------------------------------------------

class TestSnapshotDelta:
    def test_first_delta_is_full_snapshot(self):
        registry = MetricsRegistry()
        registry.inc("events", 5)
        snapshot = registry.snapshot()
        assert snapshot_delta(None, snapshot) is snapshot

    def test_counter_delta_is_difference(self):
        registry = MetricsRegistry()
        registry.inc("events", 5)
        before = registry.snapshot()
        registry.inc("events", 3)
        delta = snapshot_delta(before, registry.snapshot())
        assert delta["counters"] == [
            {"name": "events", "labels": {}, "value": 3}]

    def test_unchanged_series_dropped(self):
        registry = MetricsRegistry()
        registry.inc("steady", 5)
        registry.observe("lat", 1.0)
        before = registry.snapshot()
        registry.inc("busy", 1)
        delta = snapshot_delta(before, registry.snapshot())
        assert [c["name"] for c in delta["counters"]] == ["busy"]
        assert delta["histograms"] == []

    def test_histogram_delta_buckets(self):
        registry = MetricsRegistry()
        registry.observe("lat", 1.0)
        before = registry.snapshot()
        registry.observe("lat", 1.0)
        registry.observe("lat", 64.0)
        (entry,) = snapshot_delta(before,
                                  registry.snapshot())["histograms"]
        assert entry["count"] == 2
        assert entry["sum"] == pytest.approx(65.0)
        assert sum(b["count"] for b in entry["buckets"]) == 2

    def test_gauges_carried_as_state(self):
        registry = MetricsRegistry()
        registry.set_gauge("open", 4)
        before = registry.snapshot()
        registry.set_gauge("open", 2)
        delta = snapshot_delta(before, registry.snapshot())
        assert delta["gauges"] == [
            {"name": "open", "labels": {}, "value": 2}]


class TestDeltaMergeEquivalence:
    def test_folding_deltas_reconstructs_registry(self):
        rng = random.Random(7)
        source = MetricsRegistry()
        folded = MetricsRegistry()
        previous = None
        for _ in range(200):
            match rng.randrange(3):
                case 0:
                    source.inc("events", rng.randint(1, 5),
                               dbms=rng.choice(["redis", "mysql"]))
                case 1:
                    source.observe("latency", rng.random() * 100,
                                   op=rng.choice(["get", "set"]))
                case 2:
                    source.add_gauge("open", rng.choice([-1, 1]))
            if rng.random() < 0.2:
                current = source.snapshot()
                folded.merge(snapshot_delta(previous, current))
                previous = current
        current = source.snapshot()
        folded.merge(snapshot_delta(previous, current))
        assert counters_equal(folded.snapshot(), current)

    def test_multi_shard_fold_equals_end_of_run_merge(self):
        rng = random.Random(11)
        aggregator = LiveAggregator()
        merged = MetricsRegistry()
        for shard in range(4):
            registry = MetricsRegistry()
            emitter = ShardEmitter(registry, interval=1.0, now=0.0)
            seq = 0
            for step in range(1, 51):
                registry.inc("events", rng.randint(1, 3), shard=shard)
                registry.observe("lat", rng.random(), shard=shard)
                final = step == 50
                delta = emitter.take(step * 0.3, final=final)
                if delta is not None:
                    seq += 1
                    aggregator.fold({"shard": shard, "seq": seq,
                                     "visits": step, "events": step,
                                     "metrics": delta, "done": final})
            merged.merge(registry)
        assert counters_equal(aggregator.snapshot(), merged.snapshot())
        progress = aggregator.progress()
        assert progress["shards_done"] == 4
        assert progress["visits"] == 200

    def test_counters_equal_detects_difference(self):
        left = MetricsRegistry()
        right = MetricsRegistry()
        left.inc("events", 2)
        right.inc("events", 3)
        assert not counters_equal(left.snapshot(), right.snapshot())

    def test_counters_equal_ignores_gauges(self):
        left = MetricsRegistry()
        right = MetricsRegistry()
        left.set_gauge("open", 9)
        right.set_gauge("open", 1)
        assert counters_equal(left.snapshot(), right.snapshot())


# -- emitter / aggregator ---------------------------------------------------

class TestShardEmitter:
    def test_emits_on_interval(self):
        registry = MetricsRegistry()
        emitter = ShardEmitter(registry, interval=1.0, now=10.0)
        registry.inc("events", 3)
        assert emitter.take(10.5) is None  # interval not yet elapsed
        first = emitter.take(11.0)
        assert first["counters"][0]["value"] == 3
        registry.inc("events", 2)
        assert emitter.take(11.9) is None  # measured from the last delta
        second = emitter.take(12.0)
        assert second["counters"][0]["value"] == 2
        assert emitter.take(20.0)["counters"] == []  # nothing new

    def test_flush_marks_done_and_streams_remainder(self):
        registry = MetricsRegistry()
        emitter = ShardEmitter(registry, interval=1.0, now=0.0)
        registry.inc("events", 4)
        deltas = [emitter.take(1.0)]
        registry.inc("events", 1)
        registry.observe("lat", 0.5)
        assert emitter.take(1.5) is None
        # The final delta ignores the interval and carries everything
        # not yet shipped.
        deltas.append(emitter.take(1.5, final=True))
        assert deltas[1]["counters"][0]["value"] == 1
        folded = MetricsRegistry()
        for delta in deltas:
            folded.merge(delta)
        assert counters_equal(folded.snapshot(), registry.snapshot())


class TestLiveAggregator:
    def test_progress_totals(self):
        aggregator = LiveAggregator()
        aggregator.fold({"shard": 0, "seq": 2, "visits": 10,
                         "events": 30, "metrics": {}, "done": False})
        aggregator.fold({"shard": 1, "seq": 1, "visits": 5,
                         "events": 7, "metrics": {}, "done": True})
        progress = aggregator.progress()
        assert progress["visits"] == 15
        assert progress["events"] == 37
        assert progress["emissions"] == 3
        assert progress["shards_done"] == 1
        assert progress["per_shard"][0]["visits"] == 10

    def test_later_message_replaces_shard_state(self):
        aggregator = LiveAggregator()
        aggregator.fold({"shard": 0, "seq": 1, "visits": 5,
                         "events": 5, "metrics": {}, "done": False})
        aggregator.fold({"shard": 0, "seq": 2, "visits": 9,
                         "events": 11, "metrics": {}, "done": True})
        progress = aggregator.progress()
        assert progress["visits"] == 9
        assert progress["shards_done"] == 1


# -- structured logging -----------------------------------------------------

class TestOpsLogger:
    def test_records_are_json_lines_with_context(self):
        stream = io.StringIO()
        logger = OpsLogger(clock=lambda: 123.456)
        logger.attach_stream(stream)
        with bind(run_id="r1", shard=3):
            logger.info("shard.start", visits=10)
        record = json.loads(stream.getvalue())
        assert record == {"ts": 123.456, "level": "info",
                          "event": "shard.start", "run_id": "r1",
                          "shard": 3, "visits": 10}

    def test_nested_binds_shadow_and_restore(self):
        with bind(run_id="outer"):
            with bind(run_id="inner", session_id="s9"):
                assert context_fields() == {"run_id": "inner",
                                            "session_id": "s9"}
            assert context_fields() == {"run_id": "outer"}
        assert context_fields() == {}

    def test_attach_path_appends_and_close_releases(self, tmp_path):
        path = tmp_path / "ops.jsonl"
        logger = OpsLogger()
        logger.attach_path(path)
        logger.info("one")
        logger.close()
        logger2 = OpsLogger()
        logger2.attach_path(path)
        logger2.warning("two")
        logger2.close()
        events = [json.loads(line)["event"]
                  for line in path.read_text().splitlines()]
        assert events == ["one", "two"]

    def test_recorder_receives_every_record(self):
        seen = []
        logger = OpsLogger()
        logger.attach_recorder(seen.append)
        logger.error("bad", detail="x")
        assert seen[0]["event"] == "bad"
        assert seen[0]["level"] == "error"

    def test_level_helpers(self):
        stream = io.StringIO()
        logger = OpsLogger()
        logger.attach_stream(stream)
        logger.info("a")
        logger.warning("b")
        logger.error("c")
        levels = [json.loads(line)["level"]
                  for line in stream.getvalue().splitlines()]
        assert levels == ["info", "warning", "error"]

    def test_null_logger_is_silent(self, tmp_path):
        logger = NullOpsLogger()
        logger.attach_path(tmp_path / "never.jsonl")
        logger.info("anything")
        assert not (tmp_path / "never.jsonl").exists()
        assert logger.records == 0

    def test_telemetry_wires_logger_into_flight(self):
        telemetry = obs.Telemetry(enabled=True)
        telemetry.logger.info("hello", n=1)
        kinds = [r.get("event") for r in telemetry.flight.records()]
        assert "hello" in kinds

    def test_disabled_telemetry_uses_null_logger(self):
        telemetry = obs.Telemetry(enabled=False)
        assert isinstance(telemetry.logger, NullOpsLogger)
        assert isinstance(telemetry.flight, NullFlightRecorder)


# -- flight recorder --------------------------------------------------------

class TestFlightRecorder:
    def test_ring_is_bounded_keeps_latest(self):
        recorder = FlightRecorder(capacity=3)
        for index in range(10):
            recorder.record({"n": index})
        assert [r["n"] for r in recorder.records()] == [7, 8, 9]
        assert recorder.recorded == 10

    def test_dump_header_and_records(self, tmp_path):
        recorder = FlightRecorder(capacity=4, clock=lambda: 99.0)
        recorder.record({"n": 1})
        path = recorder.dump(tmp_path / "flight.jsonl", reason="test")
        lines = [json.loads(line)
                 for line in path.read_text().splitlines()]
        assert lines[0]["kind"] == "flight_header"
        assert lines[0]["reason"] == "test"
        assert lines[0]["records"] == 1
        assert lines[0]["pid"] == os.getpid()
        assert lines[1] == {"n": 1}

    def test_armed_dumps_on_exception_and_reraises(self, tmp_path):
        recorder = FlightRecorder()
        recorder.record({"n": 1})
        path = tmp_path / "flight.jsonl"
        with pytest.raises(ValueError, match="boom"):
            with recorder.armed(path):
                raise ValueError("boom")
        header = json.loads(path.read_text().splitlines()[0])
        assert header["reason"] == "ValueError: boom"
        assert recorder.dumps == 1

    def test_armed_clean_exit_writes_nothing(self, tmp_path):
        recorder = FlightRecorder()
        path = tmp_path / "flight.jsonl"
        with recorder.armed(path):
            recorder.record({"n": 1})
        assert not path.exists()
        assert recorder.dumps == 0

    def test_record_span_keeps_compact_summary(self):
        recorder = FlightRecorder()
        recorder.record_span({"id": 7, "parent": None, "name": "x",
                              "start": 1.0, "dur": 0.5, "thread": 1,
                              "attrs": {"a": 1}})
        (record,) = recorder.records()
        assert record == {"kind": "span", "name": "x", "start": 1.0,
                          "dur": 0.5, "attrs": {"a": 1}}

    def test_sigterm_dumps_then_dies(self, tmp_path):
        path = tmp_path / "flight.jsonl"
        script = textwrap.dedent(f"""
            import os, signal, sys, time
            from repro.obs.flight import FlightRecorder
            recorder = FlightRecorder()
            recorder.record({{"n": 42}})
            with recorder.armed({str(path)!r}):
                print("armed", flush=True)
                time.sleep(30)
        """)
        env = dict(os.environ, PYTHONPATH="src")
        proc = subprocess.Popen([sys.executable, "-c", script],
                                stdout=subprocess.PIPE, env=env,
                                cwd=os.path.dirname(
                                    os.path.dirname(__file__)))
        assert proc.stdout.readline().strip() == b"armed"
        proc.send_signal(signal.SIGTERM)
        proc.wait(timeout=30)
        assert proc.returncode == -signal.SIGTERM
        lines = [json.loads(line)
                 for line in path.read_text().splitlines()]
        assert lines[0]["reason"] == f"signal:{signal.SIGTERM}"
        assert lines[1] == {"n": 42}

    def test_armed_in_worker_thread_skips_signal_handler(self, tmp_path):
        recorder = FlightRecorder()
        path = tmp_path / "flight.jsonl"
        failures = []

        def worker():
            try:
                with recorder.armed(path):
                    pass
            except Exception as error:  # pragma: no cover
                failures.append(error)

        thread = threading.Thread(target=worker)
        thread.start()
        thread.join()
        assert failures == []

    def test_null_recorder_never_dumps(self, tmp_path):
        recorder = NullFlightRecorder()
        recorder.record({"n": 1})
        assert recorder.records() == []
        with pytest.raises(RuntimeError):
            with recorder.armed(tmp_path / "f.jsonl"):
                raise RuntimeError("x")
        assert not (tmp_path / "f.jsonl").exists()
