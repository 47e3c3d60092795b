"""Sharded replay must be observationally identical to serial replay.

The whole point of :class:`ShardedExecutor` is that ``--workers N`` is
purely an execution detail: same seed in, same events out, same
databases, same chaos accounting.  These tests pin that guarantee at
three levels -- raw outcome streams, full experiment artifacts, and
fault-injected runs -- plus the static shard-assignment properties the
guarantee rests on.
"""

import hashlib
import json
import multiprocessing
import os
import signal
import sqlite3
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro import obs
from repro.agents.population import build_world
from repro.deployment import ExperimentConfig, run_experiment
from repro.deployment.plan import build_plan
from repro.deployment import replay as replay_module
from repro.deployment.replay import (OpsOptions, SerialExecutor,
                                     ShardedExecutor, WorkerLostError,
                                     build_engine, compile_visits, shard_of)
from repro.obs.live import LiveAggregator
from repro.resilience import faults
from repro.runtime.journal import journal_path

SCALE = 0.0002
SEED = 2024
REPO_ROOT = Path(__file__).resolve().parents[1]


def fresh_schedule():
    """A new plan and its compiled schedule (honeypots mutate during
    replay, so every engine run needs its own)."""
    plan = build_plan(seed=SEED)
    world = build_world(seed=SEED, volume_scale=0.0001)
    return plan, compile_visits(world, plan, SEED)


def table_digests(db_path) -> dict[str, str]:
    """Order-insensitive content digest per table, ignoring the
    autoincrement ``id`` (insertion order is pipeline-arrival order,
    which sharding is allowed to change -- content is not)."""
    digests = {}
    with sqlite3.connect(db_path) as connection:
        tables = [row[0] for row in connection.execute(
            "SELECT name FROM sqlite_master WHERE type='table'"
            " AND name NOT LIKE 'sqlite_%'")]
        for table in tables:
            columns = [row[1] for row in connection.execute(
                f"PRAGMA table_info({table})") if row[1] != "id"]
            selected = ", ".join(columns)
            rows = sorted(
                repr(row) for row in connection.execute(
                    f"SELECT {selected} FROM {table}"))
            digest = hashlib.sha256()
            for row in rows:
                digest.update(row.encode("utf-8"))
            digests[table] = digest.hexdigest()
    return digests


def run(tmp_path, *, workers=1, fault_plan=None, seed=SEED):
    return run_experiment(ExperimentConfig(
        seed=seed, volume_scale=SCALE, output_dir=tmp_path,
        telemetry=True, workers=workers, fault_plan=fault_plan))


@pytest.fixture(scope="module")
def serial(tmp_path_factory):
    return run(tmp_path_factory.mktemp("serial"))


@pytest.fixture(scope="module")
def sharded(tmp_path_factory):
    return run(tmp_path_factory.mktemp("sharded"), workers=4)


class TestShardAssignment:
    def test_stable_and_in_range(self):
        keys = [f"vm-multi-{i:02d}:mysql" for i in range(50)]
        first = [shard_of(key, 4) for key in keys]
        second = [shard_of(key, 4) for key in keys]
        assert first == second
        assert all(0 <= shard < 4 for shard in first)
        # All shards actually receive work.
        assert set(first) == {0, 1, 2, 3}

    def test_single_worker_maps_everything_to_shard_zero(self):
        assert shard_of("anything", 1) == 0

    def test_engine_resolution(self):
        assert isinstance(build_engine(1), SerialExecutor)
        engine = build_engine(4)
        assert isinstance(engine, ShardedExecutor)
        assert engine.workers == 4
        assert isinstance(build_engine(4, "serial"), SerialExecutor)
        with pytest.raises(ValueError):
            build_engine(0)
        with pytest.raises(ValueError):
            build_engine(2, "gpu")

    def test_resolve_workers_auto_matches_cores(self, capsys):
        from repro.deployment import resolve_workers

        assert resolve_workers("auto", cores=4) == 4
        assert resolve_workers("auto", cores=1) == 1
        assert resolve_workers("3", cores=8) == 3
        assert resolve_workers(2, cores=2) == 2
        assert capsys.readouterr().err == ""

    def test_resolve_workers_warns_on_single_core_sharding(self, capsys):
        from repro.deployment import resolve_workers

        assert resolve_workers(4, cores=1) == 4  # honored, but warned
        assert "single-core" in capsys.readouterr().err

    def test_resolve_workers_rejects_garbage(self):
        from repro.deployment import resolve_workers

        with pytest.raises(ValueError):
            resolve_workers("fast")
        with pytest.raises(ValueError):
            resolve_workers(0)


class TestOutcomeStreamEquality:
    def test_sharded_stream_matches_serial_exactly(self):
        # Engine-level check at a tiny scale: the merged sharded stream
        # must equal serial replay outcome-for-outcome, events included
        # (LogEvent is a frozen dataclass, so == is full field equality).
        telemetry = obs.NULL_TELEMETRY
        plan, schedule = fresh_schedule()
        reference = list(SerialExecutor().replay(schedule, plan, SEED,
                                                 telemetry))
        plan, schedule = fresh_schedule()
        merged = list(ShardedExecutor(2, pool="thread").replay(
            schedule, plan, SEED, telemetry))

        assert [o.key for o in merged] == [o.key for o in reference]
        assert [o.events for o in merged] == [o.events for o in reference]
        assert ([(o.bytes_in, o.bytes_out, o.failure) for o in merged]
                == [(o.bytes_in, o.bytes_out, o.failure)
                    for o in reference])


class TestFastForward:
    def test_watermark_resume_matches_unresumed_suffix(self):
        # Engine-level resume: visits at or below a mid-schedule
        # watermark fast-forward (committed, events stripped, counts
        # kept); the live suffix must equal an unresumed replay's.
        telemetry = obs.NULL_TELEMETRY
        plan, schedule = fresh_schedule()
        reference = list(SerialExecutor().replay(schedule, plan, SEED,
                                                 telemetry))
        watermark = reference[len(reference) // 2].key
        expected_suffix = [(o.events, o.bytes_in, o.bytes_out, o.failure)
                           for o in reference if o.key > watermark]
        assert expected_suffix and any(o.events for o in reference
                                       if o.key <= watermark)

        for engine in (SerialExecutor(), ShardedExecutor(2, pool="thread")):
            plan, schedule = fresh_schedule()
            outcomes = list(engine.replay(
                schedule, plan, SEED, telemetry,
                OpsOptions(watermark=watermark)))
            assert [o.key for o in outcomes] == [o.key for o in reference]
            assert ([o.committed for o in outcomes]
                    == [o.key <= watermark for o in reference])
            assert ([o.event_total() for o in outcomes]
                    == [o.event_total() for o in reference])
            assert all(o.events == [] for o in outcomes if o.committed)
            assert [(o.events, o.bytes_in, o.bytes_out, o.failure)
                    for o in outcomes if not o.committed] \
                == expected_suffix


#: A fork-pool checkpointed run whose driver fails on the 50th sink
#: batch, while both workers are still streaming outcomes.
_DRIVER_FAILURE = """
import sys
from repro.deployment import ExperimentConfig, run_experiment
from repro.pipeline.sinks import TeeSink

many = TeeSink.many
calls = 0

def failing_many(self, events):
    global calls
    calls += 1
    if calls == 50:
        raise RuntimeError("injected driver-side failure")
    many(self, events)

TeeSink.many = failing_many
run_experiment(ExperimentConfig(
    seed=2024, volume_scale=2e-5, output_dir=sys.argv[1], workers=2,
    executor="sharded", pool="fork", checkpoint_interval=1.0))
"""


#: A fork-pool replay whose workers each write the header and half the
#: payload of their first pipe message, then SIGKILL themselves.
_TORN_FRAME = """
import os, signal, struct, sys, time
from multiprocessing import connection
from repro import obs
from repro.agents.population import build_world
from repro.deployment.plan import build_plan
from repro.deployment.replay import (ShardedExecutor, WorkerLostError,
                                     compile_visits)

DRIVER = os.getpid()
send_bytes = connection.Connection._send_bytes

def torn_send(self, buf):
    if os.getpid() == DRIVER:
        return send_bytes(self, buf)
    payload = bytes(buf)
    self._send(struct.pack("!i", len(payload))
               + payload[:len(payload) // 2])
    os.kill(os.getpid(), signal.SIGKILL)

connection.Connection._send_bytes = torn_send
plan = build_plan(seed=2024)
schedule = compile_visits(build_world(seed=2024, volume_scale=2e-5),
                          plan, 2024)
start = time.monotonic()
try:
    for _ in ShardedExecutor(2, pool="fork").replay(
            schedule, plan, 2024, obs.NULL_TELEMETRY):
        pass
except WorkerLostError:
    print(f"lost after {time.monotonic() - start:.3f}")
"""

#: A telemetry fork-pool run that leaves a note per flight recorder
#: arming (``armed.<pid>`` holding the dump file's name, in argv[2])
#: and logs every flight dump as ``<pid> <file name>``.
_NOTED_FLIGHT = """
import os, sys
from pathlib import Path
from repro.deployment import ExperimentConfig, run_experiment
from repro.obs.flight import FlightRecorder

notes = Path(sys.argv[2])
armed, dump = FlightRecorder.armed, FlightRecorder.dump

def noted_armed(self, path, **kwargs):
    (notes / f"armed.{os.getpid()}").write_text(Path(path).name)
    return armed(self, path, **kwargs)

def noted_dump(self, path, **kwargs):
    with open(notes / "dumps.log", "a") as log:
        log.write(f"{os.getpid()} {Path(path).name}\\n")
    return dump(self, path, **kwargs)

FlightRecorder.armed, FlightRecorder.dump = noted_armed, noted_dump
run_experiment(ExperimentConfig(
    seed=2024, volume_scale=2e-4, output_dir=sys.argv[1], telemetry=True,
    workers=2, executor="sharded", pool="fork"))
"""


def _group_members(pgid: int) -> list[int]:
    """Live (non-zombie) processes in process group ``pgid``."""
    members = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[2]) == pgid and fields[0] != "Z":
            members.append(int(stat.parent.name))
    return members


needs_fork_and_proc = pytest.mark.skipif(
    "fork" not in __import__("multiprocessing").get_all_start_methods()
    or not Path("/proc/self/stat").exists(),
    reason="needs the fork start method and /proc")


class TestEarlyExit:
    @needs_fork_and_proc
    def test_driver_error_in_fork_pool_exits(self, tmp_path):
        # The driver stops reading the outcome queue mid-run; the run
        # must still fail promptly and take its workers with it.
        env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
        proc = subprocess.Popen(
            [sys.executable, "-c", _DRIVER_FAILURE, str(tmp_path)],
            env=env, cwd=REPO_ROOT, stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, start_new_session=True)
        try:
            _, stderr = proc.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            pytest.fail("run hung after a driver-side error")
        assert proc.returncode != 0
        assert b"injected driver-side failure" in stderr
        deadline = time.monotonic() + 5.0
        while _group_members(proc.pid) and time.monotonic() < deadline:
            time.sleep(0.1)
        leftover = _group_members(proc.pid)
        for pid in leftover:
            os.kill(pid, signal.SIGKILL)
        assert leftover == []

    @needs_fork_and_proc
    def test_sigkilled_driver_takes_its_workers_with_it(self, tmp_path):
        # A SIGKILLed driver cannot shut its fork pool down; the workers
        # must notice on their own and exit.
        env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "run", "--seed", str(SEED),
             "--scale", str(SCALE), "--output", str(tmp_path),
             "--workers", "2", "--checkpoint-interval", "0.2"],
            env=env, cwd=REPO_ROOT, stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL, start_new_session=True)
        journal = journal_path(tmp_path)
        try:
            deadline = time.monotonic() + 120.0
            while not (journal.exists() and '"kind":"checkpoint"'
                       in journal.read_text(encoding="utf-8")):
                assert proc.poll() is None, "run ended before a checkpoint"
                assert time.monotonic() < deadline, "no checkpoint taken"
                time.sleep(0.02)
            os.kill(proc.pid, signal.SIGKILL)  # the driver only
            proc.wait(timeout=30)
            deadline = time.monotonic() + 15.0
            while _group_members(proc.pid) and time.monotonic() < deadline:
                time.sleep(0.1)
            leftover = _group_members(proc.pid)
        finally:
            for pid in _group_members(proc.pid):
                os.kill(pid, signal.SIGKILL)
        assert leftover == []


    @needs_fork_and_proc
    @pytest.mark.parametrize("attempt", range(3))
    def test_torn_frame_from_a_dead_worker_is_a_worker_loss(
            self, tmp_path, attempt):
        # A worker SIGKILLed in the middle of a message must surface as
        # WorkerLostError, not leave the driver blocked in the read.
        env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
        proc = subprocess.Popen(
            [sys.executable, "-c", _TORN_FRAME], env=env, cwd=tmp_path,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            start_new_session=True)
        try:
            stdout, stderr = proc.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            pytest.fail("driver hung on a torn frame")
        assert proc.returncode == 0, stderr.decode()
        assert stdout.startswith(b"lost after "), stdout
        assert float(stdout.split()[-1]) < 5.0
        deadline = time.monotonic() + 5.0
        while _group_members(proc.pid) and time.monotonic() < deadline:
            time.sleep(0.1)
        leftover = _group_members(proc.pid)
        for pid in leftover:
            os.kill(pid, signal.SIGKILL)
        assert leftover == []

    @needs_fork_and_proc
    def test_sigtermed_worker_dumps_only_its_own_flight_record(
            self, tmp_path):
        out, notes = tmp_path / "run", tmp_path / "notes"
        notes.mkdir()
        env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
        proc = subprocess.Popen(
            [sys.executable, "-c", _NOTED_FLIGHT, str(out), str(notes)],
            env=env, cwd=REPO_ROOT, stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL, start_new_session=True)
        try:
            deadline = time.monotonic() + 120.0
            while True:
                shard_notes = [
                    note for note in notes.glob("armed.*")
                    if note.read_text().startswith("flight_shard")]
                if shard_notes:
                    break
                assert proc.poll() is None, "run ended before a shard"
                assert time.monotonic() < deadline, "no shard armed"
                time.sleep(0.02)
            worker = int(shard_notes[0].suffix[1:])
            dump_name = shard_notes[0].read_text()
            time.sleep(0.2)
            os.kill(worker, signal.SIGTERM)
            proc.wait(timeout=60)
        finally:
            for pid in _group_members(proc.pid):
                os.kill(pid, signal.SIGKILL)
        assert proc.returncode != 0  # the driver lost a worker
        header = json.loads(
            (out / dump_name).read_text().splitlines()[0])
        assert header["pid"] == worker
        assert header["reason"] == f"signal:{int(signal.SIGTERM)}"
        dumps = (notes / "dumps.log").read_text().splitlines()
        assert f"{worker} flight_driver.jsonl" not in dumps
        driver_dump = out / "flight_driver.jsonl"
        if driver_dump.exists():
            driver_header = json.loads(
                driver_dump.read_text().splitlines()[0])
            assert driver_header["pid"] == proc.pid


class TestWorkerError:
    @pytest.mark.parametrize("pool", [
        "thread",
        pytest.param("fork", marks=pytest.mark.skipif(
            "fork" not in multiprocessing.get_all_start_methods(),
            reason="needs the fork start method"))])
    def test_worker_error_is_reraised_not_lost(self, pool, monkeypatch):
        visits = replay_module._visits

        def failing_visits(plan, schedule, *args, **kwargs):
            failing = shard_of(schedule[0][3].target_key, 2) == 1
            for number, outcome in enumerate(
                    visits(plan, schedule, *args, **kwargs)):
                if failing and number == 5:
                    raise RuntimeError("boom")
                yield outcome

        # Fork workers inherit the patched module.
        monkeypatch.setattr(replay_module, "_visits", failing_visits)
        plan, schedule = fresh_schedule()
        start = time.monotonic()
        with pytest.raises(RuntimeError) as caught:
            for _ in ShardedExecutor(2, pool=pool).replay(
                    schedule, plan, SEED, obs.NULL_TELEMETRY):
                pass
        assert time.monotonic() - start < 10.0
        assert not isinstance(caught.value, WorkerLostError)
        assert "boom" in str(caught.value)
        assert "shard 1" in str(caught.value)
        assert multiprocessing.active_children() == []
        assert [thread for thread in threading.enumerate()
                if "_shard_worker" in thread.name] == []


class TestExperimentEquality:
    def test_same_event_totals(self, serial, sharded):
        assert sharded.events_total == serial.events_total
        assert sharded.events_generated == serial.events_generated
        assert sharded.visits_total == serial.visits_total

    def test_identical_databases_both_tiers(self, serial, sharded):
        assert (table_digests(sharded.low_db)
                == table_digests(serial.low_db))
        assert (table_digests(sharded.midhigh_db)
                == table_digests(serial.midhigh_db))

    def test_manifest_records_shards(self, sharded):
        replay = sharded.report["replay"]
        assert replay["executor"] == "sharded"
        assert replay["workers"] == 4
        assert len(replay["shards"]) == 4
        assert (sum(shard["visits"] for shard in replay["shards"])
                == sharded.visits_total)
        assert (sum(shard["events"] for shard in replay["shards"])
                == sharded.events_generated)
        assert sharded.report["config"]["workers"] == 4

    def test_serial_manifest_records_engine_too(self, serial):
        replay = serial.report["replay"]
        assert replay["executor"] == "serial"
        assert replay["workers"] == 1
        assert serial.report["config"]["workers"] == 1


class TestChaosEquality:
    @pytest.fixture(scope="class")
    def chaos_pair(self, tmp_path_factory):
        serial = run(tmp_path_factory.mktemp("chaos-serial"),
                     fault_plan=faults.load_plan("visit-crash", seed=SEED))
        sharded = run(tmp_path_factory.mktemp("chaos-sharded"), workers=4,
                      fault_plan=faults.load_plan("visit-crash", seed=SEED))
        return serial, sharded

    def test_identical_chaos_accounting(self, chaos_pair):
        serial, sharded = chaos_pair
        assert sharded.quarantined_visits > 0
        assert sharded.events_total == serial.events_total
        assert sharded.events_generated == serial.events_generated
        assert sharded.events_quarantined == serial.events_quarantined
        assert sharded.quarantined_visits == serial.quarantined_visits
        assert sharded.conservation_ok and serial.conservation_ok

    def test_identical_fault_decisions(self, chaos_pair):
        serial, sharded = chaos_pair
        assert (sharded.config.fault_plan.snapshot()
                == serial.config.fault_plan.snapshot())

    def test_same_visits_reach_the_dead_letter(self, chaos_pair):
        serial, sharded = chaos_pair
        from repro.resilience import read_dead_letters

        def quarantined(result):
            return sorted((r["actor"], r["seq"], r["target"])
                          for r in read_dead_letters(
                              result.quarantine_path))

        assert quarantined(sharded) == quarantined(serial)

    def test_identical_databases_under_chaos(self, chaos_pair):
        serial, sharded = chaos_pair
        assert (table_digests(sharded.low_db)
                == table_digests(serial.low_db))
        assert (table_digests(sharded.midhigh_db)
                == table_digests(serial.midhigh_db))


class TestLiveShardedEquality:
    """A live-telemetry run is still byte-identical to serial: metric
    deltas only observe the worker registries, so shipping them with
    the outcomes, progress lines, and partial snapshots must not
    perturb replay."""

    @pytest.fixture(scope="class")
    def live(self, tmp_path_factory):
        output = tmp_path_factory.mktemp("live-sharded")
        return run_experiment(ExperimentConfig(
            seed=SEED, volume_scale=SCALE, output_dir=output,
            telemetry=True, workers=4, live_interval=0.01))

    def test_identical_databases_with_live_bus(self, serial, live):
        assert live.events_total == serial.events_total
        assert table_digests(live.low_db) == table_digests(serial.low_db)
        assert (table_digests(live.midhigh_db)
                == table_digests(serial.midhigh_db))

    def test_delta_merge_invariant_holds(self, live):
        stats = live.report["replay"]["live"]
        assert stats["emissions"] >= 4  # at least one flush per shard
        assert stats["equals_merged"] is True

    def test_manifest_live_section(self, live):
        section = live.report["live"]
        assert section["emissions"] >= 4
        assert section["progress_lines"] >= 1
        assert section["partial_snapshots"] >= 1
        assert live.report["config"]["live_interval"] == 0.01

    def test_run_id_correlates_manifest_and_ops_log(self, live):
        import json as json_module

        run_id = live.report["run_id"]
        assert len(run_id) == 12
        ops_path = live.config.output_dir / "ops.jsonl"
        records = [json_module.loads(line)
                   for line in ops_path.read_text().splitlines()]
        events = {record["event"] for record in records}
        assert {"run.start", "run.done"} <= events
        assert all(record["run_id"] == run_id for record in records
                   if "run_id" in record)
        # The driver-side records all carry the run correlation id.
        assert all("run_id" in record for record in records
                   if record["event"].startswith("run."))

    def test_no_flight_dumps_on_clean_run(self, live):
        dumps = list(live.config.output_dir.glob("flight*"))
        assert dumps == []

    def test_aggregator_progress_matches_shard_stats(self):
        # The driver counts per-shard progress from the outcomes it
        # receives; at the end it must agree with the manifest's shards.
        plan, schedule = fresh_schedule()
        engine = ShardedExecutor(3, pool="thread")
        aggregator = LiveAggregator()
        telemetry = obs.Telemetry(enabled=True)
        with obs.install(telemetry):
            outcomes = list(engine.replay(
                schedule, plan, SEED, telemetry,
                OpsOptions(live=True, emit_interval=0.0,
                           aggregator=aggregator)))
        progress = aggregator.progress()
        assert progress["shards_done"] == 3
        assert {shard: (state["visits"], state["events"])
                for shard, state in progress["per_shard"].items()} == {
            shard["shard"]: (shard["visits"], shard["events"])
            for shard in engine.stats["shards"]}
        assert progress["visits"] == len(outcomes) == len(schedule)
        assert engine.stats["live"]["equals_merged"] is True

    def test_partial_write_failures_are_advisory(self, serial, tmp_path,
                                                 monkeypatch):
        # The journal is what a resume trusts; a partial manifest that
        # cannot be written must not stop the run.
        from repro.obs import report as obs_report

        write = obs_report.write_report

        def failing_write(manifest, path):
            if manifest.get("partial"):
                raise OSError("disk full (injected)")
            return write(manifest, path)

        monkeypatch.setattr(obs_report, "write_report", failing_write)
        result = run_experiment(ExperimentConfig(
            seed=SEED, volume_scale=SCALE, output_dir=tmp_path,
            telemetry=True, workers=2, pool="thread", live_interval=0.01,
            checkpoint_interval=0.05))
        assert result.checkpoints_taken >= 1
        assert result.report["partial"] is False
        assert json.loads((tmp_path / "run_report.json").read_text(
            encoding="utf-8"))["partial"] is False
        assert table_digests(result.low_db) == table_digests(serial.low_db)
        assert (table_digests(result.midhigh_db)
                == table_digests(serial.midhigh_db))
        failures = [line for line in (tmp_path / "ops.jsonl").read_text(
            encoding="utf-8").splitlines()
            if '"report.partial_failed"' in line]
        assert failures

    def test_plain_sharded_run_has_no_live_section(self, sharded):
        assert sharded.report["replay"]["live"] is None
        assert sharded.report["live"] is None
