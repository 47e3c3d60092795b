"""Crash-safe runs: the journal, the commit barrier, and kill-resume.

The contract under test: a checkpointed run that dies -- ``kill -9``,
worker SIGKILL, anything -- can be continued with ``repro run --resume``
and the finished artifacts (database contents, raw logs, dead letter,
chaos accounting, conservation) are **byte-identical** to a run that was
never interrupted, at any worker count.  The supporting invariants:

* the journal only ever under-claims (``checkpoint => durable``): a
  torn tail line is a benign crash artifact, anything else is
  corruption and strict resume refuses,
* resume validation re-derives the chained content digest of each
  database's committed prefix and truncates every output back to its
  checkpoint before appending,
* ``--checkpoint-interval 0`` (the default) leaves no journal and no
  fsync barriers behind.
"""

import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.deployment import ExperimentConfig, run_experiment
from repro.deployment.checkpoint import (ResumeError, ResumeUnnecessary,
                                         prepare_resume)
from repro.deployment.replay import WorkerLostError
from repro.netsim.address_space import AddressSpace
from repro.netsim.asdb import ASType
from repro.netsim.geoip import GeoIPDatabase
from repro.pipeline.convert import (DIGEST_SEED, chain_digest,
                                    prefix_digest, truncate_events)
from repro.pipeline.logstore import LogEvent
from repro.pipeline.sinks import RawLogSink, SQLiteWriterSink
from repro.resilience import faults
from repro.resilience.deadletter import DeadLetterWriter, read_dead_letters
from repro.runtime.journal import (JournalCorrupt, JournalError,
                                   RunJournal, journal_path, read_journal)
from tests.test_replay_sharded import table_digests

SEED = 2024
SCALE = 0.0001

REPO_ROOT = Path(__file__).resolve().parent.parent


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
    from repro.pipeline.institutional import InstitutionalScannerList

    return GeoIPDatabase.from_address_space(space), \
        InstitutionalScannerList()


# ---------------------------------------------------------------------------
# The run journal


class TestRunJournal:
    def test_round_trip(self, tmp_path):
        with RunJournal.create(tmp_path, {"run_id": "r1", "seed": 7}) \
                as journal:
            assert journal.checkpoint({"watermark": [1.0, "a", 0]}) == 0
            assert journal.checkpoint({"watermark": [2.0, "b", 1]}) == 1
            journal.complete({"visits": 2})
        view = read_journal(tmp_path)
        assert view.header["run_id"] == "r1"
        assert [c["seq"] for c in view.checkpoints] == [0, 1]
        assert view.complete["visits"] == 2
        assert not view.torn_tail and view.dropped == 0

    def test_missing_journal_raises(self, tmp_path):
        with pytest.raises(JournalError, match="checkpoint-interval"):
            read_journal(tmp_path)

    def test_torn_tail_is_dropped_silently(self, tmp_path):
        with RunJournal.create(tmp_path, {"run_id": "r1"}) as journal:
            journal.checkpoint({"n": 1})
        path = journal_path(tmp_path)
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"kind":"checkpoint","seq":1,"tr')  # no \n
        view = read_journal(tmp_path)  # strict mode
        assert view.torn_tail
        assert len(view.checkpoints) == 1

    def test_garbage_middle_line_is_corruption(self, tmp_path):
        with RunJournal.create(tmp_path, {"run_id": "r1"}) as journal:
            journal.checkpoint({"n": 1})
            journal.checkpoint({"n": 2})
        path = journal_path(tmp_path)
        lines = path.read_text().splitlines()
        lines[1] = "not json at all"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(JournalCorrupt, match="resume=force"):
            read_journal(tmp_path)
        view = read_journal(tmp_path, force=True)
        assert view.dropped == 2
        assert view.checkpoints == []

    def test_crc_flip_detected(self, tmp_path):
        with RunJournal.create(tmp_path, {"run_id": "r1"}) as journal:
            journal.checkpoint({"value": "original"})
            journal.checkpoint({"value": "second"})
        path = journal_path(tmp_path)
        tampered = path.read_text().replace("original", "oriGinal")
        path.write_text(tampered)
        with pytest.raises(JournalCorrupt, match="crc mismatch"):
            read_journal(tmp_path)

    def test_sequence_gap_detected(self, tmp_path):
        with RunJournal.create(tmp_path, {"run_id": "r1"}) as journal:
            for n in range(3):
                journal.checkpoint({"n": n})
        path = journal_path(tmp_path)
        lines = path.read_text().splitlines()
        del lines[2]  # checkpoint seq 1 vanishes
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(JournalCorrupt, match="sequence gap"):
            read_journal(tmp_path)
        view = read_journal(tmp_path, force=True)
        assert [c["seq"] for c in view.checkpoints] == [0]

    def test_rewrite_supersedes_and_continues_numbering(self, tmp_path):
        with RunJournal.create(tmp_path, {"run_id": "r1"}) as journal:
            for n in range(3):
                journal.checkpoint({"n": n})
        view = read_journal(tmp_path)
        kept = [view.header, *view.checkpoints[:2]]
        with RunJournal.rewrite(tmp_path, kept) as journal:
            journal.resume_marker({"mode": "latest"})
            assert journal.checkpoint({"n": "new"}) == 2
        view = read_journal(tmp_path)
        assert [c["seq"] for c in view.checkpoints] == [0, 1, 2]
        assert len(view.resumes) == 1


# ---------------------------------------------------------------------------
# The chained content digest and commit barrier


class TestDurableSink:
    def _write(self, tmp_path, world, events, *, resume=None):
        geoip, scanners = world
        sink = SQLiteWriterSink(tmp_path / "db.sqlite", geoip, scanners,
                                durable=True, resume=resume)
        for event in events:
            sink(event)
        return sink

    def test_commit_reports_rows_and_digest(self, tmp_path, world):
        events = [make_event(src_port=p) for p in range(5000, 5020)]
        sink = self._write(tmp_path, world, events)
        state = sink.commit()
        assert state["rows"] == 20
        sink.close()
        assert sink.committed_state["rows"] == 20
        # The reported digest is reproducible from the database itself.
        assert prefix_digest(tmp_path / "db.sqlite", 20) \
            == sink.committed_state["digest"]

    def test_commit_before_any_event_is_empty_state(self, tmp_path,
                                                    world):
        geoip, scanners = world
        sink = SQLiteWriterSink(tmp_path / "db.sqlite", geoip, scanners,
                                durable=True)
        assert sink.commit() == {"rows": 0,
                                 "digest": DIGEST_SEED.hex()}

    def test_truncate_then_resume_extends_digest_chain(self, tmp_path,
                                                       world):
        events = [make_event(src_port=p) for p in range(6000, 6030)]
        sink = self._write(tmp_path, world, events[:20])
        mid = sink.commit()
        for event in events[20:]:
            sink(event)
        sink.close()
        db = tmp_path / "db.sqlite"
        # Crash simulation: drop the uncommitted-beyond-mid tail, then
        # resume from the checkpointed (rows, digest) and append the
        # tail again -- the final digest must match an uninterrupted
        # conversion's.
        uninterrupted = sink.committed_state
        assert truncate_events(db, mid["rows"]) == 10
        assert prefix_digest(db, mid["rows"]) == mid["digest"]
        resumed = self._write(tmp_path, world, events[20:],
                              resume=(mid["rows"], mid["digest"]))
        resumed.close()
        assert resumed.committed_state == uninterrupted
        assert prefix_digest(db, 30) == uninterrupted["digest"]

    def test_resume_of_db_killed_before_its_schema(self, tmp_path, world):
        # A run killed just after its writer thread created the file,
        # before the schema was committed, leaves an empty database
        # whose committed prefix is zero rows.
        db = tmp_path / "db.sqlite"
        db.touch()
        assert truncate_events(db, 0) == 0
        events = [make_event(src_port=p) for p in range(6100, 6105)]
        resumed = self._write(tmp_path, world, events,
                              resume=(0, DIGEST_SEED.hex()))
        resumed.close()
        assert resumed.committed_state["rows"] == 5
        assert prefix_digest(db, 5) == resumed.committed_state["digest"]

    def test_prefix_digest_detects_tamper_and_short_db(self, tmp_path,
                                                       world):
        sink = self._write(tmp_path, world,
                           [make_event(src_port=p)
                            for p in range(7000, 7010)])
        sink.close()
        db = tmp_path / "db.sqlite"
        good = sink.committed_state["digest"]
        assert prefix_digest(db, 11) is None  # fewer rows than claimed
        import sqlite3

        with sqlite3.connect(db) as connection:
            connection.execute(
                "UPDATE events SET src_port = 1 WHERE id = 3")
        assert prefix_digest(db, 10) != good

    def test_chain_digest_is_order_sensitive(self):
        a = chain_digest(DIGEST_SEED, ("x",))
        b = chain_digest(a, ("y",))
        c = chain_digest(chain_digest(DIGEST_SEED, ("y",)), ("x",))
        assert b != c

    def test_close_propagates_writer_thread_error(self, tmp_path,
                                                  world):
        geoip, scanners = world
        sink = SQLiteWriterSink(tmp_path / "db.sqlite", geoip, scanners)
        sink(make_event())
        sink("not an event at all")  # poisons the writer thread
        with pytest.raises(Exception):
            sink.close()

    def test_call_fails_fast_after_writer_death(self, tmp_path, world):
        geoip, scanners = world
        sink = SQLiteWriterSink(tmp_path / "db.sqlite", geoip, scanners,
                                durable=True)
        sink("poison")
        # The poisoned row sits buffered until a flush; the commit
        # barrier forces one and surfaces the writer's death.
        with pytest.raises(RuntimeError):
            sink.commit()
        with pytest.raises(RuntimeError, match="already failed"):
            sink(make_event())

    def test_resume_requires_durable(self, tmp_path, world):
        geoip, scanners = world
        with pytest.raises(ValueError, match="durable"):
            SQLiteWriterSink(tmp_path / "db.sqlite", geoip, scanners,
                             resume=(1, "ab"))


class TestAuxiliarySinkCommit:
    def test_raw_log_commit_and_resume_offsets(self, tmp_path):
        sink = RawLogSink(tmp_path / "raw")
        sink(make_event())
        offsets = sink.commit()
        name = "low-mysql-multi.jsonl"
        committed = offsets[name]
        sink(make_event(src_port=9))
        sink.close()
        # Crash simulation: trim to the committed offset, resume, and
        # re-append -- the file reads as one uninterrupted stream.
        os.truncate(tmp_path / "raw" / name, committed)
        resumed = RawLogSink(tmp_path / "raw", resume=offsets)
        resumed(make_event(src_port=9))
        resumed.close()
        lines = (tmp_path / "raw" / name).read_text().splitlines()
        assert len(lines) == 2
        assert json.loads(lines[1])["src_port"] == 9

    def test_raw_log_commit_keeps_idle_groups(self, tmp_path):
        sink = RawLogSink(tmp_path / "raw",
                          resume={"low-redis-multi.jsonl": 123})
        sink(make_event())
        offsets = sink.commit()
        assert offsets["low-redis-multi.jsonl"] == 123

    def test_dead_letter_commit_and_resume(self, tmp_path):
        path = tmp_path / "quarantine.jsonl"
        writer = DeadLetterWriter(path)
        writer.quarantine("visit", "boom", events=[make_event()])
        committed = writer.commit()
        writer.quarantine("visit", "lost-after-commit")
        writer.close()
        os.truncate(path, committed["bytes"])
        resumed = DeadLetterWriter(
            path, resume=(committed["bytes"], committed["count"]))
        resumed.quarantine("visit", "after-resume")
        resumed.close()
        assert resumed.count == 2
        records = read_dead_letters(path)
        assert [r["reason"] for r in records] == ["boom", "after-resume"]


# ---------------------------------------------------------------------------
# Full-run crash and resume (subprocess kill -9 + CLI resume)


def digest_artifacts(output_dir: Path) -> dict:
    """Everything the byte-identical claim covers, digestible."""
    artifacts = {
        "low": table_digests(output_dir / "low.sqlite"),
        "midhigh": table_digests(output_dir / "midhigh.sqlite"),
    }
    raw_dir = output_dir / "raw-logs"
    if raw_dir.is_dir():
        artifacts["raw"] = {path.name: path.read_bytes()
                            for path in sorted(raw_dir.glob("*.jsonl"))}
    quarantine = output_dir / "quarantine.jsonl"
    artifacts["dead_letter"] = (
        [(r["reason"], r.get("actor"), r.get("seq"))
         for r in read_dead_letters(quarantine)]
        if quarantine.exists() else [])
    return artifacts


def cli(*argv) -> int:
    from repro.cli import main

    return main([str(arg) for arg in argv])


def launch_run(output_dir: Path, *, interval: float,
               extra: tuple = ()) -> subprocess.Popen:
    argv = [sys.executable, "-m", "repro", "run",
            "--seed", str(SEED), "--scale", str(SCALE),
            "--output", str(output_dir), "--workers", "4",
            "--telemetry", "--raw-logs",
            "--checkpoint-interval", str(interval), *extra]
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    return subprocess.Popen(argv, env=env, cwd=REPO_ROOT,
                            stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL)


def kill_when(proc: subprocess.Popen, output_dir: Path,
              min_checkpoints: int, timeout: float = 180.0) -> int:
    """SIGKILL ``proc`` once the journal shows ``min_checkpoints``.

    Returns the checkpoint count at kill time; -1 if the run finished
    first (callers should then skip -- nothing left to resume).
    """
    journal = journal_path(output_dir)
    deadline = time.time() + timeout
    while time.time() < deadline:
        count = 0
        if journal.exists():
            count = sum(1 for line in
                        journal.read_text(encoding="utf-8").splitlines()
                        if '"kind":"checkpoint"' in line)
            if count >= min_checkpoints:
                os.kill(proc.pid, signal.SIGKILL)
                proc.wait(timeout=30)
                return count
        if proc.poll() is not None:
            return -1
        time.sleep(0.02)
    proc.kill()
    raise AssertionError("run never reached the kill point")


@pytest.fixture(scope="module")
def reference(tmp_path_factory):
    """The uninterrupted ground truth: serial, no checkpointing."""
    out = tmp_path_factory.mktemp("reference")
    result = run_experiment(ExperimentConfig(
        seed=SEED, volume_scale=SCALE, output_dir=out,
        write_raw_logs=True, telemetry=True))
    return out, result


@pytest.fixture(scope="module")
def killed_run(tmp_path_factory):
    """A 4-worker checkpointed run SIGKILLed after >= 2 checkpoints."""
    out = tmp_path_factory.mktemp("killed")
    proc = launch_run(out, interval=0.05)
    count = kill_when(proc, out, min_checkpoints=2)
    if count < 0:
        pytest.skip("run finished before the kill point")
    return out


def copy_run(source: Path, tmp_path: Path) -> Path:
    target = tmp_path / "run"
    shutil.copytree(source, target)
    return target


class TestCheckpointOffParity:
    def test_default_run_leaves_no_journal(self, reference):
        out, result = reference
        assert not (out / "run_journal").exists()
        assert result.journal_path is None
        assert result.checkpoints_taken == 0
        manifest = json.loads(
            (out / "run_report.json").read_text(encoding="utf-8"))
        assert manifest["partial"] is False
        assert manifest["checkpoint"] is None


class TestTelemetryOffManifest:
    def test_clean_checkpointed_run_leaves_no_partial_manifest(
            self, tmp_path, monkeypatch):
        # Regression: the checkpoint manifest ("partial": true) was
        # only ever replaced by the telemetry-on final manifest, so a
        # clean telemetry-off run looked interrupted to `repro stats`
        # and `repro verify`.
        from repro.deployment import experiment

        written = []
        write = experiment._write_partial_report

        def recording_write(config, output_dir, *args):
            write(config, output_dir, *args)
            written.append(json.loads(
                (output_dir / "run_report.json").read_text("utf-8")))

        monkeypatch.setattr(experiment, "_write_partial_report",
                            recording_write)
        result = run_experiment(ExperimentConfig(
            seed=SEED, volume_scale=2e-5, output_dir=tmp_path,
            checkpoint_interval=0.01))
        assert result.checkpoints_taken >= 1
        # Until completion a kill would have left the manifest behind.
        assert written and all(m["partial"] is True for m in written)
        assert not (tmp_path / "run_report.json").exists()
        assert (tmp_path / "run_journal").is_dir()


class TestKillResume:
    def test_resume_mid_kill_is_byte_identical(self, killed_run,
                                               reference, tmp_path):
        out = copy_run(killed_run, tmp_path)
        # Resume at a *different* worker count: determinism must be
        # independent of execution shape.
        assert cli("run", "--output", out, "--workers", "2",
                   "--telemetry", "--resume",
                   "--checkpoint-interval", "0.05") == 0
        assert digest_artifacts(out) == digest_artifacts(reference[0])
        manifest = json.loads(
            (out / "run_report.json").read_text(encoding="utf-8"))
        resilience = manifest["resilience"]
        assert resilience["conservation_ok"] is True
        assert manifest["checkpoint"]["resume"]["mode"] == "latest"
        assert manifest["checkpoint"]["resume"]["fast_forwarded_visits"] \
            > 0
        view = read_journal(out)
        assert view.complete is not None
        assert len(view.resumes) == 1
        # No uncommitted tail rows: ids are contiguous 1..N and the
        # row counts match the reference exactly.
        import sqlite3

        for db in ("low.sqlite", "midhigh.sqlite"):
            with sqlite3.connect(out / db) as connection:
                rows, max_id = connection.execute(
                    "SELECT COUNT(*), MAX(id) FROM events").fetchone()
            with sqlite3.connect(reference[0] / db) as connection:
                ref_rows, = connection.execute(
                    "SELECT COUNT(*) FROM events").fetchone()
            assert (rows, max_id) == (ref_rows, ref_rows)

    def test_resume_before_first_checkpoint_restarts(self, reference,
                                                     tmp_path):
        out = tmp_path / "early"
        # Interval far beyond the run time: the journal only ever holds
        # its header, so the kill lands before any durable progress.
        proc = launch_run(out, interval=3600)
        count = kill_when(proc, out, min_checkpoints=0)
        if count < 0:
            pytest.skip("run finished before the kill point")
        assert cli("run", "--output", out, "--workers", "4",
                   "--telemetry", "--resume") == 0
        assert digest_artifacts(out) == digest_artifacts(reference[0])

    def test_resume_late_kill_is_byte_identical(self, reference,
                                                tmp_path):
        out = tmp_path / "late"
        proc = launch_run(out, interval=0.05)
        count = kill_when(proc, out, min_checkpoints=6)
        if count < 0:
            pytest.skip("run finished before the kill point")
        assert cli("run", "--output", out, "--workers", "4",
                   "--telemetry", "--resume") == 0
        assert digest_artifacts(out) == digest_artifacts(reference[0])
        manifest = json.loads(
            (out / "run_report.json").read_text(encoding="utf-8"))
        assert manifest["resilience"]["conservation_ok"] is True

    def test_resume_of_completed_run_is_noop(self, killed_run,
                                             reference, tmp_path,
                                             capsys):
        out = copy_run(killed_run, tmp_path)
        assert cli("run", "--output", out, "--resume",
                   "--telemetry") == 0
        assert cli("run", "--output", out, "--resume") == 0
        assert "nothing to do" in capsys.readouterr().out
        assert digest_artifacts(out) == digest_artifacts(reference[0])

    def test_resume_without_journal_fails_cleanly(self, tmp_path,
                                                  capsys):
        assert cli("run", "--output", tmp_path / "empty",
                   "--resume") == 1
        assert "no run journal" in capsys.readouterr().err


class TestResumeValidation:
    def test_garbage_journal_refused_then_forced(self, killed_run,
                                                 reference, tmp_path,
                                                 capsys):
        out = copy_run(killed_run, tmp_path)
        path = journal_path(out)
        lines = path.read_text(encoding="utf-8").splitlines()
        lines[1] = "garbage " * 5
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert cli("run", "--output", out, "--resume") == 1
        assert "damaged record" in capsys.readouterr().err
        # Force keeps the longest valid prefix -- here just the header,
        # so the run restarts from scratch and still converges.
        assert cli("run", "--output", out, "--workers", "2",
                   "--resume", "force") == 0
        assert digest_artifacts(out) == digest_artifacts(reference[0])

    def test_tampered_database_refused_then_forced(self, killed_run,
                                                   reference, tmp_path,
                                                   capsys):
        out = copy_run(killed_run, tmp_path)
        import sqlite3

        with sqlite3.connect(out / "low.sqlite") as connection:
            connection.execute(
                "UPDATE events SET src_port = src_port + 1 "
                "WHERE id = 1")
        assert cli("run", "--output", out, "--resume") == 1
        assert "digest mismatch" in capsys.readouterr().err
        # Every checkpoint covers row 1, so force walks all the way
        # back to a scratch restart -- and still converges.
        assert cli("run", "--output", out, "--resume", "force") == 0
        assert digest_artifacts(out) == digest_artifacts(reference[0])

    def test_truncated_journal_forced_resumes_valid_prefix(
            self, killed_run, reference, tmp_path):
        out = copy_run(killed_run, tmp_path)
        path = journal_path(out)
        lines = [line for line in
                 path.read_text(encoding="utf-8").splitlines()
                 if line]
        checkpoints = [i for i, line in enumerate(lines)
                       if '"kind":"checkpoint"' in line]
        # Corrupt the *last* checkpoint record: strict refuses (it is
        # not a torn tail -- the CRC is wrong, not the line incomplete),
        # force falls back to the previous checkpoint.
        last = checkpoints[-1]
        lines[last] = lines[last].replace('"kind":"checkpoint"',
                                          '"kind":"checkpoinT"')
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises((ResumeError, JournalError)):
            prepare_resume(ExperimentConfig(
                output_dir=out, resume="latest",
                checkpoint_interval=0.05))
        assert cli("run", "--output", out, "--resume", "force") == 0
        assert digest_artifacts(out) == digest_artifacts(reference[0])

    def test_dataset_export_incompatible(self, tmp_path, capsys):
        assert cli("run", "--output", tmp_path, "--dataset",
                   "--checkpoint-interval", "1") == 2
        assert cli("run", "--output", tmp_path, "--dataset",
                   "--resume") == 2
        capsys.readouterr()
        with pytest.raises(ValueError, match="dataset"):
            run_experiment(ExperimentConfig(
                output_dir=tmp_path, export_dataset=True,
                checkpoint_interval=1.0))

    def test_bad_cli_arguments(self, tmp_path, capsys):
        assert cli("run", "--output", tmp_path,
                   "--checkpoint-interval", "-1") == 2
        assert cli("run", "--output", tmp_path, "--resume",
                   "sideways") == 2
        capsys.readouterr()

    def test_completed_journal_raises_resume_unnecessary(
            self, tmp_path):
        run_experiment(ExperimentConfig(
            seed=SEED, volume_scale=SCALE, output_dir=tmp_path,
            checkpoint_interval=5.0))
        with pytest.raises(ResumeUnnecessary):
            prepare_resume(ExperimentConfig(output_dir=tmp_path,
                                            resume="latest"))


# ---------------------------------------------------------------------------
# Chaos: worker-kill plan and crash accounting across the boundary


class TestWorkerKillChaos:
    def test_worker_kill_is_a_builtin_plan(self, capsys):
        assert cli("chaos", "--list-plans") == 0
        out = capsys.readouterr().out
        assert "worker-kill" in out
        assert "proc.kill" in out

    def test_all_plan_excludes_proc_kill(self):
        assert "proc.kill" not in faults.BUILTIN_PLANS["all"]

    def test_chaos_auto_resumes_after_worker_kill(self, tmp_path,
                                                  capsys):
        code = cli("chaos", "--plan", "worker-kill", "--seed", SEED,
                   "--scale", SCALE, "--output", tmp_path / "chaos",
                   "--workers", "4", "--checkpoint-interval", "0.05")
        captured = capsys.readouterr()
        assert code == 0, captured.err
        assert "resuming from the last durable checkpoint" \
            in captured.err
        assert "conservation: OK" in captured.out
        view = read_journal(tmp_path / "chaos")
        assert view.complete is not None
        # The resume disarmed the kill site; the journal records it.
        assert view.resumes[0]["disarmed"] == ["proc.kill"]

    def test_fault_accounting_spans_the_crash_boundary(
            self, tmp_path_factory):
        """visit.crash fire counts and the dead letter must come out
        identical whether or not a SIGKILL interrupted the run."""
        crash_sites = {"visit.crash": {"probability": 0.01}}
        ref_out = tmp_path_factory.mktemp("chaos-ref")
        reference = run_experiment(ExperimentConfig(
            seed=SEED, volume_scale=SCALE, output_dir=ref_out,
            telemetry=True,
            fault_plan=faults.plan_from_dict(crash_sites, seed=SEED,
                                             name="crashy")))

        out = tmp_path_factory.mktemp("chaos-killed")
        plan = faults.plan_from_dict(
            {**crash_sites,
             "proc.kill": {"probability": 1.0, "max_fires": 1,
                           "start_after": 40}},
            seed=SEED, name="crashy")
        with pytest.raises(WorkerLostError):
            # The SIGKILLed worker surfaces as WorkerLostError.
            run_experiment(ExperimentConfig(
                seed=SEED, volume_scale=SCALE, output_dir=out,
                telemetry=True, fault_plan=plan, workers=4,
                checkpoint_interval=0.05))
        resumed = run_experiment(ExperimentConfig(
            seed=SEED, volume_scale=SCALE, output_dir=out,
            telemetry=True, workers=4, checkpoint_interval=0.05,
            resume="latest"))
        assert resumed.conservation_ok
        assert (resumed.events_generated, resumed.events_quarantined,
                resumed.quarantined_visits) == \
            (reference.events_generated, reference.events_quarantined,
             reference.quarantined_visits)
        assert table_digests(resumed.low_db) \
            == table_digests(reference.low_db)
        assert table_digests(resumed.midhigh_db) \
            == table_digests(reference.midhigh_db)
        ref_dead = ([(r["reason"], r["actor"], r["seq"]) for r in
                     read_dead_letters(reference.quarantine_path)]
                    if reference.quarantine_path else [])
        got_dead = ([(r["reason"], r["actor"], r["seq"]) for r in
                     read_dead_letters(resumed.quarantine_path)]
                    if resumed.quarantine_path else [])
        assert got_dead == ref_dead
        # Chaos accounting: the resumed run's visit.crash counters are
        # rebuilt exactly by the fast-forward replay (keyed decisions),
        # so they match the uninterrupted run's.
        ref_faults = reference.report["resilience"]["faults"]
        got_faults = resumed.report["resilience"]["faults"]
        assert got_faults["visit.crash"] == ref_faults["visit.crash"]


# ---------------------------------------------------------------------------
# The stats banner


class TestStatsPartialBanner:
    def test_partial_manifest_prints_banner(self, tmp_path, capsys):
        from repro.obs.report import SCHEMA

        (tmp_path / "run_report.json").write_text(json.dumps({
            "schema": SCHEMA, "partial": True, "run_id": "abc",
            "visits_total": 10,
        }), encoding="utf-8")
        assert cli("stats", "--output", tmp_path) == 0
        out = capsys.readouterr().out
        assert "run in progress or interrupted" in out
        assert "--resume" in out

    def test_driver_partial_manifest_shows_progress(self, tmp_path,
                                                    capsys):
        from repro.deployment import experiment

        config = ExperimentConfig(seed=31, volume_scale=0.0005,
                                  output_dir=tmp_path, workers=4)
        experiment._write_partial_report(
            config, tmp_path, "abc", 40,
            {"visits": 12, "events_generated": 57,
             "events_quarantined": 3, "shards_done": 1},
            None, None)
        assert cli("stats", "--output", tmp_path) == 0
        out = capsys.readouterr().out
        assert "run in progress or interrupted" in out
        assert "seed=31" in out and "scale=0.0005" in out
        assert any(line.startswith("visits done") and "12 / 40" in line
                   for line in out.splitlines())
        assert any(line.startswith("shards done") and "1 / 4" in line
                   for line in out.splitlines())

    def test_final_manifest_has_no_banner(self, reference, capsys):
        assert cli("stats", "--output", reference[0]) == 0
        out = capsys.readouterr().out
        assert "PARTIAL" not in out
        assert "checkpointing" not in out
