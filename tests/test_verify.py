"""Mutation tests for ``repro verify``.

The audit's value is that every invariant violation maps to a specific
finding code.  These tests pin that map: start from one known-good run,
corrupt one artifact in one way per test, and assert the audit reports
exactly the expected code (plus CLI exit status 1).  A clean run must
stay clean (exit 0), and argument misuse must exit 2.

The differential half gets the same treatment in miniature: a tiny
serial-vs-sharded matrix must produce zero diffs, and the schedule
bisector must localize the one divergence the repo *documents* --
an order-sensitive (unkeyed) fault plan under sharded execution.
"""

import json
import shutil
import sqlite3
from pathlib import Path

import pytest

from repro.deployment import ExperimentConfig, run_experiment
from repro.obs import report as obs_report
from repro.resilience import faults
from repro.runtime import journal as run_journal
from repro.runtime.journal import journal_path
from repro.verify import (AuditError, audit_run, locate_divergence,
                          run_matrix)
from repro.verify.differential import _engine_diffs

SEED = 2024
SCALE = 0.0001

MANIFEST = "run_report.json"


@pytest.fixture(scope="module")
def good_run(tmp_path_factory):
    """One checkpointed chaos run: every artifact class present --
    databases, raw logs, journal, dead letter, metrics snapshot."""
    out = tmp_path_factory.mktemp("good")
    run_experiment(ExperimentConfig(
        seed=SEED, volume_scale=SCALE, output_dir=out,
        write_raw_logs=True, telemetry=True, checkpoint_interval=0.05,
        fault_plan=faults.load_plan("visit-crash", seed=SEED)))
    return out


@pytest.fixture
def run_copy(good_run, tmp_path):
    target = tmp_path / "run"
    shutil.copytree(good_run, target)
    return target


def codes(output_dir: Path) -> set:
    return {finding.code for finding in audit_run(output_dir).findings}


def cli(*argv) -> int:
    from repro.cli import main

    return main([str(arg) for arg in argv])


def edit_manifest(output_dir: Path, mutate) -> None:
    path = output_dir / MANIFEST
    manifest = json.loads(path.read_text(encoding="utf-8"))
    mutate(manifest)
    path.write_text(json.dumps(manifest), encoding="utf-8")


def execute(db_path: Path, sql: str) -> None:
    connection = sqlite3.connect(db_path)
    try:
        connection.execute(sql)
        connection.commit()
    finally:
        connection.close()


# ---------------------------------------------------------------------------
# The clean run


class TestCleanRun:
    def test_audit_is_clean(self, good_run):
        result = audit_run(good_run)
        assert result.ok
        assert result.findings == []
        assert all(check["status"] == "ok" for check in result.checks)
        # The fixture exercised every artifact class.
        names = {check["name"] for check in result.checks}
        assert {"manifest_schema", "manifest_counts", "conservation",
                "db_rows", "tier_purity", "id_contiguity", "raw_count",
                "raw_order", "quarantine", "journal",
                "truncation"} <= names

    def test_fixture_has_chaos_artifacts(self, good_run):
        manifest = json.loads(
            (good_run / MANIFEST).read_text(encoding="utf-8"))
        assert manifest["resilience"]["quarantined_visits"] > 0
        assert journal_path(good_run).exists()

    def test_cli_exits_zero(self, good_run):
        assert cli("verify", "--output", good_run) == 0

    def test_cli_json_report(self, good_run, capsys):
        assert cli("verify", "--output", good_run, "--json") == 0
        report = json.loads(capsys.readouterr().out)
        assert report["schema"] == "repro.verify_report/1"
        assert report["ok"] is True
        assert report["findings"] == []


# ---------------------------------------------------------------------------
# Argument misuse -> exit 2; missing inputs -> exit 1


class TestCliStatuses:
    def test_missing_run_exits_one(self, tmp_path):
        assert cli("verify", "--output", tmp_path / "nope") == 1

    def test_missing_run_raises_audit_error(self, tmp_path):
        with pytest.raises(AuditError):
            audit_run(tmp_path / "nope")

    def test_matrix_without_differential_exits_two(self, good_run):
        assert cli("verify", "--output", good_run,
                   "--matrix", "fork") == 2

    def test_unknown_matrix_config_exits_two(self, tmp_path):
        assert cli("verify", "--differential", "--matrix", "bogus",
                   "--workdir", tmp_path) == 2

    def test_single_worker_differential_exits_two(self, tmp_path):
        assert cli("verify", "--differential", "--workers", "1",
                   "--workdir", tmp_path) == 2

    def test_non_positive_scale_exits_two(self, tmp_path):
        assert cli("verify", "--differential", "--scale", "0",
                   "--workdir", tmp_path) == 2


# ---------------------------------------------------------------------------
# One corruption, one finding code


class TestManifestMutations:
    def test_truncated_manifest_is_schema_finding(self, run_copy):
        path = run_copy / MANIFEST
        path.write_text(path.read_text(encoding="utf-8")[:40],
                        encoding="utf-8")
        assert "MANIFEST_SCHEMA" in codes(run_copy)

    def test_missing_section_is_schema_finding(self, run_copy):
        edit_manifest(run_copy, lambda m: m.pop("resilience"))
        assert "MANIFEST_SCHEMA" in codes(run_copy)

    def test_desynced_breakdown_is_counts_finding(self, run_copy):
        def bump(manifest):
            key = next(iter(manifest["events_by_type"]))
            manifest["events_by_type"][key] += 1

        edit_manifest(run_copy, bump)
        assert "MANIFEST_COUNTS" in codes(run_copy)

    def test_leaked_event_is_conservation_finding(self, run_copy):
        def leak(manifest):
            manifest["resilience"]["events_generated"] += 1

        edit_manifest(run_copy, leak)
        assert "CONSERVATION" in codes(run_copy)

    def test_inflated_truncation_counter_is_truncation_finding(
            self, run_copy):
        def inflate(manifest):
            manifest["metrics"].setdefault("counters", []).append(
                {"name": "logstore.raw_truncated", "labels": {},
                 "value": 10 ** 6})

        edit_manifest(run_copy, inflate)
        assert "TRUNCATION" in codes(run_copy)


class TestDatabaseMutations:
    def test_deleted_row_is_db_rows_and_contiguity(self, run_copy):
        execute(run_copy / "low.sqlite",
                "DELETE FROM events WHERE id = 2")
        found = codes(run_copy)
        assert "DB_ROWS" in found
        assert "ID_CONTIGUITY" in found

    def test_mistiered_row_is_tier_purity_finding(self, run_copy):
        execute(run_copy / "low.sqlite",
                "UPDATE events SET interaction = 'high' WHERE id = 1")
        assert "TIER_PURITY" in codes(run_copy)

    def test_mutated_run_exits_one(self, run_copy):
        execute(run_copy / "low.sqlite",
                "DELETE FROM events WHERE id = 2")
        assert cli("verify", "--output", run_copy) == 1


class TestRawLogMutations:
    @staticmethod
    def pick_group(run_copy: Path) -> Path:
        for path in sorted((run_copy / "raw-logs").glob("*.jsonl")):
            lines = path.read_text(encoding="utf-8").splitlines()
            if len(lines) >= 2 and lines[0] != lines[1]:
                return path
        raise AssertionError("no multi-line raw-log group")

    def test_dropped_line_is_raw_count_finding(self, run_copy):
        path = self.pick_group(run_copy)
        lines = path.read_text(encoding="utf-8").splitlines()
        path.write_text("\n".join(lines[:-1]) + "\n", encoding="utf-8")
        assert "RAW_COUNT" in codes(run_copy)

    def test_swapped_lines_are_raw_order_finding(self, run_copy):
        path = self.pick_group(run_copy)
        lines = path.read_text(encoding="utf-8").splitlines()
        lines[0], lines[1] = lines[1], lines[0]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert "RAW_ORDER" in codes(run_copy)

    def test_half_cut_line_is_raw_order_finding(self, run_copy):
        path = self.pick_group(run_copy)
        lines = path.read_text(encoding="utf-8").splitlines()
        lines[0] = lines[0][:len(lines[0]) // 2]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert "RAW_ORDER" in codes(run_copy)


class TestQuarantineMutations:
    def test_dropped_record_is_quarantine_finding(self, run_copy):
        path = run_copy / "quarantine.jsonl"
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines, "chaos fixture must quarantine at least one visit"
        path.write_text("\n".join(lines[:-1]) + ("\n" if lines[:-1]
                                                 else ""),
                        encoding="utf-8")
        assert "QUARANTINE" in codes(run_copy)

    def test_reordered_records_are_quarantine_finding(self, run_copy):
        path = run_copy / "quarantine.jsonl"
        lines = path.read_text(encoding="utf-8").splitlines()
        if len(lines) < 2:
            pytest.skip("need two quarantined visits to reorder")
        lines[0], lines[-1] = lines[-1], lines[0]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert "QUARANTINE" in codes(run_copy)


class TestJournalMutations:
    def test_corrupt_record_is_journal_finding(self, run_copy):
        path = journal_path(run_copy)
        lines = path.read_text(encoding="utf-8").splitlines(True)
        assert len(lines) >= 2
        # Damage a middle record (a torn *tail* would be benign).
        lines[1] = lines[1].replace('"kind"', '"k1nd"', 1)
        path.write_text("".join(lines), encoding="utf-8")
        assert "JOURNAL" in codes(run_copy)

    def test_resealed_digest_mismatch_is_journal_finding(self,
                                                         run_copy):
        path = journal_path(run_copy)
        lines = path.read_text(encoding="utf-8").splitlines(True)
        for index, line in enumerate(lines):
            record = run_journal._unseal(line)
            if record.get("kind") != "complete":
                continue
            digest = record["midhigh"]["digest"]
            record["midhigh"]["digest"] = \
                ("0" if digest[0] != "0" else "1") + digest[1:]
            lines[index] = run_journal._sealed(record)
            break
        else:
            raise AssertionError("journal has no complete record")
        path.write_text("".join(lines), encoding="utf-8")
        assert "JOURNAL" in codes(run_copy)


# ---------------------------------------------------------------------------
# Differential replay


class TestDifferential:
    def test_sharded_fork_matches_serial(self, tmp_path):
        report = run_matrix(tmp_path, seed=SEED, scale=SCALE,
                            workers=2, configs=("fork",))
        assert report.ok
        assert report.diffs == []
        assert report.divergences == []
        assert [c["status"] for c in report.configs] == ["ran", "ran"]

    def test_engine_check_flags_serial_fallback(self, tmp_path):
        # A sharded config that replayed serially would match the
        # serial reference artifact for artifact; only the manifest's
        # engine section tells.
        obs_report.write_report(
            {"schema": obs_report.SCHEMA,
             "replay": {"executor": "serial", "workers": 1}},
            tmp_path / MANIFEST)
        diffs = _engine_diffs("fork", tmp_path, workers=4)
        assert [diff["artifact"] for diff in diffs] == ["manifest.replay"]
        assert diffs[0]["actual"] == {"executor": "serial", "workers": 1,
                                      "shards": 0}
        obs_report.write_report(
            {"schema": obs_report.SCHEMA,
             "replay": {"executor": "sharded", "workers": 4,
                        "shards": [{}] * 4}},
            tmp_path / MANIFEST)
        assert _engine_diffs("fork", tmp_path, workers=4) == []

    def test_bisector_localizes_order_sensitive_plan(self):
        # Plan "all" contains unkeyed (order-sensitive) sites, which the
        # repo documents as serial-only stable: sharded execution MUST
        # diverge, and the bisector must name the first bad visit.
        divergence = locate_divergence(
            SEED, SCALE, dict(workers=1),
            dict(workers=4, executor="sharded"),
            fault_plan="all")
        assert divergence is not None
        offset, ip, seq = divergence["key"]
        assert isinstance(offset, float) and isinstance(seq, int)
        assert divergence["index"] >= 0

    def test_keyed_plan_does_not_diverge(self):
        assert locate_divergence(
            SEED, SCALE, dict(workers=1),
            dict(workers=4, executor="sharded"),
            fault_plan="visit-crash") is None
