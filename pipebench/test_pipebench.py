"""Self-tests of the benchmark: ``python -m pytest pipebench -q``.

The smoke runs use scale 2e-05 with experiment seed 0, whose digests are
pinned next to the full-scale ones; each takes 10-60 s.
"""

from __future__ import annotations

import json
import shutil
import sqlite3
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import checks  # noqa: E402
import run  # noqa: E402

SMOKE_SCALE = 2e-05


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "pipebench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_smoke_emits_every_metric(workload, trace):
    done = bench("--workload", workload, "--seed", "0", "--seconds", "1",
                 "--trace", str(trace), "--scale", repr(SMOKE_SCALE))
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], done.stderr
    assert result["attempted"] >= 1 and result["failed"] == 0
    units = run.per_layer_units() if trace else run.END_TO_END
    assert {name: metric["unit"] for name, metric
            in result["metrics"].items()} == units
    if not trace:
        assert all(metric["value"] > 0
                   for metric in result["metrics"].values())


def test_declared_metrics_match_benchmark_json():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in declared["end_to_end"]} \
        == run.END_TO_END
    assert {m["name"]: m["unit"] for m in declared["per_layer"]} \
        == run.per_layer_units()
    assert [w["name"] for w in declared["workloads"]] == list(run.WORKLOADS)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "pipebench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = bench("--workload", "collect", "--seed", "0", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


@pytest.fixture(scope="module")
def collected(tmp_path_factory):
    """One small collect run and its cold/warm report pair."""
    out = tmp_path_factory.mktemp("collect") / "run"
    result = run.collect_once("collect", 0, SMOKE_SCALE, out)
    pair = run.report_round(Path(result["low_db"]),
                            Path(result["midhigh_db"]), SMOKE_SCALE)
    return result, pair


def pinned():
    return checks.reference("collect", SMOKE_SCALE, 0)


def test_clean_run_passes_every_check(collected):
    result, pair = collected
    assert run.check_collect("collect", result, 0, SMOKE_SCALE) == []
    assert checks.compare_report(pinned(), pair["texts"]) == []


def test_deleted_events_row_fails_the_digest(collected, tmp_path):
    result, _ = collected
    low = tmp_path / "low.sqlite"
    shutil.copy(result["low_db"], low)
    connection = sqlite3.connect(low)
    with connection:
        connection.execute("DELETE FROM events WHERE id = "
                           "(SELECT max(id) FROM events)")
    connection.close()
    problems = checks.compare_dbs(pinned(), low, Path(result["midhigh_db"]))
    assert len(problems) == 1 and problems[0].startswith("low")


def test_id_renumbering_keeps_the_digest(collected, tmp_path):
    """The digest covers the logical rows, not the storage ids."""
    result, _ = collected
    mid = tmp_path / "midhigh.sqlite"
    shutil.copy(result["midhigh_db"], mid)
    connection = sqlite3.connect(mid)
    with connection:
        connection.execute("UPDATE events SET id = id + 1000000")
    connection.close()
    assert checks.compare_dbs(pinned(), Path(result["low_db"]), mid) == []


def test_edited_report_line_fails(collected):
    _, pair = collected
    cold = pair["texts"][0]
    lines = cold.splitlines()
    lines[1] += " "
    edited = "\n".join(lines)
    assert checks.compare_report(pinned(), [edited, edited])
    assert checks.compare_report(pinned(), [cold, cold, edited])


def test_conservation_and_quarantine_checks(collected):
    result, _ = collected
    leaky = dict(result, events_generated=result["events_generated"] + 1)
    assert any("conservation" in problem for problem in
               run.check_collect("collect", leaky, 0, SMOKE_SCALE))
    crashed = dict(result, quarantined_visits=1)
    assert any("quarantined" in problem for problem in
               run.check_collect("collect", crashed, 0, SMOKE_SCALE))
    assert run.failed_visits(crashed) == 1


def test_unpinned_seed_is_a_failure(collected):
    result, _ = collected
    assert run.check_collect("collect", result, 1, SMOKE_SCALE)


def test_self_time_subtracts_children():
    recorder = run.spans.Recorder()
    inner = recorder.wrap(lambda: None, "inner")
    outer = recorder.wrap(lambda: [inner() for _ in range(3)], "outer")
    outer()
    summary = run.spans.Summary(recorder)
    assert summary.calls == {"outer": 1, "inner": 3}
    assert summary.self_s("outer") == pytest.approx(
        summary.total["outer"] - summary.total["inner"])
