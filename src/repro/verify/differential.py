"""Layer 2 of ``repro verify``: the differential replay matrix.

One seed is replayed under a matrix of execution configurations --
serial, N fork shard workers, telemetry on vs. off, checkpoint +
SIGKILL + resume, and a keyed chaos plan -- and every artifact is
diffed against a reference run:

* database content via the chained prefix digest over all rows (the
  SQLite *files* legitimately differ byte-wise between the WAL and
  MEMORY-journal pragmas; the ordered row content must not),
* raw logs and the dead letter byte-for-byte,
* the telemetry manifest on its deterministic counters.

On a database divergence between two in-process-replayable
configurations, :func:`locate_divergence` re-replays the schedule
under both engines and walks the two canonical outcome streams to the
first divergent ``(offset, ip, seq)`` visit, reporting both event
records -- the schedule bisection that turns "the artifacts differ"
into "this visit differs".
"""

from __future__ import annotations

import hashlib
import os
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import repro
from repro import obs
from repro.agents.population import build_world
from repro.deployment.checkpoint import ResumeUnnecessary
from repro.deployment.experiment import (ExperimentConfig,
                                         QUARANTINE_FILENAME,
                                         RAW_LOG_DIRNAME, run_experiment)
from repro.deployment.plan import build_plan
from repro.deployment.replay import (build_engine, compile_visits,
                                     fork_available)
from repro.obs import report as obs_report
from repro.pipeline.convert import count_events, prefix_digest
from repro.resilience import faults
from repro.runtime import journal as run_journal

__all__ = ["DEFAULT_MATRIX", "MATRIX_CONFIGS", "DifferentialReport",
           "artifact_summary", "locate_divergence", "run_matrix"]

#: Every matrix configuration the runner knows, in run order.
MATRIX_CONFIGS = ("serial", "fork", "telemetry-off", "kill-resume",
                  "chaos")

#: What ``repro verify --differential`` runs without ``--matrix``.
DEFAULT_MATRIX = ("serial", "fork", "telemetry-off")

#: The configurations that shard, and so need fork worker processes.
_SHARDED_CONFIGS = ("fork", "kill-resume", "chaos")

#: Fault plan the ``chaos`` pair runs.  Must be a *keyed* plan: keyed
#: sites decide per ``{seed}:{site}:{ip}:{seq}`` and so are identical
#: between serial and sharded execution, while unkeyed sites (the
#: wire.*/enrich.* specs in plan ``all``) draw from a shared sequential
#: RNG and are order-sensitive by design -- only stable serially.
CHAOS_PLAN = "visit-crash"

#: Manifest keys that must be identical across equivalent runs.
_MANIFEST_KEYS = ("visits_total", "events_total", "events_by_type",
                  "events_by_dbms", "events_by_interaction",
                  "events_by_honeypot", "split", "db_rows")

#: Resilience keys compared (``dead_letter`` is a per-directory path).
_RESILIENCE_KEYS = ("events_generated", "events_stored",
                    "events_quarantined", "quarantined_visits",
                    "conservation_ok", "fault_plan", "faults")


def artifact_summary(output_dir: str | Path) -> dict:
    """Content fingerprints of every comparable artifact of one run."""
    output_dir = Path(output_dir)
    summary: dict = {"db": {}, "raw": {}, "quarantine": None,
                     "manifest": None}
    for tier in ("low", "midhigh"):
        db_path = output_dir / f"{tier}.sqlite"
        rows = count_events(db_path)
        summary["db"][tier] = {"rows": rows,
                               "digest": prefix_digest(db_path, rows)}
    raw_dir = output_dir / RAW_LOG_DIRNAME
    if raw_dir.is_dir():
        for path in sorted(raw_dir.glob("*.jsonl")):
            summary["raw"][path.name] = hashlib.sha256(
                path.read_bytes()).hexdigest()
    quarantine = output_dir / QUARANTINE_FILENAME
    if quarantine.exists():
        summary["quarantine"] = hashlib.sha256(
            quarantine.read_bytes()).hexdigest()
    report_path = output_dir / obs_report.REPORT_FILENAME
    if report_path.exists():
        manifest = obs_report.load_report(report_path)
        subset = {key: manifest.get(key) for key in _MANIFEST_KEYS}
        resilience = manifest.get("resilience") or {}
        subset["resilience"] = {key: resilience.get(key)
                                for key in _RESILIENCE_KEYS}
        summary["manifest"] = subset
    return summary


def _diff_summaries(name: str, reference: dict, candidate: dict,
                    *, compare_manifest: bool = True) -> list[dict]:
    """Structured differences between two artifact summaries."""
    diffs: list[dict] = []

    def flag(artifact: str, expected, actual) -> None:
        diffs.append({"config": name, "artifact": artifact,
                      "expected": expected, "actual": actual})

    for tier in ("low", "midhigh"):
        if reference["db"][tier] != candidate["db"][tier]:
            flag(f"{tier}.sqlite", reference["db"][tier],
                 candidate["db"][tier])
    for group in sorted(set(reference["raw"]) | set(candidate["raw"])):
        if reference["raw"].get(group) != candidate["raw"].get(group):
            flag(f"raw-logs/{group}", reference["raw"].get(group),
                 candidate["raw"].get(group))
    if reference["quarantine"] != candidate["quarantine"]:
        flag(QUARANTINE_FILENAME, reference["quarantine"],
             candidate["quarantine"])
    if compare_manifest and reference["manifest"] is not None \
            and candidate["manifest"] is not None:
        for key, expected in reference["manifest"].items():
            actual = candidate["manifest"][key]
            if expected != actual:
                flag(f"manifest.{key}", expected, actual)
    return diffs


@dataclass
class DifferentialReport:
    """Everything one matrix sweep produced."""

    seed: int
    scale: float
    workers: int
    configs: list[dict] = field(default_factory=list)
    diffs: list[dict] = field(default_factory=list)
    divergences: list[dict] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.diffs

    def as_dict(self) -> dict:
        return {"seed": self.seed, "scale": self.scale,
                "workers": self.workers, "configs": self.configs,
                "diffs": self.diffs, "divergences": self.divergences,
                "ok": self.ok}


def _engine_diffs(name: str, output_dir: Path, *,
                  workers: int) -> list[dict]:
    """Flag a sharded config whose manifest reports another engine.

    The artifact diff alone cannot tell: a config that silently fell
    back to serial replay would pass by matching the serial reference.
    """
    replay = obs_report.load_report(
        output_dir / obs_report.REPORT_FILENAME).get("replay") or {}
    expected = {"executor": "sharded", "workers": workers,
                "shards": workers}
    actual = {"executor": replay.get("executor"),
              "workers": replay.get("workers"),
              "shards": len(replay.get("shards") or ())}
    if actual == expected:
        return []
    return [{"config": name, "artifact": "manifest.replay",
             "expected": expected, "actual": actual}]


def _base_config(output_dir: Path, seed: int, scale: float,
                 **overrides) -> ExperimentConfig:
    defaults = dict(seed=seed, volume_scale=scale,
                    output_dir=output_dir, telemetry=True,
                    write_raw_logs=True)
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


def _run_kill_resume(output_dir: Path, seed: int, scale: float,
                     workers: int, *, interval: float = 0.05,
                     timeout: float = 120.0) -> str:
    """Start a checkpointed run in a subprocess, SIGKILL it after its
    first durable checkpoint, then resume it in-process.

    Returns a note describing what actually happened (the run may
    finish before the kill lands at tiny scales -- then the completed
    artifacts stand on their own).
    """
    package_root = Path(repro.__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(package_root)] + ([env["PYTHONPATH"]]
                               if env.get("PYTHONPATH") else []))
    argv = [sys.executable, "-m", "repro", "run",
            "--seed", str(seed), "--scale", str(scale),
            "--output", str(output_dir), "--telemetry", "--raw-logs",
            "--workers", str(workers),
            "--checkpoint-interval", str(interval)]
    journal = run_journal.journal_path(output_dir)
    process = subprocess.Popen(argv, env=env,
                               stdout=subprocess.DEVNULL,
                               stderr=subprocess.DEVNULL)
    killed = False
    deadline = time.monotonic() + timeout
    try:
        while time.monotonic() < deadline:
            if process.poll() is not None:
                break
            if journal.exists() and '"kind":"checkpoint"' in \
                    journal.read_text(encoding="utf-8",
                                      errors="replace"):
                process.send_signal(signal.SIGKILL)
                process.wait(timeout=30)
                killed = True
                break
            time.sleep(0.005)
        else:
            process.kill()
            process.wait(timeout=30)
            raise RuntimeError(
                f"kill-resume run at {output_dir} neither "
                f"checkpointed nor finished within {timeout}s")
    finally:
        if process.poll() is None:
            process.kill()
            process.wait(timeout=30)
    if not killed and process.returncode != 0:
        raise RuntimeError(
            f"kill-resume subprocess exited with "
            f"{process.returncode} before any checkpoint")
    if not killed:
        return "run completed before the kill could land"
    try:
        run_experiment(_base_config(
            output_dir, seed, scale, workers=1,
            checkpoint_interval=interval, resume="latest"))
    except ResumeUnnecessary:
        return "killed after completion record; nothing to resume"
    return "killed after first checkpoint, resumed from journal"


def run_matrix(workdir: str | Path, *, seed: int, scale: float,
               workers: int = 4,
               configs=DEFAULT_MATRIX) -> DifferentialReport:
    """Replay ``seed`` under every requested configuration and diff.

    ``workdir`` receives one run directory per configuration.  The
    ``serial`` reference is always run (and prepended when absent from
    ``configs``); ``chaos`` expands into a serial/sharded pair diffed
    against each other, since faulted artifacts legitimately differ
    from the clean reference.
    """
    workdir = Path(workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    unknown = [name for name in configs if name not in MATRIX_CONFIGS]
    if unknown:
        raise ValueError(f"unknown matrix config(s) {unknown} "
                         f"(choose from {', '.join(MATRIX_CONFIGS)})")
    configs = list(dict.fromkeys(configs))
    if "serial" not in configs:
        configs.insert(0, "serial")
    report = DifferentialReport(seed=seed, scale=scale, workers=workers)
    logger = obs.current().logger
    summaries: dict[str, dict] = {}

    def run_one(name: str, note: str = "", **overrides) -> dict:
        output_dir = workdir / name
        run_experiment(_base_config(output_dir, seed, scale,
                                    **overrides))
        summary = artifact_summary(output_dir)
        summaries[name] = summary
        report.configs.append({"name": name,
                               "output_dir": str(output_dir),
                               "status": "ran", "note": note})
        return summary

    def skip(name: str, note: str) -> None:
        report.configs.append({"name": name, "output_dir": None,
                               "status": "skipped", "note": note})
        logger.info("verify.matrix_skip", config=name, note=note)

    reference = run_one("serial", workers=1)
    for name in configs:
        if name == "serial":
            continue
        if name in _SHARDED_CONFIGS and not fork_available():
            skip(name, "fork start method unavailable")
            continue
        logger.info("verify.matrix_run", config=name)
        if name == "fork":
            summary = run_one(name, workers=workers, executor="sharded")
            report.diffs += _diff_summaries(name, reference, summary)
            report.diffs += _engine_diffs(name, workdir / name,
                                          workers=workers)
        elif name == "telemetry-off":
            summary = run_one(name, workers=1, telemetry=False)
            report.diffs += _diff_summaries(name, reference, summary,
                                            compare_manifest=False)
        elif name == "kill-resume":
            output_dir = workdir / name
            note = _run_kill_resume(output_dir, seed, scale, workers)
            summary = artifact_summary(output_dir)
            summaries[name] = summary
            report.configs.append({"name": name,
                                   "output_dir": str(output_dir),
                                   "status": "ran", "note": note})
            report.diffs += _diff_summaries(name, reference, summary)
        elif name == "chaos":
            chaos_reference = run_one(
                "chaos-serial", workers=1,
                fault_plan=faults.load_plan(CHAOS_PLAN, seed=seed))
            chaos_sharded = run_one(
                "chaos-sharded", workers=workers, executor="sharded",
                fault_plan=faults.load_plan(CHAOS_PLAN, seed=seed))
            report.diffs += _diff_summaries(
                "chaos-sharded", chaos_reference, chaos_sharded)
            report.diffs += _engine_diffs(
                "chaos-sharded", workdir / "chaos-sharded",
                workers=workers)

    _localize(report, summaries, seed=seed, scale=scale,
              workers=workers)
    return report


#: Configurations :func:`locate_divergence` can re-replay in-process,
#: as ``build_engine`` arguments (kill-resume diverges at the artifact
#: level instead).
_ENGINE_SPECS = {
    "serial": dict(workers=1),
    "fork": dict(workers=4, executor="sharded"),
    "telemetry-off": dict(workers=1),
    "chaos-serial": dict(workers=1),
    "chaos-sharded": dict(workers=4, executor="sharded"),
}


def _localize(report: DifferentialReport, summaries: dict, *,
              seed: int, scale: float, workers: int) -> None:
    """Bisect each diverging config's schedule to the first bad visit."""
    diverged = {diff["config"] for diff in report.diffs
                if diff["artifact"].endswith(".sqlite")}
    for name in sorted(diverged):
        spec = _ENGINE_SPECS.get(name)
        if spec is None:
            continue
        spec = dict(spec)
        if spec.get("executor") == "sharded":
            spec["workers"] = workers
        fault = CHAOS_PLAN if name.startswith("chaos") else None
        reference_name = "chaos-serial" if name.startswith("chaos") \
            else "serial"
        if name == reference_name:
            continue
        divergence = locate_divergence(
            seed, scale, dict(workers=1), spec, fault_plan=fault)
        if divergence is not None:
            divergence["config"] = name
            divergence["reference"] = reference_name
            report.divergences.append(divergence)


def _materialize(seed: int, scale: float, spec: dict,
                 fault_plan: str | None):
    # Build the world/plan/schedule fresh per replay: honeypots are
    # stateful (attacks mutate their contents), so sharing one plan
    # between the two sides would leak the first replay's state into
    # the second and report a phantom divergence.
    plan = build_plan(seed)
    world = build_world(seed, scale)
    schedule = compile_visits(world, plan, seed)
    engine = build_engine(spec.get("workers", 1),
                          spec.get("executor", "auto"))
    telemetry = obs.Telemetry(enabled=False)
    installed = faults.load_plan(fault_plan, seed=seed) \
        if fault_plan else None
    with obs.install(telemetry), faults.install(installed):
        return list(engine.replay(schedule, plan, seed, telemetry))


def locate_divergence(seed: int, scale: float, spec_a: dict,
                      spec_b: dict,
                      fault_plan: str | None = None) -> dict | None:
    """Replay one schedule under two engine specs and report the first
    visit whose outcome differs, or ``None`` when the streams agree.

    Each spec is a ``build_engine`` argument dict (``workers``,
    ``executor``).  The returned record carries the divergent
    canonical key plus both sides' event records -- and flags length
    mismatches when one stream ends early.
    """
    outcomes_a = _materialize(seed, scale, spec_a, fault_plan)
    outcomes_b = _materialize(seed, scale, spec_b, fault_plan)

    def record(outcome) -> dict:
        return {"key": list(outcome.key),
                "target": outcome.target_key,
                "failure": outcome.failure,
                "events": [event.to_json() for event in outcome.events]}

    for index, (a, b) in enumerate(zip(outcomes_a, outcomes_b)):
        if a.key != b.key or a.events != b.events \
                or a.failure != b.failure:
            return {"index": index, "key": list(a.key),
                    "a": record(a), "b": record(b)}
    if len(outcomes_a) != len(outcomes_b):
        longer, side = ((outcomes_a, "a")
                        if len(outcomes_a) > len(outcomes_b)
                        else (outcomes_b, "b"))
        extra = longer[min(len(outcomes_a), len(outcomes_b))]
        return {"index": min(len(outcomes_a), len(outcomes_b)),
                "key": list(extra.key), side: record(extra),
                "note": f"stream {side} has "
                        f"{abs(len(outcomes_a) - len(outcomes_b))} "
                        f"extra outcome(s)"}
    return None
