#!/usr/bin/env python3
"""Layered benchmark of the collect -> store -> report pipeline.

Run from the root of a source checkout::

    python3 pipebench/run.py --workload collect --seed 1 --seconds 10 --trace 0

Workloads (README.md says why each exists):

* ``collect``          serial ``run_experiment`` at scale 2e-3, telemetry off;
* ``durable-sharded``  2-worker fork pool, telemetry on, 1 s checkpoints and
                       the keyed ``visit-crash`` fault plan, scale 2e-4;
* ``report``           ``repro.cli.report_text`` over the ``collect``
                       databases, cold (cache miss) then warm (cache hit).

Every run checks its outputs against the digests pinned in
``references.json``.  The last line of stdout is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
"""

from __future__ import annotations

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from contextlib import nullcontext, suppress  # noqa: E402
from pathlib import Path  # noqa: E402

import checks  # noqa: E402
import spans  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Scratch space for databases and temp files; removed after each run.
WORK = ROOT / ".pipebench-work"
#: Run records and span files, kept for reading after the run.
OUT = ROOT / ".pipebench-out"

WORKLOADS = ("collect", "durable-sharded", "report")
SCALES = {"collect": 2e-3, "durable-sharded": 2e-4, "report": 2e-3}
#: Warm report passes after each cold one; short, so several are timed.
WARM_PASSES = 3
#: Replay workers of ``durable-sharded``: two, or fewer on a smaller host.
WORKERS = min(2, os.cpu_count() or 1)
#: ``--seed n`` replays experiment seed ``n % SEED_SLOTS``; every slot has
#: pinned output digests in ``references.json``.
SEED_SLOTS = 16

END_TO_END = {"setup_s": "s", "collect_s": "s", "events_per_s": "1/s",
              "report_cold_s": "s", "report_warm_s": "s",
              "peak_rss_mb": "MB", "db_bytes_per_event": "B/event"}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name -> unit."""
    units = {name: "s" for name in (
        "plan.build_s", "population.build_s", "replay.compile_s",
        "replay.visit_s", "replay.wait_s", "replay.shard_wall_max_s",
        "replay.shard_wall_min_s", "honeypots.busy_s", "agents.busy_s",
        "sinks.many_s", "convert.close_wait_s", "process.cpu_s",
        "checkpoint.busy_s", "store.scan_s.low", "store.scan_s.midhigh",
        "store.cache_load_s", "trace.untraced_s", "trace.traced_s",
        "trace.overhead_s")}
    units.update({f"honeypots.busy_s.{dbms}": "s" for dbms in spans.DBMS})
    units.update({f"store.{stem}_s": "s"
                  for method, stem in spans.STORE_CALLS.items()
                  if method != "events"})
    units.update({f"reports.{section}_s": "s"
                  for section in spans.REPORT_SECTIONS})
    units["replay.visit_p50_us"] = "us"
    units["replay.visit_p999_us"] = "us"
    units.update({name: "count" for name in (
        "plan.select_calls", "replay.visits", "replay.shards",
        "replay.shard_visits_max", "replay.shard_visits_min",
        "replay.shard_events_max", "replay.shard_events_min",
        "honeypots.sessions", "honeypots.sends", "sinks.batches",
        "sinks.events", "convert.rows.low", "convert.rows.midhigh",
        "enrich.lookups", "checkpoint.count",
        "resilience.quarantined_visits", "resilience.events_quarantined",
        "resilience.injected_crashes", "obs.spans", "store.scans",
        "store.cache_hits", "store.cache_misses", "trace.spans")})
    units.update({name: "bytes" for name in (
        "honeypots.bytes_in", "honeypots.bytes_out",
        "convert.db_bytes.low", "convert.db_bytes.midhigh",
        "journal.bytes", "obs.report_bytes")})
    units.update({name: "ratio" for name in (
        "process.cpu_per_wall", "enrich.lookups_per_event",
        "trace.overhead_share")})
    return units


# -- one collect run --------------------------------------------------------

def make_config(kind: str, seed: int, scale: float, output_dir: Path):
    from repro.deployment import ExperimentConfig
    from repro.resilience.faults import load_plan

    if kind == "durable-sharded":
        return ExperimentConfig(
            seed=seed, volume_scale=scale, output_dir=output_dir,
            workers=WORKERS, executor="sharded",
            pool="fork", telemetry=True, checkpoint_interval=1.0,
            fault_plan=load_plan("visit-crash", seed=seed))
    return ExperimentConfig(seed=seed, volume_scale=scale,
                            output_dir=output_dir)


def _file_bytes(db: Path) -> int:
    return sum(path.stat().st_size
               for path in (db, db.with_name(db.name + "-wal"))
               if path.exists())


def peak_rss_mb(children: bool = True) -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if children:
        usage = max(usage,
                    resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return usage / 1024.0


def collect_once(kind: str, seed: int, scale: float, output_dir: Path,
                 recorder: spans.Recorder | None = None) -> dict:
    """One timed ``run_experiment`` call plus what the checks need."""
    from repro.deployment.experiment import run_experiment

    shutil.rmtree(output_dir, ignore_errors=True)
    config = make_config(kind, seed, scale, output_dir)
    tracing = (spans.installed(recorder, honeypots=kind == "collect")
               if recorder is not None else nullcontext())
    before = os.times()
    start = time.perf_counter()
    with tracing:
        result = run_experiment(config)
    wall = time.perf_counter() - start
    after = os.times()
    manifest = result.report or {}
    faults = manifest.get("resilience", {}).get("faults", {})
    report_path = output_dir / "run_report.json"
    return {
        "output_dir": str(output_dir),
        "low_db": str(result.low_db),
        "midhigh_db": str(result.midhigh_db),
        "collect_s": wall,
        "cpu_s": sum(after[:4]) - sum(before[:4]),
        "peak_rss_mb": peak_rss_mb(),
        "visits": result.visits_total,
        "events": result.events_total,
        "events_generated": result.events_generated,
        "events_quarantined": result.events_quarantined,
        "quarantined_visits": result.quarantined_visits,
        "injected_crashes": faults.get("visit.crash", {}).get("fires", 0),
        "db_bytes": {"low": _file_bytes(result.low_db),
                     "midhigh": _file_bytes(result.midhigh_db)},
        "select_calls": result.plan.select_calls,
        "checkpoints": result.checkpoints_taken,
        "journal_bytes": (result.journal_path.stat().st_size
                          if result.journal_path else 0),
        "obs_spans": manifest.get("trace", {}).get("spans", 0),
        "report_bytes": (report_path.stat().st_size
                         if result.report is not None else 0),
        "shards": manifest.get("replay", {}).get("shards") or [],
    }


def check_collect(kind: str, run: dict, seed: int, scale: float
                  ) -> list[str]:
    """Output checks of one collect run (see README.md)."""
    problems = []
    stored = run["events"] + run["events_quarantined"]
    if run["events_generated"] != stored:
        problems.append(f"conservation: generated "
                        f"{run['events_generated']} != stored + "
                        f"quarantined {stored}")
    if run["quarantined_visits"] != run["injected_crashes"]:
        problems.append(f"{run['quarantined_visits']} visits quarantined "
                        f"but {run['injected_crashes']} crashes injected")
    problems += checks.compare_dbs(checks.reference(kind, scale, seed),
                                   Path(run["low_db"]),
                                   Path(run["midhigh_db"]))
    if kind == "durable-sharded":
        from repro.verify.audit import audit_run

        problems += [f"audit {finding.code}: {finding.message}"
                     for finding in audit_run(run["output_dir"]).findings]
    return problems


def failed_visits(run: dict) -> int:
    """Quarantined visits the fault plan did not cause."""
    return max(0, run["quarantined_visits"] - run["injected_crashes"])


def collect_layers(kind: str, run: dict, summary: spans.Summary,
                   cpu_run: dict) -> dict[str, float]:
    """Per-layer metrics of a traced collect run (``cpu_run``: the
    untraced run whose process CPU time is reported)."""
    out = spans.collect_layers(summary, sharded=kind == "durable-sharded",
                               shards=run["shards"], events=run["events"])
    rows = {tier: checks.row_count(Path(run[f"{tier}_db"]))
            for tier in ("low", "midhigh")}
    out.update({
        "plan.select_calls": run["select_calls"],
        "convert.rows.low": rows["low"],
        "convert.rows.midhigh": rows["midhigh"],
        "convert.db_bytes.low": run["db_bytes"]["low"],
        "convert.db_bytes.midhigh": run["db_bytes"]["midhigh"],
        "process.cpu_s": cpu_run["cpu_s"],
        "process.cpu_per_wall": cpu_run["cpu_s"] / cpu_run["collect_s"],
        "enrich.lookups_per_event": (out["enrich.lookups"]
                                     / max(1, run["events"])),
        "checkpoint.count": run["checkpoints"],
        "journal.bytes": run["journal_bytes"],
        "resilience.quarantined_visits": run["quarantined_visits"],
        "resilience.events_quarantined": run["events_quarantined"],
        "resilience.injected_crashes": run["injected_crashes"],
        "obs.spans": run["obs_spans"],
        "obs.report_bytes": run["report_bytes"],
    })
    return out


# -- one report round: cold, then warm ---------------------------------------

def report_round(low_db: Path, midhigh_db: Path, scale: float,
                 traced: bool = False) -> dict:
    """Clear the analysis cache, then render the report once cold and
    :data:`WARM_PASSES` times warm (``warm_s`` is their median)."""
    from repro.cli import report_text
    from repro.core.store import AnalysisStore

    for db in (low_db, midhigh_db):
        with AnalysisStore(db) as store:
            store.clear_cache()
    pair: dict = {"hits": 0, "misses": 0, "scans": 0, "texts": [],
                  "seconds": [], "recorders": []}
    for _ in range(1 + (1 if traced else WARM_PASSES)):
        recorder = spans.Recorder() if traced else None
        tracing = (spans.installed(recorder) if traced else nullcontext())
        start = time.perf_counter()
        with tracing, AnalysisStore(low_db) as low, \
                AnalysisStore(midhigh_db) as midhigh:
            pair["texts"].append(report_text(low, midhigh, scale))
        pair["seconds"].append(time.perf_counter() - start)
        pair["recorders"].append(recorder)
        for store in (low, midhigh):
            for key in ("hits", "misses", "scans"):
                pair[key] += store.stats[key]
    pair["cold_s"] = pair["seconds"][0]
    pair["warm_s"] = statistics.median(pair["seconds"][1:])
    return pair


def report_layers(pair: dict) -> dict[str, float]:
    cold, warm = pair["recorders"]
    out = spans.report_layers(spans.Summary(cold), spans.Summary(warm))
    out.update({"store.scans": pair["scans"],
                "store.cache_hits": pair["hits"],
                "store.cache_misses": pair["misses"]})
    return out


def overhead(untraced: list[float], traced_s: float, spans_count: int
             ) -> dict[str, float]:
    untraced_s = statistics.mean(untraced)
    return {"trace.untraced_s": untraced_s, "trace.traced_s": traced_s,
            "trace.overhead_s": traced_s - untraced_s,
            "trace.overhead_share": (traced_s - untraced_s) / untraced_s,
            "trace.spans": spans_count}


def write_spans(name: str, pair: dict) -> None:
    """Span files of a traced report pair: ``<name>-cold``/``-warm``."""
    for phase, recorder in zip(("cold", "warm"), pair["recorders"]):
        recorder.write(OUT / f"spans-{name}-{phase}.tsv.gz")


# -- workloads ----------------------------------------------------------------

class Run:
    """Accumulates one benchmark run's metrics, operations and problems."""

    def __init__(self) -> None:
        self.metrics: dict[str, float] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.details: dict = {}

    def check_report(self, pinned: dict | None, pair: dict) -> None:
        problems = checks.compare_report(pinned, pair["texts"])
        self.attempted += len(pair["texts"])
        self.failed += len(pair["texts"]) if problems else 0
        self.problems += problems


def run_collect(kind: str, seed: int, scale: float, seconds: float,
                trace: bool, work: Path) -> Run:
    run = Run()
    pinned = checks.reference(kind, scale, seed)
    setup_s = time.perf_counter() - _START

    def finish(collected: dict) -> None:
        run.attempted += collected["visits"]
        run.failed += failed_visits(collected)
        run.problems += check_collect(kind, collected, seed, scale)

    if trace:
        # Untraced, traced, untraced: the overhead is the traced wall
        # time minus the mean of the two untraced ones around it.
        recorder = spans.Recorder()
        runs = []
        for name, tracer in (("before", None), ("traced", recorder),
                             ("after", None)):
            runs.append(collect_once(kind, seed, scale, work / name, tracer))
            finish(runs[-1])
            if tracer is None:
                shutil.rmtree(work / name)
        before, traced, after = runs
        pair = report_round(Path(traced["low_db"]),
                            Path(traced["midhigh_db"]), scale, traced=True)
        run.check_report(pinned, pair)
        run.metrics = collect_layers(kind, traced, spans.Summary(recorder),
                                     after)
        run.metrics.update(report_layers(pair))
        run.metrics.update(overhead(
            [before["collect_s"], after["collect_s"]],
            traced["collect_s"], recorder.count()))
        recorder.write(OUT / f"spans-{kind}-seed{seed}-collect.tsv.gz")
        write_spans(f"{kind}-seed{seed}", pair)
        run.details["runs"] = runs
        return run

    collected: list[dict] = []
    while not collected or sum(c["collect_s"] for c in collected) < seconds:
        if collected:
            shutil.rmtree(collected[-1]["output_dir"])
        collected.append(collect_once(kind, seed, scale,
                                      work / f"run{len(collected)}"))
        finish(collected[-1])
    last = collected[-1]
    peak = peak_rss_mb()
    pair = report_round(Path(last["low_db"]), Path(last["midhigh_db"]),
                        scale)
    run.check_report(pinned, pair)
    run.metrics = {
        "setup_s": setup_s,
        "collect_s": statistics.median(c["collect_s"] for c in collected),
        "events_per_s": statistics.median(c["events"] / c["collect_s"]
                                          for c in collected),
        "report_cold_s": pair["cold_s"],
        "report_warm_s": pair["warm_s"],
        "peak_rss_mb": peak,
        "db_bytes_per_event": (sum(last["db_bytes"].values())
                               / last["events"]),
    }
    run.details["runs"] = collected
    return run


def build_in_child(seed: int, scale: float, trace: bool, work: Path
                   ) -> dict:
    """Build the ``collect`` databases in a child process, so their
    memory does not count towards the report workload's peak RSS."""
    work.mkdir(parents=True, exist_ok=True)
    subprocess.run(
        [sys.executable, str(Path(__file__).resolve()),
         "--build", str(work), "--seed", str(seed), "--scale", repr(scale),
         "--trace", str(int(trace))],
        check=True, timeout=170, stdout=subprocess.DEVNULL)
    return json.loads((work / "build.json").read_text(encoding="utf-8"))


def run_report(seed: int, scale: float, seconds: float, trace: bool,
               work: Path) -> Run:
    run = Run()
    pinned = checks.reference("collect", scale, seed)
    built = build_in_child(seed, scale, trace, work / "dbs")
    low_db, midhigh_db = Path(built["low_db"]), Path(built["midhigh_db"])
    setup_s = time.perf_counter() - _START
    if trace:
        rounds = [report_round(low_db, midhigh_db, scale),
                  report_round(low_db, midhigh_db, scale, traced=True),
                  report_round(low_db, midhigh_db, scale)]
        traced = rounds[1]
        run.metrics = dict(built["layers"])
        run.metrics.update(report_layers(traced))
        run.metrics.update(overhead(
            [rounds[0]["cold_s"] + rounds[0]["warm_s"],
             rounds[2]["cold_s"] + rounds[2]["warm_s"]],
            traced["cold_s"] + traced["warm_s"],
            sum(recorder.count() for recorder in traced["recorders"])))
        write_spans(f"report-seed{seed}", traced)
    else:
        rounds = []
        while not rounds or sum(r["cold_s"] + r["warm_s"]
                                for r in rounds) < seconds:
            rounds.append(report_round(low_db, midhigh_db, scale))
        run.metrics = {
            "setup_s": setup_s,
            "collect_s": built["collect_s"],
            "events_per_s": built["events"] / built["collect_s"],
            "report_cold_s": statistics.median(r["cold_s"] for r in rounds),
            "report_warm_s": statistics.median(r["warm_s"] for r in rounds),
            "peak_rss_mb": peak_rss_mb(children=False),
            "db_bytes_per_event": (sum(built["db_bytes"].values())
                                   / built["events"]),
        }
    for rnd in rounds:
        run.check_report(pinned, rnd)
    run.problems += check_collect("collect", built, seed, scale)
    run.details["build"] = {key: value for key, value in built.items()
                            if key != "layers"}
    return run


def build_main(args: argparse.Namespace) -> int:
    """``--build DIR``: one ``collect`` run into DIR, summary in build.json."""
    work = Path(args.build)
    recorder = spans.Recorder() if args.trace else None
    untraced = None
    if args.trace:
        untraced = collect_once("collect", args.seed, args.scale,
                                work / "untraced")
        shutil.rmtree(work / "untraced")
    built = collect_once("collect", args.seed, args.scale, work / "run",
                         recorder)
    if recorder is not None:
        built["layers"] = collect_layers("collect", built,
                                         spans.Summary(recorder), untraced)
        recorder.write(OUT / f"spans-report-seed{args.seed}-build.tsv.gz")
    (work / "build.json").write_text(json.dumps(built), encoding="utf-8")
    return 0


# -- entry point --------------------------------------------------------------

def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=None,
                        help="override the workload's volume scale "
                             "(self-tests; needs pinned references)")
    parser.add_argument("--build", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.build is None and args.workload is None:
        parser.error("--workload is required")
    return args


def metadata(args: argparse.Namespace, seed: int, scale: float) -> dict:
    return {"workload": args.workload, "seed": args.seed,
            "experiment_seed": seed, "scale": scale,
            "workers": WORKERS if args.workload == "durable-sharded" else 1,
            "cpu_count": os.cpu_count(), "seconds": args.seconds,
            "trace": args.trace, "python": platform.python_version(),
            "platform": platform.platform()}


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {SRC}; run from the root of "
              f"a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # The analysis cache must live next to the databases, inside the
    # checkout, and be on: ignore the knobs that relocate or disable it.
    os.environ.pop("REPRO_ANALYSIS_CACHE_DIR", None)
    os.environ.pop("REPRO_ANALYSIS_CACHE", None)
    # Loading the program is set-up, not part of any timed region.
    import repro.cli  # noqa: F401
    import repro.deployment.experiment  # noqa: F401
    import repro.verify.audit  # noqa: F401
    if args.build is not None:
        return build_main(args)

    seed = args.seed % SEED_SLOTS
    scale = args.scale if args.scale is not None else SCALES[args.workload]
    work = WORK / f"{args.workload}-{os.getpid()}"
    # SQLite spills sorts for the post-load index build to TMPDIR.
    tmp = work / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = os.environ["SQLITE_TMPDIR"] = str(tmp)
    try:
        if args.workload == "report":
            run = run_report(seed, scale, args.seconds, bool(args.trace),
                             work)
        else:
            run = run_collect(args.workload, seed, scale, args.seconds,
                              bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with suppress(OSError):  # still in use by a concurrent run
            WORK.rmdir()

    units = per_layer_units() if args.trace else END_TO_END
    missing = sorted(set(units) - set(run.metrics))
    if missing:
        run.problems.append(f"metrics not measured: {missing}")
    correct = not run.problems
    failed = run.failed if correct else run.attempted
    meta = metadata(args, seed, scale)
    record = {"meta": meta, "problems": run.problems,
              "details": run.details, "metrics": run.metrics}
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(record, indent=1, default=str),
                  encoding="utf-8")
    for problem in run.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({"meta": meta}))
    print(json.dumps({
        "correct": correct, "attempted": run.attempted, "failed": failed,
        "metrics": {name: {"value": float(run.metrics.get(name, 0.0)),
                           "unit": unit}
                    for name, unit in units.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
