"""Replay engine throughput: serial vs sharded (2 and 4 workers).

Times the replay stage alone (schedule compilation and conversion
excluded) for each executor, records events/second and the speedup over
serial, and snapshots the numbers to ``BENCH_replay.json``.

The numbers are honest for the machine they ran on: sharding pays a
fork + outcome-pickling overhead that only amortizes when real cores
are available, so on a single-CPU container the sharded engines are
*slower* than serial.  ``cpu_count`` is recorded alongside the timings
so a reader can tell the difference between "sharding is broken" and
"there was nothing to parallelize onto".
"""

from __future__ import annotations

import json
import os
import platform
from time import perf_counter

from repro.agents.population import build_world
from repro.deployment.plan import build_plan
from repro.deployment.replay import build_engine, compile_visits
from repro.obs import NULL_TELEMETRY
from repro.core.reports import format_table

from .conftest import OUTPUT_DIR

WORKER_COUNTS = (1, 2, 4)


def replay_scale() -> float:
    # Replay is timed three times over; default to half the analysis
    # benches' scale to keep the suite's wall time in check.
    return float(os.environ.get("REPRO_BENCH_REPLAY_SCALE", "0.001"))


def test_replay_throughput(emit):
    seed = int(os.environ.get("REPRO_BENCH_SEED", "2024"))
    scale = replay_scale()
    runs = []
    for workers in WORKER_COUNTS:
        # Fresh plan/world per run: honeypots mutate during replay.
        plan = build_plan(seed=seed)
        world = build_world(seed=seed, volume_scale=scale)
        schedule = compile_visits(world, plan, seed)
        engine = build_engine(workers)
        started = perf_counter()
        outcomes = list(engine.replay(schedule, plan, seed,
                                      NULL_TELEMETRY))
        wall = perf_counter() - started
        events = sum(len(outcome.events) for outcome in outcomes)
        runs.append({
            "workers": workers,
            "executor": engine.stats["executor"],
            "visits": len(schedule),
            "events": events,
            "wall_seconds": round(wall, 3),
            "events_per_second": round(events / wall, 1),
        })

    serial = runs[0]
    for run in runs:
        run["speedup_vs_serial"] = round(
            serial["wall_seconds"] / run["wall_seconds"], 2)

    snapshot = {
        "bench": {
            "scale": scale,
            "seed": seed,
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "platform": platform.platform(),
        },
        "runs": runs,
    }
    OUTPUT_DIR.mkdir(exist_ok=True)
    (OUTPUT_DIR / "BENCH_replay.json").write_text(
        json.dumps(snapshot, indent=2) + "\n", encoding="utf-8")

    emit("replay_throughput", format_table(
        ["Workers", "Executor", "Wall (s)", "Events/s", "Speedup"],
        [[run["workers"], run["executor"], f"{run['wall_seconds']:.3f}",
          f"{run['events_per_second']:.0f}",
          f"{run['speedup_vs_serial']:.2f}x"] for run in runs]))

    # Correctness invariants hold regardless of available parallelism.
    assert len({run["events"] for run in runs}) == 1
    assert len({run["visits"] for run in runs}) == 1
    assert all(run["wall_seconds"] > 0 for run in runs)
