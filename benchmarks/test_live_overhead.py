"""Live-telemetry overhead: sharded replay with metric deltas off vs on.

The live operations plane must be observationally free (same events,
asserted below) and cheap: a worker takes at most one registry
snapshot + delta per interval, and the delta rides the outcome batch
it was going to send anyway; the driver folds it on its merge loop.
This bench times the same 4-worker replay twice -- without ops wiring
and with a 0.1s delta interval -- and snapshots the wall-time ratio to
``BENCH_live.json`` so regressions in the hot path show up as a ratio
drift.
"""

from __future__ import annotations

import json
import os
import platform
from time import perf_counter

from repro import obs
from repro.agents.population import build_world
from repro.core.reports import format_table
from repro.deployment.plan import build_plan
from repro.deployment.replay import (OpsOptions, build_engine,
                                     compile_visits)
from repro.obs import live as obs_live

from .conftest import OUTPUT_DIR

WORKERS = 4
EMIT_INTERVAL = 0.1


def live_scale() -> float:
    return float(os.environ.get("REPRO_BENCH_REPLAY_SCALE", "0.001"))


def _run(seed: float, scale: float, *, live: bool) -> dict:
    # Fresh plan/world per run: honeypots mutate during replay.
    plan = build_plan(seed=seed)
    world = build_world(seed=seed, volume_scale=scale)
    schedule = compile_visits(world, plan, seed)
    engine = build_engine(WORKERS)
    telemetry = obs.Telemetry(enabled=True)
    ops = None
    if live:
        ops = OpsOptions(live=True, emit_interval=EMIT_INTERVAL,
                         aggregator=obs_live.LiveAggregator())
    started = perf_counter()
    with obs.install(telemetry):
        outcomes = list(engine.replay(schedule, plan, seed, telemetry,
                                      ops))
    wall = perf_counter() - started
    events = sum(len(outcome.events) for outcome in outcomes)
    run = {
        "live": live,
        "visits": len(schedule),
        "events": events,
        "wall_seconds": round(wall, 3),
        "events_per_second": round(events / wall, 1),
    }
    if live:
        run["emissions"] = engine.stats["live"]["emissions"]
        run["equals_merged"] = engine.stats["live"]["equals_merged"]
    return run


def test_live_streaming_overhead(emit):
    seed = int(os.environ.get("REPRO_BENCH_SEED", "2024"))
    scale = live_scale()
    baseline = _run(seed, scale, live=False)
    streamed = _run(seed, scale, live=True)
    ratio = round(streamed["wall_seconds"] / baseline["wall_seconds"], 3)

    snapshot = {
        "bench": {
            "scale": scale,
            "seed": seed,
            "workers": WORKERS,
            "emit_interval": EMIT_INTERVAL,
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "platform": platform.platform(),
        },
        "baseline": baseline,
        "live": streamed,
        "overhead_ratio": ratio,
    }
    OUTPUT_DIR.mkdir(exist_ok=True)
    (OUTPUT_DIR / "BENCH_live.json").write_text(
        json.dumps(snapshot, indent=2) + "\n", encoding="utf-8")

    emit("live_overhead", format_table(
        ["Mode", "Wall (s)", "Events/s", "Emissions"],
        [["off", f"{baseline['wall_seconds']:.3f}",
          f"{baseline['events_per_second']:.0f}", "-"],
         ["on", f"{streamed['wall_seconds']:.3f}",
          f"{streamed['events_per_second']:.0f}",
          str(streamed["emissions"])]])
        + f"\noverhead ratio: {ratio:.3f}x")

    # Live streaming is observation only: same events either way, and
    # the streamed aggregate reconstructs the merged registry exactly.
    assert streamed["events"] == baseline["events"]
    assert streamed["emissions"] >= WORKERS
    assert streamed["equals_merged"] is True
