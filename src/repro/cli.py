"""Command-line interface (``python -m repro``).

Subcommands:

* ``run``            -- replay the 20-day deployment, write the SQLite
  databases (and optionally the raw logs / public dataset),
* ``report``         -- regenerate the paper's key tables from an
  existing run,
* ``stats``          -- pretty-print the ``run_report.json`` telemetry
  manifest of a previous ``repro run --telemetry``,
* ``serve``          -- start live TCP honeypots on loopback (supervised,
  with idle/byte limits) and print captured events until interrupted,
* ``export-dataset`` -- run a deployment and export the anonymized
  Appendix-B dataset,
* ``chaos``          -- run the deployment under a deterministic
  fault-injection plan and verify the conservation invariant
  ``events_generated == events_stored + events_quarantined``,
* ``verify``         -- audit a finished run's artifacts against every
  cross-artifact invariant (coded findings, ``--json``), or
  ``--differential``: replay one seed under an execution matrix and
  diff every artifact, bisecting the visit schedule on divergence,
* ``profile``        -- run a small deployment under ``cProfile`` and
  print the hot functions plus the compile/replay throughput numbers.

Exit codes: 0 success, 1 missing input (e.g. no database / manifest at
``--output``), 2 bad arguments.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from repro.core.bruteforce import credential_stats, logins_by_country
from repro.core.campaigns import campaign_summary
from repro.core.reports import (classification_table, extrapolate,
                                format_table)
from repro.core.store import AnalysisStore
from repro.agents.population import build_world
from repro.core.temporal import hourly_series
from repro.deployment import (ExperimentConfig, resolve_workers,
                              run_experiment)
from repro.deployment.plan import build_plan


def _package_version() -> str:
    try:
        from importlib.metadata import version

        return version("repro")
    except Exception:
        from repro import __version__

        return __version__


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Decoy Databases reproduction toolkit")
    parser.add_argument("--version", action="version",
                        version=f"repro {_package_version()}")
    subcommands = parser.add_subparsers(dest="command", required=True)

    run_cmd = subcommands.add_parser(
        "run", help="replay the 20-day deployment")
    run_cmd.add_argument("--seed", type=int, default=2024)
    run_cmd.add_argument("--scale", type=float, default=0.002,
                         help="login-volume scale factor")
    run_cmd.add_argument("--output", type=Path,
                         default=Path("experiment-output"))
    run_cmd.add_argument("--raw-logs", action="store_true",
                         help="also write consolidated JSONL raw logs")
    run_cmd.add_argument("--dataset", action="store_true",
                         help="also export the anonymized dataset")
    run_cmd.add_argument("--telemetry", action="store_true",
                         help="instrument the run and write "
                              "run_report.json next to the databases")
    run_cmd.add_argument("--trace-out", type=Path, default=None,
                         help="with --telemetry, export the span trace "
                              "here (.jsonl for JSON-lines, else Chrome "
                              "chrome://tracing format)")
    run_cmd.add_argument("--workers", default="1",
                         help="replay workers: 1 replays serially, N > 1 "
                              "shards the visit schedule by target "
                              "honeypot across N workers (same events, "
                              "same order); 'auto' matches the host's "
                              "core count")
    run_cmd.add_argument("--live-port", type=int, default=None,
                         help="with --telemetry, serve /metrics and "
                              "/healthz on this loopback port for the "
                              "duration of the run (0 picks a free port)")
    run_cmd.add_argument("--live-interval", type=float, default=0.0,
                         help="with --telemetry and --workers > 1, "
                              "stream shard telemetry to the driver "
                              "every this many seconds (progress lines "
                              "+ incremental run_report.json snapshots; "
                              "0 disables unless --live-port is given)")
    run_cmd.add_argument("--checkpoint-interval", type=float, default=0.0,
                         help="write a durable run-journal checkpoint "
                              "every this many seconds (fsync commit "
                              "barrier across both databases, raw logs "
                              "and the dead letter); 0 disables "
                              "checkpointing entirely (default)")
    run_cmd.add_argument("--resume", nargs="?", const="latest",
                         default=None, metavar="latest|force",
                         help="resume a crashed checkpointed run at "
                              "--output from its run journal; 'latest' "
                              "(the default) refuses on any damage "
                              "beyond a torn journal tail, 'force' "
                              "falls back to the newest checkpoint "
                              "that validates (or restarts)")

    report_cmd = subcommands.add_parser(
        "report", help="print the key tables of an existing run")
    report_cmd.add_argument("--output", type=Path,
                            default=Path("experiment-output"),
                            help="directory of a previous `repro run`")
    report_cmd.add_argument("--scale", type=float, default=0.002,
                            help="scale used by that run (for "
                                 "extrapolation)")
    report_cmd.add_argument("--no-cache", action="store_true",
                            help="clear the analysis cache next to the "
                                 "databases and rebuild everything from "
                                 "a fresh scan")

    stats_cmd = subcommands.add_parser(
        "stats", help="pretty-print the run_report.json of a previous "
                      "`repro run --telemetry`")
    stats_cmd.add_argument("--output", type=Path,
                           default=Path("experiment-output"),
                           help="directory of a previous "
                                "`repro run --telemetry`")
    stats_cmd.add_argument("--json", action="store_true",
                           help="print the raw manifest JSON instead of "
                                "the human summary (for scripts/jq)")

    serve_cmd = subcommands.add_parser(
        "serve", help="serve live honeypots on loopback TCP ports")
    serve_cmd.add_argument("--host", default="127.0.0.1")
    serve_cmd.add_argument("--port-base", type=int, default=None,
                           help="assign sequential ports starting here "
                                "instead of OS-picked ephemeral ports")
    serve_cmd.add_argument("--idle-timeout", type=float, default=300.0,
                           help="close connections idle for this many "
                                "seconds (0 disables)")
    serve_cmd.add_argument("--max-session-bytes", type=int,
                           default=1 << 20,
                           help="close connections after this many "
                                "received bytes (0 disables)")
    serve_cmd.add_argument("--live-port", type=int, default=None,
                           help="also serve /metrics (Prometheus text) "
                                "and /healthz (per-listener state) on "
                                "this loopback port (0 picks a free "
                                "port)")
    serve_cmd.add_argument("--report-out", type=Path, default=None,
                           help="write a final metrics-snapshot JSON "
                                "here on clean shutdown")
    serve_cmd.add_argument("--duration", type=float, default=0.0,
                           help="serve for this many seconds, then shut "
                                "down cleanly (0 = until Ctrl-C)")

    dataset_cmd = subcommands.add_parser(
        "export-dataset", help="run a deployment and export the "
                               "anonymized dataset")
    dataset_cmd.add_argument("--seed", type=int, default=2024)
    dataset_cmd.add_argument("--scale", type=float, default=0.001)
    dataset_cmd.add_argument("--output", type=Path,
                             default=Path("experiment-output"))

    chaos_cmd = subcommands.add_parser(
        "chaos", help="run the deployment under a fault-injection plan "
                      "and verify zero event loss")
    chaos_cmd.add_argument("--plan", default="all",
                           help="builtin plan name (see --list-plans) or "
                                "a JSON file {site: {probability, "
                                "max_fires, start_after}}")
    chaos_cmd.add_argument("--seed", type=int, default=2024)
    chaos_cmd.add_argument("--scale", type=float, default=0.0005,
                           help="login-volume scale factor")
    chaos_cmd.add_argument("--output", type=Path,
                           default=Path("chaos-output"))
    chaos_cmd.add_argument("--list-plans", action="store_true",
                           help="list the builtin fault plans and exit")
    chaos_cmd.add_argument("--workers", default="1",
                           help="replay workers (see `repro run "
                                "--workers`, including 'auto'); "
                                "conservation must hold under "
                                "sharding too")
    chaos_cmd.add_argument("--checkpoint-interval", type=float,
                           default=0.0,
                           help="checkpoint the chaos run every this "
                                "many seconds; a run killed by the "
                                "worker-kill plan then auto-resumes "
                                "from its last durable checkpoint")

    verify_cmd = subcommands.add_parser(
        "verify", help="audit a run's artifacts against every "
                       "cross-artifact invariant, or differentially "
                       "replay one seed under an execution matrix")
    verify_cmd.add_argument("--output", type=Path,
                            default=Path("experiment-output"),
                            help="directory of a previous `repro run "
                                 "--telemetry` to audit (ignored with "
                                 "--differential)")
    verify_cmd.add_argument("--json", action="store_true",
                            help="print the machine-readable findings "
                                 "report instead of the human summary")
    verify_cmd.add_argument("--differential", action="store_true",
                            help="replay one seed under a "
                                 "configuration matrix and diff every "
                                 "artifact instead of auditing an "
                                 "existing run")
    verify_cmd.add_argument("--seed", type=int, default=2024)
    verify_cmd.add_argument("--scale", type=float, default=0.0005,
                            help="login-volume scale factor for the "
                                 "differential runs")
    verify_cmd.add_argument("--workers", type=int, default=4,
                            help="worker count of the sharded matrix "
                                 "configurations")
    verify_cmd.add_argument("--matrix", default=None,
                            help="comma-separated matrix "
                                 "configurations (default: "
                                 "serial,fork,telemetry-off; "
                                 "also: kill-resume, chaos)")
    verify_cmd.add_argument("--workdir", type=Path, default=None,
                            help="where the differential runs land "
                                 "(default: a temporary directory, "
                                 "removed afterwards)")

    profile_cmd = subcommands.add_parser(
        "profile", help="profile a small deployment run under cProfile "
                        "and print the hot functions")
    profile_cmd.add_argument("--seed", type=int, default=2024)
    profile_cmd.add_argument("--scale", type=float, default=5e-05,
                             help="login-volume scale factor (default is "
                                  "a quick profiling scale)")
    profile_cmd.add_argument("--top", type=int, default=20,
                             help="rows of the hot-function table to "
                                  "print")
    profile_cmd.add_argument("--sort", default="cumulative",
                             choices=["cumulative", "tottime", "calls"],
                             help="pstats sort order for the table")
    profile_cmd.add_argument("--output", type=Path, default=None,
                             help="run output directory (default: a "
                                  "temporary directory, removed "
                                  "afterwards)")
    profile_cmd.add_argument("--stats-out", type=Path, default=None,
                             help="also dump the raw pstats file here "
                                  "(loadable with pstats/snakeviz)")
    return parser


def cmd_run(args: argparse.Namespace) -> int:
    if args.trace_out is not None and not args.telemetry:
        print("error: --trace-out requires --telemetry", file=sys.stderr)
        return 2
    if args.live_port is not None and not args.telemetry:
        print("error: --live-port requires --telemetry", file=sys.stderr)
        return 2
    if args.live_interval < 0:
        print(f"error: --live-interval must be >= 0, "
              f"got {args.live_interval}", file=sys.stderr)
        return 2
    if args.checkpoint_interval < 0:
        print(f"error: --checkpoint-interval must be >= 0, "
              f"got {args.checkpoint_interval}", file=sys.stderr)
        return 2
    if args.resume is not None and args.resume not in ("latest",
                                                       "force"):
        print(f"error: --resume takes 'latest' or 'force', "
              f"got {args.resume!r}", file=sys.stderr)
        return 2
    if args.dataset and (args.checkpoint_interval > 0 or args.resume):
        print("error: --dataset buffers every event in memory and "
              "cannot be combined with --checkpoint-interval or "
              "--resume", file=sys.stderr)
        return 2
    try:
        workers = resolve_workers(args.workers)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    from repro.deployment.checkpoint import (ResumeError,
                                             ResumeUnnecessary)

    try:
        result = run_experiment(ExperimentConfig(
            seed=args.seed, volume_scale=args.scale,
            output_dir=args.output, write_raw_logs=args.raw_logs,
            export_dataset=args.dataset, telemetry=args.telemetry,
            trace_out=args.trace_out, workers=workers,
            live_interval=args.live_interval, live_port=args.live_port,
            checkpoint_interval=args.checkpoint_interval,
            resume=args.resume))
    except ResumeUnnecessary as error:
        print(f"nothing to do: {error}")
        return 0
    except ResumeError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    if workers > 1:
        print(f"replay:   sharded across {workers} workers")
    print(f"visits:   {result.visits_total:,}")
    print(f"events:   {result.events_total:,}")
    print(f"low DB:   {result.low_db}")
    print(f"mid DB:   {result.midhigh_db}")
    if result.raw_log_dir:
        print(f"raw logs: {result.raw_log_dir}")
    if result.dataset_dir:
        print(f"dataset:  {result.dataset_dir}")
    if result.journal_path:
        print(f"journal:  {result.journal_path} "
              f"({result.checkpoints_taken} checkpoints)")
    if result.resumed:
        print(f"resumed:  {result.fast_forwarded_visits:,} visits "
              f"fast-forwarded")
    if result.report_path:
        print(f"report:   {result.report_path}")
    if result.trace_path:
        print(f"trace:    {result.trace_path}")
    return 0


def report_text(low: AnalysisStore, midhigh: AnalysisStore,
                scale: float) -> str:
    """Render the `repro report` tables from two analysis stores.

    Every derived artifact (profiles, TF matrices, linkage) is served
    through the stores, so a cold run performs one scan per database
    and a warm run zero; the rendered text is byte-identical either
    way.  The low-tier scan fetches only the two columns Figure 2
    reads.
    """
    series = hourly_series(low)
    sections = [
        f"Figure 2: {series.total_unique} unique low-tier IPs, "
        f"{series.mean_clients_per_hour():.1f} clients/hour, "
        f"{series.mean_new_per_hour():.1f} new/hour\n",
        "Table 5: top countries by login attempts",
        format_table(
            ["Country", "#Logins", "extrapolated", "#IP/Total"],
            [[r.country, r.logins, f"{extrapolate(r.logins, scale):,}",
              f"{r.login_ips}/{r.total_ips}"]
             for r in logins_by_country(low, top=10)]),
    ]

    stats = credential_stats(low, "mssql")
    sections += [
        "\nTable 12: top MSSQL credentials",
        format_table(["Username", "Password", "#"],
                     [[u, p or '""', c]
                      for (u, p), c in stats.top_pairs[:5]]),
        "\nTable 8: medium/high classification",
        format_table(
            ["DBMS", "#IP", "Scan", "Scout", "Exploit", "#Cls"],
            [[r.dbms, r.total_ips, r.scanning, r.scouting, r.exploiting,
              r.clusters]
             for r in classification_table(midhigh,
                                           distance_threshold=0.1)]),
        "\nTable 9: attack campaigns",
        format_table(
            ["Category", "DBMS", "Attack", "#IP"],
            [[r.category, r.dbms, r.tag, r.ip_count]
             for r in campaign_summary(midhigh.profiles())]),
    ]
    return "\n".join(sections)


def cmd_report(args: argparse.Namespace) -> int:
    if args.scale <= 0:
        print(f"error: --scale must be positive, got {args.scale}",
              file=sys.stderr)
        return 2
    if args.output.exists() and not args.output.is_dir():
        print(f"error: {args.output} is not a directory", file=sys.stderr)
        return 2
    low_db = args.output / "low.sqlite"
    midhigh_db = args.output / "midhigh.sqlite"
    for path in (low_db, midhigh_db):
        if not path.exists():
            print(f"error: {path} not found (run `repro run` first)",
                  file=sys.stderr)
            return 1

    use_cache = not args.no_cache
    with AnalysisStore(low_db, use_cache=use_cache) as low, \
            AnalysisStore(midhigh_db, use_cache=use_cache) as midhigh:
        if args.no_cache:
            removed = low.clear_cache() + midhigh.clear_cache()
            if removed:
                print(f"analysis cache: cleared {removed} artifacts",
                      file=sys.stderr)
        print(report_text(low, midhigh, args.scale))
        # Cache accounting goes to stderr so cold and warm runs emit
        # byte-identical reports on stdout (asserted in CI).
        for name, store in (("low", low), ("midhigh", midhigh)):
            stats = store.stats
            print(f"analysis cache [{name}]: {stats['hits']} hits, "
                  f"{stats['misses']} misses, {stats['scans']} scans, "
                  f"{stats['scan_cells']} cells scanned",
                  file=sys.stderr)
    return 0


def cmd_stats(args: argparse.Namespace) -> int:
    from repro.obs.report import (REPORT_FILENAME, format_summary,
                                  load_report)

    path = args.output / REPORT_FILENAME
    if not path.exists():
        print(f"error: {path} not found "
              f"(run `repro run --telemetry` first)", file=sys.stderr)
        return 1
    try:
        manifest = load_report(path)
    except (ValueError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    if args.json:
        import json

        print(json.dumps(manifest, indent=2, sort_keys=True))
        return 0
    print(format_summary(manifest))
    for line in _cache_summary(args.output):
        print(line)
    return 0


def _cache_summary(output_dir: Path) -> list[str]:
    """One line per populated analysis cache next to the run's databases."""
    lines = []
    for db_name in ("low.sqlite", "midhigh.sqlite"):
        cache_dir = output_dir / f"{db_name}.cache"
        artifacts = sorted(cache_dir.glob("*.pkl")) if cache_dir.is_dir() \
            else []
        if not artifacts:
            continue
        total = sum(path.stat().st_size for path in artifacts)
        lines.append(f"analysis cache [{db_name}]: {len(artifacts)} "
                     f"artifacts, {total / 1e6:.1f} MB "
                     f"(clear with `repro report --no-cache`)")
    return lines


def cmd_serve(args: argparse.Namespace) -> int:
    import asyncio
    import time

    from repro import obs
    from repro.honeypots import (Elasticpot, LowInteractionMSSQL,
                                 LowInteractionMySQL, MongoHoneypot,
                                 RedisHoneypot, StickyElephant)
    from repro.honeypots.tcp import serve_honeypots
    from repro.netsim.clock import SimClock
    from repro.obs import live as obs_live
    from repro.pipeline.sinks import BufferSink
    from repro.resilience import ServerSupervisor

    # A live farm is always instrumented: its registry feeds /metrics
    # and the optional shutdown snapshot; with neither requested the
    # counters are still cheap enough to keep.
    telemetry = obs.Telemetry(enabled=True)

    async def serve() -> None:
        clock = SimClock()
        sink = BufferSink()
        seen = 0
        deadline = (time.monotonic() + args.duration
                    if args.duration > 0 else None)

        honeypots = [
            LowInteractionMySQL("serve-mysql"),
            LowInteractionMSSQL("serve-mssql"),
            RedisHoneypot("serve-redis", config="fake_data"),
            StickyElephant("serve-postgresql"),
            Elasticpot("serve-elasticsearch"),
            MongoHoneypot("serve-mongodb"),
        ]
        servers = await serve_honeypots(
            honeypots, clock, sink, host=args.host,
            port_base=args.port_base,
            idle_timeout=args.idle_timeout or None,
            max_session_bytes=args.max_session_bytes or None)
        supervisor = ServerSupervisor(servers)
        await supervisor.start()
        live_server = None
        if args.live_port is not None:
            live_server = obs_live.LiveOpsServer(
                telemetry.metrics.snapshot, supervisor.health,
                port=args.live_port)
            live_server.start()
        print("honeypots listening (supervised):")
        for server in servers:
            print(f"  {server.honeypot.dbms:15s} "
                  f"{args.host}:{server.port}")
        if live_server is not None:
            print(f"  {'live ops':15s} {live_server.host}:"
                  f"{live_server.port}  (/metrics, /healthz)")
        telemetry.logger.info("serve.listening",
                              listeners=len(servers),
                              live_port=(live_server.port
                                         if live_server else None))
        print("Ctrl-C to stop" if deadline is None
              else f"serving for {args.duration:g}s")
        try:
            while deadline is None or time.monotonic() < deadline:
                await asyncio.sleep(0.5)
                for event in sink.events[seen:]:
                    print(f"[{event.dbms}] {event.src_ip} "
                          f"{event.event_type} {event.action or ''}")
                seen = len(sink)
        except asyncio.CancelledError:
            pass
        finally:
            # Health is sampled before teardown: the snapshot records
            # the farm as it was serving, not the stopped listeners.
            final_health = supervisor.health()
            await supervisor.stop()
            for server in servers:
                await server.stop()
            if live_server is not None:
                live_server.close()
            if args.report_out is not None:
                import json

                snapshot = {
                    "kind": "repro.serve_snapshot",
                    "events_captured": len(sink),
                    "health": final_health,
                    "metrics": telemetry.metrics.snapshot(),
                }
                args.report_out.parent.mkdir(parents=True,
                                             exist_ok=True)
                args.report_out.write_text(
                    json.dumps(snapshot, indent=2, sort_keys=True)
                    + "\n", encoding="utf-8")
                print(f"snapshot: {args.report_out}")

    try:
        with obs.install(telemetry):
            asyncio.run(serve())
    except KeyboardInterrupt:
        print("\nstopped")
    return 0


def cmd_chaos(args: argparse.Namespace) -> int:
    from repro.resilience import faults

    if args.list_plans:
        for name in sorted(faults.BUILTIN_PLANS):
            sites = sorted(faults.BUILTIN_PLANS[name]) or ["(no faults)"]
            print(f"{name:15s} {', '.join(sites)}")
        return 0
    try:
        plan = faults.load_plan(args.plan, seed=args.seed)
    except (ValueError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2

    try:
        workers = resolve_workers(args.workers)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2

    from repro.deployment.checkpoint import ResumeError
    from repro.deployment.replay import WorkerLostError

    # The worker-kill plan SIGKILLs one shard worker mid-replay.  A
    # checkpointed run then resumes from its last durable checkpoint
    # (the kill site is disarmed by the resume); an uncheckpointed one
    # can only strip the site and start over.
    resume = None
    attempts = 0
    while True:
        try:
            result = run_experiment(ExperimentConfig(
                seed=args.seed, volume_scale=args.scale,
                output_dir=args.output, telemetry=True,
                fault_plan=plan, workers=workers,
                checkpoint_interval=args.checkpoint_interval,
                resume=resume))
            break
        except WorkerLostError as error:
            attempts += 1
            if attempts > 3:
                print(f"error: shard worker died {attempts} times; "
                      f"giving up", file=sys.stderr)
                return 1
            if args.checkpoint_interval > 0:
                print(f"chaos: {error}; resuming from the last durable "
                      f"checkpoint", file=sys.stderr)
                resume = "latest"
            else:
                print(f"chaos: {error}; no checkpoints -- disarming "
                      f"proc.kill and restarting from scratch",
                      file=sys.stderr)
                plan = plan.without_site("proc.kill")
        except ResumeError as error:
            print(f"error: {error}", file=sys.stderr)
            return 1

    # A resume adopts (and disarms proc.kill from) the journal's plan,
    # so the run-wide fire counts come from the manifest, not the
    # possibly-stale `plan` object here.
    fault_stats = (result.report or {}).get("resilience", {}).get(
        "faults") or plan.snapshot()
    print(f"plan:        {plan.name} (seed {args.seed})")
    if workers > 1:
        print(f"replay:      sharded across {workers} workers")
    if result.resumed:
        print(f"resumed:     from checkpoint "
              f"({result.fast_forwarded_visits:,} visits "
              f"fast-forwarded, {attempts} worker loss(es))")
    for site, stats in sorted(fault_stats.items()):
        print(f"  {site:18s} fired {stats['fires']:,} / "
              f"{stats['evaluations']:,} evaluations")
    print(f"generated:   {result.events_generated:,} events")
    print(f"stored:      {result.events_total:,} events")
    print(f"quarantined: {result.events_quarantined:,} events "
          f"in {result.quarantined_visits:,} visits")
    if result.quarantine_path:
        print(f"dead letter: {result.quarantine_path}")
    if result.report_path:
        print(f"report:      {result.report_path}")
    if result.conservation_ok:
        print("conservation: OK "
              "(generated == stored + quarantined)")
        return 0
    print("conservation: VIOLATED "
          f"({result.events_generated:,} != {result.events_total:,} + "
          f"{result.events_quarantined:,})", file=sys.stderr)
    return 1


def cmd_export_dataset(args: argparse.Namespace) -> int:
    result = run_experiment(ExperimentConfig(
        seed=args.seed, volume_scale=args.scale,
        output_dir=args.output, export_dataset=True))
    print(f"dataset: {result.dataset_dir}")
    return 0


def cmd_profile(args: argparse.Namespace) -> int:
    import cProfile
    import pstats
    import shutil
    import tempfile
    import time

    if args.top <= 0:
        print("error: --top must be positive", file=sys.stderr)
        return 2
    keep = args.output is not None
    output_dir = args.output if keep else \
        Path(tempfile.mkdtemp(prefix="repro-profile-"))

    profiler = cProfile.Profile()
    start = time.perf_counter()
    profiler.enable()
    result = run_experiment(ExperimentConfig(
        seed=args.seed, volume_scale=args.scale, output_dir=output_dir))
    profiler.disable()
    wall = time.perf_counter() - start

    # Compile-side numbers re-measured standalone (cheap at profiling
    # scales), so the schedule-compilation cost and the indexed plan's
    # lookup counter are visible without digging through the table.
    from repro.deployment.replay import compile_visits

    plan = build_plan(args.seed)
    world = build_world(args.seed, args.scale)
    compile_start = time.perf_counter()
    schedule = compile_visits(world, plan, args.seed)
    compile_wall = time.perf_counter() - compile_start

    print(f"end-to-end: {wall:.3f}s "
          f"({result.events_total} events, "
          f"{result.events_total / wall:,.0f} events/s)")
    print(f"compile_visits: {compile_wall:.3f}s "
          f"({len(schedule)} visits, "
          f"{len(schedule) / compile_wall:,.0f} visits/s)")
    print(f"plan.select_calls: {plan.select_calls}")
    stats = pstats.Stats(profiler, stream=sys.stdout)
    if args.stats_out is not None:
        stats.dump_stats(args.stats_out)
        print(f"pstats dump: {args.stats_out}")
    stats.strip_dirs().sort_stats(args.sort).print_stats(args.top)
    if not keep:
        shutil.rmtree(output_dir, ignore_errors=True)
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    import json
    import shutil
    import tempfile

    from repro.verify import (DEFAULT_MATRIX, MATRIX_CONFIGS,
                              AuditError, audit_run, run_matrix)

    if not args.differential:
        for flag, value, default in (("--matrix", args.matrix, None),
                                     ("--workdir", args.workdir, None)):
            if value != default:
                print(f"error: {flag} requires --differential",
                      file=sys.stderr)
                return 2
        try:
            result = audit_run(args.output)
        except AuditError as error:
            print(f"error: {error}", file=sys.stderr)
            return 1
        if args.json:
            print(json.dumps(result.as_dict(), indent=2,
                             sort_keys=True))
        else:
            for check in result.checks:
                detail = f"  ({check['detail']})" if check["detail"] \
                    else ""
                print(f"{check['status']:>7s}  {check['name']}{detail}")
            for finding in result.findings:
                print(f"finding: [{finding.code}] {finding.message}",
                      file=sys.stderr)
            print(f"verify: {len(result.findings)} finding(s) in "
                  f"{args.output}")
        return 0 if result.ok else 1

    if args.scale <= 0:
        print(f"error: --scale must be positive, got {args.scale}",
              file=sys.stderr)
        return 2
    if args.workers < 2:
        print(f"error: --workers must be >= 2 to shard, "
              f"got {args.workers}", file=sys.stderr)
        return 2
    configs = DEFAULT_MATRIX
    if args.matrix is not None:
        configs = tuple(name.strip()
                        for name in args.matrix.split(",")
                        if name.strip())
        unknown = [name for name in configs
                   if name not in MATRIX_CONFIGS]
        if not configs or unknown:
            print(f"error: --matrix takes a comma-separated subset of "
                  f"{', '.join(MATRIX_CONFIGS)}", file=sys.stderr)
            return 2
    keep = args.workdir is not None
    workdir = args.workdir if keep else \
        Path(tempfile.mkdtemp(prefix="repro-verify-"))
    try:
        report = run_matrix(workdir, seed=args.seed, scale=args.scale,
                            workers=args.workers, configs=configs)
    finally:
        if not keep:
            shutil.rmtree(workdir, ignore_errors=True)
    if args.json:
        print(json.dumps(report.as_dict(), indent=2, sort_keys=True))
        return 0 if report.ok else 1
    for config in report.configs:
        note = f"  ({config['note']})" if config["note"] else ""
        print(f"{config['status']:>7s}  {config['name']}{note}")
    for diff in report.diffs:
        print(f"diff: {diff['config']}: {diff['artifact']} "
              f"expected {diff['expected']!r}, "
              f"got {diff['actual']!r}", file=sys.stderr)
    for divergence in report.divergences:
        print(f"first divergent visit of {divergence['config']}: "
              f"{divergence['key']} (vs. {divergence['reference']})",
              file=sys.stderr)
    print(f"verify: {len(report.diffs)} difference(s) across "
          f"{len(report.configs)} configuration(s), seed {report.seed}")
    return 0 if report.ok else 1


def main(argv: list[str] | None = None) -> int:
    """CLI entry point."""
    args = build_parser().parse_args(argv)
    handlers = {
        "run": cmd_run,
        "report": cmd_report,
        "stats": cmd_stats,
        "serve": cmd_serve,
        "export-dataset": cmd_export_dataset,
        "chaos": cmd_chaos,
        "verify": cmd_verify,
        "profile": cmd_profile,
    }
    try:
        return handlers[args.command](args)
    except BrokenPipeError:
        # Downstream pipe closed (e.g. `repro stats | head`); exit
        # quietly instead of tracebacking, without touching the
        # now-dead stdout.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    raise SystemExit(main())
