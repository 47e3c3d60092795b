"""The experiment driver: replay 20 days of attacks, run the pipeline.

Mirrors the paper's data flow end to end (Figure 1): actors speak wire
protocols to the honeypots, honeypots emit log events, the conversion
step enriches them with GeoIP/ASN/institutional metadata and writes
SQLite databases -- one for the low-interaction tier (Section 5) and one
for the medium/high tier (Section 6), which is how the paper analyzes
them.

The driver is a thin loop over two abstractions:

* a :class:`~repro.deployment.replay.ReplayEngine` (serial, or sharded
  across ``config.workers`` workers) produces visit outcomes in
  canonical ``(offset, ip, seq)`` order, and
* a sink pipeline (:mod:`repro.pipeline.sinks`) consumes each stored
  event exactly once -- tier split, SQLite conversions (each on its own
  writer thread, so both run concurrently), raw logs, dataset buffer,
  manifest tallies.

Crashed visits never reach the pipeline: their buffered events go to
the dead letter with the failure reason, preserving the conservation
invariant ``events_generated == events_stored + events_quarantined``.

With ``ExperimentConfig.telemetry`` enabled the run is fully
instrumented -- per-phase wall times, per-visit spans, event counts per
type/DBMS/interaction/honeypot, bytes exchanged, DB row counts, peak
RSS, replay-shard statistics -- and a ``run_report.json`` manifest is
written next to the SQLite databases (``repro stats`` pretty-prints
it).  Disabled (the default), every hook is a no-op.
"""

from __future__ import annotations

import sys
import time
import uuid
from dataclasses import dataclass
from pathlib import Path

from repro import obs
from repro.agents.population import World, build_world
from repro.deployment.checkpoint import (Checkpointer, ResumeError,
                                         ResumeState, prepare_resume)
from repro.deployment.plan import DeploymentPlan, build_plan
from repro.deployment.replay import (OpsOptions, ReplayEngine,
                                     build_engine, compile_visits,
                                     schedule_digest)
from repro.obs import live as obs_live
from repro.obs import logging as obs_logging
from repro.obs import report as obs_report
from repro.pipeline.convert import count_events
from repro.pipeline.sinks import (BufferSink, CountingSink, RawLogSink,
                                  SQLiteWriterSink, TeeSink, TierSplitSink)
from repro.resilience import faults
from repro.resilience.deadletter import DeadLetterWriter
from repro.runtime.journal import RunJournal

#: Dead-letter file for quarantined visits, written under the run's
#: output directory (only when something was actually quarantined).
QUARANTINE_FILENAME = "quarantine.jsonl"

#: Consolidated raw-log directory under the output dir (Figure 1 ②).
RAW_LOG_DIRNAME = "raw-logs"

#: Structured operational log (JSONL, correlation-id fields), written
#: under the output directory of every telemetry run.
OPS_LOG_FILENAME = "ops.jsonl"

#: Crash flight-recorder dump of the driver process (only written when
#: the run dies; replay workers write ``flight_shard<k>.jsonl``).
FLIGHT_FILENAME = "flight_driver.jsonl"

#: Seconds between ``live:`` progress lines and partial-manifest
#: refreshes of a live run (checkpoints refresh the manifest too).
_LIVE_REPORT_SECONDS = 1.0

_DONE = object()


@dataclass(frozen=True)
class ExperimentConfig:
    """Knobs of one experiment run."""

    seed: int = 2024
    #: Multiplier on login volumes (IP counts are never scaled).
    volume_scale: float = 0.002
    output_dir: Path = Path("experiment-output")
    #: Also persist the consolidated JSON-lines raw logs (Figure 1 ②).
    write_raw_logs: bool = False
    #: Also export the anonymized public dataset (Appendix B).
    export_dataset: bool = False
    #: Instrument the run and write ``run_report.json`` (see module doc).
    telemetry: bool = False
    #: With telemetry, also export the span trace here (``.jsonl`` for
    #: JSON-lines, anything else for Chrome trace-event format).
    trace_out: Path | None = None
    #: Fault plan to install for the run (chaos mode); ``None`` runs
    #: clean.  See :mod:`repro.resilience.faults`.
    fault_plan: faults.FaultPlan | None = None
    #: Replay parallelism: 1 replays serially, N > 1 shards the visit
    #: schedule by target honeypot across N workers (same events, same
    #: order; see :mod:`repro.deployment.replay`).
    workers: int = 1
    #: Replay engine: ``"auto"`` (serial for 1 worker, sharded
    #: otherwise), ``"serial"``, or ``"sharded"``.
    executor: str = "auto"
    #: Sharded-replay worker flavor: ``"auto"`` (fork where available,
    #: thread otherwise), ``"fork"``, or ``"thread"``.  Ignored by the
    #: serial engine.
    pool: str = "auto"
    #: Minimum seconds between live shard metric deltas (0 disables
    #: live telemetry; requires telemetry and a sharded replay to
    #: matter).
    live_interval: float = 0.0
    #: Serve ``/metrics`` + ``/healthz`` on this loopback port for the
    #: duration of the run (requires telemetry; implies a default
    #: ``live_interval`` of 0.5s on sharded replays).
    live_port: int | None = None
    #: Seconds between durable checkpoints.  0 (the default) disables
    #: the run journal and every fsync barrier -- the hot path is
    #: byte-for-byte the uncheckpointed one.
    checkpoint_interval: float = 0.0
    #: Resume a crashed checkpointed run at ``output_dir``: ``None``
    #: (fresh run), ``"latest"`` (strict -- refuse on any journal or
    #: database damage beyond a torn tail), or ``"force"`` (fall back
    #: to the newest checkpoint that validates, or scratch).
    resume: str | None = None


@dataclass
class ExperimentResult:
    """Everything a downstream analysis needs."""

    config: ExperimentConfig
    plan: DeploymentPlan
    world: World
    low_db: Path
    midhigh_db: Path
    events_total: int
    visits_total: int
    raw_log_dir: Path | None = None
    dataset_dir: Path | None = None
    #: The telemetry manifest (and its path), when enabled.
    report: dict | None = None
    report_path: Path | None = None
    trace_path: Path | None = None
    #: Conservation accounting: every generated event is either stored
    #: (``events_total``) or quarantined with its crashed visit.
    events_generated: int = 0
    events_quarantined: int = 0
    quarantined_visits: int = 0
    quarantine_path: Path | None = None
    #: Checkpoint/resume accounting (checkpointed runs only).
    resumed: bool = False
    checkpoints_taken: int = 0
    fast_forwarded_visits: int = 0
    journal_path: Path | None = None

    @property
    def conservation_ok(self) -> bool:
        """``events_generated == events_stored + events_quarantined``."""
        return (self.events_generated
                == self.events_total + self.events_quarantined)


def run_experiment(config: ExperimentConfig = ExperimentConfig()
                   ) -> ExperimentResult:
    """Run the full deployment window and produce the SQLite databases."""
    if config.export_dataset and (config.checkpoint_interval > 0
                                  or config.resume):
        raise ValueError(
            "dataset export buffers every event in memory and cannot "
            "be checkpointed or resumed")
    resume_state = None
    if config.resume:
        # Validate the journal, adopt the crashed run's identity, and
        # truncate every output back to its last durable checkpoint
        # before any sink opens a file.
        resume_state, config = prepare_resume(config)
    telemetry = obs.Telemetry(enabled=config.telemetry)
    #: One correlation id per run, bound into every ops-log record the
    #: run emits (driver and workers alike) and stamped into the
    #: manifest.  Operational identity only -- nothing derived from it
    #: touches the replayed event stream.  A resume keeps the crashed
    #: run's id: it is the same run, continued.
    run_id = (resume_state.run_id if resume_state is not None
              and resume_state.run_id else uuid.uuid4().hex[:12])
    output_dir = Path(config.output_dir)
    output_dir.mkdir(parents=True, exist_ok=True)
    if telemetry.enabled:
        telemetry.logger.attach_path(output_dir / OPS_LOG_FILENAME)
    try:
        with obs.install(telemetry), faults.install(config.fault_plan), \
                obs_logging.bind(run_id=run_id), \
                telemetry.flight.armed(output_dir / FLIGHT_FILENAME):
            return _run_instrumented(config, telemetry, run_id,
                                     resume_state)
    finally:
        telemetry.logger.close()


def _journal_header(config: ExperimentConfig, run_id: str,
                    visits_total: int, digest: str) -> dict:
    """The run-identity record a resume adopts from the journal."""
    fault = None
    if config.fault_plan is not None:
        fault = {"name": config.fault_plan.name,
                 "seed": config.fault_plan.seed,
                 "sites": config.fault_plan.site_options()}
    return {
        "run_id": run_id,
        "seed": config.seed,
        "volume_scale": config.volume_scale,
        "write_raw_logs": config.write_raw_logs,
        "export_dataset": config.export_dataset,
        "fault": fault,
        "checkpoint_interval": config.checkpoint_interval,
        "visits_total": visits_total,
        "schedule_digest": digest,
        "created_at": obs_report.utc_now_iso(),
    }


def _open_journal(config: ExperimentConfig, run_id: str,
                  visits_total: int, digest: str, output_dir: Path,
                  resume_state: ResumeState | None) -> RunJournal | None:
    """Create (fresh run) or rewrite + mark (resume) the run journal."""
    if resume_state is None:
        if config.checkpoint_interval <= 0:
            return None
        return RunJournal.create(
            output_dir,
            _journal_header(config, run_id, visits_total, digest))
    if resume_state.records:
        # Supersede the crashed journal with its adopted prefix
        # (header + the checkpoints at or below the restore point),
        # discarding torn tails and any stale later checkpoints whose
        # rows the resume preparation just truncated away.
        journal = RunJournal.rewrite(output_dir, resume_state.records)
    else:
        # Force-scratch with an unreadable header: start over.
        journal = RunJournal.create(
            output_dir,
            _journal_header(config, run_id, visits_total, digest))
    journal.resume_marker({
        "mode": resume_state.mode,
        "from_seq": resume_state.from_seq,
        "watermark": (list(resume_state.watermark)
                      if resume_state.watermark else None),
        "disarmed": resume_state.disarmed_sites,
        "torn_tail": resume_state.torn_tail,
        "dropped": resume_state.dropped_records,
        "at": obs_report.utc_now_iso(),
    })
    return journal


def _run_instrumented(config: ExperimentConfig, telemetry: obs.Telemetry,
                      run_id: str,
                      resume_state: ResumeState | None = None
                      ) -> ExperimentResult:
    wall_start = time.perf_counter()
    logger = telemetry.logger
    logger.info("run.start", seed=config.seed, scale=config.volume_scale,
                workers=config.workers,
                output=str(config.output_dir))

    start = time.perf_counter()
    plan = build_plan(config.seed)
    planned = time.perf_counter()
    world = build_world(config.seed, config.volume_scale)
    built = time.perf_counter()
    schedule = compile_visits(world, plan, config.seed)
    # Phase wall times for the manifest's ``phases`` section.  They stay
    # out of the registry: its counters ride the checkpoint deltas that
    # a resume merges back, which would count these phases twice.
    phases = {"build_plan": planned - start,
              "build_world": built - planned,
              "compile_visits": time.perf_counter() - built}

    output_dir = Path(config.output_dir)
    output_dir.mkdir(parents=True, exist_ok=True)

    engine = build_engine(config.workers, config.executor, config.pool)
    visits_total = len(schedule)

    # -- run journal (checkpointed and resumed runs only) --------------
    journal = None
    checkpointing = config.checkpoint_interval > 0 or \
        resume_state is not None
    if checkpointing:
        digest = schedule_digest(schedule)
        if resume_state is not None and resume_state.schedule_digest \
                and resume_state.schedule_digest != digest:
            raise ResumeError(
                f"compiled visit schedule (digest {digest[:12]}...) "
                f"does not match the journal's "
                f"({resume_state.schedule_digest[:12]}...); the code "
                f"or inputs changed since the run crashed -- the "
                f"committed prefix cannot be fast-forwarded")
        journal = _open_journal(config, run_id, visits_total, digest,
                                output_dir, resume_state)

    # -- live operations plane -----------------------------------------
    # The delta interval: an explicit config wins; exposing a port
    # implies a default cadence so /metrics is never a whole-run
    # staleness window behind.
    live_interval = config.live_interval
    if config.live_port is not None and live_interval <= 0:
        live_interval = 0.5
    live_on = telemetry.enabled and live_interval > 0 and engine.workers > 1
    aggregator = obs_live.LiveAggregator() if live_on else None
    ops = OpsOptions(
        live=live_on, emit_interval=live_interval, aggregator=aggregator,
        trace_shards=config.trace_out is not None,
        flight_dir=output_dir if telemetry.enabled else None,
        run_id=run_id,
        # A resume fast-forwards every shard past the committed
        # watermark.
        watermark=(resume_state.watermark
                   if resume_state is not None else None))
    live_server = None
    if config.live_port is not None and telemetry.enabled:
        live_server = obs_live.LiveOpsServer(
            lambda: _combined_snapshot(telemetry, aggregator),
            lambda: _run_health(run_id, visits_total, engine, aggregator),
            port=config.live_port)
        live_server.start()
        logger.info("live.listening", port=live_server.port)

    try:
        return _run_replay(config, telemetry, run_id, plan, world,
                           schedule, engine, ops, output_dir,
                           wall_start, phases, live_server,
                           journal=journal, resume_state=resume_state)
    finally:
        if live_server is not None:
            live_server.close()
        if journal is not None:
            journal.close()


def _run_replay(config: ExperimentConfig, telemetry: obs.Telemetry,
                run_id: str, plan: DeploymentPlan, world: World,
                schedule, engine: ReplayEngine, ops: OpsOptions,
                output_dir: Path, wall_start: float,
                phases: dict[str, float], live_server, journal=None,
                resume_state: ResumeState | None = None
                ) -> ExperimentResult:
    span = telemetry.tracer.span
    logger = telemetry.logger
    visits_total = len(schedule)
    durable = journal is not None
    resuming = resume_state is not None and \
        resume_state.watermark is not None

    # A resumed run's committed prefix re-plays with its per-visit
    # metrics muted (the sinks never see those events again); the
    # driver-side metrics the crashed run durably recorded come back
    # from the journal's per-checkpoint deltas instead.
    if resuming and telemetry.enabled:
        for delta in resume_state.metrics:
            telemetry.metrics.merge(delta)

    # -- the sink pipeline: every stored event flows through once ------
    tier = TierSplitSink(
        SQLiteWriterSink(output_dir / "low.sqlite",
                         world.geoip, world.scanners,
                         durable=durable,
                         resume=resume_state.low if resuming else None),
        SQLiteWriterSink(output_dir / "midhigh.sqlite",
                         world.geoip, world.scanners,
                         durable=durable,
                         resume=(resume_state.midhigh if resuming
                                 else None)))
    if resuming:
        # The committed rows never re-enter the split; seed its tallies
        # so ``events_total`` still covers the whole run.
        tier.low_count = resume_state.low[0]
        tier.midhigh_count = resume_state.midhigh[0]
    sinks: list = [tier]
    counting = None
    if telemetry.enabled:
        counting = CountingSink()
        if resuming and resume_state.counting:
            counting.restore(resume_state.counting)
        sinks.append(counting)
    raw_sink = None
    if config.write_raw_logs:
        raw_sink = RawLogSink(
            output_dir / RAW_LOG_DIRNAME,
            resume=resume_state.raw if resuming else None)
        sinks.append(raw_sink)
    dataset_buffer = None
    if config.export_dataset:
        dataset_buffer = BufferSink()
        sinks.append(dataset_buffer)
    pipeline = TeeSink(*sinks)

    dead_letters = DeadLetterWriter(
        output_dir / QUARANTINE_FILENAME,
        resume=resume_state.dead_letter if resuming else None)
    metrics = telemetry.metrics
    aggregator = ops.aggregator
    bytes_in = 0
    bytes_out = 0
    events_generated = 0
    events_quarantined = 0
    quarantined_visits = 0
    visits_done = 0
    fast_forwarded = 0
    progress_lines = partial_snapshots = 0
    next_live_report = 0.0  # the first one is due at once

    def print_progress() -> None:
        # stderr: stdout stays byte-stable for scripts.
        nonlocal progress_lines
        print(f"live: {visits_done:,}/{visits_total:,} visits  "
              f"{events_generated:,} events  "
              f"{aggregator.progress()['shards_done']}/{engine.workers} "
              f"shards done", file=sys.stderr)
        progress_lines += 1

    checkpointer = None
    if durable:
        checkpointer = Checkpointer(
            journal, tier, raw_sink, dead_letters, counting, telemetry,
            faults.current() if config.fault_plan is not None else None,
            interval=config.checkpoint_interval)

    # The replay engine and the sink pipeline interleave on this
    # thread, so the loop splits its time manually: pulling the next
    # outcome is "replay", feeding its events through the sinks is
    # "split" (for a sharded engine, "replay" is the wait for the
    # merge).
    replay_s = split_s = 0.0
    mark = time.perf_counter()
    stream = iter(engine.replay(schedule, plan, config.seed, telemetry,
                                ops))
    last_key = None
    # Live events accumulate driver-side and enter the pipeline in
    # batches: one `pipeline.many()` per ~1k events instead of one
    # Python call chain per event.  Durable runs flush every visit so
    # checkpoint barriers always cover everything the replay yielded.
    event_batch: list = []
    flush_at = 1 if durable else 1024
    try:
        while True:
            outcome = next(stream, _DONE)
            now = time.perf_counter()
            replay_s += now - mark
            mark = now
            if outcome is _DONE:
                break
            visits_done += 1
            last_key = outcome.key
            events_generated += outcome.event_total()
            bytes_in += outcome.bytes_in
            bytes_out += outcome.bytes_out
            if outcome.committed:
                # Fast-forwarded by a resume: events already durable
                # (and, for a crashed visit, already dead-lettered).
                fast_forwarded += 1
                if outcome.failure is not None:
                    quarantined_visits += 1
                    events_quarantined += outcome.event_total()
                mark = time.perf_counter()
                continue
            if outcome.failure is not None:
                # Quarantine: the crashed visit's events travel to the
                # dead letter, with the reason, instead of the pipeline.
                dead_letters.quarantine(
                    "visit", outcome.failure, actor=outcome.actor_ip,
                    seq=outcome.sequence, target=outcome.target_key,
                    offset=outcome.offset, events=outcome.events)
                metrics.inc("resilience.quarantined")
                metrics.inc("resilience.events_quarantined",
                            len(outcome.events))
                quarantined_visits += 1
                events_quarantined += len(outcome.events)
            else:
                event_batch.extend(outcome.events)
                if len(event_batch) >= flush_at:
                    pipeline.many(event_batch)
                    event_batch.clear()
                now = time.perf_counter()
                split_s += now - mark
            checkpointed = checkpointer is not None and \
                checkpointer.maybe_checkpoint(
                    watermark=last_key, visits_done=visits_done,
                    counters=_loop_counters(
                        events_generated, events_quarantined,
                        quarantined_visits, bytes_in, bytes_out))
            live_due = aggregator is not None and now >= next_live_report
            if live_due:
                next_live_report = now + _LIVE_REPORT_SECONDS
                print_progress()
            if checkpointed or live_due:
                _write_partial_report(
                    config, output_dir, run_id, visits_total,
                    {"visits": visits_done,
                     "events_generated": events_generated,
                     "events_quarantined": events_quarantined},
                    _checkpoint_info(config, checkpointer, resume_state,
                                     fast_forwarded), aggregator)
                partial_snapshots += 1
            mark = time.perf_counter()
    except BaseException:
        # Stop the engine's workers before anything else: a sharded
        # stream left open would keep them replaying into pipes
        # nobody reads.  A failure while stopping them must not replace
        # the original error or skip the abort below.
        try:
            stream.close()
        except BaseException:
            pass
        if durable:
            # Leave only durably-committed state behind for a later
            # ``--resume`` to validate; never mask the original error.
            tier.low.abort()
            tier.midhigh.abort()
            try:
                dead_letters.close()
            except OSError:
                pass
        raise
    if event_batch:
        start = time.perf_counter()
        pipeline.many(event_batch)
        event_batch.clear()
        split_s += time.perf_counter() - start
    phases["replay"] = replay_s
    phases["split"] = split_s
    if aggregator is not None:
        print_progress()
    dead_letters.close()

    raw_log_dir = None
    if raw_sink is not None:
        start = time.perf_counter()
        with span("write_raw_logs"):
            raw_sink.close()
            raw_log_dir = raw_sink.directory
        phases["write_raw_logs"] = time.perf_counter() - start
    dataset_dir = None
    if dataset_buffer is not None:
        start = time.perf_counter()
        with span("export_dataset"):
            from repro.pipeline.dataset import export_dataset

            dataset_dir = output_dir / "dataset"
            export_dataset(dataset_buffer, dataset_dir)
        phases["export_dataset"] = time.perf_counter() - start

    # Both writer threads have been converting since their first event;
    # "convert" is the time left waiting for them to finish.  Durable
    # writers run their final commit barrier inside close(), so the
    # journal's ``complete`` record below only ever under-claims.
    start = time.perf_counter()
    with span("convert", tier="low"):
        low_db = tier.low.close()
    with span("convert", tier="midhigh"):
        midhigh_db = tier.midhigh.close()
    phases["convert"] = time.perf_counter() - start

    if checkpointer is not None:
        checkpointer.complete(
            watermark=last_key, visits_done=visits_done,
            counters=_loop_counters(events_generated,
                                    events_quarantined,
                                    quarantined_visits, bytes_in,
                                    bytes_out))

    events_total = tier.low_count + tier.midhigh_count
    result = ExperimentResult(
        config=config, plan=plan, world=world, low_db=low_db,
        midhigh_db=midhigh_db, events_total=events_total,
        visits_total=visits_total, raw_log_dir=raw_log_dir,
        dataset_dir=dataset_dir,
        events_generated=events_generated,
        events_quarantined=events_quarantined,
        quarantined_visits=quarantined_visits,
        quarantine_path=(dead_letters.path if dead_letters.count
                         else None),
        resumed=resume_state is not None,
        checkpoints_taken=(checkpointer.count if checkpointer else 0),
        fast_forwarded_visits=fast_forwarded,
        journal_path=(journal.path if journal is not None else None))
    logger.info("run.done", visits=visits_total,
                events_stored=events_total,
                events_quarantined=events_quarantined,
                checkpoints=result.checkpoints_taken,
                resumed=result.resumed)
    if telemetry.enabled:
        wall_time = time.perf_counter() - wall_start
        _finalize_report(config, telemetry, result, engine, phases,
                         event_counts=(counting.counts if counting
                                       else None),
                         split={"low": tier.low_count,
                                "midhigh": tier.midhigh_count},
                         bytes_io={"in": bytes_in, "out": bytes_out},
                         wall_time=wall_time, output_dir=output_dir,
                         run_id=run_id, live_server=live_server,
                         live_reports=(
                             {"progress_lines": progress_lines,
                              "partial_snapshots": partial_snapshots}
                             if aggregator is not None else None),
                         checkpoint_info=_checkpoint_info(
                             config, checkpointer, resume_state,
                             fast_forwarded))
    elif checkpointer is not None:
        _drop_partial_report(output_dir)
    return result


def _loop_counters(events_generated: int, events_quarantined: int,
                   quarantined_visits: int, bytes_in: int,
                   bytes_out: int) -> dict:
    """The driver-loop tallies recorded in every checkpoint."""
    return {"events_generated": events_generated,
            "events_quarantined": events_quarantined,
            "quarantined_visits": quarantined_visits,
            "bytes_in": bytes_in, "bytes_out": bytes_out}


def _checkpoint_info(config: ExperimentConfig, checkpointer,
                     resume_state: ResumeState | None,
                     fast_forwarded: int) -> dict | None:
    """The manifest's ``checkpoint`` section (checkpointed runs only),
    in the partial and the final manifest alike."""
    if checkpointer is None:
        return None
    info = {
        "interval_seconds": config.checkpoint_interval,
        "count": checkpointer.count,
        "barrier_seconds": checkpointer.barrier_seconds,
        "journal": str(checkpointer.journal.path),
        "resume": None,
    }
    if resume_state is not None:
        info["resume"] = {
            "mode": resume_state.mode,
            "from_checkpoint": resume_state.from_seq,
            "watermark": (list(resume_state.watermark)
                          if resume_state.watermark else None),
            "fast_forwarded_visits": fast_forwarded,
            "disarmed_sites": resume_state.disarmed_sites,
            "torn_tail": resume_state.torn_tail,
            "dropped_records": resume_state.dropped_records,
        }
    return info


def _combined_snapshot(telemetry: obs.Telemetry, aggregator) -> dict:
    """What ``/metrics`` serves during a run: the driver's registry
    folded with the live aggregate streamed from the shards."""
    combined = obs.MetricsRegistry()
    combined.merge(telemetry.metrics)
    if aggregator is not None:
        combined.merge(aggregator.registry)
    return combined.snapshot()


def _run_health(run_id: str, visits_total: int, engine: ReplayEngine,
                aggregator) -> dict:
    """What ``/healthz`` serves during a run."""
    health = {"status": "ok", "mode": "run", "run_id": run_id,
              "visits_total": visits_total, "workers": engine.workers,
              "executor": engine.name}
    if aggregator is not None:
        health["progress"] = aggregator.progress()
    return health


def _config_echo(config: ExperimentConfig) -> dict:
    """The ``config`` section of the partial and the final manifest."""
    return {
        "seed": config.seed,
        "volume_scale": config.volume_scale,
        "output_dir": str(config.output_dir),
        "write_raw_logs": config.write_raw_logs,
        "export_dataset": config.export_dataset,
        "telemetry": config.telemetry,
        "trace_out": (str(config.trace_out)
                      if config.trace_out else None),
        "fault_plan": (config.fault_plan.name
                       if config.fault_plan else None),
        "workers": config.workers,
        "executor": config.executor,
        "pool": config.pool,
        "live_interval": config.live_interval,
        "live_port": config.live_port,
        "checkpoint_interval": config.checkpoint_interval,
        "resume": config.resume,
    }


def _write_partial_report(config: ExperimentConfig, output_dir: Path,
                          run_id: str, visits_total: int, progress: dict,
                          checkpoint: dict | None, aggregator) -> None:
    """Refresh the ``"partial": true`` manifest of a running run.

    Written at every checkpoint and on the live cadence (with the live
    ``aggregator``'s shards done and metrics), so a killed run still
    answers ``repro stats`` with how far it got; on clean completion
    the final manifest overwrites it (telemetry on) or
    :func:`_drop_partial_report` removes it (telemetry off).  The write
    is advisory -- a resume trusts the journal, not this file -- so an
    ``OSError`` is logged and the run carries on.
    """
    manifest = {
        "schema": obs_report.SCHEMA,
        "partial": True,
        "run_id": run_id,
        "generated_at": obs_report.utc_now_iso(),
        "config": _config_echo(config),
        "visits_total": visits_total,
        "progress": progress,
    }
    if checkpoint is not None:
        manifest["checkpoint"] = checkpoint
    if aggregator is not None:
        progress["shards_done"] = aggregator.progress()["shards_done"]
        manifest["metrics"] = aggregator.snapshot()
    try:
        obs_report.write_report(manifest,
                                output_dir / obs_report.REPORT_FILENAME)
    except OSError as error:
        obs.current().logger.warning("report.partial_failed",
                                     error=str(error))


def _drop_partial_report(output_dir: Path) -> None:
    """Remove the checkpoint manifest of a cleanly completed run.

    Without telemetry no final manifest supersedes the ``"partial":
    true`` one written at each checkpoint, so it is removed instead and
    the run directory matches any other telemetry-off run.  A manifest
    that is not partial (or not readable as one) is left alone.
    """
    path = output_dir / obs_report.REPORT_FILENAME
    try:
        partial = obs_report.load_report(path).get("partial") is True
    except (OSError, ValueError):
        return
    if partial:
        path.unlink(missing_ok=True)


def _finalize_report(config: ExperimentConfig, telemetry: obs.Telemetry,
                     result: ExperimentResult, engine: ReplayEngine,
                     phases: dict[str, float], event_counts: dict | None,
                     split: dict[str, int], bytes_io: dict[str, int],
                     wall_time: float, output_dir: Path,
                     run_id: str | None = None, live_server=None,
                     live_reports: dict | None = None,
                     checkpoint_info=None) -> None:
    """Export the trace (if requested) and write ``run_report.json``."""
    trace_path = None
    if config.trace_out is not None:
        trace_path = Path(config.trace_out)
        if trace_path.suffix == ".jsonl":
            telemetry.tracer.export_jsonl(trace_path)
        else:
            telemetry.tracer.export_chrome(trace_path)
    event_counts = event_counts or {}
    live_stats = engine.stats.get("live")
    live = None
    if live_stats is not None or live_server is not None:
        live = dict(live_stats or {})
        live["port"] = live_server.port if live_server else None
        live["http_requests"] = (live_server.requests
                                 if live_server else 0)
        live.update(live_reports or {})
    manifest = {
        "schema": obs_report.SCHEMA,
        "generated_at": obs_report.utc_now_iso(),
        # A final manifest always supersedes the partial ones written
        # while the run was going.
        "partial": False,
        "run_id": run_id,
        "config": _config_echo(config),
        "wall_time_seconds": wall_time,
        "phases": phases,
        "visits_total": result.visits_total,
        "events_total": result.events_total,
        "events_by_type": dict(event_counts.get("event_type", {})),
        "events_by_dbms": dict(event_counts.get("dbms", {})),
        "events_by_interaction": dict(event_counts.get("interaction", {})),
        "events_by_honeypot": dict(event_counts.get("honeypot_id", {})),
        "split": split,
        "db_rows": {"low": count_events(result.low_db),
                    "midhigh": count_events(result.midhigh_db)},
        "bytes": bytes_io,
        "peak_rss_bytes": obs_report.peak_rss_bytes(),
        "replay": engine.stats,
        "resilience": {
            "events_generated": result.events_generated,
            "events_stored": result.events_total,
            "events_quarantined": result.events_quarantined,
            "quarantined_visits": result.quarantined_visits,
            "conservation_ok": result.conservation_ok,
            "dead_letter": (str(result.quarantine_path)
                            if result.quarantine_path else None),
            "fault_plan": (config.fault_plan.name
                           if config.fault_plan else None),
            "faults": faults.current().snapshot(),
        },
        "checkpoint": checkpoint_info,
        "live": live,
        "ops_log": OPS_LOG_FILENAME,
        "flight": {"capacity": telemetry.flight.capacity,
                   "records": len(telemetry.flight.records())},
        "metrics": telemetry.metrics.snapshot(),
        "trace": {"spans": len(telemetry.tracer.spans),
                  "path": str(trace_path) if trace_path else None},
    }
    result.report = manifest
    result.report_path = obs_report.write_report(
        manifest, output_dir / obs_report.REPORT_FILENAME)
    result.trace_path = trace_path
