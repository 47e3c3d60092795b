"""Replay engines: serial and sharded execution of the visit schedule.

The compiled schedule is a time-ordered list of
``(offset, actor_ip, sequence, Visit)`` tuples.  A replay engine turns
it into an ordered stream of :class:`VisitOutcome` objects -- one per
visit, carrying the events the visit emitted, its byte counters, and
its failure (if the visit crashed and was quarantined).  The driver
consumes that stream once, feeding events straight into the sink
pipeline.

Both engines run the same per-visit loop (:func:`_visits`):

* :class:`SerialExecutor` -- runs it on the driver thread, in schedule
  order, in the driver's own runtime context (the reference engine).
* :class:`ShardedExecutor` -- partitions the schedule by *target
  honeypot* (``crc32(target_key) % workers``), runs the loop per shard
  on its own worker under a private context, and merges the per-shard
  outcome streams back into canonical ``(offset, ip, seq)`` order as
  they arrive (so the driver can checkpoint mid-run).

Partitioning by target is what makes the parallel run *deterministic*
with respect to the serial one.  The actor side is stateless across
visits: every per-visit random stream derives from
``{seed}:{ip}:{seq}`` (visit RNGs) or ``{seed}:{site}:{ip}:{seq}``
(keyed fault decisions such as ``visit.crash``), so a visit's behavior
does not depend on where or when its actor's other visits run.  The
honeypot side is *stateful* across sessions -- attacks wipe keyspaces,
drop ransom notes, load modules, and later visitors (e.g. the
fake-data-aware scouts that ``TYPE`` every surviving key) react to
what they find -- so correctness requires that each honeypot see
exactly the serial session sequence.  Keeping every visit to a target
on one worker, replayed in canonical ``(offset, ip, seq)`` order,
gives each honeypot the same session history as the serial engine;
with both sides pinned, shard assignment cannot change any visit's
outcome and the merged stream is element-for-element the serial
stream.

Each shard gets one worker and one pipe.  Workers prefer ``fork``
processes (each inherits the already-built plan and schedule
copy-on-write, replays its shard, and streams its outcomes back); where
``fork`` is unavailable the engine falls back to threads, whose
per-shard runtime contexts install thread-locally (see
:mod:`repro.runtime`).  Only worker *k* holds the write end of pipe
*k*, and only the driver its read end, so a worker that dies (even
mid-message) gives the driver end-of-file, and a driver that dies or
stops reading gives each worker a broken pipe on its next send.

Every message a worker sends is one ``(shard, outcomes, delta,
final)`` tuple.  With live telemetry ``delta`` is the worker
registry's change since its previous delta (at most one per
``emit_interval``, and always one on the last message); the driver's
merge loop folds it into the live aggregate and takes each shard's
progress from the outcomes it receives.  ``final`` is set on the
shard's last message only: its wall time and runtime report (metrics,
fault counters, spans), which the driver absorbs at the end.
"""

from __future__ import annotations

import contextlib
import multiprocessing
import multiprocessing.connection
import os
import random
import signal
import sys
import threading
import time
import traceback
import zlib
from collections import deque
from dataclasses import dataclass
from datetime import timedelta
from pathlib import Path
from typing import Callable, Iterator, Sequence

from repro import obs
from repro.agents.base import Visit, VisitContext
from repro.agents.population import World
from repro.clients.wire import Wire, WireError
from repro.deployment.plan import DeploymentPlan
from repro.honeypots.base import MemoryWire, SessionContext
from repro.netsim.clock import EXPERIMENT_START, SimClock
from repro.obs import live as obs_live
from repro.obs import logging as obs_logging
from repro.pipeline.logstore import LogEvent
from repro.resilience import faults
from repro.runtime import RunContext, worker_context

__all__ = [
    "OpsOptions", "ScheduledVisit", "VisitOutcome", "ReplayEngine",
    "SerialExecutor", "ShardedExecutor", "WorkerLostError",
    "build_engine", "compile_visits", "schedule_digest", "shard_of",
]


class WorkerLostError(RuntimeError):
    """A shard worker process died mid-replay (e.g. SIGKILL).

    Raised by the driver-side merge when a shard's pipe ends before the
    shard's last message, so callers (``repro chaos`` auto-recovery,
    tests) can distinguish "a worker was killed -- resume" from a
    programming error (which the driver re-raises as a plain
    ``RuntimeError`` naming the shard).
    """

#: One schedule entry: (time offset, actor IP, per-actor sequence, visit).
ScheduledVisit = tuple[float, str, int, Visit]


def compile_visits(world: World, plan: DeploymentPlan,
                   seed: int) -> list[ScheduledVisit]:
    """Expand all actors into one time-ordered visit schedule."""
    schedule: list[ScheduledVisit] = []
    for actor in world.actors:
        for sequence, visit in enumerate(actor.compile(plan, seed)):
            schedule.append((visit.time_offset, actor.ip, sequence, visit))
    schedule.sort(key=lambda item: (item[0], item[1], item[2]))
    return schedule


def schedule_digest(schedule: Sequence[ScheduledVisit]) -> str:
    """Content digest of a compiled schedule's identity columns.

    Recorded in the run journal header and recomputed on resume: equal
    digests prove the recompiled schedule is the one the checkpoints
    were taken against (same seed, scale, and population code), which
    is what licenses fast-forwarding past a watermark.
    """
    import hashlib

    digest = hashlib.sha256()
    for offset, actor_ip, sequence, visit in schedule:
        digest.update(f"{offset!r}:{actor_ip}:{sequence}:"
                      f"{visit.target_key}\n".encode("utf-8"))
    return digest.hexdigest()


def shard_of(target_key: str, workers: int) -> int:
    """Deterministic shard assignment (stable across processes/runs).

    Keyed on the visit's target honeypot: honeypots carry cross-session
    state, so all sessions of one honeypot must replay on one worker
    (see the module docstring's determinism argument).
    """
    return zlib.crc32(target_key.encode("utf-8")) % workers


@dataclass(slots=True)
class VisitOutcome:
    """Everything one replayed visit produced."""

    offset: float
    actor_ip: str
    sequence: int
    target_key: str
    events: list[LogEvent]
    bytes_in: int = 0
    bytes_out: int = 0
    #: ``"ExceptionType: message"`` when the visit crashed (its events
    #: then belong in the dead letter, not the pipeline).
    failure: str | None = None
    #: True when a resume fast-forwarded this visit: its events are
    #: already durable on disk, so ``events`` is stripped (saving the
    #: cross-process copy) and only ``events_count`` survives for the
    #: run-wide accounting.
    committed: bool = False
    #: Event count recorded before a committed outcome's events were
    #: stripped; ``None`` for live outcomes.
    events_count: int | None = None

    @property
    def key(self) -> tuple[float, str, int]:
        return (self.offset, self.actor_ip, self.sequence)

    def event_total(self) -> int:
        """Events this visit generated, whether or not still attached."""
        return (self.events_count if self.events_count is not None
                else len(self.events))


@dataclass(slots=True)
class _DriverWire:
    """A MemoryWire wrapper that surfaces server-side closes and the
    ``wire.disconnect`` injection site to the visiting script."""

    inner: MemoryWire
    fault_plan: faults.FaultPlan

    def connect(self) -> bytes:
        return self.inner.connect()

    def send(self, data: bytes) -> bytes:
        if self.inner.server_closed:
            raise WireError("connection closed by server")
        if not self.fault_plan.is_noop:
            self.fault_plan.maybe_raise(
                "wire.disconnect",
                lambda: WireError("connection reset by peer (injected)"))
        return self.inner.send(data)

    def close(self) -> None:
        self.inner.close()


def _replay_visit(plan: DeploymentPlan, clock: SimClock, seed: int,
                  offset: float, actor_ip: str, sequence: int,
                  visit: Visit, span: Callable,
                  rng: random.Random | None = None) -> VisitOutcome:
    """Replay one visit into a private buffer; never raises.

    Crash containment: a session/script exception marks the outcome
    failed (its events travel with it, for the dead letter) and the
    replay continues -- one poisoned session must never abort the whole
    deployment window.

    Ambient state (the fault plan, the telemetry bundle) is resolved
    once here and threaded through the visit's wires, so the
    per-message ``send()`` hot path never touches a thread-local.  The
    visit key is formatted once and shared by the RNG seed and the
    keyed ``visit.crash`` draw -- ``f"{seed}:{visit_key}"`` is
    character-identical to the historical ``f"{seed}:{ip}:{seq}"``
    derivation, and re-seeding a loop-reused ``rng`` is CPython's own
    ``Random(str)`` construction path, so every random stream is
    unchanged.
    """
    clock.seek(EXPERIMENT_START + timedelta(seconds=offset))
    visit_key = f"{actor_ip}:{sequence}"
    if rng is None:
        rng = random.Random(f"{seed}:{visit_key}")
    else:
        rng.seed(f"{seed}:{visit_key}")
    events: list[LogEvent] = []
    open_wires: list[MemoryWire] = []
    metrics = obs.current().metrics
    fault_plan = faults.current()

    def opener(target_key: str, *, _ip=actor_ip, _rng=rng) -> Wire:
        target = plan.by_key(target_key)
        context = SessionContext(
            src_ip=_ip, src_port=_rng.randint(1024, 65535),
            clock=clock, sink=events.append)
        wire = MemoryWire(target.honeypot, context, fault_plan)
        open_wires.append(wire)
        return _DriverWire(wire, fault_plan)

    failure: str | None = None
    try:
        with span("replay.visit", actor=actor_ip,
                  target=visit.target_key, seq=sequence):
            if not fault_plan.is_noop:
                fault_plan.maybe_raise("visit.crash", key=visit_key)
            visit.script(VisitContext(opener=opener,
                                      target_key=visit.target_key,
                                      rng=rng))
    except Exception as error:
        failure = f"{type(error).__name__}: {error}"
    # Close any connection the script left dangling, and fold the
    # per-session byte counters into the visit totals.
    bytes_in = 0
    bytes_out = 0
    for wire in open_wires:
        try:
            wire.close()
        except Exception:
            metrics.inc("resilience.close_errors")
        bytes_in += wire.context.bytes_in
        bytes_out += wire.context.bytes_out
    return VisitOutcome(offset=offset, actor_ip=actor_ip,
                        sequence=sequence, target_key=visit.target_key,
                        events=events, bytes_in=bytes_in,
                        bytes_out=bytes_out, failure=failure)


@dataclass
class OpsOptions:
    """Driver-provided live-ops wiring for one replay.

    Everything is optional and additive: with the default options a
    replay behaves exactly as before (no metric deltas, no shard
    tracing, no flight dumps), so live telemetry can never perturb the
    event stream -- it only *observes* the worker registries.  Workers
    read it directly: fork workers inherit it, thread workers share it.
    """

    #: Ship shard metric deltas to the driver with the outcomes.
    live: bool = False
    #: Minimum seconds between one shard's metric deltas.
    emit_interval: float = 0.5
    #: Driver-side live aggregate (shared with ``/metrics``); the
    #: executor builds one if live is on and none is given.
    aggregator: "obs_live.LiveAggregator | None" = None
    #: Give each shard a real tracer and stitch its spans back into
    #: the driver timeline (shard-prefixed pids in the Chrome export).
    trace_shards: bool = False
    #: Directory for crash flight dumps (``flight_shard<k>.jsonl``).
    flight_dir: Path | None = None
    #: Correlation id bound into every worker ops-log record.
    run_id: str | None = None
    #: Resume watermark ``(offset, ip, seq)``: visits at or below it
    #: fast-forward (honeypot state + RNG/fault accounting rebuilt,
    #: events stripped as already durable).
    watermark: tuple[float, str, int] | None = None


class ReplayEngine:
    """Turns a compiled schedule into an ordered outcome stream."""

    name = "abstract"
    workers = 1
    #: Populated by :meth:`replay` with the manifest's ``replay``
    #: section (shard sizes and per-shard wall times).
    stats: dict | None = None

    def replay(self, schedule: Sequence[ScheduledVisit],
               plan: DeploymentPlan, seed: int,
               telemetry: obs.Telemetry,
               ops: OpsOptions | None = None) -> Iterator[VisitOutcome]:
        raise NotImplementedError


def _visits(plan: DeploymentPlan, schedule: Sequence[ScheduledVisit],
            seed: int, span: Callable,
            watermark: tuple[float, str, int] | None = None,
            kill_plan: faults.FaultPlan | None = None
            ) -> Iterator[VisitOutcome]:
    """The per-visit loop shared by serial replay and every shard.

    Visits at or below ``watermark`` fast-forward; with ``kill_plan``
    (the victim shard of a fork replay) the ``proc.kill`` site is drawn
    before each live visit.
    """
    clock = SimClock()
    rng = random.Random()  # reused: re-seeded per visit
    for offset, actor_ip, sequence, visit in schedule:
        if watermark is not None and \
                (offset, actor_ip, sequence) <= watermark:
            yield _fast_forward_visit(plan, clock, seed, offset, actor_ip,
                                      sequence, visit, rng)
            continue
        if kill_plan is not None and kill_plan.should_fire("proc.kill"):
            obs.current().logger.error("proc.kill", actor=actor_ip,
                                       seq=sequence,
                                       target=visit.target_key)
            os.kill(os.getpid(), signal.SIGKILL)
        yield _replay_visit(plan, clock, seed, offset, actor_ip, sequence,
                            visit, span, rng)


class SerialExecutor(ReplayEngine):
    """Single-threaded replay in schedule order (the reference engine).

    Runs :func:`_visits` in the driver's own context: metrics land
    directly in the driver registry, so no bus, pool or absorb step is
    needed.
    """

    name = "serial"

    def replay(self, schedule: Sequence[ScheduledVisit],
               plan: DeploymentPlan, seed: int,
               telemetry: obs.Telemetry,
               ops: OpsOptions | None = None) -> Iterator[VisitOutcome]:
        self.stats = {"executor": self.name, "workers": 1}
        yield from _visits(plan, schedule, seed, telemetry.tracer.span,
                           ops.watermark if ops is not None else None)


def _fast_forward_visit(plan: DeploymentPlan, clock: SimClock, seed: int,
                        offset: float, actor_ip: str, sequence: int,
                        visit: Visit,
                        rng: random.Random | None = None) -> VisitOutcome:
    """Re-replay an already-committed visit during a resume.

    Honeypots are stateful across sessions, so the only way to put the
    fleet back into its pre-crash state is to replay the committed
    prefix -- with the same per-visit RNG derivation and keyed fault
    decisions, so the rebuilt state is bit-for-bit what the original
    run produced.  Metrics and tracing are muted (the run journal
    restores the driver-side snapshot instead, avoiding double
    counting), fault-plan counters still advance (chaos accounting must
    span the crash boundary), and the events are stripped: they are
    already fsync-durable on disk, which is what the checkpoint proved.
    """
    with obs.install_local(obs.NULL_TELEMETRY):
        outcome = _replay_visit(plan, clock, seed, offset, actor_ip,
                                sequence, visit,
                                obs.NULL_TELEMETRY.tracer.span, rng)
    outcome.events_count = len(outcome.events)
    outcome.events = []
    outcome.committed = True
    return outcome


#: A shard ships its outcomes in lists of up to this many, and at
#: least every ``_FLUSH_SECONDS``: one message per outcome costs the
#: workers and the driver measurably more pickling and pipe work.
_OUTCOME_BATCH = 64
_FLUSH_SECONDS = 0.05


def _replay_shard(shard: int, schedule: Sequence[ScheduledVisit],
                  victim: bool, plan: DeploymentPlan, seed: int,
                  telemetry_enabled: bool, fault_payload: dict | None,
                  ops: OpsOptions, writer) -> None:
    """Replay one shard under its own thread-local runtime context.

    Outcomes are shipped to the driver as they replay, in small
    ``(shard, outcomes, delta, final)`` messages on the shard's own
    pipe (see the module docstring).  A send that finds the pipe broken
    (the driver gave up early, or died) ends the shard quietly.  The
    ``victim`` shard draws the ``proc.kill`` site before each visit.
    """
    context = worker_context(telemetry_enabled, fault_payload,
                             tracing=ops.trace_shards and telemetry_enabled)
    telemetry = context.telemetry
    start = time.perf_counter()
    emitter = (obs_live.ShardEmitter(telemetry.metrics, ops.emit_interval,
                                     start)
               if ops.live and telemetry_enabled else None)
    correlation = {"shard": shard}
    if ops.run_id is not None:
        correlation["run_id"] = ops.run_id
    flight_path = (ops.flight_dir / f"flight_shard{shard}.jsonl"
                   if ops.flight_dir is not None and telemetry_enabled
                   else None)
    watermark = (tuple(ops.watermark) if ops.watermark is not None
                 else None)
    batch: list[VisitOutcome] = []
    flushed = start
    with context.activate_local(), obs_logging.bind(**correlation):
        kill_plan = faults.current() if victim else None
        logger = telemetry.logger
        logger.info("shard.start", visits=len(schedule),
                    resuming=watermark is not None)
        with (telemetry.flight.armed(flight_path) if flight_path
              else contextlib.nullcontext()):
            try:
                for outcome in _visits(plan, schedule, seed,
                                       telemetry.tracer.span, watermark,
                                       kill_plan):
                    if outcome.failure is not None and \
                            not outcome.committed:
                        logger.warning("visit.quarantined",
                                       actor=outcome.actor_ip,
                                       seq=outcome.sequence,
                                       target=outcome.target_key,
                                       failure=outcome.failure)
                    batch.append(outcome)
                    now = time.perf_counter()
                    if len(batch) >= _OUTCOME_BATCH or \
                            now - flushed >= _FLUSH_SECONDS:
                        writer.send((shard, batch, None if emitter is None
                                     else emitter.take(now), None))
                        batch, flushed = [], now
                now = time.perf_counter()
                delta = (None if emitter is None
                         else emitter.take(now, final=True))
                logger.info("shard.done")
                writer.send((shard, batch, delta,
                             (now - start, context.report())))
            except BrokenPipeError:
                return  # nobody reads this shard any more: no dump


def _shard_worker(shard: int, writer, inherited: list | None,
                  args: tuple) -> None:
    """Entry point of one shard worker, thread or fork process.

    A fork worker first restores the default SIGTERM disposition (so a
    SIGTERM never runs the driver's flight dump) and closes the
    ``inherited`` read ends: only the driver then reads any pipe, and
    only this worker writes its own.  A worker error reaches the driver
    as one last ``(shard, None, None, traceback)`` message.
    """
    if inherited is not None:
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
        for reader in inherited:
            reader.close()
    try:
        _replay_shard(shard, *args, writer)
    except Exception:
        with contextlib.suppress(OSError):
            writer.send((shard, None, None, traceback.format_exc()))
    finally:
        writer.close()


class ShardedExecutor(ReplayEngine):
    """Partition-by-target replay on one worker per shard, merged
    canonically.

    ``pool`` selects the worker flavor: ``"fork"`` (one forked process
    per shard, copy-on-write state -- the default where available),
    ``"thread"`` (in-process, useful where fork is not), or ``"auto"``.
    """

    name = "sharded"

    def __init__(self, workers: int, *, pool: str = "auto"):
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if pool not in ("auto", "fork", "thread"):
            raise ValueError(f"unknown pool {pool!r}")
        if pool == "auto":
            pool = ("fork" if "fork"
                    in multiprocessing.get_all_start_methods()
                    else "thread")
        self.workers = workers
        self.pool = pool

    def replay(self, schedule: Sequence[ScheduledVisit],
               plan: DeploymentPlan, seed: int,
               telemetry: obs.Telemetry,
               ops: OpsOptions | None = None) -> Iterator[VisitOutcome]:
        """Incremental k-way merge of live per-shard outcome streams.

        Workers push their outcomes over their pipes as they replay; the
        driver emits an outcome as soon as every unfinished shard has
        something buffered (its key is then globally minimal, since
        each shard's stream is canonically ordered).  This is what lets
        the driver checkpoint mid-run.  A worker death surfaces as
        :class:`WorkerLostError` instead of a hang.
        """
        ops = ops or OpsOptions()
        count = self.workers
        shards = [[] for _ in range(count)]
        for entry in schedule:
            shards[shard_of(entry[3].target_key, count)].append(entry)
        driver_plan = faults.current()
        fault_payload = (None if driver_plan is faults.NULL_PLAN
                         else driver_plan.payload())
        # ``proc.kill`` evaluates only in fork workers (a thread
        # "worker" is the driver -- killing it is not a recoverable
        # chaos scenario), and only in one seeded victim shard, so the
        # kill point is reproducible and exactly one worker dies.
        victim = (random.Random(f"{driver_plan.seed}:proc.kill:victim"
                                ).randrange(count)
                  if self.pool == "fork" and "proc.kill" in driver_plan.sites
                  else None)
        aggregator = None
        if ops.live and telemetry.enabled:
            aggregator = (ops.aggregator if ops.aggregator is not None
                          else obs_live.LiveAggregator())
        buffers: list[deque] = [deque() for _ in range(count)]
        # Each shard's (wall seconds, report), from its last message.
        finals: list = [None] * count
        # Per-shard progress, counted from the outcomes received.
        tallies = [{"shard": index, "visits": 0, "events": 0,
                    "quarantined_visits": 0} for index in range(count)]
        emissions = [0] * count

        def emit_ready() -> Iterator[VisitOutcome]:
            while True:
                ready = [i for i in range(count) if buffers[i]]
                if not ready or not all(finals[i] is not None or buffers[i]
                                        for i in range(count)):
                    return
                best = min(ready, key=lambda i: buffers[i][0].key)
                yield buffers[best].popleft()

        # The read end of every unfinished shard's pipe -> its shard.
        readers: dict = {}
        workers: list = []
        try:
            for index in range(count):
                reader, writer = multiprocessing.Pipe(duplex=False)
                readers[reader] = index
                args = (shards[index], index == victim, plan, seed,
                        telemetry.enabled, fault_payload, ops)
                if self.pool == "thread":
                    worker = threading.Thread(
                        target=_shard_worker, daemon=True,
                        args=(index, writer, None, args))
                else:
                    worker = multiprocessing.get_context("fork").Process(
                        target=_shard_worker, daemon=True,
                        args=(index, writer, list(readers), args))
                worker.start()
                workers.append(worker)
                if self.pool == "fork":
                    writer.close()  # the worker holds the only write end
            while readers:
                for reader in multiprocessing.connection.wait(list(readers)):
                    shard = readers[reader]
                    try:
                        _, outcomes, delta, final = reader.recv()
                    except (EOFError, OSError) as error:
                        # The pipe ended, between messages or in one.
                        raise WorkerLostError(
                            f"shard {shard} worker died mid-replay"
                        ) from error
                    if outcomes is None:
                        raise RuntimeError(
                            f"shard {shard} worker failed:\n{final}")
                    buffers[shard].extend(outcomes)
                    tally = tallies[shard]
                    tally["visits"] += len(outcomes)
                    for outcome in outcomes:
                        tally["events"] += outcome.event_total()
                        if outcome.failure is not None:
                            tally["quarantined_visits"] += 1
                    if delta is not None:
                        emissions[shard] += 1
                        aggregator.fold({
                            "shard": shard, "seq": emissions[shard],
                            "visits": tally["visits"],
                            "events": tally["events"],
                            "metrics": delta,
                            "done": final is not None})
                    if final is not None:
                        finals[shard] = final
                        del readers[reader]
                        reader.close()
                    yield from emit_ready()
        finally:
            # The one stop signal: once its read end is closed, a
            # worker's next send fails and the worker returns.
            for reader in readers:
                reader.close()
            for worker in workers:
                worker.join()

        # Fold each worker's metrics and fault counters into the
        # driver's ambient runtime so run-wide accounting stays exact.
        # (The live aggregate is display-side only; this end-of-run
        # merge stays the single source of truth for the manifest.)
        driver = RunContext(telemetry=telemetry, fault_plan=driver_plan)
        merged = obs.MetricsRegistry() if aggregator is not None else None
        for _, report in finals:
            driver.absorb(report)
            if merged is not None and report.get("metrics"):
                merged.merge(report["metrics"])
        stitched_spans = 0
        if ops.trace_shards and telemetry.enabled:
            # Stitch per-shard traces into one timeline: the driver's
            # spans stay on Chrome pid 1, each shard gets its own
            # process lane.
            telemetry.tracer.process_names.setdefault(1, "driver")
            for shard, (_, report) in enumerate(finals):
                stitched_spans += telemetry.tracer.absorb(
                    report.get("spans") or [],
                    pid=shard + 2, name=f"shard {shard}")
        live_stats = None
        if aggregator is not None:
            live_stats = {
                "emissions": sum(emissions),
                # The delta-merge invariant, checked on every live run:
                # folding the streamed deltas must reconstruct exactly
                # the end-of-run merged registry (counters+histograms).
                "equals_merged": obs_live.counters_equal(
                    aggregator.snapshot(), merged.snapshot()),
            }
        self.stats = {
            "executor": self.name,
            "workers": count,
            "pool": self.pool,
            "live": live_stats,
            "stitched_spans": stitched_spans,
            "shards": [{**tally, "wall_seconds": wall_seconds}
                       for tally, (wall_seconds, _) in zip(tallies, finals)],
        }


def resolve_workers(requested: "int | str", *,
                    cores: int | None = None) -> int:
    """Resolve a ``--workers`` request into a concrete worker count.

    ``"auto"`` resolves to ``min(requested_cores, cpu_count)`` -- i.e.
    one worker per available core, and never more than the host can
    actually run (on a single-core host that is serial replay, the
    faster configuration there per ``BENCH_replay.json``).  An explicit
    integer is honored verbatim, but when it shards on a single-core
    host -- where sharding measured 0.75x serial -- a warning goes to
    stderr and the ``replay.single_core_sharding`` counter, so users
    do not silently pessimize their runs.
    """
    if cores is None:
        cores = os.cpu_count() or 1
    if requested == "auto":
        return max(1, cores)
    try:
        workers = int(requested)
    except (TypeError, ValueError):
        raise ValueError(f"workers must be an integer >= 1 or 'auto', "
                         f"got {requested!r}") from None
    if workers < 1:
        raise ValueError(f"workers must be >= 1 or 'auto', "
                         f"got {requested!r}")
    if workers > 1 and cores == 1:
        obs.current().metrics.inc("replay.single_core_sharding",
                                  workers=workers)
        obs.current().logger.warning("replay.single_core_sharding",
                                     workers=workers, cores=cores)
        print(f"warning: --workers {workers} shards the replay on a "
              f"single-core host, which benchmarks slower than serial "
              f"(see BENCH_replay.json); use --workers auto to match "
              f"the hardware", file=sys.stderr)
    return workers


def build_engine(workers: int, executor: str = "auto",
                 pool: str = "auto") -> ReplayEngine:
    """Resolve ``ExperimentConfig.workers``/``executor``/``pool``
    into an engine."""
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if executor == "auto":
        executor = "sharded" if workers > 1 else "serial"
    if executor == "serial":
        return SerialExecutor()
    if executor == "sharded":
        return ShardedExecutor(workers, pool=pool)
    raise ValueError(f"unknown executor {executor!r} "
                     "(expected auto, serial, or sharded)")
