"""Layer 1 of ``repro verify``: the run-artifact invariant audit.

Given the output directory of a ``repro run --telemetry`` (raw logs,
checkpoint journal, and dead letter audited when present), re-derive
every cross-artifact invariant the system promises and report each
violation as a coded :class:`~repro.verify.findings.Finding`:

* the manifest is schema-valid, final (not partial), and internally
  consistent (``events_total`` vs. its own breakdowns and tier split),
* conservation: ``events_generated == events_stored +
  events_quarantined``,
* the SQLite databases hold exactly the rows the manifest claims, in
  the right tier, with the contiguous ids canonical insertion produces,
* raw-log line counts and contents match the database rows of each
  ``(interaction, dbms, config)`` group, in canonical order,
* the dead letter parses and matches the quarantine accounting,
* the run journal (when present) is structurally valid, belongs to
  this run, and its digest chain matches the on-disk databases,
* the truncation counters do not claim more clipped payloads than
  rows at the truncation length exist.

The audit is read-only and needs no replay; Layer 2 (differential
replay) lives in :mod:`repro.verify.differential`.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro import obs
from repro.obs import report as obs_report
from repro.pipeline.convert import (count_events, group_counts,
                                    open_database, prefix_digest)
from repro.pipeline.logstore import (MAX_RAW, LogEvent,
                                     consolidated_group_name)
from repro.resilience.deadletter import read_dead_letters
from repro.runtime import journal as run_journal
from repro.verify.findings import Finding

__all__ = ["AuditError", "AuditResult", "audit_run"]

#: Manifest sections the audit depends on; absence of any is a
#: MANIFEST_SCHEMA finding (everything downstream would be guesswork).
_REQUIRED_SECTIONS = (
    "config", "visits_total", "events_total", "events_by_type",
    "events_by_dbms", "events_by_interaction", "split", "db_rows",
    "resilience", "metrics",
)

#: The LogEvent fields a raw-log line shares with a database row.
_EVENT_FIELDS = (
    "timestamp", "honeypot_id", "honeypot_type", "dbms", "interaction",
    "config", "src_ip", "src_port", "event_type", "action", "username",
    "password", "raw",
)


class AuditError(RuntimeError):
    """The audit cannot run at all (missing run directory/manifest)."""


class AuditResult:
    """Findings plus a per-check trail of what ran."""

    def __init__(self, output_dir: Path):
        self.output_dir = output_dir
        self.findings: list[Finding] = []
        self.checks: list[dict] = []

    @property
    def ok(self) -> bool:
        return not self.findings

    def flag(self, code: str, message: str, **context) -> None:
        self.findings.append(Finding(code, message, context))
        obs.current().metrics.inc("verify.findings", code=code)

    def record(self, name: str, status: str, detail: str = "") -> None:
        self.checks.append({"name": name, "status": status,
                            "detail": detail})
        obs.current().metrics.inc("verify.checks", status=status)

    def as_dict(self) -> dict:
        return {
            "schema": "repro.verify_report/1",
            "output_dir": str(self.output_dir),
            "generated_at": obs_report.utc_now_iso(),
            "checks": self.checks,
            "findings": [finding.as_dict()
                         for finding in self.findings],
            "ok": self.ok,
        }


def _check(result: AuditResult, name: str):
    """Run one named check, recording ok/failed from its findings."""
    before = len(result.findings)

    def finish():
        status = "ok" if len(result.findings) == before else "failed"
        result.record(name, status)

    return finish


def audit_run(output_dir: str | Path) -> AuditResult:
    """Audit every artifact of one finished run.

    Raises :class:`AuditError` when there is nothing to audit (no such
    directory, no databases, or no telemetry manifest -- re-run with
    ``repro run --telemetry``).
    """
    output_dir = Path(output_dir)
    if not output_dir.is_dir():
        raise AuditError(f"no run directory at {output_dir}")
    report_path = output_dir / obs_report.REPORT_FILENAME
    if not report_path.exists():
        raise AuditError(
            f"no {obs_report.REPORT_FILENAME} at {output_dir} (the "
            f"audit needs a telemetry manifest; re-run with "
            f"`repro run --telemetry`)")
    for tier in ("low", "midhigh"):
        if not (output_dir / f"{tier}.sqlite").exists():
            raise AuditError(f"no {tier}.sqlite at {output_dir}")

    result = AuditResult(output_dir)
    manifest = _audit_manifest(result, report_path)
    if manifest is None:
        return result
    _audit_conservation(result, manifest)
    _audit_databases(result, manifest)
    _audit_raw_logs(result, manifest)
    _audit_quarantine(result, manifest)
    _audit_journal(result, manifest)
    _audit_truncation(result, manifest)
    return result


# -- manifest --------------------------------------------------------------

def _audit_manifest(result: AuditResult, report_path: Path):
    finish = _check(result, "manifest_schema")
    try:
        manifest = obs_report.load_report(report_path)
    except (ValueError, json.JSONDecodeError) as error:
        result.flag("MANIFEST_SCHEMA", str(error),
                    path=str(report_path))
        finish()
        return None
    if manifest.get("partial"):
        result.flag("MANIFEST_SCHEMA",
                    f"{report_path} is a partial (incremental) "
                    f"snapshot, not a final manifest",
                    path=str(report_path))
    missing = [section for section in _REQUIRED_SECTIONS
               if manifest.get(section) is None]
    if missing:
        result.flag("MANIFEST_SCHEMA",
                    f"{report_path} is missing required section(s) "
                    f"{missing}", missing=missing)
        finish()
        return None
    finish()

    finish = _check(result, "manifest_counts")
    total = manifest["events_total"]
    for section in ("events_by_type", "events_by_dbms",
                    "events_by_interaction"):
        summed = sum(manifest[section].values())
        if summed != total:
            result.flag("MANIFEST_COUNTS",
                        f"{section} sums to {summed}, but "
                        f"events_total is {total}",
                        section=section, summed=summed, total=total)
    split = manifest["split"]
    split_total = split.get("low", 0) + split.get("midhigh", 0)
    if split_total != total:
        result.flag("MANIFEST_COUNTS",
                    f"tier split sums to {split_total}, but "
                    f"events_total is {total}",
                    split=split, total=total)
    finish()
    return manifest


def _audit_conservation(result: AuditResult, manifest: dict) -> None:
    finish = _check(result, "conservation")
    res = manifest["resilience"]
    generated = res.get("events_generated", 0)
    stored = res.get("events_stored", 0)
    quarantined = res.get("events_quarantined", 0)
    if generated != stored + quarantined:
        result.flag("CONSERVATION",
                    f"events_generated ({generated}) != events_stored "
                    f"({stored}) + events_quarantined ({quarantined})",
                    generated=generated, stored=stored,
                    quarantined=quarantined)
    if not res.get("conservation_ok", False):
        result.flag("CONSERVATION",
                    "the manifest itself records conservation_ok="
                    "false")
    if stored != manifest["events_total"]:
        result.flag("CONSERVATION",
                    f"resilience.events_stored ({stored}) != "
                    f"events_total ({manifest['events_total']})",
                    stored=stored, total=manifest["events_total"])
    finish()


# -- databases -------------------------------------------------------------

def _audit_databases(result: AuditResult, manifest: dict) -> None:
    finish = _check(result, "db_rows")
    rows = {}
    for tier in ("low", "midhigh"):
        db_path = result.output_dir / f"{tier}.sqlite"
        rows[tier] = count_events(db_path)
        claimed = manifest["db_rows"].get(tier)
        if claimed != rows[tier]:
            result.flag("DB_ROWS",
                        f"{tier}.sqlite holds {rows[tier]} rows, but "
                        f"the manifest claims {claimed}",
                        tier=tier, actual=rows[tier], claimed=claimed)
        split = manifest["split"].get(tier)
        if split != rows[tier]:
            result.flag("DB_ROWS",
                        f"{tier}.sqlite holds {rows[tier]} rows, but "
                        f"the tier split claims {split}",
                        tier=tier, actual=rows[tier], split=split)
    finish()

    finish = _check(result, "tier_purity")
    for tier, condition in (("low", "interaction != 'low'"),
                            ("midhigh", "interaction = 'low'")):
        connection = open_database(result.output_dir / f"{tier}.sqlite")
        try:
            (stray,) = connection.execute(
                f"SELECT COUNT(*) FROM events WHERE {condition}"
            ).fetchone()
        finally:
            connection.close()
        if stray:
            result.flag("TIER_PURITY",
                        f"{tier}.sqlite holds {stray} row(s) of the "
                        f"wrong interaction tier ({condition})",
                        tier=tier, stray=stray)
    finish()

    finish = _check(result, "id_contiguity")
    for tier in ("low", "midhigh"):
        connection = open_database(result.output_dir / f"{tier}.sqlite")
        try:
            lowest, highest, count = connection.execute(
                "SELECT MIN(id), MAX(id), COUNT(*) FROM events"
            ).fetchone()
        finally:
            connection.close()
        if count and (lowest != 1 or highest != count):
            result.flag("ID_CONTIGUITY",
                        f"{tier}.sqlite ids span {lowest}..{highest} "
                        f"over {count} rows (expected the contiguous "
                        f"1..{count})",
                        tier=tier, min=lowest, max=highest, count=count)
    finish()


# -- raw logs --------------------------------------------------------------

def _raw_dir(result: AuditResult) -> Path:
    from repro.deployment.experiment import RAW_LOG_DIRNAME

    return result.output_dir / RAW_LOG_DIRNAME


def _audit_raw_logs(result: AuditResult, manifest: dict) -> None:
    if not manifest["config"].get("write_raw_logs"):
        result.record("raw_logs", "skipped",
                      "run wrote no raw logs (--raw-logs off)")
        return
    raw_dir = _raw_dir(result)
    finish = _check(result, "raw_count")
    if not raw_dir.is_dir():
        result.flag("RAW_COUNT",
                    f"the manifest says raw logs were written, but "
                    f"{raw_dir} does not exist", path=str(raw_dir))
        finish()
        return
    expected: dict[str, int] = {}
    for tier in ("low", "midhigh"):
        expected.update(
            group_counts(result.output_dir / f"{tier}.sqlite"))
    actual = {path.name: sum(1 for line in
                             path.read_text(encoding="utf-8")
                             .splitlines() if line)
              for path in sorted(raw_dir.glob("*.jsonl"))}
    for name in sorted(set(expected) | set(actual)):
        if expected.get(name, 0) != actual.get(name, 0):
            result.flag("RAW_COUNT",
                        f"raw log {name} holds {actual.get(name, 0)} "
                        f"line(s), but the databases hold "
                        f"{expected.get(name, 0)} row(s) of that "
                        f"group", group=name,
                        raw_lines=actual.get(name, 0),
                        db_rows=expected.get(name, 0))
    finish()

    finish = _check(result, "raw_order")
    for tier in ("low", "midhigh"):
        _audit_raw_order_tier(result, tier, raw_dir)
    finish()


def _audit_raw_order_tier(result: AuditResult, tier: str,
                          raw_dir: Path) -> None:
    """Events per group, in raw-file order, vs. DB rows in id order."""
    connection = open_database(result.output_dir / f"{tier}.sqlite")
    try:
        db_groups: dict[str, list[tuple]] = {}
        for row in connection.execute(
                f"SELECT {', '.join(_EVENT_FIELDS)} FROM events "
                f"ORDER BY id"):
            name = consolidated_group_name(
                row["interaction"], row["dbms"], row["config"])
            db_groups.setdefault(name, []).append(
                tuple(row[fieldname] for fieldname in _EVENT_FIELDS))
    finally:
        connection.close()
    for name, db_rows in sorted(db_groups.items()):
        path = raw_dir / name
        if not path.exists():
            continue  # RAW_COUNT already flagged the missing group
        raw_rows: list[tuple] = []
        parse_failed = False
        for lineno, line in enumerate(
                path.read_text(encoding="utf-8").splitlines(), 1):
            if not line:
                continue
            try:
                event = LogEvent.from_json(line)
            except (TypeError, ValueError) as error:
                result.flag("RAW_ORDER",
                            f"raw log {name} line {lineno} does not "
                            f"parse as a LogEvent: {error}",
                            group=name, line=lineno)
                parse_failed = True
                break
            raw_rows.append(tuple(getattr(event, fieldname)
                                  for fieldname in _EVENT_FIELDS))
        if parse_failed or len(raw_rows) != len(db_rows):
            continue  # count mismatches belong to RAW_COUNT
        for index, (raw_row, db_row) in enumerate(
                zip(raw_rows, db_rows)):
            if raw_row != db_row:
                result.flag(
                    "RAW_ORDER",
                    f"raw log {name} and {tier}.sqlite disagree at "
                    f"group position {index}: raw "
                    f"{dict(zip(_EVENT_FIELDS, raw_row))!r} vs. db "
                    f"{dict(zip(_EVENT_FIELDS, db_row))!r}",
                    group=name, tier=tier, position=index)
                break


# -- dead letter -----------------------------------------------------------

def _audit_quarantine(result: AuditResult, manifest: dict) -> None:
    from repro.deployment.experiment import QUARANTINE_FILENAME

    finish = _check(result, "quarantine")
    res = manifest["resilience"]
    quarantined_events = res.get("events_quarantined", 0)
    quarantined_visits = res.get("quarantined_visits", 0)
    path = result.output_dir / QUARANTINE_FILENAME
    if not path.exists():
        if quarantined_events or quarantined_visits:
            result.flag("QUARANTINE",
                        f"the manifest records {quarantined_visits} "
                        f"quarantined visit(s) / {quarantined_events} "
                        f"event(s), but {path} does not exist",
                        path=str(path))
        finish()
        return
    try:
        records = read_dead_letters(path)
    except (OSError, json.JSONDecodeError) as error:
        result.flag("QUARANTINE",
                    f"{path} does not parse: {error}", path=str(path))
        finish()
        return
    if len(records) != quarantined_visits:
        result.flag("QUARANTINE",
                    f"{path} holds {len(records)} record(s), but the "
                    f"manifest records {quarantined_visits} "
                    f"quarantined visit(s)",
                    records=len(records), claimed=quarantined_visits)
    events = sum(len(record.get("events", [])) for record in records)
    if events != quarantined_events:
        result.flag("QUARANTINE",
                    f"{path} holds {events} quarantined event(s), but "
                    f"the manifest records {quarantined_events}",
                    events=events, claimed=quarantined_events)
    keys = [(record.get("offset"), record.get("actor"),
             record.get("seq")) for record in records]
    for previous, current in zip(keys, keys[1:]):
        if not previous < current:
            result.flag("QUARANTINE",
                        f"dead-letter records out of canonical "
                        f"(offset, actor, seq) order: {previous!r} "
                        f"then {current!r}",
                        previous=list(previous), current=list(current))
            break
    finish()


# -- run journal -----------------------------------------------------------

def _audit_journal(result: AuditResult, manifest: dict) -> None:
    from repro.deployment.checkpoint import checkpoint_valid

    if not run_journal.journal_path(result.output_dir).exists():
        result.record("journal", "skipped",
                      "run was not checkpointed (no run journal)")
        return
    finish = _check(result, "journal")
    try:
        view = run_journal.read_journal(result.output_dir)
    except run_journal.JournalError as error:
        result.flag("JOURNAL", str(error))
        finish()
        return
    header = view.header or {}
    seed = manifest["config"].get("seed")
    if header.get("seed") != seed:
        result.flag("JOURNAL",
                    f"journal header seed {header.get('seed')!r} != "
                    f"manifest seed {seed!r}",
                    journal_seed=header.get("seed"), manifest_seed=seed)
    watermarks = [tuple(record["watermark"])
                  for record in view.checkpoints
                  if record.get("watermark")]
    for previous, current in zip(watermarks, watermarks[1:]):
        if not previous <= current:
            result.flag("JOURNAL",
                        f"checkpoint watermarks regress: {previous!r} "
                        f"then {current!r}",
                        previous=list(previous), current=list(current))
            break
    if view.checkpoints:
        reason = checkpoint_valid(result.output_dir,
                                  view.checkpoints[-1], header)
        if reason is not None:
            result.flag("JOURNAL",
                        f"last checkpoint does not validate against "
                        f"the on-disk artifacts: {reason}",
                        seq=view.checkpoints[-1].get("seq"))
    if view.complete is not None:
        for tier in ("low", "midhigh"):
            state = view.complete.get(tier) or {}
            rows = int(state.get("rows", 0))
            actual = count_events(result.output_dir / f"{tier}.sqlite")
            if rows != actual:
                result.flag("JOURNAL",
                            f"journal complete record says "
                            f"{tier}.sqlite committed {rows} row(s), "
                            f"but it holds {actual}",
                            tier=tier, committed=rows, actual=actual)
                continue
            recorded = state.get("digest")
            if recorded is not None:
                digest = prefix_digest(
                    result.output_dir / f"{tier}.sqlite", rows)
                if digest != recorded:
                    result.flag("JOURNAL",
                                f"{tier}.sqlite content digest does "
                                f"not match the journal's complete "
                                f"record over {rows} row(s)",
                                tier=tier, rows=rows,
                                recorded=recorded, actual=digest)
    finish()


# -- truncation accounting -------------------------------------------------

def _counter_total(manifest: dict, name: str) -> int:
    """Sum a counter over all label sets in the manifest snapshot."""
    return sum(entry["value"]
               for entry in manifest["metrics"].get("counters", [])
               if entry["name"] == name)


def _audit_truncation(result: AuditResult, manifest: dict) -> None:
    finish = _check(result, "truncation")
    claimed = _counter_total(manifest, "logstore.raw_truncated")
    at_limit = 0
    for tier in ("low", "midhigh"):
        connection = open_database(result.output_dir / f"{tier}.sqlite")
        try:
            (count,) = connection.execute(
                "SELECT COUNT(*) FROM events WHERE LENGTH(raw) = ?",
                (MAX_RAW,)).fetchone()
        finally:
            connection.close()
        at_limit += count
    # One-sided: a payload of exactly MAX_RAW characters is
    # indistinguishable from a clipped one, so rows at the limit bound
    # the truncation count from above but not below.
    if claimed > at_limit:
        result.flag("TRUNCATION",
                    f"the run counted {claimed} truncated payload(s), "
                    f"but only {at_limit} stored row(s) are at the "
                    f"{MAX_RAW}-character truncation length",
                    claimed=claimed, at_limit=at_limit)
    bytes_dropped = _counter_total(manifest,
                                   "logstore.raw_truncated_bytes")
    if claimed == 0 and bytes_dropped:
        result.flag("TRUNCATION",
                    f"raw_truncated_bytes is {bytes_dropped} but "
                    f"raw_truncated is 0",
                    bytes=bytes_dropped)
    finish()
