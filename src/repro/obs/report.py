"""Run manifests (``run_report.json``) and their human-readable summary.

A manifest is a plain JSON document describing one experiment run:
phase wall-times, event counts broken down by type / DBMS / interaction
/ honeypot, visits replayed, bytes exchanged, database row counts, and
peak RSS.  :func:`write_report` / :func:`load_report` round-trip it;
:func:`format_summary` renders the table shown by ``repro stats``.
"""

from __future__ import annotations

import json
import os
import sys
import threading
from datetime import datetime, timezone
from pathlib import Path

#: Manifest schema identifier; bump the suffix on breaking changes.
SCHEMA = "repro.run_report/1"

#: Default manifest file name, written next to the SQLite databases.
REPORT_FILENAME = "run_report.json"


def peak_rss_bytes() -> int | None:
    """Peak resident set size of this process, or ``None`` if unknown."""
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX
        return None
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # ru_maxrss is kilobytes on Linux, bytes on macOS.
    return rss if sys.platform == "darwin" else rss * 1024


def write_report(manifest: dict, path: str | Path) -> Path:
    """Serialize ``manifest`` to ``path`` as pretty-printed JSON.

    Atomic: the JSON goes to a temp file in the same directory, named
    per process and thread (so concurrent writers never share one),
    which then replaces ``path``.  A crash mid-write leaves the previous
    manifest intact.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(
        f".{path.name}.{os.getpid()}-{threading.get_ident()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(manifest, handle, indent=2, sort_keys=False)
            handle.write("\n")
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return path


def load_report(path: str | Path) -> dict:
    """Load and validate a manifest written by :func:`write_report`.

    Raises
    ------
    ValueError
        If the file is not a run-report manifest.
    """
    with open(path, encoding="utf-8") as handle:
        manifest = json.load(handle)
    schema = manifest.get("schema", "") if isinstance(manifest, dict) else ""
    if not str(schema).startswith("repro.run_report/"):
        raise ValueError(f"{path} is not a run_report manifest "
                         f"(schema={schema!r})")
    return manifest


def utc_now_iso() -> str:
    """Current wall-clock time as an ISO-8601 UTC string."""
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def _format_table(headers: list[str], rows: list[list[object]]) -> str:
    """Minimal fixed-width table (kept local: obs must stay stdlib-only
    and not pull in the numpy-backed analysis layer)."""
    cells = [[str(value) for value in row] for row in rows]
    widths = [max(len(header), *(len(row[i]) for row in cells))
              if cells else len(header)
              for i, header in enumerate(headers)]
    lines = ["  ".join(h.ljust(w) for h, w in zip(headers, widths)),
             "  ".join("-" * w for w in widths)]
    lines += ["  ".join(cell.ljust(w) for cell, w in zip(row, widths))
              for row in cells]
    return "\n".join(lines)


def _format_bytes(count: object) -> str:
    try:
        count = float(count)  # type: ignore[arg-type]
    except (TypeError, ValueError):
        return "?"
    for unit in ("B", "KiB", "MiB", "GiB"):
        if count < 1024 or unit == "GiB":
            return (f"{count:.0f} {unit}" if unit == "B"
                    else f"{count:.1f} {unit}")
        count /= 1024
    return "?"  # pragma: no cover


def format_summary(manifest: dict) -> str:
    """Render a manifest as the human-readable ``repro stats`` report."""
    sections: list[str] = []
    partial = bool(manifest.get("partial"))
    if partial:
        # Written while the run was going: it is either still going or
        # died before its final manifest.
        sections.append(
            "*** PARTIAL REPORT: run in progress or interrupted ***\n"
            "    (a crashed checkpointed run can be continued with "
            "`repro run --resume`)")
    config = manifest.get("config", {})
    header = (
        f"run report ({manifest.get('generated_at', 'unknown time')})\n"
        f"  seed={config.get('seed')}  scale={config.get('volume_scale')}"
        f"  output={config.get('output_dir')}")
    if config.get("workers", 1) != 1:
        header += f"  workers={config.get('workers')}"
    if manifest.get("run_id"):
        header += f"\n  run_id={manifest['run_id']}"
    sections.append(header)

    wall = manifest.get("wall_time_seconds")
    phases = manifest.get("phases", {})
    if phases:
        total = sum(phases.values()) or 1.0
        reference = wall if wall else total
        rows = [[name, f"{seconds:.3f}",
                 f"{100.0 * seconds / reference:.1f}%"]
                for name, seconds in phases.items()]
        rows.append(["(total)", f"{sum(phases.values()):.3f}", ""])
        if wall is not None:
            rows.append(["(wall)", f"{wall:.3f}", "100.0%"])
        sections.append("phases\n" + _format_table(
            ["phase", "seconds", "share"], rows))

    if partial:
        progress = manifest.get("progress") or {}
        rows = [
            ["visits done", f"{progress.get('visits', '?')} / "
                            f"{manifest.get('visits_total', '?')}"],
            ["events generated", progress.get("events_generated", "?")],
            ["events quarantined",
             progress.get("events_quarantined", "?")],
        ]
        if "shards_done" in progress:
            rows.append(["shards done", f"{progress['shards_done']} / "
                                        f"{config.get('workers', '?')}"])
        if manifest.get("checkpoint"):
            rows.append(["checkpoints",
                         manifest["checkpoint"].get("count", "?")])
        sections.append("progress\n" + _format_table(
            ["metric", "value"], rows))

    totals = [
        ["visits", manifest.get("visits_total", "?")],
        ["events", manifest.get("events_total", "?")],
    ]
    split = manifest.get("split", {})
    if split:
        totals.append(["events (low tier)", split.get("low", "?")])
        totals.append(["events (mid/high tier)", split.get("midhigh", "?")])
    db_rows = manifest.get("db_rows", {})
    if db_rows:
        totals.append(["db rows (low)", db_rows.get("low", "?")])
        totals.append(["db rows (midhigh)", db_rows.get("midhigh", "?")])
    io = manifest.get("bytes", {})
    if io:
        totals.append(["bytes in",
                       f"{io.get('in', '?')} ({_format_bytes(io.get('in'))})"])
        totals.append(["bytes out",
                       f"{io.get('out', '?')} "
                       f"({_format_bytes(io.get('out'))})"])
    rss = manifest.get("peak_rss_bytes")
    if rss is not None:
        totals.append(["peak RSS", _format_bytes(rss)])
    if not partial:
        sections.append("totals\n" + _format_table(["metric", "value"],
                                                    totals))

    replay = manifest.get("replay") or {}
    if replay.get("shards"):
        rows = [[shard.get("shard", "?"), shard.get("visits", "?"),
                 shard.get("events", "?"),
                 f"{shard.get('wall_seconds', 0.0):.3f}"]
                for shard in replay["shards"]]
        sections.append(
            f"replay ({replay.get('executor', '?')}, "
            f"{replay.get('workers', '?')} workers)\n"
            + _format_table(["shard", "visits", "events", "seconds"],
                            rows))

    resilience = manifest.get("resilience", {})
    if resilience:
        rows = [
            ["events generated", resilience.get("events_generated", "?")],
            ["events stored", resilience.get("events_stored", "?")],
            ["events quarantined",
             resilience.get("events_quarantined", "?")],
            ["quarantined visits",
             resilience.get("quarantined_visits", "?")],
            ["conservation",
             "OK" if resilience.get("conservation_ok") else "VIOLATED"],
        ]
        if resilience.get("fault_plan"):
            rows.append(["fault plan", resilience["fault_plan"]])
        for site, stats in sorted(resilience.get("faults", {}).items()):
            rows.append([f"fault {site}",
                         f"{stats.get('fires', '?')} fires"])
        if resilience.get("dead_letter"):
            rows.append(["dead letter", resilience["dead_letter"]])
        sections.append("resilience\n" + _format_table(
            ["metric", "value"], rows))

    for key, title in (("events_by_type", "events by type"),
                       ("events_by_dbms", "events by dbms"),
                       ("events_by_interaction", "events by interaction")):
        counts = manifest.get(key)
        if counts:
            rows = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
            sections.append(title + "\n" + _format_table(
                ["key", "count"], [[k, v] for k, v in rows]))

    by_honeypot = manifest.get("events_by_honeypot")
    if by_honeypot:
        rows = sorted(by_honeypot.items(), key=lambda kv: (-kv[1], kv[0]))
        shown = rows[:15]
        table = _format_table(["honeypot", "count"],
                              [[k, v] for k, v in shown])
        if len(rows) > len(shown):
            table += f"\n... and {len(rows) - len(shown)} more honeypots"
        sections.append("busiest honeypots\n" + table)

    checkpoint = manifest.get("checkpoint")
    if checkpoint:
        rows = [
            ["interval", f"{checkpoint.get('interval_seconds', '?')}s"],
            ["checkpoints", checkpoint.get("count", "?")],
            ["barrier time",
             f"{checkpoint.get('barrier_seconds', 0.0):.3f}s"],
            ["journal", checkpoint.get("journal", "?")],
        ]
        resume = checkpoint.get("resume")
        if resume:
            rows.append(["resumed",
                         f"mode={resume.get('mode')} from checkpoint "
                         f"{resume.get('from_checkpoint')}"])
            rows.append(["fast-forwarded visits",
                         resume.get("fast_forwarded_visits", "?")])
            if resume.get("disarmed_sites"):
                rows.append(["disarmed fault sites",
                             ", ".join(resume["disarmed_sites"])])
        sections.append("checkpointing\n" + _format_table(
            ["metric", "value"], rows))

    live = manifest.get("live")
    if live:
        rows = [
            ["emissions", live.get("emissions", "?")],
            ["delta-merge exact",
             "OK" if live.get("equals_merged") else "DIVERGED"],
            ["progress lines", live.get("progress_lines", "?")],
            ["partial snapshots", live.get("partial_snapshots", "?")],
        ]
        if live.get("port"):
            rows.append(["http port", live["port"]])
            rows.append(["http requests", live.get("http_requests", "?")])
        sections.append("live telemetry\n" + _format_table(
            ["metric", "value"], rows))

    trace = manifest.get("trace", {})
    if trace.get("spans"):
        where = trace.get("path") or "(not exported; pass --trace-out)"
        sections.append(f"trace: {trace['spans']} spans  {where}")
    return "\n\n".join(sections)
