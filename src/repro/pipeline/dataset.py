"""Public dataset export (Appendix B of the paper).

The paper releases its raw honeypot logs with three transformations:

* destination (honeypot) addresses are anonymized to ``192.168.0.x``,
* honeypot startup messages and internal-monitoring entries are removed,
* logs of all honeypots sharing a configuration are consolidated into a
  single file.

:func:`export_dataset` applies the same transformations to any
iterable of events (the driver hands it a
:class:`~repro.pipeline.sinks.BufferSink`) and writes the dataset
directory, including the README that documents the file/configuration
correspondence.  The consolidated file names are those of the raw logs
(:func:`~repro.pipeline.logstore.consolidated_group_name`).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

from repro.pipeline.logstore import LogEvent, consolidated_group_name

#: Markers of honeypot startup / internal monitoring entries that the
#: published dataset excludes.
INTERNAL_MARKERS = ("honeypot-startup", "monitoring-probe")


@dataclass(frozen=True)
class DatasetManifest:
    """Summary of one export."""

    directory: Path
    files: tuple[str, ...]
    events: int
    anonymized_hosts: int


def anonymize_hosts(events: Iterable[LogEvent]) -> tuple[list[dict],
                                                         dict[str, str]]:
    """Anonymize honeypot identities to ``192.168.0.x`` pseudo-addresses.

    Each distinct honeypot instance receives one pseudo-address, in
    first-seen order; the mapping is returned for bookkeeping but is
    *not* written into the dataset.
    """
    mapping: dict[str, str] = {}
    rows = []
    for event in events:
        pseudo = mapping.get(event.honeypot_id)
        if pseudo is None:
            pseudo = f"192.168.0.{len(mapping) + 1}"
            mapping[event.honeypot_id] = pseudo
        row = json.loads(event.to_json())
        row["dest_ip"] = pseudo
        del row["honeypot_id"]
        rows.append(row)
    return rows, mapping


def is_internal(event: LogEvent) -> bool:
    """Whether an event is honeypot-internal (excluded from release)."""
    if event.raw is None:
        return False
    return any(marker in event.raw for marker in INTERNAL_MARKERS)


def export_dataset(store: Iterable[LogEvent], directory: str | Path
                   ) -> DatasetManifest:
    """Write the anonymized, consolidated dataset to ``directory``.

    ``store`` is any iterable of events -- a
    :class:`~repro.pipeline.sinks.BufferSink` or a plain list.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    public = [event for event in store if not is_internal(event)]
    rows, mapping = anonymize_hosts(public)

    groups: dict[str, list[dict]] = {}
    for row in rows:
        name = consolidated_group_name(row["interaction"], row["dbms"],
                                       row["config"])
        groups.setdefault(name, []).append(row)

    files = []
    for name, group_rows in sorted(groups.items()):
        path = directory / name
        with open(path, "w", encoding="utf-8") as handle:
            for row in group_rows:
                handle.write(json.dumps(row, separators=(",", ":"),
                                        ensure_ascii=False) + "\n")
        files.append(name)

    readme = directory / "README.md"
    readme.write_text(_readme_text(groups), encoding="utf-8")
    files.append("README.md")
    return DatasetManifest(directory=directory, files=tuple(files),
                           events=len(rows),
                           anonymized_hosts=len(mapping))


def load_dataset(directory: str | Path) -> list[dict]:
    """Load every record of an exported dataset."""
    records = []
    for path in sorted(Path(directory).glob("*.jsonl")):
        with open(path, encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if line:
                    records.append(json.loads(line))
    return records


def _readme_text(groups: dict[str, list[dict]]) -> str:
    lines = [
        "# Decoy Databases dataset",
        "",
        "Raw honeypot logs from the 20-day deployment "
        "(March 22 - April 11, 2024 window).",
        "",
        "Destination addresses are anonymized to 192.168.0.x; honeypot",
        "startup messages and internal monitoring entries have been",
        "removed. Logs of all honeypots sharing a configuration are",
        "consolidated into one file, so individual instances within a",
        "configuration cannot be distinguished.",
        "",
        "| File | Interaction | DBMS | Configuration | Events |",
        "|---|---|---|---|---|",
    ]
    for name, rows in sorted(groups.items()):
        first = rows[0]
        lines.append(f"| {name} | {first['interaction']} | "
                     f"{first['dbms']} | {first['config']} | "
                     f"{len(rows)} |")
    return "\n".join(lines) + "\n"
