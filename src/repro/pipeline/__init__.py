"""Data-processing pipeline (Figure 1 of the paper).

Honeypots write structured log events (:mod:`repro.pipeline.logstore`)
into composable sinks (:mod:`repro.pipeline.sinks`: ``BufferSink``
collects them in memory, ``RawLogSink`` writes the consolidated JSONL
raw logs); conversion scripts turn them into queryable SQLite databases
(:mod:`repro.pipeline.convert`), enriching each client IP with GeoIP/ASN
metadata (:mod:`repro.pipeline.enrich`) and tagging institutional
scanners (:mod:`repro.pipeline.institutional`).
"""

from repro.pipeline.logstore import EventType, LogEvent
from repro.pipeline.convert import convert_to_sqlite, read_events
from repro.pipeline.enrich import enrich_events
from repro.pipeline.institutional import InstitutionalScannerList

__all__ = [
    "EventType",
    "LogEvent",
    "convert_to_sqlite",
    "read_events",
    "enrich_events",
    "InstitutionalScannerList",
]
