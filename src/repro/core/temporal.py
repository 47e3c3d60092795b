"""Temporal traffic series (Figures 2 and 6-9).

Hourly client counts and the cumulative number of previously unseen
source IPs over the deployment window, computed from the columnar event
form served by :class:`repro.core.store.AnalysisStore` -- vectorized
over the timestamp array and the dictionary-encoded source-IP column
instead of a Python loop over raw rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.store import AnalysisStore, ColumnarEvents

_HOUR = 3600.0

#: The ``events`` columns :func:`series_from_columns` reads.
SERIES_COLUMNS = ("timestamp", "src_ip")


@dataclass(frozen=True)
class TemporalSeries:
    """Hourly activity series for one traffic slice."""

    label: str
    #: clients_per_hour[h] = distinct IPs connecting in hour h.
    clients_per_hour: tuple[int, ...]
    #: cumulative_new[h] = unique IPs seen in hours 0..h.
    cumulative_new: tuple[int, ...]

    @property
    def hours(self) -> int:
        return len(self.clients_per_hour)

    @property
    def total_unique(self) -> int:
        return self.cumulative_new[-1] if self.cumulative_new else 0

    def mean_clients_per_hour(self) -> float:
        """Average distinct clients per hour (the paper: ~50)."""
        if not self.clients_per_hour:
            return 0.0
        return sum(self.clients_per_hour) / len(self.clients_per_hour)

    def mean_new_per_hour(self) -> float:
        """Average previously-unseen clients per hour (the paper: ~7)."""
        if not self.cumulative_new:
            return 0.0
        return self.total_unique / len(self.cumulative_new)


def series_from_columns(columns: "ColumnarEvents",
                        label: str) -> TemporalSeries:
    """Compute one hourly series from a columnar event slice."""
    if not columns.n:
        return TemporalSeries(label, (), ())
    timestamps = columns.timestamps  # sorted ascending
    start = float(timestamps[0])
    hours = int((float(timestamps[-1]) - start) // _HOUR) + 1
    hour = ((timestamps - start) // _HOUR).astype(np.int64)
    codes = columns.src_ip.codes.astype(np.int64)
    span = int(codes.max()) + 1
    # Distinct IPs per hour: unique (hour, ip) pairs, bucketed by hour.
    pairs = np.unique(hour * span + codes)
    clients_per_hour = np.bincount(pairs // span, minlength=hours)
    # Previously-unseen IPs per hour: each IP counts once, in the hour
    # of its first occurrence (np.unique returns first-occurrence
    # indices for the stream order because timestamps are sorted).
    _, first_seen = np.unique(codes, return_index=True)
    new_counts = np.bincount(hour[first_seen], minlength=hours)
    return TemporalSeries(
        label,
        tuple(int(count) for count in clients_per_hour),
        tuple(int(count) for count in np.cumsum(new_counts)))


def hourly_series(source: "str | Path | AnalysisStore", *,
                  interaction: str | None = None,
                  dbms: str | None = None,
                  label: str | None = None) -> TemporalSeries:
    """Compute the Figure 2 series for one traffic slice.

    ``source`` is a converted database path or an
    :class:`~repro.core.store.AnalysisStore`; filters are pushed down
    into the scan (or served from the store's columnar load).
    """
    from repro.core.store import borrow_store

    with borrow_store(source) as store:
        return store.hourly_series(interaction=interaction, dbms=dbms,
                                   label=label)


def per_dbms_series(source: "str | Path | AnalysisStore", *,
                    interaction: str = "low",
                    ) -> dict[str, TemporalSeries]:
    """Figures 6-9: one series per DBMS."""
    from repro.core.store import borrow_store

    with borrow_store(source) as store:
        return store.per_dbms_series(interaction=interaction)
