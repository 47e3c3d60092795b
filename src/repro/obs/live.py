"""The live operations plane: streaming shard telemetry + HTTP surface.

Three cooperating pieces turn a multi-hour ``repro run --workers N``
from a black box into something watchable while it runs:

* **Metric deltas.**  Each replay worker owns a private
  :class:`~repro.obs.metrics.MetricsRegistry`; a :class:`ShardEmitter`
  computes the *delta* since its previous one (:func:`snapshot_delta`)
  at most every ``interval`` seconds, and the delta rides the shard's
  next outcome message to the driver (see
  :mod:`repro.deployment.replay`).  The driver's merge loop folds every
  delta into a :class:`LiveAggregator` via
  :meth:`MetricsRegistry.merge` -- counters and histogram deltas are
  additive, so the live aggregate converges to exactly the end-of-run
  merged registry (gauges fold by ``max``, the same order-independent
  rule ``merge`` uses).
* **Exposition.**  :class:`LiveOpsServer` is an in-process HTTP
  listener serving ``/metrics`` (Prometheus text, rendered from any
  snapshot source) and ``/healthz`` (JSON from a health callable);
  ``repro serve`` points it at the supervisor's per-honeypot listener
  state, ``repro run --live-port`` at the live aggregate.
* **Progress.**  The aggregator keeps per-shard visits, events and
  done flags as the driver receives the outcomes, so ``/healthz`` shows
  how far each shard got; the driver loop prints progress lines and
  refreshes the partial manifest from its own tallies.

Everything here observes registries that replay fills anyway; nothing
touches visit replay, so live telemetry cannot change event streams
(asserted by the sharded-equality tests).
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable

from repro.obs.exposition import render_prometheus
from repro.obs.metrics import MetricsRegistry

__all__ = [
    "LiveAggregator", "LiveOpsServer", "ShardEmitter",
    "counters_equal", "snapshot_delta",
]


# -- delta computation ------------------------------------------------------

def _label_key(entry: dict) -> tuple:
    return (entry["name"], tuple(sorted(entry["labels"].items())))


def snapshot_delta(previous: dict | None, current: dict) -> dict:
    """The registry change between two :meth:`MetricsRegistry.snapshot`
    dumps of the *same* registry, in snapshot form.

    Counters and histograms are monotonic, so their delta is a plain
    difference (series with no change are dropped); merging every
    successive delta therefore reconstructs the final snapshot exactly.
    Gauges are state, not accumulation: the delta carries their current
    values and the aggregate folds them with ``merge``'s max rule.
    """
    if previous is None:
        return current
    delta: dict = {"counters": [], "gauges": current.get("gauges", []),
                   "histograms": []}
    seen = {_label_key(entry): entry["value"]
            for entry in previous.get("counters", [])}
    for entry in current.get("counters", []):
        change = entry["value"] - seen.get(_label_key(entry), 0)
        if change:
            delta["counters"].append({**entry, "value": change})

    prior = {_label_key(entry): entry
             for entry in previous.get("histograms", [])}
    for entry in current.get("histograms", []):
        before = prior.get(_label_key(entry))
        if before is None:
            delta["histograms"].append(entry)
            continue
        count = entry["count"] - before["count"]
        if not count:
            continue
        old_buckets = {bucket["le"]: bucket["count"]
                       for bucket in before.get("buckets", [])}
        buckets = []
        for bucket in entry.get("buckets", []):
            change = bucket["count"] - old_buckets.get(bucket["le"], 0)
            if change:
                buckets.append({"le": bucket["le"], "count": change})
        delta["histograms"].append({
            "name": entry["name"], "labels": entry["labels"],
            "count": count, "sum": entry["sum"] - before["sum"],
            # min/max are current cumulative extrema; merge keeps
            # min-of-mins / max-of-maxes, so folding them is exact.
            "min": entry.get("min"), "max": entry.get("max"),
            "buckets": buckets,
        })
    return delta


def counters_equal(left: dict, right: dict) -> bool:
    """Whether two snapshots agree on every counter and histogram.

    The live-vs-merged invariant: gauges are excluded because a live
    aggregate legitimately keeps the max *over time* while an
    end-of-run merge keeps the max of *final* values.
    """
    def additive(snapshot: dict) -> tuple:
        counters = sorted(
            (entry["name"], tuple(sorted(entry["labels"].items())),
             entry["value"])
            for entry in snapshot.get("counters", []))
        histograms = sorted(
            (entry["name"], tuple(sorted(entry["labels"].items())),
             entry["count"], round(entry["sum"], 9),
             tuple(sorted((bucket["le"], bucket["count"])
                          for bucket in entry.get("buckets", []))))
            for entry in snapshot.get("histograms", []))
        return (counters, histograms)

    return additive(left) == additive(right)


# -- worker side ------------------------------------------------------------

class ShardEmitter:
    """Worker-side delta bookkeeping for one shard's registry.

    :meth:`take` returns the registry change since the previous delta
    once ``interval`` seconds have passed since it (always when
    ``final``), else ``None``; the caller ships it with its outcomes.
    """

    def __init__(self, registry: MetricsRegistry, interval: float,
                 now: float):
        self.registry = registry
        self.interval = interval
        self._last = now
        self._previous: dict | None = None

    def take(self, now: float, *, final: bool = False) -> dict | None:
        if not final and now - self._last < self.interval:
            return None
        current = self.registry.snapshot()
        delta = snapshot_delta(self._previous, current)
        self._previous, self._last = current, now
        return delta


# -- parent side ------------------------------------------------------------

class LiveAggregator:
    """Folds shard deltas into one live registry + progress table."""

    def __init__(self) -> None:
        self.registry = MetricsRegistry()
        self._lock = threading.Lock()
        self.shards: dict[int, dict] = {}

    def fold(self, message: dict) -> None:
        self.registry.merge(message.get("metrics") or {})
        with self._lock:
            self.shards[message["shard"]] = {
                "visits": message.get("visits", 0),
                "events": message.get("events", 0),
                "emissions": message.get("seq", 0),
                "done": bool(message.get("done")),
            }

    def progress(self) -> dict:
        """Totals across every shard heard from so far."""
        with self._lock:
            shards = {shard: dict(state)
                      for shard, state in self.shards.items()}
        return {
            "shards_reporting": len(shards),
            "shards_done": sum(1 for s in shards.values() if s["done"]),
            "visits": sum(s["visits"] for s in shards.values()),
            "events": sum(s["events"] for s in shards.values()),
            "emissions": sum(s["emissions"] for s in shards.values()),
            "per_shard": shards,
        }

    def snapshot(self) -> dict:
        return self.registry.snapshot()


# -- HTTP exposition --------------------------------------------------------

class LiveOpsServer:
    """In-process HTTP listener serving ``/metrics`` and ``/healthz``.

    ``metrics_source`` returns a registry snapshot (rendered as
    Prometheus text); ``health_source`` returns a JSON-serializable
    dict whose top-level ``"status"`` of ``"ok"`` maps to HTTP 200 and
    anything else to 503, so load balancers and uptime probes can use
    the endpoint unmodified.  Runs on a daemon thread; request logging
    is suppressed (the ops log is the record of note, not httpd noise).
    """

    def __init__(self, metrics_source: Callable[[], dict],
                 health_source: Callable[[], dict], *,
                 host: str = "127.0.0.1", port: int = 0):
        outer = self

        class Handler(BaseHTTPRequestHandler):
            def do_GET(self) -> None:  # noqa: N802 (stdlib casing)
                try:
                    if self.path.split("?", 1)[0] == "/metrics":
                        body = render_prometheus(
                            outer.metrics_source()).encode("utf-8")
                        content_type = ("text/plain; version=0.0.4; "
                                        "charset=utf-8")
                        status = 200
                    elif self.path.split("?", 1)[0] == "/healthz":
                        health = outer.health_source()
                        body = (json.dumps(health, indent=2,
                                           sort_keys=True, default=str)
                                + "\n").encode("utf-8")
                        content_type = "application/json"
                        status = (200 if health.get("status") == "ok"
                                  else 503)
                    else:
                        body = b"not found\n"
                        content_type = "text/plain"
                        status = 404
                except Exception as error:  # surface, don't kill thread
                    body = f"error: {error}\n".encode("utf-8")
                    content_type = "text/plain"
                    status = 500
                outer.requests += 1
                self.send_response(status)
                self.send_header("Content-Type", content_type)
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, format: str, *args) -> None:
                pass

        self.metrics_source = metrics_source
        self.health_source = health_source
        self.requests = 0
        self._httpd = ThreadingHTTPServer((host, port), Handler)
        self._httpd.daemon_threads = True
        self.host = host
        self.port = self._httpd.server_address[1]
        self._thread: threading.Thread | None = None

    def start(self) -> int:
        """Begin serving; returns the bound port."""
        if self._thread is None:
            self._thread = threading.Thread(
                target=self._httpd.serve_forever,
                name="live-ops-http", daemon=True)
            self._thread.start()
        return self.port

    def close(self) -> None:
        if self._thread is not None:
            self._httpd.shutdown()
            self._thread.join()
            self._thread = None
        self._httpd.server_close()
