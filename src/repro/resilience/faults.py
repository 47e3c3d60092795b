"""Deterministic fault injection.

A :class:`FaultPlan` maps *site* names (``"wire.corrupt"``,
``"sqlite.locked"``, ...) to :class:`FaultSpec` firing rules.  Injection
sites across the stack ask the ambient plan whether to misbehave::

    faults.current().maybe_raise("sqlite.locked",
                                 lambda: sqlite3.OperationalError(...))

Mirroring :mod:`repro.obs`, the ambient plan defaults to
:data:`NULL_PLAN`, whose every hook is a no-op -- un-chaosed runs pay
nothing beyond an attribute lookup and an empty method call.  Install a
live plan with :func:`install` (or ``ExperimentConfig.fault_plan``).

Every decision is drawn from a per-site ``random.Random`` seeded with
``f"{plan.seed}:{site}"``, so a fixed seed reproduces the exact same
fault schedule -- chaos runs are replayable bug reports, not flakes.

Known injection sites
---------------------

=================  =========================================================
``wire.corrupt``   flip one byte of a client payload (``MemoryWire.send``)
``wire.truncate``  cut a client payload short (``MemoryWire.send``)
``wire.disconnect`` raise ``WireError`` mid-session (driver wire)
``visit.crash``    raise :class:`InjectedFault` inside a visit script
``sqlite.locked``  raise ``sqlite3.OperationalError: database is locked``
``enrich.lookup``  fail one GeoIP/ASN enrichment lookup
``proc.kill``      SIGKILL one (seeded) shard worker process mid-shard
=================  =========================================================

``proc.kill`` is special: it is only evaluated inside forked shard
workers (serial replay never arms it -- the "worker" is the driver
itself there), the victim shard is chosen by a seeded draw
so the kill is reproducible, and ``repro run --resume`` strips the site
from the adopted plan so a resumed run cannot re-kill itself at the
same visit forever.
"""

from __future__ import annotations

import json
import random
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator, Mapping

from repro import obs


class InjectedFault(RuntimeError):
    """Raised by :meth:`FaultPlan.maybe_raise` when no error factory is
    given; also the canonical "synthetic crash" exception."""


@dataclass(frozen=True)
class FaultSpec:
    """Firing rule for one injection site.

    Attributes
    ----------
    site:
        Injection-site name the rule applies to.
    probability:
        Chance of firing per evaluation, in ``[0, 1]``.
    max_fires:
        Stop firing after this many hits (``None`` = unbounded).  A
        spec like ``probability=1.0, max_fires=2`` models a transient
        failure: the first two attempts fail deterministically, then
        the site heals -- exactly what retry logic needs to prove
        itself.
    start_after:
        Skip this many evaluations before arming, so a fault can hit
        mid-run rather than on the very first call.
    """

    site: str
    probability: float = 1.0
    max_fires: int | None = None
    start_after: int = 0


class FaultPlan:
    """A named, seeded set of fault specs with deterministic decisions."""

    #: True only on :class:`NullFaultPlan`.  Hot paths resolve
    #: ``faults.current()`` once per visit and branch on this flag to
    #: skip per-message ``mangle()``/``maybe_raise()`` calls entirely;
    #: live plans (even empty ones) always get their calls so their
    #: evaluation counters and RNG draw order stay exactly as configured.
    is_noop = False

    def __init__(self, specs: Mapping[str, FaultSpec] | list[FaultSpec],
                 *, seed: int = 0, name: str = "custom"):
        if not isinstance(specs, Mapping):
            specs = {spec.site: spec for spec in specs}
        self.name = name
        self.seed = seed
        self._specs: dict[str, FaultSpec] = dict(specs)
        self._rngs: dict[str, random.Random] = {}
        self._evaluations: dict[str, int] = {}
        self._fires: dict[str, int] = {}
        self._lock = threading.Lock()

    # -- decision ---------------------------------------------------------

    def _rng(self, site: str) -> random.Random:
        rng = self._rngs.get(site)
        if rng is None:
            rng = self._rngs[site] = random.Random(f"{self.seed}:{site}")
        return rng

    def should_fire(self, site: str, *, key: str | None = None) -> bool:
        """Decide (and record) whether the fault at ``site`` fires now.

        Without ``key``, the decision is drawn from the site's shared
        sequential RNG, so the fault schedule depends on evaluation
        order.  With ``key`` the draw comes from a stateless RNG seeded
        ``{plan.seed}:{site}:{key}`` instead: the decision for a given
        unit of work (e.g. one visit, keyed ``{ip}:{seq}``) is the same
        no matter which worker evaluates it or in what order -- the
        property that keeps chaos runs identical between the serial and
        sharded replay engines.  ``start_after``/``max_fires`` budgets
        still consume the shared counters, so order-sensitive specs are
        only stable under serial execution.
        """
        spec = self._specs.get(site)
        if spec is None:
            return False
        with self._lock:
            seen = self._evaluations.get(site, 0)
            self._evaluations[site] = seen + 1
            if seen < spec.start_after:
                return False
            fired = self._fires.get(site, 0)
            if spec.max_fires is not None and fired >= spec.max_fires:
                return False
            if key is not None:
                draw = random.Random(f"{self.seed}:{site}:{key}").random()
            else:
                draw = self._rng(site).random()
            if draw >= spec.probability:
                return False
            self._fires[site] = fired + 1
        obs.current().metrics.inc("faults.injected", site=site)
        return True

    def maybe_raise(self, site: str,
                    error: Callable[[], BaseException] | None = None,
                    *, key: str | None = None) -> None:
        """Raise the site's fault if it fires; no-op otherwise."""
        if self.should_fire(site, key=key):
            raise error() if error is not None else InjectedFault(
                f"injected fault at {site}")

    def mangle(self, family: str, data: bytes) -> bytes:
        """Corrupt and/or truncate ``data`` per the ``{family}.corrupt``
        and ``{family}.truncate`` sites; returns the (possibly) damaged
        payload."""
        if data and self.should_fire(f"{family}.corrupt"):
            rng = self._rng(f"{family}.corrupt")
            index = rng.randrange(len(data))
            flipped = data[index] ^ (1 + rng.randrange(255))
            data = data[:index] + bytes([flipped]) + data[index + 1:]
        if len(data) > 1 and self.should_fire(f"{family}.truncate"):
            data = data[:self._rng(f"{family}.truncate")
                        .randrange(1, len(data))]
        return data

    # -- reads ------------------------------------------------------------

    @property
    def sites(self) -> list[str]:
        """The configured injection sites, sorted."""
        return sorted(self._specs)

    def fires(self, site: str) -> int:
        """How many times ``site`` has fired so far."""
        with self._lock:
            return self._fires.get(site, 0)

    def fires_total(self) -> int:
        """Total fault activations across all sites."""
        with self._lock:
            return sum(self._fires.values())

    def snapshot(self) -> dict:
        """JSON-serializable ``{site: {evaluations, fires}}`` dump."""
        with self._lock:
            return {site: {"evaluations": self._evaluations.get(site, 0),
                           "fires": self._fires.get(site, 0)}
                    for site in sorted(self._specs)}

    # -- sharding support -------------------------------------------------

    def payload(self) -> dict:
        """Picklable description of this plan (specs + seed + name),
        without the runtime counters -- ship it to a worker and rebuild
        with :func:`from_payload`."""
        return {"specs": dict(self._specs), "seed": self.seed,
                "name": self.name}

    def clone(self) -> "FaultPlan":
        """A fresh plan with the same specs/seed and zeroed counters."""
        return from_payload(self.payload())

    def site_options(self) -> dict[str, dict]:
        """JSON-serializable ``{site: {probability, ...}}`` mapping --
        the :func:`plan_from_dict` inverse, recorded in the run journal
        so a resume can rebuild the exact plan."""
        options: dict[str, dict] = {}
        for site, spec in self._specs.items():
            entry: dict = {"probability": spec.probability}
            if spec.max_fires is not None:
                entry["max_fires"] = spec.max_fires
            if spec.start_after:
                entry["start_after"] = spec.start_after
            options[site] = entry
        return options

    def without_site(self, site: str) -> "FaultPlan":
        """A fresh plan (zeroed counters) with ``site`` removed -- how a
        resume disarms ``proc.kill`` from an adopted chaos plan."""
        specs = {name: spec for name, spec in self._specs.items()
                 if name != site}
        return FaultPlan(specs, seed=self.seed, name=self.name)

    def absorb(self, snapshot: Mapping[str, Mapping[str, int]]) -> None:
        """Fold a worker plan's :meth:`snapshot` counters into this
        plan, so one plan object accounts for the whole sharded run."""
        with self._lock:
            for site, stats in snapshot.items():
                self._evaluations[site] = (self._evaluations.get(site, 0)
                                           + stats.get("evaluations", 0))
                self._fires[site] = (self._fires.get(site, 0)
                                     + stats.get("fires", 0))

    def __repr__(self) -> str:
        return (f"FaultPlan(name={self.name!r}, seed={self.seed}, "
                f"sites={self.sites})")


class NullFaultPlan(FaultPlan):
    """The zero-cost default: nothing ever fires."""

    is_noop = True

    def __init__(self) -> None:
        super().__init__({}, name="none")

    def should_fire(self, site: str, *, key: str | None = None) -> bool:
        return False

    def maybe_raise(self, site: str,
                    error: Callable[[], BaseException] | None = None,
                    *, key: str | None = None) -> None:
        pass

    def mangle(self, family: str, data: bytes) -> bytes:
        return data

    def absorb(self, snapshot: Mapping[str, Mapping[str, int]]) -> None:
        # NULL_PLAN is a shared module-level singleton; never let a
        # stray merge accumulate state on it.
        pass


#: The always-available no-op plan.
NULL_PLAN = NullFaultPlan()

_current: FaultPlan = NULL_PLAN


def current() -> FaultPlan:
    """The installed fault plan (no-op unless a chaos run installed one)."""
    return _current


@contextmanager
def install(plan: FaultPlan | None) -> Iterator[FaultPlan]:
    """Make ``plan`` the process-wide :func:`current` plan (``None``
    installs :data:`NULL_PLAN`)."""
    global _current
    previous = _current
    _current = plan if plan is not None else NULL_PLAN
    try:
        yield _current
    finally:
        _current = previous


def from_payload(payload: Mapping) -> FaultPlan:
    """Rebuild a plan from :meth:`FaultPlan.payload` (fresh counters)."""
    return FaultPlan(dict(payload["specs"]), seed=payload["seed"],
                     name=payload["name"])


# -- named plans ----------------------------------------------------------

#: Builtin plans for ``repro chaos --plan <name>``: site -> spec kwargs.
BUILTIN_PLANS: dict[str, dict[str, dict]] = {
    "none": {},
    "wire-corrupt": {
        "wire.corrupt": {"probability": 0.05},
        "wire.truncate": {"probability": 0.02},
    },
    "wire-drop": {
        "wire.disconnect": {"probability": 0.02},
    },
    "visit-crash": {
        "visit.crash": {"probability": 0.01},
    },
    "sqlite-lock": {
        # Transient: the first two insert attempts per run hit a locked
        # database, then the lock clears -- exercising the retry path.
        "sqlite.locked": {"probability": 1.0, "max_fires": 2},
    },
    "enrich-fail": {
        "enrich.lookup": {"probability": 0.05},
    },
    "worker-kill": {
        # SIGKILL one seeded shard worker, once, a little way into its
        # shard -- the kill-resume chaos scenario.  Only armed inside
        # forked workers; see the module docstring.
        "proc.kill": {"probability": 1.0, "max_fires": 1,
                      "start_after": 25},
    },
}
BUILTIN_PLANS["all"] = {
    site: dict(spec)
    # worker-kill stays out of "all": it is a process-level fault that
    # terminates the run rather than stressing a data path.
    for name, sites in BUILTIN_PLANS.items()
    if name not in ("none", "worker-kill")
    for site, spec in sites.items()
}


def plan_from_dict(sites: Mapping[str, Mapping], *, seed: int = 0,
                   name: str = "custom") -> FaultPlan:
    """Build a plan from ``{site: {probability, max_fires, start_after}}``."""
    specs = {}
    for site, options in sites.items():
        unknown = set(options) - {"probability", "max_fires", "start_after"}
        if unknown:
            raise ValueError(f"fault site {site!r}: unknown option(s) "
                             f"{sorted(unknown)}")
        specs[site] = FaultSpec(site=site, **options)
    return FaultPlan(specs, seed=seed, name=name)


def load_plan(name_or_path: str, *, seed: int = 0) -> FaultPlan:
    """Resolve a builtin plan name or a JSON plan file into a plan.

    The JSON format is the :func:`plan_from_dict` mapping.  Raises
    ``ValueError`` for unknown names / malformed files, ``OSError`` for
    unreadable paths.
    """
    builtin = BUILTIN_PLANS.get(name_or_path)
    if builtin is not None:
        return plan_from_dict(builtin, seed=seed, name=name_or_path)
    path = Path(name_or_path)
    if not path.exists():
        raise ValueError(
            f"unknown fault plan {name_or_path!r} (builtin plans: "
            f"{', '.join(sorted(BUILTIN_PLANS))}; or pass a JSON file)")
    try:
        sites = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as error:
        raise ValueError(f"{path} is not valid JSON: {error}") from error
    if not isinstance(sites, dict):
        raise ValueError(f"{path} must contain a JSON object "
                         "{site: {probability, ...}}")
    return plan_from_dict(sites, seed=seed, name=path.stem)
