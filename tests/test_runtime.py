"""Tests for the run-scoped ambient context (telemetry + faults) and
the merge/absorb machinery sharded replay workers rely on."""

import threading

from repro import obs
from repro.obs.metrics import MetricsRegistry
from repro.resilience import faults
from repro.runtime import RunContext, worker_context


class TestMetricsMerge:
    def test_counters_add_and_gauges_take_max(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.inc("events", 3, dbms="redis")
        b.inc("events", 4, dbms="redis")
        b.inc("events", 5, dbms="mysql")
        a.set_gauge("open", 2)
        b.set_gauge("open", 7)
        a.merge(b)
        assert a.counter_value("events", dbms="redis") == 7
        assert a.counter_value("events", dbms="mysql") == 5
        assert a.gauge_value("open") == 7

    def test_histograms_combine_statistics(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        for value in (1.0, 2.0):
            a.observe("latency", value)
        for value in (0.5, 8.0):
            b.observe("latency", value)
        a.merge(b.snapshot())
        histogram = a.histogram("latency")
        assert histogram.count == 4
        assert histogram.total == 11.5
        assert histogram.min == 0.5
        assert histogram.max == 8.0

    def test_merge_accepts_snapshot_dict(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        b.inc("n", 2)
        a.merge(b.snapshot())
        assert a.counter_value("n") == 2


class TestFaultPlanSharding:
    def plan(self, **spec_kwargs):
        return faults.FaultPlan(
            [faults.FaultSpec("visit.crash", **spec_kwargs)],
            seed=11, name="test")

    def test_payload_round_trip_resets_counters(self):
        plan = self.plan(probability=1.0)
        assert plan.should_fire("visit.crash", key="a:0")
        clone = faults.from_payload(plan.payload())
        assert clone.name == plan.name and clone.seed == plan.seed
        assert clone.fires_total() == 0
        assert clone.sites == plan.sites

    def test_keyed_decisions_are_order_independent(self):
        keys = [f"10.0.0.{i}:{j}" for i in range(40) for j in range(3)]
        first = self.plan(probability=0.3)
        forward = [key for key in keys
                   if first.should_fire("visit.crash", key=key)]
        second = self.plan(probability=0.3)
        backward = [key for key in reversed(keys)
                    if second.should_fire("visit.crash", key=key)]
        assert sorted(forward) == sorted(backward)
        assert 0 < len(forward) < len(keys)

    def test_absorb_sums_worker_counters(self):
        parent = self.plan(probability=1.0)
        workers = [parent.clone() for _ in range(3)]
        for index, worker in enumerate(workers):
            for j in range(index + 1):
                worker.should_fire("visit.crash", key=f"w{index}:{j}")
        for worker in workers:
            parent.absorb(worker.snapshot())
        stats = parent.snapshot()["visit.crash"]
        assert stats["evaluations"] == 1 + 2 + 3
        assert stats["fires"] == 1 + 2 + 3
        assert parent.fires_total() == 6

    def test_null_plan_never_absorbs_state(self):
        faults.NULL_PLAN.absorb({"visit.crash": {"evaluations": 5,
                                                 "fires": 5}})
        assert faults.NULL_PLAN.fires_total() == 0


class TestThreadLocalInstall:
    def test_local_telemetry_shadows_global_on_one_thread(self):
        shared = obs.Telemetry(enabled=True)
        local = obs.Telemetry(enabled=True)
        seen = {}

        def worker():
            with obs.install_local(local):
                obs.current().metrics.inc("n")
                seen["inside"] = obs.current()
            seen["after"] = obs.current()

        with obs.install(shared):
            thread = threading.Thread(target=worker)
            thread.start()
            thread.join()
            assert obs.current() is shared
        assert seen["inside"] is local
        assert seen["after"] is shared
        assert local.metrics.counter_value("n") == 1
        assert shared.metrics.counter_value("n") == 0


class TestRunContext:
    def test_activate_installs_both_halves(self):
        context = RunContext(
            telemetry=obs.Telemetry(enabled=True),
            fault_plan=faults.FaultPlan(
                [faults.FaultSpec("visit.crash", probability=1.0)],
                seed=2))
        with context.activate():
            assert obs.current() is context.telemetry
            assert faults.current() is context.fault_plan
        assert obs.current() is obs.NULL_TELEMETRY
        assert faults.current() is faults.NULL_PLAN

    def test_defaults_are_null_implementations(self):
        context = RunContext()
        assert context.telemetry is obs.NULL_TELEMETRY
        assert context.fault_plan is faults.NULL_PLAN

    def test_report_and_absorb_round_trip(self):
        worker = worker_context(True, {"specs": {
            "visit.crash": faults.FaultSpec("visit.crash",
                                            probability=1.0)},
            "seed": 3, "name": "chaos"})
        with worker.activate():
            obs.current().metrics.inc("replay.visits", 7)
            faults.current().should_fire("visit.crash", key="a:0")
        report = worker.report()
        assert report["metrics"]["counters"]
        assert report["faults"]["visit.crash"]["fires"] == 1

        driver = RunContext(
            telemetry=obs.Telemetry(enabled=True),
            fault_plan=faults.FaultPlan(
                [faults.FaultSpec("visit.crash", probability=1.0)],
                seed=3, name="chaos"))
        driver.absorb(report)
        assert driver.telemetry.metrics.counter_value(
            "replay.visits") == 7
        assert driver.fault_plan.fires("visit.crash") == 1

    def test_worker_context_disables_tracing(self):
        worker = worker_context(True, None)
        assert worker.telemetry.enabled
        assert isinstance(worker.telemetry.tracer, obs.NullTracer)
        assert worker.fault_plan is faults.NULL_PLAN

    def test_disabled_worker_reports_no_metrics(self):
        worker = worker_context(False, None)
        assert worker.report()["metrics"] is None
