"""Unit tests for the observability layer (``repro.obs``).

Covers the primitives (ring buffer, structured tracer, metrics
registry), the exporters (Chrome ``trace_event`` JSON, CSV timeline,
metrics sidecar), the ambient-attachment context, the metric derivations
in :class:`~repro.obs.observer.Observer`, and coexistence with the
sanitizer on the shared tracer seam.  The sim-level differential and
property checks live in ``tests/test_golden.py`` and
``tests/test_obs_properties.py``.
"""

import json

import pytest

from repro.config import gm_system, portals_system
from repro.core import PollingConfig, PwwConfig, run_polling, run_pww
from repro.obs import (
    TRACE_SCHEMA_VERSION,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    ObsEvent,
    ObsTracer,
    Observer,
    RingBuffer,
    chrome_trace,
    current_observer,
    use_observer,
    write_chrome_trace,
    write_csv_timeline,
    write_metrics,
)
from repro.sim.trace import MultiTracer, Tracer
from repro.verify import Sanitizer, use_sanitizer

KB = 1024


# ---------------------------------------------------------------- RingBuffer
class TestRingBuffer:
    def test_under_capacity_keeps_order(self):
        ring = RingBuffer(capacity=4)
        for i in range(3):
            ring.append(i)
        assert ring.to_list() == [0, 1, 2]
        assert len(ring) == 3
        assert ring.dropped == 0

    def test_wraparound_keeps_newest_and_counts_dropped(self):
        ring = RingBuffer(capacity=3)
        for i in range(7):
            ring.append(i)
        assert ring.to_list() == [4, 5, 6]
        assert ring.dropped == 4

    def test_wraparound_is_seamless_across_many_laps(self):
        ring = RingBuffer(capacity=5)
        for i in range(23):
            ring.append(i)
            expected = list(range(max(0, i - 4), i + 1))
            assert ring.to_list() == expected

    def test_clear_retains_dropped_count(self):
        ring = RingBuffer(capacity=2)
        for i in range(5):
            ring.append(i)
        ring.clear()
        assert ring.to_list() == []
        assert len(ring) == 0
        assert ring.dropped == 3
        ring.append("x")
        assert ring.to_list() == ["x"]

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            RingBuffer(capacity=0)

    def test_iteration_matches_to_list_across_laps(self):
        ring = RingBuffer(capacity=4)
        for i in range(11):
            ring.append(i)
            assert list(ring) == ring.to_list()

    def test_capacity_one(self):
        ring = RingBuffer(capacity=1)
        ring.append("a")
        ring.append("b")
        assert ring.to_list() == ["b"]
        assert ring.dropped == 1


# ----------------------------------------------------------------- ObsTracer
class TestObsTracer:
    def test_records_events_with_global_sequence(self):
        tr = ObsTracer()
        tr.record(1.0, "a", "x", None)
        tr.record(2.0, "b", "y", (1,))
        tr.record(3.0, "a", "x", None)
        events = tr.events()
        assert [ev.seq for ev in events] == [0, 1, 2]
        assert [ev.kind for ev in events] == ["x", "y", "x"]
        assert events[1].detail == (1,)

    def test_events_merge_across_rings_in_emission_order(self):
        # Interleave two kinds; events() must recover emission order by
        # seq even though storage is per-kind.
        tr = ObsTracer()
        for i in range(6):
            tr.record(float(i), "s", "even" if i % 2 == 0 else "odd", i)
        assert [ev.detail for ev in tr.events()] == [0, 1, 2, 3, 4, 5]

    def test_kernel_stream_off_by_default(self):
        tr = ObsTracer()
        tr.record_kernel(0.5, object())
        assert tr.events() == []

    def test_kernel_stream_opt_in(self):
        tr = ObsTracer(kernel=True)
        tr.record_kernel(0.5, "EV")
        events = tr.events()
        assert len(events) == 1
        assert events[0].kind == "kernel"
        assert events[0].source == "engine"

    def test_counts_include_dropped(self):
        tr = ObsTracer(ring_capacity=2)
        for i in range(5):
            tr.record(float(i), "s", "k", i)
        assert tr.counts() == {"k": 5}
        assert tr.dropped() == {"k": 3}
        assert [ev.detail for ev in tr.of_kind("k")] == [3, 4]

    def test_dropped_omits_zero_entries(self):
        tr = ObsTracer()
        tr.record(0.0, "s", "k", None)
        assert tr.dropped() == {}

    def test_of_kind_unknown_is_empty(self):
        assert ObsTracer().of_kind("nope") == []

    def test_clear_continues_sequence(self):
        tr = ObsTracer()
        tr.record(0.0, "s", "k", None)
        tr.clear()
        tr.record(1.0, "s", "k", None)
        assert tr.events()[0].seq == 1

    def test_dispatch_hook_sees_stored_events_only(self):
        seen = []
        tr = ObsTracer()
        tr.dispatch = seen.append
        tr.record(0.0, "s", "keep", 1)
        tr.record(0.0, "s", "also", 2)
        assert seen == tr.events()


# ------------------------------------------------------------------- metrics
class TestCounter:
    def test_accumulates(self):
        c = Counter("c")
        c.inc()
        c.inc(2)
        c.inc(0.5)
        assert c.value == 3.5
        assert c.to_dict() == 3.5

    def test_negative_increment_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            Counter("c").inc(-1)


class TestGauge:
    def test_watermarks(self):
        g = Gauge("g")
        assert g.to_dict() == {"value": None, "min": None, "max": None}
        for v in (3, -1, 7, 2):
            g.set(v)
        assert g.to_dict() == {"value": 2, "min": -1, "max": 7}

    def test_add_starts_from_zero(self):
        g = Gauge("g")
        g.add(2)
        g.add(-5)
        g.add(1)
        assert g.value == -2
        assert g.min == -3
        assert g.max == 2


class TestHistogram:
    def test_bucket_semantics_value_on_bound_counts_into_bucket(self):
        h = Histogram("h", bounds=[1.0, 10.0])
        h.observe(1.0)     # == bound 0 -> bucket 0
        h.observe(1.5)     # bucket 1
        h.observe(10.0)    # == bound 1 -> bucket 1
        h.observe(99.0)    # overflow
        assert h.counts == [1, 2, 1]
        assert h.count == 4
        assert h.total == pytest.approx(111.5)
        assert h.mean == pytest.approx(111.5 / 4)

    def test_empty_mean_is_zero(self):
        assert Histogram("h", bounds=[1.0]).mean == 0.0

    def test_bounds_required(self):
        with pytest.raises(ValueError, match="no buckets"):
            Histogram("h", bounds=[])

    def test_bounds_must_strictly_increase(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            Histogram("h", bounds=[1.0, 1.0, 2.0])
        with pytest.raises(ValueError, match="strictly increasing"):
            Histogram("h", bounds=[2.0, 1.0])

    def test_to_dict(self):
        h = Histogram("h", bounds=[1.0])
        h.observe(0.5)
        assert h.to_dict() == {
            "bounds": [1.0], "counts": [1, 0],
            "count": 1, "total": 0.5, "mean": 0.5,
        }


class TestMetricsRegistry:
    def test_get_or_create_returns_same_instance(self):
        reg = MetricsRegistry()
        assert reg.counter("a") is reg.counter("a")
        assert reg.gauge("b") is reg.gauge("b")
        assert reg.histogram("c", [1.0]) is reg.histogram("c")

    def test_type_mismatch_is_an_error(self):
        reg = MetricsRegistry()
        reg.counter("a")
        with pytest.raises(TypeError, match="already registered"):
            reg.gauge("a")
        with pytest.raises(TypeError, match="already registered"):
            reg.histogram("a")

    def test_container_protocol(self):
        reg = MetricsRegistry()
        assert "a" not in reg
        assert len(reg) == 0
        reg.counter("a")
        assert "a" in reg
        assert len(reg) == 1

    def test_snapshot_grouped_and_sorted(self):
        reg = MetricsRegistry()
        reg.counter("z.count").inc(2)
        reg.counter("a.count")
        reg.gauge("m.gauge").set(1)
        reg.histogram("h.hist", [1.0]).observe(0.5)
        snap = reg.to_dict()
        assert list(snap) == ["counters", "gauges", "histograms"]
        assert list(snap["counters"]) == ["a.count", "z.count"]
        assert snap["counters"]["z.count"] == 2
        assert snap["gauges"]["m.gauge"]["value"] == 1
        assert snap["histograms"]["h.hist"]["count"] == 1
        assert reg.names() == ["a.count", "h.hist", "m.gauge", "z.count"]

    def test_snapshot_is_json_serializable_and_deterministic(self):
        def build():
            reg = MetricsRegistry()
            reg.counter("b").inc(1)
            reg.counter("a").inc(2)
            reg.gauge("g").set(3)
            reg.histogram("h", [1.0, 2.0]).observe(1.5)
            return json.dumps(reg.to_dict(), sort_keys=True)

        assert build() == build()


# --------------------------------------------------------------- MultiTracer
class TestMultiTracer:
    def test_fans_out_record_and_kernel(self):
        a, b = ObsTracer(kernel=True), ObsTracer(kernel=True)
        multi = MultiTracer([a, b])
        multi.record(1.0, "s", "k", "d")
        multi.record_kernel(2.0, "EV")
        for child in (a, b):
            kinds = [ev.kind for ev in child.events()]
            assert kinds == ["k", "kernel"]

    def test_is_a_tracer(self):
        assert isinstance(MultiTracer([]), Tracer)

    def test_kernel_stream_reaches_only_readers(self):
        kernels = []

        class ClockCheck(Tracer):
            def record_kernel(self, time, event):
                kernels.append(event)

        quiet, check = ObsTracer(), ClockCheck()
        assert not Tracer().reads_kernel and not quiet.reads_kernel
        assert check.reads_kernel and ObsTracer(kernel=True).reads_kernel
        multi = MultiTracer([quiet, check])
        assert multi.reads_kernel
        assert multi.record_kernel == check.record_kernel  # bound directly
        multi.record_kernel(1.0, "EV")
        assert kernels == ["EV"] and quiet.events() == []
        assert not MultiTracer([quiet, Tracer()]).reads_kernel

    def test_nested_multitracer_reads_kernel_of_its_children(self):
        inner = MultiTracer([ObsTracer(kernel=True)])
        outer = MultiTracer([inner, ObsTracer()])
        outer.record_kernel(1.0, "EV")
        assert [ev.kind for ev in inner.children[0].events()] == ["kernel"]

    def test_record_reaches_every_child_in_order(self):
        seen = []

        class Log(Tracer):
            def __init__(self, name):
                self.name = name

            def record(self, time, source, kind, detail=None):
                seen.append((self.name, kind, detail))

        multi = MultiTracer([Log("a"), Log("b")])
        multi.record(1.0, "s", "k")
        assert seen == [("a", "k", None), ("b", "k", None)]
        single = Log("only")
        assert MultiTracer([single]).record == single.record


# ------------------------------------------------------------------- context
class TestContext:
    def test_default_is_none(self):
        assert current_observer() is None

    def test_use_and_nest(self):
        outer, inner = Observer(), Observer()
        with use_observer(outer):
            assert current_observer() is outer
            with use_observer(inner):
                assert current_observer() is inner
            assert current_observer() is outer
        assert current_observer() is None

    def test_none_is_a_no_op(self):
        with use_observer(None) as obs:
            assert obs is None
            assert current_observer() is None

    def test_pops_on_exception(self):
        with pytest.raises(RuntimeError):
            with use_observer(Observer()):
                raise RuntimeError("boom")
        assert current_observer() is None


# ------------------------------------------------------ Observer derivations
def _feed(observer, time_s, source, kind, detail=None):
    observer.tracer.record(time_s, source, kind, detail)


class TestObserverDerivations:
    def test_pww_phase_counters_and_histograms(self):
        obs = Observer()
        _feed(obs, 1.0, "rank0.pww", "pww_phase", (0, 0.4, 0.1, 0.2, 0.3))
        _feed(obs, 2.0, "rank0.pww", "pww_phase", (1, 1.0, 0.2, 0.3, 0.5))
        m = obs.metrics
        assert m.counter("sim.pww.batches").value == 2
        assert m.counter("sim.pww.post_total_s").value == pytest.approx(0.3)
        assert m.counter("sim.pww.work_total_s").value == pytest.approx(0.5)
        assert m.counter("sim.pww.wait_total_s").value == pytest.approx(0.8)
        assert m.histogram("sim.pww.wait_s").count == 2

    def test_poll_hit_miss_accounting(self):
        obs = Observer()
        _feed(obs, 0.0, "rank0.polling", "poll", (0,))
        _feed(obs, 1.0, "rank0.polling", "poll", (3,))
        _feed(obs, 2.0, "rank0.polling", "poll_empty", (40,))
        m = obs.metrics
        assert m.counter("sim.poll.hits").value == 1
        assert m.counter("sim.poll.completions").value == 3
        assert m.counter("sim.poll.misses").value == 41

    def test_request_latency_pairing(self):
        obs = Observer()
        _feed(obs, 1.0, "rank0.mpi.req", "req_post", (7, "recv", 1, 11, 64))
        _feed(obs, 1.0, "rank0.mpi.req", "req_post", (8, "send", 1, 11, 64))
        _feed(obs, 3.5, "rank0.mpi.req", "req_complete", (7, "recv"))
        m = obs.metrics
        assert m.counter("sim.mpi.req_posted").value == 2
        assert m.counter("sim.mpi.req_completed").value == 1
        hist = m.histogram("sim.mpi.req_latency_s")
        assert hist.count == 1
        assert hist.total == pytest.approx(2.5)
        # The unmatched post stays pending, not observed.
        assert 8 in obs._req_posted_at_s

    def test_unmatched_complete_is_ignored(self):
        obs = Observer()
        _feed(obs, 1.0, "rank0.mpi.req", "req_complete", (99, "recv"))
        assert obs.metrics.counter("sim.mpi.req_completed").value == 1
        assert "sim.mpi.req_latency_s" not in obs.metrics

    def test_rendezvous_stall_pairing(self):
        obs = Observer()
        _feed(obs, 2.0, "rank1.portals", "rts_rx", (5,))
        _feed(obs, 2.25, "rank1.portals", "get_issued", (5,))
        m = obs.metrics
        assert m.counter("sim.rndv.rts").value == 1
        assert m.counter("sim.rndv.gets").value == 1
        assert m.histogram("sim.rndv.stall_s").total == pytest.approx(0.25)

    def test_gm_token_gauge(self):
        obs = Observer()
        _feed(obs, 0.0, "node0.gm", "gm_tokens", (0, 5, 8))
        _feed(obs, 1.0, "node0.gm", "gm_tokens", (0, 2, 8))
        g = obs.metrics.gauge("sim.gm.tokens.node0")
        assert g.value == 2
        assert g.min == 2
        assert g.max == 5

    def test_net_counters(self):
        obs = Observer()
        for kind in ("wire_tx", "wire_rx", "wire_drop", "packet_tx", "nic_rx"):
            _feed(obs, 0.0, "link", kind, None)
        for kind in ("wire_tx", "wire_rx", "wire_drop", "packet_tx", "nic_rx"):
            assert obs.metrics.counter(f"sim.net.{kind}").value == 1

    def test_queue_depth_gauge_tracks_watermarks(self):
        obs = Observer()
        src = "rank0.posted"
        for kind in ("q_post", "q_post", "q_post", "q_match", "q_remove"):
            _feed(obs, 0.0, src, kind, None)
        g = obs.metrics.gauge(f"sim.queue.{src}.depth")
        assert g.value == 1
        assert g.max == 3

    def test_unknown_kind_is_ignored(self):
        obs = Observer()
        _feed(obs, 0.0, "s", "no_such_kind", ("x",))
        assert len(obs.metrics) == 0
        assert obs.tracer.counts() == {"no_such_kind": 1}

    def test_summary_mentions_events_and_metrics(self):
        obs = Observer()
        _feed(obs, 0.0, "rank0.polling", "poll", (1,))
        text = obs.summary()
        assert "1 events" in text
        assert "metrics" in text

    def test_to_dict_shape(self):
        obs = Observer(ring_capacity=1)
        _feed(obs, 0.0, "s", "poll", (0,))
        _feed(obs, 1.0, "s", "poll", (0,))
        doc = obs.to_dict()
        assert doc["trace"]["event_counts"] == {"poll": 2}
        assert doc["trace"]["dropped"] == {"poll": 1}
        assert doc["metrics"]["counters"]["sim.poll.misses"] == 2


# ----------------------------------------------------------------- exporters
def _sample_events():
    return [
        ObsEvent(0, 1e-6, "rank0.pww", "pww_phase", (0, 1e-6, 1e-6, 2e-6, 3e-6)),
        ObsEvent(1, 2e-6, "rank0.posted", "q_post", None),
        ObsEvent(2, 3e-6, "rank0.posted", "q_match", None),
        ObsEvent(3, 4e-6, "node0.gm", "gm_tokens", (0, 3, 8)),
        ObsEvent(4, 5e-6, "rank0.polling", "poll", (2,)),
    ]


class TestChromeTrace:
    def test_structure_and_metadata(self):
        doc = chrome_trace(_sample_events(), label="unit")
        assert doc["otherData"]["schema_version"] == TRACE_SCHEMA_VERSION
        meta = [ev for ev in doc["traceEvents"] if ev["ph"] == "M"]
        names = {ev["args"]["name"] for ev in meta
                 if ev["name"] == "thread_name"}
        assert names == {
            "rank0.pww", "rank0.posted", "node0.gm", "rank0.polling"
        }
        assert any(ev["name"] == "process_name"
                   and "unit" in ev["args"]["name"] for ev in meta)

    def test_pww_phase_expands_to_contiguous_slices(self):
        doc = chrome_trace(_sample_events())
        slices = [ev for ev in doc["traceEvents"] if ev["ph"] == "X"]
        assert [s["name"] for s in slices] == ["pww.post", "pww.work", "pww.wait"]
        # Slices tile the batch: each starts where the previous ended.
        assert slices[0]["ts"] == pytest.approx(1.0)       # t0_s in us
        assert slices[0]["dur"] == pytest.approx(1.0)
        assert slices[1]["ts"] == pytest.approx(
            slices[0]["ts"] + slices[0]["dur"])
        assert slices[2]["ts"] == pytest.approx(
            slices[1]["ts"] + slices[1]["dur"])

    def test_queue_events_become_running_counter(self):
        doc = chrome_trace(_sample_events())
        counters = [ev for ev in doc["traceEvents"]
                    if ev["ph"] == "C" and ev["cat"] == "queue"]
        assert [c["args"]["depth"] for c in counters] == [1, 0]

    def test_gm_tokens_become_counter(self):
        doc = chrome_trace(_sample_events())
        gm = [ev for ev in doc["traceEvents"]
              if ev["ph"] == "C" and ev["cat"] == "gm"]
        assert gm[0]["args"]["tokens"] == 3

    def test_other_kinds_become_instants(self):
        doc = chrome_trace(_sample_events())
        instants = [ev for ev in doc["traceEvents"] if ev["ph"] == "i"]
        assert [ev["name"] for ev in instants] == ["poll"]
        assert instants[0]["args"]["detail"] == [2]

    def test_timestamps_are_microseconds(self):
        (ev,) = [e for e in chrome_trace(_sample_events())["traceEvents"]
                 if e["ph"] == "i"]
        assert ev["ts"] == pytest.approx(5.0)

    def test_document_is_json_serializable(self):
        events = [ObsEvent(0, 0.0, "s", "weird", object())]
        doc = chrome_trace(events)
        json.dumps(doc)  # repr-fallback makes arbitrary details safe

    def test_write_chrome_trace_round_trip(self, tmp_path):
        path = write_chrome_trace(_sample_events(), tmp_path / "t.trace.json")
        doc = json.loads(path.read_text())
        assert doc["displayTimeUnit"] == "ms"
        assert len(doc["traceEvents"]) > 0


class TestCsvTimeline:
    def test_round_trip(self, tmp_path):
        path = write_csv_timeline(_sample_events(), tmp_path / "t.csv")
        lines = path.read_text().splitlines()
        assert lines[0] == "seq,time_s,source,kind,detail"
        assert len(lines) == 1 + len(_sample_events())
        # time_s is written with repr so it round-trips exactly.
        first = lines[1].split(",")
        assert float(first[1]) == 1e-6


class TestMetricsSidecar:
    def test_from_registry_with_extra(self, tmp_path):
        reg = MetricsRegistry()
        reg.counter("a").inc(3)
        path = write_metrics(reg, tmp_path / "m.json", extra={"jobs": 2})
        doc = json.loads(path.read_text())
        assert doc["schema_version"] == TRACE_SCHEMA_VERSION
        assert doc["metrics"]["counters"]["a"] == 3
        assert doc["jobs"] == 2

    def test_from_plain_dict(self, tmp_path):
        path = write_metrics({"counters": {}}, tmp_path / "m.json")
        assert json.loads(path.read_text())["metrics"] == {"counters": {}}

    def test_output_is_stable(self, tmp_path):
        reg = MetricsRegistry()
        reg.counter("b").inc()
        reg.counter("a").inc()
        p1 = write_metrics(reg, tmp_path / "m1.json")
        p2 = write_metrics(reg, tmp_path / "m2.json")
        assert p1.read_text() == p2.read_text()


# -------------------------------------------------- world-level integration
class TestObserverOnRealRuns:
    def test_polling_run_derives_poll_economics(self):
        obs = Observer()
        with use_observer(obs):
            pt = run_polling(gm_system(), PollingConfig(
                msg_bytes=10 * KB, poll_interval_iters=1_000,
                measure_s=0.002, warmup_s=0.0005,
            ))
        m = obs.metrics
        hits = m.counter("sim.poll.hits").value
        misses = m.counter("sim.poll.misses").value
        assert hits > 0
        assert hits + misses > 0
        assert m.counter("sim.poll.completions").value >= hits
        assert 0.0 <= pt.availability <= 1.0
        # Queue observers were installed: matching activity was seen.
        assert any(name.startswith("sim.queue.") for name in m.names())

    def test_pww_run_derives_phase_breakdown(self):
        obs = Observer()
        with use_observer(obs):
            run_pww(portals_system(), PwwConfig(
                msg_bytes=32 * KB, work_interval_iters=10_000,
                batches=3, warmup_batches=1,
            ))
        m = obs.metrics
        # warmup + measured batches all traced
        assert m.counter("sim.pww.batches").value == 4
        assert m.counter("sim.mpi.req_posted").value > 0
        # 32 KB > the 16 KB threshold: Portals rendezvous path exercised
        assert m.counter("sim.rndv.rts").value > 0

    def test_observer_and_sanitizer_share_the_seam(self):
        obs, san = Observer(), Sanitizer()
        with use_sanitizer(san), use_observer(obs):
            run_polling(gm_system(), PollingConfig(
                msg_bytes=10 * KB, poll_interval_iters=1_000,
                measure_s=0.002, warmup_s=0.0005,
            ))
        # Sanitizer still validates (queue hooks chained, not replaced) …
        assert san.finalize() == []
        # … and the observer captured the run.
        assert obs.metrics.counter("sim.poll.hits").value > 0
        assert any(n.startswith("sim.queue.") for n in obs.metrics.names())

    def test_detached_run_records_nothing(self):
        obs = Observer()
        run_polling(gm_system(), PollingConfig(
            msg_bytes=10 * KB, poll_interval_iters=1_000,
            measure_s=0.002, warmup_s=0.0005,
        ))
        assert obs.tracer.events() == []
        assert len(obs.metrics) == 0

    def test_chrome_export_of_real_run_is_valid(self, tmp_path):
        obs = Observer()
        with use_observer(obs):
            run_pww(gm_system(), PwwConfig(
                msg_bytes=10 * KB, work_interval_iters=10_000,
                batches=3, warmup_batches=1,
            ))
        path = write_chrome_trace(obs.events(), tmp_path / "pww.trace.json")
        doc = json.loads(path.read_text())
        phases = {ev["ph"] for ev in doc["traceEvents"]}
        assert "X" in phases  # pww slices present
        assert "M" in phases
        # Every event references a declared thread.
        tids = {ev["tid"] for ev in doc["traceEvents"] if ev["ph"] == "M"}
        assert {ev["tid"] for ev in doc["traceEvents"]} <= tids
