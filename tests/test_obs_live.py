"""Tests: live sweep telemetry (stream schema, channel, hub, ``top``).

The telemetry contract under test, in order of importance:

1. **Honest loss** — a saturated queue drops events but *counts* them,
   per kind per process, and later lifecycle events carry the counts.
2. **Crash visibility** — a worker killed mid-point surfaces as a
   heartbeat-loss stall naming the lost pid, and the run still
   completes with a final report.
3. **Bit-identity** — attaching a channel never changes simulated
   results, serial or pooled.
"""

import io
import json
import multiprocessing
import os
import time

import pytest

from repro.config import gm_system
from repro.core import PointTask, PollingConfig, SweepExecutor
from repro.obs import chrome_trace
from repro.obs.context import use_observer
from repro.obs.export import EXECUTOR_PID
from repro.obs.live import (
    TELEMETRY_SCHEMA_VERSION,
    TelemetryChannel,
    arm_worker,
    attach_engine_probe,
    disarm_worker,
    make_event,
    note_point_end,
    note_point_start,
    pool_worker_init,
    validate_stream_event,
    validate_stream_line,
    worker_armed,
)
from repro.obs import live_consumers
from repro.obs.live_consumers import (
    CostModel,
    ProgressRenderer,
    StreamWriter,
    SweepState,
    TelemetryHub,
    load_stream_state,
    render_top,
    run_top,
)
from repro.obs.observer import Observer

KB = 1024

#: Fast-but-real polling points (distinct intervals → distinct keys).
TASKS = [
    PointTask("polling", gm_system(), PollingConfig(
        msg_bytes=10 * KB, poll_interval_iters=interval,
        measure_s=0.002, warmup_s=0.0005, min_cycles=2,
    ))
    for interval in (1_000, 10_000, 100_000)
]


@pytest.fixture(autouse=True)
def _disarmed():
    """Never leak an armed parent emitter into another test."""
    disarm_worker()
    yield
    disarm_worker()


def _point_start_fields():
    return {"system": "GM", "msg_bytes": 10 * KB, "interval_iters": 1_000}


def _drain_all(channel, timeout_s=2.0):
    """Every event currently reachable in the queue (feeder-thread safe)."""
    events = []
    deadline_s = time.time() + timeout_s
    while time.time() < deadline_s:
        doc = channel.drain(timeout_s=0.05)
        if doc is None:
            break
        events.append(doc)
    return events


# ------------------------------------------------------------- stream schema
class TestStreamSchema:
    def test_all_emitted_kinds_validate(self):
        samples = {
            "run_start": dict(run_id="r", cmd="figures", jobs=2),
            "figure_start": dict(figure="fig04"),
            "figure_end": dict(figure="fig04", wall_s=1.0),
            "batch": dict(n_tasks=4, n_hits=1, n_pending=3),
            "point_cached": dict(key="k", method="polling", system="GM",
                                 outcome="hit"),
            "point_start": dict(key="k", method="polling", system="GM",
                                msg_bytes=1024, interval_iters=10),
            "point_end": dict(key="k", method="polling", wall_s=0.1,
                              dropped={}),
            "heartbeat": dict(sim_now_s=0.5, events_processed=10,
                              points_done=1, current_key=None, dropped={}),
            "stall": dict(key="k", elapsed_s=9.0, predicted_s=1.0,
                          factor=9.0),
            "progress": dict(done=1, cached=2, running=1, eta_s=4.0),
            "run_end": dict(wall_s=3.0, done=4, cached=2, stalls=0,
                            dropped={}),
        }
        for kind, fields in samples.items():
            doc = make_event(kind, **fields)
            assert validate_stream_event(doc) == [], kind
            assert doc["v"] == TELEMETRY_SCHEMA_VERSION
            assert doc["pid"] == os.getpid()

    def test_missing_declared_field_rejected(self):
        doc = make_event("point_end", key="k", method="polling", wall_s=0.1)
        assert any("dropped" in e for e in validate_stream_event(doc))

    def test_unknown_kind_rejected(self):
        doc = make_event("telepathy")
        assert any("unknown event kind" in e for e in
                   validate_stream_event(doc))

    def test_wrong_version_rejected(self):
        doc = make_event("figure_start", figure="fig04")
        doc["v"] = TELEMETRY_SCHEMA_VERSION + 1
        assert any("schema version" in e for e in validate_stream_event(doc))

    def test_non_numeric_numeric_field_rejected(self):
        doc = make_event("figure_end", figure="fig04", wall_s="fast")
        assert any("not a number" in e for e in validate_stream_event(doc))

    def test_dropped_must_be_object(self):
        doc = make_event("point_end", key="k", method="polling", wall_s=0.1,
                         dropped=3)
        assert any("'dropped'" in e for e in validate_stream_event(doc))

    def test_unknown_extra_fields_are_legal(self):
        doc = make_event("figure_start", figure="fig04",
                         future_field="anything")
        assert validate_stream_event(doc) == []

    def test_line_validator_flags_garbage(self):
        assert validate_stream_line("{ not json") != []
        good = json.dumps(make_event("figure_start", figure="fig04"))
        assert validate_stream_line(good) == []


# ------------------------------------------------------------------ channel
class TestTelemetryChannel:
    def test_emit_drain_round_trip(self):
        channel = TelemetryChannel(capacity=8)
        try:
            assert channel.emit("figure_start", figure="fig04")
            doc = channel.drain(timeout_s=2.0)
            assert doc is not None and doc["kind"] == "figure_start"
            assert validate_stream_event(doc) == []
        finally:
            channel.close()

    def test_saturation_drops_are_counted_per_kind(self):
        channel = TelemetryChannel(capacity=2)
        try:
            delivered = sum(
                channel.emit_nowait("heartbeat", sim_now_s=0.0,
                                    events_processed=0, points_done=0,
                                    current_key=None, dropped={})
                for _ in range(6)
            )
            assert delivered == 2
            assert channel.dropped == {"heartbeat": 4}
            # Drops free no capacity retroactively: both survivors drain.
            assert len(_drain_all(channel)) == 2
        finally:
            channel.close()

    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            TelemetryChannel(capacity=0)


# -------------------------------------------------------------- worker side
class TestWorkerEmitter:
    def test_unarmed_notes_are_no_ops(self):
        assert not worker_armed()
        note_point_start("k", "polling", _point_start_fields())
        note_point_end("k", "polling", 0.1)  # must not raise

    def test_lifecycle_events_flow(self):
        channel = TelemetryChannel(capacity=16)
        try:
            arm_worker(channel.queue, heartbeat_s=0)  # no heartbeat thread
            note_point_start("k1", "polling", _point_start_fields())
            note_point_end("k1", "polling", 0.25)
            events = _drain_all(channel)
            assert [e["kind"] for e in events] == ["point_start", "point_end"]
            start, end = events
            assert start["key"] == "k1" and start["system"] == "GM"
            assert end["wall_s"] == 0.25 and end["points_done"] == 1
            assert end["dropped"] == {}
            for doc in events:
                assert validate_stream_event(doc) == []
        finally:
            disarm_worker()
            channel.close()

    def test_saturated_queue_drops_reported_in_next_point_end(self):
        channel = TelemetryChannel(capacity=1)
        try:
            arm_worker(channel.queue, heartbeat_s=0)
            note_point_start("k1", "polling", _point_start_fields())
            # Queue full: this point_end blocks briefly, then drops.
            note_point_end("k1", "polling", 0.1)
            assert _drain_all(channel)[0]["kind"] == "point_start"
            # The next delivered lifecycle event confesses the loss.
            note_point_start("k2", "polling", _point_start_fields())
            _drain_all(channel)
            note_point_end("k2", "polling", 0.1)
            end = _drain_all(channel)[0]
            assert end["kind"] == "point_end"
            assert end["dropped"] == {"point_end": 1}
            assert end["points_done"] == 2
        finally:
            disarm_worker()
            channel.close()

    def test_heartbeats_sample_the_probed_engine(self):
        class FakeEngine:
            now = 0.125
            events_processed = 4242

        channel = TelemetryChannel(capacity=64)
        try:
            arm_worker(channel.queue, heartbeat_s=0.02)
            attach_engine_probe(FakeEngine())
            note_point_start("k1", "polling", _point_start_fields())
            time.sleep(0.15)
            disarm_worker()
            beats = [e for e in _drain_all(channel)
                     if e["kind"] == "heartbeat"]
            assert beats, "no heartbeats in 0.15s at 0.02s period"
            probed = [b for b in beats if b["sim_now_s"] is not None]
            assert probed, "no heartbeat sampled the attached engine"
            assert probed[-1]["sim_now_s"] == pytest.approx(0.125)
            assert probed[-1]["events_processed"] == 4242
            assert probed[-1]["current_key"] == "k1"
            for doc in beats:
                assert validate_stream_event(doc) == []
        finally:
            disarm_worker()
            channel.close()

    def test_probe_is_a_no_op_unarmed(self):
        attach_engine_probe(object())  # must not raise, must not arm
        assert not worker_armed()


# ---------------------------------------------------------------- cost model
class TestCostModel:
    def test_per_method_mean_with_global_fallback(self):
        model = CostModel()
        assert model.predicted_s("polling") is None
        model.observe("polling", 1.0)
        model.observe("polling", 3.0)
        assert model.predicted_s("polling") == pytest.approx(2.0)
        # Unknown method falls back to the global mean.
        assert model.predicted_s("pww") == pytest.approx(2.0)

    def test_eta_scales_with_lanes(self):
        model = CostModel()
        model.observe("polling", 2.0)
        assert model.eta_s(4, jobs=1) == pytest.approx(8.0)
        assert model.eta_s(4, jobs=4) == pytest.approx(2.0)
        assert model.eta_s(0, jobs=1) == 0.0
        assert CostModel().eta_s(4, jobs=1) is None


# -------------------------------------------------------------- state folding
class TestSweepState:
    def test_fold_full_lifecycle(self):
        state = SweepState()
        for doc in [
            make_event("run_start", run_id="r1", cmd="figures", jobs=2),
            make_event("batch", n_tasks=3, n_hits=1, n_pending=2),
            make_event("point_cached", key="kc", method="polling",
                       system="GM", outcome="hit"),
            make_event("point_start", key="k1", method="polling",
                       system="GM", msg_bytes=1, interval_iters=1),
            make_event("heartbeat", sim_now_s=0.5, events_processed=7,
                       points_done=0, current_key="k1",
                       dropped={"heartbeat": 2}),
            make_event("point_end", key="k1", method="polling", wall_s=0.1,
                       points_done=1, dropped={"heartbeat": 3}),
            make_event("run_end", wall_s=1.0, done=1, cached=1, stalls=0,
                       dropped={"progress": 1, "heartbeat": 3}),
        ]:
            state.apply(doc)
        assert (state.run_id, state.cmd, state.jobs) == ("r1", "figures", 2)
        assert (state.tasks, state.cached, state.done) == (3, 1, 1)
        assert state.pending == 1
        assert state.finished and state.wall_s == pytest.approx(1.0)
        worker = state.workers[os.getpid()]
        assert worker.points_done == 1 and worker.current_key is None
        # Latest per-pid drop snapshot wins (cumulative counts).
        assert state.worker_dropped[os.getpid()] == {"heartbeat": 3}

    def test_total_dropped_merges_parent_and_workers(self):
        state = SweepState()
        state.parent_dropped = {"heartbeat": 2}
        state.worker_dropped = {10: {"heartbeat": 1, "point_end": 1},
                                11: {"heartbeat": 4}}
        assert state.total_dropped() == {"heartbeat": 7, "point_end": 1}


# ----------------------------------------------------------- stall detection
def _stamped(kind, t_wall_s, pid=9999, **fields):
    doc = make_event(kind, **fields)
    doc["t_wall_s"] = t_wall_s
    doc["pid"] = pid
    return doc


class TestHubStallDetection:
    """Deterministic stall logic via an injected clock (no sleeping)."""

    def _hub(self, fake_now, heartbeat_s=0.5):
        channel = TelemetryChannel(capacity=8, heartbeat_s=heartbeat_s)
        hub = TelemetryHub(channel, consumers=[], stall_floor_s=1.0,
                           clock=lambda: fake_now[0])
        return channel, hub

    def test_slow_point_flagged_once_against_prediction(self):
        fake_now = [100.0]
        channel, hub = self._hub(fake_now)
        try:
            hub._handle(_stamped("point_end", 100.0, key="k0",
                                 method="polling", wall_s=1.0, dropped={}))
            hub._handle(_stamped("point_start", 100.0, key="k1",
                                 method="polling", system="GM",
                                 msg_bytes=1, interval_iters=1))
            fake_now[0] = 109.0  # 9s elapsed > 8 × 1.0s predicted
            # A fresh heartbeat keeps the worker alive: slow, not lost.
            hub._handle(_stamped("heartbeat", 108.9, sim_now_s=0.1,
                                 events_processed=1, points_done=1,
                                 current_key="k1", dropped={}))
            hub._check_stalls()
            hub._check_stalls()  # flagged once, not per check
            assert len(hub.state.stalls) == 1
            stall = hub.state.stalls[0]
            assert stall["key"] == "k1"
            assert stall["factor"] == pytest.approx(9.0)
            assert "lost_pid" not in stall
            assert hub.state.running["k1"].stalled
        finally:
            channel.close()

    def test_below_floor_never_flagged(self):
        fake_now = [100.0]
        channel, hub = self._hub(fake_now)
        try:
            hub._handle(_stamped("point_end", 100.0, key="k0",
                                 method="polling", wall_s=0.01, dropped={}))
            hub._handle(_stamped("point_start", 100.0, key="k1",
                                 method="polling", system="GM",
                                 msg_bytes=1, interval_iters=1))
            fake_now[0] = 100.5  # 50× predicted but under the 1s floor
            hub._handle(_stamped("heartbeat", 100.5, sim_now_s=0.1,
                                 events_processed=1, points_done=1,
                                 current_key="k1", dropped={}))
            hub._check_stalls()
            assert hub.state.stalls == []
        finally:
            channel.close()

    def test_silent_worker_flagged_as_lost(self):
        fake_now = [100.0]
        channel, hub = self._hub(fake_now)  # loss after max(6×0.5, 1) = 3s
        try:
            hub._handle(_stamped("point_start", 100.0, pid=4242, key="k1",
                                 method="polling", system="GM",
                                 msg_bytes=1, interval_iters=1))
            fake_now[0] = 104.0  # 4s of silence, no prediction at all
            hub._check_stalls()
            assert len(hub.state.stalls) == 1
            stall = hub.state.stalls[0]
            assert stall["lost_pid"] == 4242
            assert stall["silent_s"] == pytest.approx(4.0)
            assert hub.state.workers[4242].lost
        finally:
            channel.close()


# -------------------------------------------------- killed worker, live hub
def _doomed_worker(out_queue):
    """Arms itself, announces a point, then dies without a point_end."""
    pool_worker_init(out_queue, 0.05)
    note_point_start("deadpoint", "polling",
                     {"system": "GM", "msg_bytes": 1, "interval_iters": 1})
    time.sleep(0.3)  # let the feeder thread flush, heartbeats flow
    os._exit(1)      # simulated crash: no point_end, no disarm


class TestKilledWorker:
    def test_lost_worker_stalls_and_run_completes(self):
        seen = []
        channel = TelemetryChannel(capacity=64, heartbeat_s=0.05)
        hub = TelemetryHub(channel, consumers=[seen.append],
                           stall_floor_s=0.2, progress_period_s=0.1)
        hub.start("run1", "test", jobs=1)
        ctx = multiprocessing.get_context("spawn")
        proc = ctx.Process(target=_doomed_worker, args=(channel.queue,))
        proc.start()
        proc.join(timeout=30)
        assert not proc.is_alive()
        deadline_s = time.time() + 10
        while time.time() < deadline_s and not hub.state.stalls:
            time.sleep(0.05)
        hub.close()  # the run must complete despite the dead worker
        stalls = hub.state.stalls
        assert stalls, "dead worker never flagged as a stall"
        assert stalls[0]["key"] == "deadpoint"
        assert stalls[0]["lost_pid"] == proc.pid
        assert hub.state.workers[proc.pid].lost
        run_end = [e for e in seen if e["kind"] == "run_end"]
        assert len(run_end) == 1 and run_end[0]["stalls"] >= 1
        assert hub.state.finished
        for doc in seen:
            assert validate_stream_event(doc) == []


class TestHubClose:
    """``close`` must hand on every event emitted before it, even those
    still in the queue's feeder thread, and count what it cannot."""

    @staticmethod
    def _burst(channel, n=3):
        for i in range(n):
            assert channel.emit("point_cached", key=f"k{i}",
                                method="polling", outcome="hit")

    def test_events_in_flight_at_close_are_delivered(self):
        for _round in range(20):
            seen = []
            channel = TelemetryChannel()
            hub = TelemetryHub(channel, consumers=[seen.append])
            self._burst(channel)
            hub.close()
            cached = [e for e in seen if e["kind"] == "point_cached"]
            assert [e["key"] for e in cached] == ["k0", "k1", "k2"]
            assert seen[-1]["kind"] == "run_end"
            assert seen[-1]["dropped"] == {}

    def test_events_missing_at_the_deadline_count_as_dropped(
            self, monkeypatch):
        monkeypatch.setattr(live_consumers, "CLOSE_FLUSH_S", 0.0)
        seen = []
        channel = TelemetryChannel()
        hub = TelemetryHub(channel, consumers=[seen.append])
        self._burst(channel)
        hub.close()
        assert not [e for e in seen if e["kind"] == "point_cached"]
        assert seen[-1]["dropped"] == {"unflushed_at_close": 3}


# ------------------------------------------------------ stream writer / top
class TestStreamWriterAndTop:
    def _write_run(self, path, extra_lines=()):
        writer = StreamWriter(str(path))
        for doc in [
            make_event("run_start", run_id="r1", cmd="figures", jobs=2),
            make_event("batch", n_tasks=2, n_hits=0, n_pending=2),
            make_event("point_start", key="k1", method="polling",
                       system="GM", msg_bytes=1, interval_iters=1),
            make_event("point_end", key="k1", method="polling", wall_s=0.1,
                       points_done=1, dropped={}),
            make_event("run_end", wall_s=0.5, done=1, cached=0, stalls=0,
                       dropped={"heartbeat": 2}),
        ]:
            writer(doc)
        writer.close()
        if extra_lines:
            with path.open("a") as fh:
                for line in extra_lines:
                    fh.write(line + "\n")

    def test_stream_file_round_trips_through_state(self, tmp_path):
        stream = tmp_path / "s.ndjson"
        self._write_run(stream)
        for line in stream.read_text().splitlines():
            assert validate_stream_line(line) == []
        state = load_stream_state(stream)
        assert state.finished and state.done == 1 and state.tasks == 2
        assert state.parent_dropped == {"heartbeat": 2}

    def test_invalid_lines_counted_not_fatal(self, tmp_path):
        stream = tmp_path / "s.ndjson"
        self._write_run(stream, extra_lines=["{torn", '{"kind": "alien"}'])
        state = load_stream_state(stream)
        assert state.invalid_lines == 2
        assert state.finished  # the valid prefix still folded

    def test_fd_target(self, tmp_path):
        out = tmp_path / "fd.ndjson"
        fd = os.open(str(out), os.O_WRONLY | os.O_CREAT, 0o644)
        writer = StreamWriter(str(fd))
        writer(make_event("figure_start", figure="fig04"))
        writer.close()
        assert json.loads(out.read_text())["kind"] == "figure_start"

    def test_render_top_and_run_top_once(self, tmp_path):
        stream = tmp_path / "s.ndjson"
        self._write_run(stream)
        screen = render_top(load_stream_state(stream))
        assert "run r1 [finished]" in screen
        assert "1 done" in screen and "heartbeat=2" in screen
        out = io.StringIO()
        assert run_top(stream, once=True, out=out) == 0
        assert "comb top" in out.getvalue()

    def test_progress_renderer_full_run(self):
        out = io.StringIO()
        renderer = ProgressRenderer(out=out)
        for doc in [
            make_event("run_start", run_id="r1", cmd="figures", jobs=1),
            make_event("batch", n_tasks=2, n_hits=1, n_pending=1),
            make_event("point_cached", key="kc", method="polling",
                       system="GM", outcome="hit"),
            make_event("stall", key="k1", method="polling", elapsed_s=9.0,
                       predicted_s=1.0, factor=9.0),
            make_event("run_end", wall_s=1.5, done=1, cached=1, stalls=1,
                       dropped={"heartbeat": 3}),
        ]:
            renderer(doc)
        text = out.getvalue()
        assert "stall" in text
        assert "simulated, 1 cached" in text
        assert "dropped 3 events" in text

    def test_hub_detaches_failing_consumer(self):
        def exploding(doc):
            raise OSError("disk full")

        channel = TelemetryChannel(capacity=8)
        hub = TelemetryHub(channel, consumers=[exploding])
        hub.start("r1", "test", jobs=1)
        hub.close()  # must not raise; consumer detached and remembered
        assert hub.consumers == []
        assert any("disk full" in e for e in hub.consumer_errors)


# --------------------------------------------------- executor integration
class TestExecutorTelemetry:
    def _run_with_hub(self, jobs, tasks=TASKS):
        seen = []
        channel = TelemetryChannel(heartbeat_s=0.05)
        hub = TelemetryHub(channel, consumers=[seen.append])
        hub.start("run1", "test", jobs=jobs)
        with SweepExecutor(jobs=jobs, telemetry=channel) as ex:
            points = ex.run(tasks)
        hub.close()
        return points, seen, hub

    def test_serial_lifecycle_and_bit_identity(self):
        with SweepExecutor() as ex:
            bare = ex.run(TASKS)
        points, seen, hub = self._run_with_hub(jobs=1)
        assert points == bare  # telemetry is observation-only
        assert not worker_armed()  # executor close disarms the parent
        kinds = [e["kind"] for e in seen]
        assert kinds.count("point_start") == len(TASKS)
        assert kinds.count("point_end") == len(TASKS)
        batch = next(e for e in seen if e["kind"] == "batch")
        assert batch["n_tasks"] == len(TASKS)
        assert batch["n_pending"] == len(TASKS)
        assert hub.state.done == len(TASKS)
        for doc in seen:
            assert validate_stream_event(doc) == []

    def test_pooled_lifecycle_and_bit_identity(self):
        with SweepExecutor() as ex:
            bare = ex.run(TASKS)
        points, seen, hub = self._run_with_hub(jobs=2)
        assert points == bare
        ends = [e for e in seen if e["kind"] == "point_end"]
        assert len(ends) == len(TASKS)
        worker_pids = {e["pid"] for e in ends}
        assert os.getpid() not in worker_pids  # pool workers emitted
        assert hub.state.done == len(TASKS)
        for doc in seen:
            assert validate_stream_event(doc) == []

    def test_memo_hits_emit_point_cached(self):
        seen = []
        channel = TelemetryChannel()
        hub = TelemetryHub(channel, consumers=[seen.append])
        hub.start("run1", "test", jobs=1)
        with SweepExecutor(telemetry=channel) as ex:
            ex.run(TASKS)
            ex.run(TASKS)  # second pass: all memo hits
        hub.close()
        cached = [e for e in seen if e["kind"] == "point_cached"]
        assert len(cached) == len(TASKS)
        assert {e["outcome"] for e in cached} == {"hit"}
        assert hub.state.cached == len(TASKS)


# --------------------------------------------------- chrome trace executor row
class TestChromeTraceExecutorRow:
    def test_markers_land_on_their_own_process_row(self):
        observer = Observer()
        with use_observer(observer):
            with SweepExecutor() as ex:
                ex.run(TASKS[:2])
                ex.run(TASKS[:2])  # memo hits → point_cached marks
        doc = chrome_trace(observer.tracer.events(), label="unit")
        exec_rows = [r for r in doc["traceEvents"]
                     if r.get("pid") == EXECUTOR_PID]
        metas = [r["name"] for r in exec_rows if r.get("ph") == "M"]
        assert "process_name" in metas and "thread_name" in metas
        slices = [r for r in exec_rows if r.get("ph") == "X"]
        assert len(slices) == 2
        assert all(r["name"] == "point.polling" for r in slices)
        assert all(r["args"]["system"] == "GM" for r in slices)
        marks = [r for r in exec_rows
                 if r.get("ph") == "i" and r["name"] == "point.cached"]
        assert len(marks) == 2  # the two memo hits
        # No executor marker leaked onto the sim-event rows.
        sim_rows = [r for r in doc["traceEvents"]
                    if r.get("pid") not in (EXECUTOR_PID,)
                    and r.get("cat") == "executor"]
        assert sim_rows == []
