"""Tests: live sweep telemetry (stream schema, channel, hub, ``top``).

The telemetry contract under test, in order of importance:

1. **One emitter** — the parent publishes every lifecycle event, for
   serial and pooled points alike; pool workers emit nothing.
2. **Honest loss** — a saturated queue drops events but *counts* them
   per kind, and the final ``run_end`` states the counts.
3. **Bit-identity** — attaching a channel never changes simulated
   results, serial or pooled.
"""

import io
import json
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.cli import main
from repro.config import gm_system
from repro.core import PointTask, PollingConfig, SweepExecutor
from repro.core import executor as executor_mod
from repro.obs import chrome_trace
from repro.obs.context import use_observer
from repro.obs.export import EXECUTOR_PID
from repro.obs.lifecycle import Subscriber
from repro.obs.live import (
    TELEMETRY_SCHEMA_VERSION,
    TelemetryChannel,
    make_event,
    validate_stream_event,
    validate_stream_line,
)
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


def _drain_all(channel):
    """Every event currently in the queue."""
    events = []
    while (doc := channel.drain(timeout_s=0.0)) is not None:
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
            "point_end": dict(key="k", method="polling", wall_s=0.1),
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
        doc = make_event("point_end", key="k", method="polling")
        assert any("wall_s" in e for e in validate_stream_event(doc))

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
        doc = make_event("run_end", wall_s=1.0, done=1, cached=0, stalls=0,
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
        assert channel.emit("figure_start", figure="fig04")
        doc = channel.drain(timeout_s=2.0)
        assert doc is not None and doc["kind"] == "figure_start"
        assert validate_stream_event(doc) == []

    def test_saturation_drops_are_counted_per_kind(self):
        channel = TelemetryChannel(capacity=2)
        delivered = sum(
            channel.emit("point_cached", key="k", method="polling",
                         system="GM", outcome="hit")
            for _ in range(6)
        )
        assert delivered == 2
        assert channel.dropped == {"point_cached": 4}
        # Drops free no capacity retroactively: both survivors drain.
        assert len(_drain_all(channel)) == 2

    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            TelemetryChannel(capacity=0)


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
            make_event("point_end", key="k1", method="polling", wall_s=0.1),
            make_event("run_end", wall_s=1.0, done=1, cached=1, stalls=0,
                       dropped={"point_cached": 3}),
        ]:
            state.apply(doc)
        assert (state.run_id, state.cmd, state.jobs) == ("r1", "figures", 2)
        assert (state.tasks, state.cached, state.done) == (3, 1, 1)
        assert state.pending == 1 and state.running == {}
        assert state.finished and state.wall_s == pytest.approx(1.0)
        assert state.dropped == {"point_cached": 3}

    def test_dropped_is_read_from_run_end(self):
        state = SweepState()
        state.apply(make_event("point_end", key="k1", method="polling",
                               wall_s=0.1))
        assert state.dropped == {}
        state.apply(make_event("run_end", wall_s=1.0, done=1, cached=0,
                               stalls=0, dropped={"point_start": 2,
                                                  "point_end": 1,
                                                  "bogus": "x"}))
        assert state.dropped == {"point_start": 2, "point_end": 1}


# ----------------------------------------------------------- stall detection
def _stamped(kind, t_wall_s, pid=9999, **fields):
    doc = make_event(kind, **fields)
    doc["t_wall_s"] = t_wall_s
    doc["pid"] = pid
    return doc


class TestHubStallDetection:
    """Deterministic stall logic via an injected clock (no sleeping)."""

    def _hub(self, fake_now):
        return TelemetryHub(TelemetryChannel(capacity=8), consumers=[],
                            stall_floor_s=1.0, clock=lambda: fake_now[0])

    def test_slow_point_flagged_once_against_prediction(self):
        fake_now = [100.0]
        hub = self._hub(fake_now)
        hub._handle(_stamped("point_end", 100.0, key="k0",
                             method="polling", wall_s=1.0))
        hub._handle(_stamped("point_start", 100.0, key="k1",
                             method="polling", system="GM",
                             msg_bytes=1, interval_iters=1))
        fake_now[0] = 109.0  # 9s elapsed > 8 × 1.0s predicted
        hub._check_stalls()
        hub._check_stalls()  # flagged once, not per check
        assert len(hub.state.stalls) == 1
        stall = hub.state.stalls[0]
        assert stall["key"] == "k1"
        assert stall["factor"] == pytest.approx(9.0)
        assert hub.state.running["k1"].stalled

    def test_below_floor_never_flagged(self):
        fake_now = [100.0]
        hub = self._hub(fake_now)
        hub._handle(_stamped("point_end", 100.0, key="k0",
                             method="polling", wall_s=0.01))
        hub._handle(_stamped("point_start", 100.0, key="k1",
                             method="polling", system="GM",
                             msg_bytes=1, interval_iters=1))
        fake_now[0] = 100.5  # 50× predicted but under the 1s floor
        hub._check_stalls()
        assert hub.state.stalls == []


class TestHubClose:
    """``close`` hands on every event emitted before it and states what
    the queue dropped."""

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

    def test_saturation_drops_are_stated_in_run_end(self):
        seen = []
        channel = TelemetryChannel(capacity=1)
        hub = TelemetryHub(channel, consumers=[seen.append])
        for i in range(3):  # nothing drains: two wait, then drop
            channel.emit("point_cached", key=f"k{i}", method="polling",
                         system="GM", outcome="hit")
        hub.close()
        assert [e["key"] for e in seen if e["kind"] == "point_cached"] \
            == ["k0"]
        assert seen[-1]["kind"] == "run_end"
        assert seen[-1]["dropped"] == {"point_cached": 2}
        assert hub.state.dropped == {"point_cached": 2}


class _CountingConsumer:
    """Records every event and counts the hub's ``flush`` calls."""

    def __init__(self):
        self.seen = []
        self.flushes = 0

    def __call__(self, doc):
        self.seen.append(doc)

    def flush(self):
        self.flushes += 1


class TestHubBatching:
    """The hub drains, checks and writes out once per batch, not once
    per event; nothing is lost or reordered on the way."""

    @staticmethod
    def _emit_burst(channel, n):
        for i in range(n):
            assert channel.emit("point_cached", key=f"k{i}",
                                method="polling", system="GM",
                                outcome="hit")

    def test_burst_is_flushed_per_batch_in_emission_order(self):
        consumer = _CountingConsumer()
        channel = TelemetryChannel()
        hub = TelemetryHub(channel, consumers=[consumer])
        hub.start("r1", "test", jobs=1)
        self._emit_burst(channel, 2_000)
        hub.close()
        keys = [e["key"] for e in consumer.seen
                if e["kind"] == "point_cached"]
        assert keys == [f"k{i}" for i in range(2_000)]
        assert 1 <= consumer.flushes < 100
        assert consumer.seen[-1]["kind"] == "run_end"
        assert consumer.seen[-1]["dropped"] == {}

    def test_event_reaches_the_stream_file_before_close(self, tmp_path):
        """``comb top`` tails the file while the run goes on: a line
        lands within one drain period, not only at close."""
        stream = tmp_path / "s.ndjson"
        writer = StreamWriter(str(stream))
        channel = TelemetryChannel()
        hub = TelemetryHub(channel, consumers=[writer])
        hub.start("r1", "test", jobs=1)
        try:
            self._emit_burst(channel, 1)
            deadline = time.monotonic() + 1.0
            while '"point_cached"' not in stream.read_text():
                assert time.monotonic() < deadline, "no line within 1 s"
                time.sleep(0.01)
        finally:
            hub.close()
            writer.close()

    def test_close_delivers_and_flushes_a_burst(self, tmp_path):
        stream = tmp_path / "s.ndjson"
        writer = StreamWriter(str(stream))
        channel = TelemetryChannel()
        hub = TelemetryHub(channel, consumers=[writer])
        hub.start("r1", "test", jobs=1)
        self._emit_burst(channel, 700)
        hub.close()
        try:
            # Read before the writer closes: close itself wrote out.
            docs = [json.loads(line)
                    for line in stream.read_text().splitlines()]
        finally:
            writer.close()
        assert [d["key"] for d in docs if d["kind"] == "point_cached"] \
            == [f"k{i}" for i in range(700)]
        assert docs[-1]["kind"] == "run_end"
        assert docs[-1]["dropped"] == {}

    def test_stream_writer_buffers_lines_until_flush(self, tmp_path):
        stream = tmp_path / "s.ndjson"
        writer = StreamWriter(str(stream))
        for i in range(3):
            writer(make_event("figure_start", figure=f"fig0{i}"))
        assert stream.read_text() == ""
        writer.flush()
        assert len(stream.read_text().splitlines()) == 3
        writer.close()

    def test_progress_renderer_redraws_once_per_flush(self):
        out = io.StringIO()
        renderer = ProgressRenderer(out=out)
        for i in range(5):
            renderer(make_event("point_cached", key=f"k{i}",
                                method="polling", system="GM",
                                outcome="hit"))
        assert out.getvalue() == ""
        renderer.flush()
        assert out.getvalue().count("\r\x1b[2K") == 1
        assert "5 cached" in out.getvalue()


# ------------------------------------------------------ stream writer / top
class TestStreamWriterAndTop:
    def _write_run(self, path, extra_lines=()):
        writer = StreamWriter(str(path))
        for doc in [
            make_event("run_start", run_id="r1", cmd="figures", jobs=2),
            make_event("batch", n_tasks=2, n_hits=0, n_pending=2),
            make_event("point_start", key="k1", method="polling",
                       system="GM", msg_bytes=1, interval_iters=1),
            make_event("point_end", key="k1", method="polling", wall_s=0.1),
            make_event("run_end", wall_s=0.5, done=1, cached=0, stalls=0,
                       dropped={"point_cached": 2}),
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
        assert state.dropped == {"point_cached": 2}

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
        os.close(fd)

    def test_fd_target_stays_open_after_close(self, tmp_path):
        """A numeric target is borrowed (say, stdout): closing the
        writer flushes it but leaves it open for its owner."""
        out = tmp_path / "fd.ndjson"
        fd = os.open(str(out), os.O_WRONLY | os.O_CREAT, 0o644)
        try:
            writer = StreamWriter(str(fd))
            writer(make_event("figure_start", figure="fig04"))
            writer.close()
            os.write(fd, b"owner\n")
        finally:
            os.close(fd)
        lines = out.read_text().splitlines()
        assert json.loads(lines[0])["kind"] == "figure_start"
        assert lines[1] == "owner"

    def test_render_top_and_run_top_once(self, tmp_path):
        stream = tmp_path / "s.ndjson"
        self._write_run(stream)
        screen = render_top(load_stream_state(stream))
        assert "run r1 [finished]" in screen
        assert "1 done" in screen and "point_cached=2" in screen
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
                       dropped={"point_end": 3}),
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
def _run_with_hub(jobs, tasks=TASKS, observer=None, point_log=False):
    """Run ``tasks`` with a hub attached (and ``observer`` ambient);
    returns the points, the events the hub saw, the hub and the
    executor's point records."""
    seen = []
    channel = TelemetryChannel()
    hub = TelemetryHub(channel, consumers=[seen.append])
    hub.start("run1", "test", jobs=jobs)
    with use_observer(observer), SweepExecutor(
            jobs=jobs, telemetry=channel, point_log=point_log) as ex:
        points = ex.run(tasks)
    hub.close()
    return points, seen, hub, ex.point_records


def _max_running(seen):
    running = peak = 0
    for doc in seen:
        if doc["kind"] in ("point_start", "point_end"):
            running += 1 if doc["kind"] == "point_start" else -1
            peak = max(peak, running)
    return peak


@pytest.fixture(scope="module")
def bare_points():
    with SweepExecutor() as ex:
        return ex.run(TASKS)


@pytest.fixture(scope="module")
def pooled():
    """One ``jobs=2`` run of :data:`TASKS` with a hub, a point log and an
    ambient observer."""
    observer = Observer()
    points, seen, hub, records = _run_with_hub(
        jobs=2, observer=observer, point_log=True)
    return points, seen, hub, records, observer


class TestExecutorTelemetry:
    def test_serial_lifecycle_and_bit_identity(self, bare_points):
        points, seen, hub, _records = _run_with_hub(jobs=1)
        assert points == bare_points  # telemetry is observation-only
        kinds = [e["kind"] for e in seen]
        assert kinds.count("point_start") == len(TASKS)
        assert kinds.count("point_end") == len(TASKS)
        assert _max_running(seen) == 1
        batch = next(e for e in seen if e["kind"] == "batch")
        assert batch["n_tasks"] == len(TASKS)
        assert batch["n_pending"] == len(TASKS)
        assert hub.state.done == len(TASKS)
        for doc in seen:
            assert validate_stream_event(doc) == []

    def test_pooled_lifecycle_and_bit_identity(self, bare_points, pooled):
        points, seen, hub, _records, _observer = pooled
        assert points == bare_points
        kinds = [e["kind"] for e in seen]
        assert kinds.count("point_start") == len(TASKS)
        assert kinds.count("point_end") == len(TASKS)
        assert hub.state.done == len(TASKS) and hub.state.running == {}
        for doc in seen:
            assert validate_stream_event(doc) == []

    def test_pooled_events_come_from_the_parent(self, pooled):
        _points, seen, _hub, _records, _observer = pooled
        lifecycle = [e for e in seen
                     if e["kind"] in ("point_start", "point_end")]
        assert lifecycle
        assert {e["pid"] for e in lifecycle} == {os.getpid()}

    def test_pooled_running_never_exceeds_the_pool(self, pooled):
        _points, seen, _hub, _records, _observer = pooled
        assert _max_running(seen) == 2  # jobs=2, three points

    def test_pooled_points_leave_no_marker_on_ambient_tracer(self, pooled):
        *_rest, observer = pooled
        assert [e for e in observer.tracer.events()
                if e.kind.startswith("point_")] == []

    def test_pooled_point_records_keep_task_order(self, pooled):
        _points, _seen, _hub, records, _observer = pooled
        keys = [executor_mod.task_key(task) for task in TASKS]
        assert [r["key"] for r in records] == keys
        assert all(r["outcome"] == "miss" and r["wall_s"] > 0
                   for r in records)

    def test_pooled_point_ends_in_completion_order(
            self, bare_points, monkeypatch):
        """A finished point is published at once, never held back behind
        a slower earlier one (a thread pool stands in for the process
        pool so the finishing order is forced)."""
        slow_key = executor_mod.task_key(TASKS[0])
        released = threading.Event()

        def run_task(task):
            if task == TASKS[0]:
                assert released.wait(10.0)
            return bare_points[TASKS.index(task)]

        class ReleaseOnFirstEnd(Subscriber):
            def __call__(self, kind, fields):
                if kind == "point_end":
                    ends.append(fields["key"])
                    released.set()

        ends = []
        monkeypatch.setattr(executor_mod, "run_task", run_task)
        with SweepExecutor(jobs=2) as ex:
            ex._pool, ex._pool_size = ThreadPoolExecutor(2), 2
            ex.subscribers.append(ReleaseOnFirstEnd())
            points = ex.run(TASKS)
        assert points == bare_points  # results still in task order
        assert len(ends) == len(TASKS) and ends[0] != slow_key

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


class TestTopInterval:
    @pytest.mark.parametrize("value", ["nan", "-5", "0", "inf"])
    def test_non_positive_or_non_finite_is_an_argument_error(
            self, capsys, tmp_path, value):
        with pytest.raises(SystemExit) as exc:
            main(["top", str(tmp_path / "s.ndjson"), "--interval", value])
        assert exc.value.code == 2
        assert "--interval" in capsys.readouterr().err


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
