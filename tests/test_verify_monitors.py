"""Tests: the simulation sanitizer's invariant monitors.

Two obligations per monitor (the ISSUE's acceptance bar):

* a *clean-run* guarantee — across the golden scenario set (both
  transports, eager and rendezvous sizes, all three COMB drivers) every
  monitor reports zero violations;
* a *unit-level* detection check — fed a synthetic record stream
  containing its corruption class, the monitor flags it.  (End-to-end
  detection through real fault injection lives in
  ``test_verify_faults.py``.)
"""

from __future__ import annotations

import pytest

from repro.baselines import run_pingpong
from repro.config import gm_system, portals_system, tcp_system
from repro.core import PollingConfig, PwwConfig, run_polling, run_pww
from repro.mpi.world import build_world
from repro.sim.trace import TraceRecord
from repro.verify import (
    CausalityMonitor,
    ConservationMonitor,
    LifecycleMonitor,
    MatchingMonitor,
    Sanitizer,
    TokenMonitor,
    Violation,
    current_sanitizer,
    default_monitors,
    use_sanitizer,
)

KB = 1024

SYSTEMS = {"GM": gm_system, "Portals": portals_system, "TCP": tcp_system}


def run_scripted(system, msg_bytes=64 * KB, n_msgs=4, quiescent=True):
    """A fully-drained exchange: n_msgs each way, every request waited."""
    san = Sanitizer(quiescent=quiescent)
    with use_sanitizer(san):
        world = build_world(system)
    h0 = world.endpoint(0).bind(world.cluster[0].new_context("p0"))
    h1 = world.endpoint(1).bind(world.cluster[1].new_context("p1"))

    def p0():
        for i in range(n_msgs):
            yield from h0.send(1, msg_bytes, tag=i)
            yield from h0.recv(1, msg_bytes, tag=1000 + i)

    def p1():
        for i in range(n_msgs):
            yield from h1.recv(0, msg_bytes, tag=i)
            yield from h1.send(0, msg_bytes, tag=1000 + i)

    world.engine.spawn(p0(), name="p0")
    world.engine.spawn(p1(), name="p1")
    world.engine.run()  # drain completely (quiescent by construction)
    return san


# ----------------------------------------------------------------- clean runs
class TestCleanRuns:
    """The golden scenario set holds every invariant on every transport."""

    @pytest.mark.parametrize("name", sorted(SYSTEMS))
    @pytest.mark.parametrize("size", [1 * KB, 64 * KB])
    def test_scripted_quiescent_zero_violations(self, name, size):
        san = run_scripted(SYSTEMS[name](), msg_bytes=size)
        assert san.finalize() == [], san.summary()

    @pytest.mark.parametrize("name", sorted(SYSTEMS))
    @pytest.mark.parametrize("size", [1 * KB, 100 * KB])
    def test_pingpong_zero_violations(self, name, size):
        # Benchmark drivers stop mid-flight: live checks only.
        san = Sanitizer()
        with use_sanitizer(san):
            run_pingpong(SYSTEMS[name](), size, repeats=3, warmup_msgs=1)
        assert san.finalize() == [], san.summary()

    @pytest.mark.parametrize("name", ["GM", "Portals"])
    def test_polling_driver_zero_violations(self, name):
        san = Sanitizer()
        with use_sanitizer(san):
            run_polling(SYSTEMS[name](), PollingConfig(
                msg_bytes=100 * KB, poll_interval_iters=1_000,
                measure_s=0.01, warmup_s=0.002,
            ))
        assert san.finalize() == [], san.summary()

    @pytest.mark.parametrize("name", ["GM", "Portals"])
    def test_pww_driver_zero_violations(self, name):
        san = Sanitizer()
        with use_sanitizer(san):
            run_pww(SYSTEMS[name](), PwwConfig(
                work_interval_iters=100_000, batches=4, warmup_batches=1,
            ))
        assert san.finalize() == [], san.summary()

    def test_every_monitor_ran(self):
        """The clean verdict covers all five monitors, not an empty set."""
        san = run_scripted(gm_system())
        assert sorted(san.counts()) == [
            "causality", "conservation", "lifecycle", "matching", "tokens",
        ]


# ------------------------------------------------------------ unit detection
def _rec(kind, detail, time=1.0, source="test"):
    return TraceRecord(time, source, kind, detail)


class TestConservationMonitor:
    def test_duplicate_packet_flagged(self):
        m = ConservationMonitor()
        m.on_record(_rec("nic_rx", ("data", 7, 0), source="node0.nic"))
        m.on_record(_rec("nic_rx", ("data", 7, 0), source="node0.nic"))
        assert [v.kind for v in m.violations] == ["packet_duplicated"]

    def test_duplicate_excused_after_drop(self):
        """Go-back-N retransmits legitimately re-deliver after a loss."""
        m = ConservationMonitor()
        m.on_record(_rec("wire_drop", ("data", 6, 1)))
        m.on_record(_rec("nic_rx", ("data", 7, 0), source="node0.nic"))
        m.on_record(_rec("nic_rx", ("data", 7, 0), source="node0.nic"))
        assert m.violations == []

    def test_control_packets_not_tracked(self):
        m = ConservationMonitor()
        m.on_record(_rec("nic_rx", ("ack", 7, 0), source="node0.nic"))
        m.on_record(_rec("nic_rx", ("ack", 7, 0), source="node0.nic"))
        assert m.violations == []

    def test_pending_request_flagged_only_when_quiescent(self):
        world = build_world(gm_system())
        m = ConservationMonitor()
        m.on_record(_rec("req_post", (3, "recv", 1, 0, 1024)))
        m.finalize(world, quiescent=False)
        assert m.violations == []
        m.finalize(world, quiescent=True)
        assert [v.kind for v in m.violations] == ["request_never_completed"]

    def test_completed_request_not_flagged(self):
        world = build_world(gm_system())
        m = ConservationMonitor()
        m.on_record(_rec("req_post", (3, "recv", 1, 0, 1024)))
        m.on_record(_rec("req_complete", (3, "recv")))
        m.finalize(world, quiescent=True)
        assert m.violations == []

    def test_lost_packet_flagged_at_quiescence(self):
        world = build_world(gm_system())
        m = ConservationMonitor()
        m.on_record(_rec("packet_tx", ("data", 9, 0), source="node0.nic"))
        m.on_record(_rec("packet_tx", ("data", 9, 1), source="node0.nic"))
        m.on_record(_rec("nic_rx", ("data", 9, 0), source="node1.nic"))
        m.finalize(world, quiescent=True)
        assert [v.kind for v in m.violations] == ["packet_lost"]
        assert "9" in m.violations[0].detail


class TestCausalityMonitor:
    def test_schedule_past_flagged(self):
        m = CausalityMonitor()
        m.on_record(_rec("schedule_past", (-1e-6,), source="engine"))
        assert [v.kind for v in m.violations] == ["scheduled_in_past"]

    def test_per_source_time_regression(self):
        m = CausalityMonitor()
        m.on_record(_rec("packet_tx", (), time=2.0, source="a"))
        m.on_record(_rec("packet_tx", (), time=1.0, source="a"))
        assert [v.kind for v in m.violations] == ["time_regression"]

    def test_distinct_sources_independent(self):
        m = CausalityMonitor()
        m.on_record(_rec("packet_tx", (), time=2.0, source="a"))
        m.on_record(_rec("packet_tx", (), time=1.0, source="b"))
        assert m.violations == []

    def test_kernel_regression_hook(self):
        m = CausalityMonitor()
        m.on_kernel_regression(1.0, 2.0)
        assert [v.kind for v in m.violations] == ["clock_backwards"]


class TestTokenMonitor:
    def test_negative_tokens_flagged(self):
        m = TokenMonitor()
        m.on_record(_rec("gm_tokens", (1, -1, 16), source="rank0.gm"))
        assert [v.kind for v in m.violations] == ["negative_tokens"]

    def test_overflow_flagged(self):
        m = TokenMonitor()
        m.on_record(_rec("gm_tokens", (1, 17, 16), source="rank0.gm"))
        assert [v.kind for v in m.violations] == ["token_overflow"]

    def test_in_range_silent(self):
        m = TokenMonitor()
        for n in (0, 7, 16):
            m.on_record(_rec("gm_tokens", (1, n, 16), source="rank0.gm"))
        assert m.violations == []


class TestMatchingMonitor:
    class _Req:
        def __init__(self, req_id, done=False):
            self.req_id = req_id
            self.done = done

    class _Msg:
        def __init__(self, msg_id):
            self.msg_id = msg_id

    def test_double_post_flagged(self):
        m = MatchingMonitor()
        r = self._Req(1)
        m.on_record(_rec("q_post", r, source="rank0.posted"))
        m.on_record(_rec("q_post", r, source="rank0.posted"))
        assert [v.kind for v in m.violations] == ["double_post"]

    def test_match_without_post_flagged(self):
        m = MatchingMonitor()
        m.on_record(_rec("q_match", self._Req(1), source="rank0.posted"))
        assert [v.kind for v in m.violations] == ["match_without_post"]

    def test_matching_completed_request_flagged(self):
        m = MatchingMonitor()
        r = self._Req(1, done=True)
        m.on_record(_rec("q_post", r, source="rank0.posted"))
        m.on_record(_rec("q_match", r, source="rank0.posted"))
        assert [v.kind for v in m.violations] == ["matched_completed_request"]

    def test_duplicate_unexpected_flagged(self):
        m = MatchingMonitor()
        msg = self._Msg(5)
        m.on_record(_rec("q_unex_add", msg, source="rank0.unexpected"))
        m.on_record(_rec("q_unex_add", msg, source="rank0.unexpected"))
        assert [v.kind for v in m.violations] == ["duplicate_unexpected"]

    def test_get_without_rts_flagged(self):
        m = MatchingMonitor()
        m.on_record(_rec("get_issued", (9,), source="rank0.portals"))
        assert [v.kind for v in m.violations] == ["get_without_rts"]

    def test_get_after_rts_silent(self):
        m = MatchingMonitor()
        m.on_record(_rec("rts_rx", (9,), source="rank0.portals"))
        m.on_record(_rec("get_issued", (9,), source="rank0.portals"))
        assert m.violations == []

    def test_unanswered_rts_flagged_at_quiescence(self):
        world = build_world(portals_system())
        dev = world.endpoints[0].device
        dev._pending_get[42] = (object(), 1)
        m = MatchingMonitor()
        m.finalize(world, quiescent=True)
        assert "unanswered_rts" in [v.kind for v in m.violations]


class TestLifecycleMonitor:
    class _Req:
        def __init__(self, req_id):
            self.req_id = req_id
            self.done = False

    def test_complete_without_post_flagged(self):
        m = LifecycleMonitor()
        m.on_record(_rec("req_complete", (1, "recv")))
        assert [v.kind for v in m.violations] == ["complete_without_post"]

    def test_double_completion_flagged(self):
        m = LifecycleMonitor()
        m.on_record(_rec("req_post", (1, "send", 1, 0, 64)))
        m.on_record(_rec("req_complete", (1, "send")))
        m.on_record(_rec("req_complete", (1, "send")))
        assert [v.kind for v in m.violations] == ["double_completion"]

    def test_completed_after_cancel_flagged(self):
        m = LifecycleMonitor()
        m.on_record(_rec("req_post", (1, "recv", 1, 0, 64)))
        m.on_record(_rec("q_remove", self._Req(1), source="rank0.posted"))
        m.on_record(_rec("req_complete", (1, "recv")))
        assert [v.kind for v in m.violations] == ["completed_after_cancel"]

    def test_completed_while_posted_flagged(self):
        m = LifecycleMonitor()
        m.on_record(_rec("req_post", (1, "recv", 1, 0, 64)))
        m.on_record(_rec("q_post", self._Req(1), source="rank0.posted"))
        m.on_record(_rec("req_complete", (1, "recv")))
        assert [v.kind for v in m.violations] == ["completed_while_posted"]

    def test_legal_lifecycle_silent(self):
        m = LifecycleMonitor()
        m.on_record(_rec("req_post", (1, "recv", 1, 0, 64)))
        m.on_record(_rec("q_post", self._Req(1), source="rank0.posted"))
        m.on_record(_rec("q_match", self._Req(1), source="rank0.posted"))
        m.on_record(_rec("req_complete", (1, "recv")))
        assert m.violations == []


# ------------------------------------------------------------- sanitizer core
class TestSanitizer:
    def test_ambient_context_nesting(self):
        assert current_sanitizer() is None
        outer, inner = Sanitizer(), Sanitizer()
        with use_sanitizer(outer):
            assert current_sanitizer() is outer
            with use_sanitizer(inner):
                assert current_sanitizer() is inner
            assert current_sanitizer() is outer
        assert current_sanitizer() is None

    def test_use_sanitizer_accepts_none(self):
        with use_sanitizer(None):
            assert current_sanitizer() is None

    def test_tracer_stores_nothing(self):
        san = run_scripted(gm_system(), n_msgs=1)
        # Its only state: the sanitizer it feeds and the last kernel time.
        assert set(vars(san.tracer)) == {"_sanitizer", "_last_kernel_t"}

    def test_finalize_idempotent(self):
        san = run_scripted(gm_system(), n_msgs=1)
        assert san.finalize() == san.finalize()

    def test_detached_world_has_no_tracer(self):
        world = build_world(gm_system())
        assert world.engine.trace is None
        assert world.endpoints[0].device.posted.observer is None

    def test_explicit_tracer_wins_over_ambient(self):
        from repro.sim.trace import Tracer

        mine = Tracer()
        with use_sanitizer(Sanitizer()) as san:
            world = build_world(gm_system(), tracer=mine)
        assert world.engine.trace is mine
        assert san.worlds == []
        assert world.endpoints[0].device.posted.observer is None

    def test_violations_are_picklable(self):
        import pickle

        v = Violation("conservation", "packet_lost", 0.5, "msg 1 packet 0")
        assert pickle.loads(pickle.dumps(v)) == v

    def test_default_monitors_fresh_instances(self):
        a, b = default_monitors(), default_monitors()
        assert {type(m) for m in a} == {type(m) for m in b}
        assert all(x is not y for x, y in zip(a, b))

    def test_summary_mentions_counts(self):
        san = Sanitizer()
        assert "0 violations" in san.summary()
        san.monitors[0].flag(1.0, "synthetic", "injected by test")
        assert "1 violation" in san.summary()
