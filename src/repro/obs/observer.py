"""The observer: one tracer + one metrics registry per observed run.

:class:`Observer` owns an :class:`~repro.obs.tracer.ObsTracer` (event
timeline, ring-buffered) and a :class:`~repro.obs.metrics.MetricsRegistry`
(derived aggregates).  Worlds built while the observer is ambient (see
:mod:`repro.obs.context`) put its tracer on the engine's ``trace`` and
hand it their matching-queue events (see :mod:`repro.mpi.world`), so one
object captures the full per-run picture:

* per-phase sim-time breakdowns — PWW post/work/wait durations
  (``pww_phase`` events from :mod:`repro.core.pww`);
* poll economics — hit/miss counts from the polling method's completion
  tests (``poll`` / ``poll_empty`` events);
* rendezvous stalls — sim-time between an RTS arriving and the matching
  GET being issued (Portals), plus GM eager-token watermarks;
* MPI request latency (post → complete) and match-queue depth watermarks.

Like the sanitizer, the observer is observation-only: every hook is a
passive read of state the simulator computes anyway, so observed runs
are bit-identical to bare runs.
"""

from __future__ import annotations

from typing import Any, Dict, List

from .metrics import DEFAULT_SIM_TIME_BUCKETS_S, MetricsRegistry
from .tracer import ObsEvent, ObsTracer

#: Queue-mutation ops and their effect on the queue's depth.
_DEPTH_DELTA = {
    "q_post": 1, "q_match": -1, "q_remove": -1,
    "q_unex_add": 1, "q_unex_match": -1,
}

#: Network event kinds counted 1:1 into ``sim.net.<kind>`` counters.
_NET_KINDS = frozenset(
    ["wire_tx", "wire_rx", "wire_drop", "packet_tx", "nic_rx"]
)


class Observer:
    """Captures a structured timeline and derived metrics for one run.

    Parameters
    ----------
    ring_capacity:
        Per-kind event ring size (newest events survive).
    kernel:
        Also record the per-event kernel stream (very noisy).
    """

    def __init__(
        self,
        ring_capacity: int = 65536,
        kernel: bool = False,
    ) -> None:
        self.metrics = MetricsRegistry()
        self.tracer = ObsTracer(ring_capacity=ring_capacity, kernel=kernel)
        self.tracer.dispatch = self._on_event
        self.worlds: List[Any] = []
        self._req_posted_at_s: Dict[int, float] = {}
        self._rts_seen_at_s: Dict[int, float] = {}

    # ------------------------------------------------------------ attachment
    def install(self, world: Any) -> None:
        """Register a freshly built world.

        Called automatically by :func:`repro.mpi.world.build_world` when
        this observer is ambient.
        """
        self.worlds.append(world)

    def record_queue(self, time: float, source: str, kind: str,
                     handle: Any) -> None:
        """One matching-queue event; the timeline keeps no handle."""
        self.tracer.record(time, source, kind, None)

    # ---------------------------------------------------------------- events
    def _on_event(self, ev: ObsEvent) -> None:
        """Derive metrics from one stored trace event."""
        kind = ev.kind
        metrics = self.metrics
        if kind == "pww_phase":
            _batch, _t0_s, post_s, work_s, wait_s = ev.detail
            metrics.counter("sim.pww.batches").inc()
            for phase, dur_s in (
                ("post", post_s), ("work", work_s), ("wait", wait_s)
            ):
                metrics.counter(f"sim.pww.{phase}_total_s").inc(dur_s)
                metrics.histogram(
                    f"sim.pww.{phase}_s", DEFAULT_SIM_TIME_BUCKETS_S
                ).observe(dur_s)
        elif kind == "poll":
            (n_done,) = ev.detail
            if n_done > 0:
                metrics.counter("sim.poll.hits").inc()
                metrics.counter("sim.poll.completions").inc(n_done)
            else:
                metrics.counter("sim.poll.misses").inc()
        elif kind == "poll_empty":
            (cycles,) = ev.detail
            metrics.counter("sim.poll.misses").inc(cycles)
        elif kind == "req_post":
            req_id = ev.detail[0]
            metrics.counter("sim.mpi.req_posted").inc()
            self._req_posted_at_s[req_id] = ev.time_s
        elif kind == "req_complete":
            req_id = ev.detail[0]
            metrics.counter("sim.mpi.req_completed").inc()
            posted_s = self._req_posted_at_s.pop(req_id, None)
            if posted_s is not None:
                metrics.histogram(
                    "sim.mpi.req_latency_s", DEFAULT_SIM_TIME_BUCKETS_S
                ).observe(ev.time_s - posted_s)
        elif kind == "rts_rx":
            metrics.counter("sim.rndv.rts").inc()
            self._rts_seen_at_s[ev.detail[0]] = ev.time_s
        elif kind == "get_issued":
            metrics.counter("sim.rndv.gets").inc()
            rts_s = self._rts_seen_at_s.pop(ev.detail[0], None)
            if rts_s is not None:
                metrics.histogram(
                    "sim.rndv.stall_s", DEFAULT_SIM_TIME_BUCKETS_S
                ).observe(ev.time_s - rts_s)
        elif kind == "gm_tokens":
            node, tokens, _max_tokens = ev.detail
            metrics.gauge(f"sim.gm.tokens.node{node}").set(tokens)
        elif kind in _NET_KINDS:
            metrics.counter(f"sim.net.{kind}").inc()
        elif kind in _DEPTH_DELTA:
            metrics.gauge(f"sim.queue.{ev.source}.depth").add(
                _DEPTH_DELTA[kind]
            )

    # --------------------------------------------------------------- results
    def events(self) -> List[ObsEvent]:
        """The retained timeline, in emission order."""
        return self.tracer.events()

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready snapshot: metrics + timeline accounting."""
        return {
            "metrics": self.metrics.to_dict(),
            "trace": {
                "event_counts": self.tracer.counts(),
                "dropped": self.tracer.dropped(),
            },
        }

    def summary(self) -> str:
        """One-line human summary, e.g. for the CLI."""
        n_events = sum(self.tracer.counts().values())
        n_dropped = sum(self.tracer.dropped().values())
        drop_note = f" ({n_dropped} dropped)" if n_dropped else ""
        return (
            f"observer: {n_events} events across "
            f"{len(self.tracer.rings)} kinds{drop_note}, "
            f"{len(self.metrics)} metrics"
        )
