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

from functools import cache, partial
from typing import Any, Callable, Dict, List, TypeVar

from .metrics import (
    DEFAULT_SIM_TIME_BUCKETS_S,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
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

_Handler = Callable[[ObsEvent], None]
_M = TypeVar("_M", Counter, Gauge, Histogram)


def _lazy(make: Callable[..., _M], *args: Any) -> Callable[[], _M]:
    """``make(*args)`` on the first call, the same instrument after.

    An instrument joins the registry only once something is measured,
    as when each event looked its instruments up by name; after that the
    getter is a C-level cache hit.
    """
    return cache(partial(make, *args))


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
        #: Event kind -> the handler deriving its metrics; kinds absent
        #: here only land on the timeline.
        self._handlers = self._metric_handlers()

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
        handler = self._handlers.get(ev.kind)
        if handler is not None:
            handler(ev)

    def _metric_handlers(self) -> Dict[str, _Handler]:
        """The kind -> handler table behind :meth:`_on_event`.

        Each handler holds the instruments it feeds, so no metric name
        is formatted or looked up per event.
        """
        m = self.metrics
        buckets = DEFAULT_SIM_TIME_BUCKETS_S

        batches = _lazy(m.counter, "sim.pww.batches")
        phases = [
            (_lazy(m.counter, f"sim.pww.{phase}_total_s"),
             _lazy(m.histogram, f"sim.pww.{phase}_s", buckets))
            for phase in ("post", "work", "wait")
        ]

        def on_pww_phase(ev: ObsEvent) -> None:
            _batch, _t0_s, post_s, work_s, wait_s = ev.detail
            batches().inc()
            for (total, hist), dur_s in zip(phases, (post_s, work_s, wait_s)):
                total().inc(dur_s)
                hist().observe(dur_s)

        hits = _lazy(m.counter, "sim.poll.hits")
        completions = _lazy(m.counter, "sim.poll.completions")
        misses = _lazy(m.counter, "sim.poll.misses")

        def on_poll(ev: ObsEvent) -> None:
            (n_done,) = ev.detail
            if n_done > 0:
                hits().inc()
                completions().inc(n_done)
            else:
                misses().inc()

        def on_poll_empty(ev: ObsEvent) -> None:
            (cycles,) = ev.detail
            misses().inc(cycles)

        req_posted = _lazy(m.counter, "sim.mpi.req_posted")
        req_completed = _lazy(m.counter, "sim.mpi.req_completed")
        req_latency_s = _lazy(m.histogram, "sim.mpi.req_latency_s", buckets)
        posted_at_s = self._req_posted_at_s

        def on_req_post(ev: ObsEvent) -> None:
            req_posted().inc()
            posted_at_s[ev.detail[0]] = ev.time_s

        def on_req_complete(ev: ObsEvent) -> None:
            req_completed().inc()
            posted_s = posted_at_s.pop(ev.detail[0], None)
            if posted_s is not None:
                req_latency_s().observe(ev.time_s - posted_s)

        rts = _lazy(m.counter, "sim.rndv.rts")
        gets = _lazy(m.counter, "sim.rndv.gets")
        stall = _lazy(m.histogram, "sim.rndv.stall_s", buckets)
        rts_at_s = self._rts_seen_at_s

        def on_rts_rx(ev: ObsEvent) -> None:
            rts().inc()
            rts_at_s[ev.detail[0]] = ev.time_s

        def on_get_issued(ev: ObsEvent) -> None:
            gets().inc()
            rts_s = rts_at_s.pop(ev.detail[0], None)
            if rts_s is not None:
                stall().observe(ev.time_s - rts_s)

        token_gauges: Dict[int, Gauge] = {}

        def on_gm_tokens(ev: ObsEvent) -> None:
            node, tokens, _max_tokens = ev.detail
            gauge = token_gauges.get(node)
            if gauge is None:
                gauge = token_gauges[node] = m.gauge(f"sim.gm.tokens.node{node}")
            gauge.set(tokens)

        def net_counter(kind: str) -> _Handler:
            counter = _lazy(m.counter, f"sim.net.{kind}")

            def on_net(ev: ObsEvent) -> None:
                counter().inc()

            return on_net

        depth_gauges: Dict[str, Gauge] = {}

        def queue_depth(delta: int) -> _Handler:
            def on_queue(ev: ObsEvent) -> None:
                gauge = depth_gauges.get(ev.source)
                if gauge is None:
                    gauge = depth_gauges[ev.source] = m.gauge(
                        f"sim.queue.{ev.source}.depth")
                gauge.add(delta)

            return on_queue

        handlers: Dict[str, _Handler] = {
            "pww_phase": on_pww_phase,
            "poll": on_poll,
            "poll_empty": on_poll_empty,
            "req_post": on_req_post,
            "req_complete": on_req_complete,
            "rts_rx": on_rts_rx,
            "get_issued": on_get_issued,
            "gm_tokens": on_gm_tokens,
        }
        handlers.update((kind, net_counter(kind)) for kind in sorted(_NET_KINDS))
        handlers.update(
            (kind, queue_depth(delta)) for kind, delta in _DEPTH_DELTA.items()
        )
        return handlers

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
