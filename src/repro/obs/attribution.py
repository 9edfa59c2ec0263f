"""Critical-path attribution: decompose waits and availability loss into causes.

The paper's §4 argument is causal: GM's PWW wait time is high for large
messages *because* the rendezvous handshake only progresses inside MPI
calls (the Progress Rule), so the data transfer that should have
overlapped the work phase is forced into the wait phase.  This module
turns that argument into a measurement: every PWW wait window (and every
polling availability-loss window) is partitioned, second by second, into
named causes whose sum equals the measured window exactly.

Two steps per window:

1. **Structural sweep** — the window is cut at every boundary of every
   overlapping span (:mod:`repro.obs.spans`); each elementary segment is
   labelled by the highest-priority active cause (token starvation >
   rendezvous stall > host copy > completion stall > wire), and time no
   span covers becomes ``library_other``.  Because this is a partition,
   cause seconds sum to the window length by construction.
2. **Counterfactual reattribution** — wire time inside the window whose
   transfer *could* have run earlier (the message's first stall span
   started before the window opened, i.e. the handshake was answerable
   during the work phase but the library never progressed it) is
   relabelled ``rendezvous_stall``, bounded by how much earlier the
   transfer could have started.  This is what blames GM's forced-serial
   data transfer on the Progress Rule while leaving genuinely
   unoverlappable wire time (handshake completed inside the window)
   attributed to the wire.

Each point's span forest is indexed once (its spans sorted by start);
a window then costs one clip pass and one endpoint sweep over the spans
that start before it, counted from the first one still open at its
start.  That is linear per window while spans are short next to the
point; one early, long span (a long stall or transfer) keeps every
later span in each later window's pass, back to windows x spans.

Attribution is a pure function of the event stream — it never touches
the simulator, so traced runs stay bit-identical.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from itertools import accumulate
from operator import itemgetter
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from .spans import (
    SPAN_COMPLETION,
    SPAN_CTS_WIRE,
    SPAN_DATA_WIRE,
    SPAN_HANDSHAKE_STALL,
    SPAN_PROGRESS_STALL,
    SPAN_RTS_WIRE,
    SPAN_TOKEN_STALL,
    SpanForest,
    stitch,
)
from .tracer import ObsEvent

#: Cause taxonomy (see docs/observability.md for the full narrative).
CAUSE_RENDEZVOUS = "rendezvous_stall"
CAUSE_WIRE = "wire"
CAUSE_HOST_COPY = "host_copy"
CAUSE_TOKEN = "token_starvation"
CAUSE_COMPLETION = "completion_stall"
CAUSE_POLL = "poll_overhead"
CAUSE_OTHER = "library_other"

#: Every cause a window decomposition may contain, display order.
ALL_CAUSES = (
    CAUSE_RENDEZVOUS,
    CAUSE_WIRE,
    CAUSE_HOST_COPY,
    CAUSE_TOKEN,
    CAUSE_COMPLETION,
    CAUSE_POLL,
    CAUSE_OTHER,
)

#: Structural span → cause.  ``completion`` is resolved per message
#: (eager receives spend it in the host-CPU bounce-buffer copy).
_SPAN_CAUSE = {
    SPAN_TOKEN_STALL: CAUSE_TOKEN,
    SPAN_HANDSHAKE_STALL: CAUSE_RENDEZVOUS,
    SPAN_PROGRESS_STALL: CAUSE_RENDEZVOUS,
    SPAN_RTS_WIRE: CAUSE_WIRE,
    SPAN_CTS_WIRE: CAUSE_WIRE,
    SPAN_DATA_WIRE: CAUSE_WIRE,
}

#: When spans overlap, the highest-priority active cause wins a segment.
_PRIORITY = (
    CAUSE_TOKEN,
    CAUSE_RENDEZVOUS,
    CAUSE_HOST_COPY,
    CAUSE_COMPLETION,
    CAUSE_WIRE,
)
_RANK = {cause: i for i, cause in enumerate(_PRIORITY)}


class _Sorted:
    """Tuples whose first two slots are an interval ``(t0_s, t1_s)``,
    sorted by ``t0_s`` once so a window finds its candidates by bisection.

    ``reach_s[i]`` is the latest end among the first ``i + 1`` tuples, so
    every tuple before the first reach past ``w0_s`` ends by ``w0_s``.
    """

    __slots__ = ("items", "starts_s", "reach_s")

    def __init__(self, items: Iterable[Tuple[Any, ...]]) -> None:
        self.items = sorted(items, key=itemgetter(0))
        self.starts_s: List[float] = [item[0] for item in self.items]
        ends_s: List[float] = [item[1] for item in self.items]
        self.reach_s: List[float] = list(accumulate(ends_s, max))

    def overlapping(self, w0_s: float, w1_s: float) -> List[Tuple[Any, ...]]:
        """A superset of the tuples with ``t0_s < w1_s`` and
        ``t1_s > w0_s``: those that start before ``w1_s``, from the
        first whose running-max end passes ``w0_s``.  One early, long
        tuple keeps every later one in the result."""
        return self.items[
            bisect_right(self.reach_s, w0_s):bisect_left(self.starts_s, w1_s)
        ]


class _ForestIndex:
    """A span forest reduced once to what attribution reads per window.

    ``spans`` holds one ``(t0_s, t1_s, rank)`` tuple per cause-bearing
    child span (``rank`` indexes :data:`_PRIORITY`); ``stalls`` one
    ``(data_t0_s, data_t1_s, stall_start_s, stall_total_s)`` tuple per
    message that stalled before a data transfer.
    """

    __slots__ = ("spans", "stalls")

    def __init__(self, forest: SpanForest) -> None:
        spans: List[Tuple[float, float, int]] = []
        stalls: List[Tuple[float, float, float, float]] = []
        for msg in forest:
            for span in msg.children:
                cause = _SPAN_CAUSE.get(span.name)
                if cause is None and span.name == SPAN_COMPLETION:
                    cause = CAUSE_HOST_COPY if msg.eager else CAUSE_COMPLETION
                if cause is not None:
                    spans.append((span.t0_s, span.t1_s, _RANK[cause]))
            stall_start_s = msg.stall_start_s
            data = msg.child(SPAN_DATA_WIRE)
            if stall_start_s is not None and data is not None:
                stalls.append((data.t0_s, data.t1_s, stall_start_s,
                               msg.stall_total_s))
        self.spans = _Sorted(spans)
        self.stalls = _Sorted(stalls)

    def attribute(self, w0_s: float, w1_s: float) -> Dict[str, float]:
        """:func:`attribute_window` over the indexed forest."""
        window_s = w1_s - w0_s
        causes = {cause: 0.0 for cause in ALL_CAUSES}
        if window_s <= 0.0:
            return causes

        # Clip pass: each overlapping span becomes a start and an end edge.
        edges: List[Tuple[float, int, int]] = []
        for t0_s, t1_s, rank in self.spans.overlapping(w0_s, w1_s):
            t0_s = max(t0_s, w0_s)
            t1_s = min(t1_s, w1_s)
            if t1_s > t0_s:
                edges.append((t0_s, rank, 1))
                edges.append((t1_s, rank, -1))
        # Counterfactual budget: the transfer could have started earlier
        # by the delay the library injected into the handshake (its stall
        # spans), capped at how long before the window the handshake
        # became answerable.  An offloaded transport's stalls are ≈ 0,
        # so its in-window wire time stays attributed to the wire.
        budget_s = 0.0
        for _d0_s, d1_s, stall_start_s, stall_total_s in (
            self.stalls.overlapping(w0_s, w1_s)
        ):
            if stall_start_s < w0_s and d1_s > w0_s:
                budget_s = max(
                    budget_s, min(w0_s - stall_start_s, stall_total_s)
                )

        # Structural sweep: the window is cut at every edge; a segment
        # goes to the highest-priority cause with a span covering it.
        # Segments add up left to right: the order the cause seconds
        # have always been summed in, so they stay bit-identical.
        edges.sort(key=itemgetter(0))
        seconds = [0.0] * len(_PRIORITY)
        active = [0] * len(_PRIORITY)
        assigned_s = 0.0
        seg0_s = w0_s
        k, n_edges = 0, len(edges)
        while k < n_edges:
            while k < n_edges and edges[k][0] <= seg0_s:
                active[edges[k][1]] += edges[k][2]
                k += 1
            if k == n_edges:
                break  # every span has ended: nothing left to assign
            seg1_s = edges[k][0]
            for rank, count in enumerate(active):
                if count:
                    seg_s = seg1_s - seg0_s
                    seconds[rank] += seg_s
                    assigned_s += seg_s
                    break
            seg0_s = seg1_s
        for cause, seconds_s in zip(_PRIORITY, seconds):
            causes[cause] = seconds_s
        causes[CAUSE_OTHER] = max(0.0, window_s - assigned_s)

        # Counterfactual reattribution (step 2 of the module docstring).
        moved_s = min(budget_s, causes[CAUSE_WIRE])
        if moved_s > 0.0:
            causes[CAUSE_WIRE] -= moved_s
            causes[CAUSE_RENDEZVOUS] += moved_s
        return causes


def attribute_window(
    forest: SpanForest, w0_s: float, w1_s: float
) -> Dict[str, float]:
    """Partition the window ``[w0_s, w1_s]`` into cause seconds.

    The returned dict's values sum to ``w1_s - w0_s`` exactly (the
    residual is assigned to ``library_other``), which is what makes the
    per-point fractions sum to 1 ± ulp.
    """
    return _ForestIndex(forest).attribute(w0_s, w1_s)


@dataclass
class PointAttribution:
    """Cause decomposition of one sweep point's wait / availability loss."""

    method: str
    system: Optional[str] = None
    msg_bytes: Optional[int] = None
    interval_iters: Optional[int] = None
    #: Total attributed seconds (sum of measured PWW wait windows, or the
    #: polling point's availability loss).
    total_s: float = 0.0
    #: Windows folded into this point (PWW batches / polling windows).
    windows: int = 0
    causes: Dict[str, float] = field(default_factory=dict)

    def fractions(self) -> Dict[str, float]:
        """Cause fractions of :attr:`total_s` (empty when total is 0)."""
        if self.total_s <= 0.0:
            return {}
        return {
            cause: seconds_s / self.total_s
            for cause, seconds_s in self.causes.items()
        }

    @property
    def dominant(self) -> Optional[str]:
        """The cause with the most seconds (``None`` when nothing is
        attributed); ties break in :data:`ALL_CAUSES` order."""
        best: Optional[str] = None
        best_s = 0.0
        for cause in ALL_CAUSES:
            seconds_s = self.causes.get(cause, 0.0)
            if seconds_s > best_s:
                best, best_s = cause, seconds_s
        return best

    def to_dict(self) -> Dict[str, object]:
        return {
            "method": self.method,
            "system": self.system,
            "msg_bytes": self.msg_bytes,
            "interval_iters": self.interval_iters,
            "total_s": self.total_s,
            "windows": self.windows,
            "causes": dict(self.causes),
            "fractions": self.fractions(),
            "dominant": self.dominant,
        }


@dataclass(frozen=True)
class _PointMeta:
    method: Optional[str] = None
    system: Optional[str] = None
    msg_bytes: Optional[int] = None
    interval_iters: Optional[int] = None
    warmup_windows: int = 0


def _split_points(
    events: Sequence[ObsEvent],
) -> List[Tuple[_PointMeta, List[ObsEvent]]]:
    """Cut the stream at the executor's ``point_start`` / ``point_end``
    markers.  Without markers the whole stream is one anonymous point."""
    ordered = sorted(events, key=lambda ev: ev.seq)
    if not any(ev.kind == "point_start" for ev in ordered):
        return [(_PointMeta(), list(ordered))]
    points: List[Tuple[_PointMeta, List[ObsEvent]]] = []
    meta: Optional[_PointMeta] = None
    bucket: List[ObsEvent] = []
    for ev in ordered:
        if ev.kind == "point_start":
            meta = _PointMeta(
                method=str(ev.detail[0]),
                system=str(ev.detail[1]),
                msg_bytes=int(ev.detail[2]),
                interval_iters=int(ev.detail[3]),
                warmup_windows=int(ev.detail[4]),
            )
            bucket = []
        elif ev.kind == "point_end":
            if meta is not None:
                points.append((meta, bucket))
            meta, bucket = None, []
        elif meta is not None:
            bucket.append(ev)
    if meta is not None:  # stream truncated before point_end
        points.append((meta, bucket))
    return points


def _attribute_pww_point(
    meta: _PointMeta, events: Sequence[ObsEvent], method: str = "pww"
) -> PointAttribution:
    """Wait-window decomposition for one PWW-shaped point.

    Patterns reuse the ``pww_phase`` schema (one event per rank per
    measured iteration, emitted from ``rank{r}.pattern``), so a
    multi-rank pattern point folds every rank's wait windows into one
    decomposition — ``method`` keeps the table row honest about which
    driver produced them.
    """
    index = _ForestIndex(stitch(events))
    point = PointAttribution(
        method=method,
        system=meta.system,
        msg_bytes=meta.msg_bytes,
        interval_iters=meta.interval_iters,
        causes={cause: 0.0 for cause in ALL_CAUSES},
    )
    for ev in events:
        if ev.kind != "pww_phase":
            continue
        batch, _t0_s, _post_s, _work_s, wait_s = ev.detail
        if int(batch) < meta.warmup_windows:
            continue  # match the measured (post-warmup) wait time
        w1_s = ev.time_s
        w0_s = w1_s - wait_s
        for cause, seconds_s in index.attribute(w0_s, w1_s).items():
            point.causes[cause] += seconds_s
        point.total_s += wait_s
        point.windows += 1
    return point


def _attribute_polling_point(
    meta: _PointMeta, events: Sequence[ObsEvent]
) -> PointAttribution:
    """Availability-loss decomposition for one polling point.

    The loss (window minus pure work time) splits into the poll tax
    (completion tests × the empty-pass cost, both carried by the
    ``poll_window`` event), host-CPU copy time visible as spans, and a
    ``library_other`` residual (per-call posting/matching costs the
    event stream cannot see individually).
    """
    index = _ForestIndex(stitch(events))
    point = PointAttribution(
        method="polling",
        system=meta.system,
        msg_bytes=meta.msg_bytes,
        interval_iters=meta.interval_iters,
        causes={cause: 0.0 for cause in ALL_CAUSES},
    )
    for ev in events:
        if ev.kind != "poll_window":
            continue
        t_start_s, elapsed_s, work_total_s, polls, empty_poll_s = ev.detail
        loss_s = max(0.0, elapsed_s - work_total_s)
        poll_tax_s = min(loss_s, polls * empty_poll_s)
        copy_s = index.attribute(
            t_start_s, t_start_s + elapsed_s
        )[CAUSE_HOST_COPY]
        copy_s = min(copy_s, loss_s - poll_tax_s)
        point.causes[CAUSE_POLL] += poll_tax_s
        point.causes[CAUSE_HOST_COPY] += copy_s
        point.causes[CAUSE_OTHER] += loss_s - poll_tax_s - copy_s
        point.total_s += loss_s
        point.windows += 1
    return point


def attribute_events(events: Sequence[ObsEvent]) -> List[PointAttribution]:
    """Per-point cause decompositions for a whole observed run.

    The stream is segmented at the executor's point markers (each marker
    names the method, system, message size, interval, and warmup window
    count); a marker-free stream — e.g. ``run_pww`` called directly
    under an observer, outside any executor — is treated as a single
    point whose method is inferred from the phase events present, with
    every window (warmup included) decomposed.
    """
    out: List[PointAttribution] = []
    for meta, point_events in _split_points(events):
        method = meta.method
        if method is None:
            phases = [ev for ev in point_events if ev.kind == "pww_phase"]
            if phases:
                method = ("pattern" if any(
                    ev.source.endswith(".pattern") for ev in phases
                ) else "pww")
            elif any(ev.kind == "poll_window" for ev in point_events):
                method = "polling"
            else:
                continue
        if method == "pww":
            out.append(_attribute_pww_point(meta, point_events))
        elif method == "pattern":
            out.append(_attribute_pww_point(meta, point_events,
                                            method="pattern"))
        elif method == "polling":
            out.append(_attribute_polling_point(meta, point_events))
    return out


def format_attribution(points: Sequence[PointAttribution]) -> str:
    """Human table: one row per sweep point, cause fractions + verdict."""
    if not points:
        return "attribution: no decomposable windows in the event stream"
    lines = [
        "per-point attribution (cause fractions of measured wait / "
        "availability loss):",
        f"  {'method':7s} {'system':10s} {'size':>7s} {'interval':>9s} "
        f"{'total':>10s}  breakdown",
    ]
    for pt in points:
        size_label = f"{pt.msg_bytes // 1024}KB" if pt.msg_bytes else "-"
        interval_iters = str(pt.interval_iters) if pt.interval_iters else "-"
        shares = [
            f"{cause}={frac:.0%}"
            for cause, frac in sorted(
                pt.fractions().items(), key=lambda kv: -kv[1]
            )
            if frac >= 0.005
        ]
        lines.append(
            f"  {pt.method:7s} {(pt.system or '-'):10s} {size_label:>7s} "
            f"{interval_iters:>9s} {pt.total_s * 1e6:9.1f}us  "
            + (" ".join(shares) if shares else "(zero)")
        )
    return "\n".join(lines)
