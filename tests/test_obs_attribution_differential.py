"""The one-pass attribution sweep equals the quadratic reference, bit for bit.

The reference below is the original ``attribute_window``, frozen here:
per window it walks the whole span forest, cuts the window at every
clipped endpoint and re-scans every interval for every segment.  The
module's indexed sweep (one sort per forest, one clip pass and one
endpoint sweep per window) must give every cause the same float, so the
cases compare by ``float.hex``.  Forests are generated over a coarse
time grid, so endpoints coincide with each other and with window edges,
spans cross the edges, and every cause appears: eager and rendezvous
``completion`` spans and the stall spans that feed the counterfactual
budget.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from hypothesis import given, strategies as st

from repro.obs import attribute_window
from repro.obs.attribution import (
    ALL_CAUSES,
    CAUSE_COMPLETION,
    CAUSE_HOST_COPY,
    CAUSE_OTHER,
    CAUSE_RENDEZVOUS,
    CAUSE_WIRE,
    _ForestIndex,
    _PRIORITY,
    _SPAN_CAUSE,
)
from repro.obs.spans import (
    CHILD_SPAN_NAMES,
    SPAN_COMPLETION,
    SPAN_DATA_WIRE,
    SPAN_MSG,
    MessageSpans,
    Span,
    SpanForest,
)

_RANK = {cause: i for i, cause in enumerate(_PRIORITY)}


# ----------------------------------------------------------------- reference
def reference_attribute_window(
    forest: SpanForest, w0_s: float, w1_s: float
) -> Dict[str, float]:
    """The quadratic ``attribute_window`` the sweep replaced."""
    window_s = w1_s - w0_s
    causes = {cause: 0.0 for cause in ALL_CAUSES}
    if window_s <= 0.0:
        return causes

    intervals: List[Tuple[float, float, str]] = []
    budget_s = 0.0
    for msg in forest:
        for span in msg.children:
            cause = _SPAN_CAUSE.get(span.name)
            if cause is None and span.name == SPAN_COMPLETION:
                cause = CAUSE_HOST_COPY if msg.eager else CAUSE_COMPLETION
            if cause is None:
                continue
            t0_s = max(span.t0_s, w0_s)
            t1_s = min(span.t1_s, w1_s)
            if t1_s > t0_s:
                intervals.append((t0_s, t1_s, cause))
        stall_start_s = msg.stall_start_s
        data = msg.child(SPAN_DATA_WIRE)
        if (
            stall_start_s is not None
            and stall_start_s < w0_s
            and data is not None
            and data.t1_s > w0_s
            and data.t0_s < w1_s
        ):
            budget_s = max(
                budget_s, min(w0_s - stall_start_s, msg.stall_total_s)
            )

    cuts = sorted(
        {w0_s, w1_s}
        | {t0_s for t0_s, _t1_s, _c in intervals}
        | {t1_s for _t0_s, t1_s, _c in intervals}
    )
    assigned_s = 0.0
    for seg0_s, seg1_s in zip(cuts, cuts[1:]):
        active = [
            c for t0_s, t1_s, c in intervals
            if t0_s <= seg0_s and t1_s >= seg1_s
        ]
        if not active:
            continue
        winner = min(active, key=lambda c: _RANK[c])
        seg_s = seg1_s - seg0_s
        causes[winner] += seg_s
        assigned_s += seg_s
    causes[CAUSE_OTHER] = max(0.0, window_s - assigned_s)

    moved_s = min(budget_s, causes[CAUSE_WIRE])
    if moved_s > 0.0:
        causes[CAUSE_WIRE] -= moved_s
        causes[CAUSE_RENDEZVOUS] += moved_s
    return causes


# ---------------------------------------------------------------- strategies
#: A coarse grid makes endpoints coincide; the odd floats break ties.
_TIMES = st.one_of(
    st.integers(0, 24).map(lambda i: i * 0.25),
    st.floats(0.0, 6.0, allow_nan=False, allow_infinity=False),
)


@st.composite
def _forests(draw: st.DrawFn) -> SpanForest:
    messages: Dict[int, MessageSpans] = {}
    span_id = 0
    for msg_id in range(draw(st.integers(0, 8))):
        children: List[Span] = []
        names = draw(st.lists(st.sampled_from(CHILD_SPAN_NAMES), max_size=7))
        for name in names:
            t0_s, t1_s = sorted((draw(_TIMES), draw(_TIMES)))
            span_id += 1
            children.append(Span(span_id, msg_id, name, t0_s, t1_s,
                                 parent_id=0))
        lo_s = min((s.t0_s for s in children), default=0.0)
        hi_s = max((s.t1_s for s in children), default=0.0)
        messages[msg_id] = MessageSpans(
            msg_id=msg_id,
            root=Span(0, msg_id, SPAN_MSG, lo_s, hi_s),
            children=children,
            eager=draw(st.booleans()),
        )
    return SpanForest(messages)


_WINDOWS = st.lists(st.tuples(_TIMES, _TIMES), min_size=1, max_size=6)


def _hex(causes: Dict[str, float]) -> Dict[str, str]:
    return {cause: float.hex(seconds_s) for cause, seconds_s in causes.items()}


# --------------------------------------------------------------------- cases
@given(forest=_forests(), windows=_WINDOWS)
def test_sweep_equals_reference_bit_for_bit(forest, windows):
    """One index answers every window exactly as the reference does."""
    index = _ForestIndex(forest)
    for w0_s, w1_s in windows:
        expected = _hex(reference_attribute_window(forest, w0_s, w1_s))
        assert _hex(index.attribute(w0_s, w1_s)) == expected
        assert _hex(attribute_window(forest, w0_s, w1_s)) == expected


def test_every_cause_and_the_budget_are_exercised():
    """A hand-built forest where each cause wins a segment and the
    counterfactual budget moves wire time, checked against the
    reference (the generated cases may miss some of these)."""
    def msg(msg_id, eager, spans):
        children = [Span(i + 1, msg_id, name, t0_s, t1_s, parent_id=0)
                    for i, (name, t0_s, t1_s) in enumerate(spans)]
        return MessageSpans(msg_id, Span(0, msg_id, SPAN_MSG, 0.0, 9.0),
                            children, eager=eager)

    forest = SpanForest({
        0: msg(0, False, [("rts_wire", 0.0, 1.0),
                          ("handshake_stall", 1.0, 2.0),
                          ("cts_wire", 2.0, 3.0),
                          ("progress_stall", 3.0, 3.5),
                          ("data_wire", 3.5, 6.0),
                          ("completion", 6.0, 6.5)]),
        1: msg(1, True, [("token_stall", 4.0, 4.5),
                         ("data_wire", 4.5, 5.5),
                         ("completion", 6.5, 7.0)]),
    })
    causes = attribute_window(forest, 3.0, 8.0)
    assert _hex(causes) == _hex(reference_attribute_window(forest, 3.0, 8.0))
    for cause in ALL_CAUSES[:5]:
        assert causes[cause] > 0.0, cause
    assert causes[CAUSE_OTHER] == 1.0


def test_a_transfer_that_ended_before_the_window_lends_no_budget():
    """Message 0's long transfer reaches into the window, so message 1
    (sorted after it) is a candidate too; its transfer ended before the
    window, so its larger stall must not move wire time."""
    forest = SpanForest({
        0: MessageSpans(0, Span(0, 0, SPAN_MSG, 0.0, 5.0), [
            Span(1, 0, "handshake_stall", 0.0, 0.5, parent_id=0),
            Span(2, 0, "data_wire", 0.5, 5.0, parent_id=0),
        ], eager=False),
        1: MessageSpans(1, Span(3, 1, SPAN_MSG, 0.6, 2.9), [
            Span(4, 1, "handshake_stall", 0.6, 2.6, parent_id=3),
            Span(5, 1, "data_wire", 2.6, 2.9, parent_id=3),
        ], eager=False),
    })
    causes = attribute_window(forest, 3.0, 6.0)
    assert _hex(causes) == _hex(reference_attribute_window(forest, 3.0, 6.0))
    assert causes[CAUSE_WIRE] == 1.5 and causes[CAUSE_RENDEZVOUS] == 0.5
