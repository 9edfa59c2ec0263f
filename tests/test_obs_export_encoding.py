"""The exporters' direct text encoding equals ``json.dumps`` of the rows.

The Chrome trace and CSV writers encode each row as text instead of
building a dict per event, and write the rows in blocks.  The references
below are the dict-building exporters they replaced, frozen here: every
case checks that the text the module writes is byte for byte what
``json.dumps`` (and ``csv.writer``, row by row) writes for those rows,
on generated details (nested tuples, lists and dicts; NaN, ±inf and
-0.0; ``bool`` and ``IntEnum``; non-ASCII and control characters;
objects that fall back to ``repr``), on the ``--kernel`` stream of a
real run, and on the cases the fast paths must keep apart: details
that are equal as keys but encode differently (``(1,)``, ``(1.0,)``,
``(True,)``), rows whose fields are not the plain types, and streams
longer than one write block.
"""

from __future__ import annotations

import csv
import io
import json
import math
from enum import IntEnum
from typing import Any, Dict, List, NamedTuple, Optional

from hypothesis import example, given, strategies as st

from repro.config import gm_system
from repro.core.pww import PwwConfig, run_pww
from repro.obs import (
    Observer,
    chrome_trace,
    use_observer,
    write_chrome_trace,
    write_csv_timeline,
)
from repro.obs.export import (
    _BLOCK_ROWS,
    EXECUTOR_PID,
    TRACE_SCHEMA_VERSION,
    _detail_encoder,
    _encode,
    _jsonable,
)
from repro.obs.observer import _DEPTH_DELTA
from repro.obs.tracer import ObsEvent


# ----------------------------------------------------------------- reference
def reference_chrome_trace(
    events: List[ObsEvent], label: str,
    dropped: Optional[Dict[str, int]],
) -> Dict[str, Any]:
    """The dict document the old ``chrome_trace`` built."""
    exec_kinds = ("point_start", "point_end", "point_cached")
    exec_events = [ev for ev in events
                   if ev.source == "executor" and ev.kind in exec_kinds]
    events = [ev for ev in events
              if not (ev.source == "executor" and ev.kind in exec_kinds)]
    sources = sorted({ev.source for ev in events})
    tid_of = {source: tid for tid, source in enumerate(sources, start=1)}
    out: List[Dict[str, Any]] = [{
        "ph": "M", "name": "process_name", "pid": 0, "tid": 0,
        "args": {"name": f"{label} (simulated time)"},
    }]
    for source, tid in tid_of.items():
        out.append({"ph": "M", "name": "thread_name", "pid": 0, "tid": tid,
                    "args": {"name": source}})
    depth_by_source: Dict[str, int] = {}
    for ev in events:
        tid = tid_of[ev.source]
        ts_us = ev.time_s * 1e6
        if ev.kind == "pww_phase":
            batch, t0_s, post_s, work_s, wait_s = ev.detail
            start_s = t0_s
            for phase, dur_s in (("post", post_s), ("work", work_s),
                                 ("wait", wait_s)):
                out.append({
                    "ph": "X", "name": f"pww.{phase}", "cat": "pww",
                    "pid": 0, "tid": tid, "ts": start_s * 1e6,
                    "dur": dur_s * 1e6, "args": {"batch": batch},
                })
                start_s += dur_s
        elif ev.kind in _DEPTH_DELTA:
            depth = depth_by_source.get(ev.source, 0) + _DEPTH_DELTA[ev.kind]
            depth_by_source[ev.source] = depth
            out.append({"ph": "C", "name": f"{ev.source}.depth",
                        "cat": "queue", "pid": 0, "tid": tid, "ts": ts_us,
                        "args": {"depth": depth}})
        elif ev.kind == "gm_tokens":
            node, tokens, _max_tokens = ev.detail
            out.append({"ph": "C", "name": f"gm.tokens.node{node}",
                        "cat": "gm", "pid": 0, "tid": tid, "ts": ts_us,
                        "args": {"tokens": tokens}})
        else:
            out.append({"ph": "i", "name": ev.kind, "cat": "sim", "s": "t",
                        "pid": 0, "tid": tid, "ts": ts_us,
                        "args": {"detail": _jsonable(ev.detail)}})
    if exec_events:
        out.append({"ph": "M", "name": "process_name", "pid": EXECUTOR_PID,
                    "tid": 0, "args": {"name": f"{label} (executor)"}})
        out.append({"ph": "M", "name": "thread_name", "pid": EXECUTOR_PID,
                    "tid": 1, "args": {"name": "sweep points"}})
        current, lo_s, hi_s = None, None, None
        for ev in sorted(events + exec_events, key=lambda ev: ev.seq):
            if ev.source == "executor" and ev.kind in exec_kinds:
                if ev.kind == "point_start":
                    current, lo_s, hi_s = ev, None, None
                elif ev.kind == "point_end" and current is not None:
                    kind, system, msg_bytes, interval_iters, _w = \
                        current.detail
                    start_s = lo_s if lo_s is not None else 0.0
                    dur_s = hi_s - lo_s if lo_s is not None else 0.0
                    out.append({
                        "ph": "X", "name": f"point.{kind}",
                        "cat": "executor", "pid": EXECUTOR_PID, "tid": 1,
                        "ts": start_s * 1e6, "dur": dur_s * 1e6,
                        "args": {"system": system, "msg_bytes": msg_bytes,
                                 "interval_iters": interval_iters},
                    })
                    current = None
                elif ev.kind == "point_cached":
                    out.append({
                        "ph": "i", "name": "point.cached",
                        "cat": "executor", "s": "t", "pid": EXECUTOR_PID,
                        "tid": 1, "ts": 0,
                        "args": {"kind": _jsonable(ev.detail)},
                    })
            elif current is not None:
                lo_s = ev.time_s if lo_s is None else min(lo_s, ev.time_s)
                hi_s = ev.time_s if hi_s is None else max(hi_s, ev.time_s)
    other_data: Dict[str, Any] = {
        "schema_version": TRACE_SCHEMA_VERSION,
        "generator": "comb-obs",
        "time_base": "simulated seconds, exported as microseconds",
    }
    if dropped is not None:
        other_data["dropped_events"] = dict(sorted(dropped.items()))
        if dropped:
            drop_tid = len(sources) + 1
            out.append({"ph": "M", "name": "thread_name", "pid": 0,
                        "tid": drop_tid, "args": {"name": "obs.tracer"}})
            for kind, count in sorted(dropped.items()):
                out.append({"ph": "i", "name": f"dropped.{kind}",
                            "cat": "obs", "s": "g", "pid": 0,
                            "tid": drop_tid, "ts": 0,
                            "args": {"dropped": count}})
    return {"traceEvents": out, "displayTimeUnit": "ms",
            "otherData": other_data}


def reference_csv(events: List[ObsEvent],
                  dropped: Optional[Dict[str, int]]) -> str:
    """The text the old ``write_csv_timeline`` wrote, row by row."""
    fh = io.StringIO(newline="")
    writer = csv.writer(fh)
    writer.writerow(["seq", "time_s", "source", "kind", "detail"])
    for ev in events:
        writer.writerow([ev.seq, repr(ev.time_s), ev.source, ev.kind,
                         json.dumps(_jsonable(ev.detail))])
    for kind, count in sorted((dropped or {}).items()):
        writer.writerow([-1, repr(0.0), "obs.tracer", "dropped",
                         json.dumps({"kind": kind, "dropped": count})])
    return fh.getvalue()


# ---------------------------------------------------------------- strategies
class Color(IntEnum):
    RED = 1
    BLUE = -7


class Pair(NamedTuple):
    left: Any
    right: Any


class Opaque:
    """An object JSON cannot write: it falls back to its ``repr``."""

    def __init__(self, text: str) -> None:
        self.text = text

    def __repr__(self) -> str:
        return f"<Opaque {self.text}>"


_TEXT = st.text(st.characters(codec="utf-8"), max_size=12) | st.sampled_from(
    ["", "a,b", 'say "hi"', "line\nbreak\r\n", "tab\t\x00\x1f", "é ✓ 😀",
     "\\", "</script>"])
_FLOATS = st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from(
    [-0.0, 0.0, math.inf, -math.inf, math.nan, 1e-320, 1.5e300])
_LEAVES = st.one_of(
    st.none(), st.booleans(), st.integers(), st.integers(-2**70, 2**70),
    _FLOATS, _TEXT, st.sampled_from(list(Color)), _TEXT.map(Opaque),
)
_DETAILS = st.recursive(
    _LEAVES,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.builds(Pair, inner, inner),
        st.dictionaries(st.one_of(_TEXT, st.integers(), st.booleans(),
                                  st.none(), _FLOATS), inner, max_size=3),
    ),
    max_leaves=12,
)


@st.composite
def _event_streams(draw: st.DrawFn) -> List[ObsEvent]:
    """Mixed streams: every row shape the Chrome writer encodes."""
    sources = ["rank0.pww", "node0.nic", "rank1.pattern", "nœud \"0\""]
    times = st.floats(0.0, 1.0, allow_nan=False) | st.just(-0.0)
    events: List[ObsEvent] = []
    for seq in range(draw(st.integers(0, 25))):
        shape = draw(st.sampled_from(
            ["pww", "depth", "gm", "instant", "start", "end", "cached"]))
        source = draw(st.sampled_from(sources))
        if shape == "pww":
            kind, detail = "pww_phase", (
                draw(st.integers(0, 9) | st.sampled_from(list(Color))),
                *[draw(times) for _ in range(4)])
        elif shape == "depth":
            kind, detail = draw(st.sampled_from(sorted(_DEPTH_DELTA))), None
        elif shape == "gm":
            kind, detail = "gm_tokens", (
                draw(st.integers(0, 3)), draw(st.integers(-2, 40)), 40)
        elif shape == "instant":
            kind = draw(st.sampled_from(["packet_tx", "kernel", "poll",
                                         "point_start", "é\"vent"]))
            detail = draw(_DETAILS)
        elif shape == "start":
            source, kind = "executor", "point_start"
            detail = (draw(st.sampled_from(["pww", "pattern"])), "GM",
                      draw(st.integers(0, 10**6)), 10, 2)
        elif shape == "end":
            source, kind, detail = "executor", "point_end", ("pww",)
        else:
            source, kind, detail = "executor", "point_cached", draw(_DETAILS)
        events.append(ObsEvent(seq, draw(times), source, kind, detail))
    return draw(st.permutations(events))


_DROPPED = st.none() | st.dictionaries(
    st.sampled_from(["packet_tx", "q_post", "wire_tx"]),
    st.integers(1, 10**6), max_size=3)


def _assert_same_text(actual: str, expected: str) -> None:
    """``actual == expected``, reporting only the first difference: the
    full diff of a long export takes minutes to render."""
    if actual != expected:
        at = next((i for i, (a, b) in enumerate(zip(actual, expected))
                   if a != b), min(len(actual), len(expected)))
        lo = max(at - 60, 0)
        raise AssertionError(
            f"texts differ at {at} (lengths {len(actual)}, "
            f"{len(expected)}): {actual[lo:at + 60]!r} != "
            f"{expected[lo:at + 60]!r}")


def _check_exports(tmp_path, events, dropped, label="comb é") -> None:
    expected = json.dumps(reference_chrome_trace(events, label, dropped))
    path = write_chrome_trace(events, tmp_path / "t.trace.json",
                              label=label, dropped=dropped)
    _assert_same_text(path.read_text(), expected + "\n")
    _assert_same_text(json.dumps(chrome_trace(events, label, dropped)),
                      expected)
    _check_csv(tmp_path, events, dropped)


def _check_csv(tmp_path, events, dropped) -> None:
    path = write_csv_timeline(events, tmp_path / "t.csv", dropped=dropped)
    with path.open(newline="") as fh:
        _assert_same_text(fh.read(), reference_csv(events, dropped))


# --------------------------------------------------------------------- cases
@given(detail=_DETAILS)
@example(detail=(math.nan, math.inf, -math.inf, -0.0, [1e-320, ()]))
@example(detail=(True, False, None, Color.BLUE, Pair(Color.RED, "é")))
@example(detail={1: "a", True: [1.5], None: {"k": math.inf}})
@example(detail=["\x00\x1f\"\\", "✓😀", Opaque("é \"q\"")])
def test_detail_encoding_equals_json_dumps(detail):
    assert _encode(detail) == json.dumps(_jsonable(detail))


@given(events=_event_streams(), dropped=_DROPPED)
def test_rows_equal_json_dumps_of_reference_rows(tmp_path_factory, events,
                                                 dropped):
    _check_exports(tmp_path_factory.mktemp("rows"), events, dropped)


def _kernel_run() -> Observer:
    observer = Observer(kernel=True)
    with use_observer(observer):
        run_pww(gm_system(), PwwConfig(msg_bytes=1024,
                                       work_interval_iters=1000, batches=2))
    return observer


def test_kernel_stream_rows(tmp_path):
    """``--kernel`` details are the class names of engine events."""
    observer = _kernel_run()
    events = observer.events()
    details = {ev.detail for ev in events if ev.kind == "kernel"}
    assert details and details <= {"Event", "Timeout", "Process",
                                    "Condition", "AllOf", "AnyOf",
                                    "Request"}
    _check_exports(tmp_path, events, observer.tracer.dropped())


def test_kernel_stream_exports_are_reproducible(tmp_path):
    """Two identical runs write identical ``kernel`` rows: no detail
    carries a memory address.  (Message ids come from a process-wide
    counter, so only separate processes repeat the other rows.)"""
    rows = []
    for run in ("a", "b"):
        observer = _kernel_run()
        events = [ev for ev in observer.events() if ev.kind == "kernel"]
        trace = write_chrome_trace(events, tmp_path / f"{run}.trace.json")
        timeline = write_csv_timeline(events, tmp_path / f"{run}.csv")
        rows.append((trace.read_bytes(), timeline.read_bytes()))
    assert rows[0] == rows[1]


def test_csv_quotes_commas_quotes_and_newlines(tmp_path):
    details = ["a,b", 'say "hi"', "two\nlines", ("x,y", 'q"', "\r\n")]
    events = [ObsEvent(i, 0.5, "src,\"odd\"\n", "k,ind", detail)
              for i, detail in enumerate(details)]
    path = write_csv_timeline(events, tmp_path / "t.csv")
    with path.open(newline="") as fh:
        text = fh.read()
    assert text == reference_csv(events, None)
    rows = list(csv.reader(io.StringIO(text, newline="")))
    assert len(rows) == 1 + len(details)
    for row, detail in zip(rows[1:], details):
        assert row[2:4] == ["src,\"odd\"\n", "k,ind"]
        assert json.loads(row[4]) == _jsonable(detail)


# ------------------------------------------------------- fast-path cases
def test_memo_keeps_equal_but_differently_typed_details_apart(tmp_path):
    """``(1,) == (1.0,) == (True,)`` as dict keys, but each encodes as
    itself, in any order, in both writers."""
    details = [(1,), (1.0,), (True,), (1, "a"), (True, "a"), (1.0, "a"),
               (0,), (False,), (0.0,), (-0.0,), (Color.RED,), (1,),
               (True, "a"), (1, "a"), (), [1, "a"], ("a",), (1.5, None)]
    events = [ObsEvent(seq, 0.25, "node0.nic", "packet_tx", detail)
              for seq, detail in enumerate(details + details[::-1])]
    _check_exports(tmp_path, events, None)
    encode = _detail_encoder()
    for detail in details + details[::-1]:
        assert encode(detail) == json.dumps(_jsonable(detail))


class Seconds(float):
    """A float subclass whose ``repr`` is not ``float``'s."""

    def __repr__(self) -> str:
        return f"Seconds({float(self)!r})"


def test_special_and_non_float_times(tmp_path):
    """NaN, ±inf and -0.0 times, and times that are not exactly
    ``float`` (an ``int``, a ``bool``, a float subclass), in every row
    shape."""
    times = [math.nan, math.inf, -math.inf, -0.0, 0.0, 3, True,
             Seconds(0.5), 1e-320, 1.5e300]
    events = []
    for time_s in times:
        for source, kind, detail in (
            ("node0.nic", "packet_tx", (7, "data")),
            ("link0", "wire_tx", (7, 1.5)),
            ("rank0.posted", "q_post", None),
            ("rank0.gm", "gm_tokens", (0, 3, 8)),
            ("rank0.pww", "pww_phase", (1, time_s, 1e-6, 2e-6, 0.0)),
        ):
            events.append(ObsEvent(len(events), time_s, source, kind, detail))
    _check_exports(tmp_path, events, {"packet_tx": 2})


class Tag(str):
    """A ``str`` subclass: a field that is not exactly ``str``."""


def test_odd_sources_kinds_and_detail_text(tmp_path):
    """Fields holding ``,``, ``"``, ``\r``, ``\n`` and non-ASCII text,
    and fields that are not exactly ``int``/``str``, round-trip both
    writers as the references write them."""
    odd = ["a,b", 'say "hi"', "cr\rlf\r\n", "line\nbreak", "nœud ✓ 😀",
           "", " lead", '","']
    events = []
    for text in odd:
        for source, kind in ((text, "packet_tx"), ("node0.nic", text),
                             (Tag(text or "t"), Tag("k" + text))):
            for detail in (text, (text,), (1, text), (text, 2.5), [text]):
                events.append(ObsEvent(len(events), 0.5, source, kind,
                                       detail))
    events.append(ObsEvent(Color.BLUE, 0.5, "node0.nic", "packet_tx", (1,)))
    events.append(ObsEvent(True, 0.5, "node0.nic", "packet_tx", (1,)))
    _check_exports(tmp_path, events, {"a,b": 1, 'q"': 2})
    # Equal as keys, written differently: only the CSV writer takes a
    # source or kind that is not text (the Chrome row names need it).
    _check_csv(tmp_path, [
        ObsEvent(seq, 0.5, source, kind, (1,))
        for seq, (source, kind) in enumerate([
            (1, "k"), (True, "k"), (1.0, "k"), ("s", 1), ("s", True),
            (1, "k"), ("s", 1.0), (Tag("s"), "k"), ("s", "k"),
        ])
    ], None)
    path = write_csv_timeline(events, tmp_path / "odd.csv")
    with path.open(newline="") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 1 + len(events)
    for row, ev in zip(rows[1:], events):
        assert row[2:4] == [ev.source, ev.kind]
        assert json.loads(row[4]) == _jsonable(ev.detail)


def test_stream_longer_than_one_block(tmp_path):
    """Rows on either side of a block boundary, every row shape, with
    the queue depth carried across blocks."""
    shapes = [
        ("executor", "point_start", lambda i: ("pww", "GM", 1024, 10, 2)),
        ("node0.nic", "packet_tx", lambda i: (i % 97, "data")),
        ("link1", "wire_tx", lambda i: (i, i * 1e-9)),
        ("rank0.posted", "q_post", lambda i: None),
        ("rank0.posted", "q_post", lambda i: None),  # the depth grows
        ("rank0.posted", "q_match", lambda i: None),
        ("rank0.gm", "gm_tokens", lambda i: (0, i % 9, 8)),
        ("rank0.pww", "pww_phase", lambda i: (i, i * 1e-6, 1e-7, 2e-7, 0.0)),
        ("executor", "point_end", lambda i: ("pww",)),
    ]
    n = 2 * _BLOCK_ROWS + 7
    events = []
    for i in range(n):
        source, kind, detail = shapes[i % len(shapes)]
        events.append(ObsEvent(i, i * 1e-7, source, kind, detail(i)))
    _check_exports(tmp_path, events, {"wire_tx": 5})
    with (tmp_path / "t.csv").open(newline="") as fh:
        assert sum(1 for _ in csv.reader(fh)) == 1 + n + 1


@given(details=st.lists(_DETAILS | st.tuples(_LEAVES, _LEAVES)
                        | st.tuples(st.integers(-2, 2), st.booleans()),
                        max_size=30))
def test_one_encoder_over_many_details_equals_json_dumps(details):
    """One export's encoder, memo and all, over a stream of details."""
    encode = _detail_encoder()
    for detail in details + details:
        assert encode(detail) == json.dumps(_jsonable(detail))

