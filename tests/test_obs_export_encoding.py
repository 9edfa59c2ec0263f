"""The exporters' direct text encoding equals ``json.dumps`` of the rows.

The Chrome trace and CSV writers encode each row as text instead of
building a dict per event.  The references below are the dict-building
exporters they replaced, frozen here: every case checks that the text
the module writes is byte for byte what ``json.dumps`` writes for those
dicts, on generated details (nested tuples, lists and dicts; NaN, ±inf
and -0.0; ``bool`` and ``IntEnum``; non-ASCII and control characters;
objects that fall back to ``repr``) and on the ``--kernel`` stream of a
real run.
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
    EXECUTOR_PID,
    TRACE_SCHEMA_VERSION,
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


def _check_exports(tmp_path, events, dropped, label="comb é") -> None:
    expected = json.dumps(reference_chrome_trace(events, label, dropped))
    path = write_chrome_trace(events, tmp_path / "t.trace.json",
                              label=label, dropped=dropped)
    assert path.read_text() == expected + "\n"
    assert json.dumps(chrome_trace(events, label, dropped)) == expected
    path = write_csv_timeline(events, tmp_path / "t.csv", dropped=dropped)
    with path.open(newline="") as fh:
        assert fh.read() == reference_csv(events, dropped)


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


def test_kernel_stream_rows(tmp_path):
    """``--kernel`` details are ``repr`` strings of engine events."""
    observer = Observer(kernel=True)
    with use_observer(observer):
        run_pww(gm_system(), PwwConfig(msg_bytes=1024,
                                       work_interval_iters=1000, batches=2))
    events = observer.events()
    assert any(ev.kind == "kernel" for ev in events)
    _check_exports(tmp_path, events, observer.tracer.dropped())


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
