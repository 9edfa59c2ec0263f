"""Trace and metrics exporters: Chrome ``trace_event`` JSON, CSV, sidecars.

The Chrome format is the `trace_event` JSON-array flavour consumed by
``about:tracing`` and Perfetto: one object per event with ``ph`` (phase),
``ts``/``dur`` in *microseconds*, and integer ``pid``/``tid``.  Mapping:

* ``pww_phase`` events expand into three ``"X"`` (complete) slices —
  post, work, wait — so the PWW cycle structure is visible as nested
  bars on the worker's row;
* queue-depth (``q_*``) and GM-token events become ``"C"`` (counter)
  tracks;
* every other event is an ``"i"`` (instant) mark on its source's row.

Each export carries :data:`TRACE_SCHEMA_VERSION` in ``otherData``.
Compatibility rule: within one schema version, changes are strictly
additive (new kinds, new ``args`` keys); renaming or removing a kind, or
changing the meaning of an existing ``detail`` tuple slot, bumps the
version.  Consumers must ignore kinds and args they do not know.
"""

from __future__ import annotations

import csv
import json
from bisect import bisect_left, bisect_right
from json.encoder import encode_basestring_ascii
from operator import itemgetter
from pathlib import Path
from typing import (
    Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple, Union,
)

from .metrics import MetricsRegistry
from .observer import _DEPTH_DELTA
from .tracer import ObsEvent

#: Version stamp written into every trace/metrics export (see the module
#: docstring for the compatibility rule).
TRACE_SCHEMA_VERSION = 1

#: The sweep executor's markers render as their own *process* (sim events
#: stay on pid 0), so executor stages align with sim spans side by side.
EXECUTOR_PID = 1

#: Tracer kinds the executor emits around points (source ``executor``).
_EXECUTOR_KINDS = ("point_start", "point_end", "point_cached")

_SEC_TO_US = 1e6


def _jsonable(value: Any) -> Any:
    """JSON-safe form of an event detail (repr fallback, never raises)."""
    if value is None or isinstance(value, (str, int, float, bool)):
        return value
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    return repr(value)


# Rows are written as text, never built as dicts first.  ``_encode`` is
# ``json.dumps(_jsonable(value))`` with the common case written
# directly: encoders are chosen by exact type, so a subclass (an
# ``IntEnum``, a named tuple) and every other value take the reference
# path itself.  ``tests/test_obs_export_encoding.py`` holds the two
# equal on generated details.

_FLOAT_SPECIALS = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _float_text(value: float) -> str:
    """``json.dumps``'s spelling of a float."""
    text = float.__repr__(value)
    return _FLOAT_SPECIALS.get(text, text)


def _encode_seq(value: Sequence[Any]) -> str:
    try:
        return "[" + ", ".join([_ENCODERS[type(v)](v) for v in value]) + "]"
    except KeyError:  # an item outside the table: the reference path
        return json.dumps(_jsonable(value))


#: Exact type -> encoder for the JSON leaves and plain sequences.
_ENCODERS: Dict[type, Callable[[Any], str]] = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    float: _float_text,
    bool: lambda value: "true" if value else "false",
    type(None): lambda _value: "null",
    tuple: _encode_seq,
    list: _encode_seq,
}


def _encode(value: Any) -> str:
    """``json.dumps(_jsonable(value))``, written directly."""
    encoder = _ENCODERS.get(type(value))
    if encoder is None:
        return json.dumps(_jsonable(value))
    return encoder(value)


#: Leaf types whose tuples are memoized by value.  The test is by exact
#: type, so ``(1,)``, ``(1.0,)`` and ``(True,)``, which are equal as
#: keys, never share an entry.
_MEMO_LEAVES = frozenset((str, int))


def _detail_encoder() -> Callable[[Any], str]:
    """A fresh :func:`_encode` for one export's event details.

    A tuple of ``str``/``int`` leaves is encoded once per distinct
    value; everything else takes :func:`_encode` each time.
    """
    memo: Dict[Tuple[Any, ...], str] = {}
    memoizable = _MEMO_LEAVES.issuperset

    def encode(detail: Any) -> str:
        if type(detail) is tuple and memoizable(map(type, detail)):
            text = memo.get(detail)
            if text is None:
                text = memo[detail] = _encode(detail)
            return text
        return _encode(detail)

    return encode


#: Rows per block: each block is joined and written in one call.
_BLOCK_ROWS = 4096

#: Sim kinds that render as slices or counters rather than instants.
_SHAPED_KINDS = frozenset(("pww_phase", "gm_tokens", *_DEPTH_DELTA))


def _executor_rows(
    sim_events: Sequence[ObsEvent],
    exec_events: Sequence[ObsEvent],
) -> Iterator[Dict[str, Any]]:
    """``"X"`` slices / instant marks for the executor process row.

    Executor markers carry no sim timestamp of their own (points start
    at sim t=0 on fresh worlds), so each slice's extent is derived from
    the sim events *enclosed* between its ``point_start`` and
    ``point_end`` in global seq order.  A pair enclosing no sim events
    (fully evicted rings) degrades to a zero-length slice at t=0.
    """
    ordered = sorted(sim_events, key=itemgetter(0))
    seqs = [ev.seq for ev in ordered]
    times_s = [ev.time_s for ev in ordered]
    current: Optional[ObsEvent] = None
    for ev in sorted(exec_events, key=itemgetter(0)):
        if ev.kind == "point_start":
            current = ev
        elif ev.kind == "point_end" and current is not None:
            kind, system, msg_bytes, interval_iters, _warmup_windows = (
                current.detail
            )
            enclosed_s = times_s[
                bisect_right(seqs, current.seq):bisect_left(seqs, ev.seq)
            ]
            start_s = min(enclosed_s) if enclosed_s else 0.0
            dur_s = max(enclosed_s) - start_s if enclosed_s else 0.0
            yield {
                "ph": "X", "name": f"point.{kind}", "cat": "executor",
                "pid": EXECUTOR_PID, "tid": 1,
                "ts": start_s * _SEC_TO_US, "dur": dur_s * _SEC_TO_US,
                "args": {
                    "system": system,
                    "msg_bytes": msg_bytes,
                    "interval_iters": interval_iters,
                },
            }
            current = None
        elif ev.kind == "point_cached":
            yield {
                "ph": "i", "name": "point.cached", "cat": "executor",
                "s": "t", "pid": EXECUTOR_PID, "tid": 1, "ts": 0,
                "args": {"kind": _jsonable(ev.detail)},
            }


def _chrome_blocks(
    events: Sequence[ObsEvent],
    label: str,
    dropped: Optional[Dict[str, int]],
) -> Iterator[List[str]]:
    """The JSON text of the ``traceEvents`` rows, in document order, in
    blocks of at most a few thousand rows.

    A sim instant's row is a head cached per ``(kind, source)`` plus
    its timestamp and encoded detail, exactly as ``json.dumps`` writes
    the row's dict.
    """
    exec_events = [
        ev for ev in events
        if ev.source == "executor" and ev.kind in _EXECUTOR_KINDS
    ]
    events = [
        ev for ev in events
        if not (ev.source == "executor" and ev.kind in _EXECUTOR_KINDS)
    ]
    sources = sorted({ev.source for ev in events})
    tid_of = {source: tid for tid, source in enumerate(sources, start=1)}
    yield [json.dumps({
        "ph": "M", "name": "process_name", "pid": 0, "tid": 0,
        "args": {"name": f"{label} (simulated time)"},
    })] + [json.dumps({
        "ph": "M", "name": "thread_name", "pid": 0, "tid": tid,
        "args": {"name": source},
    }) for source, tid in tid_of.items()]

    encode = _encode
    detail_text = _detail_encoder()
    float_repr = float.__repr__
    instants: Dict[Tuple[str, str], str] = {}
    prefixes: Dict[Tuple[str, str], str] = {}
    depth_by_source: Dict[str, int] = {}
    for start in range(0, len(events), _BLOCK_ROWS):
        rows: List[str] = []
        append = rows.append
        for _seq, time_s, source, kind, detail in (
            events[start:start + _BLOCK_ROWS]
        ):
            head = instants.get((kind, source))
            if head is None and kind not in _SHAPED_KINDS:
                head = instants[kind, source] = (
                    '{"ph": "i", "name": ' + encode_basestring_ascii(kind)
                    + ', "cat": "sim", "s": "t", "pid": 0, "tid": '
                    + f'{tid_of[source]}, "ts": ')
            if head is not None:  # the common row: a sim instant mark
                ts = time_s * _SEC_TO_US
                ts_text = float_repr(ts) if type(ts) is float else encode(ts)
                append(head + _FLOAT_SPECIALS.get(ts_text, ts_text)
                       + ', "args": {"detail": ' + detail_text(detail)
                       + "}}")
                continue
            prefix = prefixes.get((kind, source))
            if prefix is None:
                tail = f', "pid": 0, "tid": {tid_of[source]}, "ts": '
                if kind == "pww_phase":  # the phase name goes first
                    prefix = tail
                elif kind in _DEPTH_DELTA:
                    prefix = ('{"ph": "C", "name": '
                              + encode_basestring_ascii(f"{source}.depth")
                              + ', "cat": "queue"' + tail)
                else:  # gm_tokens: the node's name goes first
                    prefix = ', "cat": "gm"' + tail
                prefixes[kind, source] = prefix
            if kind == "pww_phase":
                batch, t0_s, post_s, work_s, wait_s = detail
                args = ', "args": {"batch": ' + encode(batch) + "}}"
                phase_s = t0_s
                for phase_head, dur_s in (
                    ('{"ph": "X", "name": "pww.post", "cat": "pww"', post_s),
                    ('{"ph": "X", "name": "pww.work", "cat": "pww"', work_s),
                    ('{"ph": "X", "name": "pww.wait", "cat": "pww"', wait_s),
                ):
                    append(phase_head + prefix + encode(phase_s * _SEC_TO_US)
                           + ', "dur": ' + encode(dur_s * _SEC_TO_US) + args)
                    phase_s += dur_s
            elif kind in _DEPTH_DELTA:
                depth = depth_by_source.get(source, 0) + _DEPTH_DELTA[kind]
                depth_by_source[source] = depth
                append(prefix + encode(time_s * _SEC_TO_US)
                       + ', "args": {"depth": ' + encode(depth) + "}}")
            else:  # gm_tokens
                node, tokens, _max_tokens = detail
                append('{"ph": "C", "name": '
                       + encode_basestring_ascii(f"gm.tokens.node{node}")
                       + prefix + encode(time_s * _SEC_TO_US)
                       + ', "args": {"tokens": ' + encode(tokens) + "}}")
        yield rows
    if exec_events:
        yield [json.dumps(row) for row in (
            {"ph": "M", "name": "process_name", "pid": EXECUTOR_PID,
             "tid": 0, "args": {"name": f"{label} (executor)"}},
            {"ph": "M", "name": "thread_name", "pid": EXECUTOR_PID,
             "tid": 1, "args": {"name": "sweep points"}},
            *_executor_rows(events, exec_events),
        )]
    if dropped:
        drop_tid = len(sources) + 1
        yield [json.dumps(row) for row in (
            {"ph": "M", "name": "thread_name", "pid": 0, "tid": drop_tid,
             "args": {"name": "obs.tracer"}},
            *({"ph": "i", "name": f"dropped.{kind}", "cat": "obs",
               "s": "g", "pid": 0, "tid": drop_tid, "ts": 0,
               "args": {"dropped": count}}
              for kind, count in sorted(dropped.items())),
        )]


def _chrome_text(
    events: Sequence[ObsEvent],
    label: str,
    dropped: Optional[Dict[str, int]],
) -> Iterator[str]:
    """The Chrome trace document as text blocks (``json.dumps`` layout)."""
    other_data: Dict[str, Any] = {
        "schema_version": TRACE_SCHEMA_VERSION,
        "generator": "comb-obs",
        "time_base": "simulated seconds, exported as microseconds",
    }
    if dropped is not None:
        other_data["dropped_events"] = dict(sorted(dropped.items()))
    sep = '{"traceEvents": ['
    for rows in _chrome_blocks(events, label, dropped):
        yield sep + ", ".join(rows)
        sep = ", "
    yield ('], "displayTimeUnit": "ms", "otherData": '
           + json.dumps(other_data) + "}")


def chrome_trace(
    events: Sequence[ObsEvent],
    label: str = "comb",
    dropped: Optional[Dict[str, int]] = None,
) -> Dict[str, Any]:
    """Render ``events`` as a Chrome ``trace_event`` JSON document.

    ``dropped`` is the tracer's per-kind ring-buffer drop accounting
    (:meth:`~repro.obs.tracer.ObsTracer.dropped`); when given, it lands
    both in ``otherData["dropped_events"]`` and as visible instant marks
    on a dedicated ``obs.tracer`` row, so a truncated trace states its
    own truncation inside Perfetto instead of hiding it.

    Executor point markers (source ``executor``) render as a separate
    process (:data:`EXECUTOR_PID`): each ``point_start``/``point_end``
    pair becomes one ``"X"`` slice spanning the sim-time extent of the
    events it encloses, and ``point_cached`` becomes an instant mark —
    so sweep structure and per-point sim activity line up in Perfetto.

    The document is parsed back from the text
    :func:`write_chrome_trace` writes, so the two never disagree.
    """
    return json.loads("".join(_chrome_text(events, label, dropped)))


def write_chrome_trace(
    events: Sequence[ObsEvent],
    path: Union[str, Path],
    label: str = "comb",
    dropped: Optional[Dict[str, int]] = None,
) -> Path:
    """Write the Chrome trace JSON for ``events`` to ``path``.

    Rows are encoded and written a block at a time; the document is
    never held in memory whole.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as fh:
        fh.writelines(_chrome_text(events, label, dropped))
        fh.write("\n")
    return path


class _Lines(List[str]):
    """A block of text lines that a ``csv.writer`` can write into."""

    __slots__ = ()

    def write(self, line: str) -> None:
        self.append(line)


def write_csv_timeline(
    events: Sequence[ObsEvent],
    path: Union[str, Path],
    dropped: Optional[Dict[str, int]] = None,
) -> Path:
    """Write ``events`` as a flat CSV timeline (one row per event).

    When ``dropped`` is given, one trailing row per truncated kind
    (source ``obs.tracer``, kind ``dropped``, seq ``-1``) records how
    many events of that kind the ring buffers evicted.

    Rows are written a block at a time.  A row is its ``seq``, its
    ``time_s`` repr, a ``,source,kind,`` piece cached per pair and a
    detail cell cached per detail text; ``csv.writer`` writes each
    cached piece once, so the quoting is the csv module's own.  A row
    whose ``seq``, ``time_s``, ``source`` and ``kind`` are not exactly
    ``int``, ``float``, ``str`` and ``str`` goes through ``csv.writer``
    whole.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    # The writer appends each line it writes to the current block; a
    # cached piece is a line it wrote around that piece, popped back off.
    rows = _Lines()
    writer = csv.writer(rows)
    eol = writer.dialect.lineterminator
    end = -len(eol)
    writer.writerow(["seq", "time_s", "source", "kind", "detail"])
    detail_text = _detail_encoder()
    float_repr = float.__repr__
    middles: Dict[Tuple[str, str], str] = {}
    cells: Dict[str, str] = {}
    with path.open("w", newline="") as fh:
        for start in range(0, len(events), _BLOCK_ROWS):
            for seq, time_s, source, kind, detail in (
                events[start:start + _BLOCK_ROWS]
            ):
                text = detail_text(detail)
                if not (type(seq) is int and type(time_s) is float
                        and type(source) is str and type(kind) is str):
                    writer.writerow((seq, repr(time_s), source, kind, text))
                    continue
                middle = middles.get((source, kind))
                if middle is None:
                    writer.writerow(("", source, kind, ""))
                    middle = middles[source, kind] = rows.pop()[:end]
                cell = cells.get(text)
                if cell is None:
                    writer.writerow(("", text))
                    cell = cells[text] = rows.pop()[1:end]
                rows.append(f"{seq},{float_repr(time_s)}{middle}{cell}{eol}")
            fh.write("".join(rows))
            rows.clear()
        if dropped:
            for kind, count in sorted(dropped.items()):
                writer.writerow([
                    -1, repr(0.0), "obs.tracer", "dropped",
                    json.dumps({"kind": kind, "dropped": count}),
                ])
        fh.write("".join(rows))
    return path


def write_metrics(
    metrics: Union[MetricsRegistry, Dict[str, Any]],
    path: Union[str, Path],
    extra: Union[Dict[str, Any], None] = None,
) -> Path:
    """Write a metrics sidecar JSON next to a result set.

    ``metrics`` may be a registry (snapshotted here) or an
    already-snapshotted document; ``extra`` merges additional top-level
    keys (run configuration, wall time) into the sidecar.
    """
    doc: Dict[str, Any] = {
        "schema_version": TRACE_SCHEMA_VERSION,
        "metrics": metrics.to_dict()
        if isinstance(metrics, MetricsRegistry) else metrics,
    }
    if extra:
        doc.update(extra)
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return path
