"""Scenario runner: declarative experiment specs.

A *scenario* is a JSON document naming systems (presets plus dotted
parameter overrides) and experiments to run on each.  It makes a study
reproducible as data instead of a script::

    {
      "name": "window-study",
      "systems": [
        {"preset": "Portals"},
        {"preset": "Portals", "label": "Portals/w8",
         "overrides": {"portals.tx_window_pkts": 8}}
      ],
      "experiments": [
        {"kind": "polling", "msg_kb": 100, "intervals": [1000, 100000]},
        {"kind": "offload", "msg_kb": 100}
      ]
    }

Run with ``comb scenario spec.json`` or :func:`run_scenario`.

Supported experiment kinds: ``polling`` (sweep over ``intervals``),
``pww`` (same), ``offload``, ``netperf`` (``mode``), ``pingpong``
(``sizes_kb``), and ``pattern`` (application communication patterns —
``pattern`` names halo2d/halo3d/sweep/allreduce, sweeping ``ranks`` over
``rank_counts`` on a named ``topology``).  Extra per-point options go
under ``config`` and feed the corresponding Config dataclass (e.g.
``"config": {"peers": 3}`` makes a polling experiment a 3-peer fan-in,
``"config": {"repeats": 8}`` shortens a ping-pong).

A top-level ``"replication"`` object requests replicated measurement
for the point-producing kinds (polling/pww/pattern/pingpong/netperf)::

    {"replication": {"reps": 5, "ci_width": 0.02}, ...}

Each point then runs as up to ``reps`` sub-runs on named RNG substreams
(optionally stopping early once the availability CI — for a ping-pong
point, the CI of its latency relative to replicate 0 — is at most
``ci_width`` wide) and its result dict carries a ``replication``
summary.  Without the key — or with ``reps: 1`` — each point is one
single-shot run.  Either way every point runs through one
:class:`~repro.core.executor.SweepExecutor`, as a figure's points do.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path
from typing import Any, Callable, Dict, List, Tuple, Union

from .config import SystemConfig, get_system, preset_names
from .core import CombSuite
from .core.executor import _METHODS, PointTask, SweepExecutor

KB = 1024


class ScenarioError(ValueError):
    """Malformed scenario document."""


def resolve_preset(name: str) -> SystemConfig:
    """Look up a preset (:func:`~repro.config.get_system`)."""
    try:
        return get_system(name)
    except KeyError:
        raise ScenarioError(
            f"unknown preset {name!r}; known: {preset_names()}"
        ) from None


def apply_overrides(system: SystemConfig, overrides: Dict[str, Any]) -> SystemConfig:
    """Apply dotted-path overrides (``"portals.tx_window_pkts": 8``)."""
    for path, value in overrides.items():
        parts = path.split(".")
        system = _replace_path(system, parts, value)
    return system


def _replace_path(obj, parts: List[str], value):
    field = parts[0]
    if not hasattr(obj, field):
        raise ScenarioError(
            f"{type(obj).__name__} has no field {field!r}"
        )
    if len(parts) == 1:
        current = getattr(obj, field)
        if current is not None and not isinstance(value, type(current)) \
                and not (isinstance(current, float) and isinstance(value, (int, float))):
            raise ScenarioError(
                f"override {field!r}: expected {type(current).__name__}, "
                f"got {type(value).__name__}"
            )
        return dataclasses.replace(obj, **{field: value})
    child = _replace_path(getattr(obj, field), parts[1:], value)
    return dataclasses.replace(obj, **{field: child})


def _number(value: Any, what: str) -> Union[int, float]:
    """``value`` if it is a JSON number, else a :class:`ScenarioError`."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ScenarioError(f"{what} must be a number, got {value!r}")
    return value


def _config(cls: type, extra: Dict[str, Any], **fields: Any) -> Any:
    """``cls(**fields, **extra)``; a bad ``config`` object, or an unknown,
    repeated or invalid field, is a :class:`ScenarioError`."""
    try:
        return cls(**fields, **extra)
    except (TypeError, ValueError) as exc:
        raise ScenarioError(f"{cls.__name__}: {exc}") from None


class _Experiment:
    """One experiment spec bound to the system and executor it runs on."""

    def __init__(self, system: SystemConfig, spec: Dict[str, Any],
                 executor: SweepExecutor) -> None:
        self.system = system
        self.spec = spec
        self.executor = executor
        self.msg_bytes = int(_number(spec.get("msg_kb", 100), "'msg_kb'") * KB)

    def numbers(self, key: str, default: List[Any], what: str) -> List[Any]:
        """The spec's ``key`` list, each entry checked to be a number."""
        return [_number(value, what) for value in self.spec.get(key, default)]

    def point(self, kind: str, **fields: Any) -> Dict[str, Any]:
        """One executor point of ``kind``; the spec's ``config`` object
        adds to ``fields``.  Returns the point's result dict."""
        cfg = _config(_METHODS[kind][0], self.spec.get("config", {}),
                      **fields)
        return self.executor.run_one(
            PointTask(kind, self.system, cfg)).to_dict()


def _polling(exp: _Experiment) -> Dict[str, Any]:
    return {"points": [
        exp.point("polling", msg_bytes=exp.msg_bytes,
                  poll_interval_iters=int(interval_iters))
        for interval_iters in exp.numbers("intervals", [10_000], "interval")
    ]}


def _pww(exp: _Experiment) -> Dict[str, Any]:
    return {"points": [
        exp.point("pww", msg_bytes=exp.msg_bytes,
                  work_interval_iters=int(interval_iters))
        for interval_iters in exp.numbers("intervals", [100_000], "interval")
    ]}


def _offload(exp: _Experiment) -> Dict[str, Any]:
    verdict = CombSuite(exp.system, exp.executor).offload_verdict(
        msg_bytes=exp.msg_bytes)
    return {
        "offloaded": verdict.offloaded,
        "wait_short_s": verdict.wait_short_s,
        "wait_long_s": verdict.wait_long_s,
        "summary": verdict.summary(),
    }


def _netperf(exp: _Experiment) -> Dict[str, Any]:
    point = exp.point("netperf", msg_bytes=exp.msg_bytes,
                      wait_mode=exp.spec.get("mode", "busywait"))
    return {"mode": point["wait_mode"], **point}


def _pingpong(exp: _Experiment) -> Dict[str, Any]:
    return {"points": [
        exp.point("pingpong", msg_bytes=int(size_kb * KB))
        for size_kb in exp.numbers("sizes_kb", [100], "size")
    ]}


def _pattern(exp: _Experiment) -> Dict[str, Any]:
    return {"points": [
        exp.point("pattern", pattern=exp.spec.get("pattern", "halo2d"),
                  ranks=int(ranks), msg_bytes=exp.msg_bytes,
                  topology=exp.spec.get("topology", "crossbar"))
        for ranks in exp.numbers("rank_counts", [4], "rank count")
    ]}


def _interval_line(exp: Dict[str, Any], p: Dict[str, Any]) -> str:
    x = p.get("poll_interval_iters", p.get("work_interval_iters"))
    return (f"  {exp['kind']:8s} interval={x:>10}: "
            f"bw={p['bandwidth_MBps']:7.2f} MB/s "
            f"avail={p['availability']:.3f}")


def _offload_line(exp: Dict[str, Any], _p: Dict[str, Any]) -> str:
    return f"  offload  {exp['summary']}"


def _netperf_line(exp: Dict[str, Any], _p: Dict[str, Any]) -> str:
    return (f"  netperf  {exp['mode']}: "
            f"avail={exp['availability']:.3f} "
            f"bw={exp['bandwidth_Bps'] / 1e6:.2f} MB/s")


def _pingpong_line(_exp: Dict[str, Any], p: Dict[str, Any]) -> str:
    return (f"  pingpong {p['msg_bytes'] // KB:>6d} KB: "
            f"lat={p['latency_s'] * 1e6:8.1f} us "
            f"bw={p['bandwidth_Bps'] / 1e6:7.2f} MB/s")


def _pattern_line(_exp: Dict[str, Any], p: Dict[str, Any]) -> str:
    return (f"  {p['pattern']:8s} ranks={p['ranks']:>3d} "
            f"({p['topology']}): "
            f"avail={p['availability']:.3f} "
            f"[{p['availability_min']:.3f}"
            f"..{p['availability_max']:.3f}] "
            f"bw={p['bandwidth_MBps']:7.2f} MB/s")


#: Experiment kind -> (runner, formatter): the one dispatch on the kind.
#: A runner returns the fields of the kind's result (after ``kind``); a
#: formatter renders one line of :func:`format_scenario_results` from
#: the result and one of its points (the result itself if it has none).
_KINDS: Dict[str, Tuple[Callable[[_Experiment], Dict[str, Any]],
                        Callable[[Dict[str, Any], Dict[str, Any]], str]]] = {
    "polling": (_polling, _interval_line),
    "pww": (_pww, _interval_line),
    "offload": (_offload, _offload_line),
    "netperf": (_netperf, _netperf_line),
    "pingpong": (_pingpong, _pingpong_line),
    "pattern": (_pattern, _pattern_line),
}


def _run_experiment(
    system: SystemConfig, spec: Dict[str, Any], executor: SweepExecutor
) -> Dict:
    exp = _Experiment(system, spec, executor)
    kind = spec.get("kind")
    if kind not in _KINDS:
        raise ScenarioError(f"unknown experiment kind {kind!r}")
    return {"kind": kind, **_KINDS[kind][0](exp)}


def _executor(spec: Dict[str, Any], point_log: bool) -> SweepExecutor:
    """The executor for the scenario's points, replicated as its
    ``replication`` request (if any) asks."""
    rep_spec = spec.get("replication")
    if rep_spec is None:
        rep_spec = {}
    if not isinstance(rep_spec, dict):
        raise ScenarioError("'replication' must be an object")
    try:
        reps = int(rep_spec.get("reps", 1))
    except (TypeError, ValueError):
        raise ScenarioError("replication 'reps' must be an integer") from None
    if reps < 1:
        raise ScenarioError(f"replication 'reps' must be >= 1, got {reps}")
    ci_width = rep_spec.get("ci_width")
    if ci_width is not None:
        ci_width = float(_number(ci_width, "replication 'ci_width'"))
    return SweepExecutor(reps=reps, ci_width=ci_width, point_log=point_log)


def run_scenario(spec: Union[Dict, str, Path], ledger: Any = None) -> Dict:
    """Execute a scenario; returns the result document (JSON-ready).

    ``ledger`` is an open :class:`~repro.obs.ledger.RunLedger`: the
    scenario appends one outcome record per point and a closing run
    record.  Every point runs through one
    :class:`~repro.core.executor.SweepExecutor`; the document carries a
    ``replication`` key only when the spec asks for ``reps > 1``.
    """
    import time as _time

    if not isinstance(spec, dict):
        spec = json.loads(Path(spec).read_text())
    if "systems" not in spec or "experiments" not in spec:
        raise ScenarioError("scenario needs 'systems' and 'experiments'")
    t0_wall = _time.perf_counter() if ledger is not None else 0.0
    results: Dict[str, Any] = {
        "name": spec.get("name", "scenario"),
        "systems": [],
    }
    with _executor(spec, point_log=ledger is not None) as executor:
        if executor.reps > 1:
            results["replication"] = {
                "reps": executor.reps,
                "ci_width": executor.ci_width,
            }
        for sys_spec in spec["systems"]:
            if not isinstance(sys_spec, dict) or "preset" not in sys_spec:
                raise ScenarioError("each 'systems' entry needs a 'preset'")
            system = resolve_preset(sys_spec["preset"])
            overrides = sys_spec.get("overrides", {})
            if overrides:
                system = apply_overrides(system, overrides)
            label = sys_spec.get("label", system.name)
            entry = {"label": label, "preset": sys_spec["preset"],
                     "experiments": []}
            for exp in spec["experiments"]:
                try:
                    result = _run_experiment(system, exp, executor)
                except ScenarioError:
                    raise
                except ValueError as exc:
                    # The runners and the world builder reject
                    # out-of-range configs and systems with ValueError.
                    raise ScenarioError(
                        f"{exp.get('kind')} on {label}: {exc}") from None
                entry["experiments"].append(result)
            results["systems"].append(entry)
    if executor.disagreements:
        results["disagreements"] = [
            d.detail for d in executor.disagreements
        ]
    if ledger is not None:
        from datetime import datetime, timezone

        from . import compiled

        ledger.record_points(executor.point_records)
        ledger.record_run(
            wall_s=round(_time.perf_counter() - t0_wall, 4),
            timestamp=datetime.now(timezone.utc).isoformat(
                timespec="seconds"
            ),
            compiled=compiled.active(),
            reps=executor.reps,
            cache=executor.stats.to_dict(),
        )
    return results


def format_scenario_results(results: Dict) -> str:
    """Short human-readable rendering of a scenario result document."""
    lines = [f"scenario: {results['name']}"]
    for entry in results["systems"]:
        lines.append(f"\n[{entry['label']}]")
        for exp in entry["experiments"]:
            line = _KINDS[exp["kind"]][1]
            lines.extend(line(exp, p) for p in exp.get("points", [exp]))
    return "\n".join(lines)
