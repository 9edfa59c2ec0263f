"""Outside-in instrumentation for the benchmark.

Everything here observes the program through its public surface: a
subclass of :class:`SweepExecutor` that seeds every point, a subclass of
:class:`PointCache` that times reads and writes, wrappers around public
module functions, and cProfile grouped by package.  Nothing changes a
result; the benchmark checks that by comparing traced and untraced
outputs byte for byte.
"""

from __future__ import annotations

import cProfile
import dataclasses
import functools
import os
import pstats
import time
from contextlib import contextmanager, nullcontext
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

import repro.core.executor as executor_mod
import repro.patterns.runner as runner_mod
from repro.analysis.claims import ALL_CLAIMS
from repro.analysis.scaling import SCALING_CLAIMS
from repro.core import PointCache, SweepExecutor
from repro.hardware.switch import Switch
from repro.hardware.topology import TreeSwitch

#: Layers reported by the traced run, keyed by the package (or module)
#: prefix under ``repro`` that owns the code.  ``core.executor`` is split
#: from the method runners in ``core``.
LAYERS = ("sim", "hardware", "os", "transport", "mpi", "core", "executor",
          "patterns", "analysis", "stats", "obs", "verify")


class Spans:
    """In-memory span log: ``(name, start_s, end_s, parent, point)`` rows.

    ``parent`` is the index of the enclosing open span (-1 at top level);
    ``point`` names the sweep point the span belongs to, when known.
    """

    def __init__(self) -> None:
        self.rows: List[List[Any]] = []
        self._open: List[int] = []

    @contextmanager
    def span(self, name: str, point: Optional[str] = None) -> Iterator[None]:
        index = len(self.rows)
        parent = self._open[-1] if self._open else -1
        self.rows.append([name, time.perf_counter(), 0.0, parent, point])
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            self.rows[index][2] = time.perf_counter()

    def durations(self, name: str) -> List[float]:
        return [end - start for n, start, end, _p, _pt in self.rows
                if n == name]

    def to_dicts(self) -> List[Dict[str, Any]]:
        return [{"name": n, "start_s": s, "end_s": e, "parent": p,
                 "point": pt} for n, s, e, p, pt in self.rows]


class Probe:
    """Per-run instrumentation state shared by the workloads.

    ``spans`` is set only while :meth:`tracing`; otherwise only the
    counters and the host-time intervals of simulated points (which feed
    ``point_host_s``) are kept.
    """

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.spans: Optional[Spans] = None
        self.sim_times: List[Tuple[float, float, int]] = []
        self.point: Optional[str] = None
        self._switches: List[Any] = []
        self.reset_counts()

    def reset_counts(self) -> None:
        self.counts: Dict[str, float] = {
            "points": 0, "core.polls": 0, "core.sim_s": 0.0,
            "mpi.msgs": 0, "os.interrupts": 0,
            "hardware.packets_forwarded": 0,
        }
        self.sim_times = []

    def span(self, name: str, point: Optional[str] = None) -> Any:
        if self.spans is None:
            return nullcontext()
        return self.spans.span(name, point if point is not None
                               else self.point)

    def executor(self, **kwargs: Any) -> "SeededExecutor":
        return SeededExecutor(self, **kwargs)

    def cache(self, root: str) -> "TimedCache":
        return TimedCache(root, self)

    # ------------------------------------------------------------ hooks
    def _run_task(self, original: Callable[[Any], Any], task: Any) -> Any:
        self.point = f"{task.kind}:{int(self.counts['points'])}"
        t0 = time.perf_counter()
        try:
            point = original(task)
        finally:
            self.point = None
        self.sim_times.append((t0, time.perf_counter(), 1))
        counts = self.counts
        counts["points"] += 1
        counts["core.sim_s"] += point.elapsed_s
        counts["core.polls"] += getattr(point, "polls", 0)
        counts["mpi.msgs"] += getattr(point, "msgs", 0)
        counts["os.interrupts"] += point.interrupts
        counts["hardware.packets_forwarded"] += sum(
            sw.packets_forwarded for sw in self._switches)
        self._switches.clear()
        return point

    @contextmanager
    def installed(self) -> Iterator["Probe"]:
        """Count points and switch traffic for the dynamic extent of the
        block (untraced and traced passes alike)."""
        with _patched([
            (executor_mod, "run_task",
             functools.partial(self._run_task, executor_mod.run_task)),
            (Switch, "__init__", _registering(Switch.__init__,
                                              self._switches)),
            (TreeSwitch, "__init__", _registering(TreeSwitch.__init__,
                                                  self._switches)),
        ]):
            yield self

    @contextmanager
    def tracing(self, spans: Spans) -> Iterator[Spans]:
        """Record spans around the public functions the program calls
        into: ``task_key``, ``build_pattern_world`` and the claim
        checkers (the cache and the workloads' own calls span
        themselves)."""
        patches: List[Tuple[Any, str, Any]] = [
            (executor_mod, "task_key",
             self._spanned("task_key", executor_mod.task_key)),
            (runner_mod, "build_pattern_world",
             self._world_build(runner_mod.build_pattern_world)),
        ]
        for table in (ALL_CLAIMS, SCALING_CLAIMS):
            patches += [(table, fig_id, self._spanned("claims", check))
                        for fig_id, check in table.items()]
        self.spans = spans
        try:
            with _patched(patches):
                yield spans
        finally:
            self.spans = None

    def _spanned(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            with self.span(name):
                return fn(*args, **kwargs)
        return wrapper

    def _world_build(self, fn: Callable[..., Any]) -> Callable[..., Any]:
        @functools.wraps(fn)
        def wrapper(system: Any, cfg: Any) -> Any:
            with self.span(f"build_pattern_world.{cfg.ranks}"):
                return fn(system, cfg)
        return wrapper


@contextmanager
def _patched(patches: List[Tuple[Any, str, Any]]) -> Iterator[None]:
    """Set ``owner.name = value`` (or ``owner[name]`` for a dict) for each
    patch; restore every original on exit."""
    saved: List[Tuple[Any, str, Any]] = []
    try:
        for owner, name, value in patches:
            if isinstance(owner, dict):
                saved.append((owner, name, owner[name]))
                owner[name] = value
            else:
                saved.append((owner, name, getattr(owner, name)))
                setattr(owner, name, value)
        yield
    finally:
        for owner, name, value in reversed(saved):
            if isinstance(owner, dict):
                owner[name] = value
            else:
                setattr(owner, name, value)


def _registering(init: Callable[..., None],
                 registry: List[Any]) -> Callable[..., None]:
    @functools.wraps(init)
    def wrapper(self: Any, *args: Any, **kwargs: Any) -> None:
        init(self, *args, **kwargs)
        registry.append(self)
    return wrapper


class SeededExecutor(SweepExecutor):
    """A serial executor that runs every task with the benchmark seed in
    ``SystemConfig.seed``, so the seed reaches every generated point."""

    def __init__(self, probe: Probe, **kwargs: Any) -> None:
        super().__init__(jobs=1, **kwargs)
        self.probe = probe

    def run(self, tasks: Any, reps: Optional[int] = None,
            ci_width: Optional[float] = None) -> List[Any]:
        seed = self.probe.seed
        seeded = [t if t.system.seed == seed else dataclasses.replace(
            t, system=dataclasses.replace(t.system, seed=seed))
            for t in tasks]
        return super().run(seeded, reps=reps, ci_width=ci_width)


class TimedCache(PointCache):
    """A point cache that records a span around every read and write
    (only while tracing)."""

    def __init__(self, root: str, probe: Probe) -> None:
        super().__init__(root)
        self.probe = probe

    def get(self, key: str, kind: str) -> Any:
        with self.probe.span("PointCache.get", key[:16]):
            return super().get(key, kind)

    def put(self, key: str, kind: str, point: Any) -> None:
        with self.probe.span("PointCache.put", key[:16]):
            super().put(key, kind, point)


# ------------------------------------------------------------ self time
def _owner(filename: str) -> Optional[str]:
    """The layer owning code in ``filename``; ``None`` for code outside
    the program and the benchmark (stdlib and builtins)."""
    path = filename.replace(os.sep, "/")
    marker = "/repro/"
    at = path.rfind(marker)
    if at >= 0:
        rest = path[at + len(marker):]
        if rest == "core/executor.py":
            return "executor"
        head = rest.split("/", 1)[0]
        return head if head in LAYERS else "repro.other"
    if "/perfbench/" in path:
        return "bench"
    return None


def layer_self_times(profile: cProfile.Profile) -> Dict[str, float]:
    """cProfile ``tottime`` summed per layer.

    Functions outside the program (builtins and the standard library)
    are charged to their callers, split by the per-caller time cProfile
    records, until a caller owned by a layer is reached.
    """
    stats = pstats.Stats(profile).stats  # type: ignore[attr-defined]
    memo: Dict[Any, Dict[str, float]] = {}

    def share(func: Any, use_tt: bool, seen: frozenset) -> Dict[str, float]:
        owner = _owner(func[0])
        if owner is not None:
            return {owner: 1.0}
        memo_key = (func, use_tt)
        if memo_key in memo:
            return memo[memo_key]
        callers = stats[func][4] if func in stats else {}
        index = 2 if use_tt else 3
        total = sum(edge[index] for edge in callers.values())
        result: Dict[str, float] = {}
        if total <= 0 or func in seen:
            result = {"unowned": 1.0}
        else:
            for caller, edge in callers.items():
                for layer, frac in share(caller, False,
                                         seen | {func}).items():
                    result[layer] = (result.get(layer, 0.0)
                                     + frac * edge[index] / total)
        memo[memo_key] = result
        return result

    totals: Dict[str, float] = {}
    for func, (_cc, _nc, tottime, _ct, _callers) in stats.items():
        for layer, frac in share(func, True, frozenset()).items():
            totals[layer] = totals.get(layer, 0.0) + tottime * frac
    return totals
