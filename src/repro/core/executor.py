"""Sweep execution layer: parallel point fan-out + persistent point cache.

Every COMB figure is a parameter sweep whose points run on fresh,
independent, deterministic worlds (see :mod:`repro.core.sweep`), so the
suite's hot loop is embarrassingly parallel *and* perfectly memoizable.
This module exploits both properties:

* :class:`SweepExecutor` fans a list of :class:`PointTask` records out
  over a spawn-safe :mod:`multiprocessing` pool (``jobs > 1``) or runs
  them inline (``jobs=1``, the default).  Results are assembled in task
  order, so the pool path is bit-identical to the serial path.
* :class:`PointCache` is a content-addressed on-disk store: the key is a
  stable SHA-256 over the full :class:`~repro.config.SystemConfig`, the
  method config, the method kind, and a code-version salt hashed from the
  simulator's source files.  Re-generating a figure only simulates points
  the cache has never seen; editing any simulator source invalidates every
  stale record automatically.
* An in-process memo table (always on) deduplicates identical points
  *within* a run — overlapping figures (e.g. Figs 4/5 share one polling
  sweep; Figs 14–17 re-sweep the same grids) pay for each point once.

Executor resolution is layered: an explicit ``executor=`` argument wins,
then the innermost :func:`use_executor` context, then a lazily-created
process-wide serial default.  Library code therefore never *needs* to
know about executors, while drivers (CLI, ``reproduce_paper.py``) opt in
to parallelism and persistence with two flags.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import multiprocessing
import multiprocessing.pool
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache, partial
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import (
    Any, Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple,
    Union,
)

from ..config import SystemConfig
from ..obs import live as _live
from ..obs.context import current_observer
from ..obs.lifecycle import (
    MetricsProfile,
    PointRecords,
    Subscriber,
    TelemetryFeed,
    TraceMarkers,
    publish,
)
from ..obs.live import TelemetryChannel
from ..obs.metrics import MetricsRegistry

# Submodule imports only (never package-level ``..patterns``): the
# patterns package imports core submodules, so importing its package
# __init__ from here would cycle.
from ..patterns.config import PatternConfig
from ..patterns.results import PatternPoint
from ..patterns.runner import run_pattern
from ..stats import (
    Disagreement,
    StoppingRule,
    find_disagreements,
    is_stochastic,
    replicate_system,
    summarize_replicates,
)
from .accounting import drain_events
from .polling import PollingConfig, run_polling
from .pww import PwwConfig, run_pww
from .results import PollingPoint, PwwPoint

#: Any method's per-point result record.
Point = Union[PollingPoint, PwwPoint, PatternPoint]

#: Default location of the on-disk point cache (relative to the CWD).
DEFAULT_CACHE_DIR = ".comb_cache"

#: Bump to invalidate every existing cache record regardless of source
#: hashing (e.g. when the *record format* below changes).
CACHE_SCHEMA_VERSION = 1

#: Method kind → (config type, runner, result type).
_METHODS = {
    "polling": (PollingConfig, run_polling, PollingPoint),
    "pww": (PwwConfig, run_pww, PwwPoint),
    "pattern": (PatternConfig, run_pattern, PatternPoint),
}


@dataclass(frozen=True)
class PointTask:
    """One sweep point: a method kind bound to its full configuration.

    Plain picklable data — safe to ship to a spawn-context worker.
    """

    kind: str
    system: SystemConfig
    cfg: Union[PollingConfig, PwwConfig, PatternConfig]

    def __post_init__(self) -> None:
        if self.kind not in _METHODS:
            raise ValueError(
                f"unknown method kind {self.kind!r}; have {sorted(_METHODS)}"
            )


def run_task(task: PointTask) -> Point:
    """Execute one task on a fresh world (also the pool worker entry)."""
    _cfg_type, runner, _pt_type = _METHODS[task.kind]
    return runner(task.system, task.cfg)


def _point_marker(task: PointTask) -> Tuple[str, str, int, int, int]:
    """``point_start`` detail: ``(kind, system, msg_bytes, interval_iters,
    warmup_windows)``.  Polling self-describes its window (``poll_window``
    events), so its warmup count is 0."""
    cfg = task.cfg
    if isinstance(cfg, PwwConfig):
        return (task.kind, task.system.name, cfg.msg_bytes,
                cfg.work_interval_iters, cfg.warmup_batches)
    if isinstance(cfg, PatternConfig):
        return (task.kind, task.system.name, cfg.msg_bytes,
                cfg.work_interval_iters, cfg.warmup_iterations)
    return (task.kind, task.system.name, cfg.msg_bytes,
            cfg.poll_interval_iters, 0)


def _sim_entry(
    task_and_key: Tuple[PointTask, str], check: bool = False
) -> Tuple[Point, List[Any], float, int]:
    """Uniform worker entry: ``(point, violations, wall_s, events)``.

    Module-level so ``functools.partial`` of it pickles into the spawn
    pool.  Runs in the simulating process (pool worker, or the parent on
    the serial path): ``wall_s`` is measured there, so pool timings
    profile simulation cost, not dispatch latency; ``events`` is that
    process's engine event tally, drained so pooled counts travel back
    with their points.  The live telemetry hooks are no-ops unless the
    process is armed as an emitter.  With ``check`` the point runs under
    the simulation sanitizer, whose violations (frozen dataclasses of
    primitives) ship back intact.  The point is bit-identical in every
    mode.
    """
    task, key = task_and_key
    kind, system, msg_bytes, interval_iters, _warmup_windows = (
        _point_marker(task)
    )
    _live.note_point_start(key, kind, {
        "system": system,
        "msg_bytes": msg_bytes,
        "interval_iters": interval_iters,
    })
    t0_wall = time.perf_counter()
    if check:
        from ..verify import Sanitizer, use_sanitizer

        sanitizer = Sanitizer()
        with use_sanitizer(sanitizer):
            point = run_task(task)
        violations = sanitizer.finalize()
    else:
        point, violations = run_task(task), []
    wall_s = time.perf_counter() - t0_wall
    _live.note_point_end(key, kind, wall_s)
    return point, violations, wall_s, drain_events()


# --------------------------------------------------------------------- keys
# A cache key hashes the canonical JSON text of its task: every dataclass
# an object of its fields, enums their values, sequences arrays, keys
# sorted, written exactly as ``json.dumps(..., sort_keys=True,
# separators=(",", ":"))`` writes them.  The encoder below writes that
# text directly.  Encoders are chosen by exact type (dataclass types get
# their sorted field plan once), and a frozen config keeps its text as
# an attribute of its own (set with ``object.__setattr__``, as a frozen
# dataclass's ``__init__`` sets its fields), so the sub-configs every
# task of a figure shares are encoded once, not once per lookup.  Frozen
# fields never change, so the text stays valid; it lives exactly as long
# as its config.  The instance ``__dict__`` is never touched: CPython
# builds it on first access, after which every attribute read of that
# config (the simulation reads them constantly) gets about 3x slower.
# There is deliberately no memo keyed by value: configs that compare
# equal can still differ in leaf type (``4096`` vs ``4096.0``) and
# therefore in key.

#: Attribute holding a frozen config's text.  Not an identifier, so it
#: can never shadow a field.
_TEXT_ATTR = "<task_key text>"

_INF = float("inf")


def _float_text(value: float) -> str:
    """``json.dumps``'s spelling of a float."""
    if value != value:
        return "NaN"
    if value == _INF:
        return "Infinity"
    if value == -_INF:
        return "-Infinity"
    return float.__repr__(value)


def _members(pairs: Iterable[Tuple[str, str]]) -> str:
    """A JSON object from ``(name, encoded value)`` pairs in key order."""
    return "{" + ",".join([
        encode_basestring_ascii(name) + ":" + text for name, text in pairs
    ]) + "}"


def _encode_seq(value: Sequence[Any]) -> str:
    return "[" + ",".join(map(_encode, value)) + "]"


def _encode_dict(value: Dict[Any, Any]) -> str:
    keyed = {str(k): v for k, v in sorted(value.items())}
    return _members((k, _encode(v)) for k, v in sorted(keyed.items()))


def _encode_enum(value: Enum) -> str:
    return _encode(value.value)


def _immutable(value: Any) -> bool:
    """Can ``value``'s text never change (so a frozen parent may keep
    its own)?  Leaves, enums, tuples of such, and configs holding text."""
    if type(value) in _IMMUTABLE_LEAVES or isinstance(value, Enum):
        return True
    if type(value) is tuple:
        return all(map(_immutable, value))
    return getattr(value, _TEXT_ATTR, None) is not None


def _encode_dataclass(
    frozen: bool, plan: Tuple[Tuple[str, str], ...], value: Any
) -> str:
    """A dataclass's text from its type's ``(prefix, field)`` plan; a
    frozen one keeps it when nothing inside can change."""
    if frozen:
        text = getattr(value, _TEXT_ATTR, None)
        if text is not None:
            return text
    keep = frozen
    text = ""
    for prefix, name in plan:  # the hot loop: leaves skip _encode
        field_value = getattr(value, name)
        cls = type(field_value)
        if cls in _IMMUTABLE_LEAVES:
            text += prefix + _LEAVES[cls](field_value)
            continue
        field_text = getattr(field_value, _TEXT_ATTR, None)
        if field_text is None:
            field_text = _encode(field_value)
            keep = keep and _immutable(field_value)
        text += prefix + field_text
    text = text + "}" if plan else "{}"
    if keep:
        try:
            object.__setattr__(value, _TEXT_ATTR, text)
        except AttributeError:  # ``__slots__`` leave no room: re-encode
            pass
    return text


@lru_cache(maxsize=None)
def _encoder_for(cls: type) -> Callable[[Any], str]:
    """The encoder for a type outside :data:`_LEAVES`, chosen in the
    precedence of the reference ``_jsonable`` + ``json.dumps``."""
    if dataclasses.is_dataclass(cls):
        names = sorted(f.name for f in dataclasses.fields(cls))
        plan = tuple(
            (("{" if i == 0 else ",") + encode_basestring_ascii(name) + ":",
             name)
            for i, name in enumerate(names)
        )
        frozen = getattr(cls, "__dataclass_params__").frozen
        return partial(_encode_dataclass, frozen, plan)
    if issubclass(cls, Enum):
        return _encode_enum
    if issubclass(cls, (list, tuple)):
        return _encode_seq
    if issubclass(cls, dict):
        return _encode_dict
    if issubclass(cls, str):
        return encode_basestring_ascii
    if issubclass(cls, int):
        return int.__repr__
    if issubclass(cls, float):
        return _float_text
    raise TypeError(f"Object of type {cls.__name__} is not JSON serializable")


def _encode(value: Any) -> str:
    """Canonical JSON text of a config value (see the section comment)."""
    encoder = _LEAVES.get(type(value))
    if encoder is None:
        encoder = _encoder_for(type(value))
    return encoder(value)


#: Leaf types whose text can never change.
_IMMUTABLE_LEAVES = (str, int, float, bool, type(None))

#: Exact type → encoder for the JSON leaves and plain containers.
_LEAVES: Dict[type, Callable[[Any], str]] = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    float: _float_text,
    bool: lambda value: "true" if value else "false",
    type(None): lambda _value: "null",
    list: _encode_seq,
    tuple: _encode_seq,
    dict: _encode_dict,
}


#: Simulator packages/modules whose source determines point values.  The
#: analysis/plotting layers are deliberately excluded: they postprocess
#: points but never influence them.
_SALT_SOURCES = ("sim", "hardware", "transport", "os", "mpi", "core",
                 "patterns", "config.py")

_code_salt: Optional[str] = None


def code_salt() -> str:
    """Hash of the simulator's source files (computed once per process).

    Any edit to the DES kernel, hardware models, transports, MPI layer, or
    the COMB methods changes the salt and therefore every cache key —
    stale records can never be returned after a code change.
    """
    global _code_salt
    if _code_salt is None:
        root = Path(__file__).resolve().parent.parent  # src/repro
        h = hashlib.sha256()
        for entry in _SALT_SOURCES:
            path = root / entry
            files = sorted(path.rglob("*.py")) if path.is_dir() else [path]
            for f in files:
                h.update(str(f.relative_to(root)).encode())
                h.update(f.read_bytes())
        _code_salt = h.hexdigest()[:16]
    return _code_salt


def task_key(task: PointTask, salt: Optional[str] = None) -> str:
    """Stable content hash of a task (the cache key).

    SHA-256 of the canonical JSON text of the document below; each part
    is encoded on its own and spliced in sorted key order.
    """
    doc = {
        "schema": _encode(CACHE_SCHEMA_VERSION),
        "salt": _encode(salt if salt is not None else code_salt()),
        "kind": _encode(task.kind),
        "system": _encode(task.system),
        "cfg": _encode(task.cfg),
    }
    blob = _members(sorted(doc.items()))
    return hashlib.sha256(blob.encode()).hexdigest()


# -------------------------------------------------------------------- cache
@dataclass
class CacheStats:
    """Hit/miss counters for one executor lifetime."""

    hits: int = 0
    misses: int = 0
    #: Corrupt on-disk records evicted during this executor's lookups.
    evictions: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from cache (0.0 when idle)."""
        return self.hits / self.lookups if self.lookups else 0.0

    def to_dict(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "hit_rate": self.hit_rate,
        }


class PointCache:
    """Content-addressed on-disk store of measurement points.

    Layout: one JSON record per point under ``root``, named
    ``<sha256>.json`` and sharded by the first two hex digits::

        .comb_cache/ab/abcdef….json

    Records carry the method kind and the full result dataclass; floats
    survive the JSON round-trip exactly (shortest-repr doubles), so a
    cache hit is bit-identical to a fresh simulation.
    """

    def __init__(self, root: Union[str, Path] = DEFAULT_CACHE_DIR) -> None:
        self.root = Path(root)
        #: Corrupt records detected (and removed) over this cache's lifetime.
        self.evictions = 0

    def _path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    def get(self, key: str, kind: str) -> Optional[Point]:
        """Return the stored point for ``key``, or ``None``.

        Corrupt records — truncated writes, hand-edited garbage, or JSON
        of the wrong shape — are treated as misses *and deleted*, so one
        bad file costs one recompute instead of poisoning every future
        lookup of its key.
        """
        path = self._path(key)
        try:
            text = path.read_text()
        except OSError:
            return None
        try:
            doc = json.loads(text)
            if not isinstance(doc, dict):
                raise ValueError("record is not a JSON object")
            if doc.get("kind") != kind:  # key collision across kinds:
                return None  # impossible, but never mis-deserialize
            _cfg_type, _runner, pt_type = _METHODS[kind]
            return pt_type(**doc["point"])
        except (ValueError, KeyError, TypeError):
            self._evict_corrupt(path)
            return None

    def _evict_corrupt(self, path: Path) -> None:
        """Best-effort removal of an unreadable record (always counted)."""
        self.evictions += 1
        try:
            path.unlink()
        except OSError:  # pragma: no cover - racing eviction is fine
            pass

    def put(self, key: str, kind: str, point: Point) -> None:
        """Store ``point`` under ``key`` (atomic rename, racer-safe)."""
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = {"kind": kind, "point": dataclasses.asdict(point)}
        tmp = path.with_suffix(f".tmp.{os.getpid()}")
        tmp.write_text(json.dumps(doc, sort_keys=True))
        os.replace(tmp, path)

    def clear(self) -> int:
        """Delete every record; returns the number removed."""
        n = 0
        if self.root.is_dir():
            for f in self.root.rglob("*.json"):
                f.unlink()
                n += 1
        return n

    def __len__(self) -> int:
        return sum(1 for _ in self.root.rglob("*.json")) if self.root.is_dir() else 0


# ----------------------------------------------------------------- executor
class SweepExecutor:
    """Runs batches of independent sweep points, optionally in parallel
    and optionally against a persistent cache.

    Parameters
    ----------
    jobs:
        Worker processes.  ``1`` (default) runs points inline — the
        reference code path; ``N > 1`` fans cache misses out over a
        spawn-context pool.  Both paths assemble results in task order,
        so they are bit-identical.
    cache:
        ``None`` (default) disables the on-disk cache; a :class:`PointCache`
        or a path enables it.  Completed points are also memoized in
        process, an intra-run dedup that determinism makes
        value-transparent.
    check:
        Run every simulated point under the simulation sanitizer
        (:mod:`repro.verify`) and collect invariant violations into
        :attr:`violations`.  Observation-only: checked points are
        bit-identical to unchecked ones.  Off by default — the default
        path never imports or touches the verify package.
    reps:
        Replicate cap per sweep point.  ``1`` (default) is the classic
        single-shot path, bit-identical to the pre-replication executor.
        ``N > 1`` runs each point as replicated sub-runs on named RNG
        substreams (replicate 0 keeps the root seed and therefore the
        single-shot cache key) and returns one aggregated point per task
        carrying a ``replication`` summary.
    ci_width:
        Adaptive stopping tolerance: with ``reps > 1``, stop replicating
        a point once the bootstrap CI of its availability is at most
        this wide (never exceeding the ``reps`` cap).  ``None``
        (default) runs the fixed design of exactly ``reps`` replicates.
        Ignored when ``reps == 1``.
    metrics, telemetry, point_log:
        Observers of one point-lifecycle event stream (see
        :mod:`repro.obs.lifecycle`), each a subscriber: a metrics
        registry gets the wall-clock stage profile, a telemetry channel
        the live stream, and ``point_log`` fills :attr:`point_records`
        (the run ledger's feed).  An ambient observer's tracer gets
        point markers.  The points themselves are never touched.
    """

    def __init__(
        self,
        jobs: int = 1,
        cache: Union[None, str, Path, PointCache] = None,
        check: bool = False,
        metrics: Optional[MetricsRegistry] = None,
        reps: int = 1,
        ci_width: Optional[float] = None,
        telemetry: Optional[TelemetryChannel] = None,
        point_log: bool = False,
    ) -> None:
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        if reps < 1:
            raise ValueError("reps must be >= 1")
        self.jobs = jobs
        if cache is not None and not isinstance(cache, PointCache):
            cache = PointCache(cache)
        self.cache = cache
        self.check = check
        self.metrics = metrics
        self.reps = reps
        self.ci_width = ci_width
        #: Per-point outcome records (``point_log``): the ledger's input.
        self.point_records: List[Dict[str, Any]] = []
        #: Lifecycle observers built from the arguments above.
        self.subscribers: List[Subscriber] = []
        if metrics is not None:
            self.subscribers.append(MetricsProfile(metrics))
        if point_log:
            self.subscribers.append(PointRecords(self.point_records))
        if telemetry is not None:
            self.subscribers.append(TelemetryFeed(telemetry))
        self.stats = CacheStats()
        #: Violations collected from checked simulations (``check=True``).
        self.violations: List[Any] = []
        #: Replica disagreements: deterministic points whose replicates
        #: diverged bit-level — sanitizer escapes (see ``repro.stats``).
        self.disagreements: List[Disagreement] = []
        self._memo: Dict[str, Any] = {}
        self._pool: Optional[multiprocessing.pool.Pool] = None
        self._pool_size = 0
        self._evictions_base = cache.evictions if cache is not None else 0

    # ------------------------------------------------------------- lifecycle
    def close(self) -> None:
        """Shut the worker pool down and release subscribers (idempotent)."""
        if self._pool is not None:
            self._pool.terminate()
            self._pool.join()
            self._pool = None
        for subscriber in self.subscribers:
            subscriber.close()

    def __enter__(self) -> "SweepExecutor":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - GC safety net
        try:
            self.close()
        except Exception:
            pass

    def _get_pool(self, want: int) -> multiprocessing.pool.Pool:
        """Lazily create (and reuse) the spawn-context worker pool."""
        if self._pool is None:
            ctx = multiprocessing.get_context("spawn")
            self._pool_size = min(self.jobs, max(want, 1))
            # A subscriber may arm every worker (the telemetry queue
            # ships through initargs, the only way into a spawn worker).
            init = next((s.pool_init for s in self.subscribers
                         if s.pool_init), ())
            self._pool = ctx.Pool(self._pool_size, *init)
        return self._pool

    def publish(self, kind: str, **fields: Any) -> None:
        """Hand a lifecycle event (e.g. a figure bracket) to subscribers."""
        publish(self.subscribers, kind, **fields)

    # ------------------------------------------------------------- execution
    def run(
        self,
        tasks: Sequence[PointTask],
        reps: Optional[int] = None,
        ci_width: Optional[float] = None,
    ) -> List[Any]:
        """Run every task, returning points in task order.

        Cache/memo hits are returned as fresh copies (no aliasing between
        calls); misses are simulated — in parallel when ``jobs > 1`` —
        and written back to the cache.

        ``reps`` / ``ci_width`` override the executor-level replication
        settings for this batch.  With an effective ``reps > 1`` each
        task becomes a replicated measurement (see
        :meth:`_run_replicated`); otherwise this is the single-shot path,
        byte-for-byte the pre-replication executor.
        """
        eff_reps = self.reps if reps is None else reps
        eff_ci = self.ci_width if ci_width is None else ci_width
        if eff_reps > 1:
            return self._run_replicated(list(tasks), eff_reps, eff_ci)
        return self._run_base(tasks)

    def _run_base(self, tasks: Sequence[PointTask]) -> List[Any]:
        """Single-shot execution: one simulation (or cache hit) per task."""
        salt = code_salt()
        subs = self.subscribers
        obs = current_observer()  # an ambient tracer gets point markers
        if obs is not None and obs.tracer is not None:
            subs = subs + [TraceMarkers(obs.tracer)]
        results: List[Any] = [None] * len(tasks)
        pending: List[Tuple[int, str, PointTask]] = []
        first_for_key: Dict[str, int] = {}
        duplicates: List[Tuple[int, int]] = []
        hit_s: List[float] = []
        miss_s: List[float] = []
        evictions_before = self.stats.evictions
        for i, task in enumerate(tasks):
            key = task_key(task, salt)
            if key in first_for_key:
                # Duplicate of a pending miss in this very batch: simulate
                # once, copy after — and keep it out of the hit/miss stats
                # so ``misses`` always equals the number of simulations.
                duplicates.append((i, first_for_key[key]))
                publish(subs, "point_cached", key=key, task=task,
                        outcome="duplicate")
                continue
            t0_wall = time.perf_counter()
            point = self._lookup(key, task.kind)
            wall_s = time.perf_counter() - t0_wall
            if point is not None:
                results[i] = point
                hit_s.append(wall_s)
                publish(subs, "point_cached", key=key, task=task,
                        outcome="hit")
            else:
                miss_s.append(wall_s)
                first_for_key[key] = i
                pending.append((i, key, task))

        pooled = self.jobs > 1 and len(pending) > 1
        if pooled:
            self._get_pool(len(pending))
        publish(subs, "batch", n_tasks=len(tasks), n_hits=len(hit_s),
                n_pending=len(pending), hit_s=hit_s, miss_s=miss_s,
                evicted=self.stats.evictions - evictions_before,
                slots=self._pool_size if pooled else 1)
        if pending:
            self._simulate(pending, results, pooled, subs)
        for i, j in duplicates:
            results[i] = dataclasses.replace(results[j])
        return results

    def run_one(self, task: PointTask) -> Point:
        """Convenience wrapper: run a single task."""
        return self.run([task])[0]

    # ----------------------------------------------------------- replication
    @staticmethod
    def _replicate_task(task: PointTask, index: int) -> PointTask:
        """``task`` reseeded for replicate ``index``.

        Replicate 0 is the task itself — same seed, same cache key — so
        warm single-shot caches feed replicated runs and vice versa.
        """
        if index == 0:
            return task
        return dataclasses.replace(
            task, system=replicate_system(task.system, index)
        )

    def _run_replicated(
        self, tasks: List[PointTask], reps: int, ci_width: Optional[float]
    ) -> List[Any]:
        """Run each task as replicated sub-runs on named RNG substreams.

        Rounds of replicates are batched *across* points (one
        :meth:`_run_base` call per round) so the worker pool stays full
        even in adaptive designs.  Raw replicate points are cached
        individually by :meth:`_run_base`; the aggregated points returned
        here (replicate 0 plus a ``replication`` summary) are recomputed
        per run and never cached, so two invocations over the same cache
        report identical summaries.
        """
        rule = StoppingRule(max_reps=reps, ci_width=ci_width)
        results: List[Any] = [None] * len(tasks)
        first_for_key: Dict[str, int] = {}
        duplicates: List[Tuple[int, int]] = []
        active: List[Tuple[int, PointTask]] = []
        salt = code_salt()
        for i, task in enumerate(tasks):
            key = task_key(task, salt)
            if key in first_for_key:
                duplicates.append((i, first_for_key[key]))
                continue
            first_for_key[key] = i
            active.append((i, task))

        samples: Dict[int, List[Any]] = {i: [] for i, _task in active}
        while active:
            batch: List[PointTask] = []
            owners: List[int] = []
            for i, task in active:
                have = len(samples[i])
                target = rule.initial_reps if have == 0 else have + 1
                for r in range(have, target):
                    batch.append(self._replicate_task(task, r))
                    owners.append(i)
            for owner, point in zip(owners, self._run_base(batch)):
                samples[owner].append(point)
            still: List[Tuple[int, PointTask]] = []
            for i, task in active:
                verdict = rule.decide(
                    [p.availability for p in samples[i]]
                )
                if verdict is None:
                    still.append((i, task))
                else:
                    results[i] = self._aggregate(task, samples[i], verdict)
            active = still
        for i, j in duplicates:
            results[i] = dataclasses.replace(results[j])
        return results

    def _aggregate(
        self, task: PointTask, points: Sequence[Any], reason: str
    ) -> Any:
        """Fold one point's replicates into replicate 0 + summary.

        On deterministic systems every replicate must reproduce replicate
        0 bit for bit; divergences are recorded in
        :attr:`disagreements`.  Stochastic systems (fault injection
        armed) skip the check — their replicates legitimately differ and
        carry genuine CIs instead.
        """
        docs = [p.to_dict() for p in points]
        n_disagreements = 0
        if not is_stochastic(task.system):
            for index, fields in find_disagreements(docs):
                n_disagreements += 1
                self.disagreements.append(Disagreement(
                    kind=task.kind,
                    system=task.system.name,
                    replicate_index=index,
                    fields=fields,
                ))
        summary = summarize_replicates(
            docs, reason, disagreements=n_disagreements
        )
        self.publish("replicated", reps=len(points), reason=reason,
                     disagreements=n_disagreements)
        return dataclasses.replace(points[0], replication=summary)

    # -------------------------------------------------------------- plumbing
    def _lookup(self, key: str, kind: str) -> Optional[Point]:
        if key in self._memo:
            self.stats.hits += 1
            return dataclasses.replace(self._memo[key])
        if self.cache is not None:
            point = self.cache.get(key, kind)
            self.stats.evictions = self.cache.evictions - self._evictions_base
            if point is not None:
                self.stats.hits += 1
                self._memo[key] = dataclasses.replace(point)
                return point
        self.stats.misses += 1
        return None

    def _store(self, key: str, kind: str, point: Point) -> None:
        self._memo[key] = dataclasses.replace(point)
        if self.cache is not None:
            self.cache.put(key, kind, point)

    def _simulate(
        self,
        pending: Sequence[Tuple[int, str, PointTask]],
        results: List[Any],
        pooled: bool,
        subs: List[Subscriber],
    ) -> None:
        """Simulate a batch's misses (pooled or inline) into ``results``
        and the cache, in task order."""
        jobs = [(task, key) for _i, key, task in pending]
        entry = partial(_sim_entry, check=self.check)
        raw: Iterable[Tuple[Point, List[Any], float, int]]
        if pooled:
            assert self._pool is not None
            # chunksize=1: tasks are coarse (whole simulations); dynamic
            # dispatch balances wildly uneven point costs.  pool.map keeps
            # result order == task order, preserving determinism.
            raw = self._pool.map(entry, jobs, chunksize=1)
        else:
            def inline() -> Iterator[Tuple[Point, List[Any], float, int]]:
                for task, key in jobs:  # announced as this process starts it
                    publish(subs, "point_start", key=key, task=task,
                            marker=_point_marker(task))
                    yield entry((task, key))

            raw = inline()
        for (i, key, task), (point, violations, wall_s, events) in zip(
                pending, raw):
            results[i] = point
            self._store(key, task.kind, point)
            self.violations.extend(violations)
            publish(subs, "point_end", key=key, task=task, wall_s=wall_s,
                    events=events)


# --------------------------------------------------------- default resolution
_default_executor: Optional[SweepExecutor] = None
_active_stack: List[SweepExecutor] = []


def default_executor() -> SweepExecutor:
    """The process-wide serial executor (created on first use)."""
    global _default_executor
    if _default_executor is None:
        _default_executor = SweepExecutor(jobs=1, cache=None)
    return _default_executor


def current_executor(explicit: Optional[SweepExecutor] = None) -> SweepExecutor:
    """Resolve the executor for a sweep call.

    Priority: explicit argument > innermost :func:`use_executor` context >
    process-wide serial default.
    """
    if explicit is not None:
        return explicit
    if _active_stack:
        return _active_stack[-1]
    return default_executor()


@contextmanager
def use_executor(executor: Optional[SweepExecutor]) -> Iterator[Optional[SweepExecutor]]:
    """Make ``executor`` ambient for the dynamic extent of the block.

    ``None`` is accepted (and is a no-op) so callers can write
    ``with use_executor(maybe_executor):`` unconditionally.
    """
    if executor is None:
        yield None
        return
    _active_stack.append(executor)
    try:
        yield executor
    finally:
        _active_stack.pop()
