"""Determinism rules DET001–DET005.

COMB's headline artifact is a set of bit-reproducible overlap curves; a
single wall-clock read or unseeded random draw inside the simulation
perturbs event timestamps or ordering and silently changes every number
downstream.  These rules reject the known nondeterminism sources at
review time, inside the simulation packages (``sim``, ``mpi``,
``transport``, ``hardware``, ``os``) where they can do damage.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional, Set, Tuple

from .flow import Analysis, Env, Report, function_defs, run_analysis
from .model import FileContext, LintViolation
from .rules import FileRule, register

#: Wall-clock time sources (canonical dotted names).
WALL_CLOCK_CALLS: Set[str] = {
    "time.time",
    "time.time_ns",
    "time.monotonic",
    "time.monotonic_ns",
    "time.perf_counter",
    "time.perf_counter_ns",
    "time.process_time",
    "time.process_time_ns",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.datetime.today",
    "datetime.date.today",
}

#: Unseeded / process-global entropy sources.
GLOBAL_RNG_EXACT: Set[str] = {
    "os.urandom",
    "uuid.uuid1",
    "uuid.uuid4",
    "numpy.random.RandomState",
    "numpy.random.seed",
}
GLOBAL_RNG_PREFIXES: Tuple[str, ...] = (
    "random.",
    "secrets.",
    "numpy.random.",
)

#: Dunders whose output never feeds simulation state; ``id()`` in a repr
#: is a debugging aid, not a determinism hazard.
_REPR_DUNDERS: Set[str] = {"__repr__", "__str__", "__hash__", "__format__"}


@register
class WallClockRule(FileRule):
    """DET001: no wall-clock reads inside the simulation."""

    rule_id = "DET001"
    summary = (
        "wall-clock read in simulation code; use the engine's virtual "
        "clock (Engine.now / timeouts)"
    )

    def check(self, ctx: FileContext) -> Iterator[LintViolation]:
        if not ctx.sim_scope:
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            name = ctx.dotted_name(node.func)
            if name in WALL_CLOCK_CALLS:
                yield ctx.make_violation(
                    self.rule_id,
                    node,
                    f"{name}() reads the wall clock; simulation code must "
                    "use engine virtual time (Engine.now)",
                )


@register
class GlobalRngRule(FileRule):
    """DET002: no global/unseeded RNG inside the simulation."""

    rule_id = "DET002"
    summary = (
        "global or unseeded RNG in simulation code; draw from a "
        "repro.sim.rng.RngRegistry named substream"
    )

    def check(self, ctx: FileContext) -> Iterator[LintViolation]:
        if not ctx.sim_scope:
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            name = ctx.dotted_name(node.func)
            if name is None:
                continue
            if name == "numpy.random.default_rng":
                if not node.args and not node.keywords:
                    yield ctx.make_violation(
                        self.rule_id,
                        node,
                        "numpy.random.default_rng() without a seed is "
                        "entropy-seeded; derive the seed from an "
                        "RngRegistry named substream",
                    )
                continue
            if name in GLOBAL_RNG_EXACT or name.startswith(
                GLOBAL_RNG_PREFIXES
            ):
                yield ctx.make_violation(
                    self.rule_id,
                    node,
                    f"{name}() draws from process-global entropy; use "
                    "repro.sim.rng.RngRegistry named substreams so adding "
                    "a consumer never perturbs existing streams",
                )


@register
class SetIterationRule(FileRule):
    """DET003: no iteration over a bare ``set`` in simulation paths.

    Set iteration order depends on insertion history and on the
    per-process string hash seed — the spawn-pool workers and the serial
    path would disagree.  ``sorted(the_set)`` is the sanctioned form.
    """

    rule_id = "DET003"
    summary = (
        "iteration over a bare set in simulation code; order is "
        "hash-seed dependent — wrap in sorted()"
    )

    _CONSUMERS: Set[str] = {"list", "tuple", "enumerate"}

    def check(self, ctx: FileContext) -> Iterator[LintViolation]:
        if not ctx.order_scope:
            return
        set_names = self._set_typed_names(ctx)
        for node in ast.walk(ctx.tree):
            if isinstance(node, (ast.For, ast.AsyncFor)):
                yield from self._flag_if_setish(ctx, node.iter, set_names)
            elif isinstance(
                node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
            ):
                for gen in node.generators:
                    yield from self._flag_if_setish(ctx, gen.iter, set_names)
            elif isinstance(node, ast.Call):
                name = ctx.dotted_name(node.func)
                if name in self._CONSUMERS and node.args:
                    yield from self._flag_if_setish(
                        ctx, node.args[0], set_names
                    )

    @staticmethod
    def _set_typed_names(ctx: FileContext) -> Set[str]:
        """Names assigned a set literal / set() call anywhere in the file."""
        names: Set[str] = set()
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Assign):
                continue
            if not SetIterationRule._is_set_expr(node.value, ctx):
                continue
            for target in node.targets:
                if isinstance(target, ast.Name):
                    names.add(target.id)
        return names

    @staticmethod
    def _is_set_expr(node: ast.AST, ctx: FileContext) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Call):
            return ctx.dotted_name(node.func) in {"set", "frozenset"}
        return False

    def _flag_if_setish(
        self, ctx: FileContext, expr: ast.AST, set_names: Set[str]
    ) -> Iterator[LintViolation]:
        setish = self._is_set_expr(expr, ctx) or (
            isinstance(expr, ast.Name) and expr.id in set_names
        )
        if setish:
            yield ctx.make_violation(
                self.rule_id,
                expr,
                "iteration order over a set depends on the per-process "
                "hash seed; iterate sorted(...) instead",
            )


@register
class HashSeedRule(FileRule):
    """DET004: no ``hash()``/``id()`` values in simulation logic.

    String hashing is randomized per process (PYTHONHASHSEED), and
    ``id()`` is an allocation address: both differ between the serial
    path and spawn-pool workers, so any value derived from them breaks
    the executor's bit-identity guarantee.  Reprs are exempt.
    """

    rule_id = "DET004"
    summary = (
        "hash()/id() value used in simulation code; both are "
        "per-process — derive ordering keys from stable fields"
    )

    def check(self, ctx: FileContext) -> Iterator[LintViolation]:
        if not ctx.order_scope:
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            name = ctx.dotted_name(node.func)
            if name not in {"hash", "id"}:
                continue
            symbol = ctx.symbol_at(node.lineno)
            if symbol.rpartition(".")[2] in _REPR_DUNDERS:
                continue
            yield ctx.make_violation(
                self.rule_id,
                node,
                f"{name}() is per-process (hash seed / heap layout); "
                "simulation logic must not depend on it",
            )


#: Set-producing / set-preserving / order-restoring call tails.
_SET_MAKERS: Set[str] = {"set", "frozenset"}
_SET_METHODS: Set[str] = {
    "union", "intersection", "difference", "symmetric_difference", "copy",
}
_ORDER_PRESERVERS: Set[str] = {"list", "tuple", "iter", "reversed"}
_DICT_VIEW_METHODS: Set[str] = {"keys", "values", "items"}

#: Call tails that consume their arguments into an order-sensitive
#: artifact: cache keys, golden/trace output, digests.
_ORDER_SINK_TAILS: Set[str] = {
    "dumps", "dump", "task_key", "join", "heappush",
}
_ORDER_SINK_PREFIXES: Tuple[str, ...] = ("hashlib.",)

_UNORDERED = frozenset({"unordered"})


class _OrderAnalysis(Analysis):
    """Propagates an ``unordered`` tag through assignments and set algebra."""

    def __init__(self, ctx: FileContext) -> None:
        self.ctx = ctx
        self.sinks: List[Tuple[ast.AST, str]] = []

    def seed(self, fn: "ast.FunctionDef | ast.AsyncFunctionDef") -> Env:
        env: Env = {}
        args = fn.args
        for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs):
            ann = arg.annotation
            if ann is None:
                continue
            target = ann.value if isinstance(ann, ast.Subscript) else ann
            name = (self.ctx.dotted_name(target) or "").rpartition(".")[2]
            if name in {"Set", "FrozenSet", "set", "frozenset"}:
                env[arg.arg] = _UNORDERED
        return env

    def transfer(
        self, item: ast.AST, env: Env, report: Optional[Report]
    ) -> None:
        if isinstance(item, ast.Assign):
            tag = self._eval(item.value, env, report)
            for target in item.targets:
                if isinstance(target, ast.Name):
                    if tag:
                        env[target.id] = _UNORDERED
                    else:
                        env.pop(target.id, None)
        elif isinstance(item, ast.AnnAssign):
            if item.value is not None and isinstance(item.target, ast.Name):
                if self._eval(item.value, env, report):
                    env[item.target.id] = _UNORDERED
                else:
                    env.pop(item.target.id, None)
        elif isinstance(item, (ast.For, ast.AsyncFor)):
            self._eval(item.iter, env, report)
            for node in ast.walk(item.target):
                if isinstance(node, ast.Name):
                    env.pop(node.id, None)
        elif isinstance(item, ast.stmt):
            for expr in ast.iter_child_nodes(item):
                if isinstance(expr, ast.expr):
                    self._eval(expr, env, report)
        elif isinstance(item, ast.expr):
            self._eval(item, env, report)

    def _eval(
        self, node: ast.expr, env: Env, report: Optional[Report]
    ) -> bool:
        """True when ``node`` evaluates to an unordered collection."""
        if isinstance(node, ast.Name):
            return env.get(node.id) == _UNORDERED
        if isinstance(node, (ast.Set, ast.SetComp)):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.expr):
                    self._eval(child, env, report)
            return True
        if isinstance(node, ast.BinOp):
            left = self._eval(node.left, env, report)
            right = self._eval(node.right, env, report)
            if isinstance(
                node.op, (ast.BitOr, ast.BitAnd, ast.BitXor, ast.Sub)
            ):
                # Set algebra: unordered if either side is a set or a
                # dict view (view - view yields a set).
                def setish(n: ast.expr, tag: bool) -> bool:
                    if tag:
                        return True
                    return isinstance(n, ast.Call) and isinstance(
                        n.func, ast.Attribute
                    ) and n.func.attr in _DICT_VIEW_METHODS
                return setish(node.left, left) or setish(node.right, right)
            return False
        if isinstance(node, ast.Call):
            arg_tags = [self._eval(a, env, report) for a in node.args]
            for kw in node.keywords:
                self._eval(kw.value, env, report)
            dotted = self.ctx.dotted_name(node.func) or ""
            tail = dotted.rpartition(".")[2]
            if not tail and isinstance(node.func, ast.Attribute):
                # e.g. ",".join(...) — receiver is a literal, so there is
                # no dotted name, but the method tail still identifies a
                # sink.
                tail = node.func.attr
            if tail == "sorted":
                return False  # launders: output order is defined
            self._check_sink(node, dotted, tail, arg_tags, report)
            if tail in _SET_MAKERS:
                return True
            if tail in _ORDER_PRESERVERS:
                # list(s) materializes the arbitrary order; still tainted.
                return bool(arg_tags and arg_tags[0])
            if (
                isinstance(node.func, ast.Attribute)
                and node.func.attr in _SET_METHODS
                and self._eval(node.func.value, env, None)
            ):
                return True
            return False
        if isinstance(node, ast.IfExp):
            self._eval(node.test, env, report)
            a = self._eval(node.body, env, report)
            b = self._eval(node.orelse, env, report)
            return a or b
        if isinstance(node, ast.Starred):
            return self._eval(node.value, env, report)
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.expr):
                self._eval(child, env, report)
        return False

    def _check_sink(
        self,
        call: ast.Call,
        dotted: str,
        tail: str,
        arg_tags: List[bool],
        report: Optional[Report],
    ) -> None:
        if report is None:
            return
        is_sink = tail in _ORDER_SINK_TAILS or dotted.startswith(
            _ORDER_SINK_PREFIXES
        )
        if not is_sink:
            return
        for arg, tagged in zip(call.args, arg_tags):
            if tagged:
                report(
                    call,
                    f"a value of hash-seed-dependent iteration order "
                    f"flows into {tail}(); order it first (sorted(...)) "
                    "so cache keys / golden output / scheduling stay "
                    "deterministic",
                )


@register
class UnorderedFlowRule(FileRule):
    """DET005: unordered collections flowing into order-sensitive sinks.

    DET003 catches ``for x in some_set``; this rule catches the flows
    DET003 cannot see — a set (or set-algebra result, or ``Set``-typed
    parameter) passed through temporaries into ``json.dumps``,
    ``hashlib.*``, ``task_key``, ``str.join``, or ``heapq.heappush``,
    where the arbitrary order is frozen into a cache key, golden file,
    digest, or event schedule.  ``sorted(...)`` launders the taint.
    """

    rule_id = "DET005"
    summary = (
        "unordered set/dict-view value flows into a cache key, digest, "
        "join, or scheduling sink; order it with sorted() first"
    )

    def check(self, ctx: FileContext) -> Iterator[LintViolation]:
        if not ctx.order_scope:
            return
        violations: List[LintViolation] = []

        def sink(anchor: ast.AST, message: str) -> None:
            violations.append(
                ctx.make_violation(self.rule_id, anchor, message)
            )

        analysis = _OrderAnalysis(ctx)
        for fn in function_defs(ctx.tree):
            run_analysis(fn, analysis, sink)
        seen: Set[Tuple[int, int, str]] = set()
        for v in violations:
            key = (v.line, v.col, v.message)
            if key not in seen:
                seen.add(key)
                yield v


# Re-exported for the rule catalog tests.
__all__ = [
    "WallClockRule",
    "GlobalRngRule",
    "SetIterationRule",
    "HashSeedRule",
    "UnorderedFlowRule",
]
