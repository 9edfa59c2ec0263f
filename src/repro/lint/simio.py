"""Hot-path safety rules SIM001–SIM002.

Engine hot paths — everything under the simulation packages plus the
COMB method drivers in ``repro.core`` — execute millions of times per
sweep and must never touch the host: a stray ``open()`` or
``time.sleep()`` couples simulated results to filesystem state and
wall-clock scheduling, and a ``print()`` in a pool worker interleaves
nondeterministically with the parent's output.  All I/O belongs in the
orchestration layer (executor, CLI, analysis).
"""

from __future__ import annotations

import ast
from typing import FrozenSet, Iterator, Optional, Set, Tuple

from .model import FileContext, LintViolation
from .rules import FileRule, register
from .units import unit_suffix_of

#: Canonical dotted names that block or touch the host.
BLOCKING_CALLS: Set[str] = {
    "open",
    "input",
    "print",
    "time.sleep",
    "os.system",
    "os.popen",
    "os.fork",
    "socket.socket",
    "socket.create_connection",
}

#: Any call under these prefixes is host I/O.
BLOCKING_PREFIXES: Tuple[str, ...] = (
    "subprocess.",
    "urllib.",
    "requests.",
    "shutil.",
)

#: Method names that are file I/O no matter the receiver (Path methods).
FILE_METHODS: Set[str] = {
    "read_text",
    "write_text",
    "read_bytes",
    "write_bytes",
    "unlink",
    "mkdir",
}


@register
class HotPathIoRule(FileRule):
    """SIM001: no blocking I/O inside engine hot paths."""

    rule_id = "SIM001"
    summary = (
        "blocking/host I/O (open, sleep, subprocess, print, Path I/O) "
        "inside an engine hot path"
    )

    def check(self, ctx: FileContext) -> Iterator[LintViolation]:
        if not ctx.hot_scope:
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            name = ctx.dotted_name(node.func)
            if name is not None and (
                name in BLOCKING_CALLS or name.startswith(BLOCKING_PREFIXES)
            ):
                yield ctx.make_violation(
                    self.rule_id,
                    node,
                    f"{name}() performs host I/O inside an engine hot "
                    "path; move it to the orchestration layer "
                    "(executor/CLI/analysis)",
                )
                continue
            if (
                isinstance(node.func, ast.Attribute)
                and node.func.attr in FILE_METHODS
            ):
                yield ctx.make_violation(
                    self.rule_id,
                    node,
                    f".{node.func.attr}() is file I/O inside an engine "
                    "hot path; hot-path code must stay host-independent",
                )


#: Modules implementing burst replay, where every timestamp must
#: reproduce the legacy per-event float arithmetic bit for bit (see the
#: commit-chain comments in ``hardware/nic.py``).
BURST_REPLAY_MODULES: FrozenSet[str] = frozenset(
    {
        "hardware/nic.py",
        "sim/resources.py",
        "sim/engine.py",
    }
)


@register
class BurstAccumulationRule(FileRule):
    """SIM002: float time accumulation off-contract in burst-replay loops.

    The burst-replay paths guarantee bit-identity with the legacy
    per-packet event chain by reproducing its arithmetic exactly — the
    engine's delay-based scheduling observes fire times, so each step is
    the round-trip ``x = x + (y - x)``, never a running ``x += dt``.  A
    naive accumulation differs by a ulp after a few fragments and the
    golden figures drift.  This rule rejects, inside loops in the replay
    modules, (a) ``+=``/``-=`` on a time-suffixed quantity and (b)
    self-accumulation ``x = x + e`` where ``e`` is not the sanctioned
    round-trip form ``(y - x)``.
    """

    rule_id = "SIM002"
    summary = (
        "running float accumulation in a burst-replay loop "
        "instead of the per-fragment round-trip form x = x + (y - x)"
    )

    def check(self, ctx: FileContext) -> Iterator[LintViolation]:
        if ctx.repro_relpath not in BURST_REPLAY_MODULES:
            return
        for loop in ast.walk(ctx.tree):
            if not isinstance(loop, (ast.For, ast.AsyncFor, ast.While)):
                continue
            for stmt in ast.walk(loop):
                if isinstance(stmt, ast.AugAssign) and isinstance(
                    stmt.op, (ast.Add, ast.Sub)
                ):
                    yield from self._check_augmented(ctx, stmt)
                elif isinstance(stmt, ast.Assign):
                    yield from self._check_self_accumulation(ctx, stmt)

    @staticmethod
    def _target_name(target: ast.AST) -> Optional[str]:
        if isinstance(target, ast.Name):
            return target.id
        if isinstance(target, ast.Attribute):
            return target.attr
        return None

    @staticmethod
    def _mentions_time(expr: ast.AST) -> bool:
        """Does any name inside ``expr`` carry a time suffix?"""
        for node in ast.walk(expr):
            name: Optional[str] = None
            if isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            if name is not None:
                tagged = unit_suffix_of(name)
                if tagged is not None and tagged[0] == "time":
                    return True
        return False

    @staticmethod
    def _is_count_increment(expr: ast.AST) -> bool:
        """Integer-literal or count-suffixed increment (loop bookkeeping)."""
        if isinstance(expr, ast.Constant):
            return isinstance(expr.value, int)
        name: Optional[str] = None
        if isinstance(expr, ast.Name):
            name = expr.id
        elif isinstance(expr, ast.Attribute):
            name = expr.attr
        if name is not None:
            tagged = unit_suffix_of(name)
            return tagged is not None and tagged[0] in {"count", "size"}
        return False

    def _check_augmented(
        self, ctx: FileContext, stmt: ast.AugAssign
    ) -> Iterator[LintViolation]:
        target_key = self._expr_key(stmt.target)
        if target_key is None:
            return
        # ``x += (y - x)`` is the round-trip written augmented: same
        # float operation as the sanctioned assign form.
        if (
            isinstance(stmt.op, ast.Add)
            and isinstance(stmt.value, ast.BinOp)
            and isinstance(stmt.value.op, ast.Sub)
            and self._expr_key(stmt.value.right) == target_key
        ):
            return
        name = self._target_name(stmt.target)
        tagged = unit_suffix_of(name) if name else None
        target_is_time = tagged is not None and tagged[0] == "time"
        if isinstance(stmt.target, ast.Name) and tagged is None:
            # A bare local in a replay loop is presumed a chain timestamp
            # (the hot path hoists everything to unsuffixed locals);
            # only integer/count bookkeeping is exempt.
            if self._is_count_increment(stmt.value):
                return
        elif not target_is_time and not self._mentions_time(stmt.value):
            return  # count/byte bookkeeping, not a timestamp
        yield ctx.make_violation(
            self.rule_id,
            stmt,
            f"{name or target_key!r} accumulates time with "
            f"{'+=' if isinstance(stmt.op, ast.Add) else '-='} inside a "
            "replay loop; per-fragment timestamps must use the "
            "round-trip form x = x + (y - x) to stay bit-identical "
            "with the event chain",
        )

    def _check_self_accumulation(
        self, ctx: FileContext, stmt: ast.Assign
    ) -> Iterator[LintViolation]:
        if len(stmt.targets) != 1:
            return
        target_src = self._expr_key(stmt.targets[0])
        if target_src is None:
            return
        value = stmt.value
        if not (
            isinstance(value, ast.BinOp) and isinstance(value.op, ast.Add)
        ):
            return
        # x = x + e  (or  x = e + x)
        if self._expr_key(value.left) == target_src:
            increment = value.right
        elif self._expr_key(value.right) == target_src:
            increment = value.left
        else:
            return
        # Sanctioned: the increment is the round-trip (y - x).
        if (
            isinstance(increment, ast.BinOp)
            and isinstance(increment.op, ast.Sub)
            and self._expr_key(increment.right) == target_src
        ):
            return
        yield ctx.make_violation(
            self.rule_id,
            stmt,
            f"{target_src!r} self-accumulates inside a replay loop; only "
            "the round-trip form x = x + (y - x) matches the legacy "
            "event chain's float arithmetic bit for bit",
        )

    @staticmethod
    def _expr_key(node: ast.AST) -> Optional[str]:
        """Canonical text of a Name/Attribute chain (load/store agnostic)."""
        if isinstance(node, ast.Name):
            return node.id
        if isinstance(node, ast.Attribute):
            base = BurstAccumulationRule._expr_key(node.value)
            return f"{base}.{node.attr}" if base else None
        return None


__all__ = ["HotPathIoRule", "BurstAccumulationRule"]
