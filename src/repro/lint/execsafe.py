"""Executor worker-safety rule EXEC001.

The sweep executor fans points out over a *spawn*-context process pool,
and its contract is that the pooled path is bit-identical to the serial
path (``jobs=1``).  Module-level mutable state breaks that contract
silently: a counter, cache, or registry mutated inside worker-reachable
code diverges between the parent (serial path: every point mutates it)
and the workers (pooled path: each worker mutates its own copy, the
parent's stays stale).  Nothing crashes — the numbers just differ
depending on ``--jobs``, which is exactly the failure mode the point
cache's determinism guarantee exists to exclude.

EXEC001 reads the executor module for ground truth (the
``functools.partial`` worker entry, ``run_task``, and the runner names
in ``_METHODS`` — the same idiom CACHE001 uses), builds a name-based
over-approximate call graph across the linted set, and flags every
worker-reachable function that

* rebinds a ``global`` name, or
* mutates a module-level container (``.append``/``.update``/
  subscript-store on a name bound at module scope to a list/dict/set).

Functions decorated ``@contextmanager`` are exempt: the context-stack
idiom (``use_observer``/``use_sanitizer``) mutates a module list by
design, strictly bracketed, in whichever process enters the context.
State that is *process-local by design* (documented as such) should
carry an inline ``# comb-lint: disable=EXEC001`` at the mutation site.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Sequence, Set, Tuple

from .model import FileContext, LintViolation
from .rules import ProjectRule, register

#: Methods that mutate their receiver in place.
MUTATING_METHODS: Set[str] = {
    "append", "appendleft", "extend", "insert",
    "add", "update", "setdefault",
    "pop", "popleft", "popitem", "remove", "discard", "clear",
}

#: Constructor tails producing mutable containers.
_MUTABLE_CONSTRUCTORS: Set[str] = {
    "list", "dict", "set", "deque", "defaultdict", "OrderedDict", "Counter",
}

#: Files whose functions are never cross-file call-graph candidates: the
#: executor itself (parent-side orchestration; its worker entries are
#: seeded explicitly) and the CLI.  Without this, a sim method named
#: like an executor method (``submit``, ``close``) would drag the whole
#: parent-side module into the "worker-reachable" set.
_PARENT_SIDE_TAILS: Set[str] = {"core/executor.py", "cli.py"}

_EXEMPT_DECORATORS: Set[str] = {"contextmanager", "asynccontextmanager"}

#: Path tail identifying the executor module in any tree layout.
EXECUTOR_TAIL = "core/executor.py"

#: One function definition: (file, node, is-cross-file-candidate).
_FnKey = Tuple[int, int]  # (ctx index, lineno) — unique per def


def _shallow_walk(fn: ast.AST) -> Iterator[ast.AST]:
    """Walk ``fn``'s body without descending into nested functions."""
    stack: List[ast.AST] = list(ast.iter_child_nodes(fn))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            stack.extend(ast.iter_child_nodes(node))


def _call_tails(fn: ast.AST) -> Set[str]:
    """Simple names of everything ``fn`` (incl. nested defs) may call."""
    tails: Set[str] = set()
    for node in ast.walk(fn):
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name):
                tails.add(func.id)
            elif isinstance(func, ast.Attribute):
                tails.add(func.attr)
        elif isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef)
        ) and node is not fn:
            # A nested def is conservatively "called": it is usually a
            # callback handed to the code the parent function drives.
            tails.add(node.name)
    return tails


@register
class WorkerSharedStateRule(ProjectRule):
    """EXEC001: no module-state mutation reachable from pool workers."""

    rule_id = "EXEC001"
    summary = (
        "module-level mutable state written by spawn-pool-worker-"
        "reachable code; serial and pooled sweeps would diverge"
    )

    def check_project(
        self, ctxs: Sequence[FileContext]
    ) -> Iterator[LintViolation]:
        executor = next(
            (c for c in ctxs if (c.repro_relpath or "") == EXECUTOR_TAIL),
            None,
        )
        if executor is None:
            return  # executor not in the linted set: nothing to check
        entry_names = self._entry_names(executor)
        if not entry_names:
            return

        # Index every function definition in the linted set.
        by_name: Dict[str, List[Tuple[FileContext, ast.AST]]] = {}
        functions: List[Tuple[FileContext, ast.AST]] = []
        for ctx in ctxs:
            for node in ast.walk(ctx.tree):
                if isinstance(
                    node, (ast.FunctionDef, ast.AsyncFunctionDef)
                ):
                    functions.append((ctx, node))
                    by_name.setdefault(node.name, []).append((ctx, node))

        def candidates(
            caller_ctx: FileContext, name: str
        ) -> List[Tuple[FileContext, ast.AST]]:
            out: List[Tuple[FileContext, ast.AST]] = []
            for ctx, node in by_name.get(name, []):
                if ctx is caller_ctx:
                    out.append((ctx, node))
                elif (ctx.repro_relpath or "") not in _PARENT_SIDE_TAILS:
                    out.append((ctx, node))
            return out

        # Worker-reachable closure over simple-name call edges.
        reachable: Set[int] = set()
        work: List[Tuple[FileContext, ast.AST]] = []
        for name in sorted(entry_names):
            for ctx, node in by_name.get(name, []):
                if (ctx.repro_relpath or "") == EXECUTOR_TAIL or (
                    ctx.repro_relpath or ""
                ) not in _PARENT_SIDE_TAILS:
                    work.append((ctx, node))
        while work:
            ctx, node = work.pop()
            if id(node) in reachable:
                continue
            reachable.add(id(node))
            for tail in sorted(_call_tails(node)):
                for callee in candidates(ctx, tail):
                    if id(callee[1]) not in reachable:
                        work.append(callee)

        module_mutables = {
            id(ctx): self._module_mutable_names(ctx) for ctx in ctxs
        }
        for ctx, node in functions:
            if id(node) not in reachable:
                continue
            if self._is_exempt(ctx, node):
                continue
            yield from self._check_function(
                ctx, node, module_mutables[id(ctx)]
            )

    # ------------------------------------------------------- executor facts
    @staticmethod
    def _entry_names(executor: FileContext) -> Set[str]:
        """Worker entry points: the partial()ed entry, the task runners,
        and the per-kind method runners named by ``_METHODS``."""
        names: Set[str] = set()
        for node in ast.walk(executor.tree):
            if isinstance(node, ast.Call):
                # partial(_sim_entry, ...): the function shipped to the pool.
                func_tail = (
                    (executor.dotted_name(node.func) or "").rpartition(".")[2]
                )
                if func_tail == "partial" and node.args:
                    first = node.args[0]
                    if isinstance(first, ast.Name):
                        names.add(first.id)
            elif (
                isinstance(node, ast.Assign)
                and any(
                    isinstance(t, ast.Name) and t.id == "_METHODS"
                    for t in node.targets
                )
                and isinstance(node.value, ast.Dict)
            ):
                for value in node.value.values:
                    if (
                        isinstance(value, ast.Tuple)
                        and len(value.elts) >= 2
                        and isinstance(value.elts[1], ast.Name)
                    ):
                        names.add(value.elts[1].id)
            elif (isinstance(node, ast.FunctionDef)
                  and node.name == "run_task"):
                names.add(node.name)
        return names

    # ---------------------------------------------------------- mutability
    @staticmethod
    def _module_mutable_names(ctx: FileContext) -> Set[str]:
        """Module-scope names bound to mutable containers."""
        names: Set[str] = set()
        for stmt in ctx.tree.body:
            targets: List[ast.expr] = []
            value: ast.expr
            if isinstance(stmt, ast.Assign):
                targets, value = stmt.targets, stmt.value
            elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                targets, value = [stmt.target], stmt.value
            else:
                continue
            if isinstance(
                value,
                (ast.List, ast.Dict, ast.Set,
                 ast.ListComp, ast.DictComp, ast.SetComp),
            ):
                mutable = True
            elif isinstance(value, ast.Call):
                tail = (ctx.dotted_name(value.func) or "").rpartition(".")[2]
                mutable = tail in _MUTABLE_CONSTRUCTORS
            else:
                mutable = False
            if not mutable:
                continue
            for target in targets:
                if isinstance(target, ast.Name):
                    names.add(target.id)
        return names

    @staticmethod
    def _is_exempt(ctx: FileContext, fn: ast.AST) -> bool:
        for deco in getattr(fn, "decorator_list", []):
            target = deco.func if isinstance(deco, ast.Call) else deco
            tail = (ctx.dotted_name(target) or "").rpartition(".")[2]
            if tail in _EXEMPT_DECORATORS:
                return True
        return False

    def _check_function(
        self,
        ctx: FileContext,
        fn: ast.AST,
        module_mutables: Set[str],
    ) -> Iterator[LintViolation]:
        fn_name = getattr(fn, "name", "<lambda>")
        globals_declared: Set[str] = set()
        for node in _shallow_walk(fn):
            if isinstance(node, ast.Global):
                globals_declared.update(node.names)
        for node in _shallow_walk(fn):
            if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                targets = (
                    node.targets
                    if isinstance(node, ast.Assign)
                    else [node.target]
                )
                for target in targets:
                    if (
                        isinstance(target, ast.Name)
                        and target.id in globals_declared
                    ):
                        yield ctx.make_violation(
                            self.rule_id,
                            node,
                            f"{fn_name}() rebinds global "
                            f"{target.id!r} and is reachable from pool "
                            "workers; serial and pooled sweeps would see "
                            "different state — thread it through the "
                            "world/task instead",
                        )
                    elif (
                        isinstance(target, ast.Subscript)
                        and isinstance(target.value, ast.Name)
                        and target.value.id in module_mutables
                        and target.value.id not in globals_declared
                    ):
                        yield ctx.make_violation(
                            self.rule_id,
                            node,
                            f"{fn_name}() writes into module-level "
                            f"container {target.value.id!r} and is "
                            "reachable from pool workers; worker writes "
                            "never reach the parent process",
                        )
            elif isinstance(node, ast.Call):
                func = node.func
                if (
                    isinstance(func, ast.Attribute)
                    and func.attr in MUTATING_METHODS
                    and isinstance(func.value, ast.Name)
                    and func.value.id in module_mutables
                ):
                    yield ctx.make_violation(
                        self.rule_id,
                        node,
                        f"{fn_name}() mutates module-level container "
                        f"{func.value.id!r} via .{func.attr}() and is "
                        "reachable from pool workers; worker mutations "
                        "never reach the parent process",
                    )


__all__ = ["WorkerSharedStateRule", "MUTATING_METHODS", "EXECUTOR_TAIL"]
