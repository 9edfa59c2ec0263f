"""Per-function control-flow graphs and fixpoint abstract interpretation.

This is the engine under comb-lint's dataflow rule (DET005 orderedness
tracking).  It deliberately stays small and predictable rather than
general:

* :func:`build_cfg` lowers one function body to basic blocks.  Branch
  *tests* and loop headers are kept as block items so an analysis can
  inspect (and report on) the expressions that guard control flow, not
  just straight-line statements.
* :func:`run_analysis` runs a forward worklist fixpoint: abstract
  environments (plain ``name → frozenset[str]`` fact maps) are pushed
  through every block until nothing changes, then one *reporting* pass
  re-walks each reachable block with the stabilized entry environment so
  every diagnostic is emitted exactly once.

The fact domain is a join-semilattice of tag sets: join is pointwise set
union, a name missing from an environment is "no information" (⊤ for
reporting purposes — rules only fire on singleton facts, so joins can
only ever *suppress* diagnostics, never invent them).  Tag sets are
bounded by the analysis's vocabulary, so the fixpoint terminates without
widening.

Exception edges are approximated conservatively: every ``except``
handler is entered with the join of the ``try`` block's entry *and* exit
environments.  Mid-body states are not modelled; because rules fire only
on singleton facts, the approximation again errs toward silence.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, List, Optional, Sequence, Tuple

#: An abstract environment: variable name → set of facts (tags).
Env = Dict[str, FrozenSet[str]]

#: Diagnostic sink: ``(anchor_node, message)``.
Report = Callable[[ast.AST, str], None]


@dataclass
class Block:
    """One basic block: straight-line items plus successor block ids."""

    block_id: int
    #: Statements *and* guard expressions, in execution order.
    items: List[ast.AST] = field(default_factory=list)
    succs: List[int] = field(default_factory=list)


@dataclass
class CFG:
    """Control-flow graph of one function body (entry is block 0)."""

    blocks: List[Block]

    @property
    def entry(self) -> Block:
        return self.blocks[0]


class _Builder:
    """Lowers a statement list into basic blocks."""

    def __init__(self) -> None:
        self.blocks: List[Block] = []
        #: (loop-header id, loop-exit id) stack for break/continue.
        self.loops: List[Tuple[int, int]] = []
        self.cur: Optional[int] = self._new()

    def _new(self) -> int:
        b = Block(len(self.blocks))
        self.blocks.append(b)
        return b.block_id

    def _edge(self, src: int, dst: int) -> None:
        if dst not in self.blocks[src].succs:
            self.blocks[src].succs.append(dst)

    def _emit(self, node: ast.AST) -> None:
        if self.cur is None:  # unreachable code: park it in a fresh block
            self.cur = self._new()
        self.blocks[self.cur].items.append(node)

    # ------------------------------------------------------------- lowering
    def lower(self, body: Sequence[ast.stmt]) -> None:
        for stmt in body:
            self._stmt(stmt)

    def _stmt(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, ast.If):
            self._emit(stmt.test)
            head = self.cur
            assert head is not None
            join = self._new()
            self.cur = self._new()
            self._edge(head, self.cur)
            self.lower(stmt.body)
            if self.cur is not None:
                self._edge(self.cur, join)
            if stmt.orelse:
                self.cur = self._new()
                self._edge(head, self.cur)
                self.lower(stmt.orelse)
                if self.cur is not None:
                    self._edge(self.cur, join)
            else:
                self._edge(head, join)
            self.cur = join
        elif isinstance(stmt, (ast.While, ast.For, ast.AsyncFor)):
            pre = self.cur
            assert pre is not None
            header = self._new()
            self._edge(pre, header)
            # The loop node itself is the header item: analyses see the
            # test / iteration target with the loop body still attached.
            self.blocks[header].items.append(
                stmt.test if isinstance(stmt, ast.While) else stmt
            )
            exit_ = self._new()
            self.loops.append((header, exit_))
            self.cur = self._new()
            self._edge(header, self.cur)
            self.lower(stmt.body)
            if self.cur is not None:
                self._edge(self.cur, header)
            self.loops.pop()
            self._edge(header, exit_)
            if stmt.orelse:
                self.cur = self._new()
                self._edge(header, self.cur)
                self.lower(stmt.orelse)
                if self.cur is not None:
                    self._edge(self.cur, exit_)
            self.cur = exit_
        elif isinstance(stmt, ast.Try):
            pre = self.cur
            assert pre is not None
            body_entry = self._new()
            self._edge(pre, body_entry)
            self.cur = body_entry
            self.lower(stmt.body)
            body_exit = self.cur
            after = self._new()
            orelse_src = body_exit
            if stmt.orelse and body_exit is not None:
                self.cur = self._new()
                self._edge(body_exit, self.cur)
                self.lower(stmt.orelse)
                orelse_src = self.cur
            if orelse_src is not None:
                self._edge(orelse_src, after)
            for handler in stmt.handlers:
                h_entry = self._new()
                # Conservative: a handler may run with the try entry
                # state or (approximately) the try exit state.
                self._edge(body_entry, h_entry)
                if body_exit is not None:
                    self._edge(body_exit, h_entry)
                self.cur = h_entry
                if handler.name:
                    self._emit(
                        ast.copy_location(
                            ast.Name(id=handler.name, ctx=ast.Store()),
                            handler,
                        )
                    )
                self.lower(handler.body)
                if self.cur is not None:
                    self._edge(self.cur, after)
            self.cur = after
            if stmt.finalbody:
                self.lower(stmt.finalbody)
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                self._emit(item.context_expr)
            self.lower(stmt.body)
        elif isinstance(stmt, ast.Match):
            self._emit(stmt.subject)
            head = self.cur
            assert head is not None
            join = self._new()
            for case in stmt.cases:
                self.cur = self._new()
                self._edge(head, self.cur)
                self.lower(case.body)
                if self.cur is not None:
                    self._edge(self.cur, join)
            self._edge(head, join)
            self.cur = join
        elif isinstance(stmt, (ast.Return, ast.Raise)):
            self._emit(stmt)
            self.cur = None
        elif isinstance(stmt, ast.Break):
            if self.loops and self.cur is not None:
                self._edge(self.cur, self.loops[-1][1])
            self.cur = None
        elif isinstance(stmt, ast.Continue):
            if self.loops and self.cur is not None:
                self._edge(self.cur, self.loops[-1][0])
            self.cur = None
        else:
            # Straight-line statements (incl. nested def/class, which an
            # analysis treats as opaque name bindings).
            self._emit(stmt)


def build_cfg(
    fn: "ast.FunctionDef | ast.AsyncFunctionDef",
) -> CFG:
    """The CFG of ``fn``'s body (nested functions are *not* inlined)."""
    builder = _Builder()
    builder.lower(fn.body)
    return CFG(builder.blocks)


class Analysis:
    """A forward dataflow analysis over tag-set environments.

    Subclasses implement :meth:`seed` (the entry environment from the
    function's parameters) and :meth:`transfer` (one item's effect on the
    environment, optionally reporting diagnostics).  ``transfer`` must be
    deterministic and must mutate ``env`` in place.
    """

    def seed(self, fn: "ast.FunctionDef | ast.AsyncFunctionDef") -> Env:
        return {}

    def transfer(
        self, item: ast.AST, env: Env, report: Optional[Report]
    ) -> None:
        raise NotImplementedError


def join_envs(a: Env, b: Env) -> Env:
    """Pointwise union; names absent from either side carry no fact."""
    out: Env = {}
    for name, tags in a.items():
        other = b.get(name)
        if other is not None:
            out[name] = tags | other
    return out


def run_analysis(
    fn: "ast.FunctionDef | ast.AsyncFunctionDef",
    analysis: Analysis,
    report: Report,
) -> None:
    """Fixpoint ``analysis`` over ``fn``, then one reporting pass.

    Diagnostics are only emitted during the final pass, with every block
    entered under its stabilized environment — each offending node
    reports once regardless of how many fixpoint iterations ran.
    """
    cfg = build_cfg(fn)
    entry_env: List[Optional[Env]] = [None] * len(cfg.blocks)
    entry_env[0] = analysis.seed(fn)
    work = [0]
    # Quadratic worst case bounded by (blocks × vocabulary); fine at
    # function scale.
    guard = 0
    limit = 50 * (len(cfg.blocks) + 1)
    while work:
        guard += 1
        if guard > limit:  # pragma: no cover - defensive bound
            break
        bid = work.pop()
        env = dict(entry_env[bid] or {})
        for item in cfg.blocks[bid].items:
            analysis.transfer(item, env, None)
        for succ in cfg.blocks[bid].succs:
            cur = entry_env[succ]
            new = dict(env) if cur is None else join_envs(cur, env)
            if new != cur:
                entry_env[succ] = new
                if succ not in work:
                    work.append(succ)
    for bid, block in enumerate(cfg.blocks):
        env0 = entry_env[bid]
        if env0 is None:
            continue  # unreachable
        env = dict(env0)
        for item in block.items:
            analysis.transfer(item, env, report)


def function_defs(
    tree: ast.AST,
) -> List["ast.FunctionDef | ast.AsyncFunctionDef"]:
    """Every function/method definition in ``tree`` (nested included)."""
    return [
        node
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    ]


__all__ = [
    "Analysis",
    "Block",
    "CFG",
    "Env",
    "Report",
    "build_cfg",
    "function_defs",
    "join_envs",
    "run_analysis",
]
