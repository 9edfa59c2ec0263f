"""Cache-key hygiene rule CACHE001.

The point cache (:mod:`repro.core.executor`) keys every stored result on
a canonical JSON serialization of the task's config dataclasses (the
executor's key encoder writes each dataclass's ``dataclasses.fields`` in
sorted order, recursively; a frozen config keeps its text).  That scheme
is sound *only if* every field of every config dataclass reachable from
a :class:`PointTask` is faithfully canonicalized:

* a field typed ``set`` (or any unordered container) serializes in
  arbitrary order — two identical configs would hash differently;
* a field typed ``Any``/``Callable``/unknown has no canonical encoding:
  the encoder rejects values it cannot write (``TypeError``, as
  ``json.dumps`` does), and any other value may not round-trip stably;
* a ``ClassVar`` never appears in ``dataclasses.fields`` at all — a
  simulation parameter stored there silently escapes the cache key, the
  exact "config field missing from the hash" bug this rule exists for;
* a config class defined in a module outside the executor's
  ``_SALT_SOURCES`` tuple would let *code* changes slip past the salt.

CACHE001 statically cross-checks all four, reading the executor source
for ground truth (``_METHODS``, ``PointTask``, ``task_key``,
``_SALT_SOURCES``) rather than hard-coding class names, so adding a new
method kind automatically extends the check.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from .model import FileContext, LintViolation
from .rules import ProjectRule, register

#: Leaf types the key encoder writes canonically.
_STABLE_ATOMS: Set[str] = {"int", "float", "str", "bool", "bytes", "None"}

#: Generic containers whose canonical form is order-stable.
_STABLE_CONTAINERS: Set[str] = {
    "List", "list", "Tuple", "tuple", "Sequence", "Dict", "dict",
    "Mapping", "Optional", "Union",
}

#: Unordered containers: serialization order is undefined.
_UNSTABLE_CONTAINERS: Set[str] = {"Set", "set", "FrozenSet", "frozenset"}


class _ClassIndex:
    """Dataclass and Enum definitions across every linted file."""

    def __init__(self, ctxs: Sequence[FileContext]) -> None:
        self.dataclasses: Dict[str, Tuple[FileContext, ast.ClassDef]] = {}
        self.enums: Set[str] = set()
        for ctx in ctxs:
            for node in ast.walk(ctx.tree):
                if not isinstance(node, ast.ClassDef):
                    continue
                if self._is_dataclass(node, ctx):
                    self.dataclasses.setdefault(node.name, (ctx, node))
                elif self._is_enum(node, ctx):
                    self.enums.add(node.name)

    @staticmethod
    def _is_dataclass(node: ast.ClassDef, ctx: FileContext) -> bool:
        for deco in node.decorator_list:
            target = deco.func if isinstance(deco, ast.Call) else deco
            if ctx.dotted_name(target) in {
                "dataclass", "dataclasses.dataclass"
            }:
                return True
        return False

    @staticmethod
    def _is_enum(node: ast.ClassDef, ctx: FileContext) -> bool:
        for base in node.bases:
            name = ctx.dotted_name(base) or ""
            if name.rpartition(".")[2] in {"Enum", "IntEnum", "StrEnum"}:
                return True
        return False


@register
class CacheKeyRule(ProjectRule):
    """CACHE001: every config field must be hash-stable and hash-visible."""

    rule_id = "CACHE001"
    summary = (
        "config dataclass field invisible to (or unstable under) the "
        "point-cache key hash"
    )

    #: Path tail identifying the executor module in any tree layout.
    EXECUTOR_TAIL = "core/executor.py"

    def check_project(
        self, ctxs: Sequence[FileContext]
    ) -> Iterator[LintViolation]:
        executor = next(
            (
                c for c in ctxs
                if (c.repro_relpath or "") == self.EXECUTOR_TAIL
            ),
            None,
        )
        if executor is None:
            return  # executor not in the linted set: nothing to check
        index = _ClassIndex(ctxs)
        roots, missing_key_parts = self._executor_facts(executor)
        for part, node in missing_key_parts:
            yield executor.make_violation(
                self.rule_id,
                node,
                f"task_key() no longer hashes {part!r}; every cache key "
                "must cover the full system and method config",
            )
        salt_sources = self._salt_sources(executor)
        checked: Set[str] = set()
        for root in roots:
            yield from self._check_class(
                root, index, salt_sources, checked
            )

    # ------------------------------------------------------- executor facts
    def _executor_facts(
        self, executor: FileContext
    ) -> Tuple[List[str], List[Tuple[str, ast.AST]]]:
        """Config roots named by the executor + missing task_key parts.

        Roots are the first tuple element of every ``_METHODS`` value
        plus the annotation names of ``PointTask``'s fields.
        """
        roots: List[str] = []
        for node in ast.walk(executor.tree):
            if (
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
                        and value.elts
                        and isinstance(value.elts[0], ast.Name)
                    ):
                        roots.append(value.elts[0].id)
            elif isinstance(node, ast.ClassDef) and node.name == "PointTask":
                for stmt in node.body:
                    if isinstance(stmt, ast.AnnAssign):
                        roots.extend(
                            self._annotation_class_names(stmt.annotation)
                        )
        missing: List[Tuple[str, ast.AST]] = []
        task_key = next(
            (
                n for n in ast.walk(executor.tree)
                if isinstance(n, ast.FunctionDef) and n.name == "task_key"
            ),
            None,
        )
        if task_key is not None:
            hashed = self._hashed_dict_keys(task_key)
            for part in ("kind", "salt", "system", "cfg"):
                if part not in hashed:
                    missing.append((part, task_key))
        # De-dup while preserving order.
        seen: Set[str] = set()
        uniq: List[str] = []
        for root in roots:
            if root not in seen:
                seen.add(root)
                uniq.append(root)
        return uniq, missing

    @staticmethod
    def _hashed_dict_keys(fn: ast.FunctionDef) -> Set[str]:
        keys: Set[str] = set()
        for node in ast.walk(fn):
            if isinstance(node, ast.Dict):
                for key in node.keys:
                    if isinstance(key, ast.Constant) and isinstance(
                        key.value, str
                    ):
                        keys.add(key.value)
        return keys

    @staticmethod
    def _annotation_class_names(annotation: ast.AST) -> List[str]:
        """Candidate class names inside an annotation expression."""
        names: List[str] = []
        for node in ast.walk(annotation):
            if isinstance(node, ast.Name) and node.id[:1].isupper():
                if node.id not in {"Union", "Optional", "List", "Tuple",
                                   "Dict", "Sequence", "Mapping"}:
                    names.append(node.id)
        return names

    def _salt_sources(self, executor: FileContext) -> Optional[Set[str]]:
        for node in ast.walk(executor.tree):
            if (
                isinstance(node, ast.Assign)
                and any(
                    isinstance(t, ast.Name) and t.id == "_SALT_SOURCES"
                    for t in node.targets
                )
                and isinstance(node.value, (ast.Tuple, ast.List))
            ):
                out: Set[str] = set()
                for elt in node.value.elts:
                    if isinstance(elt, ast.Constant) and isinstance(
                        elt.value, str
                    ):
                        out.add(elt.value)
                return out
        return None

    # ------------------------------------------------------- field checking
    def _check_class(
        self,
        class_name: str,
        index: _ClassIndex,
        salt_sources: Optional[Set[str]],
        checked: Set[str],
    ) -> Iterator[LintViolation]:
        if class_name in checked or class_name not in index.dataclasses:
            return
        checked.add(class_name)
        ctx, node = index.dataclasses[class_name]
        if salt_sources is not None and ctx.repro_relpath is not None:
            top = ctx.repro_relpath.split("/", 1)[0]
            if top not in salt_sources:
                yield ctx.make_violation(
                    self.rule_id,
                    node,
                    f"config dataclass {class_name} lives outside the "
                    "executor's _SALT_SOURCES; edits here would not "
                    "invalidate cached points",
                )
        for stmt in node.body:
            if not isinstance(stmt, ast.AnnAssign):
                continue
            if not isinstance(stmt.target, ast.Name):
                continue
            field_name = stmt.target.id
            annotation = stmt.annotation
            if self._is_classvar(annotation, ctx):
                yield ctx.make_violation(
                    self.rule_id,
                    stmt,
                    f"{class_name}.{field_name} is a ClassVar: it is "
                    "excluded from dataclasses.fields() and therefore "
                    "invisible to the cache-key hash",
                )
                continue
            problem = self._annotation_problem(annotation, index, ctx)
            if problem is not None:
                yield ctx.make_violation(
                    self.rule_id,
                    stmt,
                    f"{class_name}.{field_name}: {problem}",
                )
            for nested in self._annotation_class_names(annotation):
                if nested in index.dataclasses:
                    yield from self._check_class(
                        nested, index, salt_sources, checked
                    )

    @staticmethod
    def _is_classvar(annotation: ast.AST, ctx: FileContext) -> bool:
        target = annotation
        if isinstance(target, ast.Subscript):
            target = target.value
        name = ctx.dotted_name(target) or ""
        return name.rpartition(".")[2] == "ClassVar"

    def _annotation_problem(
        self,
        annotation: ast.AST,
        index: _ClassIndex,
        ctx: FileContext,
    ) -> Optional[str]:
        """Why this annotation is not hash-stable, or ``None`` if it is."""
        if isinstance(annotation, ast.Constant):
            if annotation.value is None or annotation.value is Ellipsis:
                return None
            if isinstance(annotation.value, str):
                try:
                    parsed = ast.parse(annotation.value, mode="eval").body
                except SyntaxError:
                    return f"unparseable annotation {annotation.value!r}"
                return self._annotation_problem(parsed, index, ctx)
            return f"unexpected annotation literal {annotation.value!r}"
        if isinstance(annotation, ast.Name):
            return self._name_problem(annotation.id, index)
        if isinstance(annotation, ast.Attribute):
            name = ctx.dotted_name(annotation) or "?"
            return self._name_problem(name.rpartition(".")[2], index)
        if isinstance(annotation, ast.BinOp) and isinstance(
            annotation.op, ast.BitOr
        ):
            return (
                self._annotation_problem(annotation.left, index, ctx)
                or self._annotation_problem(annotation.right, index, ctx)
            )
        if isinstance(annotation, ast.Subscript):
            head = annotation.value
            head_name = (ctx.dotted_name(head) or "?").rpartition(".")[2]
            if head_name in _UNSTABLE_CONTAINERS:
                return (
                    f"{head_name} is unordered; its serialization order "
                    "is undefined, so equal configs could hash unequal"
                )
            if head_name not in _STABLE_CONTAINERS:
                return (
                    f"container {head_name!r} is not canonicalized by "
                    "the cache-key serializer"
                )
            inner = annotation.slice
            elements = (
                inner.elts if isinstance(inner, ast.Tuple) else [inner]
            )
            for element in elements:
                problem = self._annotation_problem(element, index, ctx)
                if problem is not None:
                    return problem
            return None
        return "annotation too dynamic for the cache-key cross-check"

    def _name_problem(
        self, name: str, index: _ClassIndex
    ) -> Optional[str]:
        if name in _STABLE_ATOMS or name == "Ellipsis":
            return None
        if name in _UNSTABLE_CONTAINERS:
            return (
                f"bare {name} is unordered; equal configs could hash "
                "unequal"
            )
        if name in index.enums or name in index.dataclasses:
            return None
        if name in {"Any", "object", "Callable"}:
            return (
                f"{name} is not hash-stable: its JSON form (if any) is "
                "not canonical"
            )
        return (
            f"type {name!r} is not provably hash-stable (not a "
            "primitive, Enum, or config dataclass in the linted set)"
        )


__all__ = ["CacheKeyRule"]
