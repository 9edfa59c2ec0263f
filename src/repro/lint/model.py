"""Data model of the linter: violations, file contexts, suppressions.

A :class:`FileContext` is one parsed Python file plus everything the rules
need to reason about it: its source lines, its import alias map (so calls
can be resolved to canonical dotted names regardless of ``import numpy as
np`` vs ``from numpy import random``), its *scope category* (is it part of
the simulation core, an engine hot path, or ordinary support code), and
the ``# comb-lint: disable=...`` suppression index.

Scope categories are derived from the file's path relative to the
``repro`` package, so the same rules apply identically to the real tree
and to test fixtures laid out under a ``repro/`` directory.
"""

from __future__ import annotations

import ast
import hashlib
import io
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

#: repro sub-packages whose code executes *inside* the simulation: any
#: nondeterminism here perturbs event order and breaks bit-reproducibility.
SIM_PACKAGES: FrozenSet[str] = frozenset(
    {"sim", "mpi", "transport", "hardware", "os", "patterns"}
)

#: Packages whose output must be byte-stable (golden traces, exports)
#: even though they run outside the simulation: iteration-order rules
#: apply here too.
ORDER_SENSITIVE_PACKAGES: FrozenSet[str] = frozenset({"obs"})

#: Modules outside the sim packages whose bodies still run on the virtual
#: clock (the COMB method drivers are engine processes).
HOT_MODULES: FrozenSet[str] = frozenset(
    {"core/polling.py", "core/pww.py", "core/workloop.py", "core/sweep.py"}
)

#: Severity levels, ordered.
SEVERITIES: Tuple[str, ...] = ("warning", "error")


@dataclass(frozen=True)
class LintViolation:
    """One rule hit at one source location."""

    rule: str
    path: str
    line: int
    col: int
    message: str
    #: Enclosing ``Class.function`` qualname, or ``<module>``.
    symbol: str
    #: The stripped source line (for output and fingerprints).
    snippet: str
    severity: str = "error"

    def fingerprint(self) -> str:
        """Stable identity (SARIF ``partialFingerprints``).

        Deliberately excludes the line number: inserting unrelated lines
        above a finding must not change its identity.
        """
        blob = "\x1f".join((self.rule, self.path, self.symbol, self.snippet))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready form."""
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "severity": self.severity,
            "symbol": self.symbol,
            "message": self.message,
            "snippet": self.snippet,
            "fingerprint": self.fingerprint(),
        }


def _relative_to_repro(path: Path) -> Optional[str]:
    """Path below the innermost ``repro`` package, or ``None``.

    ``src/repro/sim/engine.py`` → ``sim/engine.py``; a fixture tree
    ``tests/lint_fixtures/repro/sim/bad.py`` → ``sim/bad.py``.
    """
    parts = path.parts
    for i in range(len(parts) - 1, -1, -1):
        if parts[i] == "repro":
            return "/".join(parts[i + 1:])
    return None


@dataclass
class Suppressions:
    """Parsed ``# comb-lint:`` comments of one file.

    Two forms are recognized::

        x = time.time()   # comb-lint: disable=DET001
        # comb-lint: disable-file=UNIT001

    ``disable`` applies to its own physical line; ``disable-file`` applies
    to the whole file.  ``all`` is accepted in place of a rule list.
    """

    by_line: Dict[int, FrozenSet[str]] = field(default_factory=dict)
    file_wide: FrozenSet[str] = frozenset()

    def is_suppressed(self, rule: str, line: int) -> bool:
        """Does a comment waive ``rule`` at ``line``?"""
        for ruleset in (self.file_wide, self.by_line.get(line, frozenset())):
            if "all" in ruleset or rule in ruleset:
                return True
        return False


_MARKER = "comb-lint:"


def parse_suppressions(source: str) -> Suppressions:
    """Extract the suppression index from ``source``.

    Tokenizes rather than regexes so strings containing the marker are
    never mistaken for directives.  Malformed directives are ignored (the
    linter must never crash on a weird comment).
    """
    sup = Suppressions()
    file_wide: Set[str] = set()
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        for tok in tokens:
            if tok.type != tokenize.COMMENT:
                continue
            text = tok.string.lstrip("#").strip()
            if not text.startswith(_MARKER):
                continue
            directive = text[len(_MARKER):].strip()
            for form, target in (
                ("disable-file=", "file"),
                ("disable=", "line"),
            ):
                if directive.startswith(form):
                    rules = frozenset(
                        r.strip() for r in
                        directive[len(form):].split(",") if r.strip()
                    )
                    if not rules:
                        break
                    if target == "file":
                        file_wide |= rules
                    else:
                        line = tok.start[0]
                        sup.by_line[line] = sup.by_line.get(
                            line, frozenset()
                        ) | rules
                    break
    except tokenize.TokenError:  # pragma: no cover - half-written files
        pass
    sup.file_wide = frozenset(file_wide)
    return sup


def build_alias_map(tree: ast.AST) -> Dict[str, str]:
    """Map local names to canonical dotted import paths.

    ``import numpy as np`` → ``{"np": "numpy"}``;
    ``from time import time as wall`` → ``{"wall": "time.time"}``.
    Relative imports are prefixed with ``.`` per level and are resolved no
    further — the determinism rules only match absolute stdlib/numpy names.
    """
    aliases: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                aliases[a.asname or a.name.split(".")[0]] = (
                    a.name if a.asname else a.name.split(".")[0]
                )
        elif isinstance(node, ast.ImportFrom):
            prefix = "." * node.level + (node.module or "")
            for a in node.names:
                if a.name == "*":
                    continue
                aliases[a.asname or a.name] = f"{prefix}.{a.name}"
    return aliases


class FileContext:
    """One parsed file, ready for rule evaluation."""

    def __init__(self, path: Path, display_path: str, source: str):
        self.path = path
        self.display_path = display_path
        self.source = source
        self.lines: List[str] = source.splitlines()
        self.tree: ast.Module = ast.parse(source, filename=str(path))
        self.aliases: Dict[str, str] = build_alias_map(self.tree)
        self.suppressions: Suppressions = parse_suppressions(source)
        rel = _relative_to_repro(path)
        self.repro_relpath: Optional[str] = rel
        top = rel.split("/", 1)[0] if rel else ""
        #: Code that runs inside the simulation proper.
        self.sim_scope: bool = top in SIM_PACKAGES
        #: Sim scope plus the COMB method drivers (engine processes).
        self.hot_scope: bool = self.sim_scope or (rel in HOT_MODULES)
        #: Hot scope plus packages whose *output order* is contractual
        #: (obs: golden traces, exporters, attribution) — the
        #: iteration-order determinism rules apply here.
        self.order_scope: bool = self.hot_scope or (
            top in ORDER_SENSITIVE_PACKAGES
        )
        self._qualnames: Dict[int, str] = {}
        self._index_symbols()

    # ------------------------------------------------------------- symbols
    def _index_symbols(self) -> None:
        """Precompute the enclosing qualname of every line."""

        def visit(node: ast.AST, prefix: str) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(
                    child,
                    (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef),
                ):
                    qual = f"{prefix}.{child.name}" if prefix else child.name
                    end = child.end_lineno or child.lineno
                    for ln in range(child.lineno, end + 1):
                        self._qualnames[ln] = qual
                    visit(child, qual)
                else:
                    visit(child, prefix)

        visit(self.tree, "")

    def symbol_at(self, line: int) -> str:
        """Enclosing ``Class.function`` qualname of ``line``."""
        return self._qualnames.get(line, "<module>")

    def snippet_at(self, line: int) -> str:
        """Stripped source text of ``line`` (1-based)."""
        if 1 <= line <= len(self.lines):
            return self.lines[line - 1].strip()
        return ""

    # ----------------------------------------------------------- resolution
    def dotted_name(self, node: ast.AST) -> Optional[str]:
        """Canonical dotted name of a Name/Attribute chain, or ``None``.

        ``np.random.seed`` resolves through the alias map to
        ``numpy.random.seed``; chains rooted in anything other than a
        plain name (``self.rng.random``) resolve to ``None``.
        """
        parts: List[str] = []
        cur = node
        while isinstance(cur, ast.Attribute):
            parts.append(cur.attr)
            cur = cur.value
        if not isinstance(cur, ast.Name):
            return None
        head = self.aliases.get(cur.id, cur.id)
        parts.append(head)
        return ".".join(reversed(parts))

    def make_violation(
        self,
        rule: str,
        node: ast.AST,
        message: str,
        severity: str = "error",
    ) -> LintViolation:
        """Violation anchored at ``node`` in this file."""
        line = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0)
        return LintViolation(
            rule=rule,
            path=self.display_path,
            line=line,
            col=col,
            message=message,
            symbol=self.symbol_at(line),
            snippet=self.snippet_at(line),
            severity=severity,
        )
