"""Lint driver: file discovery, rule evaluation, report assembly.

Every file is parsed once; file rules run over each context in turn and
project rules over the whole batch, and the final sort makes the report
independent of discovery order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, List, Optional, Sequence, Set, Union

from .model import FileContext, LintViolation
from .rules import FileRule, ProjectRule, all_rule_classes

# Importing the rule modules populates the registry.
from . import cachekey as _cachekey  # noqa: F401
from . import det as _det  # noqa: F401
from . import execsafe as _execsafe  # noqa: F401
from . import obsrules as _obsrules  # noqa: F401
from . import simio as _simio  # noqa: F401
from . import units as _units  # noqa: F401

#: Directory names never descended into.
_SKIP_DIRS: Set[str] = {
    "__pycache__", ".git", ".comb_cache", ".venv", "node_modules",
    ".mypy_cache", ".pytest_cache",
}


@dataclass
class LintReport:
    """Outcome of one lint run."""

    #: Violations that gate (not suppressed), sorted.
    violations: List[LintViolation] = field(default_factory=list)
    #: Violations waived by ``# comb-lint: disable`` comments.
    suppressed: List[LintViolation] = field(default_factory=list)
    #: Files that failed to parse, as synthetic PARSE001 violations.
    parse_errors: List[LintViolation] = field(default_factory=list)
    files_checked: int = 0

    @property
    def ok(self) -> bool:
        """Gate verdict: no violations and no unparseable files."""
        return not self.violations and not self.parse_errors

    @property
    def exit_code(self) -> int:
        return 0 if self.ok else 1

    def all_found(self) -> List[LintViolation]:
        """Everything the rules reported, regardless of disposition."""
        return sorted(self.violations + self.suppressed, key=_sort_key)


def _sort_key(v: LintViolation) -> tuple:
    return (v.path, v.line, v.col, v.rule)


def iter_python_files(
    paths: Sequence[Union[str, Path]],
    exclude: Optional[Set[str]] = None,
) -> List[Path]:
    """Expand files/directories into a sorted list of ``.py`` files.

    ``exclude`` names directory components to skip (on top of the
    built-in skip list) — ``{"lint_fixtures"}`` lets CI lint ``tests/``
    without tripping over the deliberately-violating rule fixtures.
    A path that does not exist, or a named file that is not ``.py``,
    raises :class:`FileNotFoundError`, so a misspelled target fails
    instead of linting nothing.
    """
    skip = _SKIP_DIRS | (exclude or set())
    out: Set[Path] = set()
    for raw in paths:
        p = Path(raw)
        if not p.exists():
            raise FileNotFoundError(f"no such file or directory: {raw}")
        if p.is_dir():
            for sub in sorted(p.rglob("*.py")):
                if not skip.intersection(sub.parts):
                    out.add(sub)
        elif p.suffix == ".py":
            out.add(p)
        else:
            raise FileNotFoundError(f"not a Python file: {raw}")
    return sorted(out)


def _display_path(path: Path) -> str:
    """Path as reported and fingerprinted: relative to CWD when possible."""
    try:
        return path.resolve().relative_to(Path.cwd()).as_posix()
    except ValueError:
        return path.as_posix()


def load_contexts(
    files: Iterable[Path],
) -> "tuple[List[FileContext], List[LintViolation]]":
    """Parse every file; syntax errors become PARSE001 violations."""
    ctxs: List[FileContext] = []
    errors: List[LintViolation] = []
    for f in files:
        display = _display_path(f)
        try:
            source = f.read_text(encoding="utf-8")
            ctxs.append(FileContext(f, display, source))
        except (SyntaxError, ValueError, OSError) as exc:
            line = getattr(exc, "lineno", None) or 1
            errors.append(
                LintViolation(
                    rule="PARSE001",
                    path=display,
                    line=int(line),
                    col=0,
                    message=f"file could not be linted: {exc}",
                    symbol="<module>",
                    snippet="",
                    severity="error",
                )
            )
    return ctxs, errors


def lint_paths(
    paths: Sequence[Union[str, Path]],
    select: Optional[Set[str]] = None,
    exclude: Optional[Set[str]] = None,
) -> LintReport:
    """Lint ``paths`` and return the full report.

    Parameters
    ----------
    paths:
        Files and/or directories (recursed) to lint.
    select:
        Restrict evaluation to these rule ids (default: all rules).
    exclude:
        Extra directory names to skip during discovery.
    """
    report = LintReport()
    files = iter_python_files(paths, exclude=exclude)
    ctxs, report.parse_errors = load_contexts(files)
    report.files_checked = len(ctxs)

    found: List[LintViolation] = []
    for rule_cls in all_rule_classes():
        if select is not None and rule_cls.rule_id not in select:
            continue
        rule = rule_cls()
        if isinstance(rule, FileRule):
            for ctx in ctxs:
                found.extend(rule.check(ctx))
        elif isinstance(rule, ProjectRule):
            found.extend(rule.check_project(ctxs))

    sup_index = {ctx.display_path: ctx.suppressions for ctx in ctxs}
    for violation in sorted(found, key=_sort_key):
        sup = sup_index.get(violation.path)
        if sup is not None and sup.is_suppressed(
            violation.rule, violation.line
        ):
            report.suppressed.append(violation)
        else:
            report.violations.append(violation)
    return report


__all__ = ["LintReport", "lint_paths", "iter_python_files"]
