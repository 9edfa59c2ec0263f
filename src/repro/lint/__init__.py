"""comb-lint: AST-based determinism, units, and cache-key linter.

Static counterpart of the runtime sanitizer (:mod:`repro.verify`): where
the sanitizer catches invariant violations while a simulation runs, this
package rejects the *sources* of irreproducibility at review time —
wall-clock reads, unseeded RNG, hash-order iteration, unit-suffix
violations, config fields invisible to the point-cache key, and blocking
I/O in engine hot paths.

Entry points::

    comb lint src [--format=json|sarif] [--select RULE ...]
    python tools/lint.py ...

DET005 runs on a per-function CFG + fixpoint dataflow engine
(:mod:`repro.lint.flow`) that propagates facts through assignments and
conversions, so unordered values hiding behind temporaries are caught,
not just direct uses.

Rules (see ``docs/lint_rules.md`` for the full catalog):

========  ==========================================================
DET001    no wall-clock reads in simulation code
DET002    no global/unseeded RNG in simulation code
DET003    no iteration over bare sets in order-sensitive code
DET004    no hash()/id() values in simulation logic
DET005    no unordered values flowing into keys/digests/schedules
UNIT001   quantity-named bindings must carry unit suffixes
UNIT002   no additive arithmetic across unit suffixes
CACHE001  config dataclass fields must be cache-key visible + stable
EXEC001   no module-state mutation reachable from pool workers
SIM001    no blocking I/O in engine hot paths
SIM002    burst-replay loops must use round-trip time arithmetic
OBS001    tracer emitters must match the declared event schemas
========  ==========================================================

Inline waiver: ``# comb-lint: disable=RULE[,RULE...]`` on the offending
line (``disable-file=`` for a whole file) is the only way to waive a
finding.
"""

from .model import LintViolation, SIM_PACKAGES
from .output import format_json, format_rule_list, format_text
from .rules import all_rule_classes, rule_catalog
from .runner import LintReport, iter_python_files, lint_paths
from .sarif import format_sarif, sarif_log

__all__ = [
    "LintViolation",
    "SIM_PACKAGES",
    "LintReport",
    "lint_paths",
    "iter_python_files",
    "all_rule_classes",
    "rule_catalog",
    "format_text",
    "format_json",
    "format_rule_list",
    "format_sarif",
    "sarif_log",
]
