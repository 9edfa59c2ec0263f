#!/usr/bin/env python3
"""Generate docs/api.md from the package's public surface.

Walks the ``repro`` packages, collects every public class/function with
its signature and first docstring paragraph, and writes a markdown
reference.  Run after changing public APIs (the tier-1 suite fails
while the committed file is stale)::

    PYTHONPATH=src python tools/gen_api_docs.py
"""

from __future__ import annotations

import importlib
import inspect
import os
from pathlib import Path

# The reference documents the pure-Python core.  With the compiled core
# on, ``Event``/``Engine`` are C types owned by ``builtins`` and would
# drop out of the text.
os.environ.pop("COMB_COMPILED", None)

MODULES = [
    "repro",
    "repro.config",
    "repro.sim",
    "repro.hardware",
    "repro.os.interrupts",
    "repro.os.driver",
    "repro.transport",
    "repro.mpi",
    "repro.mpi.collectives",
    "repro.core",
    "repro.baselines",
    "repro.analysis",
    "repro.scenario",
    "repro.cli",
]


def first_paragraph(doc: str | None) -> str:
    if not doc:
        return "(undocumented)"
    lines = []
    for line in inspect.cleandoc(doc).splitlines():
        if not line.strip():
            break
        lines.append(line.strip())
    return " ".join(lines)


def signature_of(obj) -> str:
    try:
        return str(inspect.signature(obj))
    except (TypeError, ValueError):
        return "(...)"


def public_names(module) -> list[str]:
    if hasattr(module, "__all__"):
        return sorted(module.__all__)
    return sorted(
        n for n, v in vars(module).items()
        if not n.startswith("_")
        and getattr(v, "__module__", None) == module.__name__
    )


def document_module(module_name: str) -> list[str]:
    module = importlib.import_module(module_name)
    out = [f"## `{module_name}`", ""]
    out.append(first_paragraph(module.__doc__))
    out.append("")
    for name in public_names(module):
        obj = getattr(module, name, None)
        if obj is None or inspect.ismodule(obj):
            continue
        owner = getattr(obj, "__module__", "")
        if not (owner or "").startswith("repro"):
            continue
        if inspect.isclass(obj):
            out.append(f"### class `{name}`")
            out.append("")
            out.append(first_paragraph(obj.__doc__))
            out.append("")
            for meth_name, meth in sorted(vars(obj).items()):
                if meth_name.startswith("_"):
                    continue
                if inspect.isfunction(meth):
                    out.append(
                        f"* `{name}.{meth_name}{signature_of(meth)}` — "
                        f"{first_paragraph(meth.__doc__)}"
                    )
                elif isinstance(meth, property):
                    out.append(
                        f"* `{name}.{meth_name}` (property) — "
                        f"{first_paragraph(meth.__doc__)}"
                    )
            out.append("")
        elif inspect.isfunction(obj):
            out.append(
                f"* **`{name}{signature_of(obj)}`** — "
                f"{first_paragraph(obj.__doc__)}"
            )
    out.append("")
    return out


def api_text() -> str:
    """The markdown reference, exactly as ``docs/api.md`` should read."""
    lines = [
        "# API reference",
        "",
        "Generated by `tools/gen_api_docs.py`; regenerate after public-API "
        "changes.",
        "",
    ]
    for module_name in MODULES:
        lines.extend(document_module(module_name))
    return "\n".join(lines)


def main() -> None:
    target = Path(__file__).resolve().parents[1] / "docs" / "api.md"
    text = api_text()
    target.write_text(text)
    print(f"wrote {target} ({len(text.splitlines())} lines)")


if __name__ == "__main__":
    main()
