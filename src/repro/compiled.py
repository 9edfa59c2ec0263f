"""Optional compiled build of the simulation core.

The simulator's per-event constant cost lives in two types: the
``Event`` state machine and the ``Engine`` heap/dispatch loop.  Both have
a hand-written C implementation (``src/repro/_simcore.c``) built into the
extension module ``repro._simcore`` by ``tools/build_compiled.py`` — no
third-party toolchain, just a C compiler and the Python headers.  When a
build is present and the user opts in, ``repro.sim.events`` and
``repro.sim.engine`` rebind ``Event``/``Engine`` to the C types behind
the identical API; every subclass (``Timeout``, ``Process``, resource
``Request``, …) and all model code stay pure Python.

This module is the *gate and the report*, not the build:

* :func:`requested` — did the user opt in (``COMB_COMPILED=1``)?
* :func:`active` — is the C kernel actually driving this process?
* :func:`status` — both, plus a human-readable detail line.  Run-ledger
  ``run`` records and perfbench records carry :func:`active`, so
  performance records always say which core produced them.

Opting in without a compiled build present is not an error: the pure
Python classes load as always and :func:`active` reports ``False``.
That transparency is what lets CI run the same suite against both cores
and assert bit-identical goldens.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Dict, List, Union

#: Environment flag opting into the compiled core (truthy values: 1/true/
#: yes/on, case-insensitive).  With the flag unset or falsy the compiled
#: kernel is ignored even if built.
ENV_FLAG = "COMB_COMPILED"

#: C sources of the accelerator extension, relative to the directory
#: containing the ``repro`` package.
C_SOURCES = ("repro/_simcore.c",)


def requested() -> bool:
    """``True`` when the user opted into the compiled core via the
    environment (``COMB_COMPILED=1``)."""
    value = os.environ.get(ENV_FLAG, "")
    return value.strip().lower() in {"1", "true", "yes", "on"}


def active() -> bool:
    """``True`` when the C kernel (``repro._simcore``) is driving this
    process — i.e. the swap in ``repro.sim.events`` actually happened."""
    import importlib

    try:
        events = importlib.import_module("repro.sim.events")
    except ImportError:  # pragma: no cover - core always importable
        return False
    return getattr(events, "_BACKEND", "python") == "c"


def status() -> Dict[str, Union[bool, str]]:
    """Gate state for records and diagnostics.

    Returns ``{"requested": bool, "active": bool, "detail": str}`` where
    ``detail`` is a one-line human-readable explanation.
    """
    req = requested()
    act = active()
    if act:
        detail = "C simulation kernel (repro._simcore) loaded"
    elif req:
        detail = (
            f"{ENV_FLAG} set but no compiled build found; "
            "running the pure Python core (build one with "
            "tools/build_compiled.py)"
        )
    else:
        detail = "pure Python simulation core"
    return {"requested": req, "active": act, "detail": detail}


def build_targets(src_root: Union[str, Path]) -> List[Path]:
    """The C source files a compiled build covers, in deterministic order.

    ``src_root`` is the directory containing the ``repro`` package.
    Shared with ``tools/build_compiled.py`` so the build manifest has a
    single definition.
    """
    root = Path(src_root)
    return [root / rel for rel in C_SOURCES]
