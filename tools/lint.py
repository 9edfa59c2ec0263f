#!/usr/bin/env python3
"""Standalone comb-lint entry point (pre-commit / CI / uninstalled trees).

Equivalent to ``comb lint`` but importable without installing the
package: it prepends ``src/`` to ``sys.path`` and forwards its arguments
unchanged::

    python tools/lint.py src --format=json
    python tools/lint.py src/repro/sim/engine.py   # pre-commit passes files
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from repro.cli import main  # noqa: E402


if __name__ == "__main__":
    sys.exit(main(["lint", *sys.argv[1:]]))
