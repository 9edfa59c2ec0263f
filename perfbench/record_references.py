"""Record the reference digests of outputs that have no committed file.

    python3 perfbench/record_references.py

Runs one untraced pass of each workload whose outputs are not in
``results/`` and writes ``references.json``: the sha256 of each such
output, plus the exact counts a workload's reference pins.  Run it only
at a commit whose outputs are known to be right; the benchmark compares
every later run against what it writes.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from child import stop_resource_tracker  # noqa: E402
from probes import Probe  # noqa: E402
from run import OUT_DIR, REFERENCES, _digest  # noqa: E402
from workloads import WORKLOADS, Context  # noqa: E402

#: Counts pinned by a workload's reference, beyond its outputs.
PINNED_COUNTS = {"observed": ("obs.events_dropped", "verify.violations")}


def main() -> int:
    refs = {}
    work = OUT_DIR / "record-references"
    shutil.rmtree(work, ignore_errors=True)
    try:
        for name in ("patterns-scale", "warm-replay", "observed"):
            workload = WORKLOADS[name]()
            probe = Probe(seed=0)
            ctx = Context(HERE.parent, work / name, probe)
            with probe.installed():
                workload.prepare(ctx)
                res = workload.run_pass(ctx)
            entry = {}
            for out, data in sorted(res.outputs.items()):
                base = out.split("@")[0]
                if workload.expected(ctx, base) is None:
                    entry[base] = _digest(data)
            for key in PINNED_COUNTS.get(name, ()):
                entry[key] = res.counts[key]
            refs[name] = entry
            print(f"{name}: {len(entry)} references", flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        stop_resource_tracker()
    REFERENCES.write_text(json.dumps(refs, indent=2, sort_keys=True) + "\n")
    print(f"wrote {REFERENCES}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
