"""Compare two sets of benchmark records, metric by metric.

    python3 perfbench/compare.py BEFORE_DIR AFTER_DIR

Each directory holds the records ``run.py`` writes (``.perfbench/*.json``
in a checkout), one per workload, mode and seed.  Records are compared
only when every label agrees except the seed, and only as matched seed
sets; otherwise the comparison is refused (exit status 2).  For each
metric it prints both medians, the parent's quartile spread and a
verdict: ``worse`` when the median moved the wrong way by more than the
metric's bound in ``BENCHMARK.json``, ``unresolved`` when the parent's
own spread is wider than the bound, ``better`` when the change wins at
least nine pairs in ten by more than the parent's spread, else ``same``.
Per-layer metrics have no bound and get no verdict.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import Any, Dict, List, Tuple

HERE = Path(__file__).resolve().parent
SPEC = HERE.parent / "BENCHMARK.json"


def load(directory: Path) -> Dict[Tuple[str, int], Dict[int, Dict[str, Any]]]:
    """``(workload, trace) -> seed -> record``."""
    groups: Dict[Tuple[str, int], Dict[int, Dict[str, Any]]] = {}
    for path in sorted(directory.glob("*.json")):
        if path.name.endswith(".spans.json"):
            continue
        record = json.loads(path.read_text())
        labels = record["labels"]
        key = (labels["workload"], labels["trace"])
        groups.setdefault(key, {})[labels["seed"]] = record
    return groups


def label_mismatch(records: List[Dict[str, Any]]) -> str:
    """The first label that differs between records (seed excepted)."""
    first = dict(records[0]["labels"], seed=None)
    for record in records[1:]:
        labels = dict(record["labels"], seed=None)
        for name in sorted(set(first) | set(labels)):
            if first.get(name) != labels.get(name):
                return (f"label {name!r}: {first.get(name)!r} vs "
                        f"{labels.get(name)!r}")
    return ""


def verdict(before: List[float], after: List[float], spec: Dict[str, Any],
            ) -> str:
    if "bound" not in spec:
        return ""
    sign = 1.0 if spec["better"] == "lower" else -1.0
    med_b, med_a = statistics.median(before), statistics.median(after)
    q = statistics.quantiles(before, n=4) if len(before) > 1 else [med_b] * 3
    spread = q[2] - q[0]
    if sign * (med_a - med_b) > spec["bound"] * abs(med_b):
        return "worse"
    wins = sum(sign * (b - a) > 0 for b, a in zip(before, after))
    if wins >= 0.9 * len(before) and abs(med_a - med_b) > spread:
        return "better"
    if spread > spec["bound"] * abs(med_b):
        return "unresolved"
    return "same"


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text())
    specs = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    before_sets, after_sets = load(Path(argv[0])), load(Path(argv[1]))
    status = 0
    for key in sorted(set(before_sets) & set(after_sets)):
        before, after = before_sets[key], after_sets[key]
        if set(before) != set(after):
            print(f"refused {key}: seed sets differ "
                  f"{sorted(before)} vs {sorted(after)}")
            status = 2
            continue
        seeds = sorted(before)
        problem = label_mismatch([before[s] for s in seeds]
                                 + [after[s] for s in seeds])
        if problem:
            print(f"refused {key}: {problem}")
            status = 2
            continue
        if not all(r["correct"] for r in list(before.values())
                   + list(after.values())):
            print(f"note {key}: some records report incorrect outputs")
        print(f"== {key[0]} trace={key[1]} seeds={seeds}")
        for name in before[seeds[0]]["metrics"]:
            b = [before[s]["metrics"][name]["value"] for s in seeds]
            a = [after[s]["metrics"][name]["value"] for s in seeds]
            mark = verdict(b, a, specs.get(name, {}))
            if mark == "worse":
                status = max(status, 1)
            print(f"  {name:40s} {statistics.median(b):>14.6g} -> "
                  f"{statistics.median(a):>14.6g}  {mark}")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
