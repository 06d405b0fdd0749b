"""Compare two result sets of the benchmark, for example parent and change.

    python3 perfbench/compare.py PARENT_RESULTS CHANGE_RESULTS

Each argument is a results directory as run.py writes it (one JSON record
per workload and seed).  Only untraced records are read.  For every
workload and end-to-end metric it prints each side's median and quartiles
and a verdict:

- better: the change wins at least 9 of every 10 seed pairs (ties count for
  neither side), over at least 10 pairs, and the medians differ by more than
  the parent's interquartile spread;
- worse: the change's median is worse than the parent's by more than the
  metric's bound in BENCHMARK.json, and either the parent's spread is within
  that bound or every change run is worse than every parent run;
- same: neither, with the parent's spread within the bound;
- unresolved: neither, with the parent's spread wider than the bound.

Records whose environment differs (CPU count, Python, numpy, BLAS or its
thread count) are reported before the table; they are never compared
silently.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# Environment fields allowed to differ between the two sides.
PER_RUN_FIELDS = ("seed", "git_commit", "src_sha256")


def load(directory: Path) -> dict[str, dict[int, dict]]:
    """workload -> seed -> untraced record."""
    out: dict[str, dict[int, dict]] = {}
    for path in sorted(Path(directory).rglob("*.json")):
        record = json.loads(path.read_text())
        if record.get("trace") == 0:
            out.setdefault(record["workload"], {})[record["seed"]] = record
    return out


def environment_mismatches(*sides) -> list[str]:
    seen: dict[str, dict] = {}
    for side in sides:
        for runs in side.values():
            for record in runs.values():
                for key, value in record["environment"].items():
                    if key not in PER_RUN_FIELDS:
                        seen.setdefault(key, {}).setdefault(str(value), 0)
                        seen[key][str(value)] += 1
    return [f"{key}: {sorted(values)}" for key, values in seen.items() if len(values) > 1]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(parent: dict[int, float], change: dict[int, float], better: str, bound: float) -> str:
    sign = 1.0 if better == "higher" else -1.0  # sign * (change - parent) > 0 is a gain
    pairs = sorted(set(parent) & set(change))
    wins = sum(1 for s in pairs if sign * (change[s] - parent[s]) > 0)
    p1, pm, p3 = quartiles(list(parent.values()))
    _, cm, _ = quartiles(list(change.values()))
    gain = sign * (cm - pm)
    if len(pairs) >= 10 and wins >= 0.9 * len(pairs) and gain > p3 - p1:
        return "better"
    spread_ok = (p3 - p1) <= bound * abs(pm)
    if -gain > bound * abs(pm):
        all_worse = all(sign * (c - p) < 0 for c in change.values() for p in parent.values())
        return "worse" if spread_ok or all_worse else "unresolved"
    return "same" if spread_ok else "unresolved"


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    parent, change = load(Path(argv[0])), load(Path(argv[1]))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for line in environment_mismatches(parent, change):
        print(f"WARNING environment differs between runs: {line}")
    for side, name in ((parent, "parent"), (change, "change")):
        builds = {r["environment"]["src_sha256"] for runs in side.values() for r in runs.values()}
        if len(builds) > 1:
            print(f"WARNING {name} set mixes {len(builds)} builds")
    print(f"{'workload':<20} {'metric':<14} {'parent q1/med/q3':>30} {'change q1/med/q3':>30} "
          f"{'pairs':>6} {'verdict':>10}")
    worst = 0
    for workload in sorted(set(parent) | set(change)):
        p_runs, c_runs = parent.get(workload, {}), change.get(workload, {})
        if not p_runs or not c_runs:
            print(f"{workload:<20} missing on the {'parent' if not p_runs else 'change'} side")
            worst = 1
            continue
        for metric in spec["end_to_end"]:
            name = metric["name"]
            p = {s: r["end_to_end"][name] for s, r in p_runs.items()}
            c = {s: r["end_to_end"][name] for s, r in c_runs.items()}
            result = verdict(p, c, metric["better"], metric["bound"])
            worst = max(worst, result == "worse")
            pq = "/".join(f"{v:.4g}" for v in quartiles(list(p.values())))
            cq = "/".join(f"{v:.4g}" for v in quartiles(list(c.values())))
            print(f"{workload:<20} {name:<14} {pq:>30} {cq:>30} "
                  f"{len(set(p) & set(c)):>6} {result:>10}")
        failed = sum(r["failed"] for r in c_runs.values())
        if failed:
            print(f"{workload:<20} change side failed {failed} operations")
            worst = 1
    return worst


if __name__ == "__main__":
    sys.exit(main())
