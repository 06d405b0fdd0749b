"""Run one ruladapt benchmark workload and print its metrics.

    python3 perfbench/run.py --workload train-full-lamanet --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the package is imported from its `src/`.
The seed generates the synthetic input files.  `--trace 0` measures the
end-to-end metrics; `--trace 1` alternates untraced ops with ops run under
the tracer and reports the per-layer metrics.  The last line
of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}.
Each run also writes its full record, stamped with the environment, to
perfbench/results/<workload>/seed<seed>-trace<t>.json; compare.py reads
those records.  `--workload all` runs every workload, each in its own
process.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"


def bootstrap() -> int:
    """Pin BLAS to the CPUs this process may use (before numpy loads) and
    put the checkout's `src/` first on the import path; returns the thread
    count.  Exits when the checkout has no package sources."""
    threads = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(threads)
    src = ROOT / "src"
    if not (src / "ruladapt" / "__init__.py").is_file():
        sys.exit(f"error: {src / 'ruladapt'} not found; run from the root of a ruladapt checkout")
    sys.path.insert(0, str(src))
    import ruladapt

    if not Path(ruladapt.__file__).resolve().is_relative_to(src):
        sys.exit(f"error: imported ruladapt from {ruladapt.__file__}, not from {src}")
    return threads


def result_path(workload: str, seed: int, trace: int) -> Path:
    return RESULTS / workload / f"seed{seed}-trace{trace}.json"


def report(record: dict, harness) -> list[str]:
    """Human-readable lines, then the JSON result line."""
    env = record["environment"]
    lines = [
        f"# {record['workload']} seed={record['seed']} seconds={record['seconds']} "
        f"trace={record['trace']} ops={record['samples']}",
        "# env " + " ".join(f"{k}={v}" for k, v in env.items()),
    ]
    for name, (value, unit) in record["workload_metrics"].items():
        lines.append(f"{name:<36} {value:>14.4f} {unit}")
    lines.append(f"{'failed_ops_ratio':<36} {record['failed_ops_ratio']:>14.4f} ratio "
                 f"({record['failed']} of {record['attempted']} ops)")
    for note in record["failures"]:
        lines.append(f"# FAILED: {note}")
    if record["trace"]:
        catalogue, values = harness.PER_LAYER, record["per_layer"]
        lines.append(f"# traced wall time {record['traced_wall_s']:.3f} s")
    else:
        catalogue, values = harness.END_TO_END, record["end_to_end"]
    for name, unit in catalogue.items():
        lines.append(f"{name:<36} {values[name]:>14.6g} {unit}")
    result = {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in catalogue.items()},
    }
    lines.append(json.dumps(result))
    return lines


def run_all(args) -> int:
    """Each workload in its own process, so peak memory stays per workload."""
    import harness

    totals = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in harness.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if subprocess.run(cmd, cwd=ROOT).returncode != 0:
            print(f"error: workload {name} exited with an error", file=sys.stderr)
            return 1
        with open(result_path(name, args.seed, args.trace)) as fh:
            record = json.load(fh)
        result = json.loads(report(record, harness)[-1])
        totals["correct"] &= result["correct"]
        totals["attempted"] += result["attempted"]
        totals["failed"] += result["failed"]
        totals["metrics"].update({f"{name}/{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(totals))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    threads = bootstrap()
    import harness

    if args.workload == "all":
        return run_all(args)
    if args.workload not in harness.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join(harness.WORKLOADS)} or all")
    work = HERE / "_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        record = harness.run(harness.WORKLOADS[args.workload], args.seed, args.seconds,
                             bool(args.trace), ROOT, threads, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    path = result_path(args.workload, args.seed, args.trace)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(record, indent=1))
    print("\n".join(report(record, harness)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
