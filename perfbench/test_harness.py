"""Fast self-test of the benchmark harness at the `toy` preset.

    python3 -m pytest -q perfbench/test_harness.py

Runs every workload shrunk to the toy model on a few synthetic engines and
checks the harness itself: every metric BENCHMARK.json names is printed with
its unit, the exact counts repeat across two runs, and span self times are
non-negative and fit inside the traced wall time.
"""

from __future__ import annotations

import dataclasses
import json
import shutil

import pytest

import run

THREADS = run.bootstrap()
import harness  # noqa: E402  (needs the import path set by bootstrap)

SEED = 5
SECONDS = 0.6
EXACT_COUNTS = (
    "autodiff.nodes_per_step",
    "autodiff.matmul_gflop_per_step",
    "evaluation.export_forward_windows",
    "training.adam_mbytes_per_step",
)
TOY = {
    name: dataclasses.replace(
        wl, preset="toy", engines=(("FD002", 24, 6), ("FD001", 12, 6)),
        pool=(32, 32, 32), check_steps=0, warmup=1,
    )
    for name, wl in harness.WORKLOADS.items()
}


@pytest.fixture(scope="module")
def records():
    """name -> [untraced record, traced record, second traced record]."""
    work = run.HERE / "_work" / "selftest"
    try:
        return {
            name: [harness.run(wl, SEED, SECONDS, trace, run.ROOT, THREADS, work / f"{name}-{i}")
                   for i, trace in enumerate((False, True, True))]
            for name, wl in TOY.items()
        }
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _declared(section: str) -> dict[str, str]:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


def test_benchmark_json_matches_harness():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(harness.WORKLOADS)
    assert _declared("end_to_end") == harness.END_TO_END
    assert _declared("per_layer") == harness.PER_LAYER


@pytest.mark.parametrize("name", list(TOY))
def test_every_metric_printed_with_unit(records, name):
    for record, section in zip(records[name][:2], ("end_to_end", "per_layer")):
        lines = run.report(record, harness)
        result = json.loads(lines[-1])
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        assert {k: v["unit"] for k, v in result["metrics"].items()} == _declared(section)
        for metric, unit in _declared(section).items():
            assert any(line.split()[:1] == [metric] and line.split()[-1] == unit
                       for line in lines[:-1]), metric


@pytest.mark.parametrize("name", list(TOY))
def test_counts_repeat_exactly(records, name):
    first, second = (r["per_layer"] for r in records[name][1:])
    for key in EXACT_COUNTS:
        assert first[key] == second[key], key


@pytest.mark.parametrize("name", list(TOY))
def test_span_self_times_fit_traced_wall_time(records, name):
    record = records[name][1]
    self_times = [span["self"] for span in record["spans"]]
    assert self_times and min(self_times) >= -1e-9  # float rounding of nested clock reads
    assert sum(self_times) <= record["traced_wall_s"]


def test_adaptation_losses_idle_without_adaptation(records):
    layers = records["train-desk-no_da"][1]["per_layer"]
    assert layers["losses.adaptation_calls_per_step"] == 0
    assert records["train-full-lamanet"][1]["per_layer"]["losses.adaptation_calls_per_step"] == 4
