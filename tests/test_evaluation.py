import csv
import errno
import math

import numpy as np
import pytest

from ruladapt.data import IntegrityError
from ruladapt.evaluation import (
    MetricsReport,
    aggregate,
    evaluate_target,
    export_latents,
    predict_scaled,
    render_tables,
    rmse,
    score,
    write_aggregate,
)
from ruladapt.autodiff import Tensor
from ruladapt.model import Model, toy_model_config

from helpers import TOY_RC, make_toy_domains
from oracles import csv_export_latents


# ---------------------------------------------------------------------------
# rmse

def test_rmse_zero_for_exact_predictions():
    assert rmse([10.0, 20.0], [10.0, 20.0]) == 0.0


def test_rmse_hand_case():
    assert rmse([3.0, -4.0], [0.0, 0.0]) == pytest.approx(math.sqrt(12.5))


def test_rmse_order_invariant():
    rng = np.random.default_rng(0)
    p, t = rng.uniform(size=9), rng.uniform(size=9)
    perm = rng.permutation(9)
    assert rmse(p, t) == pytest.approx(rmse(p[perm], t[perm]), rel=1e-12)


def test_rmse_rejects_length_mismatch():
    with pytest.raises(ValueError):
        rmse([1.0], [1.0, 2.0])


# ---------------------------------------------------------------------------
# asymmetric score

def test_score_zero_for_exact_predictions():
    assert score([50.0, 80.0], [50.0, 80.0]) == pytest.approx(0.0, abs=1e-12)


def test_score_late_by_13_cycles():
    assert score([113.0], [100.0]) == pytest.approx(math.e - 1.0, abs=1e-12)


def test_score_early_by_10_cycles():
    assert score([90.0], [100.0]) == pytest.approx(math.e - 1.0, abs=1e-12)


def test_score_positive_unless_exact():
    rng = np.random.default_rng(1)
    t = rng.uniform(0, 125, size=20)
    p = t + rng.normal(0, 5, size=20)
    assert score(p, t) > 0.0
    assert score(t, t) == 0.0


def test_score_asymmetry_matches_printed_exponents():
    e = 5.0
    late = score([100.0 + e], [100.0])
    early = score([100.0 - e], [100.0])
    assert late == pytest.approx(math.exp(e / 13.0) - 1.0, abs=1e-12)
    assert early == pytest.approx(math.exp(e / 10.0) - 1.0, abs=1e-12)


def test_score_divisor_swap_switch():
    e = 5.0
    swapped = score([100.0 + e], [100.0], late_divisor=10.0, early_divisor=13.0)
    assert swapped == pytest.approx(math.exp(e / 10.0) - 1.0, abs=1e-12)


def test_score_permutation_invariant():
    rng = np.random.default_rng(2)
    t = rng.uniform(0, 125, size=12)
    p = t + rng.normal(0, 10, size=12)
    perm = rng.permutation(12)
    assert score(p, t) == pytest.approx(score(p[perm], t[perm]), rel=1e-12)


def test_score_overflow_is_flagged_not_fatal():
    huge = score([1.0e6], [0.0])  # e^(76923) overflows float64 by far
    assert math.isinf(huge)


def test_score_large_but_representable_values_stay_finite():
    value = score([800.0], [0.0])  # e^(61.5) ~ 5e26, Table-2-order magnitude
    assert math.isfinite(value) and value > 1e26


# ---------------------------------------------------------------------------
# target evaluation

@pytest.fixture(scope="module")
def toy_setup():
    source, target = make_toy_domains(seed=3)
    model = Model(toy_model_config(), np.random.default_rng(0))
    return model, source, target


def test_evaluate_target_uses_one_prediction_per_engine(toy_setup):
    model, _, target = toy_setup
    preds = predict_scaled(model, target.test_windows)
    assert preds.shape == (len(target.test_rul_truth),)
    r, s = evaluate_target(model, target, TOY_RC)
    assert r >= 0 and s >= 0


class _StubModel:
    """Forward stub emitting a fixed scaled prediction per call order."""

    def __init__(self, scaled_predictions):
        self._queue = list(scaled_predictions)

    def forward(self, X):
        values = np.array(self._queue[: len(X)]).reshape(-1, 1)
        del self._queue[: len(X)]
        return type("B", (), {"y_hat": Tensor(values)})()


def test_evaluate_target_perfect_synthetic_model(toy_setup):
    _, _, target = toy_setup
    truth_scaled = np.minimum(target.test_rul_truth, TOY_RC) / TOY_RC
    r, s = evaluate_target(_StubModel(truth_scaled), target, TOY_RC)
    assert r == pytest.approx(0.0, abs=1e-12)
    assert s == pytest.approx(0.0, abs=1e-12)


def test_evaluate_target_constant_half_predictor_on_matching_truth(toy_setup):
    _, _, target = toy_setup
    import copy

    half_truth = copy.copy(target)
    half_truth.test_rul_truth = np.full(len(target.test_windows), 0.5 * TOY_RC)
    stub = _StubModel(np.full(len(target.test_windows), 0.5))
    r, s = evaluate_target(stub, half_truth, TOY_RC)
    assert r == pytest.approx(0.0, abs=1e-12) and s == pytest.approx(0.0, abs=1e-12)


def test_evaluate_target_requires_truth(toy_setup):
    model, _, target = toy_setup
    import copy

    broken = copy.copy(target)
    broken.test_rul_truth = np.zeros(0)
    with pytest.raises(IntegrityError):
        evaluate_target(model, broken, TOY_RC)


# ---------------------------------------------------------------------------
# reports and aggregation

def make_report(variant, rmses, scores, pair=("FD002", "FD001")):
    records = [
        {"seed": seed, "rmse": r, "score": s, "val_rmse": 0.0}
        for seed, r, s in zip((1, 2, 3), rmses, scores)
    ]
    return MetricsReport(
        source=pair[0], target=pair[1], variant=variant, seeds=(1, 2, 3),
        records=records, n_test_engines=100,
    )


def test_report_mean_and_sample_sd():
    report = make_report("no_da", [1.0, 2.0, 3.0], [10.0, 10.0, 10.0])
    assert report.rmse_mean == pytest.approx(2.0)
    assert report.rmse_sd == pytest.approx(1.0)  # sample sd, ddof=1


def test_report_saturation_propagates():
    report = make_report("no_da", [1.0], [math.inf])
    assert report.score_saturated
    assert report.to_dict()["score_mean"] == "inf"


def test_one_seed_report_writes_its_score_sd_as_nan(tmp_path):
    """One seed has no sample deviation: NaN, as for rmse_sd, not the
    overflow marker "inf"."""
    report = make_report("no_da", [1.0], [5.0])
    stats = report.to_dict()
    assert not stats["score_saturated"]
    assert math.isnan(stats["score_sd"]) and math.isnan(stats["rmse_sd"])
    write_aggregate(tmp_path, [report])
    text = (tmp_path / "reports.json").read_text()
    assert '"score_sd": NaN' in text and '"inf"' not in text


def test_all_failed_report_writes_its_score_mean_as_nan():
    report = MetricsReport(source="FD002", target="FD001", variant="no_da", seeds=(1,),
                           failures=["seed 1: forced abort"])
    stats = report.to_dict()
    assert not stats["score_saturated"]
    assert math.isnan(stats["score_mean"]) and math.isnan(stats["score_sd"])


def test_aggregate_grid_shape():
    reports = [
        make_report(v, [1.0, 2.0], [5.0, 5.0], pair=(s, t))
        for v in ("no_da", "lamanet")
        for (s, t) in (("FD001", "FD002"), ("FD002", "FD001"))
    ]
    tables = aggregate(reports)
    assert set(tables) == {"rmse", "score", "score_sd"}
    rows = tables["rmse"]
    assert len(rows) == 2  # one row per pair
    assert set(rows[0]) == {"pair", "no_da", "lamanet"}


def test_aggregate_single_report_is_1x1():
    tables = aggregate([make_report("lamanet", [4.0], [2.0])])
    assert len(tables["rmse"]) == 1
    assert tables["rmse"][0]["lamanet"].startswith("4.00")


def test_aggregate_rejects_empty():
    with pytest.raises(ValueError):
        aggregate([])


def test_write_aggregate_outputs(tmp_path):
    reports = [make_report("no_da", [1.0, 2.0, 3.0], [7.0, 8.0, 9.0])]
    write_aggregate(tmp_path, reports)
    for name in ("rmse.csv", "score.csv", "score_sd.csv", "tables.txt", "reports.json"):
        assert (tmp_path / name).exists()
    text = render_tables(reports)
    assert "2.00+-1.00" in text


# ---------------------------------------------------------------------------
# latent export

def test_export_latents_widths_and_rows(tmp_path, toy_setup):
    model, source, target = toy_setup
    for layer, width in (("C", model.config.bottleneck), ("O", model.config.head_dim)):
        path = tmp_path / f"latents_{layer}.csv"
        n = export_latents(model, [source], layer, path)
        with open(path) as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == n + 1  # header + one row per training window
        assert len(rows[0]) == width + 2
        assert rows[0][-2:] == ["rul_scaled", "domain"]
        assert rows[1][-1] == "source"
        assert rows[1][-2] != ""  # source windows carry labels


def test_export_latents_blank_labels_for_target(tmp_path, toy_setup):
    model, _, target = toy_setup
    path = tmp_path / "latents_C.csv"
    export_latents(model, [target], "C", path)
    with open(path) as fh:
        rows = list(csv.reader(fh))
    assert rows[1][-1] == "target" and rows[1][-2] == ""


def test_export_latents_rejects_unknown_layer(tmp_path, toy_setup):
    model, source, _ = toy_setup
    with pytest.raises(ValueError):
        export_latents(model, [source], "E", tmp_path / "x.csv")


def test_export_latents_writes_both_layers_from_one_forward_per_chunk(
    tmp_path, toy_setup, monkeypatch
):
    model, source, target = toy_setup
    singles = {layer: tmp_path / f"single_{layer}.csv" for layer in "CO"}
    for layer, path in singles.items():
        export_latents(model, [source, target], layer, path, batch=7)
    calls = []
    forward = model.forward
    monkeypatch.setattr(model, "forward", lambda X: calls.append(len(X)) or forward(X))
    both = {layer: tmp_path / f"both_{layer}.csv" for layer in "CO"}
    n = export_latents(model, [source, target], ("C", "O"), [both["C"], both["O"]], batch=7)
    assert calls == [7] * (n // 7) + [n % 7] * (n % 7 > 0)
    for layer in "CO":
        assert both[layer].read_bytes() == singles[layer].read_bytes()


class _EdgeValues:
    """A model whose C and O latents cycle through the values whose printed
    forms are edge cases: signed zero, the smallest subnormal, a huge
    magnitude, NaN and the infinities."""

    VALUES = [-0.0, 5e-324, -1.5e300, float("nan"), float("inf"), float("-inf"), 0.125]

    def __init__(self, model):
        self.config = model.config

    def forward(self, X):
        def latent(width):
            return Tensor(np.resize(self.VALUES, (len(X), width)))
        return type("B", (), {"c": latent(self.config.bottleneck), "o": latent(self.config.head_dim)})()


@pytest.mark.parametrize("stub", [False, True], ids=["toy-model", "edge-values"])
@pytest.mark.parametrize("layers", [("C",), ("O",), ("C", "O")], ids=["C", "O", "C+O"])
def test_export_latents_bytes_match_the_csv_writer_oracle(tmp_path, toy_setup, stub, layers):
    """Source and target windows (the target's labels blank) at batch 7, so
    chunk edges are crossed: every file equals the `csv.writer` export."""
    model, source, target = toy_setup
    model = _EdgeValues(model) if stub else model
    got = [tmp_path / f"got_{layer}.csv" for layer in layers]
    want = [tmp_path / f"want_{layer}.csv" for layer in layers]
    n = export_latents(model, [source, target], layers, got, batch=7)
    csv_export_latents(model, [source, target], layers, want, batch=7)
    assert n == len(source.train_windows) + len(target.train_windows) and n % 7
    for g, w in zip(got, want):
        assert g.read_bytes() == w.read_bytes()
    if stub:
        assert b"nan,inf,-inf" in got[0].read_bytes()


def test_export_latents_rejects_a_repeated_layer_before_opening_a_file(tmp_path, toy_setup):
    model, source, _ = toy_setup
    paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
    with pytest.raises(ValueError, match="each layer may be exported once"):
        export_latents(model, [source], ["C", "C"], paths)
    assert list(tmp_path.iterdir()) == []


class _DiesOnSecondChunk:
    """A model whose second forward pass fails, after the first chunk's rows
    are written."""

    def __init__(self, model):
        self.model, self.config, self.calls = model, model.config, 0

    def forward(self, X):
        self.calls += 1
        if self.calls == 2:
            raise OSError(errno.ENOSPC, "No space left on device")
        return self.model.forward(X)


def test_failed_export_keeps_the_previous_latents(tmp_path, toy_setup):
    model, source, target = toy_setup
    paths = [tmp_path / "latents_C.csv", tmp_path / "latents_O.csv"]
    export_latents(model, [source, target], ("C", "O"), paths, batch=7)
    before = [p.read_bytes() for p in paths]
    with pytest.raises(OSError, match="No space left"):
        export_latents(_DiesOnSecondChunk(model), [source, target], ("C", "O"), paths, batch=7)
    assert [p.read_bytes() for p in paths] == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["latents_C.csv", "latents_O.csv"]


def test_export_latents_rejects_a_path_count_mismatch(tmp_path, toy_setup):
    model, source, _ = toy_setup
    with pytest.raises(ValueError):
        export_latents(model, [source], ("C", "O"), [tmp_path / "c.csv"])
