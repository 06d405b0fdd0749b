import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ruladapt import data as dp
from ruladapt.data import (
    IntegrityError,
    NormalizationStats,
    ParseError,
    SplitError,
    Trajectory,
    build_domain_dataset,
    fit_normalization_matrix,
    normalize_matrix,
    parse_cmapss,
    parse_trajectory_file,
    split_train_val,
    stack_windows,
    subset_paths,
)

from helpers import denormalize, fit_normalization, format_trajectories, normalize
from oracles import parse_rul_file as oracle_parse_rul_file
from oracles import parse_trajectory_file as oracle_parse_trajectory_file
from oracles import rul_label
from windowing import make_windows


def toy_trajectory(unit=1, T=50, seed=0):
    rng = np.random.default_rng(seed + unit)
    return Trajectory(
        unit,
        rng.uniform(-1, 1, size=(T, dp.N_SETTINGS)),
        rng.uniform(0, 100, size=(T, dp.N_SENSORS)),
    )


def identity_stats(f):
    return NormalizationStats(np.zeros(f), np.ones(f), np.zeros(f, dtype=bool))


# ---------------------------------------------------------------------------
# parsing

def test_fd001_counts(cmapss_dir):
    train, test, truth = parse_cmapss(*subset_paths(cmapss_dir, "FD001"))
    assert len(train) == 100 and len(test) == 100 and len(truth) == 100


def test_fd002_counts(cmapss_dir):
    train, test, truth = parse_cmapss(*subset_paths(cmapss_dir, "FD002"))
    assert len(train) == 260 and len(test) == 259


def test_malformed_row_reports_line_number(tmp_path):
    path = tmp_path / "bad.txt"
    good = " ".join(["1", "1"] + ["0.0"] * dp.N_FEATURES)
    path.write_text(good + "\n1 2 0.5\n")
    with pytest.raises(ParseError, match="bad.txt:2"):
        parse_trajectory_file(path)


def test_non_numeric_token_raises(tmp_path):
    path = tmp_path / "bad.txt"
    row = ["1", "1"] + ["0.0"] * dp.N_FEATURES
    row[5] = "oops"
    path.write_text(" ".join(row) + "\n")
    with pytest.raises(ParseError, match="bad.txt:1"):
        parse_trajectory_file(path)


def test_empty_file_is_a_parse_error(tmp_path):
    path = tmp_path / "empty.txt"
    path.write_text("")
    with pytest.raises(ParseError, match="empty"):
        parse_trajectory_file(path)


def test_rul_length_mismatch_is_integrity_error(tmp_path, cmapss_dir):
    train_path, test_path, _ = subset_paths(cmapss_dir, "FD001")
    short = tmp_path / "RUL_short.txt"
    short.write_text("10\n20\n")
    with pytest.raises(IntegrityError):
        parse_cmapss(train_path, test_path, short)


def test_broken_cycle_sequence_raises(tmp_path):
    path = tmp_path / "gap.txt"
    rows = []
    for cycle in (1, 3):  # missing cycle 2
        rows.append(" ".join(["1", str(cycle)] + ["0.0"] * dp.N_FEATURES))
    path.write_text("\n".join(rows) + "\n")
    with pytest.raises(IntegrityError):
        parse_trajectory_file(path)


def test_parse_roundtrip(cmapss_dir, tmp_path):
    train, _, _ = parse_cmapss(*subset_paths(cmapss_dir, "FD001"))
    sample = train[:3]
    path = tmp_path / "echo.txt"
    path.write_text(format_trajectories(sample))
    again = parse_trajectory_file(path)
    assert again == sample


def _same_trajectories(got, want):
    assert [t.unit_id for t in got] == [t.unit_id for t in want]
    for a, b in zip(got, want):
        for x, y in ((a.op_settings, b.op_settings), (a.sensors, b.sensors)):
            assert x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()


@pytest.mark.parametrize("subset", ["FD001", "FD002"])
def test_bulk_parse_is_bitwise_equal_to_the_row_parser(cmapss_dir, subset):
    train_path, test_path, rul_path = subset_paths(cmapss_dir, subset)
    for path in (train_path, test_path):
        _same_trajectories(parse_trajectory_file(path), oracle_parse_trajectory_file(path))
    got, want = dp.parse_rul_file(rul_path), oracle_parse_rul_file(rul_path)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def test_bulk_parse_matches_the_row_parser_on_a_ragged_layout(tmp_path):
    """Blank lines, trailing whitespace, interleaved units, a single-row unit
    and fractional ids (truncated as int() does)."""

    def row(unit, cycle, base):
        return " ".join([unit, cycle] + [f"{base + 0.1 * i:.6g}" for i in range(dp.N_FEATURES)])

    lines = [
        row("3", "1", 1.5), "", row("1", "1", -2.25) + "   ", row("3", "2", 7e-3),
        "   \t", row("1.9", "2.0", 1e5) + "\t", row("7", "1", 0.0), row("3", "3.5", -1e-9),
        "",
    ]
    path = tmp_path / "ragged.txt"
    path.write_text("\n".join(lines))
    got = parse_trajectory_file(path)
    assert [(t.unit_id, t.length) for t in got] == [(3, 3), (1, 2), (7, 1)]
    _same_trajectories(got, oracle_parse_trajectory_file(path))


@pytest.mark.parametrize(
    "token, where", [("#", "bad.txt:2: non-numeric"), ("1_000", "bad.txt: could not convert")]
)
def test_token_numpy_rejects_is_a_parse_error(tmp_path, token, where):
    """`#` is not a comment marker; `1_000`, which Python's float() accepts,
    is rejected by the bulk parse and the error names the file."""
    good = ["1", "1"] + ["0.0"] * dp.N_FEATURES
    bad = ["1", "2"] + ["0.0"] * dp.N_FEATURES
    bad[4] = token
    path = tmp_path / "bad.txt"
    path.write_text(" ".join(good) + "\n" + " ".join(bad) + "\n")
    with pytest.raises(ParseError, match=where):
        parse_trajectory_file(path)


@pytest.mark.parametrize("text", ["", "\n  \n\t\n"])
def test_empty_file_raises_without_warning(tmp_path, text):
    path = tmp_path / "empty.txt"
    path.write_text(text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ParseError, match="empty.txt: empty file"):
            parse_trajectory_file(path)
        with pytest.raises(ParseError, match="empty.txt: empty file"):
            dp.parse_rul_file(path)


def test_non_finite_unit_id_is_an_integrity_error(tmp_path):
    path = tmp_path / "nan.txt"
    path.write_text(" ".join(["nan", "1"] + ["0.0"] * dp.N_FEATURES) + "\n")
    with pytest.raises(IntegrityError, match="nan.txt"):
        parse_trajectory_file(path)


# ---------------------------------------------------------------------------
# normalization

def test_fit_min_max_single_feature():
    stats = fit_normalization_matrix([np.array([[2.0], [6.0], [10.0]])])
    assert stats.minimum[0] == 2 and stats.maximum[0] == 10
    assert not stats.constant[0]


def test_fit_flags_constant_feature():
    stats = fit_normalization_matrix([np.array([[5.0], [5.0], [5.0]])])
    assert stats.constant[0]


def test_fit_pools_across_trajectories():
    stats = fit_normalization_matrix(
        [np.array([[0.0], [4.0]]), np.array([[2.0], [8.0]])]
    )
    assert stats.minimum[0] == 0 and stats.maximum[0] == 8


def test_normalize_midpoint_and_boundaries():
    stats = NormalizationStats(np.array([2.0]), np.array([10.0]), np.array([False]))
    assert normalize(6.0, 0, stats) == pytest.approx(0.5)
    assert normalize(2.0, 0, stats) == 0.0
    assert normalize(10.0, 0, stats) == 1.0


def test_constant_feature_normalizes_to_zero():
    stats = NormalizationStats(np.array([5.0]), np.array([5.0]), np.array([True]))
    for x in (-3.0, 5.0, 12.0):
        assert normalize(x, 0, stats) == 0.0


def test_out_of_range_values_are_not_clamped():
    stats = NormalizationStats(np.array([0.0]), np.array([10.0]), np.array([False]))
    assert normalize(15.0, 0, stats) == pytest.approx(1.5)


@given(st.floats(-1e6, 1e6), st.floats(-100, 100), st.floats(1e-3, 100))
def test_normalize_roundtrip(x, lo, span):
    stats = NormalizationStats(
        np.array([lo]), np.array([lo + span]), np.array([False])
    )
    assert denormalize(normalize(x, 0, stats), 0, stats) == pytest.approx(x, abs=1e-12, rel=1e-12)


def test_windows_fitted_on_same_trajectories_stay_in_unit_range():
    trajs = [toy_trajectory(u, T=60) for u in range(1, 4)]
    stats = fit_normalization(trajs)
    for traj in trajs:
        for w in make_windows(traj, 30, stats):
            assert w.features.min() >= 0.0 and w.features.max() <= 1.0


# ---------------------------------------------------------------------------
# labels

def test_rul_label_formula():
    assert rul_label(200, 10, 125.0) == pytest.approx(1.0)
    assert rul_label(200, 150, 125.0) == pytest.approx(0.4)
    assert rul_label(200, 200, 125.0) == 0.0


def test_rul_label_rejects_cycle_beyond_length():
    with pytest.raises(ValueError):
        rul_label(100, 101, 125.0)
    with pytest.raises(ValueError):
        rul_label(100, 50, 0.0)


# ---------------------------------------------------------------------------
# windows

def test_window_count_small_case():
    traj = toy_trajectory(T=5)
    windows = make_windows(traj, 3, fit_normalization([traj]))
    assert [w.end_cycle for w in windows] == [3, 4, 5]


def test_single_window_when_length_equals_k():
    traj = toy_trajectory(T=40)
    assert len(make_windows(traj, 40, fit_normalization([traj]))) == 1


def test_short_trajectory_is_left_padded_by_replication():
    traj = toy_trajectory(T=19)
    stats = fit_normalization([traj])
    (window,) = make_windows(traj, 40, stats)
    feats = window.features
    assert feats.shape == (dp.N_FEATURES, 40)
    raw = normalize_matrix(traj.features(), stats)
    np.testing.assert_array_equal(feats[:, 21:], raw.T)  # unpadded suffix
    for col in range(21):  # replicated earliest row
        np.testing.assert_array_equal(feats[:, col], raw[0])


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 160), st.integers(1, 64))
def test_window_count_property(T, K):
    traj = toy_trajectory(T=T)
    windows = make_windows(traj, K, fit_normalization([traj]))
    expected = T - K + 1 if T >= K else 1
    assert len(windows) == expected


def test_label_monotone_and_saturated():
    T, K, rc = 170, 30, 125.0
    traj = toy_trajectory(T=T)
    windows = make_windows(traj, K, fit_normalization([traj]), rc)
    labels = [w.rul_scaled for w in windows]
    assert all(a >= b for a, b in zip(labels, labels[1:]))
    for w in windows:
        if T - w.end_cycle >= rc:
            assert w.rul_scaled == 1.0
    assert labels[-1] == 0.0


@pytest.mark.parametrize("T, K, rc", [(12, 30, 125.0), (30, 30, 125.0), (170, 30, 125.0), (9, 4, 3)])
def test_bulk_labels_equal_rul_label_per_window(T, K, rc):
    traj = toy_trajectory(T=T)
    windows = make_windows(traj, K, fit_normalization([traj]), rc)
    assert len(windows) == max(T - K + 1, 1)
    for w in windows:
        expected = rul_label(T, w.end_cycle, rc)
        assert type(w.rul_scaled) is float and w.rul_scaled.hex() == expected.hex()


def test_windows_reject_non_positive_rc():
    traj = toy_trajectory(T=20)
    with pytest.raises(ValueError, match="rc must be positive"):
        make_windows(traj, 5, fit_normalization([traj]), 0.0)


def test_stack_windows_shapes_and_missing_labels():
    traj = toy_trajectory(T=30)
    stats = fit_normalization([traj])
    labelled = make_windows(traj, 10, stats)
    X, y = stack_windows(labelled, [0, 3, 5])
    assert X.shape == (3, dp.N_FEATURES, 10) and y.shape == (3, 1)
    unlabelled = make_windows(traj, 10, stats, labelled=False)
    _, y2 = stack_windows(unlabelled)
    assert y2 is None


# ---------------------------------------------------------------------------
# splits and dataset assembly

def test_split_90_10_with_seed_42():
    trajs = [toy_trajectory(u, T=30) for u in range(1, 101)]
    train, val = split_train_val(trajs, 42, 0.1)
    assert len(train) == 90 and len(val) == 10
    assert not {t.unit_id for t in train} & {t.unit_id for t in val}


def test_split_is_deterministic_per_seed():
    trajs = [toy_trajectory(u, T=20) for u in range(1, 41)]
    first = split_train_val(trajs, 42, 0.2)
    second = split_train_val(trajs, 42, 0.2)
    assert [t.unit_id for t in first[1]] == [t.unit_id for t in second[1]]


def test_split_needs_two_trajectories():
    with pytest.raises(SplitError):
        split_train_val([toy_trajectory()], 42, 0.5)


def _tiny_dataset(role, n_train=6, n_test=3, window=8):
    train = [toy_trajectory(u, T=30) for u in range(1, n_train + 1)]
    test = [toy_trajectory(100 + u, T=20) for u in range(1, n_test + 1)]
    truth = np.array([40.0, 5.0, 130.0])[:n_test]
    return build_domain_dataset(
        train, test, truth,
        subset="TOY", role=role, window=window, rc=125.0, val_fraction=0.2,
    )


def test_dataset_invariants_for_source_role():
    ds = _tiny_dataset(dp.SOURCE)
    assert not set(ds.train_units) & set(ds.val_units)
    assert len(ds.test_windows) == len(ds.test_rul_truth) == 3
    assert all(w.rul_scaled is not None for w in ds.train_windows)
    # evaluation labels capped at rc and scaled
    assert ds.test_windows[2].rul_scaled == pytest.approx(1.0)
    assert ds.test_windows[0].rul_scaled == pytest.approx(40.0 / 125.0)


def test_target_role_strips_training_labels_but_not_eval():
    ds = _tiny_dataset(dp.TARGET)
    assert all(w.rul_scaled is None for w in ds.train_windows)
    assert all(w.rul_scaled is None for w in ds.val_windows)
    assert all(w.rul_scaled is not None for w in ds.test_windows)


def test_dataset_truth_mismatch_raises():
    train = [toy_trajectory(u, T=30) for u in range(1, 5)]
    test = [toy_trajectory(9, T=20)]
    with pytest.raises(IntegrityError):
        build_domain_dataset(
            train, test, np.array([1.0, 2.0]),
            subset="TOY", role=dp.SOURCE, window=8,
        )



def test_dataset_from_matrices_rejects_surplus_test_engines():
    rng = np.random.default_rng(0)
    train = [(u, rng.normal(size=(30, 4))) for u in range(1, 5)]
    test = [(100 + u, rng.normal(size=(20, 4))) for u in range(1, 4)]
    with pytest.raises(IntegrityError):
        dp.dataset_from_matrices(
            train, test, np.array([10.0, 20.0]),
            subset="TOY", role=dp.TARGET, window=8, rc=125.0,
        )
