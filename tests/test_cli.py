import dataclasses
import hashlib
import json
import math
import shlex
import shutil
from pathlib import Path

import pytest
import yaml

from ruladapt import training
from ruladapt.cli import TOY_FEATURE_MASK, _build_run_config, _setup, build_parser, main
from ruladapt.data import parse_cmapss, subset_paths
from ruladapt.model import toy_model_config


def run_cli(*argv) -> int:
    return main([str(a) for a in argv])


def blob_hash(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


TOY_FAST = ("--toy", "--epochs", "1", "--batch-size", "16")
TOY_RUN = (*TOY_FAST, "--seeds", "1", "--no-latents")
DESK_FAST = ("--preset", "desk", "--epochs", "1", "--batch-size", "16")


# ---------------------------------------------------------------------------
# ingest

def test_ingest_prints_counts_and_is_hash_stable(cmapss_dir, capsys):
    argv = ("ingest", "--subset", "FD001", "--window", "40", "--data-dir", cmapss_dir)
    assert run_cli(*argv) == 0
    first = capsys.readouterr().out
    assert "100 train trajectories" in first and "100 test trajectories" in first
    train, _, _ = parse_cmapss(*subset_paths(cmapss_dir, "FD001"))
    n_windows = sum(max(len(t.matrix) - 40 + 1, 1) for t in train)
    assert f"FD001: {n_windows} train windows (K=40)" in first
    assert run_cli(*argv) == 0
    assert capsys.readouterr().out == first


def test_ingest_bad_path_names_the_file(tmp_path, capsys):
    rc = run_cli("ingest", "--subset", "FD009", "--data-dir", tmp_path / "nowhere")
    assert rc == 2
    err = capsys.readouterr().err
    assert "FD009" in err and "nowhere" in str(err)


def test_ingest_writes_nothing(cmapss_tiny_dir, tmp_path, monkeypatch):
    cwd = tmp_path / "cwd"
    cwd.mkdir()
    monkeypatch.chdir(cwd)
    assert run_cli("ingest", "--subset", "FD001", "--data-dir", cmapss_tiny_dir) == 0
    assert list(cwd.iterdir()) == []


def _toy_ingest_line(data_dir) -> str:
    train, _, _ = parse_cmapss(*subset_paths(data_dir, "FD001"))
    n_windows = sum(max(len(t.matrix) - 16 + 1, 1) for t in train)
    return f"FD001: {n_windows} train windows (K=16)"


def test_ingest_windows_follow_the_file_preset(cmapss_tiny_dir, tmp_path, capsys):
    """A file `preset: toy` sets the window to the toy preset's 16, as it
    does for `train`."""
    cfg = tmp_path / "run.yaml"
    cfg.write_text(yaml.safe_dump({"preset": "toy"}))
    assert run_cli("ingest", "--subset", "FD001", "--config", cfg,
                   "--data-dir", cmapss_tiny_dir) == 0
    assert _toy_ingest_line(cmapss_tiny_dir) in capsys.readouterr().out


@pytest.mark.parametrize("flags", [("--preset", "toy"), ("--toy",)], ids=["preset", "toy"])
def test_ingest_takes_the_preset_flags(flags, cmapss_tiny_dir, capsys):
    assert run_cli("ingest", "--subset", "FD001", "--data-dir", cmapss_tiny_dir, *flags) == 0
    assert _toy_ingest_line(cmapss_tiny_dir) in capsys.readouterr().out


def test_ingest_malformed_file_exits_2_naming_its_line(cmapss_tiny_dir, tmp_path, capsys):
    for path in subset_paths(cmapss_tiny_dir, "FD001"):
        shutil.copy(path, tmp_path / path.name)
    train_path = subset_paths(tmp_path, "FD001")[0]
    lines = train_path.read_text().splitlines(keepends=True)
    lines[2] = lines[2].replace(" ", " x ", 1)
    train_path.write_text("".join(lines))
    assert run_cli("ingest", "--subset", "FD001", "--data-dir", tmp_path) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"{train_path}:3:" in err


@pytest.mark.parametrize("file, line, column, token", [
    (0, 3, 5, "nan"),  # a train file's sensor column that the toy mask reads
    (1, 2, 8, "inf"),
    (2, 1, 0, "nan"),
], ids=["train-nan", "test-inf", "rul-nan"])
def test_a_non_finite_value_exits_2_naming_its_line(cmapss_tiny_dir, tmp_path, capsys,
                                                    file, line, column, token):
    data = tmp_path / "data"
    data.mkdir()
    for path in subset_paths(cmapss_tiny_dir, "FD001"):
        shutil.copy(path, data / path.name)
    bad = subset_paths(data, "FD001")[file]
    lines = bad.read_text().splitlines(keepends=True)
    tokens = lines[line - 1].split()
    tokens[column] = token
    lines[line - 1] = " ".join(tokens) + "\n"
    bad.write_text("".join(lines))
    out = tmp_path / "runs"
    assert run_cli("train", "--source", "FD001", "--target", "FD001", "--data-dir", data,
                   "--out-dir", out, *TOY_RUN) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"{bad}:{line}: non-finite value" in err
    assert not out.exists()


# ---------------------------------------------------------------------------
# train

def test_train_toy_run_writes_artifact_tree(cmapss_tiny_dir, tmp_path, capsys):
    out = tmp_path / "runs"
    rc = run_cli(
        "train", "--source", "FD001", "--target", "FD002", "--variant", "no_da",
        "--data-dir", cmapss_tiny_dir, "--out-dir", out, *TOY_RUN,
    )
    assert rc == 0
    run_dir = out / "FD001-FD002" / "no_da" / "1"
    for name in ("report.json", "train_log.csv", "checkpoint.bin", "metrics.csv"):
        assert (run_dir / name).exists()
    report = json.loads((out / "FD001-FD002" / "no_da" / "report.json").read_text())
    assert report["variant"] == "no_da" and report["config_hash"]
    assert (out / "FD001-FD002" / "no_da" / "metrics.csv").exists()


def test_train_no_da_log_has_no_adaptation_terms(cmapss_tiny_dir, tmp_path):
    out = tmp_path / "runs"
    run_cli(
        "train", "--source", "FD001", "--target", "FD002", "--variant", "no_da",
        "--data-dir", cmapss_tiny_dir, "--out-dir", out, *TOY_RUN,
    )
    log = (out / "FD001-FD002" / "no_da" / "1" / "train_log.csv").read_text().splitlines()
    header = log[0].split(",")
    d_col = header.index("discrepancy")
    r_col = header.index("recon")
    for line in log[1:]:
        cells = line.split(",")
        assert cells[d_col] == "" and cells[r_col] == ""


def test_rerun_without_latents_leaves_no_earlier_latents(cmapss_tiny_dir, tmp_path):
    out = tmp_path / "runs"
    args = ("train", "--source", "FD001", "--target", "FD002", "--variant", "no_da",
            "--data-dir", cmapss_tiny_dir, "--out-dir", out, *TOY_FAST, "--seeds", "1")
    assert run_cli(*args) == 0
    seed_dir = out / "FD001-FD002" / "no_da" / "1"
    assert (seed_dir / "latents_C.csv").exists()
    assert run_cli(*args, "--no-latents", "--lr", "0.002") == 0
    assert sorted(p.name for p in seed_dir.iterdir()) == [
        "checkpoint.bin", "metrics.csv", "report.json", "train_log.csv",
    ]
    assert json.loads((seed_dir / "report.json").read_text())["config"]["lr"] == 0.002


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
def test_aborted_rerun_leaves_only_its_own_log(cmapss_tiny_dir, tmp_path):
    out = tmp_path / "runs"
    args = ("train", "--source", "FD001", "--target", "FD002", "--variant", "no_da",
            "--data-dir", cmapss_tiny_dir, "--out-dir", out, *TOY_RUN)
    assert run_cli(*args) == 0
    assert run_cli(*args, "--lr", "1e200") == 1
    seed_dir = out / "FD001-FD002" / "no_da" / "1"
    assert [p.name for p in seed_dir.iterdir()] == ["train_log.csv"]


def test_train_is_idempotent(cmapss_tiny_dir, tmp_path):
    out = tmp_path / "runs"
    args = (
        "train", "--source", "FD001", "--target", "FD002", "--variant", "no_da",
        "--data-dir", cmapss_tiny_dir, "--out-dir", out, *TOY_RUN,
    )
    assert run_cli(*args) == 0
    ckpt = out / "FD001-FD002" / "no_da" / "1" / "checkpoint.bin"
    h1 = blob_hash(ckpt)
    assert run_cli(*args) == 0
    assert blob_hash(ckpt) == h1


def test_train_writes_latents_by_default(cmapss_tiny_dir, tmp_path):
    out = tmp_path / "runs"
    rc = run_cli(
        "train", "--source", "FD001", "--target", "FD002", "--variant", "no_da",
        "--data-dir", cmapss_tiny_dir, "--out-dir", out,
        "--toy", "--epochs", "1", "--batch-size", "16", "--seeds", "1",
    )
    assert rc == 0
    run_dir = out / "FD001-FD002" / "no_da" / "1"
    assert (run_dir / "latents_C.csv").exists()
    assert (run_dir / "latents_O.csv").exists()


def test_config_file_defaults_and_unknown_key_rejection(cmapss_tiny_dir, tmp_path, capsys):
    cfg = tmp_path / "run.yaml"
    cfg.write_text(yaml.safe_dump({"epochs": 1, "batch_size": 16, "seeds": [1]}))
    out = tmp_path / "runs"
    rc = run_cli(
        "train", "--source", "FD001", "--target", "FD002", "--variant", "no_da",
        "--config", cfg, "--data-dir", cmapss_tiny_dir, "--out-dir", out,
        "--toy", "--no-latents",
    )
    assert rc == 0

    capsys.readouterr()
    bad = tmp_path / "bad.yaml"
    bad.write_text(yaml.safe_dump({"epochs": 1, "learning_rate_typo": 3}))
    rc = run_cli(
        "train", "--source", "FD001", "--target", "FD002",
        "--config", bad, "--data-dir", cmapss_tiny_dir, "--out-dir", out, "--toy",
    )
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "unknown" in err and "learning_rate_typo" in err


@pytest.mark.parametrize(
    "command, flags, file_cfg, message",
    [
        ("train", (), {"preset": "huge"}, "unknown preset 'huge'"),
        ("train", (), {"model": {"window": 30}}, "model window 30 != run window 40"),
        ("train", ("--toy",), {"feature_mask": list(range(10))}, "fixes the feature mask"),
        ("ablate", (), {"preset": "toy", "feature_mask": list(range(10))},
         "fixes the feature mask"),
        ("train", ("--toy",), {"model": {"attn_dim": 16}}, "toy preset fixes the model widths"),
        ("sweep", ("--preset", "desk"), {"model": {"n_heads": 4}},
         "desk preset fixes the model widths"),
        ("train", ("--seeds", "1,x", *TOY_FAST), {}, "--seeds '1,x'"),
        ("train", ("--window", "0", *TOY_FAST), {}, "window must be >= 1, got 0"),
        ("train", ("--window", "-5", *TOY_FAST), {}, "window must be >= 1, got -5"),
        ("train", ("--seeds", "1,1", *TOY_FAST), {},
         "seeds must be non-empty and distinct, got [1, 1]"),
        ("train", TOY_FAST, {"seeds": []}, "seeds must be non-empty and distinct, got []"),
        ("train", ("--seeds=", *TOY_FAST), {}, "--seeds '': invalid literal"),
        ("train", ("--jobs", "0", *TOY_FAST), {}, "jobs must be >= 1, got 0"),
        ("ablate", ("--jobs", "-1", *TOY_FAST), {}, "jobs must be >= 1, got -1"),
        ("train", TOY_FAST, {"jobs": "x"}, "jobs must be an integer, got 'x'"),
        ("sweep", ("--confirm", *TOY_FAST), {"jobs": 0}, "jobs must be >= 1, got 0"),
        ("train", TOY_FAST, {"jobs": 2.7}, "jobs must be an integer, got 2.7"),
        ("train", TOY_FAST, {"jobs": "2"}, "jobs must be an integer, got '2'"),
        ("ablate", TOY_FAST, {"jobs": 2.0}, "jobs must be an integer, got 2.0"),
        ("ablate", TOY_FAST, {"jobs": True}, "jobs must be an integer, got True"),
        ("train", TOY_FAST, {"lr_gamma": 1.5}, "lr_gamma must lie in (0, 1], got 1.5"),
        ("train", TOY_FAST, {"lr_gamma": 0.0}, "lr_gamma must lie in (0, 1], got 0.0"),
        ("train", TOY_FAST, {"lr_decay_start": -1}, "lr_decay_start must be >= 0, got -1"),
        ("train", ("--variant", "dann", *TOY_FAST), {"dann_hidden": 0},
         "dann_hidden must be >= 1, got 0"),
        ("train", DESK_FAST, {"feature_mask": []},
         "feature_mask must be non-empty with indices in 0..23, got []"),
        ("train", DESK_FAST, {"feature_mask": [0, 30]},
         "feature_mask must be non-empty with indices in 0..23, got [0, 30]"),
        ("sweep", ("--confirm", *DESK_FAST), {"feature_mask": [-1]},
         "feature_mask must be non-empty with indices in 0..23, got [-1]"),
        ("train", TOY_FAST, {"feature_mask": []}, "fixes the feature mask"),
        ("train", DESK_FAST, {"window": 16.5}, "window must be an integer, got 16.5"),
        ("train", ("--preset", "desk", "--batch-size", "16"), {"epochs": 1.5},
         "epochs must be an integer, got 1.5"),
        ("ablate", ("--toy", "--batch-size", "16"), {"epochs": True},
         "epochs must be an integer, got True"),
        ("train", DESK_FAST, {"feature_mask": 5}, "feature_mask must be a list of integers, got 5"),
        ("train", DESK_FAST, {"feature_mask": [0, 1.5]},
         "feature_mask must be a list of integers, got (0, 1.5)"),
        ("train", ("--variant", "dann", *TOY_FAST), {"dann_weight": -1},
         "dann_weight must be >= 0, got -1"),
        ("train", ("--seeds", "-1", *TOY_FAST), {}, "seeds must be >= 0, got [-1]"),
        ("train", TOY_FAST, {"seeds": [1.5]}, "seeds must be a list of integers, got (1.5,)"),
        ("train", TOY_FAST, {"seeds": [True]}, "seeds must be a list of integers, got (True,)"),
        ("train", TOY_FAST, {"lr": float("nan")}, "lr must be > 0, got nan"),
        ("train", TOY_FAST, {"rc": 0}, "rc must be > 0, got 0"),
        ("train", TOY_FAST, {"val_fraction": 1.5}, "val_fraction must lie in (0, 1), got 1.5"),
        ("train", ("--batch-size", "16"), {"model": {"n_heads": 2.0}},
         "n_heads must be an integer, got 2.0"),
        ("train", ("--batch-size", "16"), {"model": {"recon_hidden": 0}},
         "recon_hidden must be >= 1, got 0"),
    ],
    ids=["unknown-preset", "model-window-conflict", "toy-flag-mask", "toy-file-mask",
         "toy-model", "desk-model", "seeds-not-int", "window-zero", "window-negative",
         "seeds-repeated", "seeds-empty", "seeds-flag-empty", "jobs-zero", "jobs-negative",
         "jobs-file-not-int", "jobs-file-zero", "jobs-file-fraction", "jobs-file-string",
         "jobs-file-float", "jobs-file-bool",
         "lr-gamma-above-1", "lr-gamma-zero", "lr-decay-start-negative", "dann-hidden-zero",
         "mask-empty", "mask-out-of-range", "mask-negative", "toy-file-mask-empty",
         "window-fraction", "epochs-fraction", "epochs-bool", "mask-not-list",
         "mask-fraction", "dann-weight-negative", "seeds-negative", "seeds-fraction",
         "seeds-bool", "lr-nan", "rc-zero", "val-fraction-above-1", "n-heads-float",
         "recon-hidden-zero"],
)
def test_config_errors_exit_2_before_any_work(
    command, flags, file_cfg, message, cmapss_tiny_dir, tmp_path, capsys
):
    """A configuration that cannot be built, or a file setting that the
    preset would drop, is an `error:` line and exit 2; nothing is written."""
    cfg = tmp_path / "run.yaml"
    cfg.write_text(yaml.safe_dump(file_cfg))
    out = tmp_path / "runs"
    rc = run_cli(
        command, "--source", "FD001", "--target", "FD002", "--config", cfg,
        "--data-dir", cmapss_tiny_dir, "--out-dir", out, *flags,
    )
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err, err
    assert not out.exists()


BAD_FILE_VALUES = [  # fields of each kind from each config class, and its mappings
    ({"epochs": 2.5}, "epochs"),
    ({"lr": float("inf")}, "lr"),
    ({"seeds": "abc"}, "seeds"),
    ({"feature_mask": [True]}, "feature_mask"),
    ({"val_seed": -1}, "val_seed"),
    ({"weights": {"lambda_m": float("nan")}}, "lambda_m"),
    ({"weights": {"gamma_noise": float("inf")}}, "gamma_noise"),
    ({"weights": {"da_start_iteration": 2.5}}, "da_start_iteration"),
    ({"kernel": {"bandwidth_mode": ""}}, "bandwidth_mode"),
    ({"kernel": {"bandwidth_mode": "fixed", "bandwidth": float("nan")}}, "bandwidth"),
    ({"kernel": {"family": "laplace"}}, "family"),
    ({"model": {"attn_dim": True}}, "attn_dim"),
    ({"model": {"recon_cell": 5}}, "recon_cell"),
    ({"weights": 5}, "weights"),
    ({"kernel": "rbf"}, "kernel"),
    ({"model": [1]}, "model"),
]


@pytest.mark.parametrize("file_cfg, field", BAD_FILE_VALUES,
                         ids=[field for _, field in BAD_FILE_VALUES])
def test_bad_file_value_exits_2_before_reading_data(file_cfg, field, tmp_path, capsys):
    """With a data directory that does not exist, the error names the bad
    field, not the missing file: the config is checked before any data is
    read, and nothing is created."""
    cfg = tmp_path / "run.yaml"
    cfg.write_text(yaml.safe_dump(file_cfg))
    out = tmp_path / "runs"
    rc = run_cli("train", "--source", "FD001", "--target", "FD002", "--config", cfg,
                 "--data-dir", tmp_path / "missing", "--out-dir", out)
    err = capsys.readouterr().err
    assert rc == 2 and err.startswith(f"error: {field} must "), err
    assert not out.exists()


@pytest.mark.parametrize(
    "file_cfg, message",
    [({"data_dir": 5}, "data_dir must be a string, got 5"),
     ({"out_dir": 7}, "out_dir must be a string, got 7"),
     ({"out_dir": ["runs"]}, "out_dir must be a string, got ['runs']")],
    ids=["data-dir-int", "out-dir-int", "out-dir-list"],
)
def test_file_paths_must_be_strings(file_cfg, message, tmp_path, monkeypatch, capsys):
    """A path key of the file that no flag hides must be a string; otherwise
    the command is an `error:` line and exit 2, and writes nothing."""
    cfg = tmp_path / "run.yaml"
    cfg.write_text(yaml.safe_dump(file_cfg))
    cwd = tmp_path / "cwd"
    cwd.mkdir()
    monkeypatch.chdir(cwd)
    assert run_cli("ingest", "--subset", "FD001", "--config", cfg) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err, err
    assert list(cwd.iterdir()) == []


@pytest.mark.parametrize(
    "text, message", [(None, "No such file or directory"), ("epochs: [1\n", "while parsing")],
    ids=["missing", "not-yaml"],
)
def test_unreadable_config_file_exits_2_naming_it(text, message, tmp_path, capsys):
    cfg = tmp_path / "run.yaml"
    if text is not None:
        cfg.write_text(text)
    out = tmp_path / "runs"
    assert run_cli("train", "--source", "FD001", "--target", "FD002", "--config", cfg,
                   "--out-dir", out, *TOY_RUN) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: --config {cfg}: ") and message in err, err
    assert not out.exists()


@pytest.mark.parametrize(
    "flags, file_cfg, window, n_features",
    [
        (("--window", "30"), {}, 30, 24),
        (("--toy", "--window", "20"), {}, 20, 8),
        (("--preset", "desk", "--window", "30"), {}, 30, 24),
        ((), {"window": 30}, 30, 24),
        (("--preset", "desk"), {"window": 30}, 30, 24),
        (("--window", "20"), {"window": 30}, 20, 24),
        ((), {"feature_mask": list(range(10))}, 40, 10),
        (("--preset", "desk"), {"feature_mask": list(range(10))}, 40, 10),
    ],
    ids=["flag", "toy-flag", "desk-flag", "file", "desk-file", "flag-over-file",
         "file-mask", "desk-file-mask"],
)
def test_window_and_mask_width_reach_the_model(flags, file_cfg, window, n_features):
    args = build_parser().parse_args(["train", "--source", "FD001", "--target", "FD002", *flags])
    config = _build_run_config(args, file_cfg, "FD001", "FD002", "lamanet")
    assert config.window == config.model.window == window
    assert config.model.n_features == n_features


def _setup_paths(tmp_path, flags, file_cfg):
    cfg = tmp_path / "run.yaml"
    cfg.write_text(yaml.safe_dump(file_cfg))
    args = build_parser().parse_args(
        ["train", "--source", "FD001", "--target", "FD002", "--config", str(cfg), *map(str, flags)]
    )
    _, data_dir, out_dir, jobs = _setup(args, args.variant, args.source, args.target)
    return data_dir, out_dir, jobs


def test_path_settings_take_the_flag_else_the_file_else_the_default(tmp_path, monkeypatch):
    """data_dir, out_dir and jobs: the flag, else the file's value, else the
    default ($RULADAPT_DATA_DIR before `data`); a file key set to null is
    unset."""
    monkeypatch.setenv("RULADAPT_DATA_DIR", str(tmp_path / "env-data"))
    in_file = {"data_dir": str(tmp_path / "file-data"), "out_dir": str(tmp_path / "file-out"),
               "jobs": 2}
    assert _setup_paths(tmp_path, (), in_file) == (
        tmp_path / "file-data", tmp_path / "file-out", 2)
    flags = ("--data-dir", tmp_path / "flag-data", "--out-dir", tmp_path / "flag-out",
             "--jobs", 1)
    assert _setup_paths(tmp_path, flags, in_file) == (
        tmp_path / "flag-data", tmp_path / "flag-out", 1)
    unset = {"data_dir": None, "out_dir": None, "jobs": None}
    for file_cfg in ({}, unset):
        assert _setup_paths(tmp_path, (), file_cfg) == (tmp_path / "env-data", Path("runs"), 1)
    monkeypatch.delenv("RULADAPT_DATA_DIR")
    assert _setup_paths(tmp_path, (), {})[0] == Path("data")


def test_null_run_fields_in_the_file_are_unset(tmp_path):
    """A run field set to null in the file is unset too, as a path setting
    is: the config hashes as an empty file's does."""
    def config_from(file_cfg):
        cfg = tmp_path / "run.yaml"
        cfg.write_text(yaml.safe_dump(file_cfg))
        args = build_parser().parse_args(
            ["train", "--source", "FD001", "--target", "FD002", "--config", str(cfg)])
        return _setup(args, args.variant, args.source, args.target)[0]

    nulls = dict.fromkeys(("epochs", "lr", "weights", "seeds", "window", "model"))
    assert config_from(nulls).hash == config_from({}).hash


def test_file_model_mapping_sets_the_other_widths():
    args = build_parser().parse_args(["train", "--source", "FD001", "--target", "FD002",
                                      "--window", "30"])
    file_cfg = {"model": {"attn_dim": 16, "n_heads": 2}}
    config = _build_run_config(args, file_cfg, "FD001", "FD002", "lamanet")
    assert (config.model.attn_dim, config.model.n_heads, config.model.window) == (16, 2, 30)


@pytest.mark.parametrize("variant", training.VARIANTS)
def test_every_builder_gives_the_variant_its_own_weights(variant):
    """`RunConfig`, `make_run_config`, `run_config_from_dict` and the CLI
    take a variant's weights from `VARIANT_TERMS` alone: one config, one
    hash."""
    args = build_parser().parse_args(
        ["train", "--source", "FD002", "--target", "FD001", "--variant", variant])
    configs = [
        training.RunConfig(variant=variant),
        training.make_run_config("FD002", "FD001", variant),
        training.run_config_from_dict({"variant": variant}),
        _build_run_config(args, {}, "FD002", "FD001", variant),
    ]
    assert {config.weights for config in configs} == {training.variant_weights(variant)}
    assert len({config.hash for config in configs}) == 1


@pytest.mark.parametrize("variant", ["mmd", "coral"])
def test_partial_file_weights_keep_the_variant_weights(variant, cmapss_tiny_dir, tmp_path):
    """A file `weights:` mapping sets only the fields it names: opening the
    gate early leaves mmd's and coral's lambda_m at their own 0.2."""
    cfg = tmp_path / "run.yaml"
    cfg.write_text(yaml.safe_dump({"weights": {"da_start_iteration": 0}}))
    out = tmp_path / "runs"
    assert run_cli("train", "--source", "FD001", "--target", "FD002", "--variant", variant,
                   "--config", cfg, "--data-dir", cmapss_tiny_dir, "--out-dir", out,
                   *TOY_RUN) == 0
    report = json.loads((out / "FD001-FD002" / variant / "1" / "report.json").read_text())
    assert report["config"]["weights"] == {
        "lambda_m": 0.2, "lambda_r": 0.0, "lambda_s": 0.0, "gamma_noise": 0.1,
        "da_start_iteration": 0}


def test_toy_flag_wins_over_a_file_preset(cmapss_tiny_dir, tmp_path):
    """`--toy` is `--preset toy`, so it wins over a file `preset: desk` as
    any flag wins over the file."""
    cfg = tmp_path / "run.yaml"
    cfg.write_text(yaml.safe_dump({"preset": "desk"}))
    out = tmp_path / "runs"
    assert run_cli("train", "--source", "FD001", "--target", "FD002", "--variant", "no_da",
                   "--config", cfg, "--data-dir", cmapss_tiny_dir, "--out-dir", out,
                   *TOY_RUN) == 0
    config = json.loads((out / "FD001-FD002" / "no_da" / "1" / "report.json").read_text())["config"]
    assert config["model"] == dataclasses.asdict(toy_model_config())
    assert tuple(config["feature_mask"]) == TOY_FEATURE_MASK


def _readme_section(title: str) -> str:
    text = (Path(__file__).parents[1] / "README.md").read_text()
    return text.split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]


def test_readme_cli_lines_parse():
    """Every `ruladapt` command in README's CLI section parses with the
    program's parser (`\\` continuations joined)."""
    lines = _readme_section("CLI").replace("\\\n", " ").splitlines()
    commands = [shlex.split(line)[1:] for line in lines if line.startswith("ruladapt ")]
    assert len(commands) >= 8
    for argv in commands:
        build_parser().parse_args(argv)


def test_readme_config_file_example_builds(tmp_path):
    """README's `run.yaml` example builds a run config through `_setup`."""
    example = _readme_section("CLI").split("```yaml\n", 1)[1].split("```", 1)[0]
    cfg = tmp_path / "run.yaml"
    cfg.write_text(example)
    args = build_parser().parse_args(
        ["train", "--source", "FD002", "--target", "FD001", "--config", str(cfg)])
    config, _, _, _ = _setup(args, args.variant, args.source, args.target)
    assert config.epochs == yaml.safe_load(example)["epochs"]


def test_train_toy_with_window_flag_runs(cmapss_tiny_dir, tmp_path):
    out = tmp_path / "runs"
    rc = run_cli(
        "train", "--source", "FD001", "--target", "FD002", "--variant", "no_da",
        "--data-dir", cmapss_tiny_dir, "--out-dir", out, *TOY_RUN, "--window", "12",
    )
    assert rc == 0
    report = json.loads((out / "FD001-FD002" / "no_da" / "1" / "report.json").read_text())
    assert report["config"]["window"] == report["config"]["model"]["window"] == 12


# ---------------------------------------------------------------------------
# ablate

def test_ablate_emits_three_variant_columns(cmapss_tiny_dir, tmp_path, capsys):
    out = tmp_path / "runs"
    rc = run_cli(
        "ablate", "--source", "FD001", "--target", "FD002",
        "--data-dir", cmapss_tiny_dir, "--out-dir", out, *TOY_RUN,
    )
    assert rc == 0
    progress = capsys.readouterr().out
    for label in ("mmd", "mmd_ae", "full"):
        assert f"FD001->FD002 {label} seed 1: rmse" in progress
    pair_dir = out / "FD001-FD002" / "ablate"
    rmse_rows = (pair_dir / "rmse.csv").read_text().splitlines()
    header = rmse_rows[0].split(",")
    assert header == ["pair", "full", "mmd", "mmd_ae"]
    points = (pair_dir / "ablate_points.csv").read_text().splitlines()
    assert points[0] == "variant,seed,rmse,score"
    assert len(points) == 1 + 3  # one row per (variant, seed)


def test_ablate_row_weights_match_term_sets(cmapss_tiny_dir, tmp_path):
    """mmd row trains without recon/smooth columns; mmd_ae adds recon only."""
    out = tmp_path / "runs"
    run_cli(
        "ablate", "--source", "FD001", "--target", "FD002",
        "--data-dir", cmapss_tiny_dir, "--out-dir", out,
        "--toy", "--epochs", "1", "--batch-size", "16", "--seeds", "1",
        "--no-latents",
    )
    base = out / "FD001-FD002"

    def active_columns(variant_dir):
        lines = (base / variant_dir / "1" / "train_log.csv").read_text().splitlines()
        header = lines[0].split(",")
        last = lines[-2].split(",")  # final iteration row (last line is val row)
        return {
            name for name, cell in zip(header, last)
            if cell and name in ("discrepancy", "recon", "smooth")
        }

    # da_start=200 exceeds this 1-epoch toy budget, so adaptation columns are
    # blank everywhere; the weight columns still differ per row in the config.
    for label, expect_weights in (
        ("mmd", (0.35, 0.0, 0.0)),
        ("mmd_ae", (0.35, 0.2, 0.0)),
        ("full", (0.35, 0.2, 0.35)),
    ):
        row = f"ablate-{label}"
        report = json.loads((base / row / "1" / "report.json").read_text())
        weights = report["config"]["weights"]
        assert (weights["lambda_m"], weights["lambda_r"], weights["lambda_s"]) == expect_weights
        assert json.loads((base / row / "report.json").read_text())["variant"] == label


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
def test_ablate_prints_one_failed_line_per_failed_seed(cmapss_tiny_dir, tmp_path, capsys):
    rc = run_cli(
        "ablate", "--source", "FD001", "--target", "FD002",
        "--data-dir", cmapss_tiny_dir, "--out-dir", tmp_path / "runs", *TOY_RUN,
        "--lr", "1e200",
    )
    assert rc == 1
    failed = [line for line in capsys.readouterr().err.splitlines() if line.startswith("FAILED ")]
    assert len(failed) == 3 and all(line.startswith("FAILED seed 1: ") for line in failed)


def test_ablate_points_skip_a_failed_seed(cmapss_tiny_dir, tmp_path, monkeypatch, capsys):
    """Seed 1 aborts in every row; each row's points are seed 2's own numbers."""
    real = training.run_single_seed

    def seed_1_aborts(config, seed, *args, **kwargs):
        if seed == 1:
            raise training.TrainingAbort("forced abort", {})
        return real(config, seed, *args, **kwargs)

    monkeypatch.setattr(training, "run_single_seed", seed_1_aborts)
    out = tmp_path / "runs"
    rc = run_cli(
        "ablate", "--source", "FD001", "--target", "FD002",
        "--data-dir", cmapss_tiny_dir, "--out-dir", out,
        "--toy", "--epochs", "1", "--batch-size", "16", "--seeds", "1,2",
        "--no-latents", "--jobs", "1",
    )
    assert rc == 1
    pair_dir = out / "FD001-FD002"
    points = (pair_dir / "ablate" / "ablate_points.csv").read_text().splitlines()[1:]
    assert len(points) == 3
    for line in points:
        variant, seed, rmse, _ = line.split(",")
        metrics = (pair_dir / f"ablate-{variant}" / "metrics.csv").read_text().splitlines()
        assert seed == "2" and metrics[1].split(",")[:2] == [seed, rmse]


# ---------------------------------------------------------------------------
# --jobs

JOBS_RUN = ("--toy", "--epochs", "1", "--batch-size", "16", "--seeds", "1,2")


def _artifact_tree(root) -> dict:
    return {p.relative_to(root): p.read_bytes() for p in root.rglob("*") if p.is_file()}


def _sweep_grid(lambda_m: str, lambda_r: str) -> str:
    return f"lambda_m={lambda_m};lambda_r={lambda_r};lambda_s=0.35;gamma_noise=0.1;autoencoder=gru"


@pytest.mark.parametrize("command", [
    ("train", "--variant", "lamanet"), ("ablate",),
    ("sweep", "--confirm", "--grid", _sweep_grid("0.1,0.5", "0.2")),
])
def test_jobs_2_writes_the_jobs_1_tree(cmapss_tiny_dir, tmp_path, capsys, command):
    """Same files and the same stdout, progress lines in the same order."""
    trees, stdout = {}, {}
    for jobs in (1, 2):
        out = tmp_path / f"jobs{jobs}"
        rc = run_cli(
            *command, "--source", "FD001", "--target", "FD002",
            "--data-dir", cmapss_tiny_dir, "--out-dir", out, *JOBS_RUN, "--jobs", jobs,
        )
        assert rc == 0
        trees[jobs] = _artifact_tree(out)
        stdout[jobs] = capsys.readouterr().out
    assert stdout[2] == stdout[1]
    assert sorted(trees[2]) == sorted(trees[1])
    for rel, blob in trees[1].items():
        assert trees[2][rel] == blob, rel


def test_a_parent_side_error_cancels_the_seeds_not_yet_started(cmapss_tiny_dir, tmp_path):
    """A directory where row 1's report.json goes fails that write after the
    row's seeds; the pool drops the seeds no worker has taken and the workers
    skip those already on its call queue, so besides row 1's 2 seeds only
    the `jobs` seeds running at the error finish."""
    out = tmp_path / "runs"
    grid = _sweep_grid("0.1,0.5", "0.2,0.5")
    first_point = "autoencoder=gru_gamma_noise=0.1_lambda_m=0.1_lambda_r=0.2_lambda_s=0.35"
    (out / "FD001-FD002" / f"sweep-{first_point}" / "report.json").mkdir(parents=True)
    with pytest.raises(IsADirectoryError):
        run_cli(
            "sweep", "--confirm", "--grid", grid, "--source", "FD001", "--target", "FD002",
            "--data-dir", cmapss_tiny_dir, "--out-dir", out, *JOBS_RUN, "--jobs", 2,
        )
    assert 2 <= len(list(out.rglob("checkpoint.bin"))) <= 2 + 2


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
def test_diverging_seeds_under_jobs_2_are_recorded_failures(cmapss_tiny_dir, tmp_path, capsys):
    failures = {}
    for jobs in (1, 2):
        out = tmp_path / f"jobs{jobs}"
        rc = run_cli(
            "train", "--source", "FD001", "--target", "FD002",
            "--data-dir", cmapss_tiny_dir, "--out-dir", out, *JOBS_RUN,
            "--lr", "1e200", "--jobs", jobs,
        )
        assert rc == 1
        err = capsys.readouterr().err
        assert "FAILED seed 1" in err and "FAILED seed 2" in err
        report = json.loads((out / "FD001-FD002" / "lamanet" / "report.json").read_text())
        failures[jobs] = report["failures"]
    assert len(failures[1]) == 2
    assert failures[2] == failures[1]


# ---------------------------------------------------------------------------
# sweep

def test_sweep_requires_confirmation(cmapss_tiny_dir, tmp_path, capsys):
    rc = run_cli(
        "sweep", "--source", "FD001", "--target", "FD002",
        "--data-dir", cmapss_tiny_dir, "--out-dir", tmp_path / "runs", "--toy",
    )
    assert rc == 2
    out = capsys.readouterr().out
    assert "384 points" in out  # 4*4*4 * 2 * 3


def test_sweep_runs_tiny_grid_and_ranks_by_source_val(cmapss_tiny_dir, tmp_path, capsys):
    out = tmp_path / "runs"
    rc = run_cli(
        "sweep", "--source", "FD001", "--target", "FD002",
        "--grid", "lambda_m=0.1,0.5;lambda_r=0.2;lambda_s=0.35;gamma_noise=0.1;autoencoder=gru",
        "--confirm", "--data-dir", cmapss_tiny_dir, "--out-dir", out, *TOY_RUN,
    )
    assert rc == 0
    stdout = capsys.readouterr().out
    assert "2 points" in stdout
    results = (out / "FD001-FD002" / "sweep" / "sweep_results.csv").read_text().splitlines()
    assert results[0].endswith("val_rmse")
    assert len(results) == 3  # header + 2 grid points
    vals = [float(line.split(",")[-1]) for line in results[1:]]
    assert vals == sorted(vals)


def test_sweep_trains_every_recurrent_cell(cmapss_tiny_dir, tmp_path, capsys):
    """A gru, an lstm and an rnn point each train to a finite source-val
    RMSE and are ranked, and `--jobs 2` writes the bytes `--jobs 1` writes."""
    grid = "lambda_m=0.1;lambda_r=0.2;lambda_s=0.35;gamma_noise=0.1;autoencoder=gru,lstm,rnn"
    trees = {}
    for jobs in (1, 2):
        out = tmp_path / f"jobs{jobs}"
        rc = run_cli(
            "sweep", "--confirm", "--grid", grid, "--source", "FD001", "--target", "FD002",
            "--data-dir", cmapss_tiny_dir, "--out-dir", out, *TOY_RUN, "--jobs", jobs,
        )
        assert rc == 0
        trees[jobs] = _artifact_tree(out)
    assert "3 points" in capsys.readouterr().out
    assert sorted(trees[2]) == sorted(trees[1])
    for rel, blob in trees[1].items():
        assert trees[2][rel] == blob, rel
    results = (out / "FD001-FD002" / "sweep" / "sweep_results.csv").read_text().splitlines()
    rows = [line.split(",") for line in results[1:]]
    assert sorted(row[0] for row in rows) == ["gru", "lstm", "rnn"]
    vals = [float(row[-1]) for row in rows]
    assert all(math.isfinite(v) for v in vals) and vals == sorted(vals)


def test_sweep_rejects_unknown_grid_key(cmapss_tiny_dir, tmp_path, capsys):
    rc = run_cli(
        "sweep", "--source", "FD001", "--target", "FD002",
        "--grid", "bogus=1", "--confirm",
        "--data-dir", cmapss_tiny_dir, "--out-dir", tmp_path / "runs",
    )
    assert rc == 2
    assert "bogus" in capsys.readouterr().err


@pytest.mark.parametrize(
    "grid, named",
    [("lambda_m=", "lambda_m"), ("autoencoder=gru,transformer", "transformer"),
     ("lambda_m=0.1,-1", "lambda_m must be >= 0, got -1.0"),
     ("gamma_noise=nan", "gamma_noise must be >= 0, got nan")],
)
def test_sweep_rejects_a_bad_grid_before_training(cmapss_tiny_dir, tmp_path, capsys, grid, named):
    out = tmp_path / "runs"
    rc = run_cli(
        "sweep", "--source", "FD001", "--target", "FD002", "--grid", grid, "--confirm",
        "--data-dir", cmapss_tiny_dir, "--out-dir", out, *TOY_RUN,
    )
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and named in captured.err
    assert "points" not in captured.out and not out.exists()
