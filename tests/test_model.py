from dataclasses import replace
from itertools import combinations

import numpy as np
import pytest

from ruladapt import autodiff as ad
from ruladapt import model as model_module
from ruladapt.autodiff import Tensor, backward
from ruladapt.serialization import load_blob, save_blob
from ruladapt.model import Model, ModelConfig
from ruladapt.training import (
    init_state,
    load_train_checkpoint,
    make_run_config,
    save_train_checkpoint,
)

from gradtools import flat_loss_fn, grad_check
from helpers import tiny_model_config


@pytest.fixture
def tiny():
    return Model(tiny_model_config(), np.random.default_rng(0))


def batch(rng, n, cfg):
    return rng.uniform(0.0, 1.0, size=(n, cfg.n_features, cfg.window))


def reconstruct(model, X, c=None):
    """The recurrent decoder's window from the bottleneck of X (or from `c`)."""
    if c is None:
        c = model.forward(X).c
    return model.reconstruct(c, Tensor(X)[:, :, 0])


# ---------------------------------------------------------------------------
# shape pipeline

def test_encode_shape_contract(tiny):
    X = batch(np.random.default_rng(1), 2, tiny.config)
    e = tiny.encode(Tensor(X))
    assert e.shape == (2, tiny.config.latent_dim)


def test_full_shape_pipeline(tiny):
    cfg = tiny.config
    X = batch(np.random.default_rng(2), 3, cfg)
    bundle = tiny.forward(X)
    assert bundle.e.shape == (3, cfg.latent_dim)
    assert bundle.c.shape == (3, cfg.bottleneck)
    assert bundle.e_tilde.shape == (3, cfg.latent_dim)
    assert bundle.o.shape == (3, cfg.head_dim)
    assert bundle.y_hat.shape == (3, 1)
    assert reconstruct(tiny, X, bundle.c).shape == (3, cfg.n_features, cfg.window)


def test_squeeze_expand_table_widths():
    # M = (8 + 8) * 32 = 512, squeezed through 500 -> 200 and mirrored back
    cfg = ModelConfig(
        n_features=8, window=8, attn_dim=32, n_heads=4,
        n_encoder_layers=1, n_decoder_layers=1, ffn_dim=64,
    )
    model = Model(cfg, np.random.default_rng(0))
    assert cfg.latent_dim == 512
    assert model.params["squeeze.1.W"].shape == (512, 500)
    assert model.params["squeeze.2.W"].shape == (500, 200)
    assert model.params["expand.1.W"].shape == (200, 500)
    assert model.params["expand.2.W"].shape == (500, 512)
    e = Tensor(np.random.default_rng(1).uniform(size=(2, 512)))
    c = model.squeeze(e)
    assert c.shape == (2, 200)
    assert model.expand(c).shape == (2, 512)


def test_bottleneck_must_be_smaller_than_latent():
    with pytest.raises(ValueError):
        ModelConfig(n_features=2, window=2, attn_dim=8, n_heads=2, bottleneck=200)


def test_default_config_matches_selected_hyperparameters():
    cfg = ModelConfig()
    assert (cfg.attn_dim, cfg.n_heads) == (32, 4)
    assert (cfg.n_encoder_layers, cfg.n_decoder_layers) == (3, 1)
    assert (cfg.squeeze_hidden, cfg.bottleneck) == (500, 200)
    assert (cfg.recon_cell, cfg.recon_hidden) == ("gru", 1)
    assert cfg.latent_dim == (24 + 40) * 32 == 2048
    model = Model(cfg, np.random.default_rng(0))
    X = np.random.default_rng(1).uniform(size=(2, 24, 40))
    with ad.no_grad():
        bundle = model.forward(X)
    assert bundle.c.shape == (2, 200) and bundle.y_hat.shape == (2, 1)


# ---------------------------------------------------------------------------
# behavior

def test_batch_permutation_equivariance(tiny):
    rng = np.random.default_rng(3)
    X = batch(rng, 5, tiny.config)
    perm = rng.permutation(5)
    with ad.no_grad():
        e = tiny.encode(Tensor(X)).data
        e_perm = tiny.encode(Tensor(X[perm])).data
    np.testing.assert_allclose(e_perm, e[perm], atol=1e-12)


def test_zero_input_gives_finite_outputs(tiny):
    X = np.zeros((2, tiny.config.n_features, tiny.config.window))
    bundle = tiny.forward(X)
    for t in (bundle.e, bundle.c, bundle.o, bundle.y_hat, reconstruct(tiny, X, bundle.c)):
        assert np.all(np.isfinite(t.data))


def test_predictions_live_in_unit_interval(tiny):
    X = batch(np.random.default_rng(4), 8, tiny.config) * 5.0  # even off-range input
    y = tiny.forward(X).y_hat.data
    assert np.all((y > 0.0) & (y < 1.0))


def test_zero_head_weights_predict_half(tiny):
    tiny.params["head.W"].data[:] = 0.0
    tiny.params["head.b"].data[:] = 0.0
    X = batch(np.random.default_rng(5), 4, tiny.config)
    np.testing.assert_allclose(tiny.forward(X).y_hat.data, 0.5, atol=1e-15)


def test_weight_sharing_source_and_target_streams_identical(tiny):
    X = batch(np.random.default_rng(6), 3, tiny.config)
    source_view = tiny.forward(X).y_hat.data
    target_view = tiny.forward(X).y_hat.data
    np.testing.assert_array_equal(source_view, target_view)
    # one sigmoid-head update driven by a source-only loss moves both streams
    loss = ad.tmean(ad.square(tiny.forward(X).y_hat))
    backward(loss)
    for p in tiny.params.values():
        if p.grad is not None:
            p.data = p.data - 0.01 * p.grad
            p.grad = None
    np.testing.assert_array_equal(tiny.forward(X).y_hat.data, tiny.forward(X).y_hat.data)


def test_single_step_window_reconstruction():
    cfg = tiny_model_config(window=1)
    model = Model(cfg, np.random.default_rng(0))
    X = batch(np.random.default_rng(7), 2, cfg)
    x_hat = reconstruct(model, X)
    assert x_hat.shape == (2, cfg.n_features, 1)


@pytest.mark.parametrize("cell", ["gru", "lstm", "rnn"])
def test_alternative_reconstruction_cells(cell):
    cfg = tiny_model_config(recon_cell=cell)
    model = Model(cfg, np.random.default_rng(0))
    X = batch(np.random.default_rng(8), 2, cfg)
    x_hat = reconstruct(model, X)
    assert x_hat.shape == (2, cfg.n_features, cfg.window)
    assert np.all(np.isfinite(x_hat.data))


@pytest.mark.parametrize("cell, gates", [("gru", "zrn"), ("lstm", "ifgo"), ("rnn", "h")])
def test_stacked_cell_weights_are_the_per_gate_draws(monkeypatch, cell, gates):
    """Column block k of `recon.cell.w_i` and `w_h` holds gate k's (f, H)
    and (H, H) draws, drawn gate by gate, input weight first, from where
    the generator stood after `recon.init`: the draws of the per-gate
    layout, so initial values do not depend on the layout."""
    states = []

    def recording(rng, fan_in, fan_out):
        states.append(rng.bit_generator.state)
        return xavier(rng, fan_in, fan_out)

    xavier = model_module._xavier
    monkeypatch.setattr(model_module, "_xavier", recording)
    cfg = tiny_model_config(recon_cell=cell, recon_hidden=2)
    model = Model(cfg, np.random.default_rng(0))
    rng = np.random.default_rng(0)
    rng.bit_generator.state = states[-2 * len(gates) - 1]  # recon.out.W is the last draw
    f, H = cfg.n_features, cfg.recon_hidden
    w_i, w_h = [], []
    for _ in gates:
        w_i.append(rng.uniform(-np.sqrt(6.0 / (f + H)), np.sqrt(6.0 / (f + H)), size=(f, H)))
        w_h.append(rng.uniform(-np.sqrt(3.0 / H), np.sqrt(3.0 / H), size=(H, H)))
    np.testing.assert_array_equal(model.params["recon.cell.w_i"].data, np.hstack(w_i))
    np.testing.assert_array_equal(model.params["recon.cell.w_h"].data, np.hstack(w_h))
    assert [name for name in model.params if name.startswith("recon.cell.")] == [
        "recon.cell.w_i", "recon.cell.w_h", "recon.cell.b_i", *["recon.cell.b_hn"] * (cell == "gru")]


def test_reconstruction_loss_reaches_init_weights(tiny):
    X = batch(np.random.default_rng(9), 3, tiny.config)
    loss = ad.tmean(ad.square(ad.sub(reconstruct(tiny, X), Tensor(X))))
    backward(loss)
    g = tiny.params["recon.init.W"].grad
    assert g is not None and np.any(g != 0.0)


def test_recon_gradient_matches_finite_difference(tiny):
    """Spot-check d(recon MSE)/d(recon.init.W) against central differences."""
    rng = np.random.default_rng(10)
    X = batch(rng, 2, tiny.config)
    name = "recon.init.W"
    original = tiny.params[name]

    def f(w):
        tiny.params[name] = w
        try:
            return ad.tmean(ad.square(ad.sub(reconstruct(tiny, X), Tensor(X))))
        finally:
            tiny.params[name] = original

    assert grad_check(f, Tensor(original.data), eps=1e-5) < 1e-6


def test_end_to_end_rul_gradient_check(tiny):
    """L_RUL through encode,squeeze,expand,decode_predict vs finite differences."""
    rng = np.random.default_rng(11)
    X = batch(rng, 3, tiny.config)
    y = rng.uniform(0.0, 1.0, size=(3, 1))

    def build_loss(model):
        bundle = model.forward(X)
        return ad.tmean(ad.square(ad.sub(bundle.y_hat, Tensor(y))))

    f, x0 = flat_loss_fn(tiny, build_loss)
    assert grad_check(f, Tensor(x0), eps=1e-5) < 1e-3


# ---------------------------------------------------------------------------
# checkpointing

def tiny_run_config():
    return make_run_config("FD002", "FD001", window=8, model=tiny_model_config())


def test_checkpoint_roundtrip_and_hash_guard(tmp_path):
    config = tiny_run_config()
    state = init_state(config, 5)
    state.model.params["enc.fusion.W"].data += 1.0  # differs from a fresh init
    state.adam.t, state.iteration = 3, 17
    path = tmp_path / "ckpt.bin"
    save_train_checkpoint(path, state)
    loaded = load_train_checkpoint(path, config)
    assert (loaded.iteration, loaded.adam.t, loaded.seed) == (17, 3, 5)
    for name, p in state.trainable().items():
        np.testing.assert_array_equal(loaded.trainable()[name].data, p.data)
    loaded_arrays = [p.data for p in loaded.trainable().values()]
    loaded_arrays += [*loaded.adam.m.values(), *loaded.adam.v.values()]
    assert not any(np.may_share_memory(a, b) for a, b in combinations(loaded_arrays, 2))
    with pytest.raises(ValueError, match="hash"):
        load_train_checkpoint(path, replace(config, lr=2e-3))


@pytest.mark.parametrize("damage", ["missing", "wrong_shape"])
def test_dann_checkpoint_with_a_bad_discriminator_weight_is_rejected(tmp_path, damage):
    """Discriminator parameters go through the same check as the model's."""
    config = make_run_config("FD002", "FD001", "dann", window=8, model=tiny_model_config())
    path = tmp_path / "dann.bin"
    save_train_checkpoint(path, init_state(config, 5))
    arrays, meta = load_blob(path)
    if damage == "missing":
        del arrays["param/disc.1.W"]
    else:
        arrays["param/disc.1.W"] = arrays["param/disc.1.W"][:3]
    save_blob(path, arrays, meta)
    with pytest.raises(ValueError, match=r"dann\.bin: .*param/disc\.1\.W"):
        load_train_checkpoint(path, config)


@pytest.mark.parametrize("key, value", [
    ("config_hash", None), ("config_hash", 5), ("seed", None), ("seed", True), ("seed", "5"),
    ("adam_t", None), ("adam_t", 1.5), ("iteration", None), ("iteration", "17"),
    ("steps_per_epoch", None), ("steps_per_epoch", False), ("rng_states", None),
    ("rng_states/noise", None), ("rng_states/shuffle", [1, 2]), ("rng_states/shuffle", {}),
])
def test_a_missing_or_mistyped_meta_key_names_the_file_and_the_key(tmp_path, key, value):
    """`None` removes the key; any other value replaces it."""
    config = tiny_run_config()
    path = tmp_path / "ckpt.bin"
    save_train_checkpoint(path, init_state(config, 5))
    arrays, meta = load_blob(path)
    *outer, last = key.split("/")
    owner = meta[outer[0]] if outer else meta
    if value is None:
        del owner[last]
    else:
        owner[last] = value
    save_blob(path, arrays, meta)
    with pytest.raises(ValueError, match=rf"ckpt\.bin: checkpoint meta '{key}[/']"):
        load_train_checkpoint(path, config)


@pytest.mark.parametrize("key, value, floor", [
    ("iteration", -5, 0), ("adam_t", -1, 0), ("steps_per_epoch", 0, 1),
])
def test_an_out_of_range_meta_value_names_the_file_and_the_key(tmp_path, key, value, floor):
    """A negative iteration would fail in the first step's gate, a negative
    Adam step count writes NaN into every parameter, and no epoch has 0
    steps; each is refused at load, in a boundary checkpoint too."""
    config = tiny_run_config()
    path = tmp_path / "ckpt.bin"
    save_train_checkpoint(path, init_state(config, 5))
    arrays, meta = load_blob(path)
    save_blob(path, arrays, meta | {key: value})
    with pytest.raises(ValueError, match=rf"ckpt\.bin: checkpoint meta '{key}' must be int >= "
                                         rf"{floor}, got {value}"):
        load_train_checkpoint(path, config)


def test_dataset_cache_is_not_a_checkpoint(tmp_path):
    """A blob of another kind, such as the trajectory caches that earlier
    versions wrote, is refused by its `kind`."""
    path = tmp_path / "FD001.cache"
    save_blob(path, {"train_units": np.arange(3)}, {"kind": "trajectory_cache"})
    with pytest.raises(ValueError, match="not a checkpoint file"):
        load_train_checkpoint(path, tiny_run_config())
