import numpy as np
import pytest

from ruladapt import autodiff as ad
from ruladapt.autodiff import Tensor, backward, grad_check
from ruladapt.model import (
    Model,
    ModelConfig,
    load_checkpoint,
    save_checkpoint,
    tiny_model_config,
)

from gradtools import flat_loss_fn


@pytest.fixture
def tiny():
    return Model(tiny_model_config(), np.random.default_rng(0))


def batch(rng, n, cfg):
    return rng.uniform(0.0, 1.0, size=(n, cfg.n_features, cfg.window))


# ---------------------------------------------------------------------------
# shape pipeline

def test_encode_shape_contract(tiny):
    X = batch(np.random.default_rng(1), 2, tiny.config)
    e = tiny.encode(Tensor(X))
    assert e.shape == (2, tiny.config.latent_dim)


def test_full_shape_pipeline(tiny):
    cfg = tiny.config
    X = batch(np.random.default_rng(2), 3, cfg)
    bundle = tiny.forward(X, with_recon=True)
    assert bundle.e.shape == (3, cfg.latent_dim)
    assert bundle.c.shape == (3, cfg.bottleneck)
    assert bundle.e_tilde.shape == (3, cfg.latent_dim)
    assert bundle.o.shape == (3, cfg.head_dim)
    assert bundle.y_hat.shape == (3, 1)
    assert bundle.x_hat.shape == (3, cfg.n_features, cfg.window)


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
    bundle = tiny.forward(X, with_recon=True)
    for t in (bundle.e, bundle.c, bundle.o, bundle.y_hat, bundle.x_hat):
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
    x_hat = model.forward(X, with_recon=True).x_hat
    assert x_hat.shape == (2, cfg.n_features, 1)


@pytest.mark.parametrize("cell", ["gru", "lstm", "rnn"])
def test_alternative_reconstruction_cells(cell):
    cfg = tiny_model_config(recon_cell=cell)
    model = Model(cfg, np.random.default_rng(0))
    X = batch(np.random.default_rng(8), 2, cfg)
    x_hat = model.forward(X, with_recon=True).x_hat
    assert x_hat.shape == (2, cfg.n_features, cfg.window)
    assert np.all(np.isfinite(x_hat.data))


def test_reconstruction_loss_reaches_init_weights(tiny):
    X = batch(np.random.default_rng(9), 3, tiny.config)
    bundle = tiny.forward(X, with_recon=True)
    loss = ad.tmean(ad.square(ad.sub(bundle.x_hat, Tensor(X))))
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
            bundle = tiny.forward(X, with_recon=True)
            return ad.tmean(ad.square(ad.sub(bundle.x_hat, Tensor(X))))
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

def test_checkpoint_roundtrip_and_hash_guard(tmp_path, tiny):
    path = tmp_path / "ckpt.bin"
    zeros = {n: np.zeros_like(p.data) for n, p in tiny.params.items()}
    save_checkpoint(
        path, params=tiny.params, adam_m=zeros, adam_v=zeros, adam_t=3,
        iteration=17, config_hash="abc123", rng_states={"noise": {"x": 1}},
    )
    params, m, v, extras, meta = load_checkpoint(path, expected_config_hash="abc123")
    assert meta["iteration"] == 17 and meta["adam_t"] == 3
    np.testing.assert_array_equal(params["head.W"], tiny.params["head.W"].data)
    fresh = Model(tiny.config, np.random.default_rng(99))
    fresh.load_state(params)
    np.testing.assert_array_equal(fresh.params["enc.fusion.W"].data,
                                  tiny.params["enc.fusion.W"].data)
    with pytest.raises(ValueError, match="hash"):
        load_checkpoint(path, expected_config_hash="different")
