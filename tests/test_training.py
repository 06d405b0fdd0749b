import ctypes
import dataclasses
import errno
import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ruladapt import autodiff as ad
from ruladapt import losses as losses_module
from ruladapt import model as model_module
from ruladapt import training
from ruladapt.autodiff import Tensor, backward
from ruladapt.data import stack_windows
from ruladapt.losses import (
    KernelSpec,
    LossWeights,
    composite_loss,
    coral_loss,
    dann_loss,
    latent_mmd,
    recon_loss,
    rul_mse,
    smooth_loss,
)
from ruladapt.model import Model, ModelConfig, desk_model_config, toy_model_config
from ruladapt.serialization import load_blob, save_blob
from ruladapt.training import (
    VARIANTS,
    Adam,
    RunConfig,
    TrainingAbort,
    epoch_plan,
    init_state,
    load_train_checkpoint,
    lr_schedule,
    make_run_config,
    run_config_from_dict,
    run_experiment,
    save_train_checkpoint,
    steps_per_epoch,
    train,
    train_step,
    variant_weights,
)

import oracles
from helpers import make_toy_domains


def toy_config(variant="lamanet", **overrides):
    defaults = dict(
        source_subset="toy-src", target_subset="toy-tgt",
        window=16, epochs=2, batch_size=32, rc=60.0,
        model=toy_model_config(), seeds=(1,),
    )
    defaults.update(overrides)
    return make_run_config("toy-src", "toy-tgt", variant, **{
        k: v for k, v in defaults.items() if k not in ("source_subset", "target_subset")
    })


@pytest.fixture(scope="module")
def toy_domains():
    return make_toy_domains(seed=1)


# ---------------------------------------------------------------------------
# config plumbing

def test_variant_weight_columns():
    assert variant_weights("lamanet").lambda_m == 0.35
    assert variant_weights("lamanet").lambda_r == 0.2
    assert variant_weights("mmd").lambda_m == 0.2
    assert variant_weights("mmd").lambda_r == 0.0
    assert variant_weights("no_da").lambda_m == 0.0
    with pytest.raises(ValueError):
        variant_weights("bogus")


def test_weight_settings_apply_on_top_of_the_variant_weights():
    """A `weights` mapping, and `make_run_config`'s `gamma_noise` and
    `da_start`, set only the fields they name; the variant is checked first,
    and an unknown weights key is still named."""
    config = run_config_from_dict({"variant": "mmd", "weights": {"da_start_iteration": 2}})
    assert config.weights == dataclasses.replace(variant_weights("mmd"), da_start_iteration=2)
    config = make_run_config("a", "b", "coral", gamma_noise=0.01, da_start=0)
    assert config.weights == dataclasses.replace(
        variant_weights("coral"), gamma_noise=0.01, da_start_iteration=0)
    with pytest.raises(ValueError, match=r"^LossWeights: unknown keys \['bogus'\]"):
        run_config_from_dict({"variant": "mmd", "weights": {"bogus": 1}})
    with pytest.raises(ValueError, match="^variant must be one of"):
        run_config_from_dict({"variant": "bogus", "weights": {"lambda_m": 0.1}})


def test_run_config_validation():
    with pytest.raises(ValueError):
        toy_config(batch_size=33)
    with pytest.raises(ValueError):
        toy_config(variant="bogus")
    with pytest.raises(ValueError):
        toy_config(window=40)  # model window stays 16
    for mask in ((), (3, 24), (-1, 3)):
        with pytest.raises(ValueError, match="feature_mask must be non-empty"):
            toy_config(feature_mask=mask, model=toy_model_config(n_features=len(mask)))
    for mask in (5, "abc", (3, 4.0), (3, True)):
        with pytest.raises(ValueError, match="feature_mask must be a list of integers"):
            toy_config(feature_mask=mask)
    for name in ("epochs", "batch_size", "val_seed"):
        for bad in (2.0, True):
            with pytest.raises(ValueError, match=f"{name} must be an integer"):
                toy_config(**{name: bad})
    with pytest.raises(ValueError, match="window must be an integer"):
        toy_config(window=16.0, model=toy_model_config(window=16.0))
    # settings that are constants now, each at the value it had: an unknown key
    for section, name, value in ((None, "lr_gamma", 0.95), (None, "lr_decay_start", 100),
                                 (None, "dann_weight", 0.2), (None, "dann_hidden", 64),
                                 ("model", "n_decoder_layers", 1), ("model", "recon_hidden", 1),
                                 ("kernel", "family", "rbf")):
        payload = toy_config(variant="dann").to_dict()
        (payload if section is None else payload[section])[name] = value
        with pytest.raises(ValueError, match=rf"unknown keys \['{name}'\]"):
            run_config_from_dict(payload)


def test_the_config_surface_is_these_29_settings():
    """Every value a run config sets, a nested one as `<section>.<key>`:
    a setting added or removed shows here."""
    keys = []
    for key, value in RunConfig().to_dict().items():
        keys += [f"{key}.{sub}" for sub in value] if isinstance(value, dict) else [key]
    assert keys == [
        "source_subset", "target_subset", "variant", "window", "epochs", "batch_size", "lr",
        "rc", "weights.lambda_m", "weights.lambda_r", "weights.lambda_s", "weights.gamma_noise",
        "weights.da_start_iteration", "model.n_features", "model.window", "model.attn_dim",
        "model.n_heads", "model.n_encoder_layers", "model.ffn_dim", "model.squeeze_hidden",
        "model.bottleneck", "model.head_dim", "model.recon_cell", "kernel.bandwidth_mode",
        "kernel.bandwidth", "seeds", "val_seed", "val_fraction", "feature_mask",
    ]
    assert len(keys) == 29


def test_run_config_roundtrip_and_unknown_key_rejection():
    config = toy_config()
    again = run_config_from_dict(config.to_dict())
    assert again == config and again.hash == config.hash
    bad = config.to_dict() | {"unknown_field": 1}
    with pytest.raises(ValueError, match="unknown"):
        run_config_from_dict(bad)
    bad_nested = config.to_dict()
    bad_nested["model"]["bogus"] = 2
    with pytest.raises(ValueError, match="unknown"):
        run_config_from_dict(bad_nested)


# Each config class and the key of its mapping in a run config's dict.
CONFIG_SECTIONS = {RunConfig: None, LossWeights: "weights", ModelConfig: "model",
                   KernelSpec: "kernel"}
# Values that break every rule of their kind in the classes' `RULES`: the
# wrong kind, or out of range for each of them.  NaN, the infinities and the
# bools break every rule of every kind.
BAD_VALUES = {
    int: (2.5, "abc", -1),
    float: ("abc", -1),
    str: (5, ""),
    list: ("abc", 5, [1.5], [True], [-1], []),
}
BAD_FOR_ANY_KIND = (float("nan"), float("inf"), float("-inf"), True, False)
RULED_FIELDS = [(cls, name, kind) for cls in CONFIG_SECTIONS
                for names, kind, _, _ in cls.RULES for name in names.split()]


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(RULED_FIELDS).flatmap(lambda ruled: st.tuples(
    st.just(ruled), st.sampled_from(BAD_VALUES[ruled[2]] + BAD_FOR_ANY_KIND))))
def test_every_bad_field_value_is_rejected_naming_the_field(case):
    """One field of any config class, set to a value that breaks its rule in
    an otherwise valid run config's dict: building it is a ValueError that
    starts with the field's name."""
    (cls, name, _), value = case
    payload = toy_config().to_dict()
    section = CONFIG_SECTIONS[cls]
    (payload if section is None else payload[section])[name] = value
    with pytest.raises(ValueError, match=rf"^{re.escape(name)} must "):
        run_config_from_dict(payload)


def test_every_config_field_has_a_rule():
    """A field that no rule names and that is not a nested config would skip
    validation; every rule names a field.  `weights` is the nested
    `LossWeights` section whose default, None, is the variant's weights."""
    for cls in CONFIG_SECTIONS:
        names = {f.name for f in dataclasses.fields(cls)}
        ruled = {name for rule in cls.RULES for name in rule[0].split()}
        assert ruled <= names, f"{cls.__name__} rules name no field {sorted(ruled - names)}"
        for f in dataclasses.fields(cls):
            nested = f.default_factory in CONFIG_SECTIONS or (
                f.name == CONFIG_SECTIONS[LossWeights] and f.default is None)
            assert f.name in ruled or nested, f"{cls.__name__}.{f.name} has no rule"


# ---------------------------------------------------------------------------
# schedule

def test_lr_constant_before_decay_start():
    assert lr_schedule(50, 1e-3, 0.95, 100, steps_per_epoch=540) == 1e-3


def test_lr_drops_at_first_epoch_boundary_after_start():
    assert lr_schedule(540, 1e-3, 0.95, 100, steps_per_epoch=540) == pytest.approx(9.5e-4)
    assert lr_schedule(539, 1e-3, 0.95, 100, steps_per_epoch=540) == 1e-3


def test_lr_gamma_one_is_constant():
    for it in (0, 100, 5000):
        assert lr_schedule(it, 1e-3, 1.0, 100, steps_per_epoch=50) == 1e-3


def test_lr_monotone_nonincreasing():
    values = [lr_schedule(i, 1e-3, 0.9, 30, steps_per_epoch=25) for i in range(300)]
    assert all(a >= b for a, b in zip(values, values[1:]))


def test_lr_rejects_bad_gamma():
    with pytest.raises(ValueError):
        lr_schedule(0, 1e-3, 1.5, 100, steps_per_epoch=10)


# ---------------------------------------------------------------------------
# batching

def test_epoch_slices_are_paired_halves_with_source_labels(toy_domains):
    """The per-step index slices `train` stacks cover one epoch plan exactly,
    in halves of the batch, with labels on the source side only."""
    source, target = toy_domains
    n_s, n_t, half = len(source.train_windows), len(target.train_windows), 16
    src_order, tgt_order = epoch_plan(n_s, n_t, np.random.default_rng(0))
    steps = steps_per_epoch(n_s, n_t, 2 * half)
    slices = [
        (src_order[k * half : (k + 1) * half], tgt_order[k * half : (k + 1) * half])
        for k in range(steps)
    ]
    assert sum(len(src) for src, _ in slices) == len(src_order) == len(tgt_order)
    assert all(len(src) > 0 for src, _ in slices)
    src_X, src_y = stack_windows(source.train_windows, slices[0][0])
    tgt_X, tgt_y = stack_windows(target.train_windows, slices[0][1])
    assert len(src_X) == len(tgt_X) == 16
    assert src_y.shape == (16, 1)  # stack_windows gives None if any window is unlabeled
    assert tgt_y is None
    assert all(target.train_windows[i].rul_scaled is None for i in slices[0][1])


def test_epoch_plan_deterministic_per_seed(toy_domains):
    source, target = toy_domains

    def orders(seed):
        return epoch_plan(
            len(source.train_windows), len(target.train_windows), np.random.default_rng(seed),
        )

    for a, b in zip(orders(5), orders(5)):
        np.testing.assert_array_equal(a, b)
    assert any(not np.array_equal(a, b) for a, b in zip(orders(5), orders(6)))


def test_epoch_plan_resamples_smaller_pool():
    rng = np.random.default_rng(0)
    src, tgt = epoch_plan(100, 40, rng)
    assert len(src) == len(tgt) == 100
    assert sorted(src.tolist()) == list(range(100))  # larger pool seen exactly once
    assert set(tgt.tolist()) <= set(range(40))


# ---------------------------------------------------------------------------
# optimizer

def test_adam_moves_against_gradient():
    from ruladapt.autodiff import Tensor

    p = Tensor(np.array([1.0, -2.0]), requires_grad=True)
    adam = Adam({"p": p})
    p.grad = np.array([0.5, -0.5])
    before = p.data.copy()
    adam.step({"p": p}, lr=0.01)
    assert p.data[0] < before[0] and p.data[1] > before[1]


def test_adam_leaves_gradient_free_params_in_place():
    from ruladapt.autodiff import Tensor

    p = Tensor(np.array([1.0]), requires_grad=True)
    q = Tensor(np.array([2.0]), requires_grad=True)
    adam = Adam({"p": p, "q": q})
    p.grad = np.array([1.0])
    adam.step({"p": p, "q": q}, lr=0.1)
    assert q.data[0] == 2.0  # exactly untouched


def _assert_same_run(a, b):
    assert a.history == b.history and a.adam.t == b.adam.t
    for name, p in a.trainable().items():
        pairs = ((p.data, b.trainable()[name].data), (a.adam.m[name], b.adam.m[name]),
                 (a.adam.v[name], b.adam.v[name]))
        for x, y in pairs:
            assert x.dtype == y.dtype and x.tobytes() == y.tobytes(), name


def _runs_with_both_adams(config, domains, steps, monkeypatch):
    """The same run twice: with `Adam.step`, and with the oracle's step."""
    runs = []
    for step in (Adam.step, oracles.adam_step):
        state = init_state(config, 1)
        with monkeypatch.context() as patch:
            patch.setattr(Adam, "step", step)
            train(state, *domains, max_iterations=steps)
        runs.append(state)
    return runs


@pytest.mark.parametrize("variant", VARIANTS)
def test_adam_in_place_matches_the_oracle_at_desk_width(toy_domains, monkeypatch, variant):
    """Five steps with the gate opening at step 2: before it the adaptation
    parameters get no gradient, and `no_da`'s never get one."""
    config = toy_config(variant, model=desk_model_config(n_features=8, window=16),
                        da_start=2, epochs=50)
    fast, slow = _runs_with_both_adams(config, toy_domains, 5, monkeypatch)
    if variant == "no_da":
        assert any(p.grad is None for p in fast.trainable().values())
    _assert_same_run(fast, slow)


def test_adam_in_place_matches_the_oracle_at_full_width(toy_domains, monkeypatch):
    config = toy_config("lamanet", model=ModelConfig(n_features=8, window=16), da_start=0)
    fast, slow = _runs_with_both_adams(config, toy_domains, 3, monkeypatch)
    assert max(p.data.size for p in fast.trainable().values()) > 2 * Adam.BLOCK
    _assert_same_run(fast, slow)


def test_adam_in_place_matches_the_oracle_when_a_gradient_is_missing():
    """A parameter spanning several blocks, and one whose gradient is absent
    on the middle steps, after its moments have become non-zero."""
    shapes = {"big": (3, Adam.BLOCK - 5), "small": (7,)}
    runs = []
    for step in (Adam.step, oracles.adam_step):
        params = {name: Tensor(np.ones(shape), requires_grad=True) for name, shape in shapes.items()}
        adam, grads = Adam(params), np.random.default_rng(3)
        for i in range(4):
            for name, p in params.items():
                p.grad = None if name == "small" and i in (1, 2) else grads.normal(size=p.shape)
            step(adam, params, lr=0.01 * (i + 1))
        runs.append((params, adam))
    (fast, adam), (slow, oracle) = runs
    assert adam.t == oracle.t == 4
    for name in shapes:
        for x, y in ((fast[name].data, slow[name].data), (adam.m[name], oracle.m[name]),
                     (adam.v[name], oracle.v[name])):
            assert x.tobytes() == y.tobytes(), name


def test_adam_step_keeps_every_array(toy_domains):
    state = init_state(toy_config("lamanet", da_start=0), 1)
    arrays = lambda: {name: (p.data, state.adam.m[name], state.adam.v[name])  # noqa: E731
                      for name, p in state.trainable().items()}
    before = arrays()
    train(state, *toy_domains, max_iterations=2)
    after = arrays()
    assert all(x is y for name in before for x, y in zip(before[name], after[name]))
    assert all(np.any(m) for _, m, _ in after.values())


def test_adam_refuses_a_parameter_it_cannot_update_in_place():
    p = Tensor(np.ones((4, 3)).T, requires_grad=True)  # a transposed, non-contiguous view
    adam = Adam({"p": p})
    p.grad = np.ones((3, 4))
    with pytest.raises(ValueError, match="p or its moments"):
        adam.step({"p": p}, lr=0.1)
    assert (p.data == 1.0).all()


def test_malloc_thresholds_are_pinned_once_per_process(monkeypatch):
    calls = []

    class Libc:
        @staticmethod
        def mallopt(param, value):
            calls.append((param, value))
            return 1

    monkeypatch.setattr(ctypes, "CDLL", lambda name: Libc())
    training.pin_malloc_thresholds.cache_clear()
    Adam({})
    init_state(toy_config("no_da"), 1)
    training.pin_malloc_thresholds()
    assert calls == [(-3, 32 << 20), (-1, 1 << 30)]  # M_MMAP_THRESHOLD, M_TRIM_THRESHOLD


def test_malloc_thresholds_are_a_no_op_without_glibc(monkeypatch):
    def no_libc(name):
        raise OSError(f"{name}: cannot open shared object file")

    monkeypatch.setattr(ctypes, "CDLL", no_libc)
    training.pin_malloc_thresholds.cache_clear()
    assert training.pin_malloc_thresholds() is None
    p = Tensor(np.ones(3), requires_grad=True)
    Adam({"p": p}).step({"p": p}, lr=0.1)  # the optimizer works all the same


# ---------------------------------------------------------------------------
# stepping, gating, determinism

def test_no_da_step_touches_only_rul(toy_domains):
    source, target = toy_domains
    config = toy_config("no_da")
    state = init_state(config, 1)
    state.steps_per_epoch = 10
    src_X, src_y = stack_windows(source.train_windows, range(16))
    tgt_X, _ = stack_windows(target.train_windows, range(16))
    record = train_step(state, src_X, src_y, tgt_X)
    assert set(record) >= {"iteration", "lr", "total", "rul"}
    assert "discrepancy" not in record and "recon" not in record


def test_da_only_parameters_have_zero_gradient_before_gate(toy_domains):
    source, target = toy_domains
    config = toy_config("lamanet")
    state = init_state(config, 1)
    state.steps_per_epoch = 10
    src_X, src_y = stack_windows(source.train_windows, range(16))
    tgt_X, _ = stack_windows(target.train_windows, range(16))
    recon_names = [n for n in state.model.params if n.startswith("recon.")]
    recon_before = {n: state.model.params[n].data.copy() for n in recon_names}
    for _ in range(5):  # iterations 0..4, all below da_start=200
        train_step(state, src_X, src_y, tgt_X)
        for name in recon_names:
            grad = state.model.params[name].grad
            assert grad is None or not np.any(grad)
    for name in recon_names:  # zero gradient + zero moments => frozen
        np.testing.assert_array_equal(state.model.params[name].data, recon_before[name])


def test_gate_opens_at_da_start(toy_domains):
    source, target = toy_domains
    config = toy_config("lamanet", da_start=3)
    state = init_state(config, 1)
    state.steps_per_epoch = 10
    src_X, src_y = stack_windows(source.train_windows, range(16))
    tgt_X, _ = stack_windows(target.train_windows, range(16))
    for _ in range(3):
        record = train_step(state, src_X, src_y, tgt_X)
        assert "recon" not in record
    record = train_step(state, src_X, src_y, tgt_X)  # iteration 3: gate open
    assert {"discrepancy", "recon", "smooth"} <= set(record)
    grads = [state.model.params[n].grad for n in state.model.params if n.startswith("recon.")]
    assert any(g is not None and np.any(g) for g in grads)


def two_pass_loss_and_grads(state, src_X, src_y, tgt_X):
    """train_step's loss built from two separate forward passes, one per
    stream, and backpropagated without an optimizer update: the oracle for
    the one-pass step with the gate open and the variant's default weights.
    Returns (logged terms, {name: gradient})."""
    config, model = state.config, state.model
    xs, ys, xt = Tensor(src_X), Tensor(src_y), Tensor(tgt_X)
    bundle_s = model.forward(xs)
    bundle_t = model.forward(xt)
    rul = rul_mse(bundle_s.y_hat, ys)
    terms = {}
    variant = config.variant
    if variant in ("lamanet", "mmd"):
        terms["discrepancy"] = latent_mmd(
            bundle_s.c, bundle_t.c, bundle_s.o, bundle_t.o, config.kernel
        )
    elif variant == "coral":
        terms["discrepancy"] = coral_loss(bundle_s.o, bundle_t.o)
    if variant == "lamanet":
        terms["recon"] = recon_loss(
            xs, model.reconstruct(bundle_s.c, xs[:, :, 0]),
            xt, model.reconstruct(bundle_t.c, xt[:, :, 0]),
        )
        terms["smooth"] = ad.add(
            smooth_loss(bundle_s.c, model.predict_from_bottleneck,
                        config.weights.gamma_noise, state.rng_noise),
            smooth_loss(bundle_t.c, model.predict_from_bottleneck,
                        config.weights.gamma_noise, state.rng_noise),
        )
    if variant == "dann":
        terms["adversarial"] = dann_loss(
            bundle_s.c, bundle_t.c, state.discriminator,
            training.VARIANT_TERMS["dann"]["adversarial"],
        )
    loss = composite_loss(rul, terms, config.weights)
    backward(loss)
    logged = {"rul": float(rul.data)} | {name: float(t.data) for name, t in terms.items()}
    logged["total"] = float(loss.data)
    return logged, {name: p.grad for name, p in state.trainable().items()}


@pytest.mark.parametrize("variant", VARIANTS)
def test_one_pass_step_matches_two_pass_reference(toy_domains, variant):
    source, target = toy_domains
    config = toy_config(variant, da_start=0)
    src_X, src_y = stack_windows(source.train_windows, range(16))
    tgt_X, _ = stack_windows(target.train_windows, range(16, 32))
    reference = init_state(config, 1)
    want_terms, want_grads = two_pass_loss_and_grads(reference, src_X, src_y, tgt_X)

    state = init_state(config, 1)
    state.steps_per_epoch = 10
    record = train_step(state, src_X, src_y, tgt_X)
    assert set(want_terms) == set(record) - {"iteration", "epoch", "lr"}
    for name, value in want_terms.items():
        assert record[name] == pytest.approx(value, rel=1e-10, abs=0), name
    # Some gradients are zero up to rounding (a key bias shifts every logit
    # of a row equally), so the absolute floor is relative to the largest.
    scale = max(np.abs(g).max() for g in want_grads.values() if g is not None)
    for name, p in state.trainable().items():
        if want_grads[name] is None:
            assert p.grad is None, name
        else:
            np.testing.assert_allclose(p.grad, want_grads[name], rtol=1e-10,
                                       atol=1e-10 * scale, err_msg=name)


ADAPTATION_LOSSES = ("latent_mmd", "coral_loss", "recon_loss", "smooth_loss", "dann_loss")


@pytest.mark.parametrize("variant", VARIANTS)
def test_step_before_the_gate_builds_no_adaptation_term(toy_domains, variant, monkeypatch):
    """Before the gate opens the step calls none of the adaptation losses."""
    def refuse(*args, **kwargs):
        raise AssertionError("an adaptation term was built before the gate opened")

    for name in ADAPTATION_LOSSES:
        monkeypatch.setattr(training, name, refuse)
    source, target = toy_domains
    state = init_state(toy_config(variant, da_start=3), 1)
    src_X, src_y = stack_windows(source.train_windows, range(16))
    tgt_X, _ = stack_windows(target.train_windows, range(16))
    for _ in range(3):
        record = train_step(state, src_X, src_y, tgt_X)
        assert set(record) == {"iteration", "epoch", "lr", "total", "rul"}
    if variant != "no_da":
        with pytest.raises(AssertionError, match="before the gate opened"):
            train_step(state, src_X, src_y, tgt_X)  # iteration 3: gate open


def test_forward_rows_follow_the_target_stream_readers(toy_domains, monkeypatch):
    """n rows when no evaluated term reads the target stream, 2n after the gate."""
    source, target = toy_domains
    rows = []
    original = Model.forward

    def recording_forward(self, X, *args, **kwargs):
        rows.append(X.shape[0])
        return original(self, X, *args, **kwargs)

    monkeypatch.setattr(Model, "forward", recording_forward)
    src_X, src_y = stack_windows(source.train_windows, range(16))
    tgt_X, _ = stack_windows(target.train_windows, range(16))
    for variant, da_start, expected in (("no_da", 0, [16] * 3), ("lamanet", 2, [16, 16, 32])):
        rows.clear()
        state = init_state(toy_config(variant, da_start=da_start), 1)
        state.steps_per_epoch = 10
        for _ in range(3):
            train_step(state, src_X, src_y, tgt_X)
        assert rows == expected, variant


def test_toy_lamanet_step_graph_size(toy_domains, monkeypatch):
    """Interior graph nodes of one toy lamanet step with every term on:
    exactly 117, whichever the recurrent cell.

    The same step took 770 nodes with the 16-step GRU unrolled into
    primitives and each bias add its own node, 250 with separate q/k/v
    GEMMs, four head split/merge nodes per attention, an `add` before each
    layer norm and projected decoder keys and values, 174 with each ReLU
    MLP built as `linear`, `relu`, `linear`, 152 with the RBF-MMD composed
    of 15 primitives, and 124 with the q/k/v and GRU gate weights stored
    apart and concatenated on every step.  With the LSTM and RNN unrolls
    composed of primitives it took 549 and 229."""
    source, target = toy_domains
    nodes = []

    def counting_backward(loss):
        nodes.append(sum(1 for node in ad._topo_order(loss) if node._parents))
        backward(loss)

    monkeypatch.setattr(training, "backward", counting_backward)
    config = toy_config("lamanet", da_start=0)
    src_X, src_y = stack_windows(source.train_windows, range(16))
    tgt_X, _ = stack_windows(target.train_windows, range(16))
    for cell in ("gru", "lstm", "rnn"):
        state = init_state(dataclasses.replace(
            config, model=dataclasses.replace(config.model, recon_cell=cell)), 1)
        state.steps_per_epoch = 10
        train_step(state, src_X, src_y, tgt_X)
    assert nodes == [117, 117, 117]


@pytest.mark.parametrize("variant, cell", [(variant, "gru") for variant in VARIANTS]
                         + [("lamanet", "lstm"), ("lamanet", "rnn")])
def test_no_step_concatenates_weights(toy_domains, monkeypatch, variant, cell):
    """Each weight is stored as the array its kernel reads, so no `concat`
    node of a step with every term on takes a 2-D parameter."""
    source, target = toy_domains
    concat_parents = []

    def recording_backward(loss):
        for node in ad._topo_order(loss):
            if node._vjp is not None and node._vjp.__qualname__.startswith("concat."):
                concat_parents.extend(node._parents)
        backward(loss)

    monkeypatch.setattr(training, "backward", recording_backward)
    config = toy_config(variant, da_start=0)
    state = init_state(dataclasses.replace(
        config, model=dataclasses.replace(config.model, recon_cell=cell)), 1)
    state.steps_per_epoch = 10
    src_X, src_y = stack_windows(source.train_windows, range(16))
    tgt_X, _ = stack_windows(target.train_windows, range(16))
    train_step(state, src_X, src_y, tgt_X)
    weights = {id(p) for p in state.trainable().values() if p.ndim == 2}
    assert concat_parents  # the encoder still concatenates its biases and streams
    assert not [p for p in concat_parents if id(p) in weights]


def test_no_attention_has_a_key_bias():
    """A key bias would add the same q . b_k to every score of a query and
    cancel in the softmax, so no attention block has one.  Each encoder
    block keeps its key map as the middle block of `attn.qkv.W`; the
    decoder keeps `attn.k.W`."""
    state = init_state(toy_config("dann"), 1)
    names, d = list(state.trainable()), state.config.model.attn_dim
    assert [name for name in names if name.endswith(".attn.k.b")] == []
    assert [name for name in names if name.endswith(".attn.k.W")] == ["dec.0.attn.k.W"]
    qkv = {name: p.shape for name, p in state.trainable().items() if name.endswith(".attn.qkv.W")}
    assert qkv == {f"enc.{stream}.{i}.attn.qkv.W": (d, 3 * d)
                   for stream in ("sensor", "time") for i in range(2)}


def test_non_finite_gradient_aborts_before_the_update(toy_domains, monkeypatch):
    source, target = toy_domains
    state = init_state(toy_config("lamanet", da_start=0), 1)
    state.steps_per_epoch = 10
    state.iteration = 3

    def poisoned_backward(loss):
        backward(loss)
        state.model.params["squeeze.2.W"].grad[0, 0] = np.inf
        state.model.params["head.W"].grad[0, 0] = np.nan

    monkeypatch.setattr(training, "backward", poisoned_backward)
    params = {name: p.data.copy() for name, p in state.trainable().items()}
    src_X, src_y = stack_windows(source.train_windows, range(16))
    tgt_X, _ = stack_windows(target.train_windows, range(16))
    with pytest.raises(TrainingAbort, match="non-finite gradient of squeeze.2.W at iteration 3"):
        train_step(state, src_X, src_y, tgt_X)
    for name, p in state.trainable().items():
        np.testing.assert_array_equal(p.data, params[name], err_msg=name)
    assert state.adam.t == 0 and state.iteration == 3
    assert not any(np.any(m) for m in state.adam.m.values())
    assert not any(np.any(v) for v in state.adam.v.values())


def test_loss_trajectory_bitwise_deterministic(toy_domains):
    source, target = toy_domains

    def losses(seed):
        state = init_state(toy_config("lamanet", epochs=50), seed)
        train(state, source, target, max_iterations=10)
        return [r["total"] for r in state.history]

    assert losses(1) == losses(1)  # bitwise: floats compared exactly


def test_log_rows_carry_the_epoch_each_step_ran_in(toy_domains):
    """A step row's epoch is the epoch the step ran in, and each epoch's
    validation row directly follows that epoch's last step with its epoch."""
    source, target = toy_domains
    state = init_state(toy_config("no_da", epochs=2), 1)
    records = []
    train(state, source, target, log=records.append)
    n = state.steps_per_epoch
    steps = [r for r in records if "val_rmse" not in r]
    assert len(steps) == 2 * n and state.epoch == 2 and state.step_in_epoch == 0
    assert [r["epoch"] for r in steps] == [(r["iteration"] - 1) // n for r in steps]
    val_rows = [i for i, r in enumerate(records) if "val_rmse" in r]
    assert val_rows == [n, 2 * n + 1]
    for i in val_rows:
        last_step = records[i - 1]
        assert records[i]["epoch"] == last_step["epoch"]
        assert records[i]["iteration"] == last_step["iteration"] == (last_step["epoch"] + 1) * n


def test_an_empty_training_pool_is_rejected_before_any_step():
    with pytest.raises(ValueError, match="both training pools must be non-empty"):
        steps_per_epoch(0, 0, 32)
    with pytest.raises(ValueError, match="both training pools must be non-empty"):
        steps_per_epoch(10, 0, 32)


def test_coral_trains_through_a_one_row_last_batch():
    """1,162 target windows at 9 rows per stream leave one row for the
    epoch's last step (1,162 = 129 * 9 + 1); coral's covariance of that
    stream is 0 and the run finishes its epoch."""
    source, target = make_toy_domains(3)
    assert len(target.train_windows) % 9 == 1
    state = init_state(toy_config("coral", epochs=1, batch_size=18, da_start=128), 1)
    train(state, source, target)
    assert state.iteration == state.steps_per_epoch == 130
    assert all(math.isfinite(r["discrepancy"]) for r in state.history[-2:])


def test_toy_training_reduces_loss(toy_domains):
    source, target = toy_domains
    state = init_state(toy_config("no_da", epochs=50), 1)
    train(state, source, target, max_iterations=100)
    first = state.history[0]["total"]
    last10 = np.mean([r["total"] for r in state.history[-10:]])
    assert last10 < first


def test_training_abort_carries_term_dump(toy_domains):
    source, target = toy_domains
    config = toy_config("no_da")
    state = init_state(config, 1)
    state.steps_per_epoch = 10
    state.model.params["head.b"].data[:] = np.nan
    src_X, src_y = stack_windows(source.train_windows, range(16))
    tgt_X, _ = stack_windows(target.train_windows, range(16))
    with pytest.raises(TrainingAbort, match="per-term"):
        train_step(state, src_X, src_y, tgt_X)


# ---------------------------------------------------------------------------
# checkpoint resume

def test_checkpoint_resume_is_bitwise(tmp_path, toy_domains):
    source, target = toy_domains
    config = toy_config("lamanet", epochs=50)

    state = init_state(config, 1)
    train(state, source, target, max_iterations=7)  # mid-epoch
    save_train_checkpoint(tmp_path / "ckpt.bin", state)

    resumed = load_train_checkpoint(tmp_path / "ckpt.bin", config)
    train(resumed, source, target, max_iterations=8)
    train(state, source, target, max_iterations=8)

    assert state.history[-1]["total"] == resumed.history[-1]["total"]
    for name, p in state.model.params.items():
        np.testing.assert_array_equal(p.data, resumed.model.params[name].data)


@pytest.mark.parametrize("variant", ["lamanet", "dann"])
def test_loading_a_checkpoint_draws_no_parameter(tmp_path, toy_domains, monkeypatch, variant):
    """The loader builds its state without drawing from a generator: every
    Xavier initialisation it makes is handed something other than a numpy
    Generator, and all it returns comes from the file.  Mid-epoch, that is
    the shuffle state of the epoch's start, and no batch plan."""
    source, target = toy_domains
    config = toy_config(variant, epochs=50)
    epoch_start = init_state(config, 1).rng_shuffle.bit_generator.state
    state = init_state(config, 1)
    train(state, source, target, max_iterations=3)
    save_train_checkpoint(tmp_path / "ckpt.bin", state)

    def guard(xavier):
        def no_draw(rng, fan_in, fan_out):
            if isinstance(rng, np.random.Generator):
                raise AssertionError(f"drew a {fan_in}x{fan_out} Xavier matrix")
            return xavier(rng, fan_in, fan_out)
        return no_draw

    for module in (model_module, losses_module):
        monkeypatch.setattr(module, "_xavier", guard(module._xavier))
    loaded = load_train_checkpoint(tmp_path / "ckpt.bin", config)
    assert list(loaded.trainable()) == list(state.trainable())
    for name, p in state.trainable().items():
        np.testing.assert_array_equal(loaded.trainable()[name].data, p.data)
        np.testing.assert_array_equal(loaded.adam.m[name], state.adam.m[name])
        np.testing.assert_array_equal(loaded.adam.v[name], state.adam.v[name])
    assert (loaded.adam.t, loaded.iteration, loaded.seed) == (state.adam.t, 3, 1)
    assert loaded.rng_shuffle.bit_generator.state == epoch_start != state.rng_shuffle.bit_generator.state
    assert loaded.rng_noise.bit_generator.state == state.rng_noise.bit_generator.state
    assert loaded.src_order is None and loaded.tgt_order is None


def test_checkpoint_at_an_epoch_boundary_resumes_bitwise(tmp_path, toy_domains):
    """A checkpoint taken after an epoch's last step holds no batch plan and
    no position but the iteration; the resumed run draws the next epoch's
    plan as the uninterrupted run does."""
    source, target = toy_domains
    config = toy_config("lamanet", epochs=3)
    state = init_state(config, 1)
    n = steps_per_epoch(len(source.train_windows), len(target.train_windows), config.batch_size)
    train(state, source, target, max_iterations=n)
    save_train_checkpoint(tmp_path / "ckpt.bin", state)
    arrays, meta = load_blob(tmp_path / "ckpt.bin")
    assert not any(key.startswith("extra/") for key in arrays)
    assert meta["iteration"] == n and not {"epoch", "step_in_epoch"} & set(meta)

    resumed = load_train_checkpoint(tmp_path / "ckpt.bin", config)
    assert (resumed.epoch, resumed.step_in_epoch) == (1, 0)
    train(resumed, source, target, max_iterations=n + 2)
    train(state, source, target, max_iterations=n + 2)
    assert [r["total"] for r in resumed.history] == [r["total"] for r in state.history[-2:]]
    assert resumed.adam.t == state.adam.t
    for name, p in state.trainable().items():
        np.testing.assert_array_equal(p.data, resumed.model.params[name].data)
        np.testing.assert_array_equal(state.adam.m[name], resumed.adam.m[name])
        np.testing.assert_array_equal(state.adam.v[name], resumed.adam.v[name])


def test_checkpoint_with_key_bias_sections_loads(tmp_path, toy_domains):
    """A checkpoint that carries sections the model no longer has, here the
    key-bias parameters and Adam moments it once had, and meta keys the
    trainer no longer reads, the epoch and the step within it, loads with
    those ignored."""
    source, target = toy_domains
    config = toy_config("lamanet", epochs=50)
    state = init_state(config, 1)
    train(state, source, target, max_iterations=3)
    save_train_checkpoint(tmp_path / "ckpt.bin", state)
    arrays, meta = load_blob(tmp_path / "ckpt.bin")
    for prefix in ("enc.sensor.0", "enc.time.1", "dec.0"):
        for section in ("param", "adam_m", "adam_v"):
            arrays[f"{section}/{prefix}.attn.k.b"] = np.zeros(config.model.attn_dim)
    save_blob(tmp_path / "old.bin", arrays, meta | {"epoch": 0, "step_in_epoch": 3})

    loaded = load_train_checkpoint(tmp_path / "old.bin", config)
    assert (loaded.iteration, loaded.step_in_epoch) == (state.iteration, 3)
    for name, p in state.trainable().items():
        np.testing.assert_array_equal(p.data, loaded.model.params[name].data)
        np.testing.assert_array_equal(state.adam.v[name], loaded.adam.v[name])


def test_checkpoint_rejects_other_config(tmp_path, toy_domains):
    source, target = toy_domains
    config = toy_config("lamanet")
    state = init_state(config, 1)
    train(state, source, target, max_iterations=2)
    save_train_checkpoint(tmp_path / "ckpt.bin", state)
    other = toy_config("mmd")
    with pytest.raises(ValueError, match="hash"):
        load_train_checkpoint(tmp_path / "ckpt.bin", other)


def test_checkpoint_moments_load_as_float64(tmp_path, toy_domains):
    """A checkpoint whose moments were stored as float32 loads them as
    float64, so the in-place Adam never carries a narrower moment."""
    config = toy_config("lamanet", epochs=50)
    state = init_state(config, 1)
    train(state, *toy_domains, max_iterations=3)
    save_train_checkpoint(tmp_path / "ckpt.bin", state)
    arrays, meta = load_blob(tmp_path / "ckpt.bin")
    for key in arrays:
        if key.startswith(("adam_m/", "adam_v/")):
            arrays[key] = arrays[key].astype(np.float32)
    save_blob(tmp_path / "f32.bin", arrays, meta)
    loaded = load_train_checkpoint(tmp_path / "f32.bin", config)
    for moments, section in ((loaded.adam.m, "adam_m"), (loaded.adam.v, "adam_v")):
        for name, moment in moments.items():
            assert moment.dtype == np.float64, name
            np.testing.assert_array_equal(moment, arrays[f"{section}/{name}"])
    train(loaded, *toy_domains, max_iterations=4)
    assert all(m.dtype == np.float64 for m in loaded.adam.m.values())


def _short_pools(domains, n_source, n_target):
    source, target = domains
    return (dataclasses.replace(source, train_windows=source.train_windows[:n_source]),
            dataclasses.replace(target, train_windows=target.train_windows[:n_target]))


@pytest.mark.parametrize("variant", ["lamanet", "dann"])
def test_a_run_resumed_at_any_iteration_ends_bitwise_as_the_uninterrupted_run(
        tmp_path, toy_domains, variant):
    """Saved, loaded and resumed at each of the 21 iterations of a 3-epoch
    run (7 steps per epoch, the target pool resampled, the gate opening
    mid-epoch), the run ends with the uninterrupted run's records,
    parameters, moments and rng states; no checkpoint holds a batch plan."""
    source, target = _short_pools(toy_domains, 100, 70)
    config = toy_config(variant, epochs=3, da_start=10)
    whole = init_state(config, 1)
    end = config.epochs * steps_per_epoch(100, 70, config.batch_size)
    assert end == 21
    for k in range(end):
        save_train_checkpoint(tmp_path / f"{k}.bin", whole)
        train(whole, source, target, max_iterations=k + 1)
    for k in range(end):
        arrays, _ = load_blob(tmp_path / f"{k}.bin")
        assert not any(key.startswith("extra/") for key in arrays)
        resumed = train(load_train_checkpoint(tmp_path / f"{k}.bin", config), source, target)
        assert resumed.history == whole.history[k:], k
        assert (resumed.iteration, resumed.adam.t) == (whole.iteration, whole.adam.t) == (end, end)
        for name, p in whole.trainable().items():
            np.testing.assert_array_equal(resumed.trainable()[name].data, p.data, err_msg=name)
            np.testing.assert_array_equal(resumed.adam.m[name], whole.adam.m[name], err_msg=name)
            np.testing.assert_array_equal(resumed.adam.v[name], whole.adam.v[name], err_msg=name)
        for rng in ("rng_shuffle", "rng_noise"):
            assert getattr(resumed, rng).bit_generator.state == getattr(whole, rng).bit_generator.state
    assert {"discrepancy", "recon", "smooth", "adversarial"} & set(whole.history[-1])


def _with_plan(arrays, key, plan):
    arrays[key] = plan


PLAN_DAMAGE = {
    "intact": lambda arrays: None,
    "only-src": lambda arrays: arrays.pop("extra/plan_tgt"),
    "only-tgt": lambda arrays: arrays.pop("extra/plan_src"),
    "two-dimensional": lambda a: _with_plan(a, "extra/plan_src", a["extra/plan_src"][:, None]),
    "float": lambda a: _with_plan(a, "extra/plan_tgt", a["extra/plan_tgt"].astype(float)),
    "negative": lambda a: _with_plan(a, "extra/plan_src", a["extra/plan_src"] - 1),
    "lengths-differ": lambda a: _with_plan(a, "extra/plan_tgt", a["extra/plan_tgt"][:-1]),
    "wrong-length": lambda a: [_with_plan(a, key, a[key][: len(a[key]) // 2])
                               for key in ("extra/plan_src", "extra/plan_tgt")],
}


@pytest.mark.parametrize("damage", PLAN_DAMAGE)
def test_checkpoint_with_a_bad_batch_plan_is_rejected(tmp_path, toy_domains, damage):
    """Mid-epoch checkpoints of the earlier format store the batch plan, and
    the shuffle state after the plan's draw, from which no run can resume:
    a file holding either plan array, whole or damaged, is refused."""
    config = toy_config("lamanet", epochs=50)
    state = init_state(config, 1)
    train(state, *toy_domains, max_iterations=3)
    save_train_checkpoint(tmp_path / "ckpt.bin", state)
    arrays, meta = load_blob(tmp_path / "ckpt.bin")
    arrays["extra/plan_src"], arrays["extra/plan_tgt"] = state.src_order, state.tgt_order
    PLAN_DAMAGE[damage](arrays)
    save_blob(tmp_path / "old.bin", arrays, meta)
    with pytest.raises(ValueError, match=re.escape(f"{tmp_path / 'old.bin'}: a mid-epoch")):
        load_train_checkpoint(tmp_path / "old.bin", config)


@pytest.mark.parametrize("where", ["mid-epoch", "boundary"])
def test_train_refuses_a_state_whose_epoch_length_the_pools_do_not_give(
        tmp_path, toy_domains, where):
    """74 steps per epoch on the full toy pools, 38 on pools of 600 windows:
    a loaded state refuses the shorter pools before any step."""
    config = toy_config("lamanet", epochs=50)
    state = init_state(config, 1)
    iteration = 3 if where == "mid-epoch" else 74
    train(state, *toy_domains, max_iterations=iteration)
    assert state.steps_per_epoch == 74
    save_train_checkpoint(tmp_path / "ckpt.bin", state)
    loaded = load_train_checkpoint(tmp_path / "ckpt.bin", config)
    with pytest.raises(ValueError, match=f"the state at iteration {iteration} has 74 steps per "
                                         "epoch, but the pools give 38"):
        train(loaded, *_short_pools(toy_domains, 600, 600))
    assert loaded.iteration == iteration and not loaded.history


def test_a_state_trained_on_other_pools_resumes_as_its_checkpoint_does(
        tmp_path, toy_domains, monkeypatch):
    """3 steps on the full toy pools, then on to step 80 with the source cut
    from 1,182 to 1,170 windows, which still gives 74 steps per epoch: the
    state in memory redraws the epoch's plan for the pools it is given, once,
    and ends as its saved, loaded and resumed checkpoint does, bitwise."""
    config = toy_config("no_da", epochs=50)
    state = init_state(config, 1)
    train(state, *toy_domains, max_iterations=3)
    save_train_checkpoint(tmp_path / "ckpt.bin", state)
    n_target = len(toy_domains[1].train_windows)
    assert len(toy_domains[0].train_windows) == 1182
    assert steps_per_epoch(1170, n_target, config.batch_size) == state.steps_per_epoch == 74
    short = _short_pools(toy_domains, 1170, n_target)
    resumed = train(load_train_checkpoint(tmp_path / "ckpt.bin", config), *short,
                    max_iterations=80)
    draws = []

    def counted_plan(n_source, n_target, rng):
        draws.append((n_source, n_target))
        return epoch_plan(n_source, n_target, rng)

    monkeypatch.setattr(training, "epoch_plan", counted_plan)
    train(state, *short, max_iterations=80)
    assert draws == [(1170, n_target)] * 2  # the changed pools' plan, then epoch 2's
    assert state.history[3:] == resumed.history
    for name, p in state.trainable().items():
        np.testing.assert_array_equal(resumed.trainable()[name].data, p.data, err_msg=name)
        np.testing.assert_array_equal(resumed.adam.m[name], state.adam.m[name], err_msg=name)
        np.testing.assert_array_equal(resumed.adam.v[name], state.adam.v[name], err_msg=name)
    for rng in ("rng_shuffle", "rng_noise"):
        assert getattr(resumed, rng).bit_generator.state == getattr(state, rng).bit_generator.state


# ---------------------------------------------------------------------------
# experiment orchestration

def test_run_experiment_emits_full_report(tmp_path, toy_domains):
    source, target = toy_domains
    config = toy_config("no_da", epochs=1, seeds=(1, 2))
    (report,) = run_experiment(
        [("no_da", tmp_path / "out", config)], source, target, write_latents=False,
    )
    assert len(report.rmse_per_seed) == 2
    assert report.n_test_engines == len(target.test_windows)
    assert math.isfinite(report.rmse_mean) and math.isfinite(report.rmse_sd)
    for seed in (1, 2):
        run_dir = tmp_path / "out" / str(seed)
        for name in ("report.json", "train_log.csv", "checkpoint.bin"):
            assert (run_dir / name).exists()
    assert (tmp_path / "out" / "report.json").exists()
    assert (tmp_path / "out" / "metrics.csv").exists()


def test_failed_report_write_keeps_the_previous_report(tmp_path, toy_domains, monkeypatch):
    source, target = toy_domains
    config = toy_config("no_da", epochs=1, seeds=(1,))
    out = tmp_path / "out"
    row = [("no_da", out, config)]
    list(run_experiment(row, source, target, write_latents=False))
    before = (out / "1" / "report.json").read_bytes()

    def dump_then_fail(obj, fh, **kwargs):
        fh.write(json.dumps(obj, **kwargs)[:40])
        raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(json, "dump", dump_then_fail)
    with pytest.raises(OSError, match="No space left"):
        list(run_experiment(row, source, target, write_latents=False))
    assert (out / "1" / "report.json").read_bytes() == before
    assert not [p for p in out.rglob("*") if p.name.endswith(".tmp")]


def test_run_experiment_submits_every_row_in_one_map(tmp_path, toy_domains, monkeypatch):
    """Under jobs > 1 the seeds of all rows go to one pool map, made before
    the first report is yielded; the pool is shut down cancelling the rest."""
    calls, shutdowns = [], []

    class RecordingPool:
        def __init__(self, max_workers, **kwargs):
            assert max_workers == 2

        def map(self, fn, seed_jobs):
            calls.append(list(seed_jobs))
            return iter([{"seed": seed, "rmse": 1.0, "score": 2.0, "val_rmse": 3.0}
                         for _, seed, _ in calls[-1]])

        def shutdown(self, **kwargs):
            shutdowns.append(kwargs)

    monkeypatch.setattr(training, "ProcessPoolExecutor", RecordingPool)
    source, target = toy_domains
    rows = [(f"row{i}", tmp_path / f"row{i}", toy_config("no_da", seeds=(1, 2, 3)))
            for i in range(3)]
    reports = run_experiment(rows, source, target, jobs=2, write_latents=False)
    first = next(reports)
    assert calls == [[(config, seed, out) for _, out, config in rows for seed in (1, 2, 3)]]
    assert first.variant == "row0" and len(first.records) == 3
    assert [report.variant for report in reports] == ["row1", "row2"]
    assert len(calls) == 1 and shutdowns == [{"cancel_futures": True}]
    assert all((out / "report.json").exists() for _, out, _ in rows)



@pytest.mark.parametrize("seeds, pools", [((1, 2), [2]), ((1,), [])], ids=["2-seeds", "1-seed"])
def test_the_pool_has_no_more_workers_than_seeds(tmp_path, toy_domains, monkeypatch, seeds, pools):
    """`jobs=4` over 2 seeds makes a pool of 2 workers; over 1 seed it makes
    no pool and runs the seed in this process."""
    sizes = []

    class RecordingPool:
        def __init__(self, max_workers, **kwargs):
            sizes.append(max_workers)

        def map(self, fn, seed_jobs):
            return map(fn, seed_jobs)

        def shutdown(self, **kwargs):
            pass

    monkeypatch.setattr(training, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(training, "_seed_job", lambda job, **kwargs: {
        "seed": job[1], "rmse": 1.0, "score": 2.0, "val_rmse": 3.0})
    source, target = toy_domains
    rows = [("no_da", tmp_path / "out", toy_config("no_da", seeds=seeds))]
    (report,) = run_experiment(rows, source, target, jobs=4, write_latents=False)
    assert sizes == pools
    assert [record["seed"] for record in report.records] == list(seeds)
