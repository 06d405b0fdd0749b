import math
from dataclasses import replace

import numpy as np
import pytest

from ruladapt import autodiff as ad
from ruladapt import training
from ruladapt.autodiff import Tensor, backward
from ruladapt.losses import (
    TERM_WEIGHTS,
    DomainDiscriminator,
    KernelSpec,
    LossWeights,
    composite_loss,
    coral_loss,
    dann_loss,
    evaluates_term,
    latent_mmd,
    mmd2,
    recon_loss,
    rul_mse,
    smooth_loss,
)
from ruladapt.model import toy_model_config
from ruladapt.training import variant_weights

from gradtools import grad_check
from oracles import composed_mmd2, log

FIXED = KernelSpec(bandwidth_mode="fixed", bandwidth=1.0)
MEDIAN = KernelSpec()


# ---------------------------------------------------------------------------
# independent oracles

def mmd2_double_loop(a: np.ndarray, b: np.ndarray, sigma: float) -> float:
    """Naive double-loop estimator (the implementation under test never runs
    through this path)."""

    def k(x, y):
        return math.exp(-float(np.sum((x - y) ** 2)) / (2.0 * sigma**2))

    n, m = len(a), len(b)
    t_aa = sum(k(a[i], a[j]) for i in range(n) for j in range(n)) / n**2
    t_bb = sum(k(b[i], b[j]) for i in range(m) for j in range(m)) / m**2
    t_ab = sum(k(a[i], b[j]) for i in range(n) for j in range(m)) / (n * m)
    return t_aa + t_bb - 2.0 * t_ab


def pooled_median_sigma(a: np.ndarray, b: np.ndarray) -> float:
    z = np.vstack([a, b])
    dists = [
        float(np.sum((z[i] - z[j]) ** 2))
        for i in range(len(z))
        for j in range(len(z))
        if i != j
    ]
    return math.sqrt(0.5 * float(np.median(dists)))


# ---------------------------------------------------------------------------
# rul_mse

def test_rul_mse_zero_for_exact_predictions():
    y = Tensor(np.array([[0.3], [0.9]]))
    assert float(rul_mse(y, y).data) == 0.0


def test_rul_mse_hand_case():
    y_hat = Tensor(np.array([[0.0], [0.0]]))
    y = Tensor(np.array([[1.0], [0.0]]))
    assert float(rul_mse(y_hat, y).data) == pytest.approx(0.5)


def test_rul_mse_order_invariant():
    rng = np.random.default_rng(0)
    y_hat, y = rng.uniform(size=(6, 1)), rng.uniform(size=(6, 1))
    perm = rng.permutation(6)
    assert float(rul_mse(Tensor(y_hat), Tensor(y)).data) == pytest.approx(
        float(rul_mse(Tensor(y_hat[perm]), Tensor(y[perm])).data), rel=1e-12
    )


def test_rul_mse_rejects_empty_batch():
    empty = Tensor(np.zeros((0, 1)))
    with pytest.raises(ValueError):
        rul_mse(empty, empty)


# ---------------------------------------------------------------------------
# mmd2

def test_mmd2_identical_sets_is_zero():
    a = np.random.default_rng(1).normal(size=(8, 3))
    assert abs(float(mmd2(Tensor(a), Tensor(a.copy()), MEDIAN).data)) <= 1e-12


def test_mmd2_hand_case_scalar_points():
    value = float(mmd2(Tensor(np.array([[0.0]])), Tensor(np.array([[1.0]])), FIXED).data)
    assert value == pytest.approx(2.0 - 2.0 * math.exp(-0.5), abs=1e-12)


def test_mmd2_matches_double_loop_oracle():
    rng = np.random.default_rng(7)
    for _ in range(50):
        n, m, d = rng.integers(2, 65), rng.integers(2, 65), rng.integers(1, 17)
        a = rng.normal(size=(n, d))
        b = rng.normal(loc=0.5, size=(m, d))
        sigma = float(rng.uniform(0.5, 3.0))
        spec = KernelSpec(bandwidth_mode="fixed", bandwidth=sigma)
        ours = float(mmd2(Tensor(a), Tensor(b), spec).data)
        assert ours == pytest.approx(mmd2_double_loop(a, b, sigma), abs=1e-10)


def test_mmd2_median_mode_matches_loop_oracle():
    rng = np.random.default_rng(8)
    for _ in range(5):
        a = rng.normal(size=(10, 4))
        b = rng.normal(loc=1.0, size=(12, 4))
        sigma = pooled_median_sigma(a, b)
        ours = float(mmd2(Tensor(a), Tensor(b), MEDIAN).data)
        assert ours == pytest.approx(mmd2_double_loop(a, b, sigma), abs=1e-10)


def test_mmd2_symmetric_and_nonnegative():
    rng = np.random.default_rng(9)
    a, b = rng.normal(size=(6, 2)), rng.normal(loc=2.0, size=(9, 2))
    ab = float(mmd2(Tensor(a), Tensor(b), MEDIAN).data)
    ba = float(mmd2(Tensor(b), Tensor(a), MEDIAN).data)
    assert ab == pytest.approx(ba, rel=1e-12)
    assert ab >= -1e-12


def test_mmd2_median_mode_invariant_to_row_permutations():
    rng = np.random.default_rng(10)
    a, b = rng.normal(size=(7, 3)), rng.normal(size=(5, 3))
    base = float(mmd2(Tensor(a), Tensor(b), MEDIAN).data)
    shuffled = float(mmd2(
        Tensor(a[rng.permutation(7)]), Tensor(b[rng.permutation(5)]), MEDIAN
    ).data)
    assert shuffled == pytest.approx(base, rel=1e-12)


def test_mmd2_decreases_along_interpolation_path():
    rng = np.random.default_rng(11)
    a = rng.normal(size=(16, 4))
    b = rng.normal(loc=3.0, size=(16, 4))
    spec = KernelSpec(bandwidth_mode="fixed", bandwidth=3.0)
    values = [
        float(mmd2(Tensor(a), Tensor((1 - t) * b + t * a), spec).data)
        for t in (0.0, 0.25, 0.5, 0.75, 1.0)
    ]
    assert all(x >= y for x, y in zip(values, values[1:]))
    assert values[-1] <= 1e-12


def test_mmd2_rejects_width_mismatch_and_bad_bandwidth():
    with pytest.raises(ValueError):
        mmd2(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 4))), MEDIAN)
    with pytest.raises(ValueError):
        KernelSpec(bandwidth_mode="fixed", bandwidth=-1.0)


def _mmd2_value_and_grads(fn, a, b, spec):
    ta, tb = Tensor(a.copy(), requires_grad=True), Tensor(b.copy(), requires_grad=True)
    out = fn(ta, tb, spec)
    backward(out)
    return out.data, ta.grad, tb.grad


@pytest.mark.parametrize("spec", [MEDIAN, KernelSpec(bandwidth_mode="fixed", bandwidth=1.7)],
                         ids=["median", "fixed"])
def test_mmd2_node_matches_composed_graph_bitwise(spec):
    """The fused node runs the composed graph's arithmetic in its order:
    value and both gradients are equal to the last bit, b with 3 more rows
    than a, and on identical rows, where the median falls back to 0.5."""
    rng = np.random.default_rng(16)
    cases = [(rng.normal(size=(n, d)), rng.normal(loc=0.3, size=(n + 3, d)))
             for n, d in ((64, 200), (64, 32), (37, 16), (5, 3), (1, 4))]
    cases.append((np.ones((6, 4)), np.ones((6, 4))))
    for a, b in cases:
        got = _mmd2_value_and_grads(mmd2, a, b, spec)
        want = _mmd2_value_and_grads(composed_mmd2, a, b, spec)
        for g, w in zip(got, want, strict=True):
            np.testing.assert_array_equal(g, w, err_msg=f"{a.shape}, {b.shape}")


def test_mmd2_gradient_check_fixed_bandwidth():
    rng = np.random.default_rng(12)
    b = rng.normal(size=(5, 3))
    spec = KernelSpec(bandwidth_mode="fixed", bandwidth=1.5)
    err = grad_check(
        lambda x: mmd2(x, Tensor(b), spec), Tensor(rng.normal(size=(4, 3))), eps=1e-5
    )
    assert err < 1e-3


# ---------------------------------------------------------------------------
# latent_mmd

def test_latent_mmd_zero_when_all_equal():
    rng = np.random.default_rng(13)
    c, o = rng.normal(size=(6, 4)), rng.normal(size=(6, 2))
    value = latent_mmd(Tensor(c), Tensor(c.copy()), Tensor(o), Tensor(o.copy()), MEDIAN)
    assert abs(float(value.data)) <= 1e-12


def test_latent_mmd_is_sum_of_parts_and_symmetric():
    rng = np.random.default_rng(14)
    cs, ct = rng.normal(size=(6, 4)), rng.normal(loc=1, size=(6, 4))
    os_, ot = rng.normal(size=(6, 2)), rng.normal(loc=-1, size=(6, 2))
    total = float(latent_mmd(Tensor(cs), Tensor(ct), Tensor(os_), Tensor(ot), FIXED).data)
    parts = (float(mmd2(Tensor(cs), Tensor(ct), FIXED).data)
             + float(mmd2(Tensor(os_), Tensor(ot), FIXED).data))
    swapped = float(latent_mmd(Tensor(ct), Tensor(cs), Tensor(ot), Tensor(os_), FIXED).data)
    assert total == pytest.approx(parts, rel=1e-12)
    assert total == pytest.approx(swapped, rel=1e-12)


def test_latent_mmd_rejects_stream_width_mismatch():
    with pytest.raises(ValueError):
        latent_mmd(
            Tensor(np.ones((3, 4))), Tensor(np.ones((3, 5))),
            Tensor(np.ones((3, 2))), Tensor(np.ones((3, 2))), MEDIAN,
        )
    with pytest.raises(ValueError):
        latent_mmd(
            Tensor(np.ones((3, 4))), Tensor(np.ones((3, 4))),
            Tensor(np.ones((3, 2))), Tensor(np.ones((3, 3))), MEDIAN,
        )


def _interior_nodes(loss: Tensor) -> int:
    return sum(1 for node in ad._topo_order(loss) if node._parents)


def test_mmd2_is_one_node_and_latent_mmd_three():
    rng = np.random.default_rng(15)
    cs, ct, os_, ot = (Tensor(rng.normal(size=(5, 3)), requires_grad=True) for _ in range(4))
    assert _interior_nodes(mmd2(cs, ct, MEDIAN)) == 1
    assert _interior_nodes(latent_mmd(cs, ct, os_, ot, MEDIAN)) == 3


# ---------------------------------------------------------------------------
# reconstruction loss

def test_recon_loss_zero_for_perfect_reconstruction():
    rng = np.random.default_rng(15)
    xs, xt = rng.uniform(size=(3, 4, 5)), rng.uniform(size=(3, 4, 5))
    value = recon_loss(Tensor(xs), Tensor(xs.copy()), Tensor(xt), Tensor(xt.copy()))
    assert float(value.data) == 0.0


def test_recon_source_term_is_elementwise_mse():
    rng = np.random.default_rng(16)
    xs, xhat = rng.uniform(size=(2, 3, 4)), rng.uniform(size=(2, 3, 4))
    zero = Tensor(np.zeros((1, 1, 1)))
    value = float(recon_loss(Tensor(xs), Tensor(xhat), zero, zero).data)
    assert value == pytest.approx(np.mean((xs - xhat) ** 2), rel=1e-12)


def test_recon_target_delta_is_additive():
    rng = np.random.default_rng(17)
    xs = rng.uniform(size=(2, 3, 4))
    xt = rng.uniform(size=(2, 3, 4))
    xt_hat = xt + 0.1
    base = float(recon_loss(Tensor(xs), Tensor(xs.copy()), Tensor(xt), Tensor(xt_hat)).data)
    worse = float(recon_loss(Tensor(xs), Tensor(xs.copy()), Tensor(xt), Tensor(xt + 0.2)).data)
    assert worse - base == pytest.approx(0.04 - 0.01, rel=1e-9)


def test_recon_gradient_check():
    rng = np.random.default_rng(18)
    xs = rng.uniform(size=(2, 3, 4))
    xt, xt_hat = rng.uniform(size=(2, 3, 4)), rng.uniform(size=(2, 3, 4))
    err = grad_check(
        lambda x: recon_loss(Tensor(xs), x, Tensor(xt), Tensor(xt_hat)),
        Tensor(rng.uniform(size=(2, 3, 4))),
    )
    assert err < 1e-3


# ---------------------------------------------------------------------------
# smoothness

def test_smooth_loss_zero_when_gamma_zero():
    rng = np.random.default_rng(19)
    c = Tensor(rng.normal(size=(4, 6)))
    w = Tensor(rng.normal(size=(6, 1)))
    value = smooth_loss(c, lambda x: ad.matmul(x, w), 0.0, np.random.default_rng(0))
    assert float(value.data) == 0.0


def test_smooth_loss_zero_for_constant_map():
    rng = np.random.default_rng(20)
    c = Tensor(rng.normal(size=(4, 6)))
    const = Tensor(np.full((4, 1), 0.7))
    value = smooth_loss(c, lambda x: const, 0.5, np.random.default_rng(0))
    assert float(value.data) == 0.0


def test_smooth_loss_affine_closed_form():
    """For F(c) = W c the expected per-sample loss is gamma^2 ||W||_F^2."""
    rng = np.random.default_rng(21)
    w = rng.normal(size=(6, 1))
    gamma = 0.3
    c = Tensor(rng.normal(size=(10_000, 6)))
    value = float(smooth_loss(
        c, lambda x: ad.matmul(x, Tensor(w)), gamma, np.random.default_rng(5)
    ).data)
    expected = gamma**2 * float(np.sum(w**2))
    assert value == pytest.approx(expected, rel=0.05)


def test_smooth_loss_gradient_flows_through_both_branches():
    rng = np.random.default_rng(22)
    c = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    w = Tensor(rng.normal(size=(4, 1)), requires_grad=True)
    value = smooth_loss(c, lambda x: ad.tanh(ad.matmul(x, w)), 0.2, np.random.default_rng(1))
    backward(value)
    assert c.grad is not None and w.grad is not None
    assert np.any(w.grad != 0.0)


def test_smooth_loss_with_given_clean_prediction_matches_recomputing():
    rng = np.random.default_rng(24)
    c0, w0 = rng.normal(size=(3, 4)), rng.normal(size=(4, 2))

    def value_and_grads(reuse: bool):
        c = Tensor(c0.copy(), requires_grad=True)
        w = Tensor(w0.copy(), requires_grad=True)
        predict = lambda x: ad.tanh(ad.matmul(x, w))
        clean = {"clean": predict(c)} if reuse else {}
        value = smooth_loss(c, predict, 0.2, np.random.default_rng(3), **clean)
        backward(value)
        return float(value.data), c.grad, w.grad

    want, got = value_and_grads(False), value_and_grads(True)
    assert got[0] == want[0]
    for g, w in zip(got[1:], want[1:]):
        np.testing.assert_array_equal(g, w)


def test_smooth_loss_gradient_check_with_frozen_noise():
    rng = np.random.default_rng(23)
    w = rng.normal(size=(4, 1))
    delta_seed = 77

    def f(c):
        return smooth_loss(
            c, lambda x: ad.tanh(ad.matmul(x, Tensor(w))), 0.2,
            np.random.default_rng(delta_seed),
        )

    err = grad_check(f, Tensor(rng.normal(size=(3, 4))), eps=1e-5)
    assert err < 1e-3


# ---------------------------------------------------------------------------
# covariance alignment baseline

def test_coral_zero_for_identical_sets():
    rng = np.random.default_rng(24)
    o = rng.normal(size=(8, 3))
    assert float(coral_loss(Tensor(o), Tensor(o.copy())).data) == pytest.approx(0.0, abs=1e-15)


def test_coral_invariant_to_row_permutation():
    rng = np.random.default_rng(25)
    o = rng.normal(size=(8, 3))
    value = float(coral_loss(Tensor(o), Tensor(o[rng.permutation(8)])).data)
    assert value == pytest.approx(0.0, abs=1e-12)


def test_coral_hand_case_unit_variance_gap():
    # rows +-1 have sample variance 4/3; rescale so Var_s = 1, then against a
    # zero-variance target the loss is (1/4d^2)(1-0)^2 = 1/4 at d = 1
    o_s = Tensor(np.array([[1.0], [-1.0], [1.0], [-1.0]]) / np.sqrt(4.0 / 3.0))
    o_t = Tensor(np.zeros((4, 1)))
    assert float(coral_loss(o_s, o_t).data) == pytest.approx(0.25, rel=1e-12)


def test_coral_invariant_to_joint_rotation():
    rng = np.random.default_rng(26)
    o_s, o_t = rng.normal(size=(12, 3)), rng.normal(loc=1.0, size=(10, 3))
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    base = float(coral_loss(Tensor(o_s), Tensor(o_t)).data)
    rotated = float(coral_loss(Tensor(o_s @ q), Tensor(o_t @ q)).data)
    assert rotated == pytest.approx(base, abs=1e-8)


def test_coral_one_row_stream_has_zero_covariance():
    """A one-row stream (an epoch's last batch can hold one row) aligns as a
    zero covariance: the loss is that of constant rows and finite, and the
    row gets an exactly zero gradient."""
    rng = np.random.default_rng(28)
    o_t = Tensor(rng.normal(size=(4, 2)))
    one = Tensor(rng.normal(size=(1, 2)), requires_grad=True)
    loss = coral_loss(one, o_t)
    assert math.isfinite(float(loss.data))
    assert float(loss.data) == float(coral_loss(Tensor(np.zeros((3, 2))), o_t).data)
    backward(loss)
    np.testing.assert_array_equal(one.grad, np.zeros((1, 2)))


def test_coral_gradient_check():
    rng = np.random.default_rng(27)
    o_t = rng.normal(size=(6, 3))
    err = grad_check(
        lambda x: coral_loss(x, Tensor(o_t)), Tensor(rng.normal(size=(5, 3)))
    )
    assert err < 1e-3


# ---------------------------------------------------------------------------
# adversarial baseline

def test_dann_loss_is_ln2_for_uninformative_classifier():
    rng = np.random.default_rng(28)
    disc = DomainDiscriminator(4, 8, rng)
    for p in disc.params.values():
        p.data[:] = 0.0  # logits 0 -> probability 0.5 everywhere
    c_s, c_t = Tensor(rng.normal(size=(6, 4))), Tensor(rng.normal(size=(5, 4)))
    assert float(dann_loss(c_s, c_t, disc, 0.2).data) == pytest.approx(math.log(2.0), rel=1e-12)


@pytest.mark.parametrize("bias", [-800.0, 800.0])
def test_dann_loss_is_finite_for_saturated_logits(bias):
    """At logits near -800 or +800 the sigmoid rounds to 0 or 1, where
    log(sigmoid(z)) is -inf; the loss is about 800 per misclassified row,
    and every gradient stays finite."""
    rng = np.random.default_rng(31)
    disc = DomainDiscriminator(4, 8, rng)
    disc.params["disc.2.b"].data[:] = bias
    c_s = Tensor(rng.normal(size=(6, 4)), requires_grad=True)
    c_t = Tensor(rng.normal(size=(5, 4)), requires_grad=True)
    loss = dann_loss(c_s, c_t, disc, 0.2)
    wrong = 6 if bias < 0 else 5  # source rows are labelled 1, target rows 0
    assert float(loss.data) == pytest.approx(800.0 * wrong / 11, rel=0.01)
    backward(loss)
    for grad in (c_s.grad, c_t.grad, *(p.grad for p in disc.params.values())):
        assert np.isfinite(grad).all()
    assert np.abs((c_s if bias < 0 else c_t).grad).max() > 0  # the misclassified stream


def test_dann_extractor_gradient_is_reversed_and_scaled():
    rng = np.random.default_rng(29)
    disc = DomainDiscriminator(4, 8, rng)
    cs_data = rng.normal(size=(6, 4))
    ct_data = rng.normal(loc=1.5, size=(6, 4))
    weight = 0.2

    def extractor_grad(reversal):
        c_s = Tensor(cs_data.copy(), requires_grad=True)
        c_t = Tensor(ct_data.copy(), requires_grad=True)
        if reversal:
            loss = dann_loss(c_s, c_t, disc, weight)
        else:  # plain classifier loss without the reversal layer
            z_s, z_t = disc.logits(c_s), disc.logits(c_t)
            n = 12
            loss = ad.scale(
                ad.add(
                    ad.scale(ad.tsum(log(ad.sigmoid(z_s))), -1.0),
                    ad.scale(ad.tsum(log(ad.sigmoid(ad.scale(z_t, -1.0)))), -1.0),
                ),
                1.0 / n,
            )
        backward(loss)
        return c_s.grad.copy()

    np.testing.assert_allclose(
        extractor_grad(True), -weight * extractor_grad(False), atol=1e-12
    )


def test_dann_discriminator_learns_separable_clusters():
    rng = np.random.default_rng(30)
    disc = DomainDiscriminator(2, 16, rng)
    c_s = Tensor(rng.normal(loc=+2.0, scale=0.3, size=(32, 2)))
    c_t = Tensor(rng.normal(loc=-2.0, scale=0.3, size=(32, 2)))
    initial = float(dann_loss(c_s, c_t, disc, 1.0).data)
    for _ in range(300):
        loss = dann_loss(c_s, c_t, disc, 1.0)
        backward(loss)
        for p in disc.params.values():
            p.data = p.data - 0.1 * p.grad
            p.grad = None
    final = float(dann_loss(c_s, c_t, disc, 1.0).data)
    assert final < 0.1 < math.log(2.0) < initial + 1.0
    assert final < initial


def test_discriminator_logits_equal_the_composed_oracle():
    """The one `mlp` node gives the values and input gradients, bit for bit,
    of relu(linear) followed by linear."""
    rng = np.random.default_rng(32)
    disc = DomainDiscriminator(4, 8, rng)
    x_data, g = rng.normal(size=(6, 4)), rng.normal(size=(6, 1))

    def run(logits_fn):
        x = Tensor(x_data.copy(), requires_grad=True)
        params = {k: Tensor(p.data.copy(), requires_grad=True) for k, p in disc.params.items()}
        out = logits_fn(x, params)
        backward(ad.tsum(ad.mul(out, Tensor(g))))
        return out.data, [x.grad, *(p.grad for p in params.values())]

    def fused(x, params):
        disc.params = params
        return disc.logits(x)

    def composed(x, p):
        h = ad.relu(ad.linear(x, p["disc.1.W"], p["disc.1.b"]))
        return ad.linear(h, p["disc.2.W"], p["disc.2.b"])

    (value, grads), (want_value, want_grads) = run(fused), run(composed)
    np.testing.assert_array_equal(value, want_value)
    for got, want in zip(grads, want_grads):
        np.testing.assert_array_equal(got, want)


def test_dann_discriminator_gradient_check():
    """The discriminator-side path is VJP-faithful (reversal only affects the
    upstream features), so it must pass finite differences."""
    rng = np.random.default_rng(31)
    disc = DomainDiscriminator(3, 8, rng)
    c_s = Tensor(rng.normal(size=(5, 3)))
    c_t = Tensor(rng.normal(size=(4, 3)))
    name = "disc.1.W"
    original = disc.params[name]

    def f(w):
        disc.params[name] = w
        try:
            return dann_loss(c_s, c_t, disc, 0.2)
        finally:
            disc.params[name] = original

    assert grad_check(f, Tensor(original.data), eps=1e-5) < 1e-3


# ---------------------------------------------------------------------------
# composite assembly

def unit_part():
    return Tensor(np.array(1.0))


def test_composite_before_gate_is_exactly_rul():
    rul = Tensor(np.array(0.123))
    weights = variant_weights("lamanet")
    assert not any(evaluates_term(name, weights, 0) for name in TERM_WEIGHTS)
    assert composite_loss(rul, {}, weights) is rul  # no term was built or added


def test_composite_with_zero_weights_equals_rul():
    rul = Tensor(np.array(0.7))
    weights = LossWeights(lambda_m=0.0, lambda_r=0.0, lambda_s=0.0)
    assert [name for name in TERM_WEIGHTS if evaluates_term(name, weights, 200)] == [
        "adversarial"]
    terms = {"discrepancy": unit_part(), "recon": unit_part(), "smooth": unit_part()}
    assert float(composite_loss(rul, terms, weights).data) == pytest.approx(0.7)


def test_composite_table_weight_arithmetic():
    """Unit part losses with the selected weights: recon and smooth each carry
    a source and a target term (2.0 apiece), so 1 + 0.35 + 0.4 + 0.7 = 2.45."""
    terms = {
        "discrepancy": unit_part(),
        "recon": Tensor(np.array(2.0)),
        "smooth": Tensor(np.array(2.0)),
    }
    value = float(composite_loss(unit_part(), terms, variant_weights("lamanet")).data)
    assert value == pytest.approx(2.45, rel=1e-12)


def test_composite_rejects_negative_weights_and_iterations():
    with pytest.raises(ValueError):
        replace(variant_weights("lamanet"), lambda_m=-0.1)
    with pytest.raises(ValueError, match="iteration must be non-negative"):
        evaluates_term("discrepancy", variant_weights("lamanet"), -1)


def test_loss_weights_have_no_default_lambdas():
    """A variant's λs come only from `VARIANT_TERMS`, never from field defaults."""
    with pytest.raises(TypeError, match="lambda_m"):
        LossWeights()
    weights = LossWeights(lambda_m=0.1, lambda_r=0.2, lambda_s=0.3)
    assert (weights.gamma_noise, weights.da_start_iteration) == (0.1, 200)


def test_composite_rejects_an_unknown_term():
    with pytest.raises(ValueError, match=r"unknown loss terms \['mmd'\]"):
        composite_loss(unit_part(), {"discrepancy": unit_part(), "mmd": unit_part()},
                       variant_weights("lamanet"))


def test_composite_records_term_values(monkeypatch):
    """The step logs the label loss and each evaluated term at its value."""
    monkeypatch.setattr(training, "rul_mse", lambda y_hat, y: unit_part())
    monkeypatch.setattr(training, "latent_mmd", lambda *args: Tensor(np.array(3.0)))
    config = training.make_run_config("a", "b", "mmd", window=16, batch_size=8, seeds=(1,),
                                      model=toy_model_config(), da_start=0)
    rng = np.random.default_rng(0)
    src_X, tgt_X = rng.normal(size=(2, 4, 8, 16))
    record = training.train_step(training.init_state(config, 1), src_X, np.zeros((4, 1)), tgt_X)
    assert {k: record[k] for k in ("rul", "discrepancy")} == {"rul": 1.0, "discrepancy": 3.0}
    assert set(record) == {"iteration", "epoch", "lr", "total", "rul", "discrepancy"}
