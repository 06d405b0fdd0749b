"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s`.  Criterion 8 (the
directional check at benchmark-layout scale) takes tens of minutes and is
gated behind RULADAPT_RUN_SLOW=1; everything else completes in a few
minutes on a laptop-class CPU.

When the original benchmark archive is not available (no RULADAPT_DATA_DIR)
the data-dependent criteria run against bundled synthetic files that follow
the exact flat layout and published trajectory counts; the printed PASS
lines state which data source was used.
"""

import math
import os
import time
from dataclasses import replace

import numpy as np
import pytest

from ruladapt import autodiff as ad
from ruladapt.autodiff import Tensor, no_grad
from ruladapt.data import (
    SOURCE,
    TARGET,
    build_domain_dataset,
    parse_cmapss,
    stack_windows,
    subset_paths,
)
from ruladapt.evaluation import evaluate_target, rmse, score, predict_scaled
from ruladapt.losses import (
    KernelSpec,
    composite_loss,
    latent_mmd,
    mmd2,
    recon_loss,
    rul_mse,
    smooth_loss,
)
from ruladapt.model import Model, desk_model_config, toy_model_config
from ruladapt.synthetic import generate_subset
from ruladapt.training import (
    init_state, make_run_config, run_single_seed, train, variant_weights,
)

from gradtools import flat_loss_fn, grad_check, split_flat
from helpers import denormalize, fit_normalization, make_toy_domains, normalize, tiny_model_config
from oracles import div, exp, log, pairwise_sqdist, rul_label, sqrt
from windowing import make_windows

GRU_SHAPES = ((2, 2), (2, 3), (3, 6), (2, 6), (6,), (2,), (2, 3), (3,))
# single_query_attention inputs q, memory, w_k, w_v, b_v
SQA_SHAPES = ((2, 1, 4), (2, 3, 5), (5, 4), (5, 4), (4,))
# mlp inputs x, w1, b1, w2, b2 (in 4, hidden 5, out 2)
MLP_SHAPES = ((3, 4), (4, 5), (5,), (5, 2), (2,))
RUN_SLOW = os.environ.get("RULADAPT_RUN_SLOW", "") not in ("", "0")


def _report(criterion: int, detail: str) -> None:
    print(f"\nACCEPTANCE {criterion}: PASS - {detail}")


# ---------------------------------------------------------------------------
# 1. gradient fidelity


def test_criterion_1_gradient_fidelity():
    """Primitive gradients < 1e-6; full composite loss on the tiny config
    (f=4, K=8, batch=4, float64) < 1e-3 relative vs central differences."""
    t0 = time.time()
    rng = np.random.default_rng(0)

    def safe(*shape):
        x = rng.uniform(0.2, 2.0, size=shape)
        return x * rng.choice([-1.0, 1.0], size=shape)

    a = safe(3, 4)
    b = safe(3, 4)
    pos = rng.uniform(0.5, 2.0, size=(3, 4))
    m = rng.uniform(-1, 1, size=(4, 5))
    primitives = {
        "add": (lambda x: ad.tsum(ad.add(x, Tensor(b))), a),
        "sub": (lambda x: ad.tsum(ad.sub(Tensor(b), x)), a),
        "mul": (lambda x: ad.tsum(ad.mul(x, Tensor(b))), a),
        "div": (lambda x: ad.tsum(div(Tensor(b), x)), pos),
        "scale": (lambda x: ad.tsum(ad.scale(x, 2.5)), a),
        "matmul": (lambda x: ad.tsum(ad.matmul(x, Tensor(m))), a),
        "matmul_3d_2d": (
            lambda x: ad.tsum(ad.square(ad.matmul(ad.reshape(x, (2, 3, 2)), Tensor(m[:2])))),
            a,
        ),
        "transpose": (lambda x: ad.tsum(ad.square(ad.transpose(x))), a),
        "reshape": (lambda x: ad.tsum(ad.square(ad.reshape(x, (4, 3)))), a),
        "concat": (lambda x: ad.tsum(ad.square(ad.concat([x, Tensor(b)], 0))), a),
        "slice": (lambda x: ad.tsum(ad.square(x[1:3, 0:2])), a),
        "broadcast": (lambda x: ad.tsum(ad.square(ad.broadcast_to(x, (2, 3, 4)))), a),
        "sum": (lambda x: ad.tsum(ad.square(ad.tsum(x, axis=0))), a),
        "mean": (lambda x: ad.tsum(ad.square(ad.tmean(x, axis=1))), a),
        "exp": (lambda x: ad.tsum(exp(x)), a),
        "log": (lambda x: ad.tsum(log(x)), pos),
        "sqrt": (lambda x: ad.tsum(sqrt(x)), pos),
        "square": (lambda x: ad.tsum(ad.square(x)), a),
        "sigmoid": (lambda x: ad.tsum(ad.sigmoid(x)), a),
        "tanh": (lambda x: ad.tsum(ad.tanh(x)), a),
        "relu": (lambda x: ad.tsum(ad.relu(x)), safe(3, 4)),
        "sqnorm": (lambda x: ad.sqnorm(x), a),
        "add_layer_norm": (
            lambda x: ad.tsum(ad.mul(ad.add_layer_norm(x, Tensor(pos), Tensor(m[:, 0]),
                                                       Tensor(m[:, 1])), Tensor(b))),
            a,
        ),
        # packed [q | k | v] of 3 tokens, width 4, 2 heads
        "self_attention": (
            lambda x: ad.tsum(ad.mul(ad.self_attention(ad.reshape(x, (1, 3, 12)), 2),
                                     Tensor(b.reshape(1, 3, 4)))),
            safe(3, 12),
        ),
        # every input of a 2-head decoder query (n=2, T=3, d_m=5, d=4) in one vector
        "single_query_attention": (
            lambda x: ad.tsum(ad.mul(ad.single_query_attention(*split_flat(x, SQA_SHAPES), 2),
                                     Tensor(b[:2, None, :]))),
            rng.uniform(-1, 1, size=sum(int(np.prod(s)) for s in SQA_SHAPES)),
        ),
        "pairwise_sqdist": (
            lambda x: ad.tsum(ad.square(pairwise_sqdist(x, Tensor(m.T)))),
            safe(3, 4),
        ),
        "linear": (lambda x: ad.tsum(ad.square(ad.linear(x, Tensor(m), Tensor(m[0])))), a),
        # every input of a ReLU MLP packed into one vector
        "mlp": (
            lambda x: ad.tsum(ad.square(ad.mlp(*split_flat(x, MLP_SHAPES)))),
            safe(sum(int(np.prod(s)) for s in MLP_SHAPES)),
        ),
        # every input of a 3-step GRU (n=2, f=3, H=2) packed into one vector
        "gru_sequence": (
            lambda x: ad.tsum(ad.square(ad.gru_sequence(*split_flat(x, GRU_SHAPES), steps=3))),
            rng.uniform(-1, 1, size=sum(int(np.prod(s)) for s in GRU_SHAPES)),
        ),
        # both row sets (3 and 5 rows, width 4) in one vector, sigma^2 fixed
        "rbf_mmd2": (
            lambda x: ad.rbf_mmd2(*split_flat(x, ((3, 4), (5, 4))), lambda D: 2.0),
            rng.uniform(-1, 1, size=32),
        ),
    }
    worst_name, worst = "", 0.0
    for name, (fn, x) in primitives.items():
        err = grad_check(fn, Tensor(x), eps=1e-5)
        assert err < 1e-6, f"primitive {name}: {err:.3e}"
        if err > worst:
            worst_name, worst = name, err

    # full composite loss on the tiny config, every parameter at once
    model = Model(tiny_model_config(), np.random.default_rng(1))
    data_rng = np.random.default_rng(2)
    xs = data_rng.uniform(0, 1, size=(4, 4, 8))
    ys = data_rng.uniform(0, 1, size=(4, 1))
    xt = data_rng.uniform(0, 1, size=(4, 4, 8))
    kernel = KernelSpec(bandwidth_mode="fixed", bandwidth=1.0)
    weights = replace(variant_weights("lamanet"), da_start_iteration=0)

    def build_loss(m: Model):
        xs_t, ys_t, xt_t = Tensor(xs), Tensor(ys), Tensor(xt)
        bs = m.forward(xs_t)
        bt = m.forward(xt_t)
        terms = {
            "discrepancy": latent_mmd(bs.c, bt.c, bs.o, bt.o, kernel),
            "recon": recon_loss(
                xs_t, m.reconstruct(bs.c, xs_t[:, :, 0]),
                xt_t, m.reconstruct(bt.c, xt_t[:, :, 0]),
            ),
            "smooth": ad.add(
                smooth_loss(bs.c, m.predict_from_bottleneck, 0.1, np.random.default_rng(7)),
                smooth_loss(bt.c, m.predict_from_bottleneck, 0.1, np.random.default_rng(8)),
            ),
        }
        return composite_loss(rul_mse(bs.y_hat, ys_t), terms, weights)

    f, x0 = flat_loss_fn(model, build_loss)
    composite_err = grad_check(f, Tensor(x0), eps=1e-5)
    assert composite_err < 1e-3, f"composite: {composite_err:.3e}"

    elapsed = time.time() - t0
    assert elapsed < 120, f"runtime {elapsed:.0f}s exceeds 2 min"
    _report(
        1,
        f"{len(primitives)} primitives < 1e-6 (worst {worst_name} {worst:.2e}); composite over "
        f"{x0.size} parameters {composite_err:.2e} < 1e-3; {elapsed:.0f}s",
    )


# ---------------------------------------------------------------------------
# 2. discrepancy estimator vs brute force


def test_criterion_2_mmd_oracle_equivalence():
    t0 = time.time()

    def double_loop(a, b, sigma):
        k = lambda x, y: math.exp(-float(np.sum((x - y) ** 2)) / (2 * sigma**2))
        n, m = len(a), len(b)
        return (
            sum(k(a[i], a[j]) for i in range(n) for j in range(n)) / n**2
            + sum(k(b[i], b[j]) for i in range(m) for j in range(m)) / m**2
            - 2 * sum(k(a[i], b[j]) for i in range(n) for j in range(m)) / (n * m)
        )

    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(50):
        n, m, d = rng.integers(1, 65), rng.integers(1, 65), rng.integers(1, 17)
        a = rng.normal(size=(n, d))
        b = rng.normal(loc=0.3, size=(m, d))
        sigma = float(rng.uniform(0.5, 3.0))
        spec = KernelSpec(bandwidth_mode="fixed", bandwidth=sigma)
        gap = abs(float(mmd2(Tensor(a), Tensor(b), spec).data) - double_loop(a, b, sigma))
        worst = max(worst, gap)
        assert gap < 1e-10, f"oracle gap {gap:.2e}"

    a = rng.normal(size=(24, 6))
    self_value = abs(float(mmd2(Tensor(a), Tensor(a.copy()), KernelSpec()).data))
    assert self_value <= 1e-9

    hand = float(mmd2(
        Tensor(np.array([[0.0]])), Tensor(np.array([[1.0]])),
        KernelSpec(bandwidth_mode="fixed", bandwidth=1.0),
    ).data)
    expected = 2.0 - 2.0 * math.exp(-0.5)
    assert abs(hand - expected) < 1e-12

    _report(
        2,
        f"50 random pairs within 1e-10 (worst {worst:.1e}); mmd2(A,A)={self_value:.1e}; "
        f"hand case |{hand:.6f}-{expected:.6f}| < 1e-12; {time.time()-t0:.1f}s",
    )


# ---------------------------------------------------------------------------
# 3. metric closed forms


def test_criterion_3_metric_closed_forms():
    t0 = time.time()
    assert score([100.0], [100.0]) == pytest.approx(0.0, abs=1e-12)
    late = score([113.0], [100.0])
    early = score([90.0], [100.0])
    assert late == pytest.approx(math.e - 1.0, abs=1e-12)
    assert early == pytest.approx(math.e - 1.0, abs=1e-12)
    assert rmse([10.0, 20.0], [10.0, 20.0]) == 0.0
    assert rmse([3.0, -4.0], [0.0, 0.0]) == pytest.approx(math.sqrt(12.5), abs=1e-15)
    _report(
        3,
        f"score(0)=0, score(+13)={late:.12f}, score(-10)={early:.12f} "
        f"(= e-1 within 1e-12); rmse hand cases exact; {time.time()-t0:.2f}s",
    )


# ---------------------------------------------------------------------------
# 4. data pipeline


def test_criterion_4_data_pipeline(cmapss_dir):
    t0 = time.time()
    real = bool(os.environ.get("RULADAPT_DATA_DIR"))
    train1, test1, _ = parse_cmapss(*subset_paths(cmapss_dir, "FD001"))
    train2, test2, _ = parse_cmapss(*subset_paths(cmapss_dir, "FD002"))
    assert (len(train1), len(test1)) == (100, 100)
    assert (len(train2), len(test2)) == (260, 259)

    # synthetic trajectories: window counts, label formula, round trip
    rng = np.random.default_rng(3)
    for _ in range(25):
        T = int(rng.integers(1, 220))
        K = int(rng.integers(1, 64))
        tr, _, _ = generate_subset("FD001", 7, n_train=1, n_test=1, length_range=(T, T))
        stats = fit_normalization(tr)
        windows = make_windows(tr[0], K, stats, 125.0)
        assert len(windows) == (T - K + 1 if T >= K else 1)
        for w in windows[:: max(1, len(windows) // 5)]:
            assert w.rul_scaled == min(T - w.end_cycle, 125.0) / 125.0
    assert rul_label(200, 10, 125.0) == 1.0
    assert rul_label(200, 150, 125.0) == pytest.approx(0.4)

    stats = fit_normalization(train1[:10])
    check = np.random.default_rng(4)
    for _ in range(200):
        j = int(check.integers(0, len(stats.minimum)))
        if stats.constant[j]:
            continue
        x = float(check.uniform(stats.minimum[j] - 1, stats.maximum[j] + 1))
        assert abs(denormalize(normalize(x, j, stats), j, stats) - x) < 1e-12 * max(1, abs(x))

    elapsed = time.time() - t0
    assert elapsed < 60
    _report(
        4,
        f"FD001 100/100 and FD002 260/259 trajectories "
        f"({'original archive' if real else 'synthetic files, same layout/counts'}); "
        f"window counts, labels, normalization round-trip verified; {elapsed:.0f}s",
    )


# ---------------------------------------------------------------------------
# 5. gating and determinism


def test_criterion_5_gating_and_determinism():
    t0 = time.time()
    source, target = make_toy_domains(seed=1)
    config = make_run_config(
        "toy-src", "toy-tgt", "lamanet", window=16, epochs=50,
        batch_size=32, rc=60.0, model=toy_model_config(), seeds=(1,),
    )
    assert config.weights.da_start_iteration == 200

    state = init_state(config, 1)
    da_only = [n for n in state.model.params if n.startswith("recon.")]
    frozen = {n: state.model.params[n].data.copy() for n in da_only}

    for stop in range(1, 201):  # one step per call, so every step's gradients are probed
        train(state, source, target, max_iterations=stop)
        for name in da_only:
            g = state.model.params[name].grad
            assert g is None or not np.any(g), f"{name} gradient nonzero at {state.iteration}"
    assert state.iteration == 200
    for name in da_only:
        g = state.model.params[name].grad
        assert g is None or not np.any(g)
        # untouched values plus exactly-zero Adam moments certify that no
        # step in 0..199 ever produced a gradient for these parameters
        np.testing.assert_array_equal(state.model.params[name].data, frozen[name])
        assert not np.any(state.adam.m[name]) and not np.any(state.adam.v[name])

    def ten_losses():
        st = init_state(config, 1)
        train(st, source, target, max_iterations=10)
        return [r["total"] for r in st.history]

    first, second = ten_losses(), ten_losses()
    assert first == second  # exact float equality = bitwise in IEEE754

    elapsed = time.time() - t0
    assert elapsed < 120
    _report(
        5,
        f"adaptation-only parameters exactly frozen through iteration 200; "
        f"two seed-1 runs bitwise-identical over 10 steps; {elapsed:.0f}s",
    )


# ---------------------------------------------------------------------------
# 6. synthetic adaptation smoke


def test_criterion_6_synthetic_da_smoke():
    t0 = time.time()
    source, target = make_toy_domains(seed=1)

    def source_train_rmse(model):
        pred = predict_scaled(model, source.train_windows)
        truth = np.array([w.rul_scaled for w in source.train_windows])
        return rmse(pred, truth)

    def bottleneck_mmd(model):
        n = min(256, len(source.train_windows), len(target.train_windows))
        xs, _ = stack_windows(source.train_windows, range(n))
        xt, _ = stack_windows(target.train_windows, range(n))
        with no_grad():
            cs = model.forward(xs).c
            ct = model.forward(xt).c
        return float(mmd2(cs, ct, KernelSpec()).data)

    results = {}
    for variant in ("lamanet", "no_da"):
        config = make_run_config(
            "toy-src", "toy-tgt", variant, window=16, epochs=50,
            batch_size=32, rc=60.0, model=toy_model_config(), seeds=(1,),
        )
        state = init_state(config, 1)
        initial = source_train_rmse(state.model)
        train(state, source, target, max_iterations=500)
        results[variant] = {
            "initial": initial,
            "final": source_train_rmse(state.model),
            "mmd": bottleneck_mmd(state.model),
        }

    for variant, r in results.items():
        drop = 1.0 - r["final"] / r["initial"]
        assert drop >= 0.5, f"{variant}: source RMSE fell only {100*drop:.0f}%"
    assert results["lamanet"]["mmd"] < results["no_da"]["mmd"]

    elapsed = time.time() - t0
    assert elapsed < 300
    _report(
        6,
        "source train RMSE drop {:.0f}% (aligned) / {:.0f}% (plain) >= 50%; final "
        "bottleneck mmd2 {:.2e} (aligned) < {:.2e} (plain); {:.0f}s".format(
            100 * (1 - results["lamanet"]["final"] / results["lamanet"]["initial"]),
            100 * (1 - results["no_da"]["final"] / results["no_da"]["initial"]),
            results["lamanet"]["mmd"], results["no_da"]["mmd"], elapsed,
        ),
    )


# ---------------------------------------------------------------------------
# 7. ablation direction


def test_criterion_7_ablation_direction():
    t0 = time.time()
    source, target = make_toy_domains(seed=1)
    means = {}
    raw = {}
    for label, overrides in (
        ("mmd", dict(lambda_r=0.0, lambda_s=0.0)),
        ("mmd_ae", dict(lambda_s=0.0)),
    ):
        rmses = []
        for seed in (1, 123074, 2457):
            config = make_run_config(
                "toy-src", "toy-tgt", "lamanet", window=16, epochs=50,
                batch_size=32, rc=60.0, model=toy_model_config(), seeds=(seed,),
            )
            config = replace(config, weights=replace(config.weights, **overrides))
            state = init_state(config, seed)
            train(state, source, target, max_iterations=500)
            r, _ = evaluate_target(state.model, target, config.rc)
            rmses.append(r)
        means[label] = float(np.mean(rmses))
        raw[label] = rmses

    assert means["mmd_ae"] <= means["mmd"], (
        f"direction violated: MMD+AE {means['mmd_ae']:.3f} > MMD {means['mmd']:.3f} "
        f"(raw: {raw})"
    )
    elapsed = time.time() - t0
    assert elapsed < 900
    _report(
        7,
        f"mean target RMSE over 3 seeds: MMD+AE {means['mmd_ae']:.3f} <= MMD "
        f"{means['mmd']:.3f} (raw mmd={[f'{r:.2f}' for r in raw['mmd']]}, "
        f"mmd_ae={[f'{r:.2f}' for r in raw['mmd_ae']]}); {elapsed:.0f}s",
    )


# ---------------------------------------------------------------------------
# 8. benchmark-layout directional check (slow, optional)


@pytest.mark.slow
@pytest.mark.skipif(not RUN_SLOW, reason="set RULADAPT_RUN_SLOW=1 to run (up to ~1h)")
def test_criterion_8_desk_scale_directional(cmapss_dir, tmp_path):
    t0 = time.time()
    train2, test2, truth2 = parse_cmapss(*subset_paths(cmapss_dir, "FD002"))
    train1, test1, truth1 = parse_cmapss(*subset_paths(cmapss_dir, "FD001"))
    source = build_domain_dataset(
        train2, test2, truth2, subset="FD002", role=SOURCE, window=40, rc=125.0,
        val_seed=42, val_fraction=0.1,
    )
    target = build_domain_dataset(
        train1, test1, truth1, subset="FD001", role=TARGET, window=40, rc=125.0,
        val_seed=42, val_fraction=0.1,
    )

    seeds = (1, 123074, 2457)
    rmses = {"lamanet": [], "no_da": []}
    for variant in ("no_da", "lamanet"):
        for seed in seeds:
            config = make_run_config(
                "FD002", "FD001", variant, window=40, epochs=10,
                batch_size=128, model=desk_model_config(), seeds=(seed,),
            )
            result = run_single_seed(config, seed, source, target,
                                     run_dir=tmp_path / variant / str(seed), write_latents=False)
            rmses[variant].append(result["rmse"])
            print(
                f"  {variant} seed {seed}: target rmse {result['rmse']:.2f} "
                f"({time.time()-t0:.0f}s)", flush=True,
            )

    wins = sum(l < n for l, n in zip(rmses["lamanet"], rmses["no_da"]))
    assert wins >= 2, f"adapted won only {wins}/3 seeds: {rmses}"
    elapsed = time.time() - t0
    assert elapsed <= 3600
    _report(
        8,
        f"adapted variant beat no-adaptation in {wins}/3 seeds "
        f"(adapted={[f'{r:.1f}' for r in rmses['lamanet']]}, "
        f"plain={[f'{r:.1f}' for r in rmses['no_da']]}); {elapsed/60:.0f} min",
    )


# ---------------------------------------------------------------------------
# 9. score overflow handling


def test_criterion_9_score_overflow(cmapss_dir):
    t0 = time.time()
    train1, test1, truth1 = parse_cmapss(*subset_paths(cmapss_dir, "FD001"))
    target = build_domain_dataset(
        train1, test1, truth1, subset="FD001", role=TARGET, window=40, rc=125.0,
        val_seed=42, val_fraction=0.1,
    )
    truth_cycles = np.minimum(target.test_rul_truth, 125.0)
    terrible = np.full_like(truth_cycles, 1.0e6)  # absurdly late predictions
    value = score(terrible, truth_cycles)
    assert math.isinf(value)  # flagged, not an exception

    big_but_real = np.full_like(truth_cycles, 800.0)
    finite_value = score(big_but_real, truth_cycles)
    assert math.isfinite(finite_value) and finite_value > 1e20

    elapsed = time.time() - t0
    assert elapsed < 60
    _report(
        9,
        f"overflowing predictor flagged as inf without abort; 800-cycle-late "
        f"predictor scores finite {finite_value:.2e}; {elapsed:.1f}s",
    )
