"""Domain-alignment and regularization losses.

The discrepancy term is the biased squared-MMD estimator with an RBF kernel
k(x, y) = exp(-||x - y||^2 / (2 sigma^2)); in median-heuristic mode
2 sigma^2 is set to the median of the pooled pairwise squared distances of
the concatenated batch, recomputed per call and treated as a constant with
respect to gradients.  Baseline alternatives (covariance alignment, an
adversarial domain classifier behind a gradient-reversal layer) share the
same calling conventions so the trainer can swap them per variant.  The
trainer builds only the terms that `evaluates_term` passes, and
`composite_loss` adds them to the label loss as a weighted sum.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .model import _xavier
from .serialization import check_fields


@dataclass(frozen=True)
class KernelSpec:
    family: str = "rbf"
    bandwidth_mode: str = "median_heuristic"  # or "fixed"
    bandwidth: float | None = None  # sigma, used in fixed mode

    RULES = (
        ("family", str, lambda v: v == "rbf", "be 'rbf'"),
        ("bandwidth_mode", str, lambda v: v in ("median_heuristic", "fixed"),
         "be 'median_heuristic' or 'fixed'"),
        ("bandwidth", float, lambda v: v > 0, "be > 0"),
    )

    def __post_init__(self):
        check_fields(self, self.RULES)
        if self.bandwidth_mode == "fixed" and self.bandwidth is None:
            raise ValueError("fixed mode requires a bandwidth")


@dataclass(frozen=True)
class LossWeights:
    lambda_m: float = 0.35
    lambda_r: float = 0.2
    lambda_s: float = 0.35
    gamma_noise: float = 0.1
    da_start_iteration: int = 200

    RULES = (("lambda_m lambda_r lambda_s gamma_noise", float, lambda v: v >= 0, "be >= 0"),
             ("da_start_iteration", int, lambda v: v >= 0, "be >= 0"))

    def __post_init__(self):
        check_fields(self, self.RULES)


def rul_mse(y_hat: Tensor, y: Tensor) -> Tensor:
    """(1/N) sum of squared label errors over the source batch."""
    if y_hat.shape != y.shape:
        raise ValueError(f"shape mismatch {y_hat.shape} vs {y.shape}")
    if y_hat.data.size == 0:
        raise ValueError("empty batch")
    return ad.tmean(ad.square(ad.sub(y_hat, y)))


def _sigma_sq(sqdists: np.ndarray, n_total: int, spec: KernelSpec) -> float:
    if spec.bandwidth_mode == "fixed":
        return float(spec.bandwidth) ** 2
    off_diag = sqdists[~np.eye(n_total, dtype=bool)]
    median = float(np.median(off_diag)) if off_diag.size else 0.0
    if median <= 0.0:
        return 0.5  # degenerate batch (all rows identical); 2 sigma^2 = 1
    return 0.5 * median


def mmd2(a: Tensor, b: Tensor, spec: KernelSpec) -> Tensor:
    """Biased squared-MMD estimate between row sets a (n, d) and b (m, d).

    Computed from a single pairwise-squared-distance matrix over the
    concatenated batch:
      (1/n^2) sum k(a_i, a_j) + (1/m^2) sum k(b_i, b_j) - (2/nm) sum k(a_i, b_j).
    Differentiable w.r.t. both inputs; the bandwidth is a constant.
    """
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[1]:
        raise ValueError(f"row sets must share width, got {a.shape} and {b.shape}")
    n, m = a.shape[0], b.shape[0]
    if n < 1 or m < 1:
        raise ValueError("both sample sets must be non-empty")
    z = ad.concat([a, b], axis=0)
    sqd = ad.pairwise_sqdist(z, z)
    sigma_sq = _sigma_sq(sqd.data, n + m, spec)
    k = ad.exp(ad.scale(sqd, -0.5 / sigma_sq))
    k_aa = ad.tsum(k[:n, :n])
    k_bb = ad.tsum(k[n:, n:])
    k_ab = ad.tsum(k[:n, n:])
    return ad.add(
        ad.add(ad.scale(k_aa, 1.0 / (n * n)), ad.scale(k_bb, 1.0 / (m * m))),
        ad.scale(k_ab, -2.0 / (n * m)),
    )


def latent_mmd(c_s: Tensor, c_t: Tensor, o_s: Tensor, o_t: Tensor, spec: KernelSpec) -> Tensor:
    """Sum of the bottleneck-level and pre-head-level discrepancies."""
    if c_s.shape[1] != c_t.shape[1] or o_s.shape[1] != o_t.shape[1]:
        raise ValueError("latent widths differ between the two streams")
    return ad.add(mmd2(c_s, c_t, spec), mmd2(o_s, o_t, spec))


def recon_loss(x_s: Tensor, x_hat_s: Tensor, x_t: Tensor, x_hat_t: Tensor) -> Tensor:
    """Elementwise MSE over source windows plus the same over target windows."""
    if x_s.shape != x_hat_s.shape or x_t.shape != x_hat_t.shape:
        raise ValueError("reconstruction shapes do not match inputs")
    return ad.add(
        ad.tmean(ad.square(ad.sub(x_s, x_hat_s))),
        ad.tmean(ad.square(ad.sub(x_t, x_hat_t))),
    )


def smooth_loss(
    c: Tensor,
    predict_fn: Callable[[Tensor], Tensor],
    gamma_noise: float,
    rng: np.random.Generator,
    *,
    clean: Tensor | None = None,
) -> Tensor:
    """Per-sample squared prediction change under a Gaussian bottleneck
    perturbation: (1/N) ||F(C) - F(C + gamma * delta)||^2, fresh delta each
    call; gradients flow through both branches.  `clean` is F(C) when the
    caller already has it (the forward pass's prediction); otherwise it is
    computed here."""
    delta = rng.standard_normal(size=c.shape)
    perturbed = ad.add(c, ad.constant(gamma_noise * delta))
    if clean is None:
        clean = predict_fn(c)
    diff = ad.sub(clean, predict_fn(perturbed))
    return ad.scale(ad.sqnorm(diff), 1.0 / c.shape[0])


def coral_loss(o_s: Tensor, o_t: Tensor) -> Tensor:
    """Frobenius gap between the two feature covariances, scaled by 1/(4 d^2)."""
    if o_s.shape[0] < 2 or o_t.shape[0] < 2:
        raise ValueError("covariance alignment needs at least 2 samples per domain")
    if o_s.shape[1] != o_t.shape[1]:
        raise ValueError("feature widths differ")
    d = o_s.shape[1]

    def cov(x: Tensor) -> Tensor:
        centered = ad.sub(x, ad.tmean(x, axis=0, keepdims=True))
        return ad.scale(ad.matmul(ad.transpose(centered), centered), 1.0 / (x.shape[0] - 1))

    gap = ad.sub(cov(o_s), cov(o_t))
    return ad.scale(ad.sqnorm(gap), 1.0 / (4.0 * d * d))


class DomainDiscriminator:
    """Two-layer feed-forward binary domain classifier on the bottleneck,
    initialised like the model's affine maps and run as one `mlp` node."""

    def __init__(self, in_dim: int, hidden: int, rng: np.random.Generator):
        self.params = {
            "disc.1.W": Tensor(_xavier(rng, in_dim, hidden), requires_grad=True),
            "disc.1.b": Tensor(np.zeros(hidden), requires_grad=True),
            "disc.2.W": Tensor(_xavier(rng, hidden, 1), requires_grad=True),
            "disc.2.b": Tensor(np.zeros(1), requires_grad=True),
        }

    def logits(self, x: Tensor) -> Tensor:
        p = self.params
        return ad.mlp(x, p["disc.1.W"], p["disc.1.b"], p["disc.2.W"], p["disc.2.b"])


def dann_loss(
    c_s: Tensor,
    c_t: Tensor,
    discriminator: DomainDiscriminator,
    reversal_weight: float,
) -> Tensor:
    """Binary cross-entropy of domain prediction (source=1, target=0), taken
    with `log_sigmoid` so that it stays finite for any finite logit.

    The bottleneck inputs pass through a gradient-reversal layer, so the
    discriminator trains to separate domains while the feature path receives
    the sign-flipped gradient scaled by `reversal_weight`.
    """
    z_s = discriminator.logits(ad.grad_reverse(c_s, reversal_weight))
    z_t = discriminator.logits(ad.grad_reverse(c_t, reversal_weight))
    n_total = c_s.shape[0] + c_t.shape[0]
    nll_s = ad.scale(ad.tsum(ad.log_sigmoid(z_s)), -1.0)
    nll_t = ad.scale(ad.tsum(ad.log_sigmoid(ad.scale(z_t, -1.0))), -1.0)
    return ad.scale(ad.add(nll_s, nll_t), 1.0 / n_total)


# Weight field of each adaptation term, in the order composite_loss adds
# them; the adversarial term (added last) carries its weight inside the
# reversal layer, so it enters with coefficient 1.
TERM_WEIGHTS = {"discrepancy": "lambda_m", "recon": "lambda_r", "smooth": "lambda_s",
                "adversarial": None}


def evaluates_term(name: str, weights: LossWeights, iteration: int) -> bool:
    """Whether a step at `iteration` evaluates the adaptation term `name`:
    the gate is open and the term's weight is positive."""
    if iteration < 0:
        raise ValueError("iteration must be non-negative")
    if iteration < weights.da_start_iteration:
        return False
    field = TERM_WEIGHTS[name]
    return field is None or getattr(weights, field) > 0


def composite_loss(rul: Tensor, terms: dict[str, Tensor], weights: LossWeights) -> Tensor:
    """The label loss plus the weighted sum of the evaluated `terms`, added in
    `TERM_WEIGHTS` order; with no terms it is `rul` itself."""
    unknown = sorted(set(terms) - set(TERM_WEIGHTS))
    if unknown:
        raise ValueError(f"unknown loss terms {unknown}; options: {list(TERM_WEIGHTS)}")
    total = rul
    for name, field in TERM_WEIGHTS.items():
        if name in terms:
            term = terms[name] if field is None else ad.scale(terms[name], getattr(weights, field))
            total = ad.add(total, term)
    return total
