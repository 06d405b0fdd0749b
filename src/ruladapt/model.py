"""Twin-stream attention network with a shared parameter set.

One parameter dictionary serves both domain streams (weight tying is
structural: the same tensors are used for every forward pass).  The encoder
attends over the sensor axis and the time axis separately, fuses both token
streams, and flattens to the latent width M; a two-layer feed-forward
squeeze compresses M to the bottleneck B and a mirrored expand restores M.
A single cross-attention decoder layer with one learned query produces the
pre-head representation, and a small recurrent decoder (GRU by default)
reconstructs the input window from the bottleneck as one
`recurrent_sequence` node, whatever its cell.  Attention runs as the fused
`self_attention` (encoder) and `single_query_attention` (decoder) nodes,
each residual add + layer norm as one `add_layer_norm`, each ReLU MLP as
one `mlp`.  No attention has a key bias: it would cancel in the softmax.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .serialization import check_fields


# The recurrent decoder's gates, in the order their weights are drawn and
# stacked: one column block of `recon.cell.w_i`, `w_h` and `b_i` each.
RECURRENT_GATES = {"gru": "zrn", "lstm": "ifgo", "rnn": "h"}


@dataclass(frozen=True)
class ModelConfig:
    n_features: int = 24
    window: int = 40
    attn_dim: int = 32
    n_heads: int = 4
    n_encoder_layers: int = 3
    n_decoder_layers: int = 1
    ffn_dim: int = 128
    squeeze_hidden: int = 500
    bottleneck: int = 200
    head_dim: int = 32
    recon_cell: str = "gru"  # gru | lstm | rnn
    recon_hidden: int = 1

    RULES = (
        ("n_features", int, lambda v: v >= 0, "be >= 0"),  # RunConfig reports an empty mask
        ("window attn_dim n_heads n_encoder_layers n_decoder_layers ffn_dim squeeze_hidden "
         "bottleneck head_dim recon_hidden", int, lambda v: v >= 1, "be >= 1"),
        ("recon_cell", str, lambda v: v in RECURRENT_GATES, "be 'gru', 'lstm' or 'rnn'"),
    )

    def __post_init__(self):
        check_fields(self, self.RULES)
        if self.attn_dim % self.n_heads:
            raise ValueError("attn_dim must be divisible by n_heads")
        if self.bottleneck >= self.latent_dim:
            raise ValueError(
                f"bottleneck {self.bottleneck} must be smaller than the "
                f"latent width {self.latent_dim}"
            )

    @property
    def latent_dim(self) -> int:
        """Flattened fused-token width M = (f + K) * attn_dim."""
        return (self.n_features + self.window) * self.attn_dim


def toy_model_config(n_features: int = 8, window: int = 16) -> ModelConfig:
    """Shrunk dims used by --toy runs: f=8, K=16, width-8 attention."""
    return ModelConfig(
        n_features=n_features, window=window, attn_dim=8, n_heads=2,
        n_encoder_layers=2, n_decoder_layers=1, ffn_dim=32,
        squeeze_hidden=32, bottleneck=16, head_dim=8,
    )


def desk_model_config(n_features: int = 24, window: int = 40) -> ModelConfig:
    """Reduced-width encoder for desk-scale directional runs on real-layout data."""
    return ModelConfig(
        n_features=n_features, window=window, attn_dim=16, n_heads=2,
        n_encoder_layers=2, n_decoder_layers=1, ffn_dim=32,
        squeeze_hidden=64, bottleneck=32, head_dim=16,
    )


@dataclass
class LatentBundle:
    """Per-batch forward products: encoder latent E, bottleneck C, expanded
    latent, pre-head representation O and the prediction."""

    e: Tensor
    c: Tensor
    e_tilde: Tensor
    o: Tensor
    y_hat: Tensor


def _xavier(rng, fan_in: int, fan_out: int) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out))


class Model:
    """Shared-weight network; parameters live in an ordered name -> Tensor map."""

    def __init__(self, config: ModelConfig, rng: np.random.Generator):
        self.config = config
        self.params: dict[str, Tensor] = {}
        self._build(rng)

    # -- parameter construction -------------------------------------------
    def _add(self, name: str, value: np.ndarray) -> None:
        self.params[name] = Tensor(np.asarray(value, dtype=np.float64), requires_grad=True)

    def _add_affine(self, name: str, fan_in: int, fan_out: int, rng) -> None:
        self._add(f"{name}.W", _xavier(rng, fan_in, fan_out))
        self._add(f"{name}.b", np.zeros(fan_out))

    def _add_attention_block(self, prefix: str, rng) -> None:
        """Everything after the q/k/v projections, which the caller adds
        first so the draw order stays q, k, v, o, ffn."""
        d, ffn = self.config.attn_dim, self.config.ffn_dim
        self._add_affine(f"{prefix}.attn.o", d, d, rng)
        self._add(f"{prefix}.ln1.g", np.ones(d))
        self._add(f"{prefix}.ln1.b", np.zeros(d))
        self._add_affine(f"{prefix}.ffn.1", d, ffn, rng)
        self._add_affine(f"{prefix}.ffn.2", ffn, d, rng)
        self._add(f"{prefix}.ln2.g", np.ones(d))
        self._add(f"{prefix}.ln2.b", np.zeros(d))

    def _build(self, rng) -> None:
        cfg = self.config
        f, K, d = cfg.n_features, cfg.window, cfg.attn_dim
        M, B = cfg.latent_dim, cfg.bottleneck

        self._add_affine("enc.sensor.embed", K, d, rng)
        self._add_affine("enc.time.embed", f, d, rng)
        self._add("enc.time.pos", rng.normal(0.0, 0.02, size=(K, d)))
        for stream in ("sensor", "time"):
            for i in range(cfg.n_encoder_layers):
                prefix = f"enc.{stream}.{i}"  # no key bias: see `_self_attention`
                self._add(f"{prefix}.attn.qkv.W", np.hstack([_xavier(rng, d, d) for _ in "qkv"]))
                self._add(f"{prefix}.attn.q.b", np.zeros(d))
                self._add(f"{prefix}.attn.v.b", np.zeros(d))
                self._add_attention_block(prefix, rng)
        self._add_affine("enc.fusion", d, d, rng)

        self._add_affine("squeeze.1", M, cfg.squeeze_hidden, rng)
        self._add_affine("squeeze.2", cfg.squeeze_hidden, B, rng)
        self._add_affine("expand.1", B, cfg.squeeze_hidden, rng)
        self._add_affine("expand.2", cfg.squeeze_hidden, M, rng)

        self._add("dec.query", rng.normal(0.0, 0.02, size=(1, 1, d)))
        for i in range(cfg.n_decoder_layers):
            self._add_affine(f"dec.{i}.attn.q", d, d, rng)
            self._add(f"dec.{i}.attn.k.W", _xavier(rng, d, d))
            self._add_affine(f"dec.{i}.attn.v", d, d, rng)
            self._add_attention_block(f"dec.{i}", rng)
        self._add_affine("dec.out", d, cfg.head_dim, rng)
        self._add_affine("head", cfg.head_dim, 1, rng)

        h = cfg.recon_hidden
        self._add_affine("recon.init", B, h, rng)
        # drawn gate by gate, stored stacked as `recurrent_sequence` reads them
        gates = RECURRENT_GATES[cfg.recon_cell]
        w_i, w_h = zip(*[(_xavier(rng, f, h), _xavier(rng, h, h)) for _ in gates])
        self._add("recon.cell.w_i", np.hstack(w_i))
        self._add("recon.cell.w_h", np.hstack(w_h))
        self._add("recon.cell.b_i", np.zeros(len(gates) * h))
        if cfg.recon_cell == "gru":
            self._add("recon.cell.b_hn", np.zeros(h))
        self._add_affine("recon.out", h, f, rng)

    # -- small layer helpers ------------------------------------------------
    def _p(self, name: str) -> Tensor:
        return self.params[name]

    def _affine(self, x: Tensor, name: str) -> Tensor:
        return ad.linear(x, self._p(f"{name}.W"), self._p(f"{name}.b"))

    def _add_norm(self, x: Tensor, y: Tensor, name: str) -> Tensor:
        return ad.add_layer_norm(x, y, self._p(f"{name}.g"), self._p(f"{name}.b"))

    def _self_attention(self, x: Tensor, prefix: str) -> Tensor:
        """q, k and v from one GEMM over `attn.qkv.W`, their weights stored
        in column blocks.  A key bias would add the same q . b_k to every
        score of a query and cancel in the softmax, so the model has none
        and a zero block stands in for it."""
        p, zeros = self._p, ad.constant(np.zeros(self.config.attn_dim))
        b = ad.concat([p(f"{prefix}.attn.q.b"), zeros, p(f"{prefix}.attn.v.b")], axis=-1)
        mixed = ad.self_attention(ad.linear(x, p(f"{prefix}.attn.qkv.W"), b), self.config.n_heads)
        return self._affine(mixed, f"{prefix}.attn.o")

    def _query_attention(self, x: Tensor, memory: Tensor, prefix: str) -> Tensor:
        """Key and value maps absorbed; there is no key bias to absorb."""
        k, v = self._p(f"{prefix}.attn.k.W"), self._p(f"{prefix}.attn.v.W")
        q = self._affine(x, f"{prefix}.attn.q")
        mixed = ad.single_query_attention(
            q, memory, k, v, self._p(f"{prefix}.attn.v.b"), self.config.n_heads)
        return self._affine(mixed, f"{prefix}.attn.o")

    def _mlp(self, x: Tensor, first: str, second: str) -> Tensor:
        """Two affine maps around a ReLU, one `mlp` node."""
        p = self._p
        return ad.mlp(x, p(f"{first}.W"), p(f"{first}.b"), p(f"{second}.W"), p(f"{second}.b"))

    def _block(self, x: Tensor, attended: Tensor, prefix: str) -> Tensor:
        """Post-norm residual block around an attention output."""
        x = self._add_norm(x, attended, f"{prefix}.ln1")
        ffn = self._mlp(x, f"{prefix}.ffn.1", f"{prefix}.ffn.2")
        return self._add_norm(x, ffn, f"{prefix}.ln2")

    # -- public forward pieces ----------------------------------------------
    def encode(self, X: Tensor) -> Tensor:
        """(n, f, K) windows -> (n, M) latent via sensor-axis and time-axis
        self-attention stacks fused into one token sequence."""
        cfg = self.config
        n = X.shape[0]
        sensor = self._affine(X, "enc.sensor.embed")  # tokens = sensors
        time = ad.add(
            self._affine(ad.transpose(X, (0, 2, 1)), "enc.time.embed"),
            self._p("enc.time.pos"),
        )
        for i in range(cfg.n_encoder_layers):
            s, t = f"enc.sensor.{i}", f"enc.time.{i}"
            sensor = self._block(sensor, self._self_attention(sensor, s), s)
            time = self._block(time, self._self_attention(time, t), t)
        fused = self._affine(ad.concat([sensor, time], axis=1), "enc.fusion")
        return ad.reshape(fused, (n, cfg.latent_dim))

    def squeeze(self, e: Tensor) -> Tensor:
        return ad.relu(self._mlp(e, "squeeze.1", "squeeze.2"))

    def expand(self, c: Tensor) -> Tensor:
        return ad.relu(self._mlp(c, "expand.1", "expand.2"))

    def decode_predict(self, e_tilde: Tensor) -> tuple[Tensor, Tensor]:
        """Expanded latent -> (O, Y_hat); one learned query cross-attends over
        the latent reshaped back into its token sequence."""
        cfg = self.config
        n = e_tilde.shape[0]
        memory = ad.reshape(e_tilde, (n, cfg.n_features + cfg.window, cfg.attn_dim))
        x = ad.broadcast_to(self._p("dec.query"), (n, 1, cfg.attn_dim))
        for i in range(cfg.n_decoder_layers):
            x = self._block(x, self._query_attention(x, memory, f"dec.{i}"), f"dec.{i}")
        o = self._affine(ad.reshape(x, (n, cfg.attn_dim)), "dec.out")
        y_hat = ad.sigmoid(self._affine(o, "head"))
        return o, y_hat

    def reconstruct(self, c: Tensor, x_first: Tensor) -> Tensor:
        """Unroll the recurrent decoder K steps from the bottleneck-derived
        hidden state, auto-regressively fed from the window's first frame."""
        cfg, p = self.config, self._p
        h = ad.sigmoid(self._affine(c, "recon.init"))
        biases = [p("recon.cell.b_i")] + ([p("recon.cell.b_hn")] if cfg.recon_cell == "gru" else [])
        return ad.recurrent_sequence(
            cfg.recon_cell, h, x_first, p("recon.cell.w_i"), p("recon.cell.w_h"), biases,
            p("recon.out.W"), p("recon.out.b"), cfg.window,
        )

    def forward(self, X) -> LatentBundle:
        if not isinstance(X, Tensor):
            X = Tensor(X)
        e = self.encode(X)
        c = self.squeeze(e)
        e_tilde = self.expand(c)
        o, y_hat = self.decode_predict(e_tilde)
        return LatentBundle(e=e, c=c, e_tilde=e_tilde, o=o, y_hat=y_hat)

    def predict_from_bottleneck(self, c: Tensor) -> Tensor:
        """The bottleneck-to-prediction map used by the smoothness penalty."""
        _, y_hat = self.decode_predict(self.expand(c))
        return y_hat
