"""Twin-stream attention network with a shared parameter set.

One parameter dictionary serves both domain streams (weight tying is
structural: the same tensors are used for every forward pass).  The encoder
attends over the sensor axis and the time axis separately, fuses both token
streams, and flattens to the latent width M; a two-layer feed-forward
squeeze compresses M to the bottleneck B and a mirrored expand restores M.
A single cross-attention decoder layer with one learned query produces the
pre-head representation, and a small recurrent decoder (GRU by default)
reconstructs the input window from the bottleneck.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .serialization import load_blob, save_blob


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

    def __post_init__(self):
        if self.attn_dim % self.n_heads:
            raise ValueError("attn_dim must be divisible by n_heads")
        if self.bottleneck >= self.latent_dim:
            raise ValueError(
                f"bottleneck {self.bottleneck} must be smaller than the "
                f"latent width {self.latent_dim}"
            )
        if self.recon_cell not in ("gru", "lstm", "rnn"):
            raise ValueError(f"unknown reconstruction cell {self.recon_cell!r}")

    @property
    def latent_dim(self) -> int:
        """Flattened fused-token width M = (f + K) * attn_dim."""
        return (self.n_features + self.window) * self.attn_dim


def tiny_model_config(n_features: int = 4, window: int = 8, **overrides) -> ModelConfig:
    """Widths-8 configuration for gradient checks and fast unit tests."""
    base = dict(
        n_features=n_features, window=window, attn_dim=8, n_heads=2,
        n_encoder_layers=1, n_decoder_layers=1, ffn_dim=16,
        squeeze_hidden=16, bottleneck=8, head_dim=8,
    )
    base.update(overrides)
    return ModelConfig(**base)


def toy_model_config(n_features: int = 8, window: int = 16, **overrides) -> ModelConfig:
    """Shrunk dims used by --toy runs: f=8, K=16, width-8 attention."""
    base = dict(
        n_features=n_features, window=window, attn_dim=8, n_heads=2,
        n_encoder_layers=2, n_decoder_layers=1, ffn_dim=32,
        squeeze_hidden=32, bottleneck=16, head_dim=8,
    )
    base.update(overrides)
    return ModelConfig(**base)


def desk_model_config(n_features: int = 24, window: int = 40, **overrides) -> ModelConfig:
    """Reduced-width encoder for desk-scale directional runs on real-layout data."""
    base = dict(
        n_features=n_features, window=window, attn_dim=16, n_heads=2,
        n_encoder_layers=2, n_decoder_layers=1, ffn_dim=32,
        squeeze_hidden=64, bottleneck=32, head_dim=16,
    )
    base.update(overrides)
    return ModelConfig(**base)


@dataclass
class LatentBundle:
    """Per-batch forward products: encoder latent E, bottleneck C, expanded
    latent, pre-head representation O, prediction, optional reconstruction."""

    e: Tensor
    c: Tensor
    e_tilde: Tensor
    o: Tensor
    y_hat: Tensor
    x_hat: Tensor | None = None


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
        d, ffn = self.config.attn_dim, self.config.ffn_dim
        for gate in ("q", "k", "v", "o"):
            self._add_affine(f"{prefix}.attn.{gate}", d, d, rng)
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
                self._add_attention_block(f"enc.{stream}.{i}", rng)
        self._add_affine("enc.fusion", d, d, rng)

        self._add_affine("squeeze.1", M, cfg.squeeze_hidden, rng)
        self._add_affine("squeeze.2", cfg.squeeze_hidden, B, rng)
        self._add_affine("expand.1", B, cfg.squeeze_hidden, rng)
        self._add_affine("expand.2", cfg.squeeze_hidden, M, rng)

        self._add("dec.query", rng.normal(0.0, 0.02, size=(1, 1, d)))
        for i in range(cfg.n_decoder_layers):
            self._add_attention_block(f"dec.{i}", rng)
        self._add_affine("dec.out", d, cfg.head_dim, rng)
        self._add_affine("head", cfg.head_dim, 1, rng)

        h = cfg.recon_hidden
        self._add_affine("recon.init", B, h, rng)
        if cfg.recon_cell == "gru":
            for gate in ("z", "r"):
                self._add(f"recon.cell.Wi{gate}", _xavier(rng, f, h))
                self._add(f"recon.cell.Wh{gate}", _xavier(rng, h, h))
                self._add(f"recon.cell.b{gate}", np.zeros(h))
            self._add("recon.cell.Win", _xavier(rng, f, h))
            self._add("recon.cell.bin", np.zeros(h))
            self._add("recon.cell.Whn", _xavier(rng, h, h))
            self._add("recon.cell.bhn", np.zeros(h))
        elif cfg.recon_cell == "lstm":
            for gate in ("i", "f", "g", "o"):
                self._add(f"recon.cell.Wi{gate}", _xavier(rng, f, h))
                self._add(f"recon.cell.Wh{gate}", _xavier(rng, h, h))
                self._add(f"recon.cell.b{gate}", np.zeros(h))
        else:  # rnn
            self._add("recon.cell.Wih", _xavier(rng, f, h))
            self._add("recon.cell.Whh", _xavier(rng, h, h))
            self._add("recon.cell.b", np.zeros(h))
        self._add_affine("recon.out", h, f, rng)

    # -- small layer helpers ------------------------------------------------
    def _p(self, name: str) -> Tensor:
        return self.params[name]

    def _affine(self, x: Tensor, name: str) -> Tensor:
        return ad.linear(x, self._p(f"{name}.W"), self._p(f"{name}.b"))

    def _layer_norm(self, x: Tensor, name: str, eps: float = 1e-5) -> Tensor:
        return ad.layer_norm(x, self._p(f"{name}.g"), self._p(f"{name}.b"), eps)

    def _split_heads(self, x: Tensor) -> Tensor:
        n, S, d = x.shape
        h = self.config.n_heads
        return ad.transpose(ad.reshape(x, (n, S, h, d // h)), (0, 2, 1, 3))

    def _attention(self, q_in: Tensor, kv_in: Tensor, prefix: str) -> Tensor:
        q = self._split_heads(self._affine(q_in, f"{prefix}.attn.q"))
        k = self._split_heads(self._affine(kv_in, f"{prefix}.attn.k"))
        v = self._split_heads(self._affine(kv_in, f"{prefix}.attn.v"))
        mixed = ad.attention(q, k, v)
        n, h, S, hd = mixed.shape
        merged = ad.reshape(ad.transpose(mixed, (0, 2, 1, 3)), (n, S, h * hd))
        return self._affine(merged, f"{prefix}.attn.o")

    def _ffn(self, x: Tensor, prefix: str) -> Tensor:
        return self._affine(ad.relu(self._affine(x, f"{prefix}.ffn.1")), f"{prefix}.ffn.2")

    def _block(self, x: Tensor, memory: Tensor, prefix: str) -> Tensor:
        attended = self._layer_norm(ad.add(x, self._attention(x, memory, prefix)), f"{prefix}.ln1")
        return self._layer_norm(ad.add(attended, self._ffn(attended, prefix)), f"{prefix}.ln2")

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
            sensor = self._block(sensor, sensor, f"enc.sensor.{i}")
            time = self._block(time, time, f"enc.time.{i}")
        fused = self._affine(ad.concat([sensor, time], axis=1), "enc.fusion")
        return ad.reshape(fused, (n, cfg.latent_dim))

    def squeeze(self, e: Tensor) -> Tensor:
        return ad.relu(self._affine(ad.relu(self._affine(e, "squeeze.1")), "squeeze.2"))

    def expand(self, c: Tensor) -> Tensor:
        return ad.relu(self._affine(ad.relu(self._affine(c, "expand.1")), "expand.2"))

    def decode_predict(self, e_tilde: Tensor) -> tuple[Tensor, Tensor]:
        """Expanded latent -> (O, Y_hat); one learned query cross-attends over
        the latent reshaped back into its token sequence."""
        cfg = self.config
        n = e_tilde.shape[0]
        memory = ad.reshape(e_tilde, (n, cfg.n_features + cfg.window, cfg.attn_dim))
        x = ad.broadcast_to(self._p("dec.query"), (n, 1, cfg.attn_dim))
        for i in range(cfg.n_decoder_layers):
            x = self._block(x, memory, f"dec.{i}")
        o = self._affine(ad.reshape(x, (n, cfg.attn_dim)), "dec.out")
        y_hat = ad.sigmoid(self._affine(o, "head"))
        return o, y_hat

    def _cell_step(self, u: Tensor, state):
        """One LSTM or RNN step; the GRU runs as one `gru_sequence` node."""
        p = self._p
        if self.config.recon_cell == "lstm":
            h, c = state
            gates = {}
            for gate in ("i", "f", "g", "o"):
                pre = ad.add(ad.add(ad.matmul(u, p(f"recon.cell.Wi{gate}")),
                                    ad.matmul(h, p(f"recon.cell.Wh{gate}"))), p(f"recon.cell.b{gate}"))
                gates[gate] = ad.tanh(pre) if gate == "g" else ad.sigmoid(pre)
            new_c = ad.add(ad.mul(gates["f"], c), ad.mul(gates["i"], gates["g"]))
            new_h = ad.mul(gates["o"], ad.tanh(new_c))
            return new_h, (new_h, new_c)
        h = state
        new_h = ad.tanh(ad.add(ad.add(ad.matmul(u, p("recon.cell.Wih")),
                                      ad.matmul(h, p("recon.cell.Whh"))), p("recon.cell.b")))
        return new_h, new_h

    def reconstruct(self, c: Tensor, x_first: Tensor) -> Tensor:
        """Unroll the recurrent decoder K steps from the bottleneck-derived
        hidden state, auto-regressively fed from the window's first frame."""
        cfg = self.config
        n = c.shape[0]
        h = ad.sigmoid(self._affine(c, "recon.init"))
        if cfg.recon_cell == "gru":
            def stacked(*names):
                return ad.concat([self._p(f"recon.cell.{k}") for k in names], axis=-1)

            return ad.gru_sequence(
                h, x_first,
                stacked("Wiz", "Wir", "Win"), stacked("Whz", "Whr", "Whn"),
                stacked("bz", "br", "bin"), self._p("recon.cell.bhn"),
                self._p("recon.out.W"), self._p("recon.out.b"), cfg.window,
            )
        state = (h, ad.constant(np.zeros((n, cfg.recon_hidden)))) if cfg.recon_cell == "lstm" else h
        u = x_first
        steps = []
        for _ in range(cfg.window):
            out, state = self._cell_step(u, state)
            frame = self._affine(out, "recon.out")  # (n, f)
            steps.append(ad.reshape(frame, (n, cfg.n_features, 1)))
            u = frame
        return ad.concat(steps, axis=2)

    def forward(self, X, with_recon: bool = False) -> LatentBundle:
        if not isinstance(X, Tensor):
            X = Tensor(X)
        e = self.encode(X)
        c = self.squeeze(e)
        e_tilde = self.expand(c)
        o, y_hat = self.decode_predict(e_tilde)
        x_hat = self.reconstruct(c, X[:, :, 0]) if with_recon else None
        return LatentBundle(e=e, c=c, e_tilde=e_tilde, o=o, y_hat=y_hat, x_hat=x_hat)

    def predict_from_bottleneck(self, c: Tensor) -> Tensor:
        """The bottleneck-to-prediction map used by the smoothness penalty."""
        _, y_hat = self.decode_predict(self.expand(c))
        return y_hat

    # -- parameter plumbing ---------------------------------------------------
    def parameters(self) -> dict[str, Tensor]:
        return self.params

    @property
    def n_params(self) -> int:
        return sum(p.data.size for p in self.params.values())

    def state_arrays(self) -> dict[str, np.ndarray]:
        return {name: p.data.copy() for name, p in self.params.items()}

    def load_state(self, arrays: dict[str, np.ndarray]) -> None:
        missing = set(self.params) - set(arrays)
        if missing:
            raise ValueError(f"checkpoint missing parameters: {sorted(missing)[:4]} ...")
        for name, p in self.params.items():
            value = np.asarray(arrays[name])
            if value.shape != p.data.shape:
                raise ValueError(f"{name}: shape {value.shape} != {p.data.shape}")
            p.data = value.astype(p.data.dtype)
            p.grad = None


# ---------------------------------------------------------------------------
# checkpoint file format (shared by the trainer)

def save_checkpoint(
    path,
    *,
    params: dict[str, Tensor],
    adam_m: dict[str, np.ndarray],
    adam_v: dict[str, np.ndarray],
    adam_t: int,
    iteration: int,
    config_hash: str,
    rng_states: dict | None = None,
    extra_arrays: dict[str, np.ndarray] | None = None,
    extra_meta: dict | None = None,
) -> str:
    arrays: dict[str, np.ndarray] = {}
    for name, p in params.items():
        arrays[f"param/{name}"] = p.data
        arrays[f"adam_m/{name}"] = adam_m[name]
        arrays[f"adam_v/{name}"] = adam_v[name]
    for name, value in (extra_arrays or {}).items():
        arrays[f"extra/{name}"] = value
    meta = {
        "kind": "checkpoint",
        "config_hash": config_hash,
        "iteration": int(iteration),
        "adam_t": int(adam_t),
        "rng_states": rng_states or {},
        **(extra_meta or {}),
    }
    return save_blob(path, arrays, meta)


def load_checkpoint(path, expected_config_hash: str | None = None):
    """Returns (params, adam_m, adam_v, extras, meta); fails when the stored
    config hash does not match the requested one."""
    arrays, meta = load_blob(path)
    if meta.get("kind") != "checkpoint":
        raise ValueError(f"{path}: not a checkpoint file")
    if expected_config_hash is not None and meta["config_hash"] != expected_config_hash:
        raise ValueError(
            f"{path}: checkpoint config hash {meta['config_hash'][:12]} does not "
            f"match the requested configuration {expected_config_hash[:12]}"
        )

    def section(prefix):
        return {k[len(prefix):]: v for k, v in arrays.items() if k.startswith(prefix)}

    return section("param/"), section("adam_m/"), section("adam_v/"), section("extra/"), meta
