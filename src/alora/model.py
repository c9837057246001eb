"""Toy decoder-only transformer: config, weights, and the pure forward math.

The engine computes one position (row) at a time, always through the same
helper for a given operation. That is the accumulation-order contract that
makes the equivalence guarantees in this package exact: two passes that feed
identical values through identical call shapes produce bitwise-identical
floats, so cached-vs-uncached and batch-vs-incremental comparisons need no
tolerances.

The row-level primitives (RMS norm, GELU, rotary tables and rotation) act on
the last axis, and a row's result does not depend on how many rows come with
it. The trainer's batched tape calls the same functions on whole sequences,
so it trains the model the engine serves.

Adapters plug in through a projection policy (see adapters.py): the model
never inspects adapter state, it only asks the policy for a per-position
verdict and the delta factors to apply.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Optional, Tuple

import numpy as np

from .adapters import VERDICT_ADAPTED, delta_apply
from .costs import CostLedger
from .errors import ConfigurationError, ContractViolationError

RMS_EPS = 1e-5


@dataclass(frozen=True)
class ModelConfig:
    n_layers: int
    n_heads: int
    d_model: int
    d_head: int
    vocab_size: int
    max_positions: int
    rope_theta: float = 10000.0

    def __post_init__(self):
        for name in ("n_layers", "n_heads", "d_model", "d_head",
                     "vocab_size", "max_positions"):
            if getattr(self, name) <= 0:
                raise ConfigurationError(f"{name} must be positive")
        if self.d_model != self.n_heads * self.d_head:
            raise ConfigurationError(
                f"d_model {self.d_model} != n_heads {self.n_heads} * d_head {self.d_head}")
        if self.d_head % 2 != 0:
            raise ConfigurationError("d_head must be even for rotary embedding")
        if self.rope_theta <= 0:
            raise ConfigurationError("rope_theta must be positive")

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        return cls(**{f.name: d[f.name] for f in fields(cls)})


@dataclass
class LayerWeights:
    w_q: np.ndarray
    w_k: np.ndarray
    w_v: np.ndarray
    w_o: np.ndarray
    mlp_up: np.ndarray
    mlp_down: np.ndarray
    norm_attn: np.ndarray
    norm_mlp: np.ndarray


@dataclass
class ModelWeights:
    token_embedding: np.ndarray
    layers: Tuple[LayerWeights, ...]
    norm_final: np.ndarray
    unembedding: np.ndarray

    @property
    def dtype(self):
        return self.token_embedding.dtype

    def validate(self, config: ModelConfig) -> None:
        d, v = config.d_model, config.vocab_size
        expect = {
            "token_embedding": (v, d),
            "unembedding": (d, v),
            "norm_final": (d,),
        }
        for name, shape in expect.items():
            arr = getattr(self, name)
            if arr.shape != shape:
                raise ConfigurationError(
                    f"{name} has shape {arr.shape}, expected {shape}")
        if len(self.layers) != config.n_layers:
            raise ConfigurationError(
                f"{len(self.layers)} layers, config says {config.n_layers}")
        per_layer = {
            "w_q": (d, d), "w_k": (d, d), "w_v": (d, d), "w_o": (d, d),
            "mlp_up": (d, 4 * d), "mlp_down": (4 * d, d),
            "norm_attn": (d,), "norm_mlp": (d,),
        }
        for i, layer in enumerate(self.layers):
            for name, shape in per_layer.items():
                arr = getattr(layer, name)
                if arr.shape != shape:
                    raise ConfigurationError(
                        f"layer {i} {name} has shape {arr.shape}, expected {shape}")
                if not np.isfinite(arr).all():
                    raise ConfigurationError(f"layer {i} {name} is not finite")
        for name in expect:
            if not np.isfinite(getattr(self, name)).all():
                raise ConfigurationError(f"{name} is not finite")

    def astype(self, dtype) -> "ModelWeights":
        cast = lambda a: a.astype(dtype)
        layers = tuple(
            LayerWeights(**{f.name: cast(getattr(l, f.name))
                            for f in fields(LayerWeights)})
            for l in self.layers)
        return ModelWeights(token_embedding=cast(self.token_embedding),
                            layers=layers,
                            norm_final=cast(self.norm_final),
                            unembedding=cast(self.unembedding))


# ---------------------------------------------------------------------- #
# row-level primitives

GELU_K = 0.7978845608028654  # sqrt(2/pi)
GELU_C = 0.044715


def rms_norm_row(x: np.ndarray, gain: np.ndarray):
    """Normalise over the last axis; returns (normalised, root mean square)."""
    root = np.sqrt(np.mean(x * x, axis=-1, keepdims=True) + RMS_EPS)
    return x / root * gain, root


def gelu(x: np.ndarray) -> np.ndarray:
    # tanh approximation; used identically in inference and training
    return 0.5 * x * (1.0 + np.tanh(GELU_K * (x + GELU_C * x * x * x)))


def rope_tables(positions, config: ModelConfig, dtype) -> Tuple[np.ndarray, np.ndarray]:
    """cos/sin tables of shape positions.shape + (d_head/2,).

    Pair i at position p turns by p / theta^(2i/d_head); positions may be
    fractional. Angles are computed in f64, then cast to ``dtype``.
    """
    exponents = np.arange(0, config.d_head, 2, dtype=np.float64) / config.d_head
    inv_freq = config.rope_theta ** (-exponents)
    angles = np.asarray(positions, dtype=np.float64)[..., None] * inv_freq
    return np.cos(angles).astype(dtype), np.sin(angles).astype(dtype)


def rope_rotate_heads(x: np.ndarray, cos: np.ndarray, sin: np.ndarray) -> np.ndarray:
    """Rotate consecutive pairs within each head of ``x`` (..., d_model).

    ``cos``/``sin`` come from ``rope_tables`` for the rows' positions and
    apply to every head alike.
    """
    d_head = 2 * cos.shape[-1]
    heads = x.reshape(x.shape[:-1] + (x.shape[-1] // d_head, d_head))
    c, s = cos[..., None, :], sin[..., None, :]
    even, odd = heads[..., 0::2], heads[..., 1::2]
    out = np.empty_like(heads)
    out[..., 0::2] = even * c - odd * s
    out[..., 1::2] = even * s + odd * c
    return out.reshape(x.shape)


def project_row(x_row: np.ndarray, layer_index: int, layer: LayerWeights,
                policy, position: int, ledger: CostLedger):
    """Project one residual row to (q, k, v) under the policy's verdict."""
    d = x_row.shape[0]
    ledger.add_matmul(1, d, d)
    ledger.add_matmul(1, d, d)
    ledger.add_matmul(1, d, d)
    if policy.verdict(position) == VERDICT_ADAPTED:
        q = _maybe_delta(x_row, layer.w_q, policy.delta(layer_index, "q"))
        k = _maybe_delta(x_row, layer.w_k, policy.delta(layer_index, "k"))
        v = _maybe_delta(x_row, layer.w_v, policy.delta(layer_index, "v"))
    else:
        q = x_row @ layer.w_q
        k = x_row @ layer.w_k
        v = x_row @ layer.w_v
    return q, k, v


def _maybe_delta(x_row, w, delta):
    if delta is None:
        return x_row @ w
    return delta_apply(x_row, w, delta)


def attend_single(q_row: np.ndarray, keys: np.ndarray, values: np.ndarray,
                  config: ModelConfig, ledger: CostLedger) -> np.ndarray:
    """Causal attention of one query row over ``keys``/``values`` (its full
    prefix, itself included). Returns the head-concatenated mix, pre-W_O."""
    c = keys.shape[0]
    d_head = config.d_head
    sqrt_d = math.sqrt(d_head)
    out = np.empty_like(q_row)
    for h in range(config.n_heads):
        lo, hi = h * d_head, (h + 1) * d_head
        scores = (keys[:, lo:hi] @ q_row[lo:hi]) / sqrt_d
        ledger.add_attention(2 * c * d_head)
        m = scores.max()
        e = np.exp(scores - m)
        probs = e / e.sum()
        ledger.add_softmax(c)
        out[lo:hi] = probs @ values[:, lo:hi]
        ledger.add_attention(2 * c * d_head)
    return out


def forward_position(token: int, position: int, weights: ModelWeights,
                     config: ModelConfig, policy, cache, ledger: CostLedger,
                     want_logits: bool) -> Optional[np.ndarray]:
    """Run one token through all layers, appending its K/V rows to the cache.

    The cache must already hold exactly positions [0, position).
    """
    if cache.length != position:
        raise ContractViolationError(
            f"cache holds {cache.length} positions, expected {position}")
    if not 0 <= token < config.vocab_size:
        raise ContractViolationError(f"token id {token} outside vocabulary")
    d = config.d_model
    provenance = policy.provenance_at(position)
    cache.append_token_ids([token])
    x = weights.token_embedding[token].copy()
    ledger.rows_projected_fresh += 1
    cos, sin = rope_tables(position, config, weights.dtype)
    for li, layer in enumerate(weights.layers):
        n1, _ = rms_norm_row(x, layer.norm_attn)
        q, k, v = project_row(n1, li, layer, policy, position, ledger)
        q = rope_rotate_heads(q, cos, sin)
        k = rope_rotate_heads(k, cos, sin)
        cache.append_rows(li, k, v, provenance)
        keys = cache.k_matrix(li, position + 1)
        vals = cache.v_matrix(li, position + 1)
        mixed = attend_single(q, keys, vals, config, ledger)
        x = x + mixed @ layer.w_o
        ledger.add_matmul(1, d, d)
        n2, _ = rms_norm_row(x, layer.norm_mlp)
        up = n2 @ layer.mlp_up
        ledger.add_matmul(1, d, 4 * d)
        down = gelu(up) @ layer.mlp_down
        ledger.add_matmul(1, 4 * d, d)
        x = x + down
    if not want_logits:
        return None
    nf, _ = rms_norm_row(x, weights.norm_final)
    logits = nf @ weights.unembedding
    ledger.add_matmul(1, d, config.vocab_size)
    return logits


def forward_segment(tokens, start_position: int, weights: ModelWeights,
                    config: ModelConfig, policy, cache,
                    ledger: Optional[CostLedger] = None) -> np.ndarray:
    """Process a run of tokens position by position; returns the last row's logits."""
    if ledger is None:
        ledger = CostLedger()
    tokens = [int(t) for t in tokens]
    if not tokens:
        raise ContractViolationError("forward_segment requires at least one token")
    if cache.length != start_position:
        raise ContractViolationError(
            f"cache holds {cache.length} positions, segment starts at {start_position}")
    logits = None
    last = len(tokens) - 1
    for i, token in enumerate(tokens):
        logits = forward_position(token, start_position + i, weights, config,
                                  policy, cache, ledger, want_logits=(i == last))
    return logits


def greedy_pick(logits: np.ndarray) -> int:
    """Argmax over the vocabulary; ties break toward the lowest token id."""
    logits = np.asarray(logits)
    if logits.ndim != 1 or logits.size == 0:
        raise ContractViolationError("greedy_pick expects a non-empty vector")
    if not np.isfinite(logits).all():
        raise ContractViolationError("greedy_pick received non-finite logits")
    return int(np.argmax(logits))
