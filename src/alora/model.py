"""Toy decoder-only transformer: config, weights, and the pure forward math.

The forward is layer-major: a run of up to RUN_ROWS consecutive rows goes
through each layer together, base and adapted rows alike, in one layer loop
for every run length (``_forward_run``). The run's length picks only the
form of the leaf ops, once per run. Two or more rows go as a (T, d) block;
one row, each decode step among them, as a 1-D vector, with scalar RMS
roots and no (1, d) blocks, since at that size each numpy call's fixed
cost is the step's cost. Every row takes its own projections in either
form: a block's are (T, 1, d) @ W batched matmuls (``_row_matmul``), which
numpy sends row by row to one gemv each (never one gemm, whose rows differ
from gemv's at these widths), and a 1-D row's ``x @ W`` is that same gemv.
``project_row`` projects q, k and v in one such product against
[W_Q | W_K | W_V] and adds the run's adapted suffix its low-rank deltas,
for both forms. A block attends in ``attend_run``: each row's QK product,
softmax normaliser and P·V product stay its own calls over its exact
prefix, all heads in one call, while the rest of the softmax runs once over
a block of rows; a 1-D row takes ``attend_single``, the same calls without
a block's padding. So a row's result does not depend on how many rows come
with it, nor on where the run is cut, and cached-vs-uncached and
batch-vs-incremental comparisons need no tolerances.
``row_invariance_probe`` checks it through ``_forward_run`` itself, a
3-row block against its rows run alone (1 to 2.5 ms, once per engine and
kind of request); the engine refuses to serve without it. A run is checked
and its cache rows placed once (``CacheStore.begin_run``); each layer then
writes only its K and V rows, and the run's costs go into the ledger in
one update.

The row-level primitives (RMS norm, GELU, rotary tables and rotation) act on
the last axis. The trainer's batched tape calls the same functions on whole
sequences, so it trains the model the engine serves. Both slice one rotary
table per config and dtype, built at first use (``rope_table``), and widen
the slice once per run or forward to the q|k width (``rope_wide``), so the
rotation is four elementwise operations over the block. Weights are
values, frozen and checked once, with their derived constants (``ModelWeights``).

Adapters plug in through the projection policy (``AdapterPolicy`` in
adapters.py): the model never inspects adapter state, it only asks the
policy once per run for each row's producer (``AdapterPolicy.producers``:
None for a base row, the spec for an adapted one; the base rows lead, and
their count is where the run's adapted suffix begins) and for the delta
factors to apply. Which cached rows may be reused is the engine's
decision, not the model's.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, fields, replace
from functools import lru_cache
from typing import Optional, Tuple

import numpy as np

from .adapters import as_token_ids, delta_apply
from .cache import CacheStore, first_row_difference
from .costs import CostLedger
from .errors import ConfigurationError, ContractViolationError
from .fileio import freeze, freeze_stacked

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
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral) or value <= 0:
                raise ConfigurationError(f"{name} must be a positive integer")
        if self.d_model != self.n_heads * self.d_head:
            raise ConfigurationError(
                f"d_model {self.d_model} != n_heads {self.n_heads} * d_head {self.d_head}")
        if self.d_head % 2 != 0:
            raise ConfigurationError("d_head must be even for rotary embedding")
        theta = self.rope_theta
        if not (isinstance(theta, numbers.Real) and 0 < theta < math.inf):
            raise ConfigurationError("rope_theta must be finite and positive")

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        if not isinstance(d, dict):
            raise ConfigurationError(f"model config is a {type(d).__name__}, not an object")
        for f in fields(cls):
            if f.name not in d:
                raise ConfigurationError(f"model config missing field {f.name!r}")
        return cls(**{f.name: d[f.name] for f in fields(cls)})


@dataclass(frozen=True, eq=False)
class LayerWeights:
    """One layer's weights. ``ModelWeights`` holds frozen copies, carrying ``w_qkv``
    ([W_Q | W_K | W_V]: q, k and v in one product per row, its column slices the
    separate products on the BLAS the engine accepts) and ``mlp_down_t`` (C-ordered
    mlp_down.T, which gives the trainer's backward rows their bits among all rows)."""

    w_q: np.ndarray
    w_k: np.ndarray
    w_v: np.ndarray
    w_o: np.ndarray
    mlp_up: np.ndarray
    mlp_down: np.ndarray
    norm_attn: np.ndarray
    norm_mlp: np.ndarray
    w_qkv: Optional[np.ndarray] = field(default=None, init=False, repr=False)
    mlp_down_t: Optional[np.ndarray] = field(default=None, init=False, repr=False)


LAYER_ARRAYS = tuple(f.name for f in fields(LayerWeights) if f.init)


@dataclass(frozen=True, eq=False)
class ModelWeights:
    """The model's weights, which cannot change once built: as a spec does
    its factors, they copy all arrays, the layers' and derived ones included,
    once into one buffer (``fileio.freeze``), their layers new LayerWeights
    of read-only views. All must be finite, of one float dtype, or
    ConfigurationError is raised."""

    token_embedding: np.ndarray
    layers: Tuple[LayerWeights, ...]
    norm_final: np.ndarray
    unembedding: np.ndarray

    def __post_init__(self):
        own = ("token_embedding", "norm_final", "unembedding")
        arrays = [getattr(self, name) for name in own]
        for l in self.layers:
            if l.w_q.ndim != 2 or not l.w_q.shape == l.w_k.shape == l.w_v.shape:
                raise ConfigurationError("w_q, w_k and w_v must share one (d, d) shape")
            arrays += [getattr(l, name) for name in LAYER_ARRAYS] + [
                np.concatenate((l.w_q, l.w_k, l.w_v), axis=1), l.mlp_down.T]
        dtype = arrays[0].dtype
        if dtype.kind != "f" or len({a.dtype for a in arrays}) > 1:
            odd = "".join(f", {n} {a.dtype}" for n, a in self.tensors() if a.dtype != dtype)
            raise ConfigurationError(
                f"weights must share one float dtype, got token_embedding {dtype}{odd}")
        views = iter(freeze(arrays))
        layers = [object.__new__(LayerWeights) for _ in self.layers]
        self.__dict__.update(zip(own, views), layers=tuple(layers))
        for layer in layers:
            layer.__dict__.update(zip(LAYER_ARRAYS + ("w_qkv", "mlp_down_t"), views))
        # One pass over the whole buffer (the views' base, zero-padded).
        if not np.isfinite(self.token_embedding.base.view(dtype)).all():
            name = next(n for n, a in self.tensors() if not np.isfinite(a).all())
            raise ConfigurationError(f"{name} is not finite")

    def __reduce__(self):  # copies and pickles are built, and frozen, anew
        return type(self), tuple(getattr(self, f.name) for f in fields(self))

    @property
    def dtype(self):
        return self.token_embedding.dtype

    def tensors(self) -> list:
        """(checkpoint name, array) pairs in file order, the derived ones left out."""
        return ([("token_embedding", self.token_embedding)]
                + [(f"layers.{i}.{name}", getattr(layer, name))
                   for i, layer in enumerate(self.layers) for name in LAYER_ARRAYS]
                + [("norm_final", self.norm_final), ("unembedding", self.unembedding)])

    def validate(self, config: ModelConfig) -> None:
        """Raise ConfigurationError unless the shapes fit ``config``."""
        if len(self.layers) != config.n_layers:
            raise ConfigurationError(
                f"{len(self.layers)} layers, config says {config.n_layers}")
        d, v = config.d_model, config.vocab_size
        square, up, row = (d, d), (d, 4 * d), (d,)
        shapes = dict(token_embedding=(v, d), norm_final=row, unembedding=(d, v),
                      w_q=square, w_k=square, w_v=square, w_o=square, mlp_up=up,
                      mlp_down=up[::-1], norm_attn=row, norm_mlp=row)
        for name, a in self.tensors():
            shape = shapes[name.rsplit(".", 1)[-1]]
            if a.shape != shape:
                raise ConfigurationError(f"{name} has shape {a.shape}, expected {shape}")

    def astype(self, dtype) -> "ModelWeights":
        """These weights in ``dtype``, as new weights."""
        cast = lambda owner, names: {n: np.asarray(getattr(owner, n), dtype)
                                     for n in names}
        return ModelWeights(
            layers=[LayerWeights(**cast(l, LAYER_ARRAYS)) for l in self.layers],
            **cast(self, ("token_embedding", "norm_final", "unembedding")))


# ---------------------------------------------------------------------- #
# row-level primitives

GELU_K = 0.7978845608028654  # sqrt(2/pi)
GELU_C = 0.044715


def rms_norm_row(x: np.ndarray, gain: np.ndarray):
    """Normalise over the last axis; returns (normalised, root mean square).

    x / root * gain, the gain applied in place in the quotient's own
    temporary. The root, one value per row, is sum-then-divide: bit for
    bit what np.mean gives, without its Python layers. A 1-D row's root is
    a scalar, whose arithmetic has the bits of a (1, 1) array's and costs
    less; rows of a block keep theirs on a trailing axis."""
    root = np.sqrt(np.add.reduce(x * x, axis=-1, keepdims=x.ndim > 1)
                   / x.shape[-1] + RMS_EPS)
    y = x / root
    y *= gain
    return y, root


def gelu(x: np.ndarray):
    """tanh approximation, used identically in inference and training;
    returns (value, tanh), the tanh for the trainer's backward pass.

    t = tanh(K (x + C x x x)) and 0.5 x (1 + t), each step in place in one
    of three temporaries; products and sums commute bit for bit, so the
    order of operands is free but the order of operations is kept."""
    t = x * GELU_C
    t *= x
    t *= x
    t += x
    t *= GELU_K
    np.tanh(t, out=t)
    y = x * 0.5
    y *= 1.0 + t
    return y, t


def rope_tables(positions, config: ModelConfig, dtype) -> Tuple[np.ndarray, np.ndarray]:
    """Rotary tables (C, S) of shape positions.shape + (d_head,).

    Pair i at position p turns by angle p / theta^(2i/d_head); positions
    may be fractional. Angles are computed in f64; their cosines and sines
    are cast to ``dtype`` and interleaved as C = (c0, c0, c1, c1, ...) and
    S = (-s0, s0, -s1, s1, ...), the form ``rope_rotate_heads`` multiplies
    by once ``rope_wide`` has repeated them across the heads.
    """
    exponents = np.arange(0, config.d_head, 2, dtype=np.float64) / config.d_head
    inv_freq = config.rope_theta ** (-exponents)
    angles = np.asarray(positions, dtype=np.float64)[..., None] * inv_freq
    cos = np.cos(angles).astype(dtype).repeat(2, axis=-1)
    sin = np.sin(angles).astype(dtype).repeat(2, axis=-1)
    sin[..., 0::2] *= -1
    return cos, sin


@lru_cache(maxsize=8)
def rope_table(config: ModelConfig, dtype) -> np.ndarray:
    """Frozen ``rope_tables`` for positions [0, max_positions), built once
    per config and dtype, as one (2, max_positions, d_head) array of C and
    S; a slice has the bits of tables for its rows alone."""
    [(_, stack)] = freeze_stacked(rope_tables(np.arange(config.max_positions),
                                              config, dtype))
    return stack


def rope_wide(tables: np.ndarray, width: int) -> np.ndarray:
    """Rotary tables (2, ..., d_head), C and S as from ``rope_table``,
    repeated across ``width`` columns, a multiple of d_head: one table for
    every head of a row at once. One call, built once per run (or per
    trainer forward), so that ``rope_rotate_heads`` needs no reshape."""
    heads = width // tables.shape[-1]
    return tables[..., None, :].repeat(heads, axis=-2).reshape(
        tables.shape[:-1] + (width,))


@lru_cache(maxsize=8)
def _pair_swap(width: int) -> np.ndarray:
    """The index that swaps each consecutive pair of ``width`` columns."""
    swap = np.arange(width) ^ 1
    swap.flags.writeable = False
    return swap


def rope_rotate_heads(x: np.ndarray, cos: np.ndarray, sin: np.ndarray) -> np.ndarray:
    """Rotate consecutive pairs within each head of ``x`` (..., width),
    where width is any multiple of d_head (q, or q|k side by side).

    ``cos``/``sin`` are the (C, S) tables of the rows' positions, as wide
    as ``x`` (``rope_wide``), and broadcast against it. A pair (a, b)
    becomes (a c - b s, a s + b c), computed as x * C + swap(x) * S, where
    swap exchanges a and b: the same bits, as a - b is a + (-b) and +
    commutes. Four array operations, each elementwise over the whole
    block, strided or not: take, multiply, multiply, add.
    """
    swapped = x.take(_pair_swap(x.shape[-1]), axis=-1)
    # In place where it keeps the bits: two temporaries rather than four,
    # which kept long prefills' peak RSS at what it was before.
    swapped *= sin
    out = x * cos
    out += swapped
    return out


def project_row(x: np.ndarray, layer_index: int, layer: LayerWeights,
                policy, adapted):
    """Project residual rows ``x``, a (T, d) block or one (d,) row, to
    their q|k|v block (T, 3 d) or row (3 d,).

    Every row gets one gemv against [W_Q | W_K | W_V]: a row's ``x @ W``,
    a block's ``_row_matmul``. ``adapted`` is None when no row is adapted,
    else the slice ``cut:`` of the adapted rows. Those rows then get the
    policy's deltas for this layer added in place, one ``delta_apply`` per
    ``DeltaGroup``: the product is viewed as (T, 3, 1, d), one (1, d) row
    per projection, a lone row as T = 1, and a group's stacked factors
    reach its projections' rows in one product pair that numpy runs as one
    gemv per row and projection, each the gemv it would get alone.
    """
    w = layer.w_qkv
    qkv = x @ w if x.ndim == 1 else _row_matmul(x, w)
    if adapted is None:
        return qkv
    d = len(w)
    blocks = qkv.reshape(-1, 3, 1, d)
    rows = x.reshape(-1, 1, 1, d)[adapted]
    for group in policy.delta_groups(layer_index):
        delta_apply(rows, blocks[adapted, group.projections], group)
    return qkv


def _row_matmul(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """``x`` (T, k) @ ``w`` as one gemv per row: the block goes through as
    (T, 1, k) @ W, never as one gemm."""
    return (x[:, None, :] @ w)[:, 0]


def attend_single(q_row: np.ndarray, keys: np.ndarray, values: np.ndarray,
                  config: ModelConfig) -> np.ndarray:
    """Causal attention of one query row over ``keys``/``values`` (its full
    prefix, itself included), all heads in one batched call. Returns the
    head-concatenated mix, pre-W_O."""
    c = keys.shape[0]
    h, d_head = config.n_heads, config.d_head
    k_heads = keys.reshape(c, h, d_head).transpose(1, 0, 2)
    v_heads = values.reshape(c, h, d_head).transpose(1, 0, 2)
    scores = (k_heads @ q_row.reshape(h, d_head, 1)).reshape(h, c)
    # The softmax in place, in the product's own array; ufunc reduces are
    # what .max() and .sum() run, without their Python layers.
    scores /= math.sqrt(d_head)
    scores -= np.maximum.reduce(scores, axis=-1, keepdims=True)
    np.exp(scores, out=scores)
    scores /= np.add.reduce(scores, axis=-1, keepdims=True)
    return (scores.reshape(h, 1, c) @ v_heads).reshape(-1)


# Rows per softmax block of ``attend_run``. A block holds rows * n_heads *
# keys scores, so its size sets the kernel's memory, not its speed: with
# 4,096-token contexts, 16-row blocks put classic-reprefill's peak RSS up
# 2%, and 8-row blocks kept it within 1% of the one-row-at-a-time kernel's.
ATTEND_BLOCK = 8


def attend_run(q: np.ndarray, keys: np.ndarray, values: np.ndarray,
               start: int, config: ModelConfig) -> np.ndarray:
    """Causal attention of the query rows ``q`` (t, d) at positions
    [start, start + t) over the first start + t rows of ``keys``/``values``;
    returns the (t, d) head-concatenated mixes, pre-W_O, each row with the
    bits ``attend_single`` gives it alone.

    A row at position p attends over c = p + 1 keys. Its QK product, the sum
    that normalises its softmax and its P·V product stay its own calls over
    exactly those c keys, all heads in one batched call, as in
    ``attend_single``: a longer gemv or a padded sum gives other bits. The
    rest of the softmax (scale, max, subtraction, exp and division) runs
    once over a block of up to ATTEND_BLOCK rows whose scores are padded
    with -inf past each row's c: the max ignores the padding, and exp turns
    it into exact zeros.
    """
    t = len(q)
    h, d_head = config.n_heads, config.d_head
    end = start + t
    k_heads = keys[:end].reshape(end, h, d_head).transpose(1, 0, 2)
    v_heads = values[:end].reshape(end, h, d_head).transpose(1, 0, 2)
    q_heads = q.reshape(t, h, d_head, 1)
    mixed = np.empty((t, h, 1, d_head), dtype=q.dtype)
    # One buffer for every block's scores: fresh blocks of growing sizes
    # grew the heap.
    buffer = np.empty(min(t, ATTEND_BLOCK) * h * end, dtype=q.dtype)
    for a in range(0, t, ATTEND_BLOCK):
        rows = min(ATTEND_BLOCK, t - a)
        top = start + a + rows
        scores = buffer[:rows * h * top].reshape(rows, h, top, 1)
        # Padding lies only in the block's last rows - 1 keys: fill them
        # with -inf, and each row's scores overwrite the ones it sees.
        scores[:, :, top - rows + 1:] = -np.inf
        for j in range(rows):
            c = start + a + j + 1
            np.matmul(k_heads[:, :c], q_heads[a + j], out=scores[j, :, :c])
        scores = scores.reshape(rows, h, top)
        scores /= math.sqrt(d_head)
        scores -= np.maximum.reduce(scores, axis=-1, keepdims=True)
        np.exp(scores, out=scores)
        norms = np.empty((rows, h, 1), dtype=q.dtype)
        for j in range(rows):
            c = start + a + j + 1
            np.add.reduce(scores[j, :, :c], axis=-1, keepdims=True, out=norms[j])
        scores /= norms
        probs = scores[:, :, None, :]
        for j in range(rows):
            c = start + a + j + 1
            np.matmul(probs[j, :, :, :c], v_heads[:, :c], out=mixed[a + j])
    return mixed.reshape(t, h * d_head)


# A run is at most this many rows. Longer runs are no faster, and their
# MLP temporaries grow with the run.
RUN_ROWS = 64


def _forward_run(tokens, start, weights: ModelWeights, config: ModelConfig,
                 policy, cache, ledger: CostLedger, want_logits: bool):
    """Run ``tokens`` through all layers, layer by layer, appending their
    K/V rows to the cache, which must be made under ``config`` and hold
    exactly positions [0, start); returns the last row's logits if wanted.
    The run is checked, and its cache rows placed, once. The policy's cut
    splits it once: base rows before it, adapted rows from it on. Its
    length picks the leaf ops' form once: one row goes through the layer
    loop as a 1-D vector, with ``x @ W`` gemvs and ``attend_single``, two
    or more as a (T, d) block, with ``_row_matmul`` and ``attend_run``."""
    if cache.length != start:
        raise ContractViolationError(
            f"cache holds {cache.length} positions, expected {start}")
    # The cache's bounds, which ``begin_run`` applies, must be the model's.
    if cache.config is not config and cache.config != config:
        raise ContractViolationError("cache was made under another config than the model's")
    if min(tokens) < 0 or max(tokens) >= config.vocab_size:
        bad = next(t for t in tokens if not 0 <= t < config.vocab_size)
        raise ContractViolationError(f"token id {bad} outside vocabulary")
    t = len(tokens)
    end = start + t
    producers = policy.producers(start, t)
    cut = producers.count(None)  # the base rows, which lead
    adapted = None if cut == t else slice(cut, None)
    run = cache.begin_run(tokens, producers)
    d = config.d_model
    tables = rope_table(config, weights.dtype)
    # Every row's columns: q|k and v of q|k|v, then q and k of q|k.
    cols = slice(2 * d), slice(2 * d, None), slice(d), slice(d, None)
    if t == 1:
        x = weights.token_embedding[tokens[0]]
        tables = tables[:, start]
        gemv = np.matmul
        attend = lambda q, keys, values: attend_single(q, keys, values, config)
    else:
        x = weights.token_embedding.take(tokens, axis=0)
        tables = tables[:, start:end]
        gemv = _row_matmul
        attend = lambda q, keys, values: attend_run(q, keys, values, start, config)
        cols = [(slice(None), c) for c in cols]
    qk_cols, v_cols, q_cols, k_cols = cols
    cos, sin = rope_wide(tables, 2 * d)
    for li, layer in enumerate(weights.layers):
        n1, _ = rms_norm_row(x, layer.norm_attn)
        qkv = project_row(n1, li, layer, policy, adapted)
        qk = rope_rotate_heads(qkv[qk_cols], cos, sin)
        cache.write_rows(li, qk[k_cols], qkv[v_cols], run)
        mixed = attend(qk[q_cols], cache.k_matrix(li, end), cache.v_matrix(li, end))
        x = x + gemv(mixed, layer.w_o)
        n2, _ = rms_norm_row(x, layer.norm_mlp)
        up, _ = gelu(gemv(n2, layer.mlp_up))
        x = x + gemv(up, layer.mlp_down)
    _count_run(ledger, config, start, t, want_logits)
    if not want_logits:
        return None
    nf, _ = rms_norm_row(x if t == 1 else x[-1], weights.norm_final)
    return nf @ weights.unembedding


def _count_run(ledger: CostLedger, config: ModelConfig, start: int, t: int,
               want_logits: bool) -> None:
    """Add a run's costs in closed form, in one ledger update. Each row and
    layer does q, k, v, W_O and the MLP (24 d^2 flops); a row at position p
    attends over c = p + 1 keys: 4 c d attention flops and n_heads * c
    softmax ops."""
    d = config.d_model
    covered = config.n_layers * (t * start + t * (t + 1) // 2)
    matmul = 24 * config.n_layers * t * d * d
    if want_logits:
        matmul += 2 * d * config.vocab_size
    ledger.add_run(matmul, 4 * d * covered, config.n_heads * covered, t)


def forward_position(token: int, position: int, weights: ModelWeights,
                     config: ModelConfig, policy, cache, ledger: CostLedger,
                     want_logits: bool) -> Optional[np.ndarray]:
    """Run one token through all layers as a one-row run (decode, as a 1-D
    row), appending its K/V rows to the cache, which must hold
    [0, position)."""
    return _forward_run([token], position, weights, config, policy, cache,
                        ledger, want_logits)


def forward_segment(tokens, start_position: int, weights: ModelWeights,
                    config: ModelConfig, policy, cache,
                    ledger: Optional[CostLedger] = None) -> np.ndarray:
    """Process a segment of tokens; returns the last row's logits.

    The tokens go through the layers in runs of RUN_ROWS rows (the last run
    may be shorter). A run may hold base and adapted rows: it does not split
    at the first adapted row, but passes its adapted suffix to the deltas.
    """
    if ledger is None:
        ledger = CostLedger()
    tokens = as_token_ids(tokens)
    if not tokens:
        raise ContractViolationError("forward_segment requires at least one token")
    n = len(tokens)
    logits = None
    for a in range(0, n, RUN_ROWS):
        b = min(a + RUN_ROWS, n)
        logits = _forward_run(tokens[a:b], start_position + a, weights, config,
                              policy, cache, ledger, want_logits=(b == n))
    return logits


# Rows of the probe's cached prefix: the 3 probed rows attend over 38 to 40
# keys, no multiple of a SIMD width, so attention's vector and tail paths run.
PROBE_PREFIX = 37


def row_invariance_probe(weights: ModelWeights, config: ModelConfig,
                         policy) -> Optional[str]:
    """Check, rather than assume, the property of numpy and the BLAS that
    bitwise reuse rests on: ``_forward_run`` gives a row the same bits in a
    run as alone. A root cache of PROBE_PREFIX seeded random base rows is
    sealed and forked; 3 tokens run as one run on the root (the block
    form of each leaf op) and one at a time on the fork (the 1-D row
    form), under ``policy``, and their K/V rows at every layer and the
    last logits must be equal.
    Returns the first difference or None.
    """
    end = PROBE_PREFIX + 3
    config = replace(config, max_positions=end)
    rng = np.random.default_rng(0)
    tokens = rng.integers(0, config.vocab_size, size=end).tolist()
    root = CacheStore(config, dtype=weights.dtype)
    root.append_token_ids(tokens[:PROBE_PREFIX])
    for li in range(config.n_layers):
        k, v = rng.standard_normal((2, PROBE_PREFIX, config.d_model)).astype(weights.dtype)
        root.append_rows(li, k, v, [None] * PROBE_PREFIX)
    root.seal()
    fork = root.fork_shared(PROBE_PREFIX)
    run = _forward_run(tokens[PROBE_PREFIX:], PROBE_PREFIX, weights, config,
                       policy, root, CostLedger(), want_logits=True)
    for p in range(PROBE_PREFIX, end):
        alone = _forward_run(tokens[p:p + 1], p, weights, config, policy, fork,
                             CostLedger(), want_logits=True)
    what = first_row_difference(root, fork, end)
    if what is None and run.tobytes() != alone.tobytes():
        what = "the last logits differ"
    return what and f"{what} between a 3-row run and its rows run one at a time"


def greedy_pick(logits: np.ndarray) -> int:
    """Argmax over the vocabulary; ties break toward the lowest token id."""
    logits = np.asarray(logits)
    if logits.ndim != 1 or logits.size == 0:
        raise ContractViolationError("greedy_pick expects a non-empty vector")
    if not np.isfinite(logits).all():
        raise ContractViolationError("greedy_pick received non-finite logits")
    return int(logits.argmax())
