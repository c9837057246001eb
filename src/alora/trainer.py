"""Supervised finetuning of adapter deltas with hand-written backprop.

The trainer optimises copies of the spec's own ``LowRankDelta`` factors in
the training dtype, each delta keeping its rank, alpha and scale; only
these receive gradients, and base weights are frozen. A training step
stacks the examples of each shape (length, activation point, target start)
on a batch axis and runs one forward/backward pair per shape, unpadded.
The activation point comes from the example structure (one token after the
invocation sequence starts, i.e. len(context) + 1), and the loss covers
target positions only: the logit row at position p-1 predicts token p.

Training batches are reduced by summation (per-example losses are target
means, and gradients are summed over examples in batch order), so
duplicating an example in a batch exactly doubles its gradient
contribution. Dropout applies to the x@A intermediate only and is disabled
for gradient checks. The f64 precision mode exists for finite-difference
verification; real runs default to f32.

The forward tape runs the engine's own primitives from model.py (RMS norm,
GELU, rotary tables and rotation) on whole sequences, and, as the engine
does, projects q|k|v in one product against [W_Q | W_K | W_V]; only the
masked attention and the backward helpers live here.

A training step computes only what its loss reads, and each cut is exact:
- It runs every token but the last. The last row predicts no target, and
  as the last key it is read by no other row.
- The last layer computes its attention output, W_O, MLP, final norm and
  logits only from row min(activation point, first loss row) on; it keeps
  every row's K/V. No other row reads a row's last-layer output, and the
  backward starts at the activation point.
- The backward runs only the rows from the activation point on (all rows
  for a classic adapter). A row before it is made from base weights and
  earlier tokens alone, so no gradient to an A or B factor passes through
  it, and such a row's loss term has none either.
``example_loss`` runs the full forward. On copy-key's 9-token examples the
step's losses and gradients are bitwise those of the full computation; on
other lengths numpy may group a softmax row's sum otherwise without the
last (zero) term, and they agree to rounding.

The trained factors, their gradients and Adam's moments are views of flat
buffers (``_flat_factors``), so one Adam update is a few array operations
over all factors at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .adapters import (MODE_ALORA, PROJECTIONS, AdapterSpec, LowRankDelta,
                       as_token_ids, zero_adapter)
from .engine import Engine, GenerationRequest
from .errors import (ConfigurationError, ContractViolationError,
                     TrainingDivergedError)
from .model import (GELU_C, GELU_K, ModelConfig, ModelWeights, gelu,
                    rms_norm_row, rope_rotate_heads, rope_tables)

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass(frozen=True)
class SftExample:
    context_tokens: Tuple[int, ...]
    invocation_tokens: Tuple[int, ...]
    target_tokens: Tuple[int, ...]

    def __post_init__(self):
        for name in ("context_tokens", "invocation_tokens", "target_tokens"):
            object.__setattr__(self, name, tuple(as_token_ids(getattr(self, name))))
        if not self.invocation_tokens:
            raise ConfigurationError("examples need a non-empty invocation")
        if not self.target_tokens:
            raise ContractViolationError("example has an empty target")

    @property
    def tokens(self) -> List[int]:
        return list(self.context_tokens + self.invocation_tokens + self.target_tokens)

    @property
    def t_invoke(self) -> int:
        return len(self.context_tokens) + 1

    @property
    def target_start(self) -> int:
        return len(self.context_tokens) + len(self.invocation_tokens)


@dataclass
class TrainConfig:
    learning_rate: float = 1e-3
    steps: int = 1000
    batch_size: int = 8
    rank: int = 8
    alpha: float = 32.0
    dropout_rate: float = 0.0
    seed: int = 0
    precision: str = "f32"
    eval_every: int = 250

    def __post_init__(self):
        for name, least in (("steps", 0), ("batch_size", 1), ("rank", 1),
                            ("eval_every", 1)):
            if getattr(self, name) < least:
                raise ConfigurationError(
                    f"{name} must be at least {least}, got {getattr(self, name)}")
        for name in ("learning_rate", "alpha"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ConfigurationError(
                    f"{name} must be finite and positive, got {value}")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ConfigurationError("dropout_rate must be in [0, 1)")
        if self.precision not in ("f32", "f64"):
            raise ConfigurationError(f"unknown precision {self.precision!r}")

    @property
    def dtype(self):
        return np.float64 if self.precision == "f64" else np.float32


# ---------------------------------------------------------------------- #
# the trained factors: the engine's own deltas, in the training dtype

ParamKey = Tuple[int, str]
Deltas = Dict[ParamKey, LowRankDelta]


def _cast(deltas: Deltas, dtype) -> Deltas:
    """Copies of ``deltas`` with their factors in ``dtype``."""
    return {key: LowRankDelta(a=d.a.astype(dtype), b=d.b.astype(dtype),
                              rank=d.rank, alpha=d.alpha)
            for key, d in deltas.items()}


def _flat_factors(deltas: Deltas, dtype):
    """(buffer, a, b): one zeroed flat buffer in ``dtype``, and per key of
    ``deltas`` views of it shaped like that delta's A and B factors."""
    keys = sorted(deltas)
    buffer = np.zeros(sum(deltas[k].a.size + deltas[k].b.size for k in keys),
                      dtype)
    views, at = ({}, {}), 0
    for key in keys:
        for out, factor in zip(views, (deltas[key].a, deltas[key].b)):
            out[key] = buffer[at:at + factor.size].reshape(factor.shape)
            at += factor.size
    return (buffer,) + views


# ---------------------------------------------------------------------- #
# loss

def sft_loss(logits: np.ndarray, example: SftExample) -> float:
    """Mean cross-entropy over target positions (next-token prediction)."""
    n = len(example.tokens)
    if logits.shape[0] < n:
        raise ContractViolationError(
            f"logits cover {logits.shape[0]} rows, example has {n} tokens")
    return float(_loss_and_grad_logits(logits[:n], example)[0])


def _loss_and_grad_logits(logits: np.ndarray, *examples: SftExample,
                          first_row: int = 0):
    """Per-example loss (mean over its targets) and dL/dlogits.

    ``logits`` is (rows, V) for one example, or (B, rows, V) for B examples
    of one shape in the order given; the loss is then a (B,) array. Its
    first row is position ``first_row``, and its rows must reach the last
    target's row, position T - 2.
    """
    first = examples[0]
    tokens = np.reshape([ex.tokens for ex in examples], logits.shape[:-2] + (-1,))
    targets = tokens[..., first.target_start:, None]
    n_t = targets.shape[-2]
    rows = slice(first.target_start - 1 - first_row,
                 first.target_start - 1 - first_row + n_t)
    z = logits[..., rows, :]
    m = z.max(axis=-1, keepdims=True)
    e = np.exp(z - m)
    total = e.sum(axis=-1, keepdims=True)
    nll = np.log(total) + m - np.take_along_axis(z, targets, axis=-1)
    # each example's targets summed left to right, in f64
    loss = np.add.accumulate(nll[..., 0].astype(np.float64), axis=-1)[..., -1] / n_t
    dlogits = np.zeros_like(logits)
    dlogits[..., rows, :] = (e / total - (targets == np.arange(z.shape[-1]))) / n_t
    return loss, dlogits


# ---------------------------------------------------------------------- #
# forward with tape, and backward: one example is (T, d), a stack of B
# examples (B, T, d); a stacked matmul runs slice by slice, so an example
# gets the same products in a stack as alone.

def _rms_backward(dy: np.ndarray, x: np.ndarray, root: np.ndarray,
                  gain: np.ndarray) -> np.ndarray:
    # y = x / root * gain with root = sqrt(mean(x^2) + eps), per row
    dyg = dy * gain
    dot = np.sum(dyg * x, axis=-1, keepdims=True)
    return (dyg - x * (dot / (x.shape[-1] * root * root))) / root


def _gelu_grad(x: np.ndarray, t: np.ndarray) -> np.ndarray:
    """d gelu / dx at ``x``, given the forward's ``t`` = tanh(...):
    0.5 (1 + t) + 0.5 x (1 - t t) K (1 + 3 C x x), in that order of
    operations, each step in place in one of three temporaries."""
    u = x * 0.5
    tt = t * t
    np.subtract(1.0, tt, out=tt)
    u *= tt
    u *= GELU_K
    s = x * (3.0 * GELU_C)
    s *= x
    s += 1.0
    u *= s
    np.add(t, 1.0, out=tt)
    tt *= 0.5
    tt += u
    return tt


def _heads(x: np.ndarray) -> np.ndarray:
    """(..., T, H, d_head) as a (..., H, T, d_head) view."""
    return np.swapaxes(x, -2, -3)


def _batch_sum(g: np.ndarray) -> np.ndarray:
    """Sum per-example products (..., m, n) over their examples, in order."""
    return np.add.reduce(g.reshape((-1,) + g.shape[-2:]), axis=0)


def _forward_tape(tokens, t_invoke: int, weights: ModelWeights,
                  config: ModelConfig, deltas: Optional[Deltas],
                  dropout: Optional[Dict[ParamKey, np.ndarray]] = None,
                  first_logit: int = 0):
    """Forward over ``tokens``, (T,) or (B, T) with one t_invoke; returns
    the logits of rows ``first_logit`` on, and the tape for the backward
    pass. Dropout masks are (..., rows from t_invoke, rank) per adapted
    projection.

    Each layer projects q|k|v in one product against ``LayerWeights.w_qkv``
    and rotates q|k in one ``rope_rotate_heads`` call. Every layer keeps
    every row's K/V, but the last one computes its attention output, W_O,
    MLP, final norm and logits for rows ``first_logit`` on only: there, a
    row's output feeds its own logits alone."""
    tokens = np.asarray(tokens)
    deltas = deltas or {}
    T = tokens.shape[-1]
    d = config.d_model
    heads = tokens.shape + (config.n_heads, config.d_head)
    cos, sin = rope_tables(np.arange(T), config, weights.dtype)
    causal = np.tril(np.ones((T, T), dtype=bool))
    inv_sqrt = 1.0 / math.sqrt(config.d_head)
    x = weights.token_embedding[tokens]
    tape = {"cos": cos, "sin": sin, "layers": [], "t_invoke": t_invoke,
            "first_logit": first_logit}
    last = len(weights.layers) - 1
    for li, layer in enumerate(weights.layers):
        n1, root1 = rms_norm_row(x, layer.norm_attn)
        rec = {"x_in": x, "n1": n1, "root1": root1}
        qkv = n1 @ layer.w_qkv
        for j, proj in enumerate(PROJECTIONS):
            delta = deltas.get((li, proj))
            if delta is None or t_invoke >= T:
                continue
            ud = n1[..., t_invoke:, :] @ delta.a
            mask = dropout.get((li, proj)) if dropout else None
            if mask is not None:
                ud *= mask
            qkv[..., t_invoke:, j * d:(j + 1) * d] += delta.scale * (ud @ delta.b)
            rec[f"ud_{proj}"] = ud
        qk = rope_rotate_heads(qkv[..., :2 * d], cos, sin)
        qr, kr = qk[..., :d].reshape(heads), qk[..., d:].reshape(heads)
        v = qkv[..., 2 * d:].reshape(heads)
        # rows whose output this layer computes: all but in the last layer
        r = first_logit if li == last else 0
        s = (_heads(qr[..., r:, :, :]) @ np.swapaxes(_heads(kr), -1, -2)) * inv_sqrt
        s = np.where(causal[r:], s, -np.inf)
        e = np.exp(s - s.max(axis=-1, keepdims=True))
        probs = e / e.sum(axis=-1, keepdims=True)
        x = x[..., r:, :]
        x_mid = x + np.swapaxes(probs @ _heads(v), -2, -3).reshape(x.shape) @ layer.w_o
        n2, root2 = rms_norm_row(x_mid, layer.norm_mlp)
        uff = n2 @ layer.mlp_up
        g, tanh = gelu(uff)
        x = x_mid + g @ layer.mlp_down
        rec.update(qr=qr, kr=kr, v=v, probs=probs, x_mid=x_mid, root2=root2,
                   uff=uff, tanh=tanh)
        tape["layers"].append(rec)
    nf, rootf = rms_norm_row(x, weights.norm_final)
    tape.update(x_out=x, rootf=rootf)
    return nf @ weights.unembedding, tape


def _backward(tape, dlogits: np.ndarray, weights: ModelWeights,
              config: ModelConfig, deltas: Deltas,
              dropout: Optional[Dict[ParamKey, np.ndarray]] = None,
              grads: Optional[Tuple[Dict, Dict]] = None):
    """Gradients of the loss w.r.t. every A and B factor, summed over the
    tape's examples, as (grads_a, grads_b); base weights frozen. ``grads``,
    when given, is such a pair that they are added to.

    Only rows from the activation point t0 on are run back (see the module
    docstring). Query rows t0 on keep all their keys; key rows t0 on get
    dk and dv from those query rows alone, as probs[i, j] is 0 for j > i.
    ``dlogits`` and the last layer's per-row entries start at the tape's
    first logit row, the rest at row 0, so each is read at its offset."""
    t0 = tape["t_invoke"]
    if grads is None:
        grads = ({k: np.zeros_like(d.a) for k, d in deltas.items()},
                 {k: np.zeros_like(d.b) for k, d in deltas.items()})
    grads_a, grads_b = grads
    rows = (Ellipsis, slice(t0, None), slice(None))
    top = (Ellipsis, slice(t0 - tape["first_logit"], None), slice(None))
    if t0 >= len(tape["cos"]):
        return grads  # no adapted row: every gradient is 0
    d = config.d_model
    # the transpose of the rotation turns back by -angle
    cos, back = tape["cos"][t0:], -tape["sin"][t0:]
    inv_sqrt = 1.0 / math.sqrt(config.d_head)

    dnf = dlogits[top] @ weights.unembedding.T
    dx = _rms_backward(dnf, tape["x_out"][top], tape["rootf"][top],
                       weights.norm_final)
    for li in range(config.n_layers - 1, -1, -1):
        layer = weights.layers[li]
        rec = tape["layers"][li]
        own = top if li == config.n_layers - 1 else rows
        # MLP block (residual): x_out = x_mid + gelu(n2 @ up) @ down; a
        # C-ordered down.T gives each row the bits it gets among all T rows
        dg = dx @ np.ascontiguousarray(layer.mlp_down.T)
        duff = dg * _gelu_grad(rec["uff"][own], rec["tanh"][own])
        dn2 = duff @ layer.mlp_up.T
        dx = dx + _rms_backward(dn2, rec["x_mid"][own], rec["root2"][own],
                                layer.norm_mlp)
        # attention block (residual): x_mid = x_in + mix @ w_o
        q = rec["qr"][..., t0:, :, :]
        dmix = _heads((dx @ layer.w_o.T).reshape(q.shape))
        p, qh, kh, vh = rec["probs"][own], _heads(q), _heads(rec["kr"]), _heads(rec["v"])
        dp = dmix @ np.swapaxes(vh, -1, -2)
        dv = np.swapaxes(p[..., t0:], -1, -2) @ dmix
        ds = p * (dp - np.sum(dp * p, axis=-1, keepdims=True))
        dqr = (ds @ kh) * inv_sqrt
        dkr = (np.swapaxes(ds[..., t0:], -1, -2) @ qh) * inv_sqrt
        dqk = np.concatenate((_heads(dqr), _heads(dkr)), axis=-2)
        dqk = rope_rotate_heads(dqk.reshape(dx.shape[:-1] + (2 * d,)), cos, back)
        dq, dk = dqk[..., :d], dqk[..., d:]
        dvf = _heads(dv).reshape(dx.shape)
        dn1 = dq @ layer.w_q.T + dk @ layer.w_k.T + dvf @ layer.w_v.T
        n1_t = np.swapaxes(rec["n1"][rows], -1, -2)
        for proj, dproj in zip(PROJECTIONS, (dq, dk, dvf)):
            key = (li, proj)
            delta = deltas.get(key)
            if delta is None:
                continue
            grads_b[key] += _batch_sum(
                delta.scale * (np.swapaxes(rec[f"ud_{proj}"], -1, -2) @ dproj))
            dud = delta.scale * (dproj @ delta.b.T)
            mask = dropout.get(key) if dropout else None
            du = dud * mask if mask is not None else dud
            grads_a[key] += _batch_sum(n1_t @ du)
            dn1 += du @ delta.a.T
        dx = dx + _rms_backward(dn1, rec["x_in"][rows], rec["root1"][rows],
                                layer.norm_attn)
    return grads


def _first_adapted(example: SftExample, mode: str) -> int:
    return example.t_invoke if mode == MODE_ALORA else 0


def _batch_loss_and_grads(batch: Sequence[SftExample], weights: ModelWeights,
                          config: ModelConfig, deltas: Deltas,
                          mode: str, masks=None, grads=None):
    """Per-example losses, in batch order, and the A/B gradients summed
    over the batch: (losses, grads_a, grads_b). ``grads``, a
    ``_flat_factors`` triple for ``deltas``, is overwritten with them when
    given. Each example's dropout mask, if ``masks`` is given, is one array
    holding a (rows from the activation point, rank) block per delta, in
    sorted key order, in C order.

    A shape group runs its tokens but the last, whose row neither a loss
    term nor a key reads, and the last layer computes rows from
    min(activation point, first loss row) on only (``_forward_tape``). The
    masks of the last row are drawn, so the random stream is unchanged,
    and left unread."""
    groups: Dict[Tuple[int, int, int], List[int]] = {}
    for i, ex in enumerate(batch):
        shape = (len(ex.tokens), _first_adapted(ex, mode), ex.target_start)
        groups.setdefault(shape, []).append(i)
    losses = np.empty(len(batch))
    buffer, grads_a, grads_b = grads or _flat_factors(deltas, weights.dtype)
    buffer[...] = 0
    for (n, t_invoke, target_start), members in groups.items():
        group = [batch[i] for i in members]
        first_logit = min(t_invoke, target_start - 1)
        dropout = None
        if masks is not None:
            flat = np.stack([masks[i] for i in members]).reshape(len(members), -1)
            rows, at, dropout = n - t_invoke, 0, {}
            for key in sorted(deltas):
                size = rows * deltas[key].rank
                dropout[key] = flat[:, at:at + size].reshape(
                    len(members), rows, -1)[:, :-1]
                at += size
        tokens = [ex.tokens[:-1] for ex in group]
        logits, tape = _forward_tape(tokens, t_invoke, weights, config, deltas,
                                     dropout, first_logit)
        losses[members], dlogits = _loss_and_grad_logits(
            logits, *group, first_row=first_logit)
        _backward(tape, dlogits, weights, config, deltas, dropout,
                  (grads_a, grads_b))
    return losses, grads_a, grads_b


def example_loss(example: SftExample, weights: ModelWeights, config: ModelConfig,
                 deltas: Optional[Deltas], mode: str = MODE_ALORA) -> float:
    """Forward-only loss; the quantity the finite-difference oracle probes."""
    logits, _ = _forward_tape(example.tokens, _first_adapted(example, mode),
                              weights, config, deltas)
    return sft_loss(logits, example)


def backward_adapter(example: SftExample, spec: AdapterSpec,
                     weights: ModelWeights, config: ModelConfig):
    """Exact reverse-mode gradients of sft_loss for every A and B factor."""
    _, grads_a, grads_b = _batch_loss_and_grads(
        [example], weights, config, _cast(spec.deltas, weights.dtype), spec.mode)
    return grads_a, grads_b


# ---------------------------------------------------------------------- #
# training loop

@dataclass
class TrainResult:
    spec: AdapterSpec
    history: List[dict] = field(default_factory=list)
    final_exact_match: Optional[float] = None


class _Adam:
    """Adam over a flat buffer of factors (``_flat_factors``), updated in
    place: each step of the rule is one array op over every factor."""

    def __init__(self, params: np.ndarray, learning_rate: float):
        self.params = params
        self.learning_rate = learning_rate
        self.t = 0
        self.m = np.zeros_like(params)
        self.v = np.zeros_like(params)

    def step(self, grads: np.ndarray):
        self.t += 1
        bc1 = 1.0 - ADAM_BETA1 ** self.t
        bc2 = 1.0 - ADAM_BETA2 ** self.t
        m, v = self.m, self.v
        m *= ADAM_BETA1
        m += (1 - ADAM_BETA1) * grads
        v *= ADAM_BETA2
        v += (1 - ADAM_BETA2) * grads * grads
        self.params -= self.learning_rate * ((m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS))


def train(dataset: Sequence[SftExample], spec: AdapterSpec, weights: ModelWeights,
          model_config: ModelConfig, train_config: TrainConfig,
          eval_dataset: Optional[Sequence[SftExample]] = None) -> TrainResult:
    """Adam on the low-rank factors only; deterministic under the seed.

    ``spec`` is the adapter template (id, mode, invocation sequence). When it
    carries deltas, training continues from them, each keeping its rank and
    alpha; otherwise they start from ``zero_adapter`` (Gaussian A, zero B)
    under the train config. Returns ``spec`` with the trained deltas in f32.
    """
    if not dataset:
        raise ContractViolationError("training dataset is empty")
    spec.check_fits(model_config)
    dtype = train_config.dtype
    w = weights if weights.dtype == dtype else weights.astype(dtype)
    start = spec.deltas or zero_adapter(
        model_config.d_model, model_config.n_layers, rank=train_config.rank,
        alpha=train_config.alpha, mode=spec.mode, adapter_id=spec.adapter_id,
        seed=train_config.seed, invocation_sequence=spec.invocation_sequence,
        dtype=dtype).deltas
    # writable factors in ``dtype``, views of the flat buffer Adam updates
    params, a, b = _flat_factors(start, dtype)
    deltas = {}
    for key, delta in start.items():
        a[key][...], b[key][...] = delta.a, delta.b
        deltas[key] = replace(delta, a=a[key], b=b[key])
    grads = _flat_factors(deltas, dtype)
    total_rank = sum(d.rank for d in deltas.values())
    trained = lambda: replace(spec, deltas=_cast(deltas, np.float32))
    rng = np.random.default_rng(train_config.seed)
    adam = _Adam(params, train_config.learning_rate)
    engine = Engine(weights, model_config) if eval_dataset else None
    history: List[dict] = []
    rate = train_config.dropout_rate

    for step in range(1, train_config.steps + 1):
        batch = [dataset[int(i)] for i in
                 rng.integers(0, len(dataset), size=train_config.batch_size)]
        masks = None
        if rate > 0.0:
            masks = [(rng.random(
                (len(ex.tokens) - _first_adapted(ex, spec.mode)) * total_rank)
                >= rate).astype(dtype) / dtype(1.0 - rate) for ex in batch]
        losses, _, _ = _batch_loss_and_grads(
            batch, w, model_config, deltas, spec.mode, masks, grads)
        # left to right in batch order
        total_loss = float(np.add.accumulate(losses)[-1])
        if not math.isfinite(total_loss):
            raise TrainingDivergedError(step)
        adam.step(grads[0])
        row = {"step": step, "loss": total_loss / train_config.batch_size,
               "eval_exact_match": None}
        if eval_dataset and (step % train_config.eval_every == 0
                             or step == train_config.steps):
            row["eval_exact_match"] = evaluate_exact_match(
                engine, trained(), eval_dataset)
        history.append(row)

    final = None
    if history and history[-1]["eval_exact_match"] is not None:
        final = history[-1]["eval_exact_match"]
    elif eval_dataset:
        final = evaluate_exact_match(engine, trained(), eval_dataset)
    return TrainResult(spec=trained(), history=history,
                       final_exact_match=final)


def evaluate_exact_match(engine: Engine, spec: AdapterSpec,
                         examples: Sequence[SftExample]) -> float:
    """Greedy-decode each example's target length; exact sequence match rate."""
    hits = 0
    for example in examples:
        prompt = list(example.context_tokens) + list(example.invocation_tokens)
        result = engine.generate(GenerationRequest(
            prompt_tokens=prompt, adapter=spec,
            max_new_tokens=len(example.target_tokens)))
        if result.new_tokens == list(example.target_tokens):
            hits += 1
    return hits / len(examples) if examples else 0.0


def save_metrics_csv(path, history: Sequence[dict]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("step,loss,eval_exact_match\n")
        for row in history:
            ev = row.get("eval_exact_match")
            fh.write(f"{row['step']},{row['loss']:.6f},"
                     f"{'' if ev is None else f'{ev:.4f}'}\n")
