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
GELU, rotary tables and rotation) on whole sequences; only the masked
attention and the backward helpers live here.

The backward runs only the rows from the activation point on (all rows for
a classic adapter). That is exact: a row before the activation point is
made from base weights and earlier tokens alone, so no gradient to an A or
B factor passes through it, and such a row's loss term has none either.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .adapters import (MODE_ALORA, AdapterSpec, LowRankDelta, as_token_ids,
                       zero_adapter)
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


# ---------------------------------------------------------------------- #
# loss

def sft_loss(logits: np.ndarray, example: SftExample) -> float:
    """Mean cross-entropy over target positions (next-token prediction)."""
    n = len(example.tokens)
    if logits.shape[0] < n:
        raise ContractViolationError(
            f"logits cover {logits.shape[0]} rows, example has {n} tokens")
    return float(_loss_and_grad_logits(logits[:n], example)[0])


def _loss_and_grad_logits(logits: np.ndarray, *examples: SftExample):
    """Per-example loss (mean over its targets) and dL/dlogits.

    ``logits`` is (T, V) for one example, or (B, T, V) for B examples of one
    shape in the order given; the loss is then a (B,) array.
    """
    first = examples[0]
    tokens = np.reshape([ex.tokens for ex in examples], logits.shape[:-1])
    rows = slice(first.target_start - 1, tokens.shape[-1] - 1)
    targets = tokens[..., first.target_start:, None]
    n_t = targets.shape[-2]
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
    """d gelu / dx at ``x``, given the forward's ``t`` = tanh(...)."""
    return 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * GELU_K * (1.0 + 3.0 * GELU_C * x * x)


def _heads(x: np.ndarray) -> np.ndarray:
    """(..., T, H, d_head) as a (..., H, T, d_head) view."""
    return np.swapaxes(x, -2, -3)


def _batch_sum(g: np.ndarray) -> np.ndarray:
    """Sum per-example products (..., m, n) over their examples, in order."""
    return np.add.reduce(g.reshape((-1,) + g.shape[-2:]), axis=0)


def _forward_tape(tokens, t_invoke: int, weights: ModelWeights,
                  config: ModelConfig, deltas: Optional[Deltas],
                  dropout: Optional[Dict[ParamKey, np.ndarray]] = None):
    """Forward over ``tokens``, (T,) or (B, T) with one t_invoke; returns
    (logits, tape) for the backward pass. Dropout masks are (..., rows
    from t_invoke, rank) per adapted projection."""
    tokens = np.asarray(tokens)
    deltas = deltas or {}
    T = tokens.shape[-1]
    heads = tokens.shape + (config.n_heads, config.d_head)
    cos, sin = rope_tables(np.arange(T), config, weights.dtype)
    causal = np.tril(np.ones((T, T), dtype=bool))
    inv_sqrt = 1.0 / math.sqrt(config.d_head)
    x = weights.token_embedding[tokens]
    tape = {"cos": cos, "sin": sin, "layers": [], "t_invoke": t_invoke}
    for li, layer in enumerate(weights.layers):
        n1, root1 = rms_norm_row(x, layer.norm_attn)
        rec = {"x_in": x, "n1": n1, "root1": root1}
        projections = []
        for proj, w in (("q", layer.w_q), ("k", layer.w_k), ("v", layer.w_v)):
            out = n1 @ w
            delta = deltas.get((li, proj))
            if delta is not None and t_invoke < T:
                u = n1[..., t_invoke:, :] @ delta.a
                mask = dropout.get((li, proj)) if dropout else None
                ud = u * mask if mask is not None else u
                out[..., t_invoke:, :] += delta.scale * (ud @ delta.b)
                rec[f"ud_{proj}"] = ud
            projections.append(out)
        q, k, v = projections
        qr = rope_rotate_heads(q, cos, sin).reshape(heads)
        kr = rope_rotate_heads(k, cos, sin).reshape(heads)
        v = v.reshape(heads)
        s = (_heads(qr) @ np.swapaxes(_heads(kr), -1, -2)) * inv_sqrt
        s = np.where(causal, s, -np.inf)
        e = np.exp(s - s.max(axis=-1, keepdims=True))
        probs = e / e.sum(axis=-1, keepdims=True)
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
              dropout: Optional[Dict[ParamKey, np.ndarray]] = None):
    """Gradients of the loss w.r.t. every A and B factor, summed over the
    tape's examples; base weights frozen.

    Only rows from the activation point t0 on are run back (see the module
    docstring). Query rows t0 on keep all their keys; key rows t0 on get
    dk and dv from those query rows alone, as probs[i, j] is 0 for j > i."""
    t0 = tape["t_invoke"]
    rows = (Ellipsis, slice(t0, None), slice(None))
    # the transpose of the rotation turns back by -angle
    cos, back = tape["cos"][t0:], -tape["sin"][t0:]
    inv_sqrt = 1.0 / math.sqrt(config.d_head)
    grads_a = {k: np.zeros_like(d.a) for k, d in deltas.items()}
    grads_b = {k: np.zeros_like(d.b) for k, d in deltas.items()}

    dnf = dlogits[rows] @ weights.unembedding.T
    dx = _rms_backward(dnf, tape["x_out"][rows], tape["rootf"][rows],
                       weights.norm_final)
    for li in range(config.n_layers - 1, -1, -1):
        layer = weights.layers[li]
        rec = tape["layers"][li]
        # MLP block (residual): x_out = x_mid + gelu(n2 @ up) @ down; a
        # C-ordered down.T gives each row the bits it gets among all T rows
        dg = dx @ np.ascontiguousarray(layer.mlp_down.T)
        duff = dg * _gelu_grad(rec["uff"][rows], rec["tanh"][rows])
        dn2 = duff @ layer.mlp_up.T
        dx = dx + _rms_backward(dn2, rec["x_mid"][rows], rec["root2"][rows],
                                layer.norm_mlp)
        # attention block (residual): x_mid = x_in + mix @ w_o
        q = rec["qr"][..., t0:, :, :]
        dmix = _heads((dx @ layer.w_o.T).reshape(q.shape))
        p, qh, kh, vh = rec["probs"][rows], _heads(q), _heads(rec["kr"]), _heads(rec["v"])
        dp = dmix @ np.swapaxes(vh, -1, -2)
        dv = np.swapaxes(p[..., t0:], -1, -2) @ dmix
        ds = p * (dp - np.sum(dp * p, axis=-1, keepdims=True))
        dqr = (ds @ kh) * inv_sqrt
        dkr = (np.swapaxes(ds[..., t0:], -1, -2) @ qh) * inv_sqrt
        dq = rope_rotate_heads(_heads(dqr).reshape(dx.shape), cos, back)
        dk = rope_rotate_heads(_heads(dkr).reshape(dx.shape), cos, back)
        dvf = _heads(dv).reshape(dx.shape)
        dn1 = dq @ layer.w_q.T + dk @ layer.w_k.T + dvf @ layer.w_v.T
        n1_t = np.swapaxes(rec["n1"][rows], -1, -2)
        for proj, dproj in (("q", dq), ("k", dk), ("v", dvf)):
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
    return grads_a, grads_b


def _first_adapted(example: SftExample, mode: str) -> int:
    return example.t_invoke if mode == MODE_ALORA else 0


def _batch_loss_and_grads(batch: Sequence[SftExample], weights: ModelWeights,
                          config: ModelConfig, deltas: Deltas,
                          mode: str, masks=None):
    """Per-example losses, in batch order, and the A/B gradients summed
    over the batch. Each example's dropout mask, if ``masks`` is given, is
    one array holding a (rows from the activation point, rank) block per
    delta, in sorted key order, in C order."""
    groups: Dict[Tuple[int, int, int], List[int]] = {}
    for i, ex in enumerate(batch):
        shape = (len(ex.tokens), _first_adapted(ex, mode), ex.target_start)
        groups.setdefault(shape, []).append(i)
    losses = np.empty(len(batch))
    grads_a = {k: np.zeros_like(d.a) for k, d in deltas.items()}
    grads_b = {k: np.zeros_like(d.b) for k, d in deltas.items()}
    for (_, t_invoke, _), members in groups.items():
        group = [batch[i] for i in members]
        dropout = None
        if masks is not None:
            flat = np.stack([masks[i] for i in members]).reshape(len(members), -1)
            rows, at, dropout = len(group[0].tokens) - t_invoke, 0, {}
            for key in sorted(deltas):
                size = rows * deltas[key].rank
                dropout[key] = flat[:, at:at + size].reshape(len(members), rows, -1)
                at += size
        logits, tape = _forward_tape([ex.tokens for ex in group], t_invoke,
                                     weights, config, deltas, dropout)
        losses[members], dlogits = _loss_and_grad_logits(logits, *group)
        ga, gb = _backward(tape, dlogits, weights, config, deltas, dropout)
        for key in grads_a:
            grads_a[key] += ga[key]
            grads_b[key] += gb[key]
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
    """Adam over every A and B factor of ``deltas``, updated in place."""

    def __init__(self, deltas: Deltas, learning_rate: float):
        self.learning_rate = learning_rate
        self.t = 0
        self.m = {(which, k): np.zeros_like(getattr(d, which))
                  for which in "ab" for k, d in deltas.items()}
        self.v = {slot: np.zeros_like(m) for slot, m in self.m.items()}

    def step(self, deltas: Deltas, grads_a, grads_b):
        self.t += 1
        bc1 = 1.0 - ADAM_BETA1 ** self.t
        bc2 = 1.0 - ADAM_BETA2 ** self.t
        for which, grads in (("a", grads_a), ("b", grads_b)):
            for key, g in grads.items():
                slot = (which, key)
                self.m[slot] = ADAM_BETA1 * self.m[slot] + (1 - ADAM_BETA1) * g
                self.v[slot] = ADAM_BETA2 * self.v[slot] + (1 - ADAM_BETA2) * g * g
                update = (self.m[slot] / bc1) / (np.sqrt(self.v[slot] / bc2) + ADAM_EPS)
                factor = getattr(deltas[key], which)
                factor -= self.learning_rate * update


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
    # writable copies: Adam updates them in place
    deltas = _cast(spec.deltas or zero_adapter(
        model_config.d_model, model_config.n_layers, rank=train_config.rank,
        alpha=train_config.alpha, mode=spec.mode, adapter_id=spec.adapter_id,
        seed=train_config.seed, invocation_sequence=spec.invocation_sequence,
        dtype=dtype).deltas, dtype)
    total_rank = sum(d.rank for d in deltas.values())
    trained = lambda: replace(spec, deltas=_cast(deltas, np.float32))
    rng = np.random.default_rng(train_config.seed)
    adam = _Adam(deltas, train_config.learning_rate)
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
        losses, grads_a, grads_b = _batch_loss_and_grads(
            batch, w, model_config, deltas, spec.mode, masks)
        # left to right in batch order
        total_loss = float(np.add.accumulate(losses)[-1])
        if not math.isfinite(total_loss):
            raise TrainingDivergedError(step)
        adam.step(deltas, grads_a, grads_b)
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
