"""Supervised finetuning of adapter deltas with hand-written backprop.

Only the low-rank factors receive gradients; base weights are frozen. A
training step stacks the examples of each shape (length, activation point,
target start) on a batch axis and runs one forward/backward pair per shape,
unpadded. The activation point comes from the example structure (one token
after the invocation sequence starts, i.e. len(context) + 1), and the loss
covers target positions only: the logit row at position p-1 predicts token p.

Training batches are reduced by summation (per-example losses are target
means, and gradients are summed over examples in batch order), so
duplicating an example in a batch exactly doubles its gradient
contribution. Dropout applies to the x@A intermediate only and is disabled
for gradient checks. The f64 precision mode exists for finite-difference
verification; real runs default to f32.

The forward tape runs the engine's own primitives from model.py (RMS norm,
GELU, rotary tables and rotation) on whole sequences; only the masked
attention and the backward helpers live here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .adapters import MODE_ALORA, AdapterSpec, LowRankDelta, PROJECTIONS
from .engine import Engine, GenerationRequest
from .errors import (ConfigurationError, ContractViolationError,
                     TrainingDivergedError)
from .model import (GELU_C, GELU_K, ModelConfig, ModelWeights, gelu,
                    rms_norm_row, rope_rotate_heads, rope_tables)


@dataclass(frozen=True)
class SftExample:
    context_tokens: Tuple[int, ...]
    invocation_tokens: Tuple[int, ...]
    target_tokens: Tuple[int, ...]

    def __post_init__(self):
        for name in ("context_tokens", "invocation_tokens", "target_tokens"):
            object.__setattr__(self, name, tuple(int(t) for t in getattr(self, name)))
        if not self.invocation_tokens:
            raise ConfigurationError("examples need a non-empty invocation")

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
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8

    def __post_init__(self):
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ConfigurationError("dropout_rate must be in [0, 1)")
        if self.precision not in ("f32", "f64"):
            raise ConfigurationError(f"unknown precision {self.precision!r}")

    @property
    def dtype(self):
        return np.float64 if self.precision == "f64" else np.float32


# ---------------------------------------------------------------------- #
# adapter parameter block

ParamKey = Tuple[int, str]


@dataclass
class AdapterParams:
    """Mutable training view of the low-rank factors."""

    a: Dict[ParamKey, np.ndarray]
    b: Dict[ParamKey, np.ndarray]
    rank: int
    alpha: float

    @property
    def scale(self) -> float:
        return self.alpha / self.rank

    def keys(self):
        return sorted(self.a)

    @classmethod
    def initialize(cls, config: ModelConfig, rank: int, alpha: float, seed: int,
                   dtype=np.float32, targets: Sequence[str] = PROJECTIONS,
                   init_std: float = 0.02) -> "AdapterParams":
        """Standard init: Gaussian A, zero B, so step 0 is exactly the base model."""
        rng = np.random.default_rng(seed)
        a, b = {}, {}
        for layer in range(config.n_layers):
            for proj in targets:
                a[(layer, proj)] = (init_std * rng.standard_normal(
                    (config.d_model, rank))).astype(dtype)
                b[(layer, proj)] = np.zeros((rank, config.d_model), dtype=dtype)
        return cls(a=a, b=b, rank=rank, alpha=alpha)

    @classmethod
    def from_spec(cls, spec: AdapterSpec, dtype=np.float32) -> "AdapterParams":
        if not spec.deltas:
            raise ConfigurationError("adapter spec carries no deltas")
        first = next(iter(spec.deltas.values()))
        a = {key: delta.a.astype(dtype) for key, delta in spec.deltas.items()}
        b = {key: delta.b.astype(dtype) for key, delta in spec.deltas.items()}
        return cls(a=a, b=b, rank=first.rank, alpha=first.alpha)

    def to_spec(self, template: AdapterSpec) -> AdapterSpec:
        deltas = {
            key: LowRankDelta(a=self.a[key].astype(np.float32),
                              b=self.b[key].astype(np.float32),
                              rank=self.rank, alpha=self.alpha)
            for key in self.a}
        return AdapterSpec(adapter_id=template.adapter_id, mode=template.mode,
                           deltas=deltas,
                           invocation_sequence=template.invocation_sequence,
                           max_new_tokens=template.max_new_tokens)


# ---------------------------------------------------------------------- #
# loss

def sft_loss(logits: np.ndarray, example: SftExample) -> float:
    """Mean cross-entropy over target positions (next-token prediction)."""
    n = len(example.tokens)
    if logits.shape[0] < n:
        raise ContractViolationError(
            f"logits cover {logits.shape[0]} rows, example has {n} tokens")
    if not example.target_tokens:
        raise ContractViolationError("example has an empty target")
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

def _rope_unapply(g: np.ndarray, cos: np.ndarray, sin: np.ndarray) -> np.ndarray:
    # transpose of the rotation: rotate gradients back by -angle
    even, odd = g[..., 0::2], g[..., 1::2]
    c, s = cos[:, None, :], sin[:, None, :]
    out = np.empty_like(g)
    out[..., 0::2] = even * c + odd * s
    out[..., 1::2] = -even * s + odd * c
    return out


def _rms_backward(dy: np.ndarray, x: np.ndarray, root: np.ndarray,
                  gain: np.ndarray) -> np.ndarray:
    # y = x / root * gain with root = sqrt(mean(x^2) + eps), per row
    dyg = dy * gain
    dot = np.sum(dyg * x, axis=-1, keepdims=True)
    return (dyg - x * (dot / (x.shape[-1] * root * root))) / root


def _gelu_grad(x: np.ndarray) -> np.ndarray:
    t = np.tanh(GELU_K * (x + GELU_C * x * x * x))
    return 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * GELU_K * (1.0 + 3.0 * GELU_C * x * x)


def _heads(x: np.ndarray) -> np.ndarray:
    """(..., T, H, d_head) as a (..., H, T, d_head) view."""
    return np.swapaxes(x, -2, -3)


def _batch_sum(g: np.ndarray) -> np.ndarray:
    """Sum per-example products (..., m, n) over their examples, in order."""
    return np.add.reduce(g.reshape((-1,) + g.shape[-2:]), axis=0)


def _forward_tape(tokens, t_invoke: int, weights: ModelWeights,
                  config: ModelConfig, params: Optional[AdapterParams],
                  dropout: Optional[Dict[ParamKey, np.ndarray]] = None):
    """Forward over ``tokens``, (T,) or (B, T) with one t_invoke; returns
    (logits, tape) for the backward pass. Dropout masks are (..., rows
    from t_invoke, rank) per adapted projection."""
    tokens = np.asarray(tokens)
    T = tokens.shape[-1]
    heads = tokens.shape + (config.n_heads, config.d_head)
    cos, sin = rope_tables(np.arange(T), config, weights.dtype)
    causal = np.tril(np.ones((T, T), dtype=bool))
    inv_sqrt = 1.0 / math.sqrt(config.d_head)
    x = weights.token_embedding[tokens]
    scale = params.scale if params is not None else 0.0
    tape = {"cos": cos, "sin": sin, "layers": [], "t_invoke": t_invoke}
    for li, layer in enumerate(weights.layers):
        n1, root1 = rms_norm_row(x, layer.norm_attn)
        rec = {"x_in": x, "n1": n1, "root1": root1}
        projections = []
        for proj, w in (("q", layer.w_q), ("k", layer.w_k), ("v", layer.w_v)):
            out = n1 @ w
            key = (li, proj)
            if params is not None and key in params.a and t_invoke < T:
                u = n1[..., t_invoke:, :] @ params.a[key]
                mask = dropout.get(key) if dropout else None
                ud = u * mask if mask is not None else u
                out[..., t_invoke:, :] += scale * (ud @ params.b[key])
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
        x = x_mid + gelu(uff) @ layer.mlp_down
        rec.update(qr=qr, kr=kr, v=v, probs=probs, x_mid=x_mid, root2=root2,
                   uff=uff)
        tape["layers"].append(rec)
    nf, rootf = rms_norm_row(x, weights.norm_final)
    tape.update(x_out=x, rootf=rootf)
    return nf @ weights.unembedding, tape


def _backward(tape, dlogits: np.ndarray, weights: ModelWeights,
              config: ModelConfig, params: AdapterParams,
              dropout: Optional[Dict[ParamKey, np.ndarray]] = None):
    """Gradients of the loss w.r.t. every A and B factor, summed over the
    tape's examples; base weights frozen."""
    t_invoke = tape["t_invoke"]
    cos, sin = tape["cos"], tape["sin"]
    scale = params.scale
    inv_sqrt = 1.0 / math.sqrt(config.d_head)
    grads_a = {k: np.zeros_like(v) for k, v in params.a.items()}
    grads_b = {k: np.zeros_like(v) for k, v in params.b.items()}

    dnf = dlogits @ weights.unembedding.T
    dx = _rms_backward(dnf, tape["x_out"], tape["rootf"], weights.norm_final)
    for li in range(config.n_layers - 1, -1, -1):
        layer = weights.layers[li]
        rec = tape["layers"][li]
        # MLP block (residual): x_out = x_mid + gelu(n2 @ up) @ down
        dg = dx @ layer.mlp_down.T
        duff = dg * _gelu_grad(rec["uff"])
        dn2 = duff @ layer.mlp_up.T
        dx = dx + _rms_backward(dn2, rec["x_mid"], rec["root2"], layer.norm_mlp)
        # attention block (residual): x_mid = x_in + mix @ w_o
        dmix = _heads((dx @ layer.w_o.T).reshape(rec["qr"].shape))
        p, qh, kh, vh = rec["probs"], _heads(rec["qr"]), _heads(rec["kr"]), _heads(rec["v"])
        dp = dmix @ np.swapaxes(vh, -1, -2)
        dv = np.swapaxes(p, -1, -2) @ dmix
        ds = p * (dp - np.sum(dp * p, axis=-1, keepdims=True))
        dqr = (ds @ kh) * inv_sqrt
        dkr = (np.swapaxes(ds, -1, -2) @ qh) * inv_sqrt
        dq = _rope_unapply(_heads(dqr), cos, sin).reshape(dx.shape)
        dk = _rope_unapply(_heads(dkr), cos, sin).reshape(dx.shape)
        dvf = _heads(dv).reshape(dx.shape)
        dn1 = dq @ layer.w_q.T + dk @ layer.w_k.T + dvf @ layer.w_v.T
        if t_invoke < dx.shape[-2]:
            n1a_t = np.swapaxes(rec["n1"][..., t_invoke:, :], -1, -2)
            for proj, dproj in (("q", dq), ("k", dk), ("v", dvf)):
                key = (li, proj)
                if key not in params.a:
                    continue
                da = dproj[..., t_invoke:, :]
                grads_b[key] += _batch_sum(
                    scale * (np.swapaxes(rec[f"ud_{proj}"], -1, -2) @ da))
                dud = scale * (da @ params.b[key].T)
                mask = dropout.get(key) if dropout else None
                du = dud * mask if mask is not None else dud
                grads_a[key] += _batch_sum(n1a_t @ du)
                dn1[..., t_invoke:, :] += du @ params.a[key].T
        dx = dx + _rms_backward(dn1, rec["x_in"], rec["root1"], layer.norm_attn)
    return grads_a, grads_b


def _first_adapted(example: SftExample, mode: str) -> int:
    return example.t_invoke if mode == MODE_ALORA else 0


def _batch_loss_and_grads(batch: Sequence[SftExample], weights: ModelWeights,
                          config: ModelConfig, params: AdapterParams,
                          mode: str, masks=None):
    """Per-example losses, in batch order, and the A/B gradients summed
    over the batch. Each example's dropout ``masks``, if given, are one
    (n_keys, rows from the activation point, rank) array."""
    groups: Dict[Tuple[int, int, int], List[int]] = {}
    for i, ex in enumerate(batch):
        shape = (len(ex.tokens), _first_adapted(ex, mode), ex.target_start)
        groups.setdefault(shape, []).append(i)
    losses = np.empty(len(batch))
    grads_a = {k: np.zeros_like(v) for k, v in params.a.items()}
    grads_b = {k: np.zeros_like(v) for k, v in params.b.items()}
    for (_, t_invoke, _), members in groups.items():
        group = [batch[i] for i in members]
        dropout = None if masks is None else dict(zip(
            params.keys(), np.stack([masks[i] for i in members], axis=1)))
        logits, tape = _forward_tape([ex.tokens for ex in group], t_invoke,
                                     weights, config, params, dropout)
        losses[members], dlogits = _loss_and_grad_logits(logits, *group)
        ga, gb = _backward(tape, dlogits, weights, config, params, dropout)
        for key in grads_a:
            grads_a[key] += ga[key]
            grads_b[key] += gb[key]
    return losses, grads_a, grads_b


def example_loss(example: SftExample, weights: ModelWeights, config: ModelConfig,
                 params: Optional[AdapterParams], mode: str = MODE_ALORA) -> float:
    """Forward-only loss; the quantity the finite-difference oracle probes."""
    logits, _ = _forward_tape(example.tokens, _first_adapted(example, mode),
                              weights, config, params)
    return sft_loss(logits, example)


def backward_adapter(example: SftExample, spec: AdapterSpec,
                     weights: ModelWeights, config: ModelConfig):
    """Exact reverse-mode gradients of sft_loss for every A and B factor."""
    params = AdapterParams.from_spec(spec, dtype=weights.dtype)
    _, grads_a, grads_b = _batch_loss_and_grads([example], weights, config,
                                                params, spec.mode)
    return grads_a, grads_b


# ---------------------------------------------------------------------- #
# training loop

@dataclass
class TrainResult:
    spec: AdapterSpec
    history: List[dict] = field(default_factory=list)
    final_exact_match: Optional[float] = None


class _Adam:
    def __init__(self, params: AdapterParams, cfg: TrainConfig):
        self.cfg = cfg
        self.t = 0
        self.m = {(which, k): np.zeros_like(t)
                  for which, tensors in (("a", params.a), ("b", params.b))
                  for k, t in tensors.items()}
        self.v = {slot: np.zeros_like(m) for slot, m in self.m.items()}

    def step(self, params: AdapterParams, grads_a, grads_b):
        cfg = self.cfg
        self.t += 1
        bc1 = 1.0 - cfg.adam_beta1 ** self.t
        bc2 = 1.0 - cfg.adam_beta2 ** self.t
        for which, tensors, grads in (("a", params.a, grads_a),
                                      ("b", params.b, grads_b)):
            for key, g in grads.items():
                slot = (which, key)
                self.m[slot] = cfg.adam_beta1 * self.m[slot] + (1 - cfg.adam_beta1) * g
                self.v[slot] = cfg.adam_beta2 * self.v[slot] + (1 - cfg.adam_beta2) * g * g
                update = (self.m[slot] / bc1) / (np.sqrt(self.v[slot] / bc2) + cfg.adam_eps)
                tensors[key] -= cfg.learning_rate * update


def train(dataset: Sequence[SftExample], spec: AdapterSpec, weights: ModelWeights,
          model_config: ModelConfig, train_config: TrainConfig,
          eval_dataset: Optional[Sequence[SftExample]] = None) -> TrainResult:
    """Adam on the low-rank factors only; deterministic under the seed.

    ``spec`` is the adapter template (id, mode, invocation sequence). When it
    already carries deltas, training continues from them; otherwise factors
    are initialized fresh (Gaussian A, zero B) from the train config.
    """
    if not dataset:
        raise ContractViolationError("training dataset is empty")
    dtype = train_config.dtype
    w = weights if weights.dtype == dtype else weights.astype(dtype)
    if spec.deltas:
        params = AdapterParams.from_spec(spec, dtype=dtype)
    else:
        params = AdapterParams.initialize(model_config, train_config.rank,
                                          train_config.alpha, train_config.seed,
                                          dtype=dtype)
    rng = np.random.default_rng(train_config.seed)
    adam = _Adam(params, train_config)
    engine = Engine(weights, model_config) if eval_dataset else None
    history: List[dict] = []
    rate = train_config.dropout_rate

    for step in range(1, train_config.steps + 1):
        batch = [dataset[int(i)] for i in
                 rng.integers(0, len(dataset), size=train_config.batch_size)]
        masks = None
        if rate > 0.0:
            shapes = [(len(params.a), len(ex.tokens) - _first_adapted(ex, spec.mode),
                       params.rank) for ex in batch]
            masks = [(rng.random(shape) >= rate).astype(dtype) / dtype(1.0 - rate)
                     for shape in shapes]
        losses, grads_a, grads_b = _batch_loss_and_grads(
            batch, w, model_config, params, spec.mode, masks)
        # left to right in batch order
        total_loss = float(np.add.accumulate(losses)[-1])
        if not math.isfinite(total_loss):
            raise TrainingDivergedError(step)
        adam.step(params, grads_a, grads_b)
        row = {"step": step, "loss": total_loss / train_config.batch_size,
               "eval_exact_match": None}
        if eval_dataset and (step % train_config.eval_every == 0
                             or step == train_config.steps):
            row["eval_exact_match"] = evaluate_exact_match(
                engine, params.to_spec(spec), eval_dataset)
        history.append(row)

    final = None
    if history and history[-1]["eval_exact_match"] is not None:
        final = history[-1]["eval_exact_match"]
    elif eval_dataset:
        final = evaluate_exact_match(engine, params.to_spec(spec), eval_dataset)
    return TrainResult(spec=params.to_spec(spec), history=history,
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
