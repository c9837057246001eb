"""Supervised finetuning of adapter deltas with hand-written backprop.

Only the low-rank factors receive gradients; base weights are frozen. The
forward/backward pair runs over the full token sequence with the activation
point derived from the example structure (one token after the invocation
sequence starts, i.e. len(context) + 1), and the loss covers target
positions only: the logit row at position p-1 predicts token p.

Training batches are reduced by summation (per-example losses are target
means), so duplicating an example in a batch exactly doubles its gradient
contribution. Dropout applies to the x@A intermediate only and is disabled
for gradient checks. The f64 precision mode exists for finite-difference
verification; real runs default to f32.

The forward tape runs the engine's own primitives from model.py (RMS norm,
GELU, rotary tables and rotation) over the whole sequence at once; only the
masked attention and the backward helpers live here.
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
        object.__setattr__(self, "context_tokens", tuple(int(t) for t in self.context_tokens))
        object.__setattr__(self, "invocation_tokens", tuple(int(t) for t in self.invocation_tokens))
        object.__setattr__(self, "target_tokens", tuple(int(t) for t in self.target_tokens))
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
    tokens = example.tokens
    if logits.shape[0] < len(tokens):
        raise ContractViolationError(
            f"logits cover {logits.shape[0]} rows, example has {len(tokens)} tokens")
    if not example.target_tokens:
        raise ContractViolationError("example has an empty target")
    total = 0.0
    for i in range(example.target_start, len(tokens)):
        row = logits[i - 1]
        m = row.max()
        lse = m + np.log(np.exp(row - m).sum())
        total += float(lse - row[tokens[i]])
    return total / len(example.target_tokens)


# ---------------------------------------------------------------------- #
# forward with tape, and backward

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
    dot = np.sum(dyg * x, axis=1, keepdims=True)
    return (dyg - x * (dot / (x.shape[1] * root * root))) / root


def _gelu_grad(x: np.ndarray) -> np.ndarray:
    t = np.tanh(GELU_K * (x + GELU_C * x * x * x))
    return 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * GELU_K * (1.0 + 3.0 * GELU_C * x * x)


def _forward_tape(tokens: List[int], t_invoke: int, weights: ModelWeights,
                  config: ModelConfig, params: Optional[AdapterParams],
                  dropout: Optional[Dict[ParamKey, np.ndarray]] = None):
    """Full-sequence forward; returns (logits, tape) for the backward pass."""
    T = len(tokens)
    H, dh = config.n_heads, config.d_head
    cos, sin = rope_tables(np.arange(T), config, weights.dtype)
    x = weights.token_embedding[np.asarray(tokens)]
    scale = params.scale if params is not None else 0.0
    tape = {"cos": cos, "sin": sin, "layers": [], "tokens": tokens,
            "t_invoke": t_invoke}
    for li, layer in enumerate(weights.layers):
        rec = {"x_in": x}
        n1, root1 = rms_norm_row(x, layer.norm_attn)
        rec["n1"], rec["root1"] = n1, root1
        projections = {}
        for proj, w in (("q", layer.w_q), ("k", layer.w_k), ("v", layer.w_v)):
            out = n1 @ w
            key = (li, proj)
            if params is not None and key in params.a and t_invoke < T:
                u = n1[t_invoke:] @ params.a[key]
                mask = dropout.get(key) if dropout else None
                ud = u * mask if mask is not None else u
                out[t_invoke:] = out[t_invoke:] + scale * (ud @ params.b[key])
                rec[f"ud_{proj}"] = ud
            projections[proj] = out
        qr = rope_rotate_heads(projections["q"], cos, sin).reshape(T, H, dh)
        kr = rope_rotate_heads(projections["k"], cos, sin).reshape(T, H, dh)
        v = projections["v"].reshape(T, H, dh)
        rec["qr"], rec["kr"], rec["v"] = qr, kr, v
        causal = np.tril(np.ones((T, T), dtype=bool))
        probs = np.empty((H, T, T), dtype=x.dtype)
        mixed = np.empty((T, H, dh), dtype=x.dtype)
        inv_sqrt = 1.0 / math.sqrt(dh)
        for h in range(H):
            s = (qr[:, h, :] @ kr[:, h, :].T) * inv_sqrt
            s = np.where(causal, s, -np.inf)
            m = s.max(axis=1, keepdims=True)
            e = np.exp(s - m)
            p = e / e.sum(axis=1, keepdims=True)
            probs[h] = p
            mixed[:, h, :] = p @ v[:, h, :]
        rec["probs"] = probs
        x = x + mixed.reshape(T, config.d_model) @ layer.w_o
        rec["x_mid"] = x
        n2, root2 = rms_norm_row(x, layer.norm_mlp)
        rec["n2"], rec["root2"] = n2, root2
        uff = n2 @ layer.mlp_up
        rec["uff"] = uff
        x = x + gelu(uff) @ layer.mlp_down
        tape["layers"].append(rec)
    tape["x_out"] = x
    nf, rootf = rms_norm_row(x, weights.norm_final)
    tape["nf"], tape["rootf"] = nf, rootf
    logits = nf @ weights.unembedding
    tape["logits"] = logits
    return logits, tape


def _loss_and_grad_logits(logits: np.ndarray, example: SftExample):
    """Loss plus dL/dlogits for one example (mean over its targets)."""
    tokens = example.tokens
    n_t = len(example.target_tokens)
    dlogits = np.zeros_like(logits)
    total = 0.0
    for i in range(example.target_start, len(tokens)):
        row = logits[i - 1]
        m = row.max()
        e = np.exp(row - m)
        z = e.sum()
        p = e / z
        total += float(np.log(z) + m - row[tokens[i]])
        g = p.copy()
        g[tokens[i]] -= 1.0
        dlogits[i - 1] += g / n_t
    return total / n_t, dlogits


def _backward(tape, dlogits: np.ndarray, weights: ModelWeights,
              config: ModelConfig, params: AdapterParams,
              dropout: Optional[Dict[ParamKey, np.ndarray]] = None):
    """Gradients of the loss w.r.t. every A and B factor; base weights frozen."""
    T = len(tape["tokens"])
    H, dh = config.n_heads, config.d_head
    t_invoke = tape["t_invoke"]
    cos, sin = tape["cos"], tape["sin"]
    scale = params.scale
    grads_a = {k: np.zeros_like(v) for k, v in params.a.items()}
    grads_b = {k: np.zeros_like(v) for k, v in params.b.items()}

    dnf = dlogits @ weights.unembedding.T
    dx = _rms_backward(dnf, tape["x_out"], tape["rootf"], weights.norm_final)
    inv_sqrt = 1.0 / math.sqrt(dh)
    for li in range(config.n_layers - 1, -1, -1):
        layer = weights.layers[li]
        rec = tape["layers"][li]
        # MLP block (residual): x_out = x_mid + gelu(n2 @ up) @ down
        dg = dx @ layer.mlp_down.T
        duff = dg * _gelu_grad(rec["uff"])
        dn2 = duff @ layer.mlp_up.T
        dx = dx + _rms_backward(dn2, rec["x_mid"], rec["root2"], layer.norm_mlp)
        # attention block (residual): x_mid = x_in + mix @ w_o
        dmix = (dx @ layer.w_o.T).reshape(T, H, dh)
        dqr = np.empty_like(rec["qr"])
        dkr = np.empty_like(rec["kr"])
        dv = np.empty_like(rec["v"])
        for h in range(H):
            p = rec["probs"][h]
            dp = dmix[:, h, :] @ rec["v"][:, h, :].T
            dv[:, h, :] = p.T @ dmix[:, h, :]
            ds = p * (dp - np.sum(dp * p, axis=1, keepdims=True))
            dqr[:, h, :] = (ds @ rec["kr"][:, h, :]) * inv_sqrt
            dkr[:, h, :] = (ds.T @ rec["qr"][:, h, :]) * inv_sqrt
        dq = _rope_unapply(dqr, cos, sin).reshape(T, config.d_model)
        dk = _rope_unapply(dkr, cos, sin).reshape(T, config.d_model)
        dvf = dv.reshape(T, config.d_model)
        dn1 = dq @ layer.w_q.T + dk @ layer.w_k.T + dvf @ layer.w_v.T
        if t_invoke < T:
            n1a = rec["n1"][t_invoke:]
            for proj, dproj in (("q", dq), ("k", dk), ("v", dvf)):
                key = (li, proj)
                if key not in params.a:
                    continue
                da = dproj[t_invoke:]
                grads_b[key] += scale * (rec[f"ud_{proj}"].T @ da)
                dud = scale * (da @ params.b[key].T)
                mask = dropout.get(key) if dropout else None
                du = dud * mask if mask is not None else dud
                grads_a[key] += n1a.T @ du
                dn1[t_invoke:] += du @ params.a[key].T
        dx = dx + _rms_backward(dn1, rec["x_in"], rec["root1"], layer.norm_attn)
    return grads_a, grads_b


def example_loss(example: SftExample, weights: ModelWeights, config: ModelConfig,
                 params: Optional[AdapterParams], mode: str = MODE_ALORA) -> float:
    """Forward-only loss; the quantity the finite-difference oracle probes."""
    t_invoke = example.t_invoke if mode == MODE_ALORA else 0
    logits, _ = _forward_tape(example.tokens, t_invoke, weights, config, params)
    return sft_loss(logits, example)


def backward_adapter(example: SftExample, spec: AdapterSpec,
                     weights: ModelWeights, config: ModelConfig):
    """Exact reverse-mode gradients of sft_loss for every A and B factor."""
    params = AdapterParams.from_spec(spec, dtype=weights.dtype)
    t_invoke = example.t_invoke if spec.mode == MODE_ALORA else 0
    logits, tape = _forward_tape(example.tokens, t_invoke, weights, config, params)
    _, dlogits = _loss_and_grad_logits(logits, example)
    return _backward(tape, dlogits, weights, config, params)


# ---------------------------------------------------------------------- #
# training loop

@dataclass
class TrainResult:
    spec: AdapterSpec
    history: List[dict] = field(default_factory=list)
    final_exact_match: Optional[float] = None


class _Adam:
    def __init__(self, keys, like_a, like_b, cfg: TrainConfig):
        self.cfg = cfg
        self.t = 0
        self.m = {("a", k): np.zeros_like(like_a[k]) for k in keys}
        self.v = {("a", k): np.zeros_like(like_a[k]) for k in keys}
        self.m.update({("b", k): np.zeros_like(like_b[k]) for k in keys})
        self.v.update({("b", k): np.zeros_like(like_b[k]) for k in keys})

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
    adam = _Adam(params.keys(), params.a, params.b, train_config)
    engine = Engine(weights, model_config) if eval_dataset else None
    history: List[dict] = []
    rate = train_config.dropout_rate

    for step in range(1, train_config.steps + 1):
        idx = rng.integers(0, len(dataset), size=train_config.batch_size)
        total_loss = 0.0
        acc_a = {k: np.zeros_like(v) for k, v in params.a.items()}
        acc_b = {k: np.zeros_like(v) for k, v in params.b.items()}
        for i in idx:
            example = dataset[int(i)]
            t_invoke = example.t_invoke if spec.mode == MODE_ALORA else 0
            dropout = None
            if rate > 0.0:
                rows = max(len(example.tokens) - t_invoke, 0)
                dropout = {
                    key: (rng.random((rows, params.rank)) >= rate).astype(dtype)
                    / dtype(1.0 - rate)
                    for key in params.keys()}
            logits, tape = _forward_tape(example.tokens, t_invoke, w,
                                         model_config, params, dropout)
            loss, dlogits = _loss_and_grad_logits(logits, example)
            total_loss += loss
            ga, gb = _backward(tape, dlogits, w, model_config, params, dropout)
            for k in acc_a:
                acc_a[k] += ga[k]
                acc_b[k] += gb[k]
        if not math.isfinite(total_loss):
            raise TrainingDivergedError(step)
        adam.step(params, acc_a, acc_b)
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
