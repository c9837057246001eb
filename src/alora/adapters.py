"""Low-rank adapter deltas, projection policies, and invocation handling.

Two adapter modes exist. A classic adapter ("lora") applies its deltas to
every position. An activated adapter ("alora") applies them only from the
activation point t_invoke onward; positions before it are projected with
base weights, which is what makes the base model's cache rows reusable.

The activation point is one token after the START of the invocation
sequence, so the first invocation token itself is still base-projected.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, Optional, Tuple

import numpy as np

from .cache import BASE, Provenance
from .errors import ConfigurationError, ContractViolationError, NotInvokedError
from .fileio import read_tensor_file, write_tensor_file

ADAPTER_MAGIC = b"ALAD"

MODE_LORA = "lora"
MODE_ALORA = "alora"

VERDICT_BASE = "base"
VERDICT_ADAPTED = "adapted"

PROJECTIONS = ("q", "k", "v")


@dataclass
class LowRankDelta:
    """Rank-r additive correction: effective delta is (alpha/r) * A @ B."""

    a: np.ndarray  # d_model x r
    b: np.ndarray  # r x d_model
    rank: int
    alpha: float

    def __post_init__(self):
        if self.rank < 1:
            raise ConfigurationError(f"rank must be positive, got {self.rank}")
        if self.alpha <= 0:
            raise ConfigurationError(f"alpha must be positive, got {self.alpha}")
        d_in, r = self.a.shape
        r2, d_out = self.b.shape
        if r != self.rank or r2 != self.rank:
            raise ConfigurationError(
                f"factor shapes {self.a.shape}/{self.b.shape} disagree with rank {self.rank}")
        if d_in != d_out:
            raise ConfigurationError("A and B must map d_model back to d_model")
        if self.rank > d_in:
            raise ConfigurationError(
                f"rank {self.rank} exceeds d_model {d_in}")
        if not (np.isfinite(self.a).all() and np.isfinite(self.b).all()):
            raise ConfigurationError("adapter factors contain non-finite values")

    @property
    def scale(self) -> float:
        return self.alpha / self.rank


def delta_apply(x_row: np.ndarray, w: np.ndarray, delta: LowRankDelta) -> np.ndarray:
    """x @ W + (alpha/r) * ((x @ A) @ B), low-rank first; A@B never materialized."""
    if x_row.shape[-1] != w.shape[0]:
        raise ConfigurationError(
            f"row width {x_row.shape[-1]} does not match W {w.shape}")
    if delta.a.shape[0] != w.shape[0]:
        raise ConfigurationError(
            f"delta width {delta.a.shape[0]} does not match W {w.shape}")
    return x_row @ w + delta.scale * ((x_row @ delta.a) @ delta.b)


@dataclass
class AdapterSpec:
    """An adapter: per-layer per-projection deltas plus invocation metadata."""

    adapter_id: str
    mode: str
    deltas: Dict[Tuple[int, str], LowRankDelta]
    invocation_sequence: Optional[Tuple[int, ...]] = None
    max_new_tokens: int = 16

    def __post_init__(self):
        if self.mode not in (MODE_LORA, MODE_ALORA):
            raise ConfigurationError(f"unknown adapter mode {self.mode!r}")
        if self.mode == MODE_ALORA:
            if not self.invocation_sequence:
                raise ConfigurationError(
                    "alora adapters require a non-empty invocation sequence")
            self.invocation_sequence = tuple(int(t) for t in self.invocation_sequence)
        for (layer, proj) in self.deltas:
            if proj not in PROJECTIONS:
                raise ConfigurationError(f"unknown projection target {proj!r}")
            if layer < 0:
                raise ConfigurationError(f"negative layer index {layer}")

    @cached_property
    def provenance(self) -> Provenance:
        # One object per spec: cache rows then compare by identity, which
        # list comparison checks before calling __eq__.
        return Provenance(self.adapter_id)

    def check_fits(self, config) -> None:
        """Reject deltas for layers the model lacks or of another width."""
        for (layer, proj), delta in self.deltas.items():
            if layer >= config.n_layers:
                raise ConfigurationError(
                    f"adapter {self.adapter_id!r} has a delta for layer {layer}, "
                    f"model has {config.n_layers} layers")
            if delta.a.shape[0] != config.d_model or delta.b.shape[1] != config.d_model:
                raise ConfigurationError(
                    f"adapter {self.adapter_id!r} layer {layer} {proj} maps width "
                    f"{delta.a.shape[0]} to {delta.b.shape[1]}, model d_model is "
                    f"{config.d_model}")


@dataclass(frozen=True)
class ActivationPoint:
    """First absolute position projected with adapted weights."""

    t_invoke: int

    def __post_init__(self):
        if self.t_invoke < 0:
            raise ConfigurationError(
                f"t_invoke must be non-negative, got {self.t_invoke}")


def find_invocation(tokens, spec: AdapterSpec) -> ActivationPoint:
    """Locate the LAST occurrence of the invocation sequence in ``tokens``.

    Weights activate one token after the start of that occurrence.
    Raises NotInvokedError when the sequence is absent (the engine responds
    by appending the sequence itself).
    """
    if spec.mode != MODE_ALORA:
        raise ContractViolationError("find_invocation requires an alora adapter")
    seq = spec.invocation_sequence
    tokens = [int(t) for t in tokens]
    n, m = len(tokens), len(seq)
    for start in range(n - m, -1, -1):
        if tuple(tokens[start:start + m]) == seq:
            return ActivationPoint(start + 1)
    raise NotInvokedError(seq)


class BasePolicy:
    """Projection policy of the unadapted model: base verdict everywhere."""

    spec = None
    first_adapted = None  # no position is adapted

    def verdict(self, position: int) -> str:
        return VERDICT_BASE

    def delta(self, layer: int, proj: str):
        return None

    def provenance_at(self, position: int) -> Provenance:
        return BASE

    def __repr__(self):
        return "BasePolicy()"


BASE_POLICY = BasePolicy()


@dataclass
class AdapterPolicy:
    """Per-position verdicts for one adapter.

    For lora mode every position is adapted; for alora mode positions are
    adapted from t_invoke onward.
    """

    spec: AdapterSpec
    t_invoke: Optional[int] = None

    @property
    def first_adapted(self) -> int:
        """First adapted position; every later one is adapted too."""
        return 0 if self.spec.mode == MODE_LORA else self.t_invoke

    def verdict(self, position: int) -> str:
        return VERDICT_ADAPTED if position >= self.first_adapted else VERDICT_BASE

    def delta(self, layer: int, proj: str):
        return self.spec.deltas.get((layer, proj))

    def provenance_at(self, position: int) -> Provenance:
        if self.verdict(position) == VERDICT_ADAPTED:
            return self.spec.provenance
        return BASE


def build_policy(spec: AdapterSpec, activation: Optional[ActivationPoint]) -> AdapterPolicy:
    """Policy for one request. alora requires an activation; lora forbids one."""
    if spec.mode == MODE_ALORA:
        if activation is None:
            raise ContractViolationError("alora policy requires an activation point")
        return AdapterPolicy(spec, t_invoke=activation.t_invoke)
    if activation is not None:
        raise ContractViolationError("lora policy must not carry an activation point")
    return AdapterPolicy(spec, t_invoke=None)


def random_adapter(d_model: int, n_layers: int, *, rank: int, alpha: float,
                   mode: str, adapter_id: str, seed: int,
                   invocation_sequence=None,
                   targets: Tuple[str, ...] = PROJECTIONS,
                   std: float = 0.02) -> AdapterSpec:
    """Adapter with Gaussian A and B factors (both non-zero), for benchmarks."""
    rng = np.random.default_rng(seed)
    deltas = {}
    for layer in range(n_layers):
        for proj in targets:
            a = (std * rng.standard_normal((d_model, rank))).astype(np.float32)
            b = (std * rng.standard_normal((rank, d_model))).astype(np.float32)
            deltas[(layer, proj)] = LowRankDelta(a=a, b=b, rank=rank, alpha=alpha)
    return AdapterSpec(adapter_id=adapter_id, mode=mode, deltas=deltas,
                       invocation_sequence=invocation_sequence)


def zero_adapter(d_model: int, n_layers: int, *, rank: int, alpha: float,
                 mode: str, adapter_id: str, seed: int = 0,
                 invocation_sequence=None,
                 targets: Tuple[str, ...] = PROJECTIONS) -> AdapterSpec:
    """Adapter whose B factors are zero: behaves exactly like the base model."""
    rng = np.random.default_rng(seed)
    deltas = {}
    for layer in range(n_layers):
        for proj in targets:
            a = (0.02 * rng.standard_normal((d_model, rank))).astype(np.float32)
            b = np.zeros((rank, d_model), dtype=np.float32)
            deltas[(layer, proj)] = LowRankDelta(a=a, b=b, rank=rank, alpha=alpha)
    return AdapterSpec(adapter_id=adapter_id, mode=mode, deltas=deltas,
                       invocation_sequence=invocation_sequence)


# ---------------------------------------------------------------------- #
# adapter files


def save_adapter(spec: AdapterSpec, path) -> None:
    layers = sorted({layer for layer, _ in spec.deltas})
    n_layers = (max(layers) + 1) if layers else 0
    d_model = next(iter(spec.deltas.values())).a.shape[0] if spec.deltas else 0
    first = next(iter(spec.deltas.values())) if spec.deltas else None
    header = {
        "adapter_id": spec.adapter_id,
        "mode": spec.mode,
        "alpha": first.alpha if first else 1.0,
        "r": first.rank if first else 0,
        "targets": sorted({proj for _, proj in spec.deltas}),
        "invocation_sequence": (list(spec.invocation_sequence)
                                if spec.invocation_sequence else None),
        "max_new_tokens": spec.max_new_tokens,
        "n_layers": n_layers,
        "d_model": d_model,
    }
    tensors = []
    for (layer, proj) in sorted(spec.deltas):
        delta = spec.deltas[(layer, proj)]
        tensors.append((f"layers.{layer}.{proj}.a", delta.a))
        tensors.append((f"layers.{layer}.{proj}.b", delta.b))
    write_tensor_file(path, ADAPTER_MAGIC, header, tensors)


def load_adapter(path, d_model: Optional[int] = None) -> AdapterSpec:
    """Load an adapter file; ``d_model`` (when given) cross-checks the shapes."""
    header, tensors = read_tensor_file(path, ADAPTER_MAGIC)
    try:
        rank = int(header["r"])
        alpha = float(header["alpha"])
        mode = header["mode"]
        adapter_id = header["adapter_id"]
    except KeyError as exc:
        raise ConfigurationError(f"adapter header missing field {exc}") from exc
    if d_model is not None and int(header.get("d_model", d_model)) != d_model:
        raise ConfigurationError(
            f"adapter d_model {header.get('d_model')} does not match model {d_model}")
    deltas = {}
    for name, arr in tensors.items():
        parts = name.split(".")
        if len(parts) != 4 or parts[0] != "layers" or parts[3] not in ("a", "b"):
            raise ConfigurationError(f"unexpected tensor name {name!r}")
        layer, proj, which = int(parts[1]), parts[2], parts[3]
        slot = deltas.setdefault((layer, proj), {})
        slot[which] = arr
    built = {}
    for key, slot in deltas.items():
        if "a" not in slot or "b" not in slot:
            raise ConfigurationError(f"adapter tensor pair incomplete for {key}")
        built[key] = LowRankDelta(a=slot["a"], b=slot["b"], rank=rank, alpha=alpha)
        if d_model is not None and slot["a"].shape[0] != d_model:
            raise ConfigurationError(
                f"adapter tensors sized {slot['a'].shape[0]}, model d_model {d_model}")
    inv = header.get("invocation_sequence")
    return AdapterSpec(adapter_id=adapter_id, mode=mode, deltas=built,
                       invocation_sequence=tuple(inv) if inv else None,
                       max_new_tokens=int(header.get("max_new_tokens", 16)))
