"""Low-rank adapter deltas, the projection policy, and invocation handling.

Two adapter modes exist. A classic adapter ("lora") applies its deltas to
every position. An activated adapter ("alora") applies them only from the
activation point t_invoke onward; positions before it are projected with
base weights, which is what makes the base model's cache rows reusable.
So a request's adapted positions are always one suffix, and one
``AdapterPolicy`` records it: the first adapted position, 0 or t_invoke, or
none for the base model. ``AdapterPolicy.cut`` splits a run of positions at
that point, for the forward and for the engine's reuse rule alike. A cached
row's producer is None for the base model or the ``AdapterSpec`` itself.

The activation point is one token after the START of the invocation
sequence, so the first invocation token itself is still base-projected.
"""

from __future__ import annotations

import math
import operator
import types
from dataclasses import dataclass, field
from typing import Mapping, NamedTuple, Optional, Tuple

import numpy as np

from .errors import ConfigurationError, ContractViolationError, NotInvokedError
from .fileio import freeze_stacked, read_tensor_file, write_tensor_file

ADAPTER_MAGIC = b"ALAD"

MODE_LORA = "lora"
MODE_ALORA = "alora"

PROJECTIONS = ("q", "k", "v")


@dataclass(frozen=True)
class LowRankDelta:
    """Rank-r additive correction: effective delta is (alpha/r) * A @ B."""

    a: np.ndarray  # d_model x r
    b: np.ndarray  # r x d_model
    rank: int
    alpha: float

    def __post_init__(self):
        if self.rank < 1:
            raise ConfigurationError(f"rank must be positive, got {self.rank}")
        if not 0 < self.alpha < math.inf:
            raise ConfigurationError(f"alpha must be finite and positive, got {self.alpha}")
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


class DeltaGroup(NamedTuple):
    """Deltas of one layer for consecutive projections that share rank,
    alpha and factor dtypes, stacked: ``projections`` slices the layer's
    (q, k, v) axis, ``a`` (g, d, r) and ``b`` (g, r, d) hold their factors,
    read-only views of the spec's buffer, and ``scale`` is their alpha/r."""

    projections: slice
    a: np.ndarray
    b: np.ndarray
    scale: float


def delta_apply(x_row: np.ndarray, xw: np.ndarray,
                delta: LowRankDelta | DeltaGroup) -> np.ndarray:
    """Add (alpha/r) * ((x @ A) @ B) to ``xw`` (x @ W, already computed) in
    place and return it: low-rank first, A@B never materialized, and the
    bits of ``xw + (alpha/r) * ((x @ A) @ B)`` cast to ``xw``'s dtype.

    ``delta`` is a ``LowRankDelta`` or a ``DeltaGroup``, whose stacked
    factors broadcast against a (..., g, rows, d) ``xw``: numpy runs a
    stacked product one matrix at a time, so each projection of a group
    gets the gemv it gets alone."""
    if x_row.shape[-1] != delta.a.shape[-2]:
        raise ConfigurationError(
            f"row width {x_row.shape[-1]} does not match delta A {delta.a.shape}")
    if xw.shape[-1] != delta.b.shape[-1]:
        raise ConfigurationError(
            f"product width {xw.shape[-1]} does not match delta B {delta.b.shape}")
    low = (x_row @ delta.a) @ delta.b
    low *= delta.scale
    xw += low
    return xw


def token_count(n) -> int:
    """``n`` as a non-negative int; ConfigurationError for a negative count
    or a value that is not an integer, a float included."""
    try:
        count = operator.index(n)
    except TypeError:
        count = -1
    if count < 0:
        raise ConfigurationError(
            f"token counts must be non-negative integers, got {n!r}")
    return count


def as_token_ids(tokens) -> list:
    """``tokens`` as a list of Python ints. Integers of any type, numpy's
    included, are accepted; anything else, a float included, raises
    ContractViolationError instead of being truncated."""
    try:
        return list(map(operator.index, tokens))
    except TypeError as exc:
        raise ContractViolationError(
            f"token ids must be integers: {exc}") from None


@dataclass(frozen=True, eq=False)
class AdapterSpec:
    """An adapter: per-layer per-projection deltas plus invocation metadata.

    A spec cannot change once built. As model weights do, it copies all its
    factors once into one immutable buffer (``fileio.freeze_stacked``): each factor
    is a read-only view of a ``bytes`` object, which numpy will not make
    writeable again, and the deltas sit in a read-only mapping. So the cache
    rows it has produced, which name it as their producer, stay valid for
    it; a changed adapter is a new spec (``dataclasses.replace``). Specs
    compare and hash by identity, so two specs sharing an id never share rows.

    Built with it: ``delta_groups``, per layer the ``DeltaGroup`` list the
    forward adds, whose stacks are views of the same buffer (the factors
    are laid out in (layer, projection) order, all A factors before all B
    factors), and ``delta_kinds``, the sorted (rank, A dtype, B dtype)
    kinds of the deltas, by which the engine keeps its row-invariance
    probes. Copies and pickles are built anew.
    """

    adapter_id: str
    mode: str
    deltas: Mapping[Tuple[int, str], LowRankDelta] = field(repr=False)
    invocation_sequence: Optional[Tuple[int, ...]] = None
    max_new_tokens: int = 16
    delta_groups: Tuple[tuple, ...] = field(default=(), init=False, repr=False)
    delta_kinds: Tuple[tuple, ...] = field(default=(), init=False, repr=False)

    def __post_init__(self):
        if self.mode not in (MODE_LORA, MODE_ALORA):
            raise ConfigurationError(f"unknown adapter mode {self.mode!r}")
        object.__setattr__(self, "max_new_tokens", token_count(self.max_new_tokens))
        if self.mode == MODE_ALORA:
            if not self.invocation_sequence:
                raise ConfigurationError(
                    "alora adapters require a non-empty invocation sequence")
            object.__setattr__(self, "invocation_sequence",
                               tuple(as_token_ids(self.invocation_sequence)))
        index = []  # (layer, projection index, projection), sorted
        for layer, proj in self.deltas:
            if proj not in PROJECTIONS:
                raise ConfigurationError(f"unknown projection target {proj!r}")
            if layer < 0:
                raise ConfigurationError(f"negative layer index {layer}")
            index.append((layer, PROJECTIONS.index(proj), proj))
        index.sort()
        given = [self.deltas[layer, proj] for layer, _, proj in index]
        n = len(given)
        # (stack, index in it, view) of each A, then of each B
        placed = [None] * 2 * n
        for members, stack in freeze_stacked([d.a for d in given] + [d.b for d in given]):
            for k, (i, view) in enumerate(zip(members, stack)):
                placed[i] = stack, k, view
        frozen, kinds, first = {}, set(), 0
        groups = [[] for _ in range(index[-1][0] + 1 if index else 0)]
        for i, ((layer, j, proj), delta, (a, at, a_view), (b, bt, b_view)) in enumerate(
                zip(index, given, placed, placed[n:])):
            # A copy: the delta's checks are not run again for these values.
            copy = frozen[layer, proj] = object.__new__(type(delta))
            copy.__dict__.update(delta.__dict__, a=a_view, b=b_view)
            # A run of one layer's deltas of one alpha whose factors share
            # freeze's stacks (one shape and dtype each) is one group.
            if (i + 1 < n and index[i + 1][0] == layer and given[i + 1].alpha == delta.alpha
                    and placed[i + 1][0] is a and placed[n + i + 1][0] is b):
                continue
            g, j0 = i + 1 - first, index[first][1]
            step = index[first + 1][1] - j0 if g > 1 else 1
            groups[layer].append(DeltaGroup(slice(j0, j + 1, step), a[at + 1 - g:at + 1],
                                            b[bt + 1 - g:bt + 1], delta.scale))
            kinds.add((delta.rank, a.dtype.str, b.dtype.str))
            first = i + 1
        self.__dict__.update(deltas=types.MappingProxyType(frozen),
                             delta_groups=tuple(map(tuple, groups)),
                             delta_kinds=tuple(sorted(kinds)))

    def __reduce__(self):  # copies and pickles are built, and frozen, anew
        return type(self), (self.adapter_id, self.mode, dict(self.deltas),
                            self.invocation_sequence, self.max_new_tokens)

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
    """Locate the LAST occurrence of the invocation sequence in the
    sequence ``tokens``, scanning from its end.

    Weights activate one token after the start of that occurrence. Only the
    slices compared are converted (``as_token_ids``), so the common case,
    a sequence a few tokens from the end, costs O(1) whatever the length.
    Raises NotInvokedError when the sequence is absent (the engine responds
    by appending the sequence itself).
    """
    if spec.mode != MODE_ALORA:
        raise ContractViolationError("find_invocation requires an alora adapter")
    seq = spec.invocation_sequence
    first, m = seq[0], len(seq)
    for start in range(len(tokens) - m, -1, -1):
        if (tokens[start] == first
                and tuple(as_token_ids(tokens[start:start + m])) == seq):
            return ActivationPoint(start + 1)
    raise NotInvokedError(seq)


@dataclass(frozen=True)
class AdapterPolicy:
    """The activation rule of one request: positions from ``first_adapted``
    on are projected with ``spec``'s deltas, every earlier one with the
    base weights.

    ``first_adapted`` is 0 for a classic adapter and t_invoke for an
    activated one (``build_policy``); the base model's policy,
    ``BASE_POLICY``, has neither a spec nor an adapted position.
    """

    spec: Optional[AdapterSpec] = None
    first_adapted: Optional[int] = None

    def cut(self, start: int, n: int) -> int:
        """How many leading positions of [start, start + n) take the base
        weights; the rest take the deltas, and their rows are the spec's."""
        if self.first_adapted is None:
            return n
        return min(max(self.first_adapted - start, 0), n)

    def delta_groups(self, layer: int) -> tuple:
        """The spec's ``DeltaGroup`` list for ``layer``."""
        per_layer = self.spec.delta_groups
        return per_layer[layer] if layer < len(per_layer) else ()


BASE_POLICY = AdapterPolicy()


def build_policy(spec: AdapterSpec, activation: Optional[ActivationPoint]) -> AdapterPolicy:
    """Policy for one request. alora requires an activation; lora forbids one."""
    if spec.mode == MODE_ALORA:
        if activation is None:
            raise ContractViolationError("alora policy requires an activation point")
        return AdapterPolicy(spec, activation.t_invoke)
    if activation is not None:
        raise ContractViolationError("lora policy must not carry an activation point")
    return AdapterPolicy(spec, 0)


def random_adapter(d_model: int, n_layers: int, *, rank: int, alpha: float,
                   mode: str, adapter_id: str, seed: int,
                   invocation_sequence=None, std: float = 0.02) -> AdapterSpec:
    """Adapter with Gaussian A and B factors (both non-zero), for benchmarks."""
    rng = np.random.default_rng(seed)
    deltas = {}
    for layer in range(n_layers):
        for proj in PROJECTIONS:
            a = (std * rng.standard_normal((d_model, rank))).astype(np.float32)
            b = (std * rng.standard_normal((rank, d_model))).astype(np.float32)
            deltas[(layer, proj)] = LowRankDelta(a=a, b=b, rank=rank, alpha=alpha)
    return AdapterSpec(adapter_id=adapter_id, mode=mode, deltas=deltas,
                       invocation_sequence=invocation_sequence)


def zero_adapter(d_model: int, n_layers: int, *, rank: int, alpha: float,
                 mode: str, adapter_id: str, seed: int = 0,
                 invocation_sequence=None, dtype=np.float32) -> AdapterSpec:
    """Adapter whose B factors are zero: behaves exactly like the base model.
    A is 0.02 * N(0, 1) per (layer, projection), in ``dtype``; the trainer
    starts a fresh adapter from it."""
    rng = np.random.default_rng(seed)
    deltas = {}
    for layer in range(n_layers):
        for proj in PROJECTIONS:
            a = (0.02 * rng.standard_normal((d_model, rank))).astype(dtype)
            b = np.zeros((rank, d_model), dtype=dtype)
            deltas[(layer, proj)] = LowRankDelta(a=a, b=b, rank=rank, alpha=alpha)
    return AdapterSpec(adapter_id=adapter_id, mode=mode, deltas=deltas,
                       invocation_sequence=invocation_sequence)


# ---------------------------------------------------------------------- #
# adapter files


def save_adapter(spec: AdapterSpec, path) -> None:
    """Write ``spec``; the header holds one rank and one alpha, so deltas
    that differ in either are refused."""
    if len({(d.rank, d.alpha) for d in spec.deltas.values()}) > 1:
        raise ConfigurationError(
            f"adapter {spec.adapter_id!r} mixes ranks or alphas; files hold one")
    first = next(iter(spec.deltas.values()), None)
    header = {
        "adapter_id": spec.adapter_id,
        "mode": spec.mode,
        "alpha": first.alpha if first else 1.0,
        "r": first.rank if first else 0,
        "targets": sorted({proj for _, proj in spec.deltas}),
        "invocation_sequence": (list(spec.invocation_sequence)
                                if spec.invocation_sequence else None),
        "max_new_tokens": spec.max_new_tokens,
        "n_layers": max((layer + 1 for layer, _ in spec.deltas), default=0),
        "d_model": first.a.shape[0] if first else 0,
    }
    tensors = []
    for (layer, proj) in sorted(spec.deltas):
        delta = spec.deltas[(layer, proj)]
        tensors.append((f"layers.{layer}.{proj}.a", delta.a))
        tensors.append((f"layers.{layer}.{proj}.b", delta.b))
    write_tensor_file(path, ADAPTER_MAGIC, header, tensors)


def _header_field(header: dict, name: str, convert, *default):
    """``convert(header[name])``, or ``default`` when one is given and the
    field is absent; ConfigurationError names a missing or refused field."""
    if default and name not in header:
        return default[0]
    try:
        return convert(header[name])
    except KeyError:
        raise ConfigurationError(f"adapter header missing field {name!r}") from None
    except (TypeError, ValueError):
        raise ConfigurationError(
            f"adapter header field {name!r} has bad value {header[name]!r}") from None


def load_adapter(path, d_model: Optional[int] = None) -> AdapterSpec:
    """Load an adapter file; ``d_model`` (when given) cross-checks the shapes."""
    header, tensors = read_tensor_file(path, ADAPTER_MAGIC)
    rank = _header_field(header, "r", operator.index)
    alpha = _header_field(header, "alpha", float)
    mode = _header_field(header, "mode", str)
    adapter_id = _header_field(header, "adapter_id", str)
    width = _header_field(header, "d_model", operator.index, d_model)
    if d_model is not None and width != d_model:
        raise ConfigurationError(f"adapter d_model {width} does not match model {d_model}")
    deltas = {}
    for name, arr in tensors.items():
        parts = name.split(".")
        if (len(parts) != 4 or parts[0] != "layers" or not parts[1].isdecimal()
                or parts[3] not in ("a", "b")):
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
    inv = _header_field(header, "invocation_sequence",
                        lambda v: tuple(v) if v else None, None)
    return AdapterSpec(adapter_id=adapter_id, mode=mode, deltas=built,
                       invocation_sequence=inv,
                       max_new_tokens=_header_field(header, "max_new_tokens",
                                                    operator.index, 16))
