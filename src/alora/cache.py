"""Per-layer key/value cache with per-position producer provenance.

Rows are stored pre-head-split at d_model width; head reshaping happens in
the attention code as a view. A cache either owns all of its rows (a flat
cache) or aliases a sealed prefix of a parent cache and owns only its
extension rows. Aliased rows are never copied into the child's storage and
are counted once in byte accounting.

Concurrency contract: sealed prefixes are immutable and may be read from any
number of threads; extending a fork is single-writer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

import numpy as np

from .errors import ConfigurationError, ContractViolationError

if TYPE_CHECKING:
    from .model import ModelConfig

# Byte accounting is fixed at f32 row width regardless of the dtype the
# arrays happen to use (f64 runs keep the same accounting unit).
BYTES_PER_ELEMENT = 4


@dataclass(frozen=True)
class Provenance:
    """Identity of the weights that produced a cached position's K/V rows.

    ``adapter_id is None`` means the base model produced the rows.
    """

    adapter_id: Optional[str] = None

    @property
    def is_base(self) -> bool:
        return self.adapter_id is None

    def __repr__(self):
        return "Base" if self.is_base else f"Adapter({self.adapter_id})"


BASE = Provenance(None)


def row_bytes(config) -> int:
    """Bytes of K+V storage for one position across all layers."""
    return config.n_layers * 2 * config.d_model * BYTES_PER_ELEMENT


class CacheStore:
    """Growable per-layer K/V store, optionally aliasing a parent prefix."""

    def __init__(self, config: "ModelConfig", dtype=np.float32,
                 parent: Optional["CacheStore"] = None, prefix_len: int = 0):
        if parent is None and prefix_len != 0:
            raise ConfigurationError("prefix_len requires a parent cache")
        self.config = config
        self.dtype = np.dtype(dtype)
        self.parent = parent
        self.prefix_len = prefix_len
        capacity = config.max_positions - prefix_len
        if capacity < 0:
            raise ConfigurationError("fork prefix exceeds max_positions")
        self._k = [np.zeros((capacity, config.d_model), dtype=self.dtype)
                   for _ in range(config.n_layers)]
        self._v = [np.zeros((capacity, config.d_model), dtype=self.dtype)
                   for _ in range(config.n_layers)]
        # Per-layer lengths in absolute positions; all must agree between
        # segment boundaries (integrity_check enforces it).
        self._layer_len = [prefix_len] * config.n_layers
        if parent is not None:
            self.token_ids = list(parent.token_ids[:prefix_len])
            self.provenance = list(parent.provenance[:prefix_len])
        else:
            self.token_ids = []
            self.provenance = []
        self.sealed_length = prefix_len

    # ------------------------------------------------------------------ #
    # growth

    @property
    def length(self) -> int:
        """Number of positions covered (aliased prefix + owned rows)."""
        return self._layer_len[0]

    @property
    def owned_positions(self) -> int:
        return self.length - self.prefix_len

    def append_token_ids(self, tokens) -> None:
        self.token_ids.extend(int(t) for t in tokens)

    def append_rows(self, layer: int, k_rows: np.ndarray, v_rows: np.ndarray,
                    provenance: Provenance) -> None:
        """Append K/V rows for one layer. Layer 0 drives the provenance list."""
        if not 0 <= layer < self.config.n_layers:
            raise ContractViolationError(f"layer {layer} out of range")
        k_rows = np.atleast_2d(k_rows)
        v_rows = np.atleast_2d(v_rows)
        if k_rows.shape != v_rows.shape or k_rows.shape[1] != self.config.d_model:
            raise ContractViolationError("K/V row shapes inconsistent")
        n = k_rows.shape[0]
        if n == 0:
            return
        pos = self._layer_len[layer]
        if pos < self.sealed_length:
            raise ContractViolationError(
                f"append into sealed region (layer {layer}, position {pos}, "
                f"sealed through {self.sealed_length})")
        end = pos + n
        if end > self.config.max_positions:
            raise ContractViolationError(
                f"cache overflow: position {end} exceeds max_positions "
                f"{self.config.max_positions}")
        lo, hi = pos - self.prefix_len, end - self.prefix_len
        self._k[layer][lo:hi] = k_rows
        self._v[layer][lo:hi] = v_rows
        self._layer_len[layer] = end
        if layer == 0:
            self.provenance.extend([provenance] * n)

    # ------------------------------------------------------------------ #
    # reads

    def k_matrix(self, layer: int, upto: int) -> np.ndarray:
        """Contiguous K rows for positions [0, upto). Aliased prefix included."""
        return self._matrix("_k", layer, upto)

    def v_matrix(self, layer: int, upto: int) -> np.ndarray:
        return self._matrix("_v", layer, upto)

    def _matrix(self, store, layer, upto):
        """Walk up the parent chain, collecting each cache's own rows below
        ``upto``; one segment is returned as a view, several are joined by a
        single concatenate."""
        if upto > self._layer_len[layer]:
            raise ContractViolationError(
                f"requested {upto} positions, layer {layer} holds "
                f"{self._layer_len[layer]}")
        parts = []
        node = self
        while True:
            if upto > node.prefix_len:
                parts.append(getattr(node, store)[layer][:upto - node.prefix_len])
                upto = node.prefix_len
            if upto == 0:
                break
            node = node.parent
        if len(parts) == 1:
            return parts[0]
        if not parts:
            return getattr(self, store)[layer][:0]
        return np.concatenate(parts[::-1])

    # ------------------------------------------------------------------ #
    # sharing and accounting

    def seal(self) -> None:
        """Freeze all current positions; they become shareable via forks."""
        self.sealed_length = self.length

    def fork_shared(self, length: int) -> "CacheStore":
        """New cache aliasing the first ``length`` sealed positions."""
        if length > self.sealed_length:
            raise ContractViolationError(
                f"fork at {length} exceeds sealed_length {self.sealed_length}")
        return CacheStore(self.config, dtype=self.dtype, parent=self, prefix_len=length)

    def reusable_prefix(self, consumer: Provenance) -> int:
        """Longest prefix whose every position the consumer may reuse.

        Base-produced positions are reusable by everyone; adapter-produced
        positions only by the same adapter.
        """
        n = 0
        for p in self.provenance:
            if p.is_base or p == consumer:
                n += 1
            else:
                break
        return n

    def incremental_bytes(self) -> int:
        """Bytes owned exclusively by this cache (aliased prefix excluded)."""
        return self.owned_positions * row_bytes(self.config)

    def integrity_check(self) -> None:
        """All layers must cover the same positions; provenance must match."""
        expect = self._layer_len[0]
        for layer, got in enumerate(self._layer_len):
            if got != expect:
                raise ContractViolationError(
                    f"layer {layer} holds {got} positions, layer 0 holds {expect}")
        if len(self.provenance) != expect:
            raise ContractViolationError(
                f"provenance list length {len(self.provenance)} != cache length {expect}")
        if len(self.token_ids) != expect:
            raise ContractViolationError(
                f"token_ids length {len(self.token_ids)} != cache length {expect}")
