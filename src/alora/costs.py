"""Operation and byte accounting, plus closed-form first-token predictions.

Counters are incremented at the numeric call sites (projections, attention,
MLP, unembedding) through ``add_matmul``, ``add_attention`` and
``add_softmax``, with exact formulas: a matmul of m x k by k x n adds
2*m*n*k. ``predict_first_token`` recomputes the same totals from the
configuration alone, by independent arithmetic, so measured-vs-predicted
comparisons are exact equalities rather than tolerance checks.

Low-rank delta products are intentionally NOT counted: the cost queries
carry no rank, and the separation claims concern the dense transformer
costs, to which adapter-rank work is a negligible, mode-independent side
term.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .model import ModelConfig

from .adapters import MODE_ALORA, MODE_LORA
from .cache import row_bytes
from .errors import ContractViolationError

U64_MAX = 2**64 - 1

CSV_HEADER = ("mode,seed,T_cache,T_new,N,first_token_flops,total_flops,"
              "cache_bytes_incremental,wall_ns,predicted_flops,predicted_bytes")

@dataclass
class CostLedger:
    matmul_flops: int = 0
    attention_score_flops: int = 0
    softmax_ops: int = 0
    rows_projected_fresh: int = 0
    rows_reused: int = 0
    cache_bytes_incremental: int = 0
    wall_ns: int = 0
    saturated: bool = False

    _COUNTERS = ("matmul_flops", "attention_score_flops", "softmax_ops",
                 "rows_projected_fresh", "rows_reused",
                 "cache_bytes_incremental", "wall_ns")

    def _add(self, name: str, amount: int) -> None:
        if amount < 0:
            raise ContractViolationError(f"negative cost event for {name}")
        total = getattr(self, name) + amount
        if total > U64_MAX:
            total = U64_MAX
            self.saturated = True
        setattr(self, name, total)

    def add_matmul(self, m: int, k: int, n: int) -> None:
        self._add("matmul_flops", 2 * m * k * n)

    def add_attention(self, flops: int) -> None:
        self._add("attention_score_flops", flops)

    def add_softmax(self, count: int) -> None:
        self._add("softmax_ops", count)

    def merge(self, other: "CostLedger") -> None:
        for name in self._COUNTERS:
            self._add(name, getattr(other, name))
        self.saturated = self.saturated or other.saturated

    def copy(self) -> "CostLedger":
        return CostLedger(**{f.name: getattr(self, f.name) for f in fields(self)})

    @property
    def counted_flops(self) -> int:
        return min(U64_MAX,
                   self.matmul_flops + self.attention_score_flops + self.softmax_ops)

    def __eq__(self, other):
        if not isinstance(other, CostLedger):
            return NotImplemented
        return all(getattr(self, n) == getattr(other, n)
                   for n in self._COUNTERS if n != "wall_ns")


@dataclass(frozen=True)
class CostQuery:
    t_cache: int
    t_new: int
    n_adapters: int
    mode: str
    config: "ModelConfig"

    def __post_init__(self):
        if self.t_new < 1:
            raise ContractViolationError("t_new must be >= 1")
        if self.n_adapters < 1:
            raise ContractViolationError("n_adapters must be >= 1")
        if self.mode not in (MODE_LORA, MODE_ALORA):
            raise ContractViolationError(f"unknown mode {self.mode!r}")


def predict_first_token(query: CostQuery) -> CostLedger:
    """Exact expected counters through the first generated token.

    The window covers prefilling the fresh input rows plus running the first
    generated token itself through the layers (the "+1" row), whose query
    attends across all cached-plus-new keys. For the classic adapter every
    input position is a fresh row; for the activated adapter only the
    uncached tail is. Logits are evaluated twice inside the window (last
    prefill row and the generated row). Byte counts are the prefill-owned
    rows, i.e. the additional cache the adapter must maintain for its input.
    """
    cfg = query.config
    d = cfg.d_model
    if query.mode == MODE_ALORA:
        fresh_positions = range(query.t_cache, query.t_cache + query.t_new + 1)
        reused = query.t_cache
        owned_prefill_rows = query.t_new
    else:
        fresh_positions = range(0, query.t_cache + query.t_new + 1)
        reused = 0
        owned_prefill_rows = query.t_cache + query.t_new
    matmul = 0
    attention = 0
    softmax = 0
    for p in fresh_positions:
        coverage = p + 1
        matmul += cfg.n_layers * (24 * d * d)          # qkv + w_o + mlp up/down
        attention += cfg.n_layers * 4 * coverage * d   # scores + weighted sums
        softmax += cfg.n_layers * cfg.n_heads * coverage
    matmul += 2 * (2 * d * cfg.vocab_size)             # prefill-final + first-decode logits

    n = query.n_adapters
    ledger = CostLedger()
    ledger.matmul_flops = n * matmul
    ledger.attention_score_flops = n * attention
    ledger.softmax_ops = n * softmax
    ledger.rows_projected_fresh = n * (len(fresh_positions))
    ledger.rows_reused = n * reused
    ledger.cache_bytes_incremental = n * owned_prefill_rows * row_bytes(cfg)
    return ledger
