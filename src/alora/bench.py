"""Benchmark harness: the evaluator workload behind the bench CSV.

For each (prompt length, adapter count) cell the base model prefills a
prompt and generates an answer; then N activated adapters evaluate it via
fanout over the shared sealed cache, and N classic adapters evaluate the
same token stream with full re-prefill. Both routes are measured through
the first generated token and predicted in closed form; the two must agree
to the flop.

Prompt tokens are drawn from ids >= 8 and the invocation sequence from ids
below 8, so an invocation can never occur accidentally inside a prompt and
every cell's fresh-row count is exactly the invocation length.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from .adapters import MODE_ALORA, MODE_LORA, random_adapter
from .costs import (CSV_HEADER, CostLedger, CostQuery, predict_first_token)
from .engine import Engine, GenerationRequest
from .errors import ConfigurationError

DEFAULT_INVOCATION = (2, 3, 4, 5)


@dataclass
class BenchPlan:
    prompt_lengths: Tuple[int, ...] = (256, 1024, 4096)
    answer_tokens: int = 256
    eval_tokens: int = 16
    n_adapters: Tuple[int, ...] = (1, 5)
    lora_rank: int = 8
    alora_rank: int = 32
    repetitions: int = 3
    seed: int = 0

    def validate(self, config) -> None:
        """Refuse, before any prefill, a plan that would measure nothing or
        fail part-way through."""
        for name, value, least in (
                ("repetitions", self.repetitions, 1),
                ("answer tokens", self.answer_tokens, 0),
                # The first-token window needs a first generated token.
                ("eval tokens", self.eval_tokens, 1),
                ("lora rank", self.lora_rank, 1),
                ("alora rank", self.alora_rank, 1)):
            if value < least:
                raise ConfigurationError(
                    f"{name} must be at least {least}, got {value}")
        for name, rank in (("lora rank", self.lora_rank),
                           ("alora rank", self.alora_rank)):
            if rank > config.d_model:
                raise ConfigurationError(
                    f"{name} {rank} exceeds d_model {config.d_model}")
        if not self.prompt_lengths or not self.n_adapters:
            raise ConfigurationError(
                "prompt lengths and adapter counts must not be empty")
        if min(self.n_adapters) < 1:
            raise ConfigurationError("adapter counts must be positive")
        budget = self.answer_tokens + len(DEFAULT_INVOCATION) + self.eval_tokens + 1
        for length in self.prompt_lengths:
            if length <= 0:
                raise ConfigurationError("prompt lengths must be positive")
            if length + budget > config.max_positions:
                raise ConfigurationError(
                    f"prompt length {length} plus workload exceeds max_positions "
                    f"{config.max_positions}")


@dataclass
class BenchRow:
    mode: str
    seed: int
    t_cache: int
    t_new: int
    n_adapters: int
    first_token_flops: int
    total_flops: int
    cache_bytes_incremental: int
    wall_ns: int
    predicted_flops: int
    predicted_bytes: int

    def csv(self) -> str:
        return (f"{self.mode},{self.seed},{self.t_cache},{self.t_new},"
                f"{self.n_adapters},{self.first_token_flops},{self.total_flops},"
                f"{self.cache_bytes_incremental},{self.wall_ns},"
                f"{self.predicted_flops},{self.predicted_bytes}")


def _merge(ledgers: Sequence[CostLedger]) -> CostLedger:
    out = CostLedger()
    for ledger in ledgers:
        out.merge(ledger)
    return out


def run_bench(engine: Engine, plan: BenchPlan) -> List[BenchRow]:
    plan.validate(engine.config)
    config = engine.config
    rows: List[BenchRow] = []
    inv = list(DEFAULT_INVOCATION)
    for length in plan.prompt_lengths:
        for n in plan.n_adapters:
            cell_rng = np.random.default_rng(
                np.random.SeedSequence((plan.seed, length, n)))
            prompt = cell_rng.integers(8, config.vocab_size, size=length).tolist()
            base_res = engine.generate(GenerationRequest(
                prompt_tokens=prompt, max_new_tokens=plan.answer_tokens,
                min_new_tokens=plan.answer_tokens))
            t_cache = base_res.cache.length
            t_new = len(inv)
            alora_specs = [
                random_adapter(config.d_model, config.n_layers,
                               rank=plan.alora_rank, alpha=32.0, mode=MODE_ALORA,
                               adapter_id=f"alora-{i}",
                               seed=int(cell_rng.integers(0, 2**32)),
                               invocation_sequence=tuple(inv))
                for i in range(n)]
            lora_specs = [
                random_adapter(config.d_model, config.n_layers,
                               rank=plan.lora_rank, alpha=32.0, mode=MODE_LORA,
                               adapter_id=f"lora-{i}",
                               seed=int(cell_rng.integers(0, 2**32)))
                for i in range(n)]
            full_tokens = list(base_res.cache.token_ids) + inv
            for _rep in range(plan.repetitions):
                alora_results = engine.fanout(
                    base_res.cache, alora_specs,
                    extra_tokens=[inv] * n,
                    max_new_tokens=plan.eval_tokens,
                    min_new_tokens=plan.eval_tokens)
                rows.append(_make_row(MODE_ALORA, plan, t_cache, t_new, n,
                                      alora_results, config))
                lora_results = [
                    engine.lora_invoke(full_tokens, spec,
                                       max_new_tokens=plan.eval_tokens,
                                       min_new_tokens=plan.eval_tokens)
                    for spec in lora_specs]
                rows.append(_make_row(MODE_LORA, plan, t_cache, t_new, n,
                                      lora_results, config))
    return rows


def _make_row(mode: str, plan: BenchPlan, t_cache: int, t_new: int, n: int,
              results, config) -> BenchRow:
    first = _merge([r.first_token_cost for r in results])
    total = _merge([r.cost for r in results])
    predicted = predict_first_token(CostQuery(
        t_cache=t_cache, t_new=t_new, n_adapters=n, mode=mode, config=config))
    return BenchRow(
        mode=mode, seed=plan.seed, t_cache=t_cache, t_new=t_new, n_adapters=n,
        first_token_flops=first.counted_flops,
        total_flops=total.counted_flops,
        cache_bytes_incremental=total.cache_bytes_incremental,
        wall_ns=total.wall_ns,
        predicted_flops=predicted.counted_flops,
        predicted_bytes=predicted.cache_bytes_incremental)


def rows_to_csv(rows: Sequence[BenchRow]) -> str:
    return "\n".join([CSV_HEADER] + [row.csv() for row in rows]) + "\n"
