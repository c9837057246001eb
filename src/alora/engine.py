"""Request orchestration: prefill, greedy decode, and the cache-reuse regimes.

Three reuse patterns are supported:

1. An activated adapter picks up the base model's sealed cache and pays only
   for its fresh tail (``invoke_intrinsic``).
2. The base model picks up the base-produced prefix of an adapter request's
   cache and re-prefills the adapter-produced rows (``resume_base``).
3. Several activated adapters fork one sealed base cache and each extend
   their fork privately (``fanout``).

Every request runs position by position through model.forward_position, so a
cache-reusing run and a from-scratch run over the same tokens produce
bitwise-identical logits. The engine is reentrant: requests may share sealed
caches read-only; each request owns its fork and its cost ledger.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .adapters import (MODE_ALORA, MODE_LORA, ActivationPoint, AdapterSpec,
                       BASE_POLICY, build_policy, find_invocation)
from .cache import CacheStore
from .costs import CostLedger
from .errors import ConfigurationError, ContractViolationError, NotInvokedError
from .model import (ModelConfig, ModelWeights, forward_position, forward_segment,
                    greedy_pick)

EOS_TOKEN = 0


@dataclass
class GenerationRequest:
    prompt_tokens: Sequence[int]
    adapter: Optional[AdapterSpec] = None
    reuse_cache: Optional[CacheStore] = None
    min_new_tokens: int = 0
    max_new_tokens: int = 16

    def __post_init__(self):
        self.prompt_tokens = [int(t) for t in self.prompt_tokens]
        if self.min_new_tokens < 0 or self.max_new_tokens < 0:
            raise ConfigurationError("token counts must be non-negative")
        if self.min_new_tokens > self.max_new_tokens:
            raise ConfigurationError(
                f"min_new_tokens {self.min_new_tokens} exceeds "
                f"max_new_tokens {self.max_new_tokens}")


@dataclass
class GenerationResult:
    new_tokens: List[int]
    cache: CacheStore
    cost: CostLedger
    first_token_cost: CostLedger
    t_invoke: Optional[int] = None
    logits_trace: Tuple[np.ndarray, ...] = field(default_factory=tuple)


class Engine:
    """Holds immutable weights/config and runs generation requests."""

    def __init__(self, weights: ModelWeights, config: ModelConfig):
        weights.validate(config)
        self.weights = weights
        self.config = config

    # ------------------------------------------------------------------ #
    # policy resolution

    def _resolve(self, prompt: List[int], adapter: Optional[AdapterSpec],
                 activation: Optional[ActivationPoint]):
        """Returns (possibly extended prompt, policy, t_invoke or None)."""
        if adapter is None:
            if activation is not None:
                raise ContractViolationError("activation given without an adapter")
            return prompt, BASE_POLICY, None
        adapter.check_fits(self.config)
        if adapter.mode == MODE_LORA:
            return prompt, build_policy(adapter, activation), None
        if activation is None:
            try:
                activation = find_invocation(prompt, adapter)
            except NotInvokedError:
                # The invocation sequence is appended to the prompt before
                # generation, like a chat template's generation prompt.
                prompt = prompt + list(adapter.invocation_sequence)
                activation = find_invocation(prompt, adapter)
        return prompt, build_policy(adapter, activation), activation.t_invoke

    # ------------------------------------------------------------------ #
    # prefill

    def _check_reuse(self, reuse: CacheStore, prompt: List[int]) -> None:
        if reuse.sealed_length != reuse.length:
            raise ContractViolationError("reuse_cache must be sealed")
        if reuse.length > len(prompt):
            raise ContractViolationError(
                f"reuse_cache covers {reuse.length} positions but the prompt "
                f"has only {len(prompt)} tokens")
        for i, (cached, wanted) in enumerate(zip(reuse.token_ids, prompt)):
            if cached != wanted:
                raise ContractViolationError(
                    f"reuse_cache tokens diverge from the prompt at position {i} "
                    f"(cached {cached}, prompt {wanted})")

    def _usable_prefix(self, reuse: CacheStore, policy, prompt_len: int) -> int:
        """Longest cached prefix whose producer matches the policy per position."""
        usable = 0
        for p in range(min(reuse.length, prompt_len)):
            if reuse.provenance[p] == policy.provenance_at(p):
                usable += 1
            else:
                break
        # Keep at least one fresh row so the last prompt position's logits
        # exist; recomputing it reproduces the cached row bitwise.
        return min(usable, prompt_len - 1)

    def _prefill(self, prompt: List[int], policy,
                 reuse: Optional[CacheStore], ledger: CostLedger):
        if not prompt:
            raise ContractViolationError("empty prompt rejected at the engine layer")
        if len(prompt) > self.config.max_positions:
            raise ConfigurationError(
                f"prompt of {len(prompt)} tokens exceeds max_positions "
                f"{self.config.max_positions}")
        if reuse is not None:
            self._check_reuse(reuse, prompt)
            usable = self._usable_prefix(reuse, policy, len(prompt))
            cache = reuse.fork_shared(usable)
        else:
            usable = 0
            cache = CacheStore(self.config, dtype=self.weights.dtype)
        ledger._add("rows_reused", usable)
        logits = forward_segment(prompt[usable:], usable, self.weights,
                                 self.config, policy, cache, ledger)
        # Prefill snapshot: the additional cache this request must maintain
        # for its input. Decode appends are tracked by the cache itself.
        ledger.cache_bytes_incremental = cache.incremental_bytes()
        return cache, logits

    def prefill(self, request: GenerationRequest) -> CacheStore:
        """Prefill only; returns the sealed cache covering the prompt."""
        prompt, policy, _ = self._resolve(request.prompt_tokens, request.adapter, None)
        cache, _ = self._prefill(prompt, policy, request.reuse_cache, CostLedger())
        cache.seal()
        cache.integrity_check()
        return cache

    # ------------------------------------------------------------------ #
    # generation

    def generate(self, request: GenerationRequest,
                 activation: Optional[ActivationPoint] = None) -> GenerationResult:
        """Greedy decode. EOS (token 0) stops generation only once
        min_new_tokens have been emitted; every generated token is run
        through the layers so its K/V rows land in the cache."""
        started = time.perf_counter_ns()
        prompt, policy, t_invoke = self._resolve(
            request.prompt_tokens, request.adapter, activation)
        ledger = CostLedger()
        cache, logits = self._prefill(prompt, policy, request.reuse_cache, ledger)
        first: Optional[CostLedger] = None
        new_tokens: List[int] = []
        trace: List[np.ndarray] = []
        for step in range(request.max_new_tokens):
            token = greedy_pick(logits)
            new_tokens.append(token)
            trace.append(logits)
            logits = forward_position(token, cache.length, self.weights,
                                      self.config, policy, cache, ledger,
                                      want_logits=True)
            if step == 0:
                first = ledger.copy()
                first.wall_ns = time.perf_counter_ns() - started
            if token == EOS_TOKEN and len(new_tokens) >= request.min_new_tokens:
                break
        if first is None:
            first = ledger.copy()
            first.wall_ns = time.perf_counter_ns() - started
        cache.seal()
        cache.integrity_check()
        ledger.wall_ns = time.perf_counter_ns() - started
        return GenerationResult(new_tokens=new_tokens, cache=cache, cost=ledger,
                                first_token_cost=first, t_invoke=t_invoke,
                                logits_trace=tuple(trace))

    # ------------------------------------------------------------------ #
    # the three reuse regimes

    def invoke_intrinsic(self, base_cache: CacheStore, extra_tokens: Sequence[int],
                         adapter: AdapterSpec, *, max_new_tokens: Optional[int] = None,
                         min_new_tokens: int = 0) -> GenerationResult:
        """Regime 1: an activated adapter reuses a sealed base cache."""
        if adapter.mode != MODE_ALORA:
            raise ContractViolationError(
                "invoke_intrinsic requires an activated adapter; use lora_invoke")
        prompt = list(base_cache.token_ids) + [int(t) for t in extra_tokens]
        request = GenerationRequest(
            prompt_tokens=prompt, adapter=adapter, reuse_cache=base_cache,
            min_new_tokens=min_new_tokens,
            max_new_tokens=adapter.max_new_tokens if max_new_tokens is None
            else max_new_tokens)
        return self.generate(request)

    def lora_invoke(self, full_tokens: Sequence[int], adapter: AdapterSpec, *,
                    max_new_tokens: Optional[int] = None,
                    min_new_tokens: int = 0) -> GenerationResult:
        """Classic adapter: every input position is re-prefilled under the
        adapted weights; no cache can be reused."""
        if adapter.mode != MODE_LORA:
            raise ContractViolationError("lora_invoke requires a classic adapter")
        request = GenerationRequest(
            prompt_tokens=list(full_tokens), adapter=adapter, reuse_cache=None,
            min_new_tokens=min_new_tokens,
            max_new_tokens=adapter.max_new_tokens if max_new_tokens is None
            else max_new_tokens)
        return self.generate(request)

    def fanout(self, base_cache: CacheStore, adapters: Sequence[AdapterSpec],
               extra_tokens: Optional[Sequence[Sequence[int]]] = None, *,
               max_new_tokens: Optional[int] = None,
               min_new_tokens: int = 0) -> List[GenerationResult]:
        """Regime 3: each adapter runs against its own fork of one base cache."""
        if extra_tokens is None:
            extra_tokens = [[] for _ in adapters]
        if len(extra_tokens) != len(adapters):
            raise ContractViolationError(
                "extra_tokens must align one-to-one with adapters")
        for spec in adapters:
            if spec.mode != MODE_ALORA:
                raise ContractViolationError(
                    f"fanout requires activated adapters, got {spec.adapter_id}")
        return [self.invoke_intrinsic(base_cache, extra, spec,
                                      max_new_tokens=max_new_tokens,
                                      min_new_tokens=min_new_tokens)
                for spec, extra in zip(adapters, extra_tokens)]

    def resume_base(self, adapter_result: GenerationResult,
                    continuation_tokens: Sequence[int], *,
                    max_new_tokens: int = 16,
                    min_new_tokens: int = 0) -> GenerationResult:
        """Regime 2: the base model continues after an adapter request,
        reusing the base-produced prefix and re-prefilling adapter rows."""
        prompt = list(adapter_result.cache.token_ids) + \
            [int(t) for t in continuation_tokens]
        request = GenerationRequest(
            prompt_tokens=prompt, adapter=None,
            reuse_cache=adapter_result.cache,
            min_new_tokens=min_new_tokens, max_new_tokens=max_new_tokens)
        return self.generate(request)
