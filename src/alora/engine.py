"""Request orchestration: prefill, greedy decode, and the cache-reuse regimes.

Three reuse patterns are supported:

1. An activated adapter picks up the base model's sealed cache and pays only
   for its fresh tail (``invoke_intrinsic``).
2. The base model picks up the base-produced prefix of an adapter request's
   cache and re-prefills the adapter-produced rows (``resume_base``).
3. Several activated adapters fork one sealed base cache and each extend
   their fork privately (``fanout``).

All three rest on one rule, and the engine owns it (``_usable_prefix``): a
request reuses the longest cached prefix whose producers, position by
position, are what the request's ``AdapterPolicy`` would write there, that
is, base rows (None) before the policy's cut and rows of the adapter's own
spec object from there on.

Prefill goes through model.forward_segment in layer-major runs of up to
model.RUN_ROWS rows, and each decode step through model.forward_position
as a one-row run; one layer loop serves both, a run's length picking only
its leaf ops' form (a (T, d) block or a 1-D row). A run does not split at
t_invoke: an activated adapter's fresh prompt (its base-projected first
invocation token and the adapted rows after it) takes one pass through the
layers, the policy's cut marking where its adapted suffix begins. Every
row takes its own projection gemvs, and its own attention products and
softmax normaliser, so a row's bits do not depend on how the rows were
grouped, and a cache-reusing run and a from-scratch run over the same
tokens produce bitwise-identical logits. ``Engine`` probes that property of
numpy and the BLAS, the block and 1-D row forms of each leaf op against
each other (model.row_invariance_probe, about 2 ms on the default model),
at the first request for the base model and at the first request naming
each set of delta kinds, and keeps each result. A cache is reused only
under the weights, config and dtype it was made with (``_check_reuse``).
The engine is reentrant: requests may share sealed caches read-only; each
request owns its fork and its cost ledger.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .adapters import (MODE_ALORA, MODE_LORA, ActivationPoint, AdapterPolicy,
                       AdapterSpec, BASE_POLICY, as_token_ids, build_policy,
                       find_invocation, token_count)
from .cache import CacheStore
from .costs import CostLedger
from .errors import ConfigurationError, ContractViolationError, NotInvokedError
from .model import (PROBE_PREFIX, ModelConfig, ModelWeights,
                    forward_position, forward_segment, greedy_pick,
                    row_invariance_probe)

EOS_TOKEN = 0


def _common_prefix(a: list, b: list) -> int:
    """Length of the common prefix of two lists of equal length.

    List comparison runs in C and skips identical items, so the lists are
    compared whole, then the span holding the first difference is halved
    until it is one item long.
    """
    lo, hi = 0, len(a)
    if a == b:
        return hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if a[lo:mid] == b[lo:mid]:
            lo = mid
        else:
            hi = mid
    return lo


@dataclass
class GenerationRequest:
    prompt_tokens: Sequence[int]
    adapter: Optional[AdapterSpec] = None
    reuse_cache: Optional[CacheStore] = None
    min_new_tokens: int = 0
    max_new_tokens: int = 16

    def __post_init__(self):
        # Converted once, here: a float token or count is refused, not
        # truncated.
        self.prompt_tokens = as_token_ids(self.prompt_tokens)
        self.min_new_tokens = token_count(self.min_new_tokens)
        self.max_new_tokens = token_count(self.max_new_tokens)
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
        # Probe results (None or the failure), keyed by ``_check_row_invariance``.
        # Two requests may race to probe one key; their results agree.
        self._probes = {}

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

    def _check_row_invariance(self, adapter: Optional[AdapterSpec]) -> None:
        """Raise ConfigurationError if the probe fails for the base model
        (key ``()``) or this adapter's ``delta_kinds``, probing once per key.
        An adapter is probed activated one row into the run: the run is cut
        after its base row, and each row alone is all base or all adapted."""
        key = () if adapter is None else adapter.delta_kinds
        if key not in self._probes:
            policy = (BASE_POLICY if adapter is None
                      else AdapterPolicy(adapter, PROBE_PREFIX + 1))
            self._probes[key] = row_invariance_probe(self.weights, self.config, policy)
        failure = self._probes[key]
        if failure:
            raise ConfigurationError(f"row-invariance probe failed: {failure}")

    # ------------------------------------------------------------------ #
    # prefill

    def _check_reuse(self, reuse: CacheStore, prompt: List[int]) -> None:
        """Refuse a cache made under another config, dtype or weights (by
        identity), not sealed, or not a prefix of the prompt."""
        for what, same in (("config", reuse.config == self.config),
                           ("dtype", reuse.dtype == self.weights.dtype),
                           ("weights", reuse.pool.weights is self.weights)):
            if not same:
                raise ContractViolationError(
                    f"reuse_cache was made under another {what} than the engine's")
        if reuse.sealed_length != reuse.length:
            raise ContractViolationError("reuse_cache must be sealed")
        if reuse.length > len(prompt):
            raise ContractViolationError(
                f"reuse_cache covers {reuse.length} positions but the prompt "
                f"has only {len(prompt)} tokens")
        cached, wanted = reuse.token_ids, prompt[:reuse.length]
        if cached != wanted:
            i = _common_prefix(cached, wanted)
            raise ContractViolationError(
                f"reuse_cache tokens diverge from the prompt at position {i} "
                f"(cached {cached[i]}, prompt {wanted[i]})")

    def _usable_prefix(self, reuse: CacheStore, policy, prompt_len: int) -> int:
        """Longest cached prefix whose producer matches the policy per
        position: the engine's one reuse rule."""
        n = min(reuse.length, prompt_len)
        usable = _common_prefix(reuse.provenance[:n], policy.producers(0, n))
        # Keep at least one fresh row so the last prompt position's logits
        # exist; recomputing it reproduces the cached row bitwise.
        return min(usable, prompt_len - 1)

    def _prefill(self, prompt: List[int], policy,
                 reuse: Optional[CacheStore], ledger: CostLedger):
        if not prompt:
            raise ContractViolationError("empty prompt rejected at the engine layer")
        if reuse is not None:
            self._check_reuse(reuse, prompt)
            usable = self._usable_prefix(reuse, policy, len(prompt))
            cache = reuse.fork_shared(usable)
        else:
            usable = 0
            cache = CacheStore(self.config, self.weights.dtype, self.weights)
        ledger._add("rows_reused", usable)
        logits = forward_segment(prompt[usable:], usable, self.weights,
                                 self.config, policy, cache, ledger)
        # Prefill snapshot: the additional cache this request must maintain
        # for its input. Decode appends are tracked by the cache itself.
        ledger.cache_bytes_incremental = cache.incremental_bytes()
        return cache, logits

    def prefill(self, request: GenerationRequest) -> CacheStore:
        """Prefill only; returns the sealed cache covering the prompt."""
        return self.generate(replace(request, min_new_tokens=0,
                                     max_new_tokens=0)).cache

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
        self._check_row_invariance(request.adapter)
        # Every emitted token is run through the layers, and EOS stops no
        # request before min_new_tokens nor before its first token.
        certain = max(request.min_new_tokens, min(request.max_new_tokens, 1))
        if len(prompt) + certain > self.config.max_positions:
            raise ConfigurationError(
                f"prompt of {len(prompt)} tokens and {certain} new tokens "
                f"exceed max_positions {self.config.max_positions}")
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
        prompt = base_cache.token_ids + list(extra_tokens)
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
        prompt = adapter_result.cache.token_ids + list(continuation_tokens)
        request = GenerationRequest(
            prompt_tokens=prompt, adapter=None,
            reuse_cache=adapter_result.cache,
            min_new_tokens=min_new_tokens, max_new_tokens=max_new_tokens)
        return self.generate(request)
