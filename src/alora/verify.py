"""Invariant suite: cache-equivalence and reduction checks over random trials.

Each check builds random prompts and random adapters, runs paired passes,
and demands BITWISE equality. That is attainable because every row takes
its own gemv call and its own attention call, so its result does not depend
on how many rows are computed with it; ``Engine`` probes this property of
numpy and the BLAS when it is built. The mutation check runs the adapter
under a corrupted policy that adapts one pre-activation position, and
requires the equivalence check to fail, proving the suite can actually
detect violations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from .adapters import (MODE_ALORA, MODE_LORA, VERDICT_ADAPTED, ActivationPoint,
                       AdapterPolicy, AdapterSpec, BASE_POLICY, build_policy,
                       find_invocation, random_adapter, zero_adapter)
from .cache import BASE, CacheStore, Provenance
from .costs import CostLedger
from .engine import Engine, GenerationRequest
from .model import forward_segment


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


@dataclass
class _CorruptedPolicy(AdapterPolicy):
    """An activated adapter's policy that also adapts one position before
    t_invoke: the violation the mutation check must detect."""

    corrupt_position: int = 0

    def verdict(self, position: int) -> str:
        if position == self.corrupt_position:
            return VERDICT_ADAPTED
        return super().verdict(position)


def _random_invocation(rng, length: Optional[int] = None) -> Tuple[int, ...]:
    n = int(rng.integers(2, 5)) if length is None else length
    return tuple(int(t) for t in rng.integers(2, 8, size=n))


def _planted_prompt(rng, config, inv: Tuple[int, ...],
                    min_len: int = 16, max_len: int = 128):
    """Prompt with exactly one invocation occurrence (token ranges disjoint)."""
    length = int(rng.integers(min_len, max_len + 1))
    length = max(length, len(inv) + 2)
    prompt = rng.integers(8, config.vocab_size, size=length).tolist()
    start = int(rng.integers(0, length - len(inv) + 1))
    prompt[start:start + len(inv)] = list(inv)
    return [int(t) for t in prompt], start


def _kv_rows_equal(cache_a: CacheStore, cache_b: CacheStore, upto: int,
                   n_layers: int) -> Optional[str]:
    for layer in range(n_layers):
        for name, matrix in (("K", "k_matrix"), ("V", "v_matrix")):
            a = getattr(cache_a, matrix)(layer, upto)
            b = getattr(cache_b, matrix)(layer, upto)
            if not np.array_equal(a, b):
                pos = int(np.argwhere(~np.all(a == b, axis=1))[0][0])
                return f"{name} rows differ at layer {layer}, position {pos}"
    return None


def kv_equivalence_trial(engine: Engine, rng, *, rank: int = 8,
                         corrupt: bool = False,
                         spec: Optional[AdapterSpec] = None) -> Optional[str]:
    """Base pass vs activated-adapter pass: K/V rows before t_invoke must be
    bitwise equal at every layer. Returns a mismatch description or None.

    When ``spec`` is given (e.g. a trained adapter loaded from disk) it is
    used as-is; otherwise a random adapter of the given rank is drawn.
    """
    config = engine.config
    if spec is None:
        inv = _random_invocation(rng)
        spec = random_adapter(config.d_model, config.n_layers, rank=rank,
                              alpha=32.0, mode=MODE_ALORA,
                              adapter_id=f"trial-{rank}",
                              seed=int(rng.integers(0, 2**32)),
                              invocation_sequence=inv)
    else:
        inv = spec.invocation_sequence
    prompt, start = _planted_prompt(rng, config, inv)
    activation = find_invocation(prompt, spec)
    t_invoke = activation.t_invoke

    base_cache = CacheStore(config, dtype=engine.weights.dtype)
    forward_segment(prompt, 0, engine.weights, config, BASE_POLICY,
                    base_cache, CostLedger())

    policy = build_policy(spec, activation)
    if corrupt:
        policy = _CorruptedPolicy(spec, t_invoke=t_invoke,
                                  corrupt_position=int(rng.integers(0, t_invoke)))
    adapted_cache = CacheStore(config, dtype=engine.weights.dtype)
    forward_segment(prompt, 0, engine.weights, config, policy,
                    adapted_cache, CostLedger())
    return _kv_rows_equal(base_cache, adapted_cache, t_invoke, config.n_layers)


def oracle_equivalence_trial(engine: Engine, rng, *, rank: int = 8,
                             new_tokens: int = 32) -> Optional[str]:
    """Cache-reusing intrinsic call vs from-scratch no-cache pass: tokens and
    per-step logits must be bitwise identical."""
    config = engine.config
    inv = _random_invocation(rng)
    base_len = int(rng.integers(16, 65))
    base_prompt = rng.integers(8, config.vocab_size, size=base_len).tolist()
    answer_len = int(rng.integers(4, 13))
    base_res = engine.generate(GenerationRequest(
        prompt_tokens=base_prompt, max_new_tokens=answer_len,
        min_new_tokens=answer_len))
    spec = random_adapter(config.d_model, config.n_layers, rank=rank, alpha=32.0,
                          mode=MODE_ALORA, adapter_id="oracle-trial",
                          seed=int(rng.integers(0, 2**32)),
                          invocation_sequence=inv)
    reused = engine.invoke_intrinsic(base_res.cache, list(inv), spec,
                                     max_new_tokens=new_tokens,
                                     min_new_tokens=new_tokens)
    full_prompt = list(base_res.cache.token_ids) + list(inv)
    scratch = engine.generate(GenerationRequest(
        prompt_tokens=full_prompt, adapter=spec, max_new_tokens=new_tokens,
        min_new_tokens=new_tokens))
    if reused.new_tokens != scratch.new_tokens:
        return (f"tokens diverge: reuse {reused.new_tokens[:8]} vs "
                f"scratch {scratch.new_tokens[:8]}")
    for i, (a, b) in enumerate(zip(reused.logits_trace, scratch.logits_trace)):
        if not np.array_equal(a, b):
            return f"logits diverge at decode step {i}"
    return None


def reduction_trial(engine: Engine, rng, *, rank: int = 8,
                    new_tokens: int = 16) -> Optional[str]:
    """Activated adapter with t_invoke=0 must equal the classic adapter."""
    config = engine.config
    prompt = rng.integers(8, config.vocab_size,
                          size=int(rng.integers(8, 33))).tolist()
    seed = int(rng.integers(0, 2**32))
    alora = random_adapter(config.d_model, config.n_layers, rank=rank, alpha=32.0,
                           mode=MODE_ALORA, adapter_id="red-a", seed=seed,
                           invocation_sequence=(2, 3))
    lora = AdapterSpec(adapter_id="red-l", mode=MODE_LORA, deltas=alora.deltas)
    res_a = engine.generate(
        GenerationRequest(prompt_tokens=prompt, adapter=alora,
                          max_new_tokens=new_tokens),
        activation=ActivationPoint(0))
    res_l = engine.lora_invoke(prompt, lora, max_new_tokens=new_tokens)
    if res_a.new_tokens != res_l.new_tokens:
        return "tokens diverge between t_invoke=0 and classic adapter"
    for i, (a, b) in enumerate(zip(res_a.logits_trace, res_l.logits_trace)):
        if not np.array_equal(a, b):
            return f"logits diverge at decode step {i}"
    return None


def zero_delta_trial(engine: Engine, rng, *, mode: str = MODE_ALORA,
                     rank: int = 8, new_tokens: int = 16) -> Optional[str]:
    """All-zero deltas must reproduce the base model bitwise."""
    config = engine.config
    inv = _random_invocation(rng)
    prompt = rng.integers(8, config.vocab_size,
                          size=int(rng.integers(8, 33))).tolist()
    spec = zero_adapter(config.d_model, config.n_layers, rank=rank, alpha=32.0,
                        mode=mode, adapter_id="zero",
                        seed=int(rng.integers(0, 2**32)),
                        invocation_sequence=inv if mode == MODE_ALORA else None)
    full = prompt + list(inv) if mode == MODE_ALORA else prompt
    res_adapter = (engine.invoke_intrinsic(
        _sealed_prefill(engine, prompt), list(inv), spec,
        max_new_tokens=new_tokens) if mode == MODE_ALORA
        else engine.lora_invoke(full, spec, max_new_tokens=new_tokens))
    res_base = engine.generate(GenerationRequest(
        prompt_tokens=full, max_new_tokens=new_tokens))
    if res_adapter.new_tokens != res_base.new_tokens:
        return f"zero-delta {mode} tokens diverge from base"
    for i, (a, b) in enumerate(zip(res_adapter.logits_trace,
                                   res_base.logits_trace)):
        if not np.array_equal(a, b):
            return f"zero-delta {mode} logits diverge at step {i}"
    return None


def _sealed_prefill(engine: Engine, prompt) -> CacheStore:
    return engine.prefill(GenerationRequest(prompt_tokens=prompt))


def provenance_trial(engine: Engine, rng, *, rank: int = 8) -> Optional[str]:
    """Provenance must track the generating policy position by position."""
    config = engine.config
    inv = _random_invocation(rng)
    prompt = rng.integers(8, config.vocab_size,
                          size=int(rng.integers(16, 49))).tolist()
    base_cache = _sealed_prefill(engine, prompt)
    if any(not p.is_base for p in base_cache.provenance):
        return "base prefill produced non-base provenance"
    spec = random_adapter(config.d_model, config.n_layers, rank=rank, alpha=32.0,
                          mode=MODE_ALORA, adapter_id="prov",
                          seed=int(rng.integers(0, 2**32)),
                          invocation_sequence=inv)
    res = engine.invoke_intrinsic(base_cache, list(inv), spec,
                                  max_new_tokens=8, min_new_tokens=8)
    t_invoke = res.t_invoke
    for p, prov in enumerate(res.cache.provenance):
        want_base = p < t_invoke
        if want_base != prov.is_base:
            return f"provenance at position {p} is {prov}, t_invoke={t_invoke}"
    reuse_base = res.cache.reusable_prefix(BASE)
    if reuse_base != t_invoke:
        return (f"base-reusable prefix {reuse_base} != t_invoke {t_invoke}")
    reuse_self = res.cache.reusable_prefix(Provenance(spec.adapter_id))
    if reuse_self != res.cache.length:
        return "adapter cannot reuse its own full cache"
    return None


def _checked(name: str, ok: str, details) -> CheckResult:
    """Run the (trial number, failure or None) pairs in order; the check
    passes when none failed and otherwise names the first failure."""
    failures = [f"trial {t}: {detail}" for t, detail in details if detail]
    return CheckResult(name, not failures, failures[0] if failures else ok)


def run_verify(engine: Engine, seed: int, trials: int,
               spec: Optional[AdapterSpec] = None) -> List[CheckResult]:
    """The full suite; CLI `verify` prints one line per entry. A loaded
    adapter (``spec``) additionally runs through the KV-prefix check."""
    if spec is not None:
        spec.check_fits(engine.config)
    rng = np.random.default_rng(seed)
    if trials == 0:
        return [CheckResult("vacuous", True,
                            "trials=0: no checks executed (warning)")]

    results = [_checked(
        "kv-prefix-equivalence", f"{trials} trials bitwise equal",
        ((t, kv_equivalence_trial(engine, rng, rank=int(rng.choice([8, 32]))))
         for t in range(trials)))]
    if spec is not None:
        n_spec = max(1, min(trials, 20))
        results.append(_checked(
            f"loaded-adapter-kv ({spec.adapter_id})",
            f"{n_spec} trials bitwise equal",
            ((t, kv_equivalence_trial(engine, rng, spec=spec))
             for t in range(n_spec))))

    detected = kv_equivalence_trial(engine, rng, rank=8, corrupt=True)
    results.append(CheckResult(
        "mutation-sensitivity", detected is not None,
        detail=(detected or "corrupted policy was NOT detected")))

    n_small = max(1, min(trials, 10))
    for name, fn in (("cache-reuse-oracle", oracle_equivalence_trial),
                     ("t-invoke-zero-reduction", reduction_trial)):
        results.append(_checked(name, f"{n_small} trials bitwise equal",
                                ((t, fn(engine, rng)) for t in range(n_small))))
    results.append(_checked(
        "zero-delta-identity", f"{2 * n_small} trials bitwise equal",
        ((t, zero_delta_trial(engine, rng, mode=mode))
         for t in range(n_small) for mode in (MODE_ALORA, MODE_LORA))))
    results.append(_checked(
        "provenance-rules", f"{n_small} trials consistent",
        ((t, provenance_trial(engine, rng)) for t in range(n_small))))
    return results
