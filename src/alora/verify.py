"""Invariant suite: cache-equivalence and reduction checks over random trials.

Each check builds random prompts and random adapters, runs paired passes,
and demands BITWISE equality. That is attainable because every row takes
its own gemv calls and its own attention products, whether its run goes
through the layer loop as a block or as a 1-D row, so its result does not
depend on how many rows are computed with it. ``Engine`` probes this
property of numpy and the BLAS at its first request (here the first oracle
trial) and raises ConfigurationError if it fails. The mutation check
adapts one position before t_invoke, running the prompt as three segments
into one cache (base rows, that one position under the adapter, the rest
under the real policy), which by row invariance gives the rows one run
would, and requires the equivalence check to fail, proving the suite can
actually detect violations. The provenance check reads the engine's own reuse rule
through requests that reuse a cache, so it tests the rule that serves.
Every trial adapter's rank is capped at d_model (``_trial_adapter``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from .adapters import (MODE_ALORA, MODE_LORA, ActivationPoint, AdapterPolicy,
                       AdapterSpec, BASE_POLICY, build_policy, find_invocation,
                       random_adapter, zero_adapter)
from .cache import CacheStore, first_row_difference
from .costs import CostLedger
from .engine import Engine, GenerationRequest, GenerationResult
from .model import forward_segment


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


def _trial_adapter(engine: Engine, rng, adapter_id: str, *, rank: int = 8,
                   mode: str = MODE_ALORA, inv=None,
                   make=random_adapter) -> AdapterSpec:
    """A trial's adapter from ``make``, alpha 32, its seed drawn from
    ``rng``. The rank is capped at d_model, which changes no draw, so the
    random stream does not depend on the model's width."""
    config = engine.config
    return make(config.d_model, config.n_layers,
                rank=min(rank, config.d_model), alpha=32.0, mode=mode, adapter_id=adapter_id,
                seed=int(rng.integers(0, 2**32)), invocation_sequence=inv)


def _random_invocation(rng) -> Tuple[int, ...]:
    n = int(rng.integers(2, 5))
    return tuple(int(t) for t in rng.integers(2, 8, size=n))


def _planted_prompt(rng, config, inv: Tuple[int, ...]) -> List[int]:
    """Prompt of 16 to 128 tokens with exactly one invocation occurrence
    (token ranges disjoint)."""
    length = max(int(rng.integers(16, 129)), len(inv) + 2)
    prompt = rng.integers(8, config.vocab_size, size=length).tolist()
    start = int(rng.integers(0, length - len(inv) + 1))
    prompt[start:start + len(inv)] = list(inv)
    return [int(t) for t in prompt]


def _decode_mismatch(a: GenerationResult, b: GenerationResult,
                     what: str) -> Optional[str]:
    """Where the decodes of the two requests that ``what`` names part:
    their tokens, or else the first decode step whose logits differ in any
    bit; None when they agree."""
    if a.new_tokens != b.new_tokens:
        return f"{what}: tokens diverge: {a.new_tokens[:8]} vs {b.new_tokens[:8]}"
    for i, (x, y) in enumerate(zip(a.logits_trace, b.logits_trace)):
        if not np.array_equal(x, y):
            return f"{what}: logits diverge at decode step {i}"
    return None


def kv_equivalence_trial(engine: Engine, rng, *, rank: int = 8,
                         corrupt: bool = False,
                         spec: Optional[AdapterSpec] = None) -> Optional[str]:
    """Base pass vs activated-adapter pass: K/V rows before t_invoke must be
    bitwise equal at every layer. Returns a mismatch description or None.

    When ``spec`` is given (e.g. a trained adapter loaded from disk) it is
    used as-is; otherwise a random adapter of the given rank is drawn.
    ``corrupt`` also adapts one random position before t_invoke.
    """
    config = engine.config
    if spec is None:
        inv = _random_invocation(rng)
        spec = _trial_adapter(engine, rng, f"trial-{rank}", rank=rank, inv=inv)
    else:
        inv = spec.invocation_sequence
    prompt = _planted_prompt(rng, config, inv)
    activation = find_invocation(prompt, spec)
    t_invoke = activation.t_invoke

    base_cache = CacheStore(config, dtype=engine.weights.dtype)
    forward_segment(prompt, 0, engine.weights, config, BASE_POLICY,
                    base_cache, CostLedger())

    policy = build_policy(spec, activation)
    segments = ((0, len(prompt), policy),)
    if corrupt:
        # Position c alone is adapted early: the violation to detect.
        c = int(rng.integers(0, t_invoke))
        segments = ((0, c, BASE_POLICY), (c, c + 1, AdapterPolicy(spec, 0)),
                    (c + 1, len(prompt), policy))
    adapted_cache = CacheStore(config, dtype=engine.weights.dtype)
    for a, b, segment_policy in segments:
        if a < b:
            forward_segment(prompt[a:b], a, engine.weights, config,
                            segment_policy, adapted_cache, CostLedger())
    return first_row_difference(base_cache, adapted_cache, t_invoke)


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
    spec = _trial_adapter(engine, rng, "oracle-trial", rank=rank, inv=inv)
    reused = engine.invoke_intrinsic(base_res.cache, list(inv), spec,
                                     max_new_tokens=new_tokens,
                                     min_new_tokens=new_tokens)
    full_prompt = list(base_res.cache.token_ids) + list(inv)
    scratch = engine.generate(GenerationRequest(
        prompt_tokens=full_prompt, adapter=spec, max_new_tokens=new_tokens,
        min_new_tokens=new_tokens))
    return _decode_mismatch(reused, scratch, "cache reuse vs from scratch")


def reduction_trial(engine: Engine, rng, *, rank: int = 8,
                    new_tokens: int = 16) -> Optional[str]:
    """Activated adapter with t_invoke=0 must equal the classic adapter."""
    config = engine.config
    prompt = rng.integers(8, config.vocab_size,
                          size=int(rng.integers(8, 33))).tolist()
    alora = _trial_adapter(engine, rng, "red-a", rank=rank, inv=(2, 3))
    lora = AdapterSpec(adapter_id="red-l", mode=MODE_LORA, deltas=alora.deltas)
    res_a = engine.generate(
        GenerationRequest(prompt_tokens=prompt, adapter=alora,
                          max_new_tokens=new_tokens),
        activation=ActivationPoint(0))
    res_l = engine.lora_invoke(prompt, lora, max_new_tokens=new_tokens)
    return _decode_mismatch(res_a, res_l, "t_invoke=0 vs classic adapter")


def zero_delta_trial(engine: Engine, rng, *, mode: str = MODE_ALORA,
                     rank: int = 8, new_tokens: int = 16) -> Optional[str]:
    """All-zero deltas must reproduce the base model bitwise."""
    config = engine.config
    inv = _random_invocation(rng)
    prompt = rng.integers(8, config.vocab_size,
                          size=int(rng.integers(8, 33))).tolist()
    spec = _trial_adapter(engine, rng, "zero", rank=rank, mode=mode,
                          inv=inv if mode == MODE_ALORA else None,
                          make=zero_adapter)
    full = prompt + list(inv) if mode == MODE_ALORA else prompt
    res_adapter = (engine.invoke_intrinsic(
        _sealed_prefill(engine, prompt), list(inv), spec,
        max_new_tokens=new_tokens) if mode == MODE_ALORA
        else engine.lora_invoke(full, spec, max_new_tokens=new_tokens))
    res_base = engine.generate(GenerationRequest(
        prompt_tokens=full, max_new_tokens=new_tokens))
    return _decode_mismatch(res_adapter, res_base, f"zero-delta {mode} vs base")


def _sealed_prefill(engine: Engine, prompt) -> CacheStore:
    return engine.prefill(GenerationRequest(prompt_tokens=prompt))


def provenance_trial(engine: Engine, rng, *, rank: int = 8) -> Optional[str]:
    """Provenance must track the generating policy position by position,
    and the engine's reuse rule must honour it: past an activated adapter's
    request, the base model reuses only the rows before t_invoke and the
    same adapter, activated at the same point, reuses every row."""
    config = engine.config
    inv = _random_invocation(rng)
    prompt = rng.integers(8, config.vocab_size,
                          size=int(rng.integers(16, 49))).tolist()
    base_cache = _sealed_prefill(engine, prompt)
    if any(p is not None for p in base_cache.provenance):
        return "base prefill produced non-base provenance"
    spec = _trial_adapter(engine, rng, "prov", rank=rank, inv=inv)
    res = engine.invoke_intrinsic(base_cache, list(inv), spec,
                                  max_new_tokens=8, min_new_tokens=8)
    t_invoke = res.t_invoke
    for p, prov in enumerate(res.cache.provenance):
        if prov is not (None if p < t_invoke else spec):
            who = "base" if prov is None else f"adapter {prov.adapter_id!r}"
            return f"provenance at position {p} is {who}, t_invoke={t_invoke}"
    # One more token, so that every cached row may be reused, and no decode.
    prompt = res.cache.token_ids + [8]
    for who, adapter, activation, want in (
            ("base model", None, None, t_invoke),
            ("adapter", spec, ActivationPoint(t_invoke), res.cache.length)):
        reused = engine.generate(GenerationRequest(
            prompt_tokens=prompt, adapter=adapter, reuse_cache=res.cache,
            max_new_tokens=0), activation=activation).cost.rows_reused
        if reused != want:
            return (f"{who} reused {reused} of {res.cache.length} rows, "
                    f"expected {want} (t_invoke {t_invoke})")
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
        detail=detected or "a position adapted early was NOT detected"))

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
