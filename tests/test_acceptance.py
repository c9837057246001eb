"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete. Every tolerance is pinned here: equivalence checks
are exact (bitwise), cost checks are exact integer equalities, the gradient
check is <= 1e-4 relative in f64, and trainability is >= 0.95 exact match.
"""

from dataclasses import replace

import numpy as np
import pytest

from alora import (BASE_POLICY, CostQuery, Engine, GenerationRequest,
                   ModelConfig, TrainConfig, predict_first_token,
                   random_adapter, random_weights, row_bytes, train)
from alora.adapters import (MODE_ALORA, MODE_LORA, AdapterSpec, build_policy,
                            find_invocation, zero_adapter)
from alora.cache import CacheStore
from alora.cli import main as cli_main
from alora.costs import CostLedger
from alora.model import forward_segment
from alora.tasks import INVOCATION_SEQUENCE, TASK_COPY_KEY, make_synthetic_task
from alora.trainer import _backward, _cast, _forward_tape, \
    _loss_and_grad_logits, example_loss
from alora.verify import (kv_equivalence_trial, oracle_equivalence_trial,
                          reduction_trial, zero_delta_trial)


@pytest.fixture(scope="module")
def engine():
    config = ModelConfig(n_layers=4, n_heads=4, d_model=64, d_head=16,
                         vocab_size=256, max_positions=8192)
    return Engine(random_weights(config, seed=2024), config)


def _report(n, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {n} [{status}] {name}" + (f" - {detail}" if detail else ""))
    assert ok, f"criterion {n} failed: {detail}"


def test_criterion_1_kv_equivalence(engine):
    """100 seeded trials: K/V rows before t_invoke bitwise equal, all layers."""
    rng = np.random.default_rng(1)
    failures = []
    for trial in range(100):
        rank = int(rng.choice([8, 32]))
        detail = kv_equivalence_trial(engine, rng, rank=rank)
        if detail:
            failures.append(f"trial {trial}: {detail}")
    _report(1, "KV-prefix bitwise equivalence (100 trials, rank 8/32)",
            not failures, failures[0] if failures else "exact")


def test_criterion_2_cache_reuse_oracle(engine):
    """50 trials: reuse path vs from-scratch pass, 32 greedy tokens, bitwise."""
    rng = np.random.default_rng(2)
    failures = []
    for trial in range(50):
        detail = oracle_equivalence_trial(engine, rng, rank=8, new_tokens=32)
        if detail:
            failures.append(f"trial {trial}: {detail}")
    _report(2, "cache-reuse equals no-cache oracle (50 trials, 32 tokens)",
            not failures, failures[0] if failures else "exact")


def test_criterion_3_reduction_laws(engine):
    """(a) t_invoke=0 equals classic adapter; (b) zero deltas equal base."""
    rng = np.random.default_rng(3)
    failures = []
    for trial in range(20):
        detail = reduction_trial(engine, rng)
        if detail:
            failures.append(f"reduction trial {trial}: {detail}")
    for trial in range(20):
        for mode in (MODE_ALORA, MODE_LORA):
            detail = zero_delta_trial(engine, rng, mode=mode)
            if detail:
                failures.append(f"zero-delta {mode} trial {trial}: {detail}")
    _report(3, "reduction laws (20 trials each, bitwise)", not failures,
            failures[0] if failures else "exact")


def test_criterion_4_cost_separation(engine):
    """First-token flops: measured == predicted exactly; classic/activated
    ratio strictly increasing over T_cache in {256, 1024, 4096}."""
    rng = np.random.default_rng(4)
    config = engine.config
    t_new, inv = 16, (2, 3, 4, 5)
    ratios, failures = [], []
    for t_cache in (256, 1024, 4096):
        prompt = rng.integers(8, 256, size=t_cache).tolist()
        base_cache = engine.prefill(GenerationRequest(prompt_tokens=prompt))
        extra = rng.integers(8, 256, size=t_new - len(inv)).tolist() + list(inv)
        alora = random_adapter(64, 4, rank=32, alpha=32.0, mode=MODE_ALORA,
                               adapter_id="a", seed=int(rng.integers(2**32)),
                               invocation_sequence=inv)
        ares = engine.invoke_intrinsic(base_cache, extra, alora,
                                       max_new_tokens=2, min_new_tokens=2)
        lora = random_adapter(64, 4, rank=8, alpha=32.0, mode=MODE_LORA,
                              adapter_id="l", seed=int(rng.integers(2**32)))
        lres = engine.lora_invoke(prompt + extra, lora, max_new_tokens=2,
                                  min_new_tokens=2)
        apred = predict_first_token(CostQuery(t_cache, t_new, 1, MODE_ALORA,
                                              config))
        lpred = predict_first_token(CostQuery(t_cache, t_new, 1, MODE_LORA,
                                              config))
        if ares.first_token_cost != apred:
            failures.append(f"activated measured != predicted at T_cache={t_cache}")
        if lres.first_token_cost != lpred:
            failures.append(f"classic measured != predicted at T_cache={t_cache}")
        ratios.append(lres.first_token_cost.counted_flops
                      / ares.first_token_cost.counted_flops)
    if not all(a < b for a, b in zip(ratios, ratios[1:])):
        failures.append(f"ratios not strictly increasing: {ratios}")
    _report(4, "cost separation: exact counts, monotone ratio",
            not failures,
            failures[0] if failures else
            "ratios " + ", ".join(f"{r:.1f}" for r in ratios))


def test_criterion_5_memory_law(engine):
    """Fanout N=5, T_new=16: incremental bytes exactly 5*16*rowbytes;
    classic baseline exactly 5*(T_cache+16)*rowbytes."""
    rng = np.random.default_rng(5)
    config = engine.config
    n, t_new, inv = 5, 16, (2, 3, 4, 5)
    t_cache = 256
    prompt = rng.integers(8, 256, size=t_cache).tolist()
    base_cache = engine.prefill(GenerationRequest(prompt_tokens=prompt))
    extra = rng.integers(8, 256, size=t_new - len(inv)).tolist() + list(inv)
    adapters = [random_adapter(64, 4, rank=32, alpha=32.0, mode=MODE_ALORA,
                               adapter_id=f"a{i}", seed=i,
                               invocation_sequence=inv) for i in range(n)]
    results = engine.fanout(base_cache, adapters, extra_tokens=[extra] * n,
                            max_new_tokens=16, min_new_tokens=16)
    measured = sum(r.cost.cache_bytes_incremental for r in results)
    expected = n * t_new * config.n_layers * 2 * config.d_model * 4
    failures = []
    if measured != expected:
        failures.append(f"activated bytes {measured} != {expected}")
    lora_specs = [random_adapter(64, 4, rank=8, alpha=32.0, mode=MODE_LORA,
                                 adapter_id=f"l{i}", seed=i) for i in range(n)]
    lora_measured = sum(
        engine.lora_invoke(prompt + extra, spec, max_new_tokens=16,
                           min_new_tokens=16).cost.cache_bytes_incremental
        for spec in lora_specs)
    lora_expected = n * (t_cache + t_new) * row_bytes(config)
    if lora_measured != lora_expected:
        failures.append(f"classic bytes {lora_measured} != {lora_expected}")
    _report(5, "memory law: incremental bytes exact for both modes",
            not failures, failures[0] if failures else
            f"{measured} vs classic {lora_measured}")


def test_criterion_6_gradient_correctness():
    """f64 central differences, eps 1e-5, every adapter parameter on a
    2-layer toy config: max relative error <= 1e-4."""
    config = ModelConfig(n_layers=2, n_heads=2, d_model=16, d_head=8,
                         vocab_size=32, max_positions=64)
    weights = random_weights(config, seed=6).astype(np.float64)
    # writable copies, as the probes below perturb factors in place
    deltas = _cast(zero_adapter(config.d_model, config.n_layers, rank=3,
                                alpha=6.0, mode=MODE_LORA, adapter_id="fd",
                                seed=7, dtype=np.float64).deltas, np.float64)
    gen = np.random.default_rng(8)
    for key in sorted(deltas):
        deltas[key] = replace(
            deltas[key], b=0.02 * gen.standard_normal(deltas[key].b.shape))
    rng = np.random.default_rng(9)
    from alora.trainer import SftExample
    example = SftExample(
        context_tokens=tuple(rng.integers(8, 32, size=7).tolist()),
        invocation_tokens=(2, 3),
        target_tokens=tuple(rng.integers(8, 32, size=2).tolist()) + (0,))
    logits, tape = _forward_tape(example.tokens, example.t_invoke, weights,
                                 config, deltas)
    _, dlogits = _loss_and_grad_logits(logits, example)
    grads_a, grads_b = _backward(tape, dlogits, weights, config, deltas)

    eps, worst, checked = 1e-5, 0.0, 0
    for which, grads in (("a", grads_a), ("b", grads_b)):
        for key in sorted(deltas):
            flat = getattr(deltas[key], which).reshape(-1)
            gflat = grads[key].reshape(-1)
            for idx in range(flat.size):
                orig = flat[idx]
                flat[idx] = orig + eps
                up = example_loss(example, weights, config, deltas)
                flat[idx] = orig - eps
                down = example_loss(example, weights, config, deltas)
                flat[idx] = orig
                fd = (up - down) / (2 * eps)
                worst = max(worst, abs(fd - gflat[idx])
                            / max(abs(fd), abs(gflat[idx]), 1e-6))
                checked += 1
    _report(6, "gradient correctness vs central differences", worst <= 1e-4,
            f"max rel err {worst:.2e} over {checked} parameters")


def test_criterion_7_trainability(engine):
    """copy_key, rank 8, <= 3000 steps: >= 0.95 exact match on 200 held-out
    examples; afterwards the trained adapter passes the criterion-1 check."""
    config = ModelConfig(n_layers=4, n_heads=4, d_model=64, d_head=16,
                         vocab_size=256, max_positions=512)
    weights = random_weights(config, seed=0)
    train_set = make_synthetic_task(TASK_COPY_KEY, 2000, seed=100)
    held_out = make_synthetic_task(TASK_COPY_KEY, 200, seed=101)
    template = AdapterSpec(adapter_id="ck", mode=MODE_ALORA, deltas={},
                           invocation_sequence=INVOCATION_SEQUENCE)
    result = train(train_set, template, weights, config,
                   TrainConfig(learning_rate=2e-3, steps=2500, batch_size=16,
                               rank=8, alpha=32.0, dropout_rate=0.05, seed=0,
                               eval_every=1250),
                   eval_dataset=held_out)
    exact = result.final_exact_match
    failures = []
    if exact < 0.95:
        failures.append(f"exact match {exact:.3f} < 0.95")

    # the trained adapter must preserve the KV-prefix equivalence
    trained = result.spec
    train_engine = Engine(weights, config)
    rng = np.random.default_rng(7)
    for trial in range(20):
        prompt = rng.integers(8, 256, size=int(rng.integers(16, 129))).tolist()
        start = int(rng.integers(0, len(prompt) - 1))
        prompt[start:start + 2] = list(INVOCATION_SEQUENCE)
        activation = find_invocation(prompt, trained)
        base_cache = CacheStore(config)
        forward_segment(prompt, 0, weights, config, BASE_POLICY, base_cache,
                        CostLedger())
        adapted_cache = CacheStore(config)
        forward_segment(prompt, 0, weights, config,
                        build_policy(trained, activation), adapted_cache,
                        CostLedger())
        for layer in range(config.n_layers):
            upto = activation.t_invoke
            if not np.array_equal(base_cache.k_matrix(layer, upto),
                                  adapted_cache.k_matrix(layer, upto)) or \
               not np.array_equal(base_cache.v_matrix(layer, upto),
                                  adapted_cache.v_matrix(layer, upto)):
                failures.append(f"trained adapter broke KV prefix, trial {trial}")
                break
    _report(7, "trainability and invariant preservation", not failures,
            failures[0] if failures else f"exact match {exact:.3f}")


def test_criterion_8_mutation_sensitivity(engine):
    """Flipping one pre-activation verdict must break criterion 1."""
    rng = np.random.default_rng(8)
    detected = kv_equivalence_trial(engine, rng, rank=8, corrupt=True)
    _report(8, "mutation sensitivity (corrupted policy detected)",
            detected is not None, detected or "corruption went unnoticed")


def test_criterion_9_bench_determinism(tmp_path):
    """cmd_bench twice with one seed: byte-identical CSV minus wall_ns."""
    ckpt = tmp_path / "bench.alre"
    assert cli_main(["gen-model", "--out", str(ckpt), "--seed", "11",
                     "--max-positions", "512"]) == 0
    args = ["--prompt-lengths", "32,64", "--answer-tokens", "8",
            "--eval-tokens", "4", "--n-adapters", "1,2",
            "--repetitions", "2", "--seed", "3"]
    texts = []
    for name in ("run1.csv", "run2.csv"):
        out = tmp_path / name
        assert cli_main(["bench", "--checkpoint", str(ckpt),
                         "--out", str(out)] + args) == 0
        texts.append(out.read_text())
    drop_wall = lambda text: [
        ",".join(part for i, part in enumerate(line.split(",")) if i != 8)
        for line in text.strip().split("\n")]
    ok = drop_wall(texts[0]) == drop_wall(texts[1])
    _report(9, "bench CSV deterministic modulo wall_ns", ok)
