"""Engine: prefill reuse semantics, decode loop, and the three regimes."""

import numpy as np
import pytest

from alora import (BASE, Engine, GenerationRequest, ModelConfig, Provenance,
                   random_adapter, random_weights, row_bytes)
from alora.adapters import MODE_ALORA, MODE_LORA, zero_adapter
from alora.errors import ConfigurationError, ContractViolationError


def _alora_spec(config, inv=(2, 3), rank=8, seed=0, adapter_id="a"):
    return random_adapter(config.d_model, config.n_layers, rank=rank,
                          alpha=32.0, mode=MODE_ALORA, adapter_id=adapter_id,
                          seed=seed, invocation_sequence=inv)


def _lora_spec(config, rank=8, seed=0, adapter_id="l"):
    return random_adapter(config.d_model, config.n_layers, rank=rank,
                          alpha=32.0, mode=MODE_LORA, adapter_id=adapter_id,
                          seed=seed)


class TestPrefill:
    def test_plain_prompt_all_fresh_base_provenance(self, toy_engine, rng):
        prompt = rng.integers(8, 256, size=10).tolist()
        cache = toy_engine.prefill(GenerationRequest(prompt_tokens=prompt))
        assert cache.length == 10
        assert all(p == BASE for p in cache.provenance)
        assert cache.sealed_length == 10

    def test_alora_reuse_computes_only_fresh_tail(self, toy_engine, rng):
        # 8 cached base tokens + 2 invocation tokens, activation at 9:
        # exactly the two invocation positions are computed fresh
        base_prompt = rng.integers(8, 256, size=8).tolist()
        base_cache = toy_engine.prefill(GenerationRequest(prompt_tokens=base_prompt))
        spec = _alora_spec(toy_engine.config)
        res = toy_engine.invoke_intrinsic(base_cache, [2, 3], spec,
                                          max_new_tokens=0)
        assert res.t_invoke == 9
        assert res.cost.rows_reused == 8
        assert res.cost.rows_projected_fresh == 2

    def test_divergent_reuse_names_first_position(self, toy_engine, rng):
        prompt = rng.integers(8, 256, size=6).tolist()
        cache = toy_engine.prefill(GenerationRequest(prompt_tokens=prompt))
        altered = list(prompt)
        altered[3] = (altered[3] + 1) % 256
        with pytest.raises(ContractViolationError, match="position 3"):
            toy_engine.generate(GenerationRequest(prompt_tokens=altered,
                                                  reuse_cache=cache,
                                                  max_new_tokens=1))

    def test_empty_prompt_rejected(self, toy_engine):
        with pytest.raises(ContractViolationError):
            toy_engine.generate(GenerationRequest(prompt_tokens=[],
                                                  max_new_tokens=1))

    def test_prompt_beyond_positions_rejected(self, toy_engine, rng):
        prompt = rng.integers(8, 256,
                              size=toy_engine.config.max_positions + 1).tolist()
        with pytest.raises(ConfigurationError):
            toy_engine.generate(GenerationRequest(prompt_tokens=prompt,
                                                  max_new_tokens=0))


class TestReuseChecks:
    """The whole-list reuse checks against the per-position loops they replaced."""

    @staticmethod
    def usable_per_position(reuse, policy, prompt_len):
        usable = 0
        for p in range(min(reuse.length, prompt_len)):
            if reuse.provenance[p] != policy.provenance_at(p):
                break
            usable += 1
        return min(usable, prompt_len - 1)

    def test_usable_prefix_matches_per_position_loop(self, tiny_engine, rng):
        from alora import BASE_POLICY, build_policy
        from alora.adapters import ActivationPoint
        config = tiny_engine.config
        prompt = rng.integers(8, 32, size=20).tolist()
        base = tiny_engine.prefill(GenerationRequest(prompt_tokens=prompt))
        alora = _alora_spec(config)
        lora = _lora_spec(config)
        adapted = tiny_engine.invoke_intrinsic(base, [2, 3], alora,
                                               max_new_tokens=5).cache
        classic = tiny_engine.prefill(GenerationRequest(prompt_tokens=prompt,
                                                        adapter=lora))
        policies = [BASE_POLICY, build_policy(lora, None),
                    build_policy(_lora_spec(config, adapter_id="other"), None)]
        policies += [build_policy(alora, ActivationPoint(t))
                     for t in (0, 1, 10, 21, 22, 27, 40)]
        for cache in (base, adapted, classic):
            for policy in policies:
                for prompt_len in (1, cache.length // 2, cache.length,
                                   cache.length + 3):
                    assert tiny_engine._usable_prefix(cache, policy, prompt_len) \
                        == self.usable_per_position(cache, policy, prompt_len)

    @pytest.mark.parametrize("position", [0, 1, 17, 18, 19])
    def test_divergence_names_first_position(self, tiny_engine, rng, position):
        prompt = rng.integers(8, 32, size=20).tolist()
        cache = tiny_engine.prefill(GenerationRequest(prompt_tokens=prompt))
        altered = list(prompt)
        altered[position] = 8 + (altered[position] - 7) % 24
        altered[-1] = 8 + (altered[-1] - 7) % 24
        with pytest.raises(ContractViolationError,
                           match=f"position {position} "
                                 f"\\(cached {prompt[position]}, "
                                 f"prompt {altered[position]}\\)"):
            tiny_engine._check_reuse(cache, altered + [9])


class TestGenerate:
    def test_max_zero_counts_prefill_only(self, toy_engine, rng):
        prompt = rng.integers(8, 256, size=5).tolist()
        res = toy_engine.generate(GenerationRequest(prompt_tokens=prompt,
                                                    max_new_tokens=0))
        assert res.new_tokens == []
        assert res.cost.rows_projected_fresh == 5
        assert res.first_token_cost == res.cost

    def test_deterministic_repeat(self, toy_engine, rng):
        prompt = rng.integers(8, 256, size=12).tolist()
        req = lambda: GenerationRequest(prompt_tokens=prompt, max_new_tokens=8)
        a = toy_engine.generate(req())
        b = toy_engine.generate(req())
        assert a.new_tokens == b.new_tokens
        assert a.cost == b.cost
        assert a.first_token_cost == b.first_token_cost

    def test_min_max_bounds_hold(self, toy_engine, rng):
        prompt = rng.integers(8, 256, size=6).tolist()
        res = toy_engine.generate(GenerationRequest(
            prompt_tokens=prompt, min_new_tokens=4, max_new_tokens=9))
        assert 4 <= len(res.new_tokens) <= 9

    def test_generated_rows_enter_cache(self, toy_engine, rng):
        prompt = rng.integers(8, 256, size=4).tolist()
        res = toy_engine.generate(GenerationRequest(
            prompt_tokens=prompt, min_new_tokens=6, max_new_tokens=6))
        assert res.cache.length == 4 + 6
        assert res.cache.token_ids == prompt + res.new_tokens

    def test_min_exceeding_max_rejected(self):
        with pytest.raises(ConfigurationError):
            GenerationRequest(prompt_tokens=[1], min_new_tokens=3,
                              max_new_tokens=2)

    def test_eos_honored_only_after_min_tokens(self, rng):
        # zero unembedding ties every logit at 0.0, so greedy always picks
        # token 0 (EOS): min forces emission to continue, the stop lands
        # exactly at min, and the emitted EOS rows are real cache rows
        from alora import Engine, ModelConfig, random_weights
        config = ModelConfig(n_layers=1, n_heads=2, d_model=16, d_head=8,
                             vocab_size=32, max_positions=64)
        weights = random_weights(config, seed=4)
        weights.unembedding[:] = 0.0
        engine = Engine(weights, config)
        res = engine.generate(GenerationRequest(
            prompt_tokens=rng.integers(8, 32, size=5).tolist(),
            min_new_tokens=3, max_new_tokens=10))
        assert res.new_tokens == [0, 0, 0]
        assert res.cache.length == 5 + 3

    def test_section3_workload_shape(self, toy_engine, rng):
        # base answer, then a 16-token adapter evaluation over the shared cache
        prompt = rng.integers(8, 256, size=32).tolist()
        base = toy_engine.generate(GenerationRequest(
            prompt_tokens=prompt, min_new_tokens=24, max_new_tokens=24))
        assert len(base.new_tokens) == 24
        spec = _alora_spec(toy_engine.config)
        evaluation = toy_engine.invoke_intrinsic(base.cache, [2, 3], spec,
                                                 max_new_tokens=16,
                                                 min_new_tokens=16)
        assert len(evaluation.new_tokens) == 16
        assert evaluation.cost.rows_reused == base.cache.length


class TestInvokeIntrinsic:
    def test_five_fresh_rows_for_four_token_invocation(self, toy_engine, rng):
        base_prompt = rng.integers(8, 256, size=64).tolist()
        base_cache = toy_engine.prefill(GenerationRequest(prompt_tokens=base_prompt))
        spec = _alora_spec(toy_engine.config, inv=(2, 3, 4, 5))
        res = toy_engine.invoke_intrinsic(base_cache, [2, 3, 4, 5], spec,
                                          max_new_tokens=4, min_new_tokens=4)
        # first-token window: 4 invocation rows + the generated token's row
        assert res.first_token_cost.rows_projected_fresh == 5
        assert res.first_token_cost.rows_reused == 64

    def test_invocation_appended_when_absent(self, toy_engine, rng):
        base_prompt = rng.integers(8, 256, size=10).tolist()
        base_cache = toy_engine.prefill(GenerationRequest(prompt_tokens=base_prompt))
        spec = _alora_spec(toy_engine.config, inv=(2, 3))
        res = toy_engine.invoke_intrinsic(base_cache, [], spec,
                                          max_new_tokens=2)
        assert res.cache.token_ids[10:12] == [2, 3]
        assert res.t_invoke == 11

    def test_zero_delta_matches_base_continuation(self, toy_engine, rng):
        base_prompt = rng.integers(8, 256, size=12).tolist()
        base_cache = toy_engine.prefill(GenerationRequest(prompt_tokens=base_prompt))
        spec = zero_adapter(toy_engine.config.d_model, toy_engine.config.n_layers,
                            rank=4, alpha=8.0, mode=MODE_ALORA, adapter_id="z",
                            invocation_sequence=(2, 3))
        res = toy_engine.invoke_intrinsic(base_cache, [2, 3], spec,
                                          max_new_tokens=6, min_new_tokens=6)
        base_res = toy_engine.generate(GenerationRequest(
            prompt_tokens=base_prompt + [2, 3], min_new_tokens=6,
            max_new_tokens=6))
        assert res.new_tokens == base_res.new_tokens

    def test_classic_adapter_rejected(self, toy_engine, rng):
        base_cache = toy_engine.prefill(GenerationRequest(
            prompt_tokens=rng.integers(8, 256, size=4).tolist()))
        with pytest.raises(ContractViolationError, match="lora_invoke"):
            toy_engine.invoke_intrinsic(base_cache, [2, 3],
                                        _lora_spec(toy_engine.config))


class TestLoraInvoke:
    def test_prefill_recomputes_every_position(self, toy_engine, rng):
        full = rng.integers(8, 256, size=20).tolist()
        res = toy_engine.lora_invoke(full, _lora_spec(toy_engine.config),
                                     max_new_tokens=0)
        assert res.cost.rows_projected_fresh == 20
        assert res.cost.rows_reused == 0
        assert all(p == Provenance("l") for p in res.cache.provenance)

    def test_requests_by_one_spec_share_one_provenance_object(self, toy_engine,
                                                             rng):
        # Reuse checks compare provenance lists, which is fast only when
        # equal rows hold the same object.
        spec = _lora_spec(toy_engine.config)
        rows = [p for _ in range(2) for p in toy_engine.lora_invoke(
            rng.integers(8, 256, size=6).tolist(), spec,
            max_new_tokens=3, min_new_tokens=3).cache.provenance]
        assert len(rows) == 18
        assert all(p is rows[0] for p in rows)

    def test_zero_delta_equals_base(self, toy_engine, rng):
        full = rng.integers(8, 256, size=9).tolist()
        spec = zero_adapter(toy_engine.config.d_model, toy_engine.config.n_layers,
                            rank=4, alpha=8.0, mode=MODE_LORA, adapter_id="z")
        res = toy_engine.lora_invoke(full, spec, max_new_tokens=5,
                                     min_new_tokens=5)
        base = toy_engine.generate(GenerationRequest(
            prompt_tokens=full, max_new_tokens=5, min_new_tokens=5))
        assert res.new_tokens == base.new_tokens


class TestFanout:
    def test_bytes_scale_with_adapters_only(self, toy_engine, rng):
        config = toy_engine.config
        base_prompt = rng.integers(8, 256, size=40).tolist()
        base_cache = toy_engine.prefill(GenerationRequest(prompt_tokens=base_prompt))
        n, t_new = 5, 4
        adapters = [_alora_spec(config, inv=(2, 3, 4, 5), seed=i,
                                adapter_id=f"a{i}") for i in range(n)]
        results = toy_engine.fanout(base_cache, adapters,
                                    extra_tokens=[[2, 3, 4, 5]] * n,
                                    max_new_tokens=8, min_new_tokens=8)
        incremental = sum(r.cost.cache_bytes_incremental for r in results)
        assert incremental == n * t_new * row_bytes(config)
        lora_specs = [_lora_spec(config, seed=i, adapter_id=f"l{i}")
                      for i in range(n)]
        full = base_prompt + [2, 3, 4, 5]
        lora_bytes = sum(
            toy_engine.lora_invoke(full, s, max_new_tokens=8,
                                   min_new_tokens=8).cost.cache_bytes_incremental
            for s in lora_specs)
        assert lora_bytes == n * (len(base_prompt) + t_new) * row_bytes(config)

    def test_single_adapter_reduces_to_invoke(self, toy_engine, rng):
        base_cache = toy_engine.prefill(GenerationRequest(
            prompt_tokens=rng.integers(8, 256, size=16).tolist()))
        spec = _alora_spec(toy_engine.config, seed=3)
        direct = toy_engine.invoke_intrinsic(base_cache, [2, 3], spec,
                                             max_new_tokens=6, min_new_tokens=6)
        fan = toy_engine.fanout(base_cache, [spec], extra_tokens=[[2, 3]],
                                max_new_tokens=6, min_new_tokens=6)
        assert len(fan) == 1
        assert fan[0].new_tokens == direct.new_tokens
        assert fan[0].cost == direct.cost

    def test_total_flops_linear_in_adapter_count(self, toy_engine, rng):
        # counts depend on shapes only, so each adapter costs the same and
        # the merged ledger is an exact multiple of one adapter's
        base_cache = toy_engine.prefill(GenerationRequest(
            prompt_tokens=rng.integers(8, 256, size=24).tolist()))
        adapters = [_alora_spec(toy_engine.config, seed=i, adapter_id=f"a{i}")
                    for i in range(3)]
        results = toy_engine.fanout(base_cache, adapters, max_new_tokens=4,
                                    min_new_tokens=4)
        single = results[0].cost.counted_flops
        assert all(r.cost.counted_flops == single for r in results)
        assert sum(r.cost.counted_flops for r in results) == 3 * single

    def test_order_independent(self, toy_engine, rng):
        base_cache = toy_engine.prefill(GenerationRequest(
            prompt_tokens=rng.integers(8, 256, size=16).tolist()))
        adapters = [_alora_spec(toy_engine.config, seed=i, adapter_id=f"a{i}")
                    for i in range(3)]
        fwd = toy_engine.fanout(base_cache, adapters, max_new_tokens=5,
                                min_new_tokens=5)
        rev = toy_engine.fanout(base_cache, adapters[::-1], max_new_tokens=5,
                                min_new_tokens=5)
        for res_f, res_r in zip(fwd, rev[::-1]):
            assert res_f.new_tokens == res_r.new_tokens
            for a, b in zip(res_f.logits_trace, res_r.logits_trace):
                assert np.array_equal(a, b)


class TestResumeBase:
    def test_full_prefix_reused_when_adapter_added_nothing(self, toy_engine, rng):
        # single-token invocation at the very end: every prompt position stays
        # base-produced, so the resumed base request reuses all of them
        prompt = rng.integers(8, 256, size=14).tolist()
        base_cache = toy_engine.prefill(GenerationRequest(prompt_tokens=prompt))
        spec = _alora_spec(toy_engine.config, inv=(2,))
        res = toy_engine.invoke_intrinsic(base_cache, [2], spec,
                                          max_new_tokens=0)
        assert res.t_invoke == 15
        resumed = toy_engine.resume_base(res, rng.integers(8, 256, size=3).tolist(),
                                         max_new_tokens=2)
        assert resumed.cost.rows_reused == res.cache.length

    def test_adapter_rows_recomputed(self, toy_engine, rng):
        prompt = rng.integers(8, 256, size=12).tolist()
        base_cache = toy_engine.prefill(GenerationRequest(prompt_tokens=prompt))
        spec = _alora_spec(toy_engine.config, inv=(2, 3))
        res = toy_engine.invoke_intrinsic(base_cache, [2, 3], spec,
                                          max_new_tokens=16, min_new_tokens=16)
        adapter_rows = sum(1 for p in res.cache.provenance if not p.is_base)
        assert adapter_rows >= 16
        resumed = toy_engine.resume_base(res, [9, 9], max_new_tokens=2,
                                         min_new_tokens=2)
        assert resumed.cost.rows_reused == res.t_invoke
        # re-prefilled rows (everything past the base-produced prefix of the
        # 32-token prompt) plus the two generated tokens' own rows
        prompt_len = res.cache.length + 2
        assert resumed.cost.rows_projected_fresh == \
            (prompt_len - res.t_invoke) + 2

    def test_matches_from_scratch_base_pass(self, toy_engine, rng):
        prompt = rng.integers(8, 256, size=10).tolist()
        base_cache = toy_engine.prefill(GenerationRequest(prompt_tokens=prompt))
        spec = _alora_spec(toy_engine.config, inv=(2, 3))
        res = toy_engine.invoke_intrinsic(base_cache, [2, 3], spec,
                                          max_new_tokens=6, min_new_tokens=6)
        continuation = rng.integers(8, 256, size=4).tolist()
        resumed = toy_engine.resume_base(res, continuation, max_new_tokens=5,
                                         min_new_tokens=5)
        scratch = toy_engine.generate(GenerationRequest(
            prompt_tokens=list(res.cache.token_ids) + continuation,
            max_new_tokens=5, min_new_tokens=5))
        assert resumed.new_tokens == scratch.new_tokens
        for a, b in zip(resumed.logits_trace, scratch.logits_trace):
            assert np.array_equal(a, b)

    def test_provenance_discipline(self, toy_engine, rng):
        prompt = rng.integers(8, 256, size=8).tolist()
        base_cache = toy_engine.prefill(GenerationRequest(prompt_tokens=prompt))
        spec = _alora_spec(toy_engine.config, inv=(2, 3), adapter_id="mine")
        res = toy_engine.invoke_intrinsic(base_cache, [2, 3], spec,
                                          max_new_tokens=4, min_new_tokens=4)
        for position, provenance in enumerate(res.cache.provenance):
            if position < res.t_invoke:
                assert provenance == BASE
            else:
                assert provenance == Provenance("mine")


class TestAdapterFit:
    def test_more_layers_than_the_model_rejected(self, toy_engine, rng):
        config = toy_engine.config
        spec = random_adapter(config.d_model, config.n_layers + 5, rank=4,
                              alpha=8.0, mode=MODE_ALORA, adapter_id="deep",
                              seed=0, invocation_sequence=(2, 3))
        with pytest.raises(ConfigurationError, match="layer 4"):
            toy_engine.generate(GenerationRequest(
                prompt_tokens=rng.integers(8, 256, size=6).tolist(),
                adapter=spec, max_new_tokens=2))

    def test_other_width_rejected(self, toy_engine, rng):
        config = toy_engine.config
        spec = random_adapter(config.d_model // 2, config.n_layers, rank=4,
                              alpha=8.0, mode=MODE_LORA, adapter_id="narrow",
                              seed=0)
        with pytest.raises(ConfigurationError, match="d_model"):
            toy_engine.lora_invoke(rng.integers(8, 256, size=6).tolist(), spec,
                                   max_new_tokens=2)


class TestDeepConversation:
    def test_600_turns_alternating_adapter_and_base(self):
        # every turn forks the previous turn's cache, so reads walk a parent
        # chain one level deeper per turn
        config = ModelConfig(n_layers=1, n_heads=2, d_model=8, d_head=4,
                             vocab_size=32, max_positions=4096)
        engine = Engine(random_weights(config, seed=0), config)
        spec = random_adapter(config.d_model, config.n_layers, rank=2,
                              alpha=4.0, mode=MODE_ALORA, adapter_id="a",
                              seed=1, invocation_sequence=(2, 3))
        last = engine.generate(GenerationRequest(
            prompt_tokens=[9, 10, 11], max_new_tokens=1, min_new_tokens=1))
        for turn in range(1, 601):
            if turn % 2:
                last = engine.invoke_intrinsic(last.cache, [2, 3], spec,
                                               max_new_tokens=1,
                                               min_new_tokens=1)
            else:
                last = engine.resume_base(last, [12], max_new_tokens=1,
                                          min_new_tokens=1)
        assert last.cache.length == 4 + 300 * 3 + 300 * 2


def _skew_later_rows(call):
    """``call`` with every row after the first nudged by one ulp: a batched
    call whose rows depend on how many rows come with them."""
    def skewed(*args):
        out = call(*args)
        out[1:] = np.nextafter(out[1:], np.inf)
        return out
    return skewed


class TestRowInvarianceProbe:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_passes_in_f32_and_f64(self, toy_config, toy_weights, dtype):
        from alora.model import row_invariance_probe
        weights = toy_weights.astype(dtype)
        assert row_invariance_probe(weights) is None
        spec = _alora_spec(toy_config, inv=(2, 3))
        for delta in spec.deltas.values():
            assert row_invariance_probe(weights, delta) is None

    def test_row_dependent_projection_refused(self, toy_config, toy_weights,
                                              monkeypatch):
        from alora import model
        monkeypatch.setattr(model, "_row_matmul",
                            _skew_later_rows(model._row_matmul))
        with pytest.raises(ConfigurationError, match="row-invariance"):
            Engine(toy_weights, toy_config)

    def test_row_dependent_adapter_product_refused(self, toy_engine, rng,
                                                   monkeypatch):
        from alora import model
        spec = _alora_spec(toy_engine.config, inv=(2, 3))
        monkeypatch.setattr(model, "delta_apply",
                            _skew_later_rows(model.delta_apply))
        with pytest.raises(ConfigurationError, match="row-invariance"):
            toy_engine.generate(GenerationRequest(
                prompt_tokens=rng.integers(8, 256, size=6).tolist(),
                adapter=spec, max_new_tokens=2))
