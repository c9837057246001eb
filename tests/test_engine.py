"""Engine: prefill reuse semantics, decode loop, and the three regimes."""

from dataclasses import replace

import numpy as np
import pytest

from alora import (AdapterSpec, Engine, GenerationRequest, LowRankDelta,
                   ModelConfig, random_adapter, random_weights, row_bytes)
from alora import engine as engine_module
from alora.cache import BLOCK_ROWS
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
        assert all(p is None for p in cache.provenance)
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

    @pytest.mark.parametrize("prompt_len,min_new,max_new", [
        (128, 0, 1),     # a full-length prompt overflows on its first token
        (125, 4, 8),     # min_new_tokens rows can never fit
    ])
    def test_certain_overflow_refused_before_prefill(
            self, tiny_engine, rng, monkeypatch, prompt_len, min_new, max_new):
        assert tiny_engine.config.max_positions == 128
        prompt = rng.integers(8, 32, size=prompt_len).tolist()

        def no_prefill(*args, **kwargs):
            raise AssertionError("prefill ran")

        monkeypatch.setattr(engine_module, "forward_segment", no_prefill)
        with pytest.raises(ConfigurationError, match="exceed max_positions 128"):
            tiny_engine.generate(GenerationRequest(
                prompt_tokens=prompt, min_new_tokens=min_new,
                max_new_tokens=max_new))

    def test_prefill_beyond_positions_refused_before_forward(
            self, tiny_engine, rng, monkeypatch):
        prompt = rng.integers(8, 32, size=129).tolist()
        # a prompt that fits exactly prefills; it generates no token
        assert tiny_engine.prefill(GenerationRequest(
            prompt_tokens=prompt[:128])).length == 128

        def no_prefill(*args, **kwargs):
            raise AssertionError("prefill ran")

        monkeypatch.setattr(engine_module, "forward_segment", no_prefill)
        with pytest.raises(ConfigurationError, match="exceed max_positions 128"):
            tiny_engine.prefill(GenerationRequest(prompt_tokens=prompt))

    def test_request_that_fits_exactly_runs(self, tiny_engine, rng):
        res = tiny_engine.generate(GenerationRequest(
            prompt_tokens=rng.integers(8, 32, size=124).tolist(),
            min_new_tokens=4, max_new_tokens=4))
        assert res.cache.length == 128


def _reuse_ignoring_provenance(engine, reuse, policy, prompt_len):
    return min(reuse.length, prompt_len - 1)


def _reuse_of_base_rows_only(engine, reuse, policy, prompt_len):
    usable = 0
    for prov in reuse.provenance[:prompt_len - 1]:
        if prov is not None:
            break
        usable += 1
    return usable


class TestReuseChecks:
    """The whole-list reuse checks against the per-position loops they replaced."""

    @staticmethod
    def usable_per_position(reuse, policy, prompt_len):
        usable = 0
        first = policy.first_adapted
        for p in range(min(reuse.length, prompt_len)):
            want = None if first is None or p < first else policy.spec
            if reuse.provenance[p] is not want:
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

    @pytest.mark.parametrize("rule, who", [
        (_reuse_ignoring_provenance, "base model"),
        (_reuse_of_base_rows_only, "adapter")])
    def test_provenance_check_reads_the_engine_rule(self, tiny_engine,
                                                    monkeypatch, rule, who):
        # verify's provenance-rules check must fail on an engine whose reuse
        # ignores provenance, or refuses an adapter its own rows.
        from alora.verify import provenance_trial
        assert provenance_trial(tiny_engine, np.random.default_rng(5)) is None
        monkeypatch.setattr(Engine, "_usable_prefix", rule)
        for seed in range(3):
            failure = provenance_trial(tiny_engine, np.random.default_rng(seed))
            assert failure is not None and failure.startswith(f"{who} reused")

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
        weights = replace(weights, unembedding=np.zeros_like(weights.unembedding))
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


class TestRequestTokens:
    @pytest.mark.parametrize("prompt", [[3.7, 9.2], [3, 9.0], [np.float32(4)],
                                        ["3"], [None]])
    def test_non_integer_token_refused(self, prompt):
        with pytest.raises(ContractViolationError, match="integers"):
            GenerationRequest(prompt_tokens=prompt)

    def test_numpy_integer_tokens_accepted(self, toy_engine, rng):
        prompt = rng.integers(8, 256, size=6)
        mixed = [np.int32(prompt[0]), np.uint8(prompt[1])] + prompt[2:].tolist()
        for tokens in (prompt, mixed):
            request = GenerationRequest(prompt_tokens=tokens, max_new_tokens=2)
            assert request.prompt_tokens == prompt.tolist()
            assert {type(t) for t in request.prompt_tokens} == {int}
        res = toy_engine.generate(request)
        assert res.cache.token_ids[:6] == prompt.tolist()

    def test_non_integer_extra_tokens_refused(self, toy_engine, rng):
        base_cache = toy_engine.prefill(GenerationRequest(
            prompt_tokens=rng.integers(8, 256, size=8).tolist()))
        spec = _alora_spec(toy_engine.config, inv=(2, 3))
        with pytest.raises(ContractViolationError, match="integers"):
            toy_engine.invoke_intrinsic(base_cache, [2.0, 3.5], spec)


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

    def test_decoding_fork_copies_its_prefix_once(self, toy_engine, rng,
                                                  monkeypatch):
        from alora import cache as cache_module
        copied = []

        class CountingNumpy:
            """numpy, with the bytes of every concatenated result counted."""

            def __getattr__(self, attr):
                return getattr(np, attr)

            def concatenate(self, *args, **kwargs):
                out = np.concatenate(*args, **kwargs)
                copied.append(out.nbytes)
                return out

        config = toy_engine.config
        # 37 rows: the fork shares two blocks and copies 5 rows into its
        # own third, so its reads past the shared run join two slices
        base = toy_engine.prefill(GenerationRequest(
            prompt_tokens=rng.integers(8, 256, size=37).tolist()))
        monkeypatch.setattr(cache_module, "np", CountingNumpy())
        k = 12
        res = toy_engine.invoke_intrinsic(base, [2, 3], _alora_spec(config),
                                          max_new_tokens=k, min_new_tokens=k)
        assert res.cache.length == 37 + 2 + k
        # one K and one V fill per layer, of the 39 prompt rows; no decode
        # step copies the prefix again
        assert len(copied) == 2 * config.n_layers
        assert sum(copied) == 2 * config.n_layers * 39 * config.d_model * 4

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
        spec = _lora_spec(toy_engine.config)
        res = toy_engine.lora_invoke(full, spec, max_new_tokens=0)
        assert res.cost.rows_projected_fresh == 20
        assert res.cost.rows_reused == 0
        assert all(p is spec for p in res.cache.provenance)

    def test_requests_by_one_spec_share_one_provenance_object(self, toy_engine,
                                                             rng):
        # Reuse checks compare provenance lists, which is fast only when
        # equal rows hold the same object.
        spec = _lora_spec(toy_engine.config)
        rows = [p for _ in range(2) for p in toy_engine.lora_invoke(
            rng.integers(8, 256, size=6).tolist(), spec,
            max_new_tokens=3, min_new_tokens=3).cache.provenance]
        assert len(rows) == 18
        assert all(p is spec for p in rows)

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

    def test_stats_follow_the_memory_law(self, toy_engine, rng):
        # a base cache that ends mid-block, so every fork copies a partial block
        base = toy_engine.generate(GenerationRequest(
            prompt_tokens=rng.integers(8, 256, size=43).tolist(),
            max_new_tokens=4, min_new_tokens=4)).cache
        length, n, new_rows = base.length, 5, 4 + 8
        partial = length % BLOCK_ROWS
        assert partial
        adapters = [_alora_spec(toy_engine.config, inv=(2, 3, 4, 5), seed=i,
                                adapter_id=f"a{i}") for i in range(n)]
        results = toy_engine.fanout(base, adapters,
                                    extra_tokens=[[2, 3, 4, 5]] * n,
                                    max_new_tokens=8, min_new_tokens=8)
        for r in results:
            stats = r.cache.stats()
            assert stats.owned_positions == new_rows
            assert stats.aliased_positions == length
            assert stats.rows_copied_at_fork == partial
            assert stats.blocks == -(-(length + new_rows) // BLOCK_ROWS)
        # memory law in rows: the base once, each fork's own rows once
        law_rows = base.stats().owned_positions + sum(
            r.cache.stats().owned_positions for r in results)
        assert law_rows == length + n * new_rows
        # blocks: the base's, then each fork's copied partial block and tail
        live = results[0].cache.stats().pool_live_blocks
        own_blocks = -(-(partial + new_rows) // BLOCK_ROWS)
        assert live == -(-length // BLOCK_ROWS) + n * own_blocks
        law_blocks = -(-length // BLOCK_ROWS) + n * -(-new_rows // BLOCK_ROWS)
        assert -(-law_rows // BLOCK_ROWS) <= live <= law_blocks + n
        assert live + stats.pool_free_blocks == len(base.pool.refs)

    def test_read_buffers_live_while_a_fork_decodes(self, toy_engine, rng,
                                                    monkeypatch):
        base = toy_engine.prefill(GenerationRequest(
            prompt_tokens=rng.integers(8, 256, size=43).tolist()))
        step = engine_module.forward_position
        seen = []

        def traced(token, position, weights, config, policy, cache, *args,
                   **kwargs):
            seen.append(cache.stats().read_buffer_bytes)
            return step(token, position, weights, config, policy, cache,
                        *args, **kwargs)

        monkeypatch.setattr(engine_module, "forward_position", traced)
        results = toy_engine.fanout(
            base, [_alora_spec(toy_engine.config, seed=i, adapter_id=f"a{i}")
                   for i in range(2)], max_new_tokens=6, min_new_tokens=6)
        # a K and a V buffer per layer, at least the fork's rows each
        rows = 2 * toy_engine.config.n_layers * (base.length + 2)
        assert len(seen) == 12
        assert min(seen) >= rows * toy_engine.config.d_model * 4
        # sealed caches hold none; the base cache, a root, never had any
        assert [r.cache.stats().read_buffer_bytes for r in results] == [0, 0]
        assert base.stats().read_buffer_bytes == 0

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
        adapter_rows = sum(1 for p in res.cache.provenance if p is not None)
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
                assert provenance is None
            else:
                assert provenance is spec

    def test_specs_compare_and_hash_by_identity(self, toy_engine):
        # Rows name their producer by the spec object: a spec built from
        # the same factors and id is another producer, and a spec's repr
        # names it without printing its factors.
        config = toy_engine.config
        spec, twin = (_alora_spec(config, adapter_id="mine") for _ in range(2))
        assert spec == spec and spec != twin
        assert hash(spec) == hash(spec) and len({spec, twin}) == 2
        assert {spec: 1}[spec] == 1 and twin not in {spec: 1}
        assert replace(spec) != spec
        assert "mine" in repr(spec) and len(repr(spec)) < 200

    def test_specs_sharing_an_id_share_no_rows(self, toy_engine, rng):
        # Two adapters named "x": the second may reuse the base rows of the
        # first one's cache, never the rows the first one produced.
        config = toy_engine.config
        first = _alora_spec(config, seed=1, adapter_id="x")
        second = _alora_spec(config, seed=2, adapter_id="x")
        base_cache = toy_engine.prefill(GenerationRequest(
            prompt_tokens=rng.integers(8, 256, size=44).tolist()))
        res = toy_engine.invoke_intrinsic(base_cache, [2, 3], first,
                                          max_new_tokens=8, min_new_tokens=8)
        assert res.t_invoke == 45 and res.cache.length == 54
        reused = toy_engine.invoke_intrinsic(res.cache, [9], second,
                                             max_new_tokens=4, min_new_tokens=4)
        scratch = toy_engine.generate(GenerationRequest(
            prompt_tokens=res.cache.token_ids + [9], adapter=second,
            min_new_tokens=4, max_new_tokens=4))
        assert reused.t_invoke == scratch.t_invoke == 45
        assert reused.cost.rows_reused == 45
        assert reused.new_tokens == scratch.new_tokens
        for a, b in zip(reused.logits_trace, scratch.logits_trace):
            assert np.array_equal(a, b)

    def test_factors_changed_after_serving_leave_no_stale_rows(self, toy_engine,
                                                                rng):
        # The caller triples its own b arrays after the spec has served a
        # request: the spec holds copies, so the rows it made stay its own.
        # A tripled adapter is a new spec and reuses only the base rows.
        config = toy_engine.config
        held = {key: LowRankDelta(a=d.a.copy(), b=d.b.copy(), rank=d.rank,
                                  alpha=d.alpha)
                for key, d in _alora_spec(config, seed=1).deltas.items()}
        spec = AdapterSpec(adapter_id="x", mode=MODE_ALORA, deltas=held,
                           invocation_sequence=(2, 3))
        base_cache = toy_engine.prefill(GenerationRequest(
            prompt_tokens=rng.integers(8, 256, size=44).tolist()))
        res = toy_engine.invoke_intrinsic(base_cache, [2, 3], spec,
                                          max_new_tokens=8, min_new_tokens=8)
        assert res.cache.length == 54
        for delta in held.values():
            delta.b[...] *= 3
        with pytest.raises(ValueError, match="read-only"):
            spec.deltas[(0, "q")].b[...] *= 3
        tripled = replace(spec, deltas=held)
        for adapter, rows in ((spec, 54), (tripled, 45)):
            reused = toy_engine.invoke_intrinsic(res.cache, [9], adapter,
                                                 max_new_tokens=4,
                                                 min_new_tokens=4)
            scratch = toy_engine.generate(GenerationRequest(
                prompt_tokens=res.cache.token_ids + [9], adapter=adapter,
                min_new_tokens=4, max_new_tokens=4))
            assert reused.cost.rows_reused == rows
            assert reused.new_tokens == scratch.new_tokens
            for a, b in zip(reused.logits_trace, scratch.logits_trace):
                assert np.array_equal(a, b)


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
    def test_5000_turns_alternating_adapter_and_base(self):
        # every turn forks the previous turn's cache; the dropped turns'
        # blocks go back to the pool, so it never grows
        config = ModelConfig(n_layers=1, n_heads=2, d_model=8, d_head=4,
                             vocab_size=32, max_positions=16384)
        engine = Engine(random_weights(config, seed=0), config)
        spec = random_adapter(config.d_model, config.n_layers, rank=2,
                              alpha=4.0, mode=MODE_ALORA, adapter_id="a",
                              seed=1, invocation_sequence=(2, 3))
        last = engine.generate(GenerationRequest(
            prompt_tokens=[9, 10, 11], max_new_tokens=1, min_new_tokens=1))
        pool = last.cache.pool
        reserved = len(pool.refs)
        for turn in range(1, 5001):
            if turn % 2:
                last = engine.invoke_intrinsic(last.cache, [2, 3], spec,
                                               max_new_tokens=1,
                                               min_new_tokens=1)
            else:
                last = engine.resume_base(last, [12], max_new_tokens=1,
                                          min_new_tokens=1)
        assert last.cache.length == 4 + 2500 * 3 + 2500 * 2
        assert last.cache.pool is pool and len(pool.refs) == reserved
        assert pool.live_blocks == last.cache.stats().blocks


def _skew_later_rows(call):
    """``call`` with every row after the first nudged by one ulp: a batched
    call whose rows depend on how many rows come with them. Of a returned
    pair (``rms_norm_row``, ``gelu``), the value is nudged."""
    def skewed(*args):
        out = call(*args)
        value = out[0] if isinstance(out, tuple) else out
        value[1:] = np.nextafter(value[1:], np.inf)
        return out
    return skewed


def _skew_w_o_only(row_matmul):
    """``_row_matmul`` skewed for the W_O product only, the one square
    weight it multiplies."""
    skewed = _skew_later_rows(row_matmul)

    def call(x, w):
        return (skewed if w.shape[0] == w.shape[1] else row_matmul)(x, w)
    return call


class TestRowInvarianceProbe:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_passes_in_f32_and_f64(self, toy_config, toy_weights, dtype):
        from alora.adapters import BASE_POLICY, AdapterPolicy
        from alora.model import PROBE_PREFIX, row_invariance_probe
        weights = toy_weights.astype(dtype)
        spec = _alora_spec(toy_config, inv=(2, 3))
        for policy in (BASE_POLICY, AdapterPolicy(spec, PROBE_PREFIX + 1),
                       AdapterPolicy(spec, 0)):
            assert row_invariance_probe(weights, toy_config, policy) is None

    @pytest.mark.parametrize("target, wrap", [
        ("_row_matmul", _skew_w_o_only),
        ("rms_norm_row", _skew_later_rows),
        ("gelu", _skew_later_rows),
        ("rope_rotate_heads", _skew_later_rows),
        ("attend_run", _skew_later_rows),
        ("delta_apply", _skew_later_rows),
        ("_row_matmul", _skew_later_rows),
    ], ids=["w_o_only", "rms_norm_row", "gelu", "rope_rotate_heads",
            "attend_run", "delta_apply", "every_row_matmul"])
    def test_row_dependent_step_refused_at_first_request(
            self, toy_config, toy_weights, rng, monkeypatch, target, wrap):
        from alora import model
        monkeypatch.setattr(model, target, wrap(getattr(model, target)))
        engine = Engine(toy_weights, toy_config)  # builds: no probe yet
        adapter = _alora_spec(toy_config) if target == "delta_apply" else None
        with pytest.raises(ConfigurationError, match="row-invariance"):
            engine.generate(GenerationRequest(
                prompt_tokens=rng.integers(8, 256, size=6).tolist(),
                adapter=adapter, max_new_tokens=2))

    def test_adapter_probed_once_per_rank_and_dtypes(self, toy_config, toy_weights,
                                                     rng, monkeypatch):
        probes = []

        def counted(weights, config, policy):
            probes.append(policy)
            return None

        monkeypatch.setattr(engine_module, "row_invariance_probe", counted)
        engine = Engine(toy_weights, toy_config)
        assert probes == []

        def request(adapter=None, on=engine):
            on.generate(GenerationRequest(
                prompt_tokens=rng.integers(8, 256, size=6).tolist(),
                adapter=adapter, max_new_tokens=1))

        request()
        request()
        assert len(probes) == 1 and probes[0].spec is None
        spec = _alora_spec(toy_config, inv=(2, 3))
        request(spec)
        assert len(probes) == 2 and probes[1].spec is spec
        # Every delta of these has rank 8 in f32: the kinds already probed.
        request(spec)
        request(_alora_spec(toy_config, inv=(2, 3), seed=1, adapter_id="b"))
        request(_lora_spec(toy_config))
        assert len(probes) == 2
        request(_alora_spec(toy_config, inv=(2, 3), rank=4, adapter_id="c"))
        assert len(probes) == 3
        mixed = AdapterSpec(adapter_id="m", mode=MODE_LORA, deltas={
            **spec.deltas,
            (0, "q"): replace(spec.deltas[(0, "q")],
                              a=spec.deltas[(0, "q")].a.astype(np.float64))})
        request(mixed)
        assert len(probes) == 4
        request(on=Engine(toy_weights, toy_config))  # a new engine probes anew
        assert len(probes) == 5
