"""Cost ledger counters, closed-form predictions, and the classic over
activated first-token speedup."""

import pytest

from alora import (BASE_POLICY, CacheStore, CostLedger, CostQuery, GenerationRequest,
                   forward_segment, predict_first_token, random_adapter, row_bytes)
from alora.adapters import MODE_ALORA, MODE_LORA
from alora.costs import U64_MAX
from alora.errors import ContractViolationError
from alora.model import forward_position


def measure(engine, rng, t_cache, t_new, mode, rank=8):
    config = engine.config
    inv = (2, 3, 4, 5)
    prompt = rng.integers(8, 256, size=t_cache).tolist()
    extra = rng.integers(8, 256, size=t_new - len(inv)).tolist() + list(inv)
    if mode == MODE_ALORA:
        cache = engine.prefill(GenerationRequest(prompt_tokens=prompt))
        spec = random_adapter(config.d_model, config.n_layers, rank=rank,
                              alpha=32.0, mode=MODE_ALORA, adapter_id="a",
                              seed=3, invocation_sequence=inv)
        return engine.invoke_intrinsic(cache, extra, spec,
                                       max_new_tokens=2, min_new_tokens=2)
    spec = random_adapter(config.d_model, config.n_layers, rank=rank,
                          alpha=32.0, mode=MODE_LORA, adapter_id="l", seed=4)
    return engine.lora_invoke(prompt + extra, spec, max_new_tokens=2,
                              min_new_tokens=2)


class TestRecord:
    """Recording costs through the ledger's add_* methods."""

    def test_matmul_formula(self):
        ledger = CostLedger()
        ledger.add_matmul(2, 3, 4)
        assert ledger.matmul_flops == 48

    def test_merge_is_fieldwise_sum(self):
        a, b = CostLedger(), CostLedger()
        a.add_matmul(1, 2, 3)
        a.add_softmax(5)
        b.add_matmul(2, 2, 2)
        b.add_attention(7)
        a.merge(b)
        assert a.matmul_flops == 12 + 16
        assert a.attention_score_flops == 7
        assert a.softmax_ops == 5

    def test_saturation_sets_flag(self):
        ledger = CostLedger()
        ledger._add("matmul_flops", U64_MAX - 1)
        ledger.add_matmul(10, 10, 10)
        assert ledger.matmul_flops == U64_MAX
        assert ledger.saturated

    def test_add_run_refuses_negative_amounts_and_saturates(self):
        ledger = CostLedger()
        ledger.add_run(6, 5, 4, 3)
        with pytest.raises(ContractViolationError, match="negative"):
            ledger.add_run(1, 1, -1, 1)
        assert (ledger.matmul_flops, ledger.attention_score_flops,
                ledger.softmax_ops, ledger.rows_projected_fresh) == (6, 5, 4, 3)
        assert not ledger.saturated
        ledger.add_run(U64_MAX, 1, 0, 0)
        assert ledger.matmul_flops == U64_MAX and ledger.attention_score_flops == 6
        assert ledger.saturated

    def test_a_run_is_one_ledger_update(self, toy_config, toy_weights,
                                        monkeypatch):
        calls = []
        add_run = CostLedger.add_run
        monkeypatch.setattr(CostLedger, "add_run",
                            lambda self, *a: calls.append(a) or add_run(self, *a))
        for name in ("_add", "add_matmul", "add_attention", "add_softmax"):
            monkeypatch.setattr(CostLedger, name, None)
        ledger = CostLedger()
        cache = CacheStore(toy_config)
        forward_segment(list(range(8, 78)), 0, toy_weights, toy_config,
                        BASE_POLICY, cache, ledger)
        forward_position(9, 70, toy_weights, toy_config, BASE_POLICY, cache,
                         ledger, want_logits=True)
        assert [a[3] for a in calls] == [64, 6, 1]

    def test_prefill_matches_symbolic_layer_graph_count(self, toy_engine, rng):
        # oracle: closed-form count over the layer graph, written independently
        config = toy_engine.config
        T = 23
        prompt = rng.integers(8, 256, size=T).tolist()
        res = toy_engine.generate(GenerationRequest(prompt_tokens=prompt,
                                                    max_new_tokens=0))
        d, L, H, V = (config.d_model, config.n_layers, config.n_heads,
                      config.vocab_size)
        matmul = T * L * 24 * d * d + 2 * d * V
        attention = L * 4 * d * sum(p + 1 for p in range(T))
        softmax = L * H * sum(p + 1 for p in range(T))
        assert res.cost.matmul_flops == matmul
        assert res.cost.attention_score_flops == attention
        assert res.cost.softmax_ops == softmax


class TestPredictFirstToken:
    def test_measured_run_is_the_oracle(self, toy_engine, rng):
        config = toy_engine.config
        for mode in (MODE_ALORA, MODE_LORA):
            res = measure(toy_engine, rng, t_cache=96, t_new=16, mode=mode)
            predicted = predict_first_token(CostQuery(
                t_cache=96, t_new=16, n_adapters=1, mode=mode, config=config))
            assert res.first_token_cost == predicted

    def test_quadratic_vs_bilinear_attention_growth(self, toy_config):
        t_new = 16
        base = 4096
        q = lambda mode, t: predict_first_token(CostQuery(
            t_cache=t, t_new=t_new, n_adapters=1, mode=mode, config=toy_config))
        lora_ratio = (q(MODE_LORA, 2 * base).attention_score_flops
                      / q(MODE_LORA, base).attention_score_flops)
        alora_ratio = (q(MODE_ALORA, 2 * base).attention_score_flops
                       / q(MODE_ALORA, base).attention_score_flops)
        assert 3.5 < lora_ratio < 4.5
        assert 1.8 < alora_ratio < 2.2

    def test_linear_in_adapter_count(self, toy_config):
        for mode in (MODE_ALORA, MODE_LORA):
            one = predict_first_token(CostQuery(
                t_cache=256, t_new=16, n_adapters=1, mode=mode, config=toy_config))
            five = predict_first_token(CostQuery(
                t_cache=256, t_new=16, n_adapters=5, mode=mode, config=toy_config))
            for name in ("matmul_flops", "attention_score_flops", "softmax_ops",
                         "rows_projected_fresh", "rows_reused",
                         "cache_bytes_incremental"):
                assert getattr(five, name) == 5 * getattr(one, name)

    def test_predicted_bytes_formulas(self, toy_config):
        t_cache, t_new, n = 300, 16, 5
        rb = row_bytes(toy_config)
        alora = predict_first_token(CostQuery(t_cache, t_new, n, MODE_ALORA,
                                              toy_config))
        lora = predict_first_token(CostQuery(t_cache, t_new, n, MODE_LORA,
                                             toy_config))
        assert alora.cache_bytes_incremental == n * t_new * rb
        assert lora.cache_bytes_incremental == n * (t_cache + t_new) * rb

    def test_exact_polynomial_degrees_in_t_cache(self, toy_config):
        # exact finite differences: classic counts are quadratic in T_cache
        # (third difference zero, second positive), activated counts linear
        t_new, h = 16, 64
        grid = [256, 256 + h, 256 + 2 * h, 256 + 3 * h]
        for mode, expect_quadratic in ((MODE_LORA, True), (MODE_ALORA, False)):
            ys = [predict_first_token(CostQuery(t, t_new, 1, mode,
                                                toy_config)).counted_flops
                  for t in grid]
            d1 = [b - a for a, b in zip(ys, ys[1:])]
            d2 = [b - a for a, b in zip(d1, d1[1:])]
            d3 = [b - a for a, b in zip(d2, d2[1:])]
            assert all(x == 0 for x in d3)
            if expect_quadratic:
                assert all(x > 0 for x in d2) and d2[0] == d2[1]
            else:
                assert all(x == 0 for x in d2) and all(x > 0 for x in d1)


class TestSpeedupReport:
    """First-token flops of the classic adapter over the activated one."""

    @staticmethod
    def _ratio(ledgers):
        return ledgers[MODE_LORA].counted_flops / ledgers[MODE_ALORA].counted_flops

    def _predicted(self, config, t_cache, t_new):
        return {mode: predict_first_token(CostQuery(
                    t_cache=t_cache, t_new=t_new, n_adapters=1, mode=mode,
                    config=config))
                for mode in (MODE_LORA, MODE_ALORA)}

    def test_zero_deviation_for_exact_measurements(self, toy_engine, rng):
        t_new = 8
        for t_cache in (32, 96):
            measured = {mode: measure(toy_engine, rng, t_cache, t_new,
                                      mode).first_token_cost
                        for mode in (MODE_LORA, MODE_ALORA)}
            predicted = self._predicted(toy_engine.config, t_cache, t_new)
            assert self._ratio(measured) == self._ratio(predicted)

    def test_ratios_increase_with_cache_size(self, toy_config):
        ratios = [self._ratio(self._predicted(toy_config, t_cache, 16))
                  for t_cache in (256, 1024, 4096)]
        assert all(a < b for a, b in zip(ratios, ratios[1:]))
