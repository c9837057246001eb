"""Model-core: projections, rotary rotation, attention, forward equivalences."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alora import (AdapterSpec, BASE_POLICY, CostLedger, LowRankDelta,
                   ModelConfig, ModelWeights, build_policy, forward_segment,
                   greedy_pick)
from alora.adapters import ActivationPoint, MODE_ALORA, MODE_LORA, zero_adapter
from alora.cache import CacheStore
from alora.errors import ConfigurationError, ContractViolationError
from alora.model import (LayerWeights, attend_single, forward_position,
                         project_row, rope_rotate_heads, rope_tables)


def project_rows(x, weights, policy):
    """project_row over each row of ``x``, at positions 0, 1, ...; stacked."""
    rows = [project_row(row, 0, weights.layers[0], policy, i, CostLedger())
            for i, row in enumerate(x)]
    return tuple(np.stack(part) for part in zip(*rows))


def rotate(vec, position, config):
    """rope_tables + rope_rotate_heads for one vector at one position."""
    cos, sin = rope_tables(position, config, vec.dtype)
    return rope_rotate_heads(vec, cos, sin)


def make_micro_model(d_model, n_heads, vocab, seed=0, max_positions=64):
    config = ModelConfig(n_layers=1, n_heads=n_heads, d_model=d_model,
                         d_head=d_model // n_heads, vocab_size=vocab,
                         max_positions=max_positions)
    rng = np.random.default_rng(seed)
    g = lambda shape: (0.3 * rng.standard_normal(shape)).astype(np.float32)
    d = d_model
    layer = LayerWeights(w_q=g((d, d)), w_k=g((d, d)), w_v=g((d, d)),
                         w_o=g((d, d)), mlp_up=g((d, 4 * d)),
                         mlp_down=g((4 * d, d)),
                         norm_attn=np.ones(d, dtype=np.float32),
                         norm_mlp=np.ones(d, dtype=np.float32))
    weights = ModelWeights(token_embedding=g((vocab, d)), layers=(layer,),
                           norm_final=np.ones(d, dtype=np.float32),
                           unembedding=g((d, vocab)))
    return config, weights


class TestModelConfig:
    def test_dimension_consistency_enforced(self):
        with pytest.raises(ConfigurationError):
            ModelConfig(n_layers=1, n_heads=3, d_model=16, d_head=8,
                        vocab_size=8, max_positions=8)

    def test_odd_head_dim_rejected(self):
        with pytest.raises(ConfigurationError):
            ModelConfig(n_layers=1, n_heads=1, d_model=7, d_head=7,
                        vocab_size=8, max_positions=8)


class TestProjectSegment:
    """A segment of residual rows projected one project_row call per row."""

    def test_base_policy_is_plain_matmul(self):
        config, weights = make_micro_model(8, 2, 16)
        x = np.random.default_rng(3).standard_normal((1, 8)).astype(np.float32)
        q, k, v = project_rows(x, weights, BASE_POLICY)
        assert np.array_equal(q, x @ weights.layers[0].w_q)
        assert np.array_equal(k, x @ weights.layers[0].w_k)
        assert np.array_equal(v, x @ weights.layers[0].w_v)

    def test_zero_b_factor_matches_base_bitwise(self):
        config, weights = make_micro_model(8, 2, 16)
        spec = zero_adapter(8, 1, rank=2, alpha=4.0, mode=MODE_LORA,
                            adapter_id="z")
        policy = build_policy(spec, None)
        x = np.random.default_rng(4).standard_normal((3, 8)).astype(np.float32)
        adapted = project_rows(x, weights, policy)
        base = project_rows(x, weights, BASE_POLICY)
        for a, b in zip(adapted, base):
            assert np.array_equal(a, b)

    def test_two_by_two_hand_computed(self):
        # d_model=2, x=[[1,0]], W_Q=[[1,2],[3,4]], delta=[[0.5,0],[0,0]]
        config = ModelConfig(n_layers=1, n_heads=1, d_model=2, d_head=2,
                             vocab_size=4, max_positions=8)
        d = 2
        eye = np.eye(d, dtype=np.float32)
        layer = LayerWeights(
            w_q=np.array([[1, 2], [3, 4]], dtype=np.float32),
            w_k=eye.copy(), w_v=eye.copy(), w_o=eye.copy(),
            mlp_up=np.zeros((d, 4 * d), dtype=np.float32),
            mlp_down=np.zeros((4 * d, d), dtype=np.float32),
            norm_attn=np.ones(d, dtype=np.float32),
            norm_mlp=np.ones(d, dtype=np.float32))
        weights = ModelWeights(token_embedding=np.zeros((4, d), dtype=np.float32),
                               layers=(layer,),
                               norm_final=np.ones(d, dtype=np.float32),
                               unembedding=np.zeros((d, 4), dtype=np.float32))
        delta = LowRankDelta(a=np.array([[1.0], [0.0]], dtype=np.float32),
                             b=np.array([[0.5, 0.0]], dtype=np.float32),
                             rank=1, alpha=1.0)
        spec = AdapterSpec(adapter_id="toy", mode=MODE_ALORA,
                           deltas={(0, "q"): delta}, invocation_sequence=(1,))
        policy = build_policy(spec, ActivationPoint(0))
        q, _, _ = project_rows(np.array([[1.0, 0.0]], dtype=np.float32),
                               weights, policy)
        assert np.allclose(q, [[1.5, 2.0]])


class TestRope:
    def test_position_zero_is_identity(self, rng):
        config = ModelConfig(n_layers=1, n_heads=1, d_model=8, d_head=8,
                             vocab_size=8, max_positions=8)
        vec = rng.standard_normal(8).astype(np.float32)
        assert np.array_equal(rotate(vec, 0, config), vec)

    def test_quarter_turn_two_dims(self):
        config = ModelConfig(n_layers=1, n_heads=1, d_model=2, d_head=2,
                             vocab_size=8, max_positions=8)
        out = rotate(np.array([1.0, 0.0], dtype=np.float32),
                          math.pi / 2, config)
        assert np.allclose(out, [0.0, 1.0], atol=1e-6)

    def test_matches_explicit_rotation_matrices(self, rng):
        # oracle: build each pair's 2x2 rotation explicitly in f64
        config = ModelConfig(n_layers=1, n_heads=1, d_model=8, d_head=8,
                             vocab_size=8, max_positions=64)
        vec = rng.standard_normal(8).astype(np.float32)
        position = 13
        expected = np.empty(8)
        for i in range(4):
            angle = position / config.rope_theta ** (2 * i / 8)
            rot = np.array([[math.cos(angle), -math.sin(angle)],
                            [math.sin(angle), math.cos(angle)]])
            expected[2 * i:2 * i + 2] = rot @ vec[2 * i:2 * i + 2].astype(np.float64)
        assert np.allclose(rotate(vec, position, config), expected, atol=1e-5)

    @settings(max_examples=50, deadline=None)
    @given(position=st.integers(min_value=0, max_value=10000),
           seed=st.integers(min_value=0, max_value=2**31))
    def test_norm_preserved(self, position, seed):
        config = ModelConfig(n_layers=1, n_heads=1, d_model=16, d_head=16,
                             vocab_size=8, max_positions=16384)
        vec = np.random.default_rng(seed).standard_normal(16).astype(np.float32)
        out = rotate(vec, position, config)
        assert np.linalg.norm(out) == pytest.approx(np.linalg.norm(vec), rel=1e-6)


class TestAttend:
    def test_singleton_softmax_returns_value_row(self, rng):
        config, _ = make_micro_model(8, 2, 16)
        q = rng.standard_normal(8).astype(np.float32)
        k = rng.standard_normal((1, 8)).astype(np.float32)
        v = rng.standard_normal((1, 8)).astype(np.float32)
        mixed = attend_single(q, k, v, config, CostLedger())
        assert np.array_equal(mixed, v[0])

    def test_identical_keys_average_values(self, rng):
        config, _ = make_micro_model(8, 2, 16)
        q = rng.standard_normal(8).astype(np.float32)
        k_row = rng.standard_normal(8).astype(np.float32)
        keys = np.stack([k_row, k_row])
        values = rng.standard_normal((2, 8)).astype(np.float32)
        mixed = attend_single(q, keys, values, config, CostLedger())
        assert np.allclose(mixed, values.mean(axis=0), atol=1e-6)

    def test_matches_dense_reference_exactly(self, rng):
        # oracle: dense causal attention over the full sequence, no cache
        config, weights = make_micro_model(8, 2, 16)
        n = 4
        q = rng.standard_normal((n, 8)).astype(np.float32)
        k = rng.standard_normal((n, 8)).astype(np.float32)
        v = rng.standard_normal((n, 8)).astype(np.float32)
        got = np.stack([attend_single(q[i], k[:i + 1], v[:i + 1], config,
                                      CostLedger()) @ weights.layers[0].w_o
                        for i in range(n)])

        dh = config.d_head
        expected = np.empty_like(q)
        for i in range(n):
            parts = []
            for h in range(config.n_heads):
                lo, hi = h * dh, (h + 1) * dh
                scores = (k[:i + 1, lo:hi] @ q[i, lo:hi]) / math.sqrt(dh)
                e = np.exp(scores - scores.max())
                parts.append((e / e.sum()) @ v[:i + 1, lo:hi])
            expected[i] = np.concatenate(parts) @ weights.layers[0].w_o
        assert np.abs(got - expected).max() == 0.0


class TestForwardSegment:
    def test_smallest_prefill(self, toy_config, toy_weights):
        cache = CacheStore(toy_config)
        logits = forward_segment([5], 0, toy_weights, toy_config, BASE_POLICY,
                                 cache)
        assert np.isfinite(logits).all()
        assert logits.shape == (toy_config.vocab_size,)
        cache.integrity_check()
        assert cache.length == 1

    def test_batch_equals_incremental_bitwise(self, toy_config, toy_weights, rng):
        tokens = rng.integers(0, toy_config.vocab_size, size=8).tolist()
        one_shot = CacheStore(toy_config)
        logits_a = forward_segment(tokens, 0, toy_weights, toy_config,
                                   BASE_POLICY, one_shot)
        stepped = CacheStore(toy_config)
        for i, t in enumerate(tokens):
            logits_b = forward_segment([t], i, toy_weights, toy_config,
                                       BASE_POLICY, stepped)
        assert np.array_equal(logits_a, logits_b)
        for layer in range(toy_config.n_layers):
            assert np.array_equal(one_shot.k_matrix(layer, 8),
                                  stepped.k_matrix(layer, 8))
            assert np.array_equal(one_shot.v_matrix(layer, 8),
                                  stepped.v_matrix(layer, 8))

    def test_arbitrary_segmentation_bitwise(self, toy_config, toy_weights, rng):
        tokens = rng.integers(0, toy_config.vocab_size, size=12).tolist()
        flat = CacheStore(toy_config)
        logits_a = forward_segment(tokens, 0, toy_weights, toy_config,
                                   BASE_POLICY, flat)
        split = CacheStore(toy_config)
        cuts = [0, 3, 4, 9, 12]
        for lo, hi in zip(cuts, cuts[1:]):
            logits_b = forward_segment(tokens[lo:hi], lo, toy_weights,
                                       toy_config, BASE_POLICY, split)
        assert np.array_equal(logits_a, logits_b)

    def test_causality_prefix_logits_stable(self, toy_config, toy_weights, rng):
        tokens = rng.integers(0, toy_config.vocab_size, size=10).tolist()
        p = 5
        # logits at position p collected while processing the longer sequence
        cache = CacheStore(toy_config)
        ledger = CostLedger()
        logits_in_long_run = None
        for i, t in enumerate(tokens):
            out = forward_position(t, i, toy_weights, toy_config, BASE_POLICY,
                                   cache, ledger, want_logits=(i == p))
            if i == p:
                logits_in_long_run = out
        fresh = CacheStore(toy_config)
        logits_prefix_only = forward_segment(tokens[:p + 1], 0, toy_weights,
                                             toy_config, BASE_POLICY, fresh)
        assert np.array_equal(logits_in_long_run, logits_prefix_only)

    def test_zero_delta_policy_identical_logits(self, toy_config, toy_weights, rng):
        tokens = rng.integers(0, toy_config.vocab_size, size=6).tolist()
        spec = zero_adapter(toy_config.d_model, toy_config.n_layers, rank=4,
                            alpha=8.0, mode=MODE_LORA, adapter_id="z")
        a = forward_segment(tokens, 0, toy_weights, toy_config, BASE_POLICY,
                            CacheStore(toy_config))
        b = forward_segment(tokens, 0, toy_weights, toy_config,
                            build_policy(spec, None), CacheStore(toy_config))
        assert np.array_equal(a, b)

    def test_cache_mismatch_rejected(self, toy_config, toy_weights):
        cache = CacheStore(toy_config)
        with pytest.raises(ContractViolationError):
            forward_segment([1, 2], 3, toy_weights, toy_config, BASE_POLICY,
                            cache)


class TestGreedyPick:
    def test_basic(self):
        assert greedy_pick(np.array([0.1, 0.9, 0.3], dtype=np.float32)) == 1

    def test_tie_breaks_low(self):
        assert greedy_pick(np.array([0.5, 0.5], dtype=np.float32)) == 0

    def test_against_linear_scan_oracle(self, rng):
        for _ in range(25):
            vec = rng.standard_normal(97).astype(np.float32)
            best, best_i = -np.inf, -1
            for i, x in enumerate(vec):
                if x > best:
                    best, best_i = x, i
            assert greedy_pick(vec) == best_i

    def test_rejects_nan(self):
        with pytest.raises(ContractViolationError):
            greedy_pick(np.array([0.0, np.nan], dtype=np.float32))

    def test_rejects_empty(self):
        with pytest.raises(ContractViolationError):
            greedy_pick(np.array([], dtype=np.float32))
