"""Model-core: projections, rotary rotation, attention, forward equivalences."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alora import (AdapterPolicy, AdapterSpec, BASE_POLICY, CostLedger,
                   LowRankDelta, ModelConfig, ModelWeights, build_policy, delta_apply,
                   forward_segment, greedy_pick, random_adapter)
from alora.adapters import ActivationPoint, MODE_ALORA, MODE_LORA, zero_adapter
from alora.cache import CacheStore
from alora.errors import ConfigurationError, ContractViolationError
from alora.model import (ATTEND_BLOCK, LAYER_ARRAYS, RUN_ROWS, LayerWeights,
                         _forward_run, attend_run, attend_single,
                         forward_position, project_row, rope_rotate_heads,
                         rope_table, rope_tables, rope_wide)


def project_rows(x, weights, policy):
    """project_row over the rows of ``x``, a run starting at position 0,
    split into its (q, k, v) column blocks."""
    cut = policy.cut(0, len(x))
    qkv = project_row(x, 0, weights.layers[0], policy,
                      None if cut == len(x) else slice(cut, None))
    return np.split(qkv, 3, axis=-1)


def rotate(vec, position, config):
    """rope_tables + rope_rotate_heads for one vector at one position."""
    tables = np.stack(rope_tables(position, config, vec.dtype))
    return rope_rotate_heads(vec, *rope_wide(tables, vec.shape[-1]))


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

    @pytest.mark.parametrize("field, value", [
        ("n_layers", "1"), ("d_head", 8.0), ("rope_theta", "1e4"),
        ("rope_theta", float("nan")), ("rope_theta", float("inf"))])
    def test_field_of_wrong_kind_refused(self, field, value):
        kwargs = dict(n_layers=1, n_heads=2, d_model=16, d_head=8,
                      vocab_size=8, max_positions=8)
        kwargs[field] = value
        with pytest.raises(ConfigurationError, match=field):
            ModelConfig(**kwargs)


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


def _delta(gen, d, rank, alpha, dtype=np.float32):
    return LowRankDelta(a=gen.standard_normal((d, rank)).astype(dtype),
                        b=gen.standard_normal((rank, d)).astype(dtype),
                        rank=rank, alpha=alpha)


def _one_delta_at_a_time(x, weights, spec, cut):
    """The q|k|v block of ``x``'s rows with each of the spec's layer-0
    deltas added alone, one ``delta_apply`` per projection, to the rows
    from ``cut`` on."""
    d = x.shape[-1]
    qkv = (x[:, None, :] @ weights.layers[0].w_qkv)[:, 0]
    for j, proj in enumerate("qkv"):
        delta = spec.deltas.get((0, proj))
        if delta is not None:
            delta_apply(x[cut:, None, :], qkv[cut:, None, j * d:(j + 1) * d], delta)
    return qkv


class TestDeltaGroups:
    """A layer's deltas are added one stacked product pair per group of
    projections sharing rank, alpha and factor dtypes, with the bits of
    each delta added alone."""

    @pytest.mark.parametrize("deltas, groups", [
        # mixed ranks, then mixed alphas: two groups in one layer
        ({"q": (4, 8.0), "k": (4, 8.0), "v": (2, 8.0)}, [slice(0, 2, 1), slice(2, 3, 1)]),
        ({"q": (4, 8.0), "k": (4, 16.0), "v": (4, 16.0)}, [slice(0, 1, 1), slice(1, 3, 1)]),
        # f64 factors on an f32 model, cast into the f32 block
        ({"q": (4, 8.0, np.float64), "k": (4, 8.0, np.float64), "v": (4, 8.0)},
         [slice(0, 2, 1), slice(2, 3, 1)]),
        # partial sets
        ({"q": (4, 8.0), "v": (4, 8.0)}, [slice(0, 3, 2)]),
        ({"k": (3, 6.0)}, [slice(1, 2, 1)]),
        # rank d: A and B of one shape
        ({"q": (16, 8.0), "k": (16, 8.0), "v": (16, 8.0)}, [slice(0, 3, 1)]),
    ], ids=["ranks", "alphas", "f64_factors", "q_and_v", "k_only", "rank_d"])
    def test_equal_each_delta_alone_bitwise(self, deltas, groups):
        config, weights = make_micro_model(16, 2, 16)
        gen = np.random.default_rng(11)
        spec = AdapterSpec(adapter_id="g", mode=MODE_LORA, deltas={
            (0, proj): _delta(gen, 16, *kind) for proj, kind in deltas.items()})
        assert [g.projections for g in spec.delta_groups[0]] == groups
        policy = AdapterPolicy(spec, 0)
        for t in range(1, RUN_ROWS + 1):
            x = gen.standard_normal((t, 16)).astype(np.float32)
            for cut in sorted({0, t // 2, t - 1}):
                got = project_row(x, 0, weights.layers[0], policy, slice(cut, None))
                want = _one_delta_at_a_time(x, weights, spec, cut)
                assert got.dtype == np.float32
                assert got.tobytes() == want.tobytes(), (t, cut)

    def test_delta_apply_called_once_per_group(self, monkeypatch):
        from alora import model
        config, weights = make_micro_model(16, 2, 16)
        gen = np.random.default_rng(12)
        spec = AdapterSpec(adapter_id="g", mode=MODE_LORA, deltas={
            (0, "q"): _delta(gen, 16, 4, 8.0), (0, "k"): _delta(gen, 16, 4, 8.0),
            (0, "v"): _delta(gen, 16, 2, 8.0)})
        calls = []
        monkeypatch.setattr(model, "delta_apply",
                            lambda *args: calls.append(args[2]) or delta_apply(*args))
        project_row(gen.standard_normal((5, 16)).astype(np.float32), 0,
                    weights.layers[0], AdapterPolicy(spec, 0), slice(2, None))
        assert len(calls) == 2
        assert all(c is g for c, g in zip(calls, spec.delta_groups[0]))


def _rotate_per_head(x, cos, sin):
    """The rotation with (t, d_head) tables broadcast head by head."""
    heads = x.shape[:-1] + (-1, cos.shape[-1])
    swapped = x.take(np.arange(x.shape[-1]) ^ 1, axis=-1).reshape(heads)
    swapped *= sin[..., None, :]
    out = x.reshape(heads) * cos[..., None, :]
    out += swapped
    return out.reshape(x.shape)


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

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_equals_two_product_form_bitwise(self, rng, dtype):
        # (a, b) -> (a c - b s, a s + b c), per pair and per head, written
        # out as two products per output; the rotation must give its bits
        config = ModelConfig(n_layers=1, n_heads=4, d_model=64, d_head=16,
                             vocab_size=8, max_positions=4096)
        positions = np.arange(1000, 1040)
        x = rng.standard_normal((len(positions), 2 * config.d_model)).astype(dtype)
        cos, sin = rope_tables(positions, config, dtype)
        got = rope_rotate_heads(x, *rope_wide(np.stack((cos, sin)), x.shape[-1]))
        c, s = cos[:, None, 0::2], sin[:, None, 1::2]
        heads = x.reshape(len(positions), -1, config.d_head)
        even, odd = heads[..., 0::2], heads[..., 1::2]
        expected = np.empty_like(heads)
        expected[..., 0::2] = even * c - odd * s
        expected[..., 1::2] = even * s + odd * c
        assert got.tobytes() == expected.reshape(x.shape).tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_wide_equals_per_head_form_bitwise(self, rng, dtype):
        # the engine's (t, 2d) q|k runs, the trainer's strided (B, T, 2d)
        # slice of its (B, T, 3d) block, and the backward's reverse turn
        from alora import DEFAULT_CONFIG as config
        d = config.d_model
        table = rope_table(config, np.dtype(dtype))
        for t in range(1, RUN_ROWS + 1):
            tables = table[:, 1000:1000 + t]
            x = rng.standard_normal((t, 2 * d)).astype(dtype)
            got = rope_rotate_heads(x, *rope_wide(tables, 2 * d))
            assert got.tobytes() == _rotate_per_head(x, *tables).tobytes(), t
        block = rng.standard_normal((16, 8, 3 * d)).astype(dtype)
        x, tables = block[..., :2 * d], table[:, :8]
        cos, sin = rope_wide(tables, 2 * d)
        got = rope_rotate_heads(x, cos, sin)
        assert got.tobytes() == _rotate_per_head(x, *tables).tobytes()
        back = rope_rotate_heads(got[:, 3:], cos[3:], -sin[3:])
        want = _rotate_per_head(got[:, 3:], tables[0, 3:], -tables[1, 3:])
        assert back.tobytes() == want.tobytes()

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
        mixed = attend_single(q, k, v, config)
        assert np.array_equal(mixed, v[0])

    def test_identical_keys_average_values(self, rng):
        config, _ = make_micro_model(8, 2, 16)
        q = rng.standard_normal(8).astype(np.float32)
        k_row = rng.standard_normal(8).astype(np.float32)
        keys = np.stack([k_row, k_row])
        values = rng.standard_normal((2, 8)).astype(np.float32)
        mixed = attend_single(q, keys, values, config)
        assert np.allclose(mixed, values.mean(axis=0), atol=1e-6)

    def test_matches_dense_reference_exactly(self, rng):
        # oracle: dense causal attention over the full sequence, no cache,
        # one 1-D product per head; at d_model 64 too, where BLAS kernels
        # differ in their bits from one call form to another
        for d_model, n_heads, n, dtype in ((8, 2, 4, np.float32),
                                           (64, 4, 40, np.float32),
                                           (64, 4, 40, np.float64)):
            config, weights = make_micro_model(d_model, n_heads, 16)
            w_o = weights.layers[0].w_o.astype(dtype)
            q, k, v = (rng.standard_normal((n, d_model)).astype(dtype)
                       for _ in range(3))
            got = np.stack([attend_single(q[i], k[:i + 1], v[:i + 1], config)
                            @ w_o for i in range(n)])

            dh = config.d_head
            expected = np.empty_like(q)
            for i in range(n):
                parts = []
                for h in range(config.n_heads):
                    lo, hi = h * dh, (h + 1) * dh
                    scores = (k[:i + 1, lo:hi] @ q[i, lo:hi]) / math.sqrt(dh)
                    e = np.exp(scores - scores.max())
                    parts.append((e / e.sum()) @ v[:i + 1, lo:hi])
                expected[i] = np.concatenate(parts) @ w_o
            assert np.abs(got - expected).max() == 0.0


class TestAttendRun:
    """A run's attention must give each row the bits of ``attend_single``
    on that row alone, whatever the run's start and length."""

    EDGE_STARTS = (0, 1, ATTEND_BLOCK - 1, ATTEND_BLOCK, ATTEND_BLOCK + 1,
                   RUN_ROWS - 1, RUN_ROWS, RUN_ROWS + 1, 1023, 1024, 1100)
    EDGE_ROWS = (2, ATTEND_BLOCK - 1, ATTEND_BLOCK, ATTEND_BLOCK + 1,
                 2 * ATTEND_BLOCK, RUN_ROWS - 1, RUN_ROWS)

    @settings(max_examples=150, deadline=None)
    @given(start=st.one_of(st.sampled_from(EDGE_STARTS), st.integers(0, 1100)),
           t=st.one_of(st.sampled_from(EDGE_ROWS), st.integers(2, RUN_ROWS)),
           heads=st.sampled_from([(4, 16), (2, 8)]),
           dtype=st.sampled_from([np.float32, np.float64]),
           seed=st.integers(0, 2**31))
    def test_rows_equal_attend_single(self, start, t, heads, dtype, seed):
        n_heads, d_head = heads
        d = n_heads * d_head
        config = ModelConfig(n_layers=1, n_heads=n_heads, d_model=d,
                             d_head=d_head, vocab_size=8, max_positions=2048)
        rng = np.random.default_rng(seed)
        end = start + t
        # q as the engine passes it: the left half of a rotated q|k block
        q = rng.standard_normal((t, 2 * d)).astype(dtype)[:, :d]
        keys, values = rng.standard_normal((2, end, d)).astype(dtype)
        got = attend_run(q, keys, values, start, config)
        expected = np.stack([attend_single(q[i], keys[:start + i + 1],
                                           values[:start + i + 1], config)
                             for i in range(t)])
        assert got.tobytes() == expected.tobytes()


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


class TestRunBoundaries:
    """At d_model 64 a (T, d) @ W gemm and per-row gemv calls give different
    bits (OpenBLAS 0.3.31, f32 and f64), so a wrong kernel anywhere in a run
    shows as a bit difference."""

    @staticmethod
    def _segment_then_rows(weights, config, policy, tokens, decode, dtype,
                           prefix=()):
        """After ``prefix`` as one segment, ``tokens`` as one segment, then
        ``decode`` one-row runs, against every token after ``prefix`` run
        alone; both must agree bitwise."""
        p = len(prefix)
        n = p + len(tokens) + len(decode)
        caches = []
        for _ in range(2):
            cache, ledger = CacheStore(config, dtype), CostLedger()
            if prefix:
                forward_segment(prefix, 0, weights, config, policy, cache, ledger)
            caches.append((cache, ledger))
        (run_cache, run_ledger), (row_cache, row_ledger) = caches
        run_logits = [forward_segment(tokens, p, weights, config, policy,
                                      run_cache, run_ledger)]
        for i, token in enumerate(decode, start=p + len(tokens)):
            run_logits.append(forward_position(token, i, weights, config, policy,
                                               run_cache, run_ledger, True))
        row_logits = []
        for i, token in enumerate(list(tokens) + list(decode), start=p):
            logits = forward_position(token, i, weights, config, policy,
                                      row_cache, row_ledger,
                                      want_logits=(i >= p + len(tokens) - 1))
            if logits is not None:
                row_logits.append(logits)

        assert len(run_logits) == len(row_logits) == len(decode) + 1
        for a, b in zip(run_logits, row_logits):
            assert a.tobytes() == b.tobytes()
        for layer in range(config.n_layers):
            assert (run_cache.k_matrix(layer, n).tobytes()
                    == row_cache.k_matrix(layer, n).tobytes())
            assert (run_cache.v_matrix(layer, n).tobytes()
                    == row_cache.v_matrix(layer, n).tobytes())
        assert run_cache.provenance == row_cache.provenance
        assert run_ledger == row_ledger
        assert run_ledger.rows_projected_fresh == n
        return run_cache

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_segment_equals_token_by_token(self, toy_config, toy_weights, dtype):
        # Runs [0, 64), [64, 128) and [128, 150), then three one-row decode
        # runs. t_invoke falls 0, 1 or 63 rows into the second run, or at
        # the start of the third, so a run holds base and adapted rows.
        weights = toy_weights.astype(dtype)
        n = 150
        assert 2 * RUN_ROWS < n
        tokens = np.random.default_rng(7).integers(
            8, toy_config.vocab_size, size=n + 3).tolist()
        spec = random_adapter(toy_config.d_model, toy_config.n_layers, rank=8,
                              alpha=32.0, mode=MODE_ALORA, adapter_id="runs",
                              seed=11, invocation_sequence=(2, 3))
        for offset in (0, 1, RUN_ROWS - 1, RUN_ROWS):
            t_invoke = RUN_ROWS + offset
            policy = build_policy(spec, ActivationPoint(t_invoke))
            cache = self._segment_then_rows(weights, toy_config, policy,
                                            tokens[:n], tokens[n:], dtype)
            adapted = [p for p, prov in enumerate(cache.provenance)
                       if prov is not None]
            assert adapted == list(range(t_invoke, n + 3)), offset

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_segment_past_a_long_prefix(self, toy_config, toy_weights, dtype):
        # After 1,010 positions, runs [1010, 1074) and [1074, 1110) attend in
        # blocks of ATTEND_BLOCK rows over more than 1,000 keys; t_invoke
        # 1,030 falls 20 rows into the first run.
        config = dataclasses.replace(toy_config, max_positions=2048)
        weights = toy_weights.astype(dtype)
        p, n = 1010, 100
        tokens = np.random.default_rng(9).integers(
            8, config.vocab_size, size=p + n + 3).tolist()
        spec = random_adapter(config.d_model, config.n_layers, rank=8,
                              alpha=32.0, mode=MODE_ALORA, adapter_id="long",
                              seed=13, invocation_sequence=(2, 3))
        policy = build_policy(spec, ActivationPoint(p + 20))
        cache = self._segment_then_rows(weights, config, policy,
                                        tokens[p:p + n], tokens[p + n:], dtype,
                                        prefix=tokens[:p])
        adapted = [q for q, prov in enumerate(cache.provenance) if prov is not None]
        assert adapted == list(range(p + 20, p + n + 3))

    @settings(max_examples=40, deadline=None)
    @given(first=st.one_of(st.none(), st.integers(0, 40)),
           start=st.integers(0, 24), n=st.integers(1, 16))
    def test_run_provenance_is_the_per_position_rule(self, first, start, n):
        # One run's rows carry None before the policy's first adapted
        # position and the spec object itself from it on.
        config, weights = make_micro_model(8, 2, 16)
        spec = random_adapter(8, 1, rank=2, alpha=4.0, mode=MODE_ALORA,
                              adapter_id="suffix", seed=0,
                              invocation_sequence=(2, 3))
        cache = CacheStore(config)
        rows = np.random.default_rng(start).standard_normal((start, 8))
        cache.append_token_ids([1] * start)
        cache.append_rows(0, rows, rows, [None] * start)
        _forward_run([1] * n, start, weights, config, AdapterPolicy(spec, first),
                     cache, CostLedger(), want_logits=False)
        want = [spec if first is not None and p >= first else None
                for p in range(start, start + n)]
        assert len(cache.provenance) == start + n
        assert all(got is w for got, w in zip(cache.provenance[start:], want))


class TestFusedQKV:
    """The engine projects q, k and v in one product per row against
    [W_Q | W_K | W_V]. The recorded token digests hold only while its column
    slices equal the separate products bitwise, a property of the BLAS."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("d_model", [16, 64])
    def test_column_slices_equal_separate_products(self, dtype, d_model):
        from alora.model import _row_matmul
        config, weights = make_micro_model(d_model, d_model // 16 or 1, 16,
                                           seed=d_model)
        layer = weights.astype(dtype).layers[0]
        rng = np.random.default_rng(d_model)
        for t in (1, 2, 5, RUN_ROWS):
            x = rng.standard_normal((t, d_model)).astype(dtype)
            fused = _row_matmul(x, layer.w_qkv)
            for j, w in enumerate((layer.w_q, layer.w_k, layer.w_v)):
                part = fused[:, j * d_model:(j + 1) * d_model]
                assert part.tobytes() == _row_matmul(x, w).tobytes(), (t, j)


def _every_array(weights):
    """(name, array) for each array the weights hold, derived ones included."""
    yield from weights.tensors()
    for i, layer in enumerate(weights.layers):
        yield f"layers.{i}.w_qkv", layer.w_qkv
        yield f"layers.{i}.mlp_down_t", layer.mlp_down_t


def _bases(arr):
    """``arr`` and each array base under it; the last base must be bytes."""
    while isinstance(arr, np.ndarray):
        yield arr
        arr = arr.base
    assert isinstance(arr, bytes)


class TestFrozenWeights:
    """Weights are values: no array of theirs, derived ones included, can be
    written or made writeable again, so rows cached under them stay valid."""

    @pytest.fixture(params=["random_weights", "load_checkpoint", "astype"])
    def weights(self, request, tiny_config, tmp_path):
        from alora import load_checkpoint, random_weights, save_checkpoint
        weights = random_weights(tiny_config, seed=3)
        if request.param == "load_checkpoint":
            save_checkpoint(tmp_path / "w.alre", tiny_config, weights)
            return load_checkpoint(tmp_path / "w.alre")[1]
        if request.param == "astype":
            return weights.astype(np.float64)
        return weights

    def test_every_array_and_base_refuses_writes(self, weights):
        for name, arr in _every_array(weights):
            assert isinstance(arr, np.ndarray), name
            for target in _bases(arr):
                with pytest.raises(ValueError, match="read-only"):
                    target[...] = 0
                with pytest.raises(ValueError, match="WRITEABLE"):
                    target.setflags(write=True)
        with pytest.raises(dataclasses.FrozenInstanceError):
            weights.layers[0].w_q = np.zeros_like(weights.layers[0].w_q)

    def test_copies_and_pickles_are_frozen_too(self, weights):
        import copy
        import pickle
        for clone in (copy.copy(weights), copy.deepcopy(weights),
                      pickle.loads(pickle.dumps(weights))):
            for (name, arr), (_, orig) in zip(_every_array(clone), _every_array(weights)):
                assert not arr.flags.writeable and np.array_equal(arr, orig), name
                assert arr.dtype == orig.dtype

    def test_all_arrays_share_one_buffer(self, weights):
        buffers = {id(list(_bases(a))[-1].base) for _, a in _every_array(weights)}
        assert len(buffers) == 1

    def test_derived_constants(self, weights):
        for layer in weights.layers:
            assert np.array_equal(layer.w_qkv, np.concatenate(
                (layer.w_q, layer.w_k, layer.w_v), axis=1))
            assert layer.mlp_down_t.flags.c_contiguous
            assert np.array_equal(layer.mlp_down_t, layer.mlp_down.T)

    def test_in_place_edit_after_a_request_refused(self, tiny_config, rng):
        from alora import Engine, GenerationRequest, random_weights
        weights = random_weights(tiny_config, seed=3)
        Engine(weights, tiny_config).generate(GenerationRequest(
            prompt_tokens=rng.integers(4, 32, size=9).tolist(), max_new_tokens=2))
        with pytest.raises(ValueError, match="read-only"):
            weights.layers[0].w_q[...] *= 3

    def test_replaced_layer_decodes_as_a_fresh_copy(self, toy_config, toy_weights,
                                                    rng):
        # The edit that once left a stale fused product behind, as a new value.
        from alora import Engine, GenerationRequest
        layer = toy_weights.layers[0]
        edited = dataclasses.replace(toy_weights, layers=(
            dataclasses.replace(layer, w_q=layer.w_q * 3, mlp_down=-layer.mlp_down),)
            + toy_weights.layers[1:])
        new = edited.layers[0]
        d = toy_config.d_model
        assert np.array_equal(new.w_qkv[:, :d], layer.w_q * 3)
        assert np.array_equal(new.mlp_down_t, -layer.mlp_down.T)
        assert np.array_equal(layer.w_qkv[:, :d], layer.w_q)
        request = GenerationRequest(prompt_tokens=rng.integers(8, 256, size=20).tolist(),
                                    max_new_tokens=6)
        got = Engine(edited, toy_config).generate(request)
        fresh = Engine(edited.astype(edited.dtype), toy_config).generate(request)
        old = Engine(toy_weights, toy_config).generate(request)
        assert got.new_tokens == fresh.new_tokens
        assert all(a.tobytes() == b.tobytes()
                   for a, b in zip(got.logits_trace, fresh.logits_trace))
        assert got.logits_trace[0].tobytes() != old.logits_trace[0].tobytes()

    @pytest.mark.parametrize("field, dtype", [
        ("w_o", np.float64), ("norm_attn", np.int64), ("mlp_up", np.float16)])
    def test_mixed_or_non_float_dtypes_refused(self, tiny_weights, field, dtype):
        layer = tiny_weights.layers[0]
        changed = dataclasses.replace(
            layer, **{field: getattr(layer, field).astype(dtype)})
        with pytest.raises(ConfigurationError, match=f"one float dtype.*{field}"):
            dataclasses.replace(tiny_weights, layers=(changed,) + tiny_weights.layers[1:])
        with pytest.raises(ConfigurationError, match="one float dtype"):
            tiny_weights.astype(np.int32)

    def test_non_finite_value_refused_by_name(self, tiny_weights):
        layer = tiny_weights.layers[1]
        bad = np.array(layer.norm_mlp)
        bad[3] = np.inf
        with pytest.raises(ConfigurationError, match="layers.1.norm_mlp is not finite"):
            dataclasses.replace(tiny_weights, layers=(
                tiny_weights.layers[0], dataclasses.replace(layer, norm_mlp=bad)))

    def test_layer_names_match_the_checkpoint(self, tiny_weights):
        names = [name for name, _ in tiny_weights.tensors()]
        assert names[1:1 + len(LAYER_ARRAYS)] == [f"layers.0.{n}" for n in LAYER_ARRAYS]
        assert (names[0], names[-2], names[-1]) == (
            "token_embedding", "norm_final", "unembedding")


class TestRopeTable:
    """Each run slices one frozen rotary table per config and dtype."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_slices_equal_per_run_tables(self, dtype):
        from alora import DEFAULT_CONFIG as config
        table = rope_table(config, np.dtype(dtype))
        top = config.max_positions
        starts = sorted({0, 1, 5, 63, 64, 999, 4096, top // 2 + 17})
        for half in table:
            assert half.shape == (top, config.d_head) and half.dtype == dtype
            with pytest.raises(ValueError, match="WRITEABLE"):
                half.setflags(write=True)
        for n in range(1, RUN_ROWS + 1):
            for start in starts + [top - n]:
                want = rope_tables(np.arange(start, start + n), config, dtype)
                for half, ref in zip(table, want):
                    assert half[start:start + n].tobytes() == ref.tobytes(), (start, n)

    def test_built_once_per_config_and_dtype(self, toy_config, toy_weights, rng,
                                             monkeypatch):
        from alora import Engine, GenerationRequest, model
        from alora.trainer import _forward_tape
        engine = Engine(toy_weights, toy_config)
        request = GenerationRequest(prompt_tokens=rng.integers(8, 256, size=70).tolist(),
                                    max_new_tokens=3)
        first = engine.generate(request)

        def no_tables(*args):
            raise AssertionError("rope_tables called per run")

        monkeypatch.setattr(model, "rope_tables", no_tables)
        again = engine.generate(request)
        assert again.new_tokens == first.new_tokens
        _forward_tape(np.array(request.prompt_tokens), 5, toy_weights, toy_config, None)

    def test_run_past_max_positions_refused(self, tiny_config, tiny_weights):
        cache = CacheStore(tiny_config)
        top = tiny_config.max_positions
        forward_segment([4 + i % 28 for i in range(top)], 0, tiny_weights, tiny_config,
                        BASE_POLICY, cache)
        with pytest.raises(ContractViolationError, match="max_positions"):
            forward_position(5, top, tiny_weights, tiny_config, BASE_POLICY, cache,
                             CostLedger(), want_logits=True)


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
