"""Model-core: projections, rotary rotation, attention, forward equivalences."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alora import (AdapterPolicy, AdapterSpec, BASE_POLICY, CostLedger,
                   LowRankDelta, ModelConfig, ModelWeights, build_policy,
                   forward_segment, greedy_pick, random_adapter)
from alora.adapters import ActivationPoint, MODE_ALORA, MODE_LORA, zero_adapter
from alora.cache import CacheStore
from alora.errors import ConfigurationError, ContractViolationError
from alora.model import (ATTEND_BLOCK, RUN_ROWS, LayerWeights, _forward_run,
                         attend_run, attend_single, forward_position,
                         project_row, rope_rotate_heads, rope_tables)


def project_rows(x, weights, policy):
    """project_row over the rows of ``x``, a run starting at position 0,
    split into its (q, k, v) column blocks."""
    cut = policy.cut(0, len(x))
    qkv = project_row(x, 0, weights.layers[0], policy,
                      None if cut == len(x) else slice(cut, None))
    return np.split(qkv, 3, axis=-1)


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
        got = rope_rotate_heads(x, cos, sin)
        c, s = cos[:, None, 0::2], sin[:, None, 1::2]
        heads = x.reshape(len(positions), -1, config.d_head)
        even, odd = heads[..., 0::2], heads[..., 1::2]
        expected = np.empty_like(heads)
        expected[..., 0::2] = even * c - odd * s
        expected[..., 1::2] = even * s + odd * c
        assert got.tobytes() == expected.reshape(x.shape).tobytes()

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
