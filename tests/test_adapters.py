"""Adapters: delta math, invocation location, policies, file round-trips."""

import copy
import pickle
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alora import (AdapterPolicy, AdapterSpec, GenerationRequest, LowRankDelta,
                   build_policy, delta_apply, find_invocation, load_adapter,
                   random_adapter, save_adapter)
from alora.adapters import ActivationPoint, MODE_ALORA, MODE_LORA
from alora.errors import (ConfigurationError, ContractViolationError,
                          FormatError, NotInvokedError)
from alora.fileio import ALIGN


class TestDeltaApply:
    def test_zero_b_is_plain_matmul(self, rng):
        d, r = 8, 3
        x = rng.standard_normal(d).astype(np.float32)
        w = rng.standard_normal((d, d)).astype(np.float32)
        delta = LowRankDelta(a=rng.standard_normal((d, r)).astype(np.float32),
                             b=np.zeros((r, d), dtype=np.float32),
                             rank=r, alpha=6.0)
        assert np.array_equal(delta_apply(x, x @ w, delta), x @ w)

    def test_full_rank_identity_shift(self, rng):
        # alpha = r and A @ B = I, so the result is x @ (W + I)
        d = 4
        x = rng.standard_normal(d).astype(np.float32)
        w = rng.standard_normal((d, d)).astype(np.float32)
        delta = LowRankDelta(a=np.eye(d, dtype=np.float32),
                             b=np.eye(d, dtype=np.float32), rank=d, alpha=float(d))
        assert np.allclose(delta_apply(x, x @ w, delta), x @ (w + np.eye(d)),
                           atol=1e-6)

    def test_rank_one_hand_computed(self):
        x = np.array([1.0, 1.0], dtype=np.float32)
        w = np.eye(2, dtype=np.float32)
        delta = LowRankDelta(a=np.array([[1.0], [0.0]], dtype=np.float32),
                             b=np.array([[2.0, 0.0]], dtype=np.float32),
                             rank=1, alpha=1.0)
        assert np.allclose(delta_apply(x, x @ w, delta), [3.0, 1.0])

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**31), r=st.integers(1, 8))
    def test_low_rank_first_matches_dense_oracle(self, seed, r):
        rng = np.random.default_rng(seed)
        d = 16
        x = rng.standard_normal(d).astype(np.float32)
        w = rng.standard_normal((d, d)).astype(np.float32)
        a = rng.standard_normal((d, r)).astype(np.float32)
        b = rng.standard_normal((r, d)).astype(np.float32)
        delta = LowRankDelta(a=a, b=b, rank=r, alpha=2.0 * r)
        dense = x @ (w + (2.0 * r / r) * (a @ b))
        assert np.allclose(delta_apply(x, x @ w, delta), dense, atol=1e-4)

    def test_shape_mismatch_rejected(self, rng):
        delta = LowRankDelta(a=rng.standard_normal((8, 2)).astype(np.float32),
                             b=rng.standard_normal((2, 8)).astype(np.float32),
                             rank=2, alpha=1.0)
        with pytest.raises(ConfigurationError, match="row width"):
            delta_apply(np.zeros(4, dtype=np.float32),
                        np.zeros(8, dtype=np.float32), delta)
        with pytest.raises(ConfigurationError, match="product width"):
            delta_apply(np.zeros(8, dtype=np.float32),
                        np.zeros(4, dtype=np.float32), delta)

    @pytest.mark.parametrize("factors", [np.float32, np.float64])
    def test_adds_in_place_with_the_bits_of_the_sum(self, rng, factors):
        # rows as the forward passes them: (T, 1, d) views, the products a
        # strided column slice of a wider block
        d, r = 16, 4
        x = rng.standard_normal((3, 1, d)).astype(np.float32)
        block = rng.standard_normal((3, 1, 3 * d)).astype(np.float32)
        delta = LowRankDelta(a=rng.standard_normal((d, r)).astype(factors),
                             b=rng.standard_normal((r, d)).astype(factors),
                             rank=r, alpha=3.0)
        xw = block[..., d:2 * d]
        want = (xw + delta.scale * ((x @ delta.a) @ delta.b)).astype(np.float32)
        assert delta_apply(x, xw, delta) is xw
        assert want.tobytes() == np.ascontiguousarray(block[..., d:2 * d]).tobytes()

    def test_rank_above_width_rejected(self, rng):
        with pytest.raises(ConfigurationError):
            LowRankDelta(a=rng.standard_normal((4, 8)).astype(np.float32),
                         b=rng.standard_normal((8, 4)).astype(np.float32),
                         rank=8, alpha=1.0)


def _alora(inv, n_layers=1, d=8, rank=2):
    return random_adapter(d, n_layers, rank=rank, alpha=4.0, mode=MODE_ALORA,
                          adapter_id="t", seed=0, invocation_sequence=inv)


class TestFindInvocation:
    def test_single_occurrence(self):
        spec = _alora((7, 7))
        assert find_invocation([5, 9, 7, 7, 2], spec).t_invoke == 3

    def test_last_occurrence_wins(self):
        spec = _alora((7, 7))
        assert find_invocation([7, 7, 1, 7, 7], spec).t_invoke == 4

    def test_absent_raises(self):
        spec = _alora((9,))
        with pytest.raises(NotInvokedError):
            find_invocation([1, 2, 3], spec)

    def test_numpy_tokens_accepted(self):
        spec = _alora((7, 7))
        tokens = np.array([5, 9, 7, 7, 2], dtype=np.int32)
        assert find_invocation(tokens, spec).t_invoke == 3

    def test_non_integer_invocation_sequence_refused(self):
        with pytest.raises(ContractViolationError, match="integers"):
            _alora((7.5, 7))

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**31), inv_len=st.integers(1, 3))
    def test_matches_substring_scan_oracle(self, seed, inv_len):
        rng = np.random.default_rng(seed)
        tokens = rng.integers(0, 4, size=20).tolist()
        inv = tuple(rng.integers(0, 4, size=inv_len).tolist())
        spec = _alora(inv)
        # oracle: exhaustive scan over every window, keep the last hit
        hits = [s for s in range(len(tokens) - inv_len + 1)
                if tuple(tokens[s:s + inv_len]) == inv]
        if hits:
            assert find_invocation(tokens, spec).t_invoke == hits[-1] + 1
        else:
            with pytest.raises(NotInvokedError):
                find_invocation(tokens, spec)


class TestFrozenSpec:
    def test_factors_and_deltas_cannot_change(self):
        spec = random_adapter(16, 1, rank=2, alpha=4.0, mode=MODE_LORA,
                              adapter_id="f", seed=1)
        delta = spec.deltas[(0, "q")]
        with pytest.raises(ValueError, match="read-only"):
            delta.b[...] *= 3
        with pytest.raises(ValueError, match="read-only"):
            delta.a[0, 0] = 1.0
        with pytest.raises(FrozenInstanceError):
            delta.b = np.zeros_like(delta.b)
        with pytest.raises(TypeError):
            spec.deltas[(0, "q")] = delta
        with pytest.raises(FrozenInstanceError):
            spec.deltas = {}

    @pytest.mark.parametrize("reach", ["factor", "base"])
    def test_writes_cannot_be_enabled_again(self, reach):
        spec = random_adapter(16, 2, rank=2, alpha=4.0, mode=MODE_LORA,
                              adapter_id="w", seed=2)
        for delta in spec.deltas.values():
            for factor in (delta.a, delta.b):
                target = factor if reach == "factor" else factor.base
                assert isinstance(target, np.ndarray)
                with pytest.raises(ValueError, match="WRITEABLE"):
                    target.setflags(write=True)
                assert not target.flags.writeable

    def test_factors_share_one_buffer_on_aligned_offsets(self):
        # mixed shapes and dtypes, and factor sizes that are no multiple
        # of the alignment
        gen = np.random.default_rng(3)
        deltas = {(0, "q"): LowRankDelta(a=gen.standard_normal((6, 1)),
                                         b=gen.standard_normal((1, 6)),
                                         rank=1, alpha=2.0),
                  (0, "v"): LowRankDelta(
                      a=gen.standard_normal((6, 3)).astype(np.float32),
                      b=gen.standard_normal((6, 3)).T.astype(np.float32),
                      rank=3, alpha=2.0)}
        spec = AdapterSpec(adapter_id="m", mode=MODE_LORA, deltas=deltas)
        factors = [f for d in spec.deltas.values() for f in (d.a, d.b)]
        start = min(f.__array_interface__["data"][0] for f in factors)
        buffers = set()
        for key, delta in deltas.items():
            for mine, theirs in ((spec.deltas[key].a, delta.a),
                                 (spec.deltas[key].b, delta.b)):
                assert mine.dtype == theirs.dtype
                assert np.array_equal(mine, theirs)
                assert mine.flags.c_contiguous
                offset = mine.__array_interface__["data"][0] - start
                assert offset % ALIGN == 0
                owner = mine
                while isinstance(owner, np.ndarray):
                    owner = owner.base
                assert isinstance(owner, bytes)
                buffers.add(id(owner))
        assert len(buffers) == 1

    def test_spec_keeps_copies_of_the_callers_factors(self):
        a = np.full((16, 2), 0.1, dtype=np.float32)
        b = np.full((2, 16), 0.2, dtype=np.float32)
        spec = AdapterSpec(adapter_id="c", mode=MODE_LORA, deltas={
            (0, "q"): LowRankDelta(a=a, b=b, rank=2, alpha=4.0)})
        a *= 2
        b[0, 0] = 9.0
        assert np.all(spec.deltas[(0, "q")].a == np.float32(0.1))
        assert np.all(spec.deltas[(0, "q")].b == np.float32(0.2))

    def test_copies_and_pickles_are_built_frozen(self, toy_engine, rng):
        config = toy_engine.config
        spec = replace(random_adapter(config.d_model, config.n_layers, rank=4,
                                      alpha=8.0, mode=MODE_ALORA, adapter_id="p",
                                      seed=5, invocation_sequence=(2, 3)),
                       max_new_tokens=5)
        prompt = rng.integers(8, 256, size=30).tolist()

        def served(adapter):
            result = toy_engine.generate(GenerationRequest(
                prompt_tokens=prompt, adapter=adapter, max_new_tokens=6))
            return result.new_tokens, [t.tobytes() for t in result.logits_trace]

        for clone in (copy.copy(spec), copy.deepcopy(spec),
                      pickle.loads(pickle.dumps(spec))):
            assert clone is not spec
            assert (clone.adapter_id, clone.mode, clone.invocation_sequence,
                    clone.max_new_tokens) == ("p", MODE_ALORA, (2, 3), 5)
            assert clone.delta_kinds == spec.delta_kinds
            for key, delta in spec.deltas.items():
                mine = clone.deltas[key]
                assert mine is not delta
                assert np.array_equal(mine.a, delta.a) and np.array_equal(mine.b, delta.b)
                assert not mine.a.flags.writeable and not mine.b.flags.writeable
            # the per-layer groups are rebuilt from the clone's own buffer
            assert len(clone.delta_groups) == config.n_layers
            for layer, (group,) in enumerate(clone.delta_groups):
                assert group.projections == slice(0, 3, 1)
                for p, a, b in zip("qkv", group.a, group.b):
                    mine = clone.deltas[layer, p]
                    assert a.tobytes() == mine.a.tobytes() and b.tobytes() == mine.b.tobytes()
                    assert np.shares_memory(a, mine.a) and np.shares_memory(b, mine.b)
            with pytest.raises(TypeError):
                clone.deltas[(0, "q")] = spec.deltas[(0, "q")]
            assert served(clone) == served(spec)

    def test_delta_groups_are_read_only_views_of_the_buffer(self):
        gen = np.random.default_rng(4)

        def delta(rank, alpha):
            return LowRankDelta(a=gen.standard_normal((16, rank)).astype(np.float32),
                                b=gen.standard_normal((rank, 16)).astype(np.float32),
                                rank=rank, alpha=alpha)

        # given out of order: the groups follow (layer, projection) order
        spec = AdapterSpec(adapter_id="v", mode=MODE_LORA, deltas={
            (1, "v"): delta(2, 4.0), (0, "k"): delta(4, 8.0), (0, "q"): delta(4, 8.0),
            (1, "q"): delta(2, 4.0), (0, "v"): delta(2, 8.0)})
        spans = [[(g.projections, g.scale) for g in groups] for groups in spec.delta_groups]
        assert spans == [[(slice(0, 2, 1), 2.0), (slice(2, 3, 1), 4.0)],
                         [(slice(0, 3, 2), 2.0)]]
        owner = spec.deltas[(0, "q")].a
        while isinstance(owner, np.ndarray):
            owner = owner.base
        for layer, groups in enumerate(spec.delta_groups):
            for group in groups:
                projs = "qkv"[group.projections]
                assert len(group.a) == len(group.b) == len(projs)
                for factor in (group.a, group.b):
                    assert not factor.flags.writeable
                    with pytest.raises(ValueError, match="WRITEABLE"):
                        factor.setflags(write=True)
                for p, a, b in zip(projs, group.a, group.b):
                    mine = spec.deltas[(layer, p)]
                    assert np.shares_memory(a, mine.a) and np.shares_memory(b, mine.b)
                    assert a.tobytes() == mine.a.tobytes() and b.tobytes() == mine.b.tobytes()
                    assert mine.scale == group.scale
                base = group.a
                while isinstance(base, np.ndarray):
                    base = base.base
                assert base is owner
        for clone in (copy.copy(spec), copy.deepcopy(spec), pickle.loads(pickle.dumps(spec))):
            assert [[(g.projections, g.scale) for g in groups]
                    for groups in clone.delta_groups] == spans
            for groups, theirs in zip(clone.delta_groups, spec.delta_groups):
                for group, their in zip(groups, theirs):
                    assert not np.shares_memory(group.a, their.a)
                    assert group.a.tobytes() == their.a.tobytes()
                    assert group.b.tobytes() == their.b.tobytes()

    @pytest.mark.parametrize("count", [2.5, 3.0, "3", None, -1])
    def test_max_new_tokens_is_a_count(self, count):
        with pytest.raises(ConfigurationError,
                           match="token counts must be non-negative integers"):
            AdapterSpec(adapter_id="n", mode=MODE_LORA, deltas={},
                        max_new_tokens=count)
        assert AdapterSpec(adapter_id="n", mode=MODE_LORA, deltas={},
                           max_new_tokens=np.int64(3)).max_new_tokens == 3


def _adapted(policy, position):
    """Whether ``policy`` adapts ``position``: a one-row run there is not
    cut before its row."""
    return policy.cut(position, 1) == 0


class TestBuildPolicy:
    def test_activation_zero_equals_classic_everywhere(self):
        spec = _alora((7,))
        policy = build_policy(spec, ActivationPoint(0))
        lora = AdapterSpec(adapter_id="l", mode=MODE_LORA, deltas=spec.deltas)
        classic = build_policy(lora, None)
        for p in range(10):
            assert _adapted(policy, p) and _adapted(classic, p)

    def test_activation_at_sequence_end(self):
        spec = _alora((7,))
        policy = build_policy(spec, ActivationPoint(6))
        assert [_adapted(policy, p) for p in range(6)] == [False] * 6
        assert _adapted(policy, 6)

    def test_verdict_pattern(self):
        spec = _alora((7,))
        policy = build_policy(spec, ActivationPoint(5))
        adapted = [_adapted(policy, p) for p in range(8)]
        assert adapted == [False] * 5 + [True] * 3

    def test_activation_rule_property(self, rng):
        spec = _alora((7,))
        for _ in range(20):
            t = int(rng.integers(0, 40))
            policy = build_policy(spec, ActivationPoint(t))
            for p in rng.integers(0, 60, size=10):
                assert _adapted(policy, int(p)) == (p >= t)

    @settings(max_examples=200, deadline=None)
    @given(first=st.one_of(st.none(), st.integers(0, 80)),
           start=st.integers(0, 60), n=st.integers(1, 40))
    def test_cut_is_the_per_position_rule(self, first, start, n):
        # The base rows of any run are a prefix of it, of ``cut`` rows.
        policy = AdapterPolicy(_alora((7,)), first)
        adapted = [first is not None and p >= first
                   for p in range(start, start + n)]
        cut = policy.cut(start, n)
        assert adapted == [False] * cut + [True] * (n - cut)

    def test_alora_requires_activation(self):
        with pytest.raises(ContractViolationError):
            build_policy(_alora((7,)), None)

    def test_lora_forbids_activation(self):
        lora = AdapterSpec(adapter_id="l", mode=MODE_LORA, deltas={})
        with pytest.raises(ContractViolationError):
            build_policy(lora, ActivationPoint(0))

    def test_policy_building_does_not_mutate_spec(self):
        spec = _alora((7,), n_layers=2)
        before = {k: (d.a.copy(), d.b.copy()) for k, d in spec.deltas.items()}
        build_policy(spec, ActivationPoint(3))
        for k, (a, b) in before.items():
            assert np.array_equal(spec.deltas[k].a, a)
            assert np.array_equal(spec.deltas[k].b, b)


class TestAdapterFiles:
    def test_round_trip_bitwise(self, tmp_path, rng):
        spec = random_adapter(16, 2, rank=4, alpha=32.0, mode=MODE_ALORA,
                              adapter_id="rt", seed=5,
                              invocation_sequence=(2, 3, 4))
        path = tmp_path / "adapter.alad"
        save_adapter(spec, path)
        loaded = load_adapter(path, d_model=16)
        assert loaded.adapter_id == "rt"
        assert loaded.mode == MODE_ALORA
        assert loaded.invocation_sequence == (2, 3, 4)
        for key, delta in spec.deltas.items():
            assert np.array_equal(loaded.deltas[key].a, delta.a)
            assert np.array_equal(loaded.deltas[key].b, delta.b)

    def test_read_gives_read_only_views_of_the_file_bytes(self, tmp_path):
        from alora.adapters import ADAPTER_MAGIC
        from alora.fileio import read_tensor_file
        spec = random_adapter(16, 2, rank=4, alpha=8.0, mode=MODE_LORA,
                              adapter_id="v", seed=6)
        save_adapter(spec, tmp_path / "v.alad")
        _, tensors = read_tensor_file(tmp_path / "v.alad", ADAPTER_MAGIC)
        assert len(tensors) == 2 * len(spec.deltas)
        owners = set()
        for name, arr in tensors.items():
            layer, proj, which = name.split(".")[1:]
            assert np.array_equal(arr, getattr(spec.deltas[int(layer), proj], which))
            assert not arr.flags.writeable
            owner = arr
            while isinstance(owner, np.ndarray):
                owner = owner.base
            assert isinstance(owner, bytes)  # the file's bytes: no copy
            owners.add(id(owner))
        assert len(owners) == 1

    @pytest.mark.parametrize("rank,alpha", [(2, 64.0), (3, 4.0)])
    def test_mixed_ranks_or_alphas_refused(self, tmp_path, rank, alpha):
        # the header holds one rank and one alpha for every delta
        spec = random_adapter(16, 2, rank=2, alpha=4.0, mode=MODE_LORA,
                              adapter_id="m", seed=4)
        gen = np.random.default_rng(5)
        spec = replace(spec, deltas={**spec.deltas, (1, "v"): LowRankDelta(
            a=gen.standard_normal((16, rank)).astype(np.float32),
            b=gen.standard_normal((rank, 16)).astype(np.float32),
            rank=rank, alpha=alpha)})
        with pytest.raises(ConfigurationError, match="mixes ranks or alphas"):
            save_adapter(spec, tmp_path / "mixed.alad")

    def test_truncated_file_rejected(self, tmp_path):
        spec = random_adapter(16, 1, rank=2, alpha=8.0, mode=MODE_LORA,
                              adapter_id="x", seed=1)
        path = tmp_path / "adapter.alad"
        save_adapter(spec, path)
        data = path.read_bytes()
        path.write_bytes(data[:len(data) - 20])
        with pytest.raises(FormatError):
            load_adapter(path)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.alad"
        path.write_bytes(b"NOPE" + b"\x00" * 32)
        with pytest.raises(FormatError):
            load_adapter(path)

    def test_rank_within_width_loads_above_rejected(self, tmp_path):
        ok = random_adapter(64, 1, rank=32, alpha=32.0, mode=MODE_LORA,
                            adapter_id="ok", seed=2)
        path = tmp_path / "ok.alad"
        save_adapter(ok, path)
        assert load_adapter(path, d_model=64).deltas[(0, "q")].rank == 32
        # an oversized rank is blocked at delta construction already
        with pytest.raises(ConfigurationError):
            random_adapter(64, 1, rank=128, alpha=32.0, mode=MODE_LORA,
                           adapter_id="bad", seed=3)
