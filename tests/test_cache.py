"""Cache store: append/read, provenance reuse, forks, byte accounting."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alora import BASE, CacheStore, ModelConfig, Provenance, row_bytes
from alora.errors import ContractViolationError


@pytest.fixture(scope="module")
def config():
    # frozen and read-only, safe to share across hypothesis examples
    return ModelConfig(n_layers=2, n_heads=2, d_model=8, d_head=4,
                       vocab_size=16, max_positions=64)


def fill(cache, n, provenance=BASE, rng=None, token_base=3):
    rng = rng or np.random.default_rng(0)
    d = cache.config.d_model
    for _ in range(n):
        cache.append_token_ids([token_base])
        for layer in range(cache.config.n_layers):
            cache.append_rows(layer,
                              rng.standard_normal((1, d)).astype(np.float32),
                              rng.standard_normal((1, d)).astype(np.float32),
                              provenance)


class TestAppend:
    def test_three_rows(self, config):
        cache = CacheStore(config)
        fill(cache, 3)
        assert cache.length == 3
        cache.integrity_check()

    def test_zero_rows_is_noop(self, config):
        cache = CacheStore(config)
        d = config.d_model
        cache.append_rows(0, np.zeros((0, d), dtype=np.float32),
                          np.zeros((0, d), dtype=np.float32), BASE)
        assert cache.length == 0

    def test_unequal_layers_detected_with_layer_name(self, config):
        cache = CacheStore(config)
        d = config.d_model
        row = np.ones((1, d), dtype=np.float32)
        cache.append_token_ids([1])
        cache.append_rows(0, row, row, BASE)
        # layer 1 never written: integrity scan must name it
        with pytest.raises(ContractViolationError, match="layer 1"):
            cache.integrity_check()


class TestReusablePrefix:
    def test_base_rows_reusable_by_adapter(self, config):
        cache = CacheStore(config)
        fill(cache, 3, BASE)
        assert cache.reusable_prefix(Provenance("1")) == 3

    def test_adapter_rows_not_reusable_by_base(self, config):
        cache = CacheStore(config)
        fill(cache, 2, BASE)
        fill(cache, 2, Provenance("1"))
        assert cache.reusable_prefix(BASE) == 2

    def test_foreign_block_hides_trailing_base(self, config):
        cache = CacheStore(config)
        fill(cache, 1, BASE)
        fill(cache, 1, Provenance("2"))
        fill(cache, 1, BASE)
        assert cache.reusable_prefix(Provenance("1")) == 1

    def test_base_prefix_never_exceeds_owner_prefix(self, config):
        # a cache built by one adapter atop a base prefix is fully reusable
        # by that adapter but only up to the boundary by the base model
        cache = CacheStore(config)
        fill(cache, 4, BASE)
        fill(cache, 3, Provenance("a"))
        assert cache.reusable_prefix(BASE) <= cache.reusable_prefix(Provenance("a"))
        assert cache.reusable_prefix(Provenance("a")) == cache.length

    @settings(max_examples=60, deadline=None)
    @given(tags=st.lists(st.sampled_from([None, "a", "b"]), max_size=12),
           consumer=st.sampled_from([None, "a", "b"]))
    def test_matches_scan_oracle(self, config, tags, consumer):
        cache = CacheStore(config)
        for tag in tags:
            fill(cache, 1, Provenance(tag))
        consumer_p = Provenance(consumer)
        # oracle: first incompatible index, derived independently
        expected = len(tags)
        for i, tag in enumerate(tags):
            if not (tag is None or tag == consumer):
                expected = i
                break
        assert cache.reusable_prefix(consumer_p) == expected


class TestFork:
    def test_fork_full_then_extend(self, config, rng):
        parent = CacheStore(config)
        fill(parent, 5, rng=rng)
        parent.seal()
        before_k = [parent.k_matrix(l, 5).copy() for l in range(config.n_layers)]
        child = parent.fork_shared(5)
        fill(child, 16, Provenance("x"), rng=rng)
        assert parent.length == 5
        assert child.length == 21
        for l in range(config.n_layers):
            assert np.array_equal(parent.k_matrix(l, 5), before_k[l])
            # child sees the aliased prefix values
            assert np.array_equal(child.k_matrix(l, 5), before_k[l])

    def test_two_forks_count_parent_once(self, config, rng):
        parent = CacheStore(config)
        fill(parent, 4, rng=rng)
        parent.seal()
        children = [parent.fork_shared(4) for _ in range(2)]
        for child in children:
            fill(child, 3, Provenance("x"), rng=rng)
        # oracle: unique owned buffers summed directly
        total = parent.incremental_bytes() + sum(
            c.incremental_bytes() for c in children)
        assert total == (4 + 3 + 3) * row_bytes(config)

    def test_fork_at_zero_is_independent(self, config, rng):
        parent = CacheStore(config)
        fill(parent, 3, rng=rng)
        parent.seal()
        child = parent.fork_shared(0)
        assert child.length == 0
        fill(child, 2, rng=rng)
        assert parent.length == 3 and child.length == 2

    def test_fork_chain_reads_like_a_flat_cache(self, config, rng):
        # oracle: the rows appended at each position, cut back at every fork
        node, expected = CacheStore(config), []
        for depth in range(6):
            if depth:
                node.seal()
                cut = node.length - depth % 2
                node = node.fork_shared(cut)
                del expected[cut:]
            for _ in range(3):
                k, v = rng.standard_normal((2, config.n_layers, config.d_model)
                                           ).astype(np.float32)
                node.append_token_ids([3])
                for l in range(config.n_layers):
                    node.append_rows(l, k[l], v[l], BASE)
                expected.append((k, v))
        for l in range(config.n_layers):
            for upto in range(node.length + 1):
                want = np.array([(k[l], v[l]) for k, v in expected[:upto]]
                                ).reshape(upto, 2, config.d_model)
                assert np.array_equal(node.k_matrix(l, upto), want[:, 0])
                assert np.array_equal(node.v_matrix(l, upto), want[:, 1])
        # a read inside the root's rows is a view, not a copy
        root = node
        while root.parent is not None:
            root = root.parent
        assert np.shares_memory(node.k_matrix(0, 2), root.k_matrix(0, 2))

    def test_fork_past_sealed_rejected(self, config):
        parent = CacheStore(config)
        fill(parent, 3)
        parent.seal()
        fill(parent, 1)  # unsealed tail
        with pytest.raises(ContractViolationError):
            parent.fork_shared(4)

    def test_sealed_prefix_rows_immutable_after_fork(self, config, rng):
        parent = CacheStore(config)
        fill(parent, 6, rng=rng)
        parent.seal()
        snapshot = [(parent.k_matrix(l, 6).copy(), parent.v_matrix(l, 6).copy())
                    for l in range(config.n_layers)]
        child = parent.fork_shared(6)
        fill(child, 8, Provenance("c"), rng=rng)
        fill(parent, 2, rng=rng)  # appending past the sealed region is legal
        for l, (k, v) in enumerate(snapshot):
            assert np.array_equal(parent.k_matrix(l, 6), k)
            assert np.array_equal(parent.v_matrix(l, 6), v)
            assert np.array_equal(child.k_matrix(l, 6), k)


class TestBytes:
    def test_flat_formula(self, config):
        cache = CacheStore(config)
        fill(cache, 7)
        assert cache.incremental_bytes() == \
            7 * config.n_layers * 2 * config.d_model * 4

    def test_fork_counts_only_owned(self, config, rng):
        parent = CacheStore(config)
        fill(parent, 10, rng=rng)
        parent.seal()
        child = parent.fork_shared(10)
        fill(child, 4, Provenance("x"), rng=rng)
        assert child.incremental_bytes() == 4 * row_bytes(config)

    @settings(max_examples=30, deadline=None)
    @given(n_forks=st.integers(1, 5), t_new=st.integers(0, 6),
           parent_len=st.integers(1, 8))
    def test_fork_tree_equals_flat_union(self, config, n_forks, t_new, parent_len):
        parent = CacheStore(config)
        fill(parent, parent_len)
        parent.seal()
        children = []
        for i in range(n_forks):
            child = parent.fork_shared(parent_len)
            fill(child, t_new, Provenance(str(i)))
            children.append(child)
        tree_total = parent.incremental_bytes() + sum(
            c.incremental_bytes() for c in children)
        flat_union_positions = parent_len + n_forks * t_new
        assert tree_total == flat_union_positions * row_bytes(config)
