"""Cache store: append/read, provenance, forks, block tables, byte
accounting."""

import gc
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, invariant,
                                 precondition, rule)

from alora import AdapterSpec, CacheStore, ModelConfig, row_bytes
from alora.cache import BLOCK_ROWS, ForkParent
from alora.errors import ContractViolationError


@pytest.fixture(scope="module")
def config():
    # frozen and read-only, safe to share across hypothesis examples
    return ModelConfig(n_layers=2, n_heads=2, d_model=8, d_head=4,
                       vocab_size=16, max_positions=64)


def producer(adapter_id):
    """An adapter with no deltas, standing for the producer of rows."""
    return AdapterSpec(adapter_id=adapter_id, mode="lora", deltas={})


def fill(cache, n, provenance=None, rng=None, token_base=3):
    rng = rng or np.random.default_rng(0)
    d = cache.config.d_model
    for _ in range(n):
        cache.append_token_ids([token_base])
        for layer in range(cache.config.n_layers):
            cache.append_rows(layer,
                              rng.standard_normal((1, d)).astype(np.float32),
                              rng.standard_normal((1, d)).astype(np.float32),
                              [provenance])


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
                          np.zeros((0, d), dtype=np.float32), [])
        assert cache.length == 0

    def test_unequal_layers_detected_with_layer_name(self, config):
        cache = CacheStore(config)
        d = config.d_model
        row = np.ones((1, d), dtype=np.float32)
        cache.append_token_ids([1])
        cache.append_rows(0, row, row, [None])
        # layer 1 never written: integrity scan must name it
        with pytest.raises(ContractViolationError, match="layer 1"):
            cache.integrity_check()

    def test_run_written_layer_by_layer_equals_append_rows(self, config, rng):
        # 21 rows from position 3 cross two block boundaries; the one-row
        # run after them is written as 1-D rows.
        d, layers = config.d_model, config.n_layers
        rows = rng.standard_normal((25, layers, 2, d)).astype(np.float32)
        checked, placed = CacheStore(config), CacheStore(config)
        for cache in (checked, placed):
            cache.append_token_ids([1, 2, 3])
            for layer in range(layers):
                cache.append_rows(layer, rows[:3, layer, 0], rows[:3, layer, 1],
                                  [None] * 3)
        for lo, hi in ((3, 24), (24, 25)):
            checked.append_token_ids([5] * (hi - lo))
            for layer in range(layers):
                checked.append_rows(layer, rows[lo:hi, layer, 0],
                                    rows[lo:hi, layer, 1], [None] * (hi - lo))
            run = placed.begin_run([5] * (hi - lo), [None] * (hi - lo))
            for layer in range(layers):
                k, v = rows[lo:hi, layer, 0], rows[lo:hi, layer, 1]
                placed.write_rows(layer, *((k[0], v[0]) if hi - lo == 1 else (k, v)),
                                  run)
        placed.integrity_check()
        assert placed.token_ids == checked.token_ids
        assert placed.provenance == checked.provenance
        for layer in range(layers):
            assert np.array_equal(placed.k_matrix(layer, 25), rows[:, layer, 0])
            assert np.array_equal(placed.v_matrix(layer, 25), rows[:, layer, 1])

    def test_run_refused_before_anything_is_written(self, config):
        # A run past max_positions, and a cache whose layers disagree:
        # begin_run raises and leaves every list and layer as is.
        d = config.d_model
        row = np.ones((1, d), dtype=np.float32)
        full, torn = CacheStore(config), CacheStore(config)
        fill(full, 60)
        fill(torn, 2)
        torn.append_token_ids([1])
        torn.append_rows(0, row, row, [None])
        for cache, n, match in ((full, 5, "overflow"), (torn, 1, "not one length")):
            before = (list(cache.token_ids), list(cache.provenance),
                      list(cache._layer_len), cache.stats().blocks)
            with pytest.raises(ContractViolationError, match=match):
                cache.begin_run([4] * n, [None] * n)
            assert (cache.token_ids, cache.provenance, cache._layer_len,
                    cache.stats().blocks) == before


class TestRead:
    def test_negative_count_rejected(self, config):
        cache = CacheStore(config)
        fill(cache, 40)
        for read in (cache.k_matrix, cache.v_matrix):
            with pytest.raises(ContractViolationError):
                read(0, -1)


class TestFork:
    def test_fork_full_then_extend(self, config, rng):
        parent = CacheStore(config)
        fill(parent, 5, rng=rng)
        parent.seal()
        before_k = [parent.k_matrix(l, 5).copy() for l in range(config.n_layers)]
        child = parent.fork_shared(5)
        fill(child, 16, producer("x"), rng=rng)
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
            fill(child, 3, producer("x"), rng=rng)
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
        root = node = CacheStore(config)
        expected = []
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
                    node.append_rows(l, k[l], v[l], [None])
                expected.append((k, v))
        for l in range(config.n_layers):
            for upto in range(node.length + 1):
                want = np.array([(k[l], v[l]) for k, v in expected[:upto]]
                                ).reshape(upto, 2, config.d_model)
                assert np.array_equal(node.k_matrix(l, upto), want[:, 0])
                assert np.array_equal(node.v_matrix(l, upto), want[:, 1])
        # the flat root reads as a view of the pool, not a copy
        assert np.shares_memory(root.k_matrix(0, root.length), root.pool.k[0])

    def test_fork_past_sealed_rejected(self, config):
        parent = CacheStore(config)
        fill(parent, 3)
        parent.seal()
        fill(parent, 1)  # unsealed tail
        with pytest.raises(ContractViolationError):
            parent.fork_shared(4)

    def test_negative_fork_rejected(self, config):
        parent = CacheStore(config)
        fill(parent, 40)
        parent.seal()
        with pytest.raises(ContractViolationError):
            parent.fork_shared(-1)

    def test_sealed_prefix_rows_immutable_after_fork(self, config, rng):
        parent = CacheStore(config)
        fill(parent, 6, rng=rng)
        parent.seal()
        snapshot = [(parent.k_matrix(l, 6).copy(), parent.v_matrix(l, 6).copy())
                    for l in range(config.n_layers)]
        child = parent.fork_shared(6)
        fill(child, 8, producer("c"), rng=rng)
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
        fill(child, 4, producer("x"), rng=rng)
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
            fill(child, t_new, producer(str(i)))
            children.append(child)
        tree_total = parent.incremental_bytes() + sum(
            c.incremental_bytes() for c in children)
        flat_union_positions = parent_len + n_forks * t_new
        assert tree_total == flat_union_positions * row_bytes(config)


def random_rows(rng, n, config):
    """``n`` positions of (layer, K or V, d_model) rows."""
    return rng.standard_normal((n, config.n_layers, 2, config.d_model)
                               ).astype(np.float32)


def put(cache, rows, provenance=None):
    cache.append_token_ids([3] * len(rows))
    for layer in range(cache.config.n_layers):
        cache.append_rows(layer, rows[:, layer, 0], rows[:, layer, 1],
                          [provenance] * len(rows))


def assert_reads(cache, expected):
    """Every layer's K and V reads of the whole cache and of shorter prefixes
    ending at or next to block edges equal the rows appended, ``expected``
    (positions, layer, 2, d)."""
    n = len(expected)
    assert cache.length == n
    edges = range(0, n + 1, BLOCK_ROWS)
    for layer in range(cache.config.n_layers):
        for upto in {1, n // 2, n - 1, n, *edges, *(e - 1 for e in edges)}:
            if 0 <= upto <= n:
                assert np.array_equal(cache.k_matrix(layer, upto),
                                      expected[:upto, layer, 0])
                assert np.array_equal(cache.v_matrix(layer, upto),
                                      expected[:upto, layer, 1])


def buffer_address(cache, layer, side):
    """Where the read of ``cache``'s whole layer starts, a view of its read
    buffer while it is extended; no view is kept."""
    read = (cache.k_matrix, cache.v_matrix)[side](layer, cache.length)
    return read.__array_interface__["data"][0]


def live_table_blocks(caches):
    return {int(b) for c in caches for b in c._table.ids[:c._table.n]}


class TestBlockTable:
    @settings(max_examples=60, deadline=None)
    @given(ops=st.lists(st.tuples(st.sampled_from(["append", "decode", "seal",
                                                   "fork", "drop"]),
                                  st.integers(0, 63), st.integers(0, 40)),
                        max_size=30),
           seed=st.integers(0, 2**16))
    def test_random_fork_trees_read_like_flat_lists(self, config, ops, seed):
        # oracle: each live cache paired with the rows appended along its
        # path from the root, cut back at every fork
        rng = np.random.default_rng(seed)
        live, pools = [], []
        # id of a fork not extended or sealed since it was made: the bytes
        # of the buffers the pool kept just before
        taken = {}
        for kind, which, amount in ops:
            if not live:
                live.append((CacheStore(config), random_rows(rng, 0, config)))
                pools.append(live[0][0].pool)
            i = which % len(live)
            cache, rows = live[i]
            if kind == "append":
                new = random_rows(rng, min(amount, config.max_positions - cache.length),
                                  config)
                rows = np.concatenate([rows, new])
                if len(new):
                    taken.pop(id(cache), None)
                cache.append_token_ids([3] * len(new))
                for layer in range(config.n_layers):
                    cache.append_rows(layer, new[:, layer, 0], new[:, layer, 1],
                                      [None] * len(new))
                    if amount % 2:
                        # layer by layer, as the forward appends and reads
                        cache.k_matrix(layer, len(rows))
                        cache.v_matrix(layer, len(rows))
                live[i] = (cache, rows)
            elif kind == "decode":
                # one row at a time, each followed by a whole read of every
                # layer, as a decoding fork reads
                for _ in range(min(amount % 8, config.max_positions - cache.length)):
                    taken.pop(id(cache), None)
                    rows = np.concatenate([rows, random_rows(rng, 1, config)])
                    put(cache, rows[-1:])
                    for layer in range(config.n_layers):
                        assert np.array_equal(cache.k_matrix(layer, len(rows)),
                                              rows[:, layer, 0])
                        assert np.array_equal(cache.v_matrix(layer, len(rows)),
                                              rows[:, layer, 1])
                live[i] = (cache, rows)
            elif kind == "seal":
                taken.pop(id(cache), None)
                cache.seal()
            elif kind == "fork":
                cut = amount % (cache.sealed_length + 1)
                kept = cache.stats().pool_kept_buffer_bytes
                live.append((cache.fork_shared(cut), rows[:cut]))
                taken[id(live[-1][0])] = kept
            else:
                taken.pop(id(cache), None)
                del live[i], cache
                gc.collect()
            for cache, rows in live:
                assert_reads(cache, rows)
                stats = cache.stats()
                assert stats.owned_positions + stats.aliased_positions == cache.length
                assert stats.blocks == -(-cache.length // BLOCK_ROWS)
                if cache.length == cache.sealed_length:
                    assert stats.read_buffer_bytes == taken.get(id(cache), 0)
            # sealed forks hand read buffers on, and no kept buffer holds a
            # block: a pool's live blocks are those its live tables hold
            for pool in pools:
                assert pool.live_blocks == len(live_table_blocks(
                    c for c, _ in live if c.pool is pool))
        live = cache = None
        gc.collect()
        assert all(pool.live_blocks == 0 for pool in pools)

    def test_child_reads_after_its_parent_is_dropped(self, config, rng):
        parent = CacheStore(config)
        rows = random_rows(rng, 20, config)
        put(parent, rows)
        parent.seal()
        child = parent.fork_shared(20)
        pool = parent.pool
        del parent
        gc.collect()
        # block 0 is held by the child alone; the parent's partial block is free
        assert pool.live_blocks == 2
        extra = random_rows(rng, 5, config)
        put(child, extra)
        assert_reads(child, np.concatenate([rows, extra]))

    def test_parent_appends_past_sealed_length_after_mid_block_fork(self, config, rng):
        parent = CacheStore(config)
        rows = random_rows(rng, 20, config)
        put(parent, rows)
        parent.seal()
        child = parent.fork_shared(18)
        assert child.stats().rows_copied_at_fork == 2
        more, own = random_rows(rng, 14, config), random_rows(rng, 9, config)
        put(parent, more)
        put(child, own)
        assert_reads(parent, np.concatenate([rows, more]))
        assert_reads(child, np.concatenate([rows[:18], own]))

    def test_flat_tables_read_as_views_and_forks_gather_once(self, config, rng):
        parent = CacheStore(config)
        rows = random_rows(rng, 20, config)
        put(parent, rows)
        parent.seal()
        child = parent.fork_shared(20)
        k = parent.pool.k[0]
        assert np.shares_memory(parent.k_matrix(0, 20), k)
        # the shared full block is the child's leading run: a view; past it,
        # the child's partial block lives elsewhere, so the read is a copy
        assert np.shares_memory(child.k_matrix(0, BLOCK_ROWS), k)
        gathered = child.k_matrix(0, 20)
        assert not np.shares_memory(gathered, k)
        assert np.array_equal(gathered, rows[:, 0, 0])

    def test_every_block_returns_to_the_free_list(self, config, rng):
        root = CacheStore(config)
        pool = root.pool
        put(root, random_rows(rng, 40, config))
        root.seal()
        caches = [root]
        for cut in (0, 7, 16, 33, 40, 40):
            child = root.fork_shared(cut)
            put(child, random_rows(rng, config.max_positions - cut, config))
            child.seal()
            caches.append(child.fork_shared(child.length - 5))
            caches.append(child)
        # the forks outgrew the root's reservation of max_positions rows
        assert len(pool.refs) > -(-config.max_positions // BLOCK_ROWS)
        assert pool.live_blocks > 0
        del root, child, caches
        gc.collect()
        assert pool.live_blocks == 0
        assert pool.free_blocks == len(pool.refs)
        # every block handed out is back on the free list, once
        assert sorted(pool.free) == list(range(pool.fresh))

    def test_fork_of_a_fork_reads_its_shared_blocks(self, config):
        # rows unlike other tests', which freed pool memory may still hold
        rng = np.random.default_rng(99)
        root = CacheStore(config)
        rows = random_rows(rng, 20, config)
        put(root, rows)
        root.seal()
        first = root.fork_shared(20)  # blocks: root's first, then its own
        more = random_rows(rng, 13, config)
        put(first, more)
        first.seal()
        second = first.fork_shared(33)  # shares both, which are not adjacent
        own = random_rows(rng, 4, config)
        put(second, own)
        assert_reads(second, np.concatenate([rows, more[:13], own]))

    def test_forks_of_tables_in_several_stretches(self, config):
        rng = np.random.default_rng(98)
        root = CacheStore(config)
        rows = random_rows(rng, 2 * BLOCK_ROWS, config)
        put(root, rows)  # blocks 0, 1
        root.seal()
        first = root.fork_shared(BLOCK_ROWS)
        more = [random_rows(rng, BLOCK_ROWS, config) for _ in range(4)]
        put(first, more[0])  # blocks 0, 2
        first.seal()
        second = first.fork_shared(2 * BLOCK_ROWS)
        put(second, more[1])  # blocks 0, 2, 3: 3 follows the shared 2
        assert_reads(second, np.concatenate([rows[:BLOCK_ROWS], *more[:2]]))
        put(first, more[2])  # blocks 0, 2, 4
        first.seal()
        third = first.fork_shared(3 * BLOCK_ROWS)
        put(third, more[3])  # blocks 0, 2, 4, 5
        assert_reads(third, np.concatenate([rows[:BLOCK_ROWS], more[0], *more[2:]]))

    def test_forks_record_ancestry_without_keeping_it(self, config, rng):
        root = CacheStore(config)
        pool = root.pool
        put(root, random_rows(rng, 20, config))
        root.seal()
        first = root.fork_shared(18)
        put(first, random_rows(rng, 7, config))
        first.seal()
        second = first.fork_shared(25)
        assert root.parent is None
        assert second.parent == ForkParent(25, ForkParent(18, None))
        assert second.parent.parent is first.parent
        del root, first
        gc.collect()
        # the record holds no cache: only the second fork's blocks are live
        assert pool.live_blocks == second.stats().blocks

    def test_forks_extended_in_two_threads_equal_serial(self, rng):
        config = ModelConfig(n_layers=2, n_heads=2, d_model=8, d_head=4,
                             vocab_size=16, max_positions=256)
        prefix = random_rows(rng, 37, config)
        tails = [random_rows(rng, 256 - 37, config) for _ in range(2)]

        def run(threaded):
            root = CacheStore(config)
            pool = root.pool
            put(root, prefix)
            root.seal()
            forks = [root.fork_shared(37) for _ in tails]
            wrong = []
            start = threading.Barrier(len(forks) if threaded else 1, timeout=60)

            def extend(cache, rows):
                start.wait()
                want = np.concatenate([prefix, rows])
                for i in range(len(rows)):
                    put(cache, rows[i:i + 1])
                    n = cache.length
                    for l in range(config.n_layers):
                        if not (np.array_equal(cache.k_matrix(l, n), want[:n, l, 0])
                                and np.array_equal(cache.v_matrix(l, n),
                                                   want[:n, l, 1])):
                            wrong.append((n, l))

            if threaded:
                threads = [threading.Thread(target=extend, args=pair)
                           for pair in zip(forks, tails)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=60)
                    assert not t.is_alive()
            else:
                list(map(extend, forks, tails))
            # the two forks together outgrow the pool while they extend
            assert len(pool.refs) > 256 // BLOCK_ROWS
            assert wrong == []
            reads = [np.stack([np.stack([f.k_matrix(l, f.length),
                                         f.v_matrix(l, f.length)], axis=1)
                               for l in range(config.n_layers)], axis=1)
                     for f in forks]
            del root, forks
            gc.collect()
            assert pool.live_blocks == 0
            return reads

        serial = run(False)
        for tail, got in zip(tails, serial):
            assert np.array_equal(got, np.concatenate([prefix, tail]))
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            # each repetition races one pool growth against the other writer
            for _ in range(50):
                for got, want in zip(run(True), serial):
                    assert np.array_equal(got, want)
        finally:
            sys.setswitchinterval(switch)


class TestReadBuffer:
    def test_fork_reads_views_of_one_buffer_until_sealed(self, config, rng):
        root = CacheStore(config)
        rows = random_rows(rng, 20, config)
        put(root, rows)
        root.seal()
        fork = root.fork_shared(20)
        assert fork.stats().read_buffer_bytes == 0
        own = random_rows(rng, 6, config)
        put(fork, own[:1])
        first = fork.k_matrix(0, 21)
        assert fork.stats().read_buffer_bytes > 0
        for i in range(1, 6):
            put(fork, own[i:i + 1])
            read = fork.k_matrix(0, 21 + i)
            # the same buffer, extended in place; earlier reads keep their rows
            assert np.shares_memory(read, first)
            assert not np.shares_memory(read, fork.pool.k[0])
        want = np.concatenate([rows, own])
        assert_reads(fork, want)
        assert np.array_equal(first, want[:21, 0, 0])
        held = fork.stats().read_buffer_bytes
        fork.seal()
        assert fork.stats().read_buffer_bytes == 0
        # the pool keeps the buffers for the next fork, all but the one
        # ``first`` still views
        assert fork.stats().pool_kept_buffer_bytes == held - first.base.nbytes
        sealed = fork.k_matrix(0, 26)
        assert not np.shares_memory(sealed, first)
        assert np.array_equal(sealed, want[:, 0, 0])
        assert_reads(fork, want)
        assert fork.stats().read_buffer_bytes == 0

    def test_reads_within_the_sealed_length_build_no_buffer(self, config, rng):
        root = CacheStore(config)
        rows = random_rows(rng, 20, config)
        put(root, rows)
        root.seal()
        fork = root.fork_shared(18)
        own = random_rows(rng, 3, config)
        put(fork, own)
        assert np.array_equal(fork.k_matrix(1, 18), rows[:18, 1, 0])
        assert fork.stats().read_buffer_bytes == 0
        assert np.array_equal(fork.v_matrix(1, 21),
                              np.concatenate([rows[:18], own])[:, 1, 1])
        # one buffer: only the layer and the side read past the seal
        one = fork.stats().read_buffer_bytes
        assert one > 0
        fork.k_matrix(1, 21)
        assert fork.stats().read_buffer_bytes == 2 * one

    def test_buffer_doubles_and_outlives_pool_growth(self, rng):
        config = ModelConfig(n_layers=2, n_heads=2, d_model=8, d_head=4,
                             vocab_size=16, max_positions=256)
        root = CacheStore(config)
        pool = root.pool
        rows = random_rows(rng, 20, config)
        put(root, rows)
        root.seal()
        fork = root.fork_shared(20)
        other = root.fork_shared(20)
        own, others = random_rows(rng, 200, config), random_rows(rng, 236, config)
        sizes = set()
        room = 0
        for i in range(200):
            before = fork.stats()
            put(fork, own[i:i + 1])
            n = fork.length
            if n > room:
                # a row past the buffers' room is written to the pool only
                after = fork.stats()
                assert after.read_buffer_bytes == before.read_buffer_bytes
                assert after.read_buffer_rows_copied == before.read_buffer_rows_copied
            for layer in range(config.n_layers):
                assert np.array_equal(fork.k_matrix(layer, n),
                                      np.concatenate([rows, own[:i + 1]])[:, layer, 0])
            if n > room:
                # the next read makes or grows each K buffer and copies all
                # its rows in
                assert (fork.stats().read_buffer_rows_copied
                        == before.read_buffer_rows_copied + config.n_layers * n)
            room = len(fork.k_matrix(0, n).base)
            sizes.add(fork.stats().read_buffer_bytes)
            if i == 100:
                # the other fork outgrows the pool while the buffers are live
                reserved = len(pool.refs)
                put(other, others)
                assert len(pool.refs) > reserved
        # sized to the rows plus a few blocks, then doubled, never past
        # the table's capacity
        assert len(sizes) > 2
        assert max(sizes) <= 2 * 2 * 256 * config.d_model * 4
        assert_reads(fork, np.concatenate([rows, own]))
        assert_reads(other, np.concatenate([rows, others]))


class TestReadBufferHandoff:
    def extend_and_read(self, cache, rows):
        """Append ``rows`` one at a time, reading every layer after each, as
        a decoding fork does."""
        for i in range(len(rows)):
            put(cache, rows[i:i + 1])
            for layer in range(cache.config.n_layers):
                cache.k_matrix(layer, cache.length)
                cache.v_matrix(layer, cache.length)

    def test_next_fork_takes_the_buffers_and_copies_past_the_shared_blocks(
            self, config, rng):
        root = CacheStore(config)
        rows = random_rows(rng, 37, config)
        put(root, rows)
        root.seal()
        first = root.fork_shared(37)
        mine = random_rows(rng, 6, config)
        self.extend_and_read(first, mine)
        matrices = 2 * config.n_layers
        assert first.stats().read_buffer_rows_copied == matrices * 38
        addresses = {(l, s): buffer_address(first, l, s)
                     for l in range(config.n_layers) for s in (0, 1)}
        size = first.stats().read_buffer_bytes
        first.seal()
        assert first.stats().pool_kept_buffer_bytes == size
        second = root.fork_shared(37)
        # taken when the fork is made, before its first read
        assert second.stats().read_buffer_bytes == size
        assert second.stats().pool_kept_buffer_bytes == 0
        theirs = random_rows(rng, 6, config)
        self.extend_and_read(second, theirs)
        # the same buffers; past the 2 shared blocks, only the 5 copied rows
        # and the first own row were copied, the other rows written by appends
        assert {(l, s): buffer_address(second, l, s)
                for l in range(config.n_layers) for s in (0, 1)} == addresses
        assert second.stats().read_buffer_rows_copied == matrices * (5 + 1)
        assert second.stats().pool_kept_buffer_bytes == 0
        assert_reads(second, np.concatenate([rows, theirs]))
        assert_reads(first, np.concatenate([rows, mine]))

    def test_a_fork_at_another_cut_copies_past_the_common_blocks(self, config, rng):
        root = CacheStore(config)
        rows = random_rows(rng, 40, config)
        put(root, rows)
        root.seal()
        first = root.fork_shared(33)
        self.extend_and_read(first, random_rows(rng, 6, config))
        first.seal()
        # the taken buffers hold the first fork's own rows from 33 on
        second = root.fork_shared(38)
        own = random_rows(rng, 4, config)
        second.append_token_ids([3] * 4)
        for layer in range(config.n_layers):
            # as the forward does: each layer appends, then reads
            second.append_rows(layer, own[:, layer, 0], own[:, layer, 1], [None] * 4)
            second.k_matrix(layer, 42)
            second.v_matrix(layer, 42)
        assert second.stats().read_buffer_rows_copied == 2 * config.n_layers * (42 - 32)
        assert_reads(second, np.concatenate([rows[:38], own]))

    def test_a_view_held_across_seal_keeps_its_rows_and_its_buffer(
            self, config, rng):
        root = CacheStore(config)
        rows = random_rows(rng, 20, config)
        put(root, rows)
        root.seal()
        fork = root.fork_shared(20)
        own = random_rows(rng, 3, config)
        self.extend_and_read(fork, own)
        held = fork.v_matrix(1, 23)
        want = held.copy()
        size = fork.stats().read_buffer_bytes
        fork.seal()
        assert fork.stats().pool_kept_buffer_bytes == size - held.base.nbytes
        for _ in range(3):
            other = root.fork_shared(20)
            self.extend_and_read(other, random_rows(rng, 23, config))
            assert not np.shares_memory(held, other.v_matrix(1, other.length))
            other.seal()
        assert np.array_equal(held, want)
        assert np.array_equal(held, np.concatenate([rows, own])[:, 1, 1])

    def test_freed_and_reallocated_blocks_are_not_reused_rows(self, config, rng):
        root = CacheStore(config)
        pool = root.pool
        put(root, random_rows(rng, 40, config))
        root.seal()
        # holds the pool, and no block
        keeper = root.fork_shared(0)
        fork = root.fork_shared(40)
        self.extend_and_read(fork, random_rows(rng, 8, config))
        fork.seal()
        recorded = fork._table.ids[:3].tolist()
        del root, fork
        gc.collect()
        assert pool.live_blocks == 0
        assert keeper.stats().pool_kept_buffer_bytes > 0
        # the same block ids again, with other rows
        rows = random_rows(rng, 40, config)
        put(keeper, rows)
        keeper.seal()
        # takes the next free block, so that the child's partial block does
        # not follow its shared ones and the child reads through buffers
        spacer = keeper.fork_shared(40)
        child = keeper.fork_shared(40)
        assert child._table.ids[:2].tolist() == recorded[:2]
        assert child._table.run == 2
        own = random_rows(rng, 8, config)
        self.extend_and_read(child, own)
        assert child.stats().read_buffer_rows_copied >= 2 * config.n_layers * 41
        assert_reads(child, np.concatenate([rows, own]))

    def test_a_fork_over_reallocated_blocks_takes_buffers_holding_none(
            self, config, rng):
        root = CacheStore(config)
        pool = root.pool
        put(root, random_rows(rng, 40, config))
        root.seal()
        # hold the pool, and no block; ``spacer`` later takes a block so
        # that the child's partial block does not follow its shared ones
        keeper, spacer = root.fork_shared(0), root.fork_shared(0)
        fork = root.fork_shared(40)
        self.extend_and_read(fork, random_rows(rng, 8, config))
        fork.seal()
        recorded = fork._table.ids[:2].tolist()
        del root, fork
        gc.collect()
        assert pool.live_blocks == 0
        # the same block ids again, with other rows
        rows = random_rows(rng, 40, config)
        put(keeper, rows)
        keeper.seal()
        put(spacer, random_rows(rng, 1, config))
        child = keeper.fork_shared(40)
        assert child._table.ids[:2].tolist() == recorded
        assert child._table.run == 2
        assert child.stats().read_buffer_bytes > 0
        own = random_rows(rng, 8, config)
        self.extend_and_read(child, own)
        assert child.stats().read_buffer_rows_copied == 2 * config.n_layers * 41
        assert_reads(child, np.concatenate([rows, own]))

    def test_forks_handing_buffers_on_in_two_threads_read_their_rows(self, rng):
        config = ModelConfig(n_layers=2, n_heads=2, d_model=8, d_head=4,
                             vocab_size=16, max_positions=256)
        root = CacheStore(config)
        prefix = random_rows(rng, 37, config)
        put(root, prefix)
        root.seal()
        tails = [[random_rows(rng, 12, config) for _ in range(40)] for _ in range(2)]
        wrong = []
        start = threading.Barrier(2, timeout=60)

        def extend(mine):
            start.wait()
            for rows in mine:
                fork = root.fork_shared(37)
                want = np.concatenate([prefix, rows])
                for i in range(len(rows)):
                    put(fork, rows[i:i + 1])
                    n = fork.length
                    for l in range(config.n_layers):
                        if not (np.array_equal(fork.k_matrix(l, n), want[:n, l, 0])
                                and np.array_equal(fork.v_matrix(l, n),
                                                   want[:n, l, 1])):
                            wrong.append((n, l))
                fork.seal()

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=extend, args=(t,)) for t in tails]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
                assert not t.is_alive()
        finally:
            sys.setswitchinterval(switch)
        assert wrong == []
        assert root.stats().pool_kept_buffer_bytes > 0


class CacheMachine(RuleBasedStateMachine):
    """Roots, appends, runs written layer by layer, reads, held views, seals,
    forks and drops in any order over the cache's public API, and requests
    as the engine makes them: fork, a run, one-row decode runs, seal. Each
    live cache is paired with the rows it should hold and the views held of
    it. One root, and so one pool, is live at a time; at 64 positions, its
    forks outgrow it."""

    config = ModelConfig(n_layers=2, n_heads=2, d_model=8, d_head=4,
                         vocab_size=16, max_positions=64)
    MAX_CACHES = 5

    def __init__(self):
        super().__init__()
        self.rng = np.random.default_rng(0)
        # [cache, its rows (positions, layer, K or V, d_model),
        #  {(layer, K or V): (the last view held, a copy)},
        #  the bytes of the buffers it took when forked, 0 once extended
        #  or sealed]
        self.live = []
        self.pools = []

    def pick(self, i):
        return self.live[i % len(self.live)]

    def read(self, entry, layer, side, upto, hold=False):
        cache, rows, views, _ = entry
        got = (cache.k_matrix, cache.v_matrix)[side](layer, upto)
        assert np.array_equal(got, rows[:upto, layer, side])
        if hold:
            views[layer, side] = got, got.copy()

    def extend(self, entry, n, by_run, hold=False):
        cache, rows, _, _ = entry
        n = min(n, self.config.max_positions - cache.length)
        if n == 0:
            return
        new = random_rows(self.rng, n, self.config)
        entry[1] = np.concatenate([rows, new])
        entry[3] = 0
        if not by_run:
            put(cache, new)
            return
        # as the forward does: place once, then write and read each layer
        run = cache.begin_run([3] * n, [None] * n)
        for layer in range(self.config.n_layers):
            k, v = new[:, layer, 0], new[:, layer, 1]
            cache.write_rows(layer, *((k[0], v[0]) if n == 1 else (k, v)), run)
            for side in (0, 1):
                self.read(entry, layer, side, len(entry[1]), hold and side)

    def fork_of(self, i, at):
        cache, rows, _, _ = self.pick(i)
        cut = min(at, cache.sealed_length)
        kept = cache.stats().pool_kept_buffer_bytes
        entry = [cache.fork_shared(cut), rows[:cut], {}, kept]
        # the fork takes what the pool kept
        assert entry[0].stats().read_buffer_bytes == kept
        assert entry[0].stats().pool_kept_buffer_bytes == 0
        self.live.append(entry)
        return entry

    @precondition(lambda self: not self.live)
    @rule(n=st.integers(1, 40), seal=st.booleans())
    def root(self, n, seal):
        cache = CacheStore(self.config)
        self.pools.append(cache.pool)
        self.live.append([cache, random_rows(self.rng, 0, self.config), {}, 0])
        self.extend(self.live[-1], n, by_run=False)
        if seal:
            cache.seal()

    @precondition(lambda self: self.live)
    @rule(i=st.integers(0, 63), n=st.one_of(st.just(1), st.integers(1, 20)),
          by_run=st.booleans(), hold=st.booleans())
    def append(self, i, n, by_run, hold):
        self.extend(self.pick(i), n, by_run, hold)

    @precondition(lambda self: self.live)
    @rule(i=st.integers(0, 63), layer=st.integers(0, 1), side=st.integers(0, 1),
          at=st.integers(0, 64), hold=st.booleans())
    def read_rows(self, i, layer, side, at, hold):
        entry = self.pick(i)
        self.read(entry, layer, side, min(at, entry[0].length), hold)

    @precondition(lambda self: self.live)
    @rule(i=st.integers(0, 63))
    def seal(self, i):
        entry = self.pick(i)
        entry[0].seal()
        entry[3] = 0

    @precondition(lambda self: 0 < len(self.live) < self.MAX_CACHES)
    @rule(i=st.integers(0, 63), at=st.just(0) | st.integers(0, 64))
    def fork(self, i, at):
        self.fork_of(i, at)

    @precondition(lambda self: 0 < len(self.live) < self.MAX_CACHES)
    @rule(i=st.integers(0, 63), at=st.integers(0, 64), prompt=st.integers(1, 8),
          decode=st.integers(0, 6), hold=st.booleans())
    def request(self, i, at, prompt, decode, hold):
        entry = self.fork_of(i, at)
        self.extend(entry, prompt, by_run=True)
        for _ in range(decode):
            self.extend(entry, 1, by_run=True)
        if hold:
            cache = entry[0]
            self.read(entry, cache.config.n_layers - 1, 1, cache.length, hold)
        entry[0].seal()
        entry[3] = 0

    @precondition(lambda self: self.live)
    @rule(i=st.integers(0, 63))
    def drop(self, i):
        # a view is valid while its cache lives, so the views go with it
        del self.live[i % len(self.live)]

    @invariant()
    def sealed_rows_and_held_views_read_their_rows(self):
        for entry in self.live:
            cache, _, views, taken = entry
            # reads within the sealed length change no state
            for layer in range(self.config.n_layers):
                for side in (0, 1):
                    self.read(entry, layer, side, cache.sealed_length)
            for view, copy in views.values():
                assert np.array_equal(view, copy)
            stats = cache.stats()
            assert stats.owned_positions + stats.aliased_positions == cache.length
            assert stats.blocks == -(-cache.length // BLOCK_ROWS)
            # a sealed cache holds no read buffer, unless it is a fork
            # holding those it took when it was made
            if cache.length == cache.sealed_length:
                assert stats.read_buffer_bytes == taken

    @invariant()
    def live_blocks_are_those_of_the_live_tables(self):
        # released as soon as the last cache holding them is dropped
        for pool in self.pools:
            assert pool.live_blocks == len(live_table_blocks(
                c for c, _, _, _ in self.live if c.pool is pool))

    def teardown(self):
        self.live.clear()
        gc.collect()
        assert all(pool.live_blocks == 0 for pool in self.pools)


TestCacheMachine = CacheMachine.TestCase
TestCacheMachine.settings = settings(max_examples=50, stateful_step_count=40,
                                     deadline=None)
