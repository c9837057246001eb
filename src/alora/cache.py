"""Per-layer key/value cache in shared fixed-size blocks, with each
position's producer: None for the base model, else the ``AdapterSpec``.

Rows are stored pre-head-split at d_model width; head reshaping happens in
the attention code as a view. K/V rows live in a block pool: one
(blocks, BLOCK_ROWS, d_model) array per layer for K and one for V. A root
cache creates a pool reserving max_positions rows, uninitialised, and its
forks draw on the same pool. Every cache holds a block table, the ids of the
blocks holding its positions in order. ``fork_shared(L)`` shares the
parent's full blocks below L (their refcounts go up) and copies the rows of
the partial block, at most BLOCK_ROWS - 1, into a fresh block. Nothing walks
a chain of parents. Attention on exact prefixes needs contiguous keys, so a
read takes one of three forms:

- rows in the table's leading run of consecutive blocks, all of a root
  cache's, are read as a view of the pool;
- a cache being extended keeps one contiguous K and one contiguous V read
  buffer per layer. The first read that reaches past the sealed length and
  the leading run fills it with one copy of the layer's rows; each append
  then writes its rows into the pool and into the buffer, and later reads
  are views of the buffer. It is sized to the rows plus a few blocks and
  doubles when outgrown;
- any other read past the leading run is a one-off copy: two slices joined
  when the blocks past the run are consecutive too, as a fork's own blocks
  usually are, otherwise one gather of the blocks. The buffer's fill is
  this same copy.

When the last table holding a block is collected, the block returns to the
pool's free list; the pool grows only when its live blocks run out. A fork
keeps a ``ForkParent`` record of its ancestry, not its parent: dropping a
parent frees what only it held.

The ``provenance`` list holds one producer per position. Specs compare by
identity, so the engine reuses a row only for a request whose policy would
produce that row with the same spec object (``Engine._usable_prefix``).

Byte accounting is logical: a fork owns the positions it appended, and its
aliased prefix, copied rows included, is counted once, in the cache that
appended it. Read buffers are reported as allocated bytes, never as owned.

Concurrency contract: sealed prefixes are immutable and may be read from any
number of threads; extending a fork is single-writer. Only a read past the
sealed length, which is the writer's, builds a read buffer; the buffer's
rows below the sealed length never change, and ``seal()`` drops it, so a
sealed cache reads as before. Allocation, freeing, growth and block writes
hold the pool's lock, so forks of one pool may be extended in different
threads.
"""

from __future__ import annotations

import threading
import weakref
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

import numpy as np

from .errors import ContractViolationError

if TYPE_CHECKING:
    from .model import ModelConfig

# Byte accounting is fixed at f32 row width regardless of the dtype the
# arrays happen to use (f64 runs keep the same accounting unit).
BYTES_PER_ELEMENT = 4

# Rows per K/V block.
BLOCK_ROWS = 16

# Blocks a read buffer holds past the rows it is filled with.
SPARE_BLOCKS = 4


def row_bytes(config) -> int:
    """Bytes of K+V storage for one position across all layers."""
    return config.n_layers * 2 * config.d_model * BYTES_PER_ELEMENT


@dataclass(frozen=True)
class ForkParent:
    """What a fork keeps of the cache it was forked from: the positions it
    shares and that cache's own ``parent`` record (``None`` for a root).
    It holds no cache and no blocks."""

    __slots__ = ("length", "parent")
    length: int
    parent: Optional["ForkParent"]


@dataclass(frozen=True)
class CacheStats:
    """Read-only summary of one cache and of the pool it draws on."""

    owned_positions: int
    aliased_positions: int
    blocks: int
    rows_copied_at_fork: int
    pool_live_blocks: int
    pool_free_blocks: int
    # Allocated, not owned: the rows are the pool's, copied for reading.
    read_buffer_bytes: int


class BlockPool:
    """Refcounted K/V blocks shared by a root cache and its forks."""

    def __init__(self, config: "ModelConfig", dtype):
        n = -(-config.max_positions // BLOCK_ROWS)
        self._layers, self._width, self.dtype = config.n_layers, config.d_model, dtype
        self.lock = threading.RLock()
        self.refs = np.zeros(n, dtype=np.intp)
        # Blocks below ``fresh`` have been handed out; ``free`` is a stack of
        # those returned since.
        self.fresh = 0
        self.free = []
        self.k, self.v = [], []
        self._reserve(n)

    def _reserve(self, n: int) -> None:
        """Uninitialised arrays of ``n`` blocks, the current rows copied in."""
        shape = (n, BLOCK_ROWS, self._width)
        k = [np.empty(shape, dtype=self.dtype) for _ in range(self._layers)]
        v = [np.empty(shape, dtype=self.dtype) for _ in range(self._layers)]
        for new, old in zip(k + v, self.k + self.v):
            new[:len(old)] = old
        self.k, self.v = k, v
        # The same storage as (n * BLOCK_ROWS, d_model) rows.
        self.k_rows = [a.reshape(-1, self._width) for a in k]
        self.v_rows = [a.reshape(-1, self._width) for a in v]

    @property
    def live_blocks(self) -> int:
        return self.fresh - len(self.free)

    @property
    def free_blocks(self) -> int:
        return len(self.refs) - self.live_blocks

    def allocate(self, count: int) -> list:
        """``count`` blocks, each with refcount 1: returned ones first, then
        never-used ones in ascending order; call under the lock."""
        reused = min(count, len(self.free))
        ids = [self.free.pop() for _ in range(reused)]
        start, self.fresh = self.fresh, self.fresh + count - reused
        n = len(self.refs)
        if self.fresh > n:
            grown = max(2 * n, self.fresh)
            refs = np.zeros(grown, dtype=np.intp)
            refs[:n] = self.refs
            self.refs = refs
            self._reserve(grown)
        ids.extend(range(start, self.fresh))
        for block in ids:
            self.refs[block] = 1
        return ids

    def release(self, table: "_Table") -> None:
        """Drop one reference to each block of ``table``."""
        with self.lock:
            ids = table.ids[:table.n]
            self.refs[ids] -= 1
            # Pushed in reverse, so the next allocation pops them in order.
            self.free.extend(ids[self.refs[ids] == 0][::-1].tolist())


class _Table:
    """A cache's block ids and the number in use; ``run`` is how many
    leading ids are consecutive, ``start`` the first row of the first, and
    ``last`` the index where the trailing stretch of consecutive ids begins
    (0 while there is one stretch)."""

    __slots__ = ("ids", "n", "run", "start", "last")

    def __init__(self, capacity: int):
        self.ids = np.empty(capacity, dtype=np.intp)
        self.n = self.run = self.start = self.last = 0

    def share(self, other: "_Table", n: int) -> None:
        """Start with the first ``n`` ids of ``other``."""
        self.ids[:n] = other.ids[:n]
        self.n, self.run, self.start = n, min(other.run, n), other.start
        breaks = np.flatnonzero(np.diff(self.ids[:n]) != 1)
        self.last = int(breaks[-1]) + 1 if len(breaks) else 0

    def add(self, ids) -> None:
        for block in ids:
            if self.n == 0:
                self.start = block * BLOCK_ROWS
            elif block != self.ids[self.n - 1] + 1:
                self.last = self.n
            if self.last == 0:
                self.run += 1
            self.ids[self.n] = block
            self.n += 1


class CacheStore:
    """Per-layer K/V store over a block table; a fork shares its parent's
    full blocks instead of keeping the parent."""

    def __init__(self, config: "ModelConfig", dtype=np.float32):
        self._attach(config, BlockPool(config, np.dtype(dtype)), 0, None)
        self.token_ids = []
        self.provenance = []

    def _attach(self, config, pool: BlockPool, aliased: int,
                parent: Optional[ForkParent]) -> None:
        self.config = config
        # Ancestry only; reads never walk it.
        self.parent = parent
        self.dtype = pool.dtype
        self._pool = pool
        self.aliased_positions = aliased
        self.rows_copied_at_fork = 0
        # A table never holds more blocks than max_positions rows need.
        self._table = _Table(-(-config.max_positions // BLOCK_ROWS))
        finalizer = weakref.finalize(self, pool.release, self._table)
        finalizer.atexit = False
        # Per-layer lengths in absolute positions; all must agree between
        # segment boundaries (integrity_check enforces it).
        self._layer_len = [aliased] * config.n_layers
        self.sealed_length = aliased
        self._drop_buffers()

    def _drop_buffers(self) -> None:
        """Per-layer K and V read buffers; ``None`` until a read builds one."""
        self._k_buf = [None] * self.config.n_layers
        self._v_buf = [None] * self.config.n_layers

    # ------------------------------------------------------------------ #
    # growth

    @property
    def length(self) -> int:
        """Number of positions covered (aliased prefix + owned rows)."""
        return self._layer_len[0]

    @property
    def owned_positions(self) -> int:
        return self.length - self.aliased_positions

    def append_token_ids(self, tokens) -> None:
        self.token_ids.extend(int(t) for t in tokens)

    def append_rows(self, layer: int, k_rows: np.ndarray, v_rows: np.ndarray,
                    provenance) -> None:
        """Append K/V rows for one layer; ``provenance`` holds each row's
        producer. Layer 0 drives the provenance list."""
        if not 0 <= layer < self.config.n_layers:
            raise ContractViolationError(f"layer {layer} out of range")
        k_rows = np.atleast_2d(k_rows)
        v_rows = np.atleast_2d(v_rows)
        if k_rows.shape != v_rows.shape or k_rows.shape[1] != self.config.d_model:
            raise ContractViolationError("K/V row shapes inconsistent")
        n = k_rows.shape[0]
        if len(provenance) != n:
            raise ContractViolationError(
                f"{len(provenance)} provenances for {n} rows")
        if n == 0:
            return
        pos = self._layer_len[layer]
        if pos < self.sealed_length:
            raise ContractViolationError(
                f"append into sealed region (layer {layer}, position {pos}, "
                f"sealed through {self.sealed_length})")
        end = pos + n
        if end > self.config.max_positions:
            raise ContractViolationError(
                f"cache overflow: position {end} exceeds max_positions "
                f"{self.config.max_positions}")
        table, pool = self._table, self._pool
        with pool.lock:
            need = -(-end // BLOCK_ROWS) - table.n
            if need > 0:
                table.add(pool.allocate(need))
            k, v = pool.k_rows[layer], pool.v_rows[layer]
            if end <= table.run * BLOCK_ROWS:
                at = table.start + pos
                k[at:at + n] = k_rows
                v[at:at + n] = v_rows
            else:
                done = 0
                while done < n:
                    block, offset = divmod(pos + done, BLOCK_ROWS)
                    rows = min(BLOCK_ROWS - offset, n - done)
                    at = table.ids[block] * BLOCK_ROWS + offset
                    k[at:at + rows] = k_rows[done:done + rows]
                    v[at:at + rows] = v_rows[done:done + rows]
                    done += rows
        for buffers, new in ((self._k_buf, k_rows), (self._v_buf, v_rows)):
            buf = buffers[layer]
            if buf is not None:
                if end > len(buf):
                    grown = self._new_buffer(max(2 * len(buf), end))
                    grown[:pos] = buf[:pos]
                    buf = buffers[layer] = grown
                buf[pos:end] = new
        self._layer_len[layer] = end
        if layer == 0:
            self.provenance.extend(provenance)

    # ------------------------------------------------------------------ #
    # reads

    def k_matrix(self, layer: int, upto: int) -> np.ndarray:
        """Contiguous K rows for positions [0, upto). Aliased prefix included.
        A view stays valid, and its rows unchanged, while this cache lives."""
        return self._matrix(self._pool.k_rows, self._pool.k, self._k_buf,
                            layer, upto)

    def v_matrix(self, layer: int, upto: int) -> np.ndarray:
        return self._matrix(self._pool.v_rows, self._pool.v, self._v_buf,
                            layer, upto)

    def _matrix(self, rows, blocks, buffers, layer, upto):
        """A view when the rows lie in the table's leading run of
        consecutive blocks; else a view of the layer's read buffer, which the
        first read past the sealed length fills; else a one-off copy."""
        length = self._layer_len[layer]
        if not 0 <= upto <= length:
            raise ContractViolationError(
                f"requested {upto} positions, layer {layer} holds {length}")
        table, rows, blocks = self._table, rows[layer], blocks[layer]
        if upto <= table.run * BLOCK_ROWS:
            return rows[table.start:table.start + upto]
        buf = buffers[layer]
        if buf is None:
            if upto <= self.sealed_length:
                return self._copy(rows, blocks, upto)
            buf = self._new_buffer(length + SPARE_BLOCKS * BLOCK_ROWS)
            self._copy(rows, blocks, length, buf)
            buffers[layer] = buf
        return buf[:upto]

    def _copy(self, rows, blocks, upto, out=None):
        """Rows [0, upto), which reach past the leading run, in one copy: two
        slices joined when the blocks past the run are consecutive too,
        otherwise one gather of the blocks. Into ``out`` when given."""
        table = self._table
        run = table.run * BLOCK_ROWS
        if table.last == table.run:
            at = table.ids[table.run] * BLOCK_ROWS
            return np.concatenate(
                (rows[table.start:table.start + run], rows[at:at + upto - run]),
                out=None if out is None else out[:upto])
        n = -(-upto // BLOCK_ROWS)
        if out is not None:
            out = out[:n * BLOCK_ROWS].reshape(n, BLOCK_ROWS, -1)
        # The ids are in range; mode "raise" would fill ``out`` through a
        # temporary.
        gathered = blocks.take(table.ids[:n], axis=0, out=out, mode="clip")
        return gathered.reshape(-1, self.config.d_model)[:upto]

    def _new_buffer(self, rows: int) -> np.ndarray:
        """An uninitialised read buffer of at least ``rows`` rows, in whole
        blocks, never more than the table can hold."""
        blocks = min(-(-rows // BLOCK_ROWS), len(self._table.ids))
        return np.empty((blocks * BLOCK_ROWS, self.config.d_model),
                        dtype=self.dtype)

    # ------------------------------------------------------------------ #
    # sharing and accounting

    def seal(self) -> None:
        """Freeze all current positions; they become shareable via forks."""
        self.sealed_length = self.length
        self._drop_buffers()

    def fork_shared(self, length: int) -> "CacheStore":
        """New cache aliasing the first ``length`` sealed positions: it shares
        their full blocks and copies the rows of a partial last block."""
        if not 0 <= length <= self.sealed_length:
            raise ContractViolationError(
                f"fork at {length} outside sealed_length {self.sealed_length}")
        child = CacheStore.__new__(CacheStore)
        child._attach(self.config, self._pool, length,
                      ForkParent(length, self.parent))
        child.token_ids = self.token_ids[:length]
        child.provenance = self.provenance[:length]
        full, partial = divmod(length, BLOCK_ROWS)
        pool = self._pool
        with pool.lock:
            pool.refs[self._table.ids[:full]] += 1
            child._table.share(self._table, full)
            if partial:
                source = self._table.ids[full]
                child._table.add(pool.allocate(1))
                fresh = child._table.ids[full]
                for arrays in (pool.k, pool.v):
                    for a in arrays:
                        a[fresh, :partial] = a[source, :partial]
        child.rows_copied_at_fork = partial
        return child

    def incremental_bytes(self) -> int:
        """Bytes owned exclusively by this cache (aliased prefix excluded)."""
        return self.owned_positions * row_bytes(self.config)

    @property
    def pool(self) -> BlockPool:
        return self._pool

    def stats(self) -> CacheStats:
        pool = self._pool
        with pool.lock:
            return CacheStats(
                owned_positions=self.owned_positions,
                aliased_positions=self.aliased_positions,
                blocks=self._table.n,
                rows_copied_at_fork=self.rows_copied_at_fork,
                pool_live_blocks=pool.live_blocks,
                pool_free_blocks=pool.free_blocks,
                read_buffer_bytes=sum(b.nbytes for b in self._k_buf + self._v_buf
                                      if b is not None))

    def integrity_check(self) -> None:
        """All layers must cover the same positions; provenance must match."""
        expect = self._layer_len[0]
        for layer, got in enumerate(self._layer_len):
            if got != expect:
                raise ContractViolationError(
                    f"layer {layer} holds {got} positions, layer 0 holds {expect}")
        if len(self.provenance) != expect:
            raise ContractViolationError(
                f"provenance list length {len(self.provenance)} != cache length {expect}")
        if len(self.token_ids) != expect:
            raise ContractViolationError(
                f"token_ids length {len(self.token_ids)} != cache length {expect}")


def first_row_difference(a: CacheStore, b: CacheStore, upto: int) -> Optional[str]:
    """Where the K/V rows [0, upto) of two caches of one dtype first differ
    in any bit: the matrix, layer and position; None when they are equal."""
    for layer in range(a.config.n_layers):
        for name, matrix in (("K", "k_matrix"), ("V", "v_matrix")):
            x, y = getattr(a, matrix)(layer, upto), getattr(b, matrix)(layer, upto)
            differs = (x.view(np.uint8) != y.view(np.uint8)).any(axis=1)
            if differs.any():
                return f"{name} rows differ at layer {layer}, position {differs.argmax()}"
    return None
