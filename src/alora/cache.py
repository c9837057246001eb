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
a chain of parents.

Rows arrive in one of two ways. ``append_rows`` is the public entry: it
checks every argument and places the rows of one layer on every call. The
forward instead checks and places a whole run once, for all layers
(``begin_run``: every layer at the cache's length, the run past the sealed
length and within max_positions, its blocks allocated, its tokens and
producers recorded); each layer then only writes its K and V rows into the
pool and its read buffers (``write_rows``), a decode row as a 1-D vector.

Attention on exact prefixes needs contiguous keys, so a read takes one of
three forms:

- rows in the table's leading run of consecutive blocks, all of a root
  cache's, are read as a view of the pool;
- a cache being extended keeps one contiguous K and one contiguous V read
  buffer per layer, and a count of the leading rows they hold. A read that
  reaches past the sealed length, the leading run and the count copies the
  rows past the count from the pool (``_fill``), making the buffer, with a
  few spare blocks, where there is none and doubling it when outgrown; an
  append whose rows follow the count and fit writes them into the buffer as
  well as the pool, and any other leaves the buffer behind for the next
  read. Later reads are views of the buffers;
- any other read past the leading run is a one-off copy into a new array:
  two slices joined when the blocks past the run are consecutive too, as a
  fork's own blocks usually are, otherwise one gather of the blocks. A fill
  is this same copy of the rows past the count, into the buffer.

``seal()`` hands the buffers to the pool with the ids of the full blocks
whose rows they hold, and the next fork of the pool takes them when it is
made: the rows of the blocks its table starts with in common count as held,
so a fork of the same base copies only its partial block and its own rows.
Each block carries the number of the allocation that handed it out, so a
freed and reallocated block never counts as common.

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
number of threads; extending a fork is single-writer. Only the writer's
appends and its reads past the sealed length write a read buffer; other
reads view a buffer's counted rows, which never change, or copy. ``seal()``
detaches the buffers, so a sealed cache reads as before, and hands on only a
buffer that nothing else refers to: a view of it held across ``seal()``, by
the caller or by another thread reading the sealed prefix, keeps its rows,
and that buffer is dropped instead. Allocation, freeing, growth, block
writes and the handoff hold the pool's lock, so forks of one pool may be
extended in different threads.
"""

from __future__ import annotations

import sys
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


def _refs(items: list, i: int) -> int:
    """References to ``items[i]``, counted alike wherever this is called."""
    return sys.getrefcount(items[i])


# ``_refs`` of a list item that nothing else refers to: no view of it is
# alive and no caller holds it.
_UNHELD = _refs([object()], 0)


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
    # Rows copied into this cache's read buffers, summed over the layers'
    # K and V; rows that appends write into them are not counted.
    read_buffer_rows_copied: int
    # Read buffers a sealed cache handed on, kept for the next fork.
    pool_kept_buffer_bytes: int


class BlockPool:
    """Refcounted K/V blocks shared by a root cache and its forks, the
    weights their rows are made under (None when not recorded), and the
    read buffers last handed on by ``seal()``."""

    def __init__(self, config: "ModelConfig", dtype, weights=None):
        n = -(-config.max_positions // BLOCK_ROWS)
        self._layers, self._width, self.dtype = config.n_layers, config.d_model, dtype
        self.weights = weights
        self.lock = threading.RLock()
        self.refs = np.zeros(n, dtype=np.intp)
        # The number of the allocation that last handed out each block.
        self.born = np.zeros(n, dtype=np.intp)
        self.allocations = 0
        # Blocks below ``fresh`` have been handed out; ``free`` is a stack of
        # those returned since.
        self.fresh = 0
        self.free = []
        self.k, self.v = [], []
        # (block ids, their ``born``, [K buffers, V buffers]) or None.
        self.kept = None
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
            refs, born = np.zeros((2, grown), dtype=np.intp)
            refs[:n], born[:n] = self.refs, self.born
            self.refs, self.born = refs, born
            self._reserve(grown)
        ids.extend(range(start, self.fresh))
        self.allocations += 1
        for block in ids:
            self.refs[block] = 1
            self.born[block] = self.allocations
        return ids

    def release(self, table: "_Table") -> None:
        """Drop one reference to each block of ``table``."""
        with self.lock:
            ids = table.ids[:table.n]
            self.refs[ids] -= 1
            # Pushed in reverse, so the next allocation pops them in order.
            self.free.extend(ids[self.refs[ids] == 0][::-1].tolist())

    def keep(self, table: "_Table", rows: int, buffers: list) -> None:
        """Keep the per-layer K and V read buffers (None where there is
        none) that hold the first ``rows`` rows of ``table``, in place of
        any kept before."""
        with self.lock:
            ids = table.ids[:rows // BLOCK_ROWS].copy()
            self.kept = ids, self.born[ids], buffers

    def take(self, table: "_Table"):
        """The kept buffers and how many of their leading rows lie in the
        blocks ``table`` starts with, or None; nothing is kept after. Call
        under the lock."""
        kept, self.kept = self.kept, None
        if kept is None:
            return None
        ids, born, buffers = kept
        n = min(len(ids), table.n)
        mine = table.ids[:n]
        same = (mine == ids[:n]) & (self.born[mine] == born[:n])
        return buffers, (n if same.all() else int(same.argmin())) * BLOCK_ROWS

    @property
    def kept_bytes(self) -> int:
        kept = self.kept
        return 0 if kept is None else sum(
            b.nbytes for side in kept[2] for b in side if b is not None)


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

    def __init__(self, config: "ModelConfig", dtype=np.float32, weights=None):
        self._attach(config, BlockPool(config, np.dtype(dtype), weights), 0, None)
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
        self.read_buffer_rows_copied = 0
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
        """Per-layer K and V read buffers (side 0 and 1), ``None`` where
        there is none, and how many of each buffer's leading rows equal
        this cache's (0 where there is none)."""
        n = self.config.n_layers
        self._buf = ([None] * n, [None] * n)
        self._filled = ([0] * n, [0] * n)

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
        producer. Layer 0 drives the provenance list. The public entry,
        every argument checked on every call; the forward checks and places
        a run once (``begin_run``), then writes each layer (``write_rows``)."""
        if not 0 <= layer < self.config.n_layers:
            raise ContractViolationError(f"layer {layer} out of range")
        k_rows, v_rows = np.asanyarray(k_rows), np.asanyarray(v_rows)
        if k_rows.ndim < 2 or v_rows.ndim < 2:
            k_rows, v_rows = np.atleast_2d(k_rows, v_rows)
        if k_rows.shape != v_rows.shape or k_rows.shape[1] != self.config.d_model:
            raise ContractViolationError("K/V row shapes inconsistent")
        n = k_rows.shape[0]
        if len(provenance) != n:
            raise ContractViolationError(
                f"{len(provenance)} provenances for {n} rows")
        if n == 0:
            return
        self.write_rows(layer, k_rows, v_rows,
                        self._place(self._layer_len[layer], n))
        if layer == 0:
            self.provenance.extend(provenance)

    def begin_run(self, tokens, provenance) -> tuple:
        """Check and place a forward run's positions once for all layers:
        every layer must hold this cache's length, the run must start past
        the sealed length and end within max_positions. Blocks are allocated
        and the tokens and producers recorded; returns the placement that
        each layer's ``write_rows`` then takes."""
        pos = self.length
        if self._layer_len.count(pos) != len(self._layer_len):
            raise ContractViolationError(
                f"layers hold {self._layer_len} positions, not one length")
        run = self._place(pos, len(tokens))
        self.token_ids.extend(map(int, tokens))
        self.provenance.extend(provenance)
        return run

    def _place(self, pos: int, n: int) -> tuple:
        """(pos, end, pieces) for ``n`` rows from position ``pos``, their
        blocks allocated: ``pieces`` pairs the pool rows of each stretch
        with the slice of the rows it takes."""
        if pos < self.sealed_length:
            raise ContractViolationError(
                f"append into sealed region (position {pos}, "
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
        if n == 1 or end <= table.run * BLOCK_ROWS:
            # One row, or rows in the leading run: one slice.
            block, offset = divmod(pos, BLOCK_ROWS)
            at = table.ids[block] * BLOCK_ROWS + offset
            return pos, end, ((slice(at, at + n), slice(None)),)
        pieces = []
        done = 0
        while done < n:
            block, offset = divmod(pos + done, BLOCK_ROWS)
            rows = min(BLOCK_ROWS - offset, n - done)
            at = table.ids[block] * BLOCK_ROWS + offset
            pieces.append((slice(at, at + rows), slice(done, done + rows)))
            done += rows
        return pos, end, pieces

    def write_rows(self, layer: int, k_rows: np.ndarray, v_rows: np.ndarray,
                   run: tuple) -> None:
        """Write one layer's K/V rows, placed by ``begin_run``, into the
        pool, and into each of the layer's read buffers that they follow
        the count of and fit; a buffer they do not is left behind for the
        next read to fill. The rows are (n, d_model), or one row as
        (d_model,)."""
        pos, end, pieces = run
        pool = self._pool
        with pool.lock:
            k, v = pool.k_rows[layer], pool.v_rows[layer]
            for target, source in pieces:
                k[target] = k_rows[source]
                v[target] = v_rows[source]
        for buffers, filled, new in zip(self._buf, self._filled, (k_rows, v_rows)):
            buf = buffers[layer]
            if buf is not None and filled[layer] == pos and end <= len(buf):
                buf[pos:end] = new
                filled[layer] = end
        self._layer_len[layer] = end

    # ------------------------------------------------------------------ #
    # reads

    def k_matrix(self, layer: int, upto: int) -> np.ndarray:
        """Contiguous K rows for positions [0, upto). Aliased prefix included.
        A view stays valid, and its rows unchanged, while this cache lives."""
        return self._matrix(0, layer, upto)

    def v_matrix(self, layer: int, upto: int) -> np.ndarray:
        return self._matrix(1, layer, upto)

    def _matrix(self, side, layer, upto):
        """A view when the rows lie in the table's leading run of
        consecutive blocks or in the layer's buffer's counted rows; else,
        past the sealed length, a view of the buffer once ``_fill`` has
        copied the rows past its count; else a one-off copy."""
        length = self._layer_len[layer]
        if not 0 <= upto <= length:
            raise ContractViolationError(
                f"requested {upto} positions, layer {layer} holds {length}")
        table = self._table
        if upto <= table.run * BLOCK_ROWS:
            rows = (self._pool.k_rows, self._pool.v_rows)[side][layer]
            return rows[table.start:table.start + upto]
        # The count first: a buffer installed after it was read holds at
        # least that many rows.
        filled = self._filled[side][layer]
        buf = self._buf[side][layer]
        if buf is not None and upto <= filled:
            return buf[:upto]
        if upto <= self.sealed_length:
            return self._copy(side, layer, 0, upto, self._new_buffer(upto))[:upto]
        return self._fill(side, layer)[:upto]

    def _fill(self, side: int, layer: int) -> np.ndarray:
        """The layer's buffer on ``side`` once the rows past its count are
        copied in; the one place a read buffer is made or grown. A new one
        holds the rows and a few blocks more; an outgrown one is replaced
        by one twice as large, or as large as the rows, its counted rows
        copied."""
        buffers, filled = self._buf[side], self._filled[side]
        buf, lo, hi = buffers[layer], filled[layer], self._layer_len[layer]
        if buf is None:
            buf = self._new_buffer(hi + SPARE_BLOCKS * BLOCK_ROWS)
        elif hi > len(buf):
            buf, old = self._new_buffer(max(2 * len(buf), hi)), buf
            buf[:lo] = old[:lo]
            self.read_buffer_rows_copied += lo
        self._copy(side, layer, lo, hi, buf)
        buffers[layer] = buf
        filled[layer] = hi
        self.read_buffer_rows_copied += hi - lo
        return buf

    def _copy(self, side, layer, lo, hi, out):
        """``out`` once rows [lo, hi), which reach past the leading run, are
        copied into the same rows of it: the part in the run and the part
        past it joined when the blocks past the run are consecutive too,
        otherwise one gather of the blocks, whole blocks of ``out``
        written."""
        pool, table = self._pool, self._table
        if table.last == table.run:
            rows = (pool.k_rows, pool.v_rows)[side][layer]
            start, run = table.start, table.run * BLOCK_ROWS
            # The row of position p >= run.
            at = table.ids[table.run] * BLOCK_ROWS - run
            np.concatenate(
                (rows[start + min(lo, run):start + run], rows[at + max(lo, run):at + hi]),
                out=out[lo:hi])
            return out
        blocks = (pool.k, pool.v)[side][layer]
        first, n = lo // BLOCK_ROWS, -(-hi // BLOCK_ROWS)
        # The ids are in range; mode "raise" would fill ``out`` through a
        # temporary.
        blocks.take(table.ids[first:n], axis=0, mode="clip", out=out[
            first * BLOCK_ROWS:n * BLOCK_ROWS].reshape(n - first, BLOCK_ROWS, -1))
        return out

    def _new_buffer(self, rows: int) -> np.ndarray:
        """An uninitialised read buffer of at least ``rows`` rows, in whole
        blocks, never more than the table can hold."""
        blocks = min(-(-rows // BLOCK_ROWS), len(self._table.ids))
        return np.empty((blocks * BLOCK_ROWS, self.config.d_model),
                        dtype=self.dtype)

    # ------------------------------------------------------------------ #
    # sharing and accounting

    def seal(self) -> None:
        """Freeze all current positions; they become shareable via forks.
        The read buffers are detached, and each is handed to the pool
        unless something else refers to it."""
        self.sealed_length = self.length
        buffers, filled = self._buf, self._filled
        self._drop_buffers()
        handed = [list(side) for side in buffers]
        for side in buffers:
            # A reader that got a buffer before this line holds a reference.
            side[:] = [None] * len(side)
        rows = []
        for side, counts in zip(handed, filled):
            for layer, count in enumerate(counts):
                if side[layer] is not None:
                    if _refs(side, layer) > _UNHELD:
                        side[layer] = None
                    else:
                        rows.append(count)
        if rows:
            self._pool.keep(self._table, min(rows), handed)

    def fork_shared(self, length: int) -> "CacheStore":
        """New cache aliasing the first ``length`` sealed positions: it shares
        their full blocks, copies the rows of a partial last block and takes
        the read buffers the pool keeps."""
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
            kept = pool.take(child._table)
        if kept is not None:
            for buffers, filled, handed in zip(child._buf, child._filled, kept[0]):
                buffers[:] = handed
                filled[:] = [0 if b is None else kept[1] for b in handed]
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
                read_buffer_bytes=sum(b.nbytes for side in self._buf
                                      for b in side if b is not None),
                read_buffer_rows_copied=self.read_buffer_rows_copied,
                pool_kept_buffer_bytes=pool.kept_bytes)

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
