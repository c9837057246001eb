"""Span tracing from outside the program, and the per-layer metrics.

Wrappers are installed on the public functions of ``engine``, ``model``,
``cache``, ``adapters``, ``costs`` and ``trainer`` at the module or class
where the caller looks each name up, and removed afterwards. Nothing under
``src/`` knows about them. The trainer's forward, backward and optimizer
steps have no public name, so their private names are wrapped; a hook whose
name no longer exists is skipped and listed as missing in the report.

Each span is (name, start, end, parent, request): ``parent`` is the index of
the enclosing span and ``request`` is shared by every span under one
outermost call. Spans are kept in flat arrays in memory and written out
when the run ends. A layer's self time is its spans' durations minus the
durations of their direct children.
"""

from __future__ import annotations

import contextlib
import time
from array import array
from collections import Counter

import numpy as np

# Span names whose self time makes up each per-layer time metric.
SELF_TIME_METRICS = {
    "model.qkv_ms": ("model.project_row",),
    "model.forward_self_ms": ("model.forward_position", "model.forward_segment"),
    "model.norm_ms": ("model.rms_norm_row",),
    "model.rope_ms": ("model.rope",),
    "model.gelu_ms": ("model.gelu",),
    "model.attention_ms": ("model.attend_single",),
    "cache.read_ms": ("cache.read",),
    "cache.append_ms": ("cache.append_rows",),
    "cache.fork_ms": ("cache.fork_shared",),
    "adapters.delta_ms": ("adapters.delta_apply",),
    "adapters.find_invocation_ms": ("adapters.find_invocation",),
    "costs.ledger_ms": ("costs.ledger",),
    "engine.self_ms": ("engine.generate", "engine.fanout",
                       "engine.invoke_intrinsic", "engine.lora_invoke",
                       "engine.resume_base", "engine.prefill"),
    "trainer.forward_ms": ("trainer.forward",),
    "trainer.backward_ms": ("trainer.loss", "trainer.backward"),
    "trainer.optimizer_ms": ("trainer.optimizer",),
}

# Span names whose call count makes up each per-layer count metric.
CALL_COUNT_METRICS = {
    "model.attention_calls": "model.attend_single",
    "cache.read_calls": "cache.read",
    "cache.forks": "cache.fork_shared",
    "adapters.delta_calls": "adapters.delta_apply",
    "costs.ledger_calls": "costs.ledger",
    "engine.requests": "engine.generate",
    "trainer.examples": "trainer.forward",
}

LEDGER_METHODS = ("add_matmul", "add_attention", "add_softmax", "copy", "merge")


class Tracer:
    """Records nested spans into flat arrays; one thread only."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("H")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.request = array("i")
        self._stack = []
        self._requests = 0
        self.counters = Counter()
        self.missing = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, after=None):
        """``fn`` wrapped in a span; ``after(args, result)`` runs on return."""
        nid = self.name_id(name)
        stack = self._stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            idx = len(self.start)
            if stack:
                parent = stack[-1]
                request = self.request[parent]
            else:
                parent = -1
                self._requests += 1
                request = self._requests
            self.name.append(nid)
            self.parent.append(parent)
            self.request.append(request)
            self.end.append(0)
            stack.append(idx)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        return traced

    def arrays(self):
        return (np.frombuffer(self.name, dtype=np.uint16).astype(np.int64),
                np.frombuffer(self.start, dtype=np.int64),
                np.frombuffer(self.end, dtype=np.int64),
                np.frombuffer(self.parent, dtype=np.int32).astype(np.int64),
                np.frombuffer(self.request, dtype=np.int32))

    def save(self, path) -> None:
        name, start, end, parent, request = self.arrays()
        np.savez(path, names=np.array(self.names), name=name.astype(np.uint16),
                 start=start, end=end, parent=parent.astype(np.int32),
                 request=request)


def self_times(name, start, end, parent, n_names: int):
    """Per-name (self time in ns, call count) over a span forest.

    A span's self time is its duration minus the durations of its direct
    children; children lie inside their parent and never overlap, because
    spans come from one thread's call stack.
    """
    duration = (end - start).astype(np.float64)
    nested = parent >= 0
    children = np.bincount(parent[nested], weights=duration[nested],
                           minlength=len(duration))
    own = duration - children
    return (np.bincount(name, weights=own, minlength=n_names),
            np.bincount(name, minlength=n_names))


class _CountingNumpy:
    """Stands in for ``numpy`` inside the cache module and adds the size of
    every concatenated result to a counter."""

    def __init__(self, numpy_module, counters):
        self._np = numpy_module
        self._counters = counters

    def __getattr__(self, attr):
        return getattr(self._np, attr)

    def concatenate(self, *args, **kwargs):
        out = self._np.concatenate(*args, **kwargs)
        self._counters["cache.read_bytes_copied"] += out.nbytes
        return out


def _array_bytes(obj) -> int:
    """Bytes held in the ndarray attributes (or lists of them) of ``obj``."""
    total = 0
    for value in vars(obj).values():
        if isinstance(value, np.ndarray):
            total += value.nbytes
        elif isinstance(value, (list, tuple)) and value \
                and isinstance(value[0], np.ndarray):
            total += sum(a.nbytes for a in value)
    return total


def _chain_depth(cache) -> int:
    depth = 0
    while getattr(cache, "parent", None) is not None:
        depth += 1
        cache = cache.parent
    return depth


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Install every hook for the duration of the block, then restore."""
    import alora
    from alora import cache, costs, engine, model, trainer

    counters = tracer.counters
    saved = []

    def patch(owner, attr, replacement):
        saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def hook(owner, attr, span, after=None):
        if attr not in vars(owner):
            tracer.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        patch(owner, attr, tracer.wrap(span, getattr(owner, attr), after))

    def after_generate(_args, result):
        cost = result.cost
        counters["model.matmul_flops"] += cost.matmul_flops
        counters["model.attention_flops"] += cost.attention_score_flops
        counters["model.softmax_ops"] += cost.softmax_ops
        counters["engine.rows_reused"] += cost.rows_reused
        counters["engine.prompt_rows"] += result.cache.length - len(result.new_tokens)
        counters["cache.bytes_used"] += result.cache.incremental_bytes()

    def after_fork(_args, child):
        counters["cache.chain_depth_max"] = max(
            counters["cache.chain_depth_max"], _chain_depth(child))

    Engine, CacheStore, CostLedger = engine.Engine, cache.CacheStore, costs.CostLedger
    try:
        hook(Engine, "generate", "engine.generate", after_generate)
        for method in ("fanout", "invoke_intrinsic", "lora_invoke",
                       "resume_base", "prefill"):
            hook(Engine, method, f"engine.{method}")
        hook(alora, "train", "trainer.train")
        # model functions, where engine and model look them up
        for module in (engine, model):
            hook(module, "forward_segment", "model.forward_segment")
            hook(module, "forward_position", "model.forward_position")
        hook(engine, "find_invocation", "adapters.find_invocation")
        hook(model, "rms_norm_row", "model.rms_norm_row")
        hook(model, "project_row", "model.project_row")
        hook(model, "rope_rotate_heads", "model.rope")
        hook(model, "attend_single", "model.attend_single")
        hook(model, "gelu", "model.gelu")
        hook(model, "delta_apply", "adapters.delta_apply")
        # cache
        hook(CacheStore, "append_rows", "cache.append_rows")
        hook(CacheStore, "fork_shared", "cache.fork_shared", after_fork)
        if "__init__" in vars(CacheStore):
            init = CacheStore.__init__

            def counted_init(self, *args, **kwargs):
                init(self, *args, **kwargs)
                counters["cache.bytes_reserved"] += _array_bytes(self)

            patch(CacheStore, "__init__", counted_init)
        if "np" in vars(cache):
            patch(cache, "np", _CountingNumpy(cache.np, counters))
        _hook_reads(tracer, CacheStore, patch)
        for method in LEDGER_METHODS:
            hook(CostLedger, method, "costs.ledger")
        # trainer internals (no public names exist for these steps)
        hook(trainer, "_forward_tape", "trainer.forward")
        hook(trainer, "_loss_and_grad_logits", "trainer.loss")
        hook(trainer, "_backward", "trainer.backward")
        if hasattr(trainer, "_Adam"):
            hook(trainer._Adam, "step", "trainer.optimizer")
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def _hook_reads(tracer, CacheStore, patch):
    """One span per outer ``k_matrix``/``v_matrix`` read.

    A forked cache reads its parent through the same methods, one level per
    fork. While an outer read runs, the unwrapped methods are put back, so
    the parent chain adds no wrapper frame per level and a traced chat meets
    Python's recursion limit within a few turns of an untraced one.
    """
    names = ("k_matrix", "v_matrix")
    if not all(m in vars(CacheStore) for m in names):
        tracer.missing.append("CacheStore.k_matrix/v_matrix")
        return
    plain = {m: CacheStore.__dict__[m] for m in names}
    wrapped = {}

    def outer(method):
        def read(self, *args, **kwargs):
            for m in names:
                setattr(CacheStore, m, plain[m])
            try:
                return plain[method](self, *args, **kwargs)
            finally:
                for m in names:
                    setattr(CacheStore, m, wrapped[m])
        return tracer.wrap("cache.read", read)

    for m in names:
        wrapped[m] = outer(m)
    for m in names:
        patch(CacheStore, m, wrapped[m])


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer metrics from the recorded spans and counters."""
    name, start, end, parent, _ = tracer.arrays()
    own_ns, calls = self_times(name, start, end, parent, len(tracer.names))
    ids = {n: i for i, n in enumerate(tracer.names)}

    def total_ms(span_names):
        return sum(float(own_ns[ids[n]]) for n in span_names if n in ids) / 1e6

    def count(span_name):
        return int(calls[ids[span_name]]) if span_name in ids else 0

    out = {metric: total_ms(spans) for metric, spans in SELF_TIME_METRICS.items()}
    out.update({metric: count(span) for metric, span in CALL_COUNT_METRICS.items()})
    position, segment = ids.get("model.forward_position"), ids.get("model.forward_segment")
    prefill_rows = 0
    if position is not None and segment is not None:
        rows = (name == position) & (parent >= 0)
        prefill_rows = int(np.count_nonzero(name[parent[rows]] == segment))
    out["model.prefill_rows"] = prefill_rows
    c = tracer.counters
    for key in ("cache.read_bytes_copied", "cache.chain_depth_max",
                "cache.bytes_reserved", "cache.bytes_used",
                "model.matmul_flops", "model.attention_flops", "model.softmax_ops"):
        out[key] = int(c[key])
    out["cache.reserved_over_used"] = (c["cache.bytes_reserved"] / c["cache.bytes_used"]
                                       if c["cache.bytes_used"] else 0.0)
    prompt_rows = c["engine.prompt_rows"]
    out["engine.rows_reused_share"] = (c["engine.rows_reused"] / prompt_rows
                                       if prompt_rows else 0.0)
    return out
