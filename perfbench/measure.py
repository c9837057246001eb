"""Operation accounting and summary statistics for the benchmark.

Every call into the engine or trainer goes through ``Recorder.attempt``: it
counts the operation, times it with the benchmark's own clock, and catches
the exception of an operation that fails, counting it by exception type
instead of stopping the run. A failed operation still leaves one sample in
each latency stream it would have fed, valued so that it ranks slower than
any success (``inf`` for times, ``0`` for rates).

A sample may name its stratum (a context length, say). A statistic over a
stream with several strata is the geometric mean of the statistic of each
stratum, so every stratum moves the reported figure by its own relative
change, whatever its share of the samples.
"""

from __future__ import annotations

import hashlib
import math
import statistics
import time
import traceback
from collections import Counter, defaultdict

# Sample streams where a larger value is better; a failure ranks as 0 there.
HIGHER_IS_BETTER = frozenset({"prefill_tok_s"})

TAIL_MIN_BEYOND = 10


def worst(stream: str) -> float:
    return 0.0 if stream in HIGHER_IS_BETTER else math.inf


class Recorder:
    """Counts operations, failures and output checks; collects samples."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = Counter()
        self.tracebacks = {}  # first traceback of each exception type
        self.samples = defaultdict(list)
        self.strata = defaultdict(list)  # stratum of each sample
        self.checks = Counter()
        self.check_failures = Counter()
        self.tokens = hashlib.sha256()

    def attempt(self, fn, *args, on_fail=(), fail_count=1, stratum=None, **kwargs):
        """Run one operation. Returns ``(result, elapsed_ns)``; ``result`` is
        None when the operation raised. ``on_fail`` names the sample streams
        that receive ``fail_count`` worst-ranked samples, in ``stratum``, on
        failure."""
        self.attempted += 1
        started = time.perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:  # a failed operation is counted, not fatal
            elapsed = time.perf_counter_ns() - started
            self.failed += 1
            self.failures[type(exc).__name__] += 1
            self.tracebacks.setdefault(type(exc).__name__, traceback.format_exc())
            for stream in on_fail:
                for _ in range(fail_count):
                    self.add(stream, worst(stream), stratum)
            return None, elapsed
        return result, time.perf_counter_ns() - started

    def absorb(self, other: "Recorder") -> None:
        """Add another recorder's operation and check counts, not its samples."""
        self.attempted += other.attempted
        self.failed += other.failed
        self.failures.update(other.failures)
        for name, text in other.tracebacks.items():
            self.tracebacks.setdefault(name, text)
        self.checks.update(other.checks)
        self.check_failures.update(other.check_failures)

    def add(self, stream: str, value: float, stratum=None) -> None:
        self.samples[stream].append(value)
        self.strata[stream].append(stratum)

    def statistic(self, stream: str, stat) -> float:
        """``stat`` of the stream's samples; with several strata, the
        geometric mean of ``stat`` over each stratum's samples."""
        groups = defaultdict(list)
        for value, stratum in zip(self.samples[stream], self.strata[stream]):
            groups[stratum].append(value)
        return geometric_mean([stat(values) for values in groups.values()])

    def check(self, name: str, ok: bool) -> None:
        self.checks[name] += 1
        if not ok:
            self.check_failures[name] += 1

    def add_tokens(self, tokens) -> None:
        self.tokens.update(",".join(str(int(t)) for t in tokens).encode())
        self.tokens.update(b";")

    @property
    def digest(self) -> str:
        return self.tokens.hexdigest()


def tail(values):
    """``(value, percentile)`` at the highest percentile that still has at
    least ten samples beyond it. With fewer than 21 samples no such
    percentile lies above the median, so the median is returned as p50."""
    ordered = sorted(values)
    n = len(ordered)
    k = n - TAIL_MIN_BEYOND - 1
    if k < n // 2:
        return statistics.median(ordered), 50.0
    return ordered[k], 100.0 * (k + 1) / n


def geometric_mean(values):
    """Geometric mean that keeps a failure's ``0`` or ``inf`` visible."""
    if len(values) == 1:
        return values[0]
    if 0.0 in values:
        return 0.0
    if math.inf in values:
        return math.inf
    return math.exp(sum(math.log(v) for v in values) / len(values))
