"""Tests of the benchmark itself (not of the engine).

    python3 -m pytest perfbench/tests -q
"""

import json
import math
import re
import sys
from statistics import median
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import spans  # noqa: E402
from measure import Recorder, tail  # noqa: E402
from workloads import WORKLOADS, DeepChat  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_same_inputs(name):
    workload = WORKLOADS[name]
    assert workload.inputs(7, 3) == workload.inputs(7, 3)
    assert workload.inputs(7, 3) != workload.inputs(8, 3)
    assert workload.inputs(7, 3) != workload.inputs(7, 4)


def test_workloads_match_benchmark_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


def test_metric_names_are_valid_and_match_the_code():
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert all(NAME.fullmatch(n) and len(n) <= 64 for n in names)
    assert len(set(names)) == len(names)
    rec = Recorder()
    for stream in ("ttft_ms", "itl_ms", "request_ms", "step_ms", "prefill_tok_s"):
        rec.add(stream, 1.0)
    metrics, _ = run.summarize(rec, [0.5], 100.0)
    assert list(metrics) == [m["name"] for m in SPEC["end_to_end"]]
    layer = spans.layer_metrics(spans.Tracer())
    layer_names = set(layer) | {"trace.overhead_ms", "trace.overhead_share"}
    assert {m["name"] for m in SPEC["per_layer"]} == layer_names


def test_injected_failure_counts_and_ranks_slowest():
    rec = Recorder()

    def boom():
        raise RecursionError("injected")

    for value in (1.0, 2.0, 3.0):
        result, _ = rec.attempt(lambda v=value: v)
        rec.add("request_ms", result)
        rec.add("prefill_tok_s", 100.0 * result)
    result, _ = rec.attempt(boom, on_fail=("request_ms", "prefill_tok_s"))
    assert result is None
    assert (rec.attempted, rec.failed) == (4, 1)
    assert rec.failures == {"RecursionError": 1}
    assert "injected" in rec.tracebacks["RecursionError"]
    assert max(rec.samples["request_ms"]) == math.inf
    assert min(rec.samples["prefill_tok_s"]) == 0.0
    assert median(rec.samples["request_ms"]) == 2.5
    rec.attempt(boom, on_fail=("request_ms",))
    assert median(rec.samples["request_ms"]) == 3.0
    rec.attempt(boom, on_fail=("request_ms",))
    assert median(rec.samples["request_ms"]) == math.inf


def test_every_stratum_moves_the_reported_figure():
    rec = Recorder()
    for value in (1.0, 1.0, 1.0, 1.0):
        rec.add("ttft_ms", value, 256)
    rec.add("ttft_ms", 16.0, 4096)
    assert rec.statistic("ttft_ms", median) == pytest.approx(4.0)
    rec.samples["ttft_ms"][-1] = 32.0  # the one long request doubles
    assert rec.statistic("ttft_ms", median) == pytest.approx(4.0 * 2 ** 0.5)
    rec.attempt(lambda: 1 / 0, on_fail=("ttft_ms",), stratum=4096)
    rec.attempt(lambda: 1 / 0, on_fail=("ttft_ms",), stratum=4096)
    assert rec.statistic("ttft_ms", median) == math.inf


def test_unstratified_statistic_is_the_plain_statistic():
    rec = Recorder()
    for value in (3.0, 1.0, 2.0):
        rec.add("request_ms", value)
    assert rec.statistic("request_ms", median) == 2.0


def test_classic_round_holds_every_context_length():
    classic = WORKLOADS["classic-reprefill"]
    inputs = classic.inputs(7, 0)
    assert sorted(inputs["strata"]) == sorted(classic.strata)
    for stratum, context in zip(inputs["strata"], inputs["contexts"]):
        assert stratum - stratum // 64 <= len(context) <= stratum


def test_deep_chat_turns_are_strata_by_kind_and_depth():
    chat = DeepChat()
    chat.depth_block = 4
    state = chat.setup(0)
    rec = Recorder()
    chat.run(state, chat.inputs(0, 0, turns=10), rec)
    kinds = ["adapter" if turn % 2 else "base" for turn in range(1, 11)]
    blocks = [0, 0, 0, 0, 1, 1, 1, 1, 2, 2]
    assert rec.strata["ttft_ms"] == [("base", 0)] + list(zip(kinds, blocks))


def test_setup_repeats_and_keeps_the_last_state():
    class Counting:
        made = 0

        def setup(self, seed):
            self.made += 1
            return self.made

    times = []
    assert run.repeat_setup(Counting(), 0, times, 3, 0) == 3
    assert len(times) == 3
    assert run.repeat_setup(Counting(), 0, times, 1, 0) == 1
    assert len(times) == 4


def test_digests_cover_the_engine_workloads():
    assert set(json.loads((BENCH / "digests.json").read_text())) == {
        name for name, w in WORKLOADS.items() if w.token_digest}


def test_tail_is_highest_percentile_with_ten_samples_beyond():
    values = list(range(1, 101))
    assert tail(values) == (90, 90.0)
    assert tail(list(range(1, 21))) == (10.5, 50.0)  # too few: the median
    assert tail(list(range(1, 22))) == (11, 100.0 * 11 / 21)


def test_self_time_on_synthetic_span_tree():
    # root [0, 100) has children a [10, 40) and b [50, 90); a has child c [20, 30)
    names = np.array([0, 1, 2, 1])
    start = np.array([0, 10, 20, 50])
    end = np.array([100, 40, 30, 90])
    parent = np.array([-1, 0, 1, 0])
    own, calls = spans.self_times(names, start, end, parent, 3)
    assert own.tolist() == [100 - 30 - 40, (30 - 10) + 40, 10]
    assert calls.tolist() == [1, 2, 1]


def test_tracer_nests_spans_and_shares_request_ids():
    tracer = spans.Tracer()
    leaf = tracer.wrap("leaf", lambda: None)
    root = tracer.wrap("root", lambda: [leaf(), leaf()])
    root()
    root()
    name, start, end, parent, request = tracer.arrays()
    assert [tracer.names[i] for i in name] == ["root", "leaf", "leaf"] * 2
    assert parent.tolist() == [-1, 0, 0, -1, 3, 3]
    assert request.tolist() == [1, 1, 1, 2, 2, 2]
    assert (end >= start).all()


class _FailingTurns:
    """Engine stand-in that raises RecursionError on chosen turns."""

    def __init__(self, engine, failing_calls):
        self._engine = engine
        self._failing = set(failing_calls)
        self.calls = 0
        self.config = engine.config
        self.generate = engine.generate

    def _maybe_fail(self):
        self.calls += 1
        if self.calls in self._failing:
            raise RecursionError("injected")

    def invoke_intrinsic(self, *args, **kwargs):
        self._maybe_fail()
        return self._engine.invoke_intrinsic(*args, **kwargs)

    def resume_base(self, *args, **kwargs):
        self._maybe_fail()
        return self._engine.resume_base(*args, **kwargs)


def test_deep_chat_keeps_going_after_failed_turns():
    chat = DeepChat()
    engine, adapter = chat.setup(0)
    failing = _FailingTurns(engine, failing_calls={3, 4, 5})
    rec = Recorder()
    limit = sys.getrecursionlimit()
    chat.run((failing, adapter), chat.inputs(0, 0, turns=10), rec)
    assert sys.getrecursionlimit() == limit
    assert failing.calls == 10
    assert (rec.attempted, rec.failed) == (11, 3)
    assert rec.failures == {"RecursionError": 3}
    assert rec.check_failures == {}
    assert rec.samples["request_ms"].count(math.inf) == 3


def test_benchmark_never_touches_the_recursion_limit():
    for path in BENCH.glob("*.py"):
        assert "setrecursionlimit" not in path.read_text(), path


def test_hooks_install_and_restore(tmp_path):
    from alora import cache, engine, model
    before = (engine.Engine.generate, model.project_row, cache.np,
              cache.CacheStore.k_matrix, cache.CacheStore.__init__)
    tracer = spans.Tracer()
    chat = DeepChat()
    state = chat.setup(0)
    plain, traced = Recorder(), Recorder()
    chat.run(state, chat.inputs(0, 0, turns=6), plain)
    with spans.installed(tracer):
        chat.run(state, chat.inputs(0, 0, turns=6), traced)
    assert (engine.Engine.generate, model.project_row, cache.np,
            cache.CacheStore.k_matrix, cache.CacheStore.__init__) == before
    assert traced.digest == plain.digest
    assert tracer.missing == []
    layer = spans.layer_metrics(tracer)
    assert layer["engine.requests"] == 7
    assert layer["cache.forks"] == 6
    assert layer["cache.chain_depth_max"] == 6
    assert layer["cache.read_bytes_copied"] > 0
    assert 0 < layer["engine.rows_reused_share"] < 1
    tracer.save(tmp_path / "spans.npz")
    saved = np.load(tmp_path / "spans.npz")
    assert len(saved["start"]) == len(tracer.start)


def test_run_without_engine_sources_exits_nonzero(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    monkeypatch.setattr(sys, "path", list(sys.path))
    monkeypatch.delitem(sys.modules, "alora", raising=False)
    assert run.import_engine() is None
