"""The four benchmark workloads, driven through the public ``alora`` API.

A workload is a closed loop with one client: the next call starts when the
previous one returns, because the engine is a library whose callers wait for
each reply. Work comes in rounds (a conversation, or one sweep of context
lengths). ``inputs(seed, index)`` builds round ``index`` from the workload
seed alone, and the engine receives only those generated inputs. The model
weights and adapters are fixed, so that only the traffic changes with the
seed.

Why each workload exists, and which layer it loads, is recorded in
``BENCHMARK.json`` and ``perfbench/README.md``.
"""

from __future__ import annotations

import math

import numpy as np

import alora
from alora import (Engine, GenerationRequest, ModelConfig, TrainConfig,
                   random_adapter, random_weights)
from alora.adapters import AdapterSpec
from alora.checkpoint import DEFAULT_CONFIG
from alora.costs import CostQuery, predict_first_token
from alora.tasks import INVOCATION_SEQUENCE, TASK_COPY_KEY, make_synthetic_task

from measure import Recorder

MODEL_SEED = 0
# Prompt tokens come from ids >= 8; the invocation sequences use ids below 8,
# so an invocation never occurs by accident inside a prompt.
PROMPT_LOW = 8
FANOUT_INVOCATION = (2, 3, 4, 5)

# Failure streams for one engine request.
REQUEST_STREAMS = ("ttft_ms", "itl_ms", "request_ms", "prefill_tok_s")


def _rng(seed: int, index: int, stream: int = 0):
    return np.random.default_rng(np.random.SeedSequence([seed, index, stream]))


def _tokens(rng, n: int, vocab: int):
    return [int(t) for t in rng.integers(PROMPT_LOW, vocab, size=n)]


def _record_request(rec: Recorder, result, call_ns: int, stratum=None) -> None:
    """Latency samples of one request timed by the caller's clock."""
    first = result.first_token_cost
    ttft_ns = first.wall_ns
    rec.check("ttft_within_call_clock", 0 < ttft_ns <= call_ns)
    rec.add("ttft_ms", ttft_ns / 1e6, stratum)
    rec.add("request_ms", call_ns / 1e6, stratum)
    if len(result.new_tokens) > 1:
        rec.add("itl_ms", (call_ns - ttft_ns) / 1e6 / (len(result.new_tokens) - 1), stratum)
    fresh_prompt_rows = first.rows_projected_fresh - 1
    rec.add("prefill_tok_s", fresh_prompt_rows / (ttft_ns / 1e9), stratum)
    rec.add_tokens(result.new_tokens)


def _check_prediction(rec: Recorder, result, t_cache: int, t_new: int,
                      mode: str, config) -> None:
    predicted = predict_first_token(CostQuery(
        t_cache=t_cache, t_new=t_new, n_adapters=1, mode=mode, config=config))
    first = result.first_token_cost
    rec.check("first_token_flops_equal_prediction",
              first.counted_flops == predicted.counted_flops)
    rec.check("first_token_bytes_equal_prediction",
              first.cache_bytes_incremental == predicted.cache_bytes_incremental)


class FanoutShared:
    """Evaluator traffic: one base turn, then repeated N=5 fanout groups of
    activated adapters over its sealed cache."""

    name = "fanout-shared"
    # Greedy tokens of the warm-up round must match perfbench/digests.json.
    token_digest = True
    prompt_tokens = 1024
    prompt_jitter = 8
    answer_tokens = 256
    groups = 8
    n_adapters = 5
    eval_tokens = 16

    def setup(self, seed: int):
        config = DEFAULT_CONFIG
        engine = Engine(random_weights(config, MODEL_SEED), config)
        adapters = [random_adapter(config.d_model, config.n_layers, rank=32,
                                   alpha=32.0, mode="alora",
                                   adapter_id=f"evaluator-{i}", seed=100 + i,
                                   invocation_sequence=FANOUT_INVOCATION)
                    for i in range(self.n_adapters)]
        return engine, adapters

    def inputs(self, seed: int, index: int):
        rng = _rng(seed, index)
        length = self.prompt_tokens + int(rng.integers(-self.prompt_jitter,
                                                       self.prompt_jitter + 1))
        return {"prompt": _tokens(rng, length, DEFAULT_CONFIG.vocab_size),
                "answer": self.answer_tokens, "groups": self.groups}

    def run(self, state, inputs, rec: Recorder) -> None:
        engine, adapters = state
        n = len(adapters)
        base, call_ns = rec.attempt(
            engine.generate, GenerationRequest(
                prompt_tokens=inputs["prompt"], max_new_tokens=inputs["answer"],
                min_new_tokens=inputs["answer"]),
            on_fail=("prefill_tok_s",))
        if base is None:
            return
        first = base.first_token_cost
        rec.add("prefill_tok_s", (first.rows_projected_fresh - 1) / (first.wall_ns / 1e9))
        rec.add_tokens(base.new_tokens)
        t_cache = base.cache.length
        extra = [list(FANOUT_INVOCATION)] * n
        reference = None
        for _ in range(inputs["groups"]):
            results, group_ns = rec.attempt(
                engine.fanout, base.cache, adapters, extra_tokens=extra,
                max_new_tokens=self.eval_tokens, min_new_tokens=self.eval_tokens,
                on_fail=("ttft_ms", "itl_ms", "request_ms"), fail_count=n)
            if results is None:
                rec.add("step_ms", math.inf)
                continue
            rec.add("step_ms", group_ns / 1e6)
            rec.check("fanout_within_call_clock",
                      sum(r.cost.wall_ns for r in results) <= group_ns)
            for r in results:
                ttft_ns, total_ns = r.first_token_cost.wall_ns, r.cost.wall_ns
                rec.check("ttft_within_call_clock", 0 < ttft_ns <= total_ns)
                rec.add("ttft_ms", ttft_ns / 1e6)
                rec.add("request_ms", total_ns / 1e6)
                rec.add("itl_ms", (total_ns - ttft_ns) / 1e6 / (len(r.new_tokens) - 1))
                _check_prediction(rec, r, t_cache, len(FANOUT_INVOCATION),
                                  "alora", engine.config)
            tokens = [r.new_tokens for r in results]
            rec.check("fanout_groups_repeat_tokens",
                      reference is None or tokens == reference)
            if reference is None:
                reference = tokens
                for t in tokens:
                    rec.add_tokens(t)


class ClassicReprefill:
    """Unshared contexts, each answered by one classic adapter that
    re-prefills every position."""

    name = "classic-reprefill"
    token_digest = True
    # One round runs these context lengths (the ones the roadmap names), each
    # shortened by up to 1/64. Each length is a stratum: every metric is the
    # geometric mean of its per-length figures, so a change at any one length
    # moves it, however few requests that length has (a 4096-token request
    # takes about 30 times as long as a 256-token one).
    strata = (256, 256, 1024, 1024, 4096)
    eval_tokens = 16

    def setup(self, seed: int):
        config = DEFAULT_CONFIG
        engine = Engine(random_weights(config, MODEL_SEED), config)
        adapter = random_adapter(config.d_model, config.n_layers, rank=8,
                                 alpha=32.0, mode="lora",
                                 adapter_id="classic", seed=200)
        return engine, adapter

    def inputs(self, seed: int, index: int):
        rng = _rng(seed, index)
        contexts = [_tokens(rng, stratum - int(rng.integers(0, stratum // 64 + 1)),
                            DEFAULT_CONFIG.vocab_size) for stratum in self.strata]
        return {"strata": list(self.strata), "contexts": contexts}

    def run(self, state, inputs, rec: Recorder) -> None:
        engine, adapter = state
        for stratum, context in zip(inputs["strata"], inputs["contexts"]):
            result, call_ns = rec.attempt(
                engine.lora_invoke, context + list(FANOUT_INVOCATION), adapter,
                max_new_tokens=self.eval_tokens, min_new_tokens=self.eval_tokens,
                on_fail=REQUEST_STREAMS + ("step_ms",), stratum=stratum)
            if result is None:
                continue
            rec.add("step_ms", call_ns / 1e6, stratum)
            _record_request(rec, result, call_ns, stratum)
            _check_prediction(rec, result, len(context), len(FANOUT_INVOCATION),
                              "lora", engine.config)


class DeepChat:
    """One long conversation on a small model, alternating an activated
    adapter turn and a base turn; every turn forks the previous cache."""

    name = "deep-chat"
    token_digest = True
    config = ModelConfig(n_layers=2, n_heads=2, d_model=16, d_head=8,
                         vocab_size=64, max_positions=2048)
    invocation = (2, 3)
    opening_tokens = 32
    turns = 240
    new_tokens = 2
    continuation_tokens = 2
    # Each turn is in a stratum: its kind (adapter or base) and its depth in
    # blocks of this many turns. A turn's cost grows with its depth, and a
    # base turn costs about twice an adapter turn of the same depth; as
    # strata, every depth and kind moves each metric, and the figure draws
    # on the whole run rather than on the turns near the pooled median.
    depth_block = 30

    def setup(self, seed: int):
        config = self.config
        engine = Engine(random_weights(config, MODEL_SEED), config)
        adapter = random_adapter(config.d_model, config.n_layers, rank=8,
                                 alpha=32.0, mode="alora", adapter_id="chat",
                                 seed=300, invocation_sequence=self.invocation)
        return engine, adapter

    def inputs(self, seed: int, index: int, turns: int = None):
        rng = _rng(seed, index)
        turns = self.turns if turns is None else turns
        vocab = self.config.vocab_size
        return {"opening": _tokens(rng, self.opening_tokens, vocab),
                "continuations": [_tokens(rng, self.continuation_tokens, vocab)
                                  for _ in range(turns // 2)],
                "turns": turns}

    def run(self, state, inputs, rec: Recorder) -> None:
        engine, adapter = state
        n = self.new_tokens
        # The opening prompt is counted with the base turns of the first block.
        opening = ("base", 0)
        last, call_ns = rec.attempt(
            engine.generate, GenerationRequest(
                prompt_tokens=inputs["opening"], max_new_tokens=n, min_new_tokens=n),
            on_fail=REQUEST_STREAMS + ("step_ms",), stratum=opening)
        if last is None:
            return
        _record_request(rec, last, call_ns, opening)
        rec.add("step_ms", call_ns / 1e6, opening)
        continuations = iter(inputs["continuations"])
        for turn in range(1, inputs["turns"] + 1):
            # A failed turn leaves ``last`` in place; the next turn of the
            # same kind retries from it, so the conversation keeps going.
            if turn % 2:
                call = (engine.invoke_intrinsic, last.cache, list(self.invocation), adapter)
            else:
                call = (engine.resume_base, last, next(continuations))
            stratum = ("adapter" if turn % 2 else "base", (turn - 1) // self.depth_block)
            result, call_ns = rec.attempt(
                *call, max_new_tokens=n, min_new_tokens=n,
                on_fail=REQUEST_STREAMS + ("step_ms",), stratum=stratum)
            if result is None:
                continue
            if turn % 2:
                rec.check("adapter_turn_reuses_whole_cache",
                          result.cost.rows_reused == last.cache.length)
            _record_request(rec, result, call_ns, stratum)
            rec.add("step_ms", call_ns / 1e6, stratum)
            last = result


class Train:
    """train() on the copy-key task, then greedy eval requests on held-out
    examples, each timed by the benchmark. A round is one short train() call,
    so a run holds many training-step samples."""

    name = "train"
    # Trained weights depend on the run's datasets, so no recorded digest.
    token_digest = False
    steps = 10
    eval_requests = 10
    # Copy-key targets are 2 tokens; eval requests decode more, so that each
    # inter-token sample averages several decode steps.
    eval_tokens = 16
    train_examples = 2000
    held_out_examples = 200

    def setup(self, seed: int):
        config = DEFAULT_CONFIG
        weights = random_weights(config, MODEL_SEED)
        engine = Engine(weights, config)
        train_set = make_synthetic_task(TASK_COPY_KEY, self.train_examples,
                                        seed=_seed_int(seed, 1))
        held_out = make_synthetic_task(TASK_COPY_KEY, self.held_out_examples,
                                       seed=_seed_int(seed, 2))
        template = AdapterSpec(adapter_id="copy-key", mode="alora", deltas={},
                               invocation_sequence=INVOCATION_SEQUENCE)
        return engine, weights, train_set, held_out, template

    def inputs(self, seed: int, index: int):
        rng = _rng(seed, index)
        return {"train_seed": int(rng.integers(0, 2**31)),
                "eval_indices": [int(i) for i in rng.integers(
                    0, self.held_out_examples, size=self.eval_requests)],
                "steps": self.steps}

    def run(self, state, inputs, rec: Recorder) -> None:
        engine, weights, train_set, held_out, template = state
        steps = inputs["steps"]
        config = TrainConfig(learning_rate=2e-3, steps=steps, batch_size=16,
                             rank=8, alpha=32.0, dropout_rate=0.05,
                             seed=inputs["train_seed"])
        trained, train_ns = rec.attempt(alora.train, train_set, template, weights,
                                        engine.config, config, on_fail=("step_ms",))
        if trained is None:
            return
        rec.add("step_ms", train_ns / 1e6 / steps)
        losses = [row["loss"] for row in trained.history]
        rec.check("train_loss_finite_and_falls",
                  math.isfinite(losses[-1]) and losses[-1] < losses[0])
        for i in inputs["eval_indices"]:
            example = held_out[i]
            result, call_ns = rec.attempt(
                engine.generate, GenerationRequest(
                    prompt_tokens=list(example.context_tokens + example.invocation_tokens),
                    adapter=trained.spec, max_new_tokens=self.eval_tokens,
                    min_new_tokens=self.eval_tokens),
                on_fail=REQUEST_STREAMS)
            if result is not None:
                _record_request(rec, result, call_ns)


def _seed_int(seed: int, stream: int) -> int:
    return int(np.random.SeedSequence([seed, stream]).generate_state(1)[0])


WORKLOADS = {w.name: w for w in (FanoutShared(), ClassicReprefill(), DeepChat(), Train())}
