"""Command-line entry point: `alora gen-model|verify|bench|train`.

Exit codes: 0 success, 1 verification failure, 2 configuration error,
3 I/O or file-format error. Set ALORA_PRECISION=f64 to run engine commands
in double precision (byte accounting stays in f32 units). `verify --json`
prints one JSON object instead of text lines: ``checks`` (name, passed,
detail), ``failed``, ``seed`` and ``trials``; its exit codes are the same.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict

import numpy as np

from .adapters import MODE_ALORA, AdapterSpec, load_adapter, save_adapter
from .bench import BenchPlan, run_bench, rows_to_csv
from .checkpoint import (DEFAULT_CONFIG, load_checkpoint, random_weights,
                         save_checkpoint)
from .engine import Engine
from .errors import (AloraError, ConfigurationError, ContractViolationError,
                     FormatError, TrainingDivergedError, VerificationError)
from .model import ModelConfig
from .tasks import (INVOCATION_SEQUENCE, TASK_CLASSIFY_MARKER, TASK_COPY_KEY,
                    make_synthetic_task, read_dataset)
from .trainer import TrainConfig, save_metrics_csv, train
from .verify import run_verify

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_CONFIGURATION = 2
EXIT_IO = 3


def _int_list(text: str):
    return tuple(int(part) for part in text.split(",") if part)


def _load_engine(path):
    config, weights = load_checkpoint(path)
    precision = os.environ.get("ALORA_PRECISION", "f32")
    if precision not in ("f32", "f64"):
        raise ConfigurationError(
            f"ALORA_PRECISION must be f32 or f64, got {precision!r}")
    if precision == "f64":
        weights = weights.astype(np.float64)
    return Engine(weights, config)


def cmd_gen_model(args) -> int:
    config = ModelConfig(n_layers=args.n_layers, n_heads=args.n_heads,
                         d_model=args.d_model,
                         d_head=args.d_model // args.n_heads,
                         vocab_size=args.vocab_size,
                         max_positions=args.max_positions,
                         rope_theta=args.rope_theta)
    weights = random_weights(config, args.seed)
    save_checkpoint(args.out, config, weights)
    print(f"wrote checkpoint {args.out} "
          f"({config.n_layers} layers, d_model {config.d_model}, "
          f"vocab {config.vocab_size}, seed {args.seed})")
    return EXIT_OK


def cmd_verify(args) -> int:
    engine = _load_engine(args.checkpoint)
    spec = None
    if args.adapter:
        spec = load_adapter(args.adapter, d_model=engine.config.d_model)
        if spec.mode != MODE_ALORA:
            raise ConfigurationError(
                "verify --adapter expects an activated adapter")
    results = run_verify(engine, args.seed, args.trials, spec=spec)
    failed = sum(not result.passed for result in results)
    if args.json:
        print(json.dumps({"checks": [asdict(result) for result in results],
                          "failed": failed, "seed": args.seed,
                          "trials": args.trials}))
        return EXIT_VERIFICATION if failed else EXIT_OK
    for result in results:
        status = "PASS" if result.passed else "FAIL"
        print(f"[{status}] {result.name}: {result.detail}")
    if args.trials == 0:
        print("warning: trials=0 is a vacuous pass")
    if failed:
        print(f"{failed} check(s) failed")
        return EXIT_VERIFICATION
    print(f"all {len(results)} checks passed")
    return EXIT_OK


def cmd_bench(args) -> int:
    engine = _load_engine(args.checkpoint)
    plan = BenchPlan(prompt_lengths=args.prompt_lengths,
                     answer_tokens=args.answer_tokens,
                     eval_tokens=args.eval_tokens,
                     n_adapters=args.n_adapters,
                     lora_rank=args.lora_rank,
                     alora_rank=args.alora_rank,
                     repetitions=args.repetitions,
                     seed=args.seed)
    rows = run_bench(engine, plan)
    csv = rows_to_csv(rows)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(csv)
        print(f"wrote {len(rows)} rows to {args.out}")
    else:
        sys.stdout.write(csv)
    return EXIT_OK


def cmd_train(args) -> int:
    if args.eval_examples is not None and args.eval_examples < 0:
        raise ConfigurationError(
            f"--eval-examples must be non-negative, got {args.eval_examples}")
    config, weights = load_checkpoint(args.checkpoint)
    if args.dataset:
        dataset = read_dataset(args.dataset)
        holdout = max(1, len(dataset) // 10) if args.eval_examples is None \
            else args.eval_examples
        split = max(len(dataset) - holdout, 0)
        train_set, eval_set = dataset[:split], dataset[split:]
    else:
        kind = TASK_COPY_KEY if args.task == "copy-key" else TASK_CLASSIFY_MARKER
        n_eval = 200 if args.eval_examples is None else args.eval_examples
        train_set = make_synthetic_task(kind, args.train_examples, args.seed,
                                        n_distractors=args.distractors,
                                        n_values=args.values,
                                        vocab_size=config.vocab_size)
        eval_set = make_synthetic_task(kind, n_eval, args.seed + 1,
                                       n_distractors=args.distractors,
                                       n_values=args.values,
                                       vocab_size=config.vocab_size)
    template = AdapterSpec(adapter_id=args.adapter_id, mode=MODE_ALORA,
                           deltas={},
                           invocation_sequence=INVOCATION_SEQUENCE)
    train_config = TrainConfig(learning_rate=args.learning_rate,
                               steps=args.steps, batch_size=args.batch_size,
                               rank=args.rank, alpha=args.alpha,
                               dropout_rate=args.dropout, seed=args.seed,
                               precision=os.environ.get("ALORA_PRECISION", "f32"),
                               eval_every=args.eval_every)
    result = train(train_set, template, weights, config, train_config,
                   eval_dataset=eval_set)
    save_adapter(result.spec, args.out)
    if args.metrics_out:
        save_metrics_csv(args.metrics_out, result.history)
    final = result.final_exact_match
    scored = ("no examples evaluated" if final is None
              else f"final exact-match {final:.4f}")
    print(f"wrote adapter {args.out}; {scored}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="alora",
        description="Toy transformer engine with activated low-rank adapters")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen-model", help="write a random toy checkpoint")
    gen.add_argument("--out", required=True)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--n-layers", type=int, default=DEFAULT_CONFIG.n_layers)
    gen.add_argument("--n-heads", type=int, default=DEFAULT_CONFIG.n_heads)
    gen.add_argument("--d-model", type=int, default=DEFAULT_CONFIG.d_model)
    gen.add_argument("--vocab-size", type=int, default=DEFAULT_CONFIG.vocab_size)
    gen.add_argument("--max-positions", type=int,
                     default=DEFAULT_CONFIG.max_positions)
    gen.add_argument("--rope-theta", type=float, default=DEFAULT_CONFIG.rope_theta)
    gen.set_defaults(func=cmd_gen_model)

    ver = sub.add_parser("verify", help="run the invariant suite")
    ver.add_argument("--checkpoint", required=True)
    ver.add_argument("--adapter", default=None,
                     help="also run the KV check with this adapter file")
    ver.add_argument("--seed", type=int, default=0)
    ver.add_argument("--trials", type=int, default=100)
    ver.add_argument("--json", action="store_true",
                     help="print the results as one JSON object")
    ver.set_defaults(func=cmd_verify)

    ben = sub.add_parser("bench", help="run the evaluator benchmark, emit CSV")
    ben.add_argument("--checkpoint", required=True)
    ben.add_argument("--prompt-lengths", type=_int_list, default=(256, 1024, 4096))
    ben.add_argument("--answer-tokens", type=int, default=256)
    ben.add_argument("--eval-tokens", type=int, default=16)
    ben.add_argument("--n-adapters", type=_int_list, default=(1, 5))
    ben.add_argument("--lora-rank", type=int, default=8)
    ben.add_argument("--alora-rank", type=int, default=32)
    ben.add_argument("--repetitions", type=int, default=3)
    ben.add_argument("--seed", type=int, default=0)
    ben.add_argument("--out", default=None)
    ben.set_defaults(func=cmd_bench)

    tra = sub.add_parser("train", help="train a toy adapter")
    tra.add_argument("--checkpoint", required=True)
    tra.add_argument("--out", required=True)
    tra.add_argument("--metrics-out", default=None)
    tra.add_argument("--task", choices=["copy-key", "classify-marker"],
                     default="copy-key")
    tra.add_argument("--dataset", default=None,
                     help="JSON-lines dataset (overrides --task)")
    tra.add_argument("--adapter-id", default="trained")
    tra.add_argument("--rank", type=int, default=8)
    tra.add_argument("--alpha", type=float, default=32.0)
    tra.add_argument("--steps", type=int, default=2500)
    tra.add_argument("--batch-size", type=int, default=16)
    tra.add_argument("--learning-rate", type=float, default=2e-3)
    tra.add_argument("--dropout", type=float, default=0.05)
    tra.add_argument("--seed", type=int, default=0)
    tra.add_argument("--eval-every", type=int, default=500)
    tra.add_argument("--train-examples", type=int, default=2000)
    tra.add_argument("--eval-examples", type=int, default=None)
    tra.add_argument("--distractors", type=int, default=1)
    tra.add_argument("--values", type=int, default=4)
    tra.set_defaults(func=cmd_train)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (VerificationError,) as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return EXIT_VERIFICATION
    except (ConfigurationError, ContractViolationError,
            TrainingDivergedError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIGURATION
    except (FormatError, OSError) as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_IO
    except AloraError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIGURATION


if __name__ == "__main__":
    sys.exit(main())
