"""Benchmark entry point.

    python3 perfbench/run.py --workload fanout-shared --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout: the engine is imported from its
``src/`` directory, never from an installed copy. With ``--trace 0`` the run
repeats whole rounds of the workload until ``--seconds`` have passed and
reports the end-to-end metrics. With ``--trace 1`` it runs round 0 once
untraced and once traced, and reports the per-layer metrics and the tracing
overhead; the spans are written to ``.perfbench/``. The last line of
standard output is the result as one JSON object. The exit code is 0 when
every output check passed, 1 when one failed, and 2 when the engine cannot
be imported.
"""

from __future__ import annotations

import argparse
import gc
import itertools
import json
import os
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

from measure import Recorder, tail

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Set-up runs at least SETUP_MIN_REPEATS times before the warm-up, then again
# after every timed round for at least SETUP_ROUND_SECONDS (once at least),
# its state discarded. The median of all of them is reported: set-ups spread
# over the whole run see the host's slow and fast stretches as the rounds do;
# one batch at the start sees a single stretch, and on deep-chat its median
# moved by 40% from run to run.
SETUP_MIN_REPEATS = 3
SETUP_ROUND_SECONDS = 0.05
# The warm-up round's inputs; digests.json holds its greedy-token digests.
WARMUP_SEED = 0
DIGESTS = HERE / "digests.json"
SPEC = ROOT / "BENCHMARK.json"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_engine():
    """Import ``alora`` from this checkout's ``src/``; None if it is absent."""
    sys.path.insert(0, str(SRC))
    try:
        import alora
    except ImportError as exc:
        print(f"perfbench: cannot import the engine from {SRC}: {exc}", file=sys.stderr)
        return None
    if SRC.resolve() not in Path(alora.__file__).resolve().parents:
        print(f"perfbench: alora imported from {alora.__file__}, not {SRC}",
              file=sys.stderr)
        return None
    return alora


def environment(seed: int) -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": blas.get("name"), "blas_version": blas.get("version"),
            "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
            "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
            "seed": seed}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def summarize(rec, setup_times, warmup_peak_rss_mb):
    s = rec.samples
    tail_percentiles = []

    def tail_value(values):
        value, percentile = tail(values)
        tail_percentiles.append(f"p{percentile:.1f}")
        return value

    metrics = {"setup_s": (median(setup_times), len(setup_times))}
    metrics["ttft_ms_p50"] = (rec.statistic("ttft_ms", median), len(s["ttft_ms"]))
    metrics["ttft_ms_tail"] = (rec.statistic("ttft_ms", tail_value), len(s["ttft_ms"]))
    for metric, stream in (("itl_ms_p50", "itl_ms"), ("request_ms_p50", "request_ms"),
                           ("step_ms_p50", "step_ms"), ("prefill_tok_s", "prefill_tok_s")):
        metrics[metric] = (rec.statistic(stream, median), len(s[stream]))
    metrics["peak_rss_mb"] = (warmup_peak_rss_mb, 1)
    return metrics, {"ttft_ms_tail": ",".join(tail_percentiles)}


def repeat_setup(workload, seed, setup_times, repeats, seconds):
    """Set the workload up at least ``repeats`` times and for at least
    ``seconds``, appending each time taken; returns the last state."""
    spent = 0.0
    for count in itertools.count(1):
        started = time.perf_counter()
        state = workload.setup(seed)
        setup_times.append(time.perf_counter() - started)
        spent += setup_times[-1]
        if count >= repeats and spent >= seconds:
            return state


def run_workload(args, workload) -> int:
    setup_times = []
    state = repeat_setup(workload, args.seed, setup_times, SETUP_MIN_REPEATS, 0)

    # Warm-up: the first round in a process runs slower (first-touch page
    # faults on fresh cache buffers, the rotary-angle cache filling): its
    # fanout groups took 12-31% longer than the next round's in three fresh
    # processes. It is a whole round on the fixed inputs of seed 0, whose
    # greedy-token digest must match the one recorded in digests.json.
    warm = Recorder()
    workload.run(state, workload.inputs(WARMUP_SEED, 0), warm)
    # Peak memory is read here, after set-up and one whole round. From the
    # second round on, glibc's heap history decides whether a cache
    # reservation lands on recycled memory, which calloc clears in full, or
    # on fresh memory: the classic workload's whole-run peak read 59 or 73 MB
    # at random, while the peak after the first round read 57 MB every time.
    warmup_peak_rss_mb = peak_rss_mb()
    rec = Recorder()
    if workload.token_digest:
        recorded = json.loads(DIGESTS.read_text()).get(workload.name)
        rec.check("warmup_token_digest", warm.digest == recorded)
    rec.absorb(warm)
    gc.collect()
    if args.trace:
        layer, overhead_ms, untraced_ms = traced_round(args, workload, state, rec)
        metrics = {k: (v, 1) for k, v in layer.items()}
        metrics["trace.overhead_ms"] = (overhead_ms, 1)
        metrics["trace.overhead_share"] = (overhead_ms / untraced_ms, 1)
        notes = {}
    else:
        deadline = time.perf_counter() + args.seconds
        index = 0
        while True:
            workload.run(state, workload.inputs(args.seed, index), rec)
            index += 1
            repeat_setup(workload, args.seed, setup_times, 1, SETUP_ROUND_SECONDS)
            gc.collect()
            if time.perf_counter() >= deadline:
                break
        metrics, notes = summarize(rec, setup_times, warmup_peak_rss_mb)
    return report(args, workload.name, rec, metrics, notes,
                  warm.digest if workload.token_digest else None)


def traced_round(args, workload, state, rec):
    """Round 0 untraced, then the same round traced: (layer metrics,
    overhead ms, untraced ms). Traced tokens must equal untraced ones."""
    from spans import Tracer, installed, layer_metrics

    inputs = workload.inputs(args.seed, 0)
    started = time.perf_counter_ns()
    workload.run(state, inputs, rec)
    untraced_ns = time.perf_counter_ns() - started
    gc.collect()
    tracer = Tracer()
    traced_rec = Recorder()
    with installed(tracer):
        started = time.perf_counter_ns()
        workload.run(state, inputs, traced_rec)
        traced_ns = time.perf_counter_ns() - started
    rec.check("traced_tokens_equal_untraced", traced_rec.digest == rec.digest)
    rec.absorb(traced_rec)
    out_dir = Path.cwd() / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    tracer.save(out_dir / f"spans-{workload.name}.npz")
    if tracer.missing:
        print(f"perfbench: hooks not found: {', '.join(tracer.missing)}")
    print(f"perfbench: {len(tracer.start)} spans written to {out_dir}")
    return layer_metrics(tracer), (traced_ns - untraced_ns) / 1e6, untraced_ns / 1e6


def report(args, name, rec, metrics, notes, warmup_digest) -> int:
    checks = {k: [rec.checks[k] - rec.check_failures[k], rec.checks[k]]
              for k in sorted(rec.checks)}
    failed_checks = sorted(rec.check_failures)
    attempted, failed = rec.attempted, rec.failed
    correct = not failed_checks and attempted > 0
    unit = units()

    print(f"perfbench {name} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print(f"{'metric':30} {'value':>14} {'unit':>7} {'samples':>8}")
    for metric, (value, n) in metrics.items():
        print(f"{metric:30} {value:14.6g} {unit[metric]:>7} {n:8d} {notes.get(metric, '')}")
    print(f"operations: attempted {attempted}, succeeded {attempted - failed}, "
          f"failed {failed}, failed_share "
          f"{failed / attempted if attempted else 0:.4f}, by type {dict(rec.failures)}")
    print("checks (passed/total): " + ", ".join(f"{k} {ok}/{total}"
                                               for k, (ok, total) in checks.items()))
    for text in rec.tracebacks.values():
        print(text, end="")
    if failed_checks:
        print(f"perfbench: FAILED output checks: {', '.join(failed_checks)}")
    print(json.dumps({"report": {"environment": environment(args.seed),
                                 "samples": {m: n for m, (_, n) in metrics.items()},
                                 "notes": notes,
                                 "warmup_token_digest": warmup_digest,
                                 "whole_run_peak_rss_mb": peak_rss_mb(),
                                 "failures_by_type": dict(rec.failures),
                                 "checks": checks}}))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {m: {"value": value, "unit": unit[m]}
                                  for m, (value, _) in metrics.items()}}))
    return 0 if correct else 1


def units() -> dict:
    """Metric name -> unit, for every metric BENCHMARK.json declares."""
    spec = json.loads(SPEC.read_text())
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def run_all(args) -> int:
    """Every workload in its own process, so each reports its own peak RSS."""
    from workloads import WORKLOADS
    worst = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        worst = max(worst, subprocess.run(cmd, check=False).returncode)
    return worst


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    for var in BLAS_THREAD_VARS:  # one client, one thread; set before numpy loads
        os.environ.setdefault(var, "1")
    if import_engine() is None:
        return 2
    from workloads import WORKLOADS
    if args.workload == "all":
        return run_all(args)
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)} or all", file=sys.stderr)
        return 2
    return run_workload(args, WORKLOADS[args.workload])


if __name__ == "__main__":
    sys.exit(main())
