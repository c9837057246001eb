"""Synthetic SFT tasks and the JSON-lines dataset format.

Both tasks force the adapter to read pre-activation context through
attention: the answer is determined by tokens the adapter cannot re-project.

Token id conventions (ids below 8 are reserved): 0 EOS, 1 marker, 2-5
invocation pool, 6 "yes", 7 "no". Keys live in the upper half of the
vocabulary and values just above the reserved block, so key, value, and
invocation ranges never collide and an invocation sequence cannot occur
accidentally inside a context.
"""

from __future__ import annotations

import json
from typing import List, Sequence

import numpy as np

from .errors import ConfigurationError
from .trainer import SftExample

EOS_ID = 0
MARKER_ID = 1
INVOCATION_SEQUENCE = (2, 3)
YES_ID = 6
NO_ID = 7
VALUE_BASE = 8

# Context tokens of a classify-marker example.
CONTEXT_LEN = 12

TASK_COPY_KEY = "copy_key"
TASK_CLASSIFY_MARKER = "classify_marker"


def make_synthetic_task(kind: str, n_examples: int, seed: int, *,
                        n_distractors: int = 1, n_values: int = 4,
                        vocab_size: int = 256) -> List[SftExample]:
    """Reproducible dataset for one task kind under one seed."""
    rng = np.random.default_rng(seed)
    if kind == TASK_COPY_KEY:
        return [_copy_key_example(rng, n_distractors, n_values, vocab_size)
                for _ in range(n_examples)]
    if kind == TASK_CLASSIFY_MARKER:
        return [_classify_marker_example(rng, vocab_size)
                for _ in range(n_examples)]
    raise ConfigurationError(f"unknown task kind {kind!r}")


def _copy_key_example(rng, n_distractors: int, n_values: int,
                      vocab_size: int) -> SftExample:
    """A marked (key, value) pair hides among distractor pairs; the target is
    the marked pair's value."""
    key_base = vocab_size // 2
    n_keys = vocab_size - key_base
    if n_values < 1 or VALUE_BASE + n_values > key_base:
        raise ConfigurationError(f"n_values {n_values} outside usable range")
    if n_distractors + 1 > n_keys:
        raise ConfigurationError("not enough distinct keys for the distractors")
    keys = key_base + rng.choice(n_keys, size=n_distractors + 1, replace=False)
    values = VALUE_BASE + rng.integers(0, n_values, size=n_distractors + 1)
    query = int(rng.integers(0, n_distractors + 1))
    context: List[int] = []
    for i in range(n_distractors + 1):
        if i == query:
            context.append(MARKER_ID)
        context.extend([int(keys[i]), int(values[i])])
    return SftExample(context_tokens=tuple(context),
                      invocation_tokens=INVOCATION_SEQUENCE,
                      target_tokens=(int(values[query]), EOS_ID))


def _classify_marker_example(rng, vocab_size: int) -> SftExample:
    """Target is yes/no depending on whether the marker appears in context."""
    context = rng.integers(8, vocab_size, size=CONTEXT_LEN).tolist()
    present = bool(rng.random() < 0.5)
    if present:
        context[int(rng.integers(0, CONTEXT_LEN))] = MARKER_ID
    return SftExample(context_tokens=tuple(int(t) for t in context),
                      invocation_tokens=INVOCATION_SEQUENCE,
                      target_tokens=(YES_ID if present else NO_ID, EOS_ID))


# ---------------------------------------------------------------------- #
# dataset files

def write_dataset(path, examples: Sequence[SftExample]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for ex in examples:
            fh.write(json.dumps({"context": list(ex.context_tokens),
                                 "invocation": list(ex.invocation_tokens),
                                 "target": list(ex.target_tokens)}) + "\n")


def read_dataset(path) -> List[SftExample]:
    examples = []
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                row = json.loads(line)
                examples.append(SftExample(context_tokens=row["context"],
                                           invocation_tokens=row["invocation"],
                                           target_tokens=row["target"]))
            except (json.JSONDecodeError, KeyError, TypeError) as exc:
                raise ConfigurationError(
                    f"bad dataset line {line_no}: {exc}") from exc
    return examples
