"""Toy decoder-only transformer engine with activated low-rank adapters.

An activated adapter applies its low-rank deltas only from the activation
point onward, so every K/V row before that point is bitwise identical to the
base model's and the base cache can be reused directly. This package builds
that property into a small, exactly-instrumented engine: cache reuse,
per-position provenance, closed-form cost predictions that match measured
counters to the flop, and a trainer for toy adapters.
"""

from .adapters import (ActivationPoint, AdapterPolicy, AdapterSpec,
                       BASE_POLICY, LowRankDelta, MODE_ALORA, MODE_LORA,
                       build_policy, delta_apply, find_invocation,
                       load_adapter, random_adapter, save_adapter)
from .cache import CacheStore, row_bytes
from .checkpoint import (DEFAULT_CONFIG, load_checkpoint, random_weights,
                         save_checkpoint)
from .costs import CSV_HEADER, CostLedger, CostQuery, predict_first_token
from .engine import EOS_TOKEN, Engine, GenerationRequest, GenerationResult
from .errors import (AloraError, ConfigurationError, ContractViolationError,
                     FormatError, NotInvokedError, TrainingDivergedError,
                     VerificationError)
from .model import ModelConfig, ModelWeights, forward_segment, greedy_pick
from .trainer import (SftExample, TrainConfig, TrainResult, backward_adapter,
                      evaluate_exact_match, example_loss, sft_loss, train)
from .tasks import (INVOCATION_SEQUENCE, TASK_CLASSIFY_MARKER, TASK_COPY_KEY,
                    make_synthetic_task, read_dataset, write_dataset)

__version__ = "0.1.0"
