"""Model checkpoint files and deterministic random initialization."""

from __future__ import annotations

import numpy as np

from .errors import ConfigurationError
from .fileio import read_tensor_file, write_tensor_file
from .model import LAYER_ARRAYS, LayerWeights, ModelConfig, ModelWeights

CHECKPOINT_MAGIC = b"ALRE"

DEFAULT_CONFIG = ModelConfig(n_layers=4, n_heads=4, d_model=64, d_head=16,
                             vocab_size=256, max_positions=8192)


def random_weights(config: ModelConfig, seed: int) -> ModelWeights:
    """Gaussian init. Matrices writing into the residual stream use
    std 0.02/sqrt(n_layers) so activations stay bounded at any depth; the
    remaining matrices use 1/sqrt(d_model), which keeps attention scores and
    value rows at unit scale at toy widths (flat 0.02 leaves the key/value
    signal orders of magnitude below the residual stream and makes frozen
    random models untrainable for adapters). The shapes follow ``config``."""
    rng = np.random.default_rng(seed)
    std = 1.0 / np.sqrt(config.d_model)
    residual_std = 0.02 / np.sqrt(config.n_layers)
    d, v = config.d_model, config.vocab_size

    def gauss(shape, s):
        return (s * rng.standard_normal(shape)).astype(np.float32)

    layers = []
    for _ in range(config.n_layers):
        layers.append(LayerWeights(
            w_q=gauss((d, d), std),
            w_k=gauss((d, d), std),
            w_v=gauss((d, d), std),
            w_o=gauss((d, d), residual_std),
            mlp_up=gauss((d, 4 * d), std),
            mlp_down=gauss((4 * d, d), residual_std),
            norm_attn=np.ones(d, dtype=np.float32),
            norm_mlp=np.ones(d, dtype=np.float32),
        ))
    return ModelWeights(token_embedding=gauss((v, d), std), layers=layers,
                        norm_final=np.ones(d, dtype=np.float32),
                        unembedding=gauss((d, v), std))


def save_checkpoint(path, config: ModelConfig, weights: ModelWeights) -> None:
    weights.validate(config)
    write_tensor_file(path, CHECKPOINT_MAGIC, {"config": config.to_dict()},
                      weights.tensors())


def load_checkpoint(path):
    """Returns (config, weights), each tensor copied once; checked."""
    header, tensors = read_tensor_file(path, CHECKPOINT_MAGIC)
    if "config" not in header:
        raise ConfigurationError("checkpoint header missing config")
    config = ModelConfig.from_dict(header["config"])

    def take(name):
        if name not in tensors:
            raise ConfigurationError(f"checkpoint missing tensor {name!r}")
        return tensors[name]

    layers = [LayerWeights(**{name: take(f"layers.{i}.{name}") for name in LAYER_ARRAYS})
              for i in range(config.n_layers)]
    weights = ModelWeights(layers=layers, **{
        name: take(name) for name in ("token_embedding", "norm_final", "unembedding")})
    weights.validate(config)
    return config, weights
