"""Minimal dense numerical core with reverse-mode gradients."""

from .layers import (
    adaln,
    add_attention_block,
    attention_block,
    block_modulations,
    cross_entropy,
    embedding,
    layer_norm,
    linear,
    log_softmax,
    mhsa,
    silu_mlp,
)
from .params import (CheckpointError, ParameterStore, adam_step,
                     checkpoint_hash, run_steps)
from .tensor import Tensor, concat, no_grad

__all__ = [
    "CheckpointError",
    "ParameterStore",
    "Tensor",
    "adaln",
    "adam_step",
    "add_attention_block",
    "attention_block",
    "block_modulations",
    "checkpoint_hash",
    "concat",
    "cross_entropy",
    "embedding",
    "layer_norm",
    "linear",
    "log_softmax",
    "mhsa",
    "no_grad",
    "run_steps",
    "silu_mlp",
]
