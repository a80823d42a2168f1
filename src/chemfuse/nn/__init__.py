"""Tensor math, autodiff, layers, optimizer, and checkpointing."""

from .checkpoint import CheckpointCorrupt, load_checkpoint, save_checkpoint
from .malloc import raise_malloc_thresholds
from .layers import (
    AttentionParams,
    GcnLayerParams,
    affine,
    feed_forward,
    gcn_layer,
    multi_head_attention,
)
from .optim import AdamState, adam_step
from .tensor import (
    NonFiniteInput,
    NotScalarLoss,
    Parameter,
    ShapeMismatch,
    Tensor,
    add,
    add_layer_norm,
    backward,
    concat_cols,
    concat_rows,
    constant,
    gather_rows,
    gelu,
    layer_norm_rows,
    log_softmax_rows,
    matmul,
    mean_all,
    mean_rows,
    mul,
    no_grad,
    normalize_rows,
    pick,
    relu,
    scale,
    segment_mean,
    softmax_rows,
    softplus,
    sub,
    sum_all,
    transpose,
)

raise_malloc_thresholds()
