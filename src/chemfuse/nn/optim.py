"""Adam optimizer with decoupled weight decay and bias-corrected moments."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from .tensor import Parameter


@dataclass
class AdamState:
    """Optimizer state: per-parameter moment buffers keyed by name."""

    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    weight_decay: float = 0.0
    step: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)


def adam_step(params: Iterable[Parameter], state: AdamState) -> None:
    """One decoupled-weight-decay Adam update over ``params``, in place.

    Gradients must already be populated; a parameter whose grad is None is
    skipped. A zero gradient does not hold a parameter still: once it has
    had a non-zero gradient, its moments keep moving it, and weight decay
    moves it from the first step. A parameter's moment buffers are made at
    its first step.
    """
    state.step += 1
    t = state.step
    bc1 = 1.0 - state.beta1 ** t
    bc2 = 1.0 - state.beta2 ** t
    for p in params:
        g = p.grad
        if g is None:
            continue
        if p.name not in state.m:
            state.m[p.name], state.v[p.name] = np.zeros_like(p.data), np.zeros_like(p.data)
        m, v = state.m[p.name], state.v[p.name]
        m *= state.beta1
        m += (1.0 - state.beta1) * g
        v *= state.beta2
        v += (1.0 - state.beta2) * g * g
        update = m / bc1
        update /= np.sqrt(v / bc2) + state.eps
        if state.weight_decay:
            update += state.weight_decay * p.data
        update *= state.lr
        p.data -= update
