"""Pretraining objectives: masked prediction, fragment alignment, matching,
and domain-knowledge targets, plus ``total_loss``, which checks a batch's
component values and returns its ``LossReport`` with their unit-weight total.

All losses are per-position (or per-sample) means over the batch, so their
magnitudes are batch-size invariant. Each loss function returns the scalar
loss tensor plus a small dict of plain-number diagnostics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .encoder import JointEncoding, ModelConfig, ParamFactory
from .masking import MaskedSample
from .nn.layers import affine, perceptron
from .nn.tensor import (
    NonFiniteInput,
    Parameter,
    Tensor,
    add,
    concat_rows,
    constant,
    gather_rows,
    log_softmax_rows,
    matmul,
    mean_all,
    mul,
    normalize_rows,
    pick,
    scale,
    softplus,
    sub,
    transpose,
)


class NoMaskedPositions(ValueError):
    """A masked-prediction loss got a batch with nothing masked."""


class SingleFragmentBatch(ValueError):
    """Fragment alignment needs at least two fragments for negatives."""


class BatchTooSmall(ValueError):
    """Matching needs at least two molecules to derange."""


#: Temperature of the fragment alignment loss.
FLA_TAU = 0.05


class Heads:
    """The parameters of the five prediction heads over encoder outputs.

    token/context heads are affine; the matching, fingerprint, and
    functional-group heads are ``perceptron``s with a hidden layer of the
    model width.
    """

    def __init__(self, config: ModelConfig, seed: int = 1,
                 params: dict[str, Parameter] | None = None, table: dict | None = None):
        self.params: dict[str, Parameter] = params if params is not None else {}
        factory = ParamFactory(self.params, np.random.default_rng(seed), table)
        d = config.dim
        self.token_w, self.token_b = factory.linear("head_token", d, config.vocab_size)
        self.ctx_w, self.ctx_b = factory.linear("head_ctx", d, config.context_vocab_size)
        self.sgm_w1, self.sgm_b1 = factory.linear("head_sgm1", d, d)
        self.sgm_w2, self.sgm_b2 = factory.linear("head_sgm2", d, 2)
        self.fp_w1, self.fp_b1 = factory.linear("head_fp1", d, d)
        self.fp_w2, self.fp_b2 = factory.linear("head_fp2", d, config.fingerprint_width)
        self.fg_w1, self.fg_b1 = factory.linear("head_fg1", d, d)
        self.fg_w2, self.fg_b2 = factory.linear("head_fg2", d, config.n_groups)


def _nll_and_hits(logits: Tensor, targets: list[int]) -> tuple[Tensor, int]:
    log_probs = log_softmax_rows(logits)
    nll = scale(pick(log_probs, targets), -1.0)
    hits = int((np.argmax(logits.data, axis=1) == np.asarray(targets)).sum())
    return nll, hits


def _masked_prediction_loss(encoding: JointEncoding, samples: list[MaskedSample],
                            heads: Heads, what: str) -> tuple[Tensor, dict]:
    """Mean token CE plus mean context CE over the masked positions.

    ``samples[k]`` masks view k of ``encoding``. Each head reads its rows
    with one gather over the packed rows. A modality with no masked
    positions contributes zero.
    """
    token_rows, token_targets, atom_rows, atom_targets = [], [], [], []
    for k, (n, sample) in enumerate(zip(encoding.n, samples)):
        token_rows.extend(encoding.rows(k, sample.masked_token_positions))
        token_targets.extend(sample.token_targets[i] for i in sample.masked_token_positions)
        atom_rows.extend(encoding.rows(k, [n + j for j in sample.masked_atom_positions]))
        atom_targets.extend(sample.atom_context_targets[j]
                            for j in sample.masked_atom_positions)
    if not token_rows and not atom_rows:
        raise NoMaskedPositions(f"{what} batch has no masked positions")
    loss = constant(0.0)
    hits = 0
    if token_rows:
        nll, hits = _nll_and_hits(affine(gather_rows(encoding.x, token_rows),
                                         heads.token_w, heads.token_b), token_targets)
        loss = add(loss, mean_all(nll))
    if atom_rows:
        nll, _ = _nll_and_hits(affine(gather_rows(encoding.x, atom_rows),
                                      heads.ctx_w, heads.ctx_b), atom_targets)
        loss = add(loss, mean_all(nll))
    total = len(token_rows)
    return loss, {"mlm_accuracy": hits / total if total else float("nan")}


def loss_cmm_token(encoding: JointEncoding, samples: list[MaskedSample],
                   heads: Heads) -> tuple[Tensor, dict]:
    """Token-level masked prediction: mean token CE plus mean context CE.

    ``samples[k]`` masks view k of ``encoding``. A modality with no masked
    positions contributes zero; a batch with nothing masked at all raises
    NoMaskedPositions.
    """
    return _masked_prediction_loss(encoding, samples, heads, "token-level")


def loss_cmm_fragment(encoding: JointEncoding, samples: list[MaskedSample],
                      heads: Heads) -> tuple[Tensor, dict]:
    """Fragment-level masked prediction; a fragment-masked sample holds
    positions on its ``masked_modality`` side only."""
    loss, _ = _masked_prediction_loss(encoding, samples, heads, "fragment-level")
    return loss, {}


def loss_fla(f_s: Tensor, f_g: Tensor, tau: float = FLA_TAU) -> tuple[Tensor, dict]:
    """Symmetric temperature-scaled contrastive alignment over fragments.

    Row k of ``f_s``/``f_g`` is the same fragment seen from each modality;
    every other row of the opposite modality in the batch is a negative
    (including fragments of the same molecule).
    """
    total = f_s.shape[0]
    if total != f_g.shape[0]:
        raise ValueError(f"fragment count mismatch: {f_s.shape} vs {f_g.shape}")
    if total < 2:
        raise SingleFragmentBatch("need at least two fragments in the batch")
    sims = matmul(normalize_rows(f_s), transpose(normalize_rows(f_g)))
    scaled = scale(sims, 1.0 / tau)
    diag = list(range(total))
    loss_s = scale(mean_all(pick(log_softmax_rows(scaled), diag)), -1.0)
    loss_g = scale(mean_all(pick(log_softmax_rows(transpose(scaled)), diag)), -1.0)
    matched = float(np.mean(np.diag(sims.data)))
    off_diag = sims.data[~np.eye(total, dtype=bool)]
    return add(loss_s, loss_g), {
        "matched_cosine": matched,
        "mismatched_cosine": float(off_diag.mean()) if off_diag.size else float("nan"),
    }


def loss_sgm(pos_x_cls: Tensor, neg_x_cls: Tensor,
             heads: Heads) -> tuple[Tensor, dict]:
    """Binary matching loss: label 1 for the rows of true pairs, 0 for the
    rows of deranged pairs."""
    if pos_x_cls.shape[0] < 2:
        raise BatchTooSmall("matching needs at least two molecules")
    logits = perceptron(concat_rows([pos_x_cls, neg_x_cls]), heads.sgm_w1, heads.sgm_b1,
                        heads.sgm_w2, heads.sgm_b2)
    labels = [1] * pos_x_cls.shape[0] + [0] * neg_x_cls.shape[0]
    nll, hits = _nll_and_hits(logits, labels)
    return mean_all(nll), {"sgm_accuracy": hits / len(labels)}


def loss_dkl(x_cls: Tensor, fingerprints: list[np.ndarray],
             group_vectors: list[np.ndarray], heads: Heads) -> tuple[Tensor, dict]:
    """Fingerprint regression (MSE on raw outputs) plus functional-group BCE,
    one row of ``x_cls`` per molecule."""
    fp_target = constant(np.stack([np.asarray(fp, dtype=np.float64)
                                   for fp in fingerprints]))
    fg_target = np.stack([np.asarray(gv, dtype=np.float64) for gv in group_vectors])
    diff = sub(perceptron(x_cls, heads.fp_w1, heads.fp_b1, heads.fp_w2, heads.fp_b2),
               fp_target)
    mse = mean_all(mul(diff, diff))
    logits = perceptron(x_cls, heads.fg_w1, heads.fg_b1, heads.fg_w2, heads.fg_b2)
    # Stable binary cross-entropy with logits: softplus(z) - z * y.
    bce = mean_all(sub(softplus(logits), mul(logits, constant(fg_target))))
    return add(mse, bce), {}


@dataclass
class LossReport:
    """Scalar components of one batch plus their unit-weight total."""

    l_t: float
    l_f: float
    l_fla: float
    l_sgm: float
    l_dkl: float
    total: float
    mlm_accuracy: float = float("nan")
    sgm_accuracy: float = float("nan")


def total_loss(l_t: float, l_f: float, l_fla: float, l_sgm: float, l_dkl: float,
               mlm_accuracy: float = float("nan"),
               sgm_accuracy: float = float("nan")) -> LossReport:
    """The report of one batch: its five components and their unit-weight
    sum, the four objectives with CMM = token + fragment; an absent term is
    passed as 0.0.

    Raises:
        NonFiniteInput: for the first component that is NaN or infinite, or
            else if the total is.
    """
    parts = {"l_t": l_t, "l_f": l_f, "l_fla": l_fla, "l_sgm": l_sgm, "l_dkl": l_dkl}
    for name, part in parts.items():
        if not math.isfinite(part):
            raise NonFiniteInput(f"component {name} is not finite: {part}")
    total = ((l_t + l_f) + l_fla) + (l_sgm + l_dkl)
    if not math.isfinite(total):
        raise NonFiniteInput("loss is not finite")
    return LossReport(**parts, total=total, mlm_accuracy=mlm_accuracy,
                      sgm_accuracy=sgm_accuracy)
