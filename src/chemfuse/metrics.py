"""Evaluation metrics: ROC-AUC, RMSE/MSE, and the concordance index."""

from __future__ import annotations

import numpy as np

from .errors import InputError


class DegenerateInput(InputError):
    """Metric undefined for this input (single class, or no ordered pairs)."""


def roc_auc(scores, labels) -> float:
    """Mann-Whitney AUC with midrank tie handling; labels are 0 or 1 and
    scores finite.

    Raises:
        ValueError: if a label is neither 0 nor 1.
        DegenerateInput: if only one class is present.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    if scores.shape != labels.shape or scores.size == 0:
        raise DegenerateInput("scores and labels must be nonempty and aligned")
    if not np.isin(labels, (0, 1)).all():
        raise ValueError("ROC-AUC labels must be 0 or 1")
    n_pos = int((labels == 1).sum())
    n_neg = int((labels == 0).sum())
    if n_pos == 0 or n_neg == 0:
        raise DegenerateInput("ROC-AUC needs both classes present")
    _, tie, ties = np.unique(scores, return_inverse=True, return_counts=True)
    last = np.cumsum(ties)  # 1-based rank of each distinct score's last copy
    ranks = (last - (ties - 1) / 2.0)[tie]  # midrank, 1-based
    rank_sum = ranks[labels == 1].sum()
    return float((rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def mse(predictions, truths) -> float:
    predictions = np.asarray(predictions, dtype=np.float64)
    truths = np.asarray(truths, dtype=np.float64)
    if predictions.size == 0:
        raise DegenerateInput("mse of an empty sample")
    return float(np.mean((predictions - truths) ** 2))


def rmse(predictions, truths) -> float:
    return float(np.sqrt(mse(predictions, truths)))


def _signs(values: np.ndarray, pivot: float) -> np.ndarray:
    """-1, 0 or 1 as each of ``values`` is below, equal to or above ``pivot``."""
    return (values > pivot).astype(np.int64) - (values < pivot)


def concordance_index(predictions, truths) -> float:
    """Fraction of correctly ordered pairs among pairs with distinct truths.

    Prediction ties count one half. Both inputs must be finite.

    Raises:
        DegenerateInput: if no pair of samples has distinct truth values.
    """
    predictions = np.asarray(predictions, dtype=np.float64)
    truths = np.asarray(truths, dtype=np.float64)
    if predictions.shape != truths.shape:
        raise DegenerateInput("predictions and truths must be aligned")
    # Pair (i, j) scores (1 + sign(t_j - t_i) * sign(p_j - p_i)) / 2 when its
    # truths differ, so twice the score is an integer sum.
    pairs = twice_score = 0
    for i in range(predictions.size - 1):
        truth_sign = _signs(truths[i + 1:], truths[i])
        ordered = np.count_nonzero(truth_sign)
        pairs += ordered
        twice_score += ordered + int(truth_sign @ _signs(predictions[i + 1:], predictions[i]))
    if pairs == 0:
        raise DegenerateInput("concordance needs at least one ordered pair")
    return float(twice_score / 2 / pairs)
