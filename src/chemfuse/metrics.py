"""Evaluation metrics: ROC-AUC, RMSE/MSE, and the concordance index."""

from __future__ import annotations

import numpy as np

from .errors import InputError


class DegenerateInput(InputError):
    """Metric undefined for this input (single class, or no ordered pairs)."""


def roc_auc(scores, labels) -> float:
    """Mann-Whitney AUC with midrank tie handling; labels are 0 or 1.

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
    order = np.argsort(scores, kind="mergesort")
    ranks = np.empty(scores.size, dtype=np.float64)
    sorted_scores = scores[order]
    i = 0
    while i < scores.size:
        j = i
        while j + 1 < scores.size and sorted_scores[j + 1] == sorted_scores[i]:
            j += 1
        ranks[order[i:j + 1]] = 0.5 * (i + j) + 1.0  # midrank, 1-based
        i = j + 1
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


def concordance_index(predictions, truths) -> float:
    """Fraction of correctly ordered pairs among pairs with distinct truths.

    Prediction ties count one half.

    Raises:
        DegenerateInput: if no pair of samples has distinct truth values.
    """
    predictions = np.asarray(predictions, dtype=np.float64)
    truths = np.asarray(truths, dtype=np.float64)
    if predictions.shape != truths.shape:
        raise DegenerateInput("predictions and truths must be aligned")
    n = predictions.size
    pairs = 0
    score = 0.0
    for i in range(n):
        for j in range(i + 1, n):
            if truths[i] == truths[j]:
                continue
            pairs += 1
            hi, lo = (i, j) if truths[i] > truths[j] else (j, i)
            if predictions[hi] > predictions[lo]:
                score += 1.0
            elif predictions[hi] == predictions[lo]:
                score += 0.5
    if pairs == 0:
        raise DegenerateInput("concordance needs at least one ordered pair")
    return float(score / pairs)
