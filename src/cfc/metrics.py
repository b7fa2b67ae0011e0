"""Accuracy and ranking metrics for open-set node classification.

Reports split accuracy three ways: over the true in-distribution nodes, over
the true OOD nodes (correct means predicting the reserved OOD class), and
micro over their union. AUROC scores how well a per-node OOD score ranks OOD
above ID, with ties counted half. threshold_baseline turns a closed-set
probability matrix into open-set predictions by rejecting low-confidence rows,
which is the standard comparison point for this kind of detector.
"""

from __future__ import annotations

import numpy as np

from .records import EvalReport

TAU_GRID = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)


def accuracy_report(predictions: dict, truth: dict, ood_class_index: int,
                    auroc_value: float | None = None) -> EvalReport:
    """Score node→class predictions against node→class truth.

    A node whose true class is ood_class_index counts as OOD and is correct
    only when predicted as ood_class_index; every other node is ID and must
    hit its exact class. predictions covers every node of truth, which is
    not empty.
    """
    correct_id = n_id = correct_ood = n_ood = 0
    per_class_hit: dict[int, int] = {}
    per_class_n: dict[int, int] = {}
    for node, true_cls in truth.items():
        hit = predictions[node] == true_cls
        per_class_n[true_cls] = per_class_n.get(true_cls, 0) + 1
        per_class_hit[true_cls] = per_class_hit.get(true_cls, 0) + int(hit)
        if true_cls == ood_class_index:
            n_ood += 1
            correct_ood += int(hit)
        else:
            n_id += 1
            correct_id += int(hit)

    return EvalReport(
        id_accuracy=correct_id / n_id if n_id else 0.0,
        ood_accuracy=correct_ood / n_ood if n_ood else 0.0,
        overall_accuracy=(correct_id + correct_ood) / len(truth),
        per_class_accuracy={str(c): per_class_hit[c] / per_class_n[c]
                            for c in sorted(per_class_n)},
        n_id_test=n_id,
        n_ood_test=n_ood,
        auroc=auroc_value,
    )


def _midranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks, tied values sharing the mean of their rank range."""
    uniq, inverse, counts = np.unique(values, return_inverse=True,
                                      return_counts=True)
    upper = np.cumsum(counts)
    lower = upper - counts + 1
    return ((lower + upper) / 2.0)[inverse]


def auroc(scores: dict, is_ood: dict) -> float | None:
    """Probability that a random OOD node outscores a random ID node.

    Mann-Whitney over all OOD/ID pairs with ties counting one half, computed
    through mid-ranks. is_ood flags the nodes of scores; with every node on
    one side there are no pairs, and the result is None.
    """
    nodes = sorted(scores)
    vals = np.array([float(scores[n]) for n in nodes])
    pos = np.array([bool(is_ood[n]) for n in nodes])
    n_pos = int(pos.sum())
    n_neg = len(nodes) - n_pos
    if n_pos == 0 or n_neg == 0:
        return None
    ranks = _midranks(vals)
    return float((ranks[pos].sum() - n_pos * (n_pos + 1) / 2.0)
                 / (n_pos * n_neg))


def threshold_baseline(probs: np.ndarray, tau: float) -> np.ndarray:
    """Open-set predictions from closed-set class probabilities.

    Row i maps to its argmax class when the max probability reaches tau and
    to the OOD index C (the column count) otherwise, so tau=0 never rejects.
    The rows are softmax or sigmoid outputs; either way entries lie in [0, 1].
    """
    preds = np.argmax(probs, axis=1)
    preds[probs.max(axis=1) < tau] = probs.shape[1]
    return preds


def tune_threshold(probs: np.ndarray, truth: np.ndarray) -> float:
    """The tau of TAU_GRID with the best overall accuracy on a validation set.

    truth holds class indices aligned with the rows of probs, with index C
    meaning OOD. Ties go to the smallest tau.
    """
    accs = [float(np.mean(threshold_baseline(probs, tau) == truth))
            for tau in TAU_GRID]
    return TAU_GRID[accs.index(max(accs))]
