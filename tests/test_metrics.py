import dataclasses

import numpy as np
import pytest

from cfc.jsonl import write_json
from cfc.metrics import (
    TAU_GRID,
    EvalReport,
    accuracy_report,
    auroc,
    threshold_baseline,
    tune_threshold,
)
from cfc.stages import _report


def pairwise_auroc(scores, is_ood):
    """Brute-force oracle: count OOD/ID pairs, ties worth one half."""
    pos = [scores[n] for n in scores if is_ood[n]]
    neg = [scores[n] for n in scores if not is_ood[n]]
    total = 0.0
    for p in pos:
        for q in neg:
            if p > q:
                total += 1.0
            elif p == q:
                total += 0.5
    return total / (len(pos) * len(neg))


def random_predictions(rng, n_id, n_ood, ood_index):
    truth, preds = {}, {}
    node = 0
    for _ in range(n_id):
        truth[node] = int(rng.integers(0, ood_index))
        preds[node] = int(rng.integers(0, ood_index + 1))
        node += 1
    for _ in range(n_ood):
        truth[node] = ood_index
        preds[node] = int(rng.integers(0, ood_index + 1))
        node += 1
    return preds, truth


# ---------------------------------------------------------------- accuracy

def test_all_correct_gives_ones():
    truth = {0: 0, 1: 1, 2: 2}
    rep = accuracy_report(truth, truth, ood_class_index=2)
    assert (rep.id_accuracy, rep.ood_accuracy, rep.overall_accuracy) == (1, 1, 1)
    assert (rep.n_id_test, rep.n_ood_test) == (2, 1)


def test_overall_is_count_weighted_mean_of_parts():
    # integer-realizable accuracies on an uneven split
    truth = {i: 0 for i in range(10000)}
    truth.update({10000 + i: 1 for i in range(4322)})
    preds = {i: (0 if i < 8749 else 1) for i in range(10000)}
    preds.update({10000 + i: (1 if i < 4138 else 0) for i in range(4322)})
    rep = accuracy_report(preds, truth, ood_class_index=1)
    assert rep.id_accuracy == pytest.approx(0.8749, abs=1e-12)
    assert rep.ood_accuracy == pytest.approx(4138 / 4322, abs=1e-12)
    weighted = (rep.id_accuracy * 10000 + rep.ood_accuracy * 4322) / 14322
    assert abs(rep.overall_accuracy - weighted) <= 1e-12


def test_all_ood_predicted_id_scores_zero():
    truth = {0: 2, 1: 2, 2: 0}
    preds = {0: 0, 1: 1, 2: 0}
    rep = accuracy_report(preds, truth, ood_class_index=2)
    assert rep.ood_accuracy == 0.0
    assert rep.id_accuracy == 1.0
    assert rep.overall_accuracy == pytest.approx(1 / 3)


def test_micro_consistency_on_random_reports():
    rng = np.random.default_rng(5)
    for _ in range(200):
        preds, truth = random_predictions(rng, int(rng.integers(1, 40)),
                                          int(rng.integers(1, 40)), 3)
        rep = accuracy_report(preds, truth, ood_class_index=3)
        weighted = (rep.id_accuracy * rep.n_id_test
                    + rep.ood_accuracy * rep.n_ood_test) \
            / (rep.n_id_test + rep.n_ood_test)
        assert abs(rep.overall_accuracy - weighted) <= 1e-12


def test_per_class_accuracy_breakdown():
    truth = {0: 0, 1: 0, 2: 1, 3: 2, 4: 2}
    preds = {0: 0, 1: 1, 2: 1, 3: 2, 4: 0}
    rep = accuracy_report(preds, truth, ood_class_index=2)
    assert rep.per_class_accuracy == {"0": 0.5, "1": 1.0, "2": 0.5}


def test_accuracy_report_without_ood_nodes():
    truth = {0: 0, 1: 1}
    rep = accuracy_report(truth, truth, ood_class_index=5)
    assert rep.ood_accuracy == 0.0
    assert rep.n_ood_test == 0
    assert rep.overall_accuracy == 1.0


# ---------------------------------------------------------------- auroc

def test_auroc_perfect_separation():
    scores = {0: 0.9, 1: 0.8, 2: 0.3, 3: 0.2}
    flags = {0: True, 1: True, 2: False, 3: False}
    assert auroc(scores, flags) == 1.0


def test_auroc_all_tied_is_half():
    scores = {i: 0.4 for i in range(6)}
    flags = {i: i < 2 for i in range(6)}
    assert auroc(scores, flags) == 0.5


def test_auroc_mixed_case_matches_pair_count():
    # pairs: (0.9 beats 0.4), (0.9 beats 0.6), 0.2 loses twice -> 2/4
    scores = {0: 0.9, 1: 0.2, 2: 0.4, 3: 0.6}
    flags = {0: True, 1: True, 2: False, 3: False}
    assert auroc(scores, flags) == pytest.approx(0.5, abs=1e-12)


def test_auroc_matches_pairwise_oracle_with_ties():
    rng = np.random.default_rng(9)
    for _ in range(100):
        n = int(rng.integers(3, 40))
        flags = {i: bool(rng.integers(0, 2)) for i in range(n)}
        flags[0], flags[1] = True, False
        # coarse grid of values so ties actually occur
        scores = {i: float(rng.integers(0, 6)) / 5.0 for i in range(n)}
        assert auroc(scores, flags) == pytest.approx(
            pairwise_auroc(scores, flags), abs=1e-12)


def test_auroc_invariant_under_monotone_transform():
    rng = np.random.default_rng(2)
    scores = {i: float(rng.normal()) for i in range(30)}
    flags = {i: i % 3 == 0 for i in range(30)}
    base = auroc(scores, flags)
    assert auroc({i: np.exp(s) for i, s in scores.items()}, flags) == base
    assert auroc({i: 3.0 * s - 7.0 for i, s in scores.items()}, flags) == base


def test_auroc_flipped_labels_complement():
    rng = np.random.default_rng(4)
    scores = {i: float(i) + float(rng.random()) * 0.5 for i in range(20)}
    flags = {i: i % 2 == 0 for i in range(20)}
    flipped = {i: not v for i, v in flags.items()}
    assert auroc(scores, flags) + auroc(scores, flipped) == pytest.approx(1.0)


def test_auroc_without_a_pair_is_none():
    assert auroc({0: 0.1, 1: 0.2}, {0: True, 1: True}) is None
    assert auroc({0: 0.1, 1: 0.2}, {0: False, 1: False}) is None


def test_a_report_on_an_all_id_test_set_has_no_auroc():
    truth = {3: 0, 5: 1, 8: 1}
    rep = _report(truth, {3: 0.2, 5: 0.9, 8: 0.4}, truth, ood_index=2)
    assert rep.auroc is None
    assert (rep.id_accuracy, rep.n_id_test, rep.n_ood_test) == (1.0, 3, 0)


# ---------------------------------------------------------------- thresholding

def softmax_rows(rng, n, c):
    raw = rng.random((n, c)) + 1e-3
    return raw / raw.sum(axis=1, keepdims=True)


def test_threshold_zero_never_rejects():
    rng = np.random.default_rng(0)
    probs = softmax_rows(rng, 50, 4)
    preds = threshold_baseline(probs, 0.0)
    assert np.all(preds == np.argmax(probs, axis=1))
    assert not np.any(preds == 4)


def test_threshold_rejects_below_tau():
    probs = np.array([[0.6, 0.4], [0.75, 0.25]])
    preds = threshold_baseline(probs, 0.7)
    assert list(preds) == [2, 0]


def test_threshold_boundary_is_inclusive():
    probs = np.array([[0.7, 0.3]])
    assert threshold_baseline(probs, 0.7)[0] == 0


def test_threshold_ood_count_monotone_in_tau():
    rng = np.random.default_rng(1)
    probs = softmax_rows(rng, 200, 5)
    sizes = [int(np.sum(threshold_baseline(probs, t) == 5))
             for t in TAU_GRID]
    assert sizes == sorted(sizes)


def test_threshold_sigmoid_mode_accepts_unnormalized_rows():
    probs = np.array([[0.9, 0.8], [0.1, 0.2]])
    preds = threshold_baseline(probs, 0.5)
    assert list(preds) == [0, 2]


def test_tune_threshold_picks_best_overall():
    # two confident-correct ID rows, one low-confidence row that is truly OOD
    probs = np.array([
        [0.95, 0.05],
        [0.05, 0.95],
        [0.55, 0.45],
    ])
    truth = np.array([0, 1, 2])
    best_tau = tune_threshold(probs, truth)
    assert best_tau == 0.6          # rejects only the 0.55 row
    assert list(threshold_baseline(probs, best_tau)) == [0, 1, 2]
    assert list(threshold_baseline(probs, TAU_GRID[0])) == [0, 1, 0]


def test_tune_threshold_tie_prefers_smaller_tau():
    probs = np.array([[0.9, 0.1]])
    truth = np.array([0])
    # every tau of the grid keeps the one row: all tie at accuracy 1
    assert all(threshold_baseline(probs, t)[0] == 0 for t in TAU_GRID)
    assert tune_threshold(probs, truth) == TAU_GRID[0] == 0.1


# ---------------------------------------------------------------- report object

def test_report_validation():
    with pytest.raises(ValueError, match="outside"):
        EvalReport(1.2, 0.5, 0.5, {}, 1, 1)
    with pytest.raises(ValueError, match="no nodes"):
        EvalReport(0.0, 0.0, 0.0, {}, 0, 0)
    with pytest.raises(ValueError, match="inconsistent"):
        EvalReport(1.0, 0.0, 0.9, {}, 5, 5)
    with pytest.raises(ValueError, match="auroc"):
        EvalReport(0.5, 0.5, 0.5, {}, 1, 1, auroc=-0.1)


TWELVE_CLASS_REPORT = """\
{
  "auroc": 0.75,
  "id_accuracy": 0.5454545454545454,
  "n_id_test": 22,
  "n_ood_test": 2,
  "ood_accuracy": 0.5,
  "overall_accuracy": 0.5416666666666666,
  "per_class_accuracy": {
    "0": 1.0,
    "1": 0.5,
    "10": 0.5,
    "11": 0.5,
    "2": 0.5,
    "3": 0.5,
    "4": 0.5,
    "5": 0.5,
    "6": 0.5,
    "7": 0.5,
    "8": 0.5,
    "9": 0.5
  }
}
"""


def test_a_twelve_class_report_keeps_its_bytes(tmp_path):
    # eval.json writes each method's report as its dataclass fields; the
    # class keys are text, so "10" and "11" sort before "2"
    truth = {node: node % 12 for node in range(24)}
    preds = {node: node % 12 if node < 12 else 0 for node in range(24)}
    rep = accuracy_report(preds, truth, ood_class_index=11, auroc_value=0.75)
    path = tmp_path / "report.json"
    write_json(str(path), dataclasses.asdict(rep))
    assert path.read_text(encoding="utf-8") == TWELVE_CLASS_REPORT
