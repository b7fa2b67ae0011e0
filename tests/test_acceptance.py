"""Release gate: ten checks, one printed verdict line each.

Run with `python3 -m pytest tests/test_acceptance.py -s -v` to see every
verdict as it happens. Each test computes its measurements first, prints a
single PASS/FAIL line, and only then asserts, so the printed record is
complete even when a criterion fails.

The oracles here are deliberately independent of the library: dense matrix
reimplementations, brute-force pair counting, exhaustive assignment
enumeration, and central finite differences.
"""

import json
import os
import time

import numpy as np
import pytest

import fixture_tools
from cfc.denoise import (
    PropagationConfig,
    denoise_ood,
    initial_label_matrix,
    label_propagate,
    load_synthetic,
    mix_row,
    reconstruct_rows,
)
from cfc.gcn import backward, hidden_states, load_checkpoint
from cfc.graph import Graph, canonical_edges, load_features, load_graph, \
    rw_normalize_adjacency, sym_normalize_adjacency
from cfc.labelspace import cluster_accuracy
from cfc.metrics import accuracy_report, auroc, threshold_baseline
from cfc.pipeline import (
    EVAL_FILE,
    PRELIM_CKPT,
    SYNTH_BIN_FILE,
    SYNTH_META_FILE,
    run_all,
    validate_config,
)

from test_denoise import dense_propagate
from test_gcn import fd_gradients, make_instance, max_rel_err, objective_factory
from test_labelspace import _oracle_cluster_accuracy
from test_metrics import pairwise_auroc, random_predictions


def _verdict(num: int, ok: bool, detail: str) -> None:
    print(f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    return fixture_tools.write_fixture(str(tmp_path_factory.mktemp("accept")))


@pytest.fixture(scope="module")
def full_run(corpus):
    """One timed run of all nine stages over the bundled mock corpus."""
    rc = validate_config(corpus["config"])
    start = time.perf_counter()
    executed = run_all(rc)
    elapsed = time.perf_counter() - start
    assert all(executed.values())
    return rc, elapsed


# --------------------------------------------------------------- criterion 1

def test_criterion_01_gradients_match_finite_differences():
    start = time.perf_counter()
    worst = 0.0
    for seed in range(20):
        for with_synth in (False, True):
            params, a_hat, x, y, ids, synth = make_instance(
                seed, n=8, d=5, h=4, out=3, with_synth=with_synth)
            wd = 5e-4
            gw0, gw1 = backward(params, a_hat, x, y, ids, synth, weight_decay=wd)
            f = objective_factory(a_hat, x, y, ids, synth, wd)
            fd0, fd1 = fd_gradients(f, params.w0.copy(), params.w1.copy(),
                                    step=1e-5)
            worst = max(worst, max_rel_err(gw0, fd0), max_rel_err(gw1, fd1))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-4 and elapsed < 5.0
    _verdict(1, ok, f"analytic vs central-difference gradients, 20 seeds with "
                    f"and without synthetic rows: max rel err {worst:.3e} "
                    f"(< 1e-4), {elapsed:.2f}s (< 5s)")


# --------------------------------------------------------------- criterion 2

def test_criterion_02_propagation_matches_dense_reference():
    rng = np.random.default_rng(20260816)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(5, 31))
        iso = int(rng.integers(1, 3))     # keep a node or two isolated
        edges = [(i, j) for i in range(n - iso) for j in range(i + 1, n - iso)
                 if rng.random() < 0.2]
        g = Graph(n, canonical_edges(edges), tuple(f"t{i}" for i in range(n)),
                  (None,) * n, ())
        c = int(rng.integers(2, 5))
        perm = rng.permutation(n)
        n_train = int(rng.integers(1, min(6, n)))
        n_cand = int(rng.integers(1, min(6, n - n_train + 1)))
        train = {int(perm[k]): int(rng.integers(0, c)) for k in range(n_train)}
        cands = {int(perm[n_train + k]) for k in range(n_cand)}
        init = initial_label_matrix(n, c, train, cands)

        dense = np.zeros((n, n))
        for a, b in g.edges:
            dense[a, b] = dense[b, a] = 1.0
        deg = dense.sum(axis=1, keepdims=True)
        walk = np.divide(dense, deg, out=np.zeros_like(dense), where=deg > 0)

        rw = rw_normalize_adjacency(g)
        for steps in (0, 1, 2, 5, 10):
            got = label_propagate(rw, init, PropagationConfig(steps=steps))
            want = dense_propagate(walk, init.values, init.clamp_ids, steps)
            worst = max(worst, float(np.max(np.abs(got - want))))
    ok = worst <= 1e-9
    _verdict(2, ok, f"sparse clamped propagation vs dense reference, 50 graphs"
                    f" x steps in {{0,1,2,5,10}} incl. isolated nodes: max abs"
                    f" diff {worst:.3e} (<= 1e-9)")


# --------------------------------------------------------------- criterion 3

def test_criterion_03_auroc_matches_pairwise_counting():
    rng = np.random.default_rng(3)
    worst = 0.0
    for trial in range(100):
        n = int(rng.integers(2, 51))
        flags = {}
        while len(set(flags.values())) < 2:     # need one of each
            flags = {i: bool(rng.random() < 0.5) for i in range(n)}
        if trial % 2 == 0:
            scores = {i: float(rng.integers(0, 6)) / 5.0 for i in range(n)}
        else:
            scores = {i: float(rng.random()) for i in range(n)}
        worst = max(worst, abs(auroc(scores, flags)
                               - pairwise_auroc(scores, flags)))
    ok = worst <= 1e-12
    _verdict(3, ok, f"rank-based AUROC vs brute-force pair counting, 100 sets "
                    f"(ties = 1/2): max abs diff {worst:.3e} (<= 1e-12)")


# --------------------------------------------------------------- criterion 4

def test_criterion_04_synthetic_rows_reconstruct_bit_exactly(full_run):
    rc, _ = full_run
    g = load_graph(rc.dataset.nodes, rc.dataset.edges)
    x = load_features(rc.dataset.features, g.num_nodes)
    params = load_checkpoint(rc.artifact(PRELIM_CKPT))
    hidden = hidden_states(params, sym_normalize_adjacency(g), x)
    s = load_synthetic(rc.artifact(SYNTH_BIN_FILE), rc.artifact(SYNTH_META_FILE))
    rebuilt = reconstruct_rows(s.boundary_ids, s.alphas, s.center, hidden)
    exact = np.array_equal(rebuilt, s.embeddings)

    hb, hc = np.array([2.0, 0.0]), np.array([0.0, 2.0])
    spots = (np.array_equal(mix_row(hb, hc, 1.0), hb)
             and np.array_equal(mix_row(hb, hc, 0.0), hc)
             and np.array_equal(mix_row(hb, hc, 0.5), np.array([1.0, 1.0])))
    ok = exact and spots
    _verdict(4, ok, f"all {s.count} persisted synthetic rows rebuild bit-"
                    f"exactly from (alpha, boundary id, center); alpha in "
                    f"{{0, 0.5, 1}} spot cases exact")


# --------------------------------------------------------------- criterion 5

def test_criterion_05_denoising_prunes_planted_false_positives():
    g, train_labels, candidates, planted_fp, true_ood = \
        fixture_tools.build_denoise_fixture()
    start = time.perf_counter()
    init = initial_label_matrix(g.num_nodes, 2, train_labels, candidates)
    propagated = label_propagate(rw_normalize_adjacency(g), init,
                                 PropagationConfig(steps=10))
    kept = set(denoise_ood(propagated, candidates))
    elapsed = time.perf_counter() - start
    fp_removed = sum(1 for i in planted_fp if i not in kept)
    true_kept = sum(1 for i in true_ood if i in kept)
    ok = (fp_removed >= 0.9 * len(planted_fp)
          and true_kept >= 0.9 * len(true_ood)
          and elapsed < 1.0)
    _verdict(5, ok, f"3-cluster 60-node fixture, 10 steps: removed "
                    f"{fp_removed}/{len(planted_fp)} planted false positives "
                    f"(>= 90%), kept {true_kept}/{len(true_ood)} true OOD "
                    f"(>= 90%), {elapsed * 1000:.1f}ms (< 1s)")


# --------------------------------------------------------------- criterion 6

def test_criterion_06_end_to_end_beats_tuned_threshold_baseline(full_run):
    rc, elapsed = full_run
    with open(rc.artifact(EVAL_FILE), "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    cfc = doc["methods"]["CFC"]
    tuned = doc["methods"]["GCN_softmax_tau"]
    gap = cfc["ood_accuracy"] - tuned["ood_accuracy"]
    ok = (cfc["overall_accuracy"] >= 0.90 and gap >= 0.10 and elapsed < 60.0)
    _verdict(6, ok, f"mock end-to-end: overall {cfc['overall_accuracy']:.4f} "
                    f"(>= 0.90), OOD gap over tuned softmax baseline "
                    f"{100 * gap:.1f}pp (>= 10pp), run-all {elapsed:.1f}s "
                    f"(< 60s)")


# --------------------------------------------------------------- criterion 7

def test_criterion_07_softmax_baseline_never_rejects_at_tau_zero(full_run):
    rc, _ = full_run
    with open(rc.artifact(EVAL_FILE), "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    reported = doc["methods"]["GCN_softmax"]["ood_accuracy"]

    rng = np.random.default_rng(7)
    never = True
    for _ in range(50):
        raw = rng.random((20, 4))
        probs = raw / raw.sum(axis=1, keepdims=True)
        never = never and not np.any(threshold_baseline(probs, 0.0) == 4)
    ok = reported == 0.0 and never
    _verdict(7, ok, f"tau=0 softmax baseline: reported OOD accuracy "
                    f"{reported} (exactly 0.0) and no rejection on 50 random "
                    f"probability matrices")


# --------------------------------------------------------------- criterion 8

def test_criterion_08_cluster_accuracy_matches_exhaustive_enumeration():
    rng = np.random.default_rng(8)
    worst = 0.0
    for _ in range(50):
        n_pred = int(rng.integers(1, 6))
        n_true = int(rng.integers(1, 6))
        table = rng.integers(0, 5, size=(n_pred, n_true))
        if table.sum() == 0:
            table[0, 0] = 1
        pairs, truth, node = [], {}, 0
        for p in range(n_pred):
            for t in range(n_true):
                for _ in range(int(table[p, t])):
                    pairs.append((node, f"pred {p}"))
                    truth[node] = f"true {t}"
                    node += 1
        worst = max(worst, abs(cluster_accuracy(pairs, truth)
                               - _oracle_cluster_accuracy(pairs, truth)))
    ok = worst == 0.0
    _verdict(8, ok, f"optimal-assignment cluster accuracy vs exhaustive "
                    f"injective enumeration, 50 tables up to 5x5: max abs "
                    f"diff {worst:.3e} (exact)")


# --------------------------------------------------------------- criterion 9

def test_criterion_09_reruns_are_byte_identical(corpus, tmp_path):
    blobs = []
    for name in ("first", "second"):
        rc = validate_config(corpus["config"],
                             artifacts_override=str(tmp_path / name))
        run_all(rc)
        with open(rc.artifact(EVAL_FILE), "rb") as fh:
            blobs.append(fh.read())
    ok = blobs[0] == blobs[1]
    _verdict(9, ok, f"two independent full runs over the same config produce "
                    f"byte-identical eval.json ({len(blobs[0])} bytes)")


# -------------------------------------------------------------- criterion 10

def test_criterion_10_overall_is_the_count_weighted_mean(full_run):
    rc, _ = full_run
    tol = 1e-12

    def identity_gap(id_acc, ood_acc, overall, n_id, n_ood):
        return abs(overall - (n_id * id_acc + n_ood * ood_acc) / (n_id + n_ood))

    worst = 0.0
    rng = np.random.default_rng(10)
    for _ in range(200):
        preds, truth = random_predictions(rng, int(rng.integers(1, 40)),
                                          int(rng.integers(1, 40)), 3)
        rep = accuracy_report(preds, truth, 3)
        worst = max(worst, identity_gap(rep.id_accuracy, rep.ood_accuracy,
                                        rep.overall_accuracy, rep.n_id_test,
                                        rep.n_ood_test))
    with open(rc.artifact(EVAL_FILE), "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    for rep in doc["methods"].values():
        worst = max(worst, identity_gap(rep["id_accuracy"], rep["ood_accuracy"],
                                        rep["overall_accuracy"],
                                        rep["n_id_test"], rep["n_ood_test"]))

    # reference triple (87.49, 95.74, 90.00): infer the ID/OOD test ratio the
    # overall value implies, realize it with integer counts, and check the
    # count-weighted mean lands back on the reference overall
    id_ref, ood_ref, overall_ref = 87.49, 95.74, 90.00
    n_id = 10000
    n_ood = round(n_id * (overall_ref - id_ref) / (ood_ref - overall_ref))
    preds, truth = {}, {}
    id_hits = round(id_ref / 100 * n_id)
    ood_hits = round(ood_ref / 100 * n_ood)
    for i in range(n_id):
        truth[i] = 0
        preds[i] = 0 if i < id_hits else 1
    for k in range(n_ood):
        truth[n_id + k] = 2
        preds[n_id + k] = 2 if k < ood_hits else 0
    rep = accuracy_report(preds, truth, ood_class_index=2)
    triple_dev = abs(100 * rep.overall_accuracy - overall_ref)
    worst = max(worst, identity_gap(rep.id_accuracy, rep.ood_accuracy,
                                    rep.overall_accuracy, rep.n_id_test,
                                    rep.n_ood_test))
    ok = worst <= tol and triple_dev <= 0.5
    _verdict(10, ok, f"overall = count-weighted(ID, OOD) to {worst:.3e} "
                     f"(<= 1e-12) across 200 random + 5 pipeline reports; "
                     f"reference triple realized with {n_id}/{n_ood} test "
                     f"counts lands {triple_dev:.3f} points from 90.00 "
                     f"(<= 0.5)")
