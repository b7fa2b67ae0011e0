import numpy as np
import numpy.testing as npt
import pytest

from cfc.denoise import (
    MixupConfig,
    PropagationConfig,
    denoise_ood,
    initial_label_matrix,
    label_propagate,
    load_synthetic,
    mix_row,
    mixup_augment,
    ood_center,
    save_synthetic,
    select_boundary_nodes,
)
from cfc.graph import Graph, canonical_edges, rw_normalize_adjacency
from conftest import random_graph


def path_graph():
    return Graph(3, canonical_edges([(0, 1), (1, 2)]),
                 ("a", "b", "c"), ("x", "x", "x"))


def rebuild_rows(s, hidden):
    """The rows of the synthetic set s, rebuilt from each row's provenance
    (boundary node, alpha) and s.center over the hidden states."""
    return np.array([mix_row(hidden[b], s.center, a)
                     for b, a in zip(s.boundary_ids, s.alphas)])


def dense_propagate(adj_dense, init_values, clamp, steps):
    """Independent dense reimplementation of the clamped propagation."""
    isolated = np.flatnonzero(adj_dense.sum(axis=1) == 0)
    y = init_values.copy()
    for _ in range(steps):
        y = adj_dense @ y
        y[isolated] = init_values[isolated]
        y[list(clamp)] = init_values[list(clamp)]
    return y


# ---------------------------------------------------------------- label matrix

def test_initial_matrix_layout():
    m = initial_label_matrix(4, 2, {0: 1}, {3})
    npt.assert_array_equal(m.values, [[0, 1, 0], [0, 0, 0], [0, 0, 0], [0, 0, 1]])
    assert m.clamp_ids == frozenset({0})


# ---------------------------------------------------------------- propagation

def test_propagation_hand_worked_path():
    # path 0-1-2, node 0 clamped to ID class, node 2 an OOD candidate
    g = path_graph()
    init = initial_label_matrix(3, 1, {0: 0}, {2})
    rw = rw_normalize_adjacency(g)
    one = label_propagate(rw, init, PropagationConfig(steps=1))
    npt.assert_allclose(one, [[1, 0], [0.5, 0.5], [0, 0]], atol=1e-15)
    two = label_propagate(rw, init, PropagationConfig(steps=2))
    npt.assert_allclose(two, [[1, 0], [0.5, 0], [0.5, 0.5]], atol=1e-15)


def test_propagation_zero_steps_returns_init():
    g = path_graph()
    init = initial_label_matrix(3, 1, {0: 0}, {2})
    out = label_propagate(rw_normalize_adjacency(g), init, PropagationConfig(steps=0))
    npt.assert_array_equal(out, init.values)
    assert out is not init.values


def test_propagation_matches_dense_oracle(rng):
    for trial in range(25):
        g = random_graph(rng, n=int(rng.integers(3, 25)), p=0.2)
        n = g.num_nodes
        c = 2
        train = {int(i): int(rng.integers(c)) for i in
                 rng.choice(n, size=max(1, n // 4), replace=False)}
        free = [i for i in range(n) if i not in train]
        cands = set(int(i) for i in rng.choice(free, size=max(1, len(free) // 3),
                                               replace=False)) if free else set()
        init = initial_label_matrix(n, c, train, cands)
        rw = rw_normalize_adjacency(g)
        for steps in (0, 1, 3, 7):
            got = label_propagate(rw, init, PropagationConfig(steps=steps))
            want = dense_propagate(rw.toarray(), init.values, init.clamp_ids, steps)
            npt.assert_allclose(got, want, atol=1e-12)


def test_propagation_keeps_rows_in_unit_box(rng):
    for _ in range(10):
        g = random_graph(rng, n=20, p=0.15)
        init = initial_label_matrix(20, 3, {0: 0, 1: 1}, {5, 6, 7})
        out = label_propagate(rw_normalize_adjacency(g), init, PropagationConfig(10))
        assert out.min() >= 0.0
        assert out.max() <= 1.0 + 1e-12
        sums = out.sum(axis=1)
        assert np.all(sums <= 1.0 + 1e-12)


def test_isolated_candidate_keeps_initial_mark():
    # node 2 is isolated; its row would decay to zero without the reset
    g = Graph(3, canonical_edges([(0, 1)]), ("a", "b", "c"), ("x",) * 3)
    init = initial_label_matrix(3, 1, {0: 0}, {2})
    out = label_propagate(rw_normalize_adjacency(g), init, PropagationConfig(5))
    npt.assert_array_equal(out[2], [0, 1])
    assert denoise_ood(out, [2]) == (2,)


# ---------------------------------------------------------------- denoising

def test_denoise_keeps_ood_peaked_rows_and_ties():
    prop = np.array([
        [0.7, 0.1, 0.2],   # ID-peaked, dropped
        [0.2, 0.2, 0.6],   # OOD-peaked, kept
        [0.5, 0.0, 0.5],   # tie, kept
    ])
    assert denoise_ood(prop, [0, 1, 2]) == (1, 2)


def test_denoise_false_candidate_inside_clamped_neighborhood():
    # star: center 0 is the candidate, leaves are clamped ID nodes
    g = Graph(4, canonical_edges([(0, 1), (0, 2), (0, 3)]),
              ("a", "b", "c", "d"), ("x",) * 4)
    init = initial_label_matrix(4, 1, {1: 0, 2: 0, 3: 0}, {0})
    out = label_propagate(rw_normalize_adjacency(g), init, PropagationConfig(10))
    assert denoise_ood(out, [0]) == ()


# ---------------------------------------------------------------- boundary / center

def test_select_boundary_orders_by_confidence_then_id():
    conf = {4: 0.9, 1: 0.2, 7: 0.2, 3: 0.5}
    assert select_boundary_nodes(conf, 3) == (1, 7, 3)
    assert select_boundary_nodes(conf, 99) == (1, 7, 3, 4)


def test_ood_center_is_plain_mean(rng):
    hidden = rng.standard_normal((6, 4))
    npt.assert_allclose(ood_center(hidden, [1, 3, 5]),
                        hidden[[1, 3, 5]].mean(axis=0), atol=0)


# ---------------------------------------------------------------- mixup

def test_mixup_alpha_endpoints(rng):
    hidden = rng.standard_normal((5, 3))
    center = rng.standard_normal(3)
    ids = [0, 2, 4]
    pure_boundary = mixup_augment(hidden, ids, center,
                                  MixupConfig(alpha=1.0, synth_count=6, seed=1))
    for r in range(6):
        assert np.array_equal(pure_boundary.embeddings[r],
                              hidden[pure_boundary.boundary_ids[r]])
    pure_center = mixup_augment(hidden, ids, center,
                                MixupConfig(alpha=0.0, synth_count=4, seed=1))
    for r in range(4):
        assert np.array_equal(pure_center.embeddings[r], center)


def test_mixup_rows_lie_on_segment(rng):
    hidden = rng.standard_normal((8, 5))
    center = rng.standard_normal(5)
    s = mixup_augment(hidden, range(8), center, MixupConfig(alpha=0.3, synth_count=20))
    for r in range(s.count):
        lo = np.minimum(hidden[s.boundary_ids[r]], center) - 1e-12
        hi = np.maximum(hidden[s.boundary_ids[r]], center) + 1e-12
        assert np.all(s.embeddings[r] >= lo) and np.all(s.embeddings[r] <= hi)


def test_mixup_cycles_through_all_boundary_nodes(rng):
    hidden = rng.standard_normal((4, 2))
    s = mixup_augment(hidden, [0, 1, 2], np.zeros(2),
                      MixupConfig(synth_count=7, seed=3))
    counts = {i: s.boundary_ids.count(i) for i in (0, 1, 2)}
    assert sorted(counts.values()) == [2, 2, 3]


def test_mixup_deterministic_in_seed(rng):
    hidden = rng.standard_normal((6, 3))
    center = rng.standard_normal(3)
    a = mixup_augment(hidden, range(6), center, MixupConfig(seed=9, synth_count=12))
    b = mixup_augment(hidden, range(6), center, MixupConfig(seed=9, synth_count=12))
    assert np.array_equal(a.embeddings, b.embeddings)
    assert a.boundary_ids == b.boundary_ids
    c = mixup_augment(hidden, range(6), center, MixupConfig(seed=10, synth_count=12))
    assert a.boundary_ids != c.boundary_ids


def test_synthetic_roundtrip_reconstructs_bit_exact(tmp_path, rng):
    hidden = rng.standard_normal((10, 6))
    center = ood_center(hidden, [7, 8, 9])
    s = mixup_augment(hidden, [0, 1, 2, 3], center,
                      MixupConfig(alpha=0.5, synth_count=25, seed=5))
    mpath, spath = str(tmp_path / "synth.bin"), str(tmp_path / "synth.jsonl")
    save_synthetic(s, mpath, spath)
    back = load_synthetic(mpath, spath)
    assert np.array_equal(back.embeddings, s.embeddings)
    assert back.boundary_ids == s.boundary_ids
    assert back.alphas == s.alphas
    assert np.array_equal(back.center, s.center)
    assert np.array_equal(rebuild_rows(back, hidden), back.embeddings)


def test_config_validation():
    with pytest.raises(ValueError):
        MixupConfig(alpha=1.2)
    with pytest.raises(ValueError):
        MixupConfig(synth_count=0)
    with pytest.raises(ValueError):
        PropagationConfig(steps=-1)
