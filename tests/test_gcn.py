import numpy as np
import numpy.testing as npt
import pytest
import scipy.sparse as sp

from cfc.denoise import SyntheticOODSet
from cfc.gcn import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    ForwardCache,
    GCNParams,
    TrainConfig,
    TrainingDiverged,
    backward,
    forward,
    hidden_states,
    init_params,
    loss,
    predict,
    train,
)
from cfc.graph import Graph, canonical_edges, sym_normalize_adjacency
from conftest import random_graph


def make_instance(seed, n=8, d=5, h=4, out=3, with_synth=False, synth_count=3):
    """Small random training instance for gradient checks."""
    rng = np.random.default_rng(seed)
    g = random_graph(rng, n=n, p=0.4)
    a_hat = sym_normalize_adjacency(g)
    x = rng.standard_normal((n, d))
    y = rng.integers(0, out, size=n)
    train_ids = sorted(rng.choice(n, size=max(2, n // 2), replace=False).tolist())
    synth = None
    if with_synth:
        synth = SyntheticOODSet(
            embeddings=rng.standard_normal((synth_count, h)),
            boundary_ids=tuple(int(i) for i in rng.integers(0, n, synth_count)),
            alphas=(0.5,) * synth_count,
            center=rng.standard_normal(h),
            seed=0,
        )
    params = init_params(d, h, out, seed)
    return params, a_hat, x, y, train_ids, synth


def dense_forward_oracle(params, a_dense, x, synth=None):
    """Independent dense recomputation of the forward pass."""
    h1 = np.maximum(a_dense @ x @ params.w0, 0.0)
    logits = a_dense @ h1 @ params.w1
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    z_real = e / e.sum(axis=1, keepdims=True)
    z_synth = None
    if synth is not None:
        ls = synth.embeddings @ params.w1
        es = np.exp(ls - ls.max(axis=1, keepdims=True))
        z_synth = es / es.sum(axis=1, keepdims=True)
    return h1, z_real, z_synth


def fd_gradients(objective, w0, w1, step=1e-5):
    """Central finite differences of objective(w0, w1) in every coordinate."""
    grads = []
    for arr in (w0, w1):
        g = np.zeros_like(arr)
        it = np.nditer(arr, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = arr[idx]
            arr[idx] = orig + step
            up = objective(w0, w1)
            arr[idx] = orig - step
            down = objective(w0, w1)
            arr[idx] = orig
            g[idx] = (up - down) / (2.0 * step)
        grads.append(g)
    return grads


def max_rel_err(got, want):
    scale = np.maximum(np.abs(got) + np.abs(want), 1e-6)
    return float(np.max(np.abs(got - want) / scale))


# ---------------------------------------------------------------- init / forward

def test_init_respects_glorot_bounds():
    p = init_params(20, 10, 5, seed=0)
    assert np.all(np.abs(p.w0) <= np.sqrt(6.0 / 30))
    assert np.all(np.abs(p.w1) <= np.sqrt(6.0 / 15))
    again = init_params(20, 10, 5, seed=0)
    assert np.array_equal(p.w0, again.w0)
    other = init_params(20, 10, 5, seed=1)
    assert not np.array_equal(p.w0, other.w0)


def test_forward_matches_dense_oracle():
    for seed in range(5):
        params, a_hat, x, y, ids, synth = make_instance(seed, with_synth=True)
        cache = forward(params, a_hat, x, synth)
        h1, z_real, z_synth = dense_forward_oracle(params, a_hat.toarray(), x, synth)
        npt.assert_allclose(cache.h1, h1, atol=1e-12)
        npt.assert_allclose(cache.z_real, z_real, atol=1e-12)
        npt.assert_allclose(cache.z_synth, z_synth, atol=1e-12)


def test_probability_rows_sum_to_one():
    params, a_hat, x, y, ids, synth = make_instance(7, with_synth=True)
    cache = forward(params, a_hat, x, synth)
    npt.assert_allclose(cache.z_real.sum(axis=1), 1.0, atol=1e-12)
    npt.assert_allclose(cache.z_synth.sum(axis=1), 1.0, atol=1e-12)


def test_forward_without_synth_has_no_synth_block():
    params, a_hat, x, *_ = make_instance(3)
    assert forward(params, a_hat, x).z_synth is None


def test_hidden_states_match_forward():
    params, a_hat, x, *_ = make_instance(4)
    npt.assert_array_equal(hidden_states(params, a_hat, x),
                           forward(params, a_hat, x).h1)


# ---------------------------------------------------------------- loss

def test_loss_matches_hand_computation():
    z_real = np.array([[0.7, 0.2, 0.1],
                       [0.1, 0.8, 0.1],
                       [0.3, 0.3, 0.4]])
    z_synth = np.array([[0.25, 0.25, 0.5]])
    cache = ForwardCache(h1=np.zeros((3, 2)), ah1=np.zeros((3, 2)),
                         z_real=z_real, z_synth=z_synth)
    y = np.array([0, 1, 0])
    got = loss(cache, y, [0, 1])
    want = -(np.log(0.7) + np.log(0.8) + np.log(0.5)) / 3.0
    assert abs(got - want) < 1e-15


def test_sigmoid_loss_matches_hand_computation():
    z = np.array([[0.9, 0.2]])
    cache = ForwardCache(h1=np.zeros((1, 1)), ah1=np.zeros((1, 1)),
                         z_real=z, z_synth=None)
    got = loss(cache, np.array([0]), [0], head="sigmoid")
    want = -(np.log(0.9) + np.log(0.8)) / 2.0
    assert abs(got - want) < 1e-15


# ---------------------------------------------------------------- gradients

def objective_factory(a_hat, x, y, ids, synth, wd, head="softmax"):
    def f(w0, w1):
        p = GCNParams(w0=w0, w1=w1)
        value = loss(forward(p, a_hat, x, synth, head), y, ids, head)
        return value + 0.5 * wd * (np.sum(w0 * w0) + np.sum(w1 * w1))
    return f


@pytest.mark.parametrize("with_synth", [False, True])
def test_gradients_match_finite_differences(with_synth):
    for seed in (0, 1, 2):
        params, a_hat, x, y, ids, synth = make_instance(seed, with_synth=with_synth)
        wd = 5e-4
        gw0, gw1 = backward(params, a_hat, x, y, ids, synth, weight_decay=wd)
        f = objective_factory(a_hat, x, y, ids, synth, wd)
        fd0, fd1 = fd_gradients(f, params.w0.copy(), params.w1.copy())
        assert max_rel_err(gw0, fd0) < 1e-4
        assert max_rel_err(gw1, fd1) < 1e-4


def test_sigmoid_gradients_match_finite_differences():
    params, a_hat, x, y, ids, _ = make_instance(5)
    wd = 1e-3
    gw0, gw1 = backward(params, a_hat, x, y, ids, None, weight_decay=wd, head="sigmoid")
    f = objective_factory(a_hat, x, y, ids, None, wd, head="sigmoid")
    fd0, fd1 = fd_gradients(f, params.w0.copy(), params.w1.copy())
    assert max_rel_err(gw0, fd0) < 1e-4
    assert max_rel_err(gw1, fd1) < 1e-4


def test_synth_rows_leave_w0_gradient_alone():
    params, a_hat, x, y, ids, synth = make_instance(2, with_synth=True)
    g0_with, _ = backward(params, a_hat, x, y, ids, synth)
    g0_without, _ = backward(params, a_hat, x, y, ids, None)
    # only the 1/M normalization differs, so the unnormalized parts agree
    m_with = len(ids) + synth.count
    npt.assert_allclose(g0_with * m_with, g0_without * len(ids), atol=1e-12)


# ---------------------------------------------------------------- training

def separable_fixture():
    """Two feature-separated clusters, half of each labeled for training."""
    edges = []
    for base in (0, 8):
        ring = [(base + i, base + (i + 1) % 8) for i in range(8)]
        edges.extend(ring)
    g = Graph(16, canonical_edges(edges), tuple(f"n{i}" for i in range(16)),
              tuple(["a"] * 8 + ["b"] * 8), ("a", "b"))
    rng = np.random.default_rng(42)
    x = rng.standard_normal((16, 4)) * 0.05
    x[:8, 0] += 1.0
    x[8:, 1] += 1.0
    y = np.array([0] * 8 + [1] * 8)
    train_ids = [0, 1, 2, 3, 8, 9, 10, 11]
    val_ids = [4, 5, 12, 13]
    return sym_normalize_adjacency(g), x, y, train_ids, val_ids


def test_train_fits_separable_fixture():
    a_hat, x, y, train_ids, val_ids = separable_fixture()
    cfg = TrainConfig(hidden_dim=8, epochs=60, seed=0)
    params, history = train(a_hat, x, y, train_ids, val_ids, out_dim=2, cfg=cfg)
    probs = predict(params, a_hat, x)
    assert np.all(probs[train_ids].argmax(axis=1) == y[train_ids])
    losses = [row["loss"] for row in history[:10]]
    assert all(losses[i + 1] <= losses[i] + 1e-9 for i in range(len(losses) - 1))


def test_train_is_deterministic():
    a_hat, x, y, train_ids, val_ids = separable_fixture()
    cfg = TrainConfig(hidden_dim=8, epochs=30, seed=4)
    p1, h1 = train(a_hat, x, y, train_ids, val_ids, out_dim=2, cfg=cfg)
    p2, h2 = train(a_hat, x, y, train_ids, val_ids, out_dim=2, cfg=cfg)
    assert np.array_equal(p1.w0, p2.w0)
    assert np.array_equal(p1.w1, p2.w1)
    assert h1 == h2


def test_early_stopping_restores_best_params():
    a_hat, x, y, train_ids, val_ids = separable_fixture()
    cfg = TrainConfig(hidden_dim=8, epochs=500, early_stop_patience=5, seed=0)
    params, history = train(a_hat, x, y, train_ids, val_ids, out_dim=2, cfg=cfg)
    assert len(history) < 500                       # patience kicked in
    best = max(row["val_accuracy"] for row in history)
    probs = predict(params, a_hat, x)
    returned = float(np.mean(probs[val_ids].argmax(axis=1) == y[val_ids]))
    assert returned == best


def test_early_stopping_returns_the_best_epoch_not_the_last():
    # validation labels oppose the training labels, so validation accuracy
    # falls as the model fits them: the best epoch comes before the last
    a_hat, x, y, train_ids, val_ids = separable_fixture()
    y = y.copy()
    y[val_ids] = 1 - y[val_ids]
    cfg = TrainConfig(hidden_dim=8, epochs=200, early_stop_patience=10, seed=0)
    params, history = train(a_hat, x, y, train_ids, val_ids, out_dim=2, cfg=cfg)
    accuracies = [row["val_accuracy"] for row in history]
    assert max(accuracies) > accuracies[-1]
    probs = predict(params, a_hat, x)
    returned = float(np.mean(probs[val_ids].argmax(axis=1) == y[val_ids]))
    assert returned == max(accuracies)


def test_training_divergence_raises_with_history():
    a_hat, x, y, train_ids, val_ids = separable_fixture()
    cfg = TrainConfig(hidden_dim=8, epochs=50, learning_rate=1e200)
    with np.errstate(all="ignore"):
        with pytest.raises(TrainingDiverged) as err:
            train(a_hat, x, y, train_ids, val_ids, out_dim=2, cfg=cfg)
    assert len(err.value.history) >= 1
    assert not np.isfinite(err.value.history[-1]["loss"])


def test_predict_with_zero_weights_breaks_ties_low():
    a_hat, x, y, train_ids, val_ids = separable_fixture()
    params = GCNParams(w0=np.zeros((4, 8)), w1=np.zeros((8, 3)))
    probs = predict(params, a_hat, x)
    npt.assert_allclose(probs, 1.0 / 3.0, atol=1e-15)
    assert np.all(probs.argmax(axis=1) == 0)


def reference_train(a_hat, x, y, train_ids, out_dim, synth, cfg):
    """The loop train replaced: each epoch runs backward, which makes its own
    forward pass, then a fresh forward pass after the Adam update. Without a
    validation set the final parameters are returned."""
    params = init_params(x.shape[1], cfg.hidden_dim, out_dim, cfg.seed)
    mom = [np.zeros_like(params.w0), np.zeros_like(params.w1)]
    vel = [np.zeros_like(params.w0), np.zeros_like(params.w1)]
    losses = []
    for epoch in range(1, cfg.epochs + 1):
        grads = backward(params, a_hat, x, y, train_ids, synth,
                         cfg.weight_decay, cfg.head)
        new_w = []
        for k, (w, g) in enumerate(zip((params.w0, params.w1), grads)):
            mom[k] = ADAM_BETA1 * mom[k] + (1 - ADAM_BETA1) * g
            vel[k] = ADAM_BETA2 * vel[k] + (1 - ADAM_BETA2) * g * g
            m_hat = mom[k] / (1 - ADAM_BETA1 ** epoch)
            v_hat = vel[k] / (1 - ADAM_BETA2 ** epoch)
            new_w.append(w - cfg.learning_rate * m_hat / (np.sqrt(v_hat) + ADAM_EPS))
        params = GCNParams(w0=new_w[0], w1=new_w[1])
        cache = forward(params, a_hat, x, synth, cfg.head)
        losses.append(loss(cache, y, train_ids, cfg.head))
    return params, losses


@pytest.mark.parametrize("head, with_synth",
                         [("softmax", False), ("softmax", True), ("sigmoid", False)])
def test_train_matches_backward_then_forward_loop(head, with_synth):
    _, a_hat, x, y, ids, synth = make_instance(3, n=12, with_synth=with_synth)
    cfg = TrainConfig(hidden_dim=4, epochs=25, seed=5, head=head)
    got, history = train(a_hat, x, y, ids, [], out_dim=3, synth=synth, cfg=cfg)
    want, losses = reference_train(a_hat, x, y, ids, 3, synth, cfg)
    assert np.array_equal(got.w0, want.w0)
    assert np.array_equal(got.w1, want.w1)
    assert [row["loss"] for row in history] == losses


def bag_of_words_instance(seed, n=40, d=60, words=3):
    """Random graph with binary features, `words` ones per row (5% dense)."""
    rng = np.random.default_rng(seed)
    g = random_graph(rng, n=n, p=0.1)
    x = np.zeros((n, d))
    for i in range(n):
        x[i, rng.choice(d, size=words, replace=False)] = 1.0
    return sym_normalize_adjacency(g), x, rng.integers(0, 3, size=n)


def test_sparse_features_train_like_dense():
    for seed in range(3):
        a_hat, x, y = bag_of_words_instance(seed)
        x_csr = sp.csr_array(x)
        ids, val_ids = list(range(0, 40, 2)), list(range(1, 40, 4))
        cfg = TrainConfig(hidden_dim=8, epochs=40, seed=seed)
        dense, h_dense = train(a_hat, x, y, ids, val_ids, out_dim=3, cfg=cfg)
        sparse, h_sparse = train(a_hat, x_csr, y, ids, val_ids, out_dim=3, cfg=cfg)
        assert len(h_sparse) == len(h_dense)
        npt.assert_allclose(sparse.w0, dense.w0, rtol=0, atol=1e-12)
        npt.assert_allclose(sparse.w1, dense.w1, rtol=0, atol=1e-12)
        npt.assert_allclose(predict(sparse, a_hat, x_csr), predict(dense, a_hat, x),
                            rtol=0, atol=1e-12)
        npt.assert_allclose(hidden_states(sparse, a_hat, x_csr),
                            hidden_states(dense, a_hat, x), rtol=0, atol=1e-12)


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(learning_rate=0)
    with pytest.raises(ValueError):
        TrainConfig(head="linear")
    with pytest.raises(ValueError):
        TrainConfig(epochs=0)
