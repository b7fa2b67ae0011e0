"""Two-layer graph convolutional classifier with hand-derived gradients.

Forward pass over the symmetric propagation matrix A_hat:

    H1 = relu(A_hat X W0)
    Z  = softmax(A_hat H1 W1)        (row-wise)

Synthetic OOD rows live in hidden space already: their logits are x_s W1, so
they skip both aggregations and the first layer, and only contribute gradient
to W1. The cross-entropy loss averages over the masked real rows plus every
synthetic row; a weight-decay term wd/2 (|W0|^2 + |W1|^2) enters the gradients
but is reported separately from the loss value.

A "sigmoid" head variant replaces the row softmax with independent per-class
logistic outputs and the loss with the mean per-class binary cross-entropy;
the closed-set threshold baselines train with it. backward assumes A_hat is
symmetric, which both normalizations used with this model satisfy.

X may be a dense array or a scipy.sparse CSR array (bag-of-words features);
both enter only through X W0 and X^T (...), so a sparse X skips its zeros.

Training is full-batch Adam with early stopping on validation accuracy. Each
epoch takes its gradients from the forward pass computed after the previous
update, so an epoch costs one forward and one backward pass: four sparse
products. A checkpoint is W0 and W1 in cfc.graph's binary matrix format
under the magic CFCW (dims d, hidden, out).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .config import TrainConfig
from .graph import load_matrices, save_matrices, spmm

if TYPE_CHECKING:
    import scipy.sparse as sp

LOG_FLOOR = 1e-12
CHECKPOINT_MAGIC = b"CFCW"

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class TrainingDiverged(RuntimeError):
    """Loss became non-finite."""


@dataclass(frozen=True)
class GCNParams:
    w0: np.ndarray      # (d, hidden)
    w1: np.ndarray      # (hidden, out)


@dataclass(frozen=True)
class ForwardCache:
    h1: np.ndarray                 # (N, hidden), post-relu
    ah1: np.ndarray                # (N, hidden), A_hat H1
    z_real: np.ndarray             # (N, out)
    z_synth: np.ndarray | None     # (S, out) or None


def init_params(d: int, hidden: int, out: int, seed: int) -> GCNParams:
    """Glorot-uniform initialization, U(-b, b) with b = sqrt(6 / (fan_in + fan_out))."""
    rng = np.random.default_rng(seed)
    b0 = np.sqrt(6.0 / (d + hidden))
    b1 = np.sqrt(6.0 / (hidden + out))
    return GCNParams(
        w0=rng.uniform(-b0, b0, size=(d, hidden)),
        w1=rng.uniform(-b1, b1, size=(hidden, out)),
    )


def _row_softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def _sigmoid(logits: np.ndarray) -> np.ndarray:
    out = np.empty_like(logits)
    pos = logits >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-logits[pos]))
    ez = np.exp(logits[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def forward(params: GCNParams, a_hat: sp.csr_array,
            x: np.ndarray | sp.csr_array, synth=None,
            head: str = "softmax") -> ForwardCache:
    """Full forward pass; synthetic rows get logits x_s W1 directly. x has
    W0's row count of columns; synth, when given, holds rows in the hidden
    space (W1's row count of columns) and needs the softmax head."""
    squash = _row_softmax if head == "softmax" else _sigmoid
    h1 = np.maximum(spmm(a_hat, x @ params.w0), 0.0)
    ah1 = spmm(a_hat, h1)
    z_real = squash(ah1 @ params.w1)
    z_synth = squash(synth.embeddings @ params.w1) if synth is not None else None
    return ForwardCache(h1=h1, ah1=ah1, z_real=z_real, z_synth=z_synth)


def hidden_states(params: GCNParams, a_hat: sp.csr_array,
                  x: np.ndarray | sp.csr_array) -> np.ndarray:
    """H1 = relu(A_hat X W0): the representation space mixup operates in."""
    return np.maximum(spmm(a_hat, x @ params.w0), 0.0)


def _floored_log(z: np.ndarray) -> np.ndarray:
    return np.log(np.maximum(z, LOG_FLOOR))


def loss(cache: ForwardCache, y: np.ndarray, train_ids, head: str = "softmax") -> float:
    """Softmax head: mean negative log-likelihood over the masked real rows
    plus all synthetic rows (synthetic target is the last class). Sigmoid
    head: mean per-class binary cross-entropy over the masked rows. There is
    at least one row, and y holds a class in [0, out) for each of train_ids."""
    ids = list(train_ids)
    out_dim = cache.z_real.shape[1]
    synth_count = 0 if cache.z_synth is None else cache.z_synth.shape[0]
    if head == "softmax":
        total = 0.0
        if ids:
            total -= _floored_log(cache.z_real[ids, y[ids]]).sum()
        if synth_count:
            total -= _floored_log(cache.z_synth[:, -1]).sum()
        return float(total / (len(ids) + synth_count))
    z = cache.z_real[ids]
    onehot = np.zeros_like(z)
    onehot[np.arange(len(ids)), y[ids]] = 1.0
    bce = -(onehot * _floored_log(z) + (1.0 - onehot) * _floored_log(1.0 - z))
    return float(bce.sum() / (len(ids) * out_dim))


def backward(params: GCNParams, a_hat: sp.csr_array,
             x: np.ndarray | sp.csr_array, y: np.ndarray, train_ids,
             synth=None, weight_decay: float = 0.0, head: str = "softmax",
             cache: ForwardCache | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Exact gradients of loss(...) + weight_decay/2 (|W0|^2 + |W1|^2).

    cache, when given, must be forward(params, a_hat, x, synth, head); it
    saves recomputing that pass.

    Softmax plus cross-entropy collapses to dlogits = (Z - onehot) / M on the
    masked rows; the sigmoid head gives (Z - onehot) / (M * out). From there:

        gW1 = (A_hat H1)^T dlogits + x_s^T dlogits_s
        dH1 = A_hat (dlogits W1^T)          (A_hat symmetric)
        gW0 = X^T A_hat (dH1 * [H1 > 0])

    Synthetic rows touch only gW1 because their logits never pass through W0.
    """
    ids = list(train_ids)
    if cache is None:
        cache = forward(params, a_hat, x, synth, head)
    n, out_dim = cache.z_real.shape
    synth_count = 0 if cache.z_synth is None else cache.z_synth.shape[0]
    m = len(ids) + synth_count

    dlogits = np.zeros((n, out_dim), dtype=np.float64)
    if ids:
        onehot = np.zeros((len(ids), out_dim), dtype=np.float64)
        onehot[np.arange(len(ids)), y[ids]] = 1.0
        denom = m if head == "softmax" else len(ids) * out_dim
        dlogits[ids] = (cache.z_real[ids] - onehot) / denom

    gw1 = cache.ah1.T @ dlogits
    if synth_count:
        onehot_s = np.zeros((synth_count, out_dim), dtype=np.float64)
        onehot_s[:, -1] = 1.0
        dlogits_s = (cache.z_synth - onehot_s) / m
        gw1 += synth.embeddings.T @ dlogits_s

    dh1 = spmm(a_hat, dlogits @ params.w1.T)
    dpre1 = dh1 * (cache.h1 > 0)
    gw0 = x.T @ spmm(a_hat, dpre1)

    if weight_decay:
        gw0 = gw0 + weight_decay * params.w0
        gw1 = gw1 + weight_decay * params.w1
    return gw0, gw1


def predict(params: GCNParams, a_hat: sp.csr_array,
            x: np.ndarray | sp.csr_array, head: str = "softmax") -> np.ndarray:
    """Class probabilities for every real node."""
    return forward(params, a_hat, x, None, head).z_real


def train(a_hat: sp.csr_array, x: np.ndarray | sp.csr_array, y: np.ndarray,
          train_ids, val_ids, out_dim: int, synth=None,
          cfg: TrainConfig = TrainConfig()) -> tuple[GCNParams, list[dict]]:
    """Full-batch Adam training loop.

    y holds a class index in [0, out_dim) for every node in train_ids and
    val_ids (other rows are ignored), and out_dim is at least 2. Early
    stopping watches validation accuracy with the given patience and restores
    the best-scoring parameters, accuracy ties going to the epoch with the
    lower training loss; without val_ids the final parameters are returned.
    History rows record the loss and validation accuracy after each epoch's
    update. Deterministic in (inputs, cfg.seed).
    """
    train_ids = list(train_ids)
    val_ids = list(val_ids)
    params = init_params(x.shape[1], cfg.hidden_dim, out_dim, cfg.seed)
    # Adam moments and two scratch buffers per weight, updated in place
    mom = [np.zeros_like(params.w0), np.zeros_like(params.w1)]
    vel = [np.zeros_like(params.w0), np.zeros_like(params.w1)]
    step = [np.empty_like(params.w0), np.empty_like(params.w1)]
    denom = [np.empty_like(params.w0), np.empty_like(params.w1)]

    history: list[dict] = []
    best_params = params
    best_val = -1.0
    best_loss = np.inf
    stale = 0

    # divergence overflows first: the non-finite loss check reports it, unwarned
    with np.errstate(over="ignore", invalid="ignore"):
        cache = forward(params, a_hat, x, synth, cfg.head)
        for epoch in range(1, cfg.epochs + 1):
            grads = backward(params, a_hat, x, y, train_ids, synth,
                             cfg.weight_decay, cfg.head, cache)
            new_w = []
            for k, (w, g) in enumerate(zip((params.w0, params.w1), grads)):
                # m = b1 m + (1 - b1) g, v = b2 v + ((1 - b2) g) g and
                # w - (lr m_hat) / (sqrt(v_hat) + eps), one rounding at a time in
                # that order, so the weights stay bitwise those of the formula
                s, d = step[k], denom[k]
                mom[k] *= ADAM_BETA1
                np.multiply(g, 1 - ADAM_BETA1, out=s)
                mom[k] += s
                vel[k] *= ADAM_BETA2
                np.multiply(g, 1 - ADAM_BETA2, out=s)
                s *= g
                vel[k] += s
                np.divide(mom[k], 1 - ADAM_BETA1 ** epoch, out=s)
                np.divide(vel[k], 1 - ADAM_BETA2 ** epoch, out=d)
                np.sqrt(d, out=d)
                d += ADAM_EPS
                s *= cfg.learning_rate
                s /= d
                new_w.append(w - s)
            params = GCNParams(w0=new_w[0], w1=new_w[1])

            cache = forward(params, a_hat, x, synth, cfg.head)
            epoch_loss = loss(cache, y, train_ids, cfg.head)
            val_acc = None
            if val_ids:
                pred = cache.z_real[val_ids].argmax(axis=1)
                val_acc = float(np.mean(pred == y[val_ids]))
            history.append({"epoch": epoch, "loss": epoch_loss, "val_accuracy": val_acc})

            if not np.isfinite(epoch_loss):
                raise TrainingDiverged(f"{cfg.head}-head model: non-finite loss "
                                       f"at epoch {epoch}")

            if val_ids:
                if val_acc > best_val:
                    best_val = val_acc
                    best_loss = epoch_loss
                    best_params = params
                    stale = 0
                else:
                    # equal accuracy with lower loss keeps the sharper epoch but
                    # does not reset the patience counter
                    if val_acc == best_val and epoch_loss < best_loss:
                        best_loss = epoch_loss
                        best_params = params
                    stale += 1
                    if stale >= cfg.early_stop_patience:
                        break

    return (best_params if val_ids else params), history


# --------------------------------------------------------------- checkpoints

def save_checkpoint(params: GCNParams, path: str) -> None:
    save_matrices(path, params.w0, params.w1, magic=CHECKPOINT_MAGIC)


def load_checkpoint(path: str) -> GCNParams:
    w0, w1 = load_matrices(path, CHECKPOINT_MAGIC, count=2)
    return GCNParams(w0=w0, w1=w1)
