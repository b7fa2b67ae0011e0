"""Label-propagation denoising of coarse OOD candidates, plus manifold-mixup
synthesis of extra OOD training points.

The coarse detector is noisy. We spread the training one-hots and candidate
OOD marks over the graph with the row-stochastic walk matrix D^{-1} A,
resetting training rows to their initial values after every step, and keep
only the candidates whose propagated row still peaks on the OOD column.
Synthetic OOD points are then drawn on the segments between low-confidence
training nodes (boundary nodes) and the centroid of the surviving candidates
in hidden space: x = alpha * h_boundary + (1 - alpha) * h_center.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .config import MixupConfig, PropagationConfig
from .graph import load_matrices, save_matrices, spmm
from .records import SynthHeader, SynthRow, read_headed, write_headed

if TYPE_CHECKING:
    import scipy.sparse as sp


@dataclass(frozen=True)
class LabelMatrix:
    """N x (C+1) soft label matrix. Column C is the OOD column. Rows listed in
    clamp_ids are training nodes and must stay one-hot."""

    values: np.ndarray
    clamp_ids: frozenset


def initial_label_matrix(num_nodes: int, class_count: int,
                         train_labels: dict[int, int],
                         ood_candidates) -> LabelMatrix:
    """One-hot ID rows for training nodes, OOD one-hots for coarse candidates,
    zero rows elsewhere. The training nodes (train_labels maps each to its
    class in [0, class_count)) and the candidates are disjoint sets of nodes
    in [0, num_nodes), as a split's train and test ids are."""
    values = np.zeros((num_nodes, class_count + 1), dtype=np.float64)
    for i, cls in train_labels.items():
        values[i, cls] = 1.0
    for i in ood_candidates:
        values[int(i), class_count] = 1.0
    return LabelMatrix(values, frozenset(train_labels))


def label_propagate(rw_adj: sp.csr_array, init: LabelMatrix,
                    cfg: PropagationConfig) -> np.ndarray:
    """Run cfg.steps rounds of Y <- D^{-1} A Y with clamping.

    After every multiplication the clamped rows are reset to their initial
    one-hots, and rows of isolated nodes (all-zero rows of the walk matrix)
    are reset to their initial values rather than decaying to zero. rw_adj
    is square over init's nodes.
    """
    clamped = sorted(init.clamp_ids)
    isolated = np.flatnonzero(np.diff(rw_adj.indptr) == 0)
    y = init.values.copy()
    for _ in range(cfg.steps):
        y = spmm(rw_adj, y)
        if len(isolated):
            y[isolated] = init.values[isolated]
        if clamped:
            y[clamped] = init.values[clamped]
    return y


def denoise_ood(propagated: np.ndarray, candidate_ids) -> tuple[int, ...]:
    """Candidates whose propagated row still peaks on the OOD column (last).
    Ties keep the candidate."""
    survivors = []
    for i in sorted({int(i) for i in candidate_ids}):
        row = propagated[i]
        if row[-1] >= row.max():
            survivors.append(i)
    return tuple(survivors)


def select_boundary_nodes(confidence_by_node: dict[int, float], k: int) -> tuple[int, ...]:
    """The k lowest-confidence nodes; ties broken by ascending node id. Asking
    for more than exist returns them all."""
    ranked = sorted(confidence_by_node.items(), key=lambda kv: (kv[1], kv[0]))
    return tuple(i for i, _ in ranked[:k])


def ood_center(hidden: np.ndarray, ood_ids) -> np.ndarray:
    """Mean hidden vector of the given nodes, rows of hidden (at least one)."""
    ids = sorted({int(i) for i in ood_ids})
    return hidden[ids].mean(axis=0)


def mix_row(h_boundary: np.ndarray, h_center: np.ndarray, alpha: float) -> np.ndarray:
    """The one mixing expression, shared by synthesis and by reconstruction
    checks so both produce bitwise identical rows."""
    return alpha * h_boundary + (1.0 - alpha) * h_center


@dataclass(frozen=True)
class SyntheticOODSet:
    """Mixup-generated OOD points in hidden space. Every row carries its
    provenance (source boundary node and alpha); downstream training treats
    each row as one extra sample of the OOD class."""

    embeddings: np.ndarray            # (synth_count, hidden_dim)
    boundary_ids: tuple[int, ...]     # per row
    alphas: tuple[float, ...]         # per row
    center: np.ndarray                # (hidden_dim,)
    seed: int

    @property
    def count(self) -> int:
        return self.embeddings.shape[0]


def mixup_augment(hidden: np.ndarray, boundary_ids, h_center: np.ndarray,
                  cfg: MixupConfig) -> SyntheticOODSet:
    """Generate cfg.synth_count rows alpha * h_b + (1 - alpha) * h_center.

    Boundary nodes are shuffled once with cfg.seed and consumed cyclically, so
    every boundary node contributes before any repeats. boundary_ids are at
    least one row of hidden, and h_center is a row of hidden's width.
    """
    ids = [int(i) for i in boundary_ids]
    rng = np.random.default_rng(cfg.seed)
    order = [ids[k] for k in rng.permutation(len(ids))]
    rows = np.empty((cfg.synth_count, hidden.shape[1]), dtype=np.float64)
    sources = []
    for r in range(cfg.synth_count):
        b = order[r % len(order)]
        rows[r] = mix_row(hidden[b], h_center, cfg.alpha)
        sources.append(b)
    return SyntheticOODSet(
        embeddings=rows,
        boundary_ids=tuple(sources),
        alphas=tuple([cfg.alpha] * cfg.synth_count),
        center=h_center.astype(np.float64, copy=True),
        seed=cfg.seed,
    )


# --------------------------------------------------------------- persistence

def save_synthetic(s: SyntheticOODSet, matrix_path: str, sidecar_path: str) -> None:
    save_matrices(matrix_path, s.embeddings)
    write_headed(sidecar_path, SynthHeader(s.seed, list(s.center)),
                 [SynthRow(r, s.boundary_ids[r], s.alphas[r]) for r in range(s.count)])


def load_synthetic(matrix_path: str, sidecar_path: str) -> SyntheticOODSet:
    header, rows = read_headed(sidecar_path, SynthHeader, SynthRow)
    by_row = {r.row: r for r in rows}
    if set(by_row) != set(range(len(rows))):
        raise ValueError(f"{sidecar_path}: row records are not 0..{len(rows) - 1}")
    rows = [by_row[r] for r in range(len(rows))]
    [emb] = load_matrices(matrix_path)
    if emb.shape != (len(rows), len(header.center)):
        raise ValueError(f"{matrix_path}: a {emb.shape[0]}x{emb.shape[1]} matrix, but "
                         f"{sidecar_path} holds {len(rows)} row records and a "
                         f"center of width {len(header.center)}")
    return SyntheticOODSet(
        embeddings=emb,
        boundary_ids=tuple(int(r.boundary_id) for r in rows),
        alphas=tuple(float(r.alpha) for r in rows),
        center=np.asarray(header.center, dtype=np.float64),
        seed=int(header.seed),
    )
