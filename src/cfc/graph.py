"""Graph container, adjacency normalizations, data splits and the binary
matrix format.

Sparse matrices are scipy.sparse CSR arrays (float64) in canonical form:
column indices strictly increasing inside each row, no duplicates and no
stored zeros. Both normalizations hand the canonical edge list to scipy as
coordinates, which it sorts into that form, and spmm is the one sparse @
dense product the model code calls, so its summation order (stored column
order, row by row) fixes the rounding of every propagation. scipy.sparse is imported when the first matrix is built,
not with this module, so commands that build none never load it.

Functions:
    load_graph: read nodes.jsonl into a Graph, and edges.jsonl when given
    load_edges: read edges.jsonl as a canonical edge list
    save_matrices, load_matrices: the one binary matrix format, for the
        feature-shaped files (magic CFCF) and cfc.gcn's checkpoints (CFCW)
    load_features: read the dataset's feature matrix, which a Graph does
        not hold: binary or JSONL, every value finite
    canonical_edges: dedupe and canonicalize an undirected edge list
    sym_normalize_adjacency: D^{-1/2} (A + I) D^{-1/2} with self loops
    rw_normalize_adjacency: D^{-1} A, no self loops, zero rows for isolated nodes
    spmm: sparse @ dense product
    split_dataset: stratified train / val / test assignment over labeled nodes
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .jsonl import atomic_write, read_jsonl
from .records import SplitAssignment

if TYPE_CHECKING:
    import scipy.sparse as sp

FEATURE_MAGIC = b"CFCF"


def spmm(m: sp.csr_array, dense: np.ndarray) -> np.ndarray:
    """Sparse @ dense, dense a 2-D float64 array with m.shape[1] rows
    (scipy refuses a dimension mismatch).

    Summation order inside a row follows the stored column order, so repeated
    calls on identical inputs are bitwise reproducible.
    """
    return m @ dense


def canonical_edges(edges) -> tuple[tuple[int, int], ...]:
    """Canonicalize an undirected edge list without self loops: (min, max)
    per edge, sorted, deduped."""
    seen = set()
    for a, b in edges:
        a, b = int(a), int(b)
        seen.add((a, b) if a < b else (b, a))
    return tuple(sorted(seen))


@dataclass(frozen=True)
class Graph:
    """Undirected text-attributed graph of at least one node. Immutable after
    construction.

    node_text and labels hold one entry per node; labels may contain None
    for unlabeled nodes. edges is a canonical edge list over 0..num_nodes-1,
    as canonical_edges and load_edges return it, or None for a graph read
    from its nodes alone.
    """

    num_nodes: int
    edges: tuple[tuple[int, int], ...] | None
    node_text: tuple[str, ...]
    labels: tuple[str | None, ...]

    def nodes_of_class(self, name: str) -> list[int]:
        return [i for i, lab in enumerate(self.labels) if lab == name]


def _is_int(value) -> bool:
    """A JSON integer: Python's bool is an int, JSON's true is not."""
    return isinstance(value, int) and not isinstance(value, bool)


def _load_features_jsonl(path: str, num_nodes: int) -> np.ndarray:
    rows: dict[int, list[float]] = {}
    dim = None
    for lineno, rec in read_jsonl(path):
        if not isinstance(rec, dict) or "id" not in rec or "vec" not in rec:
            raise ValueError(f"{path}:{lineno}: feature record needs id and vec")
        i = rec["id"]
        vec = rec["vec"]
        if not _is_int(i) or i in rows:
            raise ValueError(f"{path}:{lineno}: bad or duplicate feature id {i!r}")
        if not isinstance(vec, list) or not all(
                isinstance(x, (int, float)) and not isinstance(x, bool) for x in vec):
            raise ValueError(f"{path}:{lineno}: vec must be a list of numbers")
        if dim is None:
            dim = len(vec)
        if len(vec) != dim or dim < 1:
            raise ValueError(f"{path}:{lineno}: inconsistent feature dimension")
        rows[i] = [float(x) for x in vec]
    if len(rows) != num_nodes:
        raise ValueError(f"{path}: found {len(rows)} feature rows for {num_nodes} nodes")
    if set(rows) != set(range(num_nodes)):
        raise ValueError(f"{path}: feature ids are not exactly 0..{num_nodes - 1}")
    return np.asarray([rows[i] for i in range(num_nodes)], dtype=np.float64)


def load_features(path: str, num_nodes: int) -> np.ndarray:
    """Load the dataset's feature matrix, binary (magic CFCF) or JSONL
    {id, vec}. A NaN or infinite value is rejected in either format (json.loads
    accepts the NaN and Infinity literals): training would fail on it only
    after the LLM stages had paid for their calls."""
    with open(path, "rb") as fh:
        head = fh.read(4)
    if head == FEATURE_MAGIC:
        [mat] = load_matrices(path, rows=num_nodes)
    else:
        mat = _load_features_jsonl(path, num_nodes)
    finite = np.isfinite(mat).all(axis=1)
    if not finite.all():
        raise ValueError(f"{path}: feature row {int(np.argmin(finite))} holds a "
                         f"non-finite value")
    return mat


def save_matrices(path: str, *mats: np.ndarray, magic: bytes = FEATURE_MAGIC) -> None:
    """Write a chain of matrices, each with as many rows as the one before
    has columns: the 4-byte magic, then the dims as little-endian u32 (the
    first matrix's rows, then each matrix's columns), then each matrix as
    C-order little-endian float64."""
    mats = [np.asarray(m, dtype="<f8") for m in mats]
    dims = [mats[0].shape[0]] + [m.shape[1] for m in mats]
    with atomic_write(path, "wb") as fh:
        fh.write(magic)
        fh.write(struct.pack(f"<{len(dims)}I", *dims))
        for m in mats:
            fh.write(m.tobytes(order="C"))


def load_matrices(path: str, magic: bytes = FEATURE_MAGIC, count: int = 1,
                  rows: int | None = None) -> list[np.ndarray]:
    """Read the count matrices save_matrices wrote under magic; rows, when
    given, is the row count the first one must have. The arrays are
    read-only views of the file's bytes."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != magic:
        raise ValueError(f"{path}: bad magic, expected {magic!r}")
    start = 8 + 4 * count
    if len(blob) < start:
        raise ValueError(f"{path}: header cut short ({len(blob)} of {start} bytes)")
    dims = struct.unpack(f"<{count + 1}I", blob[4:start])
    if rows is not None and dims[0] != rows:
        raise ValueError(f"{path}: row count {dims[0]} != node count {rows}")
    if min(dims[1:]) < 1:
        raise ValueError(f"{path}: matrix dimensions must be >= 1")
    shapes = list(zip(dims, dims[1:]))
    expect = start + 8 * sum(r * c for r, c in shapes)
    if len(blob) != expect:
        raise ValueError(f"{path}: expected {expect} bytes, found {len(blob)}")
    mats = []
    for r, c in shapes:
        mats.append(np.frombuffer(blob, dtype="<f8", count=r * c,
                                  offset=start).reshape(r, c))
        start += 8 * r * c
    return mats


def load_graph(nodes_path: str, edges_path: str | None = None) -> Graph:
    """Read node records {"id", "text", "label"}, and the edges of
    edges_path (load_edges) when it is given; without it the graph's edges
    are None.

    Node ids must be exactly 0..N-1. label may be null for unlabeled nodes.
    """
    texts: dict[int, str] = {}
    labels: dict[int, str | None] = {}
    for lineno, rec in read_jsonl(nodes_path):
        if not isinstance(rec, dict) or not {"id", "text", "label"} <= rec.keys():
            raise ValueError(f"{nodes_path}:{lineno}: node record needs id, text, label")
        i, text, lab = rec["id"], rec["text"], rec["label"]
        if not _is_int(i):
            raise ValueError(f"{nodes_path}:{lineno}: id must be an integer")
        if i in texts:
            raise ValueError(f"{nodes_path}:{lineno}: duplicate node id {i}")
        if not isinstance(text, str):
            raise ValueError(f"{nodes_path}:{lineno}: text must be a string")
        if lab is not None and not isinstance(lab, str):
            raise ValueError(f"{nodes_path}:{lineno}: label must be a string or null")
        texts[i] = text
        labels[i] = lab
    n = len(texts)
    if n == 0:
        raise ValueError(f"{nodes_path}: no node records")
    if set(texts) != set(range(n)):
        raise ValueError(f"{nodes_path}: node ids are not contiguous 0..{n - 1}")

    return Graph(
        num_nodes=n,
        edges=None if edges_path is None else load_edges(edges_path, n),
        node_text=tuple(texts[i] for i in range(n)),
        labels=tuple(labels[i] for i in range(n)),
    )


def load_edges(path: str, num_nodes: int) -> tuple[tuple[int, int], ...]:
    """Read edge records {"src", "dst"} between nodes 0..num_nodes-1 as a
    canonical edge list: duplicate undirected edges collapse to one, and a
    self loop is an error."""
    pairs = []
    for lineno, rec in read_jsonl(path):
        if not isinstance(rec, dict) or not {"src", "dst"} <= rec.keys():
            raise ValueError(f"{path}:{lineno}: edge record needs src and dst")
        a, b = rec["src"], rec["dst"]
        if not (_is_int(a) and _is_int(b)):
            raise ValueError(f"{path}:{lineno}: src/dst must be integers")
        if not (0 <= a < num_nodes and 0 <= b < num_nodes):
            raise ValueError(f"{path}:{lineno}: edge ({a}, {b}) references unknown node")
        if a == b:
            raise ValueError(f"{path}:{lineno}: self loop on node {a}")
        pairs.append((a, b))
    return canonical_edges(pairs)


def _both_directions(g: Graph) -> tuple[np.ndarray, np.ndarray]:
    e = np.asarray(g.edges, dtype=np.int64).reshape(-1, 2)
    return np.concatenate([e[:, 0], e[:, 1]]), np.concatenate([e[:, 1], e[:, 0]])


def sym_normalize_adjacency(g: Graph) -> sp.csr_array:
    """Symmetric GCN propagation matrix of a graph with its edges: self loops
    added, entry (i, j) equals 1/sqrt((deg_i + 1) (deg_j + 1))."""
    import scipy.sparse as sp
    n = g.num_nodes
    src, dst = _both_directions(g)
    inv_sqrt = 1.0 / np.sqrt(np.bincount(src, minlength=n) + 1.0)
    loops = np.arange(n, dtype=np.int64)
    rows = np.concatenate([src, loops])
    cols = np.concatenate([dst, loops])
    return sp.csr_array((inv_sqrt[rows] * inv_sqrt[cols], (rows, cols)), shape=(n, n))


def rw_normalize_adjacency(g: Graph) -> sp.csr_array:
    """Row-stochastic propagation matrix D^{-1} A without self loops, of a
    graph with its edges. Isolated nodes keep an empty row (their rows
    multiply to zero, callers reset them)."""
    import scipy.sparse as sp
    n = g.num_nodes
    src, dst = _both_directions(g)
    deg = np.bincount(src, minlength=n)
    return sp.csr_array((1.0 / deg[src], (src, dst)), shape=(n, n))


def split_dataset(g: Graph, id_classes, ood_classes, seed: int,
                  train_frac: float = 0.5, val_frac: float = 0.4) -> SplitAssignment:
    """Stratified open-set split.

    Per ID class, floor(train_frac * count) nodes go to train. The leftover ID
    nodes and all OOD nodes form a pool that is split per class into
    floor(val_frac * count) validation nodes, remainder test. Unlabeled nodes
    join no set. A split without validation nodes is refused: eval tunes the
    baselines' thresholds on them. Deterministic in (graph, seed).

    The class lists and fractions are those of a SplitConfig, which checks
    them: disjoint non-empty class lists, fractions in (0, 1).
    """
    id_classes = tuple(id_classes)
    ood_classes = tuple(ood_classes)
    declared = set(id_classes) | set(ood_classes)
    observed = {lab for lab in g.labels if lab is not None}
    stray = observed - declared
    if stray:
        raise ValueError(f"labels not covered by id/ood classes: {sorted(stray)}")

    rng = np.random.default_rng(seed)
    train: list[int] = []
    pool_by_class: dict[str, list[int]] = {}

    for name in sorted(id_classes):
        members = g.nodes_of_class(name)
        if len(members) < 2:
            raise ValueError(f"ID class {name!r} has {len(members)} nodes, need >= 2 to stratify")
        perm = rng.permutation(len(members))
        n_train = int(train_frac * len(members))
        n_train = max(1, n_train)
        picked = [members[k] for k in perm]
        train.extend(picked[:n_train])
        pool_by_class[name] = picked[n_train:]
    for name in sorted(ood_classes):
        members = g.nodes_of_class(name)
        if members:
            perm = rng.permutation(len(members))
            pool_by_class[name] = [members[k] for k in perm]

    val: list[int] = []
    test: list[int] = []
    for name in sorted(pool_by_class):
        pool = pool_by_class[name]
        n_val = int(val_frac * len(pool))
        val.extend(pool[:n_val])
        test.extend(pool[n_val:])
    if not val:
        raise ValueError(f"val_frac={val_frac} leaves the validation set empty")

    return SplitAssignment(
        train_ids=tuple(sorted(train)),
        val_ids=tuple(sorted(val)),
        test_ids=tuple(sorted(test)),
        id_classes=id_classes,
        ood_classes=ood_classes,
        seed=seed,
    )
