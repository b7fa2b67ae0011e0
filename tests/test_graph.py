import dataclasses
import os

import numpy as np
import numpy.testing as npt
import pytest
import scipy.sparse as sp

from cfc.gcn import CHECKPOINT_MAGIC, GCNParams, load_checkpoint, save_checkpoint
from cfc.graph import (
    FEATURE_MAGIC,
    Graph,
    SplitAssignment,
    canonical_edges,
    load_features,
    load_graph,
    load_matrices,
    rw_normalize_adjacency,
    save_matrices,
    split_dataset,
    spmm,
    sym_normalize_adjacency,
)
from cfc.jsonl import read_json, write_json
from conftest import random_graph, write_jsonl
from fixture_tools import save_graph


# ---------------------------------------------------------------- oracles

def dense_sym_normalize(n, edges):
    """Independent dense computation of D^{-1/2} (A + I) D^{-1/2}."""
    a = np.zeros((n, n))
    for i, j in edges:
        a[i, j] = a[j, i] = 1.0
    a += np.eye(n)
    d = a.sum(axis=1)
    inv = 1.0 / np.sqrt(d)
    return inv[:, None] * a * inv[None, :]


def dense_rw_normalize(n, edges):
    """Independent dense computation of D^{-1} A with zero rows for isolated nodes."""
    a = np.zeros((n, n))
    for i, j in edges:
        a[i, j] = a[j, i] = 1.0
    d = a.sum(axis=1)
    out = np.zeros_like(a)
    nz = d > 0
    out[nz] = a[nz] / d[nz, None]
    return out


def loop_normalizations(n, edges):
    """The entry-by-entry construction both normalizations replaced: sorted
    adjacency lists, (row, column, value) triples in row-major order."""
    adj = [[] for _ in range(n)]
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    inv_sqrt = 1.0 / np.sqrt(np.array([len(a) + 1 for a in adj], dtype=np.float64))
    sym = [(i, j, inv_sqrt[i] * inv_sqrt[j])
           for i in range(n) for j in sorted(adj[i] + [i])]
    rw = [(i, j, 1.0 / len(adj[i])) for i in range(n) for j in sorted(adj[i])]
    return sym, rw


def loop_spmm(m, dense):
    """The np.add.at product spmm replaced."""
    out = np.zeros((m.shape[0], dense.shape[1]))
    row_of = np.repeat(np.arange(m.shape[0]), np.diff(m.indptr))
    np.add.at(out, row_of, m.data[:, None] * dense[m.indices])
    return out


def triples(m):
    rows = np.repeat(np.arange(m.shape[0]), np.diff(m.indptr))
    return list(zip(rows.tolist(), m.indices.tolist(), m.data.tolist()))


def normalized(rng, count, **kw):
    """(graph, sym, rw) for count random graphs, some with isolated nodes."""
    for _ in range(count):
        g = random_graph(rng, **kw)
        yield g, sym_normalize_adjacency(g), rw_normalize_adjacency(g)


# ---------------------------------------------------------------- sparse matrix

def test_sparse_from_dense_roundtrip(rng):
    # canonical CSR is what scipy builds from the dense matrix, bit for bit
    for _, sym, rw in normalized(rng, 20, p=0.2):
        for m in (sym, rw):
            back = sp.csr_array(m.toarray())
            npt.assert_array_equal(back.indptr, m.indptr)
            npt.assert_array_equal(back.indices, m.indices)
            npt.assert_array_equal(back.data, m.data)


def test_normalized_csr_has_no_duplicate_entries(rng):
    for _, sym, rw in normalized(rng, 20, p=0.3):
        for m in (sym, rw):
            coords = {(i, j) for i, j, _ in triples(m)}
            assert len(coords) == m.nnz


def test_sparse_never_stores_zeros(rng):
    for g, sym, rw in normalized(rng, 20, p=0.1):
        assert np.all(sym.data != 0.0) and np.all(rw.data != 0.0)
        assert sym.nnz == 2 * len(g.edges) + g.num_nodes
        assert rw.nnz == 2 * len(g.edges)


def test_normalized_csr_columns_sorted(rng):
    for _, sym, rw in normalized(rng, 20, p=0.3):
        for m in (sym, rw):
            for r in range(m.shape[0]):
                seg = m.indices[m.indptr[r]:m.indptr[r + 1]]
                assert np.all(np.diff(seg) > 0)
            assert m.has_canonical_format


def test_normalizations_match_entrywise_loop_reference(rng):
    for g, sym, rw in normalized(rng, 30, p=0.2):
        want_sym, want_rw = loop_normalizations(g.num_nodes, g.edges)
        assert triples(sym) == want_sym
        assert triples(rw) == want_rw


def test_spmm_matches_dense_oracle(rng):
    for _ in range(50):
        r, c, k = (int(x) for x in rng.integers(1, 12, size=3))
        dense = rng.standard_normal((r, c))
        dense[rng.random((r, c)) < 0.6] = 0.0   # leaves some rows empty
        m = sp.csr_array(dense)
        x = rng.standard_normal((c, k))
        npt.assert_allclose(spmm(m, x), dense @ x, rtol=0, atol=1e-12)


def test_spmm_matches_add_at_loop_bitwise(rng):
    for g, sym, rw in normalized(rng, 20, p=0.2):
        x = rng.standard_normal((g.num_nodes, 7))
        for m in (sym, rw):
            assert np.array_equal(spmm(m, x), loop_spmm(m, x))


def test_spmm_shape_mismatch():
    m = sp.csr_array(np.eye(3))
    with pytest.raises(ValueError, match="dimension mismatch"):
        spmm(m, np.zeros((4, 2)))


def test_spmm_is_reproducible(rng):
    dense = rng.standard_normal((30, 30))
    m = sp.csr_array(dense)
    x = rng.standard_normal((30, 8))
    first = spmm(m, x)
    assert np.array_equal(first, spmm(m, x))


# ---------------------------------------------------------------- normalizations

def triangle():
    return Graph(3, canonical_edges([(0, 1), (1, 2), (0, 2)]),
                 ("a", "b", "c"), ("x", "x", "x"))


def test_sym_normalize_triangle_is_third_everywhere():
    # every node has degree 2, so with self loops each entry is 1/3
    got = sym_normalize_adjacency(triangle()).toarray()
    npt.assert_allclose(got, np.full((3, 3), 1.0 / 3.0), atol=1e-15)


def test_rw_normalize_path_middle_row():
    g = Graph(3, canonical_edges([(0, 1), (1, 2)]),
              ("a", "b", "c"), ("x", "x", "x"))
    got = rw_normalize_adjacency(g).toarray()
    npt.assert_allclose(got[1], [0.5, 0.0, 0.5], atol=1e-15)


def test_normalizations_match_dense_oracle(rng):
    for _ in range(30):
        g = random_graph(rng)
        npt.assert_allclose(sym_normalize_adjacency(g).toarray(),
                            dense_sym_normalize(g.num_nodes, g.edges), atol=1e-13)
        npt.assert_allclose(rw_normalize_adjacency(g).toarray(),
                            dense_rw_normalize(g.num_nodes, g.edges), atol=1e-13)


def test_sym_normalize_is_symmetric(rng):
    for _ in range(10):
        g = random_graph(rng)
        dense = sym_normalize_adjacency(g).toarray()
        npt.assert_allclose(dense, dense.T, atol=0)


def test_rw_rows_sum_to_one_or_zero(rng):
    for _ in range(10):
        g = random_graph(rng, p=0.1)
        sums = rw_normalize_adjacency(g).toarray().sum(axis=1)
        assert np.all((np.abs(sums - 1.0) < 1e-12) | (sums == 0.0))


def test_isolated_node_has_zero_row():
    g = Graph(3, canonical_edges([(0, 1)]), ("a", "b", "c"), ("x", "x", "x"))
    m = rw_normalize_adjacency(g)
    assert list(np.flatnonzero(np.diff(m.indptr) == 0)) == [2]


# ---------------------------------------------------------------- graph loading

def write_graph_files(tmp_path, nodes, edges):
    np_, ep = tmp_path / "nodes.jsonl", tmp_path / "edges.jsonl"
    write_jsonl(np_, nodes)
    write_jsonl(ep, edges)
    return str(np_), str(ep)


def test_load_graph_basic(tmp_path):
    nodes = [
        {"id": 0, "text": "paper on GNNs", "label": "nets"},
        {"id": 1, "text": "paper on logic", "label": "theory"},
        {"id": 2, "text": "unlabeled draft", "label": None},
    ]
    edges = [{"src": 1, "dst": 0}, {"src": 0, "dst": 1}, {"src": 2, "dst": 1}]
    npath, epath = write_graph_files(tmp_path, nodes, edges)
    g = load_graph(npath, epath)
    assert g.num_nodes == 3
    assert g.edges == ((0, 1), (1, 2))     # both directions collapse to one
    assert g.labels == ("nets", "theory", None)


def test_load_graph_rejects_gap_in_ids(tmp_path):
    nodes = [{"id": 0, "text": "a", "label": "x"}, {"id": 2, "text": "b", "label": "x"}]
    npath, epath = write_graph_files(tmp_path, nodes, [])
    with pytest.raises(ValueError, match="contiguous"):
        load_graph(npath, epath)


def test_load_graph_rejects_unknown_edge_endpoint(tmp_path):
    nodes = [{"id": 0, "text": "a", "label": "x"}, {"id": 1, "text": "b", "label": "x"}]
    npath, epath = write_graph_files(tmp_path, nodes, [{"src": 0, "dst": 5}])
    with pytest.raises(ValueError, match="unknown node"):
        load_graph(npath, epath)


def test_load_graph_rejects_self_loop(tmp_path):
    nodes = [{"id": 0, "text": "a", "label": "x"}]
    npath, epath = write_graph_files(tmp_path, nodes, [{"src": 0, "dst": 0}])
    with pytest.raises(ValueError, match="self loop"):
        load_graph(npath, epath)


def test_load_graph_rejects_bool_edge_endpoints(tmp_path):
    nodes = [{"id": k, "text": "t", "label": "x"} for k in range(3)]
    for edge in ({"src": True, "dst": 2}, {"src": 0, "dst": False}):
        npath, epath = write_graph_files(tmp_path, nodes, [edge])
        with pytest.raises(ValueError, match=r"edges\.jsonl:1: src/dst must be integers"):
            load_graph(npath, epath)


def test_load_graph_reports_bad_line_number(tmp_path):
    path = tmp_path / "nodes.jsonl"
    path.write_text('{"id": 0, "text": "a", "label": "x"}\nnot json\n')
    epath = tmp_path / "edges.jsonl"
    epath.write_text("")
    with pytest.raises(ValueError, match=r"nodes\.jsonl:2"):
        load_graph(str(path), str(epath))


# the binary matrix format, once per magic: a feature-shaped matrix (CFCF)
# and a checkpoint (CFCW), each written and read by its own functions
def _cfcf(rng, path):
    mats = [rng.standard_normal((7, 5))]
    save_matrices(path, *mats)
    return mats, lambda: load_matrices(path, rows=7)


def _cfcw(rng, path):
    mats = [rng.standard_normal((6, 4)), rng.standard_normal((4, 3))]
    save_checkpoint(GCNParams(*mats), path)
    return mats, lambda: list(dataclasses.astuple(load_checkpoint(path)))


@pytest.fixture(params=[(FEATURE_MAGIC, _cfcf), (CHECKPOINT_MAGIC, _cfcw)],
                ids=["CFCF", "CFCW"])
def binary_file(request, rng, tmp_path):
    """(path, magic, the matrices written there, a reader of that file)."""
    magic, write = request.param
    path = str(tmp_path / "matrices.bin")
    mats, read = write(rng, path)
    return path, magic, mats, read


def test_binary_roundtrip_is_bit_exact(binary_file):
    path, magic, mats, read = binary_file
    with open(path, "rb") as fh:
        assert fh.read(4) == magic
    back = read()
    assert len(back) == len(mats)
    for got, want in zip(back, mats):
        assert got.dtype == np.float64 and np.array_equal(got, want)


def test_binary_rejects_bad_magic(binary_file):
    path, _, _, read = binary_file
    with open(path, "r+b") as fh:
        fh.write(b"NOPE")
    with pytest.raises(ValueError, match="bad magic"):
        read()


def test_binary_rejects_wrong_byte_count(binary_file):
    path, _, _, read = binary_file
    size = os.path.getsize(path)
    os.truncate(path, size - 8)
    with pytest.raises(ValueError, match=f"expected {size} bytes, found {size - 8}"):
        read()
    with open(path, "ab") as fh:
        fh.write(b"\0" * 16)
    with pytest.raises(ValueError, match=f"expected {size} bytes, found {size + 8}"):
        read()


def test_binary_cut_inside_header_is_rejected(binary_file):
    path, _, _, read = binary_file
    os.truncate(path, 6)
    with pytest.raises(ValueError, match="header cut short"):
        read()


def test_feature_row_count_must_match(tmp_path, rng):
    path = str(tmp_path / "feat.bin")
    save_matrices(path, rng.standard_normal((4, 3)))
    with pytest.raises(ValueError, match="row count"):
        load_features(path, 5)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("layout", ["binary", "jsonl"])
def test_features_must_be_finite(tmp_path, rng, layout, bad):
    feats = rng.standard_normal((4, 3))
    feats[2, 1] = bad
    path = str(tmp_path / "feat")
    if layout == "binary":
        save_matrices(path, feats)
    else:       # json.dumps writes NaN and Infinity, and json.loads reads them
        write_jsonl(path, [{"id": i, "vec": row.tolist()} for i, row in enumerate(feats)])
    with pytest.raises(ValueError, match=r"feature row 2 holds a non-finite value"):
        load_features(path, 4)


def test_feature_jsonl_loading(tmp_path):
    path = write_jsonl(tmp_path / "feat.jsonl", [
        {"id": 1, "vec": [0.5, 1.5]},
        {"id": 0, "vec": [1.0, 2.0]},
    ])
    mat = load_features(path, 2)
    npt.assert_array_equal(mat, [[1.0, 2.0], [0.5, 1.5]])


def test_feature_jsonl_vec_must_be_a_list_of_numbers(tmp_path):
    for vec in (5, None, "12", [1.0, "2"], [[1.0]], [True, 1.0]):
        path = write_jsonl(tmp_path / "feat.jsonl", [{"id": 0, "vec": vec}])
        with pytest.raises(ValueError, match=r"feat\.jsonl:1: vec must be a list of numbers"):
            load_features(path, 1)


def test_feature_jsonl_id_must_be_an_integer(tmp_path):
    path = write_jsonl(tmp_path / "feat.jsonl", [
        {"id": True, "vec": [1.0]}, {"id": 0, "vec": [2.0]}])
    with pytest.raises(ValueError, match=r"feat\.jsonl:1: bad or duplicate feature id True"):
        load_features(path, 2)


def test_graph_roundtrip_identity(tmp_path, rng):
    for trial in range(10):
        g = random_graph(rng, unlabeled_frac=0.2)
        feats = rng.standard_normal((g.num_nodes, 4))
        base = tmp_path / f"t{trial}"
        base.mkdir()
        paths = (str(base / "n.jsonl"), str(base / "e.jsonl"))
        save_graph(g, *paths)
        save_matrices(str(base / "f.bin"), feats)
        back = load_graph(*paths)
        assert back.num_nodes == g.num_nodes
        assert back.edges == g.edges
        assert back.node_text == g.node_text
        assert back.labels == g.labels
        assert np.array_equal(load_features(str(base / "f.bin"), g.num_nodes), feats)


def test_roundtrip_preserves_unicode_text(tmp_path):
    g = Graph(2, canonical_edges([(0, 1)]),
              ("Grüße, 数学 paper é", "plain"), ("x", None))
    save_graph(g, str(tmp_path / "n.jsonl"), str(tmp_path / "e.jsonl"))
    back = load_graph(str(tmp_path / "n.jsonl"), str(tmp_path / "e.jsonl"))
    assert back.node_text == g.node_text


def test_citation_scale_fixture(tmp_path, rng):
    # dataset of the shape used in the experiments: 2708 nodes, 5429 edges
    n, target = 2708, 5429
    seen = set()
    while len(seen) < target:
        a, b = int(rng.integers(n)), int(rng.integers(n))
        if a != b:
            seen.add((min(a, b), max(a, b)))
    nodes = [{"id": i, "text": f"doc {i}", "label": "c"} for i in range(n)]
    edges = [{"src": a, "dst": b} for a, b in sorted(seen)]
    npath, epath = write_graph_files(tmp_path, nodes, edges)
    g = load_graph(npath, epath)
    assert g.num_nodes == 2708
    assert len(g.edges) == 5429


# ---------------------------------------------------------------- splits

def labeled_graph(counts, seed=0):
    """Graph with the given {class: count} label multiset and no edges."""
    labels = []
    for name, cnt in sorted(counts.items()):
        labels.extend([name] * cnt)
    rng = np.random.default_rng(seed)
    rng.shuffle(labels)
    n = len(labels)
    return Graph(n, (), tuple(f"t{i}" for i in range(n)), tuple(labels))


def test_split_pure_ood_pool_ratio():
    # one ID class for training, 10 OOD nodes -> 4 val / 6 test
    g = labeled_graph({"id0": 20, "weird": 10})
    s = split_dataset(g, ["id0"], ["weird"], seed=1)
    ood = set(g.nodes_of_class("weird"))
    assert len(set(s.val_ids) & ood) == 4
    assert len(set(s.test_ids) & ood) == 6


def test_split_sets_are_disjoint_and_cover_labeled(rng):
    for seed in range(10):
        g = random_graph(rng, n=40, n_classes=4)
        s = split_dataset(g, ["class 0", "class 1", "class 2"], ["class 3"], seed=seed)
        all_ids = list(s.train_ids) + list(s.val_ids) + list(s.test_ids)
        assert len(all_ids) == len(set(all_ids)) == g.num_nodes


def test_split_train_only_id_classes(rng):
    g = random_graph(rng, n=50, n_classes=3)
    s = split_dataset(g, ["class 0", "class 1"], ["class 2"], seed=3)
    for i in s.train_ids:
        assert g.labels[i] in ("class 0", "class 1")
    # every OOD node lands in val or test
    for i in g.nodes_of_class("class 2"):
        assert i in set(s.val_ids) | set(s.test_ids)


def test_split_train_fraction_per_class():
    g = labeled_graph({"a": 100, "b": 40, "odd": 8})
    s = split_dataset(g, ["a", "b"], ["odd"], seed=9)
    train = set(s.train_ids)
    assert len(train & set(g.nodes_of_class("a"))) == 50
    assert len(train & set(g.nodes_of_class("b"))) == 20


def test_split_is_deterministic():
    g = labeled_graph({"a": 30, "b": 30, "o": 12})
    s1 = split_dataset(g, ["a", "b"], ["o"], seed=5)
    s2 = split_dataset(g, ["a", "b"], ["o"], seed=5)
    assert s1 == s2
    s3 = split_dataset(g, ["a", "b"], ["o"], seed=6)
    assert s1.train_ids != s3.train_ids


def test_split_record_is_its_json_document(tmp_path):
    # split.json is the dataclass's fields; reading it back gives the same
    # record, tuples and all
    s = split_dataset(labeled_graph({"a": 30, "b": 30, "o": 12}), ["a", "b"], ["o"],
                      seed=5)
    path = str(tmp_path / "split.json")
    write_json(path, dataclasses.asdict(s))
    assert SplitAssignment(**read_json(path)) == s


def test_split_excludes_unlabeled(rng):
    g = random_graph(rng, n=60, n_classes=2, unlabeled_frac=0.3)
    s = split_dataset(g, ["class 0"], ["class 1"], seed=2)
    covered = set(s.train_ids) | set(s.val_ids) | set(s.test_ids)
    for i, lab in enumerate(g.labels):
        assert (i in covered) == (lab is not None)


def test_split_rejects_tiny_id_class():
    g = labeled_graph({"a": 1, "b": 10})
    with pytest.raises(ValueError, match="need >= 2"):
        split_dataset(g, ["a"], ["b"], seed=0)


def test_split_rejects_uncovered_labels():
    g = labeled_graph({"a": 5, "b": 5, "c": 5})
    with pytest.raises(ValueError, match="not covered"):
        split_dataset(g, ["a"], ["b"], seed=0)


def test_split_rejects_overlapping_partitions():
    g = labeled_graph({"a": 5, "b": 5})
    with pytest.raises(ValueError, match="overlap"):
        split_dataset(g, ["a", "b"], ["b"], seed=0)
