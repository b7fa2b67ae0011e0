import builtins
import json
import os
import pathlib

import numpy as np
import pytest

from cfc.coarse import TEMPLATE_NAMES
from cfc.graph import Graph, canonical_edges


def random_graph(rng, n=None, p=0.2, n_classes=3, unlabeled_frac=0.0):
    """Random undirected graph with class labels, for oracle-style tests."""
    if n is None:
        n = int(rng.integers(2, 25))
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                edges.append((i, j))
    names = tuple(f"class {k}" for k in range(n_classes))
    labels = []
    for _ in range(n):
        if unlabeled_frac and rng.random() < unlabeled_frac:
            labels.append(None)
        else:
            labels.append(names[int(rng.integers(n_classes))])
    texts = tuple(f"node {i} text" for i in range(n))
    return Graph(
        num_nodes=n,
        edges=canonical_edges(edges),
        node_text=texts,
        labels=tuple(labels),
    )


def write_jsonl(path, records):
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec, ensure_ascii=False) + "\n")
    return str(path)


@pytest.fixture
def rng():
    return np.random.default_rng(0)


@pytest.fixture
def template_reads(monkeypatch):
    """File names of the prompt templates opened during the test, in order."""
    names = {name + ".txt" for name in TEMPLATE_NAMES}
    reads = []
    path_open, plain_open = pathlib.Path.open, builtins.open

    def counting_path_open(self, *args, **kwargs):
        if self.name in names:
            reads.append(self.name)
        return path_open(self, *args, **kwargs)

    def counting_open(file, *args, **kwargs):
        if isinstance(file, (str, os.PathLike)) and os.path.basename(file) in names:
            reads.append(os.path.basename(file))
        return plain_open(file, *args, **kwargs)

    monkeypatch.setattr(pathlib.Path, "open", counting_path_open)
    monkeypatch.setattr(builtins, "open", counting_open)
    return reads
