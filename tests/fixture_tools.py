"""Builds the synthetic text-attributed graph, the rule-based mock LLM file,
and a ready-to-run config used by the pipeline and end-to-end tests.

The dataset is four planted clusters: two ID topics (circuit design, compiler
theory) and two OOD topics (marine biology, volcanology). OOD feature means
lean toward an ID direction so a closed-set model stays confidently wrong on
them, while node texts carry unambiguous marker words the mock LLM keys on.

The mock rule file pins every coarse-detection prompt by hash so the mock
flags true-OOD test nodes at exactly 80% recall and 90% precision, and
answers classification prompts through marker substrings.
"""

import json
import os

import numpy as np

from cfc.coarse import build_easy_reject_prompt
from cfc.gateway import mock_prompt_hash
from cfc.graph import Graph, save_matrices, split_dataset
from cfc.jsonl import write_jsonl

ID_CLASSES = ("circuit design", "compiler theory")
OOD_CLASSES = ("marine biology", "volcanology")
CLASS_SIZES = {
    "circuit design": 70,
    "compiler theory": 70,
    "marine biology": 38,
    "volcanology": 36,
}

FEATURE_DIM = 16
NOISE_SIGMA = 0.15
P_IN = 0.22
P_OUT = 0.002

_TEXTS = {
    "circuit design": ("Analysis of amplifier gain stages and gate layout "
                       "on printed substrates, study {i}."),
    "compiler theory": ("On parser construction and register allocation in "
                        "optimizing translators, study {i}."),
    "marine biology": ("Field survey of deep-sea coral ecosystems and "
                       "plankton distribution, study {i}."),
    "volcanology": ("Observations of magma chambers and eruption dynamics "
                    "at active vents, study {i}."),
}

# detection verdicts for flagged OOD nodes cycle through spelling variants of
# the true topic so the merge step has something to collapse
_CATEGORY_VARIANTS = {
    "marine biology": ("marine biology", "marine-biology", "Marine Biology"),
    "volcanology": ("volcanology", "volcanology", "Volcanology"),
}

# one-off categories attached to the false-positive detections; each appears
# once, so the merge step's min_count filter discards them
_FP_CATEGORIES = ("quantum devices", "micro electronics",
                  "superconductors", "type systems")

DETECT_RECALL = 0.8
DETECT_PRECISION = 0.9

# `python -c IMPORT_PROBE <command> [flags] --config <path>` runs one cfc
# command in a fresh interpreter, or, for the command "validate" (with no
# flags), only cfc.cli.validate_config; its last stdout line is the exit
# code and the numpy and scipy modules the command left loaded
IMPORT_PROBE = (
    "import sys, cfc.cli\n"
    "if sys.argv[1] == 'validate':\n"
    "    cfc.cli.validate_config(sys.argv[3])\n"
    "    code = 0\n"
    "else:\n"
    "    code = cfc.cli.main(sys.argv[1:])\n"
    "print((code, sorted(m for m in sys.modules\n"
    "                    if m.split('.')[0] in ('numpy', 'scipy'))))\n")


def _class_means():
    m = {name: np.zeros(FEATURE_DIM) for name in CLASS_SIZES}
    m["circuit design"][0] = 1.0
    m["compiler theory"][1] = 1.0
    m["marine biology"][0] = 0.9
    m["marine biology"][2] = 0.55
    m["volcanology"][1] = 0.9
    m["volcanology"][3] = 0.55
    return m


def build_graph(seed: int = 0) -> tuple[Graph, np.ndarray]:
    """The graph and its (N, FEATURE_DIM) feature matrix."""
    rng = np.random.default_rng(seed)
    order = list(ID_CLASSES) + list(OOD_CLASSES)
    labels, texts = [], []
    for name in order:
        for i in range(CLASS_SIZES[name]):
            labels.append(name)
            texts.append(_TEXTS[name].format(i=i))
    n = len(labels)

    means = _class_means()
    features = np.empty((n, FEATURE_DIM))
    for i, name in enumerate(labels):
        features[i] = means[name] + NOISE_SIGMA * rng.standard_normal(FEATURE_DIM)

    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            p = P_IN if labels[i] == labels[j] else P_OUT
            if rng.random() < p:
                edges.append((i, j))

    return Graph(
        num_nodes=n,
        edges=tuple(edges),
        node_text=tuple(texts),
        labels=tuple(labels),
    ), features


def _detection_response(flagged: bool, category: str = "") -> str:
    if flagged:
        return json.dumps([{"answer": "False", "confidence": 0.9,
                            "category": category}])
    return json.dumps([{"answer": "True", "confidence": 0.9}])


def build_mock_rules(g: Graph, seed: int = 0) -> list[dict]:
    """Hash-pinned coarse verdicts for every test node plus marker-substring
    classification answers. Selection of flagged nodes is deterministic."""
    split = split_dataset(g, ID_CLASSES, OOD_CLASSES, seed)
    ood_test = sorted(i for i in split.test_ids if g.labels[i] in OOD_CLASSES)
    id_test = sorted(i for i in split.test_ids if g.labels[i] in ID_CLASSES)

    n_true = round(DETECT_RECALL * len(ood_test))
    n_false = round(n_true * (1.0 - DETECT_PRECISION) / DETECT_PRECISION)
    rng = np.random.default_rng(seed + 1000)
    flagged_ood = set(rng.choice(ood_test, size=n_true, replace=False).tolist())
    flagged_id = sorted(rng.choice(id_test, size=n_false, replace=False).tolist())

    rules = []
    for i in sorted(split.test_ids):
        prompt = build_easy_reject_prompt(g.node_text[i], ID_CLASSES)
        if i in flagged_ood:
            variants = _CATEGORY_VARIANTS[g.labels[i]]
            resp = _detection_response(True, variants[i % len(variants)])
        elif i in flagged_id:
            resp = _detection_response(True,
                                       _FP_CATEGORIES[flagged_id.index(i)
                                                      % len(_FP_CATEGORIES)])
        else:
            resp = _detection_response(False)
        rules.append({"match": "hash:" + mock_prompt_hash(prompt),
                      "response": resp})

    classify = [
        ("coral", "marine biology", 0.9),
        ("magma", "volcanology", 0.85),
        ("amplifier", "circuit boards", 0.4),
        ("parser", "compiler internals", 0.4),
    ]
    for marker, answer, conf in classify:
        rules.append({"match": f"substr:{marker}",
                      "response": json.dumps([{"answer": answer,
                                               "confidence": conf}])})
    # safety net so an unexpected prompt never hard-fails the mock
    rules.append({"match": "substr:",
                  "response": json.dumps([{"answer": "unknown",
                                           "confidence": 0.1}])})
    return rules


def build_denoise_fixture(seed: int = 7):
    """Three planted clusters for exercising candidate denoising.

    60 nodes: two ID clusters (0-19 labeled "alpha", 20-39 "beta") and one
    OOD cluster (40-59, "gamma"). The OOD candidate set is every gamma node
    plus ten planted false positives (the last five nodes of each ID
    cluster). Returns (graph, train_labels, candidates, planted_fp, true_ood).
    """
    rng = np.random.default_rng(seed)
    sizes = (("alpha", 20), ("beta", 20), ("gamma", 20))
    labels = [name for name, k in sizes for _ in range(k)]
    edges = []
    for i in range(60):
        for j in range(i + 1, 60):
            p = 0.35 if labels[i] == labels[j] else 0.01
            if rng.random() < p:
                edges.append((i, j))
    g = Graph(
        num_nodes=60,
        edges=tuple(edges),
        node_text=tuple(f"{labels[i]} document {i}" for i in range(60)),
        labels=tuple(labels),
    )
    train_labels = {i: 0 for i in range(8)}
    train_labels.update({i: 1 for i in range(20, 28)})
    planted_fp = tuple(range(15, 20)) + tuple(range(35, 40))
    true_ood = tuple(range(40, 60))
    candidates = planted_fp + true_ood
    return g, train_labels, candidates, planted_fp, true_ood


def save_graph(g: Graph, nodes_path: str, edges_path: str) -> None:
    """Inverse of cfc.graph.load_graph: load_graph(save_graph(g)) reproduces g."""
    write_jsonl(nodes_path, ({"id": i, "text": g.node_text[i], "label": g.labels[i]}
                             for i in range(g.num_nodes)))
    write_jsonl(edges_path, ({"src": a, "dst": b} for a, b in g.edges))


def write_fixture(dir_path: str, seed: int = 0, config_overrides: dict | None = None) -> dict:
    """Materialize dataset, mock rules, and config under dir_path.

    Returns the paths of everything written. config_overrides merges over the
    default config blocks (shallow, per top-level key).
    """
    os.makedirs(dir_path, exist_ok=True)
    g, features = build_graph(seed)
    paths = {
        "nodes": os.path.join(dir_path, "nodes.jsonl"),
        "edges": os.path.join(dir_path, "edges.jsonl"),
        "features": os.path.join(dir_path, "features.bin"),
        "mock": os.path.join(dir_path, "mock_fixture.jsonl"),
        "config": os.path.join(dir_path, "config.json"),
        "artifacts": os.path.join(dir_path, "artifacts"),
    }
    save_graph(g, paths["nodes"], paths["edges"])
    save_matrices(paths["features"], features)
    with open(paths["mock"], "w", encoding="utf-8") as fh:
        for rule in build_mock_rules(g, seed):
            fh.write(json.dumps(rule, ensure_ascii=False) + "\n")

    config = {
        "seed": seed,
        "dataset": {"nodes": "nodes.jsonl", "edges": "edges.jsonl",
                    "features": "features.bin"},
        "split": {"id_classes": list(ID_CLASSES),
                  "ood_classes": list(OOD_CLASSES)},
        "gateway": {"mode": "mock", "mock_fixture_path": "mock_fixture.jsonl"},
        "artifacts_dir": "artifacts",
    }
    for key, value in (config_overrides or {}).items():
        if isinstance(value, dict) and isinstance(config.get(key), dict):
            config[key] = {**config[key], **value}
        else:
            config[key] = value
    with open(paths["config"], "w", encoding="utf-8") as fh:
        json.dump(config, fh, indent=2)
        fh.write("\n")
    return paths
