"""Seeded input generator for the two benchmark workloads.

generate(workload, seed, out_dir) writes everything the program receives:
the dataset (nodes.jsonl, edges.jsonl, features.bin), the mock rule file
(cora-mock) or the stub's answer plan (text-live), and config.json. It also
writes oracle.json, which holds what the generator planned (true labels, the
screening verdict of every node, the class behind every category name). The
output checker reads only the oracle and the program's artifacts; it never
compares against the program's own earlier output.

The same (workload, seed) always gives the same bytes. Category names of
different classes share no tokens, so no merge group ever mixes two classes;
spelling variants of one class differ only in case, punctuation and
separators, so they tokenize alike and merge; every one-off name is dropped
by the merge's min_count rule.
"""

from __future__ import annotations

import itertools
import json
import os
import struct

import numpy as np

FEATURE_MAGIC = b"CFCF"

# name, node count, role. Cora's class sizes; names chosen so no two classes
# share a token.
CORA_CLASSES = (
    ("neural networks", 818, "id"),
    ("probabilistic methods", 426, "id"),
    ("genetic algorithms", 418, "id"),
    ("learning theory", 351, "id"),
    ("case based reasoning", 298, "ood"),
    ("reinforcement control", 217, "ood"),
    ("rule induction", 180, "ood"),
)
CORA_DIM = 1433
CORA_EDGES = 5400
CORA_WORDS = 18            # bag-of-words ones, drawn from the class's block

TEXT_CLASSES = (
    ("quantum computing", 400, "id"),
    ("protein folding", 400, "id"),
    ("deep sea ecology", 350, "ood"),
    ("volcanic eruption dynamics", 350, "ood"),
)
TEXT_DIM = 16
TEXT_EDGES = 2000
TEXT_WORDS = 600
TEXT_NOISE_SIGMA = 0.1
TEXT_MEAN = 3.0

# separators and decorations for spelling variants; all of them are
# non-alphanumeric, so every variant tokenizes to the class's own tokens
_SEPS = (" ", "-", "/", "_", " - ", ", ", " & ", "+", ": ", "; ", ".")
_DECOR = ("{}", "{}.", "({})", '"{}"', "*{}*", "{}!", "[{}]", "{} ")
_CASES = (str.lower, str.title, str.upper)

# words in the node texts that the cora-mock classification rules key on;
# none of them is a substring of a label or of a prompt template
_CORA_MARKERS = {
    "neural networks": "synapsenet",
    "probabilistic methods": "bayesgraph",
    "genetic algorithms": "crossoverpool",
    "learning theory": "pacbound",
    "case based reasoning": "casebank",
    "reinforcement control": "rewardloop",
    "rule induction": "ruleset",
}

# The edit moves merge.sim_threshold 0.5 -> 0.6. A share of this class's nodes
# is named with two extra tokens; the TF-IDF cosine between the short and the
# long spellings then lies near 0.55 (0.51-0.585 over seeds 1-30), so the two
# merge at 0.5 and split at 0.6. Those nodes are also labelled with the long
# name, so the edit changes ood_assignments.jsonl and with it eval's inputs.
SPLIT_CLASS = "reinforcement control"
SPLIT_EXTRA = "policy search"
SPLIT_SHARE = 0.2
SPLIT_MARKER = "policyroll"

_FILLER = ("the", "of", "and", "we", "a", "results", "method", "data",
           "analysis", "study", "model", "show", "using", "observed", "this",
           "paper", "in", "for", "with", "new", "approach", "measured")


def spelling_variants(name: str) -> list[str]:
    """Distinct raw spellings of one category name: separators between the
    words, a decoration around the phrase, and letter case."""
    words = name.split()
    out = []
    for seps in itertools.product(_SEPS, repeat=len(words) - 1):
        phrase = words[0] + "".join(s + w for s, w in zip(seps, words[1:]))
        for decor in _DECOR:
            for case in _CASES:
                out.append(case(decor.format(phrase)))
    return out


def _one_off_category(node: int) -> str:
    # one token, unique per node: cosine 0 with every other name
    return f"offtopic{node:05d}"


def _labels(classes, rng) -> list[str]:
    labels = [name for name, count, _ in classes for _ in range(count)]
    return [labels[k] for k in rng.permutation(len(labels))]


def _edges(labels: list[str], target: int, rng) -> np.ndarray:
    """Unique undirected edges (src < dst), each joining two nodes of one
    class. With no cross-class edge, validation accuracy peaks at the first
    epoch, so every GCN stops at epoch 31 on every seed and the cold run
    measures per-epoch cost rather than how late a few hard nodes happen to
    flip (with 15% cross-class edges the epoch total ranged 95-155)."""
    n = len(labels)
    by_class: dict[str, np.ndarray] = {}
    for name in sorted(set(labels)):
        by_class[name] = np.array([i for i in range(n) if labels[i] == name])
    seen: set[tuple[int, int]] = set()
    while len(seen) < target:
        u = int(rng.integers(n))
        pool = by_class[labels[u]]
        v = int(pool[rng.integers(len(pool))])
        if u != v:
            seen.add((min(u, v), max(u, v)))
    return np.array(sorted(seen), dtype=np.int64)


def _write_dataset(out_dir: str, texts, labels, edges, features) -> None:
    with open(os.path.join(out_dir, "nodes.jsonl"), "w", encoding="utf-8") as fh:
        for i, (text, lab) in enumerate(zip(texts, labels)):
            fh.write(json.dumps({"id": i, "text": text, "label": lab}) + "\n")
    with open(os.path.join(out_dir, "edges.jsonl"), "w", encoding="utf-8") as fh:
        for a, b in edges:
            fh.write(f'{{"src": {int(a)}, "dst": {int(b)}}}\n')
    feats = np.ascontiguousarray(features, dtype="<f8")
    with open(os.path.join(out_dir, "features.bin"), "wb") as fh:
        fh.write(FEATURE_MAGIC)
        fh.write(struct.pack("<II", *feats.shape))
        fh.write(feats.tobytes(order="C"))


def _write_json(path: str, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=1, sort_keys=True)
        fh.write("\n")


def _base_config(seed: int, classes) -> dict:
    return {
        "seed": seed,
        "dataset": {"nodes": "nodes.jsonl", "edges": "edges.jsonl",
                    "features": "features.bin"},
        "split": {"id_classes": [n for n, _, r in classes if r == "id"],
                  "ood_classes": [n for n, _, r in classes if r == "ood"]},
        # the checker reads these, so they are spelled out, not defaulted
        "mixup": {"alpha": 0.5, "boundary_count": 10, "synth_count": 100},
        "merge": {"sim_threshold": 0.5},
        "artifacts_dir": "artifacts",
    }


# ------------------------------------------------------------------ cora-mock

def _cora_plan(labels, long_form, rng) -> list[dict]:
    """Screening verdict per node, independent of the program's split."""
    ood = {n for n, _, r in CORA_CLASSES if r == "ood"}
    variants = {n: spelling_variants(n) for n in ood}
    variants["long"] = spelling_variants(f"{SPLIT_CLASS} {SPLIT_EXTRA}")
    plan = []
    for i, lab in enumerate(labels):
        u = rng.random()
        if lab in ood and u < 0.85:
            names = variants["long" if long_form[i] else lab]
            plan.append({"is_id": False, "confidence": 0.9,
                         "category": names[int(rng.integers(len(names)))]})
        elif lab not in ood and u < 0.03:
            plan.append({"is_id": False, "confidence": 0.9,
                         "category": _one_off_category(i)})
        elif lab not in ood and u < 0.05:
            # rejected below the screening threshold: logged, never flagged
            plan.append({"is_id": False, "confidence": 0.6,
                         "category": _one_off_category(i)})
        else:
            plan.append({"is_id": True, "confidence": 0.95, "category": ""})
    return plan


def _verdict_text(v: dict) -> str:
    rec = {"answer": "True" if v["is_id"] else "False",
           "confidence": v["confidence"]}
    if not v["is_id"]:
        rec["category"] = v["category"]
    return json.dumps([rec])


def generate_cora_mock(seed: int, out_dir: str) -> dict:
    from cfc.coarse import build_easy_reject_prompt
    from cfc.gateway import mock_prompt_hash

    rng = np.random.default_rng([seed, 1])
    labels = _labels(CORA_CLASSES, rng)
    n = len(labels)
    class_pos = {name: k for k, (name, _, _) in enumerate(CORA_CLASSES)}
    block = CORA_DIM // len(CORA_CLASSES)
    features = np.zeros((n, CORA_DIM))
    for i, lab in enumerate(labels):
        lo = class_pos[lab] * block
        features[i, rng.choice(block, size=CORA_WORDS, replace=False) + lo] = 1.0
    edges = _edges(labels, CORA_EDGES, rng)
    long_form = [lab == SPLIT_CLASS and rng.random() < SPLIT_SHARE
                 for lab in labels]
    texts = [f"Paper n{i:05d} reports "
             f"{SPLIT_MARKER if long_form[i] else _CORA_MARKERS[lab]} "
             f"experiments, study {i}." for i, lab in enumerate(labels)]
    plan = _cora_plan(labels, long_form, rng)
    _write_dataset(out_dir, texts, labels, edges, features)

    id_classes = [c for c, _, r in CORA_CLASSES if r == "id"]
    rules = []
    for i in range(n):
        prompt = build_easy_reject_prompt(texts[i], id_classes)
        rules.append({"match": "hash:" + mock_prompt_hash(prompt),
                      "response": _verdict_text(plan[i])})
    answers = [(_CORA_MARKERS[name], name.title() if role == "ood" else "unsure")
               for name, _, role in CORA_CLASSES]
    answers.append((SPLIT_MARKER, f"{SPLIT_CLASS} {SPLIT_EXTRA}".title()))
    for marker, answer in answers:
        rules.append({"match": "substr:" + marker,
                      "response": json.dumps([{"answer": answer,
                                               "confidence": 0.9}])})
    with open(os.path.join(out_dir, "mock_fixture.jsonl"), "w",
              encoding="utf-8") as fh:
        for rule in rules:
            fh.write(json.dumps(rule) + "\n")

    config = _base_config(seed, CORA_CLASSES)
    config["gateway"] = {"mode": "mock",
                         "mock_fixture_path": "mock_fixture.jsonl"}
    _write_json(os.path.join(out_dir, "config.json"), config)
    return {"labels": labels, "plan": plan, "mode": "easy_reject",
            "thresholds": {"cold": 0.7, "edit": 0.7},
            "edit": {"merge": {"sim_threshold": 0.6}}}


# ------------------------------------------------------------------ text-live

_TEXT_VOCAB = {
    "quantum computing": ("qubit", "entanglement", "superposition", "gate",
                          "decoherence", "circuit", "hamiltonian", "photon",
                          "annealer", "error", "correction", "topological"),
    "protein folding": ("residue", "helix", "sheet", "chaperone", "backbone",
                        "hydrophobic", "conformation", "ligand", "amino",
                        "tertiary", "misfolding", "domain"),
    "deep sea ecology": ("benthic", "trench", "hydrothermal", "abyssal",
                         "coral", "plankton", "sediment", "vent", "octopus",
                         "bioluminescence", "seamount", "whale"),
    "volcanic eruption dynamics": ("magma", "caldera", "lava", "tephra",
                                   "pyroclastic", "plume", "basalt", "crater",
                                   "fissure", "ash", "degassing", "dike"),
}
_MAJOR = "natural science"
_CANDIDATES = ("deep sea ecology", "volcanic eruption dynamics",
               "glacier mass balance", "seismic tomography",
               "tropical forest canopy", "river delta sediment",
               "stellar nucleosynthesis", "soil microbiome",
               "coastal erosion", "atmospheric chemistry")
# screening confidences straddle the edit's thresholds 0.7 -> 0.8
_OOD_CONF = (0.72, 0.76, 0.84, 0.92)
_FP_CONF = (0.74, 0.78, 0.86)


def _long_text(i: int, lab: str, rng) -> str:
    vocab = _TEXT_VOCAB[lab]
    own = rng.integers(len(vocab), size=TEXT_WORDS)
    filler = rng.integers(len(_FILLER), size=TEXT_WORDS)
    pick_own = rng.random(TEXT_WORDS) < 0.5
    words = [vocab[o] if p else _FILLER[f]
             for o, f, p in zip(own, filler, pick_own)]
    return f"[n{i:05d}] " + " ".join(words)


def generate_text_live(seed: int, out_dir: str, max_concurrent: int) -> dict:
    rng = np.random.default_rng([seed, 2])
    labels = _labels(TEXT_CLASSES, rng)
    n = len(labels)
    class_pos = {name: k for k, (name, _, _) in enumerate(TEXT_CLASSES)}
    features = TEXT_NOISE_SIGMA * rng.standard_normal((n, TEXT_DIM))
    for i, lab in enumerate(labels):
        features[i, class_pos[lab]] += TEXT_MEAN
    edges = _edges(labels, TEXT_EDGES, rng)
    texts = [_long_text(i, lab, rng) for i, lab in enumerate(labels)]
    _write_dataset(out_dir, texts, labels, edges, features)

    ood = {nm for nm, _, r in TEXT_CLASSES if r == "ood"}
    variants = {nm: spelling_variants(nm) for nm in ood}
    plan = []
    for i, lab in enumerate(labels):
        u = rng.random()
        if lab in ood and u < 0.9:
            names = variants[lab]
            plan.append({"is_id": False,
                         "confidence": _OOD_CONF[int(rng.integers(4))],
                         "category": names[int(rng.integers(len(names)))]})
        elif lab not in ood and u < 0.06:
            plan.append({"is_id": False,
                         "confidence": _FP_CONF[int(rng.integers(3))],
                         "category": _one_off_category(i)})
        else:
            plan.append({"is_id": True, "confidence": 0.9, "category": ""})
    # classification answers: a spelling variant of the true OOD class, or
    # the node's own ID class name (off-space, snapped by the program)
    classify = [variants[lab][int(rng.integers(len(variants[lab])))]
                if lab in ood else lab for lab in labels]
    _write_json(os.path.join(out_dir, "stub_plan.json"), {
        "major": _MAJOR, "candidates": list(_CANDIDATES),
        "screen": [_verdict_text(v) for v in plan],
        "classify": classify,
    })

    config = _base_config(seed, TEXT_CLASSES)
    config["coarse"] = {"mode": "hard_reject", "confidence_threshold": 0.7}
    # base_url comes from CFC_LLM_BASE_URL: the stub's port is picked at
    # run time and must not enter the stage hashes
    config["gateway"] = {"mode": "live", "model_name": "stub-model",
                         "max_concurrent": max_concurrent}
    _write_json(os.path.join(out_dir, "config.json"), config)
    return {"labels": labels, "plan": plan, "mode": "hard_reject",
            "thresholds": {"cold": 0.7, "edit": 0.8},
            "edit": {"coarse": {"confidence_threshold": 0.8}}}


def generate(workload: str, seed: int, out_dir: str,
             max_concurrent: int = 2) -> dict:
    """Write the workload's inputs under out_dir; returns the oracle."""
    os.makedirs(out_dir, exist_ok=True)
    if workload == "cora-mock":
        oracle = generate_cora_mock(seed, out_dir)
    elif workload == "text-live":
        oracle = generate_text_live(seed, out_dir, max_concurrent)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    classes = CORA_CLASSES if workload == "cora-mock" else TEXT_CLASSES
    oracle["id_classes"] = [n for n, _, r in classes if r == "id"]
    oracle["ood_classes"] = [n for n, _, r in classes if r == "ood"]
    oracle["workload"] = workload
    oracle["seed"] = seed
    _write_json(os.path.join(out_dir, "oracle.json"), oracle)
    return oracle
