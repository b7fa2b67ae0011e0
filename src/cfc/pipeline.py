"""Staged, resumable orchestration of the full open-set pipeline.

A run is nine stages over one artifacts directory:

    ingest        load the graph, draw the train/val/test split
    coarse        LLM screening of test nodes for OOD suspects
    denoise       label propagation prunes false OOD candidates
    train-prelim  closed-set GCN on the ID training nodes, and the
                  sigmoid-head GCN of the threshold baselines; records
                  both models' class probabilities for every node
    augment       mixup synthesis of OOD rows in hidden space
    train-fine    (C+1)-class GCN with the synthetic OOD samples
    detect        fine-model predictions + OOD scores on test nodes
    classify-ood  merge logged categories, LLM-label the detected set
    eval          scores the pipeline, and the threshold baselines from
                  the recorded probabilities (no features, no checkpoint)

Each stage is declared once, in the _STAGES table: its function, the
config keys it reads, the artifacts it consumes and those it writes; the
stage order and each stage's upstream stages follow from it. A stage
records in manifest.json a hash of everything it read (its scoped config,
dataset bytes, consumed artifacts) and the sha256 of each file it wrote. It
is skipped when that input hash matches and every output it writes still
has its recorded sha256, so LLM-backed stages never recompute by accident,
an output cut or edited by hand is rebuilt, and an edit to screening or
merging reruns eval without retraining a model or reading the features.
The manifest's "files" block remembers each file's sha256 beside its stat,
so a rerun reads only the files whose stat changed or that were changed
too close to their hashing to trust it (see _Runtime.file_hash); a pass
that read a file again and can now trust its hash saves the manifest once
more. In live mode the gateway also keeps every parsed reply in
llm_cache.jsonl, so a rerun after an edit or a crash asks the endpoint
only for prompts it has not answered yet. The config is checked by
cfc.config; a stage that runs echoes it, every default made explicit, to
resolved.json beside the manifest that records its hash.

Artifacts are written through cfc.jsonl's atomic writer, so a killed run
never leaves a torn file that the cache would take for done.
"""

from __future__ import annotations

import fcntl
import hashlib
import json
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, replace
from datetime import datetime, timezone
from typing import Callable

import numpy as np

from . import __version__
from .coarse import TEMPLATE_NAMES, CoarseDetectError, coarse_detect, \
    load_coarse_result, save_coarse_result
# validate_config is re-exported: the CLI and callers import it from here
from .config import SEED_OFFSETS, ConfigError, RunConfig, validate_config
from .denoise import denoise_ood, initial_label_matrix, label_propagate, \
    load_synthetic, mixup_augment, ood_center, save_synthetic, \
    select_boundary_nodes
from .gateway import GatewayError, LLMGateway
from .gcn import TrainingDiverged, hidden_states, load_checkpoint, predict, \
    save_checkpoint, train
from .graph import Graph, load_features, load_graph, rw_normalize_adjacency, \
    save_features, split_dataset, sym_normalize_adjacency, SplitAssignment
from .jsonl import read_json, read_jsonl, remove_orphaned_temp_files, \
    write_json, write_jsonl
from .labelspace import classify_ood, cluster_accuracy, \
    load_assignments, merge_categories, save_assignments, \
    save_post_label_space
from .metrics import accuracy_report, auroc, threshold_baseline, \
    tune_threshold

SPLIT_FILE = "split.json"
COARSE_FILE = "coarse.jsonl"
COARSE_LOG_FILE = "coarse_exchanges.jsonl"
DENOISED_FILE = "denoised.jsonl"
SYNTH_BIN_FILE = "synth.bin"
SYNTH_META_FILE = "synth.jsonl"
PRELIM_CKPT = "prelim.ckpt"
BASELINE_CKPT = "baseline.ckpt"
BASELINE_PROBS_FILE = "baseline_probs.bin"
FINE_CKPT = "fine.ckpt"
DETECT_FILE = "detect.jsonl"
POST_LABELS_FILE = "post_labels.json"
ASSIGN_FILE = "ood_assignments.jsonl"
CLASSIFY_LOG_FILE = "classify_exchanges.jsonl"
EVAL_FILE = "eval.json"
LLM_CACHE_FILE = "llm_cache.jsonl"
MANIFEST_FILE = "manifest.json"
RESOLVED_FILE = "resolved.json"
LOCK_FILE = ".lock"

SIGMOID_FIXED_TAU = 0.5

# A remembered sha256 is trusted only for a file whose last change (ctime)
# came at least this long before the hash was taken: a change made later, in
# the same timestamp tick, could leave the stat as it was (git's "racily
# clean" rule). Two seconds cover filesystems with 1 s timestamps.
RACY_WINDOW_NS = 2_000_000_000

# The model input X is multiplied as a CSR copy when at most this share of
# its entries is nonzero (bag-of-words features). Denser X stays an array:
# there a BLAS product beats the sparse one several times over.
SPARSE_FEATURE_DENSITY = 0.10

METHOD_ORDER = ("CFC", "GCN_softmax", "GCN_softmax_tau",
                "GCN_sigmoid", "GCN_sigmoid_tau")


class StageError(RuntimeError):
    """A stage failed while executing."""


# ------------------------------------------------------------------ hashing

def _file_hash(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _json_hash(obj) -> str:
    payload = json.dumps(obj, sort_keys=True).encode("utf-8")
    return hashlib.sha256(payload).hexdigest()


def full_config_hash(rc: RunConfig) -> str:
    return _json_hash(rc.resolved)


# ------------------------------------------------------------------ stages

# the gateway settings that can change a reply; the mock fixture's content
# is hashed separately, and the rest (URL, timeouts, concurrency) cannot
_REPLY = ("gateway.mode", "gateway.model_name", "gateway.temperature")


def _lookup(resolved: dict, path: str):
    for part in path.split("."):
        resolved = resolved[part]
    return resolved


def _scoped_config(rc: RunConfig, stage: str) -> dict:
    def value(path):
        if isinstance(path, tuple):
            return {p.rsplit(".", 1)[1]: _lookup(rc.resolved, p) for p in path}
        return _lookup(rc.resolved, path)
    return {name: value(path) for name, path in _STAGES[stage].reads.items()}


def _stage_inputs(rt: _Runtime, stage: str) -> dict:
    rc, spec = rt.rc, _STAGES[stage]
    inputs = {"config": _json_hash(_scoped_config(rc, stage)),
              "dataset": _json_hash([rt.file_hash(path) for path in (
                  rc.dataset.nodes, rc.dataset.edges, rc.dataset.features)])}
    for name in spec.consumes:
        inputs[name] = rt.file_hash(rc.artifact(name))
    uses_gateway = "gateway" in spec.reads
    if uses_gateway and rc.gateway.mode == "mock":
        inputs["mock_fixture"] = rt.file_hash(rc.gateway.mock_fixture_path)
    if uses_gateway and rc.coarse.template_dir is not None:
        files = (name + ".txt" for name in TEMPLATE_NAMES)
        paths = {f: os.path.join(rc.coarse.template_dir, f) for f in files}
        inputs["templates"] = _json_hash({f: rt.file_hash(path) for f, path
                                          in paths.items() if os.path.isfile(path)})
    return inputs


class _Runtime:
    """Per-command cache of expensive shared state (file hashes, graph,
    features, split, A-hat, model input), each loaded on first use: graph
    reads only nodes.jsonl and edges.jsonl, and features.bin is read only by
    a stage that touches features or x. ingest touches features, so a bad
    feature file is rejected there. memo is the manifest's "files" block,
    path -> {"stat", "sha256", "hashed_at_ns"}; it is written with the
    manifest, when a stage executes or when memo_refreshed is set."""

    def __init__(self, rc: RunConfig, memo: dict | None = None):
        self.rc = rc
        self._memo = {} if memo is None else memo
        self._hashes: dict[str, str] = {}
        # set when a file was read again and its new memo entry is trusted
        self.memo_refreshed = False
        self._graph: Graph | None = None
        self._features: np.ndarray | None = None
        self._split: SplitAssignment | None = None
        self._a_hat = None
        self._x = None

    def file_hash(self, path: str, fresh: bool = False) -> str:
        """sha256 of a file, looked up once per command: only a stage writes
        in the artifacts directory, and it rehashes (fresh) what it wrote.
        The memo's sha256 stands in for reading the file when the file's
        device, inode, size, mtime and ctime all match the memo's and its
        ctime lies RACY_WINDOW_NS or more before the memo's hash was taken;
        otherwise the file is read and its memo entry replaced."""
        if fresh or path not in self._hashes:
            hashed_at = time.time_ns()          # before the stat, never after
            st = os.stat(path)
            stat = [st.st_dev, st.st_ino, st.st_size, st.st_mtime_ns, st.st_ctime_ns]
            entry = self._memo.get(path)
            if not fresh and entry is not None and entry["stat"] == stat \
                    and st.st_ctime_ns < entry["hashed_at_ns"] - RACY_WINDOW_NS:
                self._hashes[path] = entry["sha256"]
            else:
                self._hashes[path] = _file_hash(path)
                self._memo[path] = {"stat": stat, "sha256": self._hashes[path],
                                    "hashed_at_ns": hashed_at}
                if st.st_ctime_ns < hashed_at - RACY_WINDOW_NS:
                    self.memo_refreshed = True
        return self._hashes[path]

    @property
    def graph(self) -> Graph:
        """Node texts, labels and edges; the feature matrix is features."""
        if self._graph is None:
            try:
                self._graph = load_graph(self.rc.dataset.nodes, self.rc.dataset.edges)
            except ValueError as exc:
                raise ConfigError(f"dataset rejected: {exc}") from exc
        return self._graph

    @property
    def features(self) -> np.ndarray:
        if self._features is None:
            try:
                self._features = load_features(self.rc.dataset.features,
                                               self.graph.num_nodes)
            except ValueError as exc:
                raise ConfigError(f"dataset rejected: {exc}") from exc
        return self._features

    @property
    def a_hat(self):
        if self._a_hat is None:
            self._a_hat = sym_normalize_adjacency(self.graph)
        return self._a_hat

    @property
    def x(self):
        """Model input X: the feature matrix, or a CSR copy of it (see
        SPARSE_FEATURE_DENSITY)."""
        if self._x is None:
            import scipy.sparse as sp
            f = self.features
            sparse = np.count_nonzero(f) <= SPARSE_FEATURE_DENSITY * f.size
            self._x = sp.csr_array(f) if sparse else f
        return self._x

    def split(self) -> SplitAssignment:
        if self._split is None:
            split = read_json(self.rc.artifact(SPLIT_FILE))
            self._split = SplitAssignment.from_dict(split)
        return self._split

    def id_train_targets(self) -> np.ndarray:
        """Full-length target array with ID class indices on labeled ID nodes
        and -1 elsewhere (train/val restricted to ID classes)."""
        g, split = self.graph, self.split()
        cindex = split.class_index()
        y = np.full(g.num_nodes, -1, dtype=np.int64)
        for i in range(g.num_nodes):
            lab = g.labels[i]
            if lab in cindex:
                y[i] = cindex[lab]
        return y

    def id_val_ids(self) -> list[int]:
        g, split = self.graph, self.split()
        cindex = split.class_index()
        return [i for i in split.val_ids if g.labels[i] in cindex]


def _stage_ingest(rt: _Runtime) -> None:
    rc, g = rt.rc, rt.graph                # a bad dataset is not a bad split
    rt.features                            # so the features are checked here
    try:
        split = split_dataset(g, rc.split.id_classes,
                              rc.split.ood_classes, rc.seed,
                              rc.split.train_frac, rc.split.val_frac)
    except ValueError as exc:
        raise ConfigError(f"split rejected: {exc}") from exc
    write_json(rc.artifact(SPLIT_FILE), split.to_dict())
    rt._split = split


def _gateway(rc: RunConfig, log_name: str) -> LLMGateway:
    """A stage's gateway: a fresh exchange log, the shared reply cache."""
    log_path = rc.artifact(log_name)
    open(log_path, "w").close()             # exists even when nothing is asked
    return LLMGateway(rc.gateway, log_path=log_path,
                      cache_path=rc.artifact(LLM_CACHE_FILE))


def _stage_coarse(rt: _Runtime) -> None:
    rc = rt.rc
    gateway = _gateway(rc, COARSE_LOG_FILE)
    try:
        result = coarse_detect(rt.graph, rt.split().test_ids, rc.coarse,
                               gateway)
    except (GatewayError, CoarseDetectError) as exc:
        raise StageError(f"coarse detection failed: {exc}") from exc
    save_coarse_result(result, rc.artifact(COARSE_FILE))


def _load_survivors(path: str) -> tuple[int, ...]:
    """The denoised candidates that were kept."""
    return tuple(int(rec["node_id"]) for _, rec in read_jsonl(path)
                 if rec.get("kind") == "candidate" and rec["kept"])


def _stage_denoise(rt: _Runtime) -> None:
    rc = rt.rc
    g, split = rt.graph, rt.split()
    coarse = load_coarse_result(rc.artifact(COARSE_FILE))
    cindex = split.class_index()
    train_labels = {i: cindex[g.labels[i]] for i in split.train_ids}
    candidates = coarse.ood_ids

    survivors: tuple[int, ...] = ()
    if candidates:
        init = initial_label_matrix(g.num_nodes, len(split.id_classes),
                                    train_labels, candidates)
        propagated = label_propagate(rw_normalize_adjacency(g), init, rc.propagation)
        survivors = denoise_ood(propagated, candidates)

    kept = set(survivors)
    summary = {"kind": "summary", "steps": rc.propagation.steps,
               "candidate_count": len(candidates),
               "survivor_count": len(survivors)}
    write_jsonl(rc.artifact(DENOISED_FILE), [summary] + [
        {"kind": "candidate", "node_id": i, "kept": i in kept} for i in candidates])


def _stage_train_prelim(rt: _Runtime) -> None:
    """The closed-set GCN that augment reads, and the sigmoid-head GCN of
    the threshold baselines: same inputs, so trained together. Both models'
    class probabilities for every node, the prelim model's columns first,
    are recorded for eval's baselines."""
    rc = rt.rc
    split = rt.split()
    y = rt.id_train_targets()
    val_ids = rt.id_val_ids()
    models = (
        ("preliminary", PRELIM_CKPT, rc.train),
        ("sigmoid baseline", BASELINE_CKPT, replace(
            rc.train, head="sigmoid", seed=rc.seed + SEED_OFFSETS["baseline"])),
    )
    probs = []
    for what, name, cfg in models:
        try:
            params, _ = train(rt.a_hat, rt.x, y, split.train_ids, val_ids,
                              out_dim=len(split.id_classes), cfg=cfg)
        except TrainingDiverged as exc:
            raise StageError(f"{what} training diverged: {exc}") from exc
        save_checkpoint(params, rc.artifact(name))
        probs.append(predict(params, rt.a_hat, rt.x, head=cfg.head))
    save_features(rc.artifact(BASELINE_PROBS_FILE), np.hstack(probs))


def _stage_augment(rt: _Runtime) -> None:
    rc = rt.rc
    split = rt.split()
    survivors = _load_survivors(rc.artifact(DENOISED_FILE))
    if not survivors:
        raise StageError("no denoised OOD candidates survive; nothing to "
                         "augment (coarse stage found too few OOD nodes)")
    params = load_checkpoint(rc.artifact(PRELIM_CKPT))
    hidden = hidden_states(params, rt.a_hat, rt.x)
    probs = predict(params, rt.a_hat, rt.x)
    confidence = {i: float(probs[i].max()) for i in split.train_ids}
    boundary = select_boundary_nodes(confidence, rc.mixup.boundary_count)
    center = ood_center(hidden, survivors)
    synth = mixup_augment(hidden, boundary, center, rc.mixup)
    save_synthetic(synth, rc.artifact(SYNTH_BIN_FILE), rc.artifact(SYNTH_META_FILE))


def _stage_train_fine(rt: _Runtime) -> None:
    rc = rt.rc
    g, split = rt.graph, rt.split()
    survivors = _load_survivors(rc.artifact(DENOISED_FILE))
    synth = load_synthetic(rc.artifact(SYNTH_BIN_FILE), rc.artifact(SYNTH_META_FILE))
    c = len(split.id_classes)
    cindex = split.class_index()

    y = rt.id_train_targets()
    for i in survivors:
        y[i] = c
    for i in split.val_ids:
        if g.labels[i] not in cindex:
            y[i] = c
    train_ids = sorted(set(split.train_ids) | set(survivors))
    cfg = replace(rc.train, seed=rc.seed + SEED_OFFSETS["fine"])
    try:
        params, _ = train(rt.a_hat, rt.x, y, train_ids, split.val_ids,
                          out_dim=c + 1, synth=synth, cfg=cfg)
    except TrainingDiverged as exc:
        raise StageError(f"fine training diverged: {exc}") from exc
    save_checkpoint(params, rc.artifact(FINE_CKPT))


def _stage_detect(rt: _Runtime) -> None:
    rc = rt.rc
    split = rt.split()
    params = load_checkpoint(rc.artifact(FINE_CKPT))
    probs = predict(params, rt.a_hat, rt.x)
    ood_index = probs.shape[1] - 1
    write_jsonl(rc.artifact(DETECT_FILE), (
        {"node_id": i, "pred": int(np.argmax(probs[i])),
         "ood_score": float(probs[i, ood_index])} for i in sorted(split.test_ids)))


def _stage_classify_ood(rt: _Runtime) -> None:
    rc = rt.rc
    coarse = load_coarse_result(rc.artifact(COARSE_FILE))
    if not coarse.category_log:
        raise StageError("coarse stage logged no OOD categories; cannot build "
                         "a label space")
    try:
        post = merge_categories(coarse.category_log, rc.merge.sim_threshold,
                                rc.merge.min_count)
    except ValueError as exc:
        raise StageError(f"category merge failed: {exc}") from exc
    save_post_label_space(post, rc.artifact(POST_LABELS_FILE))

    c = len(rt.split().id_classes)
    ood_nodes = [r["node_id"] for _, r in read_jsonl(rc.artifact(DETECT_FILE))
                 if r["pred"] == c]

    gateway = _gateway(rc, CLASSIFY_LOG_FILE)
    assignments = ()
    if ood_nodes:
        try:
            assignments = classify_ood(
                ood_nodes, rt.graph, post, gateway,
                text_budget=rc.coarse.text_budget,
                template_dir=rc.coarse.template_dir,
                max_parse_retries=rc.coarse.max_parse_retries)
        except GatewayError as exc:
            raise StageError(f"OOD classification failed: {exc}") from exc
    save_assignments(assignments, rc.artifact(ASSIGN_FILE))


def _baseline_report(probs: np.ndarray, test_ids, truth: dict, tau: float,
                     mode: str, ood_index: int):
    # probs has one column per ID class, so threshold_baseline's reject
    # index (the column count) coincides with the pipeline's OOD index
    preds_arr = threshold_baseline(probs, mode, tau)
    preds = {node: int(preds_arr[k]) for k, node in enumerate(test_ids)}
    scores = {node: 1.0 - float(probs[k].max()) for k, node in enumerate(test_ids)}
    return accuracy_report(preds, truth, ood_index,
                           auroc_value=_safe_auroc(scores, truth, ood_index))


def _safe_auroc(scores: dict, truth: dict, ood_index: int):
    flags = {n: truth[n] == ood_index for n in scores}
    if all(flags.values()) or not any(flags.values()):
        return None
    return auroc(scores, flags)


def _stage_eval(rt: _Runtime) -> None:
    rc = rt.rc
    g, split = rt.graph, rt.split()
    c = len(split.id_classes)
    cindex = split.class_index()
    test_ids = sorted(split.test_ids)
    truth = {i: cindex.get(g.labels[i], c) for i in test_ids}

    detect_records = [r for _, r in read_jsonl(rc.artifact(DETECT_FILE))]
    cfc_preds = {r["node_id"]: r["pred"] for r in detect_records}
    cfc_scores = {r["node_id"]: r["ood_score"] for r in detect_records}
    cfc = accuracy_report(cfc_preds, truth, c,
                          auroc_value=_safe_auroc(cfc_scores, truth, c))

    assignments = load_assignments(rc.artifact(ASSIGN_FILE))
    ood_pairs = [(a.node_id, a.label) for a in assignments
                 if truth.get(a.node_id) == c]
    cluster = (cluster_accuracy(ood_pairs, {n: g.labels[n] for n, _ in ood_pairs})
               if ood_pairs else None)

    probs = load_features(rc.artifact(BASELINE_PROBS_FILE), g.num_nodes)
    probs_soft, probs_sig = probs[:, :c], probs[:, c:]

    val_ids = sorted(split.val_ids)
    truth_val = np.array([cindex.get(g.labels[i], c) for i in val_ids])
    tau_soft, _ = tune_threshold(probs_soft[val_ids], truth_val, "softmax")
    tau_sig, _ = tune_threshold(probs_sig[val_ids], truth_val, "sigmoid")

    methods = {
        "CFC": cfc,
        "GCN_softmax": _baseline_report(probs_soft[test_ids], test_ids, truth,
                                        0.0, "softmax", c),
        "GCN_softmax_tau": _baseline_report(probs_soft[test_ids], test_ids,
                                            truth, tau_soft, "softmax", c),
        "GCN_sigmoid": _baseline_report(probs_sig[test_ids], test_ids, truth,
                                        SIGMOID_FIXED_TAU, "sigmoid", c),
        "GCN_sigmoid_tau": _baseline_report(probs_sig[test_ids], test_ids,
                                            truth, tau_sig, "sigmoid", c),
    }
    doc = {
        "ood_class_index": c,
        "cluster_accuracy": cluster,
        "tuned_tau": {"softmax": tau_soft, "sigmoid": tau_sig},
        "methods": {name: rep.to_dict() for name, rep in methods.items()},
    }
    write_json(rc.artifact(EVAL_FILE), doc)


# ------------------------------------------------------------------ stage table

@dataclass(frozen=True)
class _Stage:
    """One stage: its function, the config it reads (scope name -> key path,
    or a tuple of paths for a block of just those keys), the artifacts it
    reads and those it writes. All it reads is hashed into its input; a stage
    that reads the gateway also hashes the mock fixture and the templates."""
    run: Callable[[_Runtime], None]
    reads: dict
    consumes: tuple[str, ...]
    writes: tuple[str, ...]


_STAGES = {
    "ingest": _Stage(_stage_ingest, {"seed": "seed", "split": "split"},
                     consumes=(), writes=(SPLIT_FILE,)),
    "coarse": _Stage(_stage_coarse, {"seed": "seed", "coarse": "coarse",
                                     "gateway": _REPLY, "id_classes": "split.id_classes"},
                     consumes=(SPLIT_FILE,), writes=(COARSE_FILE, COARSE_LOG_FILE)),
    "denoise": _Stage(_stage_denoise, {"propagation": "propagation"},
                      consumes=(SPLIT_FILE, COARSE_FILE), writes=(DENOISED_FILE,)),
    "train-prelim": _Stage(_stage_train_prelim, {"seed": "seed", "train": "train"},
                           consumes=(SPLIT_FILE,),
                           writes=(PRELIM_CKPT, BASELINE_CKPT, BASELINE_PROBS_FILE)),
    "augment": _Stage(_stage_augment, {"seed": "seed", "mixup": "mixup"},
                      consumes=(SPLIT_FILE, DENOISED_FILE, PRELIM_CKPT),
                      writes=(SYNTH_BIN_FILE, SYNTH_META_FILE)),
    "train-fine": _Stage(_stage_train_fine, {"seed": "seed", "train": "train"},
                         consumes=(SPLIT_FILE, DENOISED_FILE, SYNTH_BIN_FILE,
                                   SYNTH_META_FILE), writes=(FINE_CKPT,)),
    "detect": _Stage(_stage_detect, {},
                     consumes=(SPLIT_FILE, FINE_CKPT), writes=(DETECT_FILE,)),
    "classify-ood": _Stage(_stage_classify_ood, {
        "merge": "merge", "gateway": _REPLY, "text_budget": "coarse.text_budget",
        "max_parse_retries": "coarse.max_parse_retries"},
        consumes=(SPLIT_FILE, COARSE_FILE, DETECT_FILE),
        writes=(POST_LABELS_FILE, ASSIGN_FILE, CLASSIFY_LOG_FILE)),
    "eval": _Stage(_stage_eval, {},
                   consumes=(SPLIT_FILE, DETECT_FILE, ASSIGN_FILE,
                             BASELINE_PROBS_FILE), writes=(EVAL_FILE,)),
}

STAGE_ORDER = tuple(_STAGES)
_PRODUCER = {name: stage for stage, spec in _STAGES.items() for name in spec.writes}


def _upstream() -> dict[str, tuple[str, ...]]:
    """Each stage's upstream: the producers of what it consumes, and theirs,
    in stage order (a producer comes earlier, so its set is built first)."""
    ups: dict[str, set[str]] = {}
    for stage, spec in _STAGES.items():
        ups[stage] = set()
        for name in spec.consumes:
            ups[stage] |= {_PRODUCER[name]} | ups[_PRODUCER[name]]
    return {stage: tuple(s for s in STAGE_ORDER if s in u) for stage, u in ups.items()}


_UPSTREAM = _upstream()


# ------------------------------------------------------------------ manifest

def load_manifest(art_dir: str) -> dict:
    path = os.path.join(art_dir, MANIFEST_FILE)
    if not os.path.exists(path):
        return {"version": __version__, "config_hash": None, "stages": {}}
    return read_json(path)


def _save_manifest(art_dir: str, manifest: dict) -> None:
    write_json(os.path.join(art_dir, MANIFEST_FILE), manifest)


def _stage_done(rt: _Runtime, manifest: dict, stage: str) -> bool:
    """The stage has an entry, and every output the stage writes now (not
    only those the entry lists) still has the sha256 the entry recorded. An
    entry that recorded no hashes counts as not done."""
    recorded = manifest["stages"].get(stage, {}).get("outputs")
    if not isinstance(recorded, dict):
        return False
    try:
        return all(recorded.get(name) == rt.file_hash(rt.rc.artifact(name))
                   for name in _STAGES[stage].writes)
    except FileNotFoundError:
        return False


@contextmanager
def artifacts_lock(art_dir: str):
    """Exclusive ownership of an artifacts directory for one command; creates
    the directory. The lock is an flock on .lock, which the OS drops when its
    holder dies, so a killed run never blocks a later one; the file itself
    stays. Every file a command writes there, resolved.json included, is
    written while the lock is held, and once it is held the temp files of
    killed writers are removed."""
    os.makedirs(art_dir, exist_ok=True)
    path = os.path.join(art_dir, LOCK_FILE)
    fd = os.open(path, os.O_CREAT | os.O_WRONLY)
    try:
        try:
            fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except BlockingIOError:
            raise StageError(f"artifacts directory is locked by another run "
                             f"({path})") from None
        remove_orphaned_temp_files(art_dir)
        yield
    finally:
        os.close(fd)


def _execute(rt: _Runtime, stage: str, manifest: dict) -> bool:
    """Run one stage if its inputs changed; returns True when it executed."""
    rc = rt.rc
    for upstream in _UPSTREAM[stage]:
        if not _stage_done(rt, manifest, upstream):
            raise ConfigError(f"missing artifact: {upstream}")

    inputs = _stage_inputs(rt, stage)
    input_hash = _json_hash(inputs)
    if manifest["stages"].get(stage, {}).get("input_hash") == input_hash and \
            _stage_done(rt, manifest, stage):
        return False

    start = time.monotonic()
    try:
        _STAGES[stage].run(rt)
    except ConfigError:
        raise
    except ValueError as exc:           # e.g. a malformed artifact
        raise StageError(f"{stage}: {exc}") from exc
    manifest["stages"][stage] = {
        "input_hash": input_hash,
        "inputs": inputs,
        "outputs": {name: rt.file_hash(rc.artifact(name), fresh=True)
                    for name in _STAGES[stage].writes},
        "wall_time_s": round(time.monotonic() - start, 3),
        "completed_at": datetime.now(timezone.utc).isoformat(),
    }
    # resolved.json always describes the config the manifest records
    manifest["config_hash"] = full_config_hash(rc)
    manifest["version"] = __version__
    write_json(rc.artifact(RESOLVED_FILE), rc.resolved)
    _save_manifest(rc.artifacts_dir, manifest)
    rt.memo_refreshed = False
    return True


def _run(rc: RunConfig, stages: tuple[str, ...], strict: bool) -> dict:
    """Run (or skip) the given stages in order over one manifest read; with
    strict, refuse artifacts that a different config produced."""
    manifest = load_manifest(rc.artifacts_dir)
    recorded = manifest.get("config_hash")
    if strict and recorded is not None and recorded != full_config_hash(rc):
        raise ConfigError(
            "config hash mismatch: these artifacts were produced by a "
            "different configuration (drop --strict to let stages rerun)")
    os.makedirs(rc.artifacts_dir, exist_ok=True)
    # a new manifest, or one written before the memo, gains it on its next write
    rt = _Runtime(rc, manifest.setdefault("files", {}))
    executed = {stage: _execute(rt, stage, manifest) for stage in stages}
    if rt.memo_refreshed:       # trusted hashes that no stage's save recorded
        _save_manifest(rc.artifacts_dir, manifest)
    return executed


def run_stage(rc: RunConfig, stage: str, strict: bool = False) -> bool:
    """Execute (or skip) a single stage. Caller holds the artifacts lock."""
    if stage not in _STAGES:
        raise ConfigError(f"unknown stage {stage!r}")
    return _run(rc, (stage,), strict)[stage]


def run_all(rc: RunConfig, strict: bool = False) -> dict:
    """Run every stage in order; returns {stage: executed?}."""
    return _run(rc, STAGE_ORDER, strict)


# ------------------------------------------------------------------ reporting

def emit_report(rc: RunConfig) -> str:
    """Text table of every method's ID/OOD/overall accuracy (in percent)."""
    path = rc.artifact(EVAL_FILE)
    if not os.path.exists(path):
        raise ConfigError("missing artifact: eval")
    doc = read_json(path)

    names = [m for m in METHOD_ORDER if m in doc["methods"]]
    names += sorted(set(doc["methods"]) - set(names))
    lines = [f"{'method':<18}{'ID':>8}{'OOD':>8}{'overall':>9}{'AUROC':>8}"]
    for name in names:
        rep = doc["methods"][name]
        roc = f"{rep['auroc']:.3f}" if rep.get("auroc") is not None else "-"
        lines.append(f"{name:<18}"
                     f"{100 * rep['id_accuracy']:>8.2f}"
                     f"{100 * rep['ood_accuracy']:>8.2f}"
                     f"{100 * rep['overall_accuracy']:>9.2f}"
                     f"{roc:>8}")
    cluster = doc.get("cluster_accuracy")
    lines.append("")
    lines.append("OOD cluster accuracy: "
                 + (f"{100 * cluster:.2f}" if cluster is not None else "-"))
    tuned = doc.get("tuned_tau", {})
    if tuned:
        lines.append(f"tuned tau: softmax={tuned.get('softmax')} "
                     f"sigmoid={tuned.get('sigmoid')}")
    return "\n".join(lines)
