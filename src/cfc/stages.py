"""The bodies of the nine pipeline stages, and the data they share.

cfc.pipeline declares each stage (the config it reads, the artifacts it
consumes and writes) and decides whether it runs; it imports this module
when a stage first executes. This is where numpy and the numeric modules
load, so a command that executes no stage never imports them.

A stage body takes the command's StageData and writes the artifacts its
declaration lists. It raises a failure as it comes; cfc.pipeline turns it
into the one StageError that names the stage. StageData loads each part of
the run's input on first use, once per command: the graph reads only
nodes.jsonl, edges.jsonl is read only by a stage that builds an adjacency
(a_hat, denoise's walk matrix), and features.bin only by a stage that
touches features or x. So classify-ood and eval, which an edit to screening
or merging reruns, read node texts and labels but neither edges.jsonl nor
features.bin.
"""

from __future__ import annotations

from dataclasses import asdict, replace
from functools import cached_property

import numpy as np

from .coarse import coarse_detect, load_coarse_result, save_coarse_result
from .config import SEED_OFFSETS, ConfigError, RunConfig
from .denoise import denoise_ood, initial_label_matrix, label_propagate, \
    load_synthetic, mixup_augment, ood_center, save_synthetic, \
    select_boundary_nodes
from .gateway import LLMGateway
from .gcn import forward, load_checkpoint, predict, save_checkpoint, train
from .graph import Graph, load_edges, load_features, load_graph, \
    load_matrices, rw_normalize_adjacency, save_matrices, split_dataset, \
    sym_normalize_adjacency
from .jsonl import build_record, read_json, write_json, write_jsonl
from .labelspace import classify_ood, cluster_accuracy, merge_categories
from .metrics import accuracy_report, auroc, threshold_baseline, \
    tune_threshold
from .pipeline import ASSIGN_FILE, BASELINE_PROBS_FILE, \
    CLASSIFY_LOG_FILE, COARSE_FILE, COARSE_LOG_FILE, DENOISED_FILE, \
    DETECT_FILE, EVAL_FILE, FINE_CKPT, LLM_CACHE_FILE, POST_LABELS_FILE, \
    PRELIM_CKPT, SPLIT_FILE, SYNTH_BIN_FILE, SYNTH_META_FILE
from .records import DenoisedCandidate, DenoiseSummary, Detection, \
    OODAssignment, SplitAssignment, read_headed, read_records, write_headed

SIGMOID_FIXED_TAU = 0.5

# The model input X is multiplied as a CSR copy when at most this share of
# its entries is nonzero (bag-of-words features). Denser X stays an array:
# there a BLAS product beats the sparse one several times over.
SPARSE_FEATURE_DENSITY = 0.10


def _dataset(load, *args):
    """load(*args), with a ValueError reported as a rejected dataset."""
    try:
        return load(*args)
    except ValueError as exc:
        raise ConfigError(f"dataset rejected: {exc}") from exc


class StageData:
    """Per-command cache of the graph, its edges, features, split, A-hat and
    model input, each loaded on first use. ingest touches the edges and the
    features, so a bad edge or feature file is rejected there, before any
    LLM call."""

    def __init__(self, rc: RunConfig):
        self.rc = rc

    @cached_property
    def graph(self) -> Graph:
        """Node texts and labels, without edges (see linked); the feature
        matrix is features."""
        return _dataset(load_graph, self.rc.dataset.nodes)

    @cached_property
    def linked(self) -> Graph:
        """The graph with its edges, the input of both normalizations."""
        g = self.graph
        return replace(g, edges=_dataset(load_edges, self.rc.dataset.edges, g.num_nodes))

    @cached_property
    def features(self) -> np.ndarray:
        return _dataset(load_features, self.rc.dataset.features, self.graph.num_nodes)

    @cached_property
    def a_hat(self):
        return sym_normalize_adjacency(self.linked)

    @cached_property
    def x(self):
        """Model input X: the feature matrix, or a CSR copy of it (see
        SPARSE_FEATURE_DENSITY). The copy is made from the flat positions of
        the nonzeros, which come in row-major order: each row's columns
        sorted, the arrays scipy builds from a dense matrix."""
        import scipy.sparse as sp
        f = self.features
        nonzero = f != 0
        if np.count_nonzero(nonzero) > SPARSE_FEATURE_DENSITY * f.size:
            return f
        flat = np.flatnonzero(nonzero)
        n, d = f.shape
        idx = np.int32 if max(flat.size, n, d) <= np.iinfo(np.int32).max else np.int64
        indptr = np.searchsorted(flat, np.arange(n + 1) * d).astype(idx)
        return sp.csr_array((f[nonzero], (flat % d).astype(idx), indptr), shape=f.shape)

    @cached_property
    def split(self) -> SplitAssignment:
        path = self.rc.artifact(SPLIT_FILE)
        return build_record(SplitAssignment, read_json(path), path)

    @cached_property
    def targets(self) -> np.ndarray:
        """Each node's class: its index in split.id_classes, the ID class
        count C (the OOD class) for any other label, -1 for an unlabeled
        node. The one place the stages turn labels into classes."""
        cindex = {name: k for k, name in enumerate(self.split.id_classes)}
        c = len(cindex)
        return np.array([-1 if lab is None else cindex.get(lab, c)
                         for lab in self.graph.labels], dtype=np.int64)

    def id_targets(self) -> np.ndarray:
        """A copy of targets with -1 on every node outside the ID classes."""
        return np.where(self.targets < len(self.split.id_classes), self.targets, -1)


def stage_ingest(data: StageData) -> None:
    rc, g = data.rc, data.graph            # a bad dataset is not a bad split,
    data.linked, data.features             # so edges and features are checked here
    try:
        split = split_dataset(g, rc.split.id_classes,
                              rc.split.ood_classes, rc.seed,
                              rc.split.train_frac, rc.split.val_frac)
    except ValueError as exc:
        raise ConfigError(f"split rejected: {exc}") from exc
    write_json(rc.artifact(SPLIT_FILE), asdict(split))


def _gateway(rc: RunConfig, log_name: str) -> LLMGateway:
    """A stage's gateway: a fresh exchange log, the shared reply cache."""
    log_path = rc.artifact(log_name)
    open(log_path, "w").close()             # exists even when nothing is asked
    return LLMGateway(rc.gateway, log_path=log_path,
                      cache_path=rc.artifact(LLM_CACHE_FILE))


def stage_coarse(data: StageData) -> None:
    rc = data.rc
    with _gateway(rc, COARSE_LOG_FILE) as gateway:
        result = coarse_detect(data.graph, data.split.test_ids, rc.coarse, gateway)
    save_coarse_result(result, rc.artifact(COARSE_FILE))


def _load_survivors(path: str) -> tuple[int, ...]:
    """The denoised candidates that were kept."""
    _, candidates = read_headed(path, DenoiseSummary, DenoisedCandidate)
    return tuple(int(c.node_id) for c in candidates if c.kept)


def stage_denoise(data: StageData) -> None:
    rc = data.rc
    g, split = data.graph, data.split
    coarse = load_coarse_result(rc.artifact(COARSE_FILE))
    train_labels = {i: int(data.targets[i]) for i in split.train_ids}
    candidates = coarse.ood_ids

    survivors: tuple[int, ...] = ()
    if candidates:
        init = initial_label_matrix(g.num_nodes, len(split.id_classes),
                                    train_labels, candidates)
        propagated = label_propagate(rw_normalize_adjacency(data.linked), init,
                                     rc.propagation)
        survivors = denoise_ood(propagated, candidates)

    kept = set(survivors)
    write_headed(rc.artifact(DENOISED_FILE),
                 DenoiseSummary(rc.propagation.steps, len(candidates), len(survivors)),
                 [DenoisedCandidate(i, i in kept) for i in candidates])


def stage_train_prelim(data: StageData) -> None:
    """The closed-set GCN that augment reads, and the sigmoid-head GCN of
    the threshold baselines: same inputs, so trained together. Both models'
    class probabilities for every node, the prelim model's columns first,
    are recorded for eval's baselines; only the prelim model is saved."""
    rc = data.rc
    split = data.split
    y = data.id_targets()
    val_ids = [i for i in split.val_ids if y[i] >= 0]
    models = (
        (PRELIM_CKPT, rc.train),
        (None, replace(rc.train, head="sigmoid",
                       seed=rc.seed + SEED_OFFSETS["baseline"])),
    )
    probs = []
    for name, cfg in models:
        params, _ = train(data.a_hat, data.x, y, split.train_ids, val_ids,
                          out_dim=len(split.id_classes), cfg=cfg)
        if name is not None:
            save_checkpoint(params, rc.artifact(name))
        probs.append(predict(params, data.a_hat, data.x, head=cfg.head))
    save_matrices(rc.artifact(BASELINE_PROBS_FILE), np.hstack(probs))


def stage_augment(data: StageData) -> None:
    rc = data.rc
    split = data.split
    survivors = _load_survivors(rc.artifact(DENOISED_FILE))
    if not survivors:
        raise RuntimeError("no denoised OOD candidates survive; nothing to "
                           "augment (coarse stage found too few OOD nodes)")
    # one pass gives both the hidden space and the training confidences
    prelim = forward(load_checkpoint(rc.artifact(PRELIM_CKPT)), data.a_hat, data.x)
    confidence = {i: float(prelim.z_real[i].max()) for i in split.train_ids}
    boundary = select_boundary_nodes(confidence, rc.mixup.boundary_count)
    center = ood_center(prelim.h1, survivors)
    synth = mixup_augment(prelim.h1, boundary, center, rc.mixup)
    save_synthetic(synth, rc.artifact(SYNTH_BIN_FILE), rc.artifact(SYNTH_META_FILE))


def stage_train_fine(data: StageData) -> None:
    rc = data.rc
    split = data.split
    survivors = _load_survivors(rc.artifact(DENOISED_FILE))
    synth = load_synthetic(rc.artifact(SYNTH_BIN_FILE), rc.artifact(SYNTH_META_FILE))
    c = len(split.id_classes)

    y = data.id_targets()
    y[list(survivors)] = c
    # the fine model's one read of OOD truth: early stopping and model
    # selection see the class of every validation node
    val_ids = list(split.val_ids)
    y[val_ids] = data.targets[val_ids]
    train_ids = sorted(set(split.train_ids) | set(survivors))
    cfg = replace(rc.train, seed=rc.seed + SEED_OFFSETS["fine"])
    params, _ = train(data.a_hat, data.x, y, train_ids, val_ids,
                      out_dim=c + 1, synth=synth, cfg=cfg)
    save_checkpoint(params, rc.artifact(FINE_CKPT))


def stage_detect(data: StageData) -> None:
    rc = data.rc
    split = data.split
    params = load_checkpoint(rc.artifact(FINE_CKPT))
    probs = predict(params, data.a_hat, data.x)
    ood_index = probs.shape[1] - 1
    write_jsonl(rc.artifact(DETECT_FILE), (
        vars(Detection(i, int(np.argmax(probs[i])), float(probs[i, ood_index])))
        for i in sorted(split.test_ids)))


def stage_classify_ood(data: StageData) -> None:
    rc = data.rc
    coarse = load_coarse_result(rc.artifact(COARSE_FILE))
    if not coarse.category_log:
        raise RuntimeError("coarse stage logged no OOD categories; cannot "
                           "build a label space")
    post = merge_categories(coarse.category_log, rc.merge.sim_threshold,
                            rc.merge.min_count)
    write_json(rc.artifact(POST_LABELS_FILE), asdict(post))

    c = len(data.split.id_classes)
    ood_nodes = [d.node_id for d in read_records(rc.artifact(DETECT_FILE), Detection)
                 if d.pred == c]

    assignments = ()
    with _gateway(rc, CLASSIFY_LOG_FILE) as gateway:
        if ood_nodes:
            assignments = classify_ood(
                ood_nodes, data.graph, post, gateway,
                text_budget=rc.coarse.text_budget,
                template_dir=rc.coarse.template_dir,
                max_parse_retries=rc.coarse.max_parse_retries)
    write_jsonl(rc.artifact(ASSIGN_FILE), (vars(a) for a in assignments))


def _report(preds: dict, scores: dict, truth: dict, ood_index: int):
    """One method's EvalReport: its predictions scored against truth, its
    OOD scores ranked by auroc (None on a one-sided test set)."""
    flags = {n: cls == ood_index for n, cls in truth.items()}
    return accuracy_report(preds, truth, ood_index, auroc(scores, flags))


def stage_eval(data: StageData) -> None:
    rc = data.rc
    g, split = data.graph, data.split
    c = len(split.id_classes)
    test_ids = sorted(split.test_ids)
    truth = dict(zip(test_ids, data.targets[test_ids].tolist()))

    assignments = read_records(rc.artifact(ASSIGN_FILE), OODAssignment)
    ood_pairs = [(a.node_id, a.label) for a in assignments
                 if truth.get(a.node_id) == c]
    cluster = (cluster_accuracy(ood_pairs, {n: g.labels[n] for n, _ in ood_pairs})
               if ood_pairs else None)

    [probs] = load_matrices(rc.artifact(BASELINE_PROBS_FILE), rows=g.num_nodes)
    probs_soft, probs_sig = probs[:, :c], probs[:, c:]
    val_ids = sorted(split.val_ids)
    tau_soft = tune_threshold(probs_soft[val_ids], data.targets[val_ids])
    tau_sig = tune_threshold(probs_sig[val_ids], data.targets[val_ids])

    def baseline(head: np.ndarray, tau: float):
        # one column per ID class, so threshold_baseline's reject index
        # (the column count) is the pipeline's OOD index
        test = head[test_ids]
        preds = dict(zip(test_ids, threshold_baseline(test, tau).tolist()))
        scores = dict(zip(test_ids, (1.0 - test.max(axis=1)).tolist()))
        return _report(preds, scores, truth, c)

    detections = read_records(rc.artifact(DETECT_FILE), Detection)
    methods = {
        "CFC": _report({d.node_id: d.pred for d in detections},
                       {d.node_id: d.ood_score for d in detections}, truth, c),
        "GCN_softmax": baseline(probs_soft, 0.0),
        "GCN_softmax_tau": baseline(probs_soft, tau_soft),
        "GCN_sigmoid": baseline(probs_sig, SIGMOID_FIXED_TAU),
        "GCN_sigmoid_tau": baseline(probs_sig, tau_sig),
    }
    doc = {
        "ood_class_index": c,
        "cluster_accuracy": cluster,
        "tuned_tau": {"softmax": tau_soft, "sigmoid": tau_sig},
        "methods": {name: asdict(rep) for name, rep in methods.items()},
    }
    write_json(rc.artifact(EVAL_FILE), doc)
