"""Staged, resumable orchestration of the full open-set pipeline.

A run is nine stages over one artifacts directory:

    ingest        load the graph, draw the train/val/test split
    coarse        LLM screening of test nodes for OOD suspects
    denoise       label propagation prunes false OOD candidates
    train-prelim  closed-set GCN on the ID training nodes, and the
                  sigmoid-head GCN of the threshold baselines
    augment       mixup synthesis of OOD rows in hidden space
    train-fine    (C+1)-class GCN with the synthetic OOD samples
    detect        fine-model predictions + OOD scores on test nodes
    classify-ood  merge logged categories, LLM-label the detected set
    eval          scores the pipeline and the threshold baselines

Each stage records a hash of everything it read (scoped config, dataset
bytes, upstream artifacts) in manifest.json and is skipped when that hash
matches and every output the stage writes today still exists, so LLM-backed
stages never recompute by accident, and an edit to screening or merging
reruns eval without retraining a model. In live mode the gateway also keeps
every parsed reply in llm_cache.jsonl, so a rerun after an edit or a crash
asks the endpoint only for prompts it has not answered yet. Config validation is strict: unknown
keys are rejected and the fully-defaulted config is echoed to resolved.json.

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

import numpy as np

from . import __version__
from .coarse import CoarseConfig, CoarseDetectError, coarse_detect, \
    load_coarse_result, save_coarse_result
from .denoise import MixupConfig, PropagationConfig, denoise_ood, \
    initial_label_matrix, label_propagate, load_synthetic, mixup_augment, \
    ood_center, save_synthetic, select_boundary_nodes
from .gateway import BASE_URL_ENV, GatewayConfig, GatewayError, LLMGateway
from .gcn import TrainConfig, TrainingDiverged, hidden_states, \
    load_checkpoint, predict, save_checkpoint, train
from .graph import Graph, load_graph, rw_normalize_adjacency, \
    split_dataset, sym_normalize_adjacency, SplitAssignment
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

# The model input X is multiplied as a CSR copy when at most this share of
# its entries is nonzero (bag-of-words features). Denser X stays an array:
# there a BLAS product beats the sparse one several times over.
SPARSE_FEATURE_DENSITY = 0.10

METHOD_ORDER = ("CFC", "GCN_softmax", "GCN_softmax_tau",
                "GCN_sigmoid", "GCN_sigmoid_tau")


class ConfigError(ValueError):
    """Bad config, bad dataset, or a stage invoked out of order."""


class StageError(RuntimeError):
    """A stage failed while executing."""


# ------------------------------------------------------------------ config

_REQUIRED = object()

_SCHEMA = {
    "seed": ("int", _REQUIRED),
    "artifacts_dir": ("str", "artifacts"),
    "dataset": {
        "nodes": ("str", _REQUIRED),
        "edges": ("str", _REQUIRED),
        "features": ("str", _REQUIRED),
    },
    "split": {
        "id_classes": ("list[str]", _REQUIRED),
        "ood_classes": ("list[str]", _REQUIRED),
        "train_frac": ("number", 0.5),
        "val_frac": ("number", 0.4),
    },
    "coarse": {
        "mode": ("str", "easy_reject"),
        "confidence_threshold": ("number", 0.7),
        "candidate_count": ("int", 10),
        "max_parse_retries": ("int", 2),
        "node_budget": ("int|null", None),
        "text_budget": ("int", 4000),
        "template_dir": ("str|null", None),
    },
    "propagation": {
        "steps": ("int", 10),
    },
    "mixup": {
        "alpha": ("number", 0.5),
        "boundary_count": ("int", 10),
        "synth_count": ("int", 100),
    },
    "train": {
        "learning_rate": ("number", 0.01),
        "weight_decay": ("number", 5e-4),
        "epochs": ("int", 200),
        "hidden_dim": ("int", 64),
        "early_stop_patience": ("int", 30),
    },
    "merge": {
        "sim_threshold": ("number", 0.5),
        "min_count": ("int|null", None),
    },
    "gateway": {
        "mode": ("str", "mock"),
        "base_url": ("str", ""),
        "model_name": ("str", "mock-model"),
        "temperature": ("number", 0.0),
        "max_retries": ("int", 3),
        "request_timeout": ("number", 30.0),
        "max_concurrent": ("int", 4),
        "mock_fixture_path": ("str|null", None),
    },
}


def _check_kind(value, kind: str, path: str):
    def fail(expected):
        raise ConfigError(f"{path}: expected {expected}, got {value!r}")

    if kind == "int":
        if isinstance(value, bool) or not isinstance(value, int):
            fail("an integer")
        return value
    if kind == "number":
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            fail("a number")
        return float(value)
    if kind == "str":
        if not isinstance(value, str):
            fail("a string")
        return value
    if kind == "list[str]":
        if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
            fail("a list of strings")
        return list(value)
    if kind == "int|null":
        if value is None:
            return None
        if isinstance(value, bool) or not isinstance(value, int):
            fail("an integer or null")
        return value
    if kind == "str|null":
        if value is None or isinstance(value, str):
            return value
        fail("a string or null")
    raise AssertionError(f"unhandled schema kind {kind}")


def _validate_block(raw: dict, schema: dict, prefix: str) -> dict:
    for key in raw:
        if key not in schema:
            dotted = f"{prefix}{key}"
            raise ConfigError(f"unknown config key {dotted!r}")
    out = {}
    for key, spec in schema.items():
        dotted = f"{prefix}{key}"
        if isinstance(spec, dict):
            sub = raw.get(key, {})
            if not isinstance(sub, dict):
                raise ConfigError(f"{dotted}: expected an object")
            out[key] = _validate_block(sub, spec, dotted + ".")
            continue
        kind, default = spec
        if key not in raw:
            if default is _REQUIRED:
                raise ConfigError(f"missing required config key {dotted!r}")
            out[key] = default
        else:
            out[key] = _check_kind(raw[key], kind, dotted)
    return out


@dataclass(frozen=True)
class RunConfig:
    """A fully validated run: resolved paths, constructed sub-configs, and
    the resolved plain dict that stage input hashing draws from."""

    seed: int
    nodes_path: str
    edges_path: str
    features_path: str
    id_classes: tuple[str, ...]
    ood_classes: tuple[str, ...]
    train_frac: float
    val_frac: float
    coarse_cfg: CoarseConfig
    prop_cfg: PropagationConfig
    mixup_cfg: MixupConfig
    train_cfg: TrainConfig
    merge_sim_threshold: float
    merge_min_count: int | None
    gateway_cfg: GatewayConfig
    artifacts_dir: str
    resolved: dict

    def artifact(self, name: str) -> str:
        return os.path.join(self.artifacts_dir, name)


def _resolve_path(value: str, base_dir: str) -> str:
    return value if os.path.isabs(value) else os.path.normpath(
        os.path.join(base_dir, value))


def validate_config(path: str, artifacts_override: str | None = None) -> RunConfig:
    """Load, schema-check, and default-fill a JSON run config.

    Relative paths are taken relative to the config file. The resolved
    config (every default made explicit, paths absolute) is echoed to
    <artifacts_dir>/resolved.json.
    """
    try:
        raw = read_json(path)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: top level must be a JSON object")

    resolved = _validate_block(raw, _SCHEMA, "")
    base_dir = os.path.dirname(os.path.abspath(path))

    if artifacts_override is not None:
        resolved["artifacts_dir"] = artifacts_override
    resolved["artifacts_dir"] = _resolve_path(resolved["artifacts_dir"], base_dir)
    for key in ("nodes", "edges", "features"):
        resolved["dataset"][key] = _resolve_path(resolved["dataset"][key], base_dir)
        if not os.path.isfile(resolved["dataset"][key]):
            raise ConfigError(f"dataset.{key}: no such file "
                              f"{resolved['dataset'][key]}")
    if resolved["coarse"]["template_dir"] is not None:
        resolved["coarse"]["template_dir"] = _resolve_path(
            resolved["coarse"]["template_dir"], base_dir)
        if not os.path.isdir(resolved["coarse"]["template_dir"]):
            raise ConfigError("coarse.template_dir: no such directory "
                              f"{resolved['coarse']['template_dir']}")

    split = resolved["split"]
    id_classes = tuple(split["id_classes"])
    ood_classes = tuple(split["ood_classes"])
    if len(id_classes) < 2:
        raise ConfigError("split.id_classes needs at least two classes")
    if not ood_classes:
        raise ConfigError("split.ood_classes must not be empty")
    if len(set(id_classes)) != len(id_classes) or \
            len(set(ood_classes)) != len(ood_classes):
        raise ConfigError("duplicate class names in split config")
    if set(id_classes) & set(ood_classes):
        raise ConfigError("id_classes and ood_classes overlap")

    gw = resolved["gateway"]
    if gw["mode"] == "mock":
        if gw["mock_fixture_path"] is None:
            raise ConfigError("gateway.mock_fixture_path is required in mock mode")
        gw["mock_fixture_path"] = _resolve_path(gw["mock_fixture_path"], base_dir)
        if not os.path.isfile(gw["mock_fixture_path"]):
            raise ConfigError("gateway.mock_fixture_path: no such file "
                              f"{gw['mock_fixture_path']}")
    elif not gw["base_url"] and not os.environ.get(BASE_URL_ENV):
        raise ConfigError(f"gateway.base_url (or ${BASE_URL_ENV}) is required "
                          "in live mode")

    try:
        coarse_cfg = CoarseConfig(seed=resolved["seed"], id_labels=id_classes,
                                  **resolved["coarse"])
        prop_cfg = PropagationConfig(**resolved["propagation"])
        mixup_cfg = MixupConfig(seed=resolved["seed"] + 1, **resolved["mixup"])
        train_cfg = TrainConfig(seed=resolved["seed"] + 2, **resolved["train"])
        gateway_cfg = GatewayConfig(**gw)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    merge = resolved["merge"]
    if not (0.0 <= merge["sim_threshold"] <= 1.0):
        raise ConfigError("merge.sim_threshold must lie in [0, 1]")
    if merge["min_count"] is not None and merge["min_count"] < 1:
        raise ConfigError("merge.min_count must be >= 1 when set")
    if not (0.0 < split["train_frac"] < 1.0) or not (0.0 < split["val_frac"] < 1.0):
        raise ConfigError("split fractions must lie in (0, 1)")

    rc = RunConfig(
        seed=resolved["seed"],
        nodes_path=resolved["dataset"]["nodes"],
        edges_path=resolved["dataset"]["edges"],
        features_path=resolved["dataset"]["features"],
        id_classes=id_classes,
        ood_classes=ood_classes,
        train_frac=split["train_frac"],
        val_frac=split["val_frac"],
        coarse_cfg=coarse_cfg,
        prop_cfg=prop_cfg,
        mixup_cfg=mixup_cfg,
        train_cfg=train_cfg,
        merge_sim_threshold=merge["sim_threshold"],
        merge_min_count=merge["min_count"],
        gateway_cfg=gateway_cfg,
        artifacts_dir=resolved["artifacts_dir"],
        resolved=resolved,
    )
    os.makedirs(rc.artifacts_dir, exist_ok=True)
    write_json(rc.artifact(RESOLVED_FILE), resolved)
    return rc


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

STAGE_ORDER = ("ingest", "coarse", "denoise", "train-prelim", "augment",
               "train-fine", "detect", "classify-ood", "eval")

_OUTPUTS = {
    "ingest": (SPLIT_FILE,),
    "coarse": (COARSE_FILE, COARSE_LOG_FILE),
    "denoise": (DENOISED_FILE,),
    "train-prelim": (PRELIM_CKPT, BASELINE_CKPT),
    "augment": (SYNTH_BIN_FILE, SYNTH_META_FILE),
    "train-fine": (FINE_CKPT,),
    "detect": (DETECT_FILE,),
    "classify-ood": (POST_LABELS_FILE, ASSIGN_FILE, CLASSIFY_LOG_FILE),
    "eval": (EVAL_FILE,),
}

# artifacts each stage reads, hashed into its input fingerprint
_CONSUMES = {
    "ingest": (),
    "coarse": (SPLIT_FILE,),
    "denoise": (SPLIT_FILE, COARSE_FILE),
    "train-prelim": (SPLIT_FILE,),
    "augment": (SPLIT_FILE, DENOISED_FILE, PRELIM_CKPT),
    "train-fine": (SPLIT_FILE, DENOISED_FILE, SYNTH_BIN_FILE, SYNTH_META_FILE),
    "detect": (SPLIT_FILE, FINE_CKPT),
    "classify-ood": (COARSE_FILE, DETECT_FILE),
    "eval": (SPLIT_FILE, DETECT_FILE, ASSIGN_FILE, PRELIM_CKPT, BASELINE_CKPT),
}


# the gateway settings that can change a reply; the mock fixture's content
# is hashed separately, and the rest (URL, timeouts, concurrency) cannot
_REPLY_KEYS = ("mode", "model_name", "temperature")


def _scoped_config(rc: RunConfig, stage: str) -> dict:
    r = rc.resolved
    gateway = {k: r["gateway"][k] for k in _REPLY_KEYS}
    if stage == "ingest":
        return {"seed": r["seed"], "split": r["split"]}
    if stage == "coarse":
        return {"seed": r["seed"], "coarse": r["coarse"],
                "gateway": gateway, "id_classes": r["split"]["id_classes"]}
    if stage == "denoise":
        return {"propagation": r["propagation"]}
    if stage in ("train-prelim", "train-fine"):
        return {"seed": r["seed"], "train": r["train"]}
    if stage == "augment":
        return {"seed": r["seed"], "mixup": r["mixup"]}
    if stage in ("detect", "eval"):
        return {}
    if stage == "classify-ood":
        return {"merge": r["merge"], "gateway": gateway,
                "text_budget": r["coarse"]["text_budget"],
                "max_parse_retries": r["coarse"]["max_parse_retries"]}
    raise AssertionError(f"unknown stage {stage}")


def _stage_inputs(rc: RunConfig, stage: str, dataset_hash: str) -> dict:
    inputs = {"config": _json_hash(_scoped_config(rc, stage)),
              "dataset": dataset_hash}
    for name in _CONSUMES[stage]:
        inputs[name] = _file_hash(rc.artifact(name))
    uses_gateway = stage in ("coarse", "classify-ood")
    if uses_gateway and rc.gateway_cfg.mode == "mock":
        inputs["mock_fixture"] = _file_hash(rc.gateway_cfg.mock_fixture_path)
    if uses_gateway and rc.coarse_cfg.template_dir is not None:
        tdir = rc.coarse_cfg.template_dir
        inputs["templates"] = _json_hash(
            {f: _file_hash(os.path.join(tdir, f))
             for f in sorted(os.listdir(tdir)) if f.endswith(".txt")})
    return inputs


class _Runtime:
    """Per-command cache of expensive shared state (dataset hash, graph,
    split, A-hat, model input)."""

    def __init__(self, rc: RunConfig):
        self.rc = rc
        self._dataset_hash: str | None = None
        self._graph: Graph | None = None
        self._split: SplitAssignment | None = None
        self._a_hat = None
        self._x = None

    @property
    def dataset_hash(self) -> str:
        """Hash of the three dataset files, read once per command."""
        if self._dataset_hash is None:
            rc = self.rc
            self._dataset_hash = _json_hash([_file_hash(rc.nodes_path),
                                             _file_hash(rc.edges_path),
                                             _file_hash(rc.features_path)])
        return self._dataset_hash

    @property
    def graph(self) -> Graph:
        if self._graph is None:
            try:
                self._graph = load_graph(self.rc.nodes_path, self.rc.edges_path,
                                         self.rc.features_path)
            except ValueError as exc:
                raise ConfigError(f"dataset rejected: {exc}") from exc
        return self._graph

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
            f = self.graph.features
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
    rc = rt.rc
    try:
        split = split_dataset(rt.graph, rc.id_classes, rc.ood_classes, rc.seed,
                              rc.train_frac, rc.val_frac)
    except ValueError as exc:
        raise ConfigError(f"split rejected: {exc}") from exc
    write_json(rc.artifact(SPLIT_FILE), split.to_dict())
    rt._split = split


def _gateway(rc: RunConfig, log_name: str) -> LLMGateway:
    """A stage's gateway: a fresh exchange log, the shared reply cache."""
    log_path = rc.artifact(log_name)
    open(log_path, "w").close()             # exists even when nothing is asked
    return LLMGateway(rc.gateway_cfg, log_path=log_path,
                      cache_path=rc.artifact(LLM_CACHE_FILE))


def _stage_coarse(rt: _Runtime) -> None:
    rc = rt.rc
    gateway = _gateway(rc, COARSE_LOG_FILE)
    try:
        result = coarse_detect(rt.graph, rt.split().test_ids, rc.coarse_cfg,
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
        propagated = label_propagate(rw_normalize_adjacency(g), init, rc.prop_cfg)
        survivors = denoise_ood(propagated, candidates)

    kept = set(survivors)
    summary = {"kind": "summary", "steps": rc.prop_cfg.steps,
               "candidate_count": len(candidates),
               "survivor_count": len(survivors)}
    write_jsonl(rc.artifact(DENOISED_FILE), [summary] + [
        {"kind": "candidate", "node_id": i, "kept": i in kept} for i in candidates])


def _stage_train_prelim(rt: _Runtime) -> None:
    """The closed-set GCN that augment and eval read, and the sigmoid-head
    GCN that eval scores as a baseline: same inputs, so trained together."""
    rc = rt.rc
    split = rt.split()
    y = rt.id_train_targets()
    val_ids = rt.id_val_ids()
    models = (
        ("preliminary", PRELIM_CKPT, replace(rc.train_cfg, seed=rc.seed + 2)),
        ("sigmoid baseline", BASELINE_CKPT,
         replace(rc.train_cfg, head="sigmoid", seed=rc.seed + 4)),
    )
    for what, name, cfg in models:
        try:
            params, _ = train(rt.a_hat, rt.x, y, split.train_ids, val_ids,
                              out_dim=len(split.id_classes), cfg=cfg)
        except TrainingDiverged as exc:
            raise StageError(f"{what} training diverged: {exc}") from exc
        save_checkpoint(params, rc.artifact(name))


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
    boundary = select_boundary_nodes(confidence, rc.mixup_cfg.boundary_count)
    center = ood_center(hidden, survivors)
    synth = mixup_augment(hidden, boundary, center, rc.mixup_cfg)
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
    cfg = replace(rc.train_cfg, seed=rc.seed + 3)
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
        post = merge_categories(coarse.category_log, rc.merge_sim_threshold,
                                rc.merge_min_count)
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
                text_budget=rc.coarse_cfg.text_budget,
                template_dir=rc.coarse_cfg.template_dir,
                max_parse_retries=rc.coarse_cfg.max_parse_retries)
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

    probs_soft = predict(load_checkpoint(rc.artifact(PRELIM_CKPT)),
                         rt.a_hat, rt.x)
    probs_sig = predict(load_checkpoint(rc.artifact(BASELINE_CKPT)),
                        rt.a_hat, rt.x, head="sigmoid")

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


_STAGE_FN = {
    "ingest": _stage_ingest,
    "coarse": _stage_coarse,
    "denoise": _stage_denoise,
    "train-prelim": _stage_train_prelim,
    "augment": _stage_augment,
    "train-fine": _stage_train_fine,
    "detect": _stage_detect,
    "classify-ood": _stage_classify_ood,
    "eval": _stage_eval,
}


# ------------------------------------------------------------------ manifest

def load_manifest(art_dir: str) -> dict:
    path = os.path.join(art_dir, MANIFEST_FILE)
    if not os.path.exists(path):
        return {"version": __version__, "config_hash": None, "stages": {}}
    return read_json(path)


def _save_manifest(art_dir: str, manifest: dict) -> None:
    write_json(os.path.join(art_dir, MANIFEST_FILE), manifest)


def _outputs_exist(rc: RunConfig, stage: str) -> bool:
    # the outputs the stage writes now, not those its manifest entry lists:
    # an entry written before the stage gained an output must not count
    return all(os.path.exists(rc.artifact(name)) for name in _OUTPUTS[stage])


def _stage_complete(rc: RunConfig, manifest: dict, stage: str) -> bool:
    return stage in manifest["stages"] and _outputs_exist(rc, stage)


_PRODUCER = {name: stage for stage, names in _OUTPUTS.items() for name in names}


def _transitive_upstream(stage: str) -> list[str]:
    """The producers of the files a stage consumes, and theirs, in stage order."""
    ups = {_PRODUCER[name] for name in _CONSUMES[stage]}
    for up in list(ups):
        ups.update(_transitive_upstream(up))
    return [s for s in STAGE_ORDER if s in ups]


def check_strict(rc: RunConfig, strict: bool) -> None:
    if not strict:
        return
    manifest = load_manifest(rc.artifacts_dir)
    recorded = manifest.get("config_hash")
    if recorded is not None and recorded != full_config_hash(rc):
        raise ConfigError(
            "config hash mismatch: these artifacts were produced by a "
            "different configuration (drop --strict to let stages rerun)")


@contextmanager
def artifacts_lock(art_dir: str):
    """Exclusive ownership of an artifacts directory for one command. The
    lock is an flock on .lock, which the OS drops when its holder dies, so
    a killed run never blocks a later one; the file itself stays. Once held,
    the temp files of killed writers are removed."""
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
    for upstream in _transitive_upstream(stage):
        if not _stage_complete(rc, manifest, upstream):
            raise ConfigError(f"missing artifact: {upstream}")

    inputs = _stage_inputs(rc, stage, rt.dataset_hash)
    input_hash = _json_hash(inputs)
    entry = manifest["stages"].get(stage)
    if entry is not None and entry["input_hash"] == input_hash and \
            _outputs_exist(rc, stage):
        return False

    start = time.monotonic()
    try:
        _STAGE_FN[stage](rt)
    except ConfigError:
        raise
    except ValueError as exc:           # e.g. a malformed artifact
        raise StageError(f"{stage}: {exc}") from exc
    manifest["stages"][stage] = {
        "input_hash": input_hash,
        "inputs": inputs,
        "outputs": list(_OUTPUTS[stage]),
        "wall_time_s": round(time.monotonic() - start, 3),
        "completed_at": datetime.now(timezone.utc).isoformat(),
    }
    manifest["config_hash"] = full_config_hash(rc)
    manifest["version"] = __version__
    _save_manifest(rc.artifacts_dir, manifest)
    return True


def run_stage(rc: RunConfig, stage: str, strict: bool = False,
              runtime: _Runtime | None = None) -> bool:
    """Execute (or skip) a single stage. Caller holds the artifacts lock."""
    if stage not in STAGE_ORDER:
        raise ConfigError(f"unknown stage {stage!r}")
    check_strict(rc, strict)
    rt = runtime if runtime is not None else _Runtime(rc)
    manifest = load_manifest(rc.artifacts_dir)
    return _execute(rt, stage, manifest)


def run_all(rc: RunConfig, strict: bool = False) -> dict:
    """Run every stage in order; returns {stage: executed?}."""
    check_strict(rc, strict)
    rt = _Runtime(rc)
    manifest = load_manifest(rc.artifacts_dir)
    executed = {}
    for stage in STAGE_ORDER:
        executed[stage] = _execute(rt, stage, manifest)
    return executed


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
