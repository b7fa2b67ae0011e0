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

This module is the engine. Each stage is declared once, in the _STAGES
table: the name of its body in cfc.stages, the config keys it reads, the
artifacts it consumes and those it writes; the stage order and each stage's
upstream stages follow from it. A stage records in manifest.json a hash of
everything it read (its scoped config, dataset bytes, consumed artifacts;
the LLM stages' mock fixture and prompt templates, packaged or from
coarse.template_dir) and the sha256 of each file it wrote. It is skipped
when that input hash matches and every output it writes still has its
recorded sha256, so LLM-backed stages never recompute by accident, an output
cut or edited by hand is rebuilt, and an edit to screening or merging reruns
eval without retraining a model or reading the features. One command decides
each stage once: whether its outputs still match the manifest is worked out
the first time a stage or a stage downstream of it asks, and a stage that
executes is done from then on, its outputs just hashed; the dataset's hash
is taken once for every stage's input.
The manifest's "files" block remembers each file's sha256 beside its stat,
so a rerun reads only the files whose stat changed or that were changed
too close to their hashing to trust it (see _Runtime.file_hash); a pass
that read a file again and can now trust its hash saves the manifest once
more. In live mode the gateway also keeps every paid reply, parsed or
not, in llm_cache.jsonl, so a rerun after an edit or a crash asks the
endpoint only for attempts it has not answered yet. The config is checked by
cfc.config; a stage that runs echoes it, every default made explicit, to
resolved.json beside the manifest that records its hash.

The engine imports no numpy: hashing, the manifest, the lock and every
skip decision run without it. cfc.stages, and with it numpy and the numeric
modules, is imported when a stage first executes, so a cached run, report
or a refused --strict run never loads them; report checks each method of
eval.json as a cfc.records.EvalReport.

Artifacts are written through cfc.jsonl's atomic writer, so a killed run
never leaves a torn file that the cache would take for done.
"""

from __future__ import annotations

import fcntl
import functools
import hashlib
import json
import os
import time
from contextlib import contextmanager, suppress
from dataclasses import dataclass
from datetime import datetime, timezone

from . import __version__
# validate_config is re-exported: the CLI and callers import it from here
from .config import TEMPLATE_DIR, TEMPLATE_NAMES, ConfigError, RunConfig, \
    validate_config
from .jsonl import read_json, remove_orphaned_temp_files, write_json

SPLIT_FILE = "split.json"
COARSE_FILE = "coarse.jsonl"
COARSE_LOG_FILE = "coarse_exchanges.jsonl"
DENOISED_FILE = "denoised.jsonl"
SYNTH_BIN_FILE = "synth.bin"
SYNTH_META_FILE = "synth.jsonl"
PRELIM_CKPT = "prelim.ckpt"
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

# A remembered sha256 is trusted only for a file whose last change (ctime)
# came at least this long before the hash was taken: a change made later, in
# the same timestamp tick, could leave the stat as it was (git's "racily
# clean" rule). Two seconds cover filesystems with 1 s timestamps.
RACY_WINDOW_NS = 2_000_000_000

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
              "dataset": rt.dataset_hash}
    for name in spec.consumes:
        inputs[name] = rt.file_hash(rc.artifact(name))
    if "gateway" in spec.reads:
        if rc.gateway.mode == "mock":
            inputs["mock_fixture"] = rt.file_hash(rc.gateway.mock_fixture_path)
        inputs["templates"] = rt.templates_hash
    return inputs


class _Runtime:
    """Per-command state of the engine: the manifest, file hashes and each
    stage's done state, each decided once, and the stage bodies' data, made
    when a stage first executes. The memo is the manifest's "files" block,
    path -> {"stat", "sha256", "hashed_at_ns"}; it is written with the
    manifest, when a stage executes or when memo_refreshed is set."""

    def __init__(self, rc: RunConfig, manifest: dict | None = None):
        self.rc = rc
        self.manifest = {"stages": {}} if manifest is None else manifest
        # a new manifest, or one written before the memo, gains it on its next write
        self._memo = self.manifest.setdefault("files", {})
        self._hashes: dict[str, str] = {}
        # stage -> its outputs still have their recorded sha256; true once
        # the stage has executed, since they were just hashed fresh
        self._done: dict[str, bool] = {}
        # set when a file was read again and its new memo entry is trusted
        self.memo_refreshed = False
        self.data = None            # a cfc.stages.StageData once a stage runs

    def file_hash(self, path: str, fresh: bool = False) -> str:
        """sha256 of a file, looked up once per command: only a stage writes
        in the artifacts directory, and it rehashes (fresh) what it wrote.
        The memo's sha256 stands in for reading the file when the file's
        device, inode, size, mtime and ctime all match the memo's and its
        ctime lies RACY_WINDOW_NS or more before the memo's hash was taken;
        otherwise, or when the entry lacks one of its three fields, the file
        is read and its memo entry replaced."""
        if fresh or path not in self._hashes:
            hashed_at = time.time_ns()          # before the stat, never after
            st = os.stat(path)
            stat = [st.st_dev, st.st_ino, st.st_size, st.st_mtime_ns, st.st_ctime_ns]
            entry = self._memo.get(path, {})
            if not fresh and {"stat", "hashed_at_ns", "sha256"} <= entry.keys() \
                    and entry["stat"] == stat \
                    and st.st_ctime_ns < entry["hashed_at_ns"] - RACY_WINDOW_NS:
                self._hashes[path] = entry["sha256"]
            else:
                self._hashes[path] = _file_hash(path)
                self._memo[path] = {"stat": stat, "sha256": self._hashes[path],
                                    "hashed_at_ns": hashed_at}
                if st.st_ctime_ns < hashed_at - RACY_WINDOW_NS:
                    self.memo_refreshed = True
        return self._hashes[path]

    @functools.cached_property
    def dataset_hash(self) -> str:
        """The hash of the dataset's three files, one value for every stage."""
        ds = self.rc.dataset
        return _json_hash([self.file_hash(path)
                           for path in (ds.nodes, ds.edges, ds.features)])

    @functools.cached_property
    def templates_hash(self) -> str:
        """The hash of the templates in the directory the LLM stages read
        (cfc.coarse.load_template); one that directory lacks is left out."""
        folder = self.rc.coarse.template_dir or TEMPLATE_DIR
        hashes = {}
        for name in (n + ".txt" for n in TEMPLATE_NAMES):
            with suppress(FileNotFoundError):
                hashes[name] = self.file_hash(os.path.join(folder, name))
        return _json_hash(hashes)

    def done(self, stage: str) -> bool:
        """_stage_done, decided once per command."""
        if stage not in self._done:
            self._done[stage] = _stage_done(self, stage)
        return self._done[stage]


# ------------------------------------------------------------------ stage table

@dataclass(frozen=True)
class _Stage:
    """One stage: the name of its body in cfc.stages, the config it reads
    (scope name -> key path, or a tuple of paths for a block of just those
    keys), the artifacts it reads and those it writes. All it reads is hashed
    into its input; a stage that reads the gateway also hashes the mock
    fixture and the templates."""
    body: str
    reads: dict
    consumes: tuple[str, ...]
    writes: tuple[str, ...]

    def run(self, rt: _Runtime) -> None:
        from . import stages        # numpy and the numeric modules load here
        if rt.data is None:
            rt.data = stages.StageData(rt.rc)
        getattr(stages, self.body)(rt.data)


_STAGES = {
    "ingest": _Stage("stage_ingest", {"seed": "seed", "split": "split"},
                     consumes=(), writes=(SPLIT_FILE,)),
    "coarse": _Stage("stage_coarse", {"seed": "seed", "coarse": "coarse",
                                      "gateway": _REPLY, "id_classes": "split.id_classes"},
                     consumes=(SPLIT_FILE,), writes=(COARSE_FILE, COARSE_LOG_FILE)),
    "denoise": _Stage("stage_denoise", {"propagation": "propagation"},
                      consumes=(SPLIT_FILE, COARSE_FILE), writes=(DENOISED_FILE,)),
    "train-prelim": _Stage("stage_train_prelim", {"seed": "seed", "train": "train"},
                           consumes=(SPLIT_FILE,), writes=(PRELIM_CKPT, BASELINE_PROBS_FILE)),
    "augment": _Stage("stage_augment", {"seed": "seed", "mixup": "mixup"},
                      consumes=(SPLIT_FILE, DENOISED_FILE, PRELIM_CKPT),
                      writes=(SYNTH_BIN_FILE, SYNTH_META_FILE)),
    "train-fine": _Stage("stage_train_fine", {"seed": "seed", "train": "train"},
                         consumes=(SPLIT_FILE, DENOISED_FILE, SYNTH_BIN_FILE,
                                   SYNTH_META_FILE), writes=(FINE_CKPT,)),
    "detect": _Stage("stage_detect", {},
                     consumes=(SPLIT_FILE, FINE_CKPT), writes=(DETECT_FILE,)),
    "classify-ood": _Stage("stage_classify_ood", {
        "merge": "merge", "gateway": _REPLY, "text_budget": "coarse.text_budget",
        "max_parse_retries": "coarse.max_parse_retries"},
        consumes=(SPLIT_FILE, COARSE_FILE, DETECT_FILE),
        writes=(POST_LABELS_FILE, ASSIGN_FILE, CLASSIFY_LOG_FILE)),
    "eval": _Stage("stage_eval", {},
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
    """The directory's manifest, or a new one. A manifest that is not an
    object whose "stages" and "files" blocks, and each of their entries,
    are objects raises ValueError("path: ...")."""
    path = os.path.join(art_dir, MANIFEST_FILE)
    if not os.path.exists(path):
        return {"version": __version__, "config_hash": None, "stages": {}}
    manifest = read_json(path)
    blocks = [manifest.get("stages"), manifest.get("files", {})] \
        if isinstance(manifest, dict) else [None]
    for block in blocks:
        if not isinstance(block, dict) or \
                not all(isinstance(entry, dict) for entry in block.values()):
            raise ValueError(f"{path}: not a manifest: its stages and files "
                             f"blocks and their entries must be objects")
    return manifest


def _save_manifest(art_dir: str, manifest: dict) -> None:
    write_json(os.path.join(art_dir, MANIFEST_FILE), manifest)


def _stage_done(rt: _Runtime, stage: str) -> bool:
    """The stage has an entry, and every output the stage writes now (not
    only those the entry lists) still has the sha256 the entry recorded. An
    entry that recorded no hashes counts as not done."""
    recorded = rt.manifest["stages"].get(stage, {}).get("outputs")
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


def _execute(rt: _Runtime, stage: str) -> bool:
    """Run one stage if its inputs changed; returns True when it executed.
    A RuntimeError, ValueError or OSError of the body is raised again as a
    StageError("<stage>: <cause>"); a ConfigError passes through as it is."""
    rc, manifest = rt.rc, rt.manifest
    for upstream in _UPSTREAM[stage]:
        if not rt.done(upstream):
            raise ConfigError(f"missing artifact: {upstream}")

    inputs = _stage_inputs(rt, stage)
    input_hash = _json_hash(inputs)
    if manifest["stages"].get(stage, {}).get("input_hash") == input_hash and \
            rt.done(stage):
        return False

    start = time.monotonic()
    try:
        _STAGES[stage].run(rt)
    except ConfigError:
        raise
    except (RuntimeError, ValueError, OSError) as exc:
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
    rt._done[stage] = True
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
    rt = _Runtime(rc, manifest)
    executed = {stage: _execute(rt, stage) for stage in stages}
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
    """Text table of every method's ID/OOD/overall accuracy (in percent). An
    eval.json whose methods are not each an EvalReport raises ValueError."""
    from .records import EvalReport     # the engine's own path loads no records
    path = rc.artifact(EVAL_FILE)
    if not os.path.exists(path):
        raise ConfigError("missing artifact: eval")
    doc = read_json(path)
    try:
        reports = {name: EvalReport(**rec) for name, rec in doc["methods"].items()}
        return _report(doc, reports)
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise ValueError(f"{path}: not an eval report: {exc!r}") from exc


def _report(doc, reports: dict) -> str:
    names = [m for m in METHOD_ORDER if m in reports]
    names += sorted(set(reports) - set(names))
    lines = [f"{'method':<18}{'ID':>8}{'OOD':>8}{'overall':>9}{'AUROC':>8}"]
    for name in names:
        rep = reports[name]
        roc = f"{rep.auroc:.3f}" if rep.auroc is not None else "-"
        lines.append(f"{name:<18}"
                     f"{100 * rep.id_accuracy:>8.2f}"
                     f"{100 * rep.ood_accuracy:>8.2f}"
                     f"{100 * rep.overall_accuracy:>9.2f}"
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
