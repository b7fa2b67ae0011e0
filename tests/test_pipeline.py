"""End-to-end pipeline behavior: config validation, stage caching and
resumability, failure handling, locking, and the command line wrapper.

Most tests share one module-scoped synthetic corpus (fixture_tools) and a
completed reference run of all nine stages over it. Tests that mutate
artifacts run in their own artifact directories against the same dataset.
"""

import builtins
import copy
import dataclasses
import hashlib
import json
import math
import os
import re
import shutil
import signal
import subprocess
import sys
import time
from contextlib import contextmanager

import numpy as np
import numpy.testing as npt
import pytest
import scipy.sparse as sp

import fixture_tools
from cfc import graph as graph_module
from cfc import cli, config, jsonl, pipeline, stages
from cfc.coarse import load_coarse_result
from cfc.denoise import load_synthetic
from cfc.gateway import GatewayConfig, LLMGateway, _Connections
from cfc.gcn import forward, load_checkpoint, predict, train
from cfc.graph import load_matrices, save_matrices
from cfc.pipeline import (
    ASSIGN_FILE,
    BASELINE_PROBS_FILE,
    CLASSIFY_LOG_FILE,
    COARSE_FILE,
    COARSE_LOG_FILE,
    DENOISED_FILE,
    DETECT_FILE,
    EVAL_FILE,
    FINE_CKPT,
    LLM_CACHE_FILE,
    LOCK_FILE,
    MANIFEST_FILE,
    POST_LABELS_FILE,
    PRELIM_CKPT,
    RESOLVED_FILE,
    SPLIT_FILE,
    STAGE_ORDER,
    SYNTH_BIN_FILE,
    SYNTH_META_FILE,
    ConfigError,
    StageError,
    artifacts_lock,
    emit_report,
    full_config_hash,
    load_manifest,
    run_all,
    run_stage,
    validate_config,
)
from cfc.records import Detection, OODAssignment, read_records
from test_cli_scenarios import BY_NAME, configure, run_scenarios


@pytest.fixture(scope="module")
def fix(tmp_path_factory):
    root = tmp_path_factory.mktemp("pipe")
    return fixture_tools.write_fixture(str(root))


@pytest.fixture(scope="module")
def primary(fix):
    """One completed run over the corpus, in the fixture's own artifacts dir."""
    rc = validate_config(fix["config"])
    executed = run_all(rc)
    return rc, executed


@pytest.fixture
def hashed(monkeypatch):
    """The paths pipeline._file_hash reads, in order."""
    seen = []
    file_hash = pipeline._file_hash

    def counting(path):
        seen.append(path)
        return file_hash(path)

    monkeypatch.setattr(pipeline, "_file_hash", counting)
    return seen


@pytest.fixture
def trusted_memo(monkeypatch):
    """No racy window: every remembered sha256 counts as taken long enough
    after its file's last change, as it does once a stage executes more than
    RACY_WINDOW_NS after the files it reads were written. Only a changed stat
    can then make a file be read again."""
    monkeypatch.setattr(pipeline, "RACY_WINDOW_NS", 0)


def _move_clock_past_window(monkeypatch):
    """Every hash taken from now on is taken more than RACY_WINDOW_NS after
    the last change of any file written so far."""
    time_ns = time.time_ns
    monkeypatch.setattr(pipeline.time, "time_ns",
                        lambda: time_ns() + 2 * pipeline.RACY_WINDOW_NS)


@pytest.fixture
def manifest_saves(monkeypatch):
    """The number of times the manifest is written, as a one-item list."""
    saves = [0]
    save = pipeline._save_manifest

    def counting(art_dir, manifest):
        saves[0] += 1
        save(art_dir, manifest)

    monkeypatch.setattr(pipeline, "_save_manifest", counting)
    return saves


def _variant_config(fix, name, mutate):
    """Copy the fixture config, apply mutate(dict), write next to the original
    so relative dataset paths keep resolving."""
    with open(fix["config"], "r", encoding="utf-8") as fh:
        cfg = json.load(fh)
    mutate(cfg)
    path = os.path.join(os.path.dirname(fix["config"]), name)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(cfg, fh, indent=2)
    return path


def _read_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


# ------------------------------------------------------------ config checks


def test_validate_config_fills_defaults(fix):
    rc = validate_config(fix["config"])
    assert rc.coarse.confidence_threshold == 0.7
    assert rc.coarse.mode == "easy_reject"
    assert rc.coarse.candidate_count == 10
    assert rc.propagation.steps == 10
    assert rc.mixup.alpha == 0.5
    assert rc.mixup.boundary_count == 10
    assert rc.mixup.synth_count == 100
    assert rc.train.learning_rate == 0.01
    assert rc.train.weight_decay == 5e-4
    assert rc.train.epochs == 200
    assert rc.train.hidden_dim == 64
    assert rc.merge.sim_threshold == 0.5
    assert rc.merge.min_count is None
    assert rc.split.train_frac == 0.5 and rc.split.val_frac == 0.4
    assert rc.gateway.max_concurrent == 4

    # derived seeds: one offset per consumer so streams never collide
    assert rc.coarse.seed == rc.seed
    assert rc.mixup.seed == rc.seed + 1
    assert rc.train.seed == rc.seed + 2

    # relative paths resolve against the config's directory
    base = os.path.dirname(os.path.abspath(fix["config"]))
    assert rc.artifacts_dir == os.path.join(base, "artifacts")
    assert os.path.isabs(rc.dataset.nodes) and os.path.isfile(rc.dataset.nodes)


def test_resolved_demo_config_is_pinned(fix):
    # all 35 keys with their defaults: a changed default or a lost key fails
    base = os.path.dirname(fix["config"])
    assert validate_config(fix["config"]).resolved == {
        "seed": 0,
        "artifacts_dir": os.path.join(base, "artifacts"),
        "dataset": {"nodes": os.path.join(base, "nodes.jsonl"),
                    "edges": os.path.join(base, "edges.jsonl"),
                    "features": os.path.join(base, "features.bin")},
        "split": {"id_classes": ["circuit design", "compiler theory"],
                  "ood_classes": ["marine biology", "volcanology"],
                  "train_frac": 0.5, "val_frac": 0.4},
        "coarse": {"mode": "easy_reject", "confidence_threshold": 0.7,
                   "candidate_count": 10, "max_parse_retries": 2,
                   "node_budget": None, "text_budget": 4000,
                   "template_dir": None},
        "propagation": {"steps": 10},
        "mixup": {"alpha": 0.5, "boundary_count": 10, "synth_count": 100},
        "train": {"learning_rate": 0.01, "weight_decay": 5e-4, "epochs": 200,
                  "hidden_dim": 64, "early_stop_patience": 30},
        "merge": {"sim_threshold": 0.5, "min_count": None},
        "gateway": {"mode": "mock", "base_url": "", "model_name": "mock-model",
                    "temperature": 0.0, "max_retries": 3,
                    "request_timeout": 30.0, "max_concurrent": 4,
                    "mock_fixture_path": os.path.join(base, "mock_fixture.jsonl")},
    }


def test_stage_config_hashes_are_pinned(primary):
    # fixed values, so an artifacts directory written by an earlier version
    # keeps every stage's input hash
    rc, _ = primary
    rt = pipeline._Runtime(rc)
    got = {stage: pipeline._stage_inputs(rt, stage)["config"] for stage in STAGE_ORDER}
    assert got == {
        "ingest": "e2ff3792a20db21033ec482a7903d7c19b395da846e3d918e6d26a406bd404ad",
        "coarse": "c4b7c8d58660c47d52ec9e6b280159f2b183ce2933f841223f2ccea1513afc91",
        "denoise": "6186d51648f3eb8ecb04ccb5a503f549f43f3b6333a84ce1a282323e5e9ee96f",
        "train-prelim": "5b257f2fbe2054ae28880e7172ebf2a2d27f86f98447afc1294bf3580429eb16",
        "augment": "1bea2c80abe84ecc83dfef4c2aee986fed986d6a8ee32d657dbe0264d5cf6533",
        "train-fine": "5b257f2fbe2054ae28880e7172ebf2a2d27f86f98447afc1294bf3580429eb16",
        "detect": "44136fa355b3678a1146ad16f7e8649e94fb4fc21fe77e8310c060f61caaff8a",
        "classify-ood": "7a6fcf19d6c5ca3f9641740cf6fecd3aa79b8b55df4e48e1514359cfeb7815ac",
        "eval": "44136fa355b3678a1146ad16f7e8649e94fb4fc21fe77e8310c060f61caaff8a",
    }


def test_validate_config_rejects_unknown_keys(fix):
    bad = _variant_config(fix, "bad_key.json",
                          lambda c: c.setdefault("coarse", {}).update(banana=1))
    with pytest.raises(ConfigError, match="unknown config key 'coarse.banana'"):
        validate_config(bad)
    bad = _variant_config(fix, "bad_top.json",
                          lambda c: c.update(frobnicate=True))
    with pytest.raises(ConfigError, match="unknown config key 'frobnicate'"):
        validate_config(bad)


def test_validate_config_requires_seed(fix):
    bad = _variant_config(fix, "no_seed.json", lambda c: c.pop("seed"))
    with pytest.raises(ConfigError, match="missing required config key 'seed'"):
        validate_config(bad)


def test_validate_config_type_errors(fix):
    bad = _variant_config(fix, "str_seed.json",
                          lambda c: c.update(seed="7"))
    with pytest.raises(ConfigError, match="seed: expected an integer"):
        validate_config(bad)
    # bool is not an acceptable integer
    bad = _variant_config(fix, "bool_seed.json",
                          lambda c: c.update(seed=True))
    with pytest.raises(ConfigError, match="seed: expected an integer"):
        validate_config(bad)
    bad = _variant_config(
        fix, "float_steps.json",
        lambda c: c.setdefault("propagation", {}).update(steps=2.5))
    with pytest.raises(ConfigError, match="propagation.steps: expected an integer"):
        validate_config(bad)
    bad = _variant_config(
        fix, "scalar_classes.json",
        lambda c: c["split"].update(id_classes="circuit design"))
    with pytest.raises(ConfigError, match="expected a list of strings"):
        validate_config(bad)
    # JSON's NaN and Infinity, and an integer beyond the float range
    for block, key, value in (("train", "learning_rate", math.nan),
                              ("train", "learning_rate", 10 ** 400),
                              ("train", "weight_decay", math.inf),
                              ("gateway", "temperature", math.nan),
                              ("gateway", "request_timeout", math.nan)):
        bad = _variant_config(fix, "non_finite.json",
                              lambda c: c.setdefault(block, {}).update({key: value}))
        with pytest.raises(ConfigError, match=f"{block}.{key}: expected a finite number"):
            validate_config(bad)
    for timeout in (-1, 0):
        bad = _variant_config(fix, "timeout.json",
                              lambda c: c["gateway"].update(request_timeout=timeout))
        with pytest.raises(ConfigError, match="request_timeout must be > 0"):
            validate_config(bad)


def test_validate_config_checks_dataset_paths(fix):
    bad = _variant_config(fix, "gone_nodes.json",
                          lambda c: c["dataset"].update(nodes="gone.jsonl"))
    with pytest.raises(ConfigError, match="dataset.nodes: no such file"):
        validate_config(bad)
    bad = _variant_config(
        fix, "no_mock.json",
        lambda c: c["gateway"].update(mock_fixture_path=None))
    with pytest.raises(ConfigError, match="required in mock mode"):
        validate_config(bad)


def test_validate_config_class_rules(fix):
    bad = _variant_config(fix, "one_id.json",
                          lambda c: c["split"].update(id_classes=["solo"]))
    with pytest.raises(ConfigError, match="at least two"):
        validate_config(bad)
    bad = _variant_config(fix, "no_ood.json",
                          lambda c: c["split"].update(ood_classes=[]))
    with pytest.raises(ConfigError, match="must not be empty"):
        validate_config(bad)
    bad = _variant_config(
        fix, "overlap.json",
        lambda c: c["split"].update(
            ood_classes=[c["split"]["id_classes"][0], "volcanology"]))
    with pytest.raises(ConfigError, match="overlap"):
        validate_config(bad)
    bad = _variant_config(
        fix, "dupes.json",
        lambda c: c["split"].update(id_classes=["twice", "twice"]))
    with pytest.raises(ConfigError, match="duplicate class names"):
        validate_config(bad)


def _set(block, **values):
    """A config edit that sets values in block."""
    return lambda c: c.setdefault(block, {}).update(values)


# each config error the tests above leave out: (a function that edits the
# fixture's config, the text written in its place, or None for no file;
# what cfc prints after "error: ", {path} standing for the config's path)
_CONFIG_ERRORS = {
    "split-fraction": (_set("split", train_frac=1.0), "split fractions must lie in (0, 1)"),
    # checked by the split itself, when ingest runs: no validation node
    "split-without-validation": (
        lambda c: c.update(artifacts_dir="val001", split={**c["split"], "val_frac": 0.01}),
        "split rejected: val_frac=0.01 leaves the validation set empty"),
    "candidate-count": (_set("coarse", candidate_count=0), "candidate_count must be >= 1"),
    "parse-retries": (_set("coarse", max_parse_retries=-1), "max_parse_retries must be >= 0"),
    "text-budget": (_set("coarse", text_budget=3), "text_budget too small"),
    "boundary-count": (_set("mixup", boundary_count=0), "boundary_count must be >= 1"),
    "weight-decay": (_set("train", weight_decay=-0.1), "weight_decay must be >= 0"),
    "hidden-dim": (_set("train", hidden_dim=0), "hidden_dim must be >= 1"),
    "patience": (_set("train", early_stop_patience=0), "early_stop_patience must be >= 1"),
    "gateway-retries": (_set("gateway", max_retries=-1), "max_retries must be >= 0"),
    "merge-threshold": (_set("merge", sim_threshold=1.5),
                        "merge.sim_threshold must lie in [0, 1]"),
    "merge-min-count": (_set("merge", min_count=0), "merge.min_count must be >= 1 when set"),
    "block-not-an-object": (lambda c: c.update(train=[]), "train: expected an object"),
    "unreadable": (None, "cannot read config {path}: [Errno 2] No such file or "
                         "directory: '{path}'"),
    "not-json": ("{", "{path}:1: malformed JSON (Expecting property name enclosed "
                      "in double quotes)"),
    "not-an-object": ("[]", "{path}: top level must be a JSON object"),
    "live-without-base-url": (
        _set("gateway", mode="live", mock_fixture_path=None),
        "gateway.base_url (or $CFC_LLM_BASE_URL) is required in live mode"),
}


@pytest.mark.parametrize("case", list(_CONFIG_ERRORS))
def test_a_config_error_is_one_error_line(fix, tmp_path, capsys, monkeypatch, case):
    content, error = _CONFIG_ERRORS[case]
    monkeypatch.delenv("CFC_LLM_BASE_URL", raising=False)
    path = str(tmp_path / "config.json")
    if callable(content):
        path = _variant_config(fix, f"{case}.json", content)
    elif content is not None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(content)
    assert cli.main(["run-all", "--config", path]) == 1
    assert capsys.readouterr().err == "error: " + error.format(path=path) + "\n"


def _schema_rows(cls, prefix=""):
    """(key, type, default, stages whose input hash reads it) per config key."""
    for key, (hint, default) in config._spec(cls).items():
        if dataclasses.is_dataclass(hint):
            yield from _schema_rows(hint, prefix + key + ".")
            continue
        dotted = prefix + key
        readers = [stage for stage in STAGE_ORDER
                   if any(p == dotted or dotted.startswith(p + ".")
                          for path in pipeline._STAGES[stage].reads.values()
                          for p in (path if isinstance(path, tuple) else (path,)))]
        yield (f"`{dotted}`", config._KINDS[hint][0].split(" ", 1)[1],
               "required" if default is dataclasses.MISSING else f"`{json.dumps(default)}`",
               ", ".join(readers) or "none")


def test_readme_key_table_matches_the_schema():
    with open(os.path.join(os.path.dirname(SRC), "README.md"), encoding="utf-8") as fh:
        table = [line for line in fh if re.match(r"\| `[a-z_.]+` \|", line)]
    rows = [tuple(cell.strip() for cell in line.strip().strip("|").split("|"))
            for line in table]
    assert rows == list(_schema_rows(config.RunConfig))
    assert len(rows) == 35


def test_validate_config_artifacts_override(fix, tmp_path):
    override = tmp_path / "elsewhere"
    rc = validate_config(fix["config"], artifacts_override=str(override))
    assert rc.artifacts_dir == str(override)
    assert not os.path.exists(override)         # validation writes nothing


# ------------------------------------------------------------ stage caching


def test_run_all_executes_every_stage(primary):
    rc, executed = primary
    assert list(executed) == list(STAGE_ORDER)
    assert all(executed.values())
    manifest = load_manifest(rc.artifacts_dir)
    assert set(manifest["stages"]) == set(STAGE_ORDER)
    assert manifest["config_hash"] == full_config_hash(rc)
    for stage in STAGE_ORDER:
        for name in manifest["stages"][stage]["outputs"]:
            assert os.path.isfile(rc.artifact(name)), (stage, name)


def test_rerun_is_fully_cached(primary, monkeypatch, manifest_saves):
    # a cached pass rewrites the manifest at most once, to record the hashes
    # it could trust, and the next one leaves it byte-identical
    rc, _ = primary
    _move_clock_past_window(monkeypatch)
    stages = load_manifest(rc.artifacts_dir)["stages"]
    assert not any(run_all(rc).values())
    assert manifest_saves[0] <= 1
    before = _read_bytes(rc.artifact(MANIFEST_FILE))
    assert not any(run_all(rc).values())
    assert _read_bytes(rc.artifact(MANIFEST_FILE)) == before
    assert manifest_saves[0] <= 1
    assert load_manifest(rc.artifacts_dir)["stages"] == stages   # timestamps kept


def test_a_cached_pass_records_the_hashes_it_can_trust(fix, tmp_path, hashed,
                                                       monkeypatch):
    rc = validate_config(fix["config"], artifacts_override=str(tmp_path / "a"))
    run_all(rc)
    # every output was hashed right after its write, inside the racy window
    before = _read_bytes(rc.artifact(MANIFEST_FILE))
    with monkeypatch.context() as m:
        m.setattr(pipeline, "RACY_WINDOW_NS", 10 ** 18)
        assert not any(run_all(rc).values())
    assert hashed                   # racy entries are read again,
    assert _read_bytes(rc.artifact(MANIFEST_FILE)) == before   # but not saved

    _move_clock_past_window(monkeypatch)
    hashed.clear()
    assert not any(run_all(rc).values())
    outputs = {rc.artifact(name) for spec in pipeline._STAGES.values()
               for name in spec.writes}
    assert outputs <= set(hashed)
    assert _read_bytes(rc.artifact(MANIFEST_FILE)) != before
    hashed.clear()
    assert not any(run_all(rc).values())
    assert hashed == []             # the refreshed entries are trusted


def test_an_output_cut_or_edited_in_place_reruns_its_stage(fix, tmp_path, hashed,
                                                          trusted_memo):
    # with the memo trusted, only the changed stat gets the file read again
    rc = validate_config(fix["config"], artifacts_override=str(tmp_path / "a"))
    run_all(rc)
    detect = rc.artifact(DETECT_FILE)
    clean = _read_bytes(detect)
    lines = clean.splitlines(keepends=True)
    with open(detect, "wb") as fh:                 # cut at a line boundary
        fh.write(b"".join(lines[:len(lines) // 2]))
    hashed.clear()
    executed = run_all(rc)
    assert [s for s, ran in executed.items() if ran] == ["detect"]
    assert detect in hashed
    assert _read_bytes(detect) == clean

    path = rc.artifact(EVAL_FILE)
    clean = _read_bytes(path)
    edited = clean.replace(b'"ood_class_index": 2', b'"ood_class_index": 3')
    assert edited != clean and len(edited) == len(clean)
    with open(path, "wb") as fh:                   # same size, same place
        fh.write(edited)
    hashed.clear()
    executed = run_all(rc)
    assert [s for s, ran in executed.items() if ran] == ["eval"]
    assert path in hashed
    assert _read_bytes(path) == clean
    assert not any(run_all(rc).values())


def test_manifest_without_output_hashes_reruns_once(primary, fix, tmp_path):
    # entries written before outputs were hashed list only the names
    rc, _ = primary
    rc2 = validate_config(fix["config"], artifacts_override=str(tmp_path / "old"))
    run_all(rc2)
    manifest = load_manifest(rc2.artifacts_dir)
    for entry in manifest["stages"].values():
        entry["outputs"] = sorted(entry["outputs"])
    pipeline._save_manifest(rc2.artifacts_dir, manifest)
    with pytest.raises(ConfigError, match="missing artifact: ingest"):
        run_stage(rc2, "coarse")
    assert all(run_all(rc2).values())
    assert _read_bytes(rc2.artifact(EVAL_FILE)) == _read_bytes(rc.artifact(EVAL_FILE))
    assert not any(run_all(rc2).values())


def test_resolved_json_describes_the_config_that_ran(fix, tmp_path):
    arts = str(tmp_path / "a")
    rc = validate_config(fix["config"], artifacts_override=arts)
    resolved = os.path.join(arts, RESOLVED_FILE)
    assert not os.path.exists(arts)
    run_all(rc)
    with open(resolved, "r", encoding="utf-8") as fh:
        assert json.load(fh) == rc.resolved
    before = _read_bytes(resolved)

    changed = _variant_config(
        fix, "steps5.json", lambda c: c.setdefault("propagation", {}).update(steps=5))
    args = ["--config", changed, "--artifacts", arts]
    refused = _cli(["run-all", "--strict", *args], cwd=str(tmp_path))
    assert refused.returncode == 1 and "config hash mismatch" in refused.stderr
    with artifacts_lock(arts):
        locked = _cli(["run-all", *args], cwd=str(tmp_path))
    assert locked.returncode == 2 and "locked by another run" in locked.stderr
    assert _cli(["report", *args], cwd=str(tmp_path)).returncode == 0
    assert _read_bytes(resolved) == before

    ran = validate_config(changed, artifacts_override=arts)
    assert run_all(ran)["denoise"]
    with open(resolved, "r", encoding="utf-8") as fh:
        assert json.load(fh) == ran.resolved
    assert load_manifest(arts)["config_hash"] == full_config_hash(ran)


def test_eval_json_reproducible(primary, fix, tmp_path):
    rc, _ = primary
    rc2 = validate_config(fix["config"], artifacts_override=str(tmp_path / "b"))
    run_all(rc2)
    for name in (EVAL_FILE, PRELIM_CKPT, BASELINE_PROBS_FILE, FINE_CKPT):
        assert _read_bytes(rc2.artifact(name)) == _read_bytes(rc.artifact(name)), name
    doc = json.loads(_read_bytes(rc.artifact(EVAL_FILE)))
    assert set(doc["methods"]) == {"CFC", "GCN_softmax", "GCN_softmax_tau",
                                   "GCN_sigmoid", "GCN_sigmoid_tau"}
    assert doc["ood_class_index"] == len(rc.split.id_classes)
    assert doc["cluster_accuracy"] is not None


# the record artifacts that no model touches, as the demo corpus writes
# them: each record is its dataclass's fields in declaration order. Then
# eval.json and the OOD assignments, which read the models' outputs but
# keep their bytes under other BLAS and SIMD kernels, as no model file does
RECORD_SHA256 = {
    SPLIT_FILE: "7acf05920339bad4d4680d3d9b2fc894d28cd2c26cf294dde7e6147c3753841c",
    COARSE_FILE: "94888d365c2497d21140a4527d5e7d1e7b25fc5523bd3e4c381df5b303e35967",
    DENOISED_FILE: "433cb9844e5617b428532f2408c22e97b631fa4c32ef3445b94f23dc07a2bd46",
    POST_LABELS_FILE: "02dac3008217f912433447d318986f885c302f64d72b7253d5b68238b89d9e24",
    ASSIGN_FILE: "ef3bcbb1067539c73c84bc306dcde2ac66af11bde08d56807510ffbf5660e8d1",
    EVAL_FILE: "d3178b19dcd61e2f5b2aa85389e7cdddeba13c3b0a3840e3dc0f0f3eb864d641",
}


def test_record_artifacts_are_pinned(primary):
    rc, _ = primary
    got = {name: hashlib.sha256(_read_bytes(rc.artifact(name))).hexdigest()
           for name in RECORD_SHA256}
    assert got == RECORD_SHA256


# the demo's detect.jsonl OOD scores, to 12 decimals. Other BLAS and SIMD
# kernels move them by about 1e-16, a wrong model (boundary nodes picked by
# the smallest class probability, or the fine model trained on the prelim
# seed) by 3e-3 or more, so they are pinned at 1e-9 where no hash can be
DEMO_OOD_SCORES = {
    5: 0.020677379378, 7: 0.028288443852, 12: 0.012243383475, 13: 0.031505917113,
    14: 0.019065166254, 29: 0.038522649262, 31: 0.042207406669, 33: 0.043981969975,
    39: 0.037796787059, 40: 0.030797305455, 41: 0.016387318512, 45: 0.023389900362,
    48: 0.028528314595, 49: 0.023417897299, 52: 0.036117293089, 54: 0.033092239368,
    56: 0.028104482872, 57: 0.030523682699, 58: 0.032748036551, 59: 0.014601565484,
    68: 0.025526746073, 76: 0.033888074964, 78: 0.034318262086, 79: 0.058894353046,
    80: 0.015757816973, 89: 0.03523339725, 90: 0.037333992147, 92: 0.068036100729,
    95: 0.028267272978, 96: 0.056356031978, 97: 0.034247694081, 102: 0.043234645365,
    104: 0.015512107734, 106: 0.066577806192, 110: 0.023500458565, 113: 0.051223379439,
    116: 0.035677269988, 117: 0.045202226273, 120: 0.070000406261, 126: 0.021732868246,
    127: 0.040295437565, 129: 0.041707454082, 142: 0.986247485133, 143: 0.98143164209,
    144: 0.975761797912, 149: 0.984935096325, 150: 0.972968303114, 151: 0.96215898866,
    153: 0.943671901142, 154: 0.984209094376, 155: 0.959182274761, 156: 0.948589396243,
    157: 0.942775234009, 159: 0.94906918933, 161: 0.961320784805, 163: 0.975941429168,
    164: 0.986467801839, 165: 0.974495891507, 169: 0.953337503784, 170: 0.97749701056,
    171: 0.99482173296, 172: 0.987772212357, 173: 0.950422026725, 175: 0.991730741505,
    176: 0.978682343778, 178: 0.977654171047, 180: 0.964461739697, 181: 0.985112540539,
    182: 0.992432332619, 183: 0.948553712346, 186: 0.964244121787, 187: 0.988971027018,
    190: 0.969178048972, 191: 0.89041169692, 194: 0.978608023847, 195: 0.908294081193,
    198: 0.950064432138, 199: 0.985255767811, 200: 0.956717022998, 201: 0.967328777278,
    205: 0.973272598816, 206: 0.979740952836, 208: 0.994771443828, 209: 0.980867510408,
    211: 0.978532595777, 212: 0.982628328941, 213: 0.920418716947,
}

# the demo's boundary nodes, in mixup's shuffled order: each of the 100
# synthetic rows takes the next one, cyclically
DEMO_BOUNDARY_IDS = (119, 84, 21, 4, 100, 125, 47, 105, 66, 53)


def test_demo_ood_scores_are_pinned(primary):
    rc, _ = primary
    scores = {d.node_id: d.ood_score for d in read_records(rc.artifact(DETECT_FILE), Detection)}
    assert scores.keys() == DEMO_OOD_SCORES.keys()
    npt.assert_allclose([scores[n] for n in DEMO_OOD_SCORES],
                        list(DEMO_OOD_SCORES.values()), rtol=0, atol=1e-9)


def test_demo_boundary_ids_are_pinned(primary):
    rc, _ = primary
    synth = load_synthetic(rc.artifact(SYNTH_BIN_FILE), rc.artifact(SYNTH_META_FILE))
    assert synth.boundary_ids == DEMO_BOUNDARY_IDS * 10


def test_run_all_hashes_each_dataset_file_once(fix, tmp_path, hashed, trusted_memo):
    rc = validate_config(fix["config"], artifacts_override=str(tmp_path / "a"))
    assert all(run_all(rc).values())
    for path in (rc.dataset.nodes, rc.dataset.edges, rc.dataset.features):
        assert hashed.count(path) == 1
    hashed.clear()
    assert not any(run_all(rc).values())
    assert hashed == []             # a cached run reads no file it has hashed


def test_a_command_decides_each_stage_once(fix, tmp_path, monkeypatch):
    # each stage's outputs are compared with the manifest once per command,
    # and the dataset's file list is encoded once for every stage's input
    decided, encoded = [], []
    stage_done, json_hash = pipeline._stage_done, pipeline._json_hash

    def counting_done(*args):
        decided.append(args[-1])
        return stage_done(*args)

    def counting_hash(obj):
        if isinstance(obj, list):
            encoded.append(obj)
        return json_hash(obj)

    monkeypatch.setattr(pipeline, "_stage_done", counting_done)
    monkeypatch.setattr(pipeline, "_json_hash", counting_hash)
    rc = validate_config(fix["config"], artifacts_override=str(tmp_path / "a"))
    assert all(run_all(rc).values())
    assert decided == [] and len(encoded) == 1      # executed stages are done

    encoded.clear()
    assert not any(run_all(rc).values())
    assert decided == list(STAGE_ORDER)
    assert len(encoded) == 1

    # a rerun stage is done for its downstream stages without a second look
    decided.clear()
    os.remove(rc.artifact(DENOISED_FILE))
    executed = run_all(rc)
    assert [s for s, ran in executed.items() if ran] == ["denoise"]
    assert decided == list(STAGE_ORDER)

    # run_stage still refuses a stage whose upstream output is gone
    os.remove(rc.artifact(DENOISED_FILE))
    with pytest.raises(ConfigError, match="missing artifact: denoise"):
        run_stage(rc, "augment")
    assert not os.path.exists(rc.artifact(DENOISED_FILE))


def test_memo_records_the_stat_and_sha256_of_every_file_read(fix, tmp_path):
    rc = validate_config(fix["config"], artifacts_override=str(tmp_path / "a"))
    before = time.time_ns()
    run_all(rc)
    files = load_manifest(rc.artifacts_dir)["files"]
    dataset = [rc.dataset.nodes, rc.dataset.edges, rc.dataset.features,
               rc.gateway.mock_fixture_path]
    templates = [os.path.join(config.TEMPLATE_DIR, name + ".txt")
                 for name in config.TEMPLATE_NAMES]
    outputs = [rc.artifact(n) for spec in pipeline._STAGES.values() for n in spec.writes]
    assert sorted(files) == sorted(dataset + templates + outputs)
    for path, entry in files.items():
        st = os.stat(path)
        assert entry["stat"] == [st.st_dev, st.st_ino, st.st_size,
                                 st.st_mtime_ns, st.st_ctime_ns], path
        assert entry["sha256"] == pipeline._file_hash(path), path
        assert before <= entry["hashed_at_ns"] <= time.time_ns(), path


def test_memo_rehashes_a_dataset_file_rewritten_with_its_old_size_and_mtime(
        tmp_path, hashed, trusted_memo):
    paths = fixture_tools.write_fixture(str(tmp_path))
    rc = validate_config(paths["config"])
    run_all(rc)
    clean = _read_bytes(rc.artifact(EVAL_FILE))
    edges = rc.dataset.edges
    st = os.stat(edges)
    data = _read_bytes(edges)
    first = data.split(b"\n", 1)[0]
    rec = json.loads(first)
    flipped = json.dumps({"src": rec["dst"], "dst": rec["src"]}).encode()
    assert len(flipped) == len(first) and flipped != first   # the same edge
    with open(edges, "r+b") as fh:                  # in place: the inode stays
        fh.write(flipped)
    os.utime(edges, ns=(st.st_atime_ns, st.st_mtime_ns))
    now = os.stat(edges)
    assert (now.st_ino, now.st_size, now.st_mtime_ns) == \
        (st.st_ino, st.st_size, st.st_mtime_ns)
    assert now.st_ctime_ns != st.st_ctime_ns
    hashed.clear()
    # the dataset's hash is an input of every stage
    assert all(run_all(rc).values())
    assert edges in hashed
    assert _read_bytes(rc.artifact(EVAL_FILE)) == clean


def test_memo_rehashes_a_file_replaced_by_a_same_size_file(fix, tmp_path, hashed,
                                                           trusted_memo):
    rc = validate_config(fix["config"], artifacts_override=str(tmp_path / "a"))
    run_all(rc)
    path = rc.artifact(EVAL_FILE)
    clean, st = _read_bytes(path), os.stat(path)
    edited = clean.replace(b'"ood_class_index": 2', b'"ood_class_index": 3')
    assert edited != clean and len(edited) == len(clean)
    with open(path + ".new", "wb") as fh:
        fh.write(edited)
    os.utime(path + ".new", ns=(st.st_atime_ns, st.st_mtime_ns))
    os.replace(path + ".new", path)
    assert os.stat(path).st_ino != st.st_ino
    hashed.clear()
    executed = run_all(rc)
    assert [s for s, ran in executed.items() if ran] == ["eval"]
    assert path in hashed
    assert _read_bytes(path) == clean


def test_memo_compares_every_stat_field(fix, tmp_path, hashed, trusted_memo):
    # a file's own ctime already flags most changes as racy; each stat field
    # must still count alone, e.g. for an old file renamed into place on a
    # filesystem that keeps its ctime
    rc = validate_config(fix["config"], artifacts_override=str(tmp_path / "a"))
    run_all(rc)
    path = rc.artifact(EVAL_FILE)
    clean = load_manifest(rc.artifacts_dir)
    for field in range(5):
        manifest = copy.deepcopy(clean)
        entry = manifest["files"][path]
        entry["stat"][field] += 1
        entry["sha256"] = "0" * 64              # what the stat now vouches for
        pipeline._save_manifest(rc.artifacts_dir, manifest)
        hashed.clear()
        assert not any(run_all(rc).values()), field
        assert hashed == [path], field


def test_memo_rehashes_a_file_changed_inside_the_racy_window(fix, tmp_path, hashed):
    rc = validate_config(fix["config"], artifacts_override=str(tmp_path / "a"))
    run_all(rc)
    detect = rc.artifact(DETECT_FILE)
    clean = _read_bytes(detect)
    edited = clean.replace(b'"pred": 0', b'"pred": 1', 1)
    assert edited != clean and len(edited) == len(clean)

    def forge(hashed_after_change_ns):
        # a filesystem with coarse timestamps can leave a file changed after
        # its hash with the stat the hash recorded; stand in for one by
        # giving the memo the edited file's stat and the old sha256
        with open(detect, "wb") as fh:
            fh.write(edited)
        st = os.stat(detect)
        manifest = load_manifest(rc.artifacts_dir)
        manifest["files"][detect].update(
            stat=[st.st_dev, st.st_ino, st.st_size, st.st_mtime_ns, st.st_ctime_ns],
            hashed_at_ns=st.st_ctime_ns + hashed_after_change_ns)
        pipeline._save_manifest(rc.artifacts_dir, manifest)
        hashed.clear()

    forge(pipeline.RACY_WINDOW_NS // 2)
    executed = run_all(rc)
    assert [s for s, ran in executed.items() if ran] == ["detect"]
    assert detect in hashed
    assert _read_bytes(detect) == clean

    # the same memo entry, hashed a window after the change, is trusted
    forge(pipeline.RACY_WINDOW_NS + 1)
    assert not any(run_all(rc).values())
    assert detect not in hashed


def test_memo_entry_of_a_missing_file_is_a_miss(fix, tmp_path, hashed, trusted_memo):
    rc = validate_config(fix["config"], artifacts_override=str(tmp_path / "a"))
    run_all(rc)
    denoised = rc.artifact(DENOISED_FILE)
    saved = _read_bytes(denoised)
    manifest = load_manifest(rc.artifacts_dir)
    gone = str(tmp_path / "gone.jsonl")
    manifest["files"][gone] = manifest["files"][denoised]
    pipeline._save_manifest(rc.artifacts_dir, manifest)
    os.remove(denoised)
    hashed.clear()
    executed = run_all(rc)
    # denoise writes the same bytes again, so nothing downstream reruns
    assert [s for s, ran in executed.items() if ran] == ["denoise"]
    assert hashed == [denoised]
    assert _read_bytes(denoised) == saved
    assert gone in load_manifest(rc.artifacts_dir)["files"]
    assert not any(run_all(rc).values())


@pytest.mark.parametrize("kept", [(), ("stat", "hashed_at_ns")])
def test_memo_entry_missing_a_field_is_a_miss(fix, tmp_path, monkeypatch, capsys,
                                             kept):
    arts = str(tmp_path / "a")
    rc = validate_config(fix["config"], artifacts_override=arts)
    run_all(rc)
    nodes = rc.dataset.nodes
    manifest = load_manifest(arts)
    entry = manifest["files"][nodes]
    # hashed long after the file's last change, so only a missing field
    # can make the entry untrusted
    entry["hashed_at_ns"] = entry["stat"][4] + 2 * pipeline.RACY_WINDOW_NS
    manifest["files"][nodes] = {k: entry[k] for k in kept}
    pipeline._save_manifest(arts, manifest)
    _move_clock_past_window(monkeypatch)
    assert cli.main(["run-all", "--config", fix["config"], "--artifacts", arts]) == 0
    assert capsys.readouterr().out.splitlines()[:len(STAGE_ORDER)] == \
        [f"{stage}: cached" for stage in STAGE_ORDER]
    assert load_manifest(arts)["files"][nodes]["sha256"] == pipeline._file_hash(nodes)


def test_sparse_features_take_the_csr_path(tmp_path, monkeypatch):
    paths = fixture_tools.write_fixture(str(tmp_path))
    _, dense = fixture_tools.build_graph(0)
    feats = np.where(dense > 0.5, dense, 0.0)     # 7% nonzero
    save_matrices(paths["features"], feats)

    arts = {}
    for name, rule in (("csr", stages.SPARSE_FEATURE_DENSITY), ("dense", 0.0)):
        monkeypatch.setattr(stages, "SPARSE_FEATURE_DENSITY", rule)
        rc = validate_config(paths["config"], artifacts_override=str(tmp_path / name))
        x = stages.StageData(rc).x
        assert sp.issparse(x) == (name == "csr")
        npt.assert_array_equal(x.toarray() if sp.issparse(x) else x, feats)
        assert all(run_all(rc).values())
        arts[name] = rc

    for ckpt in (PRELIM_CKPT, FINE_CKPT):
        got = load_checkpoint(arts["csr"].artifact(ckpt))
        want = load_checkpoint(arts["dense"].artifact(ckpt))
        npt.assert_allclose(got.w0, want.w0, rtol=0, atol=1e-12)
        npt.assert_allclose(got.w1, want.w1, rtol=0, atol=1e-12)


def test_the_feature_csr_is_the_one_scipy_builds(tmp_path):
    # the CSR copy of X is made from the nonzero positions; scipy's own
    # conversion of the dense matrix is the reference, arrays and dtypes
    paths = fixture_tools.write_fixture(str(tmp_path))
    rc = validate_config(paths["config"])
    n, d = fixture_tools.build_graph(0)[1].shape
    rng = np.random.default_rng(7)
    for density in (0.0, 0.01, 0.05, stages.SPARSE_FEATURE_DENSITY):
        dense = np.where(rng.random((n, d)) < density, rng.normal(size=(n, d)), 0.0)
        dense[rng.random(n) < 0.3] = 0.0                # empty rows
        dense[0] = 0.0
        dense[-1, -1] = -2.5
        save_matrices(paths["features"], dense)
        x = stages.StageData(rc).x
        want = sp.csr_array(dense)
        assert sp.issparse(x) and x.has_canonical_format
        for name in ("data", "indices", "indptr"):
            got, ref = getattr(x, name), getattr(want, name)
            assert got.dtype == ref.dtype and np.array_equal(got, ref), (density, name)


def test_artifact_deletion_reruns_only_that_stage(fix, tmp_path):
    rc = validate_config(fix["config"], artifacts_override=str(tmp_path / "a"))
    run_all(rc)
    # baseline_probs.bin: train-prelim rewrites prelim.ckpt and the
    # probabilities with the same bytes, so augment and eval stay cached
    for name, producer in ((DENOISED_FILE, "denoise"),
                           (BASELINE_PROBS_FILE, "train-prelim")):
        saved = _read_bytes(rc.artifact(name))
        os.remove(rc.artifact(name))
        executed = run_all(rc)
        assert executed[producer]
        assert not any(ran for stage, ran in executed.items() if stage != producer)
        # deterministic regeneration, so downstream hashes still matched
        assert _read_bytes(rc.artifact(name)) == saved


def test_merge_edit_reruns_eval_without_training(fix, tmp_path, monkeypatch):
    trained = []
    train = stages.train

    def counting(*args, **kwargs):
        trained.append(kwargs["cfg"].head)
        return train(*args, **kwargs)

    monkeypatch.setattr(stages, "train", counting)
    arts = str(tmp_path / "a")
    assert all(run_all(validate_config(fix["config"], artifacts_override=arts)).values())
    assert trained == ["softmax", "sigmoid", "softmax"]

    # threshold 0 merges every logged category into one label, so the
    # assignments and therefore eval's inputs change
    trained.clear()
    edited = _variant_config(fix, "merge0.json", lambda c: c.setdefault(
        "merge", {}).update(sim_threshold=0.0))
    executed = run_all(validate_config(edited, artifacts_override=arts))
    assert [s for s, ran in executed.items() if ran] == ["classify-ood", "eval"]
    assert trained == []


def test_targets_are_each_nodes_class():
    data = stages.StageData(None)
    data.__dict__["graph"] = graph_module.Graph(
        4, None, ("a", "b", "c", "d"), ("y", "x", "z", None))
    data.__dict__["split"] = graph_module.SplitAssignment(
        (1,), (0, 2), (), id_classes=("y", "x"), ood_classes=("z",))
    # id_classes order, then the OOD index C for another label, then -1
    # for an unlabeled node
    assert data.targets.tolist() == [0, 1, 2, -1]
    y = data.id_targets()
    assert y.tolist() == [0, 1, -1, -1]
    y[:] = 5                            # train-fine writes into its copy
    assert data.targets.tolist() == [0, 1, 2, -1]


def test_mixup_starts_from_the_least_confident_training_nodes(primary):
    # confidence is a node's largest prelim class probability; the lowest
    # mixup.boundary_count training nodes are the boundary, ties to the lower id
    rc, _ = primary
    data = stages.StageData(rc)
    probs = forward(load_checkpoint(rc.artifact(PRELIM_CKPT)), data.a_hat, data.x).z_real
    ranked = sorted(data.split.train_ids, key=lambda i: (probs[i].max(), i))
    synth = load_synthetic(rc.artifact(SYNTH_BIN_FILE), rc.artifact(SYNTH_META_FILE))
    assert sorted(set(synth.boundary_ids)) == sorted(ranked[:rc.mixup.boundary_count])


def test_each_model_trains_on_its_own_seed(fix, tmp_path, monkeypatch):
    seeds = []
    real_train = stages.train

    def recording(*args, cfg, **kwargs):
        seeds.append(cfg.seed)
        return real_train(*args, cfg=cfg, **kwargs)

    monkeypatch.setattr(stages, "train", recording)
    rc = validate_config(fix["config"], artifacts_override=str(tmp_path / "a"))
    for stage in STAGE_ORDER[:STAGE_ORDER.index("train-fine") + 1]:
        run_stage(rc, stage)
    assert seeds == [rc.seed + config.SEED_OFFSETS[model]
                     for model in ("prelim", "baseline", "fine")]
    assert len(set(seeds)) == 3


def test_classify_ood_and_eval_never_read_the_feature_matrix(fix, tmp_path,
                                                             monkeypatch):
    rc = validate_config(fix["config"], artifacts_override=str(tmp_path / "a"))
    run_all(rc)
    # the recorded probabilities are those of the saved checkpoint and of
    # the sigmoid model retrained under the same config, so eval writes the
    # bytes that scoring the two models would
    data = stages.StageData(rc)
    c = len(rc.split.id_classes)
    [recorded] = load_matrices(rc.artifact(BASELINE_PROBS_FILE), rows=data.graph.num_nodes)
    assert np.array_equal(recorded[:, :c], predict(
        load_checkpoint(rc.artifact(PRELIM_CKPT)), data.a_hat, data.x))
    sigmoid = dataclasses.replace(rc.train, head="sigmoid",
                                  seed=rc.seed + config.SEED_OFFSETS["baseline"])
    y = data.id_targets()
    val_ids = [i for i in data.split.val_ids if y[i] >= 0]
    params, _ = train(data.a_hat, data.x, y, data.split.train_ids, val_ids,
                      out_dim=c, cfg=sigmoid)
    assert np.array_equal(recorded[:, c:], predict(params, data.a_hat, data.x,
                                                   head="sigmoid"))
    clean = _read_bytes(rc.artifact(EVAL_FILE))

    read = []

    def refusing(path, *args, **kwargs):
        assert os.path.realpath(path) != os.path.realpath(rc.dataset.features)
        read.append(os.path.basename(path))
        return load_matrices(path, *args, **kwargs)

    def no_dataset_file(path, num_nodes):
        raise AssertionError(f"dataset reader called on {path}")

    # nor the edges: coarse and the two stages an edit to merging reruns
    # read node texts and labels only. They run in a copy, as coarse's
    # exchange log gets new latencies
    for module in (stages, graph_module):
        monkeypatch.setattr(module, "load_matrices", refusing)
        monkeypatch.setattr(module, "load_features", no_dataset_file)
        monkeypatch.setattr(module, "load_edges", no_dataset_file)
    shutil.copytree(rc.artifacts_dir, tmp_path / "copy")
    rc_copy = validate_config(fix["config"], artifacts_override=str(tmp_path / "copy"))
    for stage in ("coarse", "classify-ood", "eval"):
        pipeline._STAGES[stage].run(pipeline._Runtime(rc_copy))
    assert _read_bytes(rc_copy.artifact(EVAL_FILE)) == clean
    assert read == [BASELINE_PROBS_FILE]        # eval's read went through the patch

    edited = _variant_config(fix, "merge0-features.json", lambda cfg: cfg.setdefault(
        "merge", {}).update(sim_threshold=0.0))
    executed = run_all(validate_config(edited, artifacts_override=rc.artifacts_dir))
    assert [s for s, ran in executed.items() if ran] == ["classify-ood", "eval"]


def test_a_self_loop_is_refused_before_any_prompt(tmp_path):
    # no stage after ingest may be the first to read the edges
    paths = fixture_tools.write_fixture(str(tmp_path))
    with open(paths["edges"], "a", encoding="utf-8") as fh:
        fh.write('{"src": 4, "dst": 4}\n')
    lineno = len(_read_bytes(paths["edges"]).splitlines())
    res = _cli(["run-all", "--config", paths["config"]], cwd=str(tmp_path))
    assert res.returncode == 1
    assert res.stderr == (f"error: dataset rejected: {paths['edges']}:{lineno}: "
                          f"self loop on node 4\n")
    assert not os.path.exists(os.path.join(paths["artifacts"], COARSE_LOG_FILE))


OLD_BASELINE_CKPT = "baseline.ckpt"


def _manifest_with_baseline_ckpt(rc) -> dict:
    """rc's manifest as it was when train-prelim also wrote the sigmoid
    model's checkpoint, baseline.ckpt (here a stand-in file)."""
    path = rc.artifact(OLD_BASELINE_CKPT)
    shutil.copyfile(rc.artifact(PRELIM_CKPT), path)
    manifest = load_manifest(rc.artifacts_dir)
    manifest["stages"]["train-prelim"]["outputs"][OLD_BASELINE_CKPT] = \
        pipeline._file_hash(path)
    return manifest


def test_manifest_from_before_baseline_probs_reruns_train_prelim(primary, fix, tmp_path):
    # an artifacts directory written when eval scored the baselines from the
    # two checkpoints: train-prelim reruns to record the probabilities, and
    # eval, whose inputs are now those probabilities, reruns to the same bytes
    rc, _ = primary
    rc2 = validate_config(fix["config"], artifacts_override=str(tmp_path / "old"))
    run_all(rc2)
    os.remove(rc2.artifact(BASELINE_PROBS_FILE))
    manifest = _manifest_with_baseline_ckpt(rc2)
    del manifest["stages"]["train-prelim"]["outputs"][BASELINE_PROBS_FILE]
    inputs = manifest["stages"]["eval"]["inputs"]
    del inputs[BASELINE_PROBS_FILE]
    for name in (PRELIM_CKPT, OLD_BASELINE_CKPT):
        inputs[name] = pipeline._file_hash(rc2.artifact(name))
    manifest["stages"]["eval"]["input_hash"] = pipeline._json_hash(inputs)
    pipeline._save_manifest(rc2.artifacts_dir, manifest)

    executed = run_all(rc2)
    assert [s for s, ran in executed.items() if ran] == ["train-prelim", "eval"]
    for name in (EVAL_FILE, BASELINE_PROBS_FILE):
        assert _read_bytes(rc2.artifact(name)) == _read_bytes(rc.artifact(name)), name
    assert not any(run_all(rc2).values())


def test_manifest_from_before_baseline_ckpt_reruns_train_prelim(primary, fix, tmp_path):
    # an artifacts directory written when train-prelim had one output and
    # eval trained the sigmoid baseline itself
    rc, _ = primary
    rc2 = validate_config(fix["config"], artifacts_override=str(tmp_path / "old"))
    run_all(rc2)
    manifest = load_manifest(rc2.artifacts_dir)
    manifest["stages"]["train-prelim"]["outputs"] = [PRELIM_CKPT]
    pipeline._save_manifest(rc2.artifacts_dir, manifest)

    executed = run_all(rc2)
    assert [s for s, ran in executed.items() if ran] == ["train-prelim"]
    assert _read_bytes(rc2.artifact(EVAL_FILE)) == _read_bytes(rc.artifact(EVAL_FILE))
    assert not any(run_all(rc2).values())


def test_a_directory_that_lists_baseline_ckpt_reruns_no_stage(primary, fix, tmp_path):
    # no stage reads the sigmoid model's checkpoint, and a stage's outputs
    # are checked against what it writes now: the old file stays, unread
    rc, _ = primary
    rc2 = validate_config(fix["config"], artifacts_override=str(tmp_path / "old"))
    run_all(rc2)
    manifest = _manifest_with_baseline_ckpt(rc2)
    pipeline._save_manifest(rc2.artifacts_dir, manifest)
    stale = _read_bytes(rc2.artifact(OLD_BASELINE_CKPT))

    assert not any(run_all(rc2).values())
    assert _read_bytes(rc2.artifact(EVAL_FILE)) == _read_bytes(rc.artifact(EVAL_FILE))
    assert _read_bytes(rc2.artifact(OLD_BASELINE_CKPT)) == stale


def test_gateway_settings_that_cannot_change_a_reply_rerun_nothing(fix, tmp_path):
    arts = str(tmp_path / "a")
    run_all(validate_config(fix["config"], artifacts_override=arts))
    edited = _variant_config(fix, "conc2.json", lambda c: c["gateway"].update(
        max_concurrent=2, max_retries=1, request_timeout=5.0))
    assert not any(run_all(validate_config(edited, artifacts_override=arts)).values())


def test_only_the_template_files_cfc_reads_are_hashed(tmp_path):
    templates = tmp_path / "templates"
    shutil.copytree(os.path.join(SRC, "cfc", "templates"), templates)
    paths = fixture_tools.write_fixture(str(tmp_path / "run"), config_overrides={
        "coarse": {"template_dir": str(templates)}})
    rc = validate_config(paths["config"])
    assert all(run_all(rc).values())

    (templates / "notes.txt").write_text("not a template\n", encoding="utf-8")
    assert not any(run_all(rc).values())

    # a trailing newline changes the file but not the rendered prompts, so
    # the LLM stages rerun to the same outputs and nothing downstream does
    edited = templates / "ood_classification.txt"
    edited.write_text(edited.read_text(encoding="utf-8") + "\n", encoding="utf-8")
    executed = run_all(rc)
    assert [s for s, ran in executed.items() if ran] == ["coarse", "classify-ood"]


def test_a_run_reads_each_template_it_uses_once(tmp_path, template_reads):
    paths = fixture_tools.write_fixture(str(tmp_path))
    template_reads.clear()          # the fixture renders the mock's prompts
    assert all(run_all(validate_config(paths["config"])).values())
    # the LLM stages' input hash reads all five once, the prompt path the two
    # templates it renders once each
    hashed = [name + ".txt" for name in config.TEMPLATE_NAMES]
    assert sorted(template_reads) == sorted(
        hashed + ["easy_reject.txt", "ood_classification.txt"])


def test_upstream_stages_are_the_producers_of_what_a_stage_reads():
    upstream = {stage: list(ups) for stage, ups in pipeline._UPSTREAM.items()}
    assert upstream == {
        "ingest": [],
        "coarse": ["ingest"],
        "denoise": ["ingest", "coarse"],
        "train-prelim": ["ingest"],
        "augment": ["ingest", "coarse", "denoise", "train-prelim"],
        "train-fine": ["ingest", "coarse", "denoise", "train-prelim", "augment"],
        "detect": list(STAGE_ORDER[:6]),
        "classify-ood": list(STAGE_ORDER[:7]),
        "eval": list(STAGE_ORDER[:8]),
    }


def test_stages_read_exactly_the_artifacts_they_consume(tmp_path, monkeypatch):
    # every artifact a stage opens is hashed into its input, and nothing else
    paths = fixture_tools.write_fixture(str(tmp_path))
    rc = validate_config(paths["config"])
    run_all(rc)
    arts = os.path.realpath(rc.artifacts_dir)
    opened = set()
    real_open = builtins.open

    def recording_open(file, mode="r", *args, **kwargs):
        if isinstance(file, str) and not set(mode) & set("wax+") and \
                os.path.dirname(os.path.realpath(file)) == arts:
            opened.add(os.path.basename(file))
        return real_open(file, mode, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", recording_open)
    for stage, spec in pipeline._STAGES.items():
        opened.clear()
        spec.run(pipeline._Runtime(rc))
        assert opened == set(spec.consumes), stage


def test_stages_refuse_to_run_out_of_order(fix, tmp_path):
    rc = validate_config(fix["config"], artifacts_override=str(tmp_path / "a"))
    with pytest.raises(ConfigError, match="missing artifact: ingest"):
        run_stage(rc, "denoise")
    assert run_stage(rc, "ingest") is True
    with pytest.raises(ConfigError, match="missing artifact: coarse"):
        run_stage(rc, "denoise")
    assert run_stage(rc, "coarse") is True
    assert run_stage(rc, "denoise") is True
    assert os.path.isfile(rc.artifact(DENOISED_FILE))


def test_run_stage_rejects_unknown_stage(primary):
    rc, _ = primary
    with pytest.raises(ConfigError, match="unknown stage"):
        run_stage(rc, "polish")


def test_strict_mode_flags_config_drift(fix, tmp_path):
    arts = str(tmp_path / "a")
    rc = validate_config(fix["config"], artifacts_override=arts)
    run_all(rc)
    changed = _variant_config(
        fix, "steps3.json",
        lambda c: c.setdefault("propagation", {}).update(steps=3))
    rc2 = validate_config(changed, artifacts_override=arts)
    with pytest.raises(ConfigError, match="config hash mismatch"):
        run_all(rc2, strict=True)
    # without --strict the affected stage simply reruns
    executed = run_all(rc2)
    assert executed["denoise"]
    assert not executed["ingest"] and not executed["coarse"]


def test_lock_blocks_concurrent_runs(tmp_path):
    arts = str(tmp_path / "arts")
    with artifacts_lock(arts):
        assert os.path.isfile(os.path.join(arts, ".lock"))
        with pytest.raises(StageError, match="locked by another run"):
            with artifacts_lock(arts):
                pass
    # the file stays; only the flock on it marks the directory as taken
    assert os.path.isfile(os.path.join(arts, ".lock"))
    with artifacts_lock(arts):
        pass


def test_lock_of_a_killed_run_is_released(tmp_path):
    arts = str(tmp_path / "arts")
    code = ("import sys, time\n"
            "from cfc.pipeline import artifacts_lock\n"
            "with artifacts_lock(sys.argv[1]):\n"
            "    print('held', flush=True)\n"
            "    time.sleep(60)\n")
    child = subprocess.Popen([sys.executable, "-c", code, arts],
                             stdout=subprocess.PIPE, text=True, env=_child_env())
    try:
        assert child.stdout.readline().strip() == "held"
        with pytest.raises(StageError, match="locked by another run"):
            with artifacts_lock(arts):
                pass
    finally:
        child.send_signal(signal.SIGKILL)
        child.wait()
        child.stdout.close()
    with artifacts_lock(arts):
        pass


def test_lock_removes_temp_files_of_killed_writers(tmp_path):
    arts = str(tmp_path / "arts")
    code = ("import sys, time\n"
            "from cfc.jsonl import atomic_write\n"
            "with atomic_write(sys.argv[1]) as fh:\n"
            "    fh.write('half')\n"
            "    fh.flush()\n"
            "    print('writing', flush=True)\n"
            "    time.sleep(60)\n")
    os.makedirs(arts)
    child = subprocess.Popen([sys.executable, "-c", code, os.path.join(arts, EVAL_FILE)],
                             stdout=subprocess.PIPE, text=True, env=_child_env())
    try:
        assert child.stdout.readline().strip() == "writing"
    finally:
        child.send_signal(signal.SIGKILL)
        child.wait()
        child.stdout.close()
    orphan = f"{EVAL_FILE}.{child.pid}.tmp"
    live = f"{RESOLVED_FILE}.{os.getpid()}.tmp"     # a write in flight
    with open(os.path.join(arts, live), "w") as fh:
        fh.write("{}")
    with open(os.path.join(arts, "notes.tmp"), "w") as fh:
        fh.write("not ours")
    assert orphan in os.listdir(arts)

    with artifacts_lock(arts):
        pass
    assert sorted(os.listdir(arts)) == sorted([LOCK_FILE, live, "notes.tmp"])


# ------------------------------------------------------------ failure paths


def test_coarse_failure_leaves_no_result(tmp_path):
    paths = fixture_tools.write_fixture(str(tmp_path))
    with open(paths["mock"], "r", encoding="utf-8") as fh:
        original = fh.read()
    rules = [json.loads(line) for line in original.splitlines() if line.strip()]
    # drop the last few detection rules and every fallback, so a handful of
    # screening prompts have no mock answer at all
    hash_rules = [r for r in rules if r["match"].startswith("hash:")]
    with open(paths["mock"], "w", encoding="utf-8") as fh:
        for rule in hash_rules[:-5]:
            fh.write(json.dumps(rule) + "\n")

    rc = validate_config(paths["config"])
    assert run_stage(rc, "ingest") is True
    with pytest.raises(StageError, match="^coarse: .*no rule"):
        run_stage(rc, "coarse")
    assert not os.path.exists(rc.artifact(COARSE_FILE))
    assert "coarse" not in load_manifest(rc.artifacts_dir)["stages"]
    # nothing but the exchange log of the failed attempt is left behind
    assert sorted(os.listdir(rc.artifacts_dir)) == sorted(
        [COARSE_LOG_FILE, MANIFEST_FILE, RESOLVED_FILE, SPLIT_FILE])

    # restoring the fixture lets the stage complete
    with open(paths["mock"], "w", encoding="utf-8") as fh:
        fh.write(original)
    assert run_stage(rc, "coarse") is True
    assert os.path.isfile(rc.artifact(COARSE_FILE))
    assert run_stage(rc, "coarse") is False


class InjectedFault(Exception):
    """Stands in for a kill in the middle of an artifact write."""


@contextmanager
def _torn_file(path, mode, **kwargs):
    """A file that keeps half of what was written to it, then fails."""
    with open(path, mode, **kwargs) as fh:
        yield fh
        fh.flush()
        os.truncate(path, os.path.getsize(path) // 2)
    raise InjectedFault(path)


def test_a_write_cut_at_any_point_reruns_to_the_clean_bytes(tmp_path, monkeypatch):
    paths = fixture_tools.write_fixture(str(tmp_path))
    arts = paths["artifacts"]
    writes = {"count": 0, "fail_at": None}

    def faulty_open(path, mode="r", **kwargs):
        if "w" not in mode:
            return open(path, mode, **kwargs)
        writes["count"] += 1
        if writes["count"] == writes["fail_at"]:
            return _torn_file(path, mode, **kwargs)
        return open(path, mode, **kwargs)

    replaced = []
    real_replace = os.replace

    def recording_replace(src, dst):
        replaced.append(os.path.basename(dst))
        real_replace(src, dst)

    monkeypatch.setattr(jsonl, "open", faulty_open, raising=False)
    monkeypatch.setattr(os, "replace", recording_replace)

    def run(fail_at=None):
        writes["count"], writes["fail_at"] = 0, fail_at
        run_all(validate_config(paths["config"]))
        return writes["count"]

    def snapshot():
        out = {}
        for name in sorted(os.listdir(arts)):
            if name in (COARSE_LOG_FILE, CLASSIFY_LOG_FILE):
                continue        # append-only logs: call order and latencies vary
            data = _read_bytes(os.path.join(arts, name))
            if name == MANIFEST_FILE:
                manifest = json.loads(data)
                for entry in manifest["stages"].values():
                    del entry["wall_time_s"], entry["completed_at"]
                    for log in (COARSE_LOG_FILE, CLASSIFY_LOG_FILE):
                        entry["outputs"].pop(log, None)     # the logs vary
                # every remembered hash is the file's hash now; the stat
                # fields and hashed_at_ns vary like wall_time_s
                for path, entry in manifest["files"].items():
                    assert entry["sha256"] == pipeline._file_hash(path), path
                manifest["files"] = sorted(manifest["files"])
                data = manifest
            out[name] = data
        return out

    total = run()
    clean = snapshot()
    # every stage output but the exchange logs, plus the config echo and the
    # manifest, is renamed into place
    atomic = {name for spec in pipeline._STAGES.values() for name in spec.writes}
    atomic -= {COARSE_LOG_FILE, CLASSIFY_LOG_FILE}
    assert set(replaced) == atomic | {RESOLVED_FILE, MANIFEST_FILE}
    assert replaced.count(MANIFEST_FILE) == len(STAGE_ORDER)
    assert total == len(replaced)

    for k in range(1, total + 1):
        shutil.rmtree(arts)
        with pytest.raises(InjectedFault):
            run(fail_at=k)
        assert not [n for n in os.listdir(arts) if n.endswith(".tmp")], k
        run()
        assert snapshot() == clean, k


def test_report_needs_a_finished_eval(fix, tmp_path):
    rc = validate_config(fix["config"], artifacts_override=str(tmp_path / "a"))
    with pytest.raises(ConfigError, match="missing artifact: eval"):
        emit_report(rc)


# ------------------------------------------------------------ hard_reject, live reply cache


def test_hard_reject_run_end_to_end(tmp_path):
    paths = fixture_tools.write_fixture(str(tmp_path), config_overrides={
        "coarse": {"mode": "hard_reject", "candidate_count": 3}})
    replies = [
        ("Which major category", [{"answer": "Natural Science"}]),
        ("possible paper topics", [{"answer": "Marine Biology"},
                                   {"answer": "volcanology"},
                                   {"answer": "circuit design"}]),
        ("Which category does this paper belong to",
         [{"answer": "marine biology", "confidence": 0.8}]),
        ("coral", [{"answer": "False", "confidence": 0.9,
                    "category": "marine biology"}]),
        ("magma", [{"answer": "False", "confidence": 0.9,
                    "category": "volcanology"}]),
        ("", [{"answer": "True", "confidence": 0.9}]),
    ]
    with open(paths["mock"], "w", encoding="utf-8") as fh:
        for needle, reply in replies:
            fh.write(json.dumps({"match": "substr:" + needle,
                                 "response": json.dumps(reply)}) + "\n")

    rc = validate_config(paths["config"])
    assert all(run_all(rc).values())
    coarse = load_coarse_result(rc.artifact(COARSE_FILE))
    assert coarse.major_category == "natural science"
    # "circuit design" collides with the ID space and is dropped
    assert coarse.candidate_ood_labels == ("marine biology", "volcanology")
    assert coarse.ood_ids
    with open(rc.artifact(COARSE_LOG_FILE), "r", encoding="utf-8") as fh:
        asked = [json.loads(line)["prompt_text"] for line in fh]
    assert len(asked) == len(coarse.annotations) + 2     # + the two setup prompts
    assert os.path.isfile(rc.artifact(EVAL_FILE))
    assert not any(run_all(rc).values())


def test_mock_run_writes_no_reply_cache(primary):
    rc, _ = primary
    assert not os.path.exists(rc.artifact(LLM_CACHE_FILE))


def test_mock_exchange_logs_are_in_prompt_order_run_after_run(fix, tmp_path,
                                                               monkeypatch):
    batches = []
    ask_all = LLMGateway.ask_all

    def recording(self, prompts, parse, retries=0):
        batches.append(list(prompts))
        return ask_all(self, prompts, parse, retries)

    monkeypatch.setattr(LLMGateway, "ask_all", recording)
    runs = []
    for name in ("a", "b"):
        batches.clear()
        rc = validate_config(fix["config"], artifacts_override=str(tmp_path / name))
        assert all(run_all(rc).values())
        records = []
        for log in (COARSE_LOG_FILE, CLASSIFY_LOG_FILE):
            with open(rc.artifact(log), "r", encoding="utf-8") as fh:
                records += [json.loads(line) for line in fh]
        for record in records:
            del record["latency_s"]
        # one record per prompt, in the order each stage passed them
        assert [r["prompt_text"] for r in records] == [p for batch in batches for p in batch]
        runs.append(records)
    assert len(batches) == 2 and runs[0] == runs[1]


def _live_fixture(dir_path, monkeypatch, **gateway):
    """The corpus with a live gateway whose transport answers from the
    corpus's mock rules. The returned state records every prompt the
    transport receives; the call numbered state["fail_at"] is refused, and
    a prompt holding the text state["never_parses"] is answered "no idea"."""
    paths = fixture_tools.write_fixture(str(dir_path), config_overrides={
        "gateway": {"mode": "live", "base_url": "http://localhost:9",
                    "mock_fixture_path": None, **gateway}})
    rules = LLMGateway(GatewayConfig(mode="mock", mock_fixture_path=paths["mock"]))
    state = {"calls": [], "fail_at": None, "never_parses": None}

    def transport(url, payload, headers, timeout):
        prompt = payload["messages"][0]["content"]
        state["calls"].append(prompt)
        if len(state["calls"]) == state["fail_at"]:
            return 400, {"error": "refused"}
        garbled = state["never_parses"] is not None and state["never_parses"] in prompt
        reply = "no idea" if garbled else rules.complete(prompt).response_text
        return 200, {"choices": [{"message": {"content": reply}}]}

    monkeypatch.setattr(_Connections, "__call__", lambda self, *args: transport(*args))
    monkeypatch.setenv("CFC_LLM_API_KEY", "k")
    monkeypatch.delenv("CFC_LLM_BASE_URL", raising=False)
    return paths, state


def test_live_coarse_resumes_without_reasking_answered_prompts(tmp_path, monkeypatch):
    paths, state = _live_fixture(tmp_path, monkeypatch,
                                 max_concurrent=1, max_retries=0)
    rc = validate_config(paths["config"])
    run_stage(rc, "ingest")
    state["fail_at"] = 7
    with pytest.raises(StageError, match="non-retryable"):
        run_stage(rc, "coarse")
    # one prompt in flight: nothing is asked after the refused call
    assert len(state["calls"]) == 7
    refused = state["calls"][6]
    answered = set(state["calls"][:6])

    state["calls"], state["fail_at"] = [], None
    assert run_stage(rc, "coarse") is True
    rerun = state["calls"]
    n_test = len(load_coarse_result(rc.artifact(COARSE_FILE)).annotations)
    assert refused in rerun
    assert answered.isdisjoint(rerun)
    assert len(rerun) == len(set(rerun)) == n_test - len(answered)

    # the resumed result is byte for byte that of an uninterrupted run
    clean = validate_config(paths["config"], artifacts_override=str(tmp_path / "clean"))
    run_stage(clean, "ingest")
    run_stage(clean, "coarse")
    assert _read_bytes(clean.artifact(COARSE_FILE)) == _read_bytes(rc.artifact(COARSE_FILE))


def test_live_threshold_edit_reuses_every_reply(tmp_path, monkeypatch):
    paths, state = _live_fixture(tmp_path, monkeypatch)
    rc = validate_config(paths["config"])
    run_stage(rc, "ingest")
    # one screening prompt is answered "no idea" on every attempt
    first = jsonl.read_json(rc.artifact(SPLIT_FILE))["test_ids"][0]
    [state["never_parses"]] = [rec["text"] for _, rec in jsonl.read_jsonl(paths["nodes"])
                               if rec["id"] == first]
    run_stage(rc, "coarse")
    assert load_coarse_result(rc.artifact(COARSE_FILE)).ood_ids
    garbled = [p for p in state["calls"] if state["never_parses"] in p]
    assert len(garbled) == rc.coarse.max_parse_retries + 1 and len(set(garbled)) == 1
    # every paid reply is cached, parsed or not
    cached = _read_bytes(rc.artifact(LLM_CACHE_FILE))
    assert len(cached.splitlines()) == len(state["calls"])

    state["calls"] = []
    edited = _variant_config(paths, "tau.json", lambda c: c.setdefault(
        "coarse", {}).update(confidence_threshold=0.95))
    rc2 = validate_config(edited)
    assert run_stage(rc2, "coarse") is True
    assert state["calls"] == []
    assert _read_bytes(rc2.artifact(LLM_CACHE_FILE)) == cached
    result = load_coarse_result(rc2.artifact(COARSE_FILE))
    assert result.confidence_threshold == 0.95 and result.ood_ids == ()
    assert os.path.getsize(rc2.artifact(COARSE_LOG_FILE)) == 0

    # the edit writes what a clean run at 0.95 writes
    clean = validate_config(edited, artifacts_override=str(tmp_path / "clean"))
    run_stage(clean, "ingest")
    run_stage(clean, "coarse")
    assert _read_bytes(clean.artifact(COARSE_FILE)) == _read_bytes(rc2.artifact(COARSE_FILE))


def test_a_blank_node_text_is_refused_before_any_prompt(tmp_path, monkeypatch):
    paths, state = _live_fixture(tmp_path, monkeypatch)
    hard = _variant_config(paths, "hard.json", lambda c: c.setdefault(
        "coarse", {}).update(mode="hard_reject", candidate_count=3))
    nodes = [rec for _, rec in jsonl.read_jsonl(paths["nodes"])]
    for rec in nodes:
        if rec["id"] % 10 == 3:
            rec["text"] = ""
    jsonl.write_jsonl(paths["nodes"], nodes)
    rc = validate_config(hard)
    assert run_stage(rc, "ingest") is True
    with pytest.raises(StageError, match=r"^coarse: node \d*3 text is empty$"):
        run_stage(rc, "coarse")
    # not even the two hard_reject setup prompts were asked
    assert state["calls"] == []


# ------------------------------------------------------------ command line


SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def _child_env():
    """The environment with this checkout's src first on PYTHONPATH, as an
    absolute path: children run from other directories."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    return env


def _cli(args, cwd):
    return subprocess.run([sys.executable, "-m", "cfc.cli", *args],
                          capture_output=True, text=True, cwd=cwd, env=_child_env())


# rows of the scenario table, each of these on a demo of its own
def test_cli_run_all_report_and_caching(tmp_path):
    run_scenarios(tmp_path, "cold run", "cached pass", "one cached stage", "report")


def test_an_edit_to_a_packaged_template_reruns_the_llm_stages(tmp_path):
    run_scenarios(tmp_path, "cold run", "packaged-template edit")


def test_scipy_is_loaded_only_by_commands_that_use_it(tmp_path):
    # numpy too: a command that executes no stage imports neither
    drift = BY_NAME["strict config drift"]._replace(
        edit=configure("merge", sim_threshold=0.0))
    run_scenarios(tmp_path, "validate", "cold run", "cached pass", "report", drift)


def test_cli_closed_stdout_exits_like_sigpipe(fix, tmp_path):
    # `cfc run-all | head -1` with the reader gone before the first line
    art = str(tmp_path / "a")
    proc = subprocess.Popen(
        [sys.executable, "-m", "cfc.cli", "run-all", "--config", fix["config"],
         "--artifacts", art],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, cwd=str(tmp_path),
        env=_child_env())
    proc.stdout.close()
    _, err = proc.communicate(timeout=300)
    assert proc.returncode == 141, err
    assert err == b""
    assert os.path.isfile(os.path.join(art, EVAL_FILE))


def _edit_line(src, dst, lineno, edit):
    """Copy src to dst with the JSON record on line lineno passed through edit."""
    lines = _read_bytes(src).decode("utf-8").splitlines(keepends=True)
    record = json.loads(lines[lineno - 1])
    edit(record)
    lines[lineno - 1] = json.dumps(record, ensure_ascii=False) + "\n"
    with open(dst, "w", encoding="utf-8") as fh:
        fh.write("".join(lines))


def test_a_record_that_does_not_fit_its_dataclass_names_its_line(primary, fix,
                                                                 tmp_path):
    rc, _ = primary
    coarse = str(tmp_path / COARSE_FILE)
    _edit_line(rc.artifact(COARSE_FILE), coarse, 3, lambda r: r.pop("category"))
    with pytest.raises(ValueError, match=re.escape(coarse) + r":3: .*'category'"):
        load_coarse_result(coarse)

    assigned = str(tmp_path / ASSIGN_FILE)
    _edit_line(rc.artifact(ASSIGN_FILE), assigned, 2, lambda r: r.update(note="x"))
    with pytest.raises(ValueError, match=re.escape(assigned) + r":2: .*'note'"):
        read_records(assigned, OODAssignment)

    arts = tmp_path / "a"
    rc2 = validate_config(fix["config"], artifacts_override=str(arts))
    arts.mkdir()
    split = jsonl.read_json(rc.artifact(SPLIT_FILE))
    del split["test_ids"]
    jsonl.write_json(rc2.artifact(SPLIT_FILE), split)
    with pytest.raises(ValueError, match=re.escape(rc2.artifact(SPLIT_FILE))
                       + r":1: .*'test_ids'"):
        stages.StageData(rc2).split


# each record reader of a stage: (file, line, the field dropped there, a
# call that reads the file through the StageData of its artifacts dir)
_RECORD_READERS = {
    "denoised-summary": (DENOISED_FILE, 1, "survivor_count",
                         lambda d: stages._load_survivors(d.rc.artifact(DENOISED_FILE))),
    "denoised-candidate": (DENOISED_FILE, 2, "kept",
                           lambda d: stages._load_survivors(d.rc.artifact(DENOISED_FILE))),
    "coarse-header": (COARSE_FILE, 1, "mode",
                      lambda d: load_coarse_result(d.rc.artifact(COARSE_FILE))),
    # no field: the line is a JSON array, not an object
    "coarse-non-object": (COARSE_FILE, 2, None,
                          lambda d: load_coarse_result(d.rc.artifact(COARSE_FILE))),
    "synth-header": (SYNTH_META_FILE, 1, "center", lambda d: load_synthetic(
        d.rc.artifact(SYNTH_BIN_FILE), d.rc.artifact(SYNTH_META_FILE))),
    "synth-row": (SYNTH_META_FILE, 3, "alpha", lambda d: load_synthetic(
        d.rc.artifact(SYNTH_BIN_FILE), d.rc.artifact(SYNTH_META_FILE))),
    "detect-eval": (DETECT_FILE, 2, "ood_score", stages.stage_eval),
}


@pytest.mark.parametrize("reader", list(_RECORD_READERS))
def test_each_record_reader_names_the_line_missing_a_field(primary, fix, tmp_path,
                                                          reader):
    rc, _ = primary
    name, lineno, field, read = _RECORD_READERS[reader]
    arts = tmp_path / "a"
    shutil.copytree(rc.artifacts_dir, arts)
    rc2 = validate_config(fix["config"], artifacts_override=str(arts))
    path = rc2.artifact(name)
    if field is None:
        lines = _read_bytes(rc.artifact(name)).splitlines(keepends=True)
        lines[lineno - 1] = b"[1, 2]\n"
        with open(path, "wb") as fh:
            fh.write(b"".join(lines))
    else:
        _edit_line(rc.artifact(name), path, lineno, lambda r: r.pop(field))
    named = "unknown record kind" if field is None else f".*'{field}'"
    with pytest.raises(ValueError, match=re.escape(path) + f":{lineno}: {named}"):
        read(stages.StageData(rc2))


def test_a_headed_file_without_its_header_is_refused(primary, tmp_path):
    rc, _ = primary
    path = str(tmp_path / DENOISED_FILE)
    lines = _read_bytes(rc.artifact(DENOISED_FILE)).splitlines(keepends=True)
    with open(path, "wb") as fh:
        fh.write(b"".join(lines[1:]))
    with pytest.raises(ValueError, match=re.escape(path) + ": missing header record"):
        stages._load_survivors(path)


def test_cli_detect_record_without_pred_is_an_error_line(tmp_path):
    paths = fixture_tools.write_fixture(str(tmp_path))
    run_all(validate_config(paths["config"]))
    detect = os.path.join(paths["artifacts"], DETECT_FILE)
    _edit_line(detect, detect, 4, lambda r: r.pop("pred"))
    # recorded as detect's output, so detect stays cached and classify-ood
    # is the first to read the bad line
    manifest = load_manifest(paths["artifacts"])
    manifest["stages"]["detect"]["outputs"][DETECT_FILE] = pipeline._file_hash(detect)
    pipeline._save_manifest(paths["artifacts"], manifest)

    res = _cli(["run-all", "--config", paths["config"]], cwd=str(tmp_path))
    assert res.returncode == 2
    assert re.fullmatch(r"error: classify-ood: " + re.escape(detect)
                        + r":4: .*'pred'\n", res.stderr), res.stderr


def test_cli_malformed_artifact_is_an_error_line(tmp_path, capsys):
    paths = fixture_tools.write_fixture(str(tmp_path))
    run_all(validate_config(paths["config"]))
    coarse = os.path.join(paths["artifacts"], COARSE_FILE)
    data = _read_bytes(coarse)
    cut = data[:len(data) // 2]
    assert not cut.endswith(b"\n")
    missing = str(tmp_path / "missing.jsonl")       # an annotation without category
    _edit_line(coarse, missing, 2, lambda r: r.pop("category"))
    lines = data.splitlines(keepends=True)
    string = b"".join(lines[:1] + [b'"x"\n'] + lines[2:])     # a line that is no object
    for bad, error in ((cut, r"malformed JSON .*"),
                       (_read_bytes(missing), r"Annotation.* 'category'"),
                       (string, r"unknown record kind")):
        with open(coarse, "wb") as fh:
            fh.write(bad)
        # recorded as coarse's output, so coarse stays cached and denoise
        # reads the bad file first (unrecorded, it would only make coarse rerun)
        manifest = load_manifest(paths["artifacts"])
        manifest["stages"]["coarse"]["outputs"][COARSE_FILE] = pipeline._file_hash(coarse)
        pipeline._save_manifest(paths["artifacts"], manifest)

        res = _cli(["run-all", "--config", paths["config"]], cwd=str(tmp_path))
        assert res.returncode == 2
        assert "Traceback" not in res.stderr
        assert re.fullmatch(r"error: denoise: .*coarse\.jsonl:\d+: " + error + r"\n",
                            res.stderr)

    # the manifest is read before any stage runs; a block or an entry the
    # engine indexes that is not an object is refused there too
    for bad, error in (('{"stages": ', r":1: malformed JSON .*"),
                       ("[]", ": not a manifest.*"),
                       ('{"stages": []}', ": not a manifest.*"),
                       ('{"stages": {"ingest": []}}', ": not a manifest.*"),
                       ('{"stages": {}, "files": []}', ": not a manifest.*")):
        with open(os.path.join(paths["artifacts"], MANIFEST_FILE), "w") as fh:
            fh.write(bad)
        assert cli.main(["run-all", "--config", paths["config"]]) == 2
        err = capsys.readouterr().err
        assert re.fullmatch(r"error: .*manifest\.json" + error + r"\n", err), err

    # report refuses an eval.json that holds no report, naming the file,
    # and still loads neither numpy nor scipy; each method is an EvalReport,
    # so an accuracy outside [0, 1] is refused too
    path = os.path.join(paths["artifacts"], EVAL_FILE)
    doc = jsonl.read_json(path)
    out_of_range = copy.deepcopy(doc)
    out_of_range["methods"]["CFC"]["id_accuracy"] = 2.0
    del doc["methods"]["CFC"]["id_accuracy"]
    for bad in ({}, [1], doc, out_of_range):
        jsonl.write_json(path, bad)
        res = subprocess.run([sys.executable, "-c", fixture_tools.IMPORT_PROBE, "report",
                              "--config", paths["config"]],
                             capture_output=True, text=True, env=_child_env())
        assert res.stdout.splitlines()[-1] == "(2, [])", res.stdout
        assert re.fullmatch(r"error: " + re.escape(path) + r": not an eval report: .*\n",
                            res.stderr), res.stderr


def test_cli_diverging_model_prints_one_error_line(fix, tmp_path):
    # the overflow on the way to a non-finite loss warns nothing; in-process,
    # pytest's warning capture would hide such warnings, so this runs the CLI
    config = _variant_config(fix, "diverge.json", lambda c: c.setdefault(
        "train", {}).update(learning_rate=1e300))
    base = ["--config", config, "--artifacts", str(tmp_path / "a")]
    assert _cli(["ingest", *base], cwd=str(tmp_path)).returncode == 0
    res = _cli(["train-prelim", *base], cwd=str(tmp_path))
    assert res.returncode == 2
    assert res.stderr == ("error: train-prelim: softmax-head model: non-finite "
                          "loss at epoch 1\n")


def _mock_rule(reply: str) -> dict:
    """A rule that answers every prompt with reply."""
    return {"match": "substr:", "response": reply}


# (the stage that fails, config overrides, and a function from the fixture's
# mock rules to the rules written in their place, or None to keep them)
_STAGE_FAILURES = {
    "merge-drops-every-category": (
        "classify-ood", {"merge": {"min_count": 100000}}, None),
    "training-diverges": (
        "train-prelim", {"train": {"learning_rate": 1e300}}, None),
    "no-screening-rule": ("coarse", {}, lambda rules: []),
    "hard-reject-setup-never-parses": (
        "coarse", {"coarse": {"mode": "hard_reject"}},
        lambda rules: [_mock_rule("no JSON here")]),
    "no-classification-rule": (
        "classify-ood", {},
        lambda rules: [r for r in rules if r["match"].startswith("hash:")]),
    "no-candidate-survives": (
        "augment", {},
        lambda rules: [_mock_rule(json.dumps([{"answer": "True", "confidence": 0.9}]))]),
}


@pytest.mark.parametrize("case", list(_STAGE_FAILURES))
def test_a_stage_failure_is_one_error_line_naming_the_stage(tmp_path, capsys, case):
    stage, overrides, rules = _STAGE_FAILURES[case]
    paths = fixture_tools.write_fixture(str(tmp_path), config_overrides=overrides)
    if rules is not None:
        with open(paths["mock"], "r", encoding="utf-8") as fh:
            kept = rules([json.loads(line) for line in fh])
        with open(paths["mock"], "w", encoding="utf-8") as fh:
            fh.writelines(json.dumps(rule) + "\n" for rule in kept)

    with np.errstate(all="ignore"):         # the diverging model overflows
        assert cli.main(["run-all", "--config", paths["config"]]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith(f"error: {stage}: "), err


def _edit_jsonl(lineno, edit):
    """A file edit that passes line lineno's JSON record through edit, or
    every line's record when lineno is None."""
    def apply(path):
        count = len(_read_bytes(path).splitlines())
        for k in range(1, count + 1) if lineno is None else [lineno]:
            _edit_line(path, path, k, edit)
    return apply


def _drop_last_line(path):
    lines = _read_bytes(path).splitlines(keepends=True)
    with open(path, "wb") as fh:
        fh.write(b"".join(lines[:-1]))


def _edit_json(edit):
    """A file edit that passes the JSON document through edit."""
    def apply(path):
        doc = jsonl.read_json(path)
        edit(doc)
        jsonl.write_json(path, doc)
    return apply


def _drop_last_row(path):
    [mat] = load_matrices(path)
    save_matrices(path, mat[:-1])


def _write_text(text):
    def apply(path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    return apply


def _feature_lines(*records):
    return _write_text("".join(json.dumps(r) + "\n" for r in records))


_NODES = sum(fixture_tools.CLASS_SIZES.values())

# bad dataset and artifact files, each refused with one error line: (config
# overrides, the file under the fixture's directory, an edit of it, the
# command that reads it first, its exit code, and what cfc prints after
# "error: " and, for exit 1, "dataset rejected: ", {path} standing for the
# file's path and {dir} for its directory). The stages before the command
# run first; an edited artifact is recorded as its stage's output, so that
# stage stays cached and the command reads the edit.
_BAD_FILES = {
    "node-without-label": ({}, "nodes.jsonl", _edit_jsonl(3, lambda r: r.pop("label")),
                           "ingest", 1, "{path}:3: node record needs id, text, label"),
    "node-id-not-an-integer": ({}, "nodes.jsonl", _edit_jsonl(3, lambda r: r.update(id="2")),
                               "ingest", 1, "{path}:3: id must be an integer"),
    "node-id-repeated": ({}, "nodes.jsonl", _edit_jsonl(3, lambda r: r.update(id=0)),
                         "ingest", 1, "{path}:3: duplicate node id 0"),
    "node-text-not-a-string": ({}, "nodes.jsonl", _edit_jsonl(3, lambda r: r.update(text=5)),
                               "ingest", 1, "{path}:3: text must be a string"),
    "node-label-not-a-string": ({}, "nodes.jsonl", _edit_jsonl(3, lambda r: r.update(label=5)),
                                "ingest", 1, "{path}:3: label must be a string or null"),
    "no-nodes": ({}, "nodes.jsonl", _write_text(""), "ingest", 1, "{path}: no node records"),
    "edge-without-dst": ({}, "edges.jsonl", _edit_jsonl(2, lambda r: r.pop("dst")),
                         "ingest", 1, "{path}:2: edge record needs src and dst"),
    "feature-without-vec": ({}, "features.bin", _feature_lines({"id": 0}), "ingest", 1,
                            "{path}:1: feature record needs id and vec"),
    "feature-width-changes": ({}, "features.bin", _feature_lines(
        {"id": 0, "vec": [1.0]}, {"id": 1, "vec": [1.0, 2.0]}), "ingest", 1,
        "{path}:2: inconsistent feature dimension"),
    "feature-rows-missing": ({}, "features.bin", _feature_lines({"id": 0, "vec": [1.0]}),
                             "ingest", 1, f"{{path}}: found 1 feature rows for {_NODES} nodes"),
    "feature-ids-off-by-one": ({}, "features.bin", _feature_lines(
        *({"id": i + 1, "vec": [1.0]} for i in range(_NODES))), "ingest", 1,
        f"{{path}}: feature ids are not exactly 0..{_NODES - 1}"),
    "feature-matrix-row-short": ({}, "features.bin", _drop_last_row, "ingest", 1,
                                 f"{{path}}: row count {_NODES - 1} != node count {_NODES}"),
    "features-without-columns": (
        {}, "features.bin", lambda path: save_matrices(path, np.zeros((_NODES, 0))),
        "ingest", 1, "{path}: matrix dimensions must be >= 1"),
    "empty-screening-template": ({"coarse": {"template_dir": "."}}, "easy_reject.txt",
                                 _write_text(""), "coarse", 2,
                                 "coarse: prompt must be a non-empty string"),
    "split-sets-overlap": ({}, "artifacts/" + SPLIT_FILE, _edit_json(
        lambda d: d["val_ids"].append(d["train_ids"][0])), "coarse", 2,
        "coarse: {path}:1: train/val/test sets overlap"),
    "split-classes-overlap": ({}, "artifacts/" + SPLIT_FILE, _edit_json(
        lambda d: d["ood_classes"].append(d["id_classes"][0])), "coarse", 2,
        "coarse: {path}:1: id_classes and ood_classes overlap"),
    "no-category-logged": ({}, "artifacts/" + COARSE_FILE, _edit_jsonl(
        None, lambda r: r.get("kind") == "annotation" and r.update(is_id=True)),
        "classify-ood", 2,
        "classify-ood: coarse stage logged no OOD categories; cannot build a label space"),
    "synth-row-missing": ({}, "artifacts/" + SYNTH_META_FILE,
                          _edit_jsonl(2, lambda r: r.update(row=100)), "train-fine", 2,
                          "train-fine: {path}: row records are not 0..99"),
    "synth-center-short": ({}, "artifacts/" + SYNTH_META_FILE,
                           _edit_jsonl(1, lambda r: r["center"].pop()), "train-fine", 2,
                           "train-fine: {dir}/" + SYNTH_BIN_FILE + ": a 100x64 matrix, but "
                           "{path} holds 100 row records and a center of width 63"),
    "synth-last-row-dropped": ({}, "artifacts/" + SYNTH_META_FILE, _drop_last_line,
                               "train-fine", 2,
                               "train-fine: {dir}/" + SYNTH_BIN_FILE + ": a 100x64 matrix, "
                               "but {path} holds 99 row records and a center of width 64"),
    "baseline-probs-row-short": ({}, "artifacts/" + BASELINE_PROBS_FILE, _drop_last_row,
                                 "eval", 2, f"eval: {{path}}: row count {_NODES - 1} "
                                 f"!= node count {_NODES}"),
    "eval-count-negative": ({}, "artifacts/" + EVAL_FILE, _edit_json(
        lambda d: d["methods"]["CFC"].update(n_id_test=-1)), "report", 2,
        "{path}: not an eval report: ValueError('negative test counts')"),
}


@pytest.mark.parametrize("case", list(_BAD_FILES))
def test_a_bad_dataset_or_artifact_file_is_one_error_line(tmp_path, capsys, case):
    overrides, name, edit, command, code, error = _BAD_FILES[case]
    paths = fixture_tools.write_fixture(str(tmp_path), config_overrides=overrides)
    rc = validate_config(paths["config"])
    for stage in STAGE_ORDER[:STAGE_ORDER.index(command) if command in STAGE_ORDER else None]:
        run_stage(rc, stage)
    path = str(tmp_path / name)
    edit(path)
    if os.path.dirname(path) == rc.artifacts_dir:
        manifest = load_manifest(rc.artifacts_dir)
        for entry in manifest["stages"].values():
            if os.path.basename(path) in entry["outputs"]:
                entry["outputs"][os.path.basename(path)] = pipeline._file_hash(path)
        pipeline._save_manifest(rc.artifacts_dir, manifest)

    assert cli.main([command, "--config", paths["config"]]) == code
    prefix = "dataset rejected: " if code == 1 else ""
    error = error.format(path=path, dir=os.path.dirname(path))
    assert capsys.readouterr().err == f"error: {prefix}{error}\n"


def test_cli_error_exit_codes(fix, tmp_path):
    # unreadable config -> validation failure
    missing = _cli(["run-all", "--config", str(tmp_path / "nope.json")],
                   cwd=str(tmp_path))
    assert missing.returncode == 1
    assert "error:" in missing.stderr

    # report before eval has ever run -> missing artifact
    fresh = str(tmp_path / "fresh")
    report = _cli(["report", "--config", fix["config"], "--artifacts", fresh],
                  cwd=str(tmp_path))
    assert report.returncode == 1
    assert "missing artifact: eval" in report.stderr

    # a held lock is a runtime failure, not a config problem
    locked = str(tmp_path / "locked")
    with artifacts_lock(locked):
        blocked = _cli(["run-all", "--config", fix["config"], "--artifacts", locked],
                       cwd=str(tmp_path))
    assert blocked.returncode == 2
    assert "locked by another run" in blocked.stderr

    # argparse rejects unknown commands with the usual usage error
    bogus = _cli(["polish", "--config", fix["config"]], cwd=str(tmp_path))
    assert bogus.returncode == 2
    assert "invalid choice" in bogus.stderr

    # a feature file cut inside its 12-byte header -> one line, no traceback
    paths = fixture_tools.write_fixture(str(tmp_path / "cut"))
    os.truncate(paths["features"], 8)
    cut = _cli(["ingest", "--config", paths["config"]], cwd=str(tmp_path))
    assert cut.returncode == 1
    lines = cut.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: dataset rejected: "), \
        cut.stderr


def test_a_split_without_validation_nodes_is_refused_before_any_prompt(fix, tmp_path):
    # 1% of each class pool rounds down to no validation node; eval would
    # fail only after every LLM call was paid for
    config = _variant_config(fix, "val001.json", lambda c: c["split"].update(
        val_frac=0.01))
    arts = tmp_path / "a"
    res = _cli(["run-all", "--config", config, "--artifacts", str(arts)],
               cwd=str(tmp_path))
    assert res.returncode == 1
    assert res.stderr == ("error: split rejected: val_frac=0.01 leaves the "
                          "validation set empty\n")
    assert not (arts / COARSE_LOG_FILE).exists()


def test_a_non_finite_feature_is_refused_before_any_prompt(tmp_path):
    paths = fixture_tools.write_fixture(str(tmp_path))
    [feats] = load_matrices(paths["features"])
    feats = feats.copy()
    feats[5, 0] = np.nan
    save_matrices(paths["features"], feats)
    res = _cli(["run-all", "--config", paths["config"]], cwd=str(tmp_path))
    assert res.returncode == 1
    assert res.stderr == (f"error: dataset rejected: {paths['features']}: feature "
                          f"row 5 holds a non-finite value\n")
    assert not os.path.exists(os.path.join(paths["artifacts"], COARSE_LOG_FILE))
