"""Coarse OOD detection through an LLM.

Every queried node gets a yes/no verdict on whether its text belongs to the
known label space, with a confidence and a suggested category. Two prompt
modes exist: easy_reject simply lists the known categories, hard_reject first
asks the model for the major field and a list of plausible unknown categories
and then includes those candidates in each rejection prompt. Nodes rejected
with confidence at or above the threshold become OOD candidates; the suggested
categories of all rejected nodes feed the downstream label-space merge.

Every prompt goes through LLMGateway.ask_all, which fans the test nodes out
concurrently, re-asks replies that do not parse and, in live mode, answers
prompts already paid for from the reply cache. Prompt templates are text
files with {{PLACEHOLDER}} markers; the packaged defaults can be overridden
by pointing template_dir at a directory holding files of the same names.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from .gateway import LLMGateway, ParseError
from .jsonl import read_jsonl, write_jsonl

DEFAULT_TEXT_BUDGET = 4000
TRUNCATION_MARKER = "..."

TEMPLATE_FILES = {
    "easy_reject": "easy_reject.txt",
    "hard_reject": "hard_reject.txt",
    "major_category": "major_category.txt",
    "candidate_ood": "candidate_ood.txt",
    "ood_classification": "ood_classification.txt",
}


class CoarseDetectError(RuntimeError):
    """The hard_reject setup prompts gave no usable answer."""


@dataclass(frozen=True)
class CoarseConfig:
    mode: str = "easy_reject"             # or "hard_reject"
    confidence_threshold: float = 0.7
    candidate_count: int = 10
    max_parse_retries: int = 2
    node_budget: int | None = None        # None queries every requested node
    text_budget: int = DEFAULT_TEXT_BUDGET
    template_dir: str | None = None
    seed: int = 0                         # drives node_budget subsampling only
    id_labels: tuple[str, ...] = ()       # known label space shown to the LLM

    def __post_init__(self):
        if self.mode not in ("easy_reject", "hard_reject"):
            raise ValueError(f"unknown coarse mode {self.mode!r}")
        if not (0.0 <= self.confidence_threshold <= 1.0):
            raise ValueError("confidence_threshold must lie in [0, 1]")
        if self.candidate_count < 1:
            raise ValueError("candidate_count must be >= 1")
        if self.max_parse_retries < 0:
            raise ValueError("max_parse_retries must be >= 0")
        if self.node_budget is not None and self.node_budget < 1:
            raise ValueError("node_budget must be >= 1 when set")
        if self.text_budget <= len(TRUNCATION_MARKER):
            raise ValueError("text_budget too small")


@dataclass(frozen=True)
class Annotation:
    """Verdict for one node. category is non-empty whenever the reply parsed;
    a parse fallback is recorded as ID with confidence 0 and empty category."""

    node_id: int
    is_id: bool
    confidence: float
    category: str
    raw_response: str

    def __post_init__(self):
        if not (0.0 <= self.confidence <= 1.0):
            raise ValueError("confidence must lie in [0, 1]")

    def to_dict(self) -> dict:
        return {
            "node_id": self.node_id,
            "is_id": self.is_id,
            "confidence": self.confidence,
            "category": self.category,
            "raw_response": self.raw_response,
        }


@dataclass(frozen=True)
class CoarseResult:
    mode: str
    confidence_threshold: float
    annotations: tuple[Annotation, ...]           # sorted by node_id
    ood_ids: tuple[int, ...]                      # rejected at/above threshold
    category_log: dict                            # suggested category -> count
    major_category: str | None = None             # hard_reject only
    candidate_ood_labels: tuple[str, ...] = ()    # hard_reject only


# --------------------------------------------------------------- text helpers

def normalize_category(name: str) -> str:
    """Trim, lowercase, collapse internal whitespace."""
    return re.sub(r"\s+", " ", name.strip().lower())


def truncate_text(text: str, budget: int = DEFAULT_TEXT_BUDGET) -> str:
    """Cap text at budget characters, marker included in the budget."""
    if len(text) <= budget:
        return text
    return text[: budget - len(TRUNCATION_MARKER)] + TRUNCATION_MARKER


def render_label_list(labels) -> str:
    """Comma-joined label list; labels containing commas or quotes are quoted."""
    parts = []
    for lab in labels:
        if "," in lab or '"' in lab:
            parts.append('"' + lab.replace('"', '\\"') + '"')
        else:
            parts.append(lab)
    return ", ".join(parts)


def load_template(name: str, template_dir: str | None = None) -> str:
    fname = TEMPLATE_FILES[name]
    if template_dir is not None:
        path = Path(template_dir) / fname
        if not path.is_file():
            raise ValueError(f"template override dir has no {fname}")
        return path.read_text(encoding="utf-8")
    return resources.files("cfc").joinpath("templates", fname).read_text(encoding="utf-8")


def _render(template: str, mapping: dict[str, str]) -> str:
    out = template
    for key, value in mapping.items():
        out = out.replace("{{" + key + "}}", value)
    if "{{" in out:
        leftover = re.findall(r"\{\{([A-Z_]+)\}\}", out)
        raise ValueError(f"template has unfilled placeholders: {leftover}")
    return out.rstrip("\n")


# --------------------------------------------------------------- prompt builders

def build_easy_reject_prompt(node_text: str, id_labels,
                             text_budget: int = DEFAULT_TEXT_BUDGET,
                             template_dir: str | None = None) -> str:
    if not node_text.strip():
        raise ValueError("node text is empty")
    labels = list(id_labels)
    if not labels:
        raise ValueError("id label list is empty")
    return _render(load_template("easy_reject", template_dir), {
        "TEXT": truncate_text(node_text, text_budget),
        "ID_LABELS": render_label_list(labels),
    })


def build_hard_reject_prompt(node_text: str, id_labels, candidate_labels,
                             text_budget: int = DEFAULT_TEXT_BUDGET,
                             template_dir: str | None = None) -> str:
    if not node_text.strip():
        raise ValueError("node text is empty")
    labels = list(id_labels)
    candidates = list(candidate_labels)
    if not labels:
        raise ValueError("id label list is empty")
    if not candidates:
        raise ValueError("candidate label list is empty")
    overlap = {normalize_category(c) for c in candidates} & \
              {normalize_category(l) for l in labels}
    if overlap:
        raise ValueError(f"candidate labels overlap the ID space: {sorted(overlap)}")
    return _render(load_template("hard_reject", template_dir), {
        "TEXT": truncate_text(node_text, text_budget),
        "ID_LABELS": render_label_list(labels),
        "CANDIDATE_LABELS": render_label_list(candidates),
    })


def build_major_category_prompt(id_labels, template_dir: str | None = None) -> str:
    labels = list(id_labels)
    if not labels:
        raise ValueError("id label list is empty")
    return _render(load_template("major_category", template_dir), {
        "ID_LABELS": render_label_list(labels),
    })


def build_candidate_ood_prompt(id_labels, major_category: str, n: int,
                               template_dir: str | None = None) -> str:
    labels = list(id_labels)
    if not labels:
        raise ValueError("id label list is empty")
    if not major_category.strip():
        raise ValueError("major category is empty")
    if n < 1:
        raise ValueError("candidate count must be >= 1")
    return _render(load_template("candidate_ood", template_dir), {
        "N": str(n),
        "TOPIC_WORD": "topic" if n == 1 else "topics",
        "MAJOR_CATEGORY": major_category,
        "ID_LABELS": render_label_list(labels),
    })


# --------------------------------------------------------------- reply parsing

def first_json_value(raw: str):
    """Decode the first JSON array or object found anywhere in raw."""
    decoder = json.JSONDecoder()
    for pos, ch in enumerate(raw):
        if ch in "[{":
            try:
                value, _ = decoder.raw_decode(raw, pos)
                return value
            except json.JSONDecodeError:
                continue
    raise ParseError("no JSON payload found in reply")


def _first_object(raw: str) -> dict:
    value = first_json_value(raw)
    if isinstance(value, dict):
        return value
    if isinstance(value, list):
        for item in value:
            if isinstance(item, dict):
                return item
    raise ParseError("JSON payload holds no object")


def _parse_bool(value) -> bool:
    if isinstance(value, bool):
        return value
    if isinstance(value, str):
        folded = value.strip().lower()
        if folded == "true":
            return True
        if folded == "false":
            return False
    raise ParseError(f"answer field is not a True/False value: {value!r}")


def _parse_confidence(value) -> float:
    try:
        conf = float(value)
    except (TypeError, ValueError):
        return 0.0
    if not np.isfinite(conf):
        return 0.0
    return min(1.0, max(0.0, conf))


def parse_detection_response(raw: str) -> tuple[bool, float, str]:
    """Extract (is_id, confidence, category) from a detection reply.

    The reply must contain a JSON object with an answer field; True means the
    node belongs to the known label space. Confidence is clamped to [0, 1] and
    defaults to 0 when absent. The category is normalized and falls back to
    'unspecified' when the model omitted it.
    """
    obj = _first_object(raw)
    if "answer" not in obj:
        raise ParseError("reply object has no answer field")
    is_id = _parse_bool(obj["answer"])
    confidence = _parse_confidence(obj.get("confidence"))
    category = normalize_category(str(obj.get("category", "")))
    if not category or category == "none":
        category = "unspecified"
    return is_id, confidence, category


def parse_major_category(raw: str) -> str:
    obj = _first_object(raw)
    if "answer" not in obj:
        raise ParseError("major-category reply has no answer field")
    major = normalize_category(str(obj["answer"]))
    if not major:
        raise ParseError("major-category answer is empty")
    return major


def parse_candidate_labels(raw: str) -> tuple[str, ...]:
    value = first_json_value(raw)
    if isinstance(value, dict):
        value = [value]
    if not isinstance(value, list):
        raise ParseError("candidate reply is not a JSON list")
    seen: list[str] = []
    for item in value:
        if isinstance(item, dict) and "answer" in item:
            name = normalize_category(str(item["answer"]))
        elif isinstance(item, str):
            name = normalize_category(item)
        else:
            continue
        if name and name not in seen:
            seen.append(name)
    if not seen:
        raise ParseError("candidate reply lists no usable labels")
    return tuple(seen)


# --------------------------------------------------------------- detection

def _ask_setup(gateway: LLMGateway, prompt: str, parse, retries: int, what: str):
    [(value, raw)] = gateway.ask_all([prompt], parse, retries)
    if value is None:
        raise CoarseDetectError(f"{what} reply never parsed: {raw[:200]!r}")
    return value


def _hard_mode_setup(cfg: CoarseConfig, gateway: LLMGateway):
    retries = cfg.max_parse_retries
    major = _ask_setup(gateway, build_major_category_prompt(
        cfg.id_labels, cfg.template_dir), parse_major_category, retries,
        "major-category")
    candidates = _ask_setup(gateway, build_candidate_ood_prompt(
        cfg.id_labels, major, cfg.candidate_count, cfg.template_dir),
        parse_candidate_labels, retries, "candidate-label")
    norm_ids = {normalize_category(l) for l in cfg.id_labels}
    usable = tuple(c for c in candidates if c not in norm_ids)
    if not usable:
        raise CoarseDetectError("every candidate OOD label collides with the ID space")
    return major, usable


def coarse_detect(g, query_ids, cfg: CoarseConfig, gateway: LLMGateway) -> CoarseResult:
    """Run the configured rejection prompt over query_ids.

    Annotations come back in node-id order whatever order the concurrent
    replies arrive in. A reply that still fails to parse after
    max_parse_retries extra attempts degrades to a conservative ID verdict
    with confidence 0. A gateway failure raises GatewayError.
    """
    ids = sorted({int(i) for i in query_ids})
    if not ids:
        raise ValueError("query_ids is empty")
    for i in ids:
        if not (0 <= i < g.num_nodes):
            raise ValueError(f"query id {i} outside node range")
    if not cfg.id_labels:
        raise ValueError("cfg.id_labels is empty")
    if cfg.node_budget is not None and cfg.node_budget < len(ids):
        rng = np.random.default_rng(cfg.seed)
        picked = rng.choice(len(ids), size=cfg.node_budget, replace=False)
        ids = sorted(ids[k] for k in picked)

    major, candidates = None, ()
    if cfg.mode == "hard_reject":
        major, candidates = _hard_mode_setup(cfg, gateway)

    def prompt_for(node_id: int) -> str:
        text = g.node_text[node_id]
        if cfg.mode == "easy_reject":
            return build_easy_reject_prompt(text, cfg.id_labels,
                                            cfg.text_budget, cfg.template_dir)
        return build_hard_reject_prompt(text, cfg.id_labels, candidates,
                                        cfg.text_budget, cfg.template_dir)

    replies = gateway.ask_all([prompt_for(i) for i in ids],
                              parse_detection_response, cfg.max_parse_retries)
    annotations = [Annotation(i, True, 0.0, "", raw) if parsed is None
                   else Annotation(i, *parsed, raw)
                   for i, (parsed, raw) in zip(ids, replies)]
    return _coarse_result(cfg.mode, cfg.confidence_threshold, annotations,
                          major, candidates)


def _coarse_result(mode: str, tau: float, annotations, major, candidates) -> CoarseResult:
    """The result over annotations sorted by node id: the OOD set follows
    from tau, the category log from every rejected node."""
    anns = tuple(sorted(annotations, key=lambda a: a.node_id))
    ood_ids = tuple(a.node_id for a in anns if not a.is_id and a.confidence >= tau)
    log: dict[str, int] = {}
    for a in anns:
        if not a.is_id and a.category:
            log[a.category] = log.get(a.category, 0) + 1
    return CoarseResult(mode, tau, anns, ood_ids, log, major, tuple(candidates))


# --------------------------------------------------------------- persistence

def save_coarse_result(result: CoarseResult, path: str) -> None:
    header = {
        "kind": "header",
        "mode": result.mode,
        "confidence_threshold": result.confidence_threshold,
        "major_category": result.major_category,
        "candidate_ood_labels": list(result.candidate_ood_labels),
    }
    write_jsonl(path, [header] + [{"kind": "annotation", **ann.to_dict()}
                                  for ann in result.annotations])


def load_coarse_result(path: str) -> CoarseResult:
    header = None
    anns: list[Annotation] = []
    for lineno, rec in read_jsonl(path):
        if rec.get("kind") == "header":
            header = rec
        elif rec.get("kind") == "annotation":
            anns.append(Annotation(rec["node_id"], rec["is_id"],
                                   rec["confidence"], rec["category"],
                                   rec["raw_response"]))
        else:
            raise ValueError(f"{path}:{lineno}: unknown record kind")
    if header is None:
        raise ValueError(f"{path}: missing header record")
    return _coarse_result(header["mode"], header["confidence_threshold"], anns,
                          header.get("major_category"),
                          header.get("candidate_ood_labels") or ())
