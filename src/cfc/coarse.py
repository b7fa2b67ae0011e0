"""Coarse OOD detection through an LLM, and the prompt path of both LLM
stages.

Every queried node gets a yes/no verdict on whether its text belongs to the
known label space, with a confidence and a suggested category. Two prompt
modes exist: easy_reject simply lists the known categories, hard_reject first
asks the model for the major field and a list of plausible unknown categories
and then includes those candidates in each rejection prompt. Nodes rejected
with confidence at or above the threshold become OOD candidates; the suggested
categories of all rejected nodes feed the downstream label-space merge.

Screening here and OOD classification (cfc.labelspace) share one prompt
path. A stage reads each template it uses once, with load_template; prompt
templates are text files <name>.txt with {{PLACEHOLDER}} markers, and the
packaged defaults can be overridden by pointing template_dir at a directory
holding files of the same names. render fills the markers in one pass.
ask_per_node renders one prompt per node around its truncated text and asks
them all through LLMGateway.ask_all, which fans them out (concurrently in
live mode), re-asks replies that do not parse and, in live mode, answers
prompts already paid for from the reply cache. Every reply parser reads the
model's answer through answer_objects.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# the config block lives in cfc.config; TEMPLATE_NAMES is re-exported
from .config import DEFAULT_TEXT_BUDGET, TEMPLATE_DIR, TEMPLATE_NAMES, \
    TRUNCATION_MARKER, CoarseConfig
from .gateway import LLMGateway, ParseError
from .records import Annotation, CoarseHeader, read_headed, write_headed


class CoarseDetectError(RuntimeError):
    """The hard_reject setup prompts gave no usable answer."""


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


# --------------------------------------------------------------- prompt path

def load_template(name: str, template_dir: str | None = None) -> str:
    """The text of template name: <name>.txt in template_dir when it is set,
    else in the packaged TEMPLATE_DIR."""
    path = Path(template_dir or TEMPLATE_DIR) / (name + ".txt")
    if not path.is_file():
        raise ValueError(f"template dir {path.parent} has no {path.name}")
    return path.read_text(encoding="utf-8")


_PLACEHOLDER = re.compile(r"\{\{([A-Z_]+)\}\}")


def render(template: str, fields: dict[str, str]) -> str:
    """Fill each {{NAME}} marker of template with fields[NAME], in one pass
    over the template, so no marker inside a field value is ever expanded.
    Trailing newlines are dropped."""
    unfilled = sorted(set(_PLACEHOLDER.findall(template)) - fields.keys())
    if unfilled:
        raise ValueError(f"template has unfilled placeholders: {unfilled}")
    return _PLACEHOLDER.sub(lambda m: fields[m.group(1)], template).rstrip("\n")


def build_easy_reject_prompt(node_text: str, id_labels,
                             text_budget: int = DEFAULT_TEXT_BUDGET,
                             template_dir: str | None = None) -> str:
    """One easy_reject screening prompt, byte for byte as coarse_detect sends
    it; mock fixtures pin screening replies to its hash."""
    return render(load_template("easy_reject", template_dir), {
        "TEXT": truncate_text(node_text, text_budget),
        "ID_LABELS": render_label_list(id_labels)})


def checked_node_ids(g, node_ids) -> list[int]:
    """node_ids (nodes of g) sorted and deduplicated, each checked for a text
    to ask about before any prompt is paid for."""
    ids = sorted({int(i) for i in node_ids})
    for i in ids:
        if not g.node_text[i].strip():
            raise ValueError(f"node {i} text is empty")
    return ids


def ask_per_node(g, ids, template: str, fields: dict[str, str],
                 gateway: LLMGateway, parse, text_budget: int,
                 retries: int) -> list[tuple]:
    """Ask template once per node of ids (from checked_node_ids), with the
    node's text, truncated to text_budget, as its TEXT field; returns
    (id, parse(reply) or None, reply) per node, in ids order."""
    prompts = [render(template, {**fields,
                                 "TEXT": truncate_text(g.node_text[i], text_budget)})
               for i in ids]
    replies = gateway.ask_all(prompts, parse, retries)
    return [(i, parsed, raw) for i, (parsed, raw) in zip(ids, replies)]


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


def answer_objects(raw: str) -> list[dict]:
    """The objects with an answer field in a reply's first JSON payload (the
    payload itself, or the objects of a payload array), in reply order.
    Every prompt asks for such objects; a reply without one is a ParseError."""
    value = first_json_value(raw)
    items = [value] if isinstance(value, dict) else value
    found = [item for item in items if isinstance(item, dict) and "answer" in item]
    if not found:
        raise ParseError("reply holds no object with an answer field")
    return found


def parse_confidence(value) -> float:
    """A reply's confidence clamped to [0, 1]; 0 when absent or not a number."""
    try:
        conf = float(value)
    except (TypeError, ValueError):
        return 0.0
    if not np.isfinite(conf):
        return 0.0
    return min(1.0, max(0.0, conf))


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


def parse_detection_response(raw: str) -> tuple[bool, float, str]:
    """Extract (is_id, confidence, category) from a detection reply.

    The answer True means the node belongs to the known label space.
    Confidence is clamped to [0, 1] and defaults to 0 when absent. The
    category is normalized and falls back to 'unspecified' when the model
    omitted it.
    """
    obj = answer_objects(raw)[0]
    is_id = _parse_bool(obj["answer"])
    category = normalize_category(str(obj.get("category", "")))
    if not category or category == "none":
        category = "unspecified"
    return is_id, parse_confidence(obj.get("confidence")), category


def parse_major_category(raw: str) -> str:
    major = normalize_category(str(answer_objects(raw)[0]["answer"]))
    if not major:
        raise ParseError("major-category answer is empty")
    return major


def parse_candidate_labels(raw: str) -> tuple[str, ...]:
    """The distinct non-empty answers, in reply order."""
    names = dict.fromkeys(normalize_category(str(obj["answer"]))
                          for obj in answer_objects(raw))
    names.pop("", None)
    if not names:
        raise ParseError("candidate reply lists no usable labels")
    return tuple(names)


# --------------------------------------------------------------- detection

def _ask_setup(gateway: LLMGateway, prompt: str, parse, retries: int, what: str):
    [(value, raw)] = gateway.ask_all([prompt], parse, retries)
    if value is None:
        raise CoarseDetectError(f"{what} reply never parsed: {raw[:200]!r}")
    return value


def _hard_mode_setup(cfg: CoarseConfig, gateway: LLMGateway, id_field: str):
    """The major category of the ID labels, then candidate OOD labels in it;
    candidates that collide with an ID label are dropped."""
    major_t, candidate_t = (load_template(name, cfg.template_dir)
                            for name in ("major_category", "candidate_ood"))
    retries, n = cfg.max_parse_retries, cfg.candidate_count
    major = _ask_setup(gateway, render(major_t, {"ID_LABELS": id_field}),
                       parse_major_category, retries, "major-category")
    candidates = _ask_setup(gateway, render(candidate_t, {
        "N": str(n), "TOPIC_WORD": "topic" if n == 1 else "topics",
        "MAJOR_CATEGORY": major, "ID_LABELS": id_field}),
        parse_candidate_labels, retries, "candidate-label")
    norm_ids = {normalize_category(l) for l in cfg.id_labels}
    usable = tuple(c for c in candidates if c not in norm_ids)
    if not usable:
        raise CoarseDetectError("every candidate OOD label collides with the ID space")
    return major, usable


def coarse_detect(g, query_ids, cfg: CoarseConfig, gateway: LLMGateway) -> CoarseResult:
    """Run the configured rejection prompt over query_ids, with the ID label
    space cfg.id_labels (the split's ID classes, so never empty).

    Annotations come back in node-id order whatever order the concurrent
    replies arrive in. A reply that still fails to parse after
    max_parse_retries extra attempts degrades to a conservative ID verdict
    with confidence 0. A gateway failure raises GatewayError.
    """
    ids = checked_node_ids(g, query_ids)
    if cfg.node_budget is not None and cfg.node_budget < len(ids):
        rng = np.random.default_rng(cfg.seed)
        picked = rng.choice(len(ids), size=cfg.node_budget, replace=False)
        ids = sorted(ids[k] for k in picked)

    template = load_template(cfg.mode, cfg.template_dir)
    fields = {"ID_LABELS": render_label_list(cfg.id_labels)}
    major, candidates = None, ()
    if cfg.mode == "hard_reject":
        major, candidates = _hard_mode_setup(cfg, gateway, fields["ID_LABELS"])
        fields["CANDIDATE_LABELS"] = render_label_list(candidates)
    replies = ask_per_node(g, ids, template, fields, gateway,
                           parse_detection_response, cfg.text_budget,
                           cfg.max_parse_retries)
    annotations = [Annotation(i, True, 0.0, "", raw) if parsed is None
                   else Annotation(i, *parsed, raw) for i, parsed, raw in replies]
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
    header = CoarseHeader(result.mode, result.confidence_threshold,
                          result.major_category, list(result.candidate_ood_labels))
    write_headed(path, header, result.annotations)


def load_coarse_result(path: str) -> CoarseResult:
    header, anns = read_headed(path, CoarseHeader, Annotation)
    return _coarse_result(header.mode, header.confidence_threshold, anns,
                          header.major_category, header.candidate_ood_labels)
