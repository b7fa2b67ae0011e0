"""Every artifact record, and the one layout of a record file.

A record is a frozen dataclass whose fields are its JSON object's keys, built
through cfc.jsonl.build_record, so a record that does not fit raises
ValueError("path:line: ..."). This module loads only the standard library
and cfc.jsonl, never numpy, so a command can read records without it.
A headed file (coarse.jsonl, denoised.jsonl, synth.jsonl) is a header record,
then row records, each line its class's KIND under "kind", then its fields.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from .jsonl import build_record, read_jsonl, write_jsonl

DISCARDED = "DISCARDED"


@dataclass(frozen=True)
class SplitAssignment:
    """split.json: disjoint train/val/test node id tuples plus the class
    partition that produced them. train draws only from id_classes; val and
    test share the leftover ID nodes and every OOD node."""
    train_ids: tuple[int, ...]
    val_ids: tuple[int, ...]
    test_ids: tuple[int, ...]
    id_classes: tuple[str, ...]
    ood_classes: tuple[str, ...]
    seed: int = 0

    def __post_init__(self):
        for f in fields(self):          # split.json holds the tuples as lists
            if isinstance(getattr(self, f.name), list):
                object.__setattr__(self, f.name, tuple(getattr(self, f.name)))
        a, b, c = set(self.train_ids), set(self.val_ids), set(self.test_ids)
        if a & b or a & c or b & c:
            raise ValueError("train/val/test sets overlap")
        if set(self.id_classes) & set(self.ood_classes):
            raise ValueError("id_classes and ood_classes overlap")


@dataclass(frozen=True)
class CoarseHeader:
    """coarse.jsonl's first record: the settings the annotations were read
    under (major_category and candidate_ood_labels: hard_reject only)."""
    KIND = "header"
    mode: str
    confidence_threshold: float
    major_category: str | None
    candidate_ood_labels: list[str]


@dataclass(frozen=True)
class Annotation:
    """Verdict for one node. category is non-empty whenever the reply parsed;
    a parse fallback is recorded as ID with confidence 0 and empty category."""
    KIND = "annotation"
    node_id: int
    is_id: bool
    confidence: float
    category: str
    raw_response: str

    def __post_init__(self):
        if not (0.0 <= self.confidence <= 1.0):
            raise ValueError("confidence must lie in [0, 1]")


@dataclass(frozen=True)
class DenoiseSummary:
    """denoised.jsonl's first record: steps, candidates in, survivors out."""
    KIND = "summary"
    steps: int
    candidate_count: int
    survivor_count: int


@dataclass(frozen=True)
class DenoisedCandidate:
    """A denoised.jsonl row: a coarse OOD candidate, and whether label
    propagation kept it."""
    KIND = "candidate"
    node_id: int
    kept: bool


@dataclass(frozen=True)
class SynthHeader:
    """synth.jsonl's first record: the mixup seed and the OOD center."""
    KIND = "header"
    seed: int
    center: list[float]


@dataclass(frozen=True)
class SynthRow:
    """A synth.jsonl row: the provenance of one synthetic row."""
    KIND = "row"
    row: int
    boundary_id: int
    alpha: float


@dataclass(frozen=True)
class Detection:
    """One detect.jsonl record: the fine model's class for a test node
    (the OOD class is the ID class count) and its OOD probability."""
    node_id: int
    pred: int
    ood_score: float


@dataclass(frozen=True)
class PostLabelSpace:
    """post_labels.json: the deduplicated OOD label space. raw_to_merged maps
    every input category to its surviving label or to DISCARDED;
    merged_labels is ordered by descending total count (ties alphabetical).
    No stage reads the file back, so its one producer, merge_categories,
    which refuses an empty space, is the only check it needs."""
    merged_labels: tuple[str, ...]
    raw_to_merged: dict
    counts: dict                       # merged label -> summed raw count
    sim_threshold: float
    min_count: int


@dataclass(frozen=True)
class OODAssignment:
    """One ood_assignments.jsonl record."""
    node_id: int
    label: str                  # one of the merged labels
    confidence: float
    raw_response: str


@dataclass(frozen=True)
class EvalReport:
    """An eval.json method: split accuracies plus metadata. overall_accuracy
    is micro (node weighted), so it always equals the count-weighted mean of
    the ID and OOD accuracies. A missing side of the split reports accuracy
    0.0 for it. per_class_accuracy is keyed by the class index as a string,
    as eval.json holds it, so the JSON keys sort as text ("10" before "2")."""
    id_accuracy: float
    ood_accuracy: float
    overall_accuracy: float
    per_class_accuracy: dict[str, float]
    n_id_test: int
    n_ood_test: int
    auroc: float | None = None

    def __post_init__(self):
        for name in ("id_accuracy", "ood_accuracy", "overall_accuracy"):
            v = getattr(self, name)
            if not (0.0 <= v <= 1.0):
                raise ValueError(f"{name}={v} outside [0, 1]")
        if self.auroc is not None and not (0.0 <= self.auroc <= 1.0):
            raise ValueError(f"auroc={self.auroc} outside [0, 1]")
        if self.n_id_test < 0 or self.n_ood_test < 0:
            raise ValueError("negative test counts")
        total = self.n_id_test + self.n_ood_test
        if total == 0:
            raise ValueError("report covers no nodes")
        weighted = (self.id_accuracy * self.n_id_test
                    + self.ood_accuracy * self.n_ood_test) / total
        if abs(self.overall_accuracy - weighted) > 1e-9:
            raise ValueError(
                f"overall_accuracy {self.overall_accuracy} inconsistent with "
                f"count-weighted mean {weighted}")


@dataclass(frozen=True)
class ChatExchange:
    """An exchange log line: one completed prompt/response pair."""
    prompt_text: str
    response_text: str
    latency_s: float
    attempt_count: int
    model_name: str


def read_records(path: str, cls) -> list:
    """Every record of path, a JSONL file of cls records."""
    return [build_record(cls, rec, path, lineno) for lineno, rec in read_jsonl(path)]


def read_headed(path: str, header_cls, row_cls) -> tuple:
    """(header, rows): a headed file's header_cls record and its row_cls
    records in file order. Raises ValueError("path:line: unknown record
    kind") for any other line, ValueError("path: missing header record")."""
    header, rows = None, []
    for lineno, rec in read_jsonl(path):
        kind = rec.pop("kind", None) if isinstance(rec, dict) else None
        if kind == header_cls.KIND:
            header = build_record(header_cls, rec, path, lineno)
        elif kind == row_cls.KIND:
            rows.append(build_record(row_cls, rec, path, lineno))
        else:
            raise ValueError(f"{path}:{lineno}: unknown record kind")
    if header is None:
        raise ValueError(f"{path}: missing header record")
    return header, rows


def write_headed(path: str, header, rows) -> None:
    """Write header, then rows, each as its KIND then its fields."""
    write_jsonl(path, ({"kind": r.KIND, **vars(r)} for r in (header, *rows)))
