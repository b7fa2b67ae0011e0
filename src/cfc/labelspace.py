"""Post-processing of the open label space.

The coarse detector logs a free-form suggested category per rejected node.
Those raw names are deduplicated here: TF-IDF vectors over the category names,
connected components of the graph joining pairs whose cosine similarity
clears a threshold, one label per group (the most frequent member), and rare
groups dropped entirely. The surviving labels form the space an LLM then
classifies each detected OOD node into, through the prompt path screening
uses (cfc.coarse: the template read once, ask_per_node, answer_objects);
answers that fall outside the space snap to the nearest label by the same
similarity, so every node ends up classified.

cluster_accuracy scores such assignments against ground truth under the best
injective mapping from predicted labels to true classes.
"""

from __future__ import annotations

import re

import numpy as np

from .coarse import DEFAULT_TEXT_BUDGET, answer_objects, ask_per_node, \
    checked_node_ids, load_template, normalize_category, parse_confidence, \
    render_label_list
from .gateway import LLMGateway, ParseError
from .records import DISCARDED, OODAssignment, PostLabelSpace


def tokenize(name: str) -> list[str]:
    """Lowercase word tokens; any non-alphanumeric run separates."""
    return [t for t in re.split(r"[^a-z0-9]+", name.lower()) if t]


def tfidf_vectors(names) -> np.ndarray:
    """TF-IDF rows over the given non-empty name corpus.

    Vocabulary is the sorted token set, tf is the raw in-name count, and
    idf = ln((1 + n) / (1 + df)) + 1. Rows are L2-normalized; a name with no
    tokens keeps a zero row.
    """
    names = list(names)
    docs = [tokenize(n) for n in names]
    vocab = sorted({t for d in docs for t in d})
    col = {t: j for j, t in enumerate(vocab)}
    n = len(names)
    df = np.zeros(len(vocab))
    for d in docs:
        for t in set(d):
            df[col[t]] += 1
    idf = np.log((1.0 + n) / (1.0 + df)) + 1.0
    mat = np.zeros((n, len(vocab)))
    for i, d in enumerate(docs):
        for t in d:
            mat[i, col[t]] += 1.0
    mat *= idf[None, :]
    norms = np.linalg.norm(mat, axis=1)
    nz = norms > 0
    mat[nz] /= norms[nz, None]
    return mat


def cosine(u: np.ndarray, v: np.ndarray) -> float:
    """Cosine similarity; zero whenever either vector is zero."""
    nu, nv = np.linalg.norm(u), np.linalg.norm(v)
    if nu == 0.0 or nv == 0.0:
        return 0.0
    return float(np.dot(u, v) / (nu * nv))


def merge_categories(category_counts: dict, sim_threshold: float = 0.5,
                     min_count: int | None = None) -> PostLabelSpace:
    """Collapse similar raw categories into one label space.

    Names are processed in sorted order, so the outcome is independent of the
    input dict's iteration order. Any pair at or above sim_threshold lands in
    the same group (transitively). Each group is labeled by its most frequent
    member, ties broken alphabetically; groups whose summed count stays below
    min_count are discarded. min_count defaults to max(2, ceil(1% of the
    total logged count)). category_counts is a non-empty map of positive
    counts; sim_threshold and min_count are a MergeConfig's, which checks them.
    """
    total = sum(category_counts.values())
    if min_count is None:
        min_count = max(2, int(np.ceil(0.01 * total)))

    names = sorted(category_counts)
    vecs = tfidf_vectors(names)
    # rows are unit length or zero, so the Gram matrix holds every cosine
    linked = vecs @ vecs.T >= sim_threshold
    unseen = np.ones(len(names), dtype=bool)
    groups: list[list[str]] = []
    for start in range(len(names)):          # connected components, by search
        if not unseen[start]:
            continue
        unseen[start] = False
        stack, members = [start], []
        while stack:
            i = stack.pop()
            members.append(i)
            reached = np.flatnonzero(linked[i] & unseen)
            unseen[reached] = False
            stack.extend(reached.tolist())
        groups.append([names[i] for i in sorted(members)])

    raw_to_merged: dict[str, str] = {}
    counts: dict[str, int] = {}
    for members in groups:
        group_total = sum(category_counts[m] for m in members)
        label = sorted(members, key=lambda m: (-category_counts[m], m))[0]
        target = label if group_total >= min_count else DISCARDED
        for m in members:
            raw_to_merged[m] = target
        if target != DISCARDED:
            counts[label] = group_total

    if not counts:
        raise ValueError(f"every category group fell below min_count={min_count}")
    merged = tuple(sorted(counts, key=lambda l: (-counts[l], l)))
    return PostLabelSpace(
        merged_labels=merged,
        raw_to_merged=raw_to_merged,
        counts=counts,
        sim_threshold=sim_threshold,
        min_count=min_count,
    )


# --------------------------------------------------------------- classification

def parse_classification_response(raw: str) -> tuple[str, float]:
    obj = answer_objects(raw)[0]
    answer = normalize_category(str(obj["answer"]))
    if not answer:
        raise ParseError("classification answer is empty")
    return answer, parse_confidence(obj.get("confidence"))


def match_label(answer: str, post: PostLabelSpace) -> str:
    """Resolve a free-form answer to a merged label.

    Token-sequence equality first (so punctuation and case differences match),
    then nearest label by TF-IDF cosine; ties and token-less answers fall to
    the first label in merged order.
    """
    answer_tokens = tokenize(answer)
    for label in post.merged_labels:
        if tokenize(label) == answer_tokens:
            return label
    corpus = list(post.merged_labels) + [answer]
    vecs = tfidf_vectors(corpus)
    sims = [cosine(vecs[-1], vecs[k]) for k in range(len(post.merged_labels))]
    return post.merged_labels[int(np.argmax(sims))]


def classify_ood(node_ids, g, post: PostLabelSpace, gateway: LLMGateway,
                 text_budget: int = DEFAULT_TEXT_BUDGET,
                 template_dir: str | None = None,
                 max_parse_retries: int = 2) -> tuple[OODAssignment, ...]:
    """Ask the LLM for a label in the merged space for every given node.

    Off-space answers snap to the nearest merged label; a reply that never
    parses falls back to the first merged label with confidence 0, so every
    node receives an assignment. A gateway failure raises GatewayError.
    """
    ids = checked_node_ids(g, node_ids)
    replies = ask_per_node(
        g, ids, load_template("ood_classification", template_dir),
        {"MERGED_LABELS": render_label_list(post.merged_labels)}, gateway,
        parse_classification_response, text_budget, max_parse_retries)
    out = []
    for i, parsed, raw in replies:
        if parsed is None:
            out.append(OODAssignment(i, post.merged_labels[0], 0.0, raw))
        else:
            answer, conf = parsed
            out.append(OODAssignment(i, match_label(answer, post), conf, raw))
    return tuple(out)


# --------------------------------------------------------------- evaluation

def cluster_accuracy(assignments, true_labels: dict) -> float:
    """Accuracy under the best injective map from predicted to true labels.

    assignments is a sequence of (node_id, label) pairs; true_labels maps
    node id to its true class name. The optimal assignment over the
    predicted x true contingency table is solved exactly, in integers, by
    _max_matching. There is at least one pair, and true_labels holds each
    pair's node.
    """
    pairs = [(int(node), label) for node, label in assignments]
    pred_names = sorted({label for _, label in pairs})
    true_names = sorted({true_labels[node] for node, _ in pairs})
    table = np.zeros((len(pred_names), len(true_names)), dtype=np.int64)
    pi = {p: k for k, p in enumerate(pred_names)}
    ti = {t: k for k, t in enumerate(true_names)}
    for node, label in pairs:
        table[pi[label], ti[true_labels[node]]] += 1
    return float(_max_matching(table) / len(pairs))


_SUBSET_DP_MAX_SIDE = 12


def _max_matching(table: np.ndarray):
    """Largest total of a matching over a non-negative integer table (each
    row and column used at most once): a dynamic program over subsets of the
    smaller side, O(rows 2^k) for k columns after transposing. Above
    _SUBSET_DP_MAX_SIDE, scipy's linear_sum_assignment, whose import costs
    more than the program takes on any smaller table."""
    if table.shape[0] < table.shape[1]:
        table = table.T
    k = table.shape[1]
    if k > _SUBSET_DP_MAX_SIDE:
        from scipy.optimize import linear_sum_assignment
        rows, cols = linear_sum_assignment(table, maximize=True)
        return table[rows, cols].sum()
    masks = np.arange(1 << k)
    free = [masks[(masks >> j) & 1 == 0] for j in range(k)]
    # best[mask]: largest count matched so far using only columns in mask
    best = np.zeros(1 << k, dtype=np.int64)
    for row in table:
        new = best.copy()
        for j in range(k):
            taken = free[j] | (1 << j)
            new[taken] = np.maximum(new[taken], best[free[j]] + row[j])
        best = new
    return best[-1]
