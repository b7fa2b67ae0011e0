import dataclasses
import itertools
import json
import math

import numpy as np
import pytest

from cfc.gateway import GatewayConfig, GatewayError, LLMGateway
from cfc.graph import Graph
from cfc.labelspace import (
    DISCARDED,
    OODAssignment,
    PostLabelSpace,
    classify_ood,
    cluster_accuracy,
    cosine,
    match_label,
    merge_categories,
    parse_classification_response,
    tfidf_vectors,
    tokenize,
)
from cfc.coarse import ParseError
from cfc import jsonl
from cfc.records import read_records
from conftest import write_jsonl


def make_gateway(tmp_path, rules, **cfg_kw):
    path = write_jsonl(tmp_path / "fixture.jsonl", rules)
    return LLMGateway(GatewayConfig(mode="mock", mock_fixture_path=path, **cfg_kw))


def text_graph(texts):
    return Graph(len(texts), (), tuple(texts), tuple(["x"] * len(texts)), ("x",))


def classification_json(answer, confidence=0.9):
    return json.dumps([{"answer": answer, "confidence": confidence}])


def space(labels, counts=None):
    counts = counts or {l: 2 for l in labels}
    return PostLabelSpace(tuple(labels), {l: l for l in labels}, counts, 0.5, 2)


# ---------------------------------------------------------------- tf-idf

def test_tokenize_splits_on_non_alphanumeric_runs():
    assert tokenize("Machine-Learning") == ["machine", "learning"]
    assert tokenize("  graph   theory ") == ["graph", "theory"]
    assert tokenize("3d vision!") == ["3d", "vision"]
    assert tokenize("???") == []


def test_tfidf_matches_hand_computation():
    # corpus of 3 names; vocab sorted: databases, deep, learning, machine
    # df = 1, 1, 2, 1 and idf = ln((1+3)/(1+df)) + 1
    mat = tfidf_vectors(["machine learning", "deep learning", "databases"])
    idf_rare = math.log(4.0 / 2.0) + 1.0
    idf_learning = math.log(4.0 / 3.0) + 1.0
    row0 = np.array([0.0, 0.0, idf_learning, idf_rare])
    row1 = np.array([0.0, idf_rare, idf_learning, 0.0])
    row2 = np.array([1.0, 0.0, 0.0, 0.0])
    want = np.stack([row0 / np.linalg.norm(row0),
                     row1 / np.linalg.norm(row1),
                     row2])
    assert mat.shape == (3, 4)
    np.testing.assert_allclose(mat, want, atol=1e-12)


def test_tfidf_repeated_token_counts():
    mat = tfidf_vectors(["graph graph", "graph"])
    # one shared token, idf = ln(3/3)+1 = 1; both rows normalize to [1.0]
    np.testing.assert_allclose(mat, [[1.0], [1.0]], atol=1e-12)


def test_tfidf_tokenless_name_keeps_zero_row():
    mat = tfidf_vectors(["---", "real topic"])
    assert np.all(mat[0] == 0.0)
    assert np.linalg.norm(mat[1]) == pytest.approx(1.0)


def test_cosine_zero_vector_is_zero():
    assert cosine(np.zeros(3), np.ones(3)) == 0.0
    assert cosine(np.array([1.0, 0.0]), np.array([1.0, 0.0])) == 1.0


def test_cosine_of_disjoint_topics_below_half_threshold():
    mat = tfidf_vectors(["machine learning", "deep learning", "databases"])
    assert cosine(mat[0], mat[1]) < 0.5       # share only "learning"
    assert cosine(mat[0], mat[2]) == 0.0


# ---------------------------------------------------------------- merging

def test_merge_groups_similar_names_and_discards_rare():
    counts = {
        "machine learning": 5,
        "machine learning theory": 2,
        "databases": 3,
        "marine biology": 1,
    }
    post = merge_categories(counts)
    assert post.merged_labels == ("machine learning", "databases")
    assert post.raw_to_merged == {
        "machine learning": "machine learning",
        "machine learning theory": "machine learning",
        "databases": "databases",
        "marine biology": DISCARDED,
    }
    assert post.counts == {"machine learning": 7, "databases": 3}
    assert post.min_count == 2


def test_merge_label_tie_breaks_alphabetically():
    post = merge_categories({"graph mining": 2, "graph algorithms": 2},
                            sim_threshold=0.3, min_count=1)
    assert post.merged_labels == ("graph algorithms",)
    assert post.raw_to_merged["graph mining"] == "graph algorithms"


def test_merge_order_is_descending_count_then_name():
    counts = {"alpha": 2, "beta": 5, "gamma": 2}
    post = merge_categories(counts, min_count=1)
    assert post.merged_labels == ("beta", "alpha", "gamma")


def test_merge_is_input_order_independent():
    a = {"topic one": 3, "topic two": 4, "unrelated thing": 2}
    b = dict(reversed(list(a.items())))
    assert merge_categories(a) == merge_categories(b)


def test_merge_min_count_default_scales_with_total():
    counts = {"big topic": 290, "small topic": 10}
    post = merge_categories(counts)
    assert post.min_count == 3          # max(2, ceil(0.01 * 300))
    assert post.raw_to_merged["small topic"] == "small topic"

    post2 = merge_categories({"a topic": 30, "b topic": 20})
    assert post2.min_count == 2


def test_merge_all_discarded_is_an_error():
    with pytest.raises(ValueError, match="min_count"):
        merge_categories({"lonely": 1, "other": 1}, min_count=5)


def test_merge_transitive_chain_lands_in_one_group():
    # a-b similar and b-c similar should pull a and c together even if
    # a-c alone would not clear the threshold
    counts = {"deep learning": 3, "deep learning theory": 2,
              "learning theory": 2}
    post = merge_categories(counts, sim_threshold=0.6, min_count=1)
    targets = {post.raw_to_merged[k] for k in counts}
    assert targets == {"deep learning"}


def _pairwise_groups(names, threshold):
    """Reference grouping: one cosine() call per pair, components by search."""
    vecs = tfidf_vectors(names)
    n = len(names)
    adj = [[j for j in range(n) if j != i
            and cosine(vecs[i], vecs[j]) >= threshold] for i in range(n)]
    group, groups = [-1] * n, []
    for start in range(n):
        if group[start] >= 0:
            continue
        group[start], stack, members = len(groups), [start], []
        while stack:
            i = stack.pop()
            members.append(names[i])
            for j in adj[i]:
                if group[j] < 0:
                    group[j] = group[start]
                    stack.append(j)
        groups.append(frozenset(members))
    return set(groups)


def _near_threshold(names, threshold, tol=1e-12):
    vecs = tfidf_vectors(names)
    return any(abs(cosine(vecs[i], vecs[j]) - threshold) < tol
               for i in range(len(names)) for j in range(i + 1, len(names)))


def test_merge_matches_pairwise_cosine_reference():
    cases = [
        ({"machine learning": 5, "machine learning theory": 2,
          "databases": 3, "marine biology": 1}, 0.5),
        ({"graph mining": 2, "graph algorithms": 2}, 0.3),
        ({"deep learning": 3, "deep learning theory": 2,
          "learning theory": 2}, 0.6),
        ({"alpha": 2, "beta": 5, "gamma": 2, "---": 1}, 0.5),
    ]
    rng = np.random.default_rng(11)
    for _ in range(10):
        cases.append((_topic_pool(rng), 0.5))
    vocab = ["graph", "neural", "marine", "quantum", "theory", "methods",
             "deep", "learning", "ocean", "systems", "protein", "data"]
    for _ in range(30):
        names = {" ".join(rng.choice(vocab, size=rng.integers(1, 4)))
                 for _ in range(rng.integers(5, 60))}
        threshold = float(rng.choice([0.2, 0.3, 0.5, 0.6, 0.8, 1.0]))
        cases.append(({n: int(rng.integers(1, 9)) for n in names}, threshold))

    checked = 0
    for counts, threshold in cases:
        names = sorted(counts)
        # the Gram product and cosine() may round one ulp apart
        if _near_threshold(names, threshold):
            continue
        post = merge_categories(counts, threshold, min_count=1)
        by_label: dict = {}
        for raw, label in post.raw_to_merged.items():
            by_label.setdefault(label, set()).add(raw)
        assert {frozenset(m) for m in by_label.values()} == \
            _pairwise_groups(names, threshold)
        checked += 1
    assert checked >= 30


def _topic_pool(rng):
    stems = ["quantum chemistry", "marine biology", "graph theory",
             "compiler design", "speech recognition", "robot control",
             "protein folding", "market dynamics"]
    suffixes = ["methods", "systems", "analysis", "models"]
    k = rng.integers(3, 7)
    picks = rng.choice(len(stems), size=k, replace=False)
    counts = {}
    for s in picks:
        base = stems[s]
        counts[base] = int(rng.integers(2, 20))
        for suf in rng.choice(suffixes, size=rng.integers(0, 3), replace=False):
            counts[f"{base} {suf}"] = int(rng.integers(1, 10))
    return counts


def test_merge_is_idempotent_on_its_own_output():
    rng = np.random.default_rng(7)
    for _ in range(20):
        counts = _topic_pool(rng)
        first = merge_categories(counts, min_count=1)
        again = merge_categories(first.counts, min_count=1)
        assert set(again.merged_labels) == set(first.merged_labels)
        assert all(again.raw_to_merged[l] == l for l in first.merged_labels)
        assert again.counts == first.counts


def test_merge_preserves_total_count():
    rng = np.random.default_rng(11)
    for _ in range(20):
        counts = _topic_pool(rng)
        post = merge_categories(counts, min_count=2)
        discarded = sum(c for name, c in counts.items()
                        if post.raw_to_merged[name] == DISCARDED)
        assert sum(post.counts.values()) + discarded == sum(counts.values())
        assert set(post.raw_to_merged) == set(counts)


# ---------------------------------------------------------------- prompts and parsing

def classification_prompts(tmp_path, texts, post, **kw):
    """The prompts classify_ood sends for texts, one node each."""
    log = tmp_path / "log.jsonl"
    path = write_jsonl(tmp_path / "f.jsonl", [
        {"match": "substr:", "response": classification_json("x")}])
    with LLMGateway(GatewayConfig(mode="mock", mock_fixture_path=path,
                                  max_concurrent=1), log_path=str(log)) as gw:
        classify_ood(range(len(texts)), text_graph(texts), post, gw, **kw)
    return [json.loads(l)["prompt_text"] for l in log.read_text().splitlines()]


def test_classification_prompt_lists_merged_labels(tmp_path):
    post = space(["machine learning", "databases"])
    [p] = classification_prompts(tmp_path, ["an essay on joins"], post)
    assert "{machine learning, databases}" in p
    assert "an essay on joins" in p
    assert "confidence" in p


def test_classification_prompt_truncates_text(tmp_path):
    post = space(["machine learning"])
    [p] = classification_prompts(tmp_path, ["z" * 5000], post, text_budget=100)
    assert "z" * 97 + "..." in p
    assert "z" * 98 not in p


def test_classification_prompt_rejects_empty_text(tmp_path):
    with pytest.raises(ValueError, match="node 0 text is empty"):
        classification_prompts(tmp_path, [" "], space(["a b"]))


def test_classification_reads_its_template_once(tmp_path, template_reads):
    classification_prompts(tmp_path, ["one", "two", "three"], space(["a b"]))
    assert template_reads == ["ood_classification.txt"]


def test_parse_classification_response_normalizes():
    raw = 'Sure! [{"answer": "  Marine  Biology ", "confidence": 0.83}]'
    assert parse_classification_response(raw) == ("marine biology", 0.83)


def test_parse_classification_clamps_and_defaults_confidence():
    assert parse_classification_response('[{"answer": "x", "confidence": 7}]') == ("x", 1.0)
    assert parse_classification_response('[{"answer": "x"}]') == ("x", 0.0)


def test_parse_classification_failures():
    with pytest.raises(ParseError):
        parse_classification_response("no structure here")
    with pytest.raises(ParseError, match="answer"):
        parse_classification_response('[{"confidence": 0.4}]')
    with pytest.raises(ParseError, match="empty"):
        parse_classification_response('[{"answer": "  "}]')


# ---------------------------------------------------------------- label matching

def test_match_label_by_token_sequence():
    post = space(["machine learning", "computer vision"])
    assert match_label("Machine-Learning", post) == "machine learning"
    assert match_label("computer vision", post) == "computer vision"


def test_match_label_snaps_to_nearest():
    post = space(["machine learning", "computer vision"])
    # shares a token with exactly one label
    assert match_label("learning machines", post) == "machine learning"
    assert match_label("vision models", post) == "computer vision"


def test_match_label_tokenless_answer_takes_first_label():
    post = space(["computer vision", "machine learning"])
    assert match_label("!!!", post) == "computer vision"


# ---------------------------------------------------------------- classify_ood

def test_classify_ood_assigns_every_node(tmp_path):
    g = text_graph(["about reef fish", "about query planners", "word salad"])
    post = space(["marine biology", "databases"])
    gw = make_gateway(tmp_path, [
        {"match": "substr:reef fish", "response": classification_json("Marine-Biology", 0.9)},
        {"match": "substr:query planners", "response": classification_json("relational databases", 0.6)},
        {"match": "substr:word salad", "response": "nothing parseable"},
    ])
    got = classify_ood([2, 0, 1], g, post, gw)
    assert [a.node_id for a in got] == [0, 1, 2]
    assert got[0].label == "marine biology" and got[0].confidence == 0.9
    # off-space answer snaps by shared token
    assert got[1].label == "databases" and got[1].confidence == 0.6
    # never parsed: first merged label, zero confidence
    assert got[2].label == "marine biology" and got[2].confidence == 0.0
    assert got[2].raw_response == "nothing parseable"


def test_classify_ood_retries_parse_failures(tmp_path):
    g = text_graph(["gibberish node"])
    log = tmp_path / "log.jsonl"
    path = write_jsonl(tmp_path / "f.jsonl",
                       [{"match": "substr:gibberish", "response": "not json"}])
    with LLMGateway(GatewayConfig(mode="mock", mock_fixture_path=path),
                    log_path=str(log)) as gw:
        classify_ood([0], g, space(["a b"]), gw, max_parse_retries=2)
    assert len(log.read_text().splitlines()) == 3


def test_classify_ood_gateway_failure_raises(tmp_path):
    g = text_graph(["covered text", "absent text"])
    gw = make_gateway(tmp_path, [
        {"match": "substr:covered text", "response": classification_json("a b")},
    ])
    with pytest.raises(GatewayError, match="absent text"):
        classify_ood([0, 1], g, space(["a b"]), gw)


# ---------------------------------------------------------------- cluster accuracy

def _oracle_cluster_accuracy(pairs, true_labels):
    preds = sorted({l for _, l in pairs})
    trues = sorted({true_labels[n] for n, _ in pairs})
    table = np.zeros((len(preds), len(trues)), dtype=int)
    for n, l in pairs:
        table[preds.index(l), trues.index(true_labels[n])] += 1
    best = 0
    if len(preds) <= len(trues):
        for perm in itertools.permutations(range(len(trues)), len(preds)):
            best = max(best, sum(table[i, perm[i]] for i in range(len(preds))))
    else:
        for perm in itertools.permutations(range(len(preds)), len(trues)):
            best = max(best, sum(table[perm[j], j] for j in range(len(trues))))
    return best / len(pairs)


def test_cluster_accuracy_perfect_relabeling():
    pairs = [(0, "a"), (1, "a"), (2, "b")]
    truth = {0: "x", 1: "x", 2: "y"}
    assert cluster_accuracy(pairs, truth) == 1.0


def test_cluster_accuracy_needs_optimal_matching():
    # greedy on the first row would pick the shared column and score 4/7
    truth = {0: "x", 1: "x", 2: "y", 3: "y", 4: "y", 5: "y", 6: "y"}
    pairs = [(0, "p"), (1, "p"), (2, "p"), (3, "p"),
             (4, "q"), (5, "q"), (6, "q")]
    assert cluster_accuracy(pairs, truth) == pytest.approx(5 / 7)


def test_cluster_accuracy_rectangular_cases():
    # more predicted labels than true classes: one stays unmatched
    truth = {0: "x", 1: "x", 2: "y", 3: "y", 4: "x"}
    pairs = [(0, "a"), (1, "a"), (2, "b"), (3, "b"), (4, "c")]
    assert cluster_accuracy(pairs, truth) == pytest.approx(4 / 5)
    # single predicted label over two true classes
    truth2 = {i: ("x" if i < 3 else "y") for i in range(5)}
    pairs2 = [(i, "only") for i in range(5)]
    assert cluster_accuracy(pairs2, truth2) == pytest.approx(3 / 5)


def _pairs_from_table(table):
    """(node, predicted label) pairs and node -> true class whose contingency
    table is `table` (rows predicted, columns true; empty lines drop out)."""
    pairs, truth = [], {}
    for (p, t), count in np.ndenumerate(table):
        for _ in range(int(count)):
            truth[len(pairs)] = f"true {t}"
            pairs.append((len(pairs), f"pred {p}"))
    return pairs, truth


def test_cluster_accuracy_matches_exhaustive_oracle():
    # both orientations and single lines; small counts make ties common
    rng = np.random.default_rng(3)
    for shape in [(1, 1), (1, 5), (5, 1), (2, 6), (6, 2), (3, 5), (5, 3), (6, 6)]:
        for _ in range(40):
            table = rng.integers(0, 3, size=shape)
            table[0, 0] += 1
            pairs, truth = _pairs_from_table(table)
            assert cluster_accuracy(pairs, truth) == \
                _oracle_cluster_accuracy(pairs, truth), table


def test_cluster_accuracy_large_tables_match_linear_sum_assignment():
    from scipy.optimize import linear_sum_assignment

    rng = np.random.default_rng(13)
    for shape in [(13, 14), (16, 13)]:
        table = rng.integers(1, 9, size=shape)
        pairs, truth = _pairs_from_table(table)
        rows, cols = linear_sum_assignment(table, maximize=True)
        assert cluster_accuracy(pairs, truth) == table[rows, cols].sum() / len(pairs)


# ---------------------------------------------------------------- persistence

def test_post_label_space_roundtrip(tmp_path):
    post = merge_categories({"machine learning": 5, "machine learning theory": 2,
                             "databases": 3, "rare thing": 1})
    path = str(tmp_path / "post.json")
    jsonl.write_json(path, dataclasses.asdict(post))
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    # the document is the record's fields, the label tuple as a JSON list
    assert PostLabelSpace(**{**doc, "merged_labels": tuple(doc["merged_labels"])}) == post


def test_assignments_roundtrip(tmp_path):
    a = (OODAssignment(3, "marine biology", 0.75, '[{"answer": "ok"}]'),
         OODAssignment(7, "databases", 0.0, "junk"))
    path = str(tmp_path / "assign.jsonl")
    jsonl.write_jsonl(path, (vars(x) for x in a))
    assert read_records(path, OODAssignment) == list(a)
