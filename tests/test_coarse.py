import json

import pytest

from cfc.coarse import (
    Annotation,
    CoarseConfig,
    CoarseDetectError,
    ParseError,
    build_candidate_ood_prompt,
    build_easy_reject_prompt,
    build_hard_reject_prompt,
    build_major_category_prompt,
    coarse_detect,
    load_coarse_result,
    normalize_category,
    parse_candidate_labels,
    parse_detection_response,
    parse_major_category,
    save_coarse_result,
    truncate_text,
)
from cfc.gateway import GatewayConfig, GatewayError, LLMGateway, mock_prompt_hash
from cfc.graph import Graph
from conftest import write_jsonl

ID_LABELS = ["neural networks", "theory", "probabilistic methods"]


def detection_json(answer, confidence, category):
    return json.dumps([{"answer": answer, "confidence": confidence,
                        "category": category}])


def make_gateway(tmp_path, rules, **cfg_kw):
    path = write_jsonl(tmp_path / "fixture.jsonl", rules)
    return LLMGateway(GatewayConfig(mode="mock", mock_fixture_path=path, **cfg_kw))


def text_graph(texts, label="x"):
    n = len(texts)
    return Graph(n, (), tuple(texts), tuple([label] * n), (label,))


# ---------------------------------------------------------------- prompts

def test_easy_prompt_contains_certainty_constraint():
    p = build_easy_reject_prompt("a study of parsing", ID_LABELS)
    assert ("Choose False only if you are very certain that the paper "
            "does not belong to any of the listed categories.") in p


def test_easy_prompt_lists_labels_once_in_braces():
    p = build_easy_reject_prompt("some text", ID_LABELS)
    assert p.count("{neural networks, theory, probabilistic methods}") == 2
    assert "some text" in p


def test_easy_prompt_truncates_to_budget():
    long_text = "x" * 5000
    p = build_easy_reject_prompt(long_text, ID_LABELS, text_budget=4000)
    body = p.split("Paper:\n", 1)[1].split("\nTask:", 1)[0]
    assert len(body) == 4000
    assert body.endswith("...")


def test_truncate_keeps_short_text_verbatim():
    assert truncate_text("short", 4000) == "short"
    assert len(truncate_text("y" * 100, 10)) == 10


def test_easy_prompt_rejects_empty_text():
    with pytest.raises(ValueError, match="empty"):
        build_easy_reject_prompt("   ", ID_LABELS)


def test_label_with_comma_is_quoted():
    p = build_easy_reject_prompt("t", ["plain", "graphs, trees"])
    assert '"graphs, trees"' in p


def test_hard_prompt_lists_each_candidate_once():
    cands = ["quantum computing", "edge computing", "digital forensics"]
    p = build_hard_reject_prompt("t", ID_LABELS, cands)
    for c in cands:
        assert p.count(c) == 1
    assert "includes but not limited to" in p


def test_hard_prompt_rejects_candidate_overlap():
    with pytest.raises(ValueError, match="overlap"):
        build_hard_reject_prompt("t", ID_LABELS, ["Theory", "new topic"])


def test_hard_prompt_rejects_empty_candidates():
    with pytest.raises(ValueError, match="candidate"):
        build_hard_reject_prompt("t", ID_LABELS, [])


def test_major_category_prompt():
    p = build_major_category_prompt(ID_LABELS)
    assert "Which major category do these themes belong to?" in p
    assert "{neural networks, theory, probabilistic methods}" in p


def test_candidate_prompt_plural_and_singular():
    p10 = build_candidate_ood_prompt(ID_LABELS, "computer science", 10)
    assert "Generate 10 possible paper topics" in p10
    assert "computer science" in p10
    p1 = build_candidate_ood_prompt(ID_LABELS, "computer science", 1)
    assert "Generate 1 possible paper topic that" in p1
    assert "Generate 1 possible paper topics" not in p1


def test_template_override_dir(tmp_path):
    (tmp_path / "easy_reject.txt").write_text("ONLY {{TEXT}} AND {{ID_LABELS}}")
    p = build_easy_reject_prompt("hello", ["a"], template_dir=str(tmp_path))
    assert p == "ONLY hello AND a"
    with pytest.raises(ValueError, match="has no hard_reject"):
        build_hard_reject_prompt("t", ["a"], ["b"], template_dir=str(tmp_path))


def test_prompts_are_byte_deterministic():
    a = build_easy_reject_prompt("same text", ID_LABELS)
    b = build_easy_reject_prompt("same text", ID_LABELS)
    assert a == b


# ---------------------------------------------------------------- parsing

def test_parse_plain_detection_reply():
    got = parse_detection_response(detection_json(True, 0.92, "neural networks"))
    assert got == (True, 0.92, "neural networks")


def test_parse_reply_with_prose_wrapper():
    raw = 'Sure, here is my verdict:\n' + detection_json(False, 0.8, "robotics") + "\nHope that helps."
    assert parse_detection_response(raw) == (False, 0.8, "robotics")


def test_parse_string_booleans_any_case():
    assert parse_detection_response(detection_json("False", 0.7, "x"))[0] is False
    assert parse_detection_response(detection_json("TRUE", 0.7, "x"))[0] is True


def test_parse_clamps_confidence():
    assert parse_detection_response(detection_json(True, 1.7, "x"))[1] == 1.0
    assert parse_detection_response(detection_json(True, -0.3, "x"))[1] == 0.0


def test_parse_confidence_as_string_or_missing():
    assert parse_detection_response(detection_json(True, "0.85", "x"))[1] == 0.85
    raw = '[{"answer": true, "category": "x"}]'
    assert parse_detection_response(raw)[1] == 0.0


def test_parse_normalizes_category():
    got = parse_detection_response(detection_json(False, 0.9, "  Pattern   Recognition "))
    assert got[2] == "pattern recognition"


def test_parse_missing_category_becomes_unspecified():
    raw = '[{"answer": false, "confidence": 0.9}]'
    assert parse_detection_response(raw)[2] == "unspecified"


def test_parse_rejects_reply_without_json():
    with pytest.raises(ParseError, match="no JSON"):
        parse_detection_response("I cannot decide.")


def test_parse_rejects_missing_answer():
    with pytest.raises(ParseError, match="answer"):
        parse_detection_response('[{"confidence": 0.4}]')


def test_parse_bare_object_reply():
    raw = '{"answer": false, "confidence": 0.75, "category": "optics"}'
    assert parse_detection_response(raw) == (False, 0.75, "optics")


def test_parse_major_category():
    assert parse_major_category('[{"answer": "Computer Science"}]') == "computer science"
    with pytest.raises(ParseError):
        parse_major_category("[]")


def test_parse_candidate_labels_dedupes():
    raw = ('[{"answer": "Quantum Computing"}, {"answer": "robotics"}, '
           '{"answer": "quantum computing"}]')
    assert parse_candidate_labels(raw) == ("quantum computing", "robotics")


# ---------------------------------------------------------------- detection

def easy_cfg(**kw):
    kw.setdefault("mode", "easy_reject")
    kw.setdefault("id_labels", tuple(ID_LABELS))
    return CoarseConfig(**kw)


def test_coarse_detect_thresholds_ood_set(tmp_path):
    g = text_graph(["about kernels", "about volcanoes", "about glaciers", "about proofs"])
    gw = make_gateway(tmp_path, [
        {"match": "substr:volcanoes", "response": detection_json(False, 0.95, "geology")},
        {"match": "substr:glaciers", "response": detection_json(False, 0.4, "geology")},
        {"match": "substr:", "response": detection_json(True, 0.9, "theory")},
    ])
    res = coarse_detect(g, [0, 1, 2, 3], easy_cfg(), gw)
    assert [a.node_id for a in res.annotations] == [0, 1, 2, 3]
    assert res.ood_ids == (1,)                      # 0.4 stays below tau=0.7
    assert res.category_log == {"geology": 2}       # sub-threshold still logged
    assert res.major_category is None


def test_coarse_detect_tau_monotonicity(tmp_path):
    g = text_graph([f"doc {i}" for i in range(6)])
    rules = [{"match": f"substr:doc {i}",
              "response": detection_json(False, i / 5.0, f"cat{i}")} for i in range(6)]
    gw = make_gateway(tmp_path, rules)
    loose = coarse_detect(g, range(6), easy_cfg(confidence_threshold=0.2), gw)
    strict = coarse_detect(g, range(6), easy_cfg(confidence_threshold=0.8), gw)
    assert set(strict.ood_ids) <= set(loose.ood_ids)


def test_coarse_detect_parse_fallback_retries(tmp_path):
    g = text_graph(["fine doc", "broken doc"])
    log = tmp_path / "log.jsonl"
    rules = [
        {"match": "substr:broken", "response": "no json here"},
        {"match": "substr:", "response": detection_json(True, 0.9, "theory")},
    ]
    path = write_jsonl(tmp_path / "f.jsonl", rules)
    gw = LLMGateway(GatewayConfig(mode="mock", mock_fixture_path=path),
                    log_path=str(log))
    res = coarse_detect(g, [0, 1], easy_cfg(max_parse_retries=2), gw)
    broken = res.annotations[1]
    assert (broken.is_id, broken.confidence, broken.category) == (True, 0.0, "")
    assert broken.raw_response == "no json here"
    tries = [json.loads(l) for l in log.read_text().splitlines()]
    assert sum("broken doc" in t["prompt_text"] for t in tries) == 3  # 1 + 2 retries
    assert res.ood_ids == ()


def test_coarse_detect_node_budget_is_deterministic(tmp_path):
    g = text_graph([f"doc {i}" for i in range(10)])
    gw = make_gateway(tmp_path, [
        {"match": "substr:", "response": detection_json(True, 0.9, "theory")},
    ])
    cfg = easy_cfg(node_budget=3, seed=11)
    first = coarse_detect(g, range(10), cfg, gw)
    second = coarse_detect(g, range(10), cfg, gw)
    assert len(first.annotations) == 3
    assert [a.node_id for a in first.annotations] == [a.node_id for a in second.annotations]


def test_coarse_detect_gateway_failure_raises(tmp_path):
    g = text_graph(["doc known", "doc mystery", "doc familiar"])
    gw = make_gateway(tmp_path, [
        {"match": "substr:known", "response": detection_json(True, 0.9, "theory")},
        {"match": "substr:familiar", "response": detection_json(True, 0.8, "theory")},
    ])
    with pytest.raises(GatewayError, match="no rule"):
        coarse_detect(g, [0, 1, 2], easy_cfg(), gw)


def test_coarse_detect_hard_mode_setup_must_parse(tmp_path):
    g = text_graph(["doc about lasers"])
    log = tmp_path / "log.jsonl"
    path = write_jsonl(tmp_path / "f.jsonl", [
        {"match": "substr:major category", "response": "no idea"},
        {"match": "substr:", "response": detection_json(True, 0.9, "theory")},
    ])
    gw = LLMGateway(GatewayConfig(mode="mock", mock_fixture_path=path),
                    log_path=str(log))
    cfg = easy_cfg(mode="hard_reject", max_parse_retries=1)
    with pytest.raises(CoarseDetectError, match="major-category reply never parsed"):
        coarse_detect(g, [0], cfg, gw)
    assert len(log.read_text().splitlines()) == 2       # 1 + 1 retry


def test_coarse_detect_hard_mode_flow(tmp_path):
    g = text_graph(["doc about lasers", "doc about proofs"])
    major_prompt = build_major_category_prompt(ID_LABELS)
    cand_prompt = build_candidate_ood_prompt(ID_LABELS, "computer science", 3)
    rules = [
        {"match": f"hash:{mock_prompt_hash(major_prompt)}",
         "response": '[{"answer": "Computer Science"}]'},
        {"match": f"hash:{mock_prompt_hash(cand_prompt)}",
         "response": ('[{"answer": "photonics"}, {"answer": "Theory"}, '
                      '{"answer": "compilers"}]')},
        {"match": "substr:lasers", "response": detection_json(False, 0.9, "photonics")},
        {"match": "substr:", "response": detection_json(True, 0.9, "theory")},
    ]
    gw = make_gateway(tmp_path, rules)
    cfg = easy_cfg(mode="hard_reject", candidate_count=3)
    res = coarse_detect(g, [0, 1], cfg, gw)
    assert res.major_category == "computer science"
    # "Theory" collides with the ID space and is dropped
    assert res.candidate_ood_labels == ("photonics", "compilers")
    assert res.ood_ids == (0,)


def test_coarse_detect_validates_inputs(tmp_path):
    g = text_graph(["a"])
    gw = make_gateway(tmp_path, [])
    with pytest.raises(ValueError, match="empty"):
        coarse_detect(g, [], easy_cfg(), gw)
    with pytest.raises(ValueError, match="outside"):
        coarse_detect(g, [5], easy_cfg(), gw)
    with pytest.raises(ValueError, match="id_labels"):
        coarse_detect(g, [0], CoarseConfig(), gw)


def test_coarse_result_roundtrip(tmp_path):
    g = text_graph(["about kernels", "about volcanoes"])
    gw = make_gateway(tmp_path, [
        {"match": "substr:volcanoes", "response": detection_json(False, 0.95, "geology")},
        {"match": "substr:", "response": detection_json(True, 0.9, "theory")},
    ])
    res = coarse_detect(g, [0, 1], easy_cfg(), gw)
    path = str(tmp_path / "coarse.jsonl")
    save_coarse_result(res, path)
    assert load_coarse_result(path) == res


def test_annotation_rejects_out_of_range_confidence():
    with pytest.raises(ValueError):
        Annotation(0, True, 1.5, "x", "raw")


def test_normalize_category():
    assert normalize_category("  Deep   LEARNING ") == "deep learning"


def test_coarse_config_validation():
    with pytest.raises(ValueError):
        CoarseConfig(mode="medium")
    with pytest.raises(ValueError):
        CoarseConfig(confidence_threshold=1.2)
    with pytest.raises(ValueError):
        CoarseConfig(node_budget=0)
