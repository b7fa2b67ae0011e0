import hashlib
import json
import os
from importlib import resources

import pytest

from cfc.coarse import (
    TEMPLATE_NAMES,
    Annotation,
    CoarseConfig,
    CoarseDetectError,
    ParseError,
    build_easy_reject_prompt,
    coarse_detect,
    load_coarse_result,
    load_template,
    normalize_category,
    parse_candidate_labels,
    parse_detection_response,
    parse_major_category,
    render,
    render_label_list,
    save_coarse_result,
    truncate_text,
)
from cfc.gateway import GatewayConfig, GatewayError, LLMGateway, mock_prompt_hash
from cfc.graph import Graph
from cfc.labelspace import PostLabelSpace, classify_ood
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
    return Graph(n, (), tuple(texts), tuple([label] * n))


# ---------------------------------------------------------------- prompts

class RecordingGateway:
    """Answers each prompt from the first (substring, reply) rule it
    contains, and keeps every prompt in the order asked."""

    def __init__(self, rules):
        self.rules, self.prompts = rules, []

    def ask_all(self, prompts, parse, retries=0):
        self.prompts.extend(prompts)
        out = []
        for reply in (next(r for s, r in self.rules if s in p) for p in prompts):
            try:
                out.append((parse(reply), reply))
            except ParseError:
                out.append((None, reply))
        return out


def hard_mode_prompts(candidate_reply, n=3, labels=ID_LABELS,
                      texts=("doc about lasers",), **cfg_kw):
    """The major-category, candidate and screening prompts, in that order,
    of a hard_reject run over texts whose setup replies are computer science
    and candidate_reply."""
    gw = RecordingGateway([
        ("major category", '[{"answer": "Computer Science"}]'),
        ("possible paper", candidate_reply),
        ("", detection_json(True, 0.9, "theory"))])
    coarse_detect(text_graph(texts), range(len(texts)),
                  easy_cfg(mode="hard_reject", candidate_count=n,
                           id_labels=tuple(labels), **cfg_kw), gw)
    return gw.prompts


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
    gw = RecordingGateway([("", detection_json(True, 0.9, "theory"))])
    with pytest.raises(ValueError, match="node 1 text is empty"):
        coarse_detect(text_graph(["fine", "   "]), [0, 1], easy_cfg(), gw)
    assert gw.prompts == []


def test_label_with_comma_is_quoted():
    p = build_easy_reject_prompt("t", ["plain", "graphs, trees"])
    assert '"graphs, trees"' in p


def test_hard_prompt_lists_each_candidate_once():
    cands = ["quantum computing", "edge computing", "digital forensics"]
    _, _, p = hard_mode_prompts(json.dumps([{"answer": c} for c in cands]))
    for c in cands:
        assert p.count(c) == 1
    assert "includes but not limited to" in p


def test_hard_prompt_rejects_candidate_overlap():
    _, _, p = hard_mode_prompts('[{"answer": "Theory"}, {"answer": "new topic"}]')
    assert "not limited to the following: [new topic]" in p
    with pytest.raises(CoarseDetectError, match="collides with the ID space"):
        hard_mode_prompts('[{"answer": "Theory"}]')


def test_hard_prompt_rejects_empty_candidates():
    with pytest.raises(CoarseDetectError, match="candidate-label reply never parsed"):
        hard_mode_prompts("[]")


def test_major_category_prompt():
    p, _, _ = hard_mode_prompts('[{"answer": "photonics"}]')
    assert "Which major category do these themes belong to?" in p
    assert "{neural networks, theory, probabilistic methods}" in p


def test_candidate_prompt_plural_and_singular():
    _, p10, _ = hard_mode_prompts('[{"answer": "photonics"}]', n=10)
    assert "Generate 10 possible paper topics" in p10
    assert "computer science" in p10
    _, p1, _ = hard_mode_prompts('[{"answer": "photonics"}]', n=1)
    assert "Generate 1 possible paper topic that" in p1
    assert "Generate 1 possible paper topics" not in p1


def test_template_override_dir(tmp_path):
    # a directory holding only the templates a run uses is enough
    (tmp_path / "easy_reject.txt").write_text("ONLY {{TEXT}} AND {{ID_LABELS}}")
    (tmp_path / "ood_classification.txt").write_text("{{TEXT}} IN {{MERGED_LABELS}}")
    p = build_easy_reject_prompt("hello", ["a"], template_dir=str(tmp_path))
    assert p == "ONLY hello AND a"
    g = text_graph(["hello"])
    gw = RecordingGateway([("hello IN", '[{"answer": "b", "confidence": 0.9}]'),
                           ("", detection_json(True, 0.9, "theory"))])
    coarse_detect(g, [0], easy_cfg(template_dir=str(tmp_path)), gw)
    post = PostLabelSpace(("b",), {"b": "b"}, {"b": 2}, 0.5, 2)
    classify_ood([0], g, post, gw, template_dir=str(tmp_path))
    assert gw.prompts == [
        "ONLY hello AND neural networks, theory, probabilistic methods",
        "hello IN b"]
    with pytest.raises(ValueError, match="has no hard_reject"):
        hard_mode_prompts("[]", template_dir=str(tmp_path))


def test_prompts_are_byte_deterministic():
    a = build_easy_reject_prompt("same text", ID_LABELS)
    b = build_easy_reject_prompt("same text", ID_LABELS)
    assert a == b


def test_node_text_with_braces_is_rendered_verbatim():
    text = r"\newcommand{\R}{{\mathbb R}}"
    p = build_easy_reject_prompt(text, ["a", "b"])
    assert f"Paper:\n{text}\nTask:" in p
    # a placeholder name inside a field value is text, not a placeholder
    p = build_easy_reject_prompt("see {{ID_LABELS}} and {{TEXT}}", ["alpha", "beta"])
    assert "Paper:\nsee {{ID_LABELS}} and {{TEXT}}\nTask:" in p
    assert p.count("alpha, beta") == 2


def test_render_names_the_placeholders_without_a_field():
    assert render("{{{A}}} {{B}}\n\n", {"A": "{{B}}", "B": "b"}) == "{{{B}}} b"
    with pytest.raises(ValueError, match=r"unfilled placeholders: \['B', 'C'\]"):
        render("{{A}} {{C}} {{B}}", {"A": "a"})


def test_hard_mode_reads_each_template_once(template_reads):
    prompts = hard_mode_prompts('[{"answer": "photonics"}]',
                                texts=("one", "two", "three"))
    assert len(prompts) == 5
    assert sorted(template_reads) == ["candidate_ood.txt", "hard_reject.txt",
                                      "major_category.txt"]


def test_declared_templates_are_the_packaged_files():
    here = os.path.join(os.path.dirname(__file__), os.pardir, "src", "cfc", "templates")
    assert sorted(TEMPLATE_NAMES) == sorted(
        f[:-len(".txt")] for f in os.listdir(here) if f.endswith(".txt"))
    packaged = resources.files("cfc").joinpath("templates")
    for name in TEMPLATE_NAMES:
        assert packaged.joinpath(name + ".txt").read_text(encoding="utf-8") \
            == load_template(name)


# sha256 of every prompt both LLM stages send; mock fixtures pin screening
# prompts by hash, so a changed byte silently stops their rules matching
PINNED_PROMPTS = {
    "easy": "5dc359753dbb2920d11e27d90b5b63bcaadefd2790bcc08b90044827d98f0a02",
    "easy_cut": "3eae97c85979eeba9d744bf80985247e58764d4b84b29d25cceb295cd1ac8f6d",
    "major": "a546b9da484d98ee081bdf8c096769f0be01ba6912b1076c000d95f782ad12b6",
    "candidates_1": "bebbe996be94f432aeb7f31eb98141752f6fee1ebb822858e5fafd49355df810",
    "candidates_10": "b96fa9005cd184aea66f999aa87b986a000813d6060c5bb671595665065543a2",
    "hard": "f06e1c708e69dd37240f058ce7054a780116f2732b4700ec09a5a14bc5173733",
    "classify": "a04636c4fa43f57d1b46265fc0dbb142bec024b7d2d21f6a9bb2d980f2285862",
    "classify_cut": "d79a5bd74d8e081b255396013c38e2331398a6254aa13408c3e6d1eb4282a0df",
}


def test_prompt_bytes_are_pinned():
    g = text_graph(["A study of naïve parsing\nwith {braces}", "x" * 5000])
    labels = ("neural networks", "graphs, trees", 'the "theory" side')
    got = {}
    gw = RecordingGateway([("", detection_json(True, 0.9, "theory"))])
    coarse_detect(g, [1, 0], easy_cfg(id_labels=labels, text_budget=100), gw)
    got["easy"], got["easy_cut"] = gw.prompts
    for n in (1, 10):
        got["major"], got[f"candidates_{n}"], got["hard"] = hard_mode_prompts(
            '[{"answer": "photonics"}, {"answer": "Compilers"}]', n=n,
            labels=labels, texts=g.node_text[:1])
    post = PostLabelSpace(("photonics", "compilers, parsers"),
                          {"photonics": "photonics",
                           "compilers, parsers": "compilers, parsers"},
                          {"photonics": 3, "compilers, parsers": 2}, 0.5, 2)
    gw = RecordingGateway([("", '[{"answer": "photonics", "confidence": 0.5}]')])
    classify_ood([0, 1], g, post, gw, text_budget=100)
    got["classify"], got["classify_cut"] = gw.prompts
    assert {k: hashlib.sha256(v.encode("utf-8")).hexdigest()
            for k, v in got.items()} == PINNED_PROMPTS


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
    with pytest.raises(ParseError, match="not a True/False value: 'maybe'"):
        parse_detection_response(detection_json("maybe", 0.7, "x"))


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
    # the answer object is the first object that holds an answer field
    assert parse_major_category('[{"note": "hm"}, {"answer": "Physics"}]') == "physics"
    with pytest.raises(ParseError):
        parse_major_category("[]")
    with pytest.raises(ParseError, match="major-category answer is empty"):
        parse_major_category('[{"answer": "  "}]')


def test_parse_candidate_labels_dedupes():
    raw = ('[{"answer": "Quantum Computing"}, {"answer": "robotics"}, '
           '{"answer": "quantum computing"}]')
    assert parse_candidate_labels(raw) == ("quantum computing", "robotics")
    with pytest.raises(ParseError, match="no object with an answer field"):
        parse_candidate_labels('["robotics", "optics"]')
    with pytest.raises(ParseError, match="no usable labels"):
        parse_candidate_labels('[{"answer": ""}, {"answer": " "}]')


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


def test_coarse_detect_rejection_at_the_threshold_is_a_candidate(tmp_path):
    # "at or above": a rejection whose confidence equals tau is an OOD candidate
    g = text_graph(["about volcanoes", "about glaciers"])
    gw = make_gateway(tmp_path, [
        {"match": "substr:volcanoes", "response": detection_json(False, 0.7, "geology")},
        {"match": "substr:", "response": detection_json(False, 0.69, "geology")},
    ])
    res = coarse_detect(g, [0, 1], easy_cfg(confidence_threshold=0.7), gw)
    assert res.ood_ids == (0,)


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
    with LLMGateway(GatewayConfig(mode="mock", mock_fixture_path=path),
                    log_path=str(log)) as gw:
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
    cfg = easy_cfg(mode="hard_reject", max_parse_retries=1)
    with LLMGateway(GatewayConfig(mode="mock", mock_fixture_path=path),
                    log_path=str(log)) as gw, \
            pytest.raises(CoarseDetectError, match="major-category reply never parsed"):
        coarse_detect(g, [0], cfg, gw)
    assert len(log.read_text().splitlines()) == 2       # 1 + 1 retry


def test_coarse_detect_hard_mode_flow(tmp_path):
    g = text_graph(["doc about lasers", "doc about proofs"])
    labels = render_label_list(ID_LABELS)
    major_prompt = render(load_template("major_category"), {"ID_LABELS": labels})
    cand_prompt = render(load_template("candidate_ood"), {
        "N": "3", "TOPIC_WORD": "topics", "MAJOR_CATEGORY": "computer science",
        "ID_LABELS": labels})
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
