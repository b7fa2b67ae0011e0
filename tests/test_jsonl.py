"""The artifact file format and the atomic writer (cfc.jsonl)."""

import os

import pytest

from cfc.jsonl import atomic_write, read_json, read_jsonl, write_json, write_jsonl


def test_write_formats_are_the_artifact_bytes(tmp_path):
    doc_path, lines_path = str(tmp_path / "d.json"), str(tmp_path / "l.jsonl")
    write_json(doc_path, {"b": [1, 2], "a": "é"})
    with open(doc_path, "rb") as fh:
        assert fh.read() == b'{\n  "a": "\\u00e9",\n  "b": [\n    1,\n    2\n  ]\n}\n'
    assert read_json(doc_path) == {"a": "é", "b": [1, 2]}

    write_jsonl(lines_path, [{"z": 1, "a": "é"}, {"k": None}])
    with open(lines_path, "rb") as fh:
        assert fh.read() == '{"z": 1, "a": "é"}\n{"k": null}\n'.encode("utf-8")
    assert list(read_jsonl(lines_path)) == [(1, {"z": 1, "a": "é"}), (2, {"k": None})]


def test_readers_skip_blank_lines_and_name_the_bad_line(tmp_path):
    path = tmp_path / "r.jsonl"
    path.write_text('{"a": 1}\n\n  \n{"a": 2}\n{"a": \n', encoding="utf-8")
    records = read_jsonl(str(path))
    assert next(records) == (1, {"a": 1})
    assert next(records) == (4, {"a": 2})
    with pytest.raises(ValueError, match=r"r\.jsonl:5: malformed JSON"):
        next(records)

    # a line that holds more, or other, than one JSON value: json.loads's
    # message, at the line's number
    for bad, msg in (('{"a": 1} 2', "Extra data"), ('{"a": 1}{"b": 2}', "Extra data"),
                     ("[1] [2]", "Extra data"), ("nope", "Expecting value"),
                     ("\ufeff{}", "Unexpected UTF-8 BOM (decode using utf-8-sig)")):
        path.write_text(f'{{"a": 1}}\n\n {bad} \n', encoding="utf-8")
        records = read_jsonl(str(path))
        assert next(records) == (1, {"a": 1})
        with pytest.raises(ValueError) as caught:
            next(records)
        assert str(caught.value) == f"{path}:3: malformed JSON ({msg})"

    doc = tmp_path / "d.json"
    doc.write_text('{\n  "a": 1,\n  "b": \n}\n', encoding="utf-8")
    with pytest.raises(ValueError, match=r"d\.json:4: malformed JSON"):
        read_json(str(doc))


def test_failed_write_keeps_the_old_file_and_no_temp_file(tmp_path):
    path = str(tmp_path / "a.bin")
    with atomic_write(path, "wb") as fh:
        fh.write(b"old")
    with pytest.raises(RuntimeError, match="cut"):
        with atomic_write(path, "wb") as fh:
            fh.write(b"new, but never fini")
            raise RuntimeError("cut")
    with open(path, "rb") as fh:
        assert fh.read() == b"old"
    assert os.listdir(tmp_path) == ["a.bin"]
