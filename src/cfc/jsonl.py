"""Artifact file I/O: the one JSONL and JSON reader, and the one writer.

JSON documents are written with indent 2, sorted keys and a final newline;
JSONL holds one record per line, keys in insertion order, non-ASCII text
unescaped. Readers skip blank lines and raise ValueError("path:line:
malformed JSON (...)"); read_jsonl decodes a line with one raw_decode
call, and parses a line that fails it, or holds more than one value, again
with json.loads, for json.loads's message. build_record makes a record's
dataclass and raises ValueError("path:line: ...") for a record that does
not fit it.
atomic_write puts the bytes in <path>.<pid>.tmp beside path and renames
that onto path once complete, so a killed run leaves the old file or the
new one, never a torn one the stage cache would take for done. There is no
fsync: the guarantee covers a killed process, not a power loss. A killed
process also leaves its temp file; remove_orphaned_temp_files clears those
of dead processes.
"""

from __future__ import annotations

import json
import os
import re
from contextlib import contextmanager

_TEMP_NAME = re.compile(r".+\.([0-9]+)\.tmp")
_raw_decode = json.JSONDecoder().raw_decode


def _parse(text: str, path: str, lineno: int):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        line = lineno + exc.lineno - 1
        raise ValueError(f"{path}:{line}: malformed JSON ({exc.msg})") from exc


def read_jsonl(path: str):
    """Yield (line number, record) for every non-blank line of path."""
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            # json.loads without its whitespace scans: a stripped line has
            # no leading or trailing JSON whitespace
            try:
                rec, end = _raw_decode(line)
            except json.JSONDecodeError:
                end = -1
            yield lineno, rec if end == len(line) else _parse(line, path, lineno)


def read_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return _parse(fh.read(), path, 1)


def build_record(cls, record, path: str, lineno: int = 1):
    """cls(**record), for the record read from line lineno of path. A record
    that is not an object with exactly cls's fields, or whose values cls
    refuses, raises ValueError("path:line: ...")."""
    try:
        return cls(**record)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{path}:{lineno}: {exc}") from exc


@contextmanager
def atomic_write(path: str, mode: str = "w"):
    """Open a temp file beside path for writing ("w" text, "wb" binary) and
    rename it onto path when the block completes; on an exception the temp
    file is removed and path is left untouched."""
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, mode, encoding=None if "b" in mode else "utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def remove_orphaned_temp_files(directory: str) -> None:
    """Remove each <name>.<pid>.tmp in directory whose process no longer
    exists: atomic_write's leftovers from a killed run. A live pid's file may
    be a write in flight, and stays."""
    for name in os.listdir(directory):
        match = _TEMP_NAME.fullmatch(name)
        if match is None:
            continue
        try:
            os.kill(int(match.group(1)), 0)
        except ProcessLookupError:
            os.remove(os.path.join(directory, name))
        except (PermissionError, OverflowError):
            pass        # alive under another user, or not a pid at all


def write_json(path: str, doc) -> None:
    with atomic_write(path) as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_jsonl(path: str, records) -> None:
    with atomic_write(path) as fh:
        for rec in records:
            fh.write(json.dumps(rec, ensure_ascii=False) + "\n")
