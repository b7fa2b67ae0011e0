"""The demo corpus through the command line: one table of scenarios, run in
order on one directory, each command in a fresh interpreter.

Every command runs through fixture_tools.IMPORT_PROBE, which calls
cfc.cli.main as the `cfc` command does, with PYTHONPATH set to a copy of the
cfc package this process imported. From a checkout that is src/cfc. Run
from outside the checkout after `pip install .`, with `-o pythonpath=` so
pytest does not put src first, it is the installed package, and the table
checks what a user gets, package data included:

    python -m pytest -q -o pythonpath= /path/to/tests/test_cli_scenarios.py

The rows depend on each other (a row's edit applies to what the rows before
it left), so they run in one test, in order. tests/test_pipeline.py runs a
few of them again on demos of their own through run_scenarios.
"""

import ast
import json
import os
import shutil
import subprocess
import sys
from typing import Callable, NamedTuple

import cfc
import fixture_tools
from cfc.pipeline import COARSE_LOG_FILE, STAGE_ORDER


# the numeric modules a row says its command loads; the others stay unloaded
WATCHED = ("numpy", "scipy.sparse", "scipy.optimize")


class Row(NamedTuple):
    name: str
    edit: Callable | None   # applied to the scenario's directory first
    argv: tuple             # the command and its flags; --config is added
    out: tuple = ()         # the first lines the command prints
    code: int = 0
    err: str = ""           # the prefix of its one stderr line; "" for none
    loads: tuple = ()       # the modules of WATCHED the command loads
    check: Callable | None = None   # (directory, stdout lines), afterwards


def _stages(*done):
    """run-all's first lines when exactly the stages done execute."""
    return tuple(f"{stage}: {'done' if stage in done else 'cached'}"
                 for stage in STAGE_ORDER)


def configure(block, **values):
    def edit(d):
        path = os.path.join(d, "demo", "config.json")
        with open(path, encoding="utf-8") as fh:
            cfg = json.load(fh)
        cfg.setdefault(block, {}).update(values)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(cfg, fh, indent=2)
    return edit


def _touch_template(d):
    # an empty line changes the file but no rendered prompt, so the rows
    # after this one see the same artifacts
    with open(os.path.join(d, "site", "cfc", "templates", "easy_reject.txt"), "a",
              encoding="utf-8") as fh:
        fh.write("\n")


def _move_coarse_log(d):
    shutil.move(os.path.join(d, "demo", "artifacts", COARSE_LOG_FILE),
                os.path.join(d, "coarse_log.saved"))


def _exchanges(path):
    with open(path, encoding="utf-8") as fh:
        return [{k: v for k, v in json.loads(line).items() if k != "latency_s"}
                for line in fh]


def _log_rewritten_alike(d, out):
    saved = _exchanges(os.path.join(d, "coarse_log.saved"))
    assert saved
    assert _exchanges(os.path.join(d, "demo", "artifacts", COARSE_LOG_FILE)) == saved


def _prints_report(*words):
    def check(d, out):
        for word in words:
            assert any(word in line for line in out), word
    return check


# a command that executes no stage loads neither numpy nor scipy
SCENARIOS = (
    Row("validate", None, ("validate",)),
    Row("cold run", None, ("run-all",), _stages(*STAGE_ORDER),
        loads=("numpy", "scipy.sparse"), check=_prints_report("method", "CFC")),
    Row("cached pass", None, ("run-all", "--strict"), _stages()),
    Row("one cached stage", None, ("denoise",), ("denoise: cached",)),
    Row("report", None, ("report",),
        check=_prints_report("GCN_softmax_tau", "OOD cluster accuracy")),
    # the packaged templates are hashed into both LLM stages
    Row("packaged-template edit", _touch_template, ("run-all",),
        _stages("coarse", "classify-ood"), loads=("numpy",)),
    # a mock run's log comes back with the same records in the same order
    Row("deleted coarse log", _move_coarse_log, ("run-all",), _stages("coarse"),
        loads=("numpy",), check=_log_rewritten_alike),
    Row("merge edit", configure("merge", sim_threshold=0.0), ("run-all",),
        _stages("classify-ood", "eval"), loads=("numpy",)),
    # ingest and train-prelim read no LLM output; denoise keeps the same
    # survivors and classify-ood gives the same answers, so no stage that
    # reads only their outputs reruns
    Row("screening edit", configure("coarse", confidence_threshold=0.8), ("run-all",),
        _stages("coarse", "denoise", "classify-ood"), loads=("numpy", "scipy.sparse")),
    Row("merge drops every category", configure("merge", min_count=100000),
        ("run-all",), code=2, err="error: classify-ood: ", loads=("numpy",)),
    # the failed run recorded no config, so these artifacts are the
    # screening edit's: refused before any stage is looked at
    Row("strict config drift", None, ("run-all", "--strict"), code=1,
        err="error: config hash mismatch"),
)


BY_NAME = {row.name: row for row in SCENARIOS}


def run_scenarios(tmp_path, *rows):
    """Run rows (each a Row or the name of one of SCENARIOS) in order on a
    fresh demo whose commands import a copy of the cfc package."""
    d = str(tmp_path)
    shutil.copytree(os.path.dirname(cfc.__file__), os.path.join(d, "site", "cfc"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    config = fixture_tools.write_fixture(os.path.join(d, "demo"))["config"]
    env = dict(os.environ, PYTHONPATH=os.path.join(d, "site"))
    for row in rows:
        row = BY_NAME[row] if isinstance(row, str) else row
        if row.edit is not None:
            row.edit(d)
        res = subprocess.run([sys.executable, "-c", fixture_tools.IMPORT_PROBE,
                              *row.argv, "--config", config],
                             capture_output=True, text=True, cwd=d, env=env)
        assert res.returncode == 0, (row.name, res.stderr)
        *out, last = res.stdout.splitlines()
        code, loaded = ast.literal_eval(last)
        assert (code, tuple(out[:len(row.out)])) == (row.code, row.out), \
            (row.name, res.stdout, res.stderr)
        err = res.stderr.splitlines()
        if row.err:
            assert len(err) == 1 and err[0].startswith(row.err), (row.name, err)
        else:
            assert err == [], (row.name, err)
        assert tuple(m for m in WATCHED if m in loaded) == row.loads, (row.name, loaded)
        if row.check is not None:
            row.check(d, out)


def test_cli_scenarios_on_the_demo(tmp_path):
    run_scenarios(tmp_path, *SCENARIOS)
