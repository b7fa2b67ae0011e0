"""Benchmark of the cfc pipeline: one workload run, one JSON result line.

    python3 perfbench/run.py --workload cora-mock --seed 1 --seconds 5 --trace 0

Run from the root of a checkout. A workload run goes through four phases,
each made of operations; an operation fails if it raises, exits non-zero or
fails its output check (check.py):

    setup   a fresh interpreter imports cfc.cli and validates the config
            (SETUP_REPS times before the cold phase, after it and after the
            cached phase, following one untimed run that writes .pyc files)
    cold    run_all into an empty artifacts directory
    edit    one scripted config edit, then run_all
    cached  run_all with nothing changed, repeated for --seconds seconds
            (at least CACHED_MIN_REPS times)

Phases 2-4 run in one child process (phases.py), whose peak RSS is reported.
--trace 0 prints the end-to-end metrics; --trace 1 first runs an untraced
cold phase, then the whole workload again with the tracer installed, and
prints the per-layer metrics. See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import queue
import shutil
import statistics
import subprocess
import sys
import threading
import time
import urllib.request

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RUNS = os.path.join(ROOT, ".perfbench_runs")

WORKLOADS = ("cora-mock", "text-live")
SETUP_REPS = 3
CACHED_MIN_REPS = 5
IMPORTTIME_REPS = 3
STUB_DELAY_S = 0.010
DEADLINE_S = 170.0

STAGES = ("ingest", "coarse", "denoise", "train-prelim", "augment",
          "train-fine", "detect", "classify-ood", "eval")


class Failure(Exception):
    """The benchmark itself cannot go on (a child died or hung)."""


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def op(self, problems: list[str], what: str) -> bool:
        self.attempted += 1
        if problems:
            self.failed += 1
            for p in problems:
                print(f"FAILED {what}: {p}", file=sys.stderr)
        return not problems


def child_env(base_url: str | None) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC                 # absolute: children change cwd
    env["CFC_LLM_API_KEY"] = "perfbench-dummy-key"
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    if base_url:
        env["CFC_LLM_BASE_URL"] = base_url
    else:
        env.pop("CFC_LLM_BASE_URL", None)
    return env


class Deadline:
    def __init__(self, seconds: float):
        self.end = time.monotonic() + seconds

    def left(self) -> float:
        left = self.end - time.monotonic()
        if left <= 0:
            raise Failure("run exceeded its time limit")
        return left


class Stub:
    """The loopback endpoint (stub.py), one process."""

    def __init__(self, plan: str, env: dict):
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "stub.py"), "--plan", plan,
             "--delay", str(STUB_DELAY_S)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=env)
        line = self.proc.stdout.readline().split()
        if len(line) != 2 or line[0] != "port":
            self.close()
            raise Failure("stub did not start")
        self.url = f"http://127.0.0.1:{line[1]}"

    def stats(self) -> dict:
        with urllib.request.urlopen(self.url + "/stats", timeout=10) as resp:
            return json.load(resp)

    def close(self) -> None:
        try:
            self.proc.stdin.close()
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


class Phases:
    """phases.py as a child: one JSON command out, one JSON reply back."""

    def __init__(self, config: str, env: dict, log: str, deadline: Deadline,
                 spans: str | None = None):
        cmd = [sys.executable, os.path.join(HERE, "phases.py"), "--config", config]
        if spans:
            cmd += ["--spans", spans]
        self.deadline = deadline
        self.log = open(log, "w", encoding="utf-8")
        self.proc = subprocess.Popen(cmd, stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, stderr=self.log,
                                     text=True, env=env, cwd=os.path.dirname(config))
        self.replies: queue.Queue = queue.Queue()
        self.reader = threading.Thread(target=self._read, daemon=True)
        self.reader.start()

    def _read(self):
        for line in self.proc.stdout:
            self.replies.put(line)
        self.replies.put(None)

    def ask(self, cmd: dict) -> dict:
        self.proc.stdin.write(json.dumps(cmd) + "\n")
        self.proc.stdin.flush()
        try:
            line = self.replies.get(timeout=self.deadline.left())
        except queue.Empty:
            raise Failure(f"no reply to {cmd} in time") from None
        if line is None:
            raise Failure(f"phases child died on {cmd}; see {self.log.name}")
        return json.loads(line)

    def close(self) -> dict:
        """Ask the child to exit; returns its last reply."""
        reply = self.ask({"op": "exit"})
        self.proc.wait(timeout=self.deadline.left())
        return reply

    def stop(self) -> None:
        """Kill the child if it still runs, and wait for it."""
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.proc.stdin.close()
        self.reader.join(timeout=10)
        self.log.close()


def run_problems(reply: dict, phase: str) -> list[str]:
    if "error" in reply:
        return [f"{phase} raised:\n{reply['error']}"]
    return []


def apply_edit(config_path: str, edit: dict) -> None:
    with open(config_path, "r", encoding="utf-8") as fh:
        config = json.load(fh)
    for block, values in edit.items():
        config.setdefault(block, {}).update(values)
    with open(config_path, "w", encoding="utf-8") as fh:
        json.dump(config, fh, indent=1, sort_keys=True)
        fh.write("\n")


class Setup:
    """Phase 1. Its runs are spread over the workload run, SETUP_REPS at a
    time at three points, so that setup_s is a median over the whole run
    rather than over one burst of a few seconds."""

    def __init__(self, config: str, env: dict, tally: Tally, deadline: Deadline):
        self.art = os.path.join(os.path.dirname(config), "setup-artifacts")
        code = ("import sys, cfc.cli; "
                "cfc.cli.validate_config(sys.argv[1], artifacts_override=sys.argv[2])")
        self.cmd = [sys.executable, "-c", code, config, self.art]
        self.env, self.tally, self.deadline = env, tally, deadline
        self.walls: list[float] = []
        # untimed: writes the .pyc files a later import reads
        subprocess.run(self.cmd, env=env, capture_output=True,
                       timeout=deadline.left())

    def run(self) -> None:
        for _ in range(SETUP_REPS):
            start = time.perf_counter()
            proc = subprocess.run(self.cmd, env=self.env, capture_output=True,
                                  text=True, timeout=self.deadline.left())
            self.walls.append(time.perf_counter() - start)
            self.tally.op([proc.stderr.strip()] if proc.returncode else [],
                          f"setup {len(self.walls)}")
        shutil.rmtree(self.art, ignore_errors=True)

    def median(self) -> float:
        return statistics.median(self.walls)


def cold_phase(child: Phases, checker, tally: Tally) -> dict:
    reply = child.ask({"op": "run", "min_reps": 1})
    problems = run_problems(reply, "cold")
    if not problems:
        rep = reply["reps"][0]
        if not all(rep["executed"].values()):
            problems.append("cold run_all skipped a stage")
        problems += checker.check_outputs(checker.oracle["thresholds"]["cold"])
        want = checker.expected_cold_calls()
        if reply["llm_calls"] != want:
            problems.append(f"cold phase made {reply['llm_calls']} LLM calls, "
                            f"want |test| (+2 hard_reject) + |predicted OOD| = {want}")
    if not tally.op(problems, "cold"):
        raise Failure("cold phase failed")
    return reply


def workload_phases(child: Phases, checker, config: str, seconds: int,
                    tally: Tally, setup: Setup) -> dict:
    """Phases 2-4 in one child; returns the raw replies."""
    oracle = checker.oracle
    cold = cold_phase(child, checker, tally)
    setup.run()

    apply_edit(config, oracle["edit"])
    edit = child.ask({"op": "run", "min_reps": 1})
    problems = run_problems(edit, "edit")
    if problems:
        tally.op(problems, "edit")
        raise Failure("edit phase failed")
    tally.op(checker.check_outputs(oracle["thresholds"]["edit"]), "edit")

    before = checker.eval_bytes()
    cached = child.ask({"op": "run", "min_reps": CACHED_MIN_REPS,
                        "seconds": seconds})
    problems = run_problems(cached, "cached")
    if problems:
        tally.op(problems, "cached")
        raise Failure("cached phase failed")
    for k, rep in enumerate(cached["reps"]):
        problems = [f"cached run executed {stage}"
                    for stage, ran in rep["executed"].items() if ran]
        if k == len(cached["reps"]) - 1:
            if checker.eval_bytes() != before:
                problems.append("eval.json changed")
            problems += checker.check_outputs(oracle["thresholds"]["edit"])
        tally.op(problems, f"cached {k}")
    setup.run()
    return {"cold": cold, "edit": edit, "cached": cached}


def import_times(env: dict, deadline: Deadline) -> dict:
    """Cumulative import time of cfc.cli and scipy.optimize, in seconds
    (median of IMPORTTIME_REPS runs of python -X importtime)."""
    found = {"cfc.cli": [], "scipy.optimize": []}
    for _ in range(IMPORTTIME_REPS):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c",
                               "import cfc.cli"], env=env, capture_output=True,
                              text=True, timeout=deadline.left())
        seen = {}
        for line in proc.stderr.splitlines():
            parts = [p.strip() for p in line.split("|")]
            if len(parts) == 3 and parts[2] in found:
                seen[parts[2]] = int(parts[1]) / 1e6
        for name in found:
            found[name].append(seen.get(name, 0.0))
    return {k: statistics.median(v) for k, v in found.items()}


def artifact_bytes(art: str) -> int:
    return sum(os.path.getsize(os.path.join(art, f)) for f in os.listdir(art))


def end_to_end(setup_s: float, phases: dict, rss_kb: int) -> dict:
    cold, edit, cached = phases["cold"], phases["edit"], phases["cached"]
    return {
        "setup_s": setup_s,
        "cold_run_s": cold["reps"][0]["wall_s"],
        "edit_rerun_s": edit["reps"][0]["wall_s"],
        "cached_rerun_s": statistics.median(r["wall_s"] for r in cached["reps"]),
        "peak_rss_mb": rss_kb / 1024.0,
        "llm_calls": cold["llm_calls"] + edit["llm_calls"] + cached["llm_calls"],
    }


def per_layer(traced: dict, phases: dict, untraced_cold: float, imports: dict,
              stub: dict | None, art: str) -> dict:
    out = dict(traced)
    cold, edit, cached = phases["cold"], phases["edit"], phases["cached"]
    walls = cold["reps"][0]["stage_wall_s"]
    for stage in STAGES:
        out[f"pipeline.stage_s.{stage}"] = walls.get(stage, 0.0)
    out["pipeline.overhead_s"] = statistics.median(
        r["run_all_s"] - sum(r["stage_wall_s"].values()) for r in cached["reps"])
    out["pipeline.stages_rerun"] = sum(
        sum(r["executed"].values()) for r in edit["reps"] + cached["reps"])
    out["pipeline.artifact_bytes"] = artifact_bytes(art)
    out["cli.import_s"] = imports["cfc.cli"]
    out["cli.import_scipy_optimize_s"] = imports["scipy.optimize"]
    out["stub.requests"] = stub["requests"] if stub else 0
    out["stub.connections"] = stub["connections"] if stub else 0
    out["trace.overhead_s"] = cold["reps"][0]["wall_s"] - untraced_cold
    return out


def run(args) -> dict:
    import gen
    from check import Checker

    deadline = Deadline(DEADLINE_S)
    work = os.path.join(RUNS, f"{args.workload}-seed{args.seed}-pid{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    gen.generate(args.workload, args.seed, work,
                 max_concurrent=min(2, os.cpu_count() or 1))
    config = os.path.join(work, "config.json")
    art = os.path.join(work, "artifacts")
    checker = Checker(work)
    tally = Tally()
    stub = None
    children: list[Phases] = []
    try:
        if args.workload == "text-live":
            stub = Stub(os.path.join(work, "stub_plan.json"), child_env(None))
        env = child_env(stub.url if stub else None)
        setup = Setup(config, env, tally, deadline)
        setup.run()

        untraced_cold = None
        spans = None
        if args.trace:
            child = Phases(config, env, os.path.join(work, "untraced.log"), deadline)
            children.append(child)
            untraced_cold = cold_phase(child, checker, tally)["reps"][0]["wall_s"]
            child.close()
            shutil.rmtree(art)
            spans = os.path.join(RUNS, f"spans-{args.workload}-seed{args.seed}.jsonl")
        stub_before = stub.stats() if stub else None

        child = Phases(config, env, os.path.join(work, "phases.log"), deadline,
                       spans=spans)
        children.append(child)
        phases = workload_phases(child, checker, config, args.seconds, tally,
                                 setup)
        final = child.close()

        if not args.trace:
            metrics = end_to_end(setup.median(), phases, final["maxrss_kb"])
        else:
            stub_counts = None
            if stub:
                after = stub.stats()
                stub_counts = {k: after[k] - stub_before[k] for k in after}
            metrics = per_layer(final["per_layer"], phases, untraced_cold,
                                import_times(env, deadline), stub_counts, art)
    finally:
        for child in children:
            child.stop()
        if stub:
            stub.close()
    shutil.rmtree(work, ignore_errors=True)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    if set(units) != set(metrics):
        raise Failure("measured metrics differ from BENCHMARK.json: "
                      f"{sorted(set(units) ^ set(metrics))}")
    return {"correct": tally.failed == 0, "attempted": tally.attempted,
            "failed": tally.failed,
            "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units}}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True,
                    help="length of the cached phase")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "cfc")):
        print(f"error: no cfc package under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    try:
        result = run(args)
    except (Failure, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for name, m in result["metrics"].items():
        print(f"{args.workload:<10} {name:<36} {m['value']:>14.6g} {m['unit']}")
    print(f"{args.workload:<10} attempted {result['attempted']} "
          f"failed {result['failed']} correct {result['correct']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
