"""The process that runs the program for phases 2-4 (cold, edit, cached).

It reads one JSON command per line on stdin and answers each with one JSON
line on the stdout it inherited (the program's own prints go to stderr):

    {"op": "run", "min_reps": 1, "seconds": 0}
        validate the config and run_all under the artifacts lock, repeated
        until min_reps runs and `seconds` have passed; answers with the wall
        time of each run (with and without validation and locking), run_all's {stage: executed} map, the wall time the
        manifest records for each executed stage, and the LLMGateway.complete
        calls made.
    {"op": "exit"}
        answers with this process's peak RSS and, when tracing, the
        per-layer metrics, then exits.

    python3 phases.py --config CONFIG [--spans SPANS.jsonl]

--spans installs the tracer and writes its spans there on exit.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import threading
import time
import traceback


def _count_calls(gateway_cls):
    """Count LLMGateway.complete calls; a counter, not a timer."""
    lock = threading.Lock()
    counter = {"n": 0}
    original = gateway_cls.complete

    def complete(self, prompt):
        with lock:
            counter["n"] += 1
        return original(self, prompt)

    gateway_cls.complete = complete
    return counter


def _stage_walls(art_dir: str, executed: dict) -> dict:
    with open(os.path.join(art_dir, "manifest.json"), "r", encoding="utf-8") as fh:
        stages = json.load(fh)["stages"]
    return {s: stages[s]["wall_time_s"] for s, ran in executed.items() if ran}


def _run(cmd: dict, config: str, counter: dict) -> dict:
    from cfc.pipeline import artifacts_lock, run_all, validate_config

    before = counter["n"]
    reps = []
    t_end = time.perf_counter() + float(cmd.get("seconds", 0))
    while len(reps) < int(cmd.get("min_reps", 1)) or time.perf_counter() < t_end:
        start = time.perf_counter()
        rc = validate_config(config)
        with artifacts_lock(rc.artifacts_dir):
            inner = time.perf_counter()
            executed = run_all(rc)
            done = time.perf_counter()
        reps.append({"wall_s": time.perf_counter() - start,
                     "run_all_s": done - inner, "executed": executed,
                     "stage_wall_s": _stage_walls(rc.artifacts_dir, executed)})
    return {"reps": reps, "llm_calls": counter["n"] - before}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="run the program's phases")
    ap.add_argument("--config", required=True)
    ap.add_argument("--spans", default=None)
    args = ap.parse_args(argv)

    reply = os.fdopen(os.dup(1), "w", encoding="utf-8")
    os.dup2(2, 1)                      # stray prints must not break the protocol

    tracer = None
    if args.spans:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    from cfc.gateway import LLMGateway
    counter = _count_calls(LLMGateway)

    for line in sys.stdin:
        cmd = json.loads(line)
        if cmd["op"] == "exit":
            out = {"maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
            if tracer is not None:
                out["per_layer"] = tracer.per_layer()
                tracer.write(args.spans)
            reply.write(json.dumps(out) + "\n")
            reply.flush()
            return 0
        try:
            out = _run(cmd, args.config, counter)
        except Exception:               # reported to the parent as a failed op
            out = {"error": traceback.format_exc()}
        reply.write(json.dumps(out) + "\n")
        reply.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
