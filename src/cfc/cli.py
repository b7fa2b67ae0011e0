"""Command line front end: one pipeline stage per invocation, or run-all.

Exit codes: 0 success, 1 validation problem (config, dataset, stage order),
2 runtime failure, 141 (128 + SIGPIPE) when the reader of stdout goes away
early, as in `cfc run-all ... | head -1`. A runtime failure of a stage
(gateway, training, merging, a malformed artifact) prints one line,
`error: <stage>: <cause>`; report's refusal of a malformed eval.json names
the file instead.
"""

from __future__ import annotations

import argparse
import os
import signal
import sys

from .pipeline import (
    STAGE_ORDER,
    ConfigError,
    artifacts_lock,
    emit_report,
    run_all,
    run_stage,
    validate_config,
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cfc",
        description="Coarse-to-fine open-set node classification pipeline.",
    )
    parser.add_argument("command", choices=list(STAGE_ORDER) + ["run-all", "report"],
                        help="pipeline stage to run, run-all, or report")
    parser.add_argument("--config", required=True, help="path to the run config JSON")
    parser.add_argument("--artifacts", default=None,
                        help="override the config's artifacts_dir")
    parser.add_argument("--strict", action="store_true",
                        help="fail instead of rerunning when the config no "
                             "longer matches the manifest")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        rc = validate_config(args.config, artifacts_override=args.artifacts)
        if args.command == "report":
            print(emit_report(rc))
        else:
            with artifacts_lock(rc.artifacts_dir):
                if args.command == "run-all":
                    executed = run_all(rc, strict=args.strict)
                    for stage, ran in executed.items():
                        print(f"{stage}: {'done' if ran else 'cached'}")
                else:
                    ran = run_stage(rc, args.command, strict=args.strict)
                    print(f"{args.command}: {'done' if ran else 'cached'}")
            if args.command in ("run-all", "eval"):
                print()
                print(emit_report(rc))
        sys.stdout.flush()          # a closed pipe must fail here, not at exit
        return 0
    except BrokenPipeError:
        # end quietly, like a process killed by SIGPIPE; stdout now points at
        # devnull so the interpreter's flush at exit cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 128 + signal.SIGPIPE
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    # a stage's StageError, a held lock, a malformed manifest or eval.json
    except (RuntimeError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
