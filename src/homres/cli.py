"""Command-line front end.

    homres <command> --workspace <file> [--task <name>] [--bound N]
                     [--seed N] [--out <file>]

Commands are the workspace task commands plus `suite` (the verification
dossier) and `run` (every task in the workspace, in order).  The selected
task's arguments come from the workspace document; --bound and --seed
override the stored values.  Output is a single JSON document, written to
stdout or --out, with sorted keys so runs are byte-identical.

Exit codes: 0 success; 2 usage or workspace-schema error (status
"invalid-input", argparse usage errors included); 3 a hypothesis of
the requested computation could not be witnessed, or the computation ran out
of memory (status "out-of-memory"); 4 internal invariant violation.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from .errors import (
    HypothesesNotSatisfied,
    InternalError,
    InvalidInput,
    NeedsFiniteInjdim,
    NotAGenerator,
    NotFiniteDimensional,
    SearchExhausted,
    UnsupportedField,
)
from .harness import COMMANDS, run_all, run_task, verification_suite
from .workspace import load_workspace

_HYPOTHESIS_ERRORS = (HypothesesNotSatisfied, NeedsFiniteInjdim, NotAGenerator,
                      UnsupportedField, SearchExhausted, NotFiniteDimensional)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # a usage error gets the JSON body and exit 2 like any other bad input
        raise InvalidInput(message)


def _parser() -> argparse.ArgumentParser:
    p = _Parser(
        prog="homres",
        description="exact homological computations over finite prime fields")
    p.add_argument("command", choices=list(COMMANDS) + ["suite", "run"])
    p.add_argument("--workspace", required=True, help="workspace JSON file")
    p.add_argument("--task", help="run the task with this name")
    p.add_argument("--bound", type=int, help="override the search bound")
    p.add_argument("--seed", type=int, help="override the stored seed")
    p.add_argument("--out", help="write the report here instead of stdout")
    return p


def _select_task(ws, command: str, name: Optional[str]) -> dict:
    if name is not None:
        for task in ws.tasks:
            if task.get("name") == name:
                if task.get("cmd") != command:
                    raise InvalidInput(
                        f"task {name!r} runs {task.get('cmd')!r}, not {command!r}")
                return task
        raise InvalidInput(f"no task named {name!r} in the workspace")
    for task in ws.tasks:
        if task.get("cmd") == command:
            return task
    raise InvalidInput(f"no {command!r} task in the workspace")


def _emit(report: dict, out: Optional[str]) -> None:
    text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def main(argv: Optional[List[str]] = None) -> int:
    out = None  # a usage error is reported on stdout
    try:
        args = _parser().parse_args(argv)
        out = args.out
        ws = load_workspace(args.workspace)
        if args.command == "suite":
            report = verification_suite(ws, bound=args.bound)
        elif args.command == "run":
            report = run_all(ws, bound=args.bound, seed=args.seed)
        else:
            task = _select_task(ws, args.command, args.task)
            report = run_task(ws, task, bound=args.bound, seed=args.seed)
    except InvalidInput as e:
        _emit({"status": "invalid-input", "reason": str(e)}, out)
        return 2
    except _HYPOTHESIS_ERRORS as e:
        _emit({"status": "hypotheses-not-satisfied", "reason": str(e)}, out)
        return 3
    except (InternalError, AssertionError) as e:
        _emit({"status": "internal-error", "reason": str(e)}, out)
        return 4
    except MemoryError as e:
        # a last resort: nothing bounds the work up front yet
        _emit({"status": "out-of-memory", "reason": str(e) or "MemoryError"}, out)
        return 3
    _emit(report, out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
