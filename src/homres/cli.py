"""Command-line front end.

    homres <command> --workspace <file> [--task <name>] [--bound N]
                     [--seed N] [--out <file>]

Commands are the workspace task commands plus `suite` (the verification
dossier) and `run` (every task in the workspace, in order).  The selected
task's arguments come from the workspace document; --bound and --seed
override the stored values.  Output is a single JSON document, written to
stdout or --out, with sorted keys so runs are byte-identical.

argv is read in order by one reader over the flag table `_FLAGS`, and reads
as an argparse parser of the same flags reads it: `--flag value` or
`--flag=value`, flags before or after the command, the last of a repeated
flag winning, any unique prefix of a flag (`--work`), a negative number as a
value (`--bound -1`, which the task reader then refuses), no options after
`--`, and `-h`/`--help`, which prints the usage and exits 0.  Every other
argv exits 2 with argparse's wording, naming the flag or the command; an argv
item that is not a string exits 2 naming its position.

Exit codes: 0 success; 2 usage or workspace-schema error, an unreadable
workspace file or an unwritable --out (status "invalid-input"); 3 a
hypothesis of the requested computation could not be witnessed, or the
computation ran out of memory (status "out-of-memory"); 4 internal
invariant violation.
"""

from __future__ import annotations

import json
import re
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

_FLAGS = {"--workspace": str, "--task": str, "--bound": int, "--seed": int,
          "--out": str}
_OPTIONS = ("-h", "--help") + tuple(_FLAGS)
_CHOICES = COMMANDS + ("suite", "run")
_USAGE = """usage: homres [-h] <command> --workspace FILE [--task NAME] [--bound N]
              [--seed N] [--out FILE]

commands: %s

Flags go before or after the command, as --flag VALUE or --flag=VALUE, and
may be shortened to any unique prefix (--work); a repeated flag's last value
wins.  Exit codes: 0 success; 2 usage or workspace error; 3 a hypothesis not
witnessed, or out of memory; 4 internal error.
"""


def _option(item: str) -> Optional[tuple]:
    """How argparse reads one argv item: None for a positional, else (option,
    its attached value or None), where option "" is an unknown one."""
    if item[:1] != "-" or item == "-":
        return None
    if item[1] != "-":  # the one short option: -h, or -hX with X attached
        if item[1] == "h":
            return "-h", item[2:] or None
    else:  # split at "=", then a unique prefix names a long option
        name, eq, value = item.partition("=")
        hits = [o for o in _OPTIONS if o.startswith(name)]
        if len(hits) > 1:
            raise InvalidInput(f"ambiguous option: {item} could match {', '.join(hits)}")
        if hits:
            return hits[0], value if eq else None
    if re.match(r"^-\d+$|^-\d*\.\d+$", item) or " " in item:
        return None  # a negative number or a spaced word is a positional
    return "", None


def _read_argv(argv: List[str]) -> dict:
    """The command and flag values of argv (see the module docstring)."""
    for i, item in enumerate(argv):
        if not isinstance(item, str):
            raise InvalidInput(f"argv[{i}] is not a string: {item!r}")
    end = argv.index("--") if "--" in argv else len(argv)  # no options after "--"
    kinds = [_option(item) if i < end else None for i, item in enumerate(argv)]
    args = dict.fromkeys(["command"] + [flag[2:] for flag in _FLAGS])
    extras, i, at = [], 0, None  # at: the command's index in argv
    while i < len(argv):
        item, (flag, value) = argv[i], kinds[i] or (None, None)
        i += 1
        if i - 1 == end:  # "--" goes with a command next to it
            if at not in (None, end - 1):
                extras.append(item)
        elif flag is None and at is None:
            if item not in _CHOICES:
                raise InvalidInput(f"argument command: invalid choice: {item!r} "
                                   f"(choose from {', '.join(map(repr, _CHOICES))})")
            args["command"], at = item, i - 1
        elif not flag:  # a second positional or an unknown option
            extras.append(item)
        elif flag in ("-h", "--help"):
            # -hh reads as -h -h; any other attached value is refused
            if value is not None and (flag == "--help" or value.strip("h")):
                raise InvalidInput(f"argument -h/--help: ignored explicit argument {value!r}")
            sys.stdout.write(_USAGE % ", ".join(_CHOICES))
            raise SystemExit(0)
        else:
            if value is None:
                if i in (end, len(argv)) or kinds[i] is not None:
                    raise InvalidInput(f"argument {flag}: expected one argument")
                value, i = argv[i], i + 1
            try:
                args[flag[2:]] = _FLAGS[flag](value)
            except ValueError:
                raise InvalidInput(f"argument {flag}: invalid int value: {value!r}") from None
    missing = [name for name in ("command", "--workspace") if args[name.strip("-")] is None]
    if missing:
        raise InvalidInput(f"the following arguments are required: {', '.join(missing)}")
    if extras:
        raise InvalidInput(f"unrecognized arguments: {' '.join(extras)}")
    return args


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
        args = _read_argv(list(sys.argv[1:] if argv is None else argv))
        out = args["out"]
        ws = load_workspace(args["workspace"])
        if args["command"] == "suite":
            report = verification_suite(ws, bound=args["bound"])
        elif args["command"] == "run":
            report = run_all(ws, bound=args["bound"], seed=args["seed"])
        else:
            task = _select_task(ws, args["command"], args["task"])
            report = run_task(ws, task, bound=args["bound"], seed=args["seed"])
        code = 0
    except InvalidInput as e:
        code, report = 2, {"status": "invalid-input", "reason": str(e)}
    except _HYPOTHESIS_ERRORS as e:
        code, report = 3, {"status": "hypotheses-not-satisfied", "reason": str(e)}
    except (InternalError, AssertionError) as e:
        code, report = 4, {"status": "internal-error", "reason": str(e)}
    except MemoryError as e:
        # a last resort: nothing bounds the work up front yet
        code, report = 3, {"status": "out-of-memory", "reason": str(e) or "MemoryError"}
    try:
        _emit(report, out)
    except OSError as e:  # an unwritable --out: report that on stdout instead
        _emit({"status": "invalid-input",
               "reason": f"argument --out: cannot write {out!r}: {e.strerror or e}"}, None)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
