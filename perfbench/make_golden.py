"""Record golden reports for the benchmark's known-answer checks.

    python3 perfbench/make_golden.py

Writes perfbench/golden.json: the exact stdout bytes of ``homres suite`` for
each dossier workspace, and the exit code and stdout of every task-mix task,
at every prime a seed can choose.  Run it only on a commit whose reports are
the reference; a later run that differs means the reports changed.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import workloads as wl  # noqa: E402


def main() -> int:
    workdir = os.path.join(HERE, "_run", "golden")
    os.makedirs(workdir, exist_ok=True)
    golden = {"dossier": {}, "tasks": {}}
    try:
        for p in wl.PRIMES:
            for ws in sorted(set(wl.DOSSIER_WORKSPACES) | set(wl.TASK_WORKSPACES)):
                doc = wl.workspace_doc(ws, p)
                path = wl.write_doc(os.path.join(workdir, f"{ws}-{p}.json"), doc)
                if ws in wl.DOSSIER_WORKSPACES:
                    code, out = wl.run_cli(["suite", "--workspace", path])
                    if code != 0:
                        raise SystemExit(f"suite {ws}@{p} exited {code}")
                    golden["dossier"][f"{ws}@{p}"] = out
                if ws in wl.TASK_WORKSPACES:
                    for task in doc["tasks"]:
                        argv = [task["cmd"], "--workspace", path,
                                "--task", task["name"]]
                        golden["tasks"][f"{ws}@{p}/{task['name']}"] = \
                            list(wl.run_cli(argv))
                print(f"recorded {ws}@{p}", file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(wl.GOLDEN_PATH, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, sort_keys=True, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
