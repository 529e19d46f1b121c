"""Every task command through the CLI at p = 2.

The reports are compared byte for byte with tests/data/tasks/<task name>.json,
recorded before the command table replaced the per-command branches of
run_task; each command also gets one malformed task whose first workspace
reference is unknown.
"""

import json
import os

import pytest

from homres.cli import main
from homres.harness import COMMANDS
from homres.workspace import bundled_workspace_path

TASKS_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data", "tasks")

# the bundled kx2 workspace has no cone or retraction task; these two
# complete it to every command
EXTRA_COMPLEXES = {
    "reg-stalk": {"algebra": "A", "lo": 0, "terms": ["reg"], "diffs": []},
}
EXTRA_TASKS = [
    {"cmd": "cone", "name": "cone-id-socle",
     "map": {"source": "socle-seq", "target": "socle-seq",
             "components": {"-1": [[1]], "0": [[1, 0], [0, 1]], "1": [[1]]}}},
    {"cmd": "retraction", "name": "retraction-reg",
     "map": {"source": "reg-stalk", "target": "reg-stalk",
             "components": {"0": [[1, 0], [0, 1]]}},
     "summands": ["reg"]},
]


def workspace_doc() -> dict:
    with open(bundled_workspace_path("kx2"), encoding="utf-8") as fh:
        doc = json.load(fh)
    doc["complexes"].update(EXTRA_COMPLEXES)
    doc["tasks"] += EXTRA_TASKS
    return doc


DOC = workspace_doc()

# the argument each command looks up first, as a path below its task
FIRST_REFERENCE = {
    "gldim": "algebra", "injdim": "module", "ext": "source", "resolve": "module",
    "approx": "module", "addmem": "module", "perp": "module", "endo": "summands",
    "verify-thm2": "algebra", "gorenstein": "algebra", "gp": "module",
    "auslander": "algebra", "cotilting": "module", "cone": "map/source",
    "acyclic": "complex", "cacyclic": "complex", "homdim": "complex",
    "cresolve": "complex", "perfect": "complex", "retraction": "map/source",
}


def _run(tmp_path, capsys, doc, task):
    path = tmp_path / "ws.json"
    path.write_text(json.dumps(doc))
    code = main([task["cmd"], "--workspace", str(path), "--task", task["name"]])
    return code, capsys.readouterr().out


def test_every_command_has_one_task():
    assert sorted(t["cmd"] for t in DOC["tasks"]) == sorted(COMMANDS)
    assert sorted(FIRST_REFERENCE) == sorted(COMMANDS)


@pytest.mark.parametrize("task", DOC["tasks"], ids=lambda t: t["cmd"])
def test_task_report_matches_the_recorded_bytes(tmp_path, capsys, task):
    code, out = _run(tmp_path, capsys, DOC, task)
    assert code == 0
    with open(os.path.join(TASKS_DIR, f"{task['name']}.json"), encoding="utf-8") as fh:
        assert out == fh.read()


@pytest.mark.parametrize("index", range(len(DOC["tasks"])),
                         ids=[t["cmd"] for t in DOC["tasks"]])
def test_unknown_first_reference_names_its_pointer(tmp_path, capsys, index):
    task = json.loads(json.dumps(DOC["tasks"][index]))
    key = FIRST_REFERENCE[task["cmd"]]
    *path, last = key.split("/")
    parent = task
    for part in path:
        parent = parent[part]
    parent[last] = ["no-such"] if last == "summands" else "no-such"
    tasks = list(DOC["tasks"])
    tasks[index] = task
    code, out = _run(tmp_path, capsys, dict(DOC, tasks=tasks), task)
    assert code == 2
    body = json.loads(out)
    assert body["status"] == "invalid-input"
    assert body["reason"].startswith(f"/tasks/{index}/{key}:")
