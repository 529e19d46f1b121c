"""JSON workspace documents: named algebras, modules, complexes, and tasks.

Schema (informal), all matrices dense row-major integers mod the root p:

    {
      "p": 2,
      "algebras": {name: {"kind": "quiver", "vertices": n, "arrows": [[s,t]...],
                          "relations": [[arrow indices]...]}
                   | {"kind": "table", "dim": n, "structure": [[i,j,k,c]...],
                      "unit": [...], "radical": [[...]]?}},
      "modules": {name: {"algebra": name, "kind": "regular"}
                  | {"algebra": name, "kind": "simple", "index": i}
                  | {"algebra": name, "kind": "dual-regular"}
                  | {"algebra": name, "kind": "sum", "of": [names]}
                  | {"algebra": name, "kind": "table", "dim": d,
                     "action": [[[row]...] per basis element]}},
      "complexes": {name: {"algebra": name, "lo": i, "terms": [module names],
                           "diffs": [[[row]...]...]}},
      "tasks": [{"cmd": ..., "name"?: ..., args...}],
      "suite": {"algebra": ..., "t": ..., "summands": [...], "r": ...,
                "bound"?: ..., "gp_list"?: [...], "spot_checks"?: [...]}
    }

Validation failures carry a JSON-pointer-style location.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from . import linalg
from .algebra import Algebra, QuiverPresentation, from_quiver, from_table, opposite
from .complexes import Complex
from .errors import HomresError, InvalidInput
from .modules import (
    Module,
    ModuleMap,
    direct_sum,
    dual_module,
    regular_module,
    simple_modules,
    validate_module,
)


class WorkspaceError(InvalidInput):
    """Schema or reference violation, located by a JSON pointer."""

    def __init__(self, pointer: str, message: str):
        super().__init__(f"{pointer}: {message}")
        self.pointer = pointer


@dataclass
class WorkspaceDocument:
    p: int
    algebras: Dict[str, Algebra]
    modules: Dict[str, Module]
    complexes: Dict[str, Complex]
    tasks: List[dict]
    suite: Optional[dict]
    raw: dict

    def algebra(self, name: str, pointer: str = "") -> Algebra:
        if not isinstance(name, str) or name not in self.algebras:
            raise WorkspaceError(pointer or "/algebras", f"unknown algebra {name!r}")
        return self.algebras[name]

    def module(self, name: str, pointer: str = "") -> Module:
        if not isinstance(name, str) or name not in self.modules:
            raise WorkspaceError(pointer or "/modules", f"unknown module {name!r}")
        return self.modules[name]

    def complex(self, name: str, pointer: str = "") -> Complex:
        if not isinstance(name, str) or name not in self.complexes:
            raise WorkspaceError(pointer or "/complexes", f"unknown complex {name!r}")
        return self.complexes[name]


def _need(doc: dict, key: str, pointer: str):
    if key not in doc:
        raise WorkspaceError(f"{pointer}/{key}", "missing required field")
    return doc[key]


def _build_algebra(name: str, spec: dict, p: int) -> Algebra:
    ptr = f"/algebras/{name}"
    kind = _need(spec, "kind", ptr)
    try:
        if kind == "quiver":
            q = QuiverPresentation(
                vertices=_need(spec, "vertices", ptr),
                arrows=[tuple(x) for x in _need(spec, "arrows", ptr)],
                relations=[tuple(r) for r in spec.get("relations", [])])
            return from_quiver(q, p)
        if kind == "table":
            return from_table(
                p, _need(spec, "dim", ptr),
                [tuple(e) for e in _need(spec, "structure", ptr)],
                _need(spec, "unit", ptr), radical=spec.get("radical"))
    except WorkspaceError:
        raise
    except HomresError as e:
        raise WorkspaceError(ptr, str(e)) from e
    raise WorkspaceError(f"{ptr}/kind", f"unknown algebra kind {kind!r}")


def _build_module(name: str, spec: dict, ws: WorkspaceDocument) -> Module:
    ptr = f"/modules/{name}"
    a = ws.algebra(_need(spec, "algebra", ptr), f"{ptr}/algebra")
    kind = spec.get("kind", "table")
    try:
        if kind == "regular":
            return regular_module(a)
        if kind == "simple":
            sims = simple_modules(a)
            idx = spec.get("index", 0)
            if not 0 <= idx < len(sims):
                raise WorkspaceError(f"{ptr}/index",
                                     f"algebra has {len(sims)} simple modules")
            return sims[idx]
        if kind == "dual-regular":
            return dual_module(regular_module(opposite(a)))
        if kind == "sum":
            parts = [ws.module(n, f"{ptr}/of") for n in _need(spec, "of", ptr)]
            return direct_sum(parts, algebra=a).module
        if kind == "table":
            action = np.asarray(_need(spec, "action", ptr), dtype=np.int64)
            return validate_module(Module(a, _need(spec, "dim", ptr), action))
    except WorkspaceError:
        raise
    except HomresError as e:
        raise WorkspaceError(ptr, str(e)) from e
    raise WorkspaceError(f"{ptr}/kind", f"unknown module kind {kind!r}")


def _build_complex(name: str, spec: dict, ws: WorkspaceDocument) -> Complex:
    ptr = f"/complexes/{name}"
    a = ws.algebra(_need(spec, "algebra", ptr), f"{ptr}/algebra")
    terms = [ws.module(n, f"{ptr}/terms") for n in _need(spec, "terms", ptr)]
    raw_diffs = spec.get("diffs", [])
    if len(raw_diffs) != max(len(terms) - 1, 0):
        raise WorkspaceError(f"{ptr}/diffs",
                             f"expected {max(len(terms) - 1, 0)} differentials")
    try:
        diffs = [ModuleMap(terms[i], terms[i + 1],
                           np.asarray(raw_diffs[i], dtype=np.int64))
                 for i in range(len(raw_diffs))]
        return Complex(a, _need(spec, "lo", ptr), terms, diffs)
    except WorkspaceError:
        raise
    except HomresError as e:
        raise WorkspaceError(ptr, str(e)) from e


def load_workspace(path: str) -> WorkspaceDocument:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as e:
        raise WorkspaceError("/", f"cannot read workspace: {e}") from e
    except json.JSONDecodeError as e:
        raise WorkspaceError("/", f"malformed JSON: {e}") from e
    return parse_workspace(raw)


def parse_workspace(raw: dict) -> WorkspaceDocument:
    if not isinstance(raw, dict):
        raise WorkspaceError("/", "workspace root must be an object")
    p = _need(raw, "p", "")
    try:
        linalg.check_modulus(p)
    except HomresError as e:
        raise WorkspaceError("/p", str(e)) from e
    ws = WorkspaceDocument(p=p, algebras={}, modules={}, complexes={},
                           tasks=raw.get("tasks", []), suite=raw.get("suite"),
                           raw=raw)
    for name, spec in raw.get("algebras", {}).items():
        ws.algebras[name] = _build_algebra(name, spec, p)
    # modules may reference each other through sums, in any declaration
    # order: iterate until a fixpoint, then diagnose what never resolved
    pending = dict(raw.get("modules", {}))
    while pending:
        progressed = False
        for name in list(pending):
            spec = pending[name]
            deps = spec.get("of", []) if spec.get("kind") == "sum" else []
            if any(d in pending for d in deps):
                continue  # a declared part is not built yet; try again later
            ws.modules[name] = _build_module(name, spec, ws)
            del pending[name]
            progressed = True
        if not progressed:
            name = sorted(pending)[0]
            raise WorkspaceError(f"/modules/{name}/of",
                                 "cyclic sum reference")
    for name, spec in raw.get("complexes", {}).items():
        ws.complexes[name] = _build_complex(name, spec, ws)
    if not isinstance(ws.tasks, list):
        raise WorkspaceError("/tasks", "tasks must be a list")
    for i, task in enumerate(ws.tasks):
        if not isinstance(task, dict):
            raise WorkspaceError(f"/tasks/{i}", "a task must be an object")
    return ws


def bundled_workspace_path(name: str) -> str:
    """Filesystem path of a workspace shipped with the package."""
    from importlib import resources
    candidate = resources.files("homres").joinpath("data", f"{name}.json")
    if not candidate.is_file():
        raise WorkspaceError("/", f"no bundled workspace named {name!r}")
    return str(candidate)


def store_workspace(ws: WorkspaceDocument) -> str:
    """Canonical serialization of the raw document (sorted keys)."""
    return json.dumps(ws.raw, sort_keys=True, indent=2) + "\n"
