"""JSON workspace documents: named algebras, modules, complexes, and tasks.

Schema (informal), all matrices dense row-major integers mod the root p:

    {
      "p": 2,
      "algebras": {name: {"kind": "quiver", "vertices": n, "arrows": [[s,t]...],
                          "relations": [[arrow indices]...]}
                   | {"kind": "table", "dim": n, "structure": [[i,j,k,c]...],
                      "unit": [...], "radical": [[...]] | []?}},
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

A table algebra's radical must span rad A; [] declares rad A = 0.  At
p <= dim it is certified the first time a computation needs rad A, by
splitting A/radical into simple modules: a radical that split proves wrong
exits 2, a split that cannot be decided exits 3.

Validation failures carry a JSON-pointer-style location.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from . import linalg
from .algebra import Algebra, QuiverPresentation, from_quiver, from_table, opposite
from .complexes import Complex
from .errors import HomresError, InvalidInput
from .modules import (
    Module,
    ModuleMap,
    dual_module,
    regular_module,
    simple_modules,
    sum_module,
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


_REQUIRED = object()
_JSON_TYPES = {"an integer": int, "a string": str, "a list": list, "an object": dict,
               "true or false": bool}


def _typed(value, kind: str, pointer: str):
    """value, if it has the JSON type kind (a key of _JSON_TYPES)."""
    expected = _JSON_TYPES[kind]
    if not isinstance(value, expected) or (isinstance(value, bool) and expected is not bool):
        raise WorkspaceError(pointer, f"expected {kind}, got {value!r}")
    return value


def _field(doc: dict, key: str, pointer: str, kind: Optional[str] = None,
           default=_REQUIRED):
    """doc[key], checked against kind when given; default when it is absent."""
    if key not in doc:
        if default is _REQUIRED:
            raise WorkspaceError(f"{pointer}/{key}", "missing required field")
        return default
    return doc[key] if kind is None else _typed(doc[key], kind, f"{pointer}/{key}")


@contextmanager
def _located(pointer: str, *errors):
    """Re-raise a HomresError (or one of errors) of the block at pointer."""
    try:
        yield
    except WorkspaceError:
        raise
    except (HomresError,) + errors as e:
        raise WorkspaceError(pointer, str(e)) from e


def _int_list(value, pointer: str, length: Optional[int] = None) -> tuple:
    """A list of integers (of the given length) as a tuple."""
    if (not isinstance(value, list) or length not in (None, len(value))
            or not all(isinstance(v, int) and not isinstance(v, bool) for v in value)):
        count = f"{length} " if length else ""
        raise WorkspaceError(pointer, f"expected a list of {count}integers, got {value!r}")
    return tuple(value)


def _int_array(value, pointer: str) -> np.ndarray:
    """A nested list of integers as an int64 array."""
    try:
        arr = np.asarray(value)
    except ValueError:  # ragged nesting
        arr = None
    if arr is None or (arr.size and arr.dtype.kind != "i"):
        raise WorkspaceError(pointer, "expected a nested list of integers")
    return arr.astype(np.int64)


def _build_algebra(name: str, spec: dict, p: int) -> Algebra:
    ptr = f"/algebras/{name}"
    _typed(spec, "an object", ptr)
    kind = _field(spec, "kind", ptr)
    with _located(ptr):
        if kind == "quiver":
            q = QuiverPresentation(
                vertices=_field(spec, "vertices", ptr, "an integer"),
                arrows=[_int_list(x, f"{ptr}/arrows/{j}", 2)
                        for j, x in enumerate(_field(spec, "arrows", ptr, "a list"))],
                relations=[_int_list(r, f"{ptr}/relations/{j}") for j, r
                           in enumerate(_field(spec, "relations", ptr, "a list", []))])
            return from_quiver(q, p)
        if kind == "table":
            radical = spec.get("radical")
            return from_table(
                p, _field(spec, "dim", ptr, "an integer"),
                [_int_list(e, f"{ptr}/structure/{j}", 4)
                 for j, e in enumerate(_field(spec, "structure", ptr, "a list"))],
                _int_array(_field(spec, "unit", ptr), f"{ptr}/unit"),
                radical=None if radical is None else _int_array(radical, f"{ptr}/radical"))
    raise WorkspaceError(f"{ptr}/kind", f"unknown algebra kind {kind!r}")


def _build_module(name: str, spec: dict, ws: WorkspaceDocument) -> Module:
    ptr = f"/modules/{name}"
    a = ws.algebra(_field(spec, "algebra", ptr), f"{ptr}/algebra")
    kind = spec.get("kind", "table")
    with _located(ptr):
        if kind == "regular":
            return regular_module(a)
        if kind == "simple":
            sims = simple_modules(a)
            idx = _field(spec, "index", ptr, "an integer", 0)
            if not 0 <= idx < len(sims):
                raise WorkspaceError(f"{ptr}/index",
                                     f"algebra has {len(sims)} simple modules")
            return sims[idx]
        if kind == "dual-regular":
            return dual_module(regular_module(opposite(a)))
        if kind == "sum":
            parts = [ws.module(n, f"{ptr}/of") for n in spec["of"]]
            return sum_module(parts, algebra=a)
        if kind == "table":
            action = _int_array(_field(spec, "action", ptr), f"{ptr}/action")
            return validate_module(Module(a, _field(spec, "dim", ptr, "an integer"), action))
    raise WorkspaceError(f"{ptr}/kind", f"unknown module kind {kind!r}")


def _build_complex(name: str, spec: dict, ws: WorkspaceDocument) -> Complex:
    ptr = f"/complexes/{name}"
    _typed(spec, "an object", ptr)
    a = ws.algebra(_field(spec, "algebra", ptr), f"{ptr}/algebra")
    terms = [ws.module(n, f"{ptr}/terms") for n in _field(spec, "terms", ptr, "a list")]
    raw_diffs = _field(spec, "diffs", ptr, "a list", [])
    if len(raw_diffs) != max(len(terms) - 1, 0):
        raise WorkspaceError(f"{ptr}/diffs",
                             f"expected {max(len(terms) - 1, 0)} differentials")
    lo = _field(spec, "lo", ptr, "an integer")
    with _located(ptr):
        diffs = [ModuleMap(terms[i], terms[i + 1], _int_array(d, f"{ptr}/diffs/{i}"))
                 for i, d in enumerate(raw_diffs)]
        return Complex(a, lo, terms, diffs)


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
    p = _field(raw, "p", "")
    with _located("/p"):
        linalg.check_modulus(p)
    suite = raw.get("suite")
    if suite is not None:
        _typed(suite, "an object", "/suite")
    ws = WorkspaceDocument(p=p, algebras={}, modules={}, complexes={},
                           tasks=_field(raw, "tasks", "", "a list", []), suite=suite,
                           raw=raw)
    for name, spec in _field(raw, "algebras", "", "an object", {}).items():
        ws.algebras[name] = _build_algebra(name, spec, p)
    # modules may reference each other through sums, in any declaration
    # order: iterate until a fixpoint, then diagnose what never resolved
    pending = dict(_field(raw, "modules", "", "an object", {}))
    deps = {}
    for name, spec in pending.items():
        ptr = f"/modules/{name}"
        _typed(spec, "an object", ptr)
        deps[name] = []
        if spec.get("kind") == "sum":
            deps[name] = _field(spec, "of", ptr, "a list")
            for j, part in enumerate(deps[name]):
                _typed(part, "a string", f"{ptr}/of/{j}")
    while pending:
        progressed = False
        for name in list(pending):
            if any(d in pending for d in deps[name]):
                continue  # a declared part is not built yet; try again later
            ws.modules[name] = _build_module(name, pending.pop(name), ws)
            progressed = True
        if not progressed:
            name = sorted(pending)[0]
            raise WorkspaceError(f"/modules/{name}/of",
                                 "cyclic sum reference")
    for name, spec in _field(raw, "complexes", "", "an object", {}).items():
        ws.complexes[name] = _build_complex(name, spec, ws)
    for i, task in enumerate(ws.tasks):
        _typed(task, "an object", f"/tasks/{i}")
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
