"""Outside-in tracer for the homres package.

The tracer wraps every public module-level function of each homres layer
(except the cheap helpers in ``UNSPANNED``) and replaces *every* alias of it
in every ``homres.*`` namespace.  homres imports
names with ``from .x import f``, so patching the defining module alone would
miss the call sites in the other modules.

While a tracer is active each call records a span ``[id, parent, name, start,
end, rss_rise_kb]``.  For the functions in ``MEMORY_SPANS`` the last field is
how far the call raised the process's peak resident set (``getrusage``): a
measured memory figure at the cost of one system call, where ``tracemalloc``
slowed the elimination loops about ninefold.  Spans stay in memory until the
op ends; ``summarize`` turns them into per-layer metrics.
"""

from __future__ import annotations

import hashlib
import inspect
import resource
import sys
import time
from collections import defaultdict
from typing import Dict, List, Optional

import numpy as np

PACKAGE = "homres"

# homres modules, one layer each; every public function of these modules is
# wrapped.  errors.py defines no functions and __init__ only re-exports.
LAYERS = ("linalg", "algebra", "modules", "resolutions", "approx", "endo",
          "complexes", "gorenstein", "workspace", "harness", "cli")

# Cheap helpers called tens of thousands of times per op.  Spanning them made
# tracing cost 75 % of a task-mix pass, most of it booked as linalg self
# time; unwrapped, their time counts toward the public function that called
# them.
UNSPANNED = ("linalg.is_prime", "linalg.check_modulus", "linalg.as_matrix",
             "linalg.zeros", "linalg.identity", "linalg.mat_mul",
             "algebra.same_algebra")

# Functions that per-layer metrics name.  install() fails if one of them has
# no alias left to replace, so a refactor cannot silently unmeasure a layer.
REQUIRED = (
    "linalg.rref", "linalg.solve_linear", "linalg.kernel_basis",
    "algebra.validate_radical", "algebra.from_quiver",
    "modules.hom_basis", "modules.coords_in_basis", "modules.direct_sum",
    "modules.is_isomorphic", "modules.simple_modules",
    "resolutions.is_projective", "resolutions.projective_resolution",
    "resolutions.inj_dim", "resolutions.gl_dim",
    "approx.right_approximation", "approx.add_membership",
    "endo.endomorphism_algebra", "endo.hom_functor", "endo.verify_theorem2",
    "complexes.c_resolution", "complexes.perfect_test",
    "complexes.homotopy_hom_dim",
    "gorenstein.is_gorenstein", "gorenstein.relative_auslander",
    "gorenstein.cotilting_check",
    "workspace.load_workspace", "harness.run_task", "cli.main",
)

# Calls whose arguments are hashed by content, to count the calls that repeat
# an earlier call of the same op.
REPEAT_KEYED = ("modules.hom_basis", "resolutions.is_projective",
                "resolutions.projective_resolution",
                "endo.endomorphism_algebra")

MEMORY_SPANS = ("linalg.rref", "linalg.solve_linear", "linalg.kernel_basis",
                "modules.hom_basis", "resolutions.is_projective")


class TracerError(RuntimeError):
    """The tracer could not cover the functions it must measure."""


def _content_key(obj, seen: Dict[int, bytes]) -> bytes:
    """Digest of an argument by value: arrays by bytes, objects by fields."""
    oid = id(obj)
    if oid in seen:
        return seen[oid]
    h = hashlib.blake2b(digest_size=16)
    if isinstance(obj, np.ndarray):
        h.update(str((obj.shape, obj.dtype.str)).encode())
        h.update(np.ascontiguousarray(obj).tobytes())
    elif isinstance(obj, (list, tuple)):
        h.update(b"seq")
        for item in obj:
            h.update(_content_key(item, seen))
    elif isinstance(obj, dict):
        h.update(b"map")
        for k in sorted(obj, key=repr):
            h.update(repr(k).encode())
            h.update(_content_key(obj[k], seen))
    elif hasattr(obj, "__dict__"):
        h.update(type(obj).__name__.encode())
        for k, v in sorted(vars(obj).items()):
            if k.startswith("_"):
                continue  # lazily filled caches, not content
            h.update(k.encode())
            h.update(_content_key(v, seen))
    else:
        h.update(repr(obj).encode())
    seen[oid] = h.digest()
    return seen[oid]


class Tracer:
    """Wraps the homres layers; records spans only while ``active``."""

    def __init__(self):
        self.active = False
        self.op: Optional[str] = None
        self.spans: List[list] = []
        self.wrapped: Dict[str, object] = {}
        self.aliases: Dict[str, int] = {}
        self._reset()

    def _reset(self) -> None:
        self.spans = []
        self._stack: List[int] = []
        self._keys: Dict[str, set] = defaultdict(set)
        self._repeats: Dict[str, int] = defaultdict(int)
        self._rref_cells: List[int] = []
        self._term_dims: List[int] = []

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        """Replace every alias of every public layer function in homres.*."""
        originals = {}
        for layer in LAYERS:
            mod = sys.modules.get(f"{PACKAGE}.{layer}")
            if mod is None:
                raise TracerError(f"{PACKAGE}.{layer} is not imported")
            for attr, obj in vars(mod).items():
                name = f"{layer}.{attr}"
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_") and name not in UNSPANNED):
                    originals[obj] = name
        wrappers = {fn: self._wrap(fn, name) for fn, name in originals.items()}
        aliases: Dict[str, int] = defaultdict(int)
        namespaces = [m for n, m in list(sys.modules.items())
                      if n == PACKAGE or n.startswith(PACKAGE + ".")]
        for mod in namespaces:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(mod, attr, wrappers[obj])
                    aliases[originals[obj]] += 1
        missing = [n for n in REQUIRED if aliases.get(n, 0) == 0]
        if missing:
            raise TracerError(f"no alias replaced for {', '.join(missing)}")
        left = [f"{m.__name__}.{a}" for m in namespaces
                for a, o in vars(m).items()
                if inspect.isfunction(o) and o in wrappers]
        if left:
            raise TracerError(f"unwrapped aliases remain: {', '.join(left)}")
        self.wrapped = {name: fn for fn, name in originals.items()}
        self.aliases = dict(aliases)

    def _wrap(self, fn, name: str):
        tracer = self
        keyed = name in REPEAT_KEYED
        memory = name in MEMORY_SPANS
        observe = {"linalg.rref": Tracer._observe_rref,
                   "resolutions.projective_resolution":
                       Tracer._observe_resolution}.get(name)
        clock = time.perf_counter
        rusage = resource.getrusage
        who = resource.RUSAGE_SELF

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            if keyed:
                tracer._count_repeat(name, args, kwargs)
            spans, stack = tracer.spans, tracer._stack
            span = [len(spans), stack[-1] if stack else -1, name, 0.0, 0.0,
                    rusage(who).ru_maxrss if memory else None]
            spans.append(span)
            stack.append(span[0])
            span[3] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = clock()
                stack.pop()
                if memory:
                    span[5] = rusage(who).ru_maxrss - span[5]
            if observe is not None:
                observe(tracer, args, result)
            return result

        wrapper.__wrapped__ = fn
        for attr in ("__name__", "__qualname__", "__doc__", "__module__"):
            setattr(wrapper, attr, getattr(fn, attr))
        return wrapper

    # -- recording ------------------------------------------------------------

    def begin(self, op: str) -> None:
        self.op = op
        self._reset()
        self.active = True

    def end(self) -> None:
        self.active = False

    def _count_repeat(self, name: str, args, kwargs) -> None:
        key = _content_key((args, kwargs), {})
        if key in self._keys[name]:
            self._repeats[name] += 1
        else:
            self._keys[name].add(key)

    def _observe_rref(self, args, result) -> None:
        self._rref_cells.append(int(np.prod(np.shape(args[0]))))

    def _observe_resolution(self, args, result) -> None:
        self._term_dims.extend(t.dim for t in result.terms)

    # -- output ---------------------------------------------------------------

    def export_spans(self) -> List[list]:
        """Spans of the current op as ``[id, parent, name, start, end, op]``."""
        return [[s[0], s[1], s[2], s[3], s[4], self.op] for s in self.spans]

    def summarize(self) -> Dict[str, float]:
        """Per-layer metrics of the current op."""
        child_time = defaultdict(float)
        for s in self.spans:
            if s[1] >= 0:
                child_time[s[1]] += s[4] - s[3]
        calls = defaultdict(int)
        self_s = defaultdict(float)
        total_s = defaultdict(float)
        peak = defaultdict(int)
        layer_self = defaultdict(float)
        layer_peak = defaultdict(int)
        by_id = {s[0]: s for s in self.spans}
        for s in self.spans:
            name = s[2]
            dur = s[4] - s[3]
            own = dur - child_time[s[0]]
            calls[name] += 1
            self_s[name] += own
            layer = name.split(".", 1)[0]
            layer_self[layer] += own
            if s[5] is not None:
                peak[name] = max(peak[name], s[5])
                layer_peak[layer] = max(layer_peak[layer], s[5])
            # total time counts only the outermost call of a recursion
            anc = s[1]
            while anc >= 0 and by_id[anc][2] != name:
                anc = by_id[anc][1]
            if anc < 0:
                total_s[name] += dur
        out: Dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = layer_self[layer]
            out[f"{layer}.peak_mb"] = layer_peak[layer] / 1024
        for name in self.wrapped:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_s"] = self_s[name]
            out[f"{name}.total_s"] = total_s[name]
            out[f"{name}.peak_mb"] = peak[name] / 1024
        for name in REPEAT_KEYED:
            out[f"{name}.repeats"] = self._repeats[name]
        out["linalg.cells_eliminated"] = sum(self._rref_cells)
        out["linalg.max_system_cells"] = max(self._rref_cells, default=0)
        out["resolutions.max_term_dim"] = max(self._term_dims, default=0)
        out["trace.spans"] = len(self.spans)
        return out
