"""Task dispatch over workspace documents, plus the verification dossier.

One table maps each task command to its runner; COMMANDS is its key list.
The runners and the dossier read their arguments through one reader that
names the JSON pointer of every failure.  Every entry point returns a plain
JSON-serializable dictionary whose content depends only on the workspace, so
repeated runs are byte-identical.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from . import linalg
from .algebra import Algebra
from .approx import AddCategory, add_membership, perp_membership, right_approximation
from .complexes import (
    ChainMap, Complex, c_resolution, homology_dims, homotopy_hom_dim,
    homotopy_retraction, is_acyclic, is_c_acyclic, mapping_cone, perfect_test,
)
from .endo import Theorem2Report, endomorphism_algebra, verify_theorem2
from .errors import HypothesesNotSatisfied, NeedsFiniteInjdim
from .gorenstein import (
    GorensteinReport, RelativeAuslanderReport, cotilting_check, gp_membership,
    is_gorenstein, relative_auslander,
)
from .modules import Module, ModuleMap
from .resolutions import (
    EXCEEDS_BOUND, RESOLUTION_STRATEGIES, ext_dims, gl_dim, inj_dim, proj_dim,
    projective_resolution,
)
from .workspace import WorkspaceDocument, WorkspaceError, _field, _int_array, _located, _typed

DEFAULT_BOUND = 12


def jsonable(value):
    """Scalar normalization: numpy scalars to ints, the out-of-bound sentinel
    to the string "exceeds-bound"."""
    if value == EXCEEDS_BOUND:
        return "exceeds-bound"
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, float) and value.is_integer():
        return int(value)
    return value


class _Args:
    """Reader of one task's (or the suite's) arguments at JSON pointer ptr;
    every failure names the pointer of the argument at fault."""

    def __init__(self, ws: WorkspaceDocument, args: dict, ptr: str):
        self.ws, self.args, self.ptr = ws, args, ptr

    def at(self, key: str) -> str:
        return f"{self.ptr}/{key}"

    def algebra(self, key: str = "algebra") -> Algebra:
        return self.ws.algebra(self.args.get(key, ""), self.at(key))

    def module(self, key: str = "module") -> Module:
        return self.ws.module(self.args.get(key, ""), self.at(key))

    def complex(self, key: str = "complex") -> Complex:
        return self.ws.complex(self.args.get(key, ""), self.at(key))

    def integer(self, key: str, default: int) -> int:
        return _field(self.args, key, self.ptr, "an integer", default)

    def count(self, key: str, default: int) -> int:
        value = self.integer(key, default)
        if value < 0:
            raise WorkspaceError(self.at(key), f"expected an integer >= 0, got {value}")
        return value

    def flag(self, key: str) -> bool:
        return _field(self.args, key, self.ptr, "true or false", False)

    def names(self, key: str) -> List[str]:
        return [_typed(n, "a string", f"{self.at(key)}/{j}")
                for j, n in enumerate(_field(self.args, key, self.ptr, "a list", []))]

    def modules(self, key: str) -> List[Module]:
        return [self.ws.module(n, self.at(key)) for n in self.names(key)]

    def nonempty_modules(self, key: str, what: str) -> List[Module]:
        mods = self.modules(key)
        if not mods:
            raise WorkspaceError(self.at(key), f"{what} list must be nonempty")
        return mods

    def category(self, generator: bool = False) -> AddCategory:
        return AddCategory(self.nonempty_modules("summands", "summand"),
                           generator=generator)

    def strategy(self) -> str:
        strategy = self.args.get("strategy", "evaluation")
        if strategy not in RESOLUTION_STRATEGIES:
            raise WorkspaceError(self.at("strategy"), f"expected one of "
                                 f"{list(RESOLUTION_STRATEGIES)}, got {strategy!r}")
        return strategy

    def chain_map(self, key: str = "map") -> ChainMap:
        spec = _Args(self.ws, _field(self.args, key, self.ptr, "an object", {}),
                     self.at(key))
        src, tgt = spec.complex("source"), spec.complex("target")
        comps = {}
        for deg, mat in _field(spec.args, "components", spec.ptr, "an object", {}).items():
            with _located(spec.at(f"components/{deg}"), TypeError, ValueError):
                i = int(deg)
                comps[i] = ModuleMap(src.term(i), tgt.term(i),
                                     _int_array(mat, spec.at(f"components/{deg}")))
        return ChainMap(src, tgt, comps)


# -- report serializers, shared by the tasks and the dossier -------------------


def _theorem2_json(rep: Theorem2Report) -> dict:
    return {"injdim_t": jsonable(rep.injdim_t), "gldim_b": jsonable(rep.gldim_b),
            "b_dim": rep.b_dim, "mode": rep.mode, "verdict": rep.verdict,
            "smooth": rep.smooth}


def _gorenstein_json(rep: GorensteinReport) -> dict:
    return {"left_injdim": jsonable(rep.left_injdim),
            "right_injdim": jsonable(rep.right_injdim),
            "verdict": rep.verdict, "dimension": rep.dimension}


def _auslander_json(rep: RelativeAuslanderReport) -> dict:
    return {"b_dim": rep.ctx.b.dim, "gorenstein_dimension": rep.gorenstein_dimension,
            "gldim_b": jsonable(rep.gldim_b), "smooth": rep.smooth}


# -- one runner per task command: (arguments, bound) -> report entries ---------
# Runners call library functions by their module-global names, which is what
# an outside tracer patches.


def _gldim(arg: _Args, b: int) -> dict:
    return {"gldim": jsonable(gl_dim(arg.algebra(), b)), "bound": b}


def _injdim(arg: _Args, b: int) -> dict:
    return {"injdim": jsonable(inj_dim(arg.module(), b)), "bound": b}


def _ext(arg: _Args, b: int) -> dict:
    x, y = arg.module("source"), arg.module("target")
    return {"dims": [int(d) for d in ext_dims(x, y, arg.count("max_i", 4)).dims]}


def _resolve(arg: _Args, b: int) -> dict:
    m = arg.module()
    strategy = arg.strategy()
    res = projective_resolution(m, arg.count("length", b), strategy=strategy,
                                seed=arg.count("seed", 0))
    # res stops at the first projective syzygy, and by Schanuel whether a
    # syzygy is projective does not depend on the cover strategy: res
    # decides proj_dim(m, b) unless it stopped short of b
    if res.complete:
        projdim = res.length if res.length <= b else EXCEEDS_BOUND
    elif res.length >= b:
        projdim = EXCEEDS_BOUND
    else:
        projdim = proj_dim(m, b)
    return {"terms": [t.dim for t in res.terms], "complete": res.complete,
            "projdim": jsonable(projdim)}


def _approx(arg: _Args, b: int) -> dict:
    m = arg.module()
    ap = right_approximation(m, arg.category())
    return {"source_dim": ap.map.source.dim, "pieces": len(ap.pieces),
            "surjective": bool(linalg.rank(ap.map.matrix, m.p) == m.dim)}


def _addmem(arg: _Args, b: int) -> dict:
    m = arg.module()
    return {"member": bool(add_membership(m, arg.category()))}


def _perp(arg: _Args, b: int) -> dict:
    x, t = arg.module(), arg.module("t")
    d = inj_dim(t, b)
    if d == EXCEEDS_BOUND:
        raise NeedsFiniteInjdim(
            f"injective dimension was not witnessed finite within bound {b}")
    return {"t_injdim": int(d), "member": bool(perp_membership(x, t, int(d)))}


def _endo(arg: _Args, b: int) -> dict:
    ctx = endomorphism_algebra(arg.category())
    return {"dim_b": ctx.b.dim, "radical_rank": int(ctx.b.radical.shape[0])}


def _verify_thm2(arg: _Args, b: int) -> dict:
    a, t, cat = arg.algebra(), arg.module("t"), arg.category()
    spots = arg.modules("spot_checks")
    rep = verify_theorem2(a, t, cat, arg.count("r", 2),
                          bound=b if "bound" in arg.args else None,
                          spot_check_modules=spots or None)
    return dict(_theorem2_json(rep), r=rep.r, bound=rep.bound,
                perp_witness=rep.perp_witness, spot_checks=rep.spot_checks)


def _gorenstein(arg: _Args, b: int) -> dict:
    return dict(_gorenstein_json(is_gorenstein(arg.algebra(), b)), bound=b)


def _gp(arg: _Args, b: int) -> dict:
    m, a = arg.module(), arg.algebra()
    return {"member": bool(gp_membership(m, a, b))}


def _auslander(arg: _Args, b: int) -> dict:
    a = arg.algebra()
    gp = arg.nonempty_modules("gp_list", "Gorenstein-projective")
    return _auslander_json(relative_auslander(a, gp, b))


def _cotilting(arg: _Args, b: int) -> dict:
    rep = cotilting_check(arg.module(), b)
    return {"injdim": jsonable(rep.injdim), "injdim_ok": rep.injdim_ok,
            "ext_selforth_ok": rep.ext_selforth_ok,
            "coresolution_ok": rep.coresolution_ok, "cotilting": rep.cotilting}


def _cone(arg: _Args, b: int) -> dict:
    cone = mapping_cone(arg.chain_map())[0].trim()
    return {"lo": cone.lo, "terms": [t.dim for t in cone.terms],
            "homology": {str(i): d for i, d in sorted(homology_dims(cone).items())},
            "acyclic": is_acyclic(cone)}


def _acyclic(arg: _Args, b: int) -> dict:
    return {"acyclic": is_acyclic(arg.complex())}


def _cacyclic(arg: _Args, b: int) -> dict:
    x = arg.complex()
    return {"cacyclic": is_c_acyclic(x, arg.category())}


def _homdim(arg: _Args, b: int) -> dict:
    x, y = arg.complex(), arg.complex("complex2")
    n = arg.integer("n", 0)
    return {"n": n, "dim": homotopy_hom_dim(x, y, n)}


def _cresolve(arg: _Args, b: int) -> dict:
    x = arg.complex()
    cat = arg.category(generator=arg.flag("generator"))
    res = c_resolution(x, cat, arg.count("depth", b))
    q = res.complex.trim()
    return {"lo": q.lo, "terms": [t.dim for t in q.terms], "safe_lo": res.safe_lo,
            "complete": res.complete}


def _perfect(arg: _Args, b: int) -> dict:
    rep = perfect_test(arg.complex(), b)
    return {"status": rep.status, "truncation_degree": rep.truncation_degree}


def _retraction(arg: _Args, b: int) -> dict:
    t = arg.chain_map()
    return {"found": homotopy_retraction(t, arg.category()) is not None}


_RUNNERS = {
    "gldim": _gldim, "injdim": _injdim, "ext": _ext, "resolve": _resolve,
    "approx": _approx, "addmem": _addmem, "perp": _perp, "endo": _endo,
    "verify-thm2": _verify_thm2, "gorenstein": _gorenstein, "gp": _gp,
    "auslander": _auslander, "cotilting": _cotilting, "cone": _cone,
    "acyclic": _acyclic, "cacyclic": _cacyclic, "homdim": _homdim,
    "cresolve": _cresolve, "perfect": _perfect, "retraction": _retraction,
}
COMMANDS = tuple(_RUNNERS)


def run_task(ws: WorkspaceDocument, task: dict,
             bound: Optional[int] = None, seed: Optional[int] = None) -> dict:
    """Execute a single workspace task and return its report dictionary."""
    cmd = task.get("cmd")
    if cmd not in COMMANDS:  # a tuple: an unhashable cmd is refused, not a crash
        raise WorkspaceError("/tasks", f"unknown command {cmd!r}")
    args = dict(task)
    if bound is not None:
        args["bound"] = bound
    if seed is not None:
        args["seed"] = seed
    ptr = next((f"/tasks/{i}" for i, t in enumerate(ws.tasks) if t is task),
               "/tasks")
    arg = _Args(ws, args, ptr)
    b = arg.count("bound", DEFAULT_BOUND)
    out = {"cmd": cmd}
    if "name" in args:
        out["name"] = args["name"]
    out.update(_RUNNERS[cmd](arg, b))
    return out


def run_all(ws: WorkspaceDocument, bound: Optional[int] = None,
            seed: Optional[int] = None) -> dict:
    return {"tasks": [run_task(ws, t, bound=bound, seed=seed) for t in ws.tasks]}


def verification_suite(ws: WorkspaceDocument,
                       bound: Optional[int] = None) -> dict:
    """The full dossier for a workspace's declared (algebra, T, summands, r).

    Collects the tilting-side equivalence evidence, the base algebra's own
    homological size (the already-smooth branch when gl.dim is finite), the
    two-sided Gorenstein verdict, and — when the workspace declares a complete
    Gorenstein-projective list — the relative Auslander algebra's smoothness.
    Each stage runs once: the relative Auslander step reuses the Gorenstein
    report, and B with gl.dim B from the Theorem-2 step when gp_list names
    the summands in order.
    """
    if not ws.suite:
        raise WorkspaceError("/suite", "workspace declares no suite section")
    arg = _Args(ws, ws.suite if bound is None else dict(ws.suite, bound=bound),
                "/suite")
    a, t, cat = arg.algebra(), arg.module("t"), arg.category()
    r = arg.count("r", 2)
    b = arg.count("bound", DEFAULT_BOUND)
    # the list is read now; its modules are looked up only for a Gorenstein A
    gp_names = arg.names("gp_list")
    checks = []
    dossier = {"p": ws.p, "r": r, "bound": b}

    gldim_a = gl_dim(a, b)
    dossier["gldim_a"] = jsonable(gldim_a)
    dossier["already_smooth"] = gldim_a != EXCEEDS_BOUND
    if dossier["already_smooth"]:
        checks.append({"name": "base-already-smooth", "ok": True})

    spots = arg.modules("spot_checks")
    rep = None
    try:
        rep = verify_theorem2(a, t, cat, r, bound=b,
                              spot_check_modules=spots or None)
        dossier["equivalence"] = _theorem2_json(rep)
        checks.append({"name": "perp-witness", "ok": rep.perp_witness})
        checks.append({"name": "injdim-t-finite",
                       "ok": rep.injdim_t != EXCEEDS_BOUND})
        checks.append({"name": "equivalence-verdict", "ok": rep.verdict})
        checks.append({"name": "endomorphism-smooth", "ok": rep.smooth})
    except (HypothesesNotSatisfied, NeedsFiniteInjdim) as e:
        dossier["equivalence"] = {"status": "hypotheses-not-satisfied",
                                  "reason": str(e)}
        checks.append({"name": "equivalence-verdict", "ok": False})

    grep = is_gorenstein(a, b)
    dossier["gorenstein"] = _gorenstein_json(grep)
    checks.append({"name": "gorenstein-within-bound", "ok": grep.gorenstein})

    if grep.gorenstein and gp_names:
        gp = arg.modules("gp_list")
        same_b = gp_names == arg.names("summands")  # rep is None if withheld
        try:
            arep = relative_auslander(a, gp, b, gorenstein=grep,
                                      theorem2=rep if same_b else None)
            dossier["auslander"] = _auslander_json(arep)
            checks.append({"name": "gp-list-verified", "ok": True})
            checks.append({"name": "projectives-relatively-injective",
                           "ok": arep.projectives_relatively_injective})
            checks.append({"name": "auslander-smooth", "ok": arep.smooth})
        except (HypothesesNotSatisfied, NeedsFiniteInjdim) as e:
            dossier["auslander"] = {"status": "hypotheses-not-satisfied",
                                    "reason": str(e)}
            checks.append({"name": "gp-list-verified", "ok": False})
    else:
        dossier["auslander"] = None

    dossier["checks"] = checks
    dossier["all_green"] = all(c["ok"] for c in checks)
    return dossier
