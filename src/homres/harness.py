"""Task dispatch over workspace documents, plus the verification dossier.

Every entry point returns a plain JSON-serializable dictionary whose content
depends only on the workspace, so repeated runs are byte-identical.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from . import linalg
from .approx import AddCategory, add_membership, perp_membership, right_approximation
from .complexes import (
    ChainMap,
    homology_dims,
    homotopy_hom_dim,
    homotopy_retraction,
    is_acyclic,
    is_c_acyclic,
    c_resolution,
    mapping_cone,
    perfect_test,
)
from .endo import endomorphism_algebra, verify_theorem2
from .errors import HypothesesNotSatisfied, InvalidInput, NeedsFiniteInjdim
from .gorenstein import cotilting_check, gp_membership, is_gorenstein, relative_auslander
from .modules import Module, ModuleMap, regular_module
from .resolutions import (
    EXCEEDS_BOUND,
    RESOLUTION_STRATEGIES,
    ext_dims,
    gl_dim,
    inj_dim,
    projective_resolution,
    proj_dim,
)
from .workspace import WorkspaceDocument, WorkspaceError

DEFAULT_BOUND = 12

COMMANDS = (
    "gldim", "injdim", "ext", "resolve", "approx", "addmem", "perp", "endo",
    "verify-thm2", "gorenstein", "gp", "auslander", "cotilting", "cone",
    "acyclic", "cacyclic", "homdim", "cresolve", "perfect", "retraction",
)


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


def _names(spec: dict, key: str, ptr: str) -> List[str]:
    names = spec.get(key, [])
    if not isinstance(names, list) or not all(isinstance(n, str) for n in names):
        raise WorkspaceError(f"{ptr}/{key}",
                             f"expected a list of names, got {names!r}")
    return names


def _category(ws: WorkspaceDocument, spec: dict, ptr: str,
              generator: bool = False) -> AddCategory:
    names = _names(spec, "summands", ptr)
    if not names:
        raise WorkspaceError(f"{ptr}/summands", "summand list must be nonempty")
    return AddCategory([ws.module(n, f"{ptr}/summands") for n in names],
                       generator=generator)


def _chain_map(ws: WorkspaceDocument, spec, ptr: str) -> ChainMap:
    if not isinstance(spec, dict):
        raise WorkspaceError(ptr, f"expected a chain map object, got {spec!r}")
    src = ws.complex(spec.get("source", ""), f"{ptr}/source")
    tgt = ws.complex(spec.get("target", ""), f"{ptr}/target")
    components = spec.get("components", {})
    if not isinstance(components, dict):
        raise WorkspaceError(f"{ptr}/components",
                             f"expected an object, got {components!r}")
    comps = {}
    for key, mat in components.items():
        try:
            i = int(key)
            comps[i] = ModuleMap(src.term(i), tgt.term(i),
                                 np.asarray(mat, dtype=np.int64))
        except (InvalidInput, TypeError, ValueError) as e:
            raise WorkspaceError(f"{ptr}/components/{key}", str(e)) from None
    return ChainMap(src, tgt, comps)


def _finite_injdim(t: Module, bound: int) -> int:
    d = inj_dim(t, bound)
    if d == EXCEEDS_BOUND:
        raise NeedsFiniteInjdim(
            f"injective dimension was not witnessed finite within bound {bound}")
    return int(d)


# integer task arguments that count something and so cannot be negative
_NONNEGATIVE = ("bound", "max_i", "length", "depth", "seed")


def _int_arg(args: dict, key: str, default: int, ptr: str) -> int:
    """A JSON integer argument; strings, booleans and floats are refused."""
    value = args.get(key, default)
    if isinstance(value, bool) or not isinstance(value, int):
        raise WorkspaceError(f"{ptr}/{key}",
                             f"expected an integer, got {value!r}")
    if value < 0 and key in _NONNEGATIVE:
        raise WorkspaceError(f"{ptr}/{key}", f"expected an integer >= 0, got {value}")
    return value


def run_task(ws: WorkspaceDocument, task: dict,
             bound: Optional[int] = None, seed: Optional[int] = None) -> dict:
    """Execute a single workspace task and return its report dictionary."""
    cmd = task.get("cmd")
    if cmd not in COMMANDS:
        raise WorkspaceError("/tasks", f"unknown command {cmd!r}")
    args = dict(task)
    if bound is not None:
        args["bound"] = bound
    if seed is not None:
        args["seed"] = seed
    ptr = next((f"/tasks/{i}" for i, t in enumerate(ws.tasks) if t is task),
               "/tasks")
    b = _int_arg(args, "bound", DEFAULT_BOUND, ptr)
    out = {"cmd": cmd}
    if "name" in args:
        out["name"] = args["name"]

    if cmd == "gldim":
        a = ws.algebra(args.get("algebra", ""), f"{ptr}/algebra")
        out["gldim"] = jsonable(gl_dim(a, b))
        out["bound"] = b
    elif cmd == "injdim":
        m = ws.module(args.get("module", ""), f"{ptr}/module")
        out["injdim"] = jsonable(inj_dim(m, b))
        out["bound"] = b
    elif cmd == "ext":
        x = ws.module(args.get("source", ""), f"{ptr}/source")
        y = ws.module(args.get("target", ""), f"{ptr}/target")
        table = ext_dims(x, y, _int_arg(args, "max_i", 4, ptr))
        out["dims"] = [int(d) for d in table.dims]
    elif cmd == "resolve":
        m = ws.module(args.get("module", ""), f"{ptr}/module")
        strategy = args.get("strategy", "evaluation")
        if strategy not in RESOLUTION_STRATEGIES:
            raise WorkspaceError(f"{ptr}/strategy",
                                 f"expected one of {list(RESOLUTION_STRATEGIES)}, got {strategy!r}")
        res = projective_resolution(m, _int_arg(args, "length", b, ptr),
                                    strategy=strategy,
                                    seed=_int_arg(args, "seed", 0, ptr))
        out["terms"] = [t.dim for t in res.terms]
        out["complete"] = res.complete
        # res stops at the first projective syzygy, and by Schanuel whether a
        # syzygy is projective does not depend on the cover strategy: res
        # decides proj_dim(m, b) unless it stopped short of b
        if res.complete:
            projdim = res.length if res.length <= b else EXCEEDS_BOUND
        elif res.length >= b:
            projdim = EXCEEDS_BOUND
        else:
            projdim = proj_dim(m, b)
        out["projdim"] = jsonable(projdim)
    elif cmd == "approx":
        m = ws.module(args.get("module", ""), f"{ptr}/module")
        cat = _category(ws, args, ptr)
        ap = right_approximation(m, cat)
        out["source_dim"] = ap.map.source.dim
        out["pieces"] = len(ap.pieces)
        out["surjective"] = bool(linalg.rank(ap.map.matrix, m.p) == m.dim)
    elif cmd == "addmem":
        m = ws.module(args.get("module", ""), f"{ptr}/module")
        cat = _category(ws, args, ptr)
        out["member"] = bool(add_membership(m, cat))
    elif cmd == "perp":
        x = ws.module(args.get("module", ""), f"{ptr}/module")
        t = ws.module(args.get("t", ""), f"{ptr}/t")
        d = _finite_injdim(t, b)
        out["t_injdim"] = d
        out["member"] = bool(perp_membership(x, t, d))
    elif cmd == "endo":
        cat = _category(ws, args, ptr)
        ctx = endomorphism_algebra(cat.sum_module(), summands=cat.summands)
        out["dim_b"] = ctx.b.dim
        out["radical_rank"] = int(ctx.b.radical.shape[0])
    elif cmd == "verify-thm2":
        a = ws.algebra(args.get("algebra", ""), f"{ptr}/algebra")
        t = ws.module(args.get("t", ""), f"{ptr}/t")
        cat = _category(ws, args, ptr)
        spots = [ws.module(n, f"{ptr}/spot_checks")
                 for n in _names(args, "spot_checks", ptr)]
        rep = verify_theorem2(a, t, cat, _int_arg(args, "r", 2, ptr),
                              bound=b if "bound" in args else None,
                              spot_check_modules=spots or None)
        out.update({
            "r": rep.r, "bound": rep.bound,
            "injdim_t": jsonable(rep.injdim_t),
            "gldim_b": jsonable(rep.gldim_b),
            "perp_witness": rep.perp_witness,
            "spot_checks": rep.spot_checks,
            "mode": rep.mode, "verdict": rep.verdict,
            "b_dim": rep.b_dim, "smooth": rep.smooth,
        })
    elif cmd == "gorenstein":
        a = ws.algebra(args.get("algebra", ""), f"{ptr}/algebra")
        rep = is_gorenstein(a, b)
        out.update({
            "left_injdim": jsonable(rep.left_injdim),
            "right_injdim": jsonable(rep.right_injdim),
            "verdict": rep.verdict,
            "dimension": rep.dimension,
            "bound": b,
        })
    elif cmd == "gp":
        m = ws.module(args.get("module", ""), f"{ptr}/module")
        a = ws.algebra(args.get("algebra", ""), f"{ptr}/algebra")
        out["member"] = bool(gp_membership(m, a, b))
    elif cmd == "auslander":
        a = ws.algebra(args.get("algebra", ""), f"{ptr}/algebra")
        gp = [ws.module(n, f"{ptr}/gp_list") for n in _names(args, "gp_list", ptr)]
        rep = relative_auslander(a, gp, b)
        out.update({
            "b_dim": rep.ctx.b.dim,
            "gorenstein_dimension": rep.gorenstein_dimension,
            "gldim_b": jsonable(rep.gldim_b),
            "smooth": rep.smooth,
        })
    elif cmd == "cotilting":
        m = ws.module(args.get("module", ""), f"{ptr}/module")
        rep = cotilting_check(m, b)
        out.update({
            "injdim": jsonable(rep.injdim),
            "injdim_ok": rep.injdim_ok,
            "ext_selforth_ok": rep.ext_selforth_ok,
            "coresolution_ok": rep.coresolution_ok,
            "cotilting": rep.cotilting,
        })
    elif cmd == "cone":
        f = _chain_map(ws, args.get("map", {}), f"{ptr}/map")
        cone, _, _ = mapping_cone(f)
        cone = cone.trim()
        out["lo"] = cone.lo
        out["terms"] = [t.dim for t in cone.terms]
        out["homology"] = {str(i): d for i, d in sorted(homology_dims(cone).items())}
        out["acyclic"] = is_acyclic(cone)
    elif cmd == "acyclic":
        x = ws.complex(args.get("complex", ""), f"{ptr}/complex")
        out["acyclic"] = is_acyclic(x)
    elif cmd == "cacyclic":
        x = ws.complex(args.get("complex", ""), f"{ptr}/complex")
        cat = _category(ws, args, ptr)
        out["cacyclic"] = is_c_acyclic(x, cat)
    elif cmd == "homdim":
        x = ws.complex(args.get("complex", ""), f"{ptr}/complex")
        y = ws.complex(args.get("complex2", ""), f"{ptr}/complex2")
        out["n"] = _int_arg(args, "n", 0, ptr)
        out["dim"] = homotopy_hom_dim(x, y, out["n"])
    elif cmd == "cresolve":
        x = ws.complex(args.get("complex", ""), f"{ptr}/complex")
        generator = args.get("generator", False)
        if not isinstance(generator, bool):
            raise WorkspaceError(f"{ptr}/generator",
                                 f"expected true or false, got {generator!r}")
        cat = _category(ws, args, ptr, generator=generator)
        res = c_resolution(x, cat, _int_arg(args, "depth", b, ptr))
        q = res.complex.trim()
        out["lo"] = q.lo
        out["terms"] = [t.dim for t in q.terms]
        out["safe_lo"] = res.safe_lo
        out["complete"] = res.complete
    elif cmd == "perfect":
        x = ws.complex(args.get("complex", ""), f"{ptr}/complex")
        rep = perfect_test(x, b)
        out["status"] = rep.status
        out["truncation_degree"] = rep.truncation_degree
    elif cmd == "retraction":
        t = _chain_map(ws, args.get("map", {}), f"{ptr}/map")
        cat = _category(ws, args, ptr)
        out["found"] = homotopy_retraction(t, cat) is not None
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
    """
    if not ws.suite:
        raise WorkspaceError("/suite", "workspace declares no suite section")
    spec = ws.suite if bound is None else dict(ws.suite, bound=bound)
    a = ws.algebra(spec.get("algebra", ""), "/suite/algebra")
    t = ws.module(spec.get("t", ""), "/suite/t")
    cat = _category(ws, spec, "/suite")
    r = _int_arg(spec, "r", 2, "/suite")
    b = _int_arg(spec, "bound", DEFAULT_BOUND, "/suite")
    checks = []
    dossier = {"p": ws.p, "r": r, "bound": b}

    gldim_a = gl_dim(a, b)
    dossier["gldim_a"] = jsonable(gldim_a)
    dossier["already_smooth"] = gldim_a != EXCEEDS_BOUND
    if dossier["already_smooth"]:
        checks.append({"name": "base-already-smooth", "ok": True})

    spots = [ws.module(n, "/suite/spot_checks")
             for n in _names(spec, "spot_checks", "/suite")]
    try:
        rep = verify_theorem2(a, t, cat, r, bound=b,
                              spot_check_modules=spots or None)
        dossier["equivalence"] = {
            "injdim_t": jsonable(rep.injdim_t),
            "gldim_b": jsonable(rep.gldim_b),
            "b_dim": rep.b_dim,
            "mode": rep.mode,
            "verdict": rep.verdict,
            "smooth": rep.smooth,
        }
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
    dossier["gorenstein"] = {
        "left_injdim": jsonable(grep.left_injdim),
        "right_injdim": jsonable(grep.right_injdim),
        "verdict": grep.verdict,
        "dimension": grep.dimension,
    }
    checks.append({"name": "gorenstein-within-bound", "ok": grep.gorenstein})

    gp_names = _names(spec, "gp_list", "/suite")
    if grep.gorenstein and gp_names:
        gp = [ws.module(n, "/suite/gp_list") for n in gp_names]
        try:
            arep = relative_auslander(a, gp, b)
            reg = regular_module(a)
            rel_inj = all(ext_dims(g, reg, 1).dims[1] == 0 for g in gp)
            dossier["auslander"] = {
                "b_dim": arep.ctx.b.dim,
                "gorenstein_dimension": arep.gorenstein_dimension,
                "gldim_b": jsonable(arep.gldim_b),
                "smooth": arep.smooth,
            }
            checks.append({"name": "gp-list-verified", "ok": True})
            checks.append({"name": "projectives-relatively-injective",
                           "ok": rel_inj})
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
