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
    Complex,
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


def _category(ws: WorkspaceDocument, names: List[str], ptr: str,
              generator: bool = False) -> AddCategory:
    if not names:
        raise WorkspaceError(ptr, "summand list must be nonempty")
    return AddCategory([ws.module(n, ptr) for n in names], generator=generator)


def _chain_map(ws: WorkspaceDocument, spec: dict, ptr: str) -> ChainMap:
    src = ws.complex(spec.get("source", ""), f"{ptr}/source")
    tgt = ws.complex(spec.get("target", ""), f"{ptr}/target")
    comps = {}
    for key, mat in spec.get("components", {}).items():
        i = int(key)
        comps[i] = ModuleMap(src.term(i), tgt.term(i),
                             np.asarray(mat, dtype=np.int64))
    return ChainMap(src, tgt, comps)


def _finite_injdim(t: Module, bound: int) -> int:
    d = inj_dim(t, bound)
    if d == EXCEEDS_BOUND:
        raise NeedsFiniteInjdim(
            f"injective dimension was not witnessed finite within bound {bound}")
    return int(d)


def _int_arg(args: dict, key: str, default: int, ptr: str) -> int:
    value = args.get(key, default)
    try:
        return int(value)
    except (TypeError, ValueError, OverflowError):
        raise WorkspaceError(f"{ptr}/{key}",
                             f"expected an integer, got {value!r}") from None


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
        a = ws.algebra(args.get("algebra", ""), "/tasks/algebra")
        out["gldim"] = jsonable(gl_dim(a, b))
        out["bound"] = b
    elif cmd == "injdim":
        m = ws.module(args.get("module", ""), "/tasks/module")
        out["injdim"] = jsonable(inj_dim(m, b))
        out["bound"] = b
    elif cmd == "ext":
        x = ws.module(args.get("source", ""), "/tasks/source")
        y = ws.module(args.get("target", ""), "/tasks/target")
        table = ext_dims(x, y, _int_arg(args, "max_i", 4, ptr))
        out["dims"] = [int(d) for d in table.dims]
    elif cmd == "resolve":
        m = ws.module(args.get("module", ""), "/tasks/module")
        res = projective_resolution(m, _int_arg(args, "length", b, ptr),
                                    strategy=args.get("strategy", "evaluation"),
                                    seed=_int_arg(args, "seed", 0, ptr))
        out["terms"] = [t.dim for t in res.terms]
        out["complete"] = res.complete
        out["projdim"] = jsonable(proj_dim(m, b))
    elif cmd == "approx":
        m = ws.module(args.get("module", ""), "/tasks/module")
        cat = _category(ws, args.get("summands", []), "/tasks/summands")
        ap = right_approximation(m, cat)
        out["source_dim"] = ap.map.source.dim
        out["pieces"] = len(ap.pieces)
        out["surjective"] = bool(linalg.rank(ap.map.matrix, m.p) == m.dim)
    elif cmd == "addmem":
        m = ws.module(args.get("module", ""), "/tasks/module")
        cat = _category(ws, args.get("summands", []), "/tasks/summands")
        out["member"] = bool(add_membership(m, cat))
    elif cmd == "perp":
        x = ws.module(args.get("module", ""), "/tasks/module")
        t = ws.module(args.get("t", ""), "/tasks/t")
        d = _finite_injdim(t, b)
        out["t_injdim"] = d
        out["member"] = bool(perp_membership(x, t, d))
    elif cmd == "endo":
        names = args.get("summands", [])
        cat = _category(ws, names, "/tasks/summands")
        ctx = endomorphism_algebra(cat.sum_module(), summands=cat.summands)
        out["dim_b"] = ctx.b.dim
        out["radical_rank"] = int(ctx.b.radical.shape[0])
    elif cmd == "verify-thm2":
        a = ws.algebra(args.get("algebra", ""), "/tasks/algebra")
        t = ws.module(args.get("t", ""), "/tasks/t")
        cat = _category(ws, args.get("summands", []), "/tasks/summands")
        spots = [ws.module(n, "/tasks/spot_checks")
                 for n in args.get("spot_checks", [])]
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
        a = ws.algebra(args.get("algebra", ""), "/tasks/algebra")
        rep = is_gorenstein(a, b)
        out.update({
            "left_injdim": jsonable(rep.left_injdim),
            "right_injdim": jsonable(rep.right_injdim),
            "verdict": rep.verdict,
            "dimension": rep.dimension,
            "bound": b,
        })
    elif cmd == "gp":
        m = ws.module(args.get("module", ""), "/tasks/module")
        a = ws.algebra(args.get("algebra", ""), "/tasks/algebra")
        out["member"] = bool(gp_membership(m, a, b))
    elif cmd == "auslander":
        a = ws.algebra(args.get("algebra", ""), "/tasks/algebra")
        gp = [ws.module(n, "/tasks/gp_list") for n in args.get("gp_list", [])]
        rep = relative_auslander(a, gp, b)
        out.update({
            "b_dim": rep.ctx.b.dim,
            "gorenstein_dimension": rep.gorenstein_dimension,
            "gldim_b": jsonable(rep.gldim_b),
            "smooth": rep.smooth,
        })
    elif cmd == "cotilting":
        m = ws.module(args.get("module", ""), "/tasks/module")
        rep = cotilting_check(m, b)
        out.update({
            "injdim": jsonable(rep.injdim),
            "injdim_ok": rep.injdim_ok,
            "ext_selforth_ok": rep.ext_selforth_ok,
            "coresolution_ok": rep.coresolution_ok,
            "cotilting": rep.cotilting,
        })
    elif cmd == "cone":
        f = _chain_map(ws, args.get("map", {}), "/tasks/map")
        cone, _, _ = mapping_cone(f)
        cone = cone.trim()
        out["lo"] = cone.lo
        out["terms"] = [t.dim for t in cone.terms]
        out["homology"] = {str(i): d for i, d in sorted(homology_dims(cone).items())}
        out["acyclic"] = is_acyclic(cone)
    elif cmd == "acyclic":
        x = ws.complex(args.get("complex", ""), "/tasks/complex")
        out["acyclic"] = is_acyclic(x)
    elif cmd == "cacyclic":
        x = ws.complex(args.get("complex", ""), "/tasks/complex")
        cat = _category(ws, args.get("summands", []), "/tasks/summands")
        out["cacyclic"] = is_c_acyclic(x, cat)
    elif cmd == "homdim":
        x = ws.complex(args.get("complex", ""), "/tasks/complex")
        y = ws.complex(args.get("complex2", ""), "/tasks/complex2")
        out["n"] = _int_arg(args, "n", 0, ptr)
        out["dim"] = homotopy_hom_dim(x, y, out["n"])
    elif cmd == "cresolve":
        x = ws.complex(args.get("complex", ""), "/tasks/complex")
        cat = _category(ws, args.get("summands", []), "/tasks/summands",
                        generator=bool(args.get("generator", False)))
        res = c_resolution(x, cat, _int_arg(args, "depth", b, ptr))
        q = res.complex.trim()
        out["lo"] = q.lo
        out["terms"] = [t.dim for t in q.terms]
        out["safe_lo"] = res.safe_lo
        out["complete"] = res.complete
    elif cmd == "perfect":
        x = ws.complex(args.get("complex", ""), "/tasks/complex")
        rep = perfect_test(x, b)
        out["status"] = rep.status
        out["truncation_degree"] = rep.truncation_degree
    elif cmd == "retraction":
        t = _chain_map(ws, args.get("map", {}), "/tasks/map")
        cat = _category(ws, args.get("summands", []), "/tasks/summands")
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
    spec = ws.suite
    a = ws.algebra(spec.get("algebra", ""), "/suite/algebra")
    t = ws.module(spec.get("t", ""), "/suite/t")
    cat = _category(ws, spec.get("summands", []), "/suite/summands")
    r = _int_arg(spec, "r", 2, "/suite")
    b = int(bound) if bound is not None else _int_arg(spec, "bound", DEFAULT_BOUND,
                                                      "/suite")
    checks = []
    dossier = {"p": ws.p, "r": r, "bound": b}

    gldim_a = gl_dim(a, b)
    dossier["gldim_a"] = jsonable(gldim_a)
    dossier["already_smooth"] = gldim_a != EXCEEDS_BOUND
    if dossier["already_smooth"]:
        checks.append({"name": "base-already-smooth", "ok": True})

    spots = [ws.module(n, "/suite/spot_checks")
             for n in spec.get("spot_checks", [])]
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

    gp_names = spec.get("gp_list", [])
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
