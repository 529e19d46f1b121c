"""The endomorphism algebra B = (End_A M)^op and the Hom_A(M, -) functor.

B's basis is the rref-ordered hom basis of End(M); every B-side computation
inherits that ordering, so runs are bit-reproducible.  When M is given as a
direct sum of indecomposable summands, End(M) is assembled from the blocks
Hom(M_i, M_j), each solved once, and rad B is algebra._radical_rows on B's
table, the one exact radical at every supported prime.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from . import linalg
from .algebra import (
    Algebra, _p_power_at_least, _radical_rows, same_algebra, validate_algebra,
)
from .approx import AddCategory, add_membership, perp_membership
from .errors import HypothesesNotSatisfied, InvalidInput
from .modules import (
    HomSpace, Module, ModuleMap, _local_radical, _sum_hom_space, same_module, sum_module,
)
from .resolutions import EXCEEDS_BOUND, gl_dim, inj_dim


@dataclass
class EndoContext:
    m: Module
    b: Algebra
    basis_maps: List[ModuleMap]  # basis of End(M); index i <-> basis element b_i
    summands: Optional[List[Module]] = None
    # blocks[i][j] = Hom(summands[i], summands[j]), the spaces B was built from
    blocks: Optional[List[List[HomSpace]]] = None


def _not_local() -> InvalidInput:
    return InvalidInput("a declared summand is not indecomposable: "
                        "its End ring is not local")


def _summand_blocks(maps: np.ndarray, dims: List[int]) -> Tuple[np.ndarray, np.ndarray]:
    """The arrays of i and of j for a stack of nonzero maps of ⊕ M_k that
    each lie in one block Hom(M_i, M_j), as End(⊕ M_k)'s basis maps do;
    dims[k] = dim M_k."""
    ends = np.cumsum(dims)
    rows, cols = np.divmod(np.argmax(maps.reshape(len(maps), -1) != 0, axis=1),
                           maps.shape[2])
    return (np.searchsorted(ends, cols, side="right"),
            np.searchsorted(ends, rows, side="right"))


def endomorphism_algebra(m: Module,
                         summands: Optional[List[Module]] = None) -> EndoContext:
    """(End_A m)^op as structure constants: b_i . b_j corresponds to f_j ∘ f_i.

    When the declared indecomposable summands of m are supplied (their direct
    sum must equal m on the nose), End(m) is assembled from the blocks
    Hom(M_i, M_j), rad B is derived by _radical_rows and validated as a
    nilpotent ideal, and B carries the summand projections ι_j∘π_j as its
    idempotents.  They are primitive because every summand's End ring is
    local, which _local_radical certifies at every prime; a decomposable
    summand is refused with InvalidInput.
    """
    if m.dim == 0:
        raise InvalidInput("endomorphism algebra of the zero module is not supported")
    p = m.p
    radical = idempotents = blocks = None
    if summands is None:
        end = HomSpace(m, m)
    else:
        if not same_module(sum_module(summands), m):
            raise InvalidInput("declared summands do not sum to the module on the nose")
        blocks = [[HomSpace(x, y) for y in summands] for x in summands]
        end = _sum_hom_space(m, m, blocks)
        # refuses a summand that is not local before the table below is built
        if any(_local_radical(row[i]) is None for i, row in enumerate(blocks)):
            raise _not_local()
        offs = np.cumsum([0] + [x.dim for x in summands])
        # ι_j∘π_j: the identity of block (j, j)
        ident = np.zeros((len(summands), m.dim, m.dim), dtype=np.int64)
        for j, x in enumerate(summands):
            ident[j, offs[j]:offs[j + 1], offs[j]:offs[j + 1]] = linalg.identity(x.dim)
        idempotents = end.coords(ident)
    # mult[i, j] = coordinates of f_j ∘ f_i
    mult = end.coords(end.compose(right=end.stacked[:, None]))
    if summands is not None:
        powers = linalg.mat_pow(end.stacked, _p_power_at_least(p, m.dim), p)
        radical = _radical_rows(mult, end.coords(powers), p)
    unit = end.coords(linalg.identity(m.dim))
    b = Algebra(p=p, dim=len(end), mult=mult, unit=unit, radical=radical,
                idempotents=idempotents)
    validate_algebra(b)  # also validates rad B when it was derived
    return EndoContext(m=m, b=b, basis_maps=end.basis, summands=summands,
                       blocks=blocks)


def hom_functor(ctx: EndoContext, x: Module) -> Module:
    """Hom_A(M, x) as a left B-module: b . φ = φ ∘ f_b (precomposition)."""
    if not same_algebra(x.algebra, ctx.m.algebra):
        raise InvalidInput("module lives over a different base algebra")
    hx = HomSpace(ctx.m, x)
    ends = np.stack([f.matrix for f in ctx.basis_maps])
    # action[i][:, c] = coordinates of phi_c ∘ f_i
    return Module(ctx.b, len(hx), hx.induced(hx, right=ends[:, None]))


def hom_functor_map(ctx: EndoContext, f: ModuleMap) -> ModuleMap:
    """Hom_A(M, f): postcomposition, expressed in the chosen Hom bases."""
    hx, hy = HomSpace(ctx.m, f.source), HomSpace(ctx.m, f.target)
    return ModuleMap(hom_functor(ctx, f.source), hom_functor(ctx, f.target),
                     hy.induced(hx, left=f.matrix))


@dataclass
class Theorem2Report:
    """Outcome of the inj.dim T <= r  <=>  gl.dim B <= r verification."""
    r: int
    bound: int
    injdim_t: float
    gldim_b: float
    perp_witness: bool
    spot_checks: List[bool]
    mode: str        # "biconditional" | "one-directional"
    verdict: bool    # the claimed equivalence/implication held
    b_dim: int
    ctx: EndoContext  # B, so a later stage on the same summands can reuse it

    @property
    def smooth(self) -> bool:
        """Finite gl.dim B: the derived category of B is smooth at module level."""
        return self.gldim_b != EXCEEDS_BOUND


def verify_theorem2(a: Algebra, t: Module, c: AddCategory, r: int,
                    bound: Optional[int] = None,
                    spot_check_modules: Optional[List[Module]] = None) -> Theorem2Report:
    """Check inj.dim t <= r  <=>  gl.dim B <= r for B = (End ⊕ summands)^op.

    Hypotheses verified first: every summand of M lies in ^⊥t (exactly), and
    each supplied spot-check module of ^⊥t passes add-membership in add M.
    For r <= 1 only the direction gl.dim B <= r ⇒ inj.dim t <= r is endorsed.
    """
    if not same_algebra(t.algebra, a) or not same_algebra(c.algebra, a):
        raise InvalidInput("theorem inputs live over different algebras")
    if r < 0:
        raise InvalidInput(f"r must be >= 0, got {r}")
    m_sum = sum_module(c.summands)
    ctx = endomorphism_algebra(m_sum, summands=c.summands)
    if bound is None:
        bound = max(2 * r, a.dim + ctx.b.dim)
    injdim_t = inj_dim(t, bound)
    if injdim_t == EXCEEDS_BOUND:
        raise HypothesesNotSatisfied(
            f"inj.dim of t exceeds the bound {bound}; the standing finiteness "
            "hypothesis could not be witnessed")
    perp_witness = all(perp_membership(s, t, int(injdim_t)) for s in c.summands)
    if not perp_witness:
        raise HypothesesNotSatisfied(
            "some summand of M falls outside ^⊥t; verdict withheld")
    spot_results = []
    for x in (spot_check_modules or []):
        in_perp = perp_membership(x, t, int(injdim_t))
        in_add = bool(add_membership(x, c, blocks=ctx.blocks))
        spot_results.append(in_perp == in_add)
        if in_perp and not in_add:
            raise HypothesesNotSatisfied(
                "a spot-check module lies in ^⊥t but not in add M; "
                "the ^⊥t = add M hypothesis fails on the evidence")
    gldim_b = gl_dim(ctx.b, bound)
    if r >= 2:
        mode = "biconditional"
        verdict = (injdim_t <= r) == (gldim_b != EXCEEDS_BOUND and gldim_b <= r)
    else:
        mode = "one-directional"
        holds_b = gldim_b != EXCEEDS_BOUND and gldim_b <= r
        verdict = (not holds_b) or (injdim_t <= r)
    return Theorem2Report(r=r, bound=bound, injdim_t=injdim_t, gldim_b=gldim_b,
                          perp_witness=perp_witness, spot_checks=spot_results,
                          mode=mode, verdict=verdict, b_dim=ctx.b.dim, ctx=ctx)
