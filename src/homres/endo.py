"""The endomorphism algebra B = (End_A M)^op and the Hom_A(M, -) functor.

B's basis is the rref-ordered hom basis of End(M); every B-side computation
inherits that ordering, so runs are bit-reproducible.  When M is given as a
direct sum of indecomposable summands, End(M) is assembled from the blocks
Hom(M_i, M_j), each solved once, and so is the radical of B (all maps
between non-isomorphic summands, the singular maps between isomorphic
ones) — this is what makes gl.dim B computable at small characteristic,
where no generic radical algorithm is available.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from . import linalg
from .algebra import Algebra, same_algebra, validate_algebra
from .approx import AddCategory, add_membership, perp_membership
from .errors import HypothesesNotSatisfied, InvalidInput, SearchExhausted
from .modules import (
    EXHAUSTIVE_CAP,
    HomSpace,
    Module,
    ModuleMap,
    _holds_isomorphism,
    _nonzero_vectors,
    _sum_hom_space,
    same_module,
    sum_module,
)
from .resolutions import EXCEEDS_BOUND, gl_dim, inj_dim


@dataclass
class EndoContext:
    m: Module
    b: Algebra
    basis_maps: List[ModuleMap]  # basis of End(M); index i <-> basis element b_i
    summands: Optional[List[Module]] = None


def _singular_hom_subspace(space: HomSpace) -> np.ndarray:
    """Rows (in Hom-basis coordinates) spanning the non-isomorphisms in
    space = Hom(x, y).

    Valid when x and y are indecomposable (local endomorphism rings), where
    the non-isomorphisms form a subspace; found by exhaustive enumeration.
    """
    h, dy, dx = space.stacked.shape
    if h == 0 or dy != dx:
        return linalg.identity(h)  # nothing invertible: the whole space
    p = space.p
    if p ** h > EXHAUSTIVE_CAP:
        raise SearchExhausted(
            "radical block needs exhaustive enumeration beyond the cap")
    singular = [c for c in _nonzero_vectors(h, p)
                if not linalg.is_invertible(space.combine(c), p)]
    rows, piv = linalg.rref(np.array(singular, dtype=np.int64).reshape(-1, h), p)
    return rows[:len(piv)]


def _radical_from_blocks(blocks: List[List[HomSpace]], end: HomSpace,
                         offs: np.ndarray) -> np.ndarray:
    """Radical of End(⊕ M_i) in basis coordinates, from the blocks
    blocks[i][j] = Hom(M_i, M_j) that end was assembled from; M_i sits at
    offset offs[i]."""
    p, dim = end.p, end.stacked.shape[1]
    maps = []
    for i, row in enumerate(blocks):
        for j, hij in enumerate(row):
            if not hij:
                continue
            h, dj, di = hij.stacked.shape
            # a summand is isomorphic to itself; for two summands of equal
            # dimension the block's Hom space decides
            if i == j or (di == dj and _holds_isomorphism(hij) is True):
                block_rows = _singular_hom_subspace(hij)
            else:
                block_rows = linalg.identity(h)
            placed = np.zeros((len(block_rows), dim, dim), dtype=np.int64)
            placed[:, offs[j]:offs[j + 1], offs[i]:offs[i + 1]] = linalg.mat_mul(
                block_rows, hij.stacked.reshape(h, dj * di), p).reshape(-1, dj, di)
            maps.append(placed)
    if not maps:
        return linalg.zeros(0, len(end))
    red, piv = linalg.rref(end.coords(np.concatenate(maps)), p)
    return red[:len(piv)]


def endomorphism_algebra(m: Module,
                         summands: Optional[List[Module]] = None) -> EndoContext:
    """(End_A m)^op as structure constants: b_i . b_j corresponds to f_j ∘ f_i.

    When the declared indecomposable summands of m are supplied (their direct
    sum must equal m on the nose), End(m) is assembled from the blocks
    Hom(M_i, M_j), rad B is derived from the block structure and validated
    as a nilpotent ideal, and B carries the summand projections ι_j∘π_j as
    its primitive idempotents.  They are primitive because each summand's
    End ring is local, the hypothesis the radical rests on too: a
    decomposable summand puts its idempotents into the derived radical, which
    then fails the nilpotency check with InvalidInput.
    """
    if m.dim == 0:
        raise InvalidInput("endomorphism algebra of the zero module is not supported")
    p = m.p
    radical = idempotents = None
    if summands is None:
        end = HomSpace(m, m)
    else:
        if not same_module(sum_module(summands), m):
            raise InvalidInput("declared summands do not sum to the module on the nose")
        blocks = [[HomSpace(x, y) for y in summands] for x in summands]
        end = _sum_hom_space(m, m, blocks)
        offs = np.cumsum([0] + [x.dim for x in summands])
        radical = _radical_from_blocks(blocks, end, offs)
        # ι_j∘π_j: the identity of block (j, j)
        ident = np.zeros((len(summands), m.dim, m.dim), dtype=np.int64)
        for j, x in enumerate(summands):
            ident[j, offs[j]:offs[j + 1], offs[j]:offs[j + 1]] = linalg.identity(x.dim)
        idempotents = end.coords(ident)
    # mult[i, j] = coordinates of f_j ∘ f_i
    mult = end.coords(linalg.mat_mul(end.stacked[None, :], end.stacked[:, None], p))
    unit = end.coords(linalg.identity(m.dim))
    b = Algebra(p=p, dim=len(end), mult=mult, unit=unit, radical=radical,
                idempotents=idempotents)
    validate_algebra(b)  # also validates rad B when it was derived
    return EndoContext(m=m, b=b, basis_maps=end.basis, summands=summands)


def hom_functor(ctx: EndoContext, x: Module) -> Module:
    """Hom_A(M, x) as a left B-module: b . φ = φ ∘ f_b (precomposition)."""
    if not same_algebra(x.algebra, ctx.m.algebra):
        raise InvalidInput("module lives over a different base algebra")
    hx = HomSpace(ctx.m, x)
    ends = np.stack([f.matrix for f in ctx.basis_maps])
    # action[i][:, c] = coordinates of phi_c ∘ f_i
    action = hx.coords(linalg.mat_mul(hx.stacked[None, :], ends[:, None], hx.p)
                       ).transpose(0, 2, 1)
    return Module(ctx.b, len(hx), action)


def hom_functor_map(ctx: EndoContext, f: ModuleMap) -> ModuleMap:
    """Hom_A(M, f): postcomposition, expressed in the chosen Hom bases."""
    hx = HomSpace(ctx.m, f.source)
    hy = HomSpace(ctx.m, f.target)
    mat = hy.coords(linalg.mat_mul(f.matrix, hx.stacked, f.p)).T
    return ModuleMap(hom_functor(ctx, f.source), hom_functor(ctx, f.target), mat)


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
        in_add = bool(add_membership(x, c))
        spot_results.append(in_perp == in_add or (in_add and in_perp))
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
