"""Gorenstein detection, Gorenstein-projective membership, the relative
Auslander algebra, and cotilting verification.

GP membership is implemented only through the Gorenstein characterization
GP = ^⊥(_AA); the complete-resolution definition is not algorithmic without a
stable-category search and is deliberately not attempted.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from . import linalg
from .algebra import Algebra, opposite, same_algebra
from .approx import AddCategory, add_membership, perp_membership, right_approximation
from .endo import EndoContext, Theorem2Report, _summand_blocks, endomorphism_algebra
from .errors import HypothesesNotSatisfied, InternalError, InvalidInput
from .modules import Module, dual_module, map_kernel, regular_module, same_module
from .resolutions import EXCEEDS_BOUND, ext_dims, gl_dim, inj_dim


@dataclass
class GorensteinReport:
    left_injdim: float
    right_injdim: float
    bound: int

    @property
    def verdict(self) -> str:
        both = (self.left_injdim != EXCEEDS_BOUND
                and self.right_injdim != EXCEEDS_BOUND)
        return "gorenstein" if both else "not-within-bound"

    @property
    def gorenstein(self) -> bool:
        return self.verdict == "gorenstein"

    @property
    def dimension(self) -> Optional[int]:
        return int(self.left_injdim) if self.gorenstein else None


def is_gorenstein(a: Algebra, bound: int) -> GorensteinReport:
    """inj.dim of the regular module on both sides, within the bound.

    When both are finite they must coincide; a mismatch is a hard invariant
    violation, not a report entry.
    """
    left = inj_dim(regular_module(a), bound)
    right = inj_dim(regular_module(opposite(a)), bound)
    if left != EXCEEDS_BOUND and right != EXCEEDS_BOUND and left != right:
        raise InternalError(
            f"finite one-sided injective dimensions differ ({left} vs {right})")
    return GorensteinReport(left_injdim=left, right_injdim=right, bound=bound)


def gp_membership(x: Module, a: Algebra, bound: int) -> bool:
    """Gorenstein-projectivity via x ∈ ^⊥(_AA), valid over Gorenstein algebras."""
    if not same_algebra(x.algebra, a):
        raise InvalidInput("module lives over a different algebra")
    rep = is_gorenstein(a, bound)
    if not rep.gorenstein:
        raise HypothesesNotSatisfied(
            "Gorenstein-projectivity test needs a Gorenstein algebra "
            "(witnessed within the bound)")
    return perp_membership(x, regular_module(a), rep.dimension)


@dataclass
class RelativeAuslanderReport:
    ctx: EndoContext
    gorenstein_dimension: int
    gldim_b: float
    gp_certified: List[bool]  # per entry: in ^⊥A, up to the Gorenstein dimension

    @property
    def projectives_relatively_injective(self) -> bool:
        """Ext¹(g, A) = 0 for every listed g.  Each entry's GP certificate
        covers Ext¹ when the Gorenstein dimension is >= 1; at 0, A is injective."""
        return all(self.gp_certified)

    @property
    def smooth(self) -> bool:
        """Finite gl.dim B: B's bounded derived module category is smooth."""
        return self.gldim_b != EXCEEDS_BOUND


def _isomorphic_pair(ctx: EndoContext) -> Optional[Tuple[int, int]]:
    """The first pair i < j of isomorphic summands of B = (End ⊕ M_i)^op.

    The summands are indecomposable, so M_i ≅ M_j iff Hom(M_i, M_j) holds a
    map outside rad B: read off B's radical, with no Hom space solved.
    """
    b = ctx.b
    source, target = _summand_blocks(np.stack([f.matrix for f in ctx.basis_maps]),
                                     [x.dim for x in ctx.category.summands])
    # column t of the projection B -> B/rad B is zero iff b_t lies in rad B
    outside = linalg.quotient_basis(b.radical, b.p)[0].any(axis=0)
    pairs = sorted((min(i, j), max(i, j))
                   for i, j in zip(source[outside], target[outside]) if i != j)
    return pairs[0] if pairs else None


def relative_auslander(a: Algebra, gp_list: List[Module], bound: int, *,
                       gorenstein: Optional[GorensteinReport] = None,
                       theorem2: Optional[Theorem2Report] = None
                       ) -> RelativeAuslanderReport:
    """B = (End ⊕ gp_list)^op for a declared complete Gorenstein-projective list.

    Witness checks: a Gorenstein within the bound; every entry GP; entries
    pairwise non-isomorphic (read off rad B); the projectives contained (the
    regular module is an add-member of the list).

    Stages computed earlier may be passed in: `gorenstein`, is_gorenstein(a,
    bound); `theorem2`, a Theorem-2 report within the same bound whose
    summands are gp_list in order, whose B and gl.dim B are then reused.
    """
    if not gp_list:
        raise InvalidInput("the Gorenstein-projective list must be nonempty")
    if gorenstein is not None and gorenstein.bound != bound:
        raise InvalidInput("the Gorenstein report was computed within another bound")
    if theorem2 is not None and (
            theorem2.bound != bound or len(theorem2.ctx.category.summands) != len(gp_list)
            or not all(map(same_module, theorem2.ctx.category.summands, gp_list))):
        raise InvalidInput("the Theorem-2 report is not on this list and bound")
    rep = gorenstein or is_gorenstein(a, bound)
    if not rep.gorenstein:
        raise HypothesesNotSatisfied("algebra is not Gorenstein within the bound")
    reg = regular_module(a)
    gp_certified = []
    for i, x in enumerate(gp_list):
        gp_certified.append(perp_membership(x, reg, rep.dimension))
        if not gp_certified[-1]:
            raise HypothesesNotSatisfied(
                f"list entry {i} is not Gorenstein-projective")
    ctx = (theorem2.ctx if theorem2 is not None
           else endomorphism_algebra(AddCategory(gp_list)))
    pair = _isomorphic_pair(ctx)
    if pair is not None:
        raise HypothesesNotSatisfied(
            f"list entries {pair[0]} and {pair[1]} are not certified pairwise "
            "non-isomorphic")
    # the listed copy of A, whose Hom spaces to the list are the category's blocks
    listed_a = next((g for g in ctx.category.summands if same_module(g, reg)), reg)
    if not add_membership(listed_a, ctx.category):
        raise HypothesesNotSatisfied(
            "the projective indecomposables are not all represented in the list")
    gldim_b = theorem2.gldim_b if theorem2 is not None else gl_dim(ctx.b, bound)
    return RelativeAuslanderReport(ctx=ctx, gorenstein_dimension=rep.dimension,
                                   gldim_b=gldim_b, gp_certified=gp_certified)


@dataclass
class CotiltingReport:
    injdim_ok: bool        # (i)  inj.dim t <= 1
    injdim: float
    ext_selforth_ok: bool  # (ii) Ext^1(t, t) = 0
    coresolution_ok: bool  # (iii) 0 -> T0 -> T1 -> D(A_A) -> 0 with Ti in add t
    surjective_approx: bool
    kernel_in_add: bool

    @property
    def cotilting(self) -> bool:
        return self.injdim_ok and self.ext_selforth_ok and self.coresolution_ok


def cotilting_check(t: Module, bound: int) -> CotiltingReport:
    """The three cotilting conditions for a module of injective dimension <= 1.

    (iii) is realized by a right add(t)-approximation T1 -> D(A_A): it must be
    surjective with kernel T0 again in add(t).
    """
    a = t.algebra
    d = inj_dim(t, bound)
    injdim_ok = d != EXCEEDS_BOUND and d <= 1
    ext_ok = ext_dims(t, t, 1).dims[1] == 0
    cogen = dual_module(regular_module(opposite(a)))  # D(A_A), a left module
    cat = AddCategory([t])
    approx = right_approximation(cogen, cat)
    surj = linalg.rank(approx.map.matrix, t.p) == cogen.dim
    if surj:
        ker, _ = map_kernel(approx.map)
        kernel_in_add = bool(add_membership(ker, cat))
    else:
        kernel_in_add = False
    return CotiltingReport(injdim_ok=injdim_ok, injdim=d,
                           ext_selforth_ok=ext_ok,
                           coresolution_ok=surj and kernel_in_add,
                           surjective_approx=surj, kernel_in_add=kernel_in_add)
