"""Right add(M)-approximations and everything built from them.

add(M) is presented by an explicit list of summands (the user's candidate
indecomposables).  Approximations are full Hom-basis evaluations built from
the small spaces Hom(M_j, x): the lifting property holds by construction and
is re-verified on explicit lifts, the inclusion of each summand copy into the
source.  Add-membership solves its section over the spaces Hom(x, M_j) by
the one joint solve over Hom spaces, modules._solve_joint; no Hom space into
the approximation source is ever solved.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from . import linalg
from .algebra import same_algebra
from .errors import InvalidInput, InternalError, NeedsFiniteInjdim, NotAGenerator
from .modules import (
    HomSpace,
    Module,
    ModuleMap,
    _solve_joint,
    regular_module,
    sum_module,
)
from .resolutions import EXCEEDS_BOUND, Resolution, _resolve, ext_dims


@dataclass
class AddCategory:
    """add(M) for M = the direct sum of the declared summands."""
    summands: List[Module]
    # the caller's claim that _AA ∈ add(M); recorded only, nothing reads it
    generator: bool = False

    def __post_init__(self):
        if not self.summands:
            raise InvalidInput("an add-category needs at least one summand")
        a = self.summands[0].algebra
        for s in self.summands:
            if not same_algebra(s.algebra, a):
                raise InvalidInput("add-category summands live over different algebras")
            if s.dim == 0:
                raise InvalidInput("add-category summands must be nonzero")
        self.algebra = a

    def sum_module(self) -> Module:
        return sum_module(self.summands)


@dataclass
class Approximation:
    """f: source -> x with source a named direct sum of add-category summands."""
    map: ModuleMap
    pieces: List[Module]        # the summand copies, in order
    piece_homs: List[ModuleMap]  # the Hom-basis element each copy evaluates


def _summand_homs(x: Module, c: AddCategory, blocks: Optional[List[List[HomSpace]]],
                  into: bool) -> List[HomSpace]:
    """Hom(M_j, x) (into) or Hom(x, M_j) for every summand M_j, in order.

    blocks, when given, is the table blocks[i][j] = HomSpace(M_i, M_j) of the
    summands of c, as EndoContext keeps it; when x is the summand M_i itself,
    the spaces are read from its row or column and nothing is solved.
    """
    ms = c.summands
    if blocks is not None:
        shapes = [[space.stacked.shape[1:] for space in row] for row in blocks]
        if shapes != [[(y.dim, m.dim) for y in ms] for m in ms]:
            raise InvalidInput("the Hom block table does not match the add-category")
    i = next((i for i, m in enumerate(ms) if m is x), None)
    if blocks is None or i is None:
        return [HomSpace(m, x) if into else HomSpace(x, m) for m in ms]
    return [blocks[j][i] if into else blocks[i][j] for j in range(len(ms))]


def right_approximation(x: Module, c: AddCategory,
                        blocks: Optional[List[List[HomSpace]]] = None) -> Approximation:
    """Evaluation of the whole Hom basis: M_0 = ⊕_j M_j^{dim Hom(M_j, x)}.

    The lifting contract, Hom(M_j, f) surjective for every summand, is
    re-verified before returning on its witnesses (_lifts_witnessed).
    blocks: see _summand_homs.
    """
    if not same_algebra(x.algebra, c.algebra):
        raise InvalidInput("module and add-category live over different algebras")
    spaces = _summand_homs(x, c, blocks, into=True)
    pieces = [m for m, space in zip(c.summands, spaces) for _ in space.basis]
    piece_homs = [h for space in spaces for h in space.basis]
    matrix = np.hstack([linalg.zeros(x.dim, 0)] + [h.matrix for h in piece_homs])
    f = ModuleMap(sum_module(pieces, algebra=x.algebra), x, matrix % x.p)
    if not _lifts_witnessed(f, pieces, piece_homs):
        raise InternalError("approximation lifting contract failed")
    return Approximation(f, pieces, piece_homs)


def _lifts_witnessed(f: ModuleMap, pieces: List[Module],
                     piece_homs: List[ModuleMap]) -> bool:
    """Whether f ∘ ι_k = h_k for the inclusion ι_k of every piece k.

    The h_k of a summand M_j span Hom(M_j, x), so every map M_j -> x is a
    combination of them and factors through f: the lifting contract.  ι_k,
    the identity on rows and columns [off, off + dim M_j) of M_0, is a map
    iff M_0 acts on those columns by M_j's action inside the rows and by 0
    outside them; f ∘ ι_k is the same column block of f.
    """
    action, off = f.source.action, 0
    for m, h in zip(pieces, piece_homs):
        cols = slice(off, off + m.dim)
        off += m.dim
        inside = np.array_equal(action[:, cols, cols], m.action)
        outside = (not action[:, :cols.start, cols].any()
                   and not action[:, cols.stop:, cols].any())
        if not (inside and outside and np.array_equal(f.matrix[:, cols], h.matrix)):
            return False
    return True


@dataclass
class Membership:
    """add-membership verdict with a splitting witness when true."""
    member: bool
    section: Optional[ModuleMap] = None       # s with approximation ∘ s = id
    approximation: Optional[Approximation] = None

    def __bool__(self) -> bool:
        return self.member


def add_membership(x: Module, c: AddCategory,
                   blocks: Optional[List[List[HomSpace]]] = None) -> Membership:
    """x ∈ add(M) iff the right approximation f onto x splits.

    The section s is solved over the blocks by _solve_joint: one unknown s_k
    in Hom(x, M_j) for each piece k, a copy of M_j, in piece order (the
    basis order of Hom(x, M_0)), with sum_k h_k ∘ s_k = id_x.  blocks: see
    _summand_homs.
    """
    if x.dim == 0:
        return Membership(True)
    approx = right_approximation(x, c, blocks)
    # Hom(x, M_j) of the summand each piece copies
    out = {id(m): space for m, space in
           zip(c.summands, _summand_homs(x, c, blocks, into=False))}
    spaces = [out[id(m)] for m in approx.pieces]
    sol = _solve_joint(dict(enumerate(spaces)),
                       [([(k, h.matrix, None) for k, h in enumerate(approx.piece_homs)],
                         linalg.identity(x.dim))], x.p)
    if sol is None:
        return Membership(False, approximation=approx)
    matrix = np.concatenate([linalg.zeros(0, x.dim)] + list(sol.values()))
    section = ModuleMap(x, approx.map.source, matrix)
    return Membership(True, section=section, approximation=approx)


def addM_resolution(x: Module, c: AddCategory, length: int) -> Resolution:
    """Exact sequence M_L -> ... -> M_0 -> x -> 0 with terms in add(M).

    Each step approximates the previous kernel; a non-surjective step means M
    is not a generator and raises NotAGenerator.  The resolution completes
    early when a kernel itself lies in add(M): it becomes the final term.
    """
    def cover(y: Module) -> Optional[ModuleMap]:
        member = add_membership(y, c)
        if member:
            return None
        f = member.approximation.map
        if linalg.rank(f.matrix, y.p) != y.dim:
            raise NotAGenerator("right approximation is not surjective")
        return f

    return _resolve(x, length, "addM", cover)


def perp_membership(x: Module, t: Module, t_injdim: int) -> bool:
    """x ∈ ^⊥t: Ext^i(x, t) = 0 for 1 <= i <= t_injdim.

    Vanishing above the injective dimension is automatic, so the finite
    witness t_injdim makes the a-priori-infinite condition decidable.
    """
    if t_injdim is None or t_injdim == EXCEEDS_BOUND or t_injdim < 0:
        raise NeedsFiniteInjdim("perp membership needs a finite inj.dim witness")
    if t_injdim == 0:
        return True
    dims = ext_dims(x, t, t_injdim).dims
    return all(d == 0 for d in dims[1:])


@dataclass
class AuslanderBridgerReport:
    kernel1_in_add: bool
    kernel2_in_add: bool
    projectives_resolved: bool

    @property
    def agree(self) -> bool:
        return self.kernel1_in_add == self.kernel2_in_add


def auslander_bridger_check(res1: Resolution, res2: Resolution,
                            c: AddCategory, n: int) -> AuslanderBridgerReport:
    """n-th kernels of two add(M)-coefficient resolutions of the same module
    are add(M)-members together or not at all; disagreement is surfaced loudly.

    Preconditions checked here: shared target, terms 0..n-1 in add(M), and
    add(M) resolving in the tested instance (the regular module is a member).
    """
    from .modules import same_module
    if not same_module(res1.target, res2.target):
        raise InvalidInput("the two resolutions resolve different modules")
    if n < 1 or n > len(res1.maps) or n > len(res2.maps):
        raise InvalidInput(f"degree {n} not covered by both resolutions")
    for res in (res1, res2):
        for i in range(min(n, len(res.terms))):
            if not add_membership(res.terms[i], c):
                raise InvalidInput(f"resolution term {i} is not an add(M)-member")
    resolving = bool(add_membership(regular_module(c.algebra), c))
    if not resolving:
        raise InvalidInput("add(M) does not contain the projectives; hypotheses fail")
    k1 = res1.syzygy(n)
    k2 = res2.syzygy(n)
    m1 = bool(add_membership(k1, c))
    m2 = bool(add_membership(k2, c))
    report = AuslanderBridgerReport(m1, m2, resolving)
    if not report.agree:
        raise InternalError(
            "kernel add-membership verdicts disagree; invariance violated")
    return report
