"""Right add(M)-approximations and everything built from them.

add(M) is presented by an explicit list of summands (the user's candidate
indecomposables); approximations are full Hom-basis evaluations, so the
defining lifting property holds by construction and is still re-verified.
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
    hom_basis,
    identity_map,
    regular_module,
    sum_module,
)
from .resolutions import EXCEEDS_BOUND, Resolution, _resolve, ext_dims


@dataclass
class AddCategory:
    """add(M) for M = the direct sum of the declared summands."""
    summands: List[Module]
    generator: bool = False  # caller asserts _AA ∈ add(M); verified on use

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


def right_approximation(x: Module, c: AddCategory) -> Approximation:
    """Evaluation of the whole Hom basis: M_0 = ⊕_j M_j^{dim Hom(M_j, x)}.

    The lifting contract — Hom(M_j, f) surjective for every summand — is
    re-verified before returning.
    """
    if not same_algebra(x.algebra, c.algebra):
        raise InvalidInput("module and add-category live over different algebras")
    homs = [(m, hom_basis(m, x)) for m in c.summands]
    pieces = [m for m, basis in homs for _ in basis]
    piece_homs = [h for _, basis in homs for h in basis]
    matrix = np.hstack([linalg.zeros(x.dim, 0)] + [h.matrix for h in piece_homs])
    f = ModuleMap(sum_module(pieces, algebra=x.algebra), x, matrix % x.p)
    if not _lifting_holds(homs, f):
        raise InternalError("approximation lifting contract failed")
    return Approximation(f, pieces, piece_homs)


def _lifting_holds(homs, f: ModuleMap) -> bool:
    """Whether every h of every (M_j, [h, ...]) in homs factors through f:
    one Hom(M_j, f.source) and one multi-column solve per summand."""
    for m, basis in homs:
        if basis and _lifts(m, np.stack([h.matrix for h in basis]), f)[1] is None:
            return False
    return True


def _lifts(x: Module, targets: np.ndarray, f: ModuleMap):
    """(Hom(x, f.source), coords): column k of coords holds the coordinates of
    a g with f ∘ g = targets[k], or coords is None when some target does not
    factor through f."""
    space = HomSpace(x, f.source)
    cols = ((f.matrix @ space.stacked) % f.p).reshape(len(space), targets[0].size).T
    return space, linalg.solve_linear(cols, targets.reshape(len(targets), -1).T, f.p)


def _factor_through(h: ModuleMap, f: ModuleMap) -> Optional[ModuleMap]:
    """g with f ∘ g = h, or None; g is searched inside Hom(h.source, f.source)."""
    space, sol = _lifts(h.source, h.matrix[None], f)
    return None if sol is None else ModuleMap(h.source, f.source, space.combine(sol))


@dataclass
class Membership:
    """add-membership verdict with a splitting witness when true."""
    member: bool
    section: Optional[ModuleMap] = None       # s with approximation ∘ s = id
    approximation: Optional[Approximation] = None

    def __bool__(self) -> bool:
        return self.member


def add_membership(x: Module, c: AddCategory) -> Membership:
    """x ∈ add(M) iff the right approximation onto x splits."""
    if x.dim == 0:
        return Membership(True)
    approx = right_approximation(x, c)
    section = _factor_through(identity_map(x), approx.map)
    if section is None:
        return Membership(False, approximation=approx)
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
