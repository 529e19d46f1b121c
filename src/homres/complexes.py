"""Bounded cochain complexes, chain maps, cones, and relative resolutions.

Complexes are cohomological with ascending differentials d^i: X^i -> X^{i+1}
and an explicit support window [lo, hi]; terms are zero outside.  Unbounded
objects are represented by truncations at a caller-chosen depth together with
a "safe window" of degrees in which answers are exact.

Cone convention: Cone(g: P -> Q)^i = P^{i+1} ⊕ Q^i with differential
[[-d_P, 0], [g, d_Q]].
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from . import linalg
from .algebra import Algebra, same_algebra
from .approx import AddCategory, addM_resolution, add_membership
from .errors import HypothesesNotSatisfied, InternalError, InvalidInput
from .modules import (
    HomSpace,
    Module,
    ModuleMap,
    _solve_joint,
    identity_map,
    module_image,
    regular_module,
    same_module,
    sum_module,
    zero_map,
    zero_module,
)
from .resolutions import _cohomology, ext_dims, is_projective


@dataclass(eq=False)
class Complex:
    algebra: Algebra
    lo: int
    terms: List[Module]        # degrees lo .. lo + len - 1
    diffs: List[ModuleMap]     # diffs[i]: terms[i] -> terms[i+1]

    def __post_init__(self):
        if not self.terms:
            self.terms = [zero_module(self.algebra)]
        if len(self.diffs) != len(self.terms) - 1:
            raise InvalidInput("a complex on n terms needs n - 1 differentials")
        for t in self.terms:
            if not same_algebra(t.algebra, self.algebra):
                raise InvalidInput("complex terms live over different algebras")
        for i, d in enumerate(self.diffs):
            if d.source is not self.terms[i] and not same_module(d.source, self.terms[i]):
                raise InvalidInput(f"differential {i} has the wrong source")
            if d.target is not self.terms[i + 1] and not same_module(d.target, self.terms[i + 1]):
                raise InvalidInput(f"differential {i} has the wrong target")
        for i in range(len(self.diffs) - 1):
            comp = self.diffs[i + 1].compose(self.diffs[i])
            if np.any(comp.matrix):
                raise InvalidInput(f"d o d != 0 between degrees {self.lo + i} and {self.lo + i + 2}")

    @property
    def hi(self) -> int:
        return self.lo + len(self.terms) - 1

    def term(self, i: int) -> Module:
        if self.lo <= i <= self.hi:
            return self.terms[i - self.lo]
        return zero_module(self.algebra)

    def diff(self, i: int) -> ModuleMap:
        if self.lo <= i < self.hi:
            return self.diffs[i - self.lo]
        return zero_map(self.term(i), self.term(i + 1))

    def trim(self) -> "Complex":
        """Drop zero terms at both ends of the window."""
        lo, hi = self.lo, self.hi
        while lo < hi and self.term(lo).dim == 0:
            lo += 1
        while hi > lo and self.term(hi).dim == 0:
            hi -= 1
        if lo == self.lo and hi == self.hi:
            return self
        terms = [self.term(i) for i in range(lo, hi + 1)]
        diffs = [self.diff(i) for i in range(lo, hi)]
        return Complex(self.algebra, lo, terms, diffs)

    def total_dim(self) -> int:
        return sum(t.dim for t in self.terms)


def stalk(m: Module, degree: int = 0) -> Complex:
    return Complex(m.algebra, degree, [m], [])


def shift(x: Complex, n: int) -> Complex:
    """X[n]^i = X^{n+i} with differentials scaled by (-1)^n."""
    sign = 1 if n % 2 == 0 else -1
    diffs = [ModuleMap(d.source, d.target, (sign * d.matrix) % x.algebra.p)
             for d in x.diffs]
    return Complex(x.algebra, x.lo - n, list(x.terms), diffs)


@dataclass(eq=False)
class ChainMap:
    source: Complex
    target: Complex
    components: Dict[int, ModuleMap]  # degree -> map source.term(i) -> target.term(i)

    def __post_init__(self):
        for i, f in self.components.items():
            if f.source.dim != self.source.term(i).dim or f.target.dim != self.target.term(i).dim:
                raise InvalidInput(f"component {i} has the wrong shape")
        for i in range(min(self.source.lo, self.target.lo) - 1,
                       max(self.source.hi, self.target.hi) + 1):
            lhs = self.component(i + 1).compose(self.source.diff(i))
            rhs = self.target.diff(i).compose(self.component(i))
            if not np.array_equal(lhs.matrix, rhs.matrix):
                raise InvalidInput(f"chain map does not commute with d at degree {i}")

    def component(self, i: int) -> ModuleMap:
        if i in self.components:
            return self.components[i]
        return zero_map(self.source.term(i), self.target.term(i))


@dataclass(eq=False)
class Homotopy:
    """s^i: X^i -> Y^{i-1}, witnessing f - g = d_Y s + s d_X."""
    source: Complex
    target: Complex
    components: Dict[int, ModuleMap]

    def component(self, i: int) -> ModuleMap:
        if i in self.components:
            return self.components[i]
        return zero_map(self.source.term(i), self.target.term(i - 1))


def identity_chain_map(x: Complex) -> ChainMap:
    return ChainMap(x, x, {i: identity_map(x.term(i)) for i in range(x.lo, x.hi + 1)})


def mapping_cone(f: ChainMap) -> Tuple[Complex, ChainMap, ChainMap]:
    """Cone(f) with the canonical triangle maps Y -> Cone and Cone -> X[1]."""
    x, y = f.source, f.target
    a = x.algebra
    lo = min(x.lo - 1, y.lo)
    hi = max(x.hi - 1, y.hi)
    terms = [sum_module([x.term(i + 1), y.term(i)], algebra=a) for i in range(lo, hi + 1)]
    diffs = [ModuleMap(terms[i - lo], terms[i + 1 - lo], np.block([
        [-x.diff(i + 1).matrix, linalg.zeros(x.term(i + 2).dim, y.term(i).dim)],
        [f.component(i + 1).matrix, y.diff(i).matrix]])) for i in range(lo, hi)]
    cone = Complex(a, lo, terms, diffs)
    inj = ChainMap(y, cone, {i: ModuleMap(y.term(i), cone.term(i),
                                          linalg.identity(cone.term(i).dim)[:, x.term(i + 1).dim:])
                             for i in range(lo, hi + 1)})
    x1 = shift(x, 1)
    proj = ChainMap(cone, x1, {i: ModuleMap(cone.term(i), x1.term(i),
                                            linalg.identity(cone.term(i).dim)[:x1.term(i).dim])
                               for i in range(lo, hi + 1)})
    return cone, inj, proj


def homology_dims(x: Complex) -> Dict[int, int]:
    dims = _cohomology([t.dim for t in x.terms], [d.matrix for d in x.diffs],
                       x.algebra.p)
    return dict(zip(range(x.lo, x.hi + 1), dims))


def is_acyclic(x: Complex) -> bool:
    return all(d == 0 for d in homology_dims(x).values())


def is_c_acyclic(x: Complex, c: AddCategory, lo_check: Optional[int] = None) -> bool:
    """Hom(M_j, x) acyclic for every summand M_j, in degrees >= lo_check.

    The Hom complex is read in Hom-space coordinates: δ^i = Hom(M_j, d^i).
    """
    if not same_algebra(x.algebra, c.algebra):
        raise InvalidInput("complex and add-category live over different algebras")
    first = 0 if lo_check is None else max(lo_check - x.lo, 0)
    for m in c.summands:
        spaces = [HomSpace(m, t) for t in x.terms]
        deltas = [spaces[i + 1].induced(spaces[i], left=d.matrix)
                  for i, d in enumerate(x.diffs)]
        if any(_cohomology([len(h) for h in spaces], deltas, x.algebra.p)[first:]):
            return False
    return True


def homotopy_hom_dim(x: Complex, y: Complex, n: int) -> int:
    """dim Hom_{K(A)}(x, y[n]) = dim H^n of the Hom complex.

    Hom^m = ⊕_i Hom_A(X^i, Y^{i+m}); (δf)^i = d_Y f^i - (-1)^m f^{i+1} d_X^i.
    """
    if not same_algebra(x.algebra, y.algebra):
        raise InvalidInput("complexes live over different algebras")
    p = x.algebra.p

    def hom_layer(m: int):
        return {i: HomSpace(x.term(i), y.term(i + m))
                for i in range(x.lo, x.hi + 1)}

    def delta_matrix(m: int, lower, upper):
        sign = 1 if m % 2 == 0 else -1

        def block(r: int, c: int):
            # d_Y^{c+m} o f : X^c -> Y^{c+m+1} lands in the c block, and
            # -(-1)^m f o d_X^{c-1}: X^{c-1} -> Y^{c+m} in the c - 1 block
            if r == c:
                return upper[r].induced(lower[c], left=y.diff(c + m).matrix)
            if r == c - 1:
                return upper[r].induced(lower[c], right=-sign * x.diff(r).matrix)
            return linalg.zeros(len(upper[r]), len(lower[c]))

        return np.block([[block(r, c) for c in lower] for r in upper])

    layer_prev = hom_layer(n - 1)
    layer_n = hom_layer(n)
    layer_next = hom_layer(n + 1)
    d_prev = delta_matrix(n - 1, layer_prev, layer_n)
    d_n = delta_matrix(n, layer_n, layer_next)
    total = sum(len(b) for b in layer_n.values())
    return total - linalg.rank(d_n, p) - linalg.rank(d_prev, p)


# -- relative resolutions -----------------------------------------------------------


@dataclass
class CResolution:
    complex: Complex
    map: ChainMap          # complex -> x
    safe_lo: int           # cone is C-acyclic in degrees >= safe_lo
    complete: bool


def c_resolution(x: Complex, c: AddCategory, depth: int) -> CResolution:
    """Complex with terms in add(M) plus a chain map to x whose cone is
    C-acyclic above the truncation-safe degree.

    Width induction: a stalk is resolved by iterated right approximations;
    wider complexes split off their lowest term as a cone (X = Cone(u) with
    u: X^j[-j-1] -> σ_{>j}X on the nose), resolve both pieces, lift the glue
    map through the second resolution up to homotopy by one call of the
    joint solve over Hom spaces, modules._solve_joint, and return the cone
    of the lift.
    """
    if depth < 0:
        raise InvalidInput("resolution depth must be >= 0")
    x = x.trim()
    return _c_resolve(x, c, x.lo - depth)


def _c_resolve(x: Complex, c: AddCategory, cut: int) -> CResolution:
    x = x.trim()
    a = x.algebra
    if x.total_dim() == 0:
        z = Complex(a, x.lo, [zero_module(a)], [])
        return CResolution(z, ChainMap(z, x, {}), cut, True)
    if len(x.terms) == 1:
        return _c_resolve_stalk(x.term(x.lo), x.lo, c, cut)
    j = x.lo
    x1 = stalk(x.term(j), j + 1)
    x2 = Complex(a, j + 1, x.terms[1:], x.diffs[1:])
    u = ChainMap(x1, x2, {j + 1: x.diff(j)})
    r1 = _c_resolve(x1, c, cut + 1)
    r2 = _c_resolve(x2, c, cut)
    glue = _lift_through(u, r1, r2)
    if glue is None:
        raise InternalError("resolution lift failed inside the safe window")
    f, h = glue
    cone, _, _ = mapping_cone(f)
    # Phi^i = [[phi1^{i+1}, 0], [h^{i+1}, phi2^i]] : Cone(f)^i -> Cone(u)^i = X^i
    comps = {i: ModuleMap(cone.term(i), x.term(i), np.block([
        [r1.map.component(i + 1).matrix,
         linalg.zeros(x1.term(i + 1).dim, r2.complex.term(i).dim)],
        [h.component(i + 1).matrix, r2.map.component(i).matrix]]))
        for i in range(cone.lo, cone.hi + 1)}
    phi = ChainMap(cone, x, comps)
    complete = r1.complete and r2.complete
    if complete:
        safe_lo = cone.lo
    else:
        safe_lo = max(r1.safe_lo - 1, r2.safe_lo) + 1
    return CResolution(cone.trim() if cone.total_dim() else cone, phi, safe_lo, complete)


def _c_resolve_stalk(m: Module, degree: int, c: AddCategory, cut: int) -> CResolution:
    a = m.algebra
    if add_membership(m, c):
        s = stalk(m, degree)
        return CResolution(s, identity_chain_map(s), cut, True)
    length = max(degree - cut, 0)
    res = addM_resolution(m, c, length)
    terms = list(reversed(res.terms))       # lowest degree first
    diffs = list(reversed(res.maps[1:]))
    cx = Complex(a, degree - (len(terms) - 1), terms, diffs)
    phi = ChainMap(cx, stalk(m, degree), {degree: res.maps[0]})
    safe_lo = cx.lo if res.complete else cut + 1
    return CResolution(cx, phi, safe_lo, res.complete)


def _map_up_to_homotopy(src: Complex, tgt: Complex, h_src: Complex, h_tgt: Complex,
                        post: Optional[ChainMap], pre: Optional[ChainMap],
                        rhs: Callable[[int], np.ndarray]):
    """Chain map g: src -> tgt and homotopy h: h_src -> h_tgt[-1] with
    post g pre - d h - h d = rhs degreewise (a None factor is the identity).

    One _solve_joint over the Hom-basis coordinates of all components;
    returns (ChainMap, Homotopy), or None if no such pair exists.
    """
    degrees = list(range(min(cx.lo for cx in (src, tgt, h_src, h_tgt)) - 1,
                         max(cx.hi for cx in (src, tgt, h_src, h_tgt)) + 2))
    unknowns = {("g", i): HomSpace(src.term(i), tgt.term(i)) for i in degrees}
    unknowns.update({("h", i): HomSpace(h_src.term(i), h_tgt.term(i - 1)) for i in degrees})
    equations = []
    for i in degrees[:-1]:
        # chain condition: g^{i+1} d^i - d^i g^i = 0
        equations.append(([(("g", i + 1), None, src.diff(i).matrix),
                           (("g", i), -tgt.diff(i).matrix, None)],
                          linalg.zeros(tgt.term(i + 1).dim, src.term(i).dim)))
        # post^i g^i pre^i - d^{i-1} h^i - h^{i+1} d^i = rhs^i
        equations.append(([(("g", i), None if post is None else post.component(i).matrix,
                            None if pre is None else pre.component(i).matrix),
                           (("h", i), -h_tgt.diff(i - 1).matrix, None),
                           (("h", i + 1), None, -h_src.diff(i).matrix)],
                          rhs(i)))
    sol = _solve_joint(unknowns, equations, src.algebra.p)
    if sol is None:
        return None
    g_comps = {i: ModuleMap(src.term(i), tgt.term(i), sol["g", i])
               for i in degrees if np.any(sol["g", i])}
    h_comps = {i: ModuleMap(h_src.term(i), h_tgt.term(i - 1), sol["h", i])
               for i in degrees if np.any(sol["h", i])}
    return ChainMap(src, tgt, g_comps), Homotopy(h_src, h_tgt, h_comps)


def _lift_through(u: ChainMap, r1: CResolution, r2: CResolution):
    """f: C1 -> C2 chain map and homotopy h with φ2 f - u φ1 = d_{X2} h + h d_{C1}."""
    return _map_up_to_homotopy(
        r1.complex, r2.complex, r1.complex, r2.map.target, r2.map, None,
        lambda i: linalg.mat_mul(u.component(i).matrix, r1.map.component(i).matrix,
                                 u.source.algebra.p))


# -- perfect complexes ---------------------------------------------------------------


@dataclass
class PerfectReport:
    status: str                       # "in-Kb-P" | "not-within-bound"
    truncation_degree: Optional[int]  # lowest degree of the perfect witness

    def __bool__(self) -> bool:
        return self.status == "in-Kb-P"


def perfect_test(x: Complex, bound: int) -> PerfectReport:
    """Is x isomorphic in the derived category to a bounded projective complex?

    Resolves x by projectives (c_resolution with add(_AA)) and scans below the
    homology cutoff for a projective image Im d^n; the witness makes the
    brutal truncation at n+1 perfect.
    """
    reg = regular_module(x.algebra)
    proj_cat = AddCategory([reg], generator=True)
    res = c_resolution(x, proj_cat, bound)
    q = res.complex
    if res.complete:
        return PerfectReport("in-Kb-P", q.lo)
    # the resolution has an artificial homology class at its truncated bottom;
    # the vanishing condition H^i = 0 for i <= n is about x itself
    hom = homology_dims(x.trim())
    nonzero = [i for i, d in hom.items() if d != 0]
    cutoff = min(nonzero) if nonzero else q.hi + 1
    for n in range(cutoff - 1, res.safe_lo - 1, -1):
        im, _, _ = module_image(q.diff(n))
        if is_projective(im):
            return PerfectReport("in-Kb-P", n + 1)
    return PerfectReport("not-within-bound", None)


# -- homotopy retractions and splitting of acyclic complexes --------------------------


def homotopy_retraction(t: ChainMap, injectives_ok: AddCategory):
    """Given a quasi-iso t: I -> C with I a bounded complex of relatively
    injective terms (Ext^1(X_j, I^i) = 0 for the declared summands X_j),
    return (s, h) with s ∘ t - id_I = d h + h d, or None if no solution exists.
    """
    i_cx, c_cx = t.source, t.target
    if any(term.dim and ext_dims(xj, term, 1).dims[1]
           for term in i_cx.terms for xj in injectives_ok.summands):
        raise HypothesesNotSatisfied("a term of the source is not relatively injective")
    # s^i t^i - d^{i-1} h^i - h^{i+1} d^i = id
    return _map_up_to_homotopy(c_cx, i_cx, i_cx, i_cx, None, t,
                               lambda i: linalg.identity(i_cx.term(i).dim))


@dataclass
class TruncationSplitReport:
    degrees: List[int]
    image_in_add: List[bool]
    epi_splits: List[bool]

    @property
    def all_split(self) -> bool:
        return all(self.image_in_add) and all(self.epi_splits)


def acyclic_truncation_split(x: Complex, c: AddCategory) -> TruncationSplitReport:
    """For an acyclic, C-acyclic complex with terms in add(M): each image
    Im d^n is an add(M)-member and the epimorphism onto it splits.
    """
    x = x.trim()
    for i, term in enumerate(x.terms):
        if term.dim and not add_membership(term, c):
            raise HypothesesNotSatisfied(f"term at degree {x.lo + i} is not in add(M)")
    if not is_acyclic(x):
        raise HypothesesNotSatisfied("complex is not acyclic")
    if not is_c_acyclic(x, c):
        raise HypothesesNotSatisfied("complex is not C-acyclic")
    degrees, in_add, splits = [], [], []
    for n in range(x.lo, x.hi):
        d = x.diff(n)
        im, _, cor = module_image(d)
        degrees.append(n)
        in_add.append(bool(add_membership(im, c)))
        # the epimorphism cor onto Im d^n splits iff cor ∘ s = id for some s
        s = _solve_joint({"s": HomSpace(im, cor.source)},
                         [([("s", cor.matrix, None)], linalg.identity(im.dim))], x.algebra.p)
        splits.append(s is not None)
    return TruncationSplitReport(degrees, in_add, splits)
