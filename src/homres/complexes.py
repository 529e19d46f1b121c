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
from typing import Dict, List, Optional, Tuple

import numpy as np

from . import linalg
from .algebra import Algebra, same_algebra
from .approx import AddCategory, addM_resolution, add_membership, _factor_through
from .errors import HypothesesNotSatisfied, InternalError, InvalidInput
from .modules import (
    HomSpace,
    Module,
    ModuleMap,
    direct_sum,
    identity_map,
    module_image,
    same_module,
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
    p = a.p
    lo = min(x.lo - 1, y.lo)
    hi = max(x.hi - 1, y.hi)
    terms = []
    sums = []
    for i in range(lo, hi + 1):
        ds = direct_sum([x.term(i + 1), y.term(i)], algebra=a)
        sums.append(ds)
        terms.append(ds.module)
    diffs = []
    for i in range(lo, hi):
        src, tgt = sums[i - lo], sums[i + 1 - lo]
        dx = x.diff(i + 1)
        dy = y.diff(i)
        fi = f.component(i + 1)
        mat = (tgt.injections[0].matrix @ ((-dx.matrix) % p) @ src.projections[0].matrix
               + tgt.injections[1].matrix @ fi.matrix @ src.projections[0].matrix
               + tgt.injections[1].matrix @ dy.matrix @ src.projections[1].matrix) % p
        diffs.append(ModuleMap(src.module, tgt.module, mat))
    cone = Complex(a, lo, terms, diffs)
    inj = ChainMap(y, cone, {i: ModuleMap(y.term(i), cone.term(i),
                                          sums[i - lo].injections[1].matrix)
                             for i in range(lo, hi + 1)})
    x1 = shift(x, 1)
    proj = ChainMap(cone, x1, {i: ModuleMap(cone.term(i), x1.term(i),
                                            sums[i - lo].projections[0].matrix)
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
        deltas = [spaces[i + 1].coords(d.matrix @ spaces[i].stacked)
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
        row_off, col_off = {}, {}
        rows = cols = 0
        for i in sorted(upper):
            row_off[i] = rows
            rows += len(upper[i])
        for i in sorted(lower):
            col_off[i] = cols
            cols += len(lower[i])
        mat = linalg.zeros(rows, cols)
        sign = 1 if m % 2 == 0 else -1
        for i in sorted(lower):
            cs = slice(col_off[i], col_off[i] + len(lower[i]))
            # d_Y^{i+m} o f : X^i -> Y^{i+m+1}, lands in the i block
            up = upper[i]
            mat[row_off[i]:row_off[i] + len(up), cs] = up.coords(
                y.diff(i + m).matrix @ lower[i].stacked).T
            # -(-1)^m f o d_X^{i-1}: X^{i-1} -> Y^{i+m}, lands in block i-1
            if i - 1 in upper:
                up = upper[i - 1]
                mat[row_off[i - 1]:row_off[i - 1] + len(up), cs] += up.coords(
                    -sign * lower[i].stacked @ x.diff(i - 1).matrix).T
        return mat % p

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
    map through the second resolution up to homotopy by one joint linear
    solve, and return the cone of the lift.
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
    comps = {}
    p = a.p
    for i in range(cone.lo, cone.hi + 1):
        c1_next = r1.complex.term(i + 1)
        c2_here = r2.complex.term(i)
        tgt = x.term(i)
        ds = direct_sum([c1_next, c2_here], algebra=a)
        phi1 = r1.map.component(i + 1)   # -> x1^{i+1}, nonzero only at i+1 = j+1
        phi2 = r2.map.component(i)
        hh = h.get(i + 1)
        if i == j:
            # target X^j = x1^{j+1}; phi1 lands there, phi2^j = 0
            mat = (phi1.matrix @ ds.projections[0].matrix) % p
        else:
            mat = (phi2.matrix @ ds.projections[1].matrix) % p
            if hh is not None and i + 1 >= r1.complex.lo:
                # h^{i+1}: C1^{i+1} -> X2^i = X^i
                mat = (mat + hh @ ds.projections[0].matrix) % p
        comps[i] = ModuleMap(cone.term(i), tgt, mat)
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


def _solve_joint(unknowns: Dict[Tuple[str, int], HomSpace], equations, p: int):
    """One linear solve for maps X_key, each unknown in its Hom space.

    An equation (terms, rhs) reads sum of left @ X_key @ right == rhs over
    its terms (key, left, right); a None factor is the identity.  Returns
    {key: matrix} (free coordinates set to 0), or None if inconsistent.
    """
    offsets, pos = {}, 0
    for key, space in unknowns.items():
        offsets[key] = pos
        pos += len(space)
    nrows = sum(rhs.size for _, rhs in equations)
    system = linalg.zeros(nrows, pos)
    target = np.zeros(nrows, dtype=np.int64)
    r = 0
    for terms, rhs in equations:
        for key, left, right in terms:
            space = unknowns[key]
            vals = space.stacked
            if left is not None:
                vals = (left @ vals) % p
            if right is not None:
                vals = (vals @ right) % p
            cols = slice(offsets[key], offsets[key] + len(space))
            system[r:r + rhs.size, cols] += vals.reshape(len(space), rhs.size).T
        target[r:r + rhs.size] = rhs.reshape(-1)
        r += rhs.size
    sol = linalg.solve_linear(system % p, target, p)
    if sol is None:
        return None
    return {key: space.combine(sol[offsets[key]:offsets[key] + len(space)])
            for key, space in unknowns.items()}


def _lift_through(u: ChainMap, r1: CResolution, r2: CResolution):
    """f: C1 -> C2 chain map and homotopy h with φ2 f - u φ1 = d_{X2} h + h d_{C1}.

    One joint linear solve over the Hom-basis coordinates of all components.
    h is returned as a dict degree -> raw matrix C1^i -> X2^{i-1}.
    """
    c1, c2 = r1.complex, r2.complex
    x2 = r2.map.target
    p = c1.algebra.p
    degrees = list(range(min(c1.lo, c2.lo, x2.lo) - 1,
                         max(c1.hi, c2.hi, x2.hi) + 2))
    unknowns = {("f", i): HomSpace(c1.term(i), c2.term(i)) for i in degrees}
    unknowns.update({("h", i): HomSpace(c1.term(i), x2.term(i - 1)) for i in degrees})
    equations = []
    for i in degrees[:-1]:
        d1 = c1.diff(i).matrix
        # chain condition: f^{i+1} d1^i - d2^i f^i = 0
        equations.append(([(("f", i + 1), None, d1),
                           (("f", i), -c2.diff(i).matrix, None)],
                          linalg.zeros(c2.term(i + 1).dim, c1.term(i).dim)))
        # homotopy: φ2^i f^i - d^{i-1} h^i - h^{i+1} d1^i = u^i φ1^i
        equations.append(([(("f", i), r2.map.component(i).matrix, None),
                           (("h", i), -x2.diff(i - 1).matrix, None),
                           (("h", i + 1), None, -d1)],
                          linalg.mat_mul(u.component(i).matrix,
                                         r1.map.component(i).matrix, p)))
    sol = _solve_joint(unknowns, equations, p)
    if sol is None:
        return None
    f_comps = {i: ModuleMap(c1.term(i), c2.term(i), sol["f", i])
               for i in degrees if np.any(sol["f", i])}
    h_comps = {i: sol["h", i] for i in degrees if np.any(sol["h", i])}
    return (ChainMap(c1, c2, f_comps), h_comps)


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
    from .modules import regular_module
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
    p = x.algebra.p
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
    p = i_cx.algebra.p
    for term in i_cx.terms:
        if term.dim == 0:
            continue
        for xj in injectives_ok.summands:
            if ext_dims(xj, term, 1).dims[1] != 0:
                raise HypothesesNotSatisfied(
                    "a term of the source is not relatively injective")
    degrees = list(range(min(i_cx.lo, c_cx.lo) - 1, max(i_cx.hi, c_cx.hi) + 2))
    unknowns = {("s", i): HomSpace(c_cx.term(i), i_cx.term(i)) for i in degrees}
    unknowns.update({("h", i): HomSpace(i_cx.term(i), i_cx.term(i - 1)) for i in degrees})
    equations = []
    for i in degrees[:-1]:
        di = i_cx.diff(i).matrix
        # chain condition: s^{i+1} d_C^i - d_I^i s^i = 0
        equations.append(([(("s", i + 1), None, c_cx.diff(i).matrix),
                           (("s", i), -di, None)],
                          linalg.zeros(i_cx.term(i + 1).dim, c_cx.term(i).dim)))
        # retraction up to homotopy: s^i t^i - d^{i-1} h^i - h^{i+1} d^i = id
        equations.append(([(("s", i), None, t.component(i).matrix),
                           (("h", i), -i_cx.diff(i - 1).matrix, None),
                           (("h", i + 1), None, -di)],
                          linalg.identity(i_cx.term(i).dim)))
    sol = _solve_joint(unknowns, equations, p)
    if sol is None:
        return None
    s_comps = {i: ModuleMap(c_cx.term(i), i_cx.term(i), sol["s", i])
               for i in degrees if np.any(sol["s", i])}
    h_comps = {i: ModuleMap(i_cx.term(i), i_cx.term(i - 1), sol["h", i])
               for i in degrees if np.any(sol["h", i])}
    return (ChainMap(c_cx, i_cx, s_comps), Homotopy(i_cx, i_cx, h_comps))


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
        im, incl, cor = module_image(d)
        degrees.append(n)
        in_add.append(bool(add_membership(im, c)))
        splits.append(_factor_through(identity_map(im), cor) is not None)
    return TruncationSplitReport(degrees, in_add, splits)
