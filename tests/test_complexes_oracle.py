"""homres.complexes against the forms its cones and homotopy lifts had before
they were written from their block formulas.

The oracles below are the earlier mapping_cone, _c_resolve with its
_lift_through, homotopy_hom_dim and homotopy_retraction, kept verbatim up to
their names.  They assemble each cone and C-resolution map from direct_sum
injections and projections, keep the Hom_K differential's block offsets by
hand, and write the chain-map/homotopy equations of the lift and of the
retraction out twice.  Every output must agree bit for bit: complex terms and
differentials, chain-map and homotopy components, safe_lo, complete and
dimensions.  The inputs are the bundled workspaces' complexes and modules at
p = 2, 3, 5, 7, stalks and their shifts, cones of identity and zero maps,
C-resolution maps at depths 0-3, and two-term complexes of projective
resolution differentials; then all of these again under random changes of
basis of their terms.
"""

import functools
import json
from typing import Tuple

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from homres import linalg
from homres.algebra import same_algebra
from homres.approx import AddCategory
from homres.complexes import (
    ChainMap,
    Complex,
    CResolution,
    Homotopy,
    _c_resolve_stalk,
    _lift_through,
    c_resolution,
    homotopy_hom_dim,
    homotopy_retraction,
    identity_chain_map,
    mapping_cone,
    shift,
    stalk,
)
from homres.errors import HypothesesNotSatisfied, InternalError, InvalidInput
from homres.modules import (
    HomSpace, Module, ModuleMap, _solve_joint, direct_sum, zero_module,
)
from homres.resolutions import ext_dims, projective_resolution
from homres.workspace import bundled_workspace_path, parse_workspace


def oracle_mapping_cone(f: ChainMap) -> Tuple[Complex, ChainMap, ChainMap]:
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


def oracle_c_resolve(x: Complex, c: AddCategory, cut: int) -> CResolution:
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
    r1 = oracle_c_resolve(x1, c, cut + 1)
    r2 = oracle_c_resolve(x2, c, cut)
    glue = oracle_lift_through(u, r1, r2)
    if glue is None:
        raise InternalError("resolution lift failed inside the safe window")
    f, h = glue
    cone, _, _ = oracle_mapping_cone(f)
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


def oracle_lift_through(u: ChainMap, r1: CResolution, r2: CResolution):
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


def oracle_homotopy_hom_dim(x: Complex, y: Complex, n: int) -> int:
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


def oracle_homotopy_retraction(t: ChainMap, injectives_ok: AddCategory):
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


# -- comparison ---------------------------------------------------------------------


def assert_same_matrix(a, b):
    assert a.dtype == b.dtype and a.shape == b.shape and np.array_equal(a, b)


def assert_same_complex(x, y):
    assert (x.lo, x.hi) == (y.lo, y.hi)
    for s, t in zip(x.terms, y.terms):
        assert s.dim == t.dim
        assert_same_matrix(s.action, t.action)
    for d, e in zip(x.diffs, y.diffs):
        assert_same_matrix(d.matrix, e.matrix)


def assert_same_components(got: dict, want: dict):
    assert list(got) == list(want)
    for i in want:
        assert_same_matrix(got[i], want[i])


def assert_same_chain_map(f, g):
    assert_same_complex(f.source, g.source)
    assert_same_complex(f.target, g.target)
    assert_same_components({i: m.matrix for i, m in f.components.items()},
                           {i: m.matrix for i, m in g.components.items()})


def assert_same_cone(f):
    for got, want in zip(mapping_cone(f), oracle_mapping_cone(f)):
        if isinstance(want, Complex):
            assert_same_complex(got, want)
        else:
            assert_same_chain_map(got, want)


def assert_same_c_resolution(x, c, depth):
    got = c_resolution(x, c, depth)
    x = x.trim()
    want = oracle_c_resolve(x, c, x.lo - depth)
    assert_same_complex(got.complex, want.complex)
    assert_same_chain_map(got.map, want.map)
    assert (got.safe_lo, got.complete) == (want.safe_lo, want.complete)
    if len(x.terms) > 1:  # the lift glueing the lowest term to the rest
        j = x.lo
        x1 = stalk(x.term(j), j + 1)
        x2 = Complex(x.algebra, j + 1, x.terms[1:], x.diffs[1:])
        u = ChainMap(x1, x2, {j + 1: x.diff(j)})
        cut = x.lo - depth
        r1, r2 = oracle_c_resolve(x1, c, cut + 1), oracle_c_resolve(x2, c, cut)
        f, h = _lift_through(u, r1, r2)
        want_f, want_h = oracle_lift_through(u, r1, r2)
        assert_same_chain_map(f, want_f)
        assert_same_components({i: m.matrix for i, m in h.components.items()}, want_h)
    return got


def retraction_or_refusal(retraction, t, c):
    try:
        return retraction(t, c)
    except HypothesesNotSatisfied as e:
        return f"refused: {e}"


def assert_same_retraction(t, c):
    got = retraction_or_refusal(homotopy_retraction, t, c)
    want = retraction_or_refusal(oracle_homotopy_retraction, t, c)
    if want is None or isinstance(want, str):
        assert got == want
        return
    assert_same_chain_map(got[0], want[0])
    assert_same_complex(got[1].source, want[1].source)
    assert_same_complex(got[1].target, want[1].target)
    assert_same_components({i: m.matrix for i, m in got[1].components.items()},
                           {i: m.matrix for i, m in want[1].components.items()})


# -- inputs -------------------------------------------------------------------------


PRIMES = (2, 3, 5, 7)
WORKSPACES = ("kx2", "kx3", "a2-hereditary")


@functools.lru_cache(maxsize=None)
def bundled(name: str, p: int):
    """(complexes, categories) of a bundled workspace re-rooted at p.

    The complexes are the workspace's own, stalks of its modules and their
    shifts, and two-term complexes of projective resolution differentials.
    The categories are add(A) and the suite's add(M).
    """
    with open(bundled_workspace_path(name), encoding="utf-8") as fh:
        doc = json.load(fh)
    doc["p"] = p
    ws = parse_workspace(doc)
    a = ws.algebras[ws.suite["algebra"]]
    complexes = list(ws.complexes.values())
    for m in ws.modules.values():
        complexes += [stalk(m), shift(stalk(m, 1), -2)]
        for d in projective_resolution(m, 1).maps[1:]:
            complexes.append(Complex(a, -1, [d.source, d.target], [d]))
    complexes += [shift(x, 1) for x in ws.complexes.values()]
    categories = [AddCategory([ws.module("reg")], generator=True),
                  AddCategory([ws.module(n) for n in ws.suite["summands"]],
                              generator=True)]
    return complexes, categories


def rebased(x: Complex, rng) -> Complex:
    """x with every term under a random invertible change of basis g_i,
    and d^i carried to g_{i+1}^{-1} d^i g_i.  Each product is reduced mod p
    before the next, so the triple products cannot overflow int64 at large p."""
    p = x.algebra.p
    gs, terms = [], []
    for t in x.terms:
        while True:
            g = rng.integers(0, p, size=(t.dim, t.dim))
            g_inv = linalg.inverse(g, p)
            if g_inv is not None:
                break
        gs.append((g, g_inv))
        terms.append(Module(x.algebra, t.dim,
                            linalg.mat_mul(linalg.mat_mul(g_inv, t.action, p), g, p)))
    diffs = [ModuleMap(terms[i], terms[i + 1],
                       linalg.mat_mul(linalg.mat_mul(gs[i + 1][1], d.matrix, p), gs[i][0], p))
             for i, d in enumerate(x.diffs)]
    return Complex(x.algebra, x.lo, terms, diffs)


CASES = [(name, p) for name in WORKSPACES for p in PRIMES]


def check_complex(x: Complex, y: Complex, categories, depth: int):
    """Every comparison on x, with y as the second complex: the cones of the
    identity and of the zero map, x's C-resolutions, the cone of its
    add(A)-resolution map, the retractions of the identity, of that map and
    of Y -> Cone(id_Y), and Hom_K(x, y[n]) for n = -3..3."""
    assert_same_cone(identity_chain_map(x))
    assert_same_cone(ChainMap(x, y, {}))
    resolved = assert_same_c_resolution(x, categories[0], depth).map
    assert_same_c_resolution(x, categories[1], depth)
    assert_same_cone(resolved)
    assert_same_retraction(identity_chain_map(x), categories[-1])
    assert_same_retraction(resolved, categories[0])
    assert_same_retraction(mapping_cone(identity_chain_map(y))[1], categories[0])
    for n in range(-3, 4):
        assert homotopy_hom_dim(x, y, n) == oracle_homotopy_hom_dim(x, y, n)


@pytest.mark.parametrize("name, p", CASES)
def test_bundled_complexes_agree_with_the_oracles(name, p):
    complexes, categories = bundled(name, p)
    for k, x in enumerate(complexes):
        check_complex(x, complexes[(k + 1) % len(complexes)], categories, k % 4)


@settings(max_examples=20, deadline=None)
@given(case=st.sampled_from(CASES), k=st.integers(0, 100),
       depth=st.integers(0, 3), seed=st.integers(0, 2**32 - 1))
def test_rebased_complexes_agree_with_the_oracles(case, k, depth, seed):
    complexes, categories = bundled(*case)
    rng = np.random.default_rng(seed)
    x = rebased(complexes[k % len(complexes)], rng)
    y = rebased(complexes[(k + 1) % len(complexes)], rng)
    check_complex(x, y, categories, depth)
