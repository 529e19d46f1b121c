"""B = (End ⊕ M_i)^op from its summand blocks, and gl.dim over its simples.

endomorphism_algebra assembles End(M) from the blocks Hom(M_i, M_j) and
derives rad B from B's table; the construction that solved Hom(M, M) as one
system, and found the singular maps between isomorphic summands by
enumeration, is kept here as an oracle, and B must agree with it bit for bit.  simple_modules
takes the simples of an algebra with idempotents as the tops of its vertex
projectives; the gl_dim that splits A/rad A by Fitting searches, on a copy
of the algebra without its idempotents, is the oracle for its values and
exceptions.
"""

import json
import sys
import time
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from homres import endo, linalg, modules
from homres.approx import AddCategory
from homres.algebra import (
    Algebra, QuiverPresentation, _ideal_closure_step, _radical_rows, from_quiver, from_table,
    opposite, quotient_algebra,
)
from homres.endo import endomorphism_algebra, verify_theorem2
from homres.errors import InvalidInput, SearchExhausted
from homres.harness import verification_suite
from homres.modules import (
    EXHAUSTIVE_CAP, HomSpace, Module, _local_radical, _nonzero_vectors, direct_sum, dual_module,
    is_isomorphic, regular_module, same_module, simple_modules, sum_module,
    validate_module,
)
from homres.resolutions import EXCEEDS_BOUND, gl_dim, proj_dim
from homres.workspace import bundled_workspace_path, parse_workspace

from test_algebra import dual_numbers, truncated_cubic, two_vertex_line

PRIMES = (2, 3, 5, 7)


# -- oracles: the one-system construction of B and the Fitting-split gl_dim ----


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


def _radical_from_summands_oracle(m_sum, end: HomSpace) -> np.ndarray:
    """Radical of End(⊕ M_i) in basis coordinates, from the block structure."""
    rows = []
    p, n = end.p, len(m_sum.injections)
    summands = [inj.source for inj in m_sum.injections]
    for i in range(n):
        for j in range(n):
            hij = HomSpace(summands[i], summands[j])
            if not hij:
                continue
            if summands[i].dim == summands[j].dim and is_isomorphic(
                    summands[i], summands[j]) is True:
                block_rows = _singular_hom_subspace(hij)
            else:
                block_rows = linalg.identity(len(hij))
            for r in block_rows:
                into_j = linalg.mat_mul(m_sum.injections[j].matrix, hij.combine(r), p)
                rows.append(end.coords(
                    linalg.mat_mul(into_j, m_sum.projections[i].matrix, p)))
    if not rows:
        return linalg.zeros(0, len(end))
    red, piv = linalg.rref(np.array(rows, dtype=np.int64), p)
    return red[:len(piv)]


def endomorphism_algebra_oracle(c):
    """(End_A M)^op as structure constants, M the direct sum of c's summands:
    b_i . b_j corresponds to f_j ∘ f_i."""
    ds = direct_sum(c.summands)
    m, p = ds.module, ds.module.p
    end = HomSpace(m, m)
    # mult[i, j] = coordinates of f_j ∘ f_i
    mult = end.coords(linalg.mat_mul(end.stacked[None, :], end.stacked[:, None], p))
    unit = end.coords(linalg.identity(m.dim))
    radical = _radical_from_summands_oracle(ds, end)
    idempotents = end.coords(np.stack([linalg.mat_mul(i.matrix, q.matrix, p)
                                       for i, q in zip(ds.injections, ds.projections)]))
    b = Algebra(p=p, dim=len(end), mult=mult, unit=unit, radical=radical,
                idempotents=idempotents)
    endo.validate_algebra(b)  # also validates rad B
    return endo.EndoContext(category=c, m=m, b=b, basis_maps=end.basis)


def gl_dim_oracle(a: Algebra, bound: int):
    """Max of proj_dim over the simple modules; EXCEEDS_BOUND if any exceeds.

    The simples are split from A/R by Fitting's lemma over a copy of a
    without its idempotents, so the vertex tops do not run, and then
    resolved over a.
    """
    copy = Algebra(p=a.p, dim=a.dim, mult=a.mult, unit=a.unit, radical=a.radical)
    best = 0
    for s in simple_modules(copy):
        d = proj_dim(Module(a, s.dim, s.action), bound)
        if d is EXCEEDS_BOUND or d == EXCEEDS_BOUND:
            return EXCEEDS_BOUND
        best = max(best, d)
    return best


# -- inputs ---------------------------------------------------------------------


def uniserial(n, p):
    """k[x]/(x^n) and its n uniserial modules k[x]/(x^i)."""
    a = from_quiver(QuiverPresentation(vertices=1, arrows=[(0, 0)],
                                       relations=[(0,) * n]), p)
    mods = []
    for i in range(1, n + 1):
        act = np.zeros((a.dim, i, i), dtype=np.int64)
        for k in range(a.dim):  # x^k shifts u_j to u_{j+k}
            for j in range(i - k):
                act[k, j + k, j] = 1
        mods.append(validate_module(Module(a, i, act)))
    return a, mods


def linear(m, p):
    """rad^2-zero A_m and its 2m - 1 indecomposables."""
    a = from_quiver(QuiverPresentation(
        vertices=m, arrows=[(i, i + 1) for i in range(m - 1)],
        relations=[(i, i + 1) for i in range(m - 2)]), p)
    reg = regular_module(a)
    mods = list(simple_modules(a))
    for v in range(m - 1):
        idx = [v, m + v]  # e_v and the arrow leaving v span A e_v
        mods.append(validate_module(Module(a, 2, reg.action[:, idx][:, :, idx])))
    return a, mods


def skew_dual_numbers(p):
    """F[y; σ]/(y^2) for F = GF(p^2) and σ its Frobenius, on 1, a, y, ay.

    y·u = σ(u)·y, so End(A) = A^op is local and noncommutative, with
    residue field GF(p^2) and radical (y).
    """
    if p == 2:
        c0, c1, sigma_a = 1, 1, (1, 1)  # a^2 = a + 1, σ(a) = a + 1
    else:  # a^2 = c0, a non-square, and σ(a) = -a
        c0 = next(n for n in range(2, p) if pow(n, (p - 1) // 2, p) == p - 1)
        c1, sigma_a = 0, (0, p - 1)

    def field_mul(x, y):
        return ((x[0] * y[0] + x[1] * y[1] * c0) % p,
                (x[0] * y[1] + x[1] * y[0] + x[1] * y[1] * c1) % p)

    def sigma(x):
        return (x[0] + x[1] * sigma_a[0]) % p, x[1] * sigma_a[1] % p

    structure = []
    for i, j in np.ndindex(4, 4):
        (u, v), (u2, v2) = (np.eye(4, dtype=int)[k].reshape(2, 2) for k in (i, j))
        # (u + v y)(u' + v' y) = u u' + (u v' + v σ(u')) y
        w, z = field_mul(u, v2), field_mul(v, sigma(u2))
        prod = field_mul(u, u2) + ((w[0] + z[0]) % p, (w[1] + z[1]) % p)
        structure += [(i, j, k, c) for k, c in enumerate(prod) if c]
    return from_table(p, 4, structure, [1, 0, 0, 0], radical=[[0, 0, 1, 0], [0, 0, 0, 1]])


def change_basis(x, rng):
    """x under a random invertible change of basis."""
    while True:
        g = rng.integers(0, x.p, size=(x.dim, x.dim))
        g_inv = linalg.inverse(g, x.p)
        if g_inv is not None:
            break
    action = np.einsum("ab,kbc,cd->kad", g_inv, x.action, g) % x.p
    return validate_module(Module(x.algebra, x.dim, action))


def _doc(name, p):
    with open(bundled_workspace_path(name), encoding="utf-8") as fh:
        doc = json.load(fh)
    doc["p"] = p
    return doc


def _suite_summands(name, p):
    ws = parse_workspace(_doc(name, p))
    return [ws.module(n) for n in ws.suite["summands"]]


def _rebuilt(b, radical):
    """b with another radical, unvalidated: gl_dim must refuse it itself."""
    return Algebra(p=b.p, dim=b.dim, mult=b.mult, unit=b.unit, radical=radical,
                   idempotents=b.idempotents)


# -- comparisons ----------------------------------------------------------------


def _assert_same_b(got, want):
    for key in ("mult", "unit", "radical", "idempotents"):
        g, w = getattr(got.b, key), getattr(want.b, key)
        assert g.dtype == w.dtype and np.array_equal(g, w), key
        assert g.shape == w.shape, key
    assert got.b.dim == want.b.dim and got.b.p == want.b.p
    assert len(got.basis_maps) == len(want.basis_maps)
    for f, g in zip(got.basis_maps, want.basis_maps):
        assert np.array_equal(f.matrix, g.matrix)
        assert same_module(f.source, got.m) and same_module(f.target, got.m)


def _outcome(fn, *args):
    """fn(*args), or the type of the exception it raised."""
    try:
        return fn(*args)
    except Exception as e:  # compared by type against the oracle's
        return type(e)


def _check_b(summands, bound=10):
    got = endomorphism_algebra(AddCategory(summands))
    want = endomorphism_algebra_oracle(AddCategory(summands))
    _assert_same_b(got, want)
    assert _outcome(gl_dim, got.b, bound) == _outcome(gl_dim_oracle, want.b, bound)
    return got


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("name", ["kx2", "kx3", "a2-hereditary"])
def test_bundled_suites_b_matches_the_oracle(name, p):
    _check_b(_suite_summands(name, p))


@settings(max_examples=30, deadline=None)
@given(family=st.sampled_from([uniserial, linear]), n=st.integers(2, 4),
       p=st.sampled_from(PRIMES), seed=st.integers(0, 2 ** 32 - 1))
def test_theorem2_families_b_match_the_oracle(family, n, p, seed):
    rng = np.random.default_rng(seed)
    _, mods = family(n, p)
    mods = [change_basis(mods[i], rng) for i in rng.permutation(len(mods))]
    ctx = _check_b(mods)
    assert gl_dim(ctx.b, 10) == 2  # B is an Auslander algebra


@pytest.mark.parametrize("p", PRIMES)
def test_a_commutative_b_matches_the_oracle(p):
    # B = k[x]/(x^4) itself: commutative, so no commutator lies in rad B = (x),
    # and f |-> f^q must kill it, with q >= 4 > p at p = 2, 3
    ctx = _check_b([uniserial(4, p)[1][-1]])
    assert len(ctx.b.radical) == 3


@pytest.mark.parametrize("p", PRIMES)
def test_non_basic_b_matches_the_oracle(p):
    a = dual_numbers(p)
    reg, k = regular_module(a), simple_modules(a)[0]
    ctx = _check_b([k, k])  # B = M_2(GF(p))
    assert ctx.b.dim == 4 and ctx.b.radical.shape[0] == 0
    assert gl_dim(ctx.b, 10) == 0
    ctx = _check_b([reg, k, k])
    assert ctx.b.dim == 2 + 2 + 2 + 4  # End(A), Hom(A, k^2), Hom(k^2, A), M_2


def test_errors_match_the_oracle():
    a = dual_numbers(2)
    reg, k = regular_module(a), simple_modules(a)[0]
    m = sum_module([reg, k])
    # a decomposable declared summand: the oracle's enumeration puts its
    # idempotents into the radical, which fails the nilpotency check, or
    # exceeds the cap (k^5: a 25-dimensional End ring at p = 2); B refuses
    # both as not local
    k5 = sum_module([k] * 5)
    for x, oracle in ((m, InvalidInput), (k5, SearchExhausted)):
        with pytest.raises(InvalidInput, match="End ring is not local"):
            endomorphism_algebra(AddCategory([x]))
        assert _outcome(endomorphism_algebra_oracle, AddCategory([x])) is oracle


def test_k18_as_one_summand_is_refused_as_not_local():
    # M_18(GF(2)) has basis idempotents of rank 1: refused before any of its
    # commutators, or the 324 x 324 stack of products of B's table, exists
    k = simple_modules(dual_numbers(2))[0]
    k18 = sum_module([k] * 18)
    start = time.perf_counter()
    with pytest.raises(InvalidInput, match="End ring is not local"):
        endomorphism_algebra(AddCategory([k18]))
    assert time.perf_counter() - start < 1


@pytest.mark.parametrize("p, seed", [(3, 1), (5, 0), (7, 0)])
def test_a_product_of_fields_is_refused_by_its_frobenius(p, seed):
    # S_1 ⊕ S_2 over GF(p) × GF(p), in a basis where End's basis elements
    # are all units: the rank test passes and J = 0, but E/J = GF(p)^2 has a
    # 2-dimensional Frobenius fixed space
    kk = from_table(p, 2, [(0, 0, 0, 1), (1, 1, 1, 1)], [1, 1], radical=[])
    s1, s2 = (validate_module(Module(kk, 1, act)) for act in ([[[1]], [[0]]], [[[0]], [[1]]]))
    x = change_basis(sum_module([s1, s2]), np.random.default_rng(seed))
    assert all(linalg.is_invertible(f, p) for f in HomSpace(x, x).stacked)
    with pytest.raises(InvalidInput, match="End ring is not local"):
        endomorphism_algebra(AddCategory([x]))


def _unchecked_radical(space):
    """K, the kernel of f |-> f^q modulo commutators, without the left-ideal
    step that cuts it down to J."""
    p, d, q = space.p, space.stacked.shape[1], 1
    while q < d:
        q *= p
    powers = [linalg.mat_pow(f, q, p) for f in space.stacked]
    commutators = [f @ g - g @ f for f in space.stacked for g in space.stacked]
    mod_c = linalg.quotient_basis(space.coords(commutators), p)[0]
    return linalg.kernel_basis(mod_c @ space.coords(powers).T % p, p)


@pytest.mark.parametrize("p", PRIMES)
def test_a_matrix_ring_is_refused_as_no_left_ideal(p):
    # k ⊕ k as one summand: E = M_2(GF(p)), whose kernel K is sl_2, with
    # E/K = GF(p); the largest left ideal in K is J = 0, and E/J = M_2 is
    # not commutative, so _local_radical itself refuses E
    k = simple_modules(dual_numbers(p))[0]
    k2 = sum_module([k, k])
    space = HomSpace(k2, k2)
    assert len(_unchecked_radical(space)) == 3
    mult = space.coords(space.compose(right=space.stacked[:, None]))
    # q = p, the least power of p >= dim k ⊕ k
    assert len(_radical_rows(mult, space.coords(linalg.mat_pow(space.stacked, p, p)), p)) == 0
    assert _local_radical(space) is None
    with pytest.raises(InvalidInput, match="End ring is not local"):
        endomorphism_algebra(AddCategory([k2]))


def _row_space(rows, p):
    red, piv = linalg.rref(rows, p)
    return red[:len(piv)]


def _local_inputs(p):
    """Indecomposables with local End rings: commutative (uniserial,
    rad^2-zero A_3), noncommutative with residue field GF(p^2) (the skew dual
    numbers), and GF(p^2) itself."""
    skew = skew_dual_numbers(p)
    field = quotient_algebra(skew, skew.radical)[0]
    return (uniserial(4, p)[1] + linear(3, p)[1]
            + [regular_module(skew), dual_module(regular_module(skew)), regular_module(field)])


@settings(max_examples=60, deadline=None)
@given(p=st.sampled_from(PRIMES), pick=st.integers(0, 10 ** 6),
       seed=st.integers(0, 2 ** 32 - 1))
def test_local_radical_matches_the_enumeration(p, pick, seed):
    mods = _local_inputs(p)
    x = change_basis(mods[pick % len(mods)], np.random.default_rng(seed))
    space = HomSpace(x, x)
    assert np.array_equal(_row_space(_local_radical(space), p), _singular_hom_subspace(space))


@pytest.mark.parametrize("p", PRIMES)
def test_skew_dual_numbers_b_matches_the_oracle(p):
    # End(A) = A^op is noncommutative: without the commutators C, the map
    # c |-> sum c_k b_k^q is not linear, and its kernel misses J on most of
    # these conjugates
    reg = regular_module(skew_dual_numbers(p))
    for seed in range(5):
        x = change_basis(reg, np.random.default_rng(seed))
        space = HomSpace(x, x)
        assert np.array_equal(_row_space(_local_radical(space), p),
                              _singular_hom_subspace(space))
        ctx = _check_b([x, simple_modules(reg.algebra)[0]])
        assert ctx.b.dim == 4 + 2 + 2 + 2  # End(A), Hom(A, S), Hom(S, A), End(S)


@pytest.mark.parametrize("p", [65537, 1048573])
def test_theorem2_families_at_large_primes(p):
    # the enumeration oracle refused these: p^h is far beyond its cap
    a, mods = uniserial(4, p)
    rep = verify_theorem2(a, regular_module(a), AddCategory(mods), 2)
    assert (rep.injdim_t, rep.gldim_b, rep.verdict, rep.b_dim) == (0, 2, True, 30)
    a, mods = linear(4, p)
    rep = verify_theorem2(a, dual_module(regular_module(opposite(a))), AddCategory(mods), 2)
    assert (rep.injdim_t, rep.gldim_b, rep.verdict, rep.b_dim) == (0, 2, True, 15)


def _quiver_and_table_algebras():
    out = []
    for p in PRIMES:
        out += [dual_numbers(p), truncated_cubic(p), two_vertex_line(p),
                uniserial(4, p)[0], linear(4, p)[0], opposite(linear(3, p)[0])]
    q = two_vertex_line(2)
    structure = [(i, j, k, int(q.mult[i, j, k])) for i, j, k in np.argwhere(q.mult)]
    for p in PRIMES:  # radical from the trace form, unsupported, or unproven
        out.append(from_table(p, q.dim, structure, q.unit.tolist()))
        out.append(from_table(p, q.dim, structure, q.unit.tolist(),
                              radical=q.radical.tolist()))
    mat = np.zeros((4, 4, 4), dtype=np.int64)  # M_2(GF(7)) on matrix units
    for r, c, t in np.ndindex(2, 2, 2):
        mat[2 * r + c, 2 * c + t, 2 * r + t] = 1
    out.append(from_table(7, 4, [(i, j, k, 1) for i, j, k in np.argwhere(mat)],
                          [1, 0, 0, 1]))
    return out


@pytest.mark.parametrize("bound", [1, 6])
def test_gl_dim_matches_the_oracle_on_quiver_and_table_algebras(bound):
    for a in _quiver_and_table_algebras():
        assert _outcome(gl_dim, a, bound) == _outcome(gl_dim_oracle, a, bound)


def test_gl_dim_refuses_a_radical_short_of_a_row():
    # dropping a row leaves R·B = R with tops that are not simple, or
    # R·B larger than R; either way R is not rad B
    for family, n in ((uniserial, 3), (linear, 3)):
        b = endomorphism_algebra(AddCategory(family(n, 3)[1])).b
        for r in range(len(b.radical)):
            short = _rebuilt(b, np.delete(b.radical, r, axis=0))
            with pytest.raises(InvalidInput, match="is not rad A"):
                gl_dim(short, 10)
            assert _outcome(gl_dim_oracle, _rebuilt(b, short.radical), 10) is InvalidInput


def test_gl_dim_refuses_a_nilpotent_ideal_short_of_the_radical():
    # rad^2 B is a two-sided ideal, so only the simplicity of the tops can
    # tell it from rad B
    b = endomorphism_algebra(AddCategory(uniserial(3, 5)[1])).b
    rad2 = _ideal_closure_step(b, b.radical, b.radical)
    assert 0 < len(rad2) < len(b.radical)
    with pytest.raises(InvalidInput, match="is not rad A"):
        gl_dim(_rebuilt(b, rad2), 10)
    assert _outcome(gl_dim_oracle, _rebuilt(b, rad2), 10) is InvalidInput


def test_gl_dim_takes_tops_not_simple_modules(monkeypatch):
    # over an algebra with idempotents simple_modules reads the vertex tops:
    # no Fitting search runs, also where B is not basic
    def refuse(x):
        raise AssertionError("_fitting_split called")

    b = _check_b(linear(3, 2)[1]).b
    a = dual_numbers(2)
    non_basic = _check_b([regular_module(a), simple_modules(a)[0], simple_modules(a)[0]]).b
    monkeypatch.setattr(modules, "_fitting_split", refuse)
    assert gl_dim(b, 10) == 2 and gl_dim(opposite(b), 10) == 2
    assert gl_dim(linear(3, 2)[0], 10) == 2
    assert gl_dim(non_basic, 10) == 2 and gl_dim(opposite(non_basic), 10) == 2


def test_kx3_suite_solves_each_block_once_and_no_hom_m_m(monkeypatch):
    ws = parse_workspace(_doc("kx3", 2))
    summands = [ws.module(n) for n in ws.suite["summands"]]
    m_sum = sum_module(summands)
    calls, inside = [], []
    real_hom, real_endo = modules.hom_basis, endo.endomorphism_algebra

    def hom_spy(x, y):
        calls.append((x, y, bool(inside)))
        return real_hom(x, y)

    def endo_spy(*args, **kwargs):
        inside.append(True)
        try:
            return real_endo(*args, **kwargs)
        finally:
            inside.pop()

    for mod in list(sys.modules.values()):  # every homres module that imported it
        if (getattr(mod, "__name__", "").startswith("homres")
                and getattr(mod, "hom_basis", None) is real_hom):
            monkeypatch.setattr(mod, "hom_basis", hom_spy)
    monkeypatch.setattr(endo, "endomorphism_algebra", endo_spy)
    assert verification_suite(ws)["all_green"]
    assert not [c for c in calls if same_module(c[0], m_sum) and same_module(c[1], m_sum)]
    in_endo = Counter((id(x), id(y)) for x, y, flag in calls if flag)
    assert in_endo == Counter({(id(x), id(y)): 1 for x in summands for y in summands})
