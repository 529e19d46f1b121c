"""simple_modules: the vertex tops, or the split of A/rad, each certified
simple by linear algebra at every prime.

_is_simple decides simplicity by two checks: End(S) is a field, and a
dimension count (Jacobson density).  Three oracles are kept here:
- the spin check it replaced, which enumerates every nonzero vector;
- the simples that quiver algebras declared (Algebra.simple_actions);
- the split of A/rad that removed duplicates by an isomorphism search.
"""

import json
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from homres import linalg, modules
from homres.algebra import (
    Algebra, QuiverPresentation, _not_rad_a, from_quiver, from_table, opposite,
    quotient_algebra, radical_basis,
)
from homres.approx import AddCategory
from homres.endo import endomorphism_algebra
from homres.errors import SearchExhausted
from homres.modules import (
    EXHAUSTIVE_CAP, UNDECIDED, Module, _fitting_split, _is_simple, _nonzero_vectors,
    _quotient_on_rows, _rad_span, _vertex_projectives, is_isomorphic,
    regular_module, simple_modules, sum_module, validate_module,
)
from homres.resolutions import EXCEEDS_BOUND, gl_dim
from homres.workspace import bundled_workspace_path, parse_workspace

from test_algebra import dual_numbers, truncated_cubic, two_vertex_line
from test_endo_blocks import change_basis, linear, skew_dual_numbers, uniserial

PRIMES = (2, 3, 5, 7)
LARGE_PRIMES = (257, 65537, 1048573)


# -- oracles --------------------------------------------------------------------


def _spin_is_simple(x: Module) -> bool:
    """Exhaustive check: every nonzero vector generates the whole module."""
    p, d = x.p, x.dim
    if d == 0:
        return False
    if d == 1:
        return True
    if p ** d > EXHAUSTIVE_CAP:
        raise SearchExhausted(f"simplicity check needs p^dim <= {EXHAUSTIVE_CAP}")
    # the rows of x.action @ v are the b_i . v
    return all(linalg.rank((x.action @ v) % p, p) == d
               for v in _nonzero_vectors(d, p))


def _declared_simples(a):
    """The vertex simples from_quiver declared, as simple_modules built them;
    opposite carried them over unchanged."""
    simple_actions = []
    for v in range(len(a.idempotents)):
        acts = [np.array([[1 if (i == v) else 0]], dtype=np.int64) for i in range(a.dim)]
        simple_actions.append(acts)
    out = []
    for acts in simple_actions:
        d = acts[0].shape[0]
        action = np.stack([np.asarray(m, dtype=np.int64) % a.p for m in acts])
        out.append(validate_module(Module(a, d, action)))
    return out


def _split_by_isomorphism_search(a):
    """A/rad split by Fitting's lemma, each factor spin-checked simple, and
    duplicates removed by is_isomorphic."""
    rad = radical_basis(a)
    q, proj, _ = quotient_algebra(a, rad)
    reg = regular_module(q)

    def decompose(v):
        if v.dim == 0:
            return []
        split = _fitting_split(v)
        if split is None:  # v is indecomposable
            if not _spin_is_simple(v):
                raise _not_rad_a(a)
            return [v]
        left, right = split
        return decompose(left) + decompose(right)

    factors = decompose(reg)
    pulled = []
    for f in factors:
        action = linalg.mat_mul(proj.T, f.action.reshape(q.dim, f.dim * f.dim), a.p)
        pulled.append(validate_module(Module(a, f.dim, action.reshape(a.dim, f.dim, f.dim))))
    out = []
    for s in pulled:
        dup = False
        for t in out:
            verdict = is_isomorphic(s, t)
            if verdict is True:
                dup = True
                break
            if verdict is UNDECIDED:
                raise SearchExhausted("could not decide isomorphism between simple factors")
        if not dup:
            out.append(s)
    return out


def _outcome(fn, *args):
    """fn(*args), or the type of the exception it raised."""
    try:
        return fn(*args)
    except Exception as e:  # compared by type against the oracle's
        return type(e)


# -- inputs ---------------------------------------------------------------------


def _as_table(a, radical="keep"):
    """a as a table algebra: no idempotents, its radical kept, or dropped."""
    structure = [(i, j, k, int(a.mult[i, j, k])) for i, j, k in np.argwhere(a.mult)]
    rad = None if radical is None else (a.radical.tolist() if radical == "keep" else radical)
    return from_table(a.p, a.dim, structure, a.unit.tolist(), radical=rad)


def field_p2(p):
    """GF(p^2) as a table algebra: the skew dual numbers modulo their radical."""
    skew = skew_dual_numbers(p)
    return _as_table(quotient_algebra(skew, skew.radical)[0], radical=[])


def non_basic_b(p):
    """B for the summands [A, k, k] over the dual numbers: three vertices,
    two of them with the same 2-dimensional top."""
    a = dual_numbers(p)
    reg, k = regular_module(a), simple_modules(a)[0]
    return endomorphism_algebra(AddCategory([reg, k, k])).b


def _tops(b):
    """Every top P_v/rad·P_v, duplicates included."""
    rad = radical_basis(b)
    return [_quotient_on_rows(pv, _rad_span(pv, rad)[0])[0] for _, pv in _vertex_projectives(b)]


def _certificate_inputs(p):
    """Modules the spin check decides at p: simple, decomposable with a
    simple count (k ⊕ k), indecomposable with End a field (P_0 of A_2), and
    simples with End(S) = GF(p^2)."""
    mods = []
    for name in ("kx2", "kx3", "a2-hereditary"):
        with open(bundled_workspace_path(name), encoding="utf-8") as fh:
            doc = json.load(fh)
        doc["p"] = p
        ws = parse_workspace(doc)
        mods += [ws.module(n) for n in ws.modules]
    a = dual_numbers(p)
    reg, k = regular_module(a), simple_modules(a)[0]
    mods += [sum_module([k, k]), sum_module([reg, k])]
    b = non_basic_b(p)
    mods += _tops(b) + [regular_module(b)]
    skew = skew_dual_numbers(p)
    mods += [regular_module(skew), regular_module(field_p2(p))]
    return [x for x in mods if p ** x.dim <= EXHAUSTIVE_CAP]


# -- the certificate --------------------------------------------------------------


@pytest.mark.parametrize("p", PRIMES)
def test_is_simple_matches_the_spin_check_on_every_input(p):
    verdicts = [(_is_simple(x), _spin_is_simple(x)) for x in _certificate_inputs(p)]
    assert all(got == want for got, want in verdicts)
    assert {got for got, _ in verdicts} == {True, False}


@settings(max_examples=80, deadline=None)
@given(p=st.sampled_from(PRIMES), pick=st.integers(0, 10 ** 6),
       seed=st.integers(0, 2 ** 32 - 1))
def test_is_simple_matches_the_spin_check_on_conjugates(p, pick, seed):
    mods = _certificate_inputs(p)
    x = change_basis(mods[pick % len(mods)], np.random.default_rng(seed))
    assert _is_simple(x) == _spin_is_simple(x)


@pytest.mark.parametrize("p", LARGE_PRIMES)
def test_the_certificate_needs_both_checks(p):
    # where the spin check cannot run
    a = dual_numbers(p)
    k = simple_modules(a)[0]
    # k ⊕ k: rank 1 · dim End 4 = 2², but End = M_2(GF(p)) is no field
    assert not _is_simple(sum_module([k, k]))
    # P_0 of A_2: End = GF(p) is a field, but rank 3 · 1 < 2²
    p0 = _vertex_projectives(two_vertex_line(p))[0][1]
    assert not _is_simple(p0)
    assert _is_simple(regular_module(field_p2(p)))
    assert not _is_simple(regular_module(skew_dual_numbers(p)))


# -- the tops ---------------------------------------------------------------------


def _quiver_algebras(p):
    loops = from_quiver(QuiverPresentation(vertices=2, arrows=[(0, 0), (0, 1)],
                                           relations=[(0, 0), (0, 1)]), p)
    out = [dual_numbers(p), truncated_cubic(p), two_vertex_line(p), uniserial(4, p)[0],
           linear(4, p)[0], loops]
    return out + [opposite(a) for a in out]


@pytest.mark.parametrize("p", PRIMES + LARGE_PRIMES)
def test_quiver_simples_are_the_declared_ones_bit_for_bit(p):
    for a in _quiver_algebras(p):
        got, want = simple_modules(a), _declared_simples(a)
        assert len(got) == len(want)
        for s, t in zip(got, want):
            assert s.algebra is a and s.dim == t.dim == 1
            assert s.action.dtype == t.action.dtype and np.array_equal(s.action, t.action)


@pytest.mark.parametrize("p", PRIMES)
def test_tops_keep_one_simple_per_isomorphism_class(p):
    b = non_basic_b(p)
    tops, sims = _tops(b), simple_modules(b)
    assert [s.dim for s in tops] == [1, 2, 2] and [s.dim for s in sims] == [1, 2]
    assert np.array_equal(sims[1].action, tops[1].action)
    assert is_isomorphic(tops[1], tops[2]) is True
    for s in tops:
        assert sum(is_isomorphic(s, t) is True for t in sims) == 1


@pytest.mark.parametrize("p", (251,) + LARGE_PRIMES)
def test_gl_dim_of_b_is_decided_at_large_primes(p):
    b = non_basic_b(p)
    start = time.perf_counter()
    assert gl_dim(b, 10) == 2
    assert time.perf_counter() - start < 1
    reg = regular_module(skew_dual_numbers(p))
    b = endomorphism_algebra(AddCategory([reg])).b
    assert gl_dim(b, 10) == EXCEEDS_BOUND


# -- the split of A/rad -------------------------------------------------------------


def _table_algebras(p):
    """Fresh table algebras: the split clears a supplied radical's mark."""
    q = two_vertex_line(p)
    mat = np.zeros((4, 4, 4), dtype=np.int64)  # M_2(GF(p)) on matrix units
    for r, c, t in np.ndindex(2, 2, 2):
        mat[2 * r + c, 2 * c + t, 2 * r + t] = 1
    product = np.zeros((2, 2, 2), dtype=np.int64)  # GF(p) x GF(p)
    product[0, 0, 0] = product[1, 1, 1] = 1
    out = [_as_table(q), _as_table(q, radical=None), _as_table(dual_numbers(p)),
           _as_table(truncated_cubic(p)), _as_table(linear(3, p)[0]),
           Algebra(p=p, dim=4, mult=mat, unit=np.array([1, 0, 0, 1])),
           Algebra(p=p, dim=2, mult=product, unit=np.array([1, 1])),
           skew_dual_numbers(p), field_p2(p), _as_table(non_basic_b(p))]
    gf4 = from_table(2, 2, [(0, 0, 0, 1), (0, 1, 1, 1), (1, 0, 1, 1), (1, 1, 0, 1),
                            (1, 1, 1, 1)], [1, 0], radical=[])
    return out + [gf4] if p == 2 else out


@pytest.mark.parametrize("p", PRIMES)
def test_table_simples_match_the_isomorphism_search_split(p):
    for got_a, want_a in zip(_table_algebras(p), _table_algebras(p)):
        got = _outcome(simple_modules, got_a)
        want = _outcome(_split_by_isomorphism_search, want_a)
        if isinstance(want, type):
            assert got is want
            continue
        assert len(got) == len(want)
        for s, t in zip(got, want):
            assert s.algebra is got_a and s.dim == t.dim
            assert s.action.dtype == t.action.dtype and np.array_equal(s.action, t.action)


@pytest.mark.parametrize("p", LARGE_PRIMES[:2])
def test_a_simple_quotient_needs_no_splitting_search(p):
    # End(S) = GF(p^2) has p^2 > 2^16 elements: the sampled Fitting search
    # found no splitting endomorphism and raised SearchExhausted
    for a in (field_p2(p), skew_dual_numbers(p)):
        assert _outcome(_split_by_isomorphism_search, a) is SearchExhausted
        (s,) = simple_modules(a)
        assert s.dim == 2 and _is_simple(s)


def test_the_tops_are_computed_once_per_algebra(monkeypatch):
    # loading a2-hereditary builds its two `simple` module specs, and gl_dim
    # takes the same simples: each of the two tops is certified once
    certified = []

    def counting(x):
        certified.append(x.dim)
        return is_simple(x)

    is_simple = modules._is_simple
    monkeypatch.setattr(modules, "_is_simple", counting)
    with open(bundled_workspace_path("a2-hereditary"), encoding="utf-8") as fh:
        ws = parse_workspace(json.load(fh))
    assert gl_dim(ws.algebras["A"], 4) == 1
    assert certified == [1, 1]
    assert simple_modules(ws.algebras["A"]) is not simple_modules(ws.algebras["A"])
