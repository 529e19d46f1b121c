import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from homres import linalg
from homres.algebra import (
    Algebra,
    QuiverPresentation,
    from_quiver,
    from_table,
    opposite,
    quotient_algebra,
    radical_basis,
    validate_algebra,
    validate_radical,
)
from homres.errors import InvalidInput, NotFiniteDimensional


def dual_numbers(p):
    """k[x]/(x^2) as a quiver: one vertex, one loop, loop^2 = 0."""
    q = QuiverPresentation(vertices=1, arrows=[(0, 0)], relations=[(0, 0)])
    return from_quiver(q, p)


def truncated_cubic(p):
    q = QuiverPresentation(vertices=1, arrows=[(0, 0)], relations=[(0, 0, 0)])
    return from_quiver(q, p)


def two_vertex_line(p):
    """Path algebra of 0 -> 1 (hereditary, dim 3)."""
    q = QuiverPresentation(vertices=2, arrows=[(0, 1)], relations=[])
    return from_quiver(q, p)


def test_dual_numbers_structure():
    a = dual_numbers(5)
    assert a.dim == 2
    # basis: e0, x with x*x = 0
    x = np.array([0, 1], dtype=np.int64)
    assert a.multiply(x, x).tolist() == [0, 0]
    assert a.multiply(a.unit, x).tolist() == [0, 1]
    assert a.radical.tolist() == [[0, 1]]


def test_truncated_cubic_structure():
    a = truncated_cubic(3)
    assert a.dim == 3
    x = np.array([0, 1, 0], dtype=np.int64)
    x2 = a.multiply(x, x)
    assert x2.tolist() == [0, 0, 1]
    assert a.multiply(x, x2).tolist() == [0, 0, 0]


def test_two_vertex_line():
    a = two_vertex_line(2)
    assert a.dim == 3
    # composition convention: for the arrow u: 0 -> 1, e1 * u = u = u * e0
    e0 = np.array([1, 0, 0], dtype=np.int64)
    e1 = np.array([0, 1, 0], dtype=np.int64)
    u = np.array([0, 0, 1], dtype=np.int64)
    assert a.multiply(e1, u).tolist() == u.tolist()
    assert a.multiply(u, e0).tolist() == u.tolist()
    assert a.multiply(u, e1).tolist() == [0, 0, 0]
    assert a.multiply(e0, u).tolist() == [0, 0, 0]


def test_infinite_quiver_raises():
    q = QuiverPresentation(vertices=1, arrows=[(0, 0)], relations=[])
    with pytest.raises(NotFiniteDimensional):
        from_quiver(q, 2)


def test_two_loop_commutative_truncation_finite():
    # two loops a, b with all length-2 products zero: dim = 3
    q = QuiverPresentation(
        vertices=1, arrows=[(0, 0), (0, 0)],
        relations=[(0, 0), (0, 1), (1, 0), (1, 1)])
    a = from_quiver(q, 3)
    assert a.dim == 3


def test_bad_relation_rejected():
    with pytest.raises(InvalidInput):
        QuiverPresentation(vertices=2, arrows=[(0, 1)], relations=[(0, 0)])


def test_validate_algebra_catches_broken_associativity():
    a = two_vertex_line(5)
    bad = a.mult.copy()
    bad[2, 2, 0] = 1  # declare u*u = e0: then (u*u)*u = 0 but u*(u*u) = u
    broken = Algebra(p=5, dim=3, mult=bad, unit=a.unit)
    with pytest.raises(InvalidInput, match="associativity"):
        validate_algebra(broken)


def test_validate_algebra_catches_broken_unit():
    a = dual_numbers(5)
    broken = Algebra(p=5, dim=2, mult=a.mult, unit=np.array([0, 1]))
    with pytest.raises(InvalidInput, match="unit"):
        validate_algebra(broken)


def test_from_table_matches_quiver():
    # k[x]/(x^2) entered as a raw table
    a = from_table(7, 2, [(0, 0, 0, 1), (0, 1, 1, 1), (1, 0, 1, 1)], unit=[1, 0],
                   radical=[[0, 1]])
    b = dual_numbers(7)
    assert np.array_equal(a.mult, b.mult)


def test_opposite_involution_and_convention():
    a = two_vertex_line(3)
    op = opposite(a)
    validate_algebra(op)
    u = np.array([0, 0, 1], dtype=np.int64)
    e0 = np.array([1, 0, 0], dtype=np.int64)
    # in A^op, e0 * u = u (reversed from A)
    assert op.multiply(e0, u).tolist() == u.tolist()
    assert np.array_equal(opposite(op).mult, a.mult)


def test_radical_trace_form_large_p():
    # k[x]/(x^2) over GF(7), where the trace form would also find it: span{x}
    a = dual_numbers(7)
    a.radical = None
    rows = radical_basis(a)
    assert rows.tolist() == [[0, 1]]


def test_radical_semisimple_matrix_algebra():
    # M_2(GF(7)) via basis of matrix units: radical is zero
    mult = np.zeros((4, 4, 4), dtype=np.int64)
    # basis e_{rc} at index 2r + c; e_{rc} e_{st} = delta_{cs} e_{rt}
    for r in range(2):
        for c in range(2):
            for s in range(2):
                for t in range(2):
                    if c == s:
                        mult[2 * r + c, 2 * s + t, 2 * r + t] = 1
    a = Algebra(p=7, dim=4, mult=mult, unit=np.array([1, 0, 0, 1]))
    validate_algebra(a)
    assert radical_basis(a).shape[0] == 0


def test_radical_small_p_computed_without_supply():
    # GF(2)[t]/(t^2), where the trace form vanishes: still (t)
    a = dual_numbers(2)
    a.radical = None
    assert radical_basis(a).tolist() == [[0, 1]]


def test_validate_radical_rejects_non_ideal_and_non_nilpotent():
    a = two_vertex_line(5)
    with pytest.raises(InvalidInput):
        validate_radical(a, np.array([[1, 0, 0]]))  # e0 spans no ideal
    ident = linalg.identity(3)
    with pytest.raises(InvalidInput):
        validate_radical(a, ident)  # the whole algebra is not nilpotent


def test_quotient_by_radical():
    a = truncated_cubic(5)
    q, proj, lift = quotient_algebra(a, a.radical)
    assert q.dim == 1
    assert ((proj @ lift) % 5).tolist() == [[1]]
    assert q.unit.tolist() == [1]


def test_quiver_simple_actions():
    from homres.modules import simple_modules
    a = two_vertex_line(3)
    sims = simple_modules(a)
    assert len(sims) == 2
    # simple at vertex 0: e0 acts as 1, e1 and the arrow act as 0
    s0 = sims[0].action
    assert s0[0].tolist() == [[1]]
    assert s0[1].tolist() == [[0]]
    assert s0[2].tolist() == [[0]]


@settings(max_examples=40, deadline=None)
@given(dim=st.integers(1, 16), seed=st.integers(0, 2 ** 32 - 1))
def test_multiply_matches_python_int_oracle_near_max_modulus(dim, seed):
    p = 1048573  # the largest prime below linalg.MAX_MODULUS
    rng = np.random.default_rng(seed)
    mult = rng.integers(0, p, size=(dim, dim, dim))
    u, v = rng.integers(0, p, size=(2, dim))
    a = Algebra(p=p, dim=dim, mult=mult, unit=np.zeros(dim, dtype=np.int64))
    m, uu, vv = mult.tolist(), u.tolist(), v.tolist()
    want = [sum(uu[i] * vv[j] * m[i][j][k] for i in range(dim) for j in range(dim)) % p
            for k in range(dim)]
    assert a.multiply(u, v).tolist() == want
