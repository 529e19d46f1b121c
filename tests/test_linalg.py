import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from homres import linalg
from homres.errors import InvalidInput


def test_check_modulus_rejects_composite_and_huge():
    with pytest.raises(InvalidInput):
        linalg.check_modulus(4)
    with pytest.raises(InvalidInput):
        linalg.check_modulus(1)
    with pytest.raises(InvalidInput):
        linalg.check_modulus((1 << 20) + 7)
    linalg.check_modulus(2)
    linalg.check_modulus(1048573)  # largest prime below 2^20


def test_rref_hand_example_gf5():
    # Hand elimination over GF(5):
    # [1 2 3]      [1 0 2]   (r2 -= 4 r1 -> [0 3 4]; scale by 3^-1=2 -> [0 1 3];
    # [4 1 1]  ->  [0 1 3]    r1 -= 2 r2 -> [1 0 -3] = [1 0 2])
    m = [[1, 2, 3], [4, 1, 1]]
    r, piv = linalg.rref(m, 5)
    assert piv == [0, 1]
    assert r.tolist() == [[1, 0, 2], [0, 1, 3]]


def test_rank_and_kernel_consistency():
    rng = np.random.default_rng(0)
    for p in (2, 3, 7, 101):
        for _ in range(10):
            m = rng.integers(0, p, size=(4, 6))
            k = linalg.kernel_basis(m, p)
            assert k.shape[0] == 6 - linalg.rank(m, p)
            assert not np.any((np.asarray(m) @ k.T) % p)


def test_kernel_basis_hand_example():
    # x + y = 0 over GF(3): kernel spanned by (2, 1) after normalization
    k = linalg.kernel_basis([[1, 1]], 3)
    assert k.tolist() == [[2, 1]]


def test_solve_free_variables_zero():
    # Underdetermined: x0 + x1 = 1 over GF(7); deterministic answer sets the
    # free variable x1 = 0.
    x = linalg.solve_linear([[1, 1]], [1], 7)
    assert x.tolist() == [[1], [0]]


def test_solve_inconsistent_returns_none():
    assert linalg.solve_linear([[1], [1]], [1, 2], 5) is None


def test_solve_matrix_rhs():
    a = [[2, 1], [1, 1]]
    b = [[1, 0], [0, 1]]
    x = linalg.solve_linear(a, b, 7)
    assert ((np.array(a) @ x) % 7).tolist() == b


@pytest.mark.parametrize("p", [2, 3, 11, 1048573])
@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_inverse_round_trip(p, n):
    rng = np.random.default_rng([p, n])
    for trial in range(20):
        m = rng.integers(0, p, size=(n, n))
        if trial % 4 == 0:
            # forced singular: one row a multiple of another, or zero when n = 1
            m[-1] = (rng.integers(0, p) * m[0]) % p if n > 1 else 0
        inv = linalg.inverse(m, p)
        if linalg.rank(m, p) < n:
            assert inv is None
        else:
            assert inv is not None
            assert ((m @ inv) % p).tolist() == np.eye(n, dtype=int).tolist()
            assert ((inv @ m) % p).tolist() == np.eye(n, dtype=int).tolist()


def test_mat_pow():
    m = np.array([[1, 1], [0, 1]], dtype=np.int64)
    assert linalg.mat_pow(m, 5, 3)[0, 1] == 5 % 3
    assert linalg.mat_pow(m, 0, 3).tolist() == [[1, 0], [0, 1]]
    stack = np.random.default_rng(0).integers(0, 7, size=(5, 3, 3))
    for e in (1, 2, 7, 49):
        assert np.array_equal(linalg.mat_pow(stack, e, 7),
                              [linalg.mat_pow(x, e, 7) for x in stack])


def test_determinism_bit_identical():
    rng = np.random.default_rng(2)
    m = rng.integers(0, 13, size=(5, 8))
    k1 = linalg.kernel_basis(m, 13)
    k2 = linalg.kernel_basis(m.copy(), 13)
    assert np.array_equal(k1, k2)


def test_check_modulus_checks_the_bound_before_primality():
    # trial division of this Mersenne prime would run for about 2^30 steps
    with pytest.raises(InvalidInput, match="exceeds"):
        linalg.check_modulus((1 << 61) - 1)


def test_mat_mul_refuses_an_inner_dimension_that_overflows_int64():
    p = 1048573
    n = 1 << 24  # n * (p-1)^2 > 2^63; broadcast views allocate nothing
    a = np.broadcast_to(np.int64(p - 1), (1, n))
    b = np.broadcast_to(np.int64(p - 1), (n, 1))
    with pytest.raises(InvalidInput, match="inner dimension"):
        linalg.mat_mul(a, b, p)
    c = np.full((1, 8), p - 1, dtype=np.int64)
    assert linalg.mat_mul(c, c.T, p).tolist() == [[8 % p]]


# -- the row-by-row elimination, kept as the reference for rref -------------------


def reference_rref(m, p):
    a = linalg.as_matrix(m, p)
    rows, cols = a.shape
    r = 0
    pivots = []
    for c in range(cols):
        piv = None
        for i in range(r, rows):
            if a[i, c]:
                piv = i
                break
        if piv is None:
            continue
        if piv != r:
            a[[r, piv]] = a[[piv, r]]
        inv = pow(int(a[r, c]), p - 2, p)
        a[r] = (a[r] * inv) % p
        for i in np.nonzero(a[:, c])[0]:
            if i != r:
                a[i] = (a[i] - a[i, c] * a[r]) % p
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return a, pivots


def reference_kernel_basis(m, p):
    a = linalg.as_matrix(m, p)
    cols = a.shape[1]
    r, pivots = reference_rref(a, p)
    free = [c for c in range(cols) if c not in set(pivots)]
    basis = linalg.zeros(len(free), cols)
    for idx, f in enumerate(free):
        basis[idx, f] = 1
        for i, c in enumerate(pivots):
            basis[idx, c] = (-r[i, f]) % p
    return basis


def reference_solve_linear(a, b, p):
    a = linalg.as_matrix(a, p)
    b = np.asarray(b, dtype=np.int64) % p
    if b.ndim == 1:
        b = b.reshape(-1, 1)
    n = a.shape[1]
    r, pivots = reference_rref(np.hstack([a, b]), p)
    if pivots and pivots[-1] >= n:
        return None
    x = linalg.zeros(n, b.shape[1])
    for i, c in enumerate(pivots):
        x[c] = r[i, n:]
    return x


PRIMES = (2, 3, 7, 1048573)

SHAPES = st.one_of(
    st.tuples(st.integers(0, 8), st.integers(0, 8)),   # empty, 1xn, nx1, square
    st.tuples(st.integers(9, 40), st.integers(1, 4)),  # tall
    st.tuples(st.integers(1, 4), st.integers(9, 40)),  # wide
)


@st.composite
def matrices(draw, shape=SHAPES):
    """(m, p): mostly reduced entries, some zeros, some to be reduced mod p."""
    p = draw(st.sampled_from(PRIMES))
    entry = st.one_of(st.just(0), st.integers(0, p - 1),
                      st.integers(-2 * p, 2 * p))
    m = draw(hnp.arrays(np.int64, draw(shape), elements=entry))
    return m, p


@settings(max_examples=300, deadline=None)
@given(mp=matrices())
def test_rref_matches_the_row_by_row_reference(mp):
    m, p = mp
    before = m.copy()
    r, pivots = linalg.rref(m, p)
    want, want_pivots = reference_rref(m, p)
    assert pivots == want_pivots
    assert r.dtype == np.int64 and np.array_equal(r, want)
    assert np.array_equal(m, before)  # the input is not eliminated in place


@settings(max_examples=200, deadline=None)
@given(mp=matrices(), seed=st.integers(0, 2 ** 32 - 1))
def test_rref_is_canonical_under_invertible_row_operations(mp, seed):
    m, p = mp
    n = m.shape[0]
    rng = np.random.default_rng(seed)
    # G = L U with unit-lower L and upper U of nonzero diagonal is invertible
    lower = np.tril(rng.integers(0, p, size=(n, n)), -1) + np.eye(n, dtype=np.int64)
    upper = np.triu(rng.integers(0, p, size=(n, n)), 1) + np.diag(
        rng.integers(1, p, size=n))
    g = linalg.mat_mul(lower, upper, p)
    r, pivots = linalg.rref(linalg.mat_mul(g, linalg.as_matrix(m, p), p), p)
    want, want_pivots = linalg.rref(m, p)
    assert pivots == want_pivots
    k = len(pivots)
    assert np.array_equal(r[:k], want[:k])
    assert not np.any(r[k:]) and not np.any(want[k:])


@settings(max_examples=200, deadline=None)
@given(mp=matrices(), data=st.data())
def test_kernel_and_solve_match_the_reference(mp, data):
    m, p = mp
    assert np.array_equal(linalg.kernel_basis(m, p), reference_kernel_basis(m, p))
    width = data.draw(st.integers(1, 3))
    b = data.draw(hnp.arrays(np.int64, (m.shape[0], width),
                             elements=st.integers(-p, 2 * p)))
    if m.shape[0] and data.draw(st.booleans()):
        b = linalg.mat_mul(linalg.as_matrix(m, p),
                           np.ones((m.shape[1], width), dtype=np.int64), p)
    x = linalg.solve_linear(m, b, p)
    want = reference_solve_linear(m, b, p)
    if want is None:
        assert x is None
    else:
        assert np.array_equal(x, want)
