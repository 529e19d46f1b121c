"""Exact dense linear algebra over the prime field GF(p).

All matrices are numpy int64 arrays with entries reduced mod p.  Everything
here is pure and deterministic; kernels and solutions are normalized from the
reduced row-echelon form so repeated runs are bit-identical.

Every elimination goes through ``rref``.  It clears a pivot column with one
broadcast row update over all the rows that have a nonzero entry in that
column, rather than one row at a time, and touches only the columns from the
pivot rightwards.  Each updated entry is a - b*c with a, b, c < p, the same
arithmetic as a row-by-row loop, so the result is bit-identical to it.
"""

from __future__ import annotations

import functools
from bisect import bisect_left
from typing import List, Optional, Tuple

import numpy as np

from .errors import InvalidInput

# p <= 2^20 keeps each product below 2^40, so an int64 dot product is exact up
# to a length of about 2^23 before it must be reduced mod p; mat_mul checks
# that length.
MAX_MODULUS = 1 << 20

_INT64_MAX = (1 << 63) - 1
# the longest inner dimension that is exact for every supported modulus
_SAFE_INNER = _INT64_MAX // (MAX_MODULUS - 1) ** 2


@functools.lru_cache(maxsize=None)
def is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


def check_modulus(p: int) -> None:
    if not isinstance(p, (int, np.integer)):
        raise InvalidInput(f"modulus {p!r} is not prime")
    # the bound comes first: it keeps trial division short and the memo of
    # is_prime small
    if p > MAX_MODULUS:
        raise InvalidInput(f"modulus {p} exceeds supported bound {MAX_MODULUS}")
    if not is_prime(int(p)):
        raise InvalidInput(f"modulus {p!r} is not prime")


def as_matrix(entries, p: int, rows: Optional[int] = None, cols: Optional[int] = None) -> np.ndarray:
    """Coerce to a validated 2-D int64 array reduced mod p (a new array)."""
    return _int_matrix(entries, p, rows, cols) % p


def _int_matrix(entries, p: int, rows: Optional[int] = None,
                cols: Optional[int] = None) -> np.ndarray:
    """as_matrix without the reduction mod p; may share memory with entries."""
    check_modulus(p)
    a = np.asarray(entries, dtype=np.int64)
    if a.ndim != 2:
        raise InvalidInput(f"expected a 2-D matrix, got ndim={a.ndim}")
    if rows is not None and a.shape[0] != rows:
        raise InvalidInput(f"expected {rows} rows, got {a.shape[0]}")
    if cols is not None and a.shape[1] != cols:
        raise InvalidInput(f"expected {cols} cols, got {a.shape[1]}")
    return a


def zeros(rows: int, cols: int) -> np.ndarray:
    return np.zeros((rows, cols), dtype=np.int64)


def identity(n: int) -> np.ndarray:
    return np.eye(n, dtype=np.int64)


def mat_mul(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """(a @ b) mod p for reduced a, b.

    The int64 product is exact only while inner * (p-1)^2 < 2^63, so a longer
    inner dimension is refused before the product is formed.
    """
    inner = a.shape[-1]
    if inner > _SAFE_INNER and inner * (int(p) - 1) ** 2 > _INT64_MAX:
        raise InvalidInput(
            f"inner dimension {inner} overflows int64 products mod {p}")
    return (a @ b) % p


def rref(m, p: int) -> Tuple[np.ndarray, List[int]]:
    """Reduced row-echelon form and pivot columns.  rank = len(pivots).

    Column by column: the pivot is the first row at or below r with a nonzero
    entry in the column; it is swapped into row r and scaled to 1, and every
    other row with a nonzero entry there is cleared in one broadcast update.
    Row r is zero left of the pivot column, so only the columns from it
    rightwards are touched.  Each updated entry is a single product below
    p^2 <= 2^40 subtracted from a reduced entry, so unlike mat_mul the
    update needs no overflow guard.
    """
    a = as_matrix(m, p)
    rows, cols = a.shape
    r = 0
    pivots: List[int] = []
    for c in range(cols):
        if r == rows:
            break
        hit = a[:, c].nonzero()[0]
        # bisect beats ndarray.searchsorted on the short hit lists that
        # dominate small systems
        k = bisect_left(hit, r)
        if k == len(hit):
            continue
        piv = hit[k]
        if piv != r:
            a[[r, piv], c:] = a[[piv, r], c:]
        row = a[r, c:]
        if row[0] != 1:
            row *= pow(int(row[0]), p - 2, p)
            row %= p
        if len(hit) > 1:
            # row piv now holds the old row r, which is zero in column c
            hit = hit[hit != piv]
            a[hit, c:] = (a[hit, c:] - a[hit, c, None] * row) % p
        pivots.append(c)
        r += 1
    return a, pivots


def rank(m, p: int) -> int:
    return len(rref(m, p)[1])


def kernel_basis(m, p: int) -> np.ndarray:
    """Rows form a basis of the right null space {v : m v = 0}.

    Row count = cols - rank(m); ordered by free column index.
    """
    return _null_rows(m, p)[0]


def quotient_basis(rows, p: int) -> Tuple[np.ndarray, np.ndarray]:
    """GF(p)^n modulo the row span of rows, on the non-pivot coordinates.

    Returns (proj, lift): proj (q x n) sends a vector to its class, lift
    (n x q) includes the non-pivot coordinates; proj @ lift = I.  proj is the
    kernel basis of rows: e_c minus the pivot-column entries that reduce it.
    """
    proj, free = _null_rows(rows, p)
    return proj, identity(proj.shape[1])[:, free]


def _null_rows(m, p: int) -> Tuple[np.ndarray, np.ndarray]:
    """kernel_basis(m) and the free column of each of its rows."""
    r, pivots = rref(m, p)
    is_free = np.ones(r.shape[1], dtype=bool)
    is_free[pivots] = False
    free = is_free.nonzero()[0]
    basis = zeros(free.size, r.shape[1])
    basis[np.arange(free.size), free] = 1
    basis[:, pivots] = (-r[:len(pivots), free].T) % p
    return basis, free


def solve_linear(a, b, p: int) -> Optional[np.ndarray]:
    """Solve a x = b columnwise; free variables are set to 0.

    Returns None when the system is inconsistent.  b may be a matrix (each
    column solved simultaneously) and must have a.rows rows.
    """
    a = _int_matrix(a, p)
    b = np.asarray(b, dtype=np.int64)
    if b.ndim == 1:
        b = b.reshape(-1, 1)
    if b.shape[0] != a.shape[0]:
        raise InvalidInput(f"dimension mismatch: a has {a.shape[0]} rows, b has {b.shape[0]}")
    n = a.shape[1]
    r, pivots = rref(np.hstack([a, b]), p)
    if pivots and pivots[-1] >= n:
        return None
    x = zeros(n, b.shape[1])
    x[pivots] = r[:len(pivots), n:]
    return x


def inverse(m, p: int) -> Optional[np.ndarray]:
    a = as_matrix(m, p)
    if a.shape[0] != a.shape[1]:
        return None
    # a consistent a x = I for square a already proves a invertible
    return solve_linear(a, identity(a.shape[0]), p)


def is_invertible(m, p: int) -> bool:
    a = as_matrix(m, p)
    return a.shape[0] == a.shape[1] and rank(a, p) == a.shape[0]


def mat_pow(m: np.ndarray, e: int, p: int) -> np.ndarray:
    """m^e mod p for a square matrix m, or for each matrix of a stack m when e >= 1."""
    out = identity(m.shape[-1])
    base = m % p
    while e:
        if e & 1:
            out = mat_mul(out, base, p)
        base = mat_mul(base, base, p)
        e >>= 1
    return out

