"""Exact dense linear algebra over the prime field GF(p).

All matrices are numpy int64 arrays with entries reduced mod p.  Everything
here is pure and deterministic; kernels and solutions are normalized from the
reduced row-echelon form so repeated runs are bit-identical.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from .errors import InvalidInput

# p <= 2^20 keeps each product below 2^40, so an int64 dot product is exact up
# to a length of about 2^23 before it must be reduced mod p.
MAX_MODULUS = 1 << 20


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
    if not isinstance(p, (int, np.integer)) or not is_prime(int(p)):
        raise InvalidInput(f"modulus {p!r} is not prime")
    if p > MAX_MODULUS:
        raise InvalidInput(f"modulus {p} exceeds supported bound {MAX_MODULUS}")


def as_matrix(entries, p: int, rows: Optional[int] = None, cols: Optional[int] = None) -> np.ndarray:
    """Coerce to a validated 2-D int64 array reduced mod p."""
    check_modulus(p)
    a = np.asarray(entries, dtype=np.int64)
    if a.ndim != 2:
        raise InvalidInput(f"expected a 2-D matrix, got ndim={a.ndim}")
    if rows is not None and a.shape[0] != rows:
        raise InvalidInput(f"expected {rows} rows, got {a.shape[0]}")
    if cols is not None and a.shape[1] != cols:
        raise InvalidInput(f"expected {cols} cols, got {a.shape[1]}")
    return a % p


def zeros(rows: int, cols: int) -> np.ndarray:
    return np.zeros((rows, cols), dtype=np.int64)


def identity(n: int) -> np.ndarray:
    return np.eye(n, dtype=np.int64)


def mat_mul(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    return (a @ b) % p


def rref(m, p: int) -> Tuple[np.ndarray, List[int]]:
    """Reduced row-echelon form and pivot columns.  rank = len(pivots)."""
    a = as_matrix(m, p)
    rows, cols = a.shape
    r = 0
    pivots: List[int] = []
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


def rank(m, p: int) -> int:
    return len(rref(m, p)[1])


def kernel_basis(m, p: int) -> np.ndarray:
    """Rows form a basis of the right null space {v : m v = 0}.

    Row count = cols - rank(m); ordered by free column index.
    """
    a = as_matrix(m, p)
    cols = a.shape[1]
    r, pivots = rref(a, p)
    pivot_set = set(pivots)
    free = [c for c in range(cols) if c not in pivot_set]
    basis = zeros(len(free), cols)
    for idx, f in enumerate(free):
        basis[idx, f] = 1
        for i, c in enumerate(pivots):
            basis[idx, c] = (-r[i, f]) % p
    return basis


def solve_linear(a, b, p: int) -> Optional[np.ndarray]:
    """Solve a x = b columnwise; free variables are set to 0.

    Returns None when the system is inconsistent.  b may be a matrix (each
    column solved simultaneously) and must have a.rows rows.
    """
    a = as_matrix(a, p)
    b = np.asarray(b, dtype=np.int64) % p
    if b.ndim == 1:
        b = b.reshape(-1, 1)
    if b.shape[0] != a.shape[0]:
        raise InvalidInput(f"dimension mismatch: a has {a.shape[0]} rows, b has {b.shape[0]}")
    n = a.shape[1]
    aug = np.hstack([a, b])
    r, pivots = rref(aug, p)
    if pivots and pivots[-1] >= n:
        return None
    x = zeros(n, b.shape[1])
    for i, c in enumerate(pivots):
        x[c] = r[i, n:]
    return x


def inverse(m, p: int) -> Optional[np.ndarray]:
    a = as_matrix(m, p)
    if a.shape[0] != a.shape[1]:
        return None
    if a.shape[0] == 0:
        return a.copy()
    x = solve_linear(a, identity(a.shape[0]), p)
    if x is None or rank(a, p) != a.shape[0]:
        return None
    return x


def is_invertible(m, p: int) -> bool:
    a = as_matrix(m, p)
    return a.shape[0] == a.shape[1] and rank(a, p) == a.shape[0]


def mat_pow(m: np.ndarray, e: int, p: int) -> np.ndarray:
    out = identity(m.shape[0])
    base = m % p
    while e:
        if e & 1:
            out = mat_mul(out, base, p)
        base = mat_mul(base, base, p)
        e >>= 1
    return out


def row_space_contains(rows: np.ndarray, vec: np.ndarray, p: int) -> bool:
    """Membership of vec in the row span of rows."""
    if rows.shape[0] == 0:
        return not np.any(vec % p)
    return solve_linear(rows.T % p, vec.reshape(-1, 1) % p, p) is not None
