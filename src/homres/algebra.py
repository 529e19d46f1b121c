"""Finite-dimensional associative algebras over GF(p).

An algebra is stored by its full structure-constant tensor
``mult[i, j, k]`` meaning  b_i * b_j = sum_k mult[i, j, k] * b_k.

Path algebras of quivers with monomial relations provide the convenient
input syntax; any other algebra enters through a raw table.  The basis of a
quiver algebra lists the trivial paths (one per vertex) first, then the
nonzero paths sorted by (length, arrow sequence).

Path composition convention: in a product q * q' the path q' is traversed
first, so the left projective at vertex v is A*e_v = span of paths starting
at v, and Hom(A e_i, A e_j) is identified with e_i A e_j.

rad A is exact at every prime.  A quiver algebra's is its arrow ideal; any
other algebra's comes from _radical_rows, one commutator quotient and two
kernels (Cohen-Ivanyos-Wales, "Finding the radical of an algebra of linear
transformations", JPAA 1997), which also checks a supplied radical at load.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from . import linalg
from .errors import InvalidInput, NotFiniteDimensional


@dataclass(eq=False)
class Algebra:
    p: int
    dim: int
    mult: np.ndarray                 # (dim, dim, dim)
    unit: np.ndarray                 # (dim,)
    radical: Optional[np.ndarray] = None          # rows spanning rad A
    labels: Optional[List[str]] = None
    # rows: a complete set of orthogonal primitive idempotents e_v, when known
    idempotents: Optional[np.ndarray] = None
    _left: Optional[np.ndarray] = field(default=None, repr=False)
    _right: Optional[np.ndarray] = field(default=None, repr=False)
    # the projectives A*e_v, one per idempotent, built on first use
    _projectives: Optional[list] = field(default=None, repr=False)
    # modules.simple_modules(self), built on first use
    _simples: Optional[list] = field(default=None, repr=False)
    # opposite(self), built on first use
    _opposite: Optional["Algebra"] = field(default=None, repr=False)

    def __post_init__(self):
        linalg.check_modulus(self.p)
        self.mult = np.asarray(self.mult, dtype=np.int64) % self.p
        self.unit = np.asarray(self.unit, dtype=np.int64) % self.p
        if self.mult.shape != (self.dim, self.dim, self.dim):
            raise InvalidInput(f"structure tensor shape {self.mult.shape} != {(self.dim,) * 3}")
        if self.unit.shape != (self.dim,):
            raise InvalidInput(f"unit has shape {self.unit.shape}, expected ({self.dim},)")
        if self.radical is not None:
            self.radical = _row_basis(self.radical, self.p, self.dim)
        if self.idempotents is not None:
            self.idempotents = linalg.as_matrix(self.idempotents, self.p, cols=self.dim)

    # -- multiplication helpers -------------------------------------------------

    def left_mult_matrices(self) -> np.ndarray:
        """L[i] acts on coordinate columns: L[i] @ v = coords of b_i * v."""
        if self._left is None:
            # (L_i)[k, j] = mult[i, j, k]
            self._left = np.transpose(self.mult, (0, 2, 1)).copy()
        return self._left

    def right_mult_matrices(self) -> np.ndarray:
        """R[j] @ v = coords of v * b_j."""
        if self._right is None:
            # (R_j)[k, i] = mult[i, j, k]
            self._right = np.transpose(self.mult, (1, 2, 0)).copy()
        return self._right

    def multiply(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        u = np.asarray(u, dtype=np.int64) % self.p
        v = np.asarray(v, dtype=np.int64) % self.p
        # reduce after each contraction: one triple product can reach p^3
        uv = np.einsum("i,ijk->jk", u, self.mult) % self.p
        return (v @ uv) % self.p


def same_algebra(a: Algebra, b: Algebra) -> bool:
    return (
        a is b
        or (a.p == b.p and a.dim == b.dim
            and np.array_equal(a.mult, b.mult) and np.array_equal(a.unit, b.unit))
    )


def validate_algebra(a: Algebra) -> Algebra:
    """Check associativity and both unit laws; returns the algebra unchanged.

    Raises InvalidInput naming the offending triple or basis index.
    """
    p, n = a.p, a.dim
    left = a.left_mult_matrices()
    ident = linalg.identity(n)
    lu = np.einsum("i,ijk->jk", a.unit, left) % p
    if not np.array_equal(lu, ident):
        bad = int(np.argmax(np.any(lu != ident, axis=0)))
        raise InvalidInput(f"unit law fails: u * b{bad} != b{bad}")
    ru = np.einsum("j,ijk->ik", a.unit, a.mult) % p
    if not np.array_equal(ru, ident):
        bad = int(np.argmax(np.any(ru != ident, axis=1)))
        raise InvalidInput(f"unit law fails: b{bad} * u != b{bad}")
    # column k of L_i L_j is b_i (b_j b_k), of sum_l mult[i, j, l] L_l (b_i b_j) b_k
    bad = _unmultiplicative(a, left)
    if bad is not None:
        raise InvalidInput(f"associativity fails at triple {bad}")
    if a.radical is not None:
        validate_radical(a, a.radical)
    if a.idempotents is not None:
        _validate_idempotents(a)
    return a


def _validate_idempotents(a: Algebra) -> None:
    """Check e_v e_w = delta_vw e_v, e_v != 0 and sum e_v = 1.

    Primitivity is the caller's promise: from_quiver's vertex idempotents
    have it by construction, endomorphism_algebra's summand projections have
    it because each summand's End ring is local.
    """
    p, n, e = a.p, a.dim, a.idempotents
    if not np.array_equal(e.sum(axis=0) % p, a.unit):
        raise InvalidInput("idempotents do not sum to the unit")
    zero = np.flatnonzero(~e.any(axis=1))
    if zero.size:
        raise InvalidInput(f"idempotent {zero[0]} is zero")
    # prods[v, w] = e_v * e_w, as in _ideal_closure_step
    xs = linalg.mat_mul(e, a.mult.reshape(n, n * n), p).reshape(len(e), n, n)
    prods = linalg.mat_mul(e, xs, p)
    want = np.zeros_like(prods)
    want[np.arange(len(e)), np.arange(len(e))] = e
    bad = np.argwhere(np.any(prods != want, axis=2))
    if bad.size:
        v, w = (int(i) for i in bad[0])
        raise InvalidInput(f"idempotents fail e{v} * e{w} = "
                           + (f"e{v}" if v == w else "0"))


def _unmultiplicative(a: Algebra, action: np.ndarray) -> Optional[Tuple[int, int, int]]:
    """The first (i, j) where rho(b_i) rho(b_j) != sum_l mult[i, j, l] rho(b_l),
    and the first column k where they differ; None if rho is multiplicative.
    One (n, d, d) product per i covers every j: no n^4 stack is built."""
    p, n, d = a.p, a.dim, action.shape[1]
    flat = action.reshape(n, d * d)
    for i in range(n):
        differ = (linalg.mat_mul(action[i], action, p)
                  != linalg.mat_mul(a.mult[i], flat, p).reshape(n, d, d))
        bad = np.flatnonzero(differ.any(axis=(1, 2)))
        if bad.size:
            j = int(bad[0])
            return i, j, int(np.flatnonzero(differ[j].any(axis=0))[0])
    return None


def from_table(p: int, dim: int, structure: Sequence[Tuple[int, int, int, int]],
               unit: Sequence[int], radical=None, labels=None) -> Algebra:
    """Build from a sparse (i, j, k, c) structure-constant list and validate.

    radical, when given, must span rad A itself, not just some nilpotent
    ideal: is_projective relies on A/radical being semisimple.  It is checked
    here against _jacobson_radical, at every prime.  An empty list declares
    rad A = 0.
    """
    if dim < 0:
        raise InvalidInput(f"algebra dimension {dim} is negative")
    try:
        mult = np.zeros((dim, dim, dim), dtype=np.int64)
    except (ValueError, MemoryError) as e:  # numpy cannot shape or allocate dim^3 entries
        raise InvalidInput(f"algebra dimension {dim} is too large: {e}") from None
    for i, j, k, c in structure:
        if not (0 <= i < dim and 0 <= j < dim and 0 <= k < dim):
            raise InvalidInput(f"structure entry ({i},{j},{k}) out of range for dim {dim}")
        # c is a GF(p) coefficient: reduce it before it meets int64
        mult[i, j, k] = (mult[i, j, k] + c % p) % p
    a = validate_algebra(Algebra(p=p, dim=dim, mult=mult, unit=np.asarray(unit),
                                 radical=radical, labels=labels))
    # a validated radical is a nilpotent ideal, so it lies in rad A: the same
    # dimension makes it all of rad A
    if radical is not None and len(a.radical) != len(_jacobson_radical(a)):
        raise _not_rad_a(a)
    return a


# -- quivers ---------------------------------------------------------------------


@dataclass
class QuiverPresentation:
    """A quiver with monomial (zero) relations.

    arrows are (source, target) vertex pairs; each relation is a composable
    sequence of arrow indices of length >= 2 declared to be zero.
    """
    vertices: int
    arrows: List[Tuple[int, int]]
    relations: List[Tuple[int, ...]]

    def __post_init__(self):
        self.arrows = [tuple(x) for x in self.arrows]
        self.relations = [tuple(r) for r in self.relations]
        if self.vertices < 0:
            raise InvalidInput(f"vertex count {self.vertices} is negative")
        for s, t in self.arrows:
            if not (0 <= s < self.vertices and 0 <= t < self.vertices):
                raise InvalidInput(f"arrow ({s},{t}) references a missing vertex")
        for r in self.relations:
            if len(r) < 2:
                raise InvalidInput(f"relation {r} has length < 2")
            if not all(0 <= a < len(self.arrows) for a in r):
                raise InvalidInput(f"relation {r} references a missing arrow")
            for m in range(len(r) - 1):
                if self.arrows[r[m]][1] != self.arrows[r[m + 1]][0]:
                    raise InvalidInput(f"relation {r} is not a composable path")


def _path_is_nonzero(arrows_seq: Tuple[int, ...], relations) -> bool:
    for rel in relations:
        L = len(rel)
        for s in range(len(arrows_seq) - L + 1):
            if arrows_seq[s:s + L] == rel:
                return False
    return True


def from_quiver(q: QuiverPresentation, p: int) -> Algebra:
    """Path algebra modulo the monomial relations.

    Basis: trivial paths (one per vertex) first, then nonzero paths ordered by
    (length, arrow sequence).  Raises NotFiniteDimensional when the nonzero
    path set is infinite.
    """
    linalg.check_modulus(p)
    maxrel = max((len(r) for r in q.relations), default=1)
    # paths are (source_vertex, arrow index tuple in traversal order)
    paths: List[Tuple[int, Tuple[int, ...]]] = [(v, ()) for v in range(q.vertices)]
    level = list(paths)
    # Pumping bound: the behaviour of a path under extension depends only on
    # its last (maxrel - 1) arrows, so a nonzero path longer than the number
    # of such suffix states forces an infinite path set.
    state_bound = None
    length = 0
    while level:
        length += 1
        if state_bound is not None and length > state_bound:
            raise NotFiniteDimensional("the quiver admits infinitely many nonzero paths")
        nxt = []
        for src, seq in level:
            end = q.arrows[seq[-1]][1] if seq else src
            for ai, (s, t) in enumerate(q.arrows):
                if s != end:
                    continue
                cand = seq + (ai,)
                if _path_is_nonzero(cand[-maxrel:] if len(cand) > maxrel else cand, q.relations):
                    nxt.append((src, cand))
        nxt.sort()
        paths.extend(nxt)
        level = nxt
        if length == maxrel - 1 or (maxrel == 1 and length == 1):
            # all suffix states are now enumerated
            state_bound = len(paths)
    dim = len(paths)
    index = {pth: i for i, pth in enumerate(paths)}
    mult = np.zeros((dim, dim, dim), dtype=np.int64)
    for i, (src_i, seq_i) in enumerate(paths):
        end_i = q.arrows[seq_i[-1]][1] if seq_i else src_i
        for j, (src_j, seq_j) in enumerate(paths):
            end_j = q.arrows[seq_j[-1]][1] if seq_j else src_j
            if end_j != src_i:
                continue  # q_j then q_i must compose
            cand = (src_j, seq_j + seq_i)
            if _path_is_nonzero(cand[1], q.relations):
                mult[i, j, index[cand]] = 1
    unit = np.zeros(dim, dtype=np.int64)
    unit[:q.vertices] = 1
    radical = linalg.identity(dim)[q.vertices:, :]
    labels = []
    for src, seq in paths:
        if not seq:
            labels.append(f"e{src}")
        else:
            labels.append("*".join(f"a{ai}" for ai in reversed(seq)))
    a = Algebra(p=p, dim=dim, mult=mult, unit=unit, radical=radical, labels=labels,
                idempotents=linalg.identity(dim)[:q.vertices])
    return validate_algebra(a)


# -- opposite, radical, quotient --------------------------------------------------


def opposite(a: Algebra) -> Algebra:
    """Opposite algebra: structure constants transposed in (i, j).

    The radical subspace and the primitive idempotents are the same and are
    carried over.  Built once and cached on a, so its projectives and its
    simple modules are too.
    """
    if a._opposite is None:
        a._opposite = Algebra(
            p=a.p, dim=a.dim, mult=np.transpose(a.mult, (1, 0, 2)).copy(),
            unit=a.unit.copy(), radical=None if a.radical is None else a.radical.copy(),
            labels=a.labels, idempotents=None if a.idempotents is None else a.idempotents.copy())
    return a._opposite


def _ideal_closure_step(a: Algebra, rows: np.ndarray, other: np.ndarray) -> np.ndarray:
    """Row basis of span{x*y : x in rows, y in other} (element products)."""
    p, n = a.p, a.dim
    # x*y = sum_j y_j (sum_i x_i mult[i, j]), reduced after each contraction
    xs = linalg.mat_mul(rows, a.mult.reshape(n, n * n), p).reshape(len(rows), n, n)
    prods = linalg.mat_mul(other, xs, p).reshape(len(rows) * len(other), n)
    r, piv = linalg.rref(prods, p)
    return r[:len(piv)]


def validate_radical(a: Algebra, rows: np.ndarray) -> None:
    """Check rows span a two-sided nilpotent ideal, so lie in rad A."""
    p, n = a.p, a.dim
    rows = _row_basis(rows, p, n)
    if rows.shape[0]:
        # prods[r, i, side] is b_i * r (side 0) or r * b_i (side 1); it lies in the
        # span of the rref rows iff it equals their sum weighted by its pivot entries
        sides = np.stack([a.mult.transpose(1, 0, 2), a.mult], axis=2)  # [j, i, side, k]
        prods = linalg.mat_mul(rows, sides.reshape(n, 2 * n * n), p).reshape(-1, n, 2, n)
        pivots = np.argmax(rows != 0, axis=1)
        spanned = linalg.mat_mul(prods[..., pivots], rows, p)
        escapes = np.flatnonzero(np.any(prods != spanned, axis=3))
        if escapes.size:
            i, side = divmod(int(escapes[0]) % (2 * n), 2)
            if side == 0:
                raise InvalidInput(f"radical rows are not a left ideal (b{i} * row escapes)")
            raise InvalidInput(f"radical rows are not a right ideal (row * b{i} escapes)")
    power = rows
    while power.shape[0]:
        nxt = _ideal_closure_step(a, power, rows)
        if nxt.shape[0] == power.shape[0]:
            # successive powers of an ideal shrink until zero; a nonzero
            # fixed point can never reach zero
            raise InvalidInput("radical rows do not span a nilpotent ideal")
        power = nxt


def _not_rad_a(a: Algebra) -> InvalidInput:
    """The error for a supplied radical smaller than rad A."""
    return InvalidInput(
        f"the radical supplied for a dim-{a.dim} algebra over GF({a.p}) is "
        "not rad A: A/radical is not semisimple")


def _radical_rows(mult: np.ndarray, powers: np.ndarray, p: int) -> np.ndarray:
    """Rows spanning rad A for the algebra with table mult, given powers[i],
    the coordinates of b_i^q, q a power of p at least A's nilpotency index.

    x |-> x^q is linear modulo the span C of the commutators and maps C into
    itself (Jacobson's formula), so K = {x : x^q in C} is a subspace; it
    holds J = rad A (x^q = 0) and C.  Modulo J, K is the trace-zero part
    of each matrix block of A/J, which holds no nonzero left ideal.  So J is
    the largest left ideal in K, {x : b_i·x in K for every i}.
    """
    n = len(mult)
    if n == 0:
        return linalg.zeros(0, 0)
    i, j = np.triu_indices(n, 1)
    mod_c = linalg.quotient_basis((mult[i, j] - mult[j, i]) % p, p)[0]
    # K is the kernel of frob, the coordinates of x^q modulo C
    frob = linalg.mat_mul(mod_c, powers.T, p)
    # (L_i)[k, j] = mult[i, j, k] acts on x as b_i·x
    left = np.transpose(mult, (0, 2, 1))
    return linalg.kernel_basis(linalg.mat_mul(frob, left, p).reshape(-1, n), p)


def _p_power_at_least(p: int, n: int) -> int:
    """The least power of p that is >= n: x^q = 0 for every nilpotent x
    acting on a space of dimension n."""
    q = 1
    while q < n:
        q *= p
    return q


def _jacobson_radical(a: Algebra) -> np.ndarray:
    """rad A by _radical_rows on the regular representation."""
    powers = linalg.mat_pow(a.left_mult_matrices(), _p_power_at_least(a.p, a.dim), a.p)
    return _radical_rows(a.mult, linalg.mat_mul(powers, a.unit, a.p), a.p)


def _row_basis(rows, p: int, cols: int) -> np.ndarray:
    """Independent rows spanning the row space of rows (its reduced form).

    An empty list stands for no rows.
    """
    if np.shape(rows) == (0,):
        return linalg.zeros(0, cols)
    red, piv = linalg.rref(linalg.as_matrix(rows, p, cols=cols), p)
    return red[:len(piv)]


def radical_basis(a: Algebra) -> np.ndarray:
    """Independent rows spanning rad A: the supplied or derived basis when
    present, otherwise _jacobson_radical, computed once and cached."""
    if a.radical is None:
        a.radical = _jacobson_radical(a)
    return a.radical


def quotient_algebra(a: Algebra, ideal_rows: np.ndarray):
    """Quotient A / I on the non-pivot complement basis.

    Returns (Q, proj, lift): proj (qdim x dim) maps coordinates of A onto Q,
    lift (dim x qdim) is the section on the complement basis; proj @ lift = I.
    """
    p = a.p
    proj, lift = linalg.quotient_basis(
        linalg.as_matrix(ideal_rows, p, cols=a.dim), p)
    n, qdim = a.dim, lift.shape[1]
    # lift_i * lift_j as in _ideal_closure_step, then projected onto Q
    xs = linalg.mat_mul(lift.T, a.mult.reshape(n, n * n), p).reshape(qdim, n, n)
    prods = linalg.mat_mul(lift.T, xs, p)
    mult = linalg.mat_mul(prods, proj.T, p)
    q = Algebra(p=p, dim=qdim, mult=mult, unit=(proj @ a.unit) % p)
    return validate_algebra(q), proj, lift
