"""Finitely generated left modules as matrix representations.

A module of dimension d over an algebra with basis b_0..b_{n-1} stores one
d x d matrix per basis element, acting on column vectors from the left.
Kernels, cokernels and images pick their bases deterministically from rref
pivots, so every construction is bit-reproducible.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from . import linalg
from .algebra import (
    Algebra, _unmultiplicative, opposite, quotient_algebra, radical_basis, same_algebra,
)
from .errors import InvalidInput, InternalError, SearchExhausted

EXHAUSTIVE_CAP = 1 << 16


class _Undecided:
    """Three-valued outcome for isomorphism tests; truthiness is an error."""

    def __bool__(self):
        raise SearchExhausted("isomorphism test was undecided; handle UNDECIDED explicitly")

    def __repr__(self):
        return "UNDECIDED"


UNDECIDED = _Undecided()


@dataclass(eq=False)
class Module:
    algebra: Algebra
    dim: int
    action: np.ndarray  # (algebra.dim, dim, dim)

    def __post_init__(self):
        self.action = np.asarray(self.action, dtype=np.int64) % self.algebra.p
        if self.action.shape != (self.algebra.dim, self.dim, self.dim):
            raise InvalidInput(
                f"action tensor shape {self.action.shape} != "
                f"{(self.algebra.dim, self.dim, self.dim)}")

    @property
    def p(self) -> int:
        return self.algebra.p

    def act(self, elem: np.ndarray) -> np.ndarray:
        """Matrix by which the algebra element (coordinate vector) acts."""
        elem = np.asarray(elem, dtype=np.int64) % self.p
        return np.einsum("i,ijk->jk", elem, self.action) % self.p


def validate_module(x: Module) -> Module:
    a = x.algebra
    unit_act = x.act(a.unit)
    if not np.array_equal(unit_act, linalg.identity(x.dim)):
        raise InvalidInput("unit does not act as the identity")
    bad = _unmultiplicative(a, x.action)
    if bad is not None:
        raise InvalidInput(f"action is not multiplicative at pair {bad[:2]}")
    return x


@dataclass(eq=False)
class ModuleMap:
    source: Module
    target: Module
    matrix: np.ndarray  # (target.dim, source.dim)

    def __post_init__(self):
        if not same_algebra(self.source.algebra, self.target.algebra):
            raise InvalidInput("map endpoints live over different algebras")
        self.matrix = linalg.as_matrix(
            self.matrix, self.source.p, rows=self.target.dim, cols=self.source.dim)
        p = self.source.p
        # F rho_x(b_i) against rho_y(b_i) F for every basis element at once
        lhs = linalg.mat_mul(self.matrix, self.source.action, p)
        rhs = linalg.mat_mul(self.target.action, self.matrix, p)
        bad = np.flatnonzero(np.any(lhs != rhs, axis=(1, 2)))
        if bad.size:
            raise InvalidInput(f"matrix does not intertwine basis element {bad[0]}")

    @property
    def p(self) -> int:
        return self.source.p

    def compose(self, other: "ModuleMap") -> "ModuleMap":
        """self after other (self ∘ other)."""
        if other.target is not self.source and not same_module(other.target, self.source):
            raise InvalidInput("composition endpoints do not match")
        return ModuleMap(other.source, self.target,
                         linalg.mat_mul(self.matrix, other.matrix, self.p))

    def is_zero(self) -> bool:
        return not np.any(self.matrix)


def zero_module(a: Algebra) -> Module:
    return Module(a, 0, np.zeros((a.dim, 0, 0), dtype=np.int64))


def regular_module(a: Algebra) -> Module:
    """A as a left module over itself (action by left multiplication)."""
    return Module(a, a.dim, a.left_mult_matrices().copy())


def identity_map(x: Module) -> ModuleMap:
    return ModuleMap(x, x, linalg.identity(x.dim))


def zero_map(x: Module, y: Module) -> ModuleMap:
    return ModuleMap(x, y, linalg.zeros(y.dim, x.dim))


def same_module(x: Module, y: Module) -> bool:
    return x is y or (same_algebra(x.algebra, y.algebra) and x.dim == y.dim
                      and np.array_equal(x.action, y.action))


# -- hom spaces -------------------------------------------------------------------


def hom_basis(x: Module, y: Module) -> List[ModuleMap]:
    """Basis of Hom_A(x, y), ordered deterministically by rref free columns.

    A matrix F is a map iff F @ rho_x(b_i) = rho_y(b_i) @ F for all i; with
    row-major vec this is (I kron X_i^T - Y_i kron I) vec(F) = 0, written in
    place into one (n, dy, dx, dy, dx) array.
    """
    if not same_algebra(x.algebra, y.algebra):
        raise InvalidInput("hom endpoints live over different algebras")
    p = x.p
    dx, dy = x.dim, y.dim
    if dx == 0 or dy == 0:
        return []
    n = x.algebra.dim
    stack = np.zeros((n, dy, dx, dy, dx), dtype=np.int64)
    stack[:, np.arange(dy), :, np.arange(dy), :] = x.action.transpose(0, 2, 1)
    stack[:, :, np.arange(dx), :, np.arange(dx)] -= y.action
    # entries lie in (-p, p); rref reduces the stack mod p once
    kern = linalg.kernel_basis(stack.reshape(n * dy * dx, dy * dx), p)
    return [ModuleMap(x, y, row.reshape(dy, dx)) for row in kern]


def coords_in_basis(f: ModuleMap, basis: Sequence[ModuleMap]) -> Optional[np.ndarray]:
    """Coordinates of f in any spanning list of maps, or None if outside the span.

    Solves a linear system; HomSpace.coords reads the same coordinates for a
    hom_basis without elimination.
    """
    p = f.p
    if not basis:
        return np.zeros(0, dtype=np.int64) if f.is_zero() else None
    cols = np.stack([b.matrix.reshape(-1) for b in basis], axis=1) % p
    sol = linalg.solve_linear(cols, f.matrix.reshape(-1), p)
    return None if sol is None else sol.reshape(-1)


class HomSpace:
    """Hom_A(x, y) with the basis of hom_basis(x, y), in the same order.

    The basis rows are kernel_basis rows, which restricted to the rref free
    columns form the identity: a map's coordinates are its entries at those
    columns, read off without elimination.
    """

    def __init__(self, x: Module, y: Module):
        self._set_basis(x, y, hom_basis(x, y))

    @classmethod
    def _on_basis(cls, x: Module, y: Module, basis: List[ModuleMap]) -> "HomSpace":
        """The space on a basis that is hom_basis(x, y) itself, found another way."""
        space = cls.__new__(cls)
        space._set_basis(x, y, basis)
        return space

    def _set_basis(self, x: Module, y: Module, basis: List[ModuleMap]) -> None:
        self.p = x.p
        self.basis = basis
        self.stacked = np.array([b.matrix for b in self.basis], dtype=np.int64).reshape(
            len(self.basis), y.dim, x.dim)
        self._rows = self.stacked.reshape(len(self.basis), y.dim * x.dim)
        # in a kernel_basis row the free column is the last nonzero entry
        self._free = [int(np.flatnonzero(row)[-1]) for row in self._rows]

    def __len__(self) -> int:
        return len(self.basis)

    def coords(self, matrices: np.ndarray) -> np.ndarray:
        """Coordinates of a map, or of a stack (..., y.dim, x.dim) of maps.

        Raises InternalError for a matrix outside Hom(x, y).
        """
        matrices = np.asarray(matrices, dtype=np.int64) % self.p
        lead = matrices.shape[:-2]
        vecs = matrices.reshape(int(np.prod(lead)), self._rows.shape[1])
        coeffs = vecs[:, self._free]
        if not np.array_equal(linalg.mat_mul(coeffs, self._rows, self.p), vecs):
            raise InternalError("a map escaped its Hom basis")
        return coeffs.reshape(lead + (len(self.basis),))

    def combine(self, coeffs: np.ndarray) -> np.ndarray:
        """Matrix of the map with the given coordinates."""
        coeffs = np.asarray(coeffs, dtype=np.int64).reshape(-1) % self.p
        return linalg.mat_mul(coeffs, self._rows, self.p).reshape(self.stacked.shape[1:])


def _sum_hom_space(x: Module, y: Module, blocks: List[List[HomSpace]]) -> HomSpace:
    """HomSpace(x, y) for x = ⊕ x_i and y = ⊕ y_j, from blocks[i][j] =
    HomSpace(x_i, y_j) and without solving Hom(x, y) as one system.

    The Hom equations of x and y decouple by block, so the rref of the whole
    system is the union of the block rrefs, and a block's kernel row with
    free column f = r·dim x_i + c is the kernel row of the whole system with
    free column (off_j + r)·dim x + off_i + c, embedded at rows off_j and
    columns off_i.  Ordered by those columns, the block maps are
    hom_basis(x, y) entry for entry.
    """
    dx = [row[0].stacked.shape[2] for row in blocks]
    dy = [space.stacked.shape[1] for space in blocks[0]]
    offx, offy = np.cumsum([0] + dx), np.cumsum([0] + dy)
    order = []  # (free column in Hom(x, y), i, j, k) for block map k of (i, j)
    for i, row in enumerate(blocks):
        for j, space in enumerate(row):
            for k, f in enumerate(space._free):
                r, c = divmod(f, dx[i])
                order.append(((offy[j] + r) * x.dim + offx[i] + c, i, j, k))
    order.sort()
    stacked = np.zeros((len(order), y.dim, x.dim), dtype=np.int64)
    for t, (_, i, j, k) in enumerate(order):
        stacked[t, offy[j]:offy[j + 1], offx[i]:offx[i + 1]] = blocks[i][j].stacked[k]
    return HomSpace._on_basis(x, y, [ModuleMap(x, y, mat) for mat in stacked])


def _nonzero_vectors(h: int, p: int) -> Iterator[np.ndarray]:
    """Every nonzero vector of GF(p)^h in odometer order, coeffs[0] fastest."""
    tuples = itertools.product(range(p), repeat=h)
    next(tuples)  # the zero vector
    for t in tuples:
        yield np.array(t[::-1], dtype=np.int64)


def is_isomorphic(x: Module, y: Module, seed: int = 0):
    """True / False / UNDECIDED: does an invertible intertwiner exist?

    Strategy: dimension check, hom basis elements, seeded random combinations,
    then exhaustive enumeration when p^{hom dim} fits under 2^16.  UNDECIDED is
    returned only when the search space is too large and randomization failed.
    """
    if not same_algebra(x.algebra, y.algebra):
        raise InvalidInput("isomorphism test endpoints live over different algebras")
    if x.dim != y.dim:
        return False
    if x.dim == 0:
        return True
    return _holds_isomorphism(HomSpace(x, y), seed)


def _holds_isomorphism(space: HomSpace, seed: int = 0):
    """is_isomorphic(x, y) read from space = HomSpace(x, y), dim x = dim y > 0."""
    if not space:
        return False
    p = space.p
    for b in space.basis:
        if linalg.is_invertible(b.matrix, p):
            return True
    h = len(space)
    if p ** h <= EXHAUSTIVE_CAP:
        return any(linalg.is_invertible(space.combine(c), p)
                   for c in _nonzero_vectors(h, p))
    rng = np.random.default_rng(seed)
    for _ in range(400):
        coeffs = rng.integers(0, p, size=h)
        if linalg.is_invertible(space.combine(coeffs), p):
            return True
    return UNDECIDED


# -- sums, kernels, cokernels ------------------------------------------------------


@dataclass
class DirectSum:
    module: Module
    injections: List[ModuleMap]
    projections: List[ModuleMap]


def sum_module(xs: Sequence[Module], algebra: Optional[Algebra] = None) -> Module:
    """The block-diagonal sum of xs, without the maps of direct_sum.

    The empty sum needs the algebra passed explicitly.
    """
    if not xs:
        if algebra is None:
            raise InvalidInput("empty direct sum needs an explicit algebra")
        return zero_module(algebra)
    a = xs[0].algebra
    for x in xs[1:]:
        if not same_algebra(x.algebra, a):
            raise InvalidInput("direct sum terms live over different algebras")
    total = sum(x.dim for x in xs)
    action = np.zeros((a.dim, total, total), dtype=np.int64)
    pos = 0
    for x in xs:
        action[:, pos:pos + x.dim, pos:pos + x.dim] = x.action
        pos += x.dim
    return Module(a, total, action)


def direct_sum(xs: Sequence[Module], algebra: Optional[Algebra] = None) -> DirectSum:
    """Block-diagonal sum with injection/projection maps (proj_i inj_j = delta_ij).

    The empty sum needs the algebra passed explicitly.  A caller that reads
    only the module calls sum_module, which builds no maps.
    """
    s = sum_module(xs, algebra)
    injections, projections = [], []
    off = 0
    for x in xs:
        inj = linalg.zeros(s.dim, x.dim)
        inj[off:off + x.dim, :] = linalg.identity(x.dim)
        injections.append(ModuleMap(x, s, inj))
        projections.append(ModuleMap(s, x, inj.T.copy()))
        off += x.dim
    return DirectSum(s, injections, projections)


def map_kernel(f: ModuleMap) -> Tuple[Module, ModuleMap]:
    """Kernel module and its inclusion; basis from rref free columns."""
    kern = linalg.kernel_basis(f.matrix, f.p)  # rows span ker in source coords
    km = _submodule_on_rows(f.source, kern)
    return km, ModuleMap(km, f.source, kern.T)


def map_cokernel(f: ModuleMap) -> Tuple[Module, ModuleMap]:
    """Cokernel on the complement of the image's pivot columns, with projection."""
    return _quotient_on_rows(f.target, f.matrix.T)  # row space = image of f


def _quotient_on_rows(x: Module, rows: np.ndarray) -> Tuple[Module, ModuleMap]:
    """x modulo the span of rows, on the complement of its pivot columns, with
    the projection; InvalidInput from the projection unless the span is a
    submodule."""
    proj, lift = linalg.quotient_basis(rows, x.p)
    q = Module(x.algebra, lift.shape[1], (proj @ x.action @ lift) % x.p)
    return q, ModuleMap(x, q, proj)


def module_image(f: ModuleMap) -> Tuple[Module, ModuleMap, ModuleMap]:
    """Image of f as (module, inclusion into target, corestriction of f).

    inclusion ∘ corestriction == f.
    """
    p = f.p
    rows, piv = linalg.rref(f.matrix.T, p)
    rows = rows[:len(piv)]
    im = _submodule_on_rows(f.target, rows)
    cor = linalg.solve_linear(rows.T, f.matrix, p)
    if cor is None:
        raise InternalError("image basis fails to express the map")
    return im, ModuleMap(im, f.target, rows.T), ModuleMap(f.source, im, cor)


def dual_module(x: Module) -> Module:
    """Linear dual as a module over the opposite algebra (actions transposed)."""
    op = opposite(x.algebra)
    return Module(op, x.dim, np.transpose(x.action, (0, 2, 1)).copy())


# -- simple modules ---------------------------------------------------------------


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


def _submodule_on_rows(x: Module, rows: np.ndarray) -> Module:
    """The submodule of x on the span of independent rows, in that basis.

    One solve incl · action[i] = ρ(b_i) · incl for every basis element at
    once: incl has full column rank, so each block of the side-by-side
    solution is the unique solution for its b_i.
    """
    p, n = x.p, x.algebra.dim
    incl = rows.T % p
    d, k = incl.shape
    images = linalg.mat_mul(x.action, incl, p)  # (n, d, k)
    sol = linalg.solve_linear(incl, images.transpose(1, 0, 2).reshape(d, n * k), p)
    if sol is None:
        raise InternalError("rows do not span a submodule")
    return Module(x.algebra, k, sol.reshape(k, n, k).transpose(1, 0, 2))


def _fitting_split(x: Module) -> Optional[Tuple[Module, Module]]:
    """Split x = ker(f^d) ⊕ im(f^d) for an endomorphism f that is neither
    nilpotent nor invertible.

    None when the search tried every endomorphism, which proves x
    indecomposable (a split has its projections among them);
    SearchExhausted when a sampled search found none.
    """
    p, d = x.p, x.dim
    space = HomSpace(x, x)
    h = len(space)

    def try_candidate(mat):
        power = linalg.mat_pow(mat, d, p)
        im_rows, piv = linalg.rref(power.T, p)
        if 0 < len(piv) < d:
            ker_rows = linalg.kernel_basis(power, p)
            return (_submodule_on_rows(x, ker_rows),
                    _submodule_on_rows(x, im_rows[:len(piv)]))
        return None

    for b in space.basis:
        got = try_candidate(b.matrix)
        if got:
            return got
    if p ** h <= EXHAUSTIVE_CAP:
        candidates = _nonzero_vectors(h, p)
    else:
        rng = np.random.default_rng(0)
        candidates = (rng.integers(0, p, size=h) for _ in range(500))
    for coeffs in candidates:
        got = try_candidate(space.combine(coeffs))
        if got:
            return got
    if p ** h > EXHAUSTIVE_CAP:
        raise SearchExhausted("no splitting endomorphism among the sampled ones")
    return None


def _not_rad_a(a: Algebra) -> InvalidInput:
    """The error for a supplied radical that A/radical proves smaller than rad A."""
    return InvalidInput(
        f"the radical supplied for a dim-{a.dim} algebra over GF({a.p}) is "
        "not rad A: A/radical has an indecomposable summand that is not simple")


def simple_modules(a: Algebra) -> List[Module]:
    """Complete irredundant list of simple left modules.

    Quiver algebras carry their vertex simples directly; otherwise the
    semisimple quotient A/rad is split into simples by Fitting's lemma and
    each factor's simplicity is verified exhaustively.  The split is what
    certifies a supplied radical (radical_unproven): an indecomposable
    factor that is not simple proves A/radical not semisimple, which is
    InvalidInput.
    """
    if a.simple_actions is not None:
        out = []
        for acts in a.simple_actions:
            d = acts[0].shape[0]
            action = np.stack([np.asarray(m, dtype=np.int64) % a.p for m in acts])
            out.append(validate_module(Module(a, d, action)))
        return out
    # an unproven radical is proven by the split below, not by radical_basis
    rad = a.radical if a.radical_unproven else radical_basis(a)
    q, proj, _ = quotient_algebra(a, rad)
    reg = regular_module(q)

    def decompose(v: Module) -> List[Module]:
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
    a.radical_unproven = False
    # pull back along A -> A/rad: b_i acts via its image in the quotient
    pulled = []
    for f in factors:
        action = linalg.mat_mul(proj.T, f.action.reshape(q.dim, f.dim * f.dim), a.p)
        pulled.append(validate_module(Module(a, f.dim, action.reshape(a.dim, f.dim, f.dim))))
    out: List[Module] = []
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
