"""Projective resolutions, syzygies, Ext groups, and dimension functions.

Over an algebra that knows a complete set of orthogonal primitive idempotents
e_v (quiver algebras, their opposites, and B = (End ⊕ M_j)^op with declared
summands) the "minimal" cover is the projective cover ⊕ A·e_v -> x, one
summand per simple summand of top x, and the resolutions it builds are
minimal.  Every other algebra has free covers A^g -> x: on the Nakayama
generators of x ("evaluation"), or on its basis vectors, doubled
("doubled") or in a seeded order ("permuted").  Schanuel's
lemma makes every invariant computed here independent of the cover.
proj_dim and ext_dims, and everything built on them, take the minimal cover
wherever there are idempotents; projective_resolution keeps "evaluation" as
its default, and the other strategies exist so that tests can confirm the
independence.

A module x is projective iff its projective cover is an isomorphism,
dim P(top x) = dim x, which is_projective tests where there are idempotents.
Elsewhere it tests Tor_1(A/J, x) = 0 for J = rad A, counted by dimensions on
a Nakayama cover.  Both criteria need J to be the whole radical (a smaller
nilpotent ideal leaves too large a top, and can make Tor_1 vanish on a
module that is not projective), so they ask radical_basis for J, which is
exact at every prime.

inj.dim t = pd_{A^op} D t for D t = Hom_k(t, k): D is an exact duality that
swaps injective A-modules and projective A^op-modules (Auslander-Reiten-
Smalø, ch. II).  So inj_dim resolves one module over opposite(A), and gets
the least r with Ext^{r+1}(S, t) = 0 for every simple S.

gl.dim A is the largest proj_dim over modules.simple_modules(A), the one
source of simple modules: over an algebra with idempotents it returns the
tops of the vertex projectives, one per isomorphism class, each certified
simple by linear algebra, so gl_dim runs no Fitting search and no
enumeration there.

All dimension functions are bounded searches: they return EXCEEDS_BOUND
(serialized as "exceeds-bound") instead of looping forever.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from . import linalg
from .algebra import Algebra, radical_basis
from .errors import InternalError, InvalidInput, UnsupportedField
from .modules import (
    HomSpace,
    Module,
    ModuleMap,
    dual_module,
    hom_basis,
    identity_map,
    map_kernel,
    simple_modules,
    sum_module,
    _rad_span,
    _vertex_projectives,
)

EXCEEDS_BOUND = math.inf

# the free covers of free_cover; projective_resolution also takes "minimal"
COVER_STRATEGIES = ("evaluation", "doubled", "permuted")
RESOLUTION_STRATEGIES = COVER_STRATEGIES + ("minimal",)


def _nakayama_generators(x: Module, rad: np.ndarray) -> List[int]:
    """Basis vectors of x off the pivot columns of rad·x, in order.

    They span a complement of rad·x, so by Nakayama's lemma they generate x
    when rad is rad A; there are dim x - rank(rad·x) of them.
    """
    pivots = set(_rad_span(x, rad)[1])
    return [j for j in range(x.dim) if j not in pivots]


def _top_generators(x: Module) -> List[Tuple[int, np.ndarray]]:
    """Pairs (v, u), u in e_v·x, whose images form a basis of top x over A.

    Greedy from the span S = rad·x: the first vector of e_v·x outside S is
    picked, A·u is added to S, and so on until e_v·x lies in S, vertex by
    vertex.  Modulo rad·x each A·u is a quotient of the simple top of A·e_v,
    so each pick adds exactly one simple summand to S/rad·x.  Hence the
    picks count the top's simples with multiplicity, also where End(S_v) is
    larger than GF(p) or two idempotents have isomorphic tops, and
    ⊕ A·e_v -> x, e_v |-> u, is the projective cover.
    """
    a, p = x.algebra, x.p
    if a.idempotents is None:
        raise UnsupportedField(
            "the minimal cover needs the algebra's primitive idempotents")
    span, piv = _rad_span(x, radical_basis(a))
    (k, n), d = a.idempotents.shape, x.dim
    # the rows of idem[v] span e_v·x
    idem = linalg.mat_mul(a.idempotents, x.action.reshape(n, d * d), p).reshape(k, d, d)
    gens = []
    for v, cands in enumerate(idem.transpose(0, 2, 1)):
        if len(piv) == d:
            break
        while True:
            # a candidate reduced by the rref rows of S: zero iff it lies in S
            resid = (cands - linalg.mat_mul(cands[:, piv], span, p)) % p
            hit = np.flatnonzero(resid.any(axis=1))
            if not hit.size:
                break
            u = cands[hit[0]]
            gens.append((v, u))
            span, piv = linalg.rref(np.vstack([span, linalg.mat_mul(x.action, u, p)]), p)
            span = span[:len(piv)]
    return gens


def _cover_dim(a: Algebra, gens: List[Tuple[int, np.ndarray]]) -> int:
    projs = _vertex_projectives(a)
    return sum(projs[v][1].dim for v, _ in gens)


def _projective_cover_on(x: Module, gens: List[Tuple[int, np.ndarray]]) -> ModuleMap:
    """⊕ A·e_v -> x sending e_v in the i-th summand to the i-th u of gens."""
    projs = _vertex_projectives(x.algebra)
    # a·e_v |-> a·u: column k of a block is sum_i rows[k, i] b_i·u
    blocks = [linalg.mat_mul(projs[v][0], linalg.mat_mul(x.action, u, x.p), x.p).T for v, u in gens]
    source = sum_module([projs[v][1] for v, _ in gens], x.algebra)
    return ModuleMap(source, x, np.hstack([linalg.zeros(x.dim, 0)] + blocks))


def projective_cover(x: Module) -> ModuleMap:
    """The projective cover ⊕ A·e_v -> x, one summand per simple summand of
    top x; UnsupportedField over an algebra without idempotents."""
    return _projective_cover_on(x, _top_generators(x))


def _minimal_cover(x: Module):
    """The projective cover of x, or None when x is projective."""
    gens = _top_generators(x)
    if _cover_dim(x.algebra, gens) == x.dim:
        return None
    return _projective_cover_on(x, gens)


def _cover_strategy(a: Algebra) -> str:
    """The cover the dimension functions resolve with over a."""
    return "evaluation" if a.idempotents is None else "minimal"


def _cover_matrix(x: Module, gens: List[int]) -> np.ndarray:
    """Matrix of A^len(gens) -> x sending free generator i to v_gens[i].

    Block column i holds the b_k . v_gens[i] side by side.
    """
    n = x.algebra.dim
    return x.action[:, :, gens].transpose(1, 2, 0).reshape(x.dim, len(gens) * n)


def free_cover(x: Module, strategy: str = "evaluation", seed: int = 0) -> ModuleMap:
    """Surjection A^m -> x sending the generators of each free copy onto x.

    evaluation: one copy of A per Nakayama generator of x;
    doubled: two copies per basis vector (same kernel class by Schanuel's
    lemma, which makes every invariant built on top independent of the
    choice);
    permuted: the basis vectors in a seeded random order.
    """
    if strategy not in COVER_STRATEGIES:
        raise InvalidInput(f"unknown cover strategy {strategy!r}")
    a = x.algebra
    if strategy == "evaluation":
        # fewer generators keep syzygies from ballooning
        gens = _nakayama_generators(x, radical_basis(a))
    elif strategy == "doubled":
        gens = list(range(x.dim)) * 2
    else:
        rng = np.random.default_rng(seed)
        gens = [int(g) for g in rng.permutation(x.dim)]
    # A^g: the left multiplication matrices of A repeated down the diagonal
    g = len(gens)
    free = Module(a, g * a.dim, np.kron(linalg.identity(g), a.left_mult_matrices()))
    return ModuleMap(free, x, _cover_matrix(x, gens))


def is_projective(x: Module) -> bool:
    """True iff x is projective.

    Where the algebra has idempotents: iff the projective cover is an
    isomorphism, dim P(top x) = dim x.  Elsewhere by _tor1_vanishes.
    """
    if x.dim == 0:
        return True
    if x.algebra.idempotents is not None:
        return _cover_dim(x.algebra, _top_generators(x)) == x.dim
    return _tor1_vanishes(x)


def _tor1_vanishes(x: Module) -> bool:
    """True iff Tor_1(A/J, x) = 0 for J = rad A.

    Over a finite-dimensional algebra a finitely generated module is
    projective iff this Tor vanishes (Auslander-Reiten-Smalø, ch. I).  J
    must be the whole radical: with J = 0, say, Tor_1 vanishes on every
    module.  The Tor is counted on the cover F = A^g -> x on the g Nakayama
    generators of x, with kernel K.  In the exact sequence
    0 -> Tor_1 -> K/JK -> F/JF -> x/Jx -> 0, dim F/JF = g(n - m) and
    dim x/Jx = g (n = dim A, m = dim J, the row count of radical_basis,
    whose rows are independent), so Tor_1 vanishes iff
    dim K - dim JK = g(n - m) - g.
    """
    a = x.algebra
    rad = radical_basis(a)
    m, n = rad.shape
    if m == 0:
        return True
    p = a.p
    gens = _nakayama_generators(x, rad)
    g = len(gens)
    kern = linalg.kernel_basis(_cover_matrix(x, gens), p)  # rows in A^g
    # r·k for every radical row r and kernel row k, each free copy acted on
    # by the left multiplication matrix of r
    left = linalg.mat_mul(rad, a.left_mult_matrices().reshape(n, n * n), p)
    left_t = left.reshape(m, n, n).transpose(0, 2, 1)
    jk = linalg.mat_mul(kern.reshape(-1, n), left_t, p)
    jk_rank = linalg.rank(jk.reshape(m * kern.shape[0], g * n), p)
    return kern.shape[0] - jk_rank == g * (n - m) - g


@dataclass
class Resolution:
    """... -> terms[2] -> terms[1] -> terms[0] -> target -> 0.

    maps[0] is the augmentation terms[0] -> target; maps[i] for i >= 1 is the
    differential terms[i] -> terms[i-1].  complete means the sequence is exact
    with 0 on the left of the last term (the final differential is injective
    onto the kernel, or the target itself was already of the resolution kind).
    """
    target: Module
    terms: List[Module]
    maps: List[ModuleMap]
    kind: str            # "projective" | "addM"
    complete: bool

    @property
    def length(self) -> int:
        return len(self.terms) - 1

    def syzygy(self, n: int) -> Module:
        """n-th syzygy: the target for n = 0, else ker(maps[n-1])."""
        if n == 0:
            return self.target
        if n > len(self.maps):
            raise InvalidInput(f"syzygy {n} not covered by a length-{self.length} resolution")
        return map_kernel(self.maps[n - 1])[0]


def _resolve(x: Module, length: int, kind: str, cover) -> Resolution:
    """The resolution loop of every kind, out to the given length.

    cover(y) is None when y is already of the kind, and otherwise a
    surjection onto y from a module of the kind.  Terminates early (complete)
    as soon as a syzygy is of the kind: that syzygy is appended as the final
    term with its inclusion as the last differential.
    """
    if length < 0:
        raise InvalidInput("resolution length must be >= 0")
    f = cover(x)
    if f is None:
        return Resolution(x, [x], [identity_map(x)], kind, True)
    terms: List[Module] = [f.source]
    maps: List[ModuleMap] = [f]
    syz, incl = map_kernel(f)
    for _ in range(length):
        f = cover(syz)
        if f is None:
            terms.append(syz)
            maps.append(incl)
            return Resolution(x, terms, maps, kind, True)
        terms.append(f.source)
        maps.append(incl.compose(f))
        syz, incl = map_kernel(f)
    return Resolution(x, terms, maps, kind, False)


def projective_resolution(x: Module, length: int,
                          strategy: str = "evaluation", seed: int = 0) -> Resolution:
    """Projective resolution of x out to the given length.

    "minimal" resolves by projective covers, and raises UnsupportedField over
    an algebra without idempotents; the other strategies by free_cover.
    """
    if strategy not in RESOLUTION_STRATEGIES:
        raise InvalidInput(f"unknown cover strategy {strategy!r}")
    if strategy == "minimal":
        return _resolve(x, length, "projective", _minimal_cover)
    return _resolve(x, length, "projective",
                    lambda y: None if is_projective(y) else free_cover(y, strategy, seed))


def validate_resolution(res: Resolution) -> Resolution:
    """Re-check exactness at every computed degree and the kind of each term."""
    p = res.target.p
    for i in range(len(res.maps) - 1):
        comp = res.maps[i].compose(res.maps[i + 1])
        if np.any(comp.matrix):
            raise InvalidInput(f"differentials at degrees {i + 1}, {i} do not compose to zero")
        ker_dim = res.terms[i].dim - linalg.rank(res.maps[i].matrix, p)
        if linalg.rank(res.maps[i + 1].matrix, p) != ker_dim:
            raise InvalidInput(f"resolution is not exact at degree {i}")
    if linalg.rank(res.maps[0].matrix, p) != res.target.dim:
        raise InvalidInput("augmentation is not surjective")
    if res.complete and len(res.maps) >= 1:
        last = res.maps[-1]
        if linalg.rank(last.matrix, p) != last.source.dim:
            raise InvalidInput("final differential of a complete resolution must be injective")
    if res.kind == "projective":
        for i, t in enumerate(res.terms):
            if not is_projective(t):
                raise InvalidInput(f"term {i} is not projective")
    return res


@dataclass
class ExtTable:
    source: Module
    target: Module
    dims: List[int]  # dims[i] = dim Ext^i(source, target)
    bound: int


def _cohomology(dims: List[int], deltas: List[np.ndarray], p: int) -> List[int]:
    """dim H^i = dims[i] - rank δ^i - rank δ^{i-1} for a complex of GF(p)-spaces.

    deltas[i] is the matrix of δ^i from degree i to i + 1; differentials past
    the end of the list are zero.
    """
    ranks = [0] + [linalg.rank(d, p) for d in deltas]
    ranks += [0] * (len(dims) + 1 - len(ranks))
    return [h - ranks[i] - ranks[i + 1] for i, h in enumerate(dims)]


def ext_dims(x: Module, y: Module, max_i: int) -> ExtTable:
    """dim Ext^i(x, y) for 0 <= i <= max_i via the Hom complex of a projective resolution."""
    if max_i < 0:
        raise InvalidInput("max_i must be >= 0")
    res = projective_resolution(x, max_i + 1, strategy=_cover_strategy(x.algebra))
    spaces = [HomSpace(t, y) for t in res.terms]  # at most max_i + 2 terms
    # δ^i = Hom(d_{i+1}, y): f |-> f ∘ d_{i+1}
    deltas = [spaces[i + 1].induced(spaces[i], right=res.maps[i + 1].matrix)
              for i in range(min(max_i + 1, res.length))]
    hom_dims = [len(s) for s in spaces] + [0] * (max_i + 1)
    dims = _cohomology(hom_dims[:max_i + 1], deltas, y.p)
    if dims[0] != len(hom_basis(x, y)):
        raise InternalError("Ext^0 disagrees with the hom space")
    return ExtTable(x, y, dims, max_i)


def proj_dim(x: Module, bound: int):
    """Least n <= bound with the n-th syzygy projective, else EXCEEDS_BOUND."""
    res = projective_resolution(x, bound, strategy=_cover_strategy(x.algebra))
    return res.length if res.complete else EXCEEDS_BOUND


def inj_dim(t: Module, bound: int):
    """inj.dim t = pd_{A^op} D t when it is <= bound, else EXCEEDS_BOUND.

    D = Hom_k(-, k) turns an injective coresolution of t into a projective
    resolution of D t of the same length, as it swaps injectives and
    projectives (Auslander-Reiten-Smalø, ch. II).  The value is the least r
    with Ext^{r+1}(S, t) = 0 for every simple S.
    """
    return 0 if t.dim == 0 else proj_dim(dual_module(t), bound)


def gl_dim(a: Algebra, bound: int):
    """Max of proj_dim over the simple modules; EXCEEDS_BOUND if any exceeds."""
    best = 0
    for s in simple_modules(a):
        d = proj_dim(s, bound)
        if d is EXCEEDS_BOUND or d == EXCEEDS_BOUND:
            return EXCEEDS_BOUND
        best = max(best, d)
    return best
