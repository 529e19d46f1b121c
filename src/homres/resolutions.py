"""Projective resolutions, syzygies, Ext groups, and dimension functions.

Resolutions use non-minimal free covers (an evaluation surjection from a free
module on the underlying basis); Schanuel's lemma makes every invariant
computed here independent of that choice, and alternative cover strategies
exist precisely so tests can confirm it.

All dimension functions are bounded searches: they return EXCEEDS_BOUND
(serialized as "exceeds-bound") instead of looping forever.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List

import numpy as np

from . import linalg
from .algebra import Algebra
from .errors import InternalError, InvalidInput
from .modules import (
    HomSpace,
    Module,
    ModuleMap,
    direct_sum,
    hom_basis,
    identity_map,
    map_kernel,
    regular_module,
    simple_modules,
)

EXCEEDS_BOUND = math.inf

COVER_STRATEGIES = ("evaluation", "doubled", "permuted")

INJDIM_HEADROOM = 3  # extra vanishing degrees demanded beyond the candidate


def free_cover(x: Module, strategy: str = "evaluation", seed: int = 0) -> ModuleMap:
    """Surjection A^m -> x sending the generators of each free copy onto x.

    evaluation: one copy of A per basis vector of x, in order;
    doubled: two copies per basis vector (same kernel class by Schanuel);
    permuted: the basis vectors in a seeded random order.
    """
    if strategy not in COVER_STRATEGIES:
        raise InvalidInput(f"unknown cover strategy {strategy!r}")
    a = x.algebra
    gens = list(range(x.dim))
    if strategy == "evaluation" and a.radical is not None and x.dim > 0:
        # Nakayama: basis vectors complementing rad.x already generate, which
        # keeps syzygies from ballooning; still a free cover, so every
        # invariant built on top is unchanged by Schanuel's lemma.
        rad_cols = [x.act(r) for r in a.radical]
        if rad_cols:
            rows, piv = linalg.rref(np.hstack(rad_cols).T, a.p)
            gens = [j for j in range(x.dim) if j not in set(piv)]
    if strategy == "doubled":
        gens = gens + gens
    elif strategy == "permuted":
        rng = np.random.default_rng(seed)
        gens = [int(g) for g in rng.permutation(x.dim)]
    reg = regular_module(a)
    free = direct_sum([reg] * len(gens), algebra=a).module
    if gens:
        blocks = [x.action[:, :, j].T for j in gens]  # block col i = b_i . v_j
        matrix = np.hstack(blocks) % a.p
    else:
        matrix = linalg.zeros(x.dim, 0)
    return ModuleMap(free, x, matrix)


def is_projective(x: Module) -> bool:
    """True iff the evaluation cover A^d -> x splits.

    A section decomposes into components x -> A, so it suffices to solve
    sum_j B_j s_j = id with each s_j in Hom(x, A), where B_j is the cover's
    j-th block; this keeps the linear system linear in dim x.
    """
    if x.dim == 0:
        return True
    p = x.p
    h = hom_basis(x, regular_module(x.algebra))
    if not h:
        return False
    d = x.dim
    cols = []
    for j in range(d):
        block = x.action[:, :, j].T  # (d, algebra.dim)
        for s in h:
            cols.append((block @ s.matrix).reshape(-1) % p)
    target = linalg.identity(d).reshape(-1)
    return linalg.solve_linear(np.stack(cols, axis=1), target, p) is not None


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
    """Free resolution of x out to the given length, by free covers."""
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


def _hom_complex_delta(res: Resolution, y: Module, i: int,
                       homs: dict) -> np.ndarray:
    """Matrix of delta^i : Hom(T_i, y) -> Hom(T_{i+1}, y), f |-> f o d_{i+1}.

    homs[j] is hom_basis(T_j, y).
    """
    hi = HomSpace(res.terms[i], y, homs[i])
    hj = HomSpace(res.terms[i + 1], y, homs[i + 1])
    return hj.coords(hi.stacked @ res.maps[i + 1].matrix).T


def _cohomology(dims: List[int], deltas: List[np.ndarray], p: int) -> List[int]:
    """dim H^i = dims[i] - rank δ^i - rank δ^{i-1} for a complex of GF(p)-spaces.

    deltas[i] is the matrix of δ^i from degree i to i + 1; differentials past
    the end of the list are zero.
    """
    ranks = [0] + [linalg.rank(d, p) for d in deltas]
    ranks += [0] * (len(dims) + 1 - len(ranks))
    return [h - ranks[i] - ranks[i + 1] for i, h in enumerate(dims)]


def ext_dims(x: Module, y: Module, max_i: int) -> ExtTable:
    """dim Ext^i(x, y) for 0 <= i <= max_i via the Hom complex of a free resolution."""
    if max_i < 0:
        raise InvalidInput("max_i must be >= 0")
    res = projective_resolution(x, max_i + 1)
    L = res.length
    homs = {i: hom_basis(res.terms[i], y) if i <= L else []
            for i in range(max_i + 2)}
    deltas = [_hom_complex_delta(res, y, i, homs) for i in range(min(max_i + 1, L))]
    dims = _cohomology([len(homs[i]) for i in range(max_i + 1)], deltas, y.p)
    if dims[0] != len(hom_basis(x, y)):
        raise InternalError("Ext^0 disagrees with the hom space")
    return ExtTable(x, y, dims, max_i)


def proj_dim(x: Module, bound: int):
    """Least n <= bound with the n-th syzygy projective, else EXCEEDS_BOUND."""
    res = projective_resolution(x, bound)
    return res.length if res.complete else EXCEEDS_BOUND


def inj_dim(t: Module, bound: int):
    """Least r <= bound with Ext^i(S, t) = 0 for every simple S and
    r+1 <= i <= r+1+INJDIM_HEADROOM, else EXCEEDS_BOUND.

    Vanishing of Ext^{r+1}(-, t) on simples propagates to all finite-length
    modules by induction on length, so r bounds the injective dimension; the
    INJDIM_HEADROOM extra degrees guard against bookkeeping slips at no
    asymptotic cost.
    """
    if t.dim == 0:
        return 0
    sims = simple_modules(t.algebra)
    top = bound + 1 + INJDIM_HEADROOM
    tables = [ext_dims(s, t, top).dims for s in sims]
    for r in range(bound + 1):
        if all(all(d[i] == 0 for i in range(r + 1, r + 2 + INJDIM_HEADROOM))
               for d in tables):
            return r
    return EXCEEDS_BOUND


def gl_dim(a: Algebra, bound: int):
    """Max of proj_dim over the simple modules; EXCEEDS_BOUND if any exceeds."""
    best = 0
    for s in simple_modules(a):
        d = proj_dim(s, bound)
        if d is EXCEEDS_BOUND or d == EXCEEDS_BOUND:
            return EXCEEDS_BOUND
        best = max(best, d)
    return best
