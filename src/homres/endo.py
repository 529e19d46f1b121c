"""The endomorphism algebra B = (End_A M)^op and the Hom_A(M, -) functor.

B's basis is the rref-ordered hom basis of End(M); every B-side computation
inherits that ordering, so runs are bit-reproducible.  When M is given as a
direct sum of indecomposable summands, End(M) is assembled from the blocks
Hom(M_i, M_j), each solved once, and so is the radical of B: J(End M_i) is
the kernel of the p-power map modulo commutators, and a map M_i -> M_j is
radical iff every map back composes with it into J(End M_i).  Both are
kernels of linear maps, so rad B is exact at every supported prime.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from . import linalg
from .algebra import Algebra, same_algebra, validate_algebra
from .approx import AddCategory, add_membership, perp_membership
from .errors import HypothesesNotSatisfied, InvalidInput
from .modules import HomSpace, Module, ModuleMap, _sum_hom_space, same_module, sum_module
from .resolutions import EXCEEDS_BOUND, gl_dim, inj_dim


@dataclass
class EndoContext:
    m: Module
    b: Algebra
    basis_maps: List[ModuleMap]  # basis of End(M); index i <-> basis element b_i
    summands: Optional[List[Module]] = None
    # blocks[i][j] = Hom(summands[i], summands[j]), the spaces B was built from
    blocks: Optional[List[List[HomSpace]]] = None


def _local_radical(space: HomSpace) -> np.ndarray:
    """Rows (in Hom-basis coordinates) spanning J(E) for E = space = End(x),
    x indecomposable.

    The span C of the commutators [b_a, b_b] is mapped into itself by
    f |-> f^p, which is additive modulo C (Jacobson's formula).  So for
    q = p^k the map f |-> f^q mod C is linear, and J is its kernel for the
    least q >= dim x: on J, f^q = 0; off J, f^q is a unit, while C lies in
    J because E/J is a field.

    InvalidInput unless E is local, as far as E alone shows it: a basis
    element neither nilpotent nor invertible, or an E/J whose Frobenius
    fixes more than GF(p) (a product of fields).  _radical_from_blocks
    completes the certificate by checking that J is a left ideal of E.
    """
    h, d, _ = space.stacked.shape
    p = space.p
    if h == 1:  # E = GF(p)·1
        return linalg.zeros(0, 1)
    q = 1
    while q < d:
        q *= p
    powers = linalg.mat_pow(space.stacked, q, p)
    if any(f.any() and linalg.rank(f, p) < d for f in powers):
        raise _not_local()
    a, b = np.triu_indices(h, 1)
    commutators = (linalg.mat_mul(space.stacked[a], space.stacked[b], p)
                   - linalg.mat_mul(space.stacked[b], space.stacked[a], p))
    coords = space.coords(np.concatenate([powers, commutators]))
    mod_c = linalg.quotient_basis(coords[h:], p)[0]
    radical = linalg.kernel_basis(linalg.mat_mul(mod_c, coords[:h].T, p), p)
    if h - len(radical) > 1:
        # C ⊆ J makes E/J commutative, and J a left ideal makes it semisimple:
        # a product of fields, one per line that its Frobenius fixes
        mod_j, lift = linalg.quotient_basis(radical, p)
        frob = space.coords(linalg.mat_pow(space.stacked[lift.any(axis=1)], p, p))
        fixed = linalg.mat_mul(mod_j, frob.T, p) - linalg.identity(len(mod_j))
        if len(linalg.kernel_basis(fixed, p)) != 1:
            raise _not_local()
    return radical


def _not_local() -> InvalidInput:
    return InvalidInput("a declared summand is not indecomposable: "
                        "its End ring is not local")


def _summand_blocks(maps: np.ndarray, dims: List[int]) -> Tuple[np.ndarray, np.ndarray]:
    """The arrays of i and of j for a stack of nonzero maps of ⊕ M_k that
    each lie in one block Hom(M_i, M_j), as End(⊕ M_k)'s basis maps do;
    dims[k] = dim M_k."""
    ends = np.cumsum(dims)
    rows, cols = np.divmod(np.argmax(maps.reshape(len(maps), -1) != 0, axis=1),
                           maps.shape[2])
    return (np.searchsorted(ends, cols, side="right"),
            np.searchsorted(ends, rows, side="right"))


def _radical_from_blocks(radicals: List[np.ndarray], dims: List[int], end: HomSpace,
                         mult: np.ndarray) -> np.ndarray:
    """Radical of End(⊕ M_i) in basis coordinates, for end assembled from
    the blocks Hom(M_i, M_j), dim M_i = dims[i] and radicals[i] =
    _local_radical(Hom(M_i, M_i)), from B's table mult[k, a] = coordinates
    of f_a ∘ f_k.

    With every End(M_i) local, f in Hom(M_i, M_j) is radical iff g∘f lies
    in J(End M_i) for every g in Hom(M_j, M_i) (Auslander-Reiten-Smalø,
    ch. V), whether or not M_i ≅ M_j.  So rad B is one kernel: the f whose
    every f_a ∘ f has its diagonal blocks in ⊕ J(End M_i), read off mult,
    whose block (i, i) coordinates are End(M_i)'s.  On block (i, i) the
    kernel is the largest left ideal inside J(End M_i); it must be all of
    it, or End(M_i) is not local (InvalidInput).
    """
    p, n = end.p, len(end)
    source, target = _summand_blocks(end.stacked, dims)
    diagonal = [np.flatnonzero((source == i) & (target == i)) for i in range(len(dims))]
    # system[k, a, t]: coordinate t of the diagonal blocks of f_a ∘ f_k, each
    # modulo its J(End M_i)
    system = np.concatenate([
        linalg.mat_mul(mult[:, :, rows], linalg.quotient_basis(rad, p)[0].T, p)
        for rows, rad in zip(diagonal, radicals)], axis=2)
    radical = linalg.kernel_basis(system.transpose(1, 2, 0).reshape(-1, n), p)
    # each kernel row lies in one block; those on the diagonal span the left ideals
    on_diagonal = radical[:, np.concatenate(diagonal)].any(axis=1)
    if np.count_nonzero(on_diagonal) != sum(len(rad) for rad in radicals):
        raise _not_local()
    return radical


def endomorphism_algebra(m: Module,
                         summands: Optional[List[Module]] = None) -> EndoContext:
    """(End_A m)^op as structure constants: b_i . b_j corresponds to f_j ∘ f_i.

    When the declared indecomposable summands of m are supplied (their direct
    sum must equal m on the nose), End(m) is assembled from the blocks
    Hom(M_i, M_j), rad B is derived from them and validated as a nilpotent
    ideal, and B carries the summand projections ι_j∘π_j as its idempotents.
    The derivation assumes that every summand's End ring E is local, and
    certifies it by linear algebra at every prime: the derived J(E) is a
    left ideal and E/J(E) a field.  That makes the derived radical all of
    rad B and each ι_jπ_j primitive.  A decomposable summand is refused with
    InvalidInput.
    """
    if m.dim == 0:
        raise InvalidInput("endomorphism algebra of the zero module is not supported")
    p = m.p
    radical = idempotents = blocks = None
    if summands is None:
        end = HomSpace(m, m)
    else:
        if not same_module(sum_module(summands), m):
            raise InvalidInput("declared summands do not sum to the module on the nose")
        blocks = [[HomSpace(x, y) for y in summands] for x in summands]
        end = _sum_hom_space(m, m, blocks)
        # refuses a summand that is not local before the table below is built
        radicals = [_local_radical(row[i]) for i, row in enumerate(blocks)]
        offs = np.cumsum([0] + [x.dim for x in summands])
        # ι_j∘π_j: the identity of block (j, j)
        ident = np.zeros((len(summands), m.dim, m.dim), dtype=np.int64)
        for j, x in enumerate(summands):
            ident[j, offs[j]:offs[j + 1], offs[j]:offs[j + 1]] = linalg.identity(x.dim)
        idempotents = end.coords(ident)
    # mult[i, j] = coordinates of f_j ∘ f_i
    mult = end.coords(linalg.mat_mul(end.stacked[None, :], end.stacked[:, None], p))
    if summands is not None:
        radical = _radical_from_blocks(radicals, [x.dim for x in summands], end, mult)
    unit = end.coords(linalg.identity(m.dim))
    b = Algebra(p=p, dim=len(end), mult=mult, unit=unit, radical=radical,
                idempotents=idempotents)
    validate_algebra(b)  # also validates rad B when it was derived
    return EndoContext(m=m, b=b, basis_maps=end.basis, summands=summands,
                       blocks=blocks)


def hom_functor(ctx: EndoContext, x: Module) -> Module:
    """Hom_A(M, x) as a left B-module: b . φ = φ ∘ f_b (precomposition)."""
    if not same_algebra(x.algebra, ctx.m.algebra):
        raise InvalidInput("module lives over a different base algebra")
    hx = HomSpace(ctx.m, x)
    ends = np.stack([f.matrix for f in ctx.basis_maps])
    # action[i][:, c] = coordinates of phi_c ∘ f_i
    action = hx.coords(linalg.mat_mul(hx.stacked[None, :], ends[:, None], hx.p)
                       ).transpose(0, 2, 1)
    return Module(ctx.b, len(hx), action)


def hom_functor_map(ctx: EndoContext, f: ModuleMap) -> ModuleMap:
    """Hom_A(M, f): postcomposition, expressed in the chosen Hom bases."""
    hx = HomSpace(ctx.m, f.source)
    hy = HomSpace(ctx.m, f.target)
    mat = hy.coords(linalg.mat_mul(f.matrix, hx.stacked, f.p)).T
    return ModuleMap(hom_functor(ctx, f.source), hom_functor(ctx, f.target), mat)


@dataclass
class Theorem2Report:
    """Outcome of the inj.dim T <= r  <=>  gl.dim B <= r verification."""
    r: int
    bound: int
    injdim_t: float
    gldim_b: float
    perp_witness: bool
    spot_checks: List[bool]
    mode: str        # "biconditional" | "one-directional"
    verdict: bool    # the claimed equivalence/implication held
    b_dim: int
    ctx: EndoContext  # B, so a later stage on the same summands can reuse it

    @property
    def smooth(self) -> bool:
        """Finite gl.dim B: the derived category of B is smooth at module level."""
        return self.gldim_b != EXCEEDS_BOUND


def verify_theorem2(a: Algebra, t: Module, c: AddCategory, r: int,
                    bound: Optional[int] = None,
                    spot_check_modules: Optional[List[Module]] = None) -> Theorem2Report:
    """Check inj.dim t <= r  <=>  gl.dim B <= r for B = (End ⊕ summands)^op.

    Hypotheses verified first: every summand of M lies in ^⊥t (exactly), and
    each supplied spot-check module of ^⊥t passes add-membership in add M.
    For r <= 1 only the direction gl.dim B <= r ⇒ inj.dim t <= r is endorsed.
    """
    if not same_algebra(t.algebra, a) or not same_algebra(c.algebra, a):
        raise InvalidInput("theorem inputs live over different algebras")
    if r < 0:
        raise InvalidInput(f"r must be >= 0, got {r}")
    m_sum = sum_module(c.summands)
    ctx = endomorphism_algebra(m_sum, summands=c.summands)
    if bound is None:
        bound = max(2 * r, a.dim + ctx.b.dim)
    injdim_t = inj_dim(t, bound)
    if injdim_t == EXCEEDS_BOUND:
        raise HypothesesNotSatisfied(
            f"inj.dim of t exceeds the bound {bound}; the standing finiteness "
            "hypothesis could not be witnessed")
    perp_witness = all(perp_membership(s, t, int(injdim_t)) for s in c.summands)
    if not perp_witness:
        raise HypothesesNotSatisfied(
            "some summand of M falls outside ^⊥t; verdict withheld")
    spot_results = []
    for x in (spot_check_modules or []):
        in_perp = perp_membership(x, t, int(injdim_t))
        in_add = bool(add_membership(x, c, blocks=ctx.blocks))
        spot_results.append(in_perp == in_add or (in_add and in_perp))
        if in_perp and not in_add:
            raise HypothesesNotSatisfied(
                "a spot-check module lies in ^⊥t but not in add M; "
                "the ^⊥t = add M hypothesis fails on the evidence")
    gldim_b = gl_dim(ctx.b, bound)
    if r >= 2:
        mode = "biconditional"
        verdict = (injdim_t <= r) == (gldim_b != EXCEEDS_BOUND and gldim_b <= r)
    else:
        mode = "one-directional"
        holds_b = gldim_b != EXCEEDS_BOUND and gldim_b <= r
        verdict = (not holds_b) or (injdim_t <= r)
    return Theorem2Report(r=r, bound=bound, injdim_t=injdim_t, gldim_b=gldim_b,
                          perp_witness=perp_witness, spot_checks=spot_results,
                          mode=mode, verdict=verdict, b_dim=ctx.b.dim, ctx=ctx)
