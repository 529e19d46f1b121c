"""HomSpace.compose, HomSpace.induced and modules._solve_joint against the
hand-written Hom-basis products and solves they replaced.

The oracles below are kept verbatim up to their names: endo's
_radical_from_blocks (the block rule for rad B that algebra._radical_rows
replaced), ext_dims's _hom_complex_delta, the bare-@ products of is_c_acyclic, of
homotopy_hom_dim's blocks, of _factor_through and of the joint solve, the
mat_mul products of B's table and of hom_functor, and add_membership's own
section system.  Every output must agree with them bit for bit: B (mult,
unit, radical, idempotents), the Ext and C-acyclicity deltas, the Hom_K
blocks with their -(-1)^m right factor, the hom_functor actions and maps,
the add-membership sections, the truncation splits and every joint solve
that the C-resolution lift and the homotopy retraction make.  The inputs
are random conjugates of the bundled modules and complexes at p = 2, 3, 5,
7 and 1048573.
"""

from contextlib import ExitStack
from typing import List
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from homres import approx, complexes, linalg
from homres.algebra import Algebra, validate_algebra
from homres.approx import (
    AddCategory, Membership, _summand_homs, add_membership, right_approximation,
)
from homres.complexes import (
    TruncationSplitReport, _cohomology, acyclic_truncation_split, c_resolution,
    homotopy_hom_dim, homotopy_retraction, identity_chain_map, is_acyclic, is_c_acyclic,
    mapping_cone, stalk,
)
from homres.endo import (
    EndoContext, _not_local, _summand_blocks, endomorphism_algebra, hom_functor,
    hom_functor_map,
)
from homres.errors import HypothesesNotSatisfied, InvalidInput
from homres.modules import (
    HomSpace, ModuleMap, _local_radical, _solve_joint, _sum_hom_space, identity_map,
    module_image, same_module, sum_module,
)
from homres.resolutions import _cover_strategy, ext_dims, projective_resolution

from test_complexes_oracle import bundled, rebased
from test_modules import _random_conjugate

PRIMES = (2, 3, 5, 7, 1048573)
CASES = [(name, p) for name in ("kx2", "kx3", "a2-hereditary") for p in PRIMES]


# -- the oracles, verbatim up to their names ---------------------------------------


def _hom_complex_delta(res, y, i, spaces):
    """Matrix of delta^i : Hom(T_i, y) -> Hom(T_{i+1}, y), f |-> f o d_{i+1}.

    spaces[j] is HomSpace(T_j, y).
    """
    return spaces[i + 1].coords(
        linalg.mat_mul(spaces[i].stacked, res.maps[i + 1].matrix, y.p)).T


def _c_acyclic_deltas(m, x):
    """is_c_acyclic's deltas for the summand m; each is the transpose of δ^i."""
    spaces = [HomSpace(m, t) for t in x.terms]
    return [spaces[i + 1].coords(d.matrix @ spaces[i].stacked)
            for i, d in enumerate(x.diffs)]


def _is_c_acyclic_oracle(x, c, lo_check=None):
    first = 0 if lo_check is None else max(lo_check - x.lo, 0)
    for m in c.summands:
        spaces = [HomSpace(m, t) for t in x.terms]
        deltas = [spaces[i + 1].coords(d.matrix @ spaces[i].stacked)
                  for i, d in enumerate(x.diffs)]
        if any(_cohomology([len(h) for h in spaces], deltas, x.algebra.p)[first:]):
            return False
    return True


def _hom_dim_block_oracle(x, y, m, r, c, lower, upper):
    """Block (r, c) of homotopy_hom_dim's δ^m, or None off the two diagonals."""
    sign = 1 if m % 2 == 0 else -1
    if r == c:
        return upper[r].coords(y.diff(c + m).matrix @ lower[c].stacked).T
    if r == c - 1:
        return upper[r].coords(-sign * lower[c].stacked @ x.diff(r).matrix).T
    return None


def _factor_through(h, f):
    """g with f ∘ g = h, or None; g is searched inside Hom(h.source, f.source)."""
    space = HomSpace(h.source, f.source)
    cols = ((f.matrix @ space.stacked) % f.p).reshape(len(space), h.matrix.size).T
    sol = linalg.solve_linear(cols, h.matrix.reshape(-1), f.p)
    return None if sol is None else ModuleMap(h.source, f.source, space.combine(sol))


def _solve_joint_oracle(unknowns, equations, p):
    """One linear solve for maps X_key, each unknown in its Hom space.

    An equation (terms, rhs) reads sum of left @ X_key @ right == rhs over
    its terms (key, left, right); a None factor is the identity.  Returns
    {key: matrix} (free coordinates set to 0), or None if inconsistent.
    """
    offsets, pos = {}, 0
    for key, space in unknowns.items():
        offsets[key] = pos
        pos += len(space)
    nrows = sum(rhs.size for _, rhs in equations)
    system = linalg.zeros(nrows, pos)
    target = np.zeros(nrows, dtype=np.int64)
    r = 0
    for terms, rhs in equations:
        for key, left, right in terms:
            space = unknowns[key]
            vals = space.stacked
            if left is not None:
                vals = (left @ vals) % p
            if right is not None:
                vals = (vals @ right) % p
            cols = slice(offsets[key], offsets[key] + len(space))
            system[r:r + rhs.size, cols] += vals.reshape(len(space), rhs.size).T
        target[r:r + rhs.size] = rhs.reshape(-1)
        r += rhs.size
    sol = linalg.solve_linear(system % p, target, p)
    if sol is None:
        return None
    return {key: space.combine(sol[offsets[key]:offsets[key] + len(space)])
            for key, space in unknowns.items()}


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


def _endomorphism_algebra_oracle(m, summands=None):
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
        if any(rad is None for rad in radicals):
            raise _not_local()
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


def _hom_functor_action_oracle(ctx, x):
    hx = HomSpace(ctx.m, x)
    ends = np.stack([f.matrix for f in ctx.basis_maps])
    # action[i][:, c] = coordinates of phi_c ∘ f_i
    action = hx.coords(linalg.mat_mul(hx.stacked[None, :], ends[:, None], hx.p)
                       ).transpose(0, 2, 1)
    return action


def _hom_functor_map_oracle(ctx, f):
    hx = HomSpace(ctx.m, f.source)
    hy = HomSpace(ctx.m, f.target)
    mat = hy.coords(linalg.mat_mul(f.matrix, hx.stacked, f.p)).T
    return mat


def _add_membership_oracle(x, c, blocks=None):
    if x.dim == 0:
        return Membership(True)
    approx = right_approximation(x, c, blocks)
    # Hom(x, M_j) of the summand each piece copies
    out = {id(m): space for m, space in
           zip(c.summands, _summand_homs(x, c, blocks, into=False))}
    spaces = [out[id(m)] for m in approx.pieces]
    cells = x.dim * x.dim
    cols = np.concatenate([linalg.zeros(0, cells)] + [
        linalg.mat_mul(h.matrix, space.stacked, x.p).reshape(len(space), cells)
        for h, space in zip(approx.piece_homs, spaces)])
    sol = linalg.solve_linear(cols.T, linalg.identity(x.dim).reshape(-1), x.p)
    if sol is None:
        return Membership(False, approximation=approx)
    offs = np.cumsum([0] + [len(space) for space in spaces])
    matrix = np.concatenate([linalg.zeros(0, x.dim)] + [
        space.combine(sol[offs[k]:offs[k + 1]]) for k, space in enumerate(spaces)])
    section = ModuleMap(x, approx.map.source, matrix)
    return Membership(True, section=section, approximation=approx)


def _truncation_split_oracle(x, c):
    x = x.trim()
    for i, term in enumerate(x.terms):
        if term.dim and not add_membership(term, c):
            raise HypothesesNotSatisfied(f"term at degree {x.lo + i} is not in add(M)")
    if not is_acyclic(x):
        raise HypothesesNotSatisfied("complex is not acyclic")
    if not is_c_acyclic(x, c):
        raise HypothesesNotSatisfied("complex is not C-acyclic")
    degrees, in_add, splits = [], [], []
    for n in range(x.lo, x.hi):
        d = x.diff(n)
        im, incl, cor = module_image(d)
        degrees.append(n)
        in_add.append(bool(add_membership(im, c)))
        splits.append(_factor_through(identity_map(im), cor) is not None)
    return TruncationSplitReport(degrees, in_add, splits)


# -- comparison -------------------------------------------------------------------


def _assert_same_bits(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got, want)


def _assert_same_solution(got, want):
    assert (got is None) == (want is None)
    if want is not None:
        assert list(got) == list(want)
        for key in want:
            _assert_same_bits(got[key], want[key])


def _checked_solves(calls):
    """A stand-in for _solve_joint that also runs the oracle and compares."""
    def solve(unknowns, equations, p):
        got = _solve_joint(unknowns, equations, p)
        _assert_same_solution(got, _solve_joint_oracle(unknowns, equations, p))
        calls.append(len(unknowns))
        return got
    return solve


def _outcome(fn, *args):
    try:
        return fn(*args)
    except HypothesesNotSatisfied as e:
        return f"refused: {e}"


def _case(case, seed):
    """The complexes and categories of a bundled workspace, and a generator."""
    complexes_, categories = bundled(*case)
    return complexes_, categories, np.random.default_rng(seed)


# -- the checks -------------------------------------------------------------------


def check_ext_deltas(x, y, max_i=2):
    """The deltas of ext_dims, and its dims read off the oracle's."""
    res = projective_resolution(x, max_i + 1, strategy=_cover_strategy(x.algebra))
    spaces = [HomSpace(t, y) for t in res.terms]
    want = [_hom_complex_delta(res, y, i, spaces) for i in range(min(max_i + 1, res.length))]
    for i, delta in enumerate(want):
        _assert_same_bits(spaces[i + 1].induced(spaces[i], right=res.maps[i + 1].matrix),
                          delta)
    hom_dims = [len(s) for s in spaces] + [0] * (max_i + 1)
    assert ext_dims(x, y, max_i).dims == _cohomology(hom_dims[:max_i + 1], want, y.p)


def check_complex(x, y, c):
    """is_c_acyclic's deltas and verdict, and homotopy_hom_dim's blocks for
    n = -2..2."""
    for summand in c.summands:
        spaces = [HomSpace(summand, t) for t in x.terms]
        for i, (d, want) in enumerate(zip(x.diffs, _c_acyclic_deltas(summand, x))):
            _assert_same_bits(spaces[i + 1].induced(spaces[i], left=d.matrix), want.T)
            # a negated left factor, as the joint solve's equations have
            _assert_same_bits(spaces[i].compose(left=-d.matrix),
                              (-d.matrix @ spaces[i].stacked) % d.p)
    assert is_c_acyclic(x, c) == _is_c_acyclic_oracle(x, c)
    for n in range(-2, 3):
        for m in (n - 1, n):
            lower = {i: HomSpace(x.term(i), y.term(i + m)) for i in range(x.lo, x.hi + 1)}
            upper = {i: HomSpace(x.term(i), y.term(i + m + 1)) for i in range(x.lo, x.hi + 1)}
            sign = 1 if m % 2 == 0 else -1
            for r in upper:
                for col in lower:
                    want = _hom_dim_block_oracle(x, y, m, r, col, lower, upper)
                    if want is None:
                        continue
                    got = (upper[r].induced(lower[col], left=y.diff(col + m).matrix)
                           if r == col else
                           upper[r].induced(lower[col], right=-sign * x.diff(r).matrix))
                    _assert_same_bits(got, want)
        homotopy_hom_dim(x, y, n)


def check_b_and_hom_functor(summands, modules_, c):
    m = sum_module(summands)
    for declared in (summands, None):
        got = endomorphism_algebra(m, summands=declared)
        want = _endomorphism_algebra_oracle(m, summands=declared)
        for field in ("mult", "unit"):
            _assert_same_bits(getattr(got.b, field), getattr(want.b, field))
        for field in ("radical", "idempotents"):
            if getattr(want.b, field) is None:
                assert getattr(got.b, field) is None
            else:
                _assert_same_bits(getattr(got.b, field), getattr(want.b, field))
        # the stack case of compose, on its own
        end = HomSpace(m, m) if declared is None else _sum_hom_space(m, m, got.blocks)
        _assert_same_bits(end.compose(right=end.stacked[:, None]),
                          linalg.mat_mul(end.stacked[None, :], end.stacked[:, None], m.p))
    ctx = got
    for x in modules_:
        _assert_same_bits(hom_functor(ctx, x).action, _hom_functor_action_oracle(ctx, x))
        f = right_approximation(x, c).map
        _assert_same_bits(hom_functor_map(ctx, f).matrix, _hom_functor_map_oracle(ctx, f))


def check_solves(x, y, modules_, categories):
    """Every joint solve of the C-resolution lift and the retractions, the
    add-membership sections and the truncation splits."""
    calls = []
    with ExitStack() as stack:
        for owner in (complexes, approx):
            stack.enter_context(mock.patch.object(owner, "_solve_joint", _checked_solves(calls)))
        for c in categories:
            c_resolution(x, c, 2)
            _outcome(homotopy_retraction, identity_chain_map(x), c)
            for z in modules_:
                got, want = add_membership(z, c), _add_membership_oracle(z, c)
                assert got.member == want.member
                if want.section is not None:
                    _assert_same_bits(got.section.matrix, want.section.matrix)
            # acyclic, C-acyclic, with terms in add(M) when x's are: the cone of id_x
            cone = mapping_cone(identity_chain_map(x))[0]
            got = _outcome(acyclic_truncation_split, cone, c)
            want = _outcome(_truncation_split_oracle, cone, c)
            assert got == want
    assert calls
    for d in x.diffs + y.diffs:
        im, _, cor = module_image(d)
        want = _factor_through(identity_map(im), cor)
        got = _solve_joint({"s": HomSpace(im, cor.source)},
                           [([("s", cor.matrix, None)], linalg.identity(im.dim))], d.p)
        assert (got is None) == (want is None)
        if want is not None:
            _assert_same_bits(got["s"], want.matrix)


@settings(max_examples=50, deadline=None)
@given(case=st.sampled_from(CASES), k=st.integers(0, 100), seed=st.integers(0, 2**32 - 1))
def test_hom_space_maps_agree_with_the_oracles(case, k, seed):
    complexes_, categories, rng = _case(case, seed)
    x = rebased(complexes_[k % len(complexes_)], rng)
    y = rebased(complexes_[(k + 1) % len(complexes_)], rng)
    mods = [_random_conjugate(t, rng) for t in x.terms + y.terms if t.dim]
    for a in mods[:2]:
        for b in mods[-2:]:
            check_ext_deltas(a, b)
    c = categories[1]
    check_complex(x, y, c)
    summands = [_random_conjugate(s, rng) for s in c.summands]
    check_b_and_hom_functor(summands, mods, AddCategory(summands))
    check_solves(x, y, mods, categories)


@pytest.mark.parametrize("case", CASES)
def test_bundled_stalks_agree_with_the_oracles(case):
    """The checks on every bundled complex as given, and on the stalks of
    the add(M) summands, whose truncation splits are decided."""
    complexes_, categories, _ = _case(case, 0)
    c = categories[1]
    stalks = [stalk(s) for s in c.summands]
    for x, y in zip(complexes_ + stalks, stalks + complexes_):
        check_complex(x, y, c)
    for s in stalks:
        check_solves(s, s, c.summands, categories)
        report = acyclic_truncation_split(mapping_cone(identity_chain_map(s))[0], c)
        assert report.all_split
    check_b_and_hom_functor(c.summands, [t for x in complexes_ for t in x.terms], c)
