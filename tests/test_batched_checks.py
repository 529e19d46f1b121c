"""The batched structure checks against the per-element loops they replaced.

The loop versions below are the earlier implementations, kept verbatim but
for their names: validate_algebra, validate_radical with its
_ideal_closure_step and span test (less its trace-form semisimplicity
test, which from_table's exact radical check replaced), quotient_algebra, validate_module, the
ModuleMap intertwining check and the np.kron Hom stack.  The batched code
must give the same verdict and the same exception message (so the same
first offending index) on bundled and random small algebras and modules,
under random changes of basis, and on copies with one entry corrupted.
"""

import functools
import itertools

import numpy as np
from hypothesis import assume, given, settings, strategies as st

from homres import linalg
from homres.algebra import (
    Algebra, QuiverPresentation, _ideal_closure_step, _row_basis,
    from_quiver, quotient_algebra, validate_algebra, validate_radical,
)
from homres.endo import endomorphism_algebra
from homres.errors import InvalidInput
from homres.modules import (
    HomSpace, Module, ModuleMap, direct_sum, hom_basis, regular_module,
    simple_modules, validate_module,
)
from homres.resolutions import COVER_STRATEGIES, free_cover

from test_resolutions import _workspace_at

PRIMES = [2, 3, 7, 1048573]
BUNDLED = ["kx2", "kx3", "a2-hereditary"]


# -- the loop references ----------------------------------------------------------


def _loop_validate_algebra(a):
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
    for i in range(n):
        for j in range(n):
            lhs = linalg.mat_mul(left[i], left[j], p)
            rhs = np.einsum("k,kab->ab", a.mult[i, j], left) % p
            if not np.array_equal(lhs, rhs):
                for k in range(n):
                    lv = a.multiply(a.multiply(ident[i], ident[j]), ident[k])
                    rv = a.multiply(ident[i], a.multiply(ident[j], ident[k]))
                    if not np.array_equal(lv, rv):
                        raise InvalidInput(f"associativity fails at triple ({i}, {j}, {k})")
                raise InvalidInput(f"associativity fails at pair ({i}, {j})")
    if a.radical is not None:
        _loop_validate_radical(a, a.radical)
    return a


def _loop_row_space_contains(rows, vec, p):
    """Membership of vec in the row span of rows."""
    if rows.shape[0] == 0:
        return not np.any(vec % p)
    return linalg.solve_linear(rows.T % p, vec.reshape(-1, 1) % p, p) is not None


def _loop_ideal_closure_step(a, rows, other):
    """Row basis of span{x*y : x in rows, y in other} (element products)."""
    prods = []
    for x in rows:
        for y in other:
            prods.append(a.multiply(x, y))
    if not prods:
        return linalg.zeros(0, a.dim)
    r, piv = linalg.rref(np.array(prods, dtype=np.int64), a.p)
    return r[:len(piv)]


def _loop_validate_radical(a, rows):
    p = a.p
    rows = _row_basis(rows, p, a.dim)
    ident = linalg.identity(a.dim)
    for r in rows:
        for i in range(a.dim):
            if not _loop_row_space_contains(rows, a.multiply(ident[i], r), p):
                raise InvalidInput(f"radical rows are not a left ideal (b{i} * row escapes)")
            if not _loop_row_space_contains(rows, a.multiply(r, ident[i]), p):
                raise InvalidInput(f"radical rows are not a right ideal (row * b{i} escapes)")
    power = rows
    for _ in range(a.dim + 1):
        if power.shape[0] == 0:
            break
        nxt = _loop_ideal_closure_step(a, power, rows)
        if nxt.shape[0] == power.shape[0]:
            # successive powers of an ideal shrink until zero; a nonzero
            # fixed point can never reach zero
            raise InvalidInput("radical rows do not span a nilpotent ideal")
        power = nxt
    if power.shape[0] != 0:
        raise InvalidInput("radical rows do not span a nilpotent ideal")


def _loop_quotient_algebra(a, ideal_rows):
    p = a.p
    proj, lift = linalg.quotient_basis(
        linalg.as_matrix(ideal_rows, p, cols=a.dim), p)
    qdim = lift.shape[1]
    mult = np.zeros((qdim, qdim, qdim), dtype=np.int64)
    for i in range(qdim):
        for j in range(qdim):
            mult[i, j] = (proj @ a.multiply(lift[:, i], lift[:, j])) % p
    q = Algebra(p=p, dim=qdim, mult=mult, unit=(proj @ a.unit) % p)
    return _loop_validate_algebra(q), proj, lift


def _loop_validate_module(x):
    a = x.algebra
    p = a.p
    unit_act = x.act(a.unit)
    if not np.array_equal(unit_act, linalg.identity(x.dim)):
        raise InvalidInput("unit does not act as the identity")
    for i in range(a.dim):
        for j in range(a.dim):
            lhs = linalg.mat_mul(x.action[i], x.action[j], p)
            rhs = np.einsum("k,kab->ab", a.mult[i, j], x.action) % p
            if not np.array_equal(lhs, rhs):
                raise InvalidInput(f"action is not multiplicative at pair ({i}, {j})")
    return x


def _loop_check_map(source, target, matrix):
    """The intertwining check of ModuleMap.__post_init__, one b_i at a time."""
    p = source.p
    for i in range(source.algebra.dim):
        lhs = linalg.mat_mul(matrix, source.action[i], p)
        rhs = linalg.mat_mul(target.action[i], matrix, p)
        if not np.array_equal(lhs, rhs):
            raise InvalidInput(f"matrix does not intertwine basis element {i}")


def _kron_hom_rows(x, y):
    """hom_basis rows from the stack of I kron X_i^T - Y_i kron I blocks."""
    p = x.p
    dx, dy = x.dim, y.dim
    blocks = []
    for i in range(x.algebra.dim):
        blocks.append(np.kron(linalg.identity(dy), x.action[i].T)
                      - np.kron(y.action[i], linalg.identity(dx)))
    return linalg.kernel_basis(np.vstack(blocks), p)


# -- inputs -----------------------------------------------------------------------


def _outcome(fn, *args):
    """("ok", result) or ("invalid", message)."""
    try:
        return "ok", fn(*args)
    except InvalidInput as e:
        return "invalid", str(e)


def _radical_cube_zero_quiver(seed, p):
    """A random quiver on at most 3 vertices modulo all paths of length 3."""
    rng = np.random.default_rng(seed)
    v = int(rng.integers(1, 4))
    arrows = [tuple(int(t) for t in rng.integers(0, v, size=2))
              for _ in range(int(rng.integers(0, 4)))]
    relations = [seq for seq in itertools.product(range(len(arrows)), repeat=3)
                 if all(arrows[seq[m]][1] == arrows[seq[m + 1]][0] for m in range(2))]
    return from_quiver(QuiverPresentation(v, arrows, relations), p)


@functools.lru_cache(maxsize=None)
def _source_modules(kind, key, p):
    """A list of modules over one algebra (the algebra carries its radical)."""
    if kind == "bundled":
        ws = _workspace_at(key, p)
        return [x for _, x in sorted(ws.modules.items())]
    if kind == "quiver":
        a = _radical_cube_zero_quiver(key, p)
        return [regular_module(a)] + simple_modules(a)
    ws = _workspace_at(key, p)
    summands = [ws.modules[n] for n in ws.suite["summands"]]
    b = endomorphism_algebra(direct_sum(summands).module, summands=summands).b
    return [regular_module(b)] + simple_modules(b)


SOURCES = ([("bundled", n) for n in BUNDLED] + [("quiver", s) for s in range(6)]
           + [("b", n) for n in BUNDLED])


def _draw_source(source, p):
    kind, key = source
    # B's radical enumerates End of each summand, which needs p^h <= 2^16
    assume(kind != "b" or p <= 7)
    return _source_modules(kind, key, p)


def _invertible(n, p, rng):
    while True:
        g = rng.integers(0, p, size=(n, n))
        ginv = linalg.inverse(g, p)
        if ginv is not None:
            return g, ginv


def _rebased(a, rng, drop_radical=False):
    """a on the basis c_i = sum_k g[i, k] b_k for a random invertible g, and
    the map taking an action tensor over a to one over the new algebra."""
    p, n = a.p, a.dim
    g, ginv = _invertible(n, p, rng)
    # c_i c_j = sum g[i, s] g[j, t] mult[s, t, k] b_k and b_k = sum ginv[k, l] c_l
    mult = np.einsum("is,stk->itk", g, a.mult) % p
    mult = np.einsum("jt,itk->ijk", g, mult) % p
    mult = (mult @ ginv) % p
    radical = None if drop_radical or a.radical is None else (a.radical @ ginv) % p
    b = Algebra(p=p, dim=n, mult=mult, unit=(a.unit @ ginv) % p, radical=radical)
    return b, lambda action: np.einsum("is,sab->iab", g, action) % p


def _rebased_module(x, b, carry, rng):
    """x over the rebased algebra b, in a random basis of its own."""
    p = x.p
    g, ginv = _invertible(x.dim, p, rng)
    # reduced after each product: at p near 2^20 two in a row overflow int64
    return Module(b, x.dim, ((g @ carry(x.action)) % p @ ginv) % p)


def _unit_preserving_twist(a, p, rng):
    """mult + phi ⊗ psi ⊗ z for functionals phi, psi that vanish on the unit:
    both unit laws still hold, associativity almost never does."""
    t = int(np.flatnonzero(a.unit)[0])
    inv = pow(int(a.unit[t]), p - 2, p)
    forms = []
    for _ in range(2):
        f = rng.integers(0, p, size=a.dim)
        f[t] = 0
        f[t] = (-int(f @ a.unit % p) * inv) % p
        forms.append(f)
    z = rng.integers(0, p, size=a.dim)
    twist = np.einsum("i,j->ij", forms[0], forms[1]) % p
    return (a.mult + np.einsum("ij,k->ijk", twist, z) % p) % p


def _corrupt(arr, p, rng):
    """A copy of arr with one entry changed by a nonzero amount mod p."""
    out = np.array(arr, dtype=np.int64)
    if out.size:
        idx = tuple(int(rng.integers(0, s)) for s in out.shape)
        out[idx] = (out[idx] + int(rng.integers(1, p))) % p
    return out


common = settings(max_examples=50, deadline=None)
sources = st.sampled_from(SOURCES)
primes = st.sampled_from(PRIMES)
seeds = st.integers(0, 2 ** 32 - 1)


# -- the comparisons ---------------------------------------------------------------


@common
@given(source=sources, p=primes, seed=seeds,
       corrupt=st.sampled_from([None, "mult", "twist", "unit", "radical"]),
       drop_radical=st.booleans())
def test_validate_algebra_matches_loop(source, p, seed, corrupt, drop_radical):
    a0 = _draw_source(source, p)[0].algebra
    rng = np.random.default_rng(seed)
    a, _ = _rebased(a0, rng, drop_radical)
    mult, unit, radical = a.mult, a.unit, a.radical
    if corrupt == "mult":
        mult = _corrupt(mult, p, rng)
    elif corrupt == "twist" and a.dim:
        mult = _unit_preserving_twist(a, p, rng)
    elif corrupt == "unit":
        unit = _corrupt(unit, p, rng)
    elif corrupt == "radical" and radical is not None and radical.size:
        radical = _corrupt(radical, p, rng)

    def fresh():
        return Algebra(p=p, dim=a.dim, mult=mult, unit=unit, radical=radical)

    got, want = _outcome(validate_algebra, fresh()), _outcome(_loop_validate_algebra, fresh())
    assert got[0] == want[0]
    if got[0] == "invalid":
        assert got[1] == want[1]


@common
@given(source=sources, p=primes, seed=seeds,
       rows=st.sampled_from(["radical", "square", "some", "corrupt", "random", "all"]))
def test_validate_radical_matches_loop(source, p, seed, rows):
    a0 = _draw_source(source, p)[0].algebra
    rng = np.random.default_rng(seed)
    a, _ = _rebased(a0, rng)
    n = a.dim
    rad = a.radical
    if rows == "square":
        cand = _loop_ideal_closure_step(a, rad, rad)
    elif rows == "some":
        cand = rad[rng.random(rad.shape[0]) < 0.5]
    elif rows == "corrupt":
        cand = _corrupt(rad, p, rng) if rad.size else rad
    elif rows == "random":
        cand = rng.integers(0, p, size=(int(rng.integers(0, n + 1)), n))
    elif rows == "all":
        cand = linalg.identity(n)
    else:
        cand = rad
    assert _outcome(validate_radical, a, cand) == _outcome(_loop_validate_radical, a, cand)


@common
@given(source=sources, p=primes, seed=seeds, shape=st.tuples(st.integers(0, 4),
                                                          st.integers(0, 4)))
def test_ideal_closure_step_matches_loop(source, p, seed, shape):
    a = _draw_source(source, p)[0].algebra
    rng = np.random.default_rng(seed)
    rows = rng.integers(0, p, size=(shape[0], a.dim))
    other = rng.integers(0, p, size=(shape[1], a.dim))
    got = _ideal_closure_step(a, rows, other)
    want = _loop_ideal_closure_step(a, rows, other)
    assert got.dtype == want.dtype and np.array_equal(got, want)


@common
@given(source=sources, p=primes, seed=seeds, random_rows=st.booleans())
def test_quotient_algebra_matches_loop(source, p, seed, random_rows):
    a0 = _draw_source(source, p)[0].algebra
    rng = np.random.default_rng(seed)
    a, _ = _rebased(a0, rng)
    # random rows rarely span an ideal, so the quotient fails its own checks
    rows = (rng.integers(0, p, size=(int(rng.integers(0, a.dim + 1)), a.dim))
            if random_rows else a.radical)
    got = _outcome(quotient_algebra, a, rows)
    want = _outcome(_loop_quotient_algebra, a, rows)
    assert got[0] == want[0]
    if got[0] == "invalid":
        assert got[1] == want[1]
    else:
        (q, proj, lift), (wq, wproj, wlift) = got[1], want[1]
        assert np.array_equal(q.mult, wq.mult) and np.array_equal(q.unit, wq.unit)
        assert np.array_equal(proj, wproj) and np.array_equal(lift, wlift)


@common
@given(source=sources, p=primes, seed=seeds, pick=st.integers(0, 20),
       corrupt=st.booleans())
def test_validate_module_matches_loop(source, p, seed, pick, corrupt):
    mods = _draw_source(source, p)
    rng = np.random.default_rng(seed)
    b, carry = _rebased(mods[0].algebra, rng)
    x = _rebased_module(mods[pick % len(mods)], b, carry, rng)
    action = _corrupt(x.action, p, rng) if corrupt else x.action
    got = _outcome(validate_module, Module(b, x.dim, action))
    want = _outcome(_loop_validate_module, Module(b, x.dim, action))
    assert got[0] == want[0]
    if got[0] == "invalid":
        assert got[1] == want[1]


@common
@given(source=sources, p=primes, seed=seeds,
       pick=st.tuples(st.integers(0, 20), st.integers(0, 20)),
       matrix=st.sampled_from(["map", "corrupt", "random"]))
def test_module_map_check_matches_loop(source, p, seed, pick, matrix):
    mods = _draw_source(source, p)
    rng = np.random.default_rng(seed)
    b, carry = _rebased(mods[0].algebra, rng)
    x = _rebased_module(mods[pick[0] % len(mods)], b, carry, rng)
    y = _rebased_module(mods[pick[1] % len(mods)], b, carry, rng)
    space = HomSpace(x, y)
    m = space.combine(rng.integers(0, p, size=len(space))) if len(space) else (
        linalg.zeros(y.dim, x.dim))
    if matrix == "corrupt":
        m = _corrupt(m, p, rng)
    elif matrix == "random":
        m = rng.integers(0, p, size=(y.dim, x.dim))
    got = _outcome(ModuleMap, x, y, m)
    want = _outcome(_loop_check_map, x, y, m)
    assert got[0] == want[0]
    if got[0] == "invalid":
        assert got[1] == want[1]


@common
@given(source=sources, p=primes, seed=seeds,
       pick=st.tuples(st.integers(0, 20), st.integers(0, 20)))
def test_hom_basis_matches_kron_stack(source, p, seed, pick):
    mods = _draw_source(source, p)
    rng = np.random.default_rng(seed)
    b, carry = _rebased(mods[0].algebra, rng)
    x = _rebased_module(mods[pick[0] % len(mods)], b, carry, rng)
    y = _rebased_module(mods[pick[1] % len(mods)], b, carry, rng)
    got = np.array([f.matrix.reshape(-1) for f in hom_basis(x, y)], dtype=np.int64)
    if x.dim == 0 or y.dim == 0:
        assert got.size == 0
        return
    want = _kron_hom_rows(x, y)
    assert np.array_equal(got.reshape(want.shape), want)


@common
@given(source=sources, p=primes, seed=seeds, pick=st.integers(0, 20),
       strategy=st.sampled_from(COVER_STRATEGIES))
def test_free_cover_module_is_the_direct_sum(source, p, seed, pick, strategy):
    mods = _draw_source(source, p)
    x = mods[pick % len(mods)]
    cover = free_cover(x, strategy, seed=seed % 1000)
    a = x.algebra
    g = cover.source.dim // a.dim
    want = direct_sum([regular_module(a)] * g, algebra=a).module
    assert cover.source.dim == want.dim
    assert np.array_equal(cover.source.action, want.action)
