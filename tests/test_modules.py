import functools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from homres import linalg
from homres.algebra import (
    Algebra, QuiverPresentation, from_quiver, opposite, same_algebra,
)
from homres.errors import InternalError, InvalidInput
from homres.modules import (
    UNDECIDED,
    HomSpace,
    Module,
    ModuleMap,
    coords_in_basis,
    direct_sum,
    dual_module,
    hom_basis,
    identity_map,
    is_isomorphic,
    map_cokernel,
    map_kernel,
    module_image,
    regular_module,
    same_module,
    simple_modules,
    validate_module,
    zero_map,
    zero_module,
)

from homres.workspace import bundled_workspace_path, load_workspace

from test_algebra import dual_numbers, truncated_cubic, two_vertex_line


def simple_k(a):
    """The 1-dim module where the loop acts by 0 (for the one-vertex algebras)."""
    return simple_modules(a)[0]


def test_regular_module_valid():
    for make in (dual_numbers, truncated_cubic, two_vertex_line):
        validate_module(regular_module(make(3)))


def test_module_map_rejects_non_intertwiner():
    a = dual_numbers(2)
    reg = regular_module(a)
    k = simple_k(a)
    with pytest.raises(InvalidInput):
        ModuleMap(reg, k, [[0, 1]])  # picks out the x-coordinate: not a map


def test_hom_dims_dual_numbers():
    # over GF(2)[x]/(x^2): Hom(A,A)=2, Hom(A,k)=1, Hom(k,A)=1, Hom(k,k)=1
    a = dual_numbers(2)
    reg = regular_module(a)
    k = simple_k(a)
    assert len(hom_basis(reg, reg)) == 2
    assert len(hom_basis(reg, k)) == 1
    assert len(hom_basis(k, reg)) == 1
    assert len(hom_basis(k, k)) == 1


def test_hom_contains_identity():
    a = truncated_cubic(5)
    reg = regular_module(a)
    assert coords_in_basis(identity_map(reg), hom_basis(reg, reg)) is not None


def test_hom_projectives_path_algebra():
    # 0 -> 1: P0 = Ae0 (dim 2), P1 = Ae1 (dim 1); Hom(P0,P1)=0, Hom(P1,P0)=1
    a = two_vertex_line(3)
    reg = regular_module(a)
    # project the regular module onto Ae0 (basis e0, u) and Ae1 (basis e1)
    p0 = _summand_on(reg, [0, 2])
    p1 = _summand_on(reg, [1])
    assert len(hom_basis(p0, p1)) == 0
    assert len(hom_basis(p1, p0)) == 1


def _summand_on(reg, idxs):
    from homres.modules import _submodule_on_rows
    rows = linalg.identity(reg.dim)[idxs, :]
    return _submodule_on_rows(reg, rows)


def test_direct_sum_contracts():
    a = dual_numbers(2)
    reg = regular_module(a)
    k = simple_k(a)
    ds = direct_sum([reg, k])
    assert ds.module.dim == 3
    for i, inj in enumerate(ds.injections):
        for j, proj in enumerate(ds.projections):
            comp = proj.compose(inj)
            expect = linalg.identity(comp.source.dim) if i == j else 0 * comp.matrix
            assert np.array_equal(comp.matrix, expect)
    empty = direct_sum([], algebra=a)
    assert empty.module.dim == 0


def test_hom_additivity():
    a = truncated_cubic(3)
    reg = regular_module(a)
    k = simple_k(a)
    ds = direct_sum([reg, k]).module
    assert len(hom_basis(ds, reg)) == len(hom_basis(reg, reg)) + len(hom_basis(k, reg))


def test_kernel_of_identity_and_zero():
    a = dual_numbers(2)
    reg = regular_module(a)
    k, incl = map_kernel(identity_map(reg))
    assert k.dim == 0
    k2, incl2 = map_kernel(zero_map(reg, reg))
    assert k2.dim == reg.dim


def test_kernel_of_augmentation_is_socle():
    # A -> k (1 |-> 1) over GF(2)[x]/(x^2): kernel = span{x} ≅ k
    a = dual_numbers(2)
    reg = regular_module(a)
    k = simple_k(a)
    aug = ModuleMap(reg, k, [[1, 0]])
    ker, incl = map_kernel(aug)
    assert ker.dim == 1
    assert is_isomorphic(ker, k) is True
    assert incl.matrix.tolist() == [[0], [1]]


def test_cokernel_of_socle_inclusion():
    a = dual_numbers(2)
    reg = regular_module(a)
    k = simple_k(a)
    soc = ModuleMap(k, reg, [[0], [1]])
    cok, proj = map_cokernel(soc)
    assert cok.dim == 1
    assert is_isomorphic(cok, k) is True
    # cokernel of identity -> zero; of zero map -> target
    assert map_cokernel(identity_map(reg))[0].dim == 0
    assert map_cokernel(zero_map(k, reg))[0].dim == reg.dim


def test_image_factorization():
    a = truncated_cubic(3)
    reg = regular_module(a)
    # right multiplication by x is a left-module endomorphism of rank 2
    rx = ModuleMap(reg, reg, a.right_mult_matrices()[1])
    im, incl, cor = module_image(rx)
    assert im.dim == 2
    assert np.array_equal(incl.compose(cor).matrix, rx.matrix)


def test_rank_nullity_through_kernel():
    a = truncated_cubic(3)
    reg = regular_module(a)
    rx = ModuleMap(reg, reg, a.right_mult_matrices()[1])
    ker, _ = map_kernel(rx)
    assert ker.dim + linalg.rank(rx.matrix, 3) == reg.dim


def test_is_isomorphic_basic():
    a = dual_numbers(2)
    reg = regular_module(a)
    k = simple_k(a)
    assert is_isomorphic(reg, reg) is True
    assert is_isomorphic(reg, k) is False
    # conjugated copy of the regular module
    g = np.array([[1, 1], [0, 1]], dtype=np.int64)
    ginv = linalg.inverse(g, 2)
    conj = Module(a, 2, np.stack([(g @ m @ ginv) % 2 for m in reg.action]))
    validate_module(conj)
    assert is_isomorphic(reg, conj) is True
    # same dimension, non-isomorphic: k ⊕ k vs A
    kk = direct_sum([k, k]).module
    assert is_isomorphic(reg, kk) is False


def test_dual_module_round_trip():
    a = dual_numbers(2)
    reg = regular_module(a)
    d = dual_module(reg)
    assert same_algebra(d.algebra, opposite(a))
    validate_module(d)
    dd = dual_module(d)
    assert same_algebra(dd.algebra, a)
    assert is_isomorphic(reg, dd) is True
    assert dual_module(zero_module(a)).dim == 0
    # dual of the regular module of a self-injective commutative algebra is regular
    assert is_isomorphic(Module(a, 2, d.action), reg) is True  # same table: a commutative


def test_dual_of_simple_over_path_algebra():
    a = two_vertex_line(3)
    s0, s1 = simple_modules(a)
    d0 = dual_module(s0)
    op_simples = simple_modules(opposite(a))
    assert is_isomorphic(d0, op_simples[0]) is True


def test_simple_modules_quiver_counts():
    assert len(simple_modules(dual_numbers(2))) == 1
    assert len(simple_modules(two_vertex_line(5))) == 2
    s0, s1 = simple_modules(two_vertex_line(5))
    assert (s0.action[:, 0, 0].tolist(), s1.action[:, 0, 0].tolist()) == ([1, 0, 0], [0, 1, 0])


def test_simple_modules_generic_pipeline():
    # strip the quiver hints from GF(7)[x]/(x^2): trace-form radical + Fitting path
    a0 = dual_numbers(7)
    a = Algebra(p=7, dim=2, mult=a0.mult, unit=a0.unit)
    sims = simple_modules(a)
    assert len(sims) == 1 and sims[0].dim == 1
    assert sims[0].action[1].tolist() == [[0]]  # x acts by zero


def test_simple_modules_matrix_algebra():
    # M_2(GF(5)): one simple of dimension 2, found twice in the regular module
    mult = np.zeros((4, 4, 4), dtype=np.int64)
    for r in range(2):
        for c in range(2):
            for s in range(2):
                for t in range(2):
                    if c == s:
                        mult[2 * r + c, 2 * s + t, 2 * r + t] = 1
    a = Algebra(p=5, dim=4, mult=mult, unit=np.array([1, 0, 0, 1]))
    sims = simple_modules(a)
    assert len(sims) == 1 and sims[0].dim == 2


def test_simple_modules_product_algebra():
    # GF(3) x GF(3): two 1-dim simples
    mult = np.zeros((2, 2, 2), dtype=np.int64)
    mult[0, 0, 0] = 1
    mult[1, 1, 1] = 1
    a = Algebra(p=3, dim=2, mult=mult, unit=np.array([1, 1]))
    sims = simple_modules(a)
    assert len(sims) == 2 and all(s.dim == 1 for s in sims)


def test_hom_dim_basis_independent():
    a = truncated_cubic(2)
    reg = regular_module(a)
    g = np.array([[1, 1, 0], [0, 1, 1], [0, 0, 1]], dtype=np.int64)
    ginv = linalg.inverse(g, 2)
    conj = Module(a, 3, np.stack([(g @ m @ ginv) % 2 for m in reg.action]))
    assert len(hom_basis(conj, reg)) == len(hom_basis(reg, reg))


def test_undecided_is_not_truthy():
    from homres.errors import SearchExhausted
    with pytest.raises(SearchExhausted):
        bool(UNDECIDED)


@functools.lru_cache(maxsize=None)
def _bundled_modules(name):
    ws = load_workspace(bundled_workspace_path(name))
    return ws.p, [ws.modules[n] for n in sorted(ws.modules)]


def _random_conjugate(x, rng):
    """x in a random basis: the action b -> g b g^-1 for an invertible g.

    Each product is reduced mod p before the next: at p near 2^20 a bare
    g @ action @ g^-1 overflows int64 and leaves no module at all.
    """
    p = x.p
    while True:
        g = rng.integers(0, p, size=(x.dim, x.dim))
        ginv = linalg.inverse(g, p)
        if ginv is not None:
            return Module(x.algebra, x.dim,
                          linalg.mat_mul(linalg.mat_mul(g, x.action, p), ginv, p))


@settings(max_examples=40, deadline=None)
@given(name=st.sampled_from(["kx2", "kx3", "a2-hereditary"]),
       pick=st.tuples(st.integers(0, 5), st.integers(0, 5)),
       seed=st.integers(0, 2 ** 32 - 1))
def test_hom_space_coords_match_solve(name, pick, seed):
    p, mods = _bundled_modules(name)
    rng = np.random.default_rng(seed)
    x = _random_conjugate(mods[pick[0] % len(mods)], rng)
    y = _random_conjugate(mods[pick[1] % len(mods)], rng)
    space = HomSpace(x, y)
    assert [b.matrix.tolist() for b in space.basis] == [
        b.matrix.tolist() for b in hom_basis(x, y)]
    coeffs = rng.integers(0, p, size=len(space))
    f = space.combine(coeffs)
    assert space.coords(f).tolist() == coeffs.tolist()
    want = coords_in_basis(ModuleMap(x, y, f), space.basis)
    assert space.coords(f).tolist() == want.reshape(-1).tolist()
    assert np.array_equal(space.combine(space.coords(f)), f)
    bump = rng.integers(0, p, size=(y.dim, x.dim))
    outside = (f + bump) % p
    try:
        ModuleMap(x, y, outside)
    except InvalidInput:
        with pytest.raises(InternalError):
            space.coords(outside)
    else:
        assert coords_in_basis(ModuleMap(x, y, outside), space.basis) is not None


def test_nonzero_vectors_odometer_order():
    from homres.modules import _nonzero_vectors
    got = [v.tolist() for v in _nonzero_vectors(2, 3)]
    assert got == [[1, 0], [2, 0], [0, 1], [1, 1], [2, 1], [0, 2], [1, 2], [2, 2]]


def _loop_restrict(x, incl):
    """Reference restriction to the columns of incl: one solve per basis element."""
    p, k = x.p, incl.shape[1]
    action = np.zeros((x.algebra.dim, k, k), dtype=np.int64)
    for i in range(x.algebra.dim):
        action[i] = linalg.solve_linear(incl, linalg.mat_mul(x.action[i], incl, p), p)
    return action


def _loop_quotient(rows, n, p):
    """Reference quotient basis: proj = rows of I - r^T sel at the non-pivots."""
    r, piv = linalg.rref(rows, p)
    r = r[:len(piv)]
    nonpiv = [c for c in range(n) if c not in set(piv)]
    sel = linalg.zeros(len(piv), n)
    for i, c in enumerate(piv):
        sel[i, c] = 1
    reducer = (linalg.identity(n) - r.T @ sel) % p
    return reducer[nonpiv, :], linalg.identity(n)[:, nonpiv]


@settings(max_examples=40, deadline=None)
@given(name=st.sampled_from(["kx2", "kx3", "a2-hereditary"]),
       pick=st.tuples(st.integers(0, 5), st.integers(0, 5)),
       seed=st.integers(0, 2 ** 32 - 1))
def test_kernel_cokernel_image_match_loop_references(name, pick, seed):
    p, mods = _bundled_modules(name)
    rng = np.random.default_rng(seed)
    x = _random_conjugate(mods[pick[0] % len(mods)], rng)
    y = _random_conjugate(mods[pick[1] % len(mods)], rng)
    space = HomSpace(x, y)
    f = ModuleMap(x, y, space.combine(rng.integers(0, p, size=len(space))))
    km, kincl = map_kernel(f)
    assert np.array_equal(kincl.matrix, linalg.kernel_basis(f.matrix, p).T)
    assert np.array_equal(km.action, _loop_restrict(x, kincl.matrix))
    im, iincl, _ = module_image(f)
    assert np.array_equal(im.action, _loop_restrict(y, iincl.matrix))
    proj, lift = _loop_quotient(f.matrix.T, y.dim, p)
    got_proj, got_lift = linalg.quotient_basis(f.matrix.T, p)
    assert np.array_equal(got_proj, proj) and np.array_equal(got_lift, lift)
    cm, cproj = map_cokernel(f)
    assert np.array_equal(cproj.matrix, proj)
    for i in range(x.algebra.dim):
        assert np.array_equal(cm.action[i], (proj @ y.action[i] @ lift) % p)
