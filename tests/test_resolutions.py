import functools
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from homres import linalg
from homres.algebra import Algebra, from_table
from homres.endo import endomorphism_algebra
from homres.errors import InvalidInput
from homres.modules import (
    HomSpace, Module, ModuleMap, direct_sum, hom_basis, is_isomorphic, map_kernel,
    regular_module, simple_modules, zero_module,
)
from homres.resolutions import (
    EXCEEDS_BOUND,
    ext_dims,
    free_cover,
    gl_dim,
    inj_dim,
    is_projective,
    proj_dim,
    projective_resolution,
    validate_resolution,
)
from homres.workspace import bundled_workspace_path, parse_workspace

from test_algebra import dual_numbers, truncated_cubic, two_vertex_line
from test_modules import _random_conjugate


def test_is_projective_basics():
    a = dual_numbers(2)
    reg = regular_module(a)
    k = simple_modules(a)[0]
    assert is_projective(reg)
    assert not is_projective(k)
    assert is_projective(zero_module(a))
    assert is_projective(direct_sum([reg, reg]).module)


def test_free_cover_surjective_all_strategies():
    a = truncated_cubic(3)
    k = simple_modules(a)[0]
    for strat in ("evaluation", "doubled", "permuted"):
        f = free_cover(k, strategy=strat, seed=7)
        assert linalg.rank(f.matrix, 3) == k.dim


def test_resolution_of_regular_is_trivial():
    a = dual_numbers(2)
    reg = regular_module(a)
    res = projective_resolution(reg, 5)
    assert res.complete and res.length == 0
    validate_resolution(res)


def test_periodic_resolution_of_k_dual_numbers():
    # over GF(2)[x]/(x^2) every syzygy of k is again k: truncated at any length
    a = dual_numbers(2)
    k = simple_modules(a)[0]
    res = projective_resolution(k, 4)
    assert not res.complete
    assert [t.dim for t in res.terms] == [2, 2, 2, 2, 2]
    validate_resolution(res)
    for n in range(1, 5):
        assert is_isomorphic(res.syzygy(n), k) is True


def test_resolution_of_vertex_simple_hereditary():
    # S1 over 0 -> 1: free cover A -> S1 has projective kernel; complete at length 1
    a = two_vertex_line(2)
    s0, s1 = simple_modules(a)
    res = projective_resolution(s0, 10)
    assert res.complete and res.length == 1
    assert res.terms[1].dim == 2  # kernel e1, arrow: P2 ⊕ P2
    validate_resolution(res)
    # S2 = P2 is projective outright
    assert projective_resolution(s1, 10).length == 0


def test_ext_k_k_dual_numbers_periodic():
    a = dual_numbers(2)
    k = simple_modules(a)[0]
    table = ext_dims(k, k, 5)
    assert table.dims == [1, 1, 1, 1, 1, 1]


def test_ext_k_k_truncated_cubic():
    # hand Hom-complex oracle: minimal resolution of k over k[x]/(x^3)
    # alternates covers A --x--> A --x^2--> A ...; Ext^i(k,k) = 1 for all i
    a = truncated_cubic(3)
    k = simple_modules(a)[0]
    assert ext_dims(k, k, 4).dims == [1, 1, 1, 1, 1]


def test_ext_vanishes_for_projective_source():
    a = truncated_cubic(2)
    reg = regular_module(a)
    k = simple_modules(a)[0]
    assert ext_dims(reg, k, 4).dims == [1, 0, 0, 0, 0]


def test_ext1_hereditary():
    # Ext^1(S1, P2) = 1 over 0 -> 1
    a = two_vertex_line(2)
    s0, s1 = simple_modules(a)
    assert ext_dims(s0, s1, 3).dims == [0, 1, 0, 0]


def test_ext_schanuel_independence():
    # dims agree no matter which cover strategy built the resolution
    a = dual_numbers(3)
    k = simple_modules(a)[0]
    base = ext_dims(k, k, 3).dims
    for strat, seed in (("doubled", 0), ("permuted", 3)):
        res = projective_resolution(k, 2, strategy=strat, seed=seed)
        validate_resolution(res)
        # recompute Ext^1 by hand from this resolution: corank of delta^0
        homs = {i: HomSpace(res.terms[i], k) for i in range(min(3, res.length + 1))}
        d0 = homs[1].induced(homs[0], right=res.maps[1].matrix)
        d1 = homs[2].induced(homs[1], right=res.maps[2].matrix)
        ext1 = len(homs[1]) - linalg.rank(d1, 3) - linalg.rank(d0, 3)
        assert ext1 == base[1]


def test_proj_dim_values():
    a2 = two_vertex_line(2)
    s0, s1 = simple_modules(a2)
    assert proj_dim(regular_module(a2), 10) == 0
    assert proj_dim(s0, 10) == 1
    assert proj_dim(s1, 10) == 0
    dn = dual_numbers(2)
    assert proj_dim(simple_modules(dn)[0], 10) is EXCEEDS_BOUND


def test_inj_dim_self_injective():
    a = dual_numbers(2)
    assert inj_dim(regular_module(a), 5) == 0
    assert inj_dim(zero_module(a), 5) == 0


def test_inj_dim_hereditary():
    a = two_vertex_line(2)
    reg = regular_module(a)
    s0, s1 = simple_modules(a)
    assert inj_dim(reg, 5) == 1
    # S1 is the injective at vertex 0 (the arrow leaves 0), S2 = P2 is not injective
    assert inj_dim(s0, 5) == 0
    assert inj_dim(s1, 5) == 1


def test_inj_dim_simple_exceeds():
    a = dual_numbers(2)
    k = simple_modules(a)[0]
    assert inj_dim(k, 4) is EXCEEDS_BOUND


def test_gl_dim_values():
    assert gl_dim(two_vertex_line(2), 10) == 1
    assert gl_dim(dual_numbers(2), 10) is EXCEEDS_BOUND
    assert gl_dim(truncated_cubic(3), 10) is EXCEEDS_BOUND
    # a field is semisimple
    from homres.algebra import QuiverPresentation, from_quiver
    pt = from_quiver(QuiverPresentation(vertices=1, arrows=[], relations=[]), 5)
    assert gl_dim(pt, 10) == 0


def test_validate_resolution_catches_broken_exactness():
    a = dual_numbers(2)
    k = simple_modules(a)[0]
    res = projective_resolution(k, 2)
    res.maps[2] = ModuleMap(res.terms[2], res.terms[1],
                            linalg.zeros(res.terms[1].dim, res.terms[2].dim))
    with pytest.raises(Exception):
        validate_resolution(res)


def _splitting_is_projective(x):
    """Reference verdict: the evaluation cover A^d -> x splits.

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


@functools.lru_cache(maxsize=None)
def _workspace_at(name, p):
    with open(bundled_workspace_path(name), encoding="utf-8") as fh:
        return parse_workspace(dict(json.load(fh), p=p))


@functools.lru_cache(maxsize=None)
def _b_simples(name, p):
    """The simple modules of B = (End ⊕ summands)^op for a bundled suite."""
    ws = _workspace_at(name, p)
    summands = [ws.modules[n] for n in ws.suite["summands"]]
    ctx = endomorphism_algebra(direct_sum(summands).module, summands=summands)
    return simple_modules(ctx.b)


def _trace_form_modules(name, p):
    """The bundled modules over a fresh copy of their algebra without its
    quiver data, so radical_basis computes rad A itself."""
    ws = _workspace_at(name, p)
    a0 = ws.algebras["A"]
    a = Algebra(p=p, dim=a0.dim, mult=a0.mult, unit=a0.unit)
    return [Module(a, x.dim, x.action) for n, x in sorted(ws.modules.items())
            if x.algebra is a0]


_ORACLE_SOURCES = [("bundled", n) for n in ("kx2", "kx3", "a2-hereditary")] + [
    ("b-simple", "kx2"), ("b-simple", "kx3"),
    ("trace-form", "kx2"), ("trace-form", "kx3"), ("trace-form", "a2-hereditary")]


@settings(max_examples=60, deadline=None)
@given(source=st.sampled_from(_ORACLE_SOURCES),
       p=st.sampled_from([2, 3, 5, 7]),
       pick=st.lists(st.integers(0, 5), min_size=1, max_size=2),
       depth=st.integers(0, 2),
       seed=st.integers(0, 2 ** 32 - 1))
def test_is_projective_matches_splitting_reference(source, p, pick, depth, seed):
    kind, name = source
    if kind == "bundled":
        mods = [x for _, x in sorted(_workspace_at(name, p).modules.items())]
    elif kind == "b-simple":
        mods = _b_simples(name, p)
        depth = min(depth, 1)
    else:
        if p <= _workspace_at(name, p).algebras["A"].dim:
            p = 7
        mods = _trace_form_modules(name, p)
    rng = np.random.default_rng(seed)
    parts = [mods[i % len(mods)] for i in pick]
    x = _random_conjugate(direct_sum(parts).module, rng)
    for _ in range(depth):
        x = _random_conjugate(map_kernel(free_cover(x))[0], rng)
    assert is_projective(x) == _splitting_is_projective(x)


def _dual_numbers_table(p, radical=None):
    """GF(p)[t]/(t^2) as a bare table algebra."""
    return from_table(p, 2, [(0, 0, 0, 1), (0, 1, 1, 1), (1, 0, 1, 1)], [1, 0],
                      radical=radical)


def test_free_cover_finds_the_trace_form_radical():
    # free_cover asks radical_basis for rad A itself, so a fresh bare table
    # gets a Nakayama cover on its two generators
    a = _dual_numbers_table(5)
    assert a.radical is None
    k = Module(a, 1, np.array([[[1]], [[0]]]))
    x = direct_sum([regular_module(a), k]).module  # two generators, dim 3
    assert free_cover(x).source.dim == 4
    assert a.radical.tolist() == [[0, 1]]
    res = projective_resolution(x, 3)
    assert [t.dim for t in res.terms] == [4, 2, 2, 2]


def test_free_cover_at_small_p_finds_the_radical():
    # at p <= dim too: a Nakayama cover on the two generators, not one copy
    # of A per basis vector
    a = _dual_numbers_table(2)
    k = Module(a, 1, np.array([[[1]], [[0]]]))
    x = direct_sum([regular_module(a), k]).module
    assert free_cover(x).source.dim == 4
    assert a.radical.tolist() == [[0, 1]]


def test_supplied_radical_rows_are_reduced_to_a_basis():
    a = _dual_numbers_table(3, radical=[[0, 1], [0, 2], [0, 0]])
    assert a.radical.tolist() == [[0, 1]]
    k = Module(a, 1, np.array([[[1]], [[0]]]))
    assert is_projective(regular_module(a)) and not is_projective(k)


def test_dependent_radical_rows_do_not_skip_the_trace_check():
    # (t^2) spans a nilpotent ideal of GF(5)[t]/(t^3) but is not its radical;
    # three copies of its row once made the quotient look zero-dimensional
    cube = [(i, j, i + j, 1) for i in range(3) for j in range(3 - i)]
    with pytest.raises(InvalidInput, match="not semisimple"):
        from_table(5, 3, cube, [1, 0, 0], radical=[[0, 0, 1]] * 3)


def test_supplied_radical_at_small_p_is_checked_at_load():
    with pytest.raises(InvalidInput, match="not rad A"):
        _dual_numbers_table(2, radical=[])  # rad A is (t), not 0
    b = _dual_numbers_table(2, radical=[[0, 1]])
    assert is_projective(regular_module(b))


@pytest.mark.parametrize("which", ["regular", "simple"])
def test_projective_resolution_checks_the_strategy_before_the_first_cover(which):
    # the regular module needs no cover at all, and is still refused
    a = two_vertex_line(2)
    x = regular_module(a) if which == "regular" else simple_modules(a)[0]
    with pytest.raises(InvalidInput, match="unknown cover strategy 'bogus'"):
        projective_resolution(x, 3, strategy="bogus")
