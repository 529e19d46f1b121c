"""Projective covers and minimal resolutions over algebras with idempotents.

The cover-dimension projectivity test is checked against the split-section
and Tor_1 criteria, and minimal resolutions against the free "evaluation"
ones (Schanuel), on random changes of basis of the bundled modules and of the
simple modules of B = (End ⊕ summands)^op.
"""

import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import homres
from homres import linalg
from homres.algebra import (
    Algebra, QuiverPresentation, from_quiver, from_table, opposite, validate_algebra,
)
from homres.approx import AddCategory
from homres.endo import endomorphism_algebra
from homres.errors import InvalidInput, UnsupportedField
from homres.modules import (
    hom_basis, map_kernel, regular_module, simple_modules, sum_module,
)
from homres.resolutions import (
    EXCEEDS_BOUND,
    _tor1_vanishes,
    _top_generators,
    _vertex_projectives,
    ext_dims,
    free_cover,
    gl_dim,
    is_projective,
    proj_dim,
    projective_cover,
    projective_resolution,
    validate_resolution,
)
from homres.workspace import bundled_workspace_path, load_workspace

from test_acceptance import ext_dims_from_resolution
from test_algebra import dual_numbers, two_vertex_line
from test_modules import _random_conjugate
from test_resolutions import _b_simples, _splitting_is_projective, _workspace_at

_SOURCES = [("bundled", n) for n in ("kx2", "kx3", "a2-hereditary")] + [
    ("b-simple", "kx2"), ("b-simple", "kx3")]


def _modules(source, p):
    kind, name = source
    if kind == "bundled":
        return [x for _, x in sorted(_workspace_at(name, p).modules.items())]
    return _b_simples(name, p)


def _draw(source, p, pick, seed):
    rng = np.random.default_rng(seed)
    mods = _modules(source, p)
    parts = [mods[i % len(mods)] for i in pick]
    return _random_conjugate(sum_module(parts), rng), rng


@settings(max_examples=60, deadline=None)
@given(source=st.sampled_from(_SOURCES), p=st.sampled_from([2, 3, 5, 7]),
       pick=st.lists(st.integers(0, 5), min_size=1, max_size=2),
       depth=st.integers(0, 2), seed=st.integers(0, 2 ** 32 - 1))
def test_cover_dimension_matches_split_and_tor(source, p, pick, depth, seed):
    x, rng = _draw(source, p, pick, seed)
    for _ in range(depth):
        x = _random_conjugate(map_kernel(projective_cover(x))[0], rng)
    want = _splitting_is_projective(x)
    assert is_projective(x) == want
    if x.dim:
        assert _tor1_vanishes(x) == want


@settings(max_examples=40, deadline=None)
@given(source=st.sampled_from(_SOURCES), p=st.sampled_from([2, 3, 5, 7]),
       pick=st.lists(st.integers(0, 5), min_size=1, max_size=2),
       target=st.integers(0, 5), seed=st.integers(0, 2 ** 32 - 1))
def test_minimal_and_evaluation_resolutions_agree(source, p, pick, target, seed):
    x, rng = _draw(source, p, pick, seed)
    depth = 2 if source[0] == "b-simple" else 3
    minimal = validate_resolution(projective_resolution(x, depth, "minimal"))
    free = projective_resolution(x, depth, "evaluation")
    assert proj_dim(x, depth) == (free.length if free.complete else EXCEEDS_BOUND)
    assert (minimal.complete, minimal.length) == (free.complete, free.length)
    mods = _modules(source, p)
    y = _random_conjugate(mods[target % len(mods)], rng)
    dims = ext_dims(x, y, depth - 1).dims
    assert dims == ext_dims_from_resolution(free, y, depth - 1)
    assert dims == ext_dims_from_resolution(minimal, y, depth - 1)
    # minimality: the Hom complex into a simple has zero differentials, so
    # Ext^i(x, S) is all of Hom(P_i, S)
    for s in simple_modules(x.algebra):
        ext = ext_dims(x, s, minimal.length).dims
        assert ext == [len(hom_basis(t, s)) for t in minimal.terms]


def test_vertex_idempotents_are_carried_and_checked():
    a = two_vertex_line(2)
    assert a.idempotents.tolist() == [[1, 0, 0], [0, 1, 0]]
    assert np.array_equal(opposite(a).idempotents, a.idempotents)
    assert [P.dim for _, P in _vertex_projectives(a)] == [2, 1]
    for rows, message in (([[1, 0, 0]], "sum to the unit"),
                          ([[1, 1, 0], [0, 0, 0]], "is zero")):
        with pytest.raises(InvalidInput, match=message):
            validate_algebra(Algebra(p=2, dim=3, mult=a.mult, unit=a.unit,
                                     idempotents=rows))
    # 1 + t and -t sum to 1 in GF(3)[t]/(t^2), but (1 + t)^2 = 1 + 2t
    d = dual_numbers(3)
    with pytest.raises(InvalidInput, match="e0 \\* e0 = e0"):
        validate_algebra(Algebra(p=3, dim=2, mult=d.mult, unit=d.unit,
                                 idempotents=[[1, 1], [0, 2]]))


def test_minimal_resolution_of_a_hereditary_simple():
    # S0 over 0 -> 1 has the minimal resolution 0 -> P1 -> P0 -> S0
    a = two_vertex_line(2)
    s0, s1 = simple_modules(a)
    res = validate_resolution(projective_resolution(s0, 10, "minimal"))
    assert [t.dim for t in res.terms] == [2, 1] and res.complete
    assert [t.dim for t in projective_resolution(s0, 10).terms] == [3, 2]
    assert projective_resolution(s1, 10, "minimal").length == 0


def test_minimal_cover_needs_idempotents():
    a = from_table(5, 2, [(0, 0, 0, 1), (0, 1, 1, 1), (1, 0, 1, 1)], [1, 0])
    with pytest.raises(UnsupportedField, match="idempotents"):
        projective_resolution(regular_module(a), 2, "minimal")
    with pytest.raises(UnsupportedField, match="idempotents"):
        projective_cover(regular_module(a))
    # the free covers and the Tor_1 test still serve it
    assert is_projective(regular_module(a))
    assert proj_dim(simple_modules(a)[0], 3) is EXCEEDS_BOUND


def test_non_basic_endomorphism_algebra():
    # M = k ⊕ k ⊕ A ⊕ A/(x^2) over k[x]/(x^3): B is not basic, and the simple
    # of the k ⊕ k block is 2-dimensional, covered by one projective
    ws = load_workspace(bundled_workspace_path("kx3"))
    k, reg, v2 = (ws.modules[n] for n in ("k", "reg", "v2"))
    summands = [k, k, reg, v2]
    b = endomorphism_algebra(AddCategory(summands)).b
    assert len(b.idempotents) == 4
    assert gl_dim(b, 10) == 2
    (s,) = [s for s in simple_modules(b) if s.dim == 2]
    gens = _top_generators(s)
    assert len(gens) == 1
    cover = projective_cover(s)
    assert cover.source.dim == _vertex_projectives(b)[gens[0][0]][1].dim
    assert linalg.rank(cover.matrix, b.p) == s.dim


def test_cover_of_a_field_extension_is_one_copy():
    # GF(4) as a 2-dimensional GF(2)-algebra: End(S) = GF(4), not GF(2), so
    # a Nakayama cover takes two copies of B and the projective cover one
    gf4 = from_table(2, 2, [(0, 0, 0, 1), (0, 1, 1, 1), (1, 0, 1, 1), (1, 1, 0, 1),
                            (1, 1, 1, 1)], [1, 0], radical=[])
    a = regular_module(gf4)
    b = endomorphism_algebra(AddCategory([a])).b
    reg = regular_module(b)
    assert free_cover(reg).source.dim == 4
    assert projective_cover(reg).source.dim == 2
    assert is_projective(reg)


def test_decomposable_declared_summand_is_refused():
    a = dual_numbers(2)
    reg, k = regular_module(a), simple_modules(a)[0]
    kk = sum_module([k, k])
    with pytest.raises(InvalidInput, match="End ring is not local"):
        endomorphism_algebra(AddCategory([reg, kk]))


def test_quiver_with_loops_and_two_vertices():
    # e0 A e0 is not just the field: the minimal cover still counts the top
    q = QuiverPresentation(vertices=2, arrows=[(0, 0), (0, 1)],
                           relations=[(0, 0), (0, 1)])
    a = from_quiver(q, 3)
    reg = regular_module(a)
    assert projective_cover(reg).source.dim == reg.dim
    for s in simple_modules(a):
        res = validate_resolution(projective_resolution(s, 4, "minimal"))
        free = projective_resolution(s, 4)
        assert (res.complete, res.length) == (free.complete, free.length)


def test_dimension_functions_resolve_minimally_where_they_can(monkeypatch):
    import homres.resolutions as resolutions
    seen = []
    original = resolutions.projective_resolution

    def spy(x, length, strategy="evaluation", seed=0):
        seen.append(strategy)
        return original(x, length, strategy, seed)

    monkeypatch.setattr(resolutions, "projective_resolution", spy)
    a = two_vertex_line(2)
    assert resolutions.gl_dim(a, 4) == 1
    assert resolutions.inj_dim(regular_module(a), 4) == 1
    assert seen and set(seen) == {"minimal"}
    seen.clear()
    table = from_table(5, 2, [(0, 0, 0, 1), (0, 1, 1, 1), (1, 0, 1, 1)], [1, 0])
    assert resolutions.gl_dim(table, 2) is EXCEEDS_BOUND
    assert seen and set(seen) == {"evaluation"}


# over GF(2)[x]/(x^2), e acting as [[0, 1], [0, 0]] and x as 0: the unit does
# not act as the identity, so u = (1, 0) lies outside A·u = 0
_NOT_A_REPRESENTATION = """
import numpy as np
from homres.algebra import QuiverPresentation, from_quiver
from homres.errors import InvalidInput
from homres.modules import Module
from homres.resolutions import _top_generators

a = from_quiver(QuiverPresentation(vertices=1, arrows=[(0, 0)], relations=[(0, 0)]), 2)
action = np.zeros((2, 2, 2), dtype=np.int64)
action[0, 0, 1] = 1
try:
    _top_generators(Module(a, 2, action))
except InvalidInput as e:
    print(e)
"""


def test_top_generators_refuse_an_action_that_is_not_a_representation():
    # a regression loops without end; the child's timeout fails the test instead
    src = os.path.dirname(os.path.dirname(os.path.abspath(homres.__file__)))
    proc = subprocess.run([sys.executable, "-c", _NOT_A_REPRESENTATION],
                          capture_output=True, text=True, timeout=60,
                          env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == ("the action is not a representation: "
                                   "the unit does not act as the identity")
