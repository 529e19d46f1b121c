import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from homres import approx, linalg
from homres.approx import (
    AddCategory,
    _lifting_holds,
    addM_resolution,
    add_membership,
    auslander_bridger_check,
    perp_membership,
    right_approximation,
)
from homres.errors import InternalError, InvalidInput, NeedsFiniteInjdim, NotAGenerator
from homres.modules import (
    HomSpace, ModuleMap, direct_sum, hom_basis, is_isomorphic, regular_module,
    simple_modules,
)
from homres.resolutions import projective_resolution

from test_algebra import dual_numbers, two_vertex_line
from test_modules import _random_conjugate
from test_resolutions import _workspace_at


def test_approximation_of_summand_splits():
    a = dual_numbers(2)
    reg = regular_module(a)
    k = simple_modules(a)[0]
    c = AddCategory([reg, k])
    mem = add_membership(k, c)
    assert mem
    assert mem.section is not None
    comp = mem.approximation.map.compose(mem.section)
    assert np.array_equal(comp.matrix, linalg.identity(k.dim))


def test_approximation_onto_k_from_projectives():
    a = dual_numbers(2)
    reg = regular_module(a)
    k = simple_modules(a)[0]
    c = AddCategory([reg])
    approx = right_approximation(k, c)
    assert approx.map.source.dim == 2  # Hom(A, k) is 1-dim: one copy of A
    assert linalg.rank(approx.map.matrix, 2) == 1  # surjective


def test_approximation_by_socle_not_surjective():
    a = dual_numbers(2)
    reg = regular_module(a)
    k = simple_modules(a)[0]
    c = AddCategory([k])
    approx = right_approximation(reg, c)
    assert approx.map.source.dim == 1
    assert linalg.rank(approx.map.matrix, 2) == 1 < reg.dim
    assert not add_membership(reg, c)


def test_membership_of_double():
    a = dual_numbers(2)
    k = simple_modules(a)[0]
    c = AddCategory([k])
    kk = direct_sum([k, k]).module
    assert add_membership(kk, c)


def test_addm_resolution_trivial_and_truncated():
    a = dual_numbers(2)
    reg = regular_module(a)
    k = simple_modules(a)[0]
    both = AddCategory([reg, k], generator=True)
    res = addM_resolution(k, both, 5)
    assert res.complete and res.length == 0
    only_a = AddCategory([reg], generator=True)
    res2 = addM_resolution(k, only_a, 3)
    assert not res2.complete
    assert [t.dim for t in res2.terms] == [2, 2, 2, 2]
    for n in range(1, 4):
        assert is_isomorphic(res2.syzygy(n), k) is True


def test_addm_resolution_non_generator_raises():
    a = dual_numbers(2)
    reg = regular_module(a)
    k = simple_modules(a)[0]
    with pytest.raises(NotAGenerator):
        addM_resolution(reg, AddCategory([k]), 2)


def test_perp_membership():
    dn = dual_numbers(2)
    reg = regular_module(dn)
    k = simple_modules(dn)[0]
    # inj.dim A = 0 over the self-injective algebra: perp is everything
    assert perp_membership(k, reg, 0)
    a2 = two_vertex_line(2)
    reg2 = regular_module(a2)
    s0, s1 = simple_modules(a2)
    assert perp_membership(reg2, reg2, 1)  # projectives are always members
    assert not perp_membership(s0, reg2, 1)  # Ext^1(S1, A) != 0
    with pytest.raises(NeedsFiniteInjdim):
        perp_membership(k, reg, -1)


def test_auslander_bridger_invariance():
    a = dual_numbers(2)
    reg = regular_module(a)
    k = simple_modules(a)[0]
    c = AddCategory([reg, k], generator=True)
    res1 = projective_resolution(k, 3)
    res2 = projective_resolution(k, 3, strategy="doubled")
    rep = auslander_bridger_check(res1, res2, c, 2)
    assert rep.agree and rep.kernel1_in_add and rep.kernel2_in_add
    # projective resolution vs add(M)-resolution, n = 1
    res3 = addM_resolution(k, AddCategory([reg], generator=True), 3)
    rep2 = auslander_bridger_check(res1, res3, c, 1)
    assert rep2.agree


def test_auslander_bridger_rejects_mismatched_targets():
    a = dual_numbers(2)
    reg = regular_module(a)
    k = simple_modules(a)[0]
    c = AddCategory([reg, k], generator=True)
    with pytest.raises(InvalidInput):
        auslander_bridger_check(projective_resolution(k, 2),
                                projective_resolution(reg, 2), c, 1)


# -- the lifting contract: one solve per summand against one per piece ---------


def _factors_per_piece(h, f):
    """The earlier per-piece check, kept as the oracle: one Hom(h.source,
    f.source) and one solve for the single map h."""
    space = HomSpace(h.source, f.source)
    if not space:
        return not np.any(h.matrix)
    cols = ((f.matrix @ space.stacked) % h.p).reshape(len(space), -1).T
    return linalg.solve_linear(cols, h.matrix.reshape(-1), h.p) is not None


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(["kx2", "kx3", "a2-hereditary"]),
       p=st.sampled_from([2, 3, 5, 7]), pick=st.integers(0, 30),
       subset=st.integers(1, 63), mode=st.sampled_from(["exact", "zeroed", "random"]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_lifting_check_per_summand_matches_per_piece(name, p, pick, subset, mode, seed):
    ws = _workspace_at(name, p)
    a = ws.algebras["A"]
    rng = np.random.default_rng(seed)
    mods = [_random_conjugate(m, rng) for _, m in sorted(ws.modules.items())
            if m.algebra is a]
    x = mods[pick % len(mods)]
    summands = [m for i, m in enumerate(mods) if subset >> (i % 6) & 1] or mods[:1]
    ap = right_approximation(x, AddCategory(summands))
    f = ap.map
    if mode == "zeroed" and ap.pieces:
        j = pick % len(ap.pieces)
        start = sum(m.dim for m in ap.pieces[:j])
        matrix = f.matrix.copy()
        matrix[:, start:start + ap.pieces[j].dim] = 0
        f = ModuleMap(f.source, x, matrix)
    elif mode == "random":
        space = HomSpace(f.source, x)
        if space:
            f = ModuleMap(f.source, x, space.combine(rng.integers(0, p, len(space))))
    homs = [(m, hom_basis(m, x)) for m in summands]
    assert _lifting_holds(homs, f) == all(_factors_per_piece(h, f) for h in ap.piece_homs)


def test_approximation_with_the_identity_piece_zeroed_is_refused(monkeypatch):
    # over k[x]/(x^2), Hom(A, A) has the identity and x·: without the
    # identity's piece, f has image rad A and the identity cannot lift
    reg = regular_module(dual_numbers(2))
    ap = right_approximation(reg, AddCategory([reg]))
    j = next(i for i, h in enumerate(ap.piece_homs) if linalg.is_invertible(h.matrix, 2))
    real = approx.ModuleMap

    def zeroing_piece_j(source, target, matrix):
        matrix = matrix.copy()
        matrix[:, j * reg.dim:(j + 1) * reg.dim] = 0
        return real(source, target, matrix)

    monkeypatch.setattr(approx, "ModuleMap", zeroing_piece_j)
    with pytest.raises(InternalError, match="lifting contract"):
        right_approximation(reg, AddCategory([reg]))
