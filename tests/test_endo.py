import json
import os
import resource
import subprocess
import sys

import numpy as np
import pytest

import homres

from homres import linalg
from homres.algebra import opposite, radical_basis, same_algebra
from homres.approx import AddCategory
from homres.endo import (
    endomorphism_algebra,
    hom_functor,
    hom_functor_map,
    verify_theorem2,
)
from homres.errors import HypothesesNotSatisfied
from homres.modules import (
    Module, ModuleMap, _vertex_projectives, direct_sum, hom_basis, is_isomorphic,
    regular_module, simple_modules, validate_module, zero_module,
)
from homres.resolutions import EXCEEDS_BOUND, gl_dim, inj_dim, is_projective

from test_algebra import dual_numbers, truncated_cubic, two_vertex_line


def kx3_truncations(a):
    """A/(x) and A/(x^2) over k[x]/(x^3)."""
    k = Module(a, 1, np.stack([[[1]], [[0]], [[0]]]).astype(np.int64))
    ax2 = Module(a, 2, np.stack([linalg.identity(2),
                                 np.array([[0, 0], [1, 0]]),
                                 linalg.zeros(2, 2)]))
    return validate_module(k), validate_module(ax2)


def test_endo_of_regular_is_opposite():
    a = two_vertex_line(5)
    # _AA = A·e_0 ⊕ A·e_1, declared by its vertex projectives
    ctx = endomorphism_algebra(AddCategory([m for _, m in _vertex_projectives(a)]))
    assert ctx.b.dim == a.dim
    # End(_AA) ≅ A^op: same regular representation dimensions and gl.dim
    assert gl_dim(ctx.b, 5) == gl_dim(opposite(a), 5)


def test_endo_dim_five_and_radical():
    a = dual_numbers(2)
    reg = regular_module(a)
    k = simple_modules(a)[0]
    ctx = endomorphism_algebra(AddCategory([reg, k]))
    assert ctx.b.dim == 5
    assert ctx.b.radical.shape[0] == 3  # x·End(A), Hom(A,k), Hom(k,A)
    assert len(simple_modules(ctx.b)) == 2


def test_endo_of_simple_is_field():
    a = dual_numbers(2)
    k = simple_modules(a)[0]
    ctx = endomorphism_algebra(AddCategory([k]))
    assert ctx.b.dim == 1


def test_hom_functor_regular_and_zero():
    a = dual_numbers(2)
    reg = regular_module(a)
    k = simple_modules(a)[0]
    m = direct_sum([reg, k]).module
    ctx = endomorphism_algebra(AddCategory([reg, k]))
    bb = hom_functor(ctx, m)
    validate_module(bb)
    assert is_isomorphic(bb, regular_module(ctx.b)) is True
    assert hom_functor(ctx, zero_module(a)).dim == 0
    assert hom_functor(ctx, k).dim == 2  # Hom(A,k) ⊕ Hom(k,k)


def test_hom_functor_sends_summands_to_projectives():
    a = dual_numbers(2)
    reg = regular_module(a)
    k = simple_modules(a)[0]
    ctx = endomorphism_algebra(AddCategory([reg, k]))
    for s in (reg, k):
        assert is_projective(hom_functor(ctx, s))


def test_hom_functor_fully_faithful_on_generator():
    a = dual_numbers(2)
    reg = regular_module(a)
    k = simple_modules(a)[0]
    ctx = endomorphism_algebra(AddCategory([reg, k]))
    for x in (reg, k):
        for y in (reg, k):
            fx, fy = hom_functor(ctx, x), hom_functor(ctx, y)
            assert len(hom_basis(x, y)) == len(hom_basis(fx, fy))


def test_hom_functor_map_functorial():
    a = dual_numbers(2)
    reg = regular_module(a)
    k = simple_modules(a)[0]
    ctx = endomorphism_algebra(AddCategory([reg, k]))
    ident = hom_functor_map(ctx, ModuleMap(reg, reg, linalg.identity(2)))
    assert np.array_equal(ident.matrix, linalg.identity(ident.source.dim))
    aug = ModuleMap(reg, k, [[1, 0]])
    soc = ModuleMap(k, reg, [[0], [1]])
    img_comp = hom_functor_map(ctx, aug.compose(soc))
    comp_img = hom_functor_map(ctx, aug).compose(hom_functor_map(ctx, soc))
    assert np.array_equal(img_comp.matrix, comp_img.matrix)
    # Hom(M, -) is exact on right add(M)-approximation epis but not on a
    # bare surjection A -> k when k is itself a summand of M: the identity
    # of k cannot factor through A.  Rank computations confirm both.
    faug = hom_functor_map(ctx, aug)
    assert linalg.rank(faug.matrix, 2) == 1 < faug.target.dim
    from homres.approx import right_approximation
    approx = right_approximation(k, AddCategory([reg, k]))
    fapprox = hom_functor_map(ctx, approx.map)
    assert linalg.rank(fapprox.matrix, 2) == fapprox.target.dim


def test_verify_theorem2_dual_numbers():
    a = dual_numbers(2)
    reg = regular_module(a)
    k = simple_modules(a)[0]
    c = AddCategory([reg, k], generator=True)
    rep = verify_theorem2(a, reg, c, 2, spot_check_modules=[reg, k])
    assert rep.injdim_t == 0
    assert rep.gldim_b == 2
    assert rep.b_dim == 5
    assert rep.mode == "biconditional" and rep.verdict
    assert rep.smooth


def test_verify_theorem2_truncated_cubic():
    a = truncated_cubic(2)
    reg = regular_module(a)
    k, ax2 = kx3_truncations(a)
    c = AddCategory([reg, k, ax2], generator=True)
    rep = verify_theorem2(a, reg, c, 2)
    assert rep.injdim_t == 0
    assert rep.b_dim == 14
    assert rep.gldim_b == 2
    assert rep.verdict


def test_verify_theorem2_semisimple():
    from homres.algebra import QuiverPresentation, from_quiver
    a = from_quiver(QuiverPresentation(vertices=1, arrows=[], relations=[]), 3)
    reg = regular_module(a)
    rep = verify_theorem2(a, reg, AddCategory([reg], generator=True), 2)
    assert rep.injdim_t == 0 and rep.gldim_b == 0 and rep.verdict


def test_verify_theorem2_hypothesis_failure():
    # t = k over the dual numbers has infinite injective dimension
    a = dual_numbers(2)
    reg = regular_module(a)
    k = simple_modules(a)[0]
    c = AddCategory([reg, k], generator=True)
    with pytest.raises(HypothesesNotSatisfied):
        verify_theorem2(a, k, c, 2, bound=6)


def test_verify_theorem2_one_directional_mode():
    a = dual_numbers(2)
    reg = regular_module(a)
    k = simple_modules(a)[0]
    c = AddCategory([reg, k], generator=True)
    rep = verify_theorem2(a, reg, c, 1)
    assert rep.mode == "one-directional"
    # gl.dim B = 2 > 1, so the implication holds vacuously
    assert rep.verdict


# Builds the frontier Theorem-2 rungs and prints (inj.dim T, gl.dim B,
# verdict, dim B) for each: the Auslander algebras of k[x]/(x^n), n = 4, 5
# (its n uniserial modules k[x]/(x^i), T = A), and of rad^2-zero A_m,
# m = 4, 5 (all 2m - 1 indecomposables, T = D(A)).
_FRONTIER_RUNGS = """
import json
import numpy as np
from homres.algebra import QuiverPresentation, from_quiver, opposite
from homres.approx import AddCategory
from homres.endo import verify_theorem2
from homres.modules import (Module, dual_module, regular_module,
                            simple_modules, validate_module)

p = 2


def uniserial(n):
    a = from_quiver(QuiverPresentation(vertices=1, arrows=[(0, 0)],
                                       relations=[(0,) * n]), p)
    mods = []
    for i in range(1, n + 1):
        act = np.zeros((a.dim, i, i), dtype=np.int64)
        for k in range(a.dim):  # x^k shifts u_j to u_{j+k}
            for j in range(i - k):
                act[k, j + k, j] = 1
        mods.append(validate_module(Module(a, i, act)))
    return a, regular_module(a), mods


def linear(m):
    a = from_quiver(QuiverPresentation(
        vertices=m, arrows=[(i, i + 1) for i in range(m - 1)],
        relations=[(i, i + 1) for i in range(m - 2)]), p)
    reg = regular_module(a)
    indec = list(simple_modules(a))
    for v in range(m - 1):
        idx = [v, m + v]  # e_v and the arrow leaving v span A e_v
        indec.append(validate_module(Module(a, 2, reg.action[:, idx][:, :, idx])))
    return a, dual_module(regular_module(opposite(a))), indec


out = []
for a, t, mods in (uniserial(4), linear(4), uniserial(5), linear(5)):
    rep = verify_theorem2(a, t, AddCategory(mods), 2)
    out.append([rep.injdim_t, rep.gldim_b, rep.verdict, rep.b_dim])
print(json.dumps(out))
"""


def _cap_address_space():
    cap = 10 ** 9
    resource.setrlimit(resource.RLIMIT_AS, (cap, cap))


def test_verify_theorem2_frontier_rungs_under_1gb():
    # minimal resolutions over B keep every term within P(top x), so all
    # four rungs fit in 1 GB
    src = os.path.dirname(os.path.dirname(os.path.abspath(homres.__file__)))
    env = dict(os.environ, PYTHONPATH=src, OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    done = subprocess.run([sys.executable, "-c", _FRONTIER_RUNGS], env=env,
                          capture_output=True, text=True, timeout=600,
                          preexec_fn=_cap_address_space)
    assert done.returncode == 0, done.stderr[-2000:]
    assert json.loads(done.stdout) == [[0, 2, True, 30], [0, 2, True, 15],
                                       [0, 2, True, 55], [0, 2, True, 20]]


# rad^2-zero A_14 alone, built by linear(m) of _FRONTIER_RUNGS
_A14_RUNG = _FRONTIER_RUNGS.split("\nout = []")[0] + """
a, t, mods = linear(14)
rep = verify_theorem2(a, t, AddCategory(mods), 2)
print(json.dumps([rep.injdim_t, rep.gldim_b, rep.verdict, rep.b_dim]))
"""


def test_verify_theorem2_a14_under_1gb():
    # End(M) from the blocks Hom(M_i, M_j) never solves the one
    # (43200, 1600) Hom(M, M) system that ran out of memory here
    src = os.path.dirname(os.path.dirname(os.path.abspath(homres.__file__)))
    env = dict(os.environ, PYTHONPATH=src, OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    done = subprocess.run([sys.executable, "-c", _A14_RUNG], env=env,
                          capture_output=True, text=True, timeout=600,
                          preexec_fn=_cap_address_space)
    assert done.returncode == 0, done.stderr[-2000:]
    assert json.loads(done.stdout) == [0, 2, True, 65]
