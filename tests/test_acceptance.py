"""End-to-end acceptance checks.

Each test covers one numbered criterion and prints a single PASS/FAIL line;
run with `pytest -s tests/test_acceptance.py` to see the ledger.
"""

import json
import random

import numpy as np

from homres import linalg
from homres.algebra import Algebra
from homres.approx import AddCategory, addM_resolution, auslander_bridger_check
from homres.complexes import (
    Complex,
    c_resolution,
    homotopy_hom_dim,
    is_acyclic,
    is_c_acyclic,
    mapping_cone,
    perfect_test,
    shift,
    stalk,
)
from homres.endo import endomorphism_algebra, hom_functor, verify_theorem2
from homres.gorenstein import is_gorenstein
from homres.modules import (
    HomSpace,
    Module,
    ModuleMap,
    direct_sum,
    hom_basis,
    regular_module,
    simple_modules,
    validate_module,
)
from homres.resolutions import (
    EXCEEDS_BOUND,
    ext_dims,
    gl_dim,
    proj_dim,
    projective_resolution,
)
from homres.workspace import bundled_workspace_path, load_workspace
from homres.harness import verification_suite

from test_algebra import dual_numbers, truncated_cubic, two_vertex_line
from test_complexes import brute_force_homotopy_dim, socle_sequence
from test_endo import kx3_truncations


def _verdict(num, label, ok):
    print(f"CRITERION {num:02d} {'PASS' if ok else 'FAIL'} - {label}")
    assert ok, f"criterion {num} failed: {label}"


# -- shared generators ----------------------------------------------------------------


def random_module(indecs, rng, max_dim=6):
    """Random direct sum of the given indecomposables, conjugated by a random
    change of basis so the summand structure is not visible syntactically."""
    a = indecs[0].algebra
    parts = [indecs[rng.randrange(len(indecs))]]
    total = parts[0].dim
    while True:
        choices = [m for m in indecs if total + m.dim <= max_dim]
        if not choices or rng.random() < 0.4:
            break
        m = choices[rng.randrange(len(choices))]
        parts.append(m)
        total += m.dim
    plain = direct_sum(parts).module
    d = plain.dim
    while True:
        s = np.array([[rng.randrange(a.p) for _ in range(d)] for _ in range(d)],
                     dtype=np.int64)
        if linalg.is_invertible(s, a.p):
            break
    sinv = linalg.inverse(s, a.p)
    action = np.stack([(s @ plain.action[i] @ sinv) % a.p for i in range(a.dim)])
    return validate_module(Module(a, d, action))


def random_complex(a, pieces, rng, max_total=3, max_len=3):
    """Random bounded complex with terms drawn from the given modules."""
    length = rng.randrange(1, max_len + 1)
    terms = []
    total = 0
    for _ in range(length):
        choices = [m for m in pieces if total + m.dim <= max_total]
        if not choices:
            break
        m = choices[rng.randrange(len(choices))]
        terms.append(m)
        total += m.dim
    if not terms:
        terms = [pieces[0]]
    diffs = []
    prev = None
    for i in range(len(terms) - 1):
        basis = hom_basis(terms[i], terms[i + 1])
        if not basis:
            diffs.append(ModuleMap(terms[i], terms[i + 1],
                                   linalg.zeros(terms[i + 1].dim, terms[i].dim)))
            prev = diffs[-1]
            continue
        if prev is None or not np.any(prev.matrix):
            space = linalg.identity(len(basis))
        else:
            cond = linalg.zeros(terms[i + 1].dim * prev.source.dim, len(basis))
            for c, b in enumerate(basis):
                cond[:, c] = (b.matrix @ prev.matrix).reshape(-1) % a.p
            space = linalg.kernel_basis(cond, a.p)
        mat = linalg.zeros(terms[i + 1].dim, terms[i].dim)
        for row in space:
            if rng.random() < 0.5:
                coeffs = row
                stacked = np.stack([b.matrix for b in basis])
                mat = (mat + np.einsum("c,cab->ab", coeffs, stacked)) % a.p
        diffs.append(ModuleMap(terms[i], terms[i + 1], mat))
        prev = diffs[-1]
    lo = rng.randrange(-2, 2)
    return Complex(a, lo, terms, diffs)


def complex_direct_sum(x, y):
    """Degreewise direct sum with block-diagonal differentials."""
    a = x.algebra
    lo = min(x.lo, y.lo)
    hi = max(x.hi, y.hi)
    sums = [direct_sum([x.term(i), y.term(i)], algebra=a) for i in range(lo, hi + 1)]
    terms = [s.module for s in sums]
    diffs = []
    for i in range(lo, hi):
        src, tgt = sums[i - lo], sums[i + 1 - lo]
        mat = (tgt.injections[0].matrix @ x.diff(i).matrix @ src.projections[0].matrix
               + tgt.injections[1].matrix @ y.diff(i).matrix
               @ src.projections[1].matrix) % a.p
        diffs.append(ModuleMap(src.module, tgt.module, mat))
    return Complex(a, lo, terms, diffs)


def ext_dims_from_resolution(res, y, max_i):
    """Ext dims read off a caller-supplied resolution (any cover strategy)."""
    homs = {i: HomSpace(res.terms[i], y) if i <= res.length else []
            for i in range(max_i + 2)}
    ranks = {}
    for i in range(max_i + 1):
        if i + 1 <= res.length:
            delta = homs[i + 1].induced(homs[i], right=res.maps[i + 1].matrix)
            ranks[i] = linalg.rank(delta, y.p)
        else:
            ranks[i] = 0
    return [len(homs.get(i, [])) - ranks[i] - ranks.get(i - 1, 0)
            for i in range(max_i + 1)]


# -- criteria -------------------------------------------------------------------------


def test_criterion_01_biconditional_suite():
    ok = True
    a2 = dual_numbers(2)
    k2 = simple_modules(a2)[0]
    rep = verify_theorem2(a2, regular_module(a2),
                          AddCategory([regular_module(a2), k2]), 2)
    ok &= rep.injdim_t == 0 and rep.gldim_b == 2 and rep.verdict

    a3 = truncated_cubic(2)
    k3, v2 = kx3_truncations(a3)
    rep = verify_theorem2(a3, regular_module(a3),
                          AddCategory([regular_module(a3), k3, v2]), 2)
    ok &= rep.injdim_t == 0 and rep.gldim_b == 2 and rep.verdict
    _verdict(1, "equivalence suite on both self-injective instances", ok)


def test_criterion_02_auslander_algebra_bound():
    a = dual_numbers(2)
    k = simple_modules(a)[0]
    m = [regular_module(a), k]
    ctx = endomorphism_algebra(AddCategory(m))
    ok = gl_dim(ctx.b, 10) == 2
    _verdict(2, "endomorphism algebra of A+k has global dimension exactly 2", ok)


def test_criterion_03_ext_periodicity():
    a = dual_numbers(2)
    k = simple_modules(a)[0]
    ok = ext_dims(k, k, 20).dims == [1] * 21
    _verdict(3, "Ext(k, k) is 1-dimensional in every degree up to 20", ok)


def test_criterion_04_homotopy_hom_oracle():
    a = dual_numbers(2)
    k = simple_modules(a)[0]
    reg = regular_module(a)
    rng = random.Random(40)
    ok = True
    for _ in range(200):
        x = random_complex(a, [k, reg], rng)
        y = random_complex(a, [k, reg], rng)
        for n in range(-3, 4):
            if homotopy_hom_dim(x, y, n) != brute_force_homotopy_dim(x, y, n, 2):
                ok = False
    _verdict(4, "homotopy hom dims match enumeration on 200 random pairs", ok)


def test_criterion_05_schanuel_independence():
    rng = random.Random(50)
    ok = True
    a2 = dual_numbers(2)
    # (algebra, indecomposables, max module dim, doubled-cover depth); doubled
    # covers grow syzygies geometrically, so that strategy stays shallow
    setups = [(a2, [regular_module(a2), simple_modules(a2)[0]], 3, 2)]
    a3 = truncated_cubic(2)
    k3, v2 = kx3_truncations(a3)
    setups.append((a3, [regular_module(a3), k3, v2], 3, 1))
    ah = two_vertex_line(2)
    setups.append((ah, list(simple_modules(ah)) + [regular_module(ah)], 4, 2))
    for trial in range(50):
        a, indecs, max_dim, dd = setups[trial % len(setups)]
        x = random_module(indecs, rng, max_dim=max_dim)
        y = indecs[rng.randrange(len(indecs))]
        for strat, depth in (("permuted", 3), ("doubled", dd)):
            base_pd = proj_dim(x, depth)
            base_ext = ext_dims(x, y, depth - 1).dims
            res = projective_resolution(x, depth, strategy=strat, seed=trial)
            pd = res.length if res.complete else EXCEEDS_BOUND
            if pd != base_pd:
                ok = False
            if ext_dims_from_resolution(res, y, depth - 1) != base_ext:
                ok = False
    _verdict(5, "proj dims and Ext tables agree across cover strategies", ok)


def test_criterion_06_hom_dims_preserved():
    a = dual_numbers(2)
    k = simple_modules(a)[0]
    reg = regular_module(a)
    m = [reg, k]
    ctx = endomorphism_algebra(AddCategory(m))
    tests = [reg, k, direct_sum([reg, k]).module, direct_sum([k, k]).module]
    images = [hom_functor(ctx, x) for x in tests]
    ok = all(len(hom_basis(x, y)) == len(hom_basis(fx, fy))
             for x, fx in zip(tests, images)
             for y, fy in zip(tests, images))
    _verdict(6, "Hom dimensions preserved by the Hom(M, -) functor (16 pairs)", ok)


def test_criterion_07_syzygy_membership_invariance():
    a = dual_numbers(2)
    k = simple_modules(a)[0]
    reg = regular_module(a)
    cat = AddCategory([reg, k], generator=True)
    rng = random.Random(70)
    ok = True
    for trial in range(50):
        x = random_module([reg, k], rng, max_dim=4)
        res1 = addM_resolution(x, cat, 3)
        res2 = projective_resolution(x, 3, strategy="permuted", seed=trial + 1)
        n = min(2, len(res1.maps), len(res2.maps))
        rep = auslander_bridger_check(res1, res2, cat, n)
        ok &= rep.agree
    _verdict(7, "syzygy add-membership invariant across 50 resolution pairs", ok)


def test_criterion_08_relative_resolution_contract():
    a = dual_numbers(2)
    k = simple_modules(a)[0]
    reg = regular_module(a)
    cat = AddCategory([reg, k], generator=True)
    rng = random.Random(80)
    ok = True
    for _ in range(20):
        x = random_complex(a, [k, reg], rng, max_total=4)
        res = c_resolution(x, cat, 4)
        cone, _, _ = mapping_cone(res.map)
        ok &= is_c_acyclic(cone, cat, lo_check=res.safe_lo)
    _verdict(8, "relative resolution cones are Hom-acyclic in the safe window", ok)


def test_criterion_09_perfect_test():
    a = dual_numbers(2)
    k = simple_modules(a)[0]
    ok = perfect_test(stalk(k), 10).status == "not-within-bound"
    ah = two_vertex_line(2)
    mods = list(simple_modules(ah)) + [regular_module(ah)]
    for m in mods:
        rep = perfect_test(stalk(m), 10)
        ok &= rep.status == "in-Kb-P" and rep.truncation_degree >= -1
    _verdict(9, "perfect detection: k fails at bound 10, hereditary modules pass", ok)


def test_criterion_10_gorenstein_dimensions():
    expected = [(dual_numbers(2), 0), (truncated_cubic(2), 0),
                (two_vertex_line(2), 1)]
    ok = True
    for a, dim in expected:
        rep = is_gorenstein(a, 10)
        ok &= (rep.gorenstein and rep.left_injdim == rep.right_injdim
               and rep.dimension == dim)
    _verdict(10, "two-sided self-injective dimensions are (0, 0, 1)", ok)


def test_criterion_11_acyclic_to_projective_vanishing():
    a = dual_numbers(2)
    seq, reg, k = socle_sequence(a)
    contractible = Complex(a, 0, [reg, reg],
                           [ModuleMap(reg, reg, linalg.identity(2))])
    rng = random.Random(110)
    ok = True
    for _ in range(20):
        g = shift(seq, rng.randrange(-2, 3))
        for _ in range(rng.randrange(0, 3)):
            piece = (seq, contractible)[rng.randrange(2)]
            g = complex_direct_sum(g, shift(piece, rng.randrange(-2, 3)))
        assert is_acyclic(g)
        i = stalk(reg, rng.randrange(-2, 3))
        ok &= all(homotopy_hom_dim(g, i, n) == 0
                  for n in range(g.lo - i.hi - 1, g.hi - i.lo + 2))
    _verdict(11, "no homotopy maps from acyclic complexes to projective stalks", ok)


def test_criterion_12_suite_determinism():
    ok = True
    for name in ("kx2", "kx3", "a2-hereditary"):
        ws1 = load_workspace(bundled_workspace_path(name))
        ws2 = load_workspace(bundled_workspace_path(name))
        out1 = json.dumps(verification_suite(ws1), sort_keys=True, indent=2)
        out2 = json.dumps(verification_suite(ws2), sort_keys=True, indent=2)
        ok &= out1 == out2
    _verdict(12, "verification suites are byte-identical across runs", ok)
