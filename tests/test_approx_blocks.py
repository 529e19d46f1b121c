"""The approximation layer built from the blocks Hom(M_j, x) and Hom(x, M_j).

The earlier right_approximation, _factor_through and add_membership, which
solved Hom(M_j, M_0) for the lifting check and Hom(x, M_0) for the section,
are kept below as oracles: the approximation map, its pieces and piece_homs,
the verdict and the section must equal theirs bit for bit.  The blocks that
an AddCategory keeps must serve a summand exactly as solving them afresh
does, a spy counts the Hom solves left under a suite and over one category,
and a frontier child checks that add-membership over k[x]/(x^6) fits in 1 GB.
"""

import json
import os
import subprocess
import sys
import traceback
from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import homres
from homres import linalg, modules
from homres.algebra import same_algebra
from homres.approx import (
    AddCategory,
    Approximation,
    Membership,
    _lifts_witnessed,
    add_membership,
    right_approximation,
)
from homres.cli import main
from homres.endo import endomorphism_algebra, verify_theorem2
from homres.errors import InternalError, InvalidInput
from homres.modules import (
    Module, ModuleMap, hom_basis, identity_map, same_module, sum_module,
)

from test_approx import _lifting_holds, _lifts
from test_endo import _FRONTIER_RUNGS, _cap_address_space
from test_modules import _random_conjugate
from test_resolutions import _workspace_at
from test_suite_stages import _doc


# -- the earlier approximation layer, kept as the oracle ----------------------


def _right_approximation_oracle(x, c):
    """Evaluation of the whole Hom basis: M_0 = ⊕_j M_j^{dim Hom(M_j, x)}.

    The lifting contract — Hom(M_j, f) surjective for every summand — is
    re-verified before returning.
    """
    if not same_algebra(x.algebra, c.algebra):
        raise InvalidInput("module and add-category live over different algebras")
    homs = [(m, hom_basis(m, x)) for m in c.summands]
    pieces = [m for m, basis in homs for _ in basis]
    piece_homs = [h for _, basis in homs for h in basis]
    matrix = np.hstack([linalg.zeros(x.dim, 0)] + [h.matrix for h in piece_homs])
    f = ModuleMap(sum_module(pieces, algebra=x.algebra), x, matrix % x.p)
    if not _lifting_holds(homs, f):
        raise InternalError("approximation lifting contract failed")
    return Approximation(f, pieces, piece_homs)


def _factor_through_oracle(h, f):
    """g with f ∘ g = h, or None; g is searched inside Hom(h.source, f.source)."""
    space, sol = _lifts(h.source, h.matrix[None], f)
    return None if sol is None else ModuleMap(h.source, f.source, space.combine(sol))


def _add_membership_oracle(x, c):
    """x ∈ add(M) iff the right approximation onto x splits."""
    if x.dim == 0:
        return Membership(True)
    approx = _right_approximation_oracle(x, c)
    section = _factor_through_oracle(identity_map(x), approx.map)
    if section is None:
        return Membership(False, approximation=approx)
    return Membership(True, section=section, approximation=approx)


# -- bit-for-bit comparison ------------------------------------------------------


def _same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and np.array_equal(a, b)


def _assert_same_approximation(got, want):
    assert _same_bits(got.map.matrix, want.map.matrix)
    assert same_module(got.map.source, want.map.source)
    assert len(got.pieces) == len(want.pieces)
    assert all(g is w for g, w in zip(got.pieces, want.pieces))
    assert len(got.piece_homs) == len(want.piece_homs)
    assert all(_same_bits(g.matrix, w.matrix)
               for g, w in zip(got.piece_homs, want.piece_homs))


def _assert_same_membership(got, want):
    assert got.member == want.member
    if want.approximation is None:
        assert got.approximation is None
    else:
        _assert_same_approximation(got.approximation, want.approximation)
    if want.section is None:
        assert got.section is None
    else:
        assert _same_bits(got.section.matrix, want.section.matrix)
        assert same_module(got.section.target, want.section.target)


def _bundled(name, p, seed):
    """The bundled modules of a workspace's base algebra, each in a random basis."""
    ws = _workspace_at(name, p)
    a = ws.algebras["A"]
    rng = np.random.default_rng(seed)
    return [_random_conjugate(m, rng) for _, m in sorted(ws.modules.items())
            if m.algebra is a]


def _check_case(x, summands):
    """Membership, and with it the approximation, on a fresh category and on
    the same category again once all its blocks are filled."""
    c = AddCategory(summands)
    want = _add_membership_oracle(x, c)
    _assert_same_membership(add_membership(x, c), want)
    for i, j in product(range(len(summands)), repeat=2):
        c.hom(i, j)
    _assert_same_membership(add_membership(x, c), want)


# -- the sweep: every bundled module against every summand subset ----------------


@pytest.mark.parametrize("p", [2, 3, 5, 7])
@pytest.mark.parametrize("name", ["kx2", "kx3", "a2-hereditary"])
def test_blocks_match_the_oracle_on_every_bundled_case(name, p):
    for seed in range(3):
        mods = _bundled(name, p, seed)
        for size in range(1, len(mods) + 1):
            for summands in map(list, combinations(mods, size)):
                for x in mods:
                    # x is a summand object here exactly when the subset holds it
                    _check_case(x, summands)


@settings(max_examples=40, deadline=None)
@given(name=st.sampled_from(["kx2", "kx3", "a2-hereditary"]),
       p=st.sampled_from([2, 3, 5, 7]), pick=st.integers(0, 30),
       subset=st.integers(1, 63), seed=st.integers(0, 2 ** 32 - 1))
def test_blocks_match_the_oracle_after_a_change_of_basis(name, p, pick, subset, seed):
    mods = _bundled(name, p, seed)
    summands = [m for i, m in enumerate(mods) if subset >> (i % 6) & 1] or mods[:1]
    # a summand, a conjugate of it (not the same object), and their sum
    x = summands[pick % len(summands)]
    twin = _random_conjugate(x, np.random.default_rng(seed + 1))
    for y in (x, twin, sum_module([x, twin])):
        _check_case(y, summands)


def test_blocks_of_b_serve_the_summands():
    # the blocks endomorphism_algebra solved are the ones the spot checks read
    ws = _workspace_at("kx3", 3)
    summands = [ws.modules[n] for n in ws.suite["summands"]]
    c = AddCategory(summands)
    endomorphism_algebra(c)
    for x in summands:
        _assert_same_membership(add_membership(x, c), _add_membership_oracle(x, c))


def test_every_piece_is_witnessed():
    # zeroing any one piece of f breaks its witness f ∘ ι_k = h_k
    for name in ("kx2", "kx3", "a2-hereditary"):
        mods = _bundled(name, 3, 0)
        for x in mods:
            ap = right_approximation(x, AddCategory(mods))
            assert _lifts_witnessed(ap.map, ap.pieces, ap.piece_homs)
            start = 0
            for m in ap.pieces:
                matrix = ap.map.matrix.copy()
                matrix[:, start:start + m.dim] = 0
                start += m.dim
                zeroed = ModuleMap(ap.map.source, x, matrix)
                assert not _lifts_witnessed(zeroed, ap.pieces, ap.piece_homs)


def test_a_corrupted_source_action_is_not_witnessed():
    # the slice checks refuse exactly what validating each inclusion ι_k as
    # a ModuleMap refused: one wrong entry of M_0's action, on or off the
    # diagonal blocks
    mods = _bundled("kx3", 3, 0)
    x = sum_module(mods)
    ap = right_approximation(x, AddCategory(mods))
    source, offs = ap.map.source, np.cumsum([0] + [m.dim for m in ap.pieces])
    rng = np.random.default_rng(0)
    for _ in range(40):
        b, r, c = (int(rng.integers(n)) for n in source.action.shape)
        corrupt = Module(source.algebra, source.dim, source.action.copy())
        corrupt.action[b, r, c] = (corrupt.action[b, r, c] + 1) % 3
        k = int(np.searchsorted(offs, c, side="right")) - 1
        inclusion = linalg.identity(corrupt.dim)[:, offs[k]:offs[k + 1]]
        with pytest.raises(InvalidInput, match="does not intertwine"):
            ModuleMap(ap.pieces[k], corrupt, inclusion)
        f = ModuleMap.__new__(ModuleMap)  # f unvalidated on the corrupted source
        f.source, f.target, f.matrix = corrupt, x, ap.map.matrix
        assert not _lifts_witnessed(f, ap.pieces, ap.piece_homs)


# -- what is left to solve -------------------------------------------------------


def _spy_hom_solves(monkeypatch, record):
    """Replace hom_basis throughout homres by a spy that appends record() to
    the list it returns."""
    real, calls = modules.hom_basis, []

    def spy(x, y):
        calls.append(record())
        return real(x, y)

    for mod in list(sys.modules.values()):
        if (getattr(mod, "__name__", "").startswith("homres")
                and getattr(mod, "hom_basis", None) is real):
            monkeypatch.setattr(mod, "hom_basis", spy)
    return calls


def test_a_suite_solves_no_hom_space_in_the_approximation_layer(tmp_path, capsys,
                                                                  monkeypatch):
    # the spot checks and the projectives check read the blocks B solved (28
    # Hom solves from approx.py per kx3 suite at p = 3 before they did); the
    # category's own solves, made for B, run in approx.py too, so only the
    # solves under an approximation or a membership test count
    def in_approximation():
        return any(frame.filename.endswith(os.path.join("homres", "approx.py"))
                   and frame.name in ("right_approximation", "add_membership")
                   for frame in traceback.extract_stack())

    calls = _spy_hom_solves(monkeypatch, in_approximation)
    path = tmp_path / "kx3-3.json"
    path.write_text(json.dumps(_doc("kx3", 3), sort_keys=True))
    assert main(["suite", "--workspace", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["all_green"]
    assert calls and not any(calls)


def test_a_summand_reads_hom_of_itself_once(monkeypatch):
    # k ∈ add(A ⊕ k): Hom(A, k), Hom(k, k) and Hom(k, A); Hom(k, k) serves
    # the approximation and the section alike
    ws = _workspace_at("kx2", 3)
    reg, k = ws.modules["reg"], ws.modules["k"]
    c = AddCategory([reg, k])
    calls = _spy_hom_solves(monkeypatch, lambda: None)
    assert add_membership(k, c)
    assert len(calls) == 3


def test_a_category_solves_each_block_once(monkeypatch):
    ws = _workspace_at("kx3", 3)
    summands = [ws.modules[n] for n in ws.suite["summands"]]
    c = AddCategory(summands)
    endomorphism_algebra(c)
    calls = _spy_hom_solves(monkeypatch, lambda: None)
    assert all(add_membership(x, c) for x in summands)
    endomorphism_algebra(c)
    assert calls == []


def test_theorem2_keeps_the_category_it_was_given():
    ws = _workspace_at("kx2", 3)
    c = AddCategory([ws.modules["reg"], ws.modules["k"]])
    rep = verify_theorem2(ws.algebras["A"], ws.modules["reg"], c, 2)
    assert rep.verdict and rep.ctx.category is c


# add-membership of the six uniserial k[x]/(x^6)-modules and of their sum at
# p = 2; the sum's approximation source has dimension 371, whose Hom spaces
# into it the earlier layer solved (a 2.71 GiB Hom stack)
_KX6_MEMBERSHIP = _FRONTIER_RUNGS.split("\nout = []")[0] + """
from homres.approx import add_membership
from homres.modules import sum_module

a, t, mods = uniserial(6)
c = AddCategory(mods)
print(json.dumps([bool(add_membership(x, c)) for x in mods + [sum_module(mods)]]))
"""


def test_add_membership_over_kx6_under_1gb():
    src = os.path.dirname(os.path.dirname(os.path.abspath(homres.__file__)))
    env = dict(os.environ, PYTHONPATH=src, OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    done = subprocess.run([sys.executable, "-c", _KX6_MEMBERSHIP], env=env,
                          capture_output=True, text=True, timeout=600,
                          preexec_fn=_cap_address_space)
    assert done.returncode == 0, done.stderr[-2000:]
    assert json.loads(done.stdout) == [True] * 7
