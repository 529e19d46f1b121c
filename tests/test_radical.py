"""algebra._jacobson_radical, the one exact radical, at every prime.

At p > dim it must agree bit for bit with the trace-form kernel it replaced
(Dickson's criterion), kept below verbatim as an oracle.  At p <= dim,
where the trace form says nothing, it must give the known radicals of
group algebras, matrix algebras, the bundled quiver algebras rebuilt as
bare tables (their arrow ideal) and the skew dual numbers, each also under
random changes of basis.
"""

import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from homres import linalg
from homres.algebra import (
    Algebra, _jacobson_radical, from_table, radical_basis, validate_algebra,
)
from homres.cli import main
from homres.endo import endomorphism_algebra
from homres.errors import InvalidInput
from homres.modules import sum_module
from homres.workspace import bundled_workspace_path, parse_workspace

from test_endo_blocks import skew_dual_numbers, uniserial


def _trace_form_kernel(a: Algebra) -> np.ndarray:
    left = a.left_mult_matrices()
    tr = np.trace(left, axis1=1, axis2=2) % a.p  # tr(L_k)
    gram = np.einsum("ijk,k->ij", a.mult, tr) % a.p
    return linalg.kernel_basis(gram, a.p)


# -- algebras as bare tables ----------------------------------------------------


def _table(p, mult, unit):
    return validate_algebra(Algebra(p=p, dim=len(unit), mult=mult, unit=np.asarray(unit)))


def group_algebra(p, elements, op):
    """GF(p)[G] on the group elements, in the order given; elements[0] is 1."""
    index = {g: i for i, g in enumerate(elements)}
    n = len(elements)
    mult = np.zeros((n, n, n), dtype=np.int64)
    for (i, g), (j, h) in itertools.product(enumerate(elements), repeat=2):
        mult[i, j, index[op(g, h)]] = 1
    return _table(p, mult, [1] + [0] * (n - 1))


def cyclic(p, n):
    return group_algebra(p, list(range(n)), lambda g, h: (g + h) % n)


def klein(p):
    return group_algebra(p, [(0, 0), (0, 1), (1, 0), (1, 1)],
                         lambda g, h: ((g[0] + h[0]) % 2, (g[1] + h[1]) % 2))


def symmetric3(p):
    return group_algebra(p, list(itertools.permutations(range(3))),
                         lambda g, h: tuple(g[h[i]] for i in range(3)))


def matrix_units(p, n, upper=False):
    """M_n(GF(p)), or its upper-triangular subalgebra, on the matrix units."""
    units = [(r, c) for r in range(n) for c in range(n) if c >= r or not upper]
    index = {u: i for i, u in enumerate(units)}
    mult = np.zeros((len(units),) * 3, dtype=np.int64)
    for (i, (r, c)), (j, (s, t)) in itertools.product(enumerate(units), repeat=2):
        if c == s:
            mult[i, j, index[(r, t)]] = 1
    return _table(p, mult, [int(r == c) for r, c in units])


def bare(a):
    """a as a table algebra: no radical, no idempotents."""
    return _table(a.p, a.mult, a.unit)


def conjugate(a, rng):
    """a on the random basis g_i = sum_k g[i, k] b_k."""
    p, n = a.p, a.dim
    while True:
        g = rng.integers(0, p, size=(n, n))
        g_inv = linalg.inverse(g, p)
        if g_inv is not None:
            break
    # g_i g_j = sum g[i, a] g[j, b] b_a b_b, reduced after each contraction,
    # then in the new coordinates
    left = linalg.mat_mul(g, a.mult.reshape(n, n * n), p).reshape(n, n, n)
    prods = linalg.mat_mul(g, left, p)
    return _table(p, linalg.mat_mul(prods, g_inv, p), linalg.mat_mul(a.unit, g_inv, p))


def _bundled(name, p):
    with open(bundled_workspace_path(name), encoding="utf-8") as fh:
        return parse_workspace(dict(json.load(fh), p=p)).algebras["A"]


def _row_space(rows, p):
    red, piv = linalg.rref(rows, p)
    return red[:len(piv)]


# -- known answers at p <= dim ----------------------------------------------------


KNOWN = [
    ("GF(2)[S3]", lambda: symmetric3(2), 1),
    ("GF(3)[S3]", lambda: symmetric3(3), 4),
    ("GF(2)[C2xC2]", lambda: klein(2), 3),
    ("GF(2)[C4]", lambda: cyclic(2, 4), 3),
    ("GF(3)[C3]", lambda: cyclic(3, 3), 2),
    ("GF(5)[C5]", lambda: cyclic(5, 5), 4),
    ("GF(3)[C6]", lambda: cyclic(3, 6), 4),
    ("GF(2)[C6]", lambda: cyclic(2, 6), 3),
] + [(f"T3 over GF({p})", lambda p=p: matrix_units(p, 3, upper=True), 3) for p in (2, 3, 7)] + [
    (f"M2(GF({p}))", lambda p=p: matrix_units(p, 2), 0) for p in (2, 3, 7)]


@pytest.mark.parametrize("name, build, dim_rad", KNOWN, ids=[k[0] for k in KNOWN])
def test_known_radicals_at_every_prime(name, build, dim_rad):
    a = build()
    assert len(_jacobson_radical(a)) == dim_rad
    for seed in range(3):
        assert len(_jacobson_radical(conjugate(a, np.random.default_rng(seed)))) == dim_rad


@pytest.mark.parametrize("p", [2, 3, 5, 7])
@pytest.mark.parametrize("name", ["kx2", "kx3", "a2-hereditary"])
def test_bundled_quivers_as_tables_have_the_arrow_ideal(name, p):
    a = _bundled(name, p)
    table = bare(a)
    assert np.array_equal(_row_space(radical_basis(table), p), _row_space(a.radical, p))
    for seed in range(3):
        c = conjugate(table, np.random.default_rng(seed))
        assert len(_jacobson_radical(c)) == len(a.radical)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_skew_dual_numbers_radical_is_y(p):
    # noncommutative with residue field GF(p^2): C is not in J, and without
    # it x |-> x^q would not be linear
    a = bare(skew_dual_numbers(p))
    assert _row_space(_jacobson_radical(a), p).tolist() == [[0, 0, 1, 0], [0, 0, 0, 1]]
    for seed in range(3):
        assert len(_jacobson_radical(conjugate(a, np.random.default_rng(seed)))) == 2


# -- the trace-form oracle at p > dim -------------------------------------------------


_ORACLE_SOURCES = {
    "kx2": lambda p: bare(_bundled("kx2", p)),
    "kx3": lambda p: bare(_bundled("kx3", p)),
    "a2-hereditary": lambda p: bare(_bundled("a2-hereditary", p)),
    "S3": symmetric3,
    "C6": lambda p: cyclic(p, 6),
    "T3": lambda p: matrix_units(p, 3, upper=True),
    "M2": lambda p: matrix_units(p, 2),
    "skew": lambda p: bare(skew_dual_numbers(p)),
    # B of k[x]/(x^3), dim 14
    "B": lambda p: bare(endomorphism_algebra(sum_module(uniserial(3, p)[1]),
                                             summands=uniserial(3, p)[1]).b),
}


@settings(max_examples=60, deadline=None)
@given(source=st.sampled_from(sorted(_ORACLE_SOURCES)), p=st.sampled_from([17, 19, 1048573]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_matches_the_trace_form_above_dim(source, p, seed):
    a = conjugate(_ORACLE_SOURCES[source](p), np.random.default_rng(seed))
    assert np.array_equal(_jacobson_radical(a), _trace_form_kernel(a))


# -- the contract ---------------------------------------------------------------


def test_a_wrong_radical_is_refused_at_load_at_every_prime():
    cube = [(i, j, i + j, 1) for i in range(3) for j in range(3 - i)]
    for p in (2, 3, 5):
        # (t^2) is a nilpotent ideal of GF(p)[t]/(t^3), but not its radical
        with pytest.raises(InvalidInput, match="A/radical is not semisimple"):
            from_table(p, 3, cube, [1, 0, 0], radical=[[0, 0, 1]])
        assert from_table(p, 3, cube, [1, 0, 0], radical=[[0, 1, 0], [0, 0, 1]]).dim == 3


def test_the_zero_algebra(tmp_path, capsys):
    a = from_table(2, 0, [], [], radical=[])
    assert a.dim == 0 and radical_basis(a).shape == (0, 0)
    assert _jacobson_radical(from_table(2, 0, [], [])).shape == (0, 0)
    ws = tmp_path / "zero.json"
    ws.write_text(json.dumps({"p": 2, "algebras": {"T": {"kind": "table", "dim": 0,
                                                       "structure": [], "unit": []}},
                              "tasks": [{"cmd": "gldim", "algebra": "T"}]}))
    assert main(["gldim", "--workspace", str(ws)]) == 0
    assert json.loads(capsys.readouterr().out)["gldim"] == 0
