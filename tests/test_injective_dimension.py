"""inj_dim, computed as pd_{A^op} D t, against the Ext-vanishing criterion.

_ext_scan_inj_dim is the earlier implementation, kept verbatim as the
oracle: it resolves every simple module and asks for Ext^i(S, t) = 0 over a
window of degrees.  The two must agree, value or exception type, on random
changes of basis of modules over quiver algebras, their opposites, B =
(End ⊕ summands)^op and a bare copy of B's table, and trace-form table
copies that carry no idempotents.
"""

import functools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from homres import modules, resolutions
from homres.algebra import Algebra, from_table, opposite
from homres.approx import AddCategory
from homres.endo import endomorphism_algebra
from homres.errors import HomresError
from homres.modules import Module, dual_module, regular_module, simple_modules
from homres.resolutions import EXCEEDS_BOUND, ext_dims, inj_dim

from test_algebra import dual_numbers, truncated_cubic, two_vertex_line
from test_modules import _random_conjugate
from test_resolutions import _workspace_at

INJDIM_HEADROOM = 3  # extra vanishing degrees demanded beyond the candidate


def _ext_scan_inj_dim(t, bound):
    """Least r <= bound with Ext^i(S, t) = 0 for every simple S and
    r+1 <= i <= r+1+INJDIM_HEADROOM, else EXCEEDS_BOUND.

    Vanishing of Ext^{r+1}(-, t) on simples propagates to all finite-length
    modules by induction on length, so r bounds the injective dimension; the
    INJDIM_HEADROOM extra degrees guard against bookkeeping slips at no
    asymptotic cost.
    """
    if t.dim == 0:
        return 0
    sims = simple_modules(t.algebra)
    top = bound + 1 + INJDIM_HEADROOM
    tables = [ext_dims(s, t, top).dims for s in sims]
    for r in range(bound + 1):
        if all(all(d[i] == 0 for i in range(r + 1, r + 2 + INJDIM_HEADROOM))
               for d in tables):
            return r
    return EXCEEDS_BOUND


def _outcome(fn, *args):
    try:
        return fn(*args)
    except HomresError as exc:
        return type(exc)


def _with_regulars_and_duals(mods, a):
    """mods, their duals, the simples and the regular modules of a and a^op."""
    out = list(mods) + [dual_module(x) for x in mods]
    try:
        out += simple_modules(a)
    except HomresError:
        pass
    return out + [regular_module(a), regular_module(opposite(a))]


@functools.lru_cache(maxsize=None)
def _modules(kind, name, p):
    ws = _workspace_at(name, p)
    a = ws.algebras["A"]
    mods = [x for _, x in sorted(ws.modules.items()) if x.algebra is a]
    if kind == "bundled":
        return _with_regulars_and_duals(mods, a)
    if kind == "trace-form":
        # a bare copy of A: no idempotents, rad A from the trace form at p > dim
        bare = Algebra(p=p, dim=a.dim, mult=a.mult, unit=a.unit)
        return _with_regulars_and_duals([Module(bare, x.dim, x.action) for x in mods], bare)
    summands = [ws.modules[n] for n in ws.suite["summands"]]
    b = endomorphism_algebra(AddCategory(summands)).b
    if kind == "b-bare":
        # B's table alone: no radical and no idempotents
        b = Algebra(p=b.p, dim=b.dim, mult=b.mult, unit=b.unit)
    return _with_regulars_and_duals([], b)


_SOURCES = [(kind, name) for kind in ("bundled", "trace-form")
            for name in ("kx2", "kx3", "a2-hereditary")] + [
    (kind, name) for kind in ("b-declared", "b-bare") for name in ("kx2", "kx3")]


@settings(max_examples=120, deadline=None)
@given(source=st.sampled_from(_SOURCES), p=st.sampled_from([2, 3, 5, 7]),
       pick=st.integers(0, 30), bound=st.integers(0, 4),
       seed=st.integers(0, 2 ** 32 - 1))
def test_inj_dim_matches_the_ext_scan_on_simples(source, p, pick, bound, seed):
    kind, name = source
    if kind == "trace-form" and p <= _workspace_at(name, p).algebras["A"].dim:
        p = 7
    mods = _modules(kind, name, p)
    t = _random_conjugate(mods[pick % len(mods)], np.random.default_rng(seed))
    assert _outcome(inj_dim, t, bound) == _outcome(_ext_scan_inj_dim, t, bound)


@pytest.mark.parametrize("make, which, bound, want", [
    (dual_numbers, "simple", 4, EXCEEDS_BOUND),     # k over k[x]/(x^2)
    (truncated_cubic, "simple", 0, EXCEEDS_BOUND),  # k over k[x]/(x^3)
    (dual_numbers, "regular", 0, 0),                # self-injective
    (two_vertex_line, "regular", 0, EXCEEDS_BOUND),
    (two_vertex_line, "regular", 1, 1),
])
@pytest.mark.parametrize("p", [2, 3])
def test_inj_dim_at_and_beyond_the_bound(make, which, bound, want, p):
    a = make(p)
    t = simple_modules(a)[0] if which == "simple" else regular_module(a)
    assert inj_dim(t, bound) == want
    assert _ext_scan_inj_dim(t, bound) == want


def test_repeated_inj_dim_reuses_the_opposite_algebra(monkeypatch):
    # opposite(a) is cached on a, so D t always lands over the same A^op: its
    # projectives A^op·e_v are built once and a supplied radical of A^op is
    # certified once, however often inj_dim is asked
    built = []
    vertex_projectives = resolutions._vertex_projectives

    def counting_projectives(a):
        if a._projectives is None:
            built.append(len(a.idempotents))
        return vertex_projectives(a)

    monkeypatch.setattr(resolutions, "_vertex_projectives", counting_projectives)
    reg = regular_module(two_vertex_line(2))
    assert [inj_dim(reg, 4) for _ in range(5)] == [1] * 5
    assert sum(built) == 2  # P_0 and P_1 of A^op, once each

    splits = []
    split = modules.simple_modules

    def counting_split(a):
        splits.append(a)
        return split(a)

    monkeypatch.setattr(modules, "simple_modules", counting_split)
    # GF(2)[t]/(t^2) on the basis 1, t with the radical (t) supplied
    a = from_table(2, 2, [[0, 0, 0, 1], [0, 1, 1, 1], [1, 0, 1, 1]], [1, 0],
                   radical=[[0, 1]])
    reg = regular_module(a)
    assert [inj_dim(reg, 4) for _ in range(5)] == [0] * 5
    assert len(splits) == 0  # from_table checked the radical: no split certifies it
