"""The verification dossier computes each stage once.

`homres suite` is compared byte for byte with perfbench/golden.json's
dossiers at every prime; spies count the B, Gorenstein and gl.dim B stages
of one suite; a gp_list that is not the summand list in order gets its own B.
"""

import json
import os
import sys

import pytest

import homres
from homres import endo, gorenstein, resolutions
from homres.cli import main
from homres.harness import _auslander_json, verification_suite
from homres.gorenstein import relative_auslander
from homres.workspace import bundled_workspace_path, parse_workspace

GOLDEN = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "perfbench", "golden.json")


def _doc(name: str, p: int = 2) -> dict:
    """A bundled workspace re-rooted at the prime p."""
    with open(bundled_workspace_path(name), encoding="utf-8") as fh:
        doc = json.load(fh)
    doc["p"] = p
    return doc


@pytest.fixture(scope="module")
def golden_dossiers():
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)["dossier"]


@pytest.mark.parametrize("p", [2, 3, 5, 7])
@pytest.mark.parametrize("name", ["kx2", "kx3", "a2-hereditary"])
def test_suite_matches_the_golden_dossier(tmp_path, capsys, golden_dossiers, name, p):
    path = tmp_path / f"{name}-{p}.json"
    path.write_text(json.dumps(_doc(name, p), sort_keys=True))
    code = main(["suite", "--workspace", str(path)])
    assert code == 0
    assert capsys.readouterr().out == golden_dossiers[f"{name}@{p}"]


def _spy(monkeypatch, fn):
    """Count the calls of fn from every homres module that imported it."""
    calls = []

    def spy(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    for mod in list(sys.modules.values()):
        if (getattr(mod, "__name__", "").startswith("homres")
                and getattr(mod, fn.__name__, None) is fn):
            monkeypatch.setattr(mod, fn.__name__, spy)
    return calls


def _spied_suite(monkeypatch, doc):
    ws = parse_workspace(doc)
    spies = {fn.__name__: _spy(monkeypatch, fn) for fn in
             (endo.endomorphism_algebra, gorenstein.is_gorenstein, resolutions.gl_dim)}
    dossier = verification_suite(ws)
    a = ws.algebra(doc["suite"]["algebra"])
    spies["gl_dim on B"] = [c for c in spies.pop("gl_dim") if c[0] is not a]
    return ws, dossier, {k: len(v) for k, v in spies.items()}


def test_suite_builds_b_once(monkeypatch):
    _, dossier, counts = _spied_suite(monkeypatch, _doc("kx3"))
    assert dossier["all_green"] and dossier["auslander"]["b_dim"] == 14
    assert counts == {"endomorphism_algebra": 1, "is_gorenstein": 1,
                      "gl_dim on B": 1}


def test_suite_with_reordered_gp_list_builds_its_own_b(monkeypatch):
    doc = _doc("kx3")
    doc["suite"]["gp_list"] = ["k", "reg", "v2"]
    ws, dossier, counts = _spied_suite(monkeypatch, doc)
    assert counts == {"endomorphism_algebra": 2, "is_gorenstein": 1,
                      "gl_dim on B": 2}
    monkeypatch.undo()
    alone = relative_auslander(ws.algebra("A"), [ws.module(n) for n in ["k", "reg", "v2"]],
                               doc["suite"]["bound"])
    assert dossier["auslander"] == _auslander_json(alone)


def test_relative_auslander_refuses_a_theorem2_report_on_other_summands():
    ws = parse_workspace(_doc("kx3"))
    a, reg, k, v2 = ws.algebra("A"), ws.module("reg"), ws.module("k"), ws.module("v2")
    rep = endo.verify_theorem2(a, reg, homres.AddCategory([reg, k, v2]), 2, bound=10)
    shared = relative_auslander(a, [reg, k, v2], 10, theorem2=rep)
    assert shared.ctx is rep.ctx and shared.gldim_b == rep.gldim_b
    with pytest.raises(homres.InvalidInput):
        relative_auslander(a, [k, reg, v2], 10, theorem2=rep)
    with pytest.raises(homres.InvalidInput):
        relative_auslander(a, [reg, k, v2], 9, theorem2=rep)
    with pytest.raises(homres.InvalidInput):
        relative_auslander(a, [reg, k, v2], 9,
                           gorenstein=gorenstein.is_gorenstein(a, 10))
