import json

import pytest

from homres.harness import jsonable, run_task, verification_suite
from homres.resolutions import proj_dim
from homres.workspace import (
    WorkspaceError,
    bundled_workspace_path,
    load_workspace,
    parse_workspace,
)


def kx2_ws():
    return load_workspace(bundled_workspace_path("kx2"))


def test_bundled_workspaces_load():
    for name in ("kx2", "kx3", "a2-hereditary"):
        ws = load_workspace(bundled_workspace_path(name))
        assert ws.p == 2
        assert "A" in ws.algebras
        assert ws.tasks


def test_bundled_unknown_name():
    with pytest.raises(WorkspaceError):
        bundled_workspace_path("nope")


def test_kx2_document_contents():
    ws = kx2_ws()
    assert ws.algebras["A"].dim == 2
    assert ws.modules["reg"].dim == 2
    assert ws.modules["k"].dim == 1
    assert ws.modules["m"].dim == 3
    assert ws.complexes["socle-seq"].lo == -1


def test_parse_rejects_nonprime_p():
    with pytest.raises(WorkspaceError) as e:
        parse_workspace({"p": 4})
    assert e.value.pointer == "/p"


def test_parse_rejects_missing_fields_with_pointer():
    with pytest.raises(WorkspaceError) as e:
        parse_workspace({"p": 2, "algebras": {"A": {"kind": "quiver"}}})
    assert e.value.pointer.startswith("/algebras/A")


def test_parse_rejects_unknown_module_kind():
    raw = {"p": 2,
           "algebras": {"A": {"kind": "quiver", "vertices": 1, "arrows": []}},
           "modules": {"x": {"algebra": "A", "kind": "mystery"}}}
    with pytest.raises(WorkspaceError) as e:
        parse_workspace(raw)
    assert "/modules/x" in e.value.pointer


def test_parse_rejects_bad_differential():
    raw = {"p": 2,
           "algebras": {"A": {"kind": "quiver", "vertices": 1, "arrows": [[0, 0]],
                              "relations": [[0, 0]]}},
           "modules": {"reg": {"algebra": "A", "kind": "regular"}},
           "complexes": {"c": {"algebra": "A", "lo": 0,
                               "terms": ["reg", "reg"],
                               "diffs": [[[1, 0]]]}}}
    with pytest.raises(WorkspaceError):
        parse_workspace(raw)


def test_run_task_rejects_unknown_command():
    ws = kx2_ws()
    with pytest.raises(WorkspaceError):
        run_task(ws, {"cmd": "frobnicate"})


def test_run_task_gldim_and_override():
    ws = kx2_ws()
    rep = run_task(ws, {"cmd": "gldim", "algebra": "A", "bound": 10})
    assert rep["gldim"] == "exceeds-bound"
    rep = run_task(ws, {"cmd": "injdim", "module": "reg"}, bound=4)
    assert rep["injdim"] == 0 and rep["bound"] == 4


def test_run_task_frozen_kx2_values():
    ws = kx2_ws()
    assert run_task(ws, {"cmd": "endo", "summands": ["reg", "k"]})["dim_b"] == 5
    aus = run_task(ws, {"cmd": "auslander", "algebra": "A",
                        "gp_list": ["reg", "k"], "bound": 10})
    assert aus["gldim_b"] == 2 and aus["smooth"]
    ext = run_task(ws, {"cmd": "ext", "source": "k", "target": "k", "max_i": 4})
    assert ext["dims"] == [1, 1, 1, 1, 1]


def test_suite_kx2_all_green():
    dossier = verification_suite(kx2_ws())
    assert dossier["all_green"]
    assert dossier["equivalence"]["b_dim"] == 5
    assert dossier["equivalence"]["gldim_b"] == 2
    assert dossier["gorenstein"]["dimension"] == 0
    assert not dossier["already_smooth"]


def test_suite_a2_already_smooth():
    ws = load_workspace(bundled_workspace_path("a2-hereditary"))
    dossier = verification_suite(ws)
    assert dossier["all_green"]
    assert dossier["already_smooth"] and dossier["gldim_a"] == 1
    assert dossier["equivalence"]["mode"] == "one-directional"
    assert dossier["gorenstein"]["dimension"] == 1
    assert any(c["name"] == "base-already-smooth" for c in dossier["checks"])


def test_suite_deterministic_bytes():
    a = json.dumps(verification_suite(kx2_ws()), sort_keys=True)
    b = json.dumps(verification_suite(kx2_ws()), sort_keys=True)
    assert a == b


def test_store_load_round_trip(tmp_path):
    from homres.workspace import store_workspace
    canonical = store_workspace(kx2_ws())
    path = tmp_path / "ws.json"
    path.write_text(canonical)
    assert store_workspace(load_workspace(str(path))) == canonical


def test_suite_missing_section():
    ws = parse_workspace({"p": 2, "algebras": {}, "modules": {}})
    with pytest.raises(WorkspaceError):
        verification_suite(ws)


@pytest.mark.parametrize("name, module", [
    ("kx2", "k"), ("kx2", "reg"), ("a2-hereditary", "s0"),
    ("a2-hereditary", "s1")])
@pytest.mark.parametrize("strategy", ["evaluation", "doubled", "permuted"])
def test_resolve_task_projdim_matches_proj_dim(name, module, strategy):
    ws = load_workspace(bundled_workspace_path(name))
    m = ws.module(module)
    for bound in range(4):
        want = jsonable(proj_dim(m, bound))
        for length in range(4):
            rep = run_task(ws, {"cmd": "resolve", "module": module,
                                "length": length, "strategy": strategy,
                                "seed": 3, "bound": bound})
            assert rep["projdim"] == want, (bound, length)
