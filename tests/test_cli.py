import argparse
import contextlib
import io
import json
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

import homres
from homres.cli import _CHOICES, _read_argv, main
from homres.errors import InvalidInput
from homres.workspace import bundled_workspace_path

KX2 = bundled_workspace_path("kx2")


def run_cli(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def test_cli_gldim_kx2(capsys):
    code, out = run_cli(capsys, "gldim", "--workspace", KX2)
    assert code == 0
    assert json.loads(out)["gldim"] == "exceeds-bound"


def test_cli_task_selection_by_name(capsys):
    code, out = run_cli(capsys, "injdim", "--workspace", KX2,
                        "--task", "injdim-reg")
    assert code == 0
    assert json.loads(out)["injdim"] == 0


def test_cli_bound_override(capsys):
    code, out = run_cli(capsys, "gldim", "--workspace", KX2, "--bound", "3")
    assert code == 0
    rep = json.loads(out)
    assert rep["bound"] == 3 and rep["gldim"] == "exceeds-bound"


def test_cli_missing_task_is_usage_error(capsys):
    code, out = run_cli(capsys, "cone", "--workspace", KX2)
    assert code == 2
    assert json.loads(out)["status"] == "invalid-input"


def test_cli_unknown_command_exits_2(capsys):
    code, out = run_cli(capsys, "frobnicate", "--workspace", KX2)
    assert code == 2
    body = json.loads(out)
    assert body["status"] == "invalid-input"
    assert "frobnicate" in body["reason"]


def test_cli_broken_workspace_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"p": 4}')
    code, out = run_cli(capsys, "suite", "--workspace", str(bad))
    assert code == 2
    assert "/p" in json.loads(out)["reason"]


def test_cli_hypothesis_failure_exits_3(tmp_path, capsys):
    # gp over a non-Gorenstein-within-bound setup: shrink the bound to 0 on
    # the hereditary workspace so the inj.dim-1 witness is out of reach
    ws = bundled_workspace_path("a2-hereditary")
    code, out = run_cli(capsys, "gp", "--workspace", ws, "--bound", "0")
    assert code == 3
    assert json.loads(out)["status"] == "hypotheses-not-satisfied"


def test_cli_out_file(tmp_path, capsys):
    dest = tmp_path / "report.json"
    code = main(["gorenstein", "--workspace", KX2, "--out", str(dest)])
    assert code == 0
    assert capsys.readouterr().out == ""
    assert json.loads(dest.read_text())["dimension"] == 0


def test_cli_run_all_tasks(capsys):
    code, out = run_cli(capsys, "run", "--workspace", KX2)
    assert code == 0
    tasks = json.loads(out)["tasks"]
    assert [t["cmd"] for t in tasks] == [
        "gldim", "injdim", "ext", "resolve", "approx", "addmem", "perp",
        "endo", "verify-thm2", "gorenstein", "gp", "auslander", "cotilting",
        "acyclic", "cacyclic", "homdim", "cresolve", "perfect"]


def test_cli_suite_byte_identical(capsys):
    _, out1 = run_cli(capsys, "suite", "--workspace", KX2)
    _, out2 = run_cli(capsys, "suite", "--workspace", KX2)
    assert out1 == out2 and out1.endswith("\n")


@pytest.mark.parametrize("tasks, pointer", [
    ([{"cmd": "gldim", "algebra": "A", "bound": "abc"}], "/tasks/0/bound"),
    (["gldim"], "/tasks/0"),
])
def test_cli_malformed_task_names_its_pointer(tmp_path, capsys, tasks, pointer):
    with open(KX2, encoding="utf-8") as fh:
        doc = json.load(fh)
    doc["tasks"] = tasks
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code, out = run_cli(capsys, "gldim", "--workspace", str(bad))
    assert code == 2
    body = json.loads(out)
    assert body["status"] == "invalid-input"
    assert body["reason"].startswith(pointer + ":")


SOCLE_MAP = {"source": "socle-seq", "target": "socle-seq"}


@pytest.mark.parametrize("task, pointer", [
    ({"cmd": "addmem", "module": "k", "summands": 5}, "/tasks/1/summands"),
    ({"cmd": "cone", "map": 3}, "/tasks/1/map"),
    ({"cmd": "cone", "map": dict(SOCLE_MAP, components={"a": [[1]]})},
     "/tasks/1/map/components/a"),
    ({"cmd": "ext", "source": "k", "target": "k", "max_i": "2"}, "/tasks/1/max_i"),
    ({"cmd": "ext", "source": "k", "target": "k", "max_i": True}, "/tasks/1/max_i"),
    ({"cmd": "ext", "source": "k", "target": "k", "max_i": 2.5}, "/tasks/1/max_i"),
    ({"cmd": "injdim", "module": ["reg"]}, "/tasks/1/module"),
    ({"cmd": "resolve", "module": "k", "strategy": "permuted", "seed": -1},
     "/tasks/1/seed"),
    ({"cmd": "resolve", "module": "k", "strategy": 5}, "/tasks/1/strategy"),
    ({"cmd": "resolve", "module": "k", "length": -1}, "/tasks/1/length"),
    ({"cmd": "cresolve", "complex": "socle-seq", "summands": ["reg", "k"],
      "generator": "no"}, "/tasks/1/generator"),
    ({"cmd": "cresolve", "complex": "socle-seq", "summands": ["reg", "k"],
      "depth": -1}, "/tasks/1/depth"),
    ({"cmd": "injdim", "module": "reg", "bound": -1}, "/tasks/1/bound"),
    ({"cmd": "gldim", "algebra": "A", "bound": -1}, "/tasks/1/bound"),
    ({"cmd": "ext", "source": "k", "target": "k", "max_i": -1}, "/tasks/1/max_i"),
    ({"cmd": "addmem", "module": "k", "summands": ["reg", 5]}, "/tasks/1/summands/1"),
] + [
    # components are read as integers, neither coerced nor overflowing
    ({"cmd": "retraction", "map": dict(SOCLE_MAP, components={"0": component}),
      "summands": ["reg"]}, "/tasks/1/map/components/0")
    for component in ([[1.5, 0], [0, 1]], [[True, False], [False, True]],
                      [["1", 0], [0, 1]], [[1e30, 0], [0, 1]])
])
def test_cli_ill_typed_task_field_names_its_pointer(tmp_path, capsys, task, pointer):
    with open(KX2, encoding="utf-8") as fh:
        doc = json.load(fh)
    doc["tasks"] = [doc["tasks"][0], dict(task, name="bad")]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code, out = run_cli(capsys, task["cmd"], "--workspace", str(bad),
                        "--task", "bad")
    assert code == 2
    body = json.loads(out)
    assert body["status"] == "invalid-input"
    assert body["reason"].startswith(pointer + ":")


@pytest.mark.parametrize("command, path, value, pointer", [
    ("gldim", ["modules", "m", "of"], [["k"]], "/modules/m/of/0"),
    ("gldim", ["modules", "k", "index"], "0", "/modules/k/index"),
    ("gldim", ["algebras"], [], "/algebras"),
    ("gldim", ["modules", "k"], 3, "/modules/k"),
    ("gldim", ["algebras", "A", "vertices"], "2", "/algebras/A/vertices"),
    ("gldim", ["algebras", "A", "arrows", 0], [0], "/algebras/A/arrows/0"),
    ("gldim", ["algebras", "A", "relations"], [[0, 5]], "/algebras/A"),
    ("gldim", ["algebras", "T"], {"kind": "table", "dim": -1, "structure": [],
                                  "unit": []}, "/algebras/T"),
    ("gldim", ["complexes", "socle-seq", "lo"], "0", "/complexes/socle-seq/lo"),
    ("gldim", ["complexes", "socle-seq", "diffs", 0], [[0], [1, 1]],
     "/complexes/socle-seq/diffs/0"),
    ("suite", ["suite"], 3, "/suite"),
    ("suite", ["suite", "bound"], -1, "/suite/bound"),
    ("gldim", ["algebras", "N"], {"kind": "quiver", "vertices": -1, "arrows": []},
     "/algebras/N"),
    ("gldim", ["algebras", "T"], {"kind": "table", "dim": 2,
                                  "structure": [[0, 0, 0, 1], [1, 1, 1, 1]],
                                  "unit": [[1, 1]]}, "/algebras/T"),
    # a sum declared over B of modules over A
    ("addmem", ["modules", "m", "algebra"], "B", "/modules/m/of/0"),
])
def test_cli_ill_typed_workspace_field_names_its_pointer(tmp_path, capsys, command,
                                                         path, value, pointer):
    with open(KX2, encoding="utf-8") as fh:
        doc = json.load(fh)
    # a second algebra, which only the sum case above declares a module over
    doc["algebras"]["B"] = {"kind": "quiver", "vertices": 2, "arrows": [[0, 1]],
                            "relations": []}
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code, out = run_cli(capsys, command, "--workspace", str(bad))
    assert code == 2
    body = json.loads(out)
    assert body["status"] == "invalid-input"
    assert body["reason"].startswith(pointer + ":")


def _truncated_polynomial(n):
    """GF(p)[t]/(t^n) as a table algebra on the basis 1, t, ..., t^(n-1)."""
    return {"kind": "table", "dim": n,
            "structure": [[i, j, i + j, 1] for i in range(n) for j in range(n - i)],
            "unit": [1] + [0] * (n - 1)}


# GF(2) x GF(2) (semisimple) and GF(p)[t]/(t^2) (not) as table algebras
_PRODUCT = {"kind": "table", "dim": 2, "structure": [[0, 0, 0, 1], [1, 1, 1, 1]],
            "unit": [1, 1]}
_DUAL = _truncated_polynomial(2)
_TABLE_TASKS = [
    {"cmd": "gldim", "algebra": "T"},
    {"cmd": "resolve", "module": "reg"},
    {"cmd": "ext", "source": "reg", "target": "reg", "max_i": 2},
    {"cmd": "injdim", "module": "reg"},
]


def _table_workspace(tmp_path, algebra, p=2, **others):
    """A workspace on the table algebra T (and the algebras in others), with
    T's regular module as reg and the tasks of _TABLE_TASKS."""
    doc = {"p": p, "algebras": dict(others, T=algebra),
           "modules": {"reg": {"algebra": "T", "kind": "regular"}},
           "tasks": _TABLE_TASKS + [{"cmd": "gldim", "algebra": name, "name": f"gldim-{name}"}
                                    for name in others]}
    path = tmp_path / "table.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_cli_table_algebra_with_zero_radical(tmp_path, capsys):
    ws = _table_workspace(tmp_path, dict(_PRODUCT, radical=[]))
    code, out = run_cli(capsys, "gldim", "--workspace", ws)
    assert code == 0 and json.loads(out)["gldim"] == 0
    code, out = run_cli(capsys, "resolve", "--workspace", ws)
    assert code == 0 and json.loads(out)["projdim"] == 0


@pytest.mark.parametrize("p, algebra, gldim", [
    (2, dict(_PRODUCT, radical=[[0, 0]]), 0),
    (2, dict(_PRODUCT, radical=[[0, 0], [0, 0]]), 0),
    (3, dict(_DUAL, radical=[[0, 1], [0, 1]]), "exceeds-bound"),
    (2, dict(_DUAL, radical=[[0, 1], [0, 0], [0, 1]]), "exceeds-bound"),
])
def test_cli_table_algebra_radical_rows_may_repeat(tmp_path, capsys, p, algebra, gldim):
    # zero and repeated rows span the same radical: dim J counts the span
    ws = _table_workspace(tmp_path, algebra, p=p)
    code, out = run_cli(capsys, "gldim", "--workspace", ws)
    assert code == 0 and json.loads(out)["gldim"] == gldim
    code, out = run_cli(capsys, "resolve", "--workspace", ws)
    assert code == 0 and json.loads(out)["projdim"] == 0


def test_cli_table_algebra_radical_must_be_the_radical(tmp_path, capsys):
    # (t) is the radical of GF(2)[t]/(t^2); declaring 0 leaves A/0 not
    # semisimple, which loading the workspace proves, so every task refuses it
    ws = _table_workspace(tmp_path, dict(_DUAL, radical=[]),
                          U=dict(_PRODUCT, radical=[]))
    for task in ([], ["--task", "gldim-U"]):
        code, out = run_cli(capsys, "gldim", "--workspace", ws, *task)
        assert code == 2
        body = json.loads(out)
        assert body["status"] == "invalid-input"
        assert body["reason"].startswith("/algebras/T:")
        assert "is not rad A" in body["reason"]


def test_cli_table_algebra_wrong_radical_of_t17_exits_2(tmp_path, capsys):
    # GF(2)[t]/(t^17) with rad A declared 0: the radical computed at load is
    # (t), so the declared one is refused
    ws = _table_workspace(tmp_path, dict(_truncated_polynomial(17), radical=[]))
    code, out = run_cli(capsys, "gldim", "--workspace", ws)
    assert code == 2
    body = json.loads(out)
    assert body["status"] == "invalid-input"
    assert body["reason"].startswith("/algebras/T:") and "is not rad A" in body["reason"]


@pytest.mark.parametrize("command", [t["cmd"] for t in _TABLE_TASKS])
def test_cli_table_algebra_without_radical_at_small_p(tmp_path, capsys, command):
    # rad A of a dim-2 algebra over GF(2) is computed: the same report as
    # with the radical (t) supplied
    code, out = run_cli(capsys, command, "--workspace", _table_workspace(tmp_path, _DUAL))
    assert code == 0
    supplied = _table_workspace(tmp_path, dict(_DUAL, radical=[[0, 1]]))
    assert run_cli(capsys, command, "--workspace", supplied) == (0, out)


@pytest.mark.parametrize("out_file", [False, True])
def test_cli_out_of_memory_exits_3_with_a_body(tmp_path, capsys, monkeypatch, out_file):
    import homres.cli

    def exhausted(*args, **kwargs):
        raise MemoryError("Unable to allocate 576. MiB for an array")

    monkeypatch.setattr(homres.cli, "run_task", exhausted)
    argv = ["gldim", "--workspace", KX2]
    if out_file:
        argv += ["--out", str(tmp_path / "report.json")]
    code, out = run_cli(capsys, *argv)
    assert code == 3
    body = json.loads((tmp_path / "report.json").read_text() if out_file else out)
    assert body == {"status": "out-of-memory",
                    "reason": "Unable to allocate 576. MiB for an array"}


def test_cli_minimal_resolution_needs_idempotents(tmp_path, capsys):
    # a quiver algebra knows its vertex idempotents; a table algebra does not
    with open(bundled_workspace_path("a2-hereditary"), encoding="utf-8") as fh:
        doc = json.load(fh)
    doc["tasks"] = [{"cmd": "resolve", "module": "s0", "strategy": "minimal"}]
    path = tmp_path / "a2.json"
    path.write_text(json.dumps(doc))
    code, out = run_cli(capsys, "resolve", "--workspace", str(path))
    assert code == 0
    rep = json.loads(out)
    assert (rep["terms"], rep["projdim"]) == ([2, 1], 1)
    ws = _table_workspace(tmp_path, dict(_PRODUCT, radical=[]))
    doc = json.loads((tmp_path / "table.json").read_text())
    doc["tasks"] = [{"cmd": "resolve", "module": "reg", "strategy": "minimal"}]
    (tmp_path / "table.json").write_text(json.dumps(doc))
    code, out = run_cli(capsys, "resolve", "--workspace", ws)
    assert code == 3
    assert "idempotents" in json.loads(out)["reason"]


@pytest.mark.parametrize("algebra, code, expect", [
    (dict(_DUAL, radical=[]), 2, "is not rad A"),
    (dict(_truncated_polynomial(17), radical=[]), 2, "is not rad A"),
    (dict(_DUAL, radical=[[0, 1]]), 0, 0),
    (dict(_PRODUCT, radical=[]), 0, 0),
    (_DUAL, 0, 0),
])
def test_cli_injdim_certifies_the_radical_on_the_opposite(tmp_path, capsys, algebra,
                                                          code, expect):
    # inj_dim resolves D(reg) over T^op, which carries T's radical; a wrong
    # one is refused when T is loaded
    ws = _table_workspace(tmp_path, algebra)
    got, out = run_cli(capsys, "injdim", "--workspace", ws)
    assert got == code
    body = json.loads(out)
    if code == 0:
        assert body["injdim"] == expect
    elif expect is not None:
        assert expect in body["reason"]


@pytest.mark.parametrize("argv, words", [
    (["gldim"], "--workspace"),
    (["gldim", "--workspace", KX2, "--bound", "abc"], "--bound"),
    (["gldim", "--workspace", KX2, "--out"], "--out"),
    ([], "command"),
])
def test_cli_usage_error_exits_2_with_a_body(capsys, argv, words):
    code, out = run_cli(capsys, *argv)
    assert code == 2
    body = json.loads(out)
    assert body["status"] == "invalid-input" and words in body["reason"]


def test_cli_help_still_prints_usage(capsys):
    with pytest.raises(SystemExit) as e:
        main(["--help"])
    assert e.value.code == 0
    assert capsys.readouterr().out.startswith("usage: homres")


def _kx2_with(tmp_path, suite=None, task=None):
    with open(KX2, encoding="utf-8") as fh:
        doc = json.load(fh)
    if suite is not None:
        doc["suite"].update(suite)
    if task is not None:
        doc["tasks"] = [doc["tasks"][0], dict(task, name="bad")]
    path = tmp_path / "ws.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_cli_negative_r_exits_2(tmp_path, capsys):
    code, out = run_cli(capsys, "suite", "--workspace", _kx2_with(tmp_path, suite={"r": -1}))
    assert code == 2 and json.loads(out)["reason"].startswith("/suite/r:")
    task = {"cmd": "verify-thm2", "algebra": "A", "t": "reg",
            "summands": ["reg", "k"], "r": -1}
    code, out = run_cli(capsys, "verify-thm2", "--workspace",
                        _kx2_with(tmp_path, task=task), "--task", "bad")
    assert code == 2 and json.loads(out)["reason"].startswith("/tasks/1/r:")


def test_verify_theorem2_refuses_negative_r():
    from homres.approx import AddCategory
    from homres.endo import verify_theorem2
    from homres.errors import InvalidInput
    from homres.workspace import load_workspace
    ws = load_workspace(KX2)
    reg, k = ws.module("reg"), ws.module("k")
    with pytest.raises(InvalidInput, match="r must be >= 0"):
        verify_theorem2(ws.algebra("A"), reg, AddCategory([reg, k]), -1)


@pytest.mark.parametrize("gp_list", [None, []])
def test_cli_auslander_needs_a_nonempty_gp_list(tmp_path, capsys, gp_list):
    task = {"cmd": "auslander", "algebra": "A"}
    if gp_list is not None:
        task["gp_list"] = gp_list
    code, out = run_cli(capsys, "auslander", "--workspace",
                        _kx2_with(tmp_path, task=task), "--task", "bad")
    assert code == 2
    body = json.loads(out)
    assert body["status"] == "invalid-input"
    assert body["reason"].startswith("/tasks/1/gp_list:")


# -- the argv reader against argparse ------------------------------------------


class _Refused(Exception):
    pass


class _Oracle(argparse.ArgumentParser):
    def error(self, message):
        raise _Refused(message)


def _oracle():
    """The argparse parser the CLI used before its flag-table reader."""
    p = _Oracle(prog="homres")
    p.add_argument("command", choices=list(_CHOICES))
    p.add_argument("--workspace", required=True)
    p.add_argument("--task")
    p.add_argument("--bound", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--out")
    return p


def _outcome(read, argv):
    """("parsed", values), ("refused",) or ("help",) for one reader."""
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            got = ("parsed", read(argv))
    except (_Refused, InvalidInput):
        got = ("refused",)
    except SystemExit as e:
        assert e.code == 0 and buf.getvalue().startswith("usage: homres")
        return ("help",)
    assert buf.getvalue() == ""
    return got


def _same_as_argparse(argv):
    mine = _outcome(_read_argv, argv)
    assert mine == _outcome(lambda a: vars(_oracle().parse_args(a)), argv)
    return mine


_FLAG_NAMES = ("--workspace", "--task", "--bound", "--seed", "--out")
_WORD = st.text(alphabet="abcxyz/._ 0123456789", min_size=1, max_size=6).filter(
    lambda w: not w.startswith("-"))
_VALUE = st.one_of(_WORD, st.integers(-20, 20).map(str),
                   st.sampled_from(["", "abc", "3.5", "-1", "-0", "-2.5", "+4", " 7 "]))


@st.composite
def _flag(draw):
    """One flag in full, abbreviated or =-joined form, with or without a value."""
    name = draw(st.sampled_from(_FLAG_NAMES))
    spelling = name[:draw(st.integers(3, len(name)))]
    value = draw(st.none() | _VALUE)
    if value is not None and draw(st.booleans()):
        return [f"{spelling}={value}"]
    return [spelling] + ([] if value is None else [value])


_ITEMS = st.one_of(
    _flag(), _flag(), _flag(),
    st.sampled_from(list(_CHOICES) + ["frobnicate", "Gldim", "suit", ""]).map(lambda c: [c]),
    _WORD.map(lambda w: [w]),
    st.sampled_from(["-h", "--help", "--he", "-hh", "-hx", "--help=x", "--frob", "-x",
                     "-", "--"]).map(lambda o: [o]),
)


@settings(max_examples=400, deadline=None)
@given(groups=st.lists(_ITEMS, max_size=7))
def test_read_argv_agrees_with_argparse(groups):
    """The reader parses an argv to the values argparse parses it to, prints
    the usage where argparse does, and refuses exactly what argparse refuses.

    argv is drawn from the CLI grammar: valid and invalid commands; every
    flag in full, abbreviated (any prefix of three or more characters) and
    =-joined form; int, non-int, negative and missing values; repeated flags,
    extra positionals, unknown options, `--` and the help spellings.  Values
    that start with "-" but are not numbers are left out: both readers take
    such an item for an option, never for a value.
    """
    _same_as_argparse([item for group in groups for item in group])


@pytest.mark.parametrize("argv, values", [
    (["gldim", f"--workspace={KX2}"], {"command": "gldim", "workspace": KX2}),
    (["--workspace", KX2, "--bound", "3", "gldim"],
     {"command": "gldim", "workspace": KX2, "bound": 3}),
    (["gldim", "--workspace", "a", "--seed", "1", "--workspace", KX2, "--seed=2"],
     {"command": "gldim", "workspace": KX2, "seed": 2}),
    (["gldim", "--work", KX2, "--b", "4", "--o=r.json"],
     {"command": "gldim", "workspace": KX2, "bound": 4, "out": "r.json"}),
    (["gldim", "--workspace", KX2, "--bound", "-1"],
     {"command": "gldim", "workspace": KX2, "bound": -1}),
])
def test_read_argv_accepts_what_argparse_accepts(argv, values):
    want = dict(dict.fromkeys(["command", "workspace", "task", "bound", "seed", "out"]),
                **values)
    assert _same_as_argparse(argv) == ("parsed", want)


@pytest.mark.parametrize("argv, outcome", [
    (["gldim", "--workspace", KX2, "-h"], "help"),
    # "--" ends the options; argparse reads it with the command next to it
    # and counts it as an unrecognized argument anywhere else
    (["--workspace", KX2, "gldim", "--"], "parsed"),
    (["--workspace", KX2, "--", "gldim"], "parsed"),
    (["gldim", "--workspace", KX2, "--"], "refused"),
    (["gldim", "--", "--workspace", KX2], "refused"),
    (["gldim", "--workspace", "--", KX2], "refused"),
])
def test_read_argv_help_and_double_dash_as_argparse(argv, outcome):
    assert _same_as_argparse(argv)[0] == outcome


def test_cli_negative_bound_reaches_the_task_reader(capsys):
    code, out = run_cli(capsys, "gldim", "--workspace", KX2, "--bound", "-1")
    assert code == 2
    assert json.loads(out)["reason"].startswith("/tasks/0/bound:")


@pytest.mark.parametrize("argv, words", [
    (["gldim", "--workspace", KX2, "--bound", 3], "argv[4]"),
    ([None, "--workspace", KX2], "argv[0]"),
    (["gldim", b"--workspace", KX2], "argv[1]"),
])
def test_cli_argv_item_not_a_string_exits_2(capsys, argv, words):
    code, out = run_cli(capsys, *argv)
    assert code == 2
    body = json.loads(out)
    assert body["status"] == "invalid-input" and words in body["reason"]


# Runs `python -m homres.cli` and lists the modules loaded by the end of main.
_MODULES_AFTER_MAIN = """
import runpy, sys
try:
    runpy.run_module("homres.cli", run_name="__main__", alter_sys=True)
except SystemExit as e:
    code = e.code
print(" ".join(sorted(sys.modules)))
sys.exit(code)
"""


def test_cli_call_imports_neither_argparse_nor_gettext():
    src = os.path.dirname(os.path.dirname(os.path.abspath(homres.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-c", _MODULES_AFTER_MAIN, "gldim", "--workspace", KX2],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    *report, modules = proc.stdout.splitlines()
    assert json.loads("\n".join(report))["cmd"] == "gldim"
    modules = set(modules.split())
    assert "homres.harness" in modules
    assert not modules & {"argparse", "gettext"}


def test_cli_table_coefficient_beyond_int64_is_read_mod_p(tmp_path, capsys):
    # 10**30 + 1 = 1 mod 2: T is GF(2) itself
    algebra = {"kind": "table", "dim": 1, "structure": [[0, 0, 0, 10**30 + 1]],
               "unit": [1]}
    code, out = run_cli(capsys, "gldim", "--workspace", _table_workspace(tmp_path, algebra))
    assert code == 0 and json.loads(out)["gldim"] == 0


def _malformed(tmp_path, case):
    """argv of an input that once ended in a traceback, and the start of the
    reason its exit-2 body must give."""
    path = tmp_path / "ws.json"
    if case == "not-utf8":
        path.write_bytes(b'\xff\xfe{"p": 2}')
        return ["gldim", "--workspace", str(path)], "/: workspace is not UTF-8"
    if case == "deep-nesting":
        path.write_text("[" * 100_000)
        return ["gldim", "--workspace", str(path)], "/: JSON nested too deeply"
    if case.startswith("table-dim-"):
        dim = {"table-dim-1e5": 10**5, "table-dim-1e7": 10**7,
               "table-dim-1e30": 10**30}[case]
        ws = _table_workspace(tmp_path, {"kind": "table", "dim": dim, "structure": [],
                                         "unit": [1]})
        return ["gldim", "--workspace", ws], f"/algebras/T: algebra dimension {dim}"
    dest = str(tmp_path / "no-such-dir" / "report.json")
    command = "gldim" if case == "unwritable-out" else "cone"  # cone: no such task
    return ([command, "--workspace", KX2, "--out", dest],
            f"argument --out: cannot write {dest!r}")


@pytest.mark.parametrize("case", ["not-utf8", "deep-nesting", "table-dim-1e7",
                                  "table-dim-1e30", "unwritable-out",
                                  "unwritable-out-on-an-error", "table-dim-1e5"])
def test_cli_malformed_input_exits_2(tmp_path, capsys, case):
    argv, reason = _malformed(tmp_path, case)
    code, out = run_cli(capsys, *argv)
    assert code == 2
    body = json.loads(out)
    assert body["status"] == "invalid-input" and body["reason"].startswith(reason)


@pytest.mark.parametrize("case", ["not-utf8", "deep-nesting", "table-dim-1e30",
                                  "unwritable-out"])
def test_cli_malformed_input_exits_2_through_python_m(tmp_path, case):
    src = os.path.dirname(os.path.dirname(os.path.abspath(homres.__file__)))
    proc = subprocess.run([sys.executable, "-m", "homres.cli", *_malformed(tmp_path, case)[0]],
                          capture_output=True, text=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=src))
    assert (proc.returncode, proc.stderr) == (2, "")
    assert json.loads(proc.stdout)["status"] == "invalid-input"


@pytest.mark.parametrize("p", [257, 1048573])
def test_cli_verify_thm2_with_a_two_dimensional_top_at_large_primes(tmp_path, capsys, p):
    # B = (End A ⊕ k ⊕ k)^op is not basic: its simple for the k ⊕ k block is
    # 2-dimensional, and it is certified by linear algebra at every prime
    with open(KX2, encoding="utf-8") as fh:
        doc = json.load(fh)
    doc["p"] = p
    doc["tasks"] = [{"cmd": "verify-thm2", "name": "thm2-kk", "algebra": "A", "t": "reg",
                     "summands": ["reg", "k", "k"], "r": 2}]
    path = tmp_path / "ws.json"
    path.write_text(json.dumps(doc))
    code, out = run_cli(capsys, "verify-thm2", "--workspace", str(path))
    assert code == 0
    assert json.loads(out)["verdict"] is True
