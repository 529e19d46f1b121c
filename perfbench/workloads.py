"""Workload definitions: inputs made from a seed, ops, and known answers.

Each workload makes its inputs from ``--seed`` in ``setup``, lists the ops of
one pass in ``ops``, runs one op in ``run_op`` (called in a fresh child
process, so nothing computed by one op can serve another) and judges the
op's outcome in ``check`` against a known answer.

- ``dossier``: ``homres suite`` through ``homres.cli.main`` on the bundled
  ``kx3``, ``kx2`` and ``a2-hereditary`` workspaces at a seed-chosen prime;
  every report is compared byte for byte with the golden dossier.
- ``thm2-scale``: ``verify_theorem2`` called from the library on the
  Auslander algebra of k[x]/(x^n), n = 2, 3 (T = A) and on the rad^2-zero
  linear quiver A_m, m = 2, 3 (T = D(A)), every summand under a fresh random
  change of basis on each pass.
- ``task-mix``: every task of the bundled ``kx2`` and ``a2-hereditary``
  workspaces, one ``homres.cli.main`` call per task, at three seed-chosen
  primes, with a fixed handful of malformed inputs mixed in.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
from typing import Dict, List, Optional, Tuple

import numpy as np

import homres
import homres.cli
import homres.endo
from homres import linalg
from homres.algebra import QuiverPresentation, from_quiver, opposite
from homres.approx import AddCategory
from homres.modules import (Module, dual_module, regular_module, simple_modules,
                            validate_module)

# Primes a seed can choose; golden.json holds the baseline commit's reports
# for every one of them.
PRIMES = (2, 3, 5, 7)

DOSSIER_WORKSPACES = ("kx3", "kx2", "a2-hereditary")
TASK_WORKSPACES = ("kx2", "a2-hereditary")

GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden.json")

# The bundled kx2 workspace has no `cone` or `retraction` task; these two
# complete the mix to all 20 task commands.
EXTRA_KX2 = {
    "complexes": {
        "reg-stalk": {"algebra": "A", "lo": 0, "terms": ["reg"], "diffs": []},
    },
    "tasks": [
        {"cmd": "cone", "name": "cone-id-socle",
         "map": {"source": "socle-seq", "target": "socle-seq",
                 "components": {"-1": [[1]], "0": [[1, 0], [0, 1]],
                                "1": [[1]]}}},
        {"cmd": "retraction", "name": "retraction-reg",
         "map": {"source": "reg-stalk", "target": "reg-stalk",
                 "components": {"0": [[1, 0], [0, 1]]}},
         "summands": ["reg"]},
    ],
}

# Verified answers for the Theorem-2 families: (inj.dim T, gl.dim B, verdict,
# dim B).  Both families have T injective and B an Auslander algebra.
THM2_KNOWN = {
    ("uniserial", 2): (0, 2, True, 5),
    ("uniserial", 3): (0, 2, True, 14),
    ("linear", 2): (0, 2, True, 5),
    ("linear", 3): (0, 2, True, 10),
}


def _bundled(name: str) -> dict:
    with open(homres.bundled_workspace_path(name), encoding="utf-8") as fh:
        return json.load(fh)


def workspace_doc(name: str, p: int) -> dict:
    """A bundled workspace re-rooted at the prime p (kx2 gains EXTRA_KX2)."""
    doc = _bundled(name)
    doc["p"] = p
    if name == "kx2":
        doc["complexes"].update(EXTRA_KX2["complexes"])
        doc["tasks"] = doc["tasks"] + EXTRA_KX2["tasks"]
    return doc


def write_doc(path: str, doc) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        if isinstance(doc, str):
            fh.write(doc)
        else:
            json.dump(doc, fh, sort_keys=True)
    return path


def run_cli(argv: List[str]) -> Tuple[int, str]:
    """One homres CLI call; returns (exit code, stdout)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        # looked up at call time, so the tracer's wrapper is the one called
        code = homres.cli.main(argv)
    return code, buf.getvalue()


def load_golden() -> dict:
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        return json.load(fh)


# -- Theorem-2 families --------------------------------------------------------


def uniserial_family(n: int, p: int):
    """k[x]/(x^n) with its n uniserial modules k[x]/(x^i); T = A."""
    a = from_quiver(QuiverPresentation(vertices=1, arrows=[(0, 0)],
                                       relations=[(0,) * n]), p)
    mods = []
    for i in range(1, n + 1):
        act = np.zeros((a.dim, i, i), dtype=np.int64)
        for k in range(a.dim):  # basis element x^k shifts u_j to u_{j+k}
            for j in range(i - k):
                act[k, j + k, j] = 1
        mods.append(validate_module(Module(a, i, act)))
    return a, regular_module(a), mods


def linear_family(m: int, p: int):
    """rad^2-zero A_m: the m simples and the m-1 length-two projectives
    (all 2m-1 indecomposables); T = D(A)."""
    arrows = [(i, i + 1) for i in range(m - 1)]
    relations = [(i, i + 1) for i in range(m - 2)]
    a = from_quiver(QuiverPresentation(vertices=m, arrows=arrows,
                                       relations=relations), p)
    reg = regular_module(a)
    mods = list(simple_modules(a))
    for v in range(m - 1):
        idx = [v, m + v]  # e_v and the arrow leaving v span A e_v
        mods.append(validate_module(Module(a, 2, reg.action[:, idx][:, :, idx])))
    return a, dual_module(regular_module(opposite(a))), mods


def change_basis(x: Module, rng: np.random.Generator) -> Module:
    """x under a uniformly random invertible change of basis."""
    p, d = x.p, x.dim
    while True:
        g = rng.integers(0, p, size=(d, d))
        g_inv = linalg.inverse(g, p)
        if g_inv is not None:
            break
    action = np.einsum("ab,kbc,cd->kad", g_inv, x.action, g) % p
    return validate_module(Module(x.algebra, d, action))


# -- workloads -----------------------------------------------------------------


class Workload:
    """Base: subclasses set ``name`` and implement the four steps."""

    name = ""

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir

    def setup(self) -> None:
        """Make this seed's inputs (files under workdir, chosen primes)."""

    def prepare(self, pass_index: int) -> None:
        """Build one pass's op inputs.  Only the set-up measurement calls
        it; each op builds its own inputs in its child."""

    def ops(self) -> List[dict]:
        raise NotImplementedError

    def run_op(self, op: dict, pass_index: int, timer) -> dict:
        """Run one op; ``timer`` brackets only the measured call."""
        raise NotImplementedError

    def check(self, op: dict, result: dict) -> Optional[str]:
        """None when the outcome is the known answer, else the mismatch."""
        raise NotImplementedError

    def describe(self) -> str:
        return ""


class Dossier(Workload):
    name = "dossier"

    def setup(self) -> None:
        self.p = random.Random(self.seed).choice(PRIMES)
        self.paths = {
            ws: write_doc(os.path.join(self.workdir, f"{ws}-{self.p}.json"),
                       workspace_doc(ws, self.p))
            for ws in DOSSIER_WORKSPACES}
        self.golden = load_golden()["dossier"]

    def ops(self) -> List[dict]:
        return [{"key": f"suite {ws}@{self.p}", "ws": ws,
                 "label": f"suite_{ws.split('-')[0]}_s"}
                for ws in DOSSIER_WORKSPACES]

    def run_op(self, op: dict, pass_index: int, timer) -> dict:
        argv = ["suite", "--workspace", self.paths[op["ws"]]]
        with timer:
            code, out = run_cli(argv)
        return {"code": code, "out": out}

    def check(self, op: dict, result: dict) -> Optional[str]:
        want = self.golden[f"{op['ws']}@{self.p}"]
        if result["code"] != 0 or result["out"] != want:
            return f"dossier differs from the golden bytes (exit {result['code']})"
        return None

    def describe(self) -> str:
        return f"p={self.p}"


class Thm2Scale(Workload):
    name = "thm2-scale"
    # (family, size): the two rungs of each family
    rungs = (("uniserial", 2), ("uniserial", 3), ("linear", 2), ("linear", 3))

    def setup(self) -> None:
        self.p = random.Random(self.seed).choice(PRIMES)

    def prepare(self, pass_index: int) -> None:
        for family, n in self.rungs:
            self.inputs(family, n, pass_index)

    def ops(self) -> List[dict]:
        return [{"key": f"{family} {n}@{self.p}", "family": family, "n": n,
                 "label": f"thm2_{family}_{n}_s"}
                for family, n in self.rungs]

    def inputs(self, family: str, n: int, pass_index: int):
        build = uniserial_family if family == "uniserial" else linear_family
        a, t, mods = build(n, self.p)
        rng = np.random.default_rng([self.seed, pass_index, len(family), n])
        return a, t, [change_basis(x, rng) for x in mods]

    def run_op(self, op: dict, pass_index: int, timer) -> dict:
        a, t, mods = self.inputs(op["family"], op["n"], pass_index)
        cat = AddCategory(mods)
        with timer:
            rep = homres.endo.verify_theorem2(a, t, cat, 2)
        return {"injdim_t": rep.injdim_t, "gldim_b": rep.gldim_b,
                "verdict": rep.verdict, "b_dim": rep.b_dim}

    def check(self, op: dict, result: dict) -> Optional[str]:
        got = (result["injdim_t"], result["gldim_b"], result["verdict"],
               result["b_dim"])
        want = THM2_KNOWN[(op["family"], op["n"])]
        return None if got == want else f"got {got}, known answer {want}"

    def describe(self) -> str:
        return f"p={self.p}"


# Malformed inputs: each must give exit 2 with a JSON body.  The first two
# crash the CLI with a traceback at the baseline commit; they stay in the mix
# and count as failed ops until the CLI handles them.
MALFORMED = ("bound-not-int", "task-not-object", "unknown-module",
             "non-prime-p", "malformed-json", "missing-task")


class TaskMix(Workload):
    name = "task-mix"

    def setup(self) -> None:
        self.primes = random.Random(self.seed).sample(PRIMES, 3)
        self.normal: List[dict] = []
        for p in self.primes:
            for ws in TASK_WORKSPACES:
                doc = workspace_doc(ws, p)
                path = write_doc(os.path.join(self.workdir, f"{ws}-{p}.json"), doc)
                for task in doc["tasks"]:
                    self.normal.append({
                        "key": f"{ws}@{p}/{task['name']}",
                        "argv": [task["cmd"], "--workspace", path,
                                 "--task", task["name"]]})
        self.malformed = self._malformed(self.primes[0])
        self.golden = load_golden()["tasks"]

    def _malformed(self, p: int) -> List[dict]:
        base = workspace_doc("kx2", p)
        cases = {}

        def case(name, doc, argv):
            path = write_doc(os.path.join(self.workdir, f"bad-{name}.json"), doc)
            cases[name] = {"key": f"malformed/{name}", "malformed": True,
                           "argv": argv[:1] + ["--workspace", path] + argv[1:]}

        case("bound-not-int",
             dict(base, tasks=[{"cmd": "gldim", "name": "g", "algebra": "A",
                                "bound": "abc"}]), ["gldim"])
        case("task-not-object", dict(base, tasks=["gldim"]), ["gldim"])
        case("unknown-module",
             dict(base, tasks=[{"cmd": "injdim", "name": "i",
                                "module": "nope"}]), ["injdim"])
        case("non-prime-p", dict(base, p=4), ["gldim"])
        case("malformed-json", json.dumps(base)[:-7], ["gldim"])
        case("missing-task", base, ["gldim", "--task", "no-such-task"])
        return [cases[name] for name in MALFORMED]

    def ops(self) -> List[dict]:
        # one malformed op after every `stride` well-formed ones
        stride = len(self.normal) // len(self.malformed)
        out = []
        for i, op in enumerate(self.normal):
            out.append(op)
            if (i + 1) % stride == 0 and (i + 1) // stride <= len(self.malformed):
                out.append(self.malformed[(i + 1) // stride - 1])
        return out

    def run_op(self, op: dict, pass_index: int, timer) -> dict:
        with timer:
            code, out = run_cli(op["argv"])
        return {"code": code, "out": out}

    def check(self, op: dict, result: dict) -> Optional[str]:
        if op.get("malformed"):
            try:
                body = json.loads(result["out"])
            except ValueError:
                body = None
            if result["code"] != 2 or not isinstance(body, dict) or "status" not in body:
                return f"expected exit 2 with a JSON body, got exit {result['code']}"
            return None
        want = self.golden[op["key"]]
        if [result["code"], result["out"]] != want:
            return f"report differs from the golden bytes (exit {result['code']})"
        return None

    def describe(self) -> str:
        return "primes=" + ",".join(map(str, self.primes))


WORKLOADS: Dict[str, type] = {w.name: w for w in
                              (Dossier, Thm2Scale, TaskMix)}
