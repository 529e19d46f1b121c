"""homres benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (see workloads.py) closed-loop with one client: one op in
flight at a time, each op in a fresh child process forked from a parent that
has imported homres but computed nothing, so no result of one op can serve a
later one.  Every BLAS/OpenMP thread count is pinned to 1.

Passes over the op list repeat until --seconds have been measured.  Every
op's outcome is checked against a known answer (golden reports for the CLI
workloads, verified invariants for the Theorem-2 families).

--trace 0 prints the end-to-end metrics; --trace 1 spends half the time on
untraced passes and half on traced ones, prints the per-layer metrics and the
tracing overhead, and writes the spans to perfbench/_run/spans-NAME.jsonl.
The last line of stdout is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RUN_DIR = os.path.join(HERE, "_run")

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 9

# metric -> unit; the order is the order of the report
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
}

# per-layer metrics: summed over the ops of a pass, except maxima (MAXIMA and
# every *.peak_mb)
PER_LAYER = (
    "linalg.self_s", "linalg.rref.calls", "linalg.rref.self_s",
    "linalg.solve_linear.calls", "linalg.kernel_basis.calls",
    "linalg.cells_eliminated", "linalg.max_system_cells", "linalg.peak_mb",
    "modules.self_s", "modules.hom_basis.calls", "modules.hom_basis.self_s",
    "modules.hom_basis.total_s", "modules.hom_basis.peak_mb",
    "modules.hom_basis.repeat_frac", "modules.coords_in_basis.calls",
    "modules.direct_sum.self_s", "modules.is_isomorphic.total_s",
    "modules.simple_modules.total_s",
    "resolutions.self_s", "resolutions.is_projective.calls",
    "resolutions.is_projective.total_s", "resolutions.is_projective.repeat_frac",
    "resolutions.is_projective.peak_mb", "resolutions.projective_resolution.calls",
    "resolutions.projective_resolution.repeat_frac", "resolutions.max_term_dim",
    "resolutions.inj_dim.total_s", "resolutions.gl_dim.total_s",
    "endo.endomorphism_algebra.calls", "endo.endomorphism_algebra.total_s",
    "endo.endomorphism_algebra.repeat_frac", "endo.hom_functor.total_s",
    "endo.verify_theorem2.total_s",
    "gorenstein.is_gorenstein.total_s", "gorenstein.relative_auslander.total_s",
    "gorenstein.cotilting_check.total_s",
    "approx.self_s", "approx.right_approximation.calls",
    "approx.right_approximation.total_s", "approx.add_membership.total_s",
    "complexes.self_s", "complexes.c_resolution.total_s",
    "complexes.perfect_test.total_s", "complexes.homotopy_hom_dim.total_s",
    "algebra.validate_radical.total_s", "algebra.from_quiver.total_s",
    "workspace.load_workspace.total_s", "harness.self_s", "cli.main.self_s",
    "trace.spans", "trace.overhead_s",
)
MAXIMA = ("linalg.max_system_cells", "resolutions.max_term_dim")


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("_frac"):
        return "ratio"
    if name.endswith("_cells") or name.endswith("cells_eliminated"):
        return "cells"
    if name.endswith("_dim"):
        return "dim"
    return "count"


# -- child processes -----------------------------------------------------------


def in_child(fn, *args) -> tuple:
    """Run fn(*args) in a forked child; return (reply dict, peak RSS in MB).

    The reply is fn's JSON-able result, or {"error": ...} when the child
    raised or died (MemoryError and an OOM kill included).
    """
    sys.stdout.flush()
    sys.stderr.flush()
    rfd, wfd = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(rfd)
        try:
            reply = {"ok": fn(*args)}
        except BaseException as e:  # the child must always answer and exit
            reply = {"error": f"{type(e).__name__}: {e}"}
        try:
            with os.fdopen(wfd, "w", encoding="utf-8") as fh:
                fh.write(json.dumps(reply))
        finally:
            os._exit(0)
    os.close(wfd)
    with os.fdopen(rfd, encoding="utf-8") as fh:
        data = fh.read()
    _, status, usage = os.wait4(pid, 0)
    if not data:
        return {"error": f"child died (wait status {status})"}, usage.ru_maxrss / 1024
    return json.loads(data), usage.ru_maxrss / 1024


def _setup_once(workload_name: str, seed: int, workdir: str) -> float:
    """The measured set-up: import homres and make one pass's inputs."""
    t0 = time.perf_counter()
    sys.path.insert(0, SRC)
    import workloads  # imports numpy and homres
    work = workloads.WORKLOADS[workload_name](seed, workdir)
    work.setup()
    work.prepare(0)
    return time.perf_counter() - t0


class Stopwatch:
    """Brackets the measured call of an op; starts and stops the tracer."""

    def __init__(self, tracer=None, op=""):
        self.tracer, self.op, self.elapsed = tracer, op, None

    def __enter__(self):
        if self.tracer is not None:
            self.tracer.begin(self.op)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.start
        if self.tracer is not None:
            self.tracer.end()
        return False


def _run_op(work, op: dict, pass_index: int, tracer) -> dict:
    timer = Stopwatch(tracer, op["key"])
    try:
        out = {"result": work.run_op(op, pass_index, timer)}
    except Exception as e:  # the op's failure is an outcome to report
        out = {"raised": f"{type(e).__name__}: {e}"}
    out["wall"] = timer.elapsed
    if tracer is not None:
        out["layers"] = tracer.summarize()
        out["spans"] = tracer.export_spans()
    return out


# -- measurement ---------------------------------------------------------------


class Run:
    """Passes over one workload's op list, with their outcomes."""

    def __init__(self, work, tracer):
        self.work = work
        self.tracer = tracer
        self.ops = work.ops()
        self.attempted = 0
        self.failures = []        # (op key, reason)
        self.wrong = []           # ops that returned a wrong answer
        self.outputs = {}         # (op key, pass) -> first result seen

    def one_pass(self, pass_index: int, traced: bool) -> dict:
        rec = {"walls": [], "rss": [], "layers": [], "spans": []}
        for op in self.ops:
            reply, rss = in_child(_run_op, self.work, op, pass_index,
                                  self.tracer if traced else None)
            self.attempted += 1
            rec["rss"].append(rss)
            got = reply.get("ok", {})
            rec["walls"].append(got.get("wall"))
            if traced and "layers" in got:
                rec["layers"].append(got["layers"])
                rec["spans"].extend(got["spans"])
            if "result" not in got:
                self.failures.append((op["key"], reply.get("error") or got["raised"]))
                continue
            mismatch = self.work.check(op, got["result"])
            first = self.outputs.setdefault((op["key"], pass_index), got["result"])
            if first != got["result"]:
                mismatch = "traced output differs from the untraced output"
            if mismatch:
                self.failures.append((op["key"], mismatch))
                self.wrong.append(op["key"])
        rec["wall"] = sum(w for w in rec["walls"] if w is not None)
        return rec

    def passes(self, seconds: float, traced: bool) -> list:
        """Passes until `seconds` are spent; a pass that would end past the
        budget (judged by the median pass so far) is not started."""
        out = []
        start = last = time.perf_counter()
        while True:
            rec = self.one_pass(len(out), traced)
            now = time.perf_counter()
            rec["elapsed"], last = now - last, now
            out.append(rec)
            if now - start + statistics.median(p["elapsed"] for p in out) > seconds:
                return out


def tail(values, min_beyond: int = 10):
    """Highest percentile with at least `min_beyond` samples above it:
    (percentile, value, samples beyond) or None when there are too few."""
    xs = sorted(values)
    n = len(xs)
    if n <= min_beyond:
        return None
    k = n - min_beyond - 1  # xs[k] has exactly min_beyond samples above
    return 100.0 * (k + 1) / n, xs[k], n - k - 1


def end_to_end(setup: list, passes: list, ops: list) -> tuple:
    # per op, its time in every pass that timed it
    per_op = [[p["walls"][i] for p in passes if p["walls"][i] is not None]
              for i in range(len(ops))]
    typical = [statistics.median(ts) for ts in per_op if ts]
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": sum(typical),
        "peak_rss_mb": max(r for p in passes for r in p["rss"]),
    }
    # per-op and pooled latencies, for the report lines
    info = {"op_p50_ms": (1000 * statistics.median(typical), "ms"),
            "op_max_s": (max(typical), "s")}
    for op, ts in zip(ops, per_op):
        if "label" in op and ts:
            info[op["label"]] = (statistics.median(ts), "s")
    samples = [t for ts in per_op for t in ts]
    info["ops_per_s"] = (len(samples) / sum(samples), "1/s")
    info[f"op_pooled_p50_ms(n={len(samples)})"] = (1000 * statistics.median(samples), "ms")
    t = tail(samples)
    if t is not None:
        info[f"op_tail_ms(p{t[0]:.1f},{t[2]}_beyond,n={len(samples)})"] = (1000 * t[1], "ms")
    return metrics, info


def per_layer(untraced: list, traced: list) -> dict:
    from tracer import REPEAT_KEYED
    per_pass = []
    for p in traced:
        agg = {}
        for layers in p["layers"]:
            for k, v in layers.items():
                if k in MAXIMA or k.endswith(".peak_mb"):
                    agg[k] = max(agg.get(k, 0), v)
                else:
                    agg[k] = agg.get(k, 0) + v
        for name in REPEAT_KEYED:
            calls = agg.get(f"{name}.calls", 0)
            agg[f"{name}.repeat_frac"] = agg.get(f"{name}.repeats", 0) / calls if calls else 0.0
        per_pass.append(agg)
    out = {k: statistics.median(a.get(k, 0) for a in per_pass)
           for k in PER_LAYER if k != "trace.overhead_s"}
    out["trace.overhead_s"] = (statistics.median(p["wall"] for p in traced)
                               - statistics.median(p["wall"] for p in untraced))
    return out


def write_spans(path: str, passes: list) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fields = ["id", "parent", "name", "start", "end", "op", "pass"]
        fh.write(json.dumps({"fields": fields}) + "\n")
        for i, p in enumerate(passes):
            for span in p["spans"]:
                fh.write(json.dumps(span + [i]) + "\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "homres", "__init__.py")):
        print(f"error: no homres sources under {SRC}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"

    workdir = os.path.join(RUN_DIR, f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        return measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, workdir: str) -> int:
    setup = []
    for _ in range(SETUP_REPEATS):
        reply, _ = in_child(_setup_once, args.workload, args.seed, workdir)
        if "error" in reply:
            print(f"error: set-up failed: {reply['error']}", file=sys.stderr)
            return 1
        setup.append(reply["ok"])

    sys.path.insert(0, SRC)
    import homres
    import workloads
    if os.path.dirname(os.path.abspath(homres.__file__)) != os.path.join(SRC, "homres"):
        print(f"error: imported homres from {homres.__file__}, not {SRC}", file=sys.stderr)
        return 1
    work = workloads.WORKLOADS[args.workload](args.seed, workdir)
    work.setup()

    tracer = None
    if args.trace:
        import tracer as tracer_mod
        tracer = tracer_mod.Tracer()
        tracer.install()
    run = Run(work, tracer)
    print(f"# workload {args.workload} seed {args.seed} {work.describe()}: "
          f"{len(run.ops)} ops per pass, one op in flight, fork per op")

    if args.trace:
        untraced = run.passes(args.seconds / 2, False)
        traced = run.passes(args.seconds / 2, True)
        metrics = per_layer(untraced, traced)
        units = {k: layer_unit(k) for k in metrics}
        os.makedirs(RUN_DIR, exist_ok=True)
        write_spans(os.path.join(RUN_DIR, f"spans-{args.workload}.jsonl"), traced)
        print(f"# {len(untraced)} untraced and {len(traced)} traced passes; "
              f"{sum(n for n in tracer.aliases.values())} aliases of "
              f"{len(tracer.wrapped)} functions replaced")
    else:
        passes = run.passes(args.seconds, False)
        metrics, info = end_to_end(setup, passes, run.ops)
        units = dict(END_TO_END)
        print(f"# {len(passes)} passes")
        for name, (value, unit) in info.items():
            print(f"{name} {value:.6g} {unit}")

    for key, reason in run.failures[:20]:
        print(f"# failed op {key}: {reason}")
    print(f"# ops attempted {run.attempted}, failed {len(run.failures)} "
          f"(ops_failed_frac {len(run.failures) / run.attempted:.4f})")
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    result = {
        "correct": not run.wrong,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
