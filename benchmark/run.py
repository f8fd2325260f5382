"""vrgrad benchmark: one workload, timed end to end (--trace 0) or per layer (--trace 1).

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a vrgrad checkout; vrgrad is imported from ./src.
The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  See benchmark/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
import types
from pathlib import Path

# One BLAS thread per process: at these sizes a second thread gains nothing
# measurable, and with one process at a time no run competes with itself.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

HERE = Path(__file__).resolve().parent
CHILD_TIMEOUT_S = 150
MIN_ROUNDS = 2  # so that every median has two samples at least

END_TO_END = {"setup_s": "s", "wall_s": "s", "solve_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "cli.import_s": "s", "cli.build_problem_s": "s", "cli.write_artifacts_ms": "ms",
    "cli.bench_overhead_s": "s",
    "data.gen_synthetic_s": "s", "data.read_libsvm_s": "s", "data.libsvm_entries_per_s": "1/s",
    "problems.from_dense_s": "s", "problems.lipschitz_s": "s", "problems.full_grad_ms": "ms",
    "problems.objective_ms": "ms",
    "geometry.project_l1_ball_us": "us", "geometry.prox_l1_us": "us",
    "geometry.project_box_us": "us",
    "sampling.draw_us": "us", "sampling.draw_many_ns_per_index": "ns",
    "solvers.inner_step_us": "us", "solvers.epoch_overhead_ms": "ms",
    "solvers.epochs_to_target": "count",
    "certificates.reference_s": "s", "certificates.hoffman_s": "s",
    "certificates.hoffman_subsets_per_s": "1/s", "certificates.ssc_probe_s": "s",
    "trace.overhead_ratio": "ratio",
}


class Failed(Exception):
    """An operation of the workload failed (as opposed to giving a wrong output)."""


def load_vrgrad(root: Path):
    src = root / "src"
    if not (src / "vrgrad" / "cli.py").is_file():
        raise SystemExit(f"error: no vrgrad source at {src}; run from the root of a checkout")
    sys.path.insert(0, str(src))
    import vrgrad
    from vrgrad import certificates, cli, data, geometry, problems, sampling, solvers
    if Path(vrgrad.__file__).resolve().parent != (src / "vrgrad").resolve():
        raise SystemExit(f"error: vrgrad was imported from {vrgrad.__file__}, not {src}")
    return types.SimpleNamespace(cli=cli, data=data, problems=problems, geometry=geometry,
                                 sampling=sampling, solvers=solvers,
                                 certificates=certificates), src


def spawn(args, cwd, env, log_path):
    """Run a child to completion; return (wall seconds, peak RSS in MB, exit code)."""
    with open(log_path, "wb") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen(args, cwd=cwd, env=env, stdout=log, stderr=subprocess.STDOUT)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - t0
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            timer.cancel()
            if proc.returncode is None:
                proc.kill()
                proc.wait()
    return wall, usage.ru_maxrss / 1024.0, proc.returncode


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def quiet(fn, *args, **kwargs):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return fn(*args, **kwargs)


class Run:
    """Counts operations and collects samples for one benchmark run."""

    def __init__(self, wl, vr, src, root, seconds):
        self.wl, self.vr, self.src, self.root = wl, vr, src, root
        self.seconds = seconds
        self.env = dict(os.environ, PYTHONPATH=str(src))
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.samples = {}

    def add(self, name, value):
        self.samples.setdefault(name, []).append(float(value))

    def op(self, what, fn, *args):
        """One operation: counted as attempted, and as failed if it raises."""
        self.attempted += 1
        try:
            return fn(*args)
        except Exception as e:  # a failing operation is counted, not fatal
            self.failed += 1
            print(f"operation failed: {what}: {type(e).__name__}: {e}", file=sys.stderr)
            return None

    def check(self, *args):
        try:
            self.wl.check(*args)
        except checks.CheckFailure as e:
            self.correct = False
            print(f"check failed: {e}", file=sys.stderr)

    def setup_child(self, trace):
        log = self.wl.dir / "setup.log"
        _, _, rc = spawn([sys.executable, str(HERE / "setup_child.py"),
                          str(self.wl.config_path), str(self.src), str(int(trace))],
                         self.root, self.env, log)
        if rc != 0:
            raise Failed(f"set-up child exited {rc}: {log.read_text()[-500:]}")
        return json.loads(log.read_text().splitlines()[-1])

    def rounds(self, body):
        """Run body() twice, then again while the next round is predicted to end in time."""
        start = time.perf_counter()
        done = 0
        while True:
            t = time.perf_counter()
            body()
            done += 1
            now = time.perf_counter()
            if done >= MIN_ROUNDS and now + (now - t) > start + self.seconds:
                return

    def median(self, name):
        values = self.samples.get(name)
        if not values:
            raise SystemExit(f"error: no sample of {name}; every operation that gives it failed")
        return statistics.median(values)


# ---------------------------------------------------------------- end to end

def run_untraced(run: Run):
    wl = run.wl
    cli_out, lib_out = wl.dir / "cli", wl.dir / "lib"

    def setup():
        run.add("setup_s", run.setup_child(False)["setup_s"])

    def command():
        wall, rss, rc = spawn([sys.executable, "-m", "vrgrad.cli", *wl.cli_args(fresh_dir(cli_out))],
                              run.root, run.env, wl.dir / "cli.log")
        if rc != 0:
            raise Failed(f"vrgrad {wl.command} exited {rc}: "
                         f"{(wl.dir / 'cli.log').read_text()[-500:]}")
        run.add("wall_s", wall)
        run.add("peak_rss_mb", rss)
        wl.after_command(cli_out)
        return True

    def library():
        out = fresh_dir(lib_out)
        t = time.perf_counter()
        result = quiet(wl.library_entry, out)
        run.add("solve_s", time.perf_counter() - t)
        return result

    def round_():
        run.op("set-up", setup)
        ok = run.op(f"vrgrad {wl.command}", command)
        result = run.op("library entry", library)
        if ok and result is not None:
            run.check(cli_out, result)

    # a set-up in every round and one more, so set-ups spread over the whole run
    run.op("set-up", setup)
    run.rounds(round_)
    return {name: run.median(name) for name in END_TO_END}


# ---------------------------------------------------------------- per layer

def bench_overhead(tracer):
    """cmd_bench time minus the cells' solver calls, one problem build and one reference solve."""
    cmd = tracer.indices("cli.cmd_bench")[0]
    kids = tracer.children(cmd)
    solver = sum(tracer.duration(i) for i, s in kids if s[0].startswith("solvers.run_"))
    first_build = next(tracer.duration(i) for i, s in kids if s[0] == "cli.build_problem")
    ref = sum(tracer.duration(i) for i, s in kids if s[0] == "certificates.reference_solution")
    return tracer.duration(cmd) - solver - first_build - ref


def span_metrics(tracer, wl, lib_s):
    """Per-layer figures from the spans of one traced in-process command."""
    out = {}
    cmd = tracer.indices(f"cli.cmd_{wl.command}")[0]
    # the command's own time, plus the trace writer it calls
    writes = sum(tracer.duration(i) for i, s in tracer.children(cmd) if s[0] == "cli.write_trace_csv")
    out["cli.write_artifacts_ms"] = (tracer.self_time(cmd) + writes) * 1e3
    if wl.command == "bench":
        out["cli.bench_overhead_s"] = bench_overhead(tracer)
    lips = tracer.named("problems.compute_lipschitz_info")
    out["problems.lipschitz_s"] = statistics.mean(lips)
    out["certificates.reference_s"] = sum(tracer.named("certificates.reference_solution"))
    hoff = tracer.named("certificates.hoffman_theta_bound")
    if hoff:
        out["certificates.hoffman_s"] = sum(hoff)
        out["certificates.hoffman_subsets_per_s"] = wl.subsets / sum(hoff)
    ssc = tracer.named("certificates.ssc_probe")
    if ssc:
        out["certificates.ssc_probe_s"] = sum(ssc)
    out["trace.overhead_ratio"] = tracer.named(wl.entry_span)[0] / lib_s
    return out


def setup_metrics(child, entries):
    spans = child["spans"]
    out = {"cli.import_s": child["import_s"], "cli.build_problem_s": spans["cli.build_problem"][1]}
    if "data.gen_synthetic" in spans:
        out["data.gen_synthetic_s"] = spans["data.gen_synthetic"][1]
    if "data.read_libsvm" in spans:
        out["data.read_libsvm_s"] = spans["data.read_libsvm"][1]
        out["data.libsvm_entries_per_s"] = entries / spans["data.read_libsvm"][1]
    if "problems.SparseDesignMatrix.from_dense" in spans:
        out["problems.from_dense_s"] = spans["problems.SparseDesignMatrix.from_dense"][1]
    return out


def median_span(tracer, name, scale):
    return statistics.median(tracer.named(name)) * scale


def layer_probes(wl, vr):
    """Direct timings of single layers on inputs shaped by the workload."""
    out = {}
    problem, info, runner, make_config = wl.primary
    # solver time at two values of m: the slope is the inner step, the intercept the epoch
    m2 = max(problem.n, 2000)
    m1 = m2 // 10
    epochs = 2
    times = {m1: [], m2: []}
    for _ in range(3):
        for m in (m1, m2):
            t = time.perf_counter()
            trace = runner(problem, make_config(m, epochs), info=info)
            times[m].append((time.perf_counter() - t) / epochs)
    t1, t2 = statistics.median(times[m1]), statistics.median(times[m2])
    slope = (t2 - t1) / (m2 - m1)
    out["solvers.inner_step_us"] = slope * 1e6
    out["solvers.epoch_overhead_ms"] = (t1 - slope * m1) * 1e3

    w = trace.final_iterate
    step = make_config(m2, 1).step_size
    tracer = Tracer()
    with tracer.installed():
        for _ in range(5):
            grad = vr.problems.eval_full_grad(problem, w)
            vr.problems.eval_objective(problem, w)
        # pre-step points like the solver's: w - step * (gradient + noise of its size)
        rng = np.random.Generator(np.random.Philox(wl.seed))
        scale = float(np.linalg.norm(grad)) / np.sqrt(grad.size) or 1.0
        points = [w - step * (grad + scale * rng.standard_normal(grad.size)) for _ in range(32)]
        c, reg = problem.constraint, problem.regularizer
        med = float(np.median(np.abs(points[0]))) or 1.0
        tau = c.tau if isinstance(c, vr.problems.L1Ball) else float(np.abs(w).sum()) or med
        if isinstance(c, vr.problems.Box):
            lower, upper = c.lower, c.upper
        else:
            lower, upper = np.full(w.size, -med), np.full(w.size, med)
        threshold = step * reg.lam if reg is not None else med
        for _ in range(3):
            for v in points:
                vr.geometry.project_l1_ball(v, tau)
                vr.geometry.prox_l1(v, threshold)
                vr.geometry.project_box(v, lower, upper)
        dist = vr.sampling.build_distribution("proportional", info, seed=wl.seed)
        for _ in range(4000):
            vr.sampling.draw(dist)
        count = 200_000
        for _ in range(3):
            vr.sampling.draw_many(dist, count)
    out["problems.full_grad_ms"] = median_span(tracer, "problems.eval_full_grad", 1e3)
    out["problems.objective_ms"] = median_span(tracer, "problems.eval_objective", 1e3)
    out["geometry.project_l1_ball_us"] = median_span(tracer, "geometry.project_l1_ball", 1e6)
    out["geometry.prox_l1_us"] = median_span(tracer, "geometry.prox_l1", 1e6)
    out["geometry.project_box_us"] = median_span(tracer, "geometry.project_box", 1e6)
    out["sampling.draw_us"] = median_span(tracer, "sampling.draw", 1e6)
    out["sampling.draw_many_ns_per_index"] = median_span(tracer, "sampling.draw_many", 1e9) / count
    return out


TINY_GRID = {
    "datasets": [{"name": "tiny",
                  "dataset": {"kind": "synthetic", "n": 200, "d": 40, "rank": 10,
                              "noise_std": 0.25, "row_scale_spread": 3.0, "seed": 0},
                  "problem": {"constraint": {"type": "l1_ball", "tau": 5.0}}}],
    "algorithms": [{"name": "vrpsg", "algorithm": "vrpsg", "eta": 0.2,
                    "sampling": "proportional"}],
    "seeds": [0], "epochs": 2,
}
TINY_CERTIFY = {
    "dataset": {"kind": "inline", "X": [[1, 0], [0, 1], [2, 0], [0, 2]], "y": [0.3, -0.2, 0.6, -0.4]},
    "problem": {"constraint": {"type": "box", "lower": -1.0, "upper": 1.0}},
}


def off_path_probe(vr, work: Path):
    """Layers the workload's command does not reach, timed on fixed small inputs."""
    tracer = Tracer()
    with tracer.installed():
        quiet(vr.cli.cmd_bench, json.loads(json.dumps(TINY_GRID)), str(fresh_dir(work / "grid")), 1)
        matrix, labels, _ = vr.cli.build_dataset(TINY_GRID["datasets"][0]["dataset"])
        path = work / "tiny.libsvm"
        vr.data.write_libsvm(path, matrix, labels)
        vr.data.read_libsvm(path)
        problem = vr.cli.build_problem(json.loads(json.dumps(TINY_CERTIFY)))
        C, b = vr.certificates.box_rows(problem.constraint.lower, problem.constraint.upper)
        vr.certificates.build_certificate(problem, C, b, probe=True, probes=20)
    entries = path.read_text().count(":")
    read = sum(tracer.named("data.read_libsvm"))
    hoff = sum(tracer.named("certificates.hoffman_theta_bound"))
    return {
        "data.gen_synthetic_s": tracer.named("data.gen_synthetic")[0],
        "problems.from_dense_s": tracer.named("problems.SparseDesignMatrix.from_dense")[0],
        "data.read_libsvm_s": read,
        "data.libsvm_entries_per_s": entries / read,
        "cli.bench_overhead_s": bench_overhead(tracer),
        "certificates.hoffman_s": hoff,
        "certificates.hoffman_subsets_per_s":
            checks.hoffman_subsets(C.shape[0] + problem.n, problem.d) / hoff,
        "certificates.ssc_probe_s": sum(tracer.named("certificates.ssc_probe")),
    }


def run_traced(run: Run):
    wl, vr = run.wl, run.vr
    cli_out, lib_out = wl.dir / "cli", wl.dir / "lib"
    entries = getattr(wl, "entries", 0)
    state = {}

    def setup():
        for name, value in setup_metrics(run.setup_child(True), entries).items():
            run.add(name, value)

    def command():
        tracer = Tracer()
        with tracer.installed():
            rc = quiet(vr.cli.main, wl.cli_args(fresh_dir(cli_out)))
        if rc != 0:
            raise Failed(f"vrgrad {wl.command} returned {rc}")
        wl.after_command(cli_out)
        return tracer

    def library():
        out = fresh_dir(lib_out)
        t = time.perf_counter()
        result = quiet(wl.library_entry, out)
        return result, time.perf_counter() - t

    def round_():
        run.op("set-up", setup)
        tracer = run.op(f"vrgrad {wl.command}", command)
        lib = run.op("library entry", library)
        if tracer is not None and lib is not None:
            run.check(cli_out, lib[0])
            for name, value in span_metrics(tracer, wl, lib[1]).items():
                run.add(name, value)
            state["result"] = lib[0]

    run.op("set-up", setup)
    run.rounds(round_)
    probes = run.op("layer probes", layer_probes, wl, vr) or {}
    for name, value in probes.items():
        run.add(name, value)
    if "result" in state:
        target = run.op("epochs to target", wl.epochs_to_target, cli_out, state["result"])
        if target is not None:
            run.add("solvers.epochs_to_target", target)
    missing = [name for name in PER_LAYER if name not in run.samples]
    if missing:
        extra = run.op("off-path probe", off_path_probe, vr, wl.dir / "tiny") or {}
        for name in missing:
            if name in extra:
                run.add(name, extra[name])
        print("off-path probe (fixed small inputs) gave: " + ", ".join(missing))
    return {name: run.median(name) for name in PER_LAYER}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    vr, src = load_vrgrad(root)
    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"error: unknown workload {args.workload!r}; "
                         f"valid: {', '.join(workloads.WORKLOADS)}")
    run_dir = fresh_dir(HERE / "out" / f"{args.workload}-s{args.seed}-p{os.getpid()}")
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, run_dir, vr)
        wl.prepare()
        run = Run(wl, vr, src, root, args.seconds)
        values = run_traced(run) if args.trace else run_untraced(run)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    units = PER_LAYER if args.trace else END_TO_END
    print(json.dumps({
        "correct": run.correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
