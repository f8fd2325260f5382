"""Command-line front end: solve, bench, certify.

Configs are JSON files with optional ``--set key=value`` overrides (dots
descend into nested objects; values are parsed as JSON when possible).
Outputs are deterministic byte-for-byte given the same config and seed,
except for wall-clock columns.

Exit codes: 0 done, 1 config or validation error, 2 solver divergence or a
stalled line search, 3 certificate found no contractive rate.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import json
import sys
from pathlib import Path

import numpy as np
import scipy

from . import __version__, certificates, data, problems, sampling, solvers

_REQUIRED = object()


class ConfigError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse whose usage errors are ConfigErrors, so they exit 1, not 2."""

    def error(self, message):
        raise ConfigError(f"{message}\n{self.format_usage().rstrip()}")


def _get(cfg: dict, key: str, default=_REQUIRED, kind=None):
    """cfg[key], or ``default`` when absent, converted by ``kind`` if given.

    A value that ``kind`` cannot convert, such as a list where a number
    belongs, is a ConfigError.  A None value passes through unconverted
    when the default is None, so an optional key may also be null.
    """
    if not isinstance(cfg, dict):
        raise ConfigError(f"expected a JSON object holding {key!r}, got {cfg!r}")
    if key in cfg:
        value = cfg[key]
    elif default is _REQUIRED:
        raise ConfigError(f"config is missing required key {key!r}")
    else:
        value = default
    if kind is None or (value is None and default is None):
        return value
    try:
        return kind(value)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"config key {key!r} has a value of the wrong type: {value!r}") from None


def _each(kind):
    """A ``kind`` for _get that takes a JSON list and converts each entry."""
    def convert(values):
        if not isinstance(values, (list, tuple)):
            raise TypeError("not a list")
        return [kind(v) for v in values]
    return convert


def _number(value):
    """A ``kind`` for _get that accepts only a JSON number, as a float."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError("not a number")
    return float(value)


def _integer(value):
    """A ``kind`` for _get that accepts only a JSON number with an integral value."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError("not an integer")
    return value


def _float_array(value):
    """A ``kind`` for _get that accepts a JSON number or nested lists of them, as an array."""
    array = np.asarray(value, dtype=object)  # a ragged list keeps lists as its entries
    for item in array.flat:
        _number(item)
    return array.astype(np.float64)


def _flag(value):
    """A ``kind`` for _get that accepts only JSON true or false."""
    if not isinstance(value, bool):
        raise TypeError("not true or false")
    return value


def load_config(path: str, overrides) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except OSError as e:
        raise ConfigError(f"cannot read config {path}: {e}") from None
    except json.JSONDecodeError as e:
        raise ConfigError(f"config {path} is not valid JSON: {e}") from None
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a JSON object")
    for item in overrides or []:
        key, sep, raw = item.partition("=")
        if not sep:
            raise ConfigError(f"--set needs key=value, got {item!r}")
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        node = cfg
        parts = key.split(".")
        for part in parts[:-1]:
            node = node.setdefault(part, {})
            if not isinstance(node, dict):
                raise ConfigError(f"--set {key}: {part!r} is not an object")
        node[parts[-1]] = value
    return cfg


def build_dataset(cfg: dict):
    """Return (matrix, labels, task) from a dataset config block."""
    kind = _get(cfg, "kind", "synthetic")
    if kind == "synthetic":
        spec = data.SyntheticSpec(
            n=_get(cfg, "n", kind=_integer),
            d=_get(cfg, "d", kind=_integer),
            rank=_get(cfg, "rank", kind=_integer),
            task=_get(cfg, "task", problems.LEAST_SQUARES, kind=str),
            noise_std=_get(cfg, "noise_std", 0.0, kind=_number),
            row_scale_spread=_get(cfg, "row_scale_spread", 1.0, kind=_number),
            seed=_get(cfg, "seed", 0, kind=_integer),
        )
        matrix, y = data.gen_synthetic(spec)
        return matrix, y, spec.task
    if kind == "libsvm":
        task = _get(cfg, "task", None, kind=str)
        matrix, y = data.read_libsvm(
            _get(cfg, "path", kind=str),
            n_cols=_get(cfg, "n_cols", None, kind=_integer),
            task=task,
            remap01=_get(cfg, "remap01", False, kind=_flag),
        )
        return matrix, y, task or problems.LEAST_SQUARES
    if kind == "inline":
        X = _get(cfg, "X", kind=_float_array)
        y = _get(cfg, "y", kind=_float_array)
        return problems.SparseDesignMatrix.from_dense(X), y, _get(
            cfg, "task", problems.LEAST_SQUARES, kind=str)
    raise ConfigError(f"unknown dataset kind {kind!r}; valid: synthetic, libsvm, inline")


def _expand_bound(arr, d):
    return np.full(d, float(arr)) if arr.ndim == 0 else arr


def build_problem(cfg: dict):
    """Assemble a ProblemSpec from the dataset and problem config blocks."""
    matrix, y, task = build_dataset(_get(cfg, "dataset"))
    pcfg = _get(cfg, "problem", {})
    q = _get(pcfg, "q", None)
    constraint = regularizer = None
    ccfg = _get(pcfg, "constraint", None)
    rcfg = _get(pcfg, "regularizer", None)
    if ccfg is not None and rcfg is not None:
        raise ConfigError("problem cannot have both a constraint and a regularizer")
    if ccfg is not None:
        ctype = _get(ccfg, "type")
        if ctype == "l1_ball":
            constraint = problems.L1Ball(tau=_get(ccfg, "tau", kind=_number))
        elif ctype == "box":
            constraint = problems.Box(
                lower=_expand_bound(_get(ccfg, "lower", kind=_float_array), matrix.n_cols),
                upper=_expand_bound(_get(ccfg, "upper", kind=_float_array), matrix.n_cols),
            )
        else:
            raise ConfigError(f"unknown constraint type {ctype!r}; valid: l1_ball, box")
    elif rcfg is not None:
        regularizer = problems.L1Regularizer(lam=_get(rcfg, "lam", kind=_number))
    else:
        raise ConfigError("problem needs a constraint or a regularizer")
    loss = problems.LossSpec(kind=task, labels=y)
    return problems.ProblemSpec(matrix=matrix, loss=loss, q=q,
                                constraint=constraint, regularizer=regularizer)


_ALGORITHMS = ("vrpsg", "prox_svrg", "sgd", "afg", "vrpsg2")
# the keys _resolve_run reads: all that a bench sweep may vary
_RUN_KEYS = ("algorithm", "sampling", "eta", "eta_units", "m", "m_factor", "epochs", "eta0",
             "average_epoch_output")


def _resolve_run(problem, info, cfg: dict, seed: int):
    """Turn a run config into (algorithm, SolverConfig, resolved-eta, m, l_p)."""
    algorithm = _get(cfg, "algorithm")
    if algorithm not in _ALGORITHMS:
        raise ConfigError(
            f"unknown algorithm {algorithm!r}; valid choices: {', '.join(_ALGORITHMS)}")
    mode = _get(cfg, "sampling", sampling.PROPORTIONAL)
    dist = sampling.build_distribution(mode, info, seed=seed)
    l_p = problems.aggregate_lipschitz(info, dist)

    eta = _get(cfg, "eta", 1.0, kind=_number)
    units = _get(cfg, "eta_units", "inv_lp")
    if units == "inv_lp":
        if l_p <= 0:
            raise ConfigError("eta_units=inv_lp needs a positive weighted Lipschitz constant")
        eta_abs = eta / l_p
    elif units == "absolute":
        eta_abs = eta
    else:
        raise ConfigError(f"unknown eta_units {units!r}; valid: inv_lp, absolute")

    m = _get(cfg, "m", None, kind=_integer)
    m_factor = _get(cfg, "m_factor", None, kind=_number)
    if m is None and m_factor is not None:
        m = max(1, int(round(m_factor * problem.n)))
    solver_cfg = solvers.SolverConfig(
        epochs=_get(cfg, "epochs", 10, kind=_integer),
        step_size=eta_abs,
        inner_iterations=m,
        sgd_initial_step=_get(cfg, "eta0", 1.0, kind=_number),
        seed=seed,
        sampling_mode=mode,
        average_epoch_output=_get(cfg, "average_epoch_output", True, kind=_flag),
    )
    return algorithm, solver_cfg, eta_abs, m, l_p


_RUNNERS = {
    "vrpsg": lambda p, c, f, info: solvers.run_vrpsg(p, c, f_star=f, info=info),
    "prox_svrg": lambda p, c, f, info: solvers.run_prox_svrg(p, c, f_star=f, info=info),
    "sgd": lambda p, c, f, info: solvers.run_projected_sgd(p, c, f_star=f),
    "afg": lambda p, c, f, info: solvers.run_afg(p, c, f_star=f),
    "vrpsg2": lambda p, c, f, info: solvers.run_hybrid_vrpsg2(p, c, f_star=f, info=info),
}


def write_trace_csv(path, trace: solvers.RunTrace) -> None:
    """Fixed-column CSV; floats via repr so identical runs match bytewise."""
    cols = ["epoch", "grad_evals", "objective", "gap", "wall_ms"]
    with_probes = trace.probe_evals is not None
    if with_probes:
        cols.append("probe_evals")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(cols) + "\n")
        for i in range(trace.epoch.size):
            row = [
                str(int(trace.epoch[i])),
                str(int(trace.grad_evals[i])),
                repr(float(trace.objective[i])),
                repr(float(trace.gap[i])),
                repr(float(trace.wall_ms[i])),
            ]
            if with_probes:
                row.append(str(int(trace.probe_evals[i])))
            fh.write(",".join(row) + "\n")


def _versions() -> dict:
    return {
        "package": __version__,
        "python": ".".join(str(v) for v in sys.version_info[:3]),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


def _write_json(path, payload) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _reference_compute(cfg: dict) -> bool:
    """The ``reference`` block's ``compute`` switch, the block's only key.

    The reference solve's tolerance and seed are fixed, so a config that
    still sets ``reference_tol`` or another key of the block is refused,
    naming the key, rather than ignored.
    """
    ref_cfg = _get(cfg, "reference", {})
    compute = _get(ref_cfg, "compute", True, kind=_flag)
    fixed = ["reference_tol"] if "reference_tol" in cfg else []
    fixed += [f"reference.{k}" for k in ref_cfg if k != "compute"]
    if fixed:
        raise ConfigError(f"config key {fixed[0]!r} is not accepted: the reference block takes "
                          "only 'compute', and the reference tolerance and seed are fixed")
    return compute


def cmd_solve(cfg: dict, out_dir: str) -> int:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    compute_reference = _reference_compute(cfg)
    problem = build_problem(cfg)
    run_seed = _get(cfg, "seed", 0, kind=_integer)

    info = problems.compute_lipschitz_info(problem)
    algorithm, solver_cfg, eta_abs, m, l_p = _resolve_run(problem, info, cfg, run_seed)
    ref = certificates.reference_run(problem) if compute_reference else None
    f_star = None if ref is None else ref.objective

    trace = _RUNNERS[algorithm](problem, solver_cfg, f_star, info)
    write_trace_csv(out / "trace.csv", trace)
    manifest = {
        "command": "solve",
        "config": cfg,
        "versions": _versions(),
        "algorithm": algorithm,
        "seed": run_seed,
        "rows": int(trace.epoch.size),
        "eta_resolved": eta_abs,
        "m_resolved": m,
        "l_p": l_p,
        "theory_warning": bool(trace.theory_warning),
        "final_objective": float(trace.objective[-1]),
        "reference": None if ref is None else {
            "f_star": ref.objective,
            "tolerance_achieved": ref.gradient_mapping,
        },
    }
    _write_json(out / "manifest.json", manifest)
    gap_note = "" if f_star is None else f", final gap {trace.gap[-1]:.3e}"
    print(f"{algorithm}: {trace.epoch.size} rows, final objective "
          f"{trace.objective[-1]:.12g}{gap_note}")
    print(f"wrote {out / 'trace.csv'} and {out / 'manifest.json'}")
    if trace.theory_warning:
        print("note: step size is at or above 1/(4 L_P); the linear-rate "
              "guarantee does not apply", file=sys.stderr)
    return 0


# (problem, info, f_star) for the cells this process runs; a worker gets it once
_DATASET = []


def _set_dataset(problem, info, f_star):
    _DATASET[:] = [problem, info, f_star]


def _bench_cell(job):
    """Run one (algorithm, sweep value, seed) cell of the current dataset; returns its RunTrace."""
    run_cfg, seed = job
    problem, info, f_star = _DATASET
    algorithm, solver_cfg = _resolve_run(problem, info, run_cfg, seed)[:2]
    return _RUNNERS[algorithm](problem, solver_cfg, f_star, info)


def _blocks(cfg: dict, key: str) -> list:
    value = _get(cfg, key)
    if not value or not isinstance(value, list) or not all(isinstance(b, dict) for b in value):
        raise ConfigError(f"bench needs {key} as a non-empty list of JSON objects")
    return value


def cmd_bench(cfg: dict, out_dir: str, workers: int = 1) -> int:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    datasets, algorithms = _blocks(cfg, "datasets"), _blocks(cfg, "algorithms")
    names = [_get(a, "name", a.get("algorithm"), kind=str) for a in algorithms]
    seeds = _get(cfg, "seeds", [0], kind=_each(_integer))
    sweep = cfg.get("sweep")
    sweep_param, sweep_values = None, [None]
    if sweep is not None:
        sweep_param = _get(sweep, "param", kind=str)
        sweep_values = _get(sweep, "values")
        if not sweep_values or not isinstance(sweep_values, list):
            raise ConfigError("sweep.values must be a non-empty list")
        if sweep_param not in _RUN_KEYS:
            raise ConfigError(f"sweep.param {sweep_param!r} is not a run key; "
                              f"valid: {', '.join(_RUN_KEYS)}")
        for v in sweep_values:
            if isinstance(v, (list, dict)):
                raise ConfigError(f"sweep value {v!r} is not a JSON scalar")
    # each dataset's problem is built once, so a cell may not redefine it
    for key in (k for a in algorithms for k in a):
        if key in ("dataset", "problem"):
            raise ConfigError(f"bench cells cannot set {key!r}; give it per dataset")
    # a cell is named by these, in its trace file and its aggregate row
    ds_names = [_get(ds_cfg, "name") for ds_cfg in datasets]
    for what, values in (("dataset name", ds_names), ("algorithm name", names),
                         ("seed", seeds), ("sweep value", sweep_values)):
        for i, v in enumerate(values):
            if any(v == u or str(v) == str(u) for u in values[:i]):
                raise ConfigError(f"bench repeats the {what} {v!r}; cells would collide")

    base = {k: v for k, v in cfg.items()
            if k not in ("datasets", "algorithms", "seeds", "sweep")}
    compute_reference = _reference_compute(cfg)
    manifest_cells = []
    for ds_name, ds_cfg in zip(ds_names, datasets):
        problem = build_problem({"dataset": _get(ds_cfg, "dataset"),
                                 "problem": _get(ds_cfg, "problem")})
        info = problems.compute_lipschitz_info(problem)
        ref = certificates.reference_run(problem) if compute_reference else None
        f_star = None if ref is None else ref.objective
        jobs = []
        for name, algo_cfg in zip(names, algorithms):
            for sv in sweep_values:
                run_cfg = dict(base, **{k: v for k, v in algo_cfg.items() if k != "name"})
                if sweep_param is not None:
                    run_cfg[sweep_param] = sv
                for seed in seeds:
                    jobs.append((name, sv, seed, (run_cfg, seed)))
        if workers > 1:
            with concurrent.futures.ProcessPoolExecutor(
                    max_workers=workers, initializer=_set_dataset,
                    initargs=(problem, info, f_star)) as pool:
                results = list(pool.map(_bench_cell, [j[3] for j in jobs]))
        else:
            _set_dataset(problem, info, f_star)
            results = [_bench_cell(j[3]) for j in jobs]
            _DATASET.clear()

        # per-cell traces, then per-(algorithm, sweep value) mean gap over seeds
        grouped = {}
        for (name, sv, seed, _), trace in zip(jobs, results):
            tag = f"{name}" if sv is None else f"{name}_{sweep_param}={sv}"
            write_trace_csv(out / f"trace_{ds_name}_{tag}_s{seed}.csv", trace)
            grouped.setdefault((name, sv), []).append(trace)
            manifest_cells.append({"dataset": ds_name, "algorithm": name,
                                   "sweep": sv, "seed": seed,
                                   "theory_warning": bool(trace.theory_warning),
                                   "rows": int(trace.epoch.size)})

        agg_path = out / f"aggregate_{ds_name}.csv"
        with open(agg_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("algorithm,sweep_value,epoch,grad_evals,mean_gap\n")
            for (name, sv), runs in grouped.items():
                n_rows = min(r.epoch.size for r in runs)
                for i in range(n_rows):
                    gaps = [float(r.gap[i]) for r in runs]
                    fh.write(",".join([
                        name,
                        "" if sv is None else json.dumps(sv),
                        str(int(runs[0].epoch[i])),
                        str(int(runs[0].grad_evals[i])),
                        repr(float(np.mean(gaps))),
                    ]) + "\n")
        ref_note = ("no reference solve" if ref is None else
                    f"f* = {f_star:.12g} (gradient mapping {ref.gradient_mapping:.1e})")
        print(f"{ds_name}: {ref_note}, wrote {agg_path}")

    manifest = {
        "command": "bench",
        "config": cfg,
        "versions": _versions(),
        "algorithm": ",".join(names),
        "rows": len(manifest_cells),
        "cells": manifest_cells,
    }
    _write_json(out / "manifest.json", manifest)
    return 0


def cmd_certify(cfg: dict, out_dir: str) -> int:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    if not _reference_compute(cfg):
        raise ConfigError("certify needs the reference solve; reference.compute cannot be false")
    problem = build_problem(cfg)
    c = problem.constraint
    if isinstance(c, problems.L1Ball):
        C, b = certificates.l1_ball_rows(problem.d, c.tau)
    elif isinstance(c, problems.Box):
        C, b = certificates.box_rows(c.lower, c.upper)
    else:
        raise ConfigError("certify needs a constrained problem (l1_ball or box)")

    report = certificates.build_certificate(
        problem, C, b,
        sampling_mode=_get(cfg, "sampling", sampling.PROPORTIONAL),
        eta_fractions=_get(cfg, "eta_fractions", (0.02, 0.05, 0.1, 0.2), kind=_each(_number)),
        m_values=_get(cfg, "m_values", (10, 100, 1000, 10 ** 4, 10 ** 5, 10 ** 6, 10 ** 7),
                      kind=_each(_integer)),
        probe=_get(cfg, "probe", False, kind=_flag),
        probes=_get(cfg, "probes", 200, kind=_integer),
        seed=_get(cfg, "seed", 0, kind=_integer),
    )
    payload = report.to_dict()
    payload["versions"] = _versions()
    _write_json(out / "certificate.json", payload)
    print(f"theta <= {report.theta_bound:.6g}, mu = {report.mu:.6g}, "
          f"M <= {report.gap_bound:.6g}, beta >= {report.beta:.6g}")
    print(f"best grid point: eta = {report.eta:.6g}, m = {report.m}, rho = {report.rho:.6g} "
          f"({'contractive' if report.contractive else 'NOT contractive'})")
    if report.beta_empirical is not None:
        print(f"empirical ratio probe: beta_emp = {report.beta_empirical:.6g}")
    print(f"wrote {out / 'certificate.json'}")
    return 0 if report.contractive else 3


def main(argv=None) -> int:
    parser = _Parser(
        prog="vrgrad",
        description="Variance-reduced stochastic solvers with rate certificates.")
    sub = parser.add_subparsers(dest="command", required=True)

    for command, text in (("solve", "run one solver, write trace.csv + manifest.json"),
                          ("bench", "grids of (dataset, algorithm, seed) runs"),
                          ("certify", "compute the linear-rate certificate")):
        p = sub.add_parser(command, help=text)
        p.add_argument("--config", required=True)
        p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE")
        p.add_argument("--out", default=".")
        if command == "bench":
            p.add_argument("--workers", type=int, default=1)

    try:
        args = parser.parse_args(argv)
        cfg = load_config(args.config, args.set)
        if args.command == "solve":
            return cmd_solve(cfg, args.out)
        if args.command == "bench":
            return cmd_bench(cfg, args.out, workers=args.workers)
        return cmd_certify(cfg, args.out)
    except (solvers.DivergenceError, solvers.LineSearchError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (ConfigError, ValueError, OSError, certificates.CertificateError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
