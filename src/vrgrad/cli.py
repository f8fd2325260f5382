"""Command-line front end: solve, bench, certify.

Configs are JSON files with optional ``--set key=value`` overrides (dots
descend into nested objects; values are parsed as JSON when possible).
Each config block is one table of its keys; a key in no table is refused.
Outputs are deterministic byte-for-byte given the same config and seed,
except for wall-clock columns and for what synthetic data, the reference
polish and the certificate's SVDs take from BLAS and LAPACK (README).

Exit codes: 0 done, 1 config or validation error, 2 solver divergence or a
stalled line search, 3 certificate found no contractive rate.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__, certificates, data, problems, sampling, solvers

_REQUIRED = object()


class ConfigError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse whose usage errors are ConfigErrors, so they exit 1, not 2."""

    def error(self, message):
        raise ConfigError(f"{message}\n{self.format_usage().rstrip()}")


# Kinds: each converts one JSON value of a config key, or refuses it with a
# TypeError (the wrong JSON type) or a ValueError (a value out of range).
def _each(kind):
    """A kind for a non-empty JSON list, each entry converted by ``kind`` (None: as it is)."""
    def convert(values):
        if not isinstance(values, (list, tuple)):
            raise TypeError("not a list")
        if not values:
            raise ValueError("the list is empty")
        return [v if kind is None else kind(v) for v in values]
    return convert


def _number(value):
    """A kind that accepts only a finite JSON number, as a float."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError("not a number")
    if not math.isfinite(value):
        raise ValueError("not a finite number")
    return float(value)


def _integer(value):
    """A kind that accepts only a JSON number with an integral value."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError("not an integer")
    return value


def _float_array(value):
    """A kind that accepts a JSON number or nested lists of them, as an array."""
    array = np.asarray(value, dtype=object)  # a ragged list keeps lists as its entries
    for item in array.flat:
        _number(item)
    return array.astype(np.float64)


def _only(cls):
    """A kind that accepts only the JSON values that json reads as ``cls``."""
    def check(value):
        if not isinstance(value, cls):
            raise TypeError(f"not a {cls.__name__}")
        return value
    return check


_flag, _text, _object = _only(bool), _only(str), _only(dict)


def _read(block, table, path: str, name: str = "") -> dict:
    """The block's value for each key of ``table``, checked and converted.

    ``table`` maps key -> (kind, default), or is a variant (key, default, tables)
    whose ``key`` picks the table of the other keys.  A key with the default
    _REQUIRED must be set, null passes where the default is null, and a key
    that the table does not declare is refused."""
    if not isinstance(block, dict):
        raise ConfigError(f"config block {path or name!r} must be a JSON object, got {block!r}")
    prefix = f"{path}." if path else ""
    if isinstance(table, tuple):
        key, default, tables = table
        choice = block.get(key, default)
        if choice is not _REQUIRED and (not isinstance(choice, str) or choice not in tables):
            raise ConfigError(f"unknown {prefix + key} {choice!r}; valid: {', '.join(tables)}")
        table = {key: (None, default), **tables.get(choice, {})}
    values = {}
    for key, (kind, default) in table.items():
        if key not in block and default is _REQUIRED:
            raise ConfigError(f"config is missing required key {prefix + key!r}")
        value = block.get(key, default)
        unset = value is None and default is None
        values[key] = value if unset else _convert(kind, value, prefix + key)
    for key in block:
        if key not in table:
            raise ConfigError(f"config key {prefix + key!r} is not accepted; "
                              f"{name or path} takes: {', '.join(table)}")
    return values


def _convert(kind, value, key: str):
    """``value`` of the config ``key`` (a dotted path), converted by ``kind``:
    a kind above, None (the value as it is), or the table of a nested block."""
    if kind is None:
        return value
    if isinstance(kind, (dict, tuple)):
        return _read(value, kind, key)
    try:
        return kind(value)
    except TypeError:
        raise ConfigError(f"config key {key!r} has a value of the wrong type: {value!r}") from None
    except (ValueError, OverflowError) as e:
        raise ConfigError(f"config key {key!r} has an invalid value {value!r}: {e}") from None


# One table per config block: key -> (kind, default).  A key that means the
# same in several blocks is declared once, in a fragment they share.
_SEED = {"seed": (_integer, 0)}
_SAMPLING = {"sampling": (None, sampling.PROPORTIONAL)}
_TASK = {"task": (_text, problems.LEAST_SQUARES)}
_REFERENCE = {"reference": ({"compute": (_flag, True)}, {})}
_DATASET_KINDS = ("kind", "synthetic", {  # a variant: "kind" picks the other keys
    "synthetic": {"n": (_integer, _REQUIRED), "d": (_integer, _REQUIRED),
                  "rank": (_integer, _REQUIRED), **_TASK, "noise_std": (_number, 0.0),
                  "row_scale_spread": (_number, 1.0), **_SEED},
    "libsvm": {"path": (_text, _REQUIRED), "n_cols": (_integer, None), **_TASK,
               "remap01": (_flag, False)},
    "inline": {"X": (_float_array, _REQUIRED), "y": (_float_array, _REQUIRED), **_TASK},
})
_PROBLEM = {
    "q": (_float_array, None),
    "constraint": (("type", _REQUIRED, {
        "l1_ball": {"tau": (_number, _REQUIRED)},
        "box": {"lower": (_float_array, _REQUIRED), "upper": (_float_array, _REQUIRED)},
    }), None),
    "regularizer": ({"lam": (_number, _REQUIRED)}, None),
}
_INPUTS = {"dataset": (None, _REQUIRED), "problem": (_PROBLEM, _REQUIRED)}  # see build_dataset
# the keys of one solver run: all that a bench sweep may vary
_RUN = {
    "algorithm": (_text, _REQUIRED), **_SAMPLING, "eta": (_number, 1.0),
    "eta_units": (None, "inv_lp"), "m": (_integer, None), "m_factor": (_number, None),
    "epochs": (_integer, 10), "eta0": (_number, 1.0), "average_epoch_output": (_flag, True),
}
_SOLVE = {**_INPUTS, **_REFERENCE, **_SEED, **_RUN}
_CERTIFY = {  # no reference block: certify always runs the reference solve
    **_INPUTS, **_SEED, **_SAMPLING, "probe": (_flag, False),
    "probes": (_integer, certificates.PROBES),
    "eta_fractions": (_each(_number), certificates.ETA_FRACTIONS),
    "m_values": (_each(_integer), certificates.M_VALUES),
}
# a bench dataset entry, and an algorithm cell: a run that takes the keys it does not set,
# all but the algorithm, from the top level of the bench config
_ENTRY = {"name": (None, _REQUIRED), **_INPUTS}
_CELL = {"name": (_text, None), **_RUN}
_BENCH = {
    "datasets": (_each(_object), _REQUIRED), "algorithms": (_each(_object), _REQUIRED),
    "seeds": (_each(_integer), [0]),
    "sweep": ({"param": (_text, _REQUIRED), "values": (_each(None), _REQUIRED)}, None),
    **_REFERENCE, **{k: v for k, v in _RUN.items() if k != "algorithm"},
}


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
    """Return (matrix, labels, task) from a dataset config block, read here, where it
    is built, and not with the blocks around it, so that an inline X is converted once."""
    c = _read(cfg, _DATASET_KINDS, "dataset")
    args = {k: v for k, v in c.items() if k != "kind"}
    if c["kind"] == "synthetic":
        matrix, y = data.gen_synthetic(data.SyntheticSpec(**args))
    elif c["kind"] == "libsvm":
        matrix, y = data.read_libsvm(**args)
    else:
        matrix, y = problems.SparseDesignMatrix.from_dense(c["X"]), c["y"]
    return matrix, y, c["task"]


def build_problem(cfg: dict):
    """Assemble a ProblemSpec from the dataset and problem config blocks.

    Only those two keys of cfg are read, so a whole solve or certify
    config, or a bench dataset entry, may be passed as it is.
    """
    inputs = _read({k: cfg[k] for k in _INPUTS if k in cfg}, _INPUTS, "")
    matrix, y, task = build_dataset(inputs["dataset"])
    p = inputs["problem"]
    c, r = p["constraint"], p["regularizer"]
    if (c is None) == (r is None):
        raise ConfigError("problem needs a constraint or a regularizer, not both")
    constraint = regularizer = None
    if c is not None and c["type"] == "l1_ball":
        constraint = problems.L1Ball(tau=c["tau"])
    elif c is not None:  # a box bound given as one number holds for every coordinate
        lower, upper = (np.full(matrix.n_cols, float(a)) if a.ndim == 0 else a
                        for a in (c["lower"], c["upper"]))
        constraint = problems.Box(lower=lower, upper=upper)
    else:
        regularizer = problems.L1Regularizer(lam=r["lam"])
    loss = problems.LossSpec(kind=task, labels=y)
    return problems.ProblemSpec(matrix=matrix, loss=loss, q=p["q"],
                                constraint=constraint, regularizer=regularizer)


def _resolve_run(problem, info, run: dict, seed: int):
    """Turn the values of a run block into (algorithm, SolverConfig, resolved-eta, m, l_p)."""
    algorithm, mode = run["algorithm"], run["sampling"]
    if algorithm not in _RUNNERS:
        raise ConfigError(
            f"unknown algorithm {algorithm!r}; valid choices: {', '.join(_RUNNERS)}")
    dist = sampling.build_distribution(mode, info, seed=seed)
    l_p = problems.aggregate_lipschitz(info, dist)

    units = run["eta_units"]
    if units == "inv_lp":
        if l_p <= 0:
            raise ConfigError("eta_units=inv_lp needs a positive weighted Lipschitz constant")
        eta_abs = run["eta"] / l_p
    elif units == "absolute":
        eta_abs = run["eta"]
    else:
        raise ConfigError(f"unknown eta_units {units!r}; valid: inv_lp, absolute")

    m, m_factor = run["m"], run["m_factor"]
    if m_factor is not None and (m is not None or not 0 < m_factor * problem.n < math.inf):
        raise ConfigError("a run sets m or m_factor, not both" if m is not None else
                          f"m_factor must be positive, with m_factor n finite; got {m_factor!r}")
    if m_factor is not None:
        m = max(1, int(round(m_factor * problem.n)))
    solver_cfg = solvers.SolverConfig(
        epochs=run["epochs"], step_size=eta_abs, inner_iterations=m,
        sgd_initial_step=run["eta0"], seed=seed, sampling_mode=mode,
        average_epoch_output=run["average_epoch_output"])
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
    import scipy  # only for its version: nothing on the command paths needs scipy

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


def cmd_solve(cfg: dict, out_dir: str) -> int:
    run = _read(cfg, _SOLVE, "", "solve")  # the run keys and the rest of the top level
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    problem = build_problem(cfg)
    info = problems.compute_lipschitz_info(problem)
    algorithm, solver_cfg, eta_abs, m, l_p = _resolve_run(problem, info, run, run["seed"])
    ref = certificates.reference_run(problem) if run["reference"]["compute"] else None
    f_star = None if ref is None else ref.objective

    trace = _RUNNERS[algorithm](problem, solver_cfg, f_star, info)
    write_trace_csv(out / "trace.csv", trace)
    manifest = {
        "command": "solve",
        "config": cfg,
        "versions": _versions(),
        "algorithm": algorithm,
        "seed": run["seed"],
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
    run, seed = job
    problem, info, f_star = _DATASET
    algorithm, solver_cfg = _resolve_run(problem, info, run, seed)[:2]
    return _RUNNERS[algorithm](problem, solver_cfg, f_star, info)


def cmd_bench(cfg: dict, out_dir: str, workers: int = 1) -> int:
    if workers < 1:
        raise ConfigError(f"bench needs at least one worker process, got --workers {workers}")
    top = _read(cfg, _BENCH, "", "bench")
    param, points = None, [(None, {})]  # (sweep value, the run keys it sets)
    if top["sweep"] is not None:
        param, values = top["sweep"]["param"], top["sweep"]["values"]
        if param not in _RUN:
            raise ConfigError(f"sweep.param {param!r} is not a run key; valid: {', '.join(_RUN)}")
        for v in values:
            if isinstance(v, (list, dict)):
                raise ConfigError(f"sweep value {v!r} is not a JSON scalar")
        points = [(v, {param: _convert(_RUN[param][0], v, "sweep.values")}) for v in values]
    base = {k: cfg[k] for k in _RUN if k in cfg}
    cells = [_read({**base, **a}, _CELL, f"algorithms[{i}]")
             for i, a in enumerate(top["algorithms"])]
    names = [c["algorithm"] if c["name"] is None else c["name"] for c in cells]
    # a cell is named by these, in its trace file and its aggregate row
    ds_names = [entry.get("name") for entry in top["datasets"]]
    for what, values in (("dataset name", ds_names), ("algorithm name", names),
                         ("seed", top["seeds"]), ("sweep value", [sv for sv, _ in points])):
        for i, v in enumerate(values):
            if any(v == u or str(v) == str(u) for u in values[:i]):
                raise ConfigError(f"bench repeats the {what} {v!r}; cells would collide")
    for i, entry in enumerate(top["datasets"]):
        _read(_read(entry, _ENTRY, f"datasets[{i}]")["dataset"], _DATASET_KINDS,
              f"datasets[{i}].dataset")

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    manifest_cells = []
    for ds_name, entry in zip(ds_names, top["datasets"]):
        problem = build_problem(entry)
        info = problems.compute_lipschitz_info(problem)
        ref = certificates.reference_run(problem) if top["reference"]["compute"] else None
        f_star = None if ref is None else ref.objective
        jobs = [(name, sv, seed, ({**cell, **swept}, seed)) for name, cell in zip(names, cells)
                for sv, swept in points for seed in top["seeds"]]
        if workers > 1:
            import concurrent.futures  # it loads logging: only this branch needs it
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
            tag = f"{name}" if sv is None else f"{name}_{param}={sv}"
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
    top = _read(cfg, _CERTIFY, "", "certify")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    problem = build_problem(cfg)
    if problem.constraint is None:
        raise ConfigError("certify needs a constrained problem (l1_ball or box)")
    C, b = problem.constraint.rows(problem.d)

    report = certificates.build_certificate(
        problem, C, b, sampling_mode=top["sampling"], eta_fractions=top["eta_fractions"],
        m_values=top["m_values"], probe=top["probe"], probes=top["probes"], seed=top["seed"])
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
