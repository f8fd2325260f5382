"""End-to-end command tests: artifacts, exit codes, overrides, determinism."""

import csv
import io
import json
import pickle
import re
import warnings
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

from vrgrad import certificates
from vrgrad.cli import main
from vrgrad.problems import ProblemSpec


BASE_SOLVE = {
    "dataset": {"kind": "synthetic", "n": 40, "d": 10, "rank": 5,
                "task": "least_squares", "noise_std": 0.2,
                "row_scale_spread": 2.0, "seed": 3},
    "problem": {"constraint": {"type": "l1_ball", "tau": 4.0}},
    "algorithm": "vrpsg",
    "epochs": 4,
    "eta": 0.1,
    "eta_units": "inv_lp",
    "m": 30,
    "sampling": "proportional",
    "seed": 0,
}

CONTRACTIVE_CERTIFY = {
    "dataset": {"kind": "inline",
                "X": [[1, 0], [0, 1], [2, 0], [0, 2], [1, 0], [0, 1]],
                "y": [0.3, -0.2, 0.6, -0.4, 0.3, -0.2],
                "task": "least_squares"},
    "problem": {"constraint": {"type": "box", "lower": -1.0, "upper": 1.0}},
}


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def read_rows(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


def test_solve_writes_trace_and_manifest(tmp_path):
    cfg = write_config(tmp_path, BASE_SOLVE)
    out = tmp_path / "run"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
    rows = read_rows(out / "trace.csv")
    assert len(rows) == 4
    assert list(rows[0]) == ["epoch", "grad_evals", "objective", "gap", "wall_ms"]
    assert int(rows[-1]["grad_evals"]) == 4 * (40 + 2 * 30)
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["algorithm"] == "vrpsg"
    assert manifest["reference"]["tolerance_achieved"] <= 1e-12
    assert manifest["rows"] == 4
    assert float(rows[-1]["gap"]) == pytest.approx(
        float(rows[-1]["objective"]) - manifest["reference"]["f_star"], abs=1e-12)


def test_solve_repeated_seed_is_byte_identical_outside_wall_ms(tmp_path):
    cfg = write_config(tmp_path, BASE_SOLVE)
    outs = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        assert main(["solve", "--config", cfg, "--set", "seed=7",
                     "--out", str(out)]) == 0
        outs.append(read_rows(out / "trace.csv"))
    for ra, rb in zip(*outs):
        for col in ra:
            if col != "wall_ms":
                assert ra[col] == rb[col]


def test_solve_set_overrides(tmp_path):
    cfg = write_config(tmp_path, BASE_SOLVE)
    out = tmp_path / "run"
    assert main(["solve", "--config", cfg, "--out", str(out),
                 "--set", "epochs=2",
                 "--set", "sampling=\"uniform\"",
                 "--set", "reference.compute=false"]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["rows"] == 2
    assert manifest["config"]["sampling"] == "uniform"
    assert manifest["reference"] is None
    rows = read_rows(out / "trace.csv")
    assert rows[0]["gap"] == "nan"


def test_solve_config_errors_exit_one(tmp_path, capsys):
    missing = dict(BASE_SOLVE)
    del missing["algorithm"]
    assert main(["solve", "--config", write_config(tmp_path, missing),
                 "--out", str(tmp_path / "o1")]) == 1
    assert "algorithm" in capsys.readouterr().err

    unknown = dict(BASE_SOLVE, algorithm="adam")
    assert main(["solve", "--config", write_config(tmp_path, unknown, "u.json"),
                 "--out", str(tmp_path / "o2")]) == 1
    assert "adam" in capsys.readouterr().err

    bad_set = write_config(tmp_path, BASE_SOLVE, "s.json")
    assert main(["solve", "--config", bad_set, "--out", str(tmp_path / "o3"),
                 "--set", "epochs"]) == 1
    assert main(["solve", "--config", str(tmp_path / "nope.json"),
                 "--out", str(tmp_path / "o4")]) == 1


def test_solve_divergence_exits_two(tmp_path, capsys):
    # reference solve disabled: a random feasible start in the huge box
    # would make the reference step absurdly expensive, and the exit code
    # only depends on the solver run
    cfg = dict(BASE_SOLVE, eta=1e7, eta_units="absolute",
               reference={"compute": False})
    cfg["problem"] = {"constraint": {"type": "box", "lower": -1e12, "upper": 1e12}}
    assert main(["solve", "--config", write_config(tmp_path, cfg),
                 "--out", str(tmp_path / "o")]) == 2
    assert "diverged" in capsys.readouterr().err


README_SOLVE = {
    "dataset": {"kind": "synthetic", "n": 400, "d": 80, "rank": 30,
                "noise_std": 0.25, "row_scale_spread": 3.0, "seed": 7},
    "problem": {"constraint": {"type": "l1_ball", "tau": 10.0}},
    "algorithm": "vrpsg", "epochs": 20, "eta": 0.2, "eta_units": "inv_lp",
    "m": 200, "sampling": "proportional", "seed": 0,
}


def solve_with_step(tmp_path, eta):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)  # numpy's overflow notes included
        return main(["solve", "--config", write_config(tmp_path, README_SOLVE),
                     "--set", f"eta={eta}", "--set", "eta_units=absolute",
                     "--set", 'reference={"compute": false}',
                     "--out", str(tmp_path / "o")])


def test_solve_huge_step_on_l1_ball_runs_to_the_end(tmp_path, capsys):
    # This once died with an IndexError from the l1-ball projection.  The
    # inner points stay finite at eta = 1e300 and project onto vertices of
    # the ball, so the objective stays bounded: nothing diverges.
    assert solve_with_step(tmp_path, 1e300) == 0
    err = capsys.readouterr().err
    assert "Traceback" not in err and "1/(4 L_P)" in err
    rows = read_rows(tmp_path / "o" / "trace.csv")
    assert len(rows) == 20
    assert all(np.isfinite(float(r["objective"])) for r in rows)


def test_solve_overflowing_step_on_l1_ball_exits_two(tmp_path, capsys):
    assert solve_with_step(tmp_path, 1e308) == 2
    err = capsys.readouterr().err
    assert "diverged at epoch 1" in err and "Traceback" not in err


@pytest.mark.parametrize("mode", ["proportional", "uniform"])
def test_solve_overflowing_row_norm_exits_one_naming_the_row(tmp_path, capsys, mode):
    (tmp_path / "a.svm").write_text("1 1:1.34e154\n-1 2:1e200\n1 1:0.5\n")
    cfg = dict(README_SOLVE, dataset={"kind": "libsvm", "path": str(tmp_path / "a.svm")},
               sampling=mode, reference={"compute": False})
    assert main(["solve", "--config", write_config(tmp_path, cfg),
                 "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err == ("error: row 1: squared norm overflows a double (an entry above about "
                   "1.34e154), so its Lipschitz constant is infinite\n")


@pytest.mark.parametrize("mode", ["proportional", "uniform"])
def test_solve_overflowing_sum_of_row_norms_exits_one(tmp_path, capsys, mode):
    # each squared norm is finite, their sum is not
    (tmp_path / "a.svm").write_text("1 1:1.3e154\n-1 2:1.3e154\n1 1:0.5\n")
    cfg = dict(README_SOLVE, dataset={"kind": "libsvm", "path": str(tmp_path / "a.svm")},
               sampling=mode)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["solve", "--config", write_config(tmp_path, cfg),
                     "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err == (
        "error: the sum of the components' Lipschitz constants overflows a double\n")


def test_certify_contractive_exits_zero(tmp_path):
    cfg = write_config(tmp_path, CONTRACTIVE_CERTIFY)
    out = tmp_path / "cert"
    assert main(["certify", "--config", cfg, "--out", str(out)]) == 0
    payload = json.loads((out / "certificate.json").read_text())
    assert payload["contractive"] is True
    assert payload["rho"] < 1.0
    assert payload["theta_bound"] == pytest.approx(1.0, rel=1e-9)
    assert payload["versions"]["package"]


def test_certify_non_contractive_exits_three(tmp_path):
    cfg = {
        "dataset": {"kind": "synthetic", "n": 14, "d": 3, "rank": 3,
                    "task": "least_squares", "noise_std": 0.1,
                    "row_scale_spread": 2.0, "seed": 3},
        "problem": {"constraint": {"type": "l1_ball", "tau": 2.0}},
    }
    out = tmp_path / "cert"
    assert main(["certify", "--config", write_config(tmp_path, cfg),
                 "--out", str(out)]) == 3
    payload = json.loads((out / "certificate.json").read_text())
    assert payload["contractive"] is False


def test_certify_l1_ball_with_probe_writes_beta_empirical(tmp_path, capsys):
    # the probe projects onto a face of the ball, exactly, through the CLI
    cfg = write_config(tmp_path, {**NON_CONTRACTIVE_CERTIFY, "probe": True})
    out = tmp_path / "cert"
    assert main(["certify", "--config", cfg, "--out", str(out)]) == 3
    payload = json.loads((out / "certificate.json").read_text())
    assert payload["beta_empirical"] > 0.0
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("problem, message", [
    ({"constraint": {"type": "l1_ball", "tau": 1.0}}, "capped at d = 4"),
    ({"constraint": {"type": "box", "lower": -1.0, "upper": 1.0}},
     "enumeration capped at 24"),
])
def test_certify_over_enumeration_budget_exits_one(tmp_path, capsys, problem, message):
    # d = 5: the l1 ball needs 2^5 explicit rows; the box gives
    # [C', X'] 10 + 21 = 31 columns
    rng = np.random.Generator(np.random.Philox(5))
    X = rng.standard_normal((21, 5))
    cfg = {"dataset": {"kind": "inline", "X": X.tolist(), "y": (X @ np.ones(5)).tolist(),
                       "task": "least_squares"},
           "problem": problem}
    assert main(["certify", "--config", write_config(tmp_path, cfg),
                 "--out", str(tmp_path / "c")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert "Traceback" not in err


def test_certify_rejects_regularized_config(tmp_path, capsys):
    cfg = dict(CONTRACTIVE_CERTIFY)
    cfg["problem"] = {"regularizer": {"lam": 0.1}}
    assert main(["certify", "--config", write_config(tmp_path, cfg),
                 "--out", str(tmp_path / "c")]) == 1
    assert "constrained" in capsys.readouterr().err


def test_bench_grid_artifacts(tmp_path):
    cfg = {
        "datasets": [{
            "name": "tiny",
            "dataset": BASE_SOLVE["dataset"],
            "problem": BASE_SOLVE["problem"],
        }],
        "algorithms": [
            {"name": "vr", "algorithm": "vrpsg", "eta": 0.1, "m": 20},
            {"name": "sgd", "algorithm": "sgd", "eta0": 0.5},
        ],
        "seeds": [0, 1],
        "epochs": 3,
    }
    out = tmp_path / "bench"
    assert main(["bench", "--config", write_config(tmp_path, cfg),
                 "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["rows"] == 4  # 2 algorithms x 2 seeds
    for name, seed in (("vr", 0), ("vr", 1), ("sgd", 0), ("sgd", 1)):
        assert (out / f"trace_tiny_{name}_s{seed}.csv").exists()
    agg = read_rows(out / "aggregate_tiny.csv")
    assert list(agg[0]) == ["algorithm", "sweep_value", "epoch",
                            "grad_evals", "mean_gap"]
    assert {r["algorithm"] for r in agg} == {"vr", "sgd"}
    # mean over two seeds at matching budgets
    vr_rows = [r for r in agg if r["algorithm"] == "vr"]
    assert len(vr_rows) == 3


def test_bench_sweep_tags_cells(tmp_path):
    cfg = {
        "datasets": [{
            "name": "tiny",
            "dataset": BASE_SOLVE["dataset"],
            "problem": BASE_SOLVE["problem"],
        }],
        "algorithms": [{"name": "vr", "algorithm": "vrpsg", "m": 20}],
        "seeds": [0],
        "epochs": 2,
        "sweep": {"param": "eta", "values": [0.05, 0.1]},
    }
    out = tmp_path / "bench"
    assert main(["bench", "--config", write_config(tmp_path, cfg),
                 "--out", str(out)]) == 0
    assert (out / "trace_tiny_vr_eta=0.05_s0.csv").exists()
    assert (out / "trace_tiny_vr_eta=0.1_s0.csv").exists()


def bench_config(algorithms, **extra):
    return dict({
        "datasets": [{
            "name": "tiny",
            "dataset": BASE_SOLVE["dataset"],
            "problem": BASE_SOLVE["problem"],
        }],
        "algorithms": algorithms,
        "seeds": [0],
        "epochs": 3,
    }, **extra)


def rows_without_wall_ms(path):
    rows = read_rows(path)
    for row in rows:
        del row["wall_ms"]
    return rows


def test_bench_cells_are_written_like_solve_traces(tmp_path):
    # one trace writer: each cell equals the solve trace of the same run,
    # and the afg cell keeps its probe_evals column
    algorithms = [{"name": "vr", "algorithm": "vrpsg", "eta": 0.1, "m": 20},
                  {"name": "afg", "algorithm": "afg"}]
    out = tmp_path / "bench"
    assert main(["bench", "--config", write_config(tmp_path, bench_config(algorithms)),
                 "--out", str(out)]) == 0
    for algo in algorithms:
        name = algo["name"]
        run = {"dataset": BASE_SOLVE["dataset"], "problem": BASE_SOLVE["problem"],
               "epochs": 3, "seed": 0}
        run.update({k: v for k, v in algo.items() if k != "name"})
        assert main(["solve", "--config", write_config(tmp_path, run, f"{name}.json"),
                     "--out", str(tmp_path / name)]) == 0
        cell = rows_without_wall_ms(out / f"trace_tiny_{name}_s0.csv")
        assert cell == rows_without_wall_ms(tmp_path / name / "trace.csv")
    assert "probe_evals" in read_rows(out / "trace_tiny_afg_s0.csv")[0]


def test_bench_honours_reference_compute(tmp_path, monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("bench ran a reference solve it was told to skip")

    monkeypatch.setattr(certificates, "reference_run", refuse)
    monkeypatch.setattr(certificates, "reference_solution", refuse)
    cfg = bench_config([{"name": "vr", "algorithm": "vrpsg", "eta": 0.1, "m": 20}],
                       reference={"compute": False})
    out = tmp_path / "bench"
    assert main(["bench", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 0
    assert "no reference solve" in capsys.readouterr().out
    assert [r["gap"] for r in read_rows(out / "trace_tiny_vr_s0.csv")] == ["nan"] * 3
    assert [r["mean_gap"] for r in read_rows(out / "aggregate_tiny.csv")] == ["nan"] * 3


@pytest.mark.parametrize("command, starts", [("solve", 1), ("bench", 1), ("certify", 3)])
def test_reference_runs_per_command(tmp_path, monkeypatch, command, starts):
    # solve and bench read only f*, from one run from zero; certify needs
    # three starts to check that X w* is unique.  The bench's afg cell runs
    # through solvers.run_afg and is not counted.
    original, w0s = certificates.reference_run, []

    def counted(problem, w0=None):
        w0s.append(w0)
        return original(problem, w0)

    monkeypatch.setattr(certificates, "reference_run", counted)
    cfg = {"solve": BASE_SOLVE, "certify": CONTRACTIVE_CERTIFY,
           "bench": bench_config([{"name": "vr", "algorithm": "vrpsg", "eta": 0.1, "m": 20},
                                  {"name": "afg", "algorithm": "afg"}])}[command]
    assert main([command, "--config", write_config(tmp_path, cfg),
                 "--out", str(tmp_path / "out")]) == 0
    assert len(w0s) == starts
    assert w0s[0] is None or not np.any(w0s[0])


def test_bench_builds_each_dataset_once(tmp_path, monkeypatch):
    from vrgrad import cli, problems

    calls = {"build_problem": 0, "compute_lipschitz_info": 0}
    for module, name in ((cli, "build_problem"), (problems, "compute_lipschitz_info")):
        original = getattr(module, name)

        def counted(*args, _original=original, _name=name, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    algorithms = [{"name": "vr", "algorithm": "vrpsg", "eta": 0.1, "m": 20},
                  {"name": "v2", "algorithm": "vrpsg2", "eta": 0.1, "m": 20},
                  {"name": "sgd", "algorithm": "sgd", "eta0": 0.5}]
    cfg = bench_config(algorithms, seeds=[0, 1], reference={"compute": False})
    assert main(["bench", "--config", write_config(tmp_path, cfg),
                 "--out", str(tmp_path / "bench")]) == 0
    assert calls == {"build_problem": 1, "compute_lipschitz_info": 1}


@pytest.mark.parametrize("override, named", [
    ('datasets=[{"name": "a"}, {"name": "a"}]', "dataset name 'a'"),
    ('algorithms=[{"algorithm": "vrpsg", "eta": 0.05}, {"algorithm": "vrpsg", "eta": 0.5}]',
     "algorithm name 'vrpsg'"),
    ("seeds=[0, 1, 0]", "seed 0"),
    ('sweep={"param": "eta", "values": [0.1, 0.2, 0.1]}', "sweep value 0.1"),
    ('sweep={"param": "eta", "values": [1, 1.0]}', "sweep value 1.0"),
])
def test_bench_refuses_repeated_cell_names(tmp_path, monkeypatch, capsys, override, named):
    # two cells with one name would share a trace file and an aggregate row
    from vrgrad import cli

    def refuse(*args, **kwargs):
        raise AssertionError("bench built a problem before checking its cell names")

    monkeypatch.setattr(cli, "build_problem", refuse)
    cfg = bench_config([{"name": "vr", "algorithm": "vrpsg", "eta": 0.1, "m": 20}])
    assert main(["bench", "--config", write_config(tmp_path, cfg), "--set", override,
                 "--out", str(tmp_path / "bench")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: bench repeats the ") and named in err
    assert not (tmp_path / "bench").exists() or not any((tmp_path / "bench").iterdir())


@pytest.mark.parametrize("sweep, named", [
    ({"param": "foo", "values": [1, 2]}, "sweep.param 'foo' is not a run key"),
    ({"param": "m", "values": [[1], [2]]}, "sweep value [1] is not a JSON scalar"),
])
def test_bench_checks_its_sweep_before_building_a_problem(tmp_path, monkeypatch, capsys,
                                                          sweep, named):
    from vrgrad import cli

    def refuse(*args, **kwargs):
        raise AssertionError("bench built a problem before checking its sweep")

    monkeypatch.setattr(cli, "build_problem", refuse)
    cfg = bench_config([{"name": "vr", "algorithm": "vrpsg", "eta": 0.1, "m": 20}], sweep=sweep)
    assert main(["bench", "--config", write_config(tmp_path, cfg),
                 "--out", str(tmp_path / "bench")]) == 1
    assert capsys.readouterr().err.startswith(f"error: {named}")


class Built(Exception):
    """Raised after the first problem build: every config check up to it passed."""


def stop_after_the_first_build(monkeypatch):
    """Make cli.build_problem build, record the problem and stop the command."""
    from vrgrad import cli

    original, built = cli.build_problem, []

    def build_then_stop(cfg):
        built.append(original(cfg))
        raise Built

    monkeypatch.setattr(cli, "build_problem", build_then_stop)
    return built


# a value of each run key that a run accepts
RUN_VALUES = {"algorithm": "sgd", "sampling": "uniform", "eta": 0.05, "eta_units": "absolute",
              "m": 5, "m_factor": 0.5, "epochs": 2, "eta0": 0.5, "average_epoch_output": False}


def test_a_sweep_may_vary_exactly_the_run_keys(tmp_path, monkeypatch, capsys):
    # every key of the run table passes the sweep checks; a key outside it does not
    from vrgrad import cli

    assert list(RUN_VALUES) == list(cli._RUN)
    stop_after_the_first_build(monkeypatch)
    for param in list(RUN_VALUES) + ["seed", "name", "reference", "dataset"]:
        cfg = bench_config([{"name": "vr", "algorithm": "vrpsg"}],
                           sweep={"param": param, "values": [RUN_VALUES.get(param, 1)]})
        args = ["bench", "--config", write_config(tmp_path, cfg), "--out", str(tmp_path / "b")]
        if param in RUN_VALUES:
            with pytest.raises(Built):
                main(args)
        else:
            assert main(args) == 1
            err = capsys.readouterr().err
            assert err.startswith(f"error: sweep.param {param!r} is not a run key")


@pytest.mark.parametrize("where", ["sweep", "algorithm"])
@pytest.mark.parametrize("key", ["dataset", "problem"])
def test_bench_cells_cannot_redefine_the_problem(tmp_path, capsys, where, key):
    # the problem is built once per dataset; a cell that names it again is refused
    value = BASE_SOLVE[key]
    algo = {"name": "vr", "algorithm": "vrpsg", "eta": 0.1, "m": 20}
    if where == "sweep":
        cfg = bench_config([algo], sweep={"param": key, "values": [value]})
    else:
        cfg = bench_config([dict(algo, **{key: value})])
    assert main(["bench", "--config", write_config(tmp_path, cfg),
                 "--out", str(tmp_path / "bench")]) == 1
    err = capsys.readouterr().err
    named = (f"sweep.param {key!r}" if where == "sweep"
             else f"'algorithms[0].{key}' is not accepted")
    assert err.startswith("error: ") and named in err and "Traceback" not in err


def test_bench_workers_match_a_single_process(tmp_path):
    # cells receive the pickled problem in the worker processes
    algorithms = [{"name": "vr", "algorithm": "vrpsg", "eta": 0.1, "m": 20},
                  {"name": "sgd", "algorithm": "sgd", "eta0": 0.5},
                  {"name": "afg", "algorithm": "afg"}]
    path = write_config(tmp_path, bench_config(algorithms, seeds=[0, 1]))
    outs = {}
    for workers in (1, 2):
        outs[workers] = tmp_path / f"w{workers}"
        assert main(["bench", "--config", path, "--out", str(outs[workers]),
                     "--workers", str(workers)]) == 0
    names = sorted(p.name for p in outs[1].iterdir())
    assert names == sorted(p.name for p in outs[2].iterdir())
    assert len([n for n in names if n.startswith("trace_")]) == 6
    for name in names:
        one, two = outs[1] / name, outs[2] / name
        if name.startswith("trace_"):
            assert rows_without_wall_ms(one) == rows_without_wall_ms(two)
        else:
            assert one.read_bytes() == two.read_bytes()


def holds_a_problem(payload):
    """Whether pickling payload would send a ProblemSpec anywhere inside it."""
    found = []

    class Spy(pickle.Pickler):
        def persistent_id(self, obj):
            found.append(isinstance(obj, ProblemSpec))
            return None

    Spy(io.BytesIO()).dump(payload)
    return any(found)


def test_bench_workers_receive_each_problem_once(tmp_path, monkeypatch):
    # the problem goes to each worker through the pool's initializer;
    # the cells sent through map carry only their run config and seed
    import concurrent.futures

    pools = []

    class RecordingPool:
        def __init__(self, max_workers, initializer=None, initargs=()):
            self.initializer, self.initargs, self.payloads = initializer, initargs, []
            pools.append(self)

        def __enter__(self):
            if self.initializer is not None:
                self.initializer(*self.initargs)
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, payloads):
            self.payloads = list(payloads)
            return [fn(p) for p in self.payloads]

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    algorithms = [{"name": "vr", "algorithm": "vrpsg", "eta": 0.1, "m": 20},
                  {"name": "sgd", "algorithm": "sgd", "eta0": 0.5}]
    second = {"name": "other", "dataset": dict(BASE_SOLVE["dataset"], seed=4),
              "problem": BASE_SOLVE["problem"]}
    cfg = bench_config(algorithms, seeds=[0, 1], reference={"compute": False})
    cfg["datasets"].append(second)
    assert main(["bench", "--config", write_config(tmp_path, cfg),
                 "--out", str(tmp_path / "bench"), "--workers", "2"]) == 0
    assert len(pools) == 2  # one pool per dataset
    for pool in pools:
        assert len(pool.payloads) == 4
        assert not any(holds_a_problem(p) for p in pool.payloads)
        assert isinstance(pool.initargs[0], ProblemSpec)


def test_bench_requires_datasets_and_algorithms(tmp_path):
    assert main(["bench",
                 "--config", write_config(tmp_path, {"datasets": [],
                                                     "algorithms": [{}]}),
                 "--out", str(tmp_path / "b1")]) == 1
    assert main(["bench",
                 "--config", write_config(tmp_path, {"datasets": [{}],
                                                     "algorithms": []},
                                          "b2.json"),
                 "--out", str(tmp_path / "b2")]) == 1


def load_schema(name):
    jsonschema = pytest.importorskip("jsonschema")
    text = resources.files("vrgrad").joinpath("schemas", name).read_text()
    schema = json.loads(text)
    jsonschema.Draft7Validator.check_schema(schema)
    return jsonschema.Draft7Validator(schema)


def test_solve_manifest_matches_shipped_schema(tmp_path):
    cfg = write_config(tmp_path, BASE_SOLVE)
    out = tmp_path / "run"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
    payload = json.loads((out / "manifest.json").read_text())
    validator = load_schema("run_manifest.schema.json")
    validator.validate(payload)
    # the reference block is closed: exactly f_star and tolerance_achieved, or null
    assert set(payload["reference"]) == {"f_star", "tolerance_achieved"}
    for reference in (dict(payload["reference"], certified=True), {"f_star": 0.5}):
        assert not validator.is_valid(dict(payload, reference=reference))
    assert validator.is_valid(dict(payload, reference=None))


def test_bench_manifest_matches_shipped_schema(tmp_path):
    cfg = write_config(tmp_path, {
        "datasets": [{
            "name": "tiny",
            "dataset": BASE_SOLVE["dataset"],
            "problem": BASE_SOLVE["problem"],
        }],
        "algorithms": [{"name": "vr", "algorithm": "vrpsg", "eta": 0.1, "m": 20}],
        "seeds": [0],
        "epochs": 2,
    })
    out = tmp_path / "grid"
    assert main(["bench", "--config", cfg, "--out", str(out)]) == 0
    payload = json.loads((out / "manifest.json").read_text())
    load_schema("run_manifest.schema.json").validate(payload)


def test_certificate_matches_shipped_schema(tmp_path):
    cfg = write_config(tmp_path, CONTRACTIVE_CERTIFY)
    out = tmp_path / "cert"
    assert main(["certify", "--config", cfg, "--out", str(out)]) == 0
    payload = json.loads((out / "certificate.json").read_text())
    validator = load_schema("certificate_report.schema.json")
    validator.validate(payload)
    # the report's keys plus versions, each required, and no other: a field
    # removed from the report cannot linger in the schema
    assert sorted(validator.schema["required"]) == sorted(payload) == sorted(
        list(certificates.CertificateReport.__dataclass_fields__) + ["versions"])


HUGE_BOX = {"constraint": {"type": "box", "lower": -1e12, "upper": 1e12}}
NO_REFERENCE = 'reference={"compute": false}'
NON_CONTRACTIVE_CERTIFY = {
    "dataset": {"kind": "synthetic", "n": 14, "d": 3, "rank": 3, "noise_std": 0.1,
                "row_scale_spread": 2.0, "seed": 3},
    "problem": {"constraint": {"type": "l1_ball", "tau": 2.0}},
}
TINY_GRID = bench_config([{"name": "vr", "algorithm": "vrpsg", "eta": 0.1, "m": 20}],
                         reference={"compute": False})


DIVERGING = [NO_REFERENCE, f"problem={json.dumps(HUGE_BOX)}"]
WRONG_TYPE = "has a value of the wrong type"
NOT_FINITE = "has an invalid value {}: not a finite number"
# case: (command, config, --set overrides or "--flag value" args, exit code,
#        a fragment of the first line of standard error, for exit codes 1 and 2)
EXIT_CODES = {
    "solve": ("solve", README_SOLVE, [NO_REFERENCE, "epochs=2"], 0, None),
    "solve-sgd": ("solve", README_SOLVE, [NO_REFERENCE, "epochs=2", "algorithm=sgd"], 0, None),
    "certify-contractive": ("certify", CONTRACTIVE_CERTIFY, [], 0, None),
    # config blocks that are not objects
    "dataset-not-object": ("solve", README_SOLVE, ["dataset=5"], 1,
                           "config block 'dataset' must be a JSON object"),
    "constraint-not-object": ("solve", README_SOLVE, ["problem.constraint=3"], 1,
                              "config block 'problem.constraint' must be a JSON object"),
    "problem-a-list": ("solve", README_SOLVE, ["problem=[1]"], 1,
                       "config block 'problem' must be a JSON object"),
    "reference-not-object": ("solve", README_SOLVE, ["reference=true"], 1,
                             "config block 'reference' must be a JSON object"),
    "algorithm-not-object": ("bench", TINY_GRID, ["algorithms=[5]"], 1,
                             f"config key 'algorithms' {WRONG_TYPE}"),
    "datasets-not-a-list": ("bench", TINY_GRID, ["datasets=5"], 1,
                            f"config key 'datasets' {WRONG_TYPE}"),
    "sweep-not-object": ("bench", TINY_GRID, ["sweep=3"], 1,
                         "config block 'sweep' must be a JSON object"),
    # values of the wrong JSON type
    "epochs-a-list": ("solve", README_SOLVE, [NO_REFERENCE, "epochs=[1]"], 1,
                      f"config key 'epochs' {WRONG_TYPE}"),
    "m-a-list": ("solve", README_SOLVE, [NO_REFERENCE, "m=[1]"], 1,
                 f"config key 'm' {WRONG_TYPE}"),
    "eta-an-object": ("solve", README_SOLVE, [NO_REFERENCE, 'eta={"a": 1}'], 1,
                      f"config key 'eta' {WRONG_TYPE}"),
    "seeds-a-number": ("bench", TINY_GRID, ["seeds=5"], 1, f"config key 'seeds' {WRONG_TYPE}"),
    "sweep-values-a-number": ("bench", TINY_GRID, ['sweep={"param": "eta", "values": 5}'], 1,
                              f"config key 'sweep.values' {WRONG_TYPE}"),
    "eta-fractions-a-number": ("certify", CONTRACTIVE_CERTIFY, ["eta_fractions=0.1"], 1,
                               f"config key 'eta_fractions' {WRONG_TYPE}"),
    "m-values-of-strings": ("certify", CONTRACTIVE_CERTIFY, ['m_values=["x"]'], 1,
                            f"config key 'm_values' {WRONG_TYPE}"),
    "q-of-booleans": ("solve", README_SOLVE, ["problem.q=[true, false]"], 1,
                      f"config key 'problem.q' {WRONG_TYPE}"),
    # numbers are finite JSON numbers, and an integer has an integral value
    "epochs-a-fraction": ("solve", README_SOLVE, [NO_REFERENCE, "epochs=2.5"], 1,
                          f"config key 'epochs' {WRONG_TYPE}"),
    "epochs-a-bool": ("solve", README_SOLVE, [NO_REFERENCE, "epochs=true"], 1,
                      f"config key 'epochs' {WRONG_TYPE}"),
    "epochs-a-string": ("solve", README_SOLVE, [NO_REFERENCE, 'epochs="4"'], 1,
                        f"config key 'epochs' {WRONG_TYPE}"),
    "epochs-an-integral-float": ("solve", README_SOLVE, [NO_REFERENCE, "epochs=2.0"], 0, None),
    "eta-a-bool": ("solve", README_SOLVE, [NO_REFERENCE, "eta=true"], 1,
                   f"config key 'eta' {WRONG_TYPE}"),
    "eta-beyond-a-float": ("solve", README_SOLVE, [NO_REFERENCE, "eta=" + "9" * 400], 1,
                           "int too large to convert to float"),
    "eta-nan": ("solve", README_SOLVE, [NO_REFERENCE, "eta=NaN"], 1,
                "config key 'eta' " + NOT_FINITE.format("nan")),
    "m-factor-overflows": ("solve", README_SOLVE, [NO_REFERENCE, "m_factor=1e400"], 1,
                           "config key 'm_factor' " + NOT_FINITE.format("inf")),
    "eta0-overflows": ("solve", README_SOLVE, [NO_REFERENCE, "eta0=1e400", "algorithm=sgd"], 1,
                       "config key 'eta0' " + NOT_FINITE.format("inf")),
    "box-bound-infinite": ("certify", CONTRACTIVE_CERTIFY, ["problem.constraint.lower=-Infinity"],
                           1, "config key 'problem.constraint.lower' "
                           + NOT_FINITE.format("-inf")),
    "m-a-fraction": ("solve", README_SOLVE, [NO_REFERENCE, "m=7.9"], 1,
                     f"config key 'm' {WRONG_TYPE}"),
    "m-values-a-fraction": ("certify", CONTRACTIVE_CERTIFY, ["m_values=[10.5]"], 1,
                            f"config key 'm_values' {WRONG_TYPE}"),
    # an array entry is a JSON number too
    "box-bound-a-string": ("certify", CONTRACTIVE_CERTIFY, ['problem.constraint.lower="-1"'], 1,
                           f"config key 'problem.constraint.lower' {WRONG_TYPE}"),
    "box-bound-a-bool": ("certify", CONTRACTIVE_CERTIFY, ["problem.constraint.upper=true"], 1,
                         f"config key 'problem.constraint.upper' {WRONG_TYPE}"),
    "inline-X-of-strings": ("certify", CONTRACTIVE_CERTIFY,
                            ['dataset.X=[["1", "0"], ["0", "1"], [2, 0], [0, 2], [1, 0], [0, 1]]'], 1,
                            f"config key 'dataset.X' {WRONG_TYPE}"),
    # m and m_factor: one of them, and a factor above zero
    "m-and-m-factor": ("solve", README_SOLVE, [NO_REFERENCE, "m_factor=0.5"], 1,
                       "a run sets m or m_factor, not both"),
    "m-factor-negative": ("solve", README_SOLVE, [NO_REFERENCE, "m=null", "m_factor=-3"], 1,
                          "m_factor must be positive, with m_factor n finite; got -3.0"),
    "m-factor-zero": ("solve", README_SOLVE, [NO_REFERENCE, "m=null", "m_factor=0"], 1,
                      "m_factor must be positive, with m_factor n finite; got 0.0"),
    "m-factor-times-n-overflows": ("solve", README_SOLVE,
                                   [NO_REFERENCE, "m=null", "m_factor=1e306"], 1,
                                   "with m_factor n finite; got 1e+306"),
    # a sweep varies a key a run reads, over JSON scalars
    "sweep-param-not-a-run-key": ("bench", TINY_GRID, ['sweep={"param": "foo", "values": [1, 2]}'],
                                  1, "sweep.param 'foo' is not a run key"),
    "sweep-values-not-scalars": ("bench", TINY_GRID, ['sweep={"param": "m", "values": [[1], [2]]}'],
                                 1, "sweep value [1] is not a JSON scalar"),
    # a bench runs at least one seed, in at least one process
    "bench-without-seeds": ("bench", TINY_GRID, ["seeds=[]"], 1,
                            "config key 'seeds' has an invalid value []: the list is empty"),
    "workers-zero": ("bench", TINY_GRID, ["--workers 0"], 1,
                     "bench needs at least one worker process, got --workers 0"),
    "workers-negative": ("bench", TINY_GRID, ["--workers -2"], 1,
                         "bench needs at least one worker process, got --workers -2"),
    # the reference solve's tolerance and seed are fixed; setting one is refused
    "fixed-reference.tol": ("solve", README_SOLVE, ["reference.tol=1e-10"], 1,
                            "reference takes: compute"),
    "fixed-reference.seed": ("solve", README_SOLVE, ["reference.seed=0"], 1,
                             "reference takes: compute"),
    "fixed-bench-reference.tol": ("bench", TINY_GRID, ["reference.tol=1e-30"], 1,
                                  "reference takes: compute"),
    "fixed-bench-reference_tol": ("bench", TINY_GRID, ["reference_tol=1e-12"], 1, "bench takes: "),
    "fixed-certify-reference_tol": ("certify", CONTRACTIVE_CERTIFY, ["reference_tol=1e-12"], 1,
                                    "certify takes: "),
    "certify-without-reference": ("certify", CONTRACTIVE_CERTIFY, ["reference.compute=false"], 1,
                                  "config key 'reference' is not accepted; certify takes: "),
    # booleans take JSON true or false only
    "bool-average-output-a-string": ("solve", README_SOLVE,
                                     [NO_REFERENCE, 'average_epoch_output="false"'], 1,
                                     "config key 'average_epoch_output'"),
    "bool-reference-compute-a-string": ("solve", README_SOLVE, ['reference.compute="no"'], 1,
                                        "config key 'reference.compute'"),
    "bool-bench-reference-compute-a-list": ("bench", TINY_GRID, ["reference.compute=[0]"], 1,
                                            "config key 'reference.compute'"),
    "bool-probe-a-number": ("certify", CONTRACTIVE_CERTIFY, ["probe=1"], 1, "config key 'probe'"),
    "bool-remap01-a-number": ("solve", README_SOLVE,
                              ['dataset={"kind": "libsvm", "path": "a.svm", "remap01": 0}'], 1,
                              "config key 'dataset.remap01'"),
    # usage errors
    "unknown-flag": ("solve", README_SOLVE, ["--bogus 1"], 1, "unrecognized arguments: --bogus"),
    "stale-seed-flag": ("solve", README_SOLVE, ["--seed 7"], 1, "unrecognized arguments: --seed"),
    "workers-not-a-number": ("bench", TINY_GRID, ["--workers x"], 1,
                             "argument --workers: invalid int value: 'x'"),
    # unknown names and invalid values
    "unknown-algorithm": ("solve", README_SOLVE, ["algorithm=adam"], 1,
                          "unknown algorithm 'adam'"),
    "unknown-dataset-kind": ("solve", README_SOLVE, ["dataset.kind=csv"], 1,
                             "unknown dataset.kind 'csv'; valid: synthetic, libsvm, inline"),
    "zero-epochs": ("solve", README_SOLVE, ["epochs=0"], 1, "epochs must be >= 1"),
    "unknown-eta-units": ("solve", README_SOLVE, [NO_REFERENCE, "eta_units=lp"], 1,
                          "unknown eta_units 'lp'"),
    "unknown-constraint-type": ("solve", README_SOLVE, ["problem.constraint.type=simplex"], 1,
                                "unknown problem.constraint.type 'simplex'; valid: l1_ball, box"),
    "both-sides": ("solve", README_SOLVE, ['problem.regularizer={"lam": 0.1}'], 1,
                   "problem needs a constraint or a regularizer, not both"),
    "neither-side": ("solve", README_SOLVE, ["problem={}"], 1,
                     "problem needs a constraint or a regularizer, not both"),
    "certify-regularized": ("certify", CONTRACTIVE_CERTIFY,
                            ['problem={"regularizer": {"lam": 0.1}}'], 1,
                            "certify needs a constrained problem"),
    # divergence, through each kind of epoch of the one engine
    "sgd-diverges": ("solve", README_SOLVE, DIVERGING + ["algorithm=sgd", "eta0=1e3"], 2,
                     "diverged at epoch"),
    "warm-start-diverges": ("solve", README_SOLVE, DIVERGING + ["algorithm=vrpsg2", "eta0=1e3"], 2,
                            "diverged at epoch"),
    "vrpsg-diverges": ("solve", README_SOLVE, DIVERGING + ["eta=1e7", "eta_units=absolute"], 2,
                       "diverged at epoch"),
    "line-search-stalls": ("solve", README_SOLVE,
                           [NO_REFERENCE, "algorithm=afg", "eta=1e300", "eta_units=absolute"], 2,
                           "line search stalled"),
    "certify-not-contractive": ("certify", NON_CONTRACTIVE_CERTIFY, [], 3, None),
    # values near DBL_MAX overflow on the way to their error, with no warning printed
    "certify-start-overflows": ("certify", CONTRACTIVE_CERTIFY, ["problem.constraint.lower=-1e308"],
                                2, "line search stalled"),
    "noise-overflows": ("solve", README_SOLVE, ["dataset.noise_std=1e308"], 1,
                        "labels must be finite"),
    # ... and end at once: a reference run stops at a check whose objective is not finite
    "certify-box-start-overflows": ("certify", CONTRACTIVE_CERTIFY,
                                    ["problem.constraint.upper=1e308"], 2, "line search stalled"),
    "certify-ball-start-overflows": ("certify", NON_CONTRACTIVE_CERTIFY,
                                     ["problem.constraint.tau=1e308"], 1,
                                     "reference solve did not certify"),
    "start-objective-overflows": ("solve", README_SOLVE, ["dataset.noise_std=1e200"], 2,
                                  "diverged at epoch 1: objective inf (started at inf)"),
}


@pytest.mark.filterwarnings("error::RuntimeWarning")  # numpy's notes would print above the error
@pytest.mark.parametrize("case", EXIT_CODES)
def test_each_failure_class_has_its_exit_code(tmp_path, capsys, case):
    command, config, overrides, code, fragment = EXIT_CODES[case]
    args = [command, "--config", write_config(tmp_path, config), "--out", str(tmp_path / "o")]
    for item in overrides:
        args += item.split() if item.startswith("--") else ["--set", item]
    assert main(args) == code
    err = capsys.readouterr().err
    assert "Traceback" not in err
    if code in (1, 2):
        message, *usage = err.splitlines()
        assert message.startswith("error: ") and fragment in message
        # a usage error, found by the argument parser, is followed by the
        # usage of the command that refused it
        usage_error = fragment.startswith(("argument ", "unrecognized arguments"))
        assert bool(usage) == usage_error
        assert not usage or usage[0].startswith("usage: vrgrad")
        if case.startswith("bool-"):
            assert "has a value of the wrong type" in message
        if case.startswith("fixed-"):
            assert f"config key {overrides[-1].split('=')[0]!r} is not accepted" in message


def with_entry(**extra):
    """TINY_GRID with extra keys in its first dataset entry and its first algorithm cell."""
    cfg = json.loads(json.dumps(TINY_GRID))
    cfg["datasets"][0].update(extra.get("entry", {}))
    cfg["algorithms"][0].update(extra.get("cell", {}))
    return cfg


LIBSVM = {"kind": "libsvm", "path": "a.svm"}
MISSPELLED = {  # block: (command, config, --set overrides, the dotted path of the stray key)
    "run": ("solve", README_SOLVE, ["samplng=uniform"], "samplng"),
    "solve": ("solve", README_SOLVE, ["sed=1"], "sed"),
    "reference": ("solve", README_SOLVE, ["reference.comput=false"], "reference.comput"),
    "problem": ("solve", README_SOLVE, ["problem.qq=[1]"], "problem.qq"),
    "l1_ball": ("solve", README_SOLVE, ["problem.constraint.tua=1"], "problem.constraint.tua"),
    "box": ("certify", CONTRACTIVE_CERTIFY, ["problem.constraint.lowr=0"],
            "problem.constraint.lowr"),
    "regularizer": ("solve", README_SOLVE, ['problem={"regularizer": {"lam": 0.1, "lamb": 1}}'],
                    "problem.regularizer.lamb"),
    "synthetic": ("solve", README_SOLVE, ["dataset.sed=4"], "dataset.sed"),
    "libsvm": ("solve", README_SOLVE, [f"dataset={json.dumps(dict(LIBSVM, ncols=3))}"],
               "dataset.ncols"),
    "inline": ("certify", CONTRACTIVE_CERTIFY, ["dataset.Y=[1]"], "dataset.Y"),
    "certify": ("certify", CONTRACTIVE_CERTIFY, ["probs=3"], "probs"),
    "bench": ("bench", TINY_GRID, ["seed=1"], "seed"),
    "sweep": ("bench", TINY_GRID, ['sweep={"param": "eta", "values": [0.1], "value": 1}'],
              "sweep.value"),
    "bench-dataset-entry": ("bench", with_entry(entry={"nme": "x"}), [], "datasets[0].nme"),
    "bench-entry-dataset": ("bench",
                            with_entry(entry={"dataset": dict(BASE_SOLVE["dataset"], sed=1)}),
                            [], "datasets[0].dataset.sed"),
    "bench-cell": ("bench", with_entry(cell={"epoch": 3}), [], "algorithms[0].epoch"),
}


@pytest.mark.parametrize("block", MISSPELLED)
def test_a_misspelled_key_in_each_block_exits_one(tmp_path, monkeypatch, capsys, block):
    # refused by its dotted path before any work: a bench checks every block
    # before its first problem build, solve and certify as they build it
    built = stop_after_the_first_build(monkeypatch)
    command, config, overrides, path = MISSPELLED[block]
    args = [command, "--config", write_config(tmp_path, config), "--out", str(tmp_path / "o")]
    for item in overrides:
        args += ["--set", item]
    assert main(args) == 1
    message = capsys.readouterr().err
    assert message.startswith(f"error: config key {path!r} is not accepted; ")
    assert "takes: " in message and not built


def test_bench_refuses_no_seeds_before_building_a_problem(tmp_path, monkeypatch, capsys):
    built = stop_after_the_first_build(monkeypatch)
    assert main(["bench", "--config", write_config(tmp_path, dict(TINY_GRID, seeds=[])),
                 "--out", str(tmp_path / "b")]) == 1
    assert "config key 'seeds' has an invalid value []" in capsys.readouterr().err
    assert not built


def test_a_small_m_factor_runs_one_inner_step(tmp_path):
    cfg = dict(BASE_SOLVE, m_factor=1e-6, epochs=1, reference={"compute": False})
    del cfg["m"]
    assert main(["solve", "--config", write_config(tmp_path, cfg),
                 "--out", str(tmp_path / "o")]) == 0
    assert json.loads((tmp_path / "o" / "manifest.json").read_text())["m_resolved"] == 1


def readme_configs():
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    return [json.loads(block) for block in re.findall(r"```json\n(.*?)```", text, re.S)]


@pytest.mark.parametrize("index", range(len(readme_configs())))
def test_each_config_in_the_readme_passes_the_tables(tmp_path, monkeypatch, index):
    # the documented configs are read through the same tables as any other:
    # each reaches its first problem build, and its problems build
    cfg = readme_configs()[index]
    command = "bench" if "datasets" in cfg else "solve" if "algorithm" in cfg else "certify"
    built = stop_after_the_first_build(monkeypatch)
    with pytest.raises(Built):
        main([command, "--config", write_config(tmp_path, cfg), "--out", str(tmp_path / "o")])
    assert isinstance(built[0], ProblemSpec)


def test_the_readme_shows_a_config_of_each_command():
    kinds = {"bench" if "datasets" in c else "solve" if "algorithm" in c else "certify"
             for c in readme_configs()}
    assert kinds == {"solve", "bench", "certify"}


def test_a_missing_required_argument_returns_one(capsys):
    # argparse would exit 2, the code for divergence; main returns 1 instead
    assert main(["solve", "--out", "x"]) == 1
    message, usage = capsys.readouterr().err.splitlines()
    assert message == "error: the following arguments are required: --config"
    assert usage.startswith("usage: vrgrad solve")


def test_a_programming_error_is_not_a_tidy_exit(tmp_path, monkeypatch):
    # only documented failures become exit codes; a stray KeyError keeps its traceback
    from vrgrad import cli

    def broken(cfg):
        raise KeyError("bug")

    monkeypatch.setattr(cli, "build_problem", broken)
    with pytest.raises(KeyError, match="bug"):
        main(["solve", "--config", write_config(tmp_path, BASE_SOLVE),
              "--out", str(tmp_path / "o")])


SCIPY_MODULES = "sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))"
LOGISTIC_SOLVE = dict(BASE_SOLVE, dataset=dict(BASE_SOLVE["dataset"], task="logistic"))
LOGISTIC_CERTIFY = dict(CONTRACTIVE_CERTIFY, dataset=dict(
    CONTRACTIVE_CERTIFY["dataset"], y=[1, -1, 1, -1, 1, -1], task="logistic"))


@pytest.mark.parametrize("command,config", [
    ("solve", BASE_SOLVE), ("solve", LOGISTIC_SOLVE),
    ("certify", CONTRACTIVE_CERTIFY), ("certify", LOGISTIC_CERTIFY)],
    ids=["solve-least-squares", "solve-logistic", "certify", "certify-logistic"])
def test_a_command_loads_no_scipy_module_but_the_package_it_reports(tmp_path, command, config):
    # where the compiled library loads, scipy does none of a command's work:
    # the one import left is `import scipy` for the manifest's version string
    import subprocess
    import sys

    from vrgrad import _epoch

    if _epoch.library() is None:  # built here, the child loads it from the cache
        pytest.skip("the compiled library does not load here")
    args = [command, "--config", write_config(tmp_path, config), "--out", str(tmp_path / "o")]
    code = (f"import sys; from vrgrad import _epoch, cli; rc = cli.main({args!r}); "
            f"print(rc, _epoch.library() is not None, {SCIPY_MODULES})")
    env = {"PYTHONPATH": str(Path(_epoch.__file__).parents[1])}
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=env)
    rc, compiled, modules = run.stdout.strip().splitlines()[-1].split(" ", 2)
    assert rc in ("0", "3") and compiled == "True"
    alone = subprocess.run([sys.executable, "-c", f"import sys, scipy; print({SCIPY_MODULES})"],
                           capture_output=True, text=True, check=True, env=env)
    assert modules == alone.stdout.strip()
    assert json.loads((tmp_path / "o" / ("certificate.json" if command == "certify"
                                         else "manifest.json")).read_text())["versions"]["scipy"]
