"""End-to-end command tests: artifacts, exit codes, overrides, determinism."""

import csv
import io
import json
import pickle
import warnings
from importlib import resources

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
    assert manifest["reference"]["certified"] is True
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

    monkeypatch.setattr(certificates, "reference_solution", refuse)
    cfg = bench_config([{"name": "vr", "algorithm": "vrpsg", "eta": 0.1, "m": 20}],
                       reference={"compute": False})
    out = tmp_path / "bench"
    assert main(["bench", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 0
    assert "no reference solve" in capsys.readouterr().out
    assert [r["gap"] for r in read_rows(out / "trace_tiny_vr_s0.csv")] == ["nan"] * 3
    assert [r["mean_gap"] for r in read_rows(out / "aggregate_tiny.csv")] == ["nan"] * 3


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
    assert err.startswith("error: ") and repr(key) in err and "Traceback" not in err


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
    from vrgrad import cli

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

    monkeypatch.setattr(cli.concurrent.futures, "ProcessPoolExecutor", RecordingPool)
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
    load_schema("run_manifest.schema.json").validate(payload)


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
    load_schema("certificate_report.schema.json").validate(payload)


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
EXIT_CODES = {  # case: (command, config, --set overrides or "--flag value" args, exit code)
    "solve": ("solve", README_SOLVE, [NO_REFERENCE, "epochs=2"], 0),
    "solve-sgd": ("solve", README_SOLVE, [NO_REFERENCE, "epochs=2", "algorithm=sgd"], 0),
    "certify-contractive": ("certify", CONTRACTIVE_CERTIFY, [], 0),
    # config blocks that are not objects
    "dataset-not-object": ("solve", README_SOLVE, ["dataset=5"], 1),
    "constraint-not-object": ("solve", README_SOLVE, ["problem.constraint=3"], 1),
    "problem-a-list": ("solve", README_SOLVE, ["problem=[1]"], 1),
    "reference-not-object": ("solve", README_SOLVE, ["reference=true"], 1),
    "algorithm-not-object": ("bench", TINY_GRID, ["algorithms=[5]"], 1),
    "datasets-not-a-list": ("bench", TINY_GRID, ["datasets=5"], 1),
    "sweep-not-object": ("bench", TINY_GRID, ["sweep=3"], 1),
    # values of the wrong JSON type
    "epochs-a-list": ("solve", README_SOLVE, [NO_REFERENCE, "epochs=[1]"], 1),
    "m-a-list": ("solve", README_SOLVE, [NO_REFERENCE, "m=[1]"], 1),
    "eta-an-object": ("solve", README_SOLVE, [NO_REFERENCE, 'eta={"a": 1}'], 1),
    "seeds-a-number": ("bench", TINY_GRID, ["seeds=5"], 1),
    "sweep-values-a-number": ("bench", TINY_GRID, ['sweep={"param": "eta", "values": 5}'], 1),
    "eta-fractions-a-number": ("certify", CONTRACTIVE_CERTIFY, ["eta_fractions=0.1"], 1),
    "m-values-of-strings": ("certify", CONTRACTIVE_CERTIFY, ['m_values=["x"]'], 1),
    # booleans take JSON true or false only
    "bool-average-output-a-string": ("solve", README_SOLVE,
                                     [NO_REFERENCE, 'average_epoch_output="false"'], 1),
    "bool-reference-compute-a-string": ("solve", README_SOLVE, ['reference.compute="no"'], 1),
    "bool-bench-reference-compute-a-list": ("bench", TINY_GRID, ["reference.compute=[0]"], 1),
    "bool-probe-a-number": ("certify", CONTRACTIVE_CERTIFY, ["probe=1"], 1),
    "bool-remap01-a-number": ("solve", README_SOLVE,
                              ['dataset={"kind": "libsvm", "path": "a.svm", "remap01": 0}'], 1),
    # usage errors
    "unknown-flag": ("solve", README_SOLVE, ["--bogus 1"], 1),
    "stale-seed-flag": ("solve", README_SOLVE, ["--seed 7"], 1),
    "workers-not-a-number": ("bench", TINY_GRID, ["--workers x"], 1),
    # unknown names and invalid values
    "unknown-algorithm": ("solve", README_SOLVE, ["algorithm=adam"], 1),
    "unknown-dataset-kind": ("solve", README_SOLVE, ["dataset.kind=csv"], 1),
    "zero-epochs": ("solve", README_SOLVE, ["epochs=0"], 1),
    "certify-regularized": ("certify", README_SOLVE, ['problem={"regularizer": {"lam": 0.1}}'], 1),
    # divergence, through each kind of epoch of the one engine
    "sgd-diverges": ("solve", README_SOLVE, DIVERGING + ["algorithm=sgd", "eta0=1e3"], 2),
    "warm-start-diverges": ("solve", README_SOLVE, DIVERGING + ["algorithm=vrpsg2", "eta0=1e3"], 2),
    "vrpsg-diverges": ("solve", README_SOLVE, DIVERGING + ["eta=1e7", "eta_units=absolute"], 2),
    "certify-not-contractive": ("certify", NON_CONTRACTIVE_CERTIFY, [], 3),
}


@pytest.mark.parametrize("case", EXIT_CODES)
def test_each_failure_class_has_its_exit_code(tmp_path, capsys, case):
    command, config, overrides, code = EXIT_CODES[case]
    args = [command, "--config", write_config(tmp_path, config), "--out", str(tmp_path / "o")]
    for item in overrides:
        args += item.split() if item.startswith("--") else ["--set", item]
    assert main(args) == code
    err = capsys.readouterr().err
    assert "Traceback" not in err
    if code in (1, 2):
        message, *usage = err.splitlines()
        assert message.startswith("error: ")
        # a usage error is followed by the usage of the command that refused it
        usage_error = any(item.startswith("--") for item in overrides)
        assert bool(usage) == usage_error
        assert not usage or usage[0].startswith("usage: vrgrad")
        if code == 2:
            assert "diverged at epoch" in err
        if case.startswith("bool-"):
            assert "has a value of the wrong type" in message


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
