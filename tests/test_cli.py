"""End-to-end command tests: artifacts, exit codes, overrides, determinism."""

import csv
import json
import warnings
from importlib import resources

import numpy as np
import pytest

from vrgrad import certificates
from vrgrad.cli import main


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
        assert main(["solve", "--config", cfg, "--seed", "7",
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
