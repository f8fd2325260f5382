"""Frozen SHA-256 hashes of small solver runs: any change to a trace's bytes fails here.

Each case runs one solver on a tiny problem, writes its trace with the CLI's
``write_trace_csv``, drops the ``wall_ms`` column, appends the final
iterate's bytes (signed zeros folded to +0.0), and hashes the result.  The
cases cover every algorithm x side x loss x sampling x averaging
combination the solvers distinguish: ``sgd`` and ``afg`` ignore sampling
and averaging, so they run once per side and loss.  Each case runs three
ways against the one table: through the compiled kernel (the bare case
name), the numpy loop (the name with ``-numpy``), and the numpy loop with
scipy's products and sigmoid, as where the compiled library does not build
(``-scipy``).

No vector dot on these paths calls a BLAS, so the table holds under any
OpenBLAS core type and thread count; one case per algorithm and loss is
rerun under two of them in new processes.  A change that alters a trace on
purpose re-freezes the table below with

    PYTHONPATH=src python3 tests/test_golden_traces.py

and says which traces changed and why.
"""

import ast
import hashlib
import os
import platform
import subprocess
import sys
import tempfile

import numpy as np
import pytest

from vrgrad import problems, solvers
from vrgrad.cli import write_trace_csv
from vrgrad.problems import (
    Box,
    L1Ball,
    L1Regularizer,
    LossSpec,
    ProblemSpec,
    SparseDesignMatrix,
)
from vrgrad.solvers import (
    SolverConfig,
    run_afg,
    run_hybrid_vrpsg2,
    run_projected_sgd,
    run_prox_svrg,
    run_vrpsg,
)

from conftest import inner_steps

N, D = 20, 6
SIDES = {
    "l1": {"constraint": L1Ball(tau=0.4)},
    "box": {"constraint": Box(lower=np.full(D, -0.25), upper=np.full(D, 0.25))},
    "lam": {"regularizer": L1Regularizer(lam=0.2)},
    "lam0": {"regularizer": L1Regularizer(lam=0.0)},
}
VR_RUNNERS = {"vrpsg": run_vrpsg, "vrpsg2": run_hybrid_vrpsg2, "prox_svrg": run_prox_svrg}


def _problem(side, loss):
    """A 20 x 6 design with about a third of its entries zero and uneven row scales."""
    rng = np.random.Generator(np.random.Philox(2024))
    X = rng.standard_normal((N, D)) * np.linspace(0.5, 2.0, N)[:, None]
    X[rng.random((N, D)) < 0.35] = 0.0
    u = (X * rng.standard_normal(D)).sum(axis=1)  # X w with no BLAS product
    if loss == "least_squares":
        y, q = u + 0.3 * rng.standard_normal(N), 0.1 * rng.standard_normal(D)
    else:
        y, q = np.where(u + 0.5 * rng.standard_normal(N) >= 0, 1.0, -1.0), None
    return ProblemSpec(matrix=SparseDesignMatrix.from_dense(X),
                       loss=LossSpec(kind=loss, labels=y), q=q, **SIDES[side])


def _cases():
    for loss in ("least_squares", "logistic"):
        for side in SIDES:
            algos = ("prox_svrg",) if side.startswith("lam") else ("vrpsg", "vrpsg2")
            for algo in algos:
                for mode in ("uniform", "proportional"):
                    for avg in (True, False):
                        yield f"{algo}-{side}-{loss}-{mode}-{'avg' if avg else 'last'}"
            if not side.startswith("lam"):
                yield f"sgd-{side}-{loss}"
            yield f"afg-{side}-{loss}"


def _run(case):
    algo, side, loss, *rest = case.split("-")
    problem = _problem(side, loss)
    if algo == "afg":
        return run_afg(problem, SolverConfig(epochs=8, step_size=1.0), f_star=0.0)
    if algo == "sgd":
        return run_projected_sgd(problem, SolverConfig(
            epochs=3, step_size=0.03, sgd_initial_step=0.2, seed=5), f_star=0.0)
    mode, avg = rest
    cfg = SolverConfig(epochs=3, step_size=0.03, inner_iterations=15, seed=5,
                       sgd_initial_step=0.2, sampling_mode=mode,
                       average_epoch_output=avg == "avg")
    return VR_RUNNERS[algo](problem, cfg, f_star=0.0)


def _digest(trace, directory):
    path = os.path.join(directory, "trace.csv")
    write_trace_csv(path, trace)
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    drop = lines[0].split(",").index("wall_ms")
    kept = [",".join(f for j, f in enumerate(line.split(",")) if j != drop)
            for line in lines]
    h = hashlib.sha256("\n".join(kept).encode("utf-8"))
    h.update((trace.final_iterate + 0.0).tobytes())
    return h.hexdigest()


GOLDEN = {
    'vrpsg-l1-least_squares-uniform-avg': '2faa8e09222799c893e5f40cc61cb51f5e65425aabb795b41ed95fb961773067',
    'vrpsg-l1-least_squares-uniform-last': '694aca9a1b237177f405fc7ac9356482ddabfe59c0882248c4ee44d94475d035',
    'vrpsg-l1-least_squares-proportional-avg': 'b33a1462202f46cca5d8e351813de4658deb6eb83583112011d352f56dae487d',
    'vrpsg-l1-least_squares-proportional-last': 'e79b61b2409be4b83430d6e30fa8dbc2aa6a09ac2cd10cdccbb2a0e6a80aa567',
    'vrpsg2-l1-least_squares-uniform-avg': '39a779cdb53354a72d0e01e6c6dc6e6f271e0962e84a94a7b05b41da398fe919',
    'vrpsg2-l1-least_squares-uniform-last': 'd81c3bf0fc64b23baa22c03ab57379f704d4c25d900b7fc4d5f69e5758961988',
    'vrpsg2-l1-least_squares-proportional-avg': 'cbf125685686220671f1ad52be1b2e295d02b2286c321c2e345251d1abfc6292',
    'vrpsg2-l1-least_squares-proportional-last': 'bc3a4c77d304369c47dffc4582bbd282eab7ce58c4d7edbdab3c9d0176d5ba05',
    'sgd-l1-least_squares': '80b87ce77a41edfb27d205faee33d57206c6a22645d257cf18d015b1ffc07fa1',
    'afg-l1-least_squares': 'fc5259b631c90ffe24577e7acfe062c405b09e4f79380e9da3e5aa9cb8c40a76',
    'vrpsg-box-least_squares-uniform-avg': 'a3aed12dd1388f5decf94cd24701586123805cd50f38379e6f87859171a92518',
    'vrpsg-box-least_squares-uniform-last': '405cc135fb1a9eae743c688f35966741bad1b51a8f883be78b395a423cbbbbca',
    'vrpsg-box-least_squares-proportional-avg': '909387716a0061af94c5e51de95de842f8ea468a61ca78f0c3b9d9230d90b702',
    'vrpsg-box-least_squares-proportional-last': '34d07b8074325519a016f8f71995a62788e68d6f90a599a77773a2783fe17da8',
    'vrpsg2-box-least_squares-uniform-avg': '628389221471d148b3079628f5997eff1ab8ab1ec0a14b54acaa48f50c15f301',
    'vrpsg2-box-least_squares-uniform-last': '70ac132093f0f87b5f070d4866acc3b2194e3ed0fb13b21b29f7e25278ecd44c',
    'vrpsg2-box-least_squares-proportional-avg': '9bc30d1d0051b6f8922921db77182b7e22a1d1286a4b89ba88313383bca028f3',
    'vrpsg2-box-least_squares-proportional-last': '161236d6fae253050ecce333ef7259280b207f254f1c2692f398b06abfc35d10',
    'sgd-box-least_squares': '66cccc29f50459821c36d69c5af46502922c95fa0a101c8b02bf06e08853d4b6',
    'afg-box-least_squares': 'e52cbc49840e2bbcd9ccb917dc2e1ef11438c8b7c9f55f0ca4d0d0da434eeb85',
    'prox_svrg-lam-least_squares-uniform-avg': 'd71465c40c2a71d5d572a8959f7278681238e26b9009923c68ebec0fa00a53f4',
    'prox_svrg-lam-least_squares-uniform-last': '1751f9d376958e5967b8f997ea1c4a47646ed0ec577c52a9b441aeead543e7a7',
    'prox_svrg-lam-least_squares-proportional-avg': 'c6230964519d17420759fa2c056b19511a6932503050abd3318af59101e2c3c5',
    'prox_svrg-lam-least_squares-proportional-last': '5f132e6f47257a9f38ef729e86ed807b4b913ee51627facc4f3cbd6deb62c483',
    'afg-lam-least_squares': '9fec6e4bf77778a988de2b1dd315f9e6a9b1550a519b158c9c9d979bd1b2e104',
    'prox_svrg-lam0-least_squares-uniform-avg': 'a28ebc33c61f27d0d07d21c7d28e61e8dc9f70b7a5f4fcdde90339459fe011f2',
    'prox_svrg-lam0-least_squares-uniform-last': 'c9984c2a9e4650d4b5eef4da553aa998a0b17600c821a242d4e4bab8fa29a919',
    'prox_svrg-lam0-least_squares-proportional-avg': '6d1129da3ffb4c4c4c42f2a6b7fb0585b25cc8b70ca60d33ea1cfe5fc0042049',
    'prox_svrg-lam0-least_squares-proportional-last': 'fbebb2210c95cb10a5e64401d590fdcbbb27dd3877695094a3717f359eef5879',
    'afg-lam0-least_squares': 'fe3736841a5c8cddecbba3fa2a440fe87eeb27fb35c980a7c5a524a2c1fe7909',
    'vrpsg-l1-logistic-uniform-avg': '52bb24dd862b1035e8efccf4ab21b134ee803f2dd7f65a74a25e480086162b42',
    'vrpsg-l1-logistic-uniform-last': 'acc39f37320b6073b609dc88c189724d5a7d39062dc158b04a912aa65280583d',
    'vrpsg-l1-logistic-proportional-avg': '71e533647887f0530eab832588cbf1ddb91486f16d87f2eb9a317a59cd1a9b55',
    'vrpsg-l1-logistic-proportional-last': '410822a466c8e5b8f96f457205923f4056583f9979e0c20e5f0dd6e54cae2db4',
    'vrpsg2-l1-logistic-uniform-avg': '7203e8fe988c595def172344332b51aa412246ac721aa63e25face8869fa36b1',
    'vrpsg2-l1-logistic-uniform-last': '824915ff9061998003df8f42155323bea10e0d3075b8117db1a9481bc2180550',
    'vrpsg2-l1-logistic-proportional-avg': 'bdc6478ce58feceb795495b219cc70b37af0c062f3a034b40fa45b9ebcb7ec13',
    'vrpsg2-l1-logistic-proportional-last': 'fa4f9353d889be8ca35969b6c4715e39557fe6f23e2fc9fc3463d081879bf6f1',
    'sgd-l1-logistic': 'e8ca843268db5f0a33fd30bda0b78d6bc8677bb2ab5a1de0e28cf49b33bc5e76',
    'afg-l1-logistic': '0a4edab646d236cfce9503fed20635f420d51e5d1abe962b9f7557e7c77b3ad6',
    'vrpsg-box-logistic-uniform-avg': '7a046d9bee26e24444598d63f74cc904fb253dd37a1cead0c6dcd442103d3996',
    'vrpsg-box-logistic-uniform-last': '5d43237ada10b2d434393ad4cb93237510048dbb935f6039c8f1bdb984acebde',
    'vrpsg-box-logistic-proportional-avg': '6f1c332411419551ab3e87540259f52f7a15fa64fe1523ba0e7ae296e4715b75',
    'vrpsg-box-logistic-proportional-last': '20e78c4e8577f93fed4586c3fbe0dd743b9f0f4b94f226bdabb0c1771cbffcc6',
    'vrpsg2-box-logistic-uniform-avg': '9c2f1482e4315576dc13f1951c03dd9d73f1dc0c03d019d91cd00ec99d57d893',
    'vrpsg2-box-logistic-uniform-last': 'c8a2f427b9e2e5d4703a5f98286a6e9961a00670a820b729b7c6d8d01a0e2d76',
    'vrpsg2-box-logistic-proportional-avg': '09cc3b82dcde2810440a52b49edf36236738105f83e123a64fdd13c62dce6885',
    'vrpsg2-box-logistic-proportional-last': 'bb313ef2f56460981b1c7fde2a5ce66b4ce4c795c5f2e5994797dc9ed283e122',
    'sgd-box-logistic': 'f32caa0ee78668a138f94f84a77e115c9a0ab802d64eb578285de6a1b7d8ffb6',
    'afg-box-logistic': '651fbdeec1620f16cd204c672f7ba6022dc6c4af2fa0d3ff6d05ca1d42d59d14',
    'prox_svrg-lam-logistic-uniform-avg': '6fe4c894c41db01319a5754e3b15efd5bad89911bc97386b67bfbd55678a894c',
    'prox_svrg-lam-logistic-uniform-last': '38552e74d82cb8f2dc13945d834b27882ef31677dc57649a29dc8ff1c846a892',
    'prox_svrg-lam-logistic-proportional-avg': '8d3d20e2b42fa1e3bb78ca3df247b4787d4cdc9f9fda846f4b2aa085d17b6438',
    'prox_svrg-lam-logistic-proportional-last': 'c27cadae28a907d448aa593190dc3da3a2d3430123640ad1c52437349824c67b',
    'afg-lam-logistic': '03f341ac2fa4b317dfdac8d2a84586660ca210bfcbf3955ed26678bbd9c7d032',
    'prox_svrg-lam0-logistic-uniform-avg': '8c1179e79b6657dd574b41904bbadeea5f1e646466353ed817c7d323f968a902',
    'prox_svrg-lam0-logistic-uniform-last': '1280a18b26642a503584152ad912f54caa8269d663bf51c7732da8baea9659f4',
    'prox_svrg-lam0-logistic-proportional-avg': '1ad270d3ac35e3851729b171a85c1ecd71cece4f30f7a68da9663127ad2cce04',
    'prox_svrg-lam0-logistic-proportional-last': 'a9151211ba8422701f80f6b5706fa5fed3b3da0c7e9997dede49e6574f116bb4',
    'afg-lam0-logistic': '6db8e754529f838ff190958a6f05ac4a5a709cb0f0c1027dc4333376eeb4bd07',
}


@pytest.mark.parametrize("case, loop", [
    pytest.param(case, loop, id=case if loop == "compiled" else f"{case}-{loop}")
    for loop in ("compiled", "numpy", "scipy") for case in _cases()])
def test_trace_matches_frozen_hash(case, loop, tmp_path, monkeypatch):
    if loop == "scipy":  # as where gcc is missing: the numpy loop, scipy's products and sigmoid
        kernels = problems._scipy_kernels()
        monkeypatch.setattr(problems, "_kernels", lambda: kernels)
    monkeypatch.setattr(solvers, "_inner_steps", inner_steps("compiled" if loop == "compiled"
                                                             else "numpy"))
    assert _digest(_run(case), str(tmp_path)) == GOLDEN[case]


def test_golden_table_covers_every_case():
    assert sorted(GOLDEN) == sorted(_cases())


# one case per algorithm and loss; under Haswell's or Prescott's ddot, every
# least-squares one and the stochastic logistic ones moved while `@` summed the dots
CROSS_CPU_CASES = (
    "vrpsg-l1-least_squares-uniform-avg", "vrpsg-box-logistic-proportional-last",
    "vrpsg2-l1-least_squares-proportional-last", "vrpsg2-box-logistic-proportional-avg",
    "prox_svrg-lam-least_squares-uniform-avg", "prox_svrg-lam0-logistic-proportional-last",
    "sgd-box-least_squares", "sgd-box-logistic", "afg-box-least_squares", "afg-box-logistic",
)


@pytest.mark.skipif(platform.machine() != "x86_64", reason="OpenBLAS core types are x86_64's")
@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("coretype", ["Prescott", "Haswell"])
def test_traces_do_not_depend_on_the_blas_kernel_or_its_threads(coretype, threads):
    # numpy's OpenBLAS reads these when it loads, so the cases run in a new process
    src = os.path.dirname(os.path.dirname(problems.__file__))
    env = dict(os.environ, OPENBLAS_CORETYPE=coretype, OPENBLAS_NUM_THREADS=threads,
               PYTHONPATH=os.pathsep.join([src, os.path.dirname(__file__)]))
    run = subprocess.run([sys.executable, __file__, *CROSS_CPU_CASES], env=env,
                         capture_output=True, text=True, check=True)
    table = ast.literal_eval(run.stdout.split("=", 1)[1])
    assert table == {case: GOLDEN[case] for case in CROSS_CPU_CASES}


if __name__ == "__main__":  # the table, or the rows of the cases named
    with tempfile.TemporaryDirectory() as tmp:
        sys.stdout.write("GOLDEN = {\n")
        for case in sys.argv[1:] or _cases():
            sys.stdout.write(f"    {case!r}: {_digest(_run(case), tmp)!r},\n")
        sys.stdout.write("}\n")
