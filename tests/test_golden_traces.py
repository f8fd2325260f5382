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

A change that alters a trace on purpose re-freezes the table below with

    PYTHONPATH=src python3 tests/test_golden_traces.py

and says which traces changed and why.
"""

import hashlib
import os
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
    w = rng.standard_normal(D)
    if loss == "least_squares":
        y, q = X @ w + 0.3 * rng.standard_normal(N), 0.1 * rng.standard_normal(D)
    else:
        y, q = np.where(X @ w + 0.5 * rng.standard_normal(N) >= 0, 1.0, -1.0), None
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
    'vrpsg-l1-least_squares-uniform-avg': '94bd79bf4326e4ea2e17e4fc79e4f9c9a48021ddd066af7baf535cc851793915',
    'vrpsg-l1-least_squares-uniform-last': 'a0d7cf3710f0bfd3ef43ab6f861cbdfb52cd977f667aa8f4960ddfa486cad58a',
    'vrpsg-l1-least_squares-proportional-avg': 'b33a1462202f46cca5d8e351813de4658deb6eb83583112011d352f56dae487d',
    'vrpsg-l1-least_squares-proportional-last': '607b9376e10cfb9272b75b5b5a884ac61623c18a3be2e574ce7f20be894c3904',
    'vrpsg2-l1-least_squares-uniform-avg': '04d374590df708a01558881cd1cb94ee37038553b38ea8c77937bdfde0b8c156',
    'vrpsg2-l1-least_squares-uniform-last': 'a4bf547a382b9699295b541550de00b902ad065158976cc4d6abaf0b31bcc2d9',
    'vrpsg2-l1-least_squares-proportional-avg': '3d4a8cd578b0509d4704f3f36f03394bac9f10ccfec6d8cc7fbee15935323b72',
    'vrpsg2-l1-least_squares-proportional-last': 'cfe38f0ce5c4aeb5c037962ebd68d7f0d2a3e04036e1e69147b3a334cdace29a',
    'sgd-l1-least_squares': '5df597f4c8e188629abd7908012a91a75730f5f5f9a93435d41fd45e526eef12',
    'afg-l1-least_squares': '67f8d8b9ded3e08aaf97459e99e370d695dae8ce43eda5e1665e42f718a5dc38',
    'vrpsg-box-least_squares-uniform-avg': 'a3aed12dd1388f5decf94cd24701586123805cd50f38379e6f87859171a92518',
    'vrpsg-box-least_squares-uniform-last': '4e7d78a8eca0795307d18e80052f2dd79fe8a2e3f9fee007844d8d352aabf23b',
    'vrpsg-box-least_squares-proportional-avg': '986ec1b7089c7c26d586c5ba756100d9f6fe0b02a1f3f7948b5db4cce6a8f745',
    'vrpsg-box-least_squares-proportional-last': 'a3d98e2042da20429fbc15dcd59ff858806619cad6804ae87e7d19d32677a712',
    'vrpsg2-box-least_squares-uniform-avg': '54d1c6cc252539081984ccf91af5679a29b52133ecdb1633d3dd5c21c549e265',
    'vrpsg2-box-least_squares-uniform-last': '65f45da44b9a87fdb85e00406198446edfa55d2398eaf8e74d1ae9728d008985',
    'vrpsg2-box-least_squares-proportional-avg': '63eb921468274aee4fc07fc8b772384b2ef8fea41bba53b16454d514719ddc3b',
    'vrpsg2-box-least_squares-proportional-last': 'ea4021952b316ec19cc9322800f94f8766e5fd827713a76db9a90169c75aa894',
    'sgd-box-least_squares': '0eb1c0b328a6644aa8f58643bb55a3a21b32834e46e7afc413e85ce2d1b46a13',
    'afg-box-least_squares': '8cf7dda0884fcfda56c516b74f613585906a7781156c2c0c8533ec6f1b99bd03',
    'prox_svrg-lam-least_squares-uniform-avg': '35c3e3363a63bf786984496db282e63572d9ee60a13f0847af5bcc8d33ec0291',
    'prox_svrg-lam-least_squares-uniform-last': '9953a24ff58f6ff9771e614f7250ae36481cfd8905d901f82d36ab4bc5e85f8f',
    'prox_svrg-lam-least_squares-proportional-avg': '28ba3f20e70180d36c2de6b99b17b49b40eeccdeb803e359ee8638682ab6b2fb',
    'prox_svrg-lam-least_squares-proportional-last': '578c4d024ac1e67eb98893c55719860aebf7c8ff964313c762f92f8e708d050a',
    'afg-lam-least_squares': '94f00d27a86f69d02a489ebbaf3700113206e88274619913d8b0c5afde5e0137',
    'prox_svrg-lam0-least_squares-uniform-avg': 'c186e294c6a8b829b9a9a0fea1eb551891908fc55829817c8fe630748b4e067e',
    'prox_svrg-lam0-least_squares-uniform-last': '893589736e7565945fa0dc9a6b86e6cecf67359c27aca2679a8f27b17ae47b50',
    'prox_svrg-lam0-least_squares-proportional-avg': '7a87723dfb392f0cbc17b99bd3ea2f3963e5e2c05e985d8e39ecf665dd7f0d96',
    'prox_svrg-lam0-least_squares-proportional-last': '524a3ac05267118720f6e85d7d66c08f39d4a7cb74b0eb7c9388f91a8e9a02aa',
    'afg-lam0-least_squares': 'd37c5def378b4b25f4a501d5278d03bae4ca742f6b31b5db72223c897ce658c0',
    'vrpsg-l1-logistic-uniform-avg': '52bb24dd862b1035e8efccf4ab21b134ee803f2dd7f65a74a25e480086162b42',
    'vrpsg-l1-logistic-uniform-last': 'acc39f37320b6073b609dc88c189724d5a7d39062dc158b04a912aa65280583d',
    'vrpsg-l1-logistic-proportional-avg': '71e533647887f0530eab832588cbf1ddb91486f16d87f2eb9a317a59cd1a9b55',
    'vrpsg-l1-logistic-proportional-last': '410822a466c8e5b8f96f457205923f4056583f9979e0c20e5f0dd6e54cae2db4',
    'vrpsg2-l1-logistic-uniform-avg': '332896b03c7490e31135938ce92d8b7679216012e062a2349ea62713411313a5',
    'vrpsg2-l1-logistic-uniform-last': '824915ff9061998003df8f42155323bea10e0d3075b8117db1a9481bc2180550',
    'vrpsg2-l1-logistic-proportional-avg': 'bdc6478ce58feceb795495b219cc70b37af0c062f3a034b40fa45b9ebcb7ec13',
    'vrpsg2-l1-logistic-proportional-last': 'fa4f9353d889be8ca35969b6c4715e39557fe6f23e2fc9fc3463d081879bf6f1',
    'sgd-l1-logistic': 'e8ca843268db5f0a33fd30bda0b78d6bc8677bb2ab5a1de0e28cf49b33bc5e76',
    'afg-l1-logistic': '0a4edab646d236cfce9503fed20635f420d51e5d1abe962b9f7557e7c77b3ad6',
    'vrpsg-box-logistic-uniform-avg': '7a046d9bee26e24444598d63f74cc904fb253dd37a1cead0c6dcd442103d3996',
    'vrpsg-box-logistic-uniform-last': '4d81cf987c54c19c92343bfabbc9f6103dfe6f48dc531dfd3f5a4988ffc4e7f1',
    'vrpsg-box-logistic-proportional-avg': '6f1c332411419551ab3e87540259f52f7a15fa64fe1523ba0e7ae296e4715b75',
    'vrpsg-box-logistic-proportional-last': '87ddfe94305f5b5f8699226277be969754c37c882de52e29885153503fd7bc10',
    'vrpsg2-box-logistic-uniform-avg': '9c2f1482e4315576dc13f1951c03dd9d73f1dc0c03d019d91cd00ec99d57d893',
    'vrpsg2-box-logistic-uniform-last': 'c8a2f427b9e2e5d4703a5f98286a6e9961a00670a820b729b7c6d8d01a0e2d76',
    'vrpsg2-box-logistic-proportional-avg': 'f2e89ce207771bf19147dc812f8807357dc5c99edee143621c3720d2b717b6ce',
    'vrpsg2-box-logistic-proportional-last': 'bb313ef2f56460981b1c7fde2a5ce66b4ce4c795c5f2e5994797dc9ed283e122',
    'sgd-box-logistic': 'f32caa0ee78668a138f94f84a77e115c9a0ab802d64eb578285de6a1b7d8ffb6',
    'afg-box-logistic': '651fbdeec1620f16cd204c672f7ba6022dc6c4af2fa0d3ff6d05ca1d42d59d14',
    'prox_svrg-lam-logistic-uniform-avg': '6fe4c894c41db01319a5754e3b15efd5bad89911bc97386b67bfbd55678a894c',
    'prox_svrg-lam-logistic-uniform-last': '38552e74d82cb8f2dc13945d834b27882ef31677dc57649a29dc8ff1c846a892',
    'prox_svrg-lam-logistic-proportional-avg': '8d3d20e2b42fa1e3bb78ca3df247b4787d4cdc9f9fda846f4b2aa085d17b6438',
    'prox_svrg-lam-logistic-proportional-last': 'c27cadae28a907d448aa593190dc3da3a2d3430123640ad1c52437349824c67b',
    'afg-lam-logistic': '03f341ac2fa4b317dfdac8d2a84586660ca210bfcbf3955ed26678bbd9c7d032',
    'prox_svrg-lam0-logistic-uniform-avg': '8c1179e79b6657dd574b41904bbadeea5f1e646466353ed817c7d323f968a902',
    'prox_svrg-lam0-logistic-uniform-last': 'e4de96c0403fd3d5fd6159717455f5f40224bf037ccc0af40ee6309cf65c581a',
    'prox_svrg-lam0-logistic-proportional-avg': '1ad270d3ac35e3851729b171a85c1ecd71cece4f30f7a68da9663127ad2cce04',
    'prox_svrg-lam0-logistic-proportional-last': '98e52171c262e61d6d6403a2991205fb650e745d84a19362c4b1ab0a07423a3c',
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


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        sys.stdout.write("GOLDEN = {\n")
        for case in _cases():
            sys.stdout.write(f"    {case!r}: {_digest(_run(case), tmp)!r},\n")
        sys.stdout.write("}\n")
