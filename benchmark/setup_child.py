"""Set-up probe, run in a fresh interpreter: import vrgrad.cli, build the problems.

Usage: python3 setup_child.py CONFIG SRC_DIR TRACE(0|1)

Prints one JSON line: the set-up time from interpreter start of this script
to the last problem built, the import time, and with TRACE=1 the span
summary of the build.
"""

import time

T0 = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402


def main():
    config, src, trace = sys.argv[1], sys.argv[2], sys.argv[3] == "1"
    sys.path.insert(0, src)
    from vrgrad import cli
    t_import = time.perf_counter()
    tracer = None
    if trace:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()  # after the import, so that import_s is untraced
    cfg = cli.load_config(config, [])
    blocks = cfg["datasets"] if "datasets" in cfg else [cfg]
    for block in blocks:
        cli.build_problem({"dataset": block["dataset"], "problem": block["problem"]})
    t_end = time.perf_counter()
    out = {"setup_s": t_end - T0, "import_s": t_import - T0}
    if tracer is not None:
        tracer.uninstall()
        out["spans"] = tracer.summary()
    print(json.dumps(out))


if __name__ == "__main__":
    main()
