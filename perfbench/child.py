"""One benchmark call in a fresh interpreter.

    python3 perfbench/child.py SPEC.json RESULT.json

SPEC names the checkout's ``src`` directory, the bundled scenario, the CLI
arguments and whether to trace.  The child imports ``dpl_heatlab`` from that
``src`` only, loads and validates the scenario (set-up ends here), then times
one ``dpl_heatlab.cli.main`` call and writes RESULT.  The parent pins the
BLAS/OpenMP pools through the environment before this interpreter starts.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import sys
import time


def _cpu_seconds():
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine() or "unknown"


def _environment(threads_arg):
    import numpy
    import scipy
    from dpl_heatlab.series import resolve_threads

    blas = {}
    try:
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": deps.get("name"), "version": deps.get("version")}
    except (TypeError, KeyError):
        pass
    pins = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_thread_pin": {k: os.environ.get(k) for k in pins},
        "threads_arg": threads_arg,
        "threads_resolved": resolve_threads(threads_arg),
    }


def main(spec_path, result_path):
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    src = os.path.abspath(spec["src"])
    sys.path.insert(0, src)
    import dpl_heatlab
    from dpl_heatlab import cli, model

    if not os.path.abspath(dpl_heatlab.__file__).startswith(src + os.sep):
        print(f"dpl_heatlab imported from {dpl_heatlab.__file__}, "
              f"not from {src}", file=sys.stderr)
        return 2
    scenario, _fdm = model.load_bundled(spec["scenario"])
    ready = time.monotonic()
    result = {"ready": ready,
              "scenario": {"L": scenario.L, "H": scenario.H,
                           "T0": scenario.T0}}
    if spec.get("environment"):
        result["environment"] = _environment(spec.get("threads"))

    if spec.get("argv") is not None:
        tracer = None
        if spec.get("trace"):
            from tracer import Tracer
            tracer = Tracer().install()
            if spec.get("error_bound"):
                tracer.error_bounds = []
        cpu0 = _cpu_seconds()
        w0 = time.perf_counter()
        rc = cli.main(spec["argv"])
        w1 = time.perf_counter()
        cpu1 = _cpu_seconds()
        result.update(rc=rc, wall_s=w1 - w0, cpu_s=cpu1 - cpu0)
        if tracer is not None:
            result["trace"] = tracer.summary()

    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
