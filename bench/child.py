"""One timed ``hermflow`` CLI invocation, in a fresh process.

    python3 bench/child.py <checkout> <result.json> <spans.npz|-> <cli args...>

Imports the package from ``<checkout>/src`` and refuses to run any other
copy.  Writes to ``result.json``: the CLOCK_MONOTONIC reading once
``hermflow.cli`` is imported (the parent subtracts its spawn time to get
set-up time), the wall time of ``hermflow.cli.main``, the time of a fixed
calibration loop run just before and just after it, its exit code, the
peak resident memory and the environment.  With a span path, the layer
tracer is installed after the import and its spans are written there.

With one BLAS thread the process stays on one CPU, so that the calibration
loop measures the core the solver runs on.
"""

import json
import os
import sys
import time
from pathlib import Path

CAL_LOOP = 2_000_000


def calibrate() -> float:
    """Seconds a fixed pure-Python loop takes: the speed of this core now."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(CAL_LOOP):
        acc += i * i
    return time.perf_counter() - t0


cpus = sorted(os.sched_getaffinity(0))
if os.environ.get("OPENBLAS_NUM_THREADS") == "1":
    os.sched_setaffinity(0, cpus[:1])
checkout, result_path, spans_path, *cli_args = sys.argv[1:]
src = Path(checkout, "src").resolve()
sys.path.insert(0, str(src))

import hermflow.cli  # noqa: E402

import_done = time.monotonic()
if not Path(hermflow.cli.__file__).resolve().is_relative_to(src):
    sys.exit(f"imported hermflow from {hermflow.cli.__file__}, not from {src}")

tracer = None
if spans_path != "-":
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()

cal_before = calibrate()
t0 = time.perf_counter()
try:
    code = hermflow.cli.main(cli_args)
except SystemExit as exc:  # argparse rejects its arguments this way
    code = exc.code
wall_s = time.perf_counter() - t0
cal_s = (cal_before + calibrate()) / 2

import resource  # noqa: E402

import numpy  # noqa: E402
import scipy  # noqa: E402

peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
if tracer is not None:
    tracer.dump(spans_path)
blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
env = {
    "python": sys.version.split()[0],
    "numpy": numpy.__version__,
    "scipy": scipy.__version__,
    "blas": f"{blas.get('name')} {blas.get('version')}",
    "threads": {k: os.environ.get(k) for k in
                ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    "nproc": len(cpus),
}
Path(result_path).write_text(json.dumps({
    "import_done": import_done, "wall_s": wall_s, "cal_s": cal_s, "exit_code": code,
    "peak_rss_mb": peak_kb / 1024.0, "env": env,
}))
