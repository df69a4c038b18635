"""Paired timing of two source roots: a lone time step, then whole CLI runs.

    python3 tools/step_ab.py ROOT_A ROOT_B [--pairs 10] [--steps 200]

Measures, for each root:

* ``step1d`` and ``step2d``: microseconds per lone ``galerkin.coupled_step``
  on the osc1d frame (1D, degree 24, tilt 0.3123) and the trap2d frame
  (2D, degree 20, tilt 0.2), drag free with a = kappa = 1, nu = 0.5,
  lambda = 4 and dt = 1e-3, after five untimed steps; the median of five
  blocks of ``--steps`` steps;
* ``osc1d``, ``trap2d``, ``sweep1d`` and ``dilated1d``: seconds of
  ``hermflow.cli.main`` on the first variant of that workload's config,
  as ROOT_A's ``bench/workloads.py`` writes it.

Every measurement of every pair runs in a fresh process with
``OMP_NUM_THREADS=OPENBLAS_NUM_THREADS=MKL_NUM_THREADS=1`` and
``PYTHONPATH=<root>/src``; within a pair, ROOT_A runs first in even pairs
and ROOT_B first in odd ones.  A CLI run that exits non-zero stops the
tool.  Prints one line per pair with B / A per measurement, then each
side's median and quartiles, the median ratio and the pairs B won.
``--degree-1d``, ``--degree-2d`` and ``--workloads`` shrink the run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from identity_runs import _mode, identity_configs  # noqa: E402

WORKLOADS = ("osc1d", "trap2d", "sweep1d", "dilated1d")

# prints one number: microseconds per lone step, or seconds of cli.main
_STEP_CHILD = """
import statistics, sys, time
from hermflow import build_frame
from hermflow.calculus import ModelParams
from hermflow.galerkin import SimState, coupled_step
from hermflow.sampling import tilted_density
from hermflow.spectral import VectorField
dim, degree, alpha, steps = int(sys.argv[1]), int(sys.argv[2]), float(sys.argv[3]), int(sys.argv[4])
frame = build_frame(1.0, 1.0, 4.0, dim, degree)
params = ModelParams(a=1.0, kappa=1.0, nu=0.5, lam=4.0)
state = SimState(tilted_density(frame, alpha), VectorField.zero(frame))
for _ in range(5):
    state = coupled_step(state, params, 1e-3)
blocks = []
for _ in range(5):
    s, start = state, time.perf_counter()
    for _ in range(steps):
        s = coupled_step(s, params, 1e-3)
    blocks.append((time.perf_counter() - start) / steps * 1e6)
print(statistics.median(blocks))
"""
_CLI_CHILD = """
import sys, time
import hermflow.cli
start = time.perf_counter()
code = hermflow.cli.main(sys.argv[1:])
elapsed = time.perf_counter() - start
if code:
    sys.exit(f"hermflow exited {code}")
print(elapsed)
"""


def measure(root: Path, child: str, args: list[str], cwd: Path) -> float:
    """One measurement in a fresh single-threaded process running ``root``'s sources."""
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONPATH=str(root / "src"))
    proc = subprocess.run([sys.executable, "-c", child, *args], cwd=cwd, env=env,
                          capture_output=True, text=True)
    if proc.returncode:
        raise SystemExit(f"{root}: {' '.join(args)} failed:\n{proc.stderr[-2000:]}")
    return float(proc.stdout.split()[-1])


def plan(args, configs: dict, work: Path) -> dict:
    """Measurement name -> (child code, its arguments)."""
    items = {
        "step1d": (_STEP_CHILD, ["1", str(args.degree_1d), "0.3123", str(args.steps)]),
        "step2d": (_STEP_CHILD, ["2", str(args.degree_2d), "0.2", str(args.steps)]),
    }
    for name in args.workloads:
        text = configs[f"{name}-0"]
        (work / f"{name}.cfg").write_text(text)
        items[name] = (_CLI_CHILD, [_mode(text), f"{name}.cfg", "--output-dir", f"out-{name}"])
    return items


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("root_a", type=Path)
    parser.add_argument("root_b", type=Path)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--steps", type=int, default=200, help="steps per timed block")
    parser.add_argument("--degree-1d", type=int, default=24)
    parser.add_argument("--degree-2d", type=int, default=20)
    parser.add_argument("--workloads", type=lambda s: [w for w in s.split(",") if w],
                        default=list(WORKLOADS),
                        help="comma-separated workloads run through cli.main (empty for none)")
    parser.add_argument("--json", type=Path, help="also write every value here")
    args = parser.parse_args(argv)
    unknown = sorted(set(args.workloads) - set(WORKLOADS))
    if unknown or args.pairs < 1 or args.steps < 1:
        parser.error(f"need pairs and steps >= 1 and workloads among {WORKLOADS}")
    roots = {"A": args.root_a.resolve(), "B": args.root_b.resolve()}

    with tempfile.TemporaryDirectory(prefix="step_ab-") as tmp:
        work = Path(tmp)
        items = plan(args, identity_configs(roots["A"]), work)
        values = {name: {"A": [], "B": []} for name in items}
        for pair in range(args.pairs):
            order = ("A", "B") if pair % 2 == 0 else ("B", "A")
            for name, (child, child_args) in items.items():
                for side in order:
                    values[name][side].append(measure(roots[side], child, child_args, work))
            print(f"pair {pair + 1:>2} ({order[0]} first): " + "  ".join(
                f"{name} {v['B'][-1] / v['A'][-1]:.3f}" for name, v in values.items()),
                flush=True)

    print("B / A per measurement, medians and quartiles (us per step, or s):")
    summary = {}
    for name, v in values.items():
        ratios = [b / a for a, b in zip(v["A"], v["B"])]
        a_q, b_q = quartiles(v["A"]), quartiles(v["B"])
        wins = sum(b < a for a, b in zip(v["A"], v["B"]))
        summary[name] = {"A": v["A"], "B": v["B"], "ratios": ratios,
                         "median_ratio": statistics.median(ratios), "b_faster_in": wins}
        print(f"  {name:<10} A {a_q[1]:.4g} [{a_q[0]:.4g}, {a_q[2]:.4g}]  "
              f"B {b_q[1]:.4g} [{b_q[0]:.4g}, {b_q[2]:.4g}]  "
              f"median ratio {statistics.median(ratios):.3f}  "
              f"B faster in {wins}/{len(ratios)}")
    if args.json:
        args.json.write_text(json.dumps({"roots": {k: str(r) for k, r in roots.items()},
                                         "pairs": args.pairs, "steps": args.steps,
                                         "measurements": summary}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
