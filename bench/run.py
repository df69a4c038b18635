"""Benchmark of the ``hermflow`` command line, end to end and per layer.

    python3 bench/run.py --workload osc1d --seed 0 --seconds 27 --trace 0

Run from the root of a source checkout.  A closed loop with one client:
the workload's CLI command runs again and again, one run at a time, each
in a fresh process with ``OMP_NUM_THREADS=OPENBLAS_NUM_THREADS=1`` set
before numpy loads, until ``--seconds`` have passed.  Every run's outputs
are checked (``checks.py``); a run that fails them counts in ``failed``,
and the table above the result line prints ``fail_rate`` (failed over
attempted runs).  It is not among the gated metrics because it is 0 when
all is well, and ``correct`` already rejects any failure.

``--trace 0`` reports the end-to-end metrics as medians over the runs:
``wall_ref_s``, the wall time of ``hermflow.cli.main``, ``steps_per_ref_s``,
time steps per second of it, ``setup_s``, process start until
``hermflow.cli`` is imported, and ``peak_rss_mb``.  The three times are
scaled to a reference core speed (see REF_CAL_S); the unscaled medians are
printed beside them.  ``--trace 1`` spends half the
time on untraced runs, for the base of the tracing overhead, then makes
one traced run, whose layer spans give the per-layer metrics; on the 2D
workload it adds one untraced run at two BLAS threads, printed for
information only.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from checks import REFERENCE_DIR, check_run
from tracer import summarize
from workloads import WORKLOADS, variant_of

BENCH_DIR = Path(__file__).resolve().parent
CHILD_TIMEOUT_S = 120
# On a shared host a core's speed can halve for a minute at a time while
# other tenants load it, which moves the solver's wall time as much as any
# code change would.  Each run therefore times a fixed loop (child.calibrate)
# on the solver's core just before and after the solver, and the gated times
# are scaled to a core on which that loop takes REF_CAL_S, about its time on
# a 2.1 GHz Xeon core in the host's fast phases.
REF_CAL_S = 0.12

# Spans reported as <name>.calls and <name>.self_s.
TRACED_FUNCTIONS = (
    "spectral.build_frame", "spectral.multiply", "spectral.project_nodal",
    "spectral.synthesize_nodal",
    "calculus.gradient_nodal", "calculus.hessian_nodal", "calculus.div_m",
    "fokker_planck.fp_step", "fokker_planck.envelope_update",
    "galerkin.assemble_mass", "galerkin.mass_solve", "galerkin.momentum_rhs",
    "galerkin.coupled_step",
    "diagnostics.record", "diagnostics.bd_entropy_regularized",
    "diagnostics.lsi_margins", "diagnostics.check_hessian_lemma",
    "diagnostics.energy_inequality_audit",
    "rescaled.rescaled_step", "rescaled.rescaled_energy",
    "rescaled.rescaled_bd_remainder", "rescaled.tau_solve",
    "continuation.mollify_initial_data", "continuation.vanishing_drag_sweep",
    "driver.simulate", "cli.main",
)
LAYERS = ("spectral", "calculus", "fokker_planck", "galerkin", "diagnostics",
          "rescaled", "continuation", "driver", "cli")


@dataclass
class Run:
    problem: str | None
    identical: bool = False
    wall_s: float | None = None
    cal_s: float | None = None
    setup_s: float | None = None
    peak_rss_mb: float | None = None
    env: dict | None = None

    def at_ref(self, seconds: float) -> float:
        """``seconds`` measured in this run, scaled to the reference core speed."""
        return seconds * REF_CAL_S / self.cal_s


class Runner:
    """Launches the workload's CLI command in fresh processes and checks each."""

    def __init__(self, root: Path, workload, variant: int, work: Path, ref_dir: Path):
        self.root, self.workload, self.variant = root, workload, variant
        self.work, self.ref_dir = work, ref_dir
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        self.config = work / "config.cfg"
        self.config.write_text(workload.config_text(variant))

    def run_once(self, threads: int = 1, spans: Path | None = None) -> Run:
        out, result = self.work / "out", self.work / "result.json"
        shutil.rmtree(out, ignore_errors=True)
        result.unlink(missing_ok=True)
        env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
        env.update(OMP_NUM_THREADS=str(threads), OPENBLAS_NUM_THREADS=str(threads),
                   MKL_NUM_THREADS=str(threads))
        cmd = [sys.executable, str(BENCH_DIR / "child.py"), str(self.root), str(result),
               str(spans) if spans else "-", self.workload.mode, str(self.config),
               "--output-dir", str(out)]
        log = self.work / "child.log"
        with open(log, "w") as handle:
            spawned = time.monotonic()
            try:
                proc = subprocess.run(cmd, stdout=handle, stderr=subprocess.STDOUT,
                                      cwd=self.root, env=env, timeout=CHILD_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                return Run(f"timed out after {CHILD_TIMEOUT_S} s")
        if proc.returncode != 0 or not result.is_file():
            tail = log.read_text()[-2000:]
            return Run(f"benchmark child exited {proc.returncode}:\n{tail}")
        res = json.loads(result.read_text())
        try:
            problem, identical = check_run(self.workload, self.variant, out,
                                           res["exit_code"], self.ref_dir)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            problem, identical = f"unreadable output: {exc!r}", False
        return Run(problem, identical, res["wall_s"], res["cal_s"], res["import_done"] - spawned,
                   res["peak_rss_mb"], res["env"])

    def repeat(self, seconds: float) -> list[Run]:
        """At least one run, then more until ``seconds`` have passed."""
        deadline = time.monotonic() + seconds
        runs = [self.run_once()]
        while time.monotonic() < deadline:
            runs.append(self.run_once())
        return runs


def _median(values) -> float | None:
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


def end_to_end(runs: list[Run], steps: int) -> dict:
    timed = [r for r in runs if r.wall_s is not None]
    return {
        "wall_ref_s": (_median(r.at_ref(r.wall_s) for r in timed), "s"),
        "steps_per_ref_s": (_median(steps / r.at_ref(r.wall_s) for r in timed), "1/s"),
        "setup_s": (_median(r.at_ref(r.setup_s) for r in timed), "s"),
        "peak_rss_mb": (_median(r.peak_rss_mb for r in timed), "MB"),
    }


def as_measured(runs: list[Run], steps: int) -> dict:
    """Unscaled medians, printed beside the gated metrics."""
    timed = [r for r in runs if r.wall_s is not None]
    return {
        "wall_s": (_median(r.wall_s for r in timed), "s"),
        "steps_per_s": (_median(steps / r.wall_s for r in timed), "1/s"),
        "setup_s": (_median(r.setup_s for r in timed), "s"),
        "cal_s": (_median(r.cal_s for r in timed), "s"),
    }


def per_layer(spans: dict, steps: int, untraced: list[Run], traced: Run) -> dict:
    metrics = {}
    for name in TRACED_FUNCTIONS:
        calls, busy = spans[name]
        metrics[f"{name}.calls"] = (calls, "count")
        metrics[f"{name}.self_s"] = (busy, "s")
    for layer in LAYERS:
        mine = [v for k, v in spans.items() if k.startswith(layer + ".")]
        metrics[f"{layer}.calls"] = (sum(c for c, _ in mine), "count")
        metrics[f"{layer}.self_s"] = (sum(b for _, b in mine), "s")
    metrics["galerkin.mass_per_step"] = (metrics["galerkin.assemble_mass.calls"][0] / steps, "1/step")
    metrics["galerkin.sweeps_per_step"] = (metrics["galerkin.momentum_rhs.calls"][0] / steps, "1/step")
    base = _median(r.at_ref(r.wall_s) for r in untraced if r.wall_s is not None)
    metrics["trace.overhead_s"] = (None if None in (traced.wall_s, base)
                                   else traced.at_ref(traced.wall_s) - base, "s")
    return metrics


def source_state(root: Path) -> dict:
    """Digest of the package sources, and the git commit when there is one."""
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    state = {"src_sha256": digest.hexdigest(), "git_commit": None, "git_dirty": None}
    if (root / ".git").exists():
        try:
            state["git_commit"] = subprocess.run(
                ["git", "-C", str(root), "rev-parse", "HEAD"], capture_output=True,
                text=True, check=True, timeout=30).stdout.strip()
            state["git_dirty"] = bool(subprocess.run(
                ["git", "-C", str(root), "status", "--porcelain"], capture_output=True,
                text=True, check=True, timeout=30).stdout.strip())
        except (OSError, subprocess.SubprocessError):
            pass
    return state


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    # on SIGTERM, unwind so subprocess.run kills and reaps the running child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    root = Path.cwd()
    if not (root / "src" / "hermflow" / "cli.py").is_file():
        print(f"no hermflow sources under {root / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    variant = variant_of(args.seed)
    runner = Runner(root, workload, variant, root / ".bench_work" / f"{workload.name}-{args.seed}",
                    REFERENCE_DIR)

    if args.trace:
        untraced = runner.repeat(args.seconds / 2)
        span_file = runner.work / "spans.npz"
        traced = runner.run_once(spans=span_file)
        runs = untraced + [traced]
        # every wrapped function has an entry, called or not: a missing
        # name means the tracer missed it, not that it cost nothing
        spans = summarize(span_file) if span_file.is_file() else {}
        missing = [name for name in TRACED_FUNCTIONS if name not in spans]
        if missing:
            print(f"traced run: {traced.problem or 'no spans for ' + ', '.join(missing)}",
                  file=sys.stderr)
            return 2
        metrics = per_layer(spans, workload.steps, untraced, traced)
        info = as_measured(untraced, workload.steps)
        if workload.dim == 2:
            blas2 = runner.run_once(threads=2)
            runs.append(blas2)
            info["blas2.wall_s"] = (blas2.wall_s, "s")
    else:
        runs = runner.repeat(args.seconds)
        metrics = end_to_end(runs, workload.steps)
        info = as_measured(runs, workload.steps)

    failed = [r for r in runs if r.problem]
    for r in failed:
        print(f"run failed: {r.problem}", file=sys.stderr)
    print(f"workload {workload.name}  seed {args.seed}  variant {variant}  "
          f"steps {workload.steps}  runs {len(runs)}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<44} {value!s:>22} {unit}")
    print("  as measured, not gated:")
    for name, (value, unit) in info.items():
        print(f"  {name:<44} {value!s:>22} {unit}")
    print(f"  {'fail_rate':<44} {len(failed) / len(runs):>22} 1  ({len(failed)} of {len(runs)} runs)")
    print(f"  byte-identical to the reference: {sum(r.identical for r in runs)} of {len(runs)} runs")
    print("  wall_s per run: " + " ".join(f"{r.wall_s:.4f}" for r in runs if r.wall_s is not None))
    print("  cal_s per run:  " + " ".join(f"{r.cal_s:.4f}" for r in runs if r.cal_s is not None))
    env = next((r.env for r in runs if r.env), {})
    print("env " + json.dumps({**env, **source_state(root)}, sort_keys=True))
    print(json.dumps({
        "correct": not failed,
        "attempted": len(runs),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
