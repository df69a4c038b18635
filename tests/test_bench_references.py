"""Every benchmark workload still reproduces its recorded reference.

The benchmark checks each run against ``bench/reference`` to 1e-9
relative, so without this test a drift there (in the Korn column, say)
would show only when the benchmark runs.  Each workload runs once, as
variant 0, through the benchmark's own runner: a fresh process with one
BLAS thread, its outputs judged by ``bench/checks.check_run``.
"""

from pathlib import Path

import pytest

from conftest import bench_module

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = bench_module("workloads").WORKLOADS


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_matches_reference(name, tmp_path):
    bench = bench_module("run")
    runner = bench.Runner(ROOT, bench.WORKLOADS[name], 0, tmp_path / "work", bench.REFERENCE_DIR)
    run = runner.run_once()
    assert run.problem is None, run.problem
