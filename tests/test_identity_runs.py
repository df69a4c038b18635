"""``tools/identity_runs.py``: the twelve runs it makes and what each keeps."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

_spec = importlib.util.spec_from_file_location("identity_runs",
                                               ROOT / "tools" / "identity_runs.py")
tool = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tool)

TINY = """\
[model]
a = 1.0
kappa = 1.0
nu = 0.5
lambda = 2.0

[frame]
dim = 1
degree = 6

[initial]
family = tilted
alpha = 0.2

[time]
dt = 1e-3
t_final = 0.003

[run]
mode = simulate
"""


def test_both_variants_of_every_workload_and_every_shipped_config():
    configs = tool.identity_configs(ROOT)
    workloads = [f"{w}-{v}" for w in ("osc1d", "trap2d", "sweep1d", "dilated1d") for v in (0, 1)]
    shipped = sorted(p.stem for p in (ROOT / "configs").glob("*.cfg"))
    assert list(configs) == workloads + shipped
    assert len(configs) == 12
    assert {tool._mode(text) for text in configs.values()} == {
        "simulate", "verify", "sweep", "rescaled"}
    assert configs["oscillation"] == (ROOT / "configs" / "oscillation.cfg").read_text()


def test_a_run_keeps_config_artifacts_streams_and_exit_code(tmp_path):
    runs = [tmp_path / name / "run" for name in ("a", "b")]
    for run_dir in runs:
        assert tool.run_one(ROOT, run_dir, TINY) == 0
    kept = sorted(str(p.relative_to(runs[0])) for p in runs[0].rglob("*") if p.is_file())
    assert kept == ["artifacts/summary.json", "artifacts/trajectory.csv", "config.cfg",
                    "exit_code", "stderr", "stdout"]
    assert (runs[0] / "config.cfg").read_text() == TINY
    assert (runs[0] / "exit_code").read_text() == "0\n"
    assert (runs[0] / "stderr").read_text() == ""
    # the run directory is the working directory: two runs keep the same bytes
    for name in kept:
        assert (runs[0] / name).read_bytes() == (runs[1] / name).read_bytes(), name


def test_a_failing_run_keeps_its_exit_code_and_message(tmp_path):
    run_dir = tmp_path / "run"
    assert tool.run_one(ROOT, run_dir, TINY.replace("dt = 1e-3", "dt = -1e-3")) == 3
    assert (run_dir / "exit_code").read_text() == "3\n"
    assert (run_dir / "stderr").read_text().startswith("config error:")
