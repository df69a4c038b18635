"""``tools/step_ab.py``: a tiny paired run of one source root against itself."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

_spec = importlib.util.spec_from_file_location("step_ab", ROOT / "tools" / "step_ab.py")
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


def test_pairs_alternate_and_report_every_measurement(tmp_path, capsys):
    out = tmp_path / "ab.json"
    assert tool.main([str(ROOT), str(ROOT), "--pairs", "2", "--steps", "2",
                      "--degree-1d", "4", "--degree-2d", "2", "--workloads", "",
                      "--json", str(out)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("pair  1 (A first): step1d ")
    assert lines[1].startswith("pair  2 (B first): step1d ")
    names = [line.split()[0] for line in lines[3:]]
    assert names == ["step1d", "step2d"]
    result = json.loads(out.read_text())["measurements"]
    for name in names:
        m = result[name]
        assert len(m["A"]) == len(m["B"]) == len(m["ratios"]) == 2
        assert all(v > 0.0 for v in m["A"] + m["B"])
        assert 0 <= m["b_faster_in"] <= 2


def test_a_cli_run_is_timed_in_its_own_process(tmp_path):
    (tmp_path / "tiny.cfg").write_text(TINY)
    seconds = tool.measure(ROOT, tool._CLI_CHILD,
                           ["simulate", "tiny.cfg", "--output-dir", "out"], tmp_path)
    assert seconds > 0.0
    assert (tmp_path / "out" / "trajectory.csv").is_file()
    (tmp_path / "bad.cfg").write_text(TINY.replace("dt = 1e-3", "dt = -1e-3"))
    with pytest.raises(SystemExit, match="hermflow exited 3"):
        tool.measure(ROOT, tool._CLI_CHILD, ["simulate", "bad.cfg", "--output-dir", "out"],
                     tmp_path)


def test_a_failing_measurement_stops_the_tool(tmp_path):
    # a root whose package cannot step: the tool exits naming the failure
    broken = tmp_path / "broken"
    (broken / "src" / "hermflow").mkdir(parents=True)
    (broken / "src" / "hermflow" / "__init__.py").write_text("")
    with pytest.raises(SystemExit, match="failed"):
        tool.main([str(ROOT), str(broken), "--pairs", "1", "--steps", "1",
                   "--degree-1d", "2", "--degree-2d", "1", "--workloads", ""])
