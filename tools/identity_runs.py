"""The identity runs: every benchmark workload config and every shipped config,
run through ``hermflow.cli.main`` of one source root, all output kept.

    python3 tools/identity_runs.py SOURCE_ROOT OUTPUT_DIR
    diff -r OUTPUT_DIR_A OUTPUT_DIR_B

There are twelve runs: both variants of the four workloads of
``SOURCE_ROOT/bench/workloads.py``, each config written by the workload's
``config_text``, and the four ``SOURCE_ROOT/configs/*.cfg``.  Each runs in
a fresh process with ``OMP_NUM_THREADS=OPENBLAS_NUM_THREADS=1`` and
``PYTHONPATH=SOURCE_ROOT/src``, with ``OUTPUT_DIR/<run>`` as its working
directory, so every path it prints or writes is the same for any source
root.  That directory keeps the config (``config.cfg``), the artifacts
(``artifacts/``), ``stdout``, ``stderr`` and ``exit_code``.  Two source
roots give the same trajectories when ``diff -r`` of their output
directories is empty.
"""

from __future__ import annotations

import configparser
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

# runs main in the child with the CLI's arguments, exiting with its code
_CHILD = "import sys, hermflow.cli; sys.exit(hermflow.cli.main(sys.argv[1:]))"


def _workloads(root: Path) -> tuple:
    """WORKLOADS and VARIANTS of the root's bench/workloads.py, loaded from its file."""
    path = root / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("identity_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up by name
    spec.loader.exec_module(module)
    return module.WORKLOADS, module.VARIANTS


def _mode(text: str) -> str:
    parser = configparser.ConfigParser(interpolation=None, inline_comment_prefixes=("#",))
    parser.read_string(text)
    return parser["run"]["mode"]


def identity_configs(root: Path) -> dict:
    """Run name -> config text, workload variants first."""
    workloads, variants = _workloads(root)
    configs = {f"{name}-{v}": w.config_text(v)
               for name, w in workloads.items() for v in range(variants)}
    for path in sorted((root / "configs").glob("*.cfg")):
        configs[path.stem] = path.read_text()
    return configs


def run_one(root: Path, run_dir: Path, text: str) -> int:
    """One CLI run of ``text`` in ``run_dir``, its output written there; its exit code."""
    run_dir.mkdir(parents=True)
    (run_dir / "config.cfg").write_text(text)
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=str(root / "src"))
    args = [_mode(text), "config.cfg", "--output-dir", "artifacts"]
    with open(run_dir / "stdout", "wb") as out, open(run_dir / "stderr", "wb") as err:
        code = subprocess.run([sys.executable, "-c", _CHILD, *args], cwd=run_dir, env=env,
                              stdout=out, stderr=err).returncode
    (run_dir / "exit_code").write_text(f"{code}\n")
    return code


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    root, out = Path(argv[0]).resolve(), Path(argv[1]).resolve()
    if out.exists():
        print(f"{out} exists; give a new output directory", file=sys.stderr)
        return 2
    for name, text in identity_configs(root).items():
        code = run_one(root, out / name, text)
        print(f"{name}: exit {code}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
