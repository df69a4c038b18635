"""Record the reference outputs the benchmark checks every run against.

    python3 bench/record_reference.py

Run from the root of a source checkout at the commit whose outputs are the
reference.  Runs every workload variant once, single-threaded, and stores
its trajectory (or sweep report) xz-compressed under ``bench/reference/``.
"""

from __future__ import annotations

import lzma
import os
import subprocess
import sys
import tempfile
from pathlib import Path

from checks import REFERENCE_DIR, reference_path
from workloads import VARIANTS, WORKLOADS


def main() -> int:
    root = Path.cwd()
    env = dict(os.environ, PYTHONPATH=str(root / "src"), OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    for workload in WORKLOADS.values():
        for variant in range(VARIANTS):
            with tempfile.TemporaryDirectory(dir=root) as tmp:
                cfg = Path(tmp, "config.cfg")
                cfg.write_text(workload.config_text(variant))
                out = Path(tmp, "out")
                subprocess.run([sys.executable, "-m", "hermflow.cli", workload.mode, str(cfg),
                                "--output-dir", str(out)], env=env, cwd=root, check=True)
                dest = reference_path(REFERENCE_DIR, workload, variant)
                dest.parent.mkdir(parents=True, exist_ok=True)
                data = (out / workload.output_files[0]).read_bytes()
                dest.write_bytes(lzma.compress(data, preset=9 | lzma.PRESET_EXTREME))
                print(f"{workload.name} v{variant}: {len(data)} bytes -> {dest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
