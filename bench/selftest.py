"""Self-test of the benchmark.

    python3 bench/selftest.py

Run from the root of a source checkout; takes a few minutes.  Checks that

* every workload passes at minimal length (one run per pass), untraced and
  traced, and reports exactly the metrics ``BENCHMARK.json`` names, with
  their units;
* two traced passes of a workload give identical ``.calls`` counts;
* a reference perturbed by one part in a million makes a run fail, for
  both variants of every workload, so the output check is not vacuous;
* in a directory without the package sources the benchmark exits non-zero
  and prints no result.
"""

from __future__ import annotations

import csv
import io
import json
import lzma
import shutil
import subprocess
import sys
from pathlib import Path

from checks import REFERENCE_DIR, reference_path
from run import Runner
from workloads import VARIANTS, WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = Path.cwd()
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(workload: str, trace: int, *extra: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [*SPEC["command"], "--workload", workload, "--seed", "0", "--seconds", "0",
           "--trace", str(trace), *extra]
    cmd[0] = sys.executable
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def expect_metrics(res: dict, spec_key: str, label: str) -> None:
    want = {m["name"]: m["unit"] for m in SPEC[spec_key]}
    got = {name: m["unit"] for name, m in res["metrics"].items()}
    assert got == want, f"{label}: metrics differ from BENCHMARK.json {spec_key}: " \
        f"missing {sorted(want.keys() - got.keys())}, extra {sorted(got.keys() - want.keys())}, " \
        f"units {[(k, got[k], want[k]) for k in want.keys() & got.keys() if got[k] != want[k]]}"
    assert all(isinstance(m["value"], (int, float)) for m in res["metrics"].values()), label


def perturbed_reference(dest: Path) -> Path:
    """Copy of the references with one number changed by one part in 1e6."""
    shutil.rmtree(dest, ignore_errors=True)
    for workload in WORKLOADS.values():
        for variant in range(VARIANTS):
            src = reference_path(REFERENCE_DIR, workload, variant)
            text = lzma.decompress(src.read_bytes()).decode()
            if src.name.startswith("trajectory"):
                rows = list(csv.reader(io.StringIO(text)))
                rows[-1][2] = f"{float(rows[-1][2]) * (1 + 1e-6):.17g}"
                text = "".join(",".join(row) + "\n" for row in rows)
            else:
                report = json.loads(text)
                report["increments"][0]["sqrtq_h1"] *= 1 + 1e-6
                text = json.dumps(report)
            out = reference_path(dest, workload, variant)
            out.parent.mkdir(parents=True, exist_ok=True)
            out.write_bytes(lzma.compress(text.encode()))
    return dest


def main() -> int:
    work = ROOT / ".bench_work" / "selftest"
    work.mkdir(parents=True, exist_ok=True)
    perturbed = perturbed_reference(work / "perturbed")
    for name in WORKLOADS:
        res = result(bench(name, 0))
        assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1, (name, res)
        expect_metrics(res, "end_to_end", f"{name} --trace 0")

        traced = [result(bench(name, 1)) for _ in range(2)]
        for res in traced:
            assert res["correct"] and res["failed"] == 0, (name, res)
            expect_metrics(res, "per_layer", f"{name} --trace 1")
        calls = [{k: m["value"] for k, m in res["metrics"].items() if k.endswith(".calls")}
                 for res in traced]
        assert calls[0] == calls[1], f"{name}: .calls differ between traced runs"

        for variant in range(VARIANTS):
            run = Runner(ROOT, WORKLOADS[name], variant, work / name, perturbed).run_once()
            assert run.problem, f"{name} v{variant}: a perturbed reference was not caught"
        print(f"{name}: ok")

    bare = work / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir()
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench(next(iter(WORKLOADS)), 0, cwd=bare)
    assert proc.returncode != 0 and '"correct"' not in proc.stdout, proc.stdout
    print("without sources: exits", proc.returncode)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
