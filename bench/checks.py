"""Output checks for one CLI run against its recorded reference.

A run passes when its exit code is 0 (``hermflow sweep`` exits non-zero
when a member fails its audit), every verdict it writes is true, and
its trajectory (or sweep report) matches the reference recorded at the
seed commit number by number: |run - ref| <= RTOL * max(1, |ref|).  RTOL
admits reordered round-off (two BLAS threads move the 2D trajectory by
about 1e-11 relative) and Picard iterates that settle one sweep apart
(``picard_tol`` is 1e-10), while any change to the numerics fails.
Byte identity of the CSV is reported beside the verdict, as information.
"""

from __future__ import annotations

import csv
import io
import json
import lzma
from pathlib import Path

RTOL = 1e-9

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


def reference_path(ref_dir: Path, workload, variant: int) -> Path:
    main = workload.output_files[0]
    return Path(ref_dir, workload.name, f"v{variant}", main + ".xz")


def _close(x: float, ref: float) -> bool:
    return abs(x - ref) <= RTOL * max(1.0, abs(ref))


def _compare_csv(text: str, ref_text: str) -> str | None:
    rows = list(csv.reader(io.StringIO(text)))
    ref_rows = list(csv.reader(io.StringIO(ref_text)))
    if rows[:1] != ref_rows[:1]:
        return f"header {rows[:1]} differs from reference {ref_rows[:1]}"
    if len(rows) != len(ref_rows):
        return f"{len(rows) - 1} rows, reference has {len(ref_rows) - 1}"
    header = ref_rows[0]
    for i, (row, ref) in enumerate(zip(rows[1:], ref_rows[1:]), start=1):
        for col, x, r in zip(header, row, ref):
            if not _close(float(x), float(r)):
                return f"row {i} {col} = {x}, reference {r}"
    return None


def _compare_json(value, ref, where="report") -> str | None:
    if isinstance(ref, dict):
        if not isinstance(value, dict) or value.keys() != ref.keys():
            return f"{where}: keys differ from reference"
        for key in ref:
            bad = _compare_json(value[key], ref[key], f"{where}.{key}")
            if bad:
                return bad
        return None
    if isinstance(ref, list):
        if not isinstance(value, list) or len(value) != len(ref):
            return f"{where}: length differs from reference"
        for i, (v, r) in enumerate(zip(value, ref)):
            bad = _compare_json(v, r, f"{where}[{i}]")
            if bad:
                return bad
        return None
    if isinstance(ref, float) and isinstance(value, (int, float)) and not isinstance(value, bool):
        return None if _close(float(value), ref) else f"{where} = {value!r}, reference {ref!r}"
    return None if value == ref else f"{where} = {value!r}, reference {ref!r}"


def _verdict_problem(workload, out: Path) -> str | None:
    if workload.mode == "sweep":
        report = json.loads((out / "sweep_report.json").read_text())
        if report["failed_at"] is not None:
            return f"sweep member n={report['failed_at']} failed"
        if not report["cauchy_monotone_after_burn_in"]:
            return "cauchy_monotone_after_burn_in is false"
        return None
    summary = json.loads((out / "summary.json").read_text())
    failed = [k for k, ok in summary.get("verdicts", {}).items() if not ok]
    if failed:
        return f"verdicts false: {failed}"
    if summary["exit_code"] != 0:
        return f"summary.json records exit code {summary['exit_code']}"
    return None


def check_run(workload, variant: int, out: Path, exit_code,
              ref_dir: Path = REFERENCE_DIR) -> tuple[str | None, bool]:
    """(problem or None, byte-identical to the reference) for one run."""
    if exit_code != 0:
        return f"exit code {exit_code}", False
    missing = [f for f in workload.output_files if not (out / f).is_file()]
    if missing:
        return f"missing outputs {missing}", False
    problem = _verdict_problem(workload, out)
    main = workload.output_files[0]
    text = (out / main).read_text()
    ref_text = lzma.decompress(reference_path(ref_dir, workload, variant).read_bytes()).decode()
    if problem is None:
        if main.endswith(".csv"):
            problem = _compare_csv(text, ref_text)
        else:
            problem = _compare_json(json.loads(text), json.loads(ref_text))
    return problem, text == ref_text
