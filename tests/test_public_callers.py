"""Every public module-level function in the package has a caller in the package.

A public function whose only caller is a test is API kept alive for the
tests alone.  Two kinds are exempt, both read from the files that name
them rather than listed here: the functions the benchmark traces
(``TRACED_FUNCTIONS`` in ``bench/run.py``) and the functions the
acceptance tests import.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "hermflow"


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _referenced_names(node: ast.AST) -> set[str]:
    """Names read under ``node``, bare (``f``) or as an attribute (``mod.f``)."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
    return names


def traced_functions() -> set[tuple[str, str]]:
    """(module, function) pairs of ``TRACED_FUNCTIONS`` in ``bench/run.py``."""
    for node in _parse(ROOT / "bench" / "run.py").body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "TRACED_FUNCTIONS"
                        for t in node.targets)):
            return {tuple(name.split(".")) for name in ast.literal_eval(node.value)}
    raise AssertionError("bench/run.py defines no TRACED_FUNCTIONS")


def acceptance_imports() -> set[str]:
    """Names ``tests/test_acceptance.py`` imports from the package."""
    names = set()
    for node in ast.walk(_parse(ROOT / "tests" / "test_acceptance.py")):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("hermflow"):
            names.update(alias.name for alias in node.names)
    return names


def uncalled_public_functions() -> list[str]:
    """``module.function`` for every public module-level function that no
    code in the package reads outside the function's own body."""
    defined = []  # (module, name)
    callers: dict[str, set[tuple[str, str | None]]] = {}  # name -> {(module, enclosing def)}
    for path in sorted(PACKAGE.glob("*.py")):
        module = path.stem
        for node in _parse(path).body:
            is_def = isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            if is_def and not node.name.startswith("_"):
                defined.append((module, node.name))
            owner = node.name if is_def else None
            for name in _referenced_names(node):
                callers.setdefault(name, set()).add((module, owner))
    traced, accepted = traced_functions(), acceptance_imports()
    return [
        f"{module}.{name}" for module, name in defined
        if (module, name) not in traced and name not in accepted
        and not callers.get(name, set()) - {(module, name)}
    ]


def test_every_public_function_has_a_package_caller():
    assert uncalled_public_functions() == []

