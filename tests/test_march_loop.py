"""One march loop: only ``driver.march`` steps the coupled system over time.

Every marching mode (``simulate``, the sweep, the dilated ``rescaled``
mode) goes through ``driver.march``; the only other reader of
``coupled_step`` in the package is ``rescaled.rescaled_step``, the single
dilated step.  A second loop that calls ``coupled_step`` fails here.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "hermflow"


def readers(name: str) -> set[tuple[str, str | None]]:
    """(module, top-level definition) of every read of ``name`` in the
    package, bare or as an attribute; None for module-level code."""
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            owner = (node.name if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                                    ast.ClassDef)) else None)
            for sub in ast.walk(node):
                if ((isinstance(sub, ast.Name) and sub.id == name
                     and isinstance(sub.ctx, ast.Load))
                        or (isinstance(sub, ast.Attribute) and sub.attr == name)):
                    found.add((path.stem, owner))
    return found


def test_only_march_and_rescaled_step_read_coupled_step():
    assert readers("coupled_step") == {("driver", "march"), ("rescaled", "rescaled_step")}
