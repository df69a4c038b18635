"""One march loop: only ``driver.march`` steps the coupled system over time,
and only ``driver`` stacks a chunk of recorded states.

Every marching mode (``simulate``, the sweep, the dilated ``rescaled``
mode) goes through ``driver.march``; the only other reader of
``coupled_step`` in the package is ``rescaled.rescaled_step``, the single
dilated step.  A second loop that calls ``coupled_step`` fails here.
``driver.march`` stacks each record chunk into one bundle that every
recorder reads, and ``galerkin.stack_states`` stacks the members of a
step; a recorder that stacks its states again fails here.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "hermflow"


def owners(match) -> set[tuple[str, str | None]]:
    """(module, top-level definition) of every AST node in the package that
    ``match`` accepts; None for module-level code."""
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            owner = (node.name if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                                    ast.ClassDef)) else None)
            if any(match(sub) for sub in ast.walk(node)):
                found.add((path.stem, owner))
    return found


def readers(name: str) -> set[tuple[str, str | None]]:
    """Where the package reads ``name``, bare or as an attribute."""
    return owners(lambda sub: (isinstance(sub, ast.Name) and sub.id == name
                               and isinstance(sub.ctx, ast.Load))
                  or (isinstance(sub, ast.Attribute) and sub.attr == name))


def test_only_march_and_rescaled_step_read_coupled_step():
    assert readers("coupled_step") == {("driver", "march"), ("rescaled", "rescaled_step")}


def test_only_the_record_chunk_and_stack_states_stack_fields():
    stackers = owners(lambda sub: isinstance(sub, ast.Attribute) and sub.attr == "stack"
                      and isinstance(sub.value, ast.Name)
                      and sub.value.id in ("ScalarField", "VectorField"))
    assert stackers == {("driver", "_record_chunk"), ("galerkin", "stack_states")}
