"""Each module's ``__all__`` names exactly its public functions and classes.

A public function or class missing from ``__all__`` is hidden from a star
import and from the documented surface, whether a ``class`` statement or a
call such as ``make_dataclass`` made it; a name in ``__all__`` that the
module no longer binds is a stale export left behind by a deletion.
Constants may be exported too, so any other module-level binding may
appear in ``__all__``; modules without ``__all__`` are not checked.
"""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "hermflow"


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _exports(tree: ast.Module):
    """The names listed in the module's ``__all__``, or None without one."""
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            return ast.literal_eval(node.value)
    return None


MODULES = [p for p in sorted(PACKAGE.glob("*.py"))
           if p.name != "__init__.py" and _exports(_parse(p)) is not None]


def _bindings(tree: ast.Module):
    """(public defs and classes, every name bound at module level)."""
    defs, bound = set(), set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(node.name)
            if not node.name.startswith("_"):
                defs.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            bound.update(t.id for t in targets if isinstance(t, ast.Name))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            bound.update((a.asname or a.name).split(".")[0] for a in node.names)
    return defs, bound


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_all_names_the_public_definitions(path):
    tree = _parse(path)
    exported = _exports(tree)
    defs, bound = _bindings(tree)
    assert len(exported) == len(set(exported)), "a name is listed twice"
    assert sorted(defs - set(exported)) == [], "public definitions missing from __all__"
    assert sorted(set(exported) - bound) == [], "__all__ names what the module does not bind"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_all_names_the_generated_classes(path):
    # a class built at import time has no class statement for the check above
    module = importlib.import_module(f"hermflow.{path.stem}")
    classes = {name for name, value in vars(module).items()
               if not name.startswith("_") and inspect.isclass(value)
               and value.__module__ == module.__name__}
    assert sorted(classes - set(module.__all__)) == [], "public classes missing from __all__"
