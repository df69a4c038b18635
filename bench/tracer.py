"""Layer spans recorded from outside the package, by wrapping its functions.

Every public function defined in a layer module is replaced by a wrapper,
both on its own module and on every ``hermflow`` module that bound it with
``from .x import f``; two methods are wrapped on their class, and so is
the nodal synthesis behind the lazy ``ScalarField.nodal``.  Each call
appends one span (name, start, end, parent span) to flat in-memory arrays,
which ``dump`` writes out once the run is over.  Nothing in ``src/`` is
changed, and only the process that installs the tracer is affected.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from array import array

import numpy as np

# config, sampling and errors do negligible work and stay unwrapped
LAYERS = ("spectral", "calculus", "fokker_planck", "galerkin", "diagnostics",
          "rescaled", "continuation", "driver", "cli")
# (module, class, method) -> span name
METHODS = {
    ("galerkin", "MassOperator", "solve"): "galerkin.mass_solve",
    ("spectral", "GaussianFrame", "project_nodal"): "spectral.project_nodal",
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_id = array("l")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        stack, clock = self._stack, time.perf_counter
        name_ids, parents, starts, ends = self.name_id, self.parent, self.start, self.end

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        return traced

    def install(self, package: str = "hermflow") -> None:
        """Wrap the layer functions and rebind every reference to them."""
        wrappers = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"{package}.{layer}")
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__):
                    wrappers[obj] = self.wrap(f"{layer}.{attr}", obj)
        for (layer, cls_name, meth), name in METHODS.items():
            cls = getattr(importlib.import_module(f"{package}.{layer}"), cls_name)
            setattr(cls, meth, self.wrap(name, getattr(cls, meth)))
        # ScalarField.nodal synthesizes (frame.V @ coeffs) on first access and
        # caches the result; only the synthesis gets a span
        field = importlib.import_module(f"{package}.spectral").ScalarField
        synthesize = self.wrap("spectral.synthesize_nodal", field.nodal.fget)
        field.nodal = property(
            lambda f: f._nodal if f._nodal is not None else synthesize(f))
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == package or mod_name.startswith(package + ".")):
                continue
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(mod, attr, wrappers[obj])

    def dump(self, path) -> None:
        np.savez(path, names=np.array(self.names), name_id=np.array(self.name_id),
                 parent=np.array(self.parent), start=np.array(self.start),
                 end=np.array(self.end))


def summarize(path) -> dict[str, tuple[int, float]]:
    """Per span name: (calls, self seconds) from a dumped span file.

    Self time is a span's duration minus the durations of its direct
    children; spans nest strictly because the solver is single-threaded.
    """
    with np.load(path) as data:
        names = [str(n) for n in data["names"]]
        name_id, parent = data["name_id"], data["parent"]
        dur = data["end"] - data["start"]
    self_t = dur.copy()
    nested = parent >= 0
    np.subtract.at(self_t, parent[nested], dur[nested])
    calls = np.bincount(name_id, minlength=len(names))
    busy = np.bincount(name_id, weights=self_t, minlength=len(names))
    return {n: (int(calls[i]), float(busy[i])) for i, n in enumerate(names)}
