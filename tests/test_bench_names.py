"""The span names the benchmark traces must still name code in the package.

``bench/run.py --trace 1`` exits 2 when a name in its ``TRACED_FUNCTIONS``
finds no span, so a renamed or privatized function would otherwise show up
only there.
"""

import importlib
import inspect

from conftest import bench_module


def test_traced_names_resolve_to_package_code():
    traced = bench_module("run").TRACED_FUNCTIONS
    methods = bench_module("tracer").METHODS
    for (layer, cls_name, meth) in methods:
        cls = getattr(importlib.import_module(f"hermflow.{layer}"), cls_name)
        assert inspect.isfunction(getattr(cls, meth, None)), (layer, cls_name, meth)
    for name in traced:
        if name in methods.values() or name == "spectral.synthesize_nodal":
            continue
        layer, attr = name.split(".")
        module = importlib.import_module(f"hermflow.{layer}")
        fn = getattr(module, attr, None)
        assert (inspect.isfunction(fn) and not attr.startswith("_")
                and fn.__module__ == module.__name__), name
