"""The benchmark's tracer, perfbench/tracing.py, rebinds library functions
by name and reads the subgroup-lattice cache key "all", and every perfbench
script imports names from hurwitz.  A rename that breaks any of these fails
here, not only in a benchmark run."""

import ast
import glob
import importlib
import os
import runpy

from hurwitz.groups import cyclic, subgroup_classes

PERFBENCH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                         os.pardir, "perfbench")
TRACING = os.path.join(PERFBENCH, "tracing.py")


def test_traced_layer_functions_exist():
    layer_functions = runpy.run_path(TRACING)["LAYER_FUNCTIONS"]
    assert layer_functions
    for mod_name, fn_name in layer_functions:
        assert mod_name.startswith("hurwitz.")
        fn = getattr(importlib.import_module(mod_name), fn_name, None)
        assert callable(fn), f"{mod_name}.{fn_name}"


def test_lattice_build_sets_the_all_key():
    G = cyclic(6)
    assert "all" not in G._subgroup_cache
    classes = subgroup_classes(G)
    assert len(G._subgroup_cache["all"]) == len(classes)


def test_perfbench_hurwitz_imports_resolve():
    checked = 0
    for path in sorted(glob.glob(os.path.join(PERFBENCH, "*.py"))):
        with open(path) as fh:
            tree = ast.parse(fh.read(), path)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.split(".")[0] == "hurwitz":
                        importlib.import_module(alias.name)
                        checked += 1
            elif isinstance(node, ast.ImportFrom) and node.module and \
                    node.module.split(".")[0] == "hurwitz":
                module = importlib.import_module(node.module)
                for alias in node.names:
                    assert hasattr(module, alias.name), \
                        f"{os.path.basename(path)}: {node.module}.{alias.name}"
                    checked += 1
    assert checked
