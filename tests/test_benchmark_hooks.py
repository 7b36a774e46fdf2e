"""The benchmark's tracer, perfbench/tracing.py, rebinds library functions
by name and reads the subgroup-lattice cache key "all", and every perfbench
script imports names from hurwitz and uses attributes of hurwitz modules.
A rename that breaks any of these fails here, not only in a benchmark
run."""

import ast
import glob
import importlib
import inspect
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


def _dotted(node):
    """["a", "b", "c"] for the attribute chain a.b.c on a name, else None."""
    attrs = []
    while isinstance(node, ast.Attribute):
        attrs.append(node.attr)
        node = node.value
    return [node.id] + attrs[::-1] if isinstance(node, ast.Name) else None


def test_perfbench_hurwitz_imports_resolve():
    """Every name imported from hurwitz exists, and so does every attribute
    used on an imported hurwitz module (ob.solve_tree_metric,
    hurwitz.cli.main)."""
    checked = 0
    used = set()
    for path in sorted(glob.glob(os.path.join(PERFBENCH, "*.py"))):
        with open(path) as fh:
            tree = ast.parse(fh.read(), path)
        modules = {}        # name bound by an import -> module name
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.split(".")[0] == "hurwitz":
                        importlib.import_module(alias.name)
                        if alias.asname:
                            modules[alias.asname] = alias.name
                        else:       # import hurwitz.cli binds hurwitz
                            modules["hurwitz"] = "hurwitz"
                        checked += 1
            elif isinstance(node, ast.ImportFrom) and node.module and \
                    node.module.split(".")[0] == "hurwitz":
                module = importlib.import_module(node.module)
                for alias in node.names:
                    assert hasattr(module, alias.name), \
                        f"{os.path.basename(path)}: {node.module}.{alias.name}"
                    checked += 1
        for node in ast.walk(tree):
            chain = _dotted(node) if isinstance(node, ast.Attribute) else None
            if not chain or chain[0] not in modules:
                continue
            obj = importlib.import_module(modules[chain[0]])
            for i, attr in enumerate(chain[1:], 1):
                name = ".".join(chain[:i + 1])
                assert hasattr(obj, attr), f"{os.path.basename(path)}: {name}"
                used.add(name)
                obj = getattr(obj, attr)
                if not inspect.ismodule(obj):
                    break
    assert checked
    assert {"ob.solve_tree_metric", "tr.cached_u_star", "ch.one_char",
            "hurwitz.cli.main"} <= used
