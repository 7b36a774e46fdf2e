"""The benchmark's tracer, perfbench/tracing.py, rebinds library functions
by name and reads the subgroup-lattice cache key "all".  A rename that
breaks either fails here, not only in a traced benchmark run."""

import importlib
import os
import runpy

from hurwitz.groups import cyclic, subgroup_classes

TRACING = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       os.pardir, "perfbench", "tracing.py")


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
