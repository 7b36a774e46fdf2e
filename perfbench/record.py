"""Record the expected output of every op the benchmark can draw.

    python3 perfbench/record.py

writes perfbench/expected.json from the program as it stands.  Run it only
when the program's outputs are meant to change; the benchmark then checks
every op against this file.  Pools are drawn with fixed seeds here, so the
file is reproducible; op costs (cost_s) are measured on the recording
machine and only used to stratify the witness_search picks.
"""

from __future__ import annotations

import itertools
import json
import os
import random
import statistics
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import workloads as W                              # noqa: E402
from tracing import Tracer                         # noqa: E402

from hurwitz.files import format_cyclotomic        # noqa: E402
from hurwitz.groups import build_group, subgroup_classes   # noqa: E402
from hurwitz.obstruction import enumerate_shapes   # noqa: E402
from hurwitz.trees import cached_u_star            # noqa: E402

WITNESS_Q8_MULTISETS = 4       # per leaf count 2, 3, 4
WITNESS_SHAPES_PER_MULTISET = 5
CATALOG_CANDIDATES = 8          # drawn per group
CATALOG_KEPT = 4                # kept: the ones closest to the median cost


def u_star_sum(classes):
    a = None
    for C in classes:
        a = cached_u_star(C) if a is None else a + cached_u_star(C)
    return a


def timed(fn):
    t = time.perf_counter()
    fn()
    return time.perf_counter() - t


def record_cli(op_id, argv, fields):
    op = W.CliOp(op_id, argv, None)
    t = time.perf_counter()
    rc, out, err = op.execute()
    cost = time.perf_counter() - t
    payload = json.loads(out)
    return {"exit": rc, "fields": {k: payload.get(k) for k in fields},
            "stdout_sha256": W.sha256(out), "cost_s": round(cost, 4)}


def record_quaternion():
    tracer = Tracer()
    tracer.install()
    try:
        e = record_cli("Q8", ["quaternion", "--n", "2", "--format", "json"],
                       ("verdict", "shapes_tried", "contradiction",
                        "minimal_candidates"))
    finally:
        tracer.uninstall()
    e["lp_calls"] = len(tracer.lps)
    return e


def record_feasibility(workdir):
    pool = {}
    keys = sorted({k for slot in W.feasibility_slots() for k in slot})
    for key in keys:
        gname, pname, leaves = key.split("/")
        n, p = int(gname[1:]), int(pname[1:])
        spec = {"builder": "cyclic", "params": {"n": n}}
        G = build_group(spec)
        by_order = {C.order: C for C in subgroup_classes(
            G, cyclic_only=True, nontrivial_only=True)}
        a = u_star_sum([by_order[int(x)] for x in leaves.split(",")])
        values = [format_cyclotomic(v) for v in a.values]
        path = W._write_char(workdir, "f.json", spec, values)
        e = record_cli(key, ["obstruct", "hurwitz", path, "--p", str(p),
                             "--format", "json"],
                       ("verdict", "shapes_tried", "lp_runs"))
        e.update(n=n, p=p, values=values)
        pool[key] = e
        print(key, e["fields"], e["cost_s"], flush=True)
    return pool


def record_catalog(workdir):
    rng = random.Random("group_catalog/pool")
    pool = {}
    for name, spec in W.CATALOG_GROUPS.items():
        G = build_group(spec)
        cyc = subgroup_classes(G, cyclic_only=True, nontrivial_only=True)
        drawn = {}
        for i in range(CATALOG_CANDIDATES):
            picked = sorted(rng.sample(cyc, rng.choice((2, 3))),
                            key=lambda C: C.class_id)
            values = [format_cyclotomic(v) for v in u_star_sum(picked).values]
            path = W._write_char(workdir, "g.json", spec, values)
            key = f"{name}/{i}"
            e = record_cli(key, ["obstruct", "bertin", path,
                                 "--format", "json"], ("vanishes",))
            names = [C.name() for C in picked]
            e.update(values=values, leaves=names)
            drawn[key] = e
            print(key, names, e["cost_s"], flush=True)
        # the seed picks among candidates of about the same cost, so that it
        # varies the characters but not the work of a pass
        mid = statistics.median(e["cost_s"] for e in drawn.values())
        kept = sorted(drawn, key=lambda k: (abs(drawn[k]["cost_s"] - mid), k))
        for new_id, key in enumerate(sorted(kept[:CATALOG_KEPT])):
            pool[f"{name}/{new_id}"] = drawn[key]
    return pool


def _json_shape(shape):
    return [_json_shape(x) if isinstance(x, tuple) else x for x in shape]


def record_witness():
    rng = random.Random("witness_search/pool")
    groups = W.witness_groups()
    pool = {}
    for gname, (G, p) in groups.items():
        cyc = [C.class_id for C in subgroup_classes(
            G, cyclic_only=True, nontrivial_only=True)]
        by_id = {C.class_id: C for C in subgroup_classes(G)}
        for k in (2, 3, 4):
            multisets = list(itertools.combinations_with_replacement(cyc, k))
            if gname == "Q8":
                multisets = rng.sample(multisets, WITNESS_Q8_MULTISETS)
            for ms in multisets:
                shapes = enumerate_shapes(G, [by_id[i] for i in ms])
                if gname == "Q8" and \
                        len(shapes) > WITNESS_SHAPES_PER_MULTISET:
                    shapes = rng.sample(shapes, WITNESS_SHAPES_PER_MULTISET)
                for idx, shape in enumerate(shapes):
                    key = f"{gname}/{','.join(map(str, ms))}/{idx}"
                    e = {"group": gname, "leaves": list(ms),
                         "shape": _json_shape(shape)}
                    op = W.WitnessOp(key, G, p, shape, 0, None)
                    tracer = Tracer()
                    tracer.install()
                    try:
                        sol, bad = op.execute()
                    finally:
                        tracer.uninstall()
                    assert not bad, key
                    (_, c, A, _, _), = tracer.lps
                    cost = min(timed(op.execute) for _ in range(2))
                    e.update(reason=sol.reason,
                             objective=None if sol.lp.objective is None
                             else str(sol.lp.objective),
                             eps=None if sol.tree is None else
                             [str(x) for _, _, x in sol.tree.tree.edges],
                             lp_dims=[len(A), len(c)],
                             cost_s=round(cost, 4))
                    pool[key] = e
                    print(key, e["reason"], e["lp_dims"], e["cost_s"],
                          flush=True)
    return pool


def main():
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    with tempfile.TemporaryDirectory(dir=os.path.join(HERE, "out")) as workdir:
        expected = {
            "quaternion": record_quaternion(),
            "feasibility_sweep": record_feasibility(workdir),
            "witness_search": record_witness(),
            "group_catalog": record_catalog(workdir),
        }
    with open(os.path.join(HERE, "expected.json"), "w") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
