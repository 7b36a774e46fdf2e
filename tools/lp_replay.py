"""Replay recorded LPs through this checkout's solve_lp and compare.

    python3 tools/lp_replay.py [--against CHECKOUT] [--repeat N]
                               [CORPUS.jsonl ...]

With no corpus it reads every perfbench/out/*-lp.jsonl, the LP corpus a
traced perfbench run writes (one LP per line: exact "a/b" strings for c,
A and b, with the status, objective, x and Farkas vector it gave). Each
record is solved again, with integral entries passed as ints, as
solve_tree_metric builds them. A mismatch is any status, x, objective or
Farkas vector that differs from the record.

With --against, each record is also solved by the solve_lp of another
checkout (its src/hurwitz/lp.py), and a mismatch is also any status, x,
objective, Farkas vector, dual or pivot count on which the two solvers
differ. --repeat solves the corpus N times, the two solvers alternating
record by record, and reports each solver's least total.

Per file it prints the number of LPs, the mismatches, the pivots and the
solve time of each solver; it exits 1 if any record mismatches.
"""

import argparse
import glob
import importlib.util
import json
import os
import sys
import time
from fractions import Fraction

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_solver(checkout, name):
    """solve_lp from CHECKOUT/src/hurwitz/lp.py, loaded as module NAME."""
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(checkout, "src", "hurwitz", "lp.py"))
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module      # dataclasses looks its module up
    spec.loader.exec_module(module)
    return module.solve_lp


def number(text):
    v = Fraction(text)
    return v.numerator if v.denominator == 1 else v


def vector(texts):
    return None if texts is None else [Fraction(t) for t in texts]


def outcome(res):
    return (res.status, res.x, res.objective, res.certificate, res.dual,
            res.pivots)


FIELDS = ("status", "x", "objective", "farkas", "dual", "pivots")


def replay(path, solvers, repeat):
    """(records, mismatches, pivots, least seconds per solver) of one
    corpus file."""
    with open(path) as fh:
        records = [json.loads(line) for line in fh]
    problems = [([number(v) for v in rec["c"]],
                 [[number(v) for v in row] for row in rec["A"]],
                 [number(v) for v in rec["b"]]) for rec in records]
    best = [float("inf")] * len(solvers)
    for _ in range(repeat):
        seconds = [0.0] * len(solvers)
        results = []
        for problem in problems:
            out = []
            for k, solve in enumerate(solvers):
                start = time.perf_counter()
                out.append(solve(*problem))
                seconds[k] += time.perf_counter() - start
            results.append(out)
        best = [min(b, s) for b, s in zip(best, seconds)]
    mismatches = 0
    for line_no, (rec, out) in enumerate(zip(records, results), 1):
        recorded = (rec["status"], vector(rec["x"]),
                    None if rec["objective"] is None
                    else Fraction(rec["objective"]),
                    vector(rec["farkas"]))
        got = outcome(out[0])
        bad = next((f"{f} {g}, recorded {e}" for f, e, g
                    in zip(FIELDS, recorded, got) if e != g), None)
        for other in out[1:]:
            bad = bad or next((f"{f} {g}, other checkout {e}" for f, e, g
                               in zip(FIELDS, outcome(other), got)
                               if e != g), None)
        if bad:
            mismatches += 1
            print(f"{path}:{line_no}: {bad}")
    pivots = sum(out[0].pivots for out in results)
    return len(records), mismatches, pivots, best


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("corpus", nargs="*")
    ap.add_argument("--against", metavar="CHECKOUT",
                    help="also solve with this checkout's solve_lp")
    ap.add_argument("--repeat", type=int, default=1, metavar="N")
    args = ap.parse_args(argv)
    paths = args.corpus or sorted(glob.glob(os.path.join(
        ROOT, "perfbench", "out", "*-lp.jsonl")))
    if not paths:
        sys.exit("no LP corpus: run perfbench/run.py with --trace 1 first")
    solvers = [load_solver(ROOT, "replay_lp")]
    names = ["this checkout"]
    if args.against:
        solvers.append(load_solver(os.path.abspath(args.against),
                                   "replay_lp_against"))
        names.append(args.against)
    bad = 0
    for path in paths:
        records, mismatches, pivots, best = replay(path, solvers,
                                                   max(args.repeat, 1))
        bad += mismatches
        times = ", ".join(f"{name} {t:.4f} s"
                          for name, t in zip(names, best))
        print(f"{os.path.basename(path)}: {records} LPs, {mismatches} "
              f"mismatches, {pivots} pivots, solve {times}")
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main(sys.argv[1:])
