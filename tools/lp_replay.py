"""Replay recorded LPs through this checkout's solve_lp and compare.

    python3 tools/lp_replay.py [CORPUS.jsonl ...]

With no argument it reads every perfbench/out/*-lp.jsonl, the LP corpus a
traced perfbench run writes (one LP per line: exact "a/b" strings for c,
A and b, with the status, objective, x and Farkas vector it gave). Each
record is solved again, with integral entries passed as ints, as
solve_tree_metric builds them. A mismatch is any status, x, objective or
Farkas vector that differs from the record. Per file it prints the number
of LPs, the mismatches, the pivots and the total solve time; it exits 1
if any record mismatches.
"""

import glob
import json
import os
import sys
import time
from fractions import Fraction

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from hurwitz.lp import solve_lp     # noqa: E402


def number(text):
    v = Fraction(text)
    return v.numerator if v.denominator == 1 else v


def vector(texts):
    return None if texts is None else [Fraction(t) for t in texts]


def replay(path):
    """(records, mismatches, pivots, seconds) of one corpus file."""
    records = mismatches = pivots = 0
    seconds = 0.0
    with open(path) as fh:
        for line_no, line in enumerate(fh, 1):
            rec = json.loads(line)
            c = [number(v) for v in rec["c"]]
            A = [[number(v) for v in row] for row in rec["A"]]
            b = [number(v) for v in rec["b"]]
            start = time.perf_counter()
            res = solve_lp(c, A, b)
            seconds += time.perf_counter() - start
            records += 1
            pivots += res.pivots
            expected = (rec["status"], vector(rec["x"]),
                        None if rec["objective"] is None
                        else Fraction(rec["objective"]),
                        vector(rec["farkas"]))
            got = (res.status, res.x, res.objective, res.certificate)
            for field, e, g in zip(("status", "x", "objective", "farkas"),
                                   expected, got):
                if e != g:
                    mismatches += 1
                    print(f"{path}:{line_no}: {field} {g}, recorded {e}")
                    break
    return records, mismatches, pivots, seconds


def main(paths):
    paths = paths or sorted(glob.glob(os.path.join(
        ROOT, "perfbench", "out", "*-lp.jsonl")))
    if not paths:
        sys.exit("no LP corpus: run perfbench/run.py with --trace 1 first")
    bad = 0
    for path in paths:
        records, mismatches, pivots, seconds = replay(path)
        bad += mismatches
        print(f"{os.path.basename(path)}: {records} LPs, {mismatches} "
              f"mismatches, {pivots} pivots, solve {seconds:.3f} s")
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main(sys.argv[1:])
