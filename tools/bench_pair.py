"""Compare perfbench results of a parent commit and a change, and write
them to BENCH_<pr>.json at the repository root.

    python3 tools/bench_pair.py PR PARENT_OUT CHANGE_OUT

PARENT_OUT and CHANGE_OUT are the `perfbench/out` directories of the two
checkouts. Each holds `<workload>-seed<S>-trace<T>.json` result files; a
run of one workload and seed on both sides makes a pair. Only runs of
BENCHMARK.json's `run_seconds` count: a result whose `env.seconds`
differs (a short diagnostic run) is skipped with a message. For each
workload and metric the file records the per-seed values of each side,
their medians and quartiles, and how many pairs the change wins. Untraced
runs give the end-to-end metrics and traced runs the per-layer metrics:
every metric of BENCHMARK.json that all paired results hold. The direction
and bound of each metric come from BENCHMARK.json. A bounded metric is
`within_bound` when the change's median is no worse than the parent's by
more than the bound, and "unresolved" when the parent's interquartile
range is wider than the bound, unless every change run beats every
parent run.
"""

import glob
import json
import os
import re
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RESULT = re.compile(r"(?P<workload>\w+)-seed(?P<seed>\d+)-trace(?P<trace>[01])"
                    r"\.json$")


def load_runs(out_dir, run_seconds):
    """{(workload, trace, seed): result} for the full-size result files of
    runs of run_seconds; a result of another run length is skipped with a
    message."""
    runs = {}
    for path in sorted(glob.glob(os.path.join(out_dir, "*.json"))):
        match = RESULT.match(os.path.basename(path))
        if match:
            with open(path) as fh:
                result = json.load(fh)
            seconds = result["env"]["seconds"]
            if seconds != run_seconds:
                print(f"skipped {path}: a {seconds} s run, not "
                      f"{run_seconds} s", file=sys.stderr)
                continue
            runs[(match["workload"], int(match["trace"]),
                  int(match["seed"]))] = result
    return runs


def spread(values):
    """(first quartile, median, third quartile)"""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def compare(parent, change, better, bound):
    """The record of one metric over the paired seeds."""
    sign = 1 if better == "higher" else -1
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    pq1, pmed, pq3 = spread(parent)
    cq1, cmed, cq3 = spread(change)
    rec = {"better": better, "parent": parent, "change": change,
           "parent_median": pmed, "parent_quartiles": [pq1, pq3],
           "change_median": cmed, "change_quartiles": [cq1, cq3],
           "wins": wins, "pairs": len(parent),
           # the claim rule: ten pairs or more, nine tenths won, and a
           # median gain beyond the parent's interquartile range
           "gain_shown": len(parent) >= 10 and wins >= 0.9 * len(parent)
           and sign * (cmed - pmed) > pq3 - pq1}
    if bound is not None:
        worse = -sign * (cmed - pmed) / pmed if pmed else 0.0
        noisy = pmed != 0 and (pq3 - pq1) / abs(pmed) > bound
        beats_all = all(sign * (c - p) > 0 for p in parent for c in change)
        rec["bound"] = bound
        rec["within_bound"] = ("unresolved" if noisy and not beats_all
                               else worse <= bound)
    return rec


def pair_section(parent_runs, change_runs, workload, trace, section,
                 metrics):
    seeds = sorted(s for (w, t, s) in parent_runs
                   if (w, t) == (workload, trace)
                   and (w, t, s) in change_runs)
    if not seeds:
        return None
    out = {"seeds": seeds,
           "failed_ratio": {
               side: [runs[(workload, trace, s)]["extra"]["failed_ratio"]
                      for s in seeds]
               for side, runs in (("parent", parent_runs),
                                  ("change", change_runs))}}
    for metric in metrics:
        name = metric["name"]
        if not all(name in runs[(workload, trace, s)][section]
                   for s in seeds for runs in (parent_runs, change_runs)):
            continue
        values = [[runs[(workload, trace, s)][section][name] for s in seeds]
                  for runs in (parent_runs, change_runs)]
        out[name] = compare(*values, metric["better"], metric.get("bound"))
    return out


def main(argv):
    if len(argv) != 3:
        sys.exit(__doc__.strip())
    pr, parent_dir, change_dir = argv
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    parent_runs, change_runs = (load_runs(d, spec["run_seconds"])
                                for d in (parent_dir, change_dir))
    report = {"pr": pr, "run_seconds": spec["run_seconds"], "workloads": {}}
    for side, runs in (("parent", parent_runs), ("change", change_runs)):
        stamps = {(r["env"]["git_commit"], r["env"]["source_sha256"])
                  for r in runs.values()}
        report[side] = [{"git_commit": g, "source_sha256": s}
                        for g, s in sorted(stamps, key=str)]
    for workload in (w["name"] for w in spec["workloads"]):
        entry = {}
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            rec = pair_section(parent_runs, change_runs, workload, trace,
                               section, spec[section])
            if rec is not None:
                entry[section] = rec
        if entry:
            report["workloads"][workload] = entry
    path = os.path.join(ROOT, f"BENCH_{pr}.json")
    # one line per list of numbers
    text = re.sub(r"\[\s+([^\[\]{}]*?)\s+\]",
                  lambda m: "[" + " ".join(m.group(1).split()) + "]",
                  json.dumps(report, indent=1))
    with open(path, "w") as fh:
        fh.write(text + "\n")
    print(path)


if __name__ == "__main__":
    main(sys.argv[1:])
