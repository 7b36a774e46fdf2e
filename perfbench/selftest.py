"""Self-test of the benchmark: every workload at its smallest size, traced
and untraced.

    python3 perfbench/selftest.py

Checks that each run is correct, that every metric BENCHMARK.json names
appears with its unit (and decision/failure figures on the report line),
that the traced and untraced runs give the same verdicts op by op, and that
trace.overhead_ratio is reported.  Exits 0 when all checks pass.
"""

import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import tracing                  # noqa: E402
import workloads                # noqa: E402


def run(workload, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", "1", "--seconds", "1", "--trace", str(trace),
           "--size", "small"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=170)
    if proc.returncode != 0:
        raise AssertionError(f"{workload} trace={trace}: exit "
                             f"{proc.returncode}: {proc.stderr.strip()}")
    lines = proc.stdout.strip().splitlines()
    tag = f"{workload}-seed1-trace{trace}-small"
    with open(os.path.join(HERE, "out", tag + ".json")) as fh:
        detail = json.load(fh)
    return lines[-2], json.loads(lines[-1]), detail


def check_metrics(where, got, declared):
    want = {m["name"]: m["unit"] for m in declared}
    have = {k: v["unit"] for k, v in got["metrics"].items()}
    if have != want:
        raise AssertionError(f"{where}: metrics {have} != declared {want}")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    declared_layers = {m["name"]: m["unit"] for m in bench["per_layer"]}
    if declared_layers != tracing.PER_LAYER_UNITS:
        raise AssertionError("BENCHMARK.json per_layer differs from "
                             "tracing.PER_LAYER_UNITS")
    failures = 0
    for w in workloads.WORKLOADS:
        try:
            report0, res0, det0 = run(w, 0)
            report1, res1, det1 = run(w, 1)
            for res in (res0, res1):
                if not res["correct"] or res["failed"]:
                    raise AssertionError(f"{w}: incorrect run {res}")
            check_metrics(f"{w} trace=0", res0, bench["end_to_end"])
            check_metrics(f"{w} trace=1", res1, bench["per_layer"])
            printed = {m["name"]: m["unit"] for m in bench["end_to_end"]}
            printed["decision_p50_s"] = "s"
            for name, unit in printed.items():
                if not re.search(rf"{name}=\S+ {re.escape(unit)};", report0):
                    raise AssertionError(f"{w}: {name} missing from the "
                                         "report line")
            if "failed_ratio=" not in report0:
                raise AssertionError(f"{w}: failed_ratio not reported")
            if det0["ops"] != det1["traced_ops"] or \
                    det1["ops"] != det1["traced_ops"]:
                raise AssertionError(f"{w}: traced and untraced verdicts "
                                     f"differ: {det0['ops']} vs "
                                     f"{det1['traced_ops']}")
            overhead = res1["metrics"]["trace.overhead_ratio"]["value"]
            if not overhead > 0:
                raise AssertionError(f"{w}: trace.overhead_ratio missing")
            print(f"ok   {w}: {len(det0['ops'])} ops, verdicts agree, "
                  f"trace overhead {overhead:.3f}")
        except AssertionError as exc:
            failures += 1
            print(f"FAIL {exc}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
