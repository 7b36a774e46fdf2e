"""Benchmark of exact Hurwitz-tree decisions, one workload per run.

    python3 perfbench/run.py --workload quaternion --seed 1 --seconds 25 \
        --trace 0

A closed loop with one client: one single-threaded process runs the
workload's ops one after another, each after the previous verdict, and
checks every output against perfbench/expected.json.  Ops are grouped in
passes over a fixed, seeded input list; passes repeat while the time left
covers another one, so every run measures whole passes.

--trace 0 reports the end-to-end metrics (setup_s, decisions_per_s,
peak_rss_mb).  --trace 1 runs an untraced pass, one traced pass with every
layer function wrapped (see tracing.py), then untraced passes, and reports
the per-layer metrics of the traced pass.  The last line of standard output
is the result object.  The line before it names every end-to-end metric
with its unit, plus decision_p50_s, decision_p90_s (when at least 100 ops
ran), failed_ratio and the sample counts.  Full results with an environment
stamp, spans and the LP corpus go to perfbench/out/.
"""

import time

_T0 = time.perf_counter()   # set-up is timed from here

import argparse                 # noqa: E402
import hashlib                  # noqa: E402
import importlib.metadata       # noqa: E402
import json                     # noqa: E402
import os                       # noqa: E402
import platform                 # noqa: E402
import resource                 # noqa: E402
import shutil                   # noqa: E402
import statistics               # noqa: E402
import subprocess               # noqa: E402
import sys                      # noqa: E402
import tempfile                 # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
sys.path.insert(0, HERE)

import tracing                  # noqa: E402
import workloads                # noqa: E402

SETUP_SAMPLES = 5               # set-ups per run: fresh processes + this one
P90_MIN_OPS = 100               # ten samples beyond the 90th percentile
END_TO_END_UNITS = {"setup_s": "s", "decisions_per_s": "1/s",
                    "peak_rss_mb": "MB"}
# also on the report line, but not in the result object: its run-to-run
# spread on a shared machine is wider than any usable regression bound
REPORT_UNITS = {**END_TO_END_UNITS, "decision_p50_s": "s"}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "small"), default="full",
                    help="small: the smallest input list, for the self-test")
    ap.add_argument("--setup-only", action="store_true",
                    help="set up, print the set-up time and exit")
    return ap.parse_args(argv)


def import_program():
    """Import hurwitz from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, SRC)
    try:
        import hurwitz.cli
    except ImportError as exc:
        raise workloads.BenchError(
            f"cannot import the program from {SRC}: {exc}")
    if not os.path.abspath(hurwitz.cli.__file__).startswith(SRC + os.sep):
        raise workloads.BenchError(
            f"hurwitz was imported from {hurwitz.cli.__file__}, "
            f"not from {SRC}")


def setup(args, workdir):
    """Import, seeded inputs and warm process-wide caches; returns the ops
    and the seconds since process start."""
    import_program()
    expected = workloads.load_expected(os.path.join(HERE, "expected.json"))
    ops = workloads.SETUP[args.workload](expected, args.seed,
                                         args.size == "small", workdir)
    return ops, time.perf_counter() - _T0


def setup_in_fresh_processes(args, count):
    samples = []
    cmd = [sys.executable, os.path.abspath(__file__),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", "0", "--size", args.size, "--setup-only"]
    for _ in range(count):
        proc = subprocess.run(cmd, cwd=ROOT, env=os.environ.copy(),
                              capture_output=True, text=True, timeout=170)
        if proc.returncode != 0:
            raise workloads.BenchError(
                f"set-up process failed: {proc.stderr.strip()}")
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1])
                       ["setup_s"])
    return samples


def run_pass(ops, tracer=None):
    """Run each op once; returns [(op, seconds, verdict, error)].
    Only the program calls are timed, not the checks."""
    clock = time.perf_counter
    out = []
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op = i
        t = clock()
        try:
            outcome = op.execute()
        except Exception as exc:        # a raised op is a failed op
            outcome = exc
        dt = clock() - t
        if tracer is not None:
            tracer.op_times.append((i, dt))
        if isinstance(outcome, Exception):
            verdict, error = "raised", f"{type(outcome).__name__}: {outcome}"
        else:
            verdict, error = op.check(outcome)
        out.append((op, dt, verdict, error))
    return out


def run_loop(ops, seconds, traced):
    """Untraced passes (with one traced pass second when traced) while the
    time left covers another pass.  Returns (untraced passes, traced pass,
    tracer)."""
    start = time.perf_counter()
    untraced, traced_pass, tracer = [], None, None
    while True:
        if traced and traced_pass is None and untraced:
            tracer = tracing.Tracer()
            tracer.install()
            try:
                traced_pass = run_pass(ops, tracer)
            finally:
                tracer.uninstall()
        else:
            untraced.append(run_pass(ops))
        elapsed = time.perf_counter() - start
        done = len(untraced) + (traced_pass is not None)
        if (not traced or traced_pass is not None) and \
                elapsed + elapsed / done > seconds:
            return untraced, traced_pass, tracer


def git_commit():
    """HEAD of the checkout when it is a git work tree, else None."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.strip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def source_digest():
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "hurwitz")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


def env_stamp(args, load_start, samples):
    try:
        sympy_version = importlib.metadata.version("sympy")
    except importlib.metadata.PackageNotFoundError:
        sympy_version = None
    return {
        "python": platform.python_version(),
        "sympy": sympy_version,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "loadavg_start": load_start,
        "loadavg_end": list(os.getloadavg()),
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "hg_threads": "unset",
        "samples": samples,
    }


def measure(args):
    load_start = list(os.getloadavg())
    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        ops, own_setup = setup(args, workdir)
        if args.setup_only:
            print(json.dumps({"setup_s": own_setup}))
            return 0
        setup_samples = [own_setup]
        if not args.trace:
            setup_samples += setup_in_fresh_processes(args,
                                                      SETUP_SAMPLES - 1)
        untraced, traced_pass, tracer = run_loop(ops, args.seconds,
                                                 bool(args.trace))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    rows = [r for p in untraced for r in p] + (traced_pass or [])
    failures = {i: (op.id, err) for i, (op, _, _, err) in enumerate(rows)
                if err}
    if args.trace:
        base = len(rows) - len(traced_pass)
        checks = tracer.lp_checks()
        for i, (op, _, _, _) in enumerate(traced_pass):
            mine = [k for k, lp in enumerate(tracer.lps) if lp[0] == i]
            err = op.check_trace([tracer.lps[k] for k in mine])
            if any(checks[k] == "bad" for k in mine):
                err = "an LP certificate failed the recheck"
            if err and base + i not in failures:
                failures[base + i] = (op.id, "traced: " + err)
    times = [dt for p in untraced for _, dt, _, _ in p]
    e2e = {
        "setup_s": statistics.median(setup_samples),
        "decisions_per_s": len(times) / sum(times),
        "decision_p50_s": statistics.median(times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024,
    }
    extra = {"failed_ratio": len(failures) / len(rows),
             "decision_p50_samples": len(times)}
    if len(times) >= P90_MIN_OPS:
        extra["decision_p90_s"] = statistics.quantiles(times, n=10)[8]

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}" + \
        ("-small" if args.size == "small" else "")
    result = {"end_to_end": e2e, "extra": extra,
              "ops": [[op.id, verdict] for op, _, verdict, _ in untraced[0]],
              "op_seconds": times}
    if args.trace:
        pass_s = statistics.median(sum(dt for _, dt, _, _ in p)
                                   for p in untraced)
        result["per_layer"] = tracer.metrics(pass_s)
        result["traced_ops"] = [[op.id, verdict]
                                for op, _, verdict, _ in traced_pass]
        tracer.write_spans(os.path.join(OUT, tag + "-spans.jsonl"))
        if args.workload in ("quaternion", "witness_search"):
            tracing.write_lp_corpus(tracer,
                                    os.path.join(OUT, tag + "-lp.jsonl"),
                                    args.workload, args.seed)
    failures = [failures[i] for i in sorted(failures)]
    result["failures"] = failures
    result["env"] = env_stamp(args, load_start, {
        "setup": len(setup_samples), "untraced_ops": len(times),
        "untraced_passes": len(untraced),
        "traced_ops": len(traced_pass or [])})
    with open(os.path.join(OUT, tag + ".json"), "w") as fh:
        json.dump(result, fh, indent=1)

    if args.trace:
        units = tracing.PER_LAYER_UNITS
        metrics = result["per_layer"]
    else:
        units = END_TO_END_UNITS
        metrics = e2e
    report = [f"{k}={e2e[k]:.6g} {u}" for k, u in REPORT_UNITS.items()]
    if "decision_p90_s" in extra:
        report.append(f"decision_p90_s={extra['decision_p90_s']:.6g} s")
    report.append(f"failed_ratio={extra['failed_ratio']:.6g} ratio")
    report.append(f"samples={json.dumps(result['env']['samples'])}")
    for op_id, err in failures[:5]:
        report.append(f"FAILED {op_id}: {err}")
    print(f"perfbench {tag}: " + "; ".join(report))
    print(json.dumps({
        "correct": not failures,
        "attempted": len(rows),
        "failed": len(failures),
        "metrics": {k: {"value": metrics[k], "unit": units[k]}
                    for k in units},
    }))
    return 0


def main(argv=None):
    args = parse_args(argv)
    os.environ.pop("HG_THREADS", None)     # ops run with HG_THREADS unset
    try:
        return measure(args)
    except workloads.BenchError as exc:
        sys.stderr.write(f"perfbench: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
