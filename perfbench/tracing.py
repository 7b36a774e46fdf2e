"""Layer tracing from outside the library.

While a traced pass runs, every module-level name through which the
`hurwitz` modules reach a layer's public function is rebound to a wrapper;
afterwards the original objects are put back, so the library code itself is
never edited.  Each wrapper records one span (name, start, end, parent span,
op id) in memory; self times, counts and the LP checks are worked out from
the spans and captures after the pass, outside the timed region.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict
from fractions import Fraction

# (module, function) pairs; the span name is "<layer>.<function>", where
# the layer is the module's last name component (hurwitz.files -> files).
LAYER_FUNCTIONS = [
    ("hurwitz.cli", "main"),
    ("hurwitz.files", "resolve_group"),
    ("hurwitz.files", "load_char_file"),
    ("hurwitz.files", "report_json"),
    ("hurwitz.groups", "build_group"),
    ("hurwitz.groups", "generalized_quaternion"),
    ("hurwitz.groups", "subgroup_classes"),
    ("hurwitz.groups", "subgroup_class_of"),
    ("hurwitz.groups", "contained_up_to_conjugacy"),
    ("hurwitz.groups", "quotient"),
    ("hurwitz.characters", "pair"),
    ("hurwitz.characters", "character_table"),
    ("hurwitz.characters", "u_star"),
    ("hurwitz.characters", "delta_mult_star"),
    ("hurwitz.characters", "is_true_character"),
    ("hurwitz.obstruction", "quaternion_report"),
    ("hurwitz.obstruction", "hurwitz_feasibility"),
    ("hurwitz.obstruction", "bertin_check"),
    ("hurwitz.obstruction", "enumerate_shapes"),
    ("hurwitz.obstruction", "solve_tree_metric"),
    ("hurwitz.lp", "solve_lp"),
    ("hurwitz.trees", "validate"),
    ("hurwitz.trees", "build_hurwitz_tree"),
    ("hurwitz.trees", "density"),
    ("hurwitz.trees", "density_path_formula"),
    ("hurwitz.charp", "klein_four_action"),
    ("hurwitz.charp", "local_artin_character"),
]

LAYERS = ("cli", "files", "groups", "characters", "obstruction", "lp",
          "trees", "charp")

# metric name -> unit, in the order they are printed
PER_LAYER_UNITS = {
    "lp.solve_lp.calls": "count",
    "lp.solve_lp.self_s": "s",
    "lp.rows_max": "count",
    "lp.cols_max": "count",
    "lp.rows_total": "count",
    "lp.redundant_row_ratio": "ratio",
    "lp.certificates_checked": "count",
    "lp.certificate_failures": "count",
    "characters.pair.calls": "count",
    "characters.pair.self_s": "s",
    "characters.character_table.self_s": "s",
    "obstruction.enumerate_shapes.self_s": "s",
    "obstruction.enumerate_shapes.shapes": "count",
    "groups.contained_up_to_conjugacy.calls": "count",
    "groups.contained_up_to_conjugacy.self_s": "s",
    "groups.subgroup_classes.calls": "count",
    "groups.subgroup_classes.self_s": "s",
    "groups.lattice_builds": "count",
    "groups.lattice_classes": "count",
    "groups.build_group.self_s": "s",
    "obstruction.bertin_check.self_s": "s",
    "obstruction.bertin_check.decompositions": "count",
    "obstruction.solve_tree_metric.calls": "count",
    "obstruction.solve_tree_metric.self_s": "s",
    "obstruction.witnesses": "count",
    "obstruction.farkas_rejections": "count",
    "obstruction.uncertified_rejections": "count",
    "obstruction.witness_ratio": "ratio",
    "trees.validate.calls": "count",
    "trees.validate.self_s": "s",
    "trees.build_hurwitz_tree.self_s": "s",
    "trees.density.self_s": "s",
    "cli.main.self_s": "s",
    "files.resolve_group.self_s": "s",
    "files.load_char_file.self_s": "s",
    "files.report_json.self_s": "s",
    "charp.local_artin_character.self_s": "s",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "other.self_s": "s",
    "trace.op_s": "s",
    "trace.ops": "count",
    "trace.spans": "count",
    "trace.overhead_ratio": "ratio",
}


class Tracer:
    """Spans and captures of one traced pass."""

    def __init__(self):
        self.spans = []        # (span id, name, start, end, parent id, op id)
        self.stack = []
        self.op = -1
        self.next_id = 0
        self.lps = []          # (op id, c, A, b, LPResult)
        self._lp_checks = None
        self.metric_results = []   # (op id, MetricSolution)
        self.counts = defaultdict(int)
        self.op_times = []     # (op id, seconds)
        self._patched = []

    def _wrap(self, name, fn, before=None, after=None):
        tracer = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = tracer.next_id
            tracer.next_id = sid + 1
            parent = tracer.stack[-1] if tracer.stack else -1
            state = before(args) if before else None
            tracer.stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                tracer.stack.pop()
                tracer.spans.append((sid, name, start, end, parent,
                                     tracer.op))
            if after:
                after(args, result, state)
            return result
        return wrapper

    # -- observers: they run outside the span they observe --

    def _lp_after(self, args, result, _):
        c, A, b = args
        self.lps.append((self.op, c, A, b, result))

    def _metric_after(self, args, result, _):
        self.metric_results.append((self.op, result))

    def _shapes_after(self, args, result, _):
        self.counts["obstruction.enumerate_shapes.shapes"] += len(result)

    def _bertin_after(self, args, result, _):
        self.counts["obstruction.bertin_check.decompositions"] += len(result)

    @staticmethod
    def _lattice_before(args):
        # the lattice is built on the first call per group object; its cache
        # key "all" is how the library marks a finished build
        return "all" not in args[0]._subgroup_cache

    def _lattice_after(self, args, result, was_missing):
        if was_missing:
            self.counts["groups.lattice_builds"] += 1
            self.counts["groups.lattice_classes"] += \
                len(args[0]._subgroup_cache["all"])

    def install(self):
        hooks = {
            "lp.solve_lp": (None, self._lp_after),
            "obstruction.solve_tree_metric": (None, self._metric_after),
            "obstruction.enumerate_shapes": (None, self._shapes_after),
            "obstruction.bertin_check": (None, self._bertin_after),
            "groups.subgroup_classes": (self._lattice_before,
                                        self._lattice_after),
        }
        modules = [m for n, m in sorted(sys.modules.items())
                   if (n == "hurwitz" or n.startswith("hurwitz."))
                   and m is not None]
        for mod_name, fn_name in LAYER_FUNCTIONS:
            original = getattr(importlib.import_module(mod_name), fn_name)
            span = f"{mod_name.rsplit('.', 1)[1]}.{fn_name}"
            before, after = hooks.get(span, (None, None))
            wrapper = self._wrap(span, original, before, after)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patched.append((mod, attr, original))
                        setattr(mod, attr, wrapper)

    def uninstall(self):
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    # -- analysis after the pass --

    def lp_checks(self):
        """check_certificate's verdict for each captured LP, in order."""
        if self._lp_checks is None:
            self._lp_checks = [check_certificate(c, A, b, res)
                               for _, c, A, b, res in self.lps]
        return self._lp_checks

    def self_times(self):
        """(self seconds by span name, call counts by span name, seconds of
        op time inside top-level spans)."""
        child = defaultdict(float)
        for sid, _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_s = defaultdict(float)
        calls = defaultdict(int)
        top = 0.0
        for sid, name, start, end, parent, _ in self.spans:
            self_s[name] += (end - start) - child[sid]
            calls[name] += 1
            if parent < 0:
                top += end - start
        return self_s, calls, top

    def metrics(self, untraced_pass_s):
        self_s, calls, top = self.self_times()
        op_s = sum(t for _, t in self.op_times)
        lp = lp_summary(self.lps, self.lp_checks())
        m = {name: 0 for name in PER_LAYER_UNITS}
        for name in PER_LAYER_UNITS:
            base, _, kind = name.rpartition(".")
            if kind == "self_s" and base in self_s:
                m[name] = self_s[base]
            elif kind == "calls":
                m[name] = calls.get(base, 0)
        for layer in LAYERS:
            m[f"{layer}.self_s"] = sum(v for k, v in self_s.items()
                                       if k.split(".", 1)[0] == layer)
        m.update(self.counts)
        m.update(lp)
        # verdicts of solve_tree_metric: a witness, or a rejection whose LP
        # carries a checked Farkas vector, or an objective-0 rejection that
        # carries no certificate
        witnesses = sum(sol.reason == "witness"
                        for _, sol in self.metric_results)
        checks = self.lp_checks()
        m["obstruction.witnesses"] = witnesses
        m["obstruction.farkas_rejections"] = checks.count("farkas")
        m["obstruction.uncertified_rejections"] = checks.count("uncertified")
        m["obstruction.witness_ratio"] = (
            witnesses / len(self.metric_results) if self.metric_results
            else 0.0)
        m["other.self_s"] = op_s - top
        m["trace.op_s"] = op_s
        m["trace.ops"] = len(self.op_times)
        m["trace.spans"] = len(self.spans)
        m["trace.overhead_ratio"] = (op_s / untraced_pass_s
                                     if untraced_pass_s else 0.0)
        return {name: m[name] for name in PER_LAYER_UNITS}

    def write_spans(self, path):
        with open(path, "w") as fh:
            for sid, name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "start": start,
                                     "end": end, "parent": parent,
                                     "op": op}) + "\n")


# -- LP checks, written without any code from hurwitz.lp --

def check_certificate(c, A, b, res):
    """Recheck a solve_lp verdict against the call's own (c, A, b).

    Returns "farkas" (y.A <= 0, y.b > 0 hold), "optimum" (A.x = b, x >= 0
    and c.x equals the reported objective), "uncertified" (an optimum of 0,
    which the library rejects without a certificate) or "bad"."""
    m, n = len(A), len(c)
    if res.status == "infeasible":
        y = res.certificate
        if y is None or len(y) != m:
            return "bad"
        yA = [sum(Fraction(y[i]) * Fraction(A[i][j]) for i in range(m))
              for j in range(n)]
        yb = sum(Fraction(y[i]) * Fraction(b[i]) for i in range(m))
        return "farkas" if all(v <= 0 for v in yA) and yb > 0 else "bad"
    if res.status == "optimal":
        x = res.x
        if x is None or len(x) != n or any(v < 0 for v in x):
            return "bad"
        for i in range(m):
            if sum(Fraction(A[i][j]) * x[j] for j in range(n)) != b[i]:
                return "bad"
        if sum(Fraction(c[j]) * x[j] for j in range(n)) != res.objective:
            return "bad"
        return "uncertified" if res.objective == 0 else "optimum"
    return "bad"


def redundant_rows(A):
    """All-zero rows of A plus rows that repeat an earlier row of A."""
    seen = set()
    count = 0
    for row in A:
        key = tuple(Fraction(v) for v in row)
        if not any(key) or key in seen:
            count += 1
        seen.add(key)
    return count


def lp_summary(lps, checks):
    rows = [len(A) for _, _, A, _, _ in lps]
    redundant = sum(redundant_rows(A) for _, _, A, _, _ in lps)
    total = sum(rows)
    return {
        "lp.rows_max": max(rows, default=0),
        "lp.cols_max": max((len(c) for _, c, _, _, _ in lps), default=0),
        "lp.rows_total": total,
        "lp.redundant_row_ratio": redundant / total if total else 0.0,
        "lp.certificates_checked": len(checks) - checks.count("bad"),
        "lp.certificate_failures": checks.count("bad"),
    }


def _q(v):
    return str(Fraction(v))


def write_lp_corpus(tracer, path, workload, seed):
    """Every captured LP as exact "a/b" JSON with its verdict, one per line,
    so a solver can be replayed and timed without the search."""
    with open(path, "w") as fh:
        for (op, c, A, b, res), check in zip(tracer.lps, tracer.lp_checks()):
            rec = {"workload": workload, "seed": seed, "op": op,
                   "c": [_q(v) for v in c],
                   "A": [[_q(v) for v in row] for row in A],
                   "b": [_q(v) for v in b],
                   "status": res.status,
                   "objective": None if res.objective is None
                   else _q(res.objective),
                   "x": None if res.x is None else [_q(v) for v in res.x],
                   "farkas": None if res.certificate is None
                   else [_q(v) for v in res.certificate],
                   "check": check}
            fh.write(json.dumps(rec) + "\n")
