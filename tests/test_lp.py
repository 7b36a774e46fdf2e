import itertools
import random
from fractions import Fraction

import hurwitz.obstruction as obstruction
from hurwitz.groups import subgroup_class_of, subgroup_classes
from hurwitz.lp import solve_lp
from hurwitz.obstruction import enumerate_shapes, solve_tree_metric


def brute_force(c, A, b):
    """Enumerate basic solutions of Ax=b, x>=0; exact but exponential."""
    m, n = len(A), len(c)
    best = None
    feasible = False
    for k in range(min(m, n) + 1):
      for cols in itertools.combinations(range(n), k):
        sol = _solve_square([[A[i][j] for j in cols]
                             for i in range(m)], b)
        if sol is None:
            continue
        x = [Fraction(0)] * n
        for j, v in zip(cols, sol):
            x[j] = v
        if any(v < 0 for v in x):
            continue
        if all(sum(A[i][j] * x[j] for j in range(n)) == b[i]
               for i in range(m)):
            feasible = True
            val = sum(c[j] * x[j] for j in range(n))
            if best is None or val > best:
                best = val
    return feasible, best


def _solve_square(M, b):
    m = len(M)
    n = len(M[0]) if M else 0
    aug = [[Fraction(x) for x in row] + [Fraction(b[i])]
           for i, row in enumerate(M)]
    row = 0
    pivots = []
    for col in range(n):
        piv = next((r for r in range(row, m) if aug[r][col] != 0), None)
        if piv is None:
            continue
        aug[row], aug[piv] = aug[piv], aug[row]
        aug[row] = [x / aug[row][col] for x in aug[row]]
        for r in range(m):
            if r != row and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[row])]
        pivots.append(col)
        row += 1
        if row == m:
            break
    if any(all(v == 0 for v in r[:-1]) and r[-1] != 0 for r in aug):
        return None
    if len(pivots) < n:
        return None
    sol = [Fraction(0)] * n
    for r, col in enumerate(pivots):
        sol[col] = aug[r][-1]
    return sol


def test_simple_feasible():
    res = solve_lp([Fraction(1), Fraction(0)],
                   [[Fraction(1), Fraction(1)]], [Fraction(3)])
    assert res.status == "optimal"
    assert res.objective == 3


def test_simple_infeasible_has_certificate():
    res = solve_lp([Fraction(0)],
                   [[Fraction(1)], [Fraction(1)]],
                   [Fraction(1), Fraction(2)])
    assert res.status == "infeasible"
    assert res.certificate is not None


def test_unbounded_detected():
    res = solve_lp([Fraction(1), Fraction(0)],
                   [[Fraction(1), Fraction(-1)]], [Fraction(0)])
    assert res.status == "unbounded"


def test_degenerate_cycles_terminate():
    # classic degeneracy: multiple bases describe the same vertex
    c = [Fraction(x) for x in (3, 2, 0, 0, 0)]
    A = [[Fraction(x) for x in row] for row in
         ((1, 1, 1, 0, 0), (1, 0, 0, 1, 0), (0, 1, 0, 0, 1))]
    b = [Fraction(x) for x in (0, 0, 0)]
    res = solve_lp(c, A, b)
    assert res.status == "optimal"
    assert res.objective == 0


def test_against_brute_force_random():
    rng = random.Random(321)
    mismatches = 0
    for _ in range(120):
        m = rng.randint(1, 3)
        n = rng.randint(m, 5)
        A = [[Fraction(rng.randint(-3, 3)) for _ in range(n)]
             for _ in range(m)]
        b = [Fraction(rng.randint(-4, 4)) for _ in range(m)]
        c = [Fraction(rng.randint(-3, 3)) for _ in range(n)]
        res = solve_lp(c, A, b)
        feasible, best = brute_force(c, A, b)
        if res.status == "infeasible":
            mismatches += feasible
        elif res.status == "optimal":
            # brute force sees the same optimum over basic solutions
            mismatches += (not feasible) or (best != res.objective)
        else:
            mismatches += not feasible
    assert mismatches == 0


def reference_simplex(c, A, b, trace=None):
    """The Fraction-tableau simplex that solve_lp replaced, kept as the
    reference: the same two phases, Bland rule and drive-out step, with
    every entry a Fraction. Returns (status, x, objective, certificate,
    dual, pivots); the dual of an optimum is read from the phase-2 reduced
    costs of the artificial columns. A trace list gets, for each pivot,
    (step, pivot entry, the columns where the pivot row is nonzero), step
    being "simplex" or "drive-out"."""
    m, n = len(A), len(c)
    c = [Fraction(v) for v in c]
    A0 = [[Fraction(v) for v in row] for row in A]
    b0 = [Fraction(v) for v in b]
    sign = [1 if b0[i] >= 0 else -1 for i in range(m)]
    T = [[sign[i] * v for v in A0[i]] + [Fraction(int(i == j))
                                         for j in range(m)]
         + [sign[i] * b0[i]] for i in range(m)]
    basis = [n + i for i in range(m)]
    width = n + m
    pivots = 0

    def pivot(r, col, step="simplex"):
        nonlocal pivots
        pivots += 1
        piv = T[r][col]
        if trace is not None:
            trace.append((step, piv,
                          {j for j, v in enumerate(T[r][:width]) if v}))
        T[r] = [v / piv for v in T[r]]
        for i in range(m):
            if i != r and T[i][col] != 0:
                f = T[i][col]
                T[i] = [a - f * p for a, p in zip(T[i], T[r])]

    def run_simplex(obj, allowed):
        z = obj[:] + [Fraction(0)] * (width + 1 - len(obj))
        for i, bi in enumerate(basis):
            if z[bi] != 0:
                f = z[bi]
                z = [a - f * p for a, p in zip(z, T[i])]
        while True:
            col = next((j for j in range(allowed) if z[j] > 0), None)
            if col is None:
                return z
            ratios = [(T[i][width] / T[i][col], basis[i], i)
                      for i in range(m) if T[i][col] > 0]
            if not ratios:
                return None
            _, _, r = min(ratios)
            pivot(r, col)
            basis[r] = col
            if z[col] != 0:
                f = z[col]
                z = [a - f * p for a, p in zip(z, T[r])]

    z1 = run_simplex([Fraction(0)] * n + [Fraction(-1)] * m, width)
    if z1[width] != 0:
        return ("infeasible", None, None,
                [sign[i] * (1 + z1[n + i]) for i in range(m)], None, pivots)
    for i in range(m):
        if basis[i] >= n:
            col = next((j for j in range(n) if T[i][j] != 0), None)
            if col is not None:
                pivot(i, col, "drive-out")
                basis[i] = col
    z2 = run_simplex(c, n)
    if z2 is None:
        return ("unbounded", None, None, None, None, pivots)
    x = [Fraction(0)] * n
    for i, bi in enumerate(basis):
        if bi < n:
            x[bi] = T[i][width]
    return ("optimal", x, sum(ci * xi for ci, xi in zip(c, x)), None,
            [-sign[i] * z2[n + i] for i in range(m)], pivots)


def assert_matches_reference(c, A, b):
    """solve_lp equals the reference field for field, pivot count
    included, and an optimum carries a dual y with y.A >= c and
    y.b = c.x."""
    res = solve_lp(c, A, b)
    assert (res.status, res.x, res.objective, res.certificate, res.dual,
            res.pivots) == reference_simplex(c, A, b)
    if res.status == "optimal":
        y = res.dual
        assert len(y) == len(A)
        for j in range(len(c)):
            assert sum(y[i] * A[i][j] for i in range(len(A))) >= c[j]
        assert sum(yi * bi for yi, bi in zip(y, b)) == res.objective
    else:
        assert res.dual is None
    return res


def _random_rational(rng, lo, hi):
    return Fraction(rng.randint(lo, hi), rng.randint(1, 6))


def test_matches_fraction_reference_on_random_lps():
    rng = random.Random(11)
    statuses = []
    for _ in range(300):
        m = rng.randint(1, 5)
        n = rng.randint(1, 7)
        A = [[_random_rational(rng, -4, 4) if rng.random() < 0.7
              else Fraction(0) for _ in range(n)] for _ in range(m)]
        b = [_random_rational(rng, -5, 5) if rng.random() < 0.7
             else Fraction(0) for _ in range(m)]
        for i in range(m):
            kind = rng.random()
            if kind < 0.15:             # an all-zero row, zero rhs
                A[i], b[i] = [Fraction(0)] * n, Fraction(0)
            elif kind < 0.3 and i:      # a repeat of an earlier row
                k = rng.randrange(i)
                A[i], b[i] = A[k][:], b[k]
        c = [_random_rational(rng, -3, 3) for _ in range(n)]
        statuses.append(assert_matches_reference(c, A, b).status)
    assert all(statuses.count(s) > 10
               for s in ("optimal", "infeasible", "unbounded"))


def test_matches_fraction_reference_on_int_lps():
    # plain int entries, as solve_tree_metric passes wherever an entry is
    # integral
    rng = random.Random(12)
    statuses = []
    for _ in range(300):
        m = rng.randint(1, 5)
        n = rng.randint(1, 7)
        A = [[rng.randint(-4, 4) if rng.random() < 0.6 else 0
              for _ in range(n)] for _ in range(m)]
        b = [rng.randint(-5, 5) if rng.random() < 0.7 else 0
             for _ in range(m)]
        for i in range(1, m):
            if rng.random() < 0.15:     # a repeat of an earlier row
                k = rng.randrange(i)
                A[i], b[i] = A[k][:], b[k]
        c = [rng.randint(-3, 3) for _ in range(n)]
        statuses.append(assert_matches_reference(c, A, b).status)
    assert all(statuses.count(s) > 10
               for s in ("optimal", "infeasible", "unbounded"))


def test_minimum_ratio_tie_goes_to_the_least_basic_variable():
    # the second phase-1 pivot enters x2, whose column is 2 in both rows:
    # ratios 2/2 and 2/2 tie. Row 0 holds the artificial a0 (column 3) and
    # row 1 holds x0 (column 0), so Bland's rule pivots on row 1, not on
    # the first row nor on the larger basic index
    c = [-1, 0, 1]
    A = [[0, 0, 2], [1, -1, 2]]
    b = [2, 2]
    res = assert_matches_reference(c, A, b)
    assert res.status == "optimal" and res.pivots == 3
    assert res.x == [0, 0, 1] and res.objective == 1


def _captured_metric_lps(monkeypatch, G, p, shapes, delta_root_free):
    captured = []

    def capture(c, A, b):
        captured.append((c, A, b))
        return solve_lp(c, A, b)

    monkeypatch.setattr(obstruction, "solve_lp", capture)
    for shape in shapes:
        solve_tree_metric(G, p, shape, delta_root_free=delta_root_free)
    monkeypatch.undo()
    assert len(captured) == len(shapes)
    return captured


def test_matches_fraction_reference_on_q8_shape_lps(q8, monkeypatch):
    leaves = [subgroup_class_of(q8, q8.closure([q8.element_by_name(g)]))
              for g in ("tau", "sigma", "sigma*tau")]
    shapes = enumerate_shapes(q8, leaves)
    assert len(shapes) == 32
    for c, A, b in _captured_metric_lps(monkeypatch, q8, 2, shapes, False):
        assert assert_matches_reference(c, A, b).status == "infeasible"


def test_matches_fraction_reference_on_witness_shape_lps(z2, z3,
                                                         monkeypatch):
    statuses = []
    for G, p in ((z2, 2), (z3, 3)):
        [C] = subgroup_classes(G, nontrivial_only=True)
        shapes = [sh for k in (2, 3, 4)
                  for sh in enumerate_shapes(G, [C] * k)]
        for c, A, b in _captured_metric_lps(monkeypatch, G, p, shapes, True):
            res = assert_matches_reference(c, A, b)
            statuses.append((res.status, res.objective))
    assert ("optimal", 0) in statuses
    assert any(s == "optimal" and v > 0 for s, v in statuses)


def test_negative_drive_out_pivot_keeps_denominator_positive():
    # phase 1 makes no pivot (b = 0 and no column has a positive reduced
    # cost), so the artificial stays basic and the drive-out step pivots
    # on A[0][0] = -1: the only pivot of the run
    c = [Fraction(1), Fraction(1)]
    A = [[Fraction(-1), Fraction(-3)]]
    b = [Fraction(0)]
    res = assert_matches_reference(c, A, b)
    assert res.pivots == 1
    assert res.status == "optimal" and res.objective == 0
    assert res.dual == [Fraction(-1)]


def _longest_stale_stretch(trace, ncols):
    """The most consecutive pivots with a pivot entry other than 1 (in the
    integer tableau: p != d, a rescale of every column) whose row is zero
    in one column: that column keeps its lazy scale through all of them."""
    best = 0
    for j in range(ncols):
        run = 0
        for _, piv, row in trace:
            run = run + 1 if piv != 1 and j not in row else 0
            best = max(best, run)
    return best


def _block_lp(rng, blocks):
    """Independent random blocks on the diagonal, so a pivot in one block
    leaves every column of the others untouched. Most blocks are feasible
    (b = A x0 for some x0 >= 0, often with zero rhs entries, which leave
    artificials basic for the drive-out step); the others get a random b."""
    shapes = [(rng.randint(1, 3), rng.randint(2, 4)) for _ in range(blocks)]
    n = sum(cols for _, cols in shapes)
    A, b = [], []
    offset = 0
    for rows, cols in shapes:
        x0 = [Fraction(rng.randint(0, 3)) if rng.random() < 0.5
              else Fraction(0) for _ in range(cols)]
        feasible = rng.random() < 0.9
        for _ in range(rows):
            row = [Fraction(0)] * n
            for j in range(offset, offset + cols):
                if rng.random() < 0.8:
                    row[j] = _random_rational(rng, -4, 4)
            A.append(row)
            b.append(sum(v * x for v, x in zip(row[offset:], x0))
                     if feasible else _random_rational(rng, -5, 5))
        offset += cols
    c = [_random_rational(rng, -3, 3) for _ in range(n)]
    return c, A, b


def test_matches_fraction_reference_with_columns_left_stale():
    # pivots in one block rescale every column of the others (p != d)
    # without touching them: those columns only catch up when a later
    # pivot row reaches them, possibly after a negative drive-out pivot
    rng = random.Random(2020)
    statuses, stretches, negative_drive_outs = [], [], 0
    for _ in range(150):
        c, A, b = _block_lp(rng, rng.randint(3, 5))
        trace = []
        reference_simplex(c, A, b, trace)
        stretches.append(_longest_stale_stretch(trace, len(c)))
        negative_drive_outs += sum(step == "drive-out" and piv < 0
                                   for step, piv, _ in trace)
        statuses.append(assert_matches_reference(c, A, b).status)
    assert max(stretches) >= 10
    assert sum(k >= 4 for k in stretches) >= 100
    assert negative_drive_outs >= 100
    assert all(statuses.count(s) > 10
               for s in ("optimal", "infeasible", "unbounded"))
