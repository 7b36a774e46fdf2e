"""Exact linear programming over the rationals, in two stages: singleton-row
propagation, then a two-phase primal simplex with Bland's rule
(terminating, no cycling). Every infeasible LP gets a Farkas certificate
and every optimum a checked dual.

Propagation (the first presolve step of Andersen and Andersen, Math.
Programming 71, 1995) repeatedly takes a row with one column left unfixed
and fixes that column: x_j = r_i / a_ij, r_i being b_i minus the row's
fixed part. The LP is infeasible if a fixed value is negative, or if a row
has every column fixed and r_i != 0. Each fixed column j has a combination
Y_j of rows with Y_j.A = e_j and Y_j.b = x_j, so the Farkas vector is
y = -Y_j for a negative x_j, and y = +-(e_i - sum_k a_ik Y_k) for an
inconsistent row i. When propagation proves nothing, the simplex runs on
the same (c, A, b) from scratch, so its pivots, vertex and certificates do
not depend on the first stage.

The tableau is fraction-free (Bareiss, Math. Comp. 22, 1968; Azulay and
Pique, ACM TOMS 27(3), 2001): A and b are scaled by L, the lcm of all their
denominators, and the tableau T holds Python ints equal to d times the
Fraction tableau for one shared d > 0. A pivot on p = T[r][col] maps each
other row R to (p*R - R[col]*T[r]) // d, an exact division, and p becomes
d. The tableau is stored by columns, each sparse as {row: nonzero int},
and each column j has its own lazy scale s[j] > 0: its true entries are
v * d // s[j]. A column outside row r's support only changes scale in a
pivot (every entry times p / d), so a pivot rewrites just the columns of
row r's support and leaves the others to their scale. Ratios are compared
exactly by cross-multiplication, so the pivots are those of the simplex on
Fractions."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Dict, List, Optional, Sequence, Set


_ZERO = Fraction(0)


class LPError(ValueError):
    pass


@dataclass
class LPResult:
    status: str                        # "optimal" | "infeasible" | "unbounded"
    x: Optional[List[Fraction]]
    objective: Optional[Fraction]
    certificate: Optional[List[Fraction]]   # Farkas vector y when infeasible
    dual: Optional[List[Fraction]] = None   # y with y.A >= c, y.b = objective
    pivots: int = 0                    # every pivot of both phases


def solve_lp(c: Sequence, A: Sequence[Sequence], b: Sequence) -> LPResult:
    """maximize c.x subject to A x = b, x >= 0; entries are ints or Fractions.

    Infeasible outcomes carry y with y.A <= 0 (componentwise) and y.b > 0;
    optimal ones carry a dual y with y.A >= c and y.b = c.x. Both are
    verified by assertion against (c, A, b) before returning. An LP that
    propagation refutes returns with 0 pivots.
    """
    if any(len(r) != len(c) for r in A) or len(b) != len(A):
        raise LPError("dimension mismatch")
    nonzero, cols = _sparse(A, len(c))
    y = _propagate(nonzero, cols, b)
    if y is not None:
        assert _is_farkas(nonzero, len(c), y, b), "bad Farkas certificate"
        return LPResult("infeasible", None, None, y)
    return _simplex(c, b, nonzero, cols)


def _sparse(A: Sequence[Sequence], n: int):
    """The caller's own nonzero entries, row by row, and the same entries
    by column as {row: entry}: propagation reads both, the tableau is built
    from them and every certificate is checked against the rows."""
    nonzero = [[(j, v) for j, v in enumerate(row) if v] for row in A]
    cols: List[Dict[int, object]] = [{} for _ in range(n)]
    for i, nz in enumerate(nonzero):
        for j, v in nz:
            cols[j][i] = v
    return nonzero, cols


def _times(nonzero, n: int, Y) -> list:
    """Y.A, summed over the nonzero terms only."""
    out = [0] * n
    for yi, nz in zip(Y, nonzero):
        if yi:
            for j, a in nz:
                out[j] += yi * a
    return out


def _is_farkas(nonzero, n: int, Y, b) -> bool:
    """Y.A <= 0 and Y.b > 0: no x >= 0 has A x = b."""
    return all(v <= 0 for v in _times(nonzero, n, Y)) and \
        sum(yi * bi for yi, bi in zip(Y, b) if yi) > 0


def _div(x, a):
    """x / a, an int where the division is exact."""
    if type(x) is int and type(a) is int and not x % a:
        return x // a
    return Fraction(x, a)


def _propagate(nonzero, cols, b) -> Optional[List[Fraction]]:
    """Singleton-row propagation: a Farkas vector if it proves the LP
    infeasible, else None."""
    left = [len(nz) for nz in nonzero]      # unfixed columns per row
    res = list(b)                           # b minus the fixed part
    fixed: Dict[int, tuple] = {}            # column -> (row, entry), in order
    if 0 in left:
        for i, k in enumerate(left):
            if not k and res[i]:            # y = sign(b_i) e_i
                return _back_substitute(nonzero, fixed, i, None,
                                        1 if res[i] > 0 else -1)
    queue = [i for i, k in enumerate(left) if k == 1]
    for i in queue:                         # grows while it is read
        if left[i] != 1:
            continue
        for j, a in nonzero[i]:
            if j not in fixed:
                break
        x = res[i]
        if x:
            x = _div(x, a)
            if x < 0:                       # y = -Y_j
                return _back_substitute(nonzero, fixed, i, j,
                                        Fraction(-1, a))
        fixed[j] = (i, a)
        # row i is in column j too: its count and residual drop to 0
        for k, v in cols[j].items():
            if x:
                res[k] -= v * x
            left[k] -= 1
            if left[k] == 1:
                queue.append(k)
            elif not left[k] and res[k]:
                return _back_substitute(nonzero, fixed, k, None,
                                        1 if res[k] > 0 else -1)
    return None


def _back_substitute(nonzero, fixed, i: int, j: Optional[int],
                     scale) -> List[Fraction]:
    """scale * Z, where Z = e_i - sum_k a_ik Y_k over the fixed columns
    k != j of row i: Z.A = a_ij e_j (0 for j = None) and Z.b is row i's
    residual. Each Y_k is expanded through the row that fixed k, latest
    first, since it needs only columns fixed before k."""
    z = {i: 1}
    w = {k: a for k, a in nonzero[i] if k != j}     # Z = z - sum w_k Y_k
    for k in reversed(fixed):
        wk = w.pop(k, 0)
        if wk:
            row, a = fixed[k]
            f = _div(wk, a)
            z[row] = z.get(row, 0) - f
            for col, v in nonzero[row]:
                if col != k:
                    w[col] = w.get(col, 0) - f * v
    y = [_ZERO] * len(nonzero)
    for row, v in z.items():
        y[row] = Fraction(v * scale)
    return y


def _over(V, d: int) -> List[Fraction]:
    """[v / d for v in V] as Fractions; the zeros, often most of V, share
    one."""
    return [Fraction(v, d) if v else _ZERO for v in V]


def _simplex(c: Sequence, b: Sequence, nonzero, cols) -> LPResult:
    """The two-phase fraction-free simplex on `_sparse`'s rows and
    columns; cols becomes its tableau."""
    m, n = len(nonzero), len(c)
    sign = [1 if b[i] >= 0 else -1 for i in range(m)]
    # one scale for all rows: a scale per row would change the phase-1
    # reduced costs, and with them the pivots and the vertex found
    L = lcm(*(v.denominator for nz in nonzero for _, v in nz),
            *(v.denominator for v in b))
    # with L = 1 and int entries, a row of b_i >= 0 enters the tableau as
    # it stands in cols
    ints = L == 1 and all(type(v) is int for nz in nonzero for _, v in nz)
    width = n + m               # artificial columns n..n+m-1; rhs at width

    def scaled(v, k):           # k*v, k a multiple of v's denominator
        return v.numerator * (k // v.denominator)

    # column-major: cols[j] is column j as {row: nonzero int}, support[i]
    # the set of columns where row i is nonzero. Each column has its own
    # lazy scale: the true entry (d times the Fraction one) is v * d // s[j]
    cols.extend({i: 1} for i in range(m))
    cols.append({})
    support: List[Set[int]] = []
    for i, nz in enumerate(nonzero):
        if sign[i] < 0 or not ints:
            for j, v in nz:
                cols[j][i] = sign[i] * scaled(v, L)
        row = {j for j, _ in nz}
        row.add(n + i)
        if b[i]:
            cols[width][i] = sign[i] * scaled(b[i], L)
            row.add(width)
        support.append(row)
    s = [1] * (width + 1)
    basis = [n + i for i in range(m)]
    d = 1
    pivots = 0

    def catch_up(j: int):
        """Bring column j to the current scale: it missed only rescales,
        which telescope to d / s[j], and its true entries are integers."""
        sj = s[j]
        if sj != d:
            column = cols[j]
            for i, v in column.items():
                column[i] = v * d // sj
            s[j] = d

    def pivot(r: int, col: int):
        """Pivot on entry (r, col); a reduced-cost row m goes too. Only the
        columns of row r's support change; for every other column the pivot
        is the rescale by p / d, which its lazy scale absorbs."""
        nonlocal d, pivots
        catch_up(col)
        pcol = cols[col]
        p = pcol[r]
        frows = [(i, f) for i, f in pcol.items() if i != r]
        for j in support[r]:
            if j == col:
                continue
            catch_up(j)
            column = cols[j]
            q = column[r]
            if p != d:
                for i, x in column.items():
                    if i not in pcol:
                        column[i] = x * p // d
            for i, f in frows:
                x = column.get(i, 0)
                v = (p * x - f * q) // d
                if v:
                    column[i] = v
                    if not x:
                        support[i].add(j)
                elif x:
                    del column[i]
                    support[i].discard(j)
            s[j] = p
        for i, _ in frows:
            support[i].discard(col)
        cols[col] = {r: p}
        s[col] = p
        d, pivots, basis[r] = p, pivots + 1, col

    def run_simplex(obj: Dict[int, int], allowed: int):
        """Maximize obj.x over columns [0, allowed); returns the reduced
        objective row over d (entry `width` holds -d times the optimal
        value), or None when unbounded."""
        z = {j: d * v for j, v in obj.items()}
        for i, bi in enumerate(basis):
            f = obj.get(bi)
            if f:               # column bi is d times a unit vector
                for j in support[i]:
                    z[j] = z.get(j, 0) - f * (cols[j][i] * d // s[j])
        support.append(set())   # z is row m while the phase runs
        for j, v in z.items():
            if v:
                catch_up(j)
                cols[j][m] = v
                support[m].add(j)
        rhs = cols[width]
        while (col := min((j for j in support[m]
                           if j < allowed and cols[j][m] > 0),
                          default=None)) is not None:
            # Bland: the least ratio rhs/a over a > 0, compared as
            # h * a' < h' * a; ties go to the least basic variable. The
            # scales of the two columns are positive and common to all
            # rows, so stored entries compare as true ones
            r = -1
            for i, a in cols[col].items():
                if a > 0 and i < m:
                    h = rhs.get(i, 0)
                    if r < 0 or h * ar < hr * a or \
                            (h * ar == hr * a and basis[i] < basis[r]):
                        r, ar, hr = i, a, h
            if r < 0:
                break
            pivot(r, col)
        z = {j: cols[j].pop(m) * d // s[j] for j in support.pop()}
        return z if col is None else None   # col has no ratio: unbounded

    # phase 1: maximize -sum(artificials); feasible iff the optimum is 0
    z1 = run_simplex({n + i: -1 for i in range(m)}, width)
    assert z1 is not None           # bounded: objective <= 0 always
    if z1.get(width, 0) != 0:       # -optimum > 0: infeasible
        Y = [sign[i] * (d + z1.get(n + i, 0)) for i in range(m)]  # d*y
        assert _is_farkas(nonzero, n, Y, b), "bad Farkas certificate"
        return LPResult("infeasible", None, None,
                        _over(Y, d), pivots=pivots)

    # drive leftover artificials out of the basis (degenerate rows); one
    # stays only on an all-zero row with zero rhs, which is redundant
    for i in range(m):
        if basis[i] >= n:
            col = min((j for j in support[i] if j < n), default=None)
            if col is not None:
                pivot(i, col)
                if d < 0:
                    # keep d and every scale positive: d = -d negates each
                    # true entry (the Fraction tableau stays), and the
                    # columns this pivot rewrote, at scale -d, catch up
                    d = -d
                    for j in support[i]:
                        catch_up(j)

    Lc = lcm(*(v.denominator for v in c))
    z2 = run_simplex({j: scaled(v, Lc) for j, v in enumerate(c) if v}, n)
    if z2 is None:
        return LPResult("unbounded", None, None, None, pivots=pivots)
    X = [0] * n                     # d*x
    catch_up(width)
    for i, bi in enumerate(basis):
        if bi < n:
            X[bi] = cols[width].get(i, 0)
    assert all(sum(a * X[j] for j, a in nz) == d * bi
               for nz, bi in zip(nonzero, b)) and all(v >= 0 for v in X), \
        "reported solution infeasible"
    objective = Fraction(sum(cj * xj for cj, xj in zip(c, X) if xj), d)
    # the phase-2 artificial columns hold -d*Lc/L times the multipliers
    Y = [-sign[i] * L * z2.get(n + i, 0) for i in range(m)]     # d*Lc*y
    dLc = d * Lc
    assert all(v >= dLc * cj for v, cj in zip(_times(nonzero, n, Y), c)) \
        and sum(yi * bi for yi, bi in zip(Y, b)) == dLc * objective, \
        "bad dual"
    return LPResult("optimal", _over(X, d), objective, None, _over(Y, dLc),
                    pivots)
