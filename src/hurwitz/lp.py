"""Exact linear programming over the rationals: two-phase primal simplex
with Bland's rule (terminating, no cycling), a Farkas certificate for every
infeasible LP and a checked dual for every optimum.

The tableau is fraction-free (Bareiss, Math. Comp. 22, 1968; Azulay and
Pique, ACM TOMS 27(3), 2001): A and b are scaled by L, the lcm of all their
denominators, and T holds Python ints equal to d times the Fraction tableau
for one shared d > 0. A pivot on p = T[r][col] maps each other row R to
(p*R - R[col]*T[r]) // d, an exact division, and p becomes d. Ratios are
compared exactly, so the pivots are those of the simplex on Fractions."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import List, Optional, Sequence


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
    verified by assertion against (c, A, b) before returning.
    """
    m, n = len(A), len(c)
    if any(len(r) != n for r in A) or len(b) != m:
        raise LPError("dimension mismatch")
    sign = [1 if b[i] >= 0 else -1 for i in range(m)]
    # one scale for all rows: a scale per row would change the phase-1
    # reduced costs, and with them the pivots and the vertex found
    L = lcm(*(v.denominator for row in A for v in row),
            *(v.denominator for v in b))

    def ints(k, row, s=1):      # s*k*row, k a multiple of each denominator
        return [s * v.numerator * (k // v.denominator) for v in row]

    def times(y, M):            # y.M, summed over the nonzero terms only
        out = [0] * n
        for yi, row in zip(y, M):
            if yi:
                for j, a in enumerate(row):
                    if a:
                        out[j] += yi * a
        return out

    # tableau with artificial columns n..n+m-1; last column = rhs
    T = [ints(L, A[i], sign[i]) + [int(i == j) for j in range(m)]
         + ints(L, [b[i]], sign[i]) for i in range(m)]
    basis = [n + i for i in range(m)]
    width = n + m
    d = 1
    pivots = 0

    def pivot(r: int, col: int):
        """Pivot on T[r][col]; a reduced-cost row appended to T goes too."""
        nonlocal d, pivots
        p, pr = T[r][col], T[r]
        for i, row in enumerate(T):
            f = row[col]
            if i != r and f != 0:
                T[i] = [(p * a - f * q) // d for a, q in zip(row, pr)]
            elif i != r and p != d:
                T[i] = [p * a // d for a in row]
        d, pivots, basis[r] = p, pivots + 1, col

    def run_simplex(obj: List[int], allowed: int) -> Optional[List[int]]:
        """Maximize obj.x over columns [0, allowed); returns the reduced
        objective row over d (entry `width` holds -d times the optimal
        value), or None when unbounded."""
        o = obj + [0] * (width + 1 - len(obj))
        z = [d * v for v in o]
        for i, bi in enumerate(basis):
            if o[bi] != 0:      # column bi of T is d times a unit vector
                z = [a - o[bi] * t for a, t in zip(z, T[i])]
        T.append(z)             # row m while the phase runs
        while (col := next((j for j in range(allowed) if T[m][j] > 0),
                           None)) is not None:
            ratios = [(Fraction(T[i][width], T[i][col]), basis[i], i)
                      for i in range(m) if T[i][col] > 0]
            if not ratios:
                T.pop()
                return None
            _, _, r = min(ratios)    # Bland: least index among min ratios
            pivot(r, col)
        return T.pop()

    # phase 1: maximize -sum(artificials); feasible iff the optimum is 0
    z1 = run_simplex([0] * n + [-1] * m, width)
    assert z1 is not None           # bounded: objective <= 0 always
    if z1[width] != 0:              # -optimum > 0: infeasible
        y = [Fraction(sign[i] * (d + z1[n + i]), d) for i in range(m)]
        assert all(v <= 0 for v in times(y, A)) and \
            sum(yi * bi for yi, bi in zip(y, b)) > 0, "bad Farkas certificate"
        return LPResult("infeasible", None, None, y, pivots=pivots)

    # drive leftover artificials out of the basis (degenerate rows); one
    # stays only on an all-zero row with zero rhs, which is redundant
    for i in range(m):
        if basis[i] >= n:
            col = next((j for j in range(n) if T[i][j] != 0), None)
            if col is not None:
                pivot(i, col)
                if d < 0:           # keep the shared denominator positive
                    T[:] = [[-v for v in row] for row in T]
                    d = -d

    Lc = lcm(*(v.denominator for v in c))
    z2 = run_simplex(ints(Lc, c), n)
    if z2 is None:
        return LPResult("unbounded", None, None, None, pivots=pivots)
    row_of = {bi: i for i, bi in enumerate(basis)}
    x = [Fraction(T[row_of[j]][width] if j in row_of else 0, d)
         for j in range(n)]
    support = [j for j in range(n) if x[j]]
    assert all(sum(A[i][j] * x[j] for j in support if A[i][j]) == b[i]
               for i in range(m)) and all(v >= 0 for v in x), \
        "reported solution infeasible"
    objective = sum(ci * xi for ci, xi in zip(c, x))
    # the phase-2 artificial columns hold -d*Lc/L times the multipliers
    y = [Fraction(-sign[i] * L * z2[n + i], d * Lc) for i in range(m)]
    assert all(v >= cj for v, cj in zip(times(y, A), c)) and \
        sum(yi * bi for yi, bi in zip(y, b)) == objective, "bad dual"
    return LPResult("optimal", x, objective, None, y, pivots)
