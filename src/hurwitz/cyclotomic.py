"""Exact arithmetic in cyclotomic fields Q(zeta_N) with rational coefficients.

Values are coordinate vectors in the power basis 1, zeta_N, ...,
zeta_N^(phi(N)-1), so two equal values with the same conductor have
identical coefficient vectors.  Every reduction goes through one table per
conductor, the coordinates of zeta_N^i for i < N.  Mixed-conductor
arithmetic lifts both operands to the lcm conductor.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Union

Rat = Union[int, Fraction]

_ZERO = Fraction(0)


def _prime_factors(n: int) -> list:
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        out.append(n)
    return out


@lru_cache(maxsize=None)
def euler_phi(n: int) -> int:
    result = n
    for p in _prime_factors(n):
        result -= result // p
    return result


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple:
    """Integer coefficients of Phi_n, lowest degree first: x^n - 1 divided
    exactly by the monic Phi_d of every proper divisor d of n."""
    poly = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            phi = cyclotomic_polynomial(d)
            top = len(phi) - 1
            quot = [0] * (len(poly) - top)
            for s in range(len(quot) - 1, -1, -1):
                c = quot[s] = poly[s + top]
                if c:
                    for i, y in enumerate(phi):
                        poly[s + i] -= c * y
            poly = quot
    return tuple(poly)


@lru_cache(maxsize=None)
def _powers(n: int) -> tuple:
    """Row i holds the nonzero (j, c) with zeta_n^i = sum c zeta_n^j over the
    power basis, for i < n.  Each row is the last one times zeta, with the
    top term folded back by Phi_n."""
    phi = cyclotomic_polynomial(n)
    deg = len(phi) - 1
    dense = [1] + [0] * (deg - 1)
    rows = []
    for _ in range(n):
        rows.append(tuple((j, c) for j, c in enumerate(dense) if c))
        top = dense[-1]
        dense = [0] + dense[:-1]
        if top:
            dense = [c - top * a for c, a in zip(dense, phi)]
    return tuple(rows)


def _reduce(n: int, terms) -> tuple:
    """Coordinates of sum x * zeta_n^e over the (e, x) in terms."""
    rows = _powers(n)
    out = [0] * euler_phi(n)
    for e, x in terms:
        if x:
            for j, c in rows[e % n]:
                out[j] += c * x
    # one shared zero: most coordinates of a cached character value are 0
    return tuple(v if type(v) is Fraction else Fraction(v) if v else _ZERO
                 for v in out)


class Cyclotomic:
    """An element of Q(zeta_N), canonically reduced mod Phi_N."""

    __slots__ = ("n", "coeffs")

    def __init__(self, n: int, coeffs: Iterable[Rat]):
        if n < 1:
            raise ValueError("conductor must be positive")
        self.n = n
        self.coeffs = _reduce(n, enumerate(coeffs))

    @staticmethod
    def _of(n: int, coeffs: tuple) -> "Cyclotomic":
        """Wrap a vector of Fractions that is already reduced mod Phi_n."""
        x = object.__new__(Cyclotomic)
        x.n = n
        x.coeffs = coeffs
        return x

    # -- constructors --

    @staticmethod
    def from_rational(q: Rat) -> "Cyclotomic":
        return Cyclotomic._of(1, (Fraction(q),))

    @staticmethod
    def zeta(n: int, k: int = 1) -> "Cyclotomic":
        c = [0] * n
        c[k % n] = 1
        return Cyclotomic(n, c)

    # -- coercion --

    @staticmethod
    def _coerce(x) -> "Cyclotomic":
        if isinstance(x, Cyclotomic):
            return x
        if isinstance(x, (int, Fraction)):
            return Cyclotomic.from_rational(x)
        return NotImplemented

    def lift(self, m: int) -> "Cyclotomic":
        """Rewrite in Q(zeta_m), where n | m."""
        if m == self.n:
            return self
        if m % self.n:
            raise ValueError("can only lift to a multiple of the conductor")
        step = m // self.n
        return Cyclotomic._of(m, _reduce(
            m, ((i * step, x) for i, x in enumerate(self.coeffs))))

    def _pair(self, other) -> tuple["Cyclotomic", "Cyclotomic"]:
        m = self.n * other.n // math.gcd(self.n, other.n)
        return self.lift(m), other.lift(m)

    # -- ring operations --

    def __add__(self, other):
        other = Cyclotomic._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self._pair(other)
        return Cyclotomic._of(a.n, tuple(x + y for x, y in
                                         zip(a.coeffs, b.coeffs)))

    __radd__ = __add__

    def __neg__(self):
        return Cyclotomic._of(self.n, tuple(-x for x in self.coeffs))

    def __sub__(self, other):
        other = Cyclotomic._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def _scale(self, q: Fraction) -> "Cyclotomic":
        return Cyclotomic._of(self.n, tuple(x * q for x in self.coeffs))

    def __mul__(self, other):
        other = Cyclotomic._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if other.n == 1:
            return self._scale(other.coeffs[0])
        if self.n == 1:
            return other._scale(self.coeffs[0])
        a, b = self._pair(other)
        conv = [0] * (2 * len(a.coeffs) - 1)
        for i, x in enumerate(a.coeffs):
            if x:
                for j, y in enumerate(b.coeffs):
                    if y:
                        conv[i + j] += x * y
        return Cyclotomic._of(a.n, _reduce(a.n, enumerate(conv)))

    __rmul__ = __mul__

    def _other_conjugates(self) -> "Cyclotomic":
        """The product of sigma_k(self) over the units k != 1 mod n."""
        prod = Cyclotomic.from_rational(1).lift(self.n)
        for k in range(2, self.n):
            if math.gcd(k, self.n) == 1:
                prod = prod * self.galois(k)
        return prod

    def norm(self) -> Fraction:
        """The norm from Q(zeta_n) to Q: the product of all conjugates."""
        return (self * self._other_conjugates()).to_fraction()

    def inverse(self) -> "Cyclotomic":
        if self.is_zero():
            raise ZeroDivisionError("cyclotomic division by zero")
        rest = self._other_conjugates()
        return rest._scale(1 / (self * rest).to_fraction())

    def __truediv__(self, other):
        other = Cyclotomic._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        return Cyclotomic._coerce(other) * self.inverse()

    def __pow__(self, k: int):
        if k < 0:
            return self.inverse() ** (-k)
        result = Cyclotomic.from_rational(1)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    # -- Galois action --

    def galois(self, k: int) -> "Cyclotomic":
        """Apply zeta_n -> zeta_n^k; requires gcd(k, n) = 1."""
        if math.gcd(k, self.n) != 1:
            raise ValueError("galois exponent not coprime to conductor")
        return Cyclotomic._of(self.n, _reduce(
            self.n, ((i * k, x) for i, x in enumerate(self.coeffs))))

    def conj(self) -> "Cyclotomic":
        return self.galois(self.n - 1) if self.n > 2 else self

    # -- predicates --

    def is_zero(self) -> bool:
        return all(x == 0 for x in self.coeffs)

    def is_rational(self) -> bool:
        return all(x == 0 for x in self.coeffs[1:])

    def to_fraction(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self!r} is not rational")
        return self.coeffs[0]

    def descend(self) -> "Cyclotomic":
        """Rewrite with the smallest conductor d | n containing the value.
        The fields Q(zeta_d) that contain it are closed under gcd, so
        dropping one prime of the conductor at a time reaches d."""
        if self.is_rational():
            return self if self.n == 1 else \
                Cyclotomic.from_rational(self.to_fraction())
        x = self
        while True:
            for p in _prime_factors(x.n):
                y = x._drop(p)
                if y is not None:
                    break
            else:
                return x
            x = y

    def _drop(self, p: int):
        """The value in Q(zeta_(n/p)), or None when it is not there."""
        n, m = self.n, self.n // p
        if m % p == 0:
            # Phi_n(x) = Phi_m(x^p): the coordinates are read off
            y = Cyclotomic._of(m, self.coeffs[::p])
        else:
            # zeta_n = zeta_m^u zeta_p^v; a value of Q(zeta_m) is its trace
            # to Q(zeta_m) over p - 1, and Tr zeta_p^b is p - 1 (p | b) or -1
            u, v = pow(p, -1, m), pow(m, -1, p)
            trace = _reduce(m, ((i * u, -x if i * v % p else (p - 1) * x)
                                for i, x in enumerate(self.coeffs)))
            y = Cyclotomic._of(m, tuple(t / (p - 1) for t in trace))
        return y if y.lift(n).coeffs == self.coeffs else None

    def __eq__(self, other):
        other = Cyclotomic._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self._pair(other)
        return a.coeffs == b.coeffs

    def __hash__(self):
        if self.is_rational():
            return hash(self.to_fraction())
        c = self.descend()
        return hash((c.n, c.coeffs))

    def __repr__(self):
        if self.is_rational():
            return str(self.to_fraction())
        terms = []
        for i, x in enumerate(self.coeffs):
            if x:
                if i == 0:
                    terms.append(str(x))
                elif i == 1:
                    terms.append(f"{x}*z{self.n}")
                else:
                    terms.append(f"{x}*z{self.n}^{i}")
        return " + ".join(terms) if terms else "0"
