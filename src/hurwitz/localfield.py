"""The cyclotomic local field Q(zeta_{p^m}) with its unique valuation
extending val(p) = 1, plus polynomials and Moebius maps over it, and
truncated series over it or over a finite field.  All arithmetic is
exact."""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from .cyclotomic import Cyclotomic, euler_phi
from .groups import is_prime, valuation


class FieldError(ValueError):
    pass


class PrecisionError(ArithmeticError):
    """A series computation needs more z-precision to be conclusive."""


def _vp(q: Fraction, p: int) -> int:
    """p-adic valuation of a nonzero rational."""
    return valuation(q.numerator, p) - valuation(q.denominator, p)


class CycloLocalField:
    """Q(zeta_{p^m}) viewed p-adically; totally ramified of degree phi(p^m),
    so the valuation extends uniquely: val(x) = v_p(Norm(x)) / phi(p^m)."""

    def __init__(self, p: int, m: int):
        if not is_prime(p) or not isinstance(m, int) or m < 1:
            raise FieldError(f"need a prime p and level m >= 1, got "
                             f"p = {p!r}, m = {m!r}")
        self.p = p
        self.m = m
        self.n = p ** m
        self.degree = euler_phi(self.n)

    # the coefficient-field operations of TruncatedSeries
    zero = Cyclotomic.from_rational(0)
    add, sub, mul = operator.add, operator.sub, operator.mul
    is_zero = staticmethod(Cyclotomic.is_zero)

    def element(self, x) -> Cyclotomic:
        x = Cyclotomic._coerce(x)
        y = x.descend()
        if self.n % y.n != 0:
            raise FieldError(
                f"conductor {y.n} does not divide {self.n}: not in the field")
        return x

    def zeta(self) -> Cyclotomic:
        return Cyclotomic.zeta(self.n)

    def uniformizer(self) -> Cyclotomic:
        # val(zeta - 1) = 1/phi(p^m)
        return self.zeta() - Cyclotomic.from_rational(1)

    def norm(self, x) -> Fraction:
        return self.element(x).lift(self.n).norm()

    def val(self, x) -> Optional[Fraction]:
        """Valuation normalized by val(p) = 1; None for x = 0."""
        x = self.element(x)
        if x.is_zero():
            return None
        if x.is_rational():
            return Fraction(_vp(x.to_fraction(), self.p))
        return Fraction(_vp(self.norm(x), self.p), self.degree)

    def with_valuation(self, v: Fraction) -> Cyclotomic:
        """Some field element of exact valuation v."""
        v = Fraction(v)
        t = v * self.degree
        if t.denominator != 1:
            raise FieldError(
                f"valuation {v} not attainable: value group is (1/{self.degree})Z")
        return self.uniformizer() ** int(t)

    def residue(self, x) -> int:
        """Image in the residue field F_p of an element with val >= 0."""
        x = self.element(x)
        v = self.val(x)
        if v is not None and v < 0:
            raise FieldError("residue of an element with negative valuation")
        for r in range(self.p):
            d = x - Cyclotomic.from_rational(r)
            if d.is_zero() or self.val(d) > 0:
                return r
        raise FieldError("no residue found")  # unreachable: k = F_p


# -- polynomials over the field: list of Cyclotomic, index = degree --

def poly_trim(f: List[Cyclotomic]) -> List[Cyclotomic]:
    while f and f[-1].is_zero():
        f = f[:-1]
    return f


def gauss_valuation_poly(field: CycloLocalField, f: Sequence) -> Fraction:
    """min_i val(a_i) over the nonzero coefficients."""
    vals = [field.val(c) for c in f]
    vals = [v for v in vals if v is not None]
    if not vals:
        raise FieldError("Gauss valuation of the zero polynomial")
    return min(vals)


def weierstrass_degree_poly(field: CycloLocalField, f: Sequence) -> int:
    """Smallest index attaining the Gauss valuation (zeros on the OPEN disk)."""
    mv = gauss_valuation_poly(field, f)
    for i, c in enumerate(f):
        if field.val(c) == mv:
            return i
    raise FieldError("unreachable")


# -- Moebius maps: projective 2x2 matrices acting by z -> (az+b)/(cz+d) --

class MobiusMap:
    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a, b, c, d):
        self.a = Cyclotomic._coerce(a)
        self.b = Cyclotomic._coerce(b)
        self.c = Cyclotomic._coerce(c)
        self.d = Cyclotomic._coerce(d)
        if self.det().is_zero():
            raise FieldError("Moebius matrix is singular")

    @staticmethod
    def identity() -> "MobiusMap":
        return MobiusMap(1, 0, 0, 1)

    def det(self) -> Cyclotomic:
        return self.a * self.d - self.b * self.c

    def compose(self, other: "MobiusMap") -> "MobiusMap":
        """self after other: (self.compose(other))(z) = self(other(z))."""
        return MobiusMap(self.a * other.a + self.b * other.c,
                         self.a * other.b + self.b * other.d,
                         self.c * other.a + self.d * other.c,
                         self.c * other.b + self.d * other.d)

    def inverse(self) -> "MobiusMap":
        return MobiusMap(self.d, -self.b, -self.c, self.a)

    def projectively_equal(self, other: "MobiusMap") -> bool:
        u = (self.a, self.b, self.c, self.d)
        v = (other.a, other.b, other.c, other.d)
        for i in range(4):
            for j in range(i + 1, 4):
                if u[i] * v[j] != u[j] * v[i]:
                    return False
        return True

    def is_identity(self) -> bool:
        return self.projectively_equal(MobiusMap.identity())

    def displacement(self) -> Tuple[list, list]:
        """sigma(z) - z = (-c z^2 + (a-d) z + b) / (cz + d)."""
        num = poly_trim([self.b, self.a - self.d, -self.c])
        den = poly_trim([self.d, self.c])
        return num, den

    def preserves_open_disk(self, field: CycloLocalField) -> bool:
        vd = field.val(self.d)
        if vd is None:
            return False
        vb = field.val(self.b)
        vc = field.val(self.c)
        if vb is not None and vb <= vd:
            return False
        if vc is not None and vc < vd:
            return False
        return field.val(self.det()) == 2 * vd

    def apply(self, z: Cyclotomic) -> Cyclotomic:
        den = self.c * z + self.d
        if den.is_zero():
            raise FieldError("Moebius map has a pole at the given point")
        return (self.a * z + self.b) / den

    def conjugate_by_linear(self, alpha, center) -> "MobiusMap":
        """The map in the coordinate w with z = alpha*w + center."""
        alpha = Cyclotomic._coerce(alpha)
        center = Cyclotomic._coerce(center)
        L = MobiusMap(alpha, center, 0, 1)
        Linv = MobiusMap(Cyclotomic.from_rational(1), -center, 0, alpha)
        return Linv.compose(self).compose(L)

    def fixed_points(self, field: CycloLocalField) -> Optional[List[Cyclotomic]]:
        """Fixed points in the field (excluding infinity); None when the
        discriminant has no square root recognizable in the field."""
        if self.is_identity():
            raise FieldError("every point is fixed by the identity")
        if self.c.is_zero():
            if self.a == self.d:
                return []        # translation: the only fixed point is infinity
            return [self.b / (self.d - self.a)]
        # c z^2 + (d-a) z - b = 0
        disc = (self.d - self.a) ** 2 + 4 * (self.b * self.c)
        root = _field_sqrt(field, disc)
        if root is None:
            return None
        two_c = Cyclotomic.from_rational(2) * self.c
        out = [((self.a - self.d) + root) / two_c,
               ((self.a - self.d) - root) / two_c]
        return out[:1] if root.is_zero() else out


def _field_sqrt(field: CycloLocalField, x: Cyclotomic) -> Optional[Cyclotomic]:
    """A square root of x in Q(zeta_{p^m}), or None; exact by construction."""
    if x.is_zero():
        return Cyclotomic.from_rational(0)
    if x.is_rational():
        q = x.to_fraction()
        if q > 0:
            rn, rd = math.isqrt(q.numerator), math.isqrt(q.denominator)
            if rn * rn == q.numerator and rd * rd == q.denominator:
                return Cyclotomic.from_rational(Fraction(rn, rd))
    cand = _sympy_sqrt(field, x)
    if cand is not None and cand * cand == x:
        return cand
    return None


def _sympy_sqrt(field: CycloLocalField, x: Cyclotomic) -> Optional[Cyclotomic]:
    import sympy

    z = sympy.exp(2 * sympy.pi * sympy.I / field.n)
    xl = x.lift(field.n)
    expr = sum(sympy.Rational(c) * z ** i for i, c in enumerate(xl.coeffs))
    try:
        coords = sympy.to_number_field(sympy.sqrt(expr),
                                       sympy.AlgebraicNumber(z)).coeffs()
    except Exception:
        return None
    # coeffs() gives the representation in descending powers of z
    deg = field.degree
    out = [Fraction(0)] * deg
    for i, c in enumerate(reversed(coords)):
        out[i] = Fraction(sympy.Rational(c).p, sympy.Rational(c).q)
    return Cyclotomic(field.n, out)


# -- truncated power series --

class TruncatedSeries:
    """Polynomial representative of a series known modulo z^precision.

    The coefficients lie in a field that provides element (coercion),
    zero, add, sub, mul and is_zero: a CycloLocalField or a charp.GF."""

    __slots__ = ("field", "coeffs", "precision")

    def __init__(self, field, coeffs: Sequence, precision: int):
        if precision < 1:
            raise FieldError("precision must be >= 1")
        cs = [field.element(c) for c in coeffs[:precision]]
        cs += [field.zero] * (precision - len(cs))
        self.field = field
        self.coeffs = cs
        self.precision = precision

    def __add__(self, other):
        add = self.field.add
        return TruncatedSeries(self.field,
                               [add(a, b) for a, b in
                                zip(self.coeffs, other.coeffs)],
                               min(self.precision, other.precision))

    def __sub__(self, other):
        sub = self.field.sub
        return TruncatedSeries(self.field,
                               [sub(a, b) for a, b in
                                zip(self.coeffs, other.coeffs)],
                               min(self.precision, other.precision))

    def __mul__(self, other):
        F = self.field
        prec = min(self.precision, other.precision)
        out = [F.zero] * prec
        for i, a in enumerate(self.coeffs[:prec]):
            if F.is_zero(a):
                continue
            for j, b in enumerate(other.coeffs[:prec - i]):
                out[i + j] = F.add(out[i + j], F.mul(a, b))
        return TruncatedSeries(F, out, prec)

    def compose(self, other: "TruncatedSeries") -> "TruncatedSeries":
        """self(other(z)) by Horner evaluation of the polynomial
        representative; exact whenever the representatives are exact.
        Truncation modulo z^precision is a ring homomorphism, so this is
        sum_i c_i other^i truncated."""
        F = self.field
        acc = TruncatedSeries(F, [], min(self.precision, other.precision))
        for c in reversed(self.coeffs[:acc.precision]):
            acc = acc * other
            acc.coeffs[0] = F.add(acc.coeffs[0], c)
        return acc

    def is_zero(self) -> bool:
        return all(self.field.is_zero(c) for c in self.coeffs)

    def order(self) -> int:
        """ord_z; PrecisionError when zero to working precision."""
        for i, c in enumerate(self.coeffs):
            if not self.field.is_zero(c):
                return i
        raise PrecisionError("series vanishes to working precision")

    def __eq__(self, other):
        prec = min(self.precision, other.precision)
        return self.coeffs[:prec] == other.coeffs[:prec]

    def __repr__(self):
        return f"TruncatedSeries({self.coeffs}, O(z^{self.precision}))"

    @staticmethod
    def z(field, precision: int) -> "TruncatedSeries":
        return TruncatedSeries(field, [0, 1], precision)
