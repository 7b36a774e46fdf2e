"""Local actions in characteristic p: finite-field arithmetic by discrete-log
and Zech-log tables (q <= 256), actions on F_q[[z]] by truncated series
(localfield.TruncatedSeries over a GF), and the local Artin character
a(sigma) = -ord_z(sigma(z) - z)."""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Sequence, Tuple

from .characters import ClassFunction, _poly_divmod, _poly_mul
from .groups import (FiniteGroup, GroupError, elementary_abelian,
                     extend_from_generators, is_prime)
from .localfield import TruncatedSeries


class CharPError(ValueError):
    pass


class GF:
    """F_{p^k} for p^k <= 256; elements are ints 0..q-1 encoding polynomials
    over F_p in base p, multiplication modulo a found irreducible.

    Arithmetic reads tables built once from g, the least generator of
    F_q^*: exp[i] = g^i (for 0 <= i < 2(q-1)), log[g^i] = i, and the Zech
    logarithm zech[i] = log(1 + g^i), or -1 where 1 + g^i = 0. Then
    g^i + g^j = g^(i + zech[j - i])."""

    def __init__(self, p: int, k: int = 1):
        if not is_prime(p):
            raise CharPError(f"p = {p} is not a prime")
        q = p ** k
        if q > 256:
            raise CharPError("field order must be at most 256")
        self.p, self.k, self.q = p, k, q
        self.modulus = self._find_irreducible()
        self._gen, powers = self._least_generator()
        self._log = [0] * q
        for i, x in enumerate(powers):
            self._log[x] = i
        self._exp = powers * 2
        # 1 + x adds 1 to the constant digit of x
        self._zech = [self._log[y] if (y := x - x % p + (x + 1) % p) else -1
                      for x in powers]

    # -- polynomial encoding helpers --

    def _digits(self, x: int) -> List[int]:
        out = []
        while x:
            out.append(x % self.p)
            x //= self.p
        return out

    def _undigits(self, ds: Sequence[int]) -> int:
        out = 0
        for d in reversed(ds):
            out = out * self.p + (d % self.p)
        return out

    def _find_irreducible(self) -> List[int]:
        if self.k == 1:
            return [0, 1]
        # monic degree-k polynomial with no roots and no factor found by
        # trial products of lower-degree monics
        for tail in range(self.p ** self.k):
            poly = self._digits(tail) + [0] * self.k
            poly = poly[:self.k] + [1]
            if self._poly_irreducible(poly):
                return poly
        raise CharPError("no irreducible polynomial found")  # unreachable

    def _poly_irreducible(self, f: List[int]) -> bool:
        # x^(p^d) == x mod f has gcd checks; small sizes: brute force by
        # testing divisibility by all monic polys of degree <= k/2
        k = len(f) - 1
        for d in range(1, k // 2 + 1):
            for tail in range(self.p ** d):
                g = self._digits(tail)
                g += [0] * (d - len(g)) + [1]
                if not _poly_divmod(f, g, self.p)[1]:
                    return False
        return True

    def _mul_digits(self, a: int, b: int) -> int:
        prod = _poly_mul(self._digits(a), self._digits(b), self.p)
        return self._undigits(_poly_divmod(prod, self.modulus, self.p)[1])

    def _least_generator(self) -> Tuple[int, List[int]]:
        """(g, [g^0, ..., g^(q-2)]) for the least generator g of F_q^*."""
        if self.q == 2:
            return 1, [1]
        for a in range(2, self.q):
            powers, x = [1], a
            while x != 1:
                powers.append(x)
                x = self._mul_digits(x, a)
            if len(powers) == self.q - 1:
                return a, powers
        raise CharPError("unreachable")

    # -- field operations --

    zero = 0

    def element(self, x: int) -> int:
        """x as a field element, as a TruncatedSeries coefficient."""
        return x % self.q

    @staticmethod
    def is_zero(a: int) -> bool:
        return a == 0

    def add(self, a: int, b: int) -> int:
        if not a or not b:
            return a or b
        la = self._log[a]
        z = self._zech[self._log[b] - la]
        return 0 if z < 0 else self._exp[la + z]

    def neg(self, a: int) -> int:
        if not a or self.p == 2:
            return a
        # -1 = g^((q-1)/2) for odd q
        return self._exp[self._log[a] + (self.q - 1) // 2]

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        if not a or not b:
            return 0
        return self._exp[self._log[a] + self._log[b]]

    def inv(self, a: int) -> int:
        if a == 0:
            raise CharPError("division by zero")
        return self._exp[self.q - 1 - self._log[a]]

    def power(self, a: int, e: int) -> int:
        if a == 0:
            if e < 0:
                raise CharPError("division by zero")
            return 0 if e else 1
        return self._exp[self._log[a] * e % (self.q - 1)]

    def generator(self) -> int:
        """A multiplicative generator of F_q^*."""
        return self._gen


def geometric_fraction(gf: GF, mu: int, precision: int) -> TruncatedSeries:
    """t / (1 + mu t) = sum (-mu)^i t^{i+1}."""
    out = [0] * precision
    c = 1
    for i in range(1, precision):
        out[i] = c
        c = gf.mul(c, gf.neg(mu))
    return TruncatedSeries(gf, out, precision)


class LocalAction:
    """A faithful action of a finite group on k[[z]] given by truncated
    series for the generators (zero constant term, unit linear term)."""

    def __init__(self, gf: GF, group: FiniteGroup,
                 generator_series: Dict[str, TruncatedSeries]):
        self.gf = gf
        self.group = group
        gens = {group.element_by_name(n): s for n, s in generator_series.items()}
        for s in gens.values():
            if s.precision < 2:
                raise CharPError("precision must be at least 2")
            if s.coeffs[0] != 0:
                raise CharPError("automorphisms of k[[z]] fix z = 0")
            if s.coeffs[1] == 0:
                raise CharPError("linear coefficient must be a unit")
        prec = min((s.precision for s in gens.values()), default=4)
        zser = TruncatedSeries.z(gf, prec)
        try:
            maps = extend_from_generators(group, gens, zser,
                                          TruncatedSeries.compose,
                                          TruncatedSeries.__eq__)
        except GroupError as exc:
            raise CharPError(str(exc)) from None
        for g, m in enumerate(maps):
            if g != group.identity and m == zser:
                raise CharPError(
                    f"non-faithful: element {group.names[g]} acts trivially")
        self.maps = maps
        self.precision = prec


def local_artin_character(action: LocalAction) -> ClassFunction:
    """a(sigma) = -ord_z(sigma(z) - z) off the identity."""
    G = action.group
    zser = TruncatedSeries.z(action.gf, action.precision)
    vals: Dict[int, Fraction] = {}
    for g in range(G.n):
        if g == G.identity:
            continue
        vals[g] = Fraction(-(action.maps[g] - zser).order())
    vals[G.identity] = -sum(vals.values())
    return ClassFunction.from_element_values(G, vals)


def klein_four_action(precision: int = 8) -> Tuple[GF, FiniteGroup, LocalAction]:
    """The elementary-abelian (2,2) action on F_4[[t]] by t -> t/(1 + mu t),
    mu running through F_4^*."""
    gf = GF(2, 2)
    G = elementary_abelian(2, 2)
    omega = gf.generator()
    gens = {"e1": geometric_fraction(gf, 1, precision),
            "e2": geometric_fraction(gf, omega, precision)}
    return gf, G, LocalAction(gf, G, gens)
