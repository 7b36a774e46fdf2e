"""Local actions in characteristic p: finite-field arithmetic on base-p
digit lists (q <= 256), truncated power series over F_q, and the local
Artin character a(sigma) = -ord_z(sigma(z) - z)."""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Sequence, Tuple

from .characters import ClassFunction
from .disk import PrecisionError
from .groups import FiniteGroup, elementary_abelian, is_prime


class CharPError(ValueError):
    pass


class GF:
    """F_{p^k} for p^k <= 256; elements are ints 0..q-1 encoding polynomials
    over F_p in base p, multiplication modulo a found irreducible."""

    def __init__(self, p: int, k: int = 1):
        if not is_prime(p):
            raise CharPError(f"p = {p} is not a prime")
        q = p ** k
        if q > 256:
            raise CharPError("field order must be at most 256")
        self.p, self.k, self.q = p, k, q
        self.modulus = self._find_irreducible()

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

    def _poly_mod(self, f: List[int], g: List[int]) -> List[int]:
        f = f[:]
        p = self.p
        while len(f) >= len(g) and any(f):
            while f and f[-1] % p == 0:
                f.pop()
            if len(f) < len(g):
                break
            lead = f[-1] % p
            inv = pow(g[-1], -1, p)
            factor = lead * inv % p
            shift = len(f) - len(g)
            for i, c in enumerate(g):
                f[shift + i] = (f[shift + i] - factor * c) % p
        while f and f[-1] % p == 0:
            f.pop()
        return f

    def _poly_mul_raw(self, f, g):
        out = [0] * (len(f) + len(g) - 1) if f and g else []
        for i, a in enumerate(f):
            for j, b in enumerate(g):
                out[i + j] = (out[i + j] + a * b) % self.p
        return out

    def _poly_irreducible(self, f: List[int]) -> bool:
        # x^(p^d) == x mod f has gcd checks; small sizes: brute force by
        # testing divisibility by all monic polys of degree <= k/2
        k = len(f) - 1
        for d in range(1, k // 2 + 1):
            for tail in range(self.p ** d):
                g = self._digits(tail)
                g += [0] * (d - len(g)) + [1]
                if not self._poly_mod(f, g):
                    return False
        return True

    # -- field operations --

    def add(self, a: int, b: int) -> int:
        da, db = self._digits(a), self._digits(b)
        n = max(len(da), len(db))
        da += [0] * (n - len(da))
        db += [0] * (n - len(db))
        return self._undigits([(x + y) % self.p for x, y in zip(da, db)])

    def neg(self, a: int) -> int:
        return self._undigits([(-d) % self.p for d in self._digits(a)])

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        prod = self._poly_mul_raw(self._digits(a), self._digits(b))
        return self._undigits(self._poly_mod(prod, self.modulus))

    def inv(self, a: int) -> int:
        if a == 0:
            raise CharPError("division by zero")
        # brute force is fine at q <= 256
        for b in range(1, self.q):
            if self.mul(a, b) == 1:
                return b
        raise CharPError("unreachable")

    def power(self, a: int, e: int) -> int:
        out, base = 1, a
        if e < 0:
            base, e = self.inv(a), -e
        while e:
            if e & 1:
                out = self.mul(out, base)
            base = self.mul(base, base)
            e >>= 1
        return out

    def generator(self) -> int:
        """A multiplicative generator of F_q^*."""
        if self.q == 2:
            return 1
        for a in range(2, self.q):
            x, order = a, 1
            while x != 1:
                x = self.mul(x, a)
                order += 1
            if order == self.q - 1:
                return a
        raise CharPError("unreachable")


class SeriesP:
    """Truncated series over a GF field; coefficient i of z^i, known
    modulo z^precision."""

    __slots__ = ("gf", "coeffs", "precision")

    def __init__(self, gf: GF, coeffs: Sequence[int], precision: int):
        if precision < 2:
            raise CharPError("precision must be at least 2")
        cs = [c % gf.q for c in coeffs[:precision]]
        cs += [0] * (precision - len(cs))
        self.gf, self.coeffs, self.precision = gf, cs, precision

    def __sub__(self, other):
        prec = min(self.precision, other.precision)
        return SeriesP(self.gf, [self.gf.sub(a, b) for a, b in
                                 zip(self.coeffs, other.coeffs)], prec)

    def __mul__(self, other):
        prec = min(self.precision, other.precision)
        out = [0] * prec
        for i, a in enumerate(self.coeffs[:prec]):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs[:prec - i]):
                out[i + j] = self.gf.add(out[i + j], self.gf.mul(a, b))
        return SeriesP(self.gf, out, prec)

    def compose(self, other: "SeriesP") -> "SeriesP":
        """self(other(z)); other must vanish at 0."""
        if other.coeffs[0] != 0:
            raise CharPError("composition needs a series vanishing at 0")
        prec = min(self.precision, other.precision)
        acc = SeriesP(self.gf, [0], prec)
        power = SeriesP(self.gf, [1], prec)
        for c in self.coeffs[:prec]:
            if c:
                acc = acc + SeriesP(self.gf, [self.gf.mul(c, p) for p in
                                              power.coeffs], prec)
            power = power * other
        return acc

    def __add__(self, other):
        prec = min(self.precision, other.precision)
        return SeriesP(self.gf, [self.gf.add(a, b) for a, b in
                                 zip(self.coeffs, other.coeffs)], prec)

    def order(self) -> int:
        """ord_z; PrecisionError when zero to working precision."""
        for i, c in enumerate(self.coeffs):
            if c:
                return i
        raise PrecisionError("series vanishes to working precision")

    def is_zero_to_precision(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def __eq__(self, other):
        prec = min(self.precision, other.precision)
        return self.coeffs[:prec] == other.coeffs[:prec]

    @staticmethod
    def z(gf: GF, precision: int) -> "SeriesP":
        return SeriesP(gf, [0, 1], precision)

    @staticmethod
    def geometric_fraction(gf: GF, mu: int, precision: int) -> "SeriesP":
        """t / (1 + mu t) = sum (-mu)^i t^{i+1}."""
        out = [0] * precision
        c = 1
        for i in range(1, precision):
            out[i] = c
            c = gf.mul(c, gf.neg(mu))
        return SeriesP(gf, out, precision)


class LocalAction:
    """A faithful action of a finite group on k[[z]] given by truncated
    series for the generators (zero constant term, unit linear term)."""

    def __init__(self, gf: GF, group: FiniteGroup,
                 generator_series: Dict[str, SeriesP]):
        self.gf = gf
        self.group = group
        gens = {group.element_by_name(n): s for n, s in generator_series.items()}
        for s in gens.values():
            if s.coeffs[0] != 0:
                raise CharPError("automorphisms of k[[z]] fix z = 0")
            if s.coeffs[1] == 0:
                raise CharPError("linear coefficient must be a unit")
        prec = min((s.precision for s in gens.values()), default=4)
        maps: List[SeriesP] = [None] * group.n
        maps[group.identity] = SeriesP.z(gf, prec)
        queue = [group.identity]
        while queue:
            g = queue.pop(0)
            for s, ms in gens.items():
                h = group.mul(g, s)
                cand = maps[g].compose(ms)
                if maps[h] is None:
                    maps[h] = cand
                    queue.append(h)
                elif maps[h] != cand:
                    raise CharPError(
                        "generator series do not satisfy the group relations")
        if any(m is None for m in maps):
            raise CharPError("the named generators do not generate the group")
        zser = SeriesP.z(gf, prec)
        for g, m in enumerate(maps):
            if g != group.identity and m == zser:
                raise CharPError(
                    f"non-faithful: element {group.names[g]} acts trivially")
        self.maps = maps
        self.precision = prec


def local_artin_character(action: LocalAction) -> ClassFunction:
    """a(sigma) = -ord_z(sigma(z) - z) off the identity."""
    G = action.group
    zser = SeriesP.z(action.gf, action.precision)
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
    gens = {"e1": SeriesP.geometric_fraction(gf, 1, precision),
            "e2": SeriesP.geometric_fraction(gf, omega, precision)}
    return gf, G, LocalAction(gf, G, gens)
