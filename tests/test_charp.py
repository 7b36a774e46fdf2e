import itertools
import random
from fractions import Fraction

import pytest

from hurwitz.characters import character_table, one_char, pair
from hurwitz.charp import (GF, CharPError, LocalAction, geometric_fraction,
                           klein_four_action, local_artin_character)
from hurwitz.groups import cyclic, elementary_abelian
from hurwitz.localfield import (CycloLocalField, PrecisionError,
                                TruncatedSeries)


def test_gf_field_axioms():
    for p, k in ((2, 1), (2, 2), (3, 1), (3, 2), (5, 1)):
        gf = GF(p, k)
        q = p ** k
        elems = list(range(q))
        for a, b in itertools.product(elems[:6], repeat=2):
            assert gf.mul(a, b) == gf.mul(b, a)
            assert gf.add(a, gf.neg(a)) == 0
        for a in elems[1:]:
            assert gf.mul(a, gf.inv(a)) == 1
        g = gf.generator()
        powers = {_pow(gf, g, i) for i in range(q - 1)}
        assert len(powers) == q - 1


class DigitField:
    """The digit-list arithmetic that GF's log tables replaced, kept as the
    reference: elements are base-p digit lists of polynomials over F_p,
    multiplied and reduced modulo the least monic irreducible of degree k
    (least by its base-p code)."""

    def __init__(self, p, k):
        self.p, self.k, self.q = p, k, p ** k
        self.modulus = self._find_irreducible()

    def _digits(self, x):
        out = []
        while x:
            out.append(x % self.p)
            x //= self.p
        return out

    def _undigits(self, ds):
        out = 0
        for d in reversed(ds):
            out = out * self.p + (d % self.p)
        return out

    def _find_irreducible(self):
        if self.k == 1:
            return [0, 1]
        for tail in range(self.p ** self.k):
            poly = (self._digits(tail) + [0] * self.k)[:self.k] + [1]
            if self._irreducible(poly):
                return poly

    def _poly_mod(self, f, g):
        f, p = f[:], self.p
        while len(f) >= len(g) and any(f):
            while f and f[-1] % p == 0:
                f.pop()
            if len(f) < len(g):
                break
            factor = f[-1] * pow(g[-1], -1, p) % p
            shift = len(f) - len(g)
            for i, c in enumerate(g):
                f[shift + i] = (f[shift + i] - factor * c) % p
        while f and f[-1] % p == 0:
            f.pop()
        return f

    def _irreducible(self, f):
        k = len(f) - 1
        for d in range(1, k // 2 + 1):
            for tail in range(self.p ** d):
                g = self._digits(tail)
                g += [0] * (d - len(g)) + [1]
                if not self._poly_mod(f, g):
                    return False
        return True

    def add(self, a, b):
        da, db = self._digits(a), self._digits(b)
        n = max(len(da), len(db))
        da += [0] * (n - len(da))
        db += [0] * (n - len(db))
        return self._undigits([(x + y) % self.p for x, y in zip(da, db)])

    def neg(self, a):
        return self._undigits([(-d) % self.p for d in self._digits(a)])

    def mul(self, a, b):
        da, db = self._digits(a), self._digits(b)
        prod = [0] * (len(da) + len(db) - 1) if da and db else []
        for i, x in enumerate(da):
            for j, y in enumerate(db):
                prod[i + j] = (prod[i + j] + x * y) % self.p
        return self._undigits(self._poly_mod(prod, self.modulus))

    def inv(self, a):
        return next(b for b in range(1, self.q) if self.mul(a, b) == 1)

    def generator(self):
        if self.q == 2:
            return 1
        for a in range(2, self.q):
            x, order = a, 1
            while x != 1:
                x = self.mul(x, a)
                order += 1
            if order == self.q - 1:
                return a


FIELDS_UP_TO_32 = [(p, k) for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31)
                   for k in range(1, 6) if p ** k <= 32]


def _assert_matches_digits(gf, ref, pairs):
    assert gf.modulus == ref.modulus
    assert gf.generator() == ref.generator()
    elems = {x for ab in pairs for x in ab}
    for a in elems:
        assert gf.neg(a) == ref.neg(a)
        if a:
            assert gf.inv(a) == ref.inv(a)
    for a, b in pairs:
        assert gf.add(a, b) == ref.add(a, b)
        assert gf.sub(a, b) == ref.add(a, ref.neg(b))
        assert gf.mul(a, b) == ref.mul(a, b)


def test_gf_tables_match_digit_arithmetic_on_every_pair():
    assert len(FIELDS_UP_TO_32) == 18
    for p, k in FIELDS_UP_TO_32:
        q = p ** k
        _assert_matches_digits(GF(p, k), DigitField(p, k),
                               list(itertools.product(range(q), repeat=2)))


def test_gf_tables_match_digit_arithmetic_at_256():
    rng = random.Random(256)
    pairs = [(rng.randrange(256), rng.randrange(256)) for _ in range(3000)]
    pairs += [(0, 0), (0, 255), (255, 0), (1, 1)]
    _assert_matches_digits(GF(2, 8), DigitField(2, 8), pairs)


def test_gf_power_and_division_by_zero():
    gf = GF(3, 2)
    g = gf.generator()
    assert [gf.power(g, i) for i in range(9)] == \
        [_pow(gf, g, i) for i in range(9)]
    assert gf.power(g, -1) == gf.inv(g)
    assert gf.power(0, 0) == 1 and gf.power(0, 3) == 0
    for bad in (lambda: gf.inv(0), lambda: gf.power(0, -1)):
        with pytest.raises(CharPError, match="division by zero"):
            bad()


def _pow(gf, g, i):
    x = 1
    for _ in range(i):
        x = gf.mul(x, g)
    return x


def test_series_ring_operations():
    gf = GF(2, 2)
    t = TruncatedSeries.z(gf, 10)
    f = t + t * t
    assert all(c == 0 for c in (f - f).coeffs)
    assert (t * t * t).order() == 3
    with pytest.raises(PrecisionError):
        TruncatedSeries(gf, [0] * 10, 10).order()
    # equality reads every coefficient up to the lesser precision
    top = TruncatedSeries(gf, [0] * 9 + [3], 10)
    assert not t + top == t
    assert t + top == TruncatedSeries.z(gf, 9)


def test_geometric_fraction_is_involution():
    gf = GF(2, 2)
    for mu in (1, 2, 3):
        f = geometric_fraction(gf, mu, 12)
        assert f.compose(f) == TruncatedSeries.z(gf, 12)


def power_sum_compose(f, g):
    """f(g) as sum_i c_i g^i, each power of g truncated: the reference
    for the Horner composition of TruncatedSeries.compose."""
    F = f.field
    prec = min(f.precision, g.precision)
    acc = TruncatedSeries(F, [], prec)
    power = TruncatedSeries(F, [1], prec)
    for c in f.coeffs[:prec]:
        if not F.is_zero(c):
            acc = acc + TruncatedSeries(F, [F.mul(c, x) for x in
                                            power.coeffs], prec)
        power = power * g
    return acc


def test_compose_matches_power_sum():
    rng = random.Random(21)
    K = CycloLocalField(2, 2)
    units = [K.element(x) for x in (1, -1, K.zeta(), K.uniformizer())]
    fields = [(GF(2, 2), lambda: rng.randrange(4)),
              (GF(3, 1), lambda: rng.randrange(3)),
              (K, lambda: rng.choice(units) * rng.randrange(-2, 3))]
    for F, draw in fields:
        for prec in (2, 3, 5, 8):
            for _ in range(6):
                f = TruncatedSeries(F, [draw() for _ in range(prec)], prec)
                g = TruncatedSeries(F, [0] + [draw() for _ in range(prec)],
                                    prec + rng.randrange(2))
                h = f.compose(g)
                assert h.precision == prec
                assert h.coeffs == power_sum_compose(f, g).coeffs


def test_klein_four_artin_values():
    gf, G, action = klein_four_action(precision=10)
    a = local_artin_character(action)
    vals = [v.to_fraction() for v in a.values]
    assert vals[0] == 6
    assert vals[1:] == [-2, -2, -2]
    assert pair(one_char(G), a) == 0
    for chi in character_table(G):
        expected = 0 if chi == one_char(G) else 2
        assert pair(chi, a) == expected


def test_klein_four_precision_stable():
    reference = None
    for prec in (6, 10, 16):
        _, _, action = klein_four_action(precision=prec)
        a = local_artin_character(action)
        vals = tuple(v.to_fraction() for v in a.values)
        if reference is None:
            reference = vals
        assert vals == reference


def test_local_action_checks_relations():
    gf = GF(2, 1)
    G = cyclic(2)
    # t -> t + t^2 does not square to the identity
    bad = TruncatedSeries(gf, [0, 1, 1] + [0] * 7, 10)
    with pytest.raises(CharPError):
        LocalAction(gf, G, {"s": bad})


def test_local_action_needs_precision_two():
    gf = GF(2, 1)
    with pytest.raises(CharPError, match="precision must be at least 2"):
        LocalAction(gf, cyclic(2), {"s": TruncatedSeries.z(gf, 1)})
    with pytest.raises(CharPError, match="precision must be at least 2"):
        klein_four_action(precision=1)


def test_local_action_generators_must_generate():
    gf = GF(2, 1)
    G = elementary_abelian(2, 2)
    e1 = geometric_fraction(gf, 1, 8)    # an involution
    with pytest.raises(CharPError, match="do not generate the group"):
        LocalAction(gf, G, {"e1": e1})


def test_wild_cyclic_artin_is_positive_at_identity():
    gf = GF(2, 1)
    G = cyclic(2)
    f = geometric_fraction(gf, 1, 12)
    action = LocalAction(gf, G, {"s": f})
    a = local_artin_character(action)
    assert a.values[0].to_fraction() == Fraction(2)
    assert a.values[1].to_fraction() == Fraction(-2)
