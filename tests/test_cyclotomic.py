import random
from fractions import Fraction
from functools import lru_cache

import pytest

from hurwitz.cyclotomic import Cyclotomic, cyclotomic_polynomial, euler_phi

Z = Cyclotomic.zeta
Q = Cyclotomic.from_rational


def test_euler_phi_small():
    assert [euler_phi(n) for n in range(1, 13)] == \
        [1, 1, 2, 2, 4, 2, 6, 4, 6, 4, 10, 4]


def test_cyclotomic_polynomial_degrees():
    for n in (1, 2, 3, 4, 8, 9, 12, 16):
        assert len(cyclotomic_polynomial(n)) == euler_phi(n) + 1


def test_root_of_unity_relations():
    for n in (3, 4, 5, 8, 9, 16):
        z = Z(n)
        power = Q(1)
        for _ in range(n):
            power = power * z
        assert power == Q(1)
        total = sum((Z(n, k) for k in range(n)), Q(0))
        assert total.is_zero()


# -- reference: Fraction long division by Phi_n --

def _ref_divmod(a, b):
    a = [Fraction(x) for x in a]
    q = [Fraction(0)] * max(0, len(a) - len(b) + 1)
    for shift in range(len(q) - 1, -1, -1):
        coef = q[shift] = a[shift + len(b) - 1] / b[-1]
        for i, y in enumerate(b):
            a[shift + i] -= coef * y
    return q, a[:len(b) - 1]


@lru_cache(maxsize=None)
def _ref_phi(n):
    poly = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            poly, rem = _ref_divmod(poly, _ref_phi(d))
            assert not any(rem)
    return tuple(poly)


def _ref_reduce(n, raw):
    folded = [Fraction(0)] * n
    for i, x in enumerate(raw):
        folded[i % n] += x
    return tuple(_ref_divmod(folded, _ref_phi(n))[1])


def test_reduction_matches_long_division_reference():
    rng = random.Random(5)
    for n in range(1, 131):
        assert cyclotomic_polynomial(n) == _ref_phi(n)
        for _ in range(2):
            raw = [Fraction(rng.randint(-5, 5), rng.randint(1, 4))
                   for _ in range(n + rng.randint(1, 2 * n))]
            coeffs = Cyclotomic(n, raw).coeffs
            assert coeffs == _ref_reduce(n, raw), n
            assert all(type(c) is Fraction for c in coeffs)


def test_descend_finds_minimal_conductor():
    minus_one = Z(2)
    assert minus_one.descend().n == 1
    assert Z(16, 4).descend().n == 4          # zeta_16^4 = zeta_4
    assert Z(16).descend().n == 16
    two = Z(8) * Z(8, 7) + Q(1)
    assert two.descend() == Q(1) + Q(1)
    # the dropped prime does not divide the conductor left
    assert Z(12, 2).descend().coeffs == (1, 1)  # zeta_6 = 1 + zeta_3
    assert Z(12, 2).descend().n == 3
    assert Z(15, 5).descend().n == 3
    assert Z(20, 4).descend().n == 5
    x = Q(1) + Q(2) * Z(3)
    down = x.lift(12).descend()
    assert (down.n, down.coeffs) == (x.n, x.coeffs)


def test_inverse_and_division():
    rng = random.Random(7)
    for n in (4, 5, 8, 9):
        for _ in range(10):
            x = Cyclotomic(n, [Fraction(rng.randint(-3, 3))
                               for _ in range(euler_phi(n))])
            if x.is_zero():
                continue
            assert x * x.inverse() == Q(1)
    for n, p in ((4, 2), (5, 5), (8, 2), (9, 3)):
        assert (Z(n) - Q(1)).norm() == p      # Phi_n(1)


def test_ring_axioms_random():
    rng = random.Random(11)
    for _ in range(50):
        n = rng.choice((4, 8, 9, 12))
        def rand():
            return Cyclotomic(n, [Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                                  for _ in range(euler_phi(n))])
        a, b, c = rand(), rand(), rand()
        assert a * (b + c) == a * b + a * c
        assert (a * b) * c == a * (b * c)
        assert a + b == b + a
        assert a - a == Q(0)


def test_mixed_conductor_arithmetic():
    x = Z(4) + Z(3)
    assert x.n == 12
    assert x - Z(3) == Z(4).descend() + Q(0)


def test_galois_conjugates_fix_rationals():
    x = Q(Fraction(5, 3))
    for k in (1, 3, 5, 7):
        assert x.galois(k) == x
    y = Z(8)
    assert y.galois(3) == Z(8, 3)
    assert y.galois(3).galois(3) == Z(8, 9 % 8)


def test_bad_conductor_rejected():
    with pytest.raises(ValueError):
        Cyclotomic(0, [])
