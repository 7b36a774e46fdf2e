import itertools
from fractions import Fraction

import pytest

from hurwitz.characters import character_table, one_char, pair
from hurwitz.charp import (GF, CharPError, LocalAction, SeriesP,
                           klein_four_action, local_artin_character)
from hurwitz.groups import cyclic, elementary_abelian


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


def _pow(gf, g, i):
    x = 1
    for _ in range(i):
        x = gf.mul(x, g)
    return x


def test_series_ring_operations():
    gf = GF(2, 2)
    t = SeriesP.z(gf, 10)
    f = t + t * t
    assert all(c == 0 for c in (f - f).coeffs)
    assert (t * t * t).order() == 3
    with pytest.raises(Exception):
        SeriesP(gf, [0] * 10, 10).order()


def test_geometric_fraction_is_involution():
    gf = GF(2, 2)
    for mu in (1, 2, 3):
        f = SeriesP.geometric_fraction(gf, mu, 12)
        assert f.compose(f) == SeriesP.z(gf, 12)


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
    bad = SeriesP(gf, [0, 1, 1] + [0] * 7, 10)
    with pytest.raises(CharPError):
        LocalAction(gf, G, {"s": bad})


def test_local_action_generators_must_generate():
    gf = GF(2, 1)
    G = elementary_abelian(2, 2)
    e1 = SeriesP.geometric_fraction(gf, 1, 8)    # an involution
    with pytest.raises(CharPError, match="do not generate the group"):
        LocalAction(gf, G, {"e1": e1})


def test_wild_cyclic_artin_is_positive_at_identity():
    gf = GF(2, 1)
    G = cyclic(2)
    f = SeriesP.geometric_fraction(gf, 1, 12)
    action = LocalAction(gf, G, {"s": f})
    a = local_artin_character(action)
    assert a.values[0].to_fraction() == Fraction(2)
    assert a.values[1].to_fraction() == Fraction(-2)
