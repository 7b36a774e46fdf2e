from fractions import Fraction

import pytest

from hurwitz.characters import (augmentation_char, delta_mult_on, one_char,
                                pair, u_star)
from hurwitz.cyclotomic import Cyclotomic
from hurwitz.disk import (DiskAction, DiskError, artin_character,
                          boundary_shift_check, break_decomposition,
                          depth_character, derivation_test, mobius_to_series)
from hurwitz.groups import cyclic, elementary_abelian, subgroup_class_of
from hurwitz.localfield import CycloLocalField, MobiusMap, TruncatedSeries

Z = Cyclotomic.zeta


def linear_order_pm(p, m):
    """z -> zeta z over Q(zeta_{p^m}), the single-fixed-point model."""
    K = CycloLocalField(p, m)
    G = cyclic(p ** m)
    return DiskAction(K, G, {"s": MobiusMap(Z(p ** m), 0, 0, 1)})


@pytest.fixture(scope="module")
def involution16():
    K = CycloLocalField(2, 4)
    G = cyclic(2)
    M = MobiusMap(1, 2 - 4 * Z(16, 4), 1, -1)
    return DiskAction(K, G, {"s": M})


def test_linear_depth_matches_multiplicative_model():
    for p in (2, 3, 5):
        action = linear_order_pm(p, 1)
        G = action.group
        delta = depth_character(action)
        assert delta == delta_mult_on(G, G.element_by_name("s"), p, 1)
        assert pair(one_char(G), delta) == 0


def test_linear_artin_is_augmentation():
    for p in (2, 3, 5):
        action = linear_order_pm(p, 1)
        a, report = artin_character(action)
        assert a == augmentation_char(action.group)
        assert report.verdict is True


def test_order_four_chain():
    action = linear_order_pm(2, 2)
    G = action.group
    delta = depth_character(action)
    assert delta == delta_mult_on(G, G.element_by_name("s"), 2, 2)
    breaks, total = break_decomposition(action)
    assert [(b.h, len(b.subgroup)) for b in breaks] == \
        [(Fraction(1, 2), 4), (Fraction(1), 2)]
    assert total == delta


def test_break_weights_are_positive():
    for p, m in ((2, 1), (2, 2), (3, 1), (5, 1)):
        action = linear_order_pm(p, m)
        breaks, total = break_decomposition(action)
        assert all(b.weight > 0 for b in breaks)
        assert total == depth_character(action)


def test_shift_invariance_s_zero():
    action = linear_order_pm(2, 2)
    for eps in (Fraction(1, 2), Fraction(1), Fraction(3, 2)):
        rep = boundary_shift_check(action, eps, 0)
        assert rep.ok and rep.valuation_identity_ok
        assert rep.shift_character.is_zero()
        assert rep.depth_inner == rep.depth_outer


def test_shift_with_nonzero_artin_defect(involution16):
    G = involution16.group
    a, _ = artin_character(involution16)
    defect = a - u_star(subgroup_class_of(G, range(G.n)))
    assert not defect.is_zero()
    for eps in (Fraction(1, 8), Fraction(1, 4), Fraction(1, 2)):
        rep = boundary_shift_check(involution16, eps, 0)
        assert rep.ok and rep.valuation_identity_ok
        assert rep.depth_inner == rep.depth_outer + G.n * eps * defect


def test_involution_fixed_points_verified(involution16):
    a, report = artin_character(involution16)
    assert pair(one_char(involution16.group), a) == 0
    assert report.verdict in (True, None)


def test_series_and_mobius_paths_agree():
    K = CycloLocalField(3, 1)
    G = cyclic(3)
    M = MobiusMap(Z(3), 0, 0, 1)
    mob = DiskAction(K, G, {"s": M})
    ser = DiskAction(K, G, {"s": mobius_to_series(M, K, 16)})
    assert depth_character(mob) == depth_character(ser)
    a_mob, _ = artin_character(mob)
    a_ser, _ = artin_character(ser)
    assert a_mob == a_ser


def test_depth_is_precision_stable():
    K = CycloLocalField(2, 2)
    G = cyclic(4)
    M = MobiusMap(Z(4), 0, 0, 1)
    reference = depth_character(DiskAction(K, G, {"s": M}))
    for prec in (8, 16, 24):
        act = DiskAction(K, G, {"s": mobius_to_series(M, K, prec)})
        assert depth_character(act) == reference


def test_bad_relations_rejected():
    K = CycloLocalField(2, 2)
    G = cyclic(4)
    with pytest.raises(DiskError):
        DiskAction(K, G, {"s": MobiusMap(-1, 0, 0, 1)})   # order 2, not 4


def test_generators_must_generate():
    K = CycloLocalField(2, 1)
    G = elementary_abelian(2, 2)
    with pytest.raises(DiskError, match="do not generate the group"):
        DiskAction(K, G, {"e1": MobiusMap(-1, 0, 0, 1)})


def test_derivation_criterion():
    action = linear_order_pm(3, 1)
    K = action.field
    g = action.group.element_by_name("s")
    z = TruncatedSeries.z(K, 16)
    # z^3 + pi z: reduction is the p-th power z^3, derivative vanishes
    wild = TruncatedSeries(K, [K.element(0), K.uniformizer(),
                               K.element(0), K.element(1)], 16)
    for f, expect_equal in ((z, True), (wild, False), (z + z * z, True)):
        rep = derivation_test(action, g, f)
        assert rep.inequality_ok
        assert rep.equality_matches_criterion
        assert (rep.lhs == rep.rhs) is expect_equal
