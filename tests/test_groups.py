import pytest

from hurwitz.groups import (GroupError, build_group, cyclic, dihedral,
                            direct_product, elementary_abelian,
                            find_isomorphism, from_permutations,
                            generalized_quaternion, subgroup_class_of,
                            subgroup_classes)

S4 = [[1, 0, 2, 3], [1, 2, 3, 0]]          # (0 1), (0 1 2 3)
A4 = [[1, 2, 0, 3], [0, 2, 3, 1]]          # (0 1 2), (1 2 3)
A5 = [[1, 2, 0, 3, 4], [1, 2, 3, 4, 0]]    # (0 1 2), (0 1 2 3 4)


def test_basic_invariants(q8, q16, d4, z9, klein):
    for G, order, exponent, classes in (
            (q8, 8, 4, 5), (q16, 16, 8, 7), (d4, 8, 4, 5),
            (z9, 9, 9, 9), (klein, 4, 2, 4)):
        assert G.n == order
        assert G.exponent() == exponent
        assert len(G.conjugacy_classes()) == classes


def test_class_sizes_sum_to_order(q16, d4):
    for G in (q16, d4):
        assert sum(len(c) for c in G.conjugacy_classes()) == G.n
        assert list(G.conjugacy_classes()[0]) == [G.identity]


def test_subgroup_lattice_q8(q8):
    allc = subgroup_classes(q8)
    # 1, <tau^2>, the three cyclic order-4 subgroups, Q8 itself
    assert sorted(C.order for C in allc) == [1, 2, 4, 4, 4, 8]
    cyc = subgroup_classes(q8, cyclic_only=True, nontrivial_only=True)
    assert sorted(C.order for C in cyc) == [2, 4, 4, 4]
    # every subgroup of Q8 is normal
    for C in allc:
        assert len(C.conjugates()) == 1


# subgroup counts of E(p^k) are sums of Gaussian binomials; S4, A4 and A5
# (not solvable) have 11, 5 and 9 conjugacy classes of subgroups
@pytest.mark.parametrize("make, count", [
    (lambda: elementary_abelian(2, 4), 67),
    (lambda: elementary_abelian(3, 3), 28),
    (lambda: elementary_abelian(2, 5), 374),
    (lambda: from_permutations(S4), 11),
    (lambda: from_permutations(A4), 5),
    (lambda: from_permutations(A5), 9),
], ids=["E(2^4)", "E(3^3)", "E(2^5)", "S4", "A4", "A5"])
def test_subgroup_class_counts_and_invariants(make, count):
    G = make()
    classes = subgroup_classes(G)
    assert len(classes) == count
    # ids follow (order, sorted elements); each rep is its least conjugate
    keys = [(C.order, list(C.rep)) for C in classes]
    assert keys == sorted(keys)
    assert [C.class_id for C in classes] == list(range(count))
    class_of = {}
    for C in classes:
        rep = frozenset(C.rep)
        assert G.is_subgroup(rep)
        assert list(C.rep) == min(sorted(G.conjugate_set(g, rep))
                                  for g in range(G.n))
        for g in range(G.n):
            # no conjugate of one representative is another representative
            assert class_of.setdefault(G.conjugate_set(g, rep),
                                       C.class_id) == C.class_id
    for C in classes:
        gens, span = [], frozenset({G.identity})
        for x in C.rep:
            if x not in span:
                gens.append(x)
                span = G.closure(gens)
        assert span == frozenset(C.rep)
        for g in range(G.n):
            assert G.closure(gens + [g]) in class_of


def test_class_ids_are_canonical(q8):
    cyc = subgroup_classes(q8, cyclic_only=True)
    full = {C.class_id: C.rep for C in subgroup_classes(q8)}
    for C in cyc:
        assert full[C.class_id] == C.rep
    tau = q8.element_by_name("tau")
    D = subgroup_class_of(q8, q8.closure([tau]))
    assert D.class_id in full and full[D.class_id] == D.rep


def test_subgroup_class_of_conjugation_invariant(d4):
    r = d4.element_by_name("r")
    s = d4.element_by_name("f")
    C1 = subgroup_class_of(d4, d4.closure([s]))
    C2 = subgroup_class_of(d4, d4.conjugate_set(r, d4.closure([s])))
    assert C1.class_id == C2.class_id


def test_sylow_of_cyclic(z9):
    C = subgroup_class_of(z9, range(9))
    assert C.sylow(3).order == 9
    assert C.sylow(2).order == 1
    for p in (0, 1, 4):
        with pytest.raises(GroupError, match=f"p = {p} is not a prime"):
            C.sylow(p)


def test_subgroup_names(q8):
    names = {C.name() for C in subgroup_classes(q8)}
    assert "G" in names and "1" in names
    assert any(n.startswith("<") for n in names)


def test_build_group_dispatch():
    assert build_group({"builder": "cyclic", "params": {"n": 6}}).n == 6
    assert build_group(
        {"builder": "generalized_quaternion", "params": {"n": 2}}).n == 8
    perms = build_group({"permutations": [[1, 2, 0]]})
    assert perms.n == 3
    with pytest.raises(GroupError):
        build_group({"builder": "nope"})


def test_direct_product_and_isomorphism(z2, klein):
    GG = direct_product(z2, z2)
    assert find_isomorphism(GG, klein) is not None
    assert find_isomorphism(GG, cyclic(4)) is None


def test_q8_not_dihedral(q8, d4):
    assert find_isomorphism(q8, d4) is None


def test_quaternion_structure(q16):
    tau = q16.element_by_name("tau")
    sigma = q16.element_by_name("sigma")
    assert q16.order_of[tau] == 8
    assert q16.order_of[sigma] == 4
    # sigma tau sigma^-1 = tau^-1
    lhs = q16.mul(q16.mul(sigma, tau), q16.inv(sigma))
    assert lhs == q16.inv(tau)
    # sigma^2 is the unique central involution tau^4
    assert q16.mul(sigma, sigma) == q16.power(tau, 4)
