import hashlib
import os
import runpy

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


WORKLOADS = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                         os.pardir, "perfbench", "workloads.py")


def _golden_specs():
    workloads = runpy.run_path(WORKLOADS)
    specs = dict(workloads["CATALOG_GROUPS"])
    specs.update({name: spec for name, (spec, _) in
                  workloads["WITNESS_GROUPS"].items()})
    specs.update({
        "C4": {"builder": "cyclic", "params": {"n": 4}},
        "S4": {"permutations": S4},
        "A4": {"permutations": A4},
        "A5": {"permutations": A5},
        "D1": {"builder": "dihedral", "params": {"n": 1}},
        "C1": {"builder": "cyclic", "params": {"n": 1}},
        "C7:C3": {"builder": "semidirect_metacyclic",
                  "params": {"pm": 7, "mprime": 3, "action": 2}},
        "C2x(C3xD4)": {"builder": "direct_product", "factors": [
            {"builder": "cyclic", "params": {"n": 2}},
            {"builder": "direct_product", "factors": [
                {"builder": "cyclic", "params": {"n": 3}},
                {"builder": "dihedral", "params": {"n": 4}}]}]},
    })
    return specs


# sha256 of repr((table, names, generators)), recorded from the builders
# that wrote out every element's name and id layout by hand
GOLDEN = {
    "E(2^4)": "21fd23854b11cb71bff5bfef2eca0cdeb21b5f94eb5d6c4c6a6fc4f453b710d3",
    "E(3^3)": "fae07ec906610917fc19d4144f7b6b63f217cc80c84295b6b36a3dbd3472bf64",
    "C2xD4": "163e84020c54dcf1ad663729d8e97b5706e81393d61df96c1c0e7748f2f9d681",
    "C2xQ8": "de04a8dcb85962affa8bceffd51340be2cdc62a6bf80d4291548f4167e45faef",
    "D16": "c498f60cdb5b87a293607074e258167774817fdb93c5a2e5c0282cab00e15326",
    "Q32": "e55b7bad22be169eb874ff84592be0ebfb817e7d29470f579cf5bf037de27ded",
    "Q64": "b76851f2a3d552c1bee42de41a7e60dcee32615d548265ddbfce6ee8dd54b66a",
    "E(2^5)": "4b8a1097704ecd2448ad984558e9143a3d7f2d0ff8b7f4a75a1ac10bf56ea797",
    "C2": "a1cbc90b2e1cde442d5aef392ed13bce15dab0bf4b9bad3e4bec429c343c64b5",
    "C3": "735c92e7e7c616b4cbd3aa893221b7dd8461452b33b9c252d56fef4d245406db",
    "Q8": "7e833a62b8e599fba763b0f66fa09ed6b0a6be744d29bbb394aa677e5bd2d77e",
    "C4": "e6a9cb0d8285a03cc6a1b1b506c96b3761669ea011a567d60f247aeb8c6bf431",
    "S4": "e4e8d82362ef77305006479794bd0e288cb9136ff1a16064e98ddca9bcf79756",
    "A4": "9a817370282b267b615b5e370396f2e90e5cb2cf6ea969bd63618bb0cf7d6ad6",
    "A5": "b375b060ba4980c07387124e830f534785f0539ce5c667c0d6c4082e604dbfc6",
    "D1": "24d5b3372c70858813deb6f9a5ea00885c47c33fb2076b34e64dc6f65f0c4005",
    "C1": "d61dd676831a0b51ec393c4dbcfe4cfe12a17a469c82a80215ff179dd209e72e",
    "C7:C3": "9c39ce7078238d7bf57406846bd757567cb499c491c249becc43c1bc523db452",
    "C2x(C3xD4)": "272058a3bb9f0b10e8e857bcab13346aa9b4477149ec78f0074499fbb6a7a6d0",
}


def test_left_nested_product_names_are_distinct():
    c2 = {"builder": "cyclic", "params": {"n": 2}}
    G = build_group({"builder": "direct_product", "factors": [c2, c2, c2]})
    assert len(set(G.names)) == G.n == 8
    for g, name in enumerate(G.names):
        assert G.element_by_name(name) == g, name


def test_builders_match_golden_digests():
    specs = _golden_specs()
    assert set(specs) == set(GOLDEN)
    for name, spec in specs.items():
        G = build_group(spec)
        digest = hashlib.sha256(
            repr((G.table, G.names, G.generators)).encode()).hexdigest()
        assert digest == GOLDEN[name], name
