import itertools
from fractions import Fraction

import pytest

import hurwitz.obstruction as obstruction
from hurwitz.characters import (augmentation_char, character_table,
                                delta_mult_star, one_char, pair, u_star)
from hurwitz.groups import cyclic, subgroup_class_of, subgroup_classes
from hurwitz.lp import solve_lp
from hurwitz.obstruction import (ObstructionError, _multiset_partitions,
                                 bertin_check, enumerate_shapes,
                                 grid_feasibility, hurwitz_feasibility,
                                 quaternion_report, solve_tree_metric)
from hurwitz.trees import all_axioms_pass, validate


def test_bertin_decompositions_z2(z2):
    a = augmentation_char(z2) * 2
    decomps = bertin_check(a)
    assert len(decomps) == 1
    assert [C.order for C in decomps[0]] == [2, 2]


def test_bertin_empty_when_not_decomposable(z4):
    # twice the order-2 linear character: a true character orthogonal to 1
    # but not a nonnegative sum of u*'s over nontrivial cyclic subgroups
    from hurwitz.characters import ClassFunction
    a = ClassFunction(z4, [2, 2, -2, -2])
    assert bertin_check(a) == []
    report = hurwitz_feasibility(z4, 2, a)
    assert report.verdict == "infeasible"
    assert report.shapes_tried == 0


def test_bertin_rejects_non_character(z2):
    bad = augmentation_char(z2) - one_char(z2)
    with pytest.raises(ObstructionError):
        bertin_check(bad)


def test_shape_enumeration_counts(z2, q8):
    G = z2
    full = subgroup_class_of(G, range(2))
    assert len(enumerate_shapes(G, [full])) == 1
    assert len(enumerate_shapes(G, [full] * 2)) == 1
    shapes3 = enumerate_shapes(G, [full] * 3)
    assert len(shapes3) == 2       # flat, and one nested pair
    tau = subgroup_class_of(q8, q8.closure([q8.element_by_name("tau")]))
    sig = subgroup_class_of(q8, q8.closure([q8.element_by_name("sigma")]))
    rho = subgroup_class_of(q8,
                            q8.closure([q8.element_by_name("sigma*tau")]))
    assert len(enumerate_shapes(q8, [tau, sig, rho])) == 32


def _assignment_partitions(items):
    """Reference: every assignment of the n items to n labelled parts,
    put in canonical form, repeats dropped (n^n steps)."""
    seen = set()
    n = len(items)
    for assignment in itertools.product(range(n), repeat=n):
        parts = {}
        for idx, part in enumerate(assignment):
            parts.setdefault(part, []).append(items[idx])
        canon = tuple(sorted(tuple(sorted(p)) for p in parts.values()))
        if canon not in seen:
            seen.add(canon)
            yield canon


def test_multiset_partitions_match_the_assignment_reference():
    # the reference's partitions of a multiset are its partitions of the
    # distinct indices 0..n-1, relabelled by the items; so it runs once per
    # size (7^7 steps at most), not once per multiset
    for n in range(8):
        by_index = list(_assignment_partitions(tuple(range(n))))
        for items in itertools.combinations_with_replacement(range(3), n):
            expected = {tuple(sorted(tuple(sorted(items[i] for i in part))
                                     for part in parts))
                        for parts in by_index}
            got = list(_multiset_partitions(items))
            assert len(got) == len(set(got)), items
            assert set(got) == expected, items


def test_metric_lp_coefficients_match_class_function_pairing(q8,
                                                             monkeypatch):
    """The leaf and internal-vertex rows of every Q8 shape LP, recomputed
    from an independent walk of the shape with one pair() per edge and
    character on explicit sums of u* class functions."""
    captured = []

    def capture(c, A, b):
        captured.append((c, A, b))
        return solve_lp(c, A, b)

    monkeypatch.setattr(obstruction, "solve_lp", capture)
    chars = character_table(q8)
    by_id = {C.class_id: C for C in subgroup_classes(q8)}
    gens = ("tau", "sigma", "sigma*tau")
    leaves = [subgroup_class_of(q8, q8.closure([q8.element_by_name(g)]))
              for g in gens]
    shapes = enumerate_shapes(q8, leaves)
    assert len(shapes) == 32
    for shape in shapes:
        captured.clear()
        solve_tree_metric(q8, 2, shape)
        [(_, A, b)] = captured

        edges, cls = [], {}              # (parent, child, is_leaf); classes

        def walk(parent, sh):
            v = len(edges) + 1
            edges.append((parent, v, sh[0] == "leaf"))
            cls[v] = by_id[sh[1]]
            for child in (sh[2] if sh[0] == "node" else ()):
                walk(v, child)

        walk(0, shape)
        internal = [i for i, (_, _, leaf) in enumerate(edges) if not leaf]
        leaf_vs = [t for _, t, leaf in edges if leaf]
        parent_edge = {t: i for i, (_, t, _) in enumerate(edges)}

        def leaves_below(v):
            kids = [t for s, t, _ in edges if s == v]
            return [b for t in kids for b in leaves_below(t)] or [v]

        def path(v):
            out = []
            while v:
                e = parent_edge[v]
                if e in internal:
                    out.append(e)
                v = edges[e][0]
            return out

        s_mult = {}
        for e in internal:
            t = edges[e][1]
            below = leaves_below(t)
            a_e = u_star(cls[below[0]])
            for x in below[1:]:
                a_e = a_e + u_star(cls[x])
            s_mult[e] = [pair(chi, a_e - u_star(cls[t])) for chi in chars]
        rows, rhs = [], []
        for v in leaf_vs + [edges[e][1] for e in internal]:
            for i, chi in enumerate(chars):
                rows.append([s_mult[e][i] if e in path(v) else 0
                             for e in internal])
                rhs.append(pair(chi, delta_mult_star(cls[v], 2))
                           if v in leaf_vs else 0)
        assert [row[:len(internal)] for row in A[:len(rows)]] == rows
        assert b[:len(rows)] == rhs


def test_witness_for_doubled_augmentation():
    for p in (2, 3):
        G = cyclic(p)
        a = augmentation_char(G) * 2
        report = hurwitz_feasibility(G, p, a)
        assert report.verdict == "witness"
        ht = report.witness
        assert all_axioms_pass(validate(ht))
        assert ht.artin_character == a
        assert ht.depth_character.is_zero()
        eps = [e for _, _, e in ht.tree.edges if e]
        assert eps == [Fraction(p, p - 1)]


def test_tame_single_leaf_witness(z2):
    a = augmentation_char(z2)
    report = hurwitz_feasibility(z2, 3, a)
    assert report.verdict == "witness"
    assert report.witness.depth_character.is_zero()


def test_wild_single_leaf_infeasible(z2):
    a = augmentation_char(z2)
    report = hurwitz_feasibility(z2, 2, a)
    assert report.verdict == "infeasible"
    assert report.decompositions          # Bertin alone does not obstruct
    assert report.certificates


def test_objective_zero_rejections_carry_a_checked_dual(z2, monkeypatch):
    """max t = 0 is proved by y with y.A >= c and y.b = 0: every feasible
    x then has c.x <= y.A.x = y.b = 0."""
    captured = []

    def capture(c, A, b):
        res = solve_lp(c, A, b)
        captured.append((c, A, b, res))
        return res

    monkeypatch.setattr(obstruction, "solve_lp", capture)
    report = hurwitz_feasibility(z2, 3, augmentation_char(z2) * 3)
    assert report.verdict == "infeasible"
    zero = [e for e in report.certificates if e.get("objective") == 0]
    assert len(zero) == len(captured) == 2
    for entry, (c, A, b, res) in zip(zero, captured):
        y = entry["dual"]
        assert y == res.dual
        for j in range(len(c)):
            assert sum(y[i] * A[i][j] for i in range(len(A))) >= c[j]
        assert sum(yi * bi for yi, bi in zip(y, b)) == 0


def test_solve_tree_metric_infeasible_reason(z2):
    full = subgroup_class_of(z2, range(2))
    sh = ("leaf", full.class_id)
    sol = solve_tree_metric(z2, 2, sh)
    assert sol.tree is None


def test_grid_oracle_agrees_small(z2, z3):
    # k = 0 and the trivial group give the zero character: its one Bertin
    # decomposition is empty, and no tree has zero leaves
    for G, p in ((cyclic(1), 2), (z2, 2), (z3, 3)):
        for k in (0, 1, 2):
            a = augmentation_char(G) * k
            lp = hurwitz_feasibility(G, p, a)
            grid = grid_feasibility(G, p, a)
            assert lp.verdict == grid.verdict
            assert lp.shapes_tried == grid.shapes_tried
            if a.is_zero():
                assert lp.decompositions == [()]
                assert (lp.verdict, lp.shapes_tried) == ("infeasible", 0)


def test_quaternion_counterexample_structure():
    rep = quaternion_report(2)
    assert rep.group.n == 8
    assert rep.cyclic_classification_ok
    assert sorted(rep.subgroup_names) == \
        sorted(["<tau>", "<sigma>", "<sigma*tau>"])
    assert sorted(rep.klein_artin_pairings) == [0, 2, 2, 2]
    assert rep.chi_pairings == [2, 2, 2]
    assert rep.psi_u_pairings_all_two
    assert rep.psi_leaf_depth == 6
    assert rep.density_terms == [2, 2]
    assert rep.density_lower == 4
    assert rep.density_upper == 3
    assert rep.contradiction
    assert rep.minimal_candidates == 1
    assert rep.obstruction.verdict == "infeasible"
    assert rep.obstruction.decompositions


def test_quaternion_rejects_small_n():
    with pytest.raises(ObstructionError):
        quaternion_report(1)
