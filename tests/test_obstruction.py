import itertools
import json
import os
import runpy
from fractions import Fraction

import pytest

import hurwitz.obstruction as obstruction
from hurwitz.characters import (ClassFunction, augmentation_char,
                                character_table, delta_mult_star, one_char,
                                pair, u_star)
from hurwitz.files import parse_cyclotomic
from hurwitz.groups import (build_group, cyclic, subgroup_class_of,
                            subgroup_classes)
from hurwitz.lp import solve_lp
from hurwitz.obstruction import (ObstructionError, _multiset_partitions,
                                 bertin_check, enumerate_shapes,
                                 grid_feasibility, hurwitz_feasibility,
                                 quaternion_report, shape_to_topology,
                                 solve_tree_metric)
from hurwitz.trees import (all_axioms_pass, cached_delta_target,
                           cached_u_star, validate)

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "perfbench")


def test_bertin_decompositions_z2(z2):
    a = augmentation_char(z2) * 2
    decomps = bertin_check(a)
    assert len(decomps) == 1
    assert [C.order for C in decomps[0]] == [2, 2]


def reference_bertin_check(a):
    """The depth-first search of bertin_check in cyclotomic arithmetic:
    ClassFunction subtraction and a to_fraction per value tested."""
    G = a.group
    classes = [C for C in subgroup_classes(G, nontrivial_only=True)
               if C.is_cyclic]
    zero = ClassFunction(G, [0] * len(G.conjugacy_classes()))
    found = []

    def remaining_ok(f):
        if not f.degree().to_fraction() >= 0:
            return False
        return all(not (i and v.to_fraction() > 0)
                   for i, v in enumerate(f.values))

    def dfs(i, rest, picked):
        if rest == zero:
            found.append(tuple(picked))
            return
        if i == len(classes) or not remaining_ok(rest):
            return
        dfs(i + 1, rest, picked)
        nxt = rest - cached_u_star(classes[i])
        if nxt.degree().to_fraction() >= 0:
            picked.append(classes[i])
            dfs(i, nxt, picked)
            picked.pop()

    dfs(0, a, [])
    found.sort(key=lambda t: tuple(C.class_id for C in t))
    return found


def test_bertin_matches_cyclotomic_reference_on_catalog_characters():
    # the characters and groups of the benchmark's group_catalog workload
    with open(os.path.join(PERFBENCH, "expected.json")) as fh:
        pool = json.load(fh)["group_catalog"]
    catalog = runpy.run_path(os.path.join(PERFBENCH, "workloads.py"))[
        "CATALOG_GROUPS"]
    groups = {}
    decompositions = 0
    for key in sorted(pool):
        name = key.rsplit("/", 1)[0]
        if name not in groups:
            groups[name] = build_group(catalog[name])
        G = groups[name]
        a = ClassFunction(G, [parse_cyclotomic(v, G.exponent())
                              for v in pool[key]["values"]])
        found = bertin_check(a)
        assert found == reference_bertin_check(a), key
        assert bool(found) == pool[key]["fields"]["vanishes"], key
        decompositions += len(found)
    assert decompositions > 0


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


def reference_metric_lp(G, p, shape, delta_root_free):
    """The (c, A, b) that solve_tree_metric built from Fraction cells
    before its rows became ints, kept as the reference, with each
    multiplicity vector a list of Fraction pairings."""
    top = shape_to_topology(G, shape)
    chars = character_table(G)
    triv = next(i for i, c in enumerate(chars) if c == one_char(G))

    def mults(f):
        return [pair(chi, f) for chi in chars]

    s_mult = {}
    for e in top.internal:
        own = mults(cached_u_star(top.monodromy[top.edges[e][1]]))
        below = [mults(cached_u_star(top.monodromy[b]))
                 for b in top.below[e]]
        s_mult[e] = [sum(col) - m for col, m in zip(zip(*below), own)]
    nvar_eps = len(top.internal)
    var_of = {e: i for i, e in enumerate(top.internal)}
    free_idx, orbit_rep = {}, {}
    if delta_root_free:
        for i, chi in enumerate(chars):
            if i == triv or i in orbit_rep:
                continue
            conj_chi = ClassFunction(G, [v.conj() for v in chi.values])
            j = next(k for k, other in enumerate(chars) if other == conj_chi)
            orbit_rep[i] = orbit_rep[j] = i
            col = nvar_eps + len(set(free_idx.values()))
            free_idx[i] = free_idx[j] = col
    t_var = nvar_eps + len(set(free_idx.values()))
    u_var = t_var + 1
    ncols = u_var + 1
    rows, rhs = [], []

    def new_row():
        rows.append([Fraction(0)] * ncols)
        rhs.append(Fraction(0))
        return rows[-1]

    def path_row(v, i):
        row = new_row()
        for e in top.path[v]:
            row[var_of[e]] = s_mult[e][i]
        if i in free_idx:
            row[free_idx[i]] = Fraction(1)

    for b in top.leaves:
        target = mults(cached_delta_target(top.monodromy[b], p))
        for i in range(len(chars)):
            path_row(b, i)
            rhs[-1] = target[i]
    slack_rows = []
    for e in top.internal:
        for i in range(len(chars)):
            path_row(top.edges[e][1], i)
            slack_rows.append(len(rows) - 1)
    eps_rows = []
    for e in top.internal:
        row = new_row()
        row[var_of[e]] = Fraction(1)
        row[t_var] = Fraction(-1)
        eps_rows.append(len(rows) - 1)
    row = new_row()
    row[t_var] = Fraction(1)
    row[u_var] = Fraction(1)
    rhs[-1] = Fraction(1)
    extra = len(slack_rows) + len(eps_rows)
    for r in rows:
        r.extend([Fraction(0)] * extra)
    for k, ri in enumerate(slack_rows):
        rows[ri][ncols + k] = Fraction(-1)
    for k, ri in enumerate(eps_rows):
        rows[ri][ncols + len(slack_rows) + k] = Fraction(-1)
    obj = [Fraction(0)] * (ncols + extra)
    obj[t_var] = Fraction(1)
    return obj, rows, rhs


def test_metric_rows_match_the_fraction_build(q8, z2, z3, monkeypatch):
    """Every entry equals the reference's, and is an int wherever it is
    integral: every Q8 shape of the counterexample, with and without a
    free root depth, and every C2/C3 shape with two to four leaves and a
    free root depth."""
    captured = []

    def capture(c, A, b):
        captured.append((c, A, b))
        return solve_lp(c, A, b)

    monkeypatch.setattr(obstruction, "solve_lp", capture)
    leaves = [subgroup_class_of(q8, q8.closure([q8.element_by_name(g)]))
              for g in ("tau", "sigma", "sigma*tau")]
    cases = [(q8, 2, shape, free) for shape in enumerate_shapes(q8, leaves)
             for free in (False, True)]
    for G, p in ((z2, 2), (z3, 3)):
        [C] = subgroup_classes(G, nontrivial_only=True)
        cases += [(G, p, shape, True) for k in (2, 3, 4)
                  for shape in enumerate_shapes(G, [C] * k)]
    halves = 0
    for G, p, shape, free in cases:
        captured.clear()
        solve_tree_metric(G, p, shape, delta_root_free=free)
        [(c, A, b)] = captured
        ref_c, ref_A, ref_b = reference_metric_lp(G, p, shape, free)
        assert (len(A), len(c)) == (len(ref_A), len(ref_c))
        for got, ref in ((c, ref_c), (b, ref_b), *zip(A, ref_A)):
            assert got == ref, shape
            assert all(type(v) is int for v in got
                       if Fraction(v).denominator == 1), shape
            halves += sum(Fraction(v).denominator == 2 for v in got)
    assert len(cases) == 80 and halves > 0


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


def reference_minimal_simple_candidates(G, chis, Hs):
    """The candidate search in value space that the multiplicity-vector
    search replaced, kept as the reference: it sums u* class functions and
    pairs each sum with chi_0, chi_1 and chi_2."""
    classes = [C for C in subgroup_classes(G, nontrivial_only=True)
               if C.is_cyclic]
    budget = sum(cached_u_star(H).degree().to_fraction() for H in Hs)
    sums = []

    def dfs(i, acc, deg):
        if acc is not None:
            p0 = pair(chis[0], acc)
            p1, p2 = pair(chis[1], acc), pair(chis[2], acc)
            if p0 == 2 and p1 == p2 and p1 >= 2:
                sums.append(acc)
        if i == len(classes):
            return
        C = classes[i]
        d = cached_u_star(C).degree().to_fraction()
        dfs(i + 1, acc, deg)
        if deg + d <= budget:
            nxt = cached_u_star(C) if acc is None else acc + cached_u_star(C)
            dfs(i, nxt, deg + d)

    dfs(0, None, Fraction(0))
    if not sums:
        return []
    min_deg = min(s.degree().to_fraction() for s in sums)
    out = []
    for s in sums:
        if s.degree().to_fraction() == min_deg and \
                not any(s == t for t in out):
            out.append(s)
    return out


class _Found(Exception):
    pass


@pytest.mark.parametrize("n", [2, 3, 4])
def test_minimal_candidates_match_the_class_function_search(n, monkeypatch):
    # the arguments are taken from quaternion_report itself, which is
    # stopped before its search
    search = obstruction._minimal_simple_candidates

    def compare(G, chis, Hs):
        got = search(G, chis, Hs)
        want = reference_minimal_simple_candidates(G, chis, Hs)
        assert got and len(got) == len(want)
        for a, b in zip(got, want):
            assert a.values == b.values
        raise _Found

    monkeypatch.setattr(obstruction, "_minimal_simple_candidates", compare)
    with pytest.raises(_Found):
        quaternion_report(n)


def test_quaternion_rejects_small_n():
    with pytest.raises(ObstructionError):
        quaternion_report(1)
