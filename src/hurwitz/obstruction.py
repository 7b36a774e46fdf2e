"""The lifting obstruction as a complete finite decision procedure:
Bertin decompositions of an Artin character, exhaustive enumeration of
decorated tree topologies, exact LP feasibility of the metric, and the
generalized-quaternion counterexample report."""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from .characters import (ClassFunction, character_table, induce, inflate,
                         is_true_character, one_char, pair)
from .cyclotomic import Cyclotomic
from .groups import (FiniteGroup, SubgroupClass, contained_up_to_conjugacy,
                     generalized_quaternion, is_prime, per_group, quotient,
                     subgroup_class_of, subgroup_classes)
from .lp import LPResult, solve_lp
from .trees import (HurwitzTree, RootedMetricTree, all_axioms_pass,
                    build_hurwitz_tree, cached_delta_target,
                    cached_delta_target_mult, cached_u_star,
                    cached_u_star_mult, validate)
from .charp import klein_four_action, local_artin_character


class ObstructionError(ValueError):
    pass


def _full_class(G: FiniteGroup) -> SubgroupClass:
    return per_group(G, "full_class",
                     lambda: subgroup_class_of(G, frozenset(range(G.n))))


def _trivial_index(G: FiniteGroup) -> int:
    """The index of the trivial character in character_table(G)."""
    return per_group(G, "trivial_index",
                     lambda: character_table(G).index(one_char(G)))


def _conjugate_orbits(G: FiniteGroup) -> List[Tuple[int, ...]]:
    """The nontrivial irreducibles of character_table(G) by orbit under
    complex conjugation, as tuples of indices, ordered by least index."""
    def make():
        chars = character_table(G)
        triv = _trivial_index(G)
        orbits: List[Tuple[int, ...]] = []
        seen = {triv}
        for i, chi in enumerate(chars):
            if i in seen:
                continue
            conj_chi = ClassFunction(G, [v.conj() for v in chi.values])
            j = chars.index(conj_chi)
            orbits.append((i,) if j == i else (i, j))
            seen.update((i, j))
        return orbits
    return per_group(G, "conjugate_orbits", make)


# -- Bertin decompositions --

def bertin_check(a: ClassFunction) -> List[Tuple[SubgroupClass, ...]]:
    """All multisets {C_1..C_r} of nontrivial cyclic subgroup classes with
    sum u*_{C_i} = a; empty list = nonvanishing Bertin obstruction."""
    G = a.group
    if not is_true_character(a):
        raise ObstructionError("input is not a true character")
    if pair(one_char(G), a) != 0:
        raise ObstructionError("input pairs nontrivially with 1_G")
    # every u* is rational-valued, and so is every sum of them
    if not all(v.is_rational() for v in a.values):
        raise ObstructionError("input is not rational-valued")
    classes = [C for C in subgroup_classes(G, nontrivial_only=True)
               if C.is_cyclic]
    found: List[Tuple[SubgroupClass, ...]] = []

    @functools.cache
    def u_star_values(i: int) -> tuple:
        return tuple(v.to_fraction() for v in cached_u_star(classes[i]).values)

    def dfs(i: int, rest: tuple, picked: List[SubgroupClass]):
        if not any(rest):
            found.append(tuple(picked))
            return
        if i == len(classes):
            return
        # any sum of u*-characters has nonneg degree and nonpositive
        # values off the identity
        if rest[0] < 0 or any(v > 0 for v in rest[1:]):
            return
        dfs(i + 1, rest, picked)
        nxt = tuple(x - y for x, y in zip(rest, u_star_values(i)))
        if nxt[0] >= 0:
            picked.append(classes[i])
            dfs(i, nxt, picked)
            picked.pop()

    dfs(0, tuple(v.to_fraction() for v in a.values), [])
    found.sort(key=lambda t: tuple(C.class_id for C in t))
    return found


# -- tree topology enumeration --
#
# A shape is ("leaf", class_id) or ("node", class_id, children) with the
# children sorted; the same nested tuple is the canonical code, so a set of
# shapes is automatically deduplicated up to decorated isomorphism.

Shape = tuple


def _multiset_partitions(items: Tuple[int, ...]):
    """Unordered partitions of a sorted multiset into nonempty parts, each
    yielded once as a sorted tuple of sorted parts.  The parts come in
    increasing order, so the first one holds the least item left and no
    part is less than the one before it."""
    def split(rest):
        # (chosen, left) for every sub-multiset of the sorted tuple rest
        if not rest:
            yield (), ()
            return
        x = rest[0]
        k = rest.count(x)
        for chosen, left in split(rest[k:]):
            for j in range(k + 1):
                yield (x,) * j + chosen, (x,) * (k - j) + left

    def parts_from(rest, least):
        if not rest:
            yield ()
            return
        for chosen, left in split(rest[1:]):
            part = (rest[0],) + chosen
            if part >= least:
                for tail in parts_from(left, part):
                    yield (part,) + tail

    return parts_from(tuple(items), ())


def enumerate_shapes(G: FiniteGroup,
                     leaves: Sequence[SubgroupClass]) -> List[Shape]:
    """All decorated subtree shapes below the trunk satisfying (H1), for the
    given multiset of leaf monodromy classes; top vertex class is [G]."""
    if not leaves:
        return []       # a tree has at least one leaf
    by_id = {C.class_id: C for C in subgroup_classes(G)}
    for C in leaves:
        by_id.setdefault(C.class_id, C)
    all_classes = subgroup_classes(G)

    @functools.cache
    def contains(big_id: int, small_id: int) -> bool:
        return contained_up_to_conjugacy(by_id[small_id],
                                         by_id[big_id]) is not None

    def shapes(m_id: int, leaf_ids: Tuple[int, ...]) -> List[Shape]:
        out = []
        M = by_id[m_id]
        if len(leaf_ids) == 1 and leaf_ids[0] == m_id and M.is_cyclic \
                and M.order > 1:
            out.append(("leaf", m_id))
        for parts in _multiset_partitions(leaf_ids):
            child_options: List[List[Shape]] = []
            for part in parts:
                opts: List[Shape] = []
                for C in all_classes:
                    if C.order > M.order or not contains(m_id, C.class_id):
                        continue
                    if len(parts) == 1 and C.order >= M.order:
                        continue    # single child needs a strict index drop
                    if any(not contains(C.class_id, l) for l in part):
                        continue
                    opts.extend(shapes(C.class_id, part))
                child_options.append(opts)
            if any(not o for o in child_options):
                continue
            for combo in itertools.product(*child_options):
                out.append(("node", m_id, tuple(sorted(combo))))
        # dedup (identical parts can produce identical combos)
        return sorted(set(out))

    top = _full_class(G)
    leaf_ids = tuple(sorted(C.class_id for C in leaves))
    return shapes(top.class_id, leaf_ids)


class Topology(NamedTuple):
    """A shape as a tree: vertex 0 is the root, vertex 1 the trunk target,
    and the other vertices follow in preorder."""
    edges: List[Tuple[int, int, bool]]      # (src, tgt, is_leaf_edge)
    monodromy: Dict[int, SubgroupClass]     # per vertex
    internal: List[int]                     # indices of internal edges
    leaves: List[int]                       # leaf vertices, in preorder
    path: Dict[int, List[int]]              # vertex -> internal edges above it
    below: Dict[int, List[int]]             # edge -> leaf vertices below it


def shape_to_topology(G: FiniteGroup, shape: Shape) -> Topology:
    """Materialize a shape; edge thicknesses are left symbolic."""
    by_id = {C.class_id: C for C in subgroup_classes(G)}
    top = Topology([], {0: _full_class(G)}, [], [], {0: []}, {})

    def build(parent: int, sh: Shape) -> List[int]:
        e = len(top.edges)
        v = e + 1
        is_leaf = sh[0] == "leaf"
        top.edges.append((parent, v, is_leaf))
        top.monodromy[v] = by_id[sh[1]]
        if is_leaf:
            top.leaves.append(v)
            top.path[v] = top.path[parent]
            top.below[e] = [v]
        else:
            top.internal.append(e)
            top.path[v] = [e] + top.path[parent]
            top.below[e] = [b for child in sh[2] for b in build(v, child)]
        return top.below[e]

    build(0, shape)
    return top


def _hurwitz_tree(G: FiniteGroup, p: int, top: Topology,
                  eps: Dict[int, Fraction],
                  delta_root: Optional[ClassFunction] = None) -> HurwitzTree:
    """The decorated tree of a topology with thickness eps[e] on each
    internal edge e and 0 on the leaf edges."""
    T = RootedMetricTree(0, [(s, t, Fraction(0) if leaf else eps[i])
                             for i, (s, t, leaf) in enumerate(top.edges)])
    return build_hurwitz_tree(T, G, p, top.monodromy, delta_root=delta_root)


# -- metric feasibility by exact LP --

@dataclass
class MetricSolution:
    tree: Optional[HurwitzTree]
    lp: Optional[LPResult]
    reason: str


def solve_tree_metric(G: FiniteGroup, p: int, shape: Shape,
                      delta_root_free: bool = False) -> MetricSolution:
    """Decide whether the decorated shape carries strictly positive internal
    thicknesses making (H4)+(H5) hold with delta_root = 0 (or with any
    delta_root in the positive cone when delta_root_free)."""
    top = shape_to_topology(G, shape)
    chars = character_table(G)

    # multiplicities of s_e = a_e - u*_{G_t(e)} per internal edge, where a_e
    # is the sum of u* over the leaves below e; pairing is linear, so they
    # are sums of the per-class vectors (ints: every u* is a character)
    s_mult: Dict[int, List[int]] = {}
    for e in top.internal:
        own = cached_u_star_mult(top.monodromy[top.edges[e][1]])
        below = [cached_u_star_mult(top.monodromy[b]) for b in top.below[e]]
        s_mult[e] = [sum(col) - m for col, m in zip(zip(*below), own)]

    nvar_eps = len(top.internal)
    var_of = {e: i for i, e in enumerate(top.internal)}
    # one free root variable per conjugate orbit of nontrivial irreducibles,
    # so the recovered root depth (a rational combination chi + conj(chi))
    # pairs with both members of the orbit consistently
    orbits = _conjugate_orbits(G) if delta_root_free else []
    free_idx = {i: nvar_eps + k for k, orbit in enumerate(orbits)
                for i in orbit}
    t_var = nvar_eps + len(orbits)
    u_var = t_var + 1
    # then a slack column for each internal positivity row and each eps row
    width = u_var + 1 + (len(chars) + 1) * len(top.internal)
    slack = iter(range(u_var + 1, width))
    # entries are ints, except the Fractions of a non-integral target
    rows: List[list] = []
    rhs: list = []

    def new_row():
        rows.append([0] * width)
        rhs.append(0)
        return rows[-1]

    def path_row(v: int, i: int):
        # sum over the internal edges above v of eps_e m_i(s_e) (+ root mult)
        row = new_row()
        for e in top.path[v]:
            row[var_of[e]] = s_mult[e][i]
        if i in free_idx:
            row[free_idx[i]] = 1
        return row

    # leaf equalities: sum_path eps m(s_e) (+ root mult) = m(delta_target)
    for b in top.leaves:
        target = cached_delta_target_mult(top.monodromy[b], p)
        for i in range(len(chars)):
            path_row(b, i)
            rhs[-1] = target[i]
    # internal positivity: sum_path eps m(s_e) (+ root mult) - w = 0
    for e in top.internal:
        for i in range(len(chars)):
            path_row(top.edges[e][1], i)[next(slack)] = -1
    # eps_e - t - sl = 0 ; t + u = 1
    for e in top.internal:
        row = new_row()
        row[var_of[e]] = 1
        row[t_var] = -1
        row[next(slack)] = -1
    row = new_row()
    row[t_var] = 1
    row[u_var] = 1
    rhs[-1] = 1
    obj = [0] * width
    obj[t_var] = 1

    res = solve_lp(obj, rows, rhs)
    if res.status == "infeasible":
        return MetricSolution(None, res, "metric system infeasible")
    if res.status == "unbounded":
        raise ObstructionError("capped LP cannot be unbounded")
    if res.objective == 0:
        return MetricSolution(None, res,
                              "no strictly positive thickness assignment")
    delta_root = None
    if delta_root_free:
        # one rational coefficient per orbit sum, chi or chi + conj(chi),
        # keeps the depth character conjugation-symmetric
        acc = ClassFunction(G, [0] * len(G.conjugacy_classes()))
        for k, orbit in enumerate(orbits):
            coeff = res.x[nvar_eps + k]
            if coeff:
                for i in orbit:
                    acc = acc + coeff * chars[i]
        delta_root = acc
    ht = _hurwitz_tree(G, p, top, {e: res.x[var_of[e]] for e in top.internal},
                       delta_root)
    report = validate(ht)
    if not all_axioms_pass(report):
        raise ObstructionError(f"witness failed validation: {report}")
    return MetricSolution(ht, res, "witness")


# -- the decision procedure --

@dataclass
class ObstructionReport:
    verdict: str                       # "witness" | "infeasible"
    artin: ClassFunction
    p: int
    witness: Optional[HurwitzTree] = None
    witness_shape: Optional[Shape] = None
    decompositions: List[Tuple[SubgroupClass, ...]] = dc_field(default_factory=list)
    shapes_tried: int = 0
    lp_runs: int = 0
    certificates: List[dict] = dc_field(default_factory=list)


def hurwitz_feasibility(G: FiniteGroup, p: int,
                        a: ClassFunction) -> ObstructionReport:
    """Complete finite search for a Hurwitz tree of type (G,p) with Artin
    character a and zero root depth."""
    if a.group is not G:
        raise ObstructionError("character is not on the given group")
    if not is_prime(p):
        raise ObstructionError(f"p = {p} is not a prime")
    decomps = bertin_check(a)
    report = ObstructionReport(verdict="infeasible", artin=a, p=p,
                               decompositions=decomps)
    for decomp in decomps:
        for shape in enumerate_shapes(G, list(decomp)):
            report.shapes_tried += 1
            if shape[0] == "leaf":      # no internal edge: nothing for an LP
                ht = _tame_single_leaf(G, p, shape_to_topology(G, shape))
                if ht is not None:
                    report.verdict = "witness"
                    report.witness = ht
                    report.witness_shape = shape
                    return report
                report.certificates.append(
                    {"shape": shape, "reason": "nonzero leaf depth "
                                               "with no internal edge"})
                continue
            report.lp_runs += 1
            sol = solve_tree_metric(G, p, shape)
            if sol.tree is not None:
                assert sol.tree.artin_character == a
                assert sol.tree.depth_character.is_zero()
                report.verdict = "witness"
                report.witness = sol.tree
                report.witness_shape = shape
                return report
            entry = {"shape": shape, "reason": sol.reason,
                     "farkas": None if sol.lp is None else sol.lp.certificate,
                     "objective": None if sol.lp is None
                     else sol.lp.objective}
            if entry["objective"] == 0:     # the dual proves max t = 0
                entry["dual"] = sol.lp.dual
            report.certificates.append(entry)
    return report


def _tame_single_leaf(G: FiniteGroup, p: int,
                      top: Topology) -> Optional[HurwitzTree]:
    if not cached_delta_target(top.monodromy[top.leaves[0]], p).is_zero():
        return None
    ht = _hurwitz_tree(G, p, top, {})
    if not all_axioms_pass(validate(ht)):
        return None
    return ht


# -- independent grid oracle (kept LP-free on purpose) --

def grid_feasibility(G: FiniteGroup, p: int,
                     a: ClassFunction) -> ObstructionReport:
    """Brute-force rational search over edge thicknesses on the same shape
    enumeration; checks candidates by full axiom validation, no linear
    algebra shared with the LP path. The thicknesses tried are the
    fractions in (0, 2] with denominator at most 2(p-1)."""
    values = sorted({Fraction(k, d)
                     for d in range(1, 2 * (p - 1) + 1)
                     for k in range(1, 2 * d + 1)})
    decomps = bertin_check(a)
    report = ObstructionReport(verdict="infeasible", artin=a, p=p,
                               decompositions=decomps)
    for decomp in decomps:
        for shape in enumerate_shapes(G, list(decomp)):
            report.shapes_tried += 1
            top = shape_to_topology(G, shape)
            if not top.internal:
                ht = _tame_single_leaf(G, p, top)
                if ht is not None:
                    report.verdict = "witness"
                    report.witness = ht
                    return report
                continue
            for combo in itertools.product(values, repeat=len(top.internal)):
                ht = _hurwitz_tree(G, p, top, dict(zip(top.internal, combo)))
                if all_axioms_pass(validate(ht)) and \
                        ht.artin_character == a and \
                        ht.depth_character.is_zero():
                    report.verdict = "witness"
                    report.witness = ht
                    report.witness_shape = shape
                    return report
    return report


# -- the quaternion counterexample --

@dataclass
class QuaternionReport:
    n: int
    group: FiniteGroup
    subgroup_names: List[str]
    cyclic_classification_ok: bool
    klein_artin_pairings: List[Fraction]
    chi_pairings: List[Fraction]           # <a, chi_i>
    psi_u_pairings_all_two: bool
    psi_leaf_depth: Fraction               # delta_{b_0}(psi)
    density_upper: Fraction                # d(B, b_0) bound from psi
    density_terms: List[Fraction]          # d(B^i, b) values forced by (H5)
    density_lower: Fraction                # d(B', b_0) forced by chi_1, chi_2
    contradiction: bool
    minimal_candidates: int
    verdicts: List[str]
    obstruction: ObstructionReport


def quaternion_report(n: int = 2) -> QuaternionReport:
    """Build Q_{2^(n+1)}, verify the structure theory behind the
    counterexample, and run the full decision procedure on the minimal
    simple Artin character."""
    if n < 2:
        raise ObstructionError("need n >= 2")
    G = generalized_quaternion(n)
    tau = G.element_by_name("tau")
    sigma = G.element_by_name("sigma")
    H0 = subgroup_class_of(G, G.closure([tau]))
    H1 = subgroup_class_of(G, G.closure([sigma]))
    H2 = subgroup_class_of(G, G.closure([G.mul(sigma, tau)]))

    # every nontrivial cyclic subgroup lies in one of H0, H1, H2 up to conj
    classification = all(
        any(contained_up_to_conjugacy(C, H) is not None for H in (H0, H1, H2))
        for C in subgroup_classes(G, nontrivial_only=True) if C.is_cyclic)

    # the Klein-four quotient and the inflated characters chi_0, chi_1, chi_2
    tau2 = G.power(tau, 2)
    Q, proj = quotient(G, G.closure([tau2]))
    qchars = [c for c in character_table(Q) if c != one_char(Q)]
    H_images = [frozenset(proj[g] for g in H.rep) for H in (H0, H1, H2)]
    chis: List[Optional[ClassFunction]] = [None, None, None]
    for qc in qchars:
        kernel = frozenset(g for g in range(Q.n)
                           if qc.at(g) == qc.at(Q.identity))
        i = H_images.index(kernel)
        chis[i] = inflate(qc, G, proj)
    assert all(c is not None for c in chis)

    # characteristic-2 Klein action: a(chi_i) = 2 down in the quotient
    _, K4, act = klein_four_action()
    a_bar = local_artin_character(act)
    klein_pairings = sorted(pair(c, a_bar) for c in character_table(K4))

    # minimal simple Artin character a = u*_{H0} + u*_{H1} + u*_{H2}
    a = cached_u_star(H0) + cached_u_star(H1) + cached_u_star(H2)
    chi_pairings = [pair(c, a) for c in chis]

    # psi = induced faithful character of H0
    psi = _induced_faithful(H0)
    psi_ok = all(pair(psi, cached_u_star(C)) == 2
                 for C in subgroup_classes(G, nontrivial_only=True)
                 if C.is_cyclic)
    target0 = cached_delta_target(H0, 2)
    psi_depth = pair(psi, target0)
    upper = psi_depth / 2
    terms = [pair(chis[1], target0), pair(chis[2], target0)]
    lower = sum(terms)

    # all Bertin-admissible candidates at the minimal leaf budget
    candidates = _minimal_simple_candidates(G, chis, (H0, H1, H2))
    verdicts = []
    main_report = None
    for cand in candidates:
        rep = hurwitz_feasibility(G, 2, cand)
        verdicts.append(rep.verdict)
        if cand == a:
            main_report = rep
    assert main_report is not None, "minimal budget misses the target character"

    return QuaternionReport(
        n=n, group=G,
        subgroup_names=[H0.name(), H1.name(), H2.name()],
        cyclic_classification_ok=classification,
        klein_artin_pairings=klein_pairings,
        chi_pairings=chi_pairings,
        psi_u_pairings_all_two=psi_ok,
        psi_leaf_depth=psi_depth,
        density_upper=upper,
        density_terms=terms,
        density_lower=lower,
        contradiction=lower > upper,
        minimal_candidates=len(candidates),
        verdicts=verdicts,
        obstruction=main_report)


def _induced_faithful(C: SubgroupClass) -> ClassFunction:
    """Induce a faithful irreducible character of the cyclic subgroup."""
    H, embed = C.as_group()
    gen = next(h for h in range(H.n) if H.order_of[h] == H.n)
    vals = {}
    for h in range(H.n):
        k = next(k for k in range(H.n) if H.power(gen, k) == h)
        vals[h] = Cyclotomic.zeta(H.n, k)
    chi = ClassFunction.from_element_values(H, vals)
    return induce(chi, C.group, embed)


def _minimal_simple_candidates(G: FiniteGroup, chis,
                               Hs) -> List[ClassFunction]:
    """All sums of u*_C over nontrivial cyclic classes with
    <a, chi_0> = 2, <a, chi_1> = <a, chi_2> >= 2, of minimal degree.

    The search runs on multiplicity vectors: the chi_i are irreducible, so
    <a, chi_i> is the entry of a's vector at chi_i's index in the table."""
    classes = [C for C in subgroup_classes(G, nontrivial_only=True)
               if C.is_cyclic]
    mults = [cached_u_star_mult(C) for C in classes]
    degrees = [cached_u_star(C).degree().to_fraction() for C in classes]
    budget = sum(cached_u_star(H).degree().to_fraction() for H in Hs)
    table = character_table(G)
    i0, i1, i2 = (table.index(chi) for chi in chis)
    sums: List[Tuple[tuple, Fraction, Tuple[int, ...]]] = []

    def dfs(i, acc, deg, picked):
        if picked and acc[i0] == 2 and acc[i1] == acc[i2] >= 2:
            sums.append((acc, deg, picked))
        if i == len(classes):
            return
        dfs(i + 1, acc, deg, picked)
        if deg + degrees[i] <= budget:
            dfs(i, tuple(x + y for x, y in zip(acc, mults[i])),
                deg + degrees[i], picked + (i,))

    dfs(0, (0,) * len(table), Fraction(0), ())
    if not sums:
        return []
    min_deg = min(deg for _, deg, _ in sums)
    out, seen = [], set()
    for acc, deg, picked in sums:
        if deg == min_deg and acc not in seen:
            seen.add(acc)
            a = cached_u_star(classes[picked[0]])
            for k in picked[1:]:
                a = a + cached_u_star(classes[k])
            out.append(a)
    return out
