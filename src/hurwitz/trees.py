"""Rooted metric trees with monodromy/Artin/depth decorations and the five
Hurwitz-tree axioms, plus densities and the equivariant lift.

All metric data are exact rationals; no floating point in this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .characters import ClassFunction, augmentation_char, \
    character_table, delta_mult_star, is_positive_rational, \
    is_true_character, one_char, pair, u_star
from .groups import FiniteGroup, SubgroupClass, contained_up_to_conjugacy, \
    per_group, subgroup_class_of


class TreeError(ValueError):
    pass


class RootedMetricTree:
    """Rooted tree with the root adjacent to exactly one edge (the trunk)
    and nonnegative rational edge thicknesses, zero exactly at leaf edges."""

    def __init__(self, root: int, edges: Sequence[Tuple[int, int, Fraction]]):
        self.root = root
        self.edges = [(s, t, Fraction(e)) for s, t, e in edges]
        self.vertices = sorted({root} | {s for s, _, _ in self.edges}
                               | {t for _, t, _ in self.edges})
        self._children: Dict[int, List[int]] = {v: [] for v in self.vertices}
        self._parent_edge: Dict[int, int] = {}
        for idx, (s, t, _) in enumerate(self.edges):
            self._children[s].append(idx)
            if t in self._parent_edge:
                raise TreeError(f"vertex {t} has two incoming edges")
            self._parent_edge[t] = idx
        if root in self._parent_edge:
            raise TreeError("root has an incoming edge")
        if len(self._children[root]) != 1:
            raise TreeError("root must be adjacent to exactly one edge")
        self.trunk = self._children[root][0]
        self._check_connected()
        for s, t, e in self.edges:
            if e < 0:
                raise TreeError(f"negative thickness on edge {s}->{t}")
            if (e == 0) != self.is_leaf(t):
                raise TreeError(
                    f"thickness of edge {s}->{t} must vanish iff target is a leaf")

    def _check_connected(self):
        seen = {self.root}
        stack = [self.root]
        while stack:
            v = stack.pop()
            for e in self._children[v]:
                t = self.edges[e][1]
                if t in seen:
                    raise TreeError("cycle detected")
                seen.add(t)
                stack.append(t)
        if seen != set(self.vertices):
            raise TreeError("tree is not connected")

    def children_edges(self, v: int) -> List[int]:
        return self._children[v]

    def parent_edge(self, v: int) -> Optional[int]:
        return self._parent_edge.get(v)

    def is_leaf(self, v: int) -> bool:
        return v != self.root and not self._children[v]

    @property
    def leaves(self) -> List[int]:
        return [v for v in self.vertices if self.is_leaf(v)]

    def path_edges(self, v: int) -> List[int]:
        """Edges on the oriented path root -> v."""
        out = []
        while v != self.root:
            e = self._parent_edge[v]
            out.append(e)
            v = self.edges[e][0]
        return list(reversed(out))

    def leaves_below(self, v: int) -> List[int]:
        out = []
        stack = [v]
        while stack:
            u = stack.pop()
            if self.is_leaf(u):
                out.append(u)
            for e in self._children[u]:
                stack.append(self.edges[e][1])
        return sorted(out)


@dataclass
class HurwitzTree:
    tree: RootedMetricTree
    group: FiniteGroup
    p: int
    monodromy: Dict[int, SubgroupClass]        # per vertex
    artin: Dict[int, ClassFunction]            # per edge index
    depth: Dict[int, ClassFunction]            # per vertex

    @property
    def artin_character(self) -> ClassFunction:
        return self.artin[self.tree.trunk]

    @property
    def depth_character(self) -> ClassFunction:
        return self.depth[self.tree.root]


# -- decoration caches, kept per group by groups.per_group --
#
# A multiplicity vector lists <chi, f> for chi in character_table(G); by
# linearity, the vector of a sum of u*'s is the sum of their vectors.

def _mults(f: ClassFunction) -> List[Union[int, Fraction]]:
    """The vector as LP entries: an int wherever it is integral."""
    return [v.numerator if v.denominator == 1 else v
            for v in (pair(chi, f) for chi in character_table(f.group))]


def cached_u_star(C: SubgroupClass) -> ClassFunction:
    return per_group(C.group, ("u_star", C.class_id), lambda: u_star(C))


def cached_delta_target(C: SubgroupClass, p: int) -> ClassFunction:
    return per_group(C.group, ("delta_target", C.class_id, p),
                     lambda: delta_mult_star(C, p))


def cached_u_star_mult(C: SubgroupClass) -> List[Union[int, Fraction]]:
    return per_group(C.group, ("u_star_mult", C.class_id),
                     lambda: _mults(cached_u_star(C)))


def cached_delta_target_mult(C: SubgroupClass,
                             p: int) -> List[Union[int, Fraction]]:
    return per_group(C.group, ("delta_target_mult", C.class_id, p),
                     lambda: _mults(cached_delta_target(C, p)))


# -- axiom validation --

def validate(ht: HurwitzTree) -> Dict[str, Tuple[bool, list]]:
    """Check (H1)-(H5) independently, plus the decoration positivity
    requirements; offenders are vertex/edge identifiers."""
    T, G = ht.tree, ht.group
    for v in T.vertices:
        if ht.monodromy[v].group is not G:
            raise TreeError(f"monodromy of vertex {v} is for another group")
    report: Dict[str, Tuple[bool, list]] = {}

    # H1: classwise containment along edges, branching sums, root condition
    bad = []
    for idx, (s, t, _) in enumerate(T.edges):
        if contained_up_to_conjugacy(ht.monodromy[t], ht.monodromy[s]) is None:
            bad.append(("edge", idx))
    for v in T.vertices:
        kids = T.children_edges(v)
        if v == T.root:
            if len(kids) != 1:
                bad.append(("vertex", v))
            else:
                child = T.edges[kids[0]][1]
                if ht.monodromy[v].order != G.n or \
                        ht.monodromy[child].order != G.n:
                    bad.append(("vertex", v))
        elif kids:  # internal non-root vertex; leaves carry no sum condition
            total = sum(ht.monodromy[v].order // ht.monodromy[T.edges[e][1]].order
                        for e in kids)
            if total <= 1:
                bad.append(("vertex", v))
    report["H1"] = (not bad, bad)

    # H2: leaf monodromy nontrivial cyclic
    bad = [("vertex", b) for b in T.leaves
           if not ht.monodromy[b].is_cyclic or ht.monodromy[b].order == 1]
    report["H2"] = (not bad, bad)

    # H3: local recursion and the global leaf-sum form must both hold
    bad = []
    for idx, (s, t, _) in enumerate(T.edges):
        if T.is_leaf(t):
            expected = cached_u_star(ht.monodromy[t])
        else:
            kids = T.children_edges(t)
            expected = ht.artin[kids[0]]
            for e in kids[1:]:
                expected = expected + ht.artin[e]
        if ht.artin[idx] != expected:
            bad.append(("edge", idx))
            continue
        glob = None
        for b in T.leaves_below(t):
            term = cached_u_star(ht.monodromy[b])
            glob = term if glob is None else glob + term
        if ht.artin[idx] != glob:
            bad.append(("edge", idx))
    report["H3"] = (not bad, bad)

    # H4: depth propagation along each edge
    bad = []
    for idx, (s, t, eps) in enumerate(T.edges):
        s_e = ht.artin[idx] - cached_u_star(ht.monodromy[t])
        if ht.depth[t] != ht.depth[s] + eps * s_e:
            bad.append(("edge", idx))
    report["H4"] = (not bad, bad)

    # H5: leaf depths equal the induced multiplicative character
    bad = []
    for b in T.leaves:
        if ht.depth[b] != cached_delta_target(ht.monodromy[b], ht.p):
            bad.append(("vertex", b))
    report["H5"] = (not bad, bad)

    # decoration cones: a_e in R^+(G), delta_v in R^+(G, Q), zero 1_G part
    bad = []
    unit = one_char(G)
    for idx in range(len(T.edges)):
        a = ht.artin[idx]
        if not is_true_character(a) or pair(unit, a) != 0:
            bad.append(("edge", idx))
    for v in T.vertices:
        d = ht.depth[v]
        if not is_positive_rational(d) or pair(unit, d) != 0:
            bad.append(("vertex", v))
    report["cones"] = (not bad, bad)
    return report


def all_axioms_pass(report: Dict[str, Tuple[bool, list]]) -> bool:
    return all(ok for ok, _ in report.values())


# -- derived data --

def derive_artin(T: RootedMetricTree,
                 leaf_monodromy: Dict[int, SubgroupClass]
                 ) -> Dict[int, ClassFunction]:
    """Artin characters on all edges from the leaf monodromy (H3 closure)."""
    for b in T.leaves:
        C = leaf_monodromy[b]
        if not C.is_cyclic or C.order == 1:
            raise TreeError(f"leaf {b} must carry a nontrivial cyclic class")
    artin: Dict[int, ClassFunction] = {}

    def fill(v: int) -> Optional[ClassFunction]:
        if T.is_leaf(v):
            return None
        total = None
        for e in T.children_edges(v):
            t = T.edges[e][1]
            if T.is_leaf(t):
                a = cached_u_star(leaf_monodromy[t])
            else:
                a = fill(t)
            artin[e] = a
            total = a if total is None else total + a
        return total

    fill(T.root)
    return artin


def derive_depths(ht_tree: RootedMetricTree, monodromy, artin, delta_root):
    """Propagate depths from the root by (H4)."""
    depths = {ht_tree.root: delta_root}
    stack = [ht_tree.root]
    while stack:
        v = stack.pop()
        for e in ht_tree.children_edges(v):
            s, t, eps = ht_tree.edges[e]
            s_e = artin[e] - cached_u_star(monodromy[t])
            depths[t] = depths[s] + eps * s_e
            stack.append(t)
    return depths


def build_hurwitz_tree(T: RootedMetricTree, G: FiniteGroup, p: int,
                       monodromy: Dict[int, SubgroupClass],
                       delta_root: Optional[ClassFunction] = None
                       ) -> HurwitzTree:
    """Assemble the full decoration from (T, [G_v]) and the root depth."""
    if delta_root is None:
        delta_root = ClassFunction(G, [0] * len(G.conjugacy_classes()))
    artin = derive_artin(T, {b: monodromy[b] for b in T.leaves})
    depths = derive_depths(T, monodromy, artin, delta_root)
    return HurwitzTree(tree=T, group=G, p=p, monodromy=monodromy,
                       artin=artin, depth=depths)


# -- densities --

def inverse_distance(T: RootedMetricTree, b1: int, b2: int) -> Fraction:
    if b1 == b2 or not (T.is_leaf(b1) and T.is_leaf(b2)):
        raise TreeError("inverse distance requires two distinct leaves")
    p1, p2 = T.path_edges(b1), T.path_edges(b2)
    total = Fraction(0)
    for e1, e2 in zip(p1, p2):
        if e1 != e2:
            break
        total += T.edges[e1][2]
    return total


def density(T: RootedMetricTree, A: Sequence[int], b: int) -> Fraction:
    if b not in A:
        raise TreeError("density point must belong to the leaf set")
    return sum((inverse_distance(T, b, b2) for b2 in A if b2 != b),
               Fraction(0))


def density_path_formula(T: RootedMetricTree, A: Sequence[int], b: int
                         ) -> Fraction:
    """d(A,b) = sum eps_{e_i} n(A, v_i) along the root-to-b path."""
    total = Fraction(0)
    aset = set(A)
    for e in T.path_edges(b):
        v = T.edges[e][1]
        if v == b:
            continue
        n = len([x for x in T.leaves_below(v) if x in aset and x != b])
        total += T.edges[e][2] * n
    return total


def density_character_identity(ht: HurwitzTree, chi: ClassFunction,
                               A: Sequence[int], b: int):
    """Check m * d(A,b) = delta_b(chi) - delta_root(chi) (after verifying the
    hypothesis on chi); returns (ok, lhs, rhs)."""
    T = ht.tree
    m = pair(chi, augmentation_char(ht.group))
    aset = set(A)
    for leaf in T.leaves:
        val = pair(chi, cached_u_star(ht.monodromy[leaf]))
        if leaf in aset and val != m:
            raise TreeError(f"hypothesis fails: leaf {leaf} pairs to {val}")
        if leaf not in aset and val != 0:
            raise TreeError(f"hypothesis fails: leaf {leaf} pairs to {val}")
    lhs = m * density(T, A, b)
    rhs = pair(chi, ht.depth[b]) - pair(chi, ht.depth[T.root])
    return lhs == rhs, lhs, rhs


# -- equivariant lift --

@dataclass
class LiftedTree:
    """The metric tree with G-action whose quotient is the Hurwitz tree."""
    vertices: List[Tuple[int, frozenset]]      # (base vertex, coset)
    edges: List[Tuple[int, int, Fraction]]     # indices into vertices
    stabilizer: Dict[int, frozenset]           # per lifted vertex
    base_of: Dict[int, int]

    def act(self, g: int, vid: int, G: FiniteGroup) -> int:
        base, coset = self.vertices[vid]
        image = frozenset(G.mul(g, x) for x in coset)
        return self.vertices.index((base, image))


def equivariant_lift(T: RootedMetricTree, G: FiniteGroup,
                     monodromy: Dict[int, SubgroupClass]) -> LiftedTree:
    """Lift (T, [G_v]) to a metric tree with G-action fixing the root.

    Representatives are chosen greedily root-down: each child's subgroup is
    conjugated into the parent's chosen representative.
    """
    chosen: Dict[int, frozenset] = {}
    root_cls = monodromy[T.root]
    if root_cls.order != G.n:
        raise TreeError("root monodromy must be the full group")
    chosen[T.root] = frozenset(range(G.n))
    order = []
    stack = [T.root]
    while stack:
        v = stack.pop()
        order.append(v)
        for e in T.children_edges(v):
            t = T.edges[e][1]
            child = monodromy[t]
            parent_set = chosen[v]
            found = None
            for g in range(G.n):
                s = G.conjugate_set(g, frozenset(child.rep))
                if s <= parent_set:
                    found = s
                    break
            if found is None:
                raise TreeError(f"(H1) violated along edge {v}->{t}")
            chosen[t] = found
            stack.append(t)

    # vertices above v: left cosets of chosen[v]
    def cosets(H: frozenset):
        seen = set()
        out = []
        for g in range(G.n):
            c = frozenset(G.mul(g, x) for x in H)
            if c not in seen:
                seen.add(c)
                out.append(c)
        return out

    vertices: List[Tuple[int, frozenset]] = []
    index: Dict[Tuple[int, frozenset], int] = {}
    for v in order:
        for c in cosets(chosen[v]):
            index[(v, c)] = len(vertices)
            vertices.append((v, c))
    edges = []
    for e_idx, (s, t, eps) in enumerate(T.edges):
        for c in cosets(chosen[t]):
            # the parent coset is the one containing c
            rep = min(c)
            parent = frozenset(G.mul(rep, x) for x in chosen[s])
            edges.append((index[(s, parent)], index[(t, c)], eps))
    stab = {}
    base_of = {}
    for vid, (v, c) in enumerate(vertices):
        rep = min(c)
        H = frozenset(G.mul(G.mul(rep, x), G.inv(rep)) for x in chosen[v])
        stab[vid] = H
        base_of[vid] = v
    return LiftedTree(vertices=vertices, edges=edges, stabilizer=stab,
                      base_of=base_of)


def lift_quotient_matches(lift: LiftedTree, T: RootedMetricTree,
                          G: FiniteGroup,
                          monodromy: Dict[int, SubgroupClass]) -> bool:
    """The G-orbits of the lift recover T with stabilizer classes [G_v]."""
    orbits: Dict[int, set] = {}
    for vid, (v, c) in enumerate(lift.vertices):
        orbits.setdefault(v, set()).add(vid)
    for v in T.vertices:
        vids = orbits[v]
        # orbit size = index of the monodromy group
        if len(vids) != G.n // monodromy[v].order:
            return False
        for vid in vids:
            stab_cls = subgroup_class_of(G, lift.stabilizer[vid])
            if stab_cls.class_id != monodromy[v].class_id:
                return False
    # edge multiset over orbits matches
    quotient_edges = {}
    for (a, b, eps) in lift.edges:
        key = (lift.base_of[a], lift.base_of[b], eps)
        quotient_edges[key] = quotient_edges.get(key, 0) + 1
    for s, t, eps in T.edges:
        if (s, t, eps) not in quotient_edges:
            return False
    return True


# -- canonical form --

def canonical_code(T: RootedMetricTree,
                   monodromy: Dict[int, SubgroupClass]) -> tuple:
    """Canonical encoding of (T, [G_v]) up to isomorphism of decorated
    rooted metric trees."""

    def code(v: int) -> tuple:
        kids = []
        for e in T.children_edges(v):
            _, t, eps = T.edges[e]
            kids.append((monodromy[t].class_id, eps, code(t)))
        return tuple(sorted(kids))

    return (monodromy[T.root].class_id, code(T.root))
