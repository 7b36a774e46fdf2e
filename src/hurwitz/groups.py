"""Cayley-table engine for finite groups of order <= 256.

Element ids are canonical: elements are sorted by (order, shortest generator
word), so the identity is always id 0 and all tie-breaks elsewhere in the
package ("least witness") resolve deterministically.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass, field
from math import gcd, isqrt, lcm
from typing import Optional, Sequence

MAX_ORDER = 256


class GroupError(ValueError):
    pass


def is_prime(n) -> bool:
    return (isinstance(n, int) and n >= 2
            and all(n % d for d in range(2, isqrt(n) + 1)))


def valuation(n: int, p: int) -> int:
    """Exponent of p in the nonzero integer n."""
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


class FiniteGroup:
    def __init__(self, table: Sequence[Sequence[int]], names=None,
                 generators=None, canonicalize: bool = True):
        n = len(table)
        if n > MAX_ORDER:
            raise GroupError(f"group order {n} exceeds bound {MAX_ORDER}")
        self.table = [list(row) for row in table]
        self.n = n
        self.names = list(names) if names else [f"g{i}" for i in range(n)]
        self.generators = list(generators) if generators else list(range(n))
        self._identity = self._find_identity()
        self.inverse = self._build_inverses()
        self.order_of = [self._element_order(g) for g in range(n)]
        if canonicalize:
            self._canonicalize()
        self._classes = None
        self._class_of = None
        self._subgroup_cache = {}

    # -- construction helpers --

    def _find_identity(self) -> int:
        for e in range(self.n):
            if all(self.table[e][x] == x and self.table[x][e] == x
                   for x in range(self.n)):
                return e
        raise GroupError("no identity element in table")

    def _build_inverses(self):
        inv = [None] * self.n
        e = self._identity
        for a in range(self.n):
            for b in range(self.n):
                if self.table[a][b] == e:
                    inv[a] = b
                    break
            if inv[a] is None or self.table[inv[a]][a] != e:
                raise GroupError(f"element {a} has no two-sided inverse")
        return inv

    def _element_order(self, g: int) -> int:
        e, x, k = self._identity, g, 1
        while x != e:
            x = self.table[x][g]
            k += 1
            if k > self.n:
                raise GroupError("order computation diverged")
        if self.n % k:
            raise GroupError(f"order of element {g} does not divide |G|")
        return k

    def _canonicalize(self):
        """Relabel ids by (order, shortest generator word)."""
        words = self._generator_words()
        key = sorted(range(self.n),
                     key=lambda g: (self.order_of[g], len(words[g]), words[g]))
        pos = [0] * self.n
        for new, old in enumerate(key):
            pos[old] = new
        self.table = [[pos[self.table[key[a]][key[b]]] for b in range(self.n)]
                      for a in range(self.n)]
        self.names = [words[key[g]] or "1" for g in range(self.n)]
        self.generators = sorted({pos[g] for g in self.generators})
        self.inverse = [pos[self.inverse[key[g]]] for g in range(self.n)]
        self.order_of = [self.order_of[key[g]] for g in range(self.n)]
        self._identity = pos[self._identity]
        assert self._identity == 0

    def _generator_words(self):
        """BFS shortest words in the generators, as display strings."""
        words = [None] * self.n
        words[self._identity] = ""
        frontier = [self._identity]
        gens = [g for g in self.generators if g != self._identity]
        while frontier:
            nxt = []
            for x in frontier:
                for g in gens:
                    y = self.table[x][g]
                    if words[y] is None:
                        words[y] = self._append_word(words[x], g)
                        nxt.append(y)
            frontier = nxt
        for g in range(self.n):
            if words[g] is None:  # generators do not generate: fall back to ids
                words[g] = f"#{g}"
        return words

    def _append_word(self, word: str, g: int) -> str:
        gname = self.names[g]
        if not word:
            return gname
        parts = word.split("*")
        base, _, exp = parts[-1].partition("^")
        if base == gname:
            k = int(exp or 1) + 1
            parts[-1] = f"{base}^{k}"
            return "*".join(parts)
        return word + "*" + gname

    # -- basic API --

    @property
    def identity(self) -> int:
        return self._identity

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def inv(self, a: int) -> int:
        return self.inverse[a]

    def conj(self, g: int, x: int) -> int:
        """g x g^-1."""
        return self.table[self.table[g][x]][self.inverse[g]]

    def power(self, g: int, k: int) -> int:
        if k < 0:
            g, k = self.inverse[g], -k
        x = self._identity
        for _ in range(k % self.order_of[g] if g != self._identity else 0):
            x = self.table[x][g]
        return x

    def exponent(self) -> int:
        return lcm(*self.order_of) if self.n > 1 else 1

    def element_by_name(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise GroupError(f"unknown element name {name!r}") from None

    # -- conjugacy classes --

    def conjugacy_classes(self):
        """Partition of ids, identity class first, ordered by least member."""
        if self._classes is None:
            seen = [False] * self.n
            classes = []
            for x in range(self.n):
                if seen[x]:
                    continue
                orbit = sorted({self.conj(g, x) for g in range(self.n)})
                for y in orbit:
                    seen[y] = True
                classes.append(orbit)
            classes.sort(key=lambda c: c[0])
            self._classes = classes
            self._class_of = [None] * self.n
            for i, c in enumerate(classes):
                for y in c:
                    self._class_of[y] = i
        return self._classes

    def class_of(self, g: int) -> int:
        self.conjugacy_classes()
        return self._class_of[g]

    def class_reps(self):
        return [c[0] for c in self.conjugacy_classes()]

    def inverse_class(self, i: int) -> int:
        return self.class_of(self.inverse[self.conjugacy_classes()[i][0]])

    # -- subgroups of element sets --

    def closure(self, gens) -> frozenset:
        """Subgroup generated by gens: a right-multiplication BFS from the
        identity that multiplies each new element once by every generator
        (in a finite group the words in gens already form a subgroup)."""
        gens = list(gens)
        elems = {self._identity}
        queue = [self._identity]
        for x in queue:
            row = self.table[x]
            for g in gens:
                y = row[g]
                if y not in elems:
                    elems.add(y)
                    queue.append(y)
        return frozenset(elems)

    def is_subgroup(self, elems) -> bool:
        s = set(elems)
        if self._identity not in s:
            return False
        return all(self.table[a][b] in s for a in s for b in s)

    def is_normal(self, elems) -> bool:
        s = set(elems)
        return self.is_subgroup(s) and all(
            self.conj(g, x) in s for g in range(self.n) for x in s)

    def conjugate_set(self, g: int, elems) -> frozenset:
        return frozenset(self.conj(g, x) for x in elems)

    def center(self) -> frozenset:
        return frozenset(x for x in range(self.n)
                         if all(self.table[x][g] == self.table[g][x]
                                for g in range(self.n)))

    def __repr__(self):
        return f"FiniteGroup(order={self.n})"


@dataclass(frozen=True)
class SubgroupClass:
    """Conjugacy class of subgroups, with a fixed representative."""
    group: FiniteGroup = field(compare=False)
    rep: tuple  # sorted element ids of the representative
    class_id: int
    order: int
    is_cyclic: bool
    generator: Optional[int]  # a generator of rep, if cyclic

    def conjugates(self):
        G = self.group
        seen = set()
        out = []
        for g in range(G.n):
            s = G.conjugate_set(g, self.rep)
            if s not in seen:
                seen.add(s)
                out.append((g, s))
        return out

    def name(self) -> str:
        G = self.group
        if self.order == G.n:
            return "G"
        if self.order == 1:
            return "1"
        if self.is_cyclic:
            return f"<{G.names[self.generator]}>"
        gens = minimal_generating_set(G, self.rep)
        return "<" + ",".join(G.names[g] for g in gens) + ">"

    def as_group(self):
        """(H, embed) with embed[i] the G-id of H's element i."""
        return subgroup_as_group(self.group, self.rep)

    def sylow(self, p: int) -> "SubgroupClass":
        return sylow_p_of_cyclic(self, p)


def minimal_generating_set(G: FiniteGroup, elems) -> tuple:
    elems = sorted(elems)
    for k in range(1, len(elems) + 1):
        for combo in itertools.combinations(elems, k):
            if G.closure(combo) == frozenset(elems):
                return combo
    return tuple(elems)


def subgroup_as_group(G: FiniteGroup, elems):
    embed = sorted(elems)
    index = {g: i for i, g in enumerate(embed)}
    table = [[index[G.table[a][b]] for b in embed] for a in embed]
    H = FiniteGroup(table, names=[G.names[g] for g in embed],
                    canonicalize=False)
    return H, embed


def per_group(G: FiniteGroup, key, make):
    """make(), computed once per group and kept under key in its
    _subgroup_cache: the subgroup lattice ("all"), the character table and
    every other value that depends on G alone."""
    cache = G._subgroup_cache
    if key not in cache:
        cache[key] = make()
    return cache[key]


# -- subgroup enumeration --

def _class_reps(G: FiniteGroup):
    """One representative, the least conjugate under `sorted`, of every
    conjugacy class of subgroups, by cyclic extension (Neubueser 1960).

    A subgroup <g1,...,gk> is conjugate to <H, g> for H the representative
    of <g1,...,g(k-1)>'s class and some g, so extending every
    representative by one element at a time reaches every class."""
    trivial = frozenset({G.identity})
    seen = {trivial}           # every subgroup met so far, with its conjugates
    reps = [(trivial, ())]     # (representative, generators), grows below
    for H, gens in reps:
        done = set(H)
        for g in range(G.n):
            if g in done:
                continue
            # <H, hg> = <H, g>: one extension per right coset of H
            done.update(G.table[h][g] for h in H)
            K = G.closure(gens + (g,))
            if K in seen:
                continue
            orbit = {}
            for c in range(G.n):
                orbit.setdefault(G.conjugate_set(c, K), c)
            seen.update(orbit)
            rep = min(orbit, key=sorted)
            c = orbit[rep]
            reps.append((rep, tuple(G.conj(c, x) for x in gens + (g,))))
    return [rep for rep, _ in reps]


def _classify(G: FiniteGroup, reps):
    """SubgroupClass list from pairwise non-conjugate representatives:
    class ids by (order, sorted elements), cyclic generators least first."""
    out = []
    ordered = sorted((sorted(s) for s in reps), key=lambda r: (len(r), r))
    for cid, rep in enumerate(ordered):
        gen = next((g for g in rep if G.order_of[g] == len(rep)), None)
        out.append(SubgroupClass(group=G, rep=tuple(rep), class_id=cid,
                                 order=len(rep), is_cyclic=gen is not None,
                                 generator=gen))
    return out


def subgroup_classes(G: FiniteGroup, cyclic_only: bool = False,
                     nontrivial_only: bool = False):
    """Conjugacy classes of subgroups; class_id is canonical (assigned on
    the full lattice regardless of the filters)."""
    return [C for C in per_group(G, "all",
                                 lambda: _classify(G, _class_reps(G)))
            if (not cyclic_only or C.is_cyclic)
            and (not nontrivial_only or C.order > 1)]


def subgroup_class_of(G: FiniteGroup, elems) -> SubgroupClass:
    """The SubgroupClass whose class contains the given subgroup."""
    s = frozenset(elems)
    if not G.is_subgroup(s):
        raise GroupError("element set is not a subgroup")
    for cls in subgroup_classes(G):
        if len(cls.rep) == len(s) and any(
                G.conjugate_set(g, s) == frozenset(cls.rep)
                for g in range(G.n)):
            return cls
    raise GroupError("subgroup not found in enumeration")


def contained_up_to_conjugacy(H: SubgroupClass, K: SubgroupClass):
    """Least g with g H g^-1 inside K's representative, or None."""
    if H.group is not K.group:
        raise GroupError("subgroup classes from different groups")
    G = H.group
    krep = set(K.rep)
    if K.order % H.order:
        return None
    for g in range(G.n):
        if all(G.conj(g, x) in krep for x in H.rep):
            return g
    return None


def sylow_p_of_cyclic(C: SubgroupClass, p: int) -> SubgroupClass:
    if not C.is_cyclic:
        raise GroupError("Sylow extraction requires a cyclic subgroup")
    if not is_prime(p):
        raise GroupError(f"p = {p} is not a prime")
    G = C.group
    pk = p ** valuation(C.order, p)
    g = G.power(C.generator, C.order // pk) if C.generator is not None \
        else G.identity
    return subgroup_class_of(G, G.closure([g]))


# -- quotients --

def quotient(G: FiniteGroup, normal_elems):
    """(Q, proj) where proj[g] is the Q-id of the coset of g."""
    N = frozenset(normal_elems)
    if not G.is_normal(N):
        raise GroupError("subgroup is not normal")
    cosets = []
    coset_of = [None] * G.n
    for g in range(G.n):
        if coset_of[g] is None:
            c = frozenset(G.table[g][x] for x in N)
            idx = len(cosets)
            cosets.append(c)
            for y in c:
                coset_of[y] = idx
    k = len(cosets)
    reps = [min(c) for c in cosets]
    table = [[coset_of[G.table[reps[a]][reps[b]]] for b in range(k)]
             for a in range(k)]
    names = [G.names[r] for r in reps]
    gens = sorted({coset_of[g] for g in G.generators})
    Q = FiniteGroup(table, names=names, generators=gens, canonicalize=False)
    proj = coset_of
    # verify the projection is a homomorphism on all pairs
    for a in range(G.n):
        for b in range(G.n):
            if proj[G.table[a][b]] != Q.table[proj[a]][proj[b]]:
                raise GroupError("quotient projection is not a homomorphism")
    return Q, proj


# -- builders --

def _from_law(identity, mul, gens) -> FiniteGroup:
    """The group generated by gens, a list of (element, name) pairs, under
    the multiplication mul of hashable normal forms. Only the generators
    are named: canonicalization names every element by its shortest word.
    Raw ids follow the sorted normal forms, which orders elements whose
    words tie (two generators of one name)."""
    seen = {identity}
    queue = [identity]
    for x in queue:
        for g, _ in gens:
            y = mul(x, g)
            if y not in seen:
                if len(seen) >= MAX_ORDER:
                    raise GroupError("order bound exceeded")
                seen.add(y)
                queue.append(y)
    elems = sorted(seen)
    index = {x: i for i, x in enumerate(elems)}
    table = [[index[mul(a, b)] for b in elems] for a in elems]
    names = [None] * len(elems)
    for g, name in gens:
        names[index[g]] = name
    names[index[identity]] = "1"
    return FiniteGroup(table, names=names,
                       generators=[index[g] for g, _ in gens])


def cyclic(n: int) -> FiniteGroup:
    if n < 1 or n > MAX_ORDER:
        raise GroupError(f"cyclic order {n} out of range")
    return _from_law(0, lambda a, b: (a + b) % n, [(1 % n, "s")])


def dihedral(n: int) -> FiniteGroup:
    """Dihedral group of order 2n (symmetries of the n-gon)."""
    if n < 1 or 2 * n > MAX_ORDER:
        raise GroupError("dihedral parameter out of range")

    def mul(x, y):
        # r^a f^b with f r f = r^-1
        (a, b), (c, d) = x, y
        return ((a - c if b else a + c) % n, (b + d) % 2)

    return _from_law((0, 0), mul, [((1 % n, 0), "r"), ((0, 1), "f")])


def generalized_quaternion(n: int) -> FiniteGroup:
    """Q_{2^(n+1)}: tau^(2^n) = 1, tau^(2^(n-1)) = sigma^2,
    sigma tau sigma^-1 = tau^-1."""
    if n < 2:
        raise GroupError("generalized quaternion requires n >= 2")
    N = 2 ** n
    if 2 * N > MAX_ORDER:
        raise GroupError("order bound exceeded")
    half = N // 2

    def mul(x, y):
        # tau^a sigma^b; tau^a sigma tau^c sigma^d = tau^(a-c) sigma^(1+d)
        (a, b), (c, d) = x, y
        if not b:
            return ((a + c) % N, d)
        if not d:
            return ((a - c) % N, 1)
        return ((a - c + half) % N, 0)

    G = _from_law((0, 0), mul, [((1, 0), "tau"), ((0, 1), "sigma")])
    # verify the presentation relations element-wise
    tau = G.element_by_name("tau")
    sigma = G.element_by_name("sigma")
    if G.power(tau, N) != G.identity:
        raise GroupError("relation tau^(2^n) = 1 violated")
    if G.power(tau, half) != G.power(sigma, 2):
        raise GroupError("relation tau^(2^(n-1)) = sigma^2 violated")
    if G.conj(sigma, tau) != G.inverse[tau]:
        raise GroupError("relation sigma tau sigma^-1 = tau^-1 violated")
    return G


def elementary_abelian(p: int, k: int) -> FiniteGroup:
    if not isinstance(k, int) or k < 0 or p ** k > MAX_ORDER:
        raise GroupError("order bound exceeded")
    if not is_prime(p):
        raise GroupError(f"p = {p} is not a prime")
    return _from_law(
        (0,) * k, lambda x, y: tuple((a + b) % p for a, b in zip(x, y)),
        [(tuple(int(i == j) for j in range(k)), f"e{i + 1}")
         for i in range(k)])


def direct_product(G: FiniteGroup, H: FiniteGroup) -> FiniteGroup:
    """G x H; each generator name of H is primed until it is no name of G
    and no name given before it."""
    if G.n * H.n > MAX_ORDER:
        raise GroupError("order bound exceeded")
    taken = set(G.names)
    gens = [((g, H.identity), G.names[g]) for g in G.generators]
    for h in H.generators:
        name = H.names[h] + "'"
        while name in taken:
            name += "'"
        taken.add(name)
        gens.append(((G.identity, h), name))
    return _from_law(
        (G.identity, H.identity),
        lambda x, y: (G.table[x[0]][y[0]], H.table[x[1]][y[1]]), gens)


def semidirect_metacyclic(pm: int, mprime: int, action: int) -> FiniteGroup:
    """Z/pm x| Z/mprime, with t s t^-1 = s^action."""
    if pow(action, mprime, pm) != 1 % pm or gcd(action, pm) != 1:
        raise GroupError("action must have order dividing mprime mod pm")
    if pm * mprime > MAX_ORDER:
        raise GroupError("order bound exceeded")

    def mul(x, y):
        # (s^a t^b)(s^c t^d) = s^(a + c*action^b) t^(b+d)
        (a, b), (c, d) = x, y
        return ((a + c * pow(action, b, pm)) % pm, (b + d) % mprime)

    return _from_law((0, 0), mul,
                     [((1 % pm, 0), "s"), ((0, 1 % mprime), "t")])


def from_permutations(perms) -> FiniteGroup:
    """Group generated by permutations given as image lists; the product
    ab applies a first."""
    if not perms:
        raise GroupError("need at least one permutation")
    deg = len(perms[0])
    for p in perms:
        if sorted(p) != list(range(deg)):
            raise GroupError("not a permutation")
    return _from_law(tuple(range(deg)), lambda a, b: tuple(b[i] for i in a),
                     [(tuple(p), f"a{j + 1}") for j, p in enumerate(perms)])


def build_group(spec: dict) -> FiniteGroup:
    """Build from a JSON-shaped description (the group file format)."""
    if not isinstance(spec, dict):
        raise GroupError(f"a group description must be an object: {spec!r}")
    if "permutations" in spec:
        return from_permutations(spec["permutations"])
    builder = spec.get("builder")
    params = spec.get("params", {})
    if builder == "cyclic":
        return cyclic(params["n"])
    if builder == "dihedral":
        return dihedral(params["n"])
    if builder == "generalized_quaternion":
        return generalized_quaternion(params["n"])
    if builder == "elementary_abelian":
        return elementary_abelian(params["p"], params["k"])
    if builder == "direct_product":
        factors = [build_group(f) for f in spec["factors"]]
        if not factors:
            raise GroupError("direct_product needs at least one factor")
        G = factors[0]
        for H in factors[1:]:
            G = direct_product(G, H)
        return G
    if builder == "semidirect_metacyclic":
        return semidirect_metacyclic(params["pm"], params["mprime"],
                                     params["action"])
    raise GroupError(f"unknown builder {builder!r}")


def extend_from_generators(G: FiniteGroup, images, identity, compose, equal):
    """Extend images, a dict {generator id: image}, to a list over all of G:
    a breadth-first walk of the right Cayley graph from the identity, where
    the image of x*s is compose(image of x, image of s). Raises GroupError
    when two walks to one element disagree under equal, or when the
    generators miss an element."""
    out = [None] * G.n
    out[G.identity] = identity
    queue = [G.identity]
    for x in queue:
        for s, image in images.items():
            y = G.table[x][s]
            cand = compose(out[x], image)
            if out[y] is None:
                out[y] = cand
                queue.append(y)
            elif not equal(out[y], cand):
                raise GroupError(
                    "generator images do not satisfy the group relations")
    if len(queue) < G.n:
        raise GroupError("the named generators do not generate the group")
    return out


def find_isomorphism(G: FiniteGroup, H: FiniteGroup):
    """Brute-force isomorphism for small groups, as a list of H-ids
    indexed by G-ids, or None."""
    if G.n != H.n or sorted(G.order_of) != sorted(H.order_of):
        return None
    gens = minimal_generating_set(G, range(G.n))
    candidates = [[h for h in range(H.n) if H.order_of[h] == G.order_of[g]]
                  for g in gens]
    for images in itertools.product(*candidates):
        try:
            phi = extend_from_generators(G, dict(zip(gens, images)),
                                         H.identity, H.mul, operator.eq)
        except GroupError:
            continue
        if len(set(phi)) == G.n and all(
                phi[G.table[a][b]] == H.table[phi[a]][phi[b]]
                for a in range(G.n) for b in range(G.n)):
            return phi
    return None
