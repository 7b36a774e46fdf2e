"""Exact class-function calculus: inner products, induction/restriction,
character tables (Dixon's modular method), positivity cones and the
multiplicative ramification character of a cyclic p-group.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional, Sequence, Union

from .cyclotomic import Cyclotomic
from .groups import FiniteGroup, GroupError, SubgroupClass, cyclic, \
    is_prime, subgroup_as_group

Rat = Union[int, Fraction]


class CharacterError(ValueError):
    pass


def _cy(x) -> Cyclotomic:
    if isinstance(x, Cyclotomic):
        return x
    return Cyclotomic.from_rational(x)


class ClassFunction:
    """Cyclotomic-valued class function on a finite group, one value per
    conjugacy class."""

    __slots__ = ("group", "values")

    def __init__(self, group: FiniteGroup, values: Sequence):
        classes = group.conjugacy_classes()
        if len(values) != len(classes):
            raise CharacterError("one value per conjugacy class required")
        self.group = group
        self.values = tuple(_cy(v) for v in values)

    @staticmethod
    def from_element_values(group: FiniteGroup, elem_values) -> "ClassFunction":
        """Build from per-element values, verifying class constancy."""
        classes = group.conjugacy_classes()
        vals = []
        for c in classes:
            v = _cy(elem_values[c[0]])
            for x in c[1:]:
                if _cy(elem_values[x]) != v:
                    raise CharacterError(
                        f"values not constant on the class of element {c[0]}")
            vals.append(v)
        return ClassFunction(group, vals)

    def at(self, g: int) -> Cyclotomic:
        return self.values[self.group.class_of(g)]

    def degree(self) -> Cyclotomic:
        return self.values[0]

    # -- arithmetic --

    def _same(self, other: "ClassFunction"):
        if self.group is not other.group:
            raise CharacterError("class functions on different groups")

    def __add__(self, other):
        self._same(other)
        return ClassFunction(self.group,
                             [a + b for a, b in zip(self.values, other.values)])

    def __sub__(self, other):
        self._same(other)
        return ClassFunction(self.group,
                             [a - b for a, b in zip(self.values, other.values)])

    def __neg__(self):
        return ClassFunction(self.group, [-a for a in self.values])

    def __mul__(self, scalar):
        return ClassFunction(self.group, [v * scalar for v in self.values])

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, ClassFunction):
            return NotImplemented
        return self.group is other.group and all(
            a == b for a, b in zip(self.values, other.values))

    def __hash__(self):
        return hash((id(self.group), self.values))

    def is_zero(self) -> bool:
        return all(v.is_zero() for v in self.values)

    def is_rational_valued(self) -> bool:
        return all(v.is_rational() for v in self.values)

    def is_conjugation_symmetric(self) -> bool:
        """Value at the inverse class equals the complex conjugate value."""
        G = self.group
        return all(self.values[G.inverse_class(i)] == self.values[i].conj()
                   for i in range(len(self.values)))

    def __repr__(self):
        return f"ClassFunction({list(self.values)})"


def inner_product(f: ClassFunction, g: ClassFunction) -> Cyclotomic:
    """|G|^-1 sum_sigma conj(f(sigma)) g(sigma), computed classwise."""
    if f.group is not g.group:
        raise CharacterError("class functions on different groups")
    G = f.group
    total = Cyclotomic.from_rational(0)
    for size, a, b in zip((len(c) for c in G.conjugacy_classes()),
                          f.values, g.values):
        total = total + size * (a.conj() * b)
    return total * Fraction(1, G.n)


def pair(psi: ClassFunction, f: ClassFunction) -> Fraction:
    """f(psi) := <psi, f>, asserted rational."""
    v = inner_product(psi, f)
    return v.to_fraction()


# -- standard characters --

def one_char(G: FiniteGroup) -> ClassFunction:
    return ClassFunction(G, [1] * len(G.conjugacy_classes()))


def regular_char(G: FiniteGroup) -> ClassFunction:
    vals = [0] * len(G.conjugacy_classes())
    vals[0] = G.n
    return ClassFunction(G, vals)


def augmentation_char(G: FiniteGroup) -> ClassFunction:
    return regular_char(G) - one_char(G)


# -- restriction / induction / inflation --

def restrict(chi: ClassFunction, H: FiniteGroup, embed: Sequence[int]
             ) -> ClassFunction:
    """Restriction along the embedding H -> G given by id map `embed`."""
    return ClassFunction.from_element_values(
        H, [chi.at(embed[h]) for h in range(H.n)])


def induce(chi: ClassFunction, G: FiniteGroup, embed: Sequence[int]
           ) -> ClassFunction:
    """Induction from the subgroup with elements embed (an H-id -> G-id map)."""
    if chi.group.n != len(embed):
        raise CharacterError("embedding does not match the subgroup")
    image = {g: h for h, g in enumerate(embed)}
    inv_order = Fraction(1, chi.group.n)
    vals = []
    for rep in G.class_reps():
        total = Cyclotomic.from_rational(0)
        for x in range(G.n):
            y = G.mul(G.mul(G.inv(x), rep), x)
            if y in image:
                total = total + chi.values[chi.group.class_of(image[y])]
        vals.append(total * inv_order)
    return ClassFunction(G, vals)


def induce_from_class(chi: ClassFunction, C: SubgroupClass) -> ClassFunction:
    H, embed = C.as_group()
    if chi.group is not H:
        raise CharacterError("character not on the class representative")
    return induce(chi, C.group, embed)


def restrict_to_class(chi: ClassFunction, C: SubgroupClass) -> ClassFunction:
    H, embed = C.as_group()
    return restrict(chi, H, embed)


def u_star(C: SubgroupClass) -> ClassFunction:
    """Induced augmentation character u_H^* of a subgroup class."""
    H, embed = C.as_group()
    return induce(augmentation_char(H), C.group, embed)


def inflate(chi: ClassFunction, G: FiniteGroup, proj: Sequence[int]
            ) -> ClassFunction:
    """Inflation along the quotient projection G -> Q."""
    return ClassFunction.from_element_values(
        G, [chi.at(proj[g]) for g in range(G.n)])


# -- the multiplicative ramification character --

def delta_mult(p: int, m: int) -> ClassFunction:
    """Depth character of a single-fixed-point order-p^m action, as a
    rational class function on the cyclic group of order p^m."""
    if not is_prime(p):
        raise CharacterError(f"p = {p} is not a prime")
    if m < 0:
        raise CharacterError("m must be nonnegative")
    G = cyclic(p ** m)
    return delta_mult_on(G, G.element_by_name("s") if p ** m > 1 else 0, p, m)


def delta_mult_on(G: FiniteGroup, gen: int, p: int, m: int) -> ClassFunction:
    """delta^mult on a cyclic group of order p^m with chosen generator."""
    n = p ** m
    if G.n != n:
        raise CharacterError("group order does not match p^m")
    vals = [Fraction(0)] * G.n
    total = Fraction(0)
    for a in range(1, n):
        ga = G.power(gen, a)
        i = _ord_p(a, p)
        v = Fraction(-(p ** (i + 1)), p - 1)
        vals[ga] = v
        total += v
    vals[G.identity] = -total
    if n > 1:
        assert vals[G.identity] == m * n
    return ClassFunction.from_element_values(G, vals)


def delta_mult_star(C: SubgroupClass, p: int) -> ClassFunction:
    """(delta^mult_{P})^* on G, where P is the Sylow p-part of the cyclic
    subgroup class C."""
    if not is_prime(p):
        raise CharacterError(f"p = {p} is not a prime")
    P = C.sylow(p)
    H, embed = P.as_group()
    m = _ord_p_order(P.order, p)
    gen_h = 0 if P.order == 1 else \
        next(h for h in range(H.n) if H.order_of[h] == P.order)
    d = delta_mult_on(H, gen_h, p, m)
    return induce(d, C.group, embed)


def _ord_p(a: int, p: int) -> int:
    i = 0
    while a % p == 0:
        a //= p
        i += 1
    return i


def _ord_p_order(n: int, p: int) -> int:
    m = 0
    while n % p == 0:
        n //= p
        m += 1
    if n != 1:
        raise CharacterError("subgroup order is not a p-power")
    return m


# -- character table (Dixon's modular method) --

def character_table(G: FiniteGroup):
    """Complete list of irreducible characters, exact cyclotomic values.

    Works modulo a prime q = 1 (mod exponent(G)), splits the common
    eigenspaces of the class-multiplication matrices, and lifts eigenvalues
    to cyclotomics through discrete logarithms of roots of unity mod q.
    Every eigenspace basis is kept in reduced row echelon form.
    """
    if G._char_table is not None:
        return G._char_table
    classes = G.conjugacy_classes()
    k = len(classes)
    e = G.exponent()
    q = _lifting_prime(G.n, e)
    mats = _class_matrices(G, q)
    spaces = [([[int(i == j) for j in range(k)] for i in range(k)],
               list(range(k)))]
    for M in mats[1:]:
        nxt = []
        for space in spaces:
            if len(space[0]) == 1:
                nxt.append(space)
                continue
            nxt.extend(_split_space(space, M, q))
        spaces = nxt
        if all(len(b) == 1 for b, _ in spaces):
            break
    if not all(len(b) == 1 for b, _ in spaces):
        raise CharacterError("eigenspace splitting incomplete")
    inv_cls = [G.inverse_class(i) for i in range(k)]
    sizes = [len(c) for c in classes]
    z = _primitive_root_of_unity(q, e)
    chars = []
    for (vec,), _ in spaces:
        if vec[0] == 0:
            raise CharacterError("degenerate eigenvector")
        inv0 = pow(vec[0], q - 2, q)
        omega = [v * inv0 % q for v in vec]
        t = 0
        for j in range(k):
            t = (t + omega[j] * omega[inv_cls[j]] *
                 pow(sizes[j], q - 2, q)) % q
        d2 = G.n * pow(t, q - 2, q) % q
        # q > 2 sqrt(n) n, so the degree d <= sqrt(n) is fixed by d^2 mod q
        d = next((d for d in range(1, math.isqrt(G.n) + 1)
                  if d * d % q == d2), None)
        if d is None:
            raise CharacterError("degree lifting failed")
        x = [d * omega[j] * pow(sizes[j], q - 2, q) % q for j in range(k)]
        chars.append(_lift_character(G, x, d, z, e, q))
    total = sum(int(c.degree().to_fraction()) ** 2 for c in chars)
    if total != G.n or len(chars) != k:
        raise CharacterError("character table reconstruction failed")
    chars.sort(key=lambda c: (c.degree().to_fraction(),
                              [(v.n, v.coeffs) for v in c.values]))
    G._char_table = chars
    return chars


def _lift_character(G, xmod, degree, z, e, q):
    classes = G.conjugacy_classes()
    vals = []
    for i, c in enumerate(classes):
        rep = c[0]
        o = G.order_of[rep]
        zo = pow(z, e // o, q)
        inv_o = pow(o, q - 2, q)
        xpow = []
        g = G.identity
        for _ in range(o):
            xpow.append(xmod[G.class_of(g)])
            g = G.mul(g, rep)
        zpow = [1] * o
        for s in range(1, o):
            zpow[s] = zpow[s - 1] * zo % q
        coeffs = []
        for t in range(o):
            m = 0
            for s in range(o):
                m = (m + xpow[s] * zpow[(-t * s) % o]) % q
            m = m * inv_o % q
            if m > degree:
                raise CharacterError("multiplicity lifting failed")
            coeffs.append(m)
        val = Cyclotomic(o, [Fraction(m) for m in coeffs]) if o > 1 \
            else Cyclotomic.from_rational(coeffs[0])
        vals.append(val)
    return ClassFunction(G, vals)


def _lifting_prime(n: int, e: int) -> int:
    """The least prime q = 1 (mod e) above 2 sqrt(n) n."""
    q = max(1, -(-2 * math.isqrt(n) * n // e)) * e + 1
    while not is_prime(q):
        q += e
    return q


def _class_matrices(G: FiniteGroup, q: int):
    classes = G.conjugacy_classes()
    k = len(classes)
    reps = [c[0] for c in classes]
    mats = []
    for i in range(k):
        # M[j][l] = a_{ijl} with C_i C_j = sum_l a_{ijl} C_l, so that the
        # omega-vectors are eigenvectors: (M omega)_j = omega_i omega_j.
        M = [[0] * k for _ in range(k)]
        for l in range(k):
            gl = reps[l]
            for x in classes[i]:
                j = G.class_of(G.mul(G.inv(x), gl))
                M[j][l] = (M[j][l] + 1) % q
        mats.append(M)
    return mats


def _rref_mod(rows, q):
    """Reduced row echelon form over F_q: (nonzero rows, pivot columns)."""
    rows = list(rows)
    pivots = []
    for c in range(len(rows[0]) if rows else 0):
        r = len(pivots)
        pr = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        inv = pow(rows[r][c], q - 2, q)
        rows[r] = [x * inv % q for x in rows[r]]
        for i in range(len(rows)):
            f = rows[i][c]
            if i != r and f:
                rows[i] = [(x - f * y) % q for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
    return rows[:len(pivots)], pivots


def _split_space(space, M, q):
    """Split an M-invariant subspace, given as (echelon basis, pivots),
    into the eigenspaces of M, each again in echelon form."""
    basis, pivots = space
    d = len(basis)
    # R[i][j]: M b_i = sum_j R[i][j] b_j, read off at the pivot columns
    R = []
    for b in basis:
        w = [sum(x * y for x, y in zip(row, b)) % q for row in M]
        coords = [w[p] for p in pivots]
        if w != _combine(coords, basis, q):
            raise CharacterError("class matrix does not preserve subspace")
        R.append(coords)
    # transpose to act on coordinates
    A = [list(col) for col in zip(*R)]
    out = []
    for lam in _roots_mod(_charpoly_mod(A, q), q):
        rows, piv = _rref_mod(
            [[(A[i][j] - (lam if i == j else 0)) % q for j in range(d)]
             for i in range(d)], q)
        vecs = []
        for fc in (c for c in range(d) if c not in piv):
            coords = [0] * d
            coords[fc] = 1
            for row, pc in zip(rows, piv):
                coords[pc] = -row[fc] % q
            vecs.append(_combine(coords, basis, q))
        if vecs:
            out.append(_rref_mod(vecs, q))
    if sum(len(b) for b, _ in out) != d:
        raise CharacterError("eigen splitting lost dimensions")
    return out


def _combine(coords, basis, q):
    """sum_j coords[j] basis[j] over F_q."""
    return [sum(c * x for c, x in zip(coords, col)) % q
            for col in zip(*basis)]


def _charpoly_mod(A, q):
    """det(xI - A) over F_q, lowest degree first: A is reduced to upper
    Hessenberg form H by similarity, then det(xI - H) is expanded along the
    subdiagonal (Cohen, A Course in Computational Algebraic Number Theory,
    Alg. 2.2.9)."""
    H = [row[:] for row in A]
    d = len(H)
    for m in range(1, d - 1):
        i = next((i for i in range(m, d) if H[i][m - 1]), None)
        if i is None:
            continue    # column m - 1 is already zero below the subdiagonal
        if i != m:
            H[i], H[m] = H[m], H[i]
            for row in H:
                row[i], row[m] = row[m], row[i]
        inv = pow(H[m][m - 1], q - 2, q)
        for i in range(m + 1, d):
            u = H[i][m - 1] * inv % q
            if u:
                H[i] = [(x - u * y) % q for x, y in zip(H[i], H[m])]
                for row in H:
                    row[m] = (row[m] + u * row[i]) % q
    # P[m] = det(xI - H[:m, :m])
    P = [[1]]
    for m in range(d):
        p = [0] + P[m]
        for s, a in enumerate(P[m]):
            p[s] = (p[s] - H[m][m] * a) % q
        t = 1
        for i in range(m - 1, -1, -1):
            t = t * H[i + 1][i] % q
            if not t:
                break
            c = t * H[i][m] % q
            for s, a in enumerate(P[i]):
                p[s] = (p[s] - c * a) % q
        P.append(p)
    return P[d]


def _roots_mod(coeffs, q):
    """Distinct roots in F_q of a polynomial given lowest degree first."""
    roots = []
    for x in range(q):
        acc = 0
        for c in reversed(coeffs):
            acc = (acc * x + c) % q
        if not acc:
            roots.append(x)
    return roots


def _primitive_root_of_unity(q, e):
    """The least g in F_q whose power g^((q-1)/e) has order exactly e."""
    for g in range(1, q):
        z = pow(g, (q - 1) // e, q)
        if all(pow(z, e // r, q) != 1 for r in range(2, e + 1) if e % r == 0):
            return z
    raise CharacterError("no primitive root of unity found")


# -- positivity --

def multiplicities(chi: ClassFunction):
    """Vector of <chi_i, chi> over the irreducible characters."""
    return [inner_product(irr, chi) for irr in character_table(chi.group)]


def is_true_character(chi: ClassFunction) -> bool:
    if not chi.is_conjugation_symmetric():
        raise CharacterError("not a class function symmetric under inversion")
    for m in multiplicities(chi):
        if not m.is_rational():
            return False
        f = m.to_fraction()
        if f < 0 or f.denominator != 1:
            return False
    return True


def is_positive_rational(chi: ClassFunction) -> bool:
    """Membership in R^+(G, Q): nonnegative rational multiplicities."""
    if not chi.is_conjugation_symmetric():
        raise CharacterError("not a class function symmetric under inversion")
    for m in multiplicities(chi):
        if not m.is_rational() or m.to_fraction() < 0:
            return False
    return True
