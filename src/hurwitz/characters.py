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
    """
    if G._char_table is not None:
        return G._char_table
    classes = G.conjugacy_classes()
    k = len(classes)
    e = G.exponent()
    q = _lifting_prime(G.n, e)
    mats = _class_matrices(G, q)
    spaces = [[_unit_vec(k, i, q) for i in range(k)]]
    for M in mats[1:]:
        nxt = []
        for basis in spaces:
            if len(basis) == 1:
                nxt.append(basis)
                continue
            nxt.extend(_split_space(basis, M, q))
        spaces = nxt
        if all(len(b) == 1 for b in spaces):
            break
    if not all(len(b) == 1 for b in spaces):
        raise CharacterError("eigenspace splitting incomplete")
    inv_cls = [G.inverse_class(i) for i in range(k)]
    sizes = [len(c) for c in classes]
    z = _primitive_root_of_unity(q, e)
    chars = []
    for (vec,) in spaces:
        if vec[0] == 0:
            raise CharacterError("degenerate eigenvector")
        inv0 = pow(vec[0], q - 2, q)
        omega = [v * inv0 % q for v in vec]
        t = 0
        for j in range(k):
            t = (t + omega[j] * omega[inv_cls[j]] *
                 pow(sizes[j], q - 2, q)) % q
        d2 = G.n * pow(t, q - 2, q) % q
        r = _sqrt_mod(d2, q)
        d = min(r, q - r)
        if d * d > G.n:
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
    bound = 2 * math.isqrt(n) * n
    q = e + 1
    while True:
        if q > bound and q % e == 1 and is_prime(q):
            return q
        q += e if q % e == 1 else (e - (q - 1) % e)


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


def _unit_vec(k, i, q):
    v = [0] * k
    v[i] = 1
    return v


def _mat_apply(M, v, q):
    return [sum(M[l][j] * v[j] for j in range(len(v))) % q
            for l in range(len(M))]


def _solve_in_basis(basis, w, q):
    """Coordinates of w in span(basis) over F_q, or None."""
    k = len(w)
    d = len(basis)
    rows = [[basis[j][i] for j in range(d)] + [w[i]] for i in range(k)]
    piv = []
    r = 0
    for c in range(d):
        pr = next((i for i in range(r, k) if rows[i][c] % q), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        inv = pow(rows[r][c], q - 2, q)
        rows[r] = [x * inv % q for x in rows[r]]
        for i in range(k):
            if i != r and rows[i][c] % q:
                f = rows[i][c]
                rows[i] = [(x - f * y) % q for x, y in zip(rows[i], rows[r])]
        piv.append(c)
        r += 1
    for i in range(r, k):
        if rows[i][-1] % q:
            return None
    sol = [0] * d
    for i, c in enumerate(piv):
        sol[c] = rows[i][-1]
    return sol


def _split_space(basis, M, q):
    """Split an M-invariant subspace into eigenspaces of M."""
    d = len(basis)
    R = []
    for b in basis:
        w = _mat_apply(M, b, q)
        coords = _solve_in_basis(basis, w, q)
        if coords is None:
            raise CharacterError("class matrix does not preserve subspace")
        R.append(coords)
    # R[i][j]: M b_i = sum_j R[i][j] b_j; transpose to act on coordinates
    A = [[R[j][i] % q for j in range(d)] for i in range(d)]
    charpoly = _charpoly_mod(A, q)
    out = []
    for lam in _poly_roots_mod(charpoly, q):
        null = _nullspace_mod(
            [[(A[i][j] - (lam if i == j else 0)) % q for j in range(d)]
             for i in range(d)], q)
        vecs = []
        for coords in null:
            v = [0] * len(basis[0])
            for cj, b in zip(coords, basis):
                for i in range(len(v)):
                    v[i] = (v[i] + cj * b[i]) % q
            vecs.append(v)
        if vecs:
            out.append(vecs)
    if sum(len(v) for v in out) != d:
        raise CharacterError("eigen splitting lost dimensions")
    return out


def _charpoly_mod(A, q):
    """det(xI - A) over F_q via evaluation/interpolation."""
    d = len(A)
    xs = list(range(d + 1))
    ys = [_det_mod([[((x if i == j else 0) - A[i][j]) % q
                     for j in range(d)] for i in range(d)], q) for x in xs]
    # Lagrange interpolation
    coeffs = [0] * (d + 1)
    for i, (xi, yi) in enumerate(zip(xs, ys)):
        num = [1]
        den = 1
        for j, xj in enumerate(xs):
            if j == i:
                continue
            num = _polymul_mod(num, [(-xj) % q, 1], q)
            den = den * (xi - xj) % q
        f = yi * pow(den, q - 2, q) % q
        for t, c in enumerate(num):
            coeffs[t] = (coeffs[t] + f * c) % q
    return coeffs


def _polymul_mod(a, b, q):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % q
    return out


def _det_mod(A, q):
    A = [row[:] for row in A]
    d = len(A)
    det = 1
    for c in range(d):
        pr = next((i for i in range(c, d) if A[i][c] % q), None)
        if pr is None:
            return 0
        if pr != c:
            A[c], A[pr] = A[pr], A[c]
            det = -det
        det = det * A[c][c] % q
        inv = pow(A[c][c], q - 2, q)
        for i in range(c + 1, d):
            f = A[i][c] * inv % q
            if f:
                A[i] = [(x - f * y) % q for x, y in zip(A[i], A[c])]
    return det % q


def _poly_roots_mod(coeffs, q):
    """Roots (with multiplicity ignored) of a polynomial over F_q, by
    deflation; the relevant polynomials split completely."""
    roots = []
    c = [x % q for x in coeffs]
    while len(c) > 1:
        lam = next((x for x in range(q) if _poly_eval_mod(c, x, q) == 0), None)
        if lam is None:
            break
        if lam not in roots:
            roots.append(lam)
        c = _poly_deflate_mod(c, lam, q)
    return sorted(roots)


def _poly_eval_mod(c, x, q):
    acc = 0
    for coef in reversed(c):
        acc = (acc * x + coef) % q
    return acc


def _poly_deflate_mod(c, lam, q):
    out = [0] * (len(c) - 1)
    acc = 0
    for i in range(len(c) - 1, 0, -1):
        acc = (acc * lam + c[i]) % q
        out[i - 1] = acc
    return out


def _nullspace_mod(A, q):
    d = len(A)
    rows = [row[:] for row in A]
    piv_cols = []
    r = 0
    for c in range(d):
        pr = next((i for i in range(r, d) if rows[i][c] % q), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        inv = pow(rows[r][c], q - 2, q)
        rows[r] = [x * inv % q for x in rows[r]]
        for i in range(d):
            if i != r and rows[i][c] % q:
                f = rows[i][c]
                rows[i] = [(x - f * y) % q for x, y in zip(rows[i], rows[r])]
        piv_cols.append(c)
        r += 1
    free = [c for c in range(d) if c not in piv_cols]
    basis = []
    for fc in free:
        v = [0] * d
        v[fc] = 1
        for i, pc in enumerate(piv_cols):
            v[pc] = (-rows[i][fc]) % q
        basis.append(v)
    return basis


def _primitive_root_of_unity(q, e):
    g = _primitive_root(q)
    return pow(g, (q - 1) // e, q)


def _primitive_root(q):
    factors = _prime_factors(q - 1)
    for g in range(2, q):
        if all(pow(g, (q - 1) // f, q) != 1 for f in factors):
            return g
    raise CharacterError("no primitive root found")


def _prime_factors(n):
    out = set()
    d = 2
    while d * d <= n:
        while n % d == 0:
            out.add(d)
            n //= d
        d += 1
    if n > 1:
        out.add(n)
    return out


def _sqrt_mod(a, q):
    """Tonelli-Shanks square root mod an odd prime q."""
    a %= q
    if a == 0:
        return 0
    if pow(a, (q - 1) // 2, q) != 1:
        raise CharacterError("not a quadratic residue")
    if q % 4 == 3:
        return pow(a, (q + 1) // 4, q)
    s, t = 0, q - 1
    while t % 2 == 0:
        s += 1
        t //= 2
    z = next(x for x in range(2, q) if pow(x, (q - 1) // 2, q) == q - 1)
    m, c, u, r = s, pow(z, t, q), pow(a, t, q), pow(a, (t + 1) // 2, q)
    while u != 1:
        i, x = 0, u
        while x != 1:
            x = x * x % q
            i += 1
        b = pow(c, 1 << (m - i - 1), q)
        m, c = i, b * b % q
        u, r = u * c % q, r * b % q
    return r


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
