"""Exact class-function calculus: inner products, induction/restriction,
character tables (Dixon's modular method), positivity cones and the
multiplicative ramification character of a cyclic p-group.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from typing import Optional, Sequence, Union

from .cyclotomic import Cyclotomic
from .groups import FiniteGroup, SubgroupClass, cyclic, is_prime, \
    per_group, valuation

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

    def is_conjugation_symmetric(self) -> bool:
        """Value at the inverse class equals the complex conjugate value."""
        G = self.group
        return all(self.values[G.inverse_class(i)] == self.values[i].conj()
                   for i in range(len(self.values)))

    def __repr__(self):
        return f"ClassFunction({list(self.values)})"


def inner_product(f: ClassFunction, g: ClassFunction) -> Cyclotomic:
    """|G|^-1 sum_sigma conj(f(sigma)) g(sigma), computed classwise.  Every
    term |C| conj(a) b goes into one exponent vector mod N, the lcm of all
    conductors, which is reduced once."""
    if f.group is not g.group:
        raise CharacterError("class functions on different groups")
    G = f.group
    sizes = [len(c) for c in G.conjugacy_classes()]
    N = math.lcm(*(v.n for v in f.values), *(v.n for v in g.values))
    vec = [0] * N
    for size, a, b in zip(sizes, f.values, g.values):
        sa, sb = N // a.n, N // b.n
        bterms = [(j * sb, y * size) for j, y in enumerate(b.coeffs) if y]
        for i, x in enumerate(a.coeffs):
            if x:
                for e, y in bterms:
                    vec[(e - i * sa) % N] += x * y
    return Cyclotomic(N, vec) * Fraction(1, G.n)


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
    """Induction from the subgroup with elements embed (an H-id -> G-id map):
    Ind chi(g) = |G| / (|g^G| |H|) sum_{h in H and g^G} chi(h), summed over
    the classes of H, each of which lies in one class of G."""
    H = chi.group
    if H.n != len(embed):
        raise CharacterError("embedding does not match the subgroup")
    classes = G.conjugacy_classes()
    hit = [[] for _ in classes]
    for c, v in zip(H.conjugacy_classes(), chi.values):
        hit[G.class_of(embed[c[0]])].append((len(c), v))
    vals = []
    for c, terms in zip(classes, hit):
        N = math.lcm(*(v.n for _, v in terms))
        vec = [0] * N
        for size, v in terms:
            step = N // v.n
            for i, x in enumerate(v.coeffs):
                vec[i * step] += size * x
        vals.append(Cyclotomic(N, vec) * Fraction(G.n, len(c) * H.n))
    return ClassFunction(G, vals)


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
        i = valuation(a, p)
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
    m = valuation(P.order, p)
    if P.order != p ** m:
        raise CharacterError("subgroup order is not a p-power")
    gen_h = 0 if P.order == 1 else \
        next(h for h in range(H.n) if H.order_of[h] == P.order)
    d = delta_mult_on(H, gen_h, p, m)
    return induce(d, C.group, embed)


# -- character table (Dixon's modular method) --

def character_table(G: FiniteGroup):
    """Complete list of irreducible characters, exact cyclotomic values.

    Works modulo a prime q = 1 (mod exponent(G)), splits the common
    eigenspaces of the class-multiplication matrices, and lifts eigenvalues
    to cyclotomics through discrete logarithms of roots of unity mod q.
    Every eigenspace basis is kept in reduced row echelon form.
    """
    return per_group(G, "character_table", lambda: _dixon_table(G))


def _dixon_table(G: FiniteGroup):
    classes = G.conjugacy_classes()
    k = len(classes)
    e = G.exponent()
    q = _lifting_prime(G.n, e)
    spaces = [([[int(i == j) for j in range(k)] for i in range(k)],
               list(range(k)))]
    for i in range(1, k):
        if all(len(b) == 1 for b, _ in spaces):
            break
        M = _class_matrix(G, i)
        nxt = []
        for space in spaces:
            if len(space[0]) == 1:
                nxt.append(space)
                continue
            nxt.extend(_split_space(space, M, q))
        spaces = nxt
    if not all(len(b) == 1 for b, _ in spaces):
        raise CharacterError("eigenspace splitting incomplete")
    inv_cls = [G.inverse_class(i) for i in range(k)]
    inv_sizes = [pow(len(c), q - 2, q) for c in classes]
    z = _primitive_root_of_unity(q, e)
    powers = _power_classes(G)
    sources = _rational_class_sources(powers)
    fourier = {o: _fourier_rows(o, pow(z, e // o, q), q)
               for o in {len(row) for row in powers}}
    chars = []
    for (vec,), _ in spaces:
        if vec[0] == 0:
            raise CharacterError("degenerate eigenvector")
        inv0 = pow(vec[0], q - 2, q)
        omega = [v * inv0 % q for v in vec]
        t = sum(omega[j] * omega[inv_cls[j]] * inv_sizes[j]
                for j in range(k)) % q
        d2 = G.n * pow(t, q - 2, q) % q
        # q > 2 sqrt(n) n, so the degree d <= sqrt(n) is fixed by d^2 mod q
        d = next((d for d in range(1, math.isqrt(G.n) + 1)
                  if d * d % q == d2), None)
        if d is None:
            raise CharacterError("degree lifting failed")
        x = [d * omega[j] * inv_sizes[j] % q for j in range(k)]
        chars.append(ClassFunction(
            G, _lift_character(x, d, q, powers, sources, fourier)))
    total = sum(int(c.degree().to_fraction()) ** 2 for c in chars)
    if total != G.n or len(chars) != k:
        raise CharacterError("character table reconstruction failed")
    chars.sort(key=lambda c: (c.degree().to_fraction(),
                              [(v.n, v.coeffs) for v in c.values]))
    return chars


def _power_classes(G: FiniteGroup):
    """For each class, the classes of rep^s for s < o(rep)."""
    out = []
    for rep in G.class_reps():
        row = []
        g = G.identity
        for _ in range(G.order_of[rep]):
            row.append(G.class_of(g))
            g = G.mul(g, rep)
        out.append(row)
    return out


def _rational_class_sources(powers):
    """(i, u) for each class: it holds rep_i^u, with gcd(u, o) = 1 and i the
    first class of its rational class, so chi there is sigma_u(chi(rep_i))."""
    sources = [None] * len(powers)
    for i, row in enumerate(powers):
        if sources[i] is None:
            sources[i] = (i, 1)
            o = len(row)
            for u in range(2, o):
                if math.gcd(u, o) == 1 and sources[row[u]] is None:
                    sources[row[u]] = (i, u)
    return sources


def _fourier_rows(o, zo, q):
    """Row t maps the values mod q of a character at g^s, s < o, to the
    multiplicity of the eigenvalue zo^t of g: sum_s x_s zo^(-ts) / o."""
    zpow = [1] * o
    for s in range(1, o):
        zpow[s] = zpow[s - 1] * zo % q
    inv_o = pow(o, q - 2, q)
    return [[zpow[-t * s % o] * inv_o % q for s in range(o)]
            for t in range(o)]


def _lift_character(xmod, degree, q, powers, sources, fourier):
    """Cyclotomic values from the values mod q: at the first class of each
    rational class, the multiplicity of each eigenvalue zeta_o^t by a
    discrete Fourier sum mod q; at the others, its Galois images."""
    vals = []
    for i, row in enumerate(powers):
        src, u = sources[i]
        if src != i:
            vals.append(vals[src].galois(u))
            continue
        xpow = [xmod[c] for c in row]
        coeffs = [sum(map(operator.mul, xpow, w)) % q
                  for w in fourier[len(row)]]
        if max(coeffs) > degree:
            raise CharacterError("multiplicity lifting failed")
        vals.append(Cyclotomic(len(row), coeffs))
    return vals


def _lifting_prime(n: int, e: int) -> int:
    """The least prime q = 1 (mod e) above 2 sqrt(n) n."""
    q = max(1, -(-2 * math.isqrt(n) * n // e)) * e + 1
    while not is_prime(q):
        q += e
    return q


def _class_matrix(G: FiniteGroup, i: int):
    """Row j of M_i as the nonzero (l, a_ijl), with C_i C_j = sum_l a_ijl
    C_l, so that the omega-vectors are eigenvectors: (M omega)_j =
    omega_i omega_j.  Each a_ijl <= |C_i| < q."""
    classes = G.conjugacy_classes()
    rows = [{} for _ in classes]
    for l, gl in enumerate(G.class_reps()):
        for x in classes[i]:
            row = rows[G.class_of(G.mul(G.inv(x), gl))]
            row[l] = row.get(l, 0) + 1
    return [list(row.items()) for row in rows]


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
    into the eigenspaces of M, each again in echelon form.  M is sparse,
    as _class_matrix gives it."""
    basis, pivots = space
    d = len(basis)
    cols = [list(col) for col in zip(*basis)]      # transposed once
    W = _sparse_mul(M, cols, q)         # W[t][j] = (M b_j)[t]
    # M b_j = sum_i A[i][j] b_i: at pivot p_i the basis is the unit vector
    A = [W[p] for p in pivots]
    if _sparse_mul([_nonzero(col) for col in cols], A, q) != W:
        raise CharacterError("class matrix does not preserve subspace")
    out = []
    for lam in _roots_mod(_charpoly_mod(A, q), q):
        rows, piv = _rref_mod(
            [[(A[i][j] - (lam if i == j else 0)) % q for j in range(d)]
             for i in range(d)], q)
        kernel = []
        for fc in (c for c in range(d) if c not in piv):
            coords = [0] * d
            coords[fc] = 1
            for row, pc in zip(rows, piv):
                coords[pc] = -row[fc] % q
            kernel.append(coords)
        if kernel:
            out.append(_rref_mod(_sparse_mul(
                [_nonzero(c) for c in kernel], basis, q), q))
    if sum(len(b) for b, _ in out) != d:
        raise CharacterError("eigen splitting lost dimensions")
    return out


def _nonzero(v):
    return [(i, x) for i, x in enumerate(v) if x]


def _sparse_mul(X, Y, q):
    """The rows of X Y over F_q, with each row of X given by its nonzero
    (i, x_i): a sum of the rows Y[i] scaled by x_i."""
    out = []
    for row in X:
        if len(row) == 1:
            i, x = row[0]
            out.append([x * y % q for y in Y[i]])
            continue
        acc = [0] * len(Y[0])
        for i, x in row:
            acc = [a + x * y for a, y in zip(acc, Y[i])]
        out.append([a % q for a in acc])
    return out


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
    """Distinct roots, ascending, in F_q (q an odd prime) of a nonzero
    polynomial f of degree < q, given lowest degree first.  g = f / gcd(f,
    f') is the product of f's distinct irreducible factors, gcd(g, x^q - x)
    the product of x - r over its roots r, and gcd(h, (x + a)^((q-1)/2) - 1)
    for a = 0, 1, 2, ... splits every factor h of it until each is linear
    (Cantor-Zassenhaus equal-degree splitting)."""
    f = _poly_monic(coeffs, q)
    df = _poly_trim([i * c % q for i, c in enumerate(f)][1:])
    g = _poly_divmod(f, _poly_gcd(f, df, q), q)[0] if df else f
    if len(g) > 2:      # a linear g divides x^q - x already
        g = _poly_gcd(g, _poly_sub(_linear_powmod(0, q, g, q), [0, 1], q), q)
    todo = [g]
    roots = []
    while todo:
        h = todo.pop()
        if len(h) == 2:
            roots.append(-h[0] % q)
        elif len(h) > 2:
            # for roots r != r' some a in F_q makes exactly one of r + a,
            # r' + a a nonzero square
            for a in range(q):
                s = _poly_gcd(h, _poly_sub(
                    _linear_powmod(a, (q - 1) // 2, h, q), [1], q), q)
                if 1 < len(s) < len(h):
                    todo += [s, _poly_divmod(h, s, q)[0]]
                    break
            else:
                raise CharacterError("root splitting failed")
    return sorted(roots)


# polynomials over F_q: lists lowest degree first, with a nonzero top
# coefficient ([] is the zero polynomial)

def _poly_trim(a):
    while a and not a[-1]:
        a.pop()
    return a


def _poly_monic(a, q):
    a = _poly_trim([x % q for x in a])
    inv = pow(a[-1], q - 2, q)
    return [x * inv % q for x in a]


def _poly_sub(a, b, q):
    n = max(len(a), len(b))
    return _poly_trim([((a[i] if i < len(a) else 0) -
                        (b[i] if i < len(b) else 0)) % q for i in range(n)])


def _poly_mul(a, b, q):
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return [x % q for x in out]


def _poly_divmod(a, b, q):
    """(quotient, remainder) of a by b != 0."""
    r = list(a)
    db = len(b) - 1
    inv = pow(b[-1], q - 2, q)
    quot = [0] * max(len(a) - db, 0)
    for s in range(len(quot) - 1, -1, -1):
        c = r[s + db] * inv % q
        quot[s] = c
        if c:
            for i, y in enumerate(b):
                r[s + i] = (r[s + i] - c * y) % q
    return quot, _poly_trim([x % q for x in r[:db]])


def _poly_gcd(a, b, q):
    """The monic gcd of a and b, not both zero."""
    while b:
        a, b = b, _poly_divmod(a, b, q)[1]
    return _poly_monic(a, q)


def _linear_powmod(a, k, f, q):
    """(x + a)^k mod the monic f, from the top bit of k down: a product
    with x + a is a shift and one reduction step."""
    d = len(f) - 1
    r = [1]
    for bit in bin(k)[2:]:
        r = _poly_divmod(_poly_mul(r, r, q), f, q)[1]
        if bit == "1":
            r = [0] + r
            for i in range(len(r) - 1):
                r[i] = (r[i] + a * r[i + 1]) % q
            if len(r) > d:
                c = r.pop()
                for i in range(d):
                    r[i] = (r[i] - c * f[i]) % q
            _poly_trim(r)
    return r


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
