import itertools
import random
from fractions import Fraction

import pytest

from hurwitz.characters import (CharacterError, ClassFunction,
                                _charpoly_mod, _roots_mod, augmentation_char,
                                character_table, delta_mult, delta_mult_star,
                                induce, inflate, inner_product,
                                is_true_character, multiplicities, one_char,
                                pair, regular_char, restrict, u_star)
from hurwitz.cyclotomic import Cyclotomic
from hurwitz.groups import (cyclic, dihedral, elementary_abelian,
                            from_permutations, generalized_quaternion,
                            semidirect_metacyclic, subgroup_class_of,
                            subgroup_classes)

ONE = Cyclotomic.from_rational(1)
ZERO = Cyclotomic.from_rational(0)


def test_table_row_orthonormality(q8, q16, d4, z9, klein):
    for G in (q8, q16, d4, z9, klein):
        chars = character_table(G)
        assert len(chars) == len(G.conjugacy_classes())
        for i, chi in enumerate(chars):
            for j, psi in enumerate(chars):
                expected = ONE if i == j else ZERO
                assert inner_product(chi, psi) == expected


S4 = [[1, 0, 2, 3], [1, 2, 3, 0]]          # (0 1), (0 1 2 3)
A4 = [[1, 2, 0, 3], [0, 2, 3, 1]]          # (0 1 2), (1 2 3)
A5 = [[1, 2, 0, 3, 4], [1, 2, 3, 4, 0]]    # (0 1 2), (0 1 2 3 4)


# known degree multisets; A5 is not solvable, Q64 has 19 classes
@pytest.mark.parametrize("make, degrees", [
    (lambda: cyclic(1), [1]),
    (lambda: from_permutations(S4), [1, 1, 2, 3, 3]),
    (lambda: from_permutations(A4), [1, 1, 1, 3]),
    (lambda: from_permutations(A5), [1, 3, 3, 4, 5]),
    (lambda: generalized_quaternion(5), [1] * 4 + [2] * 15),
    (lambda: elementary_abelian(2, 5), [1] * 32),
], ids=["C1", "S4", "A4", "A5", "Q64", "E(2^5)"])
def test_table_degrees_and_orthonormality(make, degrees):
    G = make()
    chars = character_table(G)
    assert sorted(chi.degree().to_fraction() for chi in chars) == degrees
    for i, chi in enumerate(chars):
        for j, psi in enumerate(chars[i:], i):
            assert inner_product(chi, psi) == (ONE if i == j else ZERO)


def _leibniz_charpoly(A, q):
    """det(xI - A) mod q, lowest degree first, summed over permutations."""
    d = len(A)
    total = [0] * (d + 1)
    for perm in itertools.permutations(range(d)):
        inversions = sum(perm[i] > perm[j]
                         for i in range(d) for j in range(i + 1, d))
        term = [(-1) ** inversions]
        for i, j in enumerate(perm):
            entry = [-A[i][j], int(i == j)]     # x delta_ij - a_ij
            term = [sum(term[s] * entry[t - s]
                        for s in range(len(term)) if 0 <= t - s < 2)
                    for t in range(len(term) + 1)]
        total = [a + b for a, b in zip(total, term)]
    return [c % q for c in total]


def test_charpoly_matches_leibniz_expansion():
    rng = random.Random(5)
    # a 2+3 block upper triangular matrix: column 1 is zero below the
    # subdiagonal, so the Hessenberg reduction skips it and goes on
    block = [[3, 1, 4, 1, 5], [9, 2, 6, 5, 3], [0, 0, 5, 8, 9],
             [0, 0, 7, 9, 3], [0, 0, 2, 3, 8]]
    cases = [(block, 11), ([[0]], 7), ([], 7)]
    for _ in range(60):
        q = rng.choice((2, 3, 7, 101))
        d = rng.randint(1, 5)
        zeros = rng.random()        # sparse matrices force row swaps
        cases.append(([[0 if rng.random() < zeros else rng.randrange(q)
                        for _ in range(d)] for _ in range(d)], q))
    for A, q in cases:
        assert _charpoly_mod([row[:] for row in A], q) == \
            _leibniz_charpoly(A, q), (A, q)


def test_degrees_sum_of_squares(q8, q16, d4):
    for G in (q8, q16, d4):
        degs = [chi.values[0].to_fraction() for chi in character_table(G)]
        assert sum(d * d for d in degs) == G.n


def test_regular_character_decomposition(q8):
    reg = regular_char(q8)
    for chi in character_table(q8):
        assert inner_product(chi, reg) == chi.values[0]
    assert regular_char(q8) - one_char(q8) == augmentation_char(q8)


def test_frobenius_reciprocity_random(q8, q16, d4):
    rng = random.Random(23)
    for G in (q8, q16, d4):
        classes = [C for C in subgroup_classes(G) if 1 < C.order < G.n]
        for _ in range(25):
            C = rng.choice(classes)
            H, embed = C.as_group()
            chi = rng.choice(character_table(H))
            psi = rng.choice(character_table(G))
            lhs = inner_product(induce(chi, G, embed), psi)
            rhs = inner_product(chi, restrict(psi, H, embed))
            assert lhs == rhs


def test_u_star_values(q8):
    C = subgroup_class_of(q8, q8.closure([q8.element_by_name("tau")]))
    u = u_star(C)
    assert pair(one_char(q8), u) == 0
    assert is_true_character(u + inflate_ready(q8))
    # u*_G is the augmentation character
    full = subgroup_class_of(q8, range(q8.n))
    assert u_star(full) == augmentation_char(q8)


def inflate_ready(G):
    """A cheap true character making u* + it effective, for sanity only."""
    return regular_char(G)


def test_inflation_through_quotient(q8, klein):
    # Q8 / <tau^2> is the Klein four group
    center = q8.mul(q8.element_by_name("tau"), q8.element_by_name("tau"))
    proj = _quotient_projection(q8, center, klein)
    for chi in character_table(klein):
        lifted = inflate(chi, q8, proj)
        assert inner_product(lifted, lifted) == ONE
        assert lifted.values[0] == chi.values[0]


def _quotient_projection(G, z, Q):
    cosets = {}
    proj = [None] * G.n
    for g in range(G.n):
        cs = frozenset({g, G.mul(g, z)})
        if cs not in cosets:
            cosets[cs] = len(cosets)
        proj[g] = cosets[cs]
    # relabel so the map is a homomorphism onto Q
    table = {}
    for g in range(G.n):
        for h in range(G.n):
            table[(proj[g], proj[h])] = proj[G.mul(g, h)]
    ids = list(range(Q.n))
    import itertools
    for perm in itertools.permutations(ids):
        good = all(perm[table[(a, b)]] == Q.mul(perm[a], perm[b])
                   for a in ids for b in ids)
        if good:
            return [perm[x] for x in proj]
    raise AssertionError("no isomorphism of the quotient with Klein four")


def test_delta_mult_is_balanced():
    for p, m in ((2, 1), (2, 3), (3, 2), (5, 1)):
        d = delta_mult(p, m)
        assert pair(one_char(d.group), d) == 0


def test_delta_mult_star_tame_is_zero(z3):
    C = subgroup_class_of(z3, range(3))
    d = delta_mult_star(C, 2)     # order coprime to p: depth target vanishes
    assert all(v.is_zero() for v in d.values)
    with pytest.raises(CharacterError, match="p = 1 is not a prime"):
        delta_mult_star(C, 1)


def test_multiplicities_and_true_characters(q8):
    chars = character_table(q8)
    psi = chars[-1] + chars[0]
    mults = sorted(m.to_fraction() for m in multiplicities(psi))
    assert mults[-2:] == [1, 1]
    assert is_true_character(psi)
    assert not is_true_character(chars[0] - chars[1])


def test_pair_rejects_size_mismatch(q8, z4):
    with pytest.raises(CharacterError):
        ClassFunction(q8, [1, 2, 3])
    chi = one_char(z4)
    with pytest.raises(CharacterError):
        inner_product(chi, one_char(cyclic(5)))


def test_pair_is_rational(q8):
    a = augmentation_char(q8)
    for chi in character_table(q8):
        assert isinstance(pair(chi, a), Fraction)


# -- differential tests against the per-element and classwise references --

def reference_induce(chi, G, embed):
    """Induction summed over every element of G, one cyclotomic add each."""
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


def reference_inner_product(f, g):
    """Classwise inner product: a conj, a product and a lifting add per
    class."""
    total = Cyclotomic.from_rational(0)
    for size, a, b in zip((len(c) for c in f.group.conjugacy_classes()),
                          f.values, g.values):
        total = total + size * (a.conj() * b)
    return total * Fraction(1, f.group.n)


def _coordinates(values):
    return [(v.n, v.coeffs) for v in values]


@pytest.mark.parametrize("make", [
    lambda: dihedral(5), lambda: generalized_quaternion(3),
    lambda: from_permutations(A5), lambda: semidirect_metacyclic(7, 3, 2),
    lambda: elementary_abelian(2, 4),
], ids=["D5", "Q16", "A5", "C7:C3", "E(2^4)"])
def test_induce_and_inner_product_match_references(make):
    G = make()
    irr = character_table(G)
    induced = []
    for C in subgroup_classes(G):
        H, embed = C.as_group()
        for chi in character_table(H) + [augmentation_char(H)]:
            ind = induce(chi, G, embed)
            assert _coordinates(ind.values) == _coordinates(
                reference_induce(chi, G, embed).values), (C.class_id, chi)
            induced.append(ind)
    for chi in irr:
        for psi in irr + induced:
            new, ref = inner_product(chi, psi), \
                reference_inner_product(chi, psi)
            assert (new.n, new.coeffs) == (ref.n, ref.coeffs)


def reference_roots(coeffs, q):
    """Distinct roots in F_q by evaluating the polynomial at every x."""
    roots = []
    for x in range(q):
        acc = 0
        for c in reversed(coeffs):
            acc = (acc * x + c) % q
        if not acc:
            roots.append(x)
    return roots


def test_roots_match_the_scan_of_every_residue():
    rng = random.Random(13)
    for q in (3, 5, 7, 11, 97, 1153):
        for _ in range(40):
            # a unit times linear factors, some repeated, and every other
            # time x^2 - c for a non-square c, which has no root in F_q;
            # the degree stays below q, as _roots_mod requires
            quadratic = rng.random() < 0.5
            roots = [rng.randrange(q) for _ in range(rng.randint(1, 9))]
            roots += rng.choices(roots, k=rng.randint(0, 4))
            factors = [[-r % q, 1] for r in roots[:q - 1 - 2 * quadratic]]
            if quadratic:
                c = next(c for c in range(2, q) if pow(c, (q - 1) // 2, q)
                         == q - 1)
                factors.append([-c % q, 0, 1])
            poly = [rng.randrange(1, q)]
            for f in factors:
                prod = [0] * (len(poly) + len(f) - 1)
                for i, x in enumerate(poly):
                    for j, y in enumerate(f):
                        prod[i + j] = (prod[i + j] + x * y) % q
                poly = prod
            assert _roots_mod(poly, q) == reference_roots(poly, q), (poly, q)
