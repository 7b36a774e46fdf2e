"""Depth and Artin characters, ramification breaks, and the boundary-shift
identity for finite-order automorphism groups of the p-adic open unit disk.

Automorphisms come either as Moebius maps (all results exact) or as truncated
power series (results exact up to the stated z-precision; insufficiency
raises PrecisionError instead of silently truncating).
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from typing import Dict, List, Optional, Tuple, Union

from .characters import ClassFunction, augmentation_char, pair, u_star
from .cyclotomic import Cyclotomic
from .groups import FiniteGroup, subgroup_class_of
from .localfield import (CycloLocalField, FieldError, MobiusMap,
                         TruncatedSeries, gauss_valuation_poly,
                         weierstrass_degree_poly)


class PrecisionError(ArithmeticError):
    """A series computation needs more z-precision to be conclusive."""


class DiskError(ValueError):
    pass


Automorphism = Union[MobiusMap, TruncatedSeries]


def mobius_to_series(M: MobiusMap, field: CycloLocalField,
                     precision: int) -> TruncatedSeries:
    """Expand (az+b)/(cz+d) as a power series on the disk (val(c) >= val(d))."""
    d, c = M.d, M.c
    if field.val(d) is None:
        raise DiskError("cannot expand: d = 0")
    # 1/(d+cz) = (1/d) * sum (-c/d)^k z^k
    r = -c / d
    inv = []
    term = d.inverse()
    for _ in range(precision):
        inv.append(term)
        term = term * r
    inv_s = TruncatedSeries(field, inv, precision)
    num = TruncatedSeries(field, [M.b, M.a], precision)
    return num * inv_s


class DiskAction:
    """A finite group acting faithfully on the open unit disk over
    Q(zeta_{p^m}); one automorphism per group element, the full assignment
    generated from the given generators and verified against the group law.
    """

    def __init__(self, field: CycloLocalField, group: FiniteGroup,
                 generator_maps: Dict[str, Automorphism], check: bool = True,
                 _maps: Optional[List[Automorphism]] = None):
        self.field = field
        self.group = group
        if _maps is not None:
            self.maps = _maps
            self.kind = "mobius" if isinstance(_maps[0], MobiusMap) else "series"
        else:
            self.maps = self._generate(generator_maps)
        if check:
            self._check_disk_preservation()
            self._check_faithful()

    def _generate(self, generator_maps) -> List[Automorphism]:
        G = self.group
        gens = {}
        kinds = set()
        for name, auto in generator_maps.items():
            gens[G.element_by_name(name)] = auto
            kinds.add(type(auto))
        if len(kinds) != 1:
            raise DiskError("generators must all be Moebius or all series")
        self.kind = "mobius" if kinds == {MobiusMap} else "series"
        maps: List[Optional[Automorphism]] = [None] * G.n
        maps[G.identity] = (MobiusMap.identity() if self.kind == "mobius"
                            else TruncatedSeries.z(
                                self.field,
                                min(s.precision for s in gens.values())))
        queue = [G.identity]
        while queue:
            g = queue.pop(0)
            for s, ms in gens.items():
                h = G.mul(g, s)
                cand = maps[g].compose(ms)
                if maps[h] is None:
                    maps[h] = cand
                    queue.append(h)
                elif not self._equal(maps[h], cand):
                    raise DiskError(
                        "generator maps do not satisfy the group relations")
        if any(m is None for m in maps):
            raise DiskError("the named generators do not generate the group")
        return maps

    def _equal(self, f: Automorphism, g: Automorphism) -> bool:
        if self.kind == "mobius":
            return f.projectively_equal(g)
        return f == g

    def _check_disk_preservation(self):
        for g, m in enumerate(self.maps):
            if self.kind == "mobius":
                if not m.preserves_open_disk(self.field):
                    raise DiskError(
                        f"map of element {self.group.names[g]} "
                        "does not preserve the open disk")
            else:
                v0 = self.field.val(m.coeffs[0])
                v1 = self.field.val(m.coeffs[1])
                ok = (v0 is None or v0 > 0) and v1 == 0 and all(
                    self.field.val(c) is None or self.field.val(c) >= 0
                    for c in m.coeffs)
                if not ok:
                    raise DiskError(
                        f"series of element {self.group.names[g]} "
                        "is not a disk automorphism")

    def _check_faithful(self):
        ident = self.maps[self.group.identity]
        for g, m in enumerate(self.maps):
            if g != self.group.identity and self._equal(m, ident):
                raise DiskError(
                    f"non-faithful: element {self.group.names[g]} "
                    "acts as the identity")

    def displacement(self, g: int):
        """sigma(z) - z for the element g; (num, den) polys or a series."""
        m = self.maps[g]
        if self.kind == "mobius":
            return m.displacement()
        return m - TruncatedSeries.z(self.field, m.precision)

    def displacement_valuation(self, g: int) -> Fraction:
        """val_Y(sigma(z) - z), the Gauss valuation on the open disk."""
        if g == self.group.identity:
            raise DiskError("identity has zero displacement")
        if self.kind == "mobius":
            num, den = self.displacement(g)
            return gauss_valuation_poly(self.field, num) - \
                gauss_valuation_poly(self.field, den)
        d = self.displacement(g)
        if d.is_zero():
            raise PrecisionError(
                "displacement vanishes to working precision")
        return gauss_valuation_poly(self.field, d.coeffs)

    def displacement_degree(self, g: int) -> int:
        """#_Y(sigma(z) - z): number of fixed points of sigma on the disk."""
        if g == self.group.identity:
            raise DiskError("identity has zero displacement")
        if self.kind == "mobius":
            num, den = self.displacement(g)
            return weierstrass_degree_poly(self.field, num) - \
                weierstrass_degree_poly(self.field, den)
        d = self.displacement(g)
        if d.is_zero():
            raise PrecisionError("displacement vanishes to working precision")
        deg = weierstrass_degree_poly(self.field, d.coeffs)
        mv = gauss_valuation_poly(self.field, d.coeffs)
        if deg == d.precision - 1 and self.field.val(d.coeffs[deg]) == mv:
            # cannot rule out an earlier-val tie beyond the last known term
            raise PrecisionError("Weierstrass degree at the precision edge")
        return deg

    def inertia(self) -> frozenset:
        """Elements acting trivially on the residue disk."""
        out = {self.group.identity}
        for g in range(self.group.n):
            if g != self.group.identity and self.displacement_valuation(g) > 0:
                out.add(g)
        return frozenset(out)


def depth_character(action: DiskAction) -> ClassFunction:
    """delta(sigma) = -|G| val_Y(sigma(z)-z) off the identity, balanced so
    that the pairing with 1_G vanishes."""
    G = action.group
    vals: Dict[int, Fraction] = {}
    for g in range(G.n):
        if g != G.identity:
            vals[g] = -G.n * action.displacement_valuation(g)
    vals[G.identity] = -sum(vals.values())
    return ClassFunction.from_element_values(G, vals)


@dataclass
class FixedPointReport:
    verdict: Optional[bool]            # None: could not verify
    notice: str
    orbits: List[dict] = dc_field(default_factory=list)


def artin_character(action: DiskAction
                    ) -> Tuple[ClassFunction, FixedPointReport]:
    """a(sigma) = -#_Y(sigma(z)-z) off the identity, plus a verification of
    a = sum over fixed-point orbits b of u*_{G_b} whenever the fixed points
    are recognizable in the field."""
    G = action.group
    vals: Dict[int, Fraction] = {}
    for g in range(G.n):
        if g != G.identity:
            vals[g] = Fraction(-action.displacement_degree(g))
    vals[G.identity] = -sum(vals.values())
    a = ClassFunction.from_element_values(G, vals)
    return a, _fixed_point_report(action, a)


def _fixed_point_report(action: DiskAction, a: ClassFunction
                        ) -> FixedPointReport:
    if action.kind != "mobius":
        return FixedPointReport(None, "fixed points not solved for series actions")
    G, K = action.group, action.field
    points: List[Cyclotomic] = []
    for g in range(G.n):
        if g == G.identity:
            continue
        fps = action.maps[g].fixed_points(K)
        if fps is None:
            return FixedPointReport(
                None, "discriminant is not a square in the field; "
                      "orbit verification skipped")
        for x in fps:
            v = K.val(x)   # None means x = 0, which lies in the disk
            if (v is None or v > 0) and not any(x == y for y in points):
                points.append(x)
    if not points:
        return FixedPointReport(
            None, "no fixed points on the open disk; tree comparison refused")
    # G permutes the fixed-point set; decompose into orbits
    idx = {i: None for i in range(len(points))}
    orbit_of = list(range(len(points)))

    def find(i):
        while orbit_of[i] != i:
            i = orbit_of[i]
        return i

    for g in range(G.n):
        for i, x in enumerate(points):
            y = action.maps[g].apply(x)
            j = next((k for k, q in enumerate(points) if q == y), None)
            if j is None:
                return FixedPointReport(
                    None, "fixed-point set is not stable under the action")
            orbit_of[find(i)] = find(j)
    orbits: Dict[int, List[int]] = {}
    for i in range(len(points)):
        orbits.setdefault(find(i), []).append(i)
    total = None
    out = []
    for rep, members in sorted(orbits.items()):
        x = points[rep]
        stab = frozenset(g for g in range(G.n)
                         if action.maps[g].apply(x) == x)
        C = subgroup_class_of(G, stab)
        out.append({"size": len(members), "stabilizer": C,
                    "point": x})
        if len(members) != G.n // C.order:
            return FixedPointReport(False, "orbit size mismatch", out)
        term = u_star(C)
        total = term if total is None else total + term
    ok = (total == a)
    return FixedPointReport(
        ok, "a = sum of u*_{G_b} over fixed-point orbits" if ok
        else "Artin character does not match the fixed-point orbits", out)


@dataclass
class Break:
    h: Fraction                # break value
    subgroup: frozenset        # G_h = {sigma : val_Y(sigma z - z) >= h}
    weight: Fraction           # lambda = |G_h| (h_i - h_{i-1})


def break_decomposition(action: DiskAction
                        ) -> Tuple[List[Break], ClassFunction]:
    """Ramification breaks of the boundary filtration and the reassembled
    depth character sum lambda_i u*_{G_{h_i}}."""
    G = action.group
    v = {g: action.displacement_valuation(g)
         for g in range(G.n) if g != G.identity}
    breaks = sorted({h for h in v.values() if h > 0})
    out = []
    prev = Fraction(0)
    total = None
    for h in breaks:
        members = frozenset({G.identity} | {g for g, hv in v.items() if hv >= h})
        if not G.is_subgroup(members):
            raise DiskError(f"filtration level {h} is not a subgroup")
        if not G.is_normal(members):
            raise DiskError(f"filtration level {h} is not normal")
        lam = Fraction(len(members)) * (h - prev)
        out.append(Break(h=h, subgroup=members, weight=lam))
        term = lam * u_star(subgroup_class_of(G, members))
        total = term if total is None else total + term
        prev = h
    if total is None:
        total = ClassFunction(G, [0] * len(G.conjugacy_classes()))
    return out, total


@dataclass
class ShiftReport:
    ok: bool
    eps: Fraction
    depth_outer: ClassFunction
    depth_inner: ClassFunction
    shift_character: ClassFunction     # |G| eps (a - u_G)
    valuation_identity_ok: bool        # val_D(f) = val_Y(f) + eps #_Y(f) per sigma
    fixed_points_inside: Optional[bool]


def boundary_shift_check(action: DiskAction, eps: Fraction,
                         center) -> ShiftReport:
    """Recompute the depth character on the subdisk val(z - center) >= eps
    (coordinate z = alpha w + center, val(alpha) = eps) and compare with
    depth_Y + |G| eps (a_Y - u_G)."""
    if action.kind != "mobius":
        raise DiskError("boundary shift implemented for Moebius actions")
    K, G = action.field, action.group
    eps = Fraction(eps)
    if eps <= 0:
        raise DiskError("eps must be positive")
    alpha = K.with_valuation(eps)       # raises if unattainable
    center = Cyclotomic._coerce(center)
    cv = K.val(center)
    if cv is not None and cv <= 0:
        raise DiskError("center must lie in the open disk")

    inner_maps = [m.conjugate_by_linear(alpha, center) for m in action.maps]
    inner = DiskAction(K, G, {}, check=True, _maps=inner_maps)

    d_outer = depth_character(action)
    d_inner = depth_character(inner)
    a, fp = artin_character(action)
    shift = (G.n * eps) * (a - augmentation_char(G))
    ok = d_inner == d_outer + shift

    # val_D(f_sigma) on the subdisk: the w-displacement is f_sigma/alpha,
    # so add eps back before comparing
    val_ok = all(
        inner.displacement_valuation(g) + eps ==
        action.displacement_valuation(g) + eps * action.displacement_degree(g)
        for g in range(G.n) if g != G.identity)

    inside: Optional[bool] = None
    if fp.verdict is not None and fp.orbits:
        inside = all(K.val(o["point"] - center) is None or
                     K.val(o["point"] - center) >= eps for o in fp.orbits)
    return ShiftReport(ok=ok, eps=eps, depth_outer=d_outer,
                       depth_inner=d_inner, shift_character=shift,
                       valuation_identity_ok=val_ok,
                       fixed_points_inside=inside)


@dataclass
class DerivationReport:
    lhs: Fraction                      # val_Y(sigma(f) - f)
    rhs: Fraction                      # val_Y(sigma(z) - z)
    inequality_ok: bool
    reduction_derivative_nonzero: bool
    equality_matches_criterion: bool


def derivation_test(action: DiskAction, g: int,
                    f: TruncatedSeries) -> DerivationReport:
    """val_Y(sigma(f) - f) >= val_Y(sigma(z) - z), with equality exactly when
    the reduction of f has nonvanishing derivative."""
    K, G = action.field, action.group
    if g == G.identity:
        raise DiskError("sigma must be nontrivial")
    rhs = action.displacement_valuation(g)
    if rhs <= 0:
        raise DiskError("sigma is not in the inertia subgroup")
    for c in f.coeffs:
        v = K.val(c)
        if v is not None and v < 0:
            raise DiskError("f must have integral coefficients")
    if action.kind == "mobius":
        sigma_z = mobius_to_series(action.maps[g], K, f.precision)
    else:
        sigma_z = action.maps[g]
    if not sigma_z.coeffs[0].is_zero() and K.val(sigma_z.coeffs[0]) <= 0:
        raise DiskError("sigma(z) must map 0 into the disk")
    sigma_f = f.compose(sigma_z)
    diff = sigma_f - f
    if diff.is_zero():
        raise PrecisionError("sigma(f) - f vanishes to working precision")
    lhs = gauss_valuation_poly(K, diff.coeffs)
    dbar = any(i % K.p != 0 and K.val(c) == 0
               for i, c in enumerate(f.coeffs) if i >= 1 and not c.is_zero())
    return DerivationReport(
        lhs=lhs, rhs=rhs, inequality_ok=lhs >= rhs,
        reduction_derivative_nonzero=dbar,
        equality_matches_criterion=(lhs == rhs) == dbar)

