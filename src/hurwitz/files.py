"""Reading and writing the JSON file formats used by the command line.

Conventions: rationals are decimal-free strings "a/b"; cyclotomic numbers
are objects {"conductor": N, "coeffs": ["a/b", ...]}; subgroup classes are
named "G", "1", or "<g1,g2>" by generator words; group references are
either an inline builder object or a path to a group file.
"""

from __future__ import annotations

import json
import math
import os
from fractions import Fraction
from typing import Dict, Optional, Union

from .characters import ClassFunction
from .cyclotomic import Cyclotomic
from .disk import DiskAction
from .groups import FiniteGroup, GroupError, SubgroupClass, build_group, \
    is_prime, subgroup_class_of
from .localfield import CycloLocalField, MobiusMap, TruncatedSeries
from .trees import HurwitzTree, LiftedTree, RootedMetricTree, TreeError, \
    build_hurwitz_tree

SCHEMA = "hg/1"


class FileFormatError(ValueError):
    pass


# -- scalars --

def parse_rational(s) -> Fraction:
    """Accept "a/b", "a", or an int; floats are rejected."""
    if isinstance(s, bool) or isinstance(s, float):
        raise FileFormatError(f"rational expected, got {s!r}")
    if isinstance(s, int):
        return Fraction(s)
    if any(ch in str(s) for ch in ".eE"):
        raise FileFormatError(f"rationals must be decimal-free a/b: {s!r}")
    try:
        return Fraction(str(s))
    except (ValueError, ZeroDivisionError) as exc:
        raise FileFormatError(f"bad rational {s!r}: {exc}") from None


def format_rational(q) -> str:
    return str(Fraction(q))


def parse_cyclotomic(obj, conductor: int) -> Cyclotomic:
    """A rational or a cyclotomic literal in Q(zeta_conductor), the ambient
    field.  A literal whose conductor does not divide `conductor` is refused
    before any arithmetic: its cost would grow with the conductor."""
    if isinstance(obj, dict):
        try:
            n = obj["conductor"]
            coeffs = obj["coeffs"]
        except (KeyError, TypeError):
            raise FileFormatError(
                f"cyclotomic object needs conductor/coeffs: {obj!r}"
            ) from None
        if isinstance(n, bool) or not isinstance(n, int) or n < 1 \
                or not isinstance(coeffs, list):
            raise FileFormatError(
                f"cyclotomic object needs a positive integer conductor and "
                f"a coeffs list: {obj!r}")
        if conductor % n:
            raise FileFormatError(
                f"cyclotomic conductor {n} does not divide {conductor}, the "
                f"conductor of the ambient field: {obj!r}")
        return Cyclotomic(n, [parse_rational(c) for c in coeffs])
    return Cyclotomic.from_rational(parse_rational(obj))


def format_cyclotomic(x: Cyclotomic):
    """Rationals collapse to "a/b"; anything else keeps its conductor."""
    x = x.descend()
    if x.n == 1:
        return format_rational(x.coeffs[0] if x.coeffs else 0)
    return {"conductor": x.n,
            "coeffs": [format_rational(c) for c in x.coeffs]}


# -- groups --

def load_json(path: str) -> dict:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise FileFormatError(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise FileFormatError(f"{path} is not valid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise FileFormatError(f"{path}: top level must be a JSON object")
    return data


def _container(data: dict, key: str, kind: type, path: str):
    """data[key], or an empty kind when absent; any other JSON type there
    is a format error."""
    value = data.get(key, kind())
    if not isinstance(value, kind):
        raise FileFormatError(f"{path}: {key!r} must be a JSON "
                              f"{'array' if kind is list else 'object'}")
    return value


def resolve_group(ref, base_dir: str = ".") -> FiniteGroup:
    """A group reference: an inline builder object or a path string."""
    if isinstance(ref, str):
        path = ref if os.path.isabs(ref) else os.path.join(base_dir, ref)
        ref = load_json(path)
    if not isinstance(ref, dict):
        raise FileFormatError(f"bad group reference {ref!r}")
    try:
        return build_group(ref)
    except (GroupError, KeyError, TypeError, ValueError) as exc:
        raise FileFormatError(f"bad group description: {exc}") from None


def parse_subgroup(G: FiniteGroup, name: str) -> SubgroupClass:
    """Subgroup-class names: "G", "1", or "<word,word>"."""
    if not isinstance(name, str):
        raise FileFormatError(f"subgroup name must be a string: {name!r}")
    if name == "G":
        return subgroup_class_of(G, range(G.n))
    if name == "1":
        return subgroup_class_of(G, [G.identity])
    if name.startswith("<") and name.endswith(">"):
        gens = [G.element_by_name(w.strip()) for w in name[1:-1].split(",")]
        return subgroup_class_of(G, G.closure(gens))
    raise FileFormatError(f"bad subgroup name {name!r}")


# -- class functions --

def parse_class_function(G: FiniteGroup, values) -> ClassFunction:
    """One value per conjugacy class, each in Q(zeta_N), N = lcm(2, exp G)."""
    N = math.lcm(2, G.exponent())
    return ClassFunction(G, [parse_cyclotomic(v, N) for v in values])


def load_char_file(path: str) -> ClassFunction:
    data = load_json(path)
    base = os.path.dirname(path) or "."
    G = resolve_group(data.get("group"), base)
    classes = G.conjugacy_classes()
    values = data.get("values")
    if not isinstance(values, list) or len(values) != len(classes):
        raise FileFormatError(
            f"{path}: need one value per conjugacy class ({len(classes)})")
    if "classes" in data:
        reps = [G.names[min(c)] for c in classes]
        if list(data["classes"]) != reps:
            raise FileFormatError(
                f"{path}: class labels must be {reps} in this order")
    return parse_class_function(G, values)


def class_function_json(f: ClassFunction) -> dict:
    G = f.group
    return {"classes": [G.names[min(c)] for c in G.conjugacy_classes()],
            "values": [format_cyclotomic(v) for v in f.values]}


# -- Hurwitz trees --

def load_tree_file(path: str) -> HurwitzTree:
    data = load_json(path)
    base = os.path.dirname(path) or "."
    G = resolve_group(data.get("group"), base)
    p = data.get("p")
    if not is_prime(p):
        raise FileFormatError(f"{path}: 'p' must be a prime, got {p!r}")
    monodromy: Dict[int, SubgroupClass] = {}
    ids = []
    for v in _container(data, "vertices", list, path):
        vid = v.get("id") if isinstance(v, dict) else None
        if not isinstance(vid, int):
            raise FileFormatError(f"{path}: vertex without integer id: {v!r}")
        ids.append(vid)
        if "monodromy" in v:
            monodromy[vid] = parse_subgroup(G, v["monodromy"])
    for key, name in _container(data, "leaf_monodromy", dict, path).items():
        try:
            vid = int(key)
        except ValueError:
            raise FileFormatError(
                f"{path}: leaf_monodromy keys must be vertex ids: {key!r}"
            ) from None
        monodromy[vid] = parse_subgroup(G, name)
    edges = []
    for e in _container(data, "edges", list, path):
        try:
            edges.append((int(e["from"]), int(e["to"]),
                          parse_rational(e["eps"])))
        except (KeyError, TypeError, ValueError):
            raise FileFormatError(
                f"{path}: edge needs from/to/eps: {e!r}") from None
    targets = {t for _, t, _ in edges}
    roots = [v for v in ids if v not in targets]
    if len(roots) != 1:
        raise FileFormatError(
            f"{path}: edges must orient away from a unique root, "
            f"candidates {sorted(roots)}")
    try:
        T = RootedMetricTree(roots[0], edges)
    except TreeError as exc:
        raise FileFormatError(f"{path}: {exc}") from None
    undeclared = [v for v in T.vertices if v not in ids and v not in monodromy]
    if undeclared:
        raise FileFormatError(
            f"{path}: edges reach undeclared vertices {undeclared}")
    missing = [v for v in ids if v not in monodromy]
    if missing:
        raise FileFormatError(
            f"{path}: vertices without monodromy: {missing}")
    delta_root = None
    if "delta_root" in data:
        vals = data["delta_root"]
        if not isinstance(vals, list) or \
                len(vals) != len(G.conjugacy_classes()):
            raise FileFormatError(f"{path}: delta_root needs one value "
                                  "per conjugacy class")
        delta_root = parse_class_function(G, vals)
    return build_hurwitz_tree(T, G, p, monodromy, delta_root)


def tree_json(ht: HurwitzTree,
              group_ref: Optional[Union[str, dict]] = None) -> dict:
    T = ht.tree
    out = {
        "p": ht.p,
        "vertices": [{"id": v, "monodromy": ht.monodromy[v].name()}
                     for v in sorted(ht.monodromy)],
        "edges": [{"from": s, "to": t, "eps": format_rational(eps)}
                  for s, t, eps in T.edges],
    }
    if group_ref is not None:
        out["group"] = group_ref
    root_depth = ht.depth[T.root]
    if any(not v.is_zero() for v in root_depth.values):
        out["delta_root"] = [format_cyclotomic(v) for v in root_depth.values]
    return out


def tree_dot(ht: HurwitzTree) -> str:
    """Graphviz source: vertices carry monodromy names, edges carry eps."""
    lines = ["digraph hurwitz_tree {", "  rankdir=TB;"]
    for v in sorted(ht.monodromy):
        shape = "doublecircle" if v == ht.tree.root else (
            "box" if ht.tree.is_leaf(v) else "circle")
        label = f"{v}: {ht.monodromy[v].name()}"
        lines.append(f'  v{v} [label="{label}", shape={shape}];')
    for s, t, eps in ht.tree.edges:
        lines.append(f'  v{s} -> v{t} [label="{Fraction(eps)}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def lifted_tree_dot(lt: LiftedTree, G: FiniteGroup) -> str:
    lines = ["digraph lifted_tree {", "  rankdir=TB;"]
    for vid, (base, coset) in enumerate(lt.vertices):
        stab = lt.stabilizer[vid]
        label = f"{base}.{min(coset)} |stab|={len(stab)}"
        lines.append(f'  n{vid} [label="{label}"];')
    for s, t, eps in lt.edges:
        lines.append(f'  n{s} -> n{t} [label="{Fraction(eps)}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


# -- disk actions --

def load_action_file(path: str, precision: int = 24) -> DiskAction:
    data = load_json(path)
    base = os.path.dirname(path) or "."
    field_spec = data.get("field")
    try:
        field = CycloLocalField(field_spec["p"], field_spec["m"])
    except (KeyError, TypeError, ValueError) as exc:
        raise FileFormatError(f"{path}: bad field spec: {exc}") from None
    N = math.lcm(2, field.n)
    G = resolve_group(data.get("group"), base)
    gens = {}
    for name, desc in _container(data, "generators", dict, path).items():
        if not isinstance(desc, dict):
            raise FileFormatError(f"{path}: bad generator {name!r}")
        if "mobius" in desc:
            rows = desc["mobius"]
            try:
                (a, b), (c, d) = rows
            except (TypeError, ValueError):
                raise FileFormatError(
                    f"{path}: generator {name!r} needs a 2x2 matrix"
                ) from None
            gens[name] = MobiusMap(*(parse_cyclotomic(x, N)
                                     for x in (a, b, c, d)))
        elif "series" in desc:
            spec = desc["series"]
            try:
                coeffs = [parse_cyclotomic(c, N) for c in spec["coeffs"]]
            except (KeyError, TypeError):
                raise FileFormatError(
                    f"{path}: series generator {name!r} needs a 'coeffs' "
                    "list") from None
            prec = spec.get("precision", max(len(coeffs), precision))
            gens[name] = TruncatedSeries(field, coeffs, prec)
        else:
            raise FileFormatError(
                f"{path}: generator {name!r} needs 'mobius' or 'series'")
    if not gens:
        raise FileFormatError(f"{path}: no generators given")
    return DiskAction(field, G, gens)


# -- reports --

def report_text(payload: dict, indent: int = 0) -> str:
    """Flat human-readable rendering of a JSON payload."""
    pad = "  " * indent
    lines = []
    for key in payload:
        val = payload[key]
        if isinstance(val, dict):
            lines.append(f"{pad}{key}:")
            lines.append(report_text(val, indent + 1))
        elif isinstance(val, list) and any(
                isinstance(x, (dict, list)) for x in val):
            lines.append(f"{pad}{key}:")
            for x in val:
                if isinstance(x, dict):
                    lines.append(report_text(x, indent + 1))
                else:
                    lines.append(f"{pad}  {x}")
        else:
            if isinstance(val, list):
                val = " ".join(str(x) for x in val)
            lines.append(f"{pad}{key}: {val}")
    return "\n".join(lines)


def report_json(payload: dict) -> str:
    """Deterministic, versioned serialization of a report payload."""
    body = dict(payload)
    body["schema"] = SCHEMA
    return json.dumps(body, sort_keys=True, separators=(", ", ": "),
                      indent=1) + "\n"
