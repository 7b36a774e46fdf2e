"""`hg` command line: groups, characters, Hurwitz trees, disk actions,
and the lifting-obstruction search.

Exit codes: 0 success (or witness found), 2 precision failure, 3 obstruction
detected (`obstruct` / `quaternion` only), 64 unparseable input, 65 domain
error (a violated precondition or axiom, named in the message).
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction

from . import __version__
from .characters import CharacterError, character_table, inner_product, pair
from .charp import CharPError
from .cyclotomic import Cyclotomic
from .disk import (DiskError, PrecisionError, artin_character,
                   boundary_shift_check, break_decomposition, depth_character)
from .files import (FileFormatError, class_function_json, format_cyclotomic,
                    format_rational, lifted_tree_dot, load_action_file,
                    load_char_file, load_json, load_tree_file,
                    parse_class_function, parse_rational, report_json,
                    report_text, resolve_group, tree_dot, tree_json)
from .groups import GroupError, subgroup_classes
from .localfield import FieldError
from .lp import LPError
from .obstruction import (ObstructionError, bertin_check,
                          hurwitz_feasibility, quaternion_report)
from .trees import TreeError, density, equivariant_lift, validate

EXIT_OK = 0
EXIT_PRECISION = 2
EXIT_OBSTRUCTION = 3
EXIT_PARSE = 64
EXIT_DOMAIN = 65


class CLIError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise CLIError(EXIT_PARSE, f"argument error: {message}")


def _emit(args, payload: dict, dot: str = None) -> None:
    if args.format == "dot":
        if dot is None:
            raise CLIError(EXIT_PARSE,
                           "dot output is not defined for this subcommand")
        sys.stdout.write(dot)
    elif args.format == "json":
        sys.stdout.write(report_json(payload))
    else:
        sys.stdout.write(report_text(payload) + "\n")


def _scalar(x):
    if isinstance(x, Cyclotomic):
        return format_cyclotomic(x)
    if isinstance(x, Fraction):
        return format_rational(x)
    return x


# -- subcommands --

def cmd_group_info(args) -> int:
    G = resolve_group(args.file, ".")
    cyc = subgroup_classes(G, cyclic_only=True)
    payload = {
        "order": G.n,
        "exponent": G.exponent(),
        "conjugacy_classes": len(G.conjugacy_classes()),
        "cyclic_subgroup_classes": [
            {"name": C.name(), "order": C.order,
             "conjugates": len(C.conjugates())} for C in cyc],
    }
    _emit(args, payload)
    return EXIT_OK


def cmd_char_table(args) -> int:
    G = resolve_group(args.file, ".")
    chars = character_table(G)
    classes = G.conjugacy_classes()
    payload = {
        "classes": [{"rep": G.names[min(c)], "size": len(c)}
                    for c in classes],
        "irreducibles": [[format_cyclotomic(v) for v in chi.values]
                         for chi in chars],
    }
    _emit(args, payload)
    return EXIT_OK


def cmd_char_pair(args) -> int:
    f = load_char_file(args.f)
    g = load_char_file(args.g)
    if f.group.n != g.group.n or f.group.table != g.group.table:
        raise CLIError(EXIT_DOMAIN,
                       "char pair: the two characters live on different "
                       "groups")
    if g.group is not f.group:
        g = type(f)(f.group, g.values)
    payload = {"inner_product": format_cyclotomic(inner_product(f, g))}
    try:
        payload["pairing"] = format_rational(pair(f, g))
    except (CharacterError, ValueError):
        pass
    _emit(args, payload)
    return EXIT_OK


def cmd_tree_validate(args) -> int:
    ht = load_tree_file(args.file)
    results = validate(ht)
    failures = []
    axioms = {}
    for name, (ok, offenders) in results.items():
        axioms[name] = {"ok": ok}
        if not ok:
            axioms[name]["offenders"] = [str(x) for x in offenders]
            failures.append(name)
    payload = {
        "ok": not failures,
        "axioms": axioms,
        "artin_character": class_function_json(ht.artin_character),
        "depth_character": class_function_json(ht.depth_character),
    }
    _emit(args, payload, dot=tree_dot(ht))
    if failures:
        sys.stderr.write("tree validate: violated " + ", ".join(
            f"({n}) at {results[n][1]}" for n in failures) + "\n")
        return EXIT_DOMAIN
    return EXIT_OK


def cmd_tree_density(args) -> int:
    ht = load_tree_file(args.file)
    T = ht.tree
    b = args.at
    if b not in T.leaves:
        raise CLIError(EXIT_DOMAIN,
                       f"tree density: vertex {b} is not a leaf")
    payload = {
        "leaf": b,
        "densities": {
            str(set_name): format_rational(density(T, A, b))
            for set_name, A in _leaf_subsets(T, b)
        },
    }
    _emit(args, payload)
    return EXIT_OK


def _leaf_subsets(T, b):
    others = [x for x in sorted(T.leaves) if x != b]
    yield "all", sorted(T.leaves)
    for x in others:
        yield f"{{{b},{x}}}", [b, x]


def cmd_tree_lift(args) -> int:
    ht = load_tree_file(args.file)
    lt = equivariant_lift(ht.tree, ht.group, ht.monodromy)
    payload = {
        "vertices": len(lt.vertices),
        "edges": len(lt.edges),
        "stabilizer_orders": sorted(
            {len(s) for s in lt.stabilizer.values()}),
    }
    _emit(args, payload, dot=lifted_tree_dot(lt, ht.group))
    return EXIT_OK


def cmd_disk_depth(args) -> int:
    action = load_action_file(args.file, precision=args.precision)
    delta = depth_character(action)
    _emit(args, {"depth_character": class_function_json(delta)})
    return EXIT_OK


def cmd_disk_artin(args) -> int:
    action = load_action_file(args.file, precision=args.precision)
    a, fps = artin_character(action)
    payload = {
        "artin_character": class_function_json(a),
        "fixed_point_verdict": fps.verdict,
        "notice": fps.notice,
    }
    _emit(args, payload)
    return EXIT_OK


def cmd_disk_breaks(args) -> int:
    action = load_action_file(args.file, precision=args.precision)
    breaks, total = break_decomposition(action)
    delta = depth_character(action)
    payload = {
        "breaks": [{"h": format_rational(br.h),
                    "subgroup_order": len(br.subgroup),
                    "weight": format_rational(br.weight)}
                   for br in breaks],
        "reassembled": class_function_json(total),
        "matches_depth": total == delta,
    }
    _emit(args, payload)
    return EXIT_OK if total == delta else EXIT_DOMAIN


def cmd_disk_shift(args) -> int:
    action = load_action_file(args.file, precision=args.precision)
    eps = parse_rational(args.eps)
    center = Cyclotomic.from_rational(parse_rational(args.center))
    rep = boundary_shift_check(action, eps, center)
    payload = {
        "ok": rep.ok,
        "eps": format_rational(rep.eps),
        "depth_outer": class_function_json(rep.depth_outer),
        "depth_inner": class_function_json(rep.depth_inner),
        "shift_character": class_function_json(rep.shift_character),
        "valuation_identity": rep.valuation_identity_ok,
        "fixed_points_inside": rep.fixed_points_inside,
    }
    _emit(args, payload)
    return EXIT_OK if rep.ok else EXIT_DOMAIN


def cmd_obstruct_bertin(args) -> int:
    a = _load_char(args.file, args.group)
    decomps = bertin_check(a)
    payload = {
        "vanishes": bool(decomps),
        "decompositions": [[C.name() for C in d] for d in decomps],
    }
    _emit(args, payload)
    return EXIT_OK if decomps else EXIT_OBSTRUCTION


def _load_char(path, group_ref):
    if group_ref is None:
        return load_char_file(path)
    data = load_json(path)
    G = resolve_group(group_ref, ".")
    values = data.get("values", [])
    if len(values) != len(G.conjugacy_classes()):
        raise FileFormatError(
            f"{path}: need one value per conjugacy class "
            f"({len(G.conjugacy_classes())})")
    return parse_class_function(G, values)


def cmd_obstruct_hurwitz(args) -> int:
    a = _load_char(args.file, args.group)
    report = hurwitz_feasibility(a.group, args.p, a)
    payload = {
        "verdict": report.verdict,
        "p": report.p,
        "decompositions": [[C.name() for C in d]
                           for d in report.decompositions],
        "shapes_tried": report.shapes_tried,
        "lp_runs": report.lp_runs,
    }
    if report.witness is not None:
        wt = tree_json(report.witness)
        payload["witness"] = wt
        payload["witness_eps"] = [format_rational(e)
                                  for _, _, e in report.witness.tree.edges]
        if args.emit_witness:
            with open(args.emit_witness, "w") as fh:
                fh.write(report_json(wt))
        if args.emit_dot:
            with open(args.emit_dot, "w") as fh:
                fh.write(tree_dot(report.witness))
    _emit(args, payload,
          dot=tree_dot(report.witness) if report.witness else None)
    return EXIT_OK if report.verdict == "witness" else EXIT_OBSTRUCTION


def cmd_quaternion(args) -> int:
    rep = quaternion_report(args.n)
    payload = {
        "n": rep.n,
        "group_order": rep.group.n,
        "subgroups": rep.subgroup_names,
        "cyclic_classification_ok": rep.cyclic_classification_ok,
        "klein_artin_pairings": [format_rational(x)
                                 for x in rep.klein_artin_pairings],
        "chi_pairings": [format_rational(x) for x in rep.chi_pairings],
        "psi_u_pairings_all_two": rep.psi_u_pairings_all_two,
        "psi_leaf_depth": format_rational(rep.psi_leaf_depth),
        "density_terms": [format_rational(x) for x in rep.density_terms],
        "density_lower": format_rational(rep.density_lower),
        "density_upper": format_rational(rep.density_upper),
        "contradiction": (f"{rep.density_lower} <= {rep.density_upper} "
                          "fails" if rep.contradiction else "none"),
        "minimal_candidates": rep.minimal_candidates,
        "verdicts": rep.verdicts,
        "shapes_tried": rep.obstruction.shapes_tried,
        "verdict": rep.obstruction.verdict,
    }
    _emit(args, payload)
    return (EXIT_OBSTRUCTION if rep.obstruction.verdict == "infeasible"
            else EXIT_OK)


# -- argument wiring --

def build_parser() -> _Parser:
    top = _Parser(prog="hg", description=__doc__)
    top.add_argument("--version", action="version",
                     version=f"hg {__version__}")
    sub = top.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def common(p, dot_ok=False):
        p.add_argument("--format", choices=("text", "json", "dot")
                       if dot_ok else ("text", "json"), default="text")
        p.add_argument("--precision", type=int, default=24,
                       help="z-adic working precision for series (>= 4)")

    g = sub.add_parser("group").add_subparsers(dest="sub", required=True,
                                               parser_class=_Parser)
    p = g.add_parser("info")
    p.add_argument("file")
    common(p)
    p.set_defaults(func=cmd_group_info)

    c = sub.add_parser("char").add_subparsers(dest="sub", required=True,
                                              parser_class=_Parser)
    p = c.add_parser("table")
    p.add_argument("file")
    common(p)
    p.set_defaults(func=cmd_char_table)
    p = c.add_parser("pair")
    p.add_argument("f")
    p.add_argument("g")
    common(p)
    p.set_defaults(func=cmd_char_pair)

    t = sub.add_parser("tree").add_subparsers(dest="sub", required=True,
                                              parser_class=_Parser)
    p = t.add_parser("validate")
    p.add_argument("file")
    common(p, dot_ok=True)
    p.set_defaults(func=cmd_tree_validate)
    p = t.add_parser("density")
    p.add_argument("file")
    p.add_argument("--at", type=int, required=True, help="leaf id")
    common(p)
    p.set_defaults(func=cmd_tree_density)
    p = t.add_parser("lift")
    p.add_argument("file")
    common(p, dot_ok=True)
    p.set_defaults(func=cmd_tree_lift)

    d = sub.add_parser("disk").add_subparsers(dest="sub", required=True,
                                              parser_class=_Parser)
    for name, fn in (("depth", cmd_disk_depth), ("artin", cmd_disk_artin),
                     ("breaks", cmd_disk_breaks)):
        p = d.add_parser(name)
        p.add_argument("file")
        common(p)
        p.set_defaults(func=fn)
    p = d.add_parser("shift")
    p.add_argument("file")
    p.add_argument("--eps", required=True)
    p.add_argument("--center", default="0")
    common(p)
    p.set_defaults(func=cmd_disk_shift)

    o = sub.add_parser("obstruct").add_subparsers(dest="sub", required=True,
                                                  parser_class=_Parser)
    p = o.add_parser("bertin")
    p.add_argument("file")
    p.add_argument("--group", default=None)
    common(p)
    p.set_defaults(func=cmd_obstruct_bertin)
    p = o.add_parser("hurwitz")
    p.add_argument("file")
    p.add_argument("--group", default=None)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--emit-witness", default=None)
    p.add_argument("--emit-dot", default=None)
    common(p, dot_ok=True)
    p.set_defaults(func=cmd_obstruct_hurwitz)

    p = sub.add_parser("quaternion")
    p.add_argument("--n", type=int, default=2)
    common(p)
    p.set_defaults(func=cmd_quaternion)

    return top


_DOMAIN_ERRORS = (CharacterError, CharPError, DiskError, FieldError,
                  GroupError, LPError, ObstructionError, TreeError,
                  ValueError)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "precision", 4) < 4:
            raise CLIError(EXIT_PARSE, "--precision must be >= 4")
        return args.func(args)
    except CLIError as exc:
        sys.stderr.write(f"hg: {exc}\n")
        return exc.code
    except FileFormatError as exc:
        sys.stderr.write(f"hg: parse error: {exc}\n")
        return EXIT_PARSE
    except PrecisionError as exc:
        sys.stderr.write(f"hg: precision exhausted: {exc}\n")
        return EXIT_PRECISION
    except _DOMAIN_ERRORS as exc:
        sys.stderr.write(f"hg: {type(exc).__name__}: {exc}\n")
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
