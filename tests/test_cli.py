import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest

import hurwitz
from hurwitz.characters import augmentation_char
from hurwitz.cli import main
from hurwitz.cyclotomic import Cyclotomic
from hurwitz.files import (FileFormatError, format_cyclotomic,
                           format_rational, load_char_file, load_tree_file,
                           parse_cyclotomic, parse_rational, parse_subgroup,
                           resolve_group)
from hurwitz.groups import generalized_quaternion

Q8_REF = {"builder": "generalized_quaternion", "params": {"n": 2}}
Z2_REF = {"builder": "cyclic", "params": {"n": 2}}

TREE_Z2 = {
    "group": Z2_REF, "p": 2,
    "vertices": [{"id": 0, "monodromy": "G"}, {"id": 1, "monodromy": "G"},
                 {"id": 2, "monodromy": "G"}, {"id": 3, "monodromy": "G"}],
    "edges": [{"from": 0, "to": 1, "eps": "2"},
              {"from": 1, "to": 2, "eps": "0"},
              {"from": 1, "to": 3, "eps": "0"}],
}

ACT_LIN4 = {
    "field": {"p": 2, "m": 2},
    "group": {"builder": "cyclic", "params": {"n": 4}},
    "generators": {"s": {"mobius": [
        [{"conductor": 4, "coeffs": ["0", "1"]}, "0"], ["0", "1"]]}},
}


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_fresh(args, timeout):
    """`python args` in a new interpreter that imports this hurwitz package;
    raises subprocess.TimeoutExpired after `timeout` seconds."""
    src = os.path.dirname(os.path.dirname(hurwitz.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, timeout=timeout, env=env)


# -- serialization units --

def test_rational_round_trip():
    for s in ("3/4", "-7", "0", "11/3"):
        assert format_rational(parse_rational(s)) == s
    with pytest.raises(FileFormatError):
        parse_rational("0.5")
    with pytest.raises(FileFormatError):
        parse_rational(1.5)


def test_cyclotomic_round_trip():
    x = Cyclotomic.zeta(8) + Cyclotomic.from_rational(Fraction(1, 2))
    enc = format_cyclotomic(x)
    assert parse_cyclotomic(enc, 8) == x
    with pytest.raises(FileFormatError, match="does not divide 4"):
        parse_cyclotomic(enc, 4)
    assert format_cyclotomic(Cyclotomic.zeta(2)) == "-1"


def test_parse_subgroup_names():
    G = generalized_quaternion(2)
    assert parse_subgroup(G, "G").order == 8
    assert parse_subgroup(G, "1").order == 1
    assert parse_subgroup(G, "<tau>").order == 4
    with pytest.raises(Exception):
        parse_subgroup(G, "<nope>")


def test_load_char_file(write_json):
    path = write_json("a.json", {"group": Z2_REF, "values": ["2", "-2"]})
    a = load_char_file(path)
    assert a == augmentation_char(a.group) * 2
    bad = write_json("b.json", {"group": Z2_REF, "values": ["2"]})
    with pytest.raises(FileFormatError):
        load_char_file(bad)


def test_load_tree_file(write_json):
    path = write_json("t.json", TREE_Z2)
    ht = load_tree_file(path)
    assert ht.tree.root == 0
    assert sorted(ht.tree.leaves) == [2, 3]


# -- CLI surface --

def test_group_info_exit_ok(capsys, write_json):
    path = write_json("g.json", Q8_REF)
    code, out, _ = run(capsys, "group", "info", path)
    assert code == 0
    assert "order: 8" in out


def test_json_output_is_versioned_and_deterministic(capsys, write_json):
    path = write_json("g.json", Q8_REF)
    code1, out1, _ = run(capsys, "group", "info", path, "--format", "json")
    code2, out2, _ = run(capsys, "group", "info", path, "--format", "json")
    assert code1 == code2 == 0
    assert out1 == out2
    assert json.loads(out1)["schema"] == "hg/1"


def test_char_pair(capsys, write_json):
    f = write_json("f.json", {"group": Z2_REF, "values": ["1", "-1"]})
    g = write_json("g.json", {"group": Z2_REF, "values": ["1", "-1"]})
    code, out, _ = run(capsys, "char", "pair", f, g, "--format", "json")
    assert code == 0
    assert json.loads(out)["inner_product"] == "1"


# sha256 of `hg char table FILE --format json`, recorded when every value
# was reduced by Fraction long division by Phi_n.  No benchmark op prints a
# non-rational value, so these are the guard on descend and
# format_cyclotomic.
CHAR_TABLE_GOLDEN = {
    "C12": ({"builder": "cyclic", "params": {"n": 12}},
            "131fcc9d1c875e568064d1c8445d311e8e09d0c852148efdf348f09677091573"),
    "C15": ({"builder": "cyclic", "params": {"n": 15}},
            "152d4729a2171ba163bfe15459132e23c033192d1d177a47b8ea51676fc4734b"),
    "C20": ({"builder": "cyclic", "params": {"n": 20}},
            "6345a7cfbeb0708d85467b435b2d1ee5f4dfa0824f4c1fa3529b01914a817592"),
    "D5": ({"builder": "dihedral", "params": {"n": 5}},
           "b392a7e9c9572fd4f278afb445deca380abfe66f2bb62dcfbfe6d89abe8dcd75"),
    "Q16": ({"builder": "generalized_quaternion", "params": {"n": 3}},
            "894e1decb35ba261ae127ee246dadbcec2e36f71dd38871fe2cd7531d9917941"),
    "C7:C3": ({"builder": "semidirect_metacyclic",
               "params": {"pm": 7, "mprime": 3, "action": 2}},
              "6686d303a688310433caceffeacc6e94374f718b51ac0e4ad805f847ee897265"),
    "A5": ({"permutations": [[1, 2, 0, 3, 4], [1, 2, 3, 4, 0]]},
           "8abd31ea385fe9083d11ae3b25cd1cac67c4298ceb9bac4e23dccee0e222002d"),
    "C3xD4": ({"builder": "direct_product", "factors": [
        {"builder": "cyclic", "params": {"n": 3}},
        {"builder": "dihedral", "params": {"n": 4}}]},
        "e31b2b5bd02e98abcf6c5d0c0ba46c00623d80f5499ed90887439242d1b50c94"),
    "C64": ({"builder": "cyclic", "params": {"n": 64}},
            "f73a4f71c1eb167205157b856fdcae031bfb20b41efd5820eabe75b4d2905753"),
    "Q128": ({"builder": "generalized_quaternion", "params": {"n": 6}},
             "77e50e2578c6daf19886e0805e43cb778e79e55d9f6966f1cd5f0ecaba6cac6a"),
}


def test_char_table_json_matches_golden_digests(capsys, write_json):
    for name, (spec, digest) in CHAR_TABLE_GOLDEN.items():
        path = write_json("g.json", spec)
        code, out, _ = run(capsys, "char", "table", path, "--format", "json")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest, name


def test_tree_validate_good_and_dot(capsys, write_json):
    path = write_json("t.json", TREE_Z2)
    code, out, _ = run(capsys, "tree", "validate", path)
    assert code == 0
    code, out, _ = run(capsys, "tree", "validate", path, "--format", "dot")
    assert code == 0
    assert out.startswith("digraph")


def test_tree_validate_bad_axiom(capsys, write_json):
    bad = json.loads(json.dumps(TREE_Z2))
    bad["edges"][0]["eps"] = "1"
    path = write_json("t.json", bad)
    code, _, err = run(capsys, "tree", "validate", path)
    assert code == 65
    assert "H5" in err


def test_tree_density_and_lift(capsys, write_json):
    path = write_json("t.json", TREE_Z2)
    code, out, _ = run(capsys, "tree", "density", path, "--at", "2",
                       "--format", "json")
    assert code == 0
    assert json.loads(out)["densities"]["all"] == "2"
    code, out, _ = run(capsys, "tree", "lift", path, "--format", "dot")
    assert code == 0
    assert "digraph" in out


def test_disk_pipeline(capsys, write_json):
    path = write_json("act.json", ACT_LIN4)
    code, out, _ = run(capsys, "disk", "depth", path, "--format", "json")
    assert code == 0
    assert json.loads(out)["depth_character"]["values"] == \
        ["8", "-4", "-2", "-2"]
    code, out, _ = run(capsys, "disk", "breaks", path, "--format", "json")
    assert code == 0
    assert json.loads(out)["matches_depth"] is True
    code, out, _ = run(capsys, "disk", "shift", path, "--eps", "1/2",
                       "--format", "json")
    assert code == 0
    assert json.loads(out)["ok"] is True


def test_obstruct_exit_codes(capsys, write_json):
    feas = write_json("f.json", {"group": Z2_REF, "values": ["2", "-2"]})
    code, out, _ = run(capsys, "obstruct", "hurwitz", feas, "--p", "2",
                       "--format", "json")
    assert code == 0
    assert json.loads(out)["verdict"] == "witness"
    infeas = write_json("i.json", {"group": Z2_REF, "values": ["1", "-1"]})
    code, out, _ = run(capsys, "obstruct", "hurwitz", infeas, "--p", "2",
                       "--format", "json")
    assert code == 3
    assert json.loads(out)["verdict"] == "infeasible"


@pytest.mark.parametrize("n", [1, 2])
def test_obstruct_zero_character_is_infeasible(capsys, write_json, n):
    # the zero character's one Bertin decomposition is empty, and no tree
    # has zero leaves, so no shape is tried
    zero = write_json("z.json", {"group": {"builder": "cyclic",
                                           "params": {"n": n}},
                                 "values": ["0"] * n})
    code, out, err = run(capsys, "obstruct", "hurwitz", zero, "--p", "2",
                         "--format", "json")
    assert code == 3, err
    payload = json.loads(out)
    assert payload["verdict"] == "infeasible"
    assert payload["shapes_tried"] == 0


@pytest.mark.parametrize("argv", [["bertin"], ["hurwitz", "--p", "2"]],
                         ids=["bertin", "hurwitz"])
def test_obstruct_group_option_checks_the_file(capsys, write_json, argv):
    group = write_json("g.json", Z2_REF)
    good = write_json("a.json", {"values": ["2", "-2"]})
    code, _, err = run(capsys, "obstruct", argv[0], good, "--group", group,
                       *argv[1:])
    assert code == 0, err
    for bad in ({"values": 5}, {"values": ["2"]},
                {"values": ["2", "-2"], "classes": ["x", "y"]},
                {"values": ["2", "-2"], "classes": 5}):
        path = write_json("b.json", bad)
        code, _, err = run(capsys, "obstruct", argv[0], path, "--group",
                           group, *argv[1:])
        assert code == 64, bad
        assert "Traceback" not in err


def test_obstruct_witness_emission(capsys, tmp_path, write_json):
    feas = write_json("f.json", {"group": Z2_REF, "values": ["2", "-2"]})
    wit = str(tmp_path / "wit.json")
    dot = str(tmp_path / "wit.dot")
    code, _, _ = run(capsys, "obstruct", "hurwitz", feas, "--p", "2",
                     "--emit-witness", wit, "--emit-dot", dot)
    assert code == 0
    emitted = json.loads(open(wit).read())
    assert emitted["schema"] == "hg/1"
    emitted["group"] = Z2_REF
    reread = tmp_path / "reread.json"
    reread.write_text(json.dumps(emitted))
    code, _, _ = run(capsys, "tree", "validate", str(reread))
    assert code == 0
    assert open(dot).read().startswith("digraph")


def test_obstruct_bertin_exit(capsys, write_json):
    good = write_json("g.json", {"group": Z2_REF, "values": ["2", "-2"]})
    code, _, _ = run(capsys, "obstruct", "bertin", good)
    assert code == 0
    z4 = {"builder": "cyclic", "params": {"n": 4}}
    bad = write_json("b.json", {"group": z4, "values": ["2", "2", "-2", "-2"]})
    code, _, _ = run(capsys, "obstruct", "bertin", bad)
    assert code == 3


@pytest.mark.parametrize("argv", [["bertin"], ["hurwitz", "--p", "3"]],
                         ids=["bertin", "hurwitz"])
def test_obstruct_refuses_a_character_that_is_not_rational_valued(
        capsys, write_json, argv):
    # a linear character of C3: a true character orthogonal to 1, but no
    # sum of u* characters, which are all rational-valued
    linear = write_json("a.json", {
        "group": {"builder": "cyclic", "params": {"n": 3}},
        "values": ["1", {"conductor": 3, "coeffs": ["0", "1"]},
                   {"conductor": 3, "coeffs": ["0", "0", "1"]}]})
    code, _, err = run(capsys, "obstruct", argv[0], linear, *argv[1:])
    assert code == 65
    assert "input is not rational-valued" in err
    assert "ValueError" not in err


def test_group_info_refuses_empty_direct_product(capsys, write_json):
    path = write_json("g.json", {"builder": "direct_product", "factors": []})
    code, _, err = run(capsys, "group", "info", path)
    assert code == 64
    assert "at least one factor" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("factors", ["0", ["x"], [5]])
def test_group_info_refuses_a_factor_that_is_not_an_object(capsys, write_json,
                                                           factors):
    path = write_json("g.json", {"builder": "direct_product",
                                 "factors": factors})
    code, _, err = run(capsys, "group", "info", path)
    assert code == 64
    assert "must be an object" in err


@pytest.mark.parametrize("p", [1, 4])
def test_group_info_refuses_non_prime_elementary_abelian(capsys, write_json,
                                                         p):
    path = write_json("g.json", {"builder": "elementary_abelian",
                                 "params": {"p": p, "k": 2}})
    code, _, err = run(capsys, "group", "info", path)
    assert code == 64
    assert f"p = {p} is not a prime" in err


def test_parse_error_exit_codes(capsys, tmp_path):
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    code, _, err = run(capsys, "group", "info", str(broken))
    assert code == 64
    code, _, err = run(capsys, "tree", "density", "--at")
    assert code == 64


def test_precision_is_an_option_of_the_disk_commands_only(capsys, write_json):
    code, _, err = run(capsys, "quaternion", "--precision", "8")
    assert code == 64
    assert "argument error" in err
    path = write_json("act.json", ACT_LIN4)
    code, _, err = run(capsys, "disk", "depth", path, "--precision", "3")
    assert code == 64
    assert "--precision must be >= 4" in err
    code, _, _ = run(capsys, "disk", "depth", path, "--precision", "8")
    assert code == 0


def test_domain_error_exit_code(capsys, write_json):
    act = json.loads(json.dumps(ACT_LIN4))
    act["generators"]["s"]["mobius"][0][0] = "-1"    # order 2, group is Z/4
    path = write_json("act.json", act)
    code, _, err = run(capsys, "disk", "depth", path)
    assert code == 65
    assert "DiskError" in err


@pytest.mark.parametrize("p", ["0", "1", "4"])
def test_obstruct_rejects_non_prime_p(capsys, write_json, p):
    feas = write_json("f.json", {"group": Z2_REF, "values": ["2", "-2"]})
    code, _, err = run(capsys, "obstruct", "hurwitz", feas, "--p", p)
    assert code == 65
    assert f"p = {p} is not a prime" in err
    assert "Traceback" not in err


def test_tree_edge_to_undeclared_vertex(capsys, write_json):
    tree = json.loads(json.dumps(TREE_Z2))
    tree["vertices"] = tree["vertices"][:3]
    tree["edges"][2]["to"] = 7
    code, _, err = run(capsys, "tree", "validate", write_json("t.json", tree))
    assert code == 64
    assert "undeclared vertices [7]" in err
    assert "Traceback" not in err


def test_series_generator_without_coeffs(capsys, write_json):
    act = json.loads(json.dumps(ACT_LIN4))
    act["generators"]["s"] = {"series": {"precision": 8}}
    code, _, err = run(capsys, "disk", "depth", write_json("act.json", act))
    assert code == 64
    assert "coeffs" in err
    assert "Traceback" not in err
    act["generators"] = [1]
    code, _, err = run(capsys, "disk", "depth", write_json("act.json", act))
    assert code == 64
    assert "'generators' must be a JSON object" in err


def test_cyclotomic_conductor_zero(capsys, write_json):
    bad = write_json("c.json", {"group": Z2_REF, "values": [
        {"conductor": 0, "coeffs": ["1"]}, "-2"]})
    code, _, err = run(capsys, "obstruct", "bertin", bad)
    assert code == 64
    assert "conductor" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("change", [
    {"vertices": [0, 1, 2, 3]},
    {"vertices": [{"id": 0, "monodromy": 3}]},
    {"leaf_monodromy": {"x": "G"}},
    {"edges": [{"from": "x", "to": 1, "eps": "2"}]},
    {"delta_root": 5},
    {"p": 4},
    {"vertices": 5},
    {"edges": 5},
    {"leaf_monodromy": [1]},
], ids=["vertex-not-object", "monodromy-not-string", "leaf-key",
        "edge-endpoint", "delta-root", "p-not-prime", "vertices-not-array",
        "edges-not-array", "leaf-monodromy-not-object"])
def test_malformed_tree_fields(capsys, write_json, change):
    tree = dict(TREE_Z2, **change)
    code, _, err = run(capsys, "tree", "validate", write_json("t.json", tree))
    assert code == 64
    assert "Traceback" not in err


def test_top_level_must_be_an_object(capsys, tmp_path):
    path = tmp_path / "list.json"
    path.write_text("[1, 2]")
    for argv in (("tree", "validate"), ("disk", "depth"),
                 ("obstruct", "bertin")):
        code, _, err = run(capsys, *argv, str(path))
        assert code == 64
        assert "JSON object" in err


def test_cyclotomic_conductor_must_divide_the_field(write_json):
    # a conductor this large would make the cyclotomic arithmetic run for
    # minutes; it is refused before any of it starts
    bad = write_json("c.json", {"group": Z2_REF, "values": [
        {"conductor": 100003, "coeffs": ["1"]}, "-2"]})
    res = run_fresh(["-m", "hurwitz.cli", "obstruct", "bertin", bad],
                    timeout=5)
    assert res.returncode == 64
    assert "conductor 100003 does not divide 2" in res.stderr
    assert "Traceback" not in res.stderr
    act = json.loads(json.dumps(ACT_LIN4))      # Q(zeta_4): 8 is too big
    act["generators"]["s"]["mobius"][0][0] = {"conductor": 8,
                                              "coeffs": ["0", "0", "1"]}
    res = run_fresh(["-m", "hurwitz.cli", "disk", "depth",
                     write_json("act.json", act)], timeout=5)
    assert res.returncode == 64
    assert "conductor 8 does not divide 4" in res.stderr


def test_action_field_needs_a_prime(write_json):
    act = json.loads(json.dumps(ACT_LIN4))
    act["field"] = {"p": 4, "m": 1}
    res = run_fresh(["-m", "hurwitz.cli", "disk", "depth",
                     write_json("act.json", act)], timeout=5)
    assert res.returncode == 64
    assert "need a prime p" in res.stderr
    assert "Traceback" not in res.stderr


def test_quaternion_report_does_not_import_sympy():
    # importing sympy costs about 0.45 s and 36 MB of peak RSS; other tests
    # import it into this process, so the check runs in a new one
    code = ("import sys\n"
            "from hurwitz.cli import main\n"
            "rc = main(['quaternion', '--n', '2', '--format', 'json'])\n"
            "print('sympy' in sys.modules, rc, file=sys.stderr)\n")
    res = run_fresh(["-c", code], timeout=300)
    assert res.stderr.split()[-2:] == ["False", "3"], res.stderr
