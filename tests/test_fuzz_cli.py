"""Random JSON files through the `hg` loaders: every command exits with a
documented code (0, 3, 64 or 65) and never raises.  Each file is drawn
well formed, and then, half of the time, one part of it (possibly the whole
file) is replaced by arbitrary JSON, so that both the loaders' checks and
the computations behind them run.  Parameters are kept small, so that no
well-formed group makes an example slow."""

import contextlib
import copy
import io
import json
import os
import tempfile
from datetime import timedelta

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hurwitz.cli import main
from hurwitz.groups import GroupError, build_group

ANY_JSON = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(-3, 12),
              st.text(max_size=4)),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=5), inner, max_size=3),
    max_leaves=8)


def _paths(data, path=()):
    yield path
    if isinstance(data, dict):
        items = data.items()
    elif isinstance(data, list):
        items = enumerate(data)
    else:
        return
    for key, value in items:
        yield from _paths(value, path + (key,))


@st.composite
def perturbed(draw, strategy):
    """A draw of strategy, with one node replaced by any JSON half of the
    time."""
    data = draw(strategy)
    if draw(st.booleans()):
        path = draw(st.sampled_from(list(_paths(data))))
        junk = draw(ANY_JSON)
        if not path:
            return junk
        data = copy.deepcopy(data)
        node = data
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = junk
    return data


def builder(name, **fields):
    return st.fixed_dictionaries({"builder": st.just(name),
                                  "params": st.fixed_dictionaries(fields)})


GROUP = st.recursive(
    st.one_of(
        builder("cyclic", n=st.integers(1, 9)),
        builder("dihedral", n=st.integers(1, 6)),
        builder("generalized_quaternion", n=st.integers(2, 4)),
        builder("elementary_abelian", p=st.sampled_from([2, 3, 5]),
                k=st.integers(0, 3)),
        st.sampled_from([(7, 3, 2), (5, 4, 2), (9, 6, 2), (3, 2, 2)]).map(
            lambda a: {"builder": "semidirect_metacyclic", "params": dict(
                zip(("pm", "mprime", "action"), a))}),
        st.fixed_dictionaries({"permutations": st.lists(
            st.permutations(range(4)), min_size=1, max_size=2)})),
    lambda inner: st.fixed_dictionaries({
        "builder": st.just("direct_product"),
        "factors": st.lists(inner, min_size=1, max_size=2)}),
    max_leaves=3)


def class_count(spec):
    try:
        return len(build_group(spec).conjugacy_classes())
    except GroupError:
        return 1


RATIONAL = st.one_of(st.integers(-3, 3).map(str),
                     st.sampled_from(["1/2", "-2/3", "1/0", "0.5"]))

VALUE = st.one_of(
    RATIONAL,
    st.fixed_dictionaries({"conductor": st.sampled_from([1, 2, 3, 4, 8]),
                           "coeffs": st.lists(RATIONAL, max_size=4)}))

CHAR_FILE = GROUP.flatmap(lambda spec: st.fixed_dictionaries(
    {"group": st.just(spec),
     "values": st.lists(VALUE, min_size=class_count(spec),
                        max_size=class_count(spec))}))

SUBGROUP = st.sampled_from(["G", "1", "<s>", "<r>", "<f>", "<e1>",
                            "<e1,e2>", "<tau>", "<sigma>", "<a1>"])


@st.composite
def tree_file(draw):
    size = draw(st.integers(1, 5))
    return {
        "group": draw(GROUP),
        "p": draw(st.sampled_from([2, 3])),
        "vertices": [{"id": v, "monodromy": draw(SUBGROUP)}
                     for v in range(size)],
        "edges": [{"from": draw(st.integers(0, v - 1)), "to": v,
                   "eps": draw(st.sampled_from(["0", "1/2", "1", "2"]))}
                  for v in range(1, size)],
    }


GENERATOR = st.one_of(
    st.fixed_dictionaries({"mobius": st.lists(
        st.lists(VALUE, min_size=2, max_size=2), min_size=2, max_size=2)}),
    st.fixed_dictionaries({"series": st.fixed_dictionaries(
        {"coeffs": st.lists(VALUE, min_size=1, max_size=4)})}))

ACTION_FILE = st.fixed_dictionaries(
    {"field": st.fixed_dictionaries({"p": st.sampled_from([2, 3]),
                                     "m": st.integers(1, 2)}),
     "group": GROUP,
     "generators": st.dictionaries(
         st.sampled_from(["s", "r", "f", "e1", "e2"]), GENERATOR,
         min_size=1, max_size=2)})

COMMANDS = {
    "group info": (["group", "info"], GROUP),
    "char table": (["char", "table"], GROUP),
    "obstruct bertin": (["obstruct", "bertin"], CHAR_FILE),
    "tree validate": (["tree", "validate"], tree_file()),
    "disk depth": (["disk", "depth"], ACTION_FILE),
}


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_random_json_exits_with_a_documented_code(command):
    argv, files = COMMANDS[command]

    @settings(max_examples=60, derandomize=True, database=None,
              deadline=timedelta(seconds=10))
    @given(perturbed(files))
    def check(data):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "input.json")
            with open(path, "w") as fh:
                json.dump(data, fh)
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                code = main(argv + [path])
        assert code in (0, 3, 64, 65), (code, err.getvalue())

    check()
