"""The scripts under tools/: bench_pair.py pairs only runs of the
benchmark's run length, and lp_replay.py compares two solvers field by
field."""

import importlib.util
import json
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_tool(name):
    spec = importlib.util.spec_from_file_location(
        f"tool_{name}", os.path.join(ROOT, "tools", f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _write_result(out_dir, workload, seed, seconds):
    path = out_dir / f"{workload}-seed{seed}-trace0.json"
    path.write_text(json.dumps({"env": {"seconds": seconds}}))


def test_bench_pair_skips_runs_of_another_length(tmp_path, capsys):
    bench_pair = load_tool("bench_pair")
    _write_result(tmp_path, "quaternion", 1, 25)
    _write_result(tmp_path, "quaternion", 2, 0)
    _write_result(tmp_path, "group_catalog", 3, 10.0)
    runs = bench_pair.load_runs(str(tmp_path), 25)
    assert list(runs) == [("quaternion", 0, 1)]
    err = capsys.readouterr().err
    assert "quaternion-seed2-trace0.json: a 0 s run, not 25 s" in err
    assert "group_catalog-seed3-trace0.json: a 10.0 s run" in err


def _corpus(path, records):
    with open(path, "w") as fh:
        for c, A, b, status, farkas in records:
            fh.write(json.dumps({
                "c": [str(v) for v in c],
                "A": [[str(v) for v in row] for row in A],
                "b": [str(v) for v in b], "status": status,
                "objective": None, "x": None, "farkas": farkas}) + "\n")


def test_lp_replay_against_a_checkout(tmp_path, capsys):
    lp_replay = load_tool("lp_replay")
    corpus = tmp_path / "tiny-lp.jsonl"
    # one infeasible LP as recorded, then one whose recorded status is wrong
    _corpus(corpus, [([0], [[1], [1]], [1, 2], "infeasible", ["-1", "1"]),
                     ([0], [[1], [1]], [1, 2], "optimal", None)])
    solvers = [lp_replay.load_solver(ROOT, "replay_lp"),
               lp_replay.load_solver(ROOT, "replay_lp_against")]
    records, mismatches, pivots, best = lp_replay.replay(str(corpus),
                                                         solvers, 2)
    assert (records, mismatches, pivots) == (2, 1, 2)
    assert len(best) == 2 and all(t > 0 for t in best)
    assert "tiny-lp.jsonl:2: status infeasible, recorded optimal" in \
        capsys.readouterr().out

    def one_more_pivot(c, A, b):
        res = solvers[0](c, A, b)
        res.pivots += 1
        return res

    _, mismatches, _, _ = lp_replay.replay(str(corpus),
                                           [solvers[0], one_more_pivot], 1)
    assert mismatches == 2
    assert "tiny-lp.jsonl:1: pivots 1, other checkout 2" in \
        capsys.readouterr().out
    with pytest.raises(SystemExit) as stop:
        lp_replay.main([str(corpus), "--against", ROOT])
    assert stop.value.code == 1
