import importlib.util
import json
import sys
from pathlib import Path

import pytest

PAIRS = Path(__file__).resolve().parents[1] / "tools" / "pairs.py"
_spec = importlib.util.spec_from_file_location("pairs", PAIRS)
pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(pairs)

# a stand-in for perfbench/run.py: its metrics are set by the seed and by the
# tree's SPEED file, and it logs the order of the runs to a shared file
FAKE_RUN = """\
import argparse, json, pathlib
ap = argparse.ArgumentParser()
for name in ("--workload", "--seed", "--seconds", "--trace"):
    ap.add_argument(name)
a = ap.parse_args()
speed = float(pathlib.Path("SPEED").read_text())
with open("../order.log", "a") as log:
    log.write(f"{pathlib.Path.cwd().name} {a.workload} {a.seed} {a.seconds} {a.trace}\\n")
print("# header")
print(json.dumps({"correct": True, "attempted": 10, "failed": 0, "metrics": {
    "ops_per_s": {"value": speed + int(a.seed), "unit": "1/s"},
    "peak_rss_mb": {"value": 50.0, "unit": "MB"}}}))
"""


def make_tree(path: Path, speed: float) -> Path:
    (path / "perfbench").mkdir(parents=True)
    (path / "perfbench" / "run.py").write_text(FAKE_RUN)
    (path / "SPEED").write_text(str(speed))
    (path / "BENCHMARK.json").write_text(json.dumps({
        "command": [sys.executable, "perfbench/run.py"], "run_seconds": 2,
        "workloads": [{"name": "w1"}, {"name": "w2"}],
        "end_to_end": [{"name": "ops_per_s", "better": "higher", "bound": 0.25},
                       {"name": "peak_rss_mb", "better": "lower", "bound": 0.1}]}))
    return path


def test_pairs_alternate_with_seeds_fixed_beforehand(tmp_path):
    parent, change = make_tree(tmp_path / "pa", 100.0), make_tree(tmp_path / "pc", 101.0)
    out = tmp_path / "pairs.json"
    assert pairs.main([str(parent), str(change), "--workload", "w1", "--workload", "w2",
                       "--pairs", "3", "--first-seed", "7",
                       "--out", str(out)]) == 0
    order = (tmp_path / "order.log").read_text().split("\n")[:-1]
    assert order == ["pa w1 7 2 0", "pc w1 7 2 0", "pc w1 8 2 0", "pa w1 8 2 0",
                     "pa w1 9 2 0", "pc w1 9 2 0",
                     "pa w2 10 2 0", "pc w2 10 2 0", "pc w2 11 2 0",
                     "pa w2 11 2 0", "pa w2 12 2 0", "pc w2 12 2 0"]
    assert json.loads(out.read_text())["seconds"] == 2
    report = json.loads(out.read_text())["workloads"]["w1"]
    assert report["seeds"] == [7, 8, 9]
    assert report["first"] == ["parent", "change", "parent"]
    assert report["correct_runs"] == {"parent": "3/3", "change": "3/3"}
    ops = report["end_to_end"]["ops_per_s"]
    assert ops["parent"] == {"n": 3, "median": 108.0, "q1": 107.5, "q3": 108.5}
    assert ops["change"]["median"] == 109.0 and ops["change_won"] == "3/3"
    # equal readings count for neither side
    assert report["end_to_end"]["peak_rss_mb"]["change_won"] == "0/3"
    assert [r["attempted"] for r in report["runs"]["change"]] == [10, 10, 10]


def test_trees_of_unequal_path_length_are_refused(tmp_path, capsys):
    parent, change = make_tree(tmp_path / "pa", 1.0), make_tree(tmp_path / "pc2", 1.0)
    assert pairs.main([str(parent), str(change), "--workload", "w1", "--pairs", "1",
                       "--first-seed", "1",
                       "--out", str(tmp_path / "x.json")]) == 2
    assert "path length" in capsys.readouterr().err
    assert not (tmp_path / "order.log").exists()


@pytest.mark.parametrize("workload, pairs_arg", [("nope", "1"), ("w1", "0")])
def test_unknown_workload_or_no_pairs_refused(tmp_path, workload, pairs_arg):
    parent, change = make_tree(tmp_path / "pa", 1.0), make_tree(tmp_path / "pc", 1.0)
    assert pairs.main([str(parent), str(change), "--workload", workload,
                       "--pairs", pairs_arg, "--first-seed", "1",
                       "--out", str(tmp_path / "x.json")]) == 2
    assert not (tmp_path / "order.log").exists()


def test_a_run_that_gives_no_result_is_reported(tmp_path):
    parent, change = make_tree(tmp_path / "pa", 1.0), make_tree(tmp_path / "pc", 1.0)
    (change / "SPEED").unlink()
    out = tmp_path / "pairs.json"
    assert pairs.main([str(parent), str(change), "--workload", "w1", "--pairs", "1",
                       "--first-seed", "1", "--out", str(out)]) == 0
    report = json.loads(out.read_text())["workloads"]["w1"]
    assert report["correct_runs"] == {"parent": "1/1", "change": "0/1"}
    run, = report["runs"]["change"]
    assert run["exit"] != 0 and "SPEED" in run["stderr"] and "metrics" not in run
    assert report["end_to_end"]["ops_per_s"]["change_won"] == "0/0"
    assert report["end_to_end"]["ops_per_s"]["change"] == {"n": 0}
