"""Tests of the benchmark itself: the oracle's teeth and metric coverage.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture
def cli(tmp_path, monkeypatch):
    monkeypatch.setenv("JCAS_CACHE_DIR", str(tmp_path / "cache"))
    import jcas.cli
    return jcas.cli


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=180)


def test_wrong_truths_fail_every_op(cli, tmp_path):
    wl = workloads.make_workload("fig6_sweep", cli, tmp_path, 5, tmp_path / "cache")
    wl.truths = [(r + 150.0, v) for r, v in workloads.FIG6_TARGETS]
    loop = run.Loop(wl)
    loop.run(0, first_cycle=1)
    assert loop.attempted == len(workloads.FIG6_SCHEMES)
    assert loop.failed / loop.attempted == 1.0


def test_corrupted_reports_fail(cli, tmp_path):
    scn = cli.Scenario(scheme="fsi_random", comms_enabled=True, seed=7,
                       targets=[{"range_m": r, "velocity_kmh": v}
                                for r, v in workloads.FIG6_TARGETS])
    report = cli.run_simulate(scn, tmp_path)
    truths = workloads.FIG6_TARGETS
    assert workloads.check_report(scn, report, truths, set()) == []

    moved = json.loads(json.dumps(report))
    for det in moved["detections"]["single"]:
        det["range_bin"] += 5
    assert workloads.check_report(scn, moved, truths, set())

    noisy = dict(report, ber=0.01)
    assert workloads.check_report(scn, noisy, truths, set())
    flagged = dict(report, flagged_pattern_bins=1)
    assert workloads.check_report(scn, flagged, truths, set())
    # evaluation that claims a miss the detections do not show
    lying = json.loads(json.dumps(report))
    lying["evaluation"]["single"]["misses"] = [0]
    assert workloads.check_report(scn, lying, truths, set())


def test_periodic_td_must_miss_the_aliased_target(cli, tmp_path):
    scn = cli.Scenario(scheme="periodic_td", seed=3,
                       targets=[{"range_m": r, "velocity_kmh": v}
                                for r, v in workloads.FIG6_TARGETS])
    report = cli.run_simulate(scn, tmp_path)
    truths = workloads.FIG6_TARGETS
    assert workloads.check_report(scn, report, truths, {1}) == []
    assert workloads.check_report(scn, report, truths, set())


def test_unresolvable_pattern_fails(cli, tmp_path):
    wl = workloads.make_workload("calibrate_cold", cli, tmp_path, 1, tmp_path / "cache")
    (op,) = wl.cycle(1)
    pat = op.call()
    assert op.check(pat) == []
    pat.resolvable[pat.n_guard + 3, 5] = False
    assert op.check(pat)
    pat.resolvable[pat.n_guard + 3, 5] = True
    pat.p = pat.p * (1 + 1e-6)
    assert op.check(pat)
    op.cleanup()
    assert not (tmp_path / "cache").exists()


def test_self_times_subtract_children():
    spans = [["a", 0.0, 10.0, None, 0], ["b", 1.0, 4.0, 0, 0],
             ["c", 2.0, 3.0, 1, 0], ["d", 5.0, 6.0, 0, 0]]
    assert tracing.self_times(spans) == [6.0, 2.0, 1.0, 1.0]


def test_root_coverage_finds_untraced_time_and_stray_spans():
    spans = [["a", 0.0, 10.0, None, 0], ["b", 1.0, 4.0, 0, 0],
             ["a", 11.0, 15.0, None, 1]]
    assert tracing.root_coverage(spans, [10.0, 4.0]) == (0.0, [])
    assert tracing.root_coverage(spans, [10.0, 8.0]) == (0.5, [])
    # an op with no root span, one with two, and a span outside any op
    assert tracing.root_coverage(spans, [10.0, 4.0, 1.0])[1]
    assert tracing.root_coverage(spans + [["a", 16.0, 17.0, None, 1]],
                                 [10.0, 6.0])[1]
    assert tracing.root_coverage(spans + [["e", 16.0, 17.0, None, None]],
                                 [10.0, 4.0])[1]


def test_wrappers_are_removed(cli):
    mods = tracing.probe_modules()
    before = {(m, a): getattr(mods[m], a) for m, a, _, _ in tracing.PROBES}
    with tracing.installed(tracing.Tracer(), mods):
        assert all(getattr(mods[m], a) is not f for (m, a), f in before.items())
    assert all(getattr(mods[m], a) is f for (m, a), f in before.items())


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_run_prints_every_metric(workload, trace):
    proc = _bench("--workload", workload, "--seed", "4", "--seconds", "1",
                  "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    assert lines[0].startswith("# env nproc=") and "numpy=" in lines[0]
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert {m["name"]: m["unit"] for m in spec} == \
        {k: v["unit"] for k, v in result["metrics"].items()}
    if trace == "1":
        m = {k: v["value"] for k, v in result["metrics"].items()}
        hits = {"fig6_sweep": 0, "fig7_tail_warm": 1, "calibrate_cold": 0}
        assert m["cli.pattern_cache.hits"] == hits[workload]
        assert m["cli.pattern_cache.misses"] == (workload == "calibrate_cold")
    assert not (ROOT / ".perfbench_work").exists()


def test_refuses_to_run_without_the_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "fig6_sweep", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
