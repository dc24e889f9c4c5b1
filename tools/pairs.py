#!/usr/bin/env python3
"""Run perfbench on two jcas source trees in alternating pairs.

    python3 tools/pairs.py PARENT_TREE CHANGE_TREE --workload calibrate_cold \\
        --pairs 5 --first-seed 901 --out pairs.json

Each run is the benchmark command of BENCHMARK.json (``python3
perfbench/run.py``) with ``--workload W --seed S --seconds T --trace 0``,
started in its tree, where T is BENCHMARK.json's ``run_seconds``. Every
seed is fixed before the first run: pair i of the j-th workload runs seed
first_seed + j * pairs + i on both trees. The parent runs first in the
even pairs and the change in the odd ones. ``--workload`` may be given
more than once.

For each end-to-end metric of BENCHMARK.json the output JSON gives each
side's median and quartiles and the pairs the change won (strictly better
in the metric's ``better`` direction), and for every run its ``correct``,
``failed`` and ``attempted``. Two trees whose absolute paths differ in
length are refused: ``peak_rss_mb`` moves with the path's length.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def run_once(tree: Path, command: list[str], workload: str, seed: int,
             seconds: float) -> dict:
    """One benchmark run in tree: the JSON of its last output line, or the
    exit code and the end of its standard error if it gave none."""
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return {"seed": seed, "exit": proc.returncode, "correct": False,
                "stderr": proc.stderr[-2000:]}
    return {"seed": seed, "exit": proc.returncode, "correct": result["correct"],
            "failed": result["failed"], "attempted": result["attempted"],
            "metrics": {k: v["value"] for k, v in result["metrics"].items()}}


def summary(values: list[float]) -> dict:
    if not values:
        return {"n": 0}
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive") \
        if len(values) > 1 else (values[0],) * 3
    return {"n": len(values), "median": statistics.median(values), "q1": q1, "q3": q3}


def compare(runs: dict[str, list[dict]], spec: list[dict]) -> dict:
    """Per end-to-end metric: both sides' median and quartiles over their
    complete runs, and the pairs (both runs complete) the change won."""
    out = {}
    for m in spec:
        name, sign = m["name"], 1 if m["better"] == "higher" else -1
        values = {side: [r["metrics"][name] for r in runs[side] if "metrics" in r]
                  for side in SIDES}
        pairs = [(p["metrics"][name], c["metrics"][name])
                 for p, c in zip(runs["parent"], runs["change"])
                 if "metrics" in p and "metrics" in c]
        won = sum(sign * (c - p) > 0 for p, c in pairs)
        out[name] = {**{side: summary(values[side]) for side in SIDES},
                     "better": m["better"], "bound": m["bound"],
                     "change_won": f"{won}/{len(pairs)}"}
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--workload", action="append", required=True)
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--first-seed", type=int, required=True)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    if len(str(trees["parent"])) != len(str(trees["change"])):
        print(f"pairs: {trees['parent']} and {trees['change']} differ in path "
              "length, which moves peak_rss_mb", file=sys.stderr)
        return 2
    if args.pairs < 1:
        print("pairs: --pairs must be at least 1", file=sys.stderr)
        return 2
    spec = json.loads((trees["parent"] / "BENCHMARK.json").read_text())
    unknown = sorted(set(args.workload) - {w["name"] for w in spec["workloads"]})
    if unknown:
        print(f"pairs: no workload {', '.join(unknown)} in BENCHMARK.json", file=sys.stderr)
        return 2

    report = {"trees": {side: str(path) for side, path in trees.items()},
              "command": spec["command"], "seconds": spec["run_seconds"],
              "pairs": args.pairs,
              "host": {"machine": platform.machine(), "cpus": os.cpu_count(),
                       "python": platform.python_version(),
                       "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE")},
              "workloads": {}}
    for j, workload in enumerate(args.workload):
        seeds = [args.first_seed + j * args.pairs + i for i in range(args.pairs)]
        runs = {side: [] for side in SIDES}
        for i, seed in enumerate(seeds):
            for side in SIDES if i % 2 == 0 else SIDES[::-1]:
                run = run_once(trees[side], spec["command"], workload, seed,
                               spec["run_seconds"])
                runs[side].append(run)
                print(f"{workload} pair {i + 1}/{args.pairs} seed {seed} {side}: "
                      f"{run.get('metrics', run)}", file=sys.stderr, flush=True)
        report["workloads"][workload] = {
            "seeds": seeds, "first": [SIDES[i % 2] for i in range(args.pairs)],
            "correct_runs": {side: f"{sum(r['correct'] for r in runs[side])}/{len(seeds)}"
                             for side in SIDES},
            "failed": {side: sum(r.get("failed", 0) for r in runs[side]) for side in SIDES},
            "end_to_end": compare(runs, spec["end_to_end"]), "runs": runs}
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
