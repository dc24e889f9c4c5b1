#!/usr/bin/env python3
"""jcas benchmark: single-client closed-loop workloads over jcas's public API.

    python3 perfbench/run.py --workload fig6_sweep --seed 1 --seconds 14 --trace 0

Run from the root of a jcas source tree; jcas is imported from ``src/``.
With ``--trace 0`` it prints the end-to-end metrics, with ``--trace 1`` the
per-layer metrics of a traced run. The last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``. See
perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_CHILDREN = 8       # set-ups in child processes, besides this process's
POOL_PAIRS = 2           # threads=1 / threads=2 preset pairs per traced run
MAX_REPORTED_PROBLEMS = 5
MAX_OUTSIDE_ROOT = 0.01  # share of an op's call its root span may leave out

sys.path.insert(0, str(HERE))
import workloads  # noqa: E402
import tracing  # noqa: E402


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def limit_threads() -> None:
    """Run BLAS/OpenMP single-threaded (before numpy loads).

    One client on one thread keeps an op's time independent of what the
    other cores are doing; the maps' matrix products are too small to gain
    from a pool.
    """
    for var in THREAD_VARS:
        os.environ[var] = "1"


def env_header(args) -> str:
    versions = []
    for pkg in ("numpy", "scipy"):
        try:
            versions.append(f"{pkg}={metadata.version(pkg)}")
        except metadata.PackageNotFoundError:
            versions.append(f"{pkg}=missing")
    threads = " ".join(f"{v}={os.environ[v]}" for v in THREAD_VARS)
    return (f"# env nproc={nproc()} python={platform.python_version()} "
            f"{' '.join(versions)} {threads} workload={args.workload} "
            f"seed={args.seed} seconds={args.seconds:g} trace={args.trace}")


def set_up(name: str, seed: int, work: Path):
    """Import jcas and warm the workload up: cycle 0, checked, untimed ops."""
    cache = work / "cache"
    os.environ["JCAS_CACHE_DIR"] = str(cache)
    import jcas
    import jcas.cli as cli
    if Path(jcas.__file__).resolve().parent != SRC / "jcas":
        raise RuntimeError(f"imported jcas from {jcas.__file__}, not {SRC}")
    wl = workloads.make_workload(name, cli, work, seed, cache)
    problems = []
    for op in wl.cycle(0):
        problems += [f"warm-up {op.label}: {p}" for p in op.check(op.call())]
        op.cleanup()
    return cli, wl, problems


def setup_probe(args) -> int:
    """Child mode: one timed set-up in a fresh directory, result on stdout."""
    work = Path(args.setup_probe)
    try:
        t0 = time.perf_counter()
        _, _, problems = set_up(args.workload, args.seed, work)
        elapsed = time.perf_counter() - t0
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({"setup_s": elapsed, "problems": problems}))
    return 0


def child_setup(args, work: Path) -> tuple[float, list[str]]:
    """One set-up in a fresh child process; it exits before this returns."""
    cmd = [sys.executable, str(Path(__file__).resolve()),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", "0", "--trace", "0", "--setup-probe", str(work)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=60,
                          cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    return res["setup_s"], res["problems"]


class Loop:
    """Closed-loop measurement: the next op starts when the last returns."""

    def __init__(self, wl, tracer: tracing.Tracer | None = None):
        self.wl = wl
        self.tracer = tracer
        self.times: list[float] = []
        self.labels: list[str] = []
        self.failed = 0
        self.problems: list[str] = []

    def run(self, busy_s: float, first_cycle: int) -> int:
        """Run whole cycles until the ops' calls have taken ``busy_s`` in all.

        At least one cycle runs. Returns the number of the next cycle.
        """
        cycle = first_cycle
        while True:
            self.run_cycle(cycle)
            cycle += 1
            if self.busy_s >= busy_s:
                return cycle

    def run_cycle(self, cycle: int) -> None:
        for op in self.wl.cycle(cycle):
            self._one(op)

    def _one(self, op) -> None:
        if self.tracer is not None:
            self.tracer.op = len(self.times)
        result, problems = None, []
        t0 = time.perf_counter()
        try:
            result = op.call()
        except Exception as e:   # an op that raises fails; the run goes on
            problems = [f"{type(e).__name__}: {e}"]
            traceback.print_exc(file=sys.stderr)
        self.times.append(time.perf_counter() - t0)
        self.labels.append(op.label)
        if self.tracer is not None:
            self.tracer.op = None
        if not problems:
            problems = op.check(result)
        op.cleanup()
        if problems:
            self.failed += 1
            self.problems += [f"op {len(self.times) - 1} {op.label}: {p}"
                              for p in problems]

    @property
    def attempted(self) -> int:
        return len(self.times)

    @property
    def busy_s(self) -> float:
        """Time spent in the ops' calls into jcas, without checks or cleanup."""
        return sum(self.times)

    @property
    def ops_per_s(self) -> float:
        return (self.attempted - self.failed) / self.busy_s


def tail(times: list[float]) -> tuple[int, float, int]:
    """Highest whole percentile leaving at least ten samples beyond it.

    Nearest-rank; below 20 samples it falls back to p50 and says how many
    samples lie beyond.
    """
    n = len(times)
    pct = max(50, int(100 * (1 - 10 / n))) if n >= 20 else 50
    rank = math.ceil(pct / 100 * n)
    return pct, sorted(times)[rank - 1], n - rank


def preset_pool_speedup(cli, out: Path, seed: int) -> tuple[float, list[str]]:
    """``run_preset("fig6")`` wall time at threads=1 over threads=2."""
    walls = {1: [], 2: []}
    problems = []
    for i in range(POOL_PAIRS):
        for threads in ((1, 2) if i % 2 == 0 else (2, 1)):
            t0 = time.perf_counter()
            reports = cli.run_preset("fig6", out, seed=seed, threads=threads)
            walls[threads].append(time.perf_counter() - t0)
            for r in reports:
                scn = cli.Scenario.from_dict(r["scenario"])
                problems += workloads.check_report(
                    scn, r, workloads.FIG6_TARGETS,
                    workloads.EXPECTED_MISSES.get(scn.scheme, set()))
    return statistics.median(walls[1]) / statistics.median(walls[2]), problems


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(args, work: Path) -> tuple[dict, list[Loop], list[str]]:
    t0 = time.perf_counter()
    cli, wl, problems = set_up(args.workload, args.seed, work / "main")
    setups = [time.perf_counter() - t0]
    print(f"# input: {wl.describe()}")
    # Child set-ups alternate with slices of the measured window, so that
    # both figures sample the same stretch of the machine's speed. Slices
    # end on a common schedule: one slice's overshoot shortens the next.
    loop = Loop(wl)
    cycle = 1
    for i in range(SETUP_CHILDREN):
        cycle = loop.run(args.seconds * (i + 1) / SETUP_CHILDREN, cycle)
        setup_s, child_problems = child_setup(args, work / f"setup-{i}")
        setups.append(setup_s)
        problems += child_problems
    problems += wl.deep_check()

    n = loop.attempted
    pct, tail_s, beyond = tail(loop.times)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics = {
        "setup_s": metric(statistics.median(setups), "s"),
        "ops_per_s": metric(loop.ops_per_s, "1/s"),
        "peak_rss_mb": metric(rss_mb, "MB"),
    }
    print(f"setup_s      {metrics['setup_s']['value']:.4f} s   median of "
          f"{len(setups)} set-ups: {', '.join(f'{s:.3f}' for s in setups)}")
    print(f"ops_per_s    {loop.ops_per_s:.4f} 1/s  {n - loop.failed} ok of {n} ops "
          f"in {loop.busy_s:.2f} s of calls")
    print(f"op_s_p50     {statistics.median(loop.times):.4f} s   n={n}")
    print(f"op_s_tail    {tail_s:.4f} s   p{pct}, n={n}, {beyond} beyond")
    print("# op_s p50 by op: " + ", ".join(
        f"{label} {statistics.median(t for t, l in zip(loop.times, loop.labels) if l == label):.4f}"
        for label in dict.fromkeys(loop.labels)))
    print(f"fail_frac    {loop.failed / n:.4f}     {loop.failed}/{n}")
    print(f"peak_rss_mb  {rss_mb:.1f} MB")
    return metrics, [loop], problems


def traced(args, work: Path) -> tuple[dict, list[Loop], list[str]]:
    cli, wl, problems = set_up(args.workload, args.seed, work / "main")
    print(f"# input: {wl.describe()}")
    # Untraced and traced cycles alternate, so that drift in machine speed
    # over the run does not show up as tracing overhead.
    plain = Loop(wl)
    tracer = tracing.Tracer()
    loop = Loop(wl, tracer)
    mods = tracing.probe_modules()
    deadline = time.perf_counter() + args.seconds
    cycle = 1
    while True:
        plain.run_cycle(cycle)
        with tracing.installed(tracer, mods):
            loop.run_cycle(cycle + 1)
        cycle += 2
        if time.perf_counter() >= deadline:
            break
    if any(hasattr(getattr(mods[mod], attr), "__wrapped__")
           for mod, attr, _, _ in tracing.PROBES):
        problems.append("tracing wrappers were not removed")
    problems += wl.deep_check()
    speedup, pool_problems = preset_pool_speedup(cli, work / "preset",
                                                 workloads.scenario_seed(args.seed, 999))
    problems += pool_problems

    n = loop.attempted
    outside, span_problems = tracing.root_coverage(tracer.spans, loop.times)
    problems += span_problems
    if outside > MAX_OUTSIDE_ROOT:
        problems.append(f"{outside:.1%} of an op's time lies outside its root span")
    layers = tracing.layer_metrics(tracer, n)
    overhead = 1 - loop.ops_per_s / plain.ops_per_s if plain.ops_per_s else 0.0
    layers["cli.preset_pool_speedup"] = speedup
    layers["trace.overhead_frac"] = overhead

    root_s = loop.busy_s
    print(f"# traced {n} ops in {root_s:.2f} s of calls, {len(tracer.spans)} spans; "
          f"at most {outside:.3%} of an op's time outside its root span")
    print(f"# tracing overhead {overhead:+.4f} (ops_per_s {plain.ops_per_s:.4f} "
          f"untraced over {plain.attempted} ops, {loop.ops_per_s:.4f} traced)")
    print(f"{'layer self time':40s} {'ms/op':>9s} {'share':>7s}")
    for name in sorted(tracing.time_metrics(), key=lambda k: -layers[k]):
        print(f"{name:40s} {1e3 * layers[name]:9.3f} "
              f"{100 * layers[name] * n / root_s:6.1f}%")
    for name in sorted(set(layers) - set(tracing.time_metrics())):
        print(f"{name:40s} {layers[name]:.6g}")
    c = tracer.counts
    print(f"# pattern cache: {c['cli.pattern_cache.hits']:.0f} hits, "
          f"{c['cli.pattern_cache.misses']:.0f} misses over {n} ops; "
          f"resolvable {c['pattern.resolvable']:.0f}/{c['pattern.cells']:.0f} cells")
    print(f"# detect: matched {c['detect.matched']:.0f}/{c['detect.truths']:.0f} "
          f"truths, {c['detect.false_alarms']:.0f} false alarms")
    print(f"# preset fig6 threads=1 / threads=2 wall time: {speedup:.4f}")
    units = {m["name"]: m["unit"] for m in load_spec()["per_layer"]}
    metrics = {k: metric(v, units[k]) for k, v in layers.items()}
    return metrics, [plain, loop], problems


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        ap.error("--seed and --seconds must be non-negative")
    if not (SRC / "jcas" / "__init__.py").is_file():
        print(f"perfbench: no jcas source tree under {SRC}", file=sys.stderr)
        return 2
    limit_threads()
    sys.path.insert(0, str(SRC))
    if args.setup_probe:
        return setup_probe(args)

    print(env_header(args), flush=True)
    work_root = ROOT / ".perfbench_work"
    work_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=work_root))
    try:
        run = traced if args.trace else end_to_end
        metrics, loops, problems = run(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass   # another run still uses it
    problems = [p for loop in loops for p in loop.problems] + problems
    for p in problems[:MAX_REPORTED_PROBLEMS]:
        print(f"# FAIL {p}")
    spec = load_spec()
    wanted = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    if sorted(metrics) != sorted(wanted):
        raise RuntimeError(f"metrics {sorted(metrics)} != BENCHMARK.json {sorted(wanted)}")
    print(json.dumps({"correct": not problems,
                      "attempted": sum(loop.attempted for loop in loops),
                      "failed": sum(loop.failed for loop in loops),
                      "metrics": {k: metrics[k] for k in wanted}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
