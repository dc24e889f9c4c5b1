"""The benchmark's closed-loop workloads and its per-op correctness oracle.

Each workload builds its own ``Scenario`` objects from the seed it is given
and hands them to jcas's public functions. One operation is one call into
jcas; ``cycle(i)`` returns the ops of cycle ``i`` in their fixed order, and
the runner only stops between cycles, so every run holds whole cycles.

numpy is imported inside the functions that need it, so that importing
this module costs nothing and ``setup_s`` keeps the whole import of jcas.
"""

from __future__ import annotations

import shutil
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

# The simulator's delay/Doppler grid is defined with c = 3e8 m/s.
SPEED_OF_LIGHT = 3.0e8

# (range_m, velocity_kmh) as in the paper's Fig. 6 and Fig. 7 set-ups.
FIG6_TARGETS = [(200.0, -250.0), (400.0, 500.0)]
FIG7_TARGETS = [(100.0, 100.0), (900.0, -100.0)]
FIG7_OFFGRID_TARGETS = [(400.0, 100.0), (500.0, 100.0)]
FIG6_SCHEMES = ("sensing_only", "periodic_td", "rtd", "fsi_random")

# periodic_td folds Doppler into M times fewer bins, so the +500 km/h
# target aliases and must be missed; every other truth must be matched.
EXPECTED_MISSES = {"periodic_td": {1}}

PATTERN_TOL = 1e-9   # relative deviation allowed from the set-up pattern


@dataclass
class Op:
    """One operation: ``call`` is timed, ``check`` and ``cleanup`` are not."""

    label: str
    call: Callable[[], Any]
    check: Callable[[Any], list[str]]
    cleanup: Callable[[], None] = field(default=lambda: None)


def scenario_seed(seed: int, cycle: int) -> int:
    return seed * 1000 + cycle


def pattern_path(cli, scn) -> Path:
    """Where ``cli.load_or_build_pattern`` caches the pattern of ``scn``."""
    return cli.cache_dir() / f"pattern_{cli.pattern_cache_key(scn)}.npz"


def _targets(truths) -> list[dict]:
    return [{"range_m": r, "velocity_kmh": v} for r, v in truths]


def truth_cells(scn, truths) -> tuple[list[tuple[int, int]], int]:
    """Expected (range bin, Doppler bin mod G) per truth, and the grid G.

    Derived from the scenario's grid constants, not from jcas's own
    evaluation, so a wrong ``detect.evaluate`` cannot vouch for itself.
    """
    t_s = 1.0 / (scn.n_fft * scn.scs_hz)
    l_occ = scn.n_fft // scn.m_codes
    if scn.scheme.startswith("fsi"):
        n_grid = scn.k * (scn.m_codes + scn.n_cp // l_occ)
    else:
        n_grid = scn.m_codes * scn.k
    cells = []
    for range_m, velocity_kmh in truths:
        delay = 2.0 * range_m / SPEED_OF_LIGHT / t_s
        doppler = 2.0 * (velocity_kmh / 3.6) * scn.carrier_hz / SPEED_OF_LIGHT
        cells.append((round(delay), round(doppler * n_grid * l_occ * t_s) % n_grid))
    return cells, n_grid


def _circ(a: int, b: int, n: int) -> int:
    d = (a - b) % n
    return min(d, n - d)


def check_report(scn, report: dict, truths, expect_missed: set[int]) -> list[str]:
    """Per-op oracle for one ``run_simulate`` report; returns the problems."""
    problems = []
    if report["flagged_pattern_bins"] > 0:
        problems.append(f"{report['flagged_pattern_bins']} flagged pattern bins")
    map_name = "combined" if scn.scheme == "fsi_tail" else "single"
    dets = report["detections"][map_name]
    cells, n_grid = truth_cells(scn, truths)
    missed = {i for i, (d, nu) in enumerate(cells)
              if not any(abs(x["range_bin"] - d) <= 1
                         and _circ(x["doppler_bin"] % n_grid, nu, n_grid) <= 1
                         for x in dets)}
    if missed != expect_missed:
        problems.append(f"{scn.scheme}: truths missed {sorted(missed)}, "
                        f"expected {sorted(expect_missed)}")
    reported = set(report["evaluation"][map_name]["misses"])
    if reported != expect_missed:
        problems.append(f"{scn.scheme}: evaluation reports misses "
                        f"{sorted(reported)}, expected {sorted(expect_missed)}")
    if scn.comms_enabled and scn.comms_snr_db is None and report["ber"] != 0:
        problems.append(f"{scn.scheme}: noiseless BER {report['ber']} != 0")
    return problems


def check_artifacts(cli, out: Path) -> list[str]:
    """Every RD map's CSV must equal its binary's normalized magnitude."""
    import numpy as np
    problems = []
    bins = sorted(out.glob("rd_*.bin"))
    if not bins:
        return [f"{out.name}: no RD artifacts written"]
    for b in bins:
        csv = b.with_suffix(".csv")
        if not csv.exists():
            problems.append(f"{b.name}: CSV missing")
            continue
        mag = np.abs(cli.read_rd_binary(b))
        peak = mag.max()
        if peak > 0:
            mag = mag / peak
        table = np.loadtxt(csv, delimiter=",", ndmin=2)
        if table.shape != mag.shape or not np.allclose(table, mag, rtol=1e-6,
                                                       atol=1e-12):
            problems.append(f"{csv.name}: does not match {b.name}")
    if not list(out.glob("report_*.json")):
        problems.append(f"{out.name}: no report written")
    return problems


class _SimulateWorkload:
    """Shared loop body of the two ``run_simulate`` workloads."""

    def __init__(self, cli, work: Path, seed: int):
        self.cli = cli
        self.work = work
        self.seed = seed
        self.out_dirs: set[Path] = set()

    def _op(self, label: str, scn, truths, expect_missed: set[int]) -> Op:
        out = self.work / label
        self.out_dirs.add(out)
        cli = self.cli
        return Op(label, lambda: cli.run_simulate(scn, out),
                  lambda report: check_report(scn, report, truths, expect_missed))

    def deep_check(self) -> list[str]:
        return [p for out in sorted(self.out_dirs)
                for p in check_artifacts(self.cli, out)]


class Fig6Sweep(_SimulateWorkload):
    """sensing_only, periodic_td, rtd, fsi_random (+comms) per cycle."""

    name = "fig6_sweep"

    def __init__(self, cli, work: Path, seed: int):
        super().__init__(cli, work, seed)
        self.truths = list(FIG6_TARGETS)

    def cycle(self, i: int) -> list[Op]:
        ops = []
        for scheme in FIG6_SCHEMES:
            scn = self.cli.Scenario(scheme=scheme, targets=_targets(FIG6_TARGETS),
                                    comms_enabled=scheme == "fsi_random",
                                    seed=scenario_seed(self.seed, i))
            ops.append(self._op(scheme, scn, self.truths,
                                EXPECTED_MISSES.get(scheme, set())))
        return ops

    def describe(self) -> str:
        scn = self.cli.Scenario(scheme="sensing_only")
        n = scn.m_codes * scn.k * (scn.n_fft // scn.m_codes)
        return (f"{n} samples/frame; 4 schemes per cycle; maps "
                f"{scn.n_fft // scn.m_codes}x{scn.m_codes * scn.k} "
                f"(periodic_td {scn.n_fft // scn.m_codes}x{scn.k})")


class Fig7TailWarm(_SimulateWorkload):
    """fig7 then fig7_offgrid (peak cleanup) per cycle, pattern cached."""

    name = "fig7_tail_warm"

    def __init__(self, cli, work: Path, seed: int):
        super().__init__(cli, work, seed)
        self.truths = {"fig7": list(FIG7_TARGETS),
                       "fig7_offgrid": list(FIG7_OFFGRID_TARGETS)}

    def cycle(self, i: int) -> list[Op]:
        seed = scenario_seed(self.seed, i)
        fig7 = self.cli.Scenario(scheme="fsi_tail", targets=_targets(FIG7_TARGETS),
                                 seed=seed)
        offgrid = self.cli.Scenario(scheme="fsi_tail",
                                    targets=_targets(FIG7_OFFGRID_TARGETS),
                                    peak_cleanup=True, seed=seed)
        return [self._op("fig7", fig7, self.truths["fig7"], set()),
                self._op("fig7_offgrid", offgrid, self.truths["fig7_offgrid"],
                         set())]

    def describe(self) -> str:
        scn = self.cli.Scenario(scheme="fsi_tail")
        cfg = scn.waveform_config()
        # tail mode samples one occasion per symbol, so the band is K bins
        return (f"{scn.k * cfg.symbol_len} samples/frame; 2 windows; maps "
                f"4x {cfg.l_occ}x{scn.k} + 1x {2 * cfg.l_occ}x{scn.k} per op")


class CalibrateCold:
    """``load_or_build_pattern(..., validate=True)`` into an empty cache."""

    name = "calibrate_cold"

    def __init__(self, cli, work: Path, seed: int, cache: Path):
        from jcas.scheduler import Scheme, make_schedule
        self.cli = cli
        self.seed = seed
        self.cache = cache
        self.reference = None
        # looked up here, not through jcas.cli, so that building the
        # schedule stays outside the traced op
        self._tail_schedule = lambda scn: make_schedule(
            Scheme.FSI_TAIL, scn.m_codes, scn.k, seed=scn.seed)

    def cycle(self, i: int) -> list[Op]:
        cli = self.cli
        scn = cli.Scenario(scheme="fsi_tail", targets=_targets(FIG7_TARGETS),
                           seed=scenario_seed(self.seed, i))
        schedule = self._tail_schedule(scn)
        stale = self.cache.exists()
        path = pattern_path(cli, scn)
        return [Op("calibrate",
                   lambda: cli.load_or_build_pattern(scn, schedule, validate=True),
                   lambda pat: self._check(scn, pat, path, stale),
                   lambda: shutil.rmtree(self.cache, ignore_errors=True))]

    def _check(self, scn, pat, path: Path, stale: bool) -> list[str]:
        import numpy as np
        problems = ["pattern cache was not empty before the op"] if stale else []
        n_bad = int((~pat.resolvable[scn.n_guard:]).sum())
        if n_bad:
            problems.append(f"{n_bad} unresolvable pattern bins")
        if pat.validation_error is None:
            problems.append("pattern was not validated")
        if not path.is_file() or path.stat().st_size == 0:
            problems.append(f"pattern not written to {path.name}")
        if self.reference is None:
            self.reference = pat.p
        elif pat.p.shape != self.reference.shape or \
                np.max(np.abs(pat.p - self.reference)) \
                > PATTERN_TOL * np.max(np.abs(self.reference)):
            problems.append("pattern differs from the set-up build")
        return problems

    def deep_check(self) -> list[str]:
        return []

    def describe(self) -> str:
        scn = self.cli.Scenario(scheme="fsi_tail")
        cfg = scn.waveform_config()
        return (f"pattern {cfg.l_occ}x{scn.k}x2x2 from a 3-symbol frame; "
                f"validated on 3 cells of a {scn.k * cfg.symbol_len}-sample frame")


WORKLOADS = ("fig6_sweep", "fig7_tail_warm", "calibrate_cold")


def make_workload(name: str, cli, work: Path, seed: int, cache: Path):
    if name == "fig6_sweep":
        return Fig6Sweep(cli, work, seed)
    if name == "fig7_tail_warm":
        return Fig7TailWarm(cli, work, seed)
    if name == "calibrate_cold":
        return CalibrateCold(cli, work, seed, cache)
    raise ValueError(f"unknown workload {name!r}")
