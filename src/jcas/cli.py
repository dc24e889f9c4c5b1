"""Scenario configuration, experiment orchestration and the command line.

Verbs:
    simulate <scenario.json>   run one scenario, write RD artifacts + report
    preset fig6|fig7           run the bundled reproduction scenarios
    calibrate <scenario.json>  build and cache the dual-window pattern
    selftest                   run the invariant suite

Exit codes: 0 success, 1 selftest failure, 2 scenario validation error (or
a cache directory that calibrate cannot store in), 3 unresolvable pattern bins.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import ctypes
import json
import math
import numbers
import os
import sys
import time
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from . import comms, detect, receiver
# perfbench wraps or looks up these by their names in this module, the
# reader and the cache's path names included
from .artifacts import read_rd_binary, write_rd_binary, write_rd_csv
from .cache import CacheError, cache_dir, load_or_build_pattern, pattern_cache_key, \
    pattern_path
from .channel import ChannelConfig, Target, start_noise, synthesize_rx, \
    target_to_delay_doppler
from .scheduler import Scheme, grid_size, make_schedule, \
    unambiguous_band
from .util import check_db, kmh_to_mps, substream
from .waveform import WaveformConfig, assemble_frame, frame_len


def _retain_freed_heap() -> None:
    """Keep the memory a run frees in the process for the next run (glibc).

    A run allocates and frees tens of MB of arrays. With glibc's default,
    adaptive thresholds the freed top of the heap goes back to the kernel
    after each run, and the next run faults every page in again, zeroed:
    some 6,000 page faults and a quarter of a fig6 run's time. Fixed
    thresholds keep arrays under 32 MB on the heap and up to 256 MB of its
    free top in the process. Nothing is changed when the allocator is tuned
    through the environment.
    """
    if any(v in os.environ for v in ("GLIBC_TUNABLES", "MALLOC_TRIM_THRESHOLD_",
                                     "MALLOC_MMAP_THRESHOLD_")):
        return
    try:
        if not (os.confstr("CS_GNU_LIBC_VERSION") or "").startswith("glibc"):
            return
        mallopt = ctypes.CDLL(None).mallopt
    except (ValueError, OSError, AttributeError):
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(-3, 32 << 20)    # M_MMAP_THRESHOLD
    mallopt(-1, 256 << 20)   # M_TRIM_THRESHOLD


_retain_freed_heap()


class ScenarioError(ValueError):
    pass


# the Scenario field annotations, as strings, and the values they admit
FIELD_TYPES = {"int": numbers.Integral, "float": numbers.Real, "bool": bool,
               "str": str, "list": list}


@dataclass
class Scenario:
    """One fully-resolved simulation run (paper defaults baked in)."""

    scheme: str = "rtd"
    k: int | None = None              # defaults: 80 slotted, 64 implanted
    n_fft: int = 2048
    m_codes: int = 4
    n_cp: int = 512
    scs_hz: float = 60e3
    carrier_hz: float = 60e9
    targets: list = field(default_factory=list)   # dicts: range_m, velocity_kmh, amplitude
    si_over_echo_db: float = 100.0
    echo_snr_db: float = -10.0
    si_enabled: bool = True
    noise_enabled: bool = True
    fractional_delay: bool = False
    rel_threshold: float = 0.05
    guard: int = 2
    max_peaks: int | None = None
    n_guard: int = 1
    peak_cleanup: bool = False
    cleanup_radius: int = 2
    comms_enabled: bool = False
    comms_snr_db: float | None = None
    rtd_one_per_group: bool = False
    seed: int = 2026
    tag: str | None = None

    def __post_init__(self):
        for f in fields(self):
            v = getattr(self, f.name)
            kind, _, optional = f.type.partition(" | ")
            if v is None and optional:
                continue
            ok = isinstance(v, FIELD_TYPES[kind])
            if kind in ("int", "float"):   # bool is an int; JSON admits NaN
                ok = ok and not isinstance(v, bool) and -math.inf < v < math.inf
            if not ok:
                raise ScenarioError(f"{f.name} must be {f.type}, not {v!r}")
        try:
            self.scheme_enum = Scheme(self.scheme)
        except ValueError:
            raise ScenarioError(f"unknown scheme {self.scheme!r}")
        if self.k is None:
            self.k = 64 if self.scheme_enum.is_fsi else 80
        if self.k < 1:
            raise ScenarioError("k must be >= 1")
        if self.seed < 0:
            raise ScenarioError("seed must be >= 0")
        if self.tag is not None and any(
                c and c in self.tag for c in ("/", os.sep, os.altsep, "\0")):
            raise ScenarioError(f"tag must be a plain file name, not {self.tag!r}")
        for t in self.targets:
            if not isinstance(t, dict) or not {"range_m", "velocity_kmh"} <= t.keys():
                raise ScenarioError("each target needs range_m and velocity_kmh")
            unknown = t.keys() - {"range_m", "velocity_kmh", "amplitude"}
            if unknown:
                raise ScenarioError(f"unknown target keys: {sorted(unknown, key=str)}")
        try:
            cfg = self.waveform_config()
            for t in self.target_list():
                target_to_delay_doppler(t, cfg.carrier_hz, cfg.t_s)
            self.channel_config()
            if self.comms_snr_db is not None:
                check_db(self.comms_snr_db, "comms_snr_db")
            receiver.si_filter(np.zeros(cfg.l_occ), self.n_guard)   # its bounds
            receiver.check_cleanup_radius(self.cleanup_radius)
            detect.check_peak_args(self.rel_threshold, self.max_peaks, self.guard)
        # MemoryError: a size whose buffers cannot be allocated
        except (TypeError, ValueError, MemoryError) as e:
            raise ScenarioError(str(e) or "out of memory")

    @classmethod
    def from_dict(cls, d: dict) -> "Scenario":
        if not isinstance(d, dict):
            raise ScenarioError("a scenario must be a JSON object")
        unknown = d.keys() - cls.__dataclass_fields__.keys()
        if unknown:
            raise ScenarioError(f"unknown scenario fields: {sorted(unknown)}")
        return cls(**d)

    def to_dict(self) -> dict:
        return asdict(self)

    def waveform_config(self) -> WaveformConfig:
        return WaveformConfig(n_fft=self.n_fft, m_codes=self.m_codes,
                              n_cp=self.n_cp, scs_hz=self.scs_hz,
                              carrier_hz=self.carrier_hz)

    def target_list(self) -> list[Target]:
        return [Target(range_m=float(t["range_m"]),
                       velocity_mps=kmh_to_mps(float(t["velocity_kmh"])),
                       amplitude=float(t.get("amplitude", 1.0)))
                for t in self.targets]

    def channel_config(self) -> ChannelConfig:
        return ChannelConfig(si_over_echo_db=self.si_over_echo_db,
                             echo_snr_db=self.echo_snr_db,
                             si_enabled=self.si_enabled,
                             noise_enabled=self.noise_enabled,
                             fractional_delay=self.fractional_delay)


def load_scenario(path: str | Path) -> Scenario:
    try:
        with open(path) as f:
            d = json.load(f)
    except (OSError, ValueError) as e:   # ValueError: malformed JSON or text
        raise ScenarioError(f"cannot read {path}: {e}")
    return Scenario.from_dict(d)


# ---------------------------------------------------------------------------
# simulation runner
# ---------------------------------------------------------------------------

def run_simulate(scn: Scenario, out_dir: str | Path) -> dict:
    """Run one scenario end to end; writes artifacts, returns the report."""
    t_start = time.perf_counter()
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    cfg = scn.waveform_config()
    scheme = scn.scheme_enum
    tag = scn.tag or scheme.value

    schedule = make_schedule(scheme, cfg.m_codes, scn.k,
                             rng=substream(scn.seed, f"{tag}/schedule"),
                             one_per_group=scn.rtd_one_per_group,
                             seed=scn.seed)
    cc = scn.channel_config()
    noise = start_noise(substream(scn.seed, f"{tag}/noise"),
                        frame_len(cfg, schedule)) if cc.noise_enabled else None
    tx = assemble_frame(cfg, schedule, rng=substream(scn.seed, f"{tag}/payload"))
    with np.errstate(over="ignore", invalid="ignore"):   # checked below
        rx = synthesize_rx(tx, scn.target_list(), cc, cfg, noise)
    del noise   # it holds the draws, a frame's worth of memory
    if not np.isfinite(rx).all():
        raise ScenarioError("the receive samples overflow: reduce the SI, "
                            "noise or target levels")

    n_grid = grid_size(schedule, cfg)
    band = unambiguous_band(schedule, cfg)
    flagged_bins = 0

    if scheme is Scheme.FSI_TAIL:
        try:
            pat = load_or_build_pattern(scn, schedule)
        except CacheError as e:   # the run needs the pattern, not its file
            print(f"warning: {e}", file=sys.stderr)
            pat = e.pattern
        flagged_bins = pat.flagged_bins
        std, shift, rd = receiver.receive_tail(
            rx, cfg, schedule, pat, scn.n_guard,
            scn.cleanup_radius if scn.peak_cleanup else None,
            scn.rel_threshold, scn.max_peaks, scn.guard)
        # near and far rows share one extended range axis, so detection
        # on it gives both a single normalization
        maps = {"std": std.values, "shift": shift.values, "combined": rd.values,
                "near": rd.values[:cfg.l_occ], "far": rd.values[cfg.l_occ:]}
        name = "combined"
    else:
        rd = receiver.process_sensing(rx, cfg, schedule,
                                      receiver.WindowKind.STANDARD, scn.n_guard)
        name = "single"
        maps = {name: rd.values}

    dets = detect.find_peaks(rd, scn.rel_threshold, scn.max_peaks, scn.guard)
    evaluation = detect.evaluate(dets, scn.target_list(), cfg, n_grid, rd=rd)

    ber = evm = None
    if scn.comms_enabled and scheme.is_fsi:
        link_bits = substream(scn.seed, f"{tag}/bits").integers(
            0, 2, 2 * (cfg.m_codes - 1) * cfg.l_occ * scn.k)
        ber, evm = comms.run_link(cfg, schedule, link_bits, gain=1.0,
                                  snr_db=scn.comms_snr_db,
                                  rng=substream(scn.seed, f"{tag}/comms-noise"))

    # the CSV of near or far, whichever holds the combined map's peak, is its
    # rows of the combined CSV, which is written first
    csv_lines = {}
    for map_name, m in maps.items():
        stem = f"rd_{tag}_{map_name}" if len(maps) > 1 else f"rd_{tag}"
        write_rd_binary(out / f"{stem}.bin", m)
        held = write_rd_csv(out / f"{stem}.csv", m, lines=csv_lines.get(map_name),
                            split=cfg.l_occ if map_name == "combined" else None)
        if held is not None:
            csv_lines[("near", "far")[held[0]]] = held[1]

    report = {
        "scenario": scn.to_dict(),
        "schedule": schedule.to_dict(),
        "grid_size": n_grid,
        "unambiguous_band": band,
        "detections": {name: [d.to_dict() for d in dets]},
        "evaluation": {name: evaluation.to_dict()},
        "ber": ber,
        "evm": evm,
        "flagged_pattern_bins": flagged_bins,
        "elapsed_s": time.perf_counter() - t_start,
    }
    with open(out / f"report_{tag}.json", "w") as f:
        json.dump(report, f, indent=2, sort_keys=True)
    return report


# ---------------------------------------------------------------------------
# presets
# ---------------------------------------------------------------------------

FIG6_TARGETS = [{"range_m": 200.0, "velocity_kmh": -250.0},
                {"range_m": 400.0, "velocity_kmh": 500.0}]
FIG7_TARGETS = [{"range_m": 100.0, "velocity_kmh": 100.0},
                {"range_m": 900.0, "velocity_kmh": -100.0}]
FIG7_OFFGRID_TARGETS = [{"range_m": 400.0, "velocity_kmh": 100.0},
                        {"range_m": 500.0, "velocity_kmh": 100.0}]


def preset_scenarios(name: str, seed: int = 2026) -> list[Scenario]:
    if name == "fig6":
        return [Scenario(scheme=s, targets=list(FIG6_TARGETS), seed=seed)
                for s in ("sensing_only", "periodic_td", "rtd", "fsi_random")]
    if name == "fig7":
        return [Scenario(scheme="fsi_tail", targets=list(FIG7_TARGETS),
                         seed=seed)]
    if name == "fig7_offgrid":
        # its own tag, so that its artifacts sit beside fig7's; not the
        # preset's name, which run_preset gives its summary report
        return [Scenario(scheme="fsi_tail", targets=list(FIG7_OFFGRID_TARGETS),
                         peak_cleanup=True, seed=seed, tag="fsi_tail_offgrid")]
    raise ScenarioError(f"unknown preset {name!r}")


def run_preset(name: str, out_dir: str | Path, seed: int = 2026,
               threads: int = 1) -> list[dict]:
    scns = preset_scenarios(name, seed)
    if threads > 1 and len(scns) > 1:
        with concurrent.futures.ThreadPoolExecutor(threads) as pool:
            reports = list(pool.map(lambda s: run_simulate(s, out_dir), scns))
    else:
        reports = [run_simulate(s, out_dir) for s in scns]
    summary = {
        "preset": name,
        "runs": [{"scheme": r["scenario"]["scheme"],
                  "detections": r["detections"],
                  "evaluation": r["evaluation"]} for r in reports],
    }
    with open(Path(out_dir) / f"report_{name}.json", "w") as f:
        json.dump(summary, f, indent=2, sort_keys=True)
    return reports


# ---------------------------------------------------------------------------
# selftest
# ---------------------------------------------------------------------------

def run_selftest(inject_fault: str | None = None) -> int:
    """Quick invariant sweep across the modules; returns failure count."""
    from . import selftest
    checks = selftest.all_checks(inject_fault)
    failures = 0
    for name, fn in checks:
        try:
            fn()
            print(f"PASS {name}")
        except Exception as e:
            failures += 1
            print(f"FAIL {name}: {e}")
    print(f"{len(checks) - failures}/{len(checks)} checks passed")
    return failures


def run_calibrate(scn: Scenario) -> Path:
    if scn.scheme_enum is not Scheme.FSI_TAIL:
        raise ScenarioError("calibration applies to the fsi_tail scheme")
    schedule = make_schedule(scn.scheme_enum, scn.m_codes, scn.k, seed=scn.seed)
    pat = load_or_build_pattern(scn, schedule, validate=True)
    path = pattern_path(scn)
    print(f"pattern cached at {path}")
    print(f"validation error: {pat.validation_error}")
    if pat.flagged_bins:
        print(f"unresolvable bins: {pat.flagged_bins}")
    return path


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(prog="jcas",
                                 description="Joint communications and sensing simulator")
    ap.add_argument("--seed", type=int, default=None,
                    help="override the scenario seed")
    ap.add_argument("--out-dir", default="out", help="artifact directory")
    ap.add_argument("--threads", type=int, default=1,
                    help="parallel runs inside a preset")
    sub = ap.add_subparsers(dest="verb", required=True)
    p_sim = sub.add_parser("simulate", help="run one scenario file")
    p_sim.add_argument("scenario")
    p_pre = sub.add_parser("preset", help="run a bundled reproduction")
    p_pre.add_argument("name", choices=["fig6", "fig7", "fig7_offgrid"])
    p_cal = sub.add_parser("calibrate", help="build the dual-window pattern cache")
    p_cal.add_argument("scenario")
    p_self = sub.add_parser("selftest", help="run the invariant suite")
    p_self.add_argument("--inject-fault", default=None,
                        help="test hook: corrupt a named invariant")
    args = ap.parse_args(argv)

    try:
        if args.verb == "selftest":
            return 1 if run_selftest(args.inject_fault) else 0
        if args.verb == "preset":
            reports = run_preset(args.name, args.out_dir,
                                 seed=args.seed if args.seed is not None else 2026,
                                 threads=args.threads)
        else:
            scn = load_scenario(args.scenario)
            if args.seed is not None:
                scn = replace(scn, seed=args.seed)
            if args.verb == "calibrate":
                run_calibrate(scn)
                return 0
            reports = [run_simulate(scn, args.out_dir)]
    # MemoryError: an allocation refused for the scenario's sizes, in this
    # thread or re-raised from the noise worker
    except (ScenarioError, MemoryError) as e:
        print(f"scenario error: {str(e) or 'out of memory'}", file=sys.stderr)
        return 2
    except CacheError as e:   # calibrate's; simulate runs on without the file
        print(f"cache error: {e}", file=sys.stderr)
        return 2
    return 3 if any(r["flagged_pattern_bins"] for r in reports) else 0


if __name__ == "__main__":
    sys.exit(main())
