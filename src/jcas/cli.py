"""Scenario configuration, experiment orchestration and the command line.

Verbs:
    simulate <scenario.json>   run one scenario, write RD artifacts + report
    preset fig6|fig7           run the bundled reproduction scenarios
    calibrate <scenario.json>  build, validate and cache the pattern afresh
    selftest                   run the invariant suite

Exit codes: 0 success, 1 selftest failure, 2 scenario validation error (or
a --threads below 1, a cache directory that calibrate cannot store in, or
an output directory that simulate or preset cannot write), 3 unresolvable
pattern bins (simulate, preset and calibrate alike).
"""

from __future__ import annotations

import argparse
import concurrent.futures
import functools
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
from .channel import ChannelConfig, Target, synthesize_rx, target_to_delay_doppler
from .scheduler import Scheme, grid_size, make_schedule, unambiguous_band
from .util import check_db, kmh_to_mps, share, substream
from .waveform import WaveformConfig, assemble_frame, frame_len, random_bits


class ScenarioError(ValueError):
    pass


# the Scenario field annotations, as strings, and the values they admit
FIELD_TYPES = {"int": numbers.Integral, "float": numbers.Real, "bool": bool,
               "str": str, "list": list}


def _admits(kind: str, v) -> bool:
    """Whether a value annotated kind ("int", "float", ...) may be v."""
    ok = isinstance(v, FIELD_TYPES[kind])
    if kind in ("int", "float"):   # bool is an int; JSON admits NaN
        ok = ok and not isinstance(v, bool) and -math.inf < v < math.inf
    return ok


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
            if not (v is None and optional or _admits(kind, v)):
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
        for i, t in enumerate(self.targets):
            if not isinstance(t, dict) or not {"range_m", "velocity_kmh"} <= t.keys():
                raise ScenarioError("each target needs range_m and velocity_kmh")
            unknown = t.keys() - {"range_m", "velocity_kmh", "amplitude"}
            if unknown:
                raise ScenarioError(f"unknown target keys: {sorted(unknown, key=str)}")
            for key, v in t.items():   # each a float
                if not _admits("float", v):
                    raise ScenarioError(f"targets[{i}].{key} must be float, not {v!r}")
        try:
            cfg = self.waveform_config()
            # the frame's G L samples of 16 bytes, and every buffer as large
            # (the noise draws, a map), need a size that fits an np.intp: K
            # symbols of N + N_CP samples implanted, M K slots of L slotted
            symbol = cfg.symbol_len if self.scheme_enum.is_fsi else cfg.n_fft
            limit = np.iinfo(np.intp).max // 16
            for name, what, samples in (("n_fft", "a symbol", symbol),
                                        ("k", "the frame", self.k * symbol)):
                if samples > limit:
                    raise ValueError(f"{name} too large: {what} of {samples} samples "
                                     f"passes the {limit} an array can hold")
            for t in self.target_list():
                target_to_delay_doppler(t, cfg.carrier_hz, cfg.t_s)
            self.channel_config()
            if self.comms_snr_db is not None:
                check_db(self.comms_snr_db, "comms_snr_db")
            receiver.check_n_guard(self.n_guard, cfg.l_occ)
            receiver.check_cleanup_radius(self.cleanup_radius)
            detect.check_peak_args(self.rel_threshold, self.max_peaks, self.guard)
        # MemoryError: a size whose buffers cannot be allocated; OverflowError:
        # an integer too large for a float
        except (TypeError, ValueError, OverflowError, MemoryError) as e:
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
    # the artifacts' paths are plain strings: pathlib interns each name it
    # parses, and a name made anew on every run spends a slot of the
    # interpreter's interned-string table, which regrows (~0.9 MB) once they
    # run out, a few hundred fig7 runs into a process
    out = os.fspath(out_dir)
    os.makedirs(out, exist_ok=True)
    cfg = scn.waveform_config()
    scheme = scn.scheme_enum
    tag = scn.tag or scheme.value

    schedule = make_schedule(scheme, cfg.m_codes, scn.k,
                             rng=substream(scn.seed, f"{tag}/schedule"),
                             one_per_group=scn.rtd_one_per_group,
                             seed=scn.seed)
    # Each frame-size array lives only while it is read. The link runs first,
    # while no sensing frame or map is alive (its substreams are its own);
    # the channel writes rx over tx, the noise draws go when it returns, and
    # rx once its windows are sensed.
    ber = evm = None
    if scn.comms_enabled and scheme.is_fsi:
        ber, evm = comms.run_link(
            cfg, schedule, random_bits(substream(scn.seed, f"{tag}/bits"),
                                       2 * (cfg.m_codes - 1) * cfg.l_occ * scn.k),
            snr_db=scn.comms_snr_db, rng=substream(scn.seed, f"{tag}/comms-noise"))

    # the noise is drawn on the background worker while the frame is
    # assembled, into a buffer allocated here: drawn into an array the worker
    # allocates, the fig6_sweep benchmark's peak_rss_mb read 62.5-62.7 ->
    # 64.2-64.3 MB in 3/3 pairs on a 2-vCPU guest
    cc = scn.channel_config()
    noise, draws = None, []
    if cc.noise_enabled:
        noise = np.empty((2, frame_len(cfg, schedule)))
        draws = [functools.partial(substream(scn.seed, f"{tag}/noise").standard_normal,
                                   out=noise)]
    with share(draws):
        tx = assemble_frame(cfg, schedule, rng=substream(scn.seed, f"{tag}/payload"))
    with np.errstate(over="ignore", invalid="ignore"):   # checked below
        rx = synthesize_rx(tx, scn.target_list(), cc, cfg, noise, out=tx)
    del noise, draws, tx
    if not np.isfinite(rx).all():
        raise ScenarioError("the receive samples overflow: reduce the SI, "
                            "noise or target levels")

    n_grid = grid_size(schedule, cfg)
    band = unambiguous_band(schedule)
    flagged_bins = 0

    if scheme is Scheme.FSI_TAIL:
        try:
            pat = load_or_build_pattern(scn, schedule)
        except CacheError as e:   # the run needs the pattern, not its file
            print(f"warning: {e}", file=sys.stderr)
            pat = e.pattern
        flagged_bins = pat.flagged_bins
        # one call per window, std then shift, and no frame under the cleanup
        # and solve
        std, shift = (receiver.process_sensing(rx, cfg, schedule, kind, pat.n_guard)
                      for kind in receiver.WindowKind)
        del rx
        rd = receiver.receive_tail(std, shift, pat,
                                   scn.cleanup_radius if scn.peak_cleanup else None,
                                   scn.rel_threshold, scn.max_peaks, scn.guard)
        # near and far rows share one extended range axis, so detection
        # on it gives both a single normalization
        maps = {"std": (std, ...), "shift": (shift, ...), "combined": (rd, ...),
                "near": (rd, slice(cfg.l_occ)), "far": (rd, slice(cfg.l_occ, None))}
        name = "combined"
    else:
        rd = receiver.process_sensing(rx, cfg, schedule,
                                      receiver.WindowKind.STANDARD, scn.n_guard)
        del rx
        name = "single"
        maps = {name: (rd, ...)}

    dets = detect.find_peaks(rd, scn.rel_threshold, scn.max_peaks, scn.guard)
    evaluation = detect.evaluate(dets, scn.target_list(), rd)

    # the CSV of near or far, whichever holds the combined map's peak, is its
    # rows of the combined CSV, which is written first
    csv_lines = {}
    for map_name, (m, rows) in maps.items():
        stem = f"rd_{tag}_{map_name}" if len(maps) > 1 else f"rd_{tag}"
        write_rd_binary(os.path.join(out, f"{stem}.bin"), m.values[rows])
        held = write_rd_csv(os.path.join(out, f"{stem}.csv"), m.magnitude[rows],
                            lines=csv_lines.get(map_name),
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
    with open(os.path.join(out, f"report_{tag}.json"), "w") as f:
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

def run_selftest() -> int:
    """Quick invariant sweep across the modules; returns failure count."""
    from . import selftest
    checks = selftest.all_checks()
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


def run_calibrate(scn: Scenario) -> dict:
    """Build, validate and store the pattern; returns its path and flagged bins."""
    if scn.scheme_enum is not Scheme.FSI_TAIL:
        raise ScenarioError("calibration applies to the fsi_tail scheme")
    schedule = make_schedule(scn.scheme_enum, scn.m_codes, scn.k, seed=scn.seed)
    pat = load_or_build_pattern(scn, schedule, validate=True)
    path = pattern_path(scn)
    print(f"pattern cached at {path}")
    print(f"validation error: {pat.validation_error}")
    if pat.flagged_bins:
        print(f"unresolvable bins: {pat.flagged_bins}")
    return {"pattern_path": path, "flagged_pattern_bins": pat.flagged_bins}


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
    p_cal = sub.add_parser("calibrate", help="build, validate and cache the "
                           "dual-window pattern (always afresh)")
    p_cal.add_argument("scenario")
    sub.add_parser("selftest", help="run the invariant suite")
    args = ap.parse_args(argv)

    try:
        if args.threads < 1:
            raise ScenarioError("--threads must be >= 1")
        if args.verb == "selftest":
            return 1 if run_selftest() else 0
        if args.verb == "preset":
            reports = run_preset(args.name, args.out_dir,
                                 seed=args.seed if args.seed is not None else 2026,
                                 threads=args.threads)
        else:
            scn = load_scenario(args.scenario)
            if args.seed is not None:
                scn = replace(scn, seed=args.seed)
            reports = [run_calibrate(scn) if args.verb == "calibrate"
                       else run_simulate(scn, args.out_dir)]
    # MemoryError: an allocation refused for the scenario's sizes, in this
    # thread or re-raised from the background worker
    except (ScenarioError, MemoryError) as e:
        print(f"scenario error: {str(e) or 'out of memory'}", file=sys.stderr)
        return 2
    except CacheError as e:   # calibrate's; simulate runs on without the file
        print(f"cache error: {e}", file=sys.stderr)
        return 2
    # what is left of OSError: simulate and preset writing their artifacts
    # (the scenario's reader and the cache handle their own)
    except OSError as e:
        print(f"output error: cannot write {args.out_dir}: {e.strerror or e}",
              file=sys.stderr)
        return 2
    return 3 if any(r["flagged_pattern_bins"] for r in reports) else 0


if __name__ == "__main__":
    sys.exit(main())
