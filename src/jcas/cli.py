"""Scenario configuration, experiment orchestration, and artifact output.

Verbs:
    simulate <scenario.json>   run one scenario, write RD artifacts + report
    preset fig6|fig7           run the bundled reproduction scenarios
    calibrate <scenario.json>  build and cache the dual-window pattern
    selftest                   run the invariant suite

Exit codes: 0 success, 1 selftest failure, 2 scenario validation error,
3 unresolvable pattern bins.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import contextlib
import ctypes
import hashlib
import json
import math
import numbers
import os
import struct
import sys
import tempfile
import time
import zipfile
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from . import comms, detect, receiver
from .channel import ChannelConfig, Target, synthesize_rx, \
    target_to_delay_doppler
from .scheduler import Schedule, Scheme, grid_size, make_schedule, \
    unambiguous_band
from .util import check_db, kmh_to_mps, substream
from .waveform import WaveformConfig, assemble_frame


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

MAGIC = b"RDMX"
FORMAT_VERSION = 1


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
            if not isinstance(t, dict) or "range_m" not in t \
                    or "velocity_kmh" not in t:
                raise ScenarioError("each target needs range_m and velocity_kmh")
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
        except (TypeError, ValueError) as e:
            raise ScenarioError(str(e))

    @classmethod
    def from_dict(cls, d: dict) -> "Scenario":
        if not isinstance(d, dict):
            raise ScenarioError("a scenario must be a JSON object")
        allowed = set(cls.__dataclass_fields__)
        unknown = set(d) - allowed
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
# artifact IO
# ---------------------------------------------------------------------------

@contextlib.contextmanager
def _rewrite(path: Path):
    """Open ``path`` for binary writing over its old bytes, not truncating first.

    The file is cut to what was written when the block exits, so a finished
    file holds exactly the new bytes. Truncating to zero and writing again
    would free the old blocks and, on ext4, force the new ones to disk at
    close; rewriting in place leaves the same-sized artifacts of repeated
    runs in the page cache for the usual writeback.
    """
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    with os.fdopen(fd, "wb") as f:
        try:
            yield f
        finally:
            f.truncate()


def write_rd_binary(path: Path, values: np.ndarray) -> None:
    """RDMX format of a (rows, cols) map: magic, u16 version, u32 rows,
    u32 cols, row-major little-endian complex float64."""
    rows, cols = values.shape
    with _rewrite(path) as f:
        f.write(MAGIC)
        f.write(struct.pack("<HII", FORMAT_VERSION, rows, cols))
        f.write(np.ascontiguousarray(values, dtype="<c16"))


def read_rd_binary(path: Path) -> np.ndarray:
    with open(path, "rb") as f:
        if f.read(4) != MAGIC:
            raise ValueError("not an RDMX file")
        version, rows, cols = struct.unpack("<HII", f.read(10))
        if version != FORMAT_VERSION:
            raise ValueError(f"unsupported RDMX version {version}")
        data = np.frombuffer(f.read(), dtype="<c16")
    return data.reshape(rows, cols)


CSV_BLOCK_CELLS = 16384   # cells formatted at a time; bounds the writer's memory
_POW10 = np.array([float(10 ** k) for k in range(23)])   # exact doubles
# the four ASCII digits of 0..9999 as the low bytes of a little-endian word
_DIGITS4 = np.frombuffer(b"".join(b"%04d\0\0\0\0" % i for i in range(10000)),
                         "<u8")
# "e-16".."e+23", indexed by the exponent + 16
_EXP4 = np.frombuffer(b"".join(b"e%+03d" % e for e in range(-16, 24)), "<u4")
# one 14-byte cell "d.ddddddde+XX," as leading digit, ".ddddddd" and "e+XX"
_CELL = np.dtype({"names": ["d0", "mant", "exp"], "formats": ["u1", "<u8", "<u4"],
                  "offsets": [0, 1, 9], "itemsize": 14})


def _format_e7(x: np.ndarray, buf: np.ndarray) -> np.ndarray:
    """Write f"{v:.7e}" of each float64 v >= 0 in x into buf[:, :13], buf
    a C-contiguous (len(x), 14) uint8 array.

    Returns the indices of the cells left unwritten, whose digits the
    vectorized rounding cannot vouch for: 10^(7-e) is not an exact double
    (this takes in every three-digit exponent), the scaled value lies
    within 1e-6 of a rounding tie, or v is not finite.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        e = np.floor(np.log10(x))
    e[~np.isfinite(e)] = 0   # a zero cell then reads 0.0000000e+00
    e = e.astype(np.int32)
    # floor(log10 x) is one off only within a few ulps of a power of ten
    # 10^n. One too high, y lands just below 1e7 and rint makes it 1e7; one
    # too low, y is 1e8 and the carry below raises e. Both give
    # 1.0000000e(n), as the f-string does.
    y = x * _POW10.take(7 - e, mode="clip")   # 10^0..10^22
    frac = y - np.floor(y)
    slow = (np.abs(frac - 0.5) < 1e-6) | (e < -15) | (e > 7) | ~np.isfinite(x)
    m = np.rint(y, out=frac)
    carry = m >= 1e8   # 9.99999995 and up round to 1.0000000e(e+1)
    m[carry] = 1e7
    e[carry] += 1
    m[slow] = 0   # their digits are not used; keep the cast and lookups defined
    e[slow] = 0
    m = m.astype(np.int32)
    # the 8 digits as two 4-digit words: "DDDD" of the high half gives the
    # leading digit and, shifted under ".", three more; the low half follows
    hi = m // 10000
    m -= 10000 * hi
    head, tail = _DIGITS4.take(hi), _DIGITS4.take(m)
    cell = buf.view(_CELL)[:, 0]
    cell["d0"] = head
    head &= 0xFFFFFF00
    head |= ord(".")
    tail <<= 32
    head |= tail
    cell["mant"] = head
    e += 16
    cell["exp"] = _EXP4.take(e)
    return np.flatnonzero(slow)


def write_rd_csv(path: Path, values: np.ndarray) -> None:
    """Normalized magnitude, one row of the (rows, cols) map per line.

    Each cell is f"{v:.7e}"; cells are joined by "," and each line ends in
    "\\n". The map is formatted a block of rows at a time.
    """
    mag = np.abs(values, dtype=np.float64)
    peak = mag.max()
    if peak > 0:
        mag /= peak
    rows, cols = mag.shape
    step = max(1, CSV_BLOCK_CELLS // cols)
    with _rewrite(path) as f:
        for r in range(0, rows, step):
            block = mag[r:r + step]
            buf = np.empty(block.shape + (14,), np.uint8)
            buf[:, :, 13] = ord(",")
            buf[:, -1, 13] = ord("\n")
            x, buf = block.ravel(), buf.reshape(-1, 14)
            done = 0
            for i in _format_e7(x, buf):
                f.write(buf[done:i])
                f.write(f"{x[i]:.7e}".encode() + buf[i, 13].tobytes())
                done = i + 1
            f.write(buf[done:])


def pattern_cache_key(scn: Scenario) -> str:
    rel = {k: getattr(scn, k) for k in
           ("n_fft", "m_codes", "n_cp", "scs_hz", "carrier_hz", "k",
            "n_guard", "scheme")}
    rel["format"] = 5   # the .npz layout written by load_or_build_pattern
    return hashlib.sha256(json.dumps(rel, sort_keys=True).encode()).hexdigest()[:16]


def cache_dir() -> Path:
    d = os.environ.get("JCAS_CACHE_DIR")
    if d:
        return Path(d)
    return Path.home() / ".cache" / "jcas"


def pattern_path(scn: Scenario) -> Path:
    return cache_dir() / f"pattern_{pattern_cache_key(scn)}.npz"


# The last pattern this process loaded from disk, with the identity of its
# file: (path, st_dev, st_ino, st_mtime_ns, st_size). Every store and every
# rebuild drops it, so a rewritten file is read again, never served stale.
_pattern_memo: tuple[tuple, receiver.PatternTensor] | None = None


def _read_pattern(path: Path) -> receiver.PatternTensor:
    """The pattern stored at path, with read-only arrays: the memoized one
    if the file is the one it was loaded from, else read and memoized."""
    global _pattern_memo
    memo = _pattern_memo   # one read: preset threads may swap the entry
    with open(path, "rb") as f:
        st = os.fstat(f.fileno())
        key = (os.fspath(path), st.st_dev, st.st_ino, st.st_mtime_ns, st.st_size)
        if memo is not None and memo[0] == key:
            return replace(memo[1])
        _pattern_memo = None
        with np.load(f) as z:
            fields_ = {k: z[k][()] for k in z.files}
    for v in fields_.values():
        if isinstance(v, np.ndarray):
            v.flags.writeable = False
    pat = receiver.PatternTensor(**fields_)
    _pattern_memo = (key, replace(pat))
    return pat


def load_or_build_pattern(scn: Scenario, schedule: Schedule,
                          validate: bool = False) -> receiver.PatternTensor:
    """The cached pattern of scn. A file that is missing, unreadable, lacks a
    field or does not fit scn's (range bins, band) shape and guard is rebuilt.
    With ``validate``, a cached pattern not yet validated is validated, and
    rebuilt if it fails; the validated pattern is stored. The last pattern
    loaded stays in memory, with read-only arrays, while its file is
    unchanged; a built pattern is the caller's own."""
    global _pattern_memo
    cfg = scn.waveform_config()
    shape = (cfg.l_occ, unambiguous_band(schedule, cfg))
    path = pattern_path(scn)
    try:
        pat = _read_pattern(path)
        if not (pat.p.shape == shape + (2, 2) == pat.p_sol.shape
                and pat.resolvable.shape == shape and pat.n_guard == scn.n_guard):
            raise ValueError("the cached pattern does not fit the scenario")
        if not validate or pat.validation_error is not None:
            return pat
        receiver.validate_pattern(pat, cfg, schedule)
    except (OSError, ValueError, TypeError, EOFError, RuntimeError,
            zipfile.BadZipFile):
        pat = None
    # the pattern is rebuilt or rewritten from here on, so the entry goes
    # first; the build runs outside the handler, whose traceback would keep
    # the failed load's frames, and through them the entry, alive
    _pattern_memo = None
    if pat is None:
        pat = receiver.build_pattern(cfg, schedule, n_guard=scn.n_guard)
        if validate:
            receiver.validate_pattern(pat, cfg, schedule)
    path.parent.mkdir(parents=True, exist_ok=True)
    # write beside the target and rename, so readers never see a partial file
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as f:
            np.savez(f, **{k: v for k, v in vars(pat).items() if v is not None})
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return pat


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
    tx = assemble_frame(cfg, schedule, rng=substream(scn.seed, f"{tag}/payload"))
    with np.errstate(over="ignore", invalid="ignore"):   # checked below
        rx = synthesize_rx(tx, scn.target_list(), scn.channel_config(), cfg,
                           rng=substream(scn.seed, f"{tag}/noise"))
    if not np.isfinite(rx).all():
        raise ScenarioError("the receive samples overflow: reduce the SI, "
                            "noise or target levels")

    n_grid = grid_size(schedule, cfg)
    band = unambiguous_band(schedule, cfg)
    flagged_bins = 0

    rd = receiver.process_sensing(rx, cfg, schedule,
                                  receiver.WindowKind.STANDARD, scn.n_guard)
    if scheme is Scheme.FSI_TAIL:
        rd_shift = receiver.process_sensing(
            rx, cfg, schedule, receiver.WindowKind.SHIFTED, scn.n_guard)
        pat = load_or_build_pattern(scn, schedule)
        flagged_bins = pat.flagged_bins
        maps = {"std": rd.values, "shift": rd_shift.values}
        if scn.peak_cleanup:
            rd, rd_shift = [receiver.peak_cleanup(
                m, [d.cell for d in detect.find_peaks(
                    m, scn.rel_threshold, scn.max_peaks, scn.guard)],
                scn.cleanup_radius) for m in (rd, rd_shift)]
        # near and far rows share one extended range axis, so detection
        # on it gives both a single normalization
        rd = receiver.solve_windows(rd, rd_shift, pat)
        maps.update(near=rd.values[:cfg.l_occ], far=rd.values[cfg.l_occ:],
                    combined=rd.values)
        name = "combined"
    else:
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

    for map_name, m in maps.items():
        stem = f"rd_{tag}_{map_name}" if len(maps) > 1 else f"rd_{tag}"
        write_rd_binary(out / f"{stem}.bin", m)
        write_rd_csv(out / f"{stem}.csv", m)

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
    except ScenarioError as e:
        print(f"scenario error: {e}", file=sys.stderr)
        return 2
    return 3 if any(r["flagged_pattern_bins"] for r in reports) else 0


if __name__ == "__main__":
    sys.exit(main())
