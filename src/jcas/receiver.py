"""FMCW sensing receiver: dechirp mixing, code-domain SI cancellation,
range/Doppler processing, and the dual-window super-distance solve.

Mixer convention (used everywhere): beat = reference * conj(received).
A delay of d samples then lands on fast-time bin +d, and a physical
Doppler +f_D appears with flipped sign in slow time; the matched filter
steers with e^{+j 2 pi g_k nu / G} (an inverse DFT over the occasion
grid) so +f_D still peaks at the bin whose signed frequency is +f_D.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from enum import Enum

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .scheduler import Schedule, Scheme, grid_size, occasion_grid_indices, \
    unambiguous_band
from .util import SPEED_OF_LIGHT, next_fast_len, share
from .waveform import WaveformConfig, assemble_frame, symbol_rotation, \
    transmit_constants, unitary_dft


class WindowKind(str, Enum):
    STANDARD = "standard"   # symbol body, CP skipped
    SHIFTED = "shifted"     # starts N_CP earlier, covering the CP


def signed_bin(col, n: int):
    """Signed frequency of FFT-order column col (int or array) on an
    n-point axis: the upper n//2 columns wrap to negative bins."""
    return col - n * (col >= n - n // 2)


@dataclass
class RdMatrix:
    """Range-Doppler map with axis metadata.

    ``values`` is (L or 2L range bins x n_doppler) complex. Doppler columns
    are in FFT order; column c sits at signed bin ``signed_bin(c, n_doppler)``.
    ``grid_size`` is the full slow-time grid length G, which fixes the
    Doppler bin width 1/(G*T_chirp) even for band-restricted maps: the
    K-column maps process_sensing gives periodic schedules, and the tail
    solve's (2L, K) map.
    """

    values: np.ndarray
    grid_size: int
    cfg: WaveformConfig

    @property
    def n_doppler(self) -> int:
        return self.values.shape[1]

    # the axis methods take an int or an int array (elementwise)
    def signed_bin(self, col: int) -> int:
        return signed_bin(col, self.n_doppler)

    def range_m_of(self, d: int) -> float:
        return d * SPEED_OF_LIGHT * self.cfg.t_s / 2

    def velocity_mps_of(self, col: int) -> float:
        freq = self.signed_bin(col) / (self.grid_size * self.cfg.t_chirp)
        return freq * self.cfg.wavelength_m / 2

    def neighborhood(self, d: int, col: int, rows: int, cols: int
                     ) -> tuple[slice, list[int]]:
        """Index of the cells within rows range bins and cols Doppler columns
        of (d, col): rows clip at the map's edges, columns wrap."""
        return (slice(max(0, d - rows), min(self.values.shape[0], d + rows + 1)),
                [(col + t) % self.n_doppler for t in range(-cols, cols + 1)])


def capture_windows(rx: np.ndarray, cfg: WaveformConfig, k: int,
                    kind: WindowKind) -> np.ndarray:
    """Per-symbol length-N receive windows, (K, N): a read-only view of rx."""
    s = cfg.symbol_len
    start = cfg.n_cp if kind is WindowKind.STANDARD else 0
    if len(rx) < (k - 1) * s + start + cfg.n_fft:
        raise ValueError("frame too short for the requested windows")
    return sliding_window_view(rx, cfg.n_fft)[start::s][:k]


def mix(window: np.ndarray, reference: np.ndarray) -> np.ndarray:
    """Dechirp: reference times conjugated received window."""
    if window.shape[-1] != reference.shape[-1]:
        raise ValueError("window/reference length mismatch")
    # in the conjugate's buffer, in the operand order (it sets the last bit)
    # numpy gave reference * conj(window) on the frames jcas runs: conj first
    # for a reference of the window's shape (numpy reused the conjugate's
    # buffer from 256 KiB on), reference first for a broadcast one
    beat = np.conj(window).astype(np.result_type(window, reference), copy=False)
    if reference.shape == beat.shape:
        beat *= reference
    else:
        np.multiply(reference, beat, out=beat)
    return beat


def delay_and_sum(beat: np.ndarray, m: int) -> np.ndarray:
    """Fold the M length-L segments of the beat; data-SI cancels exactly."""
    n = beat.shape[-1]
    if n % m != 0:
        raise ValueError("beat length not divisible by M")
    return beat.reshape(*beat.shape[:-1], m, n // m).sum(axis=-2)


def si_filter(y: np.ndarray, n_guard: int = 1) -> np.ndarray:
    """Unitary fast-time DFT, lowest bins notched; an echo at delay d peaks at bin d.

    The delay-and-sum output of the total SI is a constant vector, so an
    ideal DC notch (the discrete stand-in for the receiver's analog
    high-pass) removes it exactly. Returns the frequency-domain profile.
    """
    if n_guard < 1:
        raise ValueError("n_guard must be >= 1")
    if n_guard >= y.shape[-1]:
        raise ValueError("n_guard must be smaller than the profile length")
    prof = unitary_dft(y)
    prof[..., :n_guard] = 0
    return prof


def slow_time_matched_filter(profiles: np.ndarray, grid_indices: np.ndarray,
                             n_grid: int, cfg: WaveformConfig) -> RdMatrix:
    """Slow-time matched filter across the occasion grid.

    RD[d, nu] = (1/K) sum_k profiles[k, d] * e^{+j 2 pi g_k nu / G}.
    The occasions g_k are integers, so this is exactly a G-point inverse
    DFT of the profiles scattered onto a zero-filled grid, times G/K.
    """
    g = np.asarray(grid_indices)
    if len(np.unique(g)) != len(g):
        raise ValueError("duplicate grid indices")
    if profiles.shape[0] != len(g):
        raise ValueError("one profile per scheduled occasion required")
    filled = np.zeros((profiles.shape[1], n_grid), dtype=complex)
    filled[:, g] = profiles.T
    rd = np.fft.ifft(filled, axis=1, out=filled)
    rd *= n_grid / len(g)
    return RdMatrix(values=rd, grid_size=n_grid, cfg=cfg)


def _fsi_references(cfg: WaveformConfig, schedule: Schedule,
                    kind: WindowKind) -> np.ndarray:
    """Mixer references per symbol, (K, N).

    The shifted window sees the body cyclically advanced by N_CP, which
    by the code-shift identity turns code alpha into code
    (alpha + N_CP/L) mod M.
    """
    _, _, b = transmit_constants(cfg)
    shift = 0 if kind is WindowKind.STANDARD else cfg.cp_occasions
    refs = b[(np.asarray(schedule.alpha) + shift) % cfg.m_codes]
    refs *= symbol_rotation(np.arange(schedule.k), cfg.m_codes,
                            schedule.scheme)[:, None]
    return refs


def process_sensing(rx: np.ndarray, cfg: WaveformConfig, schedule: Schedule,
                    kind: WindowKind = WindowKind.STANDARD,
                    n_guard: int = 1) -> RdMatrix:
    """Full sensing chain from receive samples to range-Doppler map.

    Random schemes give the full G-column map of slow_time_matched_filter.
    Periodic ones (periodic_td, fsi_tail) give the K-column unambiguous
    band of the full map directly, the columns whose signed bin lies in
    [-K/2, K/2): column c holds signed bin signed_bin(c, K), and the bin
    width is still 1/(G T_chirp).
    """
    g = occasion_grid_indices(schedule, cfg)
    n_grid = grid_size(schedule, cfg)

    if schedule.scheme.is_fsi:
        windows = capture_windows(rx, cfg, schedule.k, kind)
        refs = _fsi_references(cfg, schedule, kind)
        beat = mix(windows, refs)
        folded = delay_and_sum(beat, cfg.m_codes)
        profiles = si_filter(folded, n_guard)
    else:
        if kind is not WindowKind.STANDARD:
            raise ValueError("slotted schemes have a single window kind")
        chirp, _, _ = transmit_constants(cfg)
        l = cfg.l_occ
        if len(rx) < n_grid * l:
            raise ValueError("frame too short")
        slots = rx[:n_grid * l].reshape(n_grid, l)[g]
        beat = mix(slots, chirp)
        profiles = si_filter(beat, n_guard)

    band = unambiguous_band(schedule, cfg)
    if not band:
        return slow_time_matched_filter(profiles, g, n_grid, cfg)
    # periodic occasions g_k = kP + r with G = KP: the full map is the
    # K-point inverse DFT tiled over the grid, times e^{j2pi r nu/G}, so
    # the band's signed bins b come straight from it
    if not np.array_equal(g, g[0] + n_grid // band * np.arange(band)):
        raise ValueError("a banded scheme needs one occasion per period")
    rd = np.fft.ifft(profiles.T, axis=1)
    rd *= np.exp(2j * np.pi * g[0] / n_grid * signed_bin(np.arange(band), band))
    return RdMatrix(values=rd, grid_size=n_grid, cfg=cfg)


# ---------------------------------------------------------------------------
# dual-window super-distance processing
# ---------------------------------------------------------------------------

COND_MAX = 1e6   # a 2x2 cell with a larger condition number is unresolvable
VALIDATION_TOL = 1e-6   # the largest deviation validate_pattern passes by default


@dataclass
class PatternTensor:
    """Calibrated near/far responses of both receive windows.

    ``p[d, c, w, h]`` is the complex RD value at cell (range bin d,
    band column c) produced by a unit-amplitude on-grid calibration echo
    of hypothesis h (0 = near, delay d; 1 = far, delay d + L) observed in
    window w (0 = standard, 1 = shifted). Derived from it by ``solve``:
    ``p_sol``, the per-cell 2x2 inverses with rows of unit norm, zero where
    ``resolvable`` is false (an ill-conditioned 2x2 or a range bin notched
    by the SI guard). ``band`` is derived from ``p``.
    """

    p: np.ndarray          # (L, band, 2, 2)
    p_sol: np.ndarray      # (L, band, 2, 2)
    resolvable: np.ndarray  # (L, band) bool
    n_guard: int
    validation_error: float | None = None

    @classmethod
    def solve(cls, p: np.ndarray, n_guard: int,
              validation_error: float | None = None) -> "PatternTensor":
        """The pattern of the responses p: every cell inverted by
        invert_cells, the n_guard notched range bins unresolvable. The
        caller inverts the first half of the range bins and the background
        worker the second, each into its rows of the one result."""
        resolvable = np.empty(p.shape[:2], dtype=bool)
        p_sol = np.empty(p.shape, dtype=complex)
        half = len(p) // 2
        with share([lambda _: invert_cells(p[half:], (resolvable[half:],
                                                     p_sol[half:]))]):
            invert_cells(p[:half], (resolvable[:half], p_sol[:half]))
        resolvable[:n_guard] = False
        p_sol[:n_guard] = 0
        return cls(p, p_sol, resolvable, n_guard, validation_error)

    @property
    def band(self) -> int:
        return self.p.shape[1]

    @property
    def flagged_bins(self) -> int:   # unresolvable cells beside the guard rows
        return int((~self.resolvable[self.n_guard:]).sum())


def invert_cells(p: np.ndarray, out: tuple[np.ndarray, np.ndarray] | None = None
                 ) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form solve of each 2x2 cell P = [[a, b], [c, d]] of p[..., :, :].

    Returns the mask cond(P) <= COND_MAX, false for NaN, zero and singular
    cells, and the inverses: rows [d, -b] and [-c, a] times conj(det)/|det|,
    each scaled to unit norm, zero outside the mask; written into out =
    (mask, inverses) if given. With r = |det| / ||P||_F^2,
    cond = (1 + sqrt(1 - 4r^2)) / (2r), free of ||P||_F^4 overflow.
    """
    if out is None:
        out = np.empty(p.shape[:-2], dtype=bool), np.empty(p.shape, dtype=complex)
    resolvable, p_sol = out
    a, b, c, d = p[..., 0, 0], p[..., 0, 1], p[..., 1, 0], p[..., 1, 1]
    det = a * d - b * c
    p_sol[..., 0, 0], p_sol[..., 1, 1] = d, a
    np.negative(b, out=p_sol[..., 0, 1])
    np.negative(c, out=p_sol[..., 1, 0])
    row_sq = (p_sol.real ** 2 + p_sol.imag ** 2).sum(axis=-1)
    with np.errstate(all="ignore"):   # the mask drops what this spoils
        r = np.abs(det) / row_sq.sum(axis=-1)
        np.less_equal((1 + np.sqrt(np.maximum(1 - 4 * r * r, 0))) / (2 * r), COND_MAX,
                      out=resolvable)
        p_sol *= (np.conj(det) / np.abs(det))[..., None, None]
        p_sol /= np.sqrt(row_sq)[..., None]
    p_sol[~resolvable] = 0
    return resolvable, p_sol


def _pattern_slice(cfg: WaveformConfig, windows: list[tuple], f_b: np.ndarray,
                   n_chirp: np.ndarray, out_chirp: np.ndarray, k_full: int,
                   p: np.ndarray, cols: slice, bufs: tuple[np.ndarray, ...]) -> None:
    """Band columns cols of both receive windows' calibrated responses into
    p[:, cols], p (L, band, window, hyp): (z_0 + (K-1) z_1) / K per cell.

    windows holds each window's mixer references (3, N), steering phases
    (3, band) and probe transforms (3, hyp, size). The slice is computed in
    bufs = (twist, ref_f, conv, z_1), shaped (h, N), (h, size), (h, size)
    and (hyp, h, L) for h columns or more: twist, the columns' reference
    twist e^{-j2pi f_b n Ts} e^{-jpi n^2/L} (n_chirp the second factor),
    serves both windows. Symbol 0 goes straight into p, symbol 1 into z_1,
    and symbol 2 is only compared with symbol 1 for the steady-state check.
    """
    n, l = cfg.n_fft, cfg.l_occ
    w = cols.stop - cols.start
    twist, rf, cv, z_1 = bufs[0][:w], bufs[1][:w], bufs[2][:w], bufs[3][:, :w]
    np.exp(-2j * np.pi * cfg.t_s * np.outer(f_b[cols], np.arange(n)), out=twist)
    twist *= n_chirp
    for wi, (refs, phase, probe_f) in enumerate(windows):
        out = p[:, :, wi]
        for k in range(3):
            np.multiply(refs[k], twist, out=rf[:, :n])
            rf[:, n:] = 0
            np.fft.fft(rf, axis=-1, out=rf)
            for hyp in (0, 1):
                np.multiply(rf, probe_f[k, hyp], out=cv)
                np.fft.ifft(cv, axis=-1, out=cv)
                z = phase[k, cols, None] * out_chirp * cv[:, n - 1:n - 1 + l]
                if k == 0:
                    out[:, cols, hyp] = z.T
                elif k == 1:
                    z_1[hyp] = z
                else:
                    dev = np.max(np.abs(z_1[hyp] - z), axis=-1)
                    scale = np.max(np.abs(z_1[hyp]), axis=-1)
                    if np.any(dev > 1e-6 * np.maximum(scale, 1e-30)):
                        raise RuntimeError("steady-state calibration assumption broken")
        for hyp in (0, 1):
            out[:, cols, hyp] = ((out[:, cols, hyp].T + (k_full - 1) * z_1[hyp])
                                 / k_full).T


def build_pattern(cfg: WaveformConfig, schedule: Schedule,
                  n_guard: int = 1, validate: bool = False) -> PatternTensor:
    """Calibrate the 2x2 near/far response per (range bin, Doppler bin).

    Runs noiseless unit-amplitude calibration echoes through the exact
    receive chain. The tail schedule is strictly periodic, so every
    interior symbol contributes identically once the matched filter
    aligns it; a three-symbol zero-data frame therefore yields the exact
    K-symbol response as (z_boundary + (K-1) z_interior) / K.

    All range bins of symbol k come from one twisted correlation
    sum_n ref[n] conj(probe[off + n - d]) e^{-j2pi dn/L}, off = o_k - hyp L
    with o_k = kS + window start, via the chirp (Bluestein) factorization
    e^{-j2pi dn/L} = e^{-jpi d^2/L} e^{-jpi n^2/L} e^{+jpi (n-d)^2/L}.
    The probe's Doppler term e^{-j2pi f_b (off+n-d) Ts} splits into
    e^{-j2pi f_b n Ts}, moved to the reference, and a phase that times the
    echo's own e^{-j2pi f_b delta Ts} is e^{-j2pi f_b o_k Ts} for every d.
    So one reference transform per (window, symbol) serves all band columns.

    The band is computed in eighths, each for both windows. The caller and
    the background worker share the eight slices (util.share), each in
    eighth-band buffers of its own. With ``validate``, the caller first
    computes the cells that validate_pattern checks through the direct
    pipeline, while the worker builds, and the pattern is checked against
    them as validate_pattern does.
    """
    if schedule.scheme is not Scheme.FSI_TAIL:
        raise ValueError("pattern calibration applies to tail-mode schedules")
    m, l, n = cfg.m_codes, cfg.l_occ, cfg.n_fft
    n_grid = grid_size(schedule, cfg)
    band = unambiguous_band(schedule, cfg)

    cal_sched = Schedule(Scheme.FSI_TAIL, m, 3, alpha=(m - 1,) * 3)
    # led by 2L-1 zeros: the far hypothesis looks up to 2L-1 samples
    # before the frame
    probe = np.concatenate((np.zeros(2 * l - 1),
                            np.conj(assemble_frame(cfg, cal_sched))))
    g3 = occasion_grid_indices(cal_sched, cfg)

    bs = signed_bin(np.arange(band), band)
    f_b = bs / (n_grid * cfg.t_chirp)
    steer = np.exp(2j * np.pi * np.outer(g3, bs % n_grid) / n_grid)   # (3, band)
    nn = np.arange(n)
    n_chirp = np.exp(-1j * np.pi * nn * nn / l)
    lag = np.arange(-(l - 1), n)
    lag_chirp = np.exp(1j * np.pi * lag * lag / l)
    d = np.arange(l)
    out_chirp = np.exp(-1j * np.pi * d * d / l) / np.sqrt(l)
    size = next_fast_len(n + l - 1)

    windows = []   # (references, steering phases, probe transforms)
    for kind in (WindowKind.STANDARD, WindowKind.SHIFTED):
        offs = np.arange(3) * cfg.symbol_len \
            + (cfg.n_cp if kind is WindowKind.STANDARD else 0)
        probe_f = np.empty((3, 2, size), dtype=complex)   # (symbol, hyp, lag)
        for k in range(3):
            for hyp in (0, 1):
                lo = offs[k] + (1 - hyp) * l
                b = probe[lo:lo + len(lag)] * lag_chirp
                probe_f[k, hyp] = np.fft.fft(b[::-1], size)
        windows.append((_fsi_references(cfg, cal_sched, kind),
                        steer * np.exp(-2j * np.pi * cfg.t_s * np.outer(offs, f_b)),
                        probe_f))
    p = np.empty((l, band, 2, 2), dtype=complex)
    h = (band + 7) // 8   # an eighth of the band, rounded up
    slices = [functools.partial(_pattern_slice, cfg, windows, f_b, n_chirp, out_chirp,
                                schedule.k, p, slice(c0, min(c0 + h, band)))
              for c0 in range(0, band, h)]
    # each thread computes its slices in buffers of its own; the caller's are
    # allocated only once its direct cells, which need far more memory, are done
    with share(slices, lambda: (np.empty((h, n), dtype=complex),
                                np.empty((h, size), dtype=complex),
                                np.empty((h, size), dtype=complex),
                                np.empty((2, h, l), dtype=complex))):
        cells = _direct_cells(cfg, schedule, n_guard, band) if validate else None
    pat = PatternTensor.solve(p, n_guard)
    if validate:
        _check_cells(pat, cells)
    return pat


def pattern_cell_direct(cfg: WaveformConfig, schedule: Schedule, d_bin: int,
                        signed_bin: int, hyp: int, n_guard: int = 1,
                        tx: np.ndarray | None = None) -> np.ndarray:
    """Independent calibration of one pattern cell via the full pipeline.

    Synthesizes the complete K-symbol zero-data frame (or takes it as tx)
    and an on-grid calibration echo, runs both windows through
    process_sensing, and reads the cell. Used to validate the fast
    calibration path.
    """
    from .channel import echo_component
    n_grid = grid_size(schedule, cfg)
    f_b = signed_bin / (n_grid * cfg.t_chirp)
    if tx is None:
        tx = assemble_frame(cfg, schedule)
    delta = d_bin + hyp * cfg.l_occ
    rx = echo_component(tx, delta, f_b, 1.0, cfg.t_s)
    out = []
    for kind in (WindowKind.STANDARD, WindowKind.SHIFTED):
        rd = process_sensing(rx, cfg, schedule, kind, n_guard)
        out.append(rd.values[d_bin, signed_bin % rd.n_doppler])
    return np.array(out)


def _direct_cells(cfg: WaveformConfig, schedule: Schedule, n_guard: int,
                  band: int, n_cells: int = 3,
                  rng: np.random.Generator | None = None) -> list[tuple]:
    """The cells validation checks, drawn by rng (default_rng(0) if None),
    each as (range bin, band column, hypothesis, direct pipeline value of
    both windows); every cell echoes the one zero-data frame."""
    rng = rng or np.random.default_rng(0)
    tx = assemble_frame(cfg, schedule)
    cells = []
    for _ in range(n_cells):
        d_bin = int(rng.integers(n_guard, cfg.l_occ))
        col = int(rng.integers(0, band))
        hyp = int(rng.integers(0, 2))
        cells.append((d_bin, col, hyp, pattern_cell_direct(
            cfg, schedule, d_bin, signed_bin(col, band), hyp, n_guard, tx)))
    return cells


def _check_cells(pat: PatternTensor, cells: list[tuple],
                 tol: float = VALIDATION_TOL) -> float:
    """The worst relative deviation of pat.p from the direct cells, recorded
    on pat; a RuntimeError if it is above tol or NaN."""
    worst = 0.0
    for d_bin, col, hyp, direct in cells:
        fast = pat.p[d_bin, col, :, hyp]
        worst = float(np.maximum(worst, np.max(np.abs(direct - fast))
                                 / max(np.max(np.abs(direct)), 1e-30)))
    pat.validation_error = worst
    if not worst <= tol:   # a NaN deviation fails too
        raise RuntimeError(f"pattern validation failed: deviation {worst:.2e}")
    return worst


def validate_pattern(pat: PatternTensor, cfg: WaveformConfig,
                     schedule: Schedule, n_cells: int = 3,
                     rng: np.random.Generator | None = None,
                     tol: float = VALIDATION_TOL) -> float:
    """Spot-check the fast calibration against the direct pipeline.

    Returns the worst relative deviation over the sampled cells and
    records it on the tensor.
    """
    return _check_cells(pat, _direct_cells(cfg, schedule, pat.n_guard, pat.band,
                                           n_cells, rng), tol)


def solve_windows(rd_std: RdMatrix, rd_shift: RdMatrix, pat: PatternTensor
                  ) -> RdMatrix:
    """Disambiguate near/far returns by inverting the 2x2 per cell.

    Takes both window maps restricted to the pattern's band and returns one
    map on the extended 2L-bin range axis: near rows [0, L), then far rows
    [L, 2L). Unresolvable cells come out zero.
    """
    if rd_std.values.shape != rd_shift.values.shape:
        raise ValueError("window maps must have identical shapes")
    if rd_std.n_doppler != pat.band:
        raise ValueError("window maps must be restricted to the pattern band")
    l = rd_std.values.shape[0]
    out = np.empty((2 * l, pat.band), dtype=complex)
    # p_sol is zero in the rows of an unresolvable cell
    for hyp, rows in enumerate((out[:l], out[l:])):
        np.multiply(pat.p_sol[..., hyp, 0], rd_std.values, out=rows)
        rows += pat.p_sol[..., hyp, 1] * rd_shift.values
    return RdMatrix(values=out, grid_size=rd_std.grid_size, cfg=rd_std.cfg)


def check_cleanup_radius(radius: int) -> None:
    """The bound peak_cleanup puts on its neighborhood radius."""
    if radius < 1:
        raise ValueError("cleanup_radius must be >= 1")


def peak_cleanup(rd: RdMatrix, cells, radius: int = 2) -> RdMatrix:
    """Zero the neighborhood of each detected peak, keeping the peak cell.

    Mops up the straddle shoulders that the per-cell 2x2 solve cannot
    combine for off-grid targets. ``cells`` lists the (d, col) peak cells.
    """
    check_cleanup_radius(radius)
    vals = rd.values.copy()
    for d0, c0 in cells:
        keep = vals[d0, c0]
        vals[rd.neighborhood(d0, c0, radius, radius)] = 0
        vals[d0, c0] = keep
    return RdMatrix(values=vals, grid_size=rd.grid_size, cfg=rd.cfg)


def receive_tail(rx: np.ndarray, cfg: WaveformConfig, schedule: Schedule,
                 pat: PatternTensor, n_guard: int = 1, cleanup_radius: int | None = None,
                 rel_threshold: float = 0.05, max_peaks: int | None = None,
                 guard: int = 2) -> tuple[RdMatrix, RdMatrix, RdMatrix]:
    """Both tail-mode window maps, as captured, and their 2x2 solve: (std,
    shift, solved). With a cleanup_radius, the solve takes each window map
    cleaned around its own find_peaks cells."""
    from . import detect   # detect imports this module
    std, shift = (process_sensing(rx, cfg, schedule, kind, n_guard)
                  for kind in (WindowKind.STANDARD, WindowKind.SHIFTED))
    if cleanup_radius is None:
        return std, shift, solve_windows(std, shift, pat)
    cleaned = [peak_cleanup(m, [d.cell for d in detect.find_peaks(
        m, rel_threshold, max_peaks, guard)], cleanup_radius) for m in (std, shift)]
    return std, shift, solve_windows(*cleaned, pat)
