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
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .channel import Target, target_to_delay_doppler
from .scheduler import Schedule, Scheme, grid_size, make_schedule, \
    occasion_grid_indices, unambiguous_band
from .util import SPEED_OF_LIGHT, next_fast_len, share
from .waveform import WaveformConfig, assemble_frame, frame_len, \
    symbol_rotation, transmit_constants, unitary_dft


class WindowKind(str, Enum):
    STANDARD = "standard"   # symbol body, CP skipped
    SHIFTED = "shifted"     # starts N_CP earlier, covering the CP

    def start(self, cfg: WaveformConfig) -> int:
        """The sample at which symbol 0's window starts."""
        return cfg.n_cp if self is WindowKind.STANDARD else 0


def signed_bin(col, n: int):
    """Signed frequency of FFT-order column col (int or array) on an
    n-point axis: the upper n//2 columns wrap to negative bins."""
    return col - n * (col >= n - n // 2)


NEIGHBORHOOD_BLOCK_CELLS = 1 << 16   # map cells a block of neighborhoods indexes


@dataclass
class RdMatrix:
    """Range-Doppler map with axis metadata.

    ``values`` is (L or 2L range bins x n_doppler) complex. Doppler columns
    are in FFT order; column c sits at signed bin ``signed_bin(c, n_doppler)``.
    ``grid_size`` is the full slow-time grid length G, which fixes the
    Doppler bin width 1/(G*T_chirp) even for band-restricted maps: the
    K-column maps process_sensing gives periodic schedules, and the tail
    solve's (2L, K) map. ``values`` is not changed once ``magnitude`` is read.
    """

    values: np.ndarray
    grid_size: int
    cfg: WaveformConfig

    @property
    def n_doppler(self) -> int:
        return self.values.shape[1]

    @functools.cached_property
    def magnitude(self) -> np.ndarray:
        """|values|, computed once; the map's power is its square."""
        return np.abs(self.values)

    # the axis methods take an int or an int array (elementwise)
    def range_m_of(self, d: int) -> float:
        return d * SPEED_OF_LIGHT * self.cfg.t_s / 2

    def velocity_mps_of(self, col: int) -> float:
        freq = self.cfg.doppler_hz(signed_bin(col, self.n_doppler), self.grid_size)
        return freq * self.cfg.wavelength_m / 2

    def neighborhood(self, d: np.ndarray, col: np.ndarray, rows: int, cols: int
                     ) -> tuple[np.ndarray, np.ndarray]:
        """Index of the cells within rows range bins and cols Doppler columns
        of the cells (d, col), int arrays: row and column arrays broadcasting
        to (cells, at most the map's rows, at most n_doppler). Rows clip at
        the map's edges, a window off them giving an edge row; columns wrap."""
        n_rows, n_cols = self.values.shape
        rows = min(rows, n_rows)
        lo, hi = (np.clip(d[:, None, None] + s, 0, n_rows - 1) for s in (-rows, rows))
        offs = np.arange(-cols, cols + 1) if 2 * cols + 1 < n_cols else np.arange(n_cols)
        return (np.minimum(lo + np.arange(min(2 * rows + 1, n_rows))[:, None], hi),
                (col[:, None, None] + offs) % n_cols)

    def neighborhood_blocks(self, d: np.ndarray, col: np.ndarray, rows: int,
                            cols: int) -> Iterator[tuple[slice, tuple]]:
        """neighborhood of the cells (d, col) a block of cells at a time, each
        block's index spanning at most NEIGHBORHOOD_BLOCK_CELLS map cells (one
        cell's at least): (slice of the cells, index) pairs."""
        n_rows, n_cols = self.values.shape
        span = min(2 * rows + 1, n_rows) * min(2 * cols + 1, n_cols)
        step = max(1, NEIGHBORHOOD_BLOCK_CELLS // span)
        for i in range(0, len(d), step):
            block = slice(i, i + step)
            yield block, self.neighborhood(d[block], col[block], rows, cols)

    def truth_cell(self, target: Target) -> tuple[int, int]:
        """Where target sits on the map: (range row, signed Doppler bin)."""
        cfg = self.cfg
        delay, doppler = target_to_delay_doppler(target, cfg.carrier_hz, cfg.t_s)
        return int(round(delay)), int(round(cfg.doppler_bin(doppler, self.grid_size)))

    def doppler_distance(self, b, nu):
        """Bins from signed Doppler bin b to nu on the circle of grid_size bins."""
        off = (b - nu) % self.grid_size
        return np.minimum(off, self.grid_size - off)

    def truth_neighborhood(self, cells, rows: int, cols: int
                           ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Row, column and near, (truths, ...) arrays: each truth_cell's
        neighborhood, and which of its cells lie within rows of the truth's
        range bin and cols of its bin by doppler_distance. A map's width
        divides grid_size, so none is missed, and a band map holds none near
        an out-of-band truth, not even the truth's alias."""
        # from rows past the map on, a range bin is near no row: clamped there,
        # the largest fits an int array
        d, nu = np.array([(min(d, len(self.values) + rows), nu) for d, nu in cells],
                         dtype=np.intp).reshape(-1, 2).T
        r, c = np.broadcast_arrays(*self.neighborhood(d, nu % self.n_doppler, rows, cols))
        return r, c, (np.abs(r - d[:, None, None]) <= rows) & (self.doppler_distance(
            signed_bin(c, self.n_doppler), nu[:, None, None]) <= cols)


def capture_windows(rx: np.ndarray, cfg: WaveformConfig, k: int,
                    kind: WindowKind) -> np.ndarray:
    """Per-symbol length-N receive windows, (K, N): a read-only view of rx."""
    s = cfg.symbol_len
    start = kind.start(cfg)
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


def check_n_guard(n_guard: int, length: int) -> None:
    """The bounds si_filter puts on its notch for a profile of length bins."""
    if n_guard < 1:
        raise ValueError("n_guard must be >= 1")
    if n_guard >= length:
        raise ValueError("n_guard must be smaller than the profile length")


def si_filter(y: np.ndarray, n_guard: int = 1,
              out: np.ndarray | None = None) -> np.ndarray:
    """Unitary fast-time DFT, lowest bins notched; an echo at delay d peaks at bin d.

    The delay-and-sum output of the total SI is a constant vector, so an
    ideal DC notch (the discrete stand-in for the receiver's analog
    high-pass) removes it exactly. Returns the frequency-domain profile,
    written into out if given (y itself to filter in place).
    """
    check_n_guard(n_guard, y.shape[-1])
    prof = unitary_dft(y, out)
    prof[..., :n_guard] = 0
    return prof


def slow_time_matched_filter(profiles: np.ndarray, grid_indices: np.ndarray,
                             n_grid: int, cfg: WaveformConfig) -> RdMatrix:
    """Slow-time matched filter across the occasion grid: RD[d, nu] =
    (1/K) sum_k profiles[k, d] e^{+j 2 pi g_k nu / G}; the occasions g_k are
    integers, so this is exactly _slow_time_map's zero-filled inverse DFT."""
    g = np.asarray(grid_indices)
    ordered = np.sort(g, axis=None)   # np.unique would import numpy.ma
    if (ordered[1:] == ordered[:-1]).any():
        raise ValueError("duplicate grid indices")
    if profiles.shape[0] != len(g):
        raise ValueError("one profile per scheduled occasion required")
    return _slow_time_map([(g, profiles)], g, n_grid, 0, cfg, profiles.shape[1])


def _slow_time_map(blocks: Iterable, g: np.ndarray, n_grid: int, band: int,
                   cfg: WaveformConfig, rows: int) -> RdMatrix:
    """The matched filter of occasions g: each (columns, (occasions, rows)
    profiles) of blocks put in a zero-filled (rows, G) grid, inverse DFT, times
    G/K. A band's grid is (rows, K): periodic g_k = kP + r, G = KP, tile its
    K-point inverse DFT over the full map times e^{j2pi r b/G} at signed bin b."""
    grid = np.zeros((rows, band or n_grid), dtype=complex)
    for cols, prof in blocks:
        grid[:, cols] = prof.T
    rd = np.fft.ifft(grid, axis=1, out=grid)
    rd *= np.exp(2j * np.pi * g[0] / n_grid * signed_bin(np.arange(band), band)) \
        if band else n_grid / len(g)
    return RdMatrix(values=rd, grid_size=n_grid, cfg=cfg)


def _fsi_codes(cfg: WaveformConfig, schedule: Schedule, kind: WindowKind,
               symbols: slice = slice(None)) -> tuple[np.ndarray, np.ndarray]:
    """Code c_k and rotation rho_k of the mixer reference rho_k b[c_k] of
    each symbol k in the slice.

    A window that starts s = WindowKind.start samples into its symbol sees
    the body cyclically advanced by N_CP - s, which by the code-shift
    identity turns code alpha into code (alpha + (N_CP - s)/L) mod M.
    """
    shift = (cfg.n_cp - kind.start(cfg)) // cfg.l_occ
    ks = np.arange(schedule.k)[symbols]
    return ((np.asarray(schedule.alpha)[ks] + shift) % cfg.m_codes,
            symbol_rotation(ks, cfg.m_codes, schedule.scheme))


def _fsi_references(cfg: WaveformConfig, schedule: Schedule,
                    kind: WindowKind, symbols: slice = slice(None)) -> np.ndarray:
    """Mixer references of the symbols in the slice, (symbols, N)."""
    _, _, b = transmit_constants(cfg)
    codes, rho = _fsi_codes(cfg, schedule, kind, symbols)
    refs = b[codes]
    refs *= rho[:, None]
    return refs


SENSE_BLOCK_CELLS = 1 << 15   # window samples process_sensing dechirps at a time


def process_sensing(rx: np.ndarray, cfg: WaveformConfig, schedule: Schedule,
                    kind: WindowKind = WindowKind.STANDARD, n_guard: int = 1) -> RdMatrix:
    """Full sensing chain from receive samples to the range-Doppler map of
    one window kind.

    Random schemes give the full G-column map of slow_time_matched_filter.
    Periodic ones (periodic_td, fsi_tail) give the K-column unambiguous
    band of the full map directly, the columns whose signed bin lies in
    [-K/2, K/2): column c holds signed bin signed_bin(c, K), and the bin
    width is still 1/(G T_chirp).

    SENSE_BLOCK_CELLS window samples' worth of occasions at a time are
    dechirped (and folded, FSI), notched in their own array and written
    straight into the zero-filled grid of the slow-time matched filter
    (_slow_time_map).
    """
    g = occasion_grid_indices(schedule, cfg)
    n_grid = grid_size(schedule, cfg)
    band = unambiguous_band(schedule)
    if band and not np.array_equal(g, g[0] + n_grid // band * np.arange(band)):
        raise ValueError("a banded scheme needs one occasion per period")
    every = len(g) == n_grid   # g is 0, ..., G - 1: slices, not gathers
    if schedule.scheme.is_fsi:
        windows = capture_windows(rx, cfg, schedule.k, kind)

        def beat(ks: slice) -> np.ndarray:
            refs = _fsi_references(cfg, schedule, kind, ks)
            return delay_and_sum(mix(windows[ks], refs), cfg.m_codes)
    else:
        if kind is not WindowKind.STANDARD:
            raise ValueError("slotted schemes have a single window kind")
        chirp, _, _ = transmit_constants(cfg)
        n = frame_len(cfg, schedule)
        if len(rx) < n:
            raise ValueError("frame too short")
        slots = rx[:n].reshape(n_grid, cfg.l_occ)

        def beat(ks: slice) -> np.ndarray:
            return mix(slots[ks if every else g[ks]], chirp)

    def profiles(ks: slice) -> tuple[slice | np.ndarray, np.ndarray]:
        y = beat(ks)
        return ks if band or every else g[ks], si_filter(y, n_guard, out=y)
    step = max(1, SENSE_BLOCK_CELLS // (cfg.n_fft if schedule.scheme.is_fsi else cfg.l_occ))
    return _slow_time_map(map(profiles, (slice(i, i + step) for i in range(0, len(g), step))),
                          g, n_grid, band, cfg, cfg.l_occ)


# ---------------------------------------------------------------------------
# dual-window super-distance processing
# ---------------------------------------------------------------------------

COND_MAX = 1e6   # a 2x2 cell with a larger condition number is unresolvable
VALIDATION_TOL = 1e-6   # the largest deviation the pattern's self-checks pass
PATTERN_SLICES = 32   # build_pattern computes the band in this many slices


def deviation(fast: np.ndarray, ref: np.ndarray, axis=None):
    """max|fast - ref| over axis, relative to the larger of max|ref| and 1, the
    calibration echo's unit amplitude: the rounding of both paths scales with
    the echo, not with a response that cancels. A NaN in either gives NaN."""
    return np.max(np.abs(fast - ref), axis) / np.maximum(np.max(np.abs(ref), axis), 1)


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
    def solve(cls, p: np.ndarray, n_guard: int) -> "PatternTensor":
        """The pattern of the responses p: every cell inverted by
        invert_cells, the n_guard notched range bins unresolvable. The
        caller inverts the first half of the range bins and the background
        worker the second, each into its rows of the one result."""
        resolvable = np.empty(p.shape[:2], dtype=bool)
        p_sol = np.empty(p.shape, dtype=complex)
        half = len(p) // 2
        with share([lambda: invert_cells(p[half:], (resolvable[half:], p_sol[half:]))]):
            invert_cells(p[:half], (resolvable[:half], p_sol[:half]))
        resolvable[:n_guard] = False
        p_sol[:n_guard] = 0
        return cls(p, p_sol, resolvable, n_guard)

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


class _Calibration(NamedTuple):
    """What build_pattern's slices share, from the three-symbol zero-data
    calibration frame, both windows stacked."""

    refs: np.ndarray        # mixer references (window, symbol, N)
    phase: np.ndarray       # steering phases (window, symbol, band)
    probe_f: np.ndarray     # probe transforms (window, symbol, hyp, size)
    f_b: np.ndarray         # the band columns' Doppler (band,)
    n_chirp: np.ndarray     # e^{-jpi n^2/L}
    out_chirp: np.ndarray   # e^{-jpi d^2/L} / sqrt(L)
    eps: np.ndarray         # (window, hyp) and drift (window, band), the
    drift: np.ndarray       # terms of _steady_state_bound


def _calibration(cfg: WaveformConfig, schedule: Schedule) -> _Calibration:
    """The calibration inputs of build_pattern for the band of schedule.

    Symbol 2 repeats symbol 1 turned by a = rho_2 / rho_1: the references
    by a, the probe (the conjugated frame, one symbol later) by conj(a).
    With R_s the reference transform of a column and P_s = probe_f[:, s],
    R_2 P_2 = R_1 P_1 + a R_1 e_p + E_r P_2 for the residuals
    e_r = refs_2 - a refs_1 and e_p = P_2 - conj(a) P_1. |twist| = 1,
    |out_chirp| = 1/sqrt(L), ||FFT x||_inf <= ||x||_1 and
    ||ifft X||_inf <= ||X||_1 / size then bound the responses' difference
    by (||refs_1||_1 ||e_p||_1 + ||e_r||_1 ||P_2||_1) / (size sqrt(L)) in
    every column, and the steering phases add drift = |phase_2 - phase_1|
    times |z_1|; both are zero in exact arithmetic. eps adds to the first
    an allowance for the rounding of each symbol's own responses.
    """
    l, n = cfg.l_occ, cfg.n_fft
    n_grid = grid_size(schedule, cfg)
    band = unambiguous_band(schedule)

    cal_sched = make_schedule(Scheme.FSI_TAIL, cfg.m_codes, 3)
    # led by 2L-1 zeros: the far hypothesis looks up to 2L-1 samples
    # before the frame
    probe = np.concatenate((np.zeros(2 * l - 1),
                            np.conj(assemble_frame(cfg, cal_sched))))
    g3 = occasion_grid_indices(cal_sched, cfg)

    bs = signed_bin(np.arange(band), band)
    f_b = cfg.doppler_hz(bs, n_grid)
    steer = np.exp(2j * np.pi * np.outer(g3, bs % n_grid) / n_grid)   # (3, band)
    nn = np.arange(n)
    n_chirp = np.exp(-1j * np.pi * nn * nn / l)
    lag = np.arange(-(l - 1), n)
    lag_chirp = np.exp(1j * np.pi * lag * lag / l)
    d = np.arange(l)
    out_chirp = np.exp(-1j * np.pi * d * d / l) / np.sqrt(l)
    size = next_fast_len(n + l - 1)

    # o_k of (window, symbol), and where the probe's lags start for each
    # hypothesis: the near one L samples later
    offs = np.array([[kind.start(cfg)] for kind in WindowKind]) \
        + np.arange(3) * cfg.symbol_len
    lo = offs[..., None] + (1 - np.arange(2)) * l
    probe_f = np.fft.fft((probe[lo[..., None] + np.arange(len(lag))]
                          * lag_chirp)[..., ::-1], size)
    refs = np.stack([_fsi_references(cfg, cal_sched, kind) for kind in WindowKind])
    # offs times f_b first, the np.outer order: the scalar first moves p's last bit
    phase = steer * np.exp(-2j * np.pi * cfg.t_s * (offs[..., None] * f_b))

    rho = symbol_rotation(np.arange(3), cfg.m_codes, Scheme.FSI_TAIL)
    a = rho[2] / rho[1]
    e_r = np.abs(refs[:, 2] - a * refs[:, 1]).sum(axis=-1)[:, None]
    e_p = np.abs(probe_f[:, 2] - np.conj(a) * probe_f[:, 1]).sum(axis=-1)
    # each symbol's own rounding, 16u (log2(size) + 1) of the scale
    # |z_s| <= ||refs_s||_2 ||P_s||_inf / sqrt(L): two FFTs of log2(size)
    # stages of ~6.7u each (Higham 2002, Thm 24.2) and a few products
    scale = np.linalg.norm(refs[:, 1:], axis=-1)[..., None] \
        * np.abs(probe_f[:, 1:]).max(axis=-1)   # (window, symbol, hyp)
    eps = (np.abs(refs[:, 1]).sum(axis=-1)[:, None] * e_p
           + e_r * np.abs(probe_f[:, 2]).sum(axis=-1)) / (size * np.sqrt(l)) \
        + 8 * np.finfo(float).eps * (np.log2(size) + 1) * scale.sum(axis=1) / np.sqrt(l)
    drift = np.abs(phase[:, 2] - phase[:, 1])
    return _Calibration(refs, phase, probe_f, f_b, n_chirp, out_chirp, eps, drift)


def _responses(cfg: WaveformConfig, cal: _Calibration, cols: slice) -> np.ndarray:
    """The responses z (window, symbol, hyp, column, range bin) of band
    columns cols to calibration symbols 0 and 1, computed in place in three
    buffers allocated on the calling thread; the other symbols are never
    read. twist, the columns' reference twist e^{-j2pi f_b n Ts}
    e^{-jpi n^2/L}, serves every window and symbol."""
    n, l = cfg.n_fft, cfg.l_occ
    w, size = cols.stop - cols.start, cal.probe_f.shape[-1]
    twist, rf, cv = (np.empty(shape, dtype=complex) for shape in
                     ((w, n), (2, 2, w, size), (2, 2, 2, w, size)))
    np.exp(-2j * np.pi * cfg.t_s * np.outer(cal.f_b[cols], np.arange(n)), out=twist)
    twist *= cal.n_chirp
    np.multiply(cal.refs[:, :2, None], twist, out=rf[..., :n])
    rf[..., n:] = 0
    np.fft.fft(rf, axis=-1, out=rf)
    np.multiply(rf[:, :, None], cal.probe_f[:, :2, ..., None, :], out=cv)
    np.fft.ifft(cv, axis=-1, out=cv)
    return cal.phase[:, :2, None, cols, None] * cal.out_chirp * cv[..., n - 1:n - 1 + l]


def _steady_state_bound(cal: _Calibration, z1: np.ndarray, cols: slice
                        ) -> np.ndarray:
    """A bound (window, hyp, column) on deviation(z_2, z_1, axis=-1) from
    symbol 1's responses z1 (window, hyp, column, range bin) of band columns
    cols alone: |z_2 - z_1| <= eps + drift |z_1| in every range bin
    (_calibration). A NaN in either gives NaN."""
    peak = np.max(np.abs(z1), axis=-1)
    return (cal.eps[:, :, None] + cal.drift[:, None, cols] * peak) / np.maximum(peak, 1)


def _pattern_slice(cfg: WaveformConfig, cal: _Calibration, k_full: int,
                   p: np.ndarray, cols: slice) -> None:
    """Band columns cols of both receive windows' calibrated responses into
    p[:, cols], p (L, band, window, hyp): (z_0 + (K-1) z_1) / K per cell,
    computed in buffers of the slice's own (_responses).

    Symbol 2 is never transformed. The steady-state check bounds its
    deviation from symbol 1 in every (window, hyp, column) by
    _steady_state_bound, which is never below deviation(z_2, z_1).
    """
    z = _responses(cfg, cal, cols)
    if not np.all(_steady_state_bound(cal, z[:, 1], cols) <= VALIDATION_TOL):
        raise RuntimeError("steady-state calibration assumption broken")
    p[:, cols] = ((z[:, 0] + (k_full - 1) * z[:, 1]) / k_full).transpose(3, 2, 0, 1)


def build_pattern(cfg: WaveformConfig, schedule: Schedule,
                  n_guard: int = 1, validate: bool = False) -> PatternTensor:
    """Calibrate the 2x2 near/far response per (range bin, Doppler bin).

    Runs noiseless unit-amplitude calibration echoes through the exact
    receive chain. The tail schedule is strictly periodic, so every
    interior symbol contributes identically once the matched filter
    aligns it; a three-symbol zero-data frame therefore yields the exact
    K-symbol response as (z_boundary + (K-1) z_interior) / K. Symbol 2
    only checks that steady state: its residuals from symbol 1 are
    computed once (_calibration), and every column's check bounds the
    deviation from them, without transforming symbol 2.

    All range bins of symbol k come from one twisted correlation
    sum_n ref[n] conj(probe[off + n - d]) e^{-j2pi dn/L}, off = o_k - hyp L
    with o_k = kS + window start, via the chirp (Bluestein) factorization
    e^{-j2pi dn/L} = e^{-jpi d^2/L} e^{-jpi n^2/L} e^{+jpi (n-d)^2/L}.
    The probe's Doppler term e^{-j2pi f_b (off+n-d) Ts} splits into
    e^{-j2pi f_b n Ts}, moved to the reference, and a phase that times the
    echo's own e^{-j2pi f_b delta Ts} is e^{-j2pi f_b o_k Ts} for every d.
    So one reference transform per (window, symbol) serves all band columns.

    Both windows' references, steering phases and probe transforms are
    stacked by _calibration, the twelve probe transforms in one FFT. The
    band is computed in PATTERN_SLICES slices, each for both windows, which
    the caller and the background worker share (util.share), each slice in
    buffers it allocates on its thread. With ``validate``, the caller first
    computes the cells that validate_pattern checks through the direct
    pipeline (pattern_cell_direct: each cell of both windows summed alone,
    no map sensed), while the worker builds slices. The pattern is checked
    against them as validate_pattern does, and returned with the worst
    deviation as ``validation_error``.
    """
    if schedule.scheme is not Scheme.FSI_TAIL:
        raise ValueError("pattern calibration applies to tail-mode schedules")
    band = unambiguous_band(schedule)
    cal = _calibration(cfg, schedule)
    p = np.empty((cfg.l_occ, band, 2, 2), dtype=complex)
    h = -(-band // PATTERN_SLICES)   # columns per slice, rounded up
    slices = [functools.partial(_pattern_slice, cfg, cal, schedule.k, p,
                                slice(c0, min(c0 + h, band)))
              for c0 in range(0, band, h)]
    with share(slices):
        cells = _direct_cells(cfg, schedule, n_guard, band) if validate else None
    pat = PatternTensor.solve(p, n_guard)
    if validate:
        pat.validation_error = _check_cells(pat, cells)
    return pat


def pattern_cell_direct(cfg: WaveformConfig, schedule: Schedule, d_bin: int,
                        nu: int, hyp: int, n_guard: int, tx: np.ndarray) -> np.ndarray:
    """Independent calibration of one tail-pattern cell, (range bin d_bin,
    signed Doppler bin nu), via the direct pipeline: the cell of each window
    kind's process_sensing map, (standard, shifted), computed alone.

    tx is the complete K-symbol zero-data frame of the fsi_tail schedule,
    which an on-grid calibration echo delays. With x_k a window's samples
    of symbol k and ref_k its mixer references, the map's column
    c = nu mod K at signed bin b is
        RD[d, c] = (1/K) sum_k e^{+j2pi g_k b/G} L^{-1/2}
                   sum_{i<N} e^{-j2pi d i/L} ref_k[i] conj(x_k[i]),
    the sensing chain with its fast-time DFT and its slow-time inverse DFT
    each taken at one bin. e^{-j2pi d i/L} has period L, so the sum over i
    is the DFT bin of the delay-and-sum fold; a band map's phase times its
    K-point inverse DFT is the same sum over g_k = g_0 + kP. Range bins
    below n_guard are notched to 0. No steady state is assumed, so this
    checks build_pattern's fast path independently.

    ref_k = rho_k b[c] (_fsi_codes): a tail window holds one code c, so the
    sum over k is taken first, z = sum_k conj(s_k rho_k) x_k for the slow
    weights s_k, summed SENSE_BLOCK_CELLS window samples at a time, and
    mixed once with b[c].
    """
    from .channel import echo_component
    check_n_guard(n_guard, cfg.l_occ)
    if schedule.scheme is not Scheme.FSI_TAIL:
        raise ValueError("pattern calibration applies to tail-mode schedules")
    if not 0 <= d_bin < cfg.l_occ:
        raise ValueError("range bin outside the map")
    if d_bin < n_guard:
        return np.zeros(2, dtype=complex)
    n_grid = grid_size(schedule, cfg)
    rx = echo_component(tx, d_bin + hyp * cfg.l_occ, cfg.doppler_hz(nu, n_grid),
                        1.0, cfg.t_s)
    l, g = cfg.l_occ, occasion_grid_indices(schedule, cfg)
    band = unambiguous_band(schedule)
    # the exponents reduced in integers, so no phase rounds with the index
    fast = np.exp(-2j * np.pi / l * (d_bin * np.arange(l) % l)) / np.sqrt(l)
    slow = np.exp(2j * np.pi / n_grid * (g * signed_bin(nu % band, band)
                                         % n_grid)) / len(g)
    _, _, b = transmit_constants(cfg)
    step = max(1, SENSE_BLOCK_CELLS // cfg.n_fft)
    cell = np.empty(2, dtype=complex)
    for w, kind in enumerate(WindowKind):
        windows = capture_windows(rx, cfg, schedule.k, kind)
        codes, rho = _fsi_codes(cfg, schedule, kind)
        weight = np.conj(slow * rho)
        z = np.zeros(cfg.n_fft, dtype=complex)
        for i in range(0, schedule.k, step):
            z += (windows[i:i + step] * weight[i:i + step, None]).sum(axis=0)
        y = delay_and_sum(mix(z, b[codes[0]]), cfg.m_codes)
        y *= fast
        cell[w] = y.sum()
    return cell


def _direct_cells(cfg: WaveformConfig, schedule: Schedule, n_guard: int,
                  band: int, n_cells: int = 3) -> list[tuple]:
    """The cells validation checks, drawn by default_rng(0), each as (range
    bin, band column, hypothesis, direct pipeline value of both windows);
    every cell echoes the one zero-data frame."""
    rng = np.random.default_rng(0)
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
    """The worst deviation of pat.p from the direct cells; a RuntimeError
    if it is above tol or NaN."""
    worst = float(np.max([deviation(pat.p[d_bin, col, :, hyp], direct)
                          for d_bin, col, hyp, direct in cells], initial=0.0))
    if not worst <= tol:   # a NaN deviation fails too
        raise RuntimeError(f"pattern validation failed: deviation {worst:.2e}")
    return worst


def validate_pattern(pat: PatternTensor, cfg: WaveformConfig,
                     schedule: Schedule, n_cells: int = 3,
                     tol: float = VALIDATION_TOL) -> float:
    """Spot-check the fast calibration against the direct pipeline: the worst
    deviation over the sampled cells."""
    return _check_cells(pat, _direct_cells(cfg, schedule, pat.n_guard, pat.band,
                                           n_cells), tol)


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


def peak_cleanup(rd: RdMatrix, cells, radius: int) -> RdMatrix:
    """Zero the union of the peaks' neighborhoods, then restore every peak cell.

    Mops up the straddle shoulders that the per-cell 2x2 solve cannot
    combine for off-grid targets. ``cells`` lists the (d, col) peak cells. A
    radius past the map covers the whole map; the neighborhoods are indexed
    a block of cells at a time, so time and memory per cell are bounded by
    the map.
    """
    check_cleanup_radius(radius)
    d, col = np.asarray(cells, dtype=np.intp).reshape(-1, 2).T
    vals = rd.values.copy()
    for _, index in rd.neighborhood_blocks(d, col, radius, radius):
        vals[index] = 0
    vals[d, col] = rd.values[d, col]
    return RdMatrix(values=vals, grid_size=rd.grid_size, cfg=rd.cfg)


def receive_tail(std: RdMatrix, shift: RdMatrix, pat: PatternTensor,
                 cleanup_radius: int | None = None, rel_threshold: float = 0.05,
                 max_peaks: int | None = None, guard: int = 2) -> RdMatrix:
    """The 2x2 solve of the tail-mode window maps std and shift, each sensed
    with the pattern's n_guard by its own process_sensing call (the frame may
    be gone by now). With a cleanup_radius, the solve takes each window map
    cleaned around its own find_peaks cells."""
    from . import detect   # detect imports this module
    if cleanup_radius is not None:
        std, shift = (peak_cleanup(m, [d.cell for d in detect.find_peaks(
            m, rel_threshold, max_peaks, guard)], cleanup_radius) for m in (std, shift))
    return solve_windows(std, shift, pat)
