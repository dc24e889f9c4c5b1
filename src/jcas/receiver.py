"""FMCW sensing receiver: dechirp mixing, code-domain SI cancellation,
range/Doppler processing, and the dual-window super-distance solve.

Mixer convention (used everywhere): beat = reference * conj(received).
A delay of d samples then lands on fast-time bin +d, and a physical
Doppler +f_D appears with flipped sign in slow time; the matched filter
steers with e^{+j 2 pi g_k nu / G} (an inverse DFT over the occasion
grid) so +f_D still peaks at the bin whose signed frequency is +f_D.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np
import scipy.fft
from numpy.lib.stride_tricks import sliding_window_view

from .scheduler import Schedule, Scheme, grid_size, occasion_grid_indices, \
    unambiguous_band
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

    def signed_bin(self, col: int) -> int:
        return signed_bin(col, self.n_doppler)

    def range_m_of(self, d: int) -> float:
        from .util import SPEED_OF_LIGHT
        return d * SPEED_OF_LIGHT * self.cfg.t_s / 2

    def velocity_mps_of(self, col: int) -> float:
        freq = self.signed_bin(col) / (self.grid_size * self.cfg.t_chirp)
        return freq * self.cfg.wavelength_m / 2


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
    return reference * np.conj(window)


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
    rd = scipy.fft.ifft(filled, axis=1, overwrite_x=True)
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
    band directly, equal to extract_band of the full map: column c holds
    signed bin signed_bin(c, K), and the bin width is still 1/(G T_chirp).
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
    rd = scipy.fft.ifft(profiles.T, axis=1)
    rd *= np.exp(2j * np.pi * g[0] / n_grid * signed_bin(np.arange(band), band))
    return RdMatrix(values=rd, grid_size=n_grid, cfg=cfg)


def extract_band(rd: RdMatrix, band: int) -> RdMatrix:
    """Restrict a full map to the scheme's unambiguous Doppler band.

    Keeps columns whose signed bin lies in [-band/2, band/2), re-indexed
    in FFT order of the band. The bin width is unchanged.
    """
    if band > rd.n_doppler:
        raise ValueError("band wider than the map")
    cols = signed_bin(np.arange(band), band) % rd.n_doppler
    return RdMatrix(values=rd.values[:, cols], grid_size=rd.grid_size,
                    cfg=rd.cfg)


# ---------------------------------------------------------------------------
# dual-window super-distance processing
# ---------------------------------------------------------------------------

COND_MAX = 1e6   # a 2x2 cell with a larger condition number is unresolvable


@dataclass
class PatternTensor:
    """Calibrated near/far responses of both receive windows.

    ``p[d, c, w, h]`` is the complex RD value at cell (range bin d,
    band column c) produced by a unit-amplitude on-grid calibration echo
    of hypothesis h (0 = near, delay d; 1 = far, delay d + L) observed in
    window w (0 = standard, 1 = shifted). Stored beside it, from
    ``invert_cells``: ``p_sol``, the per-cell 2x2 inverses with rows of unit
    norm, zero where ``resolvable`` is false (an ill-conditioned 2x2 or a
    range bin notched by the SI guard). ``band`` is derived from ``p``.
    """

    p: np.ndarray          # (L, band, 2, 2)
    p_sol: np.ndarray      # (L, band, 2, 2)
    resolvable: np.ndarray  # (L, band) bool
    n_guard: int
    validation_error: float | None = None

    @property
    def band(self) -> int:
        return self.p.shape[1]

    @property
    def flagged_bins(self) -> int:   # unresolvable cells beside the guard rows
        return int((~self.resolvable[self.n_guard:]).sum())


def invert_cells(p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form solve of each 2x2 cell P = [[a, b], [c, d]] of p[..., :, :].

    Returns the mask cond(P) <= COND_MAX, false for NaN, zero and singular
    cells, and the inverses: rows [d, -b] and [-c, a] times conj(det)/|det|,
    each scaled to unit norm, zero outside the mask. With r = |det| /
    ||P||_F^2, cond = (1 + sqrt(1 - 4r^2)) / (2r), free of ||P||_F^4 overflow.
    """
    a, b, c, d = p[..., 0, 0], p[..., 0, 1], p[..., 1, 0], p[..., 1, 1]
    det = a * d - b * c
    p_sol = np.stack((d, -b, -c, a), axis=-1).reshape(p.shape)
    row_sq = (p_sol.real ** 2 + p_sol.imag ** 2).sum(axis=-1)
    with np.errstate(all="ignore"):   # the mask drops what this spoils
        r = np.abs(det) / row_sq.sum(axis=-1)
        resolvable = (1 + np.sqrt(np.maximum(1 - 4 * r * r, 0))) / (2 * r) <= COND_MAX
        p_sol *= (np.conj(det) / np.abs(det))[..., None, None]
        p_sol /= np.sqrt(row_sq)[..., None]
    p_sol[~resolvable] = 0
    return resolvable, p_sol


def build_pattern(cfg: WaveformConfig, schedule: Schedule,
                  n_guard: int = 1) -> PatternTensor:
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
    """
    if schedule.scheme is not Scheme.FSI_TAIL:
        raise ValueError("pattern calibration applies to tail-mode schedules")
    m, l, n = cfg.m_codes, cfg.l_occ, cfg.n_fft
    k_full = schedule.k
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
    ref_twist = np.exp(-2j * np.pi * cfg.t_s * np.outer(f_b, nn)) \
        * np.exp(-1j * np.pi * nn * nn / l)                            # (band, N)
    lag = np.arange(-(l - 1), n)
    lag_chirp = np.exp(1j * np.pi * lag * lag / l)
    d = np.arange(l)
    out_chirp = np.exp(-1j * np.pi * d * d / l) / np.sqrt(l)
    size = scipy.fft.next_fast_len(n + l - 1)

    p = np.zeros((l, band, 2, 2), dtype=complex)
    for wi, kind in enumerate((WindowKind.STANDARD, WindowKind.SHIFTED)):
        offs = np.arange(3) * cfg.symbol_len \
            + (cfg.n_cp if kind is WindowKind.STANDARD else 0)
        refs = _fsi_references(cfg, cal_sched, kind)
        phase = steer * np.exp(-2j * np.pi * cfg.t_s * np.outer(offs, f_b))
        z = np.empty((2, 3, band, l), dtype=complex)   # (hyp, symbol, col, d)
        for k in range(3):
            ref_f = scipy.fft.fft(refs[k] * ref_twist, size)
            for hyp in (0, 1):
                lo = offs[k] + (1 - hyp) * l
                b = probe[lo:lo + len(lag)] * lag_chirp
                conv = scipy.fft.ifft(ref_f * scipy.fft.fft(b[::-1], size),
                                      overwrite_x=True)
                z[hyp, k] = phase[k, :, None] * out_chirp * conv[:, n - 1:n - 1 + l]
        interior_dev = np.max(np.abs(z[:, 1] - z[:, 2]), axis=-1)
        scale = np.maximum(np.max(np.abs(z[:, 1]), axis=-1), 1e-30)
        if np.any(interior_dev > 1e-6 * scale):
            raise RuntimeError("steady-state calibration assumption broken")
        p[:, :, wi] = ((z[:, 0] + (k_full - 1) * z[:, 1]) / k_full).T

    resolvable, p_sol = invert_cells(p)
    resolvable[:n_guard] = False
    p_sol[:n_guard] = 0
    return PatternTensor(p=p, p_sol=p_sol, resolvable=resolvable,
                         n_guard=n_guard)


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


def validate_pattern(pat: PatternTensor, cfg: WaveformConfig,
                     schedule: Schedule, n_cells: int = 3,
                     rng: np.random.Generator | None = None,
                     tol: float = 1e-6) -> float:
    """Spot-check the fast calibration against the direct pipeline.

    Returns the worst relative deviation over the sampled cells and
    records it on the tensor.
    """
    rng = rng or np.random.default_rng(0)
    tx = assemble_frame(cfg, schedule)   # the zero-data frame every cell echoes
    worst = 0.0
    for _ in range(n_cells):
        d_bin = int(rng.integers(pat.n_guard, cfg.l_occ))
        col = int(rng.integers(0, pat.band))
        hyp = int(rng.integers(0, 2))
        signed = signed_bin(col, pat.band)
        direct = pattern_cell_direct(cfg, schedule, d_bin, signed, hyp,
                                     pat.n_guard, tx)
        fast = pat.p[d_bin, col, :, hyp]
        worst = float(np.maximum(worst, np.max(np.abs(direct - fast))
                                 / max(np.max(np.abs(direct)), 1e-30)))
    pat.validation_error = worst
    if not worst <= tol:   # a NaN deviation fails too
        raise RuntimeError(f"pattern validation failed: deviation {worst:.2e}")
    return worst


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
    n_dop = rd.n_doppler
    for d0, c0 in cells:
        keep = vals[d0, c0]
        lo, hi = max(0, d0 - radius), min(vals.shape[0], d0 + radius + 1)
        cols = [(c0 + t) % n_dop for t in range(-radius, radius + 1)]
        vals[lo:hi, cols] = 0
        vals[d0, c0] = keep
    return RdMatrix(values=vals, grid_size=rd.grid_size, cfg=rd.cfg)


def quantize(v: np.ndarray, bits: int, full_scale: float) -> np.ndarray:
    """Uniform mid-rise quantizer on real and imaginary parts, clipped.

    Models the ADC: placed on the raw receive stream it demonstrates how
    un-cancelled SI eats the dynamic range; placed after delay-and-sum it
    models the analog-cancellation receiver.
    """
    if not 4 <= bits <= 16:
        raise ValueError("bits must be in [4, 16]")
    step = 2 * full_scale / (1 << bits)
    top = full_scale - step / 2

    def q(x):
        return np.clip((np.floor(x / step) + 0.5) * step, -top, top)

    return q(np.real(v)) + 1j * q(np.imag(v))
