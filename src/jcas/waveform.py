"""Transmit-side waveform synthesis.

Builds chirps, the frequency-shifted tiled-chirp base set, the DFT-like
spreading code set, per-code sensing waveforms, and complete transmit frames
for both the slotted (time-division) schemes and the chirp-implanted OFDM
scheme.

Conventions used everywhere in this package:
  * all indices are 0-based,
  * DFTs are unitary (1/sqrt(size) both directions),
  * complex samples are numpy complex128.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .scheduler import Schedule, Scheme, grid_size


@dataclass(frozen=True)
class WaveformConfig:
    """All grid constants of the simulation.

    Attributes
    ----------
    n_fft : int
        OFDM FFT size (number of subcarriers).
    m_codes : int
        Number of spreading codes == chirp repetitions per symbol.
    n_cp : int
        Cyclic prefix length in samples. Must be a multiple of the
        occasion length so the slow-time occasion grid stays uniform.
    scs_hz : float
        Subcarrier spacing in Hz, within [1 Hz, 1 THz].
    carrier_hz : float
        RF carrier, used only for Doppler/velocity conversion.
    """

    n_fft: int = 2048
    m_codes: int = 4
    n_cp: int = 512
    scs_hz: float = 60e3
    carrier_hz: float = 60e9

    def __post_init__(self):
        if self.m_codes < 2:
            raise ValueError("m_codes must be >= 2")
        if self.n_fft < self.m_codes or self.n_fft % self.m_codes != 0:
            raise ValueError("n_fft must be a positive multiple of m_codes")
        if not 0 <= self.n_cp <= self.n_fft or self.n_cp % self.l_occ != 0:
            raise ValueError("n_cp must be a multiple of the occasion length in [0, n_fft]")
        if not 1 <= self.scs_hz <= 1e12:
            raise ValueError("scs_hz must be in [1, 1e12] Hz")
        if not 0 < self.carrier_hz <= 1e15:   # up to optical carriers
            raise ValueError("carrier_hz must be in (0, 1e15] Hz")

    @property
    def l_occ(self) -> int:
        """Occasion (single chirp) length in samples."""
        return self.n_fft // self.m_codes

    @property
    def t_s(self) -> float:
        """Sample period in seconds."""
        return 1.0 / (self.n_fft * self.scs_hz)

    @property
    def b_hz(self) -> float:
        """Occupied bandwidth in Hz."""
        return self.n_fft * self.scs_hz

    @property
    def t_chirp(self) -> float:
        """Duration of one chirp / occasion in seconds."""
        return self.l_occ * self.t_s

    def doppler_hz(self, bins, n_grid: int):
        """Doppler frequency of signed bin(s) on an n_grid-occasion grid."""
        return bins / (n_grid * self.t_chirp)

    def doppler_bin(self, hz, n_grid: int):
        """Signed bin, unrounded, of Doppler frequency hz: doppler_hz's inverse."""
        return hz * n_grid * self.t_chirp

    @property
    def cp_occasions(self) -> int:
        """How many occasions the cyclic prefix spans."""
        return self.n_cp // self.l_occ

    @property
    def symbol_len(self) -> int:
        """OFDM symbol length including CP, in samples."""
        return self.n_fft + self.n_cp

    @property
    def wavelength_m(self) -> float:
        from .util import SPEED_OF_LIGHT
        return SPEED_OF_LIGHT / self.carrier_hz


def unitary_dft(v: np.ndarray) -> np.ndarray:
    """Unitary DFT along the last axis (Parseval-preserving)."""
    v = np.asarray(v)
    if v.shape[-1] == 0:
        raise ValueError("empty input")
    return np.fft.fft(v, axis=-1) / np.sqrt(v.shape[-1])


def unitary_idft(v: np.ndarray) -> np.ndarray:
    """Unitary inverse DFT along the last axis."""
    v = np.asarray(v)
    if v.shape[-1] == 0:
        raise ValueError("empty input")
    out = np.fft.ifft(v, axis=-1)
    out *= np.sqrt(v.shape[-1])
    return out


def make_chirp(cfg: WaveformConfig) -> np.ndarray:
    """Complex baseband chirp exp(j2pi(f0*n*Ts + kc*(n*Ts)^2/2)) over one
    occasion: a full-band sweep, f0 = -B/2 and kc = B/T_chirp."""
    f0, kc, t_s = -cfg.b_hz / 2, cfg.b_hz / cfg.t_chirp, cfg.t_s
    n = np.arange(cfg.l_occ)
    phase = 2 * np.pi * (f0 * n * t_s + 0.5 * kc * (n * t_s) ** 2)
    return np.exp(1j * phase)


def make_base_set(cfg: WaveformConfig, chirp: np.ndarray) -> np.ndarray:
    """M frequency-shifted copies of the M-fold tiled chirp, (M, N).

    Row m has unit modulus and occupies exactly the subcarriers congruent
    to m (mod M).
    """
    if len(chirp) != cfg.l_occ:
        raise ValueError(f"chirp length {len(chirp)} != occasion length {cfg.l_occ}")
    m = np.arange(cfg.m_codes)[:, None]
    n = np.arange(cfg.n_fft)
    return np.tile(chirp, cfg.m_codes) * np.exp(2j * np.pi * m * n / cfg.n_fft)


def make_code_matrix(m: int) -> np.ndarray:
    """Unitary spreading code set: DFT kernel with a half-bin phase ramp.

    u[m, k] = exp(-j2pi*m*k/M) * exp(-j*pi*k/M) / sqrt(M), (M, M) with
    orthonormal rows.

    The half-bin ramp is what time-localizes sensing waveform m at
    occasion m and yields the cyclic code-shift identity
    roll(b_m, L) == b_{(m+1) mod M}.
    """
    if m < 1:
        raise ValueError("need at least one code")
    mm, kk = np.meshgrid(np.arange(m), np.arange(m), indexing="ij")
    return np.exp(-2j * np.pi * mm * kk / m) * np.exp(-1j * np.pi * kk / m) / np.sqrt(m)


def make_sensing_waveforms(base: np.ndarray, codes: np.ndarray) -> np.ndarray:
    """Time-domain sensing waveforms b_m = sum_i u[m,i] * base_i, (M, N)."""
    if base.shape[0] != codes.shape[0]:
        raise ValueError("base set and code matrix disagree on M")
    return codes @ base


@functools.cache
def transmit_constants(cfg: WaveformConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The chirp, code matrix u and sensing waveforms b of a config, built
    once per (frozen, hashable) config and shared, hence read-only."""
    chirp = make_chirp(cfg)
    u = make_code_matrix(cfg.m_codes)
    b = make_sensing_waveforms(make_base_set(cfg, chirp), u)
    for a in (chirp, u, b):
        a.flags.writeable = False
    return chirp, u, b


def data_codes(alpha, m: int) -> np.ndarray:
    """Codes carrying data per symbol, (K, M-1): all but alpha[k], ascending."""
    rest = np.arange(m - 1)
    return rest + (rest >= np.asarray(alpha)[:, None])


def symbol_rotation(k, m: int, scheme: Scheme) -> np.ndarray:
    """Per-symbol phase rho_k = e^{j2pi k/M} of the tail scheme; 1 in all others."""
    k = np.asarray(k)
    return np.exp(2j * np.pi * k / m) if scheme is Scheme.FSI_TAIL else np.ones(k.shape)


def _spread(out: np.ndarray, codes: np.ndarray, alpha: np.ndarray,
            chirp_spectrum: np.ndarray, data: np.ndarray) -> None:
    """Write the spectra of K symbols into out, (K, N).

    Symbol k carries sqrt(M) * chirp_spectrum on code alpha[k] and data[k]
    (M-1, L) on the other codes in ascending order.
    """
    k, m = len(alpha), len(codes)
    coef = np.empty((k, len(chirp_spectrum), m), dtype=complex)
    rows = np.arange(k)
    coef[rows, :, alpha] = np.sqrt(m) * chirp_spectrum
    coef[rows[:, None], :, data_codes(alpha, m)] = data
    # splitting the contiguous last axis, so the reshape is a view of out
    np.matmul(coef, codes, out=out.reshape(k, -1, m))


def spread_and_assemble(cfg: WaveformConfig, sensing_code: int,
                        chirp_spectrum: np.ndarray, data: np.ndarray,
                        codes: np.ndarray) -> np.ndarray:
    """Place the chirp on one code and data on the remaining M-1 codes.

    Returns the (N,) symbol spectrum: subcarrier g*M + k (group g, in-group
    position k) holds sqrt(M)*P[g]*u[m,k] + sum_{i != m} d_i[g]*u[i,k].

    Parameters
    ----------
    chirp_spectrum : (L,) unitary L-point DFT of the chirp.
    data : (M-1, L) frequency-domain data, rows ordered by ascending
        code index skipping the sensing code. May be all zeros.
    """
    m = cfg.m_codes
    if not 0 <= sensing_code < m:
        raise ValueError("sensing code out of range")
    if len(chirp_spectrum) != cfg.l_occ:
        raise ValueError("chirp spectrum must have one entry per group")
    data = np.asarray(data, dtype=complex)
    if data.shape != (m - 1, cfg.l_occ):
        raise ValueError(f"data must be shaped ({m - 1}, {cfg.l_occ})")
    s = np.empty((1, cfg.n_fft), dtype=complex)
    _spread(s, codes, np.array([sensing_code]), chirp_spectrum, data[None])
    return s[0]


# QPSK points by 2 * b_re + b_im (random_qpsk); reversed, Gray-coded (comms.modulate)
_QPSK = np.array([-1 - 1j, -1 + 1j, 1 - 1j, 1 + 1j]) / np.sqrt(2)


def random_qpsk(rng: np.random.Generator, size) -> np.ndarray:
    """Unit-power QPSK symbols for frame payloads (no bit bookkeeping):
    ((2 b_re - 1) + j (2 b_im - 1)) / sqrt(2) from two bit draws."""
    idx = rng.integers(0, 2, size) * 2
    idx += rng.integers(0, 2, size)
    return _QPSK.take(idx)


def frame_len(cfg: WaveformConfig, schedule: Schedule) -> int:
    """Samples in the transmit frame of a schedule: its G occasions of L
    samples, for every scheme (N_CP + N = (M + N_CP/L) L)."""
    return grid_size(schedule, cfg) * cfg.l_occ


def assemble_frame(cfg: WaveformConfig, schedule: Schedule,
                   payload: np.ndarray | None = None,
                   rng: np.random.Generator | None = None) -> np.ndarray:
    """Build the full transmit frame for any scheme: its complex128 samples.

    Chirp-implanted symbols carry the sensing chirp on code alpha_k and
    QPSK data on the other codes. Slotted schemes place a plain chirp in
    scheduled slots and CP-less length-L OFDM data symbols elsewhere
    (sensing-only fills every slot with the chirp).

    payload : optional pre-modulated data symbols; drawn from rng when
        omitted. Shape (K, M-1, L) for the implanted scheme, or
        (n_data_slots, L) for slotted schemes.
    """
    if schedule.m_codes != cfg.m_codes:
        raise ValueError("schedule and config disagree on M")
    chirp, codes, _ = transmit_constants(cfg)
    scheme = schedule.scheme

    if scheme.is_fsi:
        k_syms = schedule.k
        shape = (k_syms, cfg.m_codes - 1, cfg.l_occ)
        if payload is None:
            payload = np.zeros(shape, dtype=complex) if rng is None \
                else random_qpsk(rng, shape)
        payload = np.asarray(payload, dtype=complex)
        if payload.shape != shape:
            raise ValueError("payload shape mismatch for implanted-OFDM frame")
        out = np.empty(frame_len(cfg, schedule), dtype=complex)
        frame = out.reshape(k_syms, -1)
        body = frame[:, cfg.n_cp:]
        _spread(body, codes, np.asarray(schedule.alpha),
                unitary_dft(chirp), payload)
        # in place: IDFT, the per-symbol rotation, then the CP
        np.fft.ifft(body, axis=-1, out=body)
        body *= np.sqrt(cfg.n_fft)
        body *= symbol_rotation(np.arange(k_syms), cfg.m_codes, scheme)[:, None]
        frame[:, :cfg.n_cp] = body[:, cfg.n_fft - cfg.n_cp:]
        return out

    # slotted schemes: M*K slots of length L
    n_slots = cfg.m_codes * schedule.k
    scheduled = np.zeros(n_slots, dtype=bool)
    scheduled[list(schedule.slots)] = True
    n_data = int(n_slots - scheduled.sum())
    if payload is None:
        if rng is None or scheme is Scheme.SENSING_ONLY:
            payload = np.zeros((n_data, cfg.l_occ), dtype=complex)
        else:
            payload = random_qpsk(rng, (n_data, cfg.l_occ))
    payload = np.asarray(payload, dtype=complex)
    if payload.shape != (n_data, cfg.l_occ):
        raise ValueError("payload shape mismatch for slotted frame")

    out = np.empty(frame_len(cfg, schedule), dtype=complex)
    frame = out.reshape(n_slots, -1)
    frame[scheduled] = chirp
    frame[~scheduled] = unitary_idft(payload)
    return out
