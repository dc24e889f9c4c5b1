"""Communications side of the chirp-implanted OFDM link.

Data rides on the M-1 spreading codes the sensing chirp does not use;
(M-1)/M of the resource elements therefore carry payload. The receiver
despreads each group of M consecutive subcarriers with the code
conjugates, which separates data from the implanted chirp exactly.
"""

from __future__ import annotations

import numpy as np

from .scheduler import Schedule
from .util import add_noise, check_db
from .waveform import _QPSK, WaveformConfig, assemble_frame, data_codes, \
    symbol_rotation, transmit_constants, unitary_dft


def modulate(bits: np.ndarray) -> np.ndarray:
    """Gray-coded QPSK, unit average power. 00 -> (1+j)/sqrt(2)."""
    bits = np.asarray(bits).ravel()
    if bits.size % 2:
        raise ValueError("bit count must be even")
    return _QPSK[::-1].take(2 * bits[0::2] + bits[1::2])


def demodulate(symbols: np.ndarray) -> np.ndarray:
    """Hard-decision QPSK demapping (inverse of modulate, noiselessly)."""
    s = np.asarray(symbols).ravel()
    bits = np.empty((s.size, 2), dtype=np.int64)
    bits[:, 0] = s.real < 0
    bits[:, 1] = s.imag < 0
    return bits.ravel()


def despread(spectrum: np.ndarray, codes: np.ndarray,
             sensing_code: int) -> tuple[dict[int, np.ndarray], np.ndarray]:
    """Per-group code-domain despreading of one received (N,) symbol
    spectrum with the (M, M) code matrix.

    Returns ({code i != m: estimates d_i of length N/M}, sensing-spectrum
    estimate), where the sensing estimate equals sqrt(M) times the chirp
    spectrum for a clean symbol.
    """
    est = _code_estimates(spectrum, codes, np.arange(len(codes)))
    data = {i: e for i, e in enumerate(est) if i != sensing_code}
    return data, est[sensing_code]


def _code_estimates(spectra: np.ndarray, codes: np.ndarray,
                    which: np.ndarray) -> np.ndarray:
    """Inner products of each M-subcarrier group with the codes ``which``:
    spectra (..., N) and which (..., C) give (..., C, N/M)."""
    groups = spectra.reshape(*spectra.shape[:-1], -1, len(codes))
    return np.conj(codes[which]) @ np.swapaxes(groups, -1, -2)


def run_link(cfg: WaveformConfig, schedule: Schedule, bits: np.ndarray,
             snr_db: float | None = None,
             rng: np.random.Generator | None = None
             ) -> tuple[float, float]:
    """Loopback BER/EVM through a flat unit-gain channel.

    Transmit frame -> AWGN -> CP removal -> DFT -> despread -> demodulate.
    snr_db is Es/N0 per despread data symbol (noise is white in time, so
    the per-subcarrier variance equals the per-sample variance).

    bits are 0s and 1s of any integer type (uint8 from random_bits keeps
    them at a byte each). The errors are counted by comparing each
    estimate's sign bits with them, as demodulate would decide them, so
    no array of decided bits is made.
    """
    bits = np.asarray(bits).ravel()
    m, l = cfg.m_codes, cfg.l_occ
    per_symbol = 2 * (m - 1) * l
    if bits.size % per_symbol:
        raise ValueError("bit count must fill whole symbols")
    k = bits.size // per_symbol
    if k != schedule.k:
        raise ValueError("payload does not match the schedule length")

    payload = modulate(bits).reshape(k, m - 1, l)
    rx = assemble_frame(cfg, schedule, payload=payload)   # ours: receive in place
    if snr_db is not None:
        check_db(snr_db, "snr_db")
        add_noise(rx, np.sqrt(10 ** (-snr_db / 10) / 2), rng)

    bodies = rx.reshape(k, cfg.symbol_len)[:, cfg.n_cp:]
    unitary_dft(bodies, out=bodies)
    bodies *= np.conj(symbol_rotation(np.arange(k), m, schedule.scheme))[:, None]
    _, codes, _ = transmit_constants(cfg)
    data = _code_estimates(bodies, codes, data_codes(schedule.alpha, m))
    del rx, bodies   # free the frame before the decisions
    pairs = bits.reshape(data.shape + (2,))
    err = int(np.count_nonzero((data.real < 0) != pairs[..., 0])) \
        + int(np.count_nonzero((data.imag < 0) != pairs[..., 1]))
    data -= payload
    n_data = k * (m - 1) * l
    ber = err / (2 * n_data)
    evm = np.sqrt(np.vdot(data, data).real / n_data)   # reference power is 1
    return ber, evm


def qpsk_ber_awgn(snr_db: float) -> float:
    """Analytic Gray-QPSK bit error rate at Es/N0 = snr_db (AWGN)."""
    from math import erfc, sqrt
    es_n0 = 10 ** (snr_db / 10)
    return 0.5 * erfc(sqrt(es_n0 / 2))
