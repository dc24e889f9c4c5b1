"""Received-signal synthesis: self-interference, target echoes, noise."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .util import SPEED_OF_LIGHT, check_db
from .waveform import WaveformConfig


@dataclass(frozen=True)
class Target:
    """Point target. Positive velocity = approaching (positive Doppler)."""

    range_m: float
    velocity_mps: float
    amplitude: float = 1.0

    def __post_init__(self):
        if not 0 <= self.range_m < np.inf:
            raise ValueError("range must be finite and non-negative")
        if not abs(self.velocity_mps) < SPEED_OF_LIGHT:
            raise ValueError("speed must be below the speed of light")
        if not abs(self.amplitude) < np.sqrt(np.finfo(float).max):
            raise ValueError("amplitude must be finite, and so its square")


@dataclass(frozen=True)
class ChannelConfig:
    si_over_echo_db: float = 100.0
    echo_snr_db: float = -10.0
    si_enabled: bool = True
    noise_enabled: bool = True
    fractional_delay: bool = False

    def __post_init__(self):
        check_db(self.si_over_echo_db, "si_over_echo_db")
        check_db(self.echo_snr_db, "echo_snr_db")


def target_to_delay_doppler(t: Target, carrier_hz: float, t_s: float
                            ) -> tuple[float, float]:
    """Two-way radar geometry: (delay in samples, Doppler in Hz)."""
    if carrier_hz <= 0:
        raise ValueError("carrier must be positive")
    delay = (2.0 * t.range_m / SPEED_OF_LIGHT) / t_s
    if not np.isfinite(delay):
        raise ValueError(f"range {t.range_m} m overflows the delay in samples")
    doppler = 2.0 * t.velocity_mps * carrier_hz / SPEED_OF_LIGHT
    return delay, doppler


def echo_component(tx: np.ndarray, delay_samples: float, doppler_hz: float,
                   amplitude: float, t_s: float,
                   fractional: bool = False) -> np.ndarray:
    """One delayed, Doppler-shifted copy of the transmit stream.

    Integer delays shift linearly (leading gap zero-filled, tail dropped);
    the optional fractional mode applies an exact frequency-domain phase
    ramp over the whole frame, which wraps circularly.
    """
    n = len(tx)
    if fractional:
        freqs = np.fft.fftfreq(n)
        out = np.fft.ifft(np.fft.fft(tx) * np.exp(-2j * np.pi * freqs * delay_samples))
    else:
        d = int(round(delay_samples))
        out = np.zeros(n, dtype=complex)
        if d < n:
            out[d:] = tx[:n - d]
    ramp = 2j * np.pi * doppler_hz * np.arange(n)
    ramp *= t_s
    out *= amplitude
    out *= np.exp(ramp, out=ramp)
    return out


def synthesize_rx(tx: np.ndarray, targets: list[Target], cc: ChannelConfig,
                  cfg: WaveformConfig,
                  rng: np.random.Generator | None = None) -> np.ndarray:
    """Receive samples of the transmit samples tx: scaled SI + echoes +
    circular Gaussian noise.

    The SI and noise levels are referenced to the strongest target
    amplitude (1.0 when no targets): SI amplitude is
    10^(si_over_echo_db/20) times it, and the noise variance makes the
    per-sample echo power of a reference-amplitude target sit
    echo_snr_db above the noise.
    """
    if len(tx) == 0:
        raise ValueError("empty frame")
    ref_amp = max((t.amplitude for t in targets), default=1.0)
    rx = np.zeros_like(tx)
    if cc.si_enabled:
        rx += 10 ** (cc.si_over_echo_db / 20) * ref_amp * tx
    for t in targets:
        delay, doppler = target_to_delay_doppler(t, cfg.carrier_hz, cfg.t_s)
        rx += echo_component(tx, delay, doppler, t.amplitude, cfg.t_s,
                             fractional=cc.fractional_delay)
    if cc.noise_enabled:
        if rng is None:
            raise ValueError("noise requires a random source")
        sigma2 = ref_amp ** 2 * np.mean(np.abs(tx) ** 2) * 10 ** (-cc.echo_snr_db / 10)
        rx.real += rng.normal(0, np.sqrt(sigma2 / 2), size=len(tx))
        rx.imag += rng.normal(0, np.sqrt(sigma2 / 2), size=len(tx))
    return rx
