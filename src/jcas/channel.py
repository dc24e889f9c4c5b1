"""Received-signal synthesis: self-interference, target echoes, noise."""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .util import SPEED_OF_LIGHT, Pending, add_noise, check_db, next_fast_len
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


def doppler_ramp(doppler_hz: float, t_s: float, stop: int, start: int = 0,
                 scale: complex = 1.0) -> np.ndarray:
    """scale * e^{j2pi f t_s i} for the sample indices i in [start, stop).

    Each index is split as i = B a + b with B = isqrt(stop), and the ramp is
    the outer product of two short exact tables, e^{j theta B a} (times
    scale) and e^{j theta b}: one complex multiply per sample in place of
    one complex exponential. theta B a and theta b are each rounded once,
    as theta i is in the direct form.
    """
    theta = 2 * np.pi * doppler_hz * t_s
    block = max(math.isqrt(stop), 1)
    a0 = start // block
    coarse = np.exp(1j * theta * (np.arange(a0, (stop - 1) // block + 1) * block))
    coarse *= scale
    fine = np.exp(1j * theta * np.arange(block))
    ramp = np.multiply.outer(coarse, fine).reshape(-1)
    return ramp[start - a0 * block:stop - a0 * block]


def _add_echo(rx: np.ndarray, tx: np.ndarray, delay_samples: float,
              doppler_hz: float, amplitude: float, t_s: float,
              fractional: bool) -> None:
    """rx += the echo of tx (see echo_component), in place."""
    n = len(tx)
    if not delay_samples < n:   # beyond the frame: no echo in either mode
        return
    if fractional:
        # zero-padded past the delayed end, so nothing wraps to the front
        size = next_fast_len(n + math.ceil(delay_samples))
        spec = np.fft.fft(tx, size)
        spec *= np.exp(-2j * np.pi * np.fft.fftfreq(size) * delay_samples)
        echo = np.fft.ifft(spec, out=spec)[:n]
        echo *= doppler_ramp(doppler_hz, t_s, n, scale=amplitude)
        rx += echo
        return
    d = int(round(delay_samples))
    if d < n:
        ramp = doppler_ramp(doppler_hz, t_s, n, start=d, scale=amplitude)
        ramp *= tx[:n - d]
        rx[d:] += ramp


def echo_component(tx: np.ndarray, delay_samples: float, doppler_hz: float,
                   amplitude: float, t_s: float,
                   fractional: bool = False) -> np.ndarray:
    """One delayed, Doppler-shifted copy of the transmit stream.

    Integer delays shift linearly (leading gap zero-filled, tail dropped).
    The optional fractional mode applies an exact frequency-domain phase
    ramp to the frame zero-padded to at least n + ceil(delay) samples and
    keeps the first n, so it too shifts linearly: on an integer delay it
    equals the integer mode, and the frame's end does not wrap into the
    leading gap. In both modes a delay of the frame length or more gives
    no echo. The Doppler ramp runs over the receive sample index
    (doppler_ramp).
    """
    out = np.zeros(len(tx), dtype=complex)
    _add_echo(out, tx, delay_samples, doppler_hz, amplitude, t_s, fractional)
    return out


def start_noise(rng: np.random.Generator, n: int) -> Pending:
    """rng.standard_normal((2, n)), the noise draws of a frame of n samples,
    started on the background worker into a buffer allocated here. A draw
    the worker has not begun is drawn on the caller (util.Pending); either
    way the draws are the same."""
    # the frame-size buffer stays on the caller's heap: drawn into an array
    # the worker allocates (rng.standard_normal((2, n)) on the worker), the
    # fig6_sweep benchmark's peak_rss_mb read 62.5-62.7 -> 64.2-64.3 MB in
    # 3/3 pairs on a 2-vCPU guest
    return Pending(functools.partial(rng.standard_normal, out=np.empty((2, n))))


def synthesize_rx(tx: np.ndarray, targets: list[Target], cc: ChannelConfig,
                  cfg: WaveformConfig,
                  rng: np.random.Generator | Pending | None = None
                  ) -> np.ndarray:
    """Receive samples of the transmit samples tx: scaled SI + echoes +
    circular Gaussian noise.

    The SI and noise levels are referenced to the largest target |amplitude|
    (1.0 when no targets): SI amplitude is
    10^(si_over_echo_db/20) times it, and the noise variance makes the
    per-sample echo power of a reference-amplitude target sit
    echo_snr_db above the noise. The echoes are added into the frame in
    place.

    rng is the Generator to draw the noise from, or its draws already
    started (start_noise), the real parts' first, as the Generator gives
    them. A pending draw is taken only once the SI and echoes are in the
    frame; either gives the same samples.
    """
    if len(tx) == 0:
        raise ValueError("empty frame")
    ref_amp = max((abs(t.amplitude) for t in targets), default=1.0)
    if cc.noise_enabled:   # before rx exists: |tx|^2 is a frame-size temporary
        power = np.abs(tx)
        power **= 2
        sigma2 = ref_amp ** 2 * np.mean(power) * 10 ** (-cc.echo_snr_db / 10)
        del power
    if cc.si_enabled:
        rx = tx * (10 ** (cc.si_over_echo_db / 20) * ref_amp)
    else:
        rx = np.zeros_like(tx)
    for t in targets:
        delay, doppler = target_to_delay_doppler(t, cfg.carrier_hz, cfg.t_s)
        _add_echo(rx, tx, delay, doppler, t.amplitude, cfg.t_s,
                  cc.fractional_delay)
    if cc.noise_enabled:
        add_noise(rx, np.sqrt(sigma2 / 2), rng)
    return rx
