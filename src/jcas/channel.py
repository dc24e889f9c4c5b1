"""Received-signal synthesis: self-interference, target echoes, noise."""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass

import numpy as np

from .util import SPEED_OF_LIGHT, add_noise, check_db, next_fast_len
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


ECHO_BLOCK_SAMPLES = 1 << 13   # frame samples the channel makes at a time


def _ramp_pieces(doppler_hz: float, t_s: float, stop: int, scale: complex,
                 bounds: Iterable[tuple[int, int]]) -> Iterator[np.ndarray]:
    """scale * e^{j2pi f t_s m} for the sample indices m in [i, j) of each
    (i, j) of bounds in turn (empty where j <= i), every m below stop.

    Each index is split as m = B a + b with B = isqrt(stop), and the ramp is
    the outer product of two short exact tables, e^{j theta B a} (times
    scale) and e^{j theta b}: one complex multiply per sample in place of
    one complex exponential. theta B a and theta b are each rounded once,
    as theta m is in the direct form, and a sample is the same product in
    whichever piece it falls."""
    theta = 2 * np.pi * doppler_hz * t_s
    block = max(math.isqrt(stop), 1)
    coarse = np.exp(1j * theta * (np.arange((stop - 1) // block + 1) * block))
    coarse *= scale
    fine = np.exp(1j * theta * np.arange(block))
    for i, j in bounds:
        r0, r1 = i // block, (j - 1) // block + 1
        ramp = np.multiply.outer(coarse[r0:r1], fine).reshape(-1)
        yield ramp[i - r0 * block:j - r0 * block]


def _add_echo(tx: np.ndarray, delay_samples: float, doppler_hz: float,
              amplitude: float, t_s: float, fractional: bool,
              blocks: Sequence[tuple[int, np.ndarray]]) -> Iterator[None]:
    """Adds one delayed, Doppler-shifted copy of tx a block at a time: its
    k-th step adds the echo's samples [i, i + len(out)) into out, for the
    k-th (i, out) of blocks, in any order.

    An integer-delay echo (the delay rounded to a whole sample) shifts
    linearly: leading gap zero-filled, tail dropped. At its step for a block
    that ends at sample j it reads tx only below j, so a caller may
    overwrite tx from its end back. A fractional one applies an exact
    frequency-domain phase ramp to the frame zero-padded to at least
    n + ceil(delay) samples and keeps the first n, so it too shifts
    linearly: on an integer delay it equals the integer mode, and the
    frame's end does not wrap into the leading gap. It reads all of tx at
    its first step, into its whole-frame spectrum. In both modes a delay of
    the frame length or more gives no echo. The Doppler ramp runs over the
    receive sample index (_ramp_pieces).
    """
    n = len(tx)
    if not delay_samples < n:   # beyond the frame: no echo in either mode
        shift = n
    elif fractional:
        # zero-padded past the delayed end, so nothing wraps to the front
        size = next_fast_len(n + math.ceil(delay_samples))
        spec = np.fft.fft(tx, size)
        spec *= np.exp(-2j * np.pi * np.fft.fftfreq(size) * delay_samples)
        echo, shift = np.fft.ifft(spec, out=spec), 0
    else:
        shift = int(round(delay_samples))
    # the part [a, b) of each block the echo covers
    parts = [(max(i, shift), i + len(out)) for i, out in blocks]
    ramps = _ramp_pieces(doppler_hz, t_s, n, amplitude,
                         [(a, b) for a, b in parts if a < b])
    for (i, out), (a, b) in zip(blocks, parts):
        # a complex product's operand order sets its last bit: echo first
        # for a fractional echo, ramp first for an integer one
        if a < b and fractional:
            out[a - i:b - i] += echo[a:b] * next(ramps)
        elif a < b:
            out[a - i:b - i] += next(ramps) * tx[a - shift:b - shift]
        yield


def echo_component(tx: np.ndarray, delay_samples: float, doppler_hz: float,
                   amplitude: float, t_s: float) -> np.ndarray:
    """One echo of tx as a new array: delayed by delay_samples rounded to a
    whole sample, Doppler-shifted and scaled (_add_echo's integer mode)."""
    out = np.zeros(len(tx), dtype=complex)
    blocks = [(i, out[i:i + ECHO_BLOCK_SAMPLES])
              for i in range(0, len(tx), ECHO_BLOCK_SAMPLES)]
    for _ in _add_echo(tx, delay_samples, doppler_hz, amplitude, t_s,
                       False, blocks):
        pass
    return out


def synthesize_rx(tx: np.ndarray, targets: list[Target], cc: ChannelConfig,
                  cfg: WaveformConfig,
                  rng: np.random.Generator | np.ndarray | None = None,
                  out: np.ndarray | None = None) -> np.ndarray:
    """Receive samples of the transmit samples tx: scaled SI + echoes +
    circular Gaussian noise, written into out and returned.

    The SI and noise levels are referenced to the largest target |amplitude|
    (1.0 when no targets): SI amplitude is
    10^(si_over_echo_db/20) times it, and the noise variance makes the
    per-sample echo power of a reference-amplitude target sit
    echo_snr_db above the noise.

    out is a new array when None. It may be tx itself: the receive samples
    then replace the transmit samples, and no second frame is made. Any
    other out must be of tx's shape and dtype and share no memory with it
    (a ValueError otherwise). The frame is made ECHO_BLOCK_SAMPLES samples
    at a time, from its last block back, so the echoes of a block read only
    samples of tx that are not yet overwritten. Each sample is summed as in
    a whole-frame sum: the SI, then each echo in target order, then the
    noise.

    rng is the Generator to draw the noise from, or its (2, n) draws made
    ahead, the real parts' first, as the Generator gives them (run_simulate
    draws them on the background worker while it assembles the frame); the
    noise is added once the SI and echoes are in the frame, and either gives
    the same samples.
    """
    n = len(tx)
    if n == 0:
        raise ValueError("empty frame")
    if out is None:
        out = np.empty_like(tx)
    elif out.shape != tx.shape or out.dtype != tx.dtype:
        raise ValueError(f"out is {out.dtype} {out.shape}, not tx's {tx.dtype} {tx.shape}")
    elif out is not tx and np.shares_memory(out, tx):
        raise ValueError("out shares memory with tx without being tx")
    ref_amp = max((abs(t.amplitude) for t in targets), default=1.0)
    paths = [target_to_delay_doppler(t, cfg.carrier_hz, cfg.t_s) for t in targets]
    if cc.noise_enabled:   # |tx|^2 is a half-frame temporary, summed pairwise
        power = np.abs(tx)
        power **= 2
        sigma2 = ref_amp ** 2 * np.mean(power) * 10 ** (-cc.echo_snr_db / 10)
        del power
    step = min(ECHO_BLOCK_SAMPLES, n)
    buf = np.empty(step, dtype=tx.dtype)
    blocks = [(i, buf[:min(step, n - i)]) for i in reversed(range(0, n, step))]
    echoes = [_add_echo(tx, delay, doppler, t.amplitude, cfg.t_s,
                        cc.fractional_delay, blocks)
              for t, (delay, doppler) in zip(targets, paths)]
    gain = 10 ** (cc.si_over_echo_db / 20) * ref_amp
    for i, block in blocks:
        if cc.si_enabled:
            np.multiply(tx[i:i + len(block)], gain, out=block)
        else:
            block.fill(0)
        for echo in echoes:
            next(echo)
        out[i:i + len(block)] = block
    if cc.noise_enabled:
        add_noise(out, np.sqrt(sigma2 / 2), rng)
    return out
