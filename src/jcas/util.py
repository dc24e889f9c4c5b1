"""Small shared helpers: named random substreams, physical constants and
FFT sizes."""

import hashlib

import numpy as np

# Grid-defining value used throughout (delay/Doppler/range conversions).
SPEED_OF_LIGHT = 3.0e8  # m/s


def substream(seed: int, *names: str) -> np.random.Generator:
    """Derive an independent, reproducible generator from a master seed.

    Streams are keyed by name, not by creation order, so parallel callers
    always get identical randomness for the same (seed, names) pair.
    """
    keys = [int.from_bytes(hashlib.sha256(n.encode()).digest()[:8], "little")
            for n in names]
    return np.random.default_rng(np.random.SeedSequence([int(seed)] + keys))


def check_db(db: float, name: str) -> None:
    """Reject a dB level whose power ratio 10^(|db|/10) would pass 1e300."""
    if not abs(db) <= 3000:
        raise ValueError(f"{name} must be within +-3000 dB")


def next_fast_len(n: int) -> int:
    """Smallest 11-smooth integer >= n (at least 1): a length numpy's
    pocketfft transforms fast, as scipy.fft.next_fast_len gives for
    complex input."""
    m = max(n, 1)
    while True:
        r = m
        for p in (2, 3, 5, 7, 11):
            while r % p == 0:
                r //= p
        if r == 1:
            return m
        m += 1


def kmh_to_mps(v_kmh: float) -> float:
    return v_kmh / 3.6


def mps_to_kmh(v_mps: float) -> float:
    return v_mps * 3.6
