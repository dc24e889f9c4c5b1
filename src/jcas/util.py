"""Small shared helpers: named random substreams, physical constants, FFT
sizes and the background worker."""

import concurrent.futures
import hashlib
import os
import threading
from collections.abc import Callable
from typing import Any

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


# One worker thread, started by its first task, runs coarse numpy work that
# releases the GIL (the noise fill, slices of the pattern build, half of the
# pattern's 2x2 solve) beside the caller on a second CPU. It calls no function that perfbench wraps: the
# tracer keeps one span stack, for the caller's thread.
_worker: concurrent.futures.ThreadPoolExecutor | None = None
_worker_lock = threading.Lock()


def _forget_worker() -> None:
    """A forked child has no copy of the worker thread, and an executor
    that believes it has one would queue tasks forever: start afresh."""
    global _worker, _worker_lock
    _worker, _worker_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):   # POSIX
    os.register_at_fork(after_in_child=_forget_worker)


def background_worker() -> concurrent.futures.Executor:
    """The shared one-thread executor, started on first use."""
    global _worker
    with _worker_lock:
        if _worker is None:
            _worker = concurrent.futures.ThreadPoolExecutor(
                1, thread_name_prefix="jcas-worker")
        return _worker


class Pending:
    """call() started on the background worker.

    result() gives its value: it waits for a call the worker has begun, and
    cancels one it has not and calls it on the calling thread instead, so a
    busy worker never costs more than calling inline. call must give the
    same value on either thread.
    """

    def __init__(self, call: Callable[[], Any]):
        self._call = call
        self._future = background_worker().submit(call)

    def result(self) -> Any:
        if self._future.cancel():
            return self._call()
        return self._future.result()

    def drop(self) -> None:
        """Cancel the call, or wait for it to end if it has begun; its
        value or exception is discarded."""
        if not self._future.cancel():
            concurrent.futures.wait((self._future,))
