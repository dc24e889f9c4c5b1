"""Small shared helpers: named random substreams, complex noise, physical
constants, FFT sizes and the background worker."""

import collections
import concurrent.futures
import contextlib
import hashlib
import os
from collections.abc import Callable, Iterable, Iterator
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


def add_noise(rx: np.ndarray, sigma: float, rng) -> None:
    """rx += sigma (z_0 + j z_1), in place: complex white Gaussian noise from
    the (2, len(rx)) standard normal draws z, the real parts' first, of rng,
    a Generator, or held by rng, a draw started as a Pending."""
    if rng is None:
        raise ValueError("noise requires a random source")
    z = rng.standard_normal((2, len(rx))) if isinstance(rng, np.random.Generator) \
        else rng.result()
    if z.shape != (2, len(rx)):
        raise ValueError(f"noise draws shaped {z.shape}, not (2, {len(rx)})")
    z *= sigma   # Generator.normal(0, s) draws exactly s * standard_normal
    rx.real += z[0]
    rx.imag += z[1]


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
# releases the GIL beside the caller, on a second CPU if there is one. Work
# reaches it only through Pending and share below, and never calls a function
# that perfbench wraps: the tracer keeps one span stack, the caller's.
_worker: concurrent.futures.ThreadPoolExecutor


def _start_worker() -> None:
    """Make the one-thread executor; its thread starts with its first task.
    A forked child has no copy of the worker thread, and an executor that
    believes it has one would queue tasks forever: the child makes its own."""
    global _worker
    _worker = concurrent.futures.ThreadPoolExecutor(1, thread_name_prefix="jcas-worker")


_start_worker()
if hasattr(os, "register_at_fork"):   # POSIX
    os.register_at_fork(after_in_child=_start_worker)


def background_worker() -> concurrent.futures.Executor:
    """The shared one-thread executor."""
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


@contextlib.contextmanager
def share(tasks: Iterable[Callable[[], None]]) -> Iterator[None]:
    """Run tasks beside the with-block: the background worker takes them off
    one queue from entry on, and the caller takes the rest after the block.
    The exit waits until the worker's part has ended or been taken back; a
    failure in the block or in any task raises from there, and no task
    starts after it."""
    queue = collections.deque(tasks)

    def run() -> None:
        try:
            while True:
                try:
                    task = queue.popleft()
                except IndexError:
                    return
                task()
        finally:
            queue.clear()
    helper = Pending(run)
    try:
        yield
        run()
    finally:
        queue.clear()
        helper.result()
