"""Small shared helpers: named random substreams, complex noise, physical
constants, FFT sizes, and the process-wide settings made at import: the
heap thresholds, the one arena and the background worker, which share
runs tasks on."""

import collections
import concurrent.futures
import contextlib
import ctypes
import hashlib
import os
from collections.abc import Callable, Iterable, Iterator

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


def add_noise(rx: np.ndarray, sigma: float,
              rng: np.random.Generator | np.ndarray | None) -> None:
    """rx += sigma (z_0 + j z_1), in place: complex white Gaussian noise from
    the (2, len(rx)) standard normal draws z, the real parts' first, of rng,
    a Generator, or rng itself, draws made ahead, which are scaled in
    place."""
    if rng is None:
        raise ValueError("noise requires a random source")
    z = rng.standard_normal((2, len(rx))) if isinstance(rng, np.random.Generator) \
        else rng
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


def _retain_freed_heap() -> None:
    """Keep the memory a run frees in the process for the next run, in one
    heap (glibc).

    A run allocates and frees tens of MB of arrays. With glibc's default,
    adaptive thresholds the freed top of the heap goes back to the kernel
    after each run, and the next run faults every page in again, zeroed:
    some 6,000 page faults and a quarter of a fig6 run's time. Fixed
    thresholds keep arrays under 32 MB on the heap and up to 256 MB of its
    free top in the process. One arena serves every thread: the background
    worker allocates from the heap the caller frees into, and the reverse,
    where a heap of its own would hold the worker's freed memory apart
    (some 2 MB on a fig7 run). These settings hold for the whole process,
    the importing program's own allocations and threads too (README,
    "Library layout"). Nothing is changed when the allocator is tuned
    through the environment.
    """
    if any(v in os.environ for v in ("GLIBC_TUNABLES", "MALLOC_TRIM_THRESHOLD_",
                                     "MALLOC_MMAP_THRESHOLD_", "MALLOC_ARENA_MAX")):
        return
    try:
        if not (os.confstr("CS_GNU_LIBC_VERSION") or "").startswith("glibc"):
            return
        mallopt = ctypes.CDLL(None).mallopt
    except (ValueError, OSError, AttributeError):
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(-3, 32 << 20)    # M_MMAP_THRESHOLD
    mallopt(-1, 256 << 20)   # M_TRIM_THRESHOLD
    mallopt(-8, 1)           # M_ARENA_MAX


# One worker thread, started by its first task, runs coarse numpy work that
# releases the GIL beside the caller, on a second CPU if there is one. Work
# reaches it only through share below, and never calls a function that
# perfbench wraps: the tracer keeps one span stack, the caller's.
_worker: concurrent.futures.ThreadPoolExecutor


def _start_worker() -> None:
    """Make the one-thread executor; its thread starts with its first task.
    A forked child has no copy of the worker thread, and an executor that
    believes it has one would queue tasks forever: the child makes its own."""
    global _worker
    _worker = concurrent.futures.ThreadPoolExecutor(1, thread_name_prefix="jcas-worker")


_start_worker()
_retain_freed_heap()
if hasattr(os, "register_at_fork"):   # POSIX
    os.register_at_fork(after_in_child=_start_worker)


def background_worker() -> concurrent.futures.Executor:
    """The shared one-thread executor."""
    return _worker


@contextlib.contextmanager
def share(tasks: Iterable[Callable[[], None]]) -> Iterator[None]:
    """Run tasks beside the with-block: the background worker takes them off
    one queue from entry on, and the caller takes the rest after the block.
    The exit waits until the worker's part has ended, or takes it back if
    the worker has not begun it, so a busy worker costs no more than running
    inline; a failure in the block or in any task raises from there, and no
    task starts after it."""
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
    helper = background_worker().submit(run)
    try:
        yield
        run()
    finally:
        queue.clear()
        helper.cancel() or helper.result()
