"""The on-disk cache of tail-mode calibration patterns.

One ``.npz`` file per pattern, named by a hash of the scenario fields the
pattern depends on. A file stores only ``p``, plus ``validation_error``
once the pattern is validated; ``receiver.PatternTensor.solve`` derives
the rest on load, so no stored solve can disagree with the ``p`` that
validation checks.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import zipfile
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import receiver
from .scheduler import Schedule, unambiguous_band


def pattern_cache_key(scn) -> str:
    rel = {k: getattr(scn, k) for k in
           ("n_fft", "m_codes", "n_cp", "scs_hz", "carrier_hz", "k",
            "n_guard", "scheme")}
    rel["format"] = 6   # the .npz layout written by load_or_build_pattern
    return hashlib.sha256(json.dumps(rel, sort_keys=True).encode()).hexdigest()[:16]


def cache_dir() -> Path:
    return Path(os.environ.get("JCAS_CACHE_DIR") or Path.home() / ".cache" / "jcas")


def pattern_path(scn) -> Path:
    return cache_dir() / f"pattern_{pattern_cache_key(scn)}.npz"


# The last pattern this process loaded from disk, with the identity of its
# file: (path, st_dev, st_ino, st_mtime_ns, st_size), and the shape and guard
# it was checked and solved for. Every store and every rebuild drops it, so a
# rewritten file is read again, never served stale.
_pattern_memo: tuple[tuple, receiver.PatternTensor] | None = None


def _read_pattern(path: Path, shape: tuple, n_guard: int) -> receiver.PatternTensor:
    """The pattern stored at path, solved, with read-only arrays: the
    memoized one if the file is the one it was loaded from, else read and
    memoized. A stored p that is not complex of the given shape is a
    ValueError."""
    global _pattern_memo
    memo = _pattern_memo   # one read: preset threads may swap the entry
    with open(path, "rb") as f:
        st = os.fstat(f.fileno())
        key = (os.fspath(path), st.st_dev, st.st_ino, st.st_mtime_ns, st.st_size,
               shape, n_guard)
        if memo is not None and memo[0] == key:
            return replace(memo[1])
        _pattern_memo = None
        with np.load(f) as z:
            p = z["p"]
            err = float(z["validation_error"]) if "validation_error" in z else None
    if p.dtype != complex or p.shape != shape:
        raise ValueError("the cached pattern does not fit the scenario")
    pat = receiver.PatternTensor.solve(p, n_guard, err)
    for a in (pat.p, pat.p_sol, pat.resolvable):
        a.flags.writeable = False
    _pattern_memo = (key, replace(pat))
    return pat


def load_or_build_pattern(scn, schedule: Schedule,
                          validate: bool = False) -> receiver.PatternTensor:
    """The cached pattern of scn. A file that is missing, unreadable, lacks
    p or whose p does not fit scn's (range bins, band) shape is rebuilt.
    With ``validate``, a cached pattern without a passing validation error
    is validated, and rebuilt if it fails; a pattern is validated while it
    is built, and the validated pattern is stored. The last pattern loaded
    stays in memory, with read-only arrays, while its file is unchanged; a
    built pattern is the caller's own."""
    global _pattern_memo
    cfg = scn.waveform_config()
    path = pattern_path(scn)
    try:
        pat = _read_pattern(path, (cfg.l_occ, unambiguous_band(schedule, cfg), 2, 2),
                            scn.n_guard)
        err = pat.validation_error
        if not validate or err is not None and err <= receiver.VALIDATION_TOL:
            return pat
        receiver.validate_pattern(pat, cfg, schedule)
    except (OSError, KeyError, ValueError, TypeError, EOFError, RuntimeError,
            zipfile.BadZipFile):
        pat = None
    # the pattern is rebuilt or rewritten from here on, so the entry goes
    # first; the build runs outside the handler, whose traceback would keep
    # the failed load's frames, and through them the entry, alive
    _pattern_memo = None
    if pat is None:
        pat = receiver.build_pattern(cfg, schedule, n_guard=scn.n_guard,
                                     validate=validate)
    path.parent.mkdir(parents=True, exist_ok=True)
    # write beside the target and rename, so readers never see a partial file
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as f:
            np.savez(f, p=pat.p, **({} if pat.validation_error is None else
                                    {"validation_error": pat.validation_error}))
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return pat
