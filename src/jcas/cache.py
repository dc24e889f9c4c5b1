"""The on-disk cache of tail-mode calibration patterns.

One ``.npz`` file per pattern, named by a hash of the scenario fields the
pattern depends on. A file stores only ``p``; ``receiver.PatternTensor.solve``
derives the rest on load, so no stored solve can disagree with it. There is
one write path: a file is written only after a build, and ``jcas calibrate``
always builds, so it replaces whatever file the cache held.
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
    return Path(_cache_root())


def pattern_path(scn) -> Path:
    return Path(_pattern_file(scn))


def _cache_root() -> str:
    return os.environ.get("JCAS_CACHE_DIR") or os.path.join(
        os.path.expanduser("~"), ".cache", "jcas")


def _pattern_file(scn) -> str:
    """pattern_path(scn) as a plain string, as every simulate run looks it
    up: pathlib interns the names it parses (see cli.run_simulate)."""
    return os.path.join(_cache_root(), f"pattern_{pattern_cache_key(scn)}.npz")


class CacheError(OSError):
    """A pattern could not be stored in the cache directory; ``pattern`` is
    the built pattern all the same."""

    def __init__(self, message: str, pattern: receiver.PatternTensor):
        super().__init__(message)
        self.pattern = pattern


# The last pattern this process loaded from disk, or built and stored there
# for simulate, with the identity of its file: (path, st_dev, st_ino,
# st_mtime_ns, st_size); the path's hash fixes the shape and guard it was
# checked and solved for. A rewritten file no longer matches it, so it is
# read again, never served stale; every build drops the entry first.
_pattern_memo: tuple[tuple, receiver.PatternTensor] | None = None


def _file_key(path: str, st: os.stat_result) -> tuple:
    return (path, st.st_dev, st.st_ino, st.st_mtime_ns, st.st_size)


def _remember(key: tuple, pat: receiver.PatternTensor) -> receiver.PatternTensor:
    """Keep pat, its arrays made read-only, as the memory entry of the file
    key names; pat is returned, and the entry holds a copy of its fields."""
    global _pattern_memo
    for a in (pat.p, pat.p_sol, pat.resolvable):
        a.flags.writeable = False
    _pattern_memo = (key, replace(pat))
    return pat


def load_or_build_pattern(scn, schedule: Schedule,
                          validate: bool = False) -> receiver.PatternTensor:
    """The pattern of scn. Without ``validate`` (simulate, preset): the
    cached one if its file is readable and holds a complex p of scn's
    (range bins, band) shape, else built and stored. With ``validate``
    (calibrate): built afresh and validated while it is built, then stored;
    the cache is not read. Without ``validate``, the pattern loaded or
    stored last stays in memory, with read-only arrays, while its file is
    unchanged, so the next op reads no file; calibrate's pattern is the
    caller's own. A failed store raises CacheError, which holds the pattern."""
    global _pattern_memo
    cfg = scn.waveform_config()
    path = _pattern_file(scn)
    if not validate:
        try:
            with open(path, "rb") as f:
                key = _file_key(path, os.fstat(f.fileno()))
                memo = _pattern_memo   # one read: preset threads may swap the entry
                if memo is not None and memo[0] == key:
                    return replace(memo[1])
                memo = _pattern_memo = None   # the local too: a build may follow
                with np.load(f) as z:
                    p = z["p"]
            if p.dtype != complex or p.shape != (cfg.l_occ, unambiguous_band(schedule), 2, 2):
                raise ValueError("the cached pattern does not fit the scenario")
            return _remember(key, receiver.PatternTensor.solve(p, scn.n_guard))
        except (OSError, KeyError, ValueError, TypeError, EOFError, zipfile.BadZipFile):
            pass
    # the file is rewritten from here on, so the entry goes first; the build
    # runs outside the handler, whose traceback would keep the failed load's
    # frames alive
    _pattern_memo = None
    pat = receiver.build_pattern(cfg, schedule, n_guard=scn.n_guard, validate=validate)
    try:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        # write beside the target and rename, so readers never see a partial file
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path), suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as f:
                np.savez(f, p=pat.p)
                f.flush()   # all written, so the identity is the renamed file's
                key = _file_key(path, os.fstat(f.fileno()))
            os.replace(tmp, path)
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
    except OSError as e:
        raise CacheError(f"cannot store the pattern in {os.path.dirname(path)}: "
                         f"{e.strerror or e}", pat) from e
    return pat if validate else _remember(key, pat)
