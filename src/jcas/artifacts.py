"""Range-Doppler map artifacts: the RDMX binary format and the magnitude CSV."""

from __future__ import annotations

import contextlib
import os
import struct
from pathlib import Path

import numpy as np

MAGIC = b"RDMX"
FORMAT_VERSION = 1


@contextlib.contextmanager
def _rewrite(path: Path):
    """Open ``path`` for binary writing over its old bytes, not truncating first.

    The file is cut to what was written when the block exits, so a finished
    file holds exactly the new bytes. Truncating to zero and writing again
    would free the old blocks and, on ext4, force the new ones to disk at
    close; rewriting in place leaves the same-sized artifacts of repeated
    runs in the page cache for the usual writeback.
    """
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    with os.fdopen(fd, "wb") as f:
        try:
            yield f
        finally:
            f.truncate()


def write_rd_binary(path: Path, values: np.ndarray) -> None:
    """RDMX format of a (rows, cols) map: magic, u16 version, u32 rows,
    u32 cols, row-major little-endian complex float64."""
    rows, cols = values.shape
    with _rewrite(path) as f:
        f.write(MAGIC)
        f.write(struct.pack("<HII", FORMAT_VERSION, rows, cols))
        f.write(np.ascontiguousarray(values, dtype="<c16"))


def read_rd_binary(path: Path) -> np.ndarray:
    """The (rows, cols) map of an RDMX file (write_rd_binary). A file that
    is not RDMX, of another version, or cut short or overlong is a
    ValueError."""
    with open(path, "rb") as f:
        if f.read(4) != MAGIC:
            raise ValueError("not an RDMX file")
        header = f.read(10)
        if len(header) != 10:
            raise ValueError(f"truncated RDMX file {path}: "
                             f"{4 + len(header)} bytes of its 14-byte header")
        version, rows, cols = struct.unpack("<HII", header)
        if version != FORMAT_VERSION:
            raise ValueError(f"unsupported RDMX version {version}")
        data = f.read()
    want = rows * cols * 16
    if len(data) != want:
        raise ValueError(f"{'truncated' if len(data) < want else 'overlong'} RDMX file "
                         f"{path}: {len(data)} bytes of data, not the {want} of a "
                         f"{rows}x{cols} map")
    return np.frombuffer(data, dtype="<c16").reshape(rows, cols)


CSV_BLOCK_CELLS = 16384   # cells formatted at a time; bounds the writer's memory
_POW10 = np.array([float(10 ** k) for k in range(23)])   # exact doubles
# the four ASCII digits of 0..9999 as the low bytes of a little-endian word
_DIGITS4 = np.frombuffer(b"".join(b"%04d\0\0\0\0" % i for i in range(10000)),
                         "<u8")
# "e-16".."e+23", indexed by the exponent + 16
_EXP4 = np.frombuffer(b"".join(b"e%+03d" % e for e in range(-16, 24)), "<u4")
# one 14-byte cell "d.ddddddde+XX," as leading digit, ".ddddddd" and "e+XX"
_CELL = np.dtype({"names": ["d0", "mant", "exp"], "formats": ["u1", "<u8", "<u4"],
                  "offsets": [0, 1, 9], "itemsize": 14})


def _format_e7(x: np.ndarray, buf: np.ndarray) -> np.ndarray:
    """Write f"{v:.7e}" of each float64 v >= 0 in x into buf[:, :13], buf
    a C-contiguous (len(x), 14) uint8 array.

    Returns the indices of the cells left unwritten, whose digits the
    vectorized rounding cannot vouch for: 10^(7-e) is not an exact double
    (this takes in every three-digit exponent), the scaled value lies
    within 1e-6 of a rounding tie, or v is not finite.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        e = np.floor(np.log10(x))
    e[~np.isfinite(e)] = 0   # a zero cell then reads 0.0000000e+00
    e = e.astype(np.int32)
    # floor(log10 x) is one off only within a few ulps of a power of ten
    # 10^n. One too high, y lands just below 1e7 and rint makes it 1e7; one
    # too low, y is 1e8 and the carry below raises e. Both give
    # 1.0000000e(n), as the f-string does.
    y = x * _POW10.take(7 - e, mode="clip")   # 10^0..10^22
    frac = y - np.floor(y)
    slow = (np.abs(frac - 0.5) < 1e-6) | (e < -15) | (e > 7) | ~np.isfinite(x)
    m = np.rint(y, out=frac)
    carry = m >= 1e8   # 9.99999995 and up round to 1.0000000e(e+1)
    m[carry] = 1e7
    e[carry] += 1
    m[slow] = 0   # their digits are not used; keep the cast and lookups defined
    e[slow] = 0
    m = m.astype(np.int32)
    # the 8 digits as two 4-digit words: "DDDD" of the high half gives the
    # leading digit and, shifted under ".", three more; the low half follows
    hi = m // 10000
    m -= 10000 * hi
    head, tail = _DIGITS4.take(hi), _DIGITS4.take(m)
    cell = buf.view(_CELL)[:, 0]
    cell["d0"] = head
    head &= 0xFFFFFF00
    head |= ord(".")
    tail <<= 32
    head |= tail
    cell["mant"] = head
    e += 16
    cell["exp"] = _EXP4.take(e)
    return np.flatnonzero(slow)


def write_rd_csv(path: Path, mag: np.ndarray, split: int | None = None,
                 lines: bytes | None = None) -> tuple[int, bytes] | None:
    """Normalized magnitude, one row of the (rows, cols) map magnitude mag
    (a map's RdMatrix.magnitude, or rows of it) per line.

    Each cell is f"{v:.7e}"; cells are joined by "," and each line ends in
    "\\n". The map is normalized and formatted a block of rows at a time,
    so mag, which the map shares, is read and never written.

    A ``split`` row cuts the map into mag[:split] and mag[split:].
    Each is normalized by its own peak when written alone, so the first of
    them that holds this map's peak has for its CSV exactly its lines of
    this CSV: they are returned as (0 or 1, lines). ``lines``, such lines
    of mag, are written as they are, and mag is not formatted.
    """
    if lines is not None:
        with _rewrite(path) as f:
            f.write(lines)
        return None
    peak = mag.max()
    rows, cols = mag.shape
    held = None if split is None else next(
        (i for i, part in enumerate((mag[:split], mag[split:]))
         if part.size and part.max() == peak), None)
    step = max(1, CSV_BLOCK_CELLS // cols)
    starts = sorted({*range(0, rows, step), *([split] if held is not None else [])})
    kept = []
    with _rewrite(path) as f:
        for r, stop in zip(starts, starts[1:] + [rows]):
            block = mag[r:stop] / peak if peak > 0 else mag[r:stop]
            buf = np.empty(block.shape + (14,), np.uint8)
            buf[:, :, 13] = ord(",")
            buf[:, -1, 13] = ord("\n")
            x, buf = block.ravel(), buf.reshape(-1, 14)
            pieces, done = [], 0
            for i in _format_e7(x, buf):
                pieces += buf[done:i], f"{x[i]:.7e}".encode() + buf[i, 13].tobytes()
                done = i + 1
            pieces.append(buf[done:])
            f.writelines(pieces)
            if held is not None and (r < split) == (held == 0):
                kept += pieces
    return None if held is None else (held, b"".join(kept))
