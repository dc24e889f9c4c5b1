import math
import struct
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jcas import artifacts
from jcas.cli import Scenario, run_simulate


class TestRdmxFormat:
    def test_header_layout(self, tmp_path):
        path = tmp_path / "x.bin"
        artifacts.write_rd_binary(path, np.arange(6, dtype=complex).reshape(2, 3))
        raw = path.read_bytes()
        assert raw[:4] == b"RDMX"
        version, rows, cols = struct.unpack("<HII", raw[4:14])
        assert (version, rows, cols) == (1, 2, 3)
        assert len(raw) == 14 + 2 * 3 * 16

    def test_roundtrip(self, tmp_path, rng):
        vals = rng.normal(size=(5, 7)) + 1j * rng.normal(size=(5, 7))
        path = tmp_path / "y.bin"
        artifacts.write_rd_binary(path, vals)
        np.testing.assert_array_equal(artifacts.read_rd_binary(path), vals)

    def test_csv_agrees_with_binary(self, tmp_path, rng):
        vals = rng.normal(size=(4, 6)) + 1j * rng.normal(size=(4, 6))
        artifacts.write_rd_binary(tmp_path / "z.bin", vals)
        artifacts.write_rd_csv(tmp_path / "z.csv", vals)
        from_bin = np.abs(artifacts.read_rd_binary(tmp_path / "z.bin"))
        from_bin /= from_bin.max()
        from_csv = np.array([[float(v) for v in line.split(",")]
                             for line in (tmp_path / "z.csv").read_text().splitlines()])
        np.testing.assert_allclose(from_csv, from_bin, atol=1e-6)

    def test_binary_of_strided_map(self, tmp_path, rng):
        vals = rng.normal(size=(6, 8)) + 1j * rng.normal(size=(6, 8))
        for view in (vals[::2, 1::3], vals.T, vals[:3]):
            artifacts.write_rd_binary(tmp_path / "v.bin", view)
            assert (tmp_path / "v.bin").read_bytes()[14:] == \
                np.ascontiguousarray(view).astype("<c16").tobytes()

    @pytest.mark.parametrize("shapes", [[(6, 8), (2, 3), (4, 5)],
                                        [(1, 1), (9, 9), (9, 9)]])
    def test_rewrite_in_place(self, tmp_path, rng, shapes):
        # a rewritten artifact holds exactly the new bytes, whether the new
        # map is smaller, larger or the same size, and keeps its inode
        bin_path, csv_path = tmp_path / "r.bin", tmp_path / "r.csv"
        inodes = None
        for shape in shapes:
            vals = rng.normal(size=shape) + 1j * rng.normal(size=shape)
            artifacts.write_rd_binary(bin_path, vals)
            artifacts.write_rd_csv(csv_path, vals)
            np.testing.assert_array_equal(artifacts.read_rd_binary(bin_path), vals)
            assert csv_path.read_bytes() == csv_reference(vals)
            now = (bin_path.stat().st_ino, csv_path.stat().st_ino)
            assert inodes in (None, now)
            inodes = now

    def test_failed_rewrite_is_cut_where_it_stopped(self, tmp_path):
        path = tmp_path / "f.bin"
        path.write_bytes(b"x" * 100)
        with pytest.raises(RuntimeError):
            with artifacts._rewrite(path) as f:
                f.write(b"abc")
                raise RuntimeError("interrupted")
        assert path.read_bytes() == b"abc"


def csv_reference(values) -> bytes:
    """The writer's contract, one f-string per cell."""
    mag = np.abs(values)
    peak = mag.max()
    if peak > 0:
        mag = mag / peak
    return "".join(",".join(f"{v:.7e}" for v in row) + "\n"
                   for row in mag).encode()


def nudged(v: float, ulps: int) -> float:
    """v moved by `ulps` steps of one ulp."""
    for _ in range(abs(ulps)):
        v = float(np.nextafter(v, np.inf if ulps > 0 else 0.0))
    return v


def near_tie(digits: int, exp: int, ulps: int) -> float:
    """A float `ulps` steps from the 8-digit rounding tie of digits·10^(exp-7)."""
    return nudged(float(f"{digits}5e{exp - 8}"), ulps)


CELLS = st.one_of(
    st.floats(0, 1),                       # zeros and subnormals included
    st.floats(0, 1e-99),                   # three-digit exponents
    st.floats(0, 1e300),
    st.sampled_from([0.0, 1.0, 5e-324, 1e-100, 0.99999999, 0.999999995,
                     0.9999999999, 0.1, 0.30000000000000004]),
    # where floor(log10 v) can be one off
    st.builds(nudged, st.integers(-17, 0).map(lambda k: float(f"1e{k}")),
              st.integers(-3, 3)),
    st.builds(near_tie, st.integers(10**7, 10**8 - 1), st.integers(-20, 0),
              st.integers(-1, 1)))


def format_e7_columns(x, buf):
    """The column-pass formatter the packed one replaced: each digit from
    its own % 10 pass. Returns the cells it leaves to the f-string."""
    with np.errstate(divide="ignore", invalid="ignore"):
        e = np.floor(np.log10(x))
    e[~np.isfinite(e)] = 0
    e = e.astype(np.int32)
    y = x * artifacts._POW10[np.clip(7 - e, 0, 22)]
    frac = y - np.floor(y)
    slow = (np.abs(frac - 0.5) < 1e-6) | (e < -15) | (e > 7) | ~np.isfinite(x)
    m = np.rint(y, out=frac)
    carry = m >= 1e8
    m[carry] = 1e7
    e[carry] += 1
    m[slow] = 0
    m = m.astype(np.int32)
    for j in range(8, 1, -1):
        np.add(m % 10, 48, out=buf[:, j], casting="unsafe")
        m //= 10
    np.add(m, 48, out=buf[:, 0], casting="unsafe")
    buf[:, 1] = ord(".")
    buf[:, 9] = ord("e")
    buf[:, 10] = np.where(e < 0, ord("-"), ord("+"))
    np.abs(e, out=e)
    np.add(e // 10, 48, out=buf[:, 11], casting="unsafe")
    np.add(e % 10, 48, out=buf[:, 12], casting="unsafe")
    return np.flatnonzero(slow)


class TestCsvWriter:
    @settings(max_examples=300, deadline=None)
    @given(cells=st.lists(st.one_of(CELLS, st.sampled_from(
        [math.inf, math.nan, 1e-20, 9.9999999e7, 99999999.5])), min_size=1,
        max_size=40))
    def test_packed_cells_match_the_column_passes(self, cells):
        # the same cells go to the f-string, and every other cell gets the
        # same 13 bytes
        x = np.array(cells)
        want, got = (np.zeros((len(x), 14), np.uint8) for _ in range(2))
        with np.errstate(invalid="ignore"):   # inf and NaN cells
            slow = format_e7_columns(x.copy(), want)
            np.testing.assert_array_equal(artifacts._format_e7(x.copy(), got), slow)
        fast = np.ones(len(x), bool)
        fast[slow] = False
        np.testing.assert_array_equal(got[fast], want[fast])

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), rows=st.integers(1, 9), cols=st.integers(1, 9),
           block=st.sampled_from([1, 4, 10, artifacts.CSV_BLOCK_CELLS]),
           pin_peak=st.booleans(), as_complex=st.booleans())
    def test_matches_fstring_reference(self, tmp_path_factory, data, rows, cols,
                                       block, pin_peak, as_complex):
        values = np.array(data.draw(st.lists(CELLS, min_size=rows * cols,
                                             max_size=rows * cols)))
        values = values.reshape(rows, cols)
        if pin_peak:   # the peak, and no scaling, when every drawn cell is <= 1
            values[rows // 2, cols // 2] = 1.0
        if as_complex:
            values = values.astype(complex)
        path = tmp_path_factory.getbasetemp() / "prop.csv"
        with mock.patch.object(artifacts, "CSV_BLOCK_CELLS", block):
            artifacts.write_rd_csv(path, values)
        assert path.read_bytes() == csv_reference(values)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), rows=st.integers(1, 9), cols=st.integers(1, 5),
           block=st.sampled_from([1, 4, 10, artifacts.CSV_BLOCK_CELLS]),
           ties=st.booleans())
    def test_split_returns_the_lines_of_the_half_with_the_peak(
            self, tmp_path_factory, data, rows, cols, block, ties):
        split = data.draw(st.integers(0, rows))
        cells = st.sampled_from([0.0, 0.5, 1.0]) if ties else CELLS
        values = np.array(data.draw(st.lists(cells, min_size=rows * cols,
                                             max_size=rows * cols)))
        values = values.reshape(rows, cols)
        base = tmp_path_factory.getbasetemp()
        with mock.patch.object(artifacts, "CSV_BLOCK_CELLS", block):
            held = artifacts.write_rd_csv(base / "whole.csv", values, split=split)
        assert (base / "whole.csv").read_bytes() == csv_reference(values)
        parts = (values[:split], values[split:])
        holders = [i for i, part in enumerate(parts)
                   if part.size and part.max() == values.max()]
        if not holders:
            assert held is None
            return
        assert held == (holders[0], csv_reference(parts[holders[0]]))
        artifacts.write_rd_csv(base / "part.csv", parts[held[0]], lines=held[1])
        assert (base / "part.csv").read_bytes() == held[1]

    @pytest.mark.parametrize("shape", [(1, 1), (3, 7), (2, 16390), (2345, 7)])
    def test_blocks_and_special_cells(self, tmp_path, rng, shape):
        # one block, several, a row wider than a block, and a partial last block
        values = rng.random(shape) * np.exp(-rng.uniform(0, 40, shape))
        flat = values.ravel()
        flat[::97] = 0.0
        flat[5::101] = rng.choice([1.0, 5e-324, 1e-120, 0.9999999996,
                                   near_tie(12345678, -3, 0)], flat[5::101].size)
        artifacts.write_rd_csv(tmp_path / "b.csv", values)
        assert (tmp_path / "b.csv").read_bytes() == csv_reference(values)

    def test_all_zero_map(self, tmp_path):
        artifacts.write_rd_csv(tmp_path / "z.csv", np.zeros((2, 3), complex))
        assert (tmp_path / "z.csv").read_bytes() == \
            b"0.0000000e+00,0.0000000e+00,0.0000000e+00\n" * 2

    def test_simulated_maps_match_reference(self, tmp_path, monkeypatch):
        monkeypatch.setenv("JCAS_CACHE_DIR", str(tmp_path / "cache"))
        scn = Scenario(scheme="fsi_tail", k=8, n_fft=256, m_codes=4, n_cp=64,
                       scs_hz=480e3, seed=5,
                       targets=[{"range_m": 24.0, "velocity_kmh": 0.0}])
        run_simulate(scn, tmp_path)
        csvs = sorted(tmp_path.glob("rd_*.csv"))
        assert len(csvs) == 5
        for csv in csvs:
            rd = artifacts.read_rd_binary(csv.with_suffix(".bin"))
            assert csv.read_bytes() == csv_reference(rd)

    def test_memory_of_a_full_map(self, tmp_path, rng):
        # a 512x320 complex map is 2.6 MB; its magnitude alone is 1.3 MB
        values = rng.normal(size=(512, 320)) + 1j * rng.normal(size=(512, 320))
        tracemalloc.start()
        try:
            artifacts.write_rd_csv(tmp_path / "m.csv", values)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3e6
