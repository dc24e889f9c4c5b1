import json
import math
import os
import struct
import subprocess
import sys
import tracemalloc
import weakref
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jcas import cli
from jcas.cli import Scenario, ScenarioError, run_preset, run_simulate


# a small tail-mode scenario: its pattern builds in milliseconds
TAIL_SMALL = {"scheme": "fsi_tail", "k": 8, "n_fft": 256, "m_codes": 4,
              "n_cp": 64, "scs_hz": 480e3, "seed": 5,
              "targets": [{"range_m": 24.0, "velocity_kmh": 0.0}]}


@pytest.fixture
def small_scenario():
    return Scenario(scheme="rtd", k=16, n_fft=256, m_codes=4, n_cp=64,
                    scs_hz=480e3,
                    targets=[{"range_m": 12.0, "velocity_kmh": 40.0}],
                    seed=7)


# a wrong type or an out-of-range number for any field
JUNK = st.one_of(st.none(), st.booleans(), st.text(max_size=3), st.floats(),
                 st.integers(-3, 3), st.lists(st.integers(), max_size=2),
                 st.dictionaries(st.text(max_size=2), st.integers(), max_size=1))
# valid values, kept small: validation allocates one occasion (n_fft/m_codes)
_TARGET = st.fixed_dictionaries(
    {"range_m": st.floats(0, 1e3), "velocity_kmh": st.floats(-500, 500)},
    optional={"amplitude": st.floats(0.1, 2)})
VALID_FIELDS = {
    "scheme": st.sampled_from(["sensing_only", "periodic_td", "rtd",
                               "fsi_random", "fsi_tail"]),
    "k": st.one_of(st.none(), st.integers(1, 16)),
    "n_fft": st.sampled_from([8, 64, 256]), "m_codes": st.sampled_from([2, 4, 8]),
    "n_cp": st.sampled_from([0, 32, 64]),
    "scs_hz": st.floats(1e3, 1e6), "carrier_hz": st.floats(1e9, 1e11),
    "targets": st.lists(st.one_of(_TARGET, JUNK), max_size=2),
    "si_over_echo_db": st.floats(-50, 150), "echo_snr_db": st.floats(-30, 30),
    "si_enabled": st.booleans(), "noise_enabled": st.booleans(),
    "fractional_delay": st.booleans(), "rel_threshold": st.floats(0.01, 0.99),
    "guard": st.integers(0, 4), "max_peaks": st.one_of(st.none(), st.integers(1, 9)),
    "n_guard": st.integers(1, 4), "peak_cleanup": st.booleans(),
    "cleanup_radius": st.integers(1, 4), "comms_enabled": st.booleans(),
    "comms_snr_db": st.one_of(st.none(), st.floats(-10, 30)),
    "rtd_one_per_group": st.booleans(), "seed": st.integers(0, 2**32),
    "tag": st.one_of(st.none(), st.text(st.characters(categories=["L"]), max_size=4)),
}


class TestScenario:
    def test_defaults_match_paper(self):
        s = Scenario(scheme="rtd")
        assert (s.n_fft, s.m_codes, s.n_cp) == (2048, 4, 512)
        assert s.scs_hz == 60e3 and s.carrier_hz == 60e9
        assert s.si_over_echo_db == 100.0 and s.echo_snr_db == -10.0
        assert s.k == 80
        assert Scenario(scheme="fsi_random").k == 64

    def test_unknown_scheme(self):
        with pytest.raises(ScenarioError):
            Scenario(scheme="frequency_division")

    def test_unknown_field(self):
        with pytest.raises(ScenarioError):
            Scenario.from_dict({"scheme": "rtd", "bogus": 1})

    def test_bad_target(self):
        with pytest.raises(ScenarioError):
            Scenario(scheme="rtd", targets=[{"range_m": 10.0}])

    def test_bad_grid(self):
        with pytest.raises(ScenarioError):
            Scenario(scheme="rtd", n_cp=500)

    def test_roundtrip(self, small_scenario):
        again = Scenario.from_dict(small_scenario.to_dict())
        assert again.to_dict() == small_scenario.to_dict()

    @settings(max_examples=300, deadline=None)
    @given(st.fixed_dictionaries({}, optional={
        name: st.one_of(valid, JUNK) for name, valid in VALID_FIELDS.items()}))
    def test_from_dict_returns_or_raises_scenario_error(self, d):
        try:
            Scenario.from_dict(d)
        except ScenarioError:
            pass


class TestRdmxFormat:
    def test_header_layout(self, tmp_path):
        path = tmp_path / "x.bin"
        cli.write_rd_binary(path, np.arange(6, dtype=complex).reshape(2, 3))
        raw = path.read_bytes()
        assert raw[:4] == b"RDMX"
        version, rows, cols = struct.unpack("<HII", raw[4:14])
        assert (version, rows, cols) == (1, 2, 3)
        assert len(raw) == 14 + 2 * 3 * 16

    def test_roundtrip(self, tmp_path, rng):
        vals = rng.normal(size=(5, 7)) + 1j * rng.normal(size=(5, 7))
        path = tmp_path / "y.bin"
        cli.write_rd_binary(path, vals)
        np.testing.assert_array_equal(cli.read_rd_binary(path), vals)

    def test_csv_agrees_with_binary(self, tmp_path, rng):
        vals = rng.normal(size=(4, 6)) + 1j * rng.normal(size=(4, 6))
        cli.write_rd_binary(tmp_path / "z.bin", vals)
        cli.write_rd_csv(tmp_path / "z.csv", vals)
        from_bin = np.abs(cli.read_rd_binary(tmp_path / "z.bin"))
        from_bin /= from_bin.max()
        from_csv = np.array([[float(v) for v in line.split(",")]
                             for line in (tmp_path / "z.csv").read_text().splitlines()])
        np.testing.assert_allclose(from_csv, from_bin, atol=1e-6)

    def test_binary_of_strided_map(self, tmp_path, rng):
        vals = rng.normal(size=(6, 8)) + 1j * rng.normal(size=(6, 8))
        for view in (vals[::2, 1::3], vals.T, vals[:3]):
            cli.write_rd_binary(tmp_path / "v.bin", view)
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
            cli.write_rd_binary(bin_path, vals)
            cli.write_rd_csv(csv_path, vals)
            np.testing.assert_array_equal(cli.read_rd_binary(bin_path), vals)
            assert csv_path.read_bytes() == csv_reference(vals)
            now = (bin_path.stat().st_ino, csv_path.stat().st_ino)
            assert inodes in (None, now)
            inodes = now

    def test_failed_rewrite_is_cut_where_it_stopped(self, tmp_path):
        path = tmp_path / "f.bin"
        path.write_bytes(b"x" * 100)
        with pytest.raises(RuntimeError):
            with cli._rewrite(path) as f:
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
    y = x * cli._POW10[np.clip(7 - e, 0, 22)]
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
            np.testing.assert_array_equal(cli._format_e7(x.copy(), got), slow)
        fast = np.ones(len(x), bool)
        fast[slow] = False
        np.testing.assert_array_equal(got[fast], want[fast])


    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), rows=st.integers(1, 9), cols=st.integers(1, 9),
           block=st.sampled_from([1, 4, 10, cli.CSV_BLOCK_CELLS]),
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
        with mock.patch.object(cli, "CSV_BLOCK_CELLS", block):
            cli.write_rd_csv(path, values)
        assert path.read_bytes() == csv_reference(values)

    @pytest.mark.parametrize("shape", [(1, 1), (3, 7), (2, 16390), (2345, 7)])
    def test_blocks_and_special_cells(self, tmp_path, rng, shape):
        # one block, several, a row wider than a block, and a partial last block
        values = rng.random(shape) * np.exp(-rng.uniform(0, 40, shape))
        flat = values.ravel()
        flat[::97] = 0.0
        flat[5::101] = rng.choice([1.0, 5e-324, 1e-120, 0.9999999996,
                                   near_tie(12345678, -3, 0)], flat[5::101].size)
        cli.write_rd_csv(tmp_path / "b.csv", values)
        assert (tmp_path / "b.csv").read_bytes() == csv_reference(values)

    def test_all_zero_map(self, tmp_path):
        cli.write_rd_csv(tmp_path / "z.csv", np.zeros((2, 3), complex))
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
            rd = cli.read_rd_binary(csv.with_suffix(".bin"))
            assert csv.read_bytes() == csv_reference(rd)

    def test_memory_of_a_full_map(self, tmp_path, rng):
        # a 512x320 complex map is 2.6 MB; its magnitude alone is 1.3 MB
        values = rng.normal(size=(512, 320)) + 1j * rng.normal(size=(512, 320))
        tracemalloc.start()
        try:
            cli.write_rd_csv(tmp_path / "m.csv", values)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3e6


class TestRunSimulate:
    def test_artifacts_and_report(self, tmp_path, small_scenario):
        report = run_simulate(small_scenario, tmp_path)
        assert (tmp_path / "rd_rtd.bin").exists()
        assert (tmp_path / "rd_rtd.csv").exists()
        saved = json.loads((tmp_path / "report_rtd.json").read_text())
        assert saved["scenario"]["seed"] == 7
        assert saved["schedule"]["slots"] is not None
        assert report["detections"]["single"]

    def test_tail_artifacts_and_report(self, tmp_path, monkeypatch):
        # fsi_tail writes both windows, the solved 2L-bin map and its halves,
        # and detects on the solved map only
        monkeypatch.setenv("JCAS_CACHE_DIR", str(tmp_path / "cache"))
        scn = Scenario(scheme="fsi_tail", k=8, n_fft=256, m_codes=4, n_cp=64,
                       scs_hz=480e3, seed=5,
                       targets=[{"range_m": 24.0, "velocity_kmh": 0.0},
                                {"range_m": 115.0, "velocity_kmh": 432.0}])
        out = tmp_path / "out"
        report = run_simulate(scn, out)
        for name in ("std", "shift", "near", "far", "combined"):
            assert (out / f"rd_fsi_tail_{name}.bin").is_file()
            assert (out / f"rd_fsi_tail_{name}.csv").is_file()
        l = scn.waveform_config().l_occ
        combined = cli.read_rd_binary(out / "rd_fsi_tail_combined.bin")
        assert combined.shape == (2 * l, 8)
        np.testing.assert_array_equal(
            cli.read_rd_binary(out / "rd_fsi_tail_near.bin"), combined[:l])
        np.testing.assert_array_equal(
            cli.read_rd_binary(out / "rd_fsi_tail_far.bin"), combined[l:])
        saved = json.loads((out / "report_fsi_tail.json").read_text())
        for rep in (report, saved):
            assert list(rep["detections"]) == ["combined"]
            assert list(rep["evaluation"]) == ["combined"]
        assert saved["evaluation"]["combined"]["misses"] == []

    def test_tail_presets_share_an_out_dir(self, tmp_path):
        # fig7 and fig7_offgrid write every file under its own name
        run_preset("fig7", tmp_path, seed=1)
        first = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        run_preset("fig7_offgrid", tmp_path, seed=1)
        second = {p.name for p in tmp_path.iterdir()} - set(first)
        for name, data in first.items():
            assert (tmp_path / name).read_bytes() == data, name
        assert len(first) == len(second) == 12
        assert "report_fsi_tail_offgrid.json" in second
        assert "rd_fsi_tail_offgrid_combined.csv" in second

    def test_report_reproducible_from_scenario(self, tmp_path, small_scenario):
        run_simulate(small_scenario, tmp_path / "a")
        saved = json.loads((tmp_path / "a" / "report_rtd.json").read_text())
        again = Scenario.from_dict(saved["scenario"])
        run_simulate(again, tmp_path / "b")
        assert (tmp_path / "a" / "rd_rtd.bin").read_bytes() == \
               (tmp_path / "b" / "rd_rtd.bin").read_bytes()

    def test_byte_identical_across_runs_and_threads(self, tmp_path):
        run_preset("fig6", tmp_path / "t1", seed=3, threads=1)
        run_preset("fig6", tmp_path / "t4", seed=3, threads=4)
        names = sorted(p.name for p in (tmp_path / "t1").glob("rd_*.bin"))
        assert len(names) == 4
        for n in names:
            assert (tmp_path / "t1" / n).read_bytes() == \
                   (tmp_path / "t4" / n).read_bytes()


class TestCalibrationCache:
    def test_cache_hit_and_invalidation(self, tmp_path, monkeypatch):
        monkeypatch.setenv("JCAS_CACHE_DIR", str(tmp_path))
        scn = Scenario(scheme="fsi_tail", k=8, n_fft=256, m_codes=4, n_cp=64,
                       scs_hz=480e3)
        path = cli.run_calibrate(scn)
        assert path.exists()
        stamp = path.stat().st_mtime_ns
        cli.run_calibrate(scn)   # hit: no rebuild
        assert path.stat().st_mtime_ns == stamp
        scn2 = Scenario(scheme="fsi_tail", k=12, n_fft=256, m_codes=4, n_cp=64,
                        scs_hz=480e3)
        path2 = cli.run_calibrate(scn2)
        assert path2 != path

    def test_truncated_cache_is_rebuilt(self, tmp_path, monkeypatch):
        monkeypatch.setenv("JCAS_CACHE_DIR", str(tmp_path))
        scn = Scenario(scheme="fsi_tail", k=8, n_fft=256, m_codes=4, n_cp=64,
                       scs_hz=480e3)
        path = cli.run_calibrate(scn)
        with np.load(path) as z:
            p = z["p"]
        path.write_bytes(path.read_bytes()[:1000])
        assert cli.run_calibrate(scn) == path
        with np.load(path) as z:
            np.testing.assert_array_equal(z["p"], p)
        assert [f.name for f in tmp_path.iterdir()] == [path.name]


    def test_calibrate_validates_a_pattern_cached_by_simulate(
            self, tmp_path, monkeypatch, capsys):
        # simulate caches the pattern unvalidated; calibrate must not just
        # hand that back
        monkeypatch.setenv("JCAS_CACHE_DIR", str(tmp_path / "cache"))
        scn_file = tmp_path / "tail.json"
        scn_file.write_text(json.dumps(TAIL_SMALL))
        assert cli.main(["--out-dir", str(tmp_path / "out"), "simulate",
                         str(scn_file)]) == 0
        capsys.readouterr()
        assert cli.main(["calibrate", str(scn_file)]) == 0
        (line,) = [s for s in capsys.readouterr().out.splitlines()
                   if s.startswith("validation error: ")]
        err = float(line.split(": ")[1])
        assert math.isfinite(err) and err <= 1e-6
        path = cli.pattern_path(Scenario(**TAIL_SMALL))
        stamp = path.stat().st_mtime_ns
        assert cli.main(["calibrate", str(scn_file)]) == 0   # stored validated
        assert path.stat().st_mtime_ns == stamp

    def test_calibrate_rebuilds_a_cached_pattern_that_fails_validation(
            self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("JCAS_CACHE_DIR", str(tmp_path / "cache"))
        scn = Scenario(**TAIL_SMALL)
        run_simulate(scn, tmp_path / "out")
        path = cli.pattern_path(scn)
        with np.load(path) as z:
            good = dict(z)
        np.savez(path, **dict(good, p=2 * good["p"]))
        cli.run_calibrate(scn)
        assert "validation error: None" not in capsys.readouterr().out
        with np.load(path) as z:
            np.testing.assert_array_equal(z["p"], good["p"])
            assert z["validation_error"] <= 1e-6

    @pytest.mark.parametrize("damage", ["half_band_p", "flat_p_sol",
                                        "no_resolvable", "other_guard"])
    def test_misfit_cache_is_rebuilt(self, tmp_path, monkeypatch, damage):
        monkeypatch.setenv("JCAS_CACHE_DIR", str(tmp_path / "cache"))
        scn_file = tmp_path / "tail.json"
        scn_file.write_text(json.dumps(TAIL_SMALL))
        path = cli.run_calibrate(Scenario(**TAIL_SMALL))
        with np.load(path) as z:
            good = dict(z)
        bad = dict(good)
        if damage == "half_band_p":
            bad["p"] = good["p"][:, :good["p"].shape[1] // 2]
        elif damage == "flat_p_sol":
            bad["p_sol"] = good["p_sol"].reshape(-1, 2, 2)
        elif damage == "no_resolvable":
            del bad["resolvable"]
        else:
            bad["n_guard"] = np.array(good["n_guard"] + 1)
        np.savez(path, **bad)
        assert cli.main(["--out-dir", str(tmp_path / "out"), "simulate",
                         str(scn_file)]) == 0
        with np.load(path) as z:
            for k in ("p", "p_sol", "resolvable", "n_guard"):
                np.testing.assert_array_equal(z[k], good[k])


class TestPatternMemo:
    """The last pattern loaded stays in memory while its file is unchanged."""

    @pytest.fixture
    def loads(self, tmp_path, monkeypatch):
        monkeypatch.setenv("JCAS_CACHE_DIR", str(tmp_path / "cache"))
        calls = []
        real = np.load

        def counting(*args, **kwargs):
            calls.append(args[0])
            return real(*args, **kwargs)
        monkeypatch.setattr(np, "load", counting)
        return calls

    @staticmethod
    def _pattern(scn):
        return cli.load_or_build_pattern(scn, cli.make_schedule(
            scn.scheme_enum, scn.m_codes, scn.k, seed=scn.seed))

    def test_second_warm_simulate_does_not_load(self, tmp_path, loads):
        scn = Scenario(**TAIL_SMALL)
        reports = []
        for _ in range(3):   # cold build, first warm run, second warm run
            run_simulate(scn, tmp_path / "out")
            reports.append(json.loads(
                (tmp_path / "out" / "report_fsi_tail.json").read_text()))
        assert len(loads) == 1
        assert reports[0]["detections"] == reports[2]["detections"]

    def test_replaced_file_is_reloaded(self, tmp_path, loads):
        scn = Scenario(**TAIL_SMALL)
        self._pattern(scn)
        pat = self._pattern(scn)
        path = cli.pattern_path(scn)
        tmp = path.with_suffix(".new.npz")
        np.savez(tmp, **dict(vars(pat), p=2 * pat.p, validation_error=0.5))
        os.replace(tmp, path)
        again = self._pattern(scn)
        assert len(loads) == 2
        np.testing.assert_array_equal(again.p, 2 * pat.p)
        assert again.validation_error == 0.5

    def test_deleted_file_is_rebuilt_without_the_old_entry(self, tmp_path,
                                                           loads, monkeypatch):
        scn = Scenario(**TAIL_SMALL)
        self._pattern(scn)
        p = self._pattern(scn).p
        first, old = p.copy(), weakref.ref(p)
        del p
        assert cli._pattern_memo is not None and old() is not None
        cli.pattern_path(scn).unlink()
        held = []
        real = cli.receiver.build_pattern

        def build(*args, **kwargs):
            held.append((cli._pattern_memo, old()))
            return real(*args, **kwargs)
        monkeypatch.setattr(cli.receiver, "build_pattern", build)
        again = self._pattern(scn)
        assert held == [(None, None)]   # nothing keeps the old arrays alive
        assert cli.pattern_path(scn).is_file()
        np.testing.assert_array_equal(again.p, first)

    def test_truncated_file_is_rebuilt(self, tmp_path, loads):
        scn = Scenario(**TAIL_SMALL)
        self._pattern(scn)
        pat = self._pattern(scn)
        path = cli.pattern_path(scn)
        with open(path, "r+b") as f:   # in place: same inode
            f.truncate(1000)
        again = self._pattern(scn)
        np.testing.assert_array_equal(again.p, pat.p)
        with np.load(path) as z:
            np.testing.assert_array_equal(z["p"], pat.p)

    def test_memoized_arrays_are_read_only(self, tmp_path, loads):
        scn = Scenario(**TAIL_SMALL)
        built = self._pattern(scn)
        loaded = self._pattern(scn)
        hit = self._pattern(scn)
        assert len(loads) == 1
        built.p[0, 0] = 1   # the caller's own
        for pat in (loaded, hit):
            for a in (pat.p, pat.p_sol, pat.resolvable):
                with pytest.raises(ValueError):
                    a[0, 0] = 1
        hit.validation_error = 7.0   # the fields stay per call
        assert self._pattern(scn).validation_error is None
        assert len(loads) == 1

    def test_calibrate_after_simulate_validates(self, tmp_path, loads, capsys):
        scn = Scenario(**TAIL_SMALL)
        run_simulate(scn, tmp_path / "out")
        run_simulate(scn, tmp_path / "out")   # memoizes the unvalidated file
        cli.run_calibrate(scn)
        (line,) = [s for s in capsys.readouterr().out.splitlines()
                   if s.startswith("validation error: ")]
        assert float(line.split(": ")[1]) <= 1e-6
        assert len(loads) == 1
        assert self._pattern(scn).validation_error <= 1e-6
        assert len(loads) == 2   # the stored, validated file


class TestCliMain:
    def test_simulate_verb(self, tmp_path, small_scenario):
        scn_file = tmp_path / "scn.json"
        scn_file.write_text(json.dumps(small_scenario.to_dict()))
        rc = cli.main(["--out-dir", str(tmp_path / "out"), "simulate",
                       str(scn_file)])
        assert rc == 0
        assert (tmp_path / "out" / "rd_rtd.bin").exists()

    def test_preset_verb_and_flagged_bins_exit_3(self, tmp_path, monkeypatch):
        assert cli.main(["--out-dir", str(tmp_path / "out"), "preset",
                         "fig7"]) == 0
        assert (tmp_path / "out" / "report_fig7.json").is_file()
        scn_file = tmp_path / "tail.json"
        scn_file.write_text(json.dumps(TAIL_SMALL))
        monkeypatch.setattr(cli, "run_simulate",
                            lambda scn, out: {"flagged_pattern_bins": 2})
        assert cli.main(["simulate", str(scn_file)]) == 3
        monkeypatch.setattr(cli, "run_preset", lambda name, out, seed, threads: [
            {"flagged_pattern_bins": 0}, {"flagged_pattern_bins": 1}])
        assert cli.main(["preset", "fig6"]) == 3

    def test_invalid_scenario_exit_2(self, tmp_path):
        scn_file = tmp_path / "bad.json"
        scn_file.write_text(json.dumps({"scheme": "nope"}))
        assert cli.main(["simulate", str(scn_file)]) == 2

    @pytest.mark.parametrize("bad", [
        {"n_guard": 0}, {"rel_threshold": 1.5}, {"k": 2.5}, {"seed": "x"},
        {"targets": [{"range_m": -5, "velocity_kmh": 0}]},
        {"n_fft": 0}, {"targets": 5}, {"si_over_echo_db": "x"},
        {"peak_cleanup": True, "cleanup_radius": 0},
        {"scheme": "fsi_random", "n_cp": -512}, {"max_peaks": -1},
        {"guard": -1}, {"seed": -1},
        {"targets": [{"range_m": float("nan"), "velocity_kmh": 0}]},
        {"tag": "a/b"}, {"tag": "a\u0000b"},
        {"targets": [{"range_m": 10, "velocity_kmh": 1e300}]},
        {"targets": [{"range_m": 10, "velocity_kmh": 0, "amplitude": 1e300}]},
        {"carrier_hz": 1e308, "targets": [{"range_m": 10, "velocity_kmh": 40}]},
        {"si_over_echo_db": 1e4}, {"echo_snr_db": -1e4},
        {"scheme": "fsi_random", "comms_enabled": True, "comms_snr_db": -1e4},
        {"targets": [{"range_m": 1e308, "velocity_kmh": 0}]},
        {"scs_hz": 1e-300},
        {"si_over_echo_db": 3000, "echo_snr_db": -3000,
         "targets": [{"range_m": 10, "velocity_kmh": 0, "amplitude": 1e150}]},
        pytest.param('{"scheme": "rtd", "k": 1', id="truncated_json"),
        pytest.param("[]", id="not_an_object"),
        pytest.param(None, id="missing_file")])
    def test_invalid_value_exit_2(self, tmp_path, capsys, bad):
        scn_file = tmp_path / "bad.json"
        if isinstance(bad, dict):
            scn_file.write_text(json.dumps({"scheme": "rtd", **bad}))
        elif bad is not None:
            scn_file.write_text(bad)
        for verb in ("simulate", "calibrate"):
            assert cli.main(["--out-dir", str(tmp_path / "out"), verb,
                             str(scn_file)]) == 2
            err = capsys.readouterr().err
            assert err.startswith("scenario error: ") and err.count("\n") == 1

    def test_seed_flag_is_validated(self, tmp_path, small_scenario):
        scn_file = tmp_path / "scn.json"
        scn_file.write_text(json.dumps(small_scenario.to_dict()))
        assert cli.main(["--seed", "-1", "simulate", str(scn_file)]) == 2

    def test_entry_point_exit_2(self, tmp_path):
        # what a user sees: the module run as a program, not cli.main
        scn_file = tmp_path / "truncated.json"
        scn_file.write_text('{"scheme": "rtd", "k": 1')
        src = Path(cli.__file__).resolve().parents[1]
        proc = subprocess.run([sys.executable, "-m", "jcas.cli", "simulate",
                               str(scn_file)], capture_output=True, text=True,
                              cwd=tmp_path, env={**os.environ, "PYTHONPATH": str(src)},
                              timeout=120)
        assert proc.returncode == 2
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("scenario error:")

    def test_import_leaves_scipy_signal_out(self):
        # a fresh interpreter: this pytest process may have imported them
        # already; jcas needs scipy.fft only
        src = Path(cli.__file__).resolve().parents[1]
        proc = subprocess.run(
            [sys.executable, "-c", "import sys, jcas, jcas.cli; "
             "print('scipy.signal' in sys.modules, 'scipy.ndimage' in sys.modules)"],
            capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": str(src)})
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False False"

    @pytest.mark.skipif(not (os.confstr("CS_GNU_LIBC_VERSION") or "").startswith("glibc"),
                        reason="heap thresholds are set on glibc only")
    def test_repeated_runs_reuse_freed_heap(self, tmp_path):
        # a fresh interpreter without allocator tunables in its environment
        src = Path(cli.__file__).resolve().parents[1]
        env = {k: v for k, v in os.environ.items()
               if k not in ("GLIBC_TUNABLES", "MALLOC_TRIM_THRESHOLD_",
                            "MALLOC_MMAP_THRESHOLD_")}
        code = ("import resource, sys; from jcas import cli\n"
                "scn = cli.Scenario(scheme='sensing_only', "
                "targets=[{'range_m': 200.0, 'velocity_kmh': 0.0}])\n"
                "for _ in range(3):\n"
                "    f0 = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
                "    cli.run_simulate(scn, sys.argv[1])\n"
                "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - f0)")
        proc = subprocess.run([sys.executable, "-c", code, str(tmp_path)],
                              capture_output=True, text=True, timeout=120,
                              env={**env, "PYTHONPATH": str(src)})
        assert proc.returncode == 0, proc.stderr
        # glibc's adaptive defaults fault ~5,400 pages back in on every run
        assert int(proc.stdout) < 500

    def test_selftest_passes(self, capsys):
        assert cli.main(["selftest"]) == 0
        out = capsys.readouterr().out
        assert "12/12 checks passed" in out

    def test_selftest_fault_injection(self, capsys):
        assert cli.main(["selftest", "--inject-fault", "code-unitarity"]) == 1
        out = capsys.readouterr().out
        assert "FAIL code-unitarity" in out
