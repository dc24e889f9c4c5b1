import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import threading
import weakref
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jcas import cache, channel, cli, detect, receiver
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

# a valid value 19 times in 20, else junk
MOSTLY_VALID = {name: st.integers(0, 19).flatmap(lambda i, v=valid: JUNK if i == 0 else v)
                for name, valid in VALID_FIELDS.items()}
GRID = ("n_fft", "m_codes", "n_cp")


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
        scn = Scenario(**{**TAIL_SMALL, "targets": [
            {"range_m": 24.0, "velocity_kmh": 0.0},
            {"range_m": 115.0, "velocity_kmh": 432.0}]})
        out = tmp_path / "out"
        write = mock.Mock(wraps=cli.write_rd_csv)
        monkeypatch.setattr(cli, "write_rd_csv", write)
        report = run_simulate(scn, out)
        # one of near and far is written from the combined CSV's lines
        from_lines = [c.args[0].name for c in write.call_args_list
                      if c.kwargs["lines"] is not None]
        assert from_lines in (["rd_fsi_tail_near.csv"], ["rd_fsi_tail_far.csv"])
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

    def test_probed_layers_are_called_through_their_modules(self, tmp_path,
                                                            monkeypatch):
        # perfbench times a layer by replacing its name in these modules; a
        # caller that bound the function directly would bypass it unseen.
        # Its tracer is single-threaded: every layer runs on the caller's
        # thread, and the background worker only runs numpy work inside
        # them (the noise fill, slices of the pattern build, half the solve).
        monkeypatch.setenv("JCAS_CACHE_DIR", str(tmp_path / "cache"))
        simulate = {(cli, "make_schedule"): 1, (cli, "assemble_frame"): 1,
                    (cli, "synthesize_rx"): 1, (cli, "write_rd_csv"): 5,
                    (cli, "write_rd_binary"): 5, (cli, "load_or_build_pattern"): 1,
                    (receiver, "build_pattern"): 1, (receiver, "assemble_frame"): 1,
                    (receiver, "process_sensing"): 2, (receiver, "peak_cleanup"): 2,
                    (receiver, "solve_windows"): 1, (detect, "find_peaks"): 3,
                    (detect, "evaluate"): 1}
        # a cold calibrate validates while it builds: three cells, each
        # through both windows of an echo of the one zero-data frame
        calibrate = {(receiver, "build_pattern"): 1, (receiver, "assemble_frame"): 2,
                     (receiver, "validate_pattern"): 0,
                     (receiver, "process_sensing"): 6, (channel, "echo_component"): 3}
        # calibrate on the pattern simulate stored unvalidated: a disk load,
        # solved in two halves, then the same three cells
        stored = {**calibrate, (receiver, "build_pattern"): 0,
                  (receiver, "assemble_frame"): 1, (receiver, "validate_pattern"): 1}
        threads = set()

        def spy(fn):
            def call(*args, **kwargs):
                threads.add(threading.get_ident())
                return fn(*args, **kwargs)
            return mock.Mock(side_effect=call)

        def counts(layers):
            return {k: getattr(*k).call_count for k in layers}

        def reset():
            for mod, name in calibrate:
                getattr(mod, name).reset_mock()

        for mod, name in simulate.keys() | calibrate.keys():
            monkeypatch.setattr(mod, name, spy(getattr(mod, name)))
        scn = Scenario(**TAIL_SMALL, peak_cleanup=True)
        run_simulate(scn, tmp_path / "out")
        assert counts(simulate) == simulate
        reset()
        monkeypatch.setenv("JCAS_CACHE_DIR", str(tmp_path / "cold"))
        schedule = cli.make_schedule(scn.scheme_enum, scn.m_codes, scn.k)
        cli.load_or_build_pattern(scn, schedule, validate=True)
        assert counts(calibrate) == calibrate
        reset()
        invert = mock.Mock(wraps=receiver.invert_cells)
        monkeypatch.setattr(receiver, "invert_cells", invert)
        monkeypatch.setenv("JCAS_CACHE_DIR", str(tmp_path / "cache"))
        pat = cli.load_or_build_pattern(scn, schedule, validate=True)
        assert counts(stored) == stored
        assert invert.call_count == 2 and pat.validation_error is not None
        assert threads == {threading.get_ident()}

    def test_failing_noise_draw_raises(self, tmp_path, small_scenario,
                                       monkeypatch):
        class Broken:
            def standard_normal(self, out):
                raise RuntimeError("draw failed")

        real = cli.substream
        monkeypatch.setattr(cli, "substream", lambda seed, name: Broken()
                            if name.endswith("/noise") else real(seed, name))
        with pytest.raises(RuntimeError, match="draw failed"):
            run_simulate(small_scenario, tmp_path)

    @pytest.mark.parametrize("noise", [False, True])
    def test_noise_drawn_only_when_enabled(self, tmp_path, small_scenario,
                                           monkeypatch, noise):
        draw = mock.Mock(wraps=cli.start_noise)
        monkeypatch.setattr(cli, "start_noise", draw)
        small_scenario.noise_enabled = noise
        run_simulate(small_scenario, tmp_path)
        assert draw.call_count == noise

    def test_forked_child_draws_noise(self, tmp_path, small_scenario):
        # the child of a process whose noise worker has started
        src = Path(cli.__file__).resolve().parents[1]
        code = ("import multiprocessing as mp, sys; from jcas import cli\n"
                f"scn = cli.Scenario(**{small_scenario.to_dict()!r})\n"
                "cli.run_simulate(scn, sys.argv[1])\n"
                "p = mp.get_context('fork').Process(target=cli.run_simulate, "
                "args=(scn, sys.argv[1]))\n"
                "p.start(); p.join(60)\n"
                "alive = p.is_alive(); p.kill()\n"
                "print(alive, p.exitcode)")
        proc = subprocess.run([sys.executable, "-c", code, str(tmp_path)],
                              capture_output=True, text=True, timeout=120,
                              env={**os.environ, "PYTHONPATH": str(src)})
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["False", "0"]

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
        scn = Scenario(**TAIL_SMALL)
        path = cli.run_calibrate(scn)
        assert path.exists()
        stamp = path.stat().st_mtime_ns
        cli.run_calibrate(scn)   # hit: no rebuild
        assert path.stat().st_mtime_ns == stamp
        path2 = cli.run_calibrate(Scenario(**{**TAIL_SMALL, "k": 12}))
        assert path2 != path

    def test_truncated_cache_is_rebuilt(self, tmp_path, monkeypatch):
        monkeypatch.setenv("JCAS_CACHE_DIR", str(tmp_path))
        scn = Scenario(**TAIL_SMALL)
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

    def test_calibrate_validates_a_pattern_whose_stored_error_fails(
            self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("JCAS_CACHE_DIR", str(tmp_path / "cache"))
        scn = Scenario(**TAIL_SMALL)
        path = cli.run_calibrate(scn)
        with np.load(path) as z:
            p = z["p"]
        np.savez(path, p=2 * p, validation_error=np.nan)
        cli.run_calibrate(scn)
        assert "validation error: nan" not in capsys.readouterr().out
        with np.load(path) as z:
            np.testing.assert_array_equal(z["p"], p)
            assert z["validation_error"] <= 1e-6

    @pytest.mark.parametrize("damage", ["half_band_p", "no_p", "real_p"])
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
        elif damage == "no_p":
            del bad["p"]
        else:
            bad["p"] = good["p"].real
        np.savez(path, **bad)
        assert cli.main(["--out-dir", str(tmp_path / "out"), "simulate",
                         str(scn_file)]) == 0
        with np.load(path) as z:
            assert z.files == ["p"]
            np.testing.assert_array_equal(z["p"], good["p"])

    def test_file_holds_p_and_validation_error_only(self, tmp_path, monkeypatch):
        monkeypatch.setenv("JCAS_CACHE_DIR", str(tmp_path / "cache"))
        scn = Scenario(**TAIL_SMALL)
        run_simulate(scn, tmp_path / "out")
        with np.load(cli.pattern_path(scn)) as z:
            assert set(z.files) == {"p"}
        cli.run_calibrate(scn)
        with np.load(cli.pattern_path(scn)) as z:
            assert set(z.files) == {"p", "validation_error"}

    def test_stored_solve_is_not_trusted(self, tmp_path, monkeypatch):
        # a file that carries a solve beside p, with the near and far rows
        # of every cell swapped: the solve must come from p alone
        monkeypatch.setenv("JCAS_CACHE_DIR", str(tmp_path / "cache"))
        scn = Scenario(**TAIL_SMALL)
        run_simulate(scn, tmp_path / "good")
        path = cli.pattern_path(scn)
        with np.load(path) as z:
            good = dict(z)
        _, p_sol = receiver.invert_cells(good["p"])
        np.savez(path, **dict(good, p_sol=p_sol[..., ::-1, :]))
        run_simulate(scn, tmp_path / "damaged")
        name = "rd_fsi_tail_combined.bin"
        assert (tmp_path / "damaged" / name).read_bytes() == \
            (tmp_path / "good" / name).read_bytes()

    @pytest.mark.parametrize("verb", ["simulate", "preset"])
    def test_unusable_cache_dir_warns_and_runs(self, tmp_path, monkeypatch, capsys,
                                               verb):
        scn_file = tmp_path / "tail.json"
        scn_file.write_text(json.dumps(TAIL_SMALL))
        (tmp_path / "file").write_text("")
        unusable = tmp_path / "file" / "sub"   # below a regular file
        out = {}
        for cache in (tmp_path / "cache", unusable):
            monkeypatch.setenv("JCAS_CACHE_DIR", str(cache))
            out[cache] = tmp_path / cache.name / "out"
            assert cli.main(["--out-dir", str(out[cache]), verb,
                             str(scn_file) if verb == "simulate" else "fig7"]) == 0
        err = capsys.readouterr().err
        assert err == f"warning: cannot store the pattern in {unusable}: Not a directory\n"
        want, got = (sorted(o.iterdir()) for o in out.values())
        assert [f.name for f in got] == [f.name for f in want]
        for a, b in zip(want, got):
            if a.suffix == ".json":
                assert {**json.loads(a.read_text()), "elapsed_s": 0} == \
                    {**json.loads(b.read_text()), "elapsed_s": 0}
            else:
                assert a.read_bytes() == b.read_bytes()

    def test_calibrate_into_an_unusable_cache_dir_exits_2(self, tmp_path,
                                                          monkeypatch, capsys):
        scn_file = tmp_path / "tail.json"
        scn_file.write_text(json.dumps(TAIL_SMALL))
        (tmp_path / "file").write_text("")
        monkeypatch.setenv("JCAS_CACHE_DIR", str(tmp_path / "file" / "sub"))
        assert cli.main(["calibrate", str(scn_file)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"cache error: cannot store the pattern in "
                                f"{tmp_path / 'file' / 'sub'}: Not a directory\n")


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
        np.savez(tmp, p=2 * pat.p, validation_error=0.5)
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
        assert cache._pattern_memo is not None and old() is not None
        cli.pattern_path(scn).unlink()
        held = []
        real = cli.receiver.build_pattern

        def build(*args, **kwargs):
            held.append((cache._pattern_memo, old()))
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

    def test_loaded_pattern_is_the_built_one(self, tmp_path, loads):
        scn = Scenario(**TAIL_SMALL)
        built = self._pattern(scn)
        loaded = self._pattern(scn)
        assert len(loads) == 1
        for name in ("p", "p_sol", "resolvable"):
            assert getattr(loaded, name).tobytes() == getattr(built, name).tobytes()
        assert loaded.n_guard == built.n_guard

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
        {"targets": [{"range_m": 10, "velocity_kmh": 0, "amplitud": 0.1}]},
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

    @pytest.mark.parametrize("scn", [
        pytest.param({"scheme": "rtd", "n_fft": 2**40, "n_cp": 0}, id="n_fft"),
        pytest.param({"scheme": "fsi_tail", "k": 2**40}, id="k")])
    def test_refused_allocation_exit_2(self, tmp_path, scn):
        # terabytes, refused at once; the address-space limit keeps them
        # refused where the kernel would overcommit them
        scn_file = tmp_path / "huge.json"
        scn_file.write_text(json.dumps(scn))
        src = Path(cli.__file__).resolve().parents[1]
        code = ("import resource, sys\n"
                "resource.setrlimit(resource.RLIMIT_AS, (4 << 30, 4 << 30))\n"
                "from jcas.cli import main\n"
                "sys.exit(main(sys.argv[1:]))")
        for verb in ("simulate", "calibrate"):
            proc = subprocess.run(
                [sys.executable, "-c", code, "--out-dir", str(tmp_path / "out"),
                 verb, str(scn_file)], capture_output=True, text=True,
                timeout=120, env={**os.environ, "PYTHONPATH": str(src),
                                  "OPENBLAS_NUM_THREADS": "1"})
            assert proc.returncode == 2, proc.stderr
            lines = proc.stderr.splitlines()
            assert len(lines) == 1 and lines[0].startswith("scenario error:")

    def test_import_leaves_scipy_signal_out(self):
        # a fresh interpreter: this pytest process may have imported them
        # already; jcas runs on numpy alone, so no scipy module loads
        src = Path(cli.__file__).resolve().parents[1]
        proc = subprocess.run(
            [sys.executable, "-c", "import sys, jcas, jcas.cli; "
             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
            capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": str(src)})
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

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

    @settings(max_examples=100, deadline=None)
    @given(st.fixed_dictionaries(
        {name: MOSTLY_VALID[name] for name in GRID},
        optional={name: f for name, f in MOSTLY_VALID.items() if name not in GRID}))
    def test_simulate_keeps_the_exit_contract(self, d):
        # mostly valid fields, now and then a junk one: every run ends in 0, 2
        # or 3, and an exit 2 in one line on stderr; the grid is always drawn,
        # so no run takes the paper's 2048-point default
        err = io.StringIO()
        with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stderr(err):
            scn_file = Path(tmp) / "scn.json"
            scn_file.write_text(json.dumps(d))
            rc = cli.main(["--out-dir", str(Path(tmp) / "out"), "simulate",
                           str(scn_file)])
        assert rc in (0, 2, 3)
        if rc == 2:
            assert err.getvalue().count("\n") == 1
            assert err.getvalue().startswith("scenario error: ")

    def test_selftest_passes(self, capsys):
        assert cli.main(["selftest"]) == 0
        out = capsys.readouterr().out
        assert "12/12 checks passed" in out

    def test_selftest_fault_injection(self, capsys):
        assert cli.main(["selftest", "--inject-fault", "code-unitarity"]) == 1
        out = capsys.readouterr().out
        assert "FAIL code-unitarity" in out
