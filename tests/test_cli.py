import contextlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
import threading
import tracemalloc
import weakref
from dataclasses import astuple, replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from jcas import cache, channel, cli, detect, receiver, selftest
from jcas.cli import Scenario, ScenarioError, run_preset, run_simulate
from jcas.util import kmh_to_mps


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
# valid values, kept small
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
    # a guard or radius past any map: the neighborhoods are bounded by the map
    "guard": st.one_of(st.integers(0, 4), st.sampled_from([10 ** 6, 10 ** 9])),
    "max_peaks": st.one_of(st.none(), st.integers(1, 9)),
    "n_guard": st.integers(1, 4), "peak_cleanup": st.booleans(),
    "cleanup_radius": st.one_of(st.integers(1, 4), st.sampled_from([10 ** 6, 10 ** 9])),
    "comms_enabled": st.booleans(),
    "comms_snr_db": st.one_of(st.none(), st.floats(-10, 30)),
    "rtd_one_per_group": st.booleans(), "seed": st.integers(0, 2**32),
    "tag": st.one_of(st.none(), st.text(st.characters(categories=["L"]), max_size=4)),
}

def _mostly(valid):
    """A valid value 19 times in 20, else junk."""
    return st.integers(0, 19).flatmap(lambda i: JUNK if i == 0 else valid)


MOSTLY_VALID = {name: _mostly(valid) for name, valid in VALID_FIELDS.items()}
GRID = ("n_fft", "m_codes", "n_cp")


@st.composite
def _grids(draw):
    """n_fft = M L and n_cp = j L for j in [0, M], odd M and L = 1 included;
    each field now and then junk."""
    m, l = draw(st.sampled_from([2, 3, 4, 8])), draw(st.integers(1, 32))
    return {"m_codes": draw(_mostly(st.just(m))), "n_fft": draw(_mostly(st.just(m * l))),
            "n_cp": draw(_mostly(st.integers(0, m).map(lambda j: j * l)))}


# sizes whose frame of G L samples, 16 bytes each, passes an np.intp
HUGE_SIZES = [{"k": 2**62}, {"k": 2**63}, {"k": 10**400}, {"n_fft": 2**62, "n_cp": 0}]


# fsi_tail grids whose pattern has a band column that cancels to zero (M 3,
# L 2, N_CP L), or flagged bins (N_CP 0)
DEGENERATE_TAILS = [{"scheme": "fsi_tail", "m_codes": 3, "n_fft": 6, "n_cp": 2, "k": k}
                    for k in (1, 2, 4)] + \
    [{"scheme": "fsi_tail", "m_codes": 2, "n_fft": 8, "n_cp": 0, "k": 2},
     {"scheme": "fsi_tail", "m_codes": 8, "n_fft": 16, "n_cp": 0, "k": 1}]


# every preset scenario, and fig6's fsi_random with its comms link as
# scenarios/fig6_fsi.json and the benchmark run it
PRESET_RUNS = [scn for name in ("fig6", "fig7", "fig7_offgrid")
               for scn in cli.preset_scenarios(name, seed=7)]
PRESET_RUNS.append(replace(PRESET_RUNS[3], comms_enabled=True, tag="fsi_random_comms"))


def _assert_same_outputs(want: Path, got: Path) -> None:
    """The two run directories hold the same files: RD artifacts byte-equal,
    reports equal apart from their elapsed time."""
    want, got = sorted(want.iterdir()), sorted(got.iterdir())
    assert [f.name for f in got] == [f.name for f in want]
    for a, b in zip(want, got):
        if a.suffix == ".json":
            assert {**json.loads(a.read_text()), "elapsed_s": 0} == \
                {**json.loads(b.read_text()), "elapsed_s": 0}
        else:
            assert a.read_bytes() == b.read_bytes(), a.name


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

    @pytest.mark.parametrize("key", ["range_m", "velocity_kmh", "amplitude"])
    @pytest.mark.parametrize("bad", ["100", True, False, float("nan"), float("inf"),
                                     None, [1.0]])
    def test_target_numbers_follow_the_field_rule(self, key, bad):
        # a finite int or float, not a bool: the rule every number field keeps
        t = {"range_m": 100, "velocity_kmh": -50.5, "amplitude": 2, key: bad}
        with pytest.raises(ScenarioError, match=re.escape(
                f"targets[1].{key} must be float, not {bad!r}")):
            Scenario(scheme="rtd", targets=[{"range_m": 10.0, "velocity_kmh": 0}, t])

    def test_int_and_float_targets_are_accepted(self):
        scn = Scenario(scheme="rtd", targets=[
            {"range_m": 100, "velocity_kmh": -50, "amplitude": 2},
            {"range_m": 100.5, "velocity_kmh": 0.0, "amplitude": 0.5}])
        assert [astuple(t) for t in scn.target_list()] == [
            (100.0, kmh_to_mps(-50.0), 2.0), (100.5, 0.0, 0.5)]

    def test_bad_grid(self):
        with pytest.raises(ScenarioError):
            Scenario(scheme="rtd", n_cp=500)

    @pytest.mark.parametrize("scheme", ["rtd", "fsi_random", "fsi_tail"])
    def test_frame_past_an_array_index_is_named(self, scheme):
        for size in HUGE_SIZES:
            with pytest.raises(ScenarioError, match=f"^{next(iter(size))} too large: "):
                Scenario(scheme=scheme, **size)
        # the largest k whose frame fits is left to allocation
        symbol = 2048 + 512 * (scheme != "rtd")
        k = np.iinfo(np.intp).max // 16 // symbol
        Scenario(scheme=scheme, k=k)
        with pytest.raises(ScenarioError, match="^k too large: "):
            Scenario(scheme=scheme, k=k + 1)

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
        from_lines = [os.path.basename(c.args[0]) for c in write.call_args_list
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

    @pytest.mark.parametrize("fields", [{**TAIL_SMALL, "peak_cleanup": True},
                                        {"scheme": "rtd", "k": 16, "n_fft": 256,
                                         "n_cp": 64, "scs_hz": 480e3}])
    def test_each_map_magnitude_computed_once(self, tmp_path, monkeypatch, fields):
        # detection, cleanup, scoring and the CSV writer all read the one
        # RdMatrix.magnitude of a map
        monkeypatch.setenv("JCAS_CACHE_DIR", str(tmp_path / "cache"))
        maps, calls, init, absolute = [], [], receiver.RdMatrix.__init__, np.abs

        def record(self, *args, **kwargs):
            init(self, *args, **kwargs)
            maps.append(self)

        def count(x, *args, **kwargs):
            calls.extend(i for i, m in enumerate(maps) if x is m.values)
            return absolute(x, *args, **kwargs)

        monkeypatch.setattr(receiver.RdMatrix, "__init__", record)
        monkeypatch.setattr(np, "abs", count)
        run_simulate(Scenario(**fields), tmp_path / "out")
        assert calls and sorted(calls) == sorted(set(calls))

    def test_probed_layers_are_called_through_their_modules(self, tmp_path,
                                                            monkeypatch):
        # perfbench times a layer by replacing its name in these modules; a
        # caller that bound the function directly would bypass it unseen.
        # Its tracer is single-threaded: every layer runs on the caller's
        # thread, and the background worker only runs numpy work inside
        # them (the noise fill, slices of the pattern build, half the solve).
        # A tail run senses each of its two windows in a call of its own.
        monkeypatch.setenv("JCAS_CACHE_DIR", str(tmp_path / "cache"))
        simulate = {(cli, "make_schedule"): 1, (cli, "assemble_frame"): 1,
                    (cli, "synthesize_rx"): 1, (cli, "write_rd_csv"): 5,
                    (cli, "write_rd_binary"): 5, (cli, "load_or_build_pattern"): 1,
                    (receiver, "build_pattern"): 1, (receiver, "assemble_frame"): 1,
                    (receiver, "process_sensing"): 2, (receiver, "peak_cleanup"): 2,
                    (receiver, "solve_windows"): 1, (detect, "find_peaks"): 3,
                    (detect, "evaluate"): 1}
        # calibrate validates while it builds: three cells, each summed alone
        # in both windows of an echo of the one zero-data frame, no map sensed
        calibrate = {(receiver, "build_pattern"): 1, (receiver, "assemble_frame"): 2,
                     (receiver, "validate_pattern"): 0,
                     (receiver, "process_sensing"): 0, (channel, "echo_component"): 3}
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
        # on the pattern simulate stored it does the same: it never reads
        invert = mock.Mock(wraps=receiver.invert_cells)
        monkeypatch.setattr(receiver, "invert_cells", invert)
        monkeypatch.setenv("JCAS_CACHE_DIR", str(tmp_path / "cache"))
        pat = cli.load_or_build_pattern(scn, schedule, validate=True)
        assert counts(calibrate) == calibrate
        assert invert.call_count == 2 and pat.validation_error is not None
        assert threads == {threading.get_ident()}

    @pytest.mark.parametrize("scn", PRESET_RUNS, ids=lambda s: s.tag or s.scheme)
    def test_frames_are_dropped_before_detection(self, tmp_path, monkeypatch, scn):
        # the channel writes rx over tx, and that one buffer lives until the
        # sensing call has returned: the peak cleanup, the 2x2 solve and
        # detection all run after it is gone
        monkeypatch.setenv("JCAS_CACHE_DIR", str(tmp_path / "cache"))
        frames, alive = {}, []
        synthesize, sense = cli.synthesize_rx, receiver.process_sensing

        def synthesize_rx(tx, *args, **kwargs):
            frames["tx"] = weakref.ref(tx)
            rx = synthesize(tx, *args, **kwargs)
            assert rx is tx
            frames["rx"] = weakref.ref(rx)
            return rx

        def process_sensing(rx, *args, **kwargs):
            assert rx is frames["rx"]()
            return sense(rx, *args, **kwargs)

        def after_sensing(mod, name):
            fn = getattr(mod, name)

            def call(*args, **kwargs):
                alive.append((name, {key: ref() is not None for key, ref in frames.items()}))
                return fn(*args, **kwargs)
            monkeypatch.setattr(mod, name, call)

        monkeypatch.setattr(cli, "synthesize_rx", synthesize_rx)
        monkeypatch.setattr(receiver, "process_sensing", process_sensing)
        for mod, name in ((receiver, "peak_cleanup"), (receiver, "solve_windows"),
                          (detect, "find_peaks")):
            after_sensing(mod, name)
        run_simulate(scn, tmp_path / "out")
        tail = ("solve_windows",) if scn.scheme == "fsi_tail" else ()
        assert {name for name, _ in alive} == \
            {"find_peaks", *tail, *("peak_cleanup",) * scn.peak_cleanup}
        assert [seen for _, seen in alive if any(seen.values())] == []

    def test_warm_run_interns_no_names(self, tmp_path, monkeypatch):
        # pathlib interns each name it parses: a file name made anew on every
        # run would spend a slot of the interpreter's interned-string table
        # each time, and the table regrows (~0.9 MB) a few hundred runs in
        monkeypatch.setenv("JCAS_CACHE_DIR", str(tmp_path / "cache"))
        scn = Scenario(**TAIL_SMALL, peak_cleanup=True)
        out = tmp_path / "out"
        run_simulate(scn, out)   # the pattern built and stored
        interned, intern = [], sys.intern
        monkeypatch.setattr(sys, "intern", lambda s: interned.append(s) or intern(s))
        run_simulate(scn, out)
        assert interned == []

    # The tracemalloc peak of a warm op, in frames of 16 G L bytes, measured
    # at 2.50-2.66: the noise draws, the frame the channel writes rx over
    # and the half-frame |tx|^2 of the noise level. It was 3.21 while rx was
    # a second frame beside tx (3.68 where fsi_tail read back the pattern
    # it had just stored), and 4.11-6.51 before each buffer was dropped
    # after its last read. The budget leaves a third of a frame of margin.
    FRAME_BUDGET = 3.0

    def test_warm_op_peak_memory_is_within_budget(self, tmp_path, monkeypatch):
        monkeypatch.setenv("JCAS_CACHE_DIR", str(tmp_path / "cache"))
        peaks = {}
        tracemalloc.start()
        try:
            for scn in PRESET_RUNS:
                run_simulate(scn, tmp_path)   # warm: the pattern built and stored
                base = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                report = run_simulate(scn, tmp_path)
                frame = 16 * report["grid_size"] * scn.waveform_config().l_occ
                peaks[scn.tag or scn.scheme] = \
                    (tracemalloc.get_traced_memory()[1] - base) / frame
        finally:
            tracemalloc.stop()
        assert {name: peak for name, peak in peaks.items()
                if peak > self.FRAME_BUDGET} == {}

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
        draw = mock.Mock(wraps=channel.add_noise)
        monkeypatch.setattr(channel, "add_noise", draw)
        small_scenario.noise_enabled = noise
        run_simulate(small_scenario, tmp_path)
        assert draw.call_count == noise

    def test_forked_child_draws_noise(self, tmp_path):
        # the child of a process whose background worker has started (the
        # parent's cold tail run builds its pattern beside it) runs the tail
        # scenario, noise and a pattern build on a cache of its own, and then
        # has a worker of its own: the parent's thread is not in the child,
        # and share takes back what no thread runs, so only a call waited on
        # would hang
        src = Path(cli.__file__).resolve().parents[1]
        code = ("import multiprocessing as mp, os, sys, threading\n"
                "from jcas import cli, util\n"
                f"scn = cli.Scenario(**{TAIL_SMALL!r})\n"
                "cli.run_simulate(scn, sys.argv[1])\n"
                "def child():\n"
                "    os.environ['JCAS_CACHE_DIR'] = sys.argv[2]\n"
                "    cli.run_simulate(scn, sys.argv[1])\n"
                "    assert len(os.listdir(sys.argv[2])) == 1\n"
                "    ident = util.background_worker().submit(threading.get_ident)\n"
                "    assert ident.result(30) != threading.get_ident()\n"
                "p = mp.get_context('fork').Process(target=child)\n"
                "p.start(); p.join(60)\n"
                "alive = p.is_alive(); p.kill()\n"
                "print(alive, p.exitcode)")
        proc = subprocess.run([sys.executable, "-c", code, str(tmp_path / "out"),
                               str(tmp_path / "child")],
                              capture_output=True, text=True, timeout=120,
                              env={**os.environ, "PYTHONPATH": str(src),
                                   "JCAS_CACHE_DIR": str(tmp_path / "parent")})
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["False", "0"], proc.stderr

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
        run_simulate(scn, tmp_path / "out")
        path = cli.pattern_path(scn)
        st, p = path.stat(), path.read_bytes()
        run_simulate(scn, tmp_path / "out")   # hit: no rebuild
        assert path.stat().st_mtime_ns == st.st_mtime_ns
        assert cli.run_calibrate(scn)["pattern_path"] == path   # replaces the file
        assert path.stat().st_ino != st.st_ino and path.read_bytes() == p
        path2 = cli.run_calibrate(Scenario(**{**TAIL_SMALL, "k": 12}))["pattern_path"]
        assert path2 != path

    def test_truncated_cache_is_rebuilt(self, tmp_path, monkeypatch):
        monkeypatch.setenv("JCAS_CACHE_DIR", str(tmp_path / "cache"))
        scn = Scenario(**TAIL_SMALL)
        path = cli.run_calibrate(scn)["pattern_path"]
        with np.load(path) as z:
            p = z["p"]
        path.write_bytes(path.read_bytes()[:1000])
        run_simulate(scn, tmp_path / "out")
        with np.load(path) as z:
            np.testing.assert_array_equal(z["p"], p)
        assert [f.name for f in path.parent.iterdir()] == [path.name]

    @staticmethod
    def _calibrate_over(tmp_path, monkeypatch, capsys, state):
        # calibrate never reads the cache: whatever file it holds, even one
        # that a 3-cell check would pass (swapped_row), is replaced by a fresh
        # build, and the next run reads that
        scn = Scenario(**TAIL_SMALL)
        schedule = cli.make_schedule(scn.scheme_enum, scn.m_codes, scn.k, seed=scn.seed)
        fresh = receiver.build_pattern(scn.waveform_config(), schedule, scn.n_guard,
                                       validate=True)
        monkeypatch.setenv("JCAS_CACHE_DIR", str(tmp_path / "clean"))
        run_simulate(scn, tmp_path / "want")
        monkeypatch.setenv("JCAS_CACHE_DIR", str(tmp_path / "cache"))
        path = cli.pattern_path(scn)
        if state != "no_file":
            for _ in range(2):   # stored, then memoized
                run_simulate(scn, tmp_path / "got")
        p = fresh.p.copy()
        if state == "truncated":
            path.write_bytes(path.read_bytes()[:1000])
        elif state == "nan_p":
            p[1, 0, 0, 0] = np.nan
            np.savez(path, p=p, validation_error=np.nan)
        elif state == "doubled_p":   # a file that claims to have passed
            np.savez(path, p=2 * p, validation_error=0.0)
        elif state == "swapped_row":
            p[len(p) // 2] = p[len(p) // 2, ..., ::-1]
            np.savez(path, p=p)
        scn_file = tmp_path / "tail.json"
        scn_file.write_text(json.dumps(TAIL_SMALL))
        capsys.readouterr()
        assert cli.main(["calibrate", str(scn_file)]) == 0
        assert f"validation error: {fresh.validation_error}\n" in capsys.readouterr().out
        with np.load(path) as z:
            assert z.files == ["p"] and z["p"].tobytes() == fresh.p.tobytes()
        run_simulate(scn, tmp_path / "got")
        _assert_same_outputs(tmp_path / "want", tmp_path / "got")

    @pytest.mark.parametrize("state", ["no_file", "truncated", "nan_p", "doubled_p",
                                       "swapped_row"])
    def test_calibrate_builds_afresh(self, tmp_path, monkeypatch, capsys, state):
        self._calibrate_over(tmp_path, monkeypatch, capsys, state)

    def test_calibrate_validates_a_pattern_cached_by_simulate(
            self, tmp_path, monkeypatch, capsys):
        # simulate caches the pattern unvalidated; calibrate must not just
        # hand that back
        self._calibrate_over(tmp_path, monkeypatch, capsys, "simulated")

    @pytest.mark.parametrize("damage", ["half_band_p", "no_p", "real_p"])
    def test_misfit_cache_is_rebuilt(self, tmp_path, monkeypatch, damage):
        monkeypatch.setenv("JCAS_CACHE_DIR", str(tmp_path / "cache"))
        scn_file = tmp_path / "tail.json"
        scn_file.write_text(json.dumps(TAIL_SMALL))
        path = cli.run_calibrate(Scenario(**TAIL_SMALL))["pattern_path"]
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

    @pytest.mark.parametrize("verb", ["simulate", "calibrate"])
    def test_file_holds_p_only(self, tmp_path, monkeypatch, verb):
        monkeypatch.setenv("JCAS_CACHE_DIR", str(tmp_path / "cache"))
        scn = Scenario(**TAIL_SMALL)
        if verb == "simulate":
            run_simulate(scn, tmp_path / "out")
        else:
            cli.run_calibrate(scn)
        with np.load(cli.pattern_path(scn)) as z:
            assert z.files == ["p"]

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
        _assert_same_outputs(*out.values())

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
    """The last pattern loaded, or built and stored without validation,
    stays in memory while its file is unchanged."""

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
        assert loads == []   # the built pattern is the memory entry
        assert reports[0]["detections"] == reports[2]["detections"]

    def test_replaced_file_is_reloaded(self, tmp_path, loads):
        scn = Scenario(**TAIL_SMALL)
        self._pattern(scn)
        pat = self._pattern(scn)
        path = cli.pattern_path(scn)
        tmp = path.with_suffix(".new.npz")
        np.savez(tmp, p=2 * pat.p)
        os.replace(tmp, path)
        again = self._pattern(scn)
        assert len(loads) == 1
        np.testing.assert_array_equal(again.p, 2 * pat.p)

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

    def test_loaded_pattern_is_the_built_one(self, tmp_path, loads, monkeypatch):
        scn = Scenario(**TAIL_SMALL)
        built = self._pattern(scn)
        monkeypatch.setattr(cache, "_pattern_memo", None)   # as a new process
        loaded = self._pattern(scn)
        assert len(loads) == 1
        for name in ("p", "p_sol", "resolvable"):
            assert getattr(loaded, name).tobytes() == getattr(built, name).tobytes()
        assert loaded.n_guard == built.n_guard

    def test_memoized_arrays_are_read_only(self, tmp_path, loads, monkeypatch):
        scn = Scenario(**TAIL_SMALL)
        built = self._pattern(scn)
        hit = self._pattern(scn)
        monkeypatch.setattr(cache, "_pattern_memo", None)
        loaded = self._pattern(scn)
        assert len(loads) == 1
        for pat in (built, hit, loaded, self._pattern(scn)):
            for a in (pat.p, pat.p_sol, pat.resolvable):
                with pytest.raises(ValueError):
                    a[0, 0] = 1
        hit.validation_error = 7.0   # the fields stay per call
        assert self._pattern(scn).validation_error is None
        assert len(loads) == 1

    def test_built_pattern_is_kept_until_its_file_changes(self, tmp_path, loads):
        scn = Scenario(**TAIL_SMALL)
        built = self._pattern(scn)
        hit = self._pattern(scn)
        assert loads == []   # neither read back nor solved again
        assert hit is not built and all(getattr(hit, a) is getattr(built, a)
                                        for a in ("p", "p_sol", "resolvable"))
        path = cli.pattern_path(scn)
        with np.load(path) as z:   # the entry is what the file holds
            assert z["p"].tobytes() == built.p.tobytes()
        loads.clear()
        tmp = path.with_suffix(".new.npz")
        np.savez(tmp, p=3 * built.p)   # rewritten as the cache writes: renamed over it
        os.replace(tmp, path)
        again = self._pattern(scn)
        assert len(loads) == 1
        np.testing.assert_array_equal(again.p, 3 * built.p)
        # calibrate builds its own writable pattern and keeps none
        schedule = cli.make_schedule(scn.scheme_enum, scn.m_codes, scn.k, seed=scn.seed)
        own = cli.load_or_build_pattern(scn, schedule, validate=True)
        assert all(a.flags.writeable for a in (own.p, own.p_sol, own.resolvable))
        assert cache._pattern_memo is None

    def test_calibrate_after_simulate_validates(self, tmp_path, loads, capsys):
        scn = Scenario(**TAIL_SMALL)
        run_simulate(scn, tmp_path / "out")
        run_simulate(scn, tmp_path / "out")   # memoizes the unvalidated file
        cli.run_calibrate(scn)
        (line,) = [s for s in capsys.readouterr().out.splitlines()
                   if s.startswith("validation error: ")]
        assert float(line.split(": ")[1]) <= 1e-6
        assert loads == []   # calibrate builds; it neither loads nor uses the memo
        assert cache._pattern_memo is None
        schedule = cli.make_schedule(scn.scheme_enum, scn.m_codes, scn.k, seed=scn.seed)
        fresh = receiver.build_pattern(scn.waveform_config(), schedule, scn.n_guard,
                                       validate=True)
        assert self._pattern(scn).p.tobytes() == fresh.p.tobytes()
        assert len(loads) == 1   # the file calibrate stored


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

    def test_calibrate_with_flagged_bins_exits_3(self, tmp_path, capsys):
        scn_file = tmp_path / "tail.json"
        scn_file.write_text(json.dumps(DEGENERATE_TAILS[3]))   # M 2, N_CP 0
        for verb in ("simulate", "calibrate"):
            assert cli.main(["--out-dir", str(tmp_path / "out"), verb,
                             str(scn_file)]) == 3
        assert "unresolvable bins: 6\n" in capsys.readouterr().out

    @pytest.mark.parametrize("scn", DEGENERATE_TAILS,
                             ids=lambda d: "m{m_codes}_n{n_fft}_cp{n_cp}_k{k}".format(**d))
    def test_degenerate_tail_grids_keep_the_exit_contract(self, tmp_path, capsys, scn):
        # the pattern's self-checks scale with the unit calibration echo: a
        # response that cancels to zero in both symbols passes them
        scn_file = tmp_path / "tail.json"
        scn_file.write_text(json.dumps(scn))
        for verb in ("simulate", "calibrate"):
            assert cli.main(["--out-dir", str(tmp_path / "out"), verb,
                             str(scn_file)]) in (0, 3)
        assert capsys.readouterr().err == ""

    def test_close_targets_survive_a_wide_cleanup(self, tmp_path):
        # 3 range bins apart, within each other's cleanup radius: the union
        # of the neighborhoods is zeroed and both peak cells kept
        scn = Scenario(scheme="fsi_tail", peak_cleanup=True, cleanup_radius=3,
                       targets=[{"range_m": 400.390625, "velocity_kmh": 100.0},
                                {"range_m": 404.052734375, "velocity_kmh": 100.0}])
        ev = run_simulate(scn, tmp_path)["evaluation"]["combined"]
        assert len(ev["matched"]) == 2
        assert ev["misses"] == [] and ev["false_alarms"] == []

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
        {"targets": [{"range_m": "100", "velocity_kmh": 0}]},
        {"targets": [{"range_m": True, "velocity_kmh": 0}]},
        {"targets": [{"range_m": 10, "velocity_kmh": 0, "amplitude": "2"}]},
        {"targets": [{"range_m": 10, "velocity_kmh": float("nan")}]},
        {"targets": [{"range_m": 10 ** 400, "velocity_kmh": 0}]},
        *[{"scheme": scheme, **size} for scheme in ("rtd", "fsi_random", "fsi_tail")
          for size in HUGE_SIZES],
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

    @pytest.mark.parametrize("threads", ["1", "2"])
    @pytest.mark.parametrize("below", [False, True], ids=["a_file", "below_a_file"])
    def test_unusable_out_dir_exits_2(self, tmp_path, capsys, small_scenario,
                                      threads, below):
        scn_file = tmp_path / "scn.json"
        scn_file.write_text(json.dumps(small_scenario.to_dict()))
        (tmp_path / "file").write_text("")
        out, reason = (tmp_path / "file" / "sub", "Not a directory") if below \
            else (tmp_path / "file", "File exists")
        for verb in (["simulate", str(scn_file)], ["preset", "fig6"]):
            assert cli.main(["--threads", threads, "--out-dir", str(out), *verb]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"output error: cannot write {out}: {reason}\n"
        assert sorted(f.name for f in tmp_path.iterdir()) == ["file", "scn.json"]
        assert (tmp_path / "file").read_text() == ""

    def test_seed_flag_is_validated(self, tmp_path, small_scenario):
        scn_file = tmp_path / "scn.json"
        scn_file.write_text(json.dumps(small_scenario.to_dict()))
        assert cli.main(["--seed", "-1", "simulate", str(scn_file)]) == 2

    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_threads_flag_is_validated(self, tmp_path, capsys, threads):
        assert cli.main(["--out-dir", str(tmp_path), "--threads", threads,
                         "preset", "fig6"]) == 2
        assert capsys.readouterr().err == "scenario error: --threads must be >= 1\n"
        assert list(tmp_path.iterdir()) == []

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

    def test_entry_point_huge_k_exit_2(self, tmp_path):
        # a k past a C long raised OverflowError or ValueError from the run
        scn_file = tmp_path / "huge.json"
        scn_file.write_text(json.dumps({"scheme": "rtd", "k": 2**63}))
        src = Path(cli.__file__).resolve().parents[1]
        proc = subprocess.run([sys.executable, "-m", "jcas.cli", "simulate",
                               str(scn_file)], capture_output=True, text=True,
                              cwd=tmp_path, env={**os.environ, "PYTHONPATH": str(src)},
                              timeout=120)
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("scenario error: k too large: ")

    def test_entry_point_unusable_out_dir_exit_2(self, tmp_path):
        (tmp_path / "file").write_text("")
        src = Path(cli.__file__).resolve().parents[1]
        proc = subprocess.run([sys.executable, "-m", "jcas.cli", "--out-dir",
                               "file/sub", "preset", "fig7"], capture_output=True,
                              text=True, cwd=tmp_path, timeout=120,
                              env={**os.environ, "PYTHONPATH": str(src)})
        assert proc.returncode == 2
        assert proc.stderr == "output error: cannot write file/sub: Not a directory\n"

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

    def test_fig6_runs_leave_numpy_ma_out(self, tmp_path):
        # a fresh interpreter: numpy.ma costs an import of ~16 ms and 1.4 MB
        # (np.unique loads it), and no jcas path needs it
        src = Path(cli.__file__).resolve().parents[1]
        code = ("import sys; from jcas import cli\n"
                "for scn in cli.preset_scenarios('fig6', seed=3):\n"
                "    cli.run_simulate(scn, sys.argv[1])\n"
                "print(sorted(m for m in sys.modules if m.split('.')[:2] == ['numpy', 'ma']))")
        proc = subprocess.run([sys.executable, "-c", code, str(tmp_path)],
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
                            "MALLOC_MMAP_THRESHOLD_", "MALLOC_ARENA_MAX")}
        code = ("import resource, sys; from jcas import cli\n"
                "scn = cli.Scenario(scheme='sensing_only', "
                "targets=[{'range_m': 200.0, 'velocity_kmh': 0.0}])\n"
                "for _ in range(3):\n"
                "    f0 = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
                "    cli.run_simulate(scn, sys.argv[1])\n"
                "    print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - f0)")
        proc = subprocess.run([sys.executable, "-c", code, str(tmp_path)],
                              capture_output=True, text=True, timeout=120,
                              env={**env, "PYTHONPATH": str(src)})
        assert proc.returncode == 0, proc.stderr
        faults = [int(line) for line in proc.stdout.split()]
        # glibc's adaptive defaults fault ~5,400 pages back in on every run
        assert faults[2] < 500, f"minor faults of the three runs: {faults}"

    @pytest.mark.skipif(not (os.confstr("CS_GNU_LIBC_VERSION") or "").startswith("glibc"),
                        reason="heap thresholds are set on glibc only")
    def test_library_import_reuses_freed_heap(self):
        # the thresholds are set by importing any jcas module, not the CLI alone
        src = Path(cli.__file__).resolve().parents[1]
        env = {k: v for k, v in os.environ.items()
               if k not in ("GLIBC_TUNABLES", "MALLOC_TRIM_THRESHOLD_",
                            "MALLOC_MMAP_THRESHOLD_", "MALLOC_ARENA_MAX")}
        code = ("import resource, sys; from jcas import receiver\n"
                "assert 'jcas.cli' not in sys.modules\n"
                "cfg = receiver.WaveformConfig()\n"
                "sched = receiver.make_schedule(receiver.Scheme.FSI_TAIL, cfg.m_codes, 64)\n"
                "for _ in range(3):\n"
                "    f0 = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
                "    receiver.build_pattern(cfg, sched)\n"
                "    print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - f0)")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, timeout=120, env={**env, "PYTHONPATH": str(src)})
        assert proc.returncode == 0, proc.stderr
        faults = [int(line) for line in proc.stdout.split()]
        # glibc's adaptive defaults fault ~1,400 pages back in on every fig7 build
        assert faults[2] < 200, f"minor faults of the three builds: {faults}"

    @pytest.mark.skipif(not (os.confstr("CS_GNU_LIBC_VERSION") or "").startswith("glibc"),
                        reason="the arena limit is set on glibc only")
    def test_both_threads_allocate_from_one_heap(self, tmp_path):
        # a fresh interpreter: a tail run with cleanup builds its pattern cold,
        # slices of it on the background worker, whose allocations glibc would
        # otherwise serve from a second arena that the caller never reuses
        src = Path(cli.__file__).resolve().parents[1]
        env = {k: v for k, v in os.environ.items()
               if k not in ("GLIBC_TUNABLES", "MALLOC_TRIM_THRESHOLD_",
                            "MALLOC_MMAP_THRESHOLD_", "MALLOC_ARENA_MAX")}
        code = ("import ctypes, sys; from jcas import cli\n"
                f"cli.run_simulate(cli.Scenario(**{TAIL_SMALL!r}, peak_cleanup=True), "
                "sys.argv[1])\n"
                "libc = ctypes.CDLL(None)\n"
                "libc.fopen.restype = ctypes.c_void_p\n"
                "libc.fopen.argtypes = ctypes.c_char_p, ctypes.c_char_p\n"
                "libc.malloc_info.argtypes = ctypes.c_int, ctypes.c_void_p\n"
                "libc.fclose.argtypes = ctypes.c_void_p,\n"
                "f = libc.fopen(sys.argv[2].encode(), b'w')\n"
                "assert f and libc.malloc_info(0, f) == 0\n"
                "libc.fclose(f)")
        info = tmp_path / "malloc_info.xml"
        proc = subprocess.run([sys.executable, "-c", code, str(tmp_path / "out"), str(info)],
                              capture_output=True, text=True, timeout=120,
                              env={**env, "PYTHONPATH": str(src),
                                   "JCAS_CACHE_DIR": str(tmp_path / "cache")})
        assert proc.returncode == 0, proc.stderr
        assert len(re.findall(r"<heap nr=", info.read_text())) == 1

    @settings(max_examples=100, deadline=None)
    @given(st.builds(lambda grid, rest: {**grid, **rest}, _grids(), st.fixed_dictionaries(
        {}, optional={name: f for name, f in MOSTLY_VALID.items() if name not in GRID})))
    @example(DEGENERATE_TAILS[2])
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

    def test_selftest_fault_injection(self, capsys, monkeypatch):
        real = selftest.make_code_matrix

        def skewed(m):
            u = real(m)
            u[0, 0] += 1e-3
            return u
        monkeypatch.setattr(selftest, "make_code_matrix", skewed)
        assert cli.main(["selftest"]) == 1
        out = capsys.readouterr().out
        assert "FAIL code-unitarity" in out
