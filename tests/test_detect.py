from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.ndimage import maximum_filter

from jcas import Target, cli, detect, evaluate, find_peaks
from jcas.detect import Detection, truth_cell
from jcas.receiver import RdMatrix
from jcas.util import mps_to_kmh


def rd_with(cfg, cells, n_dop=320, grid=320):
    vals = np.zeros((cfg.l_occ, n_dop), dtype=complex)
    for (d, c), v in cells.items():
        vals[d, c % n_dop] = v
    return RdMatrix(values=vals, grid_size=grid, cfg=cfg)


class TestFindPeaks:
    def test_single_cell(self, cfg):
        rd = rd_with(cfg, {(100, 40): 2.0})
        dets = find_peaks(rd)
        assert len(dets) == 1
        assert dets[0].cell == (100, 40)
        assert dets[0].normalized_power == 1.0

    def test_two_equal_peaks_tie_order(self, cfg):
        rd = rd_with(cfg, {(200, 10): 1.0, (50, 30): 1.0})
        dets = find_peaks(rd)
        assert [d.cell for d in dets] == [(50, 30), (200, 10)]

    def test_threshold_filters(self, cfg):
        rd = rd_with(cfg, {(10, 0): 1.0, (100, 50): 0.1})  # power 0.01 < 0.05
        dets = find_peaks(rd, rel_threshold=0.05)
        assert len(dets) == 1

    def test_guard_suppresses_shoulders(self, cfg):
        rd = rd_with(cfg, {(10, 0): 1.0, (11, 0): 0.9, (10, 1): 0.8})
        dets = find_peaks(rd, guard=2)
        assert len(dets) == 1 and dets[0].cell == (10, 0)

    def test_scaling_invariance(self, cfg):
        cells = {(10, 0): 1.0, (100, 50): 0.5}
        a = find_peaks(rd_with(cfg, cells))
        b = find_peaks(rd_with(cfg, {k: 7.3 * v for k, v in cells.items()}))
        assert [(d.cell, round(d.normalized_power, 12)) for d in a] == \
               [(d.cell, round(d.normalized_power, 12)) for d in b]

    def test_doppler_wraps_in_neighborhood(self, cfg):
        rd = rd_with(cfg, {(10, 319): 1.0, (10, 0): 0.9})
        dets = find_peaks(rd, guard=2)
        assert len(dets) == 1

    def test_max_peaks(self, cfg):
        rd = rd_with(cfg, {(10, 0): 1.0, (100, 50): 0.9, (200, 80): 0.8})
        assert len(find_peaks(rd, max_peaks=2)) == 2

    @pytest.mark.parametrize("bad", [{"rel_threshold": 0}, {"max_peaks": 0},
                                     {"max_peaks": -1}, {"guard": -1}])
    def test_out_of_range_arguments_rejected(self, cfg, bad):
        with pytest.raises(ValueError):
            find_peaks(rd_with(cfg, {(10, 0): 1.0}), **bad)

    def test_empty_matrix_rejected(self, cfg):
        rd = RdMatrix(values=np.zeros((0, 0), dtype=complex), grid_size=320,
                      cfg=cfg)
        with pytest.raises(ValueError):
            find_peaks(rd)


def peaks_oracle(rd, rel_threshold=0.05, max_peaks=None, guard=2):
    """find_peaks as a full-map maximum filter and one Detection per peak,
    read off RdMatrix's axis methods, strongest first."""
    power = np.abs(rd.values) ** 2
    peak_max = power.max()
    if peak_max == 0:
        return []
    local_max = power >= maximum_filter(power, size=2 * guard + 1,
                                        mode=("nearest", "wrap"))
    hits = np.argwhere(local_max & (power >= rel_threshold * peak_max))
    dets = [Detection(range_m=rd.range_m_of(int(d)),
                      velocity_kmh=mps_to_kmh(rd.velocity_mps_of(int(c))),
                      normalized_power=float(power[d, c] / peak_max),
                      cell=(int(d), int(c)), range_bin=int(d),
                      doppler_bin=rd.signed_bin(int(c)))
            for d, c in hits]
    dets.sort(key=lambda p: (-p.normalized_power, p.range_bin, p.doppler_bin))
    return dets[:max_peaks]


# small integer levels give ties and flat stretches; a few large cells
# give a strong peak and a sparse candidate set
MAP_CELLS = st.one_of(st.integers(0, 3).map(float),
                      st.sampled_from([0.0, 0.5, 1.0, 10.0]),
                      st.floats(0, 1))


class TestFindPeaksOracle:
    @settings(max_examples=400, deadline=None)
    @given(values=arrays(float, st.tuples(st.integers(1, 9), st.integers(1, 9)),
                         elements=MAP_CELLS),
           rel_threshold=st.floats(0.001, 0.999),
           max_peaks=st.one_of(st.none(), st.integers(1, 4)),
           guard=st.integers(0, 12), block=st.sampled_from([1, 7, 1 << 16]))
    @example(values=np.ones((3, 4)), rel_threshold=0.5, max_peaks=None,
             guard=0, block=1 << 16)                       # flat map, no guard
    @example(values=np.ones((1, 6)), rel_threshold=0.5, max_peaks=2,
             guard=2, block=1 << 16)                       # 1 x N
    @example(values=np.arange(5.0)[:, None], rel_threshold=0.01, max_peaks=None,
             guard=9, block=1)                             # N x 1, guard > map
    def test_matches_the_maximum_filter(self, cfg, values, rel_threshold,
                                        max_peaks, guard, block):
        rd = RdMatrix(values=values.astype(complex), grid_size=320, cfg=cfg)
        with mock.patch.object(detect, "PEAK_BLOCK_CELLS", block):
            got = find_peaks(rd, rel_threshold, max_peaks, guard)
        assert got == peaks_oracle(rd, rel_threshold, max_peaks, guard)

    def test_dense_candidates_take_the_whole_map_pass(self, cfg, rng):
        # a noise map at a low threshold: most cells pass, and the
        # separable passes run instead of per-cell gathers
        values = rng.normal(size=(64, 40)) + 1j * rng.normal(size=(64, 40))
        rd = RdMatrix(values=values, grid_size=40, cfg=cfg)
        for guard in (1, 2, 19, 20, 70):
            got = find_peaks(rd, 0.01, None, guard)
            assert got == peaks_oracle(rd, 0.01, None, guard)

    @pytest.mark.parametrize("shape", [(512, 320),    # a full map
                                       (1024, 64)])   # the tail solve's band map
    def test_noise_only_maps(self, cfg, shape):
        # thousands of local maxima, each with its own range and velocity
        rng = np.random.default_rng(2026)
        values = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        rd = RdMatrix(values=values, grid_size=320, cfg=cfg)
        want = peaks_oracle(rd)
        assert len(want) > 1000
        assert find_peaks(rd) == want
        assert find_peaks(rd, max_peaks=3) == want[:3]

    def test_preset_maps(self, tmp_path):
        # every map the presets detect on, at the presets' own arguments
        calls = []
        real = detect.find_peaks

        def spy(rd, *args):
            calls.append((rd, args))
            return real(rd, *args)

        with mock.patch.object(detect, "find_peaks", spy):
            for name in ("fig6", "fig7", "fig7_offgrid"):
                cli.run_preset(name, tmp_path)
        assert len(calls) == 4 + 1 + 3
        for rd, args in calls:
            assert real(rd, *args) == peaks_oracle(rd, *args)


def physical(cfg, cell, n_dop=320, n_rows=1):
    """(range in m, velocity in km/h) of a cell, read off RdMatrix's axes."""
    d, c = cell
    rd = RdMatrix(values=np.zeros((n_rows, n_dop), dtype=complex),
                  grid_size=320, cfg=cfg)
    return rd.range_m_of(d), mps_to_kmh(rd.velocity_mps_of(c))


class TestCellToPhysical:
    def test_origin(self, cfg):
        assert physical(cfg, (0, 0)) == (0.0, 0.0)

    def test_range_bin_164(self, cfg):
        r, _ = physical(cfg, (164, 0))
        assert abs(r - 164 * 1.220703125) < 1e-9
        assert abs(r - 200.2) < 0.05

    def test_band_edge_velocity(self, cfg):
        # +-G/2 maps to +-1080 km/h at the defaults
        _, v = physical(cfg, (0, 160))
        assert abs(abs(v) - 1080.0) < 1e-6

    def test_negative_bin_wraps(self, cfg):
        _, v = physical(cfg, (0, 319))
        _, v1 = physical(cfg, (0, 1))
        assert abs(v + v1) < 1e-9

    def test_far_offset(self, cfg):
        # far rows of the solved 2L-bin map are global range bins L + d
        r, _ = physical(cfg, (512 + 100, 0), n_rows=2 * 512)
        assert abs(r - (100 + 512) * 1.220703125) < 1e-9

    def test_banded_doppler(self, cfg):
        # a band-restricted map keeps the full grid's bin width
        _, v = physical(cfg, (0, 63), n_dop=64)
        _, v_full = physical(cfg, (0, 319))
        assert abs(v - v_full) < 1e-9


class TestEvaluate:
    def test_exact_match(self, cfg):
        truth = [Target(200.0, -250 / 3.6), Target(400.0, 500 / 3.6)]
        cells = {truth_cell(t, cfg, 320) for t in truth}
        rd = rd_with(cfg, {(d, nu % 320): 1.0 for d, nu in cells})
        dets = find_peaks(rd)
        rep = evaluate(dets, truth, cfg, 320)
        assert len(rep.matched) == 2
        assert rep.misses == [] and rep.false_alarms == []

    def test_empty_detections_all_miss(self, cfg):
        rep = evaluate([], [Target(100.0, 10.0)], cfg, 320)
        assert rep.misses == [0]

    def test_tolerance_boundary(self, cfg):
        truth = [Target(200.0, 0.0)]   # cell (164, 0)
        rd = rd_with(cfg, {(166, 0): 1.0})
        dets = find_peaks(rd)
        rep = evaluate(dets, truth, cfg, 320, tol_bins=(1, 1))
        assert rep.misses == [0] and len(rep.false_alarms) == 1
        rep2 = evaluate(dets, truth, cfg, 320, tol_bins=(2, 1))
        assert rep2.matched and not rep2.misses

    def test_peak_to_interference(self, cfg):
        truth = [Target(200.0, 0.0)]
        rd = rd_with(cfg, {(164, 0): 1.0, (300, 100): 0.1})
        dets = find_peaks(rd, rel_threshold=0.001)
        rep = evaluate(dets, truth, cfg, 320, rd=rd)
        assert abs(rep.peak_to_interference_db - 20.0) < 1e-9

    def test_greedy_matches_strongest_first(self, cfg):
        truth = [Target(200.0, 0.0)]
        rd = rd_with(cfg, {(164, 0): 1.0, (165, 0): 0.5})
        dets = find_peaks(rd, guard=0)
        rep = evaluate(dets, truth, cfg, 320)
        assert rep.matched[0]["detection"]["cell"] == [164, 0]
        assert len(rep.false_alarms) == 1
        assert rep.peak_to_interference_db is None   # needs the map
