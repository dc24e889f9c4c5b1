from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.ndimage import maximum_filter

from jcas import Target, cli, detect, evaluate, find_peaks, receiver
from jcas.detect import TOL_BINS, Detection
from jcas.receiver import RdMatrix, signed_bin
from jcas.scheduler import Scheme, grid_size, make_schedule, unambiguous_band
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
                      doppler_bin=signed_bin(int(c), rd.n_doppler))
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
        with mock.patch.object(receiver, "NEIGHBORHOOD_BLOCK_CELLS", block):
            got = find_peaks(rd, rel_threshold, max_peaks, guard)
        assert got == peaks_oracle(rd, rel_threshold, max_peaks, guard)

    def test_dense_candidates_match_the_oracle(self, cfg, rng):
        # a noise map at a low threshold: most cells pass, their
        # neighborhoods gathered a block at a time, the guards reaching from
        # one cell to past the map's rows and columns
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
        cells = {rd_with(cfg, {}).truth_cell(t) for t in truth}
        rd = rd_with(cfg, {(d, nu % 320): 1.0 for d, nu in cells})
        dets = find_peaks(rd)
        rep = evaluate(dets, truth, rd)
        assert len(rep.matched) == 2
        assert rep.misses == [] and rep.false_alarms == []

    def test_empty_detections_all_miss(self, cfg):
        rep = evaluate([], [Target(100.0, 10.0)], rd_with(cfg, {}))
        assert rep.misses == [0]

    def test_tolerance_boundary(self, cfg):
        truth = [Target(200.0, 0.0)]   # cell (164, 0)
        assert TOL_BINS == (1, 1)
        for cell, hit in (((165, 1), True), ((166, 0), False),
                          ((164, 2), False), ((165, 319), True)):
            rd = rd_with(cfg, {cell: 1.0})
            rep = evaluate(find_peaks(rd), truth, rd)
            assert (rep.misses, len(rep.false_alarms)) == \
                (([], 0) if hit else ([0], 1))

    def test_peak_to_interference(self, cfg):
        truth = [Target(200.0, 0.0)]
        rd = rd_with(cfg, {(164, 0): 1.0, (300, 100): 0.1})
        dets = find_peaks(rd, rel_threshold=0.001)
        rep = evaluate(dets, truth, rd)
        assert abs(rep.peak_to_interference_db - 20.0) < 1e-9

    def test_greedy_matches_strongest_first(self, cfg):
        truth = [Target(200.0, 0.0)]
        rd = rd_with(cfg, {(164, 0): 1.0, (165, 0): 0.5})
        dets = find_peaks(rd, guard=0)
        rep = evaluate(dets, truth, rd)
        assert rep.matched[0]["detection"]["cell"] == [164, 0]
        assert len(rep.false_alarms) == 1
        assert rep.peak_to_interference_db is None   # nothing outside the truth


def target_at(rd, d, nu):
    """A target whose truth_cell on rd is (d, nu)."""
    cfg = rd.cfg
    return Target(rd.range_m_of(d),
                  cfg.doppler_hz(nu, rd.grid_size) * cfg.wavelength_m / 2)


def detection_at(rd, d, c):
    power = np.abs(rd.values) ** 2
    return Detection(range_m=rd.range_m_of(d),
                     velocity_kmh=mps_to_kmh(rd.velocity_mps_of(c)),
                     normalized_power=float(power[d, c] / power.max()),
                     cell=(d, c), range_bin=d,
                     doppler_bin=signed_bin(c, rd.n_doppler))


class TestNearTruthRule:
    def test_truth_far_past_the_map_is_near_no_cell(self, cfg):
        values = np.zeros((4, 8), dtype=complex)
        values[1, 2] = 1.0
        rd = RdMatrix(values=values, grid_size=8, cfg=cfg)
        far = Target(1e300, 0.0)   # its range bin fits no integer array
        assert not rd.truth_neighborhood([rd.truth_cell(far)], *TOL_BINS)[2].any()
        rep = evaluate([detection_at(rd, 1, 2)], [target_at(rd, 1, 2), far], rd)
        assert rep.misses == [1] and rep.peak_to_interference_db is None

    @settings(max_examples=150, deadline=None)
    @given(rows=st.integers(1, 5), n_doppler=st.integers(1, 10),
           fold=st.integers(1, 4),
           truths=st.lists(st.tuples(st.integers(0, 6), st.integers(-45, 45)),
                           min_size=1, max_size=3),
           dets=st.lists(st.tuples(st.integers(0, 4), st.integers(0, 9)),
                         max_size=4),
           hot=st.tuples(st.integers(0, 4), st.integers(0, 9)),
           seed=st.integers(0, 2 ** 32 - 1))
    # an in-band truth at the band's upper edge: neighborhood's column 4
    # wraps to signed bin -4, the opposite edge, 7 bins away on the grid
    @example(rows=3, n_doppler=8, fold=4, truths=[(1, 3)], dets=[(1, 3)],
             hot=(1, 4), seed=0)
    def test_mask_is_what_matching_accepts(self, cfg, rows, n_doppler, fold,
                                           truths, dets, hot, seed):
        """On full (fold 1) and band maps, a cell is near a truth iff
        matching accepts a detection there, and peak-to-interference reads
        the cells that matching rejects for every truth."""
        rng = np.random.default_rng(seed)
        values = rng.normal(size=(rows, n_doppler)) + 0j
        values[hot[0] % rows, hot[1] % n_doppler] *= 100
        rd = RdMatrix(values=values, grid_size=n_doppler * fold, cfg=cfg)
        targets = [target_at(rd, d, nu) for d, nu in truths]
        assert [rd.truth_cell(t) for t in targets] == truths
        accepts = np.zeros((len(truths),) + values.shape, dtype=bool)
        rows_i, cols_i, near_i = rd.truth_neighborhood(truths, *TOL_BINS)
        for i, t in enumerate(targets):
            near = np.zeros(values.shape, dtype=bool)
            near[rows_i[i][near_i[i]], cols_i[i][near_i[i]]] = True
            for d, c in np.ndindex(values.shape):
                accepts[i, d, c] = bool(evaluate([detection_at(rd, d, c)],
                                                 [t], rd).matched)
            np.testing.assert_array_equal(near, accepts[i])

        found = [detection_at(rd, d % rows, c % n_doppler) for d, c in dets]
        rep = evaluate(found, targets, rd)
        power = np.abs(values) ** 2
        interference = power[~accepts.any(axis=0)].max(initial=0.0)
        if not rep.matched or interference == 0:
            assert rep.peak_to_interference_db is None
        else:
            peak = min(power[accepts[m["truth_index"]]].max()
                       for m in rep.matched)
            assert rep.peak_to_interference_db == \
                float(10 * np.log10(peak / interference))


class TestSingleTargetOracle:
    """One on-grid target on a preset grid, SI on and noise off: each scheme
    finds it. The false alarms are not asserted; they are the tail ghosts and
    sidelobes that CLEAN is to remove."""

    # The rows a target is drawn in: all of the map's range rows (2L for
    # fsi_tail), but for two schemes only those whose echo overlaps at least
    # a quarter of its window. A periodic_td occasion is followed by data
    # slots, which cut an echo at delay d to L - d samples: its range peak
    # widens past the tolerance, and targets from d 462 (of L 512) on were
    # missed. fsi_random missed targets from d 509 on.
    ROW_FRACTION = {Scheme.PERIODIC_TD: 0.75, Scheme.FSI_RANDOM: 0.75}

    @pytest.fixture(scope="class")
    def out_dir(self, tmp_path_factory):
        return tmp_path_factory.mktemp("oracle")

    @pytest.mark.parametrize("scheme", list(Scheme))
    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def test_no_miss(self, scheme, out_dir, data):
        scn = cli.Scenario(scheme=scheme.value)
        cfg, l = scn.waveform_config(), scn.waveform_config().l_occ
        sched = make_schedule(scheme, cfg.m_codes, scn.k, rng=np.random.default_rng(0))
        n_grid = grid_size(sched, cfg)
        band = unambiguous_band(sched) or n_grid
        d = data.draw(st.integers(1, int(self.ROW_FRACTION.get(scheme, 1) * l) - 1),
                      label="range bin")
        if scheme is Scheme.FSI_TAIL:   # the near or the far half, past its guard row
            d += l * data.draw(st.integers(0, 1), label="far")
        b = data.draw(st.integers(-(band // 2), band - band // 2 - 1), label="Doppler bin")
        target = {"range_m": d * 3e8 * cfg.t_s / 2,
                  "velocity_kmh": mps_to_kmh(cfg.doppler_hz(b, n_grid)
                                             * cfg.wavelength_m / 2)}
        report = cli.run_simulate(replace(scn, targets=[target], noise_enabled=False,
                                          seed=data.draw(st.integers(0, 2 ** 31),
                                                         label="seed")), out_dir)
        (evaluation,) = report["evaluation"].values()
        assert evaluation["misses"] == []
