import threading
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from jcas import (ChannelConfig, Scheme, Target, WaveformConfig, WindowKind,
                  assemble_frame, build_pattern, delay_and_sum,
                  find_peaks, make_chirp, make_schedule, mix, peak_cleanup,
                  process_sensing, receive_tail, si_filter,
                  signed_bin, slow_time_matched_filter, solve_windows,
                  spread_and_assemble, substream, synthesize_rx,
                  transmit_constants, unitary_dft, unitary_idft,
                  validate_pattern)
from jcas import receiver
from jcas.channel import echo_component
from jcas.receiver import COND_MAX, RdMatrix, capture_windows, \
    invert_cells, pattern_cell_direct
from jcas.scheduler import grid_size, occasion_grid_indices
from jcas.selftest import steady_state_deviation
from jcas.util import share

ECHO_ONLY = ChannelConfig(si_enabled=False, noise_enabled=False)
NO_NOISE = ChannelConfig(noise_enabled=False)


def sensing_symbol(cfg, m, data):
    """Time-domain body b_m plus the data part."""
    chirp, codes, _ = transmit_constants(cfg)
    return unitary_idft(spread_and_assemble(cfg, m, unitary_dft(chirp), data, codes))


def extract_band(rd, band):
    """Oracle: the columns of a full map whose signed bin lies in
    [-band/2, band/2), in FFT order of the band; the bin width is kept."""
    if band > rd.n_doppler:
        raise ValueError("band wider than the map")
    cols = signed_bin(np.arange(band), band) % rd.n_doppler
    return RdMatrix(values=rd.values[:, cols], grid_size=rd.grid_size,
                    cfg=rd.cfg)


class TestMix:
    def test_self_mix_is_real(self, cfg_small, rng):
        v = np.exp(2j * np.pi * rng.random(64))
        beat = mix(v, v)
        np.testing.assert_allclose(beat.imag, 0, atol=1e-14)
        np.testing.assert_allclose(beat.real, 1, atol=1e-14)

    def test_phase_conjugation(self, cfg_small, rng):
        ref = np.exp(2j * np.pi * rng.random(64))
        beat = mix(ref * np.exp(1j * 0.7), ref)
        np.testing.assert_allclose(beat, np.exp(-1j * 0.7) * np.ones(64),
                                   atol=1e-13)

    def test_si_beat_splits_into_two_terms(self, cfg_small, rng):
        # direct expansion oracle: beat(b_m, b_m + data) is the chirp
        # self-term plus the data cross-term
        cfg = cfg_small
        _, _, waves = transmit_constants(cfg)
        data = rng.normal(size=(3, cfg.l_occ)) + 1j * rng.normal(size=(3, cfg.l_occ))
        sym = sensing_symbol(cfg, 1, data)
        data_part = sym - waves[1]
        beat = mix(sym, waves[1])
        oracle = waves[1] * np.conj(waves[1]) + waves[1] * np.conj(data_part)
        np.testing.assert_allclose(beat, oracle, atol=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            mix(np.ones(4), np.ones(5))

    @pytest.mark.parametrize("shape, ref_shape", [
        ((64, 2048), (64, 2048)),   # the fig7 windows and references
        ((80, 512), (512,)),        # fig6's rtd slots and chirp
        ((64, 512), (512,)), ((3, 32, 1024), (32, 1024)),
        ((7, 33), (33,)), ((5,), (5,))])
    def test_in_place_product_keeps_the_bits(self, shape, ref_shape):
        # mix used to return reference * np.conj(window). numpy ran that as
        # conj(window) * reference, in the conjugate's buffer, when both
        # have one shape and take 256 KiB or more; the operand order sets
        # the last bit, and mix keeps the order numpy used on such frames
        for seed in range(4):
            rng = np.random.default_rng(seed)
            window = rng.normal(size=shape) + 1j * rng.normal(size=shape)
            reference = rng.normal(size=ref_shape) + 1j * rng.normal(size=ref_shape)
            beat = mix(window, reference)
            if shape == ref_shape:
                ordered = np.conj(window) * reference
            else:
                ordered = reference * np.conj(window)
            assert beat.tobytes() == ordered.tobytes()
            if shape != ref_shape or window.nbytes >= 256 * 1024:
                old = reference * np.conj(window)
                assert beat.tobytes() == old.tobytes()

    def test_strided_windows_keep_the_bits(self, cfg, rng):
        sched = make_schedule(Scheme.FSI_TAIL, cfg.m_codes, 64)
        rx = assemble_frame(cfg, sched, rng=rng)
        for kind in WindowKind:
            windows = capture_windows(rx, cfg, sched.k, kind)
            refs = receiver._fsi_references(cfg, sched, kind)
            old = refs * np.conj(windows)
            assert mix(windows, refs).tobytes() == old.tobytes()


class TestDelayAndSum:
    def test_chirp_si_folds_to_constant(self, cfg_small):
        # the sensing self-term folds to a constant: only same-code products survive
        cfg = cfg_small
        _, _, waves = transmit_constants(cfg)
        for m in range(cfg.m_codes):
            y = delay_and_sum(waves[m] * np.conj(waves[m]), cfg.m_codes)
            np.testing.assert_allclose(y, cfg.m_codes * np.ones(cfg.l_occ),
                                       atol=1e-11)

    def test_data_si_cross_term_cancels(self, cfg_small, rng):
        cfg = cfg_small
        _, _, waves = transmit_constants(cfg)
        data = rng.normal(size=(3, cfg.l_occ)) + 1j * rng.normal(size=(3, cfg.l_occ))
        sym = sensing_symbol(cfg, 2, data)
        data_part = sym - waves[2]
        y = delay_and_sum(waves[2] * np.conj(data_part), cfg.m_codes)
        scale = np.max(np.abs(data_part)) * cfg.m_codes
        assert np.max(np.abs(y)) < 1e-10 * scale

    def test_zeros(self):
        np.testing.assert_array_equal(delay_and_sum(np.zeros(16), 4), np.zeros(4))

    def test_divisibility(self):
        with pytest.raises(ValueError):
            delay_and_sum(np.zeros(10), 4)


class TestSiFilter:
    def test_constant_killed(self):
        out = si_filter(np.full(32, 3.0 + 1j), n_guard=1)
        np.testing.assert_allclose(out, 0, atol=1e-13)

    def test_tone_untouched(self):
        tone = np.exp(2j * np.pi * 5 * np.arange(32) / 32)
        out = si_filter(tone, n_guard=1)
        expected = unitary_dft(tone)
        np.testing.assert_allclose(out, expected, atol=1e-13)

    def test_guard_bounds(self):
        with pytest.raises(ValueError):
            si_filter(np.ones(8), n_guard=0)
        with pytest.raises(ValueError):
            si_filter(np.ones(8), n_guard=8)


class TestFastTimeFft:
    def test_echo_peak_at_delay_bin(self, cfg):
        # contiguous chirps make an integer-delay echo an exact cyclic tone
        sched = make_schedule(Scheme.SENSING_ONLY, cfg.m_codes, 4)
        tx = assemble_frame(cfg, sched)
        rx = synthesize_rx(tx, [Target(200.0, 0.0)], ECHO_ONLY, cfg)  # 164 samples
        l = cfg.l_occ
        chirp = make_chirp(cfg)
        window = rx[5 * l:6 * l]
        prof = np.abs(unitary_dft(mix(window, chirp)))
        assert int(np.argmax(prof)) == 164
        others = np.delete(prof, 164)
        assert prof[164] / others.max() >= 1e3

    def test_si_at_bin_zero(self, cfg_small):
        chirp = make_chirp(cfg_small)
        prof = np.abs(unitary_dft(mix(chirp, chirp)))
        assert int(np.argmax(prof)) == 0

    def test_linearity(self, rng):
        y = rng.normal(size=64) + 1j * rng.normal(size=64)
        np.testing.assert_allclose(unitary_dft(2.5 * y),
                                   2.5 * unitary_dft(y), rtol=1e-12)


class TestSlowTimeMatchedFilter:
    def test_steered_tone_gives_unit_peak(self, cfg_small):
        k, l, g_total = 10, cfg_small.l_occ, 40
        g = np.sort(np.random.default_rng(0).choice(g_total, k, replace=False))
        nu0, d0 = 17, 5
        profiles = np.zeros((k, l), dtype=complex)
        profiles[:, d0] = np.exp(-2j * np.pi * g * nu0 / g_total)
        rd = slow_time_matched_filter(profiles, g, g_total, cfg_small)
        assert abs(abs(rd.values[d0, nu0]) - 1.0) < 1e-12
        assert np.unravel_index(np.argmax(np.abs(rd.values)),
                                rd.values.shape) == (d0, nu0)

    def test_periodic_alias_pattern(self, cfg):
        # periodic sampling folds 500 km/h onto -40 km/h: the fold oracle is
        # 55.556 kHz - 60 kHz = -4.444 kHz
        g_total, m, k = 320, 4, 80
        g = np.arange(k) * m
        f_d = 2 * (500 / 3.6) / cfg.wavelength_m
        nu0 = f_d * g_total * cfg.t_chirp          # 74.07, beyond the band
        profiles = np.zeros((k, cfg.l_occ), dtype=complex)
        profiles[:, 328] = np.exp(-2j * np.pi * g * nu0 / g_total)
        rd = slow_time_matched_filter(profiles, g, g_total, cfg)
        mag = np.abs(rd.values[328])
        peaks = {int(p) for p in np.argsort(mag)[-4:]}
        period = g_total // m
        assert {p % period for p in peaks} == {74 % period}
        f_alias = f_d - round(f_d * m * cfg.t_chirp) / (m * cfg.t_chirp)
        alias_bin = round(f_alias * g_total * cfg.t_chirp) % g_total
        assert alias_bin in peaks
        v_alias = f_alias * cfg.wavelength_m / 2 * 3.6
        assert abs(v_alias - (-40.0)) < 0.5

    def test_zero_profiles(self, cfg_small):
        rd = slow_time_matched_filter(np.zeros((4, cfg_small.l_occ)),
                                      np.arange(4), 16, cfg_small)
        assert np.all(rd.values == 0)

    def test_duplicate_indices_rejected(self, cfg_small):
        with pytest.raises(ValueError):
            slow_time_matched_filter(np.zeros((3, cfg_small.l_occ)),
                                     np.array([0, 1, 1]), 16, cfg_small)

    def test_sensing_only_equals_full_dft(self, cfg_small, rng):
        k = 24
        profiles = rng.normal(size=(k, cfg_small.l_occ)) \
            + 1j * rng.normal(size=(k, cfg_small.l_occ))
        rd = slow_time_matched_filter(profiles, np.arange(k), k, cfg_small)
        # brute-force full-DFT oracle
        oracle = np.zeros((cfg_small.l_occ, k), dtype=complex)
        for nu in range(k):
            for kk in range(k):
                oracle[:, nu] += profiles[kk] * np.exp(2j * np.pi * kk * nu / k)
        np.testing.assert_allclose(rd.values, oracle / k, atol=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(n_grid=st.integers(1, 96), data=st.data())
    def test_equals_dense_steering_matmul(self, n_grid, data):
        # any K distinct integer occasions out of G, any profile length
        k = data.draw(st.integers(1, n_grid), label="k")
        l = data.draw(st.integers(1, 16), label="l")
        g = np.array(data.draw(st.permutations(range(n_grid)))[:k])
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
        profiles = rng.normal(size=(k, l)) + 1j * rng.normal(size=(k, l))
        cfg = WaveformConfig(n_fft=256, m_codes=4, n_cp=64, scs_hz=480e3)
        rd = slow_time_matched_filter(profiles, g, n_grid, cfg)
        steer = np.exp(2j * np.pi * np.outer(g, np.arange(n_grid)) / n_grid)
        np.testing.assert_allclose(rd.values, profiles.T @ steer / k,
                                   rtol=0, atol=1e-12)


class TestCaptureWindows:
    def test_standard_window_is_body(self, cfg_small):
        sched = make_schedule(Scheme.FSI_RANDOM, cfg_small.m_codes, 3,
                              rng=substream(1, "s"))
        tx = assemble_frame(cfg_small, sched, rng=substream(1, "p"))
        wins = capture_windows(tx, cfg_small, 3, WindowKind.STANDARD)
        s = cfg_small.symbol_len
        for k in range(3):
            body = tx[k * s + cfg_small.n_cp:(k + 1) * s]
            np.testing.assert_array_equal(wins[k], body)

    def test_shifted_window_is_cyclic_body_shift(self, cfg_small):
        # for the zero-delay SI the CP makes the shifted window a roll of
        # the body by N_CP
        sched = make_schedule(Scheme.FSI_RANDOM, cfg_small.m_codes, 2,
                              rng=substream(2, "s"))
        tx = assemble_frame(cfg_small, sched, rng=substream(2, "p"))
        wins = capture_windows(tx, cfg_small, 2, WindowKind.SHIFTED)
        s = cfg_small.symbol_len
        for k in range(2):
            body = tx[k * s + cfg_small.n_cp:(k + 1) * s]
            np.testing.assert_allclose(wins[k], np.roll(body, cfg_small.n_cp),
                                       atol=1e-14)

    def test_too_short(self, cfg_small):
        with pytest.raises(ValueError):
            capture_windows(np.zeros(10), cfg_small, 2, WindowKind.STANDARD)


class TestProcessSensing:
    def test_si_only_residual(self, cfg_small):
        cfg = cfg_small
        sched = make_schedule(Scheme.FSI_RANDOM, cfg.m_codes, 16,
                              rng=substream(21, "s"))
        tx = assemble_frame(cfg, sched, rng=substream(21, "p"))
        rx = synthesize_rx(tx, [], NO_NOISE, cfg)
        rd = process_sensing(rx, cfg, sched)
        resid = np.max(np.abs(rd.values))
        # reference: what a unit echo at bin 10 would produce
        echo = echo_component(tx, 10, 0.0, 1.0, cfg.t_s)
        ref = np.max(np.abs(process_sensing(echo, cfg, sched).values))
        assert resid <= 1e-8 * ref

    def test_references_match_per_symbol_loop(self, cfg_small):
        # reference: rho_k * b_{(alpha_k + shift) mod M}, one symbol at a time
        from jcas.receiver import _fsi_references
        cfg, m = cfg_small, cfg_small.m_codes
        _, _, waves = transmit_constants(cfg)
        for scheme in (Scheme.FSI_RANDOM, Scheme.FSI_TAIL):
            sched = make_schedule(scheme, m, 6, rng=substream(12, "s"))
            for kind, shift in ((WindowKind.STANDARD, 0),
                                (WindowKind.SHIFTED, cfg.cp_occasions)):
                refs = _fsi_references(cfg, sched, kind)
                for k, a in enumerate(sched.alpha):
                    rho = np.exp(2j * np.pi * k / m) \
                        if scheme is Scheme.FSI_TAIL else 1.0
                    np.testing.assert_array_equal(refs[k],
                                                  rho * waves[(a + shift) % m])

    def test_shifted_window_cancellation_matches_standard(self, cfg_small):
        # the cancellation works for both windows: SI folds to a constant
        # per symbol in either one
        cfg = cfg_small
        sched = make_schedule(Scheme.FSI_TAIL, cfg.m_codes, 8)
        tx = assemble_frame(cfg, sched, rng=substream(22, "p"))
        rx = synthesize_rx(tx, [], NO_NOISE, cfg)
        from jcas.receiver import _fsi_references
        for kind in (WindowKind.STANDARD, WindowKind.SHIFTED):
            wins = capture_windows(rx, cfg, 8, kind)
            refs = _fsi_references(cfg, sched, kind)
            folded = delay_and_sum(mix(wins, refs), cfg.m_codes)
            dev = np.abs(folded - folded.mean(axis=1, keepdims=True))
            assert np.max(dev) < 1e-10 * np.max(np.abs(folded))

    def test_rtd_single_target_matches_bruteforce_oracle(self, cfg):
        # independent re-implementation: explicit slices, explicit DFT sums
        sched = make_schedule(Scheme.RTD, cfg.m_codes, 80,
                              rng=substream(23, "s"))
        tx = assemble_frame(cfg, sched, rng=substream(23, "p"))
        v_mps = (108 / 3.6)
        target = Target(400.0, v_mps)     # delay 327.68 -> 328; 108 km/h on-grid
        rx = synthesize_rx(tx, [target], ECHO_ONLY, cfg)
        rd = process_sensing(rx, cfg, sched)
        g = occasion_grid_indices(sched, cfg)
        n_grid = grid_size(sched, cfg)
        f_d = 2 * v_mps / cfg.wavelength_m
        nu0 = round(f_d * n_grid * cfg.t_chirp)
        assert nu0 == 16
        cell = np.unravel_index(np.argmax(np.abs(rd.values)), rd.values.shape)
        assert cell == (328, nu0)
        # oracle value at the peak cell
        chirp = make_chirp(cfg)
        l = cfg.l_occ
        acc = 0.0
        for i, gk in enumerate(g):
            window = rx[gk * l:(gk + 1) * l]
            beat = chirp * np.conj(window)
            bin_val = np.sum(beat * np.exp(-2j * np.pi * 328 * np.arange(l) / l))
            bin_val /= np.sqrt(l)
            acc += bin_val * np.exp(2j * np.pi * gk * nu0 / n_grid)
        oracle = abs(acc / len(g))
        assert abs(abs(rd.values[cell]) - oracle) <= 0.01 * oracle

    def test_sensing_only_two_paper_targets(self, cfg):
        sched = make_schedule(Scheme.SENSING_ONLY, cfg.m_codes, 80)
        tx = assemble_frame(cfg, sched)
        targets = [Target(200.0, -250 / 3.6), Target(400.0, 500 / 3.6)]
        rx = synthesize_rx(tx, targets, NO_NOISE, cfg)
        rd = process_sensing(rx, cfg, sched)
        dets = find_peaks(rd, rel_threshold=0.05)
        assert len(dets) == 2
        cells = {d.cell for d in dets}
        assert (164, (-37) % 320) in cells
        assert (328, 74) in cells


class TestBothWindows:
    """process_sensing with a tuple of window kinds: one map per kind, the
    first on the caller and the others on the background worker."""

    @staticmethod
    def _rx(cfg, scheme, k, seed):
        sched = make_schedule(scheme, cfg.m_codes, k, rng=substream(seed, "s"))
        tx = assemble_frame(cfg, sched, rng=substream(seed, "p"))
        echo = Target(3 * 3e8 * cfg.t_s / 2, 10.0)
        return sched, synthesize_rx(tx, [echo], ChannelConfig(), cfg,
                                    rng=substream(seed, "n"))

    @settings(max_examples=60, deadline=None)
    @given(scheme=st.sampled_from([Scheme.FSI_TAIL, Scheme.FSI_RANDOM]),
           m=st.integers(2, 6), l=st.integers(2, 24), cp_occasions=st.integers(0, 6),
           k=st.integers(1, 40), n_guard=st.integers(1, 23),
           symbols=st.one_of(st.none(), st.integers(1, 50)),
           kinds=st.lists(st.sampled_from(WindowKind), min_size=1, max_size=3),
           seed=st.integers(0, 2 ** 16))
    @example(scheme=Scheme.FSI_TAIL, m=4, l=512, cp_occasions=1, k=64, n_guard=1,
             symbols=None, kinds=[WindowKind.STANDARD, WindowKind.SHIFTED], seed=0)
    @example(scheme=Scheme.FSI_RANDOM, m=4, l=512, cp_occasions=1, k=33, n_guard=2,
             symbols=None, kinds=[WindowKind.SHIFTED, WindowKind.STANDARD], seed=1)
    def test_maps_are_the_single_kind_calls(self, scheme, m, l, cp_occasions, k,
                                            n_guard, symbols, kinds, seed):
        # symbols per block drawn below K, above it and not dividing it; the
        # single-kind calls run at the module's block size
        cfg = WaveformConfig(n_fft=m * l, m_codes=m, n_cp=min(cp_occasions, m) * l,
                             scs_hz=480e3)
        n_guard = 1 + (n_guard - 1) % (l - 1)
        sched, rx = self._rx(cfg, scheme, k, seed)
        want = [process_sensing(rx, cfg, sched, kind, n_guard) for kind in kinds]
        block = receiver.SENSE_BLOCK_CELLS if symbols is None else symbols * cfg.n_fft
        with mock.patch.object(receiver, "SENSE_BLOCK_CELLS", block):
            got = process_sensing(rx, cfg, sched, tuple(kinds), n_guard)
        assert isinstance(got, tuple) and len(got) == len(want)
        for g, w in zip(got, want):
            assert g.values.tobytes() == w.values.tobytes()
            assert g.grid_size == w.grid_size and g.cfg == w.cfg

    def test_worker_held_in_a_share_block(self, cfg_small, monkeypatch):
        # the worker runs a task of an outer share block throughout: both
        # windows run on the caller, without waiting for the worker
        sched, rx = self._rx(cfg_small, Scheme.FSI_TAIL, 16, 5)
        kinds = (WindowKind.STANDARD, WindowKind.SHIFTED)
        want = [process_sensing(rx, cfg_small, sched, kind) for kind in kinds]
        threads, real = [], receiver._sense

        def spy(*args):
            threads.append(threading.get_ident())
            return real(*args)
        monkeypatch.setattr(receiver, "_sense", spy)
        started, release, held = (threading.Event() for _ in range(3))

        def hold():
            started.set()
            release.wait(20)
            held.set()
        with share([hold]):
            try:
                assert started.wait(20)
                got = process_sensing(rx, cfg_small, sched, kinds)
                assert not held.is_set()   # not waited for behind the outer task
            finally:
                release.set()
        assert threads == [threading.get_ident()] * 2
        assert [g.values.tobytes() for g in got] == [w.values.tobytes() for w in want]

    @pytest.mark.parametrize("kinds", [(WindowKind.STANDARD, WindowKind.SHIFTED),
                                       (WindowKind.SHIFTED, WindowKind.STANDARD)])
    def test_a_failing_window_raises(self, cfg_small, kinds):
        # a slotted scheme has no shifted window, on whichever thread it runs
        sched = make_schedule(Scheme.RTD, cfg_small.m_codes, 16, rng=substream(6, "s"))
        rx = assemble_frame(cfg_small, sched, rng=substream(6, "p"))
        with pytest.raises(ValueError, match="single window kind"):
            process_sensing(rx, cfg_small, sched, kinds)


def solve_oracle(cells):
    """np.linalg.cond and the row-normalized np.linalg.inv of each 2x2 cell;
    NaN where a cell is not finite."""
    cond = np.full(len(cells), np.nan)
    inv = np.zeros_like(cells)
    finite = np.isfinite(cells).all(axis=(1, 2))
    with np.errstate(divide="ignore", invalid="ignore"):
        cond[finite] = np.linalg.cond(cells[finite])
    ok = cond <= COND_MAX
    inv[ok] = np.linalg.inv(cells[ok])
    # entries of a small cell's inverse can be too large to square
    inv[ok] /= np.abs(inv[ok]).max(axis=2, keepdims=True)
    inv[ok] /= np.linalg.norm(inv[ok], axis=2, keepdims=True)
    return cond, inv


def random_unitary(rng):
    q, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
    return q


def oracle_cells(rng, scale):
    """23 2x2 cells times scale: 8 random, 4 rank-1, one zero, two with a
    NaN entry, and 8 with a condition number within 1e-3 of COND_MAX."""
    def gaussian(*shape):
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)

    random = gaussian(8, 2, 2)
    rank1 = gaussian(4, 2, 1) * gaussian(4, 1, 2)
    special = np.zeros((3, 2, 2), dtype=complex)
    special[1] = gaussian(2, 2)
    special[1, 0, 1] = np.nan
    special[2, 1, 1] = np.nan * 1j
    # singular values s and s / cond with cond within 1e-3 of COND_MAX
    cond = COND_MAX * (1 + rng.uniform(-1e-3, 1e-3, 8))
    edge = np.stack([random_unitary(rng) @ np.diag([1.0, 1 / c])
                     @ random_unitary(rng) for c in cond])
    return scale * np.concatenate((random, rank1, special, edge))


def tail_setup(cfg, k=16):
    sched = make_schedule(Scheme.FSI_TAIL, cfg.m_codes, k)
    pat = build_pattern(cfg, sched)
    return sched, pat


class TestPattern:
    def test_conditioning_and_rows(self, cfg_small):
        sched, pat = tail_setup(cfg_small)
        band = pat.band
        assert pat.p.shape == (cfg_small.l_occ, band, 2, 2)
        # zero-Doppler bin is well separated for mid-range bins
        assert np.linalg.cond(pat.p[10, 0]) < 1e3
        norms = np.linalg.norm(pat.p_sol[pat.resolvable], axis=2)
        np.testing.assert_allclose(norms, 1.0, atol=1e-12)

    def test_inverse_roundtrip_direction(self, cfg_small):
        sched, pat = tail_setup(cfg_small)
        out = pat.p_sol[20, 3] @ (pat.p[20, 3] @ np.array([1.0, 0.0]))
        assert abs(out[1]) < 1e-9 * abs(out[0])

    def test_guard_bins_unresolvable(self, cfg_small):
        _, pat = tail_setup(cfg_small)
        assert not pat.resolvable[0].any()

    def test_validation_against_direct_pipeline(self, cfg_small):
        sched, pat = tail_setup(cfg_small)
        err = validate_pattern(pat, cfg_small, sched)
        assert err <= 1e-6
        assert pat.validation_error == err

    def test_validation_assembles_the_frame_once(self, cfg_small, monkeypatch):
        sched, pat = tail_setup(cfg_small)
        frames = []

        def counting(*args, **kwargs):
            frames.append(assemble_frame(*args, **kwargs))
            return frames[-1]
        monkeypatch.setattr(receiver, "assemble_frame", counting)
        validate_pattern(pat, cfg_small, sched, n_cells=3)
        assert len(frames) == 1
        # the shared frame is the one pattern_cell_direct builds on its own
        monkeypatch.undo()
        np.testing.assert_array_equal(
            pattern_cell_direct(cfg_small, sched, 5, -2, 1),
            pattern_cell_direct(cfg_small, sched, 5, -2, 1, tx=frames[0]))

    def test_validation_rejects_a_nan_pattern(self, cfg_small):
        sched, pat = tail_setup(cfg_small)
        pat.p[:] = np.nan
        with pytest.raises(RuntimeError):
            validate_pattern(pat, cfg_small, sched)
        assert np.isnan(pat.validation_error)

    def test_deviation_is_relative_to_the_unit_echo(self):
        # a column that cancels to zero in both symbols: its rounding is
        # measured against the echo's unit amplitude, not against itself
        ref = np.array([[1.8e-15, 0.0], [4.0, 2.0]])
        fast = ref + np.array([[5.7e-16, 0.0], [4e-7, 0.0]])
        dev = receiver.deviation(fast, ref, axis=-1)
        np.testing.assert_allclose(dev, [5.7e-16, 1e-7], rtol=1e-6)
        assert np.all(dev <= receiver.VALIDATION_TOL)
        ref[1, 1] = np.nan
        assert np.isnan(receiver.deviation(fast, ref, axis=-1)[1])

    def test_band_column_that_cancels_builds(self):
        # M 3, L 2, N_CP L: in one band column a far response cancels to
        # ~1e-15 in both interior symbols, and their rounding differs by 6e-16
        cfg = WaveformConfig(n_fft=6, m_codes=3, n_cp=2)
        sched = make_schedule(Scheme.FSI_TAIL, cfg.m_codes, 4)
        pat = build_pattern(cfg, sched, validate=True)
        assert pat.validation_error <= 1e-12

    def test_steady_state_check_fails_on_nan(self, cfg_small, monkeypatch):
        # symbol 2 feeds the check alone, so the pattern would be finite
        real = receiver._fsi_references

        def nan_symbol_2(*args):
            refs = real(*args)   # (symbol, sample) of the calibration frame
            refs[2, 0] = np.nan
            return refs
        monkeypatch.setattr(receiver, "_fsi_references", nan_symbol_2)
        with pytest.raises(RuntimeError, match="steady-state"):
            build_pattern(cfg_small, make_schedule(Scheme.FSI_TAIL, cfg_small.m_codes, 16))

    @pytest.mark.parametrize("part", ["assemble_frame", "_fsi_references"])
    def test_perturbed_third_symbol_raises(self, cfg_small, monkeypatch, part):
        # noise of amplitude 1e-4 on the third symbol of the calibration frame
        # (the probe) or of its references: comparing the transformed third
        # symbol with the second raises from 1e-5 on, the bound from 1e-7 on
        real = getattr(receiver, part)

        def noisy(cfg, *args, **kwargs):
            x = real(cfg, *args, **kwargs)
            third = x[2 * cfg.symbol_len:3 * cfg.symbol_len] if x.ndim == 1 else x[2]
            noise = np.random.default_rng(5).normal(size=(2, len(third))) / np.sqrt(2)
            third += 1e-4 * (noise[0] + 1j * noise[1])
            return x
        monkeypatch.setattr(receiver, part, noisy)
        with pytest.raises(RuntimeError, match="steady-state"):
            build_pattern(cfg_small, make_schedule(Scheme.FSI_TAIL, cfg_small.m_codes, 16))

    @settings(max_examples=60, deadline=None)
    @given(m=st.sampled_from([2, 3, 4, 8]), cp_occasions=st.integers(0, 2),
           k=st.one_of(st.integers(1, 9), st.integers(receiver.PATTERN_SLICES + 1,
                                                      receiver.PATTERN_SLICES + 9)),
           l=st.sampled_from([2, 4, 16]))
    @example(m=3, cp_occasions=1, k=4, l=2)   # the grid with a cancelling column
    def test_steady_state_bound_holds_in_every_column(self, m, cp_occasions, k, l):
        # symbol 2 transformed as well, as a test-only oracle: the bound each
        # slice checks is never below its deviation from symbol 1
        cfg = WaveformConfig(n_fft=m * l, m_codes=m, n_cp=cp_occasions * l)
        sched = make_schedule(Scheme.FSI_TAIL, m, k)
        dev, bound = steady_state_deviation(cfg, sched)
        assert dev.shape == bound.shape == (2, 2, k)   # (window, hyp, column)
        assert np.all(dev <= bound)
        assert np.all(bound <= receiver.VALIDATION_TOL)
        build_pattern(cfg, sched)

    def test_slices_never_read_symbol_2(self, cfg_small):
        sched = make_schedule(Scheme.FSI_TAIL, cfg_small.m_codes, 16)
        cal = receiver._calibration(cfg_small, sched)
        spoiled = cal._replace(**{name: getattr(cal, name).copy()
                                  for name in ("refs", "phase", "probe_f")})
        for part in spoiled.refs, spoiled.phase, spoiled.probe_f:
            part[:, 2] = np.nan   # (window, symbol, ...)
        cols = slice(5, 11)
        want, got = (np.zeros((cfg_small.l_occ, 16, 2, 2), dtype=complex)
                     for _ in range(2))
        for c, p in (cal, want), (spoiled, got):
            receiver._pattern_slice(cfg_small, c, sched.k, p, cols)
        assert np.all(np.isfinite(spoiled.eps)) and np.all(np.isfinite(spoiled.drift))
        assert got.tobytes() == want.tobytes()
        assert np.all(want[:, cols] != 0)

    @pytest.mark.parametrize("m", [2, 4, 8])
    @pytest.mark.parametrize("cp_occasions", [0, 1, 2])
    @pytest.mark.parametrize("k", [3, 7])
    def test_every_cell_matches_direct_pipeline(self, m, cp_occasions, k):
        l = 16
        cfg = WaveformConfig(n_fft=m * l, m_codes=m, n_cp=cp_occasions * l,
                             scs_hz=480e3)
        self._assert_every_cell_direct(cfg, make_schedule(Scheme.FSI_TAIL, m, k))

    def test_narrow_last_slice_matches_direct_pipeline(self):
        # 35 band columns in 32 slices of up to 2: the last slice holds one
        # column and computes in the first column of each buffer
        cfg = WaveformConfig(n_fft=8, m_codes=2, n_cp=4, scs_hz=480e3)
        self._assert_every_cell_direct(cfg, make_schedule(Scheme.FSI_TAIL, 2, 35))

    @staticmethod
    def _assert_every_cell_direct(cfg, sched):
        pat = build_pattern(cfg, sched)
        tol = 1e-12 * np.max(np.abs(pat.p))
        # the direct pipeline notches the guard bins; the pattern keeps them
        for col in range(pat.band):
            signed = signed_bin(col, pat.band)
            for d in range(pat.n_guard, cfg.l_occ):
                for hyp in (0, 1):
                    direct = pattern_cell_direct(cfg, sched, d, signed, hyp)
                    assert np.max(np.abs(pat.p[d, col, :, hyp] - direct)) <= tol

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), exponent=st.integers(-150, 150))
    def test_closed_form_solve_matches_svd_and_inverse(self, seed, exponent):
        cells = oracle_cells(np.random.default_rng(seed), 10.0 ** exponent)
        resolvable, p_sol = invert_cells(cells)
        ref_cond, ref_inv = solve_oracle(cells)
        decided = ~(np.abs(ref_cond / COND_MAX - 1) <= 1e-9)
        np.testing.assert_array_equal(resolvable[decided],
                                      (ref_cond <= COND_MAX)[decided])
        assert not resolvable[8:15].any()   # rank-1, zero and NaN cells
        both = resolvable & (ref_cond <= COND_MAX)
        err = np.max(np.abs(p_sol - ref_inv), axis=(1, 2))
        assert np.all(err[both] <= 1e-14 * ref_cond[both])
        assert np.all(p_sol[~resolvable] == 0)

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), exponent=st.integers(-150, 150),
           l=st.integers(1, 9), n_guard=st.integers(1, 10))
    @example(seed=0, exponent=0, l=1, n_guard=1)
    @example(seed=1, exponent=0, l=7, n_guard=4)
    @example(seed=2, exponent=-150, l=5, n_guard=5)
    def test_split_solve_matches_one_inversion(self, seed, exponent, l, n_guard):
        # the caller inverts rows [:L/2] and the worker rows [L/2:]; every
        # row holds every oracle cell: NaN, zero, rank-1 and near COND_MAX
        rng = np.random.default_rng(seed)
        cells = oracle_cells(rng, 10.0 ** exponent)
        p = np.stack([cells[rng.permutation(len(cells))] for _ in range(l)])
        pat = receiver.PatternTensor.solve(p, n_guard)
        resolvable, p_sol = invert_cells(p)
        resolvable[:n_guard] = False
        p_sol[:n_guard] = 0
        assert pat.resolvable.tobytes() == resolvable.tobytes()
        assert pat.p_sol.tobytes() == p_sol.tobytes()
        assert pat.p is p and pat.n_guard == n_guard

    def test_wrong_scheme_rejected(self, cfg_small):
        sched = make_schedule(Scheme.PERIODIC_TD, cfg_small.m_codes, 4)
        with pytest.raises(ValueError):
            build_pattern(cfg_small, sched)


class TestPatternWorker:
    """What build_pattern adds to the slices it shares through util.share
    (tested in test_util.TestShare): the bits, the checks and the memory."""

    def test_busy_worker_leaves_every_task_to_the_caller(self, cfg_small,
                                                         block_worker):
        sched = make_schedule(Scheme.FSI_TAIL, cfg_small.m_codes, 16)
        want = build_pattern(cfg_small, sched, validate=True)
        blocker = block_worker()
        got = build_pattern(cfg_small, sched, validate=True)
        assert not blocker.done()   # not waited for behind the blocker
        for name in ("p", "p_sol", "resolvable"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes()
        assert got.validation_error == want.validation_error

    def test_worker_slice_failure_raises(self, cfg_small, monkeypatch):
        # the caller waits in its direct cells until a slice, which only the
        # worker can have begun, fails: symbol 2's steering phases drift from
        # symbol 1's by 1e-3 in the slice's columns
        real, failed = receiver._pattern_slice, threading.Event()

        def broken(cfg, cal, *rest):
            try:
                real(cfg, cal._replace(drift=cal.drift + 1e-3), *rest)
            finally:
                failed.set()
        monkeypatch.setattr(receiver, "_pattern_slice", broken)
        monkeypatch.setattr(receiver, "_direct_cells", lambda *args: failed.wait(20))
        with pytest.raises(RuntimeError, match="steady-state"):
            build_pattern(cfg_small, make_schedule(Scheme.FSI_TAIL, cfg_small.m_codes, 16),
                          validate=True)

    @pytest.mark.parametrize("grid", ["small", "fig7"])
    def test_validated_build_equals_build_then_validate(self, cfg_small, grid):
        cfg, k = (cfg_small, 16) if grid == "small" else (WaveformConfig(), 64)
        sched = make_schedule(Scheme.FSI_TAIL, cfg.m_codes, k)
        plain = build_pattern(cfg, sched)
        checked = build_pattern(cfg, sched, validate=True)
        for name in ("p", "p_sol", "resolvable"):
            assert getattr(checked, name).tobytes() == getattr(plain, name).tobytes()
        assert plain.validation_error is None
        assert checked.validation_error == validate_pattern(plain, cfg, sched)

    @pytest.mark.parametrize("factor", [1 + 1e-3, np.nan])
    def test_deviating_direct_cell_raises(self, cfg_small, monkeypatch, factor):
        sched = make_schedule(Scheme.FSI_TAIL, cfg_small.m_codes, 16)
        real = pattern_cell_direct
        monkeypatch.setattr(receiver, "pattern_cell_direct",
                            lambda *args: factor * real(*args))
        with pytest.raises(RuntimeError, match="pattern validation failed"):
            build_pattern(cfg_small, sched, validate=True)

    def test_fig7_build_peak_memory(self):
        # both windows, the first two symbols and both hypotheses in flight, in
        # buffers of a 32nd of the band that each slice allocates on its own
        # thread; building the windows one after the other at full band
        # peaked at 17.7 MB here. With validation, the direct cells run on
        # the caller beside the worker's slices: 12.5 MB
        cfg = WaveformConfig()
        sched = make_schedule(Scheme.FSI_TAIL, cfg.m_codes, 64)
        for validate, bound in (False, 15e6), (True, 16e6):
            tracemalloc.start()
            try:
                pat = build_pattern(cfg, sched, validate=validate)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert pat.p.shape == (512, 64, 2, 2)
            assert peak < bound, validate


class TestSolveWindows:
    def _solved(self, cfg, sched, targets, pat):
        tx = assemble_frame(cfg, sched, rng=substream(30, "p"))
        rx = synthesize_rx(tx, targets, ECHO_ONLY, cfg)
        return receive_tail(rx, cfg, sched, pat)[2]

    def _grid_map(self, cfg, sched, profiles, pat):
        return extract_band(slow_time_matched_filter(
            profiles, occasion_grid_indices(sched, cfg),
            grid_size(sched, cfg), cfg), pat.band)

    def test_single_near_target_concentrates(self, cfg_small):
        sched, pat = tail_setup(cfg_small)
        n_grid = grid_size(sched, cfg_small)
        d0, nu0 = 20, 2
        r_m = d0 * 3e8 * cfg_small.t_s / 2
        v = nu0 / (n_grid * cfg_small.t_chirp) * cfg_small.wavelength_m / 2
        solved = self._solved(cfg_small, sched, [Target(r_m, v)], pat).values
        assert solved.shape == (2 * cfg_small.l_occ, pat.band)
        near, far = solved[:cfg_small.l_occ], solved[cfg_small.l_occ:]
        cell = (d0, nu0 % pat.band)
        assert abs(far[cell]) <= 0.05 * abs(near[cell])
        assert np.unravel_index(np.argmax(np.abs(solved)), solved.shape) == cell

    def test_single_far_target_lands_in_far_map(self, cfg_small):
        sched, pat = tail_setup(cfg_small)
        n_grid = grid_size(sched, cfg_small)
        d0, nu0 = 30, -3
        delta = d0 + cfg_small.l_occ
        r_m = delta * 3e8 * cfg_small.t_s / 2
        v = nu0 / (n_grid * cfg_small.t_chirp) * cfg_small.wavelength_m / 2
        dets = find_peaks(self._solved(cfg_small, sched, [Target(r_m, v)], pat))
        assert dets[0].range_bin == delta
        assert dets[0].doppler_bin == nu0

    def test_zero_inputs(self, cfg_small):
        sched, pat = tail_setup(cfg_small)
        zero = self._grid_map(cfg_small, sched,
                              np.zeros((sched.k, cfg_small.l_occ)), pat)
        assert np.all(solve_windows(zero, zero, pat).values == 0)

    def test_unresolvable_cells_propagate_as_zeros(self, cfg_small, rng):
        import copy
        sched, pat = tail_setup(cfg_small)
        pat = copy.deepcopy(pat)
        pat.p[25, 3] = [[1, 2], [2, 4]]   # rank 1
        pat.resolvable, pat.p_sol = invert_cells(pat.p)
        assert not pat.resolvable[25, 3]
        shape = (sched.k, cfg_small.l_occ)
        std, shift = (self._grid_map(cfg_small, sched, rng.normal(size=shape)
                                     + 1j * rng.normal(size=shape), pat)
                      for _ in range(2))
        assert std.values[25, 3] != 0 and shift.values[25, 3] != 0
        solved = solve_windows(std, shift, pat).values
        assert solved[25, 3] == 0 and solved[cfg_small.l_occ + 25, 3] == 0
        assert np.all(solved[:cfg_small.l_occ][pat.resolvable] != 0)

    def test_matches_the_einsum_form(self, cfg_small, rng):
        sched, pat = tail_setup(cfg_small)
        shape = (cfg_small.l_occ, pat.band)
        std, shift = (receiver.RdMatrix(rng.normal(size=shape)
                                        + 1j * rng.normal(size=shape),
                                        grid_size(sched, cfg_small), cfg_small)
                      for _ in range(2))
        obs = np.stack([std.values, shift.values], axis=-1)
        want = np.einsum('dcij,dcj->dci', pat.p_sol, obs)
        want[~pat.resolvable] = 0
        want = np.concatenate((want[..., 0], want[..., 1]))
        got = solve_windows(std, shift, pat)
        assert got.values.shape == want.shape
        assert got.grid_size == std.grid_size
        assert np.max(np.abs(got.values - want)) <= 1e-14 * np.max(np.abs(want))

    @pytest.mark.parametrize("radius", [None, 2])
    def test_receive_tail_cleans_only_what_it_solves(self, cfg_small, radius):
        sched, pat = tail_setup(cfg_small)
        tx = assemble_frame(cfg_small, sched, rng=substream(31, "p"))
        # off grid, so its straddle shoulders give the cleanup cells to zero
        rx = synthesize_rx(tx, [Target(20.4 * 3e8 * cfg_small.t_s / 2, 0.0)],
                           ECHO_ONLY, cfg_small)
        std, shift, solved = receive_tail(rx, cfg_small, sched, pat,
                                          cleanup_radius=radius)
        for got, kind in zip((std, shift), WindowKind):   # as captured
            np.testing.assert_array_equal(
                got.values, process_sensing(rx, cfg_small, sched, kind).values)
        # bit for bit the solve of the window maps, unless cleaned first
        plain = solve_windows(std, shift, pat).values
        assert np.array_equal(solved.values, plain) == (radius is None)

    def test_full_width_maps_rejected(self, cfg_small):
        # the solve takes maps already restricted to the pattern band
        sched, pat = tail_setup(cfg_small)
        full = slow_time_matched_filter(
            np.ones((sched.k, cfg_small.l_occ), dtype=complex),
            occasion_grid_indices(sched, cfg_small),
            grid_size(sched, cfg_small), cfg_small)
        assert full.n_doppler > pat.band
        with pytest.raises(ValueError):
            solve_windows(full, full, pat)
        banded = extract_band(full, pat.band)
        with pytest.raises(ValueError):
            solve_windows(banded, full, pat)


class TestPeakCleanup:
    def _rd(self, cfg):
        vals = np.zeros((cfg.l_occ, 16), dtype=complex)
        return RdMatrix(values=vals, grid_size=80, cfg=cfg)

    def test_isolated_peak_unchanged(self, cfg_small):
        rd = self._rd(cfg_small)
        rd.values[10, 5] = 3.0
        out = peak_cleanup(rd, [(10, 5)], radius=2)
        np.testing.assert_array_equal(out.values, rd.values)

    def test_shoulders_zeroed(self, cfg_small):
        rd = self._rd(cfg_small)
        rd.values[10, 5] = 3.0
        rd.values[10, 6] = 1.0
        rd.values[11, 5] = 0.5
        rd.values[10, 9] = 0.7   # outside the radius, survives
        out = peak_cleanup(rd, [(10, 5)], radius=2)
        assert out.values[10, 5] == 3.0
        assert out.values[10, 6] == 0 and out.values[11, 5] == 0
        assert out.values[10, 9] == 0.7

    def test_doppler_wraps(self, cfg_small):
        rd = self._rd(cfg_small)
        rd.values[4, 0] = 2.0
        rd.values[4, 15] = 0.4
        out = peak_cleanup(rd, [(4, 0)], radius=1)
        assert out.values[4, 15] == 0

    @settings(max_examples=200, deadline=None)
    @given(rows=st.integers(1, 12), cols=st.integers(1, 16),
           radius=st.one_of(st.integers(1, 5), st.integers(1, 10 ** 9)),
           cells=st.lists(st.tuples(st.integers(0, 99), st.integers(0, 99)), max_size=6),
           seed=st.integers(0, 2 ** 32 - 1), block=st.sampled_from([1, 7, 1 << 16]))
    @example(rows=4, cols=16, radius=3, cells=[(2, 5), (2, 8)], seed=0, block=1 << 16)
    @example(rows=12, cols=16, radius=10 ** 4, cells=[(3, 5)], seed=0, block=1 << 16)
    @example(rows=12, cols=16, radius=10 ** 9, cells=[(11, 0), (0, 15)], seed=0,
             block=1 << 16)
    def test_union_zeroed_and_every_kept_cell_restored(self, rows, cols, radius, cells,
                                                       seed, block):
        # kept cells may lie in each other's neighborhoods, as find_peaks
        # cells do for a radius above its guard; a radius past the map
        # covers it whole, through an index no larger than the map, and
        # blocks of any size mark the one union
        cells = [(d % rows, c % cols) for d, c in cells]
        rng = np.random.default_rng(seed)
        vals = rng.normal(size=(rows, cols)) + 1j * rng.normal(size=(rows, cols))
        rd = RdMatrix(vals.copy(), 80, WaveformConfig())
        index = rd.neighborhood(*np.array(cells, dtype=np.intp).reshape(-1, 2).T,
                                radius, radius)
        shape = np.broadcast_shapes(*(a.shape for a in index))
        assert shape[0] == len(cells) and shape[1] <= rows and shape[2] <= cols
        with mock.patch.object(receiver, "NEIGHBORHOOD_BLOCK_CELLS", block):
            out = peak_cleanup(rd, cells, radius).values
        for r in range(rows):
            for c in range(cols):
                near = any(abs(r - d0) <= radius
                           and min((c - c0) % cols, (c0 - c) % cols) <= radius
                           for d0, c0 in cells)
                unchanged = (r, c) in cells or not near
                assert out[r, c] == (vals[r, c] if unchanged else 0)

    def test_memory_bounded_by_the_map(self):
        # 5,000 cells at radius 1000 on a 512 x 64 map: indexed all at once,
        # the neighborhoods took a 41.6 MB peak beside the 0.5 MB map
        rng = np.random.default_rng(0)
        vals = rng.normal(size=(512, 64)) + 1j * rng.normal(size=(512, 64))
        rd = RdMatrix(vals.copy(), 320, WaveformConfig())
        cells = np.stack((rng.integers(0, 512, 5000), rng.integers(0, 64, 5000)), axis=1)
        tracemalloc.start()
        try:
            out = peak_cleanup(rd, cells, 1000).values
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2e6
        kept = np.zeros(vals.shape, dtype=bool)
        kept[tuple(cells.T)] = True
        assert (out[kept] == vals[kept]).all() and not out[~kept].any()

    def test_radius_below_one_rejected(self, cfg_small):
        with pytest.raises(ValueError):
            peak_cleanup(self._rd(cfg_small), [(4, 0)], radius=0)


def quantize(v, bits, full_scale):
    """ADC model: a uniform mid-rise quantizer on the real and imaginary
    parts, clipped. On the raw receive stream it shows how un-cancelled SI
    eats the dynamic range; after delay-and-sum it models the
    analog-cancellation receiver."""
    if not 4 <= bits <= 16:
        raise ValueError("bits must be in [4, 16]")
    step = 2 * full_scale / (1 << bits)
    top = full_scale - step / 2

    def q(x):
        return np.clip((np.floor(x / step) + 0.5) * step, -top, top)

    return q(np.real(v)) + 1j * q(np.imag(v))


class TestQuantize:
    def test_high_resolution_near_identity(self, rng):
        v = rng.normal(size=100) + 1j * rng.normal(size=100)
        q = quantize(v, bits=16, full_scale=100.0)
        step = 200.0 / 2 ** 16
        assert np.max(np.abs(q - v)) <= step

    def test_zero_maps_to_half_step(self):
        q = quantize(np.zeros(4, dtype=complex), bits=8, full_scale=1.0)
        step = 2.0 / 256
        np.testing.assert_allclose(np.abs(q.real), step / 2, atol=1e-12)

    def test_bits_range(self):
        with pytest.raises(ValueError):
            quantize(np.zeros(4), bits=2, full_scale=1.0)

    def test_si_eats_dynamic_range_before_cancellation(self, cfg_small):
        # quantizing the raw stream (full-duplex baseline) buries the echo;
        # the same ADC after delay-and-sum keeps the peak
        cfg = cfg_small
        sched = make_schedule(Scheme.FSI_RANDOM, cfg.m_codes, 16,
                              rng=substream(40, "s"))
        tx = assemble_frame(cfg, sched, rng=substream(40, "p"))
        d0 = 12
        rx = synthesize_rx(tx, [Target(d0 * 3e8 * cfg.t_s / 2, 0.0)],
                           NO_NOISE, cfg)
        g = occasion_grid_indices(sched, cfg)
        n_grid = grid_size(sched, cfg)
        from jcas.receiver import _fsi_references

        def rd_peak(samples, quant_after):
            wins = capture_windows(samples, cfg, 16, WindowKind.STANDARD)
            refs = _fsi_references(cfg, sched, WindowKind.STANDARD)
            folded = delay_and_sum(mix(wins, refs), cfg.m_codes)
            if quant_after:
                # the analog high-pass removes the DC SI before the ADC
                folded = folded - folded.mean(axis=1, keepdims=True)
                folded = quantize(folded, 12, np.max(np.abs(folded)))
            prof = si_filter(folded)
            rd = slow_time_matched_filter(prof, g, n_grid, cfg)
            mag = np.abs(rd.values)
            return mag[d0].max(), np.delete(mag, d0, axis=0).max()

        clean_peak, _ = rd_peak(rx, quant_after=False)
        pk_after, _ = rd_peak(rx, quant_after=True)
        q_rx = quantize(rx, 12, np.max(np.abs(rx)))
        pk_before, floor_before = rd_peak(q_rx, quant_after=False)
        assert abs(pk_after - clean_peak) < 0.05 * clean_peak
        # raw-stream quantization leaves the echo at or below the noise floor
        assert pk_before < 3 * floor_before


class TestBandOnlyFilter:
    """process_sensing's K-column map of a periodic schedule against the
    band of the full G-column matched filter."""

    @pytest.mark.parametrize("n_cp", [64, 128])   # 1 and 2 CP occasions
    @pytest.mark.parametrize("scheme,kind", [
        (Scheme.PERIODIC_TD, WindowKind.STANDARD),
        (Scheme.FSI_TAIL, WindowKind.STANDARD),
        (Scheme.FSI_TAIL, WindowKind.SHIFTED)])
    def test_matches_the_band_of_the_full_map(self, n_cp, scheme, kind):
        cfg = WaveformConfig(n_fft=256, m_codes=4, n_cp=n_cp, scs_hz=480e3)
        assert cfg.cp_occasions == n_cp // 64
        sched = make_schedule(scheme, cfg.m_codes, 16)
        tx = assemble_frame(cfg, sched, rng=substream(70, "p"))
        n_grid = grid_size(sched, cfg)
        v = 3 / (n_grid * cfg.t_chirp) * cfg.wavelength_m / 2
        rx = synthesize_rx(tx, [Target(20 * 3e8 * cfg.t_s / 2, v),
                                Target(45 * 3e8 * cfg.t_s / 2, -2 * v, 0.5)],
                           ChannelConfig(), cfg, rng=substream(70, "n"))
        band = receiver.unambiguous_band(sched)
        got = process_sensing(rx, cfg, sched, kind)
        with mock.patch.object(receiver, "unambiguous_band", lambda s: None):
            full = process_sensing(rx, cfg, sched, kind)
        assert full.n_doppler == n_grid > band == sched.k
        want = extract_band(full, band)
        assert got.values.shape == want.values.shape
        assert got.grid_size == want.grid_size == n_grid
        assert np.max(np.abs(got.values - want.values)) \
            <= 1e-12 * np.max(np.abs(want.values))

    def test_aperiodic_occasions_rejected(self, cfg_small):
        from jcas import Schedule
        sched = Schedule(Scheme.PERIODIC_TD, 4, 4, slots=(0, 1, 8, 12))
        rx = np.zeros(grid_size(sched, cfg_small) * cfg_small.l_occ, complex)
        with pytest.raises(ValueError):
            process_sensing(rx, cfg_small, sched)


class TestExtractBand:
    def test_band_columns(self, cfg_small, rng):
        vals = rng.normal(size=(cfg_small.l_occ, 80)) + 0j
        rd = RdMatrix(values=vals, grid_size=80, cfg=cfg_small)
        sub = extract_band(rd, 16)
        assert sub.values.shape == (cfg_small.l_occ, 16)
        np.testing.assert_array_equal(sub.values[:, 0], vals[:, 0])
        np.testing.assert_array_equal(sub.values[:, 15], vals[:, 79])
        np.testing.assert_array_equal(sub.values[:, 8], vals[:, 72])
        assert signed_bin(15, sub.n_doppler) == -1


class TestConventions:
    @pytest.mark.parametrize("scheme", [Scheme.SENSING_ONLY, Scheme.RTD,
                                        Scheme.FSI_RANDOM, Scheme.FSI_TAIL])
    def test_approaching_target_reads_positive_velocity(self, cfg_small, scheme):
        cfg = cfg_small
        k = 16
        sched = make_schedule(scheme, cfg.m_codes, k, rng=substream(60, "s"))
        tx = assemble_frame(cfg, sched, rng=substream(60, "p"))
        n_grid = grid_size(sched, cfg)
        nu0 = 3   # well inside every scheme's band
        v = nu0 / (n_grid * cfg.t_chirp) * cfg.wavelength_m / 2
        r_m = 20 * 3e8 * cfg.t_s / 2
        rx = synthesize_rx(tx, [Target(r_m, v)], ECHO_ONLY, cfg)
        dets = find_peaks(process_sensing(rx, cfg, sched))
        assert dets[0].doppler_bin == nu0
        assert dets[0].velocity_kmh > 0

    def test_shifted_reference_with_two_occasion_cp(self):
        # CP spanning two occasions advances the code by two steps; the
        # data-SI cancellation must still fold to a constant per symbol
        cfg = WaveformConfig(n_fft=256, m_codes=4, n_cp=128, scs_hz=480e3)
        assert cfg.cp_occasions == 2
        sched = make_schedule(Scheme.FSI_TAIL, cfg.m_codes, 6)
        tx = assemble_frame(cfg, sched, rng=substream(61, "p"))
        rx = synthesize_rx(tx, [], NO_NOISE, cfg)
        from jcas.receiver import _fsi_references
        wins = capture_windows(rx, cfg, 6, WindowKind.SHIFTED)
        refs = _fsi_references(cfg, sched, WindowKind.SHIFTED)
        folded = delay_and_sum(mix(wins, refs), cfg.m_codes)
        dev = np.abs(folded - folded.mean(axis=1, keepdims=True))
        assert np.max(dev) < 1e-10 * np.max(np.abs(folded))

    def test_dual_window_solve_with_two_occasion_cp(self):
        # end-to-end near/far split still works when the CP spans two
        # occasions (different band, different shifted-window code step)
        cfg = WaveformConfig(n_fft=256, m_codes=4, n_cp=128, scs_hz=480e3)
        sched = make_schedule(Scheme.FSI_TAIL, cfg.m_codes, 12)
        pat = build_pattern(cfg, sched)
        n_grid = grid_size(sched, cfg)
        tx = assemble_frame(cfg, sched, rng=substream(62, "p"))
        delta = 40 + cfg.l_occ     # beyond the single-window span
        nu0 = -2
        f_b = nu0 / (n_grid * cfg.t_chirp)
        rx = echo_component(tx, delta, f_b, 1.0, cfg.t_s)
        dets = find_peaks(receive_tail(rx, cfg, sched, pat)[2])
        assert dets[0].range_bin == delta
        assert dets[0].doppler_bin == nu0
