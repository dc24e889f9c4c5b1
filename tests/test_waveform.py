import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from jcas import (Scheme, WaveformConfig, assemble_frame, make_base_set,
                  make_chirp, make_code_matrix, make_schedule,
                  make_sensing_waveforms, modulate, spread_and_assemble,
                  substream, transmit_constants, unitary_dft, unitary_idft,
                  waveform)
from jcas.scheduler import grid_size
from jcas.waveform import frame_len, random_bits, random_qpsk


class TestUnitaryDft:
    def test_delta_to_flat(self):
        out = unitary_dft(np.array([1.0, 0, 0, 0]))
        np.testing.assert_allclose(out, [0.5, 0.5, 0.5, 0.5], atol=1e-15)

    def test_flat_to_scaled_delta(self):
        # hand evaluation of the unitary 4-point DFT of all-ones
        out = unitary_dft(np.ones(4))
        np.testing.assert_allclose(out, [2, 0, 0, 0], atol=1e-14)

    def test_roundtrip(self, rng):
        v = rng.normal(size=257) + 1j * rng.normal(size=257)
        np.testing.assert_allclose(unitary_idft(unitary_dft(v)), v, atol=1e-13)

    def test_into_the_callers_buffer_is_bit_identical(self, rng):
        # the comms link transforms its symbol bodies, rows of the frame, in
        # place; every form equals the transform divided by sqrt(size)
        frame = rng.normal(size=(5, 96)) + 1j * rng.normal(size=(5, 96))
        bodies = frame[:, 32:]
        want = (np.fft.fft(bodies, axis=-1) / np.sqrt(64)).tobytes()
        assert unitary_dft(bodies).tobytes() == want
        out = np.empty((5, 64), dtype=complex)
        assert unitary_dft(bodies, out=out) is out and out.tobytes() == want
        assert unitary_dft(bodies, out=bodies) is bodies
        assert bodies.tobytes() == want

    def test_parseval(self, rng):
        v = rng.normal(size=64) + 1j * rng.normal(size=64)
        assert abs(np.linalg.norm(unitary_dft(v)) - np.linalg.norm(v)) < 1e-12

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            unitary_dft(np.array([]))


class TestChirp:
    def test_unit_modulus(self, cfg):
        c = make_chirp(cfg)
        np.testing.assert_allclose(np.abs(c), 1.0, atol=1e-13)

    def test_default_phase_midpoint(self, cfg):
        # with B*t_s = 1 the phase is pi*(n^2/L - n); at n=256, e^{-j128pi}=1
        c = make_chirp(cfg)
        n = np.arange(cfg.l_occ)
        expected = np.exp(1j * np.pi * (n ** 2 / cfg.l_occ - n))
        np.testing.assert_allclose(c, expected, atol=1e-9)
        assert abs(c[256] - 1.0) < 1e-10


class TestBaseSet:
    @pytest.fixture
    def cfg4(self):
        return WaveformConfig(n_fft=4, m_codes=2, n_cp=2, scs_hz=1e6)

    def test_m2_row0_hand_dft(self, cfg4):
        base = make_base_set(cfg4, np.array([1.0, 1.0]))
        np.testing.assert_allclose(base[0], [1, 1, 1, 1], atol=1e-15)
        np.testing.assert_allclose(unitary_dft(base[0]), [2, 0, 0, 0],
                                   atol=1e-14)

    def test_m2_row1_hand_dft(self, cfg4):
        base = make_base_set(cfg4, np.array([1.0, 1.0]))
        np.testing.assert_allclose(base[1], [1, 1j, -1, -1j], atol=1e-14)
        np.testing.assert_allclose(unitary_dft(base[1]), [0, 2, 0, 0],
                                   atol=1e-14)

    def test_spectral_support_bruteforce(self, rng):
        # row m occupies exactly the subcarriers congruent to m (mod M)
        cfg = WaveformConfig(n_fft=8, m_codes=4, n_cp=2, scs_hz=1e6)
        chirp = np.exp(2j * np.pi * rng.random(2))
        base = make_base_set(cfg, chirp)
        dft_mat = np.exp(-2j * np.pi * np.outer(np.arange(8), np.arange(8)) / 8) / np.sqrt(8)
        for m in range(4):
            spec = dft_mat @ base[m]
            off = [abs(spec[i]) for i in range(8) if i % 4 != m]
            assert max(off) < 1e-12
            on = np.sqrt(4) * unitary_dft(chirp)
            np.testing.assert_allclose(spec[m::4], on, atol=1e-12)

    def test_constant_envelope(self, cfg):
        chirp = make_chirp(cfg)
        rows = make_base_set(cfg, chirp)
        assert np.max(np.abs(np.abs(rows) - 1)) <= 1e-12

    def test_length_mismatch(self, cfg4):
        with pytest.raises(ValueError):
            make_base_set(cfg4, np.ones(3))


class TestCodeMatrix:
    def test_m1(self):
        np.testing.assert_allclose(make_code_matrix(1), [[1.0]], atol=1e-15)

    def test_m2_hand_values(self):
        u = make_code_matrix(2)
        expected = np.array([[1, -1j], [1, 1j]]) / np.sqrt(2)
        np.testing.assert_allclose(u, expected, atol=1e-14)

    @pytest.mark.parametrize("m", [2, 3, 4, 8, 16])
    def test_unitarity(self, m):
        u = make_code_matrix(m)
        np.testing.assert_allclose(u @ u.conj().T, np.eye(m), atol=1e-12)
        np.testing.assert_allclose(np.abs(u), 1 / np.sqrt(m), atol=1e-13)

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            make_code_matrix(0)


class TestSensingWaveforms:
    # transmit_constants' waveforms: TestTransmitConstants holds them equal
    # to make_sensing_waveforms of the base set and code matrix
    def test_occasion_zero_energy_fraction_m2(self):
        # closed form: fraction -> (2pi+4)/(4pi); exact discrete value is
        # 1/2 + cot(pi/N)/N, computed independently as the oracle
        cfg = WaveformConfig(n_fft=1024, m_codes=2, n_cp=512, scs_hz=120e3)
        waves = transmit_constants(cfg)[2]
        e0 = np.sum(np.abs(waves[0][:cfg.l_occ]) ** 2)
        total = np.sum(np.abs(waves[0]) ** 2)
        n = cfg.n_fft
        discrete_oracle = 0.5 + (1 / np.tan(np.pi / n)) / n
        assert abs(e0 / total - discrete_oracle) < 1e-12
        assert abs(e0 / total - (2 * np.pi + 4) / (4 * np.pi)) < 1e-4

    def test_total_energy(self, cfg):
        waves = transmit_constants(cfg)[2]
        for m in range(cfg.m_codes):
            assert abs(np.sum(np.abs(waves[m]) ** 2) - cfg.n_fft) < 1e-8

    @pytest.mark.parametrize("m", [2, 4, 8])
    def test_cyclic_code_shift_identity(self, m):
        cfg = WaveformConfig(n_fft=128 * m, m_codes=m, n_cp=128, scs_hz=1e6)
        waves = transmit_constants(cfg)[2]
        for i in range(m):
            np.testing.assert_allclose(np.roll(waves[i], cfg.l_occ),
                                       waves[(i + 1) % m], atol=1e-12)

    def test_energy_localized_at_own_occasion(self, cfg):
        waves = transmit_constants(cfg)[2]
        l = cfg.l_occ
        for m in range(cfg.m_codes):
            per_occ = [np.sum(np.abs(waves[m][q * l:(q + 1) * l]) ** 2)
                       for q in range(cfg.m_codes)]
            assert int(np.argmax(per_occ)) == m

    def test_shape_mismatch(self, cfg):
        chirp = make_chirp(cfg)
        base = make_base_set(cfg, chirp)
        with pytest.raises(ValueError):
            make_sensing_waveforms(base, make_code_matrix(cfg.m_codes + 1))


class TestSpreadAndAssemble:
    def test_sensing_only_symbol_is_bm(self, cfg_small):
        cfg = cfg_small
        chirp, codes, waves = transmit_constants(cfg)
        for m in range(cfg.m_codes):
            spectrum = spread_and_assemble(cfg, m, unitary_dft(chirp),
                                           np.zeros((cfg.m_codes - 1, cfg.l_occ)),
                                           codes)
            np.testing.assert_allclose(unitary_idft(spectrum), waves[m],
                                       atol=1e-12)

    def test_despread_recovers_data_and_sensing(self, cfg_small, rng):
        cfg = cfg_small
        chirp, codes, _ = transmit_constants(cfg)
        spec = unitary_dft(chirp)
        data = rng.normal(size=(3, cfg.l_occ)) + 1j * rng.normal(size=(3, cfg.l_occ))
        groups = spread_and_assemble(cfg, 2, spec, data, codes).reshape(-1, cfg.m_codes)
        others = [0, 1, 3]
        for row, i in enumerate(others):
            est = groups @ np.conj(codes[i])
            np.testing.assert_allclose(est, data[row], atol=1e-12)
        sens = groups @ np.conj(codes[2])
        np.testing.assert_allclose(sens, np.sqrt(cfg.m_codes) * spec, atol=1e-12)

    def test_unitarity_of_assembly(self, cfg_small, rng):
        cfg = cfg_small
        codes = make_code_matrix(cfg.m_codes)
        spec = rng.normal(size=cfg.l_occ) + 1j * rng.normal(size=cfg.l_occ)
        data = rng.normal(size=(3, cfg.l_occ)) + 0j
        spectrum = spread_and_assemble(cfg, 0, spec, data, codes)
        assert abs(np.linalg.norm(unitary_idft(spectrum)) - np.linalg.norm(spectrum)) < 1e-10

    def test_wrong_shapes(self, cfg_small):
        cfg = cfg_small
        codes = make_code_matrix(cfg.m_codes)
        with pytest.raises(ValueError):
            spread_and_assemble(cfg, 0, np.ones(cfg.l_occ),
                                np.zeros((2, cfg.l_occ)), codes)


class TestAssembleFrame:
    def test_fsi_frame_length(self, cfg_small, rng):
        sched = make_schedule(Scheme.FSI_RANDOM, cfg_small.m_codes, 7, rng=rng)
        frame = assemble_frame(cfg_small, sched, rng=rng)
        assert len(frame) == 7 * (cfg_small.n_fft + cfg_small.n_cp)

    def test_sensing_only_is_tiled_chirp(self, cfg_small):
        sched = make_schedule(Scheme.SENSING_ONLY, cfg_small.m_codes, 3)
        frame = assemble_frame(cfg_small, sched)
        chirp = make_chirp(cfg_small)
        np.testing.assert_allclose(frame,
                                   np.tile(chirp, cfg_small.m_codes * 3),
                                   atol=1e-14)

    def test_rtd_frame_layout(self, cfg_small):
        rng = substream(5, "sched")
        sched = make_schedule(Scheme.RTD, cfg_small.m_codes, 8, rng=rng)
        l = cfg_small.l_occ
        payload = substream(5, "payload").normal(size=(3 * 8, l)) + 0j
        frame = assemble_frame(cfg_small, sched, payload=payload)
        assert len(frame) == cfg_small.m_codes * 8 * cfg_small.l_occ
        chirp = make_chirp(cfg_small)
        for g in sched.slots:
            np.testing.assert_allclose(frame[g * l:(g + 1) * l],
                                       chirp, atol=1e-14)
        # data slots carry the payload rows in slot order
        data_slots = sorted(set(range(cfg_small.m_codes * 8)) - set(sched.slots))
        for row, g in enumerate(data_slots):
            np.testing.assert_allclose(frame[g * l:(g + 1) * l],
                                       unitary_idft(payload[row]), atol=1e-14)

    @pytest.mark.parametrize("scheme", [Scheme.FSI_RANDOM, Scheme.FSI_TAIL])
    def test_fsi_frame_matches_per_symbol_loop(self, cfg_small, scheme):
        # reference: spread, IDFT, rotate and prepend the CP symbol by symbol
        cfg, m = cfg_small, cfg_small.m_codes
        sched = make_schedule(scheme, m, 6, rng=substream(11, "s"))
        rng = substream(11, "p")
        payload = rng.normal(size=(6, m - 1, cfg.l_occ)) \
            + 1j * rng.normal(size=(6, m - 1, cfg.l_occ))
        frame = assemble_frame(cfg, sched, payload=payload)
        u = make_code_matrix(m)
        spec = unitary_dft(make_chirp(cfg))
        s = cfg.symbol_len
        for k, a in enumerate(sched.alpha):
            grid = np.sqrt(m) * spec[:, None] * u[a]
            for row, i in enumerate(c for c in range(m) if c != a):
                grid = grid + payload[k, row][:, None] * u[i]
            body = unitary_idft(grid.reshape(-1))
            if scheme is Scheme.FSI_TAIL:
                body = body * np.exp(2j * np.pi * k / m)
            np.testing.assert_allclose(frame[k * s:(k + 1) * s],
                                       np.concatenate([body[-cfg.n_cp:], body]),
                                       rtol=0, atol=1e-12)

    def test_fixed_seed_reproducible(self, cfg_small):
        frames = []
        for _ in range(2):
            sched = make_schedule(Scheme.FSI_RANDOM, cfg_small.m_codes, 4,
                                  rng=substream(9, "sched"))
            frames.append(assemble_frame(cfg_small, sched,
                                         rng=substream(9, "payload")))
        assert frames[0].tobytes() == frames[1].tobytes()

    @pytest.mark.parametrize("scheme,payload", [
        *[(s, "rng") for s in Scheme], (Scheme.FSI_RANDOM, "comms"),
        (Scheme.FSI_TAIL, "comms")])
    def test_blocks_are_bit_identical(self, cfg, scheme, payload):
        # spread and transformed a symbol or slot at a time, ASSEMBLE_BLOCK_SAMPLES
        # at a time (blocks of 16 symbols or 64 slots, the last partial), and
        # the whole frame at once
        sched = make_schedule(scheme, cfg.m_codes, 40, rng=substream(8, "s"))
        bits = substream(8, "bits").integers(0, 2, 2 * 40 * (cfg.m_codes - 1) * cfg.l_occ)
        frames = []
        for block in (1, waveform.ASSEMBLE_BLOCK_SAMPLES, frame_len(cfg, sched)):
            source = {"rng": substream(8, "p")} if payload == "rng" else \
                {"payload": modulate(bits).reshape(40, cfg.m_codes - 1, cfg.l_occ)}
            with mock.patch.object(waveform, "ASSEMBLE_BLOCK_SAMPLES", block):
                frames.append(assemble_frame(cfg, sched, **source).tobytes())
        assert frames[0] == frames[1] == frames[2]

    def test_payload_size_mismatch(self, cfg_small, rng):
        # both frame kinds: (K, M-1, L) implanted, (data slots, L) slotted; a
        # zero payload of that shape is the frame drawn without an rng
        m, l = cfg_small.m_codes, cfg_small.l_occ
        for scheme in (Scheme.FSI_RANDOM, Scheme.RTD):
            sched = make_schedule(scheme, m, 4, rng=rng)
            want = (4, m - 1, l) if scheme.is_fsi else (4 * m - len(set(sched.slots)), l)
            assert assemble_frame(cfg_small, sched, payload=np.zeros(want)).tobytes() \
                == assemble_frame(cfg_small, sched).tobytes()
            for bad in ((3, m - 1, l), want[:-1] + (l + 1,), want[1:]):
                with pytest.raises(ValueError, match=re.escape(
                        f"payload shape {bad} does not fit the {scheme.value} "
                        f"frame's {want}")):
                    assemble_frame(cfg_small, sched, payload=np.zeros(bad))


def qpsk_oracle(rng, size):
    """random_qpsk as it was: the symbols computed from the two bit draws."""
    re = rng.integers(0, 2, size) * 2 - 1
    im = rng.integers(0, 2, size) * 2 - 1
    return (re + 1j * im) / np.sqrt(2)


class TestRandomQpsk:
    @pytest.mark.parametrize("size", [7, (64, 3, 512), (240, 512)])
    def test_table_equals_the_formula_bit_for_bit(self, size):
        got = random_qpsk(substream(4, "payload"), size)
        want = qpsk_oracle(substream(4, "payload"), size)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


class TestBlockwisePayload:
    """assemble_frame draws its payload a block at a time, real-part bits
    first: the frame of random_qpsk's whole draw, bit for bit."""

    @settings(max_examples=60, deadline=None)
    @given(scheme=st.sampled_from(list(Scheme)), k=st.integers(1, 9),
           seed=st.integers(0, 2**16),
           block=st.one_of(st.just(1), st.integers(0, 40).map(lambda i: 2 * i + 1)),
           symbols=st.sampled_from([1, 3, 5]))
    @example(scheme=Scheme.FSI_RANDOM, k=9, seed=0, block=1, symbols=1)
    @example(scheme=Scheme.RTD, k=9, seed=1, block=33, symbols=3)
    def test_equals_the_whole_draw(self, scheme, k, seed, block, symbols):
        # block: random_bits' draws; symbols: the symbols (or data slots) a
        # block spreads, ASSEMBLE_BLOCK_SAMPLES // N (or // L) of them
        cfg = WaveformConfig(n_fft=64, m_codes=4, n_cp=16, scs_hz=480e3)
        sched = make_schedule(scheme, cfg.m_codes, k, rng=substream(seed, "s"))
        if scheme.is_fsi:
            shape, width = (k, cfg.m_codes - 1, cfg.l_occ), cfg.n_fft
        else:
            shape = (cfg.m_codes * k - len(set(sched.slots)), cfg.l_occ)
            width = cfg.l_occ
        want = assemble_frame(cfg, sched, payload=random_qpsk(substream(seed, "p"), shape))
        for samples in (block, symbols * width):
            with mock.patch.object(waveform, "ASSEMBLE_BLOCK_SAMPLES", samples):
                got = assemble_frame(cfg, sched, rng=substream(seed, "p"))
            assert got.tobytes() == want.tobytes()

    @settings(max_examples=60, deadline=None)
    @given(shape=st.one_of(st.integers(0, 300),
                           st.tuples(st.integers(0, 9), st.integers(1, 7), st.integers(1, 5))),
           block=st.integers(1, 64), seed=st.integers(0, 2**16))
    def test_random_bits_are_one_draw(self, shape, block, seed):
        rng, ref = substream(seed, "b"), substream(seed, "b")
        with mock.patch.object(waveform, "ASSEMBLE_BLOCK_SAMPLES", block):
            bits = random_bits(rng, shape)
        want = ref.integers(0, 2, shape)
        assert bits.dtype == np.uint8 and bits.shape == want.shape
        assert np.array_equal(bits, want)
        # the stream goes on where the whole draw leaves it
        assert rng.integers(0, 2**62) == ref.integers(0, 2**62)


@pytest.mark.parametrize("scheme", list(Scheme))
def test_frame_len_is_the_assembled_length(cfg_small, scheme):
    # a frame is G occasions of L samples: N + N_CP = (M + N_CP/L) L
    for cp_occasions in 0, 1, 2:
        cfg = WaveformConfig(n_fft=cfg_small.n_fft, m_codes=cfg_small.m_codes,
                             n_cp=cp_occasions * cfg_small.l_occ, scs_hz=cfg_small.scs_hz)
        sched = make_schedule(scheme, cfg.m_codes, 5, rng=substream(2, "s"))
        frame = assemble_frame(cfg, sched, rng=substream(2, "p"))
        want = sched.k * (cfg.n_cp + cfg.n_fft) if scheme.is_fsi \
            else cfg.m_codes * sched.k * cfg.l_occ
        assert len(frame) == frame_len(cfg, sched) == want
        assert want == grid_size(sched, cfg) * cfg.l_occ


class TestTransmitConstants:
    def test_built_once_read_only_and_equal_to_builders(self, cfg_small):
        chirp, codes, b = transmit_constants(cfg_small)
        again = WaveformConfig(n_fft=256, m_codes=4, n_cp=64, scs_hz=480e3)
        assert transmit_constants(again)[2] is b
        for a in (chirp, codes, b):
            with pytest.raises(ValueError):
                a[0] = 0
        fresh = make_chirp(cfg_small)
        np.testing.assert_array_equal(chirp, fresh)
        np.testing.assert_array_equal(codes, make_code_matrix(4))
        np.testing.assert_array_equal(
            b, make_sensing_waveforms(make_base_set(cfg_small, fresh), codes))


class TestConfigValidation:
    def test_indivisible_fft(self):
        with pytest.raises(ValueError):
            WaveformConfig(n_fft=100, m_codes=3, n_cp=25, scs_hz=60e3)

    def test_cp_not_multiple_of_occasion(self):
        with pytest.raises(ValueError):
            WaveformConfig(n_fft=2048, m_codes=4, n_cp=500, scs_hz=60e3)

    @pytest.mark.parametrize("n_fft,n_cp", [(0, 512), (2, 0), (2048, -512),
                                            (2048, 2560)])
    def test_sizes_out_of_range(self, n_fft, n_cp):
        with pytest.raises(ValueError):
            WaveformConfig(n_fft=n_fft, m_codes=4, n_cp=n_cp, scs_hz=60e3)

    @pytest.mark.parametrize("carrier_hz", [0.0, -60e9, 1e308, float("nan")])
    def test_carrier_out_of_range(self, carrier_hz):
        with pytest.raises(ValueError):
            WaveformConfig(carrier_hz=carrier_hz)

    @pytest.mark.parametrize("scs_hz", [0.0, 1e-300, 0.5, 1e13, float("nan")])
    def test_scs_out_of_range(self, scs_hz):
        with pytest.raises(ValueError):
            WaveformConfig(scs_hz=scs_hz)

    def test_derived_quantities(self, cfg):
        assert cfg.l_occ == 512
        assert abs(cfg.b_hz - 122.88e6) < 1
        assert abs(cfg.t_s - 8.138020833e-9) < 1e-15
        assert abs(cfg.t_chirp - 512 / 122.88e6) < 1e-15
