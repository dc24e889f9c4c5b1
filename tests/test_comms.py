import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from jcas import (Scheme, WaveformConfig, demodulate, despread, make_code_matrix,
                  make_schedule, modulate, run_link, substream)
from jcas.comms import _code_estimates, qpsk_ber_awgn
from jcas.util import add_noise
from jcas.waveform import assemble_frame, data_codes, random_bits, symbol_rotation, \
    transmit_constants, unitary_dft


class TestModulation:
    def test_zero_bits_map(self):
        np.testing.assert_allclose(modulate(np.array([0, 0])),
                                   [(1 + 1j) / np.sqrt(2)], atol=1e-15)

    def test_gray_neighbors(self):
        # adjacent constellation points differ in exactly one bit
        pts = {tuple(demodulate(modulate(np.array(b)))): modulate(np.array(b))[0]
               for b in ([0, 0], [0, 1], [1, 0], [1, 1])}
        assert abs(pts[(0, 0)] - pts[(0, 1)]) < 1.5  # one quadrature flip
        assert abs(pts[(0, 0)] - pts[(1, 1)]) > 1.5  # diagonal

    def test_roundtrip_10k(self, rng):
        bits = rng.integers(0, 2, 10_000)
        np.testing.assert_array_equal(demodulate(modulate(bits)), bits)

    def test_unit_power(self, rng):
        syms = modulate(rng.integers(0, 2, 2000))
        assert abs(np.mean(np.abs(syms) ** 2) - 1.0) < 1e-12

    def test_noiseless_evm_zero(self, rng):
        syms = modulate(rng.integers(0, 2, 256))
        assert np.max(np.abs(syms - modulate(demodulate(syms)))) < 1e-15

    def test_odd_bits_rejected(self):
        with pytest.raises(ValueError):
            modulate(np.array([1, 0, 1]))


class TestDespread:
    def test_cross_code_leakage(self, cfg_small, rng):
        # a pure code-i symbol despread with code j yields nothing
        cfg = cfg_small
        codes = make_code_matrix(cfg.m_codes)
        d = rng.normal(size=cfg.l_occ) + 1j * rng.normal(size=cfg.l_occ)
        s = (d[:, None] * codes[1][None, :]).reshape(-1)
        est, _ = despread(s, codes, sensing_code=0)
        leak = np.sum(np.abs(est[2]) ** 2) / np.sum(np.abs(d) ** 2)
        assert 10 * np.log10(leak + 1e-300) <= -100
        np.testing.assert_allclose(est[1], d, atol=1e-12)


class TestRunLink:
    def test_noiseless_ber_zero_105_bits(self, cfg):
        k = 33   # 33 * 3072 = 101376 bits >= 1e5
        sched = make_schedule(Scheme.FSI_RANDOM, cfg.m_codes, k,
                              rng=substream(50, "s"))
        bits = substream(50, "bits").integers(0, 2, k * 3072)
        ber, evm = run_link(cfg, sched, bits)
        assert bits.size >= 100_000
        assert ber == 0.0
        assert evm < 1e-12

    def test_tail_mode_rotation_handled(self, cfg_small):
        k = 4
        sched = make_schedule(Scheme.FSI_TAIL, cfg_small.m_codes, k)
        bits = substream(52, "bits").integers(0, 2, k * 2 * 3 * cfg_small.l_occ)
        ber, _ = run_link(cfg_small, sched, bits)
        assert ber == 0.0

    def test_ber_at_10db_matches_analytic(self, cfg):
        k = 130   # ~4e5 bits: enough for a +-30% check at BER ~7.8e-4
        sched = make_schedule(Scheme.FSI_RANDOM, cfg.m_codes, k,
                              rng=substream(53, "s"))
        bits = substream(53, "bits").integers(0, 2, k * 3072)
        ber, _ = run_link(cfg, sched, bits, snr_db=10.0,
                          rng=substream(53, "noise"))
        ref = qpsk_ber_awgn(10.0)
        assert abs(ber - ref) <= 0.3 * ref

    @pytest.mark.parametrize("scheme, k, snr_db, ber, evm", [
        (Scheme.FSI_RANDOM, 6, 6.0, 0.024305555555555556, "0x1.046cc6f62a9a6p-1"),
        (Scheme.FSI_TAIL, 4, 0.0, 0.15494791666666666, "0x1.00b97fb544b55p+0")])
    def test_noisy_link_pinned(self, cfg_small, scheme, k, snr_db, ber, evm):
        # the noise is one (2, n) standard normal draw, real parts first,
        # through util.add_noise; two n-sample Generator.normal draws, real
        # then imaginary, gave these same bits
        sched = make_schedule(scheme, cfg_small.m_codes, k, rng=substream(3, "s"))
        bits = substream(3, "b").integers(0, 2, 2 * 3 * cfg_small.l_occ * k)
        got = run_link(cfg_small, sched, bits, snr_db=snr_db, rng=substream(3, "n"))
        assert (got[0], float(got[1]).hex()) == (ber, evm)

    def test_sensing_presence_does_not_perturb_data(self, cfg_small):
        # same despread output whether the chirp term is present or not; the
        # frame is linear in the payload, so the chirp-free frame is the
        # difference from the frame of a zero payload
        from jcas import assemble_frame, unitary_dft
        from jcas.comms import modulate
        k = 2
        sched = make_schedule(Scheme.FSI_RANDOM, cfg_small.m_codes, k,
                              rng=substream(54, "s"))
        bits = substream(54, "bits").integers(0, 2, k * 2 * 3 * cfg_small.l_occ)
        payload = modulate(bits).reshape(k, 3, cfg_small.l_occ)
        tx_with = assemble_frame(cfg_small, sched, payload=payload)
        tx_wo = tx_with - assemble_frame(cfg_small, sched,
                                         payload=np.zeros_like(payload))
        codes = make_code_matrix(cfg_small.m_codes)
        s_len = cfg_small.symbol_len
        for ks in range(k):
            for tx in (tx_with, tx_wo):
                spec = unitary_dft(tx[ks * s_len + cfg_small.n_cp:
                                      (ks + 1) * s_len])
                est, _ = despread(spec, codes, sched.alpha[ks])
                others = [i for i in range(4) if i != sched.alpha[ks]]
                for row, i in enumerate(others):
                    np.testing.assert_allclose(est[i], payload[ks, row],
                                               atol=1e-12)

    def test_resource_accounting(self, cfg):
        # exactly (M-1)*L data symbols per OFDM symbol
        sched = make_schedule(Scheme.FSI_TAIL, cfg.m_codes, 1)
        assert run_link(cfg, sched, np.zeros(2 * 3 * 512, dtype=int))[0] == 0
        with pytest.raises(ValueError):
            run_link(cfg, sched, np.zeros(2 * 3 * 512 + 2, dtype=int))

    def test_unbounded_snr_rejected(self, cfg_small):
        sched = make_schedule(Scheme.FSI_TAIL, cfg_small.m_codes, 1)
        bits = np.zeros(2 * 3 * cfg_small.l_occ, dtype=int)
        with pytest.raises(ValueError):
            run_link(cfg_small, sched, bits, snr_db=-1e4,
                     rng=np.random.default_rng(0))

    def test_wrong_bit_count(self, cfg_small):
        sched = make_schedule(Scheme.FSI_TAIL, cfg_small.m_codes, 2)
        with pytest.raises(ValueError):
            run_link(cfg_small, sched, np.zeros(100, dtype=int))


def oracle_link(cfg, schedule, bits, snr_db=None, rng=None):
    """run_link as it was: int64 bits, and the errors counted against the
    bits demodulate decides."""
    bits = np.asarray(bits, dtype=np.int64).ravel()
    m, l, k = cfg.m_codes, cfg.l_occ, schedule.k
    payload = modulate(bits).reshape(k, m - 1, l)
    rx = assemble_frame(cfg, schedule, payload=payload)
    if snr_db is not None:
        add_noise(rx, np.sqrt(10 ** (-snr_db / 10) / 2), rng)
    bodies = rx.reshape(k, cfg.symbol_len)[:, cfg.n_cp:]
    unitary_dft(bodies, out=bodies)
    bodies *= np.conj(symbol_rotation(np.arange(k), m, schedule.scheme))[:, None]
    _, codes, _ = transmit_constants(cfg)
    data = _code_estimates(bodies, codes, data_codes(schedule.alpha, m))
    err = int(np.count_nonzero(demodulate(data) != bits))
    data -= payload
    n_data = k * (m - 1) * l
    return err / (2 * n_data), np.sqrt(np.vdot(data, data).real / n_data)


@settings(max_examples=40, deadline=None)
@given(scheme=st.sampled_from([Scheme.FSI_RANDOM, Scheme.FSI_TAIL]),
       k=st.integers(1, 8), seed=st.integers(0, 2**16),
       snr_db=st.one_of(st.none(), st.floats(-10, 20)))
@example(scheme=Scheme.FSI_RANDOM, k=8, seed=0, snr_db=None)
@example(scheme=Scheme.FSI_TAIL, k=5, seed=1, snr_db=-3.0)
def test_link_matches_the_int64_decisions(scheme, k, seed, snr_db):
    # uint8 bits and sign-bit error counts give the BER and EVM of int64
    # bits compared with demodulate's decisions, to the last bit of the repr
    cfg = WaveformConfig(n_fft=64, m_codes=4, n_cp=16, scs_hz=480e3)
    sched = make_schedule(scheme, cfg.m_codes, k, rng=substream(seed, "s"))
    bits = random_bits(substream(seed, "b"), 2 * 3 * cfg.l_occ * k)
    want = oracle_link(cfg, sched, bits, snr_db, substream(seed, "n"))
    for given_bits in (bits, bits.astype(np.int64)):
        got = run_link(cfg, sched, given_bits, snr_db, substream(seed, "n"))
        assert repr(got) == repr(want)
