import math
import tracemalloc
from concurrent.futures import Future
from unittest import mock

import numpy as np
import pytest
import scipy.fft
from hypothesis import example, given, settings
from hypothesis import strategies as st

from jcas import (ChannelConfig, Scheme, Target, WaveformConfig, assemble_frame,
                  channel, make_schedule, substream, synthesize_rx,
                  target_to_delay_doppler)
from jcas.channel import doppler_ramp, echo_component, start_noise
from jcas.cli import Scenario

NO_NOISE = ChannelConfig(noise_enabled=False)
ECHO_ONLY = ChannelConfig(si_enabled=False, noise_enabled=False)


class TestDelayDoppler:
    def test_zero_target(self, cfg):
        d, f = target_to_delay_doppler(Target(0.0, 0.0), cfg.carrier_hz, cfg.t_s)
        assert d == 0 and f == 0

    def test_delay_200m(self, cfg):
        # 2*200m / c / t_s = 400 * 122.88e6 / 3e8 = 163.84 samples exactly
        d, _ = target_to_delay_doppler(Target(200.0, 0.0), cfg.carrier_hz, cfg.t_s)
        assert abs(d - 163.84) < 1e-9

    def test_doppler_500kmh(self, cfg):
        # 2v/lambda with lambda = 5 mm at 60 GHz
        _, f = target_to_delay_doppler(Target(0.0, 500 / 3.6), cfg.carrier_hz,
                                       cfg.t_s)
        assert abs(f - 55555.5555) < 0.1

    def test_negative_range_rejected(self):
        with pytest.raises(ValueError):
            Target(-1.0, 0.0)

    def test_overflowing_delay_rejected(self, cfg):
        with pytest.raises(ValueError):
            target_to_delay_doppler(Target(1e308, 0.0), cfg.carrier_hz, cfg.t_s)

    @pytest.mark.parametrize("velocity,amplitude", [
        (3e8, 1.0), (-1e300, 1.0), (0.0, 1e300), (0.0, float("inf"))])
    def test_unphysical_target_rejected(self, velocity, amplitude):
        with pytest.raises(ValueError):
            Target(10.0, velocity, amplitude)

    @pytest.mark.parametrize("level", [{"si_over_echo_db": 1e4},
                                       {"echo_snr_db": -1e4},
                                       {"echo_snr_db": float("nan")}])
    def test_unbounded_db_level_rejected(self, level):
        with pytest.raises(ValueError):
            ChannelConfig(**level)


def _frame(cfg, k=4, seed=0):
    sched = make_schedule(Scheme.FSI_RANDOM, cfg.m_codes, k,
                          rng=substream(seed, "sched"))
    return assemble_frame(cfg, sched, rng=substream(seed, "payload"))


class TestSynthesizeRx:
    def test_si_only_passthrough(self, cfg_small):
        tx = _frame(cfg_small)
        rx = synthesize_rx(tx, [], NO_NOISE, cfg_small)
        np.testing.assert_allclose(rx, 1e5 * tx, rtol=1e-12)

    def test_pure_integer_shift(self, cfg_small):
        tx = _frame(cfg_small)
        r_m = 37 * 3e8 * cfg_small.t_s / 2   # exactly 37 samples
        rx = synthesize_rx(tx, [Target(r_m, 0.0)], ECHO_ONLY, cfg_small)
        np.testing.assert_allclose(rx[37:], tx[:-37], atol=1e-12)
        np.testing.assert_allclose(rx[:37], 0, atol=1e-15)

    def test_measured_snr(self, cfg):
        tx = _frame(cfg, k=16, seed=3)
        cc = ChannelConfig(si_enabled=False, noise_enabled=True)
        rx = synthesize_rx(tx, [Target(100.0, 10.0)], cc, cfg,
                           rng=substream(3, "noise"))
        echo = synthesize_rx(tx, [Target(100.0, 10.0)], ECHO_ONLY, cfg)
        noise = rx - echo
        ratio = np.mean(np.abs(echo) ** 2) / np.mean(np.abs(noise) ** 2)
        assert abs(ratio - 0.1) < 0.005  # -10 dB within 5%

    def test_linearity_noise_off(self, cfg_small):
        tx = _frame(cfg_small)
        targets = [Target(50.0, 30.0), Target(120.0, -80.0, amplitude=0.5)]
        rx1 = synthesize_rx(tx, targets, NO_NOISE, cfg_small)
        rx3 = synthesize_rx(3.0 * tx, targets, NO_NOISE, cfg_small)
        np.testing.assert_allclose(rx3, 3.0 * rx1, rtol=1e-12)

    def test_zero_velocity_commutes_with_si(self, cfg_small):
        # a static unit echo is the SI path scaled and shifted
        tx = _frame(cfg_small)
        r_m = 21 * 3e8 * cfg_small.t_s / 2
        rx = synthesize_rx(tx, [Target(r_m, 0.0)], ECHO_ONLY, cfg_small)
        si = synthesize_rx(tx, [], NO_NOISE, cfg_small)
        np.testing.assert_allclose(rx[21:],
                                   si[:-21] / 1e5, atol=1e-10)

    def test_noise_reproducible(self, cfg_small):
        tx = _frame(cfg_small)
        cc = ChannelConfig()
        a = synthesize_rx(tx, [Target(10.0, 5.0)], cc, cfg_small,
                          rng=substream(7, "noise"))
        b = synthesize_rx(tx, [Target(10.0, 5.0)], cc, cfg_small,
                          rng=substream(7, "noise"))
        assert a.tobytes() == b.tobytes()

    def test_levels_follow_the_largest_magnitude(self, cfg_small):
        # SI and noise are referenced to the largest |amplitude|: negating
        # every amplitude turns each echo over and leaves both levels
        tx = _frame(cfg_small)
        targets = [Target(50.0, 30.0, -10.0), Target(120.0, -80.0, 1.0)]
        noisy = ChannelConfig(si_enabled=False, echo_snr_db=0.0)
        noise = []
        for sign in (1, -1):
            ts = [Target(t.range_m, t.velocity_mps, sign * t.amplitude) for t in targets]
            echoes = synthesize_rx(tx, ts, ECHO_ONLY, cfg_small)
            si = synthesize_rx(tx, ts, NO_NOISE, cfg_small) - echoes
            np.testing.assert_allclose(si, 1e6 * tx, rtol=0, atol=1e-6)   # 100 dB over 10
            noise.append(synthesize_rx(tx, ts, noisy, cfg_small,
                                       rng=substream(9, "noise")) - echoes)
        np.testing.assert_allclose(noise[1], noise[0], rtol=0, atol=1e-9)
        ratio = np.mean(np.abs(noise[0]) ** 2) / np.mean(np.abs(tx) ** 2)
        assert abs(ratio / 100 - 1) < 0.1   # 0 dB below an echo of amplitude 10

    def test_empty_frame_rejected(self, cfg_small):
        with pytest.raises(ValueError):
            synthesize_rx(np.array([], dtype=complex), [], NO_NOISE, cfg_small)


class TestEchoComponent:
    def test_fractional_matches_integer_on_grid(self, cfg_small, rng):
        x = rng.normal(size=512) + 1j * rng.normal(size=512)
        a = echo_component(x, 9.0, 0.0, 1.0, cfg_small.t_s)
        b = echo_component(x, 9.0, 0.0, 1.0, cfg_small.t_s, fractional=True)
        # the padded transform shifts linearly: the leading gap stays empty
        np.testing.assert_allclose(a, b, atol=1e-9)

    def test_doppler_ramp(self, cfg_small):
        x = np.ones(100, dtype=complex)
        out = echo_component(x, 0, 1e5, 2.0, cfg_small.t_s)
        expected = 2.0 * np.exp(2j * np.pi * 1e5 * np.arange(100) * cfg_small.t_s)
        np.testing.assert_allclose(out, expected, rtol=1e-12)

    def test_delay_beyond_the_frame_gives_no_echo(self, rng):
        # a fractional (circular) delay used to wrap n + 10 back to 10
        x = rng.normal(size=256) + 1j * rng.normal(size=256)
        for delay in (256.0, 266.0, 1e6):
            for fractional in (False, True):
                out = echo_component(x, delay, 1e4, 1.0, 1e-6, fractional)
                assert out.shape == x.shape and not out.any()

    def test_target_beyond_the_frame_adds_nothing(self, cfg_small):
        tx = _frame(cfg_small)
        far = Target((len(tx) + 10) * 3e8 * cfg_small.t_s / 2, 20.0)
        for fractional in (False, True):
            cc = ChannelConfig(noise_enabled=False, fractional_delay=fractional)
            assert synthesize_rx(tx, [far], cc, cfg_small).tobytes() == \
                synthesize_rx(tx, [], cc, cfg_small).tobytes()


class TestDopplerRamp:
    @settings(max_examples=300, deadline=None)
    @given(n=st.integers(1, 1024), start_frac=st.floats(0, 1, exclude_max=True),
           f_ts=st.floats(-0.5, 0.5), t_s=st.sampled_from([1e-9, 4.07e-9, 1e-6]))
    @example(n=1, start_frac=0.0, f_ts=0.3, t_s=1e-6)
    @example(n=1024, start_frac=0.0, f_ts=0.5, t_s=1e-6)     # n = B^2
    @example(n=1000, start_frac=0.0, f_ts=-0.5, t_s=1e-6)    # not a multiple of B
    @example(n=1000, start_frac=0.99, f_ts=0.37, t_s=1e-9)   # shorter than B
    @example(n=777, start_frac=0.5, f_ts=0.0, t_s=4.07e-9)
    def test_matches_the_direct_exponential(self, n, start_frac, f_ts, t_s):
        f = f_ts / t_s
        start = int(start_frac * n)
        ref = np.exp(2j * np.pi * f * t_s * np.arange(n))
        ramp = doppler_ramp(f, t_s, n, start)
        assert ramp.shape == (n - start,)
        np.testing.assert_allclose(ramp, ref[start:], rtol=0, atol=1e-12)
        np.testing.assert_allclose(doppler_ramp(f, t_s, n, start, scale=-2.5),
                                   -2.5 * ref[start:], rtol=0, atol=3e-12)


def add_echo_blocks(rx, tx, delay, f, amplitude, t_s, fractional, block,
                    backward=False):
    """rx += the echo, through _add_echo on rx's blocks of block samples."""
    starts = range(0, len(rx), block)
    blocks = [(i, rx[i:i + block]) for i in (reversed(starts) if backward else starts)]
    for _ in channel._add_echo(tx, delay, f, amplitude, t_s, fractional, blocks):
        pass


class TestBlockedEcho:
    """_add_echo makes and applies its ramp a block at a time, in either
    order, the first and last blocks partial; every sample is the one the
    whole-frame ramp gives."""

    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(1, 700), d_frac=st.floats(0, 1, exclude_max=True),
           f_ts=st.floats(-0.5, 0.5), block=st.integers(1, 40),
           fractional=st.booleans(), backward=st.booleans())
    @example(n=700, d_frac=0.0, f_ts=0.3, block=7, fractional=False, backward=False)
    @example(n=700, d_frac=0.999, f_ts=0.3, block=1, fractional=False,
             backward=True)   # one sample
    @example(n=626, d_frac=0.2, f_ts=-0.41, block=25, fractional=False,
             backward=False)  # B = 25
    @example(n=500, d_frac=0.37, f_ts=0.2, block=3, fractional=True, backward=True)
    def test_equals_the_whole_ramp_bit_for_bit(self, n, d_frac, f_ts, block,
                                               fractional, backward):
        t_s, amplitude = 1e-6, 0.7
        f, d = f_ts / t_s, int(d_frac * n)
        delay = d_frac * n if fractional else float(d)
        rng = np.random.default_rng(n)
        tx = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        rx = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        want = rx.copy()
        if fractional:   # the echo in one piece
            add_echo_blocks(want, tx, delay, f, amplitude, t_s, True, n)
        else:
            want[d:] += doppler_ramp(f, t_s, n, d, amplitude) * tx[:n - d]
        add_echo_blocks(rx, tx, delay, f, amplitude, t_s, fractional, block,
                        backward)
        assert rx.tobytes() == want.tobytes()


def oracle_echo(tx, delay_samples, doppler_hz, amplitude, t_s, fractional):
    """echo_component as it was before the factored ramp: a full-length
    exponential over a zero-filled copy. A fractional delay is a phase ramp
    on the frame zero-padded to next_fast_len(n + ceil(delay)) samples."""
    n = len(tx)
    if fractional:
        size = scipy.fft.next_fast_len(n + math.ceil(delay_samples))
        freqs = np.fft.fftfreq(size)
        out = np.fft.ifft(np.fft.fft(tx, size)
                          * np.exp(-2j * np.pi * freqs * delay_samples))[:n]
    else:
        d = int(round(delay_samples))
        out = np.zeros(n, dtype=complex)
        if d < n:
            out[d:] = tx[:n - d]
    ramp = 2j * np.pi * doppler_hz * np.arange(n)
    ramp *= t_s
    out *= amplitude
    out *= np.exp(ramp, out=ramp)
    return out


def oracle_synthesize(tx, targets, cc, cfg, rng=None):
    """synthesize_rx as it was: zeros + SI, one echo copy per target, and
    Generator.normal noise."""
    ref_amp = max((t.amplitude for t in targets), default=1.0)
    rx = np.zeros_like(tx)
    if cc.si_enabled:
        rx += 10 ** (cc.si_over_echo_db / 20) * ref_amp * tx
    for t in targets:
        delay, doppler = target_to_delay_doppler(t, cfg.carrier_hz, cfg.t_s)
        rx += oracle_echo(tx, delay, doppler, t.amplitude, cfg.t_s,
                          cc.fractional_delay)
    if cc.noise_enabled:
        sigma2 = ref_amp ** 2 * np.mean(np.abs(tx) ** 2) * 10 ** (-cc.echo_snr_db / 10)
        rx.real += rng.normal(0, np.sqrt(sigma2 / 2), size=len(tx))
        rx.imag += rng.normal(0, np.sqrt(sigma2 / 2), size=len(tx))
    return rx


class TestWrittenOverTx:
    """synthesize_rx(..., out=tx) writes the receive samples over the transmit
    samples, a block at a time from the last back, and gives the bytes of
    the out-of-place call."""

    CFG = WaveformConfig(n_fft=64, m_codes=4, n_cp=16, scs_hz=480e3)

    @settings(max_examples=120, deadline=None)
    @given(k=st.integers(1, 6), seed=st.integers(0, 2**16),
           delays=st.lists(st.one_of(st.sampled_from(["first", "last", "past"]),
                                     st.floats(0, 2, exclude_max=True)), max_size=4),
           velocity=st.floats(-900, 900), si=st.booleans(), noise=st.booleans(),
           fractional=st.booleans(), block=st.one_of(st.integers(1, 50), st.none()))
    @example(k=3, seed=0, delays=["first", "last", "past", 0.5], velocity=250.0,
             si=True, noise=True, fractional=False, block=7)
    @example(k=3, seed=1, delays=["first", "last", "past", 0.37], velocity=-100.0,
             si=False, noise=False, fractional=True, block=1)
    @example(k=1, seed=2, delays=[], velocity=0.0, si=True, noise=True,
             fractional=False, block=None)
    def test_equals_the_out_of_place_result(self, k, seed, delays, velocity, si,
                                            noise, fractional, block):
        cfg = self.CFG
        tx = _frame(cfg, k=k, seed=seed)
        n = len(tx)
        samples = {"first": 0, "last": n - 1, "past": n}
        rng = np.random.default_rng(seed)
        targets = [Target(samples.get(d, d * n) * 3e8 * cfg.t_s / 2,
                          velocity * rng.uniform(-1, 1), rng.uniform(0.1, 2))
                   for d in delays]
        cc = ChannelConfig(si_enabled=si, noise_enabled=noise,
                           fractional_delay=fractional, echo_snr_db=-3.0)
        sent = tx.tobytes()
        want = synthesize_rx(tx, targets, cc, cfg, substream(seed, "noise"))
        assert tx.tobytes() == sent   # out of place, tx is only read
        with mock.patch.object(channel, "ECHO_BLOCK_SAMPLES",
                               block or channel.ECHO_BLOCK_SAMPLES):
            got = synthesize_rx(tx, targets, cc, cfg, substream(seed, "noise"), out=tx)
        assert got is tx
        assert got.tobytes() == want.tobytes()

    # out is tx, or an array of tx's shape and dtype apart from it; anything
    # else would corrupt, leave samples unwritten or round the frame
    TARGET = [Target(60 * 3e8 * CFG.t_s / 2, 30.0)]

    @pytest.mark.parametrize("lag", [-5, 5])
    def test_out_overlapping_tx_rejected(self, lag):
        frame = _frame(self.CFG, k=3, seed=3)
        n = len(frame)
        buf = np.zeros(n + abs(lag), dtype=complex)
        tx, out = (buf[:n], buf[lag:]) if lag > 0 else (buf[-lag:], buf[:n])
        tx[:] = frame
        with pytest.raises(ValueError, match="shares memory"):
            synthesize_rx(tx, self.TARGET, NO_NOISE, self.CFG, out=out)

    def test_out_interleaved_with_tx_is_apart_from_it(self):
        frame = _frame(self.CFG, k=3, seed=3)
        buf = np.zeros(2 * len(frame), dtype=complex)
        tx, out = buf[::2], buf[1::2]
        tx[:] = frame
        want = synthesize_rx(frame, self.TARGET, NO_NOISE, self.CFG)
        assert synthesize_rx(tx, self.TARGET, NO_NOISE, self.CFG, out=out) is out
        assert out.tobytes() == want.tobytes()
        assert tx.tobytes() == frame.tobytes()

    @pytest.mark.parametrize("extra", [1, -1])
    def test_out_of_another_length_rejected(self, extra):
        tx = _frame(self.CFG, k=3, seed=3)
        out = np.zeros(len(tx) + extra, dtype=complex)
        with pytest.raises(ValueError, match="not tx's"):
            synthesize_rx(tx, self.TARGET, NO_NOISE, self.CFG, out=out)

    def test_out_of_another_dtype_rejected(self):
        tx = _frame(self.CFG, k=3, seed=3)
        with pytest.raises(ValueError, match="not tx's"):
            synthesize_rx(tx, self.TARGET, NO_NOISE, self.CFG,
                          out=np.zeros(len(tx), dtype=np.complex64))


class TestAgainstTheOracle:
    TARGETS = [Target(0.0, 0.0), Target(50.0, 30.0),
               Target(77.7, -410.0, amplitude=0.5), Target(120.3, 900.0, 2.0),
               Target(233.1, -55.5, amplitude=0.1)]

    @pytest.mark.parametrize("fractional", [False, True])
    @pytest.mark.parametrize("si", [False, True])
    @pytest.mark.parametrize("n_targets", [1, 2, 5])
    def test_matches_the_old_loop(self, cfg_small, fractional, si, n_targets):
        tx = _frame(cfg_small, k=8, seed=n_targets)
        cc = ChannelConfig(si_enabled=si, noise_enabled=False,
                           fractional_delay=fractional)
        targets = self.TARGETS[:n_targets]
        want = oracle_synthesize(tx, targets, cc, cfg_small)
        got = synthesize_rx(tx, targets, cc, cfg_small)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
        for t in targets:
            delay, doppler = target_to_delay_doppler(t, cfg_small.carrier_hz,
                                                     cfg_small.t_s)
            want = oracle_echo(tx, delay, doppler, t.amplitude, cfg_small.t_s,
                               fractional)
            got = echo_component(tx, delay, doppler, t.amplitude,
                                 cfg_small.t_s, fractional)
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_noise_is_byte_identical(self, cfg_small):
        tx = _frame(cfg_small, k=8)
        cc = ChannelConfig(si_enabled=False, echo_snr_db=-7.0)
        want = oracle_synthesize(tx, [], cc, cfg_small, substream(11, "noise"))
        got = synthesize_rx(tx, [], cc, cfg_small, substream(11, "noise"))
        assert got.tobytes() == want.tobytes()

    def test_pending_noise_is_byte_identical(self, cfg_small):
        # the draw run_simulate starts on the noise worker before it
        # assembles the frame
        tx = _frame(cfg_small, k=8)
        cc = ChannelConfig(si_enabled=False, echo_snr_db=-7.0)
        want = oracle_synthesize(tx, [], cc, cfg_small, substream(11, "noise"))
        got = synthesize_rx(tx, [], cc, cfg_small,
                            start_noise(substream(11, "noise"), len(tx)))
        assert got.tobytes() == want.tobytes()

    def test_pending_draw_equals_inline_draw_with_echoes(self, cfg_small):
        tx = _frame(cfg_small, k=8)
        cc = ChannelConfig(echo_snr_db=-7.0)
        targets = self.TARGETS
        want = synthesize_rx(tx, targets, cc, cfg_small, substream(3, "noise"))
        got = synthesize_rx(tx, targets, cc, cfg_small,
                            start_noise(substream(3, "noise"), len(tx)))
        assert got.tobytes() == want.tobytes()

    def test_pending_draw_not_begun_is_drawn_by_the_caller(self, cfg_small,
                                                           block_worker):
        tx = _frame(cfg_small, k=8)
        cc = ChannelConfig(echo_snr_db=-7.0)
        want = synthesize_rx(tx, [], cc, cfg_small, substream(3, "noise"))
        blocker = block_worker()
        got = synthesize_rx(tx, [], cc, cfg_small,
                            start_noise(substream(3, "noise"), len(tx)))
        # taken back, not waited for behind the blocker
        assert not blocker.done()
        assert got.tobytes() == want.tobytes()

    def test_pending_draw_of_another_length_rejected(self, cfg_small):
        tx = _frame(cfg_small, k=8)
        wrong = Future()
        wrong.set_result(np.zeros((2, len(tx) - 1)))
        with pytest.raises(ValueError, match="noise draws shaped"):
            synthesize_rx(tx, [], ChannelConfig(), cfg_small, wrong)

    def test_fig7_peak_memory(self):
        # the old loop peaked at 3.55 frame sizes on this frame
        scn = Scenario(scheme="fsi_tail", seed=1, targets=[
            {"range_m": 100.0, "velocity_kmh": 100.0},
            {"range_m": 900.0, "velocity_kmh": -100.0}])
        cfg = scn.waveform_config()
        sched = make_schedule(Scheme.FSI_TAIL, cfg.m_codes, scn.k)
        tx = assemble_frame(cfg, sched, rng=substream(1, "payload"))
        assert len(tx) == 163840
        tracemalloc.start()
        try:
            synthesize_rx(tx, scn.target_list(), scn.channel_config(), cfg,
                          rng=substream(1, "noise"))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * tx.nbytes
