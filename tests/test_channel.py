import numpy as np
import pytest

from jcas import (ChannelConfig, Scheme, Target, assemble_frame,
                  make_schedule, substream, synthesize_rx,
                  target_to_delay_doppler)
from jcas.channel import echo_component

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

    def test_empty_frame_rejected(self, cfg_small):
        with pytest.raises(ValueError):
            synthesize_rx(np.array([], dtype=complex), [], NO_NOISE, cfg_small)


class TestEchoComponent:
    def test_fractional_matches_integer_on_grid(self, cfg_small, rng):
        x = rng.normal(size=512) + 1j * rng.normal(size=512)
        a = echo_component(x, 9.0, 0.0, 1.0, cfg_small.t_s)
        b = echo_component(x, 9.0, 0.0, 1.0, cfg_small.t_s, fractional=True)
        # circular vs linear shift only differ in the leading gap
        np.testing.assert_allclose(a[9:], b[9:], atol=1e-9)

    def test_doppler_ramp(self, cfg_small):
        x = np.ones(100, dtype=complex)
        out = echo_component(x, 0, 1e5, 2.0, cfg_small.t_s)
        expected = 2.0 * np.exp(2j * np.pi * 1e5 * np.arange(100) * cfg_small.t_s)
        np.testing.assert_allclose(out, expected, rtol=1e-12)
