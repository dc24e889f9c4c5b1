import math

import pytest

from jcas import WaveformConfig
from jcas.util import next_fast_len

sfft = pytest.importorskip("scipy.fft")


class TestNextFastLen:
    def test_matches_scipy_for_complex_input(self):
        assert [next_fast_len(n) for n in range(1, 10_001)] == \
            [sfft.next_fast_len(n) for n in range(1, 10_001)]

    def test_pattern_correlation_size(self):
        # build_pattern's linear correlation of an N-sample reference with
        # N + L - 1 lags: 2559 at the paper defaults
        cfg = WaveformConfig()
        n = cfg.n_fft + cfg.l_occ - 1
        assert n == 2559
        assert next_fast_len(n) == sfft.next_fast_len(n)

    @pytest.mark.parametrize("delay", [0.0, 0.5, 9.0, 163.4, 511.9, 1023.0,
                                       4097.25])
    def test_fractional_delay_padding(self, delay):
        # _add_echo pads a 163,840-sample frame (the fig7 frame) past its
        # delayed end
        n = 163_840 + math.ceil(delay)
        assert next_fast_len(n) == sfft.next_fast_len(n)

    def test_sizes_below_one(self):
        assert next_fast_len(0) == 1
