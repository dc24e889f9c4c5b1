import math
import threading

import pytest

from jcas import WaveformConfig
from jcas.util import Pending, background_worker, next_fast_len


@pytest.fixture(scope="module")
def sfft():
    return pytest.importorskip("scipy.fft")


class TestNextFastLen:
    def test_matches_scipy_for_complex_input(self, sfft):
        assert [next_fast_len(n) for n in range(1, 10_001)] == \
            [sfft.next_fast_len(n) for n in range(1, 10_001)]

    def test_pattern_correlation_size(self, sfft):
        # build_pattern's linear correlation of an N-sample reference with
        # N + L - 1 lags: 2559 at the paper defaults
        cfg = WaveformConfig()
        n = cfg.n_fft + cfg.l_occ - 1
        assert n == 2559
        assert next_fast_len(n) == sfft.next_fast_len(n)

    @pytest.mark.parametrize("delay", [0.0, 0.5, 9.0, 163.4, 511.9, 1023.0,
                                       4097.25])
    def test_fractional_delay_padding(self, sfft, delay):
        # _add_echo pads a 163,840-sample frame (the fig7 frame) past its
        # delayed end
        n = 163_840 + math.ceil(delay)
        assert next_fast_len(n) == sfft.next_fast_len(n)

    def test_sizes_below_one(self):
        assert next_fast_len(0) == 1


class TestPending:
    def test_runs_on_the_background_worker(self):
        started = threading.Event()

        def task():
            started.set()
            return threading.get_ident()
        pending = Pending(task)
        assert started.wait(20)
        assert pending.result() != threading.get_ident()
        assert background_worker() is background_worker()

    def test_call_not_begun_is_taken_back(self, block_worker):
        blocker = block_worker()
        task = Pending(threading.get_ident)
        assert task.result() == threading.get_ident()
        assert not blocker.done()   # not waited for behind the blocker

    def test_exception_reaches_the_caller(self):
        def fail():
            raise KeyError("task failed")
        with pytest.raises(KeyError, match="task failed"):
            Pending(fail).result()

    def test_drop_waits_for_a_begun_call(self):
        started, release, ended = (threading.Event() for _ in range(3))

        def task():
            started.set()
            release.wait(20)
            ended.set()
        pending = Pending(task)
        assert started.wait(20)
        threading.Timer(0.1, release.set).start()
        pending.drop()
        assert ended.is_set()

    def test_drop_cancels_a_queued_call(self, block_worker):
        blocker, ran = block_worker(), []
        Pending(lambda: ran.append(1)).drop()
        assert not blocker.done()
        assert ran == []
