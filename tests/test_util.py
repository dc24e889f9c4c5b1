import contextlib
import math
import sys
import threading
import time

import pytest

from jcas import WaveformConfig
from jcas.util import background_worker, next_fast_len, share


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


class TestShare:
    def test_busy_worker_leaves_every_task_to_the_caller(self, block_worker):
        blocker, ran = block_worker(), []
        with share([lambda i=i: ran.append((i, threading.get_ident()))
                    for i in range(5)]):
            pass
        assert not blocker.done()   # not waited for behind the blocker
        assert ran == [(i, threading.get_ident()) for i in range(5)]

    def test_failing_worker_task_raises_once_the_worker_stopped(self):
        ran = []

        def fail():
            ran.append(threading.get_ident())
            raise KeyError("task failed")
        with pytest.raises(KeyError, match="task failed"):
            with share([fail, lambda: ran.append("after")]):
                background_worker().submit(int).result()   # queued behind fail
        assert len(ran) == 1 and ran[0] != threading.get_ident()

    @pytest.mark.parametrize("in_block", [True, False])
    def test_failure_on_the_caller_waits_for_the_running_task(self, in_block):
        started, ran = threading.Event(), []

        def slow():
            started.set()
            time.sleep(0.2)
            ran.append("slow")

        def fail():
            ran.append("fail")
            raise KeyError("caller failed")
        with pytest.raises(KeyError, match="caller failed"):
            with share([slow, fail, lambda: ran.append("after")]):
                assert started.wait(20)
                if in_block:
                    raise KeyError("caller failed")
        assert sorted(ran) == (["slow"] if in_block else ["fail", "slow"])

    @pytest.mark.parametrize("in_block", [True, False])
    def test_queued_helper_is_taken_back_on_a_failure(self, block_worker, in_block):
        blocker, ran = block_worker(), []

        def fail():
            ran.append("fail")
            raise KeyError
        with pytest.raises(KeyError):
            with share([fail, lambda: ran.append("after")]):
                if in_block:
                    raise KeyError
        assert not blocker.done()
        assert ran == ([] if in_block else ["fail"])

    def test_concurrent_callers_run_each_task_once(self):
        # four callers, more threads than cores, share the one worker; a task
        # lost or run twice shows in the list
        ran = []

        def caller(c):
            for r in range(20):
                with share([lambda i=i: ran.append((c, r, i)) for i in range(8)]):
                    pass
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=caller, args=(c,)) for c in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert sorted(ran) == [(c, r, i) for c in range(4) for r in range(20)
                               for i in range(8)]

    @pytest.mark.parametrize("fail", [False, True])
    def test_worker_is_idle_on_exit(self, fail):
        started, running = threading.Event(), []

        def task():
            running.append(1)
            started.set()
            time.sleep(0.05)
            running.pop()
        with pytest.raises(KeyError) if fail else contextlib.nullcontext():
            with share([task] * 3):
                assert started.wait(20)
                if fail:
                    raise KeyError
        assert running == []
