import threading

import numpy as np
import pytest

from jcas import WaveformConfig, util


@pytest.fixture(scope="session", autouse=True)
def isolated_pattern_cache(tmp_path_factory):
    """Keep pattern calibration caches out of the user's home directory."""
    import os
    os.environ["JCAS_CACHE_DIR"] = str(tmp_path_factory.mktemp("pattern-cache"))


@pytest.fixture(scope="session")
def cfg():
    """Paper defaults: N=2048, M=4, N_CP=512, 60 kHz SCS, 60 GHz carrier."""
    return WaveformConfig()


@pytest.fixture(scope="session")
def cfg_small():
    """Scaled-down grid for fast structural tests."""
    return WaveformConfig(n_fft=256, m_codes=4, n_cp=64, scs_hz=480e3)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def block_worker():
    """block() keeps the shared background worker busy until the test ends
    and returns the future of the task that blocks it."""
    release, blockers = threading.Event(), []

    def block():
        blockers.append(util.background_worker().submit(release.wait, 20))
        return blockers[-1]
    yield block
    release.set()
    for blocker in blockers:
        blocker.result()
