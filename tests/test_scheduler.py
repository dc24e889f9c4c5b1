import hashlib
import json

import numpy as np
import pytest

from jcas import (Scheme, grid_size, make_schedule,
                  occasion_grid_indices, substream, unambiguous_band)

# frozen from a seed-42 run; pins the documented generator
GOLDEN_RTD_HEAD = (0, 2, 4, 10, 11, 17, 25, 29, 31, 34, 37, 39)
GOLDEN_RTD_SHA = "1077640087e9e4b719355ce2a1320c53593b713e62af08c10a1bbeca4499fdde"


class TestMakeSchedule:
    def test_periodic_td(self):
        s = make_schedule(Scheme.PERIODIC_TD, 4, 3)
        assert s.slots == (0, 4, 8)

    def test_fsi_tail(self):
        s = make_schedule(Scheme.FSI_TAIL, 4, 2)
        assert s.alpha == (3, 3)

    def test_sensing_only_all_slots(self):
        s = make_schedule(Scheme.SENSING_ONLY, 4, 5)
        assert s.slots == tuple(range(20))

    def test_rtd_golden_seed42(self):
        s = make_schedule(Scheme.RTD, 4, 80, rng=substream(42, "schedule"),
                          seed=42)
        assert s.slots[:12] == GOLDEN_RTD_HEAD
        digest = hashlib.sha256(
            np.array(s.slots, dtype=np.int64).tobytes()).hexdigest()
        assert digest == GOLDEN_RTD_SHA

    def test_rtd_is_k_of_mk(self):
        s = make_schedule(Scheme.RTD, 4, 80, rng=substream(0, "s"))
        assert len(s.slots) == 80
        assert len(set(s.slots)) == 80
        assert all(0 <= g < 320 for g in s.slots)

    def test_rtd_one_per_group(self):
        s = make_schedule(Scheme.RTD, 4, 20, rng=substream(1, "s"),
                          one_per_group=True)
        groups = [g // 4 for g in s.slots]
        assert groups == list(range(20))

    def test_fsi_random_alphas_in_range(self):
        s = make_schedule(Scheme.FSI_RANDOM, 4, 64, rng=substream(3, "s"))
        assert len(s.alpha) == 64
        assert all(0 <= a < 4 for a in s.alpha)

    def test_bad_args(self):
        with pytest.raises(ValueError):
            make_schedule(Scheme.RTD, 1, 10, rng=substream(0, "s"))
        with pytest.raises(ValueError):
            make_schedule(Scheme.RTD, 4, 0, rng=substream(0, "s"))
        with pytest.raises(ValueError):
            make_schedule(Scheme.RTD, 4, 10)  # no rng


class TestOccasionGrid:
    def test_fsi_tail_example(self, cfg):
        s = make_schedule(Scheme.FSI_TAIL, 4, 2)
        assert occasion_grid_indices(s, cfg).tolist() == [4, 9]

    def test_periodic_example(self, cfg):
        s = make_schedule(Scheme.PERIODIC_TD, 4, 3)
        assert occasion_grid_indices(s, cfg).tolist() == [0, 4, 8]
        assert grid_size(s, cfg) == 12

    def test_paper_defaults_same_grid(self, cfg):
        rtd = make_schedule(Scheme.RTD, 4, 80, rng=substream(0, "a"))
        fsi = make_schedule(Scheme.FSI_RANDOM, 4, 64, rng=substream(0, "a"))
        assert grid_size(rtd, cfg) == 320
        assert grid_size(fsi, cfg) == 320

    @pytest.mark.parametrize("scheme,k", [(Scheme.SENSING_ONLY, 10),
                                          (Scheme.PERIODIC_TD, 10),
                                          (Scheme.RTD, 10),
                                          (Scheme.FSI_RANDOM, 10),
                                          (Scheme.FSI_TAIL, 10)])
    def test_grid_invariants(self, cfg, scheme, k):
        s = make_schedule(scheme, 4, k, rng=substream(11, "s"))
        g = occasion_grid_indices(s, cfg)
        total = grid_size(s, cfg)
        assert np.all((g >= 0) & (g < total))
        assert np.all(np.diff(g) > 0)
        expected = 4 * k if scheme is Scheme.SENSING_ONLY else k
        assert len(g) == expected

    def test_fsi_one_occasion_per_symbol(self, cfg):
        s = make_schedule(Scheme.FSI_RANDOM, 4, 32, rng=substream(2, "s"))
        g = occasion_grid_indices(s, cfg)
        per = cfg.m_codes + cfg.cp_occasions
        assert np.array_equal(g // per, np.arange(32))
        # the per-symbol formula k (M + N_CP/L) + N_CP/L + alpha_k, as int64
        assert g.dtype == np.int64
        assert g.tolist() == [k * per + cfg.cp_occasions + a
                              for k, a in enumerate(s.alpha)]

    def test_unambiguous_band(self):
        td = make_schedule(Scheme.PERIODIC_TD, 4, 80)
        tail = make_schedule(Scheme.FSI_TAIL, 4, 64)
        rtd = make_schedule(Scheme.RTD, 4, 80, rng=substream(4, "s"))
        assert unambiguous_band(td) == 80
        assert unambiguous_band(tail) == 64
        assert unambiguous_band(rtd) is None


class TestSerialization:
    def test_roundtrip(self):
        s = make_schedule(Scheme.RTD, 4, 16, rng=substream(6, "s"), seed=6)
        d = s.to_dict()
        assert d == {"scheme": "rtd", "m_codes": 4, "k": 16, "alpha": None,
                     "slots": list(s.slots), "seed": 6}
        assert json.loads(json.dumps(d)) == d
        assert make_schedule(Scheme.FSI_TAIL, 4, 2).to_dict()["alpha"] == [3, 3]
