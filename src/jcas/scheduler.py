"""Sensing-occasion scheduling for the five coexistence schemes."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np


class Scheme(str, Enum):
    SENSING_ONLY = "sensing_only"
    PERIODIC_TD = "periodic_td"
    RTD = "rtd"
    FSI_RANDOM = "fsi_random"
    FSI_TAIL = "fsi_tail"

    @property
    def is_fsi(self) -> bool:
        return self in (Scheme.FSI_RANDOM, Scheme.FSI_TAIL)


@dataclass(frozen=True)
class Schedule:
    """Which occasions carry the sensing chirp.

    For slotted schemes ``slots`` lists the scheduled slot indices on the
    M*K slot grid. For chirp-implanted OFDM ``alpha`` gives the sensing
    code (== in-body occasion) per symbol.
    """

    scheme: Scheme
    m_codes: int
    k: int
    alpha: tuple[int, ...] | None = None
    slots: tuple[int, ...] | None = None
    seed: int | None = None

    def to_dict(self) -> dict:
        return {
            "scheme": self.scheme.value,
            "m_codes": self.m_codes,
            "k": self.k,
            "alpha": list(self.alpha) if self.alpha is not None else None,
            "slots": list(self.slots) if self.slots is not None else None,
            "seed": self.seed,
        }


def make_schedule(scheme: Scheme, m: int, k: int,
                  rng: np.random.Generator | None = None,
                  one_per_group: bool = False,
                  seed: int | None = None) -> Schedule:
    """Draw (or construct) the sensing schedule for one frame.

    RTD defaults to an unconstrained K-of-MK draw without replacement;
    ``one_per_group`` switches to one random slot per M-slot group.
    """
    if m < 2 or k < 1:
        raise ValueError("need m >= 2 and k >= 1")
    scheme = Scheme(scheme)

    if scheme is Scheme.SENSING_ONLY:
        return Schedule(scheme, m, k, slots=tuple(range(m * k)), seed=seed)
    if scheme is Scheme.PERIODIC_TD:
        return Schedule(scheme, m, k, slots=tuple(range(0, m * k, m)), seed=seed)
    if scheme is Scheme.RTD:
        if rng is None:
            raise ValueError("RTD needs a random source")
        if one_per_group:
            slots = tuple(g * m + int(rng.integers(0, m)) for g in range(k))
        else:
            slots = tuple(sorted(rng.choice(m * k, size=k, replace=False).tolist()))
        return Schedule(scheme, m, k, slots=slots, seed=seed)
    if scheme is Scheme.FSI_RANDOM:
        if rng is None:
            raise ValueError("random code selection needs a random source")
        return Schedule(scheme, m, k,
                        alpha=tuple(int(a) for a in rng.integers(0, m, size=k)),
                        seed=seed)
    # tail mode: always the last code
    return Schedule(scheme, m, k, alpha=(m - 1,) * k, seed=seed)


def grid_size(schedule: Schedule, cfg) -> int:
    """Total number of occasions on the slow-time grid."""
    if schedule.scheme.is_fsi:
        return schedule.k * (schedule.m_codes + cfg.cp_occasions)
    return schedule.m_codes * schedule.k


def occasion_grid_indices(schedule: Schedule, cfg) -> np.ndarray:
    """Positions of the scheduled sensing occasions on the global grid.

    Implanted-OFDM symbols span M + N_CP/L occasions with the CP occupying
    the first N_CP/L of them, so symbol k's sensing occasion sits at
    k*(M + N_CP/L) + N_CP/L + alpha_k.
    """
    if schedule.scheme.is_fsi:
        j = cfg.cp_occasions
        g = np.arange(len(schedule.alpha)) * (schedule.m_codes + j) + j \
            + np.asarray(schedule.alpha)
    else:
        g = np.array(sorted(schedule.slots), dtype=int)
    total = grid_size(schedule, cfg)
    if g.size and (g[0] < 0 or g[-1] >= total):
        raise ValueError("occasion index outside the grid")
    if np.any(np.diff(g) <= 0):
        raise ValueError("occasion indices must be strictly increasing")
    return g


def unambiguous_band(schedule: Schedule) -> int | None:
    """Width in Doppler bins of the scheme's alias-free band, if reduced.

    Strictly periodic sampling (periodic TD, tail mode) folds Doppler into
    grid_size / period = K bins, one per scheduled occasion; random schemes
    keep the full grid.
    """
    if schedule.scheme in (Scheme.PERIODIC_TD, Scheme.FSI_TAIL):
        return schedule.k
    return None
