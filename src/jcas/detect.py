"""Peak extraction from range-Doppler maps and scoring against truth."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .channel import Target
from .receiver import RdMatrix, signed_bin
from .util import mps_to_kmh

TOL_BINS = (1, 1)   # (range, Doppler) bins within which a detection meets a truth


@dataclass
class Detection:
    range_m: float
    velocity_kmh: float
    normalized_power: float       # |peak|^2 / |global max|^2
    cell: tuple[int, int]         # (range bin, doppler column)
    range_bin: int                # row of the map: the global range bin
    doppler_bin: int              # signed doppler bin

    def to_dict(self) -> dict:
        return {"range_m": self.range_m, "velocity_kmh": self.velocity_kmh,
                "normalized_power": self.normalized_power,
                "cell": list(self.cell), "range_bin": self.range_bin,
                "doppler_bin": self.doppler_bin}


def check_peak_args(rel_threshold: float, max_peaks: int | None, guard: int) -> None:
    """The bounds find_peaks puts on its arguments."""
    if not 0 < rel_threshold < 1:
        raise ValueError("rel_threshold must be in (0, 1)")
    if max_peaks is not None and max_peaks < 1:
        raise ValueError("max_peaks must be >= 1")
    if guard < 0:
        raise ValueError("guard must be >= 0")


def find_peaks(rd: RdMatrix, rel_threshold: float = 0.05,
               max_peaks: int | None = None, guard: int = 2
               ) -> list[Detection]:
    """Local maxima above a relative power threshold, strongest first.

    A cell is a peak when it dominates its (2*guard+1)^2 neighborhood
    (Doppler wraps, range clips) and its normalized power exceeds
    rel_threshold; each candidate's neighborhood is indexed by rd's one
    rule, rd.neighborhood_blocks, a bounded block of candidates at a time.
    Ties break toward lower range bin, then lower signed Doppler bin. The
    power is the square of rd's one magnitude.
    """
    check_peak_args(rel_threshold, max_peaks, guard)
    power = rd.magnitude ** 2
    if power.size == 0:
        raise ValueError("empty matrix")
    peak_max = power.max()
    if peak_max == 0:
        return []
    hits = np.argwhere(power >= rel_threshold * peak_max)
    near = np.empty(len(hits))
    for block, index in rd.neighborhood_blocks(*hits.T, guard, guard):
        near[block] = power[index].max(axis=(1, 2))
    hits = hits[power[tuple(hits.T)] >= near]
    d, c = hits.T
    norm = power[d, c] / peak_max
    bins = signed_bin(c, rd.n_doppler)
    order = np.lexsort((bins, d, -norm))[:max_peaks]
    d, c, norm, bins = d[order], c[order], norm[order], bins[order]
    fields = (rd.range_m_of(d), mps_to_kmh(rd.velocity_mps_of(c)), norm, d, c, bins)
    return [Detection(range_m=r, velocity_kmh=v, normalized_power=p,
                      cell=(di, ci), range_bin=di, doppler_bin=b)
            for r, v, p, di, ci, b in zip(*(a.tolist() for a in fields))]


@dataclass
class EvalReport:
    matched: list[dict] = field(default_factory=list)
    misses: list[int] = field(default_factory=list)
    false_alarms: list[Detection] = field(default_factory=list)
    peak_to_interference_db: float | None = None

    def to_dict(self) -> dict:
        return {"matched": self.matched, "misses": self.misses,
                "false_alarms": [d.to_dict() for d in self.false_alarms],
                "peak_to_interference_db": self.peak_to_interference_db}


def evaluate(dets: list[Detection], truth: list[Target], rd: RdMatrix
             ) -> EvalReport:
    """Greedy nearest matching of detections on rd to the truth cells they
    lie near by rd's one rule, at TOL_BINS: the rest are false alarms, the
    unmatched truths misses. Peak-to-interference compares the weakest
    matched peak with the strongest cell near no truth."""
    tol_d, tol_v = TOL_BINS
    cells = [rd.truth_cell(t) for t in truth]
    taken = [False] * len(truth)
    report = EvalReport()
    for det in sorted(dets, key=lambda p: -p.normalized_power):
        best, best_cost = None, None
        for i, (td, tv) in enumerate(cells):
            if taken[i]:
                continue
            dd = abs(det.range_bin - td)
            dv = int(rd.doppler_distance(det.doppler_bin, tv))
            if dd <= tol_d and dv <= tol_v:
                cost = (dd + dv, dd, dv)   # dv follows from the first two: same order
                if best_cost is None or cost < best_cost:
                    best, best_cost = i, cost
        if best is None:
            report.false_alarms.append(det)
        else:
            taken[best] = True
            report.matched.append({
                "truth_index": best, "detection": det.to_dict(),
                "range_bin_error": det.range_bin - cells[best][0],
                "doppler_bin_error": best_cost[2]})
    report.misses = [i for i, t in enumerate(taken) if not t]

    if report.matched:
        power = rd.magnitude ** 2
        rows, cols, near = rd.truth_neighborhood(cells, tol_d, tol_v)
        # a matched truth's neighborhood holds its detection's cell, of power > 0
        near_power = np.where(near, power[rows, cols], 0)
        peak = min(near_power[m["truth_index"]].max() for m in report.matched)
        power[rows[near], cols[near]] = 0   # leaves the cells near no truth
        interference = power.max(initial=0.0)
        if interference > 0:
            report.peak_to_interference_db = float(10 * np.log10(peak / interference))
    return report
