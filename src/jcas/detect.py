"""Peak extraction from range-Doppler maps and scoring against truth."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .channel import Target, target_to_delay_doppler
from .receiver import RdMatrix
from .util import mps_to_kmh
from .waveform import WaveformConfig


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


PEAK_BLOCK_CELLS = 1 << 16   # neighborhood cells find_peaks gathers at a time


def _neighborhood_max(power: np.ndarray, cells: np.ndarray, guard: int
                      ) -> np.ndarray:
    """Max of power over the (2*guard+1)^2 neighborhood of each (row, col)
    in cells: rows clip at the edges, columns wrap.

    A guard past the map's edges adds no cell: clipped rows repeat, and
    2*guard+1 wrapped columns take in every column. The few cells of a
    real map are gathered directly, a block at a time; when that would
    cost more, two separable sliding-window passes cover the whole map.
    """
    n_rows, n_cols = power.shape
    g_rows = min(guard, n_rows - 1)
    row_offs = np.arange(-g_rows, g_rows + 1)
    col_offs = np.arange(-guard, guard + 1) if 2 * guard + 1 < n_cols \
        else np.arange(n_cols)
    n_r, n_c = len(row_offs), len(col_offs)
    if len(cells) * n_r * n_c > power.size * (n_r + n_c):
        near = sliding_window_view(np.pad(power, ((g_rows, g_rows), (0, 0)),
                                          mode="edge"), n_r, axis=0).max(axis=-1)
        if n_c < n_cols:
            near = sliding_window_view(np.pad(near, ((0, 0), (guard, guard)),
                                              mode="wrap"), n_c, axis=1).max(axis=-1)
        else:
            near = near.max(axis=1, keepdims=True)
        return near[cells[:, 0], cells[:, 1] % near.shape[1]]
    out = np.empty(len(cells))
    step = max(1, PEAK_BLOCK_CELLS // (n_r * n_c))
    for i in range(0, len(cells), step):
        d, c = cells[i:i + step].T
        rows = np.clip(d[:, None] + row_offs, 0, n_rows - 1)
        cols = (c[:, None] + col_offs) % n_cols
        out[i:i + step] = power[rows[:, :, None], cols[:, None, :]].max(axis=(1, 2))
    return out


def find_peaks(rd: RdMatrix, rel_threshold: float = 0.05,
               max_peaks: int | None = None, guard: int = 2
               ) -> list[Detection]:
    """Local maxima above a relative power threshold, strongest first.

    A cell is a peak when it dominates its (2*guard+1)^2 neighborhood
    (Doppler wraps, range clips) and its normalized power exceeds
    rel_threshold. Ties break toward lower range bin, then lower signed
    Doppler bin.
    """
    check_peak_args(rel_threshold, max_peaks, guard)
    power = np.abs(rd.values) ** 2
    if power.size == 0:
        raise ValueError("empty matrix")
    peak_max = power.max()
    if peak_max == 0:
        return []
    hits = np.argwhere(power >= rel_threshold * peak_max)
    hits = hits[power[tuple(hits.T)] >= _neighborhood_max(power, hits, guard)]
    d, c = hits.T
    norm = power[d, c] / peak_max
    bins = rd.signed_bin(c)
    order = np.lexsort((bins, d, -norm))[:max_peaks]
    d, c, norm, bins = d[order], c[order], norm[order], bins[order]
    fields = (rd.range_m_of(d), mps_to_kmh(rd.velocity_mps_of(c)), norm, d, c,
              bins)
    return [Detection(range_m=r, velocity_kmh=v, normalized_power=p,
                      cell=(di, ci), range_bin=di, doppler_bin=b)
            for r, v, p, di, ci, b in zip(*(a.tolist() for a in fields))]


def truth_cell(t: Target, cfg: WaveformConfig, n_grid: int
               ) -> tuple[int, int]:
    """Expected (global range bin, signed Doppler bin) for a target."""
    delay, doppler = target_to_delay_doppler(t, cfg.carrier_hz, cfg.t_s)
    return int(round(delay)), int(round(doppler * n_grid * cfg.t_chirp))


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


def _circ_dist(a: int, b: int, n: int) -> int:
    d = (a - b) % n
    return min(d, n - d)


def evaluate(dets: list[Detection], truth: list[Target], cfg: WaveformConfig,
             n_grid: int, tol_bins: tuple[int, int] = (1, 1),
             rd: RdMatrix | None = None) -> EvalReport:
    """Greedy nearest matching of detections to truth within a bin tolerance.

    Unmatched truths are misses; unmatched detections are false alarms.
    When the RD map is supplied, peak-to-interference compares the weakest
    matched peak against the strongest cell outside every truth
    neighborhood (tol_bins radius); without it the figure stays None.
    """
    tol_d, tol_v = tol_bins
    cells = [truth_cell(t, cfg, n_grid) for t in truth]
    taken = [False] * len(truth)
    report = EvalReport()
    for det in sorted(dets, key=lambda p: -p.normalized_power):
        best, best_cost = None, None
        for i, (td, tv) in enumerate(cells):
            if taken[i]:
                continue
            dd = abs(det.range_bin - td)
            dv = _circ_dist(det.doppler_bin % n_grid, tv % n_grid, n_grid)
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

    if rd is not None and report.matched:
        power = np.abs(rd.values) ** 2
        mask = np.ones_like(power, dtype=bool)
        peak_powers = []
        for i, (td, tv) in enumerate(cells):
            rows, cols = rd.neighborhood(td, tv, tol_d, tol_v)
            if rows.start < rows.stop:
                mask[rows, cols] = False
                if i not in report.misses:
                    peak_powers.append(power[rows, cols].max())
        interference = power[mask].max() if mask.any() else 0.0
        if peak_powers and interference > 0:
            report.peak_to_interference_db = float(
                10 * np.log10(min(peak_powers) / interference))
    return report
