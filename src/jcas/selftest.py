"""In-process invariant suite behind the `jcas selftest` verb.

Each check raises on violation.
"""

from __future__ import annotations

import numpy as np

from .channel import ChannelConfig, Target, echo_component, synthesize_rx
from .receiver import WindowKind, _calibration, _responses, _slice_buffers, \
    _steady_state_bound, build_pattern, deviation, process_sensing, \
    slow_time_matched_filter, validate_pattern
from .scheduler import Schedule, Scheme, grid_size, make_schedule, \
    occasion_grid_indices
from .util import substream
from .waveform import WaveformConfig, assemble_frame, make_base_set, \
    make_code_matrix, spread_and_assemble, transmit_constants, unitary_dft, \
    unitary_idft

SMALL = WaveformConfig(n_fft=256, m_codes=4, n_cp=64, scs_hz=480e3,
                       carrier_hz=60e9)


def check_dft_unitarity():
    rng = np.random.default_rng(1)
    for n in (1, 4, 257, 512):
        v = rng.normal(size=n) + 1j * rng.normal(size=n)
        if abs(np.linalg.norm(unitary_dft(v)) - np.linalg.norm(v)) > 1e-10:
            raise AssertionError("Parseval violated")
        if np.max(np.abs(unitary_idft(unitary_dft(v)) - v)) > 1e-12:
            raise AssertionError("roundtrip violated")


def check_code_unitarity():
    for m in (2, 4, 8, 16):
        u = make_code_matrix(m)
        err = np.max(np.abs(u @ u.conj().T - np.eye(m)))
        if err > 1e-12:
            raise AssertionError(f"U not unitary for M={m}: {err:.2e}")


def check_code_shift_identity():
    for m in (2, 4, 8):
        cfg = WaveformConfig(n_fft=64 * m, m_codes=m, n_cp=64, scs_hz=1e6)
        _, _, b = transmit_constants(cfg)
        for i in range(m):
            err = np.max(np.abs(np.roll(b[i], cfg.l_occ) - b[(i + 1) % m]))
            if err > 1e-12:
                raise AssertionError(f"shift identity broken (M={m}): {err:.2e}")


def check_spectral_support():
    rng = np.random.default_rng(2)
    for m, n in ((2, 64), (4, 2048), (8, 2048)):
        cfg = WaveformConfig(n_fft=n, m_codes=m, n_cp=n // m, scs_hz=60e3)
        chirp = np.exp(2j * np.pi * rng.random(cfg.l_occ))
        base = make_base_set(cfg, chirp)
        for row_m in range(m):
            spec = np.abs(unitary_dft(base[row_m])) ** 2
            on = spec[row_m::m].sum()
            off = spec.sum() - on
            if off > 1e-10 * spec.sum():
                raise AssertionError(f"off-grid energy {off:.2e} (M={m}, N={n})")


def check_base_envelope():
    cfg = SMALL
    rows = make_base_set(cfg, transmit_constants(cfg)[0])
    if np.max(np.abs(np.abs(rows) - 1)) > 1e-12:
        raise AssertionError("base set not constant envelope")


def check_despread_roundtrip():
    from .comms import despread
    rng = np.random.default_rng(3)
    cfg = SMALL
    chirp, codes, _ = transmit_constants(cfg)
    spec = unitary_dft(chirp)
    data = rng.normal(size=(cfg.m_codes - 1, cfg.l_occ)) \
        + 1j * rng.normal(size=(cfg.m_codes - 1, cfg.l_occ))
    grid = spread_and_assemble(cfg, 1, spec, data, codes)
    est, sens = despread(grid, codes, 1)
    others = [i for i in range(cfg.m_codes) if i != 1]
    for row, i in enumerate(others):
        if np.max(np.abs(est[i] - data[row])) > 1e-12:
            raise AssertionError("despreading does not round-trip")
    if np.max(np.abs(sens - np.sqrt(cfg.m_codes) * spec)) > 1e-12:
        raise AssertionError("sensing despread mismatch")


def check_si_cancellation():
    cfg = SMALL
    rng = substream(99, "selftest")
    sched = make_schedule(Scheme.FSI_RANDOM, cfg.m_codes, 16, rng=rng)
    tx = assemble_frame(cfg, sched, rng=rng)
    cc = ChannelConfig(si_enabled=True, noise_enabled=False)
    rx = synthesize_rx(tx, [], cc, cfg)
    rd = process_sensing(rx, cfg, sched, WindowKind.STANDARD)
    resid = np.max(rd.magnitude)
    si_amp = 10 ** (cc.si_over_echo_db / 20)
    if resid > 1e-8 * si_amp:
        raise AssertionError(f"SI residual too large: {resid:.2e}")


def check_occasion_grids():
    cfg = WaveformConfig(n_fft=2048, m_codes=4, n_cp=512, scs_hz=60e3)
    tail = make_schedule(Scheme.FSI_TAIL, 4, 2)
    if occasion_grid_indices(tail, cfg).tolist() != [4, 9]:
        raise AssertionError("tail grid mismatch")
    td = make_schedule(Scheme.PERIODIC_TD, 4, 3)
    if occasion_grid_indices(td, cfg).tolist() != [0, 4, 8]:
        raise AssertionError("periodic grid mismatch")
    rtd = make_schedule(Scheme.RTD, 4, 80, rng=substream(1, "g"))
    fsi = make_schedule(Scheme.FSI_RANDOM, 4, 64, rng=substream(1, "g"))
    if grid_size(rtd, cfg) != 320 or grid_size(fsi, cfg) != 320:
        raise AssertionError("default grids must both have 320 occasions")


def check_matched_filter_equivalence():
    rng = np.random.default_rng(4)
    cfg = SMALL
    k, n_grid, l = 12, 40, cfg.l_occ
    profiles = rng.normal(size=(k, l)) + 1j * rng.normal(size=(k, l))
    g = rng.choice(n_grid, k, replace=False)   # nonuniform, unsorted
    rd = slow_time_matched_filter(profiles, g, n_grid, cfg)
    oracle = np.zeros((l, n_grid), dtype=complex)   # dense steering sum
    for nu in range(n_grid):
        for kk in range(k):
            oracle[:, nu] += profiles[kk] * np.exp(2j * np.pi * g[kk] * nu / n_grid)
    oracle /= k
    if np.max(np.abs(rd.values - oracle)) > 1e-12:
        raise AssertionError("matched filter deviates from the steering sum")


def check_grid_exactness():
    cfg = SMALL
    sched = make_schedule(Scheme.SENSING_ONLY, cfg.m_codes, 16)
    tx = assemble_frame(cfg, sched)
    d, nu = 10, 5
    f_d = cfg.doppler_hz(nu, grid_size(sched, cfg))
    rx = echo_component(tx, d, f_d, 1.0, cfg.t_s)
    rd = process_sensing(rx, cfg, sched)
    cell = np.unravel_index(np.argmax(rd.magnitude), rd.values.shape)
    if cell != (d, nu):
        raise AssertionError(f"peak at {cell}, expected {(d, nu)}")


def check_determinism():
    cfg = SMALL
    reports = []
    for _ in range(2):
        rng = substream(7, "sched")
        sched = make_schedule(Scheme.RTD, cfg.m_codes, 16, rng=rng)
        tx = assemble_frame(cfg, sched, rng=substream(7, "payload"))
        rx = synthesize_rx(tx, [Target(30.0, 10.0)], ChannelConfig(), cfg,
                           rng=substream(7, "noise"))
        rd = process_sensing(rx, cfg, sched)
        reports.append(rd.values.tobytes())
    if reports[0] != reports[1]:
        raise AssertionError("identical seeds produced different results")


def steady_state_deviation(cfg: WaveformConfig, schedule: Schedule
                           ) -> tuple[np.ndarray, np.ndarray]:
    """deviation(z_2, z_1) of the tail pattern's calibration symbols, with
    symbol 2 transformed too, and the bound build_pattern checks instead;
    both (window, hyp, band column)."""
    cal = _calibration(cfg, schedule)
    band = cal.phase.shape[-1]
    z = _responses(cfg, cal, slice(0, band), _slice_buffers(cal, band, symbols=3))
    return (deviation(z[:, 2], z[:, 1], axis=-1),
            _steady_state_bound(cal, z[:, 1], slice(0, band)))


def check_pattern_calibration():
    # SMALL, and a grid whose pattern has a band column that cancels to zero
    for cfg, k in ((SMALL, 6), (WaveformConfig(n_fft=6, m_codes=3, n_cp=2), 4)):
        sched = make_schedule(Scheme.FSI_TAIL, cfg.m_codes, k)
        pat = build_pattern(cfg, sched)
        validate_pattern(pat, cfg, sched, n_cells=4, tol=1e-9)
    dev, bound = steady_state_deviation(SMALL, make_schedule(Scheme.FSI_TAIL,
                                                             SMALL.m_codes, 6))
    if not np.all(dev <= bound):
        raise AssertionError(f"steady-state bound below the deviation: "
                             f"{np.max(dev - bound):.2e}")


def all_checks():
    return [
        ("dft-unitarity", check_dft_unitarity),
        ("code-unitarity", check_code_unitarity),
        ("code-shift-identity", check_code_shift_identity),
        ("spectral-support", check_spectral_support),
        ("base-envelope", check_base_envelope),
        ("despread-roundtrip", check_despread_roundtrip),
        ("si-cancellation", check_si_cancellation),
        ("occasion-grids", check_occasion_grids),
        ("matched-filter-equivalence", check_matched_filter_equivalence),
        ("grid-exactness", check_grid_exactness),
        ("determinism", check_determinism),
        ("pattern-calibration", check_pattern_calibration),
    ]
