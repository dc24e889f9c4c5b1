"""Acceptance criteria, one test per criterion (or sub-criterion).

Each test prints a PASS/FAIL line before asserting so a full run leaves a
readable scoreboard even when a criterion fails.
"""

import time

import numpy as np
import pytest

from jcas import (ChannelConfig, Scheme, Target, WaveformConfig, WindowKind,
                  assemble_frame, build_pattern, find_peaks, make_base_set,
                  make_chirp, make_code_matrix, make_schedule,
                  make_sensing_waveforms, process_sensing, receive_tail,
                  run_link, substream, synthesize_rx, unitary_dft)
from jcas.channel import echo_component
from jcas.cli import (FIG6_TARGETS, FIG7_OFFGRID_TARGETS, FIG7_TARGETS,
                      Scenario, run_preset, run_simulate)
from jcas.comms import despread, qpsk_ber_awgn
from jcas.util import kmh_to_mps

SEED = 2026
DEFAULTS = WaveformConfig()


def report(label: str, ok: bool, detail: str = "") -> bool:
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] {label}: {status}" + (f" ({detail})" if detail else ""))
    return ok


# -------------------------------------------------------------- criterion 1

def test_criterion1_spectral_support_theorem():
    rng = np.random.default_rng(1)
    t0 = time.perf_counter()
    worst = 0.0
    for m in (2, 4, 8):
        for n in (64, 2048):
            cfg = WaveformConfig(n_fft=n, m_codes=m, n_cp=n // m, scs_hz=60e3)
            chirp = np.exp(2j * np.pi * rng.random(cfg.l_occ))
            base = make_base_set(cfg, chirp)
            for row in range(m):
                spec = np.abs(unitary_dft(base[row])) ** 2
                support = spec[row::m].sum()
                off = spec.sum() - support
                worst = max(worst, off / spec.sum())
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-10 and elapsed < 1.0
    assert report("criterion 1 (tiled-chirp spectral support)", ok,
                  f"worst off-grid fraction {worst:.2e}, {elapsed:.2f}s")


# -------------------------------------------------------------- criterion 2

def test_criterion2_code_algebra():
    u = make_code_matrix(4)
    unit_err = np.max(np.abs(u @ u.conj().T - np.eye(4)))

    shift_err = 0.0
    for m in (2, 4, 8):
        cfg = WaveformConfig(n_fft=256 * m, m_codes=m, n_cp=256, scs_hz=60e3)
        chirp = make_chirp(cfg)
        waves = make_sensing_waveforms(make_base_set(cfg, chirp),
                                       make_code_matrix(m))
        for i in range(m):
            shift_err = max(shift_err, np.max(np.abs(
                np.roll(waves[i], cfg.l_occ) - waves[(i + 1) % m])))

    from jcas import spread_and_assemble
    cfg = DEFAULTS
    rng = np.random.default_rng(2)
    codes = make_code_matrix(cfg.m_codes)
    chirp = make_chirp(cfg)
    data = rng.normal(size=(3, cfg.l_occ)) + 1j * rng.normal(size=(3, cfg.l_occ))
    spectrum = spread_and_assemble(cfg, 1, unitary_dft(chirp), data, codes)
    est, _ = despread(spectrum, codes, 1)
    rt_err = max(np.max(np.abs(est[i] - data[row]))
                 for row, i in enumerate([0, 2, 3]))

    ok = unit_err <= 1e-12 and shift_err <= 1e-12 and rt_err <= 1e-12
    assert report("criterion 2 (code algebra)", ok,
                  f"unitarity {unit_err:.1e}, shift {shift_err:.1e}, "
                  f"despread {rt_err:.1e}")


# -------------------------------------------------------------- criterion 3

def test_criterion3_exact_si_cancellation():
    t0 = time.perf_counter()
    cfg = DEFAULTS
    sched = make_schedule(Scheme.FSI_RANDOM, cfg.m_codes, 64,
                          rng=substream(SEED, "c3/schedule"))
    tx = assemble_frame(cfg, sched, rng=substream(SEED, "c3/payload"))
    cc = ChannelConfig(noise_enabled=False)   # SI +100 dB only
    rx = synthesize_rx(tx, [], cc, cfg)
    residual = np.max(np.abs(process_sensing(rx, cfg, sched).values))

    ref_rx = echo_component(tx, 10, 0.0, 1.0, cfg.t_s)
    ref_peak = np.max(np.abs(process_sensing(ref_rx, cfg, sched).values))
    elapsed = time.perf_counter() - t0
    ok = residual <= 1e-8 * ref_peak and elapsed < 10.0
    assert report("criterion 3 (exact SI cancellation)", ok,
                  f"residual/ref = {residual / ref_peak:.2e}, {elapsed:.1f}s")


# -------------------------------------------------------------- criterion 4

@pytest.fixture(scope="module")
def fig6_runs(tmp_path_factory):
    out = tmp_path_factory.mktemp("fig6")
    t0 = time.perf_counter()
    runs = {}
    for scheme in ("sensing_only", "periodic_td", "rtd", "fsi_random"):
        scn = Scenario(scheme=scheme, targets=list(FIG6_TARGETS), seed=SEED)
        runs[scheme] = run_simulate(scn, out / scheme)
    runs["elapsed"] = time.perf_counter() - t0
    return runs


def _matched_errors(report_dict):
    ev = report_dict["evaluation"]["single"]
    return {m["truth_index"]: (abs(m["range_bin_error"]),
                               abs(m["doppler_bin_error"]))
            for m in ev["matched"]}, ev


def test_criterion4a_sensing_only(fig6_runs):
    errs, ev = _matched_errors(fig6_runs["sensing_only"])
    ok = set(errs) == {0, 1} and all(dd <= 1 and dv <= 1
                                     for dd, dv in errs.values())
    assert report("criterion 4a (sensing-only detects both targets)", ok,
                  f"bin errors {errs}")


def test_criterion4b_periodic_td_alias(fig6_runs):
    cfg = DEFAULTS
    rep = fig6_runs["periodic_td"]
    errs, ev = _matched_errors(rep)
    first_ok = 0 in errs and errs[0] <= (1, 1)

    # the folding oracle: 55.556 kHz - 60 kHz = -4.444 kHz -> -11.11 m/s
    f_d = 2 * kmh_to_mps(500.0) / cfg.wavelength_m
    period_hz = 1.0 / (cfg.m_codes * cfg.t_chirp)
    f_alias = f_d - round(f_d / period_hz) * period_hz
    assert abs(f_alias - (-4444.44)) < 1.0
    v_alias_kmh = f_alias * cfg.wavelength_m / 2 * 3.6
    assert abs(v_alias_kmh - (-40.0)) < 0.5
    n_grid = rep["grid_size"]
    alias_bin = round(f_alias * n_grid * cfg.t_chirp)
    d2_bin = 328

    dets = rep["detections"]["single"]
    alias_hit = any(abs(d["range_bin"] - d2_bin) <= 1
                    and abs(d["doppler_bin"] - alias_bin) <= 1 for d in dets)
    true_missed = 1 in ev["misses"]
    ok = first_ok and alias_hit and true_missed
    assert report("criterion 4b (periodic TD aliases 500 km/h to -40 km/h)",
                  ok, f"alias bin {alias_bin}, first target errors "
                      f"{errs.get(0)}, true tuple missed: {true_missed}")


def test_criterion4b_alias_is_interference(fig6_runs):
    """The 500 km/h target's alias in periodic TD's band lies near no
    truth, so it is a false alarm and the strongest interference."""
    ev = fig6_runs["periodic_td"]["evaluation"]["single"]
    (match,) = ev["matched"]
    ghost = max(ev["false_alarms"], key=lambda d: d["normalized_power"])
    p2i = 10 * np.log10(match["detection"]["normalized_power"]
                        / ghost["normalized_power"])
    ok = (ghost["range_bin"], ghost["doppler_bin"]) == (328, -6) \
        and abs(ev["peak_to_interference_db"] - p2i) < 1e-9 \
        and abs(p2i - 5.83) < 0.01
    assert report("criterion 4b (the alias counts as interference)", ok,
                  f"ghost {ghost['cell']}, peak-to-interference "
                  f"{ev['peak_to_interference_db']:.2f} dB against {p2i:.2f} dB")


def test_criterion4c_rtd_detection(fig6_runs):
    errs, _ = _matched_errors(fig6_runs["rtd"])
    ok = set(errs) == {0, 1} and all(dd <= 1 and dv <= 1
                                     for dd, dv in errs.values())
    assert report("criterion 4c (RTD detects both targets within 1 bin)", ok,
                  f"bin errors {errs}")


def test_criterion4c_rtd_interference_margin(fig6_runs):
    """Asserts the stated 10 dB bound; structurally out of reach here.

    The weaker target loses ~3 dB to slot eclipsing (its echo slides out
    of the scheduled slot into the neighboring data slot) plus range
    straddle, while the strongest sidelobe of K-of-MK random slow-time
    sampling sits near -12 dB of the strongest peak (mean pedestal
    1/K ~ -19 dB plus the expected maximum over the target rows). That
    caps the measured ratio around 7-10 dB for every seed; the detection
    itself always succeeds.
    """
    p2i = fig6_runs["rtd"]["evaluation"]["single"]["peak_to_interference_db"]
    ok = p2i is not None and p2i >= 10.0
    assert report("criterion 4c (RTD peak-to-interference >= 10 dB)", ok,
                  f"measured {p2i:.2f} dB")


def test_criterion4d_fsi_detection(fig6_runs):
    errs, _ = _matched_errors(fig6_runs["fsi_random"])
    ok = set(errs) == {0, 1} and all(dd <= 1 and dv <= 1
                                     for dd, dv in errs.values())
    assert report("criterion 4d (FSI-OFDM detects both targets within 1 bin)",
                  ok, f"bin errors {errs}")


def test_criterion4d_fsi_interference_margin(fig6_runs):
    """Asserts the stated 10 dB bound; structurally out of reach here.

    With a cyclic prefix, the implanted-chirp symbol spans M + N_CP/L
    occasions but the sensing code can only sit on M of them, so the
    slow-time jitter cannot fully dither the symbol-rate aliases: spurs
    at +-G/(M + N_CP/L) Doppler bins survive at roughly -12 dB of the
    parent peak (the per-code mixing ladder modulates this with Doppler).
    Together with the mixer's code-Dirichlet range scalloping of the
    weaker target (~3 dB), the measured ratio lands near 2-7 dB across
    seeds; detection of both targets always succeeds.
    """
    p2i = fig6_runs["fsi_random"]["evaluation"]["single"]["peak_to_interference_db"]
    ok = p2i is not None and p2i >= 10.0
    assert report("criterion 4d (FSI peak-to-interference >= 10 dB)", ok,
                  f"measured {p2i:.2f} dB")


def test_criterion4_runtime(fig6_runs):
    ok = fig6_runs["elapsed"] < 120.0
    assert report("criterion 4 (runtime < 2 min)", ok,
                  f"{fig6_runs['elapsed']:.1f}s")


# -------------------------------------------------------------- criterion 5

@pytest.fixture(scope="module")
def fig7_setup():
    cfg = DEFAULTS
    sched = make_schedule(Scheme.FSI_TAIL, cfg.m_codes, 64)
    t0 = time.perf_counter()
    pat = build_pattern(cfg, sched)

    def run(targets, cleanup):
        tx = assemble_frame(cfg, sched, rng=substream(SEED, "c5/payload"))
        tl = [Target(t["range_m"], kmh_to_mps(t["velocity_kmh"]))
              for t in targets]
        rx = synthesize_rx(tx, tl, ChannelConfig(), cfg,
                           rng=substream(SEED, "c5/noise"))
        std, shift = (process_sensing(rx, cfg, sched, kind, pat.n_guard)
                      for kind in WindowKind)
        return std, shift, receive_tail(std, shift, pat,
                                        cleanup_radius=2 if cleanup else None)

    return {"cfg": cfg, "run": run, "t0": t0}


def test_criterion5_fig7_super_distance(fig7_setup):
    cfg = fig7_setup["cfg"]
    std_b, shf_b, combined = fig7_setup["run"](FIG7_TARGETS, cleanup=False)

    # single-window maps place the 900 m target inside the 625 m span
    span_ok, wrong_range_seen = True, False
    for m in (std_b, shf_b):
        for d in find_peaks(m):
            span_ok &= d.range_m < 625.0
            if abs(d.range_bin - 225) <= 2:      # 900 m folded to ~275 m
                wrong_range_seen = True
    misplaced = span_ok and wrong_range_seen

    dets = find_peaks(combined)
    near_hit = any(abs(d.range_bin - 82) <= 2 and d.velocity_kmh > 0
                   for d in dets)
    far_hit = any(abs(d.range_bin - 737) <= 2 and d.velocity_kmh < 0
                  for d in dets)
    ok = misplaced and near_hit and far_hit
    assert report("criterion 5 (fig7: 100 m / 900 m split via 2x2 solve)",
                  ok, f"misplaced={misplaced}, dets="
                      f"{[(round(d.range_m), round(d.velocity_kmh)) for d in dets]}")


def test_criterion5_offgrid_with_cleanup(fig7_setup):
    _, _, combined = fig7_setup["run"](FIG7_OFFGRID_TARGETS, cleanup=True)
    dets = find_peaks(combined)
    hit_400 = any(abs(d.range_bin - 328) <= 2 for d in dets)
    hit_500 = any(abs(d.range_bin - 410) <= 2 for d in dets)
    ghosts = [d for d in dets if not (abs(d.range_bin - 328) <= 2
                                      or abs(d.range_bin - 410) <= 2)]
    ok = hit_400 and hit_500 and not ghosts
    assert report("criterion 5 (off-grid pair with peak cleanup)", ok,
                  f"dets={[(round(d.range_m), round(d.velocity_kmh)) for d in dets]}")


def test_criterion5_runtime(fig7_setup):
    elapsed = time.perf_counter() - fig7_setup["t0"]
    ok = elapsed < 120.0
    assert report("criterion 5 (runtime < 2 min)", ok, f"{elapsed:.1f}s")


# -------------------------------------------------------------- criterion 6

def test_criterion6_super_doppler_edge(tmp_path):
    cfg = DEFAULTS
    n_grid = 320
    v_bin_kmh = (1 / (n_grid * cfg.t_chirp)) * cfg.wavelength_m / 2 * 3.6
    nu0 = round(1069.0 / v_bin_kmh)          # nearest on-grid bin to +1069
    v_kmh = nu0 * v_bin_kmh                  # 1066.5 km/h, inside +-1080
    assert abs(v_kmh - 1069.0) < v_bin_kmh
    r_m = 100 * 3e8 * cfg.t_s / 2            # on-grid range bin 100
    target = {"range_m": r_m, "velocity_kmh": v_kmh}

    results = {}
    for scheme in ("rtd", "fsi_random", "periodic_td"):
        scn = Scenario(scheme=scheme, targets=[target], seed=SEED)
        rep = run_simulate(scn, tmp_path / scheme)
        results[scheme] = rep["detections"]["single"][0]

    rtd_ok = results["rtd"]["doppler_bin"] == nu0 \
        and abs(results["rtd"]["range_bin"] - 100) <= 1
    fsi_ok = results["fsi_random"]["doppler_bin"] == nu0 \
        and abs(results["fsi_random"]["range_bin"] - 100) <= 1

    # folding oracle for the periodic scheme
    f_d = 2 * kmh_to_mps(v_kmh) / cfg.wavelength_m
    period_hz = 1.0 / (cfg.m_codes * cfg.t_chirp)
    f_alias = f_d - round(f_d / period_hz) * period_hz
    alias_bin = round(f_alias * n_grid * cfg.t_chirp)
    td_ok = results["periodic_td"]["doppler_bin"] == alias_bin \
        and abs(results["periodic_td"]["range_bin"] - 100) <= 1

    ok = rtd_ok and fsi_ok and td_ok
    assert report("criterion 6 (super-Doppler edge at ~+1069 km/h)", ok,
                  f"bin {nu0}: rtd={results['rtd']['doppler_bin']}, "
                  f"fsi={results['fsi_random']['doppler_bin']}, "
                  f"td={results['periodic_td']['doppler_bin']} "
                  f"(oracle alias {alias_bin})")


# -------------------------------------------------------------- criterion 7

def test_criterion7_comms_integrity():
    cfg = DEFAULTS
    k = 33   # 101376 bits
    sched = make_schedule(Scheme.FSI_RANDOM, cfg.m_codes, k,
                          rng=substream(SEED, "c7/schedule"))
    bits = substream(SEED, "c7/bits").integers(0, 2, k * 2 * 3 * cfg.l_occ)
    ber0, _ = run_link(cfg, sched, bits)

    # cross-code leakage of a pure single-code symbol
    rng = np.random.default_rng(3)
    codes = make_code_matrix(cfg.m_codes)
    d = rng.normal(size=cfg.l_occ) + 1j * rng.normal(size=cfg.l_occ)
    s = (d[:, None] * codes[2][None, :]).reshape(-1)
    est, _ = despread(s, codes, sensing_code=0)
    leak_db = 10 * np.log10(np.sum(np.abs(est[1]) ** 2)
                            / np.sum(np.abs(d) ** 2) + 1e-300)

    k10 = 130
    sched10 = make_schedule(Scheme.FSI_RANDOM, cfg.m_codes, k10,
                            rng=substream(SEED, "c7b/schedule"))
    bits10 = substream(SEED, "c7b/bits").integers(0, 2, k10 * 2 * 3 * cfg.l_occ)
    ber10, _ = run_link(cfg, sched10, bits10, snr_db=10.0,
                        rng=substream(SEED, "c7b/noise"))
    ref = qpsk_ber_awgn(10.0)

    ok = ber0 == 0.0 and leak_db <= -100.0 and abs(ber10 - ref) <= 0.3 * ref
    assert report("criterion 7 (comms integrity)", ok,
                  f"BER0={ber0}, leakage={leak_db:.0f} dB, "
                  f"BER@10dB={ber10:.2e} vs {ref:.2e}")


# -------------------------------------------------------------- criterion 8

def test_criterion8_determinism(tmp_path):
    run_preset("fig6", tmp_path / "a", seed=SEED, threads=1)
    run_preset("fig6", tmp_path / "b", seed=SEED, threads=4)
    run_preset("fig7", tmp_path / "a7", seed=SEED, threads=1)
    run_preset("fig7", tmp_path / "b7", seed=SEED, threads=2)
    identical = True
    n = 0
    for da, db in ((("a", "b")), (("a7", "b7"))):
        for f in sorted((tmp_path / da).glob("rd_*.bin")):
            n += 1
            identical &= f.read_bytes() == (tmp_path / db / f.name).read_bytes()
    ok = identical and n >= 9
    assert report("criterion 8 (byte-identical artifacts)", ok,
                  f"{n} artifacts compared")
