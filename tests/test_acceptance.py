"""Release acceptance suite.

One test per criterion; each prints a ``[PASS]``/``[FAIL]`` line with the
measured values (run with ``pytest -s`` to see them). Criteria 9-11 share
five 10-trial Monte Carlo runs at the 32x4 / 8-chain / 64-subcarrier
operating point and take a few minutes; everything else is fast.
"""

import math
from pathlib import Path

import numpy as np
import pytest

from subthzrx import (Architecture, ArrayGeometry, ClusterChannelParams, ComponentPowerCatalog,
                      PhaseShifterType, ReceiverConfig, SimulationParams, SweepSpec,
                      adc_power_w, check_hardware_constraints, component_counts,
                      design_analog_combiner, design_digital_combiner, design_tx_precoder,
                      emit_results, estimate_sinr, generate_channel, lna_power_mw,
                      mmse_digital_combiner, refine_analog_combiner, run_monte_carlo, run_sweep,
                      run_trial, total_power, validate_config)
from subthzrx import CombinerSet

CATALOG = ComponentPowerCatalog()


def _report(number, name, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {number:02d} ({name}): {detail}")
    assert ok, f"criterion {number} ({name}) failed: {detail}"


def _cfg_512(arch, ps=PhaseShifterType.PASSIVE, bits=5):
    return validate_config(ReceiverConfig(
        architecture=arch, bs_geometry=ArrayGeometry(32, 16),
        rf_chains=512 if arch is Architecture.DIGITAL else 8,
        users=8, adc_bits=bits, ps_type=ps))


def test_c01_lna_unit_power():
    value = lna_power_mw(CATALOG)
    _report(1, "LNA unit power", abs(value - 24.0) <= 0.5, f"{value:.4f} mW vs 24.0 +- 0.5")


def test_c02_adc_doubling_law():
    exact = all(adc_power_w(n + 1, 800e6, CATALOG) == 2 * adc_power_w(n, 800e6, CATALOG)
                for n in range(1, 13))
    five_bit_mw = adc_power_w(5, 800e6, CATALOG) * 1e3
    ok = exact and abs(five_bit_mw - 2.048) <= 1e-6
    _report(2, "ADC doubling law", ok,
            f"doubling exact for 1..12 bits: {exact}; 5-bit @ 800 MHz = {five_bit_mw:.9f} mW")


def test_c03_component_count_table():
    table = {
        Architecture.DIGITAL: lambda n, r: (n, 0, n, n, n, n),
        Architecture.SUBARRAY: lambda n, r: (n, n, r, r, r, r),
        Architecture.FULLY_CONNECTED: lambda n, r: (n, n * r, r, r, r, r),
    }
    rng = np.random.default_rng(123)
    checked = 0
    for _ in range(20):
        arch = rng.choice(list(Architecture))
        rows, cols = int(rng.integers(1, 9)), int(rng.integers(1, 9))
        n_bs = rows * cols
        if arch is Architecture.DIGITAL:
            rf = n_bs
        elif arch is Architecture.SUBARRAY:
            rf = int(rng.choice([d for d in range(1, n_bs + 1) if n_bs % d == 0]))
        else:
            rf = int(rng.integers(1, n_bs + 1))
        cfg = validate_config(ReceiverConfig(
            architecture=arch, bs_geometry=ArrayGeometry(rows, cols), rf_chains=rf,
            users=int(rng.integers(1, rf + 1))))
        counts = component_counts(cfg)
        got = (counts.lna, counts.ps, counts.mixers, counts.lo, counts.vga, counts.adc)
        if got != table[arch](n_bs, rf):
            _report(3, "component counts", False, f"{cfg.architecture} N_BS={n_bs} N_RF={rf}: {got}")
        checked += 1
    _report(3, "component counts", checked == 20, f"{checked}/20 random configs match the table")


def test_c04_adc_power_is_insignificant_at_5_bits():
    worst = math.inf
    for arch in Architecture:
        for ps in PhaseShifterType:
            bd = total_power(_cfg_512(arch, ps=ps), CATALOG)
            worst = min(worst, (bd.total_w - bd.adc_w) / bd.adc_w)
    _report(4, "5-bit ADC insignificance", worst >= 10.0,
            f"min non-ADC/ADC ratio over architectures and PS types = {worst:.1f} (>= 10)")


def test_c05_active_ps_blowup_for_fully_connected():
    active = total_power(_cfg_512(Architecture.FULLY_CONNECTED, ps=PhaseShifterType.ACTIVE),
                         CATALOG).total_w
    passive = total_power(_cfg_512(Architecture.FULLY_CONNECTED, ps=PhaseShifterType.PASSIVE),
                          CATALOG).total_w
    ratio = active / passive
    _report(5, "active-PS power blow-up", ratio >= 8.0,
            f"P(active)/P(passive) = {active:.2f}/{passive:.2f} = {ratio:.2f} (>= 8)")


def test_c06_mrc_oracle():
    cfg = validate_config(ReceiverConfig(
        architecture=Architecture.DIGITAL, bs_geometry=ArrayGeometry(8, 4), rf_chains=32,
        users=1, user_geometry=ArrayGeometry(2, 2), subcarriers=64, snr_db=0.0))
    params = SimulationParams(symbols_per_trial=1000, trials=1, seed=0, refine_sweeps=0)
    los = ClusterChannelParams(k_factor_db=math.inf, seed=1)
    result = run_trial(cfg, params, los, trial_seed=0)
    expected = cfg.per_antenna_snr * cfg.n_bs * cfg.n_u
    error_db = abs(10 * math.log10(result.sinr.mean() / expected))
    _report(6, "MRC closed form", error_db <= 0.5,
            f"mean SINR {result.sinr.mean():.2f} vs {expected}: |error| = {error_db:.3f} dB (<= 0.5)")


def test_c07_mmse_zero_forcing_limit():
    rng = np.random.default_rng(42)
    heff = (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))) / math.sqrt(2)
    w_d = mmse_digital_combiner(heff, np.eye(2), 1e-9, users=2)
    error = np.linalg.norm(w_d.conj().T @ heff - np.eye(2))
    oracle_gap = np.linalg.norm(w_d - np.linalg.pinv(heff).conj().T)
    _report(7, "MMSE zero-forcing limit", error < 1e-6 and oracle_gap < 1e-6,
            f"||W^H H - I||_F = {error:.2e} (< 1e-6), pinv-oracle gap {oracle_gap:.2e}")


def test_c08_sinr_estimator_consistency():
    rng = np.random.default_rng(7)
    n = 10_000
    s = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) / math.sqrt(2)
    noise = math.sqrt(0.3 / 2) * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
    est = estimate_sinr(s, 3.0 * s + noise)
    rel = abs(est - 30.0) / 30.0
    _report(8, "SINR estimator consistency", rel <= 0.05,
            f"estimate {est:.3f} vs analytic 30 (relative error {rel:.3%}, <= 5%)")


TREND_GEOMETRY = ArrayGeometry(32, 4)
TREND_SIM = SimulationParams(symbols_per_trial=1000, trials=10, seed=0, refine_sweeps=1)
TREND_CHANNEL = ClusterChannelParams(seed=0)


def _trend_config(arch, snr_db):
    return validate_config(ReceiverConfig(
        architecture=arch, bs_geometry=TREND_GEOMETRY,
        rf_chains=128 if arch is Architecture.DIGITAL else 8,
        users=8, user_geometry=ArrayGeometry(16, 4), subcarriers=64, snr_db=snr_db))


@pytest.fixture(scope="module")
def trend_runs():
    """Five 10-trial Monte Carlo runs shared by criteria 9-11 (minutes)."""
    runs = {}
    for arch, snr_db in [(Architecture.DIGITAL, 0.0), (Architecture.SUBARRAY, 0.0),
                         (Architecture.FULLY_CONNECTED, 0.0),
                         (Architecture.DIGITAL, 10.0), (Architecture.SUBARRAY, 10.0)]:
        runs[(arch, snr_db)] = run_monte_carlo(_trend_config(arch, snr_db), TREND_SIM,
                                               TREND_CHANNEL)
    return runs


def test_c09_architecture_se_ordering(trend_runs):
    da = trend_runs[(Architecture.DIGITAL, 0.0)].mean_se_bits_hz
    sa = trend_runs[(Architecture.SUBARRAY, 0.0)].mean_se_bits_hz
    fh = trend_runs[(Architecture.FULLY_CONNECTED, 0.0)].mean_se_bits_hz
    ok = (da >= sa) and (fh >= sa) and (da >= fh - 0.5)
    _report(9, "architecture SE ordering", ok,
            f"mean SE at 0 dB: DA={da:.2f}, SA={sa:.2f}, FH={fh:.2f} "
            f"(need DA>=SA, FH>=SA, DA>=FH-0.5)")


def test_c10_snr_benefit_asymmetry(trend_runs):
    delta_da = (trend_runs[(Architecture.DIGITAL, 10.0)].mean_se_bits_hz
                - trend_runs[(Architecture.DIGITAL, 0.0)].mean_se_bits_hz)
    delta_sa = (trend_runs[(Architecture.SUBARRAY, 10.0)].mean_se_bits_hz
                - trend_runs[(Architecture.SUBARRAY, 0.0)].mean_se_bits_hz)
    ok = (delta_da >= delta_sa) and (delta_da >= 1.5)
    _report(10, "SNR benefit asymmetry", ok,
            f"dSE(DA)={delta_da:.3f}, dSE(SA)={delta_sa:.3f} (need DA >= SA and DA >= 1.5)")


def test_c11_ee_identity_and_determinism(tmp_path, trend_runs):
    # EE identity on every point of a genuine sweep, byte-identical reruns,
    # and bitwise repeatability of the heavyweight trend trials.
    spec = SweepSpec(
        architectures=(Architecture.DIGITAL, Architecture.SUBARRAY, Architecture.FULLY_CONNECTED),
        array_sizes=(ArrayGeometry(4, 2), ArrayGeometry(8, 2)),
        adc_bits=(5, 10), ps_types=tuple(PhaseShifterType), snr_db=(0.0,),
        sim=SimulationParams(symbols_per_trial=100, trials=2, seed=0, refine_sweeps=1))
    base = ReceiverConfig(bs_geometry=ArrayGeometry(4, 2), users=2,
                          user_geometry=ArrayGeometry(2, 1), subcarriers=4)
    sweep_a = run_sweep(spec, base=base, chan_params=TREND_CHANNEL)
    sweep_b = run_sweep(spec, base=base, chan_params=TREND_CHANNEL)
    identity_ok = all(p.ee_bits_per_joule == p.se_bits_hz * p.config.bandwidth_hz / p.power_w
                      for p in sweep_a.points)
    path_a, path_b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    emit_results(sweep_a, "csv", path_a)
    emit_results(sweep_b, "csv", path_b)
    bytes_ok = Path(path_a).read_bytes() == Path(path_b).read_bytes()

    repeat = run_trial(_trend_config(Architecture.DIGITAL, 0.0), TREND_SIM, TREND_CHANNEL,
                       trial_seed=TREND_SIM.seed)
    trial_ok = np.array_equal(repeat.sinr, trend_runs[(Architecture.DIGITAL, 0.0)].trials[0].sinr)

    ok = identity_ok and bytes_ok and trial_ok and len(sweep_a.points) == 24
    _report(11, "EE identity and determinism", ok,
            f"EE identity on {len(sweep_a.points)} points: {identity_ok}; "
            f"byte-identical rerun: {bytes_ok}; bitwise trial repeat: {trial_ok}")


def test_trend_digital_array_peak_se_margin(trend_runs):
    # Sweep-level invariant at 0 dB / passive PS: the digital array owns the
    # highest-SE point and clears the fully connected peak by >= 0.5 bits/s/Hz.
    da = trend_runs[(Architecture.DIGITAL, 0.0)].mean_se_bits_hz
    sa = trend_runs[(Architecture.SUBARRAY, 0.0)].mean_se_bits_hz
    fh = trend_runs[(Architecture.FULLY_CONNECTED, 0.0)].mean_se_bits_hz
    assert da == max(da, sa, fh)
    assert da >= fh + 0.5


def test_c12_constraint_suite_with_refinement():
    rng = np.random.default_rng(2024)
    checked = 0
    monotone = True
    for _ in range(100):
        arch = rng.choice(list(Architecture))
        rows, cols = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        n_bs = rows * cols
        if arch is Architecture.DIGITAL:
            rf = n_bs
        elif arch is Architecture.SUBARRAY:
            rf = int(rng.choice([d for d in range(1, min(4, n_bs) + 1) if n_bs % d == 0]))
        else:
            rf = int(rng.integers(1, min(4, n_bs) + 1))
        users = int(rng.integers(1, rf + 1))
        user_geom = ArrayGeometry(*rng.choice([(1, 1), (2, 1), (2, 2)]))
        cfg = validate_config(ReceiverConfig(
            architecture=arch, bs_geometry=ArrayGeometry(rows, cols), rf_chains=rf, users=users,
            user_geometry=user_geom, subcarriers=int(rng.integers(2, 7)),
            snr_db=10 * math.log10(rng.uniform(0.5, 10.0))))
        channel = generate_channel(cfg, ClusterChannelParams(seed=int(rng.integers(0, 2 ** 31))))
        v_rf = design_tx_precoder(channel, cfg)
        w_rf = design_analog_combiner(channel, cfg)
        w_rf, history = refine_analog_combiner(w_rf, channel, cfg, v_rf=v_rf, max_sweeps=3,
                                               tol=0.0)
        monotone &= all(b >= a for a, b in zip(history, history[1:]))
        w_d = design_digital_combiner(channel, w_rf, v_rf, cfg)
        check_hardware_constraints(CombinerSet(v_rf, w_rf, w_d), cfg)
        checked += 1
    _report(12, "constraint suite", checked == 100 and monotone,
            f"{checked}/100 random configs hold all combiner constraints after 3 refinement "
            f"sweeps; surrogate monotone: {monotone}")
