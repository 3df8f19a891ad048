import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from subthzrx import (Architecture, ClusterChannelParams, CombinerSet, SimulationParams,
                      apply_system, compute_se, design_combiners, design_tx_precoder,
                      design_analog_combiner, effective_channel, estimate_sinr,
                      generate_channel, generate_symbols, run_monte_carlo, run_trial)

from conftest import receiver_configs, small_config


class TestGenerateSymbols:
    def test_moments(self):
        s = generate_symbols(4, 2, 100_000, seed=0)
        var = np.var(s, axis=0)
        # per-stream variance 1/U within 5%, mean within 5 sigma / sqrt(n)
        np.testing.assert_allclose(var, 0.25, rtol=0.05)
        assert np.all(np.abs(s.mean(axis=0)) < 5 * math.sqrt(0.25 / 100_000))

    def test_deterministic(self):
        a = generate_symbols(2, 3, 50, seed=9)
        b = generate_symbols(2, 3, 50, seed=9)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, generate_symbols(2, 3, 50, seed=10))

    def test_shape_and_validation(self):
        assert generate_symbols(3, 5, 7, seed=0).shape == (7, 3, 5)
        with pytest.raises(ValueError):
            generate_symbols(0, 5, 7, seed=0)


class TestApplySystem:
    def _setup(self, snr=1.0, seed=0):
        cfg = small_config(architecture=Architecture.DIGITAL, rows=4, cols=2, users=2,
                           user_rows=2, user_cols=1, subcarriers=3, snr=snr)
        chan = generate_channel(cfg, ClusterChannelParams(seed=seed))
        return cfg, chan

    def test_noiseless_zero_forcing_recovers_symbols(self):
        cfg, chan = self._setup()
        v = design_tx_precoder(chan, cfg)
        w_rf = design_analog_combiner(chan, cfg)
        heff = effective_channel(chan, w_rf, v)
        # explicit per-subcarrier inverse: W_D^H Heff == I
        w_d = np.stack([np.linalg.pinv(heff[k]).conj().T for k in range(3)])
        combiners = CombinerSet(v, w_rf, w_d)
        s = generate_symbols(2, 3, 64, seed=1)
        y = apply_system(s, chan, combiners, noise_power=0.0, seed=2)
        np.testing.assert_allclose(y, s, atol=1e-9)

    def test_zero_symbols_leave_combined_noise(self):
        cfg, chan = self._setup()
        combiners = design_combiners(chan, cfg)
        n = 10_000
        s = np.zeros((n, 2, 3), dtype=complex)
        sigma2 = 0.7
        y = apply_system(s, chan, combiners, noise_power=sigma2, seed=3)
        rx_map = combiners.w_d.conj().swapaxes(-1, -2) @ combiners.w_rf.conj().T
        for k in range(3):
            expected = sigma2 * np.diag(rx_map[k] @ rx_map[k].conj().T).real
            measured = np.mean(np.abs(y[:, :, k]) ** 2, axis=0)
            np.testing.assert_allclose(measured, expected, rtol=0.10)

    def test_noise_power_scales_linearly(self):
        cfg, chan = self._setup()
        combiners = design_combiners(chan, cfg)
        s = generate_symbols(2, 3, 5000, seed=4)
        clean = apply_system(s, chan, combiners, noise_power=0.0, seed=5)
        y1 = apply_system(s, chan, combiners, noise_power=0.5, seed=5)
        y2 = apply_system(s, chan, combiners, noise_power=1.0, seed=5)
        r1 = np.mean(np.abs(y1 - clean) ** 2)
        r2 = np.mean(np.abs(y2 - clean) ** 2)
        assert r2 / r1 == pytest.approx(2.0, rel=0.10)

    def test_shape_mismatch_rejected(self):
        cfg, chan = self._setup()
        combiners = design_combiners(chan, cfg)
        with pytest.raises(ValueError):
            apply_system(generate_symbols(2, 5, 10, seed=0), chan, combiners, 1.0, seed=0)
        with pytest.raises(ValueError):
            apply_system(generate_symbols(3, 3, 10, seed=0), chan, combiners, 1.0, seed=0)


def _reference_apply(symbols, chan, combiners, noise_power, seed):
    """Reference symbol pass: W_RF always multiplied, complex noise drawn as
    separate real and imaginary (N_BS, T) blocks."""
    rx_map = combiners.w_d.conj().swapaxes(-1, -2) @ combiners.w_rf.conj().T
    stream_map = rx_map @ (chan.h @ combiners.v_rf / math.sqrt(chan.n_tx_per_user))
    received = np.einsum("kuv,tvk->tuk", stream_map, symbols)
    rng = np.random.default_rng(seed)
    amp = np.sqrt(noise_power / 2)
    shape = (chan.n_rx, symbols.shape[0])
    for k in range(chan.subcarriers):
        z = amp * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
        received[:, :, k] += (rx_map[k] @ z).T
    return received


class TestApplySystemMatchesReference:
    @settings(max_examples=40, deadline=None)
    @given(cfg=receiver_configs(), seed=st.integers(0, 2**16),
           noise_power=st.sampled_from([0.0, 0.3, 2.0]))
    def test_same_output_at_same_seed(self, cfg, seed, noise_power):
        chan = generate_channel(cfg, ClusterChannelParams(seed=seed))
        combiners = design_combiners(chan, cfg, refine_sweeps=1)
        s = generate_symbols(cfg.users, cfg.subcarriers, 37, seed=seed + 1)
        y = apply_system(s, chan, combiners, noise_power, seed=seed + 2)
        ref = _reference_apply(s, chan, combiners, noise_power, seed + 2)
        np.testing.assert_allclose(y, ref, rtol=0, atol=1e-12 * np.max(np.abs(ref)))


class TestEstimateSinr:
    def test_noiseless_hits_floor_cap(self):
        s = generate_symbols(1, 1, 100, seed=0)[:, 0, 0]
        sinr = estimate_sinr(s, 2.0 * s, floor=1e-12)
        assert sinr == pytest.approx(1e12, rel=1e-6)

    def test_consistency_against_analytic_snr(self):
        rng = np.random.default_rng(1)
        n = 10_000
        s = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) / math.sqrt(2)
        noise = math.sqrt(0.3 / 2) * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
        sinr = estimate_sinr(s, 3.0 * s + noise)
        assert sinr == pytest.approx(9.0 / 0.3, rel=0.05)

    def test_uncorrelated_output_estimates_to_zero(self):
        rng = np.random.default_rng(2)
        n = 10_000
        s = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) / math.sqrt(2)
        y = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) / math.sqrt(2)
        assert estimate_sinr(s, y) < 0.05

    def test_scale_invariance(self):
        rng = np.random.default_rng(3)
        n = 500
        s = (rng.standard_normal(n) + 1j * rng.standard_normal(n))
        y = 2.0 * s + 0.3 * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
        base = estimate_sinr(s, y)
        for scale in (0.01, 7.0, -2.5 + 1j):
            assert estimate_sinr(s, scale * y) == pytest.approx(base, rel=1e-9)

    def test_vectorized_over_streams(self):
        s = generate_symbols(2, 3, 400, seed=4)
        sinr = estimate_sinr(s, 2.0 * s + 0.0, floor=1e-12)
        assert sinr.shape == (2, 3)

    def test_degenerate_inputs_rejected(self):
        with pytest.raises(ValueError, match="2 symbols"):
            estimate_sinr(np.ones(1, dtype=complex), np.ones(1, dtype=complex))
        with pytest.raises(ValueError, match="zero"):
            estimate_sinr(np.zeros(8, dtype=complex), np.ones(8, dtype=complex))


class TestComputeSe:
    def test_unit_sinr_eight_users(self):
        assert compute_se(np.ones((8, 16))) == pytest.approx(8.0)

    def test_zero_sinr(self):
        assert compute_se(np.zeros((3, 4))) == 0.0

    def test_hand_computed_average(self):
        assert compute_se(np.array([[1.0, 3.0]])) == pytest.approx(1.5)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            compute_se(np.array([[-0.1]]))


class TestRunTrial:
    def test_deterministic_given_seed(self, chan_params):
        cfg = small_config()
        params = SimulationParams(symbols_per_trial=100, trials=1, seed=0)
        a = run_trial(cfg, params, chan_params, trial_seed=5)
        b = run_trial(cfg, params, chan_params, trial_seed=5)
        assert np.array_equal(a.sinr, b.sinr)
        assert a.se_bits_hz == b.se_bits_hz
        c = run_trial(cfg, params, chan_params, trial_seed=6)
        assert not np.array_equal(a.sinr, c.sinr)

    def test_mrc_oracle_small(self):
        cfg = small_config(architecture=Architecture.DIGITAL, rows=4, cols=2, users=1,
                           user_rows=2, user_cols=1, subcarriers=8, snr=1.0)
        params = SimulationParams(symbols_per_trial=1000, trials=1, seed=0, refine_sweeps=0)
        los = ClusterChannelParams(k_factor_db=math.inf, seed=1)
        res = run_trial(cfg, params, los, trial_seed=2)
        expected = cfg.per_antenna_snr * cfg.n_bs * cfg.n_u
        ratio_db = 10 * math.log10(res.sinr.mean() / expected)
        assert abs(ratio_db) < 0.5

    def test_phase_only_combining_matches_digital_on_rank_one(self):
        # Rank-1 channel, single stream: a unit-modulus column is already the
        # matched filter, so FH and DA spectral efficiencies coincide.
        ses = {}
        for arch, rf in [(Architecture.DIGITAL, 8), (Architecture.FULLY_CONNECTED, 1)]:
            cfg = small_config(architecture=arch, rows=4, cols=2, rf=rf, users=1,
                               user_rows=2, user_cols=1, subcarriers=8, snr=1.0)
            params = SimulationParams(symbols_per_trial=1000, trials=1, seed=0, refine_sweeps=1)
            res = run_trial(cfg, params, ClusterChannelParams(k_factor_db=math.inf, seed=3),
                            trial_seed=4)
            ses[arch] = res.se_bits_hz
        assert ses[Architecture.FULLY_CONNECTED] == pytest.approx(
            ses[Architecture.DIGITAL], rel=0.02)

    def test_se_monotone_in_snr(self, chan_params):
        params = SimulationParams(symbols_per_trial=300, trials=1, seed=0)
        for arch in Architecture:
            for seed in (0, 1, 2):
                low = run_trial(small_config(architecture=arch, snr=1.0), params, chan_params,
                                trial_seed=seed)
                high = run_trial(small_config(architecture=arch, snr=10.0), params, chan_params,
                                 trial_seed=seed)
                assert high.se_bits_hz >= low.se_bits_hz


class TestMonteCarlo:
    def test_single_trial_mean(self, chan_params):
        cfg = small_config()
        params = SimulationParams(symbols_per_trial=100, trials=1, seed=7)
        mc = run_monte_carlo(cfg, params, chan_params)
        assert mc.mean_se_bits_hz == mc.trials[0].se_bits_hz
        assert mc.std_se_bits_hz == 0.0

    def test_mean_is_order_invariant(self, chan_params):
        cfg = small_config()
        params = SimulationParams(symbols_per_trial=100, trials=4, seed=0)
        mc = run_monte_carlo(cfg, params, chan_params)
        ses = [t.se_bits_hz for t in mc.trials]
        assert mc.mean_se_bits_hz == pytest.approx(np.mean(ses[::-1]), rel=1e-12)

    def test_standard_error_shrinks_with_more_trials(self, chan_params):
        # Variance-of-the-mean law: the 40-trial standard error should beat
        # the one estimated from the first 10 trials in most repeats.
        cfg = small_config(subcarriers=2)
        wins = 0
        repeats = 5
        for base_seed in range(repeats):
            params = SimulationParams(symbols_per_trial=50, trials=40, seed=1000 * base_seed)
            mc = run_monte_carlo(cfg, params, chan_params)
            ses = np.array([t.se_bits_hz for t in mc.trials])
            sem40 = ses.std(ddof=1) / math.sqrt(40)
            sem10 = ses[:10].std(ddof=1) / math.sqrt(10)
            wins += sem40 < sem10
        assert wins >= repeats - 1
