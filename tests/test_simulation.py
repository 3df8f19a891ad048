import cmath
import dataclasses
import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from subthzrx import (Architecture, ClusterChannelParams, CombinerSet, ConfigError, ReceiverConfig,
                      SimulationParams, apply_system, compute_se, design_combiners, design_tx_precoder,
                      design_analog_combiner, effective_channel, emit_results, estimate_sinr,
                      generate_channel, generate_symbols, load_channel, run_monte_carlo,
                      run_trial, save_channel)

from subthzrx import simulation
from subthzrx.config import _DOMAINS
from conftest import as_matrix, composed_sinr, dense, receiver_configs, small_config


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

    @pytest.mark.parametrize("shape", [(1000, 8, 4), (11, 3, 7)])
    def test_equals_scaled_sum_of_two_draws(self, shape):
        # Written into one complex array, the two draws give the symbols of
        # scale * (re + 1j * im) bit for bit.
        n_symbols, users, subcarriers = shape
        rng = np.random.default_rng(5)
        reference = np.sqrt(1.0 / (2 * users)) * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
        assert np.array_equal(generate_symbols(users, subcarriers, n_symbols, seed=5), reference)

    def test_shape_and_validation(self):
        assert generate_symbols(3, 5, 7, seed=0).shape == (7, 3, 5)
        with pytest.raises(ValueError):
            generate_symbols(0, 5, 7, seed=0)


class TestApplySystem:
    def _setup(self, snr_db=0.0, seed=0, architecture=Architecture.DIGITAL):
        cfg = small_config(architecture=architecture, rows=4, cols=2, users=2,
                           user_rows=2, user_cols=1, subcarriers=3, snr_db=snr_db)
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
        rx_map = combiners.w_d.conj().swapaxes(-1, -2) @ as_matrix(combiners.w_rf, cfg.n_bs).conj().T
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

    @pytest.mark.parametrize("case, message", [
        ("symbols-2d", "symbols must be"), ("noise-negative", "noise_power"),
        ("noise-nan", "noise_power"), ("w_d-subcarriers", "combiner shapes"),
        ("w_d-chains-digital", "combiner shapes"), ("w_d-chains-subarray", "combiner shapes"),
        ("w_d-streams", "combiner shapes"),
    ])
    def test_bad_input_rejected(self, case, message):
        # W_D has one row per chain: N_BS for the digital array (no W_RF),
        # W_RF's columns for the sub-array, and one column per stream.
        arch = Architecture.SUBARRAY if case.endswith("subarray") else Architecture.DIGITAL
        cfg, chan = self._setup(architecture=arch)
        combiners = design_combiners(chan, cfg)
        symbols, noise_power = generate_symbols(2, 3, 10, seed=0), 1.0
        if case == "symbols-2d":
            symbols = symbols[:, :, 0]
        elif case.startswith("noise"):
            noise_power = -1.0 if case == "noise-negative" else math.nan
        elif case == "w_d-subcarriers":
            combiners = dataclasses.replace(combiners, w_d=combiners.w_d[:2])
        elif case == "w_d-streams":
            combiners = dataclasses.replace(combiners, w_d=combiners.w_d[:, :, :1])
        else:
            combiners = dataclasses.replace(combiners, w_d=combiners.w_d[:, :cfg.rf_chains - 1])
        with pytest.raises(ValueError, match=message):
            apply_system(symbols, chan, combiners, noise_power, seed=0)


def _reference_apply(symbols, chan, combiners, noise_power, seed):
    """Reference symbol pass: W_RF always multiplied (the identity for the
    digital array's None), complex noise drawn as separate real and
    imaginary (N_BS, T) blocks."""
    rx_map = combiners.w_d.conj().swapaxes(-1, -2) @ as_matrix(combiners.w_rf, chan.n_rx).conj().T
    stream_map = rx_map @ (dense(chan).h @ combiners.v_rf / math.sqrt(chan.n_tx_per_user))
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

    @pytest.mark.parametrize("architecture", list(Architecture))
    def test_many_row_blocks_match_reference(self, architecture):
        # 10 000 symbols: a block of normals holds fewer rows than the
        # 2 N_BS = 16 of a subcarrier, so each subcarrier's draw takes two.
        cfg = small_config(architecture=architecture, rows=4, cols=2, rf=2, users=2, subcarriers=3)
        n_symbols = 10_000
        assert simulation.NOISE_BLOCK_BYTES // (8 * n_symbols) < 2 * cfg.n_bs
        chan = generate_channel(cfg, ClusterChannelParams(seed=3))
        combiners = design_combiners(chan, cfg, refine_sweeps=1)
        s = generate_symbols(cfg.users, cfg.subcarriers, n_symbols, seed=4)
        y = apply_system(s, chan, combiners, 0.7, seed=5)
        ref = _reference_apply(s, chan, combiners, 0.7, 5)
        np.testing.assert_allclose(y, ref, rtol=0, atol=1e-12 * np.max(np.abs(ref)))

    @pytest.mark.parametrize("architecture", list(Architecture))
    def test_noiseless_output_equals_einsum(self, architecture):
        # The signal is one matmul per receiver; an einsum over the same
        # stream map agrees entry by entry.
        cfg = small_config(architecture=architecture, rows=8, cols=4, rf=4, users=4,
                           subcarriers=16)
        chan = generate_channel(cfg, ClusterChannelParams(seed=7))
        combiners = design_combiners(chan, cfg, refine_sweeps=1)
        s = generate_symbols(cfg.users, cfg.subcarriers, 50, seed=8)
        stream_map = combiners.w_d.conj().swapaxes(-1, -2) @ effective_channel(
            chan, combiners.w_rf, combiners.v_rf)
        np.testing.assert_allclose(apply_system(s, chan, combiners, 0.0, seed=9),
                                   np.einsum("kuv,tvk->tuk", stream_map, s), rtol=1e-12, atol=0)


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
        with pytest.raises(ValueError, match="shape"):
            estimate_sinr(np.ones((8, 2), dtype=complex), np.ones((8, 3), dtype=complex))

    @pytest.mark.parametrize("floor", [math.nan, -1.0, 0.0], ids=["nan", "negative", "zero"])
    def test_bad_floor_rejected(self, floor):
        # The rule of SimulationParams.sinr_floor: a NaN floor would read
        # every stream as SINR 0, a negative one as no floor at all.
        s = generate_symbols(2, 1, 100, seed=0)
        with pytest.raises(ValueError, match="floor"):
            estimate_sinr(s, 2.0 * s, floor=floor)
        np.testing.assert_array_equal(estimate_sinr(s, 2.0 * s, floor=math.inf), 0.0)

    @pytest.mark.parametrize("side", [0, 1], ids=["sent", "received"])
    def test_non_finite_stream_rejected(self, side):
        # A NaN stream has no SINR; it must not pass as SINR 0 beside the
        # noiseless stream's 1/floor.
        s = generate_symbols(2, 1, 100, seed=0)
        pair = [s.copy(), 2.0 * s]
        pair[side][5, 1, 0] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            estimate_sinr(*pair)

    def test_overflowing_sum_rejected(self):
        # Finite symbols whose output power overflows a float have no SINR
        # either: the estimate refuses them rather than return NaN, and
        # raises no numpy warning on the way.
        s = generate_symbols(2, 1, 100, seed=0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="non-finite"):
                estimate_sinr(s, 1e200 * s)


def _residual_form(sent, received, floor):
    """The least-squares SINR written out on the block: the fitted signal
    g s and the residual y - g s it leaves, each averaged over the symbols."""
    gain = np.sum(sent.conj() * received, axis=0) / np.sum(np.abs(sent) ** 2, axis=0)
    fitted = gain * sent
    signal = np.mean(np.abs(fitted) ** 2, axis=0)
    return signal / np.maximum(np.mean(np.abs(received - fitted) ** 2, axis=0), floor * signal)


# Magnitudes from 1e-3 to 1e3 at any phase.
complex_scales = st.builds(lambda exponent, phase: cmath.rect(10.0 ** exponent, phase),
                           st.floats(-3, 3), st.floats(0, 2 * math.pi))


class TestSinrRule:
    # The rule reads a block only through Σ|s|², Σ s*y and Σ|y|². Each
    # stream's noise is drawn orthogonal to its symbols at a set SINR, so no
    # draw leaves a residual small enough for rounding in power − signal to
    # reach 1e-9 of it.
    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), n_symbols=st.integers(2, 200), users=st.integers(1, 32),
           seed=st.integers(0, 2**16), scale=complex_scales, gain=complex_scales,
           sinr_db=st.floats(-30, 30))
    def test_sums_give_the_residual_form(self, data, n_symbols, users, seed, scale, gain, sinr_db):
        shape = (n_symbols, users, data.draw(st.integers(1, 32 // users), label="subcarriers"))
        rng = np.random.default_rng(seed)
        sent, noise = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape) for _ in range(2))
        sent = scale * sent
        energy = np.sum(np.abs(sent) ** 2, axis=0)
        noise -= np.sum(sent.conj() * noise, axis=0) / energy * sent
        noise *= np.sqrt(energy / np.sum(np.abs(noise) ** 2, axis=0)) * 10 ** (-sinr_db / 20)
        floor = SimulationParams.sinr_floor

        def rule(received):
            return simulation._sinr(energy, np.sum(sent.conj() * received, axis=0),
                                    np.sum(np.abs(received) ** 2, axis=0), floor)

        received = gain * (sent + noise)
        np.testing.assert_allclose(rule(received), _residual_form(sent, received, floor), rtol=1e-9)
        np.testing.assert_allclose(rule(received), 10 ** (sinr_db / 10), rtol=1e-9)
        # A noiseless block leaves less than the floor: SINR 1/floor.
        np.testing.assert_allclose(rule(gain * sent), 1 / floor, rtol=1e-9)


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

    @pytest.mark.parametrize("architecture", list(Architecture))
    def test_equals_its_public_layers_composed(self, architecture, chan_params):
        # The public layers, run on the three SeedSequence seeds of the trial
        # seed, give the trial's SINR and SE bit for bit, with one user too
        # (one value per symbol on each subcarrier).
        params = SimulationParams(symbols_per_trial=100, trials=1, refine_sweeps=1)
        for users in (2, 1):
            cfg = small_config(architecture=architecture, users=users)
            result = run_trial(cfg, params, chan_params, trial_seed=5)
            sinr = composed_sinr(cfg, params, chan_params, trial_seed=5)
            assert np.array_equal(result.sinr, sinr), users
            assert result.se_bits_hz == compute_se(sinr), users

    @pytest.mark.parametrize("architecture", [Architecture.SUBARRAY, Architecture.FULLY_CONNECTED])
    def test_design_defaults_are_a_trials_settings(self, monkeypatch, architecture, chan_params):
        # design_combiners without a budget designs, bit for bit, the W_RF
        # and W_D a trial at the default settings designs on its channel.
        design, designed = simulation._design_receiver, []

        def recording_design(*args):
            designed.append(design(*args))
            return designed[-1]

        monkeypatch.setattr(simulation, "_design_receiver", recording_design)
        cfg = small_config(architecture=architecture)
        run_trial(cfg, SimulationParams(symbols_per_trial=10, trials=1), chan_params, trial_seed=5)

        chan_seed = int(np.random.SeedSequence(5).generate_state(3, np.uint64)[0])
        channel = generate_channel(cfg, dataclasses.replace(chan_params, seed=chan_seed))
        combiners = design_combiners(channel, cfg)
        ((w_rf, w_d),) = designed
        assert not np.array_equal(w_rf, design_analog_combiner(channel, cfg))   # it refined
        assert np.array_equal(combiners.w_rf, w_rf) and np.array_equal(combiners.w_d, w_d)

    @pytest.mark.parametrize("architecture", list(Architecture))
    def test_trial_on_a_loaded_dump_equals_run_trial(self, architecture, chan_params, tmp_path):
        # A dump of the trial's channel, written under a config with another
        # array and subcarrier grid, runs the trial's SE bit for bit.
        cfg = small_config(architecture=architecture, rf=4)
        params = SimulationParams(symbols_per_trial=100, trials=1, refine_sweeps=1)
        result = run_trial(cfg, params, chan_params, trial_seed=7)

        path = str(tmp_path / "channel.bin")
        writer = small_config(rows=2, cols=2, subcarriers=9)

        def dumped(chan_seed):
            save_channel(generate_channel(writer, dataclasses.replace(chan_params, seed=chan_seed)),
                         path)
            return load_channel(path, cfg)

        sinr = composed_sinr(cfg, params, chan_params, trial_seed=7, channel_of=dumped)
        assert compute_se(sinr) == result.se_bits_hz

    def test_mrc_oracle_small(self):
        cfg = small_config(architecture=Architecture.DIGITAL, rows=4, cols=2, users=1,
                           user_rows=2, user_cols=1, subcarriers=8, snr_db=0.0)
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
                               user_rows=2, user_cols=1, subcarriers=8, snr_db=0.0)
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
                low = run_trial(small_config(architecture=arch, snr_db=0.0), params, chan_params,
                                trial_seed=seed)
                high = run_trial(small_config(architecture=arch, snr_db=10.0), params, chan_params,
                                 trial_seed=seed)
                assert high.se_bits_hz >= low.se_bits_hz

    def test_generated_trial_never_builds_the_dense_channel(self):
        # The default 32x16 digital array at K = 16: its dense channel
        # tensor K x N_BS x (U N_U) would be 64 MiB. The path-form channel
        # keeps the whole trial's traced peak under a quarter of that.
        cfg = ReceiverConfig(subcarriers=16)
        params = SimulationParams(symbols_per_trial=20, trials=1, seed=0)
        dense_bytes = cfg.subcarriers * cfg.n_bs * cfg.users * cfg.n_u * 16
        tracemalloc.start()
        try:
            run_trial(cfg, params)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < dense_bytes / 4


class TestSharedTrial:
    SIM = SimulationParams(symbols_per_trial=300, trials=1, refine_sweeps=1)

    def test_each_key_equals_its_own_symbol_pass(self, monkeypatch, chan_params):
        # Noisy keys, a nearly noiseless one (the top of the SNR domain), a
        # key whose design fails and one whose W_D is NaN on
        # subcarrier 2, which the real estimator rejects, share one trial.
        # Each surviving key's SINR is its own symbol pass's, bit for bit.
        cfgs = [small_config(architecture=arch, snr_db=snr_db) for arch in Architecture
                for snr_db in (0.0, 10.0)]
        cfgs.append(dataclasses.replace(cfgs[0], snr_db=_DOMAINS["snr_db"][1]))
        design_fails = dataclasses.replace(cfgs[2], snr_db=3.0)
        estimate_fails = dataclasses.replace(cfgs[4], snr_db=5.0)
        design = simulation._design_receiver

        def patched_design(w_rf, stream, cfg, *args):
            if cfg is design_fails:
                raise np.linalg.LinAlgError("patched design failure")
            w_rf, w_d = design(w_rf, stream, cfg, *args)
            if cfg is estimate_fails:
                w_d = w_d.copy()
                w_d[2] = np.nan
            return w_rf, w_d

        monkeypatch.setattr(simulation, "_design_receiver", patched_design)
        outcomes = simulation._shared_trial([*cfgs, design_fails, estimate_fails], self.SIM,
                                            chan_params, seed=7)
        assert str(outcomes[-2]) == "patched design failure"
        assert str(outcomes[-1]) == "sent or received symbols contain non-finite entries"

        for cfg, result in zip(cfgs, outcomes):
            assert np.array_equal(result.sinr, composed_sinr(cfg, self.SIM, chan_params, trial_seed=7))

    def test_holds_no_output_per_key(self, chan_params):
        # Six signal keys at K = 64: the pass reduces each key's output to
        # the estimator's sums one subcarrier at a time, so the traced peak
        # stays under half of what the six keys' (T, U, K) outputs would take.
        cfgs = [small_config(architecture=arch, subcarriers=64, snr_db=snr_db)
                for arch in Architecture for snr_db in (0.0, 10.0)]
        params = SimulationParams(symbols_per_trial=1000, trials=1)
        output_bytes = params.symbols_per_trial * cfgs[0].users * cfgs[0].subcarriers * 16
        tracemalloc.start()
        try:
            outcomes = simulation._shared_trial(cfgs, params, chan_params, seed=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert all(isinstance(outcome, simulation.TrialResult) for outcome in outcomes)
        assert peak < 3 * output_bytes


class TestMonteCarlo:
    def test_numpy_counts_run_as_python_ints(self, chan_params, tmp_path):
        # Numpy counts and seeds are stored as the ints they equal, so the
        # trial seeds form a range and a simulation writes strict JSON.
        params = SimulationParams(seed=np.uint64(3), trials=np.int64(2),
                                  symbols_per_trial=np.int64(20))
        assert params.trial_seeds == range(3, 5)
        path = tmp_path / "simulation.json"
        emit_results(run_monte_carlo(small_config(), params, chan_params), "json", str(path))

        def reject(constant):
            raise ValueError(f"non-standard JSON constant {constant}")

        written = json.loads(path.read_text(), parse_constant=reject)
        assert [trial["seed"] for trial in written["trials"]] == [3, 4]

    @pytest.mark.parametrize("build, message", [
        (lambda: small_config(snr_db=-math.inf), "per-antenna SNR must be positive to simulate"),
        (lambda: dataclasses.replace(small_config(), rf_chains=3), "N_BS not divisible by N_RF"),
    ], ids=["zero-snr", "invalid"])
    def test_configuration_error_is_raised(self, chan_params, build, message):
        # An impossible receiver is refused when it is built, an SNR the
        # link cannot simulate when it is run.
        with pytest.raises(ConfigError, match=message):
            run_monte_carlo(build(), SimulationParams(symbols_per_trial=10, trials=2), chan_params)

    # The smallest SNR whose regularizer U/snr is a float is about
    # -3082.55 dB at U = 1, -3079.54 dB at U = 2 and -3073.52 dB at U = 8.
    # Each lies far below the SNR domain, whose bottom edge is exact in dB:
    # -300 dB simulates, the next float below it is no receiver's.
    @pytest.mark.parametrize("users, snr_db", [(1, -3082.55), (2, -3079.54), (8, -3073.52)])
    @pytest.mark.parametrize("arch", list(Architecture))
    def test_snr_boundary_is_exact(self, chan_params, arch, users, snr_db):
        bottom = _DOMAINS["snr_db"][0]
        cfg = small_config(architecture=arch, rows=4, cols=4, rf=8, users=users, subcarriers=2,
                           snr_db=bottom)
        params = SimulationParams(symbols_per_trial=10, trials=1, refine_sweeps=1)
        for number in (float, np.float64):  # a numpy SNR is decided as its float is
            at = dataclasses.replace(cfg, snr_db=number(bottom))
            assert run_monte_carlo(at, params, chan_params).mean_se_bits_hz >= 0  # warnings fail it
            for below in (math.nextafter(bottom, -math.inf), snr_db):
                with pytest.raises(ConfigError, match="snr_db must lie in"):
                    dataclasses.replace(cfg, snr_db=number(below))

    def test_stops_once_every_configuration_failed(self, monkeypatch, chan_params):
        # Trial 0's draw fails every configuration; no later trial draws.
        failure, draws = RuntimeError("patched draw failure"), []

        def failing_draw(cfg, params):
            draws.append(params)
            raise failure

        monkeypatch.setattr(simulation, "generate_channel", failing_draw)
        cfgs = [small_config(architecture=arch) for arch in Architecture]
        params = SimulationParams(symbols_per_trial=10, trials=3)
        assert simulation._shared_monte_carlo(cfgs, params, chan_params) == [failure] * 3
        assert len(draws) == 1
        with pytest.raises(RuntimeError, match="patched draw failure"):
            run_monte_carlo(cfgs[0], params, chan_params)
        assert len(draws) == 2

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
