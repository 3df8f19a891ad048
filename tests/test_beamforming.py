import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from subthzrx import (Architecture, ClusterChannelParams, CombinerSet, ConfigError, ReceiverConfig,
                      apply_system, check_hardware_constraints, design_analog_combiner,
                      design_combiners, design_digital_combiner, design_tx_precoder,
                      effective_channel, generate_channel, generate_symbols,
                      mmse_digital_combiner, refine_analog_combiner, surrogate_sum_rate)
from subthzrx import beamforming
from subthzrx.beamforming import (PHASE_GRID_SIZE, _PHASE_GRID, _GridScorer, _free_columns,
                                  _stream_channel)
from conftest import DenseChannel, as_matrix, dense, receiver_configs, small_config


def _los_channel(cfg, seed=0):
    return generate_channel(cfg, ClusterChannelParams(k_factor_db=math.inf, seed=seed))


def _rich_channel(cfg, seed=0):
    return generate_channel(cfg, ClusterChannelParams(seed=seed))


@pytest.mark.parametrize("design", [design_tx_precoder, design_analog_combiner],
                         ids=["precoder", "analog-combiner"])
def test_channel_of_another_config_rejected(design):
    cfg = small_config(subcarriers=4)
    with pytest.raises(ValueError, match="do not match config"):
        design(_rich_channel(small_config(subcarriers=3)), cfg)


class TestTxPrecoder:
    def test_single_path_phase_alignment(self):
        # For a rank-1 channel the phase-only precoder realizes the full
        # transmit array gain N_U^2 against the dominant right vector.
        cfg = small_config(users=1, rf=1, user_rows=2, user_cols=2, subcarriers=4)
        chan = _los_channel(cfg, seed=3)
        v = design_tx_precoder(chan, cfg)
        _, _, vh = np.linalg.svd(dense(chan).h[0])
        a_tx = vh[0].conj()
        a_tx = a_tx / np.abs(a_tx)  # rank-1 right vector has unit-modulus structure
        gain = np.abs(a_tx.conj() @ v[:, 0]) ** 2
        assert gain == pytest.approx(cfg.n_u ** 2, rel=1e-9)

    def test_single_element_user(self):
        cfg = small_config(users=2, user_rows=1, user_cols=1)
        v = design_tx_precoder(_rich_channel(cfg), cfg)
        np.testing.assert_allclose(np.diag(v[:2, :2]), [1.0, 1.0], atol=1e-12)

    def test_identical_channels_give_identical_blocks(self):
        cfg = small_config(users=2, user_rows=2, user_cols=1, subcarriers=4)
        chan = _rich_channel(cfg, seed=8)
        h = dense(chan).h
        h[:, :, 2:4] = h[:, :, 0:2]
        dup = DenseChannel(h=h, n_users=chan.n_users)
        v = design_tx_precoder(dup, cfg)
        np.testing.assert_allclose(v[0:2, 0], v[2:4, 1], atol=1e-12)

    def test_zero_channel_degenerates_to_flat_phases(self):
        cfg = small_config(users=1, rf=1, user_rows=2, user_cols=1, subcarriers=2)
        zero = DenseChannel(h=np.zeros((2, cfg.n_bs, 2), dtype=complex), n_users=1)
        v = design_tx_precoder(zero, cfg)
        np.testing.assert_allclose(v[:, 0], np.ones(2), atol=1e-12)

    def test_first_entry_phase_fixed(self):
        cfg = small_config(users=2, user_rows=2, user_cols=2)
        v = design_tx_precoder(_rich_channel(cfg, seed=1), cfg)
        for u, start in enumerate((0, 4)):
            assert v[start, u] == pytest.approx(1.0)


class TestAnalogCombiner:
    def test_digital_array_identity(self):
        # Combining is fully digital: no analog stage, not an identity one.
        cfg = small_config(architecture=Architecture.DIGITAL, rows=2, cols=2)
        assert design_analog_combiner(_rich_channel(cfg), cfg) is None

    def test_fully_connected_unit_modulus(self):
        cfg = small_config(architecture=Architecture.FULLY_CONNECTED, rows=4, cols=2, rf=3,
                           users=2)
        w = design_analog_combiner(_rich_channel(cfg), cfg)
        assert w.shape == (8, 3)
        np.testing.assert_allclose(np.abs(w), 1.0, atol=1e-9)

    def test_subarray_block_support(self):
        cfg = small_config(architecture=Architecture.SUBARRAY, rows=4, cols=2, rf=2)
        w = design_analog_combiner(_rich_channel(cfg), cfg)
        mask = np.zeros((8, 2), dtype=bool)
        mask[0:4, 0] = mask[4:8, 1] = True
        assert np.all(w[~mask] == 0)
        np.testing.assert_allclose(np.abs(w[mask]), 1.0, atol=1e-9)

    def test_deterministic(self):
        cfg = small_config(architecture=Architecture.FULLY_CONNECTED, rows=4, cols=2, rf=2)
        chan = _rich_channel(cfg, seed=17)
        np.testing.assert_array_equal(design_analog_combiner(chan, cfg),
                                      design_analog_combiner(chan, cfg))


class TestRefinement:
    def test_zero_sweeps_returns_input(self):
        cfg = small_config(architecture=Architecture.FULLY_CONNECTED, rows=4, cols=2, rf=2)
        chan = _rich_channel(cfg)
        w0 = design_analog_combiner(chan, cfg)
        w, history = refine_analog_combiner(w0, chan, cfg, v_rf=design_tx_precoder(chan, cfg),
                                            max_sweeps=0)
        np.testing.assert_array_equal(w, w0)
        assert len(history) == 1

    def test_default_budget_is_one_sweep(self):
        # A run's budget: the history holds the initial value and one sweep.
        cfg = small_config(architecture=Architecture.FULLY_CONNECTED, rows=4, cols=2, rf=2,
                           snr_db=3.0)
        chan = _rich_channel(cfg, seed=4)
        _, history = refine_analog_combiner(design_analog_combiner(chan, cfg), chan, cfg,
                                            v_rf=design_tx_precoder(chan, cfg))
        assert len(history) == 2

    def test_objective_never_decreases(self):
        for arch in (Architecture.SUBARRAY, Architecture.FULLY_CONNECTED):
            cfg = small_config(architecture=arch, rows=4, cols=2, rf=2, snr_db=3.0)
            chan = _rich_channel(cfg, seed=4)
            w0 = design_analog_combiner(chan, cfg)
            v = design_tx_precoder(chan, cfg)
            w, history = refine_analog_combiner(w0, chan, cfg, v_rf=v, max_sweeps=4, tol=0.0)
            assert all(b >= a for a, b in zip(history, history[1:]))
            assert surrogate_sum_rate(chan, w, v, cfg.per_antenna_snr, cfg.users) >= \
                surrogate_sum_rate(chan, w0, v, cfg.per_antenna_snr, cfg.users) - 1e-9

    def test_non_finite_stream_channel_fails_the_surrogate(self):
        # A NaN path weight makes the stream channel, and with it the log
        # determinant, NaN; the surrogate refuses it rather than returning NaN.
        cfg = small_config(architecture=Architecture.FULLY_CONNECTED, rows=4, cols=2, rf=2)
        chan = _rich_channel(cfg)
        w, v = design_analog_combiner(chan, cfg), design_tx_precoder(chan, cfg)
        weights = chan.weights.copy()
        weights[0, 0, 0] = np.nan
        broken = dataclasses.replace(chan, weights=weights)
        with np.errstate(invalid="ignore"), pytest.raises(np.linalg.LinAlgError,
                                                          match="non-finite or not positive"):
            surrogate_sum_rate(broken, w, v, cfg.per_antenna_snr, cfg.users)

    def test_rank_one_converges_to_matched_phases(self):
        # Single chain, rank-1 channel: the refined column must realize the
        # full receive aperture, J -> K * log2(1 + snr * N_BS * N_U).
        cfg = small_config(architecture=Architecture.FULLY_CONNECTED, rows=4, cols=2, rf=1,
                           users=1, user_rows=2, user_cols=1, subcarriers=4)
        chan = _los_channel(cfg, seed=6)
        v = design_tx_precoder(chan, cfg)
        w0 = np.ones((cfg.n_bs, 1), dtype=complex)
        w, history = refine_analog_combiner(w0, chan, cfg, v_rf=v, max_sweeps=8, tol=1e-12)
        closed_form = cfg.subcarriers * math.log2(1 + cfg.per_antenna_snr * cfg.n_bs * cfg.n_u)
        assert history[-1] >= 0.99 * closed_form
        u_rx = np.linalg.svd(dense(chan).h[0])[0][:, 0]
        alignment = np.abs(w[:, 0].conj() @ (u_rx / np.abs(u_rx)))
        assert alignment >= 0.99 * cfg.n_bs

    def test_square_combiner_has_no_free_phases(self):
        # With N_RF = N_BS the surrogate is the same for every invertible W,
        # so refinement keeps the initializer whatever rounding says.
        for cfg, seed in ((small_config(architecture=Architecture.FULLY_CONNECTED, rows=2,
                                        cols=1, rf=2, users=1), 1),
                          (small_config(architecture=Architecture.SUBARRAY, rows=2, cols=2,
                                        rf=4, users=2), 3)):
            chan = _rich_channel(cfg, seed=seed)
            w0 = design_analog_combiner(chan, cfg)
            w, history = refine_analog_combiner(w0, chan, cfg, v_rf=design_tx_precoder(chan, cfg),
                                                max_sweeps=3, tol=0.0)
            np.testing.assert_array_equal(w, w0)
            assert len(history) == 1

    def test_design_skips_refinement_without_free_phases(self, monkeypatch):
        # The digital array and a square sub-array have nothing to refine,
        # so the pipeline does not call the refinement; a sub-array with
        # fewer chains than antennas does.
        calls = []
        refine = beamforming._refine

        def counting_refine(w_rf, stream, cfg, *args):
            calls.append(cfg)
            return refine(w_rf, stream, cfg, *args)

        monkeypatch.setattr(beamforming, "_refine", counting_refine)
        square = [small_config(architecture=Architecture.DIGITAL, rows=2, cols=2, users=2),
                  small_config(architecture=Architecture.SUBARRAY, rows=2, cols=2, rf=4, users=2)]
        for cfg in square:
            design_combiners(_rich_channel(cfg, seed=2), cfg, refine_sweeps=1)
        assert calls == []
        cfg = small_config(architecture=Architecture.SUBARRAY, rows=2, cols=2, rf=2, users=2)
        design_combiners(_rich_channel(cfg, seed=2), cfg, refine_sweeps=1)
        assert calls == [cfg]

    @settings(max_examples=40, deadline=None)
    @given(cfg=receiver_configs(), seed=st.integers(0, 2**16))
    def test_combiner_pattern_is_hardware_support(self, cfg, seed):
        # Digital: no analog stage, the identity's pattern; sub-array: one
        # block of N_BS/N_RF rows per chain; fully connected: dense.
        n_bs, n_rf = cfg.n_bs, cfg.rf_chains
        if cfg.architecture is Architecture.DIGITAL:
            support = np.eye(n_bs, dtype=bool)
        elif cfg.architecture is Architecture.SUBARRAY:
            support = np.zeros((n_bs, n_rf), dtype=bool)
            block = n_bs // n_rf
            for m in range(n_rf):
                support[m * block:(m + 1) * block, m] = True
        else:
            support = np.ones((n_bs, n_rf), dtype=bool)
        chan = _rich_channel(cfg, seed=seed)
        w0 = design_analog_combiner(chan, cfg)
        assert (w0 is None) == (cfg.architecture is Architecture.DIGITAL)
        np.testing.assert_array_equal(as_matrix(w0, n_bs) != 0, support)
        w, _ = refine_analog_combiner(w0, chan, cfg, v_rf=design_tx_precoder(chan, cfg),
                                      max_sweeps=2, tol=0.0)
        assert (w is None) == (w0 is None)
        np.testing.assert_array_equal(as_matrix(w, n_bs) != 0, support)
        free = sorted((i, j) for j, rows in _free_columns(cfg) for i in rows)
        expected = [] if n_rf == n_bs else sorted(zip(*np.nonzero(support)))
        assert free == expected

    def test_constraints_preserved(self):
        cfg = small_config(architecture=Architecture.SUBARRAY, rows=4, cols=2, rf=4, users=3,
                           user_rows=2, user_cols=2)
        chan = _rich_channel(cfg, seed=12)
        combiners = design_combiners(chan, cfg, refine_sweeps=3)
        check_hardware_constraints(combiners, cfg)


@st.composite
def hybrid_configs(draw):
    """Small sub-array and fully connected receivers with N_BS >= 2 N_RF,
    N_RF = 1 included. (With N_BS = N_RF the surrogate does not depend on W.)"""
    rf = draw(st.integers(1, 3))
    return small_config(architecture=draw(st.sampled_from([Architecture.SUBARRAY,
                                                           Architecture.FULLY_CONNECTED])),
                        rows=rf * draw(st.integers(1, 2)), cols=2, rf=rf,
                        users=draw(st.integers(1, rf)), user_rows=draw(st.integers(1, 2)),
                        subcarriers=draw(st.integers(1, 3)),
                        snr_db=draw(st.sampled_from([-10.0, 0.0, 10.0])))


def _brute_force_gains(chan, w, v, cfg, i, j):
    """Reference: the surrogate recomputed with w[i, j] at each grid phase,
    minus its current value; -inf where the move makes W rank-deficient."""
    current = surrogate_sum_rate(chan, w, v, cfg.per_antenna_snr, cfg.users)
    gains = np.full(PHASE_GRID_SIZE, -np.inf)
    for p in range(PHASE_GRID_SIZE):
        moved = w.copy()
        moved[i, j] = np.exp(2j * np.pi * p / PHASE_GRID_SIZE)
        if np.linalg.matrix_rank(moved) == w.shape[1]:
            gains[p] = surrogate_sum_rate(chan, moved, v, cfg.per_antenna_snr, cfg.users) - current
    return gains


def _reference_refine(w_rf, stream, cfg, sweeps):
    """Reference refinement loop, tol = 0: per entry ``gains``, ``argmax``,
    then ``set_entry`` with the best grid phase if it gains."""
    w = w_rf.copy()
    scorer = _GridScorer(w, stream, cfg)
    j_current = beamforming._surrogate(scorer.ht[:-1], w, cfg.per_antenna_snr, cfg.users)
    history = [j_current]
    for _ in range(sweeps):
        for j, rows in _free_columns(cfg):
            scorer.start_column(j)
            for i in rows:
                gain = scorer.gains(i)
                best = int(np.argmax(gain))
                if gain[best] > 0:
                    scorer.set_entry(i, _PHASE_GRID[best])
                    j_current += float(gain[best])
        history.append(j_current)
    return w, history


class TestClosedFormRefinement:
    @settings(max_examples=50, deadline=None)
    @given(cfg=hybrid_configs(), seed=st.integers(0, 2**16), moves=st.integers(0, 4))
    def test_grid_gains_match_reference(self, cfg, seed, moves):
        # Random off-grid moves first (the scorer sets them in w itself), so
        # the incremental state is checked away from the initializer too.
        chan = _rich_channel(cfg, seed=seed)
        v = design_tx_precoder(chan, cfg)
        w = design_analog_combiner(chan, cfg)
        scorer = _GridScorer(w, _stream_channel(chan, v), cfg)
        entries = [(i, j) for j, rows in _free_columns(cfg) for i in rows]
        rng = np.random.default_rng(seed)
        for _ in range(moves):
            i, j = entries[rng.integers(len(entries))]
            scorer.start_column(j)
            scorer.set_entry(i, np.exp(2j * np.pi * rng.random()))
        i, j = entries[rng.integers(len(entries))]
        scorer.start_column(j)
        np.testing.assert_allclose(scorer.gains(i), _brute_force_gains(chan, w, v, cfg, i, j),
                                   rtol=0, atol=1e-9)

    @settings(max_examples=50, deadline=None)
    @given(cfg=hybrid_configs(), seed=st.integers(0, 2**16), moves=st.integers(1, 6))
    # 32 antennas and one user: several rows share a block of row vectors.
    @example(cfg=small_config(architecture=Architecture.FULLY_CONNECTED, rows=16, cols=2, rf=2,
                              users=1, subcarriers=3, snr_db=10.0), seed=7, moves=6)
    def test_grid_gains_after_moves_in_the_column(self, cfg, seed, moves):
        # Entries of one column set on and off the grid, then a row of that
        # column scored with no new start_column: the moves reach the gains
        # only through the scorer's Schur complement and rank-one state.
        chan = _rich_channel(cfg, seed=seed)
        v = design_tx_precoder(chan, cfg)
        w = design_analog_combiner(chan, cfg)
        scorer = _GridScorer(w, _stream_channel(chan, v), cfg)
        rng = np.random.default_rng(seed)
        j, rows = _free_columns(cfg)[rng.integers(cfg.rf_chains)]
        scorer.start_column(j)
        for n in range(moves):
            if n % 2:
                value = _PHASE_GRID[rng.integers(PHASE_GRID_SIZE)]
            else:
                value = np.exp(2j * np.pi * rng.random())
            scorer.set_entry(rows[rng.integers(len(rows))], value)
        i = rows[rng.integers(len(rows))]
        np.testing.assert_allclose(scorer.gains(i), _brute_force_gains(chan, w, v, cfg, i, j),
                                   rtol=0, atol=1e-9)

    @settings(max_examples=50, deadline=None)
    @given(cfg=hybrid_configs(), seed=st.integers(0, 2**16))
    # 32 antennas and one user: several rows share a block of row vectors.
    @example(cfg=small_config(architecture=Architecture.FULLY_CONNECTED, rows=16, cols=2, rf=2,
                              users=1, subcarriers=3, snr_db=10.0), seed=7)
    def test_fused_step_matches_reference_loop(self, cfg, seed):
        chan = _rich_channel(cfg, seed=seed)
        stream = _stream_channel(chan, design_tx_precoder(chan, cfg))
        w0 = design_analog_combiner(chan, cfg)
        w, history = beamforming._refine(w0, stream, cfg, 2, 0.0)
        w_ref, history_ref = _reference_refine(w0, stream, cfg, 2)
        assert w.tobytes() == w_ref.tobytes()
        assert history == history_ref

    @pytest.mark.parametrize("i", [0, 3, 7])
    def test_rank_floor_refuses_the_equal_column(self, i):
        # Column 1 equals column 0 except at row i: the grid phase that would
        # close that gap leaves W rank-deficient, and only that one.
        cfg = small_config(architecture=Architecture.FULLY_CONNECTED, rows=4, cols=2, rf=2,
                           users=2, subcarriers=3, snr_db=10.0)
        chan = _rich_channel(cfg, seed=i)
        stream = _stream_channel(chan, design_tx_precoder(chan, cfg))
        rng = np.random.default_rng(i)
        column = _PHASE_GRID[rng.integers(PHASE_GRID_SIZE, size=cfg.n_bs)]
        equal = int(rng.integers(PHASE_GRID_SIZE))
        column[i] = _PHASE_GRID[equal]
        w = np.stack([column, column], axis=1)
        w[i, 1] = _PHASE_GRID[(equal + 32) % PHASE_GRID_SIZE]
        scorer = _GridScorer(w, stream, cfg)
        scorer.start_column(1)
        gains = scorer.gains(i)
        np.testing.assert_array_equal(np.flatnonzero(np.isneginf(gains)), [equal])
        assert np.all(np.isfinite(np.delete(gains, equal)))
        best = np.max(gains)
        assert scorer.step(i) == (best if best > 0 else 0.0)
        assert w[i, 1] != w[i, 0]
        assert w[i, 1] == (_PHASE_GRID[np.argmax(gains)] if best > 0 else
                           _PHASE_GRID[(equal + 32) % PHASE_GRID_SIZE])

    @settings(max_examples=25, deadline=None)
    @given(cfg=hybrid_configs(), seed=st.integers(0, 2**16))
    def test_refined_combiner_keeps_constraints_and_history(self, cfg, seed):
        chan = _rich_channel(cfg, seed=seed)
        v = design_tx_precoder(chan, cfg)
        w0 = design_analog_combiner(chan, cfg)
        w, history = refine_analog_combiner(w0, chan, cfg, v_rf=v, max_sweeps=2, tol=0.0)
        assert all(b >= a for a, b in zip(history, history[1:]))
        assert history[-1] == pytest.approx(
            surrogate_sum_rate(chan, w, v, cfg.per_antenna_snr, cfg.users), rel=0, abs=1e-9)
        check_hardware_constraints(CombinerSet(v, w, design_digital_combiner(chan, w, v, cfg)),
                                   cfg)


# Refined W_RF after two sweeps from the initializer, recorded with the
# earlier scorer, which rebuilt each entry's Schur complements from
# O(K N_RF^2) products: the grid index of each entry that moved, -1 where
# the entry kept its initial value.
SAME_MOVES = [
    (dict(architecture=Architecture.FULLY_CONNECTED, rows=4, cols=2, rf=2, users=2,
          subcarriers=4, snr_db=0.0), 0,
     [[2, 58], [59, 59], [9, 39], [2, 41], [19, 26], [10, 27], [27, 11], [20, 13]]),
    (dict(architecture=Architecture.SUBARRAY, rows=4, cols=4, rf=4, users=3, subcarriers=4,
          snr_db=10.0), 3,
     [[3, -1, -1, -1], [15, -1, -1, -1], [22, -1, -1, -1], [32, -1, -1, -1],
      [-1, 8, -1, -1], [-1, 2, -1, -1], [-1, 60, -1, -1], [-1, 47, -1, -1],
      [-1, -1, 61, -1], [-1, -1, 5, -1], [-1, -1, 24, -1], [-1, -1, 35, -1],
      [-1, -1, -1, 9], [-1, -1, -1, 22], [-1, -1, -1, 25], [-1, -1, -1, 27]]),
    (dict(architecture=Architecture.FULLY_CONNECTED, rows=4, cols=3, rf=3, users=2, user_rows=2,
          user_cols=2, subcarriers=8, snr_db=-10.0), 5,
     [[63, 5, 6], [63, 28, 6], [2, 35, 35], [20, 20, 36], [19, 39, 17], [23, 53, 57],
      [40, 41, 53], [42, 49, 24], [43, 7, 15], [60, -1, 10], [63, 63, 38], [62, 30, 27]]),
]


# Surrogate histories of a fully connected 16x4 array, 8 chains, 2 users,
# 10 dB, K = 16, three sweeps, as float.hex, per channel seed: the accepted
# gains to the last bit, so a change to the rounding of the scorer's
# products shows here even when every move stays the same.
SAME_HISTORY = {
    1: ["0x1.1f3e1b0639f7bp+8", "0x1.27517e7c5b90ap+8", "0x1.278a5198a889fp+8",
        "0x1.2797191dc564cp+8"],
    2: ["0x1.287309086e894p+8", "0x1.28c32b8efaf9ap+8", "0x1.28daf37f46469p+8",
        "0x1.28e305ce1f22cp+8"],
    3: ["0x1.2792f33644e80p+8", "0x1.288eb6be93369p+8", "0x1.28a9f2325bc39p+8",
        "0x1.28af77402c2cap+8"],
}


class TestRefinementPins:
    @pytest.mark.parametrize("seed", SAME_HISTORY)
    def test_same_history_as_recorded(self, seed):
        cfg = small_config(architecture=Architecture.FULLY_CONNECTED, rows=16, cols=4, rf=8,
                           subcarriers=16, snr_db=10.0)
        chan = _rich_channel(cfg, seed=seed)
        _, history = refine_analog_combiner(design_analog_combiner(chan, cfg), chan, cfg,
                                            v_rf=design_tx_precoder(chan, cfg), max_sweeps=3,
                                            tol=0.0)
        assert [value.hex() for value in history] == SAME_HISTORY[seed]

    @pytest.mark.parametrize("config, seed, expected", SAME_MOVES)
    def test_same_moves_as_recorded(self, config, seed, expected):
        cfg = small_config(**config)
        chan = _rich_channel(cfg, seed=seed)
        w0 = design_analog_combiner(chan, cfg)
        w, _ = refine_analog_combiner(w0, chan, cfg, v_rf=design_tx_precoder(chan, cfg),
                                      max_sweeps=2, tol=0.0)
        index = np.rint(np.angle(w) * PHASE_GRID_SIZE / (2 * np.pi)).astype(int) % PHASE_GRID_SIZE
        moved = w != w0
        np.testing.assert_array_equal(w[moved], _PHASE_GRID[index[moved]])
        np.testing.assert_array_equal(np.where(moved, index, -1), expected)

    def test_fully_connected_refinement_memory(self):
        # 256 antennas, 8 chains, K = 64. Row vectors are formed a block of
        # rows at a time, so the traced peak stays near the stream channel
        # the scorer holds (the K x N_BS x U product is formed once beside
        # it); holding them for a whole column would take about 8 times it.
        cfg = small_config(architecture=Architecture.FULLY_CONNECTED, rows=32, cols=8, rf=8,
                           users=8, user_rows=4, user_cols=4, subcarriers=64)
        chan = _rich_channel(cfg, seed=1)
        v = design_tx_precoder(chan, cfg)
        w0 = design_analog_combiner(chan, cfg)
        stream_bytes = cfg.subcarriers * cfg.n_bs * cfg.users * 16
        tracemalloc.start()
        try:
            refine_analog_combiner(w0, chan, cfg, v_rf=v, max_sweeps=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 3 * stream_bytes


def _explicit_heff(chan, w, v):
    """Reference effective channel: the W^H product always formed."""
    return w.conj().T @ dense(chan).h @ v / math.sqrt(chan.n_tx_per_user)


def _reference_phases(cov, count):
    """Reference initializer for one block: phases of the ``count`` dominant
    eigenvectors, each column rotated so its first entry is 1; all ones for an
    all-zero covariance."""
    if not np.any(cov):
        return np.ones((cov.shape[0], count), dtype=complex)
    _, vecs = np.linalg.eigh(0.5 * (cov + cov.conj().T))
    columns = [vecs[:, -1 - j] for j in range(count)]
    return np.stack([np.exp(1j * (np.angle(c) - np.angle(c[0]))) for c in columns], axis=1)


def _reference_initializers(chan, cfg):
    """Reference V_RF and W_RF: one eigendecomposition per user and per
    chain (the fully connected layout: one for all columns)."""
    k_count, n_bs = cfg.subcarriers, cfg.n_bs
    v = np.zeros((cfg.users * cfg.n_u, cfg.users), dtype=complex)
    for u in range(cfg.users):
        flat = chan.h[:, :, u * cfg.n_u:(u + 1) * cfg.n_u].reshape(-1, cfg.n_u)
        v[u * cfg.n_u:(u + 1) * cfg.n_u, u] = _reference_phases(flat.conj().T @ flat / k_count,
                                                                1)[:, 0]
    if cfg.architecture is Architecture.DIGITAL:
        return v, np.eye(n_bs, dtype=complex)
    if cfg.architecture is Architecture.FULLY_CONNECTED:
        cov = sum(h_k @ h_k.conj().T for h_k in chan.h) / k_count
        return v, _reference_phases(cov, cfg.rf_chains)
    w = np.zeros((n_bs, cfg.rf_chains), dtype=complex)
    block = n_bs // cfg.rf_chains
    for m in range(cfg.rf_chains):
        rows = slice(m * block, (m + 1) * block)
        cov = sum(h_k @ h_k.conj().T for h_k in chan.h[:, rows, :]) / k_count
        w[rows, m] = _reference_phases(cov, 1)[:, 0]
    return v, w


class TestFastPathsMatchReference:
    @settings(max_examples=60, deadline=None)
    @given(cfg=receiver_configs(), seed=st.integers(0, 2**16))
    def test_initializers_match_per_block_reference(self, cfg, seed):
        # Dense on both sides: at rank-deficient points the trailing
        # eigenvectors are not unique, and covariances that differ by
        # rounding (path cores against dense sums) may pick different ones.
        chan = dense(_rich_channel(cfg, seed=seed))
        v_ref, w_ref = _reference_initializers(chan, cfg)
        np.testing.assert_allclose(design_tx_precoder(chan, cfg), v_ref, rtol=0, atol=1e-12)
        w = design_analog_combiner(chan, cfg)
        assert (w is None) == (cfg.architecture is Architecture.DIGITAL)
        np.testing.assert_allclose(as_matrix(w, cfg.n_bs), w_ref, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("architecture", [Architecture.SUBARRAY,
                                              Architecture.FULLY_CONNECTED])
    def test_zero_channel_combiner_is_all_ones_on_support(self, architecture):
        cfg = small_config(architecture=architecture, rows=4, cols=2, rf=2)
        zero = DenseChannel(h=np.zeros((cfg.subcarriers, cfg.n_bs, cfg.users * cfg.n_u),
                                             dtype=complex), n_users=cfg.users)
        expected = np.ones((8, 2)) if architecture is Architecture.FULLY_CONNECTED else \
            np.repeat(np.eye(2), 4, axis=0)
        np.testing.assert_array_equal(design_analog_combiner(zero, cfg), expected)

    @settings(max_examples=60, deadline=None)
    @given(cfg=receiver_configs(), seed=st.integers(0, 2**16))
    def test_digital_combiner_matches_direct_solve(self, cfg, seed):
        chan = _rich_channel(cfg, seed=seed)
        v = design_tx_precoder(chan, cfg)
        w = design_analog_combiner(chan, cfg)
        w_ref = as_matrix(w, cfg.n_bs)
        gram = w_ref.conj().T @ w_ref
        heff = _explicit_heff(chan, w_ref, v)
        sigma2 = 1.0 / cfg.per_antenna_snr
        direct = np.linalg.solve(heff @ heff.conj().swapaxes(-1, -2) + sigma2 * cfg.users * gram,
                                 heff)
        w_d = design_digital_combiner(chan, w, v, cfg)
        for k in range(cfg.subcarriers):
            assert np.linalg.norm(w_d[k] - direct[k]) <= 1e-9 * np.linalg.norm(direct[k])
        np.testing.assert_allclose(mmse_digital_combiner(heff, gram, sigma2, cfg.users),
                                   w_d, rtol=0, atol=1e-9 * np.max(np.abs(direct)))

    @settings(max_examples=40, deadline=None)
    @given(cfg=receiver_configs(), seed=st.integers(0, 2**16))
    def test_identity_surrogate_matches_explicit_gram(self, cfg, seed):
        chan = _rich_channel(cfg, seed=seed)
        v = design_tx_precoder(chan, cfg)
        eye = np.eye(cfg.n_bs, dtype=complex)
        heff = _explicit_heff(chan, eye, v)
        inner = heff.conj().swapaxes(-1, -2) @ np.linalg.solve(eye.conj().T @ eye, heff)
        _, logdet = np.linalg.slogdet(np.eye(cfg.users) + cfg.per_antenna_snr / cfg.users * inner)
        reference = np.sum(logdet) / math.log(2)
        assert surrogate_sum_rate(chan, eye, v, cfg.per_antenna_snr, cfg.users) == \
            pytest.approx(reference, rel=1e-12, abs=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(cfg=receiver_configs().filter(lambda c: c.architecture is Architecture.DIGITAL),
           seed=st.integers(0, 2**16))
    def test_no_analog_stage_equals_explicit_identity(self, cfg, seed):
        # The digital array's None and an explicit identity, which every
        # public function takes as a general W, give the same results.
        chan = _rich_channel(cfg, seed=seed)
        v = design_tx_precoder(chan, cfg)
        eye = np.eye(cfg.n_bs, dtype=complex)
        heff = effective_channel(chan, eye, v)
        np.testing.assert_allclose(effective_channel(chan, None, v), heff, rtol=0, atol=1e-12)
        snr = cfg.per_antenna_snr
        assert surrogate_sum_rate(chan, None, v, snr, cfg.users) == \
            pytest.approx(surrogate_sum_rate(chan, eye, v, snr, cfg.users), rel=1e-12, abs=1e-12)
        w_d = design_digital_combiner(chan, None, v, cfg)
        w_d_eye = design_digital_combiner(chan, eye, v, cfg)
        for k in range(cfg.subcarriers):
            assert np.linalg.norm(w_d[k] - w_d_eye[k]) <= 1e-9 * np.linalg.norm(w_d_eye[k])
        s = generate_symbols(cfg.users, cfg.subcarriers, 37, seed=seed + 1)
        y = apply_system(s, chan, CombinerSet(v, None, w_d), 0.3, seed=seed + 2)
        ref = apply_system(s, chan, CombinerSet(v, eye, w_d), 0.3, seed=seed + 2)
        np.testing.assert_allclose(y, ref, rtol=0, atol=1e-12 * np.max(np.abs(ref)))


class TestDigitalCombiner:
    def test_zero_forcing_limit(self):
        rng = np.random.default_rng(0)
        heff = (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))) / np.sqrt(2)
        w_d = mmse_digital_combiner(heff, np.eye(2), 1e-9, users=2)
        np.testing.assert_allclose(w_d.conj().T @ heff, np.eye(2), atol=1e-6)
        oracle = np.linalg.pinv(heff).conj().T
        np.testing.assert_allclose(w_d, oracle, atol=1e-6)

    def test_single_user_is_matched_filter(self):
        cfg = small_config(architecture=Architecture.DIGITAL, rows=4, cols=2, users=1,
                           user_rows=2, user_cols=1, subcarriers=2)
        chan = _rich_channel(cfg, seed=2)
        v = design_tx_precoder(chan, cfg)
        w_rf = design_analog_combiner(chan, cfg)
        w_d = design_digital_combiner(chan, w_rf, v, cfg)
        heff = effective_channel(chan, w_rf, v)
        for k in range(2):
            a, b = w_d[k][:, 0], heff[k][:, 0]
            cosine = np.abs(a.conj() @ b) / (np.linalg.norm(a) * np.linalg.norm(b))
            assert cosine == pytest.approx(1.0, abs=1e-9)

    def test_orthonormal_combiner_whitens_noise(self):
        # With W_RF^H W_RF = I the regularizer collapses to sigma^2 U I.
        rng = np.random.default_rng(1)
        heff = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
        direct = mmse_digital_combiner(heff, np.eye(3), 0.5, users=2)
        oracle = np.linalg.solve(heff @ heff.conj().T + 0.5 * 2 * np.eye(3), heff)
        np.testing.assert_allclose(direct, oracle, atol=1e-12)

    def test_rejects_nonpositive_snr(self):
        cfg = small_config(snr_db=-math.inf)
        chan = _rich_channel(cfg)
        v = design_tx_precoder(chan, cfg)
        w = design_analog_combiner(chan, cfg)
        with pytest.raises(ValueError, match="SNR"):
            design_digital_combiner(chan, w, v, cfg)

    # A zero SNR: every smaller positive one whose U/snr could overflow
    # lies below the SNR domain, and no receiver holds it.
    @pytest.mark.parametrize("snr_db", [-math.inf], ids=["zero"])
    def test_every_receive_stage_rejects_an_snr_the_link_cannot_simulate(self, snr_db):
        cfg = small_config(architecture=Architecture.FULLY_CONNECTED, rf=2, users=2, snr_db=snr_db)
        chan = _rich_channel(cfg)
        v = design_tx_precoder(chan, cfg)
        w = design_analog_combiner(chan, cfg)
        for design in (lambda: refine_analog_combiner(w, chan, cfg, v_rf=v, max_sweeps=0),
                       lambda: design_digital_combiner(chan, w, v, cfg),
                       lambda: design_combiners(chan, cfg)):
            with pytest.raises(ConfigError, match="key 'snr_db'"):
                design()


class TestEffectiveChannel:
    def test_matches_manual_computation(self):
        cfg = small_config(users=2, user_rows=2, user_cols=1, subcarriers=3)
        chan = _rich_channel(cfg, seed=5)
        v = design_tx_precoder(chan, cfg)
        w = design_analog_combiner(chan, cfg)
        heff = effective_channel(chan, w, v)
        for k in range(3):
            manual = w.conj().T @ dense(chan).h[k] @ v / math.sqrt(cfg.n_u)
            np.testing.assert_allclose(heff[k], manual, atol=1e-12)


class TestDigitalArrayDominance:
    def test_no_reduced_front_end_beats_identity(self):
        # Projecting onto N_RF < N_BS dimensions can never raise the sum-rate
        # surrogate above the full digital array's; check against the
        # initializer, refined solutions, and a large random candidate set.
        cfg_fh = small_config(architecture=Architecture.FULLY_CONNECTED, rows=4, cols=2, rf=2,
                              users=2, user_rows=2, user_cols=1, subcarriers=4, snr_db=0.0)
        rng = np.random.default_rng(11)
        for seed in range(3):
            chan = _rich_channel(cfg_fh, seed=seed)
            v = design_tx_precoder(chan, cfg_fh)
            j_da = surrogate_sum_rate(chan, np.eye(cfg_fh.n_bs, dtype=complex), v, 1.0, 2)
            w0 = design_analog_combiner(chan, cfg_fh)
            w_ref, _ = refine_analog_combiner(w0, chan, cfg_fh, v_rf=v, max_sweeps=4, tol=0.0)
            candidates = [w0, w_ref]
            for _ in range(300):
                candidates.append(np.exp(2j * np.pi * rng.random((cfg_fh.n_bs, 2))))
            for w in candidates:
                assert surrogate_sum_rate(chan, w, v, 1.0, 2) <= j_da + 1e-9


class TestConstraintChecker:
    def test_flags_magnitude_violation(self):
        cfg = small_config(architecture=Architecture.FULLY_CONNECTED, rows=4, cols=2, rf=2)
        chan = _rich_channel(cfg)
        combiners = design_combiners(chan, cfg)
        bad_w = combiners.w_rf.copy()
        bad_w[0, 0] *= 1.5
        with pytest.raises(ValueError, match="unit modulus"):
            check_hardware_constraints(CombinerSet(combiners.v_rf, bad_w, combiners.w_d), cfg)

    def test_flags_precoder_outside_user_block(self):
        cfg = small_config(architecture=Architecture.SUBARRAY, rows=4, cols=2, rf=2)
        combiners = design_combiners(_rich_channel(cfg), cfg)
        bad_v = combiners.v_rf.copy()
        bad_v[0, 1] = 1.0  # user 1's column on user 0's antenna
        with pytest.raises(ValueError, match="outside"):
            check_hardware_constraints(CombinerSet(bad_v, combiners.w_rf, combiners.w_d), cfg)

    def test_flags_digital_combiner_that_is_not_identity(self):
        # The digital array has no analog stage, so even an identity W_RF is
        # refused; a hybrid, even a square sub-array, must have one.
        cfg = small_config(architecture=Architecture.DIGITAL, rows=2, cols=2)
        combiners = design_combiners(_rich_channel(cfg), cfg)
        eye = np.eye(cfg.n_bs, dtype=complex)
        with pytest.raises(ValueError, match="digital w_rf is an array"):
            check_hardware_constraints(CombinerSet(combiners.v_rf, eye, combiners.w_d), cfg)
        cfg = small_config(architecture=Architecture.SUBARRAY, rows=2, cols=2, rf=4)
        combiners = design_combiners(_rich_channel(cfg), cfg)
        with pytest.raises(ValueError, match="subarray w_rf is None"):
            check_hardware_constraints(CombinerSet(combiners.v_rf, None, combiners.w_d), cfg)

    def test_flags_wrong_combiner_shape(self):
        cfg = small_config(architecture=Architecture.FULLY_CONNECTED, rows=4, cols=2, rf=2)
        combiners = design_combiners(_rich_channel(cfg), cfg)
        with pytest.raises(ValueError, match="shape"):
            check_hardware_constraints(CombinerSet(combiners.v_rf, combiners.w_rf[:, :1],
                                                   combiners.w_d), cfg)

    def test_flags_bad_digital_combiner(self):
        cfg = small_config(architecture=Architecture.SUBARRAY, rows=4, cols=2, rf=2)
        combiners = design_combiners(_rich_channel(cfg), cfg)
        with pytest.raises(ValueError, match="w_d per-subcarrier shape"):
            check_hardware_constraints(CombinerSet(combiners.v_rf, combiners.w_rf,
                                                   combiners.w_d[:, :, :1]), cfg)
        bad_d = combiners.w_d.copy()
        bad_d[1, 0, 0] = np.inf
        with pytest.raises(ValueError, match="non-finite"):
            check_hardware_constraints(CombinerSet(combiners.v_rf, combiners.w_rf, bad_d), cfg)

    def test_flags_support_violation(self):
        cfg = small_config(architecture=Architecture.SUBARRAY, rows=4, cols=2, rf=2)
        chan = _rich_channel(cfg)
        combiners = design_combiners(chan, cfg)
        bad_w = combiners.w_rf.copy()
        bad_w[0, 1] = 1.0  # outside the block support
        with pytest.raises(ValueError, match="support"):
            check_hardware_constraints(CombinerSet(combiners.v_rf, bad_w, combiners.w_d), cfg)

    def test_digital_trial_holds_no_full_size_array(self):
        # The default 512-antenna digital array at K = 1: its design, symbol
        # pass (a few symbols, so the noise block stays small) and check
        # peak under 2 MiB; an N_BS x N_BS complex matrix alone is 4 MiB.
        cfg = ReceiverConfig(subcarriers=1)
        chan = _rich_channel(cfg)
        s = generate_symbols(cfg.users, cfg.subcarriers, 8, seed=1)
        tracemalloc.start()
        try:
            combiners = design_combiners(chan, cfg)
            apply_system(s, chan, combiners, 1.0, seed=2)
            check_hardware_constraints(combiners, cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert combiners.w_rf is None
        assert peak < 2 * 2**20
