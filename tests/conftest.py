"""Shared helpers: small configurations that keep test runtimes low, a
trial composed from the public layers, and a dense channel for tests that
need one."""

import dataclasses
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import strategies as st

from subthzrx import (Architecture, ArrayGeometry, ClusterChannelParams, ReceiverConfig,
                      SimulationParams, apply_system, design_combiners, estimate_sinr,
                      generate_channel, generate_symbols)


def small_config(architecture=Architecture.SUBARRAY, rows=4, cols=2, rf=2, users=2,
                 user_rows=2, user_cols=1, subcarriers=4, snr_db=0.0, **overrides):
    return ReceiverConfig(
        architecture=architecture,
        bs_geometry=ArrayGeometry(rows, cols),
        rf_chains=rows * cols if architecture is Architecture.DIGITAL else rf,
        users=users,
        user_geometry=ArrayGeometry(user_rows, user_cols),
        subcarriers=subcarriers,
        snr_db=snr_db,
        **overrides,
    )


@st.composite
def receiver_configs(draw):
    """Small digital, sub-array and fully connected receivers of up to 6
    antennas, N_RF = N_BS included."""
    architecture = draw(st.sampled_from(list(Architecture)))
    rows, cols = draw(st.integers(1, 3)), draw(st.integers(1, 2))
    n_bs = rows * cols
    if architecture is Architecture.SUBARRAY:
        rf = draw(st.sampled_from([d for d in range(1, n_bs + 1) if n_bs % d == 0]))
    else:
        rf = draw(st.integers(1, n_bs))
    return small_config(architecture=architecture, rows=rows, cols=cols, rf=rf,
                        users=draw(st.integers(1, min(rf, 3))), user_rows=draw(st.integers(1, 2)),
                        subcarriers=draw(st.integers(1, 3)),
                        snr_db=draw(st.sampled_from([-10.0, 0.0, 10.0])))


def as_matrix(w_rf, n_bs):
    """An analog combiner as the reference formulas take it: the digital
    array's None (no analog stage) as the N_BS x N_BS identity."""
    return np.eye(n_bs, dtype=complex) if w_rf is None else w_rf


def composed_sinr(cfg, params, chan_params, trial_seed, channel_of=None):
    """The SINR of trial ``trial_seed`` composed from the public layers:
    the trial seed's three SeedSequence seeds draw the channel, the symbols
    and the noise; ``design_combiners``, ``generate_symbols``,
    ``apply_system`` and ``estimate_sinr`` follow. ``channel_of(seed)``, if
    given, gives the channel of the channel seed instead of the draw."""
    chan_seed, symbol_seed, noise_seed = (
        int(s) for s in np.random.SeedSequence(trial_seed).generate_state(3, np.uint64))
    channel = (generate_channel(cfg, dataclasses.replace(chan_params, seed=chan_seed))
               if channel_of is None else channel_of(chan_seed))
    combiners = design_combiners(channel, cfg, params.refine_sweeps, params.refine_tol)
    symbols = generate_symbols(cfg.users, cfg.subcarriers, params.symbols_per_trial, symbol_seed)
    received = apply_system(symbols, channel, combiners, 1.0 / cfg.per_antenna_snr, noise_seed)
    return estimate_sinr(symbols, received, params.sinr_floor)


@pytest.fixture
def fast_sim():
    return SimulationParams(symbols_per_trial=200, trials=2, seed=0, refine_sweeps=1)


@pytest.fixture
def chan_params():
    return ClusterChannelParams(seed=0)


@dataclass(frozen=True, eq=False)
class DenseChannel:
    """A channel held as its tensor ``h[k, rx, tx]``, user u owning the
    columns [u * n_tx_per_user, (u + 1) * n_tx_per_user). It answers the
    three questions a ``PathChannel`` answers, by dense reference formulas,
    and can hold channels no draw gives (all zeros, duplicated columns)."""

    h: np.ndarray
    n_users: int

    @property
    def subcarriers(self) -> int:
        return self.h.shape[0]

    @property
    def n_rx(self) -> int:
        return self.h.shape[1]

    @property
    def n_tx_per_user(self) -> int:
        return self.h.shape[2] // self.n_users

    def transmit_covariances(self) -> np.ndarray:
        width = self.n_tx_per_user
        flats = (self.h[:, :, u * width:(u + 1) * width].reshape(-1, width)
                 for u in range(self.n_users))
        return np.stack([flat.conj().T @ flat for flat in flats]) / self.subcarriers

    def receive_covariances(self, blocks: int) -> np.ndarray:
        rows = self.h.reshape(self.subcarriers, blocks, self.n_rx // blocks, -1)
        return sum(r_k @ r_k.conj().swapaxes(-1, -2) for r_k in rows) / self.subcarriers

    def stream_channel(self, v: np.ndarray) -> np.ndarray:
        return self.h @ v


def dense(chan) -> DenseChannel:
    """The dense form of a ``PathChannel``: each user's sum over its paths."""
    blocks = [np.einsum("pk,pr,pt->krt", w, a_rx, a_tx.conj(), optimize=True)
              for w, a_rx, a_tx in zip(chan.weights, chan.a_rx, chan.a_tx)]
    return DenseChannel(h=np.concatenate(blocks, axis=2), n_users=chan.n_users)
