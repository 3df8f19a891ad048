"""Shared helpers: small configurations that keep test runtimes low."""

import pytest
from hypothesis import strategies as st

from subthzrx import (Architecture, ArrayGeometry, ClusterChannelParams, ReceiverConfig,
                      SimulationParams, validate_config)


def small_config(architecture=Architecture.SUBARRAY, rows=4, cols=2, rf=2, users=2,
                 user_rows=2, user_cols=1, subcarriers=4, snr=1.0, **overrides):
    cfg = ReceiverConfig(
        architecture=architecture,
        bs_geometry=ArrayGeometry(rows, cols),
        rf_chains=rows * cols if architecture is Architecture.DIGITAL else rf,
        users=users,
        user_geometry=ArrayGeometry(user_rows, user_cols),
        subcarriers=subcarriers,
        per_antenna_snr=snr,
        **overrides,
    )
    return validate_config(cfg)


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
                        snr=draw(st.sampled_from([0.1, 1.0, 10.0])))


@pytest.fixture
def fast_sim():
    return SimulationParams(symbols_per_trial=200, trials=2, seed=0, refine_sweeps=1)


@pytest.fixture
def chan_params():
    return ClusterChannelParams(seed=0)
