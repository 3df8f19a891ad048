import math

import numpy as np
import pytest

from subthzrx import (Architecture, ArrayGeometry, ClusterChannelParams, ComponentCounts,
                      ComponentPowerCatalog, ConfigError, ReceiverConfig, SimulationParams,
                      component_counts, steering_vector, validate_config)
from subthzrx.config import check_db


def test_geometry_count_and_validation():
    geom = ArrayGeometry(32, 16)
    assert geom.count == 512
    with pytest.raises(ConfigError):
        ArrayGeometry(0, 4)
    with pytest.raises(ConfigError):
        ArrayGeometry(4, -1)
    with pytest.raises(ConfigError):
        ArrayGeometry(4, 4, spacing_wavelengths=0.0)


# The steering phases 2 pi d (m + n) must be floats: an inf phase times the
# m = 0 element is NaN. Counts beyond any float must not raise OverflowError.
@pytest.mark.parametrize("rows, spacing", [(2, 1e308), (2, 3e307), (10 ** 500, 0.5),
                                           (10 ** 500, 1e-300)])
def test_geometry_rejects_overflowing_steering_phases(rows, spacing):
    with pytest.raises(ConfigError, match="element_spacing_wavelengths"):
        ArrayGeometry(rows, 2, spacing)


def test_geometry_steers_finitely_up_to_its_spacing_bound():
    # 2 pi d (rows + cols) is a float at 7e306 on a 2x2 array, not at 1.4e307.
    assert np.all(np.isfinite(steering_vector(ArrayGeometry(2, 2, 7e306), 0.3, -0.2)))
    with pytest.raises(ConfigError, match="element_spacing_wavelengths"):
        ArrayGeometry(2, 2, 1.4e307)


def test_digital_rf_chains_resolve_to_antenna_count():
    cfg = ReceiverConfig(architecture=Architecture.DIGITAL, bs_geometry=ArrayGeometry(8, 8),
                         rf_chains=None, users=8)
    assert cfg.rf_chains == 64
    validate_config(cfg)


def test_validate_accepts_table_configs():
    # Digital array with one chain per antenna
    validate_config(ReceiverConfig(architecture=Architecture.DIGITAL,
                                   bs_geometry=ArrayGeometry(8, 8), rf_chains=64, users=8))
    # Sub-array at the 32x16 size with 8 chains and 8 users
    validate_config(ReceiverConfig(architecture=Architecture.SUBARRAY,
                                   bs_geometry=ArrayGeometry(32, 16), rf_chains=8, users=8))


@pytest.mark.parametrize("kwargs,fragment", [
    (dict(architecture=Architecture.SUBARRAY, bs_geometry=ArrayGeometry(25, 4), rf_chains=8),
     "not divisible"),
    (dict(architecture=Architecture.DIGITAL, bs_geometry=ArrayGeometry(8, 8), rf_chains=8),
     "N_RF == N_BS"),
    (dict(architecture=Architecture.FULLY_CONNECTED, bs_geometry=ArrayGeometry(2, 2), rf_chains=8),
     "exceed N_BS"),
    (dict(architecture=Architecture.SUBARRAY, bs_geometry=ArrayGeometry(8, 2), rf_chains=4,
          users=6), "users"),
    (dict(bandwidth_hz=0.0), "bandwidth"),
    (dict(subcarriers=0), "subcarriers"),
    (dict(adc_bits=0), "adc_bits"),
    (dict(per_antenna_snr=-1.0), "SNR"),
    (dict(rf_chains=0), "N_RF must be >= 1"),
    (dict(architecture=Architecture.DIGITAL, rf_chains=16, users=0), "users must be >= 1"),
    # A file states one element spacing for both arrays.
    (dict(bs_geometry=ArrayGeometry(8, 2, 0.7)), "element spacing 0.5 must equal the base station's 0.7"),
], ids=["sa-divisibility", "da-chain-count", "rf-exceeds-nbs", "too-many-users",
        "bandwidth", "subcarriers", "adc-bits", "snr", "no-chains", "da-no-users", "user-spacing"])
def test_validate_rejects_bad_configs(kwargs, fragment):
    base = dict(architecture=Architecture.SUBARRAY, bs_geometry=ArrayGeometry(8, 2),
                rf_chains=4, users=4)
    base.update(kwargs)
    with pytest.raises(ConfigError, match=fragment):
        validate_config(ReceiverConfig(**base))


@pytest.mark.parametrize("make", [
    lambda x: ComponentPowerCatalog(adc_fom_j_per_step_hz=x),
    lambda x: SimulationParams(sinr_floor=x),
    lambda x: ClusterChannelParams(k_factor_db=x),
], ids=["adc-fom", "sinr-floor", "k-factor"])
def test_range_checks_reject_nan_and_accept_infinity(make):
    # NaN fails every comparison, so each check must be one that NaN cannot pass.
    with pytest.raises(ValueError):
        make(math.nan)
    make(math.inf)


# 10^(4000/10) overflows a float; a numpy scalar's ratio would only warn
# and read as inf, so a dB figure is decided as its float is.
@pytest.mark.parametrize("number", [float, np.float64])
@pytest.mark.parametrize("make", [
    lambda x: check_db(x, "figure"),
    lambda x: ClusterChannelParams(k_factor_db=x),
    lambda x: ComponentPowerCatalog(lna_gain_db=x),
], ids=["check-db", "k-factor", "lna-gain"])
def test_overflowing_db_value_is_config_error(make, number):
    with pytest.raises(ConfigError, match="at most about 3082 dB"):
        make(number(4000))
    make(number(3))


# Infinite values that the power model or the link simulation cannot use.
@pytest.mark.parametrize("make, key", [
    (lambda x: validate_config(ReceiverConfig(per_antenna_snr=x)), "SNR"),
    (lambda x: validate_config(ReceiverConfig(bandwidth_hz=x)), "bandwidth_hz"),
    (lambda x: validate_config(ReceiverConfig(temperature_k=x)), "temperature_k"),
    (lambda x: ArrayGeometry(2, 2, x), "element_spacing_wavelengths"),
    (lambda x: ClusterChannelParams(delay_spread_s=x), "delay_spread_s"),
], ids=["snr", "bandwidth", "temperature", "spacing", "delay-spread"])
def test_range_checks_reject_nan_and_infinity(make, key):
    with pytest.raises(ValueError):
        make(math.nan)
    with pytest.raises(ValueError, match=key):
        make(math.inf)


def test_component_count_examples():
    da = ReceiverConfig(architecture=Architecture.DIGITAL, bs_geometry=ArrayGeometry(32, 16),
                        rf_chains=512, users=8)
    assert component_counts(da) == ComponentCounts(lna=512, ps=0, mixers=512, lo=512,
                                                   vga=512, adc=512)
    fh = ReceiverConfig(architecture=Architecture.FULLY_CONNECTED,
                        bs_geometry=ArrayGeometry(32, 16), rf_chains=8, users=8)
    counts = component_counts(fh)
    assert counts.ps == 4096 and counts.adc == 8 and counts.lna == 512
    # One antenna per chain degenerates the sub-array to per-antenna shifters
    sa = ReceiverConfig(architecture=Architecture.SUBARRAY, bs_geometry=ArrayGeometry(4, 2),
                        rf_chains=8, users=8)
    counts = component_counts(sa)
    assert counts.ps == 8 and counts.mixers == 8


def _random_valid_config(rng):
    arch = rng.choice(list(Architecture))
    rows = int(rng.integers(1, 9))
    cols = int(rng.integers(1, 9))
    n_bs = rows * cols
    if arch is Architecture.DIGITAL:
        rf = n_bs
    elif arch is Architecture.SUBARRAY:
        divisors = [d for d in range(1, n_bs + 1) if n_bs % d == 0]
        rf = int(rng.choice(divisors))
    else:
        rf = int(rng.integers(1, n_bs + 1))
    users = int(rng.integers(1, rf + 1))
    return validate_config(ReceiverConfig(architecture=arch, bs_geometry=ArrayGeometry(rows, cols),
                                          rf_chains=rf, users=users))


def test_component_counts_match_table_oracle():
    # Independent restatement of the per-architecture count table.
    oracle = {
        Architecture.DIGITAL: lambda n, r: (n, 0, n, n, n, n),
        Architecture.SUBARRAY: lambda n, r: (n, n, r, r, r, r),
        Architecture.FULLY_CONNECTED: lambda n, r: (n, n * r, r, r, r, r),
    }
    rng = np.random.default_rng(7)
    for _ in range(20):
        cfg = _random_valid_config(rng)
        counts = component_counts(cfg)
        lna, ps, mix, lo, vga, adc = oracle[cfg.architecture](cfg.n_bs, cfg.rf_chains)
        assert (counts.lna, counts.ps, counts.mixers, counts.lo, counts.vga, counts.adc) == \
            (lna, ps, mix, lo, vga, adc)
        assert counts.lna == cfg.n_bs
        assert component_counts(cfg) == counts  # deterministic


def test_fh_ps_count_is_sa_count_times_chains():
    for n_bs, rf in [(64, 8), (512, 8), (16, 4)]:
        rows = n_bs // 4
        sa = ReceiverConfig(architecture=Architecture.SUBARRAY, bs_geometry=ArrayGeometry(rows, 4),
                            rf_chains=rf, users=rf)
        fh = ReceiverConfig(architecture=Architecture.FULLY_CONNECTED,
                            bs_geometry=ArrayGeometry(rows, 4), rf_chains=rf, users=rf)
        assert component_counts(fh).ps == component_counts(sa).ps * rf
