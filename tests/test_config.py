import ast
import dataclasses
import json
import math
import pkgutil
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import subthzrx
from subthzrx import (Architecture, ArrayGeometry, ClusterChannelParams, ComponentCounts,
                      ComponentPowerCatalog, ConfigError, PhaseShifterType, ReceiverConfig,
                      SimulationParams, SweepSpec, component_counts, config_echo, run_monte_carlo,
                      validate_config)
from subthzrx.channel import _steering_matrix
from subthzrx.config import _DOMAINS, _domain_text
from subthzrx.fileio import RunConfig, resolve_config
from subthzrx.power import power_report


ROOT = Path(__file__).parents[1]


def _readme_surface():
    """README's Library list of the public names: {module: names}."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    library = readme.split("\n## Library\n")[1].split("\n## ")[0]
    items = re.findall(r"^- \*\*(\w+)\*\*: (.*(?:\n  .*)*)", library, re.MULTILINE)
    return {module: re.findall(r"`(\w+)`", names) for module, names in items}


def test_public_names_are_readmes_list():
    # Each name is defined in the module README lists it under, so no name
    # is a submodule and ``import *`` binds none.
    surface = _readme_surface()
    assert subthzrx.__all__ == sorted(name for names in surface.values() for name in names)
    for module, names in surface.items():
        assert [name for name in names
                if getattr(subthzrx, name).__module__ != f"subthzrx.{module}"] == [], module


@pytest.mark.parametrize("path", ["tests/test_acceptance.py", "perfbench/pipeline.py"])
def test_acceptance_and_benchmark_import_only_readmes_names(path):
    # C01-C12 and the benchmark's goldens run on the public surface: a name
    # they import that README does not list fails here, on every Python leg.
    submodules = {module.name for module in pkgutil.iter_modules(subthzrx.__path__)}
    tree = ast.parse((ROOT / path).read_text(encoding="utf-8"))
    names = {alias.name for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) and node.module == "subthzrx"
             for alias in node.names} - submodules
    listed = {name for names in _readme_surface().values() for name in names}
    assert names and names <= listed, sorted(names - listed)


def test_geometry_count_and_validation():
    geom = ArrayGeometry(32, 16)
    assert geom.count == 512
    with pytest.raises(ConfigError):
        ArrayGeometry(0, 4)
    with pytest.raises(ConfigError):
        ArrayGeometry(4, -1)
    with pytest.raises(ConfigError):
        ReceiverConfig(element_spacing_wavelengths=0.0)


# Spacings and counts whose steering phases 2 pi d (m + n) once overflowed a
# float lie outside their domains. A count beyond any float compares exactly.
@pytest.mark.parametrize("rows, spacing", [(2, 1e308), (2, 3e307), (10 ** 500, 0.5),
                                           (10 ** 500, 1e-300)])
def test_geometry_rejects_overflowing_steering_phases(rows, spacing):
    with pytest.raises(ConfigError, match=r"(rows|element_spacing_wavelengths) must lie in \["):
        ReceiverConfig(bs_geometry=ArrayGeometry(rows, 2), element_spacing_wavelengths=spacing)


def test_geometry_steers_finitely_up_to_its_spacing_bound():
    # The largest array at the largest spacing steers finitely; one ulp
    # more spacing is outside the domain.
    rows, spacing = _DOMAINS["rows"][1], _DOMAINS["element_spacing_wavelengths"][1]
    steering = _steering_matrix(ArrayGeometry(rows, 2), spacing, np.array(0.3), np.array(-0.2))
    assert np.all(np.abs(steering) > 0)
    with pytest.raises(ConfigError, match="element_spacing_wavelengths must lie in"):
        ReceiverConfig(element_spacing_wavelengths=math.nextafter(spacing, math.inf))


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
    (dict(snr_db=math.nan), "snr_db"),
    (dict(rf_chains=0), r"rf_chains must lie in \[1, inf\]"),
    (dict(architecture=Architecture.DIGITAL, rf_chains=16, users=0), r"users must lie in \[1, inf\]"),
], ids=["sa-divisibility", "da-chain-count", "rf-exceeds-nbs", "too-many-users",
        "bandwidth", "subcarriers", "adc-bits", "snr", "no-chains", "da-no-users"])
def test_validate_rejects_bad_configs(kwargs, fragment):
    # A receiver no layout can build cannot be built, whether from its
    # fields or by replacing fields of a valid receiver.
    base = dict(architecture=Architecture.SUBARRAY, bs_geometry=ArrayGeometry(8, 2),
                rf_chains=4, users=4)
    with pytest.raises(ConfigError, match=fragment):
        ReceiverConfig(**base | kwargs)
    with pytest.raises(ConfigError, match=fragment):
        dataclasses.replace(ReceiverConfig(**base), **kwargs)


# NaN fails every comparison, so each check must be one that NaN cannot
# pass. Only k_factor_db's domain holds +inf (the pure line-of-sight
# channel); an infinite ADC figure of merit or SINR floor is outside.
@pytest.mark.parametrize("make, infinity_in_domain", [
    (lambda x: ComponentPowerCatalog(adc_fom_j_per_step_hz=x), False),
    (lambda x: SimulationParams(sinr_floor=x), False),
    (lambda x: ClusterChannelParams(k_factor_db=x), True),
], ids=["adc-fom", "sinr-floor", "k-factor"])
def test_range_checks_reject_nan_and_accept_infinity(make, infinity_in_domain):
    with pytest.raises(ConfigError):
        make(math.nan)
    if infinity_in_domain:
        make(math.inf)
    else:
        with pytest.raises(ConfigError, match="must lie in"):
            make(math.inf)


# 10^(4000/10) overflows a float; 4000 dB lies outside every dB domain, as
# a float and as a numpy scalar.
@pytest.mark.parametrize("number", [float, np.float64])
@pytest.mark.parametrize("make", [
    lambda x: ClusterChannelParams(k_factor_db=x),
    lambda x: ComponentPowerCatalog(lna_gain_db=x),
], ids=["k-factor", "lna-gain"])
def test_overflowing_db_value_is_config_error(make, number):
    with pytest.raises(ConfigError, match=r"_db must lie in \[.*\] dB"):
        make(number(4000))
    make(number(3))


# Infinite values that the power model or the link simulation cannot use.
@pytest.mark.parametrize("make, key", [
    (lambda x: validate_config(ReceiverConfig(snr_db=x)), "snr_db"),
    (lambda x: validate_config(ReceiverConfig(bandwidth_hz=x)), "bandwidth_hz"),
    (lambda x: validate_config(ReceiverConfig(temperature_k=x)), "temperature_k"),
    (lambda x: ReceiverConfig(element_spacing_wavelengths=x), "element_spacing_wavelengths"),
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
    return ReceiverConfig(architecture=arch, bs_geometry=ArrayGeometry(rows, cols), rf_chains=rf,
                          users=users)


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


def _home(key):
    """The constructor that checks ``key``, and the section and key that
    hold it in a config file."""
    for cls, section in ((ReceiverConfig, "receiver"), (ComponentPowerCatalog, "catalog"),
                         (ClusterChannelParams, "channel"), (SimulationParams, "sim")):
        if key in {f.name for f in dataclasses.fields(cls)}:
            return (lambda value: cls(**{key: value})), section, key
    return {"rows": (lambda value: ArrayGeometry(value, 1), "receiver", "bs_rows"),
            "cols": (lambda value: ArrayGeometry(1, value), "receiver", "bs_cols")}[key]


def _just_outside(key):
    """The values next to the ends of ``key``'s domain; an infinite top
    has none above it."""
    low, high = _DOMAINS[key][:2]
    if isinstance(low, int):
        return [low - 1, *([high + 1] if high < math.inf else [])]
    return [math.nextafter(low, -math.inf), math.nextafter(high, math.inf)]


@pytest.mark.parametrize("key", _DOMAINS)
def test_value_outside_its_domain_is_config_error(key):
    # From a direct constructor call and from a file, a value just outside
    # the domain raises ConfigError naming the key and the domain; so does
    # a sweep axis entry of the keys a sweep also holds, and a NaN, which a
    # file cannot give (it is not a number), in a constructor call.
    make, section, file_key = _home(key)
    named = re.escape(f"{key} must lie in {_domain_text(key)}, got ")
    if isinstance(_DOMAINS[key][0], float):
        with pytest.raises(ConfigError, match=named):
            make(math.nan)
    for value in _just_outside(key):
        with pytest.raises(ConfigError, match=named):
            make(value)
        with pytest.raises(ConfigError, match=named):
            resolve_config({section: {file_key: value}})
        if key in ("adc_bits", "snr_db"):
            with pytest.raises(ConfigError, match=named):
                SweepSpec(**{key: (value,)})
            with pytest.raises(ConfigError, match=named):
                resolve_config({"sweep": {key: [value]}})


def _count_home(key):
    """The constructor that checks the count ``key``; a receiver's chains
    on the fully connected layout with one user, which takes any count up
    to N_BS."""
    if key == "rf_chains":
        return lambda value: ReceiverConfig(Architecture.FULLY_CONNECTED, rf_chains=value, users=1)
    return _home(key)[0]


# A count is an integer wherever a configuration is built: a constructor
# refuses a fraction or a bool, as a file does, and takes a numpy integer.
@pytest.mark.parametrize("value", [2.5, True], ids=["fraction", "bool"])
@pytest.mark.parametrize("key", [key for key, (low, *_) in _DOMAINS.items() if isinstance(low, int)])
def test_count_that_is_not_an_integer_is_config_error(key, value):
    make = _count_home(key)
    named = re.escape(f"{key} must be an integer, got {value!r}")
    with pytest.raises(ConfigError, match=named):
        make(value)
    if key == "adc_bits":
        with pytest.raises(ConfigError, match=named):
            SweepSpec(adc_bits=(value,))
    make(np.int64(_DOMAINS[key][0]))


def test_readme_table_is_the_domain_table():
    readme = (ROOT / "README.md").read_text()
    table = readme.split("| key | domain |\n| --- | --- |\n", 1)[1].split("\n\n", 1)[0]
    assert table.splitlines() == [f"| `{key}` | {_domain_text(key)} |" for key in _DOMAINS]


def _in_domain(key):
    """A value of ``key`` at an end of its domain, one of the other values
    it holds, or one inside it."""
    low, high, _, *also = _DOMAINS[key]
    inside = st.integers(low, high) if isinstance(low, int) else st.floats(low, high)
    return st.sampled_from([low, high, *also]) | inside


def _fields_in_domain(draw, cls, **fixed):
    """``cls`` with each field whose domain the table bounds drawn by
    ``_in_domain``; counts and seeds, unbounded above, keep their defaults."""
    return cls(**{f.name: draw(_in_domain(f.name)) for f in dataclasses.fields(cls)
                  if f.name in _DOMAINS and _DOMAINS[f.name][1] < math.inf
                  and f.name not in fixed}, **fixed)


@st.composite
def corner_runs(draw):
    """Run configurations whose every numeric key lies at an end of its
    domain or inside it: arrays up to 4096 x 4096, whose chain count and
    user count are 1, the row count or the antenna count."""
    arch = draw(st.sampled_from(list(Architecture)))
    bs = ArrayGeometry(draw(_in_domain("rows")), draw(_in_domain("cols")))
    rf = bs.count if arch is Architecture.DIGITAL else draw(st.sampled_from([1, bs.rows, bs.count]))
    user = ArrayGeometry(draw(_in_domain("rows")), draw(_in_domain("cols")))
    receiver = _fields_in_domain(
        draw, ReceiverConfig, architecture=arch, bs_geometry=bs, rf_chains=rf,
        users=draw(st.sampled_from([1, rf])), user_geometry=user,
        ps_type=draw(st.sampled_from(list(PhaseShifterType))))
    sweep = SweepSpec(adc_bits=(draw(_in_domain("adc_bits")),),
                      snr_db=(draw(_in_domain("snr_db")),), sim=_fields_in_domain(draw, SimulationParams))
    return RunConfig(receiver=receiver,
                     catalog=_fields_in_domain(draw, ComponentPowerCatalog),
                     channel=_fields_in_domain(draw, ClusterChannelParams), sweep=sweep)


@settings(max_examples=200, deadline=None)
@given(rc=corner_runs())
def test_domain_corners_give_finite_power(rc):
    # Every product the power model forms stays a float: no row, unit power
    # or total overflows (and every warning fails the test).
    report = power_report(rc.receiver, rc.catalog)
    assert all(math.isfinite(row.unit_power_mw) and math.isfinite(row.total_w) for row in report.rows)
    assert math.isfinite(report.breakdown.total_w)


@settings(max_examples=100, deadline=None)
@given(rc=corner_runs())
def test_domain_corners_echo_round_trip(rc):
    echo = json.loads(json.dumps(config_echo(rc), allow_nan=False))
    assert resolve_config(echo) == rc


def _as_numpy(draw, value, key=None):
    """``value`` rebuilt with every number of the domain table as a numpy
    scalar: a count as an int64 or a uint64, a real as a float64."""
    if dataclasses.is_dataclass(value):
        return dataclasses.replace(value, **{f.name: _as_numpy(draw, getattr(value, f.name), f.name)
                                             for f in dataclasses.fields(value)})
    if isinstance(value, tuple):
        return tuple(_as_numpy(draw, item, key) for item in value)
    if key not in _DOMAINS:
        return value
    if isinstance(_DOMAINS[key][0], int):
        return draw(st.sampled_from([np.int64, np.uint64]))(value)
    return np.float64(value)


# A configuration built from numpy scalars, sweep axes included, holds the
# Python numbers they equal: its echo is the strict JSON of the same
# configuration built from Python numbers, and reads back to that echo.
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_numpy_numbers_echo_as_python_numbers(data):
    rc = data.draw(corner_runs())
    echo = json.dumps(config_echo(_as_numpy(data.draw, rc)), allow_nan=False)
    assert echo == json.dumps(config_echo(rc), allow_nan=False)
    assert json.dumps(config_echo(resolve_config(json.loads(echo))), allow_nan=False) == echo


# The receiver holds its SNR and element spacing as the file states them,
# so the echo of any receiver built in code resolves to that receiver: at
# any SNR in the domain, and at the dB of a linear SNR drawn uniformly
# from [0.5, 10], which echoed as a different receiver while the receiver
# held the linear ratio (5.839908251229852 came back as 5.8399082512298515).
@settings(max_examples=500, deadline=None)
@given(snr_db=_in_domain("snr_db") | st.floats(0.5, 10).map(lambda snr: 10 * math.log10(snr)),
       spacing=_in_domain("element_spacing_wavelengths"))
def test_receiver_settings_echo_round_trip(snr_db, spacing):
    rc = RunConfig(receiver=ReceiverConfig(snr_db=snr_db, element_spacing_wavelengths=spacing))
    echo = json.loads(json.dumps(config_echo(rc), allow_nan=False))
    assert resolve_config(echo) == rc


# Each layout simulates at both ends of the SNR domain, with N_RF = U and
# every other key of the link at an end of its domain or inside it. With
# more chains than users (N_RF > U) the refinement still scores NaN
# candidates at 60 dB and above: ROADMAP item 12's open defect, which the
# domains do not mend.
@pytest.mark.parametrize("snr_db", [_DOMAINS["snr_db"][0], _DOMAINS["snr_db"][1]])
@pytest.mark.parametrize("arch", list(Architecture))
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_domain_corners_simulate(arch, snr_db, data):
    users = 8 if arch is Architecture.DIGITAL else 2
    cfg = _fields_in_domain(
        data.draw, ReceiverConfig, architecture=arch, bs_geometry=ArrayGeometry(4, 2),
        rf_chains=users, users=users, user_geometry=ArrayGeometry(2, 1), subcarriers=4,
        snr_db=snr_db)
    sim = _fields_in_domain(data.draw, SimulationParams, symbols_per_trial=20, trials=1)
    channel = _fields_in_domain(data.draw, ClusterChannelParams)
    assert run_monte_carlo(cfg, sim, channel).mean_se_bits_hz >= 0
