import dataclasses
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import example, given, settings, strategies as st

from subthzrx import (Architecture, ArrayGeometry, ClusterChannelParams, ConfigError,
                      PhaseShifterType, ReceiverConfig, SimulationParams, SweepSpec,
                      config_echo, emit_results, generate_channel, parse_config, run_monte_carlo,
                      run_sweep)
from subthzrx import fileio
from subthzrx.fileio import (RunConfig, SIM_CSV_HEADER, TRADEOFF_CSV_HEADER, POWER_CSV_HEADER,
                             resolve_config)
from subthzrx.config import _DOMAINS
from subthzrx.power import power_report
from subthzrx.tradeoff import SweepResult, TradeoffPoint, point_config


# Configured dB values: decimals of up to 4 significant digits within the
# SNR domain, |x| <= 300, and its -inf.
SNR_DECIMALS = st.one_of(
    st.sampled_from([3, 2.5, 0, 300, -300, -math.inf]),
    st.builds(lambda digits, shift: float(f"{digits}e-{shift}"),
              st.integers(-3000, 3000), st.integers(1, 4)))


@st.composite
def file_configs(draw):
    """Raw configuration mappings of valid receivers of up to 16 antennas,
    with rf_chains explicit or left to its default, and any sweep axes."""
    architecture = draw(st.sampled_from(list(Architecture)))
    rows, cols = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    n_bs = rows * cols
    if architecture is Architecture.DIGITAL:
        rf = n_bs
    elif architecture is Architecture.SUBARRAY:
        rf = draw(st.sampled_from([d for d in range(1, n_bs + 1) if n_bs % d == 0]))
    else:
        rf = draw(st.integers(1, n_bs))
    users = draw(st.integers(1, min(rf, 8)))
    auto = rf == (n_bs if architecture is Architecture.DIGITAL else users)
    receiver = {
        "architecture": architecture.value, "bs_rows": rows, "bs_cols": cols,
        "element_spacing_wavelengths": draw(st.sampled_from([0.25, 0.5, 0.7])),
        "rf_chains": None if auto and draw(st.booleans()) else rf,
        "users": users, "user_rows": draw(st.integers(1, 3)), "snr_db": draw(SNR_DECIMALS),
    }
    sweep = draw(st.fixed_dictionaries({}, optional={
        "architectures": st.lists(st.sampled_from([a.value for a in Architecture]), min_size=1),
        "array_sizes": st.lists(st.lists(st.integers(1, 64), min_size=2, max_size=2), min_size=1),
        "adc_bits": st.lists(st.integers(1, 16), min_size=1),
        "ps_types": st.lists(st.sampled_from([p.value for p in PhaseShifterType]), min_size=1),
        "snr_db": st.lists(SNR_DECIMALS, min_size=1, max_size=4),
    }))
    return {"receiver": receiver, "sweep": sweep}


SIMULATION_PARAMS = st.builds(
    SimulationParams, symbols_per_trial=st.integers(2, 10 ** 6), trials=st.integers(1, 10 ** 6),
    sinr_floor=st.floats(*_DOMAINS["sinr_floor"][:2]), seed=st.integers(0, 2 ** 64),
    refine_sweeps=st.integers(0, 10), refine_tol=st.floats(*_DOMAINS["refine_tol"][:2]))


# Any value a hand-edited file might hold, right or wrong, for any key. The
# powers of ten reach past the float range; leaves are drawn as often as
# containers, so most keys get a scalar.
FILE_LEAVES = st.one_of(st.none(), st.booleans(), st.integers(-10 ** 500, 10 ** 500),
                        st.sampled_from(range(501)).map(lambda e: 10 ** e), st.floats(),
                        st.text(alphabet="0123456789+-\u00b2", max_size=4))
FILE_VALUES = FILE_LEAVES | st.recursive(
    FILE_LEAVES,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                                max_size=2),
    max_leaves=6)


@st.composite
def fuzzed_configs(draw):
    """Raw mappings that give a few keys of any sections any values."""
    return {section: draw(st.dictionaries(st.sampled_from(list(keys)), FILE_VALUES, max_size=2))
            for section, keys in config_echo(RunConfig()).items() if draw(st.booleans())}


def _write(tmp_path, text):
    path = tmp_path / "config.yaml"
    path.write_text(text)
    return str(path)


class TestParseConfig:
    def test_empty_file_resolves_to_reference_defaults(self, tmp_path):
        rc = parse_config(_write(tmp_path, ""))
        assert rc.receiver.subcarriers == 256
        assert rc.receiver.bandwidth_hz == 800e6
        assert rc.receiver.users == 8
        assert rc.receiver.bs_geometry == ArrayGeometry(32, 16)
        assert rc.receiver.user_geometry.count == 64
        assert rc.receiver.per_antenna_snr == 1.0
        assert rc.catalog.lna_fom_per_mw == 1.84
        assert rc.sim.symbols_per_trial == 1000 and rc.sim.trials == 10

    def test_single_override_changes_one_field(self, tmp_path):
        rc = parse_config(_write(tmp_path, "receiver:\n  adc_bits: 10\n"))
        default = RunConfig()
        assert rc.receiver.adc_bits == 10
        assert dataclasses.replace(rc.receiver, adc_bits=5) == default.receiver

    def test_unknown_key_named_in_error(self, tmp_path):
        with pytest.raises(ConfigError, match="bandwith"):
            parse_config(_write(tmp_path, "receiver:\n  bandwith: 1e9\n"))
        with pytest.raises(ConfigError, match="unknown key 'powr'"):
            parse_config(_write(tmp_path, "powr: {}\n"))

    def test_yaml_error_reports_line_and_column(self, tmp_path):
        with pytest.raises(ConfigError, match=r"line \d+, column \d+"):
            parse_config(_write(tmp_path, "receiver:\n  adc_bits: [unclosed\n"))

    @pytest.mark.parametrize("text, where", [
        ("sim: {}\nsim: {}\n", "line 2, column 1: key 'sim'"),
        ("catalog:\n  lna_gain_db: 1\n  lna_gain_db: 2\n", "line 3, column 3: key 'lna_gain_db'"),
        ("sweep:\n  array_sizes: [{rows: 4, rows: 2}]\n", "line 2, column 27: key 'rows'"),
    ], ids=["top-level", "section", "nested"])
    def test_key_given_twice_is_config_error(self, tmp_path, text, where):
        with pytest.raises(ConfigError, match=f"config.yaml at {where} given twice"):
            parse_config(_write(tmp_path, text))

    def test_merged_key_may_be_overridden(self, tmp_path):
        # A YAML merge key is not a key given twice: the mapping's own wins.
        text = "receiver:\n  <<: {adc_bits: 6, users: 4}\n  adc_bits: 7\n"
        receiver = parse_config(_write(tmp_path, text)).receiver
        assert (receiver.adc_bits, receiver.users) == (7, 4)

    def test_snr_converted_at_boundary(self, tmp_path):
        rc = parse_config(_write(tmp_path, "receiver:\n  snr_db: 10\n"))
        assert rc.receiver.per_antenna_snr == pytest.approx(10.0)

    def test_validation_failures_surface_as_config_errors(self, tmp_path):
        text = "receiver:\n  architecture: subarray\n  bs_rows: 5\n  bs_cols: 5\n  rf_chains: 8\n"
        with pytest.raises(ConfigError, match="divisible"):
            parse_config(_write(tmp_path, text))

    def test_sweep_section(self, tmp_path):
        text = (
            "sweep:\n"
            "  architectures: [digital, fully_connected]\n"
            "  array_sizes: [[4, 2], [8, 4]]\n"
            "  adc_bits: [5]\n"
            "  ps_types: [active]\n"
            "  snr_db: [0, 10]\n"
        )
        rc = parse_config(_write(tmp_path, text))
        assert rc.sweep.architectures == (Architecture.DIGITAL, Architecture.FULLY_CONNECTED)
        assert rc.sweep.array_sizes == (ArrayGeometry(4, 2), ArrayGeometry(8, 4))
        assert rc.sweep.ps_types == (PhaseShifterType.ACTIVE,)
        assert rc.sweep.snr_db == (0.0, 10.0)

    def test_run_keeps_one_simulation_params(self, tmp_path):
        # The sim section has one home, the sweep; rc.sim reads it.
        assert "sim" not in {f.name for f in dataclasses.fields(RunConfig)}
        rc = parse_config(_write(tmp_path, "sim:\n  trials: 3\n  seed: 1\n"))
        assert rc.sim is rc.sweep.sim
        assert (rc.sim.trials, rc.sim.seed) == (3, 1)

    def test_delay_spread_whose_phases_could_overflow_is_config_error(self):
        with pytest.raises(ConfigError, match=r"channel: delay_spread_s must lie in \[1e-30, 1e-06\] s"):
            resolve_config({"channel": {"delay_spread_s": 1e300}})
        # A drawn delay stays below 50 spreads, so the top spread builds on the widest band.
        receiver = {"architecture": "subarray", "bs_rows": 4, "bs_cols": 2, "rf_chains": 2,
                    "users": 2, "user_rows": 2, "user_cols": 1, "subcarriers": 4,
                    "bandwidth_hz": _DOMAINS["bandwidth_hz"][1]}
        spread = _DOMAINS["delay_spread_s"][1]
        for seed in range(10):
            rc = resolve_config({"receiver": receiver,
                                 "channel": {"delay_spread_s": spread, "seed": seed}})
            assert np.all(np.isfinite(generate_channel(rc.receiver, rc.channel).weights))

    @pytest.mark.parametrize("section, key, value, message", [
        ("sim", "symbols_per_trial", 1, "symbols_per_trial"),
        ("sim", "refine_sweeps", -2, "refine_sweeps"),
        ("sim", "refine_tol", -1, "refine_tol"),
        ("channel", "angle_spread_deg", -5, "angle_spread_deg"),
        ("sim", "trials", 0, "trials"),
        ("channel", "clusters", 0, "clusters"),
    ])
    def test_out_of_range_run_parameters_are_config_errors(self, tmp_path, section, key, value,
                                                           message):
        with pytest.raises(ConfigError, match=message):
            parse_config(_write(tmp_path, f"{section}:\n  {key}: {value}\n"))

    @pytest.mark.parametrize("value", ["true", ".nan"])
    @pytest.mark.parametrize("section, key", [
        ("receiver", "snr_db"), ("receiver", "bandwidth_hz"), ("sim", "sinr_floor")])
    def test_boolean_is_not_a_number(self, tmp_path, section, key, value):
        with pytest.raises(ConfigError, match=f"'{key}' must be a number"):
            parse_config(_write(tmp_path, f"{section}:\n  {key}: {value}\n"))

    @pytest.mark.parametrize("raw, message", [
        ([1, 2], "top level must be a mapping"),
        ({"receiver": [1, 2]}, "section 'receiver' must be a mapping"),
        ({"receiver": {"users": 2.5}}, "'users' must be an integer"),
        ({"sim": {"trials": "ten"}}, "'trials' must be an integer"),
        ({"sweep": {"array_sizes": [[4, 2, 1]]}}, r"\[rows, cols\] pairs"),
        ({"sweep": {"array_sizes": [[4, 2.5]]}}, "'array_sizes' must be an integer"),
        ({"sweep": {"snr_db": []}}, "'snr_db' must be a non-empty list"),
        ({"receiver": {"bandwidth_hz": "wide"}}, "'bandwidth_hz' must be a number"),
    ], ids=["top-level", "section", "receiver-int", "sim-int", "size-pair", "size-int",
            "empty-axis", "float-string"])
    def test_malformed_input_is_config_error(self, raw, message):
        with pytest.raises(ConfigError, match=message):
            resolve_config(raw)

    @pytest.mark.parametrize("section", fileio._SECTIONS)
    def test_null_section_means_defaults(self, section):
        assert resolve_config({section: None}) == resolve_config(None)

    def test_bad_enum_value(self, tmp_path):
        with pytest.raises(ConfigError, match="one of"):
            parse_config(_write(tmp_path, "receiver:\n  architecture: analog\n"))

    def test_scientific_notation_without_dot(self, tmp_path):
        rc = parse_config(_write(tmp_path, "receiver:\n  bandwidth_hz: 400e6\n"))
        assert rc.receiver.bandwidth_hz == 400e6

    @settings(max_examples=150, deadline=None)
    @given(raw=file_configs())
    @example(raw={"receiver": {"snr_db": 3}})
    @example(raw={"receiver": {"snr_db": 2.5}, "sweep": {"snr_db": [3, -math.inf]}})
    @example(raw={"receiver": {"snr_db": -math.inf, "rf_chains": None}})
    def test_echo_round_trips_through_resolver(self, raw):
        # The echo, through strict JSON, resolves to the same configuration
        # and states every SNR as the decimal it was configured with.
        rc = resolve_config(raw)
        echo = json.loads(json.dumps(config_echo(rc), allow_nan=False))
        assert resolve_config(echo) == rc
        assert float(echo["receiver"]["snr_db"]) == raw["receiver"].get("snr_db", 0)
        sweep_snr = raw.get("sweep", {}).get("snr_db", SweepSpec().snr_db)
        assert [float(v) for v in echo["sweep"]["snr_db"]] == list(sweep_snr)

    @settings(max_examples=100, deadline=None)
    @given(raw=file_configs(), sim=SIMULATION_PARAMS, channel_seed=st.integers(0, 2 ** 64))
    def test_echo_of_a_run_built_in_code_round_trips(self, raw, sim, channel_seed):
        # A RunConfig built in code, its sweep holding any Monte Carlo
        # settings, echoes the settings it runs: the echo resolves back to it.
        resolved = resolve_config(raw)
        rc = RunConfig(receiver=resolved.receiver, channel=ClusterChannelParams(seed=channel_seed),
                       sweep=dataclasses.replace(resolved.sweep, sim=sim))
        echo = json.loads(json.dumps(config_echo(rc), allow_nan=False))
        assert resolve_config(echo) == rc

    @settings(max_examples=200, deadline=None)
    @given(raw=fuzzed_configs())
    @example(raw={"receiver": {"users": "\u00b2"}})
    @example(raw={"sim": {"trials": "--5"}})
    @example(raw={"receiver": {"bandwidth_hz": 10 ** 400}})
    @example(raw={"receiver": {"bs_rows": 10 ** 500}})
    def test_resolves_or_raises_config_error(self, raw):
        # Config resolution raises nothing but ConfigError, and every
        # configuration it accepts echoes as strict JSON.
        try:
            rc = resolve_config(raw)
        except ConfigError:
            return
        json.dumps(config_echo(rc), allow_nan=False)

    def test_readme_block_is_the_default_schema(self):
        # README's configuration block resolves to the defaults and lists
        # each section's keys in the order the echo writes them.
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        raw = yaml.safe_load(re.search(r"```yaml\n(.*?)```", readme, re.S).group(1))
        assert resolve_config(raw) == RunConfig()
        echo = config_echo(RunConfig())
        assert list(raw) == list(echo)
        for section, keys in echo.items():
            assert list(raw[section]) == list(keys), section


@pytest.fixture(scope="module")
def tiny_results():
    cfg = ReceiverConfig(architecture=Architecture.SUBARRAY, bs_geometry=ArrayGeometry(4, 2),
                         rf_chains=2, users=2, user_geometry=ArrayGeometry(2, 1), subcarriers=3)
    sim = SimulationParams(symbols_per_trial=50, trials=2, seed=1, refine_sweeps=0)
    chan = ClusterChannelParams(seed=2)
    mc = run_monte_carlo(cfg, sim, chan)
    spec = SweepSpec(architectures=(Architecture.DIGITAL, Architecture.SUBARRAY),
                     array_sizes=(ArrayGeometry(4, 2),), adc_bits=(5,),
                     ps_types=(PhaseShifterType.PASSIVE,), snr_db=(0.0,), sim=sim)
    sweep = run_sweep(spec, base=cfg, chan_params=chan)
    report = power_report(cfg)
    return cfg, mc, sweep, report


class TestEmitResults:
    def test_byte_stable(self, tmp_path, tiny_results):
        _, mc, sweep, report = tiny_results
        for name, obj in [("power", report), ("sim", mc), ("sweep", sweep)]:
            for fmt in ("csv", "json"):
                p1 = str(tmp_path / f"{name}_a.{fmt}")
                p2 = str(tmp_path / f"{name}_b.{fmt}")
                emit_results(obj, fmt, p1)
                emit_results(obj, fmt, p2)
                assert Path(p1).read_bytes() == Path(p2).read_bytes()

    def test_csv_column_order(self, tmp_path, tiny_results):
        _, mc, sweep, report = tiny_results
        cases = [(report, POWER_CSV_HEADER), (mc, SIM_CSV_HEADER), (sweep, TRADEOFF_CSV_HEADER)]
        for i, (obj, header) in enumerate(cases):
            path = str(tmp_path / f"case{i}.csv")
            emit_results(obj, "csv", path)
            first = Path(path).read_text().splitlines()[0].strip()
            assert first == ",".join(header)

    def test_simulation_csv_rows_and_summary(self, tmp_path, tiny_results):
        _, mc, _, _ = tiny_results
        path = str(tmp_path / "sim.csv")
        emit_results(mc, "csv", path)
        lines = Path(path).read_text().strip().split("\n")
        users, subcarriers = mc.trials[0].sinr.shape
        assert len(lines) == 1 + len(mc.trials) * users * subcarriers + 1
        summary = lines[-1].split(",")
        assert summary[0] == "summary"
        assert float(summary[2]) == mc.mean_se_bits_hz
        assert float(summary[4]) == mc.std_se_bits_hz
        # spot-check one data row against the in-memory SINR
        row = lines[1].split(",")
        assert row[:4] == ["0", str(mc.trials[0].seed), "0", "0"]
        assert float(row[4]) == pytest.approx(10 * math.log10(mc.trials[0].sinr[0, 0]))

    def test_json_round_trip(self, tmp_path, tiny_results):
        _, mc, sweep, _ = tiny_results
        sim_path = str(tmp_path / "sim.json")
        emit_results(mc, "json", sim_path)
        loaded = json.loads(Path(sim_path).read_text())
        assert loaded["mean_se_bits_hz"] == mc.mean_se_bits_hz
        assert loaded["std_se_bits_hz"] == mc.std_se_bits_hz
        for entry, trial in zip(loaded["trials"], mc.trials):
            assert entry["seed"] == trial.seed
            assert entry["se_bits_hz"] == trial.se_bits_hz
            assert np.array_equal(np.array(entry["sinr"]), trial.sinr)

        sweep_path = str(tmp_path / "sweep.json")
        emit_results(sweep, "json", sweep_path)
        loaded = json.loads(Path(sweep_path).read_text())
        assert [p["se_bitsHz"] for p in loaded["points"]] == \
            [p.se_bits_hz for p in sweep.points]
        assert [p["se_std_bitsHz"] for p in loaded["points"]] == \
            [p.se_std_bits_hz for p in sweep.points]
        assert [p["ee_bits_per_J"] for p in loaded["points"]] == \
            [p.ee_bits_per_joule for p in sweep.points]

    def test_tradeoff_snr_is_the_configured_decimal(self, tmp_path, tiny_results):
        cfg = point_config(tiny_results[0], Architecture.SUBARRAY, ArrayGeometry(4, 2), 5,
                           PhaseShifterType.PASSIVE, 3.0)
        point = TradeoffPoint(config_id="p", config=cfg, se_bits_hz=1.0, se_std_bits_hz=0.0,
                              power_w=1.0, ee_bits_per_joule=cfg.bandwidth_hz)
        path = str(tmp_path / "sweep.csv")
        emit_results(SweepResult(points=(point,), failures=()), "csv", path)
        row = dict(zip(TRADEOFF_CSV_HEADER, Path(path).read_text().splitlines()[1].split(",")))
        assert row["snr_db"] == "3.0"

    def test_unknown_format_rejected(self, tiny_results):
        _, mc, _, _ = tiny_results
        with pytest.raises(ValueError):
            emit_results(mc, "xml", "out.xml")

    def test_unknown_result_type_rejected(self, tmp_path):
        path = tmp_path / "result.csv"
        with pytest.raises(TypeError, match="no writer for result type dict"):
            emit_results({}, "csv", str(path))
        assert not path.exists()
