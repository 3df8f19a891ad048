import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import pytest

from subthzrx import (Architecture, ArrayGeometry, ClusterChannelParams, ConfigError,
                      PhaseShifterType, ReceiverConfig, SimulationParams, SweepSpec,
                      config_echo, emit_results, parse_config, run_monte_carlo, run_sweep)
from subthzrx.fileio import (RunConfig, SIM_CSV_HEADER, TRADEOFF_CSV_HEADER, POWER_CSV_HEADER,
                             resolve_config)
from subthzrx.power import power_report


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
        assert rc.sweep.sim == rc.sim

    def test_bad_enum_value(self, tmp_path):
        with pytest.raises(ConfigError, match="one of"):
            parse_config(_write(tmp_path, "receiver:\n  architecture: analog\n"))

    def test_scientific_notation_without_dot(self, tmp_path):
        rc = parse_config(_write(tmp_path, "receiver:\n  bandwidth_hz: 400e6\n"))
        assert rc.receiver.bandwidth_hz == 400e6

    def test_echo_round_trips_through_resolver(self, tmp_path):
        rc = parse_config(_write(tmp_path, "receiver:\n  snr_db: 10\n  adc_bits: 8\n"))
        again = resolve_config(config_echo(rc))
        assert again.receiver == rc.receiver
        assert again.catalog == rc.catalog
        assert again.sweep == rc.sweep


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
        assert [p["ee_bits_per_J"] for p in loaded["points"]] == \
            [p.ee_bits_per_joule for p in sweep.points]

    def test_unknown_format_rejected(self, tiny_results):
        _, mc, _, _ = tiny_results
        with pytest.raises(ValueError):
            emit_results(mc, "xml", "out.xml")
