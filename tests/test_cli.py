import json
import math
import os
from pathlib import Path

import pytest

from subthzrx import cli, simulation
from subthzrx.cli import main
from subthzrx.fileio import parse_config, resolve_config

TINY_YAML = """\
receiver:
  architecture: subarray
  bs_rows: 4
  bs_cols: 2
  rf_chains: 2
  users: 2
  user_rows: 2
  user_cols: 1
  subcarriers: 3
  snr_db: 0
channel:
  seed: 3
sim:
  symbols_per_trial: 50
  trials: 2
  seed: 1
  refine_sweeps: 0
sweep:
  architectures: [digital, subarray]
  array_sizes: [[4, 2]]
  adc_bits: [5]
  ps_types: [passive]
  snr_db: [0]
"""


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "config.yaml"
    path.write_text(TINY_YAML)
    return str(path)


@pytest.fixture
def two_sizes_path(tmp_path):
    # Two array sizes, so a sweep at --jobs 2 runs on the worker pool.
    path = tmp_path / "two_sizes.yaml"
    path.write_text(TINY_YAML.replace("array_sizes: [[4, 2]]", "array_sizes: [[4, 2], [4, 4]]"))
    return str(path)


def _run(*argv):
    return main(list(argv))


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


class TestExitCodes:
    def test_missing_config_file(self, tmp_path):
        assert _run("--config", str(tmp_path / "nope.yaml"), "power") == 1

    def test_directory_as_config_is_config_error(self, tmp_path, capsys):
        assert _run("--config", str(tmp_path), "--out", str(tmp_path / "out"), "power") == 1
        assert f"config error: {tmp_path}: [Errno" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    # Files that cannot be decoded or parsed, integer text that int() cannot
    # read, integers too large for a float key, and keys given twice: each
    # is a config error naming the path or the key.
    @pytest.mark.parametrize("data, named", [
        (b"\xffreceiver: {}\n", "bad.yaml: 'utf-8' codec can't decode"),
        (b"receiver: " + b"[" * 5000 + b"\n", "bad.yaml: maximum recursion depth"),
        (b'receiver:\n  users: "--5"\n', "'users'"),
        (b'receiver:\n  users: "+-3"\n', "'users'"),
        ('receiver:\n  users: "\u00b2"\n'.encode(), "'users'"),
        (b"receiver:\n  bandwidth_hz: 1" + b"0" * 400 + b"\n", "'bandwidth_hz'"),
        (b"catalog:\n  lo_power_mw: 1" + b"0" * 400 + b"\n", "'lo_power_mw'"),
        (b"receiver:\n  snr_db: 0\n  snr_db: 10\n", "line 3, column 3: key 'snr_db' given twice"),
        (b"sim: {trials: 1}\nsim: {trials: 2}\n", "line 2, column 1: key 'sim' given twice"),
        (b"receiver: {bandwidth_hz: !!binary NDAwZTY=}\n", "key 'bandwidth_hz' must be a number"),
    ], ids=["not-utf8", "nested-too-deep", "double-sign", "mixed-signs", "superscript-digit",
            "huge-bandwidth", "huge-lo-power", "duplicate-key", "duplicate-section", "binary-float"])
    def test_unreadable_or_malformed_config_is_config_error(self, tmp_path, capsys, data, named):
        path = tmp_path / "bad.yaml"
        path.write_bytes(data)
        out = tmp_path / "out"
        assert _run("--config", str(path), "--out", str(out), "power") == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and named in err and "Traceback" not in err
        assert not out.exists()

    def test_manifest_seed_overflow_is_runtime_error(self, tmp_path, capsys):
        # 10**30 trial seeds overflow the manifest's seed list at once.
        path = tmp_path / "big.yaml"
        path.write_text(f"sim: {{trials: {10 ** 30}}}\n")
        out = tmp_path / "out"
        assert _run("--config", str(path), "--out", str(out), "simulate") == 2
        assert (err := capsys.readouterr().err).startswith("runtime error: ")
        assert "Traceback" not in err and not out.exists()

    def test_failing_config_echo_is_runtime_error(self, tmp_path, capsys, monkeypatch):
        def fail(rc):
            raise RuntimeError("patched echo failure")
        monkeypatch.setattr(cli, "config_echo", fail)
        out = tmp_path / "out"
        assert _run("--out", str(out), "power") == 2
        assert capsys.readouterr().err == "runtime error: patched echo failure\n"
        assert not out.exists()

    def test_unknown_key_is_config_error(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text("receiver:\n  bandwith: 1e9\n")
        assert _run("--config", str(path), "power") == 1

    def test_carrier_frequency_is_unknown_key(self, tmp_path, capsys):
        # The baseband link model has no carrier frequency to set.
        path = tmp_path / "bad.yaml"
        path.write_text(TINY_YAML.replace("  seed: 3\n", "  seed: 3\n  carrier_hz: 140e9\n", 1))
        out = tmp_path / "out"
        for command in ("power", "simulate", "tradeoff"):
            assert _run("--config", str(path), "--out", str(out), command) == 1, command
            assert "unknown key 'carrier_hz' in channel" in capsys.readouterr().err, command
            assert not out.exists()

    def test_invalid_receiver_is_config_error(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text("receiver:\n  architecture: subarray\n  bs_rows: 5\n  bs_cols: 1\n  rf_chains: 2\n")
        assert _run("--config", str(path), "power") == 1

    def test_out_of_range_sim_parameter_is_config_error(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text(TINY_YAML.replace("symbols_per_trial: 50", "symbols_per_trial: 1"))
        assert _run("--config", str(path), "--out", str(tmp_path / "out"), "simulate") == 1

    def test_overflowing_receiver_snr_is_config_error(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text("receiver:\n  snr_db: 4000\n")
        assert _run("--config", str(path), "power") == 1

    def test_overflowing_sweep_snr_is_config_error(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text(TINY_YAML.replace("snr_db: [0]", "snr_db: [0, 4000]"))
        out = tmp_path / "out"
        assert _run("--config", str(path), "--out", str(out), "tradeoff") == 1
        assert not out.exists()

    def test_snr_at_the_domain_top_is_echoed(self, tmp_path):
        # 300 dB, the top of the SNR domain, runs and echoes as configured.
        path = tmp_path / "high.yaml"
        path.write_text(TINY_YAML.replace("  snr_db: 0\n", "  snr_db: 300\n", 1)
                        .replace("snr_db: [0]", "snr_db: [300]"))
        out = tmp_path / "out"
        assert _run("--config", str(path), "--out", str(out), "--format", "json", "tradeoff") == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["receiver"]["snr_db"] == 300.0
        points = json.loads((out / "tradeoff.json").read_text())["points"]
        assert [p["snr_db"] for p in points] == [300.0, 300.0]
        assert all(p["config_id"].endswith("_snr300dB") for p in points)

    @pytest.mark.parametrize("section, value", [
        ("receiver", "false"), ("catalog", '""'), ("channel", "0"), ("sim", "0"), ("sweep", "[]")])
    def test_falsy_section_is_config_error(self, tmp_path, capsys, section, value):
        # Only an absent or null section means defaults: `sweep: []` is not
        # the default sweep.
        path = tmp_path / "bad.yaml"
        path.write_text(f"{section}: {value}\n")
        out = tmp_path / "out"
        assert _run("--config", str(path), "--out", str(out), "power") == 1
        assert f"section '{section}' must be a mapping" in capsys.readouterr().err
        assert not out.exists()

    def test_overflowing_k_factor_is_config_error(self, tmp_path):
        # 10^(4000/10) overflows a float; only .inf (a pure line-of-sight
        # channel) may exceed about 3082 dB.
        path = tmp_path / "bad.yaml"
        path.write_text(TINY_YAML.replace("  seed: 3\n", "  seed: 3\n  k_factor_db: 4000\n", 1))
        out = tmp_path / "out"
        assert _run("--config", str(path), "--out", str(out), "simulate") == 1
        assert not out.exists()
        path.write_text(TINY_YAML.replace("  seed: 3\n", "  seed: 3\n  k_factor_db: .inf\n", 1))
        assert _run("--config", str(path), "--out", str(out), "simulate") == 0

    def test_out_of_range_catalog_field_is_config_error(self, tmp_path, capsys):
        path = tmp_path / "bad.yaml"
        path.write_text("catalog:\n  vga_unit_gain_db: 0\n")
        assert _run("--config", str(path), "--out", str(tmp_path / "out"), "power") == 1
        assert "config error" in (err := capsys.readouterr().err) and "vga_unit_gain_db" in err

    # Catalog values the power model cannot use: an overflowing dB ratio, a
    # VGA unit count that overflows, an ADC target power that underflows to
    # 0, an infinite loss, an infinite VGA unit gain (every VGA priced at 0
    # units) and an infinite LNA noise factor (the VGA sized from log10(0)).
    # The receiver is the sub-array, whose splitter tree has no stage.
    @pytest.mark.parametrize("key, value", [
        ("lna_gain_db", "4000"), ("vga_unit_gain_db", "1e-320"),
        ("adc_input_swing_v", "1e-200"), ("mixer_loss_db", "1e308"), ("splitter_il_db", ".inf"),
        ("vga_unit_gain_db", ".inf"), ("lna_noise_factor", ".inf")])
    def test_extreme_catalog_value_is_config_error(self, tmp_path, capsys, key, value):
        path = tmp_path / "bad.yaml"
        path.write_text(f"receiver:\n  architecture: subarray\ncatalog:\n  {key}: {value}\n")
        out = tmp_path / "out"
        assert _run("--config", str(path), "--out", str(out), "power") == 1
        assert "config error" in (err := capsys.readouterr().err) and key in err
        assert not out.exists()

    # Values that would overflow a power group, its unit power in mW, or the
    # receiver total lie outside their domains: the error names the first
    # such key.
    @pytest.mark.parametrize("text, key", [
        ("catalog:\n  lo_power_mw: 1e308\n", "lo_power_mw"),
        ("catalog:\n  vga_unit_power_mw: 1e306\n", "vga_unit_power_mw"),
        ("catalog:\n  dsp_fom_ops_per_w: 1e-320\n", "dsp_fom_ops_per_w"),
        ("catalog:\n  adc_fom_j_per_step_hz: .inf\n", "adc_fom_j_per_step_hz"),
        ("receiver:\n  bandwidth_hz: 1e308\n", "bandwidth_hz"),
        # 512 ADCs at 2.5e305 W each: finite in watts, not in mW.
        (f"catalog:\n  adc_fom_j_per_step_hz: {2.5e305 / (800e6 * 2 ** 6)!r}\n", "adc_fom_j_per_step_hz"),
        # 2048 ADCs near the largest float in watts plus 1e305 W of LOs:
        # every group is finite, their sum is not.
        ("receiver:\n  bs_rows: 64\n  bs_cols: 32\ncatalog:\n"
         f"  adc_fom_j_per_step_hz: {1.7976e308 / 2048 / (800e6 * 2 ** 6)!r}\n"
         f"  lo_power_mw: {1e305 * 1e3 / 2048!r}\n", "lo_power_mw"),
    ], ids=["lo", "vga", "dsp-fom", "adc-fom", "bandwidth", "adc-unit-mw", "total"])
    def test_nonfinite_power_is_config_error(self, tmp_path, capsys, text, key):
        path = tmp_path / "bad.yaml"
        path.write_text(text)
        out = tmp_path / "out"
        assert _run("--config", str(path), "--out", str(out), "power") == 1
        assert f"{key} must lie in [" in capsys.readouterr().err
        assert not out.exists()

    # An ADC of 2000 bits (2^2001 is no float), in the receiver and in a
    # sweep, and an angle spread or SINR floor too large to mean anything
    # (every diffuse ray on the angle limits; every SE 0) are outside their
    # domains: no command runs, none writes.
    @pytest.mark.parametrize("old, new, command, key", [
        ("  snr_db: 0\n", "  snr_db: 0\n  adc_bits: 2000\n", ["power"], "adc_bits"),
        ("adc_bits: [5]", "adc_bits: [5, 2000]", ["tradeoff"], "adc_bits"),
        ("  seed: 3\n", "  seed: 3\n  angle_spread_deg: .inf\n", ["channel", "gen"], "angle_spread_deg"),
        ("  seed: 3\n", "  seed: 3\n  angle_spread_deg: 1e308\n", ["channel", "gen"],
         "angle_spread_deg"),
        ("  seed: 1\n", "  seed: 1\n  sinr_floor: .inf\n", ["simulate"], "sinr_floor"),
    ], ids=["receiver-adc-bits", "sweep-adc-bits", "angle-spread", "huge-angle-spread", "sinr-floor"])
    def test_value_outside_its_domain_is_config_error(self, tmp_path, capsys, old, new, command, key):
        path = tmp_path / "bad.yaml"
        path.write_text(TINY_YAML.replace(old, new, 1))
        out = tmp_path / "out"
        assert _run("--config", str(path), "--out", str(out), *command) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and f"{key} must lie in [" in err
        assert "Traceback" not in err and not out.exists()

    # Infinite receiver and channel values that the power model or the
    # link simulation cannot use, rejected by every command.
    @pytest.mark.parametrize("old, new, key", [
        ("  snr_db: 0\n", "  snr_db: .inf\n", "snr_db"),
        ("snr_db: [0]", "snr_db: [0, .inf]", "snr_db"),
        ("  subcarriers: 3\n", "  subcarriers: 3\n  bandwidth_hz: .inf\n", "bandwidth_hz"),
        ("  subcarriers: 3\n", "  subcarriers: 3\n  temperature_k: .inf\n", "temperature_k"),
        ("  subcarriers: 3\n", "  subcarriers: 3\n  element_spacing_wavelengths: .inf\n",
         "element_spacing_wavelengths"),
        ("  seed: 3\n", "  seed: 3\n  delay_spread_s: .inf\n", "delay_spread_s"),
    ], ids=["receiver-snr", "sweep-snr", "bandwidth", "temperature", "spacing", "delay-spread"])
    def test_infinite_value_is_config_error(self, tmp_path, capsys, old, new, key):
        path = tmp_path / "bad.yaml"
        path.write_text(TINY_YAML.replace(old, new, 1))
        out = tmp_path / "out"
        for command in ("power", "simulate", "tradeoff"):
            assert _run("--config", str(path), "--out", str(out), command) == 1, command
            assert key in capsys.readouterr().err, command
            assert not out.exists()

    # numpy's SeedSequence and default_rng refuse negative seeds.
    @pytest.mark.parametrize("argv, replace, key", [
        (["--seed", "-1", "simulate"], None, "--seed"),
        (["--seed", "-1", "tradeoff"], None, "--seed"),
        (["--seed", "-1", "channel", "gen"], None, "--seed"),
        (["simulate"], ("  seed: 1\n", "  seed: -1\n"), "sim: seed"),
        (["channel", "gen"], ("  seed: 3\n", "  seed: -1\n"), "channel: seed"),
    ], ids=["flag-simulate", "flag-tradeoff", "flag-channel-gen", "sim-seed", "channel-seed"])
    def test_negative_seed_is_config_error(self, tmp_path, capsys, argv, replace, key):
        path = tmp_path / "bad.yaml"
        path.write_text(TINY_YAML.replace(*replace) if replace else TINY_YAML)
        out = tmp_path / "out"
        assert _run("--config", str(path), "--out", str(out), *argv) == 1
        assert f"config error: {key}" in capsys.readouterr().err
        assert not out.exists()

    def test_sweep_adc_bits_below_one_is_config_error(self, tmp_path, capsys):
        path = tmp_path / "bad.yaml"
        path.write_text(TINY_YAML.replace("adc_bits: [5]", "adc_bits: [0, 5]"))
        out = tmp_path / "out"
        assert _run("--config", str(path), "--out", str(out), "tradeoff") == 1
        assert "config error: sweep" in (err := capsys.readouterr().err) and "adc_bits" in err
        assert not out.exists()

    def test_minus_infinite_receiver_snr_cannot_be_simulated(self, tmp_path, capsys):
        # A zero linear SNR sizes the power model but carries no signal.
        path = tmp_path / "bad.yaml"
        path.write_text(TINY_YAML.replace("  snr_db: 0\n", "  snr_db: -.inf\n", 1))
        out = tmp_path / "out"
        assert _run("--config", str(path), "--out", str(out), "simulate") == 1
        assert "config error" in (err := capsys.readouterr().err) and "snr_db" in err
        assert not out.exists()
        assert _run("--config", str(path), "--out", str(out), "power") == 0

    def test_minus_infinite_sweep_snr_cannot_be_simulated(self, tmp_path, capsys):
        path = tmp_path / "bad.yaml"
        path.write_text(TINY_YAML.replace("snr_db: [0]", "snr_db: [0, -.inf]"))
        out = tmp_path / "out"
        assert _run("--config", str(path), "--out", str(out), "tradeoff") == 1
        assert "config error" in (err := capsys.readouterr().err) and "snr_db" in err
        assert not out.exists()
        assert _run("--config", str(path), "--out", str(out), "power") == 0

    # SNRs whose MMSE regularizer U/snr would overflow (U = 2 here: from
    # -3079.54 dB down), and one just below the domain's -300 dB, are
    # outside the SNR domain: `power` refuses them too, before anything is
    # written.
    @pytest.mark.parametrize("old, new, command, section", [
        ("  snr_db: 0\n", "  snr_db: -3100\n", "simulate", ""),
        ("  snr_db: 0\n", "  snr_db: -300.00000000000006\n", "simulate", ""),
        ("snr_db: [0]", "snr_db: [0, -3100]", "tradeoff", "sweep: "),
    ], ids=["receiver", "receiver-near-bound", "sweep"])
    def test_snr_the_link_cannot_simulate_is_config_error(self, tmp_path, capsys, old, new, command,
                                                          section):
        path = tmp_path / "bad.yaml"
        path.write_text(TINY_YAML.replace(old, new, 1))
        out = tmp_path / "out"
        for run in (command, "power"):
            assert _run("--config", str(path), "--out", str(out), run) == 1, run
            err = capsys.readouterr().err
            assert f"config error: {section}snr_db must lie in [-300, 300] dB or -inf, got -3" in err, run
            assert not out.exists()

    # Finite values whose phases overflow a float: a delay spread whose drawn
    # delays could overflow on the subcarrier grid, and an element spacing
    # whose steering phases overflow. Every command refuses them.
    @pytest.mark.parametrize("old, new, key", [
        ("  seed: 3\n", "  seed: 3\n  delay_spread_s: 1e300\n", "delay_spread_s"),
        ("  subcarriers: 3\n", "  subcarriers: 3\n  element_spacing_wavelengths: 1e308\n",
         "element_spacing_wavelengths"),
    ], ids=["delay-spread", "spacing"])
    def test_value_whose_phases_overflow_is_config_error(self, tmp_path, capsys, old, new, key):
        path = tmp_path / "bad.yaml"
        path.write_text(TINY_YAML.replace(old, new, 1))
        out = tmp_path / "out"
        for command in (["power"], ["simulate"], ["tradeoff"], ["channel", "gen"]):
            assert _run("--config", str(path), "--out", str(out), *command) == 1, command
            assert key in capsys.readouterr().err, command
            assert not out.exists()

    def test_sweep_size_whose_steering_phases_overflow_is_config_error(self, tmp_path, capsys):
        # A spacing whose steering phases would overflow on a 64x64 point
        # is outside its domain for every command; a sweep size beyond the
        # row domain stops the sweep before any work.
        path = tmp_path / "bad.yaml"
        path.write_text(TINY_YAML.replace("  subcarriers: 3\n",
                                          "  subcarriers: 3\n  element_spacing_wavelengths: 3e306\n")
                        .replace("array_sizes: [[4, 2]]", "array_sizes: [[4, 2], [64, 64]]"))
        out = tmp_path / "out"
        for command in ("tradeoff", "power"):
            assert _run("--config", str(path), "--out", str(out), command) == 1
            assert "element_spacing_wavelengths must lie in [0.01, 100]" in capsys.readouterr().err
            assert not out.exists()
        path.write_text(TINY_YAML.replace("array_sizes: [[4, 2]]", "array_sizes: [[4, 2], [4097, 1]]"))
        assert _run("--config", str(path), "--out", str(out), "tradeoff") == 1
        assert "rows must lie in [1, 4096], got 4097" in capsys.readouterr().err
        assert not out.exists()

    def test_noise_floor_underflow_is_a_power_fault(self, tmp_path, capsys):
        # A temperature whose k T B underflows to 0 W lies outside its
        # domain: `power` and a sweep both stop at the config (exit 1).
        path = tmp_path / "bad.yaml"
        path.write_text(TINY_YAML.replace("  subcarriers: 3\n", "  subcarriers: 3\n  temperature_k: 1e-320\n"))
        out = tmp_path / "out"
        for command in ("power", "tradeoff"):
            assert _run("--config", str(path), "--out", str(out), command) == 1
            assert "config error: temperature_k must lie in" in capsys.readouterr().err
            assert not out.exists()

    def test_missing_channel_dump_is_runtime_error(self, config_path, tmp_path):
        assert _run("--config", config_path, "channel", "import",
                    "--in", str(tmp_path / "missing.bin")) == 2


class TestPowerCommand:
    def test_writes_csv_and_manifest(self, config_path, tmp_path, capsys):
        out = str(tmp_path / "out")
        assert _run("--config", config_path, "--out", out, "power") == 0
        assert os.path.exists(os.path.join(out, "power.csv"))
        manifest = json.loads(Path(out, "manifest.json").read_text())
        assert manifest["command"] == "power"
        assert manifest["outputs"][0]["path"].endswith("power.csv")
        assert manifest["config"]["receiver"]["architecture"] == "subarray"
        assert "total receiver power" in capsys.readouterr().out

    def test_zero_snr_manifest_is_strict_json(self, tmp_path):
        path = tmp_path / "config.yaml"
        path.write_text(TINY_YAML.replace("snr_db: 0\n", "snr_db: -.inf\n", 1)
                        .replace("channel:\n", "channel:\n  k_factor_db: .inf\n"))
        out = str(tmp_path / "out")
        assert _run("--config", str(path), "--out", out, "--format", "json", "power") == 0

        def strict_load(name):
            with open(os.path.join(out, name)) as fh:
                return json.load(fh, parse_constant=_reject_constant)

        assert strict_load("power.json")["breakdown"]
        config = strict_load("manifest.json")["config"]
        assert config["receiver"]["snr_db"] == "-inf"
        assert config["channel"]["k_factor_db"] == "inf"


class TestSimulateCommand:
    def test_runs_and_reports(self, config_path, tmp_path, capsys):
        out = str(tmp_path / "out")
        assert _run("--config", config_path, "--out", out, "--format", "json", "simulate") == 0
        payload = json.loads(Path(out, "simulation.json").read_text())
        assert len(payload["trials"]) == 2
        manifest = json.loads(Path(out, "manifest.json").read_text())
        assert manifest["seeds"] == [1, 2]
        assert "mean SE" in capsys.readouterr().out

    def test_seed_flag_overrides_config(self, config_path, tmp_path):
        out1 = str(tmp_path / "a")
        out2 = str(tmp_path / "b")
        assert _run("--config", config_path, "--out", out1, "--seed", "9", "simulate") == 0
        assert _run("--config", config_path, "--out", out2, "--seed", "9", "simulate") == 0
        a = Path(out1, "simulation.csv").read_text()
        b = Path(out2, "simulation.csv").read_text()
        assert a == b
        manifest = json.loads(Path(out1, "manifest.json").read_text())
        assert manifest["seeds"] == [9, 10]


class TestTradeoffCommand:
    def test_emits_points_and_companion(self, config_path, tmp_path):
        out = str(tmp_path / "out")
        assert _run("--config", config_path, "--out", out, "tradeoff") == 0
        lines = Path(out, "tradeoff.csv").read_text().strip().split("\n")
        assert len(lines) == 1 + 2  # header + two architectures at one size
        companion = json.loads(Path(out, "tradeoff_config.json").read_text())
        assert companion["config"]["receiver"]["subcarriers"] == 3
        manifest = json.loads(Path(out, "manifest.json").read_text())
        emitted = {entry["path"] for entry in manifest["outputs"]}
        assert os.path.join(out, "tradeoff.csv") in emitted
        assert os.path.join(out, "tradeoff_config.json") in emitted

    @pytest.mark.parametrize("jobs", ["1", "2", "0", "-2"], ids=["jobs1", "jobs2", "jobs0", "jobs-2"])
    def test_reruns_are_byte_identical(self, two_sizes_path, tmp_path, jobs):
        # A serial run and a rerun at `jobs` workers write the same bytes.
        out1, out2 = str(tmp_path / "r1"), str(tmp_path / "r2")
        assert _run("--config", two_sizes_path, "--out", out1, "tradeoff") == 0
        assert _run("--config", two_sizes_path, "--jobs", jobs, "--out", out2, "tradeoff") == 0
        for name in ("tradeoff.csv", "tradeoff_config.json"):
            assert Path(out1, name).read_bytes() == Path(out2, name).read_bytes(), name

    def test_echo_reruns_to_the_same_table(self, two_sizes_path, tmp_path):
        # The `config` of tradeoff_config.json, written to a file (JSON is
        # YAML), reproduces a pooled sweep's table byte for byte.
        out, echo_out, echo = tmp_path / "out", tmp_path / "echo", tmp_path / "echo.yaml"
        assert _run("--config", two_sizes_path, "--jobs", "2", "--out", str(out), "tradeoff") == 0
        echo.write_text(json.dumps(json.loads((out / "tradeoff_config.json").read_text())["config"]))
        assert _run("--config", str(echo), "--jobs", "2", "--out", str(echo_out), "tradeoff") == 0
        assert (out / "tradeoff.csv").read_bytes() == (echo_out / "tradeoff.csv").read_bytes()

    def test_minus_zero_snr_reads_zero(self, tmp_path):
        # -0.0 dB is the 0 dB configuration, in the CSV, in every id and, as
        # receiver.snr_db, in the echo.
        path = tmp_path / "zero.yaml"
        path.write_text(TINY_YAML.replace("snr_db: [0]", "snr_db: [-0.0]")
                        .replace("  snr_db: 0\n", "  snr_db: -0.0\n", 1))
        for fmt in ("csv", "json"):
            assert _run("--config", str(path), "--out", str(tmp_path / fmt), "--format", fmt,
                        "tradeoff") == 0
        rows = (tmp_path / "csv" / "tradeoff.csv").read_text().splitlines()[1:]
        assert [row.split(",")[7] for row in rows] == ["0.0", "0.0"]
        points = json.loads((tmp_path / "json" / "tradeoff.json").read_text())["points"]
        assert [p["config_id"].rsplit("_", 1)[1] for p in points] == ["snr0dB", "snr0dB"]
        echo = json.loads((tmp_path / "csv" / "tradeoff_config.json").read_text())["config"]
        assert math.copysign(1.0, echo["receiver"]["snr_db"]) == 1.0

    def test_point_failures_yield_nonzero_exit_but_partial_results(self, config_path, tmp_path,
                                                                     monkeypatch):
        # A sub-array combiner design that raises fails the sub-array point;
        # the sweep still emits the surviving points.
        design = simulation.design_analog_combiner

        def failing_for_subarray(channel, cfg):
            if cfg.architecture.value == "subarray":
                raise RuntimeError("patched combiner failure")
            return design(channel, cfg)

        monkeypatch.setattr(simulation, "design_analog_combiner", failing_for_subarray)
        out = str(tmp_path / "out")
        assert _run("--config", config_path, "--out", out, "tradeoff") == 2
        lines = Path(out, "tradeoff.csv").read_text().strip().split("\n")
        assert len(lines) > 1  # header plus surviving points

    def test_impossible_point_is_config_error(self, tmp_path, capsys):
        # A sub-array of 3x1 antennas on 2 chains is no receiver: the sweep
        # stops before any work and writes nothing.
        path = tmp_path / "impossible.yaml"
        path.write_text(TINY_YAML.replace("array_sizes: [[4, 2]]",
                                          "array_sizes: [[4, 2], [3, 1]]"))
        out = tmp_path / "out"
        assert _run("--config", str(path), "--out", str(out), "tradeoff") == 1
        assert ("config error: N_BS not divisible by N_RF (N_BS=3, N_RF=2)"
                in capsys.readouterr().err)
        assert not out.exists()


class TestChannelCommands:
    def test_gen_then_import(self, config_path, tmp_path, capsys):
        out = tmp_path / "out"
        assert _run("--config", config_path, "--out", str(out), "channel", "gen") == 0
        dump = str(out / "channel.bin")
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "channel gen" and manifest["seeds"] == [3]
        assert manifest["outputs"] == [{"path": dump, "format": "subthz-chan-v2"}]
        assert Path(dump).read_bytes().startswith(b"SUBTHZ-CHAN v2 U=2 P=13\n")
        assert _run("--config", config_path, "channel", "import", "--in", dump) == 0
        assert capsys.readouterr().out.endswith("valid channel dump: U=2, P=13\n")

    def test_gen_is_deterministic_in_the_seed(self, config_path, tmp_path):
        # --seed N --out DIR channel gen: the top-level --seed sets channel.seed.
        dumps = {}
        for name, seed in (("a", "11"), ("b", "11"), ("c", "12")):
            out = str(tmp_path / name)
            assert _run("--config", config_path, "--seed", seed, "--out", out, "channel", "gen") == 0
            dumps[name] = Path(out, "channel.bin").read_bytes()
        assert dumps["a"] == dumps["b"]
        assert dumps["a"] != dumps["c"]
        assert _run("--config", config_path, "channel", "import",
                    "--in", str(tmp_path / "a" / "channel.bin")) == 0

    @pytest.mark.parametrize("flag", ["--seed", "--out"])
    def test_gen_takes_no_flags_of_its_own(self, config_path, tmp_path, capsys, flag):
        with pytest.raises(SystemExit) as exit_info:
            _run("--config", config_path, "channel", "gen", flag, str(tmp_path / "x"))
        assert exit_info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_import_rejects_mismatched_dump(self, config_path, tmp_path, capsys):
        # The dump fixes the user count; arrays and subcarriers are free.
        out = tmp_path / "out"
        assert _run("--config", config_path, "--out", str(out), "channel", "gen") == 0
        other = tmp_path / "other.yaml"
        other.write_text(TINY_YAML.replace("subcarriers: 3", "subcarriers: 4")
                         .replace("bs_cols: 2", "bs_cols: 4"))
        assert _run("--config", str(other), "channel", "import", "--in", str(out / "channel.bin")) == 0
        other.write_text(TINY_YAML.replace("users: 2", "users: 1"))
        capsys.readouterr()
        assert _run("--config", str(other), "channel", "import", "--in", str(out / "channel.bin")) == 2
        assert capsys.readouterr().err == "runtime error: dump has U=2, config expects U=1\n"

    def test_import_rejects_v1_dump(self, config_path, tmp_path, capsys):
        dump = tmp_path / "channel.bin"
        dump.write_bytes(b"SUBTHZ-CHAN v1 K=3 NRX=8 NTX=4 U=2\n" + bytes(16 * 3 * 8 * 4))
        assert _run("--config", config_path, "channel", "import", "--in", str(dump)) == 2
        err = capsys.readouterr().err
        assert err.startswith("runtime error: dump format 'v1' is not read") and "Traceback" not in err

    def test_gen_and_power_share_the_default_out(self, config_path, tmp_path, monkeypatch):
        # One output directory for every command: a dump and a power table
        # written to the default --out in either order do not collide.
        monkeypatch.chdir(tmp_path)
        for command in (["channel", "gen"], ["power"], ["channel", "gen"]):
            assert _run("--config", config_path, *command) == 0, command
        assert sorted(os.listdir("out")) == ["channel.bin", "manifest.json", "power.csv"]


class TestManifestReproducibility:
    def test_manifest_config_echo_reproduces_run(self, config_path, tmp_path):
        from subthzrx import run_monte_carlo
        los_path = tmp_path / "los.yaml"
        los_path.write_text(TINY_YAML.replace("channel:\n", "channel:\n  k_factor_db: .inf\n"))
        for name, path in (("out", config_path), ("los", str(los_path))):
            out = str(tmp_path / name)
            assert _run("--config", path, "--out", out, "simulate") == 0
            manifest = json.loads(Path(out, "manifest.json").read_text())
            rc = resolve_config(manifest["config"])
            assert rc == parse_config(path)
            mc = run_monte_carlo(rc.receiver, rc.sim, rc.channel)
            lines = Path(out, "simulation.csv").read_text().strip().split("\n")
            summary = lines[-1].split(",")
            assert float(summary[2]) == mc.mean_se_bits_hz

        # An SNR of -inf dB cannot be simulated; its power run's echo reads back.
        silent_path = tmp_path / "silent.yaml"
        silent_path.write_text(los_path.read_text().replace("snr_db: 0\n", "snr_db: -.inf\n", 1))
        out = str(tmp_path / "silent")
        assert _run("--config", str(silent_path), "--out", out, "power") == 0
        rc = resolve_config(json.loads(Path(out, "manifest.json").read_text())["config"])
        assert rc == parse_config(str(silent_path))
        assert rc.receiver.per_antenna_snr == 0 and rc.channel.k_factor_db == math.inf


class TestManifestFacts:
    def test_started_before_the_work_and_seeds_are_the_trial_seeds(self, config_path, tmp_path,
                                                                    monkeypatch):
        # A counting clock and a recording trial put every clock read and
        # every trial of a tradeoff run on one timeline.
        events, trial_seeds = [], []

        def clock():
            events.append("clock")
            return f"t{len(events)}"

        def trial(receivers, params, chan_params, seed):
            events.append("trial")
            trial_seeds.append(seed)
            return shared_trial(receivers, params, chan_params, seed)

        shared_trial = simulation._shared_trial
        monkeypatch.setattr(cli, "_now", clock)
        monkeypatch.setattr(simulation, "_shared_trial", trial)
        out = str(tmp_path / "out")
        assert _run("--config", config_path, "--out", out, "tradeoff") == 0
        manifest = json.loads(Path(out, "manifest.json").read_text())
        assert events == ["clock", "trial", "trial", "clock"]
        assert (manifest["started"], manifest["finished"]) == ("t1", "t4")
        assert manifest["seeds"] == trial_seeds == [1, 2]

    @pytest.mark.parametrize("command, fmt", [
        (["power"], "csv"), (["power"], "json"), (["simulate"], "json"), (["tradeoff"], "csv"),
        (["tradeoff"], "json"), (["channel", "gen"], "csv"),
    ], ids=["power", "power-json", "simulate", "tradeoff-csv", "tradeoff-json", "channel-gen"])
    def test_outputs_are_the_files_written(self, tmp_path, command, fmt):
        # The manifest lists every other file of the run, and every JSON
        # file, the manifest included, is strict JSON: the line-of-sight
        # channel's infinite K-factor is echoed, but never as Infinity.
        los, out = tmp_path / "los.yaml", tmp_path / "out"
        los.write_text(TINY_YAML.replace("channel:\n", "channel:\n  k_factor_db: .inf\n"))
        assert _run("--config", str(los), "--out", str(out), "--format", fmt, *command) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        listed = sorted(entry["path"] for entry in manifest["outputs"])
        assert listed == sorted(str(path) for path in out.iterdir() if path.name != "manifest.json")
        for path in out.glob("*.json"):
            json.loads(path.read_text(), parse_constant=_reject_constant)
