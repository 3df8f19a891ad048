import json
import math
import os
from pathlib import Path

import pytest

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


def _run(*argv):
    return main(list(argv))


class TestExitCodes:
    def test_missing_config_file(self, tmp_path):
        assert _run("--config", str(tmp_path / "nope.yaml"), "power") == 1

    def test_unknown_key_is_config_error(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text("receiver:\n  bandwith: 1e9\n")
        assert _run("--config", str(path), "power") == 1

    def test_invalid_receiver_is_config_error(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text("receiver:\n  architecture: subarray\n  bs_rows: 5\n  bs_cols: 1\n  rf_chains: 2\n")
        assert _run("--config", str(path), "power") == 1

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

        def reject(name):
            raise ValueError(f"non-standard JSON constant {name}")

        def strict_load(name):
            with open(os.path.join(out, name)) as fh:
                return json.load(fh, parse_constant=reject)

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

    def test_reruns_are_byte_identical(self, config_path, tmp_path):
        out1, out2 = str(tmp_path / "r1"), str(tmp_path / "r2")
        assert _run("--config", config_path, "--out", out1, "tradeoff") == 0
        assert _run("--config", config_path, "--out", out2, "tradeoff") == 0
        a = Path(out1, "tradeoff.csv").read_bytes()
        b = Path(out2, "tradeoff.csv").read_bytes()
        assert a == b

    def test_point_failures_yield_nonzero_exit_but_partial_results(self, tmp_path):
        # 4x3 antennas with 2 chains breaks the sub-array divisibility rule;
        # the sweep still emits the surviving points.
        path = tmp_path / "partial.yaml"
        path.write_text(TINY_YAML.replace("array_sizes: [[4, 2]]",
                                          "array_sizes: [[4, 2], [3, 1]]"))
        out = str(tmp_path / "out")
        assert _run("--config", str(path), "--out", out, "tradeoff") == 2
        lines = Path(out, "tradeoff.csv").read_text().strip().split("\n")
        assert len(lines) > 1  # header plus surviving points


class TestChannelCommands:
    def test_gen_then_import(self, config_path, tmp_path, capsys):
        dump = str(tmp_path / "chan.bin")
        assert _run("--config", config_path, "--out", dump, "channel", "gen") == 0
        assert os.path.exists(dump)
        assert os.path.exists(dump + ".manifest.json")
        assert _run("--config", config_path, "channel", "import", "--in", dump) == 0
        assert "valid channel dump" in capsys.readouterr().out

    def test_gen_accepts_subcommand_flags(self, config_path, tmp_path):
        # channel gen --seed N --out FILE (flags after the subcommand)
        a = str(tmp_path / "a.bin")
        b = str(tmp_path / "b.bin")
        c = str(tmp_path / "c.bin")
        assert _run("--config", config_path, "channel", "gen", "--seed", "11", "--out", a) == 0
        assert _run("--config", config_path, "channel", "gen", "--seed", "11", "--out", b) == 0
        assert _run("--config", config_path, "channel", "gen", "--seed", "12", "--out", c) == 0
        assert Path(a).read_bytes() == Path(b).read_bytes()
        assert Path(a).read_bytes() != Path(c).read_bytes()

    def test_import_rejects_mismatched_dump(self, config_path, tmp_path):
        dump = str(tmp_path / "chan.bin")
        assert _run("--config", config_path, "--out", dump, "channel", "gen") == 0
        other = tmp_path / "other.yaml"
        other.write_text(TINY_YAML.replace("subcarriers: 3", "subcarriers: 4"))
        assert _run("--config", str(other), "channel", "import", "--in", dump) == 2


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
