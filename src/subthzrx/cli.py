"""Command-line front end.

Subcommands: ``power`` (component power breakdown), ``simulate`` (Monte Carlo
spectral efficiency), ``tradeoff`` (EE-vs-SE sweep), ``channel gen`` /
``channel import`` (channel dump generation and validation). All read the
same YAML configuration file; every run writes a manifest referencing the
files it emitted.

Exit codes: 0 success, 1 configuration error, 2 runtime error.
"""

from __future__ import annotations

import argparse
import dataclasses
import datetime
import os
import sys

from . import __version__
from .channel import generate_channel, load_channel, save_channel
from .config import ConfigError, validate_config
from .fileio import (RunConfig, RunManifest, config_echo, emit_results, parse_config,
                     write_json_file, write_manifest)
from .power import power_report
from .simulation import run_monte_carlo
from .tradeoff import run_sweep


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="subthzrx",
        description="Energy/spectral-efficiency tradeoff tool for sub-THz MU-MIMO receivers")
    parser.add_argument("--config", metavar="PATH", help="YAML configuration file (defaults apply if omitted)")
    parser.add_argument("--out", metavar="DIR", default="out",
                        help="output directory (a file path for 'channel gen')")
    parser.add_argument("--seed", type=int, help="override the simulation and channel seeds")
    parser.add_argument("--jobs", type=int, default=1, help="parallel workers for sweeps")
    parser.add_argument("--format", choices=("csv", "json"), default="csv", dest="fmt",
                        help="result file format")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")

    commands = parser.add_subparsers(dest="command", required=True)
    commands.add_parser("power", help="emit the component power breakdown")
    commands.add_parser("simulate", help="run the Monte Carlo link simulation")
    commands.add_parser("tradeoff", help="run the EE-vs-SE sweep")

    channel = commands.add_parser("channel", help="channel dump utilities")
    channel_cmds = channel.add_subparsers(dest="channel_command", required=True)
    generator = channel_cmds.add_parser("gen", help="generate a channel dump (--out names the file)")
    generator.add_argument("--seed", type=int, dest="gen_seed", metavar="N",
                           help="channel seed (overrides --seed and the config)")
    generator.add_argument("--out", dest="gen_out", metavar="PATH", help="dump file to write")
    importer = channel_cmds.add_parser("import", help="validate a channel dump against the config")
    importer.add_argument("--in", dest="infile", required=True, metavar="PATH", help="channel dump to read")
    return parser


def _load_run_config(args) -> RunConfig:
    if args.config:
        rc = parse_config(args.config)
    else:
        rc = RunConfig()
    if args.seed is not None:
        rc = dataclasses.replace(
            rc,
            sim=dataclasses.replace(rc.sim, seed=args.seed),
            channel=dataclasses.replace(rc.channel, seed=args.seed),
        )
        rc = dataclasses.replace(rc, sweep=dataclasses.replace(rc.sweep, sim=rc.sim))
    return rc


def _now() -> str:
    return datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds")


def _new_manifest(command: str, rc: RunConfig, seeds: list[int]) -> RunManifest:
    return RunManifest(tool_version=__version__, command=command, config=config_echo(rc),
                       seeds=seeds, started=_now())


def _finish(manifest: RunManifest, out_dir: str) -> None:
    manifest.finished = _now()
    write_manifest(manifest, os.path.join(out_dir, "manifest.json"))


def _cmd_power(args, rc: RunConfig) -> int:
    validate_config(rc.receiver)
    report = power_report(rc.receiver, rc.catalog)
    os.makedirs(args.out, exist_ok=True)
    manifest = _new_manifest("power", rc, seeds=[])
    path = os.path.join(args.out, f"power.{args.fmt}")
    manifest.outputs.append(emit_results(report, args.fmt, path))
    _finish(manifest, args.out)
    print(f"total receiver power: {report.breakdown.total_w:.6g} W ({path})")
    return 0


def _cmd_simulate(args, rc: RunConfig) -> int:
    validate_config(rc.receiver)
    result = run_monte_carlo(rc.receiver, rc.sim, rc.channel)
    os.makedirs(args.out, exist_ok=True)
    seeds = [rc.sim.seed + i for i in range(rc.sim.trials)]
    manifest = _new_manifest("simulate", rc, seeds=seeds)
    path = os.path.join(args.out, f"simulation.{args.fmt}")
    manifest.outputs.append(emit_results(result, args.fmt, path))
    _finish(manifest, args.out)
    print(f"mean SE: {result.mean_se_bits_hz:.4f} bits/s/Hz "
          f"(std {result.std_se_bits_hz:.4f}, {rc.sim.trials} trials) ({path})")
    return 0


def _cmd_tradeoff(args, rc: RunConfig) -> int:
    result = run_sweep(rc.sweep, base=rc.receiver, catalog=rc.catalog,
                       chan_params=rc.channel, jobs=max(1, args.jobs))
    os.makedirs(args.out, exist_ok=True)
    manifest = _new_manifest("tradeoff", rc, seeds=[rc.sim.seed])
    path = os.path.join(args.out, f"tradeoff.{args.fmt}")
    manifest.outputs.append(emit_results(result, args.fmt, path))
    companion = os.path.join(args.out, "tradeoff_config.json")
    write_json_file(companion, {"config": config_echo(rc)})
    manifest.outputs.append({"path": companion, "format": "json"})
    _finish(manifest, args.out)
    print(f"{len(result.points)} points, {len(result.failures)} failures ({path})")
    for failure in result.failures:
        print(f"  failed: {failure.config_id}: {failure.error}", file=sys.stderr)
    return 0 if not result.failures else 2


def _cmd_channel(args, rc: RunConfig) -> int:
    validate_config(rc.receiver)
    if args.channel_command == "gen":
        out = args.gen_out or args.out
        realization = generate_channel(rc.receiver, rc.channel)
        out_dir = os.path.dirname(os.path.abspath(out))
        os.makedirs(out_dir, exist_ok=True)
        save_channel(realization, out)
        manifest = _new_manifest("channel gen", rc, seeds=[rc.channel.seed])
        manifest.outputs.append({"path": out, "format": "subthz-chan-v1"})
        manifest.finished = _now()
        write_manifest(manifest, out + ".manifest.json")
        print(f"wrote channel dump {out} "
              f"(K={realization.subcarriers}, NRX={realization.n_rx}, U={realization.n_users})")
        return 0
    realization = load_channel(args.infile, rc.receiver)
    print(f"valid channel dump: K={realization.subcarriers}, NRX={realization.n_rx}, "
          f"NTX={realization.n_users * realization.n_tx_per_user}, U={realization.n_users}")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "gen_seed", None) is not None:
        args.seed = args.gen_seed
    try:
        rc = _load_run_config(args)
    except (ConfigError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    handlers = {
        "power": _cmd_power,
        "simulate": _cmd_simulate,
        "tradeoff": _cmd_tradeoff,
        "channel": _cmd_channel,
    }
    try:
        return handlers[args.command](args, rc)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
