"""Command-line front end.

Subcommands: ``power`` (component power breakdown), ``simulate`` (Monte Carlo
spectral efficiency), ``tradeoff`` (EE-vs-SE sweep), ``channel gen`` /
``channel import`` (channel dump generation and validation). All read the
same YAML configuration file. ``--out`` is the output directory of every
command. ``main`` opens each run's manifest before the command runs and
writes it to ``<out>/manifest.json`` after, listing every file the command
emitted; the commands only compute, emit and print.

Exit codes: 0 success; 1 configuration error, such as a config file that
cannot be read, decoded or parsed, or that gives a key twice; 2 any other
failure, the manifest build included, or a command-line usage error.
"""

from __future__ import annotations

import argparse
import dataclasses
import datetime
import functools
import os
import sys

from . import __version__
from .channel import PathChannel, generate_channel, load_channel, save_channel
from .config import ConfigError
from .fileio import (RunConfig, RunManifest, config_echo, emit_results, parse_config,
                     resolve_config, write_json_file)
from .power import power_report
from .simulation import run_monte_carlo
from .tradeoff import run_sweep


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="subthzrx",
        description="Energy/spectral-efficiency tradeoff tool for sub-THz MU-MIMO receivers")
    parser.add_argument("--config", metavar="PATH", help="YAML configuration file (defaults apply if omitted)")
    parser.add_argument("--out", metavar="DIR", default="out", help="output directory")
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
    channel_cmds.add_parser("gen", help="write the channel dump <out>/channel.bin")
    importer = channel_cmds.add_parser("import", help="validate a channel dump against the config")
    importer.add_argument("--in", dest="infile", required=True, metavar="PATH", help="channel dump to read")
    return parser


def _load_run_config(args) -> RunConfig:
    rc = parse_config(args.config) if args.config else resolve_config(None)
    if args.seed is None:
        return rc
    try:
        sim = dataclasses.replace(rc.sim, seed=args.seed)
        channel = dataclasses.replace(rc.channel, seed=args.seed)
    except ValueError as exc:
        raise ConfigError(f"--seed: {exc}") from None
    return dataclasses.replace(rc, sweep=dataclasses.replace(rc.sweep, sim=sim), channel=channel)


def _now() -> str:
    return datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds")


def _seeds(command: str, rc: RunConfig) -> list[int]:
    """The seeds a run draws from: the trial seeds of a simulation (a sweep
    runs the same trials for every array size), the channel seed of a dump."""
    if command in ("simulate", "tradeoff"):
        return list(rc.sim.trial_seeds)
    return [rc.channel.seed] if command == "channel gen" else []


def _emit(args, manifest: RunManifest, name: str, fmt: str, write) -> str:
    """Write ``<out>/<name>`` with ``write(path)``, list it in the manifest
    as a ``fmt`` file, and return its path."""
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, name)
    write(path)
    manifest.outputs.append({"path": path, "format": fmt})
    return path


def _cmd_power(args, rc: RunConfig, manifest: RunManifest) -> int:
    report = power_report(rc.receiver, rc.catalog)
    path = _emit(args, manifest, f"power.{args.fmt}", args.fmt,
                 functools.partial(emit_results, report, args.fmt))
    print(f"total receiver power: {report.breakdown.total_w:.6g} W ({path})")
    return 0


def _cmd_simulate(args, rc: RunConfig, manifest: RunManifest) -> int:
    result = run_monte_carlo(rc.receiver, rc.sim, rc.channel)
    path = _emit(args, manifest, f"simulation.{args.fmt}", args.fmt,
                 functools.partial(emit_results, result, args.fmt))
    print(f"mean SE: {result.mean_se_bits_hz:.4f} bits/s/Hz "
          f"(std {result.std_se_bits_hz:.4f}, {rc.sim.trials} trials) ({path})")
    return 0


def _cmd_tradeoff(args, rc: RunConfig, manifest: RunManifest) -> int:
    result = run_sweep(rc.sweep, base=rc.receiver, catalog=rc.catalog,
                       chan_params=rc.channel, jobs=args.jobs)
    path = _emit(args, manifest, f"tradeoff.{args.fmt}", args.fmt,
                 functools.partial(emit_results, result, args.fmt))
    _emit(args, manifest, "tradeoff_config.json", "json",
          functools.partial(write_json_file, payload={"config": manifest.config}))
    print(f"{len(result.points)} points, {len(result.failures)} failures ({path})")
    for failure in result.failures:
        print(f"  failed: {failure.config_id}: {failure.error}", file=sys.stderr)
    return 0 if not result.failures else 2


def _cmd_channel_gen(args, rc: RunConfig, manifest: RunManifest) -> int:
    channel = generate_channel(rc.receiver, rc.channel)
    path = _emit(args, manifest, "channel.bin", "subthz-chan-v2",
                 functools.partial(save_channel, channel))
    print(f"wrote channel dump {path} ({_paths(channel)})")
    return 0


def _cmd_channel_import(args, rc: RunConfig, manifest: RunManifest) -> int:
    print(f"valid channel dump: {_paths(load_channel(args.infile, rc.receiver))}")
    return 0


def _paths(channel: PathChannel) -> str:
    users, paths = channel.draw.delays.shape
    return f"U={users}, P={paths}"


_HANDLERS = {"power": _cmd_power, "simulate": _cmd_simulate, "tradeoff": _cmd_tradeoff,
             "channel gen": _cmd_channel_gen, "channel import": _cmd_channel_import}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    command = args.command
    if command == "channel":
        command += " " + args.channel_command
    try:
        rc = _load_run_config(args)
        manifest = RunManifest(tool_version=__version__, command=command, config=config_echo(rc),
                               seeds=_seeds(command, rc), started=_now())
        status = _HANDLERS[command](args, rc, manifest)
        if manifest.outputs:
            manifest.finished = _now()
            write_json_file(os.path.join(args.out, "manifest.json"), dataclasses.asdict(manifest))
        return status
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
