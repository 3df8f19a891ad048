"""Configuration-file loading and result serialization.

The configuration file is YAML with five optional sections (``receiver``,
``catalog``, ``channel``, ``sim``, ``sweep``); every key is optional and
defaults match the built-in values, so an empty file resolves to the default
setup. Unknown keys are rejected. All SNR and loss fields are in dB
(``*_db`` suffix), in the file and in the configuration types that hold
them; each model converts a dB value to a linear ratio where it reads it.

Data files (CSV/JSON) are timestamp-free and byte-stable for identical
inputs; wall-clock timestamps live only in the run manifest.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import math
import re
from dataclasses import dataclass, field
from functools import partial
from operator import attrgetter

import yaml

from .channel import ClusterChannelParams
from .config import Architecture, ArrayGeometry, ConfigError, PhaseShifterType, ReceiverConfig, _db
from .power import ComponentPowerCatalog, PowerReport
from .simulation import MonteCarloResult, SimulationParams
from .tradeoff import SweepResult, SweepSpec


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved configuration for one tool invocation."""

    receiver: ReceiverConfig = field(default_factory=ReceiverConfig)
    catalog: ComponentPowerCatalog = field(default_factory=ComponentPowerCatalog)
    channel: ClusterChannelParams = field(default_factory=ClusterChannelParams)
    sweep: SweepSpec = field(default_factory=SweepSpec)

    @property
    def sim(self) -> SimulationParams:
        """The run's Monte Carlo settings, kept once, in the sweep: what
        ``simulate`` and every sweep point run."""
        return self.sweep.sim


@dataclass
class RunManifest:
    """Provenance record for one invocation; references every emitted file."""

    tool_version: str
    command: str
    config: dict
    seeds: list[int]
    started: str
    finished: str = ""
    outputs: list[dict] = field(default_factory=list)


_SECTIONS = ("receiver", "catalog", "channel", "sim", "sweep")


class _UniqueKeyLoader(yaml.SafeLoader):
    """PyYAML's safe loader, except that a key given twice in one mapping is
    an error instead of the last value winning. Merge keys (``<<``) keep
    YAML's rules: they may repeat, and a key of the mapping overrides them."""

    def construct_mapping(self, node, deep=False):
        seen = set()
        for key_node, _ in node.value if isinstance(node, yaml.MappingNode) else ():
            if isinstance(key_node, yaml.ScalarNode) and not key_node.tag.endswith(":merge"):
                if (key := self.construct_object(key_node, deep=True)) in seen:
                    raise yaml.constructor.ConstructorError(
                        None, None, f"key {key!r} given twice", key_node.start_mark)
                seen.add(key)
        return super().construct_mapping(node, deep=deep)


def parse_config(path: str) -> RunConfig:
    """Load and resolve a YAML configuration file; raises only ConfigError.

    A file that cannot be read, decoded as UTF-8 or parsed, or that gives a
    key twice in one mapping, is reported with its path and any line.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = yaml.load(fh, Loader=_UniqueKeyLoader)
    except (OSError, ValueError, RecursionError, yaml.YAMLError) as exc:
        # A UnicodeDecodeError is a ValueError; PyYAML recurses once per nesting level.
        mark = getattr(exc, "problem_mark", None)
        where = f" at line {mark.line + 1}, column {mark.column + 1}" if mark else ""
        raise ConfigError(f"{path}{where}: {getattr(exc, 'problem', exc)}") from None
    return resolve_config(raw)


def resolve_config(raw) -> RunConfig:
    """Build a RunConfig from a parsed mapping (None means all defaults)."""
    if raw is None:
        raw = {}
    if not isinstance(raw, dict):
        raise ConfigError(f"top level must be a mapping, got {type(raw).__name__}")
    _reject_unknown(raw, _SECTIONS, "top level")

    receiver = _resolve_receiver(_section(raw, "receiver"))
    catalog = _build(ComponentPowerCatalog, _section(raw, "catalog"), "catalog")
    channel = _build(ClusterChannelParams, _section(raw, "channel"), "channel")
    sim = _build(SimulationParams, _section(raw, "sim"), "sim")
    sweep = _resolve_sweep(_section(raw, "sweep"), sim)
    return RunConfig(receiver=receiver, catalog=catalog, channel=channel, sweep=sweep)


def _section(raw: dict, name: str) -> dict:
    value = {} if raw.get(name) is None else raw[name]
    if not isinstance(value, dict):
        raise ConfigError(f"section '{name}' must be a mapping")
    return value


def _reject_unknown(mapping: dict, allowed, context: str) -> None:
    for key in mapping:
        if key not in allowed:
            raise ConfigError(f"unknown key '{key}' in {context}")


def _as_float(value, key: str) -> float:
    """A float other than NaN; infinities pass. Neither a bool nor bytes
    (a YAML ``!!binary`` value) is a number."""
    with contextlib.suppress(TypeError, ValueError, OverflowError):
        if not isinstance(value, (bool, bytes)) and not math.isnan(number := float(value)):
            return number
    raise ConfigError(f"key '{key}' must be a number, got {value!r}")


def _as_int(value, key: str) -> int:
    """An int, or an ASCII decimal string with one optional sign."""
    if isinstance(value, str) and re.fullmatch(r"[+-]?[0-9]+", value):
        with contextlib.suppress(ValueError):   # more digits than int() converts
            value = int(value)
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise ConfigError(f"key '{key}' must be an integer, got {value!r}")


def _as_enum(enum_cls, value, key: str):
    try:
        return enum_cls(value)
    except ValueError:
        options = ", ".join(e.value for e in enum_cls)
        raise ConfigError(f"key '{key}' must be one of [{options}], got {value!r}") from None


def _as_size(value, key: str) -> ArrayGeometry:
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise ConfigError(f"array_sizes entries must be [rows, cols] pairs, got {value!r}")
    return ArrayGeometry(_as_int(value[0], key), _as_int(value[1], key))


def _as_list(value, key: str) -> list:
    if not isinstance(value, list) or not value:
        raise ConfigError(f"key '{key}' must be a non-empty list")
    return value


# Receiver file schema, in file order: key -> (parser of the file value,
# file value of a resolved ReceiverConfig).
_RECEIVER_FIELDS = {
    "architecture": (partial(_as_enum, Architecture), attrgetter("architecture.value")),
    "bs_rows": (_as_int, attrgetter("bs_geometry.rows")),
    "bs_cols": (_as_int, attrgetter("bs_geometry.cols")),
    "element_spacing_wavelengths": (_as_float, attrgetter("element_spacing_wavelengths")),
    "rf_chains": (lambda value, key: None if value is None else _as_int(value, key),
                  attrgetter("rf_chains")),
    "adc_bits": (_as_int, attrgetter("adc_bits")),
    "ps_type": (partial(_as_enum, PhaseShifterType), attrgetter("ps_type.value")),
    "bandwidth_hz": (_as_float, attrgetter("bandwidth_hz")),
    "subcarriers": (_as_int, attrgetter("subcarriers")),
    "users": (_as_int, attrgetter("users")),
    "user_rows": (_as_int, attrgetter("user_geometry.rows")),
    "user_cols": (_as_int, attrgetter("user_geometry.cols")),
    "snr_db": (_as_float, attrgetter("snr_db")),
    "temperature_k": (_as_float, attrgetter("temperature_k")),
}
# An absent rf_chains stays None (auto), not the default receiver's count.
_RECEIVER_DEFAULTS = {key: value_of(ReceiverConfig())
                      for key, (_, value_of) in _RECEIVER_FIELDS.items()} | {"rf_chains": None}

# Sweep file schema: axis -> (parser of one entry, file form of one entry).
_SWEEP_AXES = {
    "architectures": (partial(_as_enum, Architecture), attrgetter("value")),
    "array_sizes": (_as_size, lambda geometry: [geometry.rows, geometry.cols]),
    "adc_bits": (_as_int, lambda bits: bits),
    "ps_types": (partial(_as_enum, PhaseShifterType), attrgetter("value")),
    "snr_db": (_as_float, lambda snr_db: snr_db),
}


def _resolve_receiver(section: dict) -> ReceiverConfig:
    _reject_unknown(section, _RECEIVER_FIELDS, "receiver")
    values = {key: parse(section.get(key, _RECEIVER_DEFAULTS[key]), key)
              for key, (parse, _) in _RECEIVER_FIELDS.items()}
    bs = ArrayGeometry(values.pop("bs_rows"), values.pop("bs_cols"))
    user = ArrayGeometry(values.pop("user_rows"), values.pop("user_cols"))
    return ReceiverConfig(bs_geometry=bs, user_geometry=user, **values)


def _build(cls, section: dict, context: str):
    parsers = {f.name: _as_int if f.type in ("int", int) else _as_float
               for f in dataclasses.fields(cls)}
    _reject_unknown(section, parsers, context)
    kwargs = {key: parse(section[key], key) for key, parse in parsers.items() if key in section}
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"{context}: {exc}") from None


def _resolve_sweep(section: dict, sim: SimulationParams) -> SweepSpec:
    _reject_unknown(section, _SWEEP_AXES, "sweep")
    axes = {axis: tuple(parse(value, axis) for value in _as_list(section[axis], axis))
            for axis, (parse, _) in _SWEEP_AXES.items() if axis in section}
    try:
        return SweepSpec(sim=sim, **axes)
    except ValueError as exc:
        raise ConfigError(f"sweep: {exc}") from None


def config_echo(rc: RunConfig) -> dict:
    """Resolved configuration in file-schema form (dB at the boundary).
    Non-finite floats, such as an SNR of -inf dB, are written as the text
    ``"inf"``/``"-inf"``, which strict JSON can hold and ``resolve_config``
    reads back."""
    return _replace_nonfinite({
        "receiver": {key: value_of(rc.receiver) for key, (_, value_of) in _RECEIVER_FIELDS.items()},
        "catalog": dataclasses.asdict(rc.catalog),
        "channel": dataclasses.asdict(rc.channel),
        "sim": dataclasses.asdict(rc.sim),
        "sweep": {axis: [form(entry) for entry in getattr(rc.sweep, axis)]
                  for axis, (_, form) in _SWEEP_AXES.items()},
    }, repr)


def _fmt(value) -> str:
    """Stable CSV cell formatting; floats use shortest round-trip repr."""
    if isinstance(value, float):
        return repr(value)
    return "" if value is None else str(value)


def _write_csv(path: str, header: list[str], rows: list[list]) -> None:
    lines = [",".join(header)]
    lines.extend(",".join(_fmt(cell) for cell in row) for row in rows)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _replace_nonfinite(value, replace):
    """``value`` with every non-finite float ``x`` replaced by ``replace(x)``."""
    if isinstance(value, float):
        return value if math.isfinite(value) else replace(value)
    if isinstance(value, dict):
        return {key: _replace_nonfinite(item, replace) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_replace_nonfinite(item, replace) for item in value]
    return value


def write_json_file(path: str, payload) -> None:
    """Write a JSON payload as strict JSON with stable formatting (2-space
    indent). Non-finite floats, such as an SNR of -inf dB, become null."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(_replace_nonfinite(payload, lambda _: None), fh, indent=2, allow_nan=False)
        fh.write("\n")


POWER_CSV_HEADER = ["component", "count", "unit_power_mW", "total_W"]
SIM_CSV_HEADER = ["trial", "seed", "user", "subcarrier", "sinr_db"]
TRADEOFF_CSV_HEADER = ["architecture", "nbs_rows", "nbs_cols", "nrf", "users", "adc_bits",
                       "ps_type", "snr_db", "se_bitsHz", "power_W", "ee_bits_per_J"]


def write_power(report: PowerReport, fmt: str, path: str) -> None:
    if fmt == "csv":
        rows = [[r.component, r.count, r.unit_power_mw, r.total_w] for r in report.rows]
        rows.append(["total", None, None, report.breakdown.total_w])
        _write_csv(path, POWER_CSV_HEADER, rows)
    else:
        write_json_file(path, {"components": [dataclasses.asdict(r) for r in report.rows],
                               "breakdown": report.breakdown.as_dict()})


def write_simulation(result: MonteCarloResult, fmt: str, path: str) -> None:
    """Per-trial, per-user, per-subcarrier SINR table plus a summary row
    (the summary row labels its two cells inline: mean SE then std)."""
    if fmt == "csv":
        rows: list[list] = []
        for index, trial in enumerate(result.trials):
            users, subcarriers = trial.sinr.shape
            for u in range(users):
                for k in range(subcarriers):
                    rows.append([index, trial.seed, u, k, _db(float(trial.sinr[u, k]))])
        rows.append(["summary", "mean_se_bits_hz", result.mean_se_bits_hz,
                     "std_se_bits_hz", result.std_se_bits_hz])
        _write_csv(path, SIM_CSV_HEADER, rows)
    else:
        trials = [{"trial": index, "seed": trial.seed, "symbols_used": trial.symbols_used,
                   "se_bits_hz": trial.se_bits_hz, "sinr": trial.sinr.tolist()}
                  for index, trial in enumerate(result.trials)]
        write_json_file(path, {"mean_se_bits_hz": result.mean_se_bits_hz,
                               "std_se_bits_hz": result.std_se_bits_hz, "trials": trials})


def _tradeoff_point_fields(point) -> dict:
    cfg = point.config
    return {
        "architecture": cfg.architecture.value,
        "nbs_rows": cfg.bs_geometry.rows,
        "nbs_cols": cfg.bs_geometry.cols,
        "nrf": cfg.rf_chains,
        "users": cfg.users,
        "adc_bits": cfg.adc_bits,
        "ps_type": cfg.ps_type.value,
        "snr_db": cfg.snr_db,
        "se_bitsHz": point.se_bits_hz,
        "se_std_bitsHz": point.se_std_bits_hz,
        "power_W": point.power_w,
        "ee_bits_per_J": point.ee_bits_per_joule,
        "config_id": point.config_id,
    }


def write_tradeoff(result: SweepResult, fmt: str, path: str) -> None:
    points = [_tradeoff_point_fields(p) for p in result.points]
    if fmt == "csv":
        _write_csv(path, TRADEOFF_CSV_HEADER, [[p[col] for col in TRADEOFF_CSV_HEADER] for p in points])
    else:
        write_json_file(path, {"points": points,
                               "failures": [dataclasses.asdict(f) for f in result.failures]})


def emit_results(results, fmt: str, path: str) -> None:
    """Write one result object to ``path`` as a ``fmt`` table."""
    if fmt not in ("csv", "json"):
        raise ValueError(f"unsupported format {fmt!r}")
    if isinstance(results, PowerReport):
        write_power(results, fmt, path)
    elif isinstance(results, MonteCarloResult):
        write_simulation(results, fmt, path)
    elif isinstance(results, SweepResult):
        write_tradeoff(results, fmt, path)
    else:
        raise TypeError(f"no writer for result type {type(results).__name__}")
