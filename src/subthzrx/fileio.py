"""Configuration-file loading and result serialization.

The configuration file is YAML with five optional sections (``receiver``,
``catalog``, ``channel``, ``sim``, ``sweep``); every key is optional and
defaults match the built-in values, so an empty file resolves to the default
setup. Unknown keys are rejected. All SNR and loss fields at this boundary
are in dB (``*_db`` suffix); internal computation is linear.

Data files (CSV/JSON) are timestamp-free and byte-stable for identical
inputs; wall-clock timestamps live only in the run manifest.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass, field

import yaml

from .channel import ClusterChannelParams
from .config import (Architecture, ArrayGeometry, ConfigError, PhaseShifterType, ReceiverConfig,
                     validate_config)
from .power import ComponentPowerCatalog, PowerReport
from .simulation import MonteCarloResult, SimulationParams
from .tradeoff import SweepResult, SweepSpec


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved configuration for one tool invocation."""

    receiver: ReceiverConfig = field(default_factory=ReceiverConfig)
    catalog: ComponentPowerCatalog = field(default_factory=ComponentPowerCatalog)
    channel: ClusterChannelParams = field(default_factory=ClusterChannelParams)
    sim: SimulationParams = field(default_factory=SimulationParams)
    sweep: SweepSpec = field(default_factory=SweepSpec)


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


_RECEIVER_KEYS = (
    "architecture", "bs_rows", "bs_cols", "element_spacing_wavelengths", "rf_chains",
    "adc_bits", "ps_type", "bandwidth_hz", "subcarriers", "users", "user_rows", "user_cols",
    "snr_db", "temperature_k",
)
_CATALOG_KEYS = tuple(f.name for f in dataclasses.fields(ComponentPowerCatalog))
_CHANNEL_KEYS = tuple(f.name for f in dataclasses.fields(ClusterChannelParams))
_SIM_KEYS = tuple(f.name for f in dataclasses.fields(SimulationParams))
_SWEEP_KEYS = ("architectures", "array_sizes", "adc_bits", "ps_types", "snr_db")
_SECTIONS = ("receiver", "catalog", "channel", "sim", "sweep")


def parse_config(path: str) -> RunConfig:
    """Load and resolve a YAML configuration file.

    Raises ConfigError on YAML syntax errors (with line/column), unknown
    keys, bad values, or receiver-invariant violations.
    """
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        raw = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        where = f" at line {mark.line + 1}, column {mark.column + 1}" if mark else ""
        raise ConfigError(f"YAML parse error{where}: {getattr(exc, 'problem', exc)}") from None
    return resolve_config(raw)


def resolve_config(raw) -> RunConfig:
    """Build a RunConfig from a parsed mapping (None means all defaults)."""
    if raw is None:
        raw = {}
    if not isinstance(raw, dict):
        raise ConfigError(f"top level must be a mapping, got {type(raw).__name__}")
    _reject_unknown(raw, _SECTIONS, "top level")

    receiver = _resolve_receiver(_section(raw, "receiver"))
    catalog = _build(ComponentPowerCatalog, _section(raw, "catalog"), _CATALOG_KEYS, "catalog")
    channel = _build(ClusterChannelParams, _section(raw, "channel"), _CHANNEL_KEYS, "channel")
    sim = _build(SimulationParams, _section(raw, "sim"), _SIM_KEYS, "sim")
    sweep = _resolve_sweep(_section(raw, "sweep"), sim)
    validate_config(receiver)
    return RunConfig(receiver=receiver, catalog=catalog, channel=channel, sim=sim, sweep=sweep)


def _section(raw: dict, name: str) -> dict:
    value = raw.get(name) or {}
    if not isinstance(value, dict):
        raise ConfigError(f"section '{name}' must be a mapping")
    return value


def _reject_unknown(mapping: dict, allowed, context: str) -> None:
    for key in mapping:
        if key not in allowed:
            raise ConfigError(f"unknown key '{key}' in {context}")


def _as_float(value, key: str) -> float:
    try:
        return float(value)
    except (TypeError, ValueError):
        raise ConfigError(f"key '{key}' must be a number, got {value!r}") from None


def _as_int(value, key: str) -> int:
    if isinstance(value, bool) or (not isinstance(value, int) and not (
            isinstance(value, str) and value.lstrip("+-").isdigit())):
        raise ConfigError(f"key '{key}' must be an integer, got {value!r}")
    return int(value)


def _as_enum(enum_cls, value, key: str):
    try:
        return enum_cls(value)
    except ValueError:
        options = ", ".join(e.value for e in enum_cls)
        raise ConfigError(f"key '{key}' must be one of [{options}], got {value!r}") from None


def _resolve_receiver(section: dict) -> ReceiverConfig:
    _reject_unknown(section, _RECEIVER_KEYS, "receiver")
    defaults = ReceiverConfig()
    bs = ArrayGeometry(
        rows=_as_int(section.get("bs_rows", defaults.bs_geometry.rows), "bs_rows"),
        cols=_as_int(section.get("bs_cols", defaults.bs_geometry.cols), "bs_cols"),
        spacing_wavelengths=_as_float(
            section.get("element_spacing_wavelengths", defaults.bs_geometry.spacing_wavelengths),
            "element_spacing_wavelengths"))
    user = ArrayGeometry(
        rows=_as_int(section.get("user_rows", defaults.user_geometry.rows), "user_rows"),
        cols=_as_int(section.get("user_cols", defaults.user_geometry.cols), "user_cols"),
        spacing_wavelengths=bs.spacing_wavelengths)
    rf = section.get("rf_chains")
    snr_db = _as_float(section.get("snr_db", 0.0), "snr_db")
    return ReceiverConfig(
        architecture=_as_enum(Architecture, section.get("architecture", defaults.architecture.value),
                              "architecture"),
        bs_geometry=bs,
        rf_chains=None if rf is None else _as_int(rf, "rf_chains"),
        adc_bits=_as_int(section.get("adc_bits", defaults.adc_bits), "adc_bits"),
        ps_type=_as_enum(PhaseShifterType, section.get("ps_type", defaults.ps_type.value), "ps_type"),
        bandwidth_hz=_as_float(section.get("bandwidth_hz", defaults.bandwidth_hz), "bandwidth_hz"),
        subcarriers=_as_int(section.get("subcarriers", defaults.subcarriers), "subcarriers"),
        users=_as_int(section.get("users", defaults.users), "users"),
        user_geometry=user,
        per_antenna_snr=10 ** (snr_db / 10),
        temperature_k=_as_float(section.get("temperature_k", defaults.temperature_k), "temperature_k"),
    )


def _build(cls, section: dict, allowed, context: str):
    _reject_unknown(section, allowed, context)
    kwargs = {}
    for spec_field in dataclasses.fields(cls):
        if spec_field.name not in section:
            continue
        value = section[spec_field.name]
        if spec_field.type in ("int", int):
            kwargs[spec_field.name] = _as_int(value, spec_field.name)
        else:
            kwargs[spec_field.name] = _as_float(value, spec_field.name)
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"{context}: {exc}") from None


def _resolve_sweep(section: dict, sim: SimulationParams) -> SweepSpec:
    _reject_unknown(section, _SWEEP_KEYS, "sweep")
    defaults = SweepSpec()
    kwargs = {"sim": sim}
    if "architectures" in section:
        kwargs["architectures"] = tuple(
            _as_enum(Architecture, v, "architectures") for v in _as_list(section["architectures"], "architectures"))
    if "array_sizes" in section:
        sizes = []
        for item in _as_list(section["array_sizes"], "array_sizes"):
            if not isinstance(item, (list, tuple)) or len(item) != 2:
                raise ConfigError(f"array_sizes entries must be [rows, cols] pairs, got {item!r}")
            sizes.append(ArrayGeometry(_as_int(item[0], "array_sizes"), _as_int(item[1], "array_sizes")))
        kwargs["array_sizes"] = tuple(sizes)
    if "adc_bits" in section:
        kwargs["adc_bits"] = tuple(_as_int(v, "adc_bits") for v in _as_list(section["adc_bits"], "adc_bits"))
    if "ps_types" in section:
        kwargs["ps_types"] = tuple(
            _as_enum(PhaseShifterType, v, "ps_types") for v in _as_list(section["ps_types"], "ps_types"))
    if "snr_db" in section:
        kwargs["snr_db"] = tuple(_as_float(v, "snr_db") for v in _as_list(section["snr_db"], "snr_db"))
    for name in ("architectures", "array_sizes", "adc_bits", "ps_types", "snr_db"):
        kwargs.setdefault(name, getattr(defaults, name))
    try:
        return SweepSpec(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"sweep: {exc}") from None


def _as_list(value, key: str) -> list:
    if not isinstance(value, list) or not value:
        raise ConfigError(f"key '{key}' must be a non-empty list")
    return value


def config_echo(rc: RunConfig) -> dict:
    """Resolved configuration in file-schema form (dB at the boundary).
    Non-finite floats, such as an SNR of -inf dB, are written as the text
    ``"inf"``/``"-inf"``, which strict JSON can hold and ``resolve_config``
    reads back."""
    recv = rc.receiver
    snr_db = -math.inf if recv.per_antenna_snr == 0 else 10 * math.log10(recv.per_antenna_snr)
    return _replace_nonfinite({
        "receiver": {
            "architecture": recv.architecture.value,
            "bs_rows": recv.bs_geometry.rows,
            "bs_cols": recv.bs_geometry.cols,
            "element_spacing_wavelengths": recv.bs_geometry.spacing_wavelengths,
            "rf_chains": recv.rf_chains,
            "adc_bits": recv.adc_bits,
            "ps_type": recv.ps_type.value,
            "bandwidth_hz": recv.bandwidth_hz,
            "subcarriers": recv.subcarriers,
            "users": recv.users,
            "user_rows": recv.user_geometry.rows,
            "user_cols": recv.user_geometry.cols,
            "snr_db": snr_db,
            "temperature_k": recv.temperature_k,
        },
        "catalog": dataclasses.asdict(rc.catalog),
        "channel": dataclasses.asdict(rc.channel),
        "sim": dataclasses.asdict(rc.sim),
        "sweep": {
            "architectures": [a.value for a in rc.sweep.architectures],
            "array_sizes": [[g.rows, g.cols] for g in rc.sweep.array_sizes],
            "adc_bits": list(rc.sweep.adc_bits),
            "ps_types": [p.value for p in rc.sweep.ps_types],
            "snr_db": list(rc.sweep.snr_db),
        },
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
        payload = {
            "components": [dataclasses.asdict(r) for r in report.rows],
            "breakdown": report.breakdown.as_dict(),
        }
        write_json_file(path, payload)


def _sinr_db(value: float) -> float:
    return -math.inf if value <= 0 else 10 * math.log10(value)


def write_simulation(result: MonteCarloResult, fmt: str, path: str) -> None:
    """Per-trial, per-user, per-subcarrier SINR table plus a summary row
    (the summary row labels its two cells inline: mean SE then std)."""
    if fmt == "csv":
        rows: list[list] = []
        for index, trial in enumerate(result.trials):
            users, subcarriers = trial.sinr.shape
            for u in range(users):
                for k in range(subcarriers):
                    rows.append([index, trial.seed, u, k, _sinr_db(float(trial.sinr[u, k]))])
        rows.append(["summary", "mean_se_bits_hz", result.mean_se_bits_hz,
                     "std_se_bits_hz", result.std_se_bits_hz])
        _write_csv(path, SIM_CSV_HEADER, rows)
    else:
        payload = {
            "mean_se_bits_hz": result.mean_se_bits_hz,
            "std_se_bits_hz": result.std_se_bits_hz,
            "trials": [
                {
                    "trial": index,
                    "seed": trial.seed,
                    "symbols_used": trial.symbols_used,
                    "se_bits_hz": trial.se_bits_hz,
                    "sinr": [[float(v) for v in row] for row in trial.sinr],
                }
                for index, trial in enumerate(result.trials)
            ],
        }
        write_json_file(path, payload)


def _tradeoff_point_fields(point) -> dict:
    cfg = point.config
    snr_db = 10 * math.log10(cfg.per_antenna_snr)
    return {
        "architecture": cfg.architecture.value,
        "nbs_rows": cfg.bs_geometry.rows,
        "nbs_cols": cfg.bs_geometry.cols,
        "nrf": cfg.rf_chains,
        "users": cfg.users,
        "adc_bits": cfg.adc_bits,
        "ps_type": cfg.ps_type.value,
        "snr_db": snr_db,
        "se_bitsHz": point.se_bits_hz,
        "power_W": point.power_w,
        "ee_bits_per_J": point.ee_bits_per_joule,
    }


def write_tradeoff(result: SweepResult, fmt: str, path: str) -> None:
    if fmt == "csv":
        rows = [[_tradeoff_point_fields(p)[col] for col in TRADEOFF_CSV_HEADER] for p in result.points]
        _write_csv(path, TRADEOFF_CSV_HEADER, rows)
    else:
        payload = {
            "points": [dict(_tradeoff_point_fields(p), config_id=p.config_id) for p in result.points],
            "failures": [dataclasses.asdict(f) for f in result.failures],
        }
        write_json_file(path, payload)


def emit_results(results, fmt: str, path: str) -> dict:
    """Write one result object to ``path``; return its manifest entry."""
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
    return {"path": path, "format": fmt}


def write_manifest(manifest: RunManifest, path: str) -> None:
    write_json_file(path, dataclasses.asdict(manifest))
