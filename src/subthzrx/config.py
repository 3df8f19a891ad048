"""Receiver configuration types, structural validation, and component counts.

Three base-station receiver front-end layouts are modeled:

- digital array: one full RF chain (mixer, LO, VGA, ADC) behind every antenna;
  combining is entirely digital.
- sub-array hybrid: antennas are partitioned into equal groups, each group is
  phase-shifted and combined into a single RF chain.
- fully-connected hybrid: every antenna feeds every RF chain through a
  dedicated phase shifter.

The number of RF chains bounds the number of simultaneously multiplexed user
streams and is the main hardware/capability knob separating the layouts.
"""

from __future__ import annotations

import contextlib
import enum
import math
from dataclasses import dataclass, field


class ConfigError(ValueError):
    """A receiver configuration violates a structural constraint."""


def check_db(value: float, name: str) -> float:
    """``value``, the dB figure ``name``, if its linear ratio 10^(dB/10) is a
    float: not NaN, and not finite above about 3082 dB, which overflows.
    Infinities pass (-inf dB is a ratio of 0). Raises ConfigError otherwise.
    Decides on ``float(value)``: a numpy scalar's ratio overflows to inf
    with only a warning."""
    try:
        if not math.isnan(10 ** (float(value) / 10)):
            return value
    except OverflowError:
        pass
    raise ConfigError(f"{name} must be a dB value of at most about 3082 dB, got {value!r}")


def _db(value: float) -> float:
    return -math.inf if value <= 0 else 10 * math.log10(value)


def _snr_db(snr: float) -> float:
    """``snr`` in dB as the shortest decimal that converts back to exactly
    ``snr``: a configured 3 dB is 3.0, not 10 log10(10^0.3) = 2.999999999999999."""
    db = _db(snr)
    if math.isfinite(db):
        for digits in range(1, 18):
            short = float(f"{db:.{digits}g}")
            with contextlib.suppress(OverflowError):  # a short text rounded up past 3082 dB
                if 10 ** (short / 10) == snr:
                    return short
    return db


class Architecture(enum.Enum):
    """Receiver array architecture."""

    DIGITAL = "digital"
    SUBARRAY = "subarray"
    FULLY_CONNECTED = "fully_connected"


class PhaseShifterType(enum.Enum):
    """Analog phase-shifter technology: passive (lossy, no DC power) or active."""

    PASSIVE = "passive"
    ACTIVE = "active"


@dataclass(frozen=True)
class ArrayGeometry:
    """Uniform planar array layout; elements are addressed row-major."""

    rows: int
    cols: int
    spacing_wavelengths: float = 0.5

    def __post_init__(self):
        if not (self.rows >= 1 and self.cols >= 1):
            raise ConfigError(f"array must have rows >= 1 and cols >= 1, got {self.rows}x{self.cols}")
        if not 0 < self.spacing_wavelengths < math.inf:
            raise ConfigError("element_spacing_wavelengths must be positive and finite")
        try:    # the steering phases 2 pi d (m + n) stay below this span
            span = 2 * math.pi * self.spacing_wavelengths * (self.rows + self.cols)
        except OverflowError:   # a row or column count beyond any float
            span = math.inf
        if not span < math.inf:
            raise ConfigError(f"element_spacing_wavelengths {self.spacing_wavelengths!r} overflows the "
                              f"steering phases of a {self.rows}x{self.cols} array")

    @property
    def count(self) -> int:
        return self.rows * self.cols


@dataclass(frozen=True)
class ReceiverConfig:
    """Full receiver-side system configuration.

    Attributes:
        architecture: array architecture (digital / subarray / fully connected).
        bs_geometry: base-station array layout (N_BS antennas total).
        rf_chains: number of RF chains N_RF. ``None`` resolves to N_BS for the
            digital array and to ``users`` for the hybrids.
        adc_bits: ADC resolution in bits.
        ps_type: phase-shifter technology (irrelevant for the digital array).
        bandwidth_hz: total system bandwidth B.
        subcarriers: number of OFDM subcarriers K.
        users: number of simultaneously served single-stream users U.
        user_geometry: per-user transmit array layout (N_U antennas).
        per_antenna_snr: minimum per-antenna SNR as a linear ratio (1.0 = 0 dB).
        temperature_k: thermal noise reference temperature.
    """

    architecture: Architecture = Architecture.DIGITAL
    bs_geometry: ArrayGeometry = field(default_factory=lambda: ArrayGeometry(32, 16))
    rf_chains: int | None = None
    adc_bits: int = 5
    ps_type: PhaseShifterType = PhaseShifterType.PASSIVE
    bandwidth_hz: float = 800e6
    subcarriers: int = 256
    users: int = 8
    user_geometry: ArrayGeometry = field(default_factory=lambda: ArrayGeometry(16, 4))
    per_antenna_snr: float = 1.0
    temperature_k: float = 300.0

    def __post_init__(self):
        if self.rf_chains is None:
            default = self.bs_geometry.count if self.architecture is Architecture.DIGITAL else self.users
            object.__setattr__(self, "rf_chains", default)

    @property
    def n_bs(self) -> int:
        return self.bs_geometry.count

    @property
    def n_u(self) -> int:
        return self.user_geometry.count


@dataclass(frozen=True)
class ComponentCounts:
    """Per-component device counts implied by an architecture."""

    lna: int
    ps: int
    mixers: int
    lo: int
    vga: int
    adc: int


def validate_config(cfg: ReceiverConfig) -> ReceiverConfig:
    """Check all structural invariants of ``cfg``; return it unchanged if valid.

    Raises:
        ConfigError: naming the violated invariant.
    """
    n_bs = cfg.n_bs
    n_rf = cfg.rf_chains
    if n_rf < 1:
        raise ConfigError("N_RF must be >= 1")
    if n_rf > n_bs:
        raise ConfigError(f"N_RF ({n_rf}) must not exceed N_BS ({n_bs})")
    if cfg.architecture is Architecture.DIGITAL and n_rf != n_bs:
        raise ConfigError(f"digital array requires N_RF == N_BS, got N_RF={n_rf}, N_BS={n_bs}")
    if cfg.architecture is Architecture.SUBARRAY and n_bs % n_rf != 0:
        raise ConfigError(f"N_BS not divisible by N_RF (N_BS={n_bs}, N_RF={n_rf})")
    if cfg.users < 1:
        raise ConfigError("users must be >= 1")
    if cfg.users > n_rf:
        raise ConfigError(f"users ({cfg.users}) must not exceed N_RF ({n_rf})")
    if not 0 < cfg.bandwidth_hz < math.inf:
        raise ConfigError("bandwidth_hz must be positive and finite")
    if cfg.subcarriers < 1:
        raise ConfigError("subcarriers must be >= 1")
    if cfg.adc_bits < 1:
        raise ConfigError("adc_bits must be >= 1")
    if not 0 <= cfg.per_antenna_snr < math.inf:
        raise ConfigError("per-antenna SNR must be >= 0 and finite")
    if not 0 < cfg.temperature_k < math.inf:
        raise ConfigError("temperature_k must be positive and finite")
    if cfg.user_geometry.spacing_wavelengths != cfg.bs_geometry.spacing_wavelengths:
        # The file's one element_spacing_wavelengths key states both arrays'.
        raise ConfigError(f"user arrays' element spacing {cfg.user_geometry.spacing_wavelengths!r} "
                          f"must equal the base station's {cfg.bs_geometry.spacing_wavelengths!r}")
    return cfg


def component_counts(cfg: ReceiverConfig) -> ComponentCounts:
    """Device counts for a validated configuration.

    Every layout needs one LNA per antenna and one mixer, LO, VGA and ADC
    per RF chain (the digital array has a chain behind each antenna). Only
    the phase-shifter count differs: none for the digital array, one per
    antenna for the sub-array, one per antenna-chain pair for the fully
    connected.
    """
    n_bs, n_rf = cfg.n_bs, cfg.rf_chains
    ps = {Architecture.DIGITAL: 0, Architecture.SUBARRAY: n_bs,
          Architecture.FULLY_CONNECTED: n_bs * n_rf}[cfg.architecture]
    return ComponentCounts(lna=n_bs, ps=ps, mixers=n_rf, lo=n_rf, vga=n_rf, adc=n_rf)
