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

import enum
import math
import numbers
from dataclasses import dataclass, field


class ConfigError(ValueError):
    """A value lies outside its domain, or a receiver violates a structural constraint."""


# Every numeric setting's closed physical domain: key -> (low, high, unit,
# values outside [low, high] that also belong to it). `rows` and `cols` hold
# for every array, `snr_db` and `adc_bits` for the receiver's and the sweep's
# entries, `seed` for the channel's and the simulation's; the link refuses
# snr_db's -inf (no signal), which sizes power. Counts and seeds have no top:
# they cost time and memory, not float range.
# Worst cases at the corners, with N_BS, N_RF and U at most 4096^2 = 2^24:
# - k T B >= 1.38e-23 * 1e-3 * 1e3 > 0 W; (snr + F) k T B <= 1.4e23 W. The ADC
#   target swing^2/(8 R) lies in [1.25e-13, 12.5] W, so the VGA gain is under
#   240 dB plus 100 dB per loss stage (a shifter, a mixer, 24 splitter and 24
#   combiner stages): 5240 dB, or 52400 units of 0.1 dB.
# - Units draw below 1e16 mW (LNA, 1e10 / (1e-3 * 1e-3)), 5.3e8 mW (VGA) and
#   8.6e12 W (ADC, 1e-9 * 1e12 * 2^33). Times at most 2^48 shifters or 2^24 of
#   any other part, with the DSP's 2^24 * 2^25 * 1e12 / 1e6 W, every group
#   and the total stay below 1e22 W.
# - U/snr <= 2^24 * 1e30; steering phases 2 pi d (m + n) <= 2 pi 100 * 8190;
#   delays stay below 50 spreads (50 us) when drawn and channel._DELAY_LIMIT
#   (1 ms) when loaded, so delay phases 2 pi tau f, |f| <= B/2, stay below
#   2 pi 1e-3 * 5e11.
_DOMAINS = {
    "rows": (1, 4096, ""),
    "cols": (1, 4096, ""),
    "element_spacing_wavelengths": (0.01, 100.0, "wavelengths"),
    "rf_chains": (1, math.inf, ""),
    "adc_bits": (1, 32, "bits"),
    "bandwidth_hz": (1e3, 1e12, "Hz"),
    "subcarriers": (1, 65536, ""),
    "users": (1, math.inf, ""),
    "snr_db": (-300.0, 300.0, "dB", -math.inf),
    "temperature_k": (1e-3, 1e4, "K"),
    "lna_fom_per_mw": (1e-3, 1e3, "1/mW"),
    "lna_noise_factor": (1.001, 1e3, ""),
    "lna_gain_db": (0.0, 100.0, "dB"),
    "mixer_power_mw": (0.0, 1e4, "mW"),
    "mixer_loss_db": (0.0, 100.0, "dB"),
    "lo_power_mw": (0.0, 1e4, "mW"),
    "ps_passive_il_db": (0.0, 100.0, "dB"),
    "ps_active_il_db": (0.0, 100.0, "dB"),
    "ps_active_power_mw": (0.0, 1e4, "mW"),
    "splitter_il_db": (0.0, 100.0, "dB"),
    "combiner_il_db": (0.0, 100.0, "dB"),
    "max_fanout": (2, 64, "ports"),
    "vga_unit_power_mw": (0.0, 1e4, "mW"),
    "vga_unit_gain_db": (0.1, 100.0, "dB"),
    "adc_fom_j_per_step_hz": (1e-18, 1e-9, "J"),
    "adc_input_swing_v": (1e-3, 10.0, "V"),
    "dsp_fom_ops_per_w": (1e6, 1e18, "ops/J"),
    "input_resistance_ohm": (1.0, 1e6, "ohm"),
    "delay_spread_s": (1e-30, 1e-6, "s"),
    "k_factor_db": (-300.0, 300.0, "dB", -math.inf, math.inf),
    "angle_spread_deg": (0.0, 180.0, "degrees"),
    "sinr_floor": (1e-30, 1.0, ""),
    "refine_tol": (0.0, 1.0, ""),
    "symbols_per_trial": (2, math.inf, ""),
    "trials": (1, math.inf, ""),
    "refine_sweeps": (0, math.inf, ""),
    "clusters": (1, math.inf, ""),
    "rays_per_cluster": (1, math.inf, ""),
    "seed": (0, math.inf, ""),
}


def _domain_text(key: str) -> str:
    """The domain of ``key`` as README's table states it."""
    low, high, unit, *also = _DOMAINS[key]
    return " or ".join([f"[{low:g}, {high:g}]" + (f" {unit}" if unit else ""),
                        *(f"{value:g}" for value in also)])


def _check_domains(values: dict) -> dict:
    """Check each value of ``values`` whose key the table lists and store it
    back, in place, as the Python int (a count: int bounds) or float it
    equals; return ``values``. A dataclass's ``vars`` thus holds its fields
    as Python numbers. Raise ConfigError naming the first key whose value is
    not an integer where the domain is a count (a bool, a fraction), or lies
    outside its domain (as NaN does)."""
    for key, value in values.items():
        if key in _DOMAINS:
            low, high, _, *also = _DOMAINS[key]
            count = isinstance(low, int)
            if count and (isinstance(value, bool) or not isinstance(value, numbers.Integral)):
                raise ConfigError(f"{key} must be an integer, got {value!r}")
            if not (low <= value <= high or value in also):
                raise ConfigError(f"{key} must lie in {_domain_text(key)}, got {value!r}")
            values[key] = int(value) if count else float(value)
    return values


def _db(value: float) -> float:
    """10 log10(value) of a value >= 0: -inf at 0."""
    return 10 * math.log10(value) if value > 0 else -math.inf


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
    """Uniform planar array layout, rows x cols; elements are addressed
    row-major. The element spacing is the receiver's, for every array."""

    rows: int
    cols: int

    def __post_init__(self):
        _check_domains(vars(self))

    @property
    def count(self) -> int:
        return self.rows * self.cols


@dataclass(frozen=True)
class ReceiverConfig:
    """Full receiver-side system configuration.

    Attributes:
        architecture: array architecture (digital / subarray / fully connected).
        bs_geometry: base-station array layout (N_BS antennas total).
        element_spacing_wavelengths: element spacing of the base-station and
            the user arrays, in wavelengths.
        rf_chains: number of RF chains N_RF. ``None`` resolves to N_BS for the
            digital array and to ``users`` for the hybrids.
        adc_bits: ADC resolution in bits.
        ps_type: phase-shifter technology (irrelevant for the digital array).
        bandwidth_hz: total system bandwidth B.
        subcarriers: number of OFDM subcarriers K.
        users: number of simultaneously served single-stream users U.
        user_geometry: per-user transmit array layout (N_U antennas).
        snr_db: minimum per-antenna SNR in dB; ``per_antenna_snr`` is its
            linear ratio.
        temperature_k: thermal noise reference temperature.
    """

    architecture: Architecture = Architecture.DIGITAL
    bs_geometry: ArrayGeometry = field(default_factory=lambda: ArrayGeometry(32, 16))
    element_spacing_wavelengths: float = 0.5
    rf_chains: int | None = None
    adc_bits: int = 5
    ps_type: PhaseShifterType = PhaseShifterType.PASSIVE
    bandwidth_hz: float = 800e6
    subcarriers: int = 256
    users: int = 8
    user_geometry: ArrayGeometry = field(default_factory=lambda: ArrayGeometry(16, 4))
    snr_db: float = 0.0
    temperature_k: float = 300.0

    def __post_init__(self):
        if self.rf_chains is None:
            # Absent chains are the digital array's antennas or a hybrid's
            # users, checked first so that a bad count is named as users.
            default = (self.bs_geometry.count if self.architecture is Architecture.DIGITAL
                       else _check_domains({"users": self.users})["users"])
            object.__setattr__(self, "rf_chains", default)
        _check_domains(vars(self))
        # -0.0 dB is 0 dB in the CSV cell, the config id and the echo
        # (x + 0.0 is x, except that -0.0 + 0.0 is 0.0).
        object.__setattr__(self, "snr_db", self.snr_db + 0.0)
        validate_config(self)

    @property
    def per_antenna_snr(self) -> float:
        """The minimum per-antenna SNR as a linear ratio (1.0 = 0 dB)."""
        return 10 ** (self.snr_db / 10)

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
    """Check the structural invariants of ``cfg``: its chain and user counts
    fit its array and architecture; return it unchanged if valid. Every
    ``ReceiverConfig`` runs it when it is built, after its fields' domains
    (which make both counts integers of at least 1).

    Raises:
        ConfigError: naming the violated invariant.
    """
    n_bs = cfg.n_bs
    n_rf = cfg.rf_chains
    if n_rf > n_bs:
        raise ConfigError(f"N_RF ({n_rf}) must not exceed N_BS ({n_bs})")
    if cfg.architecture is Architecture.DIGITAL and n_rf != n_bs:
        raise ConfigError(f"digital array requires N_RF == N_BS, got N_RF={n_rf}, N_BS={n_bs}")
    if cfg.architecture is Architecture.SUBARRAY and n_bs % n_rf != 0:
        raise ConfigError(f"N_BS not divisible by N_RF (N_BS={n_bs}, N_RF={n_rf})")
    if cfg.users > n_rf:
        raise ConfigError(f"users ({cfg.users}) must not exceed N_RF ({n_rf})")
    return cfg


def component_counts(cfg: ReceiverConfig) -> ComponentCounts:
    """Device counts of a receiver (every receiver is one its layout can build).

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
