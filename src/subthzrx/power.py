"""Receiver power-consumption model built from surveyed component figures.

Total receiver power is the sum of per-component group totals: LNAs (one per
antenna), phase shifters (active designs only draw DC power), LOs and mixers
(one LO per mixer), baseband VGAs, ADCs, and digital combining DSP. The VGA
group is sized to amplify the weakest expected input signal up to the ADC's
input swing, so passive losses in the signal path (mixer conversion loss,
phase-shifter / splitter / combiner insertion loss) feed back into VGA power.

Unit conventions: catalog gains and losses are in dB, unit powers in mW,
group totals in watts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from operator import add

from .config import PhaseShifterType, ReceiverConfig, _check_domains, component_counts, validate_config

K_BOLTZMANN = 1.380649e-23  # J/K


@dataclass(frozen=True)
class ComponentPowerCatalog:
    """Surveyed unit powers, gains, and losses for all receiver components.

    Defaults correspond to state-of-the-art D/G-band designs. ``lo_power_mw``
    and ``input_resistance_ohm`` are modeling assumptions rather than surveyed
    values (the LO survey reports RF output, not DC draw; the VGA/ADC input
    is taken as a standard 50-ohm interface) and are exposed here so both can
    be overridden.
    """

    lna_fom_per_mw: float = 1.84      # LNA figure of merit, 1/mW
    lna_noise_factor: float = 10.0    # linear noise factor F
    lna_gain_db: float = 26.0
    mixer_power_mw: float = 0.0       # passive mixer
    mixer_loss_db: float = 9.8        # conversion loss
    lo_power_mw: float = 40.0         # assumed DC power per LO
    ps_passive_il_db: float = 6.0
    ps_active_il_db: float = 5.8
    ps_active_power_mw: float = 30.0
    splitter_il_db: float = 1.3       # per stage
    combiner_il_db: float = 1.3       # per stage
    max_fanout: int = 8               # ports per splitter/combiner stage
    vga_unit_power_mw: float = 10.8
    vga_unit_gain_db: float = 20.0
    adc_fom_j_per_step_hz: float = 40e-15   # Walden figure of merit
    adc_input_swing_v: float = 0.5          # peak-to-peak
    dsp_fom_ops_per_w: float = 13e12        # 13 GOPS/mW
    input_resistance_ohm: float = 50.0      # assumed VGA/ADC input resistance

    def __post_init__(self):
        _check_domains(vars(self))

    @property
    def adc_target_w(self) -> float:
        """Full-scale ADC input power swing^2 / (8 R): a sine whose
        peak-to-peak amplitude is the swing."""
        return self.adc_input_swing_v ** 2 / (8 * self.input_resistance_ohm)

    def ps_il_db(self, ps_type: PhaseShifterType) -> float:
        if ps_type is PhaseShifterType.ACTIVE:
            return self.ps_active_il_db
        return self.ps_passive_il_db


@dataclass(frozen=True)
class PowerBreakdown:
    """Per-component-group receiver power totals in watts."""

    lna_w: float
    ps_w: float
    lo_w: float
    mixer_w: float
    vga_w: float
    adc_w: float
    dsp_w: float

    @property
    def total_w(self) -> float:
        # The fields left to right: sum() compensates its rounding from Python 3.12.
        return reduce(add, vars(self).values())

    def as_dict(self) -> dict[str, float]:
        return vars(self) | {"total_w": self.total_w}


def lna_power_mw(catalog: ComponentPowerCatalog) -> float:
    """Unit LNA power from its figure of merit: 10^(G/10) / (FoM * (F - 1))."""
    return 10 ** (catalog.lna_gain_db / 10) / (catalog.lna_fom_per_mw * (catalog.lna_noise_factor - 1))


def distribution_stages(n_paths: int, max_fanout: int) -> int:
    """Series splitter/combiner stages needed to reach ``n_paths`` ports.

    A minimum-depth tree of ``max_fanout``-way stages is assumed, so the
    result is ceil(log_fanout(n_paths)) computed exactly in integers.
    """
    if n_paths < 1:
        raise ValueError("n_paths must be >= 1")
    if max_fanout < 2:
        raise ValueError("max_fanout must be >= 2")
    stages = 0
    reach = 1
    while reach < n_paths:
        reach *= max_fanout
        stages += 1
    return stages


def distribution_losses(cfg: ReceiverConfig, catalog: ComponentPowerCatalog) -> tuple[float, float, float]:
    """Total splitter, combiner, and phase-shifter insertion losses in dB.

    The network follows from the phase-shifter count P: none without
    shifters, otherwise a tree that splits each antenna to its P/N_BS
    shifters and one that combines each chain's P/N_RF shifters.
    """
    ps = component_counts(cfg).ps
    if not ps:
        return (0.0, 0.0, 0.0)
    split_stages = distribution_stages(ps // cfg.n_bs, catalog.max_fanout)
    combine_stages = distribution_stages(ps // cfg.rf_chains, catalog.max_fanout)
    return (catalog.splitter_il_db * split_stages, catalog.combiner_il_db * combine_stages,
            catalog.ps_il_db(cfg.ps_type))


def vga_gain_db(cfg: ReceiverConfig, catalog: ComponentPowerCatalog) -> float:
    """Baseband gain needed to bring the weakest input up to the ADC swing.

    The weakest input is a signal at the configured minimum per-antenna SNR
    over thermal noise at the configured temperature; LNA gain reduces the
    requirement, passive losses in the path increase it. The result may be
    negative when the input is already strong enough (callers clamp at 0
    before sizing VGA units).
    """
    is_db, ic_db, ip_db = distribution_losses(cfg, catalog)
    p_noise_w = K_BOLTZMANN * cfg.temperature_k * cfg.bandwidth_hz
    p_input_w = cfg.per_antenna_snr * p_noise_w + catalog.lna_noise_factor * p_noise_w
    required_db = 10 * math.log10(catalog.adc_target_w / p_input_w)
    return required_db - catalog.lna_gain_db + is_db + ip_db + ic_db + catalog.mixer_loss_db


def vga_power_mw(gain_db: float, catalog: ComponentPowerCatalog) -> float:
    """Power of one VGA cascade: whole gain units at fixed power per unit."""
    if not 0 <= gain_db < math.inf:
        raise ValueError("VGA gain must be finite and >= 0 dB (clamp negative requirements to 0)")
    units = math.ceil(gain_db / catalog.vga_unit_gain_db)
    return catalog.vga_unit_power_mw * units


def adc_power_w(n_bits: int, bandwidth_hz: float, catalog: ComponentPowerCatalog) -> float:
    """Walden-model ADC power: FoM * F_s * 2^bits with F_s = 2B."""
    if n_bits < 1:
        raise ValueError("n_bits must be >= 1")
    if not bandwidth_hz > 0:
        raise ValueError("bandwidth must be positive")
    return catalog.adc_fom_j_per_step_hz * bandwidth_hz * 2 ** (n_bits + 1)


def dsp_power_w(users: int, rf_chains: int, bandwidth_hz: float, catalog: ComponentPowerCatalog) -> float:
    """Digital-combining power: U*(2*N_RF - 1) multiply-accumulates per sample.

    The combiner output is computed once per OFDM symbol rather than per
    sample, so the operation count does not grow with the subcarrier count.
    """
    if users < 1:
        raise ValueError("users must be >= 1")
    if rf_chains < users:
        raise ValueError("rf_chains must be >= users")
    ops_per_s = users * (2 * rf_chains - 1) * bandwidth_hz
    return ops_per_s / catalog.dsp_fom_ops_per_w


def total_power(cfg: ReceiverConfig, catalog: ComponentPowerCatalog | None = None) -> PowerBreakdown:
    """Assemble the full receiver power breakdown of ``power_report``."""
    return power_report(cfg, catalog).breakdown


@dataclass(frozen=True)
class PowerRow:
    """One component group of the power table."""

    component: str
    count: int
    unit_power_mw: float
    total_w: float


@dataclass(frozen=True)
class PowerReport:
    """Tabular breakdown: one row per component group."""

    rows: tuple[PowerRow, ...]

    @property
    def breakdown(self) -> PowerBreakdown:
        return PowerBreakdown(**{f"{row.component}_w": row.total_w for row in self.rows})


def power_report(cfg: ReceiverConfig, catalog: ComponentPowerCatalog | None = None) -> PowerReport:
    """Breakdown table with per-unit powers, as emitted by the CLI: each
    group's count and unit power, and the group totals built from them.
    Every value lies in its domain (``config._DOMAINS``), so every power is
    a finite float. Raises ConfigError if ``validate_config`` rejects ``cfg``."""
    if catalog is None:
        catalog = ComponentPowerCatalog()
    counts = component_counts(validate_config(cfg))
    ps_mw = catalog.ps_active_power_mw if cfg.ps_type is PhaseShifterType.ACTIVE else 0.0
    vga_mw = vga_power_mw(max(0.0, vga_gain_db(cfg, catalog)), catalog)
    mw_groups = (("lna", counts.lna, lna_power_mw(catalog)), ("ps", counts.ps, ps_mw),
                 ("lo", counts.lo, catalog.lo_power_mw),
                 ("mixer", counts.mixers, catalog.mixer_power_mw), ("vga", counts.vga, vga_mw))
    adc_w = adc_power_w(cfg.adc_bits, cfg.bandwidth_hz, catalog)
    dsp_w = dsp_power_w(cfg.users, cfg.rf_chains, cfg.bandwidth_hz, catalog)
    rows = tuple(PowerRow(name, count, unit_mw, count * unit_mw * 1e-3)
                 for name, count, unit_mw in mw_groups) + (
        PowerRow("adc", counts.adc, adc_w * 1e3, counts.adc * adc_w),
        PowerRow("dsp", 1, dsp_w * 1e3, dsp_w),
    )
    return PowerReport(rows)
