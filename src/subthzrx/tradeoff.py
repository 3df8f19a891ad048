"""Energy-efficiency vs spectral-efficiency sweep orchestration.

A sweep runs the link simulation and the power model over the Cartesian
product of architectures, array sizes, ADC resolutions, phase-shifter types,
and SNR points, emitting one (SE, power, EE) point per combination. ADC
resolution and phase-shifter type do not enter the simulated signal path
(they only move power), so spectral efficiency is simulated once per
(architecture, array size, SNR) group and reused across the power-only axes.

The unit of work is one array size: its groups see the same channel,
precoder, symbols and noise in every trial, so one task draws them once per
trial and simulates every group of the size on that draw (bit for bit what
each group's own ``run_monte_carlo`` gives). Failures are recorded per
point and do not abort the sweep: a group whose own stages raise fails only
its points, a failed shared draw fails the groups of its array size, and a
worker process that dies fails only the array size it was simulating.
Results are emitted in a deterministic order regardless of how workers
complete.
"""

from __future__ import annotations

import dataclasses
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field

from .channel import ClusterChannelParams
from .config import Architecture, ArrayGeometry, PhaseShifterType, ReceiverConfig
from .power import ComponentPowerCatalog, PowerBreakdown, total_power
from .simulation import MonteCarloResult, SimulationParams, _shared_monte_carlo

REFERENCE_ARRAY_SIZES = (
    ArrayGeometry(16, 4), ArrayGeometry(32, 4), ArrayGeometry(24, 8), ArrayGeometry(32, 8),
    ArrayGeometry(48, 8), ArrayGeometry(32, 16), ArrayGeometry(48, 16), ArrayGeometry(64, 16),
)

_ARCH_ORDER = {arch: i for i, arch in enumerate(Architecture)}
_PS_ORDER = {ps: i for i, ps in enumerate(PhaseShifterType)}


@dataclass(frozen=True)
class SweepSpec:
    """Axes of an EE-vs-SE sweep."""

    architectures: tuple[Architecture, ...] = tuple(Architecture)
    array_sizes: tuple[ArrayGeometry, ...] = REFERENCE_ARRAY_SIZES
    adc_bits: tuple[int, ...] = (5, 10)
    ps_types: tuple[PhaseShifterType, ...] = tuple(PhaseShifterType)
    snr_db: tuple[float, ...] = (0.0, 10.0)
    sim: SimulationParams = field(default_factory=SimulationParams)

    def __post_init__(self):
        for name in ("architectures", "array_sizes", "adc_bits", "ps_types", "snr_db"):
            if not getattr(self, name):
                raise ValueError(f"sweep axis {name} must be non-empty")


@dataclass(frozen=True)
class TradeoffPoint:
    """One sweep outcome: a configuration with its SE, power, and EE."""

    config_id: str
    config: ReceiverConfig
    se_bits_hz: float
    se_std_bits_hz: float
    power_w: float
    ee_bits_per_joule: float


@dataclass(frozen=True)
class SweepFailure:
    """A sweep point that raised instead of producing a result."""

    config_id: str
    error: str


@dataclass(frozen=True)
class SweepResult:
    points: tuple[TradeoffPoint, ...]
    failures: tuple[SweepFailure, ...]


def compute_ee(se_bits_hz: float, bandwidth_hz: float, power_w: float) -> float:
    """Energy efficiency in bits/J: delivered rate per watt, se * B / P."""
    if not power_w > 0:
        raise ValueError("power must be positive")
    if not se_bits_hz >= 0:
        raise ValueError("spectral efficiency must be >= 0")
    if not bandwidth_hz > 0:
        raise ValueError("bandwidth must be positive")
    return se_bits_hz * bandwidth_hz / power_w


def point_config(base: ReceiverConfig, architecture: Architecture, geometry: ArrayGeometry,
                 adc_bits: int, ps_type: PhaseShifterType, snr_db: float) -> ReceiverConfig:
    """Specialize the base configuration for one sweep point.

    The base-station array takes its rows and columns from ``geometry`` and
    keeps the base element spacing. The digital array gets one chain per
    antenna; hybrids keep the base chain count (which defaults to the user
    count when the base is digital).
    """
    if architecture is Architecture.DIGITAL:
        rf = geometry.count
    elif base.architecture is Architecture.DIGITAL:
        rf = base.users
    else:
        rf = base.rf_chains
    bs = ArrayGeometry(geometry.rows, geometry.cols, base.bs_geometry.spacing_wavelengths)
    return dataclasses.replace(
        base, architecture=architecture, bs_geometry=bs, rf_chains=rf,
        adc_bits=adc_bits, ps_type=ps_type, per_antenna_snr=10 ** (snr_db / 10))


def config_id(cfg: ReceiverConfig, snr_db: float) -> str:
    geom = cfg.bs_geometry
    return (f"{cfg.architecture.value}_{geom.rows}x{geom.cols}_rf{cfg.rf_chains}"
            f"_adc{cfg.adc_bits}_{cfg.ps_type.value}_snr{snr_db:g}dB")


def run_sweep(spec: SweepSpec, base: ReceiverConfig | None = None,
              catalog: ComponentPowerCatalog | None = None,
              chan_params: ClusterChannelParams | None = None,
              jobs: int = 1) -> SweepResult:
    """Run the full sweep; emit points sorted by (architecture, N_BS, ...).

    Each array size is one task that simulates all of its (architecture,
    SNR) groups on one shared draw per trial. ``jobs > 1`` distributes the
    tasks over at most ``jobs`` worker processes, one per task at most;
    output content and order are independent of the worker count.
    """
    if base is None:
        base = ReceiverConfig()
    if catalog is None:
        catalog = ComponentPowerCatalog()
    if chan_params is None:
        chan_params = ClusterChannelParams()

    combos = sorted(
        ((arch, geom, bits, ps, snr)
         for arch in set(spec.architectures)
         for geom in set(spec.array_sizes)
         for bits in set(spec.adc_bits)
         for ps in set(spec.ps_types)
         for snr in set(spec.snr_db)),
        key=lambda c: (_ARCH_ORDER[c[0]], c[1].count, c[1].rows, c[2], _PS_ORDER[c[3]], c[4]))

    # One simulation per (architecture, geometry, snr): ADC bits and PS type
    # only change power. Groups are collected per geometry, largest first,
    # so the longest tasks start first.
    by_geometry: dict[ArrayGeometry, list[tuple]] = {}
    for group in sorted({(c[0], c[1], c[4]) for c in combos},
                        key=lambda g: (-g[1].count, -g[1].rows, _ARCH_ORDER[g[0]], g[2])):
        by_geometry.setdefault(group[1], []).append(group)
    tasks = [tuple(point_config(base, arch, geom, spec.adc_bits[0], spec.ps_types[0], snr)
                   for arch, geom, snr in groups) for groups in by_geometry.values()]
    se_results: dict[tuple, MonteCarloResult | Exception] = {}
    for groups, outcomes in zip(by_geometry.values(),
                                _simulate_geometries(tasks, spec.sim, chan_params, jobs)):
        se_results.update(zip(groups, outcomes))

    points: list[TradeoffPoint] = []
    failures: list[SweepFailure] = []
    for arch, geom, bits, ps, snr in combos:
        cfg = point_config(base, arch, geom, bits, ps, snr)
        cid = config_id(cfg, snr)
        outcome = se_results[(arch, geom, snr)]
        if isinstance(outcome, Exception):
            failures.append(SweepFailure(cid, str(outcome)))
            continue
        try:
            breakdown: PowerBreakdown = total_power(cfg, catalog)
            ee = compute_ee(outcome.mean_se_bits_hz, cfg.bandwidth_hz, breakdown.total_w)
        except Exception as exc:
            failures.append(SweepFailure(cid, str(exc)))
            continue
        points.append(TradeoffPoint(
            config_id=cid, config=cfg, se_bits_hz=outcome.mean_se_bits_hz,
            se_std_bits_hz=outcome.std_se_bits_hz, power_w=breakdown.total_w,
            ee_bits_per_joule=ee))
    return SweepResult(points=tuple(points), failures=tuple(failures))


def _simulate_geometries(tasks: list[tuple[ReceiverConfig, ...]], sim: SimulationParams,
                         chan_params: ClusterChannelParams,
                         jobs: int) -> list[list[MonteCarloResult | Exception]]:
    """Every geometry task's outcomes, in task order.

    With ``jobs > 1`` and more than one task, the tasks share a pool of
    ``min(jobs, len(tasks))`` workers (the fork context starts every worker
    at the first submit). If a worker dies, each task the pool did not
    finish is rerun alone on a fresh one-worker pool, one after another, so
    only a task that kills its own worker fails.
    """
    if jobs <= 1 or len(tasks) <= 1:
        return [_shared_monte_carlo(cfgs, sim, chan_params) for cfgs in tasks]
    with ProcessPoolExecutor(max_workers=min(jobs, len(tasks))) as pool:
        futures = [pool.submit(_shared_monte_carlo, cfgs, sim, chan_params) for cfgs in tasks]
        outcomes = [_collect(future, len(cfgs)) for cfgs, future in zip(tasks, futures)]
    for n, cfgs in enumerate(tasks):
        if outcomes[n] is None:
            with ProcessPoolExecutor(max_workers=1) as pool:
                outcomes[n] = _collect(pool.submit(_shared_monte_carlo, cfgs, sim, chan_params),
                                       len(cfgs))
            if outcomes[n] is None:
                died = RuntimeError("worker process died while simulating this array size")
                outcomes[n] = [died] * len(cfgs)
    return outcomes


def _collect(future: Future, groups: int) -> list[MonteCarloResult | Exception] | None:
    """A task's outcomes from its future; None if its worker pool broke."""
    try:
        return future.result()
    except BrokenProcessPool:
        return None
    except Exception as exc:  # e.g. an outcome that cannot be pickled
        return [exc] * groups
