"""Energy-efficiency vs spectral-efficiency sweep orchestration.

A sweep runs the link simulation and the power model over the Cartesian
product of architectures, array sizes, ADC resolutions, phase-shifter types,
and SNR points, emitting one (SE, power, EE) point per distinct configuration.

The unit of work is one array size: its points see the same channel,
precoder, symbols and noise in every trial, so one task hands every point
configuration of the size to ``_shared_monte_carlo``, which draws them once
per trial, keys them by the signal path they share once per run, and returns
each point's outcome by configuration (bit for bit what each point's own
``run_monte_carlo`` gives). ``point_config`` raises ConfigError for a point
no receiver can be or the link cannot simulate, before any work. Faults
while simulating are recorded per point and do not abort the sweep: a signal
path whose own stages raise fails only its points, a failed shared draw fails
the points of its array size, and a worker process that dies fails only the
array size it was simulating. Results are emitted in a deterministic order
regardless of how workers complete.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from itertools import groupby, product

from .beamforming import _noise_power
from .channel import ClusterChannelParams
from .config import Architecture, ArrayGeometry, PhaseShifterType, ReceiverConfig, _check_domains
from .power import ComponentPowerCatalog, total_power
from .simulation import MonteCarloResult, SimulationParams, _shared_monte_carlo

REFERENCE_ARRAY_SIZES = (
    ArrayGeometry(16, 4), ArrayGeometry(32, 4), ArrayGeometry(24, 8), ArrayGeometry(32, 8),
    ArrayGeometry(48, 8), ArrayGeometry(32, 16), ArrayGeometry(48, 16), ArrayGeometry(64, 16),
)

_ARCH_ORDER = {arch: i for i, arch in enumerate(Architecture)}
_PS_ORDER = {ps: i for i, ps in enumerate(PhaseShifterType)}


@dataclass(frozen=True)
class SweepSpec:
    """Axes of an EE-vs-SE sweep, and the Monte Carlo settings of every point."""

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
            object.__setattr__(self, name, tuple(_check_domains({name: value})[name]
                                                 for value in getattr(self, name)))


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

    The point takes ``geometry`` as its base-station array and the other
    arguments as its settings; everything else, the element spacing
    included, is the base's. Hybrids keep a hybrid base's chain count;
    otherwise ``ReceiverConfig`` picks it (one chain per antenna for the
    digital array, one per user for a hybrid). Raises ConfigError naming
    the rule if no layout can build the point or its SNR cannot be simulated.
    """
    digital = Architecture.DIGITAL in (architecture, base.architecture)
    rf = None if digital else base.rf_chains
    cfg = dataclasses.replace(base, architecture=architecture, bs_geometry=geometry, rf_chains=rf,
                              adc_bits=adc_bits, ps_type=ps_type, snr_db=snr_db)
    _noise_power(cfg)
    return cfg


def config_id(cfg: ReceiverConfig, snr_db: float) -> str:
    """The point's id; its SNR is ``snr_db``, the receiver's ``snr_db`` in a
    sweep, as a CSV cell writes it, less a trailing ``.0``."""
    geom, snr = cfg.bs_geometry, repr(float(snr_db)).removesuffix(".0")
    return (f"{cfg.architecture.value}_{geom.rows}x{geom.cols}_rf{cfg.rf_chains}"
            f"_adc{cfg.adc_bits}_{cfg.ps_type.value}_snr{snr}dB")


def run_sweep(spec: SweepSpec, base: ReceiverConfig | None = None,
              catalog: ComponentPowerCatalog | None = None,
              chan_params: ClusterChannelParams | None = None,
              jobs: int = 1) -> SweepResult:
    """Run the full sweep; emit points sorted by (architecture, N_BS, ...).

    Each array size is one task that simulates all of its points on one
    shared draw per trial. ``jobs > 1`` distributes the tasks over at most
    ``jobs`` worker processes, one per task at most; output content and
    order are independent of the worker count.
    """
    if base is None:
        base = ReceiverConfig()

    configs = sorted(
        {point_config(base, *axes) for axes in product(
            spec.architectures, spec.array_sizes, spec.adc_bits, spec.ps_types, spec.snr_db)},
        key=lambda cfg: (_ARCH_ORDER[cfg.architecture], cfg.n_bs, cfg.bs_geometry.rows,
                         cfg.adc_bits, _PS_ORDER[cfg.ps_type], cfg.snr_db))
    # One task per array size, largest first, so the longest tasks start first.
    tasks = [tuple(task) for _, task in groupby(
        sorted(configs, key=lambda cfg: (-cfg.n_bs, -cfg.bs_geometry.rows)),
        key=lambda cfg: cfg.bs_geometry)]
    outcomes = _simulate_geometries(tasks, spec.sim, chan_params, jobs)
    points: list[TradeoffPoint] = []
    failures: list[SweepFailure] = []
    for cfg in configs:
        cid = config_id(cfg, cfg.snr_db)
        if isinstance(outcome := outcomes[cfg], Exception):
            failures.append(SweepFailure(cid, str(outcome)))
            continue
        power_w = total_power(cfg, catalog).total_w
        points.append(TradeoffPoint(
            config_id=cid, config=cfg, se_bits_hz=outcome.mean_se_bits_hz,
            se_std_bits_hz=outcome.std_se_bits_hz, power_w=power_w,
            ee_bits_per_joule=compute_ee(outcome.mean_se_bits_hz, cfg.bandwidth_hz, power_w)))
    return SweepResult(points=tuple(points), failures=tuple(failures))


def _simulate_geometries(tasks: list[tuple[ReceiverConfig, ...]], sim: SimulationParams,
                         chan_params: ClusterChannelParams | None,
                         jobs: int) -> dict[ReceiverConfig, MonteCarloResult | Exception]:
    """Every geometry task's outcomes, by configuration.

    With ``jobs > 1`` and more than one task, the tasks share a pool of
    ``min(jobs, len(tasks))`` workers. The pool always forks, whatever the
    platform's default start method: workers start warm from the parent
    (package and numpy loaded), and the fork context starts every worker at
    the first submit. If a worker dies, each task the pool did not finish is
    rerun alone on a fresh one-worker pool, one after another, so only a
    task that kills its own worker fails.
    """
    fork = multiprocessing.get_context("fork")
    if jobs <= 1 or len(tasks) <= 1:
        results = {cfgs: _shared_monte_carlo(cfgs, sim, chan_params) for cfgs in tasks}
    else:
        with ProcessPoolExecutor(max_workers=min(jobs, len(tasks)), mp_context=fork) as pool:
            futures = {cfgs: pool.submit(_shared_monte_carlo, cfgs, sim, chan_params) for cfgs in tasks}
            results = {cfgs: _collect(future, cfgs) for cfgs, future in futures.items()}
    outcomes: dict[ReceiverConfig, MonteCarloResult | Exception] = {}
    for cfgs, result in results.items():
        if result is None:
            with ProcessPoolExecutor(max_workers=1, mp_context=fork) as pool:
                result = _collect(pool.submit(_shared_monte_carlo, cfgs, sim, chan_params), cfgs)
        if result is None:
            result = dict.fromkeys(cfgs, RuntimeError("worker process died while simulating this array size"))
        outcomes.update(result)
    return outcomes


def _collect(future: Future, cfgs: tuple[ReceiverConfig, ...]) -> dict | None:
    """A task's outcomes, by configuration; None if its worker pool broke."""
    try:
        return future.result()
    except BrokenProcessPool:
        return None
    except Exception as exc:  # e.g. an outcome that cannot be pickled
        return dict.fromkeys(cfgs, exc)
