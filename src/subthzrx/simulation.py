"""Symbol-level wideband Monte Carlo link simulation and SINR estimation.

A trial draws a channel realization, designs the combiner stack for it,
pushes a block of Gaussian symbols through the system with fresh antenna
noise, and estimates the post-combining SINR per user and subcarrier with a
genie-aided least-squares gain fit against the known transmitted symbols.
Spectral efficiency is the per-user capacity summed over users and averaged
over subcarriers. Configurations that differ only in what the receiver
reads (a sweep's architectures and SNRs at one array size) share each
trial's draw: the channel, precoder, symbols and noise normals are drawn
once, and each configuration designs and applies its own combiners.

Streams are unit total power (per-user symbol variance 1/U) and the noise
power is 1/snr per antenna, so the configured per-antenna SNR is the single
knob shared with the VGA sizing rule in the power model.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field

import numpy as np

from .beamforming import (CombinerSet, _behind, _design_receiver, _is_identity, _stream_channel,
                          design_tx_precoder)
from .channel import Channel, ClusterChannelParams, generate_channel
from .config import ReceiverConfig, validate_config


@dataclass(frozen=True)
class SimulationParams:
    """Monte Carlo settings.

    ``refine_sweeps``/``refine_tol`` control the analog-combiner refinement
    stage inside each trial (0 sweeps keeps the deterministic initializer).
    """

    symbols_per_trial: int = 1000
    trials: int = 10
    sinr_floor: float = 1e-12
    seed: int = 0
    refine_sweeps: int = 1
    refine_tol: float = 1e-3

    def __post_init__(self):
        if self.symbols_per_trial < 2:
            raise ValueError("symbols_per_trial must be >= 2 (the SINR estimator needs two)")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.sinr_floor <= 0:
            raise ValueError("sinr_floor must be positive")
        if self.refine_sweeps < 0:
            raise ValueError("refine_sweeps must be >= 0")
        if self.refine_tol < 0:
            raise ValueError("refine_tol must be >= 0")


@dataclass(frozen=True, eq=False)
class TrialResult:
    """Outcome of one Monte Carlo trial."""

    sinr: np.ndarray          # (users, subcarriers), linear
    se_bits_hz: float
    seed: int
    symbols_used: int


@dataclass(frozen=True, eq=False)
class MonteCarloResult:
    """Aggregate over independently seeded trials."""

    mean_se_bits_hz: float
    std_se_bits_hz: float
    trials: tuple[TrialResult, ...] = field(repr=False)


def generate_symbols(users: int, subcarriers: int, n_symbols: int, seed) -> np.ndarray:
    """I.i.d. circularly symmetric Gaussian symbols, shape (n_symbols, U, K),
    per-stream variance 1/U (unit total transmit power)."""
    if users < 1 or subcarriers < 1 or n_symbols < 1:
        raise ValueError("users, subcarriers and n_symbols must be >= 1")
    rng = np.random.default_rng(seed)
    scale = np.sqrt(1.0 / (2 * users))
    shape = (n_symbols, users, subcarriers)
    return scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


def apply_system(symbols: np.ndarray, channel: Channel, combiners: CombinerSet,
                 noise_power: float, seed) -> np.ndarray:
    """Push symbols through precoding, channel, antenna noise, and combining.

    Per symbol t and subcarrier k:
        y = W_D[k]^H W_RF^H (H[k] Vbar s + z),  z ~ CN(0, noise_power I)
    with Vbar the power-normalized precoder. Returns (n_symbols, U, K).

    Each subcarrier's noise is one real (2 N_BS, T) block of normals, real
    parts above imaginary ones (the stream of two (N_BS, T) draws), combined
    by one real product with [[Re M, -Im M], [Im M, Re M]], M = W_D[k]^H W_RF^H.
    An identity W_RF is not multiplied.
    """
    if symbols.ndim != 3:
        raise ValueError(f"symbols must be (n_symbols, users, subcarriers), got shape {symbols.shape}")
    n_symbols, users, k_count = symbols.shape
    if noise_power < 0:
        raise ValueError("noise_power must be >= 0")
    if k_count != channel.subcarriers or users != channel.n_users:
        raise ValueError(
            f"symbols shape {symbols.shape} inconsistent with channel "
            f"(U={channel.n_users}, K={channel.subcarriers})")
    if combiners.w_d.shape[0] != k_count or combiners.w_rf.shape[0] != channel.n_rx:
        raise ValueError("combiner shapes inconsistent with channel")

    received, rx_map = _link(symbols, _stream_channel(channel, combiners.v_rf),
                             combiners.w_rf, combiners.w_d)
    _add_noise([(received, rx_map, noise_power)], seed)
    return received


def _link(symbols: np.ndarray, stream: np.ndarray, w_rf: np.ndarray,
          w_d: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One receiver's noiseless outputs (T, U, K) for the stream channel
    H[k] V, and its map from antennas to outputs M = W_D[k]^H W_RF^H
    (K, U, N_BS)."""
    w_d_h = w_d.conj().swapaxes(-1, -2)
    received = np.einsum("kuv,tvk->tuk", w_d_h @ _behind(w_rf, stream), symbols)
    rx_map = w_d_h if _is_identity(w_rf) else w_d_h @ w_rf.conj().T
    return received, rx_map


def _add_noise(links: Iterable[tuple[np.ndarray, np.ndarray, float]], seed) -> None:
    """Add antenna noise in place to the outputs of each (received, rx_map,
    noise_power) link, as ``apply_system`` describes. Every link combines
    the same draw of normals with its own map."""
    noisy = [(received, rx_map, np.sqrt(noise_power / 2))
             for received, rx_map, noise_power in links if noise_power > 0]
    if not noisy:
        return
    n_symbols, users, k_count = noisy[0][0].shape
    rng = np.random.default_rng(seed)
    # One buffer for every subcarrier: a block allocated per subcarrier
    # lets small allocations split its freed space, and peak RSS then
    # depends on heap layout.
    normals = np.empty((2 * noisy[0][1].shape[-1], n_symbols))
    for k in range(k_count):
        rng.standard_normal(out=normals)
        for received, rx_map, amp in noisy:
            re, im = rx_map[k].real, rx_map[k].imag
            real_map = amp * np.block([[re, -im], [im, re]])          # (2U, 2 N_BS)
            noise = real_map @ normals
            received[:, :, k] += (noise[:users] + 1j * noise[users:]).T


def estimate_sinr(sent: np.ndarray, received: np.ndarray, floor: float = 1e-12) -> np.ndarray:
    """Least-squares SINR estimate from a known symbol block.

    Fits the complex output gain g = (s^H s)^{-1} s^H y over the symbol axis
    (axis 0), then returns mean|g s|^2 / mean|y - g s|^2 with the residual
    floored at ``floor`` times the signal power so a noiseless fit yields
    1/floor instead of infinity. Trailing axes are treated independently.
    """
    sent = np.asarray(sent)
    received = np.asarray(received)
    if sent.shape != received.shape:
        raise ValueError(f"sent shape {sent.shape} != received shape {received.shape}")
    if sent.shape[0] < 2:
        raise ValueError("need at least 2 symbols to estimate SINR")
    energy = np.sum(np.abs(sent) ** 2, axis=0)
    if np.any(energy == 0):
        raise ValueError("sent symbols are identically zero for some stream")
    gain = np.sum(sent.conj() * received, axis=0) / energy
    fitted = gain[None, ...] * sent
    signal = np.mean(np.abs(fitted) ** 2, axis=0)
    residual = np.mean(np.abs(received - fitted) ** 2, axis=0)
    denom = np.maximum(residual, floor * signal)
    return np.divide(signal, denom, out=np.zeros_like(signal), where=denom > 0)


def compute_se(sinr: np.ndarray) -> float:
    """Spectral efficiency: capacities averaged over subcarriers, summed over
    users. ``sinr`` is (users, subcarriers), linear."""
    sinr = np.asarray(sinr)
    if np.any(sinr < 0):
        raise ValueError("SINR entries must be >= 0")
    return float(np.sum(np.log2(1.0 + sinr)) / sinr.shape[-1])


def run_trial(cfg: ReceiverConfig, params: SimulationParams,
              chan_params: ClusterChannelParams | None = None,
              trial_seed: int | None = None) -> TrialResult:
    """One end-to-end trial: channel draw, combiner design, symbol-level
    simulation, SINR estimation. Deterministic for a fixed seed."""
    seed = params.seed if trial_seed is None else trial_seed
    one = dataclasses.replace(params, seed=seed, trials=1)
    return run_monte_carlo(cfg, one, chan_params).trials[0]


def run_monte_carlo(cfg: ReceiverConfig, params: SimulationParams,
                    chan_params: ClusterChannelParams | None = None) -> MonteCarloResult:
    """Average spectral efficiency over ``params.trials`` trials seeded
    ``params.seed + i``."""
    (outcome,) = _shared_monte_carlo((cfg,), params, chan_params)
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


def _shared_monte_carlo(cfgs: Sequence[ReceiverConfig], params: SimulationParams,
                        chan_params: ClusterChannelParams | None = None
                        ) -> list[MonteCarloResult | Exception]:
    """``run_monte_carlo`` of every configuration in ``cfgs``, on one
    shared draw per trial.

    The configurations share the channel's inputs (arrays, users,
    subcarriers, bandwidth) and differ in what only the receiver reads, such
    as architecture, chain count and SNR. Trial i draws the channel,
    precoder, stream channel H[k] V, symbols and noise normals once, from
    the ``SeedSequence``-derived seeds of ``params.seed + i``; each
    configuration designs its own W_RF and W_D on them, combines the shared
    noise with its own map and estimates its own SINR. Each outcome is the
    configuration's result or the exception its own stages raised, which
    also leaves it out of later trials; a failed shared draw fails every
    configuration still in, as each would have raised it alone.
    """
    outcomes: list[list[TrialResult] | Exception] = []
    for cfg in cfgs:
        try:
            validate_config(cfg)
            if cfg.per_antenna_snr <= 0:
                raise ValueError("per-antenna SNR must be positive to simulate")
            outcomes.append([])
        except ValueError as exc:
            outcomes.append(exc)
    for i in range(params.trials):
        live = [n for n, outcome in enumerate(outcomes) if isinstance(outcome, list)]
        if not live:
            break
        try:
            trial = _shared_trial([cfgs[n] for n in live], params, chan_params, params.seed + i)
        except Exception as exc:  # the shared draw failed
            trial = [exc] * len(live)
        for n, result in zip(live, trial):
            if isinstance(result, Exception):
                outcomes[n] = result
            else:
                outcomes[n].append(result)
    return [outcome if isinstance(outcome, Exception) else _summary(outcome)
            for outcome in outcomes]


def _shared_trial(cfgs: list[ReceiverConfig], params: SimulationParams,
                  chan_params: ClusterChannelParams | None,
                  seed: int) -> list[TrialResult | Exception]:
    """Trial ``seed`` of ``_shared_monte_carlo`` for valid configurations;
    raises if the shared draw fails."""
    cfg = cfgs[0]
    if chan_params is None:
        chan_params = ClusterChannelParams()
    chan_seed, symbol_seed, noise_seed = (
        int(s) for s in np.random.SeedSequence(seed).generate_state(3, np.uint64))

    channel = generate_channel(cfg, dataclasses.replace(chan_params, seed=chan_seed))
    stream = _stream_channel(channel, design_tx_precoder(channel, cfg))
    symbols = generate_symbols(cfg.users, cfg.subcarriers, params.symbols_per_trial, symbol_seed)
    outcomes: list[TrialResult | Exception | None] = [None] * len(cfgs)
    links = {}
    for n, receiver in enumerate(cfgs):
        try:
            w_rf, w_d = _design_receiver(channel, stream, receiver, params.refine_sweeps,
                                         params.refine_tol)
            links[n] = (*_link(symbols, stream, w_rf, w_d), 1.0 / receiver.per_antenna_snr)
        except Exception as exc:  # isolate per configuration
            outcomes[n] = exc
    _add_noise(links.values(), noise_seed)
    for n in list(links):
        received = links.pop(n)[0]
        try:
            sinr = estimate_sinr(symbols, received, params.sinr_floor)
            outcomes[n] = TrialResult(sinr=sinr, se_bits_hz=compute_se(sinr), seed=seed,
                                      symbols_used=params.symbols_per_trial)
        except Exception as exc:
            outcomes[n] = exc
    return outcomes


def _summary(results: list[TrialResult]) -> MonteCarloResult:
    ses = np.array([r.se_bits_hz for r in results])
    std = float(np.std(ses, ddof=1)) if len(ses) > 1 else 0.0
    return MonteCarloResult(mean_se_bits_hz=float(np.mean(ses)), std_se_bits_hz=std,
                            trials=tuple(results))
