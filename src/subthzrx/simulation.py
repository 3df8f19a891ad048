"""Symbol-level wideband Monte Carlo link simulation and SINR estimation.

A trial draws a channel realization, designs the combiner stack for it,
pushes a block of Gaussian symbols through the system with fresh antenna
noise, and estimates the post-combining SINR per user and subcarrier with a
genie-aided least-squares gain fit against the known transmitted symbols.
Spectral efficiency is the per-user capacity summed over users and averaged
over subcarriers.

Streams are unit total power (per-user symbol variance 1/U) and the noise
power is 1/snr per antenna, so the configured per-antenna SNR is the single
knob shared with the VGA sizing rule in the power model.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

import numpy as np

from .beamforming import CombinerSet, _is_identity, design_combiners, effective_channel
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
    n_bs = channel.n_rx
    if k_count != channel.subcarriers or users != channel.n_users:
        raise ValueError(
            f"symbols shape {symbols.shape} inconsistent with channel "
            f"(U={channel.n_users}, K={channel.subcarriers})")
    if combiners.w_d.shape[0] != k_count or combiners.w_rf.shape[0] != n_bs:
        raise ValueError("combiner shapes inconsistent with channel")

    w_d_h = combiners.w_d.conj().swapaxes(-1, -2)
    # (K, U, U): map from transmitted streams to outputs
    stream_map = w_d_h @ effective_channel(channel, combiners.w_rf, combiners.v_rf)
    # (K, U, N_BS): full linear map from antennas to stream outputs
    rx_map = w_d_h if _is_identity(combiners.w_rf) else w_d_h @ combiners.w_rf.conj().T

    received = np.einsum("kuv,tvk->tuk", stream_map, symbols)
    if noise_power > 0:
        rng = np.random.default_rng(seed)
        amp = np.sqrt(noise_power / 2)
        # One buffer for every subcarrier: a block allocated per subcarrier
        # lets small allocations split its freed space, and peak RSS then
        # depends on heap layout.
        normals = np.empty((2 * n_bs, n_symbols))
        for k in range(k_count):
            re, im = rx_map[k].real, rx_map[k].imag
            real_map = amp * np.block([[re, -im], [im, re]])          # (2U, 2 N_BS)
            noise = real_map @ rng.standard_normal(out=normals)
            received[:, :, k] += (noise[:users] + 1j * noise[users:]).T
    return received


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
    validate_config(cfg)
    if cfg.per_antenna_snr <= 0:
        raise ValueError("per-antenna SNR must be positive to simulate")
    if chan_params is None:
        chan_params = ClusterChannelParams()
    seed = params.seed if trial_seed is None else trial_seed
    chan_seed, symbol_seed, noise_seed = (
        int(s) for s in np.random.SeedSequence(seed).generate_state(3, np.uint64))

    channel = generate_channel(cfg, dataclasses.replace(chan_params, seed=chan_seed))
    combiners = design_combiners(channel, cfg, refine_sweeps=params.refine_sweeps,
                                 refine_tol=params.refine_tol)
    symbols = generate_symbols(cfg.users, cfg.subcarriers, params.symbols_per_trial, symbol_seed)
    received = apply_system(symbols, channel, combiners, 1.0 / cfg.per_antenna_snr, noise_seed)
    sinr = estimate_sinr(symbols, received, params.sinr_floor)
    return TrialResult(sinr=sinr, se_bits_hz=compute_se(sinr), seed=seed,
                       symbols_used=params.symbols_per_trial)


def run_monte_carlo(cfg: ReceiverConfig, params: SimulationParams,
                    chan_params: ClusterChannelParams | None = None) -> MonteCarloResult:
    """Average spectral efficiency over ``params.trials`` trials seeded
    ``params.seed + i``."""
    results = tuple(
        run_trial(cfg, params, chan_params, trial_seed=params.seed + i)
        for i in range(params.trials))
    ses = np.array([r.se_bits_hz for r in results])
    std = float(np.std(ses, ddof=1)) if len(ses) > 1 else 0.0
    return MonteCarloResult(mean_se_bits_hz=float(np.mean(ses)), std_se_bits_hz=std, trials=results)
