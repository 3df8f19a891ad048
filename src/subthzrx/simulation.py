"""Symbol-level wideband Monte Carlo link simulation and SINR estimation.

A trial draws a channel realization, designs the combiner stack for it,
pushes a block of Gaussian symbols through the system with fresh antenna
noise, and estimates the post-combining SINR per user and subcarrier with a
genie-aided least-squares gain fit against the known transmitted symbols.
Spectral efficiency is the per-user capacity summed over users and averaged
over subcarriers. Configurations that differ only in what the receiver
reads (a sweep's points at one array size) share each trial's draw: the
channel, precoder, symbols and noise normals are drawn once.

On that draw, what a configuration receives depends only on its signal key
(architecture, chain count, ``snr_db``): ADC resolution and
phase-shifter type do not enter the simulated signal path (they only move
power). Configurations with one key share one combiner design, receive pass
and SINR estimate, so a sweep simulates each (architecture, array size, SNR)
once however many power-only points it has.

Streams are unit total power (per-user symbol variance 1/U) and the noise
power is 1/snr per antenna, so the link reads the configured per-antenna SNR
as the SNR after the LNA. The VGA sizing rule in the power model
(``power.vga_gain_db``) reads the same ``snr_db`` as signal over kTB, with
the LNA noise factor on top. The offset is the same for every architecture,
so the ranking at one SNR does not change.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Iterator, Sequence
from dataclasses import dataclass, field

import numpy as np
import numpy.random  # loaded with the package, so forked sweep workers import nothing

from .beamforming import (REFINE_SWEEPS, REFINE_TOL, CombinerSet, _behind, _design_receiver,
                          _noise_power, _stream_channel, design_analog_combiner, design_tx_precoder)
from .channel import ClusterChannelParams, PathChannel, generate_channel
from .config import ReceiverConfig, _check_domains

NOISE_BLOCK_BYTES = 2 ** 20     # rows of antenna normals drawn at once: ~1 MiB, 131 rows at T = 1000


@dataclass(frozen=True)
class SimulationParams:
    """Monte Carlo settings, the one statement of how a trial runs.

    ``refine_sweeps``/``refine_tol`` control the analog-combiner refinement
    stage inside each trial (0 sweeps keeps the deterministic initializer).
    ``design_combiners``, ``refine_analog_combiner`` and ``estimate_sinr``
    default to the same budget and floor.
    """

    symbols_per_trial: int = 1000
    trials: int = 10
    sinr_floor: float = 1e-12
    seed: int = 0
    refine_sweeps: int = REFINE_SWEEPS
    refine_tol: float = REFINE_TOL

    def __post_init__(self):
        _check_domains(vars(self))

    @property
    def trial_seeds(self) -> range:
        """The seeds of the trials, in order: trial i draws from seed + i."""
        return range(self.seed, self.seed + self.trials)


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
    symbols = np.empty((n_symbols, users, subcarriers), dtype=complex)
    part = np.empty(symbols.shape)      # one real draw at a time, scaled into place
    for out in (symbols.real, symbols.imag):
        np.multiply(rng.standard_normal(out=part), scale, out=out)
    return symbols


def apply_system(symbols: np.ndarray, channel: PathChannel, combiners: CombinerSet,
                 noise_power: float, seed) -> np.ndarray:
    """Push symbols through precoding, channel, antenna noise, and combining.

    Per symbol t and subcarrier k:
        y = W_D[k]^H W_RF^H (H[k] Vbar s + z),  z ~ CN(0, noise_power I)
    with Vbar the power-normalized precoder. Returns (n_symbols, U, K).

    The signal is the (U, U) map W_D[k]^H W_RF^H H[k] Vbar times the
    symbols. Each subcarrier's noise is one real (2 N_BS, T) stream of
    normals, real parts above imaginary ones (the stream of two (N_BS, T)
    draws), combined by one real product with [[Re M, -Im M], [Im M, Re M]],
    M = W_D[k]^H W_RF^H, or W_D[k]^H for the digital array (``w_rf`` None).
    """
    if symbols.ndim != 3:
        raise ValueError(f"symbols must be (n_symbols, users, subcarriers), got shape {symbols.shape}")
    n_symbols, users, k_count = symbols.shape
    if not noise_power >= 0:
        raise ValueError("noise_power must be >= 0")
    if k_count != channel.subcarriers or users != channel.n_users:
        raise ValueError(
            f"symbols shape {symbols.shape} inconsistent with channel "
            f"(U={channel.n_users}, K={channel.subcarriers})")
    w_rf = combiners.w_rf
    rf_shape = (channel.n_rx, channel.n_rx) if w_rf is None else w_rf.shape
    if rf_shape[0] != channel.n_rx or combiners.w_d.shape != (k_count, rf_shape[-1], users):
        raise ValueError("combiner shapes inconsistent with channel")

    received = np.empty(symbols.shape, dtype=complex)
    for k, (output,) in enumerate(_receive(symbols, _stream_channel(channel, combiners.v_rf),
                                           [(w_rf, combiners.w_d, noise_power)], seed)):
        received[:, :, k] = output
    return received


def _receive(symbols: np.ndarray, stream: np.ndarray,
             receivers: Sequence[tuple[np.ndarray | None, np.ndarray, float]],
             seed) -> Iterator[list[np.ndarray]]:
    """Yields, for k = 0, 1, ..., the (T, U) outputs on subcarrier k of each
    (W_RF, W_D, noise_power) receiver for the stream channel H[k] V, as
    ``apply_system`` describes. Every receiver takes the same normals; a
    noise power of 0 is amplitude 0 on its real map. The normals come in
    blocks of about NOISE_BLOCK_BYTES of rows, which each receiver multiplies
    by the matching columns of its real map, so nothing held grows with K or
    N_BS."""
    n_symbols, users, k_count = symbols.shape
    stream_maps = [w_d.conj().swapaxes(-1, -2) @ _behind(w_rf, stream) for w_rf, w_d, _ in receivers]
    noise_maps = [(None if w_rf is None else w_rf.conj().T, w_d, np.sqrt(noise_power / 2))
                  for w_rf, w_d, noise_power in receivers]
    # Frees apply_system's stream channel, which it passes as a temporary.
    n_rows = 2 * stream.shape[1]
    del stream
    rows = min(n_rows, max(1, NOISE_BLOCK_BYTES // (8 * n_symbols)))
    rng, normals = np.random.default_rng(seed), np.empty((rows, n_symbols))
    for k in range(k_count):
        real_maps, noises = [], [np.zeros((2 * users, n_symbols)) for _ in receivers]
        for w_rf_h, w_d, amp in noise_maps:
            m = w_d[k].conj().T if w_rf_h is None else w_d[k].conj().T @ w_rf_h
            real_maps.append(amp * np.block([[m.real, -m.imag], [m.imag, m.real]]))     # (2U, 2 N_BS)
        for start in range(0, n_rows, rows):
            block = normals[:n_rows - start]
            rng.standard_normal(out=block)
            for real_map, noise in zip(real_maps, noises):
                noise += real_map[:, start:start + len(block)] @ block
        yield [symbols[:, :, k] @ stream_map[k].T + (noise[:users] + 1j * noise[users:]).T
               for stream_map, noise in zip(stream_maps, noises)]


def estimate_sinr(sent: np.ndarray, received: np.ndarray,
                  floor: float = SimulationParams.sinr_floor) -> np.ndarray:
    """Least-squares SINR estimate from a known symbol block.

    Fits the complex output gain g = (s^H s)^{-1} s^H y over the symbol axis
    (axis 0), then returns mean|g s|^2 / mean|y - g s|^2 with the residual
    floored at ``floor`` times the signal power so a noiseless fit yields
    1/floor instead of infinity. Trailing axes are treated independently.
    """
    if not floor > 0:
        raise ValueError(f"floor must be positive, got {floor!r}")
    sent, received = np.asarray(sent), np.asarray(received)
    if sent.shape != received.shape:
        raise ValueError(f"sent shape {sent.shape} != received shape {received.shape}")
    if sent.shape[0] < 2:
        raise ValueError("need at least 2 symbols to estimate SINR")
    if not (np.all(np.isfinite(sent)) and np.all(np.isfinite(received))):
        raise ValueError("sent or received symbols contain non-finite entries")
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
    if not np.all(sinr >= 0):
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
    """Average spectral efficiency over the trials of ``params.trial_seeds``."""
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
    the ``SeedSequence``-derived seeds of ``params.trial_seeds[i]``; each
    configuration designs its own W_RF and W_D on them, combines the shared
    noise with its own map and estimates its own SINR. Each outcome is the
    configuration's result or the exception its own stages raised, which
    also leaves it out of later trials; a failed shared draw or receive pass
    fails every configuration still in, as each would have raised it alone.
    An SNR the link cannot simulate raises ConfigError before any draw.
    """
    chan_params = ClusterChannelParams() if chan_params is None else chan_params
    for cfg in cfgs:
        _noise_power(cfg)
    outcomes: list[list[TrialResult] | Exception] = [[] for _ in cfgs]
    for seed in params.trial_seeds:
        live = [n for n, outcome in enumerate(outcomes) if isinstance(outcome, list)]
        if not live:
            break
        try:
            trial = _shared_trial([cfgs[n] for n in live], params, chan_params, seed)
        except Exception as exc:  # the shared draw failed
            trial = [exc] * len(live)
        for n, result in zip(live, trial):
            outcomes[n] = result if isinstance(result, Exception) else [*outcomes[n], result]
    return [outcome if isinstance(outcome, Exception) else _summary(outcome)
            for outcome in outcomes]


def _shared_trial(cfgs: list[ReceiverConfig], params: SimulationParams,
                  chan_params: ClusterChannelParams, seed: int) -> list[TrialResult | Exception]:
    """Trial ``seed`` of ``_shared_monte_carlo`` for valid configurations;
    raises if the shared draw or receive pass fails. Configurations with one
    signal key get one ``TrialResult`` (or exception)."""
    keys = [(receiver.architecture, receiver.rf_chains, receiver.snr_db) for receiver in cfgs]
    signals = dict(zip(keys, cfgs))     # one configuration per signal key, in first-seen order
    cfg = cfgs[0]
    chan_seed, symbol_seed, noise_seed = (
        int(s) for s in np.random.SeedSequence(seed).generate_state(3, np.uint64))

    channel = generate_channel(cfg, dataclasses.replace(chan_params, seed=chan_seed))
    stream = _stream_channel(channel, design_tx_precoder(channel, cfg))
    symbols = generate_symbols(cfg.users, cfg.subcarriers, params.symbols_per_trial, symbol_seed)
    outcomes: dict[tuple, TrialResult | Exception] = {}
    receivers = {}
    # The analog initializer reads the chain count, not the SNR: one per
    # (architecture, chain count), whose failure fails every configuration
    # that shares it.
    initial: dict[tuple, np.ndarray | None | Exception] = {}
    for signal, receiver in signals.items():
        key = (receiver.architecture, receiver.rf_chains)
        if key not in initial:
            try:
                initial[key] = design_analog_combiner(channel, receiver)
            except Exception as exc:  # isolate per initializer
                initial[key] = exc
        if isinstance(initial[key], Exception):
            outcomes[signal] = initial[key]
            continue
        try:
            receivers[signal] = (*_design_receiver(initial[key], stream, receiver, params.refine_sweeps,
                                                   params.refine_tol), _noise_power(receiver))
        except Exception as exc:  # isolate per signal key
            outcomes[signal] = exc
    sinrs = {signal: np.empty((cfg.users, cfg.subcarriers)) for signal in receivers}
    for k, outputs in enumerate(_receive(symbols, stream, list(receivers.values()), noise_seed)):
        for (signal, sinr), received in zip(sinrs.items(), outputs):
            try:
                if signal not in outcomes:      # has not failed on an earlier subcarrier
                    sinr[:, k] = estimate_sinr(symbols[:, :, k], received, params.sinr_floor)
                    if k + 1 == cfg.subcarriers:
                        outcomes[signal] = TrialResult(sinr=sinr, se_bits_hz=compute_se(sinr), seed=seed,
                                                       symbols_used=params.symbols_per_trial)
            except Exception as exc:  # isolate per signal key
                outcomes[signal] = exc
    return [outcomes[key] for key in keys]


def _summary(results: list[TrialResult]) -> MonteCarloResult:
    ses = np.array([r.se_bits_hz for r in results])
    std = float(np.std(ses, ddof=1)) if len(ses) > 1 else 0.0
    return MonteCarloResult(mean_se_bits_hz=float(np.mean(ses)), std_se_bits_hz=std,
                            trials=tuple(results))
