"""Hardware-constrained analog precoder/combiner design and MMSE combining.

Analog weights are realized by phase shifters: every entry of the transmit
precoder and the receive combiner is unit modulus on its hardware support
(Sohrabi & Yu, IEEE JSTSP 2016; ``_block_support``, ``_combiner_support``)
and zero off it. Both stages start from one deterministic initializer
(``_aligned_modes``): the phases of the dominant eigenvectors of each
support block's wideband covariance. An optional coordinate-ascent
refinement then sweeps the combiner's free phases over a 64-point grid and
never decreases a wideband log-det sum-rate surrogate; ``_GridScorer``
scores the 64 phases of one entry in closed form from a few vectors of
length K (N_RF + U), with the same moves as recomputing the log-dets for
every candidate.

The digital combiner is the per-subcarrier MMSE solution on the effective
channel behind the analog stages, in its push-through form: one Hermitian
pseudo-inverse of a U x U matrix per subcarrier, the zero-forcing limit
where the regularizer is below rounding. The digital array has no analog
stage: its ``w_rf`` is None, so nothing is multiplied or solved with one.
Each user's phased array radiates total power 1/U whatever its element
count: the unit-modulus precoder columns act through a 1/sqrt(N_U) power
split, applied in ``_stream_channel`` only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import ChannelDimensionError, PathChannel
from .config import Architecture, ConfigError, ReceiverConfig

PHASE_GRID_SIZE = 64
UNIT_MODULUS_TOL = 1e-9
_PHASE_GRID = np.exp(2j * np.pi * np.arange(PHASE_GRID_SIZE) / PHASE_GRID_SIZE)
_GRID_COLUMN = _PHASE_GRID[:, None]  # one candidate per row of the scorer's (64, K+1) stacks
_RANK_TOL = 1e-9  # smallest accepted share of a column outside the span of the others
REFINE_SWEEPS = 1  # a run's refinement budget, SimulationParams' default
REFINE_TOL = 1e-3  # and its stop: the relative surrogate gain below which a sweep is the last


@dataclass(frozen=True, eq=False)
class CombinerSet:
    """Analog TX precoder, analog RX combiner, per-subcarrier digital combiner.

    Shapes: ``v_rf`` is (U*N_U, U) block diagonal, ``w_rf`` is (N_BS, N_RF)
    or None for the digital array, which has no analog combiner (N_RF = N_BS),
    ``w_d`` is (K, N_RF, U).
    """

    v_rf: np.ndarray
    w_rf: np.ndarray | None
    w_d: np.ndarray


def _stream_channel(channel: PathChannel, v_rf: np.ndarray) -> np.ndarray:
    """Per-subcarrier channel from the U streams to the antennas, H[k] V
    scaled by the transmit power split 1/sqrt(N_U), so each user's array
    radiates power 1/U for unit-power streams whatever its element count.
    Shape (K, N_BS, U)."""
    return (1.0 / math.sqrt(channel.n_tx_per_user)) * channel.stream_channel(v_rf)


def _behind(w_rf: np.ndarray | None, stream: np.ndarray) -> np.ndarray:
    """The effective channel behind both analog stages, W^H H[k] V (K, N_RF,
    U) from the stream channel; the stream channel itself without a combiner."""
    return stream if w_rf is None else w_rf.conj().T @ stream


def _whiten(w_rf: np.ndarray | None, heff: np.ndarray) -> np.ndarray:
    """(W^H W)^{-1} Heff[k] for every subcarrier, one solve with the Gram
    matrix for all of them; Heff itself without an analog combiner."""
    if w_rf is None:
        return heff
    k_count, n_rf, users = heff.shape
    flat = heff.transpose(1, 0, 2).reshape(n_rf, k_count * users)
    whitened = np.linalg.solve(w_rf.conj().T @ w_rf, flat)
    return whitened.reshape(n_rf, k_count, users).transpose(1, 0, 2)


def _block_support(blocks: int, size: int) -> np.ndarray:
    """Boolean (blocks * size, blocks) mask: column m may be nonzero only on
    rows m * size to (m + 1) * size."""
    return np.repeat(np.eye(blocks, dtype=bool), size, axis=0)


def _combiner_support(cfg: ReceiverConfig) -> np.ndarray:
    """Where the analog combiner may be nonzero: everywhere for the fully
    connected layout, otherwise one block of N_BS/N_RF rows per chain (the
    identity when N_RF = N_BS)."""
    if cfg.architecture is Architecture.FULLY_CONNECTED:
        return np.ones((cfg.n_bs, cfg.rf_chains), dtype=bool)
    return _block_support(cfg.rf_chains, cfg.n_bs // cfg.rf_chains)


def _aligned_modes(cov: np.ndarray, count: int) -> np.ndarray:
    """The initializer of both analog stages, for a stack of Hermitian (B, B)
    block covariances: the element-wise phases of each block's ``count``
    dominant eigenvectors, in descending eigenvalue order, each column
    rotated so its first entry is exactly 1 (resolves the eigenvector's
    global-phase ambiguity). Shape (blocks, B, count), unit modulus; a block
    whose covariance is all zero degenerates to all ones."""
    _, vecs = np.linalg.eigh(0.5 * (cov + cov.conj().swapaxes(-1, -2)))
    vecs = vecs[..., : -count - 1 : -1]
    modes = np.exp(1j * (np.angle(vecs) - np.angle(vecs[:, :1, :])))
    modes[~np.any(cov, axis=(1, 2))] = 1
    return modes


def design_tx_precoder(channel: PathChannel, cfg: ReceiverConfig) -> np.ndarray:
    """Block-diagonal unit-modulus precoder, one column per user.

    Each user's column takes the aligned phases of the dominant eigenvector
    of its wideband transmit covariance (1/K) sum_k H_u^H H_u, which
    phase-aligns the array with its strongest propagation mode.
    """
    _check_channel(channel, cfg)
    support = _block_support(cfg.users, cfg.n_u)
    v_rf = np.zeros(support.shape, dtype=np.complex128)
    v_rf[support] = _aligned_modes(channel.transmit_covariances(), 1).reshape(-1)
    return v_rf


def design_analog_combiner(channel: PathChannel, cfg: ReceiverConfig) -> np.ndarray | None:
    """Architecture-constrained analog combiner initializer.

    Digital array: None, as combining is fully digital. Fully connected:
    column j takes the aligned phases of the j-th dominant eigenvector of
    the wideband receive covariance R = (1/K) sum_k H[k] H[k]^H. Sub-array:
    each chain's block takes those of the dominant eigenvector of its
    diagonal block of R.
    """
    _check_channel(channel, cfg)
    if cfg.architecture is Architecture.DIGITAL:
        return None
    support = _combiner_support(cfg)
    w_rf = np.zeros(support.shape, dtype=np.complex128)
    blocks = 1 if cfg.architecture is Architecture.FULLY_CONNECTED else cfg.rf_chains
    w_rf[support] = _aligned_modes(channel.receive_covariances(blocks),
                                   cfg.rf_chains // blocks).reshape(-1)
    return w_rf


def _free_columns(cfg: ReceiverConfig) -> list[tuple[int, list[int]]]:
    """Adjustable positions of the analog combiner: each column with the
    rows of its support. A square combiner (N_RF = N_BS, the digital array
    included) has none: for any invertible W the surrogate's
    Heff^H (W^H W)^{-1} Heff equals (H V)^H (H V), so no phase can move it."""
    if cfg.rf_chains == cfg.n_bs:
        return []
    support = _combiner_support(cfg)
    # Python ints: numpy-integer indices slow the per-entry loop measurably.
    return [(j, np.flatnonzero(support[:, j]).tolist()) for j in range(cfg.rf_chains)]


def _surrogate(stream: np.ndarray, w_rf: np.ndarray | None, snr: float, users: int) -> float:
    """Wideband sum-rate surrogate maximized by the refinement, from the
    stream channel H[k] V (K, N_BS, U):

        J = sum_k log2 det(I_U + (snr/U) Heff[k]^H (W^H W)^{-1} Heff[k])

    with Heff = W^H H[k] V; it accounts for the analog combiner's noise
    coloring. With ``w_rf`` None (the digital array), K U x U determinants."""
    heff = _behind(w_rf, stream)
    inner = heff.conj().swapaxes(-1, -2) @ _whiten(w_rf, heff)   # (K, U, U)
    eye = np.eye(inner.shape[-1])
    sign, logdet = np.linalg.slogdet(eye + (snr / users) * inner)
    if not np.all(np.isfinite(logdet)) or np.any(sign.real <= 0):
        raise np.linalg.LinAlgError("surrogate objective is non-finite or not positive definite")
    return float(np.sum(logdet) / math.log(2))


def refine_analog_combiner(w_rf: np.ndarray | None, channel: PathChannel, cfg: ReceiverConfig,
                           v_rf: np.ndarray, max_sweeps: int = REFINE_SWEEPS,
                           tol: float = REFINE_TOL) -> tuple[np.ndarray | None, list[float]]:
    """Coordinate-ascent phase refinement of the analog combiner.

    Cycles over the free entries of ``w_rf`` (assumed unit modulus, as the
    initializer leaves them), setting each to the best of the 64 grid
    phases unless none strictly improves the surrogate; a candidate that
    would make W rank-deficient is never taken. Each entry is one
    ``_GridScorer.step``: in closed form, a few vector operations on the
    entry's contiguous row vectors of length K (N_RF + U) and one 64 x K
    log, with the moves a log-det evaluation of every candidate gives.
    Stops after a sweep improves the surrogate by less than ``tol``
    (relative) or after ``max_sweeps`` sweeps.

    Returns the refined matrix and the surrogate history (initial value,
    then after each sweep the sum of the accepted gains), non-decreasing by
    construction. ``max_sweeps=0``, a square combiner (no free phases, see
    ``_free_columns``) or the digital array's None returns the input
    unchanged; a zero SNR, which the link cannot simulate
    (``_noise_power``), raises ConfigError.
    """
    _check_channel(channel, cfg)
    return _refine(w_rf, _stream_channel(channel, v_rf), cfg, max_sweeps, tol)


def _refine(w_rf: np.ndarray | None, stream: np.ndarray, cfg: ReceiverConfig, max_sweeps: int,
            tol: float) -> tuple[np.ndarray | None, list[float]]:
    """``refine_analog_combiner`` on the stream channel H[k] V (K, N_BS, U)."""
    _noise_power(cfg)
    columns = _free_columns(cfg)
    if w_rf is None or max_sweeps == 0 or not columns:
        return (None if w_rf is None else w_rf.copy(),
                [_surrogate(stream, w_rf, cfg.per_antenna_snr, cfg.users)])

    w = w_rf.copy()
    scorer = _GridScorer(w, stream, cfg)
    j_current = _surrogate(scorer.ht[:-1], w, cfg.per_antenna_snr, cfg.users)
    history = [j_current]
    for _ in range(max_sweeps):
        for j, rows in columns:
            scorer.start_column(j)
            for i in rows:
                j_current += scorer.step(i)
        history.append(j_current)
        if history[-1] - history[-2] < tol * max(abs(history[-2]), 1e-30):
            break
    return w, history


class _GridScorer:
    """Closed-form surrogate gains for setting one unit-modulus entry
    w[i, j] = a to each grid phase c, one column at a time; updates ``w``.

    J = sum_k log2 det S_k - K log2 det G, S_k = G + rho Heff[k] Heff[k]^H,
    G = W^H W, rho = snr/U; an all-zero subcarrier slot turns S_k into G.
    Moves in column j keep S_k without row and column j (inverse S^-1) and
    q_i = conj(w[i, others]) + rho Heff_others conj(h_i) fixed. Moving a to
    c adds (c - a) q_i to column j of S_k and scales det S_k by
    (base + Re(z_i (a - c))) / base, the column's Schur complements. With p_i
    and r_i column j of S_k and row j of Heff without entry i, z_i = 2 (p_i^H
    S^-1 q_i - rho r_i . conj(h_i)) = 2 sum((state - conj(a) u_i) y_i).

    The refinement makes one ``step`` per entry: z_i from the row's
    contiguous y_i and u_i, the (64, K+1) candidate Schur complements, the
    best phase and, if it gains, the move. ``gains`` and ``set_entry`` are
    the same helpers taken apart, for the tests' off-grid moves.
    """

    def __init__(self, w: np.ndarray, stream: np.ndarray, cfg: ReceiverConfig):
        k_count = stream.shape[0]
        self.w = w
        self.rho_over_u = cfg.per_antenna_snr / cfg.users
        self.ht = np.zeros((k_count + 1, cfg.n_bs, cfg.users), dtype=np.complex128)
        self.ht[:k_count] = stream
        self.weights = np.append(np.ones(k_count), -k_count) / math.log(2)

    def start_column(self, j: int) -> None:
        """Move to column j: form S^-1, base and state = [conj(s), -rho heff_j] from ``w``."""
        rho, w = self.rho_over_u, self.w
        others = np.arange(w.shape[1]) != j
        heff = w.conj().T @ self.ht                                     # (K+1, N_RF, U)
        s_full = w.conj().T @ w + rho * (heff @ heff.conj().swapaxes(-1, -2))
        self.s_inv = np.linalg.inv(s_full[:, others][:, :, others])
        s = s_full[:, others, j]
        self.base = (s_full[:, j, j] - np.einsum("km,kmn,kn->k", s.conj(), self.s_inv, s)).real
        self.state = np.concatenate([s.conj(), -rho * heff[:, j, :]], axis=1)
        self.j, self.others, self.heff_o = j, others, heff[:, others, :]
        self.first, self.y, self.u = 0, (), ()
        self.rank_floor = _RANK_TOL * s_full[-1, j, j].real

    def step(self, i: int) -> float:
        """Score the grid phases of w[i, j] and take the best one if its gain
        is above 0; the accepted gain (bits), 0 if none was taken."""
        a, z, u = self._slope(i)
        gain = self._gains(a, z)
        best = int(gain.argmax())
        accepted = gain.item(best)
        if accepted > 0:
            self._move(i, a, z, u, _PHASE_GRID.item(best))
            return accepted
        return 0.0

    def gains(self, i: int) -> np.ndarray:
        """Surrogate change (bits) for w[i, j] set to each grid phase; -inf
        where the candidate would make W rank-deficient."""
        return self._gains(*self._slope(i)[:2])

    def set_entry(self, i: int, value: complex) -> None:
        """Set w[i, j], moving base and the state."""
        self._move(i, *self._slope(i), complex(value))

    def _row(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        """Row i's fixed y_i = [S^-1 q_i, conj(h_i)] and u_i = [conj(q_i), -rho h_i],
        each a contiguous (K+1, N_RF-1+U) array, formed with those of the next rows."""
        n = i - self.first
        if not 0 <= n < len(self.y):
            # Along the column's contiguous support; each (B, K+1, N_RF-1+U) stack stays within ht / 8.
            block = max(1, self.ht[0].size // (8 * self.state.shape[1]))
            stop = i + min(block, np.count_nonzero(self.w[i:, self.j]))
            rho, h = self.rho_over_u, self.ht[:, i:stop]                 # (K+1, B, U)
            q = self.w[i:stop, self.others].conj() + rho * (h.conj() @ self.heff_o.swapaxes(-1, -2))
            self.y = _row_major(q @ self.s_inv.swapaxes(-1, -2), h.conj())
            self.u = _row_major(q.conj(), -rho * h)
            self.first, n = i, 0
        return self.y[n], self.u[n]

    def _slope(self, i: int) -> tuple[complex, np.ndarray, np.ndarray]:
        """w[i, j] = a, z_i (K+1,) and u_i."""
        a, (y, u) = self.w.item(i, self.j), self._row(i)
        return a, 2 * ((self.state - a.conjugate() * u) * y).sum(axis=1), u

    def _gains(self, a: complex, z: np.ndarray) -> np.ndarray:
        schur = self.base + (z * (a - _GRID_COLUMN)).real               # (64, K+1)
        # Column K is G's: a candidate leaving column j in the span of the others makes W singular.
        if schur[:, -1].min() > self.rank_floor:
            return np.log(schur / self.base) @ self.weights
        valid = schur[:, -1] > self.rank_floor
        gain = np.full(PHASE_GRID_SIZE, -np.inf)
        gain[valid] = np.log(schur[valid] / self.base) @ self.weights
        return gain

    def _move(self, i: int, a: complex, z: np.ndarray, u: np.ndarray, value: complex) -> None:
        """Set w[i, j] from a to ``value``, moving base and the state."""
        delta = value - a
        self.base = self.base - (z * delta).real
        self.state += delta.conjugate() * u
        self.w[i, self.j] = value


def _row_major(*parts: np.ndarray) -> np.ndarray:
    """(K+1, B, n) stacks side by side along their last axis, as one
    C-ordered (B, K+1, total n) array: each row's vectors are contiguous."""
    k_slots, rows = parts[0].shape[:2]
    out = np.empty((rows, k_slots, sum(p.shape[2] for p in parts)), dtype=np.complex128)
    return np.concatenate([p.transpose(1, 0, 2) for p in parts], axis=2, out=out)


def mmse_digital_combiner(heff: np.ndarray, gram: np.ndarray, noise_power: float,
                          users: int) -> np.ndarray:
    """MMSE combiner for effective channel(s) ``heff`` (..., N_RF, U) with
    analog-combiner Gram matrix ``gram`` coloring the noise:

        W_D = (Heff Heff^H + noise_power * U * W^H W)^{-1} Heff

    in the push-through form, one U x U Hermitian pseudo-inverse per subcarrier
    (the zero-forcing limit where the regularizer is below rounding).
    """
    return _push_through_mmse(heff, np.linalg.solve(gram, heff), noise_power, users)


def _noise_power(cfg: ReceiverConfig) -> float:
    """1/snr, the antenna noise power of unit-power streams: the one rule for
    the SNRs the link simulates. Raises ConfigError unless the SNR is
    positive: the SNR domain's -inf dB sizes power but carries no signal."""
    if cfg.per_antenna_snr > 0:
        return 1.0 / cfg.per_antenna_snr
    raise ConfigError(f"per-antenna SNR must be positive to simulate: key 'snr_db' "
                      f"is {cfg.snr_db!r} dB")


def _push_through_mmse(heff: np.ndarray, whitened: np.ndarray, noise_power: float,
                       users: int) -> np.ndarray:
    """W_D = G^{-1} Heff (Heff^H G^{-1} Heff + noise_power U I)^+ from ``whitened`` =
    G^{-1} Heff, the matrix (Heff Heff^H + noise_power U G)^{-1} Heff: one Hermitian
    pseudo-inverse per subcarrier; its cutoff (1e-15 of the largest eigenvalue) gives
    (A^H A + lambda I)^-1 A^H its limit A^+ where lambda is below rounding."""
    inner = heff.conj().swapaxes(-1, -2) @ whitened
    inner += noise_power * users * np.eye(heff.shape[-1])
    return whitened @ np.linalg.pinv(inner, hermitian=True)


def design_digital_combiner(channel: PathChannel, w_rf: np.ndarray | None, v_rf: np.ndarray,
                            cfg: ReceiverConfig) -> np.ndarray:
    """Per-subcarrier MMSE digital combiner, shape (K, N_RF, U).

    Noise enters at the antennas, so after the analog combiner its
    covariance is sigma^2 W_RF^H W_RF with sigma^2 = 1/snr for unit-power
    streams; that coloring is part of the regularizer. In the push-through
    form, for the digital array (``w_rf`` None) this is the Woodbury form
    W_D = Heff (Heff^H Heff + sigma^2 U I)^{-1}: no N_BS x N_BS product or solve.
    """
    _check_channel(channel, cfg)
    return _mmse_combiner(_stream_channel(channel, v_rf), w_rf, cfg)


def _mmse_combiner(stream: np.ndarray, w_rf: np.ndarray | None, cfg: ReceiverConfig) -> np.ndarray:
    """``design_digital_combiner`` on the stream channel H[k] V (K, N_BS, U)."""
    heff = _behind(w_rf, stream)
    return _push_through_mmse(heff, _whiten(w_rf, heff), _noise_power(cfg), cfg.users)


def design_combiners(channel: PathChannel, cfg: ReceiverConfig, refine_sweeps: int = REFINE_SWEEPS,
                     refine_tol: float = REFINE_TOL) -> CombinerSet:
    """Full combiner design pipeline: precoder, analog combiner (refined for
    a run's budget by default), then the per-subcarrier MMSE digital
    combiner. A square combiner has no free phases and skips the refinement."""
    v_rf = design_tx_precoder(channel, cfg)
    w_rf, w_d = _design_receiver(design_analog_combiner(channel, cfg),
                                 _stream_channel(channel, v_rf), cfg, refine_sweeps, refine_tol)
    return CombinerSet(v_rf=v_rf, w_rf=w_rf, w_d=w_d)


def _design_receiver(w_rf: np.ndarray | None, stream: np.ndarray, cfg: ReceiverConfig,
                     refine_sweeps: int, refine_tol: float) -> tuple[np.ndarray | None, np.ndarray]:
    """The receive stages of ``design_combiners``, W_RF and W_D, from the
    analog initializer ``w_rf`` (left unchanged) and the stream channel
    ``stream`` = H[k] V of the precoder already designed."""
    if refine_sweeps > 0 and _free_columns(cfg):
        w_rf, _ = _refine(w_rf, stream, cfg, refine_sweeps, refine_tol)
    return w_rf, _mmse_combiner(stream, w_rf, cfg)


def check_hardware_constraints(combiners: CombinerSet, cfg: ReceiverConfig) -> None:
    """Verify unit-modulus and support constraints, and that ``w_rf`` is None
    exactly for the digital array; raise ValueError if broken."""
    w_rf, w_d = combiners.w_rf, combiners.w_d
    _check_stage(combiners.v_rf, _block_support(cfg.users, cfg.n_u), "v_rf")
    if (w_rf is None) != (cfg.architecture is Architecture.DIGITAL):
        raise ValueError(f"{cfg.architecture.value} w_rf is {'None' if w_rf is None else 'an array'}: "
                         "only the digital array has no analog combiner")
    if w_rf is not None:
        _check_stage(w_rf, _combiner_support(cfg), "w_rf")

    if w_d.shape[1:] != (cfg.rf_chains, cfg.users):
        raise ValueError(f"w_d per-subcarrier shape {w_d.shape[1:]}, expected {(cfg.rf_chains, cfg.users)}")
    if not np.all(np.isfinite(w_d)):
        raise ValueError("w_d contains non-finite entries")


def _check_stage(stage: np.ndarray, support: np.ndarray, name: str) -> None:
    """Raise ValueError unless the analog ``stage`` has the shape of its
    hardware ``support``, is zero off it and unit modulus on it."""
    if stage.shape != support.shape:
        raise ValueError(f"{name} shape {stage.shape}, expected {support.shape}")
    # Column by column: a mask over the whole stage would copy it.
    if any(np.any(np.abs(column[~rows]) > UNIT_MODULUS_TOL) for column, rows in zip(stage.T, support.T)):
        raise ValueError(f"{name} has entries outside its hardware support")
    if np.any(np.abs(np.abs(stage[support]) - 1) > UNIT_MODULUS_TOL):
        raise ValueError(f"{name} entries on the hardware support are not unit modulus")


def _check_channel(channel: PathChannel, cfg: ReceiverConfig) -> None:
    dims = (channel.subcarriers, channel.n_rx, channel.n_users, channel.n_tx_per_user)
    expected = (cfg.subcarriers, cfg.n_bs, cfg.users, cfg.n_u)
    if dims != expected:
        raise ChannelDimensionError(f"channel dimensions (K, N_BS, U, N_U) {dims} "
                                    f"do not match config {expected}")
