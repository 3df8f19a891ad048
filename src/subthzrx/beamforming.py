"""Hardware-constrained analog precoder/combiner design and MMSE combining.

Analog weights are realized by phase shifters, so every entry of the
transmit precoder and the receive combiner on its hardware support has unit
magnitude and every entry off it is zero. The supports are those of Sohrabi &
Yu (IEEE JSTSP 2016) and live in ``_block_support`` and ``_combiner_support``:
the precoder has one block of N_U rows per user; the combiner has one block of
N_BS/N_RF rows per chain (the sub-array, and the digital array's identity when
N_RF = N_BS) or is dense (fully connected). Within those constraints the
design is:

1. a deterministic initializer that phase-aligns each column with the
   dominant eigenvector of the relevant wideband covariance, and
2. an optional coordinate-ascent refinement that sweeps the free phases over
   a fixed 64-point grid, keeping any move that increases a wideband log-det
   sum-rate surrogate (so the surrogate never decreases). A Schur-complement
   update scores all 64 phases of one entry in closed form at O(K N_RF^2),
   with the same moves as recomputing the log-dets for every candidate.

The digital combiner is the per-subcarrier MMSE solution on the effective
channel seen behind the analog stages, in its push-through form (a U x U
solve per subcarrier). The digital array's identity analog stage is
recognized from its value and never multiplied or solved with. Each user's
phased array radiates total power 1/U regardless of its element count, i.e.
the unit-modulus precoder columns act through a 1/sqrt(N_U) power split,
applied in ``_stream_channel`` only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import ChannelRealization
from .config import Architecture, ReceiverConfig

PHASE_GRID_SIZE = 64
UNIT_MODULUS_TOL = 1e-9
_PHASE_GRID = np.exp(2j * np.pi * np.arange(PHASE_GRID_SIZE) / PHASE_GRID_SIZE)
_RANK_TOL = 1e-9  # smallest accepted share of a column outside the span of the others


@dataclass(frozen=True, eq=False)
class CombinerSet:
    """Analog TX precoder, analog RX combiner, per-subcarrier digital combiner.

    Shapes: ``v_rf`` is (U*N_U, U) block diagonal, ``w_rf`` is (N_BS, N_RF),
    ``w_d`` is (K, N_RF, U).
    """

    v_rf: np.ndarray
    w_rf: np.ndarray
    w_d: np.ndarray


def _stream_channel(channel: ChannelRealization, v_rf: np.ndarray) -> np.ndarray:
    """Per-subcarrier channel from the U streams to the antennas, H[k] V
    scaled by the transmit power split 1/sqrt(N_U), so each user's array
    radiates power 1/U for unit-power streams whatever its element count.
    Shape (K, N_BS, U)."""
    return (1.0 / math.sqrt(channel.n_tx_per_user)) * (channel.h @ v_rf)


def effective_channel(channel: ChannelRealization, w_rf: np.ndarray, v_rf: np.ndarray) -> np.ndarray:
    """Per-subcarrier channel behind both analog stages: W^H H[k] V scaled by
    the transmit power split. Shape (K, N_RF, U). An identity ``w_rf`` (the
    digital array) is skipped: the result is the scaled H[k] V."""
    stream = _stream_channel(channel, v_rf)
    if _is_identity(w_rf):
        return stream
    return w_rf.conj().T @ stream


def _is_identity(w_rf: np.ndarray) -> bool:
    """Whether the analog combiner is exactly the identity, as the digital
    array's is."""
    n = w_rf.shape[0]
    return w_rf.shape == (n, n) and bool(np.all(w_rf.diagonal() == 1)) and np.count_nonzero(w_rf) == n


def _whiten(w_rf: np.ndarray, heff: np.ndarray) -> np.ndarray:
    """(W^H W)^{-1} Heff[k] for every subcarrier, one solve with the Gram
    matrix for all of them; Heff itself when W is the identity."""
    if _is_identity(w_rf):
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


def _phase_align(vec: np.ndarray) -> np.ndarray:
    """Unit-modulus vector with the phases of ``vec``, rotated so the first
    entry is exactly 1 (resolves the eigenvector's global-phase ambiguity)."""
    phases = np.angle(vec) - np.angle(vec[0])
    return np.exp(1j * phases)


def _dominant_eigvecs(matrix: np.ndarray, count: int) -> np.ndarray:
    """Leading ``count`` eigenvectors of a Hermitian matrix, as columns in
    descending eigenvalue order."""
    hermitized = 0.5 * (matrix + matrix.conj().T)
    _, vecs = np.linalg.eigh(hermitized)
    return vecs[:, : -count - 1 : -1]


def design_tx_precoder(channel: ChannelRealization, cfg: ReceiverConfig) -> np.ndarray:
    """Block-diagonal unit-modulus precoder, one column per user.

    Each user's column takes the element-wise phases of the dominant
    eigenvector of its wideband transmit covariance (1/K) sum_k H_u^H H_u,
    which phase-aligns the array with its strongest propagation mode. An
    all-zero channel degenerates to the zero-phase (all-ones) column.
    """
    _check_channel(channel, cfg)
    support = _block_support(cfg.users, cfg.n_u)
    v_rf = np.zeros(support.shape, dtype=np.complex128)
    for u in range(cfg.users):
        flat = channel.user_channel(u).reshape(-1, cfg.n_u)
        cov = flat.conj().T @ flat / channel.subcarriers
        if not np.any(cov):
            column = np.ones(cfg.n_u, dtype=np.complex128)
        else:
            column = _phase_align(_dominant_eigvecs(cov, 1)[:, 0])
        v_rf[support[:, u], u] = column
    return v_rf


def design_analog_combiner(channel: ChannelRealization, cfg: ReceiverConfig) -> np.ndarray:
    """Architecture-constrained analog combiner initializer.

    Digital array: identity (combining is fully digital). Fully connected:
    column j phase-aligns with the j-th dominant eigenvector of the wideband
    receive covariance R = (1/K) sum_k H[k] H[k]^H. Sub-array: each chain's
    block phase-aligns with the dominant eigenvector of its diagonal block
    of R.
    """
    _check_channel(channel, cfg)
    n_bs, n_rf = cfg.n_bs, cfg.rf_chains
    if cfg.architecture is Architecture.DIGITAL:
        return np.eye(n_bs, dtype=np.complex128)

    w_rf = np.zeros((n_bs, n_rf), dtype=np.complex128)
    if cfg.architecture is Architecture.FULLY_CONNECTED:
        cov = sum(h_k @ h_k.conj().T for h_k in channel.h) / channel.subcarriers
        vecs = _dominant_eigvecs(cov, n_rf)
        for j in range(n_rf):
            w_rf[:, j] = _phase_align(vecs[:, j])
        return w_rf

    support = _combiner_support(cfg)
    for m in range(n_rf):
        rows = support[:, m]
        cov = sum(h_k @ h_k.conj().T for h_k in channel.h[:, rows, :]) / channel.subcarriers
        w_rf[rows, m] = _phase_align(_dominant_eigvecs(cov, 1)[:, 0])
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


def surrogate_sum_rate(channel: ChannelRealization, w_rf: np.ndarray, v_rf: np.ndarray,
                       snr: float, users: int) -> float:
    """Wideband sum-rate surrogate maximized by the refinement:

        J = sum_k log2 det(I_U + (snr/U) Heff[k]^H (W^H W)^{-1} Heff[k])

    with Heff the effective channel behind both analog stages. Accounts for
    the noise coloring the analog combiner introduces; with W the identity
    this is K small U x U determinants.
    """
    heff = effective_channel(channel, w_rf, v_rf)
    inner = heff.conj().swapaxes(-1, -2) @ _whiten(w_rf, heff)   # (K, U, U)
    eye = np.eye(inner.shape[-1])
    sign, logdet = np.linalg.slogdet(eye + (snr / users) * inner)
    if not np.all(np.isfinite(logdet)) or np.any(sign.real <= 0):
        raise np.linalg.LinAlgError("surrogate objective is not positive definite (rank-deficient W_RF?)")
    return float(np.sum(logdet) / math.log(2))


def refine_analog_combiner(w_rf: np.ndarray, channel: ChannelRealization, cfg: ReceiverConfig,
                           v_rf: np.ndarray | None = None, max_sweeps: int = 3,
                           tol: float = 1e-3) -> tuple[np.ndarray, list[float]]:
    """Coordinate-ascent phase refinement of the analog combiner.

    Cycles over the free entries of ``w_rf``; each entry is set to the best
    of 64 grid phases under the surrogate objective, keeping the current
    value unless a grid candidate strictly improves it. Stops after a full
    sweep improves the surrogate by less than ``tol`` (relative) or after
    ``max_sweeps`` sweeps.

    The grid is scored in closed form (the per-element update of Sohrabi &
    Yu, IEEE JSTSP 2016). Writing J = sum_k log2 det S_k - K log2 det G with
    S_k = G + (snr/U) Heff[k] Heff[k]^H and G = W^H W, setting the free
    entry w[i, j] to a unit-modulus c changes only row and column j of each
    matrix, so each determinant is the fixed det of its block without row
    and column j times a Schur complement alpha + Re(beta c). The blocks
    are inverted once per column and each entry costs O(K N_RF^2); the
    result is the one a full log-det evaluation of every candidate gives.
    Free entries are assumed unit modulus, as the initializer leaves them,
    and a candidate that would make W rank-deficient is never taken.

    Returns the refined matrix and the surrogate value history (initial
    value, then after each completed sweep the sum of the accepted gains);
    the history is non-decreasing by construction. ``max_sweeps=0`` or a
    square combiner (no free phases, see ``_free_columns``) returns the
    input unchanged.
    """
    _check_channel(channel, cfg)
    if v_rf is None:
        v_rf = design_tx_precoder(channel, cfg)
    columns = _free_columns(cfg)
    initial = surrogate_sum_rate(channel, w_rf, v_rf, cfg.per_antenna_snr, cfg.users)
    if max_sweeps == 0 or not columns or cfg.per_antenna_snr == 0:
        return w_rf.copy(), [initial]

    w = w_rf.copy()
    scorer = _GridScorer(w, channel, v_rf, cfg)
    j_current = initial
    history = [initial]
    for _ in range(max_sweeps):
        for j, rows in columns:
            scorer.start_column(j)
            for i in rows:
                gain = scorer.gains(i)
                best = int(np.argmax(gain))
                if gain[best] > 0:
                    scorer.set_entry(i, _PHASE_GRID[best])
                    j_current += float(gain[best])
        improvement = j_current - history[-1]
        history.append(j_current)
        if improvement < tol * max(abs(history[-2]), 1e-30):
            break
    return w, history


class _GridScorer:
    """Closed-form surrogate gains for setting one unit-modulus entry of ``w``
    to each phase of the grid; owns the refinement's incremental state and
    updates ``w`` in place. Entries are scored and set one column at a time.

    A trailing all-zero subcarrier slot turns S_k into G, so one batch
    carries both determinants; its log-ratio enters with weight -K.
    """

    def __init__(self, w: np.ndarray, channel: ChannelRealization, v_rf: np.ndarray,
                 cfg: ReceiverConfig):
        k_count = channel.subcarriers
        self.w = w
        self.rho_over_u = cfg.per_antenna_snr / cfg.users
        self.ht = np.zeros((k_count + 1, cfg.n_bs, cfg.users), dtype=np.complex128)
        self.ht[:k_count] = _stream_channel(channel, v_rf)
        self.heff = w.conj().T @ self.ht                               # (K+1, N_RF, U)
        self.gram = w.conj().T @ w
        self.weights = np.append(np.ones(k_count), -k_count) / math.log(2)

    def start_column(self, j: int) -> None:
        """Move to column j: invert the blocks of S_k and G without row and
        column j, which setting entries of column j leaves unchanged."""
        self.j = j
        self.others = np.arange(self.w.shape[1]) != j
        self.heff_o = self.heff[:, self.others, :]                     # (K+1, N_RF-1, U)
        self.s_inv = np.linalg.inv(self.gram[np.ix_(self.others, self.others)] + self.rho_over_u
                                   * (self.heff_o @ self.heff_o.conj().swapaxes(-1, -2)))

    def gains(self, i: int) -> np.ndarray:
        """Surrogate change (bits) for w[i, j] set to each grid phase; -inf
        where the candidate would make W rank-deficient."""
        j, rho, others = self.j, self.rho_over_u, self.others
        a, h_i = self.w[i, j], self.ht[:, i, :]
        r0 = self.heff[:, j, :] - a.conj() * h_i                      # row j without entry i
        w_o = self.w[i, others].conj()
        # Column j of S_k off the diagonal is p + c q for w[i, j] = c.
        p = self.gram[others, j] - w_o * a + rho * (self.heff_o @ r0.conj()[:, :, None])[:, :, 0]
        q = w_o + rho * (self.heff_o @ h_i.conj()[:, :, None])[:, :, 0]
        inv_p = (self.s_inv @ p[:, :, None])[:, :, 0]
        inv_q = (self.s_inv @ q[:, :, None])[:, :, 0]
        s_jj = self.gram[j, j].real + rho * np.sum(np.abs(r0) ** 2 + np.abs(h_i) ** 2, axis=1)
        alpha = s_jj - np.sum(p.conj() * inv_p + q.conj() * inv_q, axis=1).real
        beta = 2 * (rho * np.sum(r0 * h_i.conj(), axis=1) - np.sum(p.conj() * inv_q, axis=1))
        schur = alpha[:, None] + (beta[:, None] * _PHASE_GRID).real    # (K+1, P)
        # The last row is G's: a candidate that leaves column j (numerically)
        # in the span of the others makes W rank-deficient.
        valid = schur[-1] > _RANK_TOL * self.gram[j, j].real
        gain = np.full(PHASE_GRID_SIZE, -np.inf)
        gain[valid] = self.weights @ np.log(schur[:, valid] / (alpha + (beta * a).real)[:, None])
        return gain

    def set_entry(self, i: int, value: complex) -> None:
        """Set w[i, j] and update row j of Heff and column j of G."""
        j, others, delta = self.j, self.others, value - self.w[i, self.j]
        self.w[i, j] = value
        self.heff[:, j, :] += delta.conj() * self.ht[:, i, :]
        self.gram[others, j] += self.w[i, others].conj() * delta
        self.gram[j, others] = self.gram[others, j].conj()


def mmse_digital_combiner(heff: np.ndarray, gram: np.ndarray, noise_power: float,
                          users: int) -> np.ndarray:
    """MMSE combiner for effective channel(s) ``heff`` (..., N_RF, U) with
    analog-combiner Gram matrix ``gram`` coloring the noise:

        W_D = (Heff Heff^H + noise_power * U * W^H W)^{-1} Heff

    in the push-through form, which solves U x U systems, not N_RF x N_RF.
    """
    return _push_through_mmse(heff, np.linalg.solve(gram, heff), noise_power, users)


def _push_through_mmse(heff: np.ndarray, whitened: np.ndarray, noise_power: float,
                       users: int) -> np.ndarray:
    """W_D = G^{-1} Heff (Heff^H G^{-1} Heff + noise_power U I)^{-1}, the same
    matrix as (Heff Heff^H + noise_power U G)^{-1} Heff, from ``whitened`` =
    G^{-1} Heff. The U x U matrix is Hermitian, so W_D^H is one solve with it."""
    inner = heff.conj().swapaxes(-1, -2) @ whitened
    inner += noise_power * users * np.eye(heff.shape[-1])
    return np.linalg.solve(inner, whitened.conj().swapaxes(-1, -2)).conj().swapaxes(-1, -2)


def design_digital_combiner(channel: ChannelRealization, w_rf: np.ndarray, v_rf: np.ndarray,
                            cfg: ReceiverConfig) -> np.ndarray:
    """Per-subcarrier MMSE digital combiner, shape (K, N_RF, U).

    Noise enters at the antennas, so after the analog combiner its
    covariance is sigma^2 W_RF^H W_RF with sigma^2 = 1/snr for unit-power
    streams; that coloring is part of the regularizer. In the push-through
    form, for the digital array's identity W_RF this is the Woodbury form
    W_D = Heff (Heff^H Heff + sigma^2 U I)^{-1}: no N_BS x N_BS product or solve.
    """
    _check_channel(channel, cfg)
    if cfg.per_antenna_snr <= 0:
        raise ValueError("per-antenna SNR must be positive for MMSE combining")
    heff = effective_channel(channel, w_rf, v_rf)
    return _push_through_mmse(heff, _whiten(w_rf, heff), 1.0 / cfg.per_antenna_snr, cfg.users)


def design_combiners(channel: ChannelRealization, cfg: ReceiverConfig,
                     refine_sweeps: int = 0, refine_tol: float = 1e-3) -> CombinerSet:
    """Full combiner design pipeline: precoder, analog combiner (optionally
    refined), then the per-subcarrier MMSE digital combiner."""
    v_rf = design_tx_precoder(channel, cfg)
    w_rf = design_analog_combiner(channel, cfg)
    if refine_sweeps > 0:
        w_rf, _ = refine_analog_combiner(w_rf, channel, cfg, v_rf=v_rf,
                                         max_sweeps=refine_sweeps, tol=refine_tol)
    w_d = design_digital_combiner(channel, w_rf, v_rf, cfg)
    return CombinerSet(v_rf=v_rf, w_rf=w_rf, w_d=w_d)


def check_hardware_constraints(combiners: CombinerSet, cfg: ReceiverConfig,
                               tol: float = UNIT_MODULUS_TOL) -> None:
    """Verify unit-modulus and support constraints; raise ValueError if broken."""
    w_rf, w_d = combiners.w_rf, combiners.w_d
    _check_stage(combiners.v_rf, _block_support(cfg.users, cfg.n_u), "v_rf", tol)
    _check_stage(w_rf, _combiner_support(cfg), "w_rf", tol)
    if cfg.architecture is Architecture.DIGITAL and np.any(np.abs(w_rf - np.eye(cfg.n_bs)) > tol):
        raise ValueError("digital-array w_rf must be the identity")

    if w_d.shape[1:] != (cfg.rf_chains, cfg.users):
        raise ValueError(f"w_d per-subcarrier shape {w_d.shape[1:]}, expected {(cfg.rf_chains, cfg.users)}")
    if not np.all(np.isfinite(w_d)):
        raise ValueError("w_d contains non-finite entries")


def _check_stage(stage: np.ndarray, support: np.ndarray, name: str, tol: float) -> None:
    """Raise ValueError unless the analog ``stage`` has the shape of its
    hardware ``support``, is zero off it and unit modulus on it."""
    if stage.shape != support.shape:
        raise ValueError(f"{name} shape {stage.shape}, expected {support.shape}")
    if np.any(np.abs(stage[~support]) > tol):
        raise ValueError(f"{name} has entries outside its hardware support")
    if np.any(np.abs(np.abs(stage[support]) - 1) > tol):
        raise ValueError(f"{name} entries on the hardware support are not unit modulus")


def _check_channel(channel: ChannelRealization, cfg: ReceiverConfig) -> None:
    expected = (cfg.subcarriers, cfg.n_bs, cfg.users * cfg.n_u)
    if channel.h.shape != expected:
        raise ValueError(f"channel shape {channel.h.shape} does not match config {expected}")
