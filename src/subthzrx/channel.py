"""Wideband multi-user channel generation, steering vectors, and file I/O.

A channel maps all user transmit antennas, in contiguous equal blocks, one
per user, to all base-station antennas on every subcarrier. It is not held
as a tensor: the layers downstream ask it three things only (the per-user
transmit covariances, the diagonal blocks of the receive covariance, and the
stream channel H[k] V for a precoder V), and two realizations answer them:

- ``PathChannel``, what the built-in generator draws: a clustered multipath
  channel (a Saleh-Valenzuela-style profile with a Rician line-of-sight ray)
  kept as each user's P paths, H_u[k] = A_rx^T diag(w_k) A_tx^*, so every
  answer comes from P x P cores. Its dense tensor is built only on request.
- ``ChannelRealization``, a dense tensor ``h[k, rx, tx]``: what a channel
  dump holds, so measured or externally generated channels can be supplied.

Each user's channel is normalized so its average Frobenius power over
subcarriers equals ``n_rx * n_tx``. That pins the meaning of the per-antenna
SNR knob shared by the link simulation and the VGA sizing rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import numpy.random  # loaded with the package, so forked sweep workers import nothing

from .config import ArrayGeometry, ReceiverConfig, check_db

CHANNEL_MAGIC = "SUBTHZ-CHAN"
CHANNEL_FORMAT_VERSION = "v1"

# A path's angles, one row each: azimuth and elevation at the base station,
# then at the user. LOS and cluster-center angles are drawn within
# +-_ANGLE_RANGES (radians, a forward sector for an indoor hop); every path's
# angles are clipped to +-_ANGLE_LIMITS.
_ANGLE_RANGES = np.radians([60.0, 30.0, 60.0, 30.0])
_ANGLE_LIMITS = np.array([[np.pi], [np.pi / 2], [np.pi], [np.pi / 2]])


class ChannelFormatError(ValueError):
    """A channel dump file is malformed; ``byte_offset`` locates the problem."""

    def __init__(self, message: str, byte_offset: int):
        super().__init__(f"{message} (byte offset {byte_offset})")
        self.byte_offset = byte_offset


class ChannelDimensionError(ValueError):
    """A channel's dimensions do not match the receiver configuration."""


@dataclass(frozen=True)
class ClusterChannelParams:
    """Parameters of the clustered multipath generator."""

    clusters: int = 3
    rays_per_cluster: int = 4
    delay_spread_s: float = 10e-9
    k_factor_db: float = 10.0         # LOS-to-diffuse power ratio
    angle_spread_deg: float = 5.0     # per-cluster ray angle std deviation
    seed: int = 0

    def __post_init__(self):
        if self.clusters < 1 or self.rays_per_cluster < 1:
            raise ValueError("clusters and rays_per_cluster must be >= 1")
        if not 0 < self.delay_spread_s < math.inf:
            raise ValueError("delay_spread_s must be positive and finite")
        if not self.angle_spread_deg >= 0:
            raise ValueError("angle spread must be >= 0")
        check_db(self.k_factor_db, "k_factor_db")   # .inf is a pure line-of-sight channel
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


@dataclass(frozen=True, eq=False)
class ChannelRealization:
    """Dense per-subcarrier channel tensor and the number of users it carries.

    Attributes:
        h: complex tensor of shape (subcarriers, n_rx, n_tx_total).
        n_users: users sharing the transmit dimension; user u owns the
            contiguous column block [u * n_tx_per_user, (u + 1) * n_tx_per_user).
    """

    h: np.ndarray
    n_users: int

    def __post_init__(self):
        if self.h.ndim != 3:
            raise ChannelDimensionError(f"channel tensor must be 3-D, got shape {self.h.shape}")
        if not 1 <= self.n_users <= self.h.shape[2] or self.h.shape[2] % self.n_users != 0:
            raise ChannelDimensionError(
                f"{self.h.shape[2]} transmit columns do not split into {self.n_users} equal user blocks")
        if not np.all(np.isfinite(self.h)):
            raise ValueError("channel tensor contains non-finite entries")

    @property
    def subcarriers(self) -> int:
        return self.h.shape[0]

    @property
    def n_rx(self) -> int:
        return self.h.shape[1]

    @property
    def n_tx_per_user(self) -> int:
        return self.h.shape[2] // self.n_users

    def transmit_covariances(self) -> np.ndarray:
        """Per-user wideband transmit covariances (1/K) sum_k H_u[k]^H H_u[k],
        shape (users, n_tx_per_user, n_tx_per_user)."""
        width = self.n_tx_per_user
        flats = (self.h[:, :, u * width:(u + 1) * width].reshape(-1, width)
                 for u in range(self.n_users))
        return np.stack([flat.conj().T @ flat for flat in flats]) / self.subcarriers

    def receive_covariances(self, blocks: int) -> np.ndarray:
        """Diagonal blocks of the wideband receive covariance
        (1/K) sum_k H[k] H[k]^H, with the receive antennas split into
        ``blocks`` contiguous equal blocks; shape (blocks, n_rx / blocks,
        n_rx / blocks)."""
        rows = self.h.reshape(self.subcarriers, blocks, self.n_rx // blocks, -1)
        return sum(r_k @ r_k.conj().swapaxes(-1, -2) for r_k in rows) / self.subcarriers

    def stream_channel(self, v: np.ndarray) -> np.ndarray:
        """H[k] V on every subcarrier for a (n_tx_total, S) matrix ``v``;
        shape (subcarriers, n_rx, S)."""
        return self.h @ v


@dataclass(frozen=True, eq=False)
class PathChannel:
    """Channel kept as its propagation paths: user u's channel on subcarrier
    k is H_u[k] = a_rx[u]^T diag(weights[u][:, k]) a_tx[u]^*, a sum of P
    rank-one terms.

    Attributes:
        weights: (users, P, subcarriers) path weights, each path's gain times
            its delay phase per subcarrier, with the power normalization
            folded in.
        a_rx: (users, P, n_rx) base-station steering vectors.
        a_tx: (users, P, n_tx_per_user) user steering vectors.
    """

    weights: np.ndarray
    a_rx: np.ndarray
    a_tx: np.ndarray

    @property
    def subcarriers(self) -> int:
        return self.weights.shape[2]

    @property
    def n_rx(self) -> int:
        return self.a_rx.shape[2]

    @property
    def n_users(self) -> int:
        return self.weights.shape[0]

    @property
    def n_tx_per_user(self) -> int:
        return self.a_tx.shape[2]

    @property
    def h(self) -> np.ndarray:
        """The dense (subcarriers, n_rx, n_tx_total) tensor, built on each
        access, one user's block at a time."""
        width = self.n_tx_per_user
        h = np.empty((self.subcarriers, self.n_rx, self.n_users * width), dtype=np.complex128)
        for u, (weights, a_rx, a_tx) in enumerate(zip(self.weights, self.a_rx, self.a_tx)):
            h[:, :, u * width:(u + 1) * width] = np.einsum("pk,pr,pt->krt", weights, a_rx,
                                                           a_tx.conj(), optimize=True)
        return h

    def _cores(self, a: np.ndarray, weights: np.ndarray) -> np.ndarray:
        """(users, P, P) cores (a^* a^T) * (weights weights^H) / K."""
        return (a.conj() @ a.swapaxes(1, 2)) * (weights @ weights.conj().swapaxes(1, 2)) \
            / self.subcarriers

    def transmit_covariances(self) -> np.ndarray:
        """Per-user (1/K) sum_k H_u[k]^H H_u[k] = a_tx^T [(a_rx^* a_rx^T) *
        (W^* W^T) / K] a_tx^*; shape (users, n_tx_per_user, n_tx_per_user)."""
        return self.a_tx.swapaxes(1, 2) @ self._cores(self.a_rx, self.weights.conj()) \
            @ self.a_tx.conj()

    def receive_covariances(self, blocks: int) -> np.ndarray:
        """Diagonal blocks of (1/K) sum_k H[k] H[k]^H = sum_u a_rx^T
        [(a_tx^* a_tx^T) * (W W^H) / K] a_rx^*, with the receive antennas
        split into ``blocks`` contiguous equal blocks; shape (blocks,
        n_rx / blocks, n_rx / blocks)."""
        size = self.n_rx // blocks
        right = self._cores(self.a_tx, self.weights) @ self.a_rx.conj()    # (U, P, n_rx)
        left = self.a_rx.reshape(-1, blocks, size).transpose(1, 2, 0)      # (blocks, size, U P)
        return left @ right.reshape(-1, blocks, size).transpose(1, 0, 2)

    def stream_channel(self, v: np.ndarray) -> np.ndarray:
        """H[k] V = sum_u a_rx[u]^T diag(w_k) a_tx[u]^* V_u on every
        subcarrier, with V_u user u's rows of the (n_tx_total, S) matrix
        ``v``; shape (subcarriers, n_rx, S)."""
        users, paths, k_count = self.weights.shape
        projected = self.a_tx.conj() @ v.reshape(users, self.n_tx_per_user, -1)   # (U, P, S)
        terms = self.weights.transpose(2, 0, 1)[..., None] * projected            # (K, U, P, S)
        return self.a_rx.reshape(users * paths, -1).T @ terms.reshape(k_count, users * paths, -1)


Channel = ChannelRealization | PathChannel


def subcarrier_frequencies(subcarriers: int, bandwidth_hz: float) -> np.ndarray:
    """Baseband subcarrier grid: ``subcarriers`` points uniform on [-B/2, B/2)."""
    return (np.arange(subcarriers) / subcarriers - 0.5) * bandwidth_hz


def steering_vector(geometry: ArrayGeometry, azimuth: float, elevation: float) -> np.ndarray:
    """Planar-array response for a plane wave from (azimuth, elevation).

    Entries are unit-magnitude phasors exp(j*2*pi*d*(m*sin(az)*cos(el) +
    n*sin(el))) over row-major element indices (m, n); no normalization is
    applied (combiner design normalizes where needed).
    """
    if abs(azimuth) > math.pi or abs(elevation) > math.pi / 2:
        raise ValueError("require |azimuth| <= pi and |elevation| <= pi/2")
    return _steering_matrix(geometry, np.asarray([azimuth]), np.asarray([elevation]))[0]


def _steering_matrix(geometry: ArrayGeometry, azimuth: np.ndarray, elevation: np.ndarray) -> np.ndarray:
    """Stacked steering vectors, one row per (azimuth, elevation) pair."""
    m = np.arange(geometry.rows)
    n = np.arange(geometry.cols)
    d = geometry.spacing_wavelengths
    az = azimuth[:, None]
    el = elevation[:, None]
    row_phase = 2 * np.pi * d * m[None, :] * (np.sin(az) * np.cos(el))   # (P, rows)
    col_phase = 2 * np.pi * d * n[None, :] * np.sin(el)                  # (P, cols)
    phases = row_phase[:, :, None] + col_phase[:, None, :]               # (P, rows, cols)
    return np.exp(1j * phases).reshape(len(azimuth), geometry.count)


def generate_channel(cfg: ReceiverConfig, params: ClusterChannelParams) -> PathChannel:
    """Draw one clustered multipath realization for all users.

    Per user: one line-of-sight ray at zero delay carrying the Rician
    fraction of the power, plus ``clusters`` diffuse clusters whose delays
    follow an exponential profile and whose rays get Rayleigh gains and
    Laplacian angle offsets around the cluster center. Each user's path
    weights are rescaled so the mean Frobenius power of its channel over
    subcarriers is exactly ``n_bs * n_u``. Deterministic for a fixed seed.
    """
    rng = np.random.default_rng(params.seed)
    freqs = subcarrier_frequencies(cfg.subcarriers, cfg.bandwidth_hz)

    kappa = 10 ** (params.k_factor_db / 10)
    if math.isinf(kappa):
        los_power, diffuse_power = 1.0, 0.0
    else:
        los_power, diffuse_power = kappa / (1 + kappa), 1 / (1 + kappa)

    users = [_draw_user(rng, cfg, params, freqs, los_power, diffuse_power)
             for _ in range(cfg.users)]
    return PathChannel(*(np.stack(arrays) for arrays in zip(*users)))


def _draw_user(rng: np.random.Generator, cfg: ReceiverConfig, params: ClusterChannelParams,
               freqs: np.ndarray, los_power: float,
               diffuse_power: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One user's normalized path weights (P, K) and steering vectors
    a_rx (P, n_bs) and a_tx (P, n_u)."""
    # The LOS path comes first, at zero delay.
    delays, angles = [np.zeros(1)], [rng.uniform(-_ANGLE_RANGES, _ANGLE_RANGES)[:, None]]
    gains = [math.sqrt(los_power) * np.exp(2j * np.pi * rng.uniform(size=1))]

    cluster_delays = rng.exponential(params.delay_spread_s, params.clusters)
    cluster_power = np.exp(-cluster_delays / params.delay_spread_s)
    cluster_power /= cluster_power.sum()
    lap_scale = math.radians(params.angle_spread_deg) / math.sqrt(2)  # Laplacian std == angle spread
    rays = params.rays_per_cluster
    for c in range(params.clusters):
        delays.append(cluster_delays[c] + rng.exponential(params.delay_spread_s / 10, rays))
        center = rng.uniform(-_ANGLE_RANGES, _ANGLE_RANGES)
        angles.append(center[:, None] + rng.laplace(0.0, lap_scale, (4, rays)))
        ray_std = math.sqrt(diffuse_power * cluster_power[c] / rays / 2)
        gains.append(ray_std * (rng.standard_normal(rays) + 1j * rng.standard_normal(rays)))
    delays, gains = np.concatenate(delays), np.concatenate(gains)
    az_rx, el_rx, az_tx, el_tx = np.clip(np.hstack(angles), -_ANGLE_LIMITS, _ANGLE_LIMITS)

    a_rx = _steering_matrix(cfg.bs_geometry, az_rx, el_rx)        # (P, n_bs)
    a_tx = _steering_matrix(cfg.user_geometry, az_tx, el_tx)      # (P, n_u)
    phase = np.exp(-2j * np.pi * delays[:, None] * freqs[None, :])  # (P, K)
    weights = gains[:, None] * phase                                # (P, K)
    # mean_k ||H[k]||_F^2 = mean_k w_k^H [(a_rx^* a_rx^T) * (a_tx a_tx^H)] w_k
    gram = (a_rx.conj() @ a_rx.T) * (a_tx @ a_tx.conj().T)
    mean_power = np.sum(weights.conj() * (gram @ weights)).real / len(freqs)
    if mean_power > 0:
        weights *= math.sqrt(cfg.n_bs * cfg.n_u / mean_power)
    return weights, a_rx, a_tx


def save_channel(realization: Channel, path: str) -> None:
    """Write a channel dump: ASCII header line + little-endian float64 pairs.
    A path realization is made dense for it.

    Payload layout is (real, imag) pairs in [subcarrier][rx][tx] order.
    """
    h = realization.h
    header = (
        f"{CHANNEL_MAGIC} {CHANNEL_FORMAT_VERSION} "
        f"K={h.shape[0]} NRX={h.shape[1]} NTX={h.shape[2]} U={realization.n_users}\n"
    )
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        fh.write(np.ascontiguousarray(h, dtype="<c16").data)


def load_channel(path: str, cfg: ReceiverConfig) -> ChannelRealization:
    """Read a channel dump and validate it against ``cfg``.

    Raises:
        ChannelFormatError: malformed header or truncated/oversized payload,
            with the byte offset where the problem was detected.
        ChannelDimensionError: header dimensions do not match ``cfg``.
    """
    with open(path, "rb") as fh:
        line = fh.readline()
        if not line.endswith(b"\n"):
            raise ChannelFormatError("missing header line", byte_offset=0)
        try:
            header = line[:-1].decode("ascii")
        except UnicodeDecodeError as exc:
            raise ChannelFormatError("header is not ASCII", byte_offset=exc.start) from None

        fields = _parse_header(header)
        k, n_rx, n_tx, users = fields["K"], fields["NRX"], fields["NTX"], fields["U"]
        if k != cfg.subcarriers or n_rx != cfg.n_bs or n_tx != cfg.users * cfg.n_u or users != cfg.users:
            raise ChannelDimensionError(
                f"dump has K={k} NRX={n_rx} NTX={n_tx} U={users}, config expects "
                f"K={cfg.subcarriers} NRX={cfg.n_bs} NTX={cfg.users * cfg.n_u} U={cfg.users}"
            )

        # Read straight into the array; trailing bytes are read only to count them.
        h = np.empty((k, n_rx, n_tx), dtype="<c16")
        expected = h.nbytes
        size = fh.readinto(h)
        if size == expected:
            size += len(fh.read())
    if size != expected:
        raise ChannelFormatError(
            f"payload holds {size} bytes, expected {expected}",
            byte_offset=len(line) + min(size, expected),
        )
    return ChannelRealization(h=h.astype(np.complex128, copy=False), n_users=users)


def _parse_header(header: str) -> dict[str, int]:
    tokens = header.split()
    if len(tokens) != 6 or tokens[0] != CHANNEL_MAGIC or tokens[1] != CHANNEL_FORMAT_VERSION:
        raise ChannelFormatError(f"bad header {header!r}", byte_offset=0)
    fields: dict[str, int] = {}
    offset = len(tokens[0]) + len(tokens[1]) + 2
    for token in tokens[2:]:
        key, _, value = token.partition("=")
        if key not in ("K", "NRX", "NTX", "U") or not value.isdigit() or int(value) < 1:
            raise ChannelFormatError(f"bad header field {token!r}", byte_offset=offset)
        fields[key] = int(value)
        offset += len(token) + 1
    if set(fields) != {"K", "NRX", "NTX", "U"} or fields["NTX"] % fields["U"] != 0:
        raise ChannelFormatError(f"bad header {header!r}", byte_offset=0)
    return fields
