"""Wideband multi-user channel generation, steering vectors, and file I/O.

A channel is a frequency-domain tensor ``h[k, rx, tx]`` plus a user count:
per subcarrier, the matrix from all user transmit antennas to all
base-station antennas, whose columns split into contiguous equal blocks, one
per user. The built-in generator draws a clustered multipath channel (a
Saleh-Valenzuela-style profile with a Rician line-of-sight ray); measured or
externally generated channels can be supplied through the dump format instead.

Each user's channel is normalized so its average Frobenius power over
subcarriers equals ``n_rx * n_tx``. That pins the meaning of the per-antenna
SNR knob shared by the link simulation and the VGA sizing rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import ArrayGeometry, ReceiverConfig

CHANNEL_MAGIC = "SUBTHZ-CHAN"
CHANNEL_FORMAT_VERSION = "v1"

# Cluster/ray angle draw ranges (radians): a forward sector for an indoor hop.
_AZ_RANGE = math.radians(60.0)
_EL_RANGE = math.radians(30.0)


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
    carrier_hz: float = 140e9         # read by no computation; kept so configs load

    def __post_init__(self):
        if self.clusters < 1 or self.rays_per_cluster < 1:
            raise ValueError("clusters and rays_per_cluster must be >= 1")
        if self.delay_spread_s <= 0:
            raise ValueError("delay spread must be positive")
        if self.angle_spread_deg < 0:
            raise ValueError("angle spread must be >= 0")


@dataclass(frozen=True, eq=False)
class ChannelRealization:
    """Per-subcarrier channel tensor and the number of users it carries.

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

    def user_channel(self, user: int) -> np.ndarray:
        """View of one user's (subcarriers, n_rx, n_tx_per_user) block."""
        width = self.n_tx_per_user
        return self.h[:, :, user * width:(user + 1) * width]


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


def generate_channel(cfg: ReceiverConfig, params: ClusterChannelParams) -> ChannelRealization:
    """Draw one clustered multipath realization for all users.

    Per user: one line-of-sight ray at zero delay carrying the Rician
    fraction of the power, plus ``clusters`` diffuse clusters whose delays
    follow an exponential profile and whose rays get Rayleigh gains and
    Laplacian angle offsets around the cluster center. The per-user tensor is
    rescaled so its mean Frobenius power over subcarriers is exactly
    ``n_bs * n_u``. Deterministic for a fixed seed.
    """
    rng = np.random.default_rng(params.seed)
    k = cfg.subcarriers
    n_bs, n_u, users = cfg.n_bs, cfg.n_u, cfg.users
    freqs = subcarrier_frequencies(k, cfg.bandwidth_hz)

    kappa = 10 ** (params.k_factor_db / 10)
    if math.isinf(kappa):
        los_power, diffuse_power = 1.0, 0.0
    else:
        los_power, diffuse_power = kappa / (1 + kappa), 1 / (1 + kappa)

    h = np.empty((k, n_bs, users * n_u), dtype=np.complex128)
    for u in range(users):
        h[:, :, u * n_u:(u + 1) * n_u] = _draw_user(rng, cfg, params, freqs, los_power, diffuse_power)
    return ChannelRealization(h=h, n_users=users)


def _draw_user(rng: np.random.Generator, cfg: ReceiverConfig, params: ClusterChannelParams,
               freqs: np.ndarray, los_power: float, diffuse_power: float) -> np.ndarray:
    n_rays = params.clusters * params.rays_per_cluster
    n_paths = 1 + n_rays  # LOS first

    delays = np.zeros(n_paths)
    gains = np.zeros(n_paths, dtype=np.complex128)
    az_rx = np.zeros(n_paths)
    el_rx = np.zeros(n_paths)
    az_tx = np.zeros(n_paths)
    el_tx = np.zeros(n_paths)

    az_rx[0] = rng.uniform(-_AZ_RANGE, _AZ_RANGE)
    el_rx[0] = rng.uniform(-_EL_RANGE, _EL_RANGE)
    az_tx[0] = rng.uniform(-_AZ_RANGE, _AZ_RANGE)
    el_tx[0] = rng.uniform(-_EL_RANGE, _EL_RANGE)
    gains[0] = math.sqrt(los_power) * np.exp(2j * np.pi * rng.uniform())

    cluster_delays = rng.exponential(params.delay_spread_s, params.clusters)
    cluster_power = np.exp(-cluster_delays / params.delay_spread_s)
    cluster_power /= cluster_power.sum()
    spread = math.radians(params.angle_spread_deg)
    lap_scale = spread / math.sqrt(2)  # Laplacian std == angle spread

    for c in range(params.clusters):
        rays = params.rays_per_cluster
        sl = slice(1 + c * rays, 1 + (c + 1) * rays)
        delays[sl] = cluster_delays[c] + rng.exponential(params.delay_spread_s / 10, rays)
        center = rng.uniform([-_AZ_RANGE, -_EL_RANGE, -_AZ_RANGE, -_EL_RANGE],
                             [_AZ_RANGE, _EL_RANGE, _AZ_RANGE, _EL_RANGE])
        az_rx[sl] = center[0] + rng.laplace(0.0, lap_scale, rays)
        el_rx[sl] = center[1] + rng.laplace(0.0, lap_scale, rays)
        az_tx[sl] = center[2] + rng.laplace(0.0, lap_scale, rays)
        el_tx[sl] = center[3] + rng.laplace(0.0, lap_scale, rays)
        ray_std = math.sqrt(diffuse_power * cluster_power[c] / rays / 2)
        gains[sl] = ray_std * (rng.standard_normal(rays) + 1j * rng.standard_normal(rays))

    np.clip(az_rx, -np.pi, np.pi, out=az_rx)
    np.clip(az_tx, -np.pi, np.pi, out=az_tx)
    np.clip(el_rx, -np.pi / 2, np.pi / 2, out=el_rx)
    np.clip(el_tx, -np.pi / 2, np.pi / 2, out=el_tx)

    a_rx = _steering_matrix(cfg.bs_geometry, az_rx, el_rx)        # (P, n_bs)
    a_tx = _steering_matrix(cfg.user_geometry, az_tx, el_tx)      # (P, n_u)
    phase = np.exp(-2j * np.pi * delays[:, None] * freqs[None, :])  # (P, K)
    weights = gains[:, None] * phase                                # (P, K)
    h_user = np.einsum("pk,pr,pt->krt", weights, a_rx, a_tx.conj(), optimize=True)

    mean_power = np.mean(np.sum(np.abs(h_user) ** 2, axis=(1, 2)))
    target = cfg.n_bs * cfg.n_u
    if mean_power > 0:
        h_user *= math.sqrt(target / mean_power)
    return h_user


def save_channel(realization: ChannelRealization, path: str) -> None:
    """Write a channel dump: ASCII header line + little-endian float64 pairs.

    Payload layout is (real, imag) pairs in [subcarrier][rx][tx] order.
    """
    header = (
        f"{CHANNEL_MAGIC} {CHANNEL_FORMAT_VERSION} "
        f"K={realization.subcarriers} NRX={realization.n_rx} "
        f"NTX={realization.h.shape[2]} U={realization.n_users}\n"
    )
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        fh.write(np.ascontiguousarray(realization.h, dtype="<c16").data)


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
