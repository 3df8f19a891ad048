"""Wideband multi-user channel generation, steering vectors, and file I/O.

A channel maps all user transmit antennas, in contiguous equal blocks, one
per user, to all base-station antennas on every subcarrier. It is not held
as a tensor but as each user's P propagation paths (``PathChannel``),
H_u[k] = A_rx^T diag(w_k) A_tx^*: the layers downstream ask it three things
only (the per-user transmit covariances, the diagonal blocks of the receive
covariance, and the stream channel H[k] V for a precoder V), and every
answer comes from P x P cores.

A channel is made in two steps. The draw (``PathDraw``) is what the
clustered multipath generator samples, a Saleh-Valenzuela-style profile with
a Rician line-of-sight ray: per path a complex gain, a delay and four
angles, with no geometry. The build puts a draw on a configuration: steering
vectors from its arrays, delay phases from its subcarrier grid, and the
power normalization. A channel dump holds the draw, so one dump serves every
array size, subcarrier count and bandwidth.

Each user's channel is normalized so its average Frobenius power over
subcarriers equals ``n_rx * n_tx``. That pins the meaning of the per-antenna
SNR: the link reads it as the SNR after the LNA, while the VGA sizing rule
(``power.vga_gain_db``) reads the same ``snr_db`` as signal over kTB, with
the LNA noise factor on top. The offset is the same for every architecture,
so the ranking at one SNR does not change.
"""

from __future__ import annotations

import itertools
import math
import os
from dataclasses import dataclass

import numpy as np
import numpy.random  # loaded with the package, so forked sweep workers import nothing

from .config import ArrayGeometry, ReceiverConfig, _check_domains

CHANNEL_MAGIC = "SUBTHZ-CHAN"
CHANNEL_FORMAT_VERSION = "v2"
_HEADER_LIMIT = 128    # bytes read in search of the header line

# A path's angles, one row each: azimuth and elevation at the base station,
# then at the user. LOS and cluster-center angles are drawn within
# +-_ANGLE_RANGES (radians, a forward sector for an indoor hop); every path's
# angles are clipped to +-_ANGLE_LIMITS.
_ANGLE_RANGES = np.radians([60.0, 30.0, 60.0, 30.0])
_ANGLE_LIMITS = np.array([[np.pi], [np.pi / 2], [np.pi], [np.pi / 2]])
# A dump's delays lie within +-_DELAY_LIMIT seconds. The generator's stay
# below 50 spreads (numpy's exponentials stay below 45 scales), 50 us at the
# top of the delay-spread domain; this range holds them with margin.
_DELAY_LIMIT = 1e-3


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
        _check_domains(vars(self))


@dataclass(frozen=True, eq=False)
class PathDraw:
    """Every user's drawn paths, before any geometry: what a dump holds.

    Attributes:
        gains: (users, P) complex path gains.
        delays: (users, P) path delays in seconds.
        angles: (users, 4, P) path angles in radians, rows as in
            ``_ANGLE_RANGES``, each within its ``_ANGLE_LIMITS``.
    """

    gains: np.ndarray
    delays: np.ndarray
    angles: np.ndarray


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
        draw: the paths it was built from, which ``save_channel`` writes.
    """

    weights: np.ndarray
    a_rx: np.ndarray
    a_tx: np.ndarray
    draw: PathDraw

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


def _subcarrier_frequencies(subcarriers: int, bandwidth_hz: float) -> np.ndarray:
    """Baseband subcarrier grid: ``subcarriers`` points uniform on [-B/2, B/2)."""
    return (np.arange(subcarriers) / subcarriers - 0.5) * bandwidth_hz


def _steering_matrix(geometry: ArrayGeometry, d: float, azimuth: np.ndarray,
                     elevation: np.ndarray) -> np.ndarray:
    """Steering vectors exp(j*2*pi*d*(m*sin(az)*cos(el) + n*sin(el))), unnormalized,
    over row-major element indices (m, n) at element spacing ``d`` wavelengths, one
    per (azimuth, elevation) pair: shape (*azimuth.shape, geometry.count)."""
    m = np.arange(geometry.rows)
    n = np.arange(geometry.cols)
    az = azimuth[..., None]
    el = elevation[..., None]
    row_phase = 2 * np.pi * d * m * (np.sin(az) * np.cos(el))   # (..., rows)
    col_phase = 2 * np.pi * d * n * np.sin(el)                  # (..., cols)
    phases = row_phase[..., :, None] + col_phase[..., None, :]  # (..., rows, cols)
    return np.exp(1j * phases).reshape(*azimuth.shape, geometry.count)


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
    kappa = 10 ** (params.k_factor_db / 10)
    if math.isinf(kappa):
        los_power, diffuse_power = 1.0, 0.0
    else:
        los_power, diffuse_power = kappa / (1 + kappa), 1 / (1 + kappa)

    users = [_draw_user(rng, params, los_power, diffuse_power) for _ in range(cfg.users)]
    return _build(cfg, PathDraw(*(np.stack(arrays) for arrays in zip(*users))))


def _draw_user(rng: np.random.Generator, params: ClusterChannelParams, los_power: float,
               diffuse_power: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One user's path gains (P,), delays (P,) and clipped angles (4, P)."""
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
    return (np.concatenate(gains), np.concatenate(delays),
            np.clip(np.hstack(angles), -_ANGLE_LIMITS, _ANGLE_LIMITS))


def _build(cfg: ReceiverConfig, draw: PathDraw) -> PathChannel:
    """The channel of ``draw`` on ``cfg``'s arrays and subcarrier grid, for
    every user at once. Each user's gains are first scaled by 2^-e, e the
    exponent of its largest gain component: that is exact, so the weights are
    those of the unscaled gains, and the power can neither overflow nor
    underflow. A user whose paths carry no power is left unnormalized.
    """
    freqs = _subcarrier_frequencies(cfg.subcarriers, cfg.bandwidth_hz)
    az_rx, el_rx, az_tx, el_tx = draw.angles.swapaxes(0, 1)       # each (U, P)
    d = cfg.element_spacing_wavelengths
    a_rx = _steering_matrix(cfg.bs_geometry, d, az_rx, el_rx)     # (U, P, n_bs)
    a_tx = _steering_matrix(cfg.user_geometry, d, az_tx, el_tx)   # (U, P, n_u)
    phase_arg = -2j * np.pi * draw.delays[..., None] * freqs       # (U, P, K)
    # Scaled part by part: a complex product with a real factor would flip
    # the sign of some zero gains.
    exponent = np.frexp(np.maximum(abs(draw.gains.real), abs(draw.gains.imag)).max(axis=1))[1]
    gains = draw.gains.copy()
    for part in (gains.real, gains.imag):
        np.ldexp(part, -exponent[:, None], out=part)
    weights = gains[..., None] * np.exp(phase_arg)                 # (U, P, K)
    # mean_k ||H_u[k]||_F^2 = mean_k w_k^H [(a_rx^* a_rx^T) * (a_tx a_tx^H)] w_k
    gram = (a_rx.conj() @ a_rx.swapaxes(1, 2)) * (a_tx @ a_tx.conj().swapaxes(1, 2))
    mean_power = np.sum(weights.conj() * (gram @ weights), axis=(1, 2)).real / len(freqs)
    ratio = np.divide(cfg.n_bs * cfg.n_u, mean_power, out=np.ones(len(mean_power)),
                      where=mean_power > 0)
    weights *= np.sqrt(ratio)[:, None, None]
    return PathChannel(weights, a_rx, a_tx, draw=draw)


def save_channel(channel: PathChannel, path: str) -> None:
    """Write a channel dump: the ASCII header line
    ``SUBTHZ-CHAN v2 U=<users> P=<paths>``, then the channel's draw as
    little-endian float64 values: gains as (real, imag) pairs, delays, and
    angles, each in its ``PathDraw`` shape."""
    draw = channel.draw
    users, paths = draw.delays.shape
    with open(path, "wb") as fh:
        fh.write(f"{CHANNEL_MAGIC} {CHANNEL_FORMAT_VERSION} U={users} P={paths}\n".encode("ascii"))
        for values, dtype in ((draw.gains, "<c16"), (draw.delays, "<f8"), (draw.angles, "<f8")):
            fh.write(np.ascontiguousarray(values, dtype=dtype).data)


def load_channel(path: str, cfg: ReceiverConfig) -> PathChannel:
    """Read a channel dump and build its paths on ``cfg``: for the seed it
    was drawn with, bit for bit the ``generate_channel`` of ``cfg``.

    Raises:
        ChannelFormatError: a malformed header (a v1 one included), a
            truncated or oversized payload, a non-finite value, or a delay
            or an angle outside its range, with the byte offset where it
            was found.
        ChannelDimensionError: the dump's user count is not ``cfg.users``.
    """
    with open(path, "rb") as fh:
        line = fh.readline(_HEADER_LIMIT)
        users, paths = _read_header(line)
        if users != cfg.users:
            raise ChannelDimensionError(f"dump has U={users}, config expects U={cfg.users}")
        size = os.fstat(fh.fileno()).st_size - len(line)
        expected = 56 * users * paths   # 7 float64 per path: gain (real, imag), delay, 4 angles
        if size != expected:
            raise ChannelFormatError(f"payload holds {size} bytes, expected {expected}",
                                     byte_offset=len(line) + min(size, expected))
        values = np.frombuffer(fh.read(), dtype="<f8").astype(np.float64)

    n = users * paths
    limits = np.concatenate([np.full(2 * n, np.finfo(np.float64).max), np.full(n, _DELAY_LIMIT),
                             np.broadcast_to(_ANGLE_LIMITS, (users, 4, paths)).ravel()])
    bad = np.flatnonzero(~(np.abs(values) <= limits))
    if bad.size:
        i = bad[0]
        problem = "non-finite value" if not np.isfinite(values[i]) else \
            f"{'delay' if i < 3 * n else 'angle'} outside +-{float(limits[i])!r}:"
        raise ChannelFormatError(f"{problem} {float(values[i])!r}", byte_offset=len(line) + 8 * i)
    gains, delays, angles = np.split(values, [2 * n, 3 * n])
    return _build(cfg, PathDraw(gains.view(np.complex128).reshape(users, paths),
                                delays.reshape(users, paths), angles.reshape(users, 4, paths)))


def _read_header(line: bytes) -> tuple[int, int]:
    """The users and paths of the header line ``SUBTHZ-CHAN v2 U=<users> P=<paths>``."""
    if not line.endswith(b"\n"):
        raise ChannelFormatError("missing header line", byte_offset=0)
    try:
        tokens = line[:-1].decode("ascii").split(" ")
    except UnicodeDecodeError as exc:
        raise ChannelFormatError("header is not ASCII", byte_offset=exc.start) from None
    starts = [0, *itertools.accumulate(len(token) + 1 for token in tokens)]
    if tokens[0] != CHANNEL_MAGIC:
        raise ChannelFormatError(f"not a channel dump: header {line!r}", byte_offset=0)
    version = tokens[1] if len(tokens) > 1 else ""
    if version != CHANNEL_FORMAT_VERSION:
        raise ChannelFormatError(f"dump format {version!r} is not read, only "
                                 f"{CHANNEL_FORMAT_VERSION!r}", byte_offset=starts[1])
    if len(tokens) != 4:
        raise ChannelFormatError(f"bad header {line!r}", byte_offset=0)
    fields = []
    for key, token, start in zip("UP", tokens[2:], starts[2:]):
        name, _, value = token.partition("=")
        if name != key or not value.isdigit() or int(value) < 1:
            raise ChannelFormatError(f"bad header field {token!r}, expected {key}=<positive integer>",
                                     byte_offset=start)
        fields.append(int(value))
    return fields[0], fields[1]
