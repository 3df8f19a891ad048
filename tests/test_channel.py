import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest

from hypothesis import given, settings, strategies as st

from subthzrx import (ArrayGeometry, ChannelDimensionError, ChannelFormatError,
                      ClusterChannelParams, ConfigError, ReceiverConfig, generate_channel,
                      load_channel, save_channel, steering_vector, subcarrier_frequencies)
from subthzrx.config import _DOMAINS

from conftest import dense, receiver_configs, small_config


class TestSteeringVector:
    def test_broadside_is_all_ones(self):
        vec = steering_vector(ArrayGeometry(4, 3), 0.0, 0.0)
        np.testing.assert_allclose(vec, np.ones(12), atol=1e-15)

    def test_half_wavelength_endfire(self):
        vec = steering_vector(ArrayGeometry(2, 1), math.pi / 2, 0.0)
        np.testing.assert_allclose(vec, [1.0, -1.0], atol=1e-12)

    def test_linear_phase_progression(self):
        vec = steering_vector(ArrayGeometry(4, 1), math.radians(30), 0.0)
        expected = np.exp(1j * np.pi * math.sin(math.radians(30)) * np.arange(4))
        np.testing.assert_allclose(vec, expected, atol=1e-12)

    def test_entries_always_unit_magnitude(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            geom = ArrayGeometry(int(rng.integers(1, 9)), int(rng.integers(1, 9)))
            spacing = float(rng.uniform(0.1, 1.0))
            az = float(rng.uniform(-np.pi, np.pi))
            el = float(rng.uniform(-np.pi / 2, np.pi / 2))
            vec = steering_vector(geom, az, el, spacing)
            assert vec.shape == (geom.count,)
            np.testing.assert_allclose(np.abs(vec), 1.0, atol=1e-12)

    def test_rejects_out_of_range_angles(self):
        with pytest.raises(ValueError):
            steering_vector(ArrayGeometry(2, 2), 3.5, 0.0)
        with pytest.raises(ValueError):
            steering_vector(ArrayGeometry(2, 2), 0.0, 2.0)


def test_subcarrier_grid_spans_baseband():
    freqs = subcarrier_frequencies(8, 800e6)
    assert freqs[0] == -400e6
    assert freqs[-1] < 400e6
    np.testing.assert_allclose(np.diff(freqs), 100e6)


class TestGenerateChannel:
    def test_dimensions_and_user_blocks(self):
        cfg = small_config(users=2, user_rows=2, user_cols=2, subcarriers=6)
        chan = generate_channel(cfg, ClusterChannelParams(seed=1))
        assert dense(chan).h.shape == (6, cfg.n_bs, 2 * 4)
        assert chan.n_users == 2 and chan.n_tx_per_user == 4

    def test_seeded_determinism(self):
        cfg = small_config()
        params = ClusterChannelParams(seed=42)
        a = generate_channel(cfg, params)
        b = generate_channel(cfg, params)
        assert np.array_equal(dense(a).h, dense(b).h)
        c = generate_channel(cfg, dataclasses.replace(params, seed=43))
        assert not np.array_equal(dense(a).h, dense(c).h)

    def test_per_user_power_normalization(self):
        cfg = small_config(users=3, rf=4, rows=4, cols=4, subcarriers=16)
        chan = generate_channel(cfg, ClusterChannelParams(seed=9))
        h = dense(chan).h
        for u in range(3):
            h_u = h[:, :, u * cfg.n_u:(u + 1) * cfg.n_u]
            mean_power = np.mean(np.sum(np.abs(h_u) ** 2, axis=(1, 2)))
            assert mean_power == pytest.approx(cfg.n_bs * cfg.n_u, abs=1e-9)

    def test_pure_los_channel_is_rank_one(self):
        cfg = small_config(users=1, rf=1, user_rows=2, user_cols=2, subcarriers=8)
        chan = generate_channel(cfg, ClusterChannelParams(k_factor_db=math.inf, seed=2))
        for h_k in dense(chan).h:
            sv = np.linalg.svd(h_k, compute_uv=False)
            assert sv[0] > 1.0
            assert sv[1] == pytest.approx(0.0, abs=1e-9 * sv[0])

    def test_vanishing_delay_spread_gives_flat_fading(self):
        cfg = small_config(subcarriers=8)
        chan = generate_channel(cfg, ClusterChannelParams(delay_spread_s=1e-30, seed=3))
        h = dense(chan).h
        for k in range(1, 8):
            np.testing.assert_allclose(h[k], h[0], atol=1e-9)

    def test_delay_whose_phase_overflows_is_named(self):
        # A spread whose drawn delays would overflow 2 pi tau f lies outside
        # the delay-spread domain; at its top, every delay phase is a float.
        with pytest.raises(ConfigError, match=r"delay_spread_s must lie in \[1e-30, 1e-06\] s"):
            ClusterChannelParams(delay_spread_s=1e300, seed=3)
        top = small_config(bandwidth_hz=_DOMAINS["bandwidth_hz"][1])
        for seed in range(10):
            chan = generate_channel(top, ClusterChannelParams(delay_spread_s=1e-6, seed=seed))
            assert np.all(np.isfinite(chan.weights)) and np.all(chan.draw.delays < 50e-6)


def _close(actual, expected, rtol=1e-12):
    """Agreement to ``rtol`` relative to the largest entry of ``expected``."""
    np.testing.assert_allclose(actual, expected, rtol=0,
                               atol=rtol * max(np.max(np.abs(expected)), 1e-300))


class TestPathMatchesDense:
    """A generated channel answers every question in path form; its dense
    tensor, wrapped as the tests' ``DenseChannel``, must give the same answers."""

    @settings(max_examples=60, deadline=None)
    @given(cfg=receiver_configs(), seed=st.integers(0, 2**16), los=st.booleans())
    def test_interface_answers_match_dense(self, cfg, seed, los):
        params = ClusterChannelParams(seed=seed, k_factor_db=math.inf if los else 10.0)
        path = generate_channel(cfg, params)
        reference_channel = dense(path)
        h = reference_channel.h

        # Each user's einsum over its paths, rescaled to mean Frobenius
        # power n_bs * n_u, is the tensor itself: the paths are normalized.
        reference = np.concatenate([
            np.einsum("pk,pr,pt->krt", w, a_rx, a_tx.conj(), optimize=True)
            for w, a_rx, a_tx in zip(path.weights, path.a_rx, path.a_tx)], axis=2)
        for u in range(cfg.users):
            block = reference[:, :, u * cfg.n_u:(u + 1) * cfg.n_u]
            block *= math.sqrt(cfg.n_bs * cfg.n_u / np.mean(np.sum(np.abs(block) ** 2, axis=(1, 2))))
            mean_power = np.mean(np.sum(np.abs(h[:, :, u * cfg.n_u:(u + 1) * cfg.n_u]) ** 2,
                                        axis=(1, 2)))
            assert mean_power == pytest.approx(cfg.n_bs * cfg.n_u, rel=1e-12)
        _close(h, reference)

        assert (path.subcarriers, path.n_rx, path.n_users, path.n_tx_per_user) == \
            (reference_channel.subcarriers, reference_channel.n_rx, reference_channel.n_users,
             reference_channel.n_tx_per_user)
        _close(path.transmit_covariances(), reference_channel.transmit_covariances())
        for blocks in (b for b in range(1, cfg.n_bs + 1) if cfg.n_bs % b == 0):
            _close(path.receive_covariances(blocks), reference_channel.receive_covariances(blocks))
        rng = np.random.default_rng(seed)
        v = rng.standard_normal((h.shape[2], 3)) + 1j * rng.standard_normal((h.shape[2], 3))
        _close(path.stream_channel(v), reference_channel.stream_channel(v))


def _same_channel(a, b) -> bool:
    return all(np.array_equal(x, y) for x, y in ((a.weights, b.weights), (a.a_rx, b.a_rx),
                                                 (a.a_tx, b.a_tx)))


class TestDumpFormat:
    PARAMS = ClusterChannelParams(seed=5)

    def _dump(self, tmp_path, cfg):
        """Write the dump of ``cfg``'s channel; return its path and bytes."""
        path = str(tmp_path / "chan.bin")
        save_channel(generate_channel(cfg, self.PARAMS), path)
        return path, Path(path).read_bytes()

    @pytest.mark.parametrize("scale", [1e200, 1e-200, 1e300, 1e-300])
    def test_gains_at_any_scale_load_normalized(self, tmp_path, scale):
        # Outside data may carry any gain scale: the power normalization
        # neither overflows nor underflows, so the channel is the unscaled one.
        cfg = small_config(users=2, subcarriers=4)
        chan = generate_channel(cfg, self.PARAMS)
        path = str(tmp_path / "chan.bin")
        draw = dataclasses.replace(chan.draw, gains=chan.draw.gains * scale)
        save_channel(dataclasses.replace(chan, draw=draw), path)
        _close(load_channel(path, cfg).weights, chan.weights, rtol=1e-15)

    @settings(max_examples=60, deadline=None)
    @given(exponent=st.integers(-300, 300), delay=st.none() | st.floats(0, 1e308),
           index=st.integers(0, 2 * 13 - 1))
    def test_loaded_channel_is_normalized_or_rejected(self, tmp_path_factory, exponent, delay, index):
        # Gains scaled by 10^exponent, and perhaps one delay set to any
        # finite value: the dump loads finite and normalized, or is rejected
        # as malformed, without a numpy warning.
        cfg = small_config(users=2, subcarriers=4)
        chan = generate_channel(cfg, self.PARAMS)
        delays = chan.draw.delays.copy()
        if delay is not None:
            delays.flat[index] = delay
        draw = dataclasses.replace(chan.draw, gains=chan.draw.gains * 10.0 ** exponent, delays=delays)
        path = str(tmp_path_factory.mktemp("dump") / "chan.bin")
        save_channel(dataclasses.replace(chan, draw=draw), path)
        try:
            loaded = load_channel(path, cfg)
        except ChannelFormatError:
            return
        assert np.all(np.isfinite(loaded.weights))
        # Each user's mean Frobenius power, the trace of its transmit covariance.
        mean_powers = np.trace(loaded.transmit_covariances(), axis1=1, axis2=2).real
        np.testing.assert_allclose(mean_powers, cfg.n_bs * cfg.n_u, rtol=1e-12)

    def test_round_trip_is_exact(self, tmp_path):
        cfg = small_config(users=2, subcarriers=4)
        chan = generate_channel(cfg, self.PARAMS)
        path, blob = self._dump(tmp_path, cfg)
        assert blob.startswith(b"SUBTHZ-CHAN v2 U=2 P=13\n")
        assert len(blob) == len(b"SUBTHZ-CHAN v2 U=2 P=13\n") + 7 * 8 * 2 * 13
        loaded = load_channel(path, cfg)
        assert _same_channel(loaded, chan)
        for name in ("gains", "delays", "angles"):
            assert np.array_equal(getattr(loaded.draw, name), getattr(chan.draw, name)), name

    def test_default_dump_holds_the_paths_not_a_tensor(self, tmp_path):
        # The default receiver's dump is its header and, per user and path,
        # seven float64 values (gain re/im, delay, four angles): 5848 bytes,
        # whatever the 512 antennas and 256 subcarriers.
        cfg = ReceiverConfig()
        path, blob = self._dump(tmp_path, cfg)
        assert len(blob) == len(b"SUBTHZ-CHAN v2 U=8 P=13\n") + 7 * 8 * 8 * 13 == 5848
        assert _same_channel(load_channel(path, cfg), generate_channel(cfg, self.PARAMS))

    @pytest.mark.parametrize("seed", [0, 5, 77])
    def test_one_dump_serves_every_array_and_grid(self, tmp_path, seed):
        # Array sizes, the subcarrier count and the bandwidth enter only in
        # the build: a dump loaded under another config is that config's
        # generated channel at the same seed, bit for bit.
        params = ClusterChannelParams(seed=seed)
        path = str(tmp_path / "chan.bin")
        save_channel(generate_channel(small_config(users=3, rf=3, rows=3, cols=1), params), path)
        other = small_config(users=3, rows=4, cols=4, rf=4, user_rows=2, user_cols=2,
                             subcarriers=16, bandwidth_hz=2e9)
        assert _same_channel(load_channel(path, other), generate_channel(other, params))

    def test_dimension_mismatch_rejected(self, tmp_path):
        path, _ = self._dump(tmp_path, small_config(users=2, subcarriers=4))
        other = small_config(users=1, rf=1, subcarriers=4)
        with pytest.raises(ChannelDimensionError, match="U=2"):
            load_channel(path, other)

    def test_truncated_payload_reports_offset(self, tmp_path):
        cfg = small_config(users=2, subcarriers=4)
        path, blob = self._dump(tmp_path, cfg)
        cut = len(blob) - 24
        Path(path).write_bytes(blob[:cut])
        with pytest.raises(ChannelFormatError, match="payload holds") as err:
            load_channel(path, cfg)
        assert err.value.byte_offset == cut

    def test_oversized_payload_reports_offset(self, tmp_path):
        cfg = small_config(users=2, subcarriers=4)
        path, blob = self._dump(tmp_path, cfg)
        Path(path).write_bytes(blob + bytes(8))
        with pytest.raises(ChannelFormatError, match="payload holds") as err:
            load_channel(path, cfg)
        assert err.value.byte_offset == len(blob)

    # Float index into the payload (gains as (real, imag) pairs, then
    # delays, then angles, at U=2 and P=13): the value written there and
    # the message expected.
    @pytest.mark.parametrize("index, value, message", [
        (3, math.nan, "non-finite"),
        (2 * 26 + 5, math.inf, "non-finite"),
        (3 * 26 + 13 * 2 + 4, -3.2, "angle outside"),
        (3 * 26 + 52 + 13 * 3 + 12, 1.6, "angle outside"),
        (2 * 26 + 13 + 3, 1e300, "delay outside \\+-0.001: 1e\\+300"),
        (2 * 26 + 7, -math.nextafter(1e-3, 1), "delay outside \\+-0.001: -0.001"),
    ], ids=["nan-gain", "infinite-delay", "azimuth-at-user", "elevation-at-user",
            "overflowing-delay", "early-delay"])
    def test_bad_payload_value_reports_offset(self, tmp_path, index, value, message):
        cfg = small_config(users=2, subcarriers=4)
        path, blob = self._dump(tmp_path, cfg)
        offset = blob.index(b"\n") + 1 + 8 * index
        Path(path).write_bytes(blob[:offset] + np.float64(value).tobytes() + blob[offset + 8:])
        with pytest.raises(ChannelFormatError, match=message) as err:
            load_channel(path, cfg)
        assert err.value.byte_offset == offset

    def test_delays_at_their_limits_load(self, tmp_path):
        cfg = small_config(users=2, subcarriers=4, bandwidth_hz=_DOMAINS["bandwidth_hz"][1])
        path, blob = self._dump(tmp_path, cfg)
        delays = blob.index(b"\n") + 1 + 8 * 2 * 26
        limits = np.tile([-1e-3, 1e-3], 13).reshape(2, 13)
        Path(path).write_bytes(blob[:delays] + limits.astype("<f8").tobytes() + blob[delays + 8 * 26:])
        loaded = load_channel(path, cfg)
        assert np.array_equal(loaded.draw.delays, limits) and np.all(np.isfinite(loaded.weights))

    def test_angles_at_their_limits_load(self, tmp_path):
        cfg = small_config(users=2, subcarriers=4)
        path, blob = self._dump(tmp_path, cfg)
        angles = blob.index(b"\n") + 1 + 8 * 3 * 26
        limits = np.repeat([[-np.pi], [np.pi / 2], [np.pi], [-np.pi / 2]], 13, axis=1)
        Path(path).write_bytes(blob[:angles] + np.tile(limits, (2, 1, 1)).astype("<f8").tobytes())
        assert np.array_equal(load_channel(path, cfg).draw.angles, np.tile(limits, (2, 1, 1)))

    def test_garbage_header_rejected(self, tmp_path):
        path = str(tmp_path / "chan.bin")
        with open(path, "wb") as fh:
            fh.write(b"NOT-A-CHANNEL v9 K=x\n")
        with pytest.raises(ChannelFormatError):
            load_channel(path, small_config())

    @pytest.mark.parametrize("header, offset", [
        (b"SUBTHZ-CHAN v2 U=\xe9 P=13\n", 17),
        (b"SUBTHZ-CHAN v2 U=0 P=13\n", 15),
        (b"SUBTHZ-CHAN v2 U=2\n", 0),
        (b"SUBTHZ-CHAN v2 U=2 K=13\n", 19),
        (b"SUBTHZ-CHAN v3 U=2 P=13\n", 12),
    ], ids=["non-ascii", "bad-field", "missing-field", "unknown-field", "unknown-version"])
    def test_bad_header_reports_offset(self, tmp_path, header, offset):
        path = str(tmp_path / "chan.bin")
        with open(path, "wb") as fh:
            fh.write(header)
        with pytest.raises(ChannelFormatError) as err:
            load_channel(path, small_config())
        assert err.value.byte_offset == offset

    def test_v1_dump_rejected_by_name(self, tmp_path):
        # A dense v1 dump of the small config: header and tensor payload.
        cfg = small_config(users=2, subcarriers=4)
        path = tmp_path / "chan.bin"
        path.write_bytes(b"SUBTHZ-CHAN v1 K=4 NRX=8 NTX=4 U=2\n" + bytes(16 * 4 * 8 * 4))
        with pytest.raises(ChannelFormatError, match="'v1'") as err:
            load_channel(str(path), cfg)
        assert err.value.byte_offset == 12

    def test_missing_newline_rejected(self, tmp_path):
        path = str(tmp_path / "chan.bin")
        with open(path, "wb") as fh:
            fh.write(b"\x00\x01\x02")
        with pytest.raises(ChannelFormatError) as err:
            load_channel(path, small_config())
        assert err.value.byte_offset == 0

    def test_header_line_is_searched_for_a_bounded_length(self, tmp_path):
        path = tmp_path / "chan.bin"
        path.write_bytes(b"SUBTHZ-CHAN v2 U=2 P=13 " + bytes(200) + b"\n")
        with pytest.raises(ChannelFormatError, match="missing header line") as err:
            load_channel(str(path), small_config())
        assert err.value.byte_offset == 0
