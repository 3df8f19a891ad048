import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest

from subthzrx import (ArrayGeometry, ChannelDimensionError, ChannelFormatError,
                      ClusterChannelParams, generate_channel, load_channel, save_channel,
                      steering_vector, subcarrier_frequencies)
from subthzrx.channel import ChannelRealization

from conftest import small_config


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
            geom = ArrayGeometry(int(rng.integers(1, 9)), int(rng.integers(1, 9)),
                                 spacing_wavelengths=float(rng.uniform(0.1, 1.0)))
            az = float(rng.uniform(-np.pi, np.pi))
            el = float(rng.uniform(-np.pi / 2, np.pi / 2))
            vec = steering_vector(geom, az, el)
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
        assert chan.h.shape == (6, cfg.n_bs, 2 * 4)
        assert chan.n_users == 2 and chan.n_tx_per_user == 4
        assert chan.user_channel(1).shape == (6, cfg.n_bs, 4)

    def test_seeded_determinism(self):
        cfg = small_config()
        params = ClusterChannelParams(seed=42)
        a = generate_channel(cfg, params)
        b = generate_channel(cfg, params)
        assert np.array_equal(a.h, b.h)
        c = generate_channel(cfg, dataclasses.replace(params, seed=43))
        assert not np.array_equal(a.h, c.h)

    def test_per_user_power_normalization(self):
        cfg = small_config(users=3, rf=4, rows=4, cols=4, subcarriers=16)
        chan = generate_channel(cfg, ClusterChannelParams(seed=9))
        for u in range(3):
            h_u = chan.user_channel(u)
            mean_power = np.mean(np.sum(np.abs(h_u) ** 2, axis=(1, 2)))
            assert mean_power == pytest.approx(cfg.n_bs * cfg.n_u, abs=1e-9)

    def test_pure_los_channel_is_rank_one(self):
        cfg = small_config(users=1, rf=1, user_rows=2, user_cols=2, subcarriers=8)
        chan = generate_channel(cfg, ClusterChannelParams(k_factor_db=math.inf, seed=2))
        for k in range(chan.subcarriers):
            sv = np.linalg.svd(chan.h[k], compute_uv=False)
            assert sv[0] > 1.0
            assert sv[1] == pytest.approx(0.0, abs=1e-9 * sv[0])

    def test_vanishing_delay_spread_gives_flat_fading(self):
        cfg = small_config(subcarriers=8)
        chan = generate_channel(cfg, ClusterChannelParams(delay_spread_s=1e-30, seed=3))
        for k in range(1, 8):
            np.testing.assert_allclose(chan.h[k], chan.h[0], atol=1e-9)


class TestDumpFormat:
    def _chan(self, cfg):
        return generate_channel(cfg, ClusterChannelParams(seed=5))

    def test_round_trip_is_exact(self, tmp_path):
        cfg = small_config(users=2, subcarriers=4)
        chan = self._chan(cfg)
        path = str(tmp_path / "chan.bin")
        save_channel(chan, path)
        loaded = load_channel(path, cfg)
        assert np.array_equal(loaded.h, chan.h)
        assert loaded.n_users == chan.n_users

    def test_dimension_mismatch_rejected(self, tmp_path):
        cfg = small_config(users=2, subcarriers=4)
        path = str(tmp_path / "chan.bin")
        save_channel(self._chan(cfg), path)
        other = small_config(users=2, subcarriers=8)
        with pytest.raises(ChannelDimensionError, match="K=4"):
            load_channel(path, other)

    def test_truncated_payload_reports_offset(self, tmp_path):
        cfg = small_config(users=2, subcarriers=4)
        path = str(tmp_path / "chan.bin")
        save_channel(self._chan(cfg), path)
        blob = Path(path).read_bytes()
        cut = len(blob) - 24
        with open(path, "wb") as fh:
            fh.write(blob[:cut])
        with pytest.raises(ChannelFormatError) as err:
            load_channel(path, cfg)
        assert err.value.byte_offset == cut

    def test_garbage_header_rejected(self, tmp_path):
        path = str(tmp_path / "chan.bin")
        with open(path, "wb") as fh:
            fh.write(b"NOT-A-CHANNEL v9 K=x\n")
        with pytest.raises(ChannelFormatError):
            load_channel(path, small_config())

    def test_missing_newline_rejected(self, tmp_path):
        path = str(tmp_path / "chan.bin")
        with open(path, "wb") as fh:
            fh.write(b"\x00\x01\x02")
        with pytest.raises(ChannelFormatError) as err:
            load_channel(path, small_config())
        assert err.value.byte_offset == 0


class TestRealizationValidation:
    def test_rejects_non_finite_entries(self):
        h = np.ones((2, 4, 2), dtype=complex)
        h[1, 2, 0] = np.nan
        with pytest.raises(ValueError, match="finite"):
            ChannelRealization(h=h, n_users=2)

    def test_rejects_uneven_user_blocks(self):
        h = np.ones((2, 4, 3), dtype=complex)
        with pytest.raises(ChannelDimensionError):
            ChannelRealization(h=h, n_users=2)
        with pytest.raises(ChannelDimensionError):
            ChannelRealization(h=h, n_users=0)
