import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import receiver_configs
from subthzrx import (Architecture, ArrayGeometry, ComponentCounts, ComponentPowerCatalog, ConfigError,
                      PhaseShifterType, ReceiverConfig, adc_power_w, component_counts, lna_power_mw,
                      total_power, vga_gain_db)
from subthzrx.power import (K_BOLTZMANN, _distribution_losses, _distribution_stages, _dsp_power_w,
                            _vga_power_mw, power_report)

CATALOG = ComponentPowerCatalog()


def _cfg(arch, rows, cols, rf, ps=PhaseShifterType.PASSIVE, **kw):
    n_bs = rows * cols
    return ReceiverConfig(architecture=arch, bs_geometry=ArrayGeometry(rows, cols),
                          rf_chains=n_bs if arch is Architecture.DIGITAL else rf,
                          users=min(8, rf), ps_type=ps, **kw)


DA512 = _cfg(Architecture.DIGITAL, 32, 16, 512)
SA512 = _cfg(Architecture.SUBARRAY, 32, 16, 8)
FH512 = _cfg(Architecture.FULLY_CONNECTED, 32, 16, 8)
FH512_ACT = _cfg(Architecture.FULLY_CONNECTED, 32, 16, 8, ps=PhaseShifterType.ACTIVE)


class TestCatalogValidation:
    def test_rejects_bad_fanout(self):
        with pytest.raises(ValueError, match="fanout"):
            ComponentPowerCatalog(max_fanout=1)

    def test_rejects_negative_loss_and_power(self):
        with pytest.raises(ValueError, match="mixer_loss_db"):
            ComponentPowerCatalog(mixer_loss_db=-0.1)
        with pytest.raises(ValueError, match="lo_power_mw"):
            ComponentPowerCatalog(lo_power_mw=-1.0)

    def test_rejects_nonpositive_fom(self):
        with pytest.raises(ValueError, match="adc_fom_j_per_step_hz"):
            ComponentPowerCatalog(adc_fom_j_per_step_hz=0.0)

    # Each field with a value outside its range; NaN is outside every range.
    OUT_OF_RANGE = {"vga_unit_gain_db": 0.0, "adc_input_swing_v": 0.0,
                    "input_resistance_ohm": -50.0, "lna_gain_db": math.inf,
                    "lna_noise_factor": 1.0}

    @pytest.mark.parametrize("nan", [False, True], ids=["bad", "nan"])
    @pytest.mark.parametrize("name", OUT_OF_RANGE)
    def test_rejects_out_of_range_field(self, name, nan):
        with pytest.raises(ValueError, match=name):
            ComponentPowerCatalog(**{name: math.nan if nan else self.OUT_OF_RANGE[name]})

    # Values outside their domains that the power model could not use: a dB
    # figure whose ratio 10^(dB/10) overflows, an infinite loss (a stage of
    # depth 0 would price it at inf * 0 = NaN dB), an ADC target power
    # swing^2/(8 R) that underflows to 0 or overflows, an infinite VGA unit
    # gain (0 units for any gain) and an infinite LNA noise factor (an LNA
    # of 0 mW).
    @pytest.mark.parametrize("name, value", [
        ("lna_gain_db", 4000.0), ("mixer_loss_db", 1e308), ("combiner_il_db", 3100.0),
        ("vga_unit_gain_db", 1e308), ("adc_input_swing_v", 1e-200),
        ("adc_input_swing_v", 1e200), ("input_resistance_ohm", math.inf),
        ("mixer_loss_db", math.inf), ("ps_passive_il_db", math.inf), ("ps_active_il_db", math.inf),
        ("splitter_il_db", math.inf), ("combiner_il_db", math.inf),
        ("vga_unit_gain_db", math.inf), ("lna_noise_factor", math.inf)])
    def test_rejects_extreme_field(self, name, value):
        with pytest.raises(ValueError, match=name):
            ComponentPowerCatalog(**{name: value})


class TestLnaPower:
    def test_survey_defaults_give_24_mw(self):
        assert lna_power_mw(CATALOG) == pytest.approx(24.0, abs=0.5)

    def test_zero_gain_case(self):
        cat = dataclasses.replace(CATALOG, lna_gain_db=0.0)
        # direct evaluation: 1 / (1.84 * 9)
        assert lna_power_mw(cat) == pytest.approx(1 / (1.84 * 9), rel=1e-12)

    def test_noiseless_amplifier_rejected(self):
        with pytest.raises(ValueError):
            lna_power_mw(dataclasses.replace(CATALOG, lna_noise_factor=1.0))


class TestDistributionStages:
    def test_examples(self):
        assert _distribution_stages(1, 8) == 0
        assert _distribution_stages(8, 8) == 1
        assert _distribution_stages(512, 8) == 3  # exact power-of-fanout boundary

    def test_matches_bruteforce_tree_depth(self):
        for fanout in (2, 3, 4, 8):
            for n in range(1, 600):
                depth, reach = 0, 1
                while reach < n:
                    reach *= fanout
                    depth += 1
                assert _distribution_stages(n, fanout) == depth


class TestDistributionLosses:
    def test_digital_array_has_no_distribution_network(self):
        assert _distribution_losses(DA512, CATALOG) == (0.0, 0.0, 0.0)

    def test_fully_connected_512_8_active(self):
        losses = _distribution_losses(FH512_ACT, CATALOG)
        assert losses == pytest.approx((1.3, 3.9, 5.8))

    def test_subarray_512_8_passive(self):
        # 64 inputs per chain combine in 2 stages of 8
        losses = _distribution_losses(SA512, CATALOG)
        assert losses == pytest.approx((0.0, 2.6, 6.0))


def _reference_network(cfg, catalog):
    """Component counts and (splitter, combiner, shifter) losses in dB,
    stated layout by layout."""
    n, r = cfg.n_bs, cfg.rf_chains
    if cfg.architecture is Architecture.DIGITAL:
        return ComponentCounts(n, 0, n, n, n, n), (0.0, 0.0, 0.0)
    ip_db = catalog.ps_il_db(cfg.ps_type)
    if cfg.architecture is Architecture.SUBARRAY:
        combine = _distribution_stages(n // r, catalog.max_fanout)
        return ComponentCounts(n, n, r, r, r, r), (0.0, catalog.combiner_il_db * combine, ip_db)
    split = _distribution_stages(r, catalog.max_fanout)
    combine = _distribution_stages(n, catalog.max_fanout)
    return (ComponentCounts(n, n * r, r, r, r, r),
            (catalog.splitter_il_db * split, catalog.combiner_il_db * combine, ip_db))


@settings(max_examples=200, deadline=None)
@given(cfg=receiver_configs(), ps=st.sampled_from(list(PhaseShifterType)),
       fanout=st.sampled_from([2, 4, 8]))
def test_network_follows_from_shifter_count(cfg, ps, fanout):
    # Unequal splitter and combiner losses tell the two trees apart.
    catalog = ComponentPowerCatalog(max_fanout=fanout, splitter_il_db=1.1, combiner_il_db=1.7)
    cfg = dataclasses.replace(cfg, ps_type=ps)
    assert (component_counts(cfg), _distribution_losses(cfg, catalog)) == _reference_network(cfg, catalog)


class TestVgaGain:
    def _oracle(self, cfg, is_db, ip_db, ic_db):
        p_n = K_BOLTZMANN * cfg.temperature_k * cfg.bandwidth_hz
        p_s = cfg.per_antenna_snr * p_n
        target = CATALOG.adc_input_swing_v ** 2 / (8 * CATALOG.input_resistance_ohm)
        return (10 * math.log10(target / (p_s + CATALOG.lna_noise_factor * p_n))
                - CATALOG.lna_gain_db + is_db + ip_db + ic_db + CATALOG.mixer_loss_db)

    def test_digital_array_at_0db_snr(self):
        gain = vga_gain_db(DA512, CATALOG)
        assert gain == pytest.approx(self._oracle(DA512, 0, 0, 0), rel=1e-12)
        assert gain == pytest.approx(56.14, abs=0.01)

    def test_fully_connected_active_adds_distribution_losses(self):
        gain = vga_gain_db(FH512_ACT, CATALOG)
        assert gain == pytest.approx(self._oracle(FH512_ACT, 1.3, 5.8, 3.9), rel=1e-12)
        assert gain == pytest.approx(67.14, abs=0.01)

    def test_strong_input_needs_no_gain(self):
        loud = dataclasses.replace(DA512, snr_db=300.0)
        assert vga_gain_db(loud, CATALOG) < 0
        assert total_power(loud, CATALOG).vga_w == 0.0

    # Values whose k T B would underflow to 0 W, or whose input power
    # (snr + F) k T B would overflow a float, lie outside their domains.
    @pytest.mark.parametrize("kwargs", [dict(temperature_k=1e-320),
                                        dict(temperature_k=1e308, bandwidth_hz=1e308),
                                        dict(temperature_k=1e200, bandwidth_hz=1e100,
                                             snr_db=3000.0)],
                             ids=["noise-underflow", "noise-overflow", "signal-overflow"])
    def test_input_power_outside_the_floats_is_config_error(self, kwargs):
        with pytest.raises(ConfigError, match="(bandwidth_hz|temperature_k) must lie in"):
            dataclasses.replace(DA512, **kwargs)
        # At the domain's corners the input power is a positive float and
        # the gain a finite one.
        quiet = dataclasses.replace(DA512, temperature_k=1e-3, bandwidth_hz=1e3, snr_db=-math.inf)
        loud = dataclasses.replace(DA512, temperature_k=1e4, bandwidth_hz=1e12, snr_db=300.0)
        assert math.isfinite(vga_gain_db(quiet, CATALOG)) and math.isfinite(vga_gain_db(loud, CATALOG))


class TestVgaPower:
    def test_unit_counts(self):
        assert _vga_power_mw(56.14, CATALOG) == pytest.approx(3 * 10.8)
        assert _vga_power_mw(0.0, CATALOG) == 0.0
        assert _vga_power_mw(20.0, CATALOG) == pytest.approx(10.8)

    def test_overflowing_unit_count_is_config_error(self):
        # A unit gain whose unit count would overflow lies outside its domain.
        with pytest.raises(ConfigError, match="vga_unit_gain_db must lie in"):
            ComponentPowerCatalog(vga_unit_gain_db=1e-320)


class TestAdcPower:
    def test_5_bit_800_mhz(self):
        assert adc_power_w(5, 800e6, CATALOG) == pytest.approx(2.048e-3, abs=1e-9)

    def test_10_bit_is_32x_5_bit(self):
        assert adc_power_w(10, 800e6, CATALOG) == pytest.approx(65.536e-3, rel=1e-12)

    def test_each_bit_doubles_power_exactly(self):
        for n in range(1, 13):
            assert adc_power_w(n + 1, 800e6, CATALOG) == 2 * adc_power_w(n, 800e6, CATALOG)


class TestDspPower:
    def test_eight_users_eight_chains(self):
        expected = 8 * (2 * 8 - 1) * 800e6 / 13e12
        assert _dsp_power_w(8, 8, 800e6, CATALOG) == pytest.approx(expected, rel=1e-12)
        assert expected == pytest.approx(7.38e-3, abs=0.01e-3)

    def test_single_chain(self):
        assert _dsp_power_w(1, 1, 800e6, CATALOG) == pytest.approx(800e6 / 13e12, rel=1e-12)

    def test_linear_in_bandwidth(self):
        assert _dsp_power_w(4, 8, 1.6e9, CATALOG) == pytest.approx(
            2 * _dsp_power_w(4, 8, 800e6, CATALOG), rel=1e-12)


@pytest.mark.parametrize("call, message", [
    (lambda: adc_power_w(0, 800e6, CATALOG), "n_bits"),
    (lambda: adc_power_w(5, 0.0, CATALOG), "bandwidth"),
    (lambda: adc_power_w(5, math.nan, CATALOG), "bandwidth"),
], ids=["adc-bits", "adc-bandwidth", "adc-nan-bandwidth"])
def test_component_models_reject_bad_arguments(call, message):
    with pytest.raises(ValueError, match=message):
        call()


class TestTotalPower:
    def test_da_adc_group(self):
        bd = total_power(DA512, CATALOG)
        assert bd.adc_w == pytest.approx(512 * 2.048e-3, rel=1e-12)

    def test_fh_active_ps_group(self):
        bd = total_power(FH512_ACT, CATALOG)
        assert bd.ps_w == pytest.approx(122.88, rel=1e-12)

    def test_passive_ps_draws_nothing(self):
        for cfg in (DA512, SA512, FH512):
            assert total_power(cfg, CATALOG).ps_w == 0.0

    def test_groups_sum_to_total(self):
        for cfg in (DA512, SA512, FH512, FH512_ACT):
            bd = total_power(cfg, CATALOG)
            parts = [bd.lna_w, bd.ps_w, bd.lo_w, bd.mixer_w, bd.vga_w, bd.adc_w, bd.dsp_w]
            assert bd.total_w == sum(parts)

    def test_da_independent_of_ps_type(self):
        active = dataclasses.replace(DA512, ps_type=PhaseShifterType.ACTIVE)
        assert total_power(active, CATALOG).total_w == total_power(DA512, CATALOG).total_w

    def test_active_minus_passive_is_ps_budget(self):
        # At 512/8 both PS types land on the same VGA unit count, so the
        # difference is exactly the 30 mW-per-shifter budget.
        diff = total_power(FH512_ACT, CATALOG).total_w - total_power(FH512, CATALOG).total_w
        assert diff == pytest.approx(30e-3 * 512 * 8, rel=1e-9)

    @pytest.mark.parametrize("arch, rf, message", [
        (Architecture.SUBARRAY, 3, "divisible"),
        (Architecture.DIGITAL, 2, "N_RF == N_BS"),
    ], ids=["subarray-3-chains", "digital-2-chains"])
    def test_receiver_that_cannot_be_built_is_not_priced(self, arch, rf, message):
        # No layout builds it, so there is no receiver to price.
        with pytest.raises(ConfigError, match=message):
            ReceiverConfig(architecture=arch, bs_geometry=ArrayGeometry(4, 2), rf_chains=rf, users=2)

    def test_report_rows_match_breakdown(self):
        report = power_report(FH512_ACT, CATALOG)
        by_name = {r.component: r for r in report.rows}
        assert by_name["ps"].count == 4096
        assert by_name["ps"].total_w == pytest.approx(by_name["ps"].count * 30e-3)
        assert sum(r.total_w for r in report.rows) == pytest.approx(report.breakdown.total_w)


class TestMonotonicity:
    def _sa(self, n_bs, rf, bits=5, bw=800e6):
        return _cfg(Architecture.SUBARRAY, n_bs // 4, 4, rf, adc_bits=bits, bandwidth_hz=bw)

    def test_nondecreasing_in_antennas(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            rf = int(rng.choice([2, 4, 8]))
            small, big = sorted(rng.choice([16, 32, 64, 128, 256], 2, replace=False))
            small, big = int(small) // rf * rf, int(big) // rf * rf
            for arch in Architecture:
                lo = _cfg(arch, small // 4, 4, rf)
                hi = _cfg(arch, big // 4, 4, rf)
                assert total_power(hi, CATALOG).total_w >= total_power(lo, CATALOG).total_w

    def test_nondecreasing_in_chains(self):
        for arch in (Architecture.SUBARRAY, Architecture.FULLY_CONNECTED):
            for rf_lo, rf_hi in [(2, 4), (4, 8), (8, 16)]:
                lo = _cfg(arch, 16, 4, rf_lo)
                hi = _cfg(arch, 16, 4, rf_hi)
                assert total_power(hi, CATALOG).total_w >= total_power(lo, CATALOG).total_w

    def test_nondecreasing_in_adc_bits(self):
        for bits in range(1, 12):
            lo = self._sa(64, 8, bits=bits)
            hi = self._sa(64, 8, bits=bits + 1)
            assert total_power(hi, CATALOG).total_w > total_power(lo, CATALOG).total_w

    def test_bandwidth_monotone_outside_vga_requantization(self):
        # Wider bandwidth raises noise power, which can drop a whole 20 dB
        # VGA unit while ADC/DSP grow only linearly, so the full total is
        # monotone in B only between VGA unit boundaries; the non-VGA part
        # is monotone everywhere.
        for b_lo, b_hi in [(100e6, 400e6), (400e6, 800e6), (800e6, 3.2e9)]:
            lo = total_power(self._sa(64, 8, bw=b_lo), CATALOG)
            hi = total_power(self._sa(64, 8, bw=b_hi), CATALOG)
            assert hi.total_w - hi.vga_w >= lo.total_w - lo.vga_w
            assert hi.vga_w <= lo.vga_w


def test_adc_share_is_small_at_5_bits():
    for cfg in (DA512, SA512, FH512, FH512_ACT,
                dataclasses.replace(SA512, ps_type=PhaseShifterType.ACTIVE)):
        bd = total_power(cfg, CATALOG)
        assert bd.total_w - bd.adc_w - bd.dsp_w >= 10 * bd.adc_w
