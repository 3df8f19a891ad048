import dataclasses
import math
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

import subthzrx
from subthzrx import (Architecture, ArrayGeometry, ClusterChannelParams, ComponentPowerCatalog,
                      ConfigError, PhaseShifterType, ReceiverConfig, SimulationParams, SweepSpec,
                      compute_ee, generate_channel, run_monte_carlo, run_sweep, total_power)
from subthzrx import simulation, tradeoff
from subthzrx.tradeoff import REFERENCE_ARRAY_SIZES, point_config

TINY_SIM = SimulationParams(symbols_per_trial=60, trials=1, seed=0, refine_sweeps=0)
TINY_BASE = ReceiverConfig(bs_geometry=ArrayGeometry(4, 2), rf_chains=None, users=2,
                           user_geometry=ArrayGeometry(2, 1), subcarriers=3)
CHAN = ClusterChannelParams(seed=0)


def tiny_spec(**overrides):
    kwargs = dict(architectures=(Architecture.DIGITAL, Architecture.SUBARRAY),
                  array_sizes=(ArrayGeometry(4, 2), ArrayGeometry(4, 4)),
                  adc_bits=(5,), ps_types=(PhaseShifterType.PASSIVE,), snr_db=(0.0,),
                  sim=TINY_SIM)
    kwargs.update(overrides)
    return SweepSpec(**kwargs)


# Every architecture and two SNRs at both sizes, refined, over two trials:
# six groups share each geometry's draw per trial.
SHARED_SIM = SimulationParams(symbols_per_trial=60, trials=2, seed=3, refine_sweeps=1)


def shared_spec():
    return tiny_spec(architectures=tuple(Architecture), snr_db=(0.0, 10.0), sim=SHARED_SIM)


_MAIN_PID = os.getpid()


def _channel_or_exit(cfg, params):
    """``generate_channel`` that ends a worker process simulating 16 antennas.
    Module level, so pool tasks forked from a patched process can call it."""
    if cfg.n_bs == 16 and os.getpid() != _MAIN_PID:
        os._exit(1)
    return generate_channel(cfg, params)


def _task_raising_at_16(cfgs, *args):
    """``_shared_monte_carlo`` that raises for 16 antennas. Module level,
    so pool tasks forked from a patched process can call it."""
    if cfgs[0].n_bs == 16:
        raise RuntimeError("patched task failure")
    return simulation._shared_monte_carlo(cfgs, *args)


def _task_importing_nothing(*args):
    """``_shared_monte_carlo`` whose every outcome is an error naming the
    modules the task imported, if it imported any. Module level, so pool
    tasks forked from a patched process can call it."""
    before = set(sys.modules)
    outcomes = simulation._shared_monte_carlo(*args)
    imported = sorted(set(sys.modules) - before)
    return dict.fromkeys(outcomes, ImportError(f"task imported {imported}")) if imported else outcomes


def _fresh_python(script: str) -> str:
    """Run ``script`` in a new interpreter that finds the package and this
    test module; return its standard output."""
    path = os.pathsep.join([str(Path(subthzrx.__file__).parents[1]), str(Path(__file__).parent)])
    env = dict(os.environ, PYTHONPATH=path)
    return subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, check=True, timeout=120).stdout


class TestComputeEe:
    def test_arithmetic_identity(self):
        assert compute_ee(8.0, 800e6, 10.0) == pytest.approx(6.4e8)

    def test_zero_se(self):
        assert compute_ee(0.0, 800e6, 5.0) == 0.0

    def test_double_power_halves_ee(self):
        assert compute_ee(4.0, 1e9, 8.0) == pytest.approx(compute_ee(4.0, 1e9, 4.0) / 2)

    def test_rejects_nonpositive_power(self):
        with pytest.raises(ValueError):
            compute_ee(1.0, 1e9, 0.0)
        with pytest.raises(ValueError):
            compute_ee(-1.0, 1e9, 1.0)

    @pytest.mark.parametrize("bandwidth", [0.0, -1e9, float("nan")])
    def test_rejects_nonpositive_bandwidth(self, bandwidth):
        with pytest.raises(ValueError, match="bandwidth"):
            compute_ee(1.0, bandwidth, 1.0)


class TestSweepSpec:
    def test_rejects_empty_axes(self):
        with pytest.raises(ValueError):
            SweepSpec(adc_bits=())

    @pytest.mark.parametrize("bits", [(0, 5), (5, 0), (-1,)])
    def test_rejects_adc_bits_below_one(self, bits):
        with pytest.raises(ValueError, match="adc_bits"):
            SweepSpec(adc_bits=bits)

    def test_default_array_list_matches_reference_sizes(self):
        assert [(g.rows, g.cols) for g in REFERENCE_ARRAY_SIZES] == [
            (16, 4), (32, 4), (24, 8), (32, 8), (48, 8), (32, 16), (48, 16), (64, 16)]


class TestPointConfig:
    def test_digital_gets_full_chain_count(self):
        cfg = point_config(TINY_BASE, Architecture.DIGITAL, ArrayGeometry(4, 4), 5,
                           PhaseShifterType.PASSIVE, 0.0)
        assert cfg.rf_chains == 16

    def test_hybrids_keep_user_count_chains(self):
        cfg = point_config(TINY_BASE, Architecture.SUBARRAY, ArrayGeometry(4, 4), 5,
                           PhaseShifterType.PASSIVE, 10.0)
        assert cfg.rf_chains == TINY_BASE.users
        assert cfg.per_antenna_snr == pytest.approx(10.0)

    def test_keeps_configured_element_spacing(self):
        # The sweep axis sets rows and columns only; the point keeps the
        # receiver's element spacing.
        base = dataclasses.replace(TINY_BASE, element_spacing_wavelengths=0.7)
        for arch in Architecture:
            cfg = point_config(base, arch, REFERENCE_ARRAY_SIZES[0], 5,
                               PhaseShifterType.PASSIVE, 0.0)
            assert cfg.bs_geometry == ArrayGeometry(16, 4)
            assert cfg.element_spacing_wavelengths == 0.7

    def test_snr_the_link_cannot_simulate_is_no_point(self):
        with pytest.raises(ConfigError, match="snr_db"):
            point_config(TINY_BASE, Architecture.SUBARRAY, ArrayGeometry(4, 4), 5,
                         PhaseShifterType.PASSIVE, -math.inf)


class TestRunSweep:
    def test_singleton_matches_direct_computation(self):
        spec = tiny_spec(architectures=(Architecture.SUBARRAY,),
                         array_sizes=(ArrayGeometry(4, 2),))
        result = run_sweep(spec, base=TINY_BASE, chan_params=CHAN)
        assert len(result.points) == 1 and not result.failures
        point = result.points[0]
        cfg = point_config(TINY_BASE, Architecture.SUBARRAY, ArrayGeometry(4, 2), 5,
                           PhaseShifterType.PASSIVE, 0.0)
        mc = run_monte_carlo(cfg, TINY_SIM, CHAN)
        assert point.se_bits_hz == mc.mean_se_bits_hz
        assert point.power_w == total_power(cfg).total_w
        assert point.ee_bits_per_joule == compute_ee(mc.mean_se_bits_hz, cfg.bandwidth_hz,
                                                     point.power_w)

    def test_default_base_is_the_default_receiver(self):
        spec = tiny_spec(architectures=(Architecture.DIGITAL,), array_sizes=(ArrayGeometry(4, 2),))
        assert run_sweep(spec) == run_sweep(spec, base=ReceiverConfig())

    def test_ee_identity_holds_for_every_point(self):
        result = run_sweep(tiny_spec(ps_types=tuple(PhaseShifterType)), base=TINY_BASE,
                           chan_params=CHAN)
        for p in result.points:
            assert p.ee_bits_per_joule == p.se_bits_hz * p.config.bandwidth_hz / p.power_w

    def test_digital_points_identical_across_ps_types(self):
        spec = tiny_spec(architectures=(Architecture.DIGITAL,),
                         ps_types=tuple(PhaseShifterType))
        result = run_sweep(spec, base=TINY_BASE, chan_params=CHAN)
        passive = [p for p in result.points if p.config.ps_type is PhaseShifterType.PASSIVE]
        active = [p for p in result.points if p.config.ps_type is PhaseShifterType.ACTIVE]
        for a, b in zip(passive, active):
            assert a.se_bits_hz == b.se_bits_hz
            assert a.power_w == b.power_w

    def test_power_nondecreasing_along_reference_sizes(self):
        base = ReceiverConfig(architecture=Architecture.SUBARRAY, bs_geometry=ArrayGeometry(16, 4),
                              rf_chains=8)
        for arch in Architecture:
            powers = [total_power(point_config(base, arch, geom, 5, PhaseShifterType.PASSIVE,
                                               0.0)).total_w
                      for geom in REFERENCE_ARRAY_SIZES]
            assert all(b >= a for a, b in zip(powers, powers[1:]))

    def test_failures_isolated_per_point(self, monkeypatch):
        # 4x3 = 12 antennas is not divisible by 8 chains: no sub-array can be
        # that point, so the sweep is refused before it draws any channel.
        draws = []
        monkeypatch.setattr(simulation, "generate_channel", lambda *args: draws.append(args))
        base = dataclasses.replace(TINY_BASE, users=8)
        spec = tiny_spec(architectures=(Architecture.DIGITAL, Architecture.SUBARRAY),
                         array_sizes=(ArrayGeometry(4, 3), ArrayGeometry(4, 4)))
        with pytest.raises(ConfigError, match="divisible"):
            run_sweep(spec, base=base, chan_params=CHAN)
        assert draws == []

    def test_deterministic_and_sorted(self):
        spec = tiny_spec(ps_types=tuple(PhaseShifterType), adc_bits=(5, 10))
        a = run_sweep(spec, base=TINY_BASE, chan_params=CHAN)
        b = run_sweep(spec, base=TINY_BASE, chan_params=CHAN)
        assert [p.config_id for p in a.points] == [p.config_id for p in b.points]
        assert [p.se_bits_hz for p in a.points] == [p.se_bits_hz for p in b.points]
        order = [(p.config.architecture.value, p.config.n_bs) for p in a.points]
        arch_rank = {a.value: i for i, a in enumerate(Architecture)}
        keys = [(arch_rank[name], n) for name, n in order]
        assert keys == sorted(keys)

    def test_ids_state_the_csv_snr(self):
        # Each id states its SNR as the CSV does, to every digit that tells
        # two configured SNRs apart.
        spec = tiny_spec(architectures=(Architecture.DIGITAL,), array_sizes=(ArrayGeometry(4, 2),),
                         snr_db=(10.0000002, 0.0, 10.0000001, -3.5, 10.0))
        result = run_sweep(spec, base=TINY_BASE, chan_params=CHAN)
        assert [p.config_id.rsplit("_snr", 1)[1] for p in result.points] == [
            "-3.5dB", "0dB", "10dB", "10.0000001dB", "10.0000002dB"]
        assert result.points[1].config_id == "digital_4x2_rf8_adc5_passive_snr0dB"

    def test_parallel_matches_serial(self):
        spec = tiny_spec()
        serial = run_sweep(spec, base=TINY_BASE, chan_params=CHAN, jobs=1)
        parallel = run_sweep(spec, base=TINY_BASE, chan_params=CHAN, jobs=2)
        assert [p.config_id for p in serial.points] == [p.config_id for p in parallel.points]
        for a, b in zip(serial.points, parallel.points):
            assert a.se_bits_hz == b.se_bits_hz and a.power_w == b.power_w


class TestSharedDraw:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_every_group_matches_its_own_monte_carlo(self, jobs):
        result = run_sweep(shared_spec(), base=TINY_BASE, chan_params=CHAN, jobs=jobs)
        assert not result.failures and len(result.points) == 12
        for point in result.points:
            alone = run_monte_carlo(point.config, SHARED_SIM, CHAN)
            assert point.se_bits_hz == alone.mean_se_bits_hz
            assert point.se_std_bits_hz == alone.std_se_bits_hz

    def test_each_task_holds_one_sizes_own_point_configs(self, monkeypatch):
        # Every point reaches the simulation as its own configuration, ADC
        # bits and phase-shifter type included; each task is one array size.
        tasks = []

        def probe(cfgs, *args):
            tasks.append(cfgs)
            return simulation._shared_monte_carlo(cfgs, *args)

        monkeypatch.setattr(tradeoff, "_shared_monte_carlo", probe)
        spec = tiny_spec(adc_bits=(5, 10), ps_types=tuple(PhaseShifterType), snr_db=(0.0, 10.0))
        result = run_sweep(spec, base=TINY_BASE, chan_params=CHAN)
        assert not result.failures and len(result.points) == 32
        assert [{cfg.n_bs for cfg in cfgs} for cfgs in tasks] == [{16}, {8}]
        for cfgs in tasks:
            assert sorted((cfg.architecture.value, cfg.adc_bits, cfg.ps_type.value,
                           cfg.snr_db) for cfg in cfgs) == sorted(
                (arch.value, bits, ps.value, snr) for arch in spec.architectures
                for bits in spec.adc_bits for ps in spec.ps_types for snr in spec.snr_db)

    def test_one_design_per_signal_key_and_trial(self, monkeypatch):
        # ADC bits and phase-shifter type only move power: the 4 points of
        # each (architecture, SNR, size) share one receiver design per trial
        # and one outcome.
        design, designs, outcomes = simulation._design_receiver, [], {}

        def counting_design(*args):
            designs.append(args[2])
            return design(*args)

        def recording_task(cfgs, *args):
            task = simulation._shared_monte_carlo(cfgs, *args)
            outcomes.update(task)
            return task

        monkeypatch.setattr(simulation, "_design_receiver", counting_design)
        monkeypatch.setattr(tradeoff, "_shared_monte_carlo", recording_task)
        spec = dataclasses.replace(shared_spec(), adc_bits=(5, 10),
                                   ps_types=tuple(PhaseShifterType))
        result = run_sweep(spec, base=TINY_BASE, chan_params=CHAN)
        assert not result.failures and len(result.points) == 48
        keys = [(cfg.architecture, cfg.snr_db, cfg.n_bs) for cfg in designs]
        assert len(keys) == 3 * 2 * 2 * SHARED_SIM.trials
        assert all(keys.count(key) == SHARED_SIM.trials for key in keys)
        shared = {}
        for cfg, outcome in outcomes.items():
            assert shared.setdefault((cfg.architecture, cfg.snr_db, cfg.n_bs), outcome) is outcome
        assert len(outcomes) == 48 and len(shared) == 3 * 2 * 2

    def test_failed_draw_fails_every_configuration_still_in(self, monkeypatch):
        # Trial 2's channel draw raises: both configurations fail with that
        # error.
        cfg = point_config(TINY_BASE, Architecture.SUBARRAY, ArrayGeometry(4, 2), 5,
                           PhaseShifterType.PASSIVE, 0.0)
        failure, draws = RuntimeError("patched draw failure"), []

        def failing_on_trial_two(cfg, params):
            draws.append(params)
            if len(draws) == 2:
                raise failure
            return generate_channel(cfg, params)

        monkeypatch.setattr(simulation, "generate_channel", failing_on_trial_two)
        cfgs = [cfg, dataclasses.replace(cfg, snr_db=10.0)]
        outcomes = simulation._shared_monte_carlo(cfgs, SHARED_SIM, CHAN)
        assert outcomes == dict.fromkeys(cfgs, failure) and len(draws) == SHARED_SIM.trials

    def test_failing_task_fails_only_its_geometry(self, monkeypatch):
        # A task that raises in its worker fails its array size's points
        # with that error; the other size's points are simulated.
        clean = run_sweep(tiny_spec(), base=TINY_BASE, chan_params=CHAN)
        monkeypatch.setattr(tradeoff, "_shared_monte_carlo", _task_raising_at_16)
        result = run_sweep(tiny_spec(), base=TINY_BASE, chan_params=CHAN, jobs=2)
        assert sorted(f.config_id for f in result.failures) == sorted(
            p.config_id for p in clean.points if p.config.n_bs == 16)
        assert all(f.error == "patched task failure" for f in result.failures)
        assert result.points == tuple(p for p in clean.points if p.config.n_bs == 8)

    def test_failing_receiver_fails_only_its_groups(self, monkeypatch):
        clean = run_sweep(shared_spec(), base=TINY_BASE, chan_params=CHAN)
        design, calls = simulation.design_analog_combiner, []

        def failing_for_fully_connected(channel, cfg):
            if cfg.architecture is Architecture.FULLY_CONNECTED:
                calls.append(cfg)
                raise np.linalg.LinAlgError("patched combiner failure")
            return design(channel, cfg)

        monkeypatch.setattr(simulation, "design_analog_combiner", failing_for_fully_connected)
        result = run_sweep(shared_spec(), base=TINY_BASE, chan_params=CHAN)
        fc = Architecture.FULLY_CONNECTED.value
        assert len(result.failures) == 4
        assert all(f.config_id.startswith(fc) and f.error == "patched combiner failure"
                   for f in result.failures)
        assert result.points == tuple(p for p in clean.points if not p.config_id.startswith(fc))
        # A failed initializer is cached for no key: each SNR's key at each
        # geometry calls it in the first trial, and a failed configuration
        # is left out of the second trial.
        assert len(calls) == 2 * 2

    def test_one_channel_per_geometry_and_trial(self, monkeypatch):
        draws = []

        def counting_channel(cfg, params):
            draws.append((cfg.bs_geometry, params.seed))
            return generate_channel(cfg, params)

        monkeypatch.setattr(simulation, "generate_channel", counting_channel)
        run_sweep(shared_spec(), base=TINY_BASE, chan_params=CHAN)
        assert len(draws) == 4 and len(set(draws)) == 4
        assert {geom for geom, _ in draws} == set(shared_spec().array_sizes)

    def test_pool_sized_to_geometry_count(self, monkeypatch):
        # The fork context starts every worker at the first submit, so the
        # pool must not ask for more workers than there are geometries.
        sizes, methods = [], []

        class RecordingPool(ThreadPoolExecutor):
            def __init__(self, max_workers, mp_context):
                sizes.append(max_workers)
                methods.append(mp_context.get_start_method())
                super().__init__(max_workers=1)

        monkeypatch.setattr(tradeoff, "ProcessPoolExecutor", RecordingPool)
        result = run_sweep(tiny_spec(), base=TINY_BASE, chan_params=CHAN, jobs=64)
        assert sizes == [2] and methods == ["fork"] and len(result.points) == 4

    def test_pool_forks_under_spawn_default(self):
        # The pool pins the fork context: with spawn as the default start
        # method, a patched generate_channel still reaches the workers.
        clean = run_sweep(tiny_spec(), base=TINY_BASE, chan_params=CHAN)
        out = _fresh_python(
            "import multiprocessing\n"
            "multiprocessing.set_start_method('spawn')\n"
            "import test_tradeoff as t\n"
            "from subthzrx import run_sweep, simulation\n"
            "simulation.generate_channel = t._channel_or_exit\n"
            "result = run_sweep(t.tiny_spec(), base=t.TINY_BASE, chan_params=t.CHAN, jobs=2)\n"
            "print(sorted(f.config_id for f in result.failures), "
            "[p.config_id for p in result.points])\n")
        failed = sorted(p.config_id for p in clean.points if p.config.n_bs == 16)
        kept = [p.config_id for p in clean.points if p.config.n_bs == 8]
        assert out == f"{failed} {kept}\n"

    def test_dead_worker_fails_only_its_geometry(self, monkeypatch):
        clean = run_sweep(tiny_spec(), base=TINY_BASE, chan_params=CHAN)
        monkeypatch.setattr(simulation, "generate_channel", _channel_or_exit)
        result = run_sweep(tiny_spec(), base=TINY_BASE, chan_params=CHAN, jobs=2)
        assert sorted(f.config_id for f in result.failures) == sorted(
            p.config_id for p in clean.points if p.config.n_bs == 16)
        assert all("worker process died" in f.error for f in result.failures)
        assert result.points == tuple(p for p in clean.points if p.config.n_bs == 8)


class TestWarmWorkers:
    # numpy 2 loads numpy.random on first use. The package loads it at
    # import, so forked sweep workers inherit it instead of importing it in
    # their first task.
    def test_package_import_loads_numpy_random(self):
        assert _fresh_python("import sys, subthzrx; print('numpy.random' in sys.modules)") == "True\n"

    def test_worker_task_imports_no_module(self):
        out = _fresh_python(
            "import test_tradeoff as t\n"
            "from subthzrx import run_sweep, tradeoff\n"
            "tradeoff._shared_monte_carlo = t._task_importing_nothing\n"
            "result = run_sweep(t.tiny_spec(), base=t.TINY_BASE, chan_params=t.CHAN, jobs=2)\n"
            "print(len(result.points), [f.error for f in result.failures])\n")
        assert out == "4 []\n"


def test_active_ps_collapses_fully_connected_ee():
    # SE is unchanged by the PS type, so the EE ratio is the inverse power
    # ratio; at 8 chains and >= 256 antennas active shifters must cost the
    # fully connected layout at least 5x its passive-PS efficiency.
    base = ReceiverConfig(architecture=Architecture.FULLY_CONNECTED, bs_geometry=ArrayGeometry(32, 8),
                          rf_chains=8)
    for geom in [ArrayGeometry(32, 8), ArrayGeometry(48, 8), ArrayGeometry(32, 16),
                 ArrayGeometry(64, 16)]:
        passive = total_power(point_config(base, Architecture.FULLY_CONNECTED, geom, 5,
                                           PhaseShifterType.PASSIVE, 0.0)).total_w
        active = total_power(point_config(base, Architecture.FULLY_CONNECTED, geom, 5,
                                          PhaseShifterType.ACTIVE, 0.0)).total_w
        assert active >= 5.0 * passive
