"""Benchmark workloads: generated configs, the timed operations, their traced
recomposition, and the checks on their outputs.

A trial workload's operation is one Monte Carlo trial; the sweep workload's
operation is one ``subthzrx tradeoff`` run. The caller picks each
operation's simulation seed; the program receives only the generated config
and that seed.

The traced path calls the package's public functions one layer at a time, in
``run_trial``'s order and with its ``SeedSequence``-derived seeds, and wraps
each call in a span. Its output must equal the untraced output bit for bit,
which shows the recomposition is the same program.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import math
import multiprocessing
import os
import time
from concurrent.futures import ProcessPoolExecutor
from itertools import product

import numpy as np
import yaml

from subthzrx import (Architecture, CombinerSet, PhaseShifterType, SweepResult, TradeoffPoint,
                      apply_system, check_hardware_constraints, compute_ee, compute_se,
                      design_analog_combiner, design_combiners, design_digital_combiner,
                      design_tx_precoder, emit_results, estimate_sinr, generate_channel,
                      generate_symbols, load_channel, parse_config, point_config,
                      refine_analog_combiner, run_monte_carlo, save_channel, total_power,
                      validate_config)
from subthzrx import cli
from subthzrx.tradeoff import config_id

DUMP_COUNT = 8  # dump-subarray cycles its trials through this many channel dumps

# Shared by every workload: 8 users with 16x4 transmit arrays, 0 dB, 1000
# symbols, one refinement sweep. Four subcarriers keep one trial near a
# second, so a run of a few tens of seconds holds enough operations for a
# steady mean.
RECEIVER = {"users": 8, "user_rows": 16, "user_cols": 4, "subcarriers": 4, "snr_db": 0}
SIM = {"symbols_per_trial": 1000, "trials": 1, "refine_sweeps": 1}

TRIAL_WORKLOADS = {
    "wide-digital": {"architecture": "digital", "bs_rows": 32, "bs_cols": 16},
    "dump-subarray": {"architecture": "subarray", "bs_rows": 32, "bs_cols": 16, "rf_chains": 8},
}
SWEEP_AXES = {
    "architectures": ["digital", "subarray", "fully_connected"],
    "array_sizes": [[16, 4], [32, 4]],
    "adc_bits": [5, 10],
    "ps_types": ["passive", "active"],
    "snr_db": [0, 10],
}
WORKLOADS = (*TRIAL_WORKLOADS, "sweep")

LAYER_SPANS = ("channel.generate", "channel.load", "beamforming.precoder",
               "beamforming.analog_init", "beamforming.refine", "beamforming.mmse",
               "simulation.symbols", "simulation.apply", "simulation.sinr", "power.total",
               "fileio.parse", "fileio.emit")
TRIAL_COUNTERS = ("beamforming.refine_entries", "beamforming.refine_changed",
                  "beamforming.refine_sweeps", "beamforming.refine_gain_bits",
                  "channel.tensor_mb", "channel.dump_mb", "simulation.noise_normals")


def trial_seeds(seed: int) -> tuple[int, int, int]:
    """Channel, symbol and noise seeds exactly as ``run_trial`` derives them."""
    return tuple(int(s) for s in np.random.SeedSequence(seed).generate_state(3, np.uint64))


class Tracer:
    """Spans kept in memory: name, operation id, parent index, start, end."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, op: int):
        record = {"name": name, "op": op, "parent": self._stack[-1] if self._stack else None,
                  "start": time.perf_counter(), "end": None}
        self.spans.append(record)
        self._stack.append(len(self.spans) - 1)
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def adopt(self, spans: list[dict], parent: int) -> None:
        """Append spans recorded in a worker process under span ``parent``.
        The clock is system-wide, so their times compare directly."""
        offset = len(self.spans)
        for record in spans:
            inner = record["parent"]
            self.spans.append(dict(record, parent=parent if inner is None else inner + offset))

    def self_times(self) -> list[float]:
        """Each span's duration minus the part of it its children cover."""
        children: list[list[tuple[float, float]]] = [[] for _ in self.spans]
        for record in self.spans:
            if record["parent"] is not None:
                children[record["parent"]].append((record["start"], record["end"]))
        result = []
        for record, intervals in zip(self.spans, children):
            covered, reach = 0.0, -math.inf
            for start, end in sorted(intervals):
                start = max(start, reach)
                if end > start:
                    covered += end - start
                    reach = end
            result.append(record["end"] - record["start"] - covered)
        return result


def free_entry_count(cfg) -> int:
    """Phases the refinement visits per sweep."""
    if cfg.architecture is Architecture.DIGITAL:
        return 0
    if cfg.architecture is Architecture.SUBARRAY:
        return cfg.n_bs
    return cfg.n_bs * cfg.rf_chains


def traced_trial(tracer: Tracer, op: int, cfg, params, chan_params, seed: int,
                 channel_path: str | None = None) -> tuple[float, dict]:
    """``run_trial`` one layer at a time; with ``channel_path``, the
    dump-subarray trial instead. Checks the combiner constraints, the
    monotone refinement history and finite SINRs; returns the SE and the
    trial's counters."""
    with tracer.span("trial", op):
        validate_config(cfg)
        chan_seed, symbol_seed, noise_seed = trial_seeds(seed)
        if channel_path is None:
            with tracer.span("channel.generate", op):
                channel = generate_channel(cfg, dataclasses.replace(chan_params, seed=chan_seed))
        else:
            with tracer.span("channel.load", op):
                channel = load_channel(channel_path, cfg)
        with tracer.span("beamforming.precoder", op):
            v_rf = design_tx_precoder(channel, cfg)
        with tracer.span("beamforming.analog_init", op):
            w_init = design_analog_combiner(channel, cfg)
        w_rf, history = w_init, []
        if params.refine_sweeps > 0:
            with tracer.span("beamforming.refine", op):
                w_rf, history = refine_analog_combiner(w_init, channel, cfg, v_rf=v_rf,
                                                       max_sweeps=params.refine_sweeps,
                                                       tol=params.refine_tol)
        with tracer.span("beamforming.mmse", op):
            w_d = design_digital_combiner(channel, w_rf, v_rf, cfg)
        combiners = CombinerSet(v_rf=v_rf, w_rf=w_rf, w_d=w_d)
        with tracer.span("simulation.symbols", op):
            symbols = generate_symbols(cfg.users, cfg.subcarriers, params.symbols_per_trial,
                                       symbol_seed)
        with tracer.span("simulation.apply", op):
            received = apply_system(symbols, channel, combiners, 1.0 / cfg.per_antenna_snr,
                                    noise_seed)
        with tracer.span("simulation.sinr", op):
            sinr = estimate_sinr(symbols, received, params.sinr_floor)
        se = compute_se(sinr)

    check_hardware_constraints(combiners, cfg)
    if any(later < earlier for earlier, later in zip(history, history[1:])):
        raise ValueError(f"refinement history decreases: {history}")
    if not np.all(np.isfinite(sinr)):
        raise ValueError("non-finite SINR")
    sweeps = max(len(history) - 1, 0)
    counters = {
        "beamforming.refine_entries": free_entry_count(cfg) * sweeps,
        "beamforming.refine_changed": int(np.count_nonzero(w_rf != w_init)),
        "beamforming.refine_sweeps": sweeps,
        "beamforming.refine_gain_bits": history[-1] - history[0] if history else 0.0,
        "channel.tensor_mb": cfg.subcarriers * cfg.n_bs * cfg.users * cfg.n_u * 16 / 2**20,
        "channel.dump_mb": 0.0 if channel_path is None else os.path.getsize(channel_path) / 2**20,
        "simulation.noise_normals": 2 * cfg.n_bs * params.symbols_per_trial * cfg.subcarriers,
    }
    return se, counters


def _write_config(name: str, tmp: str) -> str:
    if name == "sweep":
        mapping = {"receiver": dict(RECEIVER, architecture="digital", bs_rows=32, bs_cols=4),
                   "sim": SIM, "sweep": SWEEP_AXES}
    else:
        mapping = {"receiver": dict(RECEIVER, **TRIAL_WORKLOADS[name]), "sim": SIM}
    path = os.path.join(tmp, f"{name}.yaml")
    with open(path, "w", encoding="utf-8") as fh:
        yaml.safe_dump(mapping, fh)
    return path


class TrialWorkload:
    """wide-digital runs ``run_monte_carlo`` for one trial.
    dump-subarray reads each trial's channel from a dump written at set-up,
    then runs the rest of the trial pipeline on it."""

    points = 1
    trials_per_op = 1

    def __init__(self, name: str, tmp: str):
        rc = parse_config(_write_config(name, tmp))
        self.cfg, self.params, self.chan_params = rc.receiver, rc.sim, rc.channel
        self.dumps: list[str] = []
        if name == "dump-subarray":
            for d in range(DUMP_COUNT):
                channel = generate_channel(
                    self.cfg, dataclasses.replace(self.chan_params, seed=trial_seeds(d)[0]))
                self.dumps.append(os.path.join(tmp, f"channel{d}.bin"))
                save_channel(channel, self.dumps[-1])

    def _dump(self, seed: int) -> str | None:
        return self.dumps[seed % DUMP_COUNT] if self.dumps else None

    def run(self, seed: int):
        """One untraced trial; returns (SE, SINR)."""
        path = self._dump(seed)
        if path is None:
            trial = run_monte_carlo(self.cfg, dataclasses.replace(self.params, seed=seed),
                                    self.chan_params).trials[0]
            return trial.se_bits_hz, trial.sinr
        _, symbol_seed, noise_seed = trial_seeds(seed)
        channel = load_channel(path, self.cfg)
        combiners = design_combiners(channel, self.cfg, refine_sweeps=self.params.refine_sweeps,
                                     refine_tol=self.params.refine_tol)
        symbols = generate_symbols(self.cfg.users, self.cfg.subcarriers,
                                   self.params.symbols_per_trial, symbol_seed)
        received = apply_system(symbols, channel, combiners, 1.0 / self.cfg.per_antenna_snr,
                                noise_seed)
        sinr = estimate_sinr(symbols, received, self.params.sinr_floor)
        return compute_se(sinr), sinr

    @staticmethod
    def record(value) -> float:
        """The part of an output the goldens keep: the trial's SE."""
        return value[0]

    @staticmethod
    def failures(value, golden, rtol: float) -> int:
        """Failed points: non-finite SINR, or an SE off its golden."""
        se, sinr = value
        ok = bool(np.all(np.isfinite(sinr)))
        if golden is not None:
            ok = ok and abs(se - golden) <= rtol * abs(golden)
        return int(not ok)

    def trace(self, tracer: Tracer, op: int, seed: int, value) -> dict:
        """Traced trial; raises unless its SE equals ``value``'s bit for bit."""
        se, counters = traced_trial(tracer, op, self.cfg, self.params, self.chan_params, seed,
                                    self._dump(seed))
        if se != value[0]:
            raise ValueError(f"traced SE {se!r} != untraced SE {value[0]!r}")
        return counters


def _traced_group(task) -> tuple[list[float], dict, list[dict]]:
    """Pool task: one simulation group's trials through ``traced_trial``."""
    op, cfg, sim, chan = task
    tracer = Tracer()
    ses, counters = [], dict.fromkeys(TRIAL_COUNTERS, 0)
    with tracer.span("tradeoff.group", op):
        for i in range(sim.trials):
            se, trial_counters = traced_trial(tracer, op, cfg, sim, chan, sim.seed + i)
            ses.append(se)
            for key, value in trial_counters.items():
                counters[key] += value
    return ses, counters, tracer.spans


class SweepWorkload:
    """``subthzrx --jobs N tradeoff`` through ``cli.main`` on a YAML config."""

    def __init__(self, name: str, tmp: str, jobs: int):
        self.tmp, self.jobs = tmp, jobs
        self.config_path = _write_config(name, tmp)
        rc = parse_config(self.config_path)
        spec, self.bandwidth_hz = rc.sweep, rc.receiver.bandwidth_hz
        self.groups = len(spec.architectures) * len(spec.array_sizes) * len(spec.snr_db)
        self.points = self.groups * len(spec.adc_bits) * len(spec.ps_types)
        self.trials_per_op = self.groups * spec.sim.trials

    def run(self, seed: int) -> str:
        """One untraced sweep; returns the tradeoff CSV text."""
        out = os.path.join(self.tmp, f"sweep{seed}")
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(["--config", self.config_path, "--out", out, "--seed", str(seed),
                      "--jobs", str(self.jobs), "tradeoff"])
        with open(os.path.join(out, "tradeoff.csv"), encoding="utf-8") as fh:
            return fh.read()

    @staticmethod
    def record(value) -> dict[str, list[float]]:
        """Rows keyed by their configuration columns: [SE, power, EE]."""
        rows = {}
        for line in value.splitlines()[1:]:
            cells = line.split(",")
            rows[",".join(cells[:8])] = [float(c) for c in cells[8:11]]
        return rows

    def failures(self, value, golden, rtol: float) -> int:
        """Failed points: missing rows, EE != SE*B/P, non-finite values, or
        any column off its golden."""
        rows = self.record(value)
        failed = self.points - len(rows)
        for key, (se, power, ee) in rows.items():
            ok = all(map(math.isfinite, (se, power, ee))) and \
                abs(ee - se * self.bandwidth_hz / power) <= 1e-12 * abs(ee)
            if golden is not None:
                ok = ok and key in golden and all(
                    abs(v - g) <= rtol * abs(g) for v, g in zip((se, power, ee), golden[key]))
            failed += not ok
        return failed

    def trace(self, tracer: Tracer, op: int, seed: int, value) -> dict:
        """``run_sweep`` and the ``tradeoff`` command recomposed with spans;
        raises unless the CSV it writes equals ``value`` byte for byte."""
        with tracer.span("sweep", op):
            root = len(tracer.spans) - 1
            with tracer.span("fileio.parse", op):
                rc = parse_config(self.config_path)
            spec, base = rc.sweep, rc.receiver
            sim = dataclasses.replace(spec.sim, seed=seed)
            chan = dataclasses.replace(rc.channel, seed=seed)
            arch_order, ps_order = list(Architecture), list(PhaseShifterType)
            combos = sorted(
                product(spec.architectures, spec.array_sizes, spec.adc_bits, spec.ps_types,
                        spec.snr_db),
                key=lambda c: (arch_order.index(c[0]), c[1].count, c[1].rows, c[2],
                               ps_order.index(c[3]), c[4]))
            groups = sorted({(c[0], c[1], c[4]) for c in combos},
                            key=lambda g: (arch_order.index(g[0]), g[1].count, g[1].rows, g[2]))
            tasks = [(op, validate_config(point_config(base, arch, geom, spec.adc_bits[0],
                                                       spec.ps_types[0], snr)), sim, chan)
                     for arch, geom, snr in groups]
            context = multiprocessing.get_context("spawn")
            with ProcessPoolExecutor(max_workers=self.jobs, mp_context=context) as pool:
                outcomes = list(pool.map(_traced_group, tasks))

            counters = dict.fromkeys(TRIAL_COUNTERS, 0)
            se_by_group = {}
            for group, (ses, group_counters, spans) in zip(groups, outcomes):
                tracer.adopt(spans, root)
                for key, count in group_counters.items():
                    counters[key] += count
                ses = np.array(ses)
                std = float(np.std(ses, ddof=1)) if len(ses) > 1 else 0.0
                se_by_group[group] = (float(np.mean(ses)), std)

            points = []
            for arch, geom, bits, ps, snr in combos:
                cfg = point_config(base, arch, geom, bits, ps, snr)
                mean, std = se_by_group[(arch, geom, snr)]
                with tracer.span("power.total", op):
                    power_w = total_power(cfg, rc.catalog).total_w
                points.append(TradeoffPoint(
                    config_id=config_id(cfg, snr), config=cfg, se_bits_hz=mean,
                    se_std_bits_hz=std, power_w=power_w,
                    ee_bits_per_joule=compute_ee(mean, cfg.bandwidth_hz, power_w)))
            path = os.path.join(self.tmp, "traced_tradeoff.csv")
            with tracer.span("fileio.emit", op):
                emit_results(SweepResult(points=tuple(points), failures=()), "csv", path)

        with open(path, encoding="utf-8") as fh:
            if fh.read() != value:
                raise ValueError("traced tradeoff table differs from the untraced one")
        group_s = [s["end"] - s["start"] for s in tracer.spans[root:]
                   if s["name"] == "tradeoff.group"]
        sweep_s = tracer.spans[root]["end"] - tracer.spans[root]["start"]
        counters.update({
            "power.calls": len(points),
            "fileio.bytes_written": os.path.getsize(path),
            "tradeoff.groups": len(tasks),
            "tradeoff.points": len(points),
            "tradeoff.failures": self.points - len(self.record(value)),
            "tradeoff.group_s_max": max(group_s),
            "tradeoff.group_s_sum": sum(group_s),
            "tradeoff.pool_efficiency": sum(group_s) / (self.jobs * sweep_s),
        })
        return counters


def make_workload(name: str, tmp: str, jobs: int):
    if name == "sweep":
        return SweepWorkload(name, tmp, jobs)
    return TrialWorkload(name, tmp)
