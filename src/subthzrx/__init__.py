"""Energy-efficiency / spectral-efficiency tradeoff analysis for sub-THz
multi-user MIMO base-station receivers.

The package couples a survey-based component power model with a wideband
Monte Carlo MIMO-OFDM link simulation to compare fully digital, sub-array
hybrid, and fully connected hybrid receive arrays.
"""

__version__ = "0.1.0"

import types as _types

from .beamforming import (CombinerSet, check_hardware_constraints, design_analog_combiner,
                          design_combiners, design_digital_combiner, design_tx_precoder,
                          mmse_digital_combiner, refine_analog_combiner)
from .channel import (ChannelDimensionError, ChannelFormatError, ClusterChannelParams,
                      PathChannel, generate_channel, load_channel, save_channel)
from .config import (Architecture, ArrayGeometry, ComponentCounts, ConfigError,
                     PhaseShifterType, ReceiverConfig, component_counts, validate_config)
from .fileio import RunConfig, RunManifest, config_echo, emit_results, parse_config
from .power import (ComponentPowerCatalog, PowerBreakdown, PowerReport, adc_power_w,
                    lna_power_mw, power_report, total_power, vga_gain_db)
from .simulation import (MonteCarloResult, SimulationParams, TrialResult, apply_system,
                         compute_se, estimate_sinr, generate_symbols, run_monte_carlo,
                         run_trial)
from .tradeoff import (SweepFailure, SweepResult, SweepSpec, TradeoffPoint, compute_ee,
                       point_config, run_sweep)

__all__ = [name for name, value in sorted(globals().items())
           if not name.startswith("_") and not isinstance(value, _types.ModuleType)]
