"""RIS-assisted beam tracking for a mobile user via Bayesian optimization.

A base station steers a passive reflecting surface toward a moving user by
searching a precomputed per-cell codebook of discrete phase configurations.
The package provides the channel model, codebook construction, GP and TPE
surrogates with expected-improvement selection, the per-slot tracking loop,
and a benchmark harness with a CLI.
"""

from .acquisition import CandidatesExhausted, expected_improvement, select_next
from .bench import MetricsRow, compute_metrics, emit_csv, emit_trace, run_experiment
from .channel import (
    ChannelModel,
    DegenerateGeometryError,
    SceneConfig,
    Vec3,
    bs_ris_channel,
    dbm_to_watts,
    ris_ue_channel,
    uniform_transmit_signal,
)
from .codebook import (
    Codebook,
    GridMap,
    RisGeometry,
    build_codebook,
    ideal_phases,
    quantize_codeword,
)
from .config import ExperimentConfig, load_config, parse_config_text
from .surrogate import (
    GpModel,
    KernelTables,
    ObservationHistory,
    TpeModel,
    gp_fit,
    gp_posterior,
    kernel_tables,
    tpe_fit,
)
from .tracker import (
    Method,
    MobilityState,
    SlotResult,
    TrackingScenario,
    mobility_step,
    run_episode,
    slot_budget,
    track_slot,
)

__version__ = "0.1.0"
