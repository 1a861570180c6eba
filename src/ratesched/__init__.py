"""Joint power control, discrete rate adaptation and TDMA link scheduling for
interference-limited wireless sensor networks."""

from .allocation import brute_force_optimal, continuous_optimal, lttf
from .channel import (
    ChannelRealization,
    Topology,
    generate_topology,
    mean_gain,
    path_loss_db,
    realize_channel,
    topology_from_json,
    topology_to_json,
)
from .experiment import (
    ConfigError,
    ExperimentConfig,
    ExperimentResults,
    draw_seed,
    emit_results,
    run_experiment,
)
from .feasibility import (
    FeasibilityReport,
    NumericalError,
    Verdict,
    achieved_sinr,
    check_rate_vector,
    check_targets,
    min_power_vector,
)
from .model import (
    OVER_CAP,
    AllocationResult,
    GainMatrix,
    Instance,
    NodeSpec,
    RadioConfig,
    RateTable,
    ValidationError,
    build_rate_table,
    disc4_table,
    disc8_table,
    validate_instance,
)
from .scheduling import (
    ContinuousPricer,
    FixedPricer,
    Frame,
    InfeasibleInstanceError,
    ScheduleMetrics,
    SubsetPricer,
    TablePricer,
    compute_metrics,
    exhaustive_fits,
    exhaustive_schedule,
    mla_allocate,
    mua_allocate,
    schedule,
    sna_assign,
)

__version__ = "0.1.0"
