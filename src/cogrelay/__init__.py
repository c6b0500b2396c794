"""Sensing-based spectrum sharing with packet relaying.

Closed-form Rayleigh throughput expressions for a secondary link that senses
the primary's channel, adapts its power to the sensing outcome, and relays
primary packets during outages; a finite MDP over queue utilisations, power
state and previous control; discounted value and policy iteration producing
lookup tables; and a slot-level Monte-Carlo simulator that checks the formulas.
"""

from .model import (
    ChannelParams,
    OUTCOME_ORDER,
    QueueParams,
    SensingOutcome,
    SensingTiming,
    db_to_linear,
    linear_to_db,
    primary_throughput,
    relay_branch,
    secondary_branch,
    secondary_throughput,
    success_probability,
)
from .sensing import (
    SensingConfig,
    detection_from_threshold,
    false_alarm_from_detection,
    threshold_from_detection,
)
from .mdp import (
    ActionGrids,
    AugmentedState,
    ControlAction,
    CostModel,
    MdpGrids,
    ModelParams,
    PowerPolicy,
    SpectrumMDP,
    StateGrids,
    TransitionRow,
    build_spectrum_mdp,
    constrained_power,
    default_action_grids,
    default_state_grids,
    sensing_outcome_distribution,
    transition,
    validate,
)
from .solver import (
    LookupTable,
    PolicyTable,
    SolverConfig,
    ValueTable,
    evaluate_policy_exact,
    extract_lookup_table,
    policy_iteration,
    value_iteration,
)
from .sim import (
    Pi1Chain,
    SimConfig,
    SimStats,
    analytical_reference,
    outcome_frequency_check,
    simulate,
)
from .config import DEFAULT_CONFIG, ConfigError, load_config, resolve_config

__version__ = "0.1.0"
