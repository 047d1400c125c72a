"""Discrete-time quantum Markov chains, quantum filters, and exact sub-martingale checks."""

from .channels import (
    KrausChannel,
    OutcomePartition,
    apply_channel,
    conditional_update,
    make_partition,
    outcome_probs,
    random_channel,
    random_partition,
    singleton_partition,
    trivial_partition,
    validate_channel,
)
from .dilation import ProofReplayReport, replay_proof, uhlmann_pair
from .filtering import (
    BatchStatistics,
    JointStep,
    JointTrajectory,
    SimulationConfig,
    batch_statistics,
    simulate,
)
from .linalg import hermitian_eig, psd_sqrt, trace_abs
from .measures import fidelity, frobenius_inner, purity, relative_entropy, trace_distance
from .states import make_density, maximally_mixed, random_density
from .verify import (
    CounterexampleReport,
    GapReport,
    check_fidelity_submartingale,
    check_kraus_monotonicity,
    check_mean_evolution,
    counterexample_instance,
    counterexample_report,
    measure_gap_report,
    random_search_violation,
)

__version__ = "0.1.0"

__all__ = [
    "BatchStatistics",
    "CounterexampleReport",
    "GapReport",
    "JointStep",
    "JointTrajectory",
    "KrausChannel",
    "OutcomePartition",
    "ProofReplayReport",
    "SimulationConfig",
    "apply_channel",
    "batch_statistics",
    "check_fidelity_submartingale",
    "check_kraus_monotonicity",
    "check_mean_evolution",
    "conditional_update",
    "counterexample_instance",
    "counterexample_report",
    "fidelity",
    "frobenius_inner",
    "hermitian_eig",
    "make_density",
    "make_partition",
    "maximally_mixed",
    "measure_gap_report",
    "outcome_probs",
    "psd_sqrt",
    "purity",
    "random_channel",
    "random_density",
    "random_partition",
    "random_search_violation",
    "relative_entropy",
    "replay_proof",
    "simulate",
    "singleton_partition",
    "trace_abs",
    "trace_distance",
    "trivial_partition",
    "uhlmann_pair",
    "validate_channel",
]
