"""Consensus control toolkit for disturbed double-integrator networks on
directed graphs: Laplacian construction, Lyapunov gain certification,
closed-loop simulation and trajectory analysis."""

from .analysis import (
    ErrorTriple,
    EstimationLimits,
    MeanField,
    OrbitFit,
    averaged_model_matched,
    averaged_model_unmatched,
    consensus_errors,
    estimation_limits,
    fit_exponential_decay,
    fit_orbit,
    lyapunov_H,
    lyapunov_W,
    mean_field,
)
from .dynamics import (
    DisturbanceProfile,
    MatchedLoop,
    Segment,
    SimState,
    UnmatchedLoop,
    eval_disturbance,
    matched_control,
    matched_field,
    unmatched_control,
    unmatched_field,
)
from .errors import (
    ConsensusNetError,
    DegenerateSpectrumError,
    InfeasibleGainError,
    IntegrationDivergedError,
    NoOrbitError,
    SignalFitError,
    ValidationError,
)
from .gains import (
    CertificationReport,
    Check,
    MatchedGains,
    UnmatchedGains,
    certify_matched,
    certify_unmatched,
    is_S_hurwitz,
    suggest_matched,
)
from .graph import (
    DirectedGraph,
    LaplacianData,
    build_laplacian,
    graph_from_json,
    graph_to_json,
    has_spanning_tree,
    left_eigenvector,
)
from .runner import RunArtifacts, run
from .scenario import Scenario, builtin_scenario, load_scenario, save_scenario
from .sim import EXACT_ORDER, SimParams, Trajectory, convergence_order, integrate
from .spectral import LyapunovCertificate, solve_P

__version__ = "0.1.0"
