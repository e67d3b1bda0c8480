"""Distributed PID consensus for networks of first-order linear agents.

Spectral graph machinery, closed-loop network assembly, transverse-dynamics
analysis, gain certification and fixed-step simulation, plus a CLI
(`pidnet analyze|simulate|tune|reproduce`).
"""

__version__ = "0.1.0"

from .errors import (
    ConfigError,
    DimensionMismatch,
    DisconnectedGraph,
    InvalidGraph,
    InvalidWeight,
    NonFinite,
    NotHomogeneous,
    PidnetError,
    SingularEnsemble,
    StepTooLarge,
    UnstableAverage,
)
from .netmodel import (
    Gains,
    Instance,
    NodeEnsemble,
    assemble,
    equilibrium,
)
from .sim import (
    SimConfig,
    Trace,
    build_microgrid,
    default_x0,
    integrate,
    metrics,
)
from .spectral import (
    Graph,
    build_laplacian,
    h_norm_bound,
    modified_laplacian,
    spectral_decompose,
)
from .transverse import (
    psi_blocks,
    transverse_system,
)
from .tuning import (
    certify,
    certify_heterogeneous_pid,
    certify_homogeneous_pd,
    certify_homogeneous_pi,
    certify_homogeneous_pid,
    convergence_rate,
    min_alpha,
    z_infinity_bound,
)
