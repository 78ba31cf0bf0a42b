"""Response-matrix design for beyond-diagonal reconfigurable surfaces.

The package computes surface response matrices that maximize the average
Fisher information about a source vector at an intended receiver, with
an optional cap on the information leaked to an unintended receiver, for
three hardware classes: unconstrained unitary (non-reciprocal), symmetric
unitary (reciprocal) and diagonal unit-modulus (conventional).
"""

from .diagonal import (
    DiagForms,
    diag_forms,
    solve_diagonal_constrained,
    solve_diagonal_unconstrained,
)
from .experiments import ExperimentSpec, emit_plots, run_experiment
from .kernels import (
    HermEig,
    TakagiFactor,
    expm_skew,
    hermitian_eig,
    nearest_symmetric_unitary,
    takagi,
    unitary_procrustes,
)
from .model import (
    ARCH_DIAGONAL,
    ARCH_NONRECIPROCAL,
    ARCH_RECIPROCAL,
    ARCHITECTURES,
    ChannelSet,
    QuadraticForms,
    RisMatrix,
    SystemConfig,
    build_forms,
    crb_trace,
    fim_matrix,
    generate_channels,
    quad_objective,
    simulate_mle_mse,
)
from .pdd import PddState, qcqp_spectral, solve_pdd
from .reporting import SolveReport
from .spectral import solve_nonreciprocal, solve_reciprocal_ao, von_neumann_bound

__version__ = "0.1.0"
