"""Shared numerical tolerances.

The input-contract checks of the kernels, the Procrustes rank warning,
the model layer's trace and conditioning checks, and the structure checks
on response matrices read their thresholds here.  The factorizations
themselves take none: the Takagi factor needs no clustering of repeated
singular values.  Each solver's own iteration constants (step sizes,
stopping tolerances, budgets) are module constants of that solver.
"""

# Input contract checks (relative to the largest entry of the input).
HERMITIAN_INPUT_TOL = 1e-8      # accepted deviation of A from A^H
SYMMETRIC_INPUT_TOL = 1e-8      # accepted deviation of A from A^T
SKEW_INPUT_TOL = 1e-8           # accepted deviation of S from -S^H

# Factorization quality.
SINGULAR_REL_TOL = 1e-12        # sigma_min / sigma_max at or below which a
                                # Procrustes target counts as rank deficient

# Model layer.
IMAG_RESIDUE_TOL = 1e-9         # tolerated imaginary part of real traces
COND_LIMIT = 1e12               # condition number beyond which an
                                # information matrix counts as singular

# Solver book-keeping.
ARCH_CHECK_TOL = 1e-8           # per-architecture structure checks on
                                # response matrices (unitarity, symmetry,
                                # off-diagonal mass)
