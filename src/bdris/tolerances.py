"""Shared numerical tolerances.

Every input check on a matrix operand (``kernels._checked`` and
``kernels._require_psd``: the kernels, the covariances, the quadratic
forms, the Hadamard-reduced forms, the information matrix and the QCQP
constraint) reads the one structure tolerance below.  The Procrustes rank
warning, the model layer's trace and conditioning checks, and the
structure checks on response matrices read their thresholds here too.
The factorizations themselves take none: the Takagi factor needs no
clustering of repeated singular values.  Each solver's own iteration constants (step sizes,
stopping tolerances, budgets) are module constants of that solver.
"""

# Input contract checks.
STRUCTURE_TOL = 1e-8            # accepted deviation of A from A^H, A^T or
                                # -A^H (relative to max|A|), and of the
                                # least eigenvalue of a PSD input below 0
                                # (relative to max(1, lam_max))

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
