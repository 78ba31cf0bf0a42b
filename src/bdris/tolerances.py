"""Central numerical tolerance table.

Every hard-coded threshold used by the kernels, the model layer and the
solvers lives here so that the accuracy contract of the package can be
read (and audited) in one place.
"""

# Input contract checks (relative to the largest entry of the input).
HERMITIAN_INPUT_TOL = 1e-8      # accepted deviation of A from A^H
SYMMETRIC_INPUT_TOL = 1e-8      # accepted deviation of A from A^T
SKEW_INPUT_TOL = 1e-8           # accepted deviation of S from -S^H

# Factorization quality.
EIG_RECON_TOL = 1e-10           # relative reconstruction error of hermitian_eig
EIG_ORTHO_TOL = 1e-10           # || V^H V - I ||_max for eigenvector bases
TAKAGI_RECON_TOL = 1e-9         # relative reconstruction error of takagi
UNITARY_TOL = 1e-10             # || Q^H Q - I ||_max for computed unitaries
SV_CLUSTER_REL_TOL = 1e-8       # relative gap below which singular values
                                # are treated as one degenerate cluster
SINGULAR_REL_TOL = 1e-12        # sigma_min / sigma_max at or below which a
                                # matrix counts as numerically singular

# Model layer.
IMAG_RESIDUE_TOL = 1e-9         # tolerated imaginary part of real traces
COND_LIMIT = 1e12               # condition number beyond which an
                                # information matrix counts as singular
TRACE_CONSISTENCY_TOL = 1e-9    # trace_fim vs trace of fim_matrix

# Solver book-keeping.
ARCH_CHECK_TOL = 1e-8           # per-architecture structure checks on
                                # response matrices (unitarity, symmetry,
                                # off-diagonal mass)
MONOTONE_SLACK = 1e-10          # tolerated relative backsliding of
                                # monotone quantities (float noise)
