"""Dense complex linear-algebra kernels for the response-matrix solvers.

All routines are pure functions of their operands.  Structural
preconditions (Hermitian, symmetric, skew-Hermitian) are checked against
the tolerances in :mod:`bdris.tolerances` and violations raise
:class:`~bdris.errors.ContractViolationError`; shape problems raise
:class:`~bdris.errors.DimensionError`.
"""

from __future__ import annotations

import warnings
from typing import NamedTuple

import numpy as np

from . import tolerances as tol
from .errors import ContractViolationError, DimensionError

__all__ = [
    "HermEig",
    "TakagiFactor",
    "hermitian_eig",
    "takagi",
    "expm_skew",
    "unitary_procrustes",
    "nearest_symmetric_unitary",
]


class HermEig(NamedTuple):
    """Eigendecomposition of a Hermitian matrix, eigenvalues descending."""

    values: np.ndarray   # real, shape (n,), descending
    vectors: np.ndarray  # unitary columns, shape (n, n), matching order


class TakagiFactor(NamedTuple):
    """Takagi factorization A = U diag(sigma) U^T of a complex symmetric A."""

    sigma: np.ndarray    # real, non-negative, descending
    u: np.ndarray        # unitary, shape (n, n)


def _require_square(a: np.ndarray, name: str) -> np.ndarray:
    a = np.asarray(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionError(f"{name} must be a square matrix, got shape {a.shape}")
    return a


def _scale(a: np.ndarray) -> float:
    """Magnitude reference for relative tolerance checks (1.0 for a zero matrix)."""
    s = float(np.max(np.abs(a))) if a.size else 0.0
    return s if s > 0.0 else 1.0


def hermitian_eig(a: np.ndarray) -> HermEig:
    """Eigendecomposition of a Hermitian matrix with descending eigenvalues.

    The input is symmetrized to (A + A^H)/2 before factorization so that
    floating-point asymmetry never leaks into downstream solvers; inputs
    further than ``HERMITIAN_INPUT_TOL`` (relative) from Hermitian are
    rejected.

    Parameters
    ----------
    a : (n, n) array_like
        Hermitian matrix.

    Returns
    -------
    HermEig
        ``values`` sorted descending, ``vectors`` with orthonormal columns
        in the matching order.
    """
    a = _require_square(a, "a")
    dev = np.max(np.abs(a - a.conj().T)) if a.size else 0.0
    if dev > tol.HERMITIAN_INPUT_TOL * _scale(a):
        raise ContractViolationError(
            f"matrix is not Hermitian: relative deviation {dev / _scale(a):.3e}"
        )
    sym = 0.5 * (a + a.conj().T)
    w, v = np.linalg.eigh(sym)
    return HermEig(values=w[::-1].copy(), vectors=v[:, ::-1].copy())


def _runs(values: np.ndarray, gap: float) -> list[np.ndarray]:
    """Split a sorted 1-d array into consecutive clusters closer than ``gap``."""
    if values.size == 0:
        return []
    breaks = np.nonzero(np.abs(np.diff(values)) > gap)[0]
    return np.split(np.arange(values.size), breaks + 1)


def _sym_unitary_sqrt(z: np.ndarray) -> np.ndarray:
    """Symmetric unitary square root of a symmetric unitary matrix.

    Writes Z = X + iY with commuting real symmetric X, Y, diagonalizes
    them simultaneously with a real orthogonal Q so Z = Q e^{i theta} Q^T,
    and halves the phases.  Branch-safe at eigenvalue -1 and exactly
    symmetric by construction.
    """
    z = 0.5 * (z + z.T)
    x = np.ascontiguousarray(z.real)
    y = np.ascontiguousarray(z.imag)
    lam, q = np.linalg.eigh(x)
    # A degenerate eigenvalue of X covers conjugate phase pairs e^{+-i phi};
    # rotating within each eigenspace to diagonalize Y separates them.
    for idx in _runs(lam, 1e-7):
        if idx.size > 1:
            sub = q[:, idx]
            _, g = np.linalg.eigh(sub.T @ y @ sub)
            q[:, idx] = sub @ g
    cos_t = np.einsum("ij,ij->j", q, x @ q)
    sin_t = np.einsum("ij,ij->j", q, y @ q)
    half = 0.5 * np.arctan2(sin_t, cos_t)
    return (q * np.exp(1j * half)) @ q.T


def takagi(a: np.ndarray) -> TakagiFactor:
    """Takagi factorization A = U diag(sigma) U^T of a complex symmetric matrix.

    Computed from the SVD A = V S W^H: the unitary Z = V^H W^* is block
    diagonal over degenerate singular-value clusters and symmetric on the
    blocks with nonzero singular value; U = V sqrt(Z) with the square root
    taken blockwise.  A single-element block is a unit-modulus scalar whose
    root halves its phase, so all of those are taken in one array
    operation.  Robust to repeated singular values by construction.

    The reciprocal ascent starts from a Takagi factor, and
    :func:`nearest_symmetric_unitary` falls back to it for a numerically
    singular target.

    Parameters
    ----------
    a : (n, n) array_like
        Complex symmetric (A = A^T) matrix.

    Returns
    -------
    TakagiFactor
        ``sigma`` non-negative descending, ``u`` unitary.
    """
    a = _require_square(a, "a")
    dev = np.max(np.abs(a - a.T)) if a.size else 0.0
    if dev > tol.SYMMETRIC_INPUT_TOL * _scale(a):
        raise ContractViolationError(
            f"matrix is not complex symmetric: relative deviation {dev / _scale(a):.3e}"
        )
    sym = 0.5 * (a + a.T)
    v, sigma, wh = np.linalg.svd(sym)
    if sigma[0] == 0.0:  # zero matrix: any unitary works
        return TakagiFactor(sigma=sigma, u=np.eye(a.shape[0], dtype=complex))
    z = v.conj().T @ wh.T  # V^H W^*
    # Numerically zero clusters keep the identity block: there Z need not
    # be symmetric, and the columns do not contribute to the reconstruction.
    root = np.eye(z.shape[0], dtype=complex)
    gap = tol.SV_CLUSTER_REL_TOL * sigma[0]
    live = sigma > tol.SINGULAR_REL_TOL * sigma[0]
    split = np.abs(np.diff(sigma)) > gap
    alone = np.flatnonzero(live & np.r_[True, split] & np.r_[split, True])
    root[alone, alone] = np.exp(1j * (0.5 * np.angle(z[alone, alone])))
    for idx in _runs(sigma, gap):
        if idx.size > 1 and live[idx[0]]:
            blk = np.ix_(idx, idx)
            root[blk] = _sym_unitary_sqrt(z[blk])
    return TakagiFactor(sigma=sigma, u=v @ root)


def expm_skew(s: np.ndarray, step: float = 1.0) -> np.ndarray:
    """Unitary matrix exponential exp(step * S) of a skew-Hermitian S.

    Evaluated through the eigendecomposition of the Hermitian matrix -iS,
    so the result is unitary to the accuracy of the eigenvector basis at
    any step size (no scaling-and-squaring drift).

    Parameters
    ----------
    s : (n, n) array_like
        Skew-Hermitian matrix (S^H = -S).
    step : float
        Scalar multiplier applied to S before exponentiation.

    Returns
    -------
    (n, n) ndarray
        Unitary matrix exp(step * S).
    """
    s = _require_square(s, "s")
    dev = np.max(np.abs(s + s.conj().T)) if s.size else 0.0
    if dev > tol.SKEW_INPUT_TOL * _scale(s):
        raise ContractViolationError(
            f"matrix is not skew-Hermitian: relative deviation {dev / _scale(s):.3e}"
        )
    h = -1j * s
    h = 0.5 * (h + h.conj().T)
    w, v = np.linalg.eigh(h)
    return (v * np.exp(1j * step * w)) @ v.conj().T


def unitary_procrustes(t: np.ndarray) -> np.ndarray:
    """Closest unitary matrix to T in Frobenius norm.

    From the SVD T = P S Q^H the minimizer of ||Omega - T||_F over
    unitary Omega is P Q^H.  If T is rank deficient the minimizer is not
    unique; a valid one is still returned and a warning is emitted.
    """
    t = _require_square(t, "t")
    p, s, qh = np.linalg.svd(t)
    if s[0] == 0.0 or s[-1] <= tol.SINGULAR_REL_TOL * s[0]:
        warnings.warn(
            "procrustes target is rank deficient; the nearest unitary is not unique",
            RuntimeWarning,
            stacklevel=2,
        )
    return p @ qh


def nearest_symmetric_unitary(t: np.ndarray) -> np.ndarray:
    """Closest symmetric unitary matrix to T in Frobenius norm.

    The minimizer of ||Omega - T||_F over symmetric unitary Omega maximizes
    Re tr(Omega^H S) / 2 with S = T + T^T.  Over all unitaries that is the
    polar factor P Q^H of the SVD S = P Sigma Q^H (Higham, 1986), and for a
    nonsingular complex-symmetric S the polar factor is itself symmetric,
    so one SVD solves the problem.  The computed factor is symmetrized to
    remove rounding; that keeps Re tr(Omega^H S) and moves unitarity only
    at second order in the symmetry defect.  A numerically singular S
    (sigma_min <= ``SINGULAR_REL_TOL`` sigma_max) has no unique polar
    factor; then the Takagi factorization S = U diag(sigma) U^T gives the
    symmetric unitary U U^T.
    """
    t = _require_square(t, "t")
    s = t + t.T
    p, sigma, qh = np.linalg.svd(s)
    if sigma[0] == 0.0 or sigma[-1] <= tol.SINGULAR_REL_TOL * sigma[0]:
        fac = takagi(s)
        return fac.u @ fac.u.T
    omega = p @ qh
    return 0.5 * (omega + omega.T)
