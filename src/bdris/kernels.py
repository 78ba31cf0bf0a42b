"""Dense complex linear-algebra kernels for the response-matrix solvers.

All routines are pure functions of their operands.  The Takagi factor,
and with it the symmetric-unitary projection, comes from one real
symmetric eigendecomposition.  Structural
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


def takagi(a: np.ndarray) -> TakagiFactor:
    """Takagi factorization A = U diag(sigma) U^T of a complex symmetric matrix.

    With A = P + iQ and u = x + iy, the Takagi equation A conj(u) = sigma u
    reads [[P, Q], [Q, -P]] [x; y] = sigma [x; y] (Horn & Johnson, Matrix
    Analysis, Cor. 4.4.4).  That real symmetric matrix has the eigenvalues
    +-sigma_j in pairs, so one ``eigh`` gives everything: its n largest
    eigenvalues are sigma (clipped at 0), and their eigenvectors give
    U = X + iY.  Eigenvectors of distinct nonnegative sigma are orthogonal
    as complex vectors too; only among numerically zero sigma, where
    +sigma and -sigma mix, can columns of U be dependent.  An unpivoted QR
    with the phase of R's diagonal restored orthonormalizes those columns
    and leaves the others as they are.  Repeated or clustered singular
    values need no special treatment.

    The reciprocal ascent starts from a Takagi factor, and
    :func:`nearest_symmetric_unitary` is U U^T.

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
    n = a.shape[0]
    sym = 0.5 * (a + a.T)
    p, q = sym.real, sym.imag
    w, v = np.linalg.eigh(np.block([[p, q], [q, -p]]))
    w, v = w[::-1][:n], v[:, ::-1][:, :n]  # the n largest, descending
    u, r = np.linalg.qr(v[:n] + 1j * v[n:])
    # angle(0) = 0: a zero diagonal entry keeps its column's phase.
    u = u * np.exp(1j * np.angle(np.diagonal(r)))
    return TakagiFactor(sigma=np.clip(w, 0.0, None), u=u)


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
    Re tr(Omega^H S) / 2 with S = T + T^T.  Over all unitaries that maximum
    is the nuclear norm of S, and with the Takagi factorization
    S = U diag(sigma) U^T the symmetric unitary U U^T attains it, so one
    factorization solves the problem, singular S included.  The product
    is symmetrized to remove rounding.
    """
    t = _require_square(t, "t")
    u = takagi(t + t.T).u
    omega = u @ u.T
    return 0.5 * (omega + omega.T)
