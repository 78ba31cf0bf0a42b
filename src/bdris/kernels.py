"""Dense complex linear-algebra kernels for the response-matrix solvers.

All routines are pure functions of their operands.  Every Hermitian
spectrum the package takes comes from one eigensolver,
:func:`hermitian_eig`: the information matrix's for the CRB, the
quadratic forms' of :mod:`bdris.model` and :mod:`bdris.diagonal`, the
exponential of :func:`expm_skew`, and the real symmetric one from which
:func:`takagi`, and with it the symmetric-unitary projection, takes the
Takagi factor.

Every matrix operand of the package is checked here, by one rule:
``_checked`` refuses a non-square operand with
:class:`~bdris.errors.DimensionError`, and a non-finite one, or one further
than ``STRUCTURE_TOL`` (relative to max|A|) from its structure (Hermitian,
symmetric, skew-Hermitian), with
:class:`~bdris.errors.ContractViolationError`; ``_require_psd`` refuses a
least eigenvalue below -``STRUCTURE_TOL`` max(1, lam_max), and
``_psd_eig`` is the spectrum of a form that passes both.  The kernels,
the covariances, quadratic forms, response matrix (``RisMatrix``) and
information matrix of :mod:`bdris.model`, the reduced forms of
:mod:`bdris.diagonal` and the QCQP of :mod:`bdris.pdd` all use them; the
checks only read their operand, so every factorization sees the same bits.
"""

from __future__ import annotations

import math
import warnings
from typing import NamedTuple

import numpy as np

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

# Input contract: the accepted deviation of A from A^H, A^T or -A^H
# (relative to max|A|), and of the least eigenvalue of a PSD input below 0
# (relative to max(1, lam_max)).  ``model.RisMatrix`` holds a response to
# its class's structure (unitarity, symmetry, diagonal modulus at most 1)
# within the same tolerance, absolute, since those entries are O(1).
STRUCTURE_TOL = 1e-8
# sigma_min / sigma_max at or below which a Procrustes target counts as
# rank deficient.
SINGULAR_REL_TOL = 1e-12


class HermEig(NamedTuple):
    """Eigendecomposition of a Hermitian matrix, eigenvalues descending."""

    values: np.ndarray   # real, shape (n,), descending
    vectors: np.ndarray  # unitary columns, shape (n, n), matching order


class TakagiFactor(NamedTuple):
    """Takagi factorization A = U diag(sigma) U^T of a complex symmetric A."""

    sigma: np.ndarray    # real, non-negative, descending
    u: np.ndarray        # unitary, shape (n, n)


def _checked(a, name: str, structure: str | None = None) -> np.ndarray:
    """``a`` as an array, after refusing it unless it is square, finite and,
    when ``structure`` names one, within ``STRUCTURE_TOL`` of it.

    ``structure`` is "Hermitian" (A = A^H), "symmetric" (A = A^T) or
    "skew-Hermitian" (A = -A^H); the deviation from that mirror is measured
    against max|A|, which also carries a NaN or an infinite entry, so
    finiteness costs no pass of its own.
    """
    a = np.asarray(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionError(f"{name} must be a square matrix, got shape {a.shape}")
    scale = float(np.max(np.abs(a), initial=0.0))
    if not math.isfinite(scale):
        raise ContractViolationError(f"{name} must be finite")
    if structure is not None:
        mirror = a.T if structure == "symmetric" else a.conj().T
        diff = a + mirror if structure == "skew-Hermitian" else a - mirror
        dev = float(np.max(np.abs(diff), initial=0.0))
        if dev > STRUCTURE_TOL * scale:
            raise ContractViolationError(
                f"{name} is not {structure}: relative deviation {dev / scale:.3e}")
    return a


def _require_psd(values: np.ndarray, name: str) -> None:
    """Refuse eigenvalues of a Hermitian matrix whose least one is below
    -STRUCTURE_TOL max(1, lam_max): rounding-level negatives pass, and so
    does an empty spectrum (``initial=0.0`` cannot change the verdict)."""
    lo, hi = float(np.min(values, initial=0.0)), float(np.max(values, initial=0.0))
    if lo < -STRUCTURE_TOL * max(1.0, hi):
        raise ContractViolationError(
            f"{name} must be positive semidefinite (least eigenvalue {lo:.3e})")


def _psd_eig(e: np.ndarray, name: str) -> HermEig:
    """The spectrum of a form that is refused unless finite, Hermitian and
    PSD within ``STRUCTURE_TOL``.  The form is checked under its own name
    before ``hermitian_eig`` checks it as ``a``, so an error names it."""
    eig = hermitian_eig(_checked(e, name, "Hermitian"))
    _require_psd(eig.values, name)
    return eig


def hermitian_eig(a: np.ndarray) -> HermEig:
    """Eigendecomposition of a Hermitian matrix with descending eigenvalues.

    The input is symmetrized to (A + A^H)/2 before factorization so that
    floating-point asymmetry never leaks into downstream solvers; a
    non-finite input, or one further than ``STRUCTURE_TOL`` (relative) from
    Hermitian, is rejected.

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
    a = _checked(a, "a", "Hermitian")
    sym = 0.5 * (a + a.conj().T)
    w, v = np.linalg.eigh(sym)
    return HermEig(values=w[::-1].copy(), vectors=v[:, ::-1].copy())


def takagi(a: np.ndarray) -> TakagiFactor:
    """Takagi factorization A = U diag(sigma) U^T of a complex symmetric matrix.

    With A = P + iQ and u = x + iy, the Takagi equation A conj(u) = sigma u
    reads [[P, Q], [Q, -P]] [x; y] = sigma [x; y] (Horn & Johnson, Matrix
    Analysis, Cor. 4.4.4).  That real symmetric matrix has the eigenvalues
    +-sigma_j in pairs, so one :func:`hermitian_eig` gives everything: its
    n largest eigenvalues are sigma (clipped at 0), and their eigenvectors
    give U = X + iY.  Eigenvectors of distinct nonnegative sigma are
    orthogonal as complex vectors too; only among numerically zero sigma,
    where +sigma and -sigma mix, can columns of U be dependent.  An unpivoted QR
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
    a = _checked(a, "a", "symmetric")
    n = a.shape[0]
    sym = 0.5 * (a + a.T)
    p, q = sym.real, sym.imag
    w, v = hermitian_eig(np.block([[p, q], [q, -p]]))
    w, v = w[:n], v[:, :n]  # the n largest, descending
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
    w, v = hermitian_eig(-1j * _checked(s, "s", "skew-Hermitian"))
    return (v * np.exp(1j * step * w)) @ v.conj().T


def unitary_procrustes(t: np.ndarray) -> np.ndarray:
    """Closest unitary matrix to T in Frobenius norm.

    From the SVD T = P S Q^H the minimizer of ||Omega - T||_F over
    unitary Omega is P Q^H.  If T is rank deficient the minimizer is not
    unique; a valid one is still returned and a warning is emitted.
    """
    t = _checked(t, "t")
    p, s, qh = np.linalg.svd(t)
    if s[0] == 0.0 or s[-1] <= SINGULAR_REL_TOL * s[0]:
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
    t = _checked(t, "t")
    u = takagi(t + t.T).u
    omega = u @ u.T
    return 0.5 * (omega + omega.T)
