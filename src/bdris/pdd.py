"""Split-problem blocks of the leakage-capped reciprocal design.

The penalty dual decomposition (PDD) that once solved the capped reciprocal
cell split it with a copy Psi = Omega:

    L = -Re tr(Omega^H E_b Psi M) + (1/2 rho) ||Omega - Psi||_F^2
        + Re tr(Lambda^H (Omega - Psi))

is minimized over Omega by the nearest symmetric unitary
(:func:`update_omega`) and over Psi by a QCQP solved in the eigenbasis of
E_e and M (:func:`update_psi`, :func:`qcqp_spectral`) by bisection on
the scalar secular equation, from a closed-form bracket; the r^2-by-r^2
constraint matrix M^T (x) E_e is never formed.  These blocks stay as tested
building blocks; the capped reciprocal cell itself is solved by
:func:`bdris.spectral.solve_pdd`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import spectral
from .kernels import HermEig, _require_psd, nearest_symmetric_unitary
from .model import QuadraticForms
from .spectral import _bisect

# The capped reciprocal solver, bound here as well only because the
# benchmark's traced-function table wraps ``pdd.solve_pdd``: the same object,
# not a wrapper, so that table's spans reach every call the sweep makes.
solve_pdd = spectral.solve_pdd

__all__ = [
    "PddState",
    "update_omega",
    "update_psi",
    "qcqp_spectral",
]

@dataclass
class PddState:
    """Iterate of the split problem: response, copy, dual and penalty."""

    omega: np.ndarray
    psi: np.ndarray
    lam: np.ndarray
    rho: float


def _kkt_shrink(lam: np.ndarray, coeff: np.ndarray,
                epsilon_eve: float) -> tuple[np.ndarray, float]:
    """Solve min ||x - c||^2 s.t. sum lam_i |x_i|^2 <= eps in eigencoordinates.

    Returns the shrunk coefficients c_i/(1 + mu lam_i) and the KKT
    multiplier mu.  mu = 0 when c itself is feasible; otherwise mu is the
    root of the decreasing secular function
    sum lam_i w_i / (1 + mu lam_i)^2 - eps, w_i = |c_i|^2.  Each term with
    lam_i > 0 is below both w_i / (mu^2 lam_i) and w_i / (4 mu), so the
    smaller of mu = sqrt(sum_{lam_i > 0} w_i / lam_i / eps) and
    mu = sum_{lam_i > 0} w_i / (4 eps) is feasible in closed form (the
    second stays finite when some 1/lam_i overflows);
    :func:`~bdris.spectral._bisect` narrows [0, that mu] to adjacent floats
    and its feasible end is returned.
    """
    if not epsilon_eve > 0:
        raise ValueError("epsilon_eve must be positive")
    weights = np.abs(coeff) ** 2
    if float(lam @ weights) <= epsilon_eve:
        return coeff, 0.0
    lw = lam * weights
    pos = lam > 0.0
    with np.errstate(over="ignore"):
        top = min(np.sqrt(float(weights[pos] @ (1.0 / lam[pos])) / epsilon_eve),
                  float(weights[pos].sum()) / (4.0 * epsilon_eve))

    def feasible(mu: float):
        d = 1.0 / (1.0 + mu * lam)
        return float(lw @ (d * d)) <= epsilon_eve, None

    _, (mu, _) = _bisect(feasible, (0.0, None), (top, None))
    return coeff / (1.0 + mu * lam), mu


def qcqp_spectral(b: np.ndarray, eig_a: HermEig, epsilon_eve: float,
                  return_multiplier: bool = False):
    """Minimize ||x - b||^2 subject to x^H A x <= eps, A given by eig_a.

    In the eigenbasis of the PSD matrix A the optimum keeps the phase of
    every projection u_i^H b and shrinks its magnitude to
    |u_i^H b| / (1 + mu lam_i); when b is already feasible it is returned
    unchanged (mu = 0).  The multiplier is bisected on the secular
    equation from a closed-form feasible bracket (:func:`_kkt_shrink`), so
    the returned point satisfies x^H A x <= eps up to rounding.  A least
    eigenvalue below -``STRUCTURE_TOL`` max(1, lam_max) is refused, as for
    every PSD input (``kernels._require_psd``).
    """
    values = np.asarray(eig_a.values, dtype=float)
    _require_psd(values, "constraint matrix")
    lam = np.clip(values, 0.0, None)
    proj = eig_a.vectors.conj().T @ np.asarray(b, dtype=complex).ravel()
    shrunk, mu = _kkt_shrink(lam, proj, epsilon_eve)
    x = eig_a.vectors @ shrunk
    if return_multiplier:
        return x, mu
    return x


def _constrained_shrink(target: np.ndarray, eig_e: HermEig, eig_m: HermEig,
                        epsilon_eve: float) -> np.ndarray:
    """Project a matrix target onto the leakage ball without forming the
    Kronecker constraint matrix.

    With E_e = V_E D_E V_E^H and M = V_M D_M V_M^H, the eigenpairs of
    M^T (x) E_e are d_M,i d_E,j with eigenvectors v_M,i^* (x) v_E,j, so
    the projections of vec(T) are the entries of V_E^H T V_M and the
    constraint decouples over them.
    """
    coeff = eig_e.vectors.conj().T @ target @ eig_m.vectors
    lam = np.clip(np.outer(eig_e.values, eig_m.values), 0.0, None)
    shrunk, _mu = _kkt_shrink(lam.ravel(), coeff.ravel(), epsilon_eve)
    shrunk = shrunk.reshape(coeff.shape)
    return eig_e.vectors @ shrunk @ eig_m.vectors.conj().T


def update_omega(state: PddState, forms: QuadraticForms) -> PddState:
    """Exact minimizer of the augmented Lagrangian over the response block.

    The quadratic terms collapse to a nearest-matrix problem with target
    Psi + rho E_b Psi M - rho Lambda, solved by the symmetric-unitary
    projection.
    """
    target = state.psi + state.rho * (forms.e_b @ state.psi @ forms.m - state.lam)
    return replace(state, omega=nearest_symmetric_unitary(target))


def update_psi(state: PddState, forms: QuadraticForms, epsilon_eve: float) -> PddState:
    """Exact minimizer of the augmented Lagrangian over the copy block.

    The target is Omega + rho E_b^H Omega M^H + rho Lambda and the
    leakage cap is enforced here (on Psi); the solution is the capped
    projection computed in the joint eigenbasis.
    """
    if forms.e_e is None:
        raise ValueError("update_psi needs eavesdropper forms (e_e is None)")
    target = state.omega + state.rho * (
        forms.e_b.conj().T @ state.omega @ forms.m.conj().T + state.lam
    )
    psi = _constrained_shrink(target, forms.eig_e, forms.eig_m, epsilon_eve)
    return replace(state, psi=psi)

