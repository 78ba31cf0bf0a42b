"""Leakage-capped reciprocal design, and the split-problem blocks it grew from.

:func:`solve_pdd` solves

    max tr(Omega^H E_b Omega M)  s.t.  tr(Omega^H E_e Omega M) <= eps,
                                        Omega symmetric unitary

as the capped-solve contract of :mod:`bdris.reporting` around the
reciprocal class's algorithm, ``spectral._capped_reciprocal``: an
augmented Lagrangian on the manifold (Liu & Boumal, Appl. Math. Optim.
2020) whose inner solver is the ascent it sits beside.  The module and
``solve_pdd`` keep the names of the penalty dual decomposition (PDD)
solver this replaced, because the sweep, the package API and the
benchmark's traced-function table bind them by name.  That solver's
blocks stay as tested building blocks: with a copy Psi = Omega,

    L = -Re tr(Omega^H E_b Psi M) + (1/2 rho) ||Omega - Psi||_F^2
        + Re tr(Lambda^H (Omega - Psi))

is minimized over Omega by the nearest symmetric unitary
(:func:`update_omega`) and over Psi by a QCQP solved in the eigenbasis of
E_e and M (:func:`update_psi`, :func:`qcqp_spectral`) by bisection on
the scalar secular equation, from a closed-form bracket; the r^2-by-r^2
constraint matrix M^T (x) E_e is never formed.

The same problem over all unitaries (the non-reciprocal class) has an
exact dual and is solved by :func:`bdris.spectral.solve_nonreciprocal`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .kernels import HermEig, _require_psd, nearest_symmetric_unitary
from .model import ARCH_NONRECIPROCAL, ARCH_RECIPROCAL, QuadraticForms, RisMatrix, \
    quad_objective
from .reporting import SolveReport, checked_cap, checked_pair, inactive_answer, \
    uncapped_pair
from .spectral import _bisect, _capped_reciprocal, solve_reciprocal_ao, \
    von_neumann_bound

__all__ = [
    "PddState",
    "solve_pdd",
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


def solve_pdd(forms: QuadraticForms, epsilon_eve: float,
              warm: tuple[RisMatrix, SolveReport] | None = None,
              relaxed: tuple[RisMatrix, SolveReport] | None = None,
              ) -> tuple[RisMatrix, SolveReport]:
    """Best symmetric-unitary response under a leakage cap at the unintended receiver.

    The uncapped reciprocal optimum (``warm``, or a fresh
    :func:`~bdris.spectral.solve_reciprocal_ao`) is returned when it meets
    the cap (:func:`~bdris.reporting.inactive_answer`, ``outer_rounds``
    0).  Otherwise ``spectral._capped_reciprocal`` solves the cell: from
    the Takagi factor of the exact capped non-reciprocal optimum it runs
    augmented-Lagrangian rounds of the reciprocal ascent under the rule of
    :class:`~bdris.reporting.CapPenalty`, and ends ``stationary``,
    ``budget`` after its round cap, or ``infeasible``, which is reported
    only below the non-reciprocal leakage floor.  The report, a
    :func:`~bdris.reporting.capped_report` (with ``cap_residual``), adds
    the non-reciprocal ``dual_bound`` (it bounds every symmetric response
    too), ``outer_rounds`` and ``grad_norm``; ``iterations`` counts ascent
    steps.

    ``relaxed`` is that non-reciprocal optimum when the caller already
    holds it: the pair :func:`~bdris.spectral.solve_nonreciprocal` returned
    for the same forms and cap, used as it is instead of a second dual
    search.  It is data, not an option, so the answer is the same bit for
    bit with or without it.  Like ``warm`` it is checked
    (:func:`~bdris.reporting.checked_pair`): a response of another
    architecture, or a report for another cap, raises ``ValueError``.
    """
    epsilon_eve = checked_cap(forms.e_e, epsilon_eve)
    if relaxed is not None:
        checked_pair(relaxed, ARCH_NONRECIPROCAL, "relaxed answer", epsilon_eve)
    pair = uncapped_pair(warm, ARCH_RECIPROCAL, lambda: solve_reciprocal_ao(forms))
    eve0 = quad_objective(pair[0].matrix, forms.e_e, forms.m)
    if eve0 > epsilon_eve:
        return _capped_reciprocal(forms, epsilon_eve, relaxed)
    return inactive_answer(pair, von_neumann_bound(forms), epsilon_eve, eve0,
                           outer_rounds=0)
