"""Leakage-capped reciprocal design, and the split-problem blocks it grew from.

:func:`solve_pdd` solves

    max tr(Omega^H E_b Omega M)  s.t.  tr(Omega^H E_e Omega M) <= eps,
                                        Omega symmetric unitary

by an augmented Lagrangian on the manifold (Liu & Boumal, Appl. Math.
Optim. 2020) whose inner solver is the ascent of :mod:`bdris.spectral`.
The module and ``solve_pdd`` keep the names of the penalty dual
decomposition (PDD) solver this replaced, because the sweep, the package
API and the benchmark's traced-function table bind them by name.  That
solver's blocks stay as tested building blocks: with a copy Psi = Omega,

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

from . import tolerances as tol
from .errors import ContractViolationError
from .kernels import HermEig, nearest_symmetric_unitary, takagi
from .model import ARCH_RECIPROCAL, QuadraticForms, RisMatrix, quad_objective
from .reporting import SolveReport, capped_report, checked_cap, uncapped_pair
from .spectral import _ascend, _bisect, solve_nonreciprocal, \
    solve_reciprocal_ao, von_neumann_bound

__all__ = [
    "PddState",
    "solve_pdd",
    "update_omega",
    "update_psi",
    "qcqp_spectral",
]

# Augmented Lagrangian of the capped reciprocal design (unit-scale forms):
# penalty rho starts at _RHO0 and grows by _RHO_GROWTH in every round whose
# constraint residual falls by less than _RESIDUAL_FALL; the inner ascent
# tolerance starts at _INNER_TOL0 and shrinks by _INNER_SHRINK to
# _INNER_TOL_MIN; each round runs at most _MAX_INNER ascent steps, at most
# _MAX_ROUNDS rounds run, and a relative residual at most _RESIDUAL_TOL at
# the final inner tolerance ends the run.
# Two rounds in a row that keep more than _STUCK of the residual although
# rho grew end it as infeasible.
_RHO0 = 10.0
_RHO_GROWTH = 5.0
_RESIDUAL_FALL = 4.0
_INNER_TOL0 = 1e-2
_INNER_SHRINK = 0.3
_INNER_TOL_MIN = 1e-8
_MAX_INNER = 500
_MAX_ROUNDS = 30
_RESIDUAL_TOL = 1e-10
_STUCK = 0.99


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
    the returned point satisfies x^H A x <= eps up to rounding.
    """
    values = np.asarray(eig_a.values, dtype=float)
    if values.size and values.min() < -tol.HERMITIAN_INPUT_TOL * max(1.0, float(values.max())):
        raise ContractViolationError("constraint matrix must be PSD (negative eigenvalue)")
    lam = np.clip(values, 0.0, None)
    proj = eig_a.vectors.conj().T @ np.asarray(b, dtype=complex).ravel()
    shrunk, mu = _kkt_shrink(lam, proj, epsilon_eve)
    x = eig_a.vectors @ shrunk
    if return_multiplier:
        return x, mu
    return x


def _normalized_problem(forms: QuadraticForms, epsilon_eve: float):
    """Rescale the forms to unit spectral norm so the solver knobs are scale-free.

    The low noise floor makes E_b and E_e orders of magnitude larger than
    the unitary iterates; dividing each form by its top eigenvalue (and
    the cap by the matching product) leaves the argmax unchanged while
    making the penalty weight _RHO0 and the ascent tolerances balanced.
    Returns the scaled E_b, h, E_e and M and the scaled cap; M is scaled
    as it is, not derived again from the scaled h.
    """
    s_b = float(forms.eig_b.values[0]) or 1.0
    s_m = float(forms.eig_m.values[0]) or 1.0
    s_e = float(forms.eig_e.values[0]) or 1.0
    return (forms.e_b / s_b, forms.h / np.sqrt(s_m), forms.e_e / s_e,
            forms.m / s_m, epsilon_eve / (s_e * s_m))


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
              ) -> tuple[RisMatrix, SolveReport]:
    """Best symmetric-unitary response under a leakage cap at the unintended receiver.

    The uncapped reciprocal optimum (``warm``, or a fresh
    :func:`~bdris.spectral.solve_reciprocal_ao`) is returned when it meets
    the cap.  Otherwise the exact capped non-reciprocal optimum is
    computed as X; below its leakage floor the cell ends at once as
    ``infeasible``, with the nearest symmetric unitary U U^T to X.  The
    Takagi factor U of X + X^T is also the start: from it each round
    maximizes f_b - (rho/2) max(0, f_e - eps + lam/rho)^2 on the
    unit-scale forms to a shrinking tolerance (no ascent step lowers
    this cost), then sets lam <- max(0, lam + rho (f_e - eps)).  The cell
    converges (``stationary``) once the residual |max(f_e - eps, -lam/rho)| is at
    most _RESIDUAL_TOL eps after a round at the final tolerance; it ends
    ``budget`` after _MAX_ROUNDS rounds, and ``infeasible`` when growing
    rho no longer lowers the residual.
    The report, a :func:`~bdris.reporting.capped_report` (with
    ``cap_residual``), adds the non-reciprocal ``dual_bound`` (it bounds
    every symmetric response too), ``outer_rounds`` and ``grad_norm``;
    ``iterations`` counts ascent steps.
    """
    epsilon_eve = checked_cap(forms.e_e, epsilon_eve)
    ris0, rep0 = uncapped_pair(warm, ARCH_RECIPROCAL,
                               lambda: solve_reciprocal_ao(forms))
    bound = von_neumann_bound(forms, "bob")
    eve0 = quad_objective(ris0.matrix, forms.e_e, forms.m)
    if eve0 <= epsilon_eve:
        return ris0, capped_report(
            rep0.objective, bound, 0, [rep0.objective], epsilon_eve=epsilon_eve,
            eve_value=eve0, active=False,
            stop_reason=rep0.constraint_values["stop_reason"], outer_rounds=0)

    ris_n, rep_n = solve_nonreciprocal(forms, epsilon_eve)
    # U U^T is the nearest symmetric unitary to X: one factorization gives
    # both the ascent's start U and the infeasible cell's response.
    u = takagi(ris_n.matrix + ris_n.matrix.T).u
    omega = u @ u.T
    iterations, cost_trace, stop = 0, [], "infeasible"
    extra = {"outer_rounds": 0}
    if rep_n.converged:
        extra["dual_bound"] = rep_n.constraint_values["dual_bound"]
        e_b_hat, h_hat, e_e_hat, m_hat, eps_hat = _normalized_problem(forms, epsilon_eve)
        rho, lam, inner_tol = _RHO0, 0.0, _INNER_TOL0
        residual, stuck, grown, stop = np.inf, 0, False, "budget"
        for rounds in range(1, _MAX_ROUNDS + 1):
            u, grad, steps, _, inner = _ascend(
                u, e_b_hat, h_hat, inner_tol, _MAX_INNER,
                penalty=(e_e_hat, eps_hat, lam, rho))
            iterations += steps
            omega = u @ u.T
            leak = quad_objective(omega, e_e_hat, m_hat)
            cost_trace.append(quad_objective(omega, forms.e_b, forms.m))
            extra.update(outer_rounds=rounds, grad_norm=grad)
            last, residual = residual, abs(max(leak - eps_hat, -lam / rho)) / eps_hat
            lam = max(0.0, lam + rho * (leak - eps_hat))
            if (residual <= _RESIDUAL_TOL and inner_tol <= _INNER_TOL_MIN
                    and inner == "stationary"):
                stop = "stationary"
                break
            # Two rounds in a row that move, after rho grew, but barely
            # lower the residual: the penalty no longer buys feasibility.
            stuck = stuck + 1 if grown and steps and residual > _STUCK * last else 0
            if stuck == 2:
                stop = "infeasible"
                break
            # rho grows only after a finished inner solve: a round cut off by
            # its budget says little about what the penalty achieves.
            grown = (inner == "stationary"
                     and residual > max(_RESIDUAL_TOL, last / _RESIDUAL_FALL))
            if grown:
                rho *= _RHO_GROWTH
            inner_tol = max(_INNER_TOL_MIN, _INNER_SHRINK * inner_tol)

    omega = 0.5 * (omega + omega.T)
    objective = quad_objective(omega, forms.e_b, forms.m)
    return RisMatrix(omega, ARCH_RECIPROCAL), capped_report(
        objective, bound, iterations, cost_trace or [objective],
        epsilon_eve=epsilon_eve, eve_value=quad_objective(omega, forms.e_e, forms.m),
        active=True, stop_reason=stop, **extra)
