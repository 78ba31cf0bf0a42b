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
E_e and M (:func:`update_psi`, :func:`qcqp_spectral`) with a Newton
iteration on the scalar secular equation; the r^2-by-r^2 constraint
matrix M^T (x) E_e is never formed.

The same problem over all unitaries (the non-reciprocal class) has an
exact dual and is solved by :func:`bdris.spectral.solve_nonreciprocal`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import tolerances as tol
from .errors import ContractViolationError
from .kernels import HermEig, hermitian_eig, nearest_symmetric_unitary, takagi
from .model import ARCH_RECIPROCAL, QuadraticForms, RisMatrix, quad_objective
from .reporting import SolveReport
from .spectral import _ascend, solve_nonreciprocal, solve_reciprocal_ao, \
    von_neumann_bound

__all__ = [
    "PddSettings",
    "PddState",
    "solve_pdd",
    "update_omega",
    "update_psi",
    "qcqp_spectral",
]

_SECULAR_TOL = 1e-10     # relative KKT constraint residual of the multiplier solve
_MAX_NEWTON_STEPS = 100

# Augmented Lagrangian of the capped reciprocal design (unit-scale forms):
# penalty rho starts at _RHO0 and grows by _RHO_GROWTH in every round whose
# constraint residual falls by less than _RESIDUAL_FALL; the inner ascent
# tolerance starts at _INNER_TOL0 and shrinks by _INNER_SHRINK to
# _INNER_TOL_MIN; each round runs at most _MAX_INNER ascent steps with
# Zhang-Hager weight _ETA, at most _MAX_ROUNDS rounds run, and a relative
# residual at most _RESIDUAL_TOL at the final inner tolerance ends the run.
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
_ETA = 0.85
_RESIDUAL_TOL = 1e-10
_STUCK = 0.99


@dataclass
class PddSettings:
    """The leakage cap :func:`solve_pdd` enforces."""

    epsilon_eve: float           # leakage cap at the unintended receiver

    def __post_init__(self):
        if self.epsilon_eve <= 0:
            raise ValueError("epsilon_eve must be positive")


@dataclass
class PddState:
    """Iterate of the split problem: response, copy, dual and penalty."""

    omega: np.ndarray
    psi: np.ndarray
    lam: np.ndarray
    rho: float


def augmented_lagrangian(state: PddState, forms: QuadraticForms) -> float:
    """Direct evaluation of the split objective L(Omega, Psi, Lambda)."""
    diff = state.omega - state.psi
    value = (
        -np.vdot(state.omega, forms.e_b @ state.psi @ forms.m).real
        + np.sum(np.abs(diff) ** 2) / (2.0 * state.rho)
        + np.vdot(state.lam, diff).real
    )
    return float(value)


def _secular_iterates(lam: np.ndarray, weights: np.ndarray, epsilon_eve: float):
    """Newton iterates (mu, residual) on the KKT secular equation, from mu = 0.

    The residual is f(mu) = sum lam_i w_i / (1 + mu lam_i)^2 - eps, convex
    and decreasing.  Over the terms with lam_i > 0, f + eps =
    sum (w_i / lam_i) / (1 / lam_i + mu)^2 has the form of the trust-region
    secular function of Moré & Sorensen (1983), so (f + eps)^(-1/2) is
    concave, increasing and nearly linear (exactly linear with one active
    term).  Newton on (f + eps)^(-1/2) = eps^(-1/2) shares the root of f,
    steps at least as far as Newton on f itself, and from mu = 0 rises
    monotonically to the root without overshooting: a handful of steps
    where Newton on f needs dozens for a tight cap.  Stops at
    |f| <= eps _SECULAR_TOL / max(1, mu), when a step no longer moves mu
    (float resolution), or after ``_MAX_NEWTON_STEPS`` steps; the last pair
    yielded is the answer.
    """
    lw = lam * weights
    mu = 0.0
    for _ in range(_MAX_NEWTON_STEPS):
        d = 1.0 / (1.0 + mu * lam)
        terms = lw * d * d
        value = float(terms.sum())
        res = value - epsilon_eve
        yield mu, res
        if abs(res) <= epsilon_eve * _SECULAR_TOL / max(1.0, mu) or res < 0.0:
            return
        slope = 2.0 * float((terms * lam) @ d)   # -f'(mu)
        nxt = mu + 2.0 * value * (np.sqrt(value / epsilon_eve) - 1.0) / slope
        if not nxt > mu:
            return
        mu = nxt


def _kkt_shrink(lam: np.ndarray, coeff: np.ndarray,
                epsilon_eve: float) -> tuple[np.ndarray, float]:
    """Solve min ||x - c||^2 s.t. sum lam_i |x_i|^2 <= eps in eigencoordinates.

    Returns the shrunk coefficients c_i/(1 + mu lam_i) and the KKT
    multiplier mu.  mu = 0 when c itself is feasible; otherwise mu solves
    sum lam_i (|c_i|/(1 + mu lam_i))^2 = eps by the Newton iteration of
    :func:`_secular_iterates`.  Should it stop short of the tolerance, mu
    is moved right of the root, to t mu + (t - 1)/lam_min with t^2 the
    ratio of the constraint value at mu to eps and lam_min the smallest
    lam_i that carries weight: every such 1 + mu lam_i then grows by at
    least t, so the returned point is feasible.
    """
    if epsilon_eve <= 0:
        raise ValueError("epsilon_eve must be positive")
    weights = np.abs(coeff) ** 2
    if float(lam @ weights) <= epsilon_eve:
        return coeff, 0.0
    for mu, res in _secular_iterates(lam, weights, epsilon_eve):
        pass
    if res > epsilon_eve * _SECULAR_TOL / max(1.0, mu):
        t = np.sqrt(1.0 + res / epsilon_eve)
        mu = t * mu + (t - 1.0) / float(lam[lam * weights > 0.0].min())
    return coeff / (1.0 + mu * lam), mu


def qcqp_spectral(b: np.ndarray, eig_a: HermEig, epsilon_eve: float,
                  return_multiplier: bool = False):
    """Minimize ||x - b||^2 subject to x^H A x <= eps, A given by eig_a.

    In the eigenbasis of the PSD matrix A the optimum keeps the phase of
    every projection u_i^H b and shrinks its magnitude to
    |u_i^H b| / (1 + mu lam_i); when b is already feasible it is returned
    unchanged (mu = 0).  The multiplier is found by a Newton iteration on
    the secular equation and the returned point satisfies
    x^H A x <= eps (1 + _SECULAR_TOL).
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


def _leak_spectra(forms: QuadraticForms) -> tuple[HermEig, HermEig]:
    if forms.e_e is None:
        raise ValueError("solve_pdd needs eavesdropper forms (e_e is None)")
    return hermitian_eig(forms.e_e), hermitian_eig(forms.m)


def _normalized_problem(forms: QuadraticForms, epsilon_eve: float):
    """Rescale the forms to unit spectral norm so the solver knobs are scale-free.

    The low noise floor makes E_b and E_e orders of magnitude larger than
    the unitary iterates; dividing each form by its top eigenvalue (and
    the cap by the matching product) leaves the argmax unchanged while
    making the penalty weight _RHO0 and the ascent tolerances balanced.
    """
    s_b = float(hermitian_eig(forms.e_b).values[0]) or 1.0
    s_m = float(hermitian_eig(forms.m).values[0]) or 1.0
    s_e = float(hermitian_eig(forms.e_e).values[0]) or 1.0
    scaled = QuadraticForms(
        e_b=forms.e_b / s_b,
        m=forms.m / s_m,
        h=forms.h / np.sqrt(s_m),
        e_e=forms.e_e / s_e,
    )
    return scaled, epsilon_eve / (s_e * s_m)


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


def update_psi(state: PddState, forms: QuadraticForms, settings: PddSettings,
               spectra: tuple[HermEig, HermEig] | None = None) -> PddState:
    """Exact minimizer of the augmented Lagrangian over the copy block.

    The target is Omega + rho E_b^H Omega M^H + rho Lambda and the
    leakage cap is enforced here (on Psi); the solution is the capped
    projection computed in the joint eigenbasis.
    """
    eig_e, eig_m = spectra if spectra is not None else _leak_spectra(forms)
    target = state.omega + state.rho * (
        forms.e_b.conj().T @ state.omega @ forms.m.conj().T + state.lam
    )
    psi = _constrained_shrink(target, eig_e, eig_m, settings.epsilon_eve)
    return replace(state, psi=psi)


def solve_pdd(forms: QuadraticForms, settings: PddSettings,
              warm: tuple[RisMatrix, SolveReport] | None = None,
              ) -> tuple[RisMatrix, SolveReport]:
    """Best symmetric-unitary response under a leakage cap at the unintended receiver.

    The uncapped reciprocal optimum (``warm``, or a fresh
    :func:`~bdris.spectral.solve_reciprocal_ao`) is returned when it meets
    the cap.  Otherwise the exact capped non-reciprocal optimum is
    computed; below its leakage floor the cell ends at once as
    ``infeasible``.  From its symmetric projection each round maximizes
    f_b - (rho/2) max(0, f_e - eps + lam/rho)^2 on the unit-scale forms
    to a shrinking tolerance, then sets lam <- max(0, lam + rho (f_e -
    eps)).  The cell converges (``stationary``) once the residual
    |max(f_e - eps, -lam/rho)| is at most _RESIDUAL_TOL eps after a round
    at the final tolerance; it ends ``budget`` after _MAX_ROUNDS rounds,
    and ``infeasible`` when growing rho no longer lowers the residual.
    The report carries the non-reciprocal ``dual_bound`` (it bounds every
    symmetric response too), ``outer_rounds``, ``grad_norm`` and
    ``stop_reason``; ``iterations`` counts ascent steps.
    """
    if forms.e_e is None:
        raise ValueError("solve_pdd needs eavesdropper forms (e_e is None)")
    if warm is not None:
        ris0, rep0 = warm
        if ris0.architecture != ARCH_RECIPROCAL:
            raise ValueError(f"warm start architecture {ris0.architecture!r} "
                             f"does not match {ARCH_RECIPROCAL!r}")
    else:
        ris0, rep0 = solve_reciprocal_ao(forms)
    eps = settings.epsilon_eve
    bound = von_neumann_bound(forms, "bob")
    eve0 = quad_objective(ris0.matrix, forms.e_e, forms.m)
    cv = {"epsilon_eve": eps, "constraint_active": eve0 > eps, "outer_rounds": 0}
    if eve0 <= eps:
        cv.update(eve_value=eve0, stop_reason=rep0.constraint_values.get(
            "stop_reason", "stationary"))
        return ris0, SolveReport(objective=rep0.objective, bound=bound, iterations=0,
                                 cost_trace=[rep0.objective],
                                 converged=rep0.converged, constraint_values=cv)

    ris_n, rep_n = solve_nonreciprocal(forms, eps)
    omega = nearest_symmetric_unitary(ris_n.matrix)
    iterations, cost_trace, stop = 0, [], "infeasible"
    if rep_n.converged:
        cv["dual_bound"] = rep_n.constraint_values["dual_bound"]
        nforms, eps_hat = _normalized_problem(forms, eps)
        u = takagi(omega).u
        rho, lam, inner_tol = _RHO0, 0.0, _INNER_TOL0
        residual, stuck, grown, stop = np.inf, 0, False, "budget"
        for rounds in range(1, _MAX_ROUNDS + 1):
            u, grad, steps, _, inner = _ascend(
                u, nforms.e_b, nforms.m, inner_tol, _MAX_INNER, _ETA,
                penalty=(nforms.e_e, eps_hat, lam, rho))
            iterations += steps
            omega = u @ u.T
            leak = quad_objective(omega, nforms.e_e, nforms.m)
            cost_trace.append(quad_objective(omega, forms.e_b, forms.m))
            cv.update(outer_rounds=rounds, grad_norm=grad)
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
    cv.update(eve_value=quad_objective(omega, forms.e_e, forms.m), stop_reason=stop)
    return RisMatrix(omega, ARCH_RECIPROCAL), SolveReport(
        objective=objective, bound=bound, iterations=iterations,
        cost_trace=cost_trace or [objective], converged=stop == "stationary",
        constraint_values=cv)
