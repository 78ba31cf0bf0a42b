"""Leakage-constrained reciprocal design by penalty dual decomposition.

The constrained problem

    max tr(Omega^H E_b Omega M)  s.t.  tr(Omega^H E_e Omega M) <= eps,
                                        Omega symmetric unitary

is split with a copy Psi = Omega.  The augmented Lagrangian

    L = -Re tr(Omega^H E_b Psi M) + (1/2 rho) ||Omega - Psi||_F^2
        + Re tr(Lambda^H (Omega - Psi))

is minimized alternately: the Omega step is the nearest symmetric unitary,
the polar factor of T + T^T from one SVD, and the Psi step is a QCQP whose
KKT system is solved in the eigenbasis of E_e and M by a Newton iteration
on the scalar secular equation for the multiplier.  The r^2-by-r^2
constraint matrix M^T (x) E_e is never formed: its spectrum is the outer
product of the two r-point spectra and all inner products reduce to
r-by-r congruences.

The same problem over all unitaries (the non-reciprocal class) has an
exact dual and is solved by :func:`bdris.spectral.solve_nonreciprocal`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import tolerances as tol
from .errors import ContractViolationError
from .kernels import HermEig, hermitian_eig, nearest_symmetric_unitary
from .model import ARCH_RECIPROCAL, QuadraticForms, RisMatrix, quad_objective
from .reporting import SolveReport
from .spectral import solve_reciprocal_ao, von_neumann_bound

__all__ = [
    "PddSettings",
    "PddState",
    "solve_pdd",
    "update_omega",
    "update_psi",
    "qcqp_spectral",
    "outer_update",
]

_RHO0 = 1.0              # initial penalty-reciprocal parameter
_RHO_SHRINK = 0.7        # penalty tightening factor
_VIOL_TOL = 1e-2         # starting gate between dual and penalty branch
_VIOL_SHRINK = 0.5       # geometric tightening of that gate
_INNER_TOL = 1e-7        # inner-loop stationarity (relative)
_OUTER_TOL = 1e-5        # final ||Omega - Psi||_F
_MAX_OUTER = 50
_MAX_INNER = 200
_SECULAR_TOL = 1e-10     # relative KKT constraint residual of the multiplier solve
_MAX_NEWTON_STEPS = 100
_STALL_WINDOW = 3        # outer rounds with <1% violation progress = stalled
_STALL_FACTOR = 0.99
_MAX_RESTARTS = 3


@dataclass
class PddSettings:
    """The leakage cap the penalty-dual-decomposition solver enforces."""

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
    making the initial penalty weight of 1 balanced.
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


def _restart_start(attempt: int, r: int) -> np.ndarray:
    """Seeded random symmetric unitary used to break symmetric traps.

    When the objective and the leakage forms share an eigenbasis, the warm
    start's coefficient matrix is diagonal there and the block updates can
    never leave that manifold (the projection step only takes signs); a
    generic start has dense coefficients and escapes.
    """
    rng = np.random.default_rng(attempt)
    z = rng.normal(size=(r, r)) + 1j * rng.normal(size=(r, r))
    q, rr = np.linalg.qr(z)
    q = q * (np.diag(rr) / np.abs(np.diag(rr)))
    return nearest_symmetric_unitary(q)


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


def outer_update(state: PddState, viol_tol: float = _VIOL_TOL) -> PddState:
    """Dual ascent when the split is nearly closed, penalty tightening otherwise.

    If ||Omega - Psi||_inf is within the gate ``viol_tol`` the dual variable
    absorbs the residual (Lambda += (Omega - Psi)/rho); otherwise rho is
    shrunk so the next inner loop weighs the equality more heavily.
    """
    viol = float(np.max(np.abs(state.omega - state.psi)))
    if viol <= viol_tol:
        lam = state.lam + (state.omega - state.psi) / state.rho
        return replace(state, lam=lam)
    return replace(state, rho=_RHO_SHRINK * state.rho)


def solve_pdd(forms: QuadraticForms, settings: PddSettings,
              warm: tuple[RisMatrix, SolveReport] | None = None,
              ) -> tuple[RisMatrix, SolveReport]:
    """Best symmetric-unitary response under a leakage cap at the unintended receiver.

    Warm starts Omega = Psi from the reciprocal ascent (the first Psi step
    applies the cap); a precomputed reciprocal (RisMatrix, SolveReport)
    pair may be passed as `warm` to skip that solve, e.g. across a grid of
    caps on the same instance.  If the unconstrained optimum already meets
    the cap it is returned directly (constraint inactive).  Otherwise the
    solver alternates the two block updates to inner stationarity,
    applying the dual/penalty outer update until ||Omega - Psi||_F falls
    below ``_OUTER_TOL``.  Exhausting ``_MAX_OUTER`` rounds returns the last
    iterate with converged=False rather than raising.  The report's
    ``constraint_values`` count the outer rounds, the restarts and
    ``inner_budget_hits``, the outer rounds whose inner loop ran all
    ``_MAX_INNER`` iterations without reaching ``_INNER_TOL``.
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
    bound = von_neumann_bound(forms, "bob")
    eve0 = quad_objective(ris0.matrix, forms.e_e, forms.m)
    if eve0 <= settings.epsilon_eve:
        report = SolveReport(
            objective=rep0.objective,
            bound=bound,
            iterations=0,
            cost_trace=[rep0.objective],
            converged=True,
            constraint_values={
                "epsilon_eve": settings.epsilon_eve,
                "eve_value": eve0,
                "equality_violation": 0.0,
                "constraint_active": False,
                "outer_rounds": 0,
                "restarts": 0,
                "inner_budget_hits": 0,
            },
        )
        return ris0, report

    # The splitting iterates on the rescaled problem; the argmax and the
    # feasible set are the same, but _RHO0/_VIOL_TOL now act at unit scale.
    nforms, eps_hat = _normalized_problem(forms, settings.epsilon_eve)
    nsettings = PddSettings(epsilon_eve=eps_hat)
    nspectra = _leak_spectra(nforms)

    omega0 = ris0.matrix
    state = PddState(omega=omega0, psi=omega0.copy(),
                     lam=np.zeros_like(omega0), rho=_RHO0)
    viol_tol = _VIOL_TOL
    cost_trace: list[float] = []
    viol_trace: list[float] = []
    attempt_viols: list[float] = []
    converged = False
    stalled = False
    restarts = 0
    total_inner = 0
    outer_rounds = 0
    budget_hits = 0
    for outer_rounds in range(1, _MAX_OUTER + 1):
        if stalled:
            restarts += 1
            fresh = _restart_start(restarts, omega0.shape[0])
            state = PddState(omega=fresh, psi=fresh.copy(),
                             lam=np.zeros_like(fresh), rho=_RHO0)
            viol_tol = _VIOL_TOL
            attempt_viols = []
            stalled = False
        level = augmented_lagrangian(state, nforms)
        for _ in range(_MAX_INNER):
            state = update_omega(state, nforms)
            state = update_psi(state, nforms, nsettings, spectra=nspectra)
            total_inner += 1
            now = augmented_lagrangian(state, nforms)
            if abs(level - now) <= _INNER_TOL * max(1.0, abs(now)):
                level = now
                break
            level = now
        else:
            budget_hits += 1
        violation = float(np.linalg.norm(state.omega - state.psi))
        cost_trace.append(quad_objective(state.omega, forms.e_b, forms.m))
        viol_trace.append(violation)
        attempt_viols.append(violation)
        if violation <= _OUTER_TOL:
            converged = True
            break
        # A symmetric warm start can pin every block update at a fixed point
        # where Omega and Psi disagree but neither moves: the violation
        # freezes while the multiplier never engages.  Only that signature
        # (flat violation AND an all-zero multiplier) triggers a restart;
        # once the dual ascent is active, slow rounds are left alone.
        if (len(attempt_viols) > _STALL_WINDOW
                and attempt_viols[-1] > _STALL_FACTOR * attempt_viols[-1 - _STALL_WINDOW]
                and violation > 10.0 * _OUTER_TOL
                and not np.any(state.lam)
                and restarts < _MAX_RESTARTS):
            stalled = True
            continue
        # Tighten the gate only after dual rounds: on penalty rounds the
        # violation shrinks at the rho rate, which a gate shrinking faster
        # would outrun, locking the dual branch out permanently.
        dual_round = float(np.max(np.abs(state.omega - state.psi))) <= viol_tol
        state = outer_update(state, viol_tol)
        if dual_round:
            viol_tol *= _VIOL_SHRINK

    omega = 0.5 * (state.omega + state.omega.T)
    objective = quad_objective(omega, forms.e_b, forms.m)
    eve_value = quad_objective(omega, forms.e_e, forms.m)
    report = SolveReport(
        objective=objective,
        bound=bound,
        iterations=total_inner,
        cost_trace=cost_trace,
        converged=converged,
        constraint_values={
            "epsilon_eve": settings.epsilon_eve,
            "eve_value": eve_value,
            "eve_value_psi": quad_objective(state.psi, forms.e_e, forms.m),
            "equality_violation": viol_trace[-1] if viol_trace else 0.0,
            "constraint_active": True,
            "outer_rounds": outer_rounds,
            "restarts": restarts,
            "inner_budget_hits": budget_hits,
        },
        violation_trace=viol_trace,
    )
    return RisMatrix(omega, ARCH_RECIPROCAL), report
