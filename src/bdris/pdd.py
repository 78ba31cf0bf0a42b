"""Leakage-constrained design by penalty dual decomposition.

The constrained problem

    max tr(Omega^H E_b Omega M)  s.t.  tr(Omega^H E_e Omega M) <= eps,
                                        Omega unitary (symmetric if reciprocal)

is split with a copy Psi = Omega.  The augmented Lagrangian

    L = -Re tr(Omega^H E_b Psi M) + (1/2 rho) ||Omega - Psi||_F^2
        + Re tr(Lambda^H (Omega - Psi))

is minimized alternately: the Omega step is a Procrustes projection (in
the reciprocal case the symmetric polar factor of T + T^T, one SVD) and
the Psi step is a QCQP whose KKT system is solved in the eigenbasis of E_e
and M by a Newton iteration on the scalar secular equation for the
multiplier.  The r^2-by-r^2 constraint matrix M^T (x) E_e is never
formed: its spectrum is the outer product of the two r-point spectra and
all inner products reduce to r-by-r congruences.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import tolerances as tol
from .errors import ContractViolationError
from .kernels import HermEig, hermitian_eig, nearest_symmetric_unitary, unitary_procrustes
from .model import (
    ARCH_NONRECIPROCAL,
    ARCH_RECIPROCAL,
    QuadraticForms,
    RisMatrix,
    quad_objective,
)
from .reporting import SolveReport
from .spectral import solve_nonreciprocal, solve_reciprocal_ao, von_neumann_bound

__all__ = [
    "PddSettings",
    "PddState",
    "solve_pdd",
    "update_omega",
    "update_psi",
    "qcqp_spectral",
    "outer_update",
]

_VIOL_SHRINK = 0.5       # geometric tightening of the dual/penalty branch gate
_MAX_NEWTON_STEPS = 100
_STALL_WINDOW = 3        # outer rounds with <1% violation progress = stalled
_STALL_FACTOR = 0.99
_MAX_RESTARTS = 3


@dataclass
class PddSettings:
    """Knobs of the penalty-dual-decomposition solver."""

    epsilon_eve: float           # leakage cap at the unintended receiver
    rho0: float = 1.0            # initial penalty-reciprocal parameter
    rho_shrink: float = 0.7      # penalty tightening factor
    viol_tol: float = 1e-2       # starting gate between dual and penalty branch
    inner_tol: float = 1e-7      # inner-loop stationarity (relative)
    outer_tol: float = 1e-5      # final ||Omega - Psi||_F
    max_outer: int = 50
    max_inner: int = 200
    bisect_tol: float = 1e-10    # relative KKT constraint residual of the
                                 # multiplier solve

    def __post_init__(self):
        values = (self.epsilon_eve, self.rho0, self.rho_shrink, self.viol_tol,
                  self.inner_tol, self.outer_tol, self.bisect_tol)
        if min(values) <= 0:
            raise ValueError("all PddSettings values must be positive")
        if self.rho_shrink >= 1.0:
            raise ValueError("rho_shrink must be below 1")
        if self.max_outer < 1 or self.max_inner < 1:
            raise ValueError("iteration caps must be at least 1")


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


def _secular_iterates(lam: np.ndarray, weights: np.ndarray, epsilon_eve: float,
                      bisect_tol: float):
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
    |f| <= eps bisect_tol / max(1, mu), when a step no longer moves mu
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
        if abs(res) <= epsilon_eve * bisect_tol / max(1.0, mu) or res < 0.0:
            return
        slope = 2.0 * float((terms * lam) @ d)   # -f'(mu)
        nxt = mu + 2.0 * value * (np.sqrt(value / epsilon_eve) - 1.0) / slope
        if not nxt > mu:
            return
        mu = nxt


def _kkt_shrink(lam: np.ndarray, coeff: np.ndarray, epsilon_eve: float,
                bisect_tol: float) -> tuple[np.ndarray, float]:
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
    for mu, res in _secular_iterates(lam, weights, epsilon_eve, bisect_tol):
        pass
    if res > epsilon_eve * bisect_tol / max(1.0, mu):
        t = np.sqrt(1.0 + res / epsilon_eve)
        mu = t * mu + (t - 1.0) / float(lam[lam * weights > 0.0].min())
    return coeff / (1.0 + mu * lam), mu


def qcqp_spectral(b: np.ndarray, eig_a: HermEig, epsilon_eve: float,
                  bisect_tol: float = 1e-10, return_multiplier: bool = False):
    """Minimize ||x - b||^2 subject to x^H A x <= eps, A given by eig_a.

    In the eigenbasis of the PSD matrix A the optimum keeps the phase of
    every projection u_i^H b and shrinks its magnitude to
    |u_i^H b| / (1 + mu lam_i); when b is already feasible it is returned
    unchanged (mu = 0).  The multiplier is found by a Newton iteration on
    the secular equation and the returned point satisfies
    x^H A x <= eps (1 + bisect_tol).
    """
    values = np.asarray(eig_a.values, dtype=float)
    if values.size and values.min() < -tol.HERMITIAN_INPUT_TOL * max(1.0, float(values.max())):
        raise ContractViolationError("constraint matrix must be PSD (negative eigenvalue)")
    lam = np.clip(values, 0.0, None)
    proj = eig_a.vectors.conj().T @ np.asarray(b, dtype=complex).ravel()
    shrunk, mu = _kkt_shrink(lam, proj, epsilon_eve, bisect_tol)
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
    making rho0 = 1 a balanced penalty weight.
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


def _restart_start(attempt: int, r: int, reciprocal: bool) -> np.ndarray:
    """Seeded random (symmetric) unitary used to break symmetric traps.

    When the objective and the leakage forms share an eigenbasis, the warm
    start's coefficient matrix is diagonal there and the block updates can
    never leave that manifold (the Procrustes step only takes signs); a
    generic start has dense coefficients and escapes.
    """
    rng = np.random.default_rng(attempt)
    z = rng.normal(size=(r, r)) + 1j * rng.normal(size=(r, r))
    q, rr = np.linalg.qr(z)
    q = q * (np.diag(rr) / np.abs(np.diag(rr)))
    if reciprocal:
        q = nearest_symmetric_unitary(q)
    return q


def _constrained_shrink(target: np.ndarray, eig_e: HermEig, eig_m: HermEig,
                        epsilon_eve: float, bisect_tol: float) -> np.ndarray:
    """Project a matrix target onto the leakage ball without forming the
    Kronecker constraint matrix.

    With E_e = V_E D_E V_E^H and M = V_M D_M V_M^H, the eigenpairs of
    M^T (x) E_e are d_M,i d_E,j with eigenvectors v_M,i^* (x) v_E,j, so
    the projections of vec(T) are the entries of V_E^H T V_M and the
    constraint decouples over them.
    """
    coeff = eig_e.vectors.conj().T @ target @ eig_m.vectors
    lam = np.clip(np.outer(eig_e.values, eig_m.values), 0.0, None)
    shrunk, _mu = _kkt_shrink(lam.ravel(), coeff.ravel(), epsilon_eve, bisect_tol)
    shrunk = shrunk.reshape(coeff.shape)
    return eig_e.vectors @ shrunk @ eig_m.vectors.conj().T


def update_omega(state: PddState, forms: QuadraticForms,
                 reciprocal: bool = False) -> PddState:
    """Exact minimizer of the augmented Lagrangian over the response block.

    The quadratic terms collapse to a nearest-matrix problem with target
    Psi + rho E_b Psi M - rho Lambda, solved by the Procrustes projection
    (symmetric-unitary projection when reciprocal).
    """
    target = state.psi + state.rho * (forms.e_b @ state.psi @ forms.m - state.lam)
    if reciprocal:
        omega = nearest_symmetric_unitary(target)
    else:
        omega = unitary_procrustes(target)
    return replace(state, omega=omega)


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
    psi = _constrained_shrink(target, eig_e, eig_m,
                              settings.epsilon_eve, settings.bisect_tol)
    return replace(state, psi=psi)


def outer_update(state: PddState, settings: PddSettings,
                 viol_tol: float | None = None) -> PddState:
    """Dual ascent when the split is nearly closed, penalty tightening otherwise.

    If ||Omega - Psi||_inf is within the current gate the dual variable
    absorbs the residual (Lambda += (Omega - Psi)/rho); otherwise rho is
    shrunk so the next inner loop weighs the equality more heavily.
    """
    gate = settings.viol_tol if viol_tol is None else viol_tol
    viol = float(np.max(np.abs(state.omega - state.psi)))
    if viol <= gate:
        lam = state.lam + (state.omega - state.psi) / state.rho
        return replace(state, lam=lam)
    return replace(state, rho=settings.rho_shrink * state.rho)


def solve_pdd(forms: QuadraticForms, settings: PddSettings,
              reciprocal: bool = False,
              warm: tuple[RisMatrix, SolveReport] | None = None,
              ) -> tuple[RisMatrix, SolveReport]:
    """Best response under a leakage cap at the unintended receiver.

    Warm starts Omega = Psi from the unconstrained solver of the matching
    architecture (the first Psi step applies the cap); a precomputed
    (RisMatrix, SolveReport) pair may be passed as `warm` to skip that
    solve, e.g. across a grid of caps on the same instance.  If the
    unconstrained optimum already meets the cap it is returned directly
    (constraint inactive).  Otherwise the solver alternates the two block
    updates to inner stationarity, applying the dual/penalty outer update
    until ||Omega - Psi||_F falls below outer_tol.  Exhausting max_outer
    returns the last iterate with converged=False rather than raising.
    The report's ``constraint_values`` count the outer rounds, the restarts
    and ``inner_budget_hits``, the outer rounds whose inner loop ran all
    max_inner iterations without reaching inner_tol.
    """
    if forms.e_e is None:
        raise ValueError("solve_pdd needs eavesdropper forms (e_e is None)")
    arch = ARCH_RECIPROCAL if reciprocal else ARCH_NONRECIPROCAL
    if warm is not None:
        ris0, rep0 = warm
        if ris0.architecture != arch:
            raise ValueError(f"warm start architecture {ris0.architecture!r} "
                             f"does not match {arch!r}")
    elif reciprocal:
        ris0, rep0 = solve_reciprocal_ao(forms)
    else:
        ris0, rep0 = solve_nonreciprocal(forms)
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
    # feasible set are the same, but rho0/viol_tol now act at unit scale.
    nforms, eps_hat = _normalized_problem(forms, settings.epsilon_eve)
    nsettings = replace(settings, epsilon_eve=eps_hat)
    nspectra = _leak_spectra(nforms)

    omega0 = ris0.matrix
    state = PddState(omega=omega0, psi=omega0.copy(),
                     lam=np.zeros_like(omega0), rho=settings.rho0)
    viol_tol = settings.viol_tol
    cost_trace: list[float] = []
    viol_trace: list[float] = []
    attempt_viols: list[float] = []
    converged = False
    stalled = False
    restarts = 0
    total_inner = 0
    outer_rounds = 0
    budget_hits = 0
    for outer_rounds in range(1, settings.max_outer + 1):
        if stalled:
            restarts += 1
            fresh = _restart_start(restarts, omega0.shape[0], reciprocal)
            state = PddState(omega=fresh, psi=fresh.copy(),
                             lam=np.zeros_like(fresh), rho=settings.rho0)
            viol_tol = settings.viol_tol
            attempt_viols = []
            stalled = False
        level = augmented_lagrangian(state, nforms)
        for _ in range(settings.max_inner):
            state = update_omega(state, nforms, reciprocal)
            state = update_psi(state, nforms, nsettings, spectra=nspectra)
            total_inner += 1
            now = augmented_lagrangian(state, nforms)
            if abs(level - now) <= settings.inner_tol * max(1.0, abs(now)):
                level = now
                break
            level = now
        else:
            budget_hits += 1
        violation = float(np.linalg.norm(state.omega - state.psi))
        cost_trace.append(quad_objective(state.omega, forms.e_b, forms.m))
        viol_trace.append(violation)
        attempt_viols.append(violation)
        if violation <= settings.outer_tol:
            converged = True
            break
        # A symmetric warm start can pin every block update at a fixed point
        # where Omega and Psi disagree but neither moves: the violation
        # freezes while the multiplier never engages.  Only that signature
        # (flat violation AND an all-zero multiplier) triggers a restart;
        # once the dual ascent is active, slow rounds are left alone.
        if (len(attempt_viols) > _STALL_WINDOW
                and attempt_viols[-1] > _STALL_FACTOR * attempt_viols[-1 - _STALL_WINDOW]
                and violation > 10.0 * settings.outer_tol
                and not np.any(state.lam)
                and restarts < _MAX_RESTARTS):
            stalled = True
            continue
        # Tighten the gate only after dual rounds: on penalty rounds the
        # violation shrinks at the rho rate, which a gate shrinking faster
        # would outrun, locking the dual branch out permanently.
        dual_round = float(np.max(np.abs(state.omega - state.psi))) <= viol_tol
        state = outer_update(state, nsettings, viol_tol)
        if dual_round:
            viol_tol *= _VIOL_SHRINK

    omega = state.omega
    if reciprocal:
        omega = 0.5 * (omega + omega.T)
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
    return RisMatrix(omega, arch), report
