"""Closed-form unitary optimum, its leakage-capped form, and symmetric-unitary ascent.

Without a leakage constraint the best unitary response is closed form:
align the eigenbases of the receiver form E_b and the source Gram matrix
M, which attains the Von Neumann trace bound sum_i d_E,i d_M,i.

Under a cap tr(Omega^H E_e Omega M) <= eps the unitary problem is solved
exactly through its Lagrangian dual.  For a multiplier mu >= 0 the
Lagrangian tr(Omega^H (E_b - mu E_e) Omega M) + mu eps is maximized by the
same closed form applied to E_b - mu E_e, so the dual function g(mu) is
the sum of sorted eigenvalue products plus mu eps: convex in one scalar,
with slope eps minus the leakage of the maximizer.  The joint range of
(information, leakage) over unitaries is the C-numerical range of
E_b + i E_e with C = M, which is convex (Westwick, Linear and Multilinear
Algebra, 1975), so there is no duality gap.  The multiplier is bracketed
by doubling and bisected; the cap is then met exactly along the geodesic
between the two bracketing maximizers, which stays in the set of
maximizers when the leakage jumps at the optimal multiplier (coincident or
commuting forms).

The reciprocal (symmetric unitary) case has no closed form; it is solved
by manifold ascent over U with Omega = U U^T, initialized at the
symmetric-unitary matrix closest to the unconstrained optimum.  The knobs
of both searches (bracket and bisection budgets, the ascent's step
schedule, tolerance and iteration budget) are the module constants below;
every caller uses the same values.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import schur

from .errors import DimensionError
from .kernels import HermEig, expm_skew, hermitian_eig, takagi
from .model import (
    ARCH_NONRECIPROCAL,
    ARCH_RECIPROCAL,
    QuadraticForms,
    RisMatrix,
    quad_objective,
)
from .reporting import SolveReport

__all__ = [
    "solve_nonreciprocal",
    "von_neumann_bound",
    "solve_reciprocal_ao",
]

# Step sizes below this are treated as a stalled line search: the current
# iterate is a numerical critical point and the run counts as converged.
_MU_FLOOR = 1e-14

# Capped closed form: the multiplier bracket starts at lambda_max(E_b) /
# lambda_max(E_e) and doubles at most this often before the cap counts as
# unreachable; each bisection (on the multiplier, then along the geodesic)
# stops once its midpoint no longer moves, or after this many steps.
_MAX_DOUBLINGS = 64
_MAX_BISECT = 200

# Reciprocal ascent: the retraction step starts at _AO_MU0, grows by
# _AO_MU_UP on an accepted move and shrinks by _AO_MU_DOWN on a rejected
# one; an accepted relative improvement below _AO_EPSILON_CONV ends the run,
# and _AO_MAX_ITERS iterations end it unconverged.
_AO_EPSILON_CONV = 1e-8
_AO_MU0 = 1e-2
_AO_MU_UP = 2.0
_AO_MU_DOWN = 0.5
_AO_MAX_ITERS = 5000


def _check_forms(forms: QuadraticForms) -> None:
    if forms.e_b.shape != forms.m.shape or forms.e_b.shape[0] != forms.e_b.shape[1]:
        raise DimensionError("e_b and m must be square matrices of equal size")


def von_neumann_bound(forms: QuadraticForms, target: str = "bob") -> float:
    """Upper bound sum_i d_E,i d_M,i on tr(Omega^H E Omega M) over unitaries.

    Both spectra are sorted descending; by Von Neumann's trace inequality
    no unitary response can exceed this value.
    """
    _check_forms(forms)
    e = forms.e_b if target == "bob" else None
    if target == "eve":
        if forms.e_e is None:
            raise ValueError("eavesdropper forms are absent")
        e = forms.e_e
    elif target != "bob":
        raise ValueError(f"target must be 'bob' or 'eve', got {target!r}")
    d_e = hermitian_eig(e).values
    d_m = hermitian_eig(forms.m).values
    return float(d_e @ d_m)


def solve_nonreciprocal(forms: QuadraticForms, epsilon_eve: float | None = None,
                        ) -> tuple[RisMatrix, SolveReport]:
    """Optimal unitary response, uncapped or under a leakage cap.

    Uncapped, the response is the closed form Omega = V_E V_M^H with V_E
    and V_M the eigenvectors of E_b and M sorted by descending eigenvalue;
    its objective equals the Von Neumann bound.  The same closed form is
    returned when it already meets ``epsilon_eve`` (constraint inactive).

    Otherwise the cap is met exactly by the dual search described in the
    module docstring, and the report's ``constraint_values`` carry
    ``epsilon_eve``, ``eve_value``, ``constraint_active``, the multiplier
    and ``dual_bound`` = g(mu), an upper bound on every feasible
    objective.  A cap below the leakage floor sum_i d_E,i(ascending)
    d_M,i(descending) cannot be met: the floor response V_E(ascending)
    V_M^H is returned with converged=False (and no dual bound).
    ``bound`` stays the uncapped Von Neumann bound.
    """
    _check_forms(forms)
    eig_e = hermitian_eig(forms.e_b)
    eig_m = hermitian_eig(forms.m)
    omega = eig_e.vectors @ eig_m.vectors.conj().T
    objective = quad_objective(omega, forms.e_b, forms.m)
    bound = float(eig_e.values @ eig_m.values)
    report = SolveReport(
        objective=objective,
        bound=bound,
        iterations=0,
        cost_trace=[objective],
        converged=True,
    )
    if epsilon_eve is None:
        return RisMatrix(omega, ARCH_NONRECIPROCAL), report
    if forms.e_e is None:
        raise ValueError("a leakage cap needs eavesdropper forms (e_e is None)")
    if not epsilon_eve > 0:
        raise ValueError("epsilon_eve must be positive")
    epsilon_eve = float(epsilon_eve)
    eve = quad_objective(omega, forms.e_e, forms.m)
    if eve <= epsilon_eve:
        report.constraint_values = {
            "epsilon_eve": epsilon_eve,
            "eve_value": eve,
            "constraint_active": False,
            "multiplier": 0.0,
            "dual_bound": bound,
        }
        return RisMatrix(omega, ARCH_NONRECIPROCAL), report
    omega, report = _capped_nonreciprocal(forms, eig_e, eig_m, epsilon_eve)
    return RisMatrix(omega, ARCH_NONRECIPROCAL), report


def _capped_nonreciprocal(forms: QuadraticForms, eig_e: HermEig, eig_m: HermEig,
                          epsilon_eve: float) -> tuple[np.ndarray, SolveReport]:
    """Dual search for a cap the uncapped optimum V_E V_M^H violates."""
    e_b, e_e, m = forms.e_b, forms.e_e, forms.m
    v_m_h = eig_m.vectors.conj().T
    bound = float(eig_e.values @ eig_m.values)
    evaluations = 0

    def leak(omega: np.ndarray) -> float:
        nonlocal evaluations
        evaluations += 1
        return quad_objective(omega, e_e, m)

    def maximizer(mu: float) -> tuple[np.ndarray, float]:
        """Argmax of the Lagrangian at mu and the dual value g(mu)."""
        eig = hermitian_eig(e_b - mu * e_e)
        return eig.vectors @ v_m_h, float(eig.values @ eig_m.values) + mu * epsilon_eve

    def report(omega: np.ndarray, converged: bool, **extra) -> SolveReport:
        objective = quad_objective(omega, e_b, m)
        return SolveReport(
            objective=objective,
            bound=bound,
            iterations=evaluations,
            cost_trace=[objective],
            converged=converged,
            constraint_values={
                "epsilon_eve": epsilon_eve,
                "eve_value": quad_objective(omega, e_e, m),
                "constraint_active": True,
                **extra,
            },
        )

    eig_ee = hermitian_eig(e_e)
    floor_omega = eig_ee.vectors[:, ::-1] @ v_m_h
    if epsilon_eve < float(eig_ee.values[::-1] @ eig_m.values):
        return floor_omega, report(floor_omega, False)

    # Bracket: leak(omega_lo) > eps >= leak(omega_hi), mu_lo < mu_hi.
    mu_lo, omega_lo = 0.0, eig_e.vectors @ v_m_h
    mu_hi = float(eig_e.values[0]) / float(eig_ee.values[0]) or 1.0
    for _ in range(_MAX_DOUBLINGS):
        omega_hi, g_hi = maximizer(mu_hi)
        if leak(omega_hi) <= epsilon_eve:
            break
        mu_lo, omega_lo = mu_hi, omega_hi
        mu_hi *= 2.0
    else:
        return floor_omega, report(floor_omega, False)

    for _ in range(_MAX_BISECT):
        mid = 0.5 * (mu_lo + mu_hi)
        if not mu_lo < mid < mu_hi:
            break
        omega_mid, g_mid = maximizer(mid)
        if leak(omega_mid) <= epsilon_eve:
            mu_hi, omega_hi, g_hi = mid, omega_mid, g_mid
        else:
            mu_lo, omega_lo = mid, omega_mid

    # Geodesic Omega(t) = Omega_hi W^t from Omega_hi (t = 0, feasible) to
    # Omega_lo (t = 1), with W = Omega_hi^H Omega_lo = Z diag(e^{i theta}) Z^H.
    tri, z = schur(omega_hi.conj().T @ omega_lo, output="complex")
    theta = np.angle(np.diag(tri))
    left = omega_hi @ z

    def along(t: float) -> np.ndarray:
        return (left * np.exp(1j * t * theta)) @ z.conj().T

    t_lo, t_hi = 0.0, 1.0
    omega = omega_hi
    for _ in range(_MAX_BISECT):
        mid = 0.5 * (t_lo + t_hi)
        if not t_lo < mid < t_hi:
            break
        candidate = along(mid)
        if leak(candidate) <= epsilon_eve:
            t_lo, omega = mid, candidate
        else:
            t_hi = mid
    return omega, report(omega, True, multiplier=mu_hi, dual_bound=g_hi)


def _ao_cost(u: np.ndarray, e_b: np.ndarray, m: np.ndarray) -> float:
    omega = u @ u.T
    return quad_objective(omega, e_b, m)


def solve_reciprocal_ao(forms: QuadraticForms) -> tuple[RisMatrix, SolveReport]:
    """Symmetric-unitary design Omega = U U^T by retraction ascent.

    Starts from the symmetric-unitary matrix nearest the unconstrained
    optimum: U0 from the Takagi factorization of V_E V_M^H + V_M^* V_E^T.
    Each iteration forms the ascent matrix Z = E_b U U^T M U^*, projects
    it to the skew step S = (U^H Z - Z^H U)/2 and retracts along
    U exp(mu S).  Steps are accepted only on cost improvement; mu grows by
    _AO_MU_UP on acceptance and shrinks by _AO_MU_DOWN on rejection.  Stops
    when an accepted relative improvement falls below _AO_EPSILON_CONV or
    the step stalls at the floor; hitting _AO_MAX_ITERS flags
    converged=False.
    """
    _check_forms(forms)
    e_b, m = forms.e_b, forms.m
    eig_e = hermitian_eig(e_b)
    eig_m = hermitian_eig(m)
    aligned = eig_e.vectors @ eig_m.vectors.conj().T
    u = takagi(aligned + aligned.T).u
    bound = float(eig_e.values @ eig_m.values)

    cost = _ao_cost(u, e_b, m)
    trace = [cost]
    mu = _AO_MU0
    converged = False
    iterations = 0
    for iterations in range(1, _AO_MAX_ITERS + 1):
        z = e_b @ u @ (u.T @ (m @ u.conj()))
        skew = 0.5 * (u.conj().T @ z - z.conj().T @ u)
        candidate = u @ expm_skew(skew, mu)
        cand_cost = _ao_cost(candidate, e_b, m)
        if cand_cost > cost:
            improvement = (cand_cost - cost) / max(abs(cost), 1e-300)
            u = candidate
            cost = cand_cost
            trace.append(cost)
            mu *= _AO_MU_UP
            if improvement < _AO_EPSILON_CONV:
                converged = True
                break
        else:
            mu *= _AO_MU_DOWN
            if mu < _MU_FLOOR:
                converged = True  # no ascent direction at float resolution
                break

    omega = u @ u.T
    omega = 0.5 * (omega + omega.T)
    objective = quad_objective(omega, e_b, m)
    report = SolveReport(
        objective=objective,
        bound=bound,
        iterations=iterations,
        cost_trace=trace,
        converged=converged,
        constraint_values={"final_step": mu},
    )
    return RisMatrix(omega, ARCH_RECIPROCAL), report
