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

The reciprocal (symmetric unitary) case has no closed form: a
limited-memory BFGS ascent on U, Omega = U U^T, solves it from the
symmetric-unitary matrix closest to the unconstrained optimum.  Under a
cap, :func:`solve_pdd` runs penalty rounds of the same ascent from the
Takagi factor of the capped non-reciprocal optimum.  Each capped class
here is the contract of :mod:`bdris.reporting` around its class's
algorithm.

The ascent works on the r-by-k source matrix h rather than on M = h h^H,
which has rank k <= r.  Its state is a frame B with Omega = B B^T plus
r-by-k products of h.  Each line-search trial costs one half step
exp(i t P / 2) - I, a short real Taylor series whose cosine and sine
parts share one stack of powers (:func:`_expm1i`, m + 2 real r-by-r
products at degree m), and r-by-r-by-k products; an accepted step adds
the two-loop recursion over _MEMORY pairs and one complex r-by-r product
that moves the frame.  The knobs of both searches are the module
constants below; every caller uses the same values.
"""

from __future__ import annotations

import bisect
import math
from collections import deque

import numpy as np

from .kernels import hermitian_eig, takagi
from .model import (
    ARCH_NONRECIPROCAL,
    ARCH_RECIPROCAL,
    QuadraticForms,
    RisMatrix,
    quad_objective,
)
from .reporting import CapPenalty, SolveReport, capped_report, checked_cap, \
    checked_pair, inactive_answer, uncapped_pair

__all__ = [
    "solve_nonreciprocal",
    "von_neumann_bound",
    "solve_reciprocal_ao",
    "solve_pdd",
]

# Capped closed form: the multiplier bracket starts at lambda_max(E_b) /
# lambda_max(E_e) and doubles at most this often before the cap counts as
# unreachable.  Every bisection (:func:`_bisect`) stops after at most
# _MAX_BISECT steps.
_MAX_DOUBLINGS = 64
_MAX_BISECT = 200

# Reciprocal ascent: Armijo constant of the line search, the step below
# which a failed search ends the run as stalled, the number of L-BFGS pairs
# kept, and the uncapped run's stationarity tolerance on ||A||_F (unit-scale
# forms) and step budget.  Memory 3/5/8/12 took 1 917/1 694/1 554/1 553
# steps over the five r = 64 acceptance draws (seeds 7-11), and
# 9 021/6 583/7 372/6 459 over the seven active capped cells of the r = 36
# reference sweep: 3 is clearly worse, the others differ by about what
# last-bit rounding moves, and 5 keeps the two-loop short.  Those counts
# were taken when a step exponentiated P through its eigendecomposition.
# With the Taylor step of :func:`_expm1i`, memory 5 takes 1 684 and 6 823
# steps on the same cells, against 1 661 and 6 618 for the eigendecomposition
# step just before it: a spread that last-bit rounding alone also gives.
_ARMIJO = 1e-4
_STEP_FLOOR = 1e-10
_MEMORY = 5
_AO_GRAD_TOL = 1e-6
_AO_MAX_ITERS = 5000

# Schedule of the capped reciprocal rounds (unit-scale forms) under the
# shared rule of :class:`~bdris.reporting.CapPenalty`: the inner ascent
# tolerance starts at _INNER_TOL0 and shrinks by _INNER_SHRINK to
# _INNER_TOL_MIN; each round runs at most _MAX_INNER ascent steps, at most
# _MAX_ROUNDS rounds run, and the residual tolerance is _RESIDUAL_TOL.
_INNER_TOL0 = 1e-2
_INNER_SHRINK = 0.3
_INNER_TOL_MIN = 1e-8
_MAX_INNER = 500
_MAX_ROUNDS = 30
_RESIDUAL_TOL = 1e-10


# exp(i X) - I for real symmetric X (:func:`_expm1i`), with Y = X^2:
# cos X - I = sum_j c_j Y^(j+1) and sin X = X q_s(Y), q_s(Y) = sum_j s_j Y^j,
# with c_j = (-1)^(j+1) / (2j+2)! and s_j = (-1)^j / (2j+1)!.  Degree m
# (j = 0..m) serves ||X||_2 <= _TAYLOR_THETA[m - 1]: the first omitted sine
# term X^(2m+3) / (2m+3)! is then at most half the unit roundoff relative
# to ||X||_2, and the first omitted cosine term is smaller still.  Row 0 of
# _TAYLOR_TABLES[m - 1] holds the c_j on the powers I, Y, ..., Y^(m+1), row
# 1 the s_j.  One more degree costs one real r-by-r product and a squaring
# F <- F (2I + F) a complex one, four real.  Three more degrees would
# double theta past m = _TAYLOR_MAX and save one product on the squaring
# they replace, but such X are rare (a squaring ran in 6 of 1 681 calls
# over the r = 64 acceptance draws and in 1 of 9 739 over the r = 36
# reference sweep), so the table stops here and larger X are halved.
_TAYLOR_MAX = 8
_TAYLOR_TABLES = tuple(
    np.array([[0.0] + [(-1) ** (j + 1) / math.factorial(2 * j + 2) for j in range(m + 1)],
              [(-1) ** j / math.factorial(2 * j + 1) for j in range(m + 1)] + [0.0]])
    for m in range(1, _TAYLOR_MAX + 1))
_TAYLOR_THETA = tuple(
    (np.finfo(float).eps / 4.0 * math.factorial(2 * m + 3)) ** (1.0 / (2 * m + 2))
    for m in range(1, _TAYLOR_MAX + 1))


def von_neumann_bound(forms: QuadraticForms, target: str = "bob") -> float:
    """Upper bound sum_i d_E,i d_M,i on tr(Omega^H E Omega M) over unitaries.

    Both spectra are sorted descending (the forms' stored ones); by Von
    Neumann's trace inequality no unitary response can exceed this value.
    """
    if target not in ("bob", "eve"):
        raise ValueError(f"target must be 'bob' or 'eve', got {target!r}")
    eig = forms.eig_b if target == "bob" else forms.eig_e
    if eig is None:
        raise ValueError("eavesdropper forms are absent")
    return float(eig.values @ forms.eig_m.values)


def solve_nonreciprocal(forms: QuadraticForms, epsilon_eve: float | None = None,
                        ) -> tuple[RisMatrix, SolveReport]:
    """Optimal unitary response, uncapped or under a leakage cap.

    Uncapped, the response is the closed form Omega = V_E V_M^H with V_E
    and V_M the eigenvectors of E_b and M sorted by descending eigenvalue;
    its objective equals the Von Neumann bound.  The same closed form is
    returned when it already meets ``epsilon_eve`` (constraint inactive).

    Otherwise the cap is met exactly by the dual search described in the
    module docstring, and the report's ``constraint_values`` carry
    ``epsilon_eve``, ``eve_value``, ``cap_residual``, ``constraint_active``,
    the multiplier and ``dual_bound`` = g(mu), an upper bound on every
    feasible objective.  A cap below the leakage floor sum_i
    d_E,i(ascending) d_M,i(descending) cannot be met: the floor response
    V_E(ascending) V_M^H is returned, not converged (and no dual bound).
    ``bound`` stays the uncapped Von Neumann bound.  The report's
    ``stop_reason`` is ``closed_form`` (uncapped or inactive cap),
    ``stationary`` (cap met by the dual search) or ``infeasible``.
    """
    omega = forms.eig_b.vectors @ forms.eig_m.vectors.conj().T
    objective = quad_objective(omega, forms.e_b, forms.m)
    bound = von_neumann_bound(forms)
    if epsilon_eve is not None:
        epsilon_eve = checked_cap(forms.e_e, epsilon_eve)
        eve = quad_objective(omega, forms.e_e, forms.m)
        if eve > epsilon_eve:
            return _capped_nonreciprocal(forms, epsilon_eve)
    pair = RisMatrix(omega, ARCH_NONRECIPROCAL), SolveReport(
        objective=objective, bound=bound, iterations=0, cost_trace=[objective],
        constraint_values={"stop_reason": "closed_form"})
    if epsilon_eve is None:
        return pair
    return inactive_answer(pair, bound, epsilon_eve, eve, multiplier=0.0, dual_bound=bound)


def _capped_nonreciprocal(forms: QuadraticForms,
                          epsilon_eve: float) -> tuple[RisMatrix, SolveReport]:
    """Dual search for a cap the uncapped optimum V_E V_M^H violates; the
    forms hold the spectra, so it decomposes only E_b - mu E_e."""
    e_b, e_e, m = forms.e_b, forms.e_e, forms.m
    eig_e, eig_m = forms.eig_e, forms.eig_m
    v_m_h = eig_m.vectors.conj().T
    bound = von_neumann_bound(forms)
    evaluations = 0

    def feasible(omega: np.ndarray) -> bool:
        nonlocal evaluations
        evaluations += 1
        return quad_objective(omega, e_e, m) <= epsilon_eve

    def maximizer(mu: float) -> tuple[np.ndarray, float]:
        """Argmax of the Lagrangian at mu and the dual value g(mu)."""
        eig = hermitian_eig(e_b - mu * e_e)
        return eig.vectors @ v_m_h, float(eig.values @ eig_m.values) + mu * epsilon_eve

    def answer(omega: np.ndarray, converged: bool, **extra):
        objective = quad_objective(omega, e_b, m)
        return RisMatrix(omega, ARCH_NONRECIPROCAL), capped_report(
            objective, bound, evaluations, [objective], epsilon_eve=epsilon_eve,
            eve_value=quad_objective(omega, e_e, m), active=True,
            stop_reason="stationary" if converged else "infeasible", **extra)

    floor_omega = eig_e.vectors[:, ::-1] @ v_m_h
    if epsilon_eve < float(eig_e.values[::-1] @ eig_m.values):
        return answer(floor_omega, False)

    def by_multiplier(mu: float):
        omega, g = maximizer(mu)
        return feasible(omega), (omega, g)

    # Bracket (mu, (Omega, g(mu))) ends: leak > eps at lo, leak <= eps at hi.
    lo = (0.0, (forms.eig_b.vectors @ v_m_h, None))
    mu = float(forms.eig_b.values[0]) / float(eig_e.values[0]) or 1.0
    for _ in range(_MAX_DOUBLINGS):
        met, payload = by_multiplier(mu)
        if met:
            break
        lo = (mu, payload)
        mu *= 2.0
    else:
        return answer(floor_omega, False)
    (_, (omega_lo, _)), (mu, (omega_hi, g)) = _bisect(by_multiplier, lo, (mu, payload))

    # Geodesic Omega(t) = Omega_hi W^t from Omega_hi (t = 0, feasible) to
    # Omega_lo (t = 1), with W = Omega_hi^H Omega_lo = Z diag(e^{i theta}) Z^H.
    # Z is the Q factor of the eigenvectors V = Q R of W: from W V = V Lambda,
    # Q^H W Q = R Lambda R^{-1} is upper triangular with diagonal Lambda, and a
    # triangular matrix unitarily similar to the normal W is diagonal.
    lam, vecs = np.linalg.eig(omega_hi.conj().T @ omega_lo)
    z = np.linalg.qr(vecs)[0]
    theta = np.angle(lam)
    left = omega_hi @ z

    def along(t: float):
        omega = (left * np.exp(1j * t * theta)) @ z.conj().T
        return not feasible(omega), omega

    # The interval in t stops at the float spacing at 1: when Omega_hi
    # already sits on the cap its lower end stays at 0, and the midpoint
    # would halve on towards 0.
    (_, omega), _ = _bisect(along, (0.0, omega_hi), (1.0, None),
                            width=np.finfo(float).eps)
    return answer(omega, True, multiplier=mu, dual_bound=g)


def _bisect(probe, lo, hi, width: float = 0.0):
    """Bisect the bracket between the ends ``lo`` and ``hi``, each an
    (x, payload) pair with lo[0] < hi[0].

    ``probe(x)`` returns (goes_to_hi, payload): the midpoint and its
    payload replace the ``hi`` end when goes_to_hi holds, else the ``lo``
    end.  Stops once the midpoint no longer moves (float resolution), once
    hi[0] - lo[0] <= ``width``, or after _MAX_BISECT steps; returns the
    final (lo, hi) ends.
    """
    for _ in range(_MAX_BISECT):
        mid = 0.5 * (lo[0] + hi[0])
        if hi[0] - lo[0] <= width or not lo[0] < mid < hi[0]:
            break
        goes_to_hi, payload = probe(mid)
        if goes_to_hi:
            hi = (mid, payload)
        else:
            lo = (mid, payload)
    return lo, hi


def _floats(z: np.ndarray) -> np.ndarray:
    """A complex matrix as a real one, each entry's (re, im) side by side."""
    return np.ascontiguousarray(z).view(float)


def _direction(b: np.ndarray, c: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Ascent direction A = Im(G + G^T), G = (B^H X) c^H, in the frame B.

    With X = E Omega h and c = B^T h, G = B^H E Omega M B^* for M = h h^H:
    r-by-r-by-k products instead of r-by-r-by-r ones.  For P = B^H X,
    Im(P c^H) = Im(P) Re(c)^T - Re(P) Im(c)^T, one real product of the
    side-by-side views of P and i c.
    """
    g = _floats((b.T @ x.conj()).conj()) @ _floats(1j * c).T
    return g + g.T


def _two_loop(a: np.ndarray, pairs) -> np.ndarray:
    """Limited-memory BFGS product H A (Nocedal 1980) over the stored pairs.

    ``pairs`` holds (s, y, rho) oldest first, rho = 1 / s^T y with
    s^T y > 0; inner products are Frobenius ones.  H_0 = (s^T y / y^T y) I
    from the newest pair, or 1 / ||A||_F when there is none.
    """
    if not pairs:
        return a / np.linalg.norm(a)
    q = a.copy()
    alphas = []
    for s, y, rho in reversed(pairs):
        alpha = rho * np.vdot(s, q)
        q -= alpha * y
        alphas.append(alpha)
    _, y, rho = pairs[-1]
    q /= rho * np.vdot(y, y)
    for (s, y, rho), alpha in zip(pairs, reversed(alphas)):
        q += (alpha - rho * np.vdot(y, q)) * s
    return q


def _expm1i(p: np.ndarray, tau: float) -> np.ndarray:
    """F(tau) = exp(i tau P) - I for real symmetric P.

    X = tau P / 2^s, with the least s >= 0 that brings the bound
    ||Y||_1^(1/2) >= ||X||_2 within _TAYLOR_THETA[-1], and the least degree
    m whose theta covers it (table above).  The powers I, Y, ..., Y^(m+1)
    of Y = X^2 fill one real stack, m products after Y itself; one product
    of the degree's 2-by-(m+2) coefficient table with that stack gives
    cos X - I and q_s(Y) together, and sin X = X q_s(Y) is one more
    product: m + 2 real r-by-r products in all (Paterson and Stockmeyer,
    SIAM J. Comput., 1973, with every power kept).  The scaling is undone
    by F <- F (2I + F), which keeps the accuracy relative to ||F|| that
    forming exp(i X) first would lose (Al-Mohy and Higham, SIAM J. Matrix
    Anal. Appl., 2009).  Halving tau halves X and the bound exactly, so
    F(tau / 2) evaluated on its own reaches the same scaled X and degree
    with s - 1 squarings: F(tau) is F(tau / 2) (2I + F(tau / 2)) bit for
    bit whenever s >= 1.
    """
    r = len(p)
    x = tau * p
    powers = np.empty((_TAYLOR_MAX + 2, r, r))
    y = np.matmul(x, x, out=powers[1])
    norm = math.sqrt(float(np.abs(y).sum(axis=0).max()))     # >= ||X||_2
    s = max(0, math.ceil(math.log2(norm / _TAYLOR_THETA[-1]))) if norm else 0
    if s:
        np.ldexp(x, -s, out=x)
        np.ldexp(y, -2 * s, out=y)
    m = 1 + bisect.bisect_left(_TAYLOR_THETA, math.ldexp(norm, -s), hi=_TAYLOR_MAX - 1)
    powers = powers[:m + 2]
    powers[0] = np.eye(r)
    for j in range(2, m + 2):
        np.matmul(y, powers[j - 1], out=powers[j])
    cos1, sin_q = (_TAYLOR_TABLES[m - 1] @ powers.reshape(m + 2, r * r)).reshape(2, r, r)
    f = np.empty(p.shape, dtype=complex)
    f.real = cos1
    f.imag = x @ sin_q
    for _ in range(s):
        f = f @ f + 2.0 * f
    return f


def _ascend(u: np.ndarray, e_b: np.ndarray, h: np.ndarray, tol: float,
            max_iters: int, penalty=None):
    """L-BFGS ascent on U for f_b = tr(Omega^H E_b Omega M), Omega = U U^T.

    ``h`` is the r-by-k source matrix, M = h h^H.
    ``penalty`` = (E_e, eps, lam, rho) subtracts the augmented-Lagrangian
    term (rho/2) max(0, f_e - eps + lam/rho)^2 of the leakage f_e.  The
    gradient A = Im(G + G^T), G = U^H X Omega M U^* (X = E_b, or
    E_b - w E_e with w = max(0, lam + rho (f_e - eps))), is taken along
    the moves U e^{i t P / 2}, P real symmetric, which take Omega to
    U e^{i t P} U^T and keep it symmetric unitary; the moves U O, O real
    orthogonal, that leave Omega alone are left out, so ||A||_F vanishes
    at a stationary point.  The direction P = H A is the limited-memory
    BFGS product (:func:`_two_loop`) over the last _MEMORY pairs s = t P,
    y = A_old - A_new, a pair kept only when s^T y > 0, so H stays
    positive definite and <A, P> > 0.  Steps start at t = 1 and are
    halved until the cost rises by at least _ARMIJO t <A, P> (the Armijo
    test), or end the run ``stalled`` below _STEP_FLOOR, so the cost never
    falls.
    The rise is computed from Omega(t) - Omega = U (e^{i t P} - I) U^T,
    not as a difference of costs, which resolves gains far below the
    rounding of the cost itself.

    The state is thin: the frame B (Omega = B B^T; B = U up to a real
    orthogonal factor, which leaves Omega alone), and the r-by-k c = B^T h
    and E Omega h = E B c for each form.  A trial at step t needs only the
    half step H = F(t/2), F(t) = e^{i t P} - I in the frame B
    (:func:`_expm1i`, m + 2 real r-by-r products for the Taylor degree m
    that ||t P / 2|| calls for): F(t) = H (2I + H), so the increment is
    Delta h = B H (2c + H c), and then E Delta h, r-by-r-by-k products.
    Each trial evaluates its own half step, so the line search keeps no
    state from one trial to the next but the step.  An accepted step adds
    E Delta h and sets B <- B + B H and c <- c + H c.  The frame moves by
    the symmetric e^{i t P / 2}, so in the new frame identity coordinates
    still carry a tangent vector along the step, and the stored pairs are
    used as they are, without a transport.  Returns
    B, ||A||_F, the accepted steps, the trace of f_b and the stop reason:
    ``stationary`` (||A||_F <= tol), ``budget`` or ``stalled``.
    """
    e_e, eps, lam, rho = penalty or (None, 0.0, 0.0, 0.0)
    mats = (e_b,) if penalty is None else (e_b, e_e)

    def weighted(prods, vals):
        if penalty is None:
            return prods[0]
        return prods[0] - max(0.0, lam + rho * (vals[1] - eps)) * prods[1]

    def penalty_rise(f_e, d_e):
        """Growth of (rho/2) max(0, f_e - eps + lam/rho)^2 as f_e moves by d_e."""
        lo = lam + rho * (f_e - eps)
        hi = lo + rho * d_e
        rise = rho * d_e if min(lo, hi) >= 0.0 else max(hi, 0.0) - max(lo, 0.0)
        return rise * (max(lo, 0.0) + max(hi, 0.0)) / (2.0 * rho)

    b = np.asarray(u, dtype=complex)
    c = b.T @ h
    oh = b @ c                                       # Omega h
    prods = [e @ oh for e in mats]                   # E Omega h
    vals = [np.vdot(oh, p).real for p in prods]      # f_b (and f_e)
    a = _direction(b, c, weighted(prods, vals))
    grad = float(np.linalg.norm(a))
    pairs = deque(maxlen=_MEMORY)
    trace = [vals[0]]
    iterations = 0
    stop = "stationary"
    while grad > tol:
        if iterations == max_iters:
            stop = "budget"
            break
        p = _two_loop(a, pairs)
        need = _ARMIJO * float(np.vdot(a, p))
        step = 1.0
        while True:
            half = _expm1i(p, 0.5 * step)            # F(step / 2)
            hc = half @ c
            dh = b @ (half @ (2.0 * c + hc))         # B F(step) c
            dprods = [e @ dh for e in mats]
            dvals = [2.0 * np.vdot(dh, x).real + np.vdot(dh, dx).real
                     for x, dx in zip(prods, dprods)]
            gain = dvals[0]
            if penalty is not None:
                gain -= penalty_rise(vals[1], dvals[1])
            passed = gain >= step * need
            if passed or step < _STEP_FLOOR:
                break
            step *= 0.5
        if not passed:
            stop = "stalled"
            break
        iterations += 1
        b, c = b + b @ half, c + hc
        prods = [x + dx for x, dx in zip(prods, dprods)]
        vals = [f + df for f, df in zip(vals, dvals)]
        a_new = _direction(b, c, weighted(prods, vals))
        s, y = step * p, a - a_new
        sy = float(np.vdot(s, y))
        if sy > 0.0:
            pairs.append((s, y, 1.0 / sy))
        a = a_new
        grad = float(np.linalg.norm(a))
        trace.append(vals[0])
    return b, grad, iterations, trace, stop


def _unit_scaled(forms: QuadraticForms):
    """The reciprocal class's unit scaling: s_b = lam_max(E_b) and
    s_m = lam_max(M) (1 where zero), with E_b / s_b and h / sqrt(s_m)."""
    s_b = float(forms.eig_b.values[0]) or 1.0
    s_m = float(forms.eig_m.values[0]) or 1.0
    return s_b, s_m, forms.e_b / s_b, forms.h / np.sqrt(s_m)


def solve_reciprocal_ao(forms: QuadraticForms) -> tuple[RisMatrix, SolveReport]:
    """Symmetric-unitary design Omega = U U^T by limited-memory BFGS ascent.

    Starts from U0, the Takagi factor of V_E V_M^H + V_M^* V_E^T, and runs
    :func:`_ascend`, whose line search never lowers the cost, on the forms
    scaled to unit spectral norm until ||A||_F <= _AO_GRAD_TOL;
    _AO_MAX_ITERS steps (or a stalled line search) end the run unconverged.
    The report carries ``grad_norm`` and ``stop_reason``.
    """
    aligned = forms.eig_b.vectors @ forms.eig_m.vectors.conj().T
    u = takagi(aligned + aligned.T).u
    s_b, s_m, e_b, h = _unit_scaled(forms)

    b, grad, iterations, trace, stop = _ascend(u, e_b, h, _AO_GRAD_TOL, _AO_MAX_ITERS)
    omega = b @ b.T
    omega = 0.5 * (omega + omega.T)
    objective = quad_objective(omega, forms.e_b, forms.m)
    report = SolveReport(
        objective=objective,
        bound=von_neumann_bound(forms),
        iterations=iterations,
        cost_trace=[s_b * s_m * f for f in trace],
        constraint_values={"grad_norm": grad, "stop_reason": stop},
    )
    return RisMatrix(omega, ARCH_RECIPROCAL), report


def solve_pdd(forms: QuadraticForms, epsilon_eve: float,
              warm: tuple[RisMatrix, SolveReport] | None = None,
              relaxed: tuple[RisMatrix, SolveReport] | None = None,
              ) -> tuple[RisMatrix, SolveReport]:
    """Best symmetric-unitary response under a leakage cap at the unintended receiver.

    Solves max tr(Omega^H E_b Omega M) s.t. tr(Omega^H E_e Omega M) <= eps
    over symmetric unitaries.  The uncapped reciprocal optimum (``warm``, or
    a fresh :func:`solve_reciprocal_ao`) is returned when it meets the cap
    (:func:`~bdris.reporting.inactive_answer`, ``outer_rounds`` 0).
    Otherwise the exact capped non-reciprocal optimum X comes first:
    ``relaxed``, or that dual search (:func:`solve_nonreciprocal`).  Below
    its leakage floor the cell ends at once as ``infeasible``, with the
    nearest symmetric unitary U U^T to X.  The Takagi factor U of X + X^T is
    also the start of an augmented Lagrangian on the manifold (Liu & Boumal,
    Appl. Math. Optim. 2020): each round runs :func:`_ascend` on the
    augmented cost of the forms scaled as in :func:`_unit_scaled` (E_e and M
    by their top eigenvalues, the cap by their product) to the round's
    tolerance, and ends in the rule of :class:`~bdris.reporting.CapPenalty`,
    for which a round is finished when the ascent ends ``stationary``.  The
    cell converges (``stationary``) by that rule and ends ``budget`` after
    _MAX_ROUNDS rounds.  The response is symmetrized once at the end.  The
    report, a :func:`~bdris.reporting.capped_report`, adds the
    non-reciprocal ``dual_bound`` (it bounds every symmetric response too),
    ``outer_rounds`` and ``grad_norm``; ``iterations`` counts ascent steps
    and ``cost_trace`` holds the objective after each round.  The name is
    kept from the penalty dual decomposition solver this replaced.

    ``relaxed`` is the pair :func:`solve_nonreciprocal` returned for the
    same forms and cap, when the caller already holds it.  It is data, not
    an option, so the answer is the same bit for bit with or without it.
    Like ``warm`` it is checked (:func:`~bdris.reporting.checked_pair`): a
    response of another architecture, or a report for another cap, raises
    ``ValueError``.
    """
    epsilon_eve = checked_cap(forms.e_e, epsilon_eve)
    if relaxed is not None:
        checked_pair(relaxed, ARCH_NONRECIPROCAL, "relaxed answer", epsilon_eve)
    pair = uncapped_pair(warm, ARCH_RECIPROCAL, lambda: solve_reciprocal_ao(forms))
    eve0 = quad_objective(pair[0].matrix, forms.e_e, forms.m)
    if eve0 <= epsilon_eve:
        return inactive_answer(pair, von_neumann_bound(forms), epsilon_eve, eve0,
                               outer_rounds=0)
    if relaxed is None:
        relaxed = solve_nonreciprocal(forms, epsilon_eve)
    ris_n, rep_n = relaxed
    # U U^T is the nearest symmetric unitary to X: one factorization gives
    # both the ascent's start U and the infeasible cell's response.
    u = takagi(ris_n.matrix + ris_n.matrix.T).u
    omega = u @ u.T
    iterations, cost_trace, stop = 0, [], "infeasible"
    extra = {"outer_rounds": 0}
    if rep_n.converged:
        extra["dual_bound"] = rep_n.constraint_values["dual_bound"]
        # Unit scale, as in the uncapped ascent: the argmax is unchanged, and
        # the first penalty and the tolerances become scale-free.  M is scaled
        # as it is, not rebuilt from the scaled h.
        _, s_m, e_b, h = _unit_scaled(forms)
        s_e = float(forms.eig_e.values[0]) or 1.0
        e_e, m, eps = forms.e_e / s_e, forms.m / s_m, epsilon_eve / (s_e * s_m)
        pen = CapPenalty(1, eps, 1.0, _INNER_TOL0, _INNER_TOL_MIN, _INNER_SHRINK,
                         _MAX_ROUNDS, _RESIDUAL_TOL)
        while pen.live[0]:
            u, grad, steps, _, inner = _ascend(
                u, e_b, h, float(pen.tol[0]), _MAX_INNER,
                penalty=(e_e, eps, float(pen.lam[0]), float(pen.rho[0])))
            iterations += steps
            omega = u @ u.T
            cost_trace.append(quad_objective(omega, forms.e_b, forms.m))
            pen.end_round(True, quad_objective(omega, e_e, m), inner == "stationary")
        extra.update(outer_rounds=int(pen.rounds[0]), grad_norm=grad)
        stop = "stationary" if pen.converged[0] else "budget"

    omega = 0.5 * (omega + omega.T)
    objective = quad_objective(omega, forms.e_b, forms.m)
    return RisMatrix(omega, ARCH_RECIPROCAL), capped_report(
        objective, von_neumann_bound(forms), iterations, cost_trace or [objective],
        epsilon_eve=epsilon_eve, eve_value=quad_objective(omega, forms.e_e, forms.m),
        active=True, stop_reason=stop, **extra)
