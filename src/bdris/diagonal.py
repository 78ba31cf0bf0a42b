"""Diagonal-RIS baseline: local-search heuristics on the Hadamard-product form.

For a diagonal response Omega = diag(omega) the trace objective collapses to

    tr(Omega^H E Omega M) = omega^H (E o M^T) omega,

with o the elementwise product, so both the intended-receiver objective and
the leakage constraint become r-dimensional quadratic forms.  The
unconstrained unit-modulus problem is attacked by coordinate ascent over
phases; the leakage-capped problem relaxes the magnitudes to |omega_i| <= 1
and runs projected gradient ascent with an adaptive penalty on the cap.
Both are multi-start heuristics, not certified global optimizers: they give
a lower estimate of the diagonal baseline, which is all the architecture
comparisons need.  Their knobs (restart count and seed, step and penalty
schedules, tolerances, iteration budgets) are the module constants below;
every caller uses the same values.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, replace

import numpy as np

from .errors import ContractViolationError
from .model import ARCH_DIAGONAL, QuadraticForms, RisMatrix
from .reporting import SolveReport

__all__ = [
    "DiagForms",
    "diag_forms",
    "solve_diagonal_unconstrained",
    "solve_diagonal_constrained",
]

_HADAMARD_TOL = 1e-10
_STEP_FLOOR = 1e-12

# Multi-start: start 0 is the given vector, starts 1.._RESTARTS-1 draw
# uniform phases from default_rng(_SEED).
_RESTARTS = 20
_SEED = 0

# Coordinate ascent stops when a pass gains at most _CA_REL_TOL (relative).
_MAX_PASSES = 500
_CA_REL_TOL = 1e-12

# Projected gradient on unit-scaled forms: the step starts at _STEP0, grows
# by _STEP_UP on an accepted move and shrinks by _STEP_DOWN on a rejected
# one; a round ends at relative gain _STAT_TOL or after _MAX_ITERS steps.
# The penalty starts at _PENALTY0 and grows by _PENALTY_GROWTH, for at most
# _MAX_PENALTY_ROUNDS rounds, until the cap holds to relative slack _FEAS_TOL.
_STEP0 = 0.1
_STEP_UP = 1.2
_STEP_DOWN = 0.5
_STAT_TOL = 1e-9
_MAX_ITERS = 2000
_PENALTY0 = 1.0
_PENALTY_GROWTH = 10.0
_MAX_PENALTY_ROUNDS = 8
_FEAS_TOL = 1e-6


@dataclass
class DiagForms:
    """Hadamard-reduced quadratic forms c_b = E_b o M^T and c_e = E_e o M^T."""

    c_b: np.ndarray
    c_e: np.ndarray | None = None

    def __post_init__(self):
        self.c_b = np.asarray(self.c_b, dtype=complex)
        _check_psd(self.c_b, "c_b")
        if self.c_e is not None:
            self.c_e = np.asarray(self.c_e, dtype=complex)
            if self.c_e.shape != self.c_b.shape:
                raise ContractViolationError("c_e shape differs from c_b")
            _check_psd(self.c_e, "c_e")

    @property
    def r(self) -> int:
        return self.c_b.shape[0]


def _check_psd(c: np.ndarray, name: str) -> None:
    if c.ndim != 2 or c.shape[0] != c.shape[1]:
        raise ContractViolationError(f"{name} must be square")
    scale = max(1.0, float(np.abs(c).max()))
    if np.abs(c - c.conj().T).max() > _HADAMARD_TOL * scale:
        raise ContractViolationError(f"{name} not Hermitian within {_HADAMARD_TOL}")
    w = np.linalg.eigvalsh(0.5 * (c + c.conj().T))
    if w.size and w.min() < -_HADAMARD_TOL * max(1.0, float(w.max())):
        raise ContractViolationError(f"{name} not PSD (min eigenvalue {w.min():.3e})")


def diag_forms(forms: QuadraticForms) -> DiagForms:
    """Reduce full quadratic forms to their diagonal-response counterparts."""
    c_b = forms.e_b * forms.m.T
    c_e = forms.e_e * forms.m.T if forms.e_e is not None else None
    return DiagForms(c_b=c_b, c_e=c_e)


def _quad(c: np.ndarray, omega: np.ndarray) -> float:
    return float(np.real(np.vdot(omega, c @ omega)))


def _starts(first: np.ndarray) -> Iterator[np.ndarray]:
    """The multi-start sequence: ``first``, then random-phase vectors."""
    yield first
    rng = np.random.default_rng(_SEED)
    for _ in range(_RESTARTS - 1):
        yield np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, size=first.size))


def _coordinate_ascent(c: np.ndarray, omega: np.ndarray):
    """Unit-modulus Gauss-Seidel: omega_i <- c_i/|c_i|, c_i = sum_{j!=i} C_ij omega_j.

    Each update maximizes the objective over omega_i alone, so the trace is
    non-decreasing.  A zero c_i leaves omega_i unchanged (any phase is
    equally good there).
    """
    n = omega.size
    trace = [_quad(c, omega)]
    converged = False
    passes = 0
    for passes in range(1, _MAX_PASSES + 1):
        for i in range(n):
            ci = c[i] @ omega - c[i, i] * omega[i]
            mag = abs(ci)
            if mag > 0.0:
                omega[i] = ci / mag
        trace.append(_quad(c, omega))
        if trace[-1] - trace[-2] <= _CA_REL_TOL * max(1.0, abs(trace[-1])):
            converged = True
            break
    return omega, trace, passes, converged


def solve_diagonal_unconstrained(dforms: DiagForms) -> tuple[RisMatrix, SolveReport]:
    """Best unit-modulus diagonal response by multi-start coordinate ascent.

    Restart 0 starts from the all-ones phase vector; the rest draw phases
    uniformly on [0, 2pi).  The reported bound is lam_max(c_b) * r, the
    Rayleigh bound over the relaxed ball.
    """
    c = dforms.c_b
    n = dforms.r
    best = None
    for omega0 in _starts(np.ones(n, dtype=complex)):
        omega, trace, passes, conv = _coordinate_ascent(c, omega0)
        if best is None or trace[-1] > best[1][-1]:
            best = (omega, trace, passes, conv)
    omega, trace, passes, conv = best
    bound = float(np.linalg.eigvalsh(c).max() * n)
    report = SolveReport(
        objective=trace[-1],
        bound=bound,
        iterations=passes,
        cost_trace=[float(v) for v in trace],
        converged=conv,
    )
    return RisMatrix(np.diag(omega), ARCH_DIAGONAL), report


def _box(omega: np.ndarray) -> np.ndarray:
    mags = np.abs(omega)
    scale = np.where(mags > 1.0, mags, 1.0)
    return omega / scale


def _penalized(c_b: np.ndarray, c_e: np.ndarray, eps: float, tau: float,
               omega: np.ndarray) -> float:
    gap = max(0.0, _quad(c_e, omega) - eps)
    return _quad(c_b, omega) - tau * gap * gap


def _projected_ascent(c_b: np.ndarray, c_e: np.ndarray, eps: float, tau: float,
                      omega: np.ndarray):
    """Adaptive-step projected gradient ascent on the penalized objective."""
    step = _STEP0
    value = _penalized(c_b, c_e, eps, tau, omega)
    iters = 0
    for iters in range(1, _MAX_ITERS + 1):
        gap = max(0.0, _quad(c_e, omega) - eps)
        grad = c_b @ omega - (2.0 * tau * gap) * (c_e @ omega)
        cand = _box(omega + step * grad)
        cand_value = _penalized(c_b, c_e, eps, tau, cand)
        if cand_value > value:
            improved = cand_value - value
            omega, value = cand, cand_value
            step *= _STEP_UP
            if improved <= _STAT_TOL * max(1.0, abs(value)):
                return omega, value, iters, True
        else:
            step *= _STEP_DOWN
            if step < _STEP_FLOOR:
                return omega, value, iters, True
    return omega, value, iters, False


def solve_diagonal_constrained(dforms: DiagForms, epsilon_eve: float,
                               warm: tuple[RisMatrix, SolveReport] | None = None,
                               ) -> tuple[RisMatrix, SolveReport]:
    """Leakage-capped diagonal response over the magnitude-relaxed set.

    Maximizes omega^H c_b omega subject to omega^H c_e omega <= eps and
    |omega_i| <= 1.  The unconstrained coordinate-ascent optimum is the
    first start; the (RisMatrix, SolveReport) pair that
    ``solve_diagonal_unconstrained`` returned for the same forms may be
    passed as `warm` to skip that solve, e.g. across a grid of caps.  If it
    already meets the cap it is returned directly.  Otherwise each restart runs
    penalty rounds of box-projected gradient ascent, growing the penalty
    until the cap holds; the final iterate is rescaled onto the cap if a
    residual violation remains.  The box projection and that downward
    rescale keep |omega_i| <= 1 throughout.
    """
    if dforms.c_e is None:
        raise ValueError("constrained solve needs c_e")
    if epsilon_eve <= 0:
        raise ValueError("epsilon_eve must be positive")
    if warm is not None:
        ris0, rep0 = warm
        if ris0.architecture != ARCH_DIAGONAL:
            raise ValueError(f"warm start architecture {ris0.architecture!r} "
                             f"does not match {ARCH_DIAGONAL!r}")
    else:
        ris0, rep0 = solve_diagonal_unconstrained(dforms)
    omega0 = np.diag(ris0.matrix).copy()
    eve0 = _quad(dforms.c_e, omega0)
    if eve0 <= epsilon_eve:
        # A new report: the one passed as `warm` belongs to the caller.
        return ris0, replace(
            rep0, cost_trace=list(rep0.cost_trace),
            constraint_values={
                "epsilon_eve": float(epsilon_eve),
                "eve_value": eve0,
                "constraint_active": False,
            })

    # Unit-scale the forms so the step/penalty constants are magnitude-free.
    s_b = float(np.linalg.eigvalsh(dforms.c_b).max()) or 1.0
    s_e = float(np.linalg.eigvalsh(dforms.c_e).max()) or 1.0
    cb, ce, eps = dforms.c_b / s_b, dforms.c_e / s_e, epsilon_eve / s_e

    n = dforms.r
    best_omega = None
    best_value = -np.inf
    best_stalled = False
    total_iters = 0
    for omega in _starts(omega0):
        # Scale into the cap so every restart begins feasible.
        g = _quad(ce, omega)
        if g > eps:
            omega = omega * np.sqrt(eps / g)
        tau = _PENALTY0
        stalled = False
        for _ in range(_MAX_PENALTY_ROUNDS):
            omega, _val, iters, finished = _projected_ascent(
                cb, ce, eps, tau, omega)
            total_iters += iters
            stalled = not finished
            if _quad(ce, omega) <= eps * (1.0 + _FEAS_TOL):
                break
            tau *= _PENALTY_GROWTH
        g = _quad(ce, omega)
        if g > eps:
            omega = omega * np.sqrt(eps / g)
        value = _quad(cb, omega)
        if value > best_value:
            best_value = value
            best_omega = omega
            best_stalled = stalled
    omega = best_omega
    report = SolveReport(
        objective=_quad(dforms.c_b, omega),
        bound=float(np.linalg.eigvalsh(dforms.c_b).max() * n),
        iterations=total_iters,
        converged=not best_stalled,
        constraint_values={
            "epsilon_eve": float(epsilon_eve),
            "eve_value": _quad(dforms.c_e, omega),
            "constraint_active": True,
        },
    )
    return RisMatrix(np.diag(omega), ARCH_DIAGONAL), report
