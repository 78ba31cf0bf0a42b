"""Solver diagnostics shared by every optimizer in the package, and the
contract of every leakage-capped solve: refuse a bad cap
(:func:`checked_cap`, by the package's one cap rule), start from the
uncapped answer (the class's uncapped solve, or a ``warm`` answer the
caller hands in, which passes :func:`checked_pair`), return it when it
meets the cap (:func:`inactive_answer`), run the one augmented-Lagrangian
rule on the cap (:class:`CapPenalty`), report cap and leakage
(:func:`capped_report`).

A public capped solver is that contract plus its class's algorithm for an
active cap, kept beside the class's uncapped solve:
``spectral._capped_nonreciprocal`` (the exact dual search),
``spectral.solve_pdd`` (the capped reciprocal cell: penalty rounds of the
symmetric ascent) and ``diagonal._projected_ascent`` (penalty rounds of
box-projected gradient over restarts).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .model import _check_positive

# The augmented Lagrangian of every capped local solve (Birgin & Martinez,
# Practical Augmented Lagrangian Methods for Constrained Optimization, SIAM
# 2014): the penalty starts at _RHO0 / scale and grows by _RHO_GROWTH after
# a finished round that cut the cap residual by less than _RESIDUAL_FALL.
_RHO0 = 10.0
_RHO_GROWTH = 5.0
_RESIDUAL_FALL = 4.0


@dataclass
class SolveReport:
    """What a solver did and how well.

    ``objective`` is the achieved value of tr(Omega^H E_b Omega M) and
    ``bound`` an upper bound on it over the solver's feasible set: the
    uncapped Von Neumann trace bound for the unitary classes (capped ones
    add a tighter ``dual_bound`` where it exists), lam_max(c_b) r for the
    uncapped diagonal class and, under a cap, the smaller of that and
    eps lam_max(c_e^{-1/2} c_b c_e^{-1/2}).  ``cost_trace`` holds the
    accepted objective values in order (per round, for round-based
    solvers) and ``constraint_values`` named diagnostics: leakage, cap,
    bounds, step counts and, on every solver's report, ``stop_reason``.
    A capped solver's report also carries ``epsilon_eve``, ``eve_value``,
    ``cap_residual`` = eve_value / epsilon_eve - 1 and
    ``constraint_active``.  ``converged`` is derived from the stop reason.
    """

    objective: float
    bound: float
    iterations: int
    cost_trace: list = field(default_factory=list)
    constraint_values: dict = field(default_factory=dict)

    @property
    def converged(self) -> bool:
        """Whether the solver reached its answer: stop reason ``closed_form``
        or ``stationary`` (not ``budget``, ``stalled``, ``infeasible`` or
        missing)."""
        reason = self.constraint_values.get("stop_reason")
        return reason in ("closed_form", "stationary")

    def to_dict(self) -> dict:
        return {
            "objective": self.objective,
            "bound": self.bound,
            "iterations": self.iterations,
            "cost_trace": list(self.cost_trace),
            "converged": self.converged,
            "constraint_values": dict(self.constraint_values),
        }


def checked_cap(leak_form, epsilon_eve) -> float:
    """The cap as a float, after refusing a solve that cannot honour it.

    Raises ``ValueError`` when the leakage form (``e_e`` or ``c_e``) is
    None or the cap fails the package's cap rule
    (:func:`~bdris.model._check_positive`: a real number, positive and
    finite).
    """
    if leak_form is None:
        raise ValueError("a leakage cap needs eavesdropper forms (e_e / c_e is None)")
    return _check_positive("epsilon_eve", epsilon_eve)


def checked_pair(pair, architecture: str, role: str, epsilon_eve: float | None = None):
    """``pair``, a (RisMatrix, SolveReport) a caller hands a solver as its
    ``role``, after refusing it with ``ValueError`` unless its response is
    of ``architecture`` and, when ``epsilon_eve`` is given, its report
    answers that cap."""
    if pair[0].architecture != architecture:
        raise ValueError(f"{role} architecture {pair[0].architecture!r} "
                         f"does not match {architecture!r}")
    if epsilon_eve is not None:
        cap = pair[1].constraint_values.get("epsilon_eve")
        if cap != epsilon_eve:
            raise ValueError(f"{role} is for the cap {cap!r}, not {epsilon_eve!r}")
    return pair


def capped_report(objective: float, bound: float, iterations: int,
                  cost_trace: list, *, epsilon_eve: float, eve_value: float,
                  active: bool, stop_reason: str, **extra) -> SolveReport:
    """A capped solver's report; ``extra`` holds the solver's own keys.

    ``cap_residual`` = eve_value / epsilon_eve - 1 is the relative leakage
    margin: at most 0 when the cap holds.
    """
    cv = {"epsilon_eve": epsilon_eve, "eve_value": eve_value,
          "cap_residual": eve_value / epsilon_eve - 1.0,
          "constraint_active": active, "stop_reason": stop_reason, **extra}
    return SolveReport(objective, bound, iterations, cost_trace, cv)


def inactive_answer(pair, bound: float, epsilon_eve: float, eve_value: float,
                    **extra):
    """The uncapped (RisMatrix, SolveReport) ``pair`` as the answer to a cap
    its leakage ``eve_value`` meets: its response, 0 steps, its objective as
    the whole trace and its ``stop_reason``, with ``constraint_active``
    False and the class's ``extra`` keys."""
    ris, rep = pair
    return ris, capped_report(
        rep.objective, bound, 0, [rep.objective], epsilon_eve=epsilon_eve,
        eve_value=eve_value, active=False,
        stop_reason=rep.constraint_values["stop_reason"], **extra)


class CapPenalty:
    """The outer loop of an augmented Lagrangian on the cap f_e <= eps, for
    S members (restarts or starts) at once.

    The solver runs the rounds: a round maximizes
    f_b - (rho/2) max(0, f_e - eps + lam/rho)^2 to the member's tolerance
    ``tol``, and :meth:`end_round` applies the rule to the members whose
    round ended.  Each member keeps its own multiplier ``lam`` (from 0),
    penalty ``rho`` (from _RHO0 / scale), tolerance (from ``tol0``,
    shrinking by ``shrink`` a round to ``tol_min``), ``residual``,
    ``rounds`` and ``live`` and ``converged`` flags.  The schedule is the
    solver's.  rho starts at a quotient by ``scale``, not at a product with
    its reciprocal, which rounds differently.
    """

    def __init__(self, members: int, eps: float, scale: float, tol0: float,
                 tol_min: float, shrink: float, max_rounds: int, residual_tol: float):
        self.eps, self.tol_min, self.shrink = eps, tol_min, shrink
        self.max_rounds, self.residual_tol = max_rounds, residual_tol
        self.lam = np.zeros(members)
        self.rho = np.full(members, _RHO0 / scale)
        self.tol = np.full(members, tol0)
        self.residual = np.full(members, np.inf)
        self.rounds = np.zeros(members, dtype=int)
        self.live = np.ones(members, dtype=bool)
        self.converged = np.zeros(members, dtype=bool)

    def end_round(self, ended, leak, finished) -> np.ndarray:
        """Apply the rule to the live members whose round ``ended``, at
        leakage ``leak``; ``finished`` marks the rounds that met their
        tolerance (not a budget).  Returns the mask of members that go on to
        another round; a stopped member is left as it is.

        The residual |max(f_e - eps, -lam/rho)| / eps is taken with the
        round's lam, then lam <- max(0, lam + rho (f_e - eps)).  A member
        stops converged after a finished round at ``tol_min`` whose residual
        is at most ``residual_tol``, and unconverged after ``max_rounds``
        rounds.  Otherwise rho grows by _RHO_GROWTH after a finished round
        that left more than both ``residual_tol`` and 1/_RESIDUAL_FALL of the
        previous residual, and the tolerance shrinks.
        """
        ended = ended & self.live
        last = self.residual
        over = leak - self.eps
        self.rounds = self.rounds + ended
        self.residual = np.where(
            ended, np.abs(np.maximum(over, -self.lam / self.rho)) / self.eps, last)
        self.lam = np.where(ended, np.maximum(self.lam + self.rho * over, 0.0), self.lam)
        done = (ended & finished & (self.residual <= self.residual_tol)
                & (self.tol <= self.tol_min))
        self.converged |= done
        self.live &= ~(done | (ended & (self.rounds >= self.max_rounds)))
        again = ended & self.live
        grow = again & finished & (self.residual > np.maximum(self.residual_tol,
                                                              last / _RESIDUAL_FALL))
        self.rho = np.where(grow, self.rho * _RHO_GROWTH, self.rho)
        self.tol = np.where(again, np.maximum(self.tol_min, self.tol * self.shrink), self.tol)
        return again
