"""Solver diagnostics shared by every optimizer in the package, and the
contract of every leakage-capped solve: refuse a bad cap, start from the
uncapped answer, return it when it meets the cap, report cap and leakage.
"""

from __future__ import annotations

from dataclasses import dataclass, field


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
    None or the cap is not > 0 (NaN fails that comparison too).
    """
    if leak_form is None:
        raise ValueError("a leakage cap needs eavesdropper forms (e_e / c_e is None)")
    if not epsilon_eve > 0:
        raise ValueError("epsilon_eve must be positive")
    return float(epsilon_eve)


def uncapped_pair(warm, architecture: str, solve):
    """The uncapped (RisMatrix, SolveReport) a capped solve starts from:
    ``warm`` once its architecture is checked, or ``solve()`` when it is
    None."""
    if warm is None:
        return solve()
    if warm[0].architecture != architecture:
        raise ValueError(f"warm start architecture {warm[0].architecture!r} "
                         f"does not match {architecture!r}")
    return warm


def capped_report(objective: float, bound: float, iterations: int,
                  cost_trace: list, *, epsilon_eve: float, eve_value: float,
                  active: bool, stop_reason: str, **extra) -> SolveReport:
    """A capped solver's report; ``extra`` holds the solver's own keys.

    ``cap_residual`` = eve_value / epsilon_eve - 1 is the relative leakage
    margin: at most 0 when the cap holds.  An inactive cap (``active``
    False) passes on the uncapped report's ``stop_reason``.
    """
    cv = {"epsilon_eve": epsilon_eve, "eve_value": eve_value,
          "cap_residual": eve_value / epsilon_eve - 1.0,
          "constraint_active": active, "stop_reason": stop_reason, **extra}
    return SolveReport(objective, bound, iterations, cost_trace, cv)
