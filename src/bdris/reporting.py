"""Solver diagnostics shared by every optimizer in the package."""

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
    ``converged`` is derived from the stop reason.
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
