"""Solver diagnostics shared by every optimizer in the package."""

from __future__ import annotations

import json
from dataclasses import dataclass, field


@dataclass
class SolveReport:
    """What a solver did and how well.

    ``objective`` is the achieved value of tr(Omega^H E_b Omega M),
    ``bound`` the Von Neumann upper bound for the instance, ``cost_trace``
    the accepted objective values in order (per round, for round-based
    solvers) and ``constraint_values`` named diagnostics: leakage, cap,
    bounds, step counts and, for the reciprocal solvers, ``stop_reason``.
    """

    objective: float
    bound: float
    iterations: int
    cost_trace: list = field(default_factory=list)
    converged: bool = True
    constraint_values: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "objective": self.objective,
            "bound": self.bound,
            "iterations": self.iterations,
            "cost_trace": list(self.cost_trace),
            "converged": self.converged,
            "constraint_values": dict(self.constraint_values),
        }

    def to_json(self, **kwargs) -> str:
        return json.dumps(self.to_dict(), **kwargs)
