"""In-memory spans around bdris's public functions, for the traced run.

``Tracer.install`` rebinds each function listed in ``TRACED`` at every
``bdris`` module global that holds it, so calls between modules go through
a wrapper.  The wrapper records, per function, the number of calls, the
inclusive time and the self time: the inclusive time minus the time of the
spans nested inside it.  Counters that only a solver's result knows
(iterations, restarts, trials) are read from the returned reports.  Nothing
is written while the spans run; ``layer_table`` summarises them at the end.

Private helpers are not wrapped: their time counts as self time of the
public function that called them.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

TRACED = {
    "kernels": ("hermitian_eig", "takagi", "expm_skew", "unitary_procrustes",
                "nearest_symmetric_unitary"),
    "model": ("generate_channels", "build_forms", "fim_matrix", "crb_trace",
              "quad_objective", "simulate_mle_mse"),
    "spectral": ("solve_nonreciprocal", "solve_reciprocal_ao"),
    "pdd": ("solve_pdd", "update_omega", "update_psi"),
    "diagonal": ("diag_forms", "solve_diagonal_unconstrained",
                 "solve_diagonal_constrained"),
    "experiments": ("run_experiment",),
    "cli": ("main",),
}


def _count_pdd(counters, kwargs, result):
    report = result[1]
    cv = report.constraint_values
    counters["pdd.inner_iters"] += report.iterations
    counters["pdd.outer_rounds"] += cv.get("outer_rounds", 0)
    counters["pdd.restarts"] += cv.get("restarts", 0)
    counters["pdd.unconverged"] += not report.converged


def _count_ao(counters, kwargs, result):
    report = result[1]
    counters["spectral.ao_iters"] += report.iterations
    counters["spectral.ao_accepted"] += len(report.cost_trace) - 1


def _count_pg(counters, kwargs, result):
    report = result[1]
    if report.constraint_values.get("constraint_active"):
        counters["diagonal.pg_steps"] += report.iterations


def _count_ca(counters, kwargs, result):
    counters["diagonal.ca_passes"] += result[1].iterations


def _count_mc(counters, kwargs, result):
    counters["model.mc_trials"] += kwargs.get("trials", 10_000)


COUNTERS = ("pdd.inner_iters", "pdd.outer_rounds", "pdd.restarts",
            "pdd.unconverged", "spectral.ao_iters", "spectral.ao_accepted",
            "diagonal.pg_steps", "diagonal.ca_passes", "model.mc_trials")

_RESULT_COUNTERS = {
    "pdd.solve_pdd": _count_pdd,
    "spectral.solve_reciprocal_ao": _count_ao,
    "diagonal.solve_diagonal_constrained": _count_pg,
    "diagonal.solve_diagonal_unconstrained": _count_ca,
    "model.simulate_mle_mse": _count_mc,
}


class Tracer:
    """Call counts, inclusive and self times per traced function."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.counters = dict.fromkeys(COUNTERS, 0)
        self._child_s: list[float] = []   # one entry per open span

    def _wrap(self, name: str, fn):
        count = _RESULT_COUNTERS.get(name)
        stack = self._child_s

        def span(*args, **kwargs):
            start = time.perf_counter()
            stack.append(0.0)
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                nested = stack.pop()
                if stack:
                    stack[-1] += elapsed
                self.calls[name] += 1
                self.total_s[name] += elapsed
                self.self_s[name] += elapsed - nested
            if count is not None:
                count(self.counters, kwargs, result)
            return result

        return span

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items()
                   if n == "bdris" or n.startswith("bdris.")]
        for layer, names in TRACED.items():
            owner = sys.modules[f"bdris.{layer}"]
            for fname in names:
                original = getattr(owner, fname)
                wrapper = self._wrap(f"{layer}.{fname}", original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)

    def layer_table(self) -> dict[str, float]:
        """Every per-layer figure by name: per function, per layer, counters."""
        table: dict[str, float] = {}
        for layer, names in TRACED.items():
            layer_self = 0.0
            for fname in names:
                key = f"{layer}.{fname}"
                table[f"{key}.calls"] = self.calls[key]
                table[f"{key}.s"] = self.total_s[key]
                table[f"{key}.self_s"] = self.self_s[key]
                layer_self += self.self_s[key]
            table[f"{layer}.self_s"] = layer_self
        table.update(self.counters)
        iters = table["spectral.ao_iters"]
        table["spectral.ao_accept_ratio"] = (
            table["spectral.ao_accepted"] / iters if iters else float("nan"))
        mc_s = table["model.simulate_mle_mse.s"]
        table["model.mc_trials_per_s"] = (
            table["model.mc_trials"] / mc_s if mc_s else float("nan"))
        return table
