"""Shared helpers for the test suite (no fixtures, plain functions)."""
import ctypes
import glob
import json
import os
import warnings
from time import perf_counter

import numpy as np

from bdris.experiments import (
    SCENARIO_NO_EVE,
    ExperimentSpec,
    default_epsilon_grid,
    run_experiment,
)
from bdris.model import QuadraticForms, SystemConfig, build_forms, generate_channels
from bdris.spectral import solve_nonreciprocal

# The r = 36 reference setup: 36 elements and 10 streams, twice as many
# receive antennas as streams, the default power budget and noise floor.
SETUP_36 = dict(k=10, r=36, n_b=20, n_e=20, seed=7)
# The r = 64 reference setup: 64 elements and 15 streams, likewise, and its
# channel draws 7-11 (seeds), solved uncapped with 10 000 Monte-Carlo trials.
SETUP_64 = dict(k=15, r=64, n_b=30, n_e=30, seed=7)
DRAWS_64 = range(7, 12)
MC_TRIALS_64 = 10_000

# The columns of a reference cell kept in ``tests/golden``: those of a
# reference-sweep cell, and of an r = 64 draw also its leakage and
# Monte-Carlo error.
GOLDEN_COLUMNS = ("architecture", "objective", "bound", "dual_bound", "eve_value",
                  "stop_reason", "converged", "iterations", "crb")
GOLDEN_COLUMNS_64 = GOLDEN_COLUMNS + ("fim_eve", "mse_mc")


def rand_complex(rng, n, m=None):
    m = n if m is None else m
    return rng.normal(size=(n, m)) + 1j * rng.normal(size=(n, m))


def haar_unitary(rng, n):
    q, r = np.linalg.qr(rand_complex(rng, n))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def batch_haar(rng, count, n):
    """Stack of Haar-ish random unitaries via batched QR with phase fix."""
    z = rng.normal(size=(count, n, n)) + 1j * rng.normal(size=(count, n, n))
    q, r = np.linalg.qr(z)
    d = np.einsum('bii->bi', r)
    return q * (d / np.abs(d))[:, None, :]


def batch_trace_objective(u, e, m):
    """tr(U^H E U M) for every U in the stack, via two flat GEMMs.

    Tiny batched matmuls are slow, so the stack is multiplied as one tall
    matrix: its rows times M give every U_b M, and the transposed blocks
    times E^T give every (E U_b M)^T.
    """
    count, n, _ = u.shape
    um = (u.reshape(count * n, n) @ m).reshape(count, n, n)
    eum_t = (um.transpose(0, 2, 1).reshape(count * n, n) @ e.T).reshape(count, n, n)
    return np.einsum("bji,bij->b", u.conj(), eum_t).real


def capped_cases():
    """(name, forms) for the capped search, r = 2..8: random forms, commuting
    forms (E_b, E_e = E_b^2 and M all diagonal, M of rank k), and coincident
    forms (E_e = E_b), the last two with leakage jumps at the optimal
    multiplier."""
    rng = np.random.default_rng(31)
    cases = []
    for r in range(2, 9):
        k = max(1, r // 2)
        h = rand_complex(rng, r, k)
        hb = rand_complex(rng, 2 * k, r)
        he = rand_complex(rng, 2 * k, r)
        e_b = hb.conj().T @ hb
        cases.append((f"random r={r}", QuadraticForms(
            e_b=e_b, h=h, e_e=he.conj().T @ he)))
        cases.append((f"coincident r={r}", QuadraticForms(
            e_b=e_b, h=h, e_e=e_b.copy())))
        hd = np.eye(r, k) * np.sqrt(rng.exponential(size=k))
        d_b = rng.exponential(size=r)
        cases.append((f"commuting r={r}", QuadraticForms(
            e_b=np.diag(d_b).astype(complex), h=hd.astype(complex),
            e_e=np.diag(d_b ** 2).astype(complex))))
    return cases


def openblas_core():
    """The kernel numpy's bundled OpenBLAS runs (``SkylakeX``, ``Haswell``,
    ...), or "unknown" where the library or its query is absent."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs",
                                  "libscipy_openblas64_*.so"))
    if not libs:
        return "unknown"
    corename = ctypes.CDLL(libs[0]).scipy_openblas_get_corename64_
    corename.argtypes = []
    corename.restype = ctypes.c_char_p
    return corename().decode()


def solve_based_qcqp_oracle(b, a, eps, steps=40):
    """Projected gradient for min ||x-b||^2, x^H A x <= eps.

    Independent path: the projection is computed by bisection on
    (I + mu A) x = z linear solves (no eigendecomposition), and the outer
    loop is a plain damped iteration toward b.
    """
    n = b.size
    eye = np.eye(n)

    def project(z):
        if np.vdot(z, a @ z).real <= eps:
            return z
        hi = 1.0
        while True:
            w = np.linalg.solve(eye + hi * a, z)
            if np.vdot(w, a @ w).real < eps:
                break
            hi *= 2.0
        lo = 0.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if not lo < mid < hi:
                break           # adjacent floats: further halvings move neither end
            w = np.linalg.solve(eye + mid * a, z)
            if np.vdot(w, a @ w).real > eps:
                lo = mid
            else:
                hi = mid
        return np.linalg.solve(eye + hi * a, z)

    x = project(b)
    for _ in range(steps):
        x = project(0.5 * x + 0.5 * b)
    return x


def reference_sweep(output_path):
    """Run the r = 36 reference sweep into ``output_path``: all three
    architectures, the no-eve cells and the 10-point default cap grid
    scaled to the uncapped non-reciprocal optimum.  Returns the spec, the
    rows, the reports keyed by file stem and the wall time."""
    cfg = SystemConfig(**SETUP_36)
    forms = build_forms(generate_channels(cfg))
    scale = solve_nonreciprocal(forms)[1].objective
    spec = ExperimentSpec(
        cfg=cfg,
        epsilon_grid=default_epsilon_grid(scale, points=10),
        output_path=output_path,
    )
    t0 = perf_counter()
    rows = run_experiment(spec)
    wall = perf_counter() - t0
    reports = {path.stem: json.loads(path.read_text(encoding="utf-8"))
               for path in (output_path / "reports").glob("*.json")}
    return {"spec": spec, "rows": rows, "reports": reports, "wall": wall}


def reference_draws(output_path):
    """Run the r = 64 reference draws into ``output_path``, one directory
    per draw: ``SETUP_64`` at each seed of ``DRAWS_64``, all three
    architectures, the no-eve cells only, ``MC_TRIALS_64`` Monte-Carlo
    trials.  Returns the reports keyed by ``draw<seed>-<file stem>``."""
    reports = {}
    for seed in DRAWS_64:
        out = output_path / f"draw{seed:02d}"
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "no capped rows to plot")
            run_experiment(ExperimentSpec(
                cfg=SystemConfig(**{**SETUP_64, "seed": seed}),
                scenarios=(SCENARIO_NO_EVE,), mc_trials=MC_TRIALS_64, output_path=out))
        reports.update((f"draw{seed:02d}-{path.stem}",
                        json.loads(path.read_text(encoding="utf-8")))
                       for path in (out / "reports").glob("*.json"))
    return reports


def golden_row(payload, columns=GOLDEN_COLUMNS):
    """The ``columns`` of one cell's report; a key the report does not
    carry (no dual bound, no leakage on a no-eve cell) is None."""
    cv = payload["constraint_values"]
    cell = payload["cell"]
    row = {"architecture": cell["architecture"],
           "crb": cell["crb"],
           "fim_eve": cell["fim_eve"],
           "mse_mc": cell["mse_mc"],
           "dual_bound": cv.get("dual_bound"),
           "eve_value": cv.get("eve_value"),
           "stop_reason": cv.get("stop_reason")}
    row.update((key, payload[key]) for key in
               ("objective", "bound", "converged", "iterations"))
    return {key: row[key] for key in columns}


def golden_moves(cells, golden, tolerances):
    """Each golden column of each cell against the golden cells, as
    (stem, column, golden value, value, relative move, admitted) tuples.
    Numbers move by their relative change and are admitted within the
    relative tolerance of ``tolerances`` for their architecture and column;
    iteration counts are admitted within its ``iterations_factor`` either
    way, and strings and flags only when equal (both with no relative
    move, None)."""
    factor = tolerances["iterations_factor"]
    for stem, want in sorted(golden.items()):
        got = cells[stem]
        allowed = tolerances["relative"][want["architecture"]]
        for key, value in want.items():
            rel = None
            if key == "iterations":
                admitted = value / factor <= got[key] <= value * factor
            elif isinstance(value, float):
                rel = abs(got[key] - value) / max(abs(value), np.finfo(float).tiny)
                admitted = rel <= allowed[key]
            else:
                admitted = got[key] == value
            yield stem, key, value, got[key], rel, admitted
