"""Shared helpers for the test suite (no fixtures, plain functions)."""
import ctypes
import glob
import hashlib
import json
import os
import subprocess
import sys
import tempfile
import warnings
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

import numpy as np
import pytest

from bdris import experiments
from bdris.diagonal import diag_forms, solve_diagonal_constrained, \
    solve_diagonal_unconstrained
from bdris.experiments import (
    SCENARIO_NO_EVE,
    ExperimentSpec,
    default_epsilon_grid,
    run_experiment,
)
from bdris.model import QuadraticForms, SystemConfig, build_forms, generate_channels, \
    quad_objective
from bdris.spectral import solve_nonreciprocal, solve_pdd, solve_reciprocal_ao

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


def rand_forms(rng, r, k=None, with_eve=True):
    """Random forms on r elements with k streams (default r // 2, at least
    1) and 2k antennas at each receiver: h, then H_b, then H_e when
    ``with_eve``, drawn from ``rng`` in that order."""
    k = k or max(1, r // 2)
    h = rand_complex(rng, r, k)
    hb = rand_complex(rng, 2 * k, r)
    e_e = None
    if with_eve:
        he = rand_complex(rng, 2 * k, r)
        e_e = he.conj().T @ he
    return QuadraticForms(e_b=hb.conj().T @ hb, h=h, e_e=e_e)


def haar_unitary(rng, n):
    q, r = np.linalg.qr(rand_complex(rng, n))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def batch_haar(rng, count, n):
    """Stack of Haar-ish random unitaries via batched QR with phase fix."""
    z = rng.normal(size=(count, n, n)) + 1j * rng.normal(size=(count, n, n))
    q, r = np.linalg.qr(z)
    d = np.einsum('bii->bi', r)
    return q * (d / np.abs(d))[:, None, :]


def batch_trace_objective(u, e, m, u_conj=None):
    """tr(U^H E U M) for every U in the stack, via two flat GEMMs.

    Tiny batched matmuls are slow, so the stack is multiplied as one tall
    matrix: its rows times M give every U_b M, and the transposed blocks
    times E^T give every (E U_b M)^T.  A caller that scores many forms on
    one stack passes ``u_conj`` = ``u.conj()``, formed once, which saves a
    pass over the stack per call and changes no bit.
    """
    count, n, _ = u.shape
    um = (u.reshape(count * n, n) @ m).reshape(count, n, n)
    eum_t = (um.transpose(0, 2, 1).reshape(count * n, n) @ e.T).reshape(count, n, n)
    return np.einsum("bji,bij->b", u.conj() if u_conj is None else u_conj, eum_t).real


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


def _cpu_flags() -> set:
    try:
        text = Path("/proc/cpuinfo").read_text(encoding="utf-8")
    except OSError:
        return set()
    return {flag for line in text.splitlines() if line.startswith("flags")
            for flag in line.split(":", 1)[1].split()}


def _in_child(script: str, kernel: str, flag: str) -> list[str]:
    """The words ``script`` prints in one child interpreter with
    ``OPENBLAS_CORETYPE`` forced to ``kernel`` (one child at a time, one
    BLAS thread), after the kernel it reports.  Skips where the CPU lacks
    the kernel's instructions or the library reports another kernel."""
    if flag not in _cpu_flags():
        pytest.skip(f"CPU flags lack {flag}")
    here = Path(__file__).resolve().parent
    path = os.pathsep.join([str(here.parent / "src"), str(here),
                            os.environ.get("PYTHONPATH", "")])
    env = {**os.environ, "OPENBLAS_CORETYPE": kernel, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": path}
    out = subprocess.run([sys.executable, "-c", script], env=env,
                         capture_output=True, text=True, timeout=300, check=True)
    core, *words = out.stdout.split()
    if core.lower() != kernel.lower():
        pytest.skip(f"OpenBLAS runs {core}, not {kernel}")
    return words


# The OpenBLAS kernels the child checks force, each with the CPU flag it needs.
KERNELS = [("Haswell", "avx2"), ("Sandybridge", "avx")]


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


# The solvers ``bdris.experiments`` calls through its globals, as the
# benchmark's ``Runner.capture_responses`` lists them.
SWEEP_SOLVERS = ("solve_nonreciprocal", "solve_reciprocal_ao", "solve_pdd",
                 "solve_diagonal_unconstrained", "solve_diagonal_constrained")


@contextmanager
def captured_responses():
    """Keep each response a sweep computes: yields a dict that fills with
    (architecture, cap) -> response matrix, the cap None for an uncapped
    solve.  The solvers are rebound in ``bdris.experiments`` only, and put
    back on exit; the wrapper stores the matrix and does nothing else."""
    kept, held = {}, {name: getattr(experiments, name) for name in SWEEP_SOLVERS}

    def keeper(solve):
        def keep(*args, **kwargs):
            result = solve(*args, **kwargs)
            kept[result[0].architecture, args[1] if len(args) > 1 else None] = \
                result[0].matrix
            return result
        return keep

    try:
        for name, solve in held.items():
            setattr(experiments, name, keeper(solve))
        yield kept
    finally:
        for name, solve in held.items():
            setattr(experiments, name, solve)


def reference_sweep(output_path):
    """Run the r = 36 reference sweep into ``output_path``: all three
    architectures, the no-eve cells and the 10-point default cap grid
    scaled to the uncapped non-reciprocal optimum.  Returns the spec, the
    rows, the reports and the response matrices keyed by file stem, and
    the wall time."""
    cfg = SystemConfig(**SETUP_36)
    forms = build_forms(generate_channels(cfg))
    scale = solve_nonreciprocal(forms)[1].objective
    spec = ExperimentSpec(
        cfg=cfg,
        epsilon_grid=default_epsilon_grid(scale, points=10),
        output_path=output_path,
    )
    with captured_responses() as kept:
        t0 = perf_counter()
        rows = run_experiment(spec)
        wall = perf_counter() - t0
    reports = {path.stem: json.loads(path.read_text(encoding="utf-8"))
               for path in (output_path / "reports").glob("*.json")}
    responses = {stem: kept[p["cell"]["architecture"], p["cell"]["epsilon"]]
                 for stem, p in reports.items()}
    return {"spec": spec, "rows": rows, "reports": reports, "responses": responses,
            "wall": wall}


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


# ------------------------------------------------------------------ digests
# ``golden/digests.json`` pins outputs bit for bit, one table per OpenBLAS
# kernel (no answer is bit-identical across kernels): for each cell, the
# sha256 of its response matrix (``tobytes()``) and of its report as JSON
# without ``wall_ms``.  Section "sweep36" holds the reference-sweep cells by
# report stem; "capped" holds each class's solve on every ``capped_cases()``
# instance, uncapped and at ``DIGEST_FRACTIONS`` of its own uncapped
# leakage, keyed "<architecture>/<case>/<fraction>" (spaces as "-").
DIGESTS = Path(__file__).resolve().parent / "golden" / "digests.json"
DIGEST_FRACTIONS = (0.3, 0.9)
# The kernels whose tables ``golden/regenerate.py`` writes, each with the CPU
# flag it needs: the kernel this suite is measured on, then the child checks'.
DIGEST_KERNELS = [("SkylakeX", "avx512bw")] + KERNELS


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digest(response, report: dict) -> list[str]:
    """[sha256 of the response's bytes, sha256 of ``report`` (a report's
    dict or its JSON file's payload) as sorted JSON without ``wall_ms``]."""
    report = {key: value for key, value in report.items() if key != "wall_ms"}
    return [_sha256(np.ascontiguousarray(response).tobytes()),
            _sha256(json.dumps(report, sort_keys=True).encode())]


def sweep_digests(sweep) -> dict:
    """The digests of every cell of a ``reference_sweep`` result."""
    return {stem: digest(sweep["responses"][stem], report)
            for stem, report in sweep["reports"].items()}


def capped_digests() -> dict:
    """The digests of each class on every ``capped_cases()`` instance: the
    uncapped solve, then the capped one at each of ``DIGEST_FRACTIONS`` of
    the uncapped answer's leakage, warm-started as the sweep does."""
    table = {}
    for name, forms in capped_cases():
        dforms = diag_forms(forms)
        classes = (
            ("non-reciprocal", solve_nonreciprocal(forms),
             lambda eps, base: solve_nonreciprocal(forms, eps)),
            ("reciprocal", solve_reciprocal_ao(forms),
             lambda eps, base: solve_pdd(forms, eps, warm=base)),
            ("diagonal", solve_diagonal_unconstrained(dforms),
             lambda eps, base: solve_diagonal_constrained(dforms, eps, warm=base)))
        for arch, base, capped in classes:
            key = f"{arch}/{name.replace(' ', '-')}"
            table[f"{key}/uncapped"] = digest(base[0].matrix, base[1].to_dict())
            leak = quad_objective(base[0].matrix, forms.e_e, forms.m)
            for frac in DIGEST_FRACTIONS:
                ris, rep = capped(frac * leak, base)
                table[f"{key}/{frac}"] = digest(ris.matrix, rep.to_dict())
    return table


def kernel_digests() -> dict:
    """Both sections of one kernel's digest table, from a reference sweep
    run in a temporary directory and the capped solves."""
    with tempfile.TemporaryDirectory() as tmp:
        sweep = reference_sweep(Path(tmp) / "run")
    return {"sweep36": sweep_digests(sweep), "capped": capped_digests()}


def digest_words(table: dict) -> list[str]:
    """``table`` as the words a child interpreter prints: section, key and
    both digests of each cell."""
    return [word for section, cells in table.items()
            for key, pair in cells.items() for word in (section, key, *pair)]


def digest_table(words: list[str]) -> dict:
    """The table that ``digest_words`` printed."""
    table = {}
    for i in range(0, len(words), 4):
        section, key, *pair = words[i:i + 4]
        table.setdefault(section, {})[key] = pair
    return table


def digests_moved(got: dict, want: dict) -> list[str]:
    """The "<section> <key> <response|report>" entries where ``got``
    differs from ``want``, over the sections and keys of either; a key
    that only one side has counts as moved in both parts."""
    moved = []
    for section in sorted(set(got) | set(want)):
        have, need = got.get(section, {}), want.get(section, {})
        for key in sorted(set(have) | set(need)):
            pair, wanted = have.get(key, [None, None]), need.get(key, [None, None])
            moved += [f"{section} {key} {part}" for part, a, b in
                      zip(("response", "report"), pair, wanted) if a != b]
    return moved
