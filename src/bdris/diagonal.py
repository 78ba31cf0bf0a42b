"""Diagonal-RIS baseline: local-search heuristics on the Hadamard-product form.

For a diagonal response Omega = diag(omega) the trace objective collapses to

    tr(Omega^H E Omega M) = omega^H (E o M^T) omega,

with o the elementwise product, so both the intended-receiver objective and
the leakage constraint become r-dimensional quadratic forms.  The
unconstrained unit-modulus problem is attacked by coordinate ascent over
phases; the leakage-capped problem relaxes the magnitudes to |omega_i| <= 1
and runs box-projected gradient ascent with Barzilai-Borwein steps inside
an augmented Lagrangian on the cap (the spectral projected gradient of
Birgin, Martinez & Raydan, SIAM J. Optim. 2000, for the box).  Both are
multi-start heuristics, not certified global optimizers: they give a lower
estimate of the diagonal baseline, which is all the architecture
comparisons need.  The reported bounds are certified: r lam_max(c_b) over
the box and, under a cap, also eps times the largest generalized
eigenvalue of (c_b, c_e).

Both run their restarts in lockstep: the _RESTARTS start vectors are the
rows of one _RESTARTS x r iterate, each with its own step, multiplier,
penalty, round and stopping state, and a restart that has stopped is
frozen (it neither moves nor counts further steps or passes).  A step of
projected gradient costs one stacked product with each form, which the
next step reuses for its gradient and leakage; a coordinate-ascent update
of element i costs one stacked product with row i.  The products are
stacks of per-restart matrix-vector products, so each restart follows
exactly the path it would follow alone, whatever runs beside it.  The
knobs (restart count and seed, step and penalty schedules, tolerances,
iteration budgets) are the module constants below; every caller uses the
same values.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import ContractViolationError, DimensionError
from .model import ARCH_DIAGONAL, QuadraticForms, RisMatrix
from .reporting import CapPenalty, SolveReport, capped_report, checked_cap, \
    uncapped_pair

__all__ = [
    "DiagForms",
    "diag_forms",
    "solve_diagonal_unconstrained",
    "solve_diagonal_constrained",
]

_HADAMARD_TOL = 1e-10
# The cap's bound uses c_e^{-1/2} only when cond(c_e) <= _BOUND_COND, where
# its rounding stays below about 1e-10 relative.
_BOUND_COND = 1e6
_STEP_FLOOR = 1e-12

# Multi-start: start 0 is the given vector, starts 1.._RESTARTS-1 draw
# uniform phases from default_rng(_SEED).
_RESTARTS = 20
_SEED = 0

# Coordinate ascent stops when a pass gains at most _CA_REL_TOL (relative).
_MAX_PASSES = 500
_CA_REL_TOL = 1e-12

# Augmented-Lagrangian projected gradient on unit-scaled forms.  A round
# starts at step _STEP0; an accepted move sets the next step to the
# Barzilai-Borwein step clipped to [_STEP_FLOOR, _STEP_MAX] (or grows it by
# _STEP_UP on non-positive curvature), a rejected one shrinks it by
# _STEP_DOWN.  A round ends when a move gains at most the round's tolerance
# (relative), which starts at _STAT_TOL0 and shrinks by _STAT_SHRINK a
# round down to _STAT_TOL, or after _MAX_ITERS steps.  Between rounds the
# shared rule of :class:`~bdris.reporting.CapPenalty` runs, with the
# penalty starting at _RHO0 / eps, at most _MAX_ROUNDS rounds and a
# residual tolerance of _RESIDUAL_TOL (relative to the cap).
#
# The schedule was measured over 91 active capped cells (r = 36 and r = 64
# channel draws, seeded r <= 8 instances) and 36 seeded cells whose optimum
# is known: with a fixed tolerance of 1e-9 the rounds are too inexact for
# the multiplier update, the residual stalls, rho grows to 1e12 / eps and
# one known optimum is missed by 3.2e-5; a fixed 1e-12 costs 1.7 times the
# steps of the schedule.  No restart used more than 16 rounds.
_STEP0 = 0.1
_STEP_UP = 1.2
_STEP_DOWN = 0.5
_STEP_MAX = 1e6
_STAT_TOL = 1e-12
_STAT_TOL0 = 1e-6
_STAT_SHRINK = 0.03
_MAX_ITERS = 2000
_MAX_ROUNDS = 50
_RESIDUAL_TOL = 1e-8


@dataclass
class DiagForms:
    """Hadamard-reduced quadratic forms c_b = E_b o M^T and c_e = E_e o M^T,
    with their largest eigenvalues lam_b and lam_e (None without c_e)."""

    c_b: np.ndarray
    c_e: np.ndarray | None = None
    lam_b: float = field(init=False)
    lam_e: float | None = field(init=False, default=None)

    def __post_init__(self):
        self.c_b = np.asarray(self.c_b, dtype=complex)
        self.lam_b = _check_psd(self.c_b, "c_b")
        if self.c_e is not None:
            self.c_e = np.asarray(self.c_e, dtype=complex)
            if self.c_e.shape != self.c_b.shape:
                raise ContractViolationError("c_e shape differs from c_b")
            self.lam_e = _check_psd(self.c_e, "c_e")

    @property
    def r(self) -> int:
        return self.c_b.shape[0]

    @cached_property
    def lam_gen(self) -> float:
        """Largest eigenvalue of c_e^{-1/2} c_b c_e^{-1/2}, i.e. the largest
        omega^H c_b omega / omega^H c_e omega; inf unless c_e is positive
        definite with condition number at most _BOUND_COND."""
        if self.c_e is None:
            return np.inf
        vals, vecs = np.linalg.eigh(self.c_e)
        if not vals[0] * _BOUND_COND >= vals[-1] > 0.0:
            return np.inf
        s = vecs / np.sqrt(vals)
        return float(np.linalg.eigvalsh(s.conj().T @ self.c_b @ s)[-1])


def _check_psd(c: np.ndarray, name: str) -> float:
    """Refuse an empty, non-square, non-Hermitian or indefinite c; return
    its largest eigenvalue."""
    if c.ndim != 2 or c.shape[0] != c.shape[1]:
        raise ContractViolationError(f"{name} must be square")
    if c.shape[0] < 1:
        raise DimensionError(f"{name} needs at least one element (r >= 1)")
    scale = max(1.0, float(np.abs(c).max()))
    if np.abs(c - c.conj().T).max() > _HADAMARD_TOL * scale:
        raise ContractViolationError(f"{name} not Hermitian within {_HADAMARD_TOL}")
    w = np.linalg.eigvalsh(0.5 * (c + c.conj().T))
    if w[0] < -_HADAMARD_TOL * max(1.0, float(w[-1])):
        raise ContractViolationError(f"{name} not PSD (min eigenvalue {w[0]:.3e})")
    return float(w[-1])


def diag_forms(forms: QuadraticForms) -> DiagForms:
    """Reduce full quadratic forms to their diagonal-response counterparts."""
    c_b = forms.e_b * forms.m.T
    c_e = forms.e_e * forms.m.T if forms.e_e is not None else None
    return DiagForms(c_b=c_b, c_e=c_e)


def _quad(c: np.ndarray, omega: np.ndarray) -> float:
    return float(np.real(np.vdot(omega, c @ omega)))


# The restarts are the rows of one iterate w.  Products are stacks of
# per-row matrix-vector products, not one matrix-matrix product: a GEMM
# rounds differently from a matrix-vector product, in a way that depends on
# the number of rows, and the adaptive-step ascent turns last-bit
# differences into different paths.  With the stacks, _scale and np.hypot,
# every row is rounded exactly as a loop over one restart at a time, with
# vector products and scalar arithmetic, rounds it.


def _apply(c: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Row-wise c @ w_j."""
    return np.matmul(c, w[:, :, None])[:, :, 0]


def _quads(w: np.ndarray, cw: np.ndarray) -> np.ndarray:
    """Row-wise w_j^H (c w_j), given cw = _apply(c, w)."""
    return np.matmul(w.conj()[:, None, :], cw[:, :, None])[:, 0, 0].real


def _scale(a: np.ndarray, v: np.ndarray) -> np.ndarray:
    """a * v elementwise, each entry rounded as the scalar product is (the
    vectorized complex multiply may fuse its multiply and add)."""
    out = np.empty_like(v)
    out.real = a.real * v.real - a.imag * v.imag
    out.imag = a.real * v.imag + a.imag * v.real
    return out


def _stop_reason(converged) -> str:
    """``stationary`` for a winning restart that met its stopping rule,
    ``budget`` for one that ran out of passes, steps or rounds."""
    return "stationary" if converged else "budget"


def _starts(first: np.ndarray) -> np.ndarray:
    """The multi-start rows: ``first``, then random-phase vectors."""
    rng = np.random.default_rng(_SEED)
    rows = [first] + [np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, size=first.size))
                      for _ in range(_RESTARTS - 1)]
    return np.array(rows, dtype=complex)


def _coordinate_ascent(c: np.ndarray, w: np.ndarray):
    """Unit-modulus Gauss-Seidel on every row of `w` at once:
    omega_i <- c_i/|c_i|, c_i = sum_{j!=i} C_ij omega_j.

    Each update maximizes the objective over omega_i alone, so every row's
    trace is non-decreasing.  A zero c_i leaves omega_i unchanged (any phase
    is equally good there).  A row stops, and is left as it is, after the
    first pass that gains at most _CA_REL_TOL (relative); a pass updates the
    rows still running.  Returns the iterate, the per-pass values (one
    column per restart), each row's pass count and converged mask.
    """
    d = np.diag(c)
    values = [_quads(w, _apply(c, w))]
    passes = np.zeros(w.shape[0], dtype=int)
    live = np.ones(w.shape[0], dtype=bool)
    for p in range(1, _MAX_PASSES + 1):
        rows = np.flatnonzero(live)
        v = w[rows]
        # omega_i changes only at its own update, so the diagonal terms
        # C_ii omega_i of the whole pass can be formed up front.
        dv = _scale(d, v)
        for i in range(v.shape[1]):
            ci = np.matmul(v[:, None, :], c[i][:, None])[:, 0, 0] - dv[:, i]
            mag = np.hypot(ci.real, ci.imag)
            np.divide(ci, mag, out=v[:, i], where=mag > 0.0)
        w[rows] = v
        value = _quads(w, _apply(c, w))
        passes[live] = p
        live &= value - values[-1] > _CA_REL_TOL * np.maximum(1.0, np.abs(value))
        values.append(value)
        if not live.any():
            break
    return w, np.array(values), passes, ~live


def solve_diagonal_unconstrained(dforms: DiagForms) -> tuple[RisMatrix, SolveReport]:
    """Best unit-modulus diagonal response by multi-start coordinate ascent.

    Restart 0 starts from the all-ones phase vector; the rest draw phases
    uniformly on [0, 2pi).  All restarts run together as the rows of one
    _RESTARTS x r iterate; the first restart with the highest value wins and
    the report carries its trace, pass count and ``stop_reason``
    (``stationary``, or ``budget`` after _MAX_PASSES passes).  The reported
    bound is lam_max(c_b) * r, the Rayleigh bound over the relaxed ball.
    """
    c = dforms.c_b
    n = dforms.r
    w, values, passes, conv = _coordinate_ascent(c, _starts(np.ones(n, dtype=complex)))
    best = int(np.argmax(values[passes, np.arange(w.shape[0])]))
    trace = values[:passes[best] + 1, best]
    bound = dforms.lam_b * n
    report = SolveReport(
        objective=float(trace[-1]),
        bound=bound,
        iterations=int(passes[best]),
        cost_trace=[float(v) for v in trace],
        constraint_values={"stop_reason": _stop_reason(conv[best])},
    )
    return RisMatrix(np.diag(w[best]), ARCH_DIAGONAL), report


def _box(w: np.ndarray) -> np.ndarray:
    mags = np.abs(w)
    scale = np.where(mags > 1.0, mags, 1.0)
    return w / scale


def _into_cap(ce: np.ndarray, eps: float, w: np.ndarray) -> np.ndarray:
    """Scale every row whose leakage exceeds eps down onto the cap."""
    g = _quads(w, _apply(ce, w))
    return w * np.sqrt(eps / np.where(g > eps, g, eps))[:, None]


def _augmented(b: np.ndarray, e: np.ndarray, pen: CapPenalty) -> np.ndarray:
    """f_b - (rho/2) max(0, f_e - eps + lam/rho)^2."""
    gap = np.maximum(e - pen.eps + pen.lam / pen.rho, 0.0)
    return b - 0.5 * pen.rho * gap * gap


def _projected_ascent(cb: np.ndarray, ce: np.ndarray, eps: float, w: np.ndarray):
    """Augmented-Lagrangian rounds of box-projected gradient ascent with
    Barzilai-Borwein steps, run on every row of `w` at once.

    Each row is a member of one :class:`~bdris.reporting.CapPenalty`, with
    its own multiplier, penalty, round and tolerance, and keeps its own
    step, previous gradient and in-round step count.  A round maximizes
    f_b - (rho/2) max(0, f_e - eps + lam/rho)^2 over |w_i| <= 1, from step
    _STEP0, until a move gains at most the round's tolerance (relative;
    _STAT_TOL0, shrinking by _STAT_SHRINK a round to _STAT_TOL) or the step
    falls below _STEP_FLOOR (a finished round), or _MAX_ITERS steps are
    spent.  An accepted move s with gradient change y = g_old - g_new sets
    the next trial step to the BB1 step s^H s / Re s^H y, clipped to
    [_STEP_FLOOR, _STEP_MAX] (times _STEP_UP instead where Re s^H y <= 0);
    a rejected one halves it.  The rows whose round ended go through the
    penalty's rule.  A stopped row neither moves nor counts further steps.
    The products cb w and ce w of the accepted iterate are kept, so a step
    costs one product with each form.

    Returns the iterate, the total step count over all rows, the number of
    rounds that ran out of steps, and the penalty state (each row's rounds,
    multiplier and converged flag).
    """
    rows = w.shape[0]
    pen = CapPenalty(rows, eps, eps, _STAT_TOL0, _STAT_TOL, _STAT_SHRINK,
                     _MAX_ROUNDS, _RESIDUAL_TOL)
    bw, ew = _apply(cb, w), _apply(ce, w)
    b, e = _quads(w, bw), _quads(w, ew)
    value = _augmented(b, e, pen)
    grad = bw - pen.weight(e)[:, None] * ew
    step = np.full(rows, _STEP0)
    count = np.zeros(rows, dtype=int)
    total = budget_hits = 0
    while pen.live.any():
        live = pen.live
        cand = _box(w + step[:, None] * grad)
        bc, ec = _apply(cb, cand), _apply(ce, cand)
        b_c, e_c = _quads(cand, bc), _quads(cand, ec)
        cand_value = _augmented(b_c, e_c, pen)
        cand_grad = bc - pen.weight(e_c)[:, None] * ec
        up = live & (cand_value > value)
        down = live & ~up
        improved = cand_value - value
        s = cand - w
        ss, sy = _quads(s, s), _quads(s, grad - cand_grad)
        bb = np.clip(np.divide(ss, sy, out=step * _STEP_UP, where=sy > 0.0),
                     _STEP_FLOOR, _STEP_MAX)
        keep = up[:, None]
        w = np.where(keep, cand, w)
        bw = np.where(keep, bc, bw)
        ew = np.where(keep, ec, ew)
        grad = np.where(keep, cand_grad, grad)
        b = np.where(up, b_c, b)
        e = np.where(up, e_c, e)
        value = np.where(up, cand_value, value)
        step = np.where(up, bb, np.where(down, step * _STEP_DOWN, step))
        count += live
        total += int(live.sum())
        finished = ((up & (improved <= pen.tol * np.maximum(1.0, np.abs(value))))
                    | (down & (step < _STEP_FLOOR)))
        ended = finished | (live & (count >= _MAX_ITERS))
        if not ended.any():
            continue
        budget_hits += int((ended & ~finished).sum())
        again = pen.end_round(ended, e, finished)
        step = np.where(again, _STEP0, step)
        count = np.where(again, 0, count)
        value = np.where(again, _augmented(b, e, pen), value)
        grad = np.where(again[:, None], bw - pen.weight(e)[:, None] * ew, grad)
    return w, total, budget_hits, pen


def solve_diagonal_constrained(dforms: DiagForms, epsilon_eve: float,
                               warm: tuple[RisMatrix, SolveReport] | None = None,
                               ) -> tuple[RisMatrix, SolveReport]:
    """Leakage-capped diagonal response over the magnitude-relaxed set.

    Maximizes omega^H c_b omega subject to omega^H c_e omega <= eps and
    |omega_i| <= 1.  The unconstrained coordinate-ascent optimum is the
    first start; the (RisMatrix, SolveReport) pair that
    ``solve_diagonal_unconstrained`` returned for the same forms may be
    passed as `warm` to skip that solve, e.g. across a grid of caps.  If it
    already meets the cap it is returned directly, with no steps counted
    (``iterations`` 0, the objective as the whole trace).  Otherwise every
    restart, scaled into the cap, runs augmented-Lagrangian rounds of
    box-projected gradient ascent with Barzilai-Borwein steps until the cap
    residual falls to _RESIDUAL_TOL; each final iterate is rescaled onto the
    cap if a residual violation remains, and the first restart with the
    highest objective wins; its objective is the report's whole trace.  The
    box projection and that downward rescale keep |omega_i| <= 1
    throughout.  In the report, a
    :func:`~bdris.reporting.capped_report` (with ``cap_residual``),
    ``iterations`` sums the gradient steps of all restarts, and
    ``budget_hits`` counts the rounds, over all restarts, that used all
    _MAX_ITERS steps; ``outer_rounds`` and ``multiplier`` (the cap's
    multiplier in the caller's units) are the winning restart's, 0 on an
    inactive cap.  ``stop_reason`` is ``stationary`` when the winning
    restart converged by the penalty's rule and ``budget`` when its rounds
    ran out (an inactive cap passes on the uncapped solve's).  The certified
    ``bound`` is min(r lam_max(c_b), eps lam_gen), with lam_gen the largest
    omega^H c_b omega / omega^H c_e omega (see ``DiagForms.lam_gen``).
    """
    epsilon_eve = checked_cap(dforms.c_e, epsilon_eve)
    ris0, rep0 = uncapped_pair(warm, ARCH_DIAGONAL,
                               lambda: solve_diagonal_unconstrained(dforms))
    omega0 = np.diag(ris0.matrix).copy()
    eve0 = _quad(dforms.c_e, omega0)
    bound = min(dforms.lam_b * dforms.r, epsilon_eve * dforms.lam_gen)
    if eve0 <= epsilon_eve:
        return ris0, capped_report(
            rep0.objective, bound, 0, [rep0.objective], epsilon_eve=epsilon_eve,
            eve_value=eve0, active=False,
            stop_reason=rep0.constraint_values["stop_reason"], budget_hits=0,
            outer_rounds=0, multiplier=0.0)

    # Unit-scale the forms so the step/penalty constants are magnitude-free.
    s_b, s_e = dforms.lam_b or 1.0, dforms.lam_e or 1.0
    cb, ce, eps = dforms.c_b / s_b, dforms.c_e / s_e, epsilon_eve / s_e

    w, steps, budget_hits, pen = _projected_ascent(
        cb, ce, eps, _into_cap(ce, eps, _starts(omega0)))
    w = _into_cap(ce, eps, w)
    best = int(np.argmax(_quads(w, _apply(cb, w))))
    omega = w[best]
    objective = _quad(dforms.c_b, omega)
    return RisMatrix(np.diag(omega), ARCH_DIAGONAL), capped_report(
        objective, bound, steps, [objective], epsilon_eve=epsilon_eve,
        eve_value=_quad(dforms.c_e, omega), active=True,
        stop_reason=_stop_reason(pen.converged[best]), budget_hits=budget_hits,
        outer_rounds=int(pen.rounds[best]), multiplier=float(pen.lam[best]) * s_b / s_e)
