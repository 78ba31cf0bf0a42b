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
eigenvalue of (c_b, c_e).  ``DiagForms`` checks and factors each reduced
form once, through :func:`~bdris.kernels.hermitian_eig`, and holds the
factorization of c_e that the generalized bound reads.

Both run their restarts in lockstep: the _RESTARTS start vectors are the
rows of one _RESTARTS x r iterate, each with its own step, multiplier,
penalty, round and stopping state, and a restart that has stopped is
frozen (it neither moves nor counts further steps or passes).  At r = 36
both loops are bound by numpy's per-call cost, not by arithmetic, so a
step is written as few calls as the rounding allows.  A step of projected
gradient makes one stacked product of both forms with every row (which
the next step reuses for its gradient and leakage), one batched call for
both forms' values and one for s^H s and s^H y, and commits the accepted
rows with one copy per state array: about 50 numpy calls whatever the
number of rows.  A coordinate-ascent update of element i is one stacked
product with row i and three calls into buffers made once a pass; the rule
for a zero c_i is applied once a pass, by a NaN check of the pass's rows
that reruns the pass with the masked update only when it finds one.  What
stays per row is the BLAS work: a projected-gradient step makes six BLAS
calls per row (two matrix-vector products, four dot products), so each
restart follows exactly the path it would follow alone, whatever runs
beside it.  The knobs (restart count and seed, step and penalty schedules, tolerances,
iteration budgets) are the module constants below; every caller uses the
same values.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import DimensionError
from .kernels import STRUCTURE_TOL, HermEig, _psd_eig, hermitian_eig
from .model import ARCH_DIAGONAL, QuadraticForms, RisMatrix
from .reporting import CapPenalty, SolveReport, capped_report, checked_cap, \
    checked_pair, inactive_answer

__all__ = [
    "DiagForms",
    "diag_forms",
    "solve_diagonal_unconstrained",
    "solve_diagonal_constrained",
]

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
    with the largest eigenvalue lam_b of c_b, the spectrum eig_e of c_e
    (descending), its largest eigenvalue lam_e and the lossless floor (the
    last three None without c_e).  Each form is checked and factored once,
    here, as :class:`~bdris.model.QuadraticForms` does: ``lam_gen`` reads
    eig_e, and neither solver decomposes a form again.

    ``lossless_floor`` is r lam_min(c_e) less an eigenvalue rounding
    allowance of r^2 eps max|lam(c_e)| (eps the float64 machine epsilon;
    each computed eigenvalue is within about r eps max|lam| of the exact
    one): a certified lower bound on the leakage omega^H c_e omega of every
    unit-modulus omega.

    Each form must pass the input check of :class:`~bdris.model.QuadraticForms`
    (square, finite, Hermitian and PSD within the one ``STRUCTURE_TOL``) and
    have at least one element; a c_e of another shape than c_b raises
    :class:`~bdris.errors.DimensionError`, as a mismatched E_e does."""

    c_b: np.ndarray
    c_e: np.ndarray | None = None
    lam_b: float = field(init=False)
    eig_e: HermEig | None = field(init=False, default=None)
    lam_e: float | None = field(init=False, default=None)
    lossless_floor: float | None = field(init=False, default=None)

    def __post_init__(self):
        self.c_b = np.asarray(self.c_b, dtype=complex)
        values = _psd_eig(self.c_b, "c_b").values
        if self.r < 1:
            raise DimensionError("c_b needs at least one element (r >= 1)")
        self.lam_b = float(values[0])
        if self.c_e is not None:
            self.c_e = np.asarray(self.c_e, dtype=complex)
            if self.c_e.shape != self.c_b.shape:
                raise DimensionError(f"c_e must have shape {self.c_b.shape}, "
                                     f"got {self.c_e.shape}")
            self.eig_e = _psd_eig(self.c_e, "c_e")
            low, self.lam_e = float(self.eig_e.values[-1]), float(self.eig_e.values[0])
            allowance = self.r * float(np.finfo(float).eps) * max(-low, self.lam_e)
            self.lossless_floor = self.r * (low - allowance)

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
        vals, vecs = self.eig_e
        if not vals[-1] * _BOUND_COND >= vals[0] > 0.0:
            return np.inf
        s = vecs / np.sqrt(vals)
        return float(hermitian_eig(s.conj().T @ self.c_b @ s).values[0])


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
# differences into different paths.  A row's two values are two dot
# products, not one (1 x r)(r x 2) product, which rounds differently too.
# With the stacks, _scale and np.hypot (np.abs on complex rounds otherwise
# under some kernels), every row is rounded exactly as a loop over one
# restart at a time, with vector products and scalar arithmetic, rounds it.


def _quads(c: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Row-wise w_j^H (c w_j)."""
    return np.matmul(w.conj()[:, None, :], np.matmul(c, w[:, :, None]))[:, 0, 0].real


def _scale(a: np.ndarray, v: np.ndarray) -> np.ndarray:
    """a * v elementwise, each entry rounded as the scalar product is (the
    vectorized complex multiply may fuse its multiply and add)."""
    out = np.empty_like(v)
    out.real = a.real * v.real - a.imag * v.imag
    out.imag = a.real * v.imag + a.imag * v.real
    return out


def _starts(first: np.ndarray) -> np.ndarray:
    """The multi-start rows: ``first``, then random-phase vectors."""
    rng = np.random.default_rng(_SEED)
    rows = [first] + [np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, size=first.size))
                      for _ in range(_RESTARTS - 1)]
    return np.array(rows, dtype=complex)


def _ascent_pass(cols, v, dv, where=True):
    """One Gauss-Seidel pass over the elements of every row of `v`, in
    place, given the rows' diagonal terms dv.  With ``where`` True every
    omega_i becomes c_i/|c_i|; with a boolean buffer (one entry per row) an
    omega_i whose c_i is zero is left unchanged instead, the rule of
    :func:`_coordinate_ascent`.  Both give the same bits wherever c_i is
    nonzero."""
    stack = v[:, None, :]
    prod = np.empty((v.shape[0], 1, 1), dtype=complex)
    ci = prod[:, 0, 0]
    re, im = ci.real, ci.imag
    # |c_i| is held as a complex number with a zero imaginary part, the
    # value the divide would otherwise cast it to, so the divide casts nothing.
    mag = np.zeros(v.shape[0], dtype=complex)
    size = mag.real
    masked = where is not True
    for col, vi, dvi in zip(cols, v.T, dv.T):
        np.matmul(stack, col, out=prod)
        np.subtract(ci, dvi, out=ci)
        np.hypot(re, im, out=size)
        if masked:
            np.greater(size, 0.0, out=where)
        np.divide(ci, mag, out=vi, where=where)


def _coordinate_ascent(c: np.ndarray, w: np.ndarray):
    """Unit-modulus Gauss-Seidel on every row of `w` at once:
    omega_i <- c_i/|c_i|, c_i = sum_{j!=i} C_ij omega_j.

    Each update maximizes the objective over omega_i alone, so every row's
    trace is non-decreasing.  A zero c_i leaves omega_i unchanged (any phase
    is equally good there).  A row stops, and is left as it is, after the
    first pass that gains at most _CA_REL_TOL (relative); a pass updates the
    rows still running.  Returns the iterate, the per-pass values (one
    column per restart), each row's pass count and converged mask.

    An element update is one stacked product with row i and three calls
    (subtract, hypot, divide) into buffers made once a pass.  The zero-c_i
    rule is applied once a pass: the pass divides unmasked, and since the
    forms are finite only a zero c_i (0/0) can leave a NaN in its rows; if
    one does, the pass is run again from the rows still held in `w` with
    the masked divide, before they are written back.
    """
    d = np.diag(c)
    cols = [row[:, None] for row in c]          # c_i as a column
    values = [_quads(c, w)]
    passes = np.zeros(w.shape[0], dtype=int)
    live = np.ones(w.shape[0], dtype=bool)
    for p in range(1, _MAX_PASSES + 1):
        rows = np.flatnonzero(live)
        v = w[rows]
        # omega_i changes only at its own update, so the diagonal terms
        # C_ii omega_i of the whole pass can be formed up front.
        dv = _scale(d, v)
        with np.errstate(divide="ignore", invalid="ignore"):
            _ascent_pass(cols, v, dv)
        if np.isnan(v).any():
            v = w[rows]
            _ascent_pass(cols, v, dv, np.empty(rows.size, dtype=bool))
        w[rows] = v
        value = _quads(c, w)
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
    _RESTARTS x r iterate.  The restart with the highest computed value
    wins, the first of exactly equal values, so restarts that tie in exact
    arithmetic are decided by rounding: restart 0 need not win.  The
    report carries its trace, pass count and ``stop_reason``
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
        constraint_values={"stop_reason": "stationary" if conv[best] else "budget"},
    )
    return RisMatrix(np.diag(w[best]), ARCH_DIAGONAL), report


def _into_cap(ce: np.ndarray, eps: float, w: np.ndarray) -> np.ndarray:
    """Scale every row whose leakage exceeds eps down onto the cap."""
    g = _quads(ce, w)
    return w * np.sqrt(eps / np.where(g > eps, g, eps))[:, None]


# The projected ascent keeps an iterate's state in two arrays: x = (w,
# c_b w, c_e w, gradient), shape (4, S, r), and f = (f_b, f_e, augmented
# value), shape (3, S).  ``forms`` is the (2, 1, r, r) stack (c_b, c_e), so
# one matmul makes both products of every row, each still one matrix-vector
# product per row.

def _evaluate(forms: np.ndarray, x: np.ndarray, f: np.ndarray) -> None:
    """x[1:3] <- both products of the iterate x[0], f[:2] <- its values."""
    np.matmul(forms, x[0, :, :, None], out=x[1:3, :, :, None])
    f[:2] = np.matmul(x[0].conj()[:, None, :], x[1:3, :, :, None])[..., 0, 0].real


def _penalize(x: np.ndarray, f: np.ndarray, eps: float, lam, rho, lam_rho, half_rho) -> None:
    """f[2] <- f_b - (rho/2) max(0, f_e - eps + lam/rho)^2 and x[3] <- its
    gradient c_b w - max(0, lam + rho (f_e - eps)) c_e w, with each row's
    lam, rho, lam/rho and rho/2, the last two formed once a round."""
    over = f[1] - eps
    gap = np.maximum(over + lam_rho, 0.0)
    np.subtract(f[0], half_rho * gap * gap, out=f[2])
    np.multiply(np.maximum(lam + rho * over, 0.0)[:, None], x[2], out=x[3])
    np.subtract(x[1], x[3], out=x[3])


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
    A step makes one stacked product with both forms, whose result the
    next step reuses for its gradient and leakage, and commits the accepted
    rows of the candidate's state at once.

    Returns the iterate, the total step count over all rows, the number of
    rounds that ran out of steps, and the penalty state (each row's rounds,
    multiplier and converged flag).
    """
    rows, r = w.shape
    pen = CapPenalty(rows, eps, eps, _STAT_TOL0, _STAT_TOL, _STAT_SHRINK,
                     _MAX_ROUNDS, _RESIDUAL_TOL)
    forms = np.stack((cb, ce))[:, None]
    x, cand = np.empty((2, 4, rows, r), dtype=complex)
    f, cand_f = np.empty((2, 3, rows))
    sy = np.empty((2, rows, r), dtype=complex)
    x[0] = w
    terms = (pen.lam, pen.rho, pen.lam / pen.rho, 0.5 * pen.rho)
    _evaluate(forms, x, f)
    _penalize(x, f, eps, *terms)
    step = np.full(rows, _STEP0)
    count = np.zeros(rows, dtype=int)
    total = budget_hits = 0
    while pen.live.any():
        trial = np.add(x[0], np.multiply(step[:, None], x[3], out=cand[0]), out=cand[0])
        np.divide(trial, np.maximum(np.abs(trial), 1.0), out=trial)
        _evaluate(forms, cand, cand_f)
        _penalize(cand, cand_f, eps, *terms)
        up = pen.live & (cand_f[2] > f[2])
        improved = cand_f[2] - f[2]
        np.subtract(trial, x[0], out=sy[0])
        np.subtract(x[3], cand[3], out=sy[1])
        ss, s_y = np.matmul(sy[0].conj()[:, None, :], sy[:, :, :, None])[..., 0, 0].real
        bb = np.divide(ss, s_y, out=step * _STEP_UP, where=s_y > 0.0)
        np.copyto(x, cand, where=up[:, None])
        np.copyto(f, cand_f, where=up)
        down = pen.live ^ up
        np.multiply(step, _STEP_DOWN, out=step, where=down)
        np.copyto(step, np.minimum(np.maximum(bb, _STEP_FLOOR, out=bb), _STEP_MAX, out=bb),
                  where=up)
        count += pen.live
        finished = up & (improved <= pen.tol * np.maximum(1.0, np.abs(f[2])))
        finished |= down & (step < _STEP_FLOOR)
        # A stopped row's count is 0, so the budget test needs no live mask.
        ended = finished | (count >= _MAX_ITERS)
        if not ended.any():
            continue
        total += int(count[ended].sum())
        budget_hits += int(np.count_nonzero(ended)) - int(np.count_nonzero(finished))
        again = pen.end_round(ended, f[1], finished)
        count[ended] = 0
        step[again] = _STEP0
        terms = (pen.lam, pen.rho, pen.lam / pen.rho, 0.5 * pen.rho)
        # Rows inside a round get back the value and gradient they hold;
        # rows that start one get the new penalty's.
        _penalize(x, f, eps, *terms)
    return x[0], total, budget_hits, pen


def _lossless(dforms: DiagForms, eps: float, omega: np.ndarray) -> dict:
    """The capped report's keys on the lossless problem (see
    :func:`solve_diagonal_constrained`)."""
    floor = dforms.lossless_floor
    unit = np.abs(np.abs(omega) - 1.0).max() <= STRUCTURE_TOL
    return {"power_kept": float(np.vdot(omega, omega).real) / dforms.r,
            "lossless_floor": floor,
            "lossless_feasible": False if eps < floor else True if unit else None}


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
    cap if a residual violation remains, and the restart with the highest
    computed objective wins, the first of exactly equal values (rounding
    decides ties in exact arithmetic); its objective is the report's whole
    trace.  The box projection and that downward rescale keep
    |omega_i| <= 1 throughout.  In the report, a
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

    Every capped report also says which problem the answer solves:
    ``power_kept`` = ||omega||^2 / r, ``lossless_floor`` (see
    :class:`DiagForms`) and ``lossless_feasible``: False when eps is below
    that floor (no unit-modulus response meets the cap), True when every
    |omega_i| is within ``STRUCTURE_TOL`` of 1 (the answer is lossless),
    None otherwise.
    """
    epsilon_eve = checked_cap(dforms.c_e, epsilon_eve)
    pair = (solve_diagonal_unconstrained(dforms) if warm is None
            else checked_pair(warm, ARCH_DIAGONAL, "warm start"))
    omega0 = np.diag(pair[0].matrix).copy()
    eve0 = _quad(dforms.c_e, omega0)
    bound = min(dforms.lam_b * dforms.r, epsilon_eve * dforms.lam_gen)
    if eve0 <= epsilon_eve:
        return inactive_answer(pair, bound, epsilon_eve, eve0, budget_hits=0,
                               outer_rounds=0, multiplier=0.0,
                               **_lossless(dforms, epsilon_eve, omega0))

    # Unit-scale the forms so the step/penalty constants are magnitude-free.
    s_b, s_e = dforms.lam_b or 1.0, dforms.lam_e or 1.0
    cb, ce, eps = dforms.c_b / s_b, dforms.c_e / s_e, epsilon_eve / s_e

    w, steps, budget_hits, pen = _projected_ascent(
        cb, ce, eps, _into_cap(ce, eps, _starts(omega0)))
    w = _into_cap(ce, eps, w)
    best = int(np.argmax(_quads(cb, w)))
    omega = w[best]
    objective = _quad(dforms.c_b, omega)
    return RisMatrix(np.diag(omega), ARCH_DIAGONAL), capped_report(
        objective, bound, steps, [objective], epsilon_eve=epsilon_eve,
        eve_value=_quad(dforms.c_e, omega), active=True, budget_hits=budget_hits,
        stop_reason="stationary" if pen.converged[best] else "budget",
        outer_rounds=int(pen.rounds[best]), multiplier=float(pen.lam[best]) * s_b / s_e,
        **_lossless(dforms, epsilon_eve, omega))
