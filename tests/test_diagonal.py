"""Diagonal baseline: the Hadamard reduction against the full trace form,
coordinate ascent against a dense phase grid, the capped relaxation against
a general-purpose NLP solver run from many starts and against its
certified bound, and both batched solvers against one-restart-at-a-time
reference loops.
"""
from dataclasses import dataclass

import numpy as np
import pytest
from scipy.linalg import eigh as generalized_eigh
from scipy.optimize import minimize

from conftest import rand_complex

from bdris import diagonal, reporting
from bdris.diagonal import (
    DiagForms,
    diag_forms,
    solve_diagonal_constrained,
    solve_diagonal_unconstrained,
)
from bdris.errors import ContractViolationError, DimensionError
from bdris.model import ARCH_DIAGONAL, QuadraticForms, quad_objective
from bdris.pdd import solve_pdd
from bdris.spectral import solve_nonreciprocal, solve_reciprocal_ao


def rand_forms(rng, r, k=None):
    k = k or max(1, r // 2)
    h = rand_complex(rng, r, k)
    hb = rand_complex(rng, 2 * k, r)
    he = rand_complex(rng, 2 * k, r)
    return QuadraticForms(e_b=hb.conj().T @ hb, h=h, e_e=he.conj().T @ he)


def _quad(c, w):
    return float(np.real(np.vdot(w, c @ w)))


# ------------------------------------------------------ serial reference
# The solvers run their restarts as the rows of one iterate.  These are the
# same methods as plain loops, one restart at a time, reading the same
# module constants (the penalty's from ``bdris.reporting``): the same
# starts, stopping rules, step counts and tie rule.

def _ref_starts(first):
    yield first
    rng = np.random.default_rng(diagonal._SEED)
    for _ in range(diagonal._RESTARTS - 1):
        yield np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, size=first.size))


def _ref_coordinate_ascent(c, omega):
    trace = [_quad(c, omega)]
    converged = False
    passes = 0
    for passes in range(1, diagonal._MAX_PASSES + 1):
        for i in range(omega.size):
            ci = c[i] @ omega - c[i, i] * omega[i]
            mag = abs(ci)
            if mag > 0.0:
                omega[i] = ci / mag
        trace.append(_quad(c, omega))
        if trace[-1] - trace[-2] <= diagonal._CA_REL_TOL * max(1.0, abs(trace[-1])):
            converged = True
            break
    return omega, trace, passes, converged


def ref_unconstrained(c):
    """Best (omega, trace, passes, converged) over the starts."""
    best = None
    for omega0 in _ref_starts(np.ones(c.shape[0], dtype=complex)):
        run = _ref_coordinate_ascent(c, omega0)
        if best is None or run[1][-1] > best[1][-1]:
            best = run
    return best


def _ref_box(omega):
    mags = np.abs(omega)
    return omega / np.where(mags > 1.0, mags, 1.0)


def _ref_weight(e, eps, lam, rho):
    return max(0.0, lam + rho * (e - eps))


def _ref_augmented(cb, ce, eps, lam, rho, omega):
    gap = max(0.0, _quad(ce, omega) - eps + lam / rho)
    return _quad(cb, omega) - 0.5 * rho * gap * gap


def _ref_grad(cb, ce, eps, lam, rho, omega):
    return cb @ omega - _ref_weight(_quad(ce, omega), eps, lam, rho) * (ce @ omega)


def _ref_round(cb, ce, eps, lam, rho, stat_tol, omega):
    """One augmented-Lagrangian round of projected gradient with BB steps."""
    step = diagonal._STEP0
    value = _ref_augmented(cb, ce, eps, lam, rho, omega)
    grad = _ref_grad(cb, ce, eps, lam, rho, omega)
    iters = 0
    for iters in range(1, diagonal._MAX_ITERS + 1):
        cand = _ref_box(omega + step * grad)
        cand_value = _ref_augmented(cb, ce, eps, lam, rho, cand)
        if cand_value > value:
            improved = cand_value - value
            cand_grad = _ref_grad(cb, ce, eps, lam, rho, cand)
            s = cand - omega
            ss = np.vdot(s, s).real
            sy = np.vdot(s, grad - cand_grad).real
            step = ss / sy if sy > 0.0 else step * diagonal._STEP_UP
            step = min(max(step, diagonal._STEP_FLOOR), diagonal._STEP_MAX)
            omega, value, grad = cand, cand_value, cand_grad
            if improved <= stat_tol * max(1.0, abs(value)):
                return omega, iters, True
        else:
            step *= diagonal._STEP_DOWN
            if step < diagonal._STEP_FLOOR:
                return omega, iters, True
    return omega, iters, False


@dataclass
class RefCapped:
    omega: np.ndarray
    objective: float
    steps: list          # gradient steps of each restart
    budget_hits: int     # rounds, over all restarts, that ran out of steps
    converged: bool
    rounds: int          # the winning restart's rounds
    multiplier: float    # its multiplier, in the caller's units


def ref_constrained(dforms, eps, omega0):
    """The capped solve from start ``omega0`` (the uncapped optimum)."""
    def lam_max(c):
        return float(np.linalg.eigvalsh(0.5 * (c + c.conj().T)).max()) or 1.0

    s_b, s_e = lam_max(dforms.c_b), lam_max(dforms.c_e)
    cb, ce, eps_s = dforms.c_b / s_b, dforms.c_e / s_e, eps / s_e
    best, best_value = None, -np.inf
    steps, hits = [], 0
    for omega in _ref_starts(omega0):
        g = _quad(ce, omega)
        if g > eps_s:
            omega = omega * np.sqrt(eps_s / g)
        lam, rho, stat_tol = 0.0, reporting._RHO0 / eps_s, diagonal._STAT_TOL0
        residual = np.inf
        steps.append(0)
        for rounds in range(1, diagonal._MAX_ROUNDS + 1):
            omega, iters, finished = _ref_round(cb, ce, eps_s, lam, rho, stat_tol, omega)
            steps[-1] += iters
            hits += not finished
            e = _quad(ce, omega)
            last, residual = residual, abs(max(e - eps_s, -lam / rho)) / eps_s
            lam = _ref_weight(e, eps_s, lam, rho)
            done = residual <= diagonal._RESIDUAL_TOL and stat_tol <= diagonal._STAT_TOL
            stalled = not (finished and done)
            if finished and done:
                break
            if finished and residual > max(diagonal._RESIDUAL_TOL,
                                           last / reporting._RESIDUAL_FALL):
                rho *= reporting._RHO_GROWTH
            stat_tol = max(diagonal._STAT_TOL, stat_tol * diagonal._STAT_SHRINK)
        g = _quad(ce, omega)
        if g > eps_s:
            omega = omega * np.sqrt(eps_s / g)
        value = _quad(cb, omega)
        if value > best_value:
            best_value = value
            best = (omega, stalled, rounds, lam * s_b / s_e)
    omega, stalled, rounds, multiplier = best
    return RefCapped(omega, _quad(dforms.c_b, omega), steps, hits, not stalled,
                     rounds, multiplier)


def _oracle_cases():
    """One seeded instance for each r = 2..8."""
    rng = np.random.default_rng(31)
    for r in range(2, 9):
        yield diag_forms(rand_forms(rng, r))


_ORACLE_CAPS = (0.1, 0.3, 0.6, 0.9)   # fractions of the uncapped leakage


class TestReduction:
    def test_hadamard_identity(self):
        """tr(D^H E D M) equals omega^H (E o M^T) omega for diagonal D."""
        rng = np.random.default_rng(0)
        for _ in range(20):
            r = int(rng.integers(2, 8))
            forms = rand_forms(rng, r)
            dforms = diag_forms(forms)
            omega = np.exp(1j * rng.uniform(0, 2 * np.pi, size=r))
            full = quad_objective(np.diag(omega), forms.e_b, forms.m)
            assert _quad(dforms.c_b, omega) == pytest.approx(full, rel=1e-10)
            full_e = quad_objective(np.diag(omega), forms.e_e, forms.m)
            assert _quad(dforms.c_e, omega) == pytest.approx(full_e, rel=1e-10)

    def test_reduced_forms_are_psd(self):
        # Schur product of PSD matrices is PSD; the constructor must accept
        # every reduction without complaint.
        rng = np.random.default_rng(1)
        for _ in range(10):
            dforms = diag_forms(rand_forms(rng, int(rng.integers(2, 9))))
            w = np.linalg.eigvalsh(dforms.c_b)
            assert w.min() >= -1e-10 * max(1.0, w.max())

    def test_forms_validation(self):
        with pytest.raises(ContractViolationError):
            DiagForms(c_b=np.ones((2, 3)))
        with pytest.raises(ContractViolationError):
            DiagForms(c_b=np.array([[1.0, 1.0], [0.0, 1.0]]))
        with pytest.raises(ContractViolationError):
            DiagForms(c_b=np.array([[1.0, 2.0], [2.0, 1.0]]))  # eigenvalue -1
        with pytest.raises(ContractViolationError):
            DiagForms(c_b=np.eye(3), c_e=np.eye(2))
        with pytest.raises(DimensionError):
            DiagForms(c_b=np.eye(0))                           # no element (r = 0)

    def test_forms_keep_their_largest_eigenvalues(self, monkeypatch):
        """lam_b and lam_e are kept from the PSD check, and lam_gen is the
        largest generalized eigenvalue of (c_b, c_e); once the forms exist
        neither solver decomposes them again."""
        rng = np.random.default_rng(12)
        df = diag_forms(rand_forms(rng, 5))
        assert df.lam_b == pytest.approx(np.linalg.eigvalsh(df.c_b).max(), rel=1e-12)
        assert df.lam_e == pytest.approx(np.linalg.eigvalsh(df.c_e).max(), rel=1e-12)
        assert DiagForms(c_b=np.eye(2)).lam_e is None
        gen = generalized_eigh(df.c_b, df.c_e, eigvals_only=True)
        assert df.lam_gen == pytest.approx(gen[-1], rel=1e-12)
        warm = solve_diagonal_unconstrained(df)
        eve0 = _quad(df.c_e, np.diag(warm[0].matrix))

        def refuse(*args, **kwargs):
            raise AssertionError("eigendecomposition repeated")

        monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
        monkeypatch.setattr(np.linalg, "eigh", refuse)
        solve_diagonal_unconstrained(df)
        for frac in (0.3, 2.0):
            solve_diagonal_constrained(df, frac * eve0, warm=warm)

    def test_singular_leakage_form_has_no_generalized_bound(self):
        # c_e of rank 1: omega^H c_b omega / omega^H c_e omega is unbounded.
        u = np.array([1.0, 1j, 0.5])
        df = DiagForms(c_b=np.eye(3), c_e=np.outer(u, u.conj()))
        assert df.lam_gen == np.inf
        _, rep = solve_diagonal_constrained(df, 0.1)
        assert rep.bound == pytest.approx(3.0, rel=1e-12)
        # No c_e, or one with cond(c_e) > _BOUND_COND, gives no second
        # bound either; cond(c_e) below it does.
        assert DiagForms(c_b=np.eye(2)).lam_gen == np.inf
        for ratio, gen in ((10.0, np.inf), (0.1, 0.1 * diagonal._BOUND_COND)):
            c_e = np.diag([1.0, 1.0 / (ratio * diagonal._BOUND_COND)])
            assert DiagForms(c_b=np.eye(2), c_e=c_e).lam_gen == pytest.approx(gen, rel=1e-12)


class TestUnconstrained:
    def test_rank_one_all_ones(self):
        # c = 1 1^H: every phase aligned gives r^2, the known maximum.
        df = DiagForms(c_b=np.ones((2, 2), dtype=complex))
        ris, rep = solve_diagonal_unconstrained(df)
        assert rep.objective == pytest.approx(4.0, rel=1e-12)

    def test_diagonal_form_is_phase_invariant(self):
        d = np.array([3.0, 1.5, 0.25])
        df = DiagForms(c_b=np.diag(d).astype(complex))
        ris, rep = solve_diagonal_unconstrained(df)
        assert rep.objective == pytest.approx(d.sum(), rel=1e-12)

    def test_beats_dense_phase_grid(self):
        """Multi-start ascent must match a 16-level exhaustive phase grid
        (first phase pinned; the objective is global-phase invariant)."""
        rng = np.random.default_rng(21)
        levels = np.exp(2j * np.pi * np.arange(16) / 16)
        for _ in range(3):
            g = rand_complex(rng, 5)
            c = g.conj().T @ g
            ris, rep = solve_diagonal_unconstrained(DiagForms(c_b=c))
            grids = np.meshgrid(*([levels] * 4), indexing="ij")
            combos = np.stack(
                [np.ones(16 ** 4, dtype=complex)]
                + [gr.ravel() for gr in grids], axis=1)
            best = np.einsum("bi,ij,bj->b", combos.conj(), c, combos).real.max()
            assert rep.objective >= best * 0.999

    def test_output_contract(self):
        rng = np.random.default_rng(2)
        df = diag_forms(rand_forms(rng, 6))
        ris, rep = solve_diagonal_unconstrained(df)
        assert ris.architecture == ARCH_DIAGONAL
        w = np.diag(ris.matrix)
        assert np.count_nonzero(ris.matrix - np.diag(w)) == 0
        np.testing.assert_allclose(np.abs(w), 1.0, atol=1e-12)
        assert rep.objective <= rep.bound
        trace = rep.cost_trace
        for a, b in zip(trace, trace[1:]):
            assert b >= a - 1e-12 * max(1.0, abs(a))


class TestConstrained:
    def test_validation(self):
        df = DiagForms(c_b=np.eye(3))
        with pytest.raises(ValueError):
            solve_diagonal_constrained(df, 1.0)
        df = DiagForms(c_b=np.eye(3), c_e=np.eye(3))
        # NaN fails every comparison: it must be refused, not run to an
        # all-NaN response reported as converged.
        for eps in (0.0, float("nan")):
            with pytest.raises(ValueError):
                solve_diagonal_constrained(df, eps)

    def test_warm_start_matches_cold_and_is_left_unchanged(self):
        """Passing the uncapped pair as `warm` gives bit-identical results on
        a slack and a binding cap, and the pair passed in is not modified."""
        rng = np.random.default_rng(5)
        df = diag_forms(rand_forms(rng, 5))
        warm = solve_diagonal_unconstrained(df)
        before = warm[1].to_dict()
        eve0 = _quad(df.c_e, np.diag(warm[0].matrix))
        for eps, active in ((2.0 * eve0, False), (0.3 * eve0, True)):
            ris_w, rep_w = solve_diagonal_constrained(df, eps, warm=warm)
            ris_c, rep_c = solve_diagonal_constrained(df, eps)
            assert rep_w.constraint_values["constraint_active"] is active
            np.testing.assert_array_equal(ris_w.matrix, ris_c.matrix)
            assert rep_w.to_dict() == rep_c.to_dict()
            assert rep_w is not warm[1]
            assert warm[1].to_dict() == before
        nonrec = solve_nonreciprocal(rand_forms(rng, 5))
        with pytest.raises(ValueError):
            solve_diagonal_constrained(df, eve0, warm=nonrec)

    def test_slack_cap_passthrough(self):
        rng = np.random.default_rng(3)
        df = diag_forms(rand_forms(rng, 5))
        base, rep0 = solve_diagonal_unconstrained(df)
        eve0 = _quad(df.c_e, np.diag(base.matrix))
        ris, rep = solve_diagonal_constrained(df, 2.0 * eve0)
        assert rep.constraint_values["constraint_active"] is False
        assert rep.constraint_values["budget_hits"] == 0
        assert rep.objective == pytest.approx(rep0.objective, rel=1e-12)
        np.testing.assert_allclose(ris.matrix, base.matrix, atol=0)
        # The uncapped solve's passes are not this call's work.
        assert rep0.iterations > 0
        assert rep.iterations == 0
        assert rep.cost_trace == [rep.objective]

    def test_cap_satisfied_and_reported(self):
        rng = np.random.default_rng(4)
        for _ in range(5):
            df = diag_forms(rand_forms(rng, int(rng.integers(3, 7))))
            base, _ = solve_diagonal_unconstrained(df)
            eve0 = _quad(df.c_e, np.diag(base.matrix))
            eps = 0.25 * eve0
            ris, rep = solve_diagonal_constrained(df, eps)
            assert rep.converged
            cv = rep.constraint_values
            assert cv["constraint_active"] is True
            assert cv["eve_value"] <= eps * (1 + 1e-6)
            # Rounds, over all restarts, that spent every step.
            hits = cv["budget_hits"]
            assert type(hits) is int
            assert 0 <= hits <= diagonal._RESTARTS * diagonal._MAX_ROUNDS
            assert rep.iterations >= hits * diagonal._MAX_ITERS
            # Box projection and the downward rescale onto the cap keep
            # every entry in the unit disc; no clip step is needed.
            w = np.diag(ris.matrix)
            assert np.abs(w).max() <= 1.0 + 1e-15
            assert rep.objective == pytest.approx(
                _quad(df.c_b, w), rel=1e-12)

    def test_matches_slsqp_multistart(self):
        """Within 2% of a 12-start SLSQP solve of the same relaxation."""
        rng = np.random.default_rng(22)
        for _ in range(3):
            gb = rand_complex(rng, 4)
            ge = rand_complex(rng, 4)
            cb, ce = gb.conj().T @ gb, ge.conj().T @ ge
            df = DiagForms(c_b=cb, c_e=ce)
            base, _ = solve_diagonal_unconstrained(df)
            eps = 0.3 * _quad(ce, np.diag(base.matrix))
            ris, rep = solve_diagonal_constrained(df, eps)

            def pack(w):
                return np.concatenate([w.real, w.imag])

            def unpack(x):
                return x[:4] + 1j * x[4:]

            def negobj(x):
                return -_quad(cb, unpack(x))

            cons = [{"type": "ineq",
                     "fun": lambda x: eps - _quad(ce, unpack(x))}]
            for i in range(4):
                cons.append({"type": "ineq",
                             "fun": (lambda i: lambda x: 1.0 - x[i] ** 2
                                     - x[4 + i] ** 2)(i)})
            srng = np.random.default_rng(100)
            best = -np.inf
            for s in range(12):
                if s == 0:
                    x0 = pack(np.diag(ris.matrix))
                else:
                    w = (np.exp(1j * srng.uniform(0, 2 * np.pi, size=4))
                         * srng.uniform(0.2, 1.0, size=4))
                    g = _quad(ce, w)
                    if g > eps:
                        w = w * np.sqrt(eps / g)
                    x0 = pack(w)
                res = minimize(negobj, x0, method="SLSQP", constraints=cons,
                               options={"maxiter": 300, "ftol": 1e-9})
                w = unpack(res.x)
                if (_quad(ce, w) <= eps * 1.001
                        and np.abs(w).max() <= 1.001
                        and -res.fun > best):
                    best = -res.fun
            assert best > -np.inf
            assert rep.objective >= 0.98 * best

    def test_coincident_forms_sit_on_cap(self):
        # c_e = c_b makes objective and leakage the same number, so the
        # solution can only ride the cap.
        rng = np.random.default_rng(6)
        g = rand_complex(rng, 5)
        c = g.conj().T @ g
        df = DiagForms(c_b=c, c_e=c.copy())
        base, _ = solve_diagonal_unconstrained(df)
        eps = 0.5 * _quad(c, np.diag(base.matrix))
        ris, rep = solve_diagonal_constrained(df, eps)
        assert rep.objective == pytest.approx(eps, rel=1e-2)
        assert rep.constraint_values["eve_value"] <= eps * (1 + 1e-6)


class TestCappedBound:
    """The capped report's bound min(r lam_max(c_b), eps lam_gen)."""

    def test_bound_is_certified(self):
        """Above the objective on every oracle instance and cap, slack or
        binding, and equal to its two terms computed independently."""
        checked = 0
        for df in _oracle_cases():
            gen = generalized_eigh(df.c_b, df.c_e, eigvals_only=True)[-1]
            top = np.linalg.eigvalsh(df.c_b).max() * df.r
            warm = solve_diagonal_unconstrained(df)
            eve0 = _quad(df.c_e, np.diag(warm[0].matrix))
            for frac in _ORACLE_CAPS + (2.0,):
                eps = frac * eve0
                _, rep = solve_diagonal_constrained(df, eps, warm=warm)
                assert rep.bound == pytest.approx(min(top, eps * gen), rel=1e-10)
                assert rep.objective <= rep.bound
                checked += 1
        assert checked == 7 * (len(_ORACLE_CAPS) + 1)

    def test_bound_is_attained_where_the_eigenvector_fits(self):
        """Where sqrt(eps) v fits the box (v the top generalized eigenvector,
        v^H c_e v = 1) it is feasible and meets the bound to 1e-9, so the
        bound is the optimum; the solver reaches it, and its multiplier is
        the generalized eigenvalue."""
        rng = np.random.default_rng(12)
        checked = 0
        for r in range(2, 9):
            df = diag_forms(rand_forms(rng, r))
            if not np.isfinite(df.lam_gen):
                continue   # c_e singular: the second term does not apply
            vals, vecs = generalized_eigh(df.c_b, df.c_e)
            v = vecs[:, -1]
            eps = 0.5 / np.abs(v).max() ** 2
            omega = np.sqrt(eps) * v
            assert _quad(df.c_e, omega) == pytest.approx(eps, rel=1e-12)
            _, rep = solve_diagonal_constrained(df, eps)
            assert rep.constraint_values["constraint_active"] is True
            assert _quad(df.c_b, omega) == pytest.approx(rep.bound, rel=1e-9)
            assert rep.objective <= rep.bound
            assert rep.objective >= rep.bound * (1 - 1e-6)
            assert rep.constraint_values["multiplier"] == pytest.approx(vals[-1], rel=1e-3)
            checked += 1
        assert checked >= 5


class TestBatchedRestarts:
    """The batched solvers against the serial reference loops above."""

    def test_unconstrained_matches_serial_reference(self):
        for df in _oracle_cases():
            ris, rep = solve_diagonal_unconstrained(df)
            omega, trace, passes, conv = ref_unconstrained(df.c_b)
            assert rep.objective == pytest.approx(trace[-1], rel=1e-9)
            np.testing.assert_allclose(np.diag(ris.matrix), omega, rtol=0, atol=1e-9)
            assert rep.iterations == passes
            assert rep.converged is conv
            assert len(rep.cost_trace) == passes + 1

    def test_constrained_matches_serial_reference(self):
        checked = 0
        for df in _oracle_cases():
            warm = solve_diagonal_unconstrained(df)
            omega0 = np.diag(warm[0].matrix)
            eve0 = _quad(df.c_e, omega0)
            for frac in _ORACLE_CAPS:
                eps = frac * eve0
                ris, rep = solve_diagonal_constrained(df, eps, warm=warm)
                ref = ref_constrained(df, eps, omega0.copy())
                cv = rep.constraint_values
                assert cv["constraint_active"] is True
                assert rep.objective == pytest.approx(ref.objective, rel=1e-9)
                np.testing.assert_allclose(np.diag(ris.matrix), ref.omega,
                                           rtol=0, atol=1e-9)
                assert cv["eve_value"] <= eps * (1 + 1e-12)
                assert rep.iterations == sum(ref.steps)
                assert cv["budget_hits"] == ref.budget_hits
                assert rep.converged is ref.converged
                checked += 1
        assert checked == 7 * len(_ORACLE_CAPS)

    def test_rounds_and_multiplier_match_serial_reference(self):
        """The winning restart's round count and multiplier (caller's units)."""
        for df in _oracle_cases():
            warm = solve_diagonal_unconstrained(df)
            omega0 = np.diag(warm[0].matrix)
            eps = 0.3 * _quad(df.c_e, omega0)
            _, rep = solve_diagonal_constrained(df, eps, warm=warm)
            ref = ref_constrained(df, eps, omega0.copy())
            rounds = rep.constraint_values["outer_rounds"]
            assert type(rounds) is int
            assert rounds == ref.rounds
            assert 1 <= rounds <= diagonal._MAX_ROUNDS
            assert rep.constraint_values["multiplier"] > 0.0
            assert rep.constraint_values["multiplier"] == pytest.approx(
                ref.multiplier, rel=1e-12)

    def test_finished_restarts_stay_frozen(self, monkeypatch):
        """With one restart the solvers are the reference run from start 0;
        with three, start 0 keeps that path (the best can only improve) and
        the step count is the sum of the three lone runs, so a restart that
        has stopped neither moves nor counts further steps."""
        rng = np.random.default_rng(9)
        df = diag_forms(rand_forms(rng, 6))
        warm = solve_diagonal_unconstrained(df)
        omega0 = np.diag(warm[0].matrix)
        eps = 0.3 * _quad(df.c_e, omega0)
        capped, uncapped = {}, {}
        for restarts in (1, 3):
            monkeypatch.setattr(diagonal, "_RESTARTS", restarts)
            ref = ref_constrained(df, eps, omega0.copy())
            _, rep = solve_diagonal_constrained(df, eps, warm=warm)
            assert rep.objective == pytest.approx(ref.objective, rel=1e-9)
            assert rep.iterations == sum(ref.steps)
            capped[restarts] = (rep, ref)
            _, trace, passes, _ = ref_unconstrained(df.c_b)
            _, rep_u = solve_diagonal_unconstrained(df)
            assert rep_u.objective == pytest.approx(trace[-1], rel=1e-9)
            assert rep_u.iterations == passes
            uncapped[restarts] = rep_u
        (one, _), (three, ref_three) = capped[1], capped[3]
        assert len(ref_three.steps) == 3
        assert ref_three.steps[0] == one.iterations
        assert three.objective >= one.objective
        assert uncapped[3].objective >= uncapped[1].objective

    def test_budget_hits_count_exhausted_rounds(self, monkeypatch):
        """A step budget too small to finish a round: every exhausted round,
        over all restarts, is counted, as the reference counts them."""
        monkeypatch.setattr(diagonal, "_MAX_ITERS", 40)
        rng = np.random.default_rng(10)
        df = diag_forms(rand_forms(rng, 5))
        warm = solve_diagonal_unconstrained(df)
        omega0 = np.diag(warm[0].matrix)
        eps = 0.3 * _quad(df.c_e, omega0)
        _, rep = solve_diagonal_constrained(df, eps, warm=warm)
        ref = ref_constrained(df, eps, omega0.copy())
        hits = rep.constraint_values["budget_hits"]
        assert hits == ref.budget_hits > 0
        assert rep.iterations == sum(ref.steps)
        assert rep.converged is ref.converged


class TestStopReason:
    def test_reason_follows_the_winning_restart(self, monkeypatch):
        """``stationary`` when the winning restart met its stopping rule,
        ``budget`` when it ran out of passes or steps; an inactive cap
        passes on the warm solve's reason."""
        rng = np.random.default_rng(11)
        df = diag_forms(rand_forms(rng, 5))

        def reasons(warm):
            eve0 = _quad(df.c_e, np.diag(warm[0].matrix))
            return [(rep.converged, rep.constraint_values["stop_reason"])
                    for _, rep in (warm,
                                   solve_diagonal_constrained(df, 2.0 * eve0, warm=warm),
                                   solve_diagonal_constrained(df, 0.3 * eve0, warm=warm))]

        assert reasons(solve_diagonal_unconstrained(df)) == [(True, "stationary")] * 3
        monkeypatch.setattr(diagonal, "_MAX_PASSES", 1)
        monkeypatch.setattr(diagonal, "_MAX_ITERS", 1)
        assert reasons(solve_diagonal_unconstrained(df)) == [(False, "budget")] * 3


class TestArchitectureOrdering:
    def test_diagonal_below_reciprocal_below_nonreciprocal(self):
        """The three feasible sets nest, so the optima must order."""
        rng = np.random.default_rng(7)
        for _ in range(5):
            forms = rand_forms(rng, 6)
            _, rep_d = solve_diagonal_unconstrained(diag_forms(forms))
            _, rep_r = solve_reciprocal_ao(forms)
            _, rep_n = solve_nonreciprocal(forms)
            assert rep_d.objective <= rep_r.objective * (1 + 1e-9)
            assert rep_r.objective <= rep_n.objective * (1 + 1e-9)

    def test_capped_ordering(self):
        rng = np.random.default_rng(8)
        forms = rand_forms(rng, 6)
        base_n, _ = solve_nonreciprocal(forms)
        eve0 = quad_objective(base_n.matrix, forms.e_e, forms.m)
        eps = 0.35 * eve0
        _, rep_n = solve_nonreciprocal(forms, eps)
        _, rep_r = solve_pdd(forms, eps)
        _, rep_d = solve_diagonal_constrained(diag_forms(forms), eps)
        assert rep_n.converged and rep_r.converged and rep_d.converged
        # The non-reciprocal value is a certified optimum over all unitaries,
        # a superset of the symmetric ones.  The diagonal relaxation is not
        # unitary, so it keeps slack.
        assert rep_r.objective <= rep_n.objective * (1 + 1e-9)
        assert rep_d.objective <= rep_n.objective * 1.01
