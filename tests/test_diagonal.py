"""Diagonal baseline: the Hadamard reduction against the full trace form,
coordinate ascent against a dense phase grid, and the capped relaxation
against a general-purpose NLP solver run from many starts.
"""
import numpy as np
import pytest
from scipy.optimize import minimize

from conftest import rand_complex

from bdris.diagonal import (
    DiagForms,
    diag_forms,
    solve_diagonal_constrained,
    solve_diagonal_unconstrained,
)
from bdris.errors import ContractViolationError
from bdris.model import ARCH_DIAGONAL, QuadraticForms, quad_objective
from bdris.pdd import solve_pdd, PddSettings
from bdris.spectral import solve_nonreciprocal, solve_reciprocal_ao


def rand_forms(rng, r, k=None):
    k = k or max(1, r // 2)
    h = rand_complex(rng, r, k)
    hb = rand_complex(rng, 2 * k, r)
    he = rand_complex(rng, 2 * k, r)
    return QuadraticForms(e_b=hb.conj().T @ hb, m=h @ h.conj().T, h=h,
                          e_e=he.conj().T @ he)


def _quad(c, w):
    return float(np.real(np.vdot(w, c @ w)))


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
        with pytest.raises(ValueError):
            solve_diagonal_constrained(df, 0.0)

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
        assert rep.objective == pytest.approx(rep0.objective, rel=1e-12)
        np.testing.assert_allclose(ris.matrix, base.matrix, atol=0)

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
        _, rep_r = solve_pdd(forms, PddSettings(epsilon_eve=eps))
        _, rep_d = solve_diagonal_constrained(diag_forms(forms), eps)
        assert rep_n.converged and rep_r.converged and rep_d.converged
        # The non-reciprocal value is a certified optimum over all unitaries,
        # a superset of the symmetric ones.  The diagonal relaxation is not
        # unitary, so it keeps slack.
        assert rep_r.objective <= rep_n.objective * (1 + 1e-9)
        assert rep_d.objective <= rep_n.objective * 1.01
