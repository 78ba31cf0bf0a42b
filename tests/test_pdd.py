"""Leakage-capped solvers: the QCQP projection against hand-worked KKT
points and an eigensolver-free oracle, its bisected multiplier against a
reference bisection, the split-problem block updates against the direct
augmented-Lagrangian evaluation, and the capped solvers (the reciprocal
augmented Lagrangian and the non-reciprocal dual search) against random
feasible-unitary search, a frozen small instance, their dual certificate,
both degenerate regimes (coincident Bob/Eve forms; a cap below the
feasibility floor) and the seeded degenerate cases of ``capped_cases``,
one of them also under other OpenBLAS kernels.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import brentq

from conftest import (
    batch_haar,
    batch_trace_objective,
    capped_cases,
    haar_unitary,
    rand_complex,
)

from bdris.diagonal import (
    diag_forms,
    solve_diagonal_constrained,
    solve_diagonal_unconstrained,
)
from bdris.errors import ContractViolationError
from bdris.kernels import HermEig, hermitian_eig, nearest_symmetric_unitary
from bdris.model import (
    ARCH_NONRECIPROCAL,
    ARCH_RECIPROCAL,
    QuadraticForms,
    SystemConfig,
    build_forms,
    generate_channels,
    quad_objective,
)
import bdris.pdd as pdd
from bdris.pdd import (
    PddState,
    qcqp_spectral,
    solve_pdd,
    update_omega,
    update_psi,
)
from bdris.spectral import solve_nonreciprocal, solve_reciprocal_ao
from bdris.tolerances import ARCH_CHECK_TOL


def rand_forms(rng, r, k=None, n_b=None, n_e=None):
    k = k or max(1, r // 2)
    n_b = n_b or 2 * k
    n_e = n_e or n_b
    h = rand_complex(rng, r, k)
    hb = rand_complex(rng, n_b, r)
    he = rand_complex(rng, n_e, r)
    return QuadraticForms(e_b=hb.conj().T @ hb, h=h, e_e=he.conj().T @ he)


def rand_state(rng, r, rho=1.0, symmetric=False):
    u = haar_unitary(rng, r)
    if symmetric:
        u = nearest_symmetric_unitary(u)
    return PddState(omega=u, psi=u.copy(),
                    lam=np.zeros((r, r), dtype=complex), rho=rho)


class TestQcqpSpectral:
    def test_hand_worked_active(self):
        # A = I, b = (2, 0), eps = 1: shrink uniformly by 1/(1+mu) with
        # |2/(1+mu)|^2 = 1, so mu = 1 and x = (1, 0).
        eig = HermEig(values=np.ones(2), vectors=np.eye(2, dtype=complex))
        x, mu = qcqp_spectral(np.array([2.0, 0.0], dtype=complex), eig, 1.0,
                              return_multiplier=True)
        assert mu == pytest.approx(1.0, abs=1e-9)
        np.testing.assert_allclose(x, [1.0, 0.0], atol=1e-9)

    def test_hand_worked_boundary_feasible(self):
        # A = diag(0, 1), b = (5, 5), eps = 25: the weighted norm is exactly
        # 25, so b is feasible and must come back untouched with mu = 0.
        eig = hermitian_eig(np.diag([0.0, 1.0]).astype(complex))
        b = np.array([5.0, 5.0], dtype=complex)
        x, mu = qcqp_spectral(b, eig, 25.0, return_multiplier=True)
        assert mu == 0.0
        np.testing.assert_allclose(x, b, atol=1e-12)

    def test_identity_is_ball_projection(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            n = int(rng.integers(2, 8))
            b = rand_complex(rng, n, 1).ravel()
            eps = 0.3 * float(np.vdot(b, b).real)
            eig = HermEig(values=np.ones(n), vectors=np.eye(n, dtype=complex))
            x, mu = qcqp_spectral(b, eig, eps, return_multiplier=True)
            scale = np.sqrt(eps) / np.linalg.norm(b)
            np.testing.assert_allclose(x, b * scale, rtol=1e-8)
            assert mu == pytest.approx(1.0 / scale - 1.0, rel=1e-8)

    def test_multiplier_matches_brentq(self):
        """The bisected multiplier agrees with an independent root finder."""
        rng = np.random.default_rng(3)
        for _ in range(10):
            n = int(rng.integers(2, 7))
            g = rand_complex(rng, n)
            a = g.conj().T @ g
            b = rand_complex(rng, n, 1).ravel()
            eps = 0.2 * float(np.vdot(b, a @ b).real)
            eig = hermitian_eig(a)
            x, mu = qcqp_spectral(b, eig, eps, return_multiplier=True)
            lam = eig.values
            w = np.abs(eig.vectors.conj().T @ b) ** 2

            def res(m):
                return float(lam @ (w / (1.0 + m * lam) ** 2)) - eps

            hi = 1.0
            while res(hi) > 0:
                hi *= 2.0
            mu_ref = brentq(res, 0.0, hi, xtol=1e-14, rtol=1e-14)
            assert mu == pytest.approx(mu_ref, rel=1e-6)
            # KKT stationarity: (I + mu A) x = b in the original basis.
            resid = np.linalg.norm(x + mu * (a @ x) - b)
            assert resid <= 1e-9 * np.linalg.norm(b)

    def test_complementary_slackness(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            n = int(rng.integers(2, 7))
            g = rand_complex(rng, n)
            a = g.conj().T @ g
            b = rand_complex(rng, n, 1).ravel()
            eps = 0.1 * float(np.vdot(b, a @ b).real)
            x, mu = qcqp_spectral(b, hermitian_eig(a), eps,
                                  return_multiplier=True)
            value = float(np.vdot(x, a @ x).real)
            assert value <= eps * (1 + 1e-8)
            assert mu * abs(value - eps) <= eps * 1e-9

    def test_tiny_cap_needs_large_multiplier(self):
        # eps orders of magnitude below b^H A b puts the multiplier far from
        # mu = 0; the shrunk point must still sit on the constraint.
        rng = np.random.default_rng(5)
        g = rand_complex(rng, 5)
        a = g.conj().T @ g
        b = rand_complex(rng, 5, 1).ravel()
        quad = float(np.vdot(b, a @ b).real)
        eps = 1e-9 * quad
        x, mu = qcqp_spectral(b, hermitian_eig(a), eps, return_multiplier=True)
        assert mu > 1e3
        value = float(np.vdot(x, a @ x).real)
        assert value <= eps * (1 + 1e-6)
        assert value >= eps * (1 - 1e-6)

    def test_rejects_indefinite_constraint(self):
        eig = hermitian_eig(np.diag([1.0, -0.5]).astype(complex))
        with pytest.raises(ContractViolationError):
            qcqp_spectral(np.array([1.0, 1.0], dtype=complex), eig, 1.0)

    def test_rejects_nonpositive_cap(self):
        # NaN fails every comparison: it must be refused, not read as a
        # slack cap that returns b with mu = 0.
        eig = HermEig(values=np.ones(2), vectors=np.eye(2, dtype=complex))
        for eps in (0.0, float("nan")):
            with pytest.raises(ValueError):
                qcqp_spectral(np.ones(2, dtype=complex), eig, eps)


def bisect_multiplier(lam, weights, eps):
    """Reference root of sum lam w / (1 + mu lam)^2 = eps: bracket doubling
    then 200 halvings, far below any tolerance the solver works to."""
    def res(mu):
        return float(lam @ (weights / (1.0 + mu * lam) ** 2)) - eps

    hi = 1.0
    while res(hi) > 0.0:
        hi *= 2.0
    lo = 0.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if res(mid) > 0.0 else (lo, mid)
    return 0.5 * (lo + hi)


def secular_cases():
    """(name, lam, weights, eps) with the cap below the unconstrained leakage."""
    rng = np.random.default_rng(21)
    n = 300
    cases = []
    for lo, hi in ((0, 0), (-12, 6), (-6, 6), (0, 6)):
        lam = 10.0 ** rng.uniform(lo, hi, n)
        w = rng.exponential(size=n)
        leak = float(lam @ w)
        for frac in (1 - 1e-9, 0.5, 1e-3, 1e-9):
            cases.append((f"lam 1e{lo}..1e{hi}, cap {frac:.10g}", lam, w,
                          frac * leak))
    lam = 10.0 ** rng.uniform(-3, 3, n)
    w = rng.exponential(size=n)
    lam[::3] = 0.0        # zero eigenvalues: free coordinates
    w[1::5] = 0.0         # zero weights: nothing to shrink
    for frac in (0.9, 1e-6):
        cases.append((f"zero lam and weights, cap {frac:g}", lam, w,
                      frac * float(lam @ w)))
    lam = np.zeros(n)
    lam[7] = 2.0          # one active term: mu = (sqrt(lam w / eps) - 1) / lam
    cases.append(("single active term", lam, w, 1e-4 * lam[7] * w[7]))
    lam = 10.0 ** rng.uniform(0, 3, n)
    lam[0] = 1e-320       # 1 / lam overflows
    cases.append(("denormal lam", lam, w, 0.5 * float(lam @ w)))
    return cases


class TestSecularSolve:
    """The bisected multiplier of the capped projection."""

    @pytest.mark.parametrize("name,lam,w,eps", secular_cases(),
                             ids=[c[0] for c in secular_cases()])
    def test_newton_against_bisection(self, name, lam, w, eps):
        """The multiplier, bisected from its closed-form bracket, matches
        the reference bisection to rounding, and the point is feasible to a
        few ulps (the case ids keep the name of the Newton solve that the
        bisection replaced)."""
        ulp = np.finfo(float).eps
        coeff = np.sqrt(w) * np.exp(1j * np.arange(w.size))
        w = np.abs(coeff) ** 2
        shrunk, mu = pdd._kkt_shrink(lam, coeff, eps)
        assert mu > 0.0
        np.testing.assert_allclose(shrunk, coeff / (1.0 + mu * lam), rtol=1e-15)
        assert float(lam @ np.abs(shrunk) ** 2) <= eps * (1.0 + 4.0 * ulp)
        # Rounding of the constraint value bounds the multiplier error
        # through f'.
        mu_ref = bisect_multiplier(lam, w, eps)
        slope = 2.0 * float(lam ** 2 @ (w / (1.0 + mu_ref * lam) ** 3))
        assert abs(mu - mu_ref) <= 8.0 * ulp * (eps / slope + mu_ref)

    def test_feasible_point_is_untouched(self):
        rng = np.random.default_rng(22)
        lam = 10.0 ** rng.uniform(-6, 6, 50)
        coeff = rand_complex(rng, 50, 1).ravel()
        leak = float(lam @ np.abs(coeff) ** 2)
        for eps in (leak, 2.0 * leak):
            shrunk, mu = pdd._kkt_shrink(lam, coeff, eps)
            assert mu == 0.0
            np.testing.assert_array_equal(shrunk, coeff)


class TestBlockUpdates:
    def test_lagrangian_never_increases(self):
        """Both block minimizers are exact, so L must be non-increasing from
        a symmetric-unitary start."""

        def lagrangian(state, forms):
            # L = -Re tr(Omega^H E_b Psi M) + ||Omega - Psi||_F^2 / (2 rho)
            #     + Re tr(Lambda^H (Omega - Psi))
            diff = state.omega - state.psi
            return float(
                -np.vdot(state.omega, forms.e_b @ state.psi @ forms.m).real
                + np.sum(np.abs(diff) ** 2) / (2.0 * state.rho)
                + np.vdot(state.lam, diff).real)

        rng = np.random.default_rng(6)
        eps = 1.0
        for _ in range(10):
            r = int(rng.integers(3, 6))
            forms = rand_forms(rng, r)
            # Unit-scale copies so the additive tolerance is meaningful.
            forms = QuadraticForms(
                e_b=forms.e_b / hermitian_eig(forms.e_b).values[0],
                h=forms.h / np.sqrt(hermitian_eig(forms.m).values[0]),
                e_e=forms.e_e / hermitian_eig(forms.e_e).values[0])
            state = rand_state(rng, r, symmetric=True)
            level = lagrangian(state, forms)
            for _ in range(30):
                state = update_omega(state, forms)
                now = lagrangian(state, forms)
                assert now <= level + 1e-10 * max(1.0, abs(level))
                level = now
                state = update_psi(state, forms, eps)
                now = lagrangian(state, forms)
                assert now <= level + 1e-10 * max(1.0, abs(level))
                level = now

    def test_omega_update_zero_rho_returns_psi(self):
        rng = np.random.default_rng(7)
        psi = nearest_symmetric_unitary(haar_unitary(rng, 4))
        state = PddState(omega=np.eye(4, dtype=complex), psi=psi,
                         lam=rand_complex(rng, 4), rho=0.0)
        forms = rand_forms(rng, 4)
        out = update_omega(state, forms)
        np.testing.assert_allclose(out.omega, psi, atol=1e-12)

    def test_omega_update_reciprocal_is_symmetric_unitary(self):
        rng = np.random.default_rng(8)
        for _ in range(5):
            forms = rand_forms(rng, 5)
            state = rand_state(rng, 5, rho=0.5)
            state.psi = haar_unitary(rng, 5)
            out = update_omega(state, forms)
            assert np.linalg.norm(out.omega - out.omega.T) <= 1e-9
            gram = out.omega.conj().T @ out.omega
            assert np.linalg.norm(gram - np.eye(5)) <= 1e-9

    def test_psi_update_needs_eavesdropper_forms(self):
        rng = np.random.default_rng(8)
        forms = rand_forms(rng, 3)
        forms = QuadraticForms(e_b=forms.e_b, h=forms.h)
        with pytest.raises(ValueError, match="e_e"):
            update_psi(rand_state(rng, 3), forms, 1.0)

    def test_psi_update_enforces_cap(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            r = int(rng.integers(3, 6))
            forms = rand_forms(rng, r)
            eve0 = quad_objective(np.eye(r, dtype=complex), forms.e_e, forms.m)
            eps = 0.05 * eve0
            state = rand_state(rng, r, rho=0.7)
            out = update_psi(state, forms, eps)
            leak = quad_objective(out.psi, forms.e_e, forms.m)
            assert leak <= eps * (1 + 1e-8)

    def test_psi_update_slack_cap_reproduces_target(self):
        # With a huge cap the projection is the identity map on its target.
        rng = np.random.default_rng(10)
        forms = rand_forms(rng, 4)
        state = rand_state(rng, 4, rho=0.3)
        eps = 1e12
        target = state.omega + state.rho * (
            forms.e_b.conj().T @ state.omega @ forms.m.conj().T + state.lam)
        out = update_psi(state, forms, eps)
        np.testing.assert_allclose(out.psi, target, atol=1e-10)

    def test_psi_update_matches_explicit_kronecker(self):
        """The r^2 x r^2 constraint matrix, when actually formed, gives the
        same projection as the congruence shortcut."""
        rng = np.random.default_rng(11)
        for r in (2, 3, 4):
            forms = rand_forms(rng, r)
            eve0 = quad_objective(np.eye(r, dtype=complex), forms.e_e, forms.m)
            eps = 0.1 * eve0
            state = rand_state(rng, r, rho=0.8)
            state.lam = 0.1 * rand_complex(rng, r)
            fast = update_psi(state, forms, eps).psi

            target = state.omega + state.rho * (
                forms.e_b.conj().T @ state.omega @ forms.m.conj().T + state.lam)
            big = np.kron(forms.m.T, forms.e_e)
            x = qcqp_spectral(target.ravel(order="F"), hermitian_eig(big), eps)
            slow = x.reshape((r, r), order="F")
            np.testing.assert_allclose(fast, slow, rtol=1e-9, atol=1e-9)


class TestSolvePdd:
    def test_settings_validation(self):
        rng = np.random.default_rng(14)
        forms = rand_forms(rng, 3)
        for eps in (-1.0, 0.0, float("nan")):
            with pytest.raises(ValueError):
                solve_pdd(forms, eps)
        # The cap is the only setting; the solver's constants are not knobs.
        with pytest.raises(TypeError):
            solve_pdd(forms, 1.0, max_outer=0)

    def test_requires_eavesdropper_forms(self):
        rng = np.random.default_rng(15)
        forms = rand_forms(rng, 3)
        forms = QuadraticForms(e_b=forms.e_b, h=forms.h, e_e=None)
        with pytest.raises(ValueError):
            solve_pdd(forms, 1.0)
        with pytest.raises(ValueError):
            solve_nonreciprocal(forms, 1.0)

    def test_warm_start_architecture_mismatch(self):
        rng = np.random.default_rng(16)
        forms = rand_forms(rng, 3)
        base, rep = solve_nonreciprocal(forms)
        assert base.architecture == ARCH_NONRECIPROCAL
        with pytest.raises(ValueError):
            solve_pdd(forms, 1.0, warm=(base, rep))

    def test_slack_cap_returns_unconstrained_optimum(self):
        rng = np.random.default_rng(17)
        forms = rand_forms(rng, 4)
        base, rep0 = solve_nonreciprocal(forms)
        eve0 = quad_objective(base.matrix, forms.e_e, forms.m)
        ris, rep = solve_nonreciprocal(forms, 2.0 * eve0)
        assert rep.converged
        assert rep.iterations == 0
        assert rep.constraint_values["constraint_active"] is False
        assert rep.constraint_values["dual_bound"] == rep.bound
        assert rep.objective == rep0.objective
        np.testing.assert_array_equal(ris.matrix, base.matrix)

    def test_report_counts(self, monkeypatch):
        """Counts are integers, the activity flag a bool, the stop reason
        one of the documented ones, and a round budget that runs out flags
        the cell instead of passing it off as converged."""
        cfg = SystemConfig(k=1, r=3, n_b=2, n_e=2, seed=2)
        forms = build_forms(generate_channels(cfg))
        base = solve_reciprocal_ao(forms)
        eve0 = quad_objective(base[0].matrix, forms.e_e, forms.m)

        _, rep = solve_pdd(forms, 2.0 * eve0, warm=base)
        cv = rep.constraint_values
        assert cv["constraint_active"] is False
        assert cv["outer_rounds"] == 0 and rep.iterations == 0
        assert cv["stop_reason"] == base[1].constraint_values["stop_reason"]

        eps = 0.3 * eve0
        _, rep = solve_pdd(forms, eps, warm=base)
        cv = rep.constraint_values
        assert cv["constraint_active"] is True
        assert type(cv["outer_rounds"]) is int and type(rep.iterations) is int
        assert rep.converged and cv["stop_reason"] == "stationary"
        assert 0 < cv["outer_rounds"] <= pdd._MAX_ROUNDS
        assert len(rep.cost_trace) == cv["outer_rounds"]
        assert cv["grad_norm"] <= pdd._INNER_TOL_MIN
        for gone in ("equality_violation", "restarts", "inner_budget_hits",
                     "eve_value_psi", "final_step"):
            assert gone not in cv
        assert "violation_trace" not in rep.to_dict()

        monkeypatch.setattr(pdd, "_MAX_ROUNDS", 2)
        _, rep = solve_pdd(forms, eps, warm=base)
        cv = rep.constraint_values
        assert not rep.converged
        assert cv["stop_reason"] == "budget" and cv["outer_rounds"] == 2

    def test_frozen_small_instance(self):
        """k=1, r=3 draw: warm-start values and the capped optimum are
        frozen; the optimum meets the cap and its dual bound."""
        cfg = SystemConfig(k=1, r=3, n_b=2, n_e=2, seed=2)
        forms = build_forms(generate_channels(cfg))
        base, rep0 = solve_nonreciprocal(forms)
        assert rep0.objective == pytest.approx(1087.7356367151904, rel=1e-9)
        eve0 = quad_objective(base.matrix, forms.e_e, forms.m)
        assert eve0 == pytest.approx(891.0127152169596, rel=1e-9)

        eps = 0.3 * eve0
        ris, rep = solve_nonreciprocal(forms, eps)
        assert rep.converged
        assert rep.objective == pytest.approx(996.88289498220, rel=1e-9)
        assert rep.objective >= 996.8748853496576   # the earlier PDD value
        assert rep.objective == pytest.approx(
            quad_objective(ris.matrix, forms.e_b, forms.m), rel=1e-12)
        cv = rep.constraint_values
        assert cv["constraint_active"] is True
        assert eps * (1 - 1e-9) <= cv["eve_value"] <= eps * (1 + 1e-9)
        assert cv["dual_bound"] - rep.objective <= 1e-9 * cv["dual_bound"]
        # The bound is the dual function at the reported multiplier.
        mu = cv["multiplier"]
        assert mu > 0.0
        d_l = np.linalg.eigvalsh(forms.e_b - mu * forms.e_e)[::-1]
        d_m = np.linalg.eigvalsh(forms.m)[::-1]
        assert cv["dual_bound"] == pytest.approx(d_l @ d_m + mu * eps, rel=1e-12)

    def test_beats_random_feasible_unitaries(self):
        rng = np.random.default_rng(11)
        h = rand_complex(rng, 4, 2)
        hb = rand_complex(rng, 4)
        he = rand_complex(rng, 4)
        forms = QuadraticForms(e_b=hb.conj().T @ hb, h=h, e_e=he.conj().T @ he)
        base, rep0 = solve_nonreciprocal(forms)
        eps = 0.4 * quad_objective(base.matrix, forms.e_e, forms.m)
        ris, rep = solve_nonreciprocal(forms, eps)
        assert rep.converged

        u = batch_haar(rng, 20000, 4)
        bob = batch_trace_objective(u, forms.e_b, forms.m)
        eve = batch_trace_objective(u, forms.e_e, forms.m)
        feasible = eve <= eps
        assert feasible.any()
        assert rep.objective >= bob[feasible].max()

    def test_final_iterate_invariants(self):
        rng = np.random.default_rng(18)
        for reciprocal in (False, True):
            forms = rand_forms(rng, 5)
            base = (solve_reciprocal_ao(forms) if reciprocal
                    else solve_nonreciprocal(forms))
            eve0 = quad_objective(base[0].matrix, forms.e_e, forms.m)
            for frac in (0.1, 0.5):
                eps = frac * eve0
                if reciprocal:
                    ris, rep = solve_pdd(forms, eps, warm=base)
                else:
                    ris, rep = solve_nonreciprocal(forms, eps)
                assert rep.converged
                w = ris.matrix
                gram = w.conj().T @ w
                assert np.linalg.norm(gram - np.eye(5)) <= (
                    1e-6 if reciprocal else 1e-12)
                if reciprocal:
                    assert np.linalg.norm(w - w.T) == 0.0
                leak = quad_objective(w, forms.e_e, forms.m)
                assert leak <= eps * (1 + 1e-9)
                assert rep.objective == pytest.approx(
                    quad_objective(w, forms.e_b, forms.m), rel=1e-12)

    def test_coincident_forms_converges_via_restart(self):
        """Eve sharing Bob's quadratic form makes objective and leakage one
        number, so the capped optimum is the cap itself, which the dual
        search meets exactly.  These forms once locked the reciprocal split
        solver in a sign-invariant manifold that only a restart left; the
        augmented Lagrangian must meet both caps without one."""
        rng = np.random.default_rng(4)
        h = rand_complex(rng, 4, 2)
        hb = rand_complex(rng, 2, 4)
        e = hb.conj().T @ hb
        forms = QuadraticForms(e_b=e, h=h, e_e=e.copy())
        base, rep0 = solve_nonreciprocal(forms)
        eps = 0.5 * rep0.objective

        ris, rep = solve_nonreciprocal(forms, eps)
        assert rep.converged
        assert rep.objective == pytest.approx(eps, rel=1e-9)
        assert rep.constraint_values["eve_value"] <= eps * (1 + 1e-9)

        ris_r, rep_r = solve_pdd(forms, eps)
        assert rep_r.converged
        assert rep_r.objective <= eps * (1 + 1e-9)

        # A looser cap on the same forms froze the split solver's iterates.
        eps = 0.8 * rep0.objective
        ris_r, rep_r = solve_pdd(forms, eps)
        assert rep_r.converged
        assert rep_r.objective <= eps * (1 + 1e-9)

    def test_infeasible_cap_reports_failure(self):
        """A cap below the spectral feasibility floor cannot be met; the
        solver must say so rather than raise or pretend."""
        cfg = SystemConfig(k=2, r=3, n_b=4, n_e=2, seed=5)
        forms = build_forms(generate_channels(cfg))
        d_e = hermitian_eig(forms.e_e).values
        d_m = hermitian_eig(forms.m).values
        floor = float(np.sort(d_e) @ np.sort(d_m)[::-1])
        assert floor > 0

        ris, rep = solve_nonreciprocal(forms, 0.5 * floor)
        assert not rep.converged
        cv = rep.constraint_values
        assert cv["constraint_active"] is True
        assert "dual_bound" not in cv
        # Nothing meets the cap: the response returned is the floor's.
        assert cv["eve_value"] == pytest.approx(floor, rel=1e-9)
        assert quad_objective(ris.matrix, forms.e_e, forms.m) == cv["eve_value"]


# Caps of ``capped_cases`` that neither this solver nor the split solver it
# replaced meets: presumably below the leakage floor of symmetric unitaries,
# though above that of all unitaries.  Nothing certifies that floor, so they
# end ``budget``, not ``infeasible``.
UNMET = {("random r=5", 0.1), ("random r=8", 0.1)}


class TestCappedReciprocalContract:
    @pytest.mark.parametrize("name,forms", capped_cases(),
                             ids=[c[0] for c in capped_cases()])
    def test_rounds_never_lower_their_cost(self, monkeypatch, name, forms):
        """At 0.3 of the uncapped reciprocal leakage, each augmented-
        Lagrangian round, replayed with max_iters = 0..n and otherwise the
        arguments ``solve_pdd`` passed it, never lowers its cost
        f_b - (rho/2) max(0, f_e - eps + lam/rho)^2 from one accepted step to
        the next, beyond the rounding of costs evaluated directly.  A cap
        below the leakage floor of all unitaries (random r=2) runs no round."""
        ascend = pdd._ascend
        rounds = []

        def spy(*args, **kwargs):
            out = ascend(*args, **kwargs)
            rounds.append((args, kwargs, out[2]))
            return out

        monkeypatch.setattr(pdd, "_ascend", spy)
        base = solve_reciprocal_ao(forms)
        _, rep = solve_pdd(
            forms, 0.3 * quad_objective(base[0].matrix, forms.e_e, forms.m), warm=base)
        assert rounds or rep.constraint_values["stop_reason"] == "infeasible"
        worst = 0.0
        for args, kwargs, steps in rounds:
            _, e_b, h = args[:3]
            e_e, eps, lam, rho = kwargs["penalty"]
            m = h @ h.conj().T
            costs, scales = [], []
            for n in range(steps + 1):
                b = ascend(*args[:4], n, *args[5:], **kwargs)[0]
                omega = b @ b.T
                f_b = quad_objective(omega, e_b, m)
                term = 0.5 * rho * max(0.0, quad_objective(omega, e_e, m) - eps + lam / rho) ** 2
                costs.append(f_b - term)
                scales.append(f_b + term)
            falls = (np.array(costs[:-1]) - costs[1:]) / scales[:-1]
            worst = max(worst, falls.max(initial=0.0))
        # Rounding of the direct evaluations: at most 4.2e-16 measured.
        assert worst <= 1e-14, (name, worst)

    @pytest.mark.parametrize("name,forms", capped_cases(),
                             ids=[c[0] for c in capped_cases()])
    def test_converged_or_flagged(self, name, forms):
        """Caps 0.1, 0.3, 0.6 and 0.9 of the uncapped reciprocal leakage on
        random, commuting and coincident forms, r = 2..8: a converged answer
        meets the cap and stays under the certified non-reciprocal bound;
        any other is flagged with its reason; nothing raises, and the
        response is symmetric unitary either way.  Every reachable cap
        converges; the unmet ones spend the round budget, and ``infeasible``
        is reported only below the certified non-reciprocal floor."""
        r = forms.r
        base = solve_reciprocal_ao(forms)
        leak0 = quad_objective(base[0].matrix, forms.e_e, forms.m)
        for frac in (0.1, 0.3, 0.6, 0.9):
            eps = frac * leak0
            ris, rep = solve_pdd(forms, eps, warm=base)
            cv = rep.constraint_values
            assert cv["constraint_active"] is True
            w = ris.matrix
            assert ris.architecture == ARCH_RECIPROCAL
            assert np.abs(w - w.T).max() <= ARCH_CHECK_TOL
            assert np.abs(w.conj().T @ w - np.eye(r)).max() <= ARCH_CHECK_TOL
            assert cv["eve_value"] == quad_objective(w, forms.e_e, forms.m)
            assert rep.objective == quad_objective(w, forms.e_b, forms.m)
            _, nr = solve_nonreciprocal(forms, eps)
            if not nr.converged:
                # Below the leakage floor of all unitaries: flagged at once.
                assert not rep.converged, (name, frac)
                assert cv["stop_reason"] == "infeasible"
                assert rep.iterations == 0
                continue
            assert cv["dual_bound"] == nr.constraint_values["dual_bound"]
            if (name, frac) in UNMET:
                assert not rep.converged, (name, frac)
                assert cv["stop_reason"] == "budget", (name, frac)
                assert cv["outer_rounds"] == pdd._MAX_ROUNDS, (name, frac)
                continue
            assert rep.converged, (name, frac, cv["stop_reason"])
            assert cv["stop_reason"] == "stationary"
            assert cv["eve_value"] <= eps * (1 + 1e-9), (name, frac)
            assert rep.objective <= cv["dual_bound"] * (1 + 1e-9), (name, frac)


# A child interpreter that reports the OpenBLAS kernel it runs on, read from
# numpy's bundled library, and the stop reason of ``capped_cases()``
# "commuting r=8" at 0.1 of its uncapped reciprocal leakage.
_KERNEL_CHILD = """
import ctypes, glob, os
import numpy as np
from conftest import capped_cases
from bdris.model import quad_objective
from bdris.pdd import solve_pdd
from bdris.spectral import solve_reciprocal_ao
libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs",
                              "libscipy_openblas64_*.so"))
core = "unknown"
if libs:
    corename = ctypes.CDLL(libs[0]).scipy_openblas_get_corename64_
    corename.restype = ctypes.c_char_p
    core = corename().decode()
forms = dict(capped_cases())["commuting r=8"]
base = solve_reciprocal_ao(forms)
eps = 0.1 * quad_objective(base[0].matrix, forms.e_e, forms.m)
print(core, solve_pdd(forms, eps, warm=base)[1].constraint_values["stop_reason"])
"""


def _cpu_flags() -> set:
    try:
        text = Path("/proc/cpuinfo").read_text(encoding="utf-8")
    except OSError:
        return set()
    return {flag for line in text.splitlines() if line.startswith("flags")
            for flag in line.split(":", 1)[1].split()}


class TestBlasKernel:
    @pytest.mark.parametrize("kernel,flag", [("Haswell", "avx2"), ("Sandybridge", "avx")])
    def test_commuting_cell_converges_under_kernel(self, kernel, flag):
        """The capped reciprocal solve converges on a reachable cap whatever
        OpenBLAS kernel runs it: the cell in one child interpreter with
        ``OPENBLAS_CORETYPE`` forced (one child at a time, one BLAS thread).
        It is skipped where the CPU lacks the kernel's instructions or the
        library reports another kernel."""
        if flag not in _cpu_flags():
            pytest.skip(f"CPU flags lack {flag}")
        here = Path(__file__).resolve().parent
        path = os.pathsep.join([str(here.parent / "src"), str(here),
                                os.environ.get("PYTHONPATH", "")])
        env = {**os.environ, "OPENBLAS_CORETYPE": kernel, "OPENBLAS_NUM_THREADS": "1",
               "PYTHONPATH": path}
        out = subprocess.run([sys.executable, "-c", _KERNEL_CHILD], env=env,
                             capture_output=True, text=True, timeout=300, check=True)
        core, stop = out.stdout.split()
        if core.lower() != kernel.lower():
            pytest.skip(f"OpenBLAS runs {core}, not {kernel}")
        assert stop == "stationary"


# Each capped solver with its uncapped counterpart, both on QuadraticForms.
CAPPED_SOLVERS = {
    "non-reciprocal": (solve_nonreciprocal, solve_nonreciprocal),
    "reciprocal": (solve_pdd, solve_reciprocal_ao),
    "diagonal": (lambda forms, eps: solve_diagonal_constrained(diag_forms(forms), eps),
                 lambda forms: solve_diagonal_unconstrained(diag_forms(forms))),
}


class TestCappedReportSerializes:
    @pytest.mark.parametrize("active", (True, False), ids=("active", "inactive"))
    @pytest.mark.parametrize("arch", sorted(CAPPED_SOLVERS))
    def test_numpy_scalar_cap(self, arch, active):
        """A numpy-scalar cap is stored as a Python float, so the report
        serializes and ``constraint_active`` is a Python bool."""
        capped, uncapped = CAPPED_SOLVERS[arch]
        forms = build_forms(generate_channels(SystemConfig(k=2, r=6, n_b=4, n_e=4, seed=3)))
        ris0, _ = uncapped(forms)
        leak0 = quad_objective(ris0.matrix, forms.e_e, forms.m)
        eps = np.float64(leak0 * (0.5 if active else 2.0))
        _, rep = capped(forms, eps)
        cv = rep.constraint_values
        assert cv["constraint_active"] is active
        assert type(cv["epsilon_eve"]) is float
        assert json.loads(json.dumps(rep.to_dict()))["constraint_values"][
            "constraint_active"] is active
