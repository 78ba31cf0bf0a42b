"""Spectral solvers: closed-form bound attainment, the leakage-capped dual
search, and the symmetric ascent loop.

Ground truths: the sorted-spectrum trace bound itself (attained exactly by
the closed form), random-unitary search staying below it, the dual bound
and the leakage floor of the capped problem, and a commuting real-diagonal
case where the symmetric feasible set provably contains the global optimum
(the identity), so the ascent must reach the bound too.
"""
import numpy as np
import pytest

from conftest import batch_haar, batch_trace_objective, capped_cases

from bdris.model import (
    ARCH_NONRECIPROCAL,
    ARCH_RECIPROCAL,
    QuadraticForms,
    quad_objective,
)
from bdris import spectral
from bdris.kernels import nearest_symmetric_unitary, takagi
from bdris.tolerances import ARCH_CHECK_TOL
from bdris.spectral import (
    solve_nonreciprocal,
    solve_reciprocal_ao,
    von_neumann_bound,
)


def rand_complex(rng, n, m=None):
    m = n if m is None else m
    return rng.normal(size=(n, m)) + 1j * rng.normal(size=(n, m))


def haar_unitary(rng, n):
    q, r = np.linalg.qr(rand_complex(rng, n))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def rand_forms(rng, r, k=None, n_b=None, with_eve=False):
    k = k or max(1, r // 2)
    n_b = n_b or 2 * k
    h = rand_complex(rng, r, k)
    hb = rand_complex(rng, n_b, r)
    forms = QuadraticForms(
        e_b=hb.conj().T @ hb,
        m=h @ h.conj().T,
        h=h,
        e_e=None if not with_eve else (lambda he: he.conj().T @ he)(
            rand_complex(rng, n_b, r)),
    )
    return forms


def objective(omega, forms):
    return float(np.vdot(omega, forms.e_b @ omega @ forms.m).real)


class TestNonReciprocal:
    def test_attains_bound(self):
        rng = np.random.default_rng(1)
        for _ in range(30):
            r = int(rng.integers(2, 8))
            forms = rand_forms(rng, r)
            ris, rep = solve_nonreciprocal(forms)
            bound = von_neumann_bound(forms, "bob")
            assert rep.objective == pytest.approx(bound, rel=1e-9)
            assert rep.objective == pytest.approx(objective(ris.matrix, forms),
                                                  rel=1e-12)

    def test_dominates_random_unitaries(self):
        rng = np.random.default_rng(2)
        forms = rand_forms(rng, 4)
        _, rep = solve_nonreciprocal(forms)
        for _ in range(2000):
            assert objective(haar_unitary(rng, 4), forms) <= rep.objective + 1e-9

    def test_diagonal_example(self):
        # E = diag(2,1), M = diag(3,1): bound 2*3 + 1*1 = 7, met by identity.
        forms = QuadraticForms(e_b=np.diag([2.0, 1.0]), m=np.diag([3.0, 1.0]),
                               h=np.diag([np.sqrt(3.0), 1.0]))
        _, rep = solve_nonreciprocal(forms)
        assert rep.objective == pytest.approx(7.0, rel=1e-12)

    def test_antidiagonal_alignment(self):
        # E = diag(1,2), M = diag(3,1): the permutation pairs 2 with 3.
        forms = QuadraticForms(e_b=np.diag([1.0, 2.0]), m=np.diag([3.0, 1.0]),
                               h=np.diag([np.sqrt(3.0), 1.0]))
        ris, rep = solve_nonreciprocal(forms)
        assert rep.objective == pytest.approx(7.0, rel=1e-12)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(3)
        forms = rand_forms(rng, 5)
        perm = np.eye(5)[rng.permutation(5)]
        permuted = QuadraticForms(e_b=perm @ forms.e_b @ perm.T,
                                  m=perm @ forms.m @ perm.T,
                                  h=perm @ forms.h)
        _, rep = solve_nonreciprocal(forms)
        _, rep_p = solve_nonreciprocal(permuted)
        assert rep.objective == pytest.approx(rep_p.objective, rel=1e-9)


def leakage_floor(forms):
    """Smallest leakage over unitaries: sum d_E,i(ascending) d_M,i(descending)."""
    d_e = np.linalg.eigvalsh(forms.e_e)
    d_m = np.linalg.eigvalsh(forms.m)[::-1]
    return float(d_e @ d_m)


class TestCappedNonReciprocal:
    @pytest.mark.parametrize("name,forms", capped_cases(),
                             ids=[c[0] for c in capped_cases()])
    def test_dual_search(self, name, forms):
        """Caps from 0.1 to 0.9 of the uncapped leakage: each reachable cap
        is met with a unitary response within 1e-9 of its dual bound and no
        worse than any feasible Haar sample; each cap below the floor is
        flagged."""
        rng = np.random.default_rng(32)
        r = forms.r
        base, _ = solve_nonreciprocal(forms)
        leak0 = quad_objective(base.matrix, forms.e_e, forms.m)
        floor = leakage_floor(forms)
        if r <= 4:
            u = batch_haar(rng, 20000, r)
            bob = batch_trace_objective(u, forms.e_b, forms.m)
            eve = batch_trace_objective(u, forms.e_e, forms.m)
        met = 0
        for frac in (0.1, 0.3, 0.5, 0.7, 0.9):
            eps = frac * leak0
            ris, rep = solve_nonreciprocal(forms, eps)
            cv = rep.constraint_values
            assert cv["constraint_active"] is True
            if eps < floor:
                assert not rep.converged
                assert cv["eve_value"] == pytest.approx(floor, rel=1e-9)
                continue
            met += 1
            assert rep.converged
            w = ris.matrix
            assert np.abs(w.conj().T @ w - np.eye(r)).max() <= ARCH_CHECK_TOL
            assert cv["eve_value"] <= eps * (1 + 1e-9)
            assert cv["eve_value"] == quad_objective(w, forms.e_e, forms.m)
            assert rep.objective == quad_objective(w, forms.e_b, forms.m)
            assert cv["dual_bound"] - rep.objective <= 1e-9 * cv["dual_bound"]
            assert rep.objective <= rep.bound * (1 + 1e-12)
            if r <= 4 and (eve <= eps).any():
                assert rep.objective >= bob[eve <= eps].max()
        assert met >= 1

    def test_cap_below_floor_is_flagged(self):
        """A cap under the leakage floor returns the floor response,
        unconverged, without raising."""
        flagged = 0
        for name, forms in capped_cases():
            floor = leakage_floor(forms)
            if floor <= 0.0:
                continue
            ris, rep = solve_nonreciprocal(forms, 0.5 * floor)
            assert not rep.converged, name
            cv = rep.constraint_values
            assert cv["constraint_active"] is True
            assert "dual_bound" not in cv
            assert cv["eve_value"] == pytest.approx(floor, rel=1e-9), name
            assert rep.objective == quad_objective(ris.matrix, forms.e_b, forms.m)
            flagged += 1
        assert flagged >= 5

    def test_uncapped_call_is_unchanged(self):
        rng = np.random.default_rng(33)
        forms = rand_forms(rng, 6, with_eve=True)
        ris, rep = solve_nonreciprocal(forms)
        ris_c, rep_c = solve_nonreciprocal(forms, 1e300)
        np.testing.assert_array_equal(ris_c.matrix, ris.matrix)
        assert rep_c.objective == rep.objective
        assert rep.constraint_values == {}
        assert rep_c.constraint_values["constraint_active"] is False

    def test_rejects_nonpositive_cap(self):
        rng = np.random.default_rng(34)
        forms = rand_forms(rng, 3, with_eve=True)
        for eps in (0.0, -1.0):
            with pytest.raises(ValueError):
                solve_nonreciprocal(forms, eps)


class TestReciprocalAo:
    def test_output_is_symmetric_unitary(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            forms = rand_forms(rng, int(rng.integers(2, 7)))
            ris, rep = solve_reciprocal_ao(forms)
            u = ris.matrix
            assert np.linalg.norm(u - u.T) <= 1e-8
            assert np.linalg.norm(u.conj().T @ u - np.eye(u.shape[0])) <= 1e-8
            assert ris.architecture == ARCH_RECIPROCAL

    def test_trace_non_decreasing(self):
        rng = np.random.default_rng(6)
        forms = rand_forms(rng, 6)
        _, rep = solve_reciprocal_ao(forms)
        trace = np.asarray(rep.cost_trace)
        assert np.all(np.diff(trace) >= -1e-9 * np.maximum(1, np.abs(trace[1:])))

    def test_below_nonreciprocal(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            forms = rand_forms(rng, int(rng.integers(2, 7)))
            _, rep_n = solve_nonreciprocal(forms)
            _, rep_r = solve_reciprocal_ao(forms)
            assert rep_r.objective <= rep_n.objective * (1 + 1e-9)

    def test_commuting_case_attains_bound(self):
        # Real diagonal forms aligned in order: identity (symmetric) is
        # globally optimal, so the symmetric restriction costs nothing.
        forms = QuadraticForms(e_b=np.diag([4.0, 2.0, 1.0]),
                               m=np.diag([3.0, 2.0, 0.5]),
                               h=np.diag(np.sqrt([3.0, 2.0, 0.5])))
        _, rep = solve_reciprocal_ao(forms)
        assert rep.objective == pytest.approx(von_neumann_bound(forms, "bob"),
                                              rel=1e-6)

    def test_near_optimal_on_random_instances(self):
        rng = np.random.default_rng(8)
        for _ in range(5):
            forms = rand_forms(rng, 6)
            _, rep_n = solve_nonreciprocal(forms)
            _, rep_r = solve_reciprocal_ao(forms)
            assert rep_r.objective >= 0.9 * rep_n.objective

    def test_iteration_cap_flags_convergence(self, monkeypatch):
        rng = np.random.default_rng(9)
        forms = rand_forms(rng, 6)
        monkeypatch.setattr(spectral, "_AO_MAX_ITERS", 2)
        _, rep = solve_reciprocal_ao(forms)
        assert not rep.converged
        assert rep.iterations == 2


class TestReciprocalStationarity:
    @staticmethod
    def slopes(u, forms, rng, count=20, t=1e-4):
        """Central-difference slopes of the objective along the moves
        Omega -> U e^{itB} U^T for random unit real symmetric B."""
        out = []
        for _ in range(count):
            b = rng.normal(size=u.shape)
            b = b + b.T
            lam, v = np.linalg.eigh(b / np.linalg.norm(b))
            values = [objective(u @ ((v * np.exp(1j * s * lam)) @ v.T) @ u.T, forms)
                      for s in (t, -t)]
            out.append((values[0] - values[1]) / (2.0 * t))
        return np.abs(out)

    def test_stops_at_a_stationary_point(self):
        """No symmetric-unitary direction improves the reported optimum to
        first order, where the same test at a random symmetric unitary
        finds slopes a thousand times larger; the report says why the
        ascent stopped."""
        rng = np.random.default_rng(12)
        for _ in range(5):
            forms = rand_forms(rng, int(rng.integers(3, 8)))
            scale = (np.linalg.eigvalsh(forms.e_b)[-1]
                     * np.linalg.eigvalsh(forms.m)[-1])
            ris, rep = solve_reciprocal_ao(forms)
            cv = rep.constraint_values
            assert rep.converged and cv["stop_reason"] == "stationary"
            assert cv["grad_norm"] <= spectral._AO_GRAD_TOL
            u = takagi(ris.matrix).u
            assert self.slopes(u, forms, rng).max() <= 1e-5 * scale
            start = takagi(nearest_symmetric_unitary(
                haar_unitary(rng, forms.r))).u
            assert self.slopes(start, forms, rng).max() >= 1e-2 * scale


class TestBound:
    def test_eve_target_uses_eve_form(self):
        rng = np.random.default_rng(10)
        forms = rand_forms(rng, 4, with_eve=True)
        b_bob = von_neumann_bound(forms, "bob")
        b_eve = von_neumann_bound(forms, "eve")
        d_e = np.linalg.eigvalsh(forms.e_e)[::-1]
        d_m = np.linalg.eigvalsh(forms.m)[::-1]
        assert b_eve == pytest.approx(float(d_e @ d_m), rel=1e-10)
        assert b_bob != pytest.approx(b_eve, rel=1e-3)

    def test_random_unitaries_stay_below_eve_bound(self):
        rng = np.random.default_rng(11)
        forms = rand_forms(rng, 4, with_eve=True)
        b_eve = von_neumann_bound(forms, "eve")
        for _ in range(500):
            u = haar_unitary(rng, 4)
            val = float(np.vdot(u, forms.e_e @ u @ forms.m).real)
            assert val <= b_eve + 1e-9
