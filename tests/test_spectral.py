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

from conftest import batch_haar, batch_trace_objective, capped_cases, haar_unitary, \
    rand_complex, rand_forms

from bdris.experiments import default_epsilon_grid
from bdris.model import (
    ARCH_RECIPROCAL,
    QuadraticForms,
    SystemConfig,
    build_forms,
    generate_channels,
    quad_objective,
)
from bdris import spectral
from bdris.kernels import STRUCTURE_TOL, nearest_symmetric_unitary, takagi
from bdris.spectral import (
    solve_nonreciprocal,
    solve_reciprocal_ao,
    von_neumann_bound,
)


def objective(omega, forms):
    return float(np.vdot(omega, forms.e_b @ omega @ forms.m).real)


class TestNonReciprocal:
    def test_attains_bound(self):
        rng = np.random.default_rng(1)
        for _ in range(30):
            r = int(rng.integers(2, 8))
            forms = rand_forms(rng, r, with_eve=False)
            ris, rep = solve_nonreciprocal(forms)
            bound = von_neumann_bound(forms)
            assert rep.objective == pytest.approx(bound, rel=1e-9)
            assert rep.objective == pytest.approx(objective(ris.matrix, forms),
                                                  rel=1e-12)

    def test_dominates_random_unitaries(self):
        rng = np.random.default_rng(2)
        forms = rand_forms(rng, 4, with_eve=False)
        _, rep = solve_nonreciprocal(forms)
        for _ in range(2000):
            assert objective(haar_unitary(rng, 4), forms) <= rep.objective + 1e-9

    def test_diagonal_example(self):
        # E = diag(2,1), M = diag(3,1): bound 2*3 + 1*1 = 7, met by identity.
        forms = QuadraticForms(e_b=np.diag([2.0, 1.0]),
                               h=np.diag([np.sqrt(3.0), 1.0]))
        _, rep = solve_nonreciprocal(forms)
        assert rep.objective == pytest.approx(7.0, rel=1e-12)

    def test_antidiagonal_alignment(self):
        # E = diag(1,2), M = diag(3,1): the permutation pairs 2 with 3.
        forms = QuadraticForms(e_b=np.diag([1.0, 2.0]),
                               h=np.diag([np.sqrt(3.0), 1.0]))
        ris, rep = solve_nonreciprocal(forms)
        assert rep.objective == pytest.approx(7.0, rel=1e-12)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(3)
        forms = rand_forms(rng, 5, with_eve=False)
        perm = np.eye(5)[rng.permutation(5)]
        permuted = QuadraticForms(e_b=perm @ forms.e_b @ perm.T, h=perm @ forms.h)
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
                assert not rep.converged and cv["stop_reason"] == "infeasible"
                assert cv["eve_value"] == pytest.approx(floor, rel=1e-9)
                continue
            met += 1
            assert rep.converged and cv["stop_reason"] == "stationary"
            w = ris.matrix
            assert np.abs(w.conj().T @ w - np.eye(r)).max() <= STRUCTURE_TOL
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
            assert cv["stop_reason"] == "infeasible"
            assert "dual_bound" not in cv
            assert cv["eve_value"] == pytest.approx(floor, rel=1e-9), name
            assert rep.objective == quad_objective(ris.matrix, forms.e_b, forms.m)
            flagged += 1
        assert flagged >= 5

    def test_unclosed_bracket_is_flagged(self, monkeypatch):
        """With no doubling allowed (_MAX_DOUBLINGS = 0) the multiplier
        bracket never closes for a cap above the floor: the floor response
        comes back ``infeasible``, unconverged, without raising."""
        monkeypatch.setattr(spectral, "_MAX_DOUBLINGS", 0)
        forms = rand_forms(np.random.default_rng(35), 5)
        eve0 = quad_objective(solve_nonreciprocal(forms)[0].matrix, forms.e_e, forms.m)
        ris, rep = solve_nonreciprocal(forms, 0.5 * (leakage_floor(forms) + eve0))
        assert not rep.converged
        assert rep.constraint_values["stop_reason"] == "infeasible"
        assert rep.constraint_values["eve_value"] == pytest.approx(
            leakage_floor(forms), rel=1e-9)

    def test_uncapped_call_is_unchanged(self):
        rng = np.random.default_rng(33)
        forms = rand_forms(rng, 6)
        ris, rep = solve_nonreciprocal(forms)
        ris_c, rep_c = solve_nonreciprocal(forms, 1e300)
        np.testing.assert_array_equal(ris_c.matrix, ris.matrix)
        assert rep_c.objective == rep.objective
        assert rep.constraint_values == {"stop_reason": "closed_form"}
        assert rep_c.constraint_values["constraint_active"] is False
        assert rep_c.constraint_values["stop_reason"] == "closed_form"

    def test_geodesic_bisection_stops_at_float_resolution(self):
        """At cap 3 of the 36-element reference sweep the feasible end of
        the geodesic already sits on the cap, so the lower end of the
        bisection in t stays 0.  The bisection stops once its interval is
        one float spacing at 1 wide (about 53 halvings), not after halving
        towards 0 for _MAX_BISECT steps; with the doubling and the
        multiplier bisection the cell takes about 110 leakage evaluations."""
        forms = build_forms(generate_channels(
            SystemConfig(k=10, r=36, n_b=20, n_e=20, seed=7)))
        scale = solve_nonreciprocal(forms)[1].objective
        eps = float(default_epsilon_grid(scale, points=10)[3])
        ris, rep = solve_nonreciprocal(forms, eps)
        cv = rep.constraint_values
        assert rep.converged and cv["constraint_active"] is True
        assert cv["eve_value"] <= eps
        assert cv["dual_bound"] - rep.objective <= 1e-9 * cv["dual_bound"]
        assert rep.iterations < spectral._MAX_BISECT

    def test_rejects_nonpositive_cap(self):
        rng = np.random.default_rng(34)
        forms = rand_forms(rng, 3)
        # An infinite cap is no cap, and has no residual to report.
        for eps in (0.0, -1.0, np.inf):
            with pytest.raises(ValueError):
                solve_nonreciprocal(forms, eps)


class TestReciprocalAo:
    def test_output_is_symmetric_unitary(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            forms = rand_forms(rng, int(rng.integers(2, 7)), with_eve=False)
            ris, rep = solve_reciprocal_ao(forms)
            u = ris.matrix
            assert np.linalg.norm(u - u.T) <= 1e-8
            assert np.linalg.norm(u.conj().T @ u - np.eye(u.shape[0])) <= 1e-8
            assert ris.architecture == ARCH_RECIPROCAL

    def test_trace_non_decreasing(self):
        rng = np.random.default_rng(6)
        forms = rand_forms(rng, 6, with_eve=False)
        _, rep = solve_reciprocal_ao(forms)
        trace = np.asarray(rep.cost_trace)
        assert np.all(np.diff(trace) >= -1e-9 * np.maximum(1, np.abs(trace[1:])))

    def test_below_nonreciprocal(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            forms = rand_forms(rng, int(rng.integers(2, 7)), with_eve=False)
            _, rep_n = solve_nonreciprocal(forms)
            _, rep_r = solve_reciprocal_ao(forms)
            assert rep_r.objective <= rep_n.objective * (1 + 1e-9)

    def test_commuting_case_attains_bound(self):
        # Real diagonal forms aligned in order: identity (symmetric) is
        # globally optimal, so the symmetric restriction costs nothing.
        forms = QuadraticForms(e_b=np.diag([4.0, 2.0, 1.0]),
                               h=np.diag(np.sqrt([3.0, 2.0, 0.5])))
        _, rep = solve_reciprocal_ao(forms)
        assert rep.objective == pytest.approx(von_neumann_bound(forms),
                                              rel=1e-6)

    def test_near_optimal_on_random_instances(self):
        rng = np.random.default_rng(8)
        for _ in range(5):
            forms = rand_forms(rng, 6, with_eve=False)
            _, rep_n = solve_nonreciprocal(forms)
            _, rep_r = solve_reciprocal_ao(forms)
            assert rep_r.objective >= 0.9 * rep_n.objective

    def test_iteration_cap_flags_convergence(self, monkeypatch):
        rng = np.random.default_rng(9)
        forms = rand_forms(rng, 6, with_eve=False)
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
            forms = rand_forms(rng, int(rng.integers(3, 8)), with_eve=False)
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


class TestThinAscent:
    """The ascent carries B (Omega = B B^T), c = B^T h and E Omega h instead
    of r-by-r products; these pin what that bookkeeping must preserve."""

    @staticmethod
    def full_direction(u, e, h):
        omega = u @ u.T
        g = u.conj().T @ e @ omega @ (h @ h.conj().T) @ u.conj()
        return (g + g.T).imag

    def test_direction_matches_full_matrix_form(self):
        rng = np.random.default_rng(41)
        r = 12
        for k in (1, 5, r):
            u = haar_unitary(rng, r)
            hb = rand_complex(rng, r)
            e = hb.conj().T @ hb
            h = rand_complex(rng, r, k)
            full = self.full_direction(u, e, h)
            thin = spectral._direction(u, u.T @ h, e @ (u @ (u.T @ h)))
            assert np.abs(thin - full).max() <= 1e-12 * np.abs(full).max(), k
            np.testing.assert_array_equal(thin, thin.T)

    @pytest.mark.parametrize("with_penalty", [False, True])
    def test_no_drift_over_a_long_run(self, with_penalty):
        """After a full run the last traced cost is the cost of the returned
        frame, recomputed from scratch, and the frame is still unitary."""
        rng = np.random.default_rng(42)
        forms = rand_forms(rng, 24, k=6)
        s_b = np.linalg.eigvalsh(forms.e_b)[-1]
        s_m = np.linalg.eigvalsh(forms.m)[-1]
        e_b, h = forms.e_b / s_b, forms.h / np.sqrt(s_m)
        penalty = None
        if with_penalty:
            e_e = forms.e_e / np.linalg.eigvalsh(forms.e_e)[-1]
            penalty = (e_e, 0.5 * quad_objective(np.eye(24), e_e, h @ h.conj().T),
                       0.1, 10.0)
        u0 = takagi(nearest_symmetric_unitary(haar_unitary(rng, 24))).u
        b, grad, steps, trace, stop = spectral._ascend(
            u0, e_b, h, 1e-9, spectral._AO_MAX_ITERS, penalty=penalty)
        assert stop == "stationary" and grad <= 1e-9
        assert steps >= 100 and len(trace) == steps + 1
        final = quad_objective(b @ b.T, e_b, h @ h.conj().T)
        assert abs(trace[-1] - final) <= 1e-10 * final
        assert np.abs(b.conj().T @ b - np.eye(24)).max() <= 1e-12

    @pytest.mark.parametrize("with_penalty", [False, True])
    def test_steps_take_no_eigendecomposition(self, monkeypatch, with_penalty):
        """The step exp(i t P) comes from :func:`spectral._expm1i`: the ascent
        reaches a stationary point with numpy's eigh refused."""
        rng = np.random.default_rng(43)
        forms = rand_forms(rng, 12, k=4)
        e_b = forms.e_b / np.linalg.eigvalsh(forms.e_b)[-1]
        e_e = forms.e_e / np.linalg.eigvalsh(forms.e_e)[-1]
        h = forms.h / np.sqrt(np.linalg.eigvalsh(forms.m)[-1])
        penalty = None
        if with_penalty:
            penalty = (e_e, 0.5 * quad_objective(np.eye(12), e_e, h @ h.conj().T),
                       0.1, 10.0)
        u0 = takagi(nearest_symmetric_unitary(haar_unitary(rng, 12))).u

        def refused(*args, **kwargs):
            raise AssertionError("the ascent called np.linalg.eigh")

        monkeypatch.setattr(np.linalg, "eigh", refused)
        *_, steps, _, stop = spectral._ascend(
            u0, e_b, h, 1e-9, spectral._AO_MAX_ITERS, penalty=penalty)
        assert stop == "stationary" and steps > 0


class TestTaylorStep:
    """exp(i tau P) - I from :func:`spectral._expm1i` against the real
    symmetric eigendecomposition it replaced, v expm1(i tau mu) v^T.  The
    tolerance 8u(sqrt(r) + ||tau P||_2) allows the reference's own
    eigenvector error and the phase tau mu, which is known only to
    ||tau P||_2 ulps."""

    SIZES = np.logspace(-8, 5, 27)        # ||tau P||_2

    @staticmethod
    def sym(r, seed):
        a = np.random.default_rng(seed).normal(size=(r, r))
        return a + a.T

    @staticmethod
    def allowed(r, size):
        return 8.0 * np.finfo(float).eps * (np.sqrt(r) + size)

    @staticmethod
    def bound(x):
        """The kernel's bound ||X^2||_1^(1/2) >= ||X||_2, which it scales
        down to _TAYLOR_THETA[-1]."""
        return np.sqrt(np.abs(x @ x).sum(axis=0).max())

    @pytest.mark.parametrize("r", [1, 2, 12, 64])
    def test_matches_eigh_reference(self, r):
        """Relative error within the tolerance of ||F||_2, I + F unitary and
        F symmetric, on both the unscaled branch and the scaled one: the
        smallest size needs no squaring, the largest more than ten."""
        p = self.sym(r, 60 + r)
        mu, v = np.linalg.eigh(p)
        for size in self.SIZES:
            tau = size / np.abs(mu).max()
            f, ref = spectral._expm1i(p, tau), (v * np.expm1(1j * tau * mu)) @ v.T
            tol = self.allowed(r, size)
            assert np.linalg.norm(f - ref, 2) <= tol * np.linalg.norm(ref, 2), size
            w = np.eye(r) + f
            assert np.abs(w.conj().T @ w - np.eye(r)).max() <= tol, size
            assert np.abs(f - f.T).max() <= tol * np.abs(f).max(), size
        # ||X||_2 <= bound <= r^(1/4) ||X||_2
        theta = spectral._TAYLOR_THETA[-1]
        assert r ** 0.25 * self.SIZES[0] <= theta < self.SIZES[-1] / 2 ** 10

    @pytest.mark.parametrize("r", [2, 12, 64])
    def test_every_degree_matches_eigh_reference(self, r):
        """Sizes 0.999 and 1.001 times each theta_m of the degree table, for
        the bound ||Y||_1^(1/2) the kernel reads its degree from: each degree
        m = 1.._TAYLOR_MAX and its coefficient row is used on both sides of
        its boundary, and 1.001 theta_max takes the first squaring."""
        p = self.sym(r, 80 + r)
        mu, v = np.linalg.eigh(p)
        bound = self.bound(p)
        for theta in spectral._TAYLOR_THETA:
            for factor in (0.999, 1.001):
                tau = factor * theta / bound
                f, ref = spectral._expm1i(p, tau), (v * np.expm1(1j * tau * mu)) @ v.T
                size = tau * np.abs(mu).max()
                tol = self.allowed(r, size)
                assert np.linalg.norm(f - ref, 2) <= tol * np.linalg.norm(ref, 2), tau
        assert self.bound(tau * p) > spectral._TAYLOR_THETA[-1]

    @pytest.mark.parametrize("r", [2, 12, 64])
    def test_squaring_relation(self, r):
        """Wherever the kernel scales (bound above theta_max), F(tau) is
        F(tau / 2) (2I + F(tau / 2)) bit for bit: halving tau halves X and
        its bound exactly, so F(tau / 2) on its own takes one squaring
        fewer from the same scaled X.  A line-search halving therefore
        loses nothing by evaluating its half step afresh."""
        p = self.sym(r, 70 + r)
        theta = spectral._TAYLOR_THETA[-1]
        for size in np.geomspace(1.001 * theta, 40.0, 12):
            tau = size / self.bound(p)
            assert self.bound(tau * p) > theta, size
            f = spectral._expm1i(p, tau / 2)
            np.testing.assert_array_equal(spectral._expm1i(p, tau), f @ f + 2.0 * f)

    def test_zero_direction_is_no_move(self):
        np.testing.assert_array_equal(spectral._expm1i(np.zeros((3, 3)), 1.0),
                                      np.zeros((3, 3)))


class TestLbfgsDirection:
    """The ascent's direction is the limited-memory BFGS product H A."""

    def test_two_loop_matches_dense_bfgs(self):
        """With 3 stored pairs the two-loop product equals the dense BFGS
        inverse-Hessian update on vec(A), started from the scaled identity
        of the newest pair."""
        rng = np.random.default_rng(51)
        r = 4

        def sym():
            x = rng.normal(size=(r, r))
            return x + x.T

        pairs = []
        for _ in range(3):
            s, y = sym(), sym()
            if np.vdot(s, y) < 0:
                y = -y
            pairs.append((s, y, 1.0 / np.vdot(s, y)))
        s, y, rho = pairs[-1]
        hess_inv = np.eye(r * r) / (rho * np.vdot(y, y))
        for s, y, rho in pairs:
            left = np.eye(r * r) - rho * np.outer(s.ravel(), y.ravel())
            hess_inv = left @ hess_inv @ left.T + rho * np.outer(s.ravel(), s.ravel())
        a = sym()
        dense = (hess_inv @ a.ravel()).reshape(r, r)
        got = spectral._two_loop(a, pairs)
        assert np.abs(got - dense).max() <= 1e-12 * np.abs(dense).max()
        np.testing.assert_allclose(got, got.T, rtol=0, atol=1e-12)
        assert np.vdot(a, got) > 0.0

    def test_empty_memory_is_the_normalized_gradient(self):
        rng = np.random.default_rng(52)
        a = rng.normal(size=(5, 5))
        a = a + a.T
        np.testing.assert_array_equal(spectral._two_loop(a, []),
                                      a / np.linalg.norm(a))


class TestStepCountStability:
    """Channel draw 11 of the 36-element setup: a Barzilai-Borwein ascent
    spent all 5 000 steps there (grad_norm 1.2e-3), while rescaling E_b by
    one ulp let it converge in about 450; the L-BFGS ascent converges in a
    few hundred steps either way."""

    def test_draw_11_converges_whatever_the_last_bit(self):
        forms = build_forms(generate_channels(
            SystemConfig(k=10, r=36, n_b=20, n_e=20, seed=11)))
        steps = []
        for scale in (1.0, 1.0 + 2.0 ** -52, 1.0 - 2.0 ** -53, 1.0 + 2.0 ** -50):
            scaled = QuadraticForms(e_b=forms.e_b * scale, h=forms.h,
                                    e_e=forms.e_e)
            _, rep = solve_reciprocal_ao(scaled)
            assert rep.constraint_values["stop_reason"] == "stationary", scale
            if scale == 1.0:
                assert rep.iterations <= 1000
                assert rep.objective >= 309_000.0
            steps.append(rep.iterations)
        assert max(steps) <= 2 * min(steps), steps


class TestBound:
    def test_eve_bound_is_the_swapped_forms_bound(self):
        """The eavesdropper's bound is the intended receiver's on forms
        whose receiver form is E_e."""
        rng = np.random.default_rng(10)
        forms = rand_forms(rng, 4)
        b_bob = von_neumann_bound(forms)
        b_eve = von_neumann_bound(QuadraticForms(e_b=forms.e_e, h=forms.h))
        d_e = np.linalg.eigvalsh(forms.e_e)[::-1]
        d_m = np.linalg.eigvalsh(forms.m)[::-1]
        assert b_eve == pytest.approx(float(d_e @ d_m), rel=1e-10)
        assert b_bob != pytest.approx(b_eve, rel=1e-3)

    def test_random_unitaries_stay_below_eve_bound(self):
        rng = np.random.default_rng(11)
        forms = rand_forms(rng, 4)
        b_eve = von_neumann_bound(QuadraticForms(e_b=forms.e_e, h=forms.h))
        for _ in range(500):
            u = haar_unitary(rng, 4)
            val = float(np.vdot(u, forms.e_e @ u @ forms.m).real)
            assert val <= b_eve + 1e-9
