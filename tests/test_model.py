"""System model: channel generation, quadratic forms, FIM/CRB, simulation.

Ground truths:
- frozen first/last channel entries reconstructed independently from the
  documented draw contract (PCG64, uniform [-0.1, 0.1], real part first,
  row-major, draw order h_ar then h_rb then h_re),
- the direct formula E = H^H (sigma^-1) H via numpy.linalg.inv,
- a from-scratch trace of the information matrix of the linear Gaussian
  model y = A theta + noise, A = H_rb Omega H_ar P,
- the spectral identity tr(F^-1) = sum(1/eig(F)).
"""
import importlib
import json
import pkgutil
import tracemalloc

import numpy as np
import pytest

from conftest import batch_haar, batch_trace_objective

import bdris
from bdris.cli import main
from bdris.diagonal import diag_forms, solve_diagonal_constrained, \
    solve_diagonal_unconstrained
from bdris.errors import (
    ContractViolationError,
    DimensionError,
    EstimationIllPosedError,
    NotPositiveDefiniteError,
    NumericalConsistencyError,
)
from bdris.kernels import hermitian_eig
from bdris.model import (
    ARCH_DIAGONAL,
    ARCH_NONRECIPROCAL,
    ARCH_RECIPROCAL,
    ARCHITECTURES,
    ChannelSet,
    QuadraticForms,
    RisMatrix,
    SystemConfig,
    build_forms,
    crb_trace,
    fim_matrix,
    generate_channels,
    quad_objective,
    simulate_mle_mse,
)
from bdris.pdd import solve_pdd
from bdris.reporting import SolveReport
from bdris.tolerances import COND_LIMIT
from bdris.spectral import solve_nonreciprocal, solve_reciprocal_ao


def rand_complex(rng, n, m=None):
    m = n if m is None else m
    return rng.normal(size=(n, m)) + 1j * rng.normal(size=(n, m))


def haar_unitary(rng, n):
    q, r = np.linalg.qr(rand_complex(rng, n))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def make_channels(rng, r=5, k=3, n_b=4, n_e=0, noise=0.1):
    ch = ChannelSet(
        h_ar=rand_complex(rng, r, k),
        h_rb=rand_complex(rng, n_b, r),
        sigma_b=noise * np.eye(n_b),
        p=np.sqrt(2.0) * np.eye(k),
        h_re=rand_complex(rng, n_e, r) if n_e else None,
        sigma_e=noise * np.eye(n_e) if n_e else None,
    )
    return ch


# ------------------------------------------------------------------ generation

class TestGenerateChannels:
    def test_frozen_seed_zero_entries(self):
        cfg = SystemConfig(k=2, r=4, n_b=3, n_e=3, seed=0)
        ch = generate_channels(cfg)
        # Values frozen from an independent PCG64 reconstruction.
        assert ch.h_ar[0, 0] == pytest.approx(
            0.027392337464290872 - 0.04604265724722594j, abs=0)
        assert ch.h_ar[-1, -1] == pytest.approx(
            0.045931089285988824 - 0.0648688758794882j, abs=0)
        assert ch.h_rb[0, 0] == pytest.approx(
            0.07263578446997732 + 0.008292244049818348j, abs=0)
        assert ch.h_re[-1, -1] == pytest.approx(
            -0.08184939087617563 + 0.01606647719737013j, abs=0)

    def test_shapes_and_static_matrices(self):
        cfg = SystemConfig(k=3, r=6, n_b=5, n_e=4, seed=1,
                           total_power=12.0, noise_variance=0.5)
        ch = generate_channels(cfg)
        assert ch.h_ar.shape == (6, 3)
        assert ch.h_rb.shape == (5, 6)
        assert ch.h_re.shape == (4, 6)
        np.testing.assert_allclose(ch.p, np.sqrt(12.0 / 3) * np.eye(3))
        np.testing.assert_allclose(ch.sigma_b, 0.5 * np.eye(5))
        np.testing.assert_allclose(ch.sigma_e, 0.5 * np.eye(4))

    def test_no_eve(self):
        ch = generate_channels(SystemConfig(k=2, r=4, n_b=3, n_e=0, seed=0))
        assert ch.h_re is None and ch.sigma_e is None

    def test_deterministic(self):
        cfg = SystemConfig(k=3, r=8, n_b=6, n_e=6, seed=5)
        a, b = generate_channels(cfg), generate_channels(cfg)
        np.testing.assert_array_equal(a.h_ar, b.h_ar)
        np.testing.assert_array_equal(a.h_re, b.h_re)

    def test_entry_distribution(self):
        # Parts live in [-0.1, 0.1] with mean ~0 (1e6-sample check).
        ch = generate_channels(SystemConfig(k=500, r=1000, n_b=2, n_e=0, seed=9))
        parts = np.concatenate([ch.h_ar.real.ravel(), ch.h_ar.imag.ravel()])
        assert parts.max() <= 0.1 and parts.min() >= -0.1
        assert abs(parts.mean()) < 3 * 0.1 / np.sqrt(3 * parts.size)


# ----------------------------------------------------------------- validation

class TestValidation:
    def test_config_rejects_bad_dims(self):
        with pytest.raises(ValueError):
            SystemConfig(k=0, r=4, n_b=2)
        with pytest.raises(ValueError):
            SystemConfig(k=2, r=4, n_b=2, noise_variance=0.0)

    def test_config_rejects_negative_n_e(self):
        with pytest.raises(ValueError, match="n_e"):
            SystemConfig(k=1, r=2, n_b=1, n_e=-3)
        assert not SystemConfig(k=1, r=2, n_b=1, n_e=0).eve_present

    def test_config_rejects_negative_seed(self):
        with pytest.raises(ValueError, match="seed"):
            SystemConfig(k=1, r=2, n_b=1, seed=-1)

    def test_cli_rejects_negative_seed(self, tmp_path, capsys):
        out = tmp_path / "o"
        code = main(["--r", "3", "--k", "1", "--seed", "-1",
                     "--scenario", "no-eve", "--out", str(out), "--quiet"])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: seed")
        assert not out.exists()

    @pytest.mark.parametrize("key", ["total_power", "noise_variance"])
    @pytest.mark.parametrize("value", [np.inf, np.nan])
    def test_config_rejects_non_finite_power_and_noise(self, key, value):
        with pytest.raises(ValueError, match=key):
            SystemConfig(k=1, r=2, n_b=1, **{key: value})

    @pytest.mark.parametrize("flag", ["--power", "--noise"])
    def test_cli_rejects_infinite_power_and_noise(self, tmp_path, capsys, flag):
        # Infinite noise makes E = 0 and so the cap grid's scale 0;
        # infinite power makes the amplitude matrix NaN.  Both are refused
        # before any solve.
        out = tmp_path / "o"
        code = main(["--r", "6", "--k", "2", flag, "inf",
                     "--out", str(out), "--quiet"])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    def test_cli_rejects_negative_n_e(self, tmp_path):
        # The no-eve scenario alone needs no eavesdropper, so only the
        # config check stands between a typo and a sweep without one.
        conf = tmp_path / "conf.json"
        conf.write_text(json.dumps({"n_e": -1}), encoding="utf-8")
        out = tmp_path / "o"
        code = main(["--config", str(conf), "--r", "3", "--k", "1",
                     "--scenario", "no-eve", "--out", str(out), "--quiet"])
        assert code != 0
        assert not out.exists()

    def test_channelset_shape_mismatch(self):
        rng = np.random.default_rng(0)
        with pytest.raises(DimensionError):
            ChannelSet(h_ar=rand_complex(rng, 4, 2),
                       h_rb=rand_complex(rng, 3, 5),   # r mismatch
                       sigma_b=np.eye(3), p=np.eye(2))

    @pytest.mark.parametrize("name, value, error", [
        ("h_ar", np.array([[np.nan, 1.0], [1.0, 1.0], [1.0, 1.0]]), ContractViolationError),
        ("h_rb", np.array([[1.0, 0.0, 0.0], [0.0, np.inf, 0.0]]), ContractViolationError),
        ("h_re", np.array([[1.0, 0.0, np.nan], [0.0, 1.0, 0.0]]), ContractViolationError),
        ("p", np.diag([1.0, np.inf]), ContractViolationError),
        ("p", np.eye(3), DimensionError),
        ("p", np.array([[1.0, 0.5], [0.0, 1.0]]), ContractViolationError),
        ("p", np.diag([1.0, -1.0]), ContractViolationError),
        ("sigma_e", None, ContractViolationError),
        ("h_re", np.eye(2, 4), DimensionError),
        ("h_ar", np.ones(3), DimensionError),
        ("sigma_b", np.eye(3), DimensionError),
    ])
    def test_channelset_refuses_bad_arrays(self, name, value, error):
        """Non-finite channels or amplitudes, a misshapen or non-diagonal p,
        an eavesdropper channel without its covariance (or of the wrong
        width) and misshapen channels or covariances are refused at
        construction, naming the array."""
        good = dict(h_ar=np.ones((3, 2)), h_rb=np.eye(2, 3), sigma_b=np.eye(2),
                    p=np.eye(2), h_re=np.eye(2, 3), sigma_e=np.eye(2))
        ChannelSet(**good)
        with pytest.raises(error, match=rf"\b{name}\b"):
            ChannelSet(**{**good, name: value})

    def test_covariance_must_be_pd(self):
        rng = np.random.default_rng(0)
        with pytest.raises(NotPositiveDefiniteError):
            ChannelSet(h_ar=rand_complex(rng, 4, 2),
                       h_rb=rand_complex(rng, 3, 4),
                       sigma_b=np.diag([1.0, -1.0, 1.0]), p=np.eye(2))

    def test_covariance_must_be_finite_and_hermitian(self):
        # [[2, 1], [0, 2]] has a positive definite Hermitian part, but a
        # factor of its lower triangle gives E_b = diag(0.5, 0.5): neither
        # Sigma^-1 (which has a -0.25 entry) nor the inverse of the
        # Hermitian part.
        rng = np.random.default_rng(0)

        def channels(sigma_b):
            return ChannelSet(h_ar=rand_complex(rng, 4, 2), h_rb=np.eye(2, 4),
                              sigma_b=sigma_b, p=np.eye(2))

        for bad in (np.array([[2.0, 1.0], [0.0, 2.0]]),
                    np.array([[2.0, 1j], [1j, 2.0]]),
                    np.array([[np.nan, 0.0], [0.0, 1.0]]),
                    np.array([[np.inf, 0.0], [0.0, 1.0]])):
            with pytest.raises(ContractViolationError, match="sigma_b"):
                channels(bad)
        # A deviation within HERMITIAN_INPUT_TOL (relative) is accepted,
        # and the stored factor is that of the Hermitian part.
        sigma = np.array([[2.0, 0.5 - 0.5j], [0.5 + 0.5j + 1e-12, 3.0]])
        ch = channels(sigma)
        herm = 0.5 * (sigma + sigma.conj().T)
        np.testing.assert_allclose(ch.low_b @ ch.low_b.conj().T, herm, rtol=1e-14)
        np.testing.assert_array_equal(ch.low_b, np.linalg.cholesky(herm))

    def test_ris_matrix_classes(self):
        rng = np.random.default_rng(2)
        u = haar_unitary(rng, 4)
        RisMatrix(u, ARCH_NONRECIPROCAL)
        with pytest.raises(ContractViolationError):
            RisMatrix(0.5 * u, ARCH_NONRECIPROCAL)
        with pytest.raises(ContractViolationError):
            RisMatrix(u, ARCH_RECIPROCAL)  # generic unitary is not symmetric
        sym = u @ u.T
        RisMatrix(sym, ARCH_RECIPROCAL)
        phases = np.exp(1j * rng.uniform(0, 2 * np.pi, 4))
        RisMatrix(np.diag(phases), ARCH_DIAGONAL)
        off = np.diag(phases)
        off[0, 1] = 1e-12   # off-diagonal must be exactly zero
        with pytest.raises(ContractViolationError):
            RisMatrix(off, ARCH_DIAGONAL)
        with pytest.raises(ContractViolationError):
            RisMatrix(np.diag([1.5, 1.0, 1.0, 1.0]).astype(complex), ARCH_DIAGONAL)
        # magnitudes below one are allowed for the relaxed diagonal outputs
        RisMatrix(np.diag([0.5 * p for p in phases]), ARCH_DIAGONAL)
        with pytest.raises(ValueError, match="architecture"):
            RisMatrix(u, "active")
        with pytest.raises(DimensionError):
            RisMatrix(u[:, :3], ARCH_NONRECIPROCAL)


# ---------------------------------------------------------------- forms / trace

class TestForms:
    def test_matches_direct_inverse(self):
        rng = np.random.default_rng(4)
        ch = make_channels(rng, n_e=4)
        forms = build_forms(ch)
        h = ch.h_ar @ ch.p
        e_direct = ch.h_rb.conj().T @ np.linalg.inv(ch.sigma_b) @ ch.h_rb
        np.testing.assert_allclose(forms.e_b, e_direct, atol=1e-10)
        np.testing.assert_allclose(forms.m, h @ h.conj().T, atol=1e-12)
        e_eve = ch.h_re.conj().T @ np.linalg.inv(ch.sigma_e) @ ch.h_re
        np.testing.assert_allclose(forms.e_e, e_eve, atol=1e-10)

    def test_trace_fim_against_scratch_oracle(self):
        # Information matrix of y = A theta + eta, eta ~ CN(0, Sigma):
        # F = A^H Sigma^-1 A; its trace must match the quadratic form
        # tr(Omega^H E Omega M) at either receiver.
        rng = np.random.default_rng(8)
        for target in ("bob", "eve"):
            ch = make_channels(rng, n_e=4)
            forms = build_forms(ch)
            omega = haar_unitary(rng, 5)
            ris = RisMatrix(omega, ARCH_NONRECIPROCAL)
            h_out = ch.h_rb if target == "bob" else ch.h_re
            sig = ch.sigma_b if target == "bob" else ch.sigma_e
            a = h_out @ omega @ ch.h_ar @ ch.p
            f = a.conj().T @ np.linalg.inv(sig) @ a
            e = forms.e_b if target == "bob" else forms.e_e
            ours = quad_objective(ris.matrix, e, forms.m)
            assert ours == pytest.approx(np.trace(f).real, rel=1e-10)
            np.testing.assert_allclose(fim_matrix(ch, ris, target), f, atol=1e-8)

    def test_quad_objective_unitary_invariance(self):
        # E = I makes the objective tr(M), independent of Omega.
        rng = np.random.default_rng(12)
        m = rand_complex(rng, 5, 2)
        m = m @ m.conj().T
        for _ in range(5):
            val = quad_objective(haar_unitary(rng, 5), np.eye(5), m)
            assert val == pytest.approx(np.trace(m).real, rel=1e-12)

    def test_batch_helper_matches_quad_objective(self):
        # The stacked-GEMM helper of the Haar searches, matrix by matrix.
        rng = np.random.default_rng(13)
        for r in (1, 3, 6):
            e = rand_complex(rng, r)
            e = e @ e.conj().T
            m = rand_complex(rng, r, 2)
            m = m @ m.conj().T
            u = batch_haar(rng, 7, r)
            got = batch_trace_objective(u, e, m)
            want = [quad_objective(ui, e, m) for ui in u]
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)

    def test_quad_objective_rejects_complex_residue(self):
        with pytest.raises(NumericalConsistencyError):
            # Anti-Hermitian "form" makes the value purely imaginary.
            quad_objective(np.eye(2), 1j * np.eye(2), np.eye(2))

    def test_quad_objective_rejects_negative_trace(self):
        # A negative definite "form" gives a real trace far below zero.
        with pytest.raises(NumericalConsistencyError, match="negative"):
            quad_objective(np.eye(2), -np.eye(2), np.eye(2))

    def test_m_is_derived_from_h(self):
        # Bit for bit the Hermitian part of h h^H; there is no m argument.
        ch = make_channels(np.random.default_rng(14), n_e=4)
        forms = build_forms(ch)
        hh = forms.h @ forms.h.conj().T
        np.testing.assert_array_equal(forms.h, ch.h_ar @ ch.p)
        np.testing.assert_array_equal(forms.m, 0.5 * (hh + hh.conj().T))
        with pytest.raises(TypeError):
            QuadraticForms(e_b=forms.e_b, h=forms.h, m=forms.m)

    def test_instance_matrices_are_factored_once(self, monkeypatch):
        """The forms keep the spectra of E_b, M and E_e and the channel set
        the Cholesky factors of Sigma_b and Sigma_e; once both exist, no
        solver, information matrix or Monte-Carlo run factors them again."""
        ch = generate_channels(SystemConfig(k=2, r=6, n_b=4, n_e=4, seed=3))
        forms = build_forms(ch)
        fixed = (forms.e_b, forms.m, forms.e_e)
        for eig, a in zip((forms.eig_b, forms.eig_m, forms.eig_e), fixed):
            want = hermitian_eig(a)
            np.testing.assert_array_equal(eig.values, want.values)
            np.testing.assert_array_equal(eig.vectors, want.vectors)
        assert QuadraticForms(e_b=forms.e_b, h=forms.h).eig_e is None
        noise = (ch.sigma_b, ch.sigma_e)
        for low, sigma in zip((ch.low_b, ch.low_e), noise):
            np.testing.assert_array_equal(low, np.linalg.cholesky(sigma))
        dforms = diag_forms(forms)

        def refuse(real, held, what):
            def wrapped(a, *args, **kwargs):
                if any(np.shape(a) == x.shape and np.array_equal(a, x) for x in held):
                    raise AssertionError(f"{what} factored again")
                return real(a, *args, **kwargs)
            return wrapped

        eig = refuse(hermitian_eig, fixed, "form")
        for info in pkgutil.iter_modules(bdris.__path__):
            module = importlib.import_module(f"bdris.{info.name}")
            if getattr(module, "hermitian_eig", None) is hermitian_eig:
                monkeypatch.setattr(module, "hermitian_eig", eig)
        monkeypatch.setattr(np.linalg, "cholesky",
                            refuse(np.linalg.cholesky, noise, "covariance"))

        uncapped = (solve_nonreciprocal(forms), solve_reciprocal_ao(forms),
                    solve_diagonal_unconstrained(dforms))
        capped = []
        for (ris, rep), solve in zip(uncapped, (
                lambda eps, warm: solve_nonreciprocal(forms, eps),
                lambda eps, warm: solve_pdd(forms, eps, warm=warm),
                lambda eps, warm: solve_diagonal_constrained(dforms, eps, warm=warm))):
            eve = quad_objective(ris.matrix, forms.e_e, forms.m)
            ris_c, rep_c = solve(0.5 * eve, (ris, rep))
            assert rep_c.constraint_values["constraint_active"]
            capped.append(ris_c)
        for ris in capped:
            assert np.isfinite(crb_trace(fim_matrix(ch, ris)))
            fim_matrix(ch, ris, "eve")
        assert simulate_mle_mse(ch, capped[0], trials=100) > 0.0

    def test_bad_shape_raises_at_construction(self):
        rng = np.random.default_rng(15)
        e, h = np.eye(4), rand_complex(rng, 4, 2)
        QuadraticForms(e_b=e, h=h, e_e=e)
        for e_b, h_bad, e_e in ((e[:3], h, None),            # e_b not square
                                (e, h[:-1], None),           # h short of rows
                                (e, h[:, 0], None),          # h not 2-D
                                (e, h, np.eye(3)),           # e_e of wrong size
                                (e[:0, :0], h[:0], None)):   # no element (r = 0)
            with pytest.raises(DimensionError):
                QuadraticForms(e_b=e_b, h=h_bad, e_e=e_e)


    @pytest.mark.parametrize("name", ["e_b", "e_e"])
    def test_indefinite_forms_refused(self, name):
        """An E_b or E_e with an eigenvalue below
        -HERMITIAN_INPUT_TOL max(1, lam_max) is refused; rounding-level
        negative eigenvalues of a PSD form are not."""
        forms = dict(e_b=np.eye(3), h=np.eye(3, 2), e_e=np.eye(3))
        with pytest.raises(ContractViolationError, match=name):
            QuadraticForms(**{**forms, name: -np.eye(3)})
        with pytest.raises(ContractViolationError, match=name):
            QuadraticForms(**{**forms, name: np.diag([1e3, 1.0, -1e-4])})
        QuadraticForms(**{**forms, name: np.diag([1e3, 1.0, -1e-6])})

    def test_fim_matrix_refuses_bad_calls(self):
        rng = np.random.default_rng(17)
        ch = make_channels(rng)
        ris = RisMatrix(haar_unitary(rng, 5), ARCH_NONRECIPROCAL)
        with pytest.raises(ValueError, match="eavesdropper"):
            fim_matrix(ch, ris, "eve")
        with pytest.raises(ValueError, match="target"):
            fim_matrix(ch, ris, "carol")
        with pytest.raises(DimensionError):
            fim_matrix(ch, RisMatrix(haar_unitary(rng, 4), ARCH_NONRECIPROCAL))


def report_solvers(arch):
    """A seeded r = 6 instance with eavesdropper, and the uncapped and the
    capped solver of ``arch`` on it (the capped one takes the cap)."""
    forms = build_forms(generate_channels(SystemConfig(k=2, r=6, n_b=4, n_e=4, seed=3)))
    dforms = diag_forms(forms)
    return (forms,) + {
        ARCH_NONRECIPROCAL: (lambda: solve_nonreciprocal(forms),
                             lambda eps: solve_nonreciprocal(forms, eps)),
        ARCH_RECIPROCAL: (lambda: solve_reciprocal_ao(forms),
                          lambda eps: solve_pdd(forms, eps)),
        ARCH_DIAGONAL: (lambda: solve_diagonal_unconstrained(dforms),
                        lambda eps: solve_diagonal_constrained(dforms, eps)),
    }[arch]


class TestSolveReport:
    @pytest.mark.parametrize("reason, converged", [
        ("closed_form", True), ("stationary", True), ("budget", False),
        ("stalled", False), ("infeasible", False), (None, False)])
    def test_converged_follows_stop_reason(self, reason, converged):
        cv = {} if reason is None else {"stop_reason": reason}
        rep = SolveReport(objective=1.0, bound=2.0, iterations=0,
                          constraint_values=cv)
        assert rep.converged is converged
        assert rep.to_dict()["converged"] is converged
        with pytest.raises(AttributeError):
            rep.converged = not converged

    @pytest.mark.parametrize("arch", ARCHITECTURES)
    @pytest.mark.parametrize("scale, active", [(0.5, True), (2.0, False)])
    def test_capped_solvers_report_cap_residual(self, arch, scale, active):
        """A capped solver called directly, not through the sweep, reports
        the cap, the leakage and cap_residual = eve_value / epsilon_eve - 1;
        an inactive cap returns the uncapped response with its stop reason."""
        forms, uncapped, capped = report_solvers(arch)
        ris0, rep0 = uncapped()
        eps = scale * quad_objective(ris0.matrix, forms.e_e, forms.m)
        ris, rep = capped(eps)
        cv = rep.constraint_values
        assert type(cv["epsilon_eve"]) is float and cv["epsilon_eve"] == eps
        assert cv["cap_residual"] == cv["eve_value"] / cv["epsilon_eve"] - 1.0
        assert cv["eve_value"] == pytest.approx(
            quad_objective(ris.matrix, forms.e_e, forms.m), rel=1e-12)
        assert cv["constraint_active"] is active
        assert rep.converged
        if active:
            assert abs(cv["cap_residual"]) <= 1e-6
        else:
            assert cv["cap_residual"] == pytest.approx(1.0 / scale - 1.0)
            assert cv["stop_reason"] == rep0.constraint_values["stop_reason"]
            np.testing.assert_array_equal(ris.matrix, ris0.matrix)

    @pytest.mark.parametrize("arch", ARCHITECTURES)
    def test_every_report_has_a_trace(self, arch):
        """Every solver's report carries a non-empty cost_trace that ends
        at its objective: uncapped, and at 2, 0.5 and 1e-6 times the
        uncapped leakage (inactive; active; so tight that the reciprocal
        solve ends on its budget)."""
        forms, uncapped, capped = report_solvers(arch)
        ris0, rep0 = uncapped()
        eve0 = quad_objective(ris0.matrix, forms.e_e, forms.m)
        reports = [rep0] + [capped(scale * eve0)[1] for scale in (2.0, 0.5, 1e-6)]
        for rep in reports:
            assert len(rep.cost_trace) >= 1
            assert rep.cost_trace[-1] == pytest.approx(rep.objective, rel=1e-9)


class TestSingleElement:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("k", [1, 2])
    def test_every_solver_takes_one_element(self, k, seed):
        """r = 1: the unitary classes are a phase, so their leakage is fixed
        and a cap below it is infeasible; the diagonal class relaxes the
        phase to |w| <= 1 and meets a cap at half the leakage with half the
        objective. Nothing raises, uncapped or capped at 0.5 and 1.5 of the
        non-reciprocal leakage."""
        forms = build_forms(generate_channels(
            SystemConfig(k=k, r=1, n_b=2 * k, n_e=2 * k, seed=seed)))
        dforms = diag_forms(forms)
        ris0, rep0 = solve_nonreciprocal(forms)
        uncapped = {ARCH_NONRECIPROCAL: rep0,
                    ARCH_RECIPROCAL: solve_reciprocal_ao(forms)[1],
                    ARCH_DIAGONAL: solve_diagonal_unconstrained(dforms)[1]}
        assert all(rep.converged for rep in uncapped.values())
        leakage = quad_objective(ris0.matrix, forms.e_e, forms.m)
        for scale in (0.5, 1.5):
            eps = scale * leakage
            capped = {ARCH_NONRECIPROCAL: solve_nonreciprocal(forms, eps)[1],
                      ARCH_RECIPROCAL: solve_pdd(forms, eps)[1],
                      ARCH_DIAGONAL: solve_diagonal_constrained(dforms, eps)[1]}
            for arch, rep in capped.items():
                ratio = rep.objective / uncapped[arch].objective
                if scale > 1.0 or arch == ARCH_DIAGONAL:
                    assert rep.converged
                    assert rep.constraint_values["eve_value"] <= eps * (1.0 + 1e-8)
                    assert ratio == pytest.approx(min(scale, 1.0), rel=1e-8)
                else:
                    assert not rep.converged
                    assert rep.constraint_values["stop_reason"] == "infeasible"
                    assert ratio == pytest.approx(1.0, rel=1e-12)


# ------------------------------------------------------------------- crb / mle

def whole_block_mse(ch, ris, trials, seed):
    """The Monte-Carlo noise and MSE as one whole-block formula: every
    trial's draw, sum and estimate in a single array operation each."""
    g = ch.h_rb @ ris.matrix @ ch.h_ar @ ch.p
    weighted = np.linalg.solve(ch.low_b.conj().T, np.linalg.solve(ch.low_b, g))
    f = g.conj().T @ weighted
    estimator = np.linalg.solve(0.5 * (f + f.conj().T), weighted.conj().T)
    rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])
    n_b = ch.h_rb.shape[0]
    z = rng.standard_normal((trials, n_b)) + 1j * rng.standard_normal((trials, n_b))
    theta = np.ones(ch.k, dtype=complex)
    eta = (np.sqrt(0.5) * z) @ ch.low_b.T
    y = (g @ theta)[None, :] + eta
    err = y @ estimator.T - theta[None, :]
    return eta, float(np.sum(np.abs(err) ** 2)) / trials


def mle_instance():
    """A seeded r = 8, k = 3, n_b = 6 channel set with a Haar design."""
    ch = generate_channels(SystemConfig(k=3, r=8, n_b=6, seed=1))
    return ch, RisMatrix(haar_unitary(np.random.default_rng(0), 8), ARCH_NONRECIPROCAL)


class TestCrbAndMle:
    def test_crb_spectral_oracle(self):
        rng = np.random.default_rng(16)
        a = rand_complex(rng, 6, 3)
        f = a.conj().T @ a
        w = np.linalg.eigvalsh(f)
        assert crb_trace(f) == pytest.approx(float(np.sum(1.0 / w)), rel=1e-10)

    def test_singular_fim_is_inf(self):
        with pytest.warns(RuntimeWarning):
            assert crb_trace(np.zeros((2, 2))) == np.inf

    def test_ill_conditioned_fim_is_inf(self):
        """Beyond COND_LIMIT the CRB is reported as inf; just inside it,
        tr F^-1 is still the sum of inverse eigenvalues."""
        with pytest.warns(RuntimeWarning, match="ill-conditioned"):
            assert crb_trace(np.diag([1.0, 0.5 / COND_LIMIT])) == np.inf
        assert crb_trace(np.diag([1.0, 2.0 / COND_LIMIT])) == pytest.approx(
            1.0 + 0.5 * COND_LIMIT, rel=1e-12)

    @pytest.mark.parametrize("fim, error", [
        (np.eye(2, 3), DimensionError),
        (np.ones(3), DimensionError),
        (np.array([[1.0, 0.5], [0.0, 1.0]]), ContractViolationError),
    ])
    def test_crb_refuses_malformed_input(self, fim, error):
        with pytest.raises(error):
            crb_trace(fim)

    def test_scalar_closed_form(self):
        # k=1: CRB = sigma^2-weighted 1/||a||^2; MC-MSE of the exact MLE
        # matches within sampling noise.
        rng = np.random.default_rng(20)
        ch = make_channels(rng, r=4, k=1, n_b=3, noise=0.05)
        omega = haar_unitary(rng, 4)
        ris = RisMatrix(omega, ARCH_NONRECIPROCAL)
        a = ch.h_rb @ omega @ ch.h_ar @ ch.p
        crb = crb_trace(fim_matrix(ch, ris, "bob"))
        assert crb == pytest.approx(0.05 / np.linalg.norm(a) ** 2, rel=1e-9)
        mse = simulate_mle_mse(ch, ris, trials=4000, seed=3)
        assert mse == pytest.approx(crb, rel=0.1)

    def test_mse_tracks_crb(self):
        rng = np.random.default_rng(24)
        ch = make_channels(rng, r=6, k=3, n_b=5, noise=0.2)
        ris = RisMatrix(haar_unitary(rng, 6), ARCH_NONRECIPROCAL)
        crb = crb_trace(fim_matrix(ch, ris, "bob"))
        mse = simulate_mle_mse(ch, ris, trials=6000, seed=1)
        assert mse == pytest.approx(crb, rel=0.08)

    def test_mse_scales_with_noise(self):
        # Same seed, noise halved: the whitened errors are identical draws,
        # so the MSE scales exactly by the noise ratio.
        rng = np.random.default_rng(28)
        base = make_channels(rng, noise=0.2)
        half = ChannelSet(h_ar=base.h_ar, h_rb=base.h_rb,
                          sigma_b=0.1 * np.eye(4), p=base.p)
        ris = RisMatrix(haar_unitary(rng, 5), ARCH_NONRECIPROCAL)
        m1 = simulate_mle_mse(base, ris, trials=500, seed=11)
        m2 = simulate_mle_mse(half, ris, trials=500, seed=11)
        assert m2 / m1 == pytest.approx(0.5, rel=1e-9)

    def test_rank_deficient_design_raises(self):
        rng = np.random.default_rng(32)
        ch = ChannelSet(h_ar=np.zeros((4, 2), dtype=complex),
                        h_rb=rand_complex(rng, 3, 4),
                        sigma_b=np.eye(3), p=np.eye(2))
        ris = RisMatrix(haar_unitary(rng, 4), ARCH_NONRECIPROCAL)
        with pytest.raises(EstimationIllPosedError):
            simulate_mle_mse(ch, ris, trials=10, seed=0)


    def test_trials_checked_before_the_design(self):
        # A trial count below one is refused first, even on a design that
        # would also fail the rank check.
        rng = np.random.default_rng(33)
        ch = ChannelSet(h_ar=np.zeros((4, 2), dtype=complex),
                        h_rb=rand_complex(rng, 3, 4),
                        sigma_b=np.eye(3), p=np.eye(2))
        ris = RisMatrix(haar_unitary(rng, 4), ARCH_NONRECIPROCAL)
        with pytest.raises(ValueError, match="trials"):
            simulate_mle_mse(ch, ris, trials=0, seed=0)

    def test_one_noise_draw_serves_every_row_of_a_job(self, tmp_path, monkeypatch):
        """A three-architecture Monte-Carlo job draws its noise once, and each
        row's mse_mc equals, bit for bit, the estimate from a fresh draw made
        the way every call drew it before the noise was kept."""
        from bdris import experiments, model

        draws, calls = [], []
        draw = model._draw_noise
        simulate = experiments.simulate_mle_mse

        def counted_draw(*args):
            draws.append(args)
            return draw(*args)

        def recorded(ch, ris, trials, seed):
            mse = simulate(ch, ris, trials=trials, seed=seed)
            calls.append((ch, ris, trials, seed, mse))
            return mse

        monkeypatch.setattr(model, "_draw_noise", counted_draw)
        monkeypatch.setattr(experiments, "simulate_mle_mse", recorded)
        spec = experiments.ExperimentSpec(
            cfg=SystemConfig(k=2, r=6, n_b=4, seed=5), scenarios=("no-eve",),
            mc_trials=300, output_path=tmp_path)
        with pytest.warns(UserWarning):   # no capped rows, so no plots
            rows = experiments.run_experiment(spec)
        assert len(draws) == 1 and len(calls) == len(rows) == 3

        for (ch, ris, trials, seed, mse), row in zip(calls, rows):
            _, fresh = whole_block_mse(ch, ris, trials, seed)
            assert mse == fresh == row["mse_mc"]
        with pytest.raises(ValueError, match="read-only"):
            calls[0][0].noise_b(300, 5)[0, 0] = 0.0

    @pytest.mark.parametrize("chunks, rows", [(0, 1), (1, 0), (2, 7)])
    def test_chunked_path_matches_the_whole_block(self, chunks, rows):
        """One trial, one full chunk of rows, and two chunks plus seven rows:
        the kept noise and the MSE equal the whole-block formula bit for
        bit."""
        from bdris import model

        trials = chunks * model._MC_CHUNK + rows
        ch, ris = mle_instance()
        eta, fresh = whole_block_mse(ch, ris, trials, seed=4)
        kept = ch.noise_b(trials, 4)
        assert kept.shape == eta.shape and kept.tobytes() == eta.tobytes()
        assert simulate_mle_mse(ch, ris, trials=trials, seed=4) == fresh

    def test_memory_does_not_grow_with_trials(self):
        """Beyond the kept noise block and the trials-by-k squared errors,
        the draw and the estimate hold a fixed number of chunk-sized
        temporaries, whatever the trial count. The allowance is three
        complex chunks of n_b columns, which cover a chunk's sum with
        G theta, numpy's buffer for that broadcast sum, and a chunk's
        product with the estimator or with L^T."""
        from bdris import model

        ch, ris = mle_instance()
        n_b, k = ch.h_rb.shape[0], ch.k
        allowance = 3 * model._MC_CHUNK * n_b * 16
        extra = {}
        for trials in (20_000, 40_000):
            tracemalloc.start()
            try:
                block = ch.noise_b(trials, 2)
                draw = tracemalloc.get_traced_memory()[1] - block.nbytes
                tracemalloc.reset_peak()
                simulate_mle_mse(ch, ris, trials=trials, seed=2)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            extra[trials] = (draw, peak - block.nbytes - trials * k * 8)
        for draw, simulate in extra.values():
            assert 0 < draw < allowance and 0 < simulate < allowance
        for small, large in zip(extra[20_000], extra[40_000]):
            assert abs(large - small) <= 4096
