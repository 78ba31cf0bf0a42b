"""Dense linear-algebra kernel properties, and the one input check that
every matrix operand of the package goes through.

Ground truths: scipy.linalg.expm for the skew exponential, an order-6
Taylor series at small steps, brute-force random search for the two
nearest-matrix projections (no sampled matrix may beat the projection),
and the SVD polar factor of T + T^T for the symmetric projection.
"""
import numpy as np
import pytest
import scipy.linalg

from conftest import haar_unitary, rand_complex

from bdris.diagonal import DiagForms
from bdris.errors import ContractViolationError, DimensionError
from bdris.kernels import (
    STRUCTURE_TOL,
    expm_skew,
    hermitian_eig,
    nearest_symmetric_unitary,
    takagi,
    unitary_procrustes,
)
from bdris.model import ChannelSet, QuadraticForms, crb_trace
from bdris.pdd import qcqp_spectral


def unitary_defect(u):
    return np.linalg.norm(u.conj().T @ u - np.eye(u.shape[0]))


# ---------------------------------------------------------------- hermitian_eig

class TestHermitianEig:
    def test_reconstruction_and_order(self):
        rng = np.random.default_rng(11)
        for _ in range(40):
            n = rng.integers(2, 9)
            a = rand_complex(rng, n)
            a = a @ a.conj().T
            eig = hermitian_eig(a)
            assert np.all(np.diff(eig.values) <= 1e-12)  # descending
            recon = (eig.vectors * eig.values) @ eig.vectors.conj().T
            assert np.linalg.norm(recon - a) <= 1e-10 * max(1, np.linalg.norm(a))
            assert unitary_defect(eig.vectors) <= 1e-10

    def test_diagonal_input(self):
        eig = hermitian_eig(np.diag([1.0, 5.0, 3.0]))
        np.testing.assert_allclose(eig.values, [5.0, 3.0, 1.0], atol=1e-12)

    def test_rejects_non_hermitian(self):
        with pytest.raises(ContractViolationError):
            hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_rejects_non_square(self):
        for a in (np.ones((2, 3)), np.ones(3)):
            with pytest.raises(DimensionError, match="square"):
                hermitian_eig(a)


# ----------------------------------------------------------------------- takagi

class TestTakagi:
    def test_random_symmetric(self):
        rng = np.random.default_rng(7)
        for _ in range(60):
            n = rng.integers(2, 9)
            a = rand_complex(rng, n)
            a = a + a.T
            fac = takagi(a)
            assert np.all(fac.sigma >= -1e-14)
            assert np.all(np.diff(fac.sigma) <= 1e-12)
            assert unitary_defect(fac.u) <= 1e-9
            recon = (fac.u * fac.sigma) @ fac.u.T
            assert np.linalg.norm(recon - a) <= 1e-9 * max(1, np.linalg.norm(a))

    def test_exchange_matrix(self):
        # Degenerate singular values with a non-symmetric naive phase choice.
        a = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
        fac = takagi(a)
        np.testing.assert_allclose(fac.sigma, [1.0, 1.0], atol=1e-12)
        recon = (fac.u * fac.sigma) @ fac.u.T
        np.testing.assert_allclose(recon, a, atol=1e-12)

    def test_rank_deficient(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            b = rand_complex(rng, 6, 3)
            a = b @ b.T  # complex symmetric, rank <= 3
            fac = takagi(a)
            assert np.sum(fac.sigma > 1e-10) <= 3
            recon = (fac.u * fac.sigma) @ fac.u.T
            assert np.linalg.norm(recon - a) <= 1e-9 * max(1, np.linalg.norm(a))
            assert unitary_defect(fac.u) <= 1e-9

    def test_real_negative_diagonal(self):
        # sqrt branch at eigenvalue -1 of the phase block.
        a = np.diag([-2.0, -1.0, 3.0]).astype(complex)
        fac = takagi(a)
        recon = (fac.u * fac.sigma) @ fac.u.T
        np.testing.assert_allclose(recon, a, atol=1e-12)

    @pytest.mark.parametrize("n", [8, 36, 64])
    def test_hard_spectra(self, n):
        # Spectra that defeat singular-value clustering: geometric down to
        # 1e-18, half zero, pairs split by 1e-9, fourfold repeats, each
        # under four Haar frames; and S = P + P^T for the n-cycle and for
        # a product of 4-cycles, both singular (4 divides n).
        rng = np.random.default_rng(n)
        spectra = {
            "geometric": lambda: np.geomspace(1.0, 1e-18, n),
            "half zero": lambda: np.r_[rng.uniform(0.5, 2.0, n - n // 2),
                                       np.zeros(n // 2)],
            "split 1e-9": lambda: np.repeat(rng.uniform(0.5, 2.0, n // 2), 2)
            + np.tile([0.0, 1e-9], n // 2),
            "fourfold": lambda: np.repeat(rng.uniform(0.5, 2.0, n // 4), 4),
        }
        cases = []
        for name, draw in spectra.items():
            for _ in range(4):
                u = haar_unitary(rng, n)
                cases.append((name, (u * np.sort(draw())[::-1]) @ u.T))
        for shift in (1, n // 4):
            p = np.roll(np.eye(n), shift, axis=1)
            cases.append((f"cycle shift {shift}", (p + p.T).astype(complex)))
        for name, a in cases:
            fac = takagi(a)
            recon = (fac.u * fac.sigma) @ fac.u.T
            assert np.linalg.norm(recon - a) <= 1e-13 * np.linalg.norm(a), name
            assert unitary_defect(fac.u) <= 1e-12, name
            assert np.all(np.diff(fac.sigma) <= 0.0), name

    def test_zero_matrix(self):
        fac = takagi(np.zeros((4, 4), dtype=complex))
        np.testing.assert_allclose(fac.sigma, 0.0, atol=1e-14)
        assert unitary_defect(fac.u) <= 1e-12

    def test_rejects_non_symmetric(self):
        with pytest.raises(ContractViolationError):
            takagi(np.array([[1.0, 2.0], [0.0, 1.0]], dtype=complex))


# ------------------------------------------------------------------- expm_skew

class TestExpmSkew:
    def test_matches_scipy(self):
        rng = np.random.default_rng(19)
        for _ in range(40):
            n = rng.integers(2, 8)
            s = rand_complex(rng, n)
            s = s - s.conj().T
            step = float(rng.uniform(0.01, 2.0))
            ours = expm_skew(s, step)
            ref = scipy.linalg.expm(step * s)
            assert np.linalg.norm(ours - ref) <= 1e-10 * max(1, np.linalg.norm(ref))
            assert unitary_defect(ours) <= 1e-12

    def test_small_step_taylor(self):
        # Order-8 Taylor series is an independent ground truth at step 0.01
        # (||step*s|| ~ 0.05, so the truncation error is far below 1e-12).
        rng = np.random.default_rng(23)
        s = rand_complex(rng, 5)
        s = s - s.conj().T
        step = 0.01
        x = step * s
        ref = np.eye(5, dtype=complex)
        term = np.eye(5, dtype=complex)
        for j in range(1, 9):
            term = term @ x / j
            ref = ref + term
        assert np.linalg.norm(expm_skew(s, step) - ref) <= 1e-12

    def test_group_property(self):
        rng = np.random.default_rng(29)
        for _ in range(25):
            n = rng.integers(2, 7)
            s = rand_complex(rng, n)
            s = s - s.conj().T
            a, b = rng.uniform(0.1, 1.0, size=2)
            lhs = expm_skew(s, a + b)
            rhs = expm_skew(s, a) @ expm_skew(s, b)
            assert np.linalg.norm(lhs - rhs) <= 1e-9

    def test_zero_step_is_identity(self):
        s = np.array([[0.0, 1.0], [-1.0, 0.0]])
        np.testing.assert_allclose(expm_skew(s, 0.0), np.eye(2), atol=1e-14)

    def test_rejects_non_skew(self):
        with pytest.raises(ContractViolationError):
            expm_skew(np.eye(3), 0.5)


# ----------------------------------------------------------- nearest projections

class TestProcrustes:
    def test_idempotent_on_unitary(self):
        rng = np.random.default_rng(31)
        for _ in range(25):
            u = haar_unitary(rng, int(rng.integers(2, 8)))
            assert np.linalg.norm(unitary_procrustes(u) - u) <= 1e-10

    def test_beats_random_search(self):
        # No random unitary may be closer to the target than the projection.
        rng = np.random.default_rng(37)
        for _ in range(5):
            n = 4
            t = rand_complex(rng, n)
            star = unitary_procrustes(t)
            best_gain = -np.inf
            for _ in range(10000):
                gain = np.vdot(haar_unitary(rng, n), t).real
                best_gain = max(best_gain, gain)
            assert np.vdot(star, t).real >= best_gain - 1e-9

    def test_polar_factor_identity(self):
        # For invertible targets the projection is T (T^H T)^{-1/2}.
        rng = np.random.default_rng(41)
        t = rand_complex(rng, 5)
        w, v = np.linalg.eigh(t.conj().T @ t)
        ref = t @ (v * (1.0 / np.sqrt(w))) @ v.conj().T
        assert np.linalg.norm(unitary_procrustes(t) - ref) <= 1e-9

    def test_rank_deficient_warns(self):
        t = np.zeros((3, 3), dtype=complex)
        t[0, 0] = 1.0
        with pytest.warns(RuntimeWarning):
            u = unitary_procrustes(t)
        assert unitary_defect(u) <= 1e-10


class TestNearestSymmetricUnitary:
    def test_output_is_symmetric_unitary(self):
        rng = np.random.default_rng(43)
        for _ in range(40):
            n = int(rng.integers(2, 8))
            t = rand_complex(rng, n)
            u = nearest_symmetric_unitary(t)
            assert np.linalg.norm(u - u.T) <= 1e-9
            assert unitary_defect(u) <= 1e-9

    def test_idempotent_on_symmetric_unitary(self):
        rng = np.random.default_rng(47)
        for _ in range(25):
            n = int(rng.integers(2, 7))
            m = rand_complex(rng, n)
            fac = takagi(m + m.T)
            u0 = fac.u @ fac.u.T  # symmetric unitary by construction
            assert np.linalg.norm(nearest_symmetric_unitary(u0) - u0) <= 1e-9

    def test_beats_random_symmetric_search(self):
        rng = np.random.default_rng(53)
        n = 4
        t = rand_complex(rng, n)
        star = nearest_symmetric_unitary(t)
        # Projection maximizes Re tr(U^H T) over symmetric unitaries.
        best_gain = -np.inf
        for _ in range(10000):
            q = haar_unitary(rng, n)
            u = q @ q.T
            best_gain = max(best_gain, np.vdot(u, t).real)
        assert np.vdot(star, t).real >= best_gain - 1e-9


def symmetric_with_spectrum(rng, sigma):
    """T whose symmetric part S = T + T^T has singular values ``sigma``.

    S = U diag(sigma) U^T with a Haar U; a random complex skew-symmetric
    part is added to T, which the projection must ignore.
    """
    n = sigma.size
    u = haar_unitary(rng, n)
    a = rand_complex(rng, n)
    return 0.5 * (u * sigma) @ u.T + (a - a.T)


def polar_factor(t):
    """Polar factor P Q^H of S = T + T^T from its SVD S = P Sigma Q^H."""
    p, _, qh = np.linalg.svd(t + t.T)
    return p @ qh


class TestSymmetricPolarFactor:
    """The Takagi construction U U^T against the polar factor of T + T^T."""

    def test_matches_svd_polar_factor(self):
        # For a nonsingular S the polar factor is symmetric and unique.
        rng = np.random.default_rng(59)
        for n in (2, 3, 5, 8, 16, 36, 64):
            for _ in range(3):
                t = rand_complex(rng, n)
                star = nearest_symmetric_unitary(t)
                assert np.linalg.norm(star - polar_factor(t)) <= 1e-11

    @pytest.mark.parametrize("cond", [1e2, 1e4, 1e6, 1e8, 1e10, 1e11, 1e12,
                                      1e13, 1e14])
    def test_near_singular_targets(self, cond):
        rng = np.random.default_rng(int(np.log10(cond)))
        for n in (4, 36):
            t = symmetric_with_spectrum(rng, np.geomspace(1.0, 1.0 / cond, n))
            self._check_projection(t)

    def test_exactly_singular_targets(self):
        rng = np.random.default_rng(61)
        a = rand_complex(rng, 6)
        skew = a - a.T                     # S = 0: every symmetric unitary ties
        v = rand_complex(rng, 6, 1)
        rank_one = 0.5 * (v @ v.T) + skew  # S = v v^T
        for t in (skew, rank_one):
            self._check_projection(t)

    @staticmethod
    def _check_projection(t):
        star = nearest_symmetric_unitary(t)
        assert np.linalg.norm(star - star.T) <= 1e-9
        assert unitary_defect(star) <= 1e-9
        # Re tr(Omega^H T) is at most half the nuclear norm of T + T^T over
        # all unitaries; the projection attains it.
        gain = np.vdot(star, t).real
        bound = 0.5 * np.linalg.svd(t + t.T, compute_uv=False).sum()
        assert gain >= bound - 1e-9 * np.linalg.norm(t)


# ------------------------------------------------------------ shared input check

def _channels(**covariances):
    """A 3-element ChannelSet whose covariances default to the identity."""
    return ChannelSet(h_ar=np.ones((3, 1)), h_rb=np.eye(3), p=np.eye(1),
                      h_re=np.eye(3), **{"sigma_b": np.eye(3), "sigma_e": np.eye(3),
                                         **covariances})


def _forms(**operands):
    """QuadraticForms on 3 elements whose E_b and E_e default to the identity."""
    return QuadraticForms(h=np.eye(3, 2), **{"e_b": np.eye(3), "e_e": np.eye(3),
                                             **operands})


# Every matrix operand the shared check guards: (call on the operand, the
# operand's name in the error, the structure it must have).
OPERANDS = {
    "hermitian_eig": (hermitian_eig, "a", "Hermitian"),
    "takagi": (takagi, "a", "symmetric"),
    "expm_skew": (expm_skew, "s", "skew-Hermitian"),
    "unitary_procrustes": (unitary_procrustes, "t", None),
    "nearest_symmetric_unitary": (nearest_symmetric_unitary, "t", None),
    "crb_trace": (crb_trace, "fim", "Hermitian"),
    "sigma_b": (lambda a: _channels(sigma_b=a), "sigma_b", "Hermitian"),
    "sigma_e": (lambda a: _channels(sigma_e=a), "sigma_e", "Hermitian"),
    "e_b": (lambda a: _forms(e_b=a), "e_b", "Hermitian"),
    "e_e": (lambda a: _forms(e_e=a), "e_e", "Hermitian"),
    "c_b": (lambda a: DiagForms(c_b=a, c_e=np.eye(3)), "c_b", "Hermitian"),
    "c_e": (lambda a: DiagForms(c_b=np.eye(3), c_e=a), "c_e", "Hermitian"),
}

# The positive semidefinite operands: a call on a Hermitian matrix and its name.
PSD_OPERANDS = {
    "e_b": (lambda a: _forms(e_b=a), "e_b"),
    "e_e": (lambda a: _forms(e_e=a), "e_e"),
    "c_b": (lambda a: DiagForms(c_b=a, c_e=np.eye(3)), "c_b"),
    "c_e": (lambda a: DiagForms(c_b=np.eye(3), c_e=a), "c_e"),
    "qcqp_spectral": (lambda a: qcqp_spectral(np.ones(3, dtype=complex),
                                              hermitian_eig(a), 1.0),
                      "constraint matrix"),
}


class TestSharedInputCheck:
    """One rule for every matrix operand: square, finite, and within one
    tolerance, STRUCTURE_TOL, of its structure and of positive
    semidefiniteness."""

    @staticmethod
    def _base(structure):
        """A valid 3x3 operand of the structure: the identity, or i times it
        for a skew-Hermitian one."""
        return (1j if structure == "skew-Hermitian" else 1.0) * np.eye(3, dtype=complex)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("operand", list(OPERANDS))
    def test_non_finite_entry_refused(self, operand, value):
        call, name, structure = OPERANDS[operand]
        bad = self._base(structure)
        bad[1, 1] = value
        with pytest.raises(ContractViolationError, match=f"^{name} must be finite"):
            call(bad)

    @pytest.mark.parametrize("operand", list(OPERANDS)[:6] + ["c_b"])
    def test_non_square_refused(self, operand):
        """Operands whose shape no other operand fixes first (the covariances,
        E_e and c_e must match the channels, E_b or c_b)."""
        call, name, _ = OPERANDS[operand]
        with pytest.raises(DimensionError, match=f"^{name} must be a square matrix"):
            call(np.ones((3, 2)))

    @pytest.mark.parametrize("operand", [op for op, (_, _, structure) in OPERANDS.items()
                                         if structure is not None])
    def test_one_tolerance_for_every_structure(self, operand):
        """A deviation of one entry from the mirror of half the tolerance
        passes, of twice the tolerance is refused, at max|A| = 1."""
        call, name, structure = OPERANDS[operand]
        for factor, accepted in ((0.5, True), (2.0, False)):
            a = self._base(structure)
            a[0, 1] += factor * STRUCTURE_TOL
            if accepted:
                call(a)
            else:
                with pytest.raises(ContractViolationError,
                                   match=f"^{name} is not {structure}"):
                    call(a)

    @pytest.mark.parametrize("operand", list(PSD_OPERANDS))
    def test_one_tolerance_for_positive_semidefinite(self, operand):
        """A least eigenvalue of -0.5 STRUCTURE_TOL max(1, lam_max) passes and
        one of -2 STRUCTURE_TOL max(1, lam_max) is refused, at lam_max = 1 and
        at lam_max = 100."""
        call, name = PSD_OPERANDS[operand]
        for top in (1.0, 100.0):
            call(np.diag([top, 1.0, -0.5 * STRUCTURE_TOL * top]))
            with pytest.raises(ContractViolationError,
                               match=f"^{name} must be positive semidefinite"):
                call(np.diag([top, 1.0, -2.0 * STRUCTURE_TOL * top]))
