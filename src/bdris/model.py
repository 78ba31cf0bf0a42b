"""Physical layer: channels, quadratic forms, Fisher information, CRB, MLE.

The measurement at a receiver with output channel H_out is

    y = (H_out Omega H_ar P) theta + eta,      eta ~ CN(0, Sigma),

where Omega is the surface response matrix and P the source amplitude
matrix.  The average Fisher information about theta reduces to the
quadratic form tr(Omega^H E Omega M) with E = H_out^H Sigma^{-1} H_out
and M = H H^H, H = H_ar P.  This module owns those objects plus the CRB
and a Monte-Carlo maximum-likelihood check.  Each fixed matrix is
factored once, by the object that holds it: ``ChannelSet`` keeps the
Cholesky factors of Sigma_b and Sigma_e, ``QuadraticForms`` the spectra
of E_b, M and E_e that every solver reads.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from . import tolerances as tol
from .errors import (
    ContractViolationError,
    DimensionError,
    EstimationIllPosedError,
    NotPositiveDefiniteError,
    NumericalConsistencyError,
)
from .kernels import HermEig, hermitian_eig

__all__ = [
    "ARCH_NONRECIPROCAL",
    "ARCH_RECIPROCAL",
    "ARCH_DIAGONAL",
    "ARCHITECTURES",
    "SystemConfig",
    "ChannelSet",
    "QuadraticForms",
    "RisMatrix",
    "generate_channels",
    "build_forms",
    "quad_objective",
    "fim_matrix",
    "crb_trace",
    "simulate_mle_mse",
]

ARCH_NONRECIPROCAL = "non-reciprocal"
ARCH_RECIPROCAL = "reciprocal"
ARCH_DIAGONAL = "diagonal"
ARCHITECTURES = (ARCH_NONRECIPROCAL, ARCH_RECIPROCAL, ARCH_DIAGONAL)

# Trial rows per Monte-Carlo chunk: 1 024 rows of 30 receive antennas (the
# r = 64 reference) are 480 KB of complex noise, which fits in L2. There, a
# draw and three estimates of 10^4 trials took 16.8 ms against 17.1-17.8 ms
# with 256-4 096 rows and 19.1 ms for the whole block (one OpenBLAS thread,
# 2-core Xeon). Beside the kept noise and one real trials-by-k array of
# squared errors, the Monte-Carlo path makes no array the size of the
# trial count.
_MC_CHUNK = 1024


@dataclass
class SystemConfig:
    """Dimensions and physical constants of one scenario.

    ``n_e = 0`` means no unintended receiver: no channel is drawn for it.
    """

    k: int
    r: int
    n_b: int
    n_e: int = 0
    total_power: float = 30.0
    noise_variance: float = 1e-5
    seed: int = 0

    def __post_init__(self):
        if self.k < 1 or self.r < 1 or self.n_b < 1:
            raise ValueError("k, r and n_b must all be at least 1")
        if self.n_e < 0:
            raise ValueError("n_e must be non-negative (0: no unintended receiver)")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        if not 0 < self.total_power < np.inf:
            raise ValueError("total_power must be positive and finite")
        if not 0 < self.noise_variance < np.inf:
            raise ValueError("noise_variance must be positive and finite")

    @property
    def eve_present(self) -> bool:
        """Whether an unintended receiver is modelled (n_e > 0)."""
        return self.n_e > 0


def _check_covariance(sigma: np.ndarray, h_out: np.ndarray, name: str):
    """Refuse a misshapen, non-finite, non-Hermitian or indefinite Sigma;
    return it with the lower Cholesky factor L of its Hermitian part."""
    sigma, n = np.asarray(sigma), h_out.shape[0]
    if sigma.shape != (n, n):
        raise DimensionError(f"{name} must have shape {(n, n)}, got {sigma.shape}")
    scale = float(np.max(np.abs(sigma), initial=0.0)) or 1.0
    if not np.isfinite(scale):
        raise ContractViolationError(f"{name} must be finite")
    if np.max(np.abs(sigma - sigma.conj().T), initial=0.0) > tol.HERMITIAN_INPUT_TOL * scale:
        raise ContractViolationError(f"{name} must be Hermitian")
    try:
        low = np.linalg.cholesky(0.5 * (sigma + sigma.conj().T))
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefiniteError(f"{name} is not positive definite") from exc
    return sigma, low


@dataclass
class ChannelSet:
    """One realization of all propagation channels plus noise and power."""

    h_ar: np.ndarray                 # (r, k) source-to-surface
    h_rb: np.ndarray                 # (n_b, r) surface-to-intended-receiver
    sigma_b: np.ndarray              # (n_b, n_b) Hermitian positive definite
    p: np.ndarray                    # (k, k) diagonal, non-negative
    h_re: np.ndarray | None = None   # (n_e, r) surface-to-eavesdropper
    sigma_e: np.ndarray | None = None
    low_b: np.ndarray = field(init=False)     # lower Cholesky factor of sigma_b
    low_e: np.ndarray | None = field(init=False, default=None)   # ... of sigma_e
    _noise_b: dict = field(init=False, default_factory=dict, repr=False,
                           compare=False)     # (trials, seed) -> noise_b draw

    def __post_init__(self):
        self.h_ar = np.asarray(self.h_ar, dtype=complex)
        self.h_rb = np.asarray(self.h_rb, dtype=complex)
        if self.h_ar.ndim != 2 or self.h_rb.ndim != 2:
            raise DimensionError("h_ar and h_rb must be matrices")
        r, _k = self.h_ar.shape
        if self.h_rb.shape[1] != r:
            raise DimensionError(
                f"h_rb has {self.h_rb.shape[1]} columns but the surface has {r} elements"
            )
        self.sigma_b, self.low_b = _check_covariance(self.sigma_b, self.h_rb, "sigma_b")
        self.p = np.asarray(self.p, dtype=float)
        if self.p.shape != (self.k, self.k):
            raise DimensionError(f"p must have shape {(self.k, self.k)}")
        if (self.h_re is None) != (self.sigma_e is None):
            raise ContractViolationError("h_re and sigma_e must be provided together")
        if self.h_re is not None:
            self.h_re = np.asarray(self.h_re, dtype=complex)
            if self.h_re.ndim != 2 or self.h_re.shape[1] != r:
                raise DimensionError("h_re must have r columns")
            self.sigma_e, self.low_e = _check_covariance(self.sigma_e, self.h_re, "sigma_e")
        for name in ("h_ar", "h_rb", "h_re", "p"):
            a = getattr(self, name)
            if a is not None and not np.isfinite(a).all():
                raise ContractViolationError(f"{name} must be finite")
        if np.any(self.p != np.diag(np.diag(self.p))) or np.any(np.diag(self.p) < 0):
            raise ContractViolationError("p must be diagonal with non-negative entries")

    @property
    def r(self) -> int:
        return self.h_ar.shape[0]

    @property
    def k(self) -> int:
        return self.h_ar.shape[1]

    def noise_b(self, trials: int, seed: int) -> np.ndarray:
        """``trials`` rows of eta ~ CN(0, Sigma_b), read-only.

        The draw comes from the first child of ``SeedSequence(seed)`` and is
        kept per (trials, seed), so every design simulated on these channels
        sees the same noise without drawing it again. It is made in row
        chunks (see ``_draw_noise``), bit for bit equal to the whole-block
        draw, and is the one complex trials-by-n_b array the Monte-Carlo
        path holds.
        """
        key = (trials, seed)
        if key not in self._noise_b:
            eta = _draw_noise(self.low_b, trials, seed)
            eta.flags.writeable = False
            self._noise_b[key] = eta
        return self._noise_b[key]


@dataclass
class QuadraticForms:
    """Quadratic forms entering the trace objective tr(Omega^H E Omega M).

    M = h h^H is derived from the source matrix h, so the two always agree,
    and the spectra of E_b, M and E_e are taken once, here; an indefinite
    E_b or E_e is refused, and so is a surface with no element (r = 0).
    """

    e_b: np.ndarray                  # (r, r) Hermitian PSD
    h: np.ndarray                    # (r, k) effective source matrix H_ar P
    e_e: np.ndarray | None = None    # (r, r) Hermitian PSD, eavesdropper side
    m: np.ndarray = field(init=False)   # (r, r) Hermitian PSD, h h^H
    eig_b: HermEig = field(init=False)                        # of e_b
    eig_m: HermEig = field(init=False)                        # of m
    eig_e: HermEig | None = field(init=False)                 # of e_e

    def __post_init__(self):
        r = self.e_b.shape[0]
        if self.e_b.shape != (r, r):
            raise DimensionError(f"e_b must be square, got shape {self.e_b.shape}")
        if r < 1:
            raise DimensionError("the surface needs at least one element (r >= 1)")
        if self.h.ndim != 2 or self.h.shape[0] != r:
            raise DimensionError(f"h must have {r} rows, got shape {self.h.shape}")
        if self.e_e is not None and self.e_e.shape != (r, r):
            raise DimensionError(f"e_e must have shape {(r, r)}, got {self.e_e.shape}")
        m = self.h @ self.h.conj().T
        self.m = 0.5 * (m + m.conj().T)
        self.eig_b = hermitian_eig(self.e_b)
        self.eig_m = hermitian_eig(self.m)
        self.eig_e = None if self.e_e is None else hermitian_eig(self.e_e)
        for name, eig in (("e_b", self.eig_b), ("e_e", self.eig_e)):
            if eig is not None and eig.values[-1] < (
                    -tol.HERMITIAN_INPUT_TOL * max(1.0, eig.values[0])):
                raise ContractViolationError(f"{name} must be positive semidefinite")

    @property
    def r(self) -> int:
        return self.e_b.shape[0]


@dataclass
class RisMatrix:
    """Surface response matrix tagged with its hardware class."""

    matrix: np.ndarray
    architecture: str

    def __post_init__(self):
        if self.architecture not in ARCHITECTURES:
            raise ValueError(f"unknown architecture {self.architecture!r}")
        m = np.asarray(self.matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise DimensionError("response matrix must be square")
        self.matrix = m
        r = m.shape[0]
        if self.architecture == ARCH_DIAGONAL:
            if np.any(m[~np.eye(r, dtype=bool)] != 0):
                raise ContractViolationError(
                    "diagonal architecture requires exactly zero off-diagonal entries"
                )
            if np.max(np.abs(np.diag(m))) > 1.0 + tol.ARCH_CHECK_TOL:
                raise ContractViolationError("diagonal magnitudes must not exceed 1")
        else:
            resid = np.max(np.abs(m.conj().T @ m - np.eye(r)))
            if resid > tol.ARCH_CHECK_TOL:
                raise ContractViolationError(
                    f"{self.architecture} response must be unitary "
                    f"(residual {resid:.3e})"
                )
            if self.architecture == ARCH_RECIPROCAL:
                dev = np.max(np.abs(m - m.T))
                if dev > tol.ARCH_CHECK_TOL:
                    raise ContractViolationError(
                        f"reciprocal response must be symmetric (deviation {dev:.3e})"
                    )

    @property
    def r(self) -> int:
        return self.matrix.shape[0]


def generate_channels(cfg: SystemConfig) -> ChannelSet:
    """Draw one seeded channel realization.

    Real and imaginary parts of every channel entry are i.i.d. uniform on
    [-0.1, 0.1].  The stream is a PCG64 generator seeded with
    ``cfg.seed``; entries are consumed real part first, row major, in the
    order h_ar, h_rb, h_re, so realizations are reproducible across
    implementations.  Noise covariances are ``noise_variance * I`` and the
    amplitude matrix is ``sqrt(total_power / k) * I`` (equal allocation).
    """
    rng = np.random.default_rng(cfg.seed)

    def draw(rows: int, cols: int) -> np.ndarray:
        parts = rng.uniform(-0.1, 0.1, size=(rows, cols, 2))
        return parts[..., 0] + 1j * parts[..., 1]

    h_ar = draw(cfg.r, cfg.k)
    h_rb = draw(cfg.n_b, cfg.r)
    h_re = draw(cfg.n_e, cfg.r) if cfg.eve_present else None
    sigma_b = cfg.noise_variance * np.eye(cfg.n_b)
    sigma_e = cfg.noise_variance * np.eye(cfg.n_e) if cfg.eve_present else None
    p = np.sqrt(cfg.total_power / cfg.k) * np.eye(cfg.k)
    return ChannelSet(h_ar=h_ar, h_rb=h_rb, sigma_b=sigma_b, p=p,
                      h_re=h_re, sigma_e=sigma_e)


def _draw_noise(low: np.ndarray, trials: int, seed: int) -> np.ndarray:
    """``trials`` rows of CN(0, L L^H) noise from the first child of
    ``SeedSequence(seed)``: real parts of the whole block first.

    The complex block is the only array the size of the trial count. The
    normal draws fill its real parts, then its imaginary parts, at most
    ``_MC_CHUNK`` rows at a time, and each chunk of rows is then replaced
    by its product with L^T; the stream and every bit of the result are
    those of drawing and multiplying the whole block at once.
    """
    rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])
    n = low.shape[0]
    eta = np.empty((trials, n), dtype=complex)
    for part in (eta.real, eta.imag):
        for rows in _chunks(trials):
            part[rows] = rng.standard_normal((rows.stop - rows.start, n))
    eta *= np.sqrt(0.5)
    for rows in _chunks(trials):
        eta[rows] = eta[rows] @ low.T
    return eta


def _chunks(trials: int):
    """Row slices of at most ``_MC_CHUNK`` rows that cover ``trials`` rows."""
    return (slice(i, min(i + _MC_CHUNK, trials)) for i in range(0, trials, _MC_CHUNK))


def _cho_solve(low: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Sigma^{-1} B from the factor L: solve with L, then with L^H.

    Two solves divide by each diagonal entry of L twice, as a Cholesky
    solve does; one solve with Sigma itself would divide by its square
    once and round differently.
    """
    return np.linalg.solve(low.conj().T, np.linalg.solve(low, b))


def build_forms(ch: ChannelSet) -> QuadraticForms:
    """Assemble the quadratic forms E = H_out^H Sigma^{-1} H_out and M = H H^H.

    Covariance inverses are applied through the channel set's Cholesky
    factors; no explicit inverse is ever formed (the noise floor makes
    Sigma badly scaled).
    """
    def receiver_form(h_out, low):
        e = h_out.conj().T @ _cho_solve(low, h_out)
        return 0.5 * (e + e.conj().T)

    e_b = receiver_form(ch.h_rb, ch.low_b)
    e_e = None
    if ch.h_re is not None:
        e_e = receiver_form(ch.h_re, ch.low_e)
    return QuadraticForms(e_b=e_b, h=ch.h_ar @ ch.p, e_e=e_e)


def quad_objective(omega: np.ndarray, e: np.ndarray, m: np.ndarray) -> float:
    """Real trace tr(Omega^H E Omega M) for Hermitian PSD E and M.

    The imaginary residue must stay below IMAG_RESIDUE_TOL (relative);
    anything larger means corrupted inputs and raises.  Tiny negative
    values from rounding are clamped to zero.
    """
    val = complex(np.vdot(omega, e @ (omega @ m)))
    ref = max(1.0, abs(val.real))
    if abs(val.imag) > tol.IMAG_RESIDUE_TOL * ref:
        raise NumericalConsistencyError(
            f"trace has imaginary residue {val.imag:.3e} (value {val.real:.6e})"
        )
    if val.real < -tol.IMAG_RESIDUE_TOL * ref:
        raise NumericalConsistencyError(f"trace is negative: {val.real:.3e}")
    return max(val.real, 0.0)


def _effective_matrix(ch: ChannelSet, ris: RisMatrix, target: str):
    if target == "bob":
        h_out, low = ch.h_rb, ch.low_b
    elif target == "eve":
        if ch.h_re is None:
            raise ValueError("this ChannelSet has no eavesdropper channel")
        h_out, low = ch.h_re, ch.low_e
    else:
        raise ValueError(f"target must be 'bob' or 'eve', got {target!r}")
    if ris.r != ch.r:
        raise DimensionError("response matrix size does not match the channels")
    return h_out @ ris.matrix @ ch.h_ar @ ch.p, low


def fim_matrix(ch: ChannelSet, ris: RisMatrix, target: str = "bob") -> np.ndarray:
    """Hermitian k-by-k Fisher information matrix G^H Sigma^{-1} G."""
    g, low = _effective_matrix(ch, ris, target)
    f = g.conj().T @ _cho_solve(low, g)
    return 0.5 * (f + f.conj().T)


def crb_trace(fim: np.ndarray) -> float:
    """Trace of the inverse Fisher information matrix, sum 1/lam_i over its
    eigenvalues.

    Returns +inf (with a warning) when the matrix is numerically singular:
    lam_min <= 0 or condition number lam_max / lam_min beyond COND_LIMIT.
    """
    fim = np.asarray(fim)
    if fim.ndim != 2 or fim.shape[0] != fim.shape[1]:
        raise DimensionError("fim must be square")
    scale = float(np.max(np.abs(fim))) or 1.0
    if np.max(np.abs(fim - fim.conj().T)) > tol.HERMITIAN_INPUT_TOL * scale:
        raise ContractViolationError("fim must be Hermitian")
    lam = np.linalg.eigvalsh(0.5 * (fim + fim.conj().T))
    if not (lam[0] > 0.0 and lam[-1] <= tol.COND_LIMIT * lam[0]):
        warnings.warn("singular or ill-conditioned information matrix; "
                      "CRB reported as inf", RuntimeWarning, stacklevel=2)
        return float("inf")
    return float(np.sum(1.0 / lam))


def simulate_mle_mse(ch: ChannelSet, ris: RisMatrix, trials: int = 10_000,
                     seed: int = 0) -> float:
    """Monte-Carlo mean-squared error of the weighted least-squares MLE.

    Each trial takes eta ~ CN(0, Sigma_b), forms y = G theta + eta with
    theta the all-ones vector (the information matrix does not depend on
    it) and solves the weighted least-squares problem for theta-hat.  The
    noise is ``ch.noise_b(trials, seed)``: deterministic for a given seed,
    and drawn once for all the designs simulated on the same channels.

    The trials run in chunks of ``_MC_CHUNK`` rows: each chunk's squared
    errors |(G theta + eta) estimator^T - theta|^2 go into one real
    trials-by-k array, summed once at the end, so the estimate is bit for
    bit the whole-block one and no complex temporary grows with ``trials``.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    g, low = _effective_matrix(ch, ris, "bob")
    k = g.shape[1]
    sv = np.linalg.svd(g, compute_uv=False)
    if sv[0] == 0.0 or sv[-1] <= max(g.shape) * np.finfo(float).eps * sv[0]:
        raise EstimationIllPosedError(
            "effective matrix G = H_rb Omega H_ar P is rank deficient"
        )
    theta = np.ones(k, dtype=complex)

    weighted = _cho_solve(low, g)                     # Sigma^{-1} G
    f = g.conj().T @ weighted
    # theta-hat = F^{-1} G^H Sigma^{-1} y for every trial: one k-by-n_b solve
    # gives the estimator, so the trials need a single product with it.
    estimator = np.linalg.solve(0.5 * (f + f.conj().T), weighted.conj().T)

    mean = g @ theta
    noise = ch.noise_b(trials, seed)
    sq_err = np.empty((trials, k))
    for rows in _chunks(trials):
        err = (mean + noise[rows]) @ estimator.T
        err -= theta
        np.square(np.abs(err, out=sq_err[rows]), out=sq_err[rows])
    return float(np.sum(sq_err)) / trials
