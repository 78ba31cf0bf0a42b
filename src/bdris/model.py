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
of E_b, M and E_e that every solver reads.  The rules of the package's
settings are written here once: ``_check_count`` (an integer of at least a
least value), ``_check_positive`` (a positive, finite real number) and
``_check_choice`` (one of a tuple of names).
"""

from __future__ import annotations

import cmath
import warnings
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .errors import (
    ContractViolationError,
    DimensionError,
    EstimationIllPosedError,
    NotPositiveDefiniteError,
    NumericalConsistencyError,
)
from .kernels import STRUCTURE_TOL, HermEig, _checked, _psd_eig, hermitian_eig

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

# Tolerated imaginary part of real traces.
IMAG_RESIDUE_TOL = 1e-9
# Condition number beyond which an information matrix counts as singular.
COND_LIMIT = 1e12

# Trial rows per Monte-Carlo chunk: 1 024 rows of 30 receive antennas (the
# r = 64 reference) are 480 KB of complex noise, which fits in L2. There, a
# draw and three estimates of 10^4 trials took 16.8 ms against 17.1-17.8 ms
# with 256-4 096 rows and 19.1 ms for the whole block (one OpenBLAS thread,
# 2-core Xeon). Beside the kept noise and one real trials-by-k array of
# squared errors, the Monte-Carlo path makes no array the size of the
# trial count.
_MC_CHUNK = 1024


def _check_count(name: str, value, least: int = 0) -> int:
    """``value`` as an ``int``, after refusing it unless it is an integer
    (numpy integers pass; a boolean does not, rather than reading True as 1
    or failing later inside numpy) of at least ``least``.  The one rule of
    every count of the package."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise ValueError(f"{name} must be at least {least}, got {value}")
    return int(value)


def _check_choice(name: str, value, choices: tuple) -> str:
    """``value``, after refusing it unless it is one of the names
    ``choices``.  The one rule of every name the package picks among:
    an architecture and a scenario."""
    if not (isinstance(value, str) and value in choices):
        raise ValueError(f"{name} must be one of {', '.join(choices)}, got {value!r}")
    return value


def _check_positive(name: str, value) -> float:
    """``value`` as a float, after refusing it unless it is a real number
    (numpy integers and floats pass, a boolean or a string does not) that is
    positive and finite (NaN fails that comparison too).  The one rule of
    every power, noise variance and leakage cap of the package: an infinite
    cap is no cap, and has no residual to report."""
    if isinstance(value, bool) or not isinstance(
            value, (int, float, np.integer, np.floating)):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    if not 0 < value < np.inf:
        raise ValueError(f"{name} must be positive and finite")
    return float(value)


@dataclass
class SystemConfig:
    """Dimensions and physical constants of one scenario.

    ``n_e = 0`` means no unintended receiver: no channel is drawn for it.
    Each field is checked, and stored as it is returned, by its rule in
    ``_RULES``, the one table the command line reads too; an invalid field
    raises ``ValueError``.
    """

    k: int
    r: int
    n_b: int
    n_e: int = 0
    total_power: float = 30.0
    noise_variance: float = 1e-5
    seed: int = 0

    _RULES = {
        "k": partial(_check_count, least=1),
        "r": partial(_check_count, least=1),
        "n_b": partial(_check_count, least=1),
        "n_e": _check_count,
        "total_power": _check_positive,
        "noise_variance": _check_positive,
        "seed": _check_count,
    }

    def __post_init__(self):
        for name, rule in self._RULES.items():
            setattr(self, name, rule(name, getattr(self, name)))

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
    _checked(sigma, name, "Hermitian")
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
    and the spectra of E_b, M and E_e are taken once, here.  The operands
    are read as arrays (``np.asarray``, dtype kept), so nested lists build
    the same forms as their arrays.  E_b and E_e must pass the shared
    input check of :mod:`bdris.kernels` (finite, Hermitian and PSD within
    ``STRUCTURE_TOL``), h must be finite, and a surface with no element
    (r = 0) is refused.
    """

    e_b: np.ndarray                  # (r, r) Hermitian PSD
    h: np.ndarray                    # (r, k) effective source matrix H_ar P
    e_e: np.ndarray | None = None    # (r, r) Hermitian PSD, eavesdropper side
    m: np.ndarray = field(init=False)   # (r, r) Hermitian PSD, h h^H
    eig_b: HermEig = field(init=False)                        # of e_b
    eig_m: HermEig = field(init=False)                        # of m
    eig_e: HermEig | None = field(init=False)                 # of e_e

    def __post_init__(self):
        self.e_b, self.h = np.asarray(self.e_b), np.asarray(self.h)
        if self.e_e is not None:
            self.e_e = np.asarray(self.e_e)
        shape = self.e_b.shape
        if len(shape) != 2 or shape[0] != shape[1]:
            raise DimensionError(f"e_b must be square, got shape {shape}")
        r = shape[0]
        if r < 1:
            raise DimensionError("the surface needs at least one element (r >= 1)")
        if self.h.ndim != 2 or self.h.shape[0] != r:
            raise DimensionError(f"h must have {r} rows, got shape {self.h.shape}")
        if self.e_e is not None and self.e_e.shape != (r, r):
            raise DimensionError(f"e_e must have shape {(r, r)}, got {self.e_e.shape}")
        if not np.isfinite(self.h).all():
            raise ContractViolationError("h must be finite")
        m = self.h @ self.h.conj().T
        self.m = 0.5 * (m + m.conj().T)
        self.eig_b = _psd_eig(self.e_b, "e_b")
        self.eig_m = hermitian_eig(self.m)
        self.eig_e = None if self.e_e is None else _psd_eig(self.e_e, "e_e")

    @property
    def r(self) -> int:
        return self.e_b.shape[0]


@dataclass
class RisMatrix:
    """Surface response matrix tagged with its hardware class.

    The matrix passes the shared input check of :mod:`bdris.kernels`
    (square and finite), and the structure of its class within
    ``STRUCTURE_TOL``: unitary (and, for the reciprocal class, symmetric),
    or diagonal with no modulus above 1.  Each structural check is written
    so that a NaN residual fails it.
    """

    matrix: np.ndarray
    architecture: str

    def __post_init__(self):
        _check_choice("architecture", self.architecture, ARCHITECTURES)
        self.matrix = m = _checked(np.asarray(self.matrix, dtype=complex),
                                   "response matrix")
        r = m.shape[0]
        if self.architecture == ARCH_DIAGONAL:
            if np.any(m[~np.eye(r, dtype=bool)] != 0):
                raise ContractViolationError(
                    "diagonal architecture requires exactly zero off-diagonal entries"
                )
            if not np.max(np.abs(np.diag(m))) <= 1.0 + STRUCTURE_TOL:
                raise ContractViolationError("diagonal magnitudes must not exceed 1")
        else:
            with np.errstate(over="ignore", invalid="ignore"):   # fails below as inf or NaN
                resid = np.max(np.abs(m.conj().T @ m - np.eye(r)))
            if not resid <= STRUCTURE_TOL:
                raise ContractViolationError(
                    f"{self.architecture} response must be unitary "
                    f"(residual {resid:.3e})"
                )
            if self.architecture == ARCH_RECIPROCAL:
                dev = np.max(np.abs(m - m.T))
                if not dev <= STRUCTURE_TOL:
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

    A non-finite trace, or an imaginary residue above IMAG_RESIDUE_TOL
    (relative), means corrupted inputs and raises; numpy's warnings on the
    way to a non-finite trace (inf * 0, overflow) are silenced, so the
    error is what a caller sees.  Tiny negative values from rounding are
    clamped to zero.
    """
    with np.errstate(invalid="ignore", over="ignore"):   # fails below as inf or NaN
        val = complex(np.vdot(omega, e @ (omega @ m)))
    if not cmath.isfinite(val):
        raise NumericalConsistencyError(f"trace is not finite: {val}")
    ref = max(1.0, abs(val.real))
    if abs(val.imag) > IMAG_RESIDUE_TOL * ref:
        raise NumericalConsistencyError(
            f"trace has imaginary residue {val.imag:.3e} (value {val.real:.6e})"
        )
    if val.real < -IMAG_RESIDUE_TOL * ref:
        raise NumericalConsistencyError(f"trace is negative: {val.real:.3e}")
    return max(val.real, 0.0)


def _information(ch: ChannelSet, ris: RisMatrix):
    """G = H_rb Omega H_ar P, Sigma_b^{-1} G and the Hermitian part F of
    G^H Sigma_b^{-1} G: the intended receiver's information, formed once
    for :func:`fim_matrix` and :func:`simulate_mle_mse`."""
    if ris.r != ch.r:
        raise DimensionError("response matrix size does not match the channels")
    g = ch.h_rb @ ris.matrix @ ch.h_ar @ ch.p
    weighted = _cho_solve(ch.low_b, g)
    f = g.conj().T @ weighted
    return g, weighted, 0.5 * (f + f.conj().T)


def fim_matrix(ch: ChannelSet, ris: RisMatrix) -> np.ndarray:
    """Hermitian k-by-k Fisher information matrix G^H Sigma_b^{-1} G of the
    intended receiver, G = H_rb Omega H_ar P.

    The eavesdropper's is the intended receiver's on swapped roles:
    ``fim_matrix(ChannelSet(h_ar=ch.h_ar, h_rb=ch.h_re, sigma_b=ch.sigma_e,
    p=ch.p), ris)``.
    """
    return _information(ch, ris)[2]


def crb_trace(fim: np.ndarray) -> float:
    """Trace of the inverse Fisher information matrix, sum 1/lam_i over its
    eigenvalues.

    A non-square, non-finite or non-Hermitian matrix is refused by the
    shared input check of :mod:`bdris.kernels`.  Returns +inf (with a
    warning) when the matrix is numerically singular: lam_min <= 0 or
    condition number lam_max / lam_min beyond COND_LIMIT.
    """
    lam = hermitian_eig(_checked(fim, "fim", "Hermitian")).values   # descending
    if not (lam[-1] > 0.0 and lam[0] <= COND_LIMIT * lam[-1]):
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
    G, Sigma_b^{-1} G and F are those of :func:`fim_matrix`; on the
    swapped ``ChannelSet`` given there, the estimate is the eavesdropper's,
    with noise drawn from Sigma_e.
    """
    trials = _check_count("trials", trials, least=1)
    seed = _check_count("seed", seed)
    g, weighted, f = _information(ch, ris)
    k = g.shape[1]
    # A wide G (n_b < k) has only n_b singular values: rank k needs k of them.
    sv = np.linalg.svd(g, compute_uv=False)
    if sv.size < k or sv[0] == 0.0 or sv[-1] <= max(g.shape) * np.finfo(float).eps * sv[0]:
        raise EstimationIllPosedError(
            "effective matrix G = H_rb Omega H_ar P is rank deficient"
        )
    theta = np.ones(k, dtype=complex)

    # theta-hat = F^{-1} G^H Sigma^{-1} y for every trial: one k-by-n_b solve
    # gives the estimator, so the trials need a single product with it.
    estimator = np.linalg.solve(f, weighted.conj().T)

    mean = g @ theta
    noise = ch.noise_b(trials, seed)
    sq_err = np.empty((trials, k))
    for rows in _chunks(trials):
        err = (mean + noise[rows]) @ estimator.T
        err -= theta
        np.square(np.abs(err, out=sq_err[rows]), out=sq_err[rows])
    return float(np.sum(sq_err)) / trials
