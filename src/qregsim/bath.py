"""Bath coefficient matrices encoding spatially correlated noise.

A bath is summarized by two N x N Hermitian PSD matrices: gamma_minus
(de-excitation rates) and gamma_plus (excitation rates, zero at zero
temperature), plus optional Lamb-shift matrices delta_minus/delta_plus.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    EmptyModeList,
    InvalidPartition,
    NonPositiveXi,
    NotHermitian,
    OrderingViolated,
    TooSmall,
)
from .linalg import is_hermitian

# Eigenvalues above -PSD_RTOL * max_eigenvalue count as nonnegative.
PSD_RTOL = 1e-10


def _require_psd(m: np.ndarray, what: str) -> None:
    w = np.linalg.eigvalsh(m)
    lo, hi = float(w[0]), float(w[-1])
    if lo < -PSD_RTOL * max(hi, abs(lo), 1e-300):
        raise OrderingViolated(
            f"{what} must be positive semidefinite, min eigenvalue {lo:.3e}"
        )


@dataclass(frozen=True)
class BathSpec:
    """Coefficient matrices of the dissipative and Lamb-shift couplings."""

    gamma_minus: np.ndarray
    gamma_plus: np.ndarray
    delta_minus: np.ndarray | None = None
    delta_plus: np.ndarray | None = None

    def __post_init__(self):
        gm = np.asarray(self.gamma_minus, dtype=complex)
        gp = np.asarray(self.gamma_plus, dtype=complex)
        if gm.ndim != 2 or gm.shape[0] != gm.shape[1]:
            raise DimensionMismatch(f"gamma_minus must be square, got {gm.shape}")
        if gp.shape != gm.shape:
            raise DimensionMismatch("gamma matrices must have equal shape")
        for name, m in (("gamma_minus", gm), ("gamma_plus", gp)):
            if not is_hermitian(m):
                raise NotHermitian(f"{name} must be Hermitian")
        _require_psd(gm, "gamma_minus")
        _require_psd(gp, "gamma_plus")
        _require_psd(gm - gp, "gamma_minus - gamma_plus")
        object.__setattr__(self, "gamma_minus", gm)
        object.__setattr__(self, "gamma_plus", gp)
        for name in ("delta_minus", "delta_plus"):
            d = getattr(self, name)
            if d is None:
                continue
            d = np.asarray(d, dtype=complex)
            if d.shape != gm.shape:
                raise DimensionMismatch(f"{name} must match gamma shape")
            if not is_hermitian(d):
                raise NotHermitian(f"{name} must be Hermitian")
            object.__setattr__(self, name, d)

    @property
    def n(self) -> int:
        return self.gamma_minus.shape[0]

    @property
    def has_lamb_shift(self) -> bool:
        return self.delta_minus is not None or self.delta_plus is not None


def _check_ordering(gamma0_minus: float, gamma0_plus: float) -> None:
    if not (0 <= gamma0_minus < np.inf and 0 <= gamma0_plus < np.inf):
        raise OrderingViolated("rate amplitudes must be finite and nonnegative")
    if gamma0_minus < gamma0_plus:
        raise OrderingViolated(
            f"gamma0_minus ({gamma0_minus}) must be >= gamma0_plus "
            f"({gamma0_plus}) so that gamma_minus - gamma_plus stays "
            "positive semidefinite"
        )


def _with_deltas(gm, gp, delta_ratio: float) -> BathSpec:
    if delta_ratio == 0.0:
        return BathSpec(gamma_minus=gm, gamma_plus=gp)
    # Lamb shift assumed to share the spatial structure of the rates.
    return BathSpec(
        gamma_minus=gm,
        gamma_plus=gp,
        delta_minus=delta_ratio * gm,
        delta_plus=delta_ratio * gp,
    )


def cell_limit(
    n: int, gamma0_minus: float, gamma0_plus: float, delta_ratio: float = 0.0
) -> BathSpec:
    """Independent cells: Gamma^(s) = gamma0^(s) * I."""
    _check_ordering(gamma0_minus, gamma0_plus)
    eye = np.eye(n, dtype=complex)
    return _with_deltas(gamma0_minus * eye, gamma0_plus * eye, delta_ratio)


def replica_symmetric(
    n: int, gamma0_minus: float, gamma0_plus: float, delta_ratio: float = 0.0
) -> BathSpec:
    """Fully correlated cells: constant Gamma_ij, single eigenvalue n*gamma0."""
    _check_ordering(gamma0_minus, gamma0_plus)
    ones = np.ones((n, n), dtype=complex)
    return _with_deltas(gamma0_minus * ones, gamma0_plus * ones, delta_ratio)


def clustered(
    partition, gamma0_minus: float, gamma0_plus: float, delta_ratio: float = 0.0
) -> BathSpec:
    """Block-constant rates: Gamma_ij = gamma0 iff i, j share a cluster.

    ``partition`` is a list of disjoint index lists covering 0..N-1.
    """
    _check_ordering(gamma0_minus, gamma0_plus)
    clusters = [list(c) for c in partition]
    flat = [i for c in clusters for i in c]
    n = len(flat)
    if n == 0:
        raise InvalidPartition("partition must cover at least one index")
    if sorted(flat) != list(range(n)):
        raise InvalidPartition(
            "clusters must be disjoint and cover 0..N-1 exactly once"
        )
    mask = np.zeros((n, n), dtype=complex)
    for c in clusters:
        idx = np.asarray(c, dtype=int)
        mask[np.ix_(idx, idx)] = 1.0
    return _with_deltas(gamma0_minus * mask, gamma0_plus * mask, delta_ratio)


def exponential_decay(
    n: int,
    gamma0_minus: float,
    gamma0_plus: float,
    xi: float,
    delta_ratio: float = 0.0,
) -> BathSpec:
    """Exponentially decaying correlations Gamma_ij = gamma0 e^{-|i-j|/xi}."""
    _check_ordering(gamma0_minus, gamma0_plus)
    if not xi > 0:
        raise NonPositiveXi(f"correlation length must be positive, got {xi}")
    idx = np.arange(n)
    kernel = np.exp(-np.abs(idx[:, None] - idx[None, :]) / xi).astype(complex)
    return _with_deltas(gamma0_minus * kernel, gamma0_plus * kernel, delta_ratio)


def gauge_phased(base: BathSpec, phases) -> BathSpec:
    """Multiply all coefficient matrices elementwise by e^{i(phi_i - phi_j)}.

    A unitary congruence by diag(e^{i phi}), so spectra are unchanged.
    """
    phi = np.asarray(phases, dtype=float)
    if phi.shape != (base.n,):
        raise DimensionMismatch(f"need {base.n} phases, got shape {phi.shape}")
    p = np.exp(1j * (phi[:, None] - phi[None, :]))

    def phase(m):
        return None if m is None else m * p

    return BathSpec(
        gamma_minus=base.gamma_minus * p,
        gamma_plus=base.gamma_plus * p,
        delta_minus=phase(base.delta_minus),
        delta_plus=phase(base.delta_plus),
    )


def microscopic_coefficients(modes, epsilon: float, linewidth: float) -> BathSpec:
    """Assemble Gamma and Delta from a discrete bath mode list.

    ``modes`` is a list of (omega_k, n_k, g_k) with g_k a length-N complex
    coupling vector.  The on-shell delta function is regularized as a
    Lorentzian of width ``linewidth``; the principal-part sum for Delta
    skips modes inside that window.
    """
    modes = list(modes)
    if not modes:
        raise EmptyModeList("need at least one bath mode")
    if not linewidth > 0:
        raise TooSmall(f"linewidth must be positive, got {linewidth}")
    n = len(np.asarray(modes[0][2]))
    gm = np.zeros((n, n), dtype=complex)
    gp = np.zeros((n, n), dtype=complex)
    dm = np.zeros((n, n), dtype=complex)
    dp = np.zeros((n, n), dtype=complex)
    for omega, occ, g in modes:
        g = np.asarray(g, dtype=complex)
        if g.shape != (n,):
            raise DimensionMismatch("all coupling vectors must share one length")
        if occ < 0:
            raise OrderingViolated("mode occupation numbers must be nonnegative")
        outer = np.outer(g, g.conj())
        x = omega - epsilon
        # pi * Lorentzian(x; w) = w / (x^2 + w^2)
        lor = linewidth / (x * x + linewidth * linewidth)
        gm += (occ + 1.0) * lor * outer
        gp += occ * lor * outer
        if abs(x) >= linewidth:
            dm += (occ + 1.0) / x * outer
            dp += occ / x * outer
    return BathSpec(gamma_minus=gm, gamma_plus=gp, delta_minus=dm, delta_plus=dp)
