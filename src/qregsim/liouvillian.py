"""Liouvillian assembly: canonical Lindblad form, Lamb shift, application.

The generator acts as

    L(rho) = i[rho, H'] + sum_k lambda_k (L_k rho L_k^+ - {L_k^+ L_k, rho}/2)

with H' the renormalized register Hamiltonian.  The Lindblad operators are
collective combinations of the cell operators weighted by eigenvectors of
the bath coefficient matrices.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .bath import BathSpec
from .errors import (
    DimensionMismatch,
    NotHermitian,
    OrderingViolated,
    QregError,
    TooLarge,
)
from .linalg import dag, herm_eig, is_hermitian, kron
from .register import RegisterModel, embed_cell_op, register_hamiltonian

# Lindblad terms with rate below RATE_CUTOFF * max_rate are dropped so that
# eigenvalue noise of the coefficient matrices cannot inject dissipators.
RATE_CUTOFF = 1e-12
# Negative eigenvalues within PSD_CLAMP * max_rate are floating-point noise.
PSD_CLAMP = 1e-10
# Largest register dimension for which the dense superoperator is built.
SUPEROP_MAX_DIM = 64

SECTOR_MINUS = -1
SECTOR_PLUS = +1


@dataclass(frozen=True)
class LindbladTerm:
    """One canonical dissipator: rate, operator, and sector (-1 or +1)."""

    rate: float
    op: np.ndarray
    sector: int

    def __post_init__(self):
        if self.rate < 0:
            raise OrderingViolated(f"Lindblad rate must be >= 0, got {self.rate}")
        if self.sector not in (SECTOR_MINUS, SECTOR_PLUS):
            raise QregError(f"sector must be -1 or +1, got {self.sector}")
        op = np.asarray(self.op, dtype=complex)
        if op.ndim != 2 or op.shape[0] != op.shape[1]:
            raise DimensionMismatch(f"operator must be square, got {op.shape}")
        object.__setattr__(self, "op", op)


@dataclass(frozen=True)
class LindbladSet:
    """Canonical Lindblad terms from diagonalizing the bath matrices."""

    terms: tuple[LindbladTerm, ...]

    def __iter__(self):
        return iter(self.terms)

    def __len__(self):
        return len(self.terms)

    def operators(self) -> list[np.ndarray]:
        return [t.op for t in self.terms]

    def max_rate(self) -> float:
        return max((t.rate for t in self.terms), default=0.0)


def _cell_ops(model: RegisterModel, sector: int) -> list[np.ndarray]:
    a = model.cell_op if sector == SECTOR_MINUS else dag(model.cell_op)
    return [embed_cell_op(model, i, a) for i in range(model.n_cells)]


def canonical_form(model: RegisterModel, spec: BathSpec) -> LindbladSet:
    """Diagonalize the bath matrices into canonical Lindblad terms.

    For each sector the coefficient matrix is eigendecomposed; every
    eigenpair (lam, u) above the rate cutoff contributes the collective
    operator L = sum_i u_i A_i^sector with rate lam.  Rates within
    floating-point noise of zero are clamped.
    """
    if spec.n != model.n_cells:
        raise DimensionMismatch(
            f"bath is {spec.n}x{spec.n} but the register has {model.n_cells} cells"
        )
    eigs = []
    for sector, gamma in (
        (SECTOR_MINUS, spec.gamma_minus),
        (SECTOR_PLUS, spec.gamma_plus),
    ):
        w, v = herm_eig(gamma)
        eigs.append((sector, w, v))
    max_rate = max((float(w[0]) for _, w, _ in eigs), default=0.0)
    terms: list[LindbladTerm] = []
    for sector, w, v in eigs:
        ops = None
        for mu in range(len(w)):
            lam = float(w[mu])
            if lam < 0:
                if lam < -PSD_CLAMP * max(max_rate, 1e-300):
                    raise OrderingViolated(
                        f"negative rate {lam:.3e} beyond floating-point noise"
                    )
                lam = 0.0
            if lam <= RATE_CUTOFF * max_rate or lam == 0.0:
                continue
            if ops is None:
                ops = _cell_ops(model, sector)
            u = v[:, mu]
            op = sum(u[i] * ops[i] for i in range(model.n_cells))
            terms.append(LindbladTerm(rate=lam, op=op, sector=sector))
    return LindbladSet(terms=tuple(terms))


def lamb_shift(model: RegisterModel, spec: BathSpec) -> np.ndarray:
    """Self-Hamiltonian renormalization from the Delta matrices.

    delta_H = sum_ij (Dm_ij A_i^+ A_j + Dp_ji A_i A_j^+); returns zero when
    the bath carries no Lamb-shift data.
    """
    d = model.dim
    out = np.zeros((d, d), dtype=complex)
    if not spec.has_lamb_shift:
        return out
    if spec.n != model.n_cells:
        raise DimensionMismatch("bath size does not match the register")
    a_ops = _cell_ops(model, SECTOR_MINUS)
    adag_ops = [dag(a) for a in a_ops]
    dm, dp = spec.delta_minus, spec.delta_plus
    for i in range(model.n_cells):
        for j in range(model.n_cells):
            if dm is not None and dm[i, j] != 0:
                out += dm[i, j] * (adag_ops[i] @ a_ops[j])
            if dp is not None and dp[j, i] != 0:
                out += dp[j, i] * (a_ops[i] @ adag_ops[j])
    return out


@dataclass(frozen=True)
class Liouvillian:
    """Immutable generator: renormalized Hamiltonian plus Lindblad terms."""

    hamiltonian: np.ndarray
    lindblad: LindbladSet
    dim: int = field(default=0)
    # cached: B = iH + sum_k lambda_k L_k^+ L_k / 2, and sqrt(rate)-scaled ops
    _drift: np.ndarray = field(init=False, repr=False, compare=False)
    _jump: np.ndarray = field(init=False, repr=False, compare=False)
    _jump_dag: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        h = np.asarray(self.hamiltonian, dtype=complex)
        if h.ndim != 2 or h.shape[0] != h.shape[1]:
            raise DimensionMismatch(f"Hamiltonian must be square, got {h.shape}")
        if not is_hermitian(h, rtol=1e-10):
            raise NotHermitian("Hamiltonian must be Hermitian")
        d = h.shape[0]
        if self.dim and self.dim != d:
            raise DimensionMismatch("declared dimension does not match operators")
        object.__setattr__(self, "hamiltonian", h)
        object.__setattr__(self, "dim", d)
        ops = []
        gsum = np.zeros((d, d), dtype=complex)
        for t in self.lindblad:
            if t.op.shape != (d, d):
                raise DimensionMismatch("Lindblad operator size mismatch")
            scaled = np.sqrt(t.rate) * t.op
            ops.append(scaled)
            gsum += dag(scaled) @ scaled
        jump = (
            np.stack(ops) if ops else np.zeros((0, d, d), dtype=complex)
        )
        object.__setattr__(self, "_jump", jump)
        object.__setattr__(self, "_jump_dag", jump.conj().transpose(0, 2, 1))
        object.__setattr__(self, "_drift", 1j * h + 0.5 * gsum)

    def apply(self, rho: np.ndarray) -> np.ndarray:
        """Evaluate L(rho) without materializing the superoperator."""
        rho = np.asarray(rho, dtype=complex)
        if rho.shape != (self.dim, self.dim):
            raise DimensionMismatch(
                f"state must be {self.dim}x{self.dim}, got {rho.shape}"
            )
        out = -(self._drift @ rho) - rho @ dag(self._drift)
        if len(self._jump):
            sandwich = self._jump @ rho @ self._jump_dag
            out = out + sandwich.sum(axis=0)
        return out

    def dissipator(self, rho: np.ndarray) -> np.ndarray:
        """Dissipative part alone (Hamiltonian term removed)."""
        return self.apply(rho) - 1j * (
            rho @ self.hamiltonian - self.hamiltonian @ rho
        )


def build_liouvillian(
    model: RegisterModel, spec: BathSpec, include_lamb_shift: bool = True
) -> Liouvillian:
    """Assemble the full generator for a register-bath pair."""
    h = register_hamiltonian(model)
    if include_lamb_shift and spec.has_lamb_shift:
        h = h + lamb_shift(model, spec)
    return Liouvillian(hamiltonian=h, lindblad=canonical_form(model, spec))


def pairwise_dissipator(
    model: RegisterModel, spec: BathSpec, rho: np.ndarray
) -> np.ndarray:
    """Dissipator evaluated from the raw pairwise coefficient sums.

    Reference path, kept independent of the canonical form so the two
    routes can be checked against each other:

        sum_ij Gm_ij A_i rho A_j^+ - Gm_ji/2 (A_i^+ A_j rho + rho A_i^+ A_j)
             + Gp_ij A_i^+ rho A_j - Gp_ji/2 (A_i A_j^+ rho + rho A_i A_j^+)
    """
    rho = np.asarray(rho, dtype=complex)
    a = _cell_ops(model, SECTOR_MINUS)
    ad = [dag(x) for x in a]
    gm, gp = spec.gamma_minus, spec.gamma_plus
    n = model.n_cells
    out = np.zeros_like(rho)
    for i in range(n):
        for j in range(n):
            if gm[i, j] != 0:
                out += gm[i, j] * (a[i] @ rho @ ad[j])
            if gm[j, i] != 0:
                k = ad[i] @ a[j]
                out -= 0.5 * gm[j, i] * (k @ rho + rho @ k)
            if gp[i, j] != 0:
                out += gp[i, j] * (ad[i] @ rho @ a[j])
            if gp[j, i] != 0:
                k = a[i] @ ad[j]
                out -= 0.5 * gp[j, i] * (k @ rho + rho @ k)
    return out


def superoperator_matrix(liouv: Liouvillian) -> np.ndarray:
    """Dense D^2 x D^2 matrix M with M vec(rho) = vec(L(rho)).

    Column-stacking convention: vec(A X) = (I (x) A) vec(X) and
    vec(X B) = (B^T (x) I) vec(X).  Guarded to D <= 64.
    """
    d = liouv.dim
    if d > SUPEROP_MAX_DIM:
        raise TooLarge(
            f"superoperator needs D <= {SUPEROP_MAX_DIM}, got D = {d}"
        )
    eye = np.eye(d, dtype=complex)
    b = liouv._drift
    m = -kron(eye, b) - kron(b.conj(), eye)
    for k in range(len(liouv._jump)):
        op = liouv._jump[k]
        m += kron(op.conj(), op)
    return m
