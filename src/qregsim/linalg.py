"""Dense complex linear algebra substrate.

All operators in the package are plain ``numpy`` arrays with complex128
entries.  The helpers here are pure functions and are safe to call from
concurrent sweep workers.

This is the one module that uses SciPy, for the matrix exponential and the
complex Schur form, and it imports ``scipy.linalg`` only when one of them is
first needed: the import is most of a cold start, and RK4 simulate,
tau_sweep and codes runs need neither.
"""

from __future__ import annotations

from functools import reduce

import numpy as np

from .errors import DimensionMismatch, NotHermitian

# Relative hermiticity tolerance; scaled inputs behave uniformly.
HERM_RTOL = 1e-12
# Singular values below RCOND * sigma_max count as zero in rank decisions.
NULLSPACE_RCOND = 1e-9


def dag(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return a.conj().T


def frob(a: np.ndarray) -> float:
    """Frobenius norm."""
    return float(np.linalg.norm(a))


def comm(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Commutator [a, b]."""
    return a @ b - b @ a


def hermiticity_defect(m: np.ndarray) -> float:
    return frob(m - dag(m))


def is_hermitian(m: np.ndarray, rtol: float = HERM_RTOL) -> bool:
    scale = frob(m)
    if scale == 0.0:
        return True
    return hermiticity_defect(m) <= rtol * scale


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product, (a (x) b)[i*rb+k, j*cb+l] = a[i,j] b[k,l]."""
    return np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))


def kron_all(mats) -> np.ndarray:
    """Kronecker product of a sequence of matrices, left to right."""
    return reduce(kron, mats)


def herm_eig(m: np.ndarray):
    """Eigendecomposition of a Hermitian matrix.

    Returns (eigenvalues descending, orthonormal eigenvector columns in the
    matching order).  Raises DimensionMismatch unless m is square and
    NotHermitian beyond the relative tolerance; m is projected onto its
    Hermitian part, (m + m^dagger)/2, before it is diagonalized.
    """
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionMismatch(f"matrix must be square, got shape {m.shape}")
    if not is_hermitian(m):
        raise NotHermitian(
            f"matrix is not Hermitian: defect {hermiticity_defect(m):.3e} "
            f"exceeds {HERM_RTOL:.0e} * norm"
        )
    m = np.asarray(m, dtype=complex)
    w, v = np.linalg.eigh(0.5 * (m + dag(m)))
    return w[::-1].copy(), v[:, ::-1].copy()


def common_nullspace(ops, dim: int | None = None) -> np.ndarray:
    """Orthonormal basis of the intersection of the kernels of ``ops``.

    Iterated rank reveal: the nullspace of the first operator is computed by
    SVD, each further operator is restricted to the basis found so far.  An
    empty list returns the full space, which requires ``dim``.
    """
    ops = list(ops)
    if not ops:
        if dim is None:
            raise DimensionMismatch("dim is required when ops is empty")
        return np.eye(dim, dtype=complex)
    d = ops[0].shape[0]
    for op in ops:
        if op.ndim != 2 or op.shape != (d, d):
            raise DimensionMismatch("all operators must be square with equal size")
    basis = np.eye(d, dtype=complex)
    for op in ops:
        if basis.shape[1] == 0:
            break
        opnorm = np.linalg.norm(op, 2)
        if opnorm != 0.0:
            basis = restrict_kernel(basis, op, opnorm)
    return basis


def restrict_kernel(basis: np.ndarray, op: np.ndarray, opnorm: float) -> np.ndarray:
    """The columns of ``basis`` (orthonormal) spanning its part of the
    kernel of ``op``: one SVD of op @ basis, singular values up to
    NULLSPACE_RCOND * opnorm counted as zero.

    The cutoff is relative to ``opnorm``, the 2-norm of the operator op is
    taken from, not that of the restricted block: when op annihilates the
    whole basis the restricted block is pure round-off and a block-relative
    cutoff would spuriously report full rank.
    """
    _, s, vh = np.linalg.svd(op @ basis)
    rank = int(np.sum(s > NULLSPACE_RCOND * opnorm))
    return basis @ dag(vh)[:, rank:]


def load_expm():
    """SciPy's scaling-and-squaring Pade exponential, importing
    ``scipy.linalg`` on the first call.  A run that will exponentiate loads
    it while it is checked (``dynamics.check_method``), not in its first
    propagator."""
    import scipy.linalg

    return scipy.linalg.expm


def expm(a: np.ndarray) -> np.ndarray:
    """Matrix exponential exp(a)."""
    return load_expm()(a)


def schur(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Complex Schur form: (t, z) with a = z t z^dagger, t upper
    triangular and z unitary."""
    import scipy.linalg

    return scipy.linalg.schur(a, output="complex")


def expm_action(m: np.ndarray, t: float, v: np.ndarray) -> np.ndarray:
    """exp(m*t) @ v via the scaling-and-squaring Pade exponential."""
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionMismatch(f"matrix must be square, got {m.shape}")
    v = np.asarray(v, dtype=complex)
    if v.shape[0] != m.shape[1]:
        raise DimensionMismatch(
            f"operand rows {v.shape[0]} do not match matrix size {m.shape[0]}"
        )
    return expm(m * t) @ v


def vec(rho: np.ndarray) -> np.ndarray:
    """Column-stacking vectorization."""
    return np.asarray(rho, dtype=complex).flatten(order="F")


def unvec(x: np.ndarray, d: int) -> np.ndarray:
    """Inverse of :func:`vec`."""
    return np.asarray(x, dtype=complex).reshape((d, d), order="F")
