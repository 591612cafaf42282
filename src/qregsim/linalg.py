"""Dense complex linear algebra substrate.

All operators in the package are plain ``numpy`` arrays with complex128
entries, and the helpers here are pure functions.

``expm``, the exponential the solvers and ``codes`` use, is NumPy alone.
This is the one module that uses SciPy, and it imports ``scipy.linalg``
only on the first call that needs it: the import is most of a cold start.
Two paths do: ``expm_action``, the reference propagator the acceptance
suite checks the solvers against, which keeps SciPy's exponential so the
check stays independent of ``expm``, and ``schur``, the frame of a normal,
non-Hermitian dephasing cell operator.
"""

from __future__ import annotations

from functools import reduce

import numpy as np

from .errors import DimensionMismatch, NotFinite, NotHermitian

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


def exact_diagonal(a: np.ndarray) -> np.ndarray | None:
    """The diagonal of a, or None when a has a nonzero entry off it."""
    diagonal = np.diagonal(a)
    return diagonal if np.count_nonzero(a) == np.count_nonzero(diagonal) else None


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


# Higham (2005), "The scaling and squaring method for the matrix exponential
# revisited", SIAM J. Matrix Anal. Appl. 26, 1179: per Pade degree m, the
# largest 1-norm theta_m for which r_m(A) meets double-precision backward
# error, and the coefficients b_0..b_m of the numerator of r_m.
PADE_THETA = {
    3: 1.495585217958292e-2,
    5: 2.539398330063230e-1,
    7: 9.504178996162932e-1,
    9: 2.097847961257068e0,
    13: 5.371920351148152e0,
}
PADE_COEFFS = {
    3: (120.0, 60.0, 12.0, 1.0),
    5: (30240.0, 15120.0, 3360.0, 420.0, 30.0, 1.0),
    7: (17297280.0, 8648640.0, 1995840.0, 277200.0, 25200.0, 1512.0, 56.0, 1.0),
    9: (
        17643225600.0, 8821612800.0, 2075673600.0, 302702400.0, 30270240.0,
        2162160.0, 110880.0, 3960.0, 90.0, 1.0,
    ),
    13: (
        64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
        1187353796428800.0, 129060195264000.0, 10559470521600.0,
        670442572800.0, 33522128640.0, 1323241920.0, 40840800.0, 960960.0,
        16380.0, 182.0, 1.0,
    ),
}


def expm(a: np.ndarray) -> np.ndarray:
    """Matrix exponential exp(a) by scaling and squaring with a diagonal
    Pade approximant (Higham 2005): the lowest degree m in 3, 5, 7, 9
    whose PADE_THETA bounds the 1-norm, otherwise m = 13 on a / 2^s with
    the least s that brings the norm within theta_13, squared s times.

    r_m(a) = (V - U)^-1 (V + U), with U and V the odd and even parts of
    the numerator, from Higham's products: the powers a^2 .. a^(m-1)
    (a^2, a^4, a^6 for m = 13, where a^6 also multiplies the upper half of
    each part).  Every sum of powers is formed in place (``_combine``), so
    a call holds at most six n x n arrays.  A diagonal a gives the
    exponentials of its entries.  Raises DimensionMismatch unless a is
    square and NotFinite if it has a NaN or infinite entry.
    """
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"matrix must be square, got shape {a.shape}")
    norm = float(np.abs(a).sum(axis=0).max(initial=0.0))
    if not np.isfinite(norm):
        raise NotFinite("cannot exponentiate a matrix with a NaN or infinite entry")
    if (diagonal := exact_diagonal(a)) is not None:
        # exact, and spared the scaling a wide spread of entries would force
        # on the small ones
        return np.diag(np.exp(diagonal))
    m = next((m for m in (3, 5, 7, 9) if norm <= PADE_THETA[m]), 13)
    s = 0 if norm <= PADE_THETA[13] else int(np.ceil(np.log2(norm / PADE_THETA[13])))
    b = PADE_COEFFS[m]
    # a / 2^s is kept only for its square: U = (a U') / 2^s below
    scaled = a * 2.0**-s if s else a
    powers = [scaled @ scaled]
    del scaled
    while len(powers) < (m // 2 if m < 13 else 3):
        powers.append(powers[0] @ powers[-1])
    if m < 13:
        u = _combine(np.empty_like(powers[0]), b[1::2], powers)
        v = _combine(powers[0], b[0::2], powers)  # in place over a^2
    else:  # U / a = a^6 (b13 a^6 + b11 a^4 + b9 a^2) + b7 a^6 + ..., V alike
        inner = _combine(np.empty_like(powers[0]), (0.0,) + b[9::2], powers)
        u = powers[2] @ inner
        u += _combine(inner, b[1:8:2], powers)
        _combine(inner, (0.0,) + b[8::2], powers)
        v = powers[2] @ inner
        v += _combine(inner, b[0:7:2], powers)
        del inner
    del powers
    odd = a @ u  # U
    odd *= 2.0**-s
    p = np.add(v, odd, out=u)  # V + U
    v -= odd  # V - U
    del a, u, odd
    x = np.linalg.solve(v, p)
    del v
    for _ in range(s):
        np.matmul(x, x, out=p)
        x, p = p, x
    return x


def _combine(out: np.ndarray, c, powers) -> np.ndarray:
    """out = c[0] I + sum_j c[j + 1] powers[j], written in place from the
    lowest power up as ((powers[0] c1/c2 + powers[1]) c2/c3 + ...) c_k,
    so out may be powers[0]; returns out."""
    ratios = [c[j] / c[j + 1] for j in range(1, len(c) - 1)] + [c[-1]]
    np.multiply(powers[0], ratios[0], out=out)
    for power, ratio in zip(powers[1:], ratios[1:]):
        out += power
        out *= ratio
    diagonal = np.einsum("ii->i", out)  # a writeable view
    diagonal += c[0]
    return out


def schur(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Complex Schur form: (t, z) with a = z t z^dagger, t upper
    triangular and z unitary."""
    import scipy.linalg

    return scipy.linalg.schur(a, output="complex")


def expm_action(m: np.ndarray, t: float, v: np.ndarray) -> np.ndarray:
    """exp(m*t) @ v via SciPy's scaling-and-squaring Pade exponential,
    imported on the first call."""
    import scipy.linalg

    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionMismatch(f"matrix must be square, got {m.shape}")
    v = np.asarray(v, dtype=complex)
    if v.shape[0] != m.shape[1]:
        raise DimensionMismatch(
            f"operand rows {v.shape[0]} do not match matrix size {m.shape[0]}"
        )
    return scipy.linalg.expm(m * t) @ v


def vec(rho: np.ndarray) -> np.ndarray:
    """Column-stacking vectorization."""
    return np.asarray(rho, dtype=complex).flatten(order="F")


def unvec(x: np.ndarray, d: int) -> np.ndarray:
    """Inverse of :func:`vec`."""
    return np.asarray(x, dtype=complex).reshape((d, d), order="F")
