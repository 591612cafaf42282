"""Protected subspaces: simultaneous eigenspaces of Lindblad operators,
common null spaces, exact multiplicities of total-spin sectors, explicit
four-cell codewords, dephasing cluster codes, and gauge transport.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    InvalidClusterSize,
    InvalidQuantumNumbers,
    TooSmall,
)
from .linalg import common_nullspace, dag, expm, frob, is_hermitian
from .liouvillian import LindbladSet, Liouvillian
from .register import (
    RegisterModel,
    basis_state,
    cell_digits,
    cell_terms,
    su2_multiplicity,
)

KIND_SUB_DECOHERENT = "sub_decoherent"
KIND_NOISELESS = "noiseless"

ORTHONORMALITY_TOL = 1e-10
# Relative tolerances of is_noiseless, scaled by max(1, largest column
# 2-norm) of the operator (L or H') they test.
EIGENVECTOR_TOL = 1e-9
LEAKAGE_TOL = 1e-9


@dataclass(frozen=True)
class CodeSubspace:
    """Orthonormal basis of a protected subspace with per-Lindblad labels."""

    basis: np.ndarray
    labels: tuple
    kind: str = KIND_SUB_DECOHERENT

    def __post_init__(self):
        b = np.asarray(self.basis, dtype=complex)
        if b.ndim != 2:
            raise DimensionMismatch(f"basis must be a matrix, got shape {b.shape}")
        if b.shape[1]:
            gram = dag(b) @ b
            if frob(gram - np.eye(b.shape[1])) > ORTHONORMALITY_TOL * b.shape[1]:
                raise DimensionMismatch("basis columns are not orthonormal")
        object.__setattr__(self, "basis", b)
        object.__setattr__(self, "labels", tuple(self.labels))
        if self.kind not in (KIND_SUB_DECOHERENT, KIND_NOISELESS):
            raise DimensionMismatch(f"unknown code kind {self.kind!r}")

    @property
    def dim(self) -> int:
        return self.basis.shape[1]

    @property
    def ambient_dim(self) -> int:
        return self.basis.shape[0]

    def projector(self) -> np.ndarray:
        return self.basis @ dag(self.basis)


def simultaneous_eigenspace(lindblad: LindbladSet, labels) -> CodeSubspace:
    """Common eigenspace {psi : L_k psi = label_k psi for every k}.

    Computed as the joint null space of the shifted operators
    L_k - label_k I.  For a non-Hermitian Lindblad operator paired with a
    nonzero label the subspace is empty (only the zero eigenvalue can be
    shared by an operator and its adjoint partner); a warning is emitted
    and the empty subspace returned.
    """
    labels = tuple(complex(x) for x in labels)
    ops = lindblad.operators()
    if len(labels) != len(ops):
        raise DimensionMismatch(
            f"{len(labels)} labels given for {len(ops)} Lindblad operators"
        )
    if not ops:
        raise DimensionMismatch("cannot build an eigenspace from an empty set")
    d = ops[0].shape[0]
    for op, lab in zip(ops, labels):
        if lab != 0 and not is_hermitian(op, rtol=1e-10):
            warnings.warn(
                "nonzero eigenvalue requested for a non-Hermitian Lindblad "
                "operator; only the zero eigenvalue is attainable, returning "
                "the empty subspace",
                RuntimeWarning,
                stacklevel=2,
            )
            return CodeSubspace(
                basis=np.zeros((d, 0), dtype=complex),
                labels=labels,
                kind=KIND_SUB_DECOHERENT,
            )
    shifted = [op - lab * np.eye(d) for op, lab in zip(ops, labels)]
    basis = common_nullspace(shifted, dim=d)
    return CodeSubspace(basis=basis, labels=labels, kind=KIND_SUB_DECOHERENT)


def null_code(lindblad: LindbladSet) -> CodeSubspace:
    """Intersection of the kernels of all Lindblad operators."""
    ops = lindblad.operators()
    if not ops:
        raise DimensionMismatch("cannot build a code from an empty set")
    basis = common_nullspace(ops, dim=ops[0].shape[0])
    return CodeSubspace(
        basis=basis,
        labels=tuple(0.0 for _ in ops),
        kind=KIND_SUB_DECOHERENT,
    )


def multiplicity(n: int, s) -> int:
    """Number of total-spin-s multiplets in n spin-1/2 cells, exactly.

    Equals (2s+1) n! / ((n/2+s+1)! (n/2-s)!) evaluated in integer
    arithmetic; the identity sum_s multiplicity * (2s+1) = 2^n holds.
    """
    if n < 1:
        raise TooSmall(f"need n >= 1, got {n}")
    s2 = int(round(2 * float(s)))
    if abs(2 * float(s) - s2) > 1e-12:
        raise InvalidQuantumNumbers(f"spin {s} is not a half-integer")
    return su2_multiplicity(n, s2)


def n4_codewords() -> tuple[np.ndarray, np.ndarray]:
    """The two orthonormal total-singlet words of a four-qubit register.

    With |A> = |0011> + |1100>, |B> = |0110> + |1001>, |C> = |1010> + |0101>
    (0 = up, leftmost symbol = cell 0):

        |zero> = (|B> - |A>) / 2
        |one>  = (|C> - |A>/2 - |B>/2) / sqrt(3)

    Both are annihilated by the collective S^+, S^-, S^z.
    """
    a = basis_state(4, "0011") + basis_state(4, "1100")
    b = basis_state(4, "0110") + basis_state(4, "1001")
    c = basis_state(4, "1010") + basis_state(4, "0101")
    zero = (b - a) / 2.0
    one = (c - a / 2.0 - b / 2.0) / np.sqrt(3.0)
    return zero, one


def n4_code() -> CodeSubspace:
    """The four-qubit singlet code as a CodeSubspace (labels all zero)."""
    zero, one = n4_codewords()
    return CodeSubspace(
        basis=np.column_stack([zero, one]),
        labels=(0.0, 0.0, 0.0),
        kind=KIND_NOISELESS,
    )


def check_cluster_size(n: int, cluster_size: int) -> None:
    """Raise InvalidClusterSize unless cluster_size is a positive even
    integer that divides n."""
    if cluster_size < 1 or cluster_size % 2 != 0:
        raise InvalidClusterSize(
            f"cluster size must be a positive even integer, got {cluster_size}"
        )
    if n % cluster_size != 0:
        raise InvalidClusterSize(
            f"{n} cells cannot be split into clusters of {cluster_size}"
        )


def dephasing_cluster_code(
    n: int, cluster_size: int, target_zspin: float = 0.0
) -> CodeSubspace:
    """Span of product states whose per-cluster z-spin equals the target.

    Cells are grouped into consecutive clusters of the given (even) size;
    a product basis state belongs to the code when the sum of sigma^z
    eigenvalues (+-1/2) inside every cluster equals target_zspin.  For
    target 0 the dimension is C(m, m/2)^(n/m).
    """
    check_cluster_size(n, cluster_size)
    m = cluster_size
    n_clusters = n // m
    # A cluster's z-spin is m/2 minus its number of ones (down cells), so
    # the target needs k ones in every cluster.
    ones_needed = m / 2.0 - float(target_zspin)
    k = int(round(ones_needed))
    cols = np.zeros(0, dtype=int)
    if abs(ones_needed - k) < 1e-12:
        ones = cell_digits(n).reshape(-1, n_clusters, m).sum(axis=2)
        cols = np.flatnonzero((ones == k).all(axis=1))
    basis = np.zeros((2**n, cols.size), dtype=complex)
    basis[cols, np.arange(cols.size)] = 1.0
    return CodeSubspace(
        basis=basis,
        labels=tuple(float(target_zspin) for _ in range(n_clusters)),
        kind=KIND_SUB_DECOHERENT,
    )


def _scale(m: np.ndarray) -> float:
    """max(1, largest column 2-norm of m): a lower bound of max(1, ||m||_2)
    that needs no SVD."""
    return max(1.0, float(np.linalg.norm(m, axis=0).max(initial=0.0)))


def is_noiseless(code: CodeSubspace, liouv: Liouvillian) -> bool:
    """Operational noiselessness test.

    True iff (a) every Lindblad operator L acts as one scalar l on the code
    basis P (sub-decoherence), ||L P - l P||_F <= EIGENVECTOR_TOL s(L), and
    (b) the renormalized Hamiltonian maps the code into itself,
    ||(I - P P^+) H' P||_F <= LEAKAGE_TOL s(H'), with s = ``_scale``.
    """
    p = code.basis
    if p.shape[1] == 0:
        return False
    for term in liouv.lindblad:
        lp = term.op @ p
        # Shared scalar action: least-squares label is the mean diagonal.
        lab = np.trace(dag(p) @ lp) / p.shape[1]
        if frob(lp - lab * p) > EIGENVECTOR_TOL * _scale(term.op):
            return False
    hp = liouv.hamiltonian @ p
    leak = hp - p @ (dag(p) @ hp)
    return bool(frob(leak) <= LEAKAGE_TOL * _scale(liouv.hamiltonian))


def gauge_transport(
    code: CodeSubspace, phases, model: RegisterModel
) -> CodeSubspace:
    """Rotate a code by the local gauge transformation generated by the
    cell Hamiltonians,

        U = exp{-i eps^{-1} sum_j phi_j H^C_j},

    chosen so that a dark state of the unphased emission channel maps to a
    dark state of the channel with coefficients Gamma_ij e^{i(phi_i-phi_j)}.
    """
    phases = np.asarray(phases, dtype=float).reshape(-1)
    if phases.shape[0] != model.n_cells:
        raise DimensionMismatch(
            f"{phases.shape[0]} phases given for {model.n_cells} cells"
        )
    if model.epsilon <= 0:
        raise TooSmall("gauge transport requires a positive cell splitting")
    gen = cell_terms(
        model.n_cells,
        model.cell_dim,
        [(model.cell_hamiltonian, [j], p) for j, p in enumerate(phases) if p != 0.0],
    )
    u = expm(-1j * gen / model.epsilon)
    return CodeSubspace(
        basis=u @ code.basis, labels=code.labels, kind=code.kind
    )
