"""Protected subspaces: simultaneous eigenspaces of Lindblad operators,
common null spaces, exact multiplicities of total-spin sectors, explicit
four-cell codewords, dephasing cluster codes, and gauge transport.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from itertools import count
from math import comb

import numpy as np

from .errors import (
    DimensionMismatch,
    InvalidClusterSize,
    InvalidQuantumNumbers,
    TooSmall,
)
from .linalg import common_nullspace, dag, expm, frob, is_hermitian, restrict_kernel
from .liouvillian import LindbladSet, Liouvillian, _sector_cell_op, build_bytes, excitation_layout
from .register import (
    RegisterModel,
    _twice,
    cell_digits,
    cell_terms,
    n4_codewords,
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
    """Intersection of the kernels of all Lindblad operators.

    For a canonical set on qubit cells whose sector operators each move the
    excitation number Q by a fixed amount (``LindbladSet._q_shifts``:
    sigma-/sigma+, or diagonal like sigma_z), each L_k maps every Q-sector
    into one other, so the kernel is the direct sum of the per-sector
    kernels (``_sector_nullspace``): no D x D operator is placed and no
    D x D SVD is taken.  Every other set (hand-built, d > 2, sigma_x-like
    cells) goes through ``linalg.common_nullspace`` on its operators.  Both
    cut the rank of L_k at NULLSPACE_RCOND ||L_k||_2.
    """
    if not len(lindblad):
        raise DimensionMismatch("cannot build a code from an empty set")
    if lindblad._q_shifts is None:
        ops = lindblad.operators()
        basis = common_nullspace(ops, dim=ops[0].shape[0])
    else:
        basis = _sector_nullspace(lindblad)
    return CodeSubspace(
        basis=basis,
        labels=tuple(0.0 for _ in lindblad),
        kind=KIND_SUB_DECOHERENT,
    )


def _sector_nullspace(lindblad: LindbladSet) -> np.ndarray:
    """The common kernel of the operators of a set with ``_q_shifts``, as
    orthonormal columns in the 2^n rows of the register basis, ordered by
    sector.  Each sector's terms take their blocks between Q-sectors as
    one weights product with its cell operator's blocks on each cell
    (``ExcitationBlocks.move_blocks``), K C(2n, n - 1) entries per sector.

    ``common_nullspace``'s iteration, in the set's term order, run on every
    sector's C(n, q) states at once.  ||L_k||_2 is the largest singular
    value over L_k's blocks, exact since they map distinct sectors to
    distinct ones.
    """
    n, layout = lindblad.model.n_cells, excitation_layout(lindblad.model.n_cells)
    sectors = {}  # per sector, {q: its terms' (K, C(n, q + s), C(n, q)) blocks}
    for k, s in lindblad._q_shifts.items():
        w, a = lindblad.sectors[k][1], _sector_cell_op(lindblad.model, k)
        blocks = layout.move_blocks(a, s)
        sectors[k] = {q: (w @ x.reshape(n, -1)).reshape((len(w),) + x.shape[1:]) for q, x in blocks}
    bases = [np.eye(len(rows), dtype=complex) for rows in layout.states]
    place = {sector: count() for sector in sectors}  # a term's index in its stacks
    for t in lindblad:
        k, blocks = next(place[t.sector]), sectors[t.sector]
        live = [q for q in blocks if bases[q].shape[1]]
        if not live:
            continue
        opnorm = max(np.linalg.norm(b[k], 2) for b in blocks.values())
        if opnorm != 0.0:
            for q in live:
                bases[q] = restrict_kernel(bases[q], blocks[q][k], opnorm)
    out = np.zeros((2**n, sum(b.shape[1] for b in bases)), dtype=complex)
    col = 0
    for rows, basis in zip(layout.states, bases):
        out[rows, col : col + basis.shape[1]] = basis
        col += basis.shape[1]
    return out


def code_bytes(lindblad: LindbladSet, dim: int) -> int:
    """Estimated peak bytes of a codes run on the register of the canonical
    set ``lindblad``, for a code of ``dim`` columns: ``build_liouvillian``,
    or the Hamiltonian it leaves with the code search and the code's rates
    and noiseless test, none of which applies the generator.

    A null code's search on a set with Q shifts holds the K terms' blocks
    between excitation sectors (K C(2N, N - 1) complex entries), each
    sector's basis and the SVD of the largest; another set places its
    K D x D operators and takes a D x D SVD.  Per code column a structured set
    holds the N cell actions, the K actions of the terms and six more
    D-vectors (the basis, its copies and the residuals); another set
    places its K operators.
    """
    model = lindblad.model
    n, k, d = model.n_cells, len(lindblad), model.dim
    matrix = 16 * d * d
    if lindblad._q_shifts is not None:
        search = 16 * (k * comb(2 * n, n - 1) + comb(2 * n, n) + 3 * comb(n, n // 2) ** 2)
    else:
        search = (k + 4) * matrix
    columns = 16 * d * dim * (n + k + 6) if lindblad.structured else k * matrix + 96 * d * dim
    return max(build_bytes(model), matrix + search + columns)


def multiplicity(n: int, s) -> int:
    """Number of total-spin-s multiplets in n spin-1/2 cells, exactly.

    Equals (2s+1) n! / ((n/2+s+1)! (n/2-s)!) evaluated in integer
    arithmetic; the identity sum_s multiplicity * (2s+1) = 2^n holds.
    s is parsed by the rule ``su2_basis_state`` uses (``register._twice``).
    """
    if n < 1:
        raise TooSmall(f"need n >= 1, got {n}")
    return su2_multiplicity(n, _twice(s, "s"))


def n4_code() -> CodeSubspace:
    """The four-qubit singlet code as a CodeSubspace (labels all zero)."""
    zero, one = n4_codewords()
    return CodeSubspace(
        basis=np.column_stack([zero, one]),
        labels=(0.0, 0.0, 0.0),
        kind=KIND_NOISELESS,
    )


def check_cluster_size(n: int, cluster_size: int, target_zspin: float = 0.0) -> None:
    """Raise InvalidClusterSize unless cluster_size is a positive even
    integer that divides n, and InvalidQuantumNumbers unless target_zspin
    is finite."""
    if cluster_size < 1 or cluster_size % 2 != 0:
        raise InvalidClusterSize(
            f"cluster size must be a positive even integer, got {cluster_size}"
        )
    if n % cluster_size != 0:
        raise InvalidClusterSize(
            f"{n} cells cannot be split into clusters of {cluster_size}"
        )
    if not np.isfinite(target_zspin):
        raise InvalidQuantumNumbers(f"the target z-spin must be finite, got {target_zspin}")


def dephasing_cluster_code(
    n: int, cluster_size: int, target_zspin: float = 0.0
) -> CodeSubspace:
    """Span of product states whose per-cluster z-spin equals the target.

    Cells are grouped into consecutive clusters of the given (even) size;
    a product basis state belongs to the code when the sum of sigma^z
    eigenvalues (+-1/2) inside every cluster equals target_zspin.  For
    target 0 the dimension is C(m, m/2)^(n/m).
    """
    check_cluster_size(n, cluster_size, target_zspin)
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


def _scale(col_norms: np.ndarray) -> float:
    """max(1, largest column 2-norm), given the column 2-norms of an
    operator: a lower bound of max(1, ||op||_2) that needs no SVD."""
    return max(1.0, float(col_norms.max(initial=0.0)))


def _term_actions(lindblad: LindbladSet, p: np.ndarray):
    """(L_k P, the column 2-norms of L_k) per term.  A structured set gives
    both from its weights (``LindbladSet.sector_actions`` and
    ``column_norms``) and places no operator; any other set multiplies by
    each term's D x D ``op``."""
    if lindblad.structured:
        for (_, lp), norms in zip(lindblad.sector_actions(p), lindblad.column_norms()):
            yield from zip(lp, norms)
    else:
        for term in lindblad:
            yield term.op @ p, np.linalg.norm(term.op, axis=0)


def noiseless_test(code: CodeSubspace, liouv: Liouvillian) -> tuple[bool, dict]:
    """The ``is_noiseless`` verdict and the residuals behind it,
    {"eigenvector": worst ||L P - l P||_F / (EIGENVECTOR_TOL s(L)) over the
    terms, "leakage": ||(I - P P^+) H' P||_F / (LEAKAGE_TOL s(H'))}; a
    residual above 1 fails its test.  An empty code is not noiseless and
    has None residuals.  Raises DimensionMismatch, before any work, for a
    code from a register of another dimension.
    """
    p = code.basis
    if code.ambient_dim != liouv.dim:
        raise DimensionMismatch(
            f"code basis has {code.ambient_dim} rows, the generator dimension is {liouv.dim}"
        )
    if p.shape[1] == 0:
        return False, {"eigenvector": None, "leakage": None}
    verdict, worst = True, 0.0
    for lp, norms in _term_actions(liouv.lindblad, p):
        # Shared scalar action: least-squares label is the mean diagonal.
        lab = np.vdot(p, lp) / p.shape[1]
        residual, tol = frob(lp - lab * p), EIGENVECTOR_TOL * _scale(norms)
        if residual > tol:
            verdict = False
        worst = max(worst, residual / tol)
    h = liouv.hamiltonian
    hp = h @ p
    # Column sums of squares of the real and imaginary views: no D x D
    # temporary.
    h_norms = np.sqrt(np.einsum("ij,ij->j", h.real, h.real) + np.einsum("ij,ij->j", h.imag, h.imag))
    leak, tol = frob(hp - p @ (dag(p) @ hp)), LEAKAGE_TOL * _scale(h_norms)
    verdict = verdict and bool(leak <= tol)
    return verdict, {"eigenvector": worst, "leakage": leak / tol}


def is_noiseless(code: CodeSubspace, liouv: Liouvillian) -> bool:
    """Operational noiselessness test (Zanardi and Rasetti, PRL 79, 3306
    (1997)).

    True iff (a) every Lindblad operator L acts as one scalar l on the code
    basis P (sub-decoherence), ||L P - l P||_F <= EIGENVECTOR_TOL s(L), and
    (b) the renormalized Hamiltonian maps the code into itself,
    ||(I - P P^+) H' P||_F <= LEAKAGE_TOL s(H'), with s(M) = max(1, largest
    column 2-norm of M).

    Two routes give L P and s(L), with the same comparisons, chosen as in
    ``pure_decoherence_rate``.  A set with ``LindbladSet.structured`` true
    (canonical, D >= STRUCTURED_MIN_DIM) takes L P for all code columns
    from one digit-move pass and one weights product per sector
    (``sector_actions``) and s(L) from the weights and the cell operator in
    O(K N D) (``column_norms``): no D x D operator is placed.  Hand-built
    sets and smaller registers multiply by each term's ``op``.  s(H') comes
    from the column sums of squares of H'.  ``noiseless_test`` also
    returns the residuals.
    """
    return noiseless_test(code, liouv)[0]


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
