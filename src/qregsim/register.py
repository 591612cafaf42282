"""Cell operators, collective operators, and register Hamiltonians.

A register is N identical d-level cells.  Spin convention for qubit cells:
sigma_z = diag(+1/2, -1/2), sigma_plus = |up><down|, basis index 0 = |up>,
and the leftmost symbol of a product label is cell 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, factorial

import numpy as np

from .errors import (
    DimensionMismatch,
    IndexOutOfRange,
    InvalidQuantumNumbers,
    NotHermitian,
    QregError,
    TooSmall,
)
from .linalg import comm, frob, is_hermitian, kron_all

SIGMA_Z = np.diag([0.5, -0.5]).astype(complex)
SIGMA_PLUS = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
SIGMA_MINUS = SIGMA_PLUS.conj().T
# Exchange of two qubit cells, |ab> -> |ba>.
SWAP = np.eye(4, dtype=complex)[[0, 2, 1, 3]]

# Step condition tolerance: || [H^C, A] + eps*A ||_F
STEP_TOL = 1e-10
SU2_INVARIANCE_TOL = 1e-10


@dataclass(frozen=True)
class RegisterModel:
    """N-cell register with one interaction channel per cell.

    Fields
    ------
    n_cells : number of cells N >= 1.
    cell_dim : levels per cell d >= 2.
    cell_op : d x d single-cell coupling operator A.
    cell_hamiltonian : d x d single-cell Hamiltonian H^C.
    epsilon : energy quantum of the step condition [H^C, A] = -eps A.
    interaction : optional D x D register Hamiltonian term (D = d^N).
    """

    n_cells: int
    cell_dim: int
    cell_op: np.ndarray
    cell_hamiltonian: np.ndarray
    epsilon: float
    interaction: np.ndarray | None = None

    def __post_init__(self):
        if self.n_cells < 1:
            raise TooSmall(f"need at least one cell, got {self.n_cells}")
        if self.cell_dim < 2:
            raise TooSmall(f"cells need at least two levels, got {self.cell_dim}")
        d = self.cell_dim
        a = np.asarray(self.cell_op, dtype=complex)
        h = np.asarray(self.cell_hamiltonian, dtype=complex)
        if a.shape != (d, d) or h.shape != (d, d):
            raise DimensionMismatch(
                f"cell operators must be {d}x{d}, got {a.shape} and {h.shape}"
            )
        if not is_hermitian(h):
            raise NotHermitian("cell Hamiltonian must be Hermitian")
        if self.epsilon < 0:
            raise QregError("epsilon must be nonnegative")
        defect = frob(comm(h, a) + self.epsilon * a)
        if defect > STEP_TOL:
            raise QregError(
                f"step condition violated: ||[H^C, A] + eps A|| = {defect:.3e}"
            )
        object.__setattr__(self, "cell_op", a)
        object.__setattr__(self, "cell_hamiltonian", h)
        if self.interaction is not None:
            w = np.asarray(self.interaction, dtype=complex)
            if w.shape != (self.dim, self.dim):
                raise DimensionMismatch(
                    f"interaction must be {self.dim}x{self.dim}, got {w.shape}"
                )
            if not is_hermitian(w):
                raise NotHermitian("interaction must be Hermitian")
            if d == 2 and np.array_equal(a, SIGMA_MINUS):
                scale = max(1.0, frob(w))
                for s in (total_sz(self.n_cells), total_splus(self.n_cells)):
                    if frob(comm(w, s)) > SU2_INVARIANCE_TOL * scale:
                        raise QregError(
                            "interaction must commute with the collective "
                            "spin operators"
                        )
            object.__setattr__(self, "interaction", w)

    @property
    def dim(self) -> int:
        return self.cell_dim**self.n_cells


def qubit_register(
    n: int, epsilon: float = 1.0, interaction: np.ndarray | None = None
) -> RegisterModel:
    """Qubit register with A = sigma_minus and H^C = epsilon * sigma_z."""
    return RegisterModel(
        n_cells=n,
        cell_dim=2,
        cell_op=SIGMA_MINUS,
        cell_hamiltonian=epsilon * SIGMA_Z,
        epsilon=epsilon,
        interaction=interaction,
    )


def dephasing_register(n: int, cell_op: np.ndarray | None = None) -> RegisterModel:
    """Register with a Hermitian coupling operator (default sigma_z).

    A Hermitian A forces epsilon = 0 in the step condition, so the cell
    Hamiltonian is dropped: this is the pure-dephasing setting.
    """
    a = SIGMA_Z if cell_op is None else np.asarray(cell_op, dtype=complex)
    d = a.shape[0]
    return RegisterModel(
        n_cells=n,
        cell_dim=d,
        cell_op=a,
        cell_hamiltonian=np.zeros((d, d), dtype=complex),
        epsilon=0.0,
    )


def cell_digits(n: int, d: int = 2) -> np.ndarray:
    """The (d^n, n) digit table of the register basis: entry [b, i] is the
    level of cell i in basis state b.

    Cell 0 is the most significant digit and level 0 of a qubit is |up>.
    This is the one definition of the basis order.
    """
    index = np.arange(d**n)
    # int16 and a column at a time: no d^n x n int64 temporary
    digits = np.empty((d**n, n), dtype=np.int16)
    for i in range(n):
        digits[:, i] = index // d ** (n - 1 - i) % d
    return digits


def cell_terms(n: int, d: int, terms) -> np.ndarray:
    """The d^n x d^n operator sum_t scale_t op_t of the cell terms
    (op, cells, scale): op is a d^k x d^k operator on the k listed cells,
    the first of them its most significant digit, times the identity on
    the other cells.

    The terms are added in order, each in place: every nonzero (p, q) of op
    goes to every basis pair that holds p and q in the listed cells' digits
    and agrees in the others', O(nnz d^(n-k)) time and no d^n x d^n product.
    """
    dim = d**n
    zero = cell_digits(n, d) == 0
    out = np.zeros((dim, dim), dtype=complex)
    flat = out.reshape(-1)
    local = {}  # the digit table of k cells, per k
    for op, cells, scale in terms:
        cells, k = list(cells), len(cells)
        if len(set(cells)) != k or not all(0 <= c < n for c in cells):
            raise IndexOutOfRange(f"cells {cells} are not distinct cells of 0..{n - 1}")
        if np.shape(op) != (d**k, d**k):
            raise DimensionMismatch(f"an op on cells {cells} must be {d**k}^2")
        if k not in local:
            local[k] = cell_digits(k, d)
        # offset[p]: index shift of level p of the listed cells; base: flat
        # index of every (b, b) whose listed cells are at level 0
        offset = local[k] @ d ** (n - 1 - np.array(cells))
        base = np.flatnonzero(zero[:, cells].all(axis=1))[:, None] * (dim + 1)
        p, q = np.nonzero(op)
        flat[base + (offset[p] * dim + offset[q])] += scale * op[p, q]
    return out


def _cell_sum(n: int, d: int, op: np.ndarray, weights=None) -> np.ndarray:
    """sum_i w_i op_i over the n cells, every w_i 1 by default."""
    w = np.ones(n) if weights is None else weights
    return cell_terms(n, d, [(op, [i], w[i]) for i in range(n) if w[i] != 0])


def embed_cell_op(
    model: RegisterModel, i: int, op: np.ndarray | None = None
) -> np.ndarray:
    """I x ... x op x ... x I with ``op`` on tensor factor ``i``.

    ``op`` defaults to the model's cell operator A.
    """
    if not 0 <= i < model.n_cells:
        raise IndexOutOfRange(f"cell index {i} not in 0..{model.n_cells - 1}")
    a = model.cell_op if op is None else np.asarray(op, dtype=complex)
    if a.shape != (model.cell_dim, model.cell_dim):
        raise DimensionMismatch(f"single-cell operator must be {model.cell_dim}^2")
    return cell_terms(model.n_cells, model.cell_dim, [(a, [i], 1.0)])


def collective_op(model: RegisterModel, weights) -> np.ndarray:
    """Weighted sum of embedded cell operators, sum_i w_i A_i."""
    w = np.asarray(weights, dtype=complex)
    if w.shape != (model.n_cells,):
        raise DimensionMismatch(
            f"need {model.n_cells} weights, got shape {w.shape}"
        )
    return _cell_sum(model.n_cells, model.cell_dim, model.cell_op, w)


def free_hamiltonian(model: RegisterModel) -> np.ndarray:
    """Sum of single-cell Hamiltonians, sum_i H^C_i."""
    return _cell_sum(model.n_cells, model.cell_dim, model.cell_hamiltonian)


def register_hamiltonian(model: RegisterModel) -> np.ndarray:
    """Free Hamiltonian plus the interaction term, if present."""
    h = free_hamiltonian(model)
    if model.interaction is not None:
        h = h + model.interaction
    return h


def total_sz(n: int) -> np.ndarray:
    """Collective S^z for n qubits."""
    return _cell_sum(n, 2, SIGMA_Z)


def total_splus(n: int) -> np.ndarray:
    """Collective S^+ for n qubits."""
    return _cell_sum(n, 2, SIGMA_PLUS)


def total_sminus(n: int) -> np.ndarray:
    """Collective S^- for n qubits."""
    return _cell_sum(n, 2, SIGMA_MINUS)


def casimir(n: int) -> np.ndarray:
    """Total spin S^2 = (S^z)^2 + (S^+S^- + S^-S^+)/2."""
    sz = total_sz(n)
    sp = total_splus(n)
    sm = total_sminus(n)
    return sz @ sz + 0.5 * (sp @ sm + sm @ sp)


def check_ring(n: int) -> None:
    """Raise TooSmall unless n qubits can form a ring (n >= 3)."""
    if n < 3:
        raise TooSmall(f"a ring needs at least 3 qubits, got {n}")


def heisenberg_ring(n: int, j: float) -> np.ndarray:
    """Nearest-neighbour Heisenberg coupling on a ring of n qubits.

    J * sum_<ik> { sz_i sz_k + (sp_i sm_k + sm_i sp_k)/2 + 1/4 }, k = i+1
    mod n.  The per-bond constant fixes the energy origin so that each bond
    term equals half the two-qubit swap; for n = 4 the two singlet codewords
    then sit at +J and -J instead of 0 and -2J.
    """
    check_ring(n)
    return j * cell_terms(n, 2, [(SWAP, [i, (i + 1) % n], 0.5) for i in range(n)])


def su2_multiplicity(n: int, s2: int) -> int:
    """Number of spin-(s2/2) irreducible blocks in n coupled qubits.

    Exact integers via the Catalan-triangle form
    C(n, n/2 - s) - C(n, n/2 - s - 1) with s = s2/2.
    """
    # k = n/2 - s as an integer requires n - s2 even
    if s2 < 0 or s2 > n or (n - s2) % 2 != 0:
        raise InvalidQuantumNumbers(f"no spin-{s2}/2 sector in {n} qubits")
    k = (n - s2) // 2
    return comb(n, k) - (comb(n, k - 1) if k >= 1 else 0)


def _twice(x, name: str) -> int:
    t = 2 * x
    if not np.isfinite(t):
        raise InvalidQuantumNumbers(f"{name} must be finite: {x}")
    r = round(t)
    if abs(t - r) > 1e-9:
        raise InvalidQuantumNumbers(f"{name} must be integer or half-integer: {x}")
    return int(r)


def su2_basis_state(n: int, s, m, copy: int = 0) -> np.ndarray:
    """Simultaneous eigenvector |s m; copy> of S^2 and S^z for n qubits.

    Copies within a degenerate (s, m) block are ordered deterministically:
    eigenvectors sorted by leading-entry index, then Gram-Schmidt in that
    order, phase fixed so the leading entry is real positive.
    """
    s2 = _twice(s, "s")
    m2 = _twice(m, "m")
    if s2 < 0 or s2 > n or (n - s2) % 2 != 0:
        raise InvalidQuantumNumbers(f"spin {s} is not reachable with {n} qubits")
    if abs(m2) > s2 or (s2 - m2) % 2 != 0:
        raise InvalidQuantumNumbers(f"m = {m} is not a projection of spin {s}")
    mult = su2_multiplicity(n, s2)
    if not 0 <= copy < mult:
        raise InvalidQuantumNumbers(
            f"copy {copy} out of range, multiplicity of spin {s} is {mult}"
        )
    dim = 2**n
    # S^z is diagonal in the product basis; digit 1 means |down>.
    mz2 = n - 2 * cell_digits(n).sum(axis=1)
    sector = np.nonzero(mz2 == m2)[0]
    s2op = casimir(n)
    block = s2op[np.ix_(sector, sector)]
    w, v = np.linalg.eigh(block)
    target = (s2 / 2) * (s2 / 2 + 1)
    cols = [v[:, k] for k in range(len(w)) if abs(w[k] - target) < 0.5]
    if len(cols) != mult:  # eigenvalue gaps are >= 2, so 0.5 is safe
        raise QregError(
            f"found {len(cols)} eigenvectors for spin {s}, expected {mult}"
        )

    def leading(vec: np.ndarray) -> int:
        idx = np.nonzero(np.abs(vec) > 1e-6)[0]
        return int(idx[0]) if idx.size else len(vec)

    cols.sort(key=leading)
    ortho: list[np.ndarray] = []
    for c in cols:
        for o in ortho:
            c = c - (o.conj() @ c) * o
        nrm = np.linalg.norm(c)
        if nrm < 1e-8:
            raise QregError("degenerate block lost rank during orthonormalization")
        c = c / nrm
        lead = c[leading(c)]
        c = c * (abs(lead) / lead)
        ortho.append(c)
    out = np.zeros(dim, dtype=complex)
    out[sector] = ortho[copy]
    return out


def normalize(state: np.ndarray) -> np.ndarray:
    """Unit-norm copy of a state vector."""
    v = np.asarray(state, dtype=complex)
    nrm = np.linalg.norm(v)
    if nrm == 0:
        raise QregError("cannot normalize the zero vector")
    return v / nrm


def basis_state(n: int, bits) -> np.ndarray:
    """Computational product state from a bit string, 0 = |up>, cell 0 first."""
    if len(bits) != n:
        raise DimensionMismatch(f"need {n} symbols, got {len(bits)}")
    idx = 0
    for b in bits:
        if b not in (0, 1, "0", "1"):
            raise QregError(f"bits must be 0 or 1, got {b!r}")
        idx = 2 * idx + int(b)
    out = np.zeros(2**n, dtype=complex)
    out[idx] = 1.0
    return out


def pair_singlet_state(n: int) -> np.ndarray:
    """Product of singlets on adjacent cell pairs (0,1), (2,3), ...

    Deterministic representative of the n-qubit singlet sector for even n.
    """
    if n % 2 != 0:
        raise InvalidQuantumNumbers(f"pair singlet needs even n, got {n}")
    pair = (np.array([0, 1, 0, 0]) - np.array([0, 0, 1, 0])) / np.sqrt(2)
    return kron_all([pair.astype(complex).reshape(4, 1)] * (n // 2)).ravel()


def excitation_numbers(n: int) -> np.ndarray:
    """Number of up cells (digit 0) of each of the 2^n qubit basis states."""
    return n - cell_digits(n).sum(axis=1)


def dicke_state(n: int, k: int) -> np.ndarray:
    """Normalized (S^+)^k |down...down>, the symmetric state with m = k - n/2.

    (S^+)^k |down...down> is k! on every basis state with k cells up and 0
    elsewhere, so those entries are set directly: O(D) time and memory.
    Up to k = 18 every partial sum of applying S^+ k times is an exact
    integer, so the result has the same bits.
    """
    if not 0 <= k <= n:
        raise InvalidQuantumNumbers(f"need 0 <= k <= {n}, got {k}")
    v = np.zeros(2**n, dtype=complex)
    v[excitation_numbers(n) == k] = factorial(k)
    return normalize(v)
