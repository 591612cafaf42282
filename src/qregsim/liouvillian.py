"""Liouvillian assembly: canonical Lindblad form, Lamb shift, application.

The generator acts as

    L(rho) = i[rho, H'] + sum_k lambda_k (L_k rho L_k^+ - {L_k^+ L_k, rho}/2)

with H' the renormalized register Hamiltonian.  The Lindblad operators are
collective combinations L_k = sum_i u_i A_i of the cell operators, weighted
by eigenvectors u of the bath coefficient matrices.

``Liouvillian.apply`` evaluates L(rho), for one state or an (S, D, D) stack,
on one of two paths:

* dense: the K Lindblad operators are stored as D x D matrices and each call
  does 2K + 2 dense products, O(K D^3) time, broadcast over a stack; the
  stored operators take 2K D^2 complex entries (32 MiB at N = 8, 640 MiB
  at N = 10 for K = 2N).
* structured (Gamma form): for a generator from ``canonical_form`` with
  D >= STRUCTURED_MIN_DIM the dissipator is applied pairwise, per sector,

      sum_ij G_ij (A_i rho A_j^+ - {A_j^+ A_i, rho}/2),
      G = sum_k lambda_k u_k u_k^+ over the kept terms,

  with each A_i acting on one tensor digit of rho as strided slice copies
  and G contracted in one (N x N)(N x D^2) product: O(N^2 D^2) time, no
  stored D x D operators, and two N x D^2 buffers per call (16 MiB at
  N = 8, 320 MiB at N = 10).  Diagonal cell operators (sigma_z dephasing)
  reduce the whole dissipator to one precomputed elementwise multiplier.
  Below the crossover the dense products are faster, so small registers
  keep the dense path.

A third form, excitation blocks, serves the RK4 stepper (``dynamics``) and
never ``apply``.  ``excitation_form(liouv, rhos)`` returns it when the
cells are sigma- qubits, ``LindbladSet.structured`` holds, and neither H
nor some state in ``rhos`` has an entry between basis states of different
excitation number Q (cells up).  It serves those states; the caller keeps
the Gamma or dense form for the others, and for all on None.  H and the
Lamb shift conserve Q and the sigma-/sigma+ sectors move it by exactly
-1/+1, so such states stay block-diagonal in Q: C(2N, N) of the 4^N
entries (``ExcitationBlocks``), 19.6 % at N = 8.  The Gamma-form
dissipator then becomes, per sector, gathers between the C(N, q) and
C(N, q -/+ 1) bases and one (N x N)(N x sum_q n_{q-/+1} n_q) product per
half-sector.  Its index tables take O(N C(2N, N)) time and are built on
every call, never by ``build_liouvillian``.

All forms hold the same terms, so cutoff, clamping and rates agree.
Terms from ``canonical_form`` carry rate, sector and weights; each
sector's D x D operators are built only when some ``op`` is first read
(the dense path, code construction, small-register rates).  One predicate,
``LindbladSet.structured``, selects the Gamma form here and the weight
route of pure-state rates in ``LindbladSet.actions``.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field
from functools import partial

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
from .register import (
    SIGMA_MINUS,
    RegisterModel,
    cell_digits,
    cell_terms,
    embed_cell_op,
    excitation_numbers,
    register_hamiltonian,
)

# Lindblad terms with rate below RATE_CUTOFF * max_rate are dropped so that
# eigenvalue noise of the coefficient matrices cannot inject dissipators.
RATE_CUTOFF = 1e-12
# Negative eigenvalues within PSD_CLAMP * max_rate are floating-point noise.
PSD_CLAMP = 1e-10
# Largest register dimension for which the dense superoperator is built.
SUPEROP_MAX_DIM = 64
# Smallest register dimension applied in the structured Gamma form.  On a
# 2-core host with 2 BLAS threads one qubit apply takes, dense vs structured:
# N = 5 (D = 32) 0.2 vs 0.45 ms, N = 6 (D = 64) 1.5 vs 0.8 ms.
STRUCTURED_MIN_DIM = 64
# build_liouvillian raises TooLarge when generator_bytes exceeds this.  At
# finite temperature N = 10 qubits need about 0.45 GiB, N = 11 about
# 1.94 GiB (admitted) and N = 12 about 8.3 GiB; the estimate is 1.00-1.08
# times the tracemalloc peak of build plus one apply measured at N = 5-9.
GENERATOR_MAX_BYTES = 2 * 2**30

SECTOR_MINUS = -1
SECTOR_PLUS = +1


class LindbladTerm:
    """One canonical dissipator: rate, operator and sector (-1 or +1).

    ``op`` is the D x D operator, or a function that builds it; a built
    operator is cached on first access.  ``weights`` is the u with
    op = sum_i u_i A_i^sector and ``model`` the register of the A_i, when
    known; a lazily built operator needs ``model`` for its size.  Terms
    from ``canonical_form`` are lazy, so sets that are never asked for
    ``op`` (the structured path, large-register rates) build no D x D
    matrix.
    """

    def __init__(
        self,
        rate: float,
        op: np.ndarray | Callable[[], np.ndarray],
        sector: int,
        weights: np.ndarray | None = None,
        model: RegisterModel | None = None,
    ):
        if rate < 0:
            raise OrderingViolated(f"Lindblad rate must be >= 0, got {rate}")
        if sector not in (SECTOR_MINUS, SECTOR_PLUS):
            raise QregError(f"sector must be -1 or +1, got {sector}")
        if callable(op):
            if model is None:
                raise QregError("a lazily built operator needs its register model")
        else:
            op = np.asarray(op, dtype=complex)
            if op.ndim != 2 or op.shape[0] != op.shape[1]:
                raise DimensionMismatch(f"operator must be square, got {op.shape}")
        if weights is not None and model is not None:
            if np.shape(weights) != (model.n_cells,):
                raise DimensionMismatch(
                    f"need {model.n_cells} weights, got shape {np.shape(weights)}"
                )
        for name, value in (
            ("rate", rate),
            ("sector", sector),
            ("weights", weights),
            ("model", model),
            ("_op", op),
        ):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"LindbladTerm is immutable; cannot set {name!r}")

    def __repr__(self):
        return f"LindbladTerm(rate={self.rate!r}, sector={self.sector}, dim={self.dim})"

    @property
    def op(self) -> np.ndarray:
        if callable(self._op):
            object.__setattr__(self, "_op", self._op())
        return self._op

    @property
    def dim(self) -> int:
        """Size D of the operator, known without building it."""
        return self._op.shape[0] if isinstance(self._op, np.ndarray) else self.model.dim


@dataclass(frozen=True)
class LindbladSet:
    """Canonical Lindblad terms from diagonalizing the bath matrices.

    ``model`` is the register whose cell operators the terms combine; when
    it is set and every term carries its weights, the set can be applied
    in the structured Gamma form.
    """

    terms: tuple[LindbladTerm, ...]
    model: RegisterModel | None = field(default=None, repr=False, compare=False)

    def __iter__(self):
        return iter(self.terms)

    def __len__(self):
        return len(self.terms)

    def operators(self) -> list[np.ndarray]:
        return [t.op for t in self.terms]

    def max_rate(self) -> float:
        return max((t.rate for t in self.terms), default=0.0)

    @property
    def structured(self) -> bool:
        """Whether the set is used through its weights, never its operators:
        it names its register, every term carries weights, and D >=
        STRUCTURED_MIN_DIM (read at call time).  ``Liouvillian`` then
        applies it in the Gamma form and ``actions`` works cell by cell."""
        return (
            self.model is not None
            and self.model.dim >= STRUCTURED_MIN_DIM
            and all(t.weights is not None for t in self.terms)
        )

    def actions(self, psi: np.ndarray) -> list[np.ndarray]:
        """L_k psi for every term k, in term order.

        A structured set computes X_i = A_i psi once per cell and sector,
        as cell-local digit moves on psi, and L_k psi = sum_i u_ki X_i;
        it builds no operator.  Any other set multiplies by each ``op``.
        """
        psi = np.asarray(psi, dtype=complex).reshape(-1)
        if any(t.dim != psi.shape[0] for t in self.terms):
            raise DimensionMismatch("Lindblad operator does not match state")
        if not self.structured:
            return [t.op @ psi for t in self.terms]
        model = self.model
        cells = {}
        for sector in {t.sector for t in self.terms}:
            moves = _left_moves(_sector_cell_op(model, sector))
            x = np.empty((model.n_cells, psi.shape[0]), dtype=complex)
            for i, split in enumerate(_row_splits(model, 1)):
                _digit_op(x[i], psi, moves, split, True)
            cells[sector] = x
        return [t.weights @ cells[t.sector] for t in self.terms]


def _sector_cell_op(model: RegisterModel, sector: int) -> np.ndarray:
    """The sector's d x d cell operator: A for -1, A^+ for +1."""
    return model.cell_op if sector == SECTOR_MINUS else dag(model.cell_op)


def _cell_ops(model: RegisterModel, sector: int) -> list[np.ndarray]:
    a = _sector_cell_op(model, sector)
    return [embed_cell_op(model, i, a) for i in range(model.n_cells)]


def _row_splits(model: RegisterModel, trailing: int) -> list[tuple[int, int, int]]:
    """Per cell i, the (outer, d, inner) view of an array of d^N * trailing
    entries that puts cell i's tensor digit of the row index in the middle."""
    n, d = model.n_cells, model.cell_dim
    return [(d**i, d, d ** (n - 1 - i) * trailing) for i in range(n)]


class _SectorOperators:
    """Operators L_k = sum_i u_ki A_i of one sector's canonical terms,
    built together on first request: one set of N embedded cell operators
    serves every term and is dropped afterwards."""

    def __init__(self, model: RegisterModel, sector: int, weights: list):
        self.model, self.sector, self.weights = model, sector, weights
        self.ops = None

    def op(self, k: int) -> np.ndarray:
        if self.ops is None:
            cells = _cell_ops(self.model, self.sector)
            n = self.model.n_cells
            self.ops = [sum(u[i] * cells[i] for i in range(n)) for u in self.weights]
        return self.ops[k]


def canonical_form(model: RegisterModel, spec: BathSpec) -> LindbladSet:
    """Diagonalize the bath matrices into canonical Lindblad terms.

    For each sector the coefficient matrix is eigendecomposed; every
    eigenpair (lam, u) above the rate cutoff contributes the collective
    operator L = sum_i u_i A_i^sector with rate lam.  Rates within
    floating-point noise of zero are clamped.  The terms carry rate,
    sector, weights and the register; their operators are built on
    demand, one sector at a time, the first time any ``op`` is read.
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
        kept = []
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
            kept.append((lam, v[:, mu].copy()))
        ops = _SectorOperators(model, sector, [u for _, u in kept])
        terms += [
            LindbladTerm(lam, partial(ops.op, k), sector, weights=u, model=model)
            for k, (lam, u) in enumerate(kept)
        ]
    return LindbladSet(terms=tuple(terms), model=model)


def lamb_shift(model: RegisterModel, spec: BathSpec) -> np.ndarray:
    """Self-Hamiltonian renormalization from the Delta matrices.

    delta_H = sum_ij (Dm_ij A_i^+ A_j + Dp_ji A_i A_j^+); returns zero when
    the bath carries no Lamb-shift data.  Each term acts on cells i and j
    alone (one cell when i = j), so ``cell_terms`` places it: O(N^2 D)
    time for cell operators with few nonzeros, and one D x D array.
    """
    if not spec.has_lamb_shift:
        return np.zeros((model.dim, model.dim), dtype=complex)
    if spec.n != model.n_cells:
        raise DimensionMismatch("bath size does not match the register")
    a = model.cell_op
    terms = []
    for delta, left, right in (
        (spec.delta_minus, dag(a), a),
        (None if spec.delta_plus is None else spec.delta_plus.T, a, dag(a)),
    ):
        if delta is not None:
            same, pair = left @ right, kron(left, right)
            terms += [
                (same, [i], delta[i, j]) if i == j else (pair, [i, j], delta[i, j])
                for i, j in zip(*np.nonzero(delta))
            ]
    return cell_terms(model.n_cells, model.cell_dim, terms)


def _dense_parts(h: np.ndarray, lindblad: LindbladSet):
    """Drift B = iH + sum_k lambda_k L_k^+ L_k / 2 and the sqrt(rate)-scaled
    Lindblad operators."""
    gsum = np.zeros_like(h)
    ops = []
    for t in lindblad:
        scaled = np.sqrt(t.rate) * t.op
        ops.append(scaled)
        gsum += dag(scaled) @ scaled
    return 1j * h + 0.5 * gsum, ops


class _DenseForm:
    """Dense generator: L(rho) = -B rho - rho B^+ + sum_k L_k rho L_k^+ with
    the sqrt(rate)-scaled operators stacked.

    A stack of S states is one broadcast product per factor, (K, 1, D, D)
    against (S, D, D); each (k, s) product and the sum over k round exactly
    as for the state alone.
    """

    def __init__(self, h: np.ndarray, lindblad: LindbladSet):
        self.drift, ops = _dense_parts(h, lindblad)
        self.drift_dag = dag(self.drift)
        d = h.shape[0]
        self.jump = np.stack(ops) if ops else np.zeros((0, d, d), dtype=complex)
        self.jump_dag = self.jump.conj().transpose(0, 2, 1)

    def apply(self, rho: np.ndarray) -> np.ndarray:
        out = -(self.drift @ rho) - rho @ self.drift_dag
        if len(self.jump):
            jump, jump_dag = self.jump, self.jump_dag
            if rho.ndim == 3:
                jump, jump_dag = jump[:, None], jump_dag[:, None]
            out += (jump @ rho @ jump_dag).sum(axis=0)
        return out


def _left_moves(a: np.ndarray):
    """Nonzero entries of a cell operator as digit moves (to, from, c) of
    its left action: (a @ M) gets c * M[digit q] in digit p for a[p, q] = c."""
    p, q = np.nonzero(a)
    return [(int(i), int(j), complex(a[i, j])) for i, j in zip(p, q)]


def _digit_op(dst, src, moves, split, assign: bool) -> None:
    """dst (+)= a cell operator acting on one tensor digit of src.

    ``split`` views a D x D matrix as (outer, d, inner) with the digit in the
    middle; each move (to, from, c) adds c * src[:, from] to dst[:, to].  With
    ``assign`` dst is overwritten instead, digit slices no move reaches set
    to zero.  Coefficients equal to 1 (sigma+-) are plain slice copies.
    """
    dv, sv = dst.reshape(split), src.reshape(split)
    written = set()
    for to, frm, c in moves:
        target, source = dv[:, to], sv[:, frm]
        if assign and to not in written:
            if c == 1:
                np.copyto(target, source)
            else:
                np.multiply(source, c, out=target)
            written.add(to)
        elif c == 1:
            target += source
        else:
            target += c * source
    if assign:
        for k in range(split[1]):
            if k not in written:
                dv[:, k] = 0


def _contract(g: np.ndarray, x: np.ndarray, out: np.ndarray) -> None:
    """out = g @ x for N x D^2 complex x; a real g multiplies the
    interleaved (re, im) view in one real product, a third faster."""
    if g.dtype == complex:
        np.matmul(g, x, out=out)
    else:
        np.matmul(g, x.view(float), out=out.view(float))


class _GammaForm:
    """Structured generator for a canonical Lindblad set: the Hamiltonian
    term plus, per sector, sum_ij G_ij (A_i rho A_j^+ - {A_j^+ A_i, rho}/2)
    with A the sector's cell operator (A, or A^+ for the plus sector) and
    G = sum_k lambda_k u_k u_k^+ over the sector's terms.

    Row-digit slices are long contiguous runs while column-digit slices of
    the last cells are short, so everything but the sandwich runs on rows:
    the right half of the anticommutator is built transposed, from rho^T.
    """

    def __init__(self, model: RegisterModel, lindblad: LindbladSet, h, h_diag):
        n, d, dim = model.n_cells, model.cell_dim, model.dim
        self.n, self.dim = n, dim
        self.rows = _row_splits(model, dim)
        self.cols = [(dim * d**i, d, d ** (n - 1 - i)) for i in range(n)]
        # Terms applied as one elementwise multiplier: -i[H, rho] when H is
        # diagonal, otherwise the dense commutator with self.h.
        if h_diag is not None:
            self.multiplier, self.h = -1j * (h_diag[:, None] - h_diag[None, :]), None
        else:
            self.multiplier, self.h = np.zeros((dim, dim), dtype=complex), h
        sectors = []
        for sector in (SECTOR_MINUS, SECTOR_PLUS):
            terms = [t for t in lindblad if t.sector == sector]
            if terms:
                a = _sector_cell_op(model, sector)
                g = sum(t.rate * np.outer(t.weights, t.weights.conj()) for t in terms)
                sectors.append((a, g.real if not np.any(g.imag) else g))
        cell = model.cell_op
        self.sectors = []
        if np.count_nonzero(cell) == np.count_nonzero(np.diagonal(cell)):
            # Diagonal cell operators (sigma_z dephasing) make every term
            # elementwise: C_ab = S_ab - (S_aa + S_bb)/2 with S = beta G beta^+,
            # beta_ai the sector operator's entry at cell i's digit of a.
            digits = cell_digits(n, d)
            for a, gamma in sectors:
                beta = np.diagonal(a)[digits]
                s = beta @ gamma @ beta.conj().T
                diag = np.diagonal(s)
                self.multiplier += s - 0.5 * (diag[:, None] + diag[None, :])
            return
        for a, gamma in sectors:
            moves = {
                "a": _left_moves(a),
                "a_dag": _left_moves(dag(a)),
                # also the right action of a^+ on columns: (M @ a^+)[digit p]
                # gets conj(a[p, q]) M[digit q]
                "a_conj": _left_moves(a.conj()),
                "a_t": _left_moves(a.T),
            }
            self.sectors.append((gamma, np.ascontiguousarray(gamma.T), moves))

    def apply(self, rho: np.ndarray) -> np.ndarray:
        if rho.ndim == 2:
            return self._apply_one(rho)
        if rho.shape[0] == 1:  # the one-state stack RK4 steps: no copy
            return self._apply_one(rho[0])[None]
        out = np.empty_like(rho)
        for s in range(rho.shape[0]):
            out[s] = self._apply_one(rho[s])
        return out

    def _apply_one(self, rho: np.ndarray) -> np.ndarray:
        rho = np.ascontiguousarray(rho)
        out = self.multiplier * rho
        if self.h is not None:
            out += -1j * (self.h @ rho - rho @ self.h)
        if not self.sectors:
            return out
        n, dim, rows, cols = self.n, self.dim, self.rows, self.cols
        rho_t = np.ascontiguousarray(rho.T)
        x = np.empty((n, dim, dim), dtype=complex)
        y = np.empty_like(x)
        xf, yf = x.reshape(n, -1), y.reshape(n, -1)
        anti = np.zeros_like(out)
        anti_t = np.zeros_like(out)
        for gamma, gamma_t, mv in self.sectors:
            for i in range(n):
                _digit_op(x[i], rho, mv["a"], rows[i], True)  # X_i = A_i rho
            _contract(gamma_t, xf, yf)  # Y_j = sum_i G_ij X_i
            for j in range(n):
                _digit_op(out, y[j], mv["a_conj"], cols[j], False)  # Y_j A_j^+
                _digit_op(anti, y[j], mv["a_dag"], rows[j], False)  # A_j^+ Y_j
            for j in range(n):
                # Z_j^T = (rho A_j^+)^T = conj(A_j) rho^T
                _digit_op(x[j], rho_t, mv["a_conj"], rows[j], True)
            _contract(gamma, xf, yf)  # W_i^T = sum_j G_ij Z_j^T
            for i in range(n):
                _digit_op(anti_t, y[i], mv["a_t"], rows[i], False)  # (W_i A_i)^T
        anti += anti_t.T
        anti *= -0.5
        out += anti
        return out


class ExcitationBlocks:
    """Excitation-number blocks of an N-qubit register.

    Q(b) counts the cells of basis state b that are up (digit 0).  A matrix
    with no entry between basis states of different Q is stored packed: per
    q = 0..N the C(N, q) x C(N, q) block rho[S_q][:, S_q], S_q the states
    with Q = q in ascending order, row-major, the blocks concatenated by q;
    C(2N, N) entries in all.  Packed arrays carry any leading stack axes.

    ``rows`` and ``cols`` hold the basis states of each packed entry,
    ``full`` its flat D x D index, ``transpose`` the packed index of its
    transposed entry and ``diagonal`` the packed indices of the diagonal.
    """

    def __init__(self, n: int):
        dim = 2**n
        self.n, self.dim = n, dim
        up = excitation_numbers(n)
        self.sizes = np.bincount(up, minlength=n + 1)
        self.states = [np.flatnonzero(up == q) for q in range(n + 1)]
        self.pos = np.empty(dim, dtype=np.intp)
        for s in self.states:
            self.pos[s] = np.arange(s.shape[0])
        self.offsets = np.concatenate(([0], np.cumsum(self.sizes**2)))
        self.size = int(self.offsets[-1])
        self.rows = np.concatenate([np.repeat(s, len(s)) for s in self.states])
        self.cols = np.concatenate([np.tile(s, len(s)) for s in self.states])
        self.full = self.rows * dim + self.cols
        k = up[self.rows]
        self.transpose = self.offsets[k] + self.pos[self.cols] * self.sizes[k] + self.pos[self.rows]
        self.diagonal = np.flatnonzero(self.rows == self.cols)

    def pack(self, rho: np.ndarray) -> np.ndarray:
        """The packed blocks of rho (..., D, D); entries off the blocks are
        dropped."""
        flat = rho.reshape(rho.shape[:-2] + (-1,))
        return np.take(flat, self.full, axis=-1)

    def unpack(self, packed: np.ndarray) -> np.ndarray:
        """(..., D, D) matrices with the packed blocks and zeros elsewhere."""
        out = np.zeros(packed.shape[:-1] + (self.dim**2,), dtype=packed.dtype)
        out[..., self.full] = packed
        return out.reshape(packed.shape[:-1] + (self.dim, self.dim))

    def blocks(self, packed: np.ndarray) -> list[np.ndarray]:
        """Views of the q = 0..N blocks of a packed array."""
        lead = packed.shape[:-1]
        return [
            packed[..., o : o + m * m].reshape(lead + (m, m))
            for o, m in zip(self.offsets, self.sizes)
        ]

    def is_block_diagonal(self, rho: np.ndarray) -> bool:
        """Whether every entry of rho between different Q is exactly zero."""
        return np.count_nonzero(rho) == np.count_nonzero(self.pack(rho))

    def trace(self, packed: np.ndarray) -> np.ndarray:
        return np.take(packed, self.diagonal, axis=-1).sum(axis=-1)

    def adjoint(self, packed: np.ndarray, out: np.ndarray) -> None:
        """out = the packed conjugate transpose of packed."""
        np.take(packed, self.transpose, axis=-1, out=out)
        np.conjugate(out, out=out)

    def moves(self, s: int):
        """Gather tables of the digit moves of a qubit cell operator A that
        takes one digit (the source) to the other (the target) with
        coefficient 1 and so moves Q by s: -1 for sigma-, +1 for sigma+.

        X_i = A_i rho and Z_j^T = (rho A_j^+)^T live in the half-sector of
        s: the blocks (q + s, q), packed by q like rho, P entries.  Returns
        ``x`` and ``z`` (N, P), which gather X_i and Z_i^T from rho's M
        packed entries (index M reads a zero), and the terms of
        Y_j A_j^+ and A_j^+ Y_j from Y and of W_i A_i from W^T, each an
        (N, P) array flattened.  A term table is ``(gather, segments)``:
        within a block every entry has the same number c of nonzero terms
        (the cells of its row or column state in the target or source
        digit), so block q's terms form a (c, n_q, n_q) array at
        ``gather[v:v + c * n_q^2]``, and ``segments`` lists
        (v, c, offset, n_q^2) per block with c > 0.  O(N C(2N, N)) work.
        """
        n, m, sizes, pos = self.n, self.size, self.sizes, self.pos
        bits = 1 << np.arange(n - 1, -1, -1)
        target = 1 if s < 0 else 0  # digit 1 is down
        kept = [q for q in range(n + 1) if 0 <= q + s <= n]
        h_off = np.zeros(n + 2, dtype=np.intp)
        for q in kept:
            h_off[q + 1] = sizes[q + s] * sizes[q]
        h_off = np.cumsum(h_off)
        p = int(h_off[-1])
        x, z = np.empty((n, p), dtype=np.intp), np.empty((n, p), dtype=np.intp)
        for q in kept:
            # X_i[a', b] = rho[src_i(a'), b] and Z_i^T[a', b] = rho[b, src_i(a')]
            # for a' in S_{q+s} with cell i in the target digit
            rows = self.states[q + s][None, :]
            at = (((rows & bits[:, None]) != 0) == target)[:, :, None]
            src = pos[rows ^ bits[:, None]][:, :, None]
            col = np.arange(sizes[q])
            here = slice(h_off[q], h_off[q + 1])
            x[:, here] = np.where(at, self.offsets[q] + src * sizes[q] + col, m).reshape(n, -1)
            z[:, here] = np.where(at, self.offsets[q] + col * sizes[q] + src, m).reshape(n, -1)

        def cells(states, digit):
            """The cells of each state in the digit, (c, len), and the
            positions of the states with each of them flipped."""
            c = np.nonzero(((states[:, None] & bits) != 0) == digit)[1]
            c = c.reshape(len(states), -1).T.copy()
            return c * p, pos[states ^ bits[c]]

        terms = {"sandwich": ([], []), "left": ([], []), "right": ([], [])}
        for q in range(n + 1):
            states, o = self.states[q], int(self.offsets[q])
            index = np.arange(sizes[q])
            blocks = []  # (name, moved, its axis 1 (row) or 2 (column), fixed)
            # (Y_j A_j^+)[a', b'] = Y_j[a', src_j(b')], cell j of b' the target;
            # (a', src_j(b')) sits in the half-sector's column block q - s
            cell, flip = cells(states, target)
            if cell.size:
                k = q - s
                blocks.append(("sandwich", cell + flip, 2, h_off[k] + index * sizes[k]))
            # (A_j^+ Y_j)[a, b] = Y_j[A_j a, b] and
            # (W_i A_i)[a, b] = W_i^T[A_i b, a], cell j of a (i of b) the source
            cell, flip = cells(states, 1 - target)
            if cell.size:
                moved = cell + flip * sizes[q]
                blocks.append(("left", moved, 1, h_off[q] + index))
                blocks.append(("right", moved, 2, h_off[q] + index))
            for name, moved, axis, fixed in blocks:
                table = np.expand_dims(moved, 3 - axis) + np.expand_dims(fixed, axis - 1)
                gather, segments = terms[name]
                v = sum(g.size for g in gather)
                gather.append(table.ravel())
                segments.append((v, table.shape[0], o, table[0].size))
        return x, z, *((np.concatenate(g), sg) for g, sg in terms.values())


def _add_terms(acc: np.ndarray, source: np.ndarray, table) -> None:
    """acc (S, M) += the per-entry sums of a term table over source."""
    gather, segments = table
    terms = np.take(source, gather, axis=1)
    for v, c, o, size in segments:
        acc[:, o : o + size] += terms[:, v : v + c * size].reshape(-1, c, size).sum(axis=1)


class _BlockForm:
    """The generator on excitation blocks (``excitation_form``): the
    Gamma-form dissipator with every cell operator a gather between
    packed blocks, and the Hamiltonian term per block.

    ``apply`` maps an (S, M) stack of packed states, each row bitwise as
    it is alone.
    """

    def __init__(self, layout: ExcitationBlocks, lindblad: LindbladSet, h):
        self.layout = layout
        h_diag = np.diagonal(h)
        rows, cols = layout.rows, layout.cols
        if np.count_nonzero(h) == np.count_nonzero(h_diag):
            self.multiplier, self.h = -1j * (h_diag[rows] - h_diag[cols]), None
        else:
            self.multiplier = np.zeros(layout.size, dtype=complex)
            self.h = [h[np.ix_(s, s)] for s in layout.states]
        self.sectors = []
        for sector in (SECTOR_MINUS, SECTOR_PLUS):
            terms = [t for t in lindblad if t.sector == sector]
            if terms:
                g = sum(t.rate * np.outer(t.weights, t.weights.conj()) for t in terms)
                g = g.real if not np.any(g.imag) else g
                self.sectors.append((g, np.ascontiguousarray(g.T), layout.moves(sector)))

    def apply(self, rho: np.ndarray) -> np.ndarray:
        layout = self.layout
        n_states, m = rho.shape[0], layout.size
        out = self.multiplier * rho
        if self.h is not None:
            for h, r, o in zip(self.h, layout.blocks(rho), layout.blocks(out)):
                o += -1j * (h @ r - r @ h)
        if not self.sectors:
            return out
        src = np.zeros((n_states, m + 1), dtype=complex)
        src[:, :m] = rho
        anti = np.zeros_like(out)
        for gamma, gamma_t, (x_at, z_at, sandwich, left, right) in self.sectors:
            y = np.empty((n_states,) + x_at.shape, dtype=complex)
            flat = y.reshape(n_states, -1)
            _contract(gamma_t, np.take(src, x_at, axis=1), y)  # Y_j = sum_i G_ij X_i
            _add_terms(out, flat, sandwich)  # Y_j A_j^+
            _add_terms(anti, flat, left)  # A_j^+ Y_j
            _contract(gamma, np.take(src, z_at, axis=1), y)  # W_i^T = sum_j G_ij Z_j^T
            _add_terms(anti, flat, right)  # W_i A_i
        anti *= -0.5
        out += anti
        return out


@dataclass(frozen=True)
class Liouvillian:
    """Immutable generator: renormalized Hamiltonian plus Lindblad terms.

    A Lindblad set for which ``LindbladSet.structured`` holds (from
    ``canonical_form``, D >= STRUCTURED_MIN_DIM) is applied in the
    structured Gamma form; any other set through its stacked dense
    operators.  ``stability_scale`` is the largest rate plus the spectral
    radius of H, computed once here.
    """

    hamiltonian: np.ndarray
    lindblad: LindbladSet
    dim: int = field(default=0)
    stability_scale: float = field(init=False, compare=False)
    _form: _DenseForm | _GammaForm = field(init=False, repr=False, compare=False)

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
        if any(t.dim != d for t in self.lindblad):
            raise DimensionMismatch("Lindblad operator size mismatch")
        h_diag = np.diagonal(h)
        if np.count_nonzero(h) != np.count_nonzero(h_diag):
            h_diag = None
            radius = np.abs(np.linalg.eigvalsh(h)).max(initial=0.0)
        else:
            radius = np.abs(h_diag).max(initial=0.0)
        object.__setattr__(
            self, "stability_scale", self.lindblad.max_rate() + float(radius)
        )
        model = self.lindblad.model
        if self.lindblad.structured:
            if model.dim != d:
                raise DimensionMismatch("Lindblad set and Hamiltonian sizes differ")
            form = _GammaForm(model, self.lindblad, h, h_diag)
        else:
            form = _DenseForm(h, self.lindblad)
        object.__setattr__(self, "_form", form)

    def apply(self, rho: np.ndarray) -> np.ndarray:
        """Evaluate L(rho) without materializing the superoperator.

        Linear on any complex D x D input; rho need not be Hermitian.  An
        (S, D, D) stack is mapped state by state, each result bitwise equal
        to applying to that state alone; the dense path shares one
        broadcast product per factor across the stack.
        """
        rho = np.asarray(rho, dtype=complex)
        if rho.ndim not in (2, 3) or rho.shape[-2:] != (self.dim, self.dim):
            raise DimensionMismatch(
                f"state must be {self.dim}x{self.dim} or a stack of them, "
                f"got {rho.shape}"
            )
        return self._form.apply(rho)

    def dissipator(self, rho: np.ndarray) -> np.ndarray:
        """Dissipative part alone (Hamiltonian term removed)."""
        return self.apply(rho) - 1j * (
            rho @ self.hamiltonian - self.hamiltonian @ rho
        )


def excitation_form(liouv: Liouvillian, rhos) -> _BlockForm | None:
    """The generator on excitation blocks, for those of the D x D states
    ``rhos`` with no entry between basis states of different Q
    (``layout.is_block_diagonal``), or None unless all of these hold:

    * the cells are qubits with cell operator sigma-;
    * ``liouv.lindblad.structured`` (canonical, D >= STRUCTURED_MIN_DIM);
    * at least one state has no such entry;
    * neither has the Hamiltonian.

    Then every term keeps the states block-diagonal: H and the Lamb shift
    conserve Q, and the sigma-/sigma+ sectors move it by exactly -1/+1.
    The index tables are built here, on every call.
    """
    lset = liouv.lindblad
    model = lset.model
    if not (
        lset.structured
        and model.cell_dim == 2
        and np.array_equal(model.cell_op, SIGMA_MINUS)
    ):
        return None
    layout = ExcitationBlocks(model.n_cells)
    if not any(layout.is_block_diagonal(r) for r in rhos):
        return None
    if not layout.is_block_diagonal(liouv.hamiltonian):
        return None
    return _BlockForm(layout, lset, liouv.hamiltonian)


def generator_bytes(model: RegisterModel, spec: BathSpec) -> int:
    """Estimated peak bytes of build_liouvillian and one apply call.

    Counts D x D complex matrices; the apply call dominates on both paths.
    The path is the one ``canonical_form(model, spec).structured`` picks;
    that set builds no operator here.  Gamma form: its two N x D^2
    buffers and four D x D arrays, the state, the Hamiltonian and the
    elementwise multiplier it keeps, and two more for numpy's ufunc
    buffers and an interaction or Lamb-shift term; it builds no Lindblad
    operator.  Dense path: the K canonical operators (cached on the
    terms), the stacked jump operators and their adjoints, the two stacked
    sandwich temporaries, and five D x D arrays.
    """
    return _peak_bytes(canonical_form(model, spec))


def rates_bytes(
    model: RegisterModel, spec: BathSpec, n_states: int, matrices: int = 0
) -> int:
    """Estimated peak bytes of first-order decoherence rates: n_states
    state vectors held at once, one ``pure_decoherence_rate`` call on
    ``canonical_form(model, spec)``, and ``matrices`` D x D complex arrays
    the caller builds beside them (a dense state builder or interaction).

    Each sector with a nonzero bath matrix has at most N terms (exactly N
    when the matrix has full rank), counted without diagonalizing it.  A
    structured set takes N vectors per sector for the cell actions, one
    per term for L_k psi, and three for the state and numpy's temporaries
    (measured at N = 6-8); a smaller set builds its K operators instead.
    """
    n, vector = model.n_cells, 16 * model.dim
    terms = n * sum(bool(np.any(g)) for g in (spec.gamma_minus, spec.gamma_plus))
    need = (n_states + 2 * terms + 3) * vector
    if model.dim < STRUCTURED_MIN_DIM:
        need += terms * model.dim * vector
    return need + matrices * model.dim * vector


def _peak_bytes(lindblad: LindbladSet) -> int:
    model = lindblad.model
    matrix = 16 * model.dim**2
    if lindblad.structured:
        return (2 * model.n_cells + 9) * matrix
    return (5 * len(lindblad) + 5) * matrix


def build_liouvillian(
    model: RegisterModel, spec: BathSpec, include_lamb_shift: bool = True
) -> Liouvillian:
    """Assemble the full generator for a register-bath pair.

    Raises TooLarge, before allocating, when generator_bytes exceeds
    GENERATOR_MAX_BYTES.
    """
    lindblad = canonical_form(model, spec)
    need = _peak_bytes(lindblad)
    if need > GENERATOR_MAX_BYTES:
        raise TooLarge(
            f"the generator for D = {model.dim} needs about {need / 2**30:.1f} GiB, "
            f"over the {GENERATOR_MAX_BYTES / 2**30:.0f} GiB limit"
        )
    h = register_hamiltonian(model)
    if include_lamb_shift and spec.has_lamb_shift:
        h = h + lamb_shift(model, spec)
    return Liouvillian(hamiltonian=h, lindblad=lindblad)


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

    Built from the Hamiltonian and the Lindblad terms, whichever path
    ``apply`` takes.  Column-stacking convention: vec(A X) = (I (x) A) vec(X)
    and vec(X B) = (B^T (x) I) vec(X).  Guarded to D <= 64.
    """
    d = liouv.dim
    if d > SUPEROP_MAX_DIM:
        raise TooLarge(
            f"superoperator needs D <= {SUPEROP_MAX_DIM}, got D = {d}"
        )
    eye = np.eye(d, dtype=complex)
    b, ops = _dense_parts(liouv.hamiltonian, liouv.lindblad)
    # -(x + y) rounds exactly as -x - y, with one D^2 x D^2 temporary fewer.
    m = kron(eye, b)
    m += kron(b.conj(), eye)
    m *= -1
    for op in ops:
        m += kron(op.conj(), op)
    return m
