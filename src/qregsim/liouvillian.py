"""Liouvillian assembly: canonical Lindblad form, Lamb shift, application.

The generator acts as

    L(rho) = i[rho, H'] + sum_k lambda_k (L_k rho L_k^+ - {L_k^+ L_k, rho}/2)

with H' the renormalized register Hamiltonian.  The Lindblad operators are
collective combinations L_k = sum_i u_i A_i of the cell operators, weighted
by eigenvectors u of the bath coefficient matrices.

``Liouvillian.apply`` evaluates L(rho), for one state or an (S, D, D) stack,
on one of two paths, chosen when the ``Liouvillian`` is built and built on
the first ``apply``:

* dense: the K Lindblad operators are stored as D x D matrices and each call
  does 2K + 2 dense products, O(K D^3) time, broadcast over a stack; the
  stored operators take 2K D^2 complex entries (32 MiB at N = 8, 640 MiB
  at N = 10 for K = 2N).  The RK4 stepper also stacks the dense forms of
  several generators with one D and one K (``_DenseForm``), for the
  states of all of them at once.
* structured (Gamma form): for a generator from ``canonical_form`` with
  D >= STRUCTURED_MIN_DIM the dissipator is applied pairwise, per sector,

      sum_ij G_ij (A_i rho A_j^+ - {A_j^+ A_i, rho}/2),
      G = sum_k lambda_k u_k u_k^+ over the kept terms,

  with each A_i acting on one tensor digit of rho as strided slice copies
  and G contracted in one (N x N)(N x D^2) product: O(N^2 D^2) time, no
  stored D x D operators, and two N x D^2 buffers per call (16 MiB at
  N = 8, 320 MiB at N = 10).  Diagonal cell operators (sigma_z dephasing)
  reduce the whole dissipator to one precomputed elementwise multiplier,
  ``add_elementwise_rates``, the same rates the closed-form
  ``dynamics.dephasing_solve`` exponentiates.  Below the crossover the
  dense products are faster, so small registers keep the dense path.

A third form, excitation blocks, serves the RK4 stepper (``dynamics``) and
never ``apply``: states with no entry between different excitation
numbers Q (cells up) take C(2N, N) of the 4^N entries (``ExcitationBlocks``,
one per N from ``excitation_layout``), 19.6 % at N = 8.  ``_BlockForm``
steps them on -B rho - rho B^+ plus, per sector, the sandwich
sum_ij G_ij A_i rho A_j^+.  The drift B = iH + sum_ij G_ij A_j^+ A_i / 2
conserves Q like H, so it is built as its C(N, q) x C(N, q) blocks alone,
from H's blocks and each sector's G by digit moves (``drift_blocks``), with
no term block; the sandwich is a gather from the C(N, q) to the
C(N, q -/+ 1) bases, an (N x N)(N x L) product and a gathered sum back,
per chunk of L entries of consecutive rows of the half-sector blocks, at
most SANDWICH_CHUNK_ENTRIES / N, so its buffers do not grow with N.  The
drift is built on the form's first use, never by ``build_liouvillian``;
the int32 index tables depend on N alone and are kept with the layout
(``ExcitationBlocks.gather_tables``).  A run that stays real (real
states, every G real, H_q = c_q I) steps the same code in float64.

Which form a run takes, and its bytes, is ``dynamics.plan``'s rule; this
module supplies the forms and their sizes (``form_bytes``,
``block_buffers``) and the one budget comparison, ``check_budget``.

All forms hold the same terms, so cutoff, clamping and rates agree; the
Gamma and block forms build their per-sector G from the term weights.
Terms from ``canonical_form`` carry rate, sector and weights; a term
places its D x D operator with ``register.collective_op`` only when its
``op`` is first read (the dense path, null codes of sets without Q
shifts, small-register rates and noiseless tests).  One predicate,
``LindbladSet.structured``, selects the Gamma form here and the weight
route of pure-state rates (the cell covariance from ``_cell_actions`` and
each sector's G, ``observables.cell_covariances``) and of
``codes.is_noiseless`` (``LindbladSet.sector_actions``,
``LindbladSet.column_norms``).  All of these read the terms grouped by
sector, and each sector's G, once per set (``LindbladSet.gammas``).  The
exact sector generator sandwiches the layout's blocks X_i of the cell
operator (``ExcitationBlocks.move_blocks``) with each G; only the null code
of a canonical qubit set weights them into term blocks (``codes``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from decimal import Decimal
from functools import cached_property, lru_cache
from itertools import product
from math import comb

import numpy as np

from .bath import BathSpec
from .errors import (
    DimensionMismatch,
    NotHermitian,
    OrderingViolated,
    QregError,
    TooLarge,
)
from .linalg import dag, exact_diagonal, frob, herm_eig, is_hermitian, kron
from .register import (
    RegisterModel,
    _on_blocks,
    cell_digits,
    cell_terms,
    collective_op,
    embed_cell_op,
    excitation_sectors,
    place_values,
    register_hamiltonian,
    setup_bytes,
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
# check_budget raises TooLarge for an estimate above this: the 2 GiB limit
# of build_liouvillian (``build_bytes``), Liouvillian.apply
# (``form_bytes``), each run of ``dynamics.plan`` and the CLI's load check.
GENERATOR_MAX_BYTES = 2 * 2**30

# Entries of the gathered X_i, over all N cells, that one chunk of the block
# form's sandwich takes per state (``ExcitationBlocks.moves``): 2 chunks per
# sector at N = 8, 26 at N = 10; the chunk buffers then take at most about
# 3 MB per state up to N = 14, where one row still fits.
SANDWICH_CHUNK_ENTRIES = 2**16
# Entries of the cell actions X_i and the states that one chunk of
# ``observables.cell_covariances`` copies, twice (with its conjugate):
# 128 KiB in all, a ninth of the X of the N = 8 cluster code's 36 columns.
COVARIANCE_CHUNK_ENTRIES = 2**12

SECTOR_MINUS = -1
SECTOR_PLUS = +1


class LindbladTerm:
    """One canonical dissipator: rate, operator and sector (-1 or +1).

    ``weights`` is the u with op = sum_i u_i A_i^sector and ``model`` the
    register of the A_i, when known.  ``op`` is the D x D operator, or
    None to have it placed from the weights (``register.collective_op``)
    on first access and cached; that needs both.  Terms from
    ``canonical_form`` pass None, so sets that are never asked for ``op``
    (the structured path, large-register rates) build no D x D matrix.
    """

    def __init__(
        self,
        rate: float,
        op: np.ndarray | None,
        sector: int,
        weights: np.ndarray | None = None,
        model: RegisterModel | None = None,
    ):
        if rate < 0:
            raise OrderingViolated(f"Lindblad rate must be >= 0, got {rate}")
        if sector not in (SECTOR_MINUS, SECTOR_PLUS):
            raise QregError(f"sector must be -1 or +1, got {sector}")
        if op is None:
            if weights is None or model is None:
                raise QregError(
                    "a term without an operator needs its weights and register"
                )
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
        if self._op is None:
            a = _sector_cell_op(self.model, self.sector)
            object.__setattr__(self, "_op", collective_op(self.model, self.weights, a))
        return self._op

    @property
    def dim(self) -> int:
        """Size D of the operator, known without building it."""
        return self.model.dim if self._op is None else self._op.shape[0]


@dataclass(frozen=True)
class LindbladSet:
    """Canonical Lindblad terms from diagonalizing the bath matrices.

    ``model`` is the register whose cell operators the terms combine; when
    it is set and every term carries its weights, the set can be applied
    in the structured Gamma form.  ``has_lamb_shift`` records whether the
    bath the set was built from has a Lamb shift (``canonical_form``), the
    part of the generator's default Hamiltonian the terms do not carry.
    """

    terms: tuple[LindbladTerm, ...]
    model: RegisterModel | None = field(default=None, repr=False, compare=False)
    has_lamb_shift: bool = field(default=False, repr=False, compare=False)

    def __iter__(self):
        return iter(self.terms)

    def __len__(self):
        return len(self.terms)

    def operators(self) -> list[np.ndarray]:
        return [t.op for t in self.terms]

    def max_rate(self) -> float:
        return max((t.rate for t in self.terms), default=0.0)

    @cached_property
    def sectors(self) -> dict[int, tuple[np.ndarray, np.ndarray]] | None:
        """Per sector with terms, in the order -1, +1: its terms' rates
        (K_s,) and weights (K_s, N) in the set's order, grouped once and
        shared, so no caller writes them; None unless the set names its
        register and every term carries weights."""
        if self.model is None or any(t.weights is None for t in self.terms):
            return None
        groups = {k: [t for t in self.terms if t.sector == k] for k in (SECTOR_MINUS, SECTOR_PLUS)}
        return {
            k: (np.array([t.rate for t in g]), np.array([t.weights for t in g]))
            for k, g in groups.items()
            if g
        }

    @property
    def structured(self) -> bool:
        """Whether the set is used through its weights, never its operators:
        D >= STRUCTURED_MIN_DIM (read at call time) and ``sectors`` exists,
        tested in that order so a smaller set groups no terms here.
        ``Liouvillian`` then applies it in the Gamma form and
        ``sector_actions`` works cell by cell."""
        model = self.model
        return model is not None and model.dim >= STRUCTURED_MIN_DIM and self.sectors is not None

    def sector_actions(self, psi: np.ndarray):
        """For a structured set, per sector with terms: the terms' rates
        (K_s,) and their L_k psi on the columns of a (D, S) stack, as one
        (K_s, D, S) array; yielded one sector at a time.

        X_i = A_i psi comes from cell-local digit moves on all S columns at
        once, and L_k psi = sum_i u_ki X_i from one (K_s x N)(N x D S)
        product; no operator is built.
        """
        psi = np.ascontiguousarray(psi)
        n = self.model.n_cells
        for sector, (rates, weights) in self.sectors.items():
            lpsi = weights @ _cell_actions(self.model, sector, psi).reshape(n, -1)
            yield rates, lpsi.reshape((len(rates),) + psi.shape)

    def column_norms(self):
        """For a set with ``sectors``, per sector with terms in the order
        of ``sector_actions``: the 2-norms of the terms' operator columns,
        (K_s, D); yielded one sector at a time, no operator built.

        Column j of L = sum_i u_i A_i is (sum_i u_i A[d_i, d_i]) e_j plus,
        per cell i, u_i times the off-diagonal entries of A's column d_i,
        d_i cell i's digit of j (``cell_digits``).  Those moves change one
        digit each, so they land on distinct basis states and

            ||L e_j||^2 = |sum_i u_i A[d_i, d_i]|^2
                          + sum_i |u_i|^2 sum_{t != d_i} |A[t, d_i]|^2,

        O(K N D) in all.
        """
        digits = cell_digits(self.model.n_cells, self.model.cell_dim)
        for sector, (_, weights) in self.sectors.items():
            a = _sector_cell_op(self.model, sector)
            diag = np.diagonal(a)
            off = (np.abs(a - np.diag(diag)) ** 2).sum(axis=0)
            on = weights @ diag[digits].T
            yield np.sqrt(np.abs(on) ** 2 + np.abs(weights) ** 2 @ off[digits].T)

    @cached_property
    def gammas(self) -> dict[int, np.ndarray] | None:
        """{sector: G = sum_k lambda_k u_k u_k^+ over its terms}, in the order
        of ``sectors``, real when Im G = 0; built once, None without sectors."""
        if self.sectors is None:
            return None
        gammas = {k: (w.T * rates) @ w.conj() for k, (rates, w) in self.sectors.items()}
        return {k: g.real if not np.any(g.imag) else g for k, g in gammas.items()}

    @cached_property
    def _q_shifts(self) -> dict[int, int] | None:
        """{sector: s} for the sectors with terms, in the order -1, +1, s
        the fixed amount its cell operator moves Q by (``_q_shift``); None
        unless ``sectors`` exists, the register's cells are qubits and every
        such s exists."""
        if self.sectors is None or self.model.cell_dim != 2:
            return None
        shifts = {k: _q_shift(_sector_cell_op(self.model, k)) for k in self.sectors}
        return None if None in shifts.values() else shifts


def _cell_actions(model: RegisterModel, sector: int, psi: np.ndarray, out=None) -> np.ndarray:
    """X_i = A_i psi for every cell i, (N, D, S) for a (D, S) stack, A the
    sector's cell operator, by digit moves; written to ``out`` when given."""
    moves = _left_moves(_sector_cell_op(model, sector))
    x = np.empty((model.n_cells,) + psi.shape, dtype=complex) if out is None else out
    for i, split in enumerate(_row_splits(model, psi.shape[1])):
        _digit_op(x[i], psi, moves, split, True)
    return x


def _q_shift(a: np.ndarray) -> int | None:
    """The fixed amount a qubit cell operator moves the excitation number
    Q (cells up, level 0) by: -1 for sigma-, +1 for sigma+, 0 for a
    diagonal operator such as sigma_z; None when its entries move Q by
    different amounts (sigma_x) or it has none."""
    shifts = {frm - to for to, frm, _ in _left_moves(a)}
    return shifts.pop() if len(shifts) == 1 else None


def _sector_cell_op(model: RegisterModel, sector: int) -> np.ndarray:
    """The sector's d x d cell operator: A for -1, A^+ for +1."""
    return model.cell_op if sector == SECTOR_MINUS else dag(model.cell_op)


def _row_splits(model: RegisterModel, trailing: int) -> list[tuple[int, int, int]]:
    """Per cell i, the (outer, d, inner) view of an array of d^N * trailing
    entries that puts cell i's tensor digit of the row index in the middle."""
    n, d = model.n_cells, model.cell_dim
    return [(d**i, d, d ** (n - 1 - i) * trailing) for i in range(n)]


def canonical_form(model: RegisterModel, spec: BathSpec) -> LindbladSet:
    """Diagonalize the bath matrices into canonical Lindblad terms.

    For each sector the coefficient matrix is eigendecomposed; every
    eigenpair (lam, u) above the rate cutoff contributes the collective
    operator L = sum_i u_i A_i^sector with rate lam.  Rates within
    floating-point noise of zero are clamped.  The terms carry rate,
    sector, weights and the register; each places its operator the first
    time its ``op`` is read.
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
            terms.append(LindbladTerm(lam, None, sector, v[:, mu].copy(), model))
    return LindbladSet(terms=tuple(terms), model=model, has_lamb_shift=spec.has_lamb_shift)


def lamb_shift(model: RegisterModel, spec: BathSpec) -> np.ndarray:
    """Self-Hamiltonian renormalization from the Delta matrices.

    delta_H = sum_ij (Dm_ij A_i^+ A_j + Dp_ji A_i A_j^+); returns zero when
    the bath carries no Lamb-shift data.  Each term acts on cells i and j
    alone (one cell when i = j), so ``cell_terms`` places it: O(N^2 D) time
    for cell operators with few nonzeros, and one D x D array.
    """
    if not spec.has_lamb_shift:
        return np.zeros((model.dim, model.dim), dtype=complex)
    if spec.n != model.n_cells:
        raise DimensionMismatch("bath size does not match the register")
    a, dp = model.cell_op, spec.delta_plus
    pairs = [(spec.delta_minus, dag(a), a), (None if dp is None else dp.T, a, dag(a))]
    terms = []
    for delta, left, right in (p for p in pairs if p[0] is not None):
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
    """Dense generator of P points with one D and one number K of terms:
    L_p(rho) = -B_p rho - rho B_p^+ + sum_k L_pk rho L_pk^+ with the
    sqrt(rate)-scaled operators stacked, the drifts as (P, 1, 1, D, D) and
    the jump operators as (P, K, 1, D, D); one point keeps (D, D) and
    (K, 1, D, D), which broadcast against a stack with fewer axes.

    ``apply`` maps a point-major (P S, D, D) stack, S states per point (for
    one point also a single D x D state), by one broadcast product per
    factor; each (p, k, s) product and the sum over k round exactly as for
    the state alone on its own point.
    """

    def __init__(self, parts):
        """``parts``: the (H, Lindblad set) of each point."""
        drifts, jumps = zip(*(_dense_parts(h, lindblad) for h, lindblad in parts))
        d, n_points, n_jumps = drifts[0].shape[0], len(parts), len(jumps[0])
        lead = (n_points,) if n_points > 1 else ()
        self.shape = lead + (1, -1, d, d) if lead else (-1, d, d)  # of a stack
        self.drift = np.stack(drifts).reshape(lead + (1, 1, d, d) if lead else (d, d))
        self.drift_dag = self.drift.conj().swapaxes(-1, -2)
        self.jump = np.array(jumps, dtype=complex).reshape(lead + (n_jumps, 1, d, d))
        self.jump_dag = self.jump.conj().swapaxes(-1, -2)
        self.k_axis = len(lead)

    def apply(self, rho: np.ndarray) -> np.ndarray:
        x = rho.reshape(self.shape)
        out = -(self.drift @ x) - x @ self.drift_dag
        if self.jump.shape[self.k_axis]:
            k = self.k_axis
            out += (self.jump @ x @ self.jump_dag).sum(axis=k, keepdims=k > 0)
        return out.reshape(rho.shape)


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


def add_elementwise_rates(
    lindblad: LindbladSet, cell_diag: np.ndarray, out: np.ndarray
) -> None:
    """out += C, the dissipator of a canonical set as an elementwise
    multiplier, for a diagonal cell operator A = diag(cell_diag).

    Then every term is elementwise: C_ab = S_ab - (S_aa + S_bb)/2 with
    S = beta G beta^+ per sector, beta_ai the sector operator's entry
    (A, or A^+ = conj(A) for the plus sector) at cell i's digit of a.
    """
    model = lindblad.model
    digits = cell_digits(model.n_cells, model.cell_dim)
    for sector, g in lindblad.gammas.items():
        w = cell_diag if sector == SECTOR_MINUS else cell_diag.conj()
        beta = w[digits]
        s = beta @ g @ beta.conj().T
        diag = np.diagonal(s)
        out += s - 0.5 * (diag[:, None] + diag[None, :])


def _contract(g: np.ndarray, x: np.ndarray, out: np.ndarray) -> None:
    """out = g @ x for (..., N, L) x; a real g multiplies a complex x's
    interleaved (re, im) view in one real product, a third faster, and a
    real x as it is."""
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
        self.model, self.n, self.dim = model, n, dim
        self.rows = _row_splits(model, dim)
        self.cols = [(dim * d**i, d, d ** (n - 1 - i)) for i in range(n)]
        # Terms applied as one elementwise multiplier: -i[H, rho] when H is
        # diagonal, otherwise the dense commutator with self.h.
        if h_diag is not None:
            self.multiplier, self.h = -1j * (h_diag[:, None] - h_diag[None, :]), None
        else:
            self.multiplier, self.h = np.zeros((dim, dim), dtype=complex), h
        self.sectors = []
        if (cell_diag := exact_diagonal(model.cell_op)) is not None:
            # Diagonal cell operators (sigma_z dephasing): one multiplier.
            add_elementwise_rates(lindblad, cell_diag, self.multiplier)
            return
        for sector, gamma in lindblad.gammas.items():
            a = _sector_cell_op(model, sector)
            moves = {
                "a_dag": _left_moves(dag(a)),
                # also the right action of a^+ on columns: (M @ a^+)[digit p]
                # gets conj(a[p, q]) M[digit q]
                "a_conj": _left_moves(a.conj()),
                "a_t": _left_moves(a.T),
            }
            self.sectors.append((sector, gamma, np.ascontiguousarray(gamma.T), moves))

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
        for sector, gamma, gamma_t, mv in self.sectors:
            _cell_actions(self.model, sector, rho, x)  # X_i = A_i rho
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

    ``full`` holds the flat D x D index of each packed entry, built on
    first use, and ``diagonal`` the packed indices of the diagonal.
    ``excitation_layout`` keeps one, read-only, per N, and with it the
    sandwich tables of each Q shift (``gather_tables``), which depend on
    N alone.  The two index tables are intp, read-only views of writeable
    private bases, which ``pack``, ``unpack`` and ``trace`` index with:
    ``np.take`` copies a read-only index array on every call.
    """

    def __init__(self, n: int):
        self.n, self.dim = n, 2**n
        self.states, self.pos = excitation_sectors(n)
        self.sizes = np.array([len(s) for s in self.states])
        self.offsets = np.concatenate(([0], np.cumsum(self.sizes**2)))
        self.size = int(self.offsets[-1])
        starts = zip(self.offsets, self.sizes)
        self._diagonal = np.concatenate([o + np.arange(m) * (m + 1) for o, m in starts])
        self.diagonal = self._diagonal.view()
        for table in (self.sizes, self.offsets, self.diagonal):
            table.setflags(write=False)
        self._gather: dict[int, tuple] = {}

    @cached_property
    def _full(self) -> np.ndarray:
        rows = np.concatenate([np.repeat(s, len(s)) for s in self.states])
        cols = np.concatenate([np.tile(s, len(s)) for s in self.states])
        return rows * self.dim + cols

    @property
    def full(self) -> np.ndarray:
        view = self._full.view()
        view.setflags(write=False)
        return view

    def pack(self, rho: np.ndarray) -> np.ndarray:
        """The packed blocks of rho (..., D, D); entries off the blocks are
        dropped."""
        flat = rho.reshape(rho.shape[:-2] + (-1,))
        return np.take(flat, self._full, axis=-1)

    def unpack(self, packed: np.ndarray) -> np.ndarray:
        """(..., D, D) matrices with the packed blocks and zeros elsewhere."""
        out = np.zeros(packed.shape[:-1] + (self.dim**2,), dtype=packed.dtype)
        out[..., self._full] = packed
        return out.reshape(packed.shape[:-1] + (self.dim, self.dim))

    def blocks(self, packed: np.ndarray) -> list[np.ndarray]:
        """Views of the q = 0..N blocks of a packed array."""
        lead = packed.shape[:-1]
        return [
            packed[..., o : o + m * m].reshape(lead + (m, m))
            for o, m in zip(self.offsets, self.sizes)
        ]

    def trace(self, packed: np.ndarray) -> np.ndarray:
        return np.take(packed, self._diagonal, axis=-1).sum(axis=-1)

    def adjoint(self, packed: np.ndarray, out: np.ndarray) -> None:
        """out = the packed conjugate transpose of packed, block by block
        (the transpose of a real one)."""
        for block, o in zip(self.blocks(packed), self.blocks(out)):
            np.copyto(o, block.swapaxes(-1, -2))
        if np.iscomplexobj(out):
            np.conjugate(out, out=out)

    def move_blocks(self, a: np.ndarray, s: int):
        """The blocks X_i of a qubit cell operator a on each cell i, for an
        a that moves Q by s: per q it maps from, in ascending order, (q, X)
        with X the (N, C(N, q + s), C(N, q)) blocks from S_q to S_{q+s},
        placed from a's digit moves; yielded one q at a time, so one X is
        held, and no D x D operator is placed."""
        n, states, pos = self.n, self.states, self.pos
        bits, moves = place_values(n), _left_moves(a)
        for q in range(max(0, -s), min(n, n - s) + 1):
            src = states[q]
            x = np.zeros((n, len(states[q + s]), len(src)), dtype=complex)
            level = (src & bits[:, None]) != 0  # (cell, column)
            for to, frm, c in moves:
                cell, col = np.nonzero(level == frm)
                x[cell, pos[src[col] + (to - frm) * bits[cell]], col] = c
            yield q, x

    def moves(self, s: int) -> list[tuple]:
        """Gather tables of the sandwich sum_ij G_ij A_i rho A_j^+ for a
        qubit cell operator A that takes one digit (the source) to the other
        (the target) with coefficient 1 and so moves Q by s: -1 for sigma-,
        +1 for sigma+, one entry per chunk of rows (``row_chunks``).

        X_i = A_i rho lives in the half-sector of s: the blocks (q + s, q),
        packed by q like rho.  Row a' of X_i reads only rho's row
        src_i(a'), and row a' of output block q + s reads only row a' of
        each Y_j = sum_i G_ij X_i, so each chunk of consecutive rows (L
        entries) gathers, contracts and sums back by itself, into one
        contiguous run of the output.  Per chunk: ``x`` (N, L), which
        gathers its X_i from rho's M packed entries (index M reads a zero),
        and the term table of Y_j A_j^+ from the chunk's Y, an (N, L) array
        flattened, as ``(gather, segments)``: within a block every entry has
        the same number c of nonzero terms (the cells of its column state in
        the target digit), so the r rows of output block q + s in the chunk
        form a (c, r, n_{q+s}) array at ``gather[v:v + c * size]``, and
        ``segments`` lists (v, c, offset, size) per piece, size = r
        n_{q+s}.  The tables are int32, which holds every index up to
        N = 16; O(N C(2N, N)) work.
        """
        n, m, sizes, pos, offsets = self.n, self.size, self.sizes, self.pos, self.offsets
        bits = place_values(n)
        target = 1 if s < 0 else 0  # digit 1 is down
        out = []
        for pieces in row_chunks(n, s, SANDWICH_CHUNK_ENTRIES):
            width = sum((end - row) * int(sizes[q]) for q, row, end in pieces)
            x = np.empty((n, width), dtype=np.int32)
            gather, segments, e = [], [], 0
            for q, row, end in pieces:
                w, k = int(sizes[q]), q + s  # output block k, rows S_k[row:end]
                rows = self.states[k][row:end]
                span = slice(e, e + len(rows) * w)
                # X_i[a', b] = rho[src_i(a'), b] for a' in S_k with cell i in
                # the target digit
                at = (((rows[None, :] & bits[:, None]) != 0) == target)[:, :, None]
                src = pos[rows[None, :] ^ bits[:, None]][:, :, None]
                x[:, span] = np.where(at, offsets[q] + src * w + np.arange(w), m).reshape(n, -1)
                # (Y_j A_j^+)[a', b'] = Y_j[a', src_j(b')] over the c cells j
                # of b' in S_k in the target digit
                states = self.states[k]
                cell = np.nonzero(((states[:, None] & bits) != 0) == target)[1]
                cell = cell.reshape(len(states), -1).T
                moved = cell * width + pos[states ^ bits[cell]]
                fixed = e + np.arange(len(rows)) * w
                table = moved[:, None, :] + fixed[:, None]
                v = sum(g.size for g in gather)
                start = int(offsets[k]) + row * len(states)
                segments.append((v, len(cell), start, table[0].size))
                gather.append(table.ravel().astype(np.int32))
                e = span.stop
            out.append((x, (np.concatenate(gather), segments)))
        return out

    def gather_tables(self, s: int) -> list[tuple]:
        """``moves(s)``, built on first use and kept with the layout: every
        block form of these N qubits shares them, and none writes them.
        They are int32, half the bytes of intp, so each ``np.take`` casts
        its table to intp (one chunk's table at a time); they stay writeable
        because ``np.take`` would copy a read-only index array as well."""
        if s not in self._gather:
            self._gather[s] = self.moves(s)
        return self._gather[s]


@lru_cache(maxsize=16)
def row_chunks(n: int, s: int, entries: int) -> tuple:
    """The rows of the half-sector blocks (q + s, q) of n qubits, in packed
    order, cut into chunks of consecutive rows: per chunk its pieces
    (q, first row, end row), one per block it touches.  A chunk holds at
    most entries / N entries of a block's rows, or one row when that is
    longer; the chunks have about equal width.  Callers pass
    SANDWICH_CHUNK_ENTRIES; the chunks are pure Python over every row, so
    they are built once per (n, s, entries) and shared, as tuples."""
    sizes = [comb(n, q) for q in range(n + 1)]
    kept = [q for q in range(n + 1) if 0 <= q + s <= n]
    limit = max(entries // n, 1)
    total = sum(sizes[q + s] * sizes[q] for q in kept)
    target = -(-total // -(-total // limit))  # total over the chunk count
    chunks, width = [[]], 0
    for q in kept:
        for row in range(sizes[q + s]):
            if width >= target or (width and width + sizes[q] > limit):
                chunks.append([])
                width = 0
            pieces = chunks[-1]
            if pieces and pieces[-1][0] == q:
                pieces[-1] = (q, pieces[-1][1], row + 1)
            else:
                pieces.append((q, row, row + 1))
            width += sizes[q]
    return tuple(map(tuple, chunks))


def block_buffers(n: int, shifts, n_states: int) -> dict[str, tuple]:
    """The shapes of the buffers the block stepper keeps for a run
    of n_states states (``_BlockForm.stepper``), from N and the Q shifts s
    of the sectors with terms alone: the state with a trailing zero entry,
    one scratch of the largest block, and, with terms, the sandwich's X_i
    and Y_j (N L entries of the widest chunk) and its gathered terms (the
    most c r C(N, q + s) of a chunk, c the cells of an output column in
    the target digit: N - q - s for s < 0, q + s for s > 0)."""
    size = comb(2 * n, n)
    out = {"src": (n_states, size + 1), "block": (n_states, comb(n, n // 2) ** 2)}
    chunks = [(s, p) for s in shifts for p in row_chunks(n, s, SANDWICH_CHUNK_ENTRIES)]
    if chunks:
        x = max(n * sum((end - row) * comb(n, q) for q, row, end in p) for _, p in chunks)
        # c r C(N, k) per piece of output block k = q + s
        terms = max(
            sum((n - q - s if s < 0 else q + s) * (end - row) * comb(n, q + s) for q, row, end in p)
            for s, p in chunks
        )
        out.update(x=(n_states * x,), y=(n_states * x,), terms=(n_states * terms,))
    return out


def drift_blocks(h_blocks, lindblad: LindbladSet, layout: ExcitationBlocks) -> list:
    """The blocks B_q, q = 0..N, of the drift

        B = iH + sum_k lambda_k L_k^+ L_k / 2 = iH + sum_ij G_ij A_j^+ A_i / 2

    summed over the sectors of a set with ``_q_shifts`` (G per sector from
    ``LindbladSet.gammas``, A its qubit cell operator), as views of one
    complex array packed on ``layout``; iH_q comes from H's packed blocks
    ``h_blocks``, and with h_blocks None the drift is dissipative alone.

    A qubit cell operator with a fixed Q shift has one nonzero entry, or
    is diagonal (sigma_z), so A^+A is diagonal and the i = j terms add
    the occupations times diag(G) to the diagonal.  For i != j a pair of
    digit moves, A's on cell i and A^+'s on cell j, takes a basis state b
    with cell i in A's source digit and cell j in its target digit to one
    b': a one-excitation hop, or b itself when A is diagonal.  The hops of
    a sector land on distinct entries, so each sector is one vectorized
    scatter over all (b, i, j): O(N^2 D) work, and no term block or D x D
    operator is placed.
    """
    n, pos = layout.n, layout.pos
    bits = place_values(n)
    basis = np.concatenate(layout.states)  # the rows in packed order
    level = ((basis[:, None] & bits) != 0).astype(np.int8)  # (D, N) cell digits
    q = np.repeat(np.arange(n + 1), layout.sizes)
    start = np.empty_like(pos)  # packed index of the first entry of row b
    start[basis] = layout.offsets[q] + pos[basis] * layout.sizes[q]
    if h_blocks is None:
        packed = np.zeros(layout.size, dtype=complex)
    else:
        packed = np.multiply(h_blocks, 1j)
    diag = np.zeros(len(basis), dtype=complex)
    off = ~np.eye(n, dtype=bool)
    for sector, g in lindblad.gammas.items():
        a = _sector_cell_op(lindblad.model, sector)
        diag += np.diagonal(dag(a) @ a)[level] @ np.diagonal(g)
        for (ti, fi, ci), (tj, fj, cj) in product(_left_moves(a), repeat=2):
            hit = (level[:, :, None] == fi) & (level[:, None, :] == tj) & off
            w = (ci * np.conj(cj)) * g
            if ti == fi:  # diagonal A: b' = b
                diag += hit.reshape(len(basis), -1) @ w.ravel()
                continue
            b, i, j = np.nonzero(hit)
            moved = basis[b] + (ti - fi) * bits[i] + (fj - tj) * bits[j]
            packed[start[moved] + pos[basis[b]]] += 0.5 * w[i, j]
    packed[layout.diagonal] += 0.5 * diag
    return layout.blocks(packed)


@lru_cache(maxsize=4)
def excitation_layout(n: int) -> ExcitationBlocks:
    """The ``ExcitationBlocks`` of n qubits, built once per n and shared."""
    return ExcitationBlocks(n)


class _BlockForm:
    """The generator on excitation blocks (``dynamics.plan``'s ``blocks``):

        L(rho) = -B rho - rho B^+ + sum_ij G_ij A_i rho A_j^+ per sector,

    with A the sector's cell operator, G = sum_k lambda_k u_k u_k^+ over
    its terms, and the drift B = iH + sum_k lambda_k L_k^+ L_k / 2 summed
    over the sectors.  Like H, each L_k^+ L_k conserves Q, so B is built as
    its blocks (``drift_blocks``, as the exact solver's sector generator
    builds it); the sandwich is a gather between packed blocks.  Both are
    ready on first use (``_tables``): the drift built for this form, the
    gather tables the layout's own (``ExcitationBlocks.gather_tables``).

    ``apply`` maps an (S, M) stack of packed states, each row bitwise as
    it is alone, into an output stack through buffers ``stepper`` builds
    once for the run, so no call allocates a stack-sized array; the
    sandwich streams through them one chunk of rows at a time.  ``pack``
    (which takes state vectors without forming their D x D), ``stepper``,
    ``trace``, ``adjoint`` and ``layout``, on which the stepper checks
    snapshots and hands them to the sink packed, are the stack the RK4
    stepper runs on.

    ``dtype`` is complex, or float for a run ``dynamics.plan`` finds real:
    real states, every G real and H_q = c_q I in every block, so that iH_q
    cancels in -B_q rho_q - rho_q B_q^+ and L maps real states to real
    ones.  Then the drift is built without H, and the packed states, the
    drift and every buffer are float64: the same code on half the bytes.
    """

    form = "blocks"

    def __init__(self, liouv: Liouvillian, dtype=complex):
        self.layout = layout = excitation_layout(liouv.lindblad.model.n_cells)
        self.liouv, self.lindblad, self.dtype = liouv, liouv.lindblad, np.dtype(dtype)
        self.trace, self.adjoint = layout.trace, layout.adjoint

    @cached_property
    def _tables(self):
        """(drift, sectors): (B_q, B_q^+) for q = 0..N, and per sector with
        terms (its Q shift s from ``LindbladSet._q_shifts``, |c|^2 G^T and
        the gather tables of s, which move entries of 1: c is the cell
        operator's one entry, 1 for sigma-+); a real form's drift holds no H."""
        layout, shifts, real = self.layout, self.lindblad._q_shifts, self.dtype == float
        drift = drift_blocks(None if real else self.liouv.hamiltonian_blocks, self.lindblad, layout)
        if real:  # copies: a view would keep the complex array alive
            drift = [b.real.copy() for b in drift]
        weight = float(np.sum(np.abs(self.lindblad.model.cell_op) ** 2))  # |c|^2
        return (
            [(b, dag(b)) for b in drift],
            [
                (shifts[k], np.ascontiguousarray(g.T) * weight, layout.gather_tables(shifts[k]))
                for k, g in self.lindblad.gammas.items()
            ],
        )

    def pack(self, states) -> np.ndarray:
        """The (S, M) packed stack of the block-diagonal states, each a D x D
        matrix or a state vector psi.  A vector's blocks are psi_q psi_q^+,
        psi_q its entries on S_q: the products of the D x D outer product,
        so the stack is bitwise the same, but that matrix is never formed.
        A real form packs the states' real parts with every zero +0.0, so a
        vector and its D x D matrix, whose real parts may differ in the sign
        of a zero, still pack to the same bits."""
        layout, real = self.layout, self.dtype == float
        packed = np.empty((len(states), layout.size), dtype=self.dtype)
        for row, state in zip(packed, states):
            state = state.real if real else state
            if state.ndim == 2:
                row[:] = layout.pack(state)
            else:
                for block, sq in zip(layout.blocks(row), layout.states):
                    psi = state[sq]
                    np.multiply(psi[:, None], psi.conj()[None, :], out=block)
            if real:
                row += 0.0  # -0.0 + 0.0 = +0.0; every other entry is kept
        return packed

    def stepper(self, rho):
        """(f, out, out2) for the RK4 stepper: f(x, out) = L(x) written to
        out, one of the two output stacks of rho's shape, through one set
        of buffers kept for the run.

        The buffers (``block_buffers``) are the state with a trailing zero
        entry, one scratch of the largest block, and the sandwich's X_i,
        Y_j and gathered terms, sized for the largest chunk of either
        sector: about 3 SANDWICH_CHUNK_ENTRIES entries per state, whatever
        N."""
        shifts = [s for s, _, _ in self._tables[1]]  # tables built first
        shapes = block_buffers(self.layout.n, shifts, rho.shape[0])
        work = {k: np.zeros(shape, dtype=self.dtype) for k, shape in shapes.items()}
        f = lambda x, out: self.apply(x, out, work)  # noqa: E731
        return f, np.empty_like(rho), np.empty_like(rho)

    def apply(self, rho: np.ndarray, out: np.ndarray, work: dict) -> np.ndarray:
        """L(rho) for the (S, M) stack rho, into ``out``, through the
        buffers ``work`` that ``stepper`` builds for S states.  The sandwich
        runs one chunk of rows at a time (``ExcitationBlocks.moves``), each
        added to its own run of ``out``."""
        layout = self.layout
        n_states, m = rho.shape[0], layout.size
        scratch = work["block"]
        drift, sectors = self._tables
        for (b, b_dag), r, o in zip(drift, layout.blocks(rho), layout.blocks(out)):
            np.matmul(b, r, out=o)
            np.negative(o, out=o)
            right = scratch[:, : r[0].size].reshape(r.shape)
            np.matmul(r, b_dag, out=right)
            o -= right  # -(B rho) - rho B^+
        if not sectors:
            return out
        src = work["src"]
        src[:, :m] = rho
        for _, gamma_t, chunks in sectors:
            for x_at, (gather, segments) in chunks:
                shape = (n_states,) + x_at.shape
                x = work["x"][: x_at.size * n_states].reshape(shape)
                y = work["y"][: x_at.size * n_states].reshape(shape)
                # mode="wrap" lets take write straight into out (the default
                # "raise" buffers it); every index is in range
                np.take(src, x_at, axis=1, out=x, mode="wrap")
                _contract(gamma_t, x, y)  # Y_j = sum_i G_ij X_i
                terms = work["terms"][: gather.size * n_states].reshape(n_states, -1)
                np.take(y.reshape(n_states, -1), gather, axis=1, out=terms, mode="wrap")
                for v, c, o, size in segments:  # Y_j A_j^+, summed per entry
                    part = scratch[:, :size]
                    np.sum(terms[:, v : v + c * size].reshape(n_states, c, size), axis=1, out=part)
                    out[:, o : o + size] += part
        return out


@dataclass(frozen=True)
class Liouvillian:
    """Immutable generator: renormalized Hamiltonian plus Lindblad terms.

    ``apply`` uses the structured Gamma form for a Lindblad set for which
    ``LindbladSet.structured`` holds (from ``canonical_form``,
    D >= STRUCTURED_MIN_DIM) and the stacked dense operators for any other
    set, the predicate read when the form is built, on the first
    ``apply``, after ``check_budget`` has passed its ``form_bytes``, so
    callers that never apply (the block stepper, the exact solver,
    ``codes``, ``dephasing_solve``) place no D x D operator for it.  Which
    form a solver run takes is ``dynamics.plan``'s rule.
    ``stability_scale``, the largest rate plus the spectral radius of H,
    is computed on first read (an ``eigvalsh`` unless H is diagonal: of
    each Q block when H keeps Q, else dense).
    """

    hamiltonian: np.ndarray
    lindblad: LindbladSet
    dim: int = field(init=False)
    # H's diagonal, or None when H has an entry off it; found once, at build
    hamiltonian_diagonal: np.ndarray | None = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        h = np.asarray(self.hamiltonian, dtype=complex)
        if h.ndim != 2 or h.shape[0] != h.shape[1]:
            raise DimensionMismatch(f"Hamiltonian must be square, got {h.shape}")
        diagonal = exact_diagonal(h)
        if diagonal is None:
            hermitian = is_hermitian(h, rtol=1e-10)
        else:  # ||H - H^+||_F = 2 ||Im diag H||, with no D x D temporary
            hermitian = 2 * frob(diagonal.imag) <= 1e-10 * frob(diagonal)
        if not hermitian:
            raise NotHermitian("Hamiltonian must be Hermitian")
        d = h.shape[0]
        object.__setattr__(self, "hamiltonian", h)
        object.__setattr__(self, "dim", d)
        object.__setattr__(self, "hamiltonian_diagonal", diagonal)
        if any(t.dim != d for t in self.lindblad):
            raise DimensionMismatch("Lindblad operator size mismatch")
        if self.lindblad.structured and self.lindblad.model.dim != d:
            raise DimensionMismatch("Lindblad set and Hamiltonian sizes differ")

    @cached_property
    def stability_scale(self) -> float:
        """The largest rate plus the spectral radius of H: from H's
        diagonal when H is diagonal; from ``eigvalsh`` of each block of
        ``hamiltonian_blocks`` when the set's cell operators move Q by fixed
        amounts (``LindbladSet._q_shifts``) and H keeps Q, since a
        block-diagonal H's spectrum is the union of its blocks'; otherwise
        from one dense ``eigvalsh``."""
        lindblad, energies = self.lindblad, self.hamiltonian_diagonal
        if energies is not None:
            radius = float(np.abs(energies).max(initial=0.0))
        elif (
            lindblad._q_shifts is not None
            and lindblad.model.dim == self.dim
            and self.hamiltonian_keeps_q
        ):
            blocks = excitation_layout(lindblad.model.n_cells).blocks(self.hamiltonian_blocks)
            radius = max(float(np.abs(np.linalg.eigvalsh(b)).max()) for b in blocks)
        else:
            radius = float(np.abs(np.linalg.eigvalsh(self.hamiltonian)).max(initial=0.0))
        return lindblad.max_rate() + radius

    @cached_property
    def hamiltonian_keeps_q(self) -> bool:
        """Whether H, of N qubits with D = 2^N, has no entry between
        different excitation numbers Q: true for a diagonal H, else one
        ``_on_blocks`` count (no pack), found once per generator."""
        n = self.dim.bit_length() - 1
        return self.hamiltonian_diagonal is not None or _on_blocks(self.hamiltonian, n)

    @cached_property
    def hamiltonian_blocks(self) -> np.ndarray:
        """H's blocks packed on ``excitation_layout(N)``, D = 2^N: built on
        first read and kept, so the drift (``drift_blocks``), the energy
        of packed snapshots and ``stability_scale`` pack H once per
        generator."""
        return excitation_layout(self.dim.bit_length() - 1).pack(self.hamiltonian)

    @cached_property
    def _form(self) -> _DenseForm | _GammaForm:
        need = form_bytes(self.lindblad, self.dim)
        check_budget(need, f"generator form for D = {self.dim} needs")
        h = self.hamiltonian
        if self.lindblad.structured:
            return _GammaForm(self.lindblad.model, self.lindblad, h, self.hamiltonian_diagonal)
        return _DenseForm([(h, self.lindblad)])

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


def form_bytes(lindblad: LindbladSet, dim: int, n_states: int = 1) -> int:
    """Estimated peak bytes of the form ``Liouvillian.apply`` builds for
    ``lindblad`` on D = dim and one apply to a stack of n_states states.

    Counts D x D complex matrices.  Gamma form: its elementwise multiplier,
    a result per state, and for the state it applies to, one at a time,
    two N x D^2 buffers and six D x D arrays (transposed state, the two
    halves of the anticommutator, the commutator's products); it builds no
    Lindblad operator.  Dense form:
    the K operators (cached on the terms), the drift, the jump stack and
    their adjoints, and per state the 2K sandwich products and four D x D
    temporaries.  Measured at N = 6-9, the tracemalloc peak of the form's
    build and one apply is 0.88-0.98 times this.
    """
    matrix = 16 * dim * dim
    if lindblad.structured:
        return (2 * lindblad.model.n_cells + 7 + n_states) * matrix
    k = len(lindblad)
    return (3 + 3 * k + n_states * (2 * k + 4)) * matrix


def build_bytes(model: RegisterModel) -> int:
    """Estimated peak bytes of ``build_liouvillian``: the Hamiltonian, its
    Hermiticity check and a Lamb shift or interaction term, three D x D
    complex arrays, plus 256 KiB and 128 bytes per basis state for the
    canonical form and the digit tables (measured 3 D x D plus 140-190 KiB
    at N = 8-11).  It reads n alone."""
    return 3 * 16 * model.dim**2 + 128 * model.dim + 2**18


def rates_bytes(model: RegisterModel, spec: BathSpec | None, states, ring: bool = False) -> int:
    """Estimated peak bytes of the first-order decoherence rates of the
    initial states ``states`` (entries of ``register.named_state``) on
    ``canonical_form(model, spec)``: building them and, when ``ring``, a
    Heisenberg ring interaction (``register.setup_bytes``), their vectors
    held at once, the rates of their (D, S) stack, by
    ``pure_decoherence_rate`` or the covariance route of
    ``expcli.run_tau_sweep``, the basis tables state builders leave cached
    (``cell_digits``, 2 N D bytes, and ``excitation_sectors``, 16 D bytes),
    and 32 KiB for the covariances, the bath matrices, the canonical terms
    and the run's provenance.

    Each sector with a nonzero bath matrix has at most N terms (exactly N
    when the matrix has full rank), counted without diagonalizing it.  A
    structured set holds, per state, the N cell actions of one sector and
    three copies of the state (the caller's vector, the stack and its
    contiguous copy), plus the two chunk buffers of the cell covariance
    (COVARIANCE_CHUNK_ENTRIES entries each, fewer for a smaller stack) and
    four vectors of digit tables and numpy temporaries (measured at
    N = 6-12, 1-4 states).  A smaller set takes the states one at a time
    and builds its K operators instead (measured at N = 2-5).  With
    ``spec`` None no term is counted: a lower bound for every bath.
    """
    n, n_states, vector = model.n_cells, len(states), 16 * model.dim
    gammas = () if spec is None else (spec.gamma_minus, spec.gamma_plus)
    terms = n * sum(bool(np.any(g)) for g in gammas)
    if model.dim < STRUCTURED_MIN_DIM:
        need = (n_states + 2 * terms + 3 + terms * model.dim) * vector
    elif terms:
        rows = (n + 1) * n_states
        chunk = min(max(COVARIANCE_CHUNK_ENTRIES, rows), rows * model.dim)
        need = (n_states * (n + 3) + 4) * vector + 2 * 16 * chunk
    else:
        need = (3 * n_states + 4) * vector
    tables = (2 * n + 16) * model.dim
    return need + tables + 2**15 + setup_bytes(n, ring, states)


def check_budget(need: int, what: str) -> None:
    """Raise TooLarge, "the <what> about X GiB, over the 2 GiB limit", when
    ``need`` bytes, a Python int of any size, exceed GENERATOR_MAX_BYTES.
    The one comparison: the estimates come from ``build_bytes``,
    ``form_bytes``, ``dynamics.plan``, ``codes.code_bytes``, ``rates_bytes``
    and ``register.setup_bytes``."""
    if need > GENERATOR_MAX_BYTES:
        raise TooLarge(
            f"the {what} about {Decimal(need) / 2**30:.3g} GiB, "
            f"over the {GENERATOR_MAX_BYTES // 2**30} GiB limit"
        )


def build_liouvillian(model: RegisterModel, spec: BathSpec) -> Liouvillian:
    """Assemble the full generator for a register-bath pair: the canonical
    terms and the renormalized Hamiltonian.

    Raises TooLarge, before allocating, when ``build_bytes`` exceeds
    GENERATOR_MAX_BYTES (``check_budget``).  It guards only what it builds:
    the form ``apply`` uses and every solver run are sized when they are
    made (``Liouvillian._form``, ``dynamics.plan``).
    """
    check_budget(build_bytes(model), f"generator for {model.n_cells} cells needs")
    lindblad = canonical_form(model, spec)
    h = register_hamiltonian(model)
    if spec.has_lamb_shift:
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
    a = [embed_cell_op(model, i) for i in range(model.n_cells)]
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
