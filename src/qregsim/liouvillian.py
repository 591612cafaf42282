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
never ``apply``.  ``Liouvillian.block_layout`` is the one rule for whether
a generator keeps states block-diagonal in the excitation number Q (cells
up); such states take C(2N, N) of the 4^N entries (``ExcitationBlocks``,
one per N from ``excitation_layout``), 19.6 % at N = 8.  For sigma- cells
and ``Liouvillian.structured``, ``excitation_form`` steps them on
-B rho - rho B^+ plus, per sector, the sandwich sum_ij G_ij A_i rho A_j^+;
the caller keeps the Gamma or dense form for the other states.  The drift
B = iH + sum_ij G_ij A_j^+ A_i / 2 conserves Q like H, so it is placed
once (D x D, by ``cell_terms``) and kept as its C(N, q) x C(N, q) blocks;
the sandwich is a gather from the C(N, q) to the C(N, q -/+ 1) bases, one
(N x N)(N x sum_q n_{q-/+1} n_q) product and a gathered sum back, per
sector.  The drift is built on the form's first use, never by
``build_liouvillian``; the index tables depend on N alone and are kept with
the layout (``ExcitationBlocks.gather_tables``).

All forms hold the same terms, so cutoff, clamping and rates agree; the
Gamma and block forms build their per-sector G from the term weights.
Terms from ``canonical_form`` carry rate, sector and weights; a term
places its D x D operator with ``register.collective_op`` only when its
``op`` is first read (the dense path, ``codes.is_noiseless``, codes of
sets without excitation blocks, small-register rates).  One predicate,
``LindbladSet.structured``, selects the Gamma form here and the weight
route of pure-state rates, ``LindbladSet.sector_actions``.  Null codes of
canonical qubit sets and the exact solver's sector generator come from
``LindbladSet.excitation_blocks``: each sector's term blocks between
excitation sectors, from the weights.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache

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
    collective_op,
    embed_cell_op,
    excitation_numbers,
    excitation_sectors,
    place_values,
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
        applies it in the Gamma form and ``sector_actions`` works cell by
        cell."""
        return (
            self.model is not None
            and self.model.dim >= STRUCTURED_MIN_DIM
            and all(t.weights is not None for t in self.terms)
        )

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
        for sector in (SECTOR_MINUS, SECTOR_PLUS):
            terms = [t for t in self.terms if t.sector == sector]
            if terms:
                weights = np.array([t.weights for t in terms])
                lpsi = weights @ _cell_actions(self.model, sector, psi).reshape(n, -1)
                yield np.array([t.rate for t in terms]), lpsi.reshape((len(terms),) + psi.shape)

    def _q_shifts(self) -> dict[int, int] | None:
        """{sector: s} for the sectors with terms, in the order -1, +1, s
        the fixed amount its cell operator moves Q by (``_q_shift``); None
        unless the set names a qubit register, every term carries weights
        and every such s exists."""
        model = self.model
        if model is None or model.cell_dim != 2 or any(t.weights is None for t in self):
            return None
        shifts = {k: _q_shift(_sector_cell_op(model, k)) for k in sorted({t.sector for t in self})}
        return None if None in shifts.values() else shifts

    def excitation_blocks(self) -> dict[int, tuple] | None:
        """The terms' operators as their blocks between excitation sectors,
        or None when ``_q_shifts`` is None.

        Q counts the cells up (digit 0) and S_q is the set of basis states
        with Q = q, in ascending order.  Per sector with terms, in the
        order -1, +1: (s, rates, blocks), its shift, its K terms' rates in
        the set's order and, for each q the terms map from, the
        (K, C(N, q + s), C(N, q)) stack of their blocks from S_q to
        S_{q+s}.  The blocks of all cells, X_i, come from the cell
        operator's digit moves on S_q, and the terms take theirs as one
        weights product, so no D x D operator is placed.
        """
        shifts = self._q_shifts()
        if shifts is None:
            return None
        n = self.model.n_cells
        states, pos = excitation_sectors(n)
        bits = place_values(n)
        out = {}
        for sector, s in shifts.items():
            moves = _left_moves(_sector_cell_op(self.model, sector))
            terms = [t for t in self.terms if t.sector == sector]
            weights = np.array([t.weights for t in terms])
            blocks = {}
            for q in range(max(0, -s), min(n, n - s) + 1):
                src, size = states[q], (len(states[q + s]), len(states[q]))
                x = np.zeros((n,) + size, dtype=complex)
                level = (src & bits[:, None]) != 0  # (cell, column)
                for to, frm, c in moves:
                    cell, col = np.nonzero(level == frm)
                    x[cell, pos[src[col] + (to - frm) * bits[cell]], col] = c
                blocks[q] = (weights @ x.reshape(n, -1)).reshape((len(terms),) + size)
            out[sector] = (s, np.array([t.rate for t in terms]), blocks)
        return out


def _cell_actions(model: RegisterModel, sector: int, psi: np.ndarray) -> np.ndarray:
    """X_i = A_i psi for every cell i, (N, D, S) for a (D, S) stack, A the
    sector's cell operator, by digit moves."""
    moves = _left_moves(_sector_cell_op(model, sector))
    x = np.empty((model.n_cells,) + psi.shape, dtype=complex)
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
    return LindbladSet(terms=tuple(terms), model=model)


def lamb_shift(model: RegisterModel, spec: BathSpec) -> np.ndarray:
    """Self-Hamiltonian renormalization from the Delta matrices.

    delta_H = sum_ij (Dm_ij A_i^+ A_j + Dp_ji A_i A_j^+); returns zero when
    the bath carries no Lamb-shift data.
    """
    if not spec.has_lamb_shift:
        return np.zeros((model.dim, model.dim), dtype=complex)
    if spec.n != model.n_cells:
        raise DimensionMismatch("bath size does not match the register")
    a, dp = model.cell_op, spec.delta_plus
    pairs = [(spec.delta_minus, dag(a), a), (None if dp is None else dp.T, a, dag(a))]
    return _place_pairs(model, [p for p in pairs if p[0] is not None])


def _place_pairs(model: RegisterModel, pairs) -> np.ndarray:
    """The D x D sum over (delta, left, right) of sum_ij delta_ij
    left_i right_j, left and right d x d cell operators.  Each term acts on
    cells i and j alone (one cell when i = j), so ``cell_terms`` places it:
    O(N^2 D) time for cell operators with few nonzeros, and one D x D array.
    """
    terms = []
    for delta, left, right in pairs:
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


def _sector_gammas(lindblad: LindbladSet) -> list[tuple[int, np.ndarray]]:
    """(sector, G) for each sector with terms, G = sum_k lambda_k u_k u_k^+
    over its terms; real when its imaginary part is zero."""
    out = []
    for sector in (SECTOR_MINUS, SECTOR_PLUS):
        terms = [t for t in lindblad if t.sector == sector]
        if terms:
            g = sum(t.rate * np.outer(t.weights, t.weights.conj()) for t in terms)
            out.append((sector, g.real if not np.any(g.imag) else g))
    return out


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
    for sector, g in _sector_gammas(lindblad):
        w = cell_diag if sector == SECTOR_MINUS else cell_diag.conj()
        beta = w[digits]
        s = beta @ g @ beta.conj().T
        diag = np.diagonal(s)
        out += s - 0.5 * (diag[:, None] + diag[None, :])


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
        cell = model.cell_op
        self.sectors = []
        if np.count_nonzero(cell) == np.count_nonzero(np.diagonal(cell)):
            # Diagonal cell operators (sigma_z dephasing): one multiplier.
            add_elementwise_rates(lindblad, np.diagonal(cell), self.multiplier)
            return
        for sector, gamma in _sector_gammas(lindblad):
            a = _sector_cell_op(model, sector)
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

    ``full`` holds the flat D x D index of each packed entry and
    ``diagonal`` the packed indices of the diagonal.  ``excitation_layout``
    keeps one, read-only, per N, and with it the sandwich tables of each Q
    shift (``gather_tables``), which depend on N alone.  The two index
    tables are read-only views of writeable private bases, which ``pack``,
    ``unpack`` and ``trace`` index with: ``np.take`` copies a read-only
    index array on every call.
    """

    def __init__(self, n: int):
        dim = 2**n
        self.n, self.dim = n, dim
        up = excitation_numbers(n)
        self.sizes = np.bincount(up, minlength=n + 1)
        self.states, self.pos = excitation_sectors(n)
        self.offsets = np.concatenate(([0], np.cumsum(self.sizes**2)))
        self.size = int(self.offsets[-1])
        rows = np.concatenate([np.repeat(s, len(s)) for s in self.states])
        cols = np.concatenate([np.tile(s, len(s)) for s in self.states])
        self._full = rows * dim + cols
        self._diagonal = np.flatnonzero(rows == cols)
        self.full, self.diagonal = self._full.view(), self._diagonal.view()
        for table in (self.sizes, self.offsets, self.full, self.diagonal):
            table.setflags(write=False)
        self._gather: dict[int, tuple] = {}

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

    def is_block_diagonal(self, rho: np.ndarray) -> bool:
        """Whether every entry of rho between different Q is exactly zero."""
        return np.count_nonzero(rho) == np.count_nonzero(self.pack(rho))

    def trace(self, packed: np.ndarray) -> np.ndarray:
        return np.take(packed, self._diagonal, axis=-1).sum(axis=-1)

    def adjoint(self, packed: np.ndarray, out: np.ndarray) -> None:
        """out = the packed conjugate transpose of packed, block by block."""
        for block, o in zip(self.blocks(packed), self.blocks(out)):
            np.copyto(o, block.swapaxes(-1, -2))
        np.conjugate(out, out=out)

    def moves(self, s: int):
        """Gather tables of the sandwich sum_ij G_ij A_i rho A_j^+ for a
        qubit cell operator A that takes one digit (the source) to the other
        (the target) with coefficient 1 and so moves Q by s: -1 for sigma-,
        +1 for sigma+.

        X_i = A_i rho lives in the half-sector of s: the blocks (q + s, q),
        packed by q like rho, P entries.  Returns ``x`` (N, P), which
        gathers X_i from rho's M packed entries (index M reads a zero), and
        the term table of Y_j A_j^+ from Y, an (N, P) array flattened.  The
        table is ``(gather, segments)``: within a block every entry has the
        same number c of nonzero terms (the cells of its column state in the
        target digit), so block q's terms form a (c, n_q, n_q) array at
        ``gather[v:v + c * n_q^2]``, and ``segments`` lists
        (v, c, offset, n_q^2) per block with c > 0.  O(N C(2N, N)) work.
        """
        n, m, sizes, pos = self.n, self.size, self.sizes, self.pos
        bits = place_values(n)
        target = 1 if s < 0 else 0  # digit 1 is down
        kept = [q for q in range(n + 1) if 0 <= q + s <= n]
        h_off = np.zeros(n + 2, dtype=np.intp)
        for q in kept:
            h_off[q + 1] = sizes[q + s] * sizes[q]
        h_off = np.cumsum(h_off)
        p = int(h_off[-1])
        x = np.empty((n, p), dtype=np.intp)
        for q in kept:
            # X_i[a', b] = rho[src_i(a'), b] for a' in S_{q+s} with cell i in
            # the target digit
            rows = self.states[q + s][None, :]
            at = (((rows & bits[:, None]) != 0) == target)[:, :, None]
            src = pos[rows ^ bits[:, None]][:, :, None]
            x[:, h_off[q] : h_off[q + 1]] = np.where(
                at, self.offsets[q] + src * sizes[q] + np.arange(sizes[q]), m
            ).reshape(n, -1)
        gather, segments = [], []
        for q in range(n + 1):
            states, k = self.states[q], q - s
            # (Y_j A_j^+)[a', b'] = Y_j[a', src_j(b')] over the c cells j of
            # b' in the target digit; (a', src_j(b')) sits in the
            # half-sector's column block k
            cell = np.nonzero(((states[:, None] & bits) != 0) == target)[1]
            cell = cell.reshape(len(states), -1).T
            if cell.size:
                moved = cell * p + pos[states ^ bits[cell]]
                fixed = h_off[k] + np.arange(sizes[q]) * sizes[k]
                table = moved[:, None, :] + fixed[:, None]
                v = sum(g.size for g in gather)
                segments.append((v, len(cell), int(self.offsets[q]), table[0].size))
                gather.append(table.ravel())
        return x, (np.concatenate(gather), segments)

    def gather_tables(self, s: int):
        """``moves(s)``, built on first use and kept with the layout: every
        block form of these N qubits shares them, and none writes them.
        They stay writeable because ``np.take`` copies a read-only index
        array on every call (0.73 MB per apply at N = 8)."""
        if s not in self._gather:
            self._gather[s] = self.moves(s)
        return self._gather[s]


def drift_blocks(h: np.ndarray, layout: ExcitationBlocks, excitation: dict) -> list:
    """The blocks B_q, q = 0..N, of the drift B = iH + sum_k lambda_k
    L_k^+ L_k / 2 on the sectors of ``layout``: iH_q, H_q the diagonal
    block of h, plus sum_k lambda_k J_k^+ J_k / 2 over each sector's
    term blocks J_k from S_q (``LindbladSet.excitation_blocks``, given as
    ``excitation``), one product of the stacked blocks per q.  No D x D
    operator is placed."""
    drift = [1j * h[np.ix_(s, s)] for s in layout.states]
    for _, rates, blocks in excitation.values():
        for q, j in blocks.items():  # j: (K, C(N, q + s), C(N, q))
            cols = j.shape[2]
            weighted = (rates[:, None, None] * j).reshape(-1, cols)
            drift[q] += 0.5 * (j.conj().reshape(-1, cols).T @ weighted)
    return drift


@lru_cache(maxsize=4)
def excitation_layout(n: int) -> ExcitationBlocks:
    """The ``ExcitationBlocks`` of n qubits, built once per n and shared."""
    return ExcitationBlocks(n)


class _BlockForm:
    """The generator on excitation blocks (``excitation_form``):

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
    once for the run, so no call allocates a stack-sized array.  ``pack``,
    ``stepper``, ``trace``, ``adjoint`` and ``unpack`` are the stack the
    RK4 stepper runs on.
    """

    form = "blocks"

    def __init__(self, liouv: Liouvillian):
        self.layout = layout = liouv.block_layout
        self.lindblad, self.h = liouv.lindblad, liouv.hamiltonian
        self.trace, self.adjoint, self.unpack = layout.trace, layout.adjoint, layout.unpack

    @cached_property
    def _tables(self):
        """(drift, sectors): (B_q, B_q^+) for q = 0..N, and per sector with
        terms (G^T, its gather tables)."""
        layout = self.layout
        drift = drift_blocks(self.h, layout, self.lindblad.excitation_blocks())
        return (
            [(b, dag(b)) for b in drift],
            [
                (np.ascontiguousarray(g.T), layout.gather_tables(sector))
                for sector, g in _sector_gammas(self.lindblad)
            ],
        )

    def pack(self, rhos):
        return self.layout.pack(np.stack(rhos))

    def stepper(self, rho):
        """(f, out, out2, kept) for the RK4 stepper: f(x, out) = L(x)
        written to out, one of the two output stacks of rho's shape, through
        one set of buffers; kept is the bytes of all three.

        The buffers serve both sectors, whose X gathers and term tables
        have one size (q -> N - q maps one sector's blocks onto the
        other's): the state with a trailing zero entry, X_i and Y_j, the
        gathered terms, and one scratch of the largest block."""
        layout, n_states = self.layout, rho.shape[0]
        work = {
            "src": np.zeros((n_states, layout.size + 1), dtype=complex),
            "block": np.empty((n_states, int(layout.sizes.max()) ** 2), dtype=complex),
        }
        sectors = self._tables[1]
        if sectors:
            x_at, (gather, _) = sectors[0][1]
            work["x"] = np.empty((n_states,) + x_at.shape, dtype=complex)
            work["y"] = np.empty_like(work["x"])
            work["terms"] = np.empty((n_states, gather.shape[0]), dtype=complex)
        kept = sum(a.nbytes for a in work.values()) + 2 * rho.nbytes
        f = lambda x, out: self.apply(x, out, work)  # noqa: E731
        return f, np.empty_like(rho), np.empty_like(rho), kept

    def apply(self, rho: np.ndarray, out: np.ndarray, work: dict) -> np.ndarray:
        """L(rho) for the (S, M) stack rho, into ``out``, through the
        buffers ``work`` that ``stepper`` builds for S states."""
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
        src, x, y = work["src"], work["x"], work["y"]
        src[:, :m] = rho
        for gamma_t, (x_at, (gather, segments)) in sectors:
            # mode="wrap" lets take write straight into out (the default
            # "raise" buffers it); every index is in range
            np.take(src, x_at, axis=1, out=x, mode="wrap")
            _contract(gamma_t, x, y)  # Y_j = sum_i G_ij X_i
            terms = work["terms"]
            np.take(y.reshape(n_states, -1), gather, axis=1, out=terms, mode="wrap")
            for v, c, o, size in segments:  # Y_j A_j^+, summed per entry
                part = scratch[:, :size]
                np.sum(terms[:, v : v + c * size].reshape(n_states, c, size), axis=1, out=part)
                out[:, o : o + size] += part
        return out


@dataclass(frozen=True)
class Liouvillian:
    """Immutable generator: renormalized Hamiltonian plus Lindblad terms.

    A Lindblad set for which ``LindbladSet.structured`` holds (from
    ``canonical_form``, D >= STRUCTURED_MIN_DIM) is applied in the
    structured Gamma form; any other set through its stacked dense
    operators.  ``structured`` records that choice, made here; the form
    itself is built on the first ``apply``, so callers that never apply
    (the block stepper, the exact solver on the excitation sector,
    ``codes``, ``dephasing_solve``) place no D x D operator for it.
    ``stability_scale``, the largest rate plus the spectral radius of H,
    is computed on first read (a dense ``eigvalsh`` unless H is diagonal),
    and so is ``block_layout``.
    """

    hamiltonian: np.ndarray
    lindblad: LindbladSet
    dim: int = field(init=False)
    structured: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        h = np.asarray(self.hamiltonian, dtype=complex)
        if h.ndim != 2 or h.shape[0] != h.shape[1]:
            raise DimensionMismatch(f"Hamiltonian must be square, got {h.shape}")
        if not is_hermitian(h, rtol=1e-10):
            raise NotHermitian("Hamiltonian must be Hermitian")
        d = h.shape[0]
        object.__setattr__(self, "hamiltonian", h)
        object.__setattr__(self, "dim", d)
        if any(t.dim != d for t in self.lindblad):
            raise DimensionMismatch("Lindblad operator size mismatch")
        structured = self.lindblad.structured
        if structured and self.lindblad.model.dim != d:
            raise DimensionMismatch("Lindblad set and Hamiltonian sizes differ")
        object.__setattr__(self, "structured", structured)

    @cached_property
    def stability_scale(self) -> float:
        h_diag = _diagonal(self.hamiltonian)
        if h_diag is None:
            radius = np.abs(np.linalg.eigvalsh(self.hamiltonian)).max(initial=0.0)
        else:
            radius = np.abs(h_diag).max(initial=0.0)
        return self.lindblad.max_rate() + float(radius)

    @cached_property
    def block_layout(self) -> ExcitationBlocks | None:
        """The ``excitation_layout`` of the register when the generator
        keeps states block-diagonal in the excitation number Q, else None:
        the one rule.  It holds when the set's register has this D,
        ``LindbladSet._q_shifts`` exist (qubit cells, weights, a fixed Q
        shift s per sector) and H is exactly zero between different Q;
        then a term maps S_q to S_{q+s} and H keeps it.
        """
        model = self.lindblad.model
        if self.lindblad._q_shifts() is None or model.dim != self.dim:
            return None
        layout = excitation_layout(model.n_cells)
        return layout if layout.is_block_diagonal(self.hamiltonian) else None

    @cached_property
    def _form(self) -> _DenseForm | _GammaForm:
        h = self.hamiltonian
        if self.structured:
            return _GammaForm(self.lindblad.model, self.lindblad, h, _diagonal(h))
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

    def dissipator(self, rho: np.ndarray) -> np.ndarray:
        """Dissipative part alone (Hamiltonian term removed)."""
        return self.apply(rho) - 1j * (
            rho @ self.hamiltonian - self.hamiltonian @ rho
        )


def _diagonal(h: np.ndarray) -> np.ndarray | None:
    """The diagonal of h, or None when h has a nonzero entry off it."""
    h_diag = np.diagonal(h)
    return h_diag if np.count_nonzero(h) == np.count_nonzero(h_diag) else None


def excitation_form(liouv: Liouvillian) -> _BlockForm | None:
    """The generator on excitation blocks, for the states with no entry
    between different Q (``layout.is_block_diagonal``), or None unless
    ``liouv.structured`` (canonical, D >= STRUCTURED_MIN_DIM at build), the
    cells are sigma- and ``liouv.block_layout`` holds.  The first two are
    tested first, so a smaller register builds no layout.
    """
    model = liouv.lindblad.model
    if liouv.structured and np.array_equal(model.cell_op, SIGMA_MINUS) and liouv.block_layout:
        return _BlockForm(liouv)
    return None


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


# D x D complex arrays heisenberg_ring with the register's commutation
# check holds at once: at most 6.1 measured (tracemalloc peak over 16 D^2
# bytes) at N = 6-9.
RING_BUILDER_MATRICES = 8


def rates_bytes(model: RegisterModel, spec: BathSpec, n_states: int, ring: bool = False) -> int:
    """Estimated peak bytes of first-order decoherence rates: n_states
    state vectors held at once, one ``pure_decoherence_rate`` call on
    ``canonical_form(model, spec)`` with their (D, n_states) stack, the
    basis tables state builders leave cached (``cell_digits``, 2 N D
    bytes, and ``excitation_sectors``, 16 D bytes), and, when ``ring``,
    the RING_BUILDER_MATRICES D x D arrays a Heisenberg ring interaction's
    builder holds beside them.

    Each sector with a nonzero bath matrix has at most N terms (exactly N
    when the matrix has full rank), counted without diagonalizing it.  A
    structured set holds, per state, the N cell actions of one sector, one
    L_k psi per term and three copies of the state (the caller's vector,
    the stack and its contiguous copy), plus four vectors of digit tables
    and numpy temporaries (measured at N = 8-12, 1-4 states).  A smaller
    set takes the states one at a time and builds its K operators instead.
    """
    n, vector = model.n_cells, 16 * model.dim
    terms = n * sum(bool(np.any(g)) for g in (spec.gamma_minus, spec.gamma_plus))
    if model.dim < STRUCTURED_MIN_DIM:
        need = (n_states + 2 * terms + 3 + terms * model.dim) * vector
    else:
        cells = n if terms else 0
        need = (n_states * (cells + terms + 3) + 4) * vector
    tables = (2 * n + 16) * model.dim
    return need + tables + (RING_BUILDER_MATRICES * model.dim * vector if ring else 0)


def _peak_bytes(lindblad: LindbladSet) -> int:
    model = lindblad.model
    matrix = 16 * model.dim**2
    if lindblad.structured:
        return (2 * model.n_cells + 9) * matrix
    return (5 * len(lindblad) + 5) * matrix


def build_liouvillian(model: RegisterModel, spec: BathSpec) -> Liouvillian:
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
