"""Decoherence observables: fidelity, linear entropy, the short-time
decoherence hierarchy 1/tau_n^n, first-order rates for pure states (on a
structured set from the states' bath-independent cell covariance), and
register energy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import comb

import numpy as np

from .errors import DimensionMismatch, NotHermitian, TooLarge, TooSmall
from .linalg import is_hermitian
from .liouvillian import (
    COVARIANCE_CHUNK_ENTRIES,
    LindbladSet,
    Liouvillian,
    _cell_actions,
)

# Highest supported order of the decoherence-time hierarchy.
N_MAX = 6


@dataclass(frozen=True)
class DecoherenceReport:
    """Bundle of decoherence diagnostics along one trajectory."""

    tau_inverse: np.ndarray
    fidelity_series: np.ndarray
    entropy_series: np.ndarray
    energy_series: np.ndarray
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        for name in ("tau_inverse", "fidelity_series", "entropy_series", "energy_series"):
            object.__setattr__(
                self, name, np.asarray(getattr(self, name), dtype=float)
            )
        f = self.fidelity_series
        if f.size and (f.min() < -1e-10 or f.max() > 1 + 1e-10):
            raise ValueError("fidelity series leaves [0, 1] beyond tolerance")
        e = self.entropy_series
        if e.size and e.min() < -1e-10:
            raise ValueError("entropy series goes negative beyond tolerance")
        dim = self.metadata.get("dim")
        if dim and e.size and e.max() > 1 - 1.0 / dim + 1e-10:
            raise ValueError("entropy series exceeds the 1 - 1/D bound")


def fidelity(rho: np.ndarray, psi0: np.ndarray, layout=None) -> float:
    """Overlap <psi0| rho |psi0> of a state with a reference pure state:
    a D x D ``rho``, or the packed blocks of a block-diagonal one on
    ``layout`` (an ``ExcitationBlocks``), sum_q psi_q^+ rho_q psi_q with
    psi_q the entries of psi0 on S_q.  Packed blocks may be real (a real
    block run's): each then meets the real and imaginary parts of psi_q,
    and no complex copy of it is made."""
    rho = _as_operand(rho, layout)
    psi = np.asarray(psi0, dtype=complex).reshape(-1)
    if layout is None:
        if rho.shape != (psi.shape[0], psi.shape[0]):
            raise DimensionMismatch(
                f"state {rho.shape} does not match vector of length {psi.shape[0]}"
            )
        val = complex(psi.conj() @ rho @ psi)
    else:
        _check_packed(rho, layout, psi.shape[0])
        blocks = zip(layout.states, layout.blocks(rho))
        if np.iscomplexobj(rho):
            val = complex(sum(psi[s].conj() @ b @ psi[s] for s, b in blocks))
        else:
            val = complex(sum(_real_sandwich(psi[s], b) for s, b in blocks))
    if abs(val.imag) > 1e-10:
        raise NotHermitian(f"fidelity has imaginary part {val.imag:.3e}")
    return float(val.real)


def linear_entropy(rho: np.ndarray, layout=None) -> float:
    """tr(rho) - tr(rho^2); vanishes exactly on pure states.  rho is D x D,
    or the packed blocks of a block-diagonal one on ``layout``, whose
    traces are sums over the blocks."""
    rho = _as_operand(rho, layout)
    if layout is None:
        tr = np.trace(rho).real
        tr2 = np.einsum("ij,ji->", rho, rho).real
    else:
        _check_packed(rho, layout, layout.dim)
        tr = layout.trace(rho).real
        tr2 = _block_trace(layout, rho, rho).real
    return float(tr - tr2)


def register_energy(
    rho: np.ndarray, h: np.ndarray | Liouvillian, layout=None
) -> float | np.ndarray:
    """Energy tr(rho H) for a Hermitian register Hamiltonian: a float for
    one D x D state, a (T,) array for a (T, D, D) stack of snapshots.
    With ``layout`` rho holds the packed blocks of block-diagonal states,
    (M,) or (T, M), and tr(rho H) = sum_q tr(rho_q H_q) over H's diagonal
    blocks; real blocks (a real block run's) meet the real part of H's,
    which is all a Hermitian H adds to the real part of the trace.

    H is checked once per call; each energy is the one-state contraction.
    For a ``Liouvillian`` H is its Hamiltonian, which its constructor
    checked to the same tolerance, and its blocks are packed once
    (``Liouvillian.hamiltonian_blocks``), so a caller that takes one
    snapshot at a time checks and packs H once per generator.
    """
    rho = _as_operand(rho, layout)
    liouv = h if isinstance(h, Liouvillian) else None
    if liouv is not None:
        h = liouv.hamiltonian
    else:
        h = np.asarray(h, dtype=complex)
        if not is_hermitian(h, rtol=1e-10):
            raise NotHermitian("energy requires a Hermitian operator")
    if layout is not None:
        _check_packed(rho, layout, h.shape[0], stack=True)
        h_blocks = layout.pack(h) if liouv is None else liouv.hamiltonian_blocks
        if not np.iscomplexobj(rho):
            h_blocks = h_blocks.real
        if rho.ndim == 1:
            return float(_block_trace(layout, rho, h_blocks).real)
        return np.array([_block_trace(layout, r, h_blocks).real for r in rho])
    if rho.ndim not in (2, 3) or rho.shape[-2:] != h.shape:
        raise DimensionMismatch("state and Hamiltonian sizes differ")
    if rho.ndim == 2:
        return float(np.einsum("ij,ji->", rho, h).real)
    return np.array([np.einsum("ij,ji->", r, h).real for r in rho])


def _as_operand(rho, layout) -> np.ndarray:
    """rho as the observables read it: complex, except packed blocks,
    which keep a real dtype."""
    if layout is not None and np.isrealobj(rho):
        return np.asarray(rho, dtype=float)
    return np.asarray(rho, dtype=complex)


def _real_sandwich(psi: np.ndarray, b: np.ndarray) -> complex:
    """psi^+ b psi for a real square b: with P = [Re psi, Im psi] and
    W = P^T b P, it is W_00 + W_11 + i (W_01 - W_10)."""
    p = np.ascontiguousarray(psi).view(float).reshape(-1, 2)
    w = p.T @ (b @ p)
    return complex(w[0, 0] + w[1, 1], w[0, 1] - w[1, 0])


def _check_packed(rho, layout, dim: int, stack: bool = False) -> None:
    """Raise DimensionMismatch unless rho is one packed state on ``layout``
    (or, with ``stack``, a stack of them) and the layout's D is dim, the
    size of the vector or operator it is measured with."""
    ndims = (1, 2) if stack else (1,)
    if rho.ndim not in ndims or rho.shape[-1] != layout.size or layout.dim != dim:
        raise DimensionMismatch(
            f"packed state {rho.shape} on {layout.n} qubits does not match D = {dim}"
        )


def _block_trace(layout, x: np.ndarray, y: np.ndarray) -> complex:
    """tr(x y) of two block-diagonal matrices packed on ``layout``: the sum
    over the blocks of tr(x_q y_q)."""
    pairs = zip(layout.blocks(x), layout.blocks(y))
    return complex(sum(np.einsum("ij,ji->", a, b) for a, b in pairs))


def tau_inverse_n(liouv: Liouvillian, rho: np.ndarray, n_max: int) -> np.ndarray:
    """Coefficients 1/tau_n^n of the short-time entropy expansion

        delta(t) = sum_n t^n / (n! tau_n^n),
        1/tau_n^n = -tr sum_{k=0}^n C(n,k) L^{n-k}(rho) L^k(rho),

    for n = 1..n_max, computed by repeated application of the generator.
    """
    if n_max < 1:
        raise TooSmall(f"n_max must be >= 1, got {n_max}")
    if n_max > N_MAX:
        raise TooLarge(f"n_max must be <= {N_MAX}, got {n_max}")
    rho = np.asarray(rho, dtype=complex)
    powers = [rho]
    for _ in range(n_max):
        powers.append(liouv.apply(powers[-1]))
    out = np.empty(n_max, dtype=float)
    for n in range(1, n_max + 1):
        acc = 0.0
        for k in range(n + 1):
            acc += comb(n, k) * np.einsum(
                "ij,ji->", powers[n - k], powers[k]
            ).real
        out[n - 1] = -acc
    return out


def pure_decoherence_rate(lindblad: LindbladSet, psi: np.ndarray, known=None) -> float | np.ndarray:
    """First-order decoherence rate of a pure state,

        1/tau_1 = 2 sum_k lambda_k (<L_k^+ L_k> - |<L_k>|^2),

    a sum of nonnegative variance terms; zero exactly when psi is a
    simultaneous eigenvector of every Lindblad operator.  A float for one
    state (D,), an (S,) array for the columns of a (D, S) stack.

    A set with ``structured`` true (canonical, D >= STRUCTURED_MIN_DIM)
    takes the same sum as 2 sum_s Re sum_ij conj(G_s)_ij V_s,ij: the
    states' cell covariance V_s (``cell_covariances``, one digit-move pass
    per sector over all S columns, kept in ``known`` for later calls on
    the same states) contracted with each sector's G_s (``covariance_rates``);
    no D x D operator and no L_k psi is formed.  The entries of V are of
    order one, so a state no term decoheres rates at rounding level (up to
    about 5e-15 at N = 8-12, of either sign) rather than exactly zero.
    Below the crossover, and for hand-built sets, each operator multiplies
    each state, one column at a time.
    """
    psi = np.asarray(psi, dtype=complex)
    if psi.ndim not in (1, 2) or any(t.dim != psi.shape[0] for t in lindblad):
        raise DimensionMismatch("Lindblad operator does not match state")
    if not lindblad.structured:
        if psi.ndim == 2:
            return np.array([pure_decoherence_rate(lindblad, col) for col in psi.T])
        total = 0.0
        for term in lindblad:
            lpsi = term.op @ psi
            mean = complex(psi.conj() @ lpsi)
            second = float((lpsi.conj() @ lpsi).real)
            total += term.rate * (second - abs(mean) ** 2)
        return 2.0 * total
    stack = psi.reshape(psi.shape[0], -1)
    rates = covariance_rates(lindblad, cell_covariances(lindblad, stack, known), stack.shape[1])
    return rates if psi.ndim == 2 else float(rates[0])


def cell_covariances(
    lindblad: LindbladSet, psi: np.ndarray, known: dict | None = None
) -> dict[int, np.ndarray]:
    """Per sector with terms of a set with ``sectors``: the cell covariance
    of the columns psi of a (D, S) stack, (S, N, N),

        V_ij = <A_i psi|A_j psi> - conj(<A_i>) <A_j>,

    A the sector's cell operator on cell i.  V is Hermitian and depends on
    the register and the states alone, not on the bath.  Each sector's
    X_i = A_i psi comes from one digit-move pass over all S columns
    (``_cell_actions``), and only that sector's X is held while its V is
    summed, chunk by chunk of rows.

    A sector already in ``known`` is read from it, and one built here is
    added to it: a caller that rates the same states on one register under
    several baths (``pure_decoherence_rate`` in ``expcli.run_tau_sweep``)
    builds each sector's V once, at the first bath with terms there.
    """
    known = {} if known is None else known
    for sector in lindblad.sectors:
        if sector not in known:
            known[sector] = _covariance(lindblad.model, sector, np.ascontiguousarray(psi))
    return {sector: known[sector] for sector in lindblad.sectors}


def _covariance(model, sector: int, psi: np.ndarray) -> np.ndarray:
    """V (S, N, N) of one sector for the C-ordered (D, S) stack psi.

    Per column, with the rows X_1..X_N and psi stacked as the N + 1 rows
    of Z, the product Z^* Z^T holds <A_i psi|A_j psi> and, in row N,
    <A_j>.  It is summed over chunks of the D entries, the chunk and its
    conjugate copied into two buffers of at most COVARIANCE_CHUNK_ENTRIES
    entries each, and only this sector's X is held.
    """
    x = _cell_actions(model, sector, psi)  # (N, D, S)
    n, d, s = x.shape
    width = min(max(COVARIANCE_CHUNK_ENTRIES // ((n + 1) * s), 1), d)
    z, z_conj = np.empty((2, s, n + 1, width), dtype=complex)
    moments, product = np.zeros((2, s, n + 1, n + 1), dtype=complex)
    for start in range(0, d, width):
        part, part_conj = z[..., : d - start], z_conj[..., : d - start]
        np.copyto(part[:, :n], x[:, start : start + width].transpose(2, 0, 1))
        np.copyto(part[:, n], psi[start : start + width].T)
        np.conjugate(part, out=part_conj)
        moments += np.matmul(part_conj, part.transpose(0, 2, 1), out=product)
    del x, z, z_conj  # freed before the results are allocated: a lower peak
    mean = moments[:, n:, :n]  # (S, 1, N)
    return moments[:, :n, :n] - mean.conj().transpose(0, 2, 1) * mean


def covariance_rates(lindblad: LindbladSet, covariances: dict, n_states: int) -> np.ndarray:
    """The first-order rates (n_states,) of the states whose cell
    covariances per sector ``covariances`` holds (``cell_covariances``),
    under a set with ``sectors``:

        1/tau_1 = 2 sum_k lambda_k (<L_k^+ L_k> - |<L_k>|^2)
                = 2 sum_s Re sum_ij conj(G_s)_ij V_s,ij,

    since L_k = sum_i u_ki A_i and G_s = sum_k lambda_k u_k u_k^+ over the
    sector's terms (``LindbladSet.gammas``).  O(S N^2) per sector.
    """
    total = np.zeros(n_states)
    for sector, g in lindblad.gammas.items():
        v = covariances[sector]
        total += (v.reshape(n_states, -1) @ g.conj().ravel()).real
    return 2.0 * total


def decoherence_report(
    liouv: Liouvillian,
    trajectory,
    psi0: np.ndarray,
    n_max: int = 2,
) -> DecoherenceReport:
    """Evaluate all standard diagnostics along a trajectory.

    The hierarchy coefficients are computed at the initial state; the
    three series run over the trajectory's snapshots.
    """
    taus = tau_inverse_n(liouv, trajectory.states[0], n_max)
    fids = np.array([fidelity(s, psi0) for s in trajectory.states])
    ents = np.array([linear_entropy(s) for s in trajectory.states])
    engs = register_energy(trajectory.states, liouv)
    return DecoherenceReport(
        tau_inverse=taus,
        fidelity_series=fids,
        entropy_series=ents,
        energy_series=engs,
        metadata={"n_max": n_max, "dim": liouv.dim},
    )
