"""Time evolution: fixed-step integration, exact propagation, and the
closed-form solver for registers whose cell operators are normal and
mutually commuting (pure dephasing).  All three read the one
``Liouvillian``: the closed form takes the register, the Hamiltonian and
the per-sector rates from it.

RK4 steps one of three generator forms, recorded as ``metadata["form"]``:
``dense`` and ``gamma`` (``Liouvillian.apply`` on D x D states) and
``blocks``, the packed excitation blocks of ``liouvillian.excitation_form``,
unpacked to D x D only for the Trajectory.
"""

from __future__ import annotations

import sys
import warnings
from dataclasses import InitVar, dataclass, field
from typing import Any

import numpy as np

from .errors import (
    DimensionMismatch,
    NotSimultaneouslyDiagonalizable,
    QregError,
    TooLarge,
    TooSmall,
    UnstableStep,
)
from .linalg import (
    dag,
    expm_action,
    frob,
    hermiticity_defect,
    is_hermitian,
    kron_all,
    load_expm,
    schur,
    unvec,
    vec,
)
from .liouvillian import (
    SUPEROP_MAX_DIM,
    ExcitationBlocks,
    Liouvillian,
    add_elementwise_rates,
    excitation_form,
    superoperator_matrix,
)
from .register import RegisterModel, register_hamiltonian

# A step is flagged as unstable once the trace drifts beyond this bound.
TRACE_TOL = 1e-6
# Warn when dt * (spectral scale) exceeds this, signalling a too-coarse grid.
STABILITY_BUDGET = 0.1
# Default snapshot stride: keep every tenth accepted step.
DEFAULT_STRIDE = 10
# Most steps one schedule may hold; snapshot_grid raises TooLarge beyond it.
MAX_STEPS = 10**7


@dataclass(frozen=True)
class Trajectory:
    """Snapshots of a density-matrix evolution on a uniform time grid.

    Every stored state must satisfy the density-matrix invariants
    (|tr - 1| <= 1e-8, min eigenvalue >= -1e-7, Hermiticity defect
    <= 1e-9); construction fails otherwise.  With ``blocks`` (not stored)
    the eigenvalues of states with no entry between different excitation
    numbers are found block by block (``check_state``).
    """

    times: np.ndarray
    states: np.ndarray
    metadata: dict[str, Any] = field(default_factory=dict)
    blocks: InitVar[ExcitationBlocks | None] = None

    def __post_init__(self, blocks):
        t = np.asarray(self.times, dtype=float)
        s = np.asarray(self.states, dtype=complex)
        if s.ndim != 3 or s.shape[1] != s.shape[2]:
            raise DimensionMismatch(f"states must be (k, d, d), got {s.shape}")
        if t.ndim != 1 or t.shape[0] != s.shape[0]:
            raise DimensionMismatch("times and states lengths differ")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "states", s)
        for k in range(s.shape[0]):
            check_state(s[k], blocks)

    def __len__(self):
        return self.times.shape[0]

    @property
    def final(self) -> np.ndarray:
        return self.states[-1]


def _as_density(rho0: np.ndarray, dim: int) -> np.ndarray:
    rho = np.asarray(rho0, dtype=complex)
    if rho.ndim == 1:
        if rho.shape[0] != dim:
            raise DimensionMismatch(
                f"state vector has length {rho.shape[0]}, expected {dim}"
            )
        rho = np.outer(rho, rho.conj())
    if rho.shape != (dim, dim):
        raise DimensionMismatch(
            f"state must be {dim}x{dim}, got {rho.shape}"
        )
    return rho


def step_count(t_end: float, dt: float) -> int:
    """Number of equal steps snapshot_grid splits t_end into:
    round(t_end / dt), at least one when t_end > 0.

    Raises TooSmall/TooLarge for a nonpositive dt, a negative t_end, a
    non-finite ratio, or more than MAX_STEPS steps.
    """
    if not dt > 0:
        raise TooSmall(f"dt must be positive, got {dt}")
    if not t_end >= 0:
        raise TooSmall(f"t_end must be nonnegative, got {t_end}")
    if not (np.isfinite(dt) and np.isfinite(t_end / dt)):
        raise TooLarge(f"dt and t_end / dt must be finite, got {dt}, {t_end}")
    n_steps = round(t_end / dt)
    if n_steps > MAX_STEPS:
        raise TooLarge(
            f"t_end / dt = {t_end / dt:.3g} steps, more than the {MAX_STEPS} allowed"
        )
    return max(n_steps, 1) if t_end > 0 else 0


def snapshot_grid(
    t_end: float, dt: float, stride: int = DEFAULT_STRIDE
) -> tuple[float, np.ndarray]:
    """Step size h and the indices of the steps kept as snapshots.

    t_end is split into step_count(t_end, dt) equal steps; step 0, every
    stride-th step and the final step are kept.
    """
    n_steps = step_count(t_end, dt)
    if stride < 1:
        raise TooSmall(f"stride must be >= 1, got {stride}")
    h = t_end / n_steps if n_steps else 0.0
    steps = np.arange(0, n_steps + 1, stride)
    if steps[-1] != n_steps:
        steps = np.append(steps, n_steps)
    return h, steps


class _FullStack:
    """The (S, D, D) stack the dense and Gamma forms step."""

    def __init__(self, liouv: Liouvillian):
        self.apply = liouv.apply
        self.form = "gamma" if liouv.lindblad.structured else "dense"
        self.layout = None

    def pack(self, rhos):
        return np.stack(rhos)

    def trace(self, rho):
        return rho.trace(axis1=1, axis2=2)

    def adjoint(self, rho, out):
        np.conjugate(rho.transpose(0, 2, 1), out=out)

    def unpack(self, states):
        return states


class _BlockStack:
    """The (S, C(2N, N)) stack of packed excitation blocks the block form
    steps (``excitation_form``)."""

    form = "blocks"

    def __init__(self, blocks):
        self.apply = blocks.apply
        self.layout = layout = blocks.layout
        self.trace, self.adjoint, self.unpack = layout.trace, layout.adjoint, layout.unpack

    def pack(self, rhos):
        return self.layout.pack(np.stack(rhos))


def _rk4_groups(liouv: Liouvillian, rhos) -> list:
    """(state indices, stack) of each RK4 run over the states ``rhos``.

    The block-diagonal states step together on the block form when
    ``excitation_form`` gives one, built once.  The others step together
    on the dense form, or one by one on the Gamma form, whose apply is
    memory-bound.
    """
    blocks = excitation_form(liouv, rhos)
    on_blocks = [blocks is not None and blocks.layout.is_block_diagonal(r) for r in rhos]
    together = [s for s, b in enumerate(on_blocks) if b]
    rest = [s for s, b in enumerate(on_blocks) if not b]
    full = _FullStack(liouv)
    groups = [(together, _BlockStack(blocks))] if together else []
    if full.form == "gamma":
        return groups + [([s], full) for s in rest]
    return groups + ([(rest, full)] if rest else [])


def _rk4(rhos, h: float, steps, stride: int, stack) -> list[Trajectory]:
    """Classical fixed-step RK4 on the stack of the initial density
    matrices ``rhos``, one Trajectory per state.

    ``stack`` is the layout: the (S, D, D) stack of the dense and Gamma
    forms, or the packed excitation blocks of the block form, unpacked to
    D x D only for the Trajectory.  Every stage input and the sum
    k1 + 2k2 + 2k3 + k4 are built in place, left to right, with the
    operations and operand order of stepping each state alone, so each
    trajectory is bitwise the single-state one.  At most four stacks are
    live during an apply: the state, the stage input, the accumulated sum
    and the apply's result.  The trace check, re-Hermitization,
    renormalization and ``error_estimate`` are per state.
    """
    rho = stack.pack(rhos)
    n_states, n_steps = rho.shape[0], int(steps[-1])
    states = np.empty((n_states, steps.shape[0]) + rho.shape[1:], dtype=complex)
    states[:, 0] = rho
    kept = 1
    f = stack.apply
    half, sixth = 0.5 * h, h / 6.0
    stage = np.empty_like(rho)
    norm_shape = (n_states,) + (1,) * (rho.ndim - 1)
    max_drift = [0.0] * n_states
    for k in range(1, n_steps + 1):
        acc = f(rho)  # k1
        np.multiply(acc, half, out=stage)
        stage += rho
        kj = f(stage)  # k2
        np.multiply(kj, half, out=stage)
        stage += rho
        kj *= 2.0
        acc += kj
        del kj  # free k2 before k3 is allocated
        kj = f(stage)  # k3
        np.multiply(kj, h, out=stage)
        stage += rho
        kj *= 2.0
        acc += kj
        del kj
        acc += f(stage)  # k4
        acc *= sixth
        rho += acc
        tr = stack.trace(rho).tolist()
        drift = [abs(t - 1.0) for t in tr]
        worst = max(range(n_states), key=drift.__getitem__)
        if drift[worst] > TRACE_TOL:
            raise UnstableStep(
                f"trace drifted to {tr[worst]:.8f} at step {k} (t = {k * h:.6g}) "
                f"in state {worst}; reduce dt"
            )
        max_drift = [max(m, d) for m, d in zip(max_drift, drift)]
        stack.adjoint(rho, stage)
        stage += rho
        stage *= 0.5
        np.divide(stage, np.array([t.real for t in tr]).reshape(norm_shape), out=rho)
        if k == steps[kept]:
            states[:, kept] = rho
            kept += 1
    return [
        Trajectory(
            times=steps * h,
            states=stack.unpack(states[s]),
            metadata={
                "method": "rk4",
                "form": stack.form,
                "dt": h,
                "n_steps": n_steps,
                "stride": stride,
                "error_estimate": max_drift[s],
            },
            blocks=stack.layout,
        )
        for s in range(n_states)
    ]


def integrate(
    liouv: Liouvillian,
    rho0: np.ndarray,
    t_end: float,
    dt: float,
    stride: int = DEFAULT_STRIDE,
) -> Trajectory:
    """Evolve rho0 with classical fixed-step RK4 and record snapshots on
    the snapshot_grid schedule: ``evolve`` of the one state.

    After each step the state is re-Hermitized and trace-renormalized; a
    trace drift beyond TRACE_TOL before renormalization raises UnstableStep.
    ``metadata["form"]`` names the generator form stepped (module
    docstring).
    ``metadata["error_estimate"]`` is the largest trace drift |tr - 1| seen
    before renormalization, not an estimate of the truncation error.
    """
    return evolve(liouv, [rho0], t_end, dt, stride)[0]


def evolve(
    liouv: Liouvillian,
    rho0s,
    t_end: float,
    dt: float,
    stride: int = DEFAULT_STRIDE,
    method: str = "rk4",
) -> list[Trajectory]:
    """Evolve each initial state (vector or density matrix) on the one
    snapshot_grid schedule; returns one Trajectory per state, in input
    order.

    ``rk4`` steps the block-diagonal states together on the block form
    (module docstring) when the generator allows it, and the others
    together on the dense generator or one by one on the structured one,
    whose Gamma-form apply is memory-bound.  Each trajectory is bitwise
    the one stepping that state alone gives.  ``exact``
    advances all states at once, stacked as the columns of a D^2 x S
    matrix, with one propagator per snapshot interval (dense
    superoperator, D <= 64).  ``dephasing`` is the closed form
    (``dephasing_solve``), read from ``liouv`` like the others and prepared
    once for all states.
    """
    h, steps = snapshot_grid(t_end, dt, stride)
    if method == "rk4":
        rhos = [_as_density(r, liouv.dim) for r in rho0s]
        scale = liouv.stability_scale
        if rhos and steps[-1] and h * scale > STABILITY_BUDGET:
            warnings.warn(
                f"dt * spectral scale = {h * scale:.3g} exceeds "
                f"{STABILITY_BUDGET}; results may be inaccurate",
                RuntimeWarning,
                # name the line that called integrate, which calls evolve
                stacklevel=3 if sys._getframe(1).f_code is integrate.__code__ else 2,
            )
        trajs = [None] * len(rhos)
        for group, stack in _rk4_groups(liouv, rhos):
            runs = _rk4([rhos[s] for s in group], h, steps, stride, stack)
            for s, traj in zip(group, runs):
                trajs[s] = traj
        return trajs
    times = steps * h
    if method == "dephasing":
        rhos = [_as_density(r, liouv.dim) for r in rho0s]
        closed = _closed_form(liouv) if rhos else None
        return [_closed_trajectory(closed, r, times) for r in rhos]
    expm = check_method(method, liouv.lindblad.model, liouv.hamiltonian)
    if len(rho0s) == 0:
        return []
    d = liouv.dim
    m = superoperator_matrix(liouv)
    cols = np.stack([vec(_as_density(r, d)) for r in rho0s], axis=1)
    snaps = np.empty((steps.shape[0],) + cols.shape, dtype=complex)
    snaps[0] = cols
    propagators: dict[int, np.ndarray] = {}
    for k, dk in enumerate(np.diff(steps).tolist(), start=1):
        if dk not in propagators:
            propagators[dk] = expm(m * (dk * h))
        snaps[k] = propagators[dk] @ snaps[k - 1]
    # Column-stacked vec: entry j*d + i of a column is rho[i, j].
    states = snaps.reshape(steps.shape[0], d, d, -1).transpose(3, 0, 2, 1)
    meta = {"method": "exact", "dt": h, "n_steps": int(steps[-1])}
    return [Trajectory(times=times, states=s, metadata=meta) for s in states]


def propagate_exact(liouv: Liouvillian, rho0: np.ndarray, t: float) -> np.ndarray:
    """Evolve rho0 to time t through the dense superoperator exponential.

    Reference-quality propagation for small registers; the superoperator
    guard (D <= 64) applies.
    """
    rho = _as_density(rho0, liouv.dim)
    m = superoperator_matrix(liouv)
    return unvec(expm_action(m, float(t), vec(rho)), liouv.dim)


def check_method(
    method: str, model: RegisterModel | None, hamiltonian: np.ndarray | None = None
):
    """Raise unless ``evolve`` can run ``method`` on a generator of
    ``model`` whose Hamiltonian is ``hamiltonian`` (default the register's
    own, built only for dephasing): ``exact`` needs D <= SUPEROP_MAX_DIM
    (TooLarge), ``dephasing`` a normal cell operator and an H diagonal in
    its eigenbasis, as a Lamb shift always is there
    (NotSimultaneouslyDiagonalizable), and ``rk4`` takes any; another name
    is a QregError.

    For exact returns the matrix exponential, loaded here (it imports
    SciPy) so that a run checked at load exponentiates without importing.
    For dephasing returns (w, frame, h): the cell operator's eigenvalues,
    the register's unitary eigenbasis frame (None when it is the identity)
    and H in that frame.
    """
    if method == "exact":
        d = model.dim if hamiltonian is None else hamiltonian.shape[0]
        if d > SUPEROP_MAX_DIM:
            raise TooLarge(
                f"the exact method needs D <= {SUPEROP_MAX_DIM}, got D = {d}"
            )
        return load_expm()
    elif method == "dephasing":
        w, v = dephasing_frame(model)
        h = register_hamiltonian(model) if hamiltonian is None else hamiltonian
        frame = None
        if not np.allclose(v, np.eye(model.cell_dim)):
            frame = kron_all([v] * model.n_cells)
            h = dag(frame) @ h @ frame
        # The closed form holds only for an H diagonal in the joint frame.
        h_off = h - np.diag(np.diag(h))
        if frob(h_off) > 1e-10 * max(1.0, frob(h)):
            raise NotSimultaneouslyDiagonalizable(
                "the generator's Hamiltonian is not diagonal in the cell-op eigenbasis"
            )
        return w, frame, h
    elif method != "rk4":
        raise QregError(f"unknown method {method!r}; use rk4, exact or dephasing")


def dephasing_frame(model: RegisterModel) -> tuple[np.ndarray, np.ndarray]:
    """Return (w, v) with w the cell-op eigenvalues and v a unitary frame
    in which the cell operator is diagonal.

    Requires the cell operator to be normal; otherwise the register is not
    simultaneously diagonalizable and the closed form does not apply
    (NotSimultaneouslyDiagonalizable).  Reads only the d x d cell operator,
    so it rules a register out before its Hamiltonian is built.
    """
    a = np.asarray(model.cell_op, dtype=complex)
    if not np.any(a - np.diag(np.diagonal(a))):
        # Already diagonal (sigma_z): the identity frame, so no D x D
        # change of basis.
        return np.diagonal(a).copy(), np.eye(model.cell_dim)
    scale = max(1.0, float(np.abs(a).max()))
    if not np.allclose(a @ dag(a), dag(a) @ a, atol=1e-12 * scale * scale):
        raise NotSimultaneouslyDiagonalizable(
            "cell operator must be normal for the dephasing solver"
        )
    if is_hermitian(a, rtol=1e-12):
        w_r, v = np.linalg.eigh(a)
        return w_r.astype(complex), v
    # Normal but not Hermitian: the complex Schur form is diagonal with a
    # unitary frame.
    t, z = schur(a)
    off = t - np.diag(np.diag(t))
    if frob(off) > 1e-10 * max(1.0, frob(t)):
        raise NotSimultaneouslyDiagonalizable(
            "cell operator is not unitarily diagonalizable"
        )
    return np.diag(t).copy(), z


def dephasing_solve(
    liouv: Liouvillian, rho0: np.ndarray, times: np.ndarray
) -> Trajectory:
    """Closed-form evolution under a canonical generator whose Lindblad
    operators commute with each other and with its Hamiltonian: normal,
    mutually commuting cell operators and an H diagonal in their joint
    eigenbasis.

    The register is ``liouv.lindblad.model``.  In the joint eigenbasis the
    matrix element between configurations b and b' evolves as exp{C t}
    with

        C = i (E_b' - E_b) + (the elementwise dissipator)_bb',

    E the diagonal of ``liouv.hamiltonian`` in that basis (the Lamb shift
    included) and the dissipator ``liouvillian.add_elementwise_rates`` of
    the set's per-sector G.  Re C <= 0 is the decay rate -G/2; Im C
    carries the bath-induced coherent phases.
    """
    rho = _as_density(rho0, liouv.dim)
    t = np.asarray(times, dtype=float)
    if t.ndim != 1 or t.shape[0] == 0:
        raise DimensionMismatch("times must be a nonempty 1-d array")
    return _closed_trajectory(_closed_form(liouv), rho, t)


def _closed_form(liouv: Liouvillian) -> tuple[np.ndarray | None, np.ndarray]:
    """(frame, C) of ``dephasing_solve`` for ``liouv``: the joint
    eigenbasis frame (None when it is the identity) and the D x D matrix C
    of the exponents in that frame."""
    lset = liouv.lindblad
    model = lset.model
    if model is None or any(t.weights is None for t in lset):
        raise QregError(
            "the dephasing method needs a canonical Lindblad set (canonical_form)"
        )
    w_cell, frame, h = check_method("dephasing", model, liouv.hamiltonian)
    e = np.real(np.diag(h))
    c = 1j * (e[None, :] - e[:, None])  # element (b, b') rotates as e^{i(E'-E)t}
    add_elementwise_rates(lset, w_cell, c)
    return frame, c


def _closed_trajectory(closed, rho: np.ndarray, t: np.ndarray) -> Trajectory:
    """The Trajectory of the D x D state ``rho`` at the times ``t`` under
    the closed form ``closed`` (``_closed_form``)."""
    frame, c = closed
    if frame is not None:  # to the joint eigenbasis
        rho = dag(frame) @ rho @ frame
    states = np.empty((t.shape[0],) + rho.shape, dtype=complex)
    for k, tk in enumerate(t):
        s = rho * np.exp(c * float(tk))
        if frame is not None:
            s = frame @ s @ dag(frame)
        states[k] = s
    return Trajectory(times=t, states=states, metadata={"method": "dephasing"})


def state_defect_report(
    rho: np.ndarray, blocks: ExcitationBlocks | None = None
) -> dict[str, float]:
    """Trace, positivity, and Hermiticity defects of a density matrix.

    With ``blocks``, and no nonzero entry of rho between different
    excitation numbers, the smallest eigenvalue is the smallest over the
    blocks: the spectrum of a block-diagonal matrix is the union of its
    blocks' spectra.  Otherwise the whole matrix is diagonalized.
    """
    rho = np.asarray(rho, dtype=complex)
    herm = hermiticity_defect(rho)
    if blocks is not None and blocks.is_block_diagonal(rho):
        eig_min = min(
            np.linalg.eigvalsh(0.5 * (b + dag(b))).min()
            for b in blocks.blocks(blocks.pack(rho))
        )
    else:
        eig_min = np.linalg.eigvalsh(0.5 * (rho + dag(rho))).min()
    return {
        "trace_defect": abs(complex(np.trace(rho)) - 1.0),
        "min_eigenvalue": float(eig_min),
        "hermiticity_defect": float(herm),
    }


def check_state(rho: np.ndarray, blocks: ExcitationBlocks | None = None) -> None:
    """Raise UnstableStep unless rho satisfies the state invariants:
    |tr - 1| <= 1e-8, min eigenvalue >= -1e-7, Hermiticity defect <= 1e-9.
    ``blocks`` lets a block-diagonal rho be diagonalized block by block
    (``state_defect_report``).
    """
    rep = state_defect_report(rho, blocks)
    if rep["trace_defect"] > 1e-8:
        raise UnstableStep(f"trace defect {rep['trace_defect']:.3e} > 1e-8")
    if rep["min_eigenvalue"] < -1e-7:
        raise UnstableStep(
            f"negative eigenvalue {rep['min_eigenvalue']:.3e} < -1e-7"
        )
    if rep["hermiticity_defect"] > 1e-9:
        raise UnstableStep(
            f"hermiticity defect {rep['hermiticity_defect']:.3e} > 1e-9"
        )
