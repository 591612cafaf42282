"""Time evolution: fixed-step integration, exact propagation, and the
closed-form solver for registers whose cell operators are normal and
mutually commuting (pure dephasing).  All three read the one
``Liouvillian``: the closed form takes the register, the Hamiltonian and
the per-sector rates from it.

RK4 steps one of three generator forms, recorded as ``metadata["form"]``:
``dense`` (``Liouvillian.apply``, or one ``_DenseForm`` over the dense
generators of a sweep) and ``gamma`` on D x D states, and ``blocks``, the
packed excitation blocks of ``liouvillian.excitation_form``, unpacked to
D x D only for the sink.  The exact solver records ``blocks`` when it
exponentiates the generator on the packed blocks and ``dense`` for the
full superoperator.  Whether a generator keeps the blocks is
``Liouvillian.block_layout``'s rule; each solver only asks whether its
states are block-diagonal.

``evolve_into`` is the one entry point: every solver hands each snapshot,
checked once by ``check_state``, to a sink.  ``evolve`` stores them in
Trajectories, ``integrate`` is ``evolve`` of one state, and the CLI's
runner turns them into observables as they come.
"""

from __future__ import annotations

import sys
import warnings
from collections.abc import Iterable
from dataclasses import dataclass, field
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
    expm,
    expm_action,
    frob,
    hermiticity_defect,
    is_hermitian,
    kron_all,
    schur,
    unvec,
    vec,
)
from .liouvillian import (
    STRUCTURED_MIN_DIM,
    SUPEROP_MAX_DIM,
    Liouvillian,
    _DenseForm,
    add_elementwise_rates,
    drift_blocks,
    excitation_form,
    excitation_layout,
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
    <= 1e-9); construction fails otherwise (``check_state``).
    """

    times: np.ndarray
    states: np.ndarray
    metadata: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        s = np.asarray(self.states, dtype=complex)
        if s.ndim != 3 or s.shape[1] != s.shape[2]:
            raise DimensionMismatch(f"states must be (k, d, d), got {s.shape}")
        if t.ndim != 1 or t.shape[0] != s.shape[0]:
            raise DimensionMismatch("times and states lengths differ")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "states", s)
        for k in range(s.shape[0]):
            check_state(s[k])

    @classmethod
    def _prechecked(cls, times, states, metadata) -> Trajectory:
        """A Trajectory of snapshots ``check_state`` has already passed
        (``evolve``), built without checking them again."""
        traj = object.__new__(cls)
        for name, value in (("times", times), ("states", states), ("metadata", metadata)):
            object.__setattr__(traj, name, value)
        return traj

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


def snapshot_grid(
    t_end: float, dt: float, stride: int = DEFAULT_STRIDE
) -> tuple[float, np.ndarray]:
    """Step size h and the indices of the steps kept as snapshots.

    t_end is split into round(t_end / dt) equal steps, at least one when
    t_end > 0; step 0, every stride-th step and the final step are kept.

    Raises TooSmall/TooLarge, in this order, for a nonpositive dt, a
    negative t_end, a non-finite ratio, more than MAX_STEPS steps, or a
    stride that is not a whole number >= 1.
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
    n_steps = max(n_steps, 1) if t_end > 0 else 0
    # a fractional stride would keep times between steps
    if not (stride >= 1 and stride % 1 == 0):
        raise TooSmall(f"stride must be a whole number >= 1, got {stride}")
    h = t_end / n_steps if n_steps else 0.0
    steps = np.arange(0, n_steps + 1, stride)
    if steps[-1] != n_steps:
        steps = np.append(steps, n_steps)
    return h, steps


class _FullStack:
    """The (R, D, D) stack the dense and Gamma forms step, with ``apply``
    its generator's map."""

    def __init__(self, apply, form: str):
        self.apply, self.form = apply, form

    def pack(self, rhos):
        return np.stack(rhos)

    def stepper(self, rho):
        """(f, None, None, 0) for ``_Run.rk4``: f(x, out) = L(x), a new
        array, and no buffer kept for the run."""
        return (lambda x, out: self.apply(x)), None, None, 0

    def trace(self, rho):
        return rho.trace(axis1=1, axis2=2)

    def adjoint(self, rho, out):
        np.conjugate(rho.transpose(0, 2, 1), out=out)

    def unpack(self, states):
        return states


def _rk4_groups(liouv: Liouvillian, rhos) -> list:
    """(states, stack) of each RK4 run of a generator that steps alone.

    The block-diagonal states step together on the block form when
    ``excitation_form`` gives one (each state tested once).  The others
    step together on a dense form, or one by one on the Gamma form, whose
    apply is memory-bound.
    """
    blocks = excitation_form(liouv)
    on_blocks = [blocks is not None and blocks.layout.is_block_diagonal(r) for r in rhos]
    together = [s for s, b in enumerate(on_blocks) if b]
    rest = [s for s, b in enumerate(on_blocks) if not b]
    groups = [(together, blocks)] if together else []
    if liouv.structured:
        full = _FullStack(liouv.apply, "gamma")
        return groups + [([s], full) for s in rest]
    return groups + ([(rest, _FullStack(liouv.apply, "dense"))] if rest else [])


def _dense_stack(points) -> _FullStack:
    """The stack of the dense points ((index, generator) pairs, one K):
    one ``_DenseForm`` of them all, built for this run and not kept on the
    generators; a single generator steps through its own ``apply``, whose
    form it keeps for later calls."""
    if len(points) == 1:
        return _FullStack(points[0][1].apply, "dense")
    form = _DenseForm([(liouv.hamiltonian, liouv.lindblad) for _, liouv in points])
    return _FullStack(form.apply, "dense")


def _outside_level() -> int:
    """The ``stacklevel`` that makes a warning raised in the calling
    function name the first frame outside this module."""
    frame, level = sys._getframe(1), 1
    while frame is not None and frame.f_globals is globals():
        frame, level = frame.f_back, level + 1
    return level


class _Run:
    """One ``evolve_into`` call: the snapshot schedule, the D x D initial
    states, the sink and each generator's metadata per state."""

    def __init__(self, rhos, h: float, steps, stride: int, sink, named: bool):
        self.rhos, self.h, self.steps, self.stride = rhos, h, steps, stride
        self.sink, self.named = sink, named
        self.metas: list[list] = []

    def emit_stack(self, rows, k: int, snaps) -> None:
        """Check snapshot k of each row ((generator, index, state)) once,
        then hand it to the sink; ``snaps`` are their D x D snapshots in
        row order."""
        for (liouv, p, s), rho in zip(rows, snaps):
            check_state(rho)
            self.sink(liouv, p, s, k, rho)

    def rk4(self, points, states, stack) -> None:
        """Classical fixed-step RK4 on one stack: the initial states
        numbered ``states`` under each generator of ``points`` ((index,
        generator) pairs), point-major, all in one array.

        ``stack`` is the layout: the (R, D, D) stack of the dense and Gamma
        forms, or the packed excitation blocks of the block form, unpacked
        to D x D only for the sink, one state at a time.  Every stage input
        and the sum k1 + 2k2 + 2k3 + k4 are built in place, left to right,
        with the operations and operand order of stepping each state alone,
        so each state's snapshots are bitwise the single-state ones.  At
        most four stacks are live during an apply: the state, the stage
        input, the accumulated sum and the apply's result; the block form
        writes them into two stacks and the buffers kept for the run
        (``stack.stepper``).  The trace check, re-Hermitization,
        renormalization and ``error_estimate`` are per state.

        Each snapshot goes to the sink when its step is done, with two
        exceptions, kept packed: snapshot 0 waits for the first step's
        trace check, so a state whose trace is off is named with the step
        and state that drifted; and when all the run's snapshots take no
        more bytes than the buffers kept for it (a short block-form run),
        they wait until those buffers are freed.
        """
        h, steps = self.h, self.steps
        rows = [(liouv, p, s) for p, liouv in points for s in states]
        rho = stack.pack([self.rhos[s] for _, _, s in rows])
        n_steps = int(steps[-1])
        # no step, no buffers: a block form builds no tables for snapshot 0
        f, acc_out, k_out, kept_bytes = stack.stepper(rho) if n_steps else (None,) * 3 + (0,)
        hold = rho.nbytes * len(steps) <= kept_bytes
        pending = [rho.copy()]  # packed snapshots 0, 1, ... not yet emitted
        kept = 1
        half, sixth = 0.5 * h, h / 6.0
        stage = np.empty_like(rho)
        norm_shape = (len(rows),) + (1,) * (rho.ndim - 1)
        max_drift = [0.0] * len(rows)
        for k in range(1, n_steps + 1):
            acc = f(rho, acc_out)  # k1
            np.multiply(acc, half, out=stage)
            stage += rho
            kj = f(stage, k_out)  # k2
            np.multiply(kj, half, out=stage)
            stage += rho
            kj *= 2.0
            acc += kj
            del kj  # free k2 before k3 is allocated
            kj = f(stage, k_out)  # k3
            np.multiply(kj, h, out=stage)
            stage += rho
            kj *= 2.0
            acc += kj
            del kj
            acc += f(stage, k_out)  # k4
            acc *= sixth
            rho += acc
            tr = stack.trace(rho).tolist()
            drift = [abs(t - 1.0) for t in tr]
            worst = max(range(len(rows)), key=drift.__getitem__)
            if drift[worst] > TRACE_TOL:
                _, p, s = rows[worst]
                where = f"state {s} of generator {p}" if self.named else f"state {s}"
                raise UnstableStep(
                    f"trace drifted to {tr[worst]:.8f} at step {k} (t = {k * h:.6g}) "
                    f"in {where}; reduce dt"
                )
            max_drift = [max(m, d) for m, d in zip(max_drift, drift)]
            if pending and not hold:
                self.emit_stack(rows, 0, map(stack.unpack, pending.pop()))
            stack.adjoint(rho, stage)
            stage += rho
            stage *= 0.5
            np.divide(stage, np.array([t.real for t in tr]).reshape(norm_shape), out=rho)
            if k == steps[kept]:
                if hold:
                    pending.append(rho.copy())
                else:
                    self.emit_stack(rows, kept, map(stack.unpack, rho))
                kept += 1
        # free the stepping buffers before the held snapshots are unpacked
        f = acc = acc_out = k_out = stage = rho = None
        for k, packed in enumerate(pending):
            self.emit_stack(rows, k, map(stack.unpack, packed))
        for (_, p, s), drift in zip(rows, max_drift):
            self.metas[p][s] = {
                "method": "rk4",
                "form": stack.form,
                "dt": h,
                "n_steps": n_steps,
                "stride": self.stride,
                "error_estimate": drift,
            }

    def exact(self, p: int, liouv: Liouvillian) -> None:
        """All states at once, stacked as the columns of one matrix, with
        one propagator ``expm`` per distinct snapshot interval: on the
        packed excitation sector or through the full superoperator
        (``_exact_generator``).  Each snapshot is unpacked as it is made."""
        h, steps, d = self.h, self.steps, liouv.dim
        rhos = np.stack(self.rhos)
        layout, m = _exact_generator(liouv, rhos)
        if layout is None:
            # Column-stacked vec: entry j*d + i of a column is rho[i, j].
            cols = rhos.transpose(0, 2, 1).reshape(len(rhos), -1).T

            def unpack(cols):
                return cols.T.reshape(-1, d, d).swapaxes(1, 2)

        else:
            cols = layout.pack(rhos).T

            def unpack(cols):
                return layout.unpack(cols.T)

        rows = [(liouv, p, s) for s in range(len(rhos))]
        cols = np.ascontiguousarray(cols)
        self.emit_stack(rows, 0, unpack(cols))
        propagators: dict[int, np.ndarray] = {}
        for k, dk in enumerate(np.diff(steps).tolist(), start=1):
            if dk not in propagators:
                propagators[dk] = expm(m * (dk * h))
            cols = propagators[dk] @ cols
            self.emit_stack(rows, k, unpack(cols))
        form = "dense" if layout is None else "blocks"
        meta = {"method": "exact", "form": form, "dt": h, "n_steps": int(steps[-1])}
        self.metas[p] = [dict(meta) for _ in rows]

    def closed(self, p: int, liouv: Liouvillian) -> None:
        """The closed form (``dephasing_solve``), prepared once for all
        states."""
        closed, times = _closed_form(liouv), self.steps * self.h
        for s, rho in enumerate(self.rhos):
            for k, snap in enumerate(_closed_snapshots(closed, rho, times)):
                self.emit_stack([(liouv, p, s)], k, [snap])
        self.metas[p] = [{"method": "dephasing"} for _ in self.rhos]


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
    liouv: Liouvillian | Iterable[Liouvillian],
    rho0s,
    t_end: float,
    dt: float,
    stride: int = DEFAULT_STRIDE,
    method: str = "rk4",
) -> list:
    """Evolve each initial state (vector or density matrix, from any
    iterable) on the one snapshot_grid schedule under one ``Liouvillian``,
    or under each of a sequence of them with one D; returns one Trajectory
    per state, in input order, or that list per generator.

    ``evolve_into`` with a sink that stores every snapshot: its checks
    stand, so the Trajectories are not checked again.
    """
    h, steps = snapshot_grid(t_end, dt, stride)
    times = steps * h
    rho0s = list(rho0s)  # the sink sizes the store by len(rho0s)
    stored: dict[int, np.ndarray] = {}

    def store(liouv, p, s, k, rho):
        if p not in stored:
            stored[p] = np.empty((len(rho0s), len(times)) + rho.shape, dtype=complex)
        stored[p][s, k] = rho

    metas = evolve_into(liouv, rho0s, store, t_end, dt, stride, method)
    trajs = [
        [Trajectory._prechecked(times.copy(), stored[p][s], meta) for s, meta in enumerate(point)]
        for p, point in enumerate(metas)
    ]
    return trajs[0] if isinstance(liouv, Liouvillian) else trajs


def evolve_into(
    liouvs: Liouvillian | Iterable[Liouvillian],
    rho0s,
    sink,
    t_end: float,
    dt: float,
    stride: int = DEFAULT_STRIDE,
    method: str = "rk4",
) -> list[list[dict]]:
    """Evolve each initial state (vector or density matrix) under one
    ``Liouvillian``, or under each of an iterable of them with one D, on
    the one snapshot_grid schedule, and hand every snapshot to ``sink``
    once ``check_state`` has passed it:

        sink(liouv, p, s, k, rho)

    with ``liouv`` the p-th generator and ``rho`` the D x D snapshot k of
    initial state s, valid only during the call (it may be a view of the
    stepping stack).  Returns each generator's metadata, one dict per
    state, in input order.

    ``rk4`` steps the dense generators below STRUCTURED_MIN_DIM that have
    the same number K of terms as one stack of all their states (P
    generators, S states: a (P S, D, D) stack, ``_DenseForm``).  Any other
    generator steps alone, and is dropped before the next one is drawn,
    so an iterable that builds each generator on demand (as the CLI's
    runner passes) never holds two of them at D >= STRUCTURED_MIN_DIM: the
    block-diagonal states together on the block form (module docstring)
    when the generator allows it, and the others together on a dense
    generator or one by one on the structured one, whose Gamma-form apply
    is memory-bound.  Each state's snapshots are bitwise the ones stepping
    that state alone under its generator gives.  ``exact`` advances all
    states at once, stacked as the columns of one matrix, with one
    propagator per distinct snapshot interval (D <= 64), the NumPy
    ``linalg.expm`` of the generator times that interval: on the packed
    excitation sector when ``liouv.block_layout`` holds and every state is
    block-diagonal, ``form == "blocks"``, otherwise through the D^2 x D^2
    ``superoperator_matrix``, ``"dense"``.  ``dephasing`` is the closed
    form (``dephasing_solve``), read from each generator like the others
    and prepared once for all states.
    """
    h, steps = snapshot_grid(t_end, dt, stride)
    if method not in ("rk4", "exact", "dephasing"):
        raise QregError(f"unknown method {method!r}; use rk4, exact or dephasing")
    single = isinstance(liouvs, Liouvillian)
    generators = iter([liouvs] if single else liouvs)
    run, dim = None, None
    dense: dict[int, list] = {}  # K -> (index, generator) of the dense points
    while (liouv := next(generators, None)) is not None:
        if run is None:
            dim = liouv.dim
            rhos = [_as_density(r, dim) for r in rho0s]
            run = _Run(rhos, h, steps, stride, sink, not single)
        elif liouv.dim != dim:
            raise DimensionMismatch(f"generator {len(run.metas)} has D = {liouv.dim}, not {dim}")
        p = len(run.metas)
        run.metas.append([None] * len(run.rhos))
        # dense forms below STRUCTURED_MIN_DIM, where P of them take little
        # memory, wait to step as one stack; a hand-built set above runs alone
        if method == "rk4" and run.rhos and not liouv.structured and dim < STRUCTURED_MIN_DIM:
            _check_step(liouv, h, steps)
            dense.setdefault(len(liouv.lindblad), []).append((p, liouv))
        else:
            _alone(run, method, p, liouv)
        liouv = None  # drop it before the next one is built
    for points in dense.values():
        run.rk4(points, list(range(len(run.rhos))), _dense_stack(points))
    return [] if run is None else run.metas


def _check_step(liouv: Liouvillian, h: float, steps) -> None:
    """Warn when h * ``stability_scale`` exceeds STABILITY_BUDGET; the
    scale is read only when there is a step, as it may take a dense
    eigvalsh."""
    if steps[-1] and h * liouv.stability_scale > STABILITY_BUDGET:
        warnings.warn(
            f"dt * spectral scale = {h * liouv.stability_scale:.3g} exceeds "
            f"{STABILITY_BUDGET}; results may be inaccurate",
            RuntimeWarning,
            stacklevel=_outside_level(),
        )


def _alone(run: _Run, method: str, p: int, liouv: Liouvillian) -> None:
    """Run the p-th generator by itself; its forms die with this call."""
    if method == "exact":
        check_method(method, liouv.lindblad.model, liouv.hamiltonian)
        if run.rhos:
            run.exact(p, liouv)
    elif run.rhos and method == "dephasing":
        run.closed(p, liouv)
    elif run.rhos:
        _check_step(liouv, run.h, run.steps)
        for states, stack in _rk4_groups(liouv, run.rhos):
            run.rk4([(p, liouv)], states, stack)


def _exact_generator(liouv: Liouvillian, rhos: np.ndarray):
    """(layout, M): the matrix the exact solver exponentiates.  M is the
    C(2N, N)-square generator on the packed sector of
    ``liouv.block_layout`` (``_sector_generator``) when that is not None
    and no state in ``rhos`` has an entry between different excitation
    numbers (exact zeros); otherwise layout is None and M the D^2 x D^2
    ``superoperator_matrix``."""
    layout = liouv.block_layout
    if layout is not None and all(layout.is_block_diagonal(r) for r in rhos):
        return layout, _sector_generator(liouv, layout)
    return None, superoperator_matrix(liouv)


def _sector_generator(liouv: Liouvillian, layout):
    """The matrix M with M pack(rho) = pack(L(rho)) on the packed sector of
    ``layout``, from the term blocks (``LindbladSet.excitation_blocks``)
    and the drift blocks B_q of ``drift_blocks``, the block form's own.

    Packing is row-major, so pack(A X C) = (A (x) C^T) pack(X).  The terms
    J_k of a sector, mapping S_q to S_{q+s}, add sum_k lambda_k J_k (x)
    conj(J_k) to the (q + s, q) block of M, one product per q; the diagonal
    block q is -(B_q (x) I + I (x) conj(B_q)).
    """
    at = [slice(o, o + w * w) for o, w in zip(layout.offsets, layout.sizes)]
    m = np.zeros((layout.size, layout.size), dtype=complex)
    excitation = liouv.lindblad.excitation_blocks()
    for shift, rates, blocks in excitation.values():
        rates = rates[:, None, None]
        for q, j in blocks.items():  # j: (K, C(N, q + s), C(N, q))
            n_terms, rows, cols = j.shape
            weighted = (rates * j).reshape(n_terms, -1)
            conj = j.conj().reshape(n_terms, -1)
            # sum_k lambda_k J_k[a, b] conj(J_k[c, d]) at ((a, c), (b, d))
            kron = (weighted.T @ conj).reshape(rows, cols, rows, cols).transpose(0, 2, 1, 3)
            m[at[q + shift], at[q]] += kron.reshape(rows * rows, cols * cols)
    for q, b in enumerate(drift_blocks(liouv.hamiltonian, layout, excitation)):
        i = np.arange(b.shape[0])
        block = m[at[q], at[q]].reshape((len(i),) * 4)  # [a, c, b, d] at ((a, c), (b, d))
        block[:, i, :, i] -= b  # B (x) I
        block[i, :, i, :] -= b.conj()  # I (x) conj(B)
    return m


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

    Returns None, except for dephasing: (w, frame, h), the cell
    operator's eigenvalues, the register's unitary eigenbasis frame (None
    when it is the identity) and H in that frame.
    """
    if method == "exact":
        d = model.dim if hamiltonian is None else hamiltonian.shape[0]
        if d > SUPEROP_MAX_DIM:
            raise TooLarge(
                f"the exact method needs D <= {SUPEROP_MAX_DIM}, got D = {d}"
            )
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
    states = np.stack(list(_closed_snapshots(_closed_form(liouv), rho, t)))
    return Trajectory(times=t, states=states, metadata={"method": "dephasing"})


def _closed_form(liouv: Liouvillian):
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


def _closed_snapshots(closed, rho: np.ndarray, t: np.ndarray):
    """The snapshots of the D x D state ``rho`` at the times t under the
    closed form ``closed`` (``_closed_form``), one at a time."""
    frame, c = closed
    if frame is not None:  # to the joint eigenbasis
        rho = dag(frame) @ rho @ frame
    for tk in t:
        s = rho * np.exp(c * float(tk))
        yield s if frame is None else frame @ s @ dag(frame)


def state_defect_report(rho: np.ndarray) -> dict[str, float]:
    """Trace, positivity, and Hermiticity defects of a density matrix.

    When D is a power of two and at least STRUCTURED_MIN_DIM (read at call
    time), and rho is exactly zero between different excitation numbers
    (the blocks of ``excitation_layout(log2 D)``), the smallest eigenvalue
    is the smallest over the blocks: the spectrum of a block-diagonal
    matrix is the union of its blocks' spectra, whatever the matrix.
    Otherwise the whole matrix is diagonalized.
    """
    rho = np.asarray(rho, dtype=complex)
    herm = hermiticity_defect(rho)
    d = rho.shape[0]
    qubits = d >= STRUCTURED_MIN_DIM and d & (d - 1) == 0  # D = 2^N
    layout = excitation_layout(d.bit_length() - 1) if qubits else None
    packed = None if layout is None else layout.pack(rho)
    # block-diagonal: packing dropped no nonzero entry
    if packed is not None and np.count_nonzero(rho) == np.count_nonzero(packed):
        eig_min = min(
            np.linalg.eigvalsh(0.5 * (b + dag(b))).min()
            for b in layout.blocks(packed)
        )
    else:
        eig_min = np.linalg.eigvalsh(0.5 * (rho + dag(rho))).min()
    return {
        "trace_defect": abs(complex(np.trace(rho)) - 1.0),
        "min_eigenvalue": float(eig_min),
        "hermiticity_defect": float(herm),
    }


def check_state(rho: np.ndarray) -> None:
    """Raise UnstableStep unless rho satisfies the state invariants:
    |tr - 1| <= 1e-8, min eigenvalue >= -1e-7, Hermiticity defect <= 1e-9.
    A large block-diagonal rho is diagonalized block by block
    (``state_defect_report``).
    """
    rep = state_defect_report(rho)
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
