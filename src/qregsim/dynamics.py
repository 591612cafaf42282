"""Time evolution: fixed-step integration, exact propagation, and the
closed-form solver for registers whose cell operators are normal and
mutually commuting (pure dephasing).  All three read the one
``Liouvillian``: the closed form takes the register, the Hamiltonian and
the per-sector rates from it.

``plan`` is the one rule for which form each run takes and what it costs:
per generator, the groups of initial states that run together, each
group's form (recorded as ``metadata["form"]``), the entries of one of its
states and a byte estimate, computed without building a generator, layout
or table.  RK4 steps ``dense`` (``Liouvillian.apply``, or one
``_DenseForm`` over the dense generators of a sweep) and ``gamma`` groups
on D x D states and ``blocks`` groups on the packed excitation blocks
(``liouvillian._BlockForm``); the exact solver exponentiates the
generator on the packed sector (``blocks``) or the full superoperator
(``dense``); ``dephasing`` is the closed form.  ``evolve_into`` runs the
plan, and checks each group's bytes (``check_budget``) before it packs a
state; the CLI sizes a run at load from the same plan.

Initial state vectors stay vectors until a group needs their D x D: the
block form packs psi psi^+ block by block; the dense, Gamma, exact and
closed-form groups build the D x D matrix.

``evolve_into`` is the one entry point: every solver hands each snapshot,
checked once by ``check_state``, to a sink.  The check takes the stack of
all states' snapshot k at once and certifies it with one Cholesky
factorization per block, shifted by just under 1e-7; only a stack the
certificate fails is diagonalized (``eigvalsh``), state by state, for the
verdict and the message.  A packed snapshot is checked on its blocks and
goes to the sink packed, with its layout, in float64 from a real block
run; the observables take it as it is.  ``evolve``
unpacks and stores them in Trajectories, ``integrate`` is ``evolve`` of
one state, and the CLI's runner turns them into observables as they
come.
"""

from __future__ import annotations

import sys
import warnings
from collections.abc import Iterable
from dataclasses import dataclass, field
from math import comb, prod
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
    exact_diagonal,
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
    LindbladSet,
    Liouvillian,
    _BlockForm,
    _DenseForm,
    _sector_cell_op,
    add_elementwise_rates,
    block_buffers,
    check_budget,
    drift_blocks,
    excitation_layout,
    form_bytes,
    superoperator_matrix,
)
from .register import (
    RegisterModel,
    _on_blocks,
    excitation_sectors,
    register_energies,
    register_hamiltonian,
)

# A step is flagged as unstable once the trace drifts beyond this bound.
TRACE_TOL = 1e-6
# Warn when dt * (spectral scale) exceeds this, signalling a too-coarse grid.
STABILITY_BUDGET = 0.1
# Default snapshot stride: keep every tenth accepted step.
DEFAULT_STRIDE = 10
# Most steps one schedule may hold; snapshot_grid raises TooLarge beyond it.
MAX_STEPS = 10**7
METHODS = ("rk4", "exact", "dephasing")
# D x D complex arrays the exact solver holds at most: the generator, the
# propagator of the first interval and the scaled generator of the second,
# and six in ``linalg.expm``.
EXPM_MATRICES = 9


@dataclass(frozen=True)
class Trajectory:
    """Snapshots of a density-matrix evolution on a uniform time grid.

    Every stored state must satisfy the density-matrix invariants
    (|tr - 1| <= 1e-8, min eigenvalue >= -1e-7, Hermiticity defect
    <= 1e-9); construction fails otherwise.  The (k, d, d) stack is
    checked in one ``check_state``: certified by one Cholesky per block
    for all snapshots, with ``eigvalsh`` only when that fails.
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
        check_state(s)

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


def _as_state(rho0: np.ndarray, dim: int) -> np.ndarray:
    """rho0 as a complex state vector of length dim or a dim x dim matrix."""
    rho = np.asarray(rho0, dtype=complex)
    if rho.ndim == 1:
        if rho.shape[0] != dim:
            raise DimensionMismatch(
                f"state vector has length {rho.shape[0]}, expected {dim}"
            )
    elif rho.shape != (dim, dim):
        raise DimensionMismatch(
            f"state must be {dim}x{dim}, got {rho.shape}"
        )
    return rho


def _density(state: np.ndarray) -> np.ndarray:
    """The D x D density matrix of a state from ``_as_state``."""
    return np.outer(state, state.conj()) if state.ndim == 1 else state


def _as_density(rho0: np.ndarray, dim: int) -> np.ndarray:
    return _density(_as_state(rho0, dim))


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


@dataclass(frozen=True)
class Group:
    """One run of a ``plan``: the initial states it takes together (their
    indices), the form it runs on, which their trajectories record as
    ``metadata["form"]``, and the bytes the run is estimated to need at
    its peak, the generator's Hamiltonian included.  A ``stacked`` group
    steps in one stack with the stacked groups of the other generators
    with its number of terms; its bytes are this generator's share.  A
    ``real`` group, always ``blocks``, steps in float64: the plan found
    that its run stays real (``_stays_real``)."""

    states: tuple[int, ...]
    form: str
    bytes: int
    stacked: bool = False
    real: bool = False


def plan(generator: Liouvillian | LindbladSet, states, method: str = "rk4") -> list[Group]:
    """The runs ``evolve_into`` makes of ``states`` (vectors or D x D
    matrices) under ``generator``, a ``Liouvillian`` or, at load, the
    ``LindbladSet`` of one whose H' is the register's own with any Lamb
    shift: the one rule for which form each state runs on and what the run
    costs, whatever its number of snapshots.  It builds no generator,
    layout or table.

    * ``rk4``: ``dense``, all states in one stack, for a set that is not
      ``structured``, ``stacked`` with the other generators of its K below
      STRUCTURED_MIN_DIM.  For a structured set, ``blocks``, the states
      with no entry between different excitation numbers Q on the packed
      blocks, when the generator keeps Q and no Q shift is 0 (c sigma-+
      cells, whose one entry c the block form carries); and ``gamma``,
      one run per other state.  The block states run as two
      groups at most: the ``real`` one, the states with no nonzero
      imaginary part when the generator keeps real states real
      (``_stays_real``), stepped in float64, and the others, in complex
      arithmetic.  A state never steps in a stack of the other dtype, so
      stacked stays bitwise equal to alone.
    * ``exact`` (TooLarge beyond D = SUPEROP_MAX_DIM): ``blocks``, all
      states on the C(2N, N) packed sector, when the generator keeps Q and
      every state has no entry between different Q; otherwise ``dense``,
      the D^2 x D^2 superoperator.
    * ``dephasing``: the closed form, all states.

    The generator keeps Q when its register has qubit cells whose sector
    operators each move Q by one fixed amount (``LindbladSet._q_shifts``)
    and H' is exactly zero between different Q.  The register's own H is,
    with any Lamb shift, when the cell Hamiltonian is diagonal and any
    interaction has no entry between different Q: always for sigma-
    cells, whose register checks the step condition and that an
    interaction commutes with S^z and S^+.  A state vector has no such
    entry when its nonzero entries share one Q.  States are tested only
    where the rule reads them, each once.  A ``LindbladSet`` whose bath
    has a Lamb shift (``LindbladSet.has_lamb_shift``) is taken to have
    complex block runs, as the load check cannot read the shift's blocks:
    its estimate is then an upper bound.
    """
    if method not in METHODS:
        raise QregError(f"unknown method {method!r}; use rk4, exact or dephasing")
    liouv = generator if isinstance(generator, Liouvillian) else None
    lindblad = generator if liouv is None else liouv.lindblad
    model = lindblad.model
    dim = model.dim if liouv is None else liouv.dim
    if method == "exact" and dim > SUPEROP_MAX_DIM:
        raise TooLarge(f"the exact method needs D <= {SUPEROP_MAX_DIM}, got D = {dim}")
    everyone, matrix, n = tuple(range(len(states))), 16 * dim * dim, getattr(model, "n_cells", 0)
    if not everyone or method == "dephasing":
        return [Group(everyone, "dephasing", 10 * matrix)] if everyone else []
    if method == "rk4" and not lindblad.structured:
        need = _rk4_bytes(lindblad, dim, len(states))
        return [Group(everyone, "dense", need, dim < STRUCTURED_MIN_DIM)]
    keeps = lindblad._q_shifts is not None and model.dim == dim and _keeps_q(model, liouv)
    if method == "exact":  # the generator, expm's arrays and the operators or, per q,
        # X, conj(X) and G conj(X) of the move blocks, at most N C(N, N/2)^2 each
        sector = keeps and all(_on_blocks(s, n) for s in states)
        size = comb(2 * n, n) if sector else dim * dim
        terms = 3 * n * comb(n, n // 2) ** 2 if sector else len(lindblad) * dim * dim
        need = 16 * (EXPM_MATRICES * size**2 + terms) + (4 + 3 * len(states)) * matrix
        return [Group(everyone, "blocks" if sector else "dense", need)]
    blocks = keeps and all(lindblad._q_shifts.values())  # sigma_z cells: shift 0
    on = [s for s in everyone if blocks and _on_blocks(states[s], n)]
    real = [s for s in on if not np.any(np.imag(states[s]))]
    if not (real and _stays_real(lindblad, liouv)):
        real = []
    parts = ((real, True), ([s for s in on if s not in real], False))
    groups = [
        Group(tuple(p), "blocks", _block_bytes(lindblad, len(p), r), real=r) for p, r in parts if p
    ]
    single = _rk4_bytes(lindblad, dim, 1)
    return groups + [Group((s,), "gamma", single) for s in everyone if s not in on]


def run_bytes(plans) -> int:
    """Estimated peak bytes of one ``evolve_into`` call, from the ``plan``
    of each generator: the stacked groups' bytes summed, as their
    generators wait to step together, plus the largest other group."""
    groups = [g for groups in plans for g in groups]
    alone = max((g.bytes for g in groups if not g.stacked), default=0)
    return sum(g.bytes for g in groups if g.stacked) + alone


def _keeps_q(model: RegisterModel, liouv: Liouvillian | None) -> bool:
    """Whether H', ``liouv``'s (``hamiltonian_keeps_q``) or with ``liouv``
    None the register's own with any Lamb shift, keeps Q (``plan``)."""
    if liouv is not None:
        return liouv.hamiltonian_keeps_q
    if exact_diagonal(model.cell_hamiltonian) is None:  # a Lamb shift keeps Q
        return False
    return model.interaction is None or _on_blocks(model.interaction, model.n_cells)


def _stays_real(lindblad: LindbladSet, liouv: Liouvillian | None) -> bool:
    """Whether the block form of this generator maps real states to real
    ones (``plan``): every sector's G is real (``LindbladSet.gammas``),
    and H', ``liouv``'s or with ``liouv`` None the register's own with any
    Lamb shift, is diagonal with one real energy per Q, so that
    iH_q = i c_q I cancels in -B_q rho_q - rho_q B_q^+.  The register's
    own H is, with no Lamb shift, when its interaction is: its cells'
    diagonal H^C gives every state of one Q the same energy."""
    if any(np.iscomplexobj(g) for g in lindblad.gammas.values()):
        return False
    model = lindblad.model
    if liouv is None:
        if lindblad.has_lamb_shift or np.any(np.diagonal(model.cell_hamiltonian).imag):
            return False
        if model.interaction is None:
            return True
    energies = exact_diagonal(model.interaction) if liouv is None else liouv.hamiltonian_diagonal
    if energies is None or np.any(energies.imag):
        return False
    return all(np.all(energies[s] == energies[s[0]]) for s in excitation_sectors(model.n_cells)[0])


def _rk4_bytes(lindblad: LindbladSet, dim: int, n_states: int) -> int:
    """RK4 of n_states D x D states on the dense or Gamma form: the form
    and its applies (``form_bytes``), the Hamiltonian, five stacks (the
    state, snapshot 0, the stage input, the sum and a stage) and the three
    D x D arrays of a snapshot's check."""
    return form_bytes(lindblad, dim, n_states) + (4 + 5 * n_states) * 16 * dim * dim


def _block_bytes(lindblad: LindbladSet, n_states: int, real: bool = False) -> int:
    """RK4 of n_states states on the block form of the set's N qubits,
    the larger of its two phases, with entries of 8 bytes for a ``real``
    run and 16 otherwise.  Both phases keep the Hamiltonian, the layout's
    index table and the packed states.  Building the drift
    (``drift_blocks``, complex either way) adds the packed drift with its
    adjoint and, while it is built, the N x N pair masks and digit tables
    of the D basis states and the indices and values of one sector's
    N (N - 1) 2^(N - 2) hops (the build alone peaks at 0.56 MB at N = 8,
    4.8 MB at N = 10 and 54 MB at N = 12 traced, 0.8-0.9 times its share
    here).  Stepping adds the int32 gather tables (N C(2N, N - 1) entries
    for X_i per Q shift of a sector with terms, as many at most for the
    terms) and the intp copy ``np.take`` makes of one chunk's table, the
    drift and, unless real, its adjoint (a real one's is a view), six
    packed stacks (snapshot 0, the stage input, the two output stacks and
    two for temporaries), the buffers kept for the run
    (``block_buffers``), a packed array for a snapshot's check and the
    sink's blocks of H, complex (``Liouvillian.hamiltonian_blocks``).
    Every snapshot but 0 goes to the sink as its step ends (``_Run.rk4``),
    so the count of snapshots adds nothing."""
    n, shifts, entry = lindblad.model.n_cells, lindblad._q_shifts.values(), 8 if real else 16
    dim, size, half = 2**n, comb(2 * n, n), comb(2 * n, n - 1)
    hops = n * (n - 1) * dim // 4
    shapes = block_buffers(n, shifts, n_states)
    buffers = sum(prod(shape) for shape in shapes.values())
    casts = 8 * max((prod(shapes[k]) for k in ("x", "terms") if k in shapes), default=0) // n_states
    stack = n_states * size
    drift = 16 * 2 * size + dim * (3 * n * n + n + 48) + 112 * hops
    tables = 8 * n * half * len(shifts) + casts
    drift_kept = size if real else 2 * size
    stepping = tables + entry * (drift_kept + 6 * stack + buffers + size) + 16 * size
    return 16 * dim * dim + 8 * size + entry * stack + max(drift, stepping)


class _FullStack:
    """The (R, D, D) stack the dense and Gamma forms step, with ``apply``
    its generator's map; it has no packed layout."""

    layout = None

    def __init__(self, apply, form: str):
        self.apply, self.form = apply, form

    def pack(self, states):
        return np.stack([_density(s) for s in states])

    def stepper(self, rho):
        """(f, None, None) for ``_Run.rk4``: f(x, out) = L(x), a new array;
        no buffer is kept for the run."""
        return (lambda x, out: self.apply(x)), None, None

    def trace(self, rho):
        return rho.trace(axis1=1, axis2=2)

    def adjoint(self, rho, out):
        np.conjugate(rho.transpose(0, 2, 1), out=out)


def _outside_level() -> int:
    """The ``stacklevel`` that makes a warning raised in the calling
    function name the first frame outside this module."""
    frame, level = sys._getframe(1), 1
    while frame is not None and frame.f_globals is globals():
        frame, level = frame.f_back, level + 1
    return level


class _Run:
    """One ``evolve_into`` call: the method, the snapshot schedule, the
    initial states (vectors or D x D, as given: a group that needs a D x D
    state builds it, ``_density``), the sink and each generator's metadata
    per state."""

    def __init__(self, method: str, rhos, h: float, steps, stride: int, sink, named: bool):
        self.method, self.rhos, self.h, self.steps, self.stride = method, rhos, h, steps, stride
        self.sink, self.named = sink, named
        self.metas: list[list] = []

    def run(self, points, group: Group) -> None:
        """Run one group of a plan under ``points``, (index, generator)
        pairs: one, or the generators of a dense stack, whose form is built
        for this run and not kept on them (one generator steps through its
        own ``apply``, which keeps its form for later calls).  Each form
        dies with this call."""
        p, liouv = points[0]
        if group.form == "dephasing":
            self.closed(p, liouv)
        elif self.method == "exact":
            self.exact(p, liouv, group.form)
        else:
            if group.form == "blocks":
                stack = _BlockForm(liouv, float if group.real else complex)
            elif len(points) > 1:
                form = _DenseForm([(g.hamiltonian, g.lindblad) for _, g in points])
                stack = _FullStack(form.apply, group.form)
            else:
                stack = _FullStack(liouv.apply, group.form)
            self.rk4(points, group.states, stack)

    def emit_stack(self, rows, k: int, snaps, layout=None) -> None:
        """Check snapshot k of every row ((generator, index, state)) in one
        ``check_state`` of the stack, then hand each to the sink with
        ``layout``; ``snaps`` is their stack in row order, (R, D, D)
        (``layout`` None), or packed on ``layout``, (S, M)."""
        check_state(snaps, layout)
        for (liouv, p, s), rho in zip(rows, snaps):
            self.sink(liouv, p, s, k, rho, layout)

    def rk4(self, points, states, stack) -> None:
        """Classical fixed-step RK4 on one stack: the initial states
        numbered ``states`` under each generator of ``points`` ((index,
        generator) pairs), point-major, all in one array.

        ``stack`` is the layout: the (R, D, D) stack of the dense and Gamma
        forms, or the packed excitation blocks of the block form, complex or
        float64 (``Group.real``), whose snapshots are checked and handed to
        the sink packed.  Every array below takes the dtype of the packed
        states.  Every stage
        input and the sum k1 + 2k2 + 2k3 + k4 are built in place, left to
        right, with the operations and operand order of stepping each state
        alone, so each state's snapshots are bitwise the single-state ones.
        At most four stacks are live during an apply: the state, the stage
        input, the accumulated sum and the apply's result; the block form
        writes them into two stacks and the buffers kept for the run
        (``stack.stepper``).  The trace check, re-Hermitization,
        renormalization and ``error_estimate`` are per state.

        Each snapshot goes to the sink when its step is done, except
        snapshot 0, kept packed until the first step's trace check, so a
        state whose trace is off is named with the step and state that
        drifted; a run with no step emits it after the loop.
        """
        h, steps = self.h, self.steps
        rows = [(liouv, p, s) for p, liouv in points for s in states]
        rho = stack.pack([self.rhos[s] for _, _, s in rows])
        n_steps = int(steps[-1])
        # no step, no buffers: a block form builds no tables for snapshot 0
        f, acc_out, k_out = stack.stepper(rho) if n_steps else (None,) * 3
        pending = [rho.copy()]  # snapshot 0, until the first trace check
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
            if pending:
                self.emit_stack(rows, 0, pending.pop(), stack.layout)
            stack.adjoint(rho, stage)
            stage += rho
            stage *= 0.5
            np.divide(stage, np.array([t.real for t in tr]).reshape(norm_shape), out=rho)
            if k == steps[kept]:
                self.emit_stack(rows, kept, rho, stack.layout)
                kept += 1
        for packed in pending:
            self.emit_stack(rows, 0, packed, stack.layout)
        for (_, p, s), drift in zip(rows, max_drift):
            self.metas[p][s] = {
                "method": "rk4",
                "form": stack.form,
                "dt": h,
                "n_steps": n_steps,
                "stride": self.stride,
                "error_estimate": drift,
            }

    def exact(self, p: int, liouv: Liouvillian, form: str) -> None:
        """All states at once, stacked as the columns of one matrix, with
        one propagator ``expm`` per distinct snapshot interval: on the
        packed excitation sector (``blocks``, ``_sector_generator``) or
        through the full superoperator (``dense``).  The sector packs the
        states as the block form does (``_BlockForm.pack``: a vector with no
        D x D), and each snapshot is unpacked as it is made."""
        h, steps, d = self.h, self.steps, liouv.dim
        if form == "blocks":
            stack = _BlockForm(liouv)
            layout, cols = stack.layout, stack.pack(self.rhos).T
            m = _sector_generator(liouv, layout)
            unpack = lambda cols: layout.unpack(cols.T)  # noqa: E731
        else:
            m = superoperator_matrix(liouv)
            cols = np.stack([vec(_density(r)) for r in self.rhos], axis=1)  # rho[i, j] at j*d + i
            unpack = lambda cols: cols.T.reshape(-1, d, d).swapaxes(1, 2)  # noqa: E731
        rows = [(liouv, p, s) for s in range(len(self.rhos))]
        cols = np.ascontiguousarray(cols)
        self.emit_stack(rows, 0, unpack(cols))
        propagators: dict[int, np.ndarray] = {}
        for k, dk in enumerate(np.diff(steps).tolist(), start=1):
            if dk not in propagators:
                propagators[dk] = expm(m * (dk * h))
            cols = propagators[dk] @ cols
            self.emit_stack(rows, k, unpack(cols))
        meta = {"method": "exact", "form": form, "dt": h, "n_steps": int(steps[-1])}
        self.metas[p] = [dict(meta) for _ in rows]

    def closed(self, p: int, liouv: Liouvillian) -> None:
        """The closed form (``dephasing_solve``), prepared once for all
        states."""
        closed, times = _closed_form(liouv), self.steps * self.h
        for s, state in enumerate(self.rhos):
            for k, snap in enumerate(_closed_snapshots(closed, _density(state), times)):
                self.emit_stack([(liouv, p, s)], k, snap[None])
        self.metas[p] = [{"method": "dephasing", "form": "dephasing"} for _ in self.rhos]


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

    ``evolve_into`` with a sink that stores every snapshot, a packed one
    unpacked to D x D: its checks stand, so the Trajectories are not
    checked again.  Each generator's store of D x D snapshots passes
    ``check_budget``, with the stores already held, before it is
    allocated; for one ``Liouvillian``, before the run.
    """
    h, steps = snapshot_grid(t_end, dt, stride)
    times = steps * h
    rho0s = list(rho0s)  # the sink sizes the store by len(rho0s)
    stored: dict[int, np.ndarray] = {}

    def check_store(dim: int) -> None:  # a new store next to the ones held
        need = (len(stored) + 1) * 16 * len(rho0s) * len(times) * dim * dim
        check_budget(need, "snapshot store of evolve needs")

    if isinstance(liouv, Liouvillian):
        check_store(liouv.dim)

    def store(liouv, p, s, k, rho, layout):
        if p not in stored:
            check_store(liouv.dim)
            stored[p] = np.empty((len(rho0s), len(times), liouv.dim, liouv.dim), dtype=complex)
        stored[p][s, k] = rho if layout is None else layout.unpack(rho)

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

        sink(liouv, p, s, k, rho, layout)

    with ``liouv`` the p-th generator and ``rho`` snapshot k of initial
    state s, valid only during the call (it may be a view of the stepping
    stack): D x D with ``layout`` None, or, on the block form, its packed
    blocks on ``layout`` (an ``ExcitationBlocks``), which the observables
    and ``check_state`` take with ``layout=``, and ``layout.unpack`` turns
    into the D x D matrix.  Packed blocks are float64 when the plan runs
    the group real (``Group.real``), complex otherwise.  Returns each
    generator's metadata, one dict per state, in input order.

    Each generator runs its ``plan``: the one rule for which form each
    state runs on, and the bytes each run needs, which ``check_budget``
    passes before the run packs a state.  The plan's forms are the
    trajectories' ``metadata["form"]``.  Stacked dense groups wait and
    step as one (P S, D, D) stack of all their states (``_DenseForm``),
    one stack per number K of terms; every other group runs at once, and
    each generator is dropped before the next one is drawn, so an iterable
    that builds each generator on demand (as the CLI's runner passes)
    never holds two of them at D >= STRUCTURED_MIN_DIM.  Each state's RK4
    snapshots are bitwise the ones stepping that state alone under its
    generator gives.  ``exact`` advances all states at once, stacked as
    the columns of one matrix, with one propagator per distinct snapshot
    interval, the NumPy ``linalg.expm`` of the generator times that
    interval.  ``dephasing`` is the closed form (``dephasing_solve``),
    read from each generator like the others and prepared once for all
    states.
    """
    h, steps = snapshot_grid(t_end, dt, stride)
    single = isinstance(liouvs, Liouvillian)
    run, stacks = None, {}  # K -> (index, generator, group) of the stacked points
    for p, liouv in enumerate([liouvs] if single else liouvs):
        if run is None:
            rhos = [_as_state(r, liouv.dim) for r in rho0s]
            run, dim = _Run(method, rhos, h, steps, stride, sink, not single), liouv.dim
        elif liouv.dim != dim:
            raise DimensionMismatch(f"generator {p} has D = {liouv.dim}, not {dim}")
        run.metas.append([None] * len(run.rhos))
        groups = plan(liouv, run.rhos, method)
        if method == "rk4" and groups:
            _check_step(liouv, h, steps)
        for group in groups:
            if group.stacked:
                stacks.setdefault(len(liouv.lindblad), []).append((p, liouv, group))
            else:
                check_budget(group.bytes, f"{method} run on the {group.form} form needs")
                run.run([(p, liouv)], group)
        liouv = None  # drop it before the next one is built
    for points in stacks.values():
        need = run_bytes([[g for _, _, g in points]])
        check_budget(need, f"{method} run on the dense form needs")
        run.run([(p, liouv) for p, liouv, _ in points], points[0][2])
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


def _sector_generator(liouv: Liouvillian, layout):
    """The matrix M with M pack(rho) = pack(L(rho)) on the packed sector of
    ``layout``, from each sector's G (``LindbladSet.gammas``), the blocks
    X_i of its cell operator on each cell (``ExcitationBlocks.move_blocks``)
    and the drift blocks B_q of ``drift_blocks``, the block form's own.

    Packing is row-major, so pack(A X C) = (A (x) C^T) pack(X).  A sector
    of Q shift s adds sum_ij G_ij X_i (x) conj(X_j), which is
    sum_k lambda_k J_k (x) conj(J_k) for its terms J_k = sum_i u_ki X_i,
    to the (q + s, q) block of M, one product per q; the diagonal block q
    is -(B_q (x) I + I (x) conj(B_q)).
    """
    at = [slice(o, o + w * w) for o, w in zip(layout.offsets, layout.sizes)]
    m = np.zeros((layout.size, layout.size), dtype=complex)
    for sector, g in liouv.lindblad.gammas.items():
        shift = liouv.lindblad._q_shifts[sector]
        for q, x in layout.move_blocks(_sector_cell_op(liouv.lindblad.model, sector), shift):
            n, rows, cols = x.shape
            xs = x.reshape(n, -1)
            # sum_ij G_ij X_i[a, b] conj(X_j[c, d]) at ((a, c), (b, d))
            kron = (xs.T @ (g @ xs.conj())).reshape(rows, cols, rows, cols).transpose(0, 2, 1, 3)
            m[at[q + shift], at[q]] += kron.reshape(rows * rows, cols * cols)
    for q, b in enumerate(drift_blocks(liouv.hamiltonian_blocks, liouv.lindblad, layout)):
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


def dephasing_check(model: RegisterModel, liouv: Liouvillian | None = None):
    """Raise unless the dephasing method can run ``liouv``, a generator of
    ``model`` (default: one whose H is the register's own): a normal cell
    operator (``dephasing_frame``) and an H diagonal in its eigenbasis, as
    a Lamb shift always is there (NotSimultaneouslyDiagonalizable).
    Returns (w, frame, e): the cell operator's eigenvalues, the unitary
    eigenbasis frame (None for the identity, where a diagonal H is read
    with no D x D array: ``Liouvillian.hamiltonian_diagonal``, or with no
    generator ``register_energies``) and H's diagonal there."""
    w, v = dephasing_frame(model)
    frame = None if np.allclose(v, np.eye(model.cell_dim)) else kron_all([v] * model.n_cells)
    e = register_energies(model) if liouv is None else liouv.hamiltonian_diagonal
    if frame is None and e is not None:
        return w, None, e
    h = register_hamiltonian(model) if liouv is None else liouv.hamiltonian
    if frame is not None:
        h = dag(frame) @ h @ frame
    # The closed form holds only for an H diagonal in the joint frame.
    if frob(h - np.diag(np.diag(h))) > 1e-10 * max(1.0, frob(h)):
        raise NotSimultaneouslyDiagonalizable(
            "the generator's Hamiltonian is not diagonal in the cell-op eigenbasis"
        )
    return w, frame, np.diag(h)


def dephasing_frame(model: RegisterModel) -> tuple[np.ndarray, np.ndarray]:
    """Return (w, v) with w the cell-op eigenvalues and v a unitary frame
    in which the cell operator is diagonal.

    Requires the cell operator to be normal; otherwise the register is not
    simultaneously diagonalizable and the closed form does not apply
    (NotSimultaneouslyDiagonalizable).  Reads only the d x d cell operator,
    so it rules a register out before its Hamiltonian is built.
    """
    a = np.asarray(model.cell_op, dtype=complex)
    if (w := exact_diagonal(a)) is not None:
        # Already diagonal (sigma_z): the identity frame, so no D x D
        # change of basis.
        return w.copy(), np.eye(model.cell_dim)
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
    meta = {"method": "dephasing", "form": "dephasing"}
    return Trajectory(times=t, states=states, metadata=meta)


def _closed_form(liouv: Liouvillian):
    """(frame, C) of ``dephasing_solve`` for ``liouv``: the joint
    eigenbasis frame (None when it is the identity) and the D x D matrix C
    of the exponents in that frame."""
    lset = liouv.lindblad
    if lset.sectors is None:
        raise QregError(
            "the dephasing method needs a canonical Lindblad set (canonical_form)"
        )
    w_cell, frame, e = dephasing_check(lset.model, liouv)
    c = 1j * (e.real[None, :] - e.real[:, None])  # element (b, b') rotates as e^{i(E'-E)t}
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


def state_defect_report(rho: np.ndarray, layout=None) -> dict[str, float]:
    """Trace, positivity, and Hermiticity defects of a density matrix: a
    D x D ``rho``, or, when ``layout`` (an ``ExcitationBlocks``) is given,
    the packed blocks of one, reported from its blocks (``_packed_report``).

    When D is a power of two and at least STRUCTURED_MIN_DIM (read at call
    time), and a D x D rho is exactly zero between different excitation
    numbers (``_on_blocks``), the smallest eigenvalue is the smallest over
    its blocks, packed only then (``_block_eig_min``).
    Otherwise the whole matrix is diagonalized.
    """
    if layout is not None:
        return _packed_report(rho, layout)
    rho = np.asarray(rho, dtype=complex)
    herm = hermiticity_defect(rho)
    d = rho.shape[0]
    n = d.bit_length() - 1
    if d >= STRUCTURED_MIN_DIM and d == 2**n and _on_blocks(rho, n):
        layout = excitation_layout(n)
        eig_min = _block_eig_min(layout.pack(rho), layout)
    else:
        eig_min = np.linalg.eigvalsh(0.5 * (rho + dag(rho))).min()
    return {
        "trace_defect": abs(complex(np.trace(rho)) - 1.0),
        "min_eigenvalue": float(eig_min),
        "hermiticity_defect": float(herm),
    }


def _block_eig_min(packed: np.ndarray, layout) -> float:
    """The smallest eigenvalue of the Hermitian part of a block-diagonal
    matrix, from its packed blocks: the spectrum of a block-diagonal
    matrix is the union of its blocks' spectra, whatever the matrix."""
    return min(np.linalg.eigvalsh(0.5 * (b + dag(b))).min() for b in layout.blocks(packed))


def _packed_report(packed: np.ndarray, layout) -> dict[str, float]:
    """``state_defect_report`` of a block-diagonal matrix from its packed
    blocks, with no D x D array: the trace from the packed diagonal, the
    Hermiticity defect from packed - adjoint(packed), which holds every
    nonzero entry of rho - rho^+, and the smallest eigenvalue block by
    block."""
    skew = np.empty_like(packed)
    layout.adjoint(packed, skew)
    np.subtract(packed, skew, out=skew)
    return {
        "trace_defect": abs(complex(layout.trace(packed)) - 1.0),
        "min_eigenvalue": float(_block_eig_min(packed, layout)),
        "hermiticity_defect": frob(skew),
    }


def check_state(rho: np.ndarray, layout=None) -> None:
    """Raise UnstableStep unless every state of rho satisfies the state
    invariants: |tr - 1| <= 1e-8, min eigenvalue >= -1e-7, Hermiticity
    defect <= 1e-9.  rho is one state or a stack of them: D x D or
    (R, D, D), or with ``layout`` packed blocks, (M,) or (S, M); complex
    or real.

    The whole stack is certified first, with no eigenvalue (``_certified``):
    one Cholesky factorization per block for all states at once.  Only
    when the certificate fails is each state checked in turn on its
    ``state_defect_report``, whose ``eigvalsh`` gives the number in the
    message, so a failing stack raises the text of its first failing
    state.  A large block-diagonal D x D rho is factorized, and on failure
    diagonalized, block by block.
    """
    rho = np.asarray(rho)
    states = rho[None] if rho.ndim == (2 if layout is None else 1) else rho
    if _certified(states, layout):
        return
    for state in states:
        rep = state_defect_report(state, layout)
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


# The certificate's Cholesky shift, 1e-7 less a margin of 1e-9: half of it
# bounds how far the factorized triangle's Hermitian matrix is from
# rho_q's Hermitian part (half the Hermiticity defect), the other half
# Cholesky's backward error, m (m + 1) eps ||rho_q|| for an m x m block
# (Higham, Accuracy and Stability of Numerical Algorithms, thm. 10.3),
# which covers m <= CERTIFY_MAX_ROWS: ||rho_q|| stays near 1, as the trace
# is 1 and every block is certified nearly positive.
CERTIFY_SHIFT = 1e-7 - 1e-9
CERTIFY_MAX_ROWS = 2000
# A defect within this fraction of its bound is left to the report: its
# sums may round differently from the certificate's.
CERTIFY_SLACK = 1e-3


def _certified(rhos: np.ndarray, layout=None) -> bool:
    """Whether every state of the stack ``rhos`` surely passes
    ``check_state``, shown with no eigenvalue.  False means only that the
    certificate does not hold.

    The trace defects, per state, and the Hermiticity defects, summed in
    quadrature over the states (a bound on each), are computed from the
    entries ``state_defect_report`` reads and must lie within
    CERTIFY_SLACK of their bounds.  Each block of rho_q + CERTIFY_SHIFT I, taken over all
    states at once (one ``np.linalg.cholesky`` per block; a 1 x 1 block by
    a plain comparison), must then factorize: every eigenvalue of rho_q's
    Hermitian part exceeds -1e-7 (the shift's note), and the spectrum of a
    block-diagonal rho is the union of its blocks'.  A packed stack is
    taken block by block; a D x D one below STRUCTURED_MIN_DIM (read at
    call time) as one block; above it, one state at a time, on its blocks
    when it has no entry between different excitation numbers
    (``_on_blocks``) and as one block otherwise.  Every temporary is one
    block stack or one packed state."""
    if rhos.dtype not in (np.float64, np.complex128) or rhos.size == 0:
        return False
    if layout is not None:
        if rhos.ndim != 2 or rhos.shape[1] != layout.size:
            return False
        return _certify(layout.blocks(rhos), layout.trace(rhos))
    if rhos.ndim != 3 or rhos.shape[1] != rhos.shape[2]:
        return False
    d = rhos.shape[1]
    if d < STRUCTURED_MIN_DIM:
        return _certify([rhos], np.trace(rhos, axis1=1, axis2=2))
    n = d.bit_length() - 1
    for rho in rhos:
        if d == 2**n and _on_blocks(rho, n):
            layout = excitation_layout(n)
            if not _certified(layout.pack(rho)[None], layout):
                return False
        elif not _certify([rho[None]], np.trace(rho)[None]):
            return False
    return True


def _certify(blocks, traces: np.ndarray) -> bool:
    """``_certified`` of the states whose blocks are ``blocks``, each an
    (S, m, m) stack, and whose traces are ``traces``."""
    if not all(abs(t - 1.0) <= 1e-8 * (1 - CERTIFY_SLACK) for t in traces.tolist()):
        return False
    herm = 0.0
    for block in blocks:
        states, m = block.shape[0], block.shape[-1]
        if m > CERTIFY_MAX_ROWS:
            return False
        work = np.empty(block.shape, dtype=block.dtype)
        np.copyto(work, block.swapaxes(1, 2))
        if work.dtype == np.complex128:
            np.conjugate(work, out=work)
        np.subtract(block, work, out=work)
        skew = work.reshape(-1).view(np.float64)
        herm += float(np.dot(skew, skew))
        if m == 1:  # the Hermitian part of a 1 x 1 block is its real part
            if not np.all(block.real > -CERTIFY_SHIFT):
                return False
            continue
        np.copyto(work, block)
        work.reshape(states, -1)[:, :: m + 1] += CERTIFY_SHIFT
        try:
            np.linalg.cholesky(work)
        except np.linalg.LinAlgError:
            return False
    return herm <= (1e-9 * (1 - CERTIFY_SLACK)) ** 2
