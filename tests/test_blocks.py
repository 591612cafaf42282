"""Excitation-number blocks: the third generator form, which RK4 steps on
the C(2N, N) packed block entries of block-diagonal qubit states.  Checked
against the Gamma form, the dense generator and the independent pairwise
dissipator; stacked against per-state integration, bit for bit, and
against the Gamma-form trajectory; the one rule ``block_layout`` and the
fallbacks; the block-by-block eigenvalue check of ``check_state``; and the
exact solver on the excitation sector against ``propagate_exact``, with
its fallbacks, and its generator against the column build and the
pairwise dissipator."""

import tracemalloc
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qregsim import (
    build_liouvillian,
    cell_limit,
    dicke_state,
    evolve,
    exponential_decay,
    expcli,
    gauge_phased,
    integrate,
    pair_singlet_state,
    pairwise_dissipator,
    propagate_exact,
)
from qregsim import dynamics, liouvillian
from qregsim.dynamics import Trajectory, check_state, state_defect_report
from qregsim.errors import UnstableStep
from qregsim.liouvillian import (
    ExcitationBlocks,
    LindbladSet,
    LindbladTerm,
    Liouvillian,
    excitation_form,
    excitation_layout,
)
from qregsim.register import (
    SIGMA_MINUS,
    SIGMA_PLUS,
    dephasing_register,
    embed_cell_op,
    excitation_numbers,
    heisenberg_ring,
    qubit_register,
)

from helpers import (
    random_bath,
    random_density_matrix,
    random_phases,
    random_pure_state,
    rng_for,
)
from test_stacked import reference_rk4
from test_structured import crossover, random_operator, with_lamb_shift

TOL = 1e-12


def block_diagonal(rho: np.ndarray) -> np.ndarray:
    """rho with every entry between different excitation numbers zeroed."""
    q = excitation_numbers(int(np.log2(rho.shape[0])))
    return np.where(q[:, None] == q[None, :], rho, 0)


def block_apply(liouv, rho: np.ndarray) -> np.ndarray:
    form = excitation_form(liouv)
    assert form is not None and form.layout.is_block_diagonal(rho)
    layout = form.layout
    packed = layout.pack(rho)[None]
    f, out, _, _ = form.stepper(packed)
    return layout.unpack(f(packed, out))[0]


def assert_forms_agree(model, spec, rng) -> None:
    """block apply = Gamma form = dense = pairwise dissipator + H term, to
    TOL relative, on a non-Hermitian block-diagonal input; the block form
    leaves the off-block part exactly zero."""
    with crossover(1):
        structured = build_liouvillian(model, spec)
        rho = block_diagonal(random_operator(rng, model.dim))
        got = block_apply(structured, rho)
    with crossover(10**9):
        dense = build_liouvillian(model, spec)
    h = structured.hamiltonian
    want = dense.apply(rho)
    scale = max(1.0, float(np.abs(want).max()))
    for other in (
        structured.apply(rho),
        want,
        pairwise_dissipator(model, spec, rho) - 1j * (h @ rho - rho @ h),
    ):
        assert np.abs(got - other).max() <= TOL * scale
    assert np.array_equal(got, block_diagonal(got))


@given(
    seed=st.integers(0, 10_000),
    n=st.integers(1, 5),
    plus=st.booleans(),
    phased=st.booleans(),
    lamb=st.booleans(),
)
def test_blocks_match_every_route(seed, n, plus, phased, lamb):
    rng = rng_for(seed)
    spec = random_bath(rng, n, with_plus=plus)
    if phased:
        spec = gauge_phased(spec, random_phases(rng, n))
    if lamb:
        spec = with_lamb_shift(spec, rng.uniform(-1.0, 1.0))
    assert_forms_agree(qubit_register(n), spec, rng)


@given(seed=st.integers(0, 10_000), n=st.integers(3, 5), lamb=st.booleans())
def test_blocks_with_heisenberg_ring(seed, n, lamb):
    rng = rng_for(seed)
    model = qubit_register(n, interaction=heisenberg_ring(n, rng.uniform(-1, 1)))
    spec = random_bath(rng, n)
    if lamb:
        spec = with_lamb_shift(spec, rng.uniform(-1.0, 1.0))
    assert_forms_agree(model, spec, rng)


@settings(max_examples=6)
@given(seed=st.integers(0, 10_000), phased=st.booleans())
def test_blocks_at_the_native_crossover(seed, phased):
    rng = rng_for(seed)
    n = 6
    spec = with_lamb_shift(random_bath(rng, n), 0.4)
    if phased:
        spec = gauge_phased(spec, random_phases(rng, n))
    liouv = build_liouvillian(qubit_register(n), spec)
    rho = block_diagonal(random_operator(rng, liouv.dim))
    want = liouv.apply(rho)
    assert np.abs(block_apply(liouv, rho) - want).max() <= TOL * max(1.0, np.abs(want).max())


@pytest.mark.parametrize("ring", [False, True])
def test_blocks_without_a_lindblad_sector(ring):
    # A zero-rate bath leaves no sector: the block form is the drift iH alone.
    rng = rng_for(f"no-sector-{ring}")
    for n in (3, 4, 5, 6):
        model = qubit_register(n, interaction=heisenberg_ring(n, 0.3) if ring else None)
        spec = cell_limit(n, 0.0, 0.0)
        assert_forms_agree(model, spec, rng)
    liouv = build_liouvillian(model, spec)
    assert len(liouv.lindblad) == 0
    assert form_of(liouv, pair_singlet_state(n)) == "blocks"


@pytest.mark.parametrize("n", [1, 2, 5, 8])
def test_layout(n):
    layout = excitation_layout(n)
    assert excitation_layout(n) is layout and not layout.full.flags.writeable
    assert layout.size == comb(2 * n, n)
    assert [len(s) for s in layout.states] == [comb(n, q) for q in range(n + 1)]
    rng = rng_for(f"layout-{n}")
    rho = block_diagonal(random_operator(rng, 2**n))
    packed = layout.pack(rho)
    assert np.array_equal(layout.unpack(packed), rho)
    assert layout.trace(packed) == pytest.approx(np.trace(rho), abs=1e-12)
    out = np.empty_like(packed)
    layout.adjoint(packed, out)
    assert np.array_equal(out, layout.pack(rho.conj().T))
    for q, block in enumerate(layout.blocks(packed)):
        assert np.array_equal(block, rho[np.ix_(layout.states[q], layout.states[q])])


def test_pack_does_not_copy_its_table():
    # np.take copies a read-only index array on every call; pack (and
    # trace) index with the writeable base of the read-only full view.
    layout = excitation_layout(8)
    rho = np.stack([block_diagonal(random_operator(rng_for(f"pack-{s}"), 256)) for s in range(2)])
    layout.pack(rho)  # warm up
    tracemalloc.start()
    try:
        packed = layout.pack(rho)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= packed.nbytes + 4096  # the copy of full would be 103 KB
    assert packed.flags.c_contiguous
    assert np.array_equal(packed, np.stack([r.reshape(-1)[layout.full] for r in rho]))
    assert np.array_equal(layout.trace(packed), [p[layout.diagonal].sum() for p in packed])


def block_states(rng, n: int) -> list:
    """Singlet pairs, a Dicke state and a random block-diagonal mixture."""
    return [
        pair_singlet_state(n),
        dicke_state(n, n // 2 + 1),
        block_diagonal(random_density_matrix(rng, 2**n)),
    ]


@pytest.mark.parametrize("ring, lamb", [(False, False), (True, True)])
def test_block_evolve_is_per_state_integrate_and_the_gamma_trajectory(ring, lamb, monkeypatch):
    rng = rng_for(f"block-evolve-{ring}-{lamb}")
    n = 6
    model = qubit_register(n, interaction=heisenberg_ring(n, 0.3) if ring else None)
    spec = random_bath(rng, n)
    if lamb:
        spec = with_lamb_shift(spec, 0.5)
    liouv = build_liouvillian(model, spec)
    rho0s = block_states(rng, n)
    trajs = evolve(liouv, rho0s, 0.1, 0.02, 2, "rk4")
    for rho0, traj in zip(rho0s, trajs):
        assert traj.metadata["form"] == "blocks"
        alone = integrate(liouv, rho0, 0.1, 0.02, 2)
        assert traj.times.tobytes() == alone.times.tobytes()
        assert traj.metadata == alone.metadata
        assert traj.states.tobytes() == alone.states.tobytes()
    monkeypatch.setattr(dynamics, "excitation_form", lambda liouv: None)
    gamma = evolve(liouv, rho0s, 0.1, 0.02, 2, "rk4")
    for rho0, traj, other in zip(rho0s, trajs, gamma):
        assert other.metadata["form"] == "gamma"
        snaps, drift = reference_rk4(liouv, rho0, 0.1, 0.02, 2)
        for got, want, expr in zip(traj.states, other.states, snaps):
            assert np.abs(got - want).max() <= TOL
            assert np.abs(got - expr).max() <= TOL
            assert np.array_equal(got, block_diagonal(got))
        assert abs(traj.metadata["error_estimate"] - drift) <= TOL


def test_block_tables_are_built_by_evolve_alone(monkeypatch):
    calls = []
    moves = ExcitationBlocks.moves
    monkeypatch.setattr(
        ExcitationBlocks, "moves", lambda self, s: calls.append(s) or moves(self, s)
    )
    excitation_layout.cache_clear()  # tables an earlier test built go with it
    liouv = build_liouvillian(qubit_register(8), exponential_decay(8, 0.1, 0.02, 1.0))
    assert calls == []
    psi = dicke_state(8, 4)
    for _ in range(2):
        assert evolve(liouv, [psi], 0.02, 0.02, 1)[0].metadata["form"] == "blocks"
    # one table per sector, kept with the layout for every later call
    assert calls == [-1, 1]


def form_of(liouv, rho0) -> str:
    return evolve(liouv, [rho0], 0.04, 0.02, 1)[0].metadata["form"]


def test_fallbacks():
    rng = rng_for("fallbacks")
    n = 6
    spec = random_bath(rng, n)
    liouv = build_liouvillian(qubit_register(n), spec)
    model = qubit_register(n)
    assert form_of(liouv, expcli.build_state("uniform", model)) == "gamma"
    amplitudes = tuple((float(a.real), float(a.imag)) for a in random_pure_state(rng, 2**n))
    assert form_of(liouv, expcli.build_state(amplitudes, model)) == "gamma"
    assert form_of(liouv, expcli.build_state("symmetric", model)) == "blocks"
    # sigma_z dephasing and three-level cells
    dephasing = build_liouvillian(dephasing_register(n), spec)
    assert form_of(dephasing, pair_singlet_state(n)) == "gamma"
    three = dephasing_register(4, cell_op=random_operator(rng, 3))
    with crossover(1):
        qutrits = build_liouvillian(three, random_bath(rng, 4))
        assert qutrits.lindblad.structured
        assert form_of(qutrits, np.eye(81)[0]) == "gamma"
    # an H that moves Q, on a block-diagonal state
    h = random_operator(rng, 2**n)
    mixing = Liouvillian(hamiltonian=0.01 * (h + h.conj().T), lindblad=liouv.lindblad)
    assert form_of(mixing, pair_singlet_state(n)) == "gamma"
    # below the crossover the dense form runs
    small = build_liouvillian(qubit_register(4), random_bath(rng, 4))
    assert form_of(small, pair_singlet_state(4)) == "dense"


def rule_case(case: str, n: int) -> Liouvillian:
    """A generator of n cells for each kind of case the block rule sorts."""
    sigma_x = SIGMA_PLUS + SIGMA_MINUS
    bath = exponential_decay(n, 0.1, 0.03, 1.5)
    if case == "minus":
        return build_liouvillian(qubit_register(n), exponential_decay(n, 0.1, 0.0, 1.5))
    if case == "lamb":
        bath = exponential_decay(n, 0.1, 0.03, 1.5, delta_ratio=0.5)
    if case == "phased":
        bath = gauge_phased(bath, random_phases(rng_for(f"rule-{n}"), n))
    model = {
        "ring": qubit_register(n, interaction=heisenberg_ring(n, 0.3)),
        "sigma_z": dephasing_register(n),
        "sigma_x": dephasing_register(n, cell_op=sigma_x),
    }.get(case, qubit_register(n))
    liouv = build_liouvillian(model, bath)
    if case == "hand_built":  # operators without weights or register
        terms = (LindbladTerm(t.rate, t.op, t.sector) for t in liouv.lindblad)
        return Liouvillian(hamiltonian=liouv.hamiltonian, lindblad=LindbladSet(tuple(terms)))
    if case == "h_moves_q":
        h = liouv.hamiltonian + 0.3 * embed_cell_op(model, 1, sigma_x)
        return Liouvillian(hamiltonian=h, lindblad=liouv.lindblad)
    return liouv


@pytest.mark.parametrize(
    "case, kept",
    [("minus", True), ("plus", True), ("lamb", True), ("phased", True), ("ring", True),
     ("sigma_z", True), ("sigma_x", False), ("hand_built", False), ("h_moves_q", False)],
)
def test_block_layout_is_the_one_rule(case, kept):
    """block_layout is set exactly when exact (N = 4) runs a Dicke state on
    the sector and RK4 (N = 6) on blocks; RK4 also needs sigma- cells."""
    small, large = rule_case(case, 4), rule_case(case, 6)
    assert (small.block_layout is not None) == (large.block_layout is not None) == kept
    exact = evolve(small, [dicke_state(4, 2)], 0.04, 0.02, 1, "exact")[0]
    assert exact.metadata["form"] == ("blocks" if kept else "dense")
    rk4 = form_of(large, dicke_state(6, 3))
    if kept and case != "sigma_z":
        assert rk4 == "blocks"
    else:
        assert rk4 == ("gamma" if large.structured else "dense")


def test_a_stack_with_one_mixing_state_steps_each_state_alone():
    rng = rng_for("mixed-stack")
    liouv = build_liouvillian(qubit_register(6), random_bath(rng, 6))
    trajs = evolve(liouv, [dicke_state(6, 3), random_pure_state(rng, 64)], 0.04, 0.02, 1)
    assert [t.metadata["form"] for t in trajs] == ["blocks", "gamma"]


def test_a_mixed_set_builds_the_block_form_once_and_keeps_input_order(monkeypatch):
    rng = rng_for("mixed-set")
    n = 6
    model = qubit_register(n)
    liouv = build_liouvillian(model, random_bath(rng, n))
    rho0s = [expcli.build_state(name, model) for name in ("singlet", "uniform", "symmetric")]
    built = []

    class Counted(liouvillian._BlockForm):
        def __init__(self, *args):
            built.append(1)
            super().__init__(*args)

    monkeypatch.setattr(liouvillian, "_BlockForm", Counted)
    trajs = evolve(liouv, rho0s, 0.06, 0.02, 2)
    assert len(built) == 1
    assert [t.metadata["form"] for t in trajs] == ["blocks", "gamma", "blocks"]
    for rho0, traj in zip(rho0s, trajs):
        alone = evolve(liouv, [rho0], 0.06, 0.02, 2)[0]
        assert traj.metadata == alone.metadata
        assert traj.times.tobytes() == alone.times.tobytes()
        assert traj.states.tobytes() == alone.states.tobytes()


def block_state(n: int, rng) -> np.ndarray:
    return block_diagonal(random_density_matrix(rng, 2**n))


def message(rho) -> str:
    with pytest.raises(UnstableStep) as info:
        check_state(rho)
    return str(info.value)


def unblocked(check, rho):
    """check(rho) with the whole matrix diagonalized."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(dynamics, "STRUCTURED_MIN_DIM", 2**62)
        return check(rho)


def count_eigvalsh(monkeypatch) -> list:
    seen = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda m: seen.append(m.shape) or eigvalsh(m))
    return seen


def block_sizes(n: int) -> list:
    return [(comb(n, q),) * 2 for q in range(n + 1)]


@pytest.mark.parametrize("n", [6, 7])
def test_block_check_reports_as_the_full_check(n):
    rng = rng_for(f"block-check-{n}")
    layout = excitation_layout(n)
    rho = block_state(n, rng)
    full, blocked = unblocked(state_defect_report, rho), state_defect_report(rho)
    assert blocked["trace_defect"] == full["trace_defect"]
    assert blocked["hermiticity_defect"] == full["hermiticity_defect"]
    assert abs(blocked["min_eigenvalue"] - full["min_eigenvalue"]) <= 1e-14
    check_state(rho)
    assert message(1.1 * rho) == unblocked(message, 1.1 * rho)
    skew = rho.copy()
    s = layout.states[1]
    skew[s[0], s[-1]] += 1e-6
    assert "hermiticity defect" in message(skew)
    assert message(skew) == unblocked(message, skew)


@pytest.mark.parametrize("q", [0, 1, 2])
def test_negative_eigenvalue_inside_one_block(q, monkeypatch):
    n = 6
    rng = rng_for(f"negative-{q}")
    s = excitation_layout(n).states[q]
    rho = block_state(n, rng)
    w, v = np.linalg.eigh(rho[np.ix_(s, s)])
    # push the block's lowest eigenvalue to -1e-3
    rho[np.ix_(s, s)] -= (w[0] + 1e-3) * np.outer(v[:, 0], v[:, 0].conj())
    rho /= np.trace(rho).real
    seen = count_eigvalsh(monkeypatch)
    text = message(rho)
    assert seen == block_sizes(n)
    assert text.startswith("negative eigenvalue") and text == unblocked(message, rho)


def test_an_off_block_entry_triggers_the_full_check(monkeypatch):
    n = 6
    layout = excitation_layout(n)
    rho = np.zeros((64, 64), dtype=complex)
    a, b = layout.states[1][0], layout.states[2][0]
    rho[a, a] = rho[b, b] = 0.5
    seen = count_eigvalsh(monkeypatch)
    check_state(rho)
    assert seen == block_sizes(n)
    # blocks of [[0.5, 0.6], [0.6, 0.5]] between the two states: eigenvalue -0.1
    rho[a, b] = rho[b, a] = 0.6
    seen.clear()
    assert message(rho).startswith("negative eigenvalue -1.000e-01")
    assert seen == [(64, 64)]


def test_below_the_crossover_check_state_diagonalizes_once(monkeypatch):
    # D = 32 < STRUCTURED_MIN_DIM: one full eigvalsh, and no layout built
    monkeypatch.setattr(dynamics, "excitation_layout", lambda n: pytest.fail("layout built"))
    seen = count_eigvalsh(monkeypatch)
    psi = dicke_state(5, 2)
    check_state(np.outer(psi, psi.conj()))
    assert seen == [(32, 32)]


def test_trajectory_checks_block_by_block(monkeypatch):
    n = 6
    rng = rng_for("trajectory-blocks")
    states = np.stack([block_state(n, rng), block_state(n, rng)])
    seen = count_eigvalsh(monkeypatch)
    Trajectory(times=np.array([0.0, 1.0]), states=states)
    assert seen == block_sizes(n) * 2


def test_rk4_metadata_names_the_form():
    rng = rng_for("forms")
    dense = build_liouvillian(qubit_register(2), random_bath(rng, 2))
    traj = evolve(dense, [pair_singlet_state(2)], 0.04, 0.02, 1)[0]
    assert traj.metadata["form"] == "dense"
    exact = evolve(dense, [pair_singlet_state(2)], 0.04, 0.02, 1, "exact")[0]
    assert exact.metadata["form"] == "blocks"


def test_large_rk4_workload_takes_the_block_form(monkeypatch):
    raw = {
        "experiment": "simulate",
        "register": {"n": 8, "kind": "qubit"},
        "bath": {"model": "exponential", "gamma_minus": 0.1, "gamma_plus": 0.02, "xi": 1.0},
        "initial_states": ["singlet", "symmetric"],
        "solver": {"method": "rk4", "dt": 0.02, "t_end": 0.04, "stride": 1},
        "output": {"name": "large"},
    }
    forms = []
    real = dynamics.evolve_into

    def spy(*args, **kwargs):
        metas = real(*args, **kwargs)
        forms.extend(m["form"] for point in metas for m in point)
        return metas

    monkeypatch.setattr(expcli, "evolve_into", spy)
    applies = []
    apply = Liouvillian.apply
    monkeypatch.setattr(Liouvillian, "apply", lambda self, rho: applies.append(1) or apply(self, rho))
    table = expcli.run_simulate(expcli.config_from_dict(raw))
    assert forms == ["blocks", "blocks"] and applies == []
    assert table.values.shape == (3, 7)


# The exact solver on the excitation sector: C(2N, N)-square generator,
# assembled from the terms' excitation blocks, instead of the D^2 x D^2
# superoperator, when the states and H are block-diagonal.


def assert_exact_is_propagate_exact(liouv, states, form: str) -> None:
    trajs = evolve(liouv, states, 1.0, 0.1, stride=4, method="exact")
    for psi, traj in zip(states, trajs):
        assert traj.metadata["form"] == form
        for t, state in zip(traj.times, traj.states):
            ref = propagate_exact(liouv, psi, float(t))
            assert np.abs(state - ref).max() <= TOL


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("register", [qubit_register, dephasing_register])
def test_exact_sector_is_propagate_exact(register, n):
    rng = rng_for(f"exact-sector-{register.__name__}-{n}")
    liouv = build_liouvillian(
        register(n), exponential_decay(n, 0.1, 0.03, 1.5, delta_ratio=0.5)
    )
    states = [dicke_state(n, n // 2), dicke_state(n, n), block_state(n, rng)]
    assert_exact_is_propagate_exact(liouv, states, "blocks")


@pytest.mark.parametrize("case", ["h_moves_q", "state_moves_q"])
def test_exact_falls_back_to_the_superoperator(case):
    n = 3
    model = qubit_register(n)
    liouv = build_liouvillian(model, exponential_decay(n, 0.1, 0.02, 1.0))
    states = [dicke_state(n, 1)]
    if case == "h_moves_q":
        # sigma_x on one cell: the states are block-diagonal, the images not
        sigma_x = SIGMA_PLUS + SIGMA_MINUS
        h = liouv.hamiltonian + 0.3 * embed_cell_op(model, 1, sigma_x)
        liouv = Liouvillian(hamiltonian=h, lindblad=liouv.lindblad)
    else:
        states.append(np.full(2**n, 2 ** (-n / 2), dtype=complex))  # uniform
    assert_exact_is_propagate_exact(liouv, states, "dense")


@pytest.mark.parametrize(
    "min_dim, sizes", [(64, [(16, 16)]), (16, [(comb(4, q),) * 2 for q in range(5)])]
)
def test_exact_checks_snapshots_per_block_from_the_crossover(min_dim, sizes, monkeypatch):
    liouv = build_liouvillian(qubit_register(4), exponential_decay(4, 0.1, 0.02, 1.0))
    monkeypatch.setattr(dynamics, "STRUCTURED_MIN_DIM", min_dim)
    seen = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda m: seen.append(m.shape) or eigvalsh(m))
    traj = evolve(liouv, [dicke_state(4, 2)], 0.2, 0.1, stride=1, method="exact")[0]
    assert traj.metadata["form"] == "blocks"
    assert seen == sizes * len(traj)


@pytest.mark.parametrize("n, sizes", [(6, [comb(6, q) for q in range(7)]), (4, [16])])
def test_dephasing_checks_snapshots_per_block(n, sizes, monkeypatch):
    liouv = build_liouvillian(dephasing_register(n), exponential_decay(n, 0.1, 0.02, 1.0))
    uniform = np.full(2**n, 2 ** (-n / 2), dtype=complex)
    seen = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda m: seen.append(m.shape[0]) or eigvalsh(m))
    block, mixing = evolve(liouv, [dicke_state(n, 2), uniform], 1.0, 0.5, 1, "dephasing")
    # the uniform state's snapshots are not block-diagonal: full checks
    assert seen == sizes * len(block) + [2**n] * len(mixing)


def test_exact_sweep_workload_takes_the_sector(monkeypatch):
    raw = {
        "experiment": "simulate",
        "register": {"n": 4, "kind": "qubit"},
        "bath": {"model": "exponential", "gamma_minus": 0.1, "gamma_plus": 0.02, "xi": 1.0},
        "initial_states": ["singlet", "symmetric"],
        "solver": {"method": "exact", "dt": 0.01, "t_end": 10.0, "stride": 100},
        "sweep": {"parameter": "bath.xi", "values": [1.0, 10.0]},
        "output": {"name": "exact_sweep"},
    }

    def refuse(liouv):
        raise AssertionError("the full superoperator was built")

    monkeypatch.setattr(dynamics, "superoperator_matrix", refuse)
    table = expcli.run_simulate(expcli.config_from_dict(raw))
    assert table.provenance["solver"]["forms"] == [["blocks", "blocks"]] * 2
    assert table.values.shape == (11, 13)


def sector_columns(liouv, layout: ExcitationBlocks) -> np.ndarray:
    """The sector generator column by column: pack(L(unpack(e_j))) for the
    packed units e_j, through Liouvillian.apply in chunks of 64 units."""
    units = np.eye(layout.size, dtype=complex)
    return np.concatenate(
        [layout.pack(liouv.apply(layout.unpack(units[j : j + 64]))) for j in range(0, layout.size, 64)]
    ).T


def test_block_sector_generator_is_the_column_build():
    """M from the term blocks = the column build from Liouvillian.apply =
    the pairwise dissipator plus the H term on random block-diagonal
    states, to TOL relative: sigma- and sigma_z registers at N = 2-6, with
    gamma+ = 0 and > 0, a Lamb shift and a gauge-phased bath."""
    rng = rng_for("sector-generator")
    variants = [(False, 0.0, False), (True, 0.5, False), (True, -0.7, True)]
    cases = [(n, v) for n in (2, 3, 4) for v in variants] + [(5, variants[2]), (6, variants[1])]
    for register, n, (plus, lamb, phased) in [
        (register, n, v) for register in (qubit_register, dephasing_register) for n, v in cases
    ]:
        model = register(n)
        spec = random_bath(rng, n, with_plus=plus)
        if phased:
            spec = gauge_phased(spec, random_phases(rng, n))
        if lamb:
            spec = with_lamb_shift(spec, lamb)
        liouv = build_liouvillian(model, spec)
        rhos = [block_state(n, rng), block_diagonal(random_operator(rng, 2**n))]
        layout, m = dynamics._exact_generator(liouv, np.stack(rhos))
        assert layout is not None
        columns = sector_columns(liouv, layout)
        scale = max(1.0, float(np.abs(columns).max()))
        assert np.abs(m - columns).max() <= TOL * scale
        h = liouv.hamiltonian
        for rho in rhos:
            want = pairwise_dissipator(model, spec, rho) - 1j * (h @ rho - rho @ h)
            got = m @ layout.pack(rho)
            assert np.abs(got - layout.pack(want)).max() <= TOL * max(1.0, np.abs(want).max())


def test_exact_places_no_operator(monkeypatch):
    """The N = 4 exact sweep builds its sector generator from the term
    weights: no Lindblad operator is placed and no form applied."""
    raw = {
        "experiment": "simulate",
        "register": {"n": 4, "kind": "qubit"},
        "bath": {"model": "exponential", "gamma_minus": 0.1, "gamma_plus": 0.02, "xi": 1.0},
        "initial_states": ["singlet", "symmetric"],
        "solver": {"method": "exact", "dt": 0.01, "t_end": 1.0, "stride": 10},
        "sweep": {"parameter": "bath.xi", "values": [1.0, 10.0]},
        "output": {"name": "exact_sweep"},
    }
    monkeypatch.setattr(
        liouvillian.LindbladTerm, "op", property(lambda self: pytest.fail("op was placed"))
    )
    monkeypatch.setattr(Liouvillian, "apply", lambda self, rho: pytest.fail("apply was called"))
    table = expcli.run_simulate(expcli.config_from_dict(raw))
    assert table.provenance["solver"]["forms"] == [["blocks", "blocks"]] * 2
