"""Excitation-number blocks: the third generator form, which RK4 steps on
the C(2N, N) packed block entries of block-diagonal qubit states.  Checked
against the Gamma form, the dense generator and the independent pairwise
dissipator; stacked against per-state integration, bit for bit, and
against the Gamma-form trajectory; the predicate's fallbacks; and the
block-by-block eigenvalue check of ``check_state``."""

from math import comb

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qregsim import (
    build_liouvillian,
    dicke_state,
    evolve,
    exponential_decay,
    expcli,
    gauge_phased,
    integrate,
    pair_singlet_state,
    pairwise_dissipator,
)
from qregsim import dynamics, liouvillian
from qregsim.dynamics import Trajectory, check_state, state_defect_report
from qregsim.errors import UnstableStep
from qregsim.liouvillian import ExcitationBlocks, Liouvillian, excitation_form
from qregsim.register import (
    dephasing_register,
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
    form = excitation_form(liouv, [rho])
    assert form is not None
    layout = form.layout
    return layout.unpack(form.apply(layout.pack(rho)[None]))[0]


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


@pytest.mark.parametrize("n", [1, 2, 5, 8])
def test_layout(n):
    layout = ExcitationBlocks(n)
    assert layout.size == comb(2 * n, n)
    assert [len(s) for s in layout.states] == [comb(n, q) for q in range(n + 1)]
    rng = rng_for(f"layout-{n}")
    rho = block_diagonal(random_operator(rng, 2**n))
    packed = layout.pack(rho)
    assert np.array_equal(layout.unpack(packed), rho)
    assert np.array_equal(packed[layout.transpose], layout.pack(rho.T))
    assert layout.trace(packed) == pytest.approx(np.trace(rho), abs=1e-12)
    out = np.empty_like(packed)
    layout.adjoint(packed, out)
    assert np.array_equal(out, layout.pack(rho.conj().T))
    for q, block in enumerate(layout.blocks(packed)):
        assert np.array_equal(block, rho[np.ix_(layout.states[q], layout.states[q])])


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
    monkeypatch.setattr(dynamics, "excitation_form", lambda liouv, rhos: None)
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
    liouv = build_liouvillian(qubit_register(8), exponential_decay(8, 0.1, 0.02, 1.0))
    assert calls == []
    psi = dicke_state(8, 4)
    for _ in range(2):
        assert evolve(liouv, [psi], 0.02, 0.02, 1)[0].metadata["form"] == "blocks"
    # one table per sector, rebuilt on every call
    assert calls == [-1, 1, -1, 1]


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


def message(rho, blocks) -> str:
    with pytest.raises(UnstableStep) as info:
        check_state(rho, blocks)
    return str(info.value)


@pytest.mark.parametrize("n", [3, 6])
def test_block_check_reports_as_the_full_check(n):
    rng = rng_for(f"block-check-{n}")
    layout = ExcitationBlocks(n)
    rho = block_state(n, rng)
    full, blocked = state_defect_report(rho), state_defect_report(rho, layout)
    assert blocked["trace_defect"] == full["trace_defect"]
    assert blocked["hermiticity_defect"] == full["hermiticity_defect"]
    assert abs(blocked["min_eigenvalue"] - full["min_eigenvalue"]) <= 1e-14
    check_state(rho, layout)
    assert message(1.1 * rho, layout) == message(1.1 * rho, None)
    skew = rho.copy()
    s = layout.states[1]
    skew[s[0], s[-1]] += 1e-6
    assert "hermiticity defect" in message(skew, layout)
    assert message(skew, layout) == message(skew, None)


@pytest.mark.parametrize("q", [0, 1, 2])
def test_negative_eigenvalue_inside_one_block(q):
    n = 4
    rng = rng_for(f"negative-{q}")
    layout = ExcitationBlocks(n)
    rho = block_state(n, rng)
    s = layout.states[q]
    w, v = np.linalg.eigh(rho[np.ix_(s, s)])
    # push the block's lowest eigenvalue to -1e-3
    rho[np.ix_(s, s)] -= (w[0] + 1e-3) * np.outer(v[:, 0], v[:, 0].conj())
    rho /= np.trace(rho).real
    text = message(rho, layout)
    assert text.startswith("negative eigenvalue") and text == message(rho, None)


def test_an_off_block_entry_triggers_the_full_check(monkeypatch):
    n = 4
    layout = ExcitationBlocks(n)
    rho = np.zeros((16, 16), dtype=complex)
    a, b = layout.states[1][0], layout.states[2][0]
    rho[a, a] = rho[b, b] = 0.5
    seen = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda m: seen.append(m.shape) or eigvalsh(m))
    check_state(rho, layout)
    assert seen == [(comb(n, q), comb(n, q)) for q in range(n + 1)]
    # blocks of [[0.5, 0.6], [0.6, 0.5]] between the two states: eigenvalue -0.1
    rho[a, b] = rho[b, a] = 0.6
    seen.clear()
    assert message(rho, layout).startswith("negative eigenvalue -1.000e-01")
    assert seen == [(16, 16)]


def test_trajectory_checks_block_by_block(monkeypatch):
    n = 6
    rng = rng_for("trajectory-blocks")
    layout = ExcitationBlocks(n)
    states = np.stack([block_state(n, rng), block_state(n, rng)])
    seen = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda m: seen.append(m.shape[0]) or eigvalsh(m))
    Trajectory(times=np.array([0.0, 1.0]), states=states, blocks=layout)
    assert seen == [comb(n, q) for q in range(n + 1)] * 2
    assert "blocks" not in vars(Trajectory(times=np.array([0.0]), states=states[:1]))


def test_rk4_metadata_names_the_form():
    rng = rng_for("forms")
    dense = build_liouvillian(qubit_register(2), random_bath(rng, 2))
    traj = evolve(dense, [pair_singlet_state(2)], 0.04, 0.02, 1)[0]
    assert traj.metadata["form"] == "dense"
    exact = evolve(dense, [pair_singlet_state(2)], 0.04, 0.02, 1, "exact")[0]
    assert "form" not in exact.metadata


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
    real = dynamics.evolve

    def spy(*args, **kwargs):
        trajs = real(*args, **kwargs)
        forms.extend(t.metadata["form"] for t in trajs)
        return trajs

    monkeypatch.setattr(expcli, "evolve", spy)
    applies = []
    apply = Liouvillian.apply
    monkeypatch.setattr(Liouvillian, "apply", lambda self, rho: applies.append(1) or apply(self, rho))
    table = expcli.run_simulate(expcli.config_from_dict(raw))
    assert forms == ["blocks", "blocks"] and applies == []
    assert table.values.shape == (3, 7)
