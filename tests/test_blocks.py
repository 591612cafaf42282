"""Excitation-number blocks: the third generator form, which RK4 steps on
the C(2N, N) packed block entries of block-diagonal qubit states.  Checked
against the Gamma form, the dense generator and the independent pairwise
dissipator; stacked against per-state integration, bit for bit, and
against the Gamma-form trajectory; the run plan's block rule and the
fallbacks; the drift built from each sector's G against the term blocks
made from the move blocks; F, delta and E on packed blocks against the
D x D values; the block-by-block eigenvalue check of ``check_state``; and
the exact solver on the excitation sector against ``propagate_exact``,
with its fallbacks, and its generator against the column build and the
pairwise dissipator."""

import tracemalloc
from math import comb, prod
from types import SimpleNamespace

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
from qregsim.dynamics import Trajectory, check_state, plan, state_defect_report
from qregsim.errors import DimensionMismatch, UnstableStep
from qregsim.liouvillian import (
    ExcitationBlocks,
    LindbladSet,
    LindbladTerm,
    Liouvillian,
    _BlockForm,
    excitation_layout,
)
from qregsim.observables import fidelity, linear_entropy, register_energy
from qregsim.register import (
    SIGMA_MINUS,
    SIGMA_PLUS,
    SIGMA_Z,
    RegisterModel,
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
    assert [g.form for g in plan(liouv, [rho], "rk4")] == ["blocks"]
    return packed_apply(_BlockForm(liouv), rho)


def packed_apply(form: _BlockForm, rho: np.ndarray) -> np.ndarray:
    """The block form's apply on rho's packed blocks, unpacked."""
    layout = form.layout
    packed = layout.pack(rho)[None]
    f, out, _ = form.stepper(packed)
    return layout.unpack(f(packed, out))[0]


def assert_forms_agree(model, spec, rng) -> None:
    """block apply = Gamma form = dense = pairwise dissipator + H term, to
    TOL relative, on a non-Hermitian block-diagonal input; the block form
    leaves the off-block part exactly zero."""
    with crossover(1):
        structured = build_liouvillian(model, spec)
        rho = block_diagonal(random_operator(rng, model.dim))
        got = block_apply(structured, rho)
        gamma = structured.apply(rho)  # the Gamma form, chosen on first use
    with crossover(10**9):
        dense = build_liouvillian(model, spec)
    h = structured.hamiltonian
    want = dense.apply(rho)
    scale = max(1.0, float(np.abs(want).max()))
    for other in (
        gamma,
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


@pytest.mark.parametrize("n", [3, 6])
def test_blocks_on_sigma_plus_cells_take_each_sectors_q_shift(n):
    # The form reads each sector's Q shift: with sigma+ cells the -1 sector
    # raises Q and the +1 sector lowers it, so a sandwich keyed by the
    # sector would be wrong.
    model = sigma_plus_register(n)
    rng = rng_for(f"sigma-plus-{n}")
    spec = with_lamb_shift(random_bath(rng, n), 0.4)
    liouv = build_liouvillian(model, spec)
    assert liouv.lindblad._q_shifts == {-1: 1, 1: -1}
    rho = block_diagonal(random_operator(rng, model.dim))
    got = packed_apply(_BlockForm(liouv), rho)
    h = liouv.hamiltonian
    want = pairwise_dissipator(model, spec, rho) - 1j * (h @ rho - rho @ h)
    assert np.abs(got - want).max() <= TOL * max(1.0, float(np.abs(want).max()))


@pytest.mark.parametrize("lamb", [False, True])
def test_the_plan_runs_sigma_plus_cells_on_blocks(lamb, monkeypatch):
    # sigma+ has one nonzero entry, off the diagonal and equal to 1, the
    # digit move the gather tables take: its registers run on blocks, real
    # without a Lamb shift, and give the Gamma form's trajectory.
    n = 6
    spec = exponential_decay(n, 0.1, 0.02, 1.5, delta_ratio=0.5 if lamb else 0.0)
    liouv = build_liouvillian(sigma_plus_register(n), spec)
    psi = dicke_state(n, 3)
    groups = plan(liouv, [psi], "rk4")
    assert [(g.form, g.real) for g in groups] == [("blocks", not lamb)]
    blocks = evolve(liouv, [psi], 0.1, 0.02, 1)[0]
    monkeypatch.setattr(dynamics, "_keeps_q", lambda model, h: False)  # no blocks
    gamma = evolve(liouv, [psi], 0.1, 0.02, 1)[0]
    assert (blocks.metadata["form"], gamma.metadata["form"]) == ("blocks", "gamma")
    assert np.abs(blocks.states - gamma.states).max() <= TOL


@pytest.mark.parametrize("lamb", [False, True])
@pytest.mark.parametrize(
    "c, op, sign", [(2.0, SIGMA_MINUS, 1), (0.5j, SIGMA_PLUS, -1)], ids=["2sigma-", "0.5i_sigma+"]
)
def test_scaled_sigma_cells_run_on_blocks(c, op, sign, lamb, monkeypatch):
    # A cell operator c sigma-+ moves Q by one fixed amount: the plan steps
    # it on blocks, whose sandwich carries |c|^2 on G, and its trajectory
    # is the Gamma form's and the pairwise dissipator's.
    n = 6
    model = RegisterModel(
        n_cells=n, cell_dim=2, cell_op=c * op, cell_hamiltonian=sign * SIGMA_Z, epsilon=1.0
    )
    spec = exponential_decay(n, 0.1, 0.02, 1.5, delta_ratio=0.5 if lamb else 0.0)
    liouv = build_liouvillian(model, spec)
    psi = dicke_state(n, 3)
    assert [g.form for g in plan(liouv, [psi], "rk4")] == ["blocks"]
    blocks = evolve(liouv, [psi], 0.1, 0.02, 1)[0]
    monkeypatch.setattr(dynamics, "_keeps_q", lambda model, h: False)  # no blocks
    gamma = evolve(liouv, [psi], 0.1, 0.02, 1)[0]
    assert (blocks.metadata["form"], gamma.metadata["form"]) == ("blocks", "gamma")
    h = liouv.hamiltonian
    pairwise = SimpleNamespace(
        apply=lambda rho: pairwise_dissipator(model, spec, rho) - 1j * (h @ rho - rho @ h)
    )
    snaps, _ = reference_rk4(pairwise, psi, 0.1, 0.02, 1)
    for got, other, want in zip(blocks.states, gamma.states, snaps):
        scale = TOL * max(1.0, float(np.abs(want).max()))
        assert np.abs(got - want).max() <= scale and np.abs(other - want).max() <= scale


def sigma_plus_register(n: int) -> RegisterModel:
    """sigma+ cells with H^C = -eps sigma_z, eps = 1."""
    return RegisterModel(
        n_cells=n, cell_dim=2, cell_op=SIGMA_PLUS, cell_hamiltonian=-SIGMA_Z, epsilon=1.0
    )


def term_block_drift(liouv, layout) -> list:
    """B_q = iH_q + sum_k lambda_k J_k^+ J_k / 2 from the term blocks
    J_k = sum_i u_ki X_i, X_i the cell operator's move blocks
    (``ExcitationBlocks.move_blocks``): the reference for the G route."""
    h, lset = liouv.hamiltonian, liouv.lindblad
    drift = [1j * h[np.ix_(s, s)] for s in layout.states]
    for sector, (rates, weights) in lset.sectors.items():
        a = liouvillian._sector_cell_op(lset.model, sector)
        for q, x in layout.move_blocks(a, lset._q_shifts[sector]):
            j = np.einsum("ki,iab->kab", weights, x)  # (K, C(N, q + s), C(N, q))
            drift[q] += 0.5 * np.einsum("k,kab,kac->bc", rates, j.conj(), j)
    return drift


@given(
    seed=st.integers(0, 10_000),
    n=st.integers(1, 6),
    dephasing=st.booleans(),
    plus=st.booleans(),
    phased=st.booleans(),
    lamb=st.booleans(),
    ring=st.booleans(),
)
def test_drift_from_g_is_the_term_block_drift(seed, n, dephasing, plus, phased, lamb, ring):
    """drift_blocks, from each sector's G by digit moves, equals the drift
    from the term blocks to TOL relative: sigma- cells (one-excitation
    hops) and sigma_z cells (diagonal), gamma+ = 0 or > 0, a complex
    (gauge-phased) G, a Lamb shift and a Heisenberg ring."""
    rng = rng_for(seed)
    if dephasing:
        model = dephasing_register(n)
    else:
        ring = ring and n >= 3
        model = qubit_register(n, interaction=heisenberg_ring(n, rng.uniform(-1, 1)) if ring else None)
    spec = random_bath(rng, n, with_plus=plus)
    if phased:
        spec = gauge_phased(spec, random_phases(rng, n))
    if lamb:
        spec = with_lamb_shift(spec, rng.uniform(-1.0, 1.0))
    liouv = build_liouvillian(model, spec)
    layout = excitation_layout(n)
    got = liouvillian.drift_blocks(liouv.hamiltonian_blocks, liouv.lindblad, layout)
    want = term_block_drift(liouv, layout)
    scale = max(1.0, max(float(np.abs(w).max()) for w in want))
    assert [g.shape for g in got] == [w.shape for w in want]
    for g, w in zip(got, want):
        assert np.abs(g - w).max() <= TOL * scale


@given(seed=st.integers(0, 10_000), n=st.integers(1, 6), lamb=st.booleans())
def test_packed_observables_are_the_full_ones(seed, n, lamb):
    """F, delta and E of a random block-diagonal state from its packed
    blocks equal the D x D values to TOL, E also for a stack and under a
    Lamb-shifted H'."""
    rng = rng_for(seed)
    spec = random_bath(rng, n)
    if lamb:
        spec = with_lamb_shift(spec, rng.uniform(-1.0, 1.0))
    liouv = build_liouvillian(qubit_register(n), spec)
    layout = excitation_layout(n)
    # the blocks of a density matrix: still one, with its trace
    rhos = np.stack([block_diagonal(random_density_matrix(rng, 2**n)) for _ in range(3)])
    packed = layout.pack(rhos)
    psi = random_pure_state(rng, 2**n)
    for rho, p in zip(rhos, packed):
        assert abs(fidelity(p, psi, layout) - fidelity(rho, psi)) <= TOL
        assert abs(linear_entropy(p, layout) - linear_entropy(rho)) <= TOL
        e = register_energy(rho, liouv)
        assert abs(register_energy(p, liouv, layout) - e) <= TOL * max(1.0, abs(e))
    want = register_energy(rhos, liouv.hamiltonian)
    got = register_energy(packed, liouv.hamiltonian, layout)
    assert got.shape == (3,)
    assert np.abs(got - want).max() <= TOL * max(1.0, np.abs(want).max())


def test_packed_observables_check_their_sizes():
    layout, other = excitation_layout(4), excitation_layout(3)
    liouv = build_liouvillian(qubit_register(4), cell_limit(4, 0.1, 0.0))
    packed = layout.pack(block_diagonal(random_density_matrix(rng_for("sizes"), 16)))
    for call in (
        lambda: fidelity(packed, dicke_state(3, 1), layout),
        lambda: fidelity(packed[:-1], dicke_state(4, 2), layout),
        lambda: linear_entropy(packed, other),
        lambda: linear_entropy(packed[None], layout),
        lambda: register_energy(packed, liouv, other),
        lambda: register_energy(packed[None, None], liouv, layout),
    ):
        with pytest.raises(DimensionMismatch):
            call()


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
    monkeypatch.setattr(dynamics, "_keeps_q", lambda model, h: False)  # no blocks
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


def test_row_chunks_are_built_once_per_shift():
    # plan (at load and in evolve_into), the stepper's buffers and the
    # gather tables all read the chunks of each Q shift; they are cut once
    # for the chunk budget and shared by every later block run of that N.
    liouvillian.row_chunks.cache_clear()
    excitation_layout.cache_clear()
    liouv = build_liouvillian(qubit_register(8), exponential_decay(8, 0.1, 0.02, 1.0))
    psi = dicke_state(8, 4)
    for _ in range(2):
        plan(liouv.lindblad, [psi])
        assert evolve(liouv, [psi], 0.02, 0.02, 1)[0].metadata["form"] == "blocks"
    info = liouvillian.row_chunks.cache_info()
    assert info.misses == 2 and info.hits >= 10
    entries = liouvillian.SANDWICH_CHUNK_ENTRIES
    assert liouvillian.row_chunks(8, -1, entries) is liouvillian.row_chunks(8, -1, entries)


@pytest.mark.parametrize("budget", [1, 40, 300])
def test_sandwich_chunks_tile_the_half_sector_and_match_every_route(budget, monkeypatch):
    """Chunks of one row, chunks that split a block and chunks that span
    blocks: each sector's chunks cover its half-sector's rows once, in
    order, and write one contiguous run of the output; the generator is
    the same on every route."""
    n = 5
    monkeypatch.setattr(liouvillian, "SANDWICH_CHUNK_ENTRIES", budget)
    excitation_layout.cache_clear()  # tables of the default budget go with it
    try:
        layout = excitation_layout(n)
        for s in (-1, 1):
            chunks = layout.moves(s)
            widths = [x.shape[1] for x, _ in chunks]
            assert sum(widths) == comb(2 * n, n - 1)
            assert max(widths) <= max(budget // n, int(layout.sizes.max()))
            runs = [(o, o + size) for _, (_, segments) in chunks for _, _, o, size in segments]
            assert all(a[1] == b[0] for a, b in zip(runs, runs[1:]))
            assert runs[0][0] == layout.offsets[max(s, 0)]
            assert runs[-1][1] == layout.offsets[n + 1 + min(s, 0)]
            assert all(x.dtype == np.int32 and g.dtype == np.int32 for x, (g, _) in chunks)
        if budget == 1:  # one chunk per row of S_0 .. S_{N-1}
            assert len(layout.moves(-1)) == 2**n - 1
        rng = rng_for(f"chunks-{budget}")
        assert_forms_agree(qubit_register(n), with_lamb_shift(random_bath(rng, n), 0.5), rng)
    finally:
        excitation_layout.cache_clear()


@pytest.mark.parametrize("n", [8, 10, 11])
def test_block_workspace_is_bounded_by_the_chunk_budget(n):
    # The sandwich's X_i, Y_j and gathered terms hold one chunk each, at
    # most SANDWICH_CHUNK_ENTRIES entries per state; unchunked they took a
    # whole sector, X_i alone N C(2N, N - 1) entries per state.
    liouv = build_liouvillian(qubit_register(n), exponential_decay(n, 0.1, 0.02, 1.0))
    layout, n_states = excitation_layout(n), 2
    shapes = liouvillian.block_buffers(n, liouv.lindblad._q_shifts.values(), n_states)
    try:
        tables = layout.gather_tables(-1)
    finally:
        excitation_layout.cache_clear()
    kept = 16 * sum(prod(shape) for shape in shapes.values())
    # the padded state and the largest block's scratch
    stacks = n_states * 16 * (layout.size + 1 + int(layout.sizes.max()) ** 2)
    sandwich = kept - stacks
    assert 0 < sandwich <= 3 * n_states * 16 * liouvillian.SANDWICH_CHUNK_ENTRIES
    whole = n_states * 16 * sum(2 * x.size + g.size for x, (g, _) in tables)
    assert sandwich < whole
    if n >= 10:
        assert sandwich < n_states * 16 * n * comb(2 * n, n - 1)


def test_a_vector_state_on_blocks_never_builds_its_density_matrix(monkeypatch):
    n = 8
    liouv = build_liouvillian(qubit_register(n), exponential_decay(n, 0.1, 0.02, 1.0))
    psis = [pair_singlet_state(n), dicke_state(n, n // 2)]
    want = evolve(liouv, [np.outer(p, p.conj()) for p in psis], 0.04, 0.02, 1)
    built = []
    density, pack = dynamics._density, ExcitationBlocks.pack
    monkeypatch.setattr(dynamics, "_density", lambda s: built.append(s.shape) or density(s))

    def spy(self, rho):
        if rho is not liouv.hamiltonian:  # the drift reads H's blocks: not a state
            built.append(rho.shape)
        return pack(self, rho)

    monkeypatch.setattr(ExcitationBlocks, "pack", spy)
    got = evolve(liouv, psis, 0.04, 0.02, 1)
    assert built == []
    # psi_q psi_q^+ are the products of the outer product: the same bits
    for g, w in zip(got, want):
        assert g.metadata == w.metadata and g.metadata["form"] == "blocks"
        assert g.states.tobytes() == w.states.tobytes()


def test_a_vector_across_two_sectors_takes_the_gamma_form():
    n = 6
    layout = excitation_layout(n)
    liouv = build_liouvillian(qubit_register(n), exponential_decay(n, 0.1, 0.02, 1.0))
    psi = np.zeros(2**n, dtype=complex)
    psi[layout.states[3][[0, -1]]] = 0.6, 0.8j  # one sector, Q = 3
    assert dynamics._on_blocks(psi, n)
    assert form_of(liouv, psi) == "blocks"
    psi[layout.states[2][0]] = 1e-3  # and one entry at Q = 2
    assert not dynamics._on_blocks(psi, n)
    assert form_of(liouv, psi / np.linalg.norm(psi)) == "gamma"


def test_a_mixed_list_of_vectors_and_matrices_keeps_input_order():
    n = 6
    rng = rng_for("mixed-list")
    liouv = build_liouvillian(qubit_register(n), random_bath(rng, n))
    across = random_pure_state(rng, 2**n)
    states = [
        dicke_state(n, 3),
        across,
        block_diagonal(random_density_matrix(rng, 2**n)),
        np.outer(across, across.conj()),
        pair_singlet_state(n),
    ]
    trajs = evolve(liouv, states, 0.04, 0.02, 1)
    assert [t.metadata["form"] for t in trajs] == ["blocks", "gamma", "blocks", "gamma", "blocks"]
    for state, traj in zip(states, trajs):
        alone = evolve(liouv, [state], 0.04, 0.02, 1)[0]
        assert traj.metadata == alone.metadata
        assert traj.states.tobytes() == alone.states.tobytes()
    assert trajs[1].states.tobytes() == trajs[3].states.tobytes()


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
    """The plan keeps the blocks exactly when exact (N = 4) runs a Dicke
    state on the sector and RK4 (N = 6) on blocks; RK4 also needs a cell
    operator with one nonzero entry, off the diagonal and equal to 1."""
    small, large = rule_case(case, 4), rule_case(case, 6)
    sector = [
        plan(g, [dicke_state(n, 2)], "exact")[0].form
        for g, n in ((small, 4), (large, 6))
    ]
    assert sector == ["blocks" if kept else "dense"] * 2
    exact = evolve(small, [dicke_state(4, 2)], 0.04, 0.02, 1, "exact")[0]
    assert exact.metadata["form"] == ("blocks" if kept else "dense")
    rk4 = form_of(large, dicke_state(6, 3))
    if kept and case != "sigma_z":
        assert rk4 == "blocks"
    else:
        assert rk4 == ("gamma" if large.lindblad.structured else "dense")


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

    monkeypatch.setattr(dynamics, "_BlockForm", Counted)
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


def count_cholesky(monkeypatch) -> list:
    seen = []
    cholesky = np.linalg.cholesky
    monkeypatch.setattr(np.linalg, "cholesky", lambda m: seen.append(m.shape) or cholesky(m))
    return seen


def block_sizes(n: int) -> list:
    return [(comb(n, q),) * 2 for q in range(n + 1)]


def factorized_blocks(n: int, states: int = 1) -> list:
    """The (S, m, m) stacks the certificate factorizes for S packed states
    of n qubits: every block but the two 1 x 1 ones."""
    return [(states, comb(n, q), comb(n, q)) for q in range(1, n)]


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
    seen, factorized = count_eigvalsh(monkeypatch), count_cholesky(monkeypatch)
    check_state(rho)
    assert seen == [] and factorized == factorized_blocks(n)
    # blocks of [[0.5, 0.6], [0.6, 0.5]] between the two states: eigenvalue -0.1
    rho[a, b] = rho[b, a] = 0.6
    seen.clear()
    assert message(rho).startswith("negative eigenvalue -1.000e-01")
    assert seen == [(64, 64)]


def test_below_the_crossover_check_state_diagonalizes_once(monkeypatch):
    # D = 32 < STRUCTURED_MIN_DIM: one full factorization, and no layout built
    monkeypatch.setattr(dynamics, "excitation_layout", lambda n: pytest.fail("layout built"))
    seen, factorized = count_eigvalsh(monkeypatch), count_cholesky(monkeypatch)
    psi = dicke_state(5, 2)
    check_state(np.outer(psi, psi.conj()))
    assert seen == [] and factorized == [(1, 32, 32)]


def test_trajectory_checks_block_by_block(monkeypatch):
    n = 6
    rng = rng_for("trajectory-blocks")
    states = np.stack([block_state(n, rng), block_state(n, rng)])
    seen, factorized = count_eigvalsh(monkeypatch), count_cholesky(monkeypatch)
    Trajectory(times=np.array([0.0, 1.0]), states=states)
    assert seen == [] and factorized == factorized_blocks(n) * 2


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


def test_block_simulate_builds_no_term_block_and_unpacks_no_snapshot(monkeypatch):
    """An N = 8 block run through the runner (a Lamb shift, so H' has
    off-diagonal blocks): the drift comes from each sector's G, not from
    move blocks, and the sink reads F, delta and E from the packed
    snapshots."""
    raw = {
        "experiment": "simulate",
        "register": {"n": 8},
        "bath": {"model": "exponential", "gamma_minus": 0.1, "gamma_plus": 0.02, "delta_ratio": 0.5},
        "initial_states": ["singlet", "symmetric"],
        "solver": {"dt": 0.02, "t_end": 0.04, "stride": 1},
    }
    cfg = expcli.config_from_dict(raw)

    def refuse(name):
        return lambda *args: pytest.fail(f"{name} was called")

    monkeypatch.setattr(ExcitationBlocks, "move_blocks", refuse("move_blocks"))
    monkeypatch.setattr(ExcitationBlocks, "unpack", refuse("unpack"))
    table = expcli.run_simulate(cfg)
    assert table.provenance["solver"]["forms"] == [["blocks", "blocks"]]
    assert table.values.shape == (3, 7)


# The exact solver on the excitation sector: C(2N, N)-square generator,
# assembled from each sector's G and its cell operator's move blocks,
# instead of the D^2 x D^2 superoperator, when the states and H are
# block-diagonal.


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


@pytest.mark.parametrize("min_dim, sizes", [(64, [(1, 16, 16)]), (16, factorized_blocks(4))])
def test_exact_checks_snapshots_per_block_from_the_crossover(min_dim, sizes, monkeypatch):
    liouv = build_liouvillian(qubit_register(4), exponential_decay(4, 0.1, 0.02, 1.0))
    monkeypatch.setattr(dynamics, "STRUCTURED_MIN_DIM", min_dim)
    seen, factorized = count_eigvalsh(monkeypatch), count_cholesky(monkeypatch)
    traj = evolve(liouv, [dicke_state(4, 2)], 0.2, 0.1, stride=1, method="exact")[0]
    assert traj.metadata["form"] == "blocks"
    assert seen == [] and factorized == sizes * len(traj)


@pytest.mark.parametrize("n, sizes", [(6, factorized_blocks(6)), (4, [(1, 16, 16)])])
def test_dephasing_checks_snapshots_per_block(n, sizes, monkeypatch):
    liouv = build_liouvillian(dephasing_register(n), exponential_decay(n, 0.1, 0.02, 1.0))
    uniform = np.full(2**n, 2 ** (-n / 2), dtype=complex)
    seen, factorized = count_eigvalsh(monkeypatch), count_cholesky(monkeypatch)
    block, mixing = evolve(liouv, [dicke_state(n, 2), uniform], 1.0, 0.5, 1, "dephasing")
    # the uniform state's snapshots are not block-diagonal: full checks
    assert seen == [] and factorized == sizes * len(block) + [(1, 2**n, 2**n)] * len(mixing)


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
    """M from each sector's G = the column build from Liouvillian.apply =
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
        assert plan(liouv, rhos, "exact")[0].form == "blocks"
        layout = excitation_layout(n)
        m = dynamics._sector_generator(liouv, layout)
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


def test_the_exact_sector_reads_each_sectors_g_not_the_terms(monkeypatch):
    """Once each sector's G and Q shift are known, an exact run on the
    sector reads no term rate or weight (``LindbladSet.sectors``), and
    gives the same bits."""
    n = 4
    liouv = build_liouvillian(
        qubit_register(n), exponential_decay(n, 0.1, 0.02, 1.0, delta_ratio=0.5)
    )
    states = [dicke_state(n, 2), pair_singlet_state(n)]
    want = evolve(liouv, states, 1.0, 0.1, stride=4, method="exact")
    lset = liouv.lindblad
    assert lset.gammas is not None and lset._q_shifts is not None
    monkeypatch.setattr(LindbladSet, "sectors", property(lambda self: pytest.fail("sectors was read")))
    got = evolve(liouv, states, 1.0, 0.1, stride=4, method="exact")
    for g, w in zip(got, want):
        assert g.metadata["form"] == "blocks"
        assert g.states.tobytes() == w.states.tobytes()


def test_exact_packs_a_vector_without_its_density_matrix(monkeypatch):
    """The sector packs state vectors as psi_q psi_q^+, with no D x D
    matrix and bitwise as their matrices pack; the superoperator still
    takes each state's D x D."""
    n = 4
    liouv = build_liouvillian(qubit_register(n), exponential_decay(n, 0.1, 0.02, 1.0))
    psis = [pair_singlet_state(n), dicke_state(n, 2)]
    want = evolve(liouv, [np.outer(p, p.conj()) for p in psis], 1.0, 0.1, stride=4, method="exact")
    built = []
    density = dynamics._density
    monkeypatch.setattr(dynamics, "_density", lambda s: built.append(s.shape) or density(s))
    got = evolve(liouv, psis, 1.0, 0.1, stride=4, method="exact")
    assert built == []
    for g, w in zip(got, want):
        assert g.metadata == w.metadata and g.metadata["form"] == "blocks"
        assert g.states.tobytes() == w.states.tobytes()
    uniform = np.full(2**n, 2 ** (-n / 2), dtype=complex)
    dense = evolve(liouv, [uniform], 1.0, 0.1, stride=4, method="exact")[0]
    assert dense.metadata["form"] == "dense" and built == [(2**n,)]


@pytest.mark.parametrize("lamb", [False, True])
def test_exact_sector_on_scaled_sigma_cells_is_propagate_exact(lamb):
    """Cells of 2 sigma-: the move blocks carry the cell operator's entry
    c = 2 into the sector generator, and the exact run on the sector is
    ``propagate_exact`` to 1e-10 relative."""
    n = 4
    model = RegisterModel(
        n_cells=n, cell_dim=2, cell_op=2 * SIGMA_MINUS, cell_hamiltonian=SIGMA_Z, epsilon=1.0
    )
    spec = exponential_decay(n, 0.1, 0.02, 1.5, delta_ratio=0.5 if lamb else 0.0)
    liouv = build_liouvillian(model, spec)
    states = [dicke_state(n, 2), block_state(n, rng_for(f"exact-scaled-{lamb}"))]
    trajs = evolve(liouv, states, 1.0, 0.1, stride=4, method="exact")
    for psi, traj in zip(states, trajs):
        assert traj.metadata["form"] == "blocks"
        for t, state in zip(traj.times, traj.states):
            ref = propagate_exact(liouv, psi, float(t))
            assert np.abs(state - ref).max() <= 1e-10 * np.abs(ref).max()
