"""Stacked RK4: ``evolve(..., "rk4")`` steps all initial states of a dense
generator as one (S, D, D) stack, and the states of every dense generator
of a sweep with one K as one (P S, D, D) stack, and must reproduce, bit for
bit, each state stepped alone with the expression form of RK4 and each
generator run on its own.  Also ``apply`` on stacks on both generator
paths, its shape guard, the per-state trace check, and the runner's
snapshot sink: its peak memory against the number of bath points, and a
snapshot that fails ``check_state``."""

import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qregsim import (
    build_liouvillian,
    dicke_state,
    evolve,
    evolve_into,
    exponential_decay,
    expcli,
    integrate,
    qubit_register,
)
from qregsim.dynamics import snapshot_grid
from qregsim.errors import DimensionMismatch, UnstableStep
from qregsim.linalg import dag
from qregsim.liouvillian import (
    SECTOR_MINUS,
    SECTOR_PLUS,
    LindbladSet,
    LindbladTerm,
    Liouvillian,
    _BlockForm,
    _DenseForm,
    _GammaForm,
    excitation_layout,
)

from helpers import (
    random_bath,
    random_density_matrix,
    random_pure_state,
    rng_for,
)
from test_structured import crossover, random_operator


def reference_rk4(liouv, rho0, t_end, dt, stride):
    """Snapshots and largest trace drift of one state stepped with the
    expression form of RK4 and single-state applies."""
    h, steps = snapshot_grid(t_end, dt, stride)
    rho = np.asarray(rho0, dtype=complex)
    if rho.ndim == 1:
        rho = np.outer(rho, rho.conj())
    f = liouv.apply
    out, drift = [rho], 0.0
    for k in range(1, int(steps[-1]) + 1):
        k1 = f(rho)
        k2 = f(rho + 0.5 * h * k1)
        k3 = f(rho + 0.5 * h * k2)
        k4 = f(rho + h * k3)
        rho = rho + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        tr = complex(np.trace(rho))
        drift = max(drift, abs(tr - 1.0))
        rho = 0.5 * (rho + dag(rho))
        rho = rho / tr.real
        if k in steps:
            out.append(rho)
    return out, drift


def assert_stack_is_bitwise(liouv, rho0s, t_end, dt, stride):
    trajs = evolve(liouv, rho0s, t_end, dt, stride, "rk4")
    assert len(trajs) == len(rho0s)
    for rho0, traj in zip(rho0s, trajs):
        alone = integrate(liouv, rho0, t_end, dt, stride)
        assert traj.times.tobytes() == alone.times.tobytes()
        assert traj.metadata == alone.metadata
        assert traj.states.tobytes() == alone.states.tobytes()
        snaps, drift = reference_rk4(liouv, rho0, t_end, dt, stride)
        assert len(snaps) == len(traj)
        for got, want in zip(traj.states, snaps):
            assert got.tobytes() == want.tobytes()
        assert traj.metadata["error_estimate"] == drift


@pytest.mark.parametrize("preset", ["fig2", "fig3", "fig4", "fig5"])
def test_preset_generators(preset):
    cfg = expcli.load_preset(preset)
    model = expcli.build_register(cfg)
    psis = [expcli.build_state(s, model) for s in cfg.initial_states]
    solver = cfg.solver
    for overrides in expcli._sweep_overrides(cfg) or [None]:
        liouv = build_liouvillian(model, expcli.build_bath(cfg, overrides))
        assert isinstance(liouv._form, _DenseForm)
        # the preset's dt and stride over a shorter span
        assert_stack_is_bitwise(liouv, psis, 0.5, solver["dt"], solver["stride"] // 5)


def random_dense_set(rng, dim: int, n_terms: int) -> LindbladSet:
    """Hand-built Lindblad set: random operators, rates and sectors."""
    terms = []
    for _ in range(n_terms):
        op = random_operator(rng, dim)
        op /= np.linalg.norm(op, 2)
        sector = SECTOR_MINUS if rng.uniform() < 0.5 else SECTOR_PLUS
        terms.append(LindbladTerm(rng.uniform(0.0, 0.5), op, sector))
    return LindbladSet(terms=tuple(terms))


@given(
    seed=st.integers(0, 10_000),
    dim=st.sampled_from([2, 3, 4, 8]),
    n_terms=st.integers(0, 4),
    n_states=st.integers(1, 4),
    steps=st.integers(1, 12),
    stride=st.integers(1, 5),
)
def test_random_hand_built_generators(seed, dim, n_terms, n_states, steps, stride):
    rng = rng_for(seed)
    h = random_operator(rng, dim)
    h = 0.5 * (h + dag(h)) / max(1.0, np.linalg.norm(h, 2))
    liouv = Liouvillian(hamiltonian=h, lindblad=random_dense_set(rng, dim, n_terms))
    rho0s = [
        random_pure_state(rng, dim) if rng.uniform() < 0.5 else random_density_matrix(rng, dim)
        for _ in range(n_states)
    ]
    assert_stack_is_bitwise(liouv, rho0s, steps * 0.02, 0.02, stride)


def test_gamma_form_generator_at_six_cells():
    rng = rng_for("stacked-gamma")
    model = qubit_register(6)
    liouv = build_liouvillian(model, random_bath(rng, 6))
    assert isinstance(liouv._form, _GammaForm) and liouv.lindblad.structured
    rho0s = [random_pure_state(rng, 64), random_density_matrix(rng, 64)]
    assert_stack_is_bitwise(liouv, rho0s, 0.06, 0.02, 2)


@pytest.mark.parametrize("structured", [False, True])
def test_evolve_stacks_only_the_dense_generator(structured, monkeypatch):
    rng = rng_for("stack-choice")
    with crossover(1 if structured else 10**9):
        liouv = build_liouvillian(qubit_register(3), random_bath(rng, 3))
        seen = []
        apply = Liouvillian.apply
        monkeypatch.setattr(
            Liouvillian, "apply", lambda self, rho: seen.append(rho.shape) or apply(self, rho)
        )
        rho0s = [random_pure_state(rng, 8) for _ in range(3)]
        evolve(liouv, rho0s, 0.1, 0.05, 1, "rk4")
    # two steps of four applies, per state or for the stack of three
    want = (1, 8, 8) if structured else (3, 8, 8)
    assert seen == [want] * (4 * 2 * (3 if structured else 1))


@pytest.mark.parametrize("structured", [False, True])
@pytest.mark.parametrize("n_states", [1, 3])
def test_apply_on_a_stack_is_the_stacked_applies(structured, n_states):
    rng = rng_for(f"stacked-apply-{structured}")
    model = qubit_register(3)
    with crossover(1 if structured else 10**9):
        liouv = build_liouvillian(model, random_bath(rng, 3))
        assert isinstance(liouv._form, _GammaForm if structured else _DenseForm)  # chosen now
    stack = np.stack([random_operator(rng, 8) for _ in range(n_states)])
    want = np.stack([liouv.apply(rho) for rho in stack])
    assert liouv.apply(stack).tobytes() == want.tobytes()


@pytest.mark.parametrize("shape", [(2, 8, 9), (8,), (1, 2, 8, 8)])
def test_apply_rejects_other_shapes(shape):
    liouv = build_liouvillian(qubit_register(3), random_bath(rng_for("shapes"), 3))
    with pytest.raises(DimensionMismatch):
        liouv.apply(np.zeros(shape, dtype=complex))


@settings(max_examples=10)
@given(seed=st.integers(0, 10_000))
def test_bad_trace_in_the_stack_names_its_state(seed):
    rng = rng_for(seed)
    liouv = build_liouvillian(qubit_register(2), random_bath(rng, 2))
    good = random_density_matrix(rng, 4)
    with pytest.raises(UnstableStep, match=r"to 1\.5.* at step 1 .*in state 1;"):
        evolve(liouv, [good, 1.5 * good, good], 1.0, 0.01, 10, "rk4")


# Sweeps: one evolve over P generators steps the dense ones with one K as
# one (P S, D, D) stack, bitwise each generator's own run.


def assert_sweep_is_per_point(liouvs, rho0s, t_end, dt, stride):
    sweep = evolve(liouvs, rho0s, t_end, dt, stride, "rk4")
    assert len(sweep) == len(liouvs)
    for liouv, trajs in zip(liouvs, sweep):
        alone = evolve(liouv, rho0s, t_end, dt, stride, "rk4")
        assert len(trajs) == len(rho0s)
        for got, want in zip(trajs, alone):
            assert got.metadata == want.metadata  # form, error_estimate, ...
            assert got.times.tobytes() == want.times.tobytes()
            assert got.states.tobytes() == want.states.tobytes()


def record_dense_applies(monkeypatch) -> list:
    seen = []
    apply = _DenseForm.apply
    monkeypatch.setattr(
        _DenseForm, "apply", lambda self, rho: seen.append(rho.shape) or apply(self, rho)
    )
    return seen


@pytest.mark.parametrize(
    "gamma_plus, ratio", [(0.0, 0.0), (0.02, 0.0), (0.02, 0.5)], ids=["zero_T", "finite_T", "lamb"]
)
def test_sweep_is_bitwise_the_per_point_runs(gamma_plus, ratio, monkeypatch):
    n = 4
    liouvs = [
        build_liouvillian(qubit_register(n), exponential_decay(n, 0.1, gamma_plus, xi, ratio))
        for xi in (1.0, 10.0, 100.0)
    ]
    rho0s = [expcli.build_state(s, qubit_register(n)) for s in ("singlet", "symmetric")]
    seen = record_dense_applies(monkeypatch)
    assert_sweep_is_per_point(liouvs, rho0s, 0.3, 0.01, 7)
    # 30 steps of four applies: one (6, 16, 16) stack for the sweep, then
    # (2, 16, 16) for each point alone
    assert seen == [(6, 16, 16)] * 120 + [(2, 16, 16)] * 360


def test_gamma_plus_sweep_steps_each_k_as_its_own_stack(monkeypatch):
    n = 3
    rng = rng_for("mixed-k")
    values = [0.0, 0.02, 0.0, 0.05]
    liouvs = [
        build_liouvillian(qubit_register(n), exponential_decay(n, 0.1, gp, 2.0)) for gp in values
    ]
    assert [len(l.lindblad) for l in liouvs] == [3, 6, 3, 6]
    rho0s = [random_pure_state(rng, 8), random_density_matrix(rng, 8)]
    seen = record_dense_applies(monkeypatch)
    assert_sweep_is_per_point(liouvs, rho0s, 0.1, 0.02, 2)
    assert seen[:40] == [(4, 8, 8)] * 40  # two points per K, 5 steps each


def test_sweep_of_one_generator_and_mixed_sizes():
    rng = rng_for("sweep-shapes")
    liouv = build_liouvillian(qubit_register(2), random_bath(rng, 2))
    psi = random_pure_state(rng, 4)
    (trajs,) = evolve([liouv], [psi], 0.04, 0.02, 1)
    assert trajs[0].states.tobytes() == integrate(liouv, psi, 0.04, 0.02, 1).states.tobytes()
    other = build_liouvillian(qubit_register(3), random_bath(rng, 3))
    with pytest.raises(DimensionMismatch, match="generator 1 has D = 8"):
        evolve([liouv, other], [psi], 0.04, 0.02, 1)
    assert evolve([], [psi], 0.04, 0.02, 1) == []


def simulate_peak(n: int, xis, t_end: float, dt: float) -> int:
    """tracemalloc peak of a second run_simulate of the singlet and Dicke
    states over the bath points ``xis`` (the first builds the caches)."""
    cfg = expcli.config_from_dict(
        {
            "experiment": "simulate",
            "register": {"n": n},
            "bath": {"model": "exponential", "gamma_minus": 0.1, "gamma_plus": 0.02},
            "initial_states": ["singlet", "symmetric"],
            "solver": {"dt": dt, "t_end": t_end, "stride": 1},
            "sweep": {"parameter": "bath.xi", "values": list(xis)},
        }
    )
    expcli.run_simulate(cfg)
    tracemalloc.start()
    try:
        expcli.run_simulate(cfg)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_dense_sweep_peak_holds_no_snapshots():
    # 201 snapshots of 2 states at D = 16: 1.6 MB per bath point.  The three
    # points step as one stack, which costs their generators and stacks
    # (about 0.6 MB), but no point's snapshots are kept.
    snapshots = 2 * 201 * 16 * 16**2
    one = simulate_peak(4, [1.0], 2.0, 0.01)
    three = simulate_peak(4, [1.0, 10.0, 100.0], 2.0, 0.01)
    assert one < snapshots
    assert three - one < snapshots


@pytest.mark.parametrize("t_end", [0.04, 0.6], ids=["3_snapshots", "31_snapshots"])
def test_block_sweep_peak_does_not_grow_with_points(t_end):
    # N = 8 on excitation blocks: each generator is built, run and dropped
    # before the next, so a second point adds less than one D x D array (a
    # generator holds at least its Hamiltonian).  Every snapshot goes to the
    # sink as its step ends.
    one = simulate_peak(8, [1.0], t_end, 0.02)
    two = simulate_peak(8, [1.0, 10.0], t_end, 0.02)
    assert two - one < 16 * 256**2


def test_block_run_peak_does_not_grow_with_snapshots():
    # N = 8, 2 states on blocks: 12 snapshots per state against 3.  Each
    # goes to the sink as its step ends, so the longer run holds no more
    # than one more packed stack (2 C(16, 8) entries).
    three = simulate_peak(8, [1.0], 0.04, 0.02)
    twelve = simulate_peak(8, [1.0], 0.22, 0.02)
    assert twelve - three < 2 * 16 * excitation_layout(8).size


def test_ten_cell_block_run_peak():
    # N = 10, 2 states on blocks, 2 steps, tables built cold.  The sandwich
    # works in chunks of rows, the tables are int32 and the state vectors
    # are packed block by block, so the peak holds the generator's H, the
    # stacks, the tables and one D x D snapshot for the sink at a time:
    # about 108 MB, against 286 MB with whole-sector buffers, int64 tables
    # and D x D initial states.
    cfg = expcli.config_from_dict(
        {
            "experiment": "simulate",
            "register": {"n": 10},
            "bath": {"model": "exponential", "gamma_minus": 0.1, "gamma_plus": 0.02},
            "initial_states": ["singlet", "symmetric"],
            "solver": {"dt": 0.01, "t_end": 0.02, "stride": 1},
        }
    )
    excitation_layout.cache_clear()
    tracemalloc.start()
    try:
        table = expcli.run_simulate(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        excitation_layout.cache_clear()
    assert table.provenance["solver"]["forms"] == [["blocks", "blocks"]]
    assert peak <= 160e6


@pytest.mark.parametrize("t_end", [0.04, 0.8])
def test_block_snapshots_reach_the_sink_as_their_steps_end(t_end, monkeypatch):
    # N = 6, 2 states on blocks, 3 or 41 snapshots: snapshot k >= 1 reaches
    # the sink after its step's four applies, snapshot 0 after the first
    # step's trace check.
    liouv = build_liouvillian(qubit_register(6), exponential_decay(6, 0.1, 0.02, 1.0))
    psis = [dicke_state(6, 3), dicke_state(6, 2)]
    applies, seen = [], []
    apply = _BlockForm.apply
    monkeypatch.setattr(
        _BlockForm, "apply", lambda self, *a: applies.append(1) or apply(self, *a)
    )
    snaps = {}

    def sink(liouv, p, s, k, rho, layout):
        seen.append((k, s, len(applies)))
        snaps[s, k] = layout.unpack(rho).astype(complex)  # exact for a real run

    (metas,) = evolve_into(liouv, psis, sink, t_end, 0.02, 1)
    assert [m["form"] for m in metas] == ["blocks", "blocks"]
    n_steps = round(t_end / 0.02)
    assert seen == [(k, s, 4 * max(k, 1)) for k in range(n_steps + 1) for s in (0, 1)]
    # bitwise the snapshots evolve stores
    for s, traj in enumerate(evolve(liouv, psis, t_end, 0.02, 1)):
        for k, state in enumerate(traj.states):
            assert state.tobytes() == snaps[s, k].tobytes()


def test_a_snapshot_that_fails_check_state_raises_through_the_runner():
    # gamma * dt = 3 is past RK4's stability limit: the trace stays 1 while
    # the up population grows, so check_state, not the trace check, fails.
    cfg = expcli.config_from_dict(
        {
            "experiment": "simulate",
            "register": {"n": 2},
            "bath": {"model": "cell_limit", "gamma_minus": 0.1},
            "initial_states": ["all_up", "singlet"],
            "solver": {"dt": 0.5, "t_end": 10.0, "stride": 1},
            "sweep": {"parameter": "bath.gamma_minus", "values": [0.1, 6.0]},
        }
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        with pytest.raises(UnstableStep, match="negative eigenvalue"):
            expcli.run_simulate(cfg)
