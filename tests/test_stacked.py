"""Stacked RK4: ``evolve(..., "rk4")`` steps all initial states of a dense
generator as one (S, D, D) stack and must reproduce, bit for bit, each
state stepped alone with the expression form of RK4.  Also ``apply`` on
stacks on both generator paths, its shape guard, and the per-state trace
check."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qregsim import build_liouvillian, evolve, expcli, integrate, qubit_register
from qregsim.dynamics import snapshot_grid
from qregsim.errors import DimensionMismatch, UnstableStep
from qregsim.linalg import dag
from qregsim.liouvillian import (
    SECTOR_MINUS,
    SECTOR_PLUS,
    LindbladSet,
    LindbladTerm,
    Liouvillian,
    _DenseForm,
    _GammaForm,
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
    assert isinstance(liouv._form, _GammaForm if structured else _DenseForm)
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
