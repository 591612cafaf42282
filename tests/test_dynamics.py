"""Integrator, exact propagation, and the commuting-register closed form."""

import tracemalloc
import warnings
from math import comb

import numpy as np
import pytest

from helpers import random_density_matrix, random_pure_state, rng_for

from qregsim import dynamics
from qregsim.bath import cell_limit, exponential_decay, replica_symmetric
from qregsim.dynamics import (
    Trajectory,
    check_state,
    dephasing_check,
    dephasing_solve,
    evolve,
    integrate,
    propagate_exact,
    state_defect_report,
)
from qregsim.errors import (
    DimensionMismatch,
    NotSimultaneouslyDiagonalizable,
    QregError,
    TooLarge,
    TooSmall,
    UnstableStep,
)
from qregsim.liouvillian import (
    LindbladSet,
    LindbladTerm,
    Liouvillian,
    add_elementwise_rates,
    build_liouvillian,
    canonical_form,
)
from qregsim.observables import fidelity
from qregsim.register import (
    basis_state,
    dephasing_register,
    dicke_state,
    pair_singlet_state,
    qubit_register,
)

SX_HALF = 0.5 * np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


def _unitary_liouvillian(n: int, epsilon: float = 1.0) -> Liouvillian:
    model = qubit_register(n, epsilon=epsilon)
    return build_liouvillian(model, cell_limit(n, 0.0, 0.0))


# ---------------------------------------------------------------------------
# Trajectory container


def test_trajectory_validates_each_snapshot():
    good = np.eye(2, dtype=complex) / 2.0
    bad = 0.9 * good  # trace 0.9
    with pytest.raises(UnstableStep):
        Trajectory(times=np.array([0.0, 1.0]), states=np.array([good, bad]))


def test_trajectory_shape_checks():
    rho = np.eye(2, dtype=complex) / 2.0
    with pytest.raises(DimensionMismatch):
        Trajectory(times=np.array([0.0, 1.0]), states=np.array([rho]))
    with pytest.raises(DimensionMismatch):
        Trajectory(times=np.array([0.0]), states=rho[None, :, :1])


def test_trajectory_final_and_len():
    rho0 = np.diag([1.0, 0.0]).astype(complex)
    rho1 = np.diag([0.5, 0.5]).astype(complex)
    traj = Trajectory(times=np.array([0.0, 2.0]), states=np.array([rho0, rho1]))
    assert len(traj) == 2
    assert np.array_equal(traj.final, rho1)


def test_check_state_defect_paths():
    dim = 3
    rho = np.eye(dim, dtype=complex) / dim
    check_state(rho)  # must not raise
    rep = state_defect_report(rho)
    assert rep["trace_defect"] <= 1e-12
    assert rep["min_eigenvalue"] >= 1.0 / dim - 1e-12
    assert rep["hermiticity_defect"] == 0.0
    with pytest.raises(UnstableStep, match="trace defect"):
        check_state(1.1 * rho)
    bad_herm = rho.copy()
    bad_herm[0, 1] = 1e-6
    with pytest.raises(UnstableStep, match="hermiticity"):
        check_state(bad_herm)
    neg = np.diag([1.1, -0.1, 0.0]).astype(complex)
    with pytest.raises(UnstableStep, match="eigenvalue"):
        check_state(neg)


# ---------------------------------------------------------------------------
# Fixed-step integration


def test_unitary_eigenstate_is_stationary():
    liouv = _unitary_liouvillian(2)
    psi = basis_state(2, "01")
    traj = integrate(liouv, psi, t_end=5.0, dt=0.01)
    fids = [fidelity(s, psi) for s in traj.states]
    assert min(fids) >= 1.0 - 1e-9


def test_unitary_coherence_phase():
    # A single cell with splitting epsilon: the off-diagonal element picks
    # up e^{-i epsilon t}, so at t = pi it returns with a flipped sign.
    liouv = _unitary_liouvillian(1, epsilon=1.0)
    psi = np.array([1.0, 1.0]) / np.sqrt(2.0)
    traj = integrate(liouv, psi, t_end=np.pi, dt=np.pi / 2000, stride=2000)
    assert traj.final[0, 1] == pytest.approx(-0.5, abs=1e-8)


def test_singlet_stationary_under_replica_bath():
    model = qubit_register(2, epsilon=1.0)
    liouv = build_liouvillian(model, replica_symmetric(2, 0.4, 0.0))
    psi = pair_singlet_state(2)
    traj = integrate(liouv, psi, t_end=5.0, dt=0.01)
    fids = [fidelity(s, psi) for s in traj.states]
    assert min(fids) >= 1.0 - 1e-9


def test_integrate_matches_exact_propagation():
    model = qubit_register(2, epsilon=1.0)
    liouv = build_liouvillian(model, cell_limit(2, 0.1, 0.05))
    psi = basis_state(2, "00")
    traj = integrate(liouv, psi, t_end=10.0, dt=0.005, stride=200)
    for k, t in enumerate(traj.times):
        if t in (1.0, 5.0, 10.0):
            ref = propagate_exact(liouv, psi, t)
            assert np.max(np.abs(traj.states[k] - ref)) < 1e-7


def test_halved_step_agreement():
    rng = rng_for("halved-step")
    model = qubit_register(2, epsilon=1.0)
    liouv = build_liouvillian(model, cell_limit(2, 0.2, 0.1))
    rho0 = random_density_matrix(rng, 4)
    coarse = integrate(liouv, rho0, t_end=2.0, dt=0.02)
    fine = integrate(liouv, rho0, t_end=2.0, dt=0.01)
    assert np.max(np.abs(coarse.final - fine.final)) < 1e-6


def test_metadata_and_grid():
    liouv = _unitary_liouvillian(1)
    psi = basis_state(1, "0")
    traj = integrate(liouv, psi, t_end=2.3, dt=0.1, stride=7)
    md = traj.metadata
    assert md["method"] == "rk4"
    assert md["n_steps"] == 23
    assert md["stride"] == 7
    assert md["dt"] == pytest.approx(0.1)
    assert md["error_estimate"] >= 0.0
    # Snapshots at step 0, 7, 14, 21 and the forced final step 23.
    assert traj.times == pytest.approx([0.0, 0.7, 1.4, 2.1, 2.3])


def test_integrate_zero_time():
    liouv = _unitary_liouvillian(1)
    rho0 = np.diag([0.25, 0.75]).astype(complex)
    traj = integrate(liouv, rho0, t_end=0.0, dt=0.1)
    assert len(traj) == 1
    assert np.array_equal(traj.final, rho0)


def test_integrate_argument_guards():
    liouv = _unitary_liouvillian(1)
    psi = basis_state(1, "0")
    with pytest.raises(TooSmall):
        integrate(liouv, psi, t_end=1.0, dt=0.0)
    with pytest.raises(TooSmall):
        integrate(liouv, psi, t_end=-1.0, dt=0.1)
    with pytest.raises(TooSmall):
        integrate(liouv, psi, t_end=1.0, dt=0.1, stride=0)
    with pytest.raises(DimensionMismatch):
        integrate(liouv, basis_state(2, "00"), t_end=1.0, dt=0.1)


def test_coarse_step_warns():
    model = qubit_register(2, epsilon=1.0)
    liouv = build_liouvillian(model, cell_limit(2, 0.5, 0.0))
    psi = basis_state(2, "01")
    with pytest.warns(RuntimeWarning, match="spectral scale"):
        integrate(liouv, psi, t_end=1.0, dt=0.2)


def test_coarse_step_warns_once_at_the_callers_line():
    model = qubit_register(6)
    liouv = build_liouvillian(model, cell_limit(6, 0.5, 0.0))
    object.__setattr__(liouv, "stability_scale", 1e3)
    # the singlet steps on excitation blocks, the uniform state on the Gamma form
    uniform = np.full(64, 0.125, dtype=complex)
    rhos = [pair_singlet_state(6), uniform]
    for run in (
        lambda: [integrate(liouv, rhos[0], 0.01, 0.01)],
        lambda: evolve(liouv, rhos, 0.01, 0.01),
    ):
        with pytest.warns(RuntimeWarning, match="spectral scale") as caught:
            trajs = run()
        assert [w.filename for w in caught] == [__file__]
    assert [t.metadata["form"] for t in trajs] == ["blocks", "gamma"]


def test_fine_step_does_not_warn():
    model = qubit_register(2, epsilon=1.0)
    liouv = build_liouvillian(model, cell_limit(2, 0.5, 0.0))
    psi = basis_state(2, "01")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        integrate(liouv, psi, t_end=0.5, dt=0.01)


def test_unstable_step_raises():
    model = dephasing_register(2)
    liouv = build_liouvillian(model, cell_limit(2, 4.0, 4.0))
    psi = np.ones(4, dtype=complex) / 2.0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with pytest.raises(UnstableStep):
            integrate(liouv, psi, t_end=50.0, dt=5.0)


# ---------------------------------------------------------------------------
# Exact propagation


@pytest.mark.parametrize("method", ["rk4", "exact", "dephasing"])
def test_evolve_methods_share_integrate_grid(method):
    # 23 steps with stride 7: snapshots at 0, 7, 14, 21 and the remainder 23.
    model = dephasing_register(2)
    spec = exponential_decay(2, 0.3, 0.1, xi=2.0)
    liouv = build_liouvillian(model, spec)
    rng = rng_for("evolve-grid")
    rho0s = [random_pure_state(rng, 4), random_density_matrix(rng, 4)]
    trajs = evolve(liouv, rho0s, 2.3, 0.1, stride=7, method=method)
    assert len(trajs) == len(rho0s)
    for rho0, traj in zip(rho0s, trajs):
        ref = integrate(liouv, rho0, 2.3, 0.1, stride=7)
        assert np.array_equal(traj.times, ref.times)
        if method == "rk4":
            assert np.array_equal(traj.states, ref.states)
            continue
        for t, state in zip(traj.times, traj.states):
            assert np.max(np.abs(state - propagate_exact(liouv, rho0, t))) < 1e-10


@pytest.mark.parametrize("method", ["rk4", "exact", "dephasing"])
def test_evolve_takes_only_whole_strides(method):
    # A fractional stride would keep times between steps, which rk4 never
    # writes: it is refused before any generator is drawn.  A whole-number
    # float acts as its integer.
    liouv = build_liouvillian(dephasing_register(2), exponential_decay(2, 0.3, 0.1, xi=2.0))
    psi = random_pure_state(rng_for("whole-stride"), 4)

    def generators():
        pytest.fail("a generator was drawn")
        yield liouv

    for stride in (2.5, 0.5, float("nan"), float("inf")):
        with pytest.raises(TooSmall, match="whole number"):
            evolve(generators(), [psi], 1.0, 0.1, stride=stride, method=method)
    whole = evolve(liouv, [psi], 1.0, 0.1, stride=2.0, method=method)[0]
    ref = evolve(liouv, [psi], 1.0, 0.1, stride=2, method=method)[0]
    assert np.array_equal(whole.times, ref.times)
    assert np.array_equal(whole.states, ref.states)


@pytest.mark.parametrize("method", ["rk4", "exact", "dephasing"])
def test_evolve_takes_an_iterator_of_states(method):
    liouv = build_liouvillian(dephasing_register(2), exponential_decay(2, 0.3, 0.1, xi=2.0))
    rng = rng_for("state-iterator")
    rho0s = [random_pure_state(rng, 4), random_density_matrix(rng, 4)]
    got = evolve(liouv, (r for r in rho0s), 1.0, 0.1, stride=3, method=method)
    want = evolve(liouv, rho0s, 1.0, 0.1, stride=3, method=method)
    assert len(got) == len(want) == 2
    for a, b in zip(got, want):
        assert np.array_equal(a.times, b.times)
        assert np.array_equal(a.states, b.states)
        assert a.metadata == b.metadata


def test_evolve_argument_guards():
    liouv = _unitary_liouvillian(1)
    psi = basis_state(1, "0")
    with pytest.raises(TypeError, match="model"):
        evolve(liouv, [psi], 1.0, 0.1, method="dephasing", model=None)
    with pytest.raises(QregError, match="unknown method"):
        evolve(liouv, [psi], 1.0, 0.1, method="euler")
    with pytest.raises(TooSmall):
        evolve(liouv, [psi], 1.0, 0.0, method="exact")


def test_propagate_exact_zero_time():
    liouv = _unitary_liouvillian(2)
    rng = rng_for("exact-zero")
    rho0 = random_density_matrix(rng, 4)
    out = propagate_exact(liouv, rho0, 0.0)
    assert np.max(np.abs(out - rho0)) < 1e-12


def test_propagate_exact_kernel_state_is_fixed():
    model = qubit_register(2, epsilon=1.0)
    liouv = build_liouvillian(model, replica_symmetric(2, 0.4, 0.0))
    psi = pair_singlet_state(2)
    rho0 = np.outer(psi, psi.conj())
    out = propagate_exact(liouv, rho0, 3.0)
    assert np.max(np.abs(out - rho0)) < 1e-10


def test_propagate_exact_dimension_guard():
    model = qubit_register(7, epsilon=1.0)
    liouv = build_liouvillian(model, cell_limit(7, 0.1, 0.0))
    rho0 = np.zeros((128, 128), dtype=complex)
    rho0[0, 0] = 1.0
    with pytest.raises(TooLarge):
        propagate_exact(liouv, rho0, 1.0)


# ---------------------------------------------------------------------------
# Closed-form solver for commuting cell operators


def test_dephasing_product_state_fidelity():
    # Independent cells, both kernels at gamma: each cell's coherence
    # decays as e^{-gamma t}, so a uniform product state has fidelity
    # ((1 + e^{-gamma t}) / 2)^n.
    gamma, n = 0.3, 2
    model = dephasing_register(n)
    spec = cell_limit(n, gamma, gamma)
    psi = np.ones(2**n, dtype=complex) / np.sqrt(2.0**n)
    times = np.linspace(0.0, 8.0, 9)
    traj = dephasing_solve(build_liouvillian(model, spec), psi, times)
    for t, state in zip(traj.times, traj.states):
        expected = ((1.0 + np.exp(-gamma * t)) / 2.0) ** n
        assert fidelity(state, psi) == pytest.approx(expected, abs=1e-10)
    assert traj.metadata["method"] == "dephasing"


def test_dephasing_long_time_fidelity_floor():
    gamma, n = 0.3, 3
    model = dephasing_register(n)
    spec = cell_limit(n, gamma, gamma)
    psi = np.ones(2**n, dtype=complex) / np.sqrt(2.0**n)
    liouv = build_liouvillian(model, spec)
    traj = dephasing_solve(liouv, psi, np.array([0.0, 200.0 / gamma]))
    assert fidelity(traj.final, psi) == pytest.approx(2.0**-n, abs=1e-6)


def test_dephasing_diagonal_states_are_fixed():
    rng = rng_for("dephasing-diagonal")
    p = rng.random(8)
    rho0 = np.diag(p / p.sum()).astype(complex)
    model = dephasing_register(3)
    spec = exponential_decay(3, 0.4, 0.2, xi=1.5)
    liouv = build_liouvillian(model, spec)
    traj = dephasing_solve(liouv, rho0, np.array([0.0, 5.0, 50.0]))
    for state in traj.states:
        assert np.max(np.abs(state - rho0)) < 1e-12


def test_dephasing_collective_bath_spares_balanced_coherence():
    # A fully correlated kernel couples only to the summed eigenvalue, so
    # coherence between configurations with equal total weight survives
    # while the up-up / down-down coherence decays.
    gamma = 0.5
    model = dephasing_register(2)
    spec = replica_symmetric(2, gamma, gamma)
    balanced = np.array([0.0, 1.0, 1.0, 0.0], dtype=complex) / np.sqrt(2.0)
    ghz = np.array([1.0, 0.0, 0.0, 1.0], dtype=complex) / np.sqrt(2.0)
    times = np.array([0.0, 2.0])
    liouv = build_liouvillian(model, spec)
    traj_b = dephasing_solve(liouv, balanced, times)
    assert np.max(np.abs(traj_b.final - traj_b.states[0])) < 1e-12
    traj_g = dephasing_solve(liouv, ghz, times)
    # Sum eigenvalues differ by 2, and both kernels contribute: e^{-4 gamma t}.
    assert abs(traj_g.final[0, 3]) == pytest.approx(
        0.5 * np.exp(-4.0 * gamma * 2.0), abs=1e-12
    )


def test_dephasing_hermitian_frame_change_matches_integrator():
    # A non-diagonal Hermitian cell operator exercises the frame rotation.
    model = dephasing_register(2, cell_op=SX_HALF)
    spec = cell_limit(2, 0.3, 0.1)
    rng = rng_for("dephasing-frame")
    rho0 = random_density_matrix(rng, 4)
    liouv = build_liouvillian(model, spec)
    times = np.array([0.0, 1.0])
    traj = dephasing_solve(liouv, rho0, times)
    ref = propagate_exact(liouv, rho0, 1.0)
    assert np.max(np.abs(traj.final - ref)) < 1e-9


@pytest.mark.parametrize("delta_ratio", [0.0, 0.5], ids=["plain", "lamb"])
def test_dephasing_schur_frame_matches_exact_propagation(delta_ratio):
    # i sigma_y is normal but neither Hermitian nor diagonal: its frame
    # comes from the complex Schur form.  The Lamb shift's A_i^+ A_j are
    # diagonal in that frame too.
    model = dephasing_register(3, cell_op=np.array([[0.0, 1.0], [-1.0, 0.0]]))
    spec = exponential_decay(3, 0.3, 0.1, xi=2.0, delta_ratio=delta_ratio)
    liouv = build_liouvillian(model, spec)
    assert np.any(liouv.hamiltonian) == spec.has_lamb_shift
    rho0 = random_density_matrix(rng_for("dephasing-schur"), 8)
    traj = evolve(liouv, [rho0], 2.0, 0.1, stride=7, method="dephasing")[0]
    for t, state in zip(traj.times, traj.states):
        assert np.max(np.abs(state - propagate_exact(liouv, rho0, t))) < 1e-12


def test_dephasing_with_bath_phase_shifts():
    # delta_ratio switches on the coherent part of the bath kernel; the
    # closed form must track the resulting level shifts exactly.
    model = dephasing_register(2)
    spec = exponential_decay(2, 0.4, 0.1, xi=2.0, delta_ratio=0.5)
    assert spec.has_lamb_shift
    rng = rng_for("dephasing-lamb")
    rho0 = random_density_matrix(rng, 4)
    liouv = build_liouvillian(model, spec)
    traj = dephasing_solve(liouv, rho0, np.array([0.0, 0.7]))
    ref = propagate_exact(liouv, rho0, 0.7)
    assert np.max(np.abs(traj.final - ref)) < 1e-9


@pytest.mark.parametrize("cell_op", [None, SX_HALF], ids=["sigma_z", "sigma_x"])
def test_dephasing_evolve_prepares_once_per_generator(monkeypatch, cell_op):
    # evolve checks the generator and fills the closed form's rates once
    # per call, and each trajectory is bitwise dephasing_solve of its state
    # alone, in the identity frame (sigma_z) and a rotated one (sigma_x).
    from qregsim import dynamics

    model = dephasing_register(3, cell_op=cell_op)
    liouv = build_liouvillian(model, exponential_decay(3, 0.3, 0.1, xi=2.0, delta_ratio=0.5))
    rng = rng_for("dephasing-evolve")
    rho0s = [random_density_matrix(rng, 8), random_pure_state(rng, 8), basis_state(3, "010")]
    calls = {"dephasing_check": 0, "add_elementwise_rates": 0}
    for name in calls:
        original = getattr(dynamics, name)

        def counted(*args, _original=original, _name=name, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(dynamics, name, counted)
    trajs = evolve(liouv, rho0s, 2.0, 0.1, stride=5, method="dephasing")
    assert calls == {"dephasing_check": 1, "add_elementwise_rates": 1}
    monkeypatch.undo()
    for rho0, traj in zip(rho0s, trajs):
        alone = dephasing_solve(liouv, rho0, traj.times)
        assert np.array_equal(traj.times, alone.times)
        assert np.array_equal(traj.states, alone.states)
        assert traj.metadata == alone.metadata


def test_the_closed_form_reads_a_diagonal_h_from_its_generator():
    # In the identity frame (sigma_z cells) the check reads H's diagonal
    # from the Liouvillian, with no D x D array, and the trajectories are
    # the closed form of exp(C t) built from the diagonal of the D x D H.
    n = 8
    model = dephasing_register(n)
    liouv = build_liouvillian(model, exponential_decay(n, 0.3, 0.1, xi=2.0, delta_ratio=0.5))
    assert liouv.hamiltonian_diagonal is not None and np.any(liouv.hamiltonian_diagonal)
    tracemalloc.start()
    try:
        w, frame, _ = dephasing_check(model, liouv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert frame is None and peak < 16 * liouv.dim**2
    e = np.real(np.diag(liouv.hamiltonian))
    c = 1j * (e[None, :] - e[:, None])
    add_elementwise_rates(liouv.lindblad, w, c)
    rng = rng_for("dephasing-diagonal-h")
    rho0s = [random_density_matrix(rng, liouv.dim), random_pure_state(rng, liouv.dim)]
    trajs = evolve(liouv, rho0s, 1.0, 0.1, stride=5, method="dephasing")
    for rho0, traj in zip(rho0s, trajs):
        rho = rho0 if rho0.ndim == 2 else np.outer(rho0, rho0.conj())
        want = np.stack([rho * np.exp(c * float(t)) for t in traj.times])
        assert np.array_equal(traj.states, want)


def test_dephasing_matches_integrator_exponential_bath():
    model = dephasing_register(3)
    spec = exponential_decay(3, 0.3, 0.1, xi=2.0)
    rng = rng_for("dephasing-vs-rk4")
    psi = random_pure_state(rng, 8)
    liouv = build_liouvillian(model, spec)
    traj_cf = dephasing_solve(liouv, psi, np.array([0.0, 1.0]))
    traj_rk = integrate(liouv, psi, t_end=1.0, dt=0.002, stride=500)
    assert np.max(np.abs(traj_cf.final - traj_rk.final)) < 1e-6


def test_dephasing_rejects_non_normal_cell_op():
    model = qubit_register(2, epsilon=1.0)
    psi = basis_state(2, "00")
    liouv = build_liouvillian(model, cell_limit(2, 0.1, 0.0))
    with pytest.raises(NotSimultaneouslyDiagonalizable):
        dephasing_solve(liouv, psi, np.array([0.0]))


def test_dephasing_argument_guards():
    liouv = build_liouvillian(dephasing_register(2), cell_limit(2, 0.1, 0.1))
    psi = np.ones(4, dtype=complex) / 2.0
    with pytest.raises(DimensionMismatch):
        dephasing_solve(liouv, psi, np.array([]))
    with pytest.raises(DimensionMismatch):
        dephasing_solve(liouv, np.ones(8) / np.sqrt(8.0), np.array([0.0]))
    # a bath of the wrong size is refused where the generator is built
    with pytest.raises(DimensionMismatch):
        build_liouvillian(dephasing_register(2), cell_limit(3, 0.1, 0.1))


def test_dephasing_needs_a_canonical_set():
    # The closed form reads the register and the rates from the set: one
    # without a model, or with terms that carry no weights, is refused.
    model = dephasing_register(2)
    liouv = build_liouvillian(model, cell_limit(2, 0.1, 0.1))
    psi = np.ones(4, dtype=complex) / 2.0
    ops = liouv.lindblad.operators()
    for lset in (
        LindbladSet(terms=liouv.lindblad.terms),
        LindbladSet(terms=tuple(LindbladTerm(0.1, op, -1) for op in ops), model=model),
    ):
        bare = Liouvillian(hamiltonian=liouv.hamiltonian, lindblad=lset)
        with pytest.raises(QregError, match="canonical"):
            dephasing_solve(bare, psi, np.array([0.0]))
        with pytest.raises(QregError, match="canonical"):
            evolve(bare, [psi], 1.0, 0.1, method="dephasing")


def test_dephasing_follows_the_generator_hamiltonian():
    # The closed form takes its energies from the generator it is given:
    # a hand-built H with an extra diagonal term on top of the built one
    # (free part and Lamb shift) moves it exactly as it moves the exact
    # propagator.
    model = dephasing_register(3)
    spec = exponential_decay(3, 0.3, 0.1, xi=2.0, delta_ratio=0.5)
    built = build_liouvillian(model, spec)
    h = built.hamiltonian + np.diag(np.linspace(-1.0, 1.0, model.dim))
    liouv = Liouvillian(hamiltonian=h, lindblad=built.lindblad)
    rng = rng_for("dephasing-follows-h")
    rho0s = [random_pure_state(rng, 8), random_density_matrix(rng, 8)]
    closed = evolve(liouv, rho0s, 2.0, 0.1, stride=5, method="dephasing")
    exact = evolve(liouv, rho0s, 2.0, 0.1, stride=5, method="exact")
    for a, b in zip(closed, exact):
        assert np.max(np.abs(a.states - b.states)) < 1e-12


def test_dephasing_purity_never_increases():
    model = dephasing_register(2)
    spec = exponential_decay(2, 0.5, 0.2, xi=1.0)
    psi = np.ones(4, dtype=complex) / 2.0
    times = np.linspace(0.0, 10.0, 60)
    traj = dephasing_solve(build_liouvillian(model, spec), psi, times)
    purity = [float(np.real(np.trace(s @ s))) for s in traj.states]
    assert all(b <= a + 1e-10 for a, b in zip(purity, purity[1:]))


def test_step_count_guard_raises_before_allocating():
    import tracemalloc

    from qregsim.dynamics import MAX_STEPS, snapshot_grid

    tracemalloc.start()
    try:
        with pytest.raises(TooLarge, match="steps"):
            snapshot_grid(1e18, 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**16
    # the bound itself is allowed
    h, steps = snapshot_grid(float(MAX_STEPS), 1.0, stride=MAX_STEPS)
    assert h == 1.0 and steps.tolist() == [0, MAX_STEPS]


def test_integrate_uses_the_generator_stability_scale():
    model = qubit_register(2, epsilon=1.0)
    liouv = build_liouvillian(model, cell_limit(2, 0.5, 0.0))
    assert liouv.stability_scale == pytest.approx(1.5)
    object.__setattr__(liouv, "stability_scale", 1e3)
    with pytest.warns(RuntimeWarning, match="spectral scale"):
        integrate(liouv, basis_state(2, "01"), t_end=0.01, dt=0.01)


def test_rk4_reads_the_stability_scale_only_when_it_steps(monkeypatch):
    # The Lamb shift makes H non-diagonal but keeps Q: the scale is one
    # eigvalsh per Q block of H, and the snapshot checks, certified, run none.
    n = 6
    spec = exponential_decay(n, 0.1, 0.02, 1.0, delta_ratio=0.5)
    liouv = build_liouvillian(qubit_register(n), spec)
    seen = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda m: seen.append(m.shape[0]) or eigvalsh(m))
    psi = dicke_state(n, 3)
    evolve(liouv, [psi], 0.0, 0.01)
    evolve(liouv, [], 1.0, 0.01)
    assert seen == []
    integrate(liouv, psi, 0.01, 0.01)
    assert seen == [comb(n, q) for q in range(n + 1)]


@pytest.mark.parametrize("method", ["rk4", "exact", "dephasing"])
def test_evolve_empty_state_list(method):
    model = qubit_register(2)
    spec = cell_limit(2, 0.1, 0.0)
    liouv = build_liouvillian(model, spec)
    assert evolve(liouv, [], 1.0, 0.1, method=method) == []


_OVERSIZED_STORE = """
import resource
import tracemalloc

# a store that is allocated after all fails here instead of filling memory
resource.setrlimit(resource.RLIMIT_AS, (8 * 2**30, 8 * 2**30))
from qregsim import build_liouvillian, dicke_state, evolve, exponential_decay, qubit_register
from qregsim.errors import TooLarge

n = 10
liouv = build_liouvillian(qubit_register(n), exponential_decay(n, 0.1, 0.02, 1.5))
psi = dicke_state(n, 5)
tracemalloc.start()
try:
    evolve(liouv, [psi], 10.0, 0.01, 1)
    raise SystemExit("no TooLarge")
except TooLarge as exc:
    message = str(exc)
peak = tracemalloc.get_traced_memory()[1]
tracemalloc.stop()
print(peak, message)
"""


@pytest.mark.parametrize("optimize", [False, True])
def test_an_oversized_evolve_store_is_refused_before_it_is_allocated(optimize):
    # One N = 10 state, t_end 10, dt 0.01 and stride 1: 1001 snapshots of
    # 16 MiB, about 15.6 GiB.  check_budget refuses it before the run, with
    # under 1 MiB traced once the generator is built, also under python -O.
    import os
    import subprocess
    import sys
    from pathlib import Path

    import qregsim

    src = str(Path(qregsim.__file__).resolve().parents[1])
    path = os.pathsep.join([src] + [p for p in [os.environ.get("PYTHONPATH")] if p])
    flags = ["-O"] if optimize else []
    proc = subprocess.run(
        [sys.executable, *flags, "-c", _OVERSIZED_STORE],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
    )
    assert proc.returncode == 0, proc.stderr
    peak, message = proc.stdout.split(" ", 1)
    assert int(peak) < 2**20
    assert "snapshot store of evolve needs about 15.6 GiB" in message


def test_each_evolve_store_is_budgeted_with_the_ones_held(monkeypatch):
    # One generator: its store is checked before the run.  A sequence:
    # before each generator's store, counting the stores already held.
    calls = []
    check = dynamics.check_budget
    monkeypatch.setattr(
        dynamics, "check_budget", lambda need, what: calls.append((need, what)) or check(need, what)
    )
    n = 4
    liouvs = [build_liouvillian(qubit_register(n), cell_limit(n, g, 0.0)) for g in (0.1, 0.2)]
    psi = pair_singlet_state(n)
    store = 2 * 3 * 16 * 16**2  # two states, three snapshots
    evolve(liouvs[0], [psi, psi], 0.04, 0.02, 1)
    assert calls[0] == (store, "snapshot store of evolve needs")
    calls.clear()
    evolve(liouvs, [psi, psi], 0.04, 0.02, 1)
    stores = [need for need, what in calls if what.startswith("snapshot store")]
    assert stores == [store, 2 * store]
