"""Fidelity, linear entropy, decoherence-time hierarchy, and energy."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from helpers import random_bath, random_density_matrix, random_pure_state, rng_for

import qregsim
from qregsim import observables
from qregsim.bath import cell_limit, exponential_decay, replica_symmetric
from qregsim.dynamics import dephasing_solve, integrate, propagate_exact
from qregsim.errors import DimensionMismatch, NotHermitian, TooLarge, TooSmall
from qregsim.liouvillian import (
    Liouvillian,
    build_liouvillian,
    canonical_form,
    pairwise_dissipator,
)
from qregsim.observables import (
    DecoherenceReport,
    decoherence_report,
    fidelity,
    linear_entropy,
    pure_decoherence_rate,
    register_energy,
    tau_inverse_n,
)
from qregsim.register import (
    basis_state,
    dephasing_register,
    free_hamiltonian,
    pair_singlet_state,
    qubit_register,
    su2_basis_state,
)


# ---------------------------------------------------------------------------
# fidelity


def test_fidelity_pure_state_is_one():
    rng = rng_for("fid-pure")
    psi = random_pure_state(rng, 6)
    rho = np.outer(psi, psi.conj())
    assert fidelity(rho, psi) == pytest.approx(1.0, abs=1e-12)


def test_fidelity_maximally_mixed():
    rng = rng_for("fid-mixed")
    dim = 5
    psi = random_pure_state(rng, dim)
    assert fidelity(np.eye(dim) / dim, psi) == pytest.approx(1.0 / dim, abs=1e-12)


def test_fidelity_cell_limit_zero_temperature_decay():
    # Two excited cells under independent zero-temperature decay: the
    # population of the doubly excited configuration falls as e^{-2 gamma t}.
    model = qubit_register(2, epsilon=1.0)
    liouv = build_liouvillian(model, cell_limit(2, 0.1, 0.0))
    psi = basis_state(2, "00")
    rho5 = propagate_exact(liouv, psi, 5.0)
    val = fidelity(rho5, psi)
    assert val == pytest.approx(np.exp(-1.0), abs=1e-9)


def test_fidelity_rejects_mismatched_shapes():
    with pytest.raises(DimensionMismatch):
        fidelity(np.eye(4) / 4, np.ones(3) / np.sqrt(3.0))


def test_fidelity_asserts_real_value():
    rho = np.array([[0.5, 0.3j], [0.0, 0.5]], dtype=complex)
    psi = np.array([1.0, 1.0]) / np.sqrt(2.0)
    with pytest.raises(NotHermitian):
        fidelity(rho, psi)


def test_fidelity_check_survives_optimize_flag():
    # Under python -O assert statements are skipped; the check must not be one.
    script = (
        "import sys, numpy as np\n"
        "from qregsim.errors import NotHermitian\n"
        "from qregsim.observables import fidelity\n"
        "rho = np.array([[0, 1j], [0, 0]], dtype=complex)\n"
        "try:\n"
        "    fidelity(rho, np.array([1.0, 1.0]) / np.sqrt(2.0))\n"
        "except NotHermitian:\n"
        "    print(sys.flags.optimize, 'raised')\n"
    )
    src = str(Path(qregsim.__file__).resolve().parents[1])
    path = os.pathsep.join([src] + [p for p in [os.environ.get("PYTHONPATH")] if p])
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["1", "raised"]


# ---------------------------------------------------------------------------
# linear entropy


def test_linear_entropy_pure_and_mixed():
    rng = rng_for("entropy")
    dim = 6
    psi = random_pure_state(rng, dim)
    proj = np.outer(psi, psi.conj())
    assert abs(linear_entropy(proj)) <= 1e-10
    assert linear_entropy(np.eye(dim) / dim) == pytest.approx(1.0 - 1.0 / dim)
    barely_mixed = 0.99 * proj + 0.01 * np.eye(dim) / dim
    assert linear_entropy(barely_mixed) > 1e-4


def test_linear_entropy_dephased_uniform_closed_form():
    # Uniform superposition under independent dephasing at rate gamma on
    # both kernels: delta(t) = 1 - e^{-gamma n t} cosh(gamma t)^n.
    gamma, n, t = 0.1, 2, 1.0
    model = dephasing_register(n)
    spec = cell_limit(n, gamma, gamma)
    psi = np.ones(2**n, dtype=complex) / np.sqrt(2.0**n)
    traj = dephasing_solve(build_liouvillian(model, spec), psi, np.array([0.0, t]))
    expected = 1.0 - np.exp(-gamma * n * t) * np.cosh(gamma * t) ** n
    assert expected == pytest.approx(0.1730546, abs=1e-7)
    assert linear_entropy(traj.final) == pytest.approx(expected, abs=1e-10)
    # Cross-check the closed-form trajectory against direct integration.
    liouv = build_liouvillian(model, spec)
    ref = propagate_exact(liouv, psi, t)
    assert linear_entropy(ref) == pytest.approx(expected, abs=1e-10)


# ---------------------------------------------------------------------------
# decoherence-time hierarchy


def test_tau_inverse_singlet_all_orders_vanish():
    model = qubit_register(2, epsilon=1.0)
    liouv = build_liouvillian(model, replica_symmetric(2, 0.4, 0.1))
    psi = pair_singlet_state(2)
    rho = np.outer(psi, psi.conj())
    taus = tau_inverse_n(liouv, rho, 6)
    assert taus.shape == (6,)
    assert np.max(np.abs(taus)) <= 1e-12


def test_tau_inverse_first_order_matches_pure_rate():
    rng = rng_for("tau-vs-rate")
    model = qubit_register(2, epsilon=0.7)
    spec = exponential_decay(2, 0.3, 0.1, xi=1.5, delta_ratio=0.4)
    liouv = build_liouvillian(model, spec)
    for _ in range(5):
        psi = random_pure_state(rng, 4)
        rho = np.outer(psi, psi.conj())
        tau1 = tau_inverse_n(liouv, rho, 1)[0]
        rate = pure_decoherence_rate(liouv.lindblad, psi)
        assert tau1 == pytest.approx(rate, abs=1e-12)


def test_tau_inverse_mixed_state_double_trace_oracle():
    # Independent route: -2 tr(rho Ldiss(rho)) with the dissipator evaluated
    # from the raw pairwise sums instead of the canonical operators.
    model = qubit_register(2, epsilon=1.0)
    spec = exponential_decay(2, 0.3, 0.1, xi=2.0)
    liouv = build_liouvillian(model, spec)
    rng = rng_for("tau-mixed")
    for rho in (np.eye(4, dtype=complex) / 4.0, random_density_matrix(rng, 4)):
        oracle = -2.0 * np.einsum(
            "ij,ji->", rho, pairwise_dissipator(model, spec, rho)
        ).real
        assert tau_inverse_n(liouv, rho, 1)[0] == pytest.approx(oracle, abs=1e-10)


def test_tau_inverse_first_order_ignores_hamiltonian():
    model = qubit_register(2, epsilon=1.3)
    spec = exponential_decay(2, 0.3, 0.1, xi=1.0, delta_ratio=0.5)
    with_h = build_liouvillian(model, spec)
    no_h = Liouvillian(
        hamiltonian=np.zeros((4, 4), dtype=complex),
        lindblad=canonical_form(model, spec),
    )
    rng = rng_for("tau-no-h")
    for rho in (random_density_matrix(rng, 4),
                np.outer(*(lambda p: (p, p.conj()))(random_pure_state(rng, 4)))):
        a = tau_inverse_n(with_h, rho, 1)[0]
        b = tau_inverse_n(no_h, rho, 1)[0]
        assert a == pytest.approx(b, abs=1e-10)


def test_tau_inverse_order_guards():
    model = qubit_register(1, epsilon=1.0)
    liouv = build_liouvillian(model, cell_limit(1, 0.1, 0.0))
    rho = np.diag([1.0, 0.0]).astype(complex)
    with pytest.raises(TooLarge):
        tau_inverse_n(liouv, rho, 7)
    with pytest.raises(TooSmall):
        tau_inverse_n(liouv, rho, 0)


def test_short_time_entropy_expansion():
    # delta(t) ~ t/tau_1 + t^2 / (2 tau_2^2) within 5% out to t = 0.05 tau_1.
    model = qubit_register(2, epsilon=1.0)
    spec = exponential_decay(2, 0.13, 0.05, xi=2.0)
    liouv = build_liouvillian(model, spec)
    psi = basis_state(2, "00")
    rho0 = np.outer(psi, psi.conj())
    taus = tau_inverse_n(liouv, rho0, 2)
    t_max = 0.05 / taus[0]
    traj = integrate(liouv, psi, t_end=t_max, dt=t_max / 400, stride=40)
    for t, state in zip(traj.times[1:], traj.states[1:]):
        series = t * taus[0] + 0.5 * t * t * taus[1]
        delta = linear_entropy(state)
        assert abs(delta - series) <= 0.05 * abs(delta)


# ---------------------------------------------------------------------------
# first-order rates of pure states


def test_pure_rate_up_up_and_down_down_exponential():
    # Fully excited and fully de-excited product states: only the on-site
    # kernel entries survive, so the rates are 2 n gamma0^(-+).
    gm, gp = 0.13, 0.05
    model = qubit_register(2, epsilon=1.0)
    lind = canonical_form(model, exponential_decay(2, gm, gp, xi=2.0))
    up = basis_state(2, "00")
    down = basis_state(2, "11")
    assert pure_decoherence_rate(lind, up) == pytest.approx(4 * gm, abs=1e-12)
    assert pure_decoherence_rate(lind, down) == pytest.approx(4 * gp, abs=1e-12)


def test_pure_rate_triplet_singlet_exponential():
    gm, gp, xi = 0.13, 0.05, 2.0
    model = qubit_register(2, epsilon=1.0)
    lind = canonical_form(model, exponential_decay(2, gm, gp, xi=xi))
    corr = np.exp(-1.0 / xi)
    trip = np.array([0.0, 1.0, 1.0, 0.0], dtype=complex) / np.sqrt(2.0)
    sing = pair_singlet_state(2)
    assert pure_decoherence_rate(lind, trip) == pytest.approx(
        2.0 * (gm + gp) * (1.0 + corr), abs=1e-12
    )
    assert pure_decoherence_rate(lind, sing) == pytest.approx(
        2.0 * (gm + gp) * (1.0 - corr), abs=1e-12
    )


def test_pure_rate_collective_states_angular_momentum_formula():
    # Fully correlated bath: rate = 2 (gm C-^2 + gp C+^2) with
    # C+-^2(S, M) = S(S+1) - M(M+-1).
    gm, gp, n = 0.2, 0.1, 4
    model = qubit_register(n, epsilon=1.0)
    lind = canonical_form(model, replica_symmetric(n, gm, gp))
    for s2, m2 in ((4, 4), (4, 2), (4, 0), (2, 2), (0, 0)):
        s, m = s2 / 2.0, m2 / 2.0
        psi = su2_basis_state(n, s, m)
        c2_minus = s * (s + 1.0) - m * (m - 1.0)
        c2_plus = s * (s + 1.0) - m * (m + 1.0)
        expected = 2.0 * (gm * c2_minus + gp * c2_plus)
        assert pure_decoherence_rate(lind, psi) == pytest.approx(
            expected, abs=1e-10
        )


@given(seed=st.integers(0, 2**32 - 1))
def test_pure_rate_nonnegative(seed):
    rng = rng_for(seed)
    n = int(rng.integers(1, 4))
    spec = random_bath(rng, n)
    model = qubit_register(n, epsilon=1.0)
    lind = canonical_form(model, spec)
    psi = random_pure_state(rng, 2**n)
    assert pure_decoherence_rate(lind, psi) >= -1e-12


def test_zero_rate_iff_simultaneous_eigenvector():
    model = qubit_register(2, epsilon=1.0)
    lind = canonical_form(model, replica_symmetric(2, 0.4, 0.1))
    dark = pair_singlet_state(2)
    rate = pure_decoherence_rate(lind, dark)
    assert 0.0 <= rate <= 1e-12
    for term in lind:
        mean = complex(dark.conj() @ term.op @ dark)
        residual = term.op @ dark - mean * dark
        assert np.linalg.norm(residual) <= 1e-9
    # Converse: a visibly nonzero rate implies some operator moves the state.
    rng = rng_for("zero-rate-converse")
    psi = random_pure_state(rng, 4)
    rate = pure_decoherence_rate(lind, psi)
    manual = 2.0 * sum(
        term.rate
        * np.linalg.norm(
            term.op @ psi - complex(psi.conj() @ term.op @ psi) * psi
        )
        ** 2
        for term in lind
    )
    assert rate == pytest.approx(manual, abs=1e-12)
    assert rate > 1e-3


def test_pure_rate_dimension_guard():
    model = qubit_register(2, epsilon=1.0)
    lind = canonical_form(model, cell_limit(2, 0.1, 0.0))
    with pytest.raises(DimensionMismatch):
        pure_decoherence_rate(lind, np.ones(8) / np.sqrt(8.0))


# ---------------------------------------------------------------------------
# register energy


def test_register_energy_basic_values():
    epsilon, n = 0.8, 2
    model = qubit_register(n, epsilon=epsilon)
    h = free_hamiltonian(model)
    up = basis_state(n, "00")
    down = basis_state(n, "11")
    assert register_energy(np.outer(up, up.conj()), h) == pytest.approx(epsilon)
    assert register_energy(np.outer(down, down.conj()), h) == pytest.approx(
        -epsilon * n / 2.0
    )


def test_register_energy_guards():
    rho = np.eye(2, dtype=complex) / 2.0
    with pytest.raises(NotHermitian):
        register_energy(rho, np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(DimensionMismatch):
        register_energy(rho, np.eye(4))
    with pytest.raises(DimensionMismatch):
        register_energy(np.stack([rho, rho]), np.eye(4))


def test_register_energy_of_a_stack_is_each_state_alone():
    rng = rng_for("energy-stack")
    h = free_hamiltonian(qubit_register(3, epsilon=0.7))
    states = np.stack([random_density_matrix(rng, 8) for _ in range(4)])
    energies = register_energy(states, h)
    assert energies.shape == (4,)
    assert energies.tolist() == [register_energy(s, h) for s in states]


def test_register_energy_of_a_generator_reads_its_checked_hamiltonian(monkeypatch):
    rng = rng_for("energy-generator")
    liouv = build_liouvillian(qubit_register(3), exponential_decay(3, 0.1, 0.02, 1.0, 0.5))
    states = np.stack([random_density_matrix(rng, 8) for _ in range(3)])
    want = register_energy(states, liouv.hamiltonian)
    # the Liouvillian's constructor checked H: no second check
    monkeypatch.setattr(observables, "is_hermitian", lambda *a, **k: pytest.fail("checked"))
    assert register_energy(states, liouv).tolist() == want.tolist()
    assert register_energy(states[0], liouv) == want[0]


def test_energy_monotone_at_zero_temperature():
    model = qubit_register(3, epsilon=1.0)
    liouv = build_liouvillian(model, exponential_decay(3, 0.3, 0.0, xi=1.5))
    rng = rng_for("energy-monotone")
    psi = random_pure_state(rng, 8)
    traj = integrate(liouv, psi, t_end=5.0, dt=0.01)
    energies = [register_energy(s, liouv.hamiltonian) for s in traj.states]
    for a, b in zip(energies, energies[1:]):
        assert b <= a + 1e-9


# ---------------------------------------------------------------------------
# report bundle


def test_decoherence_report_matches_direct_calls():
    model = qubit_register(2, epsilon=1.0)
    liouv = build_liouvillian(model, cell_limit(2, 0.2, 0.05))
    psi = basis_state(2, "00")
    traj = integrate(liouv, psi, t_end=2.0, dt=0.01, stride=50)
    rep = decoherence_report(liouv, traj, psi, n_max=3)
    assert rep.tau_inverse.shape == (3,)
    assert rep.fidelity_series.shape == rep.entropy_series.shape
    assert len(rep.fidelity_series) == len(traj)
    assert rep.metadata["n_max"] == 3
    assert rep.metadata["dim"] == 4
    k = len(traj) // 2
    assert rep.fidelity_series[k] == pytest.approx(
        fidelity(traj.states[k], psi), abs=1e-14
    )
    assert rep.entropy_series[k] == pytest.approx(
        linear_entropy(traj.states[k]), abs=1e-14
    )
    assert rep.energy_series[k] == pytest.approx(
        register_energy(traj.states[k], liouv.hamiltonian), abs=1e-14
    )


def test_decoherence_report_takes_h_as_its_generator_checked_it(monkeypatch):
    # The Liouvillian checked H at build; the report's energies take it
    # from there and run no second Hermiticity check.
    model = qubit_register(2, epsilon=1.0)
    liouv = build_liouvillian(model, cell_limit(2, 0.2, 0.05))
    psi = basis_state(2, "00")
    traj = integrate(liouv, psi, t_end=1.0, dt=0.01, stride=50)
    want = register_energy(traj.states, liouv.hamiltonian)

    def unchecked(*args, **kwargs):
        raise AssertionError("H checked again")

    monkeypatch.setattr(observables, "is_hermitian", unchecked)
    rep = decoherence_report(liouv, traj, psi)
    assert np.array_equal(rep.energy_series, want)


def test_decoherence_report_validates_bounds():
    ok = dict(
        tau_inverse=np.array([0.1]),
        energy_series=np.array([0.0, 0.0]),
    )
    DecoherenceReport(
        fidelity_series=np.array([1.0, 0.5]),
        entropy_series=np.array([0.0, 0.25]),
        **ok,
    )
    with pytest.raises(ValueError, match="fidelity"):
        DecoherenceReport(
            fidelity_series=np.array([1.0, 1.5]),
            entropy_series=np.array([0.0, 0.0]),
            **ok,
        )
    with pytest.raises(ValueError, match="entropy"):
        DecoherenceReport(
            fidelity_series=np.array([1.0, 0.5]),
            entropy_series=np.array([0.0, -1e-3]),
            **ok,
        )
    with pytest.raises(ValueError, match="1 - 1/D"):
        DecoherenceReport(
            fidelity_series=np.array([1.0, 0.5]),
            entropy_series=np.array([0.0, 0.9]),
            metadata={"dim": 4},
            **ok,
        )
