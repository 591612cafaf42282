"""Acceptance gate: one test (or test family) per numbered criterion.

The terminal summary hook in conftest.py turns these outcomes into one
PASS/FAIL line per criterion.  Criterion 2 is split: the zero-z-spin pair
rows hold exactly, while the quoted values for the fully polarized rows
are the inverse initial fidelity-decay rates, which are half the
first-order linear-entropy rates computed by the variance formula; the
as-quoted assertion is kept as a strict expected failure and the
factor-of-two identity is pinned by a companion test.
"""

import shutil
import subprocess
import sys
import time

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, strategies as st

from conftest import ACCEPTANCE
from helpers import (
    permutation_matrix,
    random_bath,
    random_density_matrix,
    random_pure_state,
    random_phases,
    rng_for,
)

from qregsim.bath import (
    cell_limit,
    exponential_decay,
    gauge_phased,
    replica_symmetric,
)
from qregsim.codes import (
    CodeSubspace,
    dephasing_cluster_code,
    gauge_transport,
    multiplicity,
    n4_codewords,
    null_code,
)
from qregsim.dynamics import dephasing_solve, integrate, propagate_exact
from qregsim.linalg import frob, herm_eig, hermiticity_defect
from qregsim.liouvillian import (
    Liouvillian,
    build_liouvillian,
    canonical_form,
    pairwise_dissipator,
)
from qregsim.observables import (
    fidelity,
    linear_entropy,
    pure_decoherence_rate,
    register_energy,
)
from qregsim.register import (
    SIGMA_MINUS,
    basis_state,
    dephasing_register,
    dicke_state,
    embed_cell_op,
    heisenberg_ring,
    pair_singlet_state,
    qubit_register,
    register_hamiltonian,
    su2_basis_state,
    total_sminus,
    total_splus,
    total_sz,
)

SEEDS = st.integers(0, 2**32 - 1)


def _rate_quadratic_form(model, gamma_minus, psi):
    """Variance-formula rate evaluated directly from the raw coefficient
    matrix, independent of the canonical diagonalized operators."""
    n = model.n_cells
    sm = [embed_cell_op(model, i, SIGMA_MINUS) for i in range(n)]
    sp = [m.conj().T for m in sm]
    total = 0.0j
    for i in range(n):
        mean_i = complex(psi.conj() @ sp[i] @ psi)
        for j in range(n):
            mean_j = complex(psi.conj() @ sm[j] @ psi)
            corr = complex(psi.conj() @ (sp[i] @ (sm[j] @ psi)))
            total += gamma_minus[i, j] * (corr - mean_i * mean_j)
    assert abs(total.imag) < 1e-12
    return 2.0 * total.real


# ---------------------------------------------------------------------------
# criterion 1: closed-form dephasing of the uniform superposition


@pytest.mark.parametrize("n", [2, 4, 6])
def test_criterion_01_dephasing_closed_form(n):
    gamma = 0.1
    start = time.perf_counter()
    model = dephasing_register(n)
    liouv = build_liouvillian(model, cell_limit(n, gamma, gamma))
    psi = np.ones(2**n, dtype=complex) / np.sqrt(2.0**n)
    traj = integrate(liouv, psi, t_end=50.0, dt=0.05)
    for t, state in zip(traj.times, traj.states):
        f_exact = np.exp(-0.5 * gamma * n * t) * np.cosh(0.5 * gamma * t) ** n
        d_exact = 1.0 - np.exp(-gamma * n * t) * np.cosh(gamma * t) ** n
        assert abs(fidelity(state, psi) - f_exact) <= 1e-6
        assert abs(linear_entropy(state) - d_exact) <= 1e-6
    assert time.perf_counter() - start < 10.0


# ---------------------------------------------------------------------------
# criterion 2: two-cell first-order rate formulas

RATE_GRID = [
    (gm, gp, xi)
    for gm in (0.13, 0.4, 1.0)
    for gp in (0.0, 0.05, 0.13)
    for xi in (0.3, 1.0, 2.5)
]


def test_criterion_02_pair_states():
    model = qubit_register(2, epsilon=1.0)
    for gm, gp, xi in RATE_GRID:
        lind = canonical_form(model, exponential_decay(2, gm, gp, xi=xi))
        a = np.exp(-1.0 / xi)
        trip = (basis_state(2, "01") + basis_state(2, "10")) / np.sqrt(2.0)
        sing = pair_singlet_state(2)
        assert pure_decoherence_rate(lind, trip) == pytest.approx(
            2.0 * (gm + gp) * (1.0 + a), rel=1e-10
        )
        assert pure_decoherence_rate(lind, sing) == pytest.approx(
            2.0 * (gm + gp) * (1.0 - a), rel=1e-10
        )


@pytest.mark.xfail(
    strict=True,
    reason="polarized-row values are inverse fidelity-decay rates, half the "
    "variance-formula rate; the companion identity test pins the factor",
)
def test_criterion_02_polarized_rows_as_quoted():
    model = qubit_register(2, epsilon=1.0)
    for gm, gp, xi in RATE_GRID:
        lind = canonical_form(model, exponential_decay(2, gm, gp, xi=xi))
        up = basis_state(2, "00")
        down = basis_state(2, "11")
        # tau_1 = 1/(2 gamma0) would require these rates:
        assert pure_decoherence_rate(lind, up) == pytest.approx(
            2.0 * gm, rel=1e-10
        )
        assert pure_decoherence_rate(lind, down) == pytest.approx(
            2.0 * gp, rel=1e-10, abs=1e-12
        )


def test_criterion_02_polarized_factor_identity():
    # The variance formula gives 2 n gamma0 for the fully polarized pair
    # (n = 2), while the initial fidelity-decay rate -dF/dt(0) is exactly
    # half of it, n gamma0 -- the value behind the quoted 1/(2 gamma0).
    model = qubit_register(2, epsilon=1.0)
    up = basis_state(2, "00")
    rho0 = np.outer(up, up.conj())
    for gm, gp, xi in RATE_GRID:
        spec = exponential_decay(2, gm, gp, xi=xi)
        lind = canonical_form(model, spec)
        rate = pure_decoherence_rate(lind, up)
        assert rate == pytest.approx(4.0 * gm, rel=1e-10)
        liouv = build_liouvillian(model, spec)
        f_dot0 = float(np.real(up.conj() @ liouv.apply(rho0) @ up))
        assert -f_dot0 == pytest.approx(2.0 * gm, rel=1e-10)
        assert rate == pytest.approx(-2.0 * f_dot0, rel=1e-10)


# ---------------------------------------------------------------------------
# criterion 3: collective-state rates at the fully correlated point


@pytest.mark.parametrize("n", [2, 4])
def test_criterion_03_collective_state_rates(n):
    gm, gp = 0.2, 0.1
    model = qubit_register(n, epsilon=1.0)
    lind = canonical_form(model, replica_symmetric(n, gm, gp))
    s2 = n  # twice the maximal spin
    while s2 >= (n % 2):
        s = s2 / 2.0
        n_copies = multiplicity(n, s)
        for copy in range(n_copies):
            for m2 in range(-s2, s2 + 1, 2):
                m = m2 / 2.0
                psi = su2_basis_state(n, s, m, copy)
                c2_minus = s * (s + 1.0) - m * (m - 1.0)
                c2_plus = s * (s + 1.0) - m * (m + 1.0)
                expected = 2.0 * (gm * c2_minus + gp * c2_plus)
                assert pure_decoherence_rate(lind, psi) == pytest.approx(
                    expected, rel=1e-9, abs=1e-9
                )
        s2 -= 2


# ---------------------------------------------------------------------------
# criterion 4: code dimensions and multiplicity identity


def test_criterion_04_code_dimensions():
    for n, expected in ((2, 1), (4, 2), (6, 5), (8, 14)):
        model = qubit_register(n, epsilon=1.0)
        lind = canonical_form(model, replica_symmetric(n, 0.4, 0.1))
        code = null_code(lind)
        assert code.dim == expected
        assert code.dim == multiplicity(n, 0)
    for n in range(1, 13):
        total = sum(
            multiplicity(n, s2 / 2.0) * (s2 + 1)
            for s2 in range(n % 2, n + 1, 2)
        )
        assert total == 2**n
    from math import comb

    for n, m in ((4, 2), (4, 4), (8, 4)):
        code = dephasing_cluster_code(n, m)
        assert code.dim == comb(m, m // 2) ** (n // m)


# ---------------------------------------------------------------------------
# criterion 5: four-cell codewords, splitting, and long-time protection


def test_criterion_05_codeword_evolution():
    j = 0.7
    zero, one = n4_codewords()
    for op in (total_splus(4), total_sminus(4), total_sz(4)):
        assert np.max(np.abs(op @ zero)) <= 1e-12
        assert np.max(np.abs(op @ one)) <= 1e-12
    ring = heisenberg_ring(4, j)
    assert np.max(np.abs(ring @ zero - j * zero)) <= 1e-10
    assert np.max(np.abs(ring @ one + j * one)) <= 1e-10

    model = qubit_register(4, epsilon=1.0)
    h = register_hamiltonian(model) + ring
    liouv = Liouvillian(
        hamiltonian=h, lindblad=canonical_form(model, replica_symmetric(4, 0.4, 0.1))
    )
    psi0 = (zero + one) / np.sqrt(2.0)
    traj = integrate(liouv, psi0, t_end=100.0, dt=0.01, stride=1000)
    final = traj.final
    assert linear_entropy(final) <= 1e-8
    u = scipy.linalg.expm(-1j * h * 100.0)
    rotated = u.conj().T @ final @ u
    assert fidelity(rotated, psi0) >= 1.0 - 1e-7


# ---------------------------------------------------------------------------
# criterion 6: correlation-length sweep ordering and monotonicity


def test_criterion_06_correlation_length_sweep():
    gamma0, n = 0.1, 4
    model = qubit_register(n, epsilon=1.0)
    grid = np.logspace(np.log10(0.05), 0.0, 20)
    singlet = pair_singlet_state(n)
    symmetric = dicke_state(n, n // 2)
    rates_s, rates_d = [], []
    for xi in grid:
        spec = exponential_decay(n, gamma0, 0.0, xi=float(xi))
        lind = canonical_form(model, spec)
        r_s = pure_decoherence_rate(lind, singlet)
        r_d = pure_decoherence_rate(lind, symmetric)
        # Independent route: the raw-coefficient quadratic form.
        assert r_s == pytest.approx(
            _rate_quadratic_form(model, spec.gamma_minus, singlet), rel=1e-12
        )
        assert r_d == pytest.approx(
            _rate_quadratic_form(model, spec.gamma_minus, symmetric), rel=1e-12
        )
        rates_s.append(r_s)
        rates_d.append(r_d)
    tau_s = 1.0 / np.asarray(rates_s)
    tau_d = 1.0 / np.asarray(rates_d)
    assert np.all(tau_s > tau_d)
    assert np.all(np.diff(tau_s) > 0)
    assert np.all(np.diff(tau_d) < 0)
    # Endpoint cross-check against the pair/collective closed forms: the
    # adjacent-pair singlet product decoheres at twice the two-cell singlet
    # rate; the half-filled symmetric state interpolates between the
    # independent-cell and fully collective values.
    for k in (0, len(grid) - 1):
        a = np.exp(-1.0 / grid[k])
        assert rates_s[k] == pytest.approx(
            4.0 * gamma0 * (1.0 - a), rel=1e-10
        )
        assert rates_d[k] == pytest.approx(
            2.0 * gamma0 * (2.0 + (2.0 / 3.0) * (3 * a + 2 * a**2 + a**3)),
            rel=1e-10,
        )


# ---------------------------------------------------------------------------
# criterion 7: integrator versus dense-exponential oracle


def test_criterion_07_integrator_matches_exact_propagation():
    start = time.perf_counter()
    for case in range(5):
        rng = rng_for(1000 + case)
        n = int(rng.integers(1, 4))
        spec = random_bath(rng, n)
        model = (
            qubit_register(n, epsilon=float(rng.uniform(0.5, 1.5)))
            if case % 2 == 0
            else dephasing_register(n)
        )
        liouv = build_liouvillian(model, spec)
        rho0 = random_density_matrix(rng, 2**n)
        traj = integrate(liouv, rho0, t_end=5.0, dt=0.01, stride=50)
        assert len(traj) >= 10
        for t, state in zip(traj.times, traj.states):
            ref = propagate_exact(liouv, rho0, float(t))
            assert frob(state - ref) <= 1e-6
    assert time.perf_counter() - start < 30.0


# ---------------------------------------------------------------------------
# criterion 8: structural invariants, 200 random cases per property


def _random_model_and_bath(rng):
    n = int(rng.integers(1, 4))
    spec = random_bath(rng, n)
    if rng.integers(0, 2):
        model = qubit_register(n, epsilon=float(rng.uniform(0.2, 2.0)))
    else:
        model = dephasing_register(n)
    return model, spec


@ACCEPTANCE
@given(seed=SEEDS)
def test_criterion_08_trace_preservation(seed):
    rng = rng_for(seed)
    model, spec = _random_model_and_bath(rng)
    liouv = build_liouvillian(model, spec)
    rho = random_density_matrix(rng, model.dim)
    assert abs(complex(np.trace(liouv.apply(rho)))) <= 1e-11
    traj = integrate(liouv, rho, t_end=0.05, dt=0.01)
    assert abs(complex(np.trace(traj.final)) - 1.0) <= 1e-8


@ACCEPTANCE
@given(seed=SEEDS)
def test_criterion_08_hermiticity_preservation(seed):
    rng = rng_for(seed)
    model, spec = _random_model_and_bath(rng)
    liouv = build_liouvillian(model, spec)
    rho = random_density_matrix(rng, model.dim)
    assert hermiticity_defect(liouv.apply(rho)) <= 1e-11
    traj = integrate(liouv, rho, t_end=0.05, dt=0.01)
    assert hermiticity_defect(traj.final) <= 1e-9


@ACCEPTANCE
@given(seed=SEEDS)
def test_criterion_08_entropy_monotone_under_dephasing(seed):
    rng = rng_for(seed)
    n = int(rng.integers(1, 4))
    model = dephasing_register(n)
    spec = random_bath(rng, n)
    psi = random_pure_state(rng, 2**n)
    times = np.linspace(0.0, float(rng.uniform(1.0, 10.0)), 7)
    traj = dephasing_solve(build_liouvillian(model, spec), psi, times)
    entropies = [linear_entropy(s) for s in traj.states]
    for a, b in zip(entropies, entropies[1:]):
        assert b >= a - 1e-10


@ACCEPTANCE
@given(seed=SEEDS)
def test_criterion_08_energy_monotone_at_zero_temperature(seed):
    rng = rng_for(seed)
    n = int(rng.integers(1, 4))
    spec = random_bath(rng, n, with_plus=False)
    model = qubit_register(n, epsilon=float(rng.uniform(0.2, 2.0)))
    liouv = build_liouvillian(model, spec)
    psi = random_pure_state(rng, 2**n)
    traj = integrate(liouv, psi, t_end=0.2, dt=0.02, stride=1)
    energies = [register_energy(s, liouv.hamiltonian) for s in traj.states]
    for a, b in zip(energies, energies[1:]):
        assert b <= a + 1e-9


@ACCEPTANCE
@given(seed=SEEDS)
def test_criterion_08_pairwise_and_canonical_dissipators_agree(seed):
    rng = rng_for(seed)
    model, spec = _random_model_and_bath(rng)
    rho = random_density_matrix(rng, model.dim)
    via_pairs = pairwise_dissipator(model, spec, rho)
    lind_only = Liouvillian(
        hamiltonian=np.zeros((model.dim, model.dim), dtype=complex),
        lindblad=canonical_form(model, spec),
    )
    assert frob(via_pairs - lind_only.apply(rho)) <= 1e-10


@ACCEPTANCE
@given(seed=SEEDS)
def test_criterion_08_permutation_covariance_at_replica_point(seed):
    rng = rng_for(seed)
    n = int(rng.integers(2, 4))
    gm = float(rng.uniform(0.1, 1.0))
    gp = float(rng.uniform(0.0, gm))
    model = qubit_register(n, epsilon=1.0)
    liouv = build_liouvillian(model, replica_symmetric(n, gm, gp))
    rho = random_density_matrix(rng, 2**n)
    i, j = rng.choice(n, size=2, replace=False)
    p = permutation_matrix(n, int(i), int(j))
    lhs = p @ liouv.apply(rho) @ p.conj().T
    rhs = liouv.apply(p @ rho @ p.conj().T)
    assert frob(lhs - rhs) <= 1e-11


@ACCEPTANCE
@given(seed=SEEDS)
def test_criterion_08_gauge_covariance(seed):
    rng = rng_for(seed)
    n = int(rng.integers(2, 4))
    base = random_bath(rng, n, with_plus=False)
    phases = random_phases(rng, n)
    phased = gauge_phased(base, phases)
    # Spectrum preservation of the coefficient matrices.
    for before, after in (
        (base.gamma_minus, phased.gamma_minus),
        (base.gamma_plus, phased.gamma_plus),
    ):
        w0, _ = herm_eig(before)
        w1, _ = herm_eig(after)
        assert np.max(np.abs(w0 - w1)) <= 1e-12
    # Transported null code stays dark for the phased channel.
    model = qubit_register(n, epsilon=1.0)
    code = null_code(canonical_form(model, base))
    moved = gauge_transport(code, phases, model)
    lind = canonical_form(model, phased)
    for k in range(moved.dim):
        assert pure_decoherence_rate(lind, moved.basis[:, k]) <= 1e-9


@ACCEPTANCE
@given(seed=SEEDS)
def test_criterion_08_rate_nonnegativity(seed):
    rng = rng_for(seed)
    n = int(rng.integers(1, 5))
    spec = random_bath(rng, n)
    model = qubit_register(n, epsilon=1.0)
    lind = canonical_form(model, spec)
    psi = random_pure_state(rng, 2**n)
    assert pure_decoherence_rate(lind, psi) >= -1e-12


# ---------------------------------------------------------------------------
# criterion 9: alternating-phase gauge flip of the two-cell singlet


def test_criterion_09_gauge_flip():
    model = qubit_register(2, epsilon=1.0)
    phases = [0.0, np.pi]
    singlet = pair_singlet_state(2)
    code = CodeSubspace(basis=singlet[:, None], labels=(0.0,))
    moved = gauge_transport(code, phases, model)
    triplet = (basis_state(2, "01") + basis_state(2, "10")) / np.sqrt(2.0)
    overlap = abs(complex(triplet.conj() @ moved.basis[:, 0]))
    assert overlap >= 1.0 - 1e-10
    lind = canonical_form(model, gauge_phased(replica_symmetric(2, 0.4, 0.1), phases))
    assert pure_decoherence_rate(lind, moved.basis[:, 0]) <= 1e-10


# ---------------------------------------------------------------------------
# criterion 10: byte-identical CSV output across repeated runs


def test_criterion_10_determinism(tmp_path):
    exe = shutil.which("qregsim")
    base_cmd = [exe] if exe else [sys.executable, "-m", "qregsim.expcli"]
    outputs = []
    for tag in ("first", "second"):
        out_dir = tmp_path / tag
        proc = subprocess.run(
            base_cmd + ["simulate", "--preset", "fig2", "--out", str(out_dir)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append((out_dir / "fig2.csv").read_bytes())
    assert outputs[0] == outputs[1]
    assert outputs[0].startswith(b"t,")
