"""Generator assembly: canonical Lindblad form, Lamb shift, fast application,
the literal pairwise dissipator, and the materialized superoperator."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from qregsim import (
    BathSpec,
    build_liouvillian,
    canonical_form,
    cell_limit,
    lamb_shift,
    pairwise_dissipator,
    replica_symmetric,
    superoperator_matrix,
)
from qregsim.errors import NotHermitian, TooLarge
from qregsim.linalg import is_hermitian, vec
from qregsim.liouvillian import (
    SECTOR_MINUS,
    SECTOR_PLUS,
    LindbladSet,
    LindbladTerm,
    Liouvillian,
)
from qregsim.register import (
    basis_state,
    dephasing_register,
    embed_cell_op,
    free_hamiltonian,
    pair_singlet_state,
    qubit_register,
    total_sminus,
    total_splus,
)

from helpers import permutation_matrix, random_bath, random_density_matrix, rng_for


class TestCanonicalForm:
    def test_replica_single_term(self):
        model = qubit_register(4)
        terms = list(canonical_form(model, replica_symmetric(4, 0.1, 0.0)))
        assert len(terms) == 1
        term = terms[0]
        assert term.sector == SECTOR_MINUS
        assert abs(term.rate - 0.4) <= 1e-14
        assert np.linalg.norm(np.abs(term.op) - np.abs(total_sminus(4)) / 2) <= 1e-12

    def test_cell_limit_two_terms(self):
        model = qubit_register(2)
        terms = list(canonical_form(model, cell_limit(2, 0.3, 0.0)))
        assert len(terms) == 2
        assert all(abs(t.rate - 0.3) <= 1e-14 for t in terms)
        # unitary mixtures of the two local lowering operators span the pair
        a0, a1 = embed_cell_op(model, 0), embed_cell_op(model, 1)
        for t in terms:
            coeff0 = np.trace(a0.conj().T @ t.op) / np.trace(a0.conj().T @ a0)
            coeff1 = np.trace(a1.conj().T @ t.op) / np.trace(a1.conj().T @ a1)
            rebuilt = coeff0 * a0 + coeff1 * a1
            assert np.linalg.norm(rebuilt - t.op) <= 1e-12

    def test_zero_temperature_has_no_plus_terms(self):
        model = qubit_register(3)
        terms = canonical_form(model, replica_symmetric(3, 0.2, 0.0))
        assert all(t.sector == SECTOR_MINUS for t in terms)

    def test_finite_temperature_has_both_sectors(self):
        model = qubit_register(2)
        sectors = {t.sector for t in canonical_form(model, cell_limit(2, 0.2, 0.1))}
        assert sectors == {SECTOR_MINUS, SECTOR_PLUS}

    @given(st.integers(0, 10_000))
    def test_reconstruction_identity(self, seed):
        rng = rng_for(seed)
        n = 3
        spec = random_bath(rng, n)
        model = qubit_register(n)
        terms = canonical_form(model, spec)
        ops = [embed_cell_op(model, i) for i in range(n)]
        rebuilt = np.zeros((n, n), dtype=complex)
        for t in terms:
            if t.sector != SECTOR_MINUS:
                continue
            u = np.array(
                [np.trace(a.conj().T @ t.op) / np.trace(a.conj().T @ a) for a in ops]
            )
            # canonical op is sum_i u^mu_i A_i with Gamma = V diag(lam) V^H,
            # so Gamma_ij = sum_mu rate_mu u_i conj(u_j)
            rebuilt += t.rate * np.outer(u, u.conj())
        assert np.linalg.norm(rebuilt - spec.gamma_minus) <= 1e-10

    def test_step_condition_per_sector(self):
        # daggering [H, A] = -eps A gives [H, A^dag] = +eps A^dag, so the
        # sector-signed relation is [H, L^s] = s * eps * L^s with s = -1, +1
        model = qubit_register(3, epsilon=0.8)
        h = free_hamiltonian(model)
        for t in canonical_form(model, cell_limit(3, 0.2, 0.1)):
            resid = h @ t.op - t.op @ h - t.sector * 0.8 * t.op
            assert np.linalg.norm(resid) <= 1e-9

    def test_noise_eigenvalues_dropped(self):
        # a rank-one bath perturbed below the cutoff keeps a single term
        n = 3
        gm = replica_symmetric(n, 0.3, 0.0).gamma_minus
        gm = gm + 1e-14 * np.eye(n)
        spec = BathSpec(gamma_minus=gm, gamma_plus=np.zeros((n, n)))
        terms = list(canonical_form(qubit_register(n), spec))
        assert len(terms) == 1


class TestLambShift:
    def test_absent_deltas_give_zero(self):
        model = qubit_register(2)
        assert np.count_nonzero(lamb_shift(model, cell_limit(2, 0.1, 0.0))) == 0

    def test_replica_structure(self):
        model = qubit_register(3)
        spec = replica_symmetric(3, 0.2, 0.1, delta_ratio=0.5)
        d_minus, d_plus = 0.5 * 0.2, 0.5 * 0.1
        sp, sm = total_splus(3), total_sminus(3)
        expected = d_minus * sp @ sm + d_plus * sm @ sp
        assert np.linalg.norm(lamb_shift(model, spec) - expected) <= 1e-12

    def test_commutes_with_free_hamiltonian(self):
        model = qubit_register(3)
        spec = replica_symmetric(3, 0.2, 0.1, delta_ratio=0.3)
        dh = lamb_shift(model, spec)
        h = free_hamiltonian(model)
        assert np.linalg.norm(dh @ h - h @ dh) <= 1e-9

    def test_annihilates_singlets(self):
        model = qubit_register(4)
        spec = replica_symmetric(4, 0.2, 0.1, delta_ratio=0.4)
        dh = lamb_shift(model, spec)
        from qregsim import su2_basis_state

        for copy in range(2):
            psi = su2_basis_state(4, 0, 0, copy=copy)
            assert np.linalg.norm(dh @ psi) <= 1e-12


class TestApply:
    def test_singlet_projector_is_stationary(self):
        model = qubit_register(2)
        liouv = build_liouvillian(model, replica_symmetric(2, 0.1, 0.05))
        psi = pair_singlet_state(2)
        rho = np.outer(psi, psi.conj())
        out = liouv.apply(rho)
        # remove the free-Hamiltonian rotation (singlet is an eigenstate, so
        # the commutator term vanishes as well)
        assert np.linalg.norm(out) <= 1e-12

    def test_identity_with_no_lindblads(self):
        h = np.diag([1.0, -1.0]).astype(complex)
        liouv = Liouvillian(hamiltonian=h, lindblad=LindbladSet(terms=()))
        assert np.linalg.norm(liouv.apply(np.eye(2) / 2)) <= 1e-14

    def test_up_up_first_order_rate(self):
        # N=2 independent cells: 1/tau_1 = 2 * (0.1 + 0.1) and the Dirac
        # expectation identity 1/tau_1 = -2 tr(rho L(rho)) ties the applied
        # generator to the rate formula
        model = qubit_register(2)
        liouv = build_liouvillian(model, cell_limit(2, 0.1, 0.0))
        psi = basis_state(2, "00")
        rho = np.outer(psi, psi.conj())
        val = np.einsum("ij,ji->", rho, liouv.apply(rho)).real
        assert abs(val - (-0.2)) <= 1e-12
        assert abs(-2.0 * val - 1.0 / (2 * 0.1 * 2) ** -1) <= 1e-12

    @given(st.integers(0, 10_000))
    def test_trace_and_hermiticity_preserved(self, seed):
        rng = rng_for(seed)
        model = qubit_register(2)
        liouv = build_liouvillian(model, random_bath(rng, 2))
        rho = random_density_matrix(rng, 4)
        out = liouv.apply(rho)
        assert abs(np.trace(out)) <= 1e-11
        assert np.linalg.norm(out - out.conj().T) <= 1e-11

    @given(st.integers(0, 10_000))
    def test_pairwise_equals_canonical(self, seed):
        rng = rng_for(seed)
        n = 3
        spec = random_bath(rng, n)
        model = qubit_register(n)
        liouv = build_liouvillian(model, spec)
        rho = random_density_matrix(rng, 2**n)
        direct = pairwise_dissipator(model, spec, rho)
        h = liouv.hamiltonian
        canonical = liouv.apply(rho) - 1j * (rho @ h - h @ rho)  # the dissipator alone
        assert np.linalg.norm(direct - canonical) <= 1e-11

    @given(st.integers(0, 10_000))
    def test_energy_dissipation_at_zero_temperature(self, seed):
        rng = rng_for(seed)
        n = 2
        spec = random_bath(rng, n, with_plus=False)
        model = qubit_register(n)
        liouv = build_liouvillian(model, spec)
        rho = random_density_matrix(rng, 2**n)
        h = free_hamiltonian(model)
        flow = np.einsum("ij,ji->", liouv.apply(rho), h).real
        assert flow <= 1e-11

    @given(st.integers(0, 10_000))
    def test_permutation_covariance_at_replica_point(self, seed):
        rng = rng_for(seed)
        n = 3
        model = qubit_register(n)
        liouv = build_liouvillian(model, replica_symmetric(n, 0.2, 0.1))
        rho = random_density_matrix(rng, 2**n)
        i, j = sorted(rng.choice(n, size=2, replace=False))
        p = permutation_matrix(n, i, j)
        lhs = liouv.apply(p @ rho @ p.conj().T)
        rhs = p @ liouv.apply(rho) @ p.conj().T
        assert np.linalg.norm(lhs - rhs) <= 1e-11


class TestSuperoperator:
    def test_zero_generator(self):
        liouv = Liouvillian(
            hamiltonian=np.zeros((2, 2)), lindblad=LindbladSet(terms=())
        )
        assert np.count_nonzero(superoperator_matrix(liouv)) == 0

    def test_single_cell_dephasing_spectrum(self):
        gamma = 0.3
        model = dephasing_register(1)
        liouv = build_liouvillian(model, cell_limit(1, gamma, gamma))
        m = superoperator_matrix(liouv)
        vals = np.sort(np.linalg.eigvals(m).real)
        assert np.allclose(vals, [-gamma, -gamma, 0.0, 0.0], atol=1e-12)

    def test_trace_preservation_left_null_vector(self):
        model = qubit_register(2)
        liouv = build_liouvillian(model, cell_limit(2, 0.2, 0.1))
        m = superoperator_matrix(liouv)
        left = m.conj().T @ vec(np.eye(4, dtype=complex))
        assert np.linalg.norm(left) <= 1e-12

    @given(st.integers(0, 10_000))
    def test_matches_apply(self, seed):
        rng = rng_for(seed)
        model = qubit_register(2)
        liouv = build_liouvillian(model, random_bath(rng, 2))
        m = superoperator_matrix(liouv)
        rho = random_density_matrix(rng, 4)
        assert np.linalg.norm(m @ vec(rho) - vec(liouv.apply(rho))) <= 1e-12

    def test_dimension_guard(self):
        model = qubit_register(7)
        liouv = build_liouvillian(model, cell_limit(7, 0.1, 0.0))
        with pytest.raises(TooLarge):
            superoperator_matrix(liouv)


class TestLiouvillianType:
    def test_hamiltonian_must_be_hermitian(self):
        with pytest.raises(NotHermitian):
            Liouvillian(
                hamiltonian=np.array([[0.0, 1.0], [0.0, 0.0]]),
                lindblad=LindbladSet(terms=()),
            )

    @pytest.mark.parametrize("diagonal", [True, False])
    @pytest.mark.parametrize("factor", [2.0, 0.5])
    def test_hermiticity_from_the_diagonal_is_is_hermitians(self, diagonal, factor):
        # A diagonal H is checked from its diagonal, ||H - H^+||_F =
        # 2 ||Im diag H||, with no D x D temporary; an imaginary part at
        # twice the tolerance is refused and at half of it accepted, as
        # is_hermitian decides; a non-diagonal H takes is_hermitian itself.
        rng = np.random.default_rng(7)
        real = rng.normal(size=16)
        skew = rng.normal(size=16)
        skew *= factor * 1e-10 * np.linalg.norm(real) / (2 * np.linalg.norm(skew))
        h = np.diag(real + 1j * skew)
        if not diagonal:
            h[0, 1] = h[1, 0] = 0.3
        hermitian = is_hermitian(h, rtol=1e-10)
        assert hermitian == (factor < 1)
        lset = canonical_form(qubit_register(4), cell_limit(4, 0.1, 0.0))
        if hermitian:
            liouv = Liouvillian(hamiltonian=h, lindblad=lset)
            assert (liouv.hamiltonian_diagonal is not None) == diagonal
        else:
            with pytest.raises(NotHermitian):
                Liouvillian(hamiltonian=h, lindblad=lset)

    def test_lindblad_rates_nonnegative(self):
        from qregsim.errors import OrderingViolated

        with pytest.raises(OrderingViolated):
            LindbladTerm(rate=-0.1, op=np.eye(2, dtype=complex), sector=SECTOR_MINUS)
