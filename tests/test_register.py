"""Register construction: cell embeddings, collective spin operators,
Hamiltonians, and su(2) structure."""

import numpy as np
import pytest

from qregsim.errors import (
    IndexOutOfRange,
    InvalidQuantumNumbers,
    QregError,
    TooSmall,
)
from qregsim.register import (
    SIGMA_MINUS,
    SIGMA_Z,
    RegisterModel,
    basis_state,
    casimir,
    collective_op,
    dephasing_register,
    dicke_state,
    embed_cell_op,
    free_hamiltonian,
    heisenberg_ring,
    normalize,
    pair_singlet_state,
    qubit_register,
    register_hamiltonian,
    su2_basis_state,
    su2_multiplicity,
    total_sminus,
    total_splus,
    total_sz,
)


class TestRegisterModel:
    def test_step_condition_enforced(self):
        # sigma_z does not satisfy [H^C, A] = -eps A against eps*sigma_z
        with pytest.raises(QregError):
            RegisterModel(
                n_cells=1,
                cell_dim=2,
                cell_op=SIGMA_Z,
                cell_hamiltonian=SIGMA_Z,
                epsilon=1.0,
            )

    def test_qubit_register_defaults(self):
        model = qubit_register(3, epsilon=0.7)
        assert model.dim == 8
        assert np.array_equal(model.cell_op, SIGMA_MINUS)
        assert np.allclose(model.cell_hamiltonian, 0.7 * SIGMA_Z)

    def test_dephasing_register(self):
        model = dephasing_register(2)
        assert model.epsilon == 0.0
        assert np.array_equal(model.cell_op, SIGMA_Z)

    def test_su2_invariance_gate(self):
        # a single-cell transverse field breaks collective su(2) symmetry
        sx = np.array([[0, 0.5], [0.5, 0]], dtype=complex)
        bad = np.kron(sx, np.eye(2))
        with pytest.raises(QregError):
            qubit_register(2, interaction=bad)


class TestEmbeddings:
    def test_single_cell(self):
        model = qubit_register(1)
        assert np.array_equal(embed_cell_op(model, 0), SIGMA_MINUS)

    def test_two_cells(self):
        model = qubit_register(2)
        assert np.array_equal(embed_cell_op(model, 0), np.kron(SIGMA_MINUS, np.eye(2)))

    def test_disjoint_cells_commute(self):
        model = qubit_register(3)
        a0 = embed_cell_op(model, 0)
        a1 = embed_cell_op(model, 1)
        assert np.max(np.abs(a0 @ a1 - a1 @ a0)) <= 1e-13

    def test_index_out_of_range(self):
        with pytest.raises(IndexOutOfRange):
            embed_cell_op(qubit_register(2), 2)


class TestCollectiveOps:
    def test_unit_weight(self):
        model = qubit_register(2)
        got = collective_op(model, [0.0, 1.0])
        assert np.array_equal(got, embed_cell_op(model, 1))

    def test_uniform_weights_give_total_lowering(self):
        model = qubit_register(3)
        got = collective_op(model, np.ones(3))
        assert np.allclose(got, total_sminus(3))

    def test_step_condition_propagates(self):
        # [H_R, L] = -eps L for any collective combination of lowering ops
        model = qubit_register(3, epsilon=0.9)
        h = free_hamiltonian(model)
        weights = np.exp(1j * np.array([0.3, 1.1, 2.0]))
        op = collective_op(model, weights)
        assert np.linalg.norm(h @ op - op @ h + 0.9 * op) <= 1e-10


class TestHamiltonians:
    def test_free_single_cell(self):
        model = qubit_register(1, epsilon=0.5)
        assert np.allclose(free_hamiltonian(model), np.diag([0.25, -0.25]))

    def test_free_two_cells(self):
        model = qubit_register(2, epsilon=1.0)
        assert np.allclose(free_hamiltonian(model), np.diag([1.0, 0.0, 0.0, -1.0]))

    def test_commutator_with_lowering(self):
        model = qubit_register(4, epsilon=1.0)
        h = free_hamiltonian(model)
        sm = total_sminus(4)
        assert np.linalg.norm(h @ sm - sm @ h + sm) <= 1e-10

    def test_register_hamiltonian_includes_interaction(self):
        ring = heisenberg_ring(4, 0.3)
        model = qubit_register(4, interaction=ring)
        assert np.allclose(
            register_hamiltonian(model), free_hamiltonian(model) + ring
        )


class TestHeisenbergRing:
    def test_codeword_eigenvalues(self):
        from qregsim.codes import n4_codewords

        zero, one = n4_codewords()
        h = heisenberg_ring(4, 1.0)
        assert np.linalg.norm(h @ zero - zero) <= 1e-10
        assert np.linalg.norm(h @ one + one) <= 1e-10

    def test_zero_coupling(self):
        assert np.count_nonzero(heisenberg_ring(4, 0.0)) == 0

    def test_su2_invariance(self):
        h = heisenberg_ring(5, 0.7)
        for s in (total_sz(5), total_splus(5), total_sminus(5)):
            assert np.linalg.norm(h @ s - s @ h) <= 1e-10

    def test_ring_needs_three_cells(self):
        with pytest.raises(TooSmall):
            heisenberg_ring(2, 1.0)


class TestStates:
    def test_basis_state_ordering(self):
        # leftmost symbol is cell 0; |0> = |up> = index 0
        v = basis_state(2, "01")
        assert v[1] == 1.0 and np.count_nonzero(v) == 1

    def test_highest_weight(self):
        v = su2_basis_state(2, 1, 1)
        assert abs(v[0]) >= 1 - 1e-12  # |up,up>

    def test_singlet(self):
        v = su2_basis_state(2, 0, 0)
        assert abs(v.conj() @ pair_singlet_state(2)) >= 1 - 1e-12

    def test_ladder_consistency(self):
        # S- |2,2> = 2 |2,1> for N=4
        top = su2_basis_state(4, 2, 2)
        lowered = total_sminus(4) @ top
        target = su2_basis_state(4, 2, 1)
        assert abs(np.linalg.norm(lowered) - 2.0) <= 1e-12
        assert abs(target.conj() @ normalize(lowered)) >= 1 - 1e-12

    def test_casimir_and_z_eigenvalues(self):
        for n, s, m in ((2, 1, 0), (4, 2, 2), (4, 1, -1), (3, 0.5, 0.5)):
            v = su2_basis_state(n, s, m)
            assert np.linalg.norm(casimir(n) @ v - s * (s + 1) * v) <= 1e-10
            assert np.linalg.norm(total_sz(n) @ v - m * v) <= 1e-10

    def test_copies_orthonormal(self):
        copies = [su2_basis_state(4, 1, 0, copy=k) for k in range(3)]
        gram = np.array([[a.conj() @ b for b in copies] for a in copies])
        assert np.linalg.norm(gram - np.eye(3)) <= 1e-10

    def test_invalid_quantum_numbers(self):
        with pytest.raises(InvalidQuantumNumbers):
            su2_basis_state(2, 2, 0)
        with pytest.raises(InvalidQuantumNumbers):
            su2_basis_state(2, 1, 2)
        with pytest.raises(InvalidQuantumNumbers):
            su2_basis_state(4, 1, 0, copy=3)

    def test_dicke_state_is_symmetric_top(self):
        v = dicke_state(4, 2)
        assert np.linalg.norm(casimir(4) @ v - 6.0 * v) <= 1e-10
        assert np.linalg.norm(total_sz(4) @ v) <= 1e-10


class TestMultiplicity:
    def test_known_values(self):
        assert [su2_multiplicity(n, 0) for n in (2, 4, 6, 8)] == [1, 2, 5, 14]

    def test_completeness(self):
        for n in range(1, 13):
            total = sum(
                su2_multiplicity(n, s2) * (s2 + 1) for s2 in range(n % 2, n + 1, 2)
            )
            assert total == 2**n


def _raise_all(n: int, v: np.ndarray) -> np.ndarray:
    """S^+ v by digit moves: each cell down (bit 1) in a basis state is
    raised in turn, without a D x D matrix."""
    out = np.zeros_like(v)
    basis = np.arange(2**n)
    for i in range(n):
        bit = 1 << (n - 1 - i)
        down = basis[(basis & bit) != 0]
        out[down ^ bit] += v[down]
    return out


@pytest.mark.parametrize("n", range(1, 13))
def test_dicke_state_is_bitwise_the_raised_all_down_state(n):
    for k in range(n + 1):
        v = basis_state(n, [1] * n)
        for _ in range(k):
            v = _raise_all(n, v)
        assert dicke_state(n, k).tobytes() == normalize(v).tobytes()


@pytest.mark.parametrize("n", [1, 4, 8])
def test_dicke_state_matches_the_dense_collective_raising(n):
    sp = total_splus(n)
    for k in range(n + 1):
        v = basis_state(n, [1] * n)
        for _ in range(k):
            v = sp @ v
        assert dicke_state(n, k).tobytes() == normalize(v).tobytes()


def test_dicke_state_allocates_order_d():
    import tracemalloc

    n = 14
    tracemalloc.start()
    try:
        dicke_state(n, 7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 16 * 2**n  # a D x D matrix would take 4 GiB
