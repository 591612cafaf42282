"""Register construction: cell embeddings, collective spin operators,
Hamiltonians, and su(2) structure; the placed operators against Kronecker
references, bit for bit."""

from functools import reduce

import numpy as np
import pytest

from qregsim.errors import (
    ConfigError,
    DimensionMismatch,
    IndexOutOfRange,
    InvalidQuantumNumbers,
    NotFinite,
    QregError,
    TooSmall,
)
from qregsim.bath import BathSpec
from qregsim.codes import dephasing_cluster_code
from qregsim.liouvillian import lamb_shift
from qregsim.register import (
    SIGMA_MINUS,
    SIGMA_PLUS,
    SIGMA_Z,
    RegisterModel,
    basis_state,
    casimir,
    cell_digits,
    cell_terms,
    collective_op,
    dephasing_register,
    dicke_state,
    embed_cell_op,
    excitation_numbers,
    excitation_sectors,
    free_hamiltonian,
    heisenberg_ring,
    n4_codewords,
    named_state,
    normalize,
    pair_singlet_state,
    place_values,
    qubit_register,
    register_hamiltonian,
    su2_basis_state,
    su2_multiplicity,
    total_sminus,
    total_splus,
    total_sz,
    _casimir_block,
)

from helpers import random_bath, rng_for


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

    def test_non_finite_entries_are_rejected(self):
        # NaN > STEP_TOL is false, so a NaN would pass the step condition
        nan_op = np.full((2, 2), np.nan)
        fields = {"cell_op": SIGMA_MINUS, "cell_hamiltonian": SIGMA_Z, "epsilon": 1.0}
        for name, bad in (("cell_op", nan_op), ("cell_hamiltonian", nan_op), ("epsilon", np.nan)):
            with pytest.raises(NotFinite):
                RegisterModel(n_cells=1, cell_dim=2, **{**fields, name: bad})
        with pytest.raises(NotFinite):
            qubit_register(2, interaction=np.full((4, 4), np.inf))

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

    def test_other_cell_operator(self):
        # op replaces A as in embed_cell_op: A^+ gives the raising sum
        model = qubit_register(3)
        got = collective_op(model, np.ones(3), model.cell_op.conj().T)
        assert np.array_equal(got, total_splus(3))
        with pytest.raises(DimensionMismatch):
            collective_op(model, np.ones(3), np.eye(3))

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

    def test_ring_coupling_must_be_finite(self):
        for j in (np.nan, np.inf):
            with pytest.raises(NotFinite):
                heisenberg_ring(3, j)


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


def kron_reference(n: int, d: int, op: np.ndarray, cells) -> np.ndarray:
    """op on ``cells`` (the first its most significant digit) and the
    identity elsewhere, as a sum of Kronecker chains of matrix units."""
    k = len(cells)
    out = np.zeros((d**n, d**n), dtype=complex)
    for p, q in zip(*np.nonzero(op)):
        factors = [np.eye(d, dtype=complex)] * n
        for c, a, b in zip(cells, np.unravel_index(p, (d,) * k), np.unravel_index(q, (d,) * k)):
            unit = np.zeros((d, d), dtype=complex)
            unit[a, b] = 1.0
            factors[c] = unit
        out += op[p, q] * reduce(np.kron, factors)
    return out


def sparse_operator(rng, dim: int) -> np.ndarray:
    op = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    op[rng.random((dim, dim)) < 0.4] = 0
    return op


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("n", range(1, 7))
def test_placed_operators_are_the_kronecker_chains(n, d):
    rng = rng_for(f"placement-{n}-{d}")
    model = dephasing_register(n, cell_op=np.diag(np.arange(d, dtype=complex)))
    for i in range(n):
        op = sparse_operator(rng, d)
        assert np.array_equal(embed_cell_op(model, i, op), kron_reference(n, d, op, [i]))
    # adjacent, non-adjacent and reversed (j < i) cell pairs
    for cells in [(n - 2, n - 1), (0, n - 1), (n - 1, 0), (n - 1, n // 3)]:
        if len(set(cells)) < 2 or min(cells) < 0:
            continue
        op = sparse_operator(rng, d * d)
        want = kron_reference(n, d, 0.7 * op, cells)
        assert np.array_equal(cell_terms(n, d, [(op, cells, 0.7)]), want)


def chain(n: int, op: np.ndarray, i: int) -> np.ndarray:
    return reduce(np.kron, [op if j == i else np.eye(2, dtype=complex) for j in range(n)])


def collective(n: int, op: np.ndarray) -> np.ndarray:
    return sum(chain(n, op, i) for i in range(n))


@pytest.mark.parametrize("n", range(1, 7))
def test_collective_spin_and_casimir_are_the_kronecker_sums(n):
    sz, sp, sm = (collective(n, op) for op in (SIGMA_Z, SIGMA_PLUS, SIGMA_MINUS))
    assert np.array_equal(total_sz(n), sz)
    assert np.array_equal(total_splus(n), sp)
    assert np.array_equal(total_sminus(n), sm)
    assert np.array_equal(casimir(n), sz @ sz + 0.5 * (sp @ sm + sm @ sp))
    model = qubit_register(n, epsilon=0.7)
    assert np.array_equal(free_hamiltonian(model), collective(n, 0.7 * SIGMA_Z))


@pytest.mark.parametrize("n", range(1, 9))
def test_su2_sector_block_is_the_casimir_block(n):
    # su2_basis_state diagonalizes this block; equal entries and dtype give
    # the bits the D x D Casimir's block gave
    s2 = casimir(n)
    for q in range(n + 1):
        sector, block = _casimir_block(n, q)
        assert np.array_equal(sector, excitation_sectors(n)[0][q])
        want = s2[np.ix_(sector, sector)]
        assert block.dtype == want.dtype and np.array_equal(block, want)


def test_place_values_and_excitation_sectors_are_the_digit_order():
    digits = cell_digits(5, 3)
    assert np.array_equal(digits @ place_values(5, 3), np.arange(3**5))
    states, pos = excitation_sectors(6)
    assert excitation_sectors(6)[1] is pos and not pos.flags.writeable
    for q, s in enumerate(states):
        assert np.array_equal(s, np.flatnonzero(excitation_numbers(6) == q))
        assert np.array_equal(pos[s], np.arange(len(s)))


@pytest.mark.parametrize("n", range(3, 9))
def test_heisenberg_ring_is_the_kronecker_bond_sum(n):
    dim = 2**n
    h = np.zeros((dim, dim), dtype=complex)
    for i in range(n):
        k = (i + 1) % n
        h += chain(n, SIGMA_Z, i) @ chain(n, SIGMA_Z, k)
        h += 0.5 * (
            chain(n, SIGMA_PLUS, i) @ chain(n, SIGMA_MINUS, k)
            + chain(n, SIGMA_MINUS, i) @ chain(n, SIGMA_PLUS, k)
        )
        h += 0.25 * np.eye(dim)
    assert np.array_equal(heisenberg_ring(n, 0.37), 0.37 * h)


@pytest.mark.parametrize("n", range(1, 7))
def test_lamb_shift_is_the_matmul_sum(n):
    rng = rng_for(f"lamb-{n}")
    bath = random_bath(rng, n)
    spec = BathSpec(
        gamma_minus=bath.gamma_minus,
        gamma_plus=bath.gamma_plus,
        delta_minus=0.8 * bath.gamma_minus,
        delta_plus=-0.6 * bath.gamma_plus,
    )
    assert np.any(spec.gamma_plus) and np.any(spec.delta_plus)
    a = [chain(n, SIGMA_MINUS, i) for i in range(n)]
    ad = [x.conj().T for x in a]
    want = np.zeros((2**n, 2**n), dtype=complex)
    for delta, left, right in (
        (spec.delta_minus, ad, a),
        (spec.delta_plus.T, a, ad),
    ):
        for i, j in zip(*np.nonzero(delta)):
            want += delta[i, j] * (left[i] @ right[j])
    assert np.array_equal(lamb_shift(qubit_register(n), spec), want)


@pytest.mark.parametrize("n, size", [(4, 2), (4, 4), (6, 2), (8, 2), (8, 4)])
@pytest.mark.parametrize("target", [0, 1, -1])
def test_cluster_code_selects_the_bit_strings(n, size, target):
    want = [
        b
        for b in range(2**n)
        if all(
            size / 2 - format(b, f"0{n}b")[c : c + size].count("1") == target
            for c in range(0, n, size)
        )
    ]
    basis = dephasing_cluster_code(n, size, target).basis
    assert np.array_equal(basis, np.eye(2**n)[:, want])


@pytest.mark.parametrize("n", range(1, 7))
def test_cell_digits_is_the_basis_state_order(n):
    digits = cell_digits(n)
    assert digits.shape == (2**n, n)
    for b, bits in enumerate(digits):
        assert np.flatnonzero(basis_state(n, list(bits))).tolist() == [b]
        assert "".join(map(str, bits)) == format(b, f"0{n}b")
    three = cell_digits(n, 3)
    assert np.array_equal(three, np.array(np.unravel_index(np.arange(3**n), (3,) * n)).T)


def test_cell_digits_is_built_once_and_read_only():
    digits = cell_digits(5, 3)
    assert cell_digits(5, 3) is digits
    assert not digits.flags.writeable
    with pytest.raises(ValueError):
        digits[0, 0] = 1
    assert cell_digits(5) is cell_digits(5, 2) and not cell_digits(5).flags.writeable


@pytest.mark.parametrize("bits", ["0x", "2 ", [0, 2], ["0", "a"]])
def test_basis_state_rejects_other_symbols(bits):
    with pytest.raises(QregError):
        basis_state(2, bits)


def test_placement_needs_distinct_cells_in_range():
    for cells in ([1, 1], [0, 3], [-1]):
        with pytest.raises(IndexOutOfRange):
            cell_terms(3, 2, [(np.eye(2 ** len(cells)), cells, 1.0)])


@pytest.mark.parametrize("dim, cells", [(2, [0, 1]), (8, [0]), (4, [2])])
def test_placement_needs_an_operator_of_its_cells_size(dim, cells):
    with pytest.raises(DimensionMismatch):
        cell_terms(3, 2, [(np.eye(dim), cells, 1.0)])


def test_named_state_builds_each_name_bit_for_bit():
    n, dim = 4, 16
    want = {
        "all_up": basis_state(n, "0000"),
        "all_down": basis_state(n, "1111"),
        "uniform": np.full(dim, 0.25, dtype=complex),
        "singlet": pair_singlet_state(n),
        "symmetric": dicke_state(n, 2),
        "codeword0": n4_codewords()[0],
        "codeword1": n4_codewords()[1],
        "basis:0110": basis_state(n, "0110"),
        "su2:1,0,2": su2_basis_state(n, 1, 0, 2),
        ((1.0, 0.0),) * dim: np.full(dim, 0.25, dtype=complex),
    }
    for entry, vector in want.items():
        assert named_state(entry, n).tobytes() == vector.tobytes()
    assert named_state("triplet", 2).tobytes() == dicke_state(2, 1).tobytes()


@pytest.mark.parametrize(
    "entry, n, error, message",
    [
        ("wibble", 3, QregError, "unknown state name 'wibble'"),
        ("triplet", 3, InvalidQuantumNumbers, "triplet is defined for n = 2"),
        ("codeword1", 2, InvalidQuantumNumbers, "codewords are defined for n = 4"),
        ("su2:1", 3, InvalidQuantumNumbers, "expected su2:S,M or su2:S,M,copy"),
        ("su2:a,0", 3, InvalidQuantumNumbers, "su2:S,M[,copy] needs numbers"),
        ("su2:7,0", 3, InvalidQuantumNumbers, "cannot build 'su2:7,0': spin 7.0"),
        ("singlet", 3, InvalidQuantumNumbers, "cannot build 'singlet': pair singlet"),
        ("basis:01", 3, DimensionMismatch, "cannot build 'basis:01': need 3 symbols"),
        (((1.0, 0.0),), 3, DimensionMismatch, "amplitude list has length 1, need 8"),
        (((0.0, 0.0),) * 8, 3, QregError, "cannot normalize the zero vector"),
    ],
)
def test_named_state_raises_library_errors(entry, n, error, message):
    # the library's own classes; the CLI names the field (ConfigError)
    with pytest.raises(error) as info:
        named_state(entry, n)
    assert not isinstance(info.value, ConfigError)
    assert str(info.value).startswith(message)
