"""Dense linear-algebra kernel: kron, Hermitian eigensolver, nullspaces,
matrix exponential and its action."""

import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, strategies as st

from qregsim.bath import exponential_decay
from qregsim.dynamics import _sector_generator
from qregsim.errors import DimensionMismatch, NotFinite, NotHermitian
from qregsim.liouvillian import build_liouvillian
from qregsim.linalg import (
    PADE_THETA,
    common_nullspace,
    expm,
    expm_action,
    herm_eig,
    kron,
    unvec,
    vec,
)
from qregsim.register import (
    SIGMA_MINUS,
    SIGMA_PLUS,
    SIGMA_Z,
    pair_singlet_state,
    qubit_register,
    total_sminus,
    total_splus,
)

from helpers import rng_for

I2 = np.eye(2, dtype=complex)


class TestKron:
    def test_identity(self):
        assert np.array_equal(kron(I2, I2), np.eye(4))

    def test_diagonal(self):
        got = np.diag(kron(SIGMA_Z, I2)).real
        assert np.array_equal(got, [0.5, 0.5, -0.5, -0.5])

    def test_single_entry(self):
        # sigma_plus x sigma_minus: a[0,1] = b[1,0] = 1 lands at row
        # 0*2+1 = 1, column 1*2+0 = 2; every other entry vanishes.
        m = kron(SIGMA_PLUS, SIGMA_MINUS)
        expected = np.zeros((4, 4), dtype=complex)
        expected[1, 2] = 1.0
        assert np.array_equal(m, expected)

    @given(st.integers(0, 10_000))
    def test_associativity(self, seed):
        rng = rng_for(seed)
        a, b, c = (
            rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            for _ in range(3)
        )
        left = kron(kron(a, b), c)
        right = kron(a, kron(b, c))
        assert np.max(np.abs(left - right)) <= 1e-13


class TestHermEig:
    def test_all_ones(self):
        vals, vecs = herm_eig(np.ones((4, 4), dtype=complex))
        assert np.allclose(vals, [4.0, 0.0, 0.0, 0.0], atol=1e-12)

    def test_identity3(self):
        vals, _ = herm_eig(np.eye(3, dtype=complex))
        assert np.allclose(vals, [1.0, 1.0, 1.0])

    def test_exponential_3x3_closed_form(self):
        # Toeplitz matrix [[1,a,a^2],[a,1,a],[a^2,a,1]], a = e^-1.  Splitting
        # into the antisymmetric vector (-1,0,1) and the symmetric sector
        # (1,x,1) reduces the characteristic polynomial to x^2 + a x - 2 = 0,
        # giving eigenvalues 1 - a^2 and 1 + a^2/2 +- (a/2) sqrt(a^2 + 8).
        a = np.exp(-1.0)
        m = np.array(
            [[1, a, a * a], [a, 1, a], [a * a, a, 1]], dtype=complex
        )
        root = np.sqrt(a * a + 8.0)
        expected = sorted(
            [1 + a * a / 2 + a * root / 2, 1 - a * a, 1 + a * a / 2 - a * root / 2],
            reverse=True,
        )
        vals, _ = herm_eig(m)
        assert np.allclose(vals, expected, atol=1e-12)

    def test_descending_and_orthonormal(self):
        rng = rng_for(3)
        x = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
        m = x + x.conj().T
        vals, vecs = herm_eig(m)
        assert np.all(np.diff(vals) <= 1e-14)
        assert np.linalg.norm(vecs.conj().T @ vecs - np.eye(5)) <= 1e-10

    @given(st.integers(0, 10_000))
    def test_reconstruction(self, seed):
        rng = rng_for(seed)
        x = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        m = x + x.conj().T
        vals, vecs = herm_eig(m)
        rebuilt = vecs @ np.diag(vals) @ vecs.conj().T
        assert np.linalg.norm(rebuilt - m) <= 1e-10 * max(1.0, np.linalg.norm(m))

    def test_not_hermitian(self):
        with pytest.raises(NotHermitian):
            herm_eig(np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex))


class TestCommonNullspace:
    def test_singlet_n2(self):
        basis = common_nullspace([total_splus(2), total_sminus(2)])
        assert basis.shape[1] == 1
        singlet = pair_singlet_state(2)
        assert abs(singlet.conj() @ basis[:, 0]) >= 1 - 1e-12

    def test_empty_list_full_space(self):
        basis = common_nullspace([], dim=4)
        assert basis.shape == (4, 4)
        assert np.linalg.norm(basis.conj().T @ basis - np.eye(4)) <= 1e-12

    def test_singlet_sector_n4(self):
        basis = common_nullspace([total_splus(4), total_sminus(4)])
        assert basis.shape[1] == 2

    @given(st.integers(0, 10_000))
    def test_annihilation(self, seed):
        rng = rng_for(seed)
        ops = [
            rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
            for _ in range(2)
        ]
        # force a shared kernel direction
        v = rng.normal(size=6) + 1j * rng.normal(size=6)
        v /= np.linalg.norm(v)
        ops = [op - np.outer(op @ v, v.conj()) for op in ops]
        basis = common_nullspace(ops)
        assert basis.shape[1] >= 1
        for op in ops:
            for k in range(basis.shape[1]):
                assert np.linalg.norm(op @ basis[:, k]) <= 1e-9


class TestExpmAction:
    def test_zero_matrix(self):
        v = np.arange(4, dtype=complex)
        assert np.allclose(expm_action(np.zeros((4, 4)), 1.3, v), v)

    def test_diagonal(self):
        m = np.diag([-1.0, -2.0]).astype(complex)
        out = expm_action(m, 1.0, np.eye(2, dtype=complex))
        assert np.allclose(out, np.diag([np.exp(-1.0), np.exp(-2.0)]), atol=1e-12)

    @given(st.integers(0, 10_000))
    def test_antihermitian_preserves_norm(self, seed):
        rng = rng_for(seed)
        x = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        m = x - x.conj().T
        v = rng.normal(size=6) + 1j * rng.normal(size=6)
        out = expm_action(m, 0.7, v)
        assert abs(np.linalg.norm(out) - np.linalg.norm(v)) <= 1e-9

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            expm_action(np.eye(3, dtype=complex), 1.0, np.ones(4, dtype=complex))


def _sector_matrix(n: int, t: float) -> np.ndarray:
    """t times the exact solver's sector generator of n qubits under an
    exponential bath (xi = 1), as exact_sweep exponentiates it."""
    liouv = build_liouvillian(qubit_register(n), exponential_decay(n, 0.1, 0.02, 1.0))
    return t * _sector_generator(liouv, liouv.block_layout)


def _assert_matches_scipy(a: np.ndarray) -> None:
    want = scipy.linalg.expm(a)
    assert np.abs(expm(a) - want).max() <= 1e-13 * np.abs(want).max()


class TestExpm:
    # 1-norms just below each Pade degree's bound, then above theta_13,
    # where the argument is scaled by 2^-s with s >= 1 and squared back.
    @pytest.mark.parametrize(
        "norm",
        [0.99 * PADE_THETA[m] for m in (3, 5, 7, 9)] + [1.5 * PADE_THETA[13], 50.0],
    )
    @pytest.mark.parametrize("n", [2, 7, 30])
    def test_matches_scipy_on_each_degree(self, norm, n):
        rng = rng_for(f"expm{n}")
        a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        _assert_matches_scipy(a * (norm / np.abs(a).sum(axis=0).max()))

    def test_zero_matrix_is_the_identity(self):
        assert np.array_equal(expm(np.zeros((5, 5))), np.eye(5))

    def test_diagonal_is_exact(self):
        # A norm of 1e3 would scale by 2^-8 and square eight times; the
        # entries' own exponentials lose nothing on the small one.
        d = np.array([-1e3, -3.0, 0.5j])
        assert np.array_equal(expm(np.diag(d)), np.diag(np.exp(d)))

    def test_one_by_one(self):
        _assert_matches_scipy(np.array([[0.3 - 2.0j]]))
        _assert_matches_scipy(np.array([[-40.0 + 7.0j]]))

    def test_nilpotent_jordan_block(self):
        # exp(J) = sum_k J^k / k!, J the 6 x 6 upper shift times 3
        j = np.diag(np.full(5, 3.0), 1)
        _assert_matches_scipy(j)
        closed = sum(np.linalg.matrix_power(j, k) / np.prod(np.arange(1, k + 1)) for k in range(6))
        assert np.allclose(expm(j), closed, rtol=1e-14, atol=0.0)

    @pytest.mark.parametrize("t", [0.01, 1.0, 100.0])
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_matches_scipy_on_sector_generators(self, n, t):
        _assert_matches_scipy(_sector_matrix(n, t))

    def test_not_square(self):
        with pytest.raises(DimensionMismatch):
            expm(np.ones((2, 3)))
        with pytest.raises(DimensionMismatch):
            expm(np.ones(4))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entry_raises(self, bad):
        # inf would otherwise reach the scaling exponent, log2(inf), and nan
        # would pass the degree tests and return nan silently.
        a = np.eye(3, dtype=complex)
        a[1, 2] = bad
        with pytest.raises(NotFinite):
            expm(a)

    def test_peak_memory_no_higher_than_scipy(self):
        # The exact_sweep generator: 70 x 70 at N = 4, one snapshot interval.
        a = _sector_matrix(4, 1.0)
        peaks = []
        for f in (scipy.linalg.expm, expm):
            f(a)  # warm either path's caches
            tracemalloc.start()
            try:
                f(a)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= peaks[0]


def test_vec_unvec_roundtrip():
    rng = rng_for(11)
    rho = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    assert np.array_equal(unvec(vec(rho), 3), rho)
