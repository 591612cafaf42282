"""Protected subspaces: eigenspace construction, explicit codewords,
cluster codes, noiselessness checks, and gauge transport."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from helpers import random_phases, rng_for

from qregsim.bath import (
    cell_limit,
    clustered,
    exponential_decay,
    gauge_phased,
    replica_symmetric,
)
from qregsim.codes import (
    KIND_NOISELESS,
    KIND_SUB_DECOHERENT,
    CodeSubspace,
    dephasing_cluster_code,
    gauge_transport,
    is_noiseless,
    multiplicity,
    n4_code,
    n4_codewords,
    noiseless_test,
    null_code,
    simultaneous_eigenspace,
)
from qregsim.errors import (
    DimensionMismatch,
    InvalidClusterSize,
    InvalidQuantumNumbers,
    TooSmall,
)
from qregsim.linalg import common_nullspace
from qregsim.liouvillian import (
    LindbladSet,
    LindbladTerm,
    Liouvillian,
    build_liouvillian,
    canonical_form,
)
from qregsim.observables import pure_decoherence_rate
from qregsim.register import (
    SIGMA_MINUS,
    SIGMA_Z,
    basis_state,
    dephasing_register,
    heisenberg_ring,
    pair_singlet_state,
    qubit_register,
    register_hamiltonian,
    su2_basis_state,
    total_sminus,
    total_splus,
    total_sz,
)

SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
# Hops between neighbouring levels of a three-level cell.
SX3 = np.eye(3, k=1) + np.eye(3, k=-1)


# ---------------------------------------------------------------------------
# CodeSubspace container


def test_code_subspace_validates_orthonormality():
    bad = np.array([[1.0, 1.0], [0.0, 0.0]], dtype=complex)
    with pytest.raises(DimensionMismatch, match="orthonormal"):
        CodeSubspace(basis=bad, labels=(0.0, 0.0))


def test_code_subspace_rejects_unknown_kind():
    basis = np.eye(2, dtype=complex)
    with pytest.raises(DimensionMismatch, match="kind"):
        CodeSubspace(basis=basis, labels=(0.0, 0.0), kind="magic")


def test_code_subspace_properties():
    basis = np.eye(4, dtype=complex)[:, :2]
    code = CodeSubspace(basis=basis, labels=(0.0,), kind=KIND_SUB_DECOHERENT)
    assert code.dim == 2
    assert code.ambient_dim == 4
    p = code.projector()
    assert np.allclose(p @ p, p)
    assert np.trace(p).real == pytest.approx(2.0)


# ---------------------------------------------------------------------------
# simultaneous eigenspaces and null codes


def test_eigenspace_of_cell_dephasing_operators():
    # Independent sigma_z channels: the joint eigenspaces are the product
    # basis states, picked out by their per-cell spin labels.
    model = dephasing_register(2)
    lind = canonical_form(model, cell_limit(2, 0.3, 0.3))
    # Labels must be quoted per canonical operator; order follows the set.
    ops = lind.operators()
    psi = basis_state(2, "01")
    labels = [complex(psi.conj() @ op @ psi) for op in ops]
    code = simultaneous_eigenspace(lind, labels)
    assert code.dim == 1
    assert abs(psi.conj() @ code.basis[:, 0]) == pytest.approx(1.0, abs=1e-12)


def test_eigenspace_nonzero_label_non_hermitian_warns_empty():
    model = qubit_register(2, epsilon=1.0)
    lind = canonical_form(model, replica_symmetric(2, 0.4, 0.0))
    with pytest.warns(RuntimeWarning, match="zero eigenvalue"):
        code = simultaneous_eigenspace(lind, [0.5])
    assert code.dim == 0
    assert code.ambient_dim == 4


def test_eigenspace_label_count_guard():
    model = qubit_register(2, epsilon=1.0)
    lind = canonical_form(model, replica_symmetric(2, 0.4, 0.0))
    with pytest.raises(DimensionMismatch):
        simultaneous_eigenspace(lind, [0.0, 0.0])


def test_null_code_dimensions():
    # Fully correlated emission and absorption: only the singlet sector
    # is annihilated by both collective ladders.
    model = qubit_register(4, epsilon=1.0)
    lind = canonical_form(model, replica_symmetric(4, 0.4, 0.1))
    code = null_code(lind)
    assert code.dim == 2
    assert all(lab == 0.0 for lab in code.labels)
    # Independent zero-temperature decay: only the all-down state survives.
    lind_iid = canonical_form(model, cell_limit(4, 0.4, 0.0))
    assert null_code(lind_iid).dim == 1
    # Collective zero-temperature decay: every lowest-weight state of each
    # multiplet is dark; for four cells that is 2 + 3 + 1 = 6 states.
    lind_rep0 = canonical_form(model, replica_symmetric(4, 0.4, 0.0))
    assert null_code(lind_rep0).dim == 6


def test_null_code_annihilation():
    model = qubit_register(4, epsilon=1.0)
    lind = canonical_form(model, replica_symmetric(4, 0.4, 0.1))
    code = null_code(lind)
    for op in lind.operators():
        assert np.max(np.abs(op @ code.basis)) < 1e-10


# ---------------------------------------------------------------------------
# null codes by excitation sector


def projector(basis: np.ndarray) -> np.ndarray:
    return basis @ basis.conj().T


def sector_cases():
    for n in range(2, 7):
        for register in (qubit_register, dephasing_register):
            for gp in (0.0, 0.1):
                yield register, n, "exponential", gp
                yield register, n, "replica", gp
                if n % 2 == 0:
                    yield register, n, "clustered", gp
        yield qubit_register, n, "phased", 0.0


def sector_bath(kind: str, n: int, gp: float):
    if kind == "exponential":
        return exponential_decay(n, 0.4, gp, 1.5)
    if kind == "replica":
        return replica_symmetric(n, 0.4, gp)
    if kind == "clustered":
        return clustered([range(n // 2), range(n // 2, n)], 0.4, gp)
    return gauge_phased(replica_symmetric(n, 0.4, gp), random_phases(rng_for(n), n))


@pytest.mark.parametrize("register, n, kind, gp", list(sector_cases()))
def test_sector_null_code_is_common_nullspace(register, n, kind, gp):
    lset = canonical_form(register(n), sector_bath(kind, n, gp))
    assert lset._q_shifts is not None
    code = null_code(lset)
    want = common_nullspace(lset.operators(), dim=2**n)
    assert code.dim == want.shape[1]
    assert np.abs(projector(code.basis) - projector(want)).max() <= 1e-10
    for op in lset.operators():
        assert np.abs(op @ code.basis).max(initial=0.0) <= 1e-10


@pytest.mark.parametrize("case", ["hand_built", "sigma_x", "three_level"])
def test_null_code_falls_back_to_common_nullspace(case):
    if case == "hand_built":
        ops = [total_splus(4), total_sminus(4), total_sz(4)]
        lset = LindbladSet(terms=tuple(LindbladTerm(1.0, op, -1) for op in ops))
    else:
        cell = SX if case == "sigma_x" else np.diag([1.0, 0.0, -1.0]) + 0.5 * SX3
        lset = canonical_form(dephasing_register(4, cell), cell_limit(4, 0.4, 0.1))
    assert lset._q_shifts is None
    want = common_nullspace(lset.operators(), dim=lset.terms[0].dim)
    assert np.array_equal(null_code(lset).basis, want)


def test_n8_null_code_places_no_operator_and_takes_no_full_svd(monkeypatch):
    def refuse(term):
        raise AssertionError("a term's D x D operator was read")

    shapes = []
    svd = np.linalg.svd
    monkeypatch.setattr(LindbladTerm, "op", property(refuse))
    monkeypatch.setattr(np.linalg, "svd", lambda m, *a, **k: shapes.append(m.shape) or svd(m, *a, **k))
    lset = canonical_form(qubit_register(8), replica_symmetric(8, 0.4, 0.1))
    code = null_code(lset)
    assert code.dim == 14 and shapes
    assert max(max(s) for s in shapes) <= 70  # C(8, 4)
    rates = pure_decoherence_rate(lset, code.basis)
    assert np.abs(rates).max() <= 1e-12


# ---------------------------------------------------------------------------
# multiplicities


def test_multiplicity_small_registers():
    assert multiplicity(2, 0) == 1
    assert multiplicity(2, 1) == 1
    assert multiplicity(4, 0) == 2
    assert multiplicity(4, 1) == 3
    assert multiplicity(4, 2) == 1
    assert multiplicity(3, 0.5) == 2
    assert multiplicity(3, 1.5) == 1


def test_multiplicity_completeness():
    for n in (2, 3, 6, 9):
        total = 0
        s = n / 2.0
        while s >= -1e-9:
            if s >= (0.5 if n % 2 else 0.0) - 1e-9:
                total += multiplicity(n, s) * int(round(2 * s + 1))
            s -= 1.0
        assert total == 2**n


def test_multiplicity_guards():
    with pytest.raises(TooSmall):
        multiplicity(0, 0)
    with pytest.raises(InvalidQuantumNumbers):
        multiplicity(4, 0.3)
    for s in (float("inf"), float("nan")):
        with pytest.raises(InvalidQuantumNumbers):
            multiplicity(4, s)


def test_multiplicity_reads_s_as_su2_basis_state_does():
    # register._twice's tolerance: an s that su2_basis_state accepts
    assert multiplicity(3, 0.5 + 1e-10) == 2
    assert su2_basis_state(3, 0.5 + 1e-10, 0.5).shape == (8,)


# ---------------------------------------------------------------------------
# explicit four-cell codewords


def test_n4_codewords_are_orthonormal_singlets():
    zero, one = n4_codewords()
    assert np.linalg.norm(zero) == pytest.approx(1.0, abs=1e-12)
    assert np.linalg.norm(one) == pytest.approx(1.0, abs=1e-12)
    assert abs(zero.conj() @ one) < 1e-12
    for op in (total_splus(4), total_sminus(4), total_sz(4)):
        assert np.max(np.abs(op @ zero)) < 1e-12
        assert np.max(np.abs(op @ one)) < 1e-12


def test_n4_code_bundle():
    code = n4_code()
    assert code.dim == 2
    assert code.ambient_dim == 16
    assert code.labels == (0.0, 0.0, 0.0)
    assert code.kind == KIND_NOISELESS


def test_n4_codewords_split_by_ring_coupling():
    j = 0.7
    h = heisenberg_ring(4, j)
    zero, one = n4_codewords()
    assert np.max(np.abs(h @ zero - j * zero)) < 1e-10
    assert np.max(np.abs(h @ one + j * one)) < 1e-10


# ---------------------------------------------------------------------------
# dephasing cluster codes


def test_cluster_code_dimensions_and_basis():
    code = dephasing_cluster_code(4, 2)
    assert code.dim == 4
    assert code.kind == KIND_SUB_DECOHERENT
    assert code.labels == (0.0, 0.0)
    # Each column is a single product state with balanced clusters.
    for j in range(code.dim):
        col = code.basis[:, j]
        (idx,) = np.nonzero(np.abs(col) > 0.5)
        bits = format(int(idx[0]), "04b")
        assert bits[:2].count("1") == 1
        assert bits[2:].count("1") == 1


def test_cluster_code_polarized_target():
    code = dephasing_cluster_code(4, 2, target_zspin=1.0)
    assert code.dim == 1
    (idx,) = np.nonzero(np.abs(code.basis[:, 0]) > 0.5)
    assert int(idx[0]) == 0  # the all-up configuration


def test_cluster_code_unreachable_target_is_empty():
    assert dephasing_cluster_code(4, 2, target_zspin=0.5).dim == 0


def test_cluster_code_guards():
    with pytest.raises(InvalidClusterSize):
        dephasing_cluster_code(4, 3)
    with pytest.raises(InvalidClusterSize):
        dephasing_cluster_code(6, 4)
    for target in (float("nan"), float("inf")):
        with pytest.raises(InvalidQuantumNumbers):
            dephasing_cluster_code(4, 2, target)


def test_cluster_code_is_dark_for_clustered_bath():
    # Block-constant dephasing couples only to per-cluster spin sums, so a
    # balanced cluster code has zero first-order rate column by column.
    model = dephasing_register(4)
    spec = clustered([[0, 1], [2, 3]], 0.5, 0.5)
    lind = canonical_form(model, spec)
    code = dephasing_cluster_code(4, 2)
    for j in range(code.dim):
        assert pure_decoherence_rate(lind, code.basis[:, j]) <= 1e-12


# ---------------------------------------------------------------------------
# noiselessness checks


def test_singlet_code_noiseless_with_ring_hamiltonian():
    model = qubit_register(4, epsilon=1.0, interaction=None)
    spec = replica_symmetric(4, 0.4, 0.1)
    h = register_hamiltonian(model) + heisenberg_ring(4, 0.7)
    liouv = Liouvillian(hamiltonian=h, lindblad=canonical_form(model, spec))
    assert is_noiseless(n4_code(), liouv)


def test_singlet_code_not_noiseless_for_independent_bath():
    model = qubit_register(4, epsilon=1.0)
    liouv = build_liouvillian(model, cell_limit(4, 0.4, 0.0))
    assert not is_noiseless(n4_code(), liouv)


def test_cluster_code_noiseless_under_clustered_dephasing():
    model = dephasing_register(4)
    spec = clustered([[0, 1], [2, 3]], 0.5, 0.5)
    liouv = build_liouvillian(model, spec)
    assert is_noiseless(dephasing_cluster_code(4, 2), liouv)


def transverse_field(n: int) -> np.ndarray:
    h = np.zeros((2**n, 2**n), dtype=complex)
    for i in range(n):
        term = 1.0
        for k in range(n):
            term = np.kron(term, SX if k == i else np.eye(2))
        h = h + 0.5 * term
    return h


def test_cluster_code_spoiled_by_transverse_field():
    # A transverse field moves code states out of the subspace, so the
    # Hamiltonian leakage check must fail.
    model = dephasing_register(4)
    spec = clustered([[0, 1], [2, 3]], 0.5, 0.5)
    liouv = Liouvillian(hamiltonian=transverse_field(4), lindblad=canonical_form(model, spec))
    assert not is_noiseless(dephasing_cluster_code(4, 2), liouv)


def test_ground_state_code_with_zero_temperature_bath():
    # The fully de-excited product state is dark for every emission-only
    # channel and is an eigenstate of the diagonal Hamiltonian.
    model = qubit_register(2, epsilon=1.0)
    spec = cell_limit(2, 0.3, 0.0, delta_ratio=0.5)
    liouv = build_liouvillian(model, spec)
    ground = basis_state(2, "11")
    code = CodeSubspace(basis=ground[:, None], labels=(0.0, 0.0))
    assert is_noiseless(code, liouv)


def test_empty_code_is_not_noiseless():
    model = qubit_register(2, epsilon=1.0)
    liouv = build_liouvillian(model, cell_limit(2, 0.3, 0.0))
    code = CodeSubspace(basis=np.zeros((4, 0), dtype=complex), labels=())
    assert not is_noiseless(code, liouv)
    assert noiseless_test(code, liouv) == (False, {"eigenvector": None, "leakage": None})


@pytest.mark.parametrize("n", [3, 6])
def test_code_from_another_register_is_a_dimension_mismatch(n):
    # N = 3 takes the operator route, N = 6 the structured one; both refuse
    # the four-cell code before any product.
    liouv = build_liouvillian(qubit_register(n), replica_symmetric(n, 0.4, 0.1))
    assert liouv.lindblad.structured == (n == 6)
    with pytest.raises(DimensionMismatch):
        is_noiseless(n4_code(), liouv)


GENERIC_CELL = np.array([[0.3 + 0.1j, -0.7 + 0.2j], [0.5 - 0.4j, -0.2 + 0.9j]])


@pytest.mark.parametrize("n", range(3, 9))
@pytest.mark.parametrize("cell", ["sigma_minus", "sigma_z", "generic"])
def test_column_norms_are_the_operators_column_norms(n, cell):
    a = {"sigma_minus": SIGMA_MINUS, "sigma_z": SIGMA_Z, "generic": GENERIC_CELL}[cell]
    lset = canonical_form(dephasing_register(n, a), exponential_decay(n, 0.4, 0.1, 1.5))
    norms = np.concatenate(list(lset.column_norms()))
    assert norms.shape == (len(lset), 2**n)
    want = np.array([np.linalg.norm(t.op, axis=0) for t in lset.terms])
    assert np.abs(norms - want).max() <= 1e-14 * want.max()


def noiseless_cases():
    """(name, model, bath, code, H' or None for the built one, verdict,
    the failing test or None) at N = 6 and 8."""
    for n in (6, 8):
        pairs = [list(range(i, i + 2)) for i in range(0, n, 2)]
        replica = replica_symmetric(n, 0.4, 0.1)
        ring = qubit_register(n, interaction=heisenberg_ring(n, 0.3))
        cluster = dephasing_cluster_code(n, 2)
        yield "null", qubit_register(n), replica, None, None, True, None
        yield "null_ring", ring, replica, None, None, True, None
        yield "cluster", dephasing_register(n), clustered(pairs, 0.4, 0.1), cluster, None, True, None
        yield (
            "cluster_lamb",
            dephasing_register(n),
            clustered(pairs, 0.4, 0.1, delta_ratio=0.5),
            cluster,
            None,
            True,
            None,
        )
        yield (
            "cluster_exponential",
            dephasing_register(n),
            exponential_decay(n, 0.4, 0.1, 2.0),
            cluster,
            None,
            False,
            "eigenvector",
        )
        yield "qubit_cluster", qubit_register(n), clustered(pairs, 0.4, 0.1), cluster, None, False, "eigenvector"
        yield (
            "transverse",
            dephasing_register(n),
            clustered(pairs, 0.4, 0.1),
            cluster,
            transverse_field(n),
            False,
            "leakage",
        )


@pytest.mark.parametrize(
    "name, model, spec, code, h, verdict, failing",
    list(noiseless_cases()),
    ids=lambda v: v if isinstance(v, str) else None,
)
def test_structured_noiseless_test_matches_the_operator_route(
    name, model, spec, code, h, verdict, failing
):
    liouv = build_liouvillian(model, spec)
    h = liouv.hamiltonian if h is None else h
    structured = Liouvillian(hamiltonian=h, lindblad=liouv.lindblad)
    assert structured.lindblad.structured
    code = null_code(liouv.lindblad) if code is None else code
    # The same terms, with their operators given and no register: the
    # operator route.
    dense_set = LindbladSet(
        terms=tuple(
            LindbladTerm(t.rate, t.op, t.sector, t.weights)
            for t in canonical_form(model, spec)
        )
    )
    dense = Liouvillian(hamiltonian=h, lindblad=dense_set)
    assert not dense_set.structured
    got, residuals = noiseless_test(code, structured)
    want, want_residuals = noiseless_test(code, dense)
    assert got is want is verdict
    assert is_noiseless(code, structured) is verdict
    assert all(t._op is None for t in structured.lindblad)
    for key in ("eigenvector", "leakage"):
        assert (residuals[key] > 1.0) == (key == failing)
        assert residuals[key] == pytest.approx(want_residuals[key], rel=1e-6, abs=1e-3)


@pytest.mark.parametrize("kind", ["null", "cluster"])
def test_n10_noiseless_test_stays_below_one_operator(kind):
    n = 10
    if kind == "null":
        liouv = build_liouvillian(qubit_register(n), replica_symmetric(n, 0.4, 0.1))
        code = null_code(liouv.lindblad)
    else:
        pairs = [[i, i + 1] for i in range(0, n, 2)]
        liouv = build_liouvillian(dephasing_register(n), clustered(pairs, 0.4, 0.1))
        code = dephasing_cluster_code(n, 2)
    tracemalloc.start()
    try:
        verdict = is_noiseless(code, liouv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert verdict
    assert peak < 16 * 4**n


# ---------------------------------------------------------------------------
# gauge transport


def test_gauge_transport_alternating_phases_maps_singlet_to_triplet():
    model = qubit_register(2, epsilon=1.0)
    singlet = pair_singlet_state(2)
    code = CodeSubspace(basis=singlet[:, None], labels=(0.0,))
    moved = gauge_transport(code, [0.0, np.pi], model)
    triplet = np.array([0.0, 1.0, 1.0, 0.0], dtype=complex) / np.sqrt(2.0)
    assert abs(triplet.conj() @ moved.basis[:, 0]) == pytest.approx(
        1.0, abs=1e-10
    )


def test_gauge_transport_tracks_phased_bath():
    # The transported singlet must be dark for the bath whose coefficients
    # carry the matching phase pattern, at finite temperature.
    model = qubit_register(2, epsilon=1.0)
    base = replica_symmetric(2, 0.4, 0.1)
    phases = [0.0, np.pi]
    spec = gauge_phased(base, phases)
    lind = canonical_form(model, spec)
    singlet = pair_singlet_state(2)
    code = CodeSubspace(basis=singlet[:, None], labels=(0.0,))
    moved = gauge_transport(code, phases, model)
    assert pure_decoherence_rate(lind, moved.basis[:, 0]) <= 1e-10


def test_gauge_transport_identity_for_zero_phases():
    model = qubit_register(2, epsilon=1.0)
    singlet = pair_singlet_state(2)
    code = CodeSubspace(basis=singlet[:, None], labels=(0.0,))
    moved = gauge_transport(code, [0.0, 0.0], model)
    assert np.max(np.abs(moved.basis - code.basis)) < 1e-12


def test_gauge_transport_guards():
    model = qubit_register(2, epsilon=1.0)
    code = CodeSubspace(
        basis=pair_singlet_state(2)[:, None], labels=(0.0,)
    )
    with pytest.raises(DimensionMismatch):
        gauge_transport(code, [0.0, 1.0, 2.0], model)
    with pytest.raises(TooSmall):
        gauge_transport(code, [0.0, 1.0], dephasing_register(2))


@given(seed=st.integers(0, 2**32 - 1))
def test_gauge_transport_preserves_zero_temperature_darkness(seed):
    # For arbitrary phases the transported null code of the unphased
    # emission channel is dark for the phased channel.
    rng = rng_for(seed)
    n = 3
    model = qubit_register(n, epsilon=1.0)
    base = replica_symmetric(n, 0.4, 0.0)
    code = null_code(canonical_form(model, base))
    phases = random_phases(rng, n)
    moved = gauge_transport(code, phases, model)
    lind = canonical_form(model, gauge_phased(base, phases))
    for j in range(moved.dim):
        assert pure_decoherence_rate(lind, moved.basis[:, j]) <= 1e-9
