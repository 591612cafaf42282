"""Structured (Gamma-form) generator: agreement with the dense canonical
generator and the independent pairwise dissipator on non-Hermitian input,
the crossover between the two paths, the cached stability scale, the
forms and the scale built on first use, and the generator size guard.
Also the weight route of pure-state rates against the operator formula,
lazily built canonical operators, and the O(N^2 D^2) Lamb shift against
the product formula."""

import os
import subprocess
import sys
import tracemalloc
from contextlib import contextmanager, nullcontext
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import qregsim
from qregsim import (
    BathSpec,
    build_liouvillian,
    canonical_form,
    clustered,
    exponential_decay,
    gauge_phased,
    pairwise_dissipator,
    replica_symmetric,
    superoperator_matrix,
)
from qregsim import dynamics, evolve_into, expcli, liouvillian, observables
from qregsim.errors import DimensionMismatch, QregError, TooLarge
from qregsim.linalg import vec
from qregsim.liouvillian import (
    GENERATOR_MAX_BYTES,
    STRUCTURED_MIN_DIM,
    LindbladSet,
    LindbladTerm,
    Liouvillian,
    _DenseForm,
    _GammaForm,
    form_bytes,
    lamb_shift,
)
from qregsim.codes import dephasing_cluster_code
from qregsim.observables import cell_covariances, covariance_rates, pure_decoherence_rate
from qregsim.register import (
    collective_op,
    dephasing_register,
    embed_cell_op,
    heisenberg_ring,
    pair_singlet_state,
    qubit_register,
    register_hamiltonian,
    su2_basis_state,
    su2_multiplicity,
)

from helpers import random_bath, random_phases, random_pure_state, rng_for

TOL = 1e-12
# Hermitian cell operator of a three-level dephasing register.
SX3 = np.eye(3, k=1) + np.eye(3, k=-1)


@contextmanager
def crossover(dim: int):
    """Temporarily move the dense/structured crossover to ``dim``."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(liouvillian, "STRUCTURED_MIN_DIM", dim)
        yield


def random_operator(rng, dim: int) -> np.ndarray:
    """Random complex matrix: neither Hermitian nor normalized."""
    return rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))


def with_lamb_shift(spec: BathSpec, ratio: float) -> BathSpec:
    return BathSpec(
        gamma_minus=spec.gamma_minus,
        gamma_plus=spec.gamma_plus,
        delta_minus=ratio * spec.gamma_minus,
        delta_plus=ratio * spec.gamma_plus,
    )


def assert_paths_agree(model, spec, rng, native: bool = False) -> Liouvillian:
    """structured apply = dense apply = pairwise dissipator + H term, to TOL
    relative, on a non-Hermitian input; returns the structured generator."""
    # a generator's form is chosen on its first use, under the crossover then
    with nullcontext() if native else crossover(1):
        structured = build_liouvillian(model, spec)
        assert isinstance(structured._form, _GammaForm)
    with crossover(10**9):
        dense = build_liouvillian(model, spec)
        assert isinstance(dense._form, _DenseForm)
    rho = random_operator(rng, model.dim)
    h = structured.hamiltonian
    want = dense.apply(rho)
    pairwise = pairwise_dissipator(model, spec, rho) - 1j * (h @ rho - rho @ h)
    got = structured.apply(rho)
    scale = max(1.0, float(np.abs(want).max()))
    assert np.abs(got - want).max() <= TOL * scale
    assert np.abs(got - pairwise).max() <= TOL * scale
    return structured


@given(
    seed=st.integers(0, 10_000),
    n=st.integers(1, 5),
    phased=st.booleans(),
    lamb=st.booleans(),
)
def test_random_psd_baths(seed, n, phased, lamb):
    rng = rng_for(seed)
    spec = random_bath(rng, n)
    if phased:
        spec = gauge_phased(spec, random_phases(rng, n))
    if lamb:
        spec = with_lamb_shift(spec, rng.uniform(-1.0, 1.0))
    assert_paths_agree(qubit_register(n), spec, rng)


@given(seed=st.integers(0, 10_000), n=st.integers(3, 5))
def test_heisenberg_interaction(seed, n):
    rng = rng_for(seed)
    model = qubit_register(n, interaction=heisenberg_ring(n, rng.uniform(-1, 1)))
    liouv = assert_paths_agree(model, random_bath(rng, n), rng)
    assert liouv._form.h is not None  # dense commutator branch


@given(seed=st.integers(0, 10_000), n=st.integers(1, 5))
def test_sigma_z_dephasing_register(seed, n):
    rng = rng_for(seed)
    liouv = assert_paths_agree(dephasing_register(n), random_bath(rng, n), rng)
    # diagonal H and cell operators: everything is one elementwise multiplier
    assert liouv._form.h is None and not liouv._form.sectors


@given(seed=st.integers(0, 10_000), n=st.integers(1, 3))
def test_three_level_cells(seed, n):
    rng = rng_for(seed)
    model = dephasing_register(n, cell_op=random_operator(rng, 3))
    assert_paths_agree(model, random_bath(rng, n), rng)


@pytest.mark.parametrize("n, examples", [(6, 8), (7, 4)])
def test_native_structured_path(n, examples):
    @settings(max_examples=examples)
    @given(seed=st.integers(0, 10_000), phased=st.booleans())
    def check(seed, phased):
        rng = rng_for(seed)
        spec = random_bath(rng, n)
        if phased:
            spec = gauge_phased(spec, random_phases(rng, n))
        assert_paths_agree(qubit_register(n), spec, rng, native=True)

    check()


def test_superoperator_matches_structured_apply_at_crossover():
    rng = rng_for("superop-structured")
    n = 6
    model = qubit_register(n, interaction=heisenberg_ring(n, 0.4))
    spec = with_lamb_shift(random_bath(rng, n), 0.3)
    liouv = build_liouvillian(model, spec)
    assert liouv.dim == STRUCTURED_MIN_DIM and isinstance(liouv._form, _GammaForm)
    rho = random_operator(rng, liouv.dim)
    got = superoperator_matrix(liouv) @ vec(rho)
    want = vec(liouv.apply(rho))
    assert np.abs(got - want).max() <= TOL * max(1.0, float(np.abs(want).max()))


def test_path_choice():
    small = build_liouvillian(qubit_register(5), exponential_decay(5, 0.1, 0.02, 1.0))
    assert small._form.jump.shape == (10, 1, 32, 32)
    model = qubit_register(6)
    lset = canonical_form(model, exponential_decay(6, 0.1, 0.02, 1.0))
    h = np.diag(np.arange(64.0))
    assert isinstance(Liouvillian(hamiltonian=h, lindblad=lset)._form, _GammaForm)
    # a hand-built set carries no register, so it stays on the dense path
    hand = Liouvillian(hamiltonian=h, lindblad=LindbladSet(terms=lset.terms))
    assert hand._form.jump.shape == (12, 1, 64, 64)


def test_canonical_terms_carry_their_weights():
    model = qubit_register(3)
    lset = canonical_form(model, random_bath(rng_for("weights"), 3))
    assert lset.model is model
    for term in lset:
        a = model.cell_op if term.sector < 0 else model.cell_op.conj().T
        cells = [embed_cell_op(model, i, a) for i in range(3)]
        rebuilt = sum(u * op for u, op in zip(term.weights, cells))
        assert np.abs(rebuilt - term.op).max() <= 1e-15


@pytest.mark.parametrize("ring", [False, True])
def test_stability_scale_is_rate_plus_spectral_norm(ring):
    n = 4
    model = qubit_register(n, interaction=heisenberg_ring(n, 0.7) if ring else None)
    liouv = build_liouvillian(model, replica_symmetric(n, 0.2, 0.1, delta_ratio=0.3))
    want = liouv.lindblad.max_rate() + np.linalg.norm(liouv.hamiltonian, 2)
    assert abs(liouv.stability_scale - want) <= 1e-12 * want


@pytest.mark.parametrize("n", [4, 6, 8, 10])
@pytest.mark.parametrize("kind", ["lamb", "ring", "diagonal"])
def test_stability_scale_on_the_q_blocks_is_the_dense_one(kind, n, monkeypatch):
    """An H that keeps Q (a Lamb shift, a Heisenberg ring) has its radius
    from one eigvalsh per Q block, a diagonal H from its diagonal: equal to
    the dense radius to 1e-12."""
    model = qubit_register(n, interaction=heisenberg_ring(n, 0.7) if kind == "ring" else None)
    spec = exponential_decay(n, 0.1, 0.02, 1.0, delta_ratio=0.5 if kind == "lamb" else 0.0)
    liouv = build_liouvillian(model, spec)
    assert (liouv.hamiltonian_diagonal is None) == (kind != "diagonal")
    want = liouv.lindblad.max_rate() + np.abs(np.linalg.eigvalsh(liouv.hamiltonian)).max()
    seen = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda m: seen.append(len(m)) or eigvalsh(m))
    assert abs(liouv.stability_scale - want) <= 1e-12 * want
    blocks = [len(s) for s in liouvillian.excitation_layout(n).states]
    assert seen == ([] if kind == "diagonal" else blocks)


def test_stability_scale_of_an_h_off_the_q_blocks_is_dense(monkeypatch):
    n = 6
    model = qubit_register(n)
    liouv = build_liouvillian(model, exponential_decay(n, 0.1, 0.02, 1.0))
    sigma_x = np.array([[0, 1], [1, 0]], dtype=complex)
    h = liouv.hamiltonian + 0.3 * embed_cell_op(model, 1, sigma_x)
    liouv = Liouvillian(hamiltonian=h, lindblad=liouv.lindblad)
    seen = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda m: seen.append(len(m)) or eigvalsh(m))
    want = liouv.lindblad.max_rate() + np.linalg.norm(h, 2)
    assert abs(liouv.stability_scale - want) <= 1e-12 * want
    assert not liouv.hamiltonian_keeps_q and seen == [2**n]


def test_forms_and_the_stability_scale_are_built_on_first_use(monkeypatch):
    """build_liouvillian at N = 10 with a Lamb shift (H not diagonal)
    runs no eigvalsh and builds no form, under a peak of four D x D
    arrays (the Hamiltonian, the Lamb shift, their sum and a temporary);
    reading stability_scale runs one eigvalsh per Q block of H, which keeps
    Q, the first apply (or _form) builds the form, and both are cached."""
    n = 10
    model, spec = qubit_register(n), exponential_decay(n, 0.1, 0.02, 1.0, delta_ratio=0.5)
    small = (qubit_register(3), exponential_decay(3, 0.1, 0.02, 1.0))
    events = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda m: events.append("eigvalsh") or eigvalsh(m))
    for cls in (_GammaForm, _DenseForm):
        init = cls.__init__
        monkeypatch.setattr(
            cls, "__init__", lambda self, *a, init=init: events.append(type(self)) or init(self, *a)
        )
    tracemalloc.start()
    try:
        liouv = build_liouvillian(model, spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert events == [] and liouv.lindblad.structured
    assert peak <= 4 * 16 * 4**n
    scale, scaled = liouv.stability_scale, ["eigvalsh"] * (n + 1)
    assert liouv.stability_scale == scale and events == scaled
    assert isinstance(liouv._form, _GammaForm) and liouv._form is liouv._form
    assert events == scaled + [_GammaForm]
    small = build_liouvillian(*small)
    assert events == scaled + [_GammaForm]
    rho = np.eye(8, dtype=complex) / 8
    assert small.apply(rho).tobytes() == small.apply(rho).tobytes()
    assert events == scaled + [_GammaForm, _DenseForm]


def hand_built(n: int) -> Liouvillian:
    """An N-cell generator whose terms carry weights but whose set names no
    register: not structured, so ``apply`` takes the dense form, whose
    operators the terms place only when it is built."""
    model = qubit_register(n)
    lset = canonical_form(model, exponential_decay(n, 0.1, 0.02, 1.0))
    terms = tuple(LindbladTerm(t.rate, None, t.sector, t.weights, model) for t in lset)
    return Liouvillian(hamiltonian=register_hamiltonian(model), lindblad=LindbladSet(terms))


def traced_peak(call) -> int:
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestSizeGuard:
    """Each guard refuses before it allocates: ``Liouvillian.apply`` checks
    ``form_bytes`` before it builds its form, ``evolve_into`` checks the
    plan before it packs a state, and ``build_liouvillian`` checks what it
    builds."""

    def test_ten_cells_fit(self):
        lset = canonical_form(qubit_register(10), exponential_decay(10, 0.1, 0.02, 1.0))
        assert form_bytes(lset, 2**10) <= GENERATOR_MAX_BYTES

    def test_estimate_covers_the_measured_peak(self):
        model = qubit_register(7)
        liouv = build_liouvillian(model, exponential_decay(7, 0.1, 0.02, 1.0, delta_ratio=0.5))
        peak = traced_peak(lambda: liouv.apply(np.eye(128, dtype=complex)))
        assert peak <= form_bytes(liouv.lindblad, 128) <= 2 * peak

    def test_apply_raises_before_building_its_form(self, monkeypatch):
        liouv = hand_built(11)
        monkeypatch.setattr(LindbladTerm, "op", property(lambda self: pytest.fail("op placed")))
        rho = np.zeros((2**11, 2**11), dtype=complex)
        tracemalloc.start()
        try:
            with pytest.raises(TooLarge, match="GiB"):
                liouv.apply(rho)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20 and "_form" not in liouv.__dict__

    def test_evolve_raises_before_packing_a_state(self, monkeypatch):
        liouv = hand_built(11)
        psi = np.full(2**11, 2**-5.5, dtype=complex)
        monkeypatch.setattr(dynamics, "_density", lambda s: pytest.fail("a state was packed"))
        tracemalloc.start()
        try:
            with pytest.raises(TooLarge, match="GiB"):
                evolve_into(liouv, [psi], lambda *a: None, 0.02, 0.01, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_thirteen_cells_raise_before_building(self):
        model = qubit_register(13)
        spec = exponential_decay(13, 0.1, 0.02, 1.0)
        tracemalloc.start()
        try:
            with pytest.raises(TooLarge, match="GiB"):
                build_liouvillian(model, spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_guard_survives_optimize_flag(self):
        script = (
            "import sys\n"
            "import numpy as np\n"
            "import test_structured as t\n"
            "from qregsim import build_liouvillian, evolve_into, exponential_decay\n"
            "from qregsim import qubit_register\n"
            "from qregsim.errors import TooLarge\n"
            "liouv, psi = t.hand_built(11), np.full(2**11, 2**-5.5, dtype=complex)\n"
            "calls = [\n"
            "    lambda: build_liouvillian(\n"
            "        qubit_register(13), exponential_decay(13, 0.1, 0.0, 1.0)\n"
            "    ),\n"
            "    lambda: liouv.apply(np.zeros((2**11, 2**11), dtype=complex)),\n"
            "    lambda: evolve_into(liouv, [psi], lambda *a: None, 0.02, 0.01, 1),\n"
            "]\n"
            "for call in calls:\n"
            "    try:\n"
            "        call()\n"
            "    except TooLarge:\n"
            "        print(sys.flags.optimize, 'raised')\n"
        )
        here = Path(__file__).resolve().parent
        src = str(Path(qregsim.__file__).resolve().parents[1])
        path = os.pathsep.join([src, str(here)] + [p for p in [os.environ.get("PYTHONPATH")] if p])
        proc = subprocess.run(
            [sys.executable, "-O", "-c", script],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=path),
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["1", "raised"] * 3


def operator_rate(lset: LindbladSet, psi: np.ndarray) -> float:
    """The variance formula on the dense operators, term by term."""
    total = 0.0
    for term in lset:
        lpsi = term.op @ psi
        mean = complex(psi.conj() @ lpsi)
        total += term.rate * (float((lpsi.conj() @ lpsi).real) - abs(mean) ** 2)
    return 2.0 * total


def built(lset: LindbladSet) -> bool:
    """Whether any term of the set holds a built operator."""
    return any(isinstance(t._op, np.ndarray) for t in lset)


def assert_weight_route(model, spec, rng, native: bool = False) -> None:
    """pure_decoherence_rate on a structured set, computed from the weights
    without building an operator, equals the operator formula to TOL."""
    psi = random_pure_state(rng, model.dim)
    with nullcontext() if native else crossover(1):
        lset = canonical_form(model, spec)
        assert lset.structured
        got = pure_decoherence_rate(lset, psi)
    assert not built(lset)
    want = operator_rate(lset, psi)
    assert abs(got - want) <= TOL * max(1.0, abs(want))


@given(seed=st.integers(0, 10_000), n=st.integers(1, 5), phased=st.booleans())
def test_weight_route_rate_random_psd_baths(seed, n, phased):
    rng = rng_for(seed)
    spec = random_bath(rng, n)
    if phased:
        spec = gauge_phased(spec, random_phases(rng, n))
    assert_weight_route(qubit_register(n), spec, rng)


@given(seed=st.integers(0, 10_000), n=st.integers(1, 5))
def test_weight_route_rate_sigma_z_dephasing(seed, n):
    rng = rng_for(seed)
    assert_weight_route(dephasing_register(n), random_bath(rng, n), rng)


@given(seed=st.integers(0, 10_000), n=st.integers(1, 3))
def test_weight_route_rate_three_level_cells(seed, n):
    rng = rng_for(seed)
    model = dephasing_register(n, cell_op=random_operator(rng, 3))
    assert_weight_route(model, random_bath(rng, n), rng)


@pytest.mark.parametrize("n, examples", [(6, 8), (7, 4)])
def test_weight_route_rate_native(n, examples):
    @settings(max_examples=examples)
    @given(seed=st.integers(0, 10_000), phased=st.booleans())
    def check(seed, phased):
        rng = rng_for(seed)
        spec = random_bath(rng, n)
        if phased:
            spec = gauge_phased(spec, random_phases(rng, n))
        assert_weight_route(qubit_register(n), spec, rng, native=True)

    check()


@pytest.mark.parametrize(
    "model",
    [qubit_register(6), dephasing_register(6), qubit_register(4), dephasing_register(2, SX3)],
    ids=["qubit6", "sigma_z6", "qubit4", "three_level"],
)
def test_batched_rates_are_the_per_state_rates(model, monkeypatch):
    """A (D, S) stack gives S rates: a structured set in one digit-move
    pass per sector over all columns, equal to each state alone and to the
    operator formula to TOL; a smaller set state by state, bit for bit."""
    n = model.n_cells
    rng = rng_for(f"batched-{model.cell_dim}-{n}")
    lset = canonical_form(model, gauge_phased(random_bath(rng, n), random_phases(rng, n)))
    psis = np.stack([random_pure_state(rng, model.dim) for _ in range(5)], axis=1)
    moves = []
    digit_op = liouvillian._digit_op
    monkeypatch.setattr(liouvillian, "_digit_op", lambda *a: moves.append(a) or digit_op(*a))
    rates = pure_decoherence_rate(lset, psis)
    sectors = len({t.sector for t in lset})
    assert rates.shape == (5,)
    assert len(moves) == (n * sectors if lset.structured else 0)
    for rate, psi in zip(rates, psis.T):
        alone = pure_decoherence_rate(lset, psi.copy())
        if lset.structured:
            assert abs(rate - alone) <= TOL * max(1.0, abs(alone))
        else:
            assert rate == alone
        want = operator_rate(lset, psi)
        assert abs(rate - want) <= TOL * max(1.0, abs(want))


def second_moments(lset: LindbladSet, psi: np.ndarray) -> float:
    """2 sum_k lambda_k <L_k^+ L_k>, which bounds the rate: the scale of
    its relative tolerance."""
    return 2.0 * sum(t.rate * np.linalg.norm(t.op @ psi) ** 2 for t in lset)


@given(
    seed=st.integers(0, 10_000),
    n=st.integers(1, 6),
    sigma_z=st.booleans(),
    plus=st.booleans(),
    n_states=st.integers(1, 4),
)
def test_covariance_route_is_the_operator_rate(seed, n, sigma_z, plus, n_states):
    """The cell covariance of a stack contracted with each sector's G is
    the variance formula on the operators, and each column's rate is the
    column rated alone, to TOL relative: sigma- and sigma_z cells, with and
    without gamma_plus terms, gauge-phased complex G."""
    rng = rng_for(seed)
    model = dephasing_register(n) if sigma_z else qubit_register(n)
    spec = gauge_phased(random_bath(rng, n, with_plus=plus), random_phases(rng, n))
    psis = np.stack([random_pure_state(rng, model.dim) for _ in range(n_states)], axis=1)
    with crossover(1):
        lset = canonical_form(model, spec)
        covariances = cell_covariances(lset, psis)
        rates = covariance_rates(lset, covariances, n_states)
        alone = [pure_decoherence_rate(lset, psi.copy()) for psi in psis.T]
    assert sorted(covariances) == sorted(lset.sectors) == ([-1, 1] if plus else [-1])
    assert all(v.shape == (n_states, n, n) for v in covariances.values())
    for rate, one, psi in zip(rates, alone, psis.T):
        scale = second_moments(lset, psi)
        assert abs(rate - operator_rate(lset, psi)) <= TOL * scale
        assert abs(rate - one) <= TOL * scale


def test_a_shared_known_builds_each_covariance_once(monkeypatch):
    """``pure_decoherence_rate`` passes ``known`` on to
    ``cell_covariances``: rated under another bath's set with the same
    dict, the states' cell covariance is read, not built, and the rates
    are a fresh call's, bit for bit."""
    n = 6
    model = qubit_register(n)
    psis = np.stack([pair_singlet_state(n), random_pure_state(rng_for("known"), 2**n)], axis=1)
    first, second = (canonical_form(model, exponential_decay(n, 0.1, 0.02, xi)) for xi in (1.0, 5.0))
    assert first.structured and second.structured
    known = {}
    pure_decoherence_rate(first, psis, known)
    assert sorted(known) == [-1, 1]
    want = pure_decoherence_rate(second, psis)
    monkeypatch.setattr(observables, "_covariance", lambda *args: pytest.fail("V was built"))
    assert pure_decoherence_rate(second, psis, known).tobytes() == want.tobytes()


@pytest.mark.parametrize("n", [6, 8, 10])
def test_singlets_do_not_decohere_in_a_replica_bath(n):
    # At xi = infinity every cell sees the same bath: L = S^- and S^+,
    # which annihilate every total-spin-0 state.
    lset = canonical_form(qubit_register(n), replica_symmetric(n, 0.4, 0.1))
    copies = range(min(su2_multiplicity(n, 0), 4))
    states = [pair_singlet_state(n)] + [su2_basis_state(n, 0, 0, c) for c in copies]
    assert lset.structured
    rates = pure_decoherence_rate(lset, np.stack(states, axis=1))
    assert np.all(np.abs(rates) <= 1e-12)


def test_cluster_code_rates_hold_one_sector_of_cell_actions():
    """The 36 columns of the N = 8 cluster code: the rate call holds one
    sector's X (N D S complex entries) and chunk buffers, never both
    sectors' X at once (2 N D S)."""
    n = 8
    model = dephasing_register(n)
    lset = canonical_form(model, clustered([[0, 1, 2, 3], [4, 5, 6, 7]], 0.4, 0.1))
    basis = dephasing_cluster_code(n, 4, 0).basis
    assert lset.structured and len(lset.sectors) == 2 and basis.shape == (model.dim, 36)
    want = [operator_rate(lset, psi) for psi in basis.T]
    rates = pure_decoherence_rate(lset, basis)  # warm: lazily cached tables
    peak = traced_peak(lambda: pure_decoherence_rate(lset, basis))
    assert peak <= 1.5 * n * model.dim * basis.shape[1] * 16
    assert np.allclose(rates, want, rtol=0, atol=1e-12)


def test_weight_route_rejects_a_mismatched_state():
    lset = canonical_form(qubit_register(6), exponential_decay(6, 0.1, 0.02, 1.0))
    with pytest.raises(DimensionMismatch):
        pure_decoherence_rate(lset, np.ones(32) / np.sqrt(32.0))


@pytest.mark.parametrize("n", [3, 5, 6, 7])
def test_structured_predicate_is_the_path_choice(n):
    model = qubit_register(n)
    lset = canonical_form(model, exponential_decay(n, 0.1, 0.02, 1.0))
    h = np.diag(np.arange(float(model.dim)))
    for dim in (1, STRUCTURED_MIN_DIM, 10**9):
        with crossover(dim):
            form = Liouvillian(hamiltonian=h, lindblad=lset)._form
            assert lset.structured == isinstance(form, _GammaForm)
            assert lset.structured == (model.dim >= dim)
    assert not LindbladSet(terms=lset.terms).structured


@pytest.mark.parametrize(
    "model",
    [qubit_register(3), dephasing_register(4), dephasing_register(2, np.arange(9.0).reshape(3, 3))],
    ids=["qubit", "sigma_z", "three_level"],
)
def test_lazy_operator_is_bitwise_the_eager_sum(model):
    n = model.n_cells
    rng = rng_for(f"lazy-{model.cell_dim}-{n}")
    lset = canonical_form(model, gauge_phased(random_bath(rng, n), random_phases(rng, n)))
    assert len(lset) and not built(lset)
    for term in lset:
        a = model.cell_op if term.sector < 0 else model.cell_op.conj().T
        cells = [embed_cell_op(model, i, a) for i in range(n)]
        eager = sum(term.weights[i] * cells[i] for i in range(n))
        assert term.op.dtype == eager.dtype and term.op.shape == eager.shape
        assert term.op.tobytes() == eager.tobytes()
        assert term.op is term.op


@contextmanager
def counting(calls: dict):
    """Count calls of the named liouvillian functions into ``calls``."""

    def wrap(name, original):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return wrapper

    with pytest.MonkeyPatch.context() as mp:
        for name in calls:
            mp.setattr(liouvillian, name, wrap(name, getattr(liouvillian, name)))
        yield mp


def test_canonical_operators_are_placed_once_per_term():
    model = qubit_register(3)
    calls = {"collective_op": 0}
    with counting(calls):
        lset = canonical_form(model, random_bath(rng_for("sector"), 3))
        minus = [t for t in lset if t.sector < 0]
        plus = [t for t in lset if t.sector > 0]
        assert len(minus) > 1 and plus and calls["collective_op"] == 0
        ops = [t.op for t in minus]
        assert calls["collective_op"] == len(minus) and not built(LindbladSet(tuple(plus)))
        lset.operators()
        assert calls["collective_op"] == len(lset)
    assert all(a is t.op for a, t in zip(ops, minus))


def test_structured_generator_builds_no_operator():
    lset = build_liouvillian(
        qubit_register(6), exponential_decay(6, 0.1, 0.02, 1.0, delta_ratio=0.5)
    ).lindblad
    assert lset.structured and not built(lset)


def test_canonical_form_at_ten_cells_allocates_under_a_mebibyte():
    model = qubit_register(10)
    spec = exponential_decay(10, 0.1, 0.02, 1.0)
    tracemalloc.start()
    try:
        lset = canonical_form(model, spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(lset) == 20
    assert peak < 2**20


def test_hand_built_terms():
    op = np.array([[0.0, 1.0], [0.0, 0.0]])
    term = LindbladTerm(0.3, op, liouvillian.SECTOR_PLUS)
    assert term.op.dtype == complex and term.dim == 2 and term.weights is None
    with pytest.raises(AttributeError):
        term.rate = 1.0
    # Without an operator a term is placed from its weights on first read,
    # which needs both the weights and the register.
    model = qubit_register(2)
    weights = np.array([1.0, 0.5j])
    placed = LindbladTerm(0.3, None, liouvillian.SECTOR_PLUS, weights, model)
    assert placed.dim == 4 and not built(LindbladSet((placed,)))
    want = collective_op(model, weights, model.cell_op.conj().T)
    assert placed.op.tobytes() == want.tobytes()
    for args in ((), (weights,), (None, model)):
        with pytest.raises(QregError, match="weights and register"):
            LindbladTerm(0.3, None, liouvillian.SECTOR_MINUS, *args)
    with pytest.raises(DimensionMismatch):
        LindbladTerm(0.3, op, -1, weights=np.ones(3), model=qubit_register(2))
    with pytest.raises(DimensionMismatch):
        LindbladTerm(0.3, np.ones((2, 3)), -1)


def test_codes_runner_builds_the_canonical_set_once():
    raw = {
        "experiment": "codes",
        "register": {"n": 4, "kind": "qubit", "epsilon": 1.0},
        "bath": {"model": "replica", "gamma_minus": 0.4, "gamma_plus": 0.1},
        "codes": {"kind": "null"},
        "output": {"directory": "out", "name": "codes", "formats": ["csv"]},
    }
    calls = {"collective_op": 0}

    def second_set(*args):
        raise AssertionError("the runner built a canonical set of its own")

    cfg = expcli.config_from_dict(raw)  # the load check sizes the run on a set of its own
    with counting(calls) as mp:
        mp.setattr(expcli, "canonical_form", second_set)
        table = expcli.run_codes(cfg)
    assert table.provenance["code"]["dim"] == 2
    # the generator's set serves the code, the rates and the verdict, and
    # each of its two terms (the replica bath has rank one per sector)
    # places its operator once
    assert calls == {"collective_op": 2}


def product_lamb_shift(model, spec) -> np.ndarray:
    """delta_H = sum_ij (Dm_ij A_i^+ A_j + Dp_ji A_i A_j^+) from dense
    products of the embedded cell operators."""
    a = [embed_cell_op(model, i) for i in range(model.n_cells)]
    ad = [x.conj().T for x in a]
    out = np.zeros((model.dim, model.dim), dtype=complex)
    for i in range(model.n_cells):
        for j in range(model.n_cells):
            if spec.delta_minus is not None:
                out += spec.delta_minus[i, j] * (ad[i] @ a[j])
            if spec.delta_plus is not None:
                out += spec.delta_plus[j, i] * (a[i] @ ad[j])
    return out


def random_hermitian(rng, n: int) -> np.ndarray:
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return m + m.conj().T


@given(
    seed=st.integers(0, 10_000),
    n=st.integers(1, 6),
    three_level=st.booleans(),
    which=st.sampled_from(["both", "minus", "plus"]),
)
def test_lamb_shift_matches_the_product_formula(seed, n, three_level, which):
    rng = rng_for(seed)
    if three_level:
        n = min(n, 4)
        model = dephasing_register(n, cell_op=random_operator(rng, 3))
    else:
        model = qubit_register(n)
    gamma = np.zeros((n, n), dtype=complex)
    spec = BathSpec(
        gamma_minus=gamma,
        gamma_plus=gamma,
        delta_minus=None if which == "plus" else random_hermitian(rng, n),
        delta_plus=None if which == "minus" else random_hermitian(rng, n),
    )
    got = lamb_shift(model, spec)
    want = product_lamb_shift(model, spec)
    assert np.abs(got - want).max() <= TOL * max(1.0, float(np.abs(want).max()))


def test_eleven_cells_are_admitted():
    """The Gamma form's apply at N = 11 fits the budget and at N = 12 does
    not; sizing either builds nothing."""
    sets = [
        canonical_form(qubit_register(n), exponential_decay(n, 0.1, 0.02, 1.0)) for n in (11, 12)
    ]
    tracemalloc.start()
    try:
        need = [form_bytes(lset, lset.model.dim) for lset in sets]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert need[0] <= GENERATOR_MAX_BYTES < need[1]
    assert peak < 2**20
