"""Structured (Gamma-form) generator: agreement with the dense canonical
generator and the independent pairwise dissipator on non-Hermitian input,
the crossover between the two paths, the cached stability scale, and the
generator size guard."""

import os
import subprocess
import sys
import tracemalloc
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import qregsim
from qregsim import (
    BathSpec,
    build_liouvillian,
    canonical_form,
    exponential_decay,
    gauge_phased,
    pairwise_dissipator,
    replica_symmetric,
    superoperator_matrix,
)
from qregsim import liouvillian
from qregsim.errors import TooLarge
from qregsim.linalg import vec
from qregsim.liouvillian import (
    GENERATOR_MAX_BYTES,
    STRUCTURED_MIN_DIM,
    LindbladSet,
    Liouvillian,
    _DenseForm,
    _GammaForm,
    generator_bytes,
)
from qregsim.register import (
    dephasing_register,
    embed_cell_op,
    heisenberg_ring,
    qubit_register,
)

from helpers import random_bath, random_phases, rng_for

TOL = 1e-12


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
    if native:
        structured = build_liouvillian(model, spec)
    else:
        with crossover(1):
            structured = build_liouvillian(model, spec)
    with crossover(10**9):
        dense = build_liouvillian(model, spec)
    assert isinstance(structured._form, _GammaForm)
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
    assert small._form.jump.shape == (10, 32, 32)
    model = qubit_register(6)
    lset = canonical_form(model, exponential_decay(6, 0.1, 0.02, 1.0))
    h = np.diag(np.arange(64.0))
    assert isinstance(Liouvillian(hamiltonian=h, lindblad=lset)._form, _GammaForm)
    # a hand-built set carries no register, so it stays on the dense path
    hand = Liouvillian(hamiltonian=h, lindblad=LindbladSet(terms=lset.terms))
    assert hand._form.jump.shape == (12, 64, 64)


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


class TestSizeGuard:
    def test_ten_cells_fit(self):
        model = qubit_register(10)
        assert generator_bytes(model, exponential_decay(10, 0.1, 0.02, 1.0)) <= (
            GENERATOR_MAX_BYTES
        )

    def test_estimate_covers_the_measured_peak(self):
        model = qubit_register(7)
        spec = exponential_decay(7, 0.1, 0.02, 1.0, delta_ratio=0.5)
        tracemalloc.start()
        try:
            build_liouvillian(model, spec).apply(np.eye(128, dtype=complex))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= generator_bytes(model, spec) <= 2 * peak

    def test_twelve_cells_raise_before_allocating(self):
        model = qubit_register(12)
        spec = exponential_decay(12, 0.1, 0.02, 1.0)
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
            "from qregsim import build_liouvillian, exponential_decay, qubit_register\n"
            "from qregsim.errors import TooLarge\n"
            "try:\n"
            "    build_liouvillian(qubit_register(12), exponential_decay(12, 0.1, 0.0, 1.0))\n"
            "except TooLarge:\n"
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
