"""Real block runs: ``plan`` steps a ``blocks`` group in float64 when its
states are real, every sector's G is real and H has one real energy per
excitation number Q, so that L maps real states to real ones.  Checked
against the complex run of the same states times a global phase, the
pairwise dissipator, the plan's rule for each case that stays complex, and
stacked-against-alone for a set that mixes real and complex states."""

import warnings

import numpy as np
import pytest

from qregsim import (
    build_liouvillian,
    cell_limit,
    dicke_state,
    evolve,
    exponential_decay,
    pair_singlet_state,
    pairwise_dissipator,
)
from qregsim import dynamics, linalg, liouvillian, register
from qregsim.dynamics import evolve_into, plan
from qregsim.liouvillian import ExcitationBlocks, _BlockForm, excitation_layout
from qregsim.observables import fidelity, linear_entropy, register_energy
from qregsim.register import qubit_register

from helpers import rng_for
from test_blocks import block_diagonal, packed_apply, rule_case, sigma_plus_register
from test_structured import crossover

TOL = 1e-12


def real_block_state(rng, n: int) -> np.ndarray:
    """A random real block-diagonal density matrix."""
    a = rng.normal(size=(2**n, 2**n))
    rho = block_diagonal(a @ a.T)
    return rho / np.trace(rho)


def groups_of(liouv, states) -> list:
    """(states, form, real) of each group of the plan."""
    groups = plan(liouv, states, "rk4")
    return [(g.states, g.form, g.real) for g in groups]


@pytest.mark.parametrize("n", [6, 8])
@pytest.mark.parametrize("gamma_plus", [0.0, 0.02])
def test_real_and_complex_runs_agree(n, gamma_plus):
    # psi and e^{i phi} psi are one state, but the phased vectors have
    # nonzero imaginary parts, so the plan steps them in complex arithmetic.
    liouv = build_liouvillian(qubit_register(n), exponential_decay(n, 0.1, gamma_plus, 1.5))
    psis = [pair_singlet_state(n), dicke_state(n, n // 2)]
    phased = [np.exp(1j * phi) * psi for phi, psi in zip((0.7, -2.1), psis)]
    assert groups_of(liouv, psis) == [((0, 1), "blocks", True)]
    assert groups_of(liouv, phased) == [((0, 1), "blocks", False)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no ComplexWarning on the real path
        real = evolve(liouv, psis, 0.1, 0.02, 1)
    for got, want in zip(real, evolve(liouv, phased, 0.1, 0.02, 1)):
        drift = got.metadata.pop("error_estimate") - want.metadata.pop("error_estimate")
        assert got.metadata == want.metadata and got.metadata["form"] == "blocks"
        assert abs(drift) <= TOL
        assert np.abs(got.states - want.states).max() <= TOL
        assert not np.any(got.states.imag)


@pytest.mark.parametrize("n", [3, 6])
@pytest.mark.parametrize("cells", ["minus", "plus"])
@pytest.mark.parametrize("gamma_plus", [0.0, 0.03])
def test_real_apply_is_the_pairwise_dissipator(n, cells, gamma_plus):
    """The float64 apply equals pairwise_dissipator plus the H term, which
    vanishes on block-diagonal states when H has one energy per Q."""
    model = qubit_register(n) if cells == "minus" else sigma_plus_register(n)
    spec = exponential_decay(n, 0.1, gamma_plus, 1.2)
    rho = block_diagonal(rng_for(f"real-apply-{n}-{cells}").normal(size=(2**n, 2**n)))
    with crossover(1):
        liouv = build_liouvillian(model, spec)
        assert groups_of(liouv, [rho]) == [((0,), "blocks", True)]
    form = _BlockForm(liouv, float)
    got = packed_apply(form, rho)
    assert got.dtype == float and all(b.dtype == float for b, _ in form._tables[0])
    h = liouv.hamiltonian
    want = pairwise_dissipator(model, spec, rho) - 1j * (h @ rho - rho @ h)
    assert np.abs(got - want).max() <= TOL * max(1.0, float(np.abs(want).max()))
    assert np.abs(got - packed_apply(_BlockForm(liouv), rho.astype(complex))).max() <= TOL


@pytest.mark.parametrize("case", ["lamb", "ring", "phased"])
def test_generators_that_mix_phases_plan_complex(case):
    # A Lamb shift's hops and a Heisenberg ring put off-diagonal entries in
    # H_q, and a gauge-phased bath makes G complex: the same real states
    # then step in complex arithmetic, with the complex estimate.
    n = 6
    liouv = rule_case(case, n)
    (group,) = plan(liouv, [dicke_state(n, 3)], "rk4")
    assert group.form == "blocks" and not group.real
    (real,) = plan(rule_case("plus", n).lindblad, [dicke_state(n, 3)], "rk4")
    assert real.real and real.bytes < group.bytes


def test_a_complex_amplitude_state_plans_complex():
    n = 6
    liouv = rule_case("plus", n)
    psi = dicke_state(n, 3) * np.exp(1j * np.linspace(0.0, 1.0, 2**n))  # relative phases
    assert groups_of(liouv, [psi]) == [((0,), "blocks", False)]
    assert groups_of(liouv, [psi.real / np.linalg.norm(psi.real)]) == [((0,), "blocks", True)]


def test_a_diagonal_lamb_shift_with_one_energy_per_q_runs_real():
    # Independent cells: the Lamb shift is delta (n_up + n_down) per cell,
    # one energy per Q.  Run with its H the plan reads that; at load, with
    # no H, it cannot, and counts the run as complex: an upper bound.
    n = 6
    liouv = build_liouvillian(qubit_register(n), cell_limit(n, 0.1, 0.02, delta_ratio=0.5))
    assert liouv.lindblad.has_lamb_shift
    assert groups_of(liouv, [dicke_state(n, 3)]) == [((0,), "blocks", True)]
    (load,) = plan(liouv.lindblad, [dicke_state(n, 3)], "rk4")
    (run,) = plan(liouv, [dicke_state(n, 3)], "rk4")
    assert not load.real and load.bytes > run.bytes


def test_real_and_complex_states_are_split_and_each_is_bitwise_alone():
    n = 6
    rng = rng_for("real-complex-split")
    liouv = build_liouvillian(qubit_register(n), exponential_decay(n, 0.1, 0.02, 1.5))
    phased = 1j * dicke_state(n, 2)
    states = [
        pair_singlet_state(n),
        phased,
        real_block_state(rng, n),
        np.outer(phased, phased.conj()),  # the phase cancels: no imaginary part
        dicke_state(n, 4),
    ]
    assert groups_of(liouv, states) == [
        ((0, 2, 3, 4), "blocks", True),
        ((1,), "blocks", False),
    ]
    trajs = evolve(liouv, states, 0.06, 0.02, 1)
    for state, traj in zip(states, trajs):
        alone = evolve(liouv, [state], 0.06, 0.02, 1)[0]
        assert traj.metadata == alone.metadata
        assert traj.states.tobytes() == alone.states.tobytes()
    assert np.abs(trajs[1].states - trajs[3].states).max() <= TOL


def test_real_packed_observables_are_the_complex_ones(monkeypatch):
    # F, delta and E read real packed blocks as they are; E packs H once
    # per generator, and its bits are those of packing H on every call.
    n = 6
    rng = rng_for("real-observables")
    liouv = build_liouvillian(qubit_register(n), cell_limit(n, 0.1, 0.02, delta_ratio=0.5))
    layout = excitation_layout(n)
    real = layout.pack(real_block_state(rng, n))
    cplx = real.astype(complex)
    psi = dicke_state(n, 3) * np.exp(0.3j)
    psi[layout.states[3][0]] *= 1j  # relative phases too
    packs = []
    pack = ExcitationBlocks.pack
    monkeypatch.setattr(ExcitationBlocks, "pack", lambda self, x: packs.append(x) or pack(self, x))
    energies = [register_energy(x, liouv, layout) for x in (real, cplx, real[None], cplx)]
    assert len(packs) == 1 and packs[0] is liouv.hamiltonian  # hamiltonian_blocks, once
    assert energies[1] == register_energy(cplx, liouv.hamiltonian, layout)
    assert abs(energies[0] - energies[1]) <= TOL and energies[2].shape == (1,)
    assert abs(fidelity(real, psi, layout) - fidelity(cplx, psi, layout)) <= TOL
    assert abs(linear_entropy(real, layout) - linear_entropy(cplx, layout)) <= TOL


@pytest.mark.parametrize("lamb", [False, True])
def test_a_block_run_scans_and_packs_h_once(lamb, monkeypatch):
    # Over the build, the plan, the steps and the sink of a block run, H'
    # is scanned for its diagonal once (Liouvillian.hamiltonian_diagonal),
    # and packed once (Liouvillian.hamiltonian_blocks): a real run packs
    # it for the sink's energy alone, a complex (Lamb-shift) run for the
    # drift and the energy alike.
    n = 6
    scans, packs = [], []
    scan, pack = linalg.exact_diagonal, ExcitationBlocks.pack
    for module in (linalg, liouvillian, dynamics, register):
        if hasattr(module, "exact_diagonal"):
            monkeypatch.setattr(module, "exact_diagonal", lambda a: scans.append(a) or scan(a))
    monkeypatch.setattr(ExcitationBlocks, "pack", lambda self, x: packs.append(x) or pack(self, x))
    spec = exponential_decay(n, 0.1, 0.02, 1.5, delta_ratio=0.5 if lamb else 0.0)
    liouv = build_liouvillian(qubit_register(n), spec)
    psi = dicke_state(n, 3)

    def sink(g, p, s, k, rho, layout):
        register_energy(rho, g, layout)
        fidelity(rho, psi, layout)
        linear_entropy(rho, layout)

    ((meta,),) = evolve_into(liouv, [psi], sink, 0.06, 0.02, 1)
    assert meta["form"] == "blocks"
    h = liouv.hamiltonian
    assert [a is h for a in scans if a.shape == h.shape] == [True]
    assert sum(x is h for x in packs) == 1


def test_h_is_scanned_for_its_q_structure_once_per_generator(monkeypatch):
    # Whether H' keeps Q is found once (Liouvillian.hamiltonian_keeps_q):
    # two plans and a block run of one Lamb-shift generator, whose H' is
    # not diagonal, hand H' to _on_blocks once.
    n = 6
    seen = []
    count = register._on_blocks
    for module in (register, liouvillian, dynamics):
        if hasattr(module, "_on_blocks"):
            monkeypatch.setattr(module, "_on_blocks", lambda x, n: seen.append(x) or count(x, n))
    spec = exponential_decay(n, 0.1, 0.02, 1.5, delta_ratio=0.5)
    liouv = build_liouvillian(qubit_register(n), spec)
    assert liouv.hamiltonian_diagonal is None
    psi = dicke_state(n, 3)
    for _ in range(2):
        assert [g.form for g in plan(liouv, [psi], "rk4")] == ["blocks"]
    (traj,) = evolve(liouv, [psi], 0.04, 0.02, 1)
    assert traj.metadata["form"] == "blocks"
    assert sum(x is liouv.hamiltonian for x in seen) == 1
