"""The run plan (``dynamics.plan``): the one rule for which form each state
runs on and what the run costs.  The forms it names are the forms that
run, at load and in ``evolve_into``; its byte estimates cover the traced
peak of the whole runner on every path, within a factor of two; and the
CLI refuses, at load and before any large allocation, exactly the runs
whose estimate is over the 2 GiB budget."""

import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import numpy.ma  # noqa: F401  (numpy imports it on a first call; not a run's cost)
import pytest
import yaml

from qregsim import build_liouvillian, dicke_state, dynamics, evolve, expcli, liouvillian
from qregsim.bath import cell_limit, exponential_decay, gauge_phased
from qregsim.dynamics import _on_blocks, plan, run_bytes
from qregsim.linalg import exact_diagonal
from qregsim.register import (
    _digit_table,
    dephasing_register,
    excitation_sectors,
    heisenberg_ring,
    qubit_register,
)

from helpers import random_pure_state, rng_for
from test_blocks import sigma_plus_register

BATH = {"model": "exponential", "gamma_minus": 0.1, "gamma_plus": 0.02}
REPLICA = {"model": "replica", "gamma_minus": 0.4, "gamma_plus": 0.1}


def simulate(n, states, method="rk4", kind="qubit", bath=BATH, sweep=None, **solver):
    raw = {
        "experiment": "simulate",
        "register": {"n": n, "kind": kind},
        "bath": dict(bath),
        "initial_states": states,
        "solver": {"method": method, "dt": 0.02, "t_end": 0.04, "stride": 1, **solver},
        "output": {"name": "plan"},
    }
    return dict(raw, sweep=sweep) if sweep else raw


XI_SWEEP = {"parameter": "bath.xi", "values": [1.0, 2.0]}
LONG = {"dt": 0.01, "t_end": 10.0, "stride": 100}
CLUSTER = {
    "experiment": "codes",
    "register": {"n": 8, "kind": "dephasing"},
    "bath": dict(REPLICA, model="clustered", partition=[[0, 1, 2, 3], [4, 5, 6, 7]]),
    "codes": {"kind": "cluster", "cluster_size": 4, "target_zspin": 0},
}
# one config per (path, N); the forms its bath points run on
PATHS = {
    "dense_stack_4": (
        simulate(4, ["singlet", "symmetric"], sweep=XI_SWEEP, dt=0.01, t_end=1.0, stride=10),
        [["dense", "dense"]] * 2,
    ),
    "gamma_6": (simulate(6, ["uniform"]), [["gamma"]]),
    "gamma_8": (simulate(8, ["uniform"]), [["gamma"]]),
    "blocks_6": (simulate(6, ["singlet", "symmetric"]), [["blocks", "blocks"]]),
    "blocks_8": (simulate(8, ["singlet", "symmetric"]), [["blocks", "blocks"]]),
    "exact_sector_4": (simulate(4, ["singlet", "symmetric"], "exact", **LONG), [["blocks"] * 2]),
    "exact_sector_5": (
        simulate(5, ["su2:0.5,0.5", "symmetric"], "exact", **LONG),
        [["blocks"] * 2],
    ),
    "exact_superop_3": (simulate(3, ["uniform"], "exact", **dict(LONG, t_end=5.0)), [["dense"]]),
    "exact_superop_4": (simulate(4, ["uniform"], "exact", **dict(LONG, t_end=5.0)), [["dense"]]),
    "dephasing_6": (
        simulate(6, ["uniform", "singlet"], "dephasing", "dephasing", dt=0.05, t_end=2.0, stride=4),
        [["dephasing"] * 2],
    ),
    "null_8": (dict(CLUSTER, register={"n": 8}, bath=REPLICA, codes={"kind": "null"}), None),
    "cluster_8": (CLUSTER, None),
}


def budget_spy(monkeypatch) -> list:
    """The estimates the CLI hands ``check_budget``, at load and in run_codes."""
    needs = []
    real = expcli.check_budget
    monkeypatch.setattr(
        expcli, "check_budget", lambda need, what: needs.append(need) or real(need, what)
    )
    return needs


def cold_caches() -> None:
    """As in a fresh process after load: no layout, gather table or digit table."""
    liouvillian.excitation_layout.cache_clear()
    _digit_table.cache_clear()
    excitation_sectors.cache_clear()


def traced(call):
    tracemalloc.start()
    try:
        result = call()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("path", PATHS)
def test_estimates_cover_the_whole_runner(path, monkeypatch):
    raw, forms = PATHS[path]
    needs = budget_spy(monkeypatch)
    cfg = expcli.config_from_dict(raw)
    cold_caches()
    try:
        table, peak = traced(lambda: getattr(expcli, f"run_{cfg.experiment}")(cfg))
    finally:
        cold_caches()
    if forms is not None:
        assert table.provenance["solver"]["forms"] == forms
    assert peak <= max(needs) <= 2 * peak


def test_gamma_run_fits_its_plan():
    """RK4 on uniform at N = 8 on the Gamma form (xi = 2, a Lamb shift, two
    steps, the F/delta/E sink): the traced run is within the plan's
    bytes."""
    bath = dict(BATH, xi=2.0, delta_ratio=0.5)
    cfg = expcli.config_from_dict(simulate(8, ["uniform"], bath=bath))
    lset = liouvillian.canonical_form(expcli.build_register(cfg), expcli.build_bath(cfg))
    groups = plan(lset, [np.full(256, 1 / 16, dtype=complex)], "rk4")
    assert [g.form for g in groups] == ["gamma"]
    cold_caches()
    try:
        _, peak = traced(lambda: expcli.run_simulate(cfg))
    finally:
        cold_caches()
    assert peak <= run_bytes([groups])


@pytest.mark.parametrize(
    "raw, bound",
    [
        (simulate(8, ["singlet", "symmetric"]), 1.2),
        (simulate(8, ["singlet", "symmetric"], t_end=0.4), 1.2),
        (simulate(10, ["singlet", "symmetric"], dt=0.01, t_end=0.02), 1.25),
        (simulate(8, ["singlet", "symmetric"], t_end=0.22), 1.2),
    ],
    ids=["blocks8", "blocks8_20_steps", "blocks10", "blocks8_12_snapshots"],
)
def test_block_plan_covers_the_traced_run(raw, bound):
    """Every block run's snapshot goes to the sink as its step ends, so one
    plan, whatever the number of snapshots, covers the traced runner within
    ``bound`` times its peak (need / peak measured 1.11-1.20)."""
    cfg = expcli.config_from_dict(raw)
    model = expcli.build_register(cfg)
    lset = liouvillian.canonical_form(model, expcli.build_bath(cfg))
    psis = [expcli.build_state(s, model) for s in cfg.initial_states]
    groups = plan(lset, psis, "rk4")
    assert [g.form for g in groups] == ["blocks"]
    cold_caches()
    try:
        _, peak = traced(lambda: expcli.run_simulate(cfg))
    finally:
        cold_caches()
    assert peak <= run_bytes([groups]) < bound * peak


# the simulate configs of the CI's "CLI under python -O" step, one file each
CI_CONFIGS = Path(__file__).parent / "configs"


def _ci_configs() -> dict:
    """Each CI simulate config's name and the path of its YAML file."""
    return {path.stem: path for path in sorted(CI_CONFIGS.glob("*.yaml"))}


@pytest.mark.parametrize("name", ["fig2", "fig3", "fig4", "fig5", *_ci_configs()])
def test_the_plan_made_at_load_is_what_runs(name, monkeypatch):
    # The forms and the arithmetic: blocks8 and blocks10 step in float64,
    # blocks8lamb and blocks8ring in complex128.
    planned = {expcli: [], dynamics: []}
    for module, plans in planned.items():
        monkeypatch.setattr(module, "plan", lambda *a, _p=plans: _p.append(plan(*a)) or _p[-1])
    if name.startswith("fig"):
        cfg = expcli.load_preset(name)
    else:
        cfg = expcli.parse_config(_ci_configs()[name].read_text())
    forms = expcli.run_simulate(cfg).provenance["solver"]["forms"]
    states = range(len(cfg.initial_states))

    def per_state(plans):
        """Per bath point, each state's form and arithmetic; a plan of no
        states only checks the method."""
        return [
            [next((g.form, g.real) for g in groups if s in g.states) for s in states]
            for groups in plans
            if groups
        ]

    load, run = map(per_state, planned.values())
    assert [[form for form, _ in point] for point in load] == forms
    assert run == load
    if name.startswith("blocks"):
        assert {real for point in run for _, real in point} == {name in ("blocks8", "blocks10")}


@pytest.mark.parametrize("method", ["rk4", "exact", "dephasing"])
def test_trajectories_record_the_plans_forms(method):
    rng = rng_for(f"plan-forms-{method}")
    n = 6 if method == "rk4" else 4
    model = dephasing_register(n) if method == "dephasing" else qubit_register(n)
    liouv = build_liouvillian(model, exponential_decay(n, 0.1, 0.02, 1.5, delta_ratio=0.5))
    psi = random_pure_state(rng, 2**n)
    states = [dicke_state(n, n // 2), psi, np.outer(psi, psi.conj()), dicke_state(n, 1)]
    groups = plan(liouv, states, method)
    assert sorted(s for g in groups for s in g.states) == list(range(len(states)))
    forms = {s: g.form for g in groups for s in g.states}
    trajs = evolve(liouv, states, 0.04, 0.02, 1, method)
    assert [t.metadata["form"] for t in trajs] == [forms[s] for s in range(len(states))]
    if method == "rk4":
        assert [forms[s] for s in range(len(states))] == ["blocks", "gamma", "gamma", "blocks"]


def test_the_plan_builds_nothing():
    """Planning N = 12 runs places no operator and builds no layout."""
    lset = liouvillian.canonical_form(qubit_register(12), exponential_decay(12, 0.1, 0.02, 2.0))
    states = [dicke_state(12, 6), np.full(4096, 1 / 64, dtype=complex)]
    excitation_sectors(12)  # the basis tables the states' builders keep
    layouts = liouvillian.excitation_layout.cache_info().currsize
    groups, peak = traced(lambda: plan(lset, states, "rk4"))
    assert [(g.form, g.states) for g in groups] == [("blocks", (0,)), ("gamma", (1,))]
    assert groups[0].bytes <= liouvillian.GENERATOR_MAX_BYTES < groups[1].bytes
    assert peak < 2**20 and liouvillian.excitation_layout.cache_info().currsize == layouts


def test_twelve_cell_null_code_loads(monkeypatch):
    raw = {"experiment": "codes", "register": {"n": 12}, "bath": REPLICA, "codes": {"kind": "null"}}
    needs = budget_spy(monkeypatch)
    _, peak = traced(lambda: expcli.config_from_dict(raw))
    assert max(needs) <= liouvillian.GENERATOR_MAX_BYTES and peak < 2**20


@pytest.mark.parametrize(
    "raw",
    [
        simulate(12, ["uniform"]),  # the Gamma form's N x D^2 buffers
        simulate(6, ["uniform"], "exact", dt=0.01, t_end=10.0, stride=600),  # D^2 x D^2 expm
    ],
    ids=["uniform_12", "exact_uniform_6"],
)
def test_runs_over_the_budget_are_refused_at_load(raw, tmp_path, capsys):
    tracemalloc.start()
    try:
        with pytest.raises(expcli.ConfigError) as info:
            expcli.config_from_dict(raw)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert info.value.field == "register.n" and "GiB" in str(info.value)
    assert peak < 2**20
    path = tmp_path / "big.yaml"
    path.write_text(yaml.safe_dump(raw))
    assert expcli.main(["simulate", "--config", str(path), "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("config error: register.n")


@pytest.mark.parametrize("command", ["simulate", "tau-sweep"])
def test_each_initial_state_is_built_once(command, tmp_path, monkeypatch):
    states = ["singlet", "symmetric", "su2:1,0"]
    raw = simulate(4, states)
    if command == "tau-sweep":
        raw = dict(raw, experiment="tau_sweep", sweep=XI_SWEEP)
        del raw["solver"]
    path = tmp_path / "run.yaml"
    path.write_text(yaml.safe_dump(raw))
    built = []
    real = expcli.build_state
    monkeypatch.setattr(
        expcli, "build_state", lambda entry, model: built.append(entry) or real(entry, model)
    )
    assert expcli.main([command, "--config", str(path), "--out", str(tmp_path)]) == 0
    assert built == states


def _rule_generator(cells: str, case: str, n: int):
    """A generator of n cells: sigma-, sigma+ or sigma_z cells under an
    exponential bath with nothing extra, a Lamb shift, a Heisenberg ring or
    gauge phases, or a cell-limit bath with a Lamb shift."""
    model = {
        "minus": qubit_register(n),
        "plus": sigma_plus_register(n),
        "z": dephasing_register(n),
    }[cells]
    bath = exponential_decay(n, 0.1, 0.02, 1.5, delta_ratio=0.5 if case == "lamb" else 0.0)
    if case == "ring":
        model = replace(model, interaction=heisenberg_ring(n, 0.3))
    elif case == "phased":
        bath = gauge_phased(bath, np.linspace(0.0, 2.0, n))
    elif case == "cell_limit":
        bath = cell_limit(n, 0.1, 0.02, delta_ratio=0.5)
    return build_liouvillian(model, bath)


def _expected_forms(liouv, states, method: str) -> dict:
    """Each state's (form, real) by the block rule, read off H' with
    ``exact_diagonal`` and ``_on_blocks``: blocks when H' has no entry
    between different Q (and, for RK4, the cells are sigma- or sigma+),
    real when the state and every G are real and H' is diagonal with one
    real energy per Q."""
    lset = liouv.lindblad
    n, h = lset.model.n_cells, liouv.hamiltonian
    energies = exact_diagonal(h)
    keeps = energies is not None or _on_blocks(h, n)
    on = [keeps and _on_blocks(s, n) for s in states]
    if method == "exact":
        return {s: ("blocks" if all(on) else "dense", False) for s in range(len(states))}
    stepped = lset.model.cell_op[0, 0] == 0  # sigma- or sigma+, not sigma_z
    real_h = energies is not None and not np.any(energies.imag) and all(
        np.all(energies[q] == energies[q[0]]) for q in excitation_sectors(n)[0]
    )
    real_g = not any(np.iscomplexobj(g) for g in lset.gammas.values())
    return {
        s: ("blocks", real_h and real_g and not np.any(np.imag(state)))
        if on[s] and stepped
        else ("gamma", False)
        for s, state in enumerate(states)
    }


@pytest.mark.parametrize("method", ["rk4", "exact"])
@pytest.mark.parametrize("case", ["none", "lamb", "ring", "phased", "cell_limit"])
@pytest.mark.parametrize("cells", ["minus", "plus", "z"])
def test_the_plans_decisions_follow_h(cells, case, method):
    # The plan reads H' through its Liouvillian (hamiltonian_diagonal);
    # its forms and real flags are the ones H' itself gives.
    n = 6
    liouv = _rule_generator(cells, case, n)
    dicke = dicke_state(n, 3)
    uniform = np.full(2**n, 2 ** (-n / 2), dtype=complex)
    states = [dicke, np.outer(dicke, dicke.conj()), uniform, 1j * dicke]
    for chosen in [states] + [[s] for s in states]:
        groups = plan(liouv, chosen, method)
        got = {s: (g.form, g.real) for g in groups for s in g.states}
        assert got == _expected_forms(liouv, chosen, method)
