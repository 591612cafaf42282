"""Config ingestion, experiment runners, output emission, and the CLI."""

import json

import numpy as np
import pytest
import yaml

from qregsim.dynamics import snapshot_grid
from qregsim.errors import ConfigError, DimensionMismatch, QregError
from qregsim.expcli import (
    PRESETS,
    ResultTable,
    build_state,
    config_from_dict,
    config_hash,
    load_preset,
    main,
    parse_config,
    run_codes,
    run_simulate,
    run_tau_sweep,
    serialize_config,
)
from qregsim.register import basis_state, pair_singlet_state, qubit_register


def simulate_config(**overrides) -> dict:
    raw = {
        "experiment": "simulate",
        "register": {"n": 2, "d": 2, "kind": "qubit", "epsilon": 1.0},
        "bath": {
            "model": "exponential",
            "gamma_minus": 0.1,
            "gamma_plus": 0.0,
            "xi": 1.0,
        },
        "initial_states": ["singlet"],
        "solver": {"dt": 0.01, "t_end": 2.0, "stride": 20, "method": "rk4"},
        "output": {"directory": "out", "name": "case", "formats": ["csv"]},
    }
    raw.update(overrides)
    return raw


# ---------------------------------------------------------------------------
# config parsing and round-trips


def test_all_presets_round_trip():
    for name in PRESETS:
        cfg = load_preset(name)
        text = serialize_config(cfg)
        again = parse_config(text)
        assert serialize_config(again) == text
        assert config_hash(again) == config_hash(cfg)


def test_config_hash_tracks_content():
    cfg_a = config_from_dict(simulate_config())
    raw = simulate_config()
    raw["solver"]["dt"] = 0.02
    cfg_b = config_from_dict(raw)
    assert config_hash(cfg_a) != config_hash(cfg_b)


def test_config_rejects_inverted_rate_ordering():
    raw = simulate_config()
    raw["bath"]["gamma_minus"], raw["bath"]["gamma_plus"] = 0.05, 0.1
    with pytest.raises(ConfigError, match="positive semidefinite"):
        config_from_dict(raw)


def test_config_rejects_unknown_fields():
    raw = simulate_config()
    raw["register"]["bogus"] = 1
    with pytest.raises(ConfigError, match="register.bogus"):
        config_from_dict(raw)
    raw = simulate_config()
    raw["typo_section"] = {}
    with pytest.raises(ConfigError, match="unknown field"):
        config_from_dict(raw)


def test_config_field_guards():
    raw = simulate_config()
    raw["register"]["n"] = 0
    with pytest.raises(ConfigError, match="register.n"):
        config_from_dict(raw)
    raw = simulate_config()
    raw["solver"]["dt"] = -0.1
    with pytest.raises(ConfigError, match="solver.dt"):
        config_from_dict(raw)
    raw = simulate_config()
    raw["bath"]["xi"] = 0.0
    with pytest.raises(ConfigError, match="bath.xi"):
        config_from_dict(raw)
    raw = simulate_config()
    raw["initial_states"] = []
    with pytest.raises(ConfigError, match="initial_states"):
        config_from_dict(raw)
    with pytest.raises(ConfigError, match="not valid YAML"):
        parse_config("experiment: [unclosed")


def test_tau_sweep_requires_sweep_section():
    raw = simulate_config(experiment="tau_sweep")
    del raw["solver"]
    with pytest.raises(ConfigError, match="sweep"):
        config_from_dict(raw)


# ---------------------------------------------------------------------------
# state resolution


def test_build_state_named_forms():
    model = qubit_register(2, epsilon=1.0)
    assert np.array_equal(build_state("all_up", model), basis_state(2, "00"))
    assert np.array_equal(build_state("all_down", model), basis_state(2, "11"))
    assert np.max(np.abs(build_state("singlet", model) - pair_singlet_state(2))) == 0
    trip = build_state("triplet", model)
    assert trip[1] == pytest.approx(1 / np.sqrt(2))
    su2 = build_state("su2:1,0", model)
    assert abs(trip.conj() @ su2) == pytest.approx(1.0, abs=1e-12)
    bas = build_state("basis:01", model)
    assert bas[1] == 1.0
    amp = build_state([[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [1.0, 0.0]], model)
    assert np.linalg.norm(amp) == pytest.approx(1.0)
    assert amp[0] == pytest.approx(1 / np.sqrt(2))


def test_build_state_guards():
    model = qubit_register(3, epsilon=1.0)
    with pytest.raises(ConfigError, match="unknown state"):
        build_state("wibble", model)
    with pytest.raises(ConfigError, match="triplet"):
        build_state("triplet", model)
    with pytest.raises(ConfigError, match="length"):
        build_state([[1.0, 0.0]], model)
    with pytest.raises(ConfigError, match="zero"):
        build_state([[0.0, 0.0]] * 8, model)
    with pytest.raises(ConfigError, match="cannot build"):
        build_state("su2:7,0", model)


# ---------------------------------------------------------------------------
# runners


def test_simulate_zero_coupling_keeps_eigenstate_fidelity():
    raw = simulate_config(initial_states=["basis:01"])
    raw["bath"] = {"model": "cell_limit", "gamma_minus": 0.0, "gamma_plus": 0.0}
    table = run_simulate(config_from_dict(raw))
    assert table.columns == ("t", "F", "delta", "E")
    assert np.min(table.values[:, 1]) >= 1.0 - 1e-9
    assert np.max(np.abs(table.values[:, 2])) <= 1e-9


def test_simulate_fig2_singlet_dominates_triplet():
    table = run_simulate(load_preset("fig2"))
    cols = list(table.columns)
    f_s = table.values[:, cols.index("F_singlet")]
    f_t = table.values[:, cols.index("F_triplet")]
    assert table.values[0, 0] == 0.0
    assert table.values[-1, 0] == pytest.approx(50.0)
    assert f_s[0] == pytest.approx(1.0, abs=1e-12)
    assert np.all(f_s[1:] > f_t[1:])
    # The correlated-bath advantage is an order of magnitude by t = 50.
    assert f_s[-1] > 5 * f_t[-1]


def test_simulate_fig3_triplet_entropy_rises_then_purifies():
    table = run_simulate(load_preset("fig3"))
    cols = list(table.columns)
    d_t = table.values[:, cols.index("delta_triplet")]
    peak = int(np.argmax(d_t))
    assert 0 < peak < len(d_t) - 1
    assert d_t[peak] > 0.1
    # Zero-temperature relaxation repurifies toward the ground state.
    assert d_t[-1] < 0.5 * d_t[peak]
    d_s = table.values[:, cols.index("delta_singlet")]
    # The singlet mixes far more slowly and has not repurified by t = 50.
    assert d_s[1] < 0.6 * d_t[1]
    assert d_s[-1] > d_t[-1]


def test_simulate_sweep_column_layout():
    raw = simulate_config()
    raw["solver"]["t_end"] = 1.0
    raw["sweep"] = {"parameter": "bath.xi", "values": [0.5, 1.0]}
    table = run_simulate(config_from_dict(raw))
    assert table.columns == (
        "t",
        "F_singlet_xi0.5",
        "delta_singlet_xi0.5",
        "E_singlet_xi0.5",
        "F_singlet_xi1",
        "delta_singlet_xi1",
        "E_singlet_xi1",
    )
    # Longer correlation length protects the singlet better.
    assert table.values[-1, 4] > table.values[-1, 1]


def test_simulate_methods_agree():
    raw = simulate_config()
    raw["solver"] = {"dt": 0.01, "t_end": 5.0, "stride": 100, "method": "rk4"}
    rk4 = run_simulate(config_from_dict(raw))
    raw["solver"]["method"] = "exact"
    exact = run_simulate(config_from_dict(raw))
    assert rk4.columns == exact.columns
    assert np.max(np.abs(rk4.values - exact.values)) < 1e-6


def test_tau_sweep_fig1_rates_and_ordering():
    cfg = load_preset("fig1")
    table = run_tau_sweep(cfg)
    assert table.columns == ("xi", "rate_symmetric", "rate_singlet")
    assert np.array_equal(table.values[:, 0], np.asarray(cfg.sweep["values"]))
    sym, sing = table.values[:, 1], table.values[:, 2]
    assert np.all(sing < sym)  # singlet decoheres slower everywhere
    assert np.all(sing > 0) and np.all(sym > 0)
    assert table.provenance["solver"]["observable"] == "pure_decoherence_rate"


def test_codes_runner_singlet_code():
    raw = {
        "experiment": "codes",
        "register": {
            "n": 4,
            "kind": "qubit",
            "epsilon": 1.0,
            "interaction": {"kind": "heisenberg_ring", "j": 0.7},
        },
        "bath": {"model": "replica", "gamma_minus": 0.4, "gamma_plus": 0.1},
        "codes": {"kind": "n4"},
        "output": {"directory": "out", "name": "codes", "formats": ["csv"]},
    }
    table = run_codes(config_from_dict(raw))
    assert table.values.shape[0] == 2
    assert table.columns[:4] == ("col", "decoherence_rate", "dim", "noiseless")
    assert np.all(table.values[:, 1] <= 1e-10)
    assert np.all(table.values[:, 2] == 2.0)
    assert np.all(table.values[:, 3] == 1.0)
    code_block = table.provenance["code"]
    assert code_block["dim"] == 2 and code_block["noiseless"] is True
    assert len(code_block["basis_re_im"]) == 16


def test_codes_runner_empty_code_reports_cleanly():
    raw = {
        "experiment": "codes",
        "register": {"n": 3, "kind": "qubit", "epsilon": 1.0},
        "bath": {
            "model": "exponential",
            "gamma_minus": 0.2,
            "gamma_plus": 0.05,
            "xi": 1.0,
        },
        "codes": {"kind": "null"},
        "output": {"directory": "out", "name": "codes", "formats": ["csv"]},
    }
    table = run_codes(config_from_dict(raw))
    assert table.values.shape[0] == 0
    assert table.provenance["code"]["dim"] == 0
    assert table.provenance["code"]["noiseless"] is False


def test_result_table_validation():
    with pytest.raises(DimensionMismatch, match="columns"):
        ResultTable(columns=("a",), values=np.zeros((2, 2)), provenance={})
    with pytest.raises(DimensionMismatch, match="finite"):
        ResultTable(
            columns=("a", "b"),
            values=np.array([[1.0, np.inf]]),
            provenance={},
        )
    with pytest.raises(DimensionMismatch, match="2-d"):
        ResultTable(columns=("a",), values=np.zeros(3), provenance={})


def test_provenance_is_sufficient_to_rerun():
    cfg = config_from_dict(simulate_config())
    table = run_simulate(cfg)
    prov = table.provenance
    again = config_from_dict(prov["config"])
    assert serialize_config(again) == serialize_config(cfg)
    assert prov["config_sha256"] == config_hash(cfg)
    assert prov["solver"]["method"] == "rk4"


# ---------------------------------------------------------------------------
# CLI entry point and file emission


def _write_yaml(path, raw):
    path.write_text(yaml.safe_dump(raw))
    return str(path)


def test_cli_simulate_writes_outputs(tmp_path, capsys):
    raw = simulate_config()
    raw["output"] = {
        "directory": str(tmp_path / "out"),
        "name": "case",
        "formats": ["csv", "json", "gnuplot"],
    }
    cfg_path = _write_yaml(tmp_path / "case.yaml", raw)
    assert main(["simulate", "--config", cfg_path]) == 0
    out = capsys.readouterr().out
    assert out.count("wrote ") == 3
    csv_path = tmp_path / "out" / "case.csv"
    data = csv_path.read_bytes()
    lines = data.split(b"\r\n")
    assert lines[0] == b"t,F,delta,E"
    assert data.count(b"\r\n") == len([l for l in lines if l]) + 0
    sidecar = json.loads((tmp_path / "out" / "case.json").read_text())
    assert sidecar["columns"] == ["t", "F", "delta", "E"]
    assert sidecar["n_rows"] > 0
    assert sidecar["provenance"]["config_sha256"]
    assert sidecar["provenance"]["library_version"]
    assert sidecar["wall_time_s"] >= 0.0
    script = (tmp_path / "out" / "case.gp").read_text()
    assert "set datafile separator comma" in script
    assert "'case.csv'" in script


def test_cli_overrides_dt_and_out(tmp_path):
    raw = simulate_config()
    raw["output"]["formats"] = ["json"]
    cfg_path = _write_yaml(tmp_path / "case.yaml", raw)
    dest = tmp_path / "elsewhere"
    code = main(
        [
            "simulate",
            "--config",
            cfg_path,
            "--out",
            str(dest),
            "--dt",
            "0.02",
            "--t-end",
            "1.0",
        ]
    )
    assert code == 0
    sidecar = json.loads((dest / "case.json").read_text())
    assert sidecar["provenance"]["config"]["solver"]["dt"] == 0.02
    assert sidecar["provenance"]["config"]["solver"]["t_end"] == 1.0


def test_cli_config_error_exit_code(tmp_path, capsys):
    raw = simulate_config()
    raw["bath"]["gamma_plus"] = 0.5  # exceeds gamma_minus
    cfg_path = _write_yaml(tmp_path / "bad.yaml", raw)
    assert main(["simulate", "--config", cfg_path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert "positive semidefinite" in err


@pytest.mark.parametrize(
    "parameter, value",
    [("bath.gamma_plus", 0.2), ("bath.gamma_minus", -1.0)],
)
def test_cli_invalid_sweep_point_is_config_error(tmp_path, capsys, parameter, value):
    raw = simulate_config(sweep={"parameter": parameter, "values": [value]})
    cfg_path = _write_yaml(tmp_path / "bad_sweep.yaml", raw)
    assert main(["simulate", "--config", cfg_path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: sweep.values")


@pytest.mark.parametrize("key", ["dt", "t_end"])
@pytest.mark.parametrize("value", ["nan", "inf"])
def test_non_finite_solver_values_are_rejected(tmp_path, capsys, key, value):
    raw = simulate_config()
    raw["solver"][key] = float(value)
    with pytest.raises(ConfigError) as info:
        config_from_dict(raw)
    assert info.value.field == f"solver.{key}"
    cfg_path = _write_yaml(tmp_path / "case.yaml", simulate_config())
    flag = "--" + key.replace("_", "-")
    assert main(["simulate", "--config", cfg_path, flag, value]) == 2
    assert capsys.readouterr().err.startswith(f"config error: solver.{key}")
    grid = {"t_end": 1.0, "dt": 0.1, key: float(value)}
    with pytest.raises(QregError):
        snapshot_grid(grid["t_end"], grid["dt"], 1)


def test_cli_wrong_subcommand_for_config(tmp_path, capsys):
    raw = simulate_config()
    cfg_path = _write_yaml(tmp_path / "case.yaml", raw)
    assert main(["tau-sweep", "--config", cfg_path]) == 2
    assert "simulate" in capsys.readouterr().err


def test_cli_numerical_failure_exit_code(tmp_path, capsys):
    raw = simulate_config()
    raw["register"]["kind"] = "dephasing"
    raw["register"]["epsilon"] = 0.0
    raw["bath"] = {"model": "cell_limit", "gamma_minus": 4.0, "gamma_plus": 4.0}
    raw["initial_states"] = ["uniform"]
    raw["solver"] = {"dt": 5.0, "t_end": 50.0, "stride": 1, "method": "rk4"}
    raw["output"]["directory"] = str(tmp_path)
    cfg_path = _write_yaml(tmp_path / "unstable.yaml", raw)
    with pytest.warns(RuntimeWarning):
        assert main(["simulate", "--config", cfg_path]) == 3
    assert capsys.readouterr().err.startswith("numerical failure:")


def test_cli_codes_prints_summary_and_basis(tmp_path, capsys):
    raw = {
        "experiment": "codes",
        "register": {"n": 2, "kind": "qubit", "epsilon": 1.0},
        "bath": {"model": "replica", "gamma_minus": 0.4, "gamma_plus": 0.1},
        "codes": {"kind": "null"},
        "output": {
            "directory": str(tmp_path / "out"),
            "name": "codes",
            "formats": ["csv"],
        },
    }
    cfg_path = _write_yaml(tmp_path / "codes.yaml", raw)
    assert main(["codes", "--config", cfg_path]) == 0
    out = capsys.readouterr().out
    assert "code dimension: 1  noiseless: True" in out
    main_csv = (tmp_path / "out" / "codes.csv").read_text()
    assert main_csv.splitlines()[0].startswith("col,decoherence_rate,dim,noiseless")
    basis_csv = (tmp_path / "out" / "codes_basis.csv").read_text()
    assert basis_csv.splitlines()[0] == "col0_re,col0_im"
    assert len(basis_csv.strip().splitlines()) == 1 + 4


def test_cli_tau_sweep_plot_script_overlays_states(tmp_path):
    cfg = load_preset("fig1")
    raw = cfg.to_dict()
    raw["output"] = {
        "directory": str(tmp_path),
        "name": "fig1",
        "formats": ["gnuplot", "csv"],
    }
    cfg_path = _write_yaml(tmp_path / "fig1.yaml", raw)
    assert main(["tau-sweep", "--config", cfg_path]) == 0
    script = (tmp_path / "fig1.gp").read_text()
    assert "title 'symmetric'" in script
    assert "title 'singlet'" in script
    assert "set ylabel 'tau_1'" in script


def test_step_count_beyond_bound_is_config_error(tmp_path, capsys):
    import tracemalloc

    raw = simulate_config()
    raw["solver"]["t_end"] = 1e18
    tracemalloc.start()
    try:
        with pytest.raises(ConfigError) as info:
            config_from_dict(raw)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert info.value.field == "solver.t_end"
    assert peak < 2**20
    cfg_path = _write_yaml(tmp_path / "case.yaml", simulate_config())
    assert main(["simulate", "--config", cfg_path, "--t-end", "1e18"]) == 2
    assert capsys.readouterr().err.startswith("config error: solver.t_end")
