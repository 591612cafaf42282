"""Config ingestion, experiment runners, output emission, and the CLI."""

import json
import os
from pathlib import Path

import numpy as np
import pytest
import yaml

from qregsim.dynamics import snapshot_grid
from qregsim.errors import ConfigError, DimensionMismatch, IoError, QregError
from qregsim.expcli import (
    CONFIG_DUMPER,
    PRESETS,
    ResultTable,
    build_state,
    config_from_dict,
    config_hash,
    emit_outputs,
    load_preset,
    main,
    parse_config,
    run_codes,
    run_simulate,
    run_tau_sweep,
    serialize_config,
)
from qregsim.codes import n4_code
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
    basis = n4_code().basis
    for k in (0, 1):
        assert np.array_equal(build_state(f"codeword{k}", qubit_register(4)), basis[:, k])


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
    with pytest.raises(ConfigError, match="codewords are defined for n = 4"):
        build_state("codeword0", model)
    for name in ("su2:1", "su2:1,0,0,0"):
        with pytest.raises(ConfigError, match="expected su2:S,M or su2:S,M,copy"):
            build_state(name, model)


def test_config_errors_are_raised_by_the_cli_field_mapping_alone():
    # Validation is the library's: every other rule raises a library error,
    # which _library reports under the field it was checking.
    import ast
    from pathlib import Path

    import qregsim

    raisers = set()
    for path in Path(qregsim.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text())
        for func in ast.walk(tree):
            if not isinstance(func, ast.FunctionDef):
                continue
            for node in ast.walk(func):
                exc = getattr(node, "exc", None) if isinstance(node, ast.Raise) else None
                name = getattr(exc.func if isinstance(exc, ast.Call) else exc, "id", None)
                if name == "ConfigError":
                    raisers.add((path.name, func.name))
    assert {module for module, _ in raisers} == {"expcli.py"}
    assert {func for _, func in raisers} == {
        "_states", "_reject_unknown", "_walk", "config_from_dict", "_check_sections",
        "_library", "_parse_yaml", "_read_preset", "_load_for_command",
    }


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


def test_codes_runner_cluster_code(tmp_path):
    # Size-2 clusters of N = 4 dephasing cells under a bath clustered as
    # [[0, 1], [2, 3]]: a noiseless code of dimension 4, every rate zero.
    raw = {
        "experiment": "codes",
        "register": {"n": 4, "kind": "dephasing"},
        "bath": {
            "model": "clustered",
            "gamma_minus": 0.4,
            "gamma_plus": 0.1,
            "partition": [[0, 1], [2, 3]],
        },
        "codes": {"kind": "cluster", "cluster_size": 2},
        "output": {"name": "cluster4", "formats": ["gnuplot"]},
    }
    cfg = config_from_dict(raw)
    table = run_codes(cfg)
    assert table.values.shape == (4, len(table.columns))
    assert table.values[:, 0].tolist() == [0.0, 1.0, 2.0, 3.0]
    assert np.all(table.values[:, 1] == 0.0)
    assert np.all(table.values[:, 2:4] == [4.0, 1.0])
    assert table.provenance["code"]["kind"] == "sub_decoherent"
    emit_outputs(table, cfg, out_dir=str(tmp_path))
    script = (tmp_path / "cluster4.gp").read_text()
    assert script.endswith(
        "set xlabel 'basis column'\nset ylabel 'decoherence rate'\n"
        "plot 'cluster4.csv' using 1:2 with points pointtype 7 title 'rate'\n"
    )


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
    assert table.provenance["code"]["residuals"] == {"eigenvector": None, "leakage": None}


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
    "state", ["su2:a,0", "su2:1,0,y", "su2:1,0,1.5", "su2:inf,0", "su2:nan,0", "basis:0x"]
)
def test_cli_malformed_state_name_is_config_error(tmp_path, capsys, state):
    raw = simulate_config(initial_states=[state])
    cfg_path = _write_yaml(tmp_path / "bad_state.yaml", raw)
    assert main(["simulate", "--config", cfg_path]) == 2
    assert capsys.readouterr().err.startswith("config error: initial_states")


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


@pytest.mark.parametrize("case", ["missing_config", "out_under_a_file"])
def test_cli_io_failure_is_io_error(tmp_path, capsys, case):
    # An unreadable config or an output directory that cannot be made is
    # an I/O failure, not a numerical one; the exit status stays 3.
    if case == "missing_config":
        argv = ["simulate", "--config", str(tmp_path / "missing.yaml")]
        reason = "cannot read config"
    else:
        (tmp_path / "file").write_text("")
        cfg_path = _write_yaml(tmp_path / "case.yaml", simulate_config())
        argv = ["simulate", "--config", cfg_path, "--t-end", "0.1", "--out", str(tmp_path / "file" / "out")]
        reason = "cannot create output directory"
    assert main(argv) == 3
    assert capsys.readouterr().err.startswith(f"io error: {reason}")


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


def test_codes_sidecar_leaves_the_basis_to_its_csv(tmp_path):
    # The basis is written once, to <name>_basis.csv, which reads back the
    # code's basis bit for bit; the JSON sidecar holds the rest of the code
    # block.
    from qregsim.codes import null_code
    from qregsim.expcli import build_bath, build_register, emit_outputs
    from qregsim.liouvillian import build_liouvillian

    raw = {
        "experiment": "codes",
        "register": {"n": 4, "kind": "qubit"},
        "bath": {"model": "replica", "gamma_minus": 0.4, "gamma_plus": 0.1},
        "codes": {"kind": "null"},
        "output": {"name": "codes", "formats": ["csv", "json"]},
    }
    cfg = config_from_dict(raw)
    table = run_codes(cfg)
    emit_outputs(table, cfg, out_dir=str(tmp_path))
    sidecar = json.loads((tmp_path / "codes.json").read_text())
    code_block = sidecar["provenance"]["code"]
    assert "basis_re_im" not in code_block
    assert code_block["dim"] == 2 and code_block["noiseless"] is True
    # The residuals behind the verdict, each over its tolerance: at most 1.
    residuals = code_block["residuals"]
    assert sorted(residuals) == ["eigenvector", "leakage"]
    assert all(isinstance(v, float) and 0.0 <= v <= 1.0 for v in residuals.values())
    assert "basis_re_im" in table.provenance["code"]
    basis = null_code(build_liouvillian(build_register(cfg), build_bath(cfg)).lindblad).basis
    lines = (tmp_path / "codes_basis.csv").read_text().splitlines()
    assert lines[0] == "col0_re,col0_im,col1_re,col1_im"
    pairs = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
    assert np.array_equal(pairs[:, 0::2] + 1j * pairs[:, 1::2], basis)


def repr_csv(path, columns, values) -> None:
    """A CSV written cell by cell as ``repr(float(v))``, the formatting
    ``_write_csv`` must reproduce byte for byte."""
    import csv

    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\r\n")
        writer.writerow(columns)
        for row in values:
            writer.writerow([repr(float(v)) for v in row])


def test_csv_rows_are_written_as_each_floats_repr(tmp_path):
    from qregsim.expcli import _write_csv

    edges = [-0.0, 0.0, 1e-300, -1e-300, 5e-324, 2.2250738585072014e-308, 1.0, -3.0, 132.0,
             1e16, 2.0**53 + 2, 1e22, 0.1, 1 / 3, -2.5e-7, 1.7976931348623157e308]
    codes = run_codes(
        config_from_dict(
            {
                "experiment": "codes",
                "register": {"n": 4, "kind": "qubit"},
                "bath": {"model": "replica", "gamma_minus": 0.4, "gamma_plus": 0.1},
                "codes": {"kind": "null"},
            }
        )
    )
    basis = codes.provenance["code"]["basis_re_im"]  # (D, dim, 2)
    tables = {
        "edges": (["a", "b", "c", "d"], np.array(edges).reshape(4, 4)),
        "ints": (["n"], np.arange(-3, 4, dtype=float)[:, None]),
        "list": (["x", "y"], [[-0.0, 5e-324], [1, 2]]),
        "codes": (codes.columns, codes.values),
        "basis": (["re", "im"] * basis.shape[1], basis.reshape(basis.shape[0], -1)),
        "empty": (["t"], np.empty((0, 1))),
    }
    for name, (columns, values) in tables.items():
        _write_csv(tmp_path / f"{name}.csv", columns, values)
        repr_csv(tmp_path / f"{name}_repr.csv", columns, values)
        got = (tmp_path / f"{name}.csv").read_bytes()
        assert got == (tmp_path / f"{name}_repr.csv").read_bytes(), name
    assert b"-0.0,0.0,1e-300,-1e-300\r\n5e-324," in (tmp_path / "edges.csv").read_bytes()


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


# ---------------------------------------------------------------------------
# characterization: every rejection names its field, and the normalized
# config of every accepted example serializes to pinned bytes

_DELETE = "<delete>"


def _rejection_bases() -> dict:
    ring = simulate_config()
    ring["register"] = {"n": 4, "interaction": {"kind": "heisenberg_ring", "j": 0.5}}
    clustered = simulate_config()
    clustered["bath"] = {
        "model": "clustered",
        "gamma_minus": 0.1,
        "partition": [[0], [1]],
    }
    gauge = simulate_config()
    gauge["bath"] = {"model": "gauge_phased", "gamma_minus": 0.1, "phases": [0.0, 0.5]}
    tau = {
        "experiment": "tau_sweep",
        "register": {"n": 2},
        "bath": {"model": "exponential", "gamma_minus": 0.1},
        "initial_states": ["singlet"],
        "sweep": {"parameter": "bath.xi", "values": [0.5, 1.0]},
        "output": {"name": "tau", "formats": ["csv"]},
    }
    codes = {
        "experiment": "codes",
        "register": {"n": 4, "kind": "dephasing"},
        "bath": {"model": "replica", "gamma_minus": 0.4, "gamma_plus": 0.1},
        "codes": {"kind": "cluster", "cluster_size": 2},
        "output": {"name": "codes", "formats": ["csv"]},
    }
    return {
        "sim": simulate_config(),
        "ring": ring,
        "clustered": clustered,
        "gauge": gauge,
        "tau": tau,
        "codes": codes,
    }


def _mutated(base: str, changes: dict):
    import copy

    raw = copy.deepcopy(_rejection_bases()[base])
    for path, value in changes.items():
        if path == "":
            return value
        *parents, leaf = path.split(".")
        node = raw
        for key in parents:
            node = node[key]
        if value == _DELETE:
            del node[leaf]
        else:
            node[leaf] = value
    return raw


_SWEEP = {"parameter": "bath.xi", "values": [1.0]}

# (base config, {dotted path: new value or _DELETE}, expected ConfigError.field)
REJECTIONS = [
    # root
    ("sim", {"": ["not", "a", "mapping"]}, ""),
    ("sim", {"": None}, ""),
    ("sim", {"typo": {}}, "typo"),
    ("sim", {"experiment": _DELETE}, "experiment"),
    ("sim", {"experiment": "bogus"}, "experiment"),
    ("sim", {"experiment": 3}, "experiment"),
    # register
    ("sim", {"register": _DELETE}, "register"),
    ("sim", {"register": 3}, "register"),
    ("sim", {"register.bogus": 1}, "register.bogus"),
    ("sim", {"register.n": _DELETE}, "register.n"),
    ("sim", {"register.n": 2.0}, "register.n"),
    ("sim", {"register.n": True}, "register.n"),
    ("sim", {"register.n": 0}, "register.n"),
    ("sim", {"register.n": -3}, "register.n"),
    ("sim", {"register.d": 3}, "register.d"),
    ("sim", {"register.d": "2"}, "register.d"),
    ("sim", {"register.kind": "qutrit"}, "register.kind"),
    ("sim", {"register.kind": 1}, "register.kind"),
    ("sim", {"register.epsilon": "1"}, "register.epsilon"),
    ("sim", {"register.epsilon": True}, "register.epsilon"),
    ("sim", {"register.epsilon": -1.0}, "register.epsilon"),
    ("sim", {"register.kind": "dephasing", "register.epsilon": -1.0}, "register.epsilon"),
    ("sim", {"register.interaction": "ring"}, "register.interaction"),
    ("ring", {"register.interaction.bogus": 1}, "register.interaction.bogus"),
    ("ring", {"register.interaction.kind": "ising"}, "register.interaction.kind"),
    ("ring", {"register.n": 2}, "register.interaction.kind"),
    ("ring", {"register.interaction.j": "strong"}, "register.interaction.j"),
    # bath
    ("sim", {"bath": _DELETE}, "bath"),
    ("sim", {"bath": [1]}, "bath"),
    ("sim", {"bath.bogus": 1}, "bath.bogus"),
    ("sim", {"bath.model": _DELETE}, "bath.model"),
    ("sim", {"bath.model": "gaussian"}, "bath.model"),
    ("sim", {"bath.gamma_minus": _DELETE}, "bath.gamma_minus"),
    ("sim", {"bath.gamma_minus": "0.1"}, "bath.gamma_minus"),
    ("sim", {"bath.gamma_minus": -0.1}, "bath.gamma_minus"),
    ("sim", {"bath.gamma_plus": "0"}, "bath.gamma_plus"),
    ("sim", {"bath.gamma_plus": 0.2}, "bath.gamma_plus"),
    ("sim", {"bath.gamma_plus": -0.01}, "bath.gamma_plus"),
    ("sim", {"bath.delta_ratio": "x"}, "bath.delta_ratio"),
    ("sim", {"bath.xi": "long"}, "bath.xi"),
    ("sim", {"bath.xi": 0.0}, "bath.xi"),
    ("sim", {"bath.xi": -1.0}, "bath.xi"),
    ("clustered", {"bath.partition": _DELETE}, "bath.partition"),
    ("clustered", {"bath.partition": "01"}, "bath.partition"),
    ("clustered", {"bath.partition": [0, 1]}, "bath.partition"),
    ("clustered", {"bath.partition": [[0]]}, "bath.partition"),
    ("clustered", {"bath.partition": [[0, 1], [1]]}, "bath.partition"),
    ("clustered", {"bath.partition": [[0, 1, 2]]}, "bath.partition"),
    ("gauge", {"bath.phases": _DELETE}, "bath.phases"),
    ("gauge", {"bath.phases": 0.5}, "bath.phases"),
    ("gauge", {"bath.phases": [0.0]}, "bath.phases"),
    ("gauge", {"bath.phases": [0.0, "pi"]}, "bath.phases"),
    # initial states
    ("sim", {"initial_state": "singlet"}, "initial_state"),
    ("sim", {"initial_states": []}, "initial_states"),
    ("sim", {"initial_states": "singlet"}, "initial_states"),
    ("sim", {"initial_states": ["singlet", 3]}, "initial_states[1]"),
    ("sim", {"initial_states": [{"name": "singlet"}]}, "initial_states[0]"),
    ("sim", {"initial_states": [[1.0, "a"]]}, "initial_states[0]"),
    ("sim", {"initial_states": [[True, 0.0]]}, "initial_states[0]"),
    ("sim", {"initial_states": [[[1.0, 0.0, 0.0]]]}, "initial_states[0]"),
    ("sim", {"initial_states": _DELETE, "initial_state": 3}, "initial_states[0]"),
    # solver
    ("sim", {"solver": [1]}, "solver"),
    ("sim", {"solver.bogus": 1}, "solver.bogus"),
    ("sim", {"solver.dt": "0.01"}, "solver.dt"),
    ("sim", {"solver.dt": 0.0}, "solver.dt"),
    ("sim", {"solver.dt": -0.1}, "solver.dt"),
    ("sim", {"solver.dt": float("inf")}, "solver.dt"),
    ("sim", {"solver.dt": float("nan")}, "solver.dt"),
    ("sim", {"solver.dt": 1e-12}, "solver.t_end"),
    ("sim", {"solver.t_end": "10"}, "solver.t_end"),
    ("sim", {"solver.t_end": -1.0}, "solver.t_end"),
    ("sim", {"solver.t_end": float("inf")}, "solver.t_end"),
    ("sim", {"solver.t_end": float("nan")}, "solver.t_end"),
    ("sim", {"solver.t_end": 1e9}, "solver.t_end"),
    ("sim", {"solver.stride": 2.5}, "solver.stride"),
    ("sim", {"solver.stride": 0}, "solver.stride"),
    ("sim", {"solver.method": "euler"}, "solver.method"),
    # sweep
    ("sim", {"sweep": [1]}, "sweep"),
    ("sim", {"sweep": {}}, "sweep.parameter"),
    ("sim", {"sweep": {**_SWEEP, "bogus": 1}}, "sweep.bogus"),
    ("sim", {"sweep": {"values": [1.0]}}, "sweep.parameter"),
    ("sim", {"sweep": {**_SWEEP, "parameter": "register.n"}}, "sweep.parameter"),
    ("sim", {"sweep": {"parameter": "bath.xi"}}, "sweep.values"),
    ("sim", {"sweep": {**_SWEEP, "values": []}}, "sweep.values"),
    ("sim", {"sweep": {**_SWEEP, "values": 1.0}}, "sweep.values"),
    ("sim", {"sweep": {**_SWEEP, "values": [1.0, "x"]}}, "sweep.values"),
    ("sim", {"sweep": {**_SWEEP, "values": [1.0, -1.0]}}, "sweep.values"),
    ("sim", {"sweep": {"parameter": "bath.gamma_plus", "values": [0.2]}}, "sweep.values"),
    ("sim", {"sweep": {"parameter": "bath.gamma_minus", "values": [-1.0]}}, "sweep.values"),
    ("tau", {"sweep": {"parameter": "bath.gamma_minus", "values": [0.0, 0.1]}}, "sweep.values"),
    ("tau", {"sweep": _DELETE}, "sweep"),
    # codes
    ("codes", {"codes": [1]}, "codes"),
    ("codes", {"codes.bogus": 1}, "codes.bogus"),
    ("codes", {"codes.kind": "surface"}, "codes.kind"),
    ("codes", {"codes.cluster_size": _DELETE}, "codes.cluster_size"),
    ("codes", {"codes.cluster_size": 2.0}, "codes.cluster_size"),
    ("codes", {"codes.cluster_size": 3}, "codes.cluster_size"),
    ("codes", {"codes.cluster_size": 0}, "codes.cluster_size"),
    ("codes", {"codes.cluster_size": -2}, "codes.cluster_size"),
    ("codes", {"register.n": 6, "codes.cluster_size": 4}, "codes.cluster_size"),
    ("codes", {"codes.target_zspin": "0"}, "codes.target_zspin"),
    ("codes", {"codes.kind": "n4", "register.n": 2}, "codes.kind"),
    ("sim", {"codes": {"kind": "null"}}, "codes"),
    # output
    ("sim", {"output": "out"}, "output"),
    ("sim", {"output.bogus": 1}, "output.bogus"),
    ("sim", {"output.directory": ""}, "output.directory"),
    ("sim", {"output.directory": 3}, "output.directory"),
    ("sim", {"output.formats": "csv"}, "output.formats"),
    ("sim", {"output.formats": []}, "output.formats"),
    ("sim", {"output.formats": ["csv", "png"]}, "output.formats"),
    ("sim", {"output.name": ""}, "output.name"),
    ("sim", {"output.name": 7}, "output.name"),
    # a solver.method the register cannot take: D = 128 > SUPEROP_MAX_DIM,
    # sigma- is not normal, a ring is not diagonal in the sigma_z frame
    ("sim", {"register.n": 7, "solver.method": "exact"}, "solver.method"),
    ("sim", {"solver.method": "dephasing"}, "solver.method"),
    ("ring", {"register.kind": "dephasing", "solver.method": "dephasing"}, "solver.method"),
    # sized before any bath is built; non-finite values the library rejects
    ("sim", {"register.n": 1000}, "register.n"),
    ("codes", {"register.n": 1000}, "register.n"),
    ("tau", {"register.n": 1000}, "register.n"),
    ("codes", {"codes.target_zspin": float("nan")}, "codes.target_zspin"),
    ("codes", {"codes.target_zspin": float("inf")}, "codes.target_zspin"),
    ("ring", {"register.interaction.j": float("nan")}, "register.interaction.j"),
    ("ring", {"register.interaction.j": float("inf")}, "register.interaction.j"),
    # built once at load, so a state the register cannot have is refused there
    ("sim", {"register.n": 3, "initial_states": ["bogus"]}, "initial_states"),
    ("sim", {"register.n": 3, "initial_states": ["su2:a,0"]}, "initial_states"),
    ("sim", {"register.n": 3, "initial_states": ["triplet"]}, "initial_states"),
    ("sim", {"register.n": 3, "initial_states": ["codeword0"]}, "initial_states"),
    ("sim", {"initial_states": [[0, 0, 0, 0]]}, "initial_states"),
    ("tau", {"initial_states": ["singlet", "bogus"]}, "initial_states"),
    # a codes run reads no sweep, so one is refused rather than ignored
    ("codes", {"sweep": {"parameter": "bath.xi", "values": [1.0, 100.0]}}, "sweep"),
]

_SUBCOMMAND = {"tau": "tau-sweep", "codes": "codes"}


@pytest.mark.parametrize(
    "base, changes, field",
    REJECTIONS,
    ids=[f"{r[2] or 'root'}-{i}" for i, r in enumerate(REJECTIONS)],
)
def test_config_rejection_names_field(tmp_path, capsys, base, changes, field):
    raw = _mutated(base, changes)
    with pytest.raises(ConfigError) as info:
        config_from_dict(raw)
    assert info.value.field == field
    cfg_path = _write_yaml(tmp_path / "case.yaml", raw)
    assert main([_SUBCOMMAND.get(base, "simulate"), "--config", cfg_path]) == 2
    assert capsys.readouterr().err.startswith(f"config error: {field}")


REJECT_CONFIGS = sorted((Path(__file__).parent / "configs" / "reject").glob("*.yaml"))


@pytest.mark.parametrize("path", REJECT_CONFIGS, ids=[p.stem for p in REJECT_CONFIGS])
def test_ci_reject_configs_exit_2(path, tmp_path, capsys):
    # the configs the CI's "CLI under python -O" step expects exit 2 from,
    # each under the subcommand its experiment names
    command = yaml.safe_load(path.read_text())["experiment"].replace("_", "-")
    assert main([command, "--config", str(path), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "Traceback" not in err


def test_config_rejections_survive_optimize_flag():
    # The rejections are raises, not asserts: python -O must keep every one.
    import os
    import subprocess
    import sys
    from pathlib import Path

    import qregsim

    script = (
        "import json, test_expcli as t\n"
        "from qregsim.errors import ConfigError\n"
        "fields = []\n"
        "for base, changes, _ in t.REJECTIONS:\n"
        "    try:\n"
        "        t.config_from_dict(t._mutated(base, changes))\n"
        "        fields.append(None)\n"
        "    except ConfigError as exc:\n"
        "        fields.append(exc.field)\n"
        "print(json.dumps(fields))\n"
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
    assert json.loads(proc.stdout) == [field for _, _, field in REJECTIONS]


def _workload_configs() -> dict:
    import importlib.util
    from pathlib import Path

    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    configs = {}
    for name in workloads.NAMES:
        for seed in (workloads.NOMINAL_SEED, 1):
            for k, entry in enumerate(workloads.entries(name, seed)):
                if "raw" in entry:
                    configs[f"{name}:{seed}:{k}"] = entry["raw"]
    return configs


# Configs that leave most fields to their defaults.
SPARSE_CONFIGS = {
    "simulate": {
        "experiment": "simulate",
        "register": {"n": 2},
        "bath": {"model": "cell_limit", "gamma_minus": 1},
    },
    "single_state": {
        "experiment": "simulate",
        "register": {"n": 3, "epsilon": 2, "interaction": {"kind": "heisenberg_ring"}},
        "bath": {"model": "replica", "gamma_minus": 0.3, "gamma_plus": 0.1, "xi": 4},
        "initial_state": "all_up",
        "solver": {"method": "exact"},
        "output": {"formats": ["json"]},
    },
    "amplitudes": {
        "experiment": "simulate",
        "register": {"n": 1, "kind": "dephasing"},
        "bath": {"model": "gauge_phased", "gamma_minus": 0.2, "phases": [1]},
        "initial_states": [[1, [0, 1]], "all_down"],
        "sweep": {"parameter": "bath.delta_ratio", "values": [0, 0.5]},
    },
    "tau_sweep": {
        "experiment": "tau_sweep",
        "register": {"n": 4},
        "bath": {"model": "clustered", "gamma_minus": 0.1, "partition": [[0, 1], [2, 3]]},
        "sweep": {"parameter": "bath.gamma_minus", "values": [0.1, 1]},
    },
    "codes": {
        "experiment": "codes",
        "register": {"n": 4},
        "bath": {"model": "exponential", "gamma_minus": 0.1},
        "codes": None,
    },
    "cluster_code": {
        "experiment": "codes",
        "register": {"n": 4, "kind": "dephasing"},
        "bath": {"model": "replica", "gamma_minus": 0.1},
        "codes": {"kind": "cluster", "cluster_size": 2, "target_zspin": 1},
        "sweep": None,
    },
}

# sha256 of serialize_config for each accepted example.
SERIALIZED_SHA256 = {
    "preset:fig1": (
        "c8e78a548e26b1bb73b4104b27273250d5694f8479f599c0cf373e4f031c7d20"
    ),
    "preset:fig2": (
        "23b24e36c097dcdce56fb26d11a6213bc5fb19d41ef1c0bba11308696c9e6c4b"
    ),
    "preset:fig3": (
        "2a4306586e037de03de7ef6c749386fab40746afdbe570959fd40f62ffba0fc8"
    ),
    "preset:fig4": (
        "3dd93d0a94cf22041871b695e21e90a004756f1db43a05ed2ac1e567f07bdc0e"
    ),
    "preset:fig5": (
        "59809f541323c8b18220577d166fab87917b3e93fcb193e93522257f6b93df57"
    ),
    "large_rk4:0:0": (
        "812130eba0f3b828d7b43523f231ab5f4d17bcd1cc53ee254057c95a50817674"
    ),
    "large_rk4:1:0": (
        "ea04828a3675063932c16c1be5ef8dfca83af7f38a96e1682daf89793990776c"
    ),
    "exact_sweep:0:0": (
        "8959a4cac6e6a22034740ca3506b047a6ebdc1b4743dac78aa8673b1470d4443"
    ),
    "exact_sweep:1:0": (
        "f2764682912b8539079343867ec0dd5899f39fadc1805fd59b2cec6627461c26"
    ),
    "spectral:0:0": (
        "201036091bca5f462cc2cd451b6adcc363c838a204d665bff9cc1f5ae7a2a373"
    ),
    "spectral:0:1": (
        "15b12b89b42b208bb3f4af8389ad4678370bdbf5663070f864ae787d3ce081c3"
    ),
    "spectral:0:2": (
        "4da60fd64c8b6aee40ba77bc48dd567365fdd9584c6636902169563838dde384"
    ),
    "spectral:1:0": (
        "b89f679df9b0ddc1e08f33e94523c1d09f13d5fee14382e461ea29b730f2e340"
    ),
    "spectral:1:1": (
        "15b12b89b42b208bb3f4af8389ad4678370bdbf5663070f864ae787d3ce081c3"
    ),
    "spectral:1:2": (
        "4da60fd64c8b6aee40ba77bc48dd567365fdd9584c6636902169563838dde384"
    ),
    "sparse:simulate": (
        "5f9ca4dfdbdd1e6d9ce2e6afc6d22f38e867f8f0bc21ae371f7fa200ea9bb465"
    ),
    "sparse:single_state": (
        "6149a50fb1026ff7e4a2087cad5ba99bde09bb067b6657f7cc5d5f4af61c38e8"
    ),
    "sparse:amplitudes": (
        "f3ca06e596e559bb9a412443ccf4ccc589cb7e297a995c60febf2385bdad59a5"
    ),
    "sparse:tau_sweep": (
        "7d069af30b0b4bd504e9ad30a60d72f5cae4571ae47c9abc054699c6254bfeed"
    ),
    "sparse:codes": (
        "dd3d3f69d7e661d44192f94f512d140cd93d090d5956b41c3db75540a8822823"
    ),
    "sparse:cluster_code": (
        "d39417e19d2bd9a4e2badb31c64fa70efb45417eb448e1dd32cd5df117ce17cb"
    ),
}


def _accepted_examples() -> dict:
    examples = {f"preset:{name}": None for name in PRESETS}
    examples.update(_workload_configs())
    examples.update({f"sparse:{k}": v for k, v in SPARSE_CONFIGS.items()})
    return examples


def test_normalized_config_serialization_is_pinned():
    got = {}
    for key, raw in _accepted_examples().items():
        cfg = load_preset(key.split(":")[1]) if raw is None else config_from_dict(raw)
        got[key] = config_hash(cfg)
    assert got == SERIALIZED_SHA256


@pytest.mark.skipif(not yaml.__with_libyaml__, reason="libyaml is absent")
def test_libyaml_serialization_is_the_pure_python_text():
    assert CONFIG_DUMPER is yaml.CSafeDumper
    for key, raw in _accepted_examples().items():
        cfg = load_preset(key.split(":")[1]) if raw is None else config_from_dict(raw)
        want = yaml.safe_dump(cfg.to_dict(), sort_keys=True, default_flow_style=False)
        assert serialize_config(cfg) == want, key


# ---------------------------------------------------------------------------
# rules the table and the library add at config time


@pytest.mark.parametrize(
    "register",
    [{"n": 40}, {"n": 22, "interaction": {"kind": "heisenberg_ring"}}],
    ids=["n40", "ring22"],
)
def test_oversized_register_is_config_error(tmp_path, capsys, register):
    import tracemalloc

    raw = simulate_config(register=register, initial_states=["all_up"])
    tracemalloc.start()
    try:
        with pytest.raises(ConfigError) as info:
            config_from_dict(raw)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert info.value.field == "register.n"
    assert "GiB" in str(info.value)
    assert peak < 2**20
    cfg_path = _write_yaml(tmp_path / "big.yaml", raw)
    assert main(["simulate", "--config", cfg_path]) == 2
    assert capsys.readouterr().err.startswith("config error: register.n")


@pytest.mark.parametrize("n", [1000, 100000])
@pytest.mark.parametrize("base", ["sim", "codes", "tau"])
def test_register_too_large_for_any_bath_is_refused_before_the_bath(tmp_path, capsys, base, n):
    # The register is sized with no bath first: an N x N bath matrix at
    # N = 10^5 would take 160 GB, and the float of the estimate overflows.
    import tracemalloc

    raw = _mutated(base, {"register.n": n})
    tracemalloc.start()
    try:
        with pytest.raises(ConfigError) as info:
            config_from_dict(raw)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert info.value.field == "register.n"
    assert "GiB" in str(info.value)
    assert peak < 2**20
    cfg_path = _write_yaml(tmp_path / "big.yaml", raw)
    assert main([_SUBCOMMAND.get(base, "simulate"), "--config", cfg_path]) == 2
    assert capsys.readouterr().err.startswith("config error: register.n")


@pytest.mark.parametrize(
    "register, method",
    [
        ({"n": 40}, "exact"),
        ({"n": 40, "kind": "dephasing", "interaction": {"kind": "heisenberg_ring"}}, "dephasing"),
    ],
    ids=["exact", "dephasing_ring"],
)
def test_size_guard_precedes_the_method_rule(register, method):
    import tracemalloc

    raw = simulate_config(register=register, initial_states=["all_up"])
    raw["solver"]["method"] = method
    tracemalloc.start()
    try:
        with pytest.raises(ConfigError) as info:
            config_from_dict(raw)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert info.value.field == "register.n"
    assert peak < 2**20


def test_dephasing_rule_tests_the_cell_operator_before_the_register():
    # sigma- is not normal, so the 2 x 2 cell operator rejects the config
    # before the ring and its O(D^3) SU(2) check are built (D = 1024).
    import tracemalloc

    raw = simulate_config(
        register={"n": 10, "kind": "qubit", "interaction": {"kind": "heisenberg_ring"}},
        initial_states=["all_up"],
    )
    raw["solver"]["method"] = "dephasing"
    tracemalloc.start()
    try:
        with pytest.raises(ConfigError) as info:
            config_from_dict(raw)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert info.value.field == "solver.method"
    assert "normal" in str(info.value)
    assert peak < 2**20


def test_the_dephasing_load_check_reads_h_from_the_cells():
    # sigma_z cells with no interaction: H is the cells' diagonal H^C
    # summed, so the N = 10 load check places no D x D array (three at
    # 16 MiB each when H was built and tested).
    import tracemalloc

    raw = simulate_config(
        register={"n": 10, "kind": "dephasing"},
        initial_states=["singlet", "symmetric"],
    )
    raw["bath"]["delta_ratio"] = 0.5
    raw["solver"]["method"] = "dephasing"
    tracemalloc.start()
    try:
        cfg = config_from_dict(raw)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert cfg.solver["method"] == "dephasing"
    assert peak < 2**20


def test_oversized_codes_register_is_config_error(tmp_path, capsys):
    raw = {
        "experiment": "codes",
        "register": {"n": 14},
        "bath": {"model": "replica", "gamma_minus": 0.4, "gamma_plus": 0.1},
        "output": {"directory": str(tmp_path), "formats": ["csv"]},
    }
    cfg_path = _write_yaml(tmp_path / "big_codes.yaml", raw)
    assert main(["codes", "--config", cfg_path]) == 2
    assert capsys.readouterr().err.startswith("config error: register.n")


def test_tau_sweep_is_not_held_to_the_generator_limit(tmp_path):
    # tau_sweep builds no generator, so a register far past the limit runs.
    raw = {
        "experiment": "tau_sweep",
        "register": {"n": 16},
        "bath": {"model": "exponential", "gamma_minus": 0.1},
        "initial_states": ["singlet"],
        "sweep": {"parameter": "bath.xi", "values": [1.0]},
        "output": {"directory": str(tmp_path), "name": "big_tau", "formats": ["csv"]},
    }
    cfg_path = _write_yaml(tmp_path / "big_tau.yaml", raw)
    assert main(["tau-sweep", "--config", cfg_path]) == 0
    rate = float((tmp_path / "big_tau.csv").read_text().splitlines()[1].split(",")[1])
    assert rate > 0


@pytest.mark.parametrize(
    "bath",
    [
        {"model": "cell_limit", "gamma_minus": 0.1},
        {"model": "replica", "gamma_minus": 0.1},
        {"model": "clustered", "gamma_minus": 0.1, "partition": [[0, 1]]},
        {"model": "gauge_phased", "gamma_minus": 0.1, "phases": [0.0, 1.0]},
    ],
    ids=lambda b: b["model"],
)
def test_sweep_of_a_field_the_model_ignores_is_rejected(tmp_path, capsys, bath):
    raw = simulate_config(bath=bath, sweep={"parameter": "bath.xi", "values": [1.0, 100.0]})
    with pytest.raises(ConfigError) as info:
        config_from_dict(raw)
    assert info.value.field == "sweep.parameter"
    cfg_path = _write_yaml(tmp_path / "case.yaml", raw)
    assert main(["simulate", "--config", cfg_path]) == 2
    assert capsys.readouterr().err.startswith("config error: sweep.parameter")
    raw["sweep"]["parameter"] = "bath.gamma_minus"
    assert config_from_dict(raw).sweep["parameter"] == "bath.gamma_minus"


def test_cli_runs_amplitude_states(tmp_path):
    raw = simulate_config(initial_states=[[1, [0, 1], 0, 0], "singlet"])
    raw["output"] = {"directory": str(tmp_path), "name": "amps", "formats": ["csv", "json"]}
    cfg_path = _write_yaml(tmp_path / "amps.yaml", raw)
    assert main(["simulate", "--config", cfg_path, "--t-end", "0.1"]) == 0
    sidecar = json.loads((tmp_path / "amps.json").read_text())
    assert sidecar["columns"][1:4] == ["F_state0", "delta_state0", "E_state0"]
    cfg = config_from_dict(sidecar["provenance"]["config"])
    assert cfg.initial_states[0] == ((1.0, 0.0), (0.0, 1.0), (0.0, 0.0), (0.0, 0.0))
    assert config_from_dict(cfg.to_dict()) == cfg


@pytest.mark.parametrize("amps", [[0, 0, 0, 0], [float("nan"), 0, 0, 1]], ids=["zero", "nan"])
def test_cli_refuses_an_amplitude_list_normalize_refuses(tmp_path, capsys, amps):
    raw = simulate_config(initial_states=[amps])
    cfg_path = _write_yaml(tmp_path / "amps.yaml", raw)
    assert main(["simulate", "--config", cfg_path, "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("config error: initial_states")


def test_cli_overrides_apply_before_validation(tmp_path):
    raw = simulate_config()
    raw["solver"]["dt"] = -1.0
    raw["output"] = {"directory": str(tmp_path), "name": "case", "formats": ["json"]}
    cfg_path = _write_yaml(tmp_path / "case.yaml", raw)
    assert main(["simulate", "--config", cfg_path, "--t-end", "0.1"]) == 2
    assert main(["simulate", "--config", cfg_path, "--dt", "0.05", "--t-end", "0.1"]) == 0
    sidecar = json.loads((tmp_path / "case.json").read_text())
    assert sidecar["provenance"]["config"]["solver"]["dt"] == 0.05


def test_readme_field_table_matches_fields():
    import re
    from pathlib import Path

    from qregsim.expcli import FIELDS

    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    row = r"^\| `([a-z_.]+)` \| (?:mapping|integer|number|string|list of)"
    listed = re.findall(row, readme, re.M)
    assert listed == [f.path for f in FIELDS]


def test_codes_basis_is_one_array_written_as_before(tmp_path):
    # The provenance keeps the basis as a (D, dim, 2) float array; the
    # basis CSV holds each row's (re, im) pairs as repr of Python floats,
    # the bytes the nested-list form wrote.
    from qregsim.expcli import emit_outputs

    raw = {
        "experiment": "codes",
        "register": {"n": 6, "kind": "qubit"},
        "bath": {"model": "replica", "gamma_minus": 0.4, "gamma_plus": 0.1},
        "codes": {"kind": "null"},
        "output": {"name": "codes", "formats": ["csv"]},
    }
    cfg = config_from_dict(raw)
    table = run_codes(cfg)
    stored = table.provenance["code"]["basis_re_im"]
    assert isinstance(stored, np.ndarray) and stored.dtype == float
    assert stored.shape == (64, 5, 2)
    emit_outputs(table, cfg, out_dir=str(tmp_path))
    header = ",".join(f"col{j}_{part}" for j in range(5) for part in ("re", "im"))
    rows = [",".join(repr(float(x)) for pair in row for x in pair) for row in stored]
    want = "\r\n".join([header] + rows) + "\r\n"
    assert (tmp_path / "codes_basis.csv").read_bytes() == want.encode()


def _all_four_outputs(n: int):
    """A codes run at n cells whose emit writes all four files."""
    raw = {
        "experiment": "codes",
        "register": {"n": n, "kind": "qubit"},
        "bath": {"model": "replica", "gamma_minus": 0.4, "gamma_plus": 0.1},
        "codes": {"kind": "null"},
        "output": {"name": "codes", "formats": ["csv", "json", "gnuplot"]},
    }
    cfg = config_from_dict(raw)
    return run_codes(cfg), cfg


def _emitted(table, cfg, directory) -> dict:
    return {p.name: p.read_bytes() for p in emit_outputs(table, cfg, out_dir=str(directory))}


def test_emit_rewrites_stale_outputs_to_the_fresh_bytes(tmp_path):
    # Outputs are rewritten in place: stale content longer than the new
    # output, or an earlier, longer emit, leaves no tail behind.
    big, small = _all_four_outputs(4), _all_four_outputs(2)
    fresh_big = _emitted(*big, tmp_path / "fresh_big")
    fresh_small = _emitted(*small, tmp_path / "fresh_small")
    assert sorted(fresh_big) == ["codes.csv", "codes.gp", "codes.json", "codes_basis.csv"]
    stale = tmp_path / "stale"
    stale.mkdir()
    for name, data in fresh_big.items():
        (stale / name).write_bytes(b"junk\n" * (len(data) // 2))
    assert _emitted(*big, stale) == fresh_big
    shorter = {name for name, data in fresh_big.items() if len(fresh_small[name]) < len(data)}
    assert shorter == {"codes.csv", "codes_basis.csv"}
    assert _emitted(*small, stale) == fresh_small


def test_emit_writes_through_links_and_keeps_the_mode(tmp_path):
    table, cfg = _all_four_outputs(2)
    fresh = _emitted(table, cfg, tmp_path / "fresh")
    out = tmp_path / "out"
    out.mkdir()
    target = tmp_path / "target.csv"
    target.write_text("stale\n" * 1000)
    target.chmod(0o640)
    os.link(target, tmp_path / "hardlink.csv")
    (out / "codes.csv").symlink_to(target)
    (out / "codes.gp").symlink_to(os.devnull)  # a file that cannot be cut
    inode = target.stat().st_ino
    emit_outputs(table, cfg, out_dir=str(out))
    assert (out / "codes.csv").is_symlink() and (out / "codes.gp").is_symlink()
    assert target.read_bytes() == (tmp_path / "hardlink.csv").read_bytes() == fresh["codes.csv"]
    assert target.stat().st_ino == inode
    assert target.stat().st_mode & 0o777 == 0o640


def test_emit_into_a_directory_at_an_output_path_is_io_error(tmp_path):
    table, cfg = _all_four_outputs(2)
    (tmp_path / "codes.csv").mkdir()
    with pytest.raises(IoError, match="cannot write outputs"):
        emit_outputs(table, cfg, out_dir=str(tmp_path))


def test_emit_never_truncates_an_output_to_zero(tmp_path, monkeypatch):
    # No output is opened with O_TRUNC: on ext4 closing a file truncated
    # to zero forces a flush of its data, which cost more than the run.
    table, cfg = _all_four_outputs(2)
    flags = []
    real_open = os.open

    def spy(path, flag, *args, **kwargs):
        flags.append(flag)
        return real_open(path, flag, *args, **kwargs)

    monkeypatch.setattr(os, "open", spy)
    for _ in range(2):  # a fresh directory, then a rerun over its files
        emit_outputs(table, cfg, out_dir=str(tmp_path))
    assert len(flags) == 8
    assert not any(flag & os.O_TRUNC for flag in flags)


@pytest.mark.parametrize("experiment", ["tau_sweep", "codes"])
def test_runners_rate_all_states_in_one_call(tmp_path, monkeypatch, experiment):
    # codes rates its basis columns in one call, as the columns of one
    # (D, S) stack.  tau_sweep rates its states in one call per point,
    # which builds their cell covariance once per run for each sector with
    # terms, in one digit-move pass over all of them, and contracts it
    # with every point's G; without gamma_plus the plus sector is never
    # built.
    from qregsim import expcli, observables
    from qregsim.expcli import build_bath, build_register
    from qregsim.liouvillian import canonical_form
    from test_structured import operator_rate

    calls = []
    rate = expcli.pure_decoherence_rate
    monkeypatch.setattr(
        expcli,
        "pure_decoherence_rate",
        lambda lset, psi, *known: calls.append(psi.shape) or rate(lset, psi, *known),
    )
    if experiment == "tau_sweep":
        passes = []
        actions = observables._cell_actions
        monkeypatch.setattr(
            observables,
            "_cell_actions",
            lambda model, sector, psi: passes.append((sector, psi.shape)) or actions(model, sector, psi),
        )
        states = ["singlet", "symmetric", "uniform"]
        for gamma_plus, sectors in [(0.02, [-1, 1]), (0.0, [-1])]:
            passes.clear()
            calls.clear()
            raw = _tau_sweep_config(tmp_path, {"n": 6}, states)
            raw["bath"]["gamma_plus"] = gamma_plus
            raw["sweep"]["values"] = [0.5, 1.0, 2.0]
            cfg = config_from_dict(raw)
            table = run_tau_sweep(cfg)
            assert passes == [(sector, (64, 3)) for sector in sectors]
            assert calls == [(64, 3)] * 3 and table.values.shape == (3, 4)
            model = build_register(cfg)
            psis = [build_state(name, model) for name in states]
            for row in table.values:
                lset = canonical_form(model, build_bath(cfg, {"xi": row[0]}))
                want = [operator_rate(lset, psi) for psi in psis]
                assert np.allclose(row[1:], want, rtol=1e-12, atol=0)
    else:
        raw = {
            "experiment": "codes",
            "register": {"n": 6, "kind": "qubit"},
            "bath": {"model": "replica", "gamma_minus": 0.4, "gamma_plus": 0.1},
            "codes": {"kind": "null"},
            "output": {"name": "codes"},
        }
        table = run_codes(config_from_dict(raw))
        assert calls == [(64, 5)]
        assert np.all(table.values[:, 1] <= 1e-12)


def _tau_sweep_config(tmp_path, register: dict, states: list) -> dict:
    return {
        "experiment": "tau_sweep",
        "register": register,
        "bath": {"model": "exponential", "gamma_minus": 0.1, "gamma_plus": 0.02},
        "initial_states": states,
        "sweep": {"parameter": "bath.xi", "values": [1.0, 2.0]},
        "output": {"directory": str(tmp_path), "name": "tau", "formats": ["csv"]},
    }


@pytest.mark.parametrize(
    "register, states",
    [({"n": 30}, ["singlet"]), ({"n": 24}, ["uniform", "symmetric"]),
     ({"n": 12, "interaction": {"kind": "heisenberg_ring"}}, ["singlet"]),
     ({"n": 16}, ["su2:0,0"])],
    ids=["n30", "n24", "ring12", "su2_16"],
)
def test_oversized_tau_sweep_is_config_error(tmp_path, capsys, register, states):
    import tracemalloc

    raw = _tau_sweep_config(tmp_path, register, states)
    tracemalloc.start()
    try:
        with pytest.raises(ConfigError) as info:
            config_from_dict(raw)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert info.value.field == "register.n"
    assert "decoherence rates" in str(info.value) and "GiB" in str(info.value)
    assert peak < 2**20
    cfg_path = _write_yaml(tmp_path / "big_tau.yaml", raw)
    assert main(["tau-sweep", "--config", cfg_path]) == 2
    assert capsys.readouterr().err.startswith("config error: register.n")


def test_su2_tau_sweep_at_n12_loads_and_runs(tmp_path):
    # su2 states are built on their S^z sector (setup_bytes: 41 MB at N = 12),
    # not from D x D Casimir products, so N = 12 fits the size rule.
    cfg = config_from_dict(_tau_sweep_config(tmp_path, {"n": 12}, ["su2:0,0"]))
    table = run_tau_sweep(cfg)
    assert table.values.shape[0] == 2 and np.all(np.isfinite(table.values))


@pytest.mark.parametrize(
    "register, states",
    [({"n": 10}, ["singlet", "symmetric"]), ({"n": 12}, ["uniform"]),
     ({"n": 8, "interaction": {"kind": "heisenberg_ring"}}, ["singlet"]),
     ({"n": 8}, ["su2:1,0", "all_up"]), ({"n": 8}, ["symmetric", "all_up"]),
     ({"n": 4}, ["singlet", "symmetric"]), ({"n": 5}, ["symmetric"])],
    ids=["n10", "n12", "ring8", "su2_8", "symmetric_8", "n4", "n5"],
)
def test_rates_bytes_covers_the_tau_sweep_peak(tmp_path, register, states):
    # N = 4 and 5 take the per-operator route below the crossover
    import tracemalloc

    from qregsim.expcli import build_bath, _cells
    from qregsim.liouvillian import rates_bytes
    from qregsim.register import _digit_table, excitation_sectors

    raw = _tau_sweep_config(tmp_path, register, states)
    cfg = config_from_dict(raw)
    need = rates_bytes(
        _cells(cfg.register), build_bath(cfg), cfg.initial_states, ring="interaction" in register
    )
    # as the first run in a process: the state builders' cached basis tables
    # are built inside the traced run; the states are built at load, so the
    # load is traced with the runner
    _digit_table.cache_clear()
    excitation_sectors.cache_clear()
    tracemalloc.start()
    try:
        run_tau_sweep(config_from_dict(raw))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= need <= 2 * peak


@pytest.mark.parametrize(
    "name, lines",
    [
        ("fig4", ["set ylabel 'F_singlet - F_symmetric'",
                  "plot 'fig4.csv' using 1:($14-$17) with lines title 'xi=100', \\",
                  "     'fig4.csv' using 1:($8-$11) with lines title 'xi=10', \\",
                  "     'fig4.csv' using 1:($2-$5) with lines title 'xi=1'"]),
        ("fig5", ["set ylabel 'delta_symmetric - delta_singlet'",
                  "plot 'fig5.csv' using 1:($18-$15) with lines title 'xi=100', \\",
                  "     'fig5.csv' using 1:($12-$9) with lines title 'xi=10', \\",
                  "     'fig5.csv' using 1:($6-$3) with lines title 'xi=1'"]),
    ],
)
def test_cli_fig_pair_plots_one_difference_per_xi(tmp_path, name, lines):
    # fig4 and fig5 draw the difference of their two states per sweep
    # value, the largest xi first; two steps give the preset's columns.
    assert main(["simulate", "--preset", name, "--t-end", "0.02", "--out", str(tmp_path)]) == 0
    script = (tmp_path / f"{name}.gp").read_text().splitlines()
    assert script[-5:] == ["set xlabel 't'"] + lines


def test_cli_fig_named_sweep_without_the_pair_plots_per_state(tmp_path, capsys):
    raw = {
        "experiment": "simulate",
        "register": {"n": 2},
        "bath": {"model": "exponential", "gamma_minus": 0.1},
        "initial_states": ["all_up", "all_down"],
        "solver": {"dt": 0.05, "t_end": 0.2, "stride": 2},
        "sweep": {"parameter": "bath.xi", "values": [0.5, 2.0]},
        "output": {"directory": str(tmp_path), "name": "fig4"},
    }
    cfg_path = _write_yaml(tmp_path / "fig4.yaml", raw)
    assert main(["simulate", "--config", cfg_path]) == 0
    script = (tmp_path / "fig4.gp").read_text()
    assert "set ylabel 'F'" in script
    assert "title 'all_up_xi0.5'" in script and "title 'all_down_xi2'" in script
    assert {p.name for p in tmp_path.iterdir()} >= {"fig4.csv", "fig4.json", "fig4.gp"}
