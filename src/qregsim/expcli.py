"""Command-line front end: experiment configs, figure pipelines, sweep
orchestration, CSV / JSON / plot-script emission.

Config files are YAML with sections ``register``, ``bath``,
``initial_states``, ``solver``, optional ``sweep`` and ``codes``, and
``output``.  Named presets (fig1..fig5) ship inside the package.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import sys
import time
from dataclasses import dataclass, replace
from importlib import resources
from pathlib import Path

import numpy as np
import yaml

from . import __version__
from .bath import (
    BathSpec,
    cell_limit,
    clustered,
    exponential_decay,
    gauge_phased,
    replica_symmetric,
)
from .codes import dephasing_cluster_code, is_noiseless, n4_code, null_code
from .dynamics import evolve, step_count
from .errors import ConfigError, DimensionMismatch, IoError, QregError
from .liouvillian import build_liouvillian, canonical_form
from .observables import (
    fidelity,
    linear_entropy,
    pure_decoherence_rate,
    register_energy,
)
from .register import (
    RegisterModel,
    basis_state,
    dephasing_register,
    dicke_state,
    heisenberg_ring,
    normalize,
    pair_singlet_state,
    qubit_register,
    su2_basis_state,
)

PRESETS = ("fig1", "fig2", "fig3", "fig4", "fig5")

EXPERIMENTS = ("simulate", "tau_sweep", "codes")
BATH_MODELS = ("cell_limit", "replica", "exponential", "clustered", "gauge_phased")
REGISTER_KINDS = ("qubit", "dephasing")
INTERACTION_KINDS = ("none", "heisenberg_ring")
SOLVER_METHODS = ("rk4", "exact", "dephasing")
OUTPUT_FORMATS = ("csv", "json", "gnuplot")
SWEEPABLE = (
    "bath.xi",
    "bath.gamma_minus",
    "bath.gamma_plus",
    "bath.delta_ratio",
)
CODE_KINDS = ("null", "cluster", "n4")


# --------------------------------------------------------------------------
# Config parsing and validation
# --------------------------------------------------------------------------


def _need(raw: dict, key: str, where: str):
    if key not in raw or raw[key] is None:
        raise ConfigError(f"{where}.{key}" if where else key, "missing required field")
    return raw[key]


def _as_float(value, field: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(field, f"expected a number, got {value!r}")
    return float(value)


def _as_int(value, field: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(field, f"expected an integer, got {value!r}")
    return int(value)


def _as_choice(value, choices, field: str) -> str:
    if not isinstance(value, str) or value not in choices:
        raise ConfigError(field, f"expected one of {list(choices)}, got {value!r}")
    return value


def _reject_unknown(raw: dict, allowed, where: str) -> None:
    for key in raw:
        if key not in allowed:
            raise ConfigError(
                f"{where}.{key}" if where else str(key), "unknown field"
            )


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated, normalized experiment description."""

    experiment: str
    register: dict
    bath: dict
    initial_states: tuple
    solver: dict
    sweep: dict | None
    codes: dict | None
    output: dict

    def to_dict(self) -> dict:
        return {
            "experiment": self.experiment,
            "register": dict(self.register),
            "bath": dict(self.bath),
            "initial_states": [
                list(s) if isinstance(s, (list, tuple)) else s
                for s in self.initial_states
            ],
            "solver": dict(self.solver),
            "sweep": dict(self.sweep) if self.sweep is not None else None,
            "codes": dict(self.codes) if self.codes is not None else None,
            "output": {
                **self.output,
                "formats": list(self.output["formats"]),
            },
        }


def config_from_dict(raw: dict) -> ExperimentConfig:
    """Validate a raw mapping into an ExperimentConfig.

    Raises ConfigError carrying the dotted field path of the first
    offending entry.
    """
    if not isinstance(raw, dict):
        raise ConfigError("", "config root must be a mapping")
    _reject_unknown(
        raw,
        {
            "experiment",
            "register",
            "bath",
            "initial_states",
            "initial_state",
            "solver",
            "sweep",
            "codes",
            "output",
        },
        "",
    )
    experiment = _as_choice(
        _need(raw, "experiment", ""), EXPERIMENTS, "experiment"
    )

    # register ------------------------------------------------------------
    reg_raw = _need(raw, "register", "")
    if not isinstance(reg_raw, dict):
        raise ConfigError("register", "must be a mapping")
    _reject_unknown(
        reg_raw, {"n", "d", "kind", "epsilon", "interaction"}, "register"
    )
    n = _as_int(_need(reg_raw, "n", "register"), "register.n")
    if n < 1:
        raise ConfigError("register.n", "need at least one cell")
    d = _as_int(reg_raw.get("d", 2), "register.d")
    if d != 2:
        raise ConfigError("register.d", "the CLI supports two-level cells only")
    kind = _as_choice(reg_raw.get("kind", "qubit"), REGISTER_KINDS, "register.kind")
    epsilon = _as_float(reg_raw.get("epsilon", 1.0), "register.epsilon")
    if epsilon < 0:
        raise ConfigError("register.epsilon", "cell splitting must be nonnegative")
    inter_raw = reg_raw.get("interaction") or {"kind": "none"}
    if not isinstance(inter_raw, dict):
        raise ConfigError("register.interaction", "must be a mapping")
    _reject_unknown(inter_raw, {"kind", "j"}, "register.interaction")
    inter_kind = _as_choice(
        inter_raw.get("kind", "none"), INTERACTION_KINDS, "register.interaction.kind"
    )
    interaction = {"kind": inter_kind}
    if inter_kind == "heisenberg_ring":
        if n < 3:
            raise ConfigError(
                "register.interaction.kind",
                "a ring coupling needs at least three cells",
            )
        interaction["j"] = _as_float(
            inter_raw.get("j", 1.0), "register.interaction.j"
        )
    register = {
        "n": n,
        "d": d,
        "kind": kind,
        "epsilon": epsilon,
        "interaction": interaction,
    }

    # bath ------------------------------------------------------------------
    bath_raw = _need(raw, "bath", "")
    if not isinstance(bath_raw, dict):
        raise ConfigError("bath", "must be a mapping")
    _reject_unknown(
        bath_raw,
        {"model", "gamma_minus", "gamma_plus", "xi", "partition", "phases", "delta_ratio"},
        "bath",
    )
    model_id = _as_choice(_need(bath_raw, "model", "bath"), BATH_MODELS, "bath.model")
    g_minus = _as_float(_need(bath_raw, "gamma_minus", "bath"), "bath.gamma_minus")
    g_plus = _as_float(bath_raw.get("gamma_plus", 0.0), "bath.gamma_plus")
    if g_minus < 0 or g_plus < 0:
        raise ConfigError("bath.gamma_minus", "rates must be nonnegative")
    if g_minus < g_plus:
        raise ConfigError(
            "bath.gamma_plus",
            "gamma_minus must be >= gamma_plus so that the difference of the "
            "coefficient matrices stays positive semidefinite",
        )
    bath = {
        "model": model_id,
        "gamma_minus": g_minus,
        "gamma_plus": g_plus,
        "delta_ratio": _as_float(bath_raw.get("delta_ratio", 0.0), "bath.delta_ratio"),
    }
    if model_id == "exponential":
        xi = _as_float(bath_raw.get("xi", 1.0), "bath.xi")
        if xi <= 0:
            raise ConfigError("bath.xi", "correlation length must be positive")
        bath["xi"] = xi
    if model_id == "clustered":
        part = _need(bath_raw, "partition", "bath")
        if not isinstance(part, list) or not all(isinstance(c, list) for c in part):
            raise ConfigError("bath.partition", "must be a list of index lists")
        if sorted(i for c in part for i in c) != list(range(n)):
            raise ConfigError(
                "bath.partition", f"must cover each cell 0..{n - 1} exactly once"
            )
        bath["partition"] = [[int(i) for i in c] for c in part]
    if model_id == "gauge_phased":
        phases = _need(bath_raw, "phases", "bath")
        if not isinstance(phases, list) or len(phases) != n:
            raise ConfigError("bath.phases", f"must list one phase per cell ({n})")
        bath["phases"] = [_as_float(p, "bath.phases") for p in phases]

    # initial states ----------------------------------------------------------
    if "initial_state" in raw and "initial_states" in raw:
        raise ConfigError(
            "initial_state", "give either initial_state or initial_states, not both"
        )
    states_raw = raw.get("initial_states")
    if states_raw is None:
        single = raw.get("initial_state", "uniform")
        states_raw = [single]
    if not isinstance(states_raw, list) or not states_raw:
        raise ConfigError("initial_states", "must be a nonempty list")
    initial_states = []
    for k, entry in enumerate(states_raw):
        if isinstance(entry, str):
            initial_states.append(entry)
        elif isinstance(entry, list):
            amps = []
            for a in entry:
                if isinstance(a, (int, float)) and not isinstance(a, bool):
                    amps.append([float(a), 0.0])
                elif (
                    isinstance(a, list)
                    and len(a) == 2
                    and all(
                        isinstance(x, (int, float)) and not isinstance(x, bool)
                        for x in a
                    )
                ):
                    amps.append([float(a[0]), float(a[1])])
                else:
                    raise ConfigError(
                        f"initial_states[{k}]",
                        "amplitudes must be numbers or [re, im] pairs",
                    )
            initial_states.append(amps)
        else:
            raise ConfigError(
                f"initial_states[{k}]", "must be a state name or amplitude list"
            )

    # solver ------------------------------------------------------------------
    solver_raw = raw.get("solver") or {}
    if not isinstance(solver_raw, dict):
        raise ConfigError("solver", "must be a mapping")
    _reject_unknown(solver_raw, {"dt", "t_end", "stride", "method"}, "solver")
    dt = _as_float(solver_raw.get("dt", 0.01), "solver.dt")
    if not 0 < dt < np.inf:
        raise ConfigError("solver.dt", "step size must be positive and finite")
    t_end = _as_float(solver_raw.get("t_end", 10.0), "solver.t_end")
    if not 0 <= t_end < np.inf:
        raise ConfigError("solver.t_end", "end time must be nonnegative and finite")
    try:
        step_count(t_end, dt)
    except QregError as exc:
        raise ConfigError("solver.t_end", str(exc)) from exc
    stride = _as_int(solver_raw.get("stride", 10), "solver.stride")
    if stride < 1:
        raise ConfigError("solver.stride", "stride must be >= 1")
    method = _as_choice(
        solver_raw.get("method", "rk4"), SOLVER_METHODS, "solver.method"
    )
    solver = {"dt": dt, "t_end": t_end, "stride": stride, "method": method}

    # sweep -------------------------------------------------------------------
    sweep_raw = raw.get("sweep")
    sweep = None
    if sweep_raw is not None:
        if not isinstance(sweep_raw, dict):
            raise ConfigError("sweep", "must be a mapping")
        _reject_unknown(sweep_raw, {"parameter", "values"}, "sweep")
        parameter = _as_choice(
            _need(sweep_raw, "parameter", "sweep"), SWEEPABLE, "sweep.parameter"
        )
        values_raw = _need(sweep_raw, "values", "sweep")
        if not isinstance(values_raw, list) or not values_raw:
            raise ConfigError("sweep.values", "must be a nonempty list of numbers")
        values = [_as_float(v, "sweep.values") for v in values_raw]
        if experiment == "tau_sweep" and any(v <= 0 for v in values):
            raise ConfigError("sweep.values", "sweep values must be positive")
        if parameter == "bath.xi" and any(v <= 0 for v in values):
            raise ConfigError("sweep.values", "correlation lengths must be positive")
        sweep = {"parameter": parameter, "values": values}
    if experiment == "tau_sweep" and sweep is None:
        raise ConfigError("sweep", "tau_sweep requires a sweep section")

    # codes -------------------------------------------------------------------
    codes_raw = raw.get("codes")
    codes_cfg = None
    if experiment == "codes":
        codes_raw = codes_raw or {"kind": "null"}
        if not isinstance(codes_raw, dict):
            raise ConfigError("codes", "must be a mapping")
        _reject_unknown(codes_raw, {"kind", "cluster_size", "target_zspin"}, "codes")
        ckind = _as_choice(codes_raw.get("kind", "null"), CODE_KINDS, "codes.kind")
        codes_cfg = {"kind": ckind}
        if ckind == "cluster":
            m = _as_int(_need(codes_raw, "cluster_size", "codes"), "codes.cluster_size")
            if m < 2 or m % 2 != 0:
                raise ConfigError("codes.cluster_size", "must be a positive even integer")
            if n % m != 0:
                raise ConfigError(
                    "codes.cluster_size", f"must divide the cell count {n}"
                )
            codes_cfg["cluster_size"] = m
            codes_cfg["target_zspin"] = _as_float(
                codes_raw.get("target_zspin", 0.0), "codes.target_zspin"
            )
        if ckind == "n4" and n != 4:
            raise ConfigError("codes.kind", "the four-cell codewords require n = 4")
    elif codes_raw is not None:
        raise ConfigError("codes", "only valid for the codes experiment")

    # output ------------------------------------------------------------------
    out_raw = raw.get("output") or {}
    if not isinstance(out_raw, dict):
        raise ConfigError("output", "must be a mapping")
    _reject_unknown(out_raw, {"directory", "formats", "name"}, "output")
    directory = out_raw.get("directory", "out")
    if not isinstance(directory, str) or not directory:
        raise ConfigError("output.directory", "must be a nonempty string")
    formats = out_raw.get("formats", list(OUTPUT_FORMATS))
    if not isinstance(formats, list) or not formats:
        raise ConfigError("output.formats", "must be a nonempty list")
    for f in formats:
        if f not in OUTPUT_FORMATS:
            raise ConfigError(
                "output.formats", f"expected subset of {list(OUTPUT_FORMATS)}, got {f!r}"
            )
    name = out_raw.get("name", experiment)
    if not isinstance(name, str) or not name:
        raise ConfigError("output.name", "must be a nonempty string")
    output = {"directory": directory, "formats": list(formats), "name": name}

    cfg = ExperimentConfig(
        experiment=experiment,
        register=register,
        bath=bath,
        initial_states=tuple(
            tuple(tuple(a) for a in s) if isinstance(s, list) else s
            for s in initial_states
        ),
        solver=solver,
        sweep=sweep,
        codes=codes_cfg,
        output=output,
    )
    # Every sweep point must make a valid bath, not only the base values.
    for overrides in _sweep_overrides(cfg):
        try:
            build_bath(cfg, overrides)
        except QregError as exc:
            raise ConfigError("sweep.values", f"{overrides}: {exc}") from exc
    return cfg


def serialize_config(cfg: ExperimentConfig) -> str:
    """Canonical YAML serialization (stable key order)."""
    return yaml.safe_dump(cfg.to_dict(), sort_keys=True, default_flow_style=False)


def parse_config(text: str) -> ExperimentConfig:
    try:
        raw = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigError("", f"not valid YAML: {exc}") from exc
    return config_from_dict(raw)


def load_config(path: Path) -> ExperimentConfig:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise IoError(f"cannot read config {path}: {exc}") from exc
    return parse_config(text)


def load_preset(name: str) -> ExperimentConfig:
    if name not in PRESETS:
        raise ConfigError("preset", f"unknown preset {name!r}; choose from {list(PRESETS)}")
    text = resources.files("qregsim").joinpath(f"presets/{name}.yaml").read_text()
    return parse_config(text)


def config_hash(cfg: ExperimentConfig) -> str:
    return hashlib.sha256(serialize_config(cfg).encode()).hexdigest()


# --------------------------------------------------------------------------
# Model construction from configs
# --------------------------------------------------------------------------


def build_register(cfg: ExperimentConfig) -> RegisterModel:
    reg = cfg.register
    n = reg["n"]
    inter = reg["interaction"]
    interaction = None
    if inter["kind"] == "heisenberg_ring":
        interaction = heisenberg_ring(n, inter["j"])
    if reg["kind"] == "dephasing":
        return replace(dephasing_register(n), interaction=interaction)
    return qubit_register(n, epsilon=reg["epsilon"], interaction=interaction)


def _sweep_overrides(cfg: ExperimentConfig) -> list[dict]:
    """Bath overrides of each sweep point, in order (empty without a sweep)."""
    if cfg.sweep is None:
        return []
    leaf = cfg.sweep["parameter"].split(".", 1)[1]
    return [{leaf: v} for v in cfg.sweep["values"]]


def build_bath(cfg: ExperimentConfig, overrides: dict | None = None) -> BathSpec:
    b = dict(cfg.bath)
    if overrides:
        b.update(overrides)
    n = cfg.register["n"]
    gm, gp, ratio = b["gamma_minus"], b["gamma_plus"], b["delta_ratio"]
    model_id = b["model"]
    if model_id == "cell_limit":
        return cell_limit(n, gm, gp, ratio)
    if model_id == "replica":
        return replica_symmetric(n, gm, gp, ratio)
    if model_id == "exponential":
        return exponential_decay(n, gm, gp, b["xi"], ratio)
    if model_id == "clustered":
        return clustered(b["partition"], gm, gp, ratio)
    if model_id == "gauge_phased":
        return gauge_phased(replica_symmetric(n, gm, gp, ratio), b["phases"])
    raise ConfigError("bath.model", f"unhandled bath model {model_id!r}")


def _state_column_name(entry, index: int) -> str:
    if isinstance(entry, str):
        return (
            entry.replace(":", "_").replace(",", "_").replace(" ", "").replace("-", "m")
        )
    return f"state{index}"


def build_state(entry, model: RegisterModel) -> np.ndarray:
    """Resolve a named or explicit initial state to a normalized vector."""
    n, dim = model.n_cells, model.dim
    if not isinstance(entry, str):
        amps = np.array([complex(re, im) for re, im in entry])
        if amps.shape[0] != dim:
            raise ConfigError(
                "initial_states", f"amplitude list has length {amps.shape[0]}, need {dim}"
            )
        if np.linalg.norm(amps) == 0:
            raise ConfigError("initial_states", "amplitude list cannot be all zero")
        return normalize(amps)
    name = entry
    try:
        if name == "all_up":
            return basis_state(n, "0" * n)
        if name == "all_down":
            return basis_state(n, "1" * n)
        if name == "uniform":
            return np.full(dim, 1.0 / np.sqrt(dim), dtype=complex)
        if name == "singlet":
            return pair_singlet_state(n)
        if name == "triplet":
            if n != 2:
                raise ConfigError("initial_states", "triplet is defined for n = 2")
            return normalize(basis_state(2, "01") + basis_state(2, "10"))
        if name == "symmetric":
            return dicke_state(n, n // 2)
        if name in ("codeword0", "codeword1"):
            if n != 4:
                raise ConfigError(
                    "initial_states", "codewords are defined for n = 4"
                )
            code = n4_code()
            return code.basis[:, 0 if name == "codeword0" else 1].copy()
        if name.startswith("basis:"):
            return basis_state(n, name.split(":", 1)[1])
        if name.startswith("su2:"):
            parts = name.split(":", 1)[1].split(",")
            if len(parts) not in (2, 3):
                raise ConfigError(
                    "initial_states", f"expected su2:S,M or su2:S,M,copy, got {name!r}"
                )
            s, m = float(parts[0]), float(parts[1])
            copy = int(parts[2]) if len(parts) == 3 else 0
            return su2_basis_state(n, s, m, copy)
    except ConfigError:
        raise
    except QregError as exc:
        raise ConfigError("initial_states", f"cannot build {name!r}: {exc}") from exc
    raise ConfigError("initial_states", f"unknown state name {name!r}")


# --------------------------------------------------------------------------
# Result tables
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class ResultTable:
    """Rectangular table of finite real values plus provenance."""

    columns: tuple
    values: np.ndarray
    provenance: dict

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 2:
            raise DimensionMismatch(f"values must be 2-d, got shape {v.shape}")
        if v.shape[1] != len(self.columns):
            raise DimensionMismatch(
                f"{len(self.columns)} columns declared but rows have {v.shape[1]} entries"
            )
        if v.size and not np.all(np.isfinite(v)):
            raise DimensionMismatch("table values must be finite")
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "columns", tuple(str(c) for c in self.columns))


def _provenance(cfg: ExperimentConfig, solver_meta: dict | None = None) -> dict:
    return {
        "config": cfg.to_dict(),
        "config_sha256": config_hash(cfg),
        "library_version": __version__,
        "solver": solver_meta or {},
    }


def run_simulate(cfg: ExperimentConfig) -> ResultTable:
    """Trajectory observables; columns t, then F/delta/E per state (and per
    sweep value when a sweep is present, sweep-major)."""
    model = build_register(cfg)
    named = [
        (_state_column_name(s, i), build_state(s, model))
        for i, s in enumerate(cfg.initial_states)
    ]
    psis = [psi for _, psi in named]
    solver = cfg.solver
    columns, data = ["t"], []
    for overrides in _sweep_overrides(cfg) or [None]:
        suffix = "".join(f"_{k}{v:g}" for k, v in (overrides or {}).items())
        bath = build_bath(cfg, overrides)
        liouv = build_liouvillian(model, bath)
        # The solver section's keys are evolve's keyword arguments.
        trajs = evolve(liouv, psis, **solver, model=model, spec=bath)
        times = trajs[0].times
        for (name, psi), traj in zip(named, trajs):
            state_tag = f"_{name}" if (len(named) > 1 or suffix) else ""
            columns += [
                f"F{state_tag}{suffix}",
                f"delta{state_tag}{suffix}",
                f"E{state_tag}{suffix}",
            ]
            data += [
                [fidelity(s, psi) for s in traj.states],
                [linear_entropy(s) for s in traj.states],
                [register_energy(s, liouv.hamiltonian) for s in traj.states],
            ]
        # Only the observables outlive a point: drop its snapshots before
        # the next point evolves.
        trajs = traj = None
    values = np.column_stack([times] + data)
    meta = {"method": solver["method"], "dt": solver["dt"], "stride": solver["stride"]}
    return ResultTable(
        columns=tuple(columns), values=values, provenance=_provenance(cfg, meta)
    )


def run_tau_sweep(cfg: ExperimentConfig) -> ResultTable:
    """First-order decoherence rates per state along the sweep.

    The raw rate 1/tau_1 is reported (never its reciprocal), so divergent
    decoherence times appear as zero-rate entries rather than infinities.
    """
    model = build_register(cfg)
    named = [
        (_state_column_name(s, i), build_state(s, model))
        for i, s in enumerate(cfg.initial_states)
    ]
    leaf = cfg.sweep["parameter"].split(".", 1)[1]
    rows = []
    for overrides in _sweep_overrides(cfg):
        lset = canonical_form(model, build_bath(cfg, overrides))
        rows.append(
            [overrides[leaf]] + [pure_decoherence_rate(lset, psi) for _, psi in named]
        )
    columns = [leaf] + [f"rate_{name}" for name, _ in named]
    return ResultTable(
        columns=tuple(columns),
        values=np.array(rows, dtype=float),
        provenance=_provenance(cfg, {"observable": "pure_decoherence_rate"}),
    )


def run_codes(cfg: ExperimentConfig) -> ResultTable:
    """Build the configured code and report its quality measures.

    One row per basis column: column index, first-order decoherence rate of
    that column under the configured bath, the code dimension, the
    noiselessness verdict (0/1), and the per-Lindblad eigenvalue labels
    (re, im pairs).  The basis itself is stored in the provenance block and
    written as a side CSV by emit_outputs.
    """
    model = build_register(cfg)
    bath = build_bath(cfg)
    liouv = build_liouvillian(model, bath)
    lset = liouv.lindblad
    kind = cfg.codes["kind"]
    if kind == "null":
        code = null_code(lset)
    elif kind == "cluster":
        code = dephasing_cluster_code(
            cfg.register["n"], cfg.codes["cluster_size"], cfg.codes["target_zspin"]
        )
    else:
        code = n4_code()
    verdict = is_noiseless(code, liouv)
    labels = [complex(x) for x in code.labels]
    columns = ["col", "decoherence_rate", "dim", "noiseless"]
    for j in range(len(labels)):
        columns += [f"label{j}_re", f"label{j}_im"]
    rows = []
    for k in range(code.dim):
        psi = code.basis[:, k]
        rate = pure_decoherence_rate(lset, psi)
        row = [float(k), rate, float(code.dim), float(verdict)]
        for lab in labels:
            row += [lab.real, lab.imag]
        rows.append(row)
    values = (
        np.asarray(rows, dtype=float)
        if rows
        else np.zeros((0, len(columns)))
    )
    prov = _provenance(cfg, {"code_kind": kind})
    prov["code"] = {
        "dim": code.dim,
        "kind": code.kind,
        "noiseless": bool(verdict),
        "labels": [[lab.real, lab.imag] for lab in labels],
        "basis_re_im": [
            [[float(z.real), float(z.imag)] for z in row] for row in code.basis
        ],
    }
    return ResultTable(columns=tuple(columns), values=values, provenance=prov)


# --------------------------------------------------------------------------
# Output emission
# --------------------------------------------------------------------------


def _fmt(x: float) -> str:
    return repr(float(x))


def _write_csv(path: Path, columns, values) -> None:
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\r\n")
        writer.writerow(columns)
        for row in values:
            writer.writerow([_fmt(v) for v in row])


def _plot_script(table: ResultTable, cfg: ExperimentConfig) -> str:
    name = cfg.output["name"]
    cols = table.columns
    lines = [
        "set datafile separator comma",
        "set key autotitle columnhead",
        "set terminal pngcairo size 900,640",
        f"set output '{name}.png'",
    ]
    csv_name = f"{name}.csv"

    def idx(col):
        return cols.index(col) + 1

    if cfg.experiment == "tau_sweep":
        lines += [f"set xlabel '{cols[0]}'", "set ylabel 'tau_1'"]
        plots = []
        for j, col in enumerate(cols[1:], start=2):
            title = col.removeprefix("rate_")
            plots.append(
                f"'{csv_name}' using 1:(${j} > 1e-10 ? 1.0/${j} : 1/0) "
                f"with linespoints title '{title}'"
            )
        lines.append("plot " + ", \\\n     ".join(plots))
        return "\n".join(lines) + "\n"

    if cfg.experiment == "simulate":
        fcols = [c for c in cols if c == "F" or c.startswith("F_")]
        dcols = [c for c in cols if c == "delta" or c.startswith("delta_")]
        lines.append("set xlabel 't'")
        if name == "fig4" and cfg.sweep is not None:
            lines.append("set ylabel 'F_singlet - F_symmetric'")
            plots = []
            for v in reversed(cfg.sweep["values"]):
                tag = format(v, "g")
                a = idx(f"F_singlet_xi{tag}")
                b = idx(f"F_symmetric_xi{tag}")
                plots.append(
                    f"'{csv_name}' using 1:(${a}-${b}) with lines title 'xi={tag}'"
                )
            lines.append("plot " + ", \\\n     ".join(plots))
        elif name == "fig5" and cfg.sweep is not None:
            lines.append("set ylabel 'delta_symmetric - delta_singlet'")
            plots = []
            for v in reversed(cfg.sweep["values"]):
                tag = format(v, "g")
                a = idx(f"delta_symmetric_xi{tag}")
                b = idx(f"delta_singlet_xi{tag}")
                plots.append(
                    f"'{csv_name}' using 1:(${a}-${b}) with lines title 'xi={tag}'"
                )
            lines.append("plot " + ", \\\n     ".join(plots))
        elif name == "fig3":
            lines.append("set ylabel 'delta'")
            plots = [
                f"'{csv_name}' using 1:{idx(c)} with lines title '{c.removeprefix('delta_') or 'delta'}'"
                for c in dcols
            ]
            lines.append("plot " + ", \\\n     ".join(plots))
        else:
            lines.append("set ylabel 'F'")
            plots = [
                f"'{csv_name}' using 1:{idx(c)} with lines title '{c.removeprefix('F_') or 'F'}'"
                for c in fcols
            ]
            lines.append("plot " + ", \\\n     ".join(plots))
        return "\n".join(lines) + "\n"

    # codes: nothing figure-like; plot per-column rates.
    lines += [
        "set xlabel 'basis column'",
        "set ylabel 'decoherence rate'",
        f"plot '{csv_name}' using 1:2 with points pointtype 7 title 'rate'",
    ]
    return "\n".join(lines) + "\n"


def emit_outputs(
    table: ResultTable, cfg: ExperimentConfig, out_dir: str | None = None, wall_time: float = 0.0
) -> list[Path]:
    """Write CSV, JSON sidecar, and a gnuplot script; returns paths."""
    directory = Path(out_dir if out_dir is not None else cfg.output["directory"])
    try:
        directory.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise IoError(f"cannot create output directory {directory}: {exc}") from exc
    name = cfg.output["name"]
    formats = cfg.output["formats"]
    written: list[Path] = []
    try:
        if "csv" in formats:
            path = directory / f"{name}.csv"
            _write_csv(path, table.columns, table.values)
            written.append(path)
            if "code" in table.provenance:
                basis = table.provenance["code"]["basis_re_im"]
                ncols = len(basis[0]) if basis else 0
                if ncols:
                    bpath = directory / f"{name}_basis.csv"
                    header = []
                    for j in range(ncols):
                        header += [f"col{j}_re", f"col{j}_im"]
                    flat = [
                        [x for pair in row for x in pair] for row in basis
                    ]
                    _write_csv(bpath, header, flat)
                    written.append(bpath)
        if "json" in formats:
            path = directory / f"{name}.json"
            sidecar = {
                "columns": list(table.columns),
                "n_rows": int(table.values.shape[0]),
                "provenance": table.provenance,
                "wall_time_s": wall_time,
            }
            with path.open("w") as fh:
                json.dump(sidecar, fh, indent=2, sort_keys=True)
                fh.write("\n")
            written.append(path)
        if "gnuplot" in formats:
            path = directory / f"{name}.gp"
            path.write_text(_plot_script(table, cfg))
            written.append(path)
    except OSError as exc:
        raise IoError(f"cannot write outputs under {directory}: {exc}") from exc
    return written


# --------------------------------------------------------------------------
# CLI
# --------------------------------------------------------------------------

_RUNNERS = {
    "simulate": run_simulate,
    "tau_sweep": run_tau_sweep,
    "codes": run_codes,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qregsim",
        description="Simulate correlated-decoherence dynamics of a cell register.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for cmd in ("simulate", "tau-sweep", "codes"):
        p = sub.add_parser(cmd, help=f"run a {cmd} experiment")
        src = p.add_mutually_exclusive_group(required=True)
        src.add_argument("--config", type=Path, help="path to a YAML config")
        src.add_argument("--preset", choices=PRESETS, help="named built-in config")
        p.add_argument("--out", help="output directory override")
        p.add_argument("--dt", type=float, help="solver time step override")
        p.add_argument("--t-end", type=float, dest="t_end", help="end time override")
    return parser


def _load_for_command(args) -> ExperimentConfig:
    if args.preset:
        cfg = load_preset(args.preset)
    else:
        cfg = load_config(args.config)
    raw = cfg.to_dict()
    if args.dt is not None:
        raw["solver"]["dt"] = args.dt
    if args.t_end is not None:
        raw["solver"]["t_end"] = args.t_end
    if args.preset and raw["output"]["name"] != args.preset:
        raw["output"]["name"] = args.preset
    cfg = config_from_dict(raw)
    expected = args.command.replace("-", "_")
    if cfg.experiment != expected:
        raise ConfigError(
            "experiment",
            f"config describes a {cfg.experiment!r} run but the "
            f"{args.command} subcommand was invoked",
        )
    return cfg


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _load_for_command(args)
        start = time.perf_counter()
        table = _RUNNERS[cfg.experiment](cfg)
        wall = time.perf_counter() - start
        paths = emit_outputs(table, cfg, out_dir=args.out, wall_time=wall)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except QregError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    if cfg.experiment == "codes":
        code = table.provenance["code"]
        print(f"code dimension: {code['dim']}  noiseless: {code['noiseless']}")
    for p in paths:
        print(f"wrote {p}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
