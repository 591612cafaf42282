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
from dataclasses import dataclass, fields, replace
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
from .codes import (
    check_cluster_size,
    dephasing_cluster_code,
    is_noiseless,
    n4_code,
    null_code,
)
from .dynamics import check_method, dephasing_frame, evolve_into, snapshot_grid
from .errors import ConfigError, DimensionMismatch, IoError, QregError
from .liouvillian import (
    GENERATOR_MAX_BYTES,
    build_liouvillian,
    canonical_form,
    generator_bytes,
    rates_bytes,
)
from .observables import (
    fidelity,
    linear_entropy,
    pure_decoherence_rate,
    register_energy,
)
from .register import (
    RegisterModel,
    basis_state,
    check_ring,
    dephasing_register,
    dicke_state,
    heisenberg_ring,
    normalize,
    pair_singlet_state,
    qubit_register,
    su2_basis_state,
    su2_bytes,
)

PRESETS = ("fig1", "fig2", "fig3", "fig4", "fig5")

# --------------------------------------------------------------------------
# Config parsing and validation
# --------------------------------------------------------------------------

REQUIRED = "required"


@dataclass(frozen=True)
class Field:
    """One config entry.  ``default`` fills an absent (or null) entry;
    REQUIRED makes it mandatory and None leaves it out.  A field with
    ``when = (path, value)`` exists only while that field holds that value:
    otherwise it is neither checked nor kept."""

    path: str
    kind: str
    default: object = REQUIRED
    choices: tuple = ()
    when: tuple = ()


# One row per config field; a mapping's row comes before its children's and
# a field named by a ``when`` before the rows it gates.  output.name, left
# out here, defaults to the experiment (config_from_dict).
FIELDS = (
    Field("experiment", "str", choices=("simulate", "tau_sweep", "codes")),
    Field("register", "map"),
    Field("register.n", "int"),
    Field("register.d", "int", 2, (2,)),
    Field("register.kind", "str", "qubit", ("qubit", "dephasing")),
    Field("register.epsilon", "float", 1.0),
    Field("register.interaction", "map", {}),
    Field("register.interaction.kind", "str", "none", ("none", "heisenberg_ring")),
    Field(
        "register.interaction.j",
        "float",
        1.0,
        when=("register.interaction.kind", "heisenberg_ring"),
    ),
    Field("bath", "map"),
    Field(
        "bath.model",
        "str",
        choices=("cell_limit", "replica", "exponential", "clustered", "gauge_phased"),
    ),
    Field("bath.gamma_minus", "float"),
    Field("bath.gamma_plus", "float", 0.0),
    Field("bath.delta_ratio", "float", 0.0),
    Field("bath.xi", "float", 1.0, when=("bath.model", "exponential")),
    Field("bath.partition", "cells", when=("bath.model", "clustered")),
    Field("bath.phases", "floats", when=("bath.model", "gauge_phased")),
    Field("initial_states", "states", ["uniform"]),
    Field("solver", "map", {}),
    Field("solver.dt", "float", 0.01),
    Field("solver.t_end", "float", 10.0),
    Field("solver.stride", "int", 10),
    Field("solver.method", "str", "rk4", ("rk4", "exact", "dephasing")),
    Field("sweep", "map", None),
    Field(
        "sweep.parameter",
        "str",
        choices=("bath.xi", "bath.gamma_minus", "bath.gamma_plus", "bath.delta_ratio"),
    ),
    Field("sweep.values", "floats"),
    Field("codes", "map", {}, when=("experiment", "codes")),
    Field("codes.kind", "str", "null", ("null", "cluster", "n4")),
    Field("codes.cluster_size", "int", when=("codes.kind", "cluster")),
    Field("codes.target_zspin", "float", 0.0, when=("codes.kind", "cluster")),
    Field("output", "map", {}),
    Field("output.directory", "str", "out"),
    Field("output.formats", "strs", ["csv", "json", "gnuplot"], ("csv", "json", "gnuplot")),
    Field("output.name", "str", None),
)


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _list_of(v, accepts) -> bool:
    return isinstance(v, list) and len(v) > 0 and all(accepts(x) for x in v)


def _states(entries: list) -> tuple:
    """Named states as given; amplitude lists as ((re, im), ...) tuples,
    a bare number standing for a real amplitude."""
    states = []
    for k, entry in enumerate(entries):
        if isinstance(entry, str):
            states.append(entry)
            continue
        if not isinstance(entry, list):
            raise ConfigError(
                f"initial_states[{k}]", "must be a state name or amplitude list"
            )
        amps = []
        for a in entry:
            if _is_number(a):
                a = [a, 0.0]
            if not (isinstance(a, list) and len(a) == 2 and all(map(_is_number, a))):
                raise ConfigError(
                    f"initial_states[{k}]", "amplitudes must be numbers or [re, im] pairs"
                )
            amps.append((float(a[0]), float(a[1])))
        states.append(tuple(amps))
    return tuple(states)


# kind: (accepts, normalizes, what an error says was expected)
_KINDS = {
    "map": (lambda v: isinstance(v, dict), None, "a mapping"),
    "int": (_is_int, int, "an integer"),
    "float": (_is_number, float, "a number"),
    "str": (lambda v: isinstance(v, str) and v != "", str, "a nonempty string"),
    "strs": (
        lambda v: _list_of(v, lambda x: isinstance(x, str)),
        list,
        "a nonempty list of strings",
    ),
    "floats": (
        lambda v: _list_of(v, _is_number),
        lambda v: [float(x) for x in v],
        "a nonempty list of numbers",
    ),
    "cells": (
        lambda v: _list_of(v, lambda c: isinstance(c, list) and all(map(_is_int, c))),
        lambda v: [list(c) for c in v],
        "a nonempty list of cell-index lists",
    ),
    "states": (lambda v: isinstance(v, list) and len(v) > 0, _states, "a nonempty list"),
}

_PATHS = {f.path for f in FIELDS}


def _reject_unknown(parent: str, node: dict) -> None:
    for key in node:
        path = f"{parent}.{key}" if parent else str(key)
        if path not in _PATHS:
            raise ConfigError(path, "unknown field")


def _walk(raw: dict) -> dict:
    """Check every FIELDS entry for presence, type and choices, and every
    mapping for unknown keys; returns the normalized nested mapping."""
    _reject_unknown("", raw)
    values: dict = {}
    raws, nodes = {"": raw}, {"": {}}
    for f in FIELDS:
        parent, _, key = f.path.rpartition(".")
        if parent not in raws or (f.when and values[f.when[0]] != f.when[1]):
            continue
        value = raws[parent].get(key)
        if value is None:
            if f.default == REQUIRED:
                raise ConfigError(f.path, "missing required field")
            if f.default is None:
                continue
            value = f.default
        accepts, normalized, expected = _KINDS[f.kind]
        if not accepts(value):
            raise ConfigError(f.path, f"expected {expected}, got {value!r}")
        items = value if isinstance(value, list) else [value]
        if f.choices and any(v not in f.choices for v in items):
            raise ConfigError(f.path, f"expected one of {list(f.choices)}, got {value!r}")
        if f.kind == "map":
            _reject_unknown(f.path, value)
            raws[f.path], nodes[f.path] = value, {}
            values[f.path] = nodes[parent][key] = nodes[f.path]
        else:
            values[f.path] = nodes[parent][key] = normalized(value)
    return nodes[""]


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
        """Plain mappings and lists, as YAML and JSON write them."""
        return {f.name: _plain(getattr(self, f.name)) for f in fields(self)}


def _plain(value):
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    return value


def config_from_dict(raw: dict) -> ExperimentConfig:
    """Validate a raw mapping into an ExperimentConfig.

    FIELDS fixes each entry's type, default and choices; ranges and
    consistency are the library's rules, reached through the builders.
    Raises ConfigError carrying the dotted field path of the first
    offending entry.
    """
    if not isinstance(raw, dict):
        raise ConfigError("", "config root must be a mapping")
    raw = dict(raw)
    single = raw.pop("initial_state", None)
    if single is not None:
        if raw.get("initial_states") is not None:
            raise ConfigError(
                "initial_state", "give either initial_state or initial_states, not both"
            )
        raw["initial_states"] = [single]
    tree = _walk(raw)
    tree["output"].setdefault("name", tree["experiment"])
    cfg = ExperimentConfig(**{"sweep": None, "codes": None, **tree})
    _check_sections(cfg, raw)
    _check_with_library(cfg)
    return cfg


def _check_sections(cfg: ExperimentConfig, raw: dict) -> None:
    """The CLI's own rules across sections."""
    if cfg.experiment != "codes" and raw.get("codes") is not None:
        raise ConfigError("codes", "only valid for the codes experiment")
    if cfg.codes is not None and cfg.codes["kind"] == "n4" and cfg.register["n"] != 4:
        raise ConfigError("codes.kind", "the four-cell codewords require n = 4")
    if cfg.sweep is None:
        if cfg.experiment == "tau_sweep":
            raise ConfigError("sweep", "tau_sweep requires a sweep section")
        return
    leaf = cfg.sweep["parameter"].split(".", 1)[1]
    if leaf not in cfg.bath:
        raise ConfigError(
            "sweep.parameter", f"the {cfg.bath['model']} bath does not read {leaf}"
        )
    if cfg.experiment == "tau_sweep" and any(v <= 0 for v in cfg.sweep["values"]):
        raise ConfigError("sweep.values", "sweep values must be positive")


def _library(path: str, build, *args):
    """build(*args), with a library error reported as ConfigError(path)."""
    try:
        return build(*args)
    except QregError as exc:
        raise ConfigError(path, str(exc)) from exc


def _check_with_library(cfg: ExperimentConfig) -> None:
    """Ranges and consistency, by the library's own builders and guards.

    Each call isolates one field, so an error names it.  For simulate and
    codes runs every bath point's generator must fit GENERATOR_MAX_BYTES;
    the register is sized without its interaction term, which is built
    only by the runners.  A tau_sweep run must fit it with its state
    vectors and rates (``rates_bytes``, which counts a ring interaction's
    builder), and ``su2_bytes`` more when it builds an su2 state, on its
    S^z sector.
    """
    reg, bath, solver = cfg.register, cfg.bath, cfg.solver
    n = reg["n"]
    _library("register.n", dephasing_register, n)
    _library("register.epsilon", qubit_register, 1, reg["epsilon"])
    if reg["interaction"]["kind"] == "heisenberg_ring":
        _library("register.interaction.kind", check_ring, n)
    gm, gp = bath["gamma_minus"], bath["gamma_plus"]
    _library("bath.gamma_minus", cell_limit, 1, gm, 0.0)
    _library("bath.gamma_plus", cell_limit, 1, gm, gp)
    _library("bath.delta_ratio", cell_limit, 1, gm, gp, bath["delta_ratio"])
    # Past the rates, a bath fails only on the parameter its model owns.
    own = next(
        (f.path for f in FIELDS if f.when == ("bath.model", bath["model"])),
        "bath.model",
    )
    model = _cells(reg)
    base = _library(own, build_bath, cfg)
    if cfg.experiment == "tau_sweep":  # the one experiment without a generator
        ring = reg["interaction"]["kind"] != "none"
        su2 = any(isinstance(s, str) and s.startswith("su2:") for s in cfg.initial_states)
        builder = su2_bytes(n) if su2 else 0

        def size(model, spec):
            return rates_bytes(model, spec, len(cfg.initial_states), ring) + builder

        what = "decoherence rates for {} cells need"
    else:
        size, what = generator_bytes, "generator for {} cells needs"
    # Sizing also pairs bath and register: a partition may list other cells.
    need = _library(own, size, model, base)
    for overrides in _sweep_overrides(cfg):
        spec = _library("sweep.values", build_bath, cfg, overrides)
        need = max(need, size(model, spec))
    if need > GENERATOR_MAX_BYTES:
        raise ConfigError(
            "register.n",
            f"the {what.format(n)} about {need / 2**30:.3g} GiB, "
            f"over the {GENERATOR_MAX_BYTES / 2**30:.0f} GiB limit",
        )
    _library("solver.dt", snapshot_grid, 0.0, solver["dt"])
    _library("solver.t_end", snapshot_grid, solver["t_end"], solver["dt"])
    _library("solver.stride", snapshot_grid, 0.0, solver["dt"], solver["stride"])
    if cfg.experiment == "simulate":
        # Past the size guard.  The dephasing rule tests the d x d cell
        # operator before it builds the register's H (a ring's SU(2) check
        # is O(D^3)).
        method = solver["method"]
        if method == "dephasing":
            _library("solver.method", dephasing_frame, model)
            model = build_register(cfg)
        _library("solver.method", check_method, method, model)
    if cfg.codes is not None and cfg.codes["kind"] == "cluster":
        _library("codes.cluster_size", check_cluster_size, n, cfg.codes["cluster_size"])


# libyaml's emitter writes the same text as PyYAML's own, several times
# faster; the pure-Python SafeDumper serves where libyaml is absent.
CONFIG_DUMPER = yaml.CSafeDumper if yaml.__with_libyaml__ else yaml.SafeDumper


def serialize_config(cfg: ExperimentConfig) -> str:
    """Canonical YAML serialization (stable key order)."""
    return yaml.dump(
        cfg.to_dict(), Dumper=CONFIG_DUMPER, sort_keys=True, default_flow_style=False
    )


def _parse_yaml(text: str):
    try:
        return yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigError("", f"not valid YAML: {exc}") from exc


def _read_config(path: Path) -> str:
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise IoError(f"cannot read config {path}: {exc}") from exc


def _read_preset(name: str) -> str:
    if name not in PRESETS:
        raise ConfigError("preset", f"unknown preset {name!r}; choose from {list(PRESETS)}")
    return resources.files("qregsim").joinpath(f"presets/{name}.yaml").read_text()


def parse_config(text: str) -> ExperimentConfig:
    return config_from_dict(_parse_yaml(text))


def load_preset(name: str) -> ExperimentConfig:
    return parse_config(_read_preset(name))


def config_hash(cfg: ExperimentConfig) -> str:
    return hashlib.sha256(serialize_config(cfg).encode()).hexdigest()


# --------------------------------------------------------------------------
# Model construction from configs
# --------------------------------------------------------------------------


def _cells(reg: dict) -> RegisterModel:
    """The configured register without its interaction term."""
    if reg["kind"] == "dephasing":
        return dephasing_register(reg["n"])
    return qubit_register(reg["n"], epsilon=reg["epsilon"])


def build_register(cfg: ExperimentConfig) -> RegisterModel:
    reg = cfg.register
    model = _cells(reg)
    inter = reg["interaction"]
    if inter["kind"] == "heisenberg_ring":
        model = replace(model, interaction=heisenberg_ring(reg["n"], inter["j"]))
    return model


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
            try:
                s, m = float(parts[0]), float(parts[1])
                copy = int(parts[2]) if len(parts) == 3 else 0
            except ValueError:
                raise ConfigError(
                    "initial_states", f"su2:S,M[,copy] needs numbers, got {name!r}"
                ) from None
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
    sweep value when a sweep is present, sweep-major).

    One ``evolve_into`` call runs every bath point, each generator built
    when the solver draws it; the sink turns each snapshot into F, delta
    and E as it arrives, so no snapshot outlives its step.
    """
    model = build_register(cfg)
    named = [
        (_state_column_name(s, i), build_state(s, model))
        for i, s in enumerate(cfg.initial_states)
    ]
    psis = [psi for _, psi in named]
    solver = cfg.solver
    points = _sweep_overrides(cfg) or [None]
    h, steps = snapshot_grid(solver["t_end"], solver["dt"], solver["stride"])
    # [observable, point, state, snapshot] for F, delta and E
    series = np.empty((3, len(points), len(psis), len(steps)))
    f, delta, e = series

    def observe(liouv, p, s, k, rho):
        f[p, s, k] = fidelity(rho, psis[s])
        delta[p, s, k] = linear_entropy(rho)
        e[p, s, k] = register_energy(rho, liouv)

    liouvs = (build_liouvillian(model, build_bath(cfg, o)) for o in points)
    # The solver section's keys are evolve_into's keyword arguments.
    metas = evolve_into(liouvs, psis, observe, **solver)
    columns, data = ["t"], []
    for p, overrides in enumerate(points):
        suffix = "".join(f"_{k}{v:g}" for k, v in (overrides or {}).items())
        for s, (name, _) in enumerate(named):
            state_tag = f"_{name}" if (len(named) > 1 or suffix) else ""
            columns += [f"{obs}{state_tag}{suffix}" for obs in ("F", "delta", "E")]
            data += list(series[:, p, s])
    values = np.column_stack([steps * h] + data)
    meta = {
        "method": solver["method"],
        "dt": solver["dt"],
        "stride": solver["stride"],
        # per bath point, the generator form each state's trajectory ran on
        "forms": [[m.get("form") for m in point] for point in metas],
    }
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
    # (D, S) with each state's column contiguous, as the state alone
    psis = np.array([psi for _, psi in named]).T
    leaf = cfg.sweep["parameter"].split(".", 1)[1]
    rows = []
    for overrides in _sweep_overrides(cfg):
        lset = canonical_form(model, build_bath(cfg, overrides))
        rows.append([overrides[leaf], *pure_decoherence_rate(lset, psis)])
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
    # Rated before is_noiseless, which caches the terms' D x D operators.
    rates = pure_decoherence_rate(lset, code.basis)
    verdict = is_noiseless(code, liouv)
    labels = [complex(x) for x in code.labels]
    columns = ["col", "decoherence_rate", "dim", "noiseless"]
    for j in range(len(labels)):
        columns += [f"label{j}_re", f"label{j}_im"]
    n_cols = len(rates)
    values = np.column_stack(
        [np.arange(n_cols, dtype=float), rates]
        + [np.full(n_cols, x) for x in (float(code.dim), float(verdict))]
        + [np.full(n_cols, part) for lab in labels for part in (lab.real, lab.imag)]
    )
    prov = _provenance(cfg, {"code_kind": kind})
    prov["code"] = {
        "dim": code.dim,
        "kind": code.kind,
        "noiseless": bool(verdict),
        "labels": [[lab.real, lab.imag] for lab in labels],
        "basis_re_im": np.stack([code.basis.real, code.basis.imag], -1),
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


# Simulate plots by output name: the observable, and for a sweep the two
# states whose difference (first minus second) is drawn per sweep value.
_SIMULATE_PLOTS = {
    "fig3": ("delta", None),
    "fig4": ("F", ("singlet", "symmetric")),
    "fig5": ("delta", ("symmetric", "singlet")),
}


def _plot_script(table: ResultTable, cfg: ExperimentConfig) -> str:
    name = cfg.output["name"]
    cols = table.columns
    csv_name = f"{name}.csv"
    lines = [
        "set datafile separator comma",
        "set key autotitle columnhead",
        "set terminal pngcairo size 900,640",
        f"set output '{name}.png'",
    ]
    if cfg.experiment == "tau_sweep":
        lines += [f"set xlabel '{cols[0]}'", "set ylabel 'tau_1'"]
        plots = [
            f"'{csv_name}' using 1:(${j} > 1e-10 ? 1.0/${j} : 1/0) "
            f"with linespoints title '{col.removeprefix('rate_')}'"
            for j, col in enumerate(cols[1:], start=2)
        ]
    elif cfg.experiment == "simulate":
        obs, pair = _SIMULATE_PLOTS.get(name, ("F", None))
        if pair is not None:
            # a difference per sweep value needs a sweep and both states
            leaf = cfg.sweep["parameter"].split(".", 1)[1] if cfg.sweep else ""
            values = cfg.sweep["values"] if cfg.sweep else []
            wanted = {f"{obs}_{s}_{leaf}{v:g}" for v in values for s in pair}
            if not values or not wanted <= set(cols):
                obs, pair = "F", None
        if pair is None:
            lines += ["set xlabel 't'", f"set ylabel '{obs}'"]
            plots = [
                f"'{csv_name}' using 1:{j} with lines "
                f"title '{col.removeprefix(obs + '_') or obs}'"
                for j, col in enumerate(cols, start=1)
                if col == obs or col.startswith(obs + "_")
            ]
        else:
            lines += ["set xlabel 't'", f"set ylabel '{obs}_{pair[0]} - {obs}_{pair[1]}'"]
            plots = []
            for v in reversed(cfg.sweep["values"]):
                a, b = (cols.index(f"{obs}_{s}_{leaf}{v:g}") + 1 for s in pair)
                plots.append(
                    f"'{csv_name}' using 1:(${a}-${b}) with lines title '{leaf}={v:g}'"
                )
    else:
        # codes: nothing figure-like; plot per-column rates.
        lines += ["set xlabel 'basis column'", "set ylabel 'decoherence rate'"]
        plots = [f"'{csv_name}' using 1:2 with points pointtype 7 title 'rate'"]
    lines.append("plot " + ", \\\n     ".join(plots))
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
                basis = table.provenance["code"]["basis_re_im"]  # (D, dim, 2)
                if basis.shape[1]:
                    bpath = directory / f"{name}_basis.csv"
                    header = []
                    for j in range(basis.shape[1]):
                        header += [f"col{j}_re", f"col{j}_im"]
                    _write_csv(bpath, header, basis.reshape(basis.shape[0], -1).tolist())
                    written.append(bpath)
        if "json" in formats:
            path = directory / f"{name}.json"
            prov = table.provenance
            if "code" in prov:  # the basis is <name>_basis.csv, not JSON
                code = {k: v for k, v in prov["code"].items() if k != "basis_re_im"}
                prov = {**prov, "code": code}
            sidecar = {
                "columns": list(table.columns),
                "n_rows": int(table.values.shape[0]),
                "provenance": prov,
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
    """The config the arguments name, with their overrides, validated once."""
    text = _read_preset(args.preset) if args.preset else _read_config(args.config)
    raw = _parse_yaml(text)
    if isinstance(raw, dict):
        solver = raw.get("solver") or {}
        for key in ("dt", "t_end"):
            if getattr(args, key) is not None and isinstance(solver, dict):
                solver = raw["solver"] = {**solver, key: getattr(args, key)}
        if args.preset:
            raw["output"] = {**raw["output"], "name": args.preset}
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
