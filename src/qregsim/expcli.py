"""Command-line front end: experiment configs, figure pipelines, sweep
orchestration, CSV / JSON / plot-script emission.

Config files are YAML with sections ``register``, ``bath``,
``initial_states``, ``solver``, optional ``sweep`` (simulate and
tau_sweep only) and ``codes`` (codes only), and ``output``.  Named
presets (fig1..fig5) ship inside the package.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import json
import os
import sys
import time
from dataclasses import dataclass, fields, replace
from functools import partial
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
    code_bytes,
    dephasing_cluster_code,
    n4_code,
    noiseless_test,
    null_code,
)
from .dynamics import (
    dephasing_check,
    dephasing_frame,
    evolve_into,
    plan,
    run_bytes,
    snapshot_grid,
)
from .errors import ConfigError, DimensionMismatch, IoError, QregError
from .liouvillian import build_bytes, build_liouvillian, canonical_form, check_budget, rates_bytes
from .observables import fidelity, linear_entropy, pure_decoherence_rate, register_energy
from .register import (
    RegisterModel,
    check_ring,
    dephasing_register,
    heisenberg_ring,
    named_state,
    qubit_register,
    setup_bytes,
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
    # the state vectors, built once here, are the runners' own
    object.__setattr__(cfg, "_vectors", _check_with_library(cfg))
    return cfg


def _check_sections(cfg: ExperimentConfig, raw: dict) -> None:
    """The CLI's own rules across sections."""
    if cfg.experiment != "codes" and raw.get("codes") is not None:
        raise ConfigError("codes", "only valid for the codes experiment")
    if cfg.experiment == "codes" and cfg.sweep is not None:
        raise ConfigError("sweep", "only valid for the simulate and tau_sweep experiments")
    if cfg.sweep is None:
        if cfg.experiment == "tau_sweep":
            raise ConfigError("sweep", "tau_sweep requires a sweep section")
        return
    leaf = _sweep_leaf(cfg)
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


def _check_with_library(cfg: ExperimentConfig) -> list:
    """Ranges and consistency, by the library's own builders and guards;
    returns the initial state vectors, built once (``build_state`` needs
    only n; codes reads none), so a bad one is refused at load.

    Each call isolates one field, so an error names it.  Every size is a
    library estimate; the CLI adds only its output table.  The register is
    first sized with no bath (``build_bytes``, or ``rates_bytes`` with no
    terms), a lower bound that reads n alone, so an oversized one is
    refused before a bath builds its N x N matrices.  Then each bath
    point's canonical set sizes the run: simulate by its ``plan``
    (``run_bytes``), codes by ``code_bytes``, each with a ring
    interaction's builder on top (``setup_bytes``), and tau_sweep by
    ``rates_bytes``, which counts the states and the ring itself.
    """
    reg, bath, solver, method = cfg.register, cfg.bath, cfg.solver, cfg.solver["method"]
    n = reg["n"]
    _library("register.n", dephasing_register, n)
    _library("register.epsilon", qubit_register, 1, reg["epsilon"])
    ring = reg["interaction"]["kind"] != "none"
    if ring:
        _library("register.interaction.kind", check_ring, n)
        _library("register.interaction.j", check_ring, n, reg["interaction"]["j"])
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
    tau = cfg.experiment == "tau_sweep"  # the one experiment without a generator
    what = f"decoherence rates for {n} cells need" if tau else f"run for {n} cells needs"
    extra = 0 if tau else setup_bytes(n, ring)  # a ring's builder
    rates = partial(rates_bytes, model, states=cfg.initial_states, ring=ring)  # per bath
    _library("register.n", check_budget, rates(None) if tau else extra + build_bytes(model), what)
    # canonical_form also pairs bath and register: a partition may list other cells
    base = _library(own, canonical_form, model, _library(own, build_bath, cfg))
    specs = [_library("sweep.values", build_bath, cfg, o) for o in _sweep_overrides(cfg)]
    if tau:
        _library("register.n", check_budget, max(map(rates, specs)), what)
    sets = [] if tau else [canonical_form(model, spec) for spec in specs] or [base]
    _library("solver.dt", snapshot_grid, 0.0, solver["dt"])
    _library("solver.t_end", snapshot_grid, solver["t_end"], solver["dt"])
    _library("solver.stride", snapshot_grid, 0.0, solver["dt"], solver["stride"])
    if cfg.experiment == "simulate":
        # A plan of no states only checks that the method takes the
        # register.  The dephasing rule tests the d x d cell operator
        # before it builds the register's H (a ring's SU(2) check is O(D^3)).
        _library("solver.method", plan, base, [], method)
        if method == "dephasing":
            _library("solver.method", dephasing_frame, model)
            _library("solver.method", dephasing_check, build_register(cfg))
    if cfg.codes is not None and cfg.codes["kind"] == "n4":  # the codewords' own n
        _library("codes.kind", named_state, "codeword0", n)
    if cfg.codes is not None and cfg.codes["kind"] == "cluster":
        cluster, target = cfg.codes["cluster_size"], cfg.codes["target_zspin"]
        _library("codes.cluster_size", check_cluster_size, n, cluster)
        _library("codes.target_zspin", check_cluster_size, n, cluster, target)
    if cfg.experiment == "codes":  # codes reads no initial state
        need = max(code_bytes(lset, 0) for lset in sets) + extra
        _library("register.n", check_budget, need, what)
        return []
    psis = [build_state(entry, model) for entry in cfg.initial_states]
    if cfg.experiment == "simulate":
        steps = snapshot_grid(solver["t_end"], solver["dt"], solver["stride"])[1]
        table = 16 * (1 + 3 * len(sets) * len(psis)) * len(steps)  # series and columns
        # The load register has no ring, and a ring's H_q are not multiples
        # of the identity, so its block runs are complex: the plan sees the
        # states with a phase, which keeps their blocks.
        planned = [1j * psi for psi in psis] if ring else psis
        plans = [plan(lset, planned, method) for lset in sets]
        need = max(build_bytes(model), run_bytes(plans)) + extra
        _library("register.n", check_budget, need + table, what)
    return psis


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


def _sweep_leaf(cfg: ExperimentConfig) -> str:
    """The bath field the sweep sets (``xi`` of ``bath.xi``); "" without a
    sweep."""
    return cfg.sweep["parameter"].split(".", 1)[1] if cfg.sweep else ""


def _sweep_overrides(cfg: ExperimentConfig) -> list[dict]:
    """Bath overrides of each sweep point, in order (empty without a sweep)."""
    leaf = _sweep_leaf(cfg)
    return [{leaf: v} for v in cfg.sweep["values"]] if cfg.sweep else []


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
    # gauge_phased, the last of the models FIELDS admits
    return gauge_phased(replica_symmetric(n, gm, gp, ratio), b["phases"])


def _state_names(cfg: ExperimentConfig) -> list[str]:
    """Each initial state's column name: its name with ":" and "," as "_",
    no blanks and "-" as "m", or state<index> for an amplitude list."""
    fold = str.maketrans({":": "_", ",": "_", " ": "", "-": "m"})
    states = enumerate(cfg.initial_states)
    return [s.translate(fold) if isinstance(s, str) else f"state{i}" for i, s in states]


def build_state(entry, model: RegisterModel) -> np.ndarray:
    """The initial state ``entry`` on the register (``register.named_state``)."""
    return _library("initial_states", named_state, entry, model.n_cells)


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
    and E as it arrives, a block-form snapshot on its packed blocks, so no
    snapshot outlives its step.
    """
    model = build_register(cfg)
    names, psis = _state_names(cfg), cfg._vectors
    solver = cfg.solver
    points = _sweep_overrides(cfg) or [None]
    h, steps = snapshot_grid(solver["t_end"], solver["dt"], solver["stride"])
    # [observable, point, state, snapshot] for F, delta and E
    series = np.empty((3, len(points), len(psis), len(steps)))
    f, delta, e = series

    def observe(liouv, p, s, k, rho, layout):
        f[p, s, k] = fidelity(rho, psis[s], layout)
        delta[p, s, k] = linear_entropy(rho, layout)
        e[p, s, k] = register_energy(rho, liouv, layout)

    liouvs = (build_liouvillian(model, build_bath(cfg, o)) for o in points)
    # The solver section's keys are evolve_into's keyword arguments.
    metas = evolve_into(liouvs, psis, observe, **solver)
    columns, data = ["t"], []
    for p, overrides in enumerate(points):
        suffix = "".join(f"_{k}{v:g}" for k, v in (overrides or {}).items())
        for s, name in enumerate(names):
            state_tag = f"_{name}" if (len(names) > 1 or suffix) else ""
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

    Only the bath changes along the sweep.  Every point rates all states
    in one ``pure_decoherence_rate`` call, which picks the route; on a
    structured set the states' cell covariance, which does not depend on
    the bath, is built once per run, each sector's at the first point with
    terms there, as the calls share one ``known`` dict.
    """
    model = build_register(cfg)
    # (D, S) with each state's column contiguous, as the state alone
    psis = np.array(cfg._vectors).T
    leaf = _sweep_leaf(cfg)
    rows, known = [], {}
    for overrides in _sweep_overrides(cfg):
        lset = canonical_form(model, build_bath(cfg, overrides))
        rows.append([overrides[leaf], *pure_decoherence_rate(lset, psis, known)])
    columns = [leaf] + [f"rate_{name}" for name in _state_names(cfg)]
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
    # a null code's dimension is known only now: its columns are sized here
    check_budget(code_bytes(lset, code.dim), f"codes run for {cfg.register['n']} cells needs")
    rates = pure_decoherence_rate(lset, code.basis)
    verdict, residuals = noiseless_test(code, liouv)
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
        "residuals": residuals,
        "labels": [[lab.real, lab.imag] for lab in labels],
        "basis_re_im": np.stack([code.basis.real, code.basis.imag], -1),
    }
    return ResultTable(columns=tuple(columns), values=values, provenance=prov)


# --------------------------------------------------------------------------
# Output emission
# --------------------------------------------------------------------------


@contextlib.contextmanager
def _rewrite(path: Path, newline: str | None = None):
    """A text stream that writes ``path`` over its old bytes, in place.

    The file is opened without ``O_TRUNC``: on ext4 (default
    ``auto_da_alloc``) closing a file truncated to zero forces a flush of
    its data, and so does renaming a temporary file over it.  After the
    last write a file that had bytes is cut at the stream's position, so
    a longer old file loses its tail; an empty or special file (such as
    ``/dev/null``, which cannot be cut) is not.  Inode, mode, hard links
    and a symlink's target are kept, as with ``"w"``.
    """
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "w", newline=newline) as fh:
        stale = os.fstat(fh.fileno()).st_size
        yield fh
        if stale:
            fh.truncate()


def _write_csv(path: Path, columns, values) -> None:
    """The header, then each row of ``values`` as floats: ``csv`` writes a
    float as its ``repr``, the shortest text that reads back to it."""
    with _rewrite(path, newline="") as fh:
        writer = csv.writer(fh, lineterminator="\r\n")
        writer.writerow(columns)
        writer.writerows(np.asarray(values, dtype=float).tolist())


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
            leaf = _sweep_leaf(cfg)
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
    """Write CSV, JSON sidecar, and a gnuplot script; returns paths.

    Each file is rewritten in place, never truncated to zero first: on
    ext4 a file truncated to zero is flushed to disk when it is closed,
    which cost more than computing the outputs.  A crash during a write
    can therefore leave old bytes after the new ones, where ``"w"`` left
    a short file; the outputs are deterministic, so a rerun restores them.
    """
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
                    _write_csv(bpath, header, basis.reshape(basis.shape[0], -1))
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
            with _rewrite(path) as fh:
                json.dump(sidecar, fh, indent=2, sort_keys=True)
                fh.write("\n")
            written.append(path)
        if "gnuplot" in formats:
            path = directory / f"{name}.gp"
            with _rewrite(path) as fh:
                fh.write(_plot_script(table, cfg))
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
    except IoError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 3
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
