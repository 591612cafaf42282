"""Correctness gate behind ``failed`` and ``fail_frac``.

Every config run of every pass is checked; a run fails if it raises or if
its outputs fail a check:

* physical ranges, for any seed: fidelity in [0, 1], linear entropy in
  [0, 1 - 1/D], decoherence rates >= 0, and the code dimension and
  noiseless verdict a workload expects;
* the stored reference tables (``reference/``), for ``figures`` always and
  for the other workloads at the nominal seed, within TABLE_ATOL +
  TABLE_RTOL * |reference|;
* once per benchmark run, two independent routes to L(rho0): ``apply``
  against ``pairwise_dissipator`` plus the Hamiltonian term, and ``apply``
  against the dense superoperator.  A config failing one of these counts
  every one of its runs as failed.
"""

from __future__ import annotations

import csv
from pathlib import Path

import numpy as np

import workloads

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
TABLE_RTOL = 1e-9
TABLE_ATOL = 1e-9
RANGE_TOL = 1e-9
# Two routes to L(rho0) must agree to ROUTE_RTOL * max(1, max |L(rho0)|).
ROUTE_RTOL = 1e-10


def reference_path(workload: str, output_name: str) -> Path:
    return REFERENCE_DIR / workload / f"{output_name}.csv"


def has_reference(workload: str, seed: int) -> bool:
    return workload == "figures" or seed == workloads.NOMINAL_SEED


def read_table(path: Path) -> tuple[tuple, np.ndarray]:
    with path.open(newline="") as fh:
        rows = list(csv.reader(fh))
    values = np.array([[float(x) for x in row] for row in rows[1:]], dtype=float)
    return tuple(rows[0]), values.reshape(len(rows) - 1, len(rows[0]))


def _range_problems(cfg, expect: dict, table) -> list[str]:
    problems = []
    cols, values = table.columns, table.values
    if values.shape[0] == 0:
        problems.append("empty table")
    bounds = {}
    if cfg.experiment == "simulate":
        dim = cfg.register["d"] ** cfg.register["n"]
        bounds = {"F": (0.0, 1.0), "delta": (0.0, 1.0 - 1.0 / dim)}
    elif cfg.experiment == "tau_sweep":
        bounds = {"rate_": (0.0, np.inf)}
    for j, col in enumerate(cols):
        for prefix, (lo, hi) in bounds.items():
            if col.startswith(prefix) and values.shape[0]:
                v = values[:, j]
                if v.min() < lo - RANGE_TOL or v.max() > hi + RANGE_TOL:
                    problems.append(
                        f"{col} spans [{v.min():.3e}, {v.max():.3e}], outside [{lo}, {hi}]"
                    )
    code = table.provenance.get("code", {})
    if "code_dim" in expect:
        if code.get("dim") != expect["code_dim"] or values.shape[0] != expect["code_dim"]:
            problems.append(f"code dimension {code.get('dim')}, expected {expect['code_dim']}")
    if "noiseless" in expect and code.get("noiseless") != expect["noiseless"]:
        problems.append(f"noiseless verdict {code.get('noiseless')}, expected {expect['noiseless']}")
    return problems


def _reference_problems(table, ref_cols: tuple, ref_values: np.ndarray) -> list[str]:
    if tuple(table.columns) != ref_cols:
        return ["columns differ from the reference"]
    if table.values.shape != ref_values.shape:
        return [f"shape {table.values.shape} differs from the reference {ref_values.shape}"]
    diff = np.abs(table.values - ref_values)
    if np.any(diff > TABLE_ATOL + TABLE_RTOL * np.abs(ref_values)):
        return [f"differs from the reference by up to {diff.max():.3e}"]
    return []


def _bath_points(cfg):
    if cfg.sweep is None:
        return [None]
    leaf = cfg.sweep["parameter"].split(".", 1)[1]
    return [{leaf: v} for v in cfg.sweep["values"]]


def _pairwise_route(model, bath, liouv, rho):
    from qregsim import pairwise_dissipator

    h = liouv.hamiltonian
    return pairwise_dissipator(model, bath, rho) + 1j * (rho @ h - h @ rho)


def _superop_route(model, bath, liouv, rho):
    from qregsim import superoperator_matrix
    from qregsim.linalg import unvec, vec

    return unvec(superoperator_matrix(liouv) @ vec(rho), liouv.dim)


ROUTES = {
    "apply_matches_pairwise": _pairwise_route,
    "superop_matches_apply": _superop_route,
}


def route_problems(cfg, check: str) -> list[str]:
    """Compare ``Liouvillian.apply`` at t = 0 with another route, for every
    bath point and initial state of the config."""
    from qregsim import build_liouvillian, expcli

    route = ROUTES[check]
    model = expcli.build_register(cfg)
    states = [expcli.build_state(s, model) for s in cfg.initial_states]
    problems = []
    for overrides in _bath_points(cfg):
        bath = expcli.build_bath(cfg, overrides)
        liouv = build_liouvillian(model, bath)
        for k, psi in enumerate(states):
            rho = np.outer(psi, psi.conj())
            want = liouv.apply(rho)
            err = float(np.abs(route(model, bath, liouv, rho) - want).max())
            if err > ROUTE_RTOL * max(1.0, float(np.abs(want).max())):
                problems.append(f"{check}: bath point {overrides}, state {k}: error {err:.3e}")
    return problems


class Checker:
    """Checks the outputs of one workload's configs."""

    def __init__(self, workload: str, seed: int, entries: list, cfgs: list):
        self.entries, self.cfgs = entries, cfgs
        self.refs = {}
        if has_reference(workload, seed):
            for i, cfg in enumerate(cfgs):
                path = reference_path(workload, cfg.output["name"])
                self.refs[i] = (path.read_bytes(), read_table(path))

    def check_run(self, i: int, table, csv_path: Path) -> tuple[list[str], bool | None]:
        """Problems with one run of config i, and whether its CSV is
        byte-identical to the reference (None when there is none)."""
        problems = _range_problems(self.cfgs[i], self.entries[i]["expect"], table)
        identical = None
        if i in self.refs:
            ref_bytes, (cols, values) = self.refs[i]
            identical = csv_path.read_bytes() == ref_bytes
            problems += _reference_problems(table, cols, values)
        return problems, identical

    def structural(self) -> dict[int, list[str]]:
        """Route-comparison problems per config index."""
        out = {}
        for i, (entry, cfg) in enumerate(zip(self.entries, self.cfgs)):
            for check in entry["checks"]:
                problems = route_problems(cfg, check)
                if problems:
                    out.setdefault(i, []).extend(problems)
        return out
