"""Benchmark workloads: the qregsim experiment configs each workload runs.

Problem sizes are fixed.  The seed only redraws bath values (correlation
lengths log-uniform within the ranges below, gamma_plus uniform within
GAMMA_PLUS_RANGE) in ``large_rk4``, ``exact_sweep`` and ``spectral``, so the
cost of a run does not depend on the seed.  ``figures`` always runs the
shipped presets.  Seed NOMINAL_SEED gives the nominal values, for which
reference outputs are stored under ``reference/``.

This module imports nothing from qregsim at import time, so the set-up
child can time ``import qregsim`` on its own.
"""

from __future__ import annotations

import math
import random

NOMINAL_SEED = 0

GAMMA_MINUS = 0.1
GAMMA_PLUS_NOMINAL = 0.02
GAMMA_PLUS_RANGE = (0.01, 0.03)
# Nominal correlation length and the range a seed draws it from.
XI_NEAR = (1.0, (0.5, 2.0))
XI_FAR = (10.0, (5.0, 20.0))
TAU_XI_RANGE = (0.05, 100.0)
TAU_POINTS = 40
# BLAS threads each workload runs with, pinned the same on every commit:
# nproc (2), what users get by default, except in exact_sweep, whose 2-point
# thread pool would otherwise keep 4 threads busy on 2 cores and make its
# pass times range from 2.6 to 4.0 s within one run.
BLAS_THREADS = {"figures": 2, "large_rk4": 2, "exact_sweep": 1, "spectral": 2}
# large_rk4 integrates 2 steps per state, so a pass takes about 1.3 s and a
# run's median is taken over a dozen passes.
LARGE_RK4_T_END = 0.04

WHY = {
    "figures": (
        "presets fig1-fig5 at N = 2 and 4: the no-preset-may-slow-down guard, "
        "where per-call overhead of the small dense generator dominates"
    ),
    "large_rk4": (
        "RK4 at N = 8 (D = 256, K = 16), 2 steps per state: the dense generator "
        "apply, its build and the per-snapshot check_state dominate"
    ),
    "exact_sweep": (
        "exact solver at N = 4 over a 2-point sweep, 1 BLAS thread: dense expm "
        "per snapshot, generator rebuilt per (point, state), 2-thread pool"
    ),
    "spectral": (
        "N = 8 tau_sweep and null/cluster codes: canonical operators, "
        "nullspaces and noiselessness checks instead of applying the generator"
    ),
}

NAMES = tuple(WHY)


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _bath_values(seed: int, rng: random.Random, *xis) -> tuple[float, list[float]]:
    """gamma_plus and one correlation length per (nominal, range) pair."""
    if seed == NOMINAL_SEED:
        return GAMMA_PLUS_NOMINAL, [nominal for nominal, _ in xis]
    gamma_plus = rng.uniform(*GAMMA_PLUS_RANGE)
    return gamma_plus, [_log_uniform(rng, *span) for _, span in xis]


def _exponential(gamma_plus: float, xi: float) -> dict:
    return {
        "model": "exponential",
        "gamma_minus": GAMMA_MINUS,
        "gamma_plus": gamma_plus,
        "xi": xi,
    }


def entries(name: str, seed: int) -> list[dict]:
    """Workload entries in run order.

    Each entry holds ``preset`` (a shipped preset name) or ``raw`` (a config
    mapping for ``config_from_dict``), plus ``expect``: the outcome the
    correctness check requires whatever the seed, and ``checks``: the
    structural invariants to verify on that config.
    """
    if name not in WHY:
        raise ValueError(f"unknown workload {name!r}; choose from {list(NAMES)}")
    rng = random.Random(f"{name}:{seed}")
    if name == "figures":
        return [
            {"preset": f"fig{i}", "expect": {}, "checks": []} for i in range(1, 6)
        ]
    if name == "large_rk4":
        gamma_plus, (xi,) = _bath_values(seed, rng, XI_NEAR)
        raw = {
            "experiment": "simulate",
            "register": {"n": 8, "kind": "qubit"},
            "bath": _exponential(gamma_plus, xi),
            "initial_states": ["singlet", "symmetric"],
            "solver": {"method": "rk4", "dt": 0.02, "t_end": LARGE_RK4_T_END, "stride": 1},
            "output": {"name": "large_rk4"},
        }
        return [{"raw": raw, "expect": {}, "checks": ["apply_matches_pairwise"]}]
    if name == "exact_sweep":
        gamma_plus, xis = _bath_values(seed, rng, XI_NEAR, XI_FAR)
        raw = {
            "experiment": "simulate",
            "register": {"n": 4, "kind": "qubit"},
            "bath": _exponential(gamma_plus, xis[0]),
            "initial_states": ["singlet", "symmetric"],
            "solver": {"method": "exact", "dt": 0.01, "t_end": 10.0, "stride": 100},
            "sweep": {"parameter": "bath.xi", "values": xis},
            "output": {"name": "exact_sweep"},
        }
        return [{"raw": raw, "expect": {}, "checks": ["superop_matches_apply"]}]
    # spectral
    lo, hi = TAU_XI_RANGE
    if seed == NOMINAL_SEED:
        gamma_plus = GAMMA_PLUS_NOMINAL
        ratio = (hi / lo) ** (1.0 / (TAU_POINTS - 1))
        xis = [lo * ratio**k for k in range(TAU_POINTS)]
    else:
        gamma_plus = rng.uniform(*GAMMA_PLUS_RANGE)
        xis = sorted(_log_uniform(rng, lo, hi) for _ in range(TAU_POINTS))
    tau = {
        "experiment": "tau_sweep",
        "register": {"n": 8, "kind": "qubit"},
        "bath": _exponential(gamma_plus, 1.0),
        "initial_states": ["singlet", "symmetric"],
        "sweep": {"parameter": "bath.xi", "values": xis},
        "output": {"name": "spectral_tau"},
    }
    null = {
        "experiment": "codes",
        "register": {"n": 8, "kind": "qubit"},
        "bath": {"model": "replica", "gamma_minus": 0.4, "gamma_plus": 0.1},
        "codes": {"kind": "null"},
        "output": {"name": "spectral_null"},
    }
    cluster = {
        "experiment": "codes",
        "register": {"n": 8, "kind": "dephasing"},
        "bath": {
            "model": "clustered",
            "gamma_minus": 0.4,
            "gamma_plus": 0.1,
            "partition": [[0, 1, 2, 3], [4, 5, 6, 7]],
        },
        "codes": {"kind": "cluster", "cluster_size": 4, "target_zspin": 0},
        "output": {"name": "spectral_cluster"},
    }
    return [
        {"raw": tau, "expect": {}, "checks": []},
        {"raw": null, "expect": {"code_dim": 14, "noiseless": True}, "checks": []},
        {"raw": cluster, "expect": {"code_dim": 36, "noiseless": True}, "checks": []},
    ]


def load(name: str, seed: int) -> list:
    """Validated ExperimentConfigs for a workload, through the CLI loaders."""
    from qregsim import expcli

    return [
        expcli.load_preset(e["preset"]) if "preset" in e else expcli.config_from_dict(e["raw"])
        for e in entries(name, seed)
    ]
