"""Per-N scaling table for the traced run: one timing per stage and register
size, on a qubit register in the nominal exponential bath.

``rk4_step`` is one ``integrate`` call over a single step; it includes the
stability estimate and the check of the two snapshots it stores.  Each
stage repeats until STAGE_BUDGET_S has passed and reports the median call,
so at N = 10 (D = 1024) each stage runs once.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

import workloads

SIZES = (2, 4, 6, 8, 10)
STAGES = ("build_liouvillian", "apply", "rk4_step", "check_state", "canonical_form")
STAGE_BUDGET_S = 0.25
MAX_REPEATS = 50
STEP = 0.01


def _median_call(fn) -> tuple[float, object]:
    times, result = [], None
    begin = time.perf_counter()
    while not times or (
        len(times) < MAX_REPEATS and time.perf_counter() - begin < STAGE_BUDGET_S
    ):
        t0 = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times), result


def metric_names() -> list[str]:
    return [f"scale.{stage}_s.N{n}" for stage in STAGES for n in SIZES]


def scale_table() -> dict:
    import qregsim
    from qregsim.dynamics import check_state

    out = {}
    for n in SIZES:
        model = qregsim.qubit_register(n)
        bath = qregsim.exponential_decay(
            n, workloads.GAMMA_MINUS, workloads.GAMMA_PLUS_NOMINAL, workloads.XI_NEAR[0]
        )
        psi = qregsim.dicke_state(n, n // 2)
        rho = np.outer(psi, psi.conj())
        # Results other than the generator are dropped at once: at N = 10 a
        # stale Lindblad set alone would hold 0.3 GB.
        out[f"scale.canonical_form_s.N{n}"] = _median_call(
            lambda: qregsim.canonical_form(model, bath)
        )[0]
        out[f"scale.build_liouvillian_s.N{n}"], liouv = _median_call(
            lambda: qregsim.build_liouvillian(model, bath)
        )
        out[f"scale.apply_s.N{n}"] = _median_call(lambda: liouv.apply(rho))[0]
        out[f"scale.rk4_step_s.N{n}"] = _median_call(
            lambda: qregsim.integrate(liouv, rho, STEP, STEP, stride=1)
        )[0]
        out[f"scale.check_state_s.N{n}"] = _median_call(lambda: check_state(rho))[0]
        del liouv
    return {name: out[name] for name in metric_names()}
