"""Per-layer metrics derived from one traced pass.

``_calls`` are exact counts and ``_s`` busy time (summed over threads) of
the named function's spans.  ``<layer>.self_s`` is the self time of every
span of that layer; for ``expcli`` it leaves out the runners, whose self
time is ``expcli.runner_self_s``.  Together they account for the traced
wall time: ``trace.accounted_frac`` is their sum, less the time worker
threads overlapped one another, over the traced wall time.
"""

from __future__ import annotations

from collections import defaultdict

from tracer import APPLY, LAYERS, self_times

RUNNERS = ("expcli.run_simulate", "expcli.run_tau_sweep", "expcli.run_codes")
BUILD = "liouvillian.build_liouvillian"
INTEGRATE = "dynamics.integrate"
EMIT = "expcli.emit_outputs"

# (metric prefix, span name) pairs reported as <prefix>_calls and <prefix>_s.
COUNTED = (
    ("liouvillian.build", BUILD),
    ("liouvillian.apply", APPLY),
    ("liouvillian.canonical_form", "liouvillian.canonical_form"),
    ("liouvillian.superop", "liouvillian.superoperator_matrix"),
    ("dynamics.integrate", INTEGRATE),
    ("dynamics.check_state", "dynamics.check_state"),
    ("linalg.expm", "linalg.expm_action"),
    ("observables.fidelity", "observables.fidelity"),
    ("observables.linear_entropy", "observables.linear_entropy"),
    ("observables.register_energy", "observables.register_energy"),
    ("observables.pure_decoherence_rate", "observables.pure_decoherence_rate"),
)
# (metric, span name) pairs reported as busy time only.
TIMED = (
    ("linalg.nullspace_s", "linalg.common_nullspace"),
    ("codes.null_code_s", "codes.null_code"),
    ("codes.cluster_code_s", "codes.dephasing_cluster_code"),
    ("codes.is_noiseless_s", "codes.is_noiseless"),
)
# Every span name a metric reads; one that disappears is reported absent.
REQUIRED = tuple(
    sorted({n for _, n in COUNTED} | {n for _, n in TIMED} | set(RUNNERS) | {EMIT})
)


def _bath_key(spec) -> bytes:
    parts = [spec.gamma_minus, spec.gamma_plus, spec.delta_minus, spec.delta_plus]
    return b"|".join(b"-" if p is None else p.tobytes() for p in parts)


HOOKS = {
    BUILD: lambda args, kwargs, result: (_bath_key(args[1]), args, kwargs),
    APPLY: lambda args, kwargs, result: (args[0].dim, len(args[0].lindblad)),
    INTEGRATE: lambda args, kwargs, result: (
        result.metadata["n_steps"],
        result.metadata["error_estimate"],
    ),
    EMIT: lambda args, kwargs, result: sum(p.stat().st_size for p in result),
}


def apply_flops(dim: int, terms: int) -> int:
    """Dense operation count of one seed-style apply: (2 + 2K) D^3 complex
    multiply-adds at 8 real flops each."""
    return (2 + 2 * terms) * 8 * dim**3


def _top_in_layer(span, by_id, layer: str) -> bool:
    parent = span[5]
    while parent is not None:
        p = by_id[parent]
        if p[1].split(".", 1)[0] == layer:
            return False
        parent = p[5]
    return True


def layer_metrics(spans, traced_wall_s: float, untraced_wall_s: float) -> dict:
    by_id = {s[0]: s for s in spans}
    selfs, overlap_ns = self_times(spans)
    by_name = defaultdict(list)
    for s in spans:
        by_name[s[1]].append(s)

    def busy(name) -> float:
        return sum(s[3] - s[2] for s in by_name[name]) * 1e-9

    m = {}
    for prefix, name in COUNTED:
        m[f"{prefix}_calls"] = len(by_name[name])
        m[f"{prefix}_s"] = busy(name)
    for metric, name in TIMED:
        m[metric] = busy(name)

    applies = by_name[APPLY]
    apply_s = m["liouvillian.apply_s"]
    m["liouvillian.apply_us"] = apply_s / len(applies) * 1e6 if applies else 0.0
    flops = sum(apply_flops(*s[6]) for s in applies if s[6] is not None)
    m["liouvillian.apply_gflops"] = flops / apply_s * 1e-9 if apply_s else 0.0

    integrates = [s[6] for s in by_name[INTEGRATE] if s[6] is not None]
    m["dynamics.integrate_self_s"] = sum(selfs[s[0]] for s in by_name[INTEGRATE]) * 1e-9
    m["dynamics.rk4_steps"] = sum(steps for steps, _ in integrates)
    m["dynamics.max_trace_drift"] = max((d for _, d in integrates), default=0.0)

    register = [s for s in spans if s[1].startswith("register.")]
    m["register.s"] = sum(
        s[3] - s[2] for s in register if _top_in_layer(s, by_id, "register")
    ) * 1e-9
    baths = [
        s for s in spans if s[1].startswith("bath.") and _top_in_layer(s, by_id, "bath")
    ]
    m["bath.build_calls"] = len(baths)
    m["bath.build_s"] = sum(s[3] - s[2] for s in baths) * 1e-9

    runners = [s for name in RUNNERS for s in by_name[name]]
    runner_ids = {s[0] for s in runners}
    runner_wall = sum(s[3] - s[2] for s in runners)
    child_ns = sum(s[3] - s[2] for s in spans if s[5] in runner_ids)
    m["expcli.runner_self_s"] = sum(selfs[s[0]] for s in runners) * 1e-9
    m["expcli.runner_busy_ratio"] = child_ns / runner_wall if runner_wall else 0.0

    def root_of(span):
        while span[5] is not None:
            span = by_id[span[5]]
        return span[0]

    builds = [s for s in by_name[BUILD] if s[6] is not None]
    distinct = {(root_of(s), s[6][0]) for s in builds}
    m["expcli.generator_reuse"] = len(distinct) / len(builds) if builds else 0.0
    m["expcli.emit_s"] = busy(EMIT)
    m["expcli.emit_bytes"] = sum(s[6] or 0 for s in by_name[EMIT])

    layer_self = defaultdict(int)
    for s in spans:
        if s[0] not in runner_ids:
            layer_self[s[1].split(".", 1)[0]] += selfs[s[0]]
    for layer in LAYERS:
        m[f"{layer}.self_s"] = layer_self[layer] * 1e-9
    accounted_s = sum(layer_self.values()) * 1e-9 + m["expcli.runner_self_s"]
    m["trace.parallel_overlap_s"] = overlap_ns * 1e-9
    m["trace.accounted_frac"] = (accounted_s - overlap_ns * 1e-9) / traced_wall_s
    m["trace.overhead_frac"] = traced_wall_s / untraced_wall_s - 1.0
    m["trace.spans"] = len(spans)
    return m


def distinct_builds(spans) -> list[tuple]:
    """(args, kwargs) of each distinct generator build, for a memory replay."""
    seen, out = set(), []
    for s in spans:
        if s[1] == BUILD and s[6] is not None and s[6][0] not in seen:
            seen.add(s[6][0])
            out.append(s[6][1:])
    return out
