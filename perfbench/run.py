"""qregsim benchmark: runs one workload and prints its metrics.

    python3 perfbench/run.py --workload figures --seed 0 --seconds 16 --trace 0
    python3 perfbench/run.py --workload all            # every workload in turn

Runs the library found in ``src/`` beside this directory, through its
public library and CLI functions only (``load_preset``/``config_from_dict``,
the ``run_*`` runners, ``emit_outputs``).  One single-threaded load loop runs
the workload's configs in order, closed loop; the library's own thread
pool runs as users get it, and the BLAS thread count is pinned per
workload (``workloads.BLAS_THREADS``).

``--trace 0`` reports the end-to-end metrics:

* ``wall_s``: median over warm passes run for ``--seconds`` seconds; a
  pass is the runner calls plus ``emit_outputs`` to a scratch directory.
  The correctness check runs outside the timed region.
* ``setup_s``: median over SETUP_RUNS fresh interpreters, one at a time,
  from spawn until ``import qregsim`` and loading and validating the
  workload's configs are done.
* ``peak_mem_mb``: peak bytes allocated (tracemalloc) during the first
  pass, which also warms the caches for the timed passes.

``--trace 1`` reports the per-layer metrics of ``perlayer.py``: a warm
pass and untraced passes for ``--seconds`` seconds, then one traced pass,
then the per-N scaling table.  Spans are written to
``.perfbench_out/`` when the run ends.

Every config run is checked (``checks.py``); ``failed`` counts the runs
that raised or failed a check.  Output: readable lines, one JSON line of
details (machine context, samples, problems), then the result line.
Exits 2 without a result when ``src/qregsim`` is missing.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import select
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
import tracemalloc
from pathlib import Path

import context
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".bench_work"
OUT_DIR = ROOT / ".perfbench_out"
SETUP_RUNS = 7
TRACED_SETUP_RUNS = 3
CHILD_TIMEOUT_S = 120

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_mem_mb": "MB"}


def unit_of(name: str) -> str:
    base = name.rsplit(".N", 1)[0] if name.startswith("scale.") else name
    if base.endswith(("_calls", "_steps", "_identical", "_compared")) or base == "trace.spans":
        return "count"
    for suffix, unit in (("_bytes", "bytes"), ("_mb", "MB"), ("_us", "us"), ("_gflops", "GFLOP/s")):
        if base.endswith(suffix):
            return unit
    if base.endswith(("_s", ".s")):
        return "s"
    return "1"


def per_layer_names() -> list[str]:
    import perlayer
    import scaling

    names = ["setup.import_s", "expcli.config_s"]
    names += list(perlayer.layer_metrics([], 1.0, 1.0))
    names += ["liouvillian.build_peak_mb", "expcli.csv_identical", "expcli.csv_compared"]
    return names + scaling.metric_names()


def tail_percentile(samples: list[float]):
    """Highest whole percentile with at least ten samples beyond it, as
    (percentile, value), or None with fewer than 11 samples."""
    n = len(samples)
    if n < 11:
        return None
    p = math.floor(100 * (n - 10) / n)
    return p, sorted(samples)[max(math.ceil(p / 100 * n) - 1, 0)]


class Ledger:
    """Attempted and failed config runs, per config."""

    def __init__(self, cfgs):
        self.names = [c.output["name"] for c in cfgs]
        self.attempted = [0] * len(cfgs)
        self.failed = [0] * len(cfgs)
        self.problems: list[str] = []
        self.csv_identical = self.csv_compared = 0

    def _note(self, i: int, problems: list[str]) -> None:
        if len(self.problems) < 20:
            self.problems += [f"{self.names[i]}: {p}" for p in problems]

    def record(self, checker, outcomes, out_dir: Path) -> None:
        identical = []
        for i, outcome in enumerate(outcomes):
            self.attempted[i] += 1
            if isinstance(outcome, Exception):
                problems = traceback.format_exception_only(type(outcome), outcome)
            else:
                csv_path = out_dir / f"{self.names[i]}.csv"
                problems, same = checker.check_run(i, outcome, csv_path)
                if same is not None:
                    identical.append(same)
            if problems:
                self.failed[i] += 1
                self._note(i, problems)
        self.csv_identical, self.csv_compared = sum(identical), len(identical)

    def fail_all(self, i: int, problems: list[str]) -> None:
        self.failed[i] = self.attempted[i]
        self._note(i, problems)


def run_pass(cfgs, out_dir: Path) -> tuple[list[float], list]:
    """One pass over the configs; returns each config's wall time (runner
    plus emit_outputs) and its table, or the exception it raised."""
    from qregsim import expcli

    times, outcomes = [], []
    for cfg in cfgs:
        t0 = time.perf_counter()
        try:
            table = getattr(expcli, f"run_{cfg.experiment}")(cfg)
            expcli.emit_outputs(table, cfg, out_dir=str(out_dir))
            outcomes.append(table)
        except Exception as exc:  # a failed operation is counted, not fatal
            traceback.print_exc()
            outcomes.append(exc)
        times.append(time.perf_counter() - t0)
    return times, outcomes


def timed_passes(cfgs, out_dir, seconds, checker, ledger) -> list[list[float]]:
    """Passes for ``seconds`` seconds (at least one); per-pass config times."""
    passes = []
    begin = time.perf_counter()
    while not passes or time.perf_counter() - begin < seconds:
        times, outcomes = run_pass(cfgs, out_dir)
        passes.append(times)
        ledger.record(checker, outcomes, out_dir)
    return passes


def _child_env() -> dict:
    paths = [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(paths))


def measure_setup(workload: str, seed: int, runs: int) -> dict:
    """Time fresh interpreters, one at a time, until each reports ready."""
    out = {"total": [], "import_s": [], "config_s": []}
    cmd = [sys.executable, str(HERE / "setup_child.py"), workload, str(seed)]
    for _ in range(runs):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, env=_child_env(), cwd=ROOT) as proc:
            try:
                ready, _, _ = select.select([proc.stdout], [], [], CHILD_TIMEOUT_S)
                line = proc.stdout.readline() if ready else b""
                total = time.perf_counter() - t0
                proc.stdout.read()
                code = proc.wait(timeout=CHILD_TIMEOUT_S)
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
        if code != 0 or not line:
            raise RuntimeError(f"set-up child exited with code {code}")
        info = json.loads(line)
        if not Path(info["qregsim_file"]).resolve().is_relative_to(SRC):
            raise RuntimeError(f"set-up child imported qregsim from {info['qregsim_file']}")
        out["total"].append(total)
        out["import_s"].append(info["import_s"])
        out["config_s"].append(info["config_s"])
    return out


def build_peak_mb(builds) -> float:
    """Largest tracemalloc peak of rebuilding each distinct generator."""
    from qregsim import build_liouvillian

    peak = 0
    for args, kwargs in builds:
        tracemalloc.start()
        try:
            build_liouvillian(*args, **kwargs)
            peak = max(peak, tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    return peak / 1e6


def write_spans(path: Path, spans, header: dict) -> None:
    from tracer import self_times

    selfs, _ = self_times(spans)
    t0 = min((s[2] for s in spans), default=0)
    threads = {}
    with path.open("w") as fh:
        fh.write(json.dumps(header) + "\n")
        for sid, name, start, end, tid, parent, _ in sorted(spans, key=lambda s: s[2]):
            thread = threads.setdefault(tid, len(threads))
            fh.write(json.dumps([sid, name, start - t0, end - t0, thread, parent, selfs[sid]]) + "\n")


def untraced_run(args, cfgs, checker, ledger, work) -> tuple[dict, dict]:
    setup = measure_setup(args.workload, args.seed, SETUP_RUNS)
    tracemalloc.start()
    try:
        _, outcomes = run_pass(cfgs, work)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    ledger.record(checker, outcomes, work)
    passes = timed_passes(cfgs, work, args.seconds, checker, ledger)
    walls = [sum(p) for p in passes]
    metrics = {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(setup["total"]),
        "peak_mem_mb": peak / 1e6,
    }
    samples = {"wall_s": walls, "setup_s": setup["total"], "peak_mem_mb": [peak / 1e6]}
    return metrics, {"samples": samples, "pass_config_times_s": passes}


def traced_run(args, cfgs, checker, ledger, work, ctx) -> tuple[dict, dict]:
    import perlayer
    import scaling
    from tracer import Tracer

    setup = measure_setup(args.workload, args.seed, TRACED_SETUP_RUNS)
    _, outcomes = run_pass(cfgs, work)
    ledger.record(checker, outcomes, work)
    passes = timed_passes(cfgs, work, args.seconds, checker, ledger)
    tracer = Tracer(perlayer.HOOKS)
    with tracer.installed():
        times, outcomes = run_pass(cfgs, work)
    ledger.record(checker, outcomes, work)
    traced_wall = sum(times)
    metrics = {
        "setup.import_s": statistics.median(setup["import_s"]),
        "expcli.config_s": statistics.median(setup["config_s"]),
    }
    metrics.update(perlayer.layer_metrics(tracer.spans, traced_wall, statistics.median(sum(p) for p in passes)))
    metrics["liouvillian.build_peak_mb"] = build_peak_mb(perlayer.distinct_builds(tracer.spans))
    metrics["expcli.csv_identical"] = ledger.csv_identical
    metrics["expcli.csv_compared"] = ledger.csv_compared
    metrics.update(scaling.scale_table())
    OUT_DIR.mkdir(exist_ok=True)
    spans_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
    write_spans(spans_path, tracer.spans, {"workload": args.workload, "seed": args.seed, "context": ctx})
    extra = {
        "untraced_pass_config_times_s": passes,
        "traced_wall_s": traced_wall,
        "absent": tracer.absent(perlayer.REQUIRED),
        "hook_errors": tracer.hook_errors,
        "spans_file": str(spans_path.relative_to(ROOT)),
        "notes": {
            "liouvillian.apply_gflops": "computed from the dense count (2+2K)*8*D^3 per call",
            "dynamics.max_trace_drift": "Trajectory.metadata['error_estimate'], the largest trace drift",
        },
    }
    return metrics, extra


def _readable(metrics: dict, samples: dict) -> list[str]:
    lines = []
    for name, value in metrics.items():
        text = f"  {name:<36} {value:>14.6g} {unit_of(name)}"
        if name in samples:
            tail = tail_percentile(samples[name])
            text += f"  median of {len(samples[name])}; " + (
                f"p{tail[0]} {tail[1]:.6g}" if tail else "no percentile has 10 samples beyond it"
            )
        lines.append(text)
    return lines


def run_one(args) -> int:
    if not (SRC / "qregsim" / "__init__.py").is_file():
        print(f"benchmark: no qregsim sources under {SRC}", file=sys.stderr)
        return 2
    context.pin_blas_threads(workloads.BLAS_THREADS[args.workload])
    sys.path.insert(0, str(SRC))
    import qregsim

    if not Path(qregsim.__file__).resolve().is_relative_to(SRC):
        print(f"benchmark: imported qregsim from {qregsim.__file__}", file=sys.stderr)
        return 2
    from checks import Checker

    entries = workloads.entries(args.workload, args.seed)
    cfgs = workloads.load(args.workload, args.seed)
    checker = Checker(args.workload, args.seed, entries, cfgs)
    ledger = Ledger(cfgs)
    ctx = context.machine_context(ROOT, SRC)
    WORK_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=WORK_DIR))
    try:
        if args.trace:
            metrics, extra = traced_run(args, cfgs, checker, ledger, work, ctx)
        else:
            metrics, extra = untraced_run(args, cfgs, checker, ledger, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if not any(WORK_DIR.iterdir()):
            WORK_DIR.rmdir()
    for i, problems in checker.structural().items():
        ledger.fail_all(i, problems)

    attempted, failed = sum(ledger.attempted), sum(ledger.failed)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  seconds {args.seconds}")
    for line in _readable(metrics, extra.get("samples", {})):
        print(line)
    print(f"  {'fail_frac':<36} {failed / attempted:>14.6g} 1  ({failed} of {attempted} config runs)")
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "why": workloads.WHY[args.workload],
        "fail_frac": failed / attempted,
        "problems": ledger.problems,
        "context": ctx,
        **extra,
    }
    print(json.dumps({"detail": detail}))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit_of(k) if args.trace else END_TO_END[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


def run_all(args) -> int:
    """Every workload in its own process, one after another."""
    totals = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT, check=False)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            print(f"benchmark: workload {name} exited with code {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        print("\n".join(line for line in lines[:-1] if not line.startswith('{"detail"')))
        result = json.loads(lines[-1])
        totals["correct"] &= result["correct"]
        totals["attempted"] += result["attempted"]
        totals["failed"] += result["failed"]
        totals["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(totals), flush=True)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=workloads.NOMINAL_SEED)
    parser.add_argument("--seconds", type=float, default=16.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
