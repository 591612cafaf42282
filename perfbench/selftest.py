"""Self-test of the benchmark harness; checks shape, never absolute times.

    python3 perfbench/selftest.py

* ``BENCHMARK.json`` keeps to its schema and names the metrics ``run.py``
  reports, with the same units;
* a one-second untraced run of every workload prints a result line with
  every end-to-end metric, and nothing failed;
* a one-second traced run prints every per-layer metric, no span name a
  metric reads is absent, and the layers' self times account for the
  traced wall time;
* in a directory holding only ``BENCHMARK.json`` and the benchmark, the
  command exits nonzero without printing a result.

Takes about two minutes.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run
import workloads

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
TRACED_WORKLOAD = "spectral"


def check_spec(spec: dict) -> None:
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert spec["paths"] == ["perfbench"]
    assert isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60
    assert [w["name"] for w in spec["workloads"]] == list(workloads.NAMES)
    for w in spec["workloads"]:
        assert set(w) == {"name", "why"} and "\n" not in w["why"] and len(w["why"]) <= 200
    names = [m["name"] for key in ("end_to_end", "per_layer") for m in spec[key]]
    assert len(names) == len(set(names)), "metric names repeat"
    for key, fields in (("end_to_end", {"name", "unit", "better", "bound"}), ("per_layer", {"name", "unit", "better"})):
        for m in spec[key]:
            assert set(m) == fields, m
            assert NAME.fullmatch(m["name"]) and UNIT.fullmatch(m["unit"]), m
            assert m["better"] in ("lower", "higher"), m
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert [m["name"] for m in spec["per_layer"]] == run.per_layer_names()
    for m in spec["per_layer"]:
        assert m["unit"] == run.unit_of(m["name"]), m


def run_bench(cwd: Path, command: list, workload: str, trace: int) -> tuple[int, list[str]]:
    argv = command + ["--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=cwd, stdout=subprocess.PIPE, text=True, timeout=300, check=False)
    return proc.returncode, proc.stdout.splitlines()


def check_result(line: str, metrics: list[dict]) -> dict:
    result = json.loads(line)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert result["failed"] == 0 and result["correct"] is True, result
    assert list(result["metrics"]) == [m["name"] for m in metrics]
    for m in metrics:
        got = result["metrics"][m["name"]]
        assert set(got) == {"value", "unit"} and got["unit"] == m["unit"], got
        assert isinstance(got["value"], (int, float)), got
    return result["metrics"]


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    check_spec(spec)
    for name in workloads.NAMES:
        code, lines = run_bench(run.ROOT, spec["command"], name, 0)
        assert code == 0, (name, code)
        metrics = check_result(lines[-1], spec["end_to_end"])
        assert all(v["value"] > 0 for v in metrics.values()), (name, metrics)
        print(f"ok: {name} untraced")
    code, lines = run_bench(run.ROOT, spec["command"], TRACED_WORKLOAD, 1)
    assert code == 0, code
    metrics = check_result(lines[-1], spec["per_layer"])
    detail = json.loads(lines[-2])["detail"]
    assert detail["absent"] == [] and detail["hook_errors"] == 0, detail
    accounted = metrics["trace.accounted_frac"]["value"]
    assert 0.95 <= accounted <= 1.0 + 1e-9, accounted
    print(f"ok: {TRACED_WORKLOAD} traced")
    run.WORK_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.WORK_DIR) as tmp:
        bare = Path(tmp)
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(run.HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        code, lines = run_bench(bare, spec["command"], "figures", 0)
        assert code != 0 and not any(line.startswith('{"correct"') for line in lines), (code, lines)
    run.WORK_DIR.rmdir()
    print("ok: bare directory refused")
    return 0


if __name__ == "__main__":
    sys.exit(main())
