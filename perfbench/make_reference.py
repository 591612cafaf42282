"""Regenerate the reference tables in ``reference/``.

    python3 perfbench/make_reference.py

Runs every workload at the nominal seed and stores each config's main CSV
as ``emit_outputs`` writes it.  Run it only when a change to the outputs is
intended, and say why in the change that commits the new tables.
"""

from __future__ import annotations

import shutil
import sys
import tempfile

import checks
import context
import run
import workloads


def main() -> int:
    # The figures CSVs are also compared byte for byte, so the tables are
    # made with the thread count figures runs with; the other workloads'
    # tables are compared within checks.TABLE_RTOL.
    context.pin_blas_threads(workloads.BLAS_THREADS["figures"])
    sys.path.insert(0, str(run.SRC))
    from qregsim import expcli

    run.WORK_DIR.mkdir(exist_ok=True)
    for name in workloads.NAMES:
        cfgs = workloads.load(name, workloads.NOMINAL_SEED)
        with tempfile.TemporaryDirectory(dir=run.WORK_DIR) as tmp:
            for cfg in cfgs:
                table = getattr(expcli, f"run_{cfg.experiment}")(cfg)
                expcli.emit_outputs(table, cfg, out_dir=tmp)
                dest = checks.reference_path(name, cfg.output["name"])
                dest.parent.mkdir(parents=True, exist_ok=True)
                shutil.copyfile(f"{tmp}/{cfg.output['name']}.csv", dest)
                print(f"wrote {dest.relative_to(run.ROOT)}")
    run.WORK_DIR.rmdir()
    return 0


if __name__ == "__main__":
    sys.exit(main())
