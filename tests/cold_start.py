"""Cold-start check: importing qregsim and its CLI module, loading the
presets fig1-fig5 and running five configs end to end, which cover the
three experiments and the exact and dephasing solvers, loads no SciPy
module.

Each run goes through its experiment's runner and ``emit_outputs``:
* two exact simulate runs, an N = 4 two-point xi sweep, which
  exponentiates on the excitation sector, and an N = 3 run on
  ``uniform``, which falls back to the full superoperator;
* from tests/configs, the N = 6 ring tau_sweep ``tau/ring6``, the N = 8
  replica null code ``codes/null8`` and the N = 6 dephasing sweep
  ``deph6``, whose sigma_z cells are diagonal: its closed form runs in the
  identity frame and never reaches the Schur frame of a normal,
  non-Hermitian cell operator.

Exits with status 1, naming the loaded modules on stderr, if any
``scipy`` module is loaded or a simulate run took another form than the
one listed, and 0 otherwise.  The verdict is the exit status, not an
assert, so it also holds under ``python -O``:

    python tests/cold_start.py
    python -O tests/cold_start.py
"""

import sys
import tempfile
from pathlib import Path

EXACT = {"experiment": "simulate", "register": {"n": 4}}
BATH = {"model": "exponential", "gamma_minus": 0.1, "gamma_plus": 0.02}
CONFIGS = Path(__file__).resolve().parent / "configs"
# (name, overrides of EXACT, the generator form each state must run on)
RUNS = [
    (
        "exact_sector",
        {
            "bath": BATH,
            "initial_states": ["singlet", "symmetric"],
            "solver": {"method": "exact", "dt": 0.01, "t_end": 2.0, "stride": 100},
            "sweep": {"parameter": "bath.xi", "values": [1.0, 10.0]},
        },
        [["blocks", "blocks"], ["blocks", "blocks"]],
    ),
    (
        "exact_superop",
        {
            "register": {"n": 3},
            "bath": dict(BATH, xi=1.0),
            "initial_states": ["uniform"],
            "solver": {"method": "exact", "dt": 0.01, "t_end": 1.0, "stride": 50},
        },
        [["dense"]],
    ),
]
# (config in tests/configs, the forms of a simulate run's states or None)
FILES = [
    ("tau/ring6", None),
    ("codes/null8", None),
    ("deph6", [["dephasing", "dephasing"]] * 2),
]


def main() -> int:
    import qregsim  # noqa: F401
    from qregsim import expcli

    for name in expcli.PRESETS:
        expcli.load_preset(name)
    configs = [
        (expcli.config_from_dict(dict(EXACT, output={"name": name}, **overrides)), forms)
        for name, overrides, forms in RUNS
    ]
    for name, forms in FILES:
        configs.append((expcli.parse_config((CONFIGS / f"{name}.yaml").read_text()), forms))
    with tempfile.TemporaryDirectory() as out:
        for cfg, forms in configs:
            table = getattr(expcli, f"run_{cfg.experiment}")(cfg)
            expcli.emit_outputs(table, cfg, out_dir=out)
            if forms is not None and table.provenance["solver"]["forms"] != forms:
                name = cfg.output["name"]
                ran = table.provenance["solver"]["forms"]
                print(f"{name} ran on {ran}, not {forms}", file=sys.stderr)
                return 1
    loaded = sorted(m for m in sys.modules if m.partition(".")[0] == "scipy")
    if loaded:
        print(f"SciPy loaded at cold start: {', '.join(loaded)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
