"""Cold-start check: importing qregsim and its CLI module, loading the
presets fig1-fig5 and running two exact configs end to end loads no SciPy
module.

The exact runs go through ``run_simulate`` and ``emit_outputs``: an N = 4
two-point xi sweep, which exponentiates on the excitation sector, and an
N = 3 run on ``uniform``, which falls back to the full superoperator.

Exits with status 1, naming the loaded modules on stderr, if any
``scipy`` module is loaded or an exact run took another path, and 0
otherwise.  The verdict is the exit status, not an assert, so it also
holds under ``python -O``:

    python tests/cold_start.py
    python -O tests/cold_start.py
"""

import sys
import tempfile

EXACT = {"experiment": "simulate", "register": {"n": 4}}
BATH = {"model": "exponential", "gamma_minus": 0.1, "gamma_plus": 0.02}
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


def main() -> int:
    import qregsim  # noqa: F401
    from qregsim import expcli

    for name in expcli.PRESETS:
        expcli.load_preset(name)
    with tempfile.TemporaryDirectory() as out:
        for name, overrides, forms in RUNS:
            cfg = expcli.config_from_dict(dict(EXACT, output={"name": name}, **overrides))
            table = expcli.run_simulate(cfg)
            expcli.emit_outputs(table, cfg, out_dir=out)
            if table.provenance["solver"]["forms"] != forms:
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
