"""Cold-start check: importing qregsim and its CLI module and loading the
presets fig1-fig5 loads no SciPy module.

Exits with status 1, naming the loaded modules on stderr, if any
``scipy`` module is loaded, and 0 otherwise.  The verdict is the exit
status, not an assert, so it also holds under ``python -O``:

    python tests/cold_start.py
    python -O tests/cold_start.py
"""

import sys


def main() -> int:
    import qregsim  # noqa: F401
    from qregsim import expcli

    for name in expcli.PRESETS:
        expcli.load_preset(name)
    loaded = sorted(m for m in sys.modules if m.partition(".")[0] == "scipy")
    if loaded:
        print(f"SciPy loaded at cold start: {', '.join(loaded)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
