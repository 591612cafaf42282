"""Cold start: SciPy loads only on the paths that exponentiate.

Each check runs in a fresh interpreter, since this test process has
SciPy loaded already.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import qregsim

HERE = Path(__file__).resolve().parent
SRC = Path(qregsim.__file__).resolve().parents[1]


def _run(args, **kwargs) -> subprocess.CompletedProcess:
    path = os.pathsep.join([str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p])
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
        **kwargs,
    )


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "optimized"])
def test_import_and_presets_load_no_scipy(flags):
    proc = _run([*flags, str(HERE / "cold_start.py")])
    assert proc.returncode == 0, proc.stderr


def test_cold_start_check_fails_when_scipy_is_loaded():
    # The check can fail: with scipy.linalg loaded first it exits 1.
    script = (
        "import runpy, scipy.linalg\n"
        f"runpy.run_path({str(HERE / 'cold_start.py')!r}, run_name='__main__')\n"
    )
    proc = _run(["-c", script])
    assert proc.returncode == 1
    assert "scipy.linalg" in proc.stderr


_EXACT_LOAD = """
import sys
from qregsim.expcli import config_from_dict
raw = {
    "experiment": "simulate",
    "register": {"n": 2},
    "bath": {"model": "cell_limit", "gamma_minus": 0.1},
    "solver": {"method": "%s"},
}
before = "scipy.linalg" in sys.modules
config_from_dict(raw)
print(before, "scipy.linalg" in sys.modules)
"""


@pytest.mark.parametrize("method", ["exact", "rk4"])
def test_an_exact_config_loads_the_exponential_at_load(method):
    # Checking a config imports no SciPy, whatever its method: the exact
    # solver's exponential is NumPy alone.
    proc = _run(["-c", _EXACT_LOAD % method])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "False"]


def test_evolve_exact_loads_no_scipy():
    # Both exact paths, the excitation sector (a block-diagonal state) and
    # the full superoperator (uniform), exponentiate without SciPy.
    script = (
        "import sys\n"
        "from qregsim.bath import exponential_decay\n"
        "from qregsim.dynamics import evolve\n"
        "from qregsim.liouvillian import build_liouvillian\n"
        "from qregsim.register import pair_singlet_state, qubit_register\n"
        "import numpy as np\n"
        "model = qubit_register(2)\n"
        "liouv = build_liouvillian(model, exponential_decay(2, 0.1, 0.02, 1.0))\n"
        "for rho in (pair_singlet_state(2), np.full((4, 4), 0.25)):\n"
        "    (traj,) = evolve(liouv, [rho], 1.0, 0.01, 50, method='exact')\n"
        "    print(traj.metadata['form'])\n"
        "print('scipy' in sys.modules)\n"
    )
    proc = _run(["-c", script])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["blocks", "dense", "False"]


def test_only_linalg_names_scipy():
    # qregsim.linalg is the one module that imports SciPy.
    naming = sorted(
        p.name for p in (SRC / "qregsim").glob("*.py") if "scipy" in p.read_text()
    )
    assert naming == ["linalg.py"]
