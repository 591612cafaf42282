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


@pytest.mark.parametrize(
    "method, loaded", [("exact", "True"), ("rk4", "False")], ids=["exact", "rk4"]
)
def test_an_exact_config_loads_the_exponential_at_load(method, loaded):
    # An exact run imports SciPy while its config is checked, so the run
    # itself allocates nothing for the import; an rk4 config never does.
    proc = _run(["-c", _EXACT_LOAD % method])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", loaded]


def test_check_method_exact_returns_the_loaded_exponential():
    script = (
        "import sys, numpy as np\n"
        "from qregsim.dynamics import check_method\n"
        "from qregsim.register import qubit_register\n"
        "expm = check_method('exact', qubit_register(2))\n"
        "import scipy.linalg\n"
        "print(expm is scipy.linalg.expm, np.allclose(expm(np.zeros((2, 2))), np.eye(2)))\n"
    )
    proc = _run(["-c", script])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["True", "True"]


def test_only_linalg_names_scipy():
    # qregsim.linalg is the one module that imports SciPy.
    naming = sorted(
        p.name for p in (SRC / "qregsim").glob("*.py") if "scipy" in p.read_text()
    )
    assert naming == ["linalg.py"]
