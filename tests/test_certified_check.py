"""The certified snapshot check: ``check_state`` proves a stack of states
valid by one Cholesky factorization per block and runs ``eigvalsh`` only
when that certificate fails.  On every case below the check must raise
exactly when the per-state report check (``state_defect_report`` with its
``eigvalsh``, the check with no certificate) raises, with the same text:
eigenvalues on either side of -1e-7 and inside the certificate's 1e-9
band, real and complex blocks, pure states, a Hermiticity defect just
under its bound pushing the factorized triangle the wrong way, stacks
whose later state fails, the unstable sweep of the CLI, and under
``python -O``."""

import os
import subprocess
import sys
import warnings
from math import comb
from pathlib import Path

import numpy as np
import pytest

from qregsim import dicke_state, expcli
from qregsim import dynamics
from qregsim.dynamics import Trajectory, check_state
from qregsim.errors import UnstableStep
from qregsim.liouvillian import excitation_layout

from helpers import random_pure_state, rng_for

ROOT = Path(__file__).resolve().parent.parent
UNSTABLE = Path(__file__).parent / "configs" / "unstable"
UNSTABLE_CONFIGS = sorted(UNSTABLE.glob("*.yaml"))


def outcome(rho, layout=None) -> str | None:
    """The text check_state raises on rho, or None when it passes."""
    try:
        check_state(rho, layout)
    except UnstableStep as exc:
        return str(exc)
    return None


def uncertified(rho, layout=None) -> str | None:
    """``outcome`` of the check with no certificate: each state's report."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(dynamics, "_certified", lambda rhos, layout=None: False)
        return outcome(rho, layout)


def certified(rho, layout=None) -> bool:
    """Whether the certificate alone passes rho, one state or a stack."""
    rho = np.asarray(rho)
    one = rho.ndim == (2 if layout is None else 1)
    return dynamics._certified(rho[None] if one else rho, layout)


def frame(rng, m: int, real: bool) -> np.ndarray:
    """A random m x m orthogonal (real) or unitary matrix."""
    a = rng.normal(size=(m, m)) if real else rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
    return np.linalg.qr(a)[0]


def hermitian(v: np.ndarray, w: np.ndarray) -> np.ndarray:
    """V diag(w) V^+, made exactly Hermitian."""
    a = (v * w) @ v.conj().T
    return 0.5 * (a + a.conj().T)


def spectra(rng, sizes, lowest: float, at: int) -> list:
    """Positive spectra of the given sizes summing to 1, with block ``at``'s
    smallest eigenvalue set to ``lowest``."""
    ws = [rng.uniform(0.5, 1.5, size=m) for m in sizes]
    ws[at][0] = 0.0
    total = sum(w.sum() for w in ws)
    ws = [w * (1 - lowest) / total for w in ws]
    ws[at][0] = lowest
    return ws


def packed_state(n: int, q: int, lowest: float, real: bool, rng, skew=None):
    """A packed n-qubit state whose block q has smallest eigenvalue
    ``lowest`` and, with ``skew`` (defect, sign), an anti-Hermitian part of
    that Hermiticity defect that moves the factorized triangle's lowest
    eigenvalue by sign * (about half the defect)."""
    layout = excitation_layout(n)
    ws = spectra(rng, layout.sizes, lowest, q)
    blocks = []
    for k, (m, w) in enumerate(zip(layout.sizes, ws)):
        v = frame(rng, int(m), real)
        block = hermitian(v, w)
        if k == q and skew is not None:
            block = block + anti_hermitian(v[:, 0], *skew)
        blocks.append(block.reshape(-1))
    return np.concatenate(blocks), layout


def anti_hermitian(v: np.ndarray, defect: float, sign: int) -> np.ndarray:
    """A = beta (L(M) - L(M)^+), M = v v^+ and L its strictly lower part,
    with ||A - A^+||_F = defect: a Cholesky reading the lower triangle of
    H + A factorizes H + beta (M - diag M), one reading the upper triangle
    H - beta (M - diag M); v^+ (M - diag M) v = 1 - sum |v_i|^4."""
    lower = np.tril(np.outer(v, v.conj()), -1)
    a = lower - lower.conj().T
    return sign * a * defect / np.linalg.norm(2 * a)


def full_state(d: int, lowest: float, real: bool, rng) -> np.ndarray:
    (w,) = spectra(rng, [d], lowest, 0)
    return hermitian(frame(rng, d, real), w)


# the smallest eigenvalue: just past -1e-7, just inside it, inside the
# certificate's band (-1e-7, -1e-7 + 1e-9], above it and zero
LOWEST = [
    (-1e-7 * (1 + 1e-3), "negative eigenvalue -1.001e-07 < -1e-7", False),
    (-1e-7 * (1 - 1e-3), None, False),
    (-0.995e-7, None, False),
    (-0.985e-7, None, True),
    (0.0, None, True),
]


@pytest.mark.parametrize("real", [True, False])
@pytest.mark.parametrize("q", [1, 3])
@pytest.mark.parametrize("lowest, text, sure", LOWEST)
def test_packed_blocks_near_the_eigenvalue_bound(lowest, text, sure, q, real):
    rng = rng_for(f"packed-{lowest}-{q}-{real}")
    packed, layout = packed_state(6, q, lowest, real, rng)
    assert packed.dtype == (np.float64 if real else np.complex128)
    assert certified(packed, layout) is sure
    assert outcome(packed, layout) == uncertified(packed, layout) == text
    # as a D x D matrix at D = 64: packed, and factorized on its blocks
    rho = layout.unpack(packed)
    assert certified(rho) is sure
    assert outcome(rho) == uncertified(rho) == text


@pytest.mark.parametrize("real", [True, False])
@pytest.mark.parametrize("d", [2, 16, 32])
@pytest.mark.parametrize("lowest, text, sure", LOWEST)
def test_full_matrices_near_the_eigenvalue_bound(lowest, text, sure, d, real):
    rho = full_state(d, lowest, real, rng_for(f"full-{lowest}-{d}-{real}"))
    assert certified(rho) is sure
    assert outcome(rho) == uncertified(rho) == text


@pytest.mark.parametrize("lowest, text, sure", LOWEST)
def test_a_one_row_block_is_compared(lowest, text, sure, monkeypatch):
    # q = 0: the 1 x 1 block, certified with no factorization
    packed, layout = packed_state(4, 0, lowest, True, rng_for(f"one-row-{lowest}"))
    factorized = []
    cholesky = np.linalg.cholesky
    monkeypatch.setattr(np.linalg, "cholesky", lambda m: factorized.append(m.shape) or cholesky(m))
    assert certified(packed, layout) is sure
    assert all(shape[-1] > 1 for shape in factorized)
    assert outcome(packed, layout) == uncertified(packed, layout) == text


@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("real", [True, False])
@pytest.mark.parametrize(
    "lowest, defect, text",
    [
        (-1e-7 * (1 + 1e-4), 0.99e-9, "negative eigenvalue -1.000e-07 < -1e-7"),
        (-1e-7 * (1 - 1e-4), 0.99e-9, None),
        (-0.985e-7, 0.99e-9, None),
        (-0.5e-7, 1.01e-9, "hermiticity defect 1.010e-09 > 1e-9"),
    ],
)
def test_a_hermiticity_defect_under_its_bound(lowest, defect, text, real, sign):
    """The defect moves the triangle Cholesky reads by up to half of it,
    either way (sign): never enough to certify a state with an eigenvalue
    past -1e-7."""
    rng = rng_for(f"skew-{lowest}-{defect}-{real}-{sign}")
    packed, layout = packed_state(6, 3, lowest, real, rng, skew=(defect, sign))
    report = dynamics.state_defect_report(packed, layout)
    assert report["hermiticity_defect"] == pytest.approx(defect, rel=1e-6)
    if text is not None:
        assert not certified(packed, layout)
    assert outcome(packed, layout) == uncertified(packed, layout) == text


@pytest.mark.parametrize("n", [4, 6, 8])
def test_pure_states_are_certified(n):
    # psi psi^+ has D - 1 zero eigenvalues, each within rounding of zero
    layout = excitation_layout(n)
    on_one_q = np.zeros(2**n, dtype=complex)
    on_one_q[layout.states[n // 2]] = random_pure_state(rng_for(f"pure-{n}"), comb(n, n // 2))
    on_blocks = [dicke_state(n, n // 2), dicke_state(n, 1), on_one_q]
    uniform = np.full(2**n, 2 ** (-n / 2), dtype=complex)  # off the blocks
    for psi in on_blocks + [uniform]:
        rho = np.outer(psi, psi.conj())
        assert certified(rho) and outcome(rho) is None
    for psi in on_blocks:
        packed = layout.pack(np.outer(psi, psi.conj()))
        assert certified(packed, layout) and outcome(packed, layout) is None
    for psi in on_blocks[:2]:  # real amplitudes: the float64 blocks of a real run
        packed = layout.pack(np.outer(psi, psi.conj())).real.copy()
        assert certified(packed, layout) and outcome(packed, layout) is None


def test_a_stack_raises_the_text_of_its_first_failing_state():
    rng = rng_for("stack-order")
    good, layout = packed_state(6, 2, 0.0, False, rng)
    low, _ = packed_state(6, 3, -2e-7, False, rng)
    lower, _ = packed_state(6, 1, -3e-7, False, rng)
    stack = np.stack([good, low])
    assert outcome(stack, layout) == uncertified(stack, layout) == outcome(low, layout)
    assert outcome(low, layout) == "negative eigenvalue -2.000e-07 < -1e-7"
    stack = np.stack([good, lower, low])
    assert outcome(stack, layout) == uncertified(stack, layout) == outcome(lower, layout)
    skewed = good.copy()
    skewed[layout.offsets[4] + 1] += 1e-6
    stack = np.stack([skewed, low])
    assert outcome(stack, layout) == outcome(skewed, layout)
    assert outcome(skewed, layout).startswith("hermiticity defect")
    # D x D, below and at the crossover, and as a Trajectory
    for d in (16, 64):
        states = np.stack([full_state(d, 0.0, False, rng), full_state(d, -2e-7, False, rng)])
        assert outcome(states) == uncertified(states) == outcome(states[1])
        with pytest.raises(UnstableStep) as info:
            Trajectory(times=np.array([0.0, 1.0]), states=states)
        assert str(info.value) == outcome(states[1])


def test_the_unstable_sweep_raises_as_without_the_certificate(monkeypatch):
    # the n = 2 sweep of test_stacked: gamma * dt = 3 is past RK4's limit
    cfg = expcli.parse_config((UNSTABLE / "cell_limit2.yaml").read_text())
    texts = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        for certify in (True, False):
            if not certify:
                monkeypatch.setattr(dynamics, "_certified", lambda rhos, layout=None: False)
            with pytest.raises(UnstableStep) as info:
                expcli.run_simulate(cfg)
            texts.append(str(info.value))
    assert texts[0] == texts[1] == "negative eigenvalue -2.963e+01 < -1e-7"


@pytest.mark.parametrize("path", UNSTABLE_CONFIGS, ids=lambda p: p.stem)
@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "optimized"])
def test_unstable_configs_exit_3_under_python_O(path, flags, tmp_path):
    # the configs the CI's "CLI under python -O" step expects exit 3 from
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    cmd = [sys.executable, *flags, "-m", "qregsim.expcli", "simulate", "--config", str(path)]
    done = subprocess.run(
        cmd + ["--out", str(tmp_path)], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 3
    assert "numerical failure: negative eigenvalue" in done.stderr


def test_a_negative_snapshot_raises_under_python_O():
    code = (
        "import numpy as np\n"
        "from qregsim.dynamics import check_state\n"
        "from qregsim.errors import UnstableStep\n"
        "rho = np.diag([1.0 + 2e-7, 0.5, -0.5 - 2e-7])\n"
        "try:\n"
        "    check_state(np.stack([np.eye(3) / 3, rho]))\n"
        "except UnstableStep as exc:\n"
        "    print(exc)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "negative eigenvalue -5.000e-01 < -1e-7"
