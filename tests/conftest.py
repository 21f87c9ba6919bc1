import importlib.util
from pathlib import Path

import numpy as np
import pytest

from bomric.bath import BathMode, BathSpec
from bomric.dynamics import QubitParams, Scenario

REPO = Path(__file__).resolve().parents[1]

SPINBOSON_QUBIT = QubitParams(alpha=0.3, beta=0.5, omega=1.0)

PAULI_1 = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_2 = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_3 = np.array([[1, 0], [0, -1]], dtype=complex)
ID2 = np.eye(2, dtype=complex)


def load_perfbench(name):
    """perfbench/<name>.py, loaded from its file: perfbench is not a package."""
    path = REPO / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def random_complex(rng, n, m=None):
    m = n if m is None else m
    return rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))


def random_hermitian(rng, n):
    a = random_complex(rng, n)
    return (a + a.conj().T) / 2.0


def random_density(rng, n):
    a = random_complex(rng, n)
    rho = a @ a.conj().T
    return rho / np.trace(rho)


def dephasing_operator(bath, m):
    """1 (x) H_E + M (x) V as a dense 2N x 2N matrix, built by Kronecker
    products: the block operator whose Riccati equation the dephasing
    quadratic reduces to a scalar one."""
    return np.kron(ID2, bath.he) + np.kron(m, bath.v)


def plus_fock_scenario(bath, steps, qubit=SPINBOSON_QUBIT, t_max=10.0):
    n = bath.env_dim
    env = np.zeros((n, n), dtype=complex)
    env[0, 0] = 1.0
    plus = np.full((2, 2), 0.5, dtype=complex)
    return Scenario(
        qubit=qubit,
        bath=bath,
        initial_state=np.kron(plus, env),
        t_max=t_max,
        steps=steps,
    )


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def small_bath():
    return BathSpec(modes=(BathMode(omega=2.0, g=0.2),), fock_cutoff=4)


@pytest.fixture
def riccati_bath():
    # single mode, nine Fock levels
    return BathSpec(modes=(BathMode(omega=2.0, g=0.2),), fock_cutoff=8)
