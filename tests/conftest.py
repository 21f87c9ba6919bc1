import numpy as np
import pytest

from bomric.bath import BathMode, BathSpec


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
