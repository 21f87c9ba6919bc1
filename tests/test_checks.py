"""The verification checks: chunked sampling draws, their memory, and the
bath operators the checks assemble."""
import sys
import tracemalloc

import numpy as np
import pytest

from bomric import bath, checks, dynamics
from bomric.bath import BathMode, BathSpec

from conftest import plus_fock_scenario


def one_call_per_matrix(n, k):
    """The sandwich samples drawn as four (N, N) blocks, A1 and A2, each re then im."""
    rng = np.random.default_rng(checks.SEED + 1)

    def draw(shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    samples = [([draw((n, n)) for _ in range(4)], draw((2, 2)), draw((2, 2))) for _ in range(k)]
    b = np.array([np.reshape(blocks, (2, 2, n, n)) for blocks, _, _ in samples])
    return np.array([a1 for _, a1, _ in samples]), b, np.array([a2 for _, _, a2 in samples])


@pytest.mark.parametrize("n", [2, 5])
def test_sandwich_chunking_keeps_the_samples(monkeypatch, n):
    # one sample per chunk and all samples in one chunk check the same samples
    s = plus_fock_scenario(BathSpec((BathMode(1.0, 0.2),), fock_cutoff=n - 1), steps=10)
    expected = one_call_per_matrix(n, checks.SANDWICH_SAMPLES)
    kernel = checks.sandwich_lemma_check
    results = []
    for budget in (1, 4 * n * n * checks.SANDWICH_SAMPLES):
        chunks = []

        def recording(a1, b, a2):
            chunks.append((a1.copy(), b.copy(), a2.copy()))
            return kernel(a1, b, a2)

        monkeypatch.setattr(checks, "sandwich_lemma_check", recording)
        monkeypatch.setattr(dynamics, "CHUNK_ENTRIES", budget)
        results.append(checks.sandwich(s)["residual"])
        sizes = [len(b) for _, b, _ in chunks]
        assert sum(sizes) == checks.SANDWICH_SAMPLES
        assert max(sizes) == (1 if budget == 1 else checks.SANDWICH_SAMPLES)
        for got, want in zip(zip(*chunks), expected):
            assert np.array_equal(np.concatenate(got), want)
    assert abs(results[0] - results[1]) <= 1e-15


def test_sandwich_memory_at_the_dimension_cap():
    # the chunk budget keeps the check's traced peak small at env_dim 64
    s = plus_fock_scenario(BathSpec((BathMode(1.0, 0.2), BathMode(1.5, 0.2)), fock_cutoff=7), steps=10)
    assert s.bath.env_dim == 64
    tracemalloc.start()
    try:
        result = checks.sandwich(s)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result["passed"]
    assert peak < 2 * 2**20


def test_six_checks_assemble_each_bath_operator_once(monkeypatch):
    # every check reads H_E and V from the scenario's BathSpec, which builds
    # each on first use; the builders are counted under every name they have
    calls = {"bath_hamiltonian": 0, "coupling_operator": 0}
    modules = [m for k, m in sys.modules.items() if k.startswith("bomric.")]
    for name in calls:
        build = getattr(bath, name)

        def counted(spec, name=name, build=build):
            calls[name] += 1
            return build(spec)

        for mod in modules:
            if getattr(mod, name, None) is build:
                monkeypatch.setattr(mod, name, counted)
    s = plus_fock_scenario(BathSpec((BathMode(1.0, 0.2),), 6), steps=100, t_max=1.0)
    for check in checks.CHECKS.values():
        assert check(s)["passed"]
    assert calls == {"bath_hamiltonian": 1, "coupling_operator": 1}
