"""The verification checks: chunked sampling draws, their memory, and the
bath operators the checks assemble."""
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from bomric import bath, blockop, checks, dynamics, riccati
from bomric.bath import BathMode, BathSpec
from bomric.scenario import load_scenario

from conftest import plus_fock_scenario


def one_call_per_matrix(n, k):
    """The sandwich samples drawn as four (N, N) blocks, A1 and A2, each uniform
    on [-1, 1) with re and im interleaved per entry."""
    rng = np.random.default_rng(checks.SEED + 1)

    def draw(shape):
        x = rng.uniform(-1.0, 1.0, (*shape, 2))
        return x[..., 0] + 1j * x[..., 1]

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


SANDWICH_MUTANTS = {
    # each product block shifted by one column
    "rolled": lambda kernel, a1, b, a2: np.roll(kernel(a1, b, a2), 1, axis=-1),
    # the factors swapped: (A2^T (x) 1) B (A1^T (x) 1)
    "swapped": lambda kernel, a1, b, a2: kernel(a2.swapaxes(-1, -2), b, a1.swapaxes(-1, -2)),
}


@pytest.mark.parametrize("mutant", sorted(SANDWICH_MUTANTS))
def test_sandwich_catches_a_layout_bug(monkeypatch, mutant):
    # the real kernel passes; a kernel that misplaces entries or factors fails
    s = plus_fock_scenario(BathSpec((BathMode(1.0, 0.2),), fock_cutoff=3), steps=10)
    assert checks.sandwich(s)["passed"]
    kernel, wrong = blockop.qubit_sandwich, SANDWICH_MUTANTS[mutant]
    monkeypatch.setattr(blockop, "qubit_sandwich", lambda a1, b, a2: wrong(kernel, a1, b, a2))
    result = checks.sandwich(s)
    assert not result["passed"]
    assert result["residual"] > 1e-2


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


NAN = float("nan")

# each check's kernel, and a NaN put on a sample other than the first:
# (module, name, poison(result, call index))
NAN_KERNELS = {
    "covariance": (checks, "covariance_residual", lambda r, k: NAN if k == 1 else r),
    "sandwich": (checks, "sandwich_lemma_check", lambda r, k: np.append(r[:-1], NAN)),
    "zt_riccati": (riccati, "riccati_map", lambda r, k: np.full_like(r, NAN) if k == 1 else r),
    "st_diagonalization": (
        riccati, "s_frame_blocks", lambda r, k: np.full_like(r, NAN) if k == 1 else r
    ),
    "weyl_displacement": (
        checks, "displaced_check", lambda r, k: r | {"residual": NAN}
    ),
}


@pytest.mark.parametrize("name", sorted(NAN_KERNELS))
def test_a_nan_residual_fails_its_check(monkeypatch, name):
    s = load_scenario(Path(__file__).resolve().parents[1] / "scenarios" / "riccati_spinboson.json").scenario
    check = checks.CHECKS[name]
    assert check(s)["passed"]
    module, attr, poison = NAN_KERNELS[name]
    kernel, calls = getattr(module, attr), []

    def poisoned(*args):
        calls.append(None)
        return poison(kernel(*args), len(calls) - 1)

    monkeypatch.setattr(module, attr, poisoned)
    result = check(s)
    assert not result["passed"]
    assert any(np.isnan(v) for v in result.values() if isinstance(v, float))


@pytest.mark.parametrize("omega, cutoff", [(1e3, 8), (1e4, 8), (1e307, 1)])
def test_zt_riccati_holds_on_a_stiff_bath(omega, cutoff):
    # z_t 1 solves the equation exactly and X a - c X cancels exactly for
    # a = c = H_E, so a mode frequency far above the coupling leaves the
    # residual at roundoff
    s = plus_fock_scenario(BathSpec((BathMode(omega, 0.2),), fock_cutoff=cutoff), steps=10)
    result = checks.zt_riccati(s)
    assert result["passed"] and result["residual"] <= 1e-15
