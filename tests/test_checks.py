"""The verification checks: chunked sampling draws, their memory, and the
bath operators the checks assemble."""
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from bomric import bath, blockop, checks, dynamics, linalg, riccati
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


def nan_last(stack):
    """The stack with its last sample NaN: on riccati_spinboson every check's
    chunk holds more than one sample, so that is never the check's first."""
    return np.concatenate((stack[:-1], np.full_like(stack[-1:], NAN)))


# each check's kernel, and a NaN put on a sample other than the first:
# (module, name, poison(result))
NAN_KERNELS = {
    "covariance": (checks, "covariance_residual", nan_last),
    "sandwich": (checks, "sandwich_lemma_check", nan_last),
    "zt_riccati": (riccati, "riccati_map", nan_last),
    "st_diagonalization": (riccati, "s_frame_blocks", nan_last),
    "weyl_displacement": (checks, "displaced_check", lambda r: r | {"residual": NAN}),
}


@pytest.mark.parametrize("name", sorted(NAN_KERNELS))
def test_a_nan_residual_fails_its_check(monkeypatch, name):
    s = load_scenario(Path(__file__).resolve().parents[1] / "scenarios" / "riccati_spinboson.json").scenario
    check = checks.CHECKS[name]
    assert check(s)["passed"]
    module, attr, poison = NAN_KERNELS[name]
    kernel = getattr(module, attr)
    monkeypatch.setattr(module, attr, lambda *args: poison(kernel(*args)))
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


BUNDLED = sorted((Path(__file__).resolve().parents[1] / "scenarios").glob("*.json"))
# the checks that take their samples a chunk at a time as stacks, by the
# kernel each calls once per chunk
STACKED = {"covariance": (checks, "covariance_residual"),
           "zt_riccati": (riccati, "riccati_map"),
           "st_diagonalization": (riccati, "s_frame_blocks")}


def per_sample_measures(s):
    """The measures of the STACKED checks with one kernel call per sample and
    phase, the loops the checks ran before they took stacks."""
    norm = linalg.frobenius_norm
    rng = np.random.default_rng(checks.SEED)
    draws = rng.uniform([-2, -2, 0.1, 0], [2, 2, 5, 20], (checks.COVARIANCE_SAMPLES, 4))
    cov = []
    for alpha, beta, omega, t in draws:
        q = dynamics.QubitParams(alpha, beta, omega)
        h = dynamics.hamiltonian_static(q, s.bath)
        cov.append(dynamics.covariance_residual(q, h, t) / norm(h))
    he, w, phases = checks.resonant_drive(s)
    eye, zt, off, dev = np.eye(len(he)), [], [], []
    for z in phases:
        zt.append(norm(riccati.riccati_map(z * eye, he, np.conj(z) * w, he)) / max(norm(w), 1e-300))
        tb = riccati.s_frame_blocks(riccati.periodic_blocks(he, w, z), z)
        off.append(blockop.offdiag_norm(tb))
        dev += [np.max(np.abs(tb[0, 0] - (he + w))), np.max(np.abs(tb[1, 1] - (he - w)))]
    scale = max(2**0.5 * norm(np.concatenate((he, w))), 1e-300)
    return {"covariance": {"residual": float(max(cov))}, "zt_riccati": {"residual": float(max(zt))},
            "st_diagonalization": {"offdiag_residual": float(max(off) / scale),
                                   "diag_deviation": float(max(dev) / scale)}}


@pytest.mark.parametrize("path", BUNDLED, ids=lambda p: p.stem)
def test_stacked_checks_do_not_depend_on_the_chunk_size(monkeypatch, path):
    # one sample per chunk, a few (with a short last chunk) and all in one
    # chunk give the measures of the per-sample loop, bit for bit, with one
    # kernel call per chunk
    s = load_scenario(path).scenario
    want, reports = per_sample_measures(s), {}
    for budget in (1, 3 * 8 * s.bath.env_dim**2, 2**40):
        monkeypatch.setattr(dynamics, "CHUNK_ENTRIES", budget)
        for name, (module, attr) in STACKED.items():
            sizes = []

            def recording(*args, kernel=getattr(module, attr)):
                out = kernel(*args)
                sizes.append(len(out))
                return out

            with monkeypatch.context() as m:
                m.setattr(module, attr, recording)
                got = checks.CHECKS[name](s)
            assert got["passed"]
            assert repr({key: got[key] for key in want[name]}) == repr(want[name])
            assert repr(reports.setdefault(name, got)) == repr(got)  # the whole report
            assert sum(sizes) == 100 and all(k == sizes[0] for k in sizes[:-1])
            if budget == 1:
                assert sizes[0] == 1
            elif budget == 2**40:
                assert sizes == [100]
            else:
                assert 1 < sizes[0] and sizes[-1] == 100 % sizes[0]
