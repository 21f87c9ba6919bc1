import tracemalloc
from dataclasses import replace
from pathlib import Path

import mpmath
import numpy as np
import pytest
import scipy.linalg

from bomric.bath import BathMode, BathSpec, bath_hamiltonian, coupling_operator
from bomric.dynamics import (
    MODES,
    InvalidStateError,
    QubitParams,
    Scenario,
    covariance_residual,
    frame_phases,
    hamiltonian_rotating,
    hamiltonian_static,
    reduced_dynamics,
    rotating_frame_check,
    validate_state,
)
from bomric import dynamics, linalg
from bomric.linalg import frobenius_norm
from bomric.blockop import flatten
from bomric.riccati import periodic_blocks
from bomric.scenario import load_scenario

from conftest import PAULI_1, PAULI_2, PAULI_3, SPINBOSON_QUBIT, random_hermitian

PLUS = np.full((2, 2), 0.5, dtype=complex)
SCENARIO_DIR = Path(__file__).resolve().parents[1] / "scenarios"

# a bath with zero coupling so the qubit dynamics is closed
TRIVIAL_BATH = BathSpec((BathMode(1.0, 0.0),), fock_cutoff=1)


def fock_ground(bath):
    rho = np.zeros((bath.env_dim, bath.env_dim), dtype=complex)
    rho[0, 0] = 1.0
    return rho


def product_state(qubit_rho, bath):
    return np.kron(qubit_rho, fock_ground(bath))


def closed_scenario(steps=400, t_max=5.0, qubit=None):
    q = qubit or QubitParams(alpha=1.0, beta=1.0, omega=1.0)
    return Scenario(
        qubit=q,
        bath=TRIVIAL_BATH,
        initial_state=product_state(PLUS, TRIVIAL_BATH),
        t_max=t_max,
        steps=steps,
    )


def rotation_frame_unitary(q, t):
    """The qubit rotation R(t) = diag(exp(-i w t / 2), exp(i w t / 2)), exp(iKt) = R(t) (x) 1."""
    return np.diag([np.exp(-1j * q.omega * t / 2.0), np.exp(1j * q.omega * t / 2.0)])


def propagator_static(h, t):
    """exp(-i h t) for a Hermitian block operator: the dense oracle."""
    return scipy.linalg.expm(-1j * t * h)


def propagator_factored(q, bath, t):
    """Exact driven propagator exp(iKt) exp(-i H(beta - omega/2) t)."""
    h_eff = hamiltonian_static(q, bath, beta=q.beta - q.omega / 2.0)
    conj = np.kron(rotation_frame_unitary(q, t), np.eye(bath.env_dim))
    return conj @ propagator_static(h_eff, t)


def step_evolve(h, omega, t_max, steps):
    """Ordered product of the stepper's midpoint exponentials of
    H(t) = hamiltonian_rotating(h, omega, t) over `steps` uniform intervals on [0, t_max]:
    the stepper of reduced_dynamics run on the identity, whose width puts
    every step on the dense plan; one group of `steps` substeps keeps only
    the final product."""
    eye = np.eye(len(h), dtype=complex)
    _, (u,) = dynamics._stepped_factors(h, omega, eye, t_max / steps, 1, steps, None)
    return u


def dense_covariance_residual(q, h, t):
    # || H(t) - (U (x) 1) H(beta) (U† (x) 1) ||_F from full 2N x 2N products
    conj = np.kron(rotation_frame_unitary(q, t), np.eye(len(h) // 2))
    rotated = conj @ h @ conj.conj().T
    return frobenius_norm(hamiltonian_rotating(h, q.omega, t) - rotated)


def rabi_propagator(q, t):
    # closed-qubit closed form: the rotation dressing times the
    # exponential of the shifted splitting plus drive
    det = q.beta - q.omega / 2.0
    omega_r = np.sqrt(det**2 + q.alpha**2)
    n_dot_sigma = (det * PAULI_3 + q.alpha * PAULI_1) / omega_r
    core = np.cos(omega_r * t) * np.eye(2) - 1j * np.sin(omega_r * t) * n_dot_sigma
    return rotation_frame_unitary(q, t) @ core


def test_frame_phases_over_a_grid_are_those_at_each_time():
    # the one frame rotation serves covariance_residual at one time and the
    # factored dressing over the grid: both read the same bits
    q = QubitParams(alpha=0.7, beta=0.4, omega=1.3)
    times = np.linspace(0.0, 10.0, 7)
    stacked = frame_phases(q.omega, times)
    assert stacked.shape == (7, 2)
    for t, row in zip(times, stacked):
        assert np.array_equal(row, frame_phases(q.omega, t))
        assert np.allclose(np.diag(row), rotation_frame_unitary(q, t), rtol=0, atol=1e-15)


def test_rotating_hamiltonian_matches_trig_form():
    q = QubitParams(alpha=0.7, beta=0.4, omega=1.3)
    bath = BathSpec((BathMode(2.0, 0.2),), fock_cutoff=3)
    he = bath_hamiltonian(bath)
    v = coupling_operator(bath)
    for t in (0.0, 0.3, 2.9):
        drive = q.alpha * (
            np.cos(q.omega * t) * PAULI_1 + np.sin(q.omega * t) * PAULI_2
        )
        oracle = (
            np.kron(q.beta * PAULI_3 + drive, np.eye(bath.env_dim))
            + np.kron(np.eye(2), he)
            + np.kron(PAULI_3, v)
        )
        got = hamiltonian_rotating(hamiltonian_static(q, bath), q.omega, t)
        assert frobenius_norm(got - oracle) <= 1e-13


def test_rotating_reduces_to_static_at_t_zero():
    q = QubitParams(alpha=0.7, beta=0.4, omega=1.3)
    bath = BathSpec((BathMode(2.0, 0.2),), fock_cutoff=3)
    h = hamiltonian_static(q, bath)
    d = hamiltonian_rotating(h, q.omega, 0.0) - h
    assert frobenius_norm(d) == 0.0


@pytest.mark.parametrize("shape", [(6,), (2, 3)])
def test_rotating_hamiltonian_stack_is_its_one_time_slices(shape):
    # the stepper's stack over a chunk's midpoints holds, bit for bit, the
    # H(t) that the covariance check reads one time at a time
    q = QubitParams(alpha=0.7, beta=0.4, omega=1.3)
    h = hamiltonian_static(q, BathSpec((BathMode(2.0, 0.2),), fock_cutoff=3))
    ts = ((np.arange(6) + 0.5) * 0.37).reshape(shape)
    stack = hamiltonian_rotating(h, q.omega, ts)
    assert stack.shape == (*shape, *h.shape)
    for idx in np.ndindex(shape):
        assert stack[idx].tobytes() == hamiltonian_rotating(h, q.omega, ts[idx]).tobytes()
    assert hamiltonian_rotating(h, q.omega, float(ts.flat[-1])).shape == h.shape


def test_covariance_residual_vanishes(rng):
    for _ in range(20):
        q = QubitParams(
            alpha=rng.uniform(-2, 2), beta=rng.uniform(-2, 2), omega=rng.uniform(0.1, 5)
        )
        bath = BathSpec((BathMode(1.5, 0.3),), fock_cutoff=3)
        t = rng.uniform(0.0, 20.0)
        scale = max(1.0, frobenius_norm(hamiltonian_static(q, bath)))
        assert covariance_residual(q, hamiltonian_static(q, bath), t) <= 1e-12 * scale


def test_covariance_residual_against_dense_route(rng):
    bath = BathSpec((BathMode(1.5, 0.3), BathMode(0.7, -0.2)), fock_cutoff=3)
    for _ in range(10):
        q = QubitParams(
            alpha=rng.uniform(-2, 2), beta=rng.uniform(-2, 2), omega=rng.uniform(0.1, 5)
        )
        h = hamiltonian_static(q, bath)
        t = rng.uniform(0.0, 20.0)
        diff = covariance_residual(q, h, t) - dense_covariance_residual(q, h, t)
        assert abs(diff) <= 1e-13 * frobenius_norm(h)


def test_propagator_static_unitary_and_semigroup(small_bath):
    h = hamiltonian_static(QubitParams(0.3, 0.5, 1.0), small_bath)
    n = 2 * small_bath.env_dim
    u1 = propagator_static(h, 1.3)
    u2 = propagator_static(h, 0.9)
    u3 = propagator_static(h, 2.2)
    assert frobenius_norm(u1.conj().T @ u1 - np.eye(n)) <= 1e-12
    assert frobenius_norm(u1 @ u2 - u3) <= 1e-11


def test_propagator_static_matches_spectral_route(small_bath):
    h = hamiltonian_static(QubitParams(0.3, 0.5, 1.0), small_bath)
    w, v = np.linalg.eigh(h)
    oracle = (v * np.exp(-1j * w * 1.7)) @ v.conj().T
    assert frobenius_norm(propagator_static(h, 1.7) - oracle) <= 1e-11


def test_factored_propagator_closed_qubit_rabi():
    # with the bath decoupled the exact driven propagator reduces to the
    # two-level closed form
    q = QubitParams(alpha=0.8, beta=0.6, omega=1.1)
    for t in (0.0, 0.7, 3.1, 9.4):
        u = propagator_factored(q, TRIVIAL_BATH, t)
        bath_u = scipy.linalg.expm(-1j * t * bath_hamiltonian(TRIVIAL_BATH))
        oracle = np.kron(rabi_propagator(q, t), bath_u)
        assert frobenius_norm(u - oracle) <= 1e-12


def test_factored_equals_stepped_limit():
    q = QubitParams(alpha=1.0, beta=1.0, omega=1.0)
    bath = TRIVIAL_BATH
    t_max = 5.0
    exact = propagator_factored(q, bath, t_max)
    h = hamiltonian_static(q, bath)
    err = [
        frobenius_norm(step_evolve(h, q.omega, t_max, n) - exact)
        for n in (100, 200)
    ]
    assert err[1] < err[0]
    ratio = err[0] / err[1]
    assert 3.5 <= ratio <= 4.5


def test_step_evolve_on_periodic_drive(small_bath):
    # closed form for the periodically driven block operator:
    # a phase rotation times the exponential of a static generator
    beta, alpha = 0.5, 0.3
    n = small_bath.env_dim
    he = bath_hamiltonian(small_bath)
    w = coupling_operator(small_bath) + beta * np.eye(n)
    g = (
        np.kron(alpha * PAULI_3, np.eye(n))
        + np.kron(np.eye(2), he)
        + np.kron(PAULI_1, w)
    )

    # the driven operator at z_t = exp(-2 i alpha t) puts exp(2 i alpha t) on
    # its upper off-diagonal block: the drive at omega = -2 alpha of its t = 0 blocks
    h = flatten(periodic_blocks(he, w, 1.0))

    def closed_form(t):
        j = np.kron(np.diag([np.exp(1j * alpha * t), np.exp(-1j * alpha * t)]), np.eye(n))
        return j @ scipy.linalg.expm(-1j * t * g)

    t_max = 3.0
    exact = closed_form(t_max)
    err = [
        frobenius_norm(step_evolve(h, -2.0 * alpha, t_max, k) - exact)
        for k in (80, 160)
    ]
    assert err[1] < err[0]
    assert 3.5 <= err[0] / err[1] <= 4.5
    assert err[1] <= 1e-3


def test_frozen_drive_propagator_diagonalizes(small_bath):
    # freezing the drive at tau, the propagator factors through the
    # congruence frame of the frozen operator
    beta, alpha, tau, t = 0.5, 0.3, 1.3, 0.9
    n = small_bath.env_dim
    he = bath_hamiltonian(small_bath)
    w = coupling_operator(small_bath) + beta * np.eye(n)
    z = np.exp(-2j * alpha * tau)
    h_frozen = flatten(periodic_blocks(he, w, z))
    s = np.kron(np.array([[1.0, -np.conj(z)], [z, 1.0]]) / np.sqrt(2.0), np.eye(n))
    diag = np.block(
        [[he + w, np.zeros((n, n))], [np.zeros((n, n)), he - w]]
    )
    lhs = propagator_static(h_frozen, t)
    rhs = s @ scipy.linalg.expm(-1j * t * diag) @ s.conj().T
    assert frobenius_norm(lhs - rhs) <= 1e-12


def test_modes_agree_on_closed_qubit():
    s = closed_scenario(steps=800, t_max=2.0)
    stepped = reduced_dynamics(s, "rotating_stepped")
    factored = reduced_dynamics(s, "factored")
    gap = max(
        frobenius_norm(a - b) for a, b in zip(stepped.states, factored.states)
    )
    assert gap <= 5e-6


def assert_factored_matches_rabi(steps):
    s = closed_scenario(steps=steps, t_max=4.0, qubit=QubitParams(0.8, 0.6, 1.1))
    traj = reduced_dynamics(s, "factored")
    for t, rho in zip(traj.times, traj.states):
        u = rabi_propagator(s.qubit, t)
        assert frobenius_norm(rho - u @ PLUS @ u.conj().T) <= 1e-11


def test_factored_matches_rabi_reduction():
    assert_factored_matches_rabi(steps=50)


def test_factored_rabi_reduction_across_default_chunks():
    # at 2N = 4 a spectral chunk holds 1024 grid points: 2501 points take three
    assert_factored_matches_rabi(steps=2500)


def test_trajectory_diagnostics_bounded(small_bath):
    s = Scenario(
        qubit=QubitParams(0.3, 0.5, 1.0),
        bath=small_bath,
        initial_state=product_state(PLUS, small_bath),
        t_max=2.0,
        steps=100,
    )
    for mode in MODES:
        traj = reduced_dynamics(s, mode)
        assert len(traj) == 101
        assert np.all(traj.trace_dev <= 1e-10)
        assert np.all(traj.herm_dev <= 1e-11)
        assert np.all(traj.positivity_floor >= -1e-9)
        assert np.allclose(traj.times, np.linspace(0.0, 2.0, 101))


# -- dense oracle for the propagation kernel ----------------------------------
# Two modes at Fock cutoff 2 (env_dim 9), assembled from plain numpy Kronecker
# ladders; every mode is checked against dense exponentials and an index-sum
# partial trace.  The rank-1 state on the same modes at cutoff 3 (env_dim 16,
# 2N = 32) is thin enough that its midpoint steps take the Taylor action.

ORACLE_QUBIT = QubitParams(alpha=0.4, beta=0.6, omega=0.9)
ORACLE_MODES = ((1.3, 0.25), (0.7, 0.15 + 0.1j))
ORACLE_CUTOFF = {"rank2_product": 2, "full_rank_tiny_population": 2, "rank1_wide": 3}


def oracle_bath(cutoff):
    return BathSpec(tuple(BathMode(w, g) for w, g in ORACLE_MODES), fock_cutoff=cutoff)


def dense_hamiltonian(q, beta, cutoff, t=None):
    """Lab-frame H(t) in the trig form, or the static H(beta) when t is None."""
    s1 = np.array([[0, 1], [1, 0]], dtype=complex)
    s2 = np.array([[0, -1j], [1j, 0]], dtype=complex)
    s3 = np.diag([1.0, -1.0]).astype(complex)
    a = np.diag(np.sqrt(np.arange(1.0, cutoff + 1)), k=1).astype(complex)
    eye_mode = np.eye(cutoff + 1)
    ladders = (np.kron(a, eye_mode), np.kron(eye_mode, a))
    he = sum(w * (b.conj().T @ b) for (w, _), b in zip(ORACLE_MODES, ladders))
    v = sum(np.conj(g) * b + g * b.conj().T for (_, g), b in zip(ORACLE_MODES, ladders))
    drive = s1 if t is None else np.cos(q.omega * t) * s1 + np.sin(q.omega * t) * s2
    n = (cutoff + 1) ** 2
    return np.kron(beta * s3 + q.alpha * drive, np.eye(n)) + np.kron(np.eye(2), he) + np.kron(s3, v)


def index_sum_trace(rho):
    n = rho.shape[0] // 2
    out = np.zeros((2, 2), dtype=complex)
    for a in range(2):
        for b in range(2):
            for e in range(n):
                out[a, b] += rho[a * n + e, b * n + e]
    return out


def oracle_initial_state(kind):
    rng = np.random.default_rng(77)
    if kind == "rank1_wide":
        env = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        env /= np.linalg.norm(env)
        return np.kron(np.full((2, 2), 0.5), np.outer(env, env.conj()))
    if kind == "rank2_product":
        ket0, plus = np.array([1.0, 0.0]), np.array([1.0, 1.0]) / np.sqrt(2.0)
        rho_q = 0.6 * np.outer(plus, plus) + 0.4 * np.outer(ket0, ket0)
        env = rng.standard_normal(9) + 1j * rng.standard_normal(9)
        env /= np.linalg.norm(env)
        return np.kron(rho_q, np.outer(env, env.conj()))
    u, _ = np.linalg.qr(rng.standard_normal((18, 18)) + 1j * rng.standard_normal((18, 18)))
    p = rng.uniform(0.5, 1.5, 18)
    p[3] = 0.0
    p /= p.sum()
    p[3] = 1e-15
    rho = (u * p) @ u.conj().T
    return (rho + rho.conj().T) / 2.0


def dense_oracle_states(mode, rho0, times, substeps, cutoff):
    q = ORACLE_QUBIT
    eye = np.eye(rho0.shape[0], dtype=complex)
    if mode == "rotating_stepped":
        dt = (times[1] - times[0]) / substeps
        u, us = eye, [eye]
        for k in range((len(times) - 1) * substeps):
            h = dense_hamiltonian(q, q.beta, cutoff, (k + 0.5) * dt)
            u = scipy.linalg.expm(-1j * dt * h) @ u
            if (k + 1) % substeps == 0:
                us.append(u)
    elif mode == "static_exact":
        h = dense_hamiltonian(q, q.beta, cutoff)
        us = [scipy.linalg.expm(-1j * t * h) for t in times]
    else:
        h = dense_hamiltonian(q, q.beta - q.omega / 2.0, cutoff)
        env_eye = np.eye(len(eye) // 2)
        us = [
            np.kron(np.diag(np.exp([-0.5j * q.omega * t, 0.5j * q.omega * t])), env_eye)
            @ scipy.linalg.expm(-1j * t * h)
            for t in times
        ]
    return [index_sum_trace(u @ rho0 @ u.conj().T) for u in us]


def _no_dense_expm(*args):
    raise AssertionError("a thin factor took a dense expm")


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("kind", ["rank2_product", "full_rank_tiny_population", "rank1_wide"])
def test_reduced_dynamics_matches_dense_oracle(kind, mode, monkeypatch):
    rho0 = oracle_initial_state(kind)
    cutoff = ORACLE_CUTOFF[kind]
    s = Scenario(
        qubit=ORACLE_QUBIT,
        bath=oracle_bath(cutoff),
        initial_state=rho0,
        t_max=1.5 if kind == "rank1_wide" else 3.0,
        steps=12,
        substeps_per_step=2,
    )
    if kind == "rank1_wide":
        # no mode may take a dense exponential: the midpoint steps use the
        # Taylor series on the factor
        monkeypatch.setattr(linalg, "taylor_expm1", _no_dense_expm)
    traj = reduced_dynamics(s, mode)
    oracle = dense_oracle_states(mode, rho0, s.times, s.substeps_per_step, cutoff)
    assert len(traj) == len(oracle) == 13
    for got, want in zip(traj.states, oracle):
        assert frobenius_norm(got - want) <= 1e-12


@pytest.mark.parametrize("points", [1, 5])
@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("kind", ["full_rank_tiny_population", "rank1_wide"])
def test_chunk_boundaries_keep_the_states(kind, mode, points, monkeypatch):
    # 12 steps of 3 substeps: 5-step chunks divide neither the 36 substeps nor
    # the 3 per grid step, so grid points and kept factors straddle chunk ends
    rho0 = oracle_initial_state(kind)
    cutoff = ORACLE_CUTOFF[kind]
    s = Scenario(
        qubit=ORACLE_QUBIT,
        bath=oracle_bath(cutoff),
        initial_state=rho0,
        t_max=1.5 if kind == "rank1_wide" else 3.0,
        steps=12,
        substeps_per_step=3,
    )
    default = reduced_dynamics(s, mode)
    # chunks `points` steps or grid points long, whatever work arrays a
    # point holds (the dense stepper's depend on its Taylor plan)
    monkeypatch.setattr(dynamics, "chunk_size", lambda entries_per_point: points)
    traj = reduced_dynamics(s, mode)
    if mode == "rotating_stepped":
        assert np.array_equal(traj.states, default.states)
    else:
        assert np.max(np.abs(traj.states - default.states)) <= 1e-15
    oracle = dense_oracle_states(mode, rho0, s.times, s.substeps_per_step, cutoff)
    assert len(traj) == len(oracle) == 13
    for got, want in zip(traj.states, oracle):
        assert frobenius_norm(got - want) <= 1e-12


def test_thin_factor_guard_sees_the_stacked_dense_path(monkeypatch):
    # the rank1_wide oracle case's guard must fire if a thin factor were sent
    # down the dense path, which exponentiates a whole chunk in one call
    s = Scenario(
        qubit=ORACLE_QUBIT,
        bath=oracle_bath(3),
        initial_state=oracle_initial_state("rank1_wide"),
        t_max=1.5,
        steps=12,
    )
    monkeypatch.setattr(linalg, "taylor_expm1", _no_dense_expm)
    monkeypatch.setattr(linalg, "action_plan", lambda *args: None)
    with pytest.raises(AssertionError, match="thin factor took a dense expm"):
        reduced_dynamics(s, "rotating_stepped")


def mpmath_midpoint_states(s):
    """Reduced states of the midpoint product of exp(-i H(t_k) dt) acting on
    rho0, in 30-digit arithmetic from the double-precision blocks of H."""
    h = hamiltonian_static(s.qubit, s.bath)
    n = h.shape[0] // 2
    static, upper = h.copy(), np.zeros_like(h)
    static[:n, n:] = static[n:, :n] = 0.0
    upper[:n, n:] = h[:n, n:]
    with mpmath.workdps(30):
        static, upper = mpmath.matrix(static.tolist()), mpmath.matrix(upper.tolist())
        rho = mpmath.matrix(s.initial_state.tolist())
        dt = mpmath.mpf(s.t_max) / s.steps
        rhos = [rho]
        for k in range(s.steps):
            phase = mpmath.expj(-s.qubit.omega * (k + 0.5) * dt)
            u = mpmath.expm(-1j * dt * (static + phase * upper + mpmath.conj(phase) * upper.H))
            rho = u * rho * u.H
            rhos.append(rho)
        return [index_sum_trace(np.array(r.tolist(), dtype=complex)) for r in rhos]


def test_dense_midpoint_steps_match_a_multiprecision_product():
    # 2N = 4 with a coupled mode: a pure state still takes the dense plan
    bath = BathSpec((BathMode(1.3, 0.25),), fock_cutoff=1)
    s = Scenario(
        qubit=ORACLE_QUBIT,
        bath=bath,
        initial_state=product_state(PLUS, bath),
        t_max=4.0,
        steps=200,
    )
    h = hamiltonian_static(s.qubit, s.bath)
    assert linalg.action_plan(h, -1j * s.t_max / s.steps, 1) is None
    traj = reduced_dynamics(s, "rotating_stepped")
    oracle = mpmath_midpoint_states(s)
    assert max(np.max(np.abs(got - want)) for got, want in zip(traj.states, oracle)) <= 1e-14


@pytest.mark.parametrize("name", ["closed_qubit", "spinboson"])
def test_stepped_run_stays_within_the_chunk_budget(name):
    # 2000 steps on the dense plan: the taylor_expm1 work arrays count against
    # CHUNK_ENTRIES, so a chunk's arrays stay near 2^14 entries (256 kB)
    s = load_scenario(SCENARIO_DIR / f"{name}.json").scenario
    assert s.steps == 2000
    tracemalloc.start()
    try:
        reduced_dynamics(s, "rotating_stepped")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.5e6


def test_rotating_frame_halving_on_action_path():
    s = Scenario(
        qubit=ORACLE_QUBIT,
        bath=oracle_bath(3),
        initial_state=oracle_initial_state("rank1_wide"),
        t_max=1.5,
        steps=24,
    )
    h = hamiltonian_static(s.qubit, s.bath)
    assert linalg.action_plan(h, -1j * s.t_max / s.steps, 1) is not None
    coarse = max(rotating_frame_check(s))
    fine = max(rotating_frame_check(replace(s, steps=2 * s.steps)))
    assert 3.9 <= coarse / fine <= 4.1


def bath64_scenario(mixed, t_max=2.5, steps=200):
    """The 64-level bath of the benchmark (modes 2.3 and 1.7 at cutoff 7,
    coupling 0.2, the spin-boson qubit): a pure |+>|0> start, or a full-rank
    mixed qubit state times a thermal bath state."""
    bath = BathSpec((BathMode(2.3, 0.2), BathMode(1.7, 0.2)), fock_cutoff=7)
    if mixed:
        pops = np.exp(-np.diag(bath.he).real / 1.2)
        rho = np.kron([[0.7, 0.1 - 0.2j], [0.1 + 0.2j, 0.3]], np.diag(pops / pops.sum()))
    else:
        rho = product_state(PLUS, bath)
    return Scenario(qubit=SPINBOSON_QUBIT, bath=bath, initial_state=rho, t_max=t_max, steps=steps)


def unshifted_stepped_states(s):
    """The stepper's midpoint steps on H(t) itself, without the trace shift of
    reduced_dynamics: both plans chosen on the unshifted h."""
    h = hamiltonian_static(s.qubit, s.bath)
    p, psi = dynamics._state_factor(s.initial_state)
    dt = s.t_max / (s.steps * s.substeps_per_step)
    plan = linalg.action_plan(h, -1j * dt, p.size)
    factors = dynamics._stepped_factors(
        h, s.qubit.omega, psi, dt, s.steps, s.substeps_per_step, plan
    )
    return np.concatenate([dynamics._trace_env(phis, p) for phis in factors])


@pytest.mark.parametrize(
    "name", [p.stem for p in sorted(SCENARIO_DIR.glob("*.json"))] + ["bath64", "bath64_mixed"]
)
def test_trace_shift_keeps_the_stepped_states(name):
    # exp(-i (H - mu) dt) differs from exp(-i H dt) by a phase that Tr_E drops
    if name.startswith("bath64"):
        s = bath64_scenario(mixed=name == "bath64_mixed")
    else:
        s = load_scenario(SCENARIO_DIR / f"{name}.json").scenario
    got = reduced_dynamics(s, "rotating_stepped").states
    assert np.max(np.abs(got - unshifted_stepped_states(s))) <= 1e-13


@pytest.mark.parametrize(
    "mixed, kind, unshifted, shifted",
    [(False, "action_plan", (13, 1), (11, 1)), (True, "expm1_plan", (11, 1), (11, 0))],
)
def test_trace_shift_takes_the_smaller_plan(monkeypatch, mixed, kind, unshifted, shifted):
    # bath64's step 2.5 / 200 over 10 steps: ||H dt||_1 = 0.373 falls to
    # ||(H - mu) dt||_1 = 0.198, two series terms fewer on the rank-1 action
    # and no squaring on the dense plan
    s = bath64_scenario(mixed, t_max=0.125, steps=10)
    h, dt = hamiltonian_static(s.qubit, s.bath), s.t_max / s.steps
    plan_of = getattr(linalg, kind)
    args = (h, -1j * dt, 1) if kind == "action_plan" else (h, -1j * dt)
    assert plan_of(*args) == unshifted
    taken = []
    monkeypatch.setattr(linalg, kind, lambda *a: taken.append(plan_of(*a)) or taken[-1])
    reduced_dynamics(s, "rotating_stepped")
    assert taken == [shifted]


def test_substeps_refine_integration(small_bath):
    base = Scenario(
        qubit=QubitParams(0.3, 0.5, 1.0),
        bath=small_bath,
        initial_state=product_state(PLUS, small_bath),
        t_max=4.0,
        steps=40,
    )
    fine = Scenario(
        qubit=base.qubit,
        bath=base.bath,
        initial_state=base.initial_state,
        t_max=4.0,
        steps=40,
        substeps_per_step=4,
    )
    exact = reduced_dynamics(base, "factored")
    err_base = max(
        frobenius_norm(a - b)
        for a, b in zip(reduced_dynamics(base, "rotating_stepped").states, exact.states)
    )
    err_fine = max(
        frobenius_norm(a - b)
        for a, b in zip(reduced_dynamics(fine, "rotating_stepped").states, exact.states)
    )
    # 4x substeps cuts the second-order error by about 16
    assert err_fine <= err_base / 10.0


def test_rotating_frame_check_tracks_integrator_error():
    coarse = rotating_frame_check(closed_scenario(steps=100))
    fine = rotating_frame_check(closed_scenario(steps=200))
    assert coarse[0] <= 1e-13
    assert max(fine) < max(coarse)
    assert 3.5 <= max(coarse) / max(fine) <= 4.5


def test_reduced_dynamics_unknown_mode(small_bath):
    s = Scenario(
        qubit=QubitParams(0.3, 0.5, 1.0),
        bath=small_bath,
        initial_state=product_state(PLUS, small_bath),
        t_max=1.0,
        steps=2,
    )
    with pytest.raises(ValueError):
        reduced_dynamics(s, "exact")


def test_state_validation_rejects_bad_inputs(small_bath):
    n = small_bath.env_dim
    good = fock_ground(small_bath)

    unnormalized = np.kron(2.0 * PLUS, good)
    with pytest.raises(InvalidStateError):
        validate_state(unnormalized)

    nonhermitian = np.block([[good, 0.1 * np.eye(n)], [np.zeros((n, n)), np.zeros((n, n))]])
    with pytest.raises(InvalidStateError):
        validate_state(nonhermitian)

    # a real state's spectrum is taken in float64, a complex one's in
    # complex128; both give the same verdict and message
    negative = np.kron(np.diag([1.5, -0.5]).astype(complex), good)
    negative_complex = np.kron(np.array([[0.5, 1j], [-1j, 0.5]]), good)
    for state in (negative, negative_complex):
        with pytest.raises(InvalidStateError, match="^state has negative eigenvalue -5.000e-01$"):
            validate_state(state)


def test_near_hermitian_state_is_stored_as_its_hermitian_part(small_bath):
    # the state propagated is the one whose spectrum validate_state checked
    n = small_bath.env_dim
    rho = product_state(PLUS, small_bath)
    rho[n, 0] += 1e-13
    s = Scenario(QubitParams(0.3, 0.5, 1.0), small_bath, rho, t_max=1.0, steps=10)
    assert np.array_equal(s.initial_state, (rho + rho.conj().T) / 2.0)
    assert np.array_equal(s.initial_state, s.initial_state.conj().T)
    assert np.array_equal(validate_state(rho), s.initial_state)


def test_state_validation_messages(small_bath):
    ground = product_state(np.diag([1.0, 0.0]).astype(complex), small_bath)
    skew = ground.copy()
    skew[0, 1] = 0.1
    for rho, message in (
        (skew, "state is not Hermitian: deviation 1.414e-01"),
        (2.0 * ground, "state trace is 2+0j, expected 1"),
    ):
        with pytest.raises(InvalidStateError) as exc:
            validate_state(rho)
        assert str(exc.value) == message


def test_scenario_validation(small_bath):
    state = product_state(PLUS, small_bath)
    with pytest.raises(ValueError):
        Scenario(QubitParams(1, 1, 1), small_bath, state, t_max=0.0, steps=10)
    with pytest.raises(ValueError):
        Scenario(QubitParams(1, 1, 1), small_bath, state, t_max=1.0, steps=0)
    other = BathSpec((BathMode(1.0, 0.1),), fock_cutoff=2)
    with pytest.raises(InvalidStateError):
        Scenario(QubitParams(1, 1, 1), other, state, t_max=1.0, steps=10)
