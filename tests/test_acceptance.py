"""End-to-end acceptance checks.

Each test prints one PASS/FAIL line with the measured numbers (the kernel
oracles one per kernel) so a full run reads as a report; the asserts behind
the line carry the same tolerances.  Runtime budgets are asserted too: these checks are meant to
stay cheap enough to run on every change.
"""
import time
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

from bomric import checks, dynamics, linalg
from bomric.bath import BathMode, BathSpec, coupling_operator
from bomric.blockop import partial_trace_env
from bomric.dynamics import QubitParams, hamiltonian_static, reduced_dynamics
from bomric.linalg import frobenius_norm, solve_sylvester
from bomric.riccati import (
    RiccatiProblem,
    diagonalize,
    residual,
    solve_dephasing_quadratic,
    solve_invariant_subspace,
    solve_newton,
)
from bomric.scenario import load_scenario

from conftest import (SPINBOSON_QUBIT, dephasing_operator, plus_fock_scenario, random_complex,
                      random_hermitian)

SCENARIO_DIR = Path(__file__).resolve().parents[1] / "scenarios"

SPINBOSON_BATH = BathSpec((BathMode(2.0, 0.2),), fock_cutoff=4)


def report(capsys, ok: bool, label: str, detail: str, seconds: float) -> None:
    with capsys.disabled():
        status = "PASS" if ok else "FAIL"
        print(f"{status} {label}: {detail} [{seconds:.2f}s]")


def test_covariance_identity(capsys):
    # rotating the static generator into the lab frame reproduces the
    # driven Hamiltonian for any parameters, any bath size, any time
    start = time.perf_counter()
    baths = [BathSpec((BathMode(1.7, 0.3),), fock_cutoff=n_max) for n_max in (1, 3, 7)]
    results = [checks.covariance(plus_fock_scenario(bath, steps=10)) for bath in baths]
    worst = max(r["residual"] for r in results)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-12 and elapsed < 5.0
    report(capsys, ok, "covariance identity", f"worst relative residual {worst:.3e}", elapsed)
    assert all(r["passed"] and r["tolerance"] == 1e-12 for r in results)
    assert worst <= 1e-12
    assert elapsed < 5.0


def test_rotating_frame_reduction(capsys):
    # stepped lab-frame dynamics against the dressed static trajectory at
    # the shifted splitting; the gap is integrator error and halves
    # quadratically with the step size
    start = time.perf_counter()
    fine = checks.rotating_frame(plus_fock_scenario(SPINBOSON_BATH, steps=2000))
    coarse = checks.rotating_frame(plus_fock_scenario(SPINBOSON_BATH, steps=1000))
    err_fine = fine["residual"]
    ratio = coarse["residual"] / err_fine
    elapsed = time.perf_counter() - start
    ok = err_fine <= 1e-5 and 3.5 <= ratio <= 4.5 and elapsed < 60.0
    report(
        capsys, ok, "rotating-frame reduction",
        f"residual {err_fine:.3e} at 2000 steps, halving ratio {ratio:.2f}", elapsed,
    )
    assert fine["passed"] and fine["tolerance"] == 1e-5
    assert err_fine <= 1e-5
    assert 3.5 <= ratio <= 4.5
    assert elapsed < 60.0


def test_trace_sandwich_identity(capsys):
    # partial trace of (A1 (x) 1) B (A2 (x) 1) equals A1 Tr_E(B) A2
    start = time.perf_counter()
    bath = BathSpec((BathMode(1.0, 0.2),), fock_cutoff=7)  # blocks are 8 x 8
    result = checks.sandwich(plus_fock_scenario(bath, steps=10))
    worst = result["residual"]
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-12 and elapsed < 10.0
    report(capsys, ok, "trace sandwich identity", f"worst relative residual {worst:.3e}", elapsed)
    assert result["passed"] and result["tolerance"] == 1e-12
    assert worst <= 1e-12
    assert elapsed < 10.0


def test_riccati_cross_solver_agreement(capsys):
    # Newton from zero and the invariant subspace's graph branch produce
    # the same solution
    start = time.perf_counter()
    bath = BathSpec((BathMode(2.0, 0.2),), fock_cutoff=8)  # blocks are 9 x 9
    h = hamiltonian_static(SPINBOSON_QUBIT, bath)
    p = RiccatiProblem(h)
    newton = solve_newton(p)
    subspace = solve_invariant_subspace(p)
    agreement = frobenius_norm(newton.x - subspace.x)
    offdiag = diagonalize(p, newton)["offdiag_residual"]

    q0 = QubitParams(alpha=0.0, beta=0.5, omega=1.0)
    decoupled = solve_newton(RiccatiProblem(hamiltonian_static(q0, bath)))
    zero_exact = np.count_nonzero(decoupled.x) == 0

    elapsed = time.perf_counter() - start
    ok = (
        agreement <= 1e-8
        and newton.residual <= 1e-10
        and subspace.residual <= 1e-10
        and offdiag <= 1e-8
        and zero_exact
        and elapsed < 30.0
    )
    report(
        capsys, ok, "riccati cross-solver agreement",
        f"agreement {agreement:.3e}, residuals {newton.residual:.3e}/"
        f"{subspace.residual:.3e}, offdiag {offdiag:.3e}, decoupled X = 0: {zero_exact}",
        elapsed,
    )
    assert agreement <= 1e-8
    assert newton.residual <= 1e-10
    assert subspace.residual <= 1e-10
    assert offdiag <= 1e-8
    assert zero_exact
    assert elapsed < 30.0


def test_driven_riccati_phase_solution(capsys):
    # the pure phase X_t = z_t solves the driven Riccati equation at
    # every t, and the induced frame makes the block operator static
    # and block-diagonal
    start = time.perf_counter()
    bath = BathSpec((BathMode(1.0, 0.2),), fock_cutoff=4)
    s = plus_fock_scenario(bath, steps=10)  # alpha 0.3, beta 0.5 on [0, 10]
    phase = checks.zt_riccati(s)
    frame = checks.st_diagonalization(s)
    elapsed = time.perf_counter() - start
    ok = phase["passed"] and frame["passed"] and elapsed < 5.0
    report(
        capsys, ok, "driven riccati phase solution",
        f"relative equation residual {phase['residual']:.3e}, "
        f"frame offdiag {frame['offdiag_residual']:.3e} (Frobenius), "
        f"diagonal deviation {frame['diag_deviation']:.3e}",
        elapsed,
    )
    assert phase["tolerance"] == frame["tolerance"] == 1e-13
    assert phase["residual"] <= 1e-13
    assert frame["offdiag_residual"] <= 1e-13
    assert frame["diag_deviation"] <= 1e-13
    assert elapsed < 5.0


def test_dephasing_scalar_reduction(capsys):
    # the scalar quadratic roots solve the full operator equation and
    # come in (x, -1/x*) pairs
    start = time.perf_counter()
    rng = np.random.default_rng(23)
    bath = BathSpec((BathMode(1.0, 0.2),), fock_cutoff=4)
    v_norm = frobenius_norm(coupling_operator(bath))
    eye = np.eye(bath.env_dim)
    worst_resid = 0.0
    worst_pair = 0.0
    for _ in range(50):
        m11, m22 = rng.uniform(-1, 1, size=2)
        m12 = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        if abs(m12) < 0.2:
            m12 *= 0.2 / abs(m12)
        m = np.array([[m11, m12], [np.conj(m12), m22]])
        principal, partner = solve_dephasing_quadratic(m)
        p = RiccatiProblem(dephasing_operator(bath, m))
        for x in (principal, partner):
            worst_resid = max(worst_resid, residual(p, x * eye) / v_norm)
        worst_pair = max(
            worst_pair, abs(partner + 1.0 / np.conj(principal))
        )
    elapsed = time.perf_counter() - start
    ok = worst_resid <= 1e-12 and worst_pair <= 1e-12 and elapsed < 5.0
    report(
        capsys, ok, "dephasing scalar reduction",
        f"worst operator residual {worst_resid:.3e} (relative to coupling), "
        f"pair relation defect {worst_pair:.3e}",
        elapsed,
    )
    assert worst_resid <= 1e-12
    assert worst_pair <= 1e-12
    assert elapsed < 5.0


def test_weyl_displacement_shift(capsys):
    # conjugating the bath by the displacement reproduces the coupled
    # blocks up to the constant -|g|^2/omega, with the truncation error
    # falling monotonically in the cutoff
    start = time.perf_counter()
    baths = [BathSpec((BathMode(1.0, 0.2),), fock_cutoff=n_max) for n_max in (4, 6, 8, 10, 12)]
    results = [checks.weyl_displacement(plus_fock_scenario(bath, steps=10)) for bath in baths]
    chk = results[-1]
    resid = chk["residual"]
    c_dev = abs(chk["c_fit"] - (-(0.2**2) / 1.0))
    sweep = [r["residual"] for r in results]
    monotone = all(b < a for a, b in zip(sweep, sweep[1:]))
    elapsed = time.perf_counter() - start
    ok = chk["passed"] and c_dev <= 1e-6 and monotone and chk["levels"] == 6 and elapsed < 10.0
    report(
        capsys, ok, "weyl displacement shift",
        f"residual {resid:.3e} on lowest {chk['levels']} levels, shift deviation {c_dev:.3e}, "
        f"sweep {' > '.join(f'{r:.1e}' for r in sweep)}",
        elapsed,
    )
    assert chk["passed"] and chk["tolerance"] == 1e-6
    assert resid <= 1e-6
    assert c_dev <= 1e-6
    assert chk["levels"] == 6
    assert monotone
    assert elapsed < 10.0


def test_trajectory_state_sanity(capsys):
    # every bundled scenario, run in its configured mode, emits physical
    # reduced states at every grid point
    start = time.perf_counter()
    worst = {"trace": 0.0, "herm": 0.0, "floor": 0.0, "purity": 0.0}
    count = 0
    for path in sorted(SCENARIO_DIR.glob("*.json")):
        config = load_scenario(path)
        traj = reduced_dynamics(config.scenario, config.mode)
        purity = np.array(
            [float(np.trace(rho @ rho).real) for rho in traj.states]
        )
        worst["trace"] = max(worst["trace"], float(np.max(traj.trace_dev)))
        worst["herm"] = max(worst["herm"], float(np.max(traj.herm_dev)))
        worst["floor"] = min(worst["floor"], float(np.min(traj.positivity_floor)))
        worst["purity"] = max(worst["purity"], float(np.max(purity)))
        count += len(traj)
    elapsed = time.perf_counter() - start
    ok = (
        worst["trace"] <= 1e-10
        and worst["herm"] <= 1e-11
        and worst["floor"] >= -1e-9
        and worst["purity"] <= 1.0 + 1e-9
        and count > 0
        and elapsed < 60.0
    )
    report(
        capsys, ok, "trajectory state sanity",
        f"{count} grid points: trace dev {worst['trace']:.1e}, hermiticity "
        f"{worst['herm']:.1e}, floor {worst['floor']:.1e}, max purity {worst['purity']:.12f}",
        elapsed,
    )
    assert worst["trace"] <= 1e-10
    assert worst["herm"] <= 1e-11
    assert worst["floor"] >= -1e-9
    assert worst["purity"] <= 1.0 + 1e-9
    assert count > 0
    assert elapsed < 60.0


def index_sum_trace(b: np.ndarray) -> np.ndarray:
    """Tr_E of a 2N x 2N operator b, qubit index slow, entry by entry."""
    n = len(b) // 2
    oracle = np.zeros((2, 2), dtype=complex)
    for i in range(2):
        for j in range(2):
            for k in range(n):
                oracle[i, j] += b[i * n + k, j * n + k]
    return oracle


def expm_error(rng) -> float:
    # the stepper's and the Weyl factor's exponential against the spectral one
    worst = 0.0
    for _ in range(10):
        h = random_hermitian(rng, 8)
        w, v = np.linalg.eigh(h)
        oracle = (v * np.exp(-1j * w)) @ v.conj().T
        worst = max(worst, frobenius_norm(linalg.expm(-1j * h) - oracle))
    return worst


def expm_action_error(rng) -> float:
    # a pure state's Taylor step on its plan, relative to scipy's Pade expm applied to x
    worst = 0.0
    for _ in range(10):
        h = random_hermitian(rng, 32)
        dt = 0.2 / np.abs(h).sum(axis=0).max()
        x = random_complex(rng, 32, 1)
        plan = linalg.action_plan(h, -1j * dt, 1)
        assert plan is not None
        want = scipy.linalg.expm(-1j * dt * h) @ x
        got = linalg.expm_action(h, -1j * dt, x, plan)
        worst = max(worst, frobenius_norm(got - want) / frobenius_norm(want))
    return worst


def trace_env_error(rng) -> float:
    # the factor-form trace of the trajectory kernels, Tr_E(phi diag(p) phi†)
    # for a stack of 2N x r factors, against the index sum of the dense operator
    phis = random_complex(rng, 4 * 12, 3).reshape(4, 12, 3)
    p = rng.random(3)
    got = dynamics._trace_env(phis, p)
    return max(
        frobenius_norm(got[j] - index_sum_trace(phi @ np.diag(p) @ phi.conj().T))
        for j, phi in enumerate(phis)
    )


def partial_trace_error(rng) -> float:
    return max(
        frobenius_norm(partial_trace_env(b) - index_sum_trace(b))
        for b in (random_complex(rng, 12) for _ in range(20))
    )


def sylvester_error(rng) -> float:
    # Newton's linearization against its Kronecker-vectorized linear system
    worst = 0.0
    for n, m in ((3, 3), (5, 2), (8, 8)):
        p = random_complex(rng, n)
        q = random_complex(rng, m)
        r = random_complex(rng, m, n)
        d = solve_sylvester(p, q, r)
        big = np.kron(np.eye(m), p.T) + np.kron(q, np.eye(n))
        oracle = np.linalg.solve(big, r.reshape(-1)).reshape(m, n)
        worst = max(worst, frobenius_norm(d - oracle))
    return worst


# kernel, its oracle, the error measure and its bound
KERNEL_ORACLES = (
    ("linalg.expm", "spectral exponential", expm_error, 1e-11),
    ("linalg.expm_action", "scipy's Pade expm times x, relative", expm_action_error, 1e-13),
    ("dynamics._trace_env", "index-sum trace", trace_env_error, 1e-13),
    ("blockop.partial_trace_env", "index-sum trace", partial_trace_error, 1e-14),
    ("linalg.solve_sylvester", "Kronecker-vectorized solve", sylvester_error, 1e-10),
)


def test_kernel_oracles(capsys):
    # each numerical kernel the program runs, against an independent route;
    # one line per kernel, and one runtime budget for the five
    rng = np.random.default_rng(31)
    errors, total = {}, 0.0
    for kernel, oracle, measure, bound in KERNEL_ORACLES:
        start = time.perf_counter()
        errors[kernel] = measure(rng)
        elapsed = time.perf_counter() - start
        total += elapsed
        report(
            capsys, errors[kernel] <= bound, f"kernel oracle {kernel}",
            f"error {errors[kernel]:.3e} against {oracle} (bound {bound:.0e})", elapsed,
        )
    for kernel, _, _, bound in KERNEL_ORACLES:
        assert errors[kernel] <= bound, kernel
    assert total < 10.0
