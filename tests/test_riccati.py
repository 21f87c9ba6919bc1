import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bomric.bath import BathMode, BathSpec, bath_hamiltonian, coupling_operator
from bomric.blockop import blocks, flatten
from bomric.dynamics import QubitParams, hamiltonian_static
from bomric import checks, riccati
from bomric.linalg import frobenius_norm, hermitian_eig
from bomric.riccati import (
    DephasingRootError,
    NoGraphError,
    RiccatiConvergenceError,
    RiccatiProblem,
    diagonalize,
    periodic_blocks,
    residual,
    riccati_map,
    s_frame_blocks,
    solve_dephasing_quadratic,
    solve_invariant_subspace,
    solve_newton,
)
from bomric.scenario import scenario_from_dict

from conftest import REPO, dephasing_operator, plus_fock_scenario, random_complex, random_hermitian

QUBIT = QubitParams(alpha=0.3, beta=0.5, omega=1.0)


def spinboson_problem(bath):
    return RiccatiProblem(hamiltonian_static(QUBIT, bath))


def problem(a, b, c):
    # the problem of R = [[a, b], [b†, c]]
    a, b, c = (np.asarray(m) for m in (a, b, c))
    return RiccatiProblem(np.block([[a, b], [b.conj().T, c]]))


def test_scalar_root_closed_form():
    # 1 x 1 problem: alpha x^2 + 2 beta x - alpha = 0
    alpha, beta, h = 0.3, 0.5, 1.7
    p = problem([[h + beta]], [[alpha]], [[h - beta]])
    sol = solve_newton(p)
    expected = (-beta + math.sqrt(beta**2 + alpha**2)) / alpha
    assert abs(complex(sol.x[0, 0]) - expected) <= 1e-14
    assert abs(expected) < 1.0


def test_newton_on_spin_boson(riccati_bath):
    p = spinboson_problem(riccati_bath)
    sol = solve_newton(p)
    assert sol.residual <= 1e-12
    assert sol.iterations <= 8
    # the contractive branch
    assert np.linalg.norm(sol.x, 2) < 1.0
    # residual field is recomputed, not carried over
    assert abs(sol.residual - residual(p, sol.x)) == 0.0


def test_newton_decoupled_blocks_give_zero(riccati_bath):
    q0 = QubitParams(alpha=0.0, beta=0.5, omega=1.0)
    p = RiccatiProblem(hamiltonian_static(q0, riccati_bath))
    sol = solve_newton(p)
    assert sol.iterations == 0
    assert np.count_nonzero(sol.x) == 0


def test_graph_branch_agrees_with_newton(riccati_bath):
    p = spinboson_problem(riccati_bath)
    newton = solve_newton(p)
    sub = solve_invariant_subspace(p)
    assert sub.residual <= 1e-9
    assert frobenius_norm(sub.x - newton.x) <= 1e-8


def test_real_coupling_graph_x_is_float64_and_matches_complex_arithmetic(riccati_bath):
    p = spinboson_problem(riccati_bath)
    assert p.a.dtype == p.b.dtype == p.c.dtype == np.float64
    x = solve_invariant_subspace(p).x
    # the same graph branch from the eigenvectors of R taken in complex128
    n = p.dim
    _, vec = np.linalg.eigh(p.r.astype(np.complex128))
    weights = np.sum(np.abs(vec[:n]) ** 2, axis=0)
    sel = np.sort(np.argsort(weights)[::-1][:n])
    xc = np.linalg.solve(vec[:n, sel].T, vec[n:, sel].T).T
    assert x.dtype == np.float64 and xc.dtype == np.complex128
    assert frobenius_norm(x - xc) <= 1e-12 * frobenius_norm(x)


@pytest.mark.parametrize(
    "g, field", [(0.2, np.float64), (0.2 * np.exp(0.7j), np.complex128)], ids=["real", "complex"]
)
def test_riccati_field_follows_the_coupling(g, field):
    # g_im != 0 keeps the problem complex; both fields solve to the same
    # residual cap, agree with Newton from zero and meet diagonalize's bound
    p = spinboson_problem(BathSpec((BathMode(2.0, g),), fock_cutoff=8))
    assert p.a.dtype == p.b.dtype == p.c.dtype == field
    sub = solve_invariant_subspace(p)
    newton = solve_newton(p)
    assert sub.x.dtype == newton.x.dtype == field
    assert sub.residual <= riccati._SUBSPACE_RESIDUAL_CAP * max(1.0, frobenius_norm(p.r))
    assert frobenius_norm(sub.x - newton.x) <= 1e-8
    assert sub.x_norm2 == np.linalg.norm(sub.x, 2)
    diag = diagonalize(p, newton)
    assert diag["offdiag_residual"] <= 10.0 * max(newton.residual, 1e-15) * diag["cond_ux"]


def test_upper_half_graph_for_separated_spectra(rng):
    # pushing the blocks apart makes the graph branch (the upper half of the
    # spectrum) the contractive solution Newton finds from zero
    h = random_hermitian(rng, 6)
    spread = float(np.ptp(np.linalg.eigvalsh(h)))
    s = spread + 1.0
    b = 0.05 * random_complex(rng, 6)
    p = problem(h + s * np.eye(6), b, h - s * np.eye(6))
    newton = solve_newton(p)
    graph = solve_invariant_subspace(p)
    assert frobenius_norm(graph.x - newton.x) <= 1e-8


def test_ambiguous_graph_weights_raise():
    # a = c = 0, b = 1: both eigenvectors carry weight 1/2 on the top block
    p = problem([[0.0]], [[1.0]], [[0.0]])
    with pytest.raises(NoGraphError, match="top-block weights"):
        solve_invariant_subspace(p)


def test_vertical_subspace_has_no_graph(monkeypatch, riccati_bath):
    # the graph branch's Y1 is invertible here; with the cap below its
    # condition number the subspace counts as vertical
    p = spinboson_problem(riccati_bath)
    _, vec = hermitian_eig(p.r)
    cond = np.linalg.cond(vec[: p.dim, riccati._select_branch(p, vec)])
    monkeypatch.setattr(riccati, "_Y1_COND_CAP", 0.5 * cond)
    with pytest.raises(NoGraphError) as exc:
        solve_invariant_subspace(p)
    assert str(exc.value).endswith(f"no graph representation: cond(Y1) = {cond:.3e}")


def test_nan_subspace_residual_is_no_graph(monkeypatch, riccati_bath):
    # a NaN residual compares false against the cap, and still fails it
    monkeypatch.setattr(riccati, "residual", lambda p, x: float("nan"))
    with pytest.raises(NoGraphError, match="not a solution graph: residual nan"):
        solve_invariant_subspace(spinboson_problem(riccati_bath))


def congruence_factor(x):
    # U_X = [[1, -X†], [X, 1]] as a dense 2N x 2N matrix
    eye = np.eye(x.shape[0])
    return np.block([[eye, -x.conj().T], [x, eye]])


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_congruence_factor_normal_equations(seed):
    # U_X† U_X = diag(1 + X†X, 1 + XX†)
    rng = np.random.default_rng(seed)
    x = random_complex(rng, 4)
    u = congruence_factor(x)
    gram = u.conj().T @ u
    eye = np.eye(4)
    expected = np.block(
        [
            [eye + x.conj().T @ x, np.zeros((4, 4))],
            [np.zeros((4, 4)), eye + x @ x.conj().T],
        ]
    )
    assert frobenius_norm(gram - expected) <= 1e-12


def test_diagonalize_splits_spectrum(riccati_bath):
    h = hamiltonian_static(QUBIT, riccati_bath)
    p = RiccatiProblem(h)
    sol = solve_newton(p)
    diag = diagonalize(p, sol)
    assert diag["offdiag_residual"] <= 10.0 * max(sol.residual, 1e-15) * diag["cond_ux"]
    d1, d2, off = _dense_diagonalize(p, sol.x)
    assert diag["offdiag_residual"] == off
    assert frobenius_norm(d1 - (p.a + p.b @ sol.x)) <= 1e-10
    # similarity preserves the full spectrum; the blocks split it exactly
    got = np.sort_complex(np.concatenate([np.linalg.eigvals(d1), np.linalg.eigvals(d2)]))
    expected = np.sort_complex(np.linalg.eigvalsh(h).astype(complex))
    assert np.max(np.abs(got - expected)) <= 1e-9


def _dense_diagonalize(p, x):
    # reference transform: one 2N LU solve with U_X, whose off-diagonal norm
    # diagonalize must reproduce bit for bit
    ux = congruence_factor(x)
    transformed = np.linalg.solve(ux, p.r @ ux)
    n = p.dim
    off = np.linalg.norm(np.concatenate((transformed[:n, n:], transformed[n:, :n])))
    return transformed[:n, :n], transformed[n:, n:], float(off)


@pytest.mark.parametrize("x_norm2", [1e-3, 1.0, 1e3, 1e6])
def test_diagonalize_condition_from_singular_values_of_x(rng, x_norm2):
    n = 8
    x = random_complex(rng, n)
    x *= x_norm2 / np.linalg.norm(x, 2)
    p = problem(random_hermitian(rng, n), random_complex(rng, n), random_hermitian(rng, n))
    sol = riccati.RiccatiSolution(x=x, iterations=0, residual=0.0, eta=0.0,
                                  x_norm=frobenius_norm(x),
                                  singular_values=np.linalg.svd(x, compute_uv=False))
    diag = diagonalize(p, sol)
    expected = np.linalg.cond(congruence_factor(x))
    assert abs(diag["cond_ux"] - expected) <= 1e-12 * expected
    assert diag["offdiag_residual"] == _dense_diagonalize(p, x)[2]


def test_newton_iteration_budget_exhausted(riccati_bath, monkeypatch):
    monkeypatch.setattr(riccati, "MAX_NEWTON_ITERS", 1)
    p = spinboson_problem(riccati_bath)
    with pytest.raises(RiccatiConvergenceError) as exc:
        solve_newton(p)
    assert len(exc.value.trace) == 2
    assert exc.value.trace[1] < exc.value.trace[0]


def test_newton_resonant_drive_fails():
    # 2 beta equal to the mode frequency makes the linearization singular:
    # the spectra of the shifted blocks coincide level by level
    bath = BathSpec((BathMode(1.0, 0.2),), fock_cutoff=8)
    p = RiccatiProblem(hamiltonian_static(QubitParams(0.3, 0.5, 1.0), bath))
    with pytest.raises(RiccatiConvergenceError) as exc:
        solve_newton(p)
    assert len(exc.value.trace) >= 1


def test_newton_eta_rule_does_not_rescue_resonant_stall():
    # one mode at 2 beta, cutoff 7: from zero Newton's eta never comes near
    # the roundoff floor, so the iteration still runs out of steps (cutoff 6
    # is too close to the budget: there the iterates converge in 38 steps)
    bath = BathSpec((BathMode(1.0, 0.2),), fock_cutoff=7)
    p = RiccatiProblem(hamiltonian_static(QUBIT, bath))
    with pytest.raises(RiccatiConvergenceError) as exc:
        solve_newton(p)
    assert len(exc.value.trace) == riccati.MAX_NEWTON_ITERS + 1
    assert "best eta " in str(exc.value)


def test_newton_never_accepts_overflowing_eta_denominator(monkeypatch):
    # X b X = 0 keeps the residual at ||b|| = 1, but ||b|| ||X||_F^2
    # overflows; a denominator of inf must not read as eta = 0
    monkeypatch.setattr(riccati, "MAX_NEWTON_ITERS", 0)
    zero = np.zeros((2, 2))
    p = problem(zero, [[1.0, 0.0], [0.0, 0.0]], zero)
    x0 = np.array([[0.0, 1e160], [0.0, 0.0]])
    assert residual(p, x0) == 1.0
    with pytest.raises(RiccatiConvergenceError) as exc:
        solve_newton(p, x0=x0)
    assert exc.value.trace == [1.0]
    assert "best eta inf" in str(exc.value)


def test_newton_accepts_eta_floor_above_absolute_tolerance(riccati_bath):
    # the solve returns on eta alone, with a residual that is not zero
    p = spinboson_problem(riccati_bath)
    sol = solve_newton(p)
    assert sol.residual > 0.0
    assert sol.eta <= riccati.ETA_TOL
    norm = frobenius_norm
    x_norm = norm(sol.x)
    scale = norm(p.b) * x_norm**2 + (norm(p.a) + norm(p.c)) * x_norm + norm(p.b)
    assert sol.eta == pytest.approx(sol.residual / scale, rel=1e-14)


def test_default_route_refines_the_graph_x(riccati_bath):
    # the graph X comes first and is Newton's start: its residual opens the trace
    p = spinboson_problem(riccati_bath)
    sols = riccati.solve(p)
    assert list(sols) == ["subspace", "newton"]
    graph, newton = sols["subspace"], sols["newton"]
    assert newton.trace[0] == graph.residual
    assert newton.iterations == 0 and newton.x is graph.x  # already at the eta floor
    for sol in sols.values():
        assert sol.x_norm == frobenius_norm(sol.x)
        assert sol.residual == residual(p, sol.x)


def test_one_solver_routes(riccati_bath):
    p = spinboson_problem(riccati_bath)
    (newton,) = riccati.solve(p, "newton").values()
    assert newton.trace[0] == frobenius_norm(p.b)  # F(0) = -b†
    assert list(riccati.solve(p, "subspace")) == ["subspace"]


def test_subspace_route_refuses_eta_above_floor():
    # at alpha 1e-12 the graph X solves the equation to eta 1.75e11 u, which
    # --method subspace may not return unrefined
    doc = json.loads((REPO / "scenarios" / "riccati_spinboson.json").read_text())
    doc["qubit"]["alpha"] = 1e-12
    s = scenario_from_dict(doc).scenario
    p = RiccatiProblem(hamiltonian_static(s.qubit, s.bath))
    with pytest.raises(riccati.SolverError) as exc:
        riccati.solve(p, "subspace")
    graph = solve_invariant_subspace(p)
    assert str(exc.value) == (f"graph X has eta {graph.eta:.3e} above ETA_TOL = "
                              f"{riccati.ETA_TOL:.3e}; the default route refines the graph X")
    assert riccati.solve(p)["newton"].eta <= riccati.ETA_TOL


def test_dephasing_residuals_refuse_a_non_finite_one(small_bath):
    m = np.array([[1.0, 1.0], [1.0, -1.0]])
    roots = solve_dephasing_quadratic(m)
    res = riccati.dephasing_residuals(m, small_bath.he, small_bath.v, roots)
    assert max(res) <= 1e-12
    with np.errstate(all="ignore"), pytest.raises(DephasingRootError, match="not finite "):
        riccati.dephasing_residuals(m, small_bath.he, small_bath.v, (roots[0], 1e300))


def test_problem_validation(rng):
    with pytest.raises(ValueError):  # an odd dimension has no blocks
        RiccatiProblem(random_hermitian(rng, 5)).a
    with pytest.raises(ValueError):
        RiccatiProblem(random_complex(rng, 2, 4)).a


def test_block_operator_builders_are_exactly_hermitian():
    # eigh and the solvers take these as built, with no Hermiticity check
    bath = BathSpec((BathMode(1.3, 0.2 - 0.1j), BathMode(0.7, -0.05 + 0.3j)), fock_cutoff=3)
    doc = json.loads((REPO / "scenarios" / "dephasing.json").read_text())
    doc["dephasing"] = {"m11": 0.4, "m22": -0.1, "m12_re": 0.3, "m12_im": -0.2}
    m = scenario_from_dict(doc).dephasing_m
    assert np.array_equal(m, [[0.4, 0.3 - 0.2j], [0.3 + 0.2j, -0.1]])
    q = QubitParams(alpha=0.3, beta=0.5, omega=1.7)
    for r in (
        hamiltonian_static(QUBIT, bath),
        hamiltonian_static(q, bath, q.beta - q.omega / 2.0),  # factored's H(beta - omega/2)
        m,
        dephasing_operator(bath, m),
        periodic_bom(bath, 0.5, 0.3, 1.7),
    ):
        assert np.array_equal(r, r.conj().T)


def test_initial_guess_is_used(riccati_bath):
    p = spinboson_problem(riccati_bath)
    warm = solve_newton(p).x
    sol = solve_newton(p, x0=warm)
    assert sol.iterations == 0


# -- dephasing quadratic -----------------------------------------------------

def test_dephasing_symmetric_coupling():
    principal, partner = solve_dephasing_quadratic(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert principal == 1.0
    assert partner == -1.0


def test_dephasing_frozen_example():
    m = np.array([[1.0, 1.0j], [-1.0j, -1.0]])
    principal, partner = solve_dephasing_quadratic(m)
    assert abs(principal - 1j * (1.0 - math.sqrt(2.0))) <= 1e-15
    assert abs(partner - 1j * (1.0 + math.sqrt(2.0))) <= 1e-15


@given(
    st.floats(-3, 3),
    st.floats(-3, 3),
    st.floats(-3, 3),
    st.floats(-3, 3),
)
@settings(max_examples=50, deadline=None)
def test_dephasing_root_pair_structure(m11, m22, re12, im12):
    m12 = complex(re12, im12)
    if abs(m12) < 1e-6:
        return
    m = np.array([[m11, m12], [np.conj(m12), m22]])
    principal, partner = solve_dephasing_quadratic(m)
    for x in (principal, partner):
        scale = max(1.0, abs(m12) * abs(x) ** 2 + abs(m11 - m22) * abs(x))
        assert abs(m12 * x * x + (m11 - m22) * x - np.conj(m12)) <= 1e-12 * scale
    assert abs(partner - (-1.0 / np.conj(principal))) <= 1e-12 * max(
        1.0, abs(partner)
    )
    assert abs(principal) <= 1.0 + 1e-12


def test_dephasing_scalar_root_solves_operator_equation(small_bath):
    m = np.array([[1.0, 1.0j], [-1.0j, -1.0]])
    principal, partner = solve_dephasing_quadratic(m)
    p = RiccatiProblem(dephasing_operator(small_bath, m))
    vnorm = frobenius_norm(coupling_operator(small_bath))
    eye = np.eye(small_bath.env_dim)
    for x in (principal, partner):
        assert residual(p, x * eye) <= 1e-12 * max(1.0, abs(x) ** 2) * vnorm


def test_dephasing_rejects_degenerate_coupling():
    with pytest.raises(DephasingRootError):
        solve_dephasing_quadratic(np.diag([1.0, -1.0]))
    with pytest.raises(ValueError):
        solve_dephasing_quadratic(np.eye(3))


# -- periodically driven block operator --------------------------------------

def phase(alpha, t):
    return complex(np.exp(-2j * alpha * t))


def periodic_bom(bath, beta, alpha, t):
    # the 2N x 2N driven operator [[H_E, z_t* W], [z_t W, H_E]], W = V + beta
    w = bath.v + beta * np.eye(bath.env_dim)
    return flatten(periodic_blocks(bath.he, w, phase(alpha, t)))


def s_frame_unitary(alpha, t, n):
    # S_t = S (x) 1 with S = [[1, -z_t*], [z_t, 1]] / sqrt(2), a dense 2N x 2N matrix
    z = phase(alpha, t)
    return np.kron(np.array([[1.0, -np.conj(z)], [z, 1.0]]) / np.sqrt(2.0), np.eye(n))


def s_frame_transform(h, alpha, t):
    return flatten(s_frame_blocks(blocks(h), phase(alpha, t)))


def blockwise_residual(he, w, z):
    # zt_riccati's F(z_t 1) on the N x N blocks a = c = H_E, b = z_t* W
    return frobenius_norm(riccati_map(z * np.eye(len(he)), he, np.conj(z) * w, he))


def test_periodic_phase_winding(small_bath):
    # the phases that zt_riccati and st_diagonalization sample on [0, t_max]
    s = plus_fock_scenario(small_bath, steps=10, t_max=1.7)
    he, w, phases = checks.resonant_drive(s)
    assert he is small_bath.he
    assert np.array_equal(w, small_bath.v + 0.5 * np.eye(small_bath.env_dim))
    assert len(phases) == checks.PHASE_POINTS
    assert phases[0] == 1.0
    for t, z in zip(np.linspace(0.0, 1.7, checks.PHASE_POINTS), phases):
        assert abs(abs(z) - 1.0) <= 1e-15
        assert abs(z - np.exp(-2j * 0.3 * t)) == 0.0


def test_phase_solves_driven_riccati(small_bath):
    eye = np.eye(small_bath.env_dim)
    w = coupling_operator(small_bath) + 0.5 * eye
    scale = max(1.0, frobenius_norm(w))
    for t in np.linspace(0.0, 12.0, 13):
        h = periodic_bom(small_bath, beta=0.5, alpha=0.3, t=float(t))
        z = phase(0.3, float(t))
        assert residual(RiccatiProblem(h), z * eye) <= 1e-13 * scale
        assert blockwise_residual(small_bath.he, w, z) <= 1e-13 * scale
        # and the blocks are what they should be
        assert frobenius_norm(blocks(h)[0, 0] - bath_hamiltonian(small_bath)) == 0.0
        assert frobenius_norm(blocks(h)[1, 0] - z * w) <= 1e-15


def test_block_level_phase_residual_is_that_of_periodic_bom(small_bath):
    # zt_riccati takes F(z_t 1) on the N x N blocks (H_E, z_t* W) of
    # periodic_blocks; the generic residual on the 2N x 2N operator agrees
    eye = np.eye(small_bath.env_dim)
    w = small_bath.v + 0.5 * eye
    for t in (0.0, 0.4, 1.7, 3.3, 7.9):
        z = phase(0.3, t)
        full = residual(RiccatiProblem(periodic_bom(small_bath, 0.5, 0.3, t)), z * eye)
        blockwise = blockwise_residual(small_bath.he, w, z)
        assert blockwise == pytest.approx(full, rel=0.0, abs=1e-15 * frobenius_norm(w))


def test_drive_frame_unitary(small_bath):
    n = 2 * small_bath.env_dim
    s = s_frame_unitary(alpha=0.3, t=2.1, n=small_bath.env_dim)
    assert frobenius_norm(s.conj().T @ s - np.eye(n)) <= 1e-13
    # s_frame_blocks is the same unitary congruence: it leaves 1 in place
    ident = s_frame_blocks(blocks(np.eye(n, dtype=complex)), phase(0.3, 2.1))
    assert frobenius_norm(flatten(ident) - np.eye(n)) <= 1e-13


def test_drive_frame_diagonalizes_at_all_times(small_bath):
    he = bath_hamiltonian(small_bath)
    w = coupling_operator(small_bath) + 0.5 * np.eye(small_bath.env_dim)
    for t in (0.0, 0.4, 3.3, 7.9):
        z = phase(0.3, t)
        d = s_frame_blocks(periodic_blocks(small_bath.he, w, z), z)
        assert frobenius_norm(d[0, 1]) <= 1e-13
        assert frobenius_norm(d[1, 0]) <= 1e-13
        assert frobenius_norm(d[0, 0] - (he + w)) <= 1e-13
        assert frobenius_norm(d[1, 1] - (he - w)) <= 1e-13


def test_drive_frame_transform_against_dense_product(small_bath):
    # S_t† H S_t with S_t = S (x) 1 as full 2N x 2N matrices, entry by entry
    for t in (0.0, 0.4, 3.3, 7.9):
        h = periodic_bom(small_bath, 0.5, 0.3, t)
        s = s_frame_unitary(alpha=0.3, t=t, n=small_bath.env_dim)
        dense = s.conj().T @ h @ s
        got = s_frame_transform(h, alpha=0.3, t=t)
        assert np.max(np.abs(got - dense)) <= 1e-13 * frobenius_norm(h)


def test_drive_frame_transform_is_time_independent(small_bath):
    d0 = s_frame_transform(periodic_bom(small_bath, 0.5, 0.3, 0.0), alpha=0.3, t=0.0)
    d1 = s_frame_transform(periodic_bom(small_bath, 0.5, 0.3, 5.5), alpha=0.3, t=5.5)
    assert frobenius_norm(d0 - d1) <= 1e-12
