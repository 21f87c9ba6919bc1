import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from bomric import linalg
from bomric.linalg import (
    SylvesterSingularError,
    expm,
    frobenius_norm,
    hermitian_eig,
    solve_sylvester,
)

from conftest import random_complex, random_hermitian


def test_expm_nilpotent_exact():
    n = np.array([[0.0, 1.0], [0.0, 0.0]])
    assert frobenius_norm(expm(n) - np.array([[1, 1], [0, 1]])) <= 1e-15


def test_expm_diagonal_exact():
    d = np.diag([1.0 + 2.0j, -0.5j])
    assert frobenius_norm(expm(d) - np.diag(np.exp(np.diag(d)))) <= 1e-14


def test_expm_matches_eigendecomposition_oracle(rng):
    # independent route: exponentiate the spectrum
    for _ in range(5):
        h = random_hermitian(rng, 8)
        w, v = np.linalg.eigh(h)
        oracle = (v * np.exp(-1j * 0.7 * w)) @ v.conj().T
        got = expm(-0.7j * h)
        assert frobenius_norm(got - oracle) <= 1e-11


def test_expm_antihermitian_is_unitary(rng):
    h = random_hermitian(rng, 6)
    u = expm(-1j * h)
    assert frobenius_norm(u.conj().T @ u - np.eye(6)) <= 1e-12


@given(st.floats(-3, 3), st.floats(-3, 3))
@settings(max_examples=25, deadline=None)
def test_expm_semigroup(t, s):
    rng = np.random.default_rng(99)
    h = random_hermitian(rng, 5)
    lhs = expm(-1j * (t + s) * h)
    rhs = expm(-1j * t * h) @ expm(-1j * s * h)
    assert frobenius_norm(lhs - rhs) <= 1e-10


@pytest.mark.parametrize("r", [1, 3])
@pytest.mark.parametrize("norm1", [1e-3, 0.05, 0.4, 2.0, 9.0, 20.0])
def test_expm_action_matches_dense_oracle(rng, norm1, r):
    # ||a dt||_1 = norm1; above 9.9 the plan splits the series into s > 1 steps
    a = random_hermitian(rng, 12)
    dt = norm1 / np.abs(a).sum(axis=0).max()
    x = random_complex(rng, 12, r)
    m, s = linalg.taylor_plan(norm1)
    assert (s > 1) == (norm1 > 9.9)
    got = linalg.expm_action(a, -1j * dt, x, (m, s))
    want = scipy.linalg.expm(-1j * dt * a) @ x
    assert frobenius_norm(got - want) <= 1e-13 * frobenius_norm(want)


def test_expm_action_zero_operator_returns_x(rng):
    x = random_complex(rng, 6, 1)
    plan = linalg.action_plan(np.zeros((6, 6)), -0.3j, 1)
    assert plan == (1, 1)
    assert np.array_equal(linalg.expm_action(np.zeros((6, 6)), -0.3j, x, plan), x)


def test_expm_action_wide_factor_takes_dense_path(rng):
    a = random_hermitian(rng, 8)
    dt = 0.29 / np.abs(a).sum(axis=0).max()
    for r in (4, 8):
        assert linalg.action_plan(a, -1j * dt, r) is None
    # one column of a 32 x 32 operator at the same ||a dt||_1 takes the series
    b = random_hermitian(rng, 32)
    assert linalg.action_plan(b, -0.29j / np.abs(b).sum(axis=0).max(), 1) == (12, 1)


def random_generator_stack(rng, k, n, norm1):
    """-i h_j for k random Hermitian h_j, scaled so the largest ||h_j||_1 is norm1."""
    h = np.stack([random_hermitian(rng, n) for _ in range(k)])
    return -1j * h * (norm1 / np.abs(h).sum(axis=1).max())


@pytest.mark.parametrize("k", [1, 7])
@pytest.mark.parametrize("norm1", [1e-3, 0.05, 0.4, 2.0, 9.0])
def test_taylor_expm1_matches_dense_oracles(rng, k, norm1):
    n = 8
    a = random_generator_stack(rng, k, n, norm1)
    plan = linalg.expm1_plan(a[np.argmax(np.abs(a).sum(axis=1).max(axis=1))], 1.0)
    # from ||a||_1 = 2 on the plan squares
    assert plan[1] > 0 or norm1 < 2.0
    got = linalg.taylor_expm1(a, 1.0, plan)
    want = scipy.linalg.expm(a) - np.eye(n)
    # scipy rounds the near-one diagonal of exp(a) to unit roundoff before I
    # comes off, which is 1e-13 of E itself at ||a||_1 = 1e-3
    slack = np.finfo(float).eps * np.sqrt(k * n)
    assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want) + slack
    # the spectral route to exp(a) - I has no such rounding
    w, v = np.linalg.eigh(1j * a)
    spectral = np.einsum("kij,kj,klj->kil", v, np.expm1(-1j * w), v.conj())
    assert np.linalg.norm(got - spectral) <= 1e-13 * np.linalg.norm(spectral)


def test_taylor_expm1_zero_stack_is_exactly_zero():
    zeros = np.zeros((3, 5, 5), dtype=complex)
    plan = linalg.expm1_plan(zeros[0], -0.7j)
    assert plan == (1, 0)
    assert np.array_equal(linalg.taylor_expm1(zeros, -0.7j, plan), zeros)
    with pytest.raises(ValueError):  # one matrix, not a stack
        linalg.taylor_expm1(zeros[0], -0.7j, plan)


@pytest.mark.parametrize("entry", [np.inf, np.nan, 1e308, 4e307, 1e300, 1e17])
def test_expm1_plan_without_a_digit_gives_a_nan_step(entry):
    # inf and NaN norms, a column sum that overflows (4e308), and finite norms
    # whose 2^k >= 2^53 squarings would leave no correct digit; the finite
    # column sum 1.6e308 needs k = 1026, and 2.0**k overflows a float at 1024
    a = np.full((4, 4), entry, dtype=complex)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        plan = linalg.expm1_plan(a, -1j)
    assert plan is None
    assert np.isnan(linalg.taylor_expm1(a[None], -1j, plan)).all()


def test_expm1_plan_squarings_stay_below_the_mantissa():
    # ||a||_1 = 1e15 still has a plan, with fewer than 53 squarings
    a = np.diag([1e15, 0.0]).astype(complex)
    m, k = linalg.expm1_plan(a, 1j)
    assert k < 53 and m in linalg.TAYLOR_THETA
    assert 1e15 / 2.0**k <= linalg.TAYLOR_THETA[m]


def test_hermitian_eig_pauli_z():
    w, v = hermitian_eig(np.array([[1, 0], [0, -1]], dtype=complex))
    assert np.allclose(w, [-1.0, 1.0])
    assert frobenius_norm(v.conj().T @ v - np.eye(2)) <= 1e-14


def test_hermitian_eig_reconstruction(rng):
    tol_eig = 1e-11  # eigen-reconstruction residual, relative
    h = random_hermitian(rng, 8)
    w, v = hermitian_eig(h)
    assert np.all(np.diff(w) >= 0)
    recon = (v * w) @ v.conj().T
    assert frobenius_norm(recon - h) <= tol_eig * max(frobenius_norm(h), 1.0)


def sylvester_oracle(p, q, r):
    # row-major vec: vec(q @ d) = kron(q, I) vec(d), vec(d @ p) = kron(I, p.T) vec(d)
    n = p.shape[0]
    m = q.shape[0]
    big = np.kron(np.eye(m), p.T) + np.kron(q, np.eye(n))
    return np.linalg.solve(big, r.reshape(-1)).reshape(m, n)


def test_solve_sylvester_against_kronecker_oracle(rng):
    for n, m in ((3, 3), (5, 2), (8, 8)):
        p = random_complex(rng, n)
        q = random_complex(rng, m)
        r = random_complex(rng, m, n)
        d = solve_sylvester(p, q, r)
        assert frobenius_norm(d - sylvester_oracle(p, q, r)) <= 1e-10
        assert frobenius_norm(d @ p + q @ d - r) <= 1e-10


def test_solve_sylvester_mixed_fields_against_kronecker_oracle(rng):
    # real p and q keep float64, so a complex r must not meet scipy's real
    # Schur factors in the complex solver
    p, q = rng.standard_normal((5, 5)), rng.standard_normal((3, 3))
    r = random_complex(rng, 3, 5)
    d = solve_sylvester(p, q, r)
    assert d.dtype == np.complex128
    assert frobenius_norm(d - sylvester_oracle(p, q, r)) <= 1e-10
    assert solve_sylvester(p, q, r.real).dtype == np.float64


def test_solve_sylvester_singular_spectra():
    p = np.diag([1.0, 2.0]).astype(complex)
    q = np.diag([-1.0, 5.0]).astype(complex)  # -q has eigenvalue 1 = eig of p
    with pytest.raises(SylvesterSingularError):
        solve_sylvester(p, q, np.ones((2, 2), dtype=complex))


def test_solve_sylvester_shape_check(rng):
    with pytest.raises(ValueError):
        solve_sylvester(random_complex(rng, 3), random_complex(rng, 2), random_complex(rng, 3, 2))


def test_frobenius_norm_definition(rng):
    a = random_complex(rng, 4, 3)
    assert abs(frobenius_norm(a) - np.sqrt(np.sum(np.abs(a) ** 2))) <= 1e-13


def test_huge_entries_neither_overflow_the_norm_nor_pass_as_hermitian():
    # the plain sum of squares overflows above about 1e154; whether such a
    # matrix passes as Hermitian is validate_state's rule, tested in test_dynamics
    a = np.array([[1.0, 5.0], [0.0, 1.0]]) * 1e200
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert frobenius_norm(a) == pytest.approx(np.sqrt(27.0) * 1e200, rel=1e-15)
        assert frobenius_norm(np.array([[np.inf, 1.0]])) == np.inf
