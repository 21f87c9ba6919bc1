import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bomric.blockop import (
    blocks,
    flatten,
    partial_trace_env,
    qubit_sandwich,
    sandwich_lemma_check,
)
from bomric.linalg import frobenius_norm

from conftest import ID2, PAULI_1, PAULI_2, PAULI_3, random_complex


def random_blockop(rng, n):
    return random_complex(rng, 2 * n)


def block_mul(x, y):
    # the block matrix product, block by block
    xb, yb = blocks(x), blocks(y)
    return flatten(np.array([
        [xb[0, 0] @ yb[0, 0] + xb[0, 1] @ yb[1, 0], xb[0, 0] @ yb[0, 1] + xb[0, 1] @ yb[1, 1]],
        [xb[1, 0] @ yb[0, 0] + xb[1, 1] @ yb[1, 0], xb[1, 0] @ yb[0, 1] + xb[1, 1] @ yb[1, 1]],
    ]))


def block_adjoint(x):
    # the adjoint, block by block: the off-diagonal blocks swap
    xb = blocks(x)
    return flatten(np.array([
        [xb[0, 0].conj().T, xb[1, 0].conj().T],
        [xb[0, 1].conj().T, xb[1, 1].conj().T],
    ]))


def ptrace_oracle(big, n):
    # direct index sum over the environment label
    out = np.zeros((2, 2), dtype=complex)
    for i in range(2):
        for j in range(2):
            for k in range(n):
                out[i, j] += big[i * n + k, j * n + k]
    return out


def test_flatten_matches_numpy_kron(rng):
    m = random_complex(rng, 2)
    e = random_complex(rng, 5)
    assert frobenius_norm(flatten(m[:, :, None, None] * e) - np.kron(m, e)) <= 1e-14


def test_flatten_block_placement(rng):
    b = rng.standard_normal((2, 2, 3, 3)) + 1j * rng.standard_normal((2, 2, 3, 3))
    big = flatten(b)
    assert np.array_equal(big[:3, :3], b[0, 0])
    assert np.array_equal(big[:3, 3:], b[0, 1])
    assert np.array_equal(big[3:, :3], b[1, 0])
    assert np.array_equal(big[3:, 3:], b[1, 1])


def test_flatten_inverts_blocks(rng):
    m = random_blockop(rng, 4)
    assert np.array_equal(flatten(blocks(m)), m)
    stack = np.array([random_blockop(rng, 3) for _ in range(5)])
    assert blocks(stack).shape == (5, 2, 2, 3, 3)
    assert np.array_equal(flatten(blocks(stack)), stack)


def test_blocks_is_a_view(rng):
    m = random_blockop(rng, 3)
    blocks(m)[1, 0] = 7.0
    assert np.all(m[3:, :3] == 7.0)
    assert not np.any(m[:3, :] == 7.0) and not np.any(m[3:, 3:] == 7.0)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_mul_is_flatten_homomorphism(seed):
    rng = np.random.default_rng(seed)
    a = random_blockop(rng, 3)
    b = random_blockop(rng, 3)
    lhs = block_mul(a, b)
    rhs = a @ b
    assert frobenius_norm(lhs - rhs) <= 1e-12


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_adjoint_commutes_with_flatten(seed):
    rng = np.random.default_rng(seed)
    a = random_blockop(rng, 3)
    assert np.array_equal(block_adjoint(a), a.conj().T)


def test_partial_trace_against_index_sum(rng):
    b = random_blockop(rng, 6)
    got = partial_trace_env(b)
    assert frobenius_norm(got - ptrace_oracle(b, 6)) <= 1e-14


def test_partial_trace_of_product_state(rng):
    m = random_complex(rng, 2)
    e = random_complex(rng, 4)
    got = partial_trace_env(np.kron(m, e))
    assert frobenius_norm(got - m * np.trace(e)) <= 1e-13


def test_partial_trace_linearity(rng):
    a = random_blockop(rng, 3)
    b = random_blockop(rng, 3)
    lhs = partial_trace_env(a + 2.0j * b)
    rhs = partial_trace_env(a) + 2.0j * partial_trace_env(b)
    assert frobenius_norm(lhs - rhs) <= 1e-13


def test_partial_trace_respects_adjoint(rng):
    a = random_blockop(rng, 3)
    lhs = partial_trace_env(a.conj().T)
    rhs = partial_trace_env(a).conj().T
    assert frobenius_norm(lhs - rhs) <= 1e-13


def stacked_sample(rng, k, n):
    """k qubit pairs (k, 2, 2) and k block operators stacked as (k, 2, 2, n, n)."""
    a1 = np.array([random_complex(rng, 2) for _ in range(k)])
    a2 = np.array([random_complex(rng, 2) for _ in range(k)])
    ops = [random_blockop(rng, n) for _ in range(k)]
    b = blocks(np.array(ops))
    return a1, b, a2, ops


def dense_sandwich_lhs(a1, op, a2):
    # Tr_E((A1 (x) 1) B (A2 (x) 1)) from the full 2N x 2N matrices
    n = len(op) // 2
    eye = np.eye(n)
    return ptrace_oracle(np.kron(a1, eye) @ op @ np.kron(a2, eye), n)


def test_sandwich_lemma_for_qubit_factors(rng):
    # Tr_env of (A1 (x) 1) B (A2 (x) 1) equals A1 Tr_env(B) A2
    a1, b, a2, ops = stacked_sample(rng, 10, 5)
    resid = sandwich_lemma_check(a1, b, a2)
    for r, op in zip(resid, ops):
        assert r <= 1e-12 * max(frobenius_norm(op), 1.0)


@pytest.mark.parametrize("n", [1, 2, 5, 13])
def test_sandwich_kernel_against_dense_oracle(rng, n):
    k = 4
    a1, b, a2, ops = stacked_sample(rng, k, n)
    lhs = np.trace(qubit_sandwich(a1, b, a2), axis1=-2, axis2=-1)
    resid = sandwich_lemma_check(a1, b, a2)
    assert lhs.shape == (k, 2, 2) and resid.shape == (k,)
    for i, op in enumerate(ops):
        dense = dense_sandwich_lhs(a1[i], op, a2[i])
        assert frobenius_norm(lhs[i] - dense) <= 1e-13 * frobenius_norm(dense)
        assert resid[i] <= 1e-12 * frobenius_norm(op)


@pytest.mark.parametrize("k", [1, 4])
@pytest.mark.parametrize("n", [1, 2, 5, 13])
def test_qubit_sandwich_against_dense_product(rng, n, k):
    # every entry of every block, not only the traces the sandwich check reads
    a1, b, a2, ops = stacked_sample(rng, k, n)
    full = qubit_sandwich(a1, b, a2)
    assert full.shape == (k, 2, 2, n, n)
    eye = np.eye(n)
    for i, op in enumerate(ops):
        dense = np.kron(a1[i], eye) @ op @ np.kron(a2[i], eye)
        got = flatten(full[i])
        assert np.max(np.abs(got - dense)) <= 1e-13 * frobenius_norm(op)


def test_partial_trace_breaks_for_env_acting_factor(rng):
    # the identity needs qubit-only factors; a generic env factor breaks it
    a1 = random_blockop(rng, 4)
    b = random_blockop(rng, 4)
    lhs = partial_trace_env(a1 @ b)
    rhs = partial_trace_env(a1) @ partial_trace_env(b)
    assert frobenius_norm(lhs - rhs) > 1e-6


def test_pauli_algebra():
    assert frobenius_norm(PAULI_1 @ PAULI_2 - 1j * PAULI_3) == 0.0
    assert frobenius_norm(PAULI_2 @ PAULI_3 - 1j * PAULI_1) == 0.0
    assert frobenius_norm(PAULI_3 @ PAULI_1 - 1j * PAULI_2) == 0.0
    for p in (PAULI_1, PAULI_2, PAULI_3):
        assert frobenius_norm(p @ p - ID2) == 0.0


def test_blocks_rejects_odd_dimension():
    with pytest.raises(ValueError):
        blocks(np.zeros((3, 3), dtype=complex))


def test_blockop_shape_validation(rng):
    # a block operator is a square matrix of even dimension, or a stack of them
    for shape in ((4, 6), (4,), (2, 5, 5)):
        with pytest.raises(ValueError):
            blocks(np.zeros(shape, dtype=complex))
