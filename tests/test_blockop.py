import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bomric.blockop import (
    ID2,
    PAULI_1,
    PAULI_2,
    PAULI_3,
    BlockOp,
    flatten,
    kron_qubit_env,
    partial_trace_env,
    qubit_sandwich,
    sandwich_lemma_check,
    sandwich_lhs,
    unflatten,
)
from bomric.linalg import ShapeError, frobenius_norm

from conftest import random_complex


def random_blockop(rng, n):
    return BlockOp(*(random_complex(rng, n) for _ in range(4)))


def block_mul(x, y):
    # the block matrix product, block by block
    return BlockOp(
        x.a11 @ y.a11 + x.a12 @ y.a21,
        x.a11 @ y.a12 + x.a12 @ y.a22,
        x.a21 @ y.a11 + x.a22 @ y.a21,
        x.a21 @ y.a12 + x.a22 @ y.a22,
    )


def block_adjoint(x):
    # the adjoint, block by block: the off-diagonal blocks swap
    return BlockOp(x.a11.conj().T, x.a21.conj().T, x.a12.conj().T, x.a22.conj().T)


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
    assert frobenius_norm(flatten(kron_qubit_env(m, e)) - np.kron(m, e)) <= 1e-14


def test_flatten_block_placement(rng):
    b = random_blockop(rng, 3)
    big = flatten(b)
    assert np.array_equal(big[:3, :3], b.a11)
    assert np.array_equal(big[:3, 3:], b.a12)
    assert np.array_equal(big[3:, :3], b.a21)
    assert np.array_equal(big[3:, 3:], b.a22)


def test_unflatten_roundtrip(rng):
    b = random_blockop(rng, 4)
    c = unflatten(flatten(b))
    for blk, blk2 in zip(b.blocks, c.blocks):
        assert np.array_equal(blk, blk2)


def test_unflatten_rejects_odd_dimension():
    with pytest.raises(ShapeError):
        unflatten(np.zeros((3, 3), dtype=complex))


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_mul_is_flatten_homomorphism(seed):
    rng = np.random.default_rng(seed)
    a = random_blockop(rng, 3)
    b = random_blockop(rng, 3)
    lhs = flatten(block_mul(a, b))
    rhs = flatten(a) @ flatten(b)
    assert frobenius_norm(lhs - rhs) <= 1e-12


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_adjoint_commutes_with_flatten(seed):
    rng = np.random.default_rng(seed)
    a = random_blockop(rng, 3)
    assert np.array_equal(flatten(block_adjoint(a)), flatten(a).conj().T)


def test_partial_trace_against_index_sum(rng):
    b = random_blockop(rng, 6)
    got = partial_trace_env(b)
    assert frobenius_norm(got - ptrace_oracle(flatten(b), 6)) <= 1e-14


def test_partial_trace_of_product_state(rng):
    m = random_complex(rng, 2)
    e = random_complex(rng, 4)
    got = partial_trace_env(kron_qubit_env(m, e))
    assert frobenius_norm(got - m * np.trace(e)) <= 1e-13


def test_partial_trace_linearity(rng):
    a = random_blockop(rng, 3)
    b = random_blockop(rng, 3)
    lhs = partial_trace_env(unflatten(flatten(a) + 2.0j * flatten(b)))
    rhs = partial_trace_env(a) + 2.0j * partial_trace_env(b)
    assert frobenius_norm(lhs - rhs) <= 1e-13


def test_partial_trace_respects_adjoint(rng):
    a = random_blockop(rng, 3)
    lhs = partial_trace_env(unflatten(flatten(a).conj().T))
    rhs = partial_trace_env(a).conj().T
    assert frobenius_norm(lhs - rhs) <= 1e-13


def stacked_sample(rng, k, n):
    """k qubit pairs (k, 2, 2) and k block operators stacked as (k, 2, 2, n, n)."""
    a1 = np.array([random_complex(rng, 2) for _ in range(k)])
    a2 = np.array([random_complex(rng, 2) for _ in range(k)])
    ops = [random_blockop(rng, n) for _ in range(k)]
    b = np.array([[[op.a11, op.a12], [op.a21, op.a22]] for op in ops])
    return a1, b, a2, ops


def dense_sandwich_lhs(a1, op, a2):
    # Tr_E((A1 (x) 1) B (A2 (x) 1)) from the full 2N x 2N matrices
    eye = np.eye(op.dim)
    return ptrace_oracle(np.kron(a1, eye) @ flatten(op) @ np.kron(a2, eye), op.dim)


def test_sandwich_lemma_for_qubit_factors(rng):
    # Tr_env of (A1 (x) 1) B (A2 (x) 1) equals A1 Tr_env(B) A2
    a1, b, a2, ops = stacked_sample(rng, 10, 5)
    resid = sandwich_lemma_check(a1, b, a2)
    for r, op in zip(resid, ops):
        assert r <= 1e-12 * max(frobenius_norm(flatten(op)), 1.0)


@pytest.mark.parametrize("n", [1, 2, 5, 13])
def test_sandwich_kernel_against_dense_oracle(rng, n):
    k = 4
    a1, b, a2, ops = stacked_sample(rng, k, n)
    lhs = sandwich_lhs(a1, b, a2)
    resid = sandwich_lemma_check(a1, b, a2)
    assert lhs.shape == (k, 2, 2) and resid.shape == (k,)
    for i, op in enumerate(ops):
        dense = dense_sandwich_lhs(a1[i], op, a2[i])
        assert frobenius_norm(lhs[i] - dense) <= 1e-13 * frobenius_norm(dense)
        assert resid[i] <= 1e-12 * frobenius_norm(flatten(op))


@pytest.mark.parametrize("k", [1, 4])
@pytest.mark.parametrize("n", [1, 2, 5, 13])
def test_qubit_sandwich_against_dense_product(rng, n, k):
    # every entry of every block, not only the traces the sandwich check reads
    a1, b, a2, ops = stacked_sample(rng, k, n)
    full = qubit_sandwich(a1, b, a2)
    assert full.shape == (k, 2, 2, n, n)
    eye = np.eye(n)
    for i, op in enumerate(ops):
        dense = np.kron(a1[i], eye) @ flatten(op) @ np.kron(a2[i], eye)
        got = flatten(BlockOp(*full[i].reshape(4, n, n)))
        assert np.max(np.abs(got - dense)) <= 1e-13 * frobenius_norm(flatten(op))


def test_partial_trace_breaks_for_env_acting_factor(rng):
    # the identity needs qubit-only factors; a generic env factor breaks it
    a1 = random_blockop(rng, 4)
    b = random_blockop(rng, 4)
    lhs = partial_trace_env(unflatten(flatten(a1) @ flatten(b)))
    rhs = partial_trace_env(a1) @ partial_trace_env(b)
    assert frobenius_norm(lhs - rhs) > 1e-6


def test_pauli_algebra():
    assert frobenius_norm(PAULI_1 @ PAULI_2 - 1j * PAULI_3) == 0.0
    assert frobenius_norm(PAULI_2 @ PAULI_3 - 1j * PAULI_1) == 0.0
    assert frobenius_norm(PAULI_3 @ PAULI_1 - 1j * PAULI_2) == 0.0
    for p in (PAULI_1, PAULI_2, PAULI_3):
        assert frobenius_norm(p @ p - ID2) == 0.0


def test_blockop_shape_validation(rng):
    with pytest.raises(ShapeError):
        BlockOp(
            random_complex(rng, 3),
            random_complex(rng, 3),
            random_complex(rng, 3),
            random_complex(rng, 2),
        )
    with pytest.raises(ShapeError):
        kron_qubit_env(random_complex(rng, 3), random_complex(rng, 3))
