"""2 x 2 block operator matrices over a qubit (C^2) tensor environment space.

An operator on C^2 (x) C^N is stored as one plain 2N x 2N ndarray with the
qubit index slow, so kron(qubit 2 x 2, env N x N) is already in block form

    [[a11, a12],
     [a21, a22]]

with N x N blocks.  blocks(m) is its (2, 2, N, N) view, block (i, j) at
[i, j], and flatten is its inverse; the environment trace of each block
gives the reduced 2 x 2 operator directly.
"""
from __future__ import annotations

import numpy as np

from .linalg import frobenius_norm


def blocks(m) -> np.ndarray:
    """The (..., 2, 2, N, N) view of a 2N x 2N block operator or a stack of
    them, block (i, j) at [..., i, j]; a write through it changes m.  The
    parser and the Scenario constructor check shapes once, so m is taken as
    well formed; a misshapen m fails in the reshape."""
    m = np.asarray(m)
    n = m.shape[-1] // 2
    return m.reshape(*m.shape[:-2], 2, n, 2, n).swapaxes(-3, -2)


def flatten(b) -> np.ndarray:
    """The (..., 2N, 2N) matrices of a (..., 2, 2, N, N) block array, qubit
    index slow: the inverse of blocks."""
    b = np.asarray(b)
    n = b.shape[-1]
    return b.swapaxes(-3, -2).reshape(*b.shape[:-4], 2 * n, 2 * n)


def offdiag_norm(b):
    """||[b12; b21]||_F for the (2, 2, N, N) blocks b of a block operator, or
    the array of them over a (k, 2, 2, N, N) stack: the two off-diagonal
    blocks stacked, by frobenius_norm, so no square overflows."""
    return frobenius_norm(np.concatenate((b[..., 0, 1, :, :], b[..., 1, 0, :, :]), axis=-2))


def partial_trace_env(m) -> np.ndarray:
    """Trace out the environment: 2 x 2 matrix of blockwise traces."""
    return np.trace(blocks(m), axis1=-2, axis2=-1)


def qubit_sandwich(a1, b, a2) -> np.ndarray:
    """(A1 (x) 1) B (A2 (x) 1) block by block, for one sample or a stack.

    a1 and a2 hold qubit matrices, shape (..., 2, 2), acting as A (x) identity
    on the environment; b holds block operators as (..., 2, 2, N, N), block
    (i, j) at [..., i, j].  Block (i, l) of the product is
    sum_jc A1_ij A2_cl B_jc, so each sample is one product of its 4 x 4
    coefficient matrix with its four blocks as rows of N^2 entries; every
    entry of every product block is computed.  Returns (..., 2, 2, N, N).
    """
    n = b.shape[-1]
    coef = np.einsum("...ij,...cl->...iljc", a1, a2).reshape(*a1.shape[:-2], 4, 4)
    return (coef @ b.reshape(*b.shape[:-4], 4, n * n)).reshape(b.shape)


def sandwich_lemma_check(a1, b, a2) -> np.ndarray:
    """Residuals of Tr_E((A1 (x) 1) B (A2 (x) 1)) == A1 Tr_E(B) A2 over a stack.

    Arguments are stacked as for qubit_sandwich.  The left side forms the full
    product by qubit_sandwich and only then traces each of its blocks: tracing
    B first would compute the right side, the identity's other half.  Returns
    the k Frobenius norms of the difference, which are pure roundoff since the
    identity is exact.
    """
    lhs = np.trace(qubit_sandwich(a1, b, a2), axis1=-2, axis2=-1)
    rhs = a1 @ np.trace(b, axis1=-2, axis2=-1) @ a2
    return np.linalg.norm(lhs - rhs, axis=(1, 2))
