"""2 x 2 block operator matrices over a qubit (C^2) tensor environment space.

An operator on C^2 (x) C^N is stored as four N x N blocks

    [[a11, a12],
     [a21, a22]]

so that kron(qubit 2x2, env N x N) lands in block form without reshuffling,
and the environment trace of each block gives the reduced 2 x 2 operator
directly.  Flattening uses the qubit index as the slow (outer) index.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import ShapeError

PAULI_1 = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_2 = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_3 = np.array([[1, 0], [0, -1]], dtype=complex)
ID2 = np.eye(2, dtype=complex)


@dataclass(frozen=True)
class BlockOp:
    """Four equal-size square blocks of an operator on C^2 (x) C^N."""

    a11: np.ndarray
    a12: np.ndarray
    a21: np.ndarray
    a22: np.ndarray

    def __post_init__(self):
        blocks = []
        for name in ("a11", "a12", "a21", "a22"):
            b = np.asarray(getattr(self, name), dtype=complex)
            if b.ndim != 2 or b.shape[0] != b.shape[1]:
                raise ShapeError(f"block {name} must be square, got shape {b.shape}")
            blocks.append(b)
        dim = blocks[0].shape[0]
        if any(b.shape[0] != dim for b in blocks):
            raise ShapeError("all four blocks must share one dimension")
        for name, b in zip(("a11", "a12", "a21", "a22"), blocks):
            object.__setattr__(self, name, b)

    @property
    def dim(self) -> int:
        """Environment dimension N (each block is N x N)."""
        return self.a11.shape[0]

    @property
    def blocks(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        return self.a11, self.a12, self.a21, self.a22


def kron_qubit_env(m, env) -> BlockOp:
    """kron(m, env) for a 2 x 2 qubit matrix m and a square env matrix."""
    m = np.asarray(m, dtype=complex)
    if m.shape != (2, 2):
        raise ShapeError(f"qubit factor must be 2 x 2, got {m.shape}")
    env = np.asarray(env, dtype=complex)
    return BlockOp(m[0, 0] * env, m[0, 1] * env, m[1, 0] * env, m[1, 1] * env)


def partial_trace_env(x: BlockOp) -> np.ndarray:
    """Trace out the environment: 2 x 2 matrix of blockwise traces."""
    return np.array(
        [
            [np.trace(x.a11), np.trace(x.a12)],
            [np.trace(x.a21), np.trace(x.a22)],
        ],
        dtype=complex,
    )


def flatten(x: BlockOp) -> np.ndarray:
    """Assemble the full 2N x 2N matrix, qubit index slow."""
    n = x.dim
    full = np.empty((2 * n, 2 * n), dtype=complex)
    full[:n, :n], full[:n, n:], full[n:, :n], full[n:, n:] = x.blocks
    return full


def unflatten(m) -> BlockOp:
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] % 2:
        raise ShapeError(f"expected a square even-dimension matrix, got {m.shape}")
    n = m.shape[0] // 2
    return BlockOp(m[:n, :n], m[:n, n:], m[n:, :n], m[n:, n:])


def qubit_sandwich(a1, b, a2) -> np.ndarray:
    """(A1 (x) 1) B (A2 (x) 1) block by block over a stack of k samples.

    a1 and a2 hold k qubit matrices, shape (k, 2, 2), acting as A (x) identity
    on the environment; b holds k block operators as (k, 2, 2, N, N), block
    (i, j) at [:, i, j].  Block (i, l) of the product is
    sum_jc A1_ij A2_cl B_jc, so each sample is one product of its 4 x 4
    coefficient matrix with its four blocks as rows of N^2 entries; every
    entry of every product block is computed.  Returns (k, 2, 2, N, N).
    """
    k, n = b.shape[0], b.shape[-1]
    coef = np.einsum("kij,kcl->kiljc", a1, a2).reshape(k, 4, 4)
    return (coef @ b.reshape(k, 4, n * n)).reshape(b.shape)


def sandwich_lhs(a1, b, a2) -> np.ndarray:
    """Tr_E((A1 (x) 1) B (A2 (x) 1)) over a stack of k samples, shape (k, 2, 2).

    Arguments are stacked as for qubit_sandwich.  The full product is formed
    by qubit_sandwich and only then is each of its blocks traced: tracing B
    first would compute the right side A1 Tr_E(B) A2 of the identity the
    sandwich check tests.
    """
    return np.trace(qubit_sandwich(a1, b, a2), axis1=-2, axis2=-1)


def sandwich_lemma_check(a1, b, a2) -> np.ndarray:
    """Residuals of Tr_E((A1 (x) 1) B (A2 (x) 1)) == A1 Tr_E(B) A2 over a stack.

    Arguments are stacked as for sandwich_lhs.  Returns the k Frobenius norms
    of the difference, which are pure roundoff since the identity is exact.
    """
    rhs = a1 @ np.trace(b, axis1=-2, axis2=-1) @ a2
    return np.linalg.norm(sandwich_lhs(a1, b, a2) - rhs, axis=(1, 2))
