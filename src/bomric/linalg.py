"""Dense complex linear algebra kernel.

Every matrix in this package is a plain complex128 ndarray.  The wrappers
here add the shape and symmetry checks the rest of the code relies on and
pin the tolerances in one place.
"""
from __future__ import annotations

import numpy as np
import scipy.linalg

# Tolerance constants used across the package.
TOL_HERM_REL = 1e-10    # hermiticity: ||a - a†||_F <= TOL_HERM_REL * ||a||_F
TOL_EIG = 1e-11         # eigen-reconstruction residual, relative
TOL_SYLVESTER = 1e-10   # sylvester residual: <= TOL_SYLVESTER * (||p||+||q||) * ||delta||


class ShapeError(ValueError):
    """Operands have incompatible or non-square shapes."""


class NotHermitianError(ValueError):
    """A matrix required to be Hermitian is not, within tolerance."""


class SylvesterSingularError(np.linalg.LinAlgError):
    """The Sylvester operator is singular: spectra of -q and p overlap."""


def _as_matrix(a) -> np.ndarray:
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2:
        raise ShapeError(f"expected a 2-d array, got shape {a.shape}")
    return a


def _as_square(a) -> np.ndarray:
    a = _as_matrix(a)
    if a.shape[0] != a.shape[1]:
        raise ShapeError(f"expected a square matrix, got shape {a.shape}")
    return a


def frobenius_norm(a) -> float:
    """||a||_F; only where the plain sum of squares overflows (entries above
    about 1e154) are the entries first divided by their largest modulus."""
    a = np.asarray(a)
    with np.errstate(over="ignore"):
        norm = float(np.linalg.norm(a, "fro"))
    if norm == np.inf:
        scale = float(np.max(np.abs(a)))
        if scale < np.inf:
            norm = scale * float(np.linalg.norm(a / scale, "fro"))
    return norm


def operator_norm_estimate(a) -> float:
    """Largest singular value."""
    return float(np.linalg.norm(_as_matrix(a), 2))


def hermitian_deviation(a) -> float:
    """||a - a†||_F, the raw asymmetry of a square matrix."""
    a = _as_square(a)
    with np.errstate(over="ignore"):
        asym = a - a.conj().T
    return frobenius_norm(asym)


def is_hermitian(a) -> bool:
    """||a - a†||_F <= TOL_HERM_REL * max(||a||_F, 1)."""
    a = _as_square(a)
    return hermitian_deviation(a) <= TOL_HERM_REL * max(frobenius_norm(a), 1.0)


def expm(a, scale: complex = 1.0) -> np.ndarray:
    """exp(scale * a) by scaling-and-squaring (scipy backend), for one square
    matrix or each matrix of a (k, n, n) stack."""
    a = np.asarray(a, dtype=complex)
    if a.ndim not in (2, 3) or a.shape[-1] != a.shape[-2]:
        raise ShapeError(f"expected a square matrix or a stack of them, got shape {a.shape}")
    return scipy.linalg.expm(scale * a)


# theta_m for unit roundoff 2^-53 (Al-Mohy & Higham, SIAM J. Sci. Comput. 33
# (2011), Tables A.3 and 3.1): the degree-m Taylor series of exp(A / s) meets
# it when ||A||_1 / s <= theta_m.
TAYLOR_THETA = {
    1: 2.29e-16, 2: 2.58e-8, 3: 1.39e-5, 4: 3.40e-4, 5: 2.40e-3,
    6: 9.07e-3, 7: 2.38e-2, 8: 5.00e-2, 9: 8.96e-2, 10: 1.44e-1,
    11: 2.14e-1, 12: 3.00e-1, 13: 4.00e-1, 14: 5.14e-1, 15: 6.41e-1,
    16: 7.81e-1, 17: 9.31e-1, 18: 1.09, 19: 1.26, 20: 1.44,
    21: 1.62, 22: 1.82, 23: 2.01, 24: 2.22, 25: 2.43,
    26: 2.64, 27: 2.86, 28: 3.08, 29: 3.31, 30: 3.54,
    35: 4.7, 40: 6.0, 45: 7.2, 50: 8.5, 55: 9.9,
}


def taylor_plan(norm1: float) -> tuple[int, int]:
    """(m, s) minimizing the m * s products of s degree-m Taylor steps for
    exp(A) with finite ||A||_1 = norm1, to unit roundoff (smallest m on ties)."""
    return min(
        ((m, max(1, int(np.ceil(norm1 / theta)))) for m, theta in TAYLOR_THETA.items()),
        key=lambda ms: ms[0] * ms[1],
    )


def action_plan(a, scale: complex, r: int) -> tuple[int, int] | None:
    """Taylor plan for exp(scale * a) @ x with r columns in x, or None for dense.

    The action is kept only when its m * s products on the n x r block cost
    less than one dense exponential, taken as m * s * r <= n // 2.  Timed
    per step at one BLAS thread over n in {4, 10, 18, 26, 40, 64, 128}, r
    from 1 to n and m * s in {8, 13, 23}, the rule never chose the action
    where the dense step was faster; it keeps some mid-rank steps dense that
    the action would win.
    """
    a = _as_square(a)
    norm1 = abs(scale) * float(np.abs(a).sum(axis=0).max())
    # every table entry has m / theta_m > 5, so m * s > 5 * norm1: a norm above
    # n (or an overflowed one) is never thin, and the dense step reports it
    if not norm1 <= a.shape[0]:
        return None
    m, s = taylor_plan(norm1)
    return (m, s) if m * s * r <= a.shape[0] // 2 else None


def expm_action(a, scale: complex, x, plan: tuple[int, int]) -> np.ndarray:
    """exp(scale * a) @ x, with plan = action_plan(a, scale, r) for r columns in x.

    The plan (m, s) takes s steps of the degree-m Taylor series of
    exp(scale * a / s) (Al-Mohy & Higham 2011, Algorithm 3.2 without the
    trace shift or the early exit: at these sizes the exit test's norms cost
    more than the products they could save).
    """
    m, s = plan
    a = _as_square(a)
    f = b = np.asarray(x, dtype=complex)
    for _ in range(s):
        for j in range(1, m + 1):
            b = (scale / (s * j)) * (a @ b)
            f = f + b
        b = f
    return f


def hermitian_eig(a) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix.

    Returns (w, v) with w ascending and v unitary, a @ v == v @ diag(w).
    Rejects non-Hermitian input rather than silently symmetrizing.
    """
    a = _as_square(a)
    if not is_hermitian(a):
        raise NotHermitianError(
            f"matrix is not Hermitian: ||a - a†||_F = {hermitian_deviation(a):.3e}"
        )
    w, v = np.linalg.eigh(a)
    return w, v


def solve_sylvester(p, q, r) -> np.ndarray:
    """Solve delta @ p + q @ delta = r for delta.

    p is n x n, q is m x m, r and delta are m x n.  Raises
    SylvesterSingularError when an eigenvalue of -q coincides with one of p
    (the operator is singular there) or when the computed residual exceeds
    TOL_SYLVESTER * (||p|| + ||q||) * ||delta||.
    """
    p, q, r = _as_square(p), _as_square(q), _as_matrix(r)
    if r.shape != (q.shape[0], p.shape[0]):
        raise ShapeError(
            f"rhs shape {r.shape} does not match ({q.shape[0]}, {p.shape[0]})"
        )
    lam_p = np.linalg.eigvals(p)
    lam_q = np.linalg.eigvals(q)
    scale = operator_norm_estimate(p) + operator_norm_estimate(q)
    sep = np.min(np.abs(lam_p[None, :] + lam_q[:, None]))
    if sep <= 1e-13 * max(scale, 1.0):
        raise SylvesterSingularError(
            f"spectra of -q and p overlap: min |lam_p + lam_q| = {sep:.3e}"
        )
    delta = scipy.linalg.solve_sylvester(q, p, r)
    resid = frobenius_norm(delta @ p + q @ delta - r)
    bound = TOL_SYLVESTER * max(scale, 1.0) * max(frobenius_norm(delta), 1.0)
    if resid > bound:
        raise SylvesterSingularError(
            f"sylvester solve lost accuracy: residual {resid:.3e} > {bound:.3e}"
        )
    return delta
