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


def adjoint(a) -> np.ndarray:
    """Conjugate transpose."""
    return _as_matrix(a).conj().T


def frobenius_norm(a) -> float:
    return float(np.linalg.norm(np.asarray(a), "fro"))


def operator_norm_estimate(a) -> float:
    """Largest singular value."""
    return float(np.linalg.norm(_as_matrix(a), 2))


def hermitian_deviation(a) -> float:
    """||a - a†||_F, the raw asymmetry of a square matrix."""
    a = _as_square(a)
    return float(np.linalg.norm(a - a.conj().T, "fro"))


def is_hermitian(a, tol: float | None = None) -> bool:
    a = _as_square(a)
    if tol is None:
        tol = TOL_HERM_REL * max(frobenius_norm(a), 1.0)
    return hermitian_deviation(a) <= tol


def expm(a, scale: complex = 1.0) -> np.ndarray:
    """exp(scale * a) by scaling-and-squaring (scipy backend)."""
    a = _as_square(a)
    return scipy.linalg.expm(scale * a)


def hermitian_eig(a, tol: float | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix.

    Returns (w, v) with w ascending and v unitary, a @ v == v @ diag(w).
    Rejects non-Hermitian input rather than silently symmetrizing.
    """
    a = _as_square(a)
    if not is_hermitian(a, tol):
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
