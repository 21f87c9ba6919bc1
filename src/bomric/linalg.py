"""Dense linear algebra kernel.

Every matrix in this package is a plain ndarray: float64 input stays float64,
so a real problem runs real LAPACK, and any other is cast to complex128.  The
wrappers here add the symmetry checks the rest of the code relies on and pin
the tolerances in one place.  They take well-formed operands: the scenario
parser and the Scenario constructor check every shape once, and a misshapen
operand from library code fails in numpy's own reshape, broadcast or matmul.
"""
from __future__ import annotations

import math

import numpy as np

# Tolerance constants used across the package.
TOL_HERM_REL = 1e-10    # hermiticity: ||a - a†||_F <= TOL_HERM_REL * ||a||_F
TOL_SYLVESTER = 1e-10   # sylvester residual: <= TOL_SYLVESTER * (||p||+||q||) * ||delta||


class NotHermitianError(ValueError):
    """A matrix required to be Hermitian is not, within tolerance."""


class SylvesterSingularError(np.linalg.LinAlgError):
    """The Sylvester operator is singular: spectra of -q and p overlap."""


def _as_matrix(a) -> np.ndarray:
    a = np.asarray(a)
    return a if a.dtype == np.float64 else a.astype(complex, copy=False)


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


def hermitian_part(a, name: str = "matrix") -> np.ndarray:
    """(a + a†) / 2, Hermitian to the bit and equal to a if a is (but for
    subnormal entries); raises NotHermitianError, naming ||a - a†||_F, when
    that exceeds TOL_HERM_REL * max(||a||_F, 1).  Both read one copy of a†."""
    a = _as_matrix(a)
    ah = np.conjugate(a.T, order="C")
    with np.errstate(over="ignore"):
        dev = frobenius_norm(a - ah)
    if not dev <= TOL_HERM_REL * max(frobenius_norm(a), 1.0):
        raise NotHermitianError(f"{name} is not Hermitian: deviation {dev:.3e}")
    ah *= 0.5  # halved before the sum, which then cannot overflow
    ah += 0.5 * a
    return ah


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


def _norm1(a, scale: complex) -> float:
    """||scale * a||_1 of a square matrix, inf where the column sums overflow."""
    with np.errstate(over="ignore"):
        return abs(scale) * float(np.abs(a).sum(axis=0).max())


def taylor_plan(norm1: float) -> tuple[int, int]:
    """(m, s) minimizing the m * s products of s degree-m Taylor steps for
    exp(A) with finite ||A||_1 = norm1, to unit roundoff (smallest m on ties)."""
    return min(
        ((m, max(1, int(np.ceil(norm1 / theta)))) for m, theta in TAYLOR_THETA.items()),
        key=lambda ms: ms[0] * ms[1],
    )


def action_plan(a, scale: complex, r: int) -> tuple[int, int] | None:
    """Taylor plan (m, s) for exp(scale * a) @ x with r columns in x when
    m * s * r <= n // 2, else None for the dense step; bomric.dynamics's
    docstring gives the reason."""
    norm1 = _norm1(a, scale)
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
    early exit: at these sizes the exit test's norms cost more than the
    products they could save).  The algorithm's trace shift is the caller's,
    as bomric.dynamics's docstring states.
    """
    m, s = plan
    f = b = np.asarray(x, dtype=complex)
    for _ in range(s):
        for j in range(1, m + 1):
            b = (scale / (s * j)) * (a @ b)
            f = f + b
        b = f
    return f


def _ps_width(m: int) -> int:
    """q = ceil(sqrt(m)): Paterson-Stockmeyer forms the powers B, ..., B^q of
    a degree-m polynomial in B, then takes ceil(m / q) - 1 Horner steps in B^q."""
    return math.isqrt(m - 1) + 1


def expm1_plan(a, scale: complex) -> tuple[int, int] | None:
    """Plan (m, k) for taylor_expm1(a, scale, plan), or None.

    The degree-m Taylor polynomial of exp(scale * a / 2^k) meets unit roundoff
    u = 2^-53 when ||scale * a||_1 / 2^k <= TAYLOR_THETA[m].  The plan takes
    the fewest products, q - 1 + ceil(m / q) - 1 for the polynomial
    (q = ceil(sqrt(m))) plus k squarings, and the smallest m on ties.
    It is None when the norm is not finite or would need 2^k >= 1 / u: each
    squaring doubles the error carried, so the result would hold no correct
    digit, and taylor_expm1 returns NaN.
    """
    norm1 = _norm1(a, scale)
    if not norm1 < np.inf:
        return None

    def squarings(theta: float) -> int:
        return 0 if norm1 <= theta else math.ceil(math.log2(norm1) - math.log2(theta))

    def cost(mk: tuple[int, int]) -> int:
        q = _ps_width(mk[0])
        return q - 1 + -(-mk[0] // q) - 1 + mk[1]

    m, k = min(((m, squarings(theta)) for m, theta in TAYLOR_THETA.items()), key=cost)
    return (m, k) if k < -math.log2(np.finfo(float).epsneg) else None


def expm1_work(plan: tuple[int, int] | None) -> int:
    """Arrays the size of the stack that taylor_expm1 holds at once under plan:
    the powers B, ..., B^q and two accumulators."""
    return 1 if plan is None else _ps_width(plan[0]) + 2


def taylor_expm1(a, scale: complex, plan: tuple[int, int] | None) -> np.ndarray:
    """exp(scale * a_j) - I for each matrix a_j of a (k, n, n) stack a, with
    plan = expm1_plan(a_j, scale) for the a_j of largest ||a_j||_1.

    The plan (m, k) evaluates E = T_m(B) - I, B = scale * a / 2^k, by
    Paterson-Stockmeyer (SIAM J. Comput. 2, 1973): the powers B^2, ..., B^q
    once for the stack, then Horner steps in B^q, each adding one group of
    terms, formed as one product of its coefficients with the stacked powers
    and written into the accumulator in place.  The k squarings take the form
    E <- 2E + E @ E, which is (I + E)^2 - I.  The identity is never added, so
    a step x + E @ x does not round the near-one diagonal of exp(scale * a)
    the same way at every step, as I + B + ... would.  With plan None every
    entry is NaN.
    """
    a = np.asarray(a, dtype=complex)
    _, n, _ = a.shape  # a single matrix fails here
    if plan is None:
        return np.full(a.shape, np.nan, dtype=complex)
    m, k = plan
    q = _ps_width(m)
    coef = np.array([1.0 / math.factorial(j) for j in range(m + 1)], dtype=complex)
    powers = np.empty((q, *a.shape), dtype=complex)
    np.multiply(a, scale / 2.0**k, out=powers[0])
    for j in range(1, q):
        np.matmul(powers[j - 1], powers[0], out=powers[j])
    flat = powers.reshape(q, -1)
    e, work = np.empty(a.shape, dtype=complex), np.empty(a.shape, dtype=complex)
    # T_m(B) - I = sum_i (B^q)^i P_i(B), P_i = sum_j coef[iq + j] B^j over
    # j < q, and over j <= q in the top group, which ends at degree m; each
    # P_i is one product of its coefficients with the stacked powers
    top = (m - 1) // q
    for i in range(top, -1, -1):
        if i < top:
            np.matmul(e, powers[-1], out=work)
        c = coef[i * q + 1 : (m if i == top else i * q + q - 1) + 1]
        np.dot(c, flat[: len(c)], out=e.reshape(-1))
        if i:
            e.reshape(-1, n * n)[:, :: n + 1] += coef[i * q]
        if i < top:
            e += work
    for _ in range(k):
        np.matmul(e, e, out=work)
        e *= 2.0
        e += work
    return e


def expm(a) -> np.ndarray:
    """exp(a) of one square matrix a, as I + taylor_expm1 (NaN without a plan)."""
    return np.eye(len(a)) + taylor_expm1([a], 1.0, expm1_plan(a, 1.0))[0]


def hermitian_eig(a) -> tuple[np.ndarray, np.ndarray]:
    """(w, v), w ascending and v unitary, with a @ v == v @ diag(w) for the
    hermitian_part of a, which rejects a matrix outside its tolerance."""
    return np.linalg.eigh(hermitian_part(a))


def solve_sylvester(p, q, r) -> np.ndarray:
    """Solve delta @ p + q @ delta = r for delta.

    p is n x n, q is m x m, r and delta are m x n.  Raises
    SylvesterSingularError when an entry of p, q or r is not finite, when an
    eigenvalue of -q coincides with one of p (the operator is singular there)
    or when the computed residual exceeds
    TOL_SYLVESTER * (||p|| + ||q||) * ||delta||.  scipy is imported here
    alone, so only a route that reaches Newton's Sylvester step pays for it.
    """
    import scipy.linalg

    p, q, r = _as_matrix(p), _as_matrix(q), _as_matrix(r)
    # one field for all three: scipy's real Schur forms of real p and q would
    # meet a complex r in the complex trsyl, which takes them as triangular
    field = np.result_type(p, q, r)
    p, q, r = (m.astype(field, copy=False) for m in (p, q, r))
    if not all(np.isfinite(m).all() for m in (p, q, r)):
        raise SylvesterSingularError("sylvester operands are not finite")
    lam_p = np.linalg.eigvals(p)
    lam_q = np.linalg.eigvals(q)
    scale = float(np.linalg.norm(p, 2) + np.linalg.norm(q, 2))
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
