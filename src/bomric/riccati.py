"""Operator Riccati equations attached to Hermitian 2 x 2 block operators.

For a Hermitian block operator

    R = [[a, b],
         [b†, c]]

a solution X of

    X b X + X a - c X - b† = 0

makes the columns of [1; X] span an R-invariant subspace, and the congruence
U_X = [[1, -X†], [X, 1]] block-diagonalizes R with diagonal blocks a + b X and
c - b† X†.  riccati_map is the one form of the left side F(X).  A
RiccatiProblem holds R itself, the 2N x 2N matrix, taken as built: it is
Hermitian to the bit, so the eigensolver, which reads one triangle, and the
residual see one operator.  a, b and c are views of its blocks.  Two
independent solvers are provided: a spectral invariant-subspace construction
and a Newton iteration on the residual.  Newton started from zero checks the
subspace solution; started from it, Newton refines it.  solve runs one of
these routes and decides whether its X counts as a solution.  An R with no
imaginary part is stored and solved in float64, any other in complex128.  For
the resonant drive, periodic_blocks and s_frame_blocks reduce the driven
operator, on its (2, 2, N, N) blocks, to the static diag(H_E + W, H_E - W).
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby

import numpy as np

from . import linalg
from .blockop import blocks, offdiag_norm, qubit_sandwich
from .linalg import SylvesterSingularError

# An invariant-subspace result whose recomputed residual exceeds this
# (times max(1, ||R||_F)) is rejected as not actually solving the equation.
_SUBSPACE_RESIDUAL_CAP = 1e-9
_Y1_COND_CAP = 1e12
# Newton accepts the first iterate whose eta (see _eta), a backward error, is
# at most ETA_TOL = 4u, u = 2^-53, and fails after MAX_NEWTON_ITERS steps.  On
# the 32 spin-boson problems of the bundled scenarios and the benchmark the
# graph X has eta = 0.21-3.3 u, so the default route refines none, and one step
# from it reaches at most 0.28 u; the resonant stall (one mode at 2 beta,
# cutoff 7, from zero) never gets below 9e11 u.
MAX_NEWTON_ITERS = 40
ETA_TOL = 2.0**-51
# In a critical case Newton's residual falls only by 1/4 a step (Guo &
# Lancaster, Math. Comp. 67, 1998).  Such a run does not foretell failure: with
# one mode at 2 beta (alpha 0.3, beta 0.5, g 0.2), from zero, cutoff 7 fails
# after 25 such ratios in a row, while cutoffs 4, 5 and 6 show runs of 12, 16
# and 25 and converge in 23, 27 and 38 steps.  So a failure's message names the
# run, and no rule stops on it.
LINEAR_STALL_RATIO, LINEAR_STALL_TOL, LINEAR_STALL_STEPS = 0.25, 0.01, 5


class SolverError(RuntimeError):
    """The base of every solver failure in this module."""


class RiccatiConvergenceError(SolverError):
    """Newton failed; carries the residual trace of the iterates, and its
    message names a linear stall (LINEAR_STALL_RATIO) in that trace."""

    def __init__(self, message: str, trace: list[float]):
        near = np.abs(np.divide(trace[1:], trace[:-1]) - LINEAR_STALL_RATIO) <= LINEAR_STALL_TOL
        run = max((len(list(g)) for hit, g in groupby(near) if hit), default=0)
        if run >= LINEAR_STALL_STEPS:
            message += (f"; linear convergence: residual ratio {LINEAR_STALL_RATIO} "
                        f"over {run} steps (a critical case)")
        super().__init__(message)
        self.trace = trace


class NoGraphError(SolverError):
    """No graph branch: the top-block weights tie at the N-th eigenvector, or
    the branch's subspace has no graph representation over the top block."""


class DephasingRootError(SolverError):
    """No dephasing root pair, or no residual of it, that float64 can hold."""


@dataclass(frozen=True)
class RiccatiProblem:
    """A Hermitian block operator R = [[a, b], [b†, c]], taken as built; a, b
    and c are views of its blocks."""

    r: np.ndarray

    def __post_init__(self):
        # no imaginary part: R is real symmetric, and so are its eigenvectors and X
        r = self.r
        object.__setattr__(self, "r", r if r.imag.any() else np.ascontiguousarray(r.real))

    @property
    def dim(self) -> int:
        return self.r.shape[0] // 2

    @property
    def a(self) -> np.ndarray:
        return blocks(self.r)[0, 0]

    @property
    def b(self) -> np.ndarray:
        return blocks(self.r)[0, 1]

    @property
    def c(self) -> np.ndarray:
        return blocks(self.r)[1, 1]


@dataclass(frozen=True)
class RiccatiSolution:
    """A solution X with its residual ||F(X)||_F, its eta, ||X||_F, the
    singular values of X (descending) and, from Newton, the residual of every
    iterate."""

    x: np.ndarray
    iterations: int
    residual: float
    eta: float
    x_norm: float
    singular_values: np.ndarray
    trace: tuple[float, ...] = ()

    @property
    def x_norm2(self) -> float:
        """||X||_2, the largest singular value of X."""
        return float(self.singular_values[0])


def riccati_map(x: np.ndarray, a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """F(X) = X b X + X a - c X - b† for the blocks a, b, c of R, summed as
    (X a - c X) + (X b X - b†): for a = c and X = z 1 the first pair cancels
    exactly, so a stiff H_E adds no roundoff to zt_riccati's F(z_t 1)."""
    return (x @ a - c @ x) + (x @ b @ x - b.conj().T)


def residual(p: RiccatiProblem, x) -> float:
    """||F(X)||_F, the Frobenius norm of riccati_map for p's blocks."""
    return linalg.frobenius_norm(riccati_map(x, p.a, p.b, p.c))


def _eta(p: RiccatiProblem, r: float, xn: float) -> float:
    """Normalized residual of an X with ||F(X)||_F = r and ||X||_F = xn,

        eta = r / (||b||_F ||X||_F^2 + (||a||_F + ||c||_F) ||X||_F + ||b||_F),

    which is, up to a modest factor, the backward error of X: the relative
    change to the blocks that makes X exact (Bini, Iannazzo & Meini,
    Numerical Solution of Algebraic Riccati Equations, SIAM 2012).  NaN when
    the denominator overflows (||X||_F^2 past 1e308), since dividing by inf
    would turn eta into 0.
    """
    norm = linalg.frobenius_norm
    b_norm = norm(p.b)
    scale = b_norm * xn * xn + (norm(p.a) + norm(p.c)) * xn + b_norm
    if not np.isfinite(scale):
        return float("nan")
    # the scale is 0 only when X b X, X a, c X and b† all vanish, so F(X) = 0
    return r / scale if scale > 0.0 else 0.0


def solve_newton(p: RiccatiProblem, x0=None) -> RiccatiSolution:
    """Newton iteration from x0 (default 0).

    Each step solves the Sylvester equation
        delta (a + b X) + (X b - c) delta = -F(X)
    for the correction delta.  Returns the first iterate, x0 included, whose
    normalized residual eta is at most ETA_TOL: there X solves the equation
    to roundoff whatever ||X|| makes its absolute residual, and a further step
    changes X only by roundoff; an overflowing eta denominator is never
    accepted.  Raises RiccatiConvergenceError with the residual trace, and
    the best eta in its message, when the iteration stalls, blows up, or hits
    a singular linearization.
    """
    x = np.zeros_like(p.a) if x0 is None else np.asarray(x0)
    trace: list[float] = []
    best_eta = np.inf  # min() with a NaN eta second keeps best_eta
    for it in range(MAX_NEWTON_ITERS + 1):
        f = riccati_map(x, p.a, p.b, p.c)
        r = linalg.frobenius_norm(f)
        trace.append(r)
        if not np.isfinite(r):
            raise RiccatiConvergenceError(
                f"newton iterate diverged at iteration {it} (best eta {best_eta:.3e})",
                trace,
            )
        xn = linalg.frobenius_norm(x)
        eta = _eta(p, r, xn)
        best_eta = min(best_eta, eta)
        if eta <= ETA_TOL:
            return RiccatiSolution(x, it, r, eta, xn, np.linalg.svd(x, compute_uv=False),
                                   tuple(trace))
        if it == MAX_NEWTON_ITERS:
            break
        try:
            delta = linalg.solve_sylvester(p.a + p.b @ x, x @ p.b - p.c, -f)
        except SylvesterSingularError as exc:
            raise RiccatiConvergenceError(
                f"newton linearization singular at iteration {it} "
                f"(best eta {best_eta:.3e}): {exc}",
                trace,
            ) from exc
        x = x + delta
    raise RiccatiConvergenceError(
        f"newton did not reach eta {ETA_TOL:.1e} in {MAX_NEWTON_ITERS} iterations "
        f"(best residual {min(trace):.3e}, best eta {best_eta:.3e})",
        trace,
    )


def _select_branch(p: RiccatiProblem, vec: np.ndarray) -> np.ndarray:
    """Indices of the N eigenvectors with the largest weight on the top block;
    the graph X they span need not be a contraction."""
    n = p.dim
    w = np.sum(np.abs(vec[:n, :]) ** 2, axis=0)
    order = np.argsort(w)[::-1]
    if w[order[n - 1]] - w[order[n]] <= 1e-8:
        raise NoGraphError("top-block weights do not separate a graph branch")
    return np.sort(order[:n])


def solve_invariant_subspace(p: RiccatiProblem) -> RiccatiSolution:
    """Solve via eigenvectors of the full matrix R = [[a, b], [b†, c]].

    The graph branch is the N eigenvectors with the largest top-block
    weights, stacked as [Y1; Y2], and X = Y2 Y1^{-1}.  Its X is a
    contraction only under spectral separation conditions (Kostrykin,
    Makarov & Motovilov 2003); on the bundled weyl.json ||X||_2 = 1.315.

    Raises NoGraphError when the top-block weights tie, Y1 is numerically
    singular (condition number above 1e12) or the recomputed residual shows
    the subspace is not a solution graph.
    """
    _, vec = linalg.hermitian_eig(p.r)
    sel = _select_branch(p, vec)
    n = p.dim
    y1 = vec[:n, sel]
    y2 = vec[n:, sel]
    cond = np.linalg.cond(y1)
    if not np.isfinite(cond) or cond > _Y1_COND_CAP:
        raise NoGraphError(
            f"selected graph branch has no graph representation: cond(Y1) = {cond:.3e}"
        )
    x = np.linalg.solve(y1.T, y2.T).T
    r, xn = residual(p, x), linalg.frobenius_norm(x)
    sol = RiccatiSolution(x, 0, r, _eta(p, r, xn), xn, np.linalg.svd(x, compute_uv=False))
    cap = _SUBSPACE_RESIDUAL_CAP * max(1.0, linalg.frobenius_norm(p.r))
    if not sol.residual <= cap:  # a NaN residual is no solution either
        raise NoGraphError(
            f"selected graph branch is not a solution graph: residual "
            f"{sol.residual:.3e} above {cap:.3e}, eta {sol.eta:.3e}, "
            f"||X||_2 = {sol.x_norm2:.3e}, cond(Y1) = {cond:.3e}"
        )
    return sol


def solve(p: RiccatiProblem, method: str | None = None) -> dict[str, RiccatiSolution]:
    """The solutions of one route by report section, the route's X last.

    By default the graph X ("subspace") is the start that Newton refines
    ("newton").  method "newton" runs Newton from zero alone; method
    "subspace" returns the graph X unrefined, so it raises SolverError
    unless that X has eta at most ETA_TOL.
    """
    sols = {}
    if method in (None, "subspace"):
        sols["subspace"] = graph = solve_invariant_subspace(p)
        if method == "subspace" and not graph.eta <= ETA_TOL:
            raise SolverError(f"graph X has eta {graph.eta:.3e} above ETA_TOL = {ETA_TOL:.3e}; "
                              "the default route refines the graph X")
    if method in (None, "newton"):
        sols["newton"] = solve_newton(p, sols["subspace"].x if sols else None)
    return sols


def diagonalize(p: RiccatiProblem, sol: RiccatiSolution) -> dict[str, float]:
    """Transform R = p.r by U_X^{-1} R U_X, with the congruence factor
    U_X = [[1, -X†], [X, 1]], and return {"offdiag_residual", "cond_ux"}:
    the off-diagonal leftover and cond(U_X).

    For an exact solution the result is diag(a + b X, c - b† X†); the
    off-diagonal residual of a computed solution stays below
    10 * sol.residual * cond(U_X).  The transform is one 2N LU solve with
    U_X; the normal equations U_X† U_X = diag(1 + X†X, 1 + XX†) would
    square cond(U_X) in its error.  That identity still gives cond(U_X)
    itself: the singular values of U_X are sqrt(1 + s^2) over the singular
    values s of X, which the solution carries.
    """
    x, n = sol.x, p.dim
    eye = np.eye(n)
    ux = np.block([[eye, -x.conj().T], [x, eye]])
    tb = blocks(np.linalg.solve(ux, p.r @ ux))
    s = sol.singular_values
    return {"offdiag_residual": offdiag_norm(tb),
            "cond_ux": float(np.hypot(1.0, s[0]) / np.hypot(1.0, s[-1]))}


# -- pure dephasing ---------------------------------------------------------

def solve_dephasing_quadratic(m) -> tuple[complex, complex]:
    """(principal, partner), the roots of m12 x^2 + (m11 - m22) x - m12* = 0
    for Hermitian 2 x 2 M.

    Multiples of the identity X = x 1 solve the operator Riccati equation
    of 1 (x) H_E + M (x) V exactly, so the operator problem reduces to
    this scalar quadratic.  The two roots form a pair (x, -1/x*); the
    principal root is the one with |x| <= 1 (ties broken toward the root
    with the larger real part, then larger imaginary part).  Raises
    DephasingRootError when m12 = 0 or a root is not finite in float64.
    """
    (m11, m12), (_, m22) = m
    m12 = complex(m12)
    if m12 == 0:  # the block operator is already block-diagonal
        raise DephasingRootError("coupling matrix is diagonal; the quadratic degenerates")
    delta = float(m11.real - m22.real)
    s = np.hypot(delta, 2.0 * abs(m12))  # real and positive, with no square to overflow
    # compute the large root first (the numerator -delta -+ s with no
    # cancellation), then the small one from the root product -m12*/m12;
    # the naive -delta + s loses the small root to cancellation when
    # |m12| << |delta|
    big_num = -(delta + s) if delta >= 0.0 else -delta + s
    r_big = big_num / (2.0 * m12)
    r_small = (-np.conj(m12) / m12) / r_big
    if not (np.isfinite(r_big) and np.isfinite(r_small)):
        raise DephasingRootError(f"no finite root pair in float64: m11 - m22 = {delta:.3e}, "
                                 f"|m12| = {abs(m12):.3e}")
    return tuple(sorted((complex(r_small), complex(r_big)),
                        key=lambda z: (abs(z), -z.real, -z.imag)))


def dephasing_residuals(m, he: np.ndarray, v: np.ndarray,
                        roots: tuple[complex, complex]) -> tuple[float, float]:
    """||F(x 1)||_F for the (principal, partner) roots x on the blocks
    a = H_E + m11 V, b = m12 V, c = H_E + m22 V of 1 (x) H_E + M (x) V.
    Raises DephasingRootError when one is not finite in float64."""
    eye = np.eye(len(he))
    abc = (he + m[0, 0] * v, m[0, 1] * v, he + m[1, 1] * v)
    res = tuple(linalg.frobenius_norm(riccati_map(x * eye, *abc)) for x in roots)
    if not np.all(np.isfinite(res)):
        raise DephasingRootError("dephasing root residuals not finite in float64: "
                                 f"principal {res[0]:.3e}, partner {res[1]:.3e}")
    return res


# -- periodically driven block operator (resonant drive) --------------------

def periodic_blocks(he: np.ndarray, w: np.ndarray, z: complex) -> np.ndarray:
    """The (2, 2, N, N) blocks [[H_E, z* W], [z W, H_E]] of the driven operator
    at the drive phase z = z_t = exp(-2 i alpha t), W = V + beta.  X_t = z_t 1
    solves its Riccati equation, of blocks a = c = H_E, b = z* W, for every t."""
    return np.array([[he, np.conj(z) * w], [z * w, he]])


def s_frame_blocks(b: np.ndarray, z: complex) -> np.ndarray:
    """The blocks of S_t† H S_t for the blocks b = periodic_blocks(he, w, z) of H:
    diag(H_E + W, H_E - W) exactly, at every t.  S_t = S (x) 1 with
    S = [[1, -z*], [z, 1]] / sqrt(2) is the unitary congruence built from
    X_t = z_t 1; qubit_sandwich computes every entry of all four blocks."""
    s = np.array([[[1.0, -np.conj(z)], [z, 1.0]]]) / np.sqrt(2.0)
    return qubit_sandwich(s.conj().transpose(0, 2, 1), b[None], s)[0]
