"""Operator Riccati equations attached to Hermitian 2 x 2 block operators.

For a Hermitian block operator

    R = [[a, b],
         [b†, c]]

a solution X of

    X b X + X a - c X - b† = 0

makes the columns of [1; X] span an R-invariant subspace, and the
congruence U_X = [[1, -X†], [X, 1]] block-diagonalizes R with diagonal
blocks a + b X and c - b† X†.  riccati_map is the one form of the left side
F(X).  A RiccatiProblem holds R itself, the 2N x 2N matrix, stored as its
exact Hermitian part (linalg.hermitian_part), and reads a, b and c as views
of its blocks.  Two independent solvers are provided: a spectral
invariant-subspace construction and a Newton iteration on the residual.
Newton started from zero checks the subspace solution; started from it,
Newton refines it.  An R with no imaginary part is stored and solved in
float64, any other in complex128.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby

import numpy as np

from . import linalg
from .bath import BathSpec
from .blockop import blocks, flatten, offdiag_norm, qubit_sandwich
from .linalg import ShapeError, SylvesterSingularError

# An invariant-subspace result whose recomputed residual exceeds this
# (times max(1, ||R||_F)) is rejected as not actually solving the equation.
_SUBSPACE_RESIDUAL_CAP = 1e-9
_Y1_COND_CAP = 1e12
# Newton stops once the residual is at most TOL_RESIDUAL or the normalized
# residual eta (see _eta) is at most ETA_TOL, and fails after
# MAX_NEWTON_ITERS steps.  ETA_TOL is one unit roundoff u = 2^-53, set from
# the 31 spin-boson problems of the bundled scenarios and the benchmark: the
# graph X starts at eta = 0.21-3.2 u and one Newton step from it reaches at
# most 0.38 u; Newton from zero stays above 18 u until its residual passes
# TOL_RESIDUAL; the resonant stall (one mode at 2 beta, cutoff 7, from zero)
# never gets below 9.3e9 u.
MAX_NEWTON_ITERS = 40
TOL_RESIDUAL = 1e-12
ETA_TOL = 2.0**-53
# In a critical case Newton's residual falls only by 1/4 a step (Guo &
# Lancaster, Math. Comp. 67, 1998): one mode at 2 beta, cutoff 7, gives 23
# such ratios in a row, and no case that converges more than 1.
LINEAR_STALL_RATIO, LINEAR_STALL_TOL, LINEAR_STALL_STEPS = 0.25, 0.01, 5


class RiccatiConvergenceError(RuntimeError):
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


class NoGraphError(RuntimeError):
    """The graph branch's subspace has no graph representation over the top block."""


class AmbiguousSubspaceError(RuntimeError):
    """The top-block weights tie at the N-th eigenvector; no graph branch stands out."""


class DephasingRootError(ValueError):
    """No dephasing root pair, or no residual of it, that float64 can hold."""


@dataclass(frozen=True)
class RiccatiProblem:
    """A Hermitian block operator R = [[a, b], [b†, c]]; a, b and c are views
    of the blocks of the stored Hermitian part of R."""

    r: np.ndarray

    def __post_init__(self):
        # eigh reads one triangle of R, the residual and Newton read all of
        # a, b and c: the exact Hermitian part makes both see one operator
        r = linalg.hermitian_part(self.r, "block operator R")
        blocks(r)  # an odd dimension raises ShapeError
        # no imaginary part: R is real symmetric, and so are its eigenvectors and X
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
    """A solution X with its residual ||F(X)||_F, its eta, the singular values
    of X (descending) and, from Newton, the residual of every iterate."""

    x: np.ndarray
    iterations: int
    residual: float
    eta: float
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
    x = np.asarray(x)
    if x.shape != p.a.shape:
        raise ShapeError(f"solution shape {x.shape} does not match blocks {p.a.shape}")
    return linalg.frobenius_norm(riccati_map(x, p.a, p.b, p.c))


def _block_norms(p: RiccatiProblem) -> tuple[float, float]:
    """(||a||_F + ||c||_F, ||b||_F), the fixed parts of eta's denominator."""
    norm = linalg.frobenius_norm
    return norm(p.a) + norm(p.c), norm(p.b)


def _eta(r: float, x: np.ndarray, ac_norm: float, b_norm: float) -> float:
    """Normalized residual of X with ||F(X)||_F = r,

        eta = r / (||b||_F ||X||_F^2 + (||a||_F + ||c||_F) ||X||_F + ||b||_F),

    which is, up to a modest factor, the backward error of X: the relative
    change to the blocks that makes X exact (Bini, Iannazzo & Meini,
    Numerical Solution of Algebraic Riccati Equations, SIAM 2012).  NaN when
    the denominator overflows (||X||_F^2 past 1e308), since dividing by inf
    would turn eta into 0.
    """
    xn = linalg.frobenius_norm(x)
    scale = b_norm * xn * xn + ac_norm * xn + b_norm
    if not np.isfinite(scale):
        return float("nan")
    # the scale is 0 only when X b X, X a, c X and b† all vanish, so F(X) = 0
    return r / scale if scale > 0.0 else 0.0


def _make_solution(p: RiccatiProblem, x: np.ndarray, iterations: int,
                   trace: tuple[float, ...] = ()) -> RiccatiSolution:
    # residual and eta always recomputed from x, never taken from solver internals
    r = residual(p, x)
    return RiccatiSolution(
        x=x, iterations=iterations, residual=r,
        eta=_eta(r, x, *_block_norms(p)),
        singular_values=np.linalg.svd(x, compute_uv=False), trace=trace,
    )


def solve_newton(p: RiccatiProblem, x0=None) -> RiccatiSolution:
    """Newton iteration from x0 (default 0).

    Each step solves the Sylvester equation
        delta (a + b X) + (X b - c) delta = -F(X)
    for the correction delta.  Returns the first iterate, x0 included, whose
    residual ||F(X)||_F is at most TOL_RESIDUAL or whose normalized residual
    eta is at most ETA_TOL: at that floor X solves the equation to roundoff,
    however large ||X|| makes its absolute residual, and a further step
    changes X only by roundoff.  An iterate whose eta denominator overflows
    is never accepted by eta.  Raises RiccatiConvergenceError with the residual
    trace, and the best eta in its message, when the iteration stalls, blows
    up, or hits a singular linearization.
    """
    x = np.zeros_like(p.a) if x0 is None else np.asarray(x0)
    if x.shape != p.a.shape:
        raise ShapeError("initial guess shape does not match problem blocks")
    ac_norm, b_norm = _block_norms(p)
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
        eta = _eta(r, x, ac_norm, b_norm)
        best_eta = min(best_eta, eta)
        if r <= TOL_RESIDUAL or eta <= ETA_TOL:
            return _make_solution(p, x, it, tuple(trace))
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
        f"newton did not reach residual {TOL_RESIDUAL:.1e} or eta {ETA_TOL:.1e} in "
        f"{MAX_NEWTON_ITERS} iterations (best residual {min(trace):.3e}, "
        f"best eta {best_eta:.3e})",
        trace,
    )


def _select_branch(p: RiccatiProblem, vec: np.ndarray) -> np.ndarray:
    """Indices of the N eigenvectors with the largest weight on the top block;
    the graph X they span need not be a contraction."""
    n = p.dim
    w = np.sum(np.abs(vec[:n, :]) ** 2, axis=0)
    order = np.argsort(w)[::-1]
    if w[order[n - 1]] - w[order[n]] <= 1e-8:
        raise AmbiguousSubspaceError("top-block weights do not separate a graph branch")
    return np.sort(order[:n])


def solve_invariant_subspace(p: RiccatiProblem) -> RiccatiSolution:
    """Solve via eigenvectors of the full matrix R = [[a, b], [b†, c]].

    The graph branch is the N eigenvectors with the largest top-block
    weights, stacked as [Y1; Y2], and X = Y2 Y1^{-1}.  Its X is a
    contraction only under spectral separation conditions (Kostrykin,
    Makarov & Motovilov 2003); on the bundled weyl.json ||X||_2 = 1.315.

    Raises NoGraphError when Y1 is numerically singular (condition number
    above 1e12) or the recomputed residual shows the subspace is not a
    solution graph; AmbiguousSubspaceError when the top-block weights tie.
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
    sol = _make_solution(p, x, 0)
    cap = _SUBSPACE_RESIDUAL_CAP * max(1.0, linalg.frobenius_norm(p.r))
    if not sol.residual <= cap:  # a NaN residual is no solution either
        raise NoGraphError(
            f"selected graph branch is not a solution graph: residual "
            f"{sol.residual:.3e} above {cap:.3e}, eta {sol.eta:.3e}, "
            f"||X||_2 = {sol.x_norm2:.3e}, cond(Y1) = {cond:.3e}"
        )
    return sol


@dataclass(frozen=True)
class Diagonalization:
    d1: np.ndarray
    d2: np.ndarray
    offdiag_residual: float
    cond_ux: float


def diagonalize(p: RiccatiProblem, sol: RiccatiSolution) -> Diagonalization:
    """Transform R = p.r by U_X^{-1} R U_X, with the congruence factor
    U_X = [[1, -X†], [X, 1]], and report the off-diagonal leftover.

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
    return Diagonalization(
        d1=tb[0, 0],
        d2=tb[1, 1],
        offdiag_residual=offdiag_norm(tb),
        cond_ux=float(np.hypot(1.0, s[0]) / np.hypot(1.0, s[-1])),
    )


# -- pure dephasing ---------------------------------------------------------

@dataclass(frozen=True)
class DephasingRoots:
    """Scalar Riccati roots for a dephasing block operator 1 (x) H_E + M (x) V."""

    principal: complex
    partner: complex


def solve_dephasing_quadratic(m) -> DephasingRoots:
    """Roots of m12 x^2 + (m11 - m22) x - m12* = 0 for Hermitian 2 x 2 M.

    Multiples of the identity X = x 1 solve the operator Riccati equation
    of 1 (x) H_E + M (x) V exactly, so the operator problem reduces to
    this scalar quadratic.  The two roots form a pair (x, -1/x*); the
    principal root is the one with |x| <= 1 (ties broken toward the root
    with the larger real part, then larger imaginary part).  Raises
    DephasingRootError when m12 = 0 or a root is not finite in float64.
    """
    m = linalg.hermitian_part(m, "dephasing coupling matrix")
    if m.shape != (2, 2):
        raise ShapeError(f"dephasing coupling must be 2 x 2, got {m.shape}")
    m12 = complex(m[0, 1])
    if m12 == 0:  # the block operator is already block-diagonal
        raise DephasingRootError("coupling matrix is diagonal; the quadratic degenerates")
    delta = float(m[0, 0].real - m[1, 1].real)
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
    principal, partner = sorted((complex(r_small), complex(r_big)),
                                key=lambda z: (abs(z), -z.real, -z.imag))
    return DephasingRoots(principal=principal, partner=partner)


# -- periodically driven block operator (resonant drive) --------------------

def periodic_phase(alpha: float, t: float) -> complex:
    """The drive phase z_t = exp(-2 i alpha t)."""
    return complex(np.exp(-2j * alpha * t))


def periodic_bom(spec: BathSpec, beta: float, alpha: float, t: float) -> np.ndarray:
    """Block operator [[H_E, z_t* W], [z_t W, H_E]], W = V + beta."""
    z = periodic_phase(alpha, t)
    w = spec.v + beta * np.eye(spec.env_dim)
    return flatten(np.array([[spec.he, np.conj(z) * w], [z * w, spec.he]]))


def time_dependent_residual(he: np.ndarray, w: np.ndarray, alpha: float, t: float) -> float:
    """||F(z_t 1)||_F for the blocks a = c = H_E, b = z_t* W of periodic_bom.

    The phase X_t = z_t 1 solves the equation identically for every t, so
    the returned norm is pure roundoff.
    """
    z = periodic_phase(alpha, t)
    return linalg.frobenius_norm(riccati_map(z * np.eye(len(he)), he, np.conj(z) * w, he))


def s_frame_unitary(alpha: float, t: float) -> np.ndarray:
    """S = [[1, -z_t*], [z_t, 1]] / sqrt(2), the qubit factor of the unitary
    congruence S_t = S (x) 1 = U_{z_t} / sqrt(2) built from X_t = z_t 1."""
    z = periodic_phase(alpha, t)
    return np.array([[1.0, -np.conj(z)], [z, 1.0]]) / np.sqrt(2.0)


def s_frame_transform(h: np.ndarray, alpha: float, t: float) -> np.ndarray:
    """S_t† h S_t for h = periodic_bom(spec, beta, alpha, t); equals
    diag(H_E + V + beta, H_E - V - beta) exactly.

    With S = s_frame_unitary(alpha, t), qubit_sandwich computes every entry
    of all four blocks of (S† (x) 1) h (S (x) 1); no block is assumed to
    vanish.  The time dependence cancels: the transformed operator is the
    same block-diagonal matrix at every t.
    """
    s = s_frame_unitary(alpha, t)[None]
    return flatten(qubit_sandwich(s.conj().transpose(0, 2, 1), blocks(h)[None], s)[0])
