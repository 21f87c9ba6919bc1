"""Reduced qubit dynamics for a driven qubit coupled to a finite environment.

The lab-frame Hamiltonian

    H(t) = [beta s3 + alpha (s1 cos wt + s2 sin wt)] (x) 1
           + 1 (x) H_E + s3 (x) V

is covariant under the rotation generated by K = -(w/2) s3 (x) 1:
conjugating the static operator H(beta) by exp(iKt) reproduces H(t).  As a
consequence the exact propagator factors as exp(iKt) exp(-iH(beta - w/2) t)
and the reduced state of the driven problem is a rotating-frame dressing of
the static problem at the shifted splitting beta - w/2.  H(beta) is built
from the bath's H_E and V, BathSpec.he and .v.

All three propagation modes start from one factor of the initial state,
rho0 = psi diag(p) psi†, cut to its numerical rank (a Scenario stores rho0
as the exact Hermitian part that validate_state checked), and compute the
reduced states a chunk of grid points at a time.  A chunk's largest work
array holds at most CHUNK_ENTRIES entries (or one grid point's), so a grid of
STEP_CAP points needs no more working memory than a short one.

"static_exact" and "factored" evaluate the closed form.  With the static
H = V diag(w) V†, G = V† psi and M = G diag(p) G†, each entry of the reduced
state is a bilinear form in the phase vector e(t) = exp(-i w t),

    rho_ij(t) = e(t)^T C_ij e(t)*,   C_ij = (V_i^T V_j*) o M,

where V_i is the qubit-i row block of V and o the entrywise product, so a
chunk of the grid costs one product of its phase matrix with the four C_ij
and no per-point work.  "factored" evaluates it at beta - w/2 and dresses
the reduced states with diag(exp(-+ i w t / 2)) (the sandwich lemma).

"rotating_stepped" takes midpoint exponentials of H(t) assembled from its
definition, not from the covariance or the closed form, so the
rotating_frame check that compares it with "factored" is an independent
cross-check.  One hamiltonian_rotating call builds the Hamiltonians of a
chunk of steps as a stack.  On the dense plan one linalg.taylor_expm1 call
gives E = exp(-i H(t_m) dt) - I for the whole stack, and each step advances
the factor as x + E @ x.  The thin plan (linalg.action_plan) applies s steps of
the degree-m Taylor series to the 2N x r factor (linalg.expm_action) when
its m * s * r <= N, below the cost of one dense step.
The steps exponentiate H(t) - mu 1 with mu = Tr H / 2N (the trace shift of
Al-Mohy & Higham 2011, Algorithm 3.2): exp(-i (H - mu) dt) is exp(-i H dt)
times the scalar phase exp(i mu dt), which multiplies every column of x
alike and cancels in Tr_E(x diag(p) x†), while ||(H - mu) dt||_1 is smaller,
so both plans take fewer products.  A mu that is not finite is taken as 0.
The drive only rotates phases and leaves the diagonal alone, so
||(H(t) - mu) dt||_1 and hence either plan are the same at every step.

reduced_dynamics raises TrajectorySanityError when a trajectory leaves the
sanity caps below.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from . import linalg
from .bath import STEP_CAP, BathSpec
from .blockop import blocks, flatten, qubit_sandwich

MODES = ("rotating_stepped", "static_exact", "factored")

# Trajectory sanity bounds; reduced_dynamics raises TrajectorySanityError
# when a trajectory leaves them.
TRACE_DEV_CAP = 1e-10
HERM_DEV_CAP = 1e-11
POSITIVITY_FLOOR = -1e-9
# A phase rate t on [0, t_max] carries the rounding error |rate| t_max eps
# (phase_lost); past this cap the phase keeps no digit that a reduced state
# could be checked at.  A static eigenphase past it raises
# TrajectorySanityError, and simulate refuses a drive phase past it.
PHASE_LOSS_CAP = 1e-5

STATE_TOL = 1e-10      # initial state: |Tr - 1|, -(lowest eigenvalue) and
                       # ||rho - rho†||_F / max(||rho||_F, 1) at most this

CHUNK_ENTRIES = 2**14  # work-array entries per chunk of grid points, samples or CSV rows


class InvalidStateError(ValueError):
    """Initial density matrix fails hermiticity, trace, or positivity."""


class TrajectorySanityError(RuntimeError):
    """A reduced trajectory left one of the sanity caps below."""


@dataclass(frozen=True)
class QubitParams:
    """Splitting beta, drive amplitude alpha, drive frequency omega (or arrays
    of k samples of each, for the stacked kernels)."""

    alpha: float
    beta: float
    omega: float


def validate_state(rho: np.ndarray) -> np.ndarray:
    """Reject a density matrix that is not Hermitian, normalized, and PSD (the
    one Hermiticity check: every other operator is built Hermitian); return its
    exact Hermitian part (rho + rho†) / 2, whose spectrum the positivity test read."""
    herm = np.conjugate(rho.T, order="C")
    with np.errstate(over="ignore"):
        dev = linalg.frobenius_norm(rho - herm)
    if not dev <= STATE_TOL * max(linalg.frobenius_norm(rho), 1.0):
        raise InvalidStateError(f"state is not Hermitian: deviation {dev:.3e}")
    herm *= 0.5  # halved before the sum, which then cannot overflow
    herm += 0.5 * rho
    tr = np.trace(rho)
    if abs(tr - 1.0) > STATE_TOL:
        raise InvalidStateError(f"state trace is {tr:.12g}, expected 1")
    w = np.linalg.eigvalsh(herm if herm.imag.any() else herm.real)  # a real state in float64
    if w[0] < -STATE_TOL:
        raise InvalidStateError(f"state has negative eigenvalue {w[0]:.3e}")
    return herm


@dataclass(frozen=True)
class Scenario:
    """One runnable problem: qubit, bath, initial state (a 2N x 2N density
    matrix, stored as the Hermitian part validate_state returns), and time grid."""

    qubit: QubitParams
    bath: BathSpec
    initial_state: np.ndarray
    t_max: float
    steps: int
    substeps_per_step: int = 1

    def __post_init__(self):
        rho = np.asarray(self.initial_state, dtype=complex)
        if not self.t_max > 0:
            raise ValueError(f"t_max must be positive, got {self.t_max}")
        if self.steps < 1 or self.substeps_per_step < 1:
            raise ValueError("steps and substeps_per_step must be >= 1")
        if self.steps * self.substeps_per_step > STEP_CAP:
            raise ValueError(f"steps * substeps_per_step exceeds STEP_CAP = {STEP_CAP}")
        object.__setattr__(self, "initial_state", validate_state(rho))

    @property
    def times(self) -> np.ndarray:
        return np.linspace(0.0, self.t_max, self.steps + 1)


@dataclass(frozen=True)
class Trajectory:
    """Reduced 2 x 2 states on the time grid plus per-point diagnostics."""

    times: np.ndarray
    states: np.ndarray            # shape (len(times), 2, 2)
    trace_dev: np.ndarray
    herm_dev: np.ndarray
    positivity_floor: np.ndarray

    def __len__(self) -> int:
        return len(self.times)


def hamiltonian_static(q: QubitParams, bath: BathSpec, beta: float | None = None) -> np.ndarray:
    """H(beta) = [[H_E + V + beta, alpha], [alpha, H_E - V - beta]], or their
    (k, 2N, 2N) stack for a q of k alphas and betas."""
    a, b = (np.asarray(x, dtype=float)[..., None, None]
            for x in (q.alpha, q.beta if beta is None else beta))
    he, v, eye = bath.he, bath.v, np.eye(bath.env_dim, dtype=complex)
    hb = np.empty((*a.shape[:-2], 2, 2, *he.shape), dtype=complex)
    hb[..., 0, 0, :, :], hb[..., 1, 1, :, :] = he + v + b * eye, he - v - b * eye
    hb[..., 0, 1, :, :] = hb[..., 1, 0, :, :] = a * eye
    return flatten(hb)


def hamiltonian_rotating(h: np.ndarray, omega, t) -> np.ndarray:
    """Lab-frame H(t) from the static h = hamiltonian_static(q, bath): h's
    diagonal blocks, exp(-i w t) times its upper off-diagonal block and the
    conjugate phase times the lower one.  (2N, 2N) at a time t, the stack over
    an array of times, or one H(t) per sample of a (k, 2N, 2N) stack h with k
    omegas and times.  The covariance check and the stepper read it."""
    t = np.asarray(t, dtype=float)
    phase = np.exp(-1j * omega * t)[..., None, None]
    hb, ht = blocks(h), np.empty(np.broadcast(phase, h).shape, dtype=complex)
    out = blocks(ht)
    out[..., 0, 0, :, :], out[..., 1, 1, :, :] = hb[..., 0, 0, :, :], hb[..., 1, 1, :, :]
    np.multiply(phase, hb[..., 0, 1, :, :], out=out[..., 0, 1, :, :])
    np.multiply(phase.conj(), hb[..., 1, 0, :, :], out=out[..., 1, 0, :, :])
    return ht


def frame_phases(omega, t) -> np.ndarray:
    """The diagonal (exp(-i w t / 2), exp(i w t / 2)) of the qubit rotation
    R(t), exp(iKt) = R(t) (x) 1, at a time, over an array of times, or one
    per sample of k omegas and times."""
    return np.exp(np.expand_dims(-0.5j * omega, -1) * np.multiply.outer(t, [1.0, -1.0]))


def covariance_residual(q: QubitParams, h: np.ndarray, t):
    """|| H(t) - exp(iKt) H(beta) exp(-iKt) ||_F for h = H(beta) =
    hamiltonian_static(q, bath), zero up to roundoff; the k residuals of a
    stack h of k samples, q's fields and t arrays of k.

    With exp(iKt) = U (x) 1, U = diag(frame_phases(q.omega, t)), qubit_sandwich
    computes every entry of (U (x) 1) h (U† (x) 1), and each block is compared
    with that of H(t) as hamiltonian_rotating builds it from h.
    """
    u = frame_phases(q.omega, t)[..., None] * np.eye(2)
    rotated = qubit_sandwich(u, blocks(h), u.conj().swapaxes(-1, -2))
    diff = blocks(hamiltonian_rotating(h, q.omega, t)) - rotated
    return linalg.frobenius_norm(diff.reshape(*h.shape[:-2], -1, diff.shape[-1]))  # blocks stacked


def phase_lost(rate: float, t_max: float) -> float | None:
    """|rate| t_max eps, the rounding error of the phase rate t on [0, t_max],
    when it exceeds PHASE_LOSS_CAP or is NaN, else None."""
    lost = abs(rate) * t_max * np.finfo(float).eps
    return None if lost <= PHASE_LOSS_CAP else lost


def chunk_size(entries_per_point: int) -> int:
    """Points per chunk when each point takes entries_per_point entries of a
    work array: CHUNK_ENTRIES // entries_per_point, and at least one."""
    return max(1, CHUNK_ENTRIES // entries_per_point)


def _stepped_factors(h: np.ndarray, omega: float, x: np.ndarray, dt: float, steps: int,
                     substeps: int, plan: tuple[int, int] | None) -> Iterator[np.ndarray]:
    """Yield x as a stack of one, then, a chunk of steps at a time, the stack
    of x after each of `steps` groups of `substeps` midpoint exponentials
    exp(-i H(t_m) dt), with H(t_m) = hamiltonian_rotating(h, omega, t_m) and
    t_m = (k + 1/2) dt.

    plan is the thin plan, or None for the dense one (see the module
    docstring); on the dense plan the chunk is sized so that its H(t_m), from
    one hamiltonian_rotating call, and taylor_expm1's work fit CHUNK_ENTRIES.
    """
    total = steps * substeps
    dense = linalg.expm1_plan(h, -1j * dt) if plan is None else None
    arrays = 1 + linalg.expm1_work(dense) if plan is None else 1
    size = chunk_size(arrays * h.size)
    yield x[None]
    for lo in range(0, total, size):
        hs = hamiltonian_rotating(h, omega, (np.arange(lo, min(lo + size, total)) + 0.5) * dt)
        es = linalg.taylor_expm1(hs, -1j * dt, dense) if plan is None else None
        kept = []
        for j, hm in enumerate(hs):
            x = x + es[j] @ x if plan is None else linalg.expm_action(hm, -1j * dt, x, plan)
            if (lo + j + 1) % substeps == 0:
                kept.append(x)
        if kept:
            yield np.array(kept)


def _spectral_states(
    h: np.ndarray, p: np.ndarray, psi: np.ndarray, times: np.ndarray
) -> np.ndarray:
    """Tr_E(exp(-i h t) rho0 exp(i h t)) at each of `times` for
    rho0 = psi diag(p) psi†, as the bilinear forms e(t)^T C_ij e(t)* of the
    module docstring; no error builds up along the grid.  Raises
    TrajectorySanityError when an eigenphase w t keeps no digit (phase_lost)."""
    w, v = linalg.hermitian_eig(h)
    lost = phase_lost(np.max(np.abs(w)), times[-1])
    if lost is not None:
        raise TrajectorySanityError(
            f"trajectory eigenphase w t keeps no digit: max|w| t_max eps reached "
            f"{lost:.3e}, beyond PHASE_LOSS_CAP = {PHASE_LOSS_CAP:g}"
        )
    g = v.conj().T @ psi
    m = (g * p) @ g.conj().T
    vb = v.reshape(2, -1, w.size)
    # c[a, 2i + j, b] = (V_i^T V_j*)_ab M_ab; each entry has its own C_ij
    c = np.stack([(vb[i].T @ vb[j].conj()) * m for i in (0, 1) for j in (0, 1)], axis=1)
    c = c.reshape(w.size, -1)
    states = np.empty((len(times), 2, 2), dtype=complex)
    size = chunk_size(4 * w.size)
    for lo in range(0, len(times), size):
        e = np.exp(-1j * np.outer(times[lo : lo + size], w))
        forms = np.einsum("kcb,kb->kc", (e @ c).reshape(len(e), 4, -1), e.conj())
        states[lo : lo + size] = forms.reshape(-1, 2, 2)
    return states


def _state_factor(rho: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(p, psi) with rho = psi diag(p) psi†, cut to the numerical rank of rho.

    The cut max(p) * 2N * eps is the matrix_rank tolerance, so the dropped
    eigenvalues carry no weight above roundoff.
    """
    p, psi = linalg.hermitian_eig(rho)
    keep = np.abs(p) > p.max() * p.size * np.finfo(float).eps
    return p[keep], psi[:, keep]


def _trace_env(phi: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Tr_E(phi diag(p) phi†) for each 2N x r factor of a (k, 2N, r) stack
    phi, qubit index slow."""
    f = phi.reshape(len(phi), 2, -1, p.size)
    lhs = (f * p).reshape(len(phi), 2, -1)
    return lhs @ f.reshape(len(phi), 2, -1).conj().transpose(0, 2, 1)


def reduced_dynamics(s: Scenario, mode: str = "rotating_stepped") -> Trajectory:
    """Propagate the scenario and trace out the environment at each grid point.

    The initial state enters as its eigen-factor rho0 = psi diag(p) psi†;
    each mode advances psi, and the reduced state is read off the factor.
    Modes: "rotating_stepped" integrates the lab-frame H(t) with midpoint
    exponential steps; "static_exact" evolves under the static H(beta);
    "factored" evolves under H(beta - omega/2) and dresses the reduced
    states with the qubit rotation, the exact driven propagator
    exp(iKt) exp(-i H(beta - omega/2) t) traced through the sandwich lemma.
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}; expected one of {MODES}")
    q, times = s.qubit, s.times
    p, psi = _state_factor(s.initial_state)
    if mode == "rotating_stepped":
        h = hamiltonian_static(q, s.bath)
        # the steps take H(t) - mu 1, mu = Tr H / 2N (see the module docstring);
        # each term of the sum is at most max|d| / 2N, so a finite d gives a finite mu
        d = h.diagonal().real
        with np.errstate(over="ignore", invalid="ignore"):
            mu = float(np.sum(d / d.size))
        h.flat[:: len(h) + 1] -= mu if np.isfinite(mu) else 0.0
        n = s.substeps_per_step
        dt = s.t_max / (s.steps * n)
        # H(t) has the entry moduli of h, so one plan fits every step
        plan = linalg.action_plan(h, -1j * dt, p.size)
        factors = _stepped_factors(h, q.omega, psi, dt, s.steps, n, plan)
        states = np.concatenate([_trace_env(phis, p) for phis in factors])
    else:
        beta = q.beta - q.omega / 2.0 if mode == "factored" else None
        states = _spectral_states(hamiltonian_static(q, s.bath, beta), p, psi, times)
    if mode == "factored":
        # Tr_E((R (x) 1) rho (R† (x) 1)) = R Tr_E(rho) R†, with r the diagonal of R(t)
        r = frame_phases(q.omega, times)
        states *= r[:, :, None] * r[:, None, :].conj()
    adj = states.conj().transpose(0, 2, 1)
    traj = Trajectory(
        times=times,
        states=states,
        trace_dev=np.abs(np.trace(states, axis1=1, axis2=2) - 1.0),
        herm_dev=np.linalg.norm(states - adj, axis=(1, 2)),
        positivity_floor=np.linalg.eigvalsh((states + adj) / 2.0)[:, 0],
    )
    for name, worst, cap_name, cap in (
        ("trace_dev", np.max(traj.trace_dev), "TRACE_DEV_CAP", TRACE_DEV_CAP),
        ("herm_dev", np.max(traj.herm_dev), "HERM_DEV_CAP", HERM_DEV_CAP),
        ("positivity_floor", np.min(traj.positivity_floor), "POSITIVITY_FLOOR", POSITIVITY_FLOOR),
    ):
        # the floor is a lower bound, the caps upper ones; NaN is outside both
        inside = worst >= cap if name == "positivity_floor" else worst <= cap
        if not inside:
            raise TrajectorySanityError(
                f"trajectory {name} reached {worst:.3e}, beyond {cap_name} = {cap:g}"
            )
    return traj


def rotating_frame_check(s: Scenario) -> np.ndarray:
    """Residuals of the rotating-frame reduction along the grid.

    Compares the stepped lab-frame reduced state against the factored
    route, the rotation dressing of the exact static trajectory at the
    shifted splitting beta - omega/2.  The residual is integrator error
    only and falls second order in the step size.
    """
    stepped = reduced_dynamics(s, "rotating_stepped")
    factored = reduced_dynamics(s, "factored")
    return np.linalg.norm(stepped.states - factored.states, axis=(1, 2))

