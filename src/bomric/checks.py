"""The verification checks, shared by `bomric verify` and the acceptance tests.

Each check is a function of a Scenario alone and returns the dict that
verify prints and writes: the MEASURES, the tolerance that bounds them and
"passed".  A residual that is NaN at any sample makes the worst one NaN,
and the check fails.  Seeds, sample counts, the time grid and the tolerances are the
module constants below, so a check measures the same thing wherever it runs.
Every check reads H_E and V from the scenario's BathSpec (spec.he, spec.v),
so the six of them assemble each once.

The sandwich check draws one row of uniform entries on [-1, 1) per sample
and views it as complex in place, re and im interleaved per entry: the
4N^2 entries of B's four N x N blocks, then A1's 4, then A2's 4.  Rows are
drawn a chunk at a time from one stream, so the chunk size changes neither
the samples nor their order.
"""
from __future__ import annotations

import numpy as np

from . import linalg, riccati
from .bath import displaced_check
from .blockop import offdiag_norm, sandwich_lemma_check
from .dynamics import (
    PHASE_LOSS_CAP,
    QubitParams,
    Scenario,
    TrajectorySanityError,
    chunk_size,
    covariance_residual,
    hamiltonian_static,
    phase_lost,
    rotating_frame_check,
)

SEED = 20240817             # covariance draws from SEED, sandwich from SEED + 1
COVARIANCE_SAMPLES = 100
SANDWICH_SAMPLES = 1000
PHASE_POINTS = 100          # grid on [0, t_max] of zt_riccati and st_diagonalization

IDENTITY_TOL = 1e-12        # covariance and sandwich, relative to ||H||_F or ||B||_F
ROTATING_FRAME_TOL = PHASE_LOSS_CAP  # a phase error past it keeps no digit the check reads
PHASE_TOL = 1e-13
WEYL_TOL = 1e-6

# the measured values that a check's tolerance bounds, in any check that reports them
MEASURES = ("residual", "offdiag_residual", "diag_deviation", "c_deviation")


def over_tolerance(result: dict) -> list[str]:
    """The MEASURES in result not within its tolerance; a NaN never is."""
    return [key for key in MEASURES if key in result and not result[key] <= result["tolerance"]]


def _judged(result: dict) -> dict:
    """result with "passed" added last: true when no measure is over tolerance."""
    result["passed"] = not over_tolerance(result)
    return result


def _worst(residuals) -> float:
    """The largest of the residuals, NaN if any is NaN, so a NaN fails the check."""
    return float(np.max(residuals))


def covariance(s: Scenario) -> dict:
    """Rotating the static generator reproduces the driven Hamiltonian."""
    rng = np.random.default_rng(SEED)
    draws = rng.uniform([-2, -2, 0.1, 0], [2, 2, 5, 20], (COVARIANCE_SAMPLES, 4))
    resid = []
    for alpha, beta, omega, t in draws:
        q = QubitParams(alpha, beta, omega)
        h = hamiltonian_static(q, s.bath)
        scale = linalg.frobenius_norm(h)
        resid.append(covariance_residual(q, h, t) / scale)
    return _judged({"residual": _worst(resid), "tolerance": IDENTITY_TOL})


def rotating_frame(s: Scenario) -> dict:
    """Stepped lab-frame dynamics against the dressed static trajectory; a
    trajectory that leaves a sanity cap fails the check with a NaN residual."""
    try:
        resid, message = _worst(rotating_frame_check(s)), None
    except TrajectorySanityError as exc:
        resid, message = float("nan"), str(exc)
    out = _judged({"residual": resid, "tolerance": ROTATING_FRAME_TOL, "steps": s.steps})
    if out["passed"]:
        return out
    lost = phase_lost(s.qubit.omega, s.t_max)
    if message is None:
        message = (f"stepped integration at {s.steps} steps leaves residual "
                   f"{resid:.3e} > {ROTATING_FRAME_TOL:.0e}")
        if lost is None:
            message += ("; the midpoint integrator converges at second order, so doubling "
                        "the step count divides the residual by about four")
    if lost is not None:
        message += (f"; the drive phase omega t carries no digit at that tolerance "
                    f"(|omega| t_max eps = {lost:.1e}), so no step count helps")
    out["message"] = message
    return out


def sandwich(s: Scenario) -> dict:
    """Tr_E((A1 (x) 1) B (A2 (x) 1)) = A1 Tr_E(B) A2 on random blocks of the bath's size.

    The identity is exact and bilinear in B, A1 and A2, so independent uniform
    entries test it as well as normal ones would, at a fraction of the draw cost."""
    rng = np.random.default_rng(SEED + 1)
    n = s.bath.env_dim
    chunk = chunk_size(4 * n * n)  # samples per chunk, each with 4N^2 entries of B
    resid = []
    for start in range(0, SANDWICH_SAMPLES, chunk):
        m = min(chunk, SANDWICH_SAMPLES - start)
        draws = rng.uniform(-1.0, 1.0, (m, 8 * n * n + 16)).view(complex)
        b = draws[:, : 4 * n * n].reshape(m, 2, 2, n, n)
        a = draws[:, 4 * n * n :].reshape(m, 2, 2, 2)
        scale = np.linalg.norm(b.reshape(m, -1), axis=1)
        resid.append(sandwich_lemma_check(a[:, 0], b, a[:, 1]) / scale)
    return _judged({"residual": _worst(np.concatenate(resid)), "tolerance": IDENTITY_TOL})


def resonant_drive(s: Scenario) -> tuple[np.ndarray, np.ndarray, list[complex]]:
    """H_E, W = V + beta and the drive phases z_t = exp(-2 i alpha t) on the
    PHASE_POINTS grid of [0, t_max], read by zt_riccati and st_diagonalization."""
    w = s.bath.v + s.qubit.beta * np.eye(s.bath.env_dim)
    return s.bath.he, w, [complex(np.exp(-2j * s.qubit.alpha * t))
                          for t in np.linspace(0.0, s.t_max, PHASE_POINTS)]


def zt_riccati(s: Scenario) -> dict:
    """The phase X_t = z_t solves the driven Riccati equation, relative to
    ||W||_F: F(z_t 1) on the blocks a = c = H_E, b = z_t* W of periodic_blocks."""
    he, w, phases = resonant_drive(s)
    eye, scale = np.eye(len(he)), max(linalg.frobenius_norm(w), 1e-300)
    worst = _worst([linalg.frobenius_norm(riccati.riccati_map(z * eye, he, np.conj(z) * w, he))
                    / scale for z in phases])
    return _judged({"residual": worst, "tolerance": PHASE_TOL})


def st_diagonalization(s: Scenario) -> dict:
    """The frame S_t makes H(t) static and block-diagonal: blocks H_E +- W, to
    within roundoff of ||H(t)||_F = sqrt(2) ||[H_E; W]||_F, the same at every t."""
    he, w, phases = resonant_drive(s)
    scale = max(2**0.5 * linalg.frobenius_norm(np.concatenate((he, w))), 1e-300)
    off, dev = [], []
    for z in phases:
        tb = riccati.s_frame_blocks(riccati.periodic_blocks(he, w, z), z)
        off.append(offdiag_norm(tb))
        dev += [np.max(np.abs(tb[0, 0] - (he + w))), np.max(np.abs(tb[1, 1] - (he - w)))]
    return _judged({"offdiag_residual": _worst(off) / scale,
                    "diag_deviation": _worst(dev) / scale, "tolerance": PHASE_TOL})


def weyl_displacement(s: Scenario) -> dict:
    """The Weyl displacement shifts the bath by the constant -sum |g|^2/omega."""
    return _judged({**displaced_check(s.bath), "tolerance": WEYL_TOL})


CHECKS = {
    "covariance": covariance,
    "rotating_frame": rotating_frame,
    "sandwich": sandwich,
    "zt_riccati": zt_riccati,
    "st_diagonalization": st_diagonalization,
    "weyl_displacement": weyl_displacement,
}
