"""The verification checks, shared by `bomric verify` and the acceptance tests.

Each check is a function of a Scenario alone and returns the dict that
verify prints and writes: the measured residuals, the tolerance and
"passed".  A residual that is NaN at any sample makes the worst one NaN,
and the check fails.  Seeds, sample counts, the time grid and the tolerances are the
module constants below, so a check measures the same thing wherever it runs.
Every check reads H_E and V from the scenario's BathSpec (spec.he, spec.v),
so the six of them assemble each once.

The sandwich check draws one row of standard normals per sample: the four
N x N blocks of B as (re, im) pairs, then A1 (re, im), then A2 (re, im).
Rows are drawn a chunk at a time from one stream, so the chunk size changes
neither the samples nor their order.
"""
from __future__ import annotations

import numpy as np

from . import linalg, riccati
from .bath import displaced_check
from .blockop import blocks, offdiag_norm, sandwich_lemma_check
from .dynamics import (
    QubitParams,
    Scenario,
    chunk_size,
    covariance_residual,
    hamiltonian_static,
    rotating_frame_check,
)

SEED = 20240817             # covariance draws from SEED, sandwich from SEED + 1
COVARIANCE_SAMPLES = 100
SANDWICH_SAMPLES = 1000
PHASE_POINTS = 100          # grid on [0, t_max] of zt_riccati and st_diagonalization

IDENTITY_TOL = 1e-12        # covariance and sandwich, relative to ||H||_F or ||B||_F
ROTATING_FRAME_TOL = 1e-5
PHASE_TOL = 1e-13
WEYL_TOL = 1e-6


def _worst(residuals) -> float:
    """The largest of the residuals, NaN if any is NaN, so a NaN fails the check."""
    return float(np.max(residuals))


def covariance(s: Scenario) -> dict:
    """Rotating the static generator reproduces the driven Hamiltonian."""
    rng = np.random.default_rng(SEED)
    resid = []
    for _ in range(COVARIANCE_SAMPLES):
        q = QubitParams(
            alpha=rng.uniform(-2, 2),
            beta=rng.uniform(-2, 2),
            omega=rng.uniform(0.1, 5.0),
        )
        t = rng.uniform(0.0, 20.0)
        h = hamiltonian_static(q, s.bath)
        scale = linalg.frobenius_norm(h)
        resid.append(covariance_residual(q, h, t) / scale)
    worst = _worst(resid)
    return {"residual": worst, "tolerance": IDENTITY_TOL, "passed": worst <= IDENTITY_TOL}


def rotating_frame(s: Scenario) -> dict:
    """Stepped lab-frame dynamics against the dressed static trajectory."""
    resid = float(np.max(rotating_frame_check(s)))
    tol = ROTATING_FRAME_TOL
    out = {"residual": resid, "tolerance": tol, "passed": resid <= tol, "steps": s.steps}
    if out["passed"]:
        return out
    lost = drive_phase_lost(s)
    if lost is None:
        advice = ("the midpoint integrator converges at second order, so doubling the "
                  "step count divides the residual by about four")
    else:
        advice = (f"the drive phase omega t carries no digit at that tolerance "
                  f"(|omega| t_max eps = {lost:.1e}), so no step count helps")
    out["message"] = (f"stepped integration at {s.steps} steps leaves residual "
                      f"{resid:.3e} > {tol:.0e}; {advice}")
    return out


def drive_phase_lost(s: Scenario) -> float | None:
    """|omega| t_max eps, the rounding error of the drive phase omega t on s's
    grid, when it exceeds ROTATING_FRAME_TOL, else None.  Past that tolerance
    the phase keeps no digit, so no step count resolves the modes that use
    omega (rotating_stepped and factored)."""
    lost = abs(s.qubit.omega) * s.t_max * np.finfo(float).eps
    return lost if lost > ROTATING_FRAME_TOL else None


def sandwich(s: Scenario) -> dict:
    """Tr_E((A1 (x) 1) B (A2 (x) 1)) = A1 Tr_E(B) A2 on random blocks of the bath's size."""
    rng = np.random.default_rng(SEED + 1)
    n = s.bath.env_dim
    chunk = chunk_size(4 * n * n)  # samples per chunk, each with 4N^2 entries of B
    resid = []
    for start in range(0, SANDWICH_SAMPLES, chunk):
        m = min(chunk, SANDWICH_SAMPLES - start)
        draws = rng.standard_normal((m, 8 * n * n + 16))
        blocks, qubit = draws[:, : 8 * n * n], draws[:, 8 * n * n :]
        b = _complex_pairs(blocks.reshape(m, 4, 2, n * n)).reshape(m, 2, 2, n, n)
        a = _complex_pairs(qubit.reshape(m, 2, 2, 4)).reshape(m, 2, 2, 2)
        scale = np.linalg.norm(b.reshape(m, -1), axis=1)
        resid.append(sandwich_lemma_check(a[:, 0], b, a[:, 1]) / scale)
    worst = _worst(np.concatenate(resid))
    return {"residual": worst, "tolerance": IDENTITY_TOL, "passed": worst <= IDENTITY_TOL}


def _complex_pairs(x: np.ndarray) -> np.ndarray:
    """(..., 2, n) real (re, im) pairs to (..., n) complex."""
    z = np.empty(x.shape[:-2] + x.shape[-1:], dtype=complex)
    z.real, z.imag = x[..., 0, :], x[..., 1, :]
    return z


def zt_riccati(s: Scenario) -> dict:
    """The phase X_t = z_t solves the driven Riccati equation, relative to
    ||W||_F, W = V + beta: F(z_t 1) on the N x N blocks of periodic_bom."""
    he, alpha = s.bath.he, s.qubit.alpha
    w = s.bath.v + s.qubit.beta * np.eye(s.bath.env_dim)
    scale = max(linalg.frobenius_norm(w), 1e-300)
    worst = _worst([riccati.time_dependent_residual(he, w, alpha, t) / scale
                    for t in np.linspace(0.0, s.t_max, PHASE_POINTS)])
    return {"residual": worst, "tolerance": PHASE_TOL, "passed": worst <= PHASE_TOL}


def st_diagonalization(s: Scenario) -> dict:
    """The frame S_t makes H(t) static and block-diagonal: blocks H_E +- W."""
    he, (alpha, beta) = s.bath.he, (s.qubit.alpha, s.qubit.beta)
    w = s.bath.v + beta * np.eye(s.bath.env_dim)
    off, dev = [], []
    for t in np.linspace(0.0, s.t_max, PHASE_POINTS):
        h = riccati.periodic_bom(s.bath, beta, alpha, t)
        tb = blocks(riccati.s_frame_transform(h, alpha, t))
        off.append(offdiag_norm(tb))
        dev += [np.max(np.abs(tb[0, 0] - (he + w))), np.max(np.abs(tb[1, 1] - (he - w)))]
    worst_off, worst_diag = _worst(off), _worst(dev)
    return {
        "offdiag_residual": worst_off,
        "diag_deviation": worst_diag,
        "tolerance": PHASE_TOL,
        "passed": worst_off <= PHASE_TOL and worst_diag <= PHASE_TOL,
    }


def weyl_displacement(s: Scenario) -> dict:
    """The Weyl displacement shifts the bath by the constant -sum |g|^2/omega."""
    check = displaced_check(s.bath)
    resid = _worst([check.residual_plus, check.residual_minus])
    c_dev = abs(check.c_fit - check.c_expected)
    return {
        "residual": resid,
        "c_fit": check.c_fit,
        "c_expected": check.c_expected,
        "c_deviation": c_dev,
        "levels": check.levels,
        "tolerance": WEYL_TOL,
        "passed": resid <= WEYL_TOL and c_dev <= WEYL_TOL,
    }


CHECKS = {
    "covariance": covariance,
    "rotating_frame": rotating_frame,
    "sandwich": sandwich,
    "zt_riccati": zt_riccati,
    "st_diagonalization": st_diagonalization,
    "weyl_displacement": weyl_displacement,
}
