"""Finite bosonic environments: truncated Fock modes and displacements.

A bath is a list of harmonic modes, each truncated at a shared Fock cutoff
n_max (local dimension n_max + 1).  Multi-mode operators are Kronecker
products with mode 0 as the slowest index, so for two modes with
frequencies (1, 2) at n_max = 1 the bath Hamiltonian is diag(0, 2, 1, 3).
A BathSpec builds its H_E and V once, on first use, as the read-only
arrays spec.he and spec.v; every operator built from H_E or V reads those.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, reduce

import numpy as np

from . import linalg

ENV_DIM_CAP = 64

# Cap on steps * substeps_per_step, the midpoint steps of a stepped run.  A run
# keeps a 2 x 2 state and its diagnostics (about 100 bytes) per grid point and
# takes tens of microseconds per step even on the smallest bath, so the cap
# already costs minutes; past it a grid fails to allocate (10**15 points) or
# runs for hours.
STEP_CAP = 10**6

# Fock padding used when building displacement operators; large enough that
# the cut-back block agrees with the untruncated operator to roundoff for
# the displacement sizes this package targets (|g/omega| of order one).
_WEYL_PAD = 32


class DimensionCapError(ValueError):
    """Total environment dimension exceeds the supported cap."""


@dataclass(frozen=True)
class BathMode:
    omega: float
    g: complex

    def __post_init__(self):
        if not self.omega > 0:
            raise ValueError(f"mode frequency must be positive, got {self.omega}")


@dataclass(frozen=True)
class BathSpec:
    """Modes plus a shared Fock cutoff; validates the dimension cap and that
    H_E and V fit in float64."""

    modes: tuple[BathMode, ...]
    fock_cutoff: int

    def __post_init__(self):
        modes = self.modes
        if not modes:
            raise ValueError("a bath needs at least one mode")
        if self.fock_cutoff < 1:
            raise ValueError(f"fock_cutoff must be >= 1, got {self.fock_cutoff}")
        if self.env_dim > ENV_DIM_CAP:
            raise DimensionCapError(
                f"environment dimension {self.env_dim} exceeds cap {ENV_DIM_CAP}"
            )
        # the largest entries of H_E and of V, at every mode's top Fock level
        he_top = self.fock_cutoff * sum(m.omega for m in modes)
        v_top = math.sqrt(self.fock_cutoff) * max(math.hypot(m.g.real, m.g.imag) for m in modes)
        if not max(he_top, v_top) < math.inf:
            raise ValueError(
                f"H_E or V overflows float64: fock_cutoff * sum(omega) = {he_top:.3e}, "
                f"sqrt(fock_cutoff) * max |g| = {v_top:.3e}"
            )

    @property
    def local_dim(self) -> int:
        return self.fock_cutoff + 1

    @property
    def env_dim(self) -> int:
        return self.local_dim ** len(self.modes)

    @cached_property
    def he(self) -> np.ndarray:
        """H_E = bath_hamiltonian(self), built on first use."""
        return bath_hamiltonian(self)

    @cached_property
    def v(self) -> np.ndarray:
        """V = coupling_operator(self), built on first use."""
        return coupling_operator(self)


def _ladder(dim: int) -> np.ndarray:
    return np.diag(np.sqrt(np.arange(1, dim)), k=1).astype(complex)


def _embed(spec: BathSpec, local: np.ndarray, k: int) -> np.ndarray:
    """Put a single-mode operator at slot k of the mode Kronecker chain."""
    eye = np.eye(spec.local_dim, dtype=complex)
    factors = [local if j == k else eye for j in range(len(spec.modes))]
    return reduce(np.kron, factors)


def annihilation(spec: BathSpec, k: int) -> np.ndarray:
    """Truncated annihilation operator of mode k on the full bath space."""
    if not 0 <= k < len(spec.modes):
        raise IndexError(f"mode index {k} out of range for {len(spec.modes)} modes")
    return _embed(spec, _ladder(spec.local_dim), k)


def bath_hamiltonian(spec: BathSpec) -> np.ndarray:
    """Sum of omega_k a_k† a_k; diagonal in the Fock basis; read-only."""
    h = np.zeros((spec.env_dim, spec.env_dim), dtype=complex)
    for k, mode in enumerate(spec.modes):
        a = annihilation(spec, k)
        h += mode.omega * (a.conj().T @ a)
    h.flags.writeable = False
    return h


def coupling_operator(spec: BathSpec) -> np.ndarray:
    """Sum of g_k* a_k + g_k a_k†; Hermitian by construction; read-only."""
    v = np.zeros((spec.env_dim, spec.env_dim), dtype=complex)
    for k, mode in enumerate(spec.modes):
        a = annihilation(spec, k)
        v += np.conj(mode.g) * a + mode.g * a.conj().T
    v.flags.writeable = False
    return v


def _weyl_single(lam: complex, local_dim: int) -> np.ndarray:
    """Single-mode Weyl factor exp(lam* a - lam a†), cut to local_dim.

    The exponential is taken in a padded Fock space and the top-left block
    kept, so the result is the true (untruncated) displacement compressed
    to the truncated space.  Its unitarity defect is then a genuine
    truncation measure instead of an artifact of exponentiating a cut
    generator, which would be exactly unitary at any cutoff.

    The exponential is linalg.expm, the stepper's Taylor kernel.  A
    displacement too large for any correct digit (or an infinite lam) gives
    an all-NaN factor without a warning, and the check that uses it fails.
    """
    dim = local_dim + _WEYL_PAD
    a = _ladder(dim)
    with np.errstate(invalid="ignore", over="ignore"):
        g = np.conj(lam) * a - lam * a.conj().T
        w = linalg.expm(g)
    return w[:local_dim, :local_dim]


def weyl_operator(spec: BathSpec) -> np.ndarray:
    """Product displacement exp(sum_k (lam_k* a_k - lam_k a_k†)), lam_k = g_k/omega_k.

    Unitary only up to truncation; see weyl_unitarity_defect for the
    reported defect.
    """
    return reduce(np.kron, [_weyl_single(m.g / m.omega, spec.local_dim) for m in spec.modes])


def comparison_levels(spec: BathSpec) -> int:
    """Per-mode number of low Fock levels used in truncation comparisons.

    ceil(n_max / 2): the lowest half of the ladder, where a truncated
    displacement is trustworthy.
    """
    return -(-spec.fock_cutoff // 2)


def _low_fock_indices(spec: BathSpec, levels: int) -> np.ndarray:
    """Indices of bath basis states with every mode occupation < levels."""
    keep = np.arange(spec.local_dim) < levels
    mask = reduce(np.kron, [keep] * len(spec.modes))
    return np.nonzero(mask)[0]


def weyl_unitarity_defect(spec: BathSpec) -> float:
    """||(W†W - 1)||_F restricted to the low-Fock comparison subspace.

    Measured on the lowest comparison_levels(spec) Fock levels per mode; the
    defect is the mass the compressed displacement leaks past the cutoff from
    those columns and shrinks as n_max grows at fixed displacement.
    """
    w = weyl_operator(spec)
    gram = w.conj().T @ w - np.eye(spec.env_dim)
    idx = _low_fock_indices(spec, comparison_levels(spec))
    return linalg.frobenius_norm(gram[np.ix_(idx, idx)])


def displaced_check(spec: BathSpec) -> dict:
    """Check H_E ± V against W^(±1) H_E W^(∓1) + c on low Fock levels.

    The shifted bath Hamiltonians H± = H_E ± V are unitarily displaced
    copies of H_E up to an additive constant.  Returns the fields verify
    prints, in its order: residual, the Frobenius norm of the remaining
    mismatch on the comparison subspace at the worse sign (NaN if either is
    NaN); c_fit, the constant that best matches both signs there;
    c_expected, -sum_k |g_k|^2 / omega_k (-inf where |g_k|^2 overflows);
    c_deviation = |c_fit - c_expected|; and levels, comparison_levels(spec).
    """
    he, v = spec.he, spec.v
    w = weyl_operator(spec)
    levels = comparison_levels(spec)
    idx = _low_fock_indices(spec, levels)
    sub = np.ix_(idx, idx)

    mis_plus = (w @ he @ w.conj().T - (he + v))[sub]
    mis_minus = (w.conj().T @ he @ w - (he - v))[sub]
    n_sub = len(idx)
    c_fit = -float((np.trace(mis_plus) + np.trace(mis_minus)).real) / (2 * n_sub)
    eye = np.eye(n_sub)
    # a float64 power: the same libm pow as Python's, but inf, not OverflowError
    c_expected = -float(sum(np.float64(abs(m.g)) ** 2 / m.omega for m in spec.modes))
    return {
        "residual": float(np.max([linalg.frobenius_norm(mis + c_fit * eye)
                                  for mis in (mis_plus, mis_minus)])),
        "c_fit": c_fit,
        "c_expected": c_expected,
        "c_deviation": abs(c_fit - c_expected),
        "levels": levels,
    }
