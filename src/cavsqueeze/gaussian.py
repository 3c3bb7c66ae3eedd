"""Covariance-matrix engine.

Squeezing, displacement, and the transformed-mode pumping are all Gaussian,
so states are fully described by a quadrature mean vector and a 4x4
covariance matrix.  This scales to squeezing levels where Fock truncation
is impractical.  Pumping is the closed-form attenuator of the pumped mode
in the squeezed frame all engines share.  Conventions: R = (X1, P1, X2, P2)
with X = (a + a+)/2, P = -i(a - a+)/2, vacuum covariance I/4.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .analysis import EPRVariances, symplectic_squeeze

SYMMETRY_TOL = 1e-12
UNCERTAINTY_FLOOR = -1e-10

# commutation matrix: [R_i, R_j] = (i/2) OMEGA_ij
OMEGA = np.array(
    [
        [0.0, 1.0, 0.0, 0.0],
        [-1.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, 1.0],
        [0.0, 0.0, -1.0, 0.0],
    ]
)


@dataclass(frozen=True)
class GaussianState:
    """First and second quadrature moments of a two-mode Gaussian state."""

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=float).reshape(4)
        cov = np.asarray(self.cov, dtype=float)
        if cov.shape != (4, 4):
            raise ValueError(f"cov must be 4x4, got {cov.shape}")
        if np.max(np.abs(cov - cov.T)) > SYMMETRY_TOL:
            raise ValueError("cov must be symmetric")
        sigma = cov + 0.25j * OMEGA
        lowest = float(np.min(np.linalg.eigvalsh(sigma)))
        if lowest < UNCERTAINTY_FLOOR:
            raise ValueError(f"cov violates the uncertainty principle (eigenvalue {lowest:.3e})")
        mean.setflags(write=False)
        cov.setflags(write=False)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)


def gaussian_vacuum() -> GaussianState:
    return GaussianState(mean=np.zeros(4), cov=0.25 * np.eye(4))


def gaussian_tmsv(epsilon: float) -> GaussianState:
    """Two-mode squeezed vacuum at the covariance level.

    Cross-correlations are positive in X and negative in P, matching the
    Fock-space construction (X1 - X2 and P1 + P2 are the squeezed pair).
    """
    if epsilon < 0:
        raise ValueError("epsilon must be nonnegative")
    # the squeezed vacuum covariance S(eps) (I/4) S(eps)^T, with S(eps) S(eps)^T = S(2 eps)
    return GaussianState(mean=np.zeros(4), cov=0.25 * symplectic_squeeze(2.0 * epsilon))


def gaussian_lindblad_evolve(
    s0: GaussianState, epsilon: float, gamma: float, which: int, t: float
) -> GaussianState:
    """Exact moment evolution under pumping of transformed mode 1 or 2.

    In the squeezed frame the transformed mode b_j is the bare mode j, so
    pumping it for t is the attenuator R -> sqrt(eta) R + sqrt(1 - eta) R_env
    on that mode, eta = exp(-gamma t), with the vacuum environment; the
    frame moments go in and out with symplectic_squeeze(-+epsilon).  Closed
    form, so there is no step-size error.
    """
    if gamma < 0:
        raise ValueError("gamma must be nonnegative")
    if t < 0:
        raise ValueError("t must be nonnegative")
    if which not in (1, 2):
        raise ValueError(f"which must be 1 or 2, got {which!r}")
    if t == 0.0 or gamma == 0.0:
        return s0
    eta = math.exp(-gamma * t)
    pumped = slice(2 * which - 2, 2 * which)
    keep = np.ones(4)
    keep[pumped] = math.sqrt(eta)
    noise = np.zeros(4)
    noise[pumped] = 0.25 * (1.0 - eta)
    to_bare = symplectic_squeeze(epsilon)
    f = (to_bare * keep) @ symplectic_squeeze(-epsilon)
    cov = f @ s0.cov @ f.T + (to_bare * noise) @ to_bare.T
    return GaussianState(mean=f @ s0.mean, cov=0.5 * (cov + cov.T))


def gaussian_epr_variances(s: GaussianState) -> EPRVariances:
    """Joint quadrature variances from the covariance matrix."""
    return EPRVariances.from_covariance(s.cov)


def gaussian_fidelity_to_tmsv(s: GaussianState, epsilon: float) -> float:
    """Fidelity of s to the pure target gaussian_tmsv(epsilon), closed form."""
    target = gaussian_tmsv(epsilon)
    m = s.cov + target.cov
    delta = s.mean - target.mean
    fidelity = math.exp(-0.5 * float(delta @ np.linalg.solve(m, delta)))
    return fidelity / (4.0 * math.sqrt(float(np.linalg.det(m))))
