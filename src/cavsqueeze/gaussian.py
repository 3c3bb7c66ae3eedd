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
from dataclasses import dataclass, replace

import numpy as np

from .analysis import EPRVariances, moment_records, symplectic_squeeze
from .dynamics import Trajectory, interval_advance, run_schedule
from .model import derive_rates

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


def _pump_step(step, times: np.ndarray):
    """advance of one pumping step for run_schedule."""
    d = derive_rates(step.params)
    which = 1 if d.channel == "b1" else 2
    return interval_advance(
        times, step.duration, lambda s, dt: gaussian_lindblad_evolve(s, d.epsilon, d.gamma, which, dt)
    )


def run_protocol_gaussian(
    protocol, samples_per_step: int = 51, initial: GaussianState = None
) -> Trajectory:
    """Covariance-level run of a multi-step pumping protocol.

    Each step pumps the transformed mode selected by its own derived
    channel for its whole duration; the squeezed-frame attenuator
    gaussian_lindblad_evolve carries the state between the samples of a
    per-step time grid, and every sample is recorded from its moments with
    the first step's epsilon (the steps of a ProtocolSpec share it).  The
    final GaussianState rides on the trajectory.
    """
    steps = []
    for step in protocol.steps:
        # a step of zero duration has its one sample at 0
        times = np.linspace(0.0, step.duration, samples_per_step if step.duration else 1)
        steps.append((times, _pump_step(step, times)))
    epsilon = derive_rates(protocol.steps[0].params).epsilon
    record = lambda s: moment_records(s.mean, s.cov, epsilon)
    traj = run_schedule(gaussian_vacuum() if initial is None else initial, steps, record)
    return replace(traj, diagnostics={"engine": "gaussian", "steps": len(steps)})
