"""Covariance-matrix engine.

Squeezing, displacement, and the transformed-mode pumping are all Gaussian,
so states are fully described by a quadrature mean vector and a 4x4
covariance matrix.  This scales to squeezing levels where Fock truncation
is impractical.  Conventions: R = (X1, P1, X2, P2) with X = (a + a+)/2,
P = -i(a - a+)/2, vacuum covariance I/4.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .analysis import EPRVariances
from .dynamics import Trajectory
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

    def mode_photon(self, mode: int) -> float:
        """<a+a> for mode 1 or 2 from the moments."""
        if mode not in (1, 2):
            raise ValueError(f"mode must be 1 or 2, got {mode!r}")
        i = 2 * (mode - 1)
        return float(
            self.cov[i, i] + self.cov[i + 1, i + 1]
            + self.mean[i] ** 2 + self.mean[i + 1] ** 2 - 0.5
        )


def gaussian_vacuum() -> GaussianState:
    return GaussianState(mean=np.zeros(4), cov=0.25 * np.eye(4))


def gaussian_tmsv(epsilon: float) -> GaussianState:
    """Two-mode squeezed vacuum at the covariance level.

    Cross-correlations are positive in X and negative in P, matching the
    Fock-space construction (X1 - X2 and P1 + P2 are the squeezed pair).
    """
    if epsilon < 0:
        raise ValueError("epsilon must be nonnegative")
    c2 = 0.25 * math.cosh(2.0 * epsilon)
    s2 = 0.25 * math.sinh(2.0 * epsilon)
    cov = np.array(
        [
            [c2, 0.0, s2, 0.0],
            [0.0, c2, 0.0, -s2],
            [s2, 0.0, c2, 0.0],
            [0.0, -s2, 0.0, c2],
        ]
    )
    return GaussianState(mean=np.zeros(4), cov=cov)


def symplectic_squeeze(epsilon: float) -> np.ndarray:
    """Quadrature action of the two-mode squeeze: X1 -> cosh X1 + sinh X2 etc.

    Satisfies S Omega S^T = Omega and maps the vacuum covariance to the
    gaussian_tmsv(epsilon) covariance.
    """
    c = math.cosh(epsilon)
    s = math.sinh(epsilon)
    return np.array(
        [
            [c, 0.0, s, 0.0],
            [0.0, c, 0.0, -s],
            [s, 0.0, c, 0.0],
            [0.0, -s, 0.0, c],
        ]
    )


def _jump_vector(epsilon: float, which: int) -> np.ndarray:
    """Coefficients c with b = c . R for the transformed lowering operator."""
    ch = math.cosh(epsilon)
    sh = math.sinh(epsilon)
    if which == 1:
        # cosh a1 - sinh a2+
        return np.array([ch, 1j * ch, -sh, 1j * sh])
    if which == 2:
        return np.array([-sh, 1j * sh, ch, 1j * ch])
    raise ValueError(f"which must be 1 or 2, got {which!r}")


def transformed_occupation(s: GaussianState, epsilon: float, which: int) -> float:
    """<b+b> of the transformed mode, computed from the moments."""
    c = _jump_vector(epsilon, which)
    sigma = s.cov + 0.25j * OMEGA
    value = np.real(c.conj() @ sigma @ c) + abs(np.dot(c, s.mean)) ** 2
    return float(value)


def _drift_diffusion(epsilon: float, gamma: float, which: int):
    c = _jump_vector(epsilon, which)
    outer = np.outer(c, c.conj())
    drift = -(gamma / 2.0) * (OMEGA @ outer.imag)
    diffusion = (gamma / 4.0) * (OMEGA @ outer.real @ OMEGA.T)
    return drift, diffusion


def gaussian_lindblad_evolve(
    s0: GaussianState, epsilon: float, gamma: float, which: int, t: float
) -> GaussianState:
    """Exact moment evolution under pumping of transformed mode 1 or 2.

    The mean obeys dm/dt = A m and the covariance dV/dt = A V + V A^T + D;
    both are integrated in closed form through a block matrix exponential,
    so there is no step-size error.
    """
    if gamma < 0:
        raise ValueError("gamma must be nonnegative")
    if t < 0:
        raise ValueError("t must be nonnegative")
    if t == 0.0 or gamma == 0.0:
        return s0
    drift, diffusion = _drift_diffusion(epsilon, gamma, which)
    # the auxiliary block carries e^{+gamma t/2} growth, so long horizons
    # are split into well-conditioned chunks and composed exactly
    n_chunks = max(1, math.ceil(gamma * t / 4.0))
    tc = t / n_chunks
    block = np.zeros((8, 8))
    block[:4, :4] = drift
    block[:4, 4:] = diffusion
    block[4:, 4:] = -drift.T
    prop = scipy.linalg.expm(block * tc)
    f = prop[:4, :4]
    q = prop[:4, 4:] @ f.T
    mean = np.asarray(s0.mean, dtype=float)
    cov = np.asarray(s0.cov, dtype=float)
    for _ in range(n_chunks):
        mean = f @ mean
        cov = f @ cov @ f.T + q
    return GaussianState(mean=mean, cov=0.5 * (cov + cov.T))


def gaussian_epr_variances(s: GaussianState) -> EPRVariances:
    """Joint quadrature variances from the covariance matrix."""
    v = s.cov
    v_x_minus = float(v[0, 0] + v[2, 2] - 2.0 * v[0, 2])
    v_x_plus = float(v[0, 0] + v[2, 2] + 2.0 * v[0, 2])
    v_p_minus = float(v[1, 1] + v[3, 3] - 2.0 * v[1, 3])
    v_p_plus = float(v[1, 1] + v[3, 3] + 2.0 * v[1, 3])
    duan = v_x_minus + v_p_plus
    return EPRVariances(
        v_x_minus=v_x_minus,
        v_x_plus=v_x_plus,
        v_p_minus=v_p_minus,
        v_p_plus=v_p_plus,
        duan_sum=duan,
        entangled=duan < 1.0,
    )


def _record_observables(s: GaussianState, epsilon: float) -> dict:
    # same key order as analysis.observable_matrices, so every engine writes
    # one CSV column order
    out = {
        "n_a1": s.mode_photon(1),
        "n_b1": transformed_occupation(s, epsilon, 1),
        "n_a2": s.mode_photon(2),
        "n_b2": transformed_occupation(s, epsilon, 2),
    }
    epr = gaussian_epr_variances(s)
    out.update(
        v_x_minus=epr.v_x_minus,
        v_x_plus=epr.v_x_plus,
        v_p_minus=epr.v_p_minus,
        v_p_plus=epr.v_p_plus,
        duan_sum=epr.duan_sum,
    )
    return out


def run_protocol_gaussian(
    protocol, samples_per_step: int = 51, initial: GaussianState = None
) -> Trajectory:
    """Covariance-level run of a multi-step pumping protocol.

    Each step pumps the transformed mode selected by its own derived
    channel for its duration.  Records occupations and joint variances on a
    per-step time grid; the final GaussianState rides on the trajectory.
    """
    state = gaussian_vacuum() if initial is None else initial
    times = [0.0]
    rows = [None]
    t_offset = 0.0
    last_epsilon = 0.0
    for step in protocol.steps:
        d = derive_rates(step.params)
        which = 1 if d.channel == "b1" else 2
        last_epsilon = d.epsilon
        if rows[0] is None:
            rows[0] = _record_observables(state, d.epsilon)
        if step.duration == 0.0:
            continue
        local = np.linspace(0.0, step.duration, samples_per_step)[1:]
        for dt_local in local:
            evolved = gaussian_lindblad_evolve(state, d.epsilon, d.gamma, which, float(dt_local))
            times.append(t_offset + float(dt_local))
            rows.append(_record_observables(evolved, d.epsilon))
        state = gaussian_lindblad_evolve(state, d.epsilon, d.gamma, which, float(step.duration))
        t_offset += float(step.duration)
    if rows[0] is None:
        rows[0] = _record_observables(state, last_epsilon)
    records = {key: np.array([row[key] for row in rows]) for key in rows[0]}
    return Trajectory(
        times=np.array(times),
        records=records,
        final_state=state,
        diagnostics={"engine": "gaussian", "steps": len(list(protocol.steps))},
    )
