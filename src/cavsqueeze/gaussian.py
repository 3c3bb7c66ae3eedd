"""Covariance-matrix engine.

Squeezing, displacement, and the transformed-mode pumping are all Gaussian,
so states are fully described by a quadrature mean vector and a 4x4
covariance matrix.  This scales to squeezing levels where Fock truncation
is impractical.  Pumping is the closed-form attenuator of the pumped mode
in the squeezed frame all engines share, from a step's entry state to each
sample.  Conventions: R = (X1, P1, X2, P2) with X = (a + a+)/2,
P = -i(a - a+)/2, vacuum covariance I/4.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .analysis import (moment_records, pumped_moments, report_from_records, squeeze_moments, symplectic_squeeze,
                       transmissivities)
from .dynamics import check_duration
from .hilbert import _unchecked, elementwise

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


@dataclass(frozen=True, eq=False)
class GaussianState:
    """First and second quadrature moments of a two-mode Gaussian state.

    A caller's state is checked: finite moments, symmetric cov and the
    uncertainty relation cov + i OMEGA/4 >= 0.  The package's own states
    skip the check (hilbert._unchecked): Gaussian channels keep that relation.
    frame is (mean, cov, epsilon) in the squeezed frame of epsilon, set by gaussian_lindblad_evolve.
    """

    mean: np.ndarray
    cov: np.ndarray
    frame: tuple | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=float).reshape(4)
        cov = np.asarray(self.cov, dtype=float)
        if cov.shape != (4, 4):
            raise ValueError(f"cov must be 4x4, got {cov.shape}")
        if not (np.all(np.isfinite(mean)) and np.all(np.isfinite(cov))):
            raise ValueError("mean and cov must be finite")
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
    return _unchecked(GaussianState, mean=np.zeros(4), cov=0.25 * np.eye(4))


def gaussian_tmsv(epsilon: float) -> GaussianState:
    """Two-mode squeezed vacuum at the covariance level.

    Cross-correlations are positive in X and negative in P, matching the
    Fock-space construction (X1 - X2 and P1 + P2 are the squeezed pair).
    """
    if not 0.0 <= epsilon < math.inf:
        raise ValueError(f"epsilon must be finite and nonnegative, got {epsilon!r}")
    # the squeezed vacuum covariance S(eps) (I/4) S(eps)^T, with S(eps) S(eps)^T = S(2 eps)
    return _unchecked(GaussianState, mean=np.zeros(4), cov=0.25 * symplectic_squeeze(2.0 * epsilon))


def gaussian_lindblad_evolve(
    s0: GaussianState, epsilon: float, gamma: float, which: int, t: float
) -> GaussianState:
    """Exact moment evolution under pumping of transformed mode 1 or 2.

    In the squeezed frame the transformed mode b_j is the bare mode j, so
    pumping it for t is pumped_moments at eta = exp(-gamma t) there.  The result keeps
    those moments as its frame, since mapping bare moments back would lose digits
    as cosh(epsilon)**4; eta = 1 returns s0.  Closed form: no step-size error.
    """
    if not math.isfinite(epsilon):
        raise ValueError(f"epsilon must be finite, got {epsilon!r}")
    if not 0.0 <= gamma < math.inf:
        raise ValueError(f"gamma must be finite and nonnegative, got {gamma!r}")
    check_duration(t)
    if which not in (1, 2):
        raise ValueError(f"which must be 1 or 2, got {which!r}")
    eta = transmissivities(gamma, t, which) if gamma else np.ones(2)
    if np.all(eta == 1.0):
        return s0
    mean, cov, frame = pumped_moments(*_held(s0), eta, epsilon)
    bare_mean, bare_cov = squeeze_moments(mean, cov, frame)
    return _unchecked(GaussianState, mean=bare_mean, cov=0.5 * (bare_cov + bare_cov.T), frame=(mean, cov, frame))


def _held(s: GaussianState) -> tuple:
    """(mean, cov, epsilon): s's moments in the frame it holds them in (0: bare)."""
    return s.frame or (s.mean, s.cov, 0.0)


def gaussian_frame(s0: GaussianState, epsilon: float) -> tuple:
    """(entry, pump) on the moments, as dynamics.squeezed_frame gives them on rho_b: a reading
    is a state's _held moments, the attenuate pair a pump has applied since and no leak, and
    tabulate takes readings through pumped_moments to their records in one stacked pass.  Each
    sample of a pump step is the state it starts in with the sample's transmissivities; the
    step makes one gaussian_lindblad_evolve, for its end."""
    read = lambda s: (*_held(s), np.ones(2), 0.0)
    fidelity = lambda mean, cov, frame: float(gaussian_fidelity_to_tmsv(mean, cov, epsilon - frame))
    report = lambda row, s, leak: report_from_records(row, epsilon, fidelity(*_held(s)), leak)

    def tabulate(mean, cov, frame, eta):
        mean, cov, frame = pumped_moments(mean, cov, frame, eta, epsilon)
        return moment_records(mean, cov, epsilon, frame)

    def pump(d, duration, times):
        mode = 1 if d.channel == "b1" else 2
        etas = transmissivities(d.gamma, times, mode)
        end = lambda s: gaussian_lindblad_evolve(s, epsilon, d.gamma, mode, duration)
        return times, lambda s, read: ([(*_held(s), eta, 0.0) for eta in etas], end(s))

    return (s0, read, tabulate, report), pump


def two_step_reports(epsilon: np.ndarray, eta1: np.ndarray, eta2: np.ndarray) -> tuple:
    """(duan_sum, n1_mean, n2_mean, fidelity) of gaussian_frame's report on runs from the vacuum
    pumping b1 at the attenuate pairs eta1, then b2 at eta2, one per epsilon, in one broadcast pass
    that takes each step as a run does.  A run with eta = 1 on both steps stays in the bare modes
    (frame 0) and reads the vacuum exactly."""
    mean, cov, frame = _held(gaussian_vacuum())
    for eta in (eta1, eta2):
        mean, cov, frame = pumped_moments(mean, cov, frame, eta, epsilon)
    rec = moment_records(mean, cov, epsilon, frame)
    return rec["duan_sum"], rec["n_a1"], rec["n_a2"], gaussian_fidelity_to_tmsv(mean, cov, epsilon - frame)


def gaussian_epr_variances(s: GaussianState) -> dict:
    """The joint-quadrature variance records of the state, the keys v_x_minus .. duan_sum of
    moment_records, read from the moments it holds (in the squeezed frame once a step has moved it)."""
    mean, cov, frame = _held(s)
    return {key: float(v) for key, v in moment_records(mean, cov, frame, frame).items() if not key.startswith("n_")}


def gaussian_fidelity_to_tmsv(mean: np.ndarray, cov: np.ndarray, epsilon) -> np.ndarray:
    """Fidelity of the state with moments mean and cov to gaussian_tmsv(epsilon), stackable.
    In the target's squeezed frame the target is the vacuum (epsilon 0)."""
    m = cov + 0.25 * symplectic_squeeze(2.0 * epsilon)
    q = np.sum(mean * np.linalg.solve(m, mean[..., None])[..., 0], -1)
    return elementwise(math.exp, -0.5 * q) / (4.0 * np.sqrt(np.linalg.det(m)))
