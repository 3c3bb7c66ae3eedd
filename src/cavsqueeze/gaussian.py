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

from .analysis import _joint_variances, moment_records, report_from_records, squeeze_moments, symplectic_squeeze
from .hilbert import _unchecked

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
    """First and second quadrature moments of a two-mode Gaussian state.

    A caller's state is checked: finite moments, symmetric cov and the
    uncertainty relation cov + i OMEGA/4 >= 0.  The package's own states
    skip the check (hilbert._unchecked): Gaussian channels keep that relation.
    frame is (mean, cov, epsilon) in the squeezed frame of epsilon, set by gaussian_lindblad_evolve.
    """

    mean: np.ndarray
    cov: np.ndarray
    frame: tuple | None = field(default=None, init=False, repr=False, compare=False)

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
    if epsilon < 0:
        raise ValueError("epsilon must be nonnegative")
    # the squeezed vacuum covariance S(eps) (I/4) S(eps)^T, with S(eps) S(eps)^T = S(2 eps)
    return _unchecked(GaussianState, mean=np.zeros(4), cov=0.25 * symplectic_squeeze(2.0 * epsilon))


def attenuate(mean: np.ndarray, cov: np.ndarray, eta, which: int) -> tuple:
    """Squeezed-frame moments after the attenuator R -> sqrt(eta) R + sqrt(1 - eta) R_env of
    bare mode which (vacuum environment), stackable; exact at eta = 1."""
    scale = np.ones((*np.shape(eta), 4))
    scale[..., 2 * which - 2:2 * which] = np.asarray(eta)[..., None]
    keep = np.sqrt(scale)
    return keep * mean, cov * (keep[..., :, None] * keep[..., None, :]) + 0.25 * (1.0 - scale)[..., None] * np.eye(4)


def gaussian_lindblad_evolve(
    s0: GaussianState, epsilon: float, gamma: float, which: int, t: float
) -> GaussianState:
    """Exact moment evolution under pumping of transformed mode 1 or 2.

    In the squeezed frame the transformed mode b_j is the bare mode j, so
    pumping it for t is attenuate at eta = exp(-gamma t) there.  The result keeps
    those moments as its frame, since mapping bare moments back would lose digits
    as cosh(epsilon)**4; eta = 1 returns s0.  Closed form: no step-size error.
    """
    if gamma < 0:
        raise ValueError("gamma must be nonnegative")
    if t < 0:
        raise ValueError("t must be nonnegative")
    if which not in (1, 2):
        raise ValueError(f"which must be 1 or 2, got {which!r}")
    eta = math.exp(-gamma * t) if gamma else 1.0
    if eta == 1.0:
        return s0
    mean, cov, frame = _held(s0)
    mean, cov = attenuate(*squeeze_moments(mean, cov, frame - epsilon), eta, which)
    bare_mean, bare_cov = squeeze_moments(mean, cov, epsilon)
    return _unchecked(GaussianState, mean=bare_mean, cov=0.5 * (bare_cov + bare_cov.T), frame=(mean, cov, epsilon))


def _held(s: GaussianState) -> tuple:
    """(mean, cov, epsilon): s's moments in the frame it holds them in (0: bare)."""
    return s.frame or (s.mean, s.cov, 0.0)


def gaussian_frame(s0: GaussianState, epsilon: float) -> tuple:
    """(entry, pump) on the moments, as dynamics.squeezed_frame gives them on
    rho_b: each sample of a pump step, and its end, is one gaussian_lindblad_evolve
    of the state the step starts in, read as its _held moments with no leak."""
    read = lambda s: (*_held(s), 0.0)
    tabulate = lambda mean, cov, frame: moment_records(mean, cov, epsilon, frame)
    fidelity = lambda mean, cov, frame: float(gaussian_fidelity_to_tmsv(mean, cov, epsilon - frame))
    report = lambda row, s, leak: report_from_records(row, epsilon, fidelity(*_held(s)), leak)

    def pump(d, duration, times):
        evolve = lambda s, t: gaussian_lindblad_evolve(s, epsilon, d.gamma, 1 if d.channel == "b1" else 2, t)
        return times, lambda s, read: ([read(evolve(s, t)) for t in times], evolve(s, duration))

    return (s0, read, tabulate, report), pump


def two_step_reports(epsilon: np.ndarray, eta1: np.ndarray, eta2: np.ndarray) -> tuple:
    """(duan_sum, n1_mean, n2_mean, fidelity) of gaussian_frame's report on runs from the vacuum
    pumping b1 at transmissivity eta1, then b2 at eta2, one per epsilon, in one broadcast pass.
    A run with eta = 1 on both steps stays in the bare modes (frame 0) and reads the vacuum exactly."""
    vacuum, frame = gaussian_vacuum(), np.where((eta1 != 1.0) | (eta2 != 1.0), epsilon, 0.0)
    mean, cov = attenuate(*attenuate(*squeeze_moments(vacuum.mean, vacuum.cov, -frame), eta1, 1), eta2, 2)
    rec = moment_records(mean, cov, epsilon, frame)
    return rec["duan_sum"], rec["n_a1"], rec["n_a2"], gaussian_fidelity_to_tmsv(mean, cov, epsilon - frame)


def gaussian_epr_variances(s: GaussianState) -> dict:
    """The joint-quadrature variance records of the covariance matrix, the
    keys v_x_minus .. duan_sum of moment_records."""
    return {key: float(v) for key, v in _joint_variances(s.cov).items()}


def gaussian_fidelity_to_tmsv(mean: np.ndarray, cov: np.ndarray, epsilon) -> np.ndarray:
    """Fidelity of the state with moments mean and cov to gaussian_tmsv(epsilon), stackable.
    In the target's squeezed frame the target is the vacuum (epsilon 0)."""
    m = cov + 0.25 * symplectic_squeeze(2.0 * epsilon)
    q = np.sum(mean * np.linalg.solve(m, mean[..., None])[..., 0], -1)
    return np.reshape([math.exp(-0.5 * v) for v in np.ravel(q)], q.shape) / (4.0 * np.sqrt(np.linalg.det(m)))
