"""Observables and figures of merit for Fock-engine states.

Quadratures use the convention X = (a + a+)/2, P = (a - a+)/(2i), so the
vacuum variance is 1/4.  The squeezed joint quadratures of the target state
are X1 - X2 and P1 + P2, each with variance exp(-2*epsilon)/2; their sum is
the entanglement witness used throughout (value 1 for vacuum, below 1 for
any entangled two-mode squeezed state).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import asdict, dataclass
from typing import Callable, Optional, Union

import numpy as np

from .hilbert import DensityMatrix, SpaceDescriptor, annihilation_op, expectation, number_op

TMSV_TAIL_LIMIT = 1e-6
FIDELITY_TAIL_LIMIT = 1e-3
BOUNDARY_WARN_LIMIT = 1e-3

StateLike = Union[np.ndarray, DensityMatrix]


def _resolve_state(state: StateLike, space: Optional[SpaceDescriptor]):
    if isinstance(state, DensityMatrix):
        return state.space, state
    if space is None:
        raise ValueError("a raw state array needs an explicit space")
    return space, np.asarray(state, dtype=complex)


def tmsv_state_vector(
    s: SpaceDescriptor, epsilon: float, tail_limit: float = TMSV_TAIL_LIMIT
) -> np.ndarray:
    """Two-mode squeezed vacuum with amplitudes tanh(eps)**n / cosh(eps) on |n,n>.

    The neglected tail mass past an N-photon cutoff is tanh(eps)**(2N); the
    truncation must keep it below tail_limit.  The truncated vector is
    renormalized.
    """
    if s.atom_levels != 1:
        raise ValueError("two-mode squeezed vacuum is a field-only state")
    n_min = min(s.n1_trunc, s.n2_trunc)
    t = abs(math.tanh(epsilon))
    tail = t ** (2 * n_min)
    if tail >= tail_limit:
        needed = math.ceil(math.log(tail_limit) / (2.0 * math.log(t)))
        raise ValueError(
            f"truncation {n_min} leaves tail mass {tail:.2e} >= {tail_limit:g} "
            f"for epsilon={epsilon:.4g}; need at least {needed} Fock states per mode"
        )
    psi = np.zeros(s.dim, dtype=complex)
    amp = 1.0 / math.cosh(epsilon)
    signed_t = math.tanh(epsilon)
    for n in range(n_min):
        psi[s.index(0, n, n)] = amp
        amp *= signed_t
    return psi / np.linalg.norm(psi)


def quadrature_ops(s: SpaceDescriptor):
    """The four quadratures (X1, P1, X2, P2)."""
    out = []
    for mode in (1, 2):
        a = annihilation_op(s, mode)
        x = 0.5 * (a + a.dagger())
        p = -0.5j * (a - a.dagger())
        out.extend([x, p])
    x1, p1, x2, p2 = out
    return x1, p1, x2, p2


@dataclass(frozen=True)
class EPRVariances:
    """Variances of the joint quadratures and the entanglement witness.

    v_x_minus is V(X1 - X2), v_p_plus is V(P1 + P2), and so on; duan_sum is
    v_x_minus + v_p_plus, and entangled records duan_sum < 1.
    """

    v_x_minus: float
    v_x_plus: float
    v_p_minus: float
    v_p_plus: float
    duan_sum: float
    entangled: bool


def _variance(op_matrix: np.ndarray, state) -> float:
    mean = expectation(op_matrix, state).real
    second = expectation(op_matrix @ op_matrix, state).real
    return second - mean**2


def epr_variances_fock(state: StateLike, space: Optional[SpaceDescriptor] = None) -> EPRVariances:
    """Joint-quadrature variances of a Fock-basis state.

    Warns when the population of the boundary Fock layers exceeds 1e-3,
    since variances of a clipped state are unreliable.
    """
    space, st = _resolve_state(state, space)
    leak = truncation_leak(st, space)
    if leak > BOUNDARY_WARN_LIMIT:
        warnings.warn(
            f"boundary Fock population {leak:.2e} exceeds {BOUNDARY_WARN_LIMIT:g}; "
            "variances may be distorted by truncation",
            stacklevel=2,
        )
    x1, p1, x2, p2 = (op.matrix for op in quadrature_ops(space))
    v_x_minus = _variance(x1 - x2, st)
    v_x_plus = _variance(x1 + x2, st)
    v_p_minus = _variance(p1 - p2, st)
    v_p_plus = _variance(p1 + p2, st)
    duan = v_x_minus + v_p_plus
    return EPRVariances(
        v_x_minus=v_x_minus,
        v_x_plus=v_x_plus,
        v_p_minus=v_p_minus,
        v_p_plus=v_p_plus,
        duan_sum=duan,
        entangled=bool(duan < 1.0),
    )


def mean_photon(state: StateLike, mode: int, space: Optional[SpaceDescriptor] = None) -> float:
    space, st = _resolve_state(state, space)
    a = annihilation_op(space, mode)
    value = expectation((a.dagger() @ a).matrix, st)
    return float(value.real)


def truncation_leak(state: StateLike, space: Optional[SpaceDescriptor] = None) -> float:
    """Population outside the interior region n1 < N1-1 and n2 < N2-1."""
    space, st = _resolve_state(state, space)
    if isinstance(st, DensityMatrix):
        pops = np.diag(st.matrix).real
    elif st.ndim == 2:
        pops = np.diag(st).real
    else:
        pops = np.abs(st) ** 2
    pops = pops.reshape(space.shape)
    interior = pops[:, : space.n1_trunc - 1, : space.n2_trunc - 1].sum()
    total = pops.sum()
    return float(max(total - interior, 0.0))


def fidelity_to_tmsv(state: StateLike, epsilon: float, space: Optional[SpaceDescriptor] = None) -> float:
    """Overlap <psi_eps| rho |psi_eps> with the pure squeezed-vacuum target.

    This is the pure-target overlap convention, not its square root.
    """
    space, st = _resolve_state(state, space)
    target = tmsv_state_vector(space, epsilon, tail_limit=FIDELITY_TAIL_LIMIT)
    if isinstance(st, DensityMatrix):
        value = float(np.real(np.vdot(target, st.matrix @ target)))
    else:
        value = float(abs(np.vdot(target, st)) ** 2)
    return value


@dataclass(frozen=True)
class PreparationTime:
    """Pump-down time estimate: per-step time, starting occupation, and the
    two-step total."""

    t_step: float
    n_bar_initial: float
    t_total: float


def preparation_time(r: float, gamma: float, n_target: float = 0.1) -> PreparationTime:
    """Time for the pumped transformed mode to decay from its vacuum-start
    occupation r**2/(1-r**2) down to n_target, at rate gamma.

    The occupation decays exactly exponentially, so
    t_step = ln(n_bar_initial / n_target) / gamma.  The protocol needs one
    such step per transformed mode, hence t_total = 2*t_step.
    """
    if not 0.0 < r < 1.0:
        raise ValueError(f"r must lie strictly between 0 and 1, got {r}")
    if gamma <= 0.0:
        raise ValueError(f"gamma must be positive, got {gamma}")
    if n_target <= 0.0:
        raise ValueError(f"n_target must be positive, got {n_target}")
    n_bar = r**2 / (1.0 - r**2)
    if n_target >= n_bar:
        warnings.warn(
            f"target occupation {n_target:g} is not below the starting occupation "
            f"{n_bar:g}; nothing to pump",
            stacklevel=2,
        )
        return PreparationTime(t_step=0.0, n_bar_initial=n_bar, t_total=0.0)
    t_step = math.log(n_bar / n_target) / gamma
    return PreparationTime(t_step=t_step, n_bar_initial=n_bar, t_total=2.0 * t_step)


@dataclass(frozen=True)
class SqueezingReport:
    """Summary of how close a field state is to the squeezed-vacuum target.

    v_squeezed and v_antisqueezed average the two squeezed and the two
    antisqueezed joint-quadrature variances respectively.
    """

    epsilon_target: float
    v_squeezed: float
    v_antisqueezed: float
    duan_sum: float
    n1_mean: float
    n2_mean: float
    fidelity: float
    truncation_leak: float

    def to_json(self) -> dict:
        return asdict(self)


def squeezing_report(
    state: StateLike, epsilon_target: float, space: Optional[SpaceDescriptor] = None
) -> SqueezingReport:
    space, st = _resolve_state(state, space)
    epr = epr_variances_fock(st, space)
    return SqueezingReport(
        epsilon_target=float(epsilon_target),
        v_squeezed=0.5 * (epr.v_x_minus + epr.v_p_plus),
        v_antisqueezed=0.5 * (epr.v_x_plus + epr.v_p_minus),
        duan_sum=epr.duan_sum,
        n1_mean=mean_photon(st, 1, space),
        n2_mean=mean_photon(st, 2, space),
        fidelity=fidelity_to_tmsv(st, epsilon_target, space),
        truncation_leak=truncation_leak(st, space),
    )


def observable_matrices(space: SpaceDescriptor, squeeze: np.ndarray) -> tuple:
    """Matrices behind the standard recorder, in the squeezed frame rho_b = S rho S+.

    Returns (number_ops, combos, combo_squares) with tr(O rho) = tr(O_b rho_b):
    bare occupations n_a1, n_a2 and the four joint quadrature combinations
    conjugated once with the squeeze unitary S, and the combinations'
    squares.  The transformed occupations n_b1, n_b2 are the bare number
    operators, exactly, because b+b = S+ a+a S on the truncated space.
    """
    s_dag = squeeze.conj().T
    conj = lambda m: squeeze @ m @ s_dag
    number_ops = {}
    for mode in (1, 2):
        n = number_op(space, mode).matrix
        number_ops.update({f"n_a{mode}": conj(n), f"n_b{mode}": n})

    x1, p1, x2, p2 = (conj(op.matrix) for op in quadrature_ops(space))
    combos = {
        "v_x_minus": x1 - x2,
        "v_x_plus": x1 + x2,
        "v_p_minus": p1 - p2,
        "v_p_plus": p1 + p2,
    }
    combo_squares = {key: m @ m for key, m in combos.items()}
    return number_ops, combos, combo_squares


def recorder_from_matrices(number_ops: dict, combos: dict, combo_squares: dict) -> Callable[[StateLike], dict]:
    """Per-sample recorder: maps a state to the occupations n_a1, n_b1, n_a2,
    n_b2, the four joint-quadrature variances and the witness duan_sum,
    from the matrices observable_matrices returns."""
    def record(state: StateLike) -> dict:
        out = {}
        for key, op in number_ops.items():
            out[key] = expectation(op, state).real
        for key, m in combos.items():
            mean = expectation(m, state).real
            out[key] = expectation(combo_squares[key], state).real - mean**2
        out["duan_sum"] = out["v_x_minus"] + out["v_p_plus"]
        return out

    return record
