"""Quadrature moments, the records and reports read from them, and figures of merit.

Quadratures use the convention X = (a + a+)/2, P = (a - a+)/(2i), so the
vacuum variance is 1/4.  The squeezed joint quadratures of the target state
are X1 - X2 and P1 + P2, each with variance exp(-2*epsilon)/2; their sum is
the entanglement witness used throughout (value 1 for vacuum, below 1 for
any entangled two-mode squeezed state).
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import asdict, dataclass
from typing import Callable, Optional, Union

import numpy as np

from .hilbert import (
    ChargeBlocks,
    DensityMatrix,
    SpaceDescriptor,
    annihilation_op,
    charge_sectors,
    elementwise,
    expectation,
    factor_blocks,
    number_op,
    plain,
)
from .model import SQUEEZE_LEAK_LIMIT, refuse_tail

TMSV_TAIL_LIMIT = 1e-6
BOUNDARY_WARN_LIMIT = 1e-3
SQUEEZE_PAIRS = np.array([[0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, -1.0], [1.0, 0.0, 0.0, 0.0], [0.0, -1.0, 0.0, 0.0]])

StateLike = Union[np.ndarray, DensityMatrix]


def _fock_state(state: StateLike, space: Optional[SpaceDescriptor]) -> tuple:
    """(space, F) of a Fock-basis state rho = F F+: a DensityMatrix's factor,
    or a raw state vector on the given space, unchecked, as the one column.
    A raw density matrix is refused: DensityMatrix(space, matrix) factors it."""
    if isinstance(state, DensityMatrix):
        return state.space, state.factor
    if space is None:
        raise ValueError("a raw state array needs an explicit space")
    psi = np.asarray(state, dtype=complex)
    if psi.shape != (space.dim,):
        raise ValueError(f"a raw state is a vector of length {space.dim}, got shape {psi.shape}; "
                         "wrap a density matrix in DensityMatrix(space, matrix)")
    return space, psi[:, None]


def tmsv_state_vector(
    s: SpaceDescriptor, epsilon: float, tail_limit: float = TMSV_TAIL_LIMIT
) -> np.ndarray:
    """Two-mode squeezed vacuum with amplitudes tanh(eps)**n / cosh(eps) on |n,n>.

    The truncation must keep the neglected tail mass tanh(eps)**(2N) within
    tail_limit (model.refuse_tail).  The truncated vector is renormalized.
    """
    if s.atom_levels != 1:
        raise ValueError("two-mode squeezed vacuum is a field-only state")
    refuse_tail(s, epsilon, tail_limit)
    n_min = min(s.n1_trunc, s.n2_trunc)
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


def _joint_variances(v: np.ndarray) -> dict:
    c = v.T  # c[j, i] is v[i, j] of one sample, or the series v[:, i, j] of a stack
    x, p, x_cross, p_cross = c[0, 0] + c[2, 2], c[1, 1] + c[3, 3], 2.0 * c[2, 0], 2.0 * c[3, 1]
    x_minus, p_plus = x - x_cross, p + p_cross
    return {"v_x_minus": x_minus, "v_x_plus": x + x_cross, "v_p_minus": p - p_cross, "v_p_plus": p_plus,
            "duan_sum": x_minus + p_plus}


@functools.lru_cache(maxsize=8)
def _band_table(charges: tuple, shape: tuple) -> tuple:
    """Read-only (block, row, weight) of band_sums; weight is 0 off the grid and on bands not held."""
    n1, n2 = np.indices(shape, dtype=float)
    # O|m> = weight[m] |m - (d1, d2)> for the eight operators O of band_sums
    bands = [((1, 0), np.sqrt(n1)), ((0, 1), np.sqrt(n2)), ((1, 1), np.sqrt(n1 * n2)),
             ((2, 0), np.sqrt(n1 * (n1 - 1.0))), ((0, 2), np.sqrt(n2 * (n2 - 1.0))),
             ((-1, 1), np.sqrt((n1 + 1.0) * n2)), ((0, 0), n1), ((0, 0), n2)]
    block, row, table = np.zeros(8, int), np.zeros(8, int), np.zeros((8, *shape))
    for k, ((d1, d2), weight) in enumerate(bands):
        # rho[n1, n2, n1 - d1, n2 - d2] is row N2 - 1 - d2 of the block of charge d1 - d2
        if d1 - d2 in charges and abs(d2) < shape[1]:
            m = tuple(slice(max(d, 0), n + min(d, 0)) for d, n in zip((d1, d2), shape))
            block[k], row[k], table[k][m] = charges.index(d1 - d2), shape[1] - 1 - d2, weight[m]
    for array in (block, row, table):
        array.flags.writeable = False
    return block, row, table


def band_sums(rho: ChargeBlocks) -> np.ndarray:
    """<a1>, <a2>, <a1 a2>, <a1^2>, <a2^2>, <a1+ a2>, <a1+ a1> and <a2+ a2> in rho, off their bands in the
    blocks of charge 0, +-1 and +-2 with the elements of the untruncated ladder operators: one gather
    and one contraction, both cached per charges and grid; no N^2 x N^2 operator is built."""
    block, row, weight = _band_table(tuple(rho.charges.tolist()), rho.blocks.shape[2:])
    return np.einsum("kij,kij->k", rho.blocks[block, row], weight)


def band_moments(bands: np.ndarray) -> tuple:
    """Mean and covariance V_ij = <{dR_i, dR_j}>/2 (vacuum I/4) of R = (X1, P1, X2, P2) from the band_sums
    of a state, or of states stacked on its leading axes: [a, a+] = 1 restores symmetric order, so they
    are the exact moments of the physical quadratures in the state held."""
    b = np.concatenate([bands, np.conj(bands[..., 5:6])], axis=-1)
    a = b[..., :2]
    # centred <a_j a_k> and <a_j+ a_k>
    aa = b[..., [[3, 2], [2, 4]]] - a[..., :, None] * a[..., None, :]
    ada = b[..., [[6, 5], [8, 7]]] - a.conj()[..., :, None] * a[..., None, :]
    # X = (a + a+)/2, P = (a - a+)/2i and a a+ = a+ a + 1
    cov = np.empty((*a.shape[:-1], 4, 4))
    cov[..., 0::2, 0::2] = 0.5 * (aa + ada).real + 0.25 * np.eye(2)
    cov[..., 1::2, 1::2] = 0.5 * (ada - aa).real + 0.25 * np.eye(2)
    cov[..., 0::2, 1::2] = 0.5 * (aa + ada).imag
    cov[..., 1::2, 0::2] = np.swapaxes(cov[..., 0::2, 1::2], -1, -2)
    return np.stack([a.real, a.imag], axis=-1).reshape(*a.shape[:-1], 4), cov


def _fock_moments(state: StateLike, space: Optional[SpaceDescriptor]) -> tuple:
    """(mean, cov, truncation_leak) of a field-only Fock-basis state; warns
    when the boundary Fock layers hold more than 1e-3, where the state has
    likely been clipped."""
    space, factor = _fock_state(state, space)
    if space.atom_levels != 1:
        raise ValueError("quadrature moments are taken of a field-only state")
    leak = truncation_leak(state, space)
    if leak > BOUNDARY_WARN_LIMIT:
        warnings.warn(
            f"boundary Fock population {leak:.2e} exceeds {BOUNDARY_WARN_LIMIT:g}; "
            "variances may be distorted by truncation",
            stacklevel=3,
        )
    # band_sums reads the blocks of charge -2 .. 2 only, which the sector pairs of F give without F F+
    rho = factor_blocks(factor.reshape(*space.shape[1:], -1), charge_sectors(*space.shape[1:]), np.arange(-2, 3))
    return (*band_moments(band_sums(rho)), leak)


def epr_variances_fock(state: StateLike, space: Optional[SpaceDescriptor] = None) -> dict:
    """The joint-quadrature variance records of a Fock-basis state, from its
    moments: v_x_minus = V(X1 - X2), v_x_plus, v_p_minus, v_p_plus = V(P1 + P2)
    and duan_sum = v_x_minus + v_p_plus (entangled below 1), as in
    moment_records.  Warns when the boundary Fock layers hold more than 1e-3."""
    return {key: float(v) for key, v in _joint_variances(_fock_moments(state, space)[1]).items()}


def _photon_numbers(mean: np.ndarray, cov: np.ndarray) -> tuple:
    """<a1+ a1> and <a2+ a2> from the quadrature moments (squared by C pow, the records' rounding)."""
    c, square = cov.T, np.float_power(mean, 2).T
    return tuple(c[i, i] + c[i + 1, i + 1] + square[i] + square[i + 1] - 0.5 for i in (0, 2))


def symplectic_squeeze(epsilon) -> np.ndarray:
    """Quadrature action of the two-mode squeeze: X1 -> cosh X1 + sinh X2 etc.

    Satisfies S Omega S^T = Omega and maps the vacuum covariance to the
    gaussian_tmsv(epsilon) covariance.  The moments of rho are this matrix
    applied to those of the squeezed-frame state S rho S+; cosh I + sinh SQUEEZE_PAIRS per entry of an array epsilon.
    """
    c, s = (elementwise(f, epsilon)[..., None, None] for f in (math.cosh, math.sinh))
    return c * np.eye(4) + s * SQUEEZE_PAIRS


def squeeze_moments(mean: np.ndarray, cov: np.ndarray, epsilon) -> tuple:
    """(S mean, S cov S^T) for S = symplectic_squeeze(epsilon), stackable; S(0) = I returns them as given."""
    if not np.any(epsilon):
        return mean, cov
    s = symplectic_squeeze(epsilon)
    return (s @ mean[..., None])[..., 0], s @ cov @ np.swapaxes(s, -1, -2)


def transmissivities(gamma, t, mode: int) -> np.ndarray:
    """The attenuate pair (eta1, eta2) of pumping bare mode 1 or 2 at rate gamma for t, per element
    of gamma t, on a last axis: exp(-gamma t) through math.exp, the one rounding of every pump and
    the sweep (numpy's vectorized exp differs in the last place), and 1 on the other mode."""
    return np.where(np.arange(1, 3) == mode, elementwise(math.exp, -gamma * t)[..., None], 1.0)


def attenuate(mean: np.ndarray, cov: np.ndarray, eta: np.ndarray) -> tuple:
    """Moments after the attenuators R -> sqrt(eta_j) R + sqrt(1 - eta_j) R_env of bare modes j = 1, 2
    (vacuum environment), for the pair (eta1, eta2) on eta's last axis, stackable; exact at eta = 1."""
    scale = np.repeat(eta, 2, axis=-1)
    keep = np.sqrt(scale)
    return keep * mean, cov * (keep[..., :, None] * keep[..., None, :]) + 0.25 * (1.0 - scale)[..., None] * np.eye(4)


def pumped_moments(mean: np.ndarray, cov: np.ndarray, frame, eta: np.ndarray, epsilon) -> tuple:
    """(mean, cov, frame) of moments held in the squeezed frame of frame after attenuate(eta), stackable.
    A pumped reading moves first to the frame of epsilon, where pumping a transformed mode is damping a
    bare one; a reading no pump has moved (eta = (1, 1)) keeps its frame and its digits, so the vacuum
    reads exactly 0 photons and duan_sum 1."""
    to = np.where(np.all(eta == 1.0, axis=-1), frame, epsilon)
    return (*attenuate(*squeeze_moments(mean, cov, frame - to), eta), plain(to))


def moment_records(mean: np.ndarray, cov: np.ndarray, epsilon, frame=0.0) -> dict:
    """Per-sample records of every engine, in the CSV column order, of moments held in the
    squeezed frame of frame (0: bare): n_a1, n_b1, n_a2, n_b2 (n_bj in the frame of epsilon),
    and the joint-quadrature variances and duan_sum, which S(frame) scales by exp(-+2 frame).
    The moments may stack samples on a first axis, with an epsilon and frame per sample."""
    (n_a1, n_a2), (n_b1, n_b2) = (_photon_numbers(*squeeze_moments(mean, cov, f)) for f in (frame, frame - epsilon))
    grow = elementwise(math.exp, 2.0 * frame)
    joint = {key: v * grow**sign for (key, v), sign in zip(_joint_variances(cov).items(), (-1, 1, 1, -1, -1))}
    return {"n_a1": n_a1, "n_b1": n_b1, "n_a2": n_a2, "n_b2": n_b2, **joint}


def truncation_leak(state: StateLike, space: Optional[SpaceDescriptor] = None) -> float:
    """Population outside the interior region n1 < N1-1 and n2 < N2-1."""
    space, factor = _fock_state(state, space)
    pops = (np.abs(factor) ** 2).sum(1).reshape(space.shape)
    interior = pops[:, : space.n1_trunc - 1, : space.n2_trunc - 1].sum()
    total = pops.sum()
    return float(max(total - interior, 0.0))


def fidelity_to_tmsv(state: StateLike, epsilon: float, space: Optional[SpaceDescriptor] = None) -> float:
    """Overlap <psi_eps| rho |psi_eps> with the pure squeezed-vacuum target.

    This is the pure-target overlap convention, not its square root.
    """
    space, factor = _fock_state(state, space)
    target = tmsv_state_vector(space, epsilon, tail_limit=SQUEEZE_LEAK_LIMIT)
    return float(np.sum(np.abs(target.conj() @ factor) ** 2))


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
    t_step = ln(n_bar_initial / n_target) / gamma, and 0 (with a warning)
    where n_target is not below n_bar_initial.  The protocol needs one such
    step per transformed mode, hence t_total = 2*t_step.  r and gamma may be
    same-shape arrays, one point per element.
    """
    if not np.all((0.0 < r) & (r < 1.0)):
        raise ValueError(f"r must lie strictly between 0 and 1, got {r}")
    if np.any(gamma <= 0.0):
        raise ValueError(f"gamma must be positive, got {gamma}")
    if n_target <= 0.0:
        raise ValueError(f"n_target must be positive, got {n_target}")
    square = elementwise(math.pow, r, 2.0)
    n_bar = square / (1.0 - square)
    idle = n_target >= n_bar
    if np.any(idle):
        warnings.warn(
            f"target occupation {n_target:g} is not below the starting occupation "
            f"{np.max(n_bar[idle]):g}; nothing to pump",
            stacklevel=2,
        )
    # n_bar / n_target <= 1 exactly where idle, and log(1) = 0; a gamma too small
    # for a finite time gives inf, as float division does, for the caller to refuse
    with np.errstate(over="ignore"):
        t_step = elementwise(math.log, np.maximum(n_bar / n_target, 1.0)) / gamma
        return PreparationTime(t_step=plain(t_step), n_bar_initial=plain(n_bar), t_total=plain(2.0 * t_step))


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


def report_from_records(row: dict, epsilon_target: float, fidelity: float, leak: float) -> SqueezingReport:
    """SqueezingReport of a state from its row of moment_records, its
    fidelity to the target and its boundary population."""
    rec = {key: float(v) for key, v in row.items()}
    return SqueezingReport(
        epsilon_target=float(epsilon_target),
        v_squeezed=0.5 * (rec["v_x_minus"] + rec["v_p_plus"]),
        v_antisqueezed=0.5 * (rec["v_x_plus"] + rec["v_p_minus"]),
        duan_sum=rec["duan_sum"],
        n1_mean=rec["n_a1"],
        n2_mean=rec["n_a2"],
        fidelity=fidelity,
        truncation_leak=float(leak),
    )


def squeezing_report(
    state: StateLike, epsilon_target: float, space: Optional[SpaceDescriptor] = None
) -> SqueezingReport:
    """SqueezingReport of a Fock-basis state, from the moment_records of its moments."""
    mean, cov, leak = _fock_moments(state, space)
    fidelity = fidelity_to_tmsv(state, epsilon_target, space)
    return report_from_records(moment_records(mean, cov, epsilon_target), epsilon_target, fidelity, leak)


def observable_matrices(space: SpaceDescriptor, squeeze: np.ndarray) -> tuple:
    """Dense reference for the frame records, in the squeezed frame rho_b = S rho S+.

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
    """Dense reference recorder: maps a state to the moment_records keys by
    traces against the N^2 x N^2 truncated-space matrices that
    observable_matrices returns."""
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
