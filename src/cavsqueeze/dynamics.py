"""Time evolution engines.

Fourth-order Runge-Kutta propagation of state vectors under a
time-dependent Hamiltonian; the squeezed frame that the fock and collision
engines share; and the stochastic collision model, in which a Poisson
stream of two-level atoms pumps the transformed cavity mode with one
closed-form Kraus pair per atom.
"""

from __future__ import annotations

import math
import os
import warnings
from dataclasses import dataclass, field, replace
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .analysis import moment_records, moments, report_from_moments, symplectic_squeeze
from .hilbert import ChargeBlocks, DensityMatrix, Operator, SpaceDescriptor, split_charges
from .model import (
    DerivedParams,
    PhysicalParams,
    StarkShifts,
    derive_rates,
    squeeze_sectors,
    stark_shifts,
)

COUPLING_ERROR_LIMIT = 0.5
COUPLING_WARN_LIMIT = 0.2
ARRIVAL_RATE_LIMIT = 0.2
BOUNDARY_ERROR_LIMIT = 1e-3
MAX_STEPS = 10_000_000


@dataclass(frozen=True)
class Trajectory:
    """Sampled time evolution: times, named observable series, optional final state.

    final_state holds whatever state representation the producing engine
    uses (the squeezed-frame ChargeBlocks rho_b for the Fock engines,
    GaussianState for the covariance engine)."""

    times: np.ndarray
    records: dict
    final_state: Optional[object] = None
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        if times.ndim != 1:
            raise ValueError("times must be one-dimensional")
        if times.size > 1 and not np.all(np.diff(times) > 0):
            raise ValueError("times must be strictly increasing")
        records = {}
        for key, series in self.records.items():
            arr = np.asarray(series, dtype=float)
            if arr.shape != times.shape:
                raise ValueError(f"record {key!r} has length {arr.shape} != times {times.shape}")
            records[key] = arr
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "records", records)

    def to_csv(self, path) -> None:
        write_csv(path, ["t", *self.records], zip(self.times, *self.records.values()))


def write_csv(path, columns: Sequence[str], rows) -> None:
    """The CSV of every command: a header of the column names, then one
    line of ,-joined %.17g numbers per row, which round-trip exactly."""
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(f"{v:.17g}" for v in row) + "\n")


@dataclass(frozen=True)
class ArrivalProcess:
    """Poisson atom arrivals at the given rate, reproducible from the seed.

    The collision runner drops an arrival while an earlier atom is still
    inside the cavity and counts it; the cavity takes the next arrival after
    that atom has left.  A zero rate means no atoms ever arrive.
    """

    rate: float
    seed: int

    def __post_init__(self):
        if not math.isfinite(self.rate) or self.rate < 0.0:
            raise ValueError(f"rate must be finite and nonnegative, got {self.rate!r}")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed!r}")

    def sample(self, duration: float) -> np.ndarray:
        """Arrival times in [0, duration), strictly increasing."""
        if duration < 0:
            raise ValueError("duration must be nonnegative")
        if self.rate == 0.0 or duration == 0.0:
            return np.empty(0)
        rng = np.random.default_rng(self.seed)
        # draw in blocks until past the horizon; add.accumulate adds each
        # block's gaps to the last time one by one, as a running total does
        blocks = [np.zeros(1)]
        while blocks[-1][-1] < duration:
            gaps = rng.exponential(1.0 / self.rate, size=256)
            blocks.append(np.add.accumulate(np.append(blocks[-1][-1], gaps))[1:])
        times = np.concatenate(blocks[1:])
        return times[: np.searchsorted(times, duration)]


def propagate_state(
    h_of_t: Union[Operator, Callable[[float], Union[Operator, np.ndarray]]],
    psi0: np.ndarray,
    t_span: tuple,
    dt: float,
) -> np.ndarray:
    """Classical fourth-order Runge-Kutta on a state vector, renormalized
    each step.  Cheap path for pure-state runs on large spaces, where a
    dense propagator or density matrix is too expensive."""
    t0, t1 = float(t_span[0]), float(t_span[1])
    if t1 < t0:
        raise ValueError("t_span must be ordered")
    if dt <= 0:
        raise ValueError("dt must be positive")
    if isinstance(h_of_t, Operator):
        constant = h_of_t.matrix
        h_fn = lambda t: constant
    else:
        def h_fn(t):
            h = h_of_t(t)
            return h.matrix if isinstance(h, Operator) else h
    span = t1 - t0
    psi = np.asarray(psi0, dtype=complex).copy()
    if span == 0.0:
        return psi
    n_steps = max(1, math.ceil(span / dt))
    if n_steps > MAX_STEPS:
        raise ValueError(f"span {span:g} at dt {dt:g} needs {n_steps} steps; refusing")
    h = span / n_steps
    t = t0
    # H(t + h) of one step is H(t) of the next: t += h gives the same t
    h_start = h_fn(t)
    for _ in range(n_steps):
        k1 = -1j * (h_start @ psi)
        h_mid = h_fn(t + 0.5 * h)
        k2 = -1j * (h_mid @ (psi + 0.5 * h * k1))
        k3 = -1j * (h_mid @ (psi + 0.5 * h * k2))
        h_start = h_fn(t + h)
        k4 = -1j * (h_start @ (psi + h * k3))
        psi = psi + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        psi /= np.linalg.norm(psi)
        t += h
    return psi


def run_schedule(state, steps: Sequence, record: Callable) -> Trajectory:
    """Run pumping steps back to back and record the state at every sample.

    steps holds (times, advance) pairs: times from 0, and advance(state, i)
    carries the state to sample i, or past the last sample for
    i = len(times).  A later step's first sample repeats the previous
    step's last and is not recorded again.  Returns the Trajectory of the
    dicts record(state) returns, with the final state.
    """
    clock, rows, offset = [], [], 0.0
    for times, advance in steps:
        for i, t in enumerate(times):
            state = advance(state, i)
            if clock and i == 0:
                continue
            clock.append(t + offset)
            rows.append(record(state))
        state = advance(state, len(times))
        if len(times):
            offset = float(times[-1] + offset)
    records = {key: np.array([row[key] for row in rows]) for key in rows[0]} if rows else {}
    return Trajectory(times=np.array(clock), records=records, final_state=state)


def interval_advance(times: np.ndarray, duration: float, evolve: Callable) -> Callable:
    """advance for run_schedule that applies evolve(state, dt) over each
    interval between consecutive samples, and past the last sample up to
    duration (the whole step when it has only the sample at 0)."""
    def advance(state, i):
        if 0 < i < len(times):
            state = evolve(state, float(times[i] - times[i - 1]))
        elif i == len(times) and duration > times[-1]:
            state = evolve(state, float(duration - times[-1]))
        return state

    return advance


def _charge0_block(shape: tuple, sectors: Sequence, column: int) -> np.ndarray:
    """sum_k c_k c_k^T for c_k = block_k[:, column] over the given
    squeeze_sectors, as a charge-0 block of ChargeBlocks on the field grid
    shape: its entry for the sector's rows j and j' has d = n2[j'] - n2[j]."""
    out = np.zeros((2 * shape[1] - 1, *shape))
    for n1, n2, block in sectors:
        c = block[:, column]
        out[n2 - n2[:, None] + shape[1] - 1, n1[:, None], n2[:, None]] = np.outer(c, c)
    return out


def _squeezed_frame(rho0: Union[DensityMatrix, SpaceDescriptor], epsilon: float):
    """(rho_b, record, report) of run_in_squeezed_frame: record(rho_b)
    holds the boundary leak under "leak", next to the moment records."""
    space = rho0 if isinstance(rho0, SpaceDescriptor) else rho0.space
    if space.atom_levels != 1:
        raise ValueError("the squeezed frame expects a field-only initial state")
    sectors = squeeze_sectors(space, epsilon)
    to_bare = symplectic_squeeze(epsilon)
    # tr(S P S+ rho_b) = vdot(S P S+, rho_b) for the projector P on the
    # boundary layers; S keeps n1 - n2, so S P S+ has charge 0 only, and
    # on each sector it is c c^T for the S column c of its last state
    boundary = _charge0_block(space.shape[1:], sectors, -1)
    # rounding can take the trace of an empty boundary a little below 0
    leak = lambda rho: max(0.0, float(np.einsum("ijk,ijk->", boundary, rho.block(0).real)))
    bare = lambda mean, cov: (to_bare @ mean, to_bare @ cov @ to_bare.T)
    record = lambda rho: {"leak": leak(rho), **moment_records(*bare(*moments(rho)), epsilon)}
    # the squeezed vacuum S+|0,0> has fidelity <0,0|rho_b|0,0>
    fidelity = lambda rho: float(rho.diagonal(0, 0)[0, 0].real)
    report = lambda rho: report_from_moments(*bare(*moments(rho)), epsilon, fidelity(rho), leak(rho))

    if isinstance(rho0, SpaceDescriptor):
        # S|0,0> is the first column of sector 0, so rho_b has charge 0 only
        vacuum = _charge0_block(space.shape[1:], [sectors[space.n2_trunc - 1]], 0)
        return ChargeBlocks(np.zeros(1, int), vacuum[None] + 0j), record, report
    # S rho S+ with S_k applied to the rows of each sector, then to its columns
    rho = rho0.matrix.copy()
    cuts = [n1 * space.n2_trunc + n2 for n1, n2, _ in sectors]
    for cut, (_, _, block) in zip(cuts, sectors):
        rho[cut] = block @ rho[cut]
    for cut, (_, _, block) in zip(cuts, sectors):
        rho[:, cut] = rho[:, cut] @ block.T
    return split_charges(rho.reshape(space.shape[1:] * 2)), record, report


def _refuse_overflow(leak: float, t: float) -> None:
    if leak > BOUNDARY_ERROR_LIMIT:
        raise ValueError(f"truncation overflow at t={t:g}: boundary population {leak:.2e} > "
                         f"{BOUNDARY_ERROR_LIMIT:g}; increase the Fock truncation")


def run_in_squeezed_frame(rho0: Union[DensityMatrix, SpaceDescriptor], epsilon: float, steps) -> tuple:
    """Run pumping steps back to back in the squeezed frame rho_b = S rho S+
    from the DensityMatrix rho0, or from the vacuum of a SpaceDescriptor.

    b_j = S+ a_j S exactly on the truncated space, so there the transformed
    modes are bare and every pumping map acts on rho_b without S.  Those
    maps keep the charge of every entry, so rho_b is carried as the
    ChargeBlocks of the charges it occupies after the entry rotation; steps
    are run_schedule's (times, advance) pairs on them.  S is built once, as
    its (n1 - n2) sector blocks, and enters sector by sector; no N^2 x N^2
    array is made unless rho0 is one.  The run never leaves the frame:
    every sample and the SqueezingReport of the final rho_b are read from
    the moments of rho_b, taken to the bare modes by
    symplectic_squeeze(epsilon).  The a-frame boundary population
    truncation_leak(S+ rho_b S) is measured at every sample (its maximum
    goes to the diagnostics) and must not exceed BOUNDARY_ERROR_LIMIT on
    the final state.  Returns (Trajectory, SqueezingReport); final_state
    is rho_b.
    """
    rho_b, record, report = _squeezed_frame(rho0, epsilon)
    traj = run_schedule(rho_b, steps, record)
    records = dict(traj.records)
    leaks = records.pop("leak", [])
    final = report(traj.final_state)
    _refuse_overflow(final.truncation_leak, traj.times[-1] if traj.times.size else 0.0)
    diagnostics = {"max_truncation_leak": float(max(final.truncation_leak, *leaks))}
    return replace(traj, records=records, diagnostics=diagnostics), final


def transit_kraus_pair(d: DerivedParams, stark: Optional[StarkShifts], tau: float, shape: tuple):
    """Closed-form Kraus pair of one atom transit, in the squeezed frame.

    There the pumped mode j is bare, so the transit couples only |i, n>
    (i = g on channel b1, h on b2) with |o, n - e_j> (o the other level),
    under [[E_i, c], [c, E_o]] with c = -theta_b sqrt(n1) on b1 and
    +theta_b sqrt(n2) on b2 and E the light shifts of
    build_selective_hamiltonian (zero without stark).  Returns (stay, jump)
    on the Fock grid (N1, N2): <i|U|i> is diagonal with entries stay[n];
    <o|U|i> takes |n> to |n - e_j> with amplitude jump[n].
    """
    n1, n2 = np.indices(shape, dtype=float)
    e_g = e_h = dark = 0.0
    if stark is not None:
        e_g = stark.shift_g - stark.per_photon_1 * n1
        e_h = stark.per_photon_2 * n2 - stark.shift_h
        dark = stark.shift_g if d.channel == "b1" else -stark.shift_h
    if d.channel == "b1":
        c, e_in, e_out = -d.theta_b * np.sqrt(n1), e_g, e_h
    else:
        c, e_in, e_out = d.theta_b * np.sqrt(n2), e_h, e_g
    half = 0.5 * (e_in - e_out)
    omega = np.sqrt(half**2 + c**2)
    phase = np.exp(-1j * tau * (0.5 * (e_in + e_out) - dark))
    sin_over = tau * np.sinc(omega * tau / math.pi)  # sin(omega tau) / omega
    stay = phase * (np.cos(omega * tau) - 1j * half * sin_over)
    jump = -1j * phase * c * sin_over
    return stay, jump


def _accepted_counts(params: PhysicalParams, duration: float, arrivals: ArrivalProcess, sample_times):
    """(counts, dropped) of one drawn arrival stream under the drop rule:
    counts[i] atoms are accepted up to sample i, counts[-1] in the whole
    duration."""
    occupancy = arrivals.rate * params.tau
    if occupancy > ARRIVAL_RATE_LIMIT:
        raise ValueError(
            f"arrival rate violates the one-atom regime: r_a*tau = {occupancy:.3g} > "
            f"{ARRIVAL_RATE_LIMIT}"
        )
    accepted, dropped, busy_until = [], 0, -math.inf
    for t in arrivals.sample(duration):
        if t >= busy_until:
            accepted.append(t)
            busy_until = t + params.tau
        else:
            dropped += 1
    return np.append(np.searchsorted(accepted, sample_times, side="right"), len(accepted)), dropped


def _kraus_advance(shape, params: PhysicalParams, include_stark: bool, counts) -> Callable:
    """advance for run_schedule that applies one atom transit's Kraus pair
    until counts[i] atoms in all have passed: at sample i, and at the end of
    the step for i = len(counts) - 1 (the sample count)."""
    d = derive_rates(params)
    x = d.theta_b * params.tau
    if x >= COUPLING_ERROR_LIMIT:
        raise ValueError(f"theta_b*tau = {x:.3g} is outside the perturbative regime (< 0.5)")
    if x > COUPLING_WARN_LIMIT:
        warnings.warn(f"theta_b*tau = {x:.3g} above 0.2; collision kicks are large", stacklevel=3)

    stark = stark_shifts(params) if include_stark else None
    stay, jump = transit_kraus_pair(d, stark, params.tau, shape)
    # the jump lowers n_j and m_j of the pumped mode together, which keeps
    # each block entry's charge and d: entries with n_j >= 1 move one down
    # the n_j axis of the blocks
    axis = 2 if d.channel == "b1" else 3
    src = (slice(None),) * axis + (slice(1, None),)
    dst = (slice(None),) * axis + (slice(None, -1),)
    gathered = {}

    def pairs(rho):
        # the charges are conserved, so a run gathers the pair into block shape once per step
        key = rho.charges.tobytes()
        if key not in gathered:
            gathered[key] = rho.outer(stay, stay), rho.outer(jump, jump)[src]
        return gathered[key]

    steps = np.diff(counts, prepend=0)

    def advance(rho, i):
        if not steps[i]:
            return rho
        stay_pair, jump_pair = pairs(rho)
        blocks = rho.blocks
        for _ in range(steps[i]):
            new = stay_pair * blocks
            new[dst] += jump_pair * blocks[src]
            blocks = new
        return replace(rho, blocks=blocks)

    return advance


def run_collision_model(
    rho0: DensityMatrix,
    params: PhysicalParams,
    duration: float,
    arrivals: ArrivalProcess,
    include_stark: bool = False,
    sample_times: Optional[Sequence[float]] = None,
) -> Trajectory:
    """Stochastic single-run collision simulation of the pumping step.

    Atoms arrive as a Poisson stream, each enters in the ground level of the
    selected channel (g for channel b1, h for channel b2), interacts for
    params.tau under the single-channel Hamiltonian, and is discarded.
    Arrivals while an atom is still inside are dropped and counted.  By
    default the light-shift part of the Hamiltonian is absorbed into the
    frame (include_stark=False); setting it true keeps the shifts explicit.
    Each accepted atom applies the closed-form Kraus pair of
    transit_kraus_pair in the squeezed frame.

    Records bare and transformed occupations plus joint-quadrature variances
    at sample_times (default: 101 evenly spaced points).
    """
    sample_times = np.linspace(0.0, duration, 101) if sample_times is None else np.asarray(sample_times, float)
    counts, dropped = _accepted_counts(params, duration, arrivals, sample_times)
    advance = _kraus_advance(rho0.space.shape[1:], params, include_stark, counts)
    d = derive_rates(params)
    traj, _ = run_in_squeezed_frame(rho0, d.epsilon, [(sample_times, advance)])
    diagnostics = {"accepted_arrivals": int(counts[-1]), "dropped_arrivals": int(dropped), "channel": d.channel,
                   "atom_state": "g" if d.channel == "b1" else "h", "seed": arrivals.seed}
    return replace(traj, diagnostics={**diagnostics, **traj.diagnostics})


def _worker_count(requested: Optional[int]) -> int:
    if requested is not None:
        return max(1, int(requested))
    env = os.environ.get("CAVSQUEEZE_WORKERS", "").strip()
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            raise ValueError(f"CAVSQUEEZE_WORKERS must be an integer, got {env!r}") from None
    return min(4, os.cpu_count() or 1)


def run_collision_ensemble(
    rho0: DensityMatrix,
    params: PhysicalParams,
    duration: float,
    n_trajectories: int,
    master_seed: int,
    sample_times: Optional[Sequence[float]] = None,
) -> Trajectory:
    """Mean records of independent collision runs, read off one orbit.

    Trajectory i is run_collision_model's with ArrivalProcess(params.r_a,
    master_seed ^ i).  In the squeezed frame every accepted atom applies the
    same Kraus map Phi, so at a sample where trajectory i has accepted k
    atoms its state is Phi^k(rho_b).  The orbit is run once, over the
    distinct counts of all trajectories, and each trajectory's records and
    boundary leaks are read off it at its counts.  Records are the ensemble
    means; final_state is None.  A trajectory that ends above
    BOUNDARY_ERROR_LIMIT raises, as in run_collision_model.
    """
    if n_trajectories < 1:
        raise ValueError("n_trajectories must be at least 1")
    if master_seed < 0:
        raise ValueError(f"master_seed must be nonnegative, got {master_seed!r}")
    sample_times = np.linspace(0.0, duration, 101) if sample_times is None else np.asarray(sample_times, float)
    drawn = [_accepted_counts(params, duration, ArrivalProcess(params.r_a, master_seed ^ i), sample_times)
             for i in range(n_trajectories)]
    counts = np.array([c for c, _ in drawn])
    levels, at = np.unique(counts, return_inverse=True)
    at = at.reshape(counts.shape)
    d = derive_rates(params)
    advance = _kraus_advance(rho0.space.shape[1:], params, False, np.append(levels, levels[-1]))
    rho_b, record, _ = _squeezed_frame(rho0, d.epsilon)
    orbit = run_schedule(rho_b, [(levels, advance)], record).records
    leaks = orbit.pop("leak")[at]
    for leak in leaks[:, -1]:
        _refuse_overflow(leak, sample_times[-1] if sample_times.size else 0.0)
    records = {key: np.mean(series[at[:, :-1]], axis=0) for key, series in orbit.items()}
    diagnostics = {
        "n_trajectories": n_trajectories,
        "accepted_arrivals": int(counts[:, -1].sum()),
        "dropped_arrivals": sum(int(dropped) for _, dropped in drawn),
        "max_truncation_leak": float(leaks.max()),
        "channel": d.channel,
        "master_seed": master_seed,
    }
    return Trajectory(times=sample_times, records=records, diagnostics=diagnostics)
