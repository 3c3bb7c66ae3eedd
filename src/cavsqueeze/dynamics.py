"""Time evolution engines.

Every engine runs one driver, run_steps: a pumping step is the pair (times,
advance), and advance(state, read) returns the step's readings and its end
state.  The fock and collision engines enter through the squeezed frame they
share, where a pump is the attenuator of a bare mode: a fock step reads every
sample as the state it starts in with the sample's transmissivities, and damps
once, as gaussian_frame does on the moments.  The collision model's step,
made by transit_map, walks the atom counts of its Poisson stream, and the
ensemble walks the distinct counts of all its streams as one such step
through the same driver: each atom applies one closed-form Kraus pair, so c
atoms are the c-th power of one transit kernel along the pumped mode, which
ChargeBlocks.along applies as it applies the damping kernel.  The walk holds
the state every TRANSIT_BLOCK atoms and reads the samples between off it, the
power's band rows and boundary overlap with no product of their own.
Fourth-order Runge-Kutta propagates state vectors of the three-level model.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .analysis import (_band_table, attenuate, band_moments, band_sums, moment_records, report_from_records,
                       transmissivities)
from .hilbert import DensityMatrix, factor_blocks, is_integer, sector_pairs
from .model import OCCUPANCY_LIMIT, DerivedParams, PhysicalParams, derive_rates, squeeze_sectors

COUPLING_ERROR_LIMIT = 0.5
BOUNDARY_ERROR_LIMIT = 1e-3
MAX_STEPS = 10_000_000
# atoms between the states a collision walk holds (transit_map): one product per 16 atoms moves
# the held state, and a step keeps 16 kernel powers of 17 diagonals each
TRANSIT_BLOCK = 16


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Sampled time evolution: times, named observable series, optional final state.

    It holds its runner's float arrays as built; the runners check a caller's clock.
    final_state holds whatever state representation the producing engine
    uses (the squeezed-frame ChargeBlocks rho_b for the Fock engines,
    GaussianState for the covariance engine)."""

    times: np.ndarray
    records: dict
    final_state: Optional[object] = None
    diagnostics: dict = field(default_factory=dict)

    def to_csv(self, path) -> None:
        write_csv(path, ["t", *self.records], zip(self.times, *self.records.values()))


def write_csv(path, columns: Sequence[str], rows) -> None:
    """The CSV of every command: a header of the column names, then one
    line of ,-joined %.17g numbers per row, which round-trip exactly."""
    line = ",".join(["%.17g"] * len(columns)) + "\n"
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(columns) + "\n")
        fh.writelines(line % tuple(row) for row in rows)


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
        if not is_integer(self.seed):
            raise ValueError(f"seed must be an integer, got {self.seed!r}")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed!r}")

    def sample(self, duration: float) -> np.ndarray:
        """Arrival times in [0, duration), strictly increasing."""
        check_duration(duration)
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
    h_of_t: Callable[[float], np.ndarray],
    psi0: np.ndarray,
    t_span: tuple,
    dt: float,
) -> np.ndarray:
    """Classical fourth-order Runge-Kutta on a state vector, renormalized
    each step.  Cheap path for pure-state runs on large spaces, where a
    dense propagator or density matrix is too expensive.

    h_of_t is a callable returning H(t) as an array.  The span, dt and
    psi0 are checked once, before the first step: all must be finite,
    psi0 nonzero and as long as H is wide.

    Each step evaluates H twice, at the midpoint and the end, and keeps the
    end's H as the next step's start, so h_of_t must return an array no later
    call overwrites (build_full_hamiltonian returns a fresh one).  psi0 and
    every H are only read: the stages are formed in place in five buffers
    allocated once per call, and the returned state is a new array.
    """
    t0, t1 = float(t_span[0]), float(t_span[1])
    if not (math.isfinite(t0) and math.isfinite(t1)):
        raise ValueError(f"t_span must be finite, got ({t0!r}, {t1!r})")
    if t1 < t0:
        raise ValueError("t_span must be ordered")
    if not (math.isfinite(dt) and dt > 0):
        raise ValueError(f"dt must be positive and finite, got {dt!r}")
    psi = np.array(psi0, dtype=complex)
    if not np.all(np.isfinite(psi)):
        raise ValueError("psi0 must be finite")
    if not np.any(psi):
        raise ValueError("psi0 must be nonzero")
    h_start = h_of_t(t0)
    if psi.shape != h_start.shape[-1:]:
        raise ValueError(f"psi0 has shape {psi.shape} but H has dimension {h_start.shape[-1]}")
    span = t1 - t0
    if span == 0.0:
        return psi
    n_steps = max(1, math.ceil(span / dt))
    if n_steps > MAX_STEPS:
        raise ValueError(f"span {span:g} at dt {dt:g} needs {n_steps} steps; refusing")
    h = span / n_steps
    # -i h and -i h/2 scale the products H psi, so the k below are H psi without the -i
    full, half = -1j * h, -0.5j * h
    k1, k2, k3, k4, stage = (np.empty_like(psi) for _ in range(5))
    t = t0
    # H(t + h) of one step is H(t) of the next: t += h gives the same t
    for _ in range(n_steps):
        h_start.dot(psi, out=k1)
        h_mid = h_of_t(t + 0.5 * h)
        np.multiply(k1, half, out=stage)
        stage += psi
        h_mid.dot(stage, out=k2)
        np.multiply(k2, half, out=stage)
        stage += psi
        h_mid.dot(stage, out=k3)
        h_start = h_of_t(t + h)
        np.multiply(k3, full, out=stage)
        stage += psi
        h_start.dot(stage, out=k4)
        # k1 + 2 (k2 + k3) + k4, accumulated in place
        k2 += k3
        k2 *= 2.0
        k1 += k2
        k1 += k4
        k1 *= full / 6.0
        psi += k1
        psi /= math.sqrt(np.vdot(psi, psi).real)
        t += h
    return psi


def squeezed_frame(rho0: DensityMatrix, epsilon: float) -> tuple:
    """(entry, pump): the entry (rho_b, read, tabulate, report) of run_steps
    in the squeezed frame rho_b = S rho S+ of the DensityMatrix rho0, and
    the frame's pump step.

    b_j = S+ a_j S exactly on the truncated space, so there the transformed
    modes are bare and every pumping map acts on rho_b without S.  Those
    maps keep the charge of every entry, so rho_b is carried as the
    ChargeBlocks of the charges it occupies.  S is built once, as its
    (n1 - n2) sector blocks.  Every state enters through its factor F,
    rho = F F+ (one column for a state of from_state_vector), in
    factor_blocks: S F turns on the sectors F occupies, and sector_pairs
    writes the sector pairs that share a column of F.  S, the damping and
    the transit kernel are real, so rho_b is held in its entry's dtype:
    float64 when F has an imaginary part exactly 0 (the vacuum of every
    run), entered as the view F.real, else complex128.  No N^2 x N^2 array
    is made beyond a matrix given as one.  A reading of rho_b is its
    band_sums, through one band table per run, the attenuate pair a pump has
    applied since ((1, 1) from read) and its a-frame boundary population
    truncation_leak(S+ rho_b S), the overlap with S P S+ that sector_pairs
    writes as the pairs (k, k) of each sector's last S column.
    read(rho_b, mode, kernels, band, which) gives
    the readings of the states rho_b.along(mode, k) for the kernels
    kernels[which] kept as their upper bands, stacked, without making those
    states: the transit walk's samples.  tabulate attenuates the moments of the stacked
    band_sums, held in the frame of epsilon, and reads their records there in
    one pass.  pump(d, duration, times) is the run_steps step that pumps the
    transformed mode of d's channel at d.gamma, here ChargeBlocks.damped of the
    bare mode: each sample is the state the step starts in with the sample's
    transmissivities and damped_overlaps leak, and the step damps it once.
    """
    space = rho0.space
    if space.atom_levels != 1:
        raise ValueError("the squeezed frame expects a field-only initial state")
    sectors = squeeze_sectors(space, epsilon)
    # tr(S P S+ rho_b) = vdot(S P S+, rho_b) for the projector P on the
    # boundary layers; S keeps n1 - n2, so S P S+ has charge 0 only, and
    # on each sector it is c c^T for the real S column c of its last state
    ends = {k: block[:, -1:] for k, (_, _, block) in enumerate(sectors)}
    boundary = sector_pairs(sectors, np.eye(len(sectors), dtype=bool), ends, space.shape[1:]).block(0)
    # rounding can take the trace of an empty boundary a little below 0
    leak = lambda rho: max(0.0, float(np.einsum("ijk,ijk->", boundary, rho.block(0).real)))
    unpumped = np.ones(2)  # a read state's attenuate pair, one array for every read of the run

    def read(rho, mode=None, kernels=None, band=None, which=()):
        if kernels is None:
            return band_sums(rho), unpumped, leak(rho)
        # the readings of rho.along(mode, k) for the kernels k = kernels[which], each kept as its upper
        # band k[..., band], with no product of rho: along_rows makes the rows of the bands held, and the
        # leak is <k, gram> over the band
        charges, n = tuple(rho.charges.tolist()), rho.blocks.shape[1 + mode]
        block, row, weight = _band_table(charges, rho.blocks.shape[2:])
        held = np.flatnonzero(weight.any((1, 2)))  # a band not held reads 0, as in band_sums
        block, row = block[held], row[held]
        kernels = np.broadcast_to(kernels, (len(kernels), len(charges), *kernels.shape[2:]))  # one per charge
        rows = np.zeros((len(which), held.size, n, n))
        rows.reshape(len(which), held.size, -1)[..., band] = kernels[np.reshape(which, (-1, 1)), block, row]
        bands = np.zeros((len(which), 8), complex)
        bands[:, held] = np.einsum("rkij,kij->rk", rho.along_rows(mode, rows, block, row), weight[held])
        gram = rho.gram(boundary, mode).reshape(-1, n * n)[:, band]
        leaks = kernels[:, charges.index(0)].reshape(len(kernels), -1) @ gram.ravel()
        return bands, [unpumped] * len(which), np.maximum(leaks[which], 0.0)

    def pump(d, duration, times):
        mode = 1 if d.channel == "b1" else 2
        etas = transmissivities(d.gamma, times, mode)

        def advance(rho, read):
            bands = band_sums(rho)
            leaks = np.maximum(rho.damped_overlaps(boundary, mode, etas[:, mode - 1]), 0.0)
            rows = [(bands, eta, leak) for eta, leak in zip(etas, leaks)]
            end = rho.damped(mode, transmissivities(d.gamma, duration, mode)[mode - 1])
            if times[-1] == duration:
                rows[-1] = read(end)  # a sample at the step's end reads the state there, as the report does
            return rows, end

        return times, advance

    tabulate = lambda bands, eta: moment_records(*attenuate(*band_moments(bands), eta), epsilon, epsilon)
    # the squeezed vacuum S+|0,0> has fidelity <0,0|rho_b|0,0>, in the charge-0 block at [N2 - 1, 0, 0]
    fidelity = lambda rho: float(rho.block(0)[space.n2_trunc - 1, 0, 0].real)
    report = lambda row, rho, final_leak: report_from_records(row, epsilon, fidelity(rho), final_leak)

    factor = rho0.factor.reshape(*space.shape[1:], -1)
    real = np.isrealobj(factor) or not np.any(factor.imag)  # a real F's .imag would be a new array of zeros
    return (factor_blocks(factor.real if real else factor, sectors), read, tabulate, report), pump


def _refuse_overflow(leak: float, t: float) -> None:
    """Refuse the state a run ends in at time t when its boundary leak exceeds BOUNDARY_ERROR_LIMIT."""
    if leak > BOUNDARY_ERROR_LIMIT:
        raise ValueError(f"truncation overflow at t={t:g}: boundary population {leak:.2e} > "
                         f"{BOUNDARY_ERROR_LIMIT:g}; increase the Fock truncation")


def run_steps(entry: tuple, steps: Sequence) -> tuple:
    """The one driver of every run: pumping steps back to back from entry =
    (state, read, tabulate, report), the squeezed_frame of the fock and
    collision engines or the gaussian_frame of the moments, read at every
    sample and, last, at the final state.

    steps holds (times, advance) pairs: times from 0, and advance(state,
    read) returns the tuples read gives at each of times and the state at
    the end of the step.  A later step's first sample repeats the previous
    step's last; its reading is dropped.  A reading ends with the boundary
    leak; tabulate makes the records of the rest, stacked, in one pass, and
    report(row, state, leak) the SqueezingReport from the final state's
    row, which its runner refuses at its end time (_refuse_overflow).
    Returns (times, table, final state, SqueezingReport, leaks): the sample
    clock, the records of every reading with the final state's row last,
    and every reading's leak, so a run's samples are all rows but the last.
    """
    state, read, tabulate, report = entry
    clock, rows, offset = [], [], 0.0
    for times, advance in steps:
        readings, state = advance(state, read)
        rows.extend(readings[bool(clock):])
        clock.extend(t + offset for t in times[bool(clock):])
        offset += float(times[-1]) if len(times) else 0.0
    rows.append(read(state))
    *readings, leaks = map(np.array, zip(*rows))
    table = tabulate(*readings)
    final = report({key: series[-1] for key, series in table.items()}, state, leaks[-1])
    return np.array(clock), table, state, final, leaks


def transit_kraus_pair(d: DerivedParams, tau: float, n: int) -> tuple:
    """Closed-form Kraus pair of one atom transit, in the squeezed frame, at the pumped mode's photon
    numbers 0 ... n - 1.

    There the pumped mode j is bare and the light shifts are absorbed into the frame, so the
    transit couples only |i, n> (i = g on channel b1, h on b2) with |o, n - e_j> (o the other
    level), at the rate omega = theta_b sqrt(n_j) of build_selective_hamiltonian's flip term.
    Returns the real (stay, jump): <i|U|i> is diagonal with entries stay[n_j] = cos(omega tau);
    <o|U|i> takes |n> to |n - e_j> with amplitude phase * jump[n_j], where jump = sin(omega tau),
    formed as omega tau sinc(omega tau / pi), and the phase is +i on b1 and -i on b2.  The phase
    cancels in every product K rho K+ the walk makes.
    """
    omega = d.theta_b * np.sqrt(np.arange(n, dtype=float))
    return np.cos(omega * tau), omega * (tau * np.sinc(omega * tau / math.pi))


def check_duration(duration) -> None:
    """Refuse a duration, or any element of an array of them, that is not finite and nonnegative."""
    bad = [t for t in np.ravel(duration).tolist() if not 0.0 <= t < math.inf]
    if bad:
        raise ValueError(f"duration must be finite and nonnegative, got {bad[0]!r}")


def sample_clock(duration: float, sample_times: Optional[Sequence[float]] = None, samples: int = 101) -> np.ndarray:
    """The sample clock of a run or step over [0, duration]: the caller's
    sample_times, one-dimensional, strictly increasing and inside [0,
    duration], or samples evenly spaced points (one, at 0, when duration is 0)."""
    check_duration(duration)
    if sample_times is None:
        return np.linspace(0.0, duration, samples if duration else 1)
    times = np.asarray(sample_times, float)
    if times.ndim != 1 or not np.all(np.diff(times) > 0):
        raise ValueError("sample_times must be one-dimensional and strictly increasing")
    if times.size and not 0.0 <= times[0] <= times[-1] <= duration:
        raise ValueError("sample_times must lie in [0, duration]")
    return times


def _accepted_counts(params: PhysicalParams, duration: float, arrivals: ArrivalProcess, sample_times):
    """(counts, dropped) of one drawn arrival stream under the drop rule:
    counts[i] atoms are accepted up to sample i, counts[-1] in the whole
    duration."""
    occupancy = arrivals.rate * params.tau
    if occupancy > OCCUPANCY_LIMIT:
        raise ValueError(
            f"arrival rate violates the one-atom regime: r_a*tau = {occupancy:.3g} > "
            f"{OCCUPANCY_LIMIT}"
        )
    times = arrivals.sample(duration)
    # an arrival at or after its predecessor's time + tau is accepted whatever came before: the last
    # accepted time is at most the predecessor's, and rounding keeps their order after adding tau
    accepted = np.append(True, times[1:] >= times[:-1] + params.tau)[:times.size]
    t, busy_until = times.tolist(), -math.inf
    for i in np.flatnonzero(~accepted).tolist():  # the rest, one by one, in order
        if accepted[i - 1]:  # i is dropped: the atom accepted at i - 1 is inside until busy_until
            busy_until = t[i - 1] + params.tau
        elif t[i] >= busy_until:
            accepted[i], busy_until = True, t[i] + params.tau
    kept = times[accepted]
    return np.append(np.searchsorted(kept, sample_times, side="right"), kept.size), times.size - kept.size


def _transit_kernel(stay: np.ndarray, jump: np.ndarray, shift: np.ndarray) -> np.ndarray:
    """M_e of one transit along the pumped mode's axis of a block row, for each row shift e of shift:
    upper bidiagonal, stay[n] stay[n + e] on the diagonal and jump[n + 1] jump[n + 1 + e] above it,
    zero where the column n + e is off the grid, for the real pair of transit_kraus_pair."""
    n = stay.size
    far = np.arange(n) + shift[..., None]
    on, at = (far >= 0) & (far < n), np.clip(far, 0, n - 1)
    kernel = np.zeros((*shift.shape, n, n))
    i = np.arange(n)
    kernel[..., i, i] = np.where(on, stay * stay[at], 0.0)
    kernel[..., i[:-1], i[1:]] = np.where(on[..., 1:], jump[1:] * jump[at[..., 1:]], 0.0)
    return kernel


def transit_map(shape, params: PhysicalParams) -> Callable:
    """The step maker of a collision run: step(times, counts) is the run_steps step that reads at
    sample i the state after counts[i] atom transits, for nondecreasing counts, and ends at the
    state after counts[-1], each transit the Kraus pair of transit_kraus_pair.

    The pair is a function of the pumped mode's photon number alone, and one transit is the real
    kernel M_e of _transit_kernel along that mode's axis (ChargeBlocks.along), so c transits are
    M_e^c.  The step's walk holds the state X at each multiple of TRANSIT_BLOCK atoms, one product
    from the last, and the state after c atoms is M_e^r X, r = c mod TRANSIT_BLOCK.
    The counts that share X are read off it in one read of the squeezed frame, each power r once,
    and none is made; r = 0 reads X, and a count at the end reads the end state, the one product
    after the last X.  Each band row read is the product along makes on that row, so the band
    sums at a count have the same bits however the walk reached it, which keeps an ensemble's
    orbit bitwise equal to its single runs; the leak <M_e^r, G> matches the end state's to
    rounding.  A step's powers are built once, by successive products, and freed when the step
    ends."""
    d = derive_rates(params)
    x = d.theta_b * params.tau
    if x >= COUPLING_ERROR_LIMIT:
        raise ValueError(f"theta_b*tau = {x:.3g} is outside the perturbative regime (< 0.5)")

    mode = 1 if d.channel == "b1" else 2
    stay, jump = transit_kraus_pair(d, params.tau, shape[mode - 1])

    def walk(rho, counts, end, read):
        shift = rho.shifts(mode)
        kernel = _transit_kernel(stay, jump, shift)
        # M_e^k is upper triangular with k diagonals above the main one, so each power up to the
        # step's end count, at most TRANSIT_BLOCK, is kept as its first TRANSIT_BLOCK + 1
        # diagonals and written into the zeroed kernel array to apply
        row, column = np.triu_indices(kernel.shape[-1])
        band = (row * kernel.shape[-1] + column)[column - row <= TRANSIT_BLOCK]
        flat = kernel.reshape(*shift.shape, -1)
        powers, power = np.empty((min(end, TRANSIT_BLOCK), *flat.shape[:-1], band.size)), kernel
        for k in range(len(powers)):
            power = power if k == 0 else kernel @ power
            powers[k] = power.reshape(flat.shape)[..., band]
        del power
        flat[...] = 0.0

        def transits(state, k):
            flat[..., band] = powers[k - 1]
            return state.along(mode, kernel)

        counts, rows, held = np.asarray(counts, int).tolist(), [], rho
        for start in range(0, end + 1, TRANSIT_BLOCK):
            held = transits(held, TRANSIT_BLOCK) if start else rho
            # the counts before end are read off the state held at start, all its powers in one read
            near = counts[len(rows):bisect.bisect_left(counts, min(start + TRANSIT_BLOCK, end))]
            powered = sorted({c - start for c in near} - {0})
            readings = {0: read(held)} if start in near else {}
            if powered:
                readings.update(zip(powered, zip(*read(held, mode, powers, band, [r - 1 for r in powered]))))
            rows += (readings[c - start] for c in near)
        state = transits(held, end - start) if end > start else held
        if len(rows) < len(counts):  # the counts at end read the end state, as the report does
            rows += [read(state)] * (len(counts) - len(rows))
        return rows, state

    return lambda times, counts: (times, lambda rho, read: walk(rho, counts[:len(times)], counts[-1], read))


def collision_step(shape, params: PhysicalParams, duration: float, arrivals: ArrivalProcess, times) -> tuple:
    """(step, accepted, dropped) of one collision run over duration: the
    run_steps step that transit_map makes from the atom counts of the
    arrivals the drop rule accepts, and how many it accepts and drops."""
    counts, dropped = _accepted_counts(params, duration, arrivals, times)
    return transit_map(shape, params)(times, counts), int(counts[-1]), dropped


def run_collision_model(
    rho0: DensityMatrix,
    params: PhysicalParams,
    duration: float,
    arrivals: ArrivalProcess,
    sample_times: Optional[Sequence[float]] = None,
) -> Trajectory:
    """Stochastic single-run collision simulation of the pumping step.

    Atoms arrive as a Poisson stream, each enters in the ground level of the
    selected channel (g for channel b1, h for channel b2), interacts for
    params.tau under the single-channel Hamiltonian, and is discarded.
    Arrivals while an atom is still inside are dropped and counted.  The
    light shifts are absorbed into the squeezed frame, so each accepted atom
    applies the closed-form Kraus pair of transit_kraus_pair there, and
    transit_map's walk reads each sample as one power of the transit kernel
    applied to the state it holds every TRANSIT_BLOCK atoms.  A run that ends
    above BOUNDARY_ERROR_LIMIT raises, naming the end time, duration.

    Records bare and transformed occupations plus joint-quadrature variances
    on sample_clock(duration, sample_times), checked before any arrival is
    drawn: 101 points by default, one (t = 0) when duration is 0.
    """
    sample_times = sample_clock(duration, sample_times)
    step, accepted, dropped = collision_step(rho0.space.shape[1:], params, duration, arrivals, sample_times)
    d = derive_rates(params)
    times, table, state, final, leaks = run_steps(squeezed_frame(rho0, d.epsilon)[0], [step])
    _refuse_overflow(final.truncation_leak, duration)
    diagnostics = {"accepted_arrivals": accepted, "dropped_arrivals": dropped, "channel": d.channel,
                   "atom_state": d.atom_state, "seed": arrivals.seed, "max_truncation_leak": float(leaks.max())}
    return Trajectory(times, {key: series[:-1] for key, series in table.items()}, state, diagnostics)


def _worker_count(requested: Optional[int]) -> int:
    """Worker count of every command, whatever is requested: 1, since none
    starts a pool."""
    return 1


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
    master_seed ^ i).  A known limitation: nearby master seeds share
    streams, trajectory 1 of master m and 0 of m ^ 1 both drawing seed
    m ^ 1.  In the squeezed frame every accepted atom applies the
    same Kraus map Phi, so at a sample where trajectory i has accepted k
    atoms its state is Phi^k(rho_b).  The orbit is run once, over the
    distinct counts of all trajectories, through run_steps as one step of
    transit_map that reads every count but the last and ends at the last,
    so each count is read once, and each trajectory's records and boundary
    leaks are read off the rows at its counts.  transit_map's walk reads
    k atoms off the state it holds every TRANSIT_BLOCK atoms, all counts
    that share one in one read, with the band sums at k the same bits
    however k is reached, so the records, the ensemble means, are bitwise
    those of averaging run_collision_model runs, and the leaks agree to
    rounding; final_state is None.  A trajectory that ends above
    BOUNDARY_ERROR_LIMIT raises at duration, as in run_collision_model.
    """
    if not is_integer(n_trajectories) or n_trajectories < 1:
        raise ValueError(f"n_trajectories must be an integer of at least 1, got {n_trajectories!r}")
    if not is_integer(master_seed):
        raise ValueError(f"master_seed must be an integer, got {master_seed!r}")
    if master_seed < 0:
        raise ValueError(f"master_seed must be nonnegative, got {master_seed!r}")
    sample_times = sample_clock(duration, sample_times)
    drawn = [_accepted_counts(params, duration, ArrivalProcess(params.r_a, master_seed ^ i), sample_times)
             for i in range(n_trajectories)]
    counts = np.array([c for c, _ in drawn])
    levels = np.flatnonzero(np.bincount(counts.ravel()))  # the distinct counts
    at = np.searchsorted(levels, counts)
    d = derive_rates(params)
    step = transit_map(rho0.space.shape[1:], params)(levels[:-1], levels)
    # the last level is the orbit's final state, whose row run_steps reads last
    _, orbit, _, _, leaks = run_steps(squeezed_frame(rho0, d.epsilon)[0], [step])
    leaks = leaks[at]
    for leak in leaks[:, -1]:
        _refuse_overflow(leak, duration)
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
