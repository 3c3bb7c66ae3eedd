"""Time evolution engines.

Fourth-order Runge-Kutta propagation of state vectors under a
time-dependent Hamiltonian, and the stochastic collision model in which a
Poisson stream of two-level atoms pumps the transformed cavity mode.
"""

from __future__ import annotations

import math
import os
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence, Union

import numpy as np
import scipy.linalg

from .analysis import make_observable_recorder, truncation_leak
from .hilbert import DensityMatrix, Operator, SpaceDescriptor
from .model import PhysicalParams, build_selective_hamiltonian, derive_rates, stark_shifts

COUPLING_ERROR_LIMIT = 0.5
COUPLING_WARN_LIMIT = 0.2
ARRIVAL_RATE_LIMIT = 0.2
BOUNDARY_ERROR_LIMIT = 1e-3
MAX_STEPS = 10_000_000


@dataclass(frozen=True)
class Trajectory:
    """Sampled time evolution: times, named observable series, optional final state.

    final_state holds whatever state representation the producing engine
    uses (DensityMatrix for Fock engines, GaussianState for the covariance
    engine)."""

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
        keys = list(self.records)
        with open(path, "w", newline="\n") as fh:
            fh.write(",".join(["t"] + keys) + "\n")
            for i, t in enumerate(self.times):
                row = [t] + [self.records[k][i] for k in keys]
                fh.write(",".join(f"{v:.17g}" for v in row) + "\n")


@dataclass(frozen=True)
class ArrivalProcess:
    """Poisson atom arrivals at the given rate, reproducible from the seed.

    policy names the overlap rule applied by the collision runner; the only
    supported value is 'drop' (arrivals during an ongoing interaction are
    discarded and counted).  A zero rate means no atoms ever arrive.
    """

    rate: float
    seed: int
    policy: str = "drop"

    def __post_init__(self):
        if not math.isfinite(self.rate) or self.rate < 0.0:
            raise ValueError(f"rate must be finite and nonnegative, got {self.rate!r}")
        if self.policy != "drop":
            raise ValueError(f"unsupported overlap policy {self.policy!r}")

    def sample(self, duration: float) -> np.ndarray:
        """Arrival times in [0, duration), strictly increasing."""
        if duration < 0:
            raise ValueError("duration must be nonnegative")
        if self.rate == 0.0 or duration == 0.0:
            return np.empty(0)
        rng = np.random.default_rng(self.seed)
        # draw in blocks until past the horizon
        times = []
        t = 0.0
        mean = 1.0 / self.rate
        while True:
            block = rng.exponential(mean, size=256)
            for dt in block:
                t += dt
                if t >= duration:
                    return np.array(times)
                times.append(t)


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
    for _ in range(n_steps):
        k1 = -1j * (h_fn(t) @ psi)
        k2 = -1j * (h_fn(t + 0.5 * h) @ (psi + 0.5 * h * k1))
        k3 = -1j * (h_fn(t + 0.5 * h) @ (psi + 0.5 * h * k2))
        k4 = -1j * (h_fn(t + h) @ (psi + h * k3))
        psi = psi + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        psi /= np.linalg.norm(psi)
        t += h
    return psi


def _thin_arrivals(times: np.ndarray, tau: float):
    accepted = []
    dropped = 0
    busy_until = -math.inf
    for t in times:
        if t >= busy_until:
            accepted.append(t)
            busy_until = t + tau
        else:
            dropped += 1
    return np.array(accepted), dropped


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

    Records bare and transformed occupations plus joint-quadrature variances
    at sample_times (default: 101 evenly spaced points).
    """
    if rho0.space.atom_levels != 1:
        raise ValueError("collision model expects a field-only initial state")
    if duration < 0:
        raise ValueError("duration must be nonnegative")
    d = derive_rates(params)
    x = d.theta_b * params.tau
    if x >= COUPLING_ERROR_LIMIT:
        raise ValueError(f"theta_b*tau = {x:.3g} is outside the perturbative regime (< 0.5)")
    if x > COUPLING_WARN_LIMIT:
        warnings.warn(f"theta_b*tau = {x:.3g} above 0.2; collision kicks are large", stacklevel=2)
    occupancy = arrivals.rate * params.tau
    if occupancy > ARRIVAL_RATE_LIMIT:
        raise ValueError(
            f"arrival rate violates the one-atom regime: r_a*tau = {occupancy:.3g} > "
            f"{ARRIVAL_RATE_LIMIT}"
        )

    field_space = rho0.space
    composite = SpaceDescriptor(2, field_space.n1_trunc, field_space.n2_trunc)
    stark = stark_shifts(params) if include_stark else None
    h_int = build_selective_hamiltonian(d, stark, composite)
    atom_init = "g" if d.channel == "b1" else "h"
    atom_idx = composite.atom_index(atom_init)
    propagator = scipy.linalg.expm(-1j * params.tau * h_int.matrix)
    # one transit maps rho to sum_a K_a rho K_a+ with K_a = <a|U|atom_init>
    dim = field_space.dim
    cols = slice(atom_idx * dim, (atom_idx + 1) * dim)
    kraus = [np.ascontiguousarray(propagator[a * dim : (a + 1) * dim, cols]) for a in range(2)]

    def collide(rho):
        new = np.zeros_like(rho)
        for k in kraus:
            new += k @ rho @ k.conj().T
        return new

    if sample_times is None:
        sample_times = np.linspace(0.0, duration, 101)
    else:
        sample_times = np.asarray(sample_times, dtype=float)

    accepted, dropped = _thin_arrivals(arrivals.sample(duration), params.tau)
    recorder = make_observable_recorder(field_space, d.epsilon)

    rho = rho0.matrix.copy()
    rows = []
    max_leak = 0.0
    arrival_ptr = 0
    for t_s in sample_times:
        while arrival_ptr < accepted.size and accepted[arrival_ptr] <= t_s:
            rho = collide(rho)
            arrival_ptr += 1
        leak = truncation_leak(rho, field_space)
        max_leak = max(max_leak, leak)
        if leak > BOUNDARY_ERROR_LIMIT:
            raise ValueError(
                f"truncation overflow at t={t_s:g}: boundary population {leak:.2e} > "
                f"{BOUNDARY_ERROR_LIMIT:g}; increase the Fock truncation"
            )
        rows.append(recorder(rho))
    while arrival_ptr < accepted.size:
        rho = collide(rho)
        arrival_ptr += 1

    records = {key: np.array([row[key] for row in rows]) for key in rows[0]} if rows else {}
    final = DensityMatrix(field_space, 0.5 * (rho + rho.conj().T))
    return Trajectory(
        times=np.asarray(sample_times, dtype=float),
        records=records,
        final_state=final,
        diagnostics={
            "accepted_arrivals": int(accepted.size),
            "dropped_arrivals": int(dropped),
            "max_truncation_leak": float(max_leak),
            "channel": d.channel,
            "atom_state": atom_init,
            "seed": arrivals.seed,
        },
    )


def _worker_count(requested: Optional[int]) -> int:
    if requested is not None:
        return max(1, int(requested))
    env = os.environ.get("CAVSQUEEZE_WORKERS", "").strip()
    if env:
        return max(1, int(env))
    return min(4, os.cpu_count() or 1)


def run_collision_ensemble(
    rho0: DensityMatrix,
    params: PhysicalParams,
    duration: float,
    n_trajectories: int,
    master_seed: int,
    include_stark: bool = False,
    sample_times: Optional[Sequence[float]] = None,
    workers: Optional[int] = None,
) -> Trajectory:
    """Average of independent collision runs.

    Trajectory i uses seed master_seed XOR i, so the ensemble is
    reproducible and independent of the worker count.  Records are the
    ensemble means; the final state is the averaged density matrix.
    """
    if n_trajectories < 1:
        raise ValueError("n_trajectories must be at least 1")
    if sample_times is None:
        sample_times = np.linspace(0.0, duration, 101)

    def one(i: int) -> Trajectory:
        proc = ArrivalProcess(rate=params.r_a, seed=master_seed ^ i, policy="drop")
        return run_collision_model(
            rho0, params, duration, proc,
            include_stark=include_stark, sample_times=sample_times,
        )

    n_workers = _worker_count(workers)
    results = [None] * n_trajectories
    if n_workers == 1:
        for i in range(n_trajectories):
            results[i] = one(i)
    else:
        with ThreadPoolExecutor(max_workers=n_workers) as pool:
            for i, traj in enumerate(pool.map(one, range(n_trajectories))):
                results[i] = traj

    keys = list(results[0].records)
    records = {
        key: np.mean([results[i].records[key] for i in range(n_trajectories)], axis=0)
        for key in keys
    }
    mean_final = np.mean([r.final_state.matrix for r in results], axis=0)
    diagnostics = {
        "n_trajectories": n_trajectories,
        "accepted_arrivals": sum(r.diagnostics["accepted_arrivals"] for r in results),
        "dropped_arrivals": sum(r.diagnostics["dropped_arrivals"] for r in results),
        "max_truncation_leak": max(r.diagnostics["max_truncation_leak"] for r in results),
        "channel": results[0].diagnostics["channel"],
        "master_seed": master_seed,
    }
    return Trajectory(
        times=np.asarray(sample_times, dtype=float),
        records=records,
        final_state=DensityMatrix(rho0.space, mean_final),
        diagnostics=diagnostics,
    )
