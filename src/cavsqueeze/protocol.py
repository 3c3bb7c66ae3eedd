"""Two-step pumping schedule.

Step 1 pumps transformed mode 1 with ground-level atoms; step 2 swaps the
drive strengths and retunes the detunings so the same squeezed basis is
kept while transformed mode 2 is pumped with atoms in the other ground
level.  Both steps then share the squeezed vacuum as their dark state.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from .analysis import moment_records, preparation_time, report_from_moments
from .dynamics import (
    ArrivalProcess,
    _accepted_counts,
    _kraus_advance,
    interval_advance,
    run_in_squeezed_frame,
    run_schedule,
)
from .gaussian import GaussianState, gaussian_fidelity_to_tmsv, gaussian_lindblad_evolve, gaussian_vacuum
from .hilbert import ChargeBlocks, DensityMatrix, SpaceDescriptor
from .model import (
    DISPERSIVE_LIMIT,
    PhysicalParams,
    derive_rates,
    spontaneous_decay_estimate,
)

EPSILON_MATCH_TOL = 1e-12
DETUNING_SUM_TOL = 1e-9
ENGINES = ("fock", "gaussian", "collision")

TRANSIT_LIMIT = 0.2
OCCUPANCY_LIMIT = 0.2
DECAY_BUDGET = 0.1


@dataclass(frozen=True)
class ProtocolStep:
    """One pumping interval: parameters, injected atom level, duration."""

    params: PhysicalParams
    atom_state: str
    duration: float
    channel: str

    def __post_init__(self):
        if self.duration < 0:
            raise ValueError("duration must be nonnegative")
        d = derive_rates(self.params)
        if d.channel != self.channel:
            raise ValueError(
                f"declared channel {self.channel!r} but parameters derive {d.channel!r}"
            )
        expected_atom = "g" if self.channel == "b1" else "h"
        if self.atom_state != expected_atom:
            raise ValueError(
                f"channel {self.channel} pumps with atoms in {expected_atom!r}, "
                f"got {self.atom_state!r}"
            )


@dataclass(frozen=True)
class ProtocolSpec:
    """Ordered pumping steps plus the engine and numerical knobs to run them."""

    steps: Sequence[ProtocolStep]
    engine: str = "fock"
    seed: int = 0
    truncation: tuple = (15, 15)

    def __post_init__(self):
        if self.engine not in ENGINES:
            raise ValueError(f"engine must be one of {ENGINES}, got {self.engine!r}")
        steps = tuple(self.steps)
        if not steps:
            raise ValueError("protocol needs at least one step")
        trunc = tuple(self.truncation)
        # no floats (8.0 neither) and no bools; the CLI config reader turns whole floats into ints
        whole = all(isinstance(n, (int, np.integer)) and not isinstance(n, bool) for n in trunc)
        if len(trunc) != 2 or not whole or min(trunc) < 1:
            raise ValueError(f"truncation must be two positive integers, got {self.truncation!r}")
        trunc = tuple(int(n) for n in trunc)
        rates = [derive_rates(s.params) for s in steps]
        eps0 = rates[0].epsilon
        for d in rates[1:]:
            if abs(d.epsilon - eps0) > EPSILON_MATCH_TOL * max(1.0, abs(eps0)):
                raise ValueError(
                    f"steps disagree on the squeezing parameter: {eps0!r} vs {d.epsilon!r}"
                )
        sum0 = abs(steps[0].params.delta1) + abs(steps[0].params.delta2)
        for s in steps[1:]:
            total = abs(s.params.delta1) + abs(s.params.delta2)
            if abs(total - sum0) > DETUNING_SUM_TOL * max(1.0, abs(sum0)):
                raise ValueError(
                    f"detuning sum not conserved across steps: {sum0!r} vs {total!r}"
                )
        object.__setattr__(self, "steps", steps)
        object.__setattr__(self, "truncation", trunc)

    @property
    def epsilon(self) -> float:
        return derive_rates(self.steps[0].params).epsilon

    def to_json(self) -> dict:
        return {
            "steps": [
                {
                    "params": s.params.to_hz_dict(),
                    "atom_state": s.atom_state,
                    "duration": s.duration,
                    "channel": s.channel,
                }
                for s in self.steps
            ],
            "engine": self.engine,
            "seed": self.seed,
            "truncation": list(self.truncation),
        }


def mirror_to_b1(p: PhysicalParams) -> PhysicalParams:
    """Exchange the drive pairs and the detuning magnitudes.

    The mirrored set derives the same epsilon and gamma on the other
    channel, conserves the detuning sum, and has the canonical signs
    delta1 < 0 < delta2.  It turns a channel-b2 set into a step-1 set and
    a step-1 set into its step 2; mirroring twice returns a canonically
    signed set verbatim.
    """
    return PhysicalParams(
        omega1=p.omega2,
        omega2=p.omega1,
        g1=p.g2,
        g2=p.g1,
        delta1=-abs(p.delta2),
        delta2=abs(p.delta1),
        gamma_e=p.gamma_e,
        r_a=p.r_a,
        tau=p.tau,
    )


def build_two_step_protocol(
    step1: PhysicalParams,
    durations: Optional[Sequence[float]] = None,
    engine: str = "fock",
    seed: int = 0,
    truncation: tuple = (15, 15),
    n_target: float = 0.1,
) -> ProtocolSpec:
    """Construct the two-step schedule from the step-1 parameter set.

    Step 2 is mirror_to_b1(step1): the two drive pairs and the detuning
    magnitudes are exchanged, which makes the step-2 rate ordering the exact
    reciprocal of step 1 (same r, same epsilon) and conserves the detuning
    sum.  Durations default to the pump-down time to n_target per step.
    """
    d1 = derive_rates(step1)
    if d1.channel != "b1":
        raise ValueError("step 1 must have theta1 > theta2 (channel b1)")
    step2 = mirror_to_b1(step1)

    if durations is None:
        if d1.r == 0.0:
            raise ValueError("zero weak-channel rate (theta2 = 0) sets no pump-down time; "
                             "give explicit durations")
        if d1.gamma > 0:
            t_step = preparation_time(d1.r, d1.gamma, n_target).t_step
        else:
            t_step = 0.0
        durations = (t_step, t_step)
    if len(durations) != 2:
        raise ValueError("durations must give one time per step")

    steps = (
        ProtocolStep(params=step1, atom_state="g", duration=float(durations[0]), channel="b1"),
        ProtocolStep(params=step2, atom_state="h", duration=float(durations[1]), channel="b2"),
    )
    return ProtocolSpec(steps=steps, engine=engine, seed=seed, truncation=truncation)


@dataclass(frozen=True)
class RegimeCheck:
    name: str
    value: float
    limit: float
    passed: bool


@dataclass(frozen=True)
class RegimeReport:
    checks: tuple

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> list:
        return [c for c in self.checks if not c.passed]

    def to_json(self) -> dict:
        return {
            c.name: {"value": c.value, "limit": c.limit, "passed": c.passed}
            for c in self.checks
        }


def validate_regime(p: PhysicalParams, d) -> RegimeReport:
    """Check the approximations behind the effective dynamics.

    Reports, never raises: deliberately running outside the regime is a
    legitimate numerical experiment.
    """
    checks = [
        RegimeCheck(
            name="dispersive_ratio",
            value=p.dispersive_ratio,
            limit=DISPERSIVE_LIMIT,
            passed=p.dispersive_ratio <= DISPERSIVE_LIMIT,
        ),
        RegimeCheck(
            name="transit_phase",
            value=d.theta_b * p.tau,
            limit=TRANSIT_LIMIT,
            passed=d.theta_b * p.tau <= TRANSIT_LIMIT,
        ),
        RegimeCheck(
            name="beam_occupancy",
            value=p.r_a * p.tau,
            limit=OCCUPANCY_LIMIT,
            passed=p.r_a * p.tau <= OCCUPANCY_LIMIT,
        ),
    ]
    decay_rate = spontaneous_decay_estimate(p).rate
    if decay_rate == 0.0:
        decay_budget = 0.0
    elif d.gamma > 0:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            decay_budget = decay_rate * preparation_time(d.r, d.gamma).t_total
    else:
        decay_budget = math.inf
    checks.append(
        RegimeCheck(
            name="decay_budget",
            value=decay_budget,
            limit=DECAY_BUDGET,
            passed=decay_budget <= DECAY_BUDGET,
        )
    )
    return RegimeReport(checks=tuple(checks))


@functools.lru_cache(maxsize=4)
def _damping_base(n: int, shift_shape: tuple, shift: bytes) -> tuple:
    """Read-only eta-free factors (root, power, lag) of _damping_pass's
    kernel for axis length n and row shifts e: kernel = root *
    sqrt(eta)**power * (1 - eta)**lag, with exact binomials comb(m + k, k)."""
    binomials = np.array([[math.comb(m + k, k) for m in range(n)] for k in range(n)], dtype=float)
    row, col = np.indices((n, n))
    far = row + np.frombuffer(shift, dtype=int).reshape(shift_shape)[..., None, None]
    lag = np.maximum(col - row, 0)
    inside = (col >= row) & (far >= 0) & (lag + far < n)
    root = np.where(inside, np.sqrt(binomials[lag, row] * binomials[lag, np.clip(far, 0, n - 1)]), 0.0)
    factors = root, np.maximum(row + far, 0)[..., :1], lag
    for table in factors:
        table.flags.writeable = False
    return factors


def _damping_pass(rho: ChargeBlocks, eta: float, mode: int) -> ChargeBlocks:
    """Exact amplitude-damping map on one mode of rho_b, block by block.

    Population flows only downward, so the truncated space is invariant and
    the infinite-space kernel is exact here.  The k-th Kraus operator
    lowers n_j and m_j of the mode by k together, which keeps each block
    entry's charge and d.  Along the n_j axis of a block row whose entries
    have m_j - n_j = e, the map is therefore the matrix
    kernel[n, n + k] = w[k, n] w[k, n + e], w[k, m] = <m| K_k |m + k>, whose
    eta-free part is cached.  The real kernel acts on a float view of the
    blocks; on mode 2 of their transpose, which the result keeps.
    """
    n = rho.blocks.shape[1 + mode]
    shift = np.ascontiguousarray(rho.shifts()[mode - 1], dtype=int)
    root, power, lag = _damping_base(n, shift.shape, shift.tobytes())
    kernel = root * math.sqrt(eta) ** power * (1.0 - eta) ** lag
    if mode == 1:
        return replace(rho, blocks=(kernel @ np.ascontiguousarray(rho.blocks).view(float)).view(complex))
    flipped = np.ascontiguousarray(rho.blocks.swapaxes(2, 3))
    return replace(rho, blocks=(kernel @ flipped.view(float)).view(complex).swapaxes(2, 3))


def _pump_step(step: ProtocolStep, times: np.ndarray, engine: str):
    """Advance map of one pump-down step on the fock or gaussian engine.

    In the squeezed frame the transformed-mode jump is bare amplitude
    damping of the pumped mode: on rho_b its Fock-basis kernel, on the
    moments the attenuator gaussian_lindblad_evolve.  Both are closed form,
    so the step is exact.
    """
    d = derive_rates(step.params)
    mode = 1 if step.channel == "b1" else 2
    if engine == "gaussian":
        evolve = lambda s, dt: gaussian_lindblad_evolve(s, d.epsilon, d.gamma, mode, dt)
    else:
        evolve = lambda rho, dt: _damping_pass(rho, math.exp(-d.gamma * dt), mode)
    return interval_advance(times, step.duration, evolve)


def run_protocol(
    spec: ProtocolSpec,
    initial=None,
    samples_per_step: int = 51,
):
    """Execute the schedule on the chosen engine.

    Returns (Trajectory, SqueezingReport).  initial defaults to vacuum; it
    must be a DensityMatrix on the spec truncation for the fock and
    collision engines, or a GaussianState for the gaussian engine; the
    final state is rho_b = S rho S+ (ChargeBlocks) or a GaussianState.
    Every engine pumps in the one squeezed frame the steps share and reads
    its records from the same quadrature moments.  The diagnostics have the
    same keys on every engine: engine, steps, regime_failures (the checks
    validate_regime fails, also issued as a warning), max_truncation_leak
    (0.0 on gaussian, which has no truncation), and accepted_arrivals and
    dropped_arrivals (None except on collision).
    """
    whole = isinstance(samples_per_step, (int, np.integer)) and not isinstance(samples_per_step, bool)
    if not whole or samples_per_step < 1:
        raise ValueError(f"samples_per_step must be an integer >= 1, got {samples_per_step!r}")
    failures = []
    for step in spec.steps:
        report = validate_regime(step.params, derive_rates(step.params))
        failures.extend(f"{c.name}={c.value:.3g}" for c in report.failures())
    if failures:
        warnings.warn("outside validity regime: " + ", ".join(failures), stacklevel=2)

    if spec.engine == "gaussian":
        if initial is not None and not isinstance(initial, GaussianState):
            raise ValueError("gaussian engine takes a GaussianState initial state")
        start = gaussian_vacuum() if initial is None else initial
    else:
        space = SpaceDescriptor(1, *spec.truncation)
        if initial is not None and not isinstance(initial, DensityMatrix):
            raise ValueError(f"{spec.engine} engine takes a DensityMatrix initial state")
        if initial is not None and initial.space != space:
            raise ValueError(f"initial state space {initial.space} does not match truncation {spec.truncation}")
        start = space if initial is None else initial

    steps, accepted, dropped = [], 0, 0
    for i, step in enumerate(spec.steps):
        # a step of zero duration has its one sample at 0
        times = np.linspace(0.0, step.duration, samples_per_step if step.duration else 1)
        if spec.engine == "collision":
            arrivals = ArrivalProcess(rate=step.params.r_a, seed=spec.seed + i)
            counts, step_dropped = _accepted_counts(step.params, step.duration, arrivals, times)
            advance = _kraus_advance(spec.truncation, step.params, False, counts)
            accepted += int(counts[-1])
            dropped += step_dropped
        else:
            advance = _pump_step(step, times, spec.engine)
        steps.append((times, advance))

    # the steps share epsilon, so every engine runs the whole schedule in one squeezed frame
    epsilon = spec.epsilon
    if spec.engine == "gaussian":
        record = lambda s: moment_records(s.mean, s.cov, epsilon)
        traj = run_schedule(start, steps, record)
        final = traj.final_state
        report = report_from_moments(final.mean, final.cov, epsilon, gaussian_fidelity_to_tmsv(final, epsilon), 0.0)
    else:
        traj, report = run_in_squeezed_frame(start, epsilon, steps)

    diagnostics = {
        "engine": spec.engine,
        "steps": len(steps),
        "regime_failures": failures,
        "max_truncation_leak": traj.diagnostics.get("max_truncation_leak", 0.0),
        "accepted_arrivals": accepted if spec.engine == "collision" else None,
        "dropped_arrivals": dropped if spec.engine == "collision" else None,
    }
    return replace(traj, diagnostics=diagnostics), report
