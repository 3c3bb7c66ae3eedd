"""Two-step pumping schedule.

Step 1 pumps transformed mode 1 with ground-level atoms; step 2 swaps the
drive strengths and retunes the detunings so the same squeezed basis is
kept while transformed mode 2 is pumped with atoms in the other ground
level.  Both steps then share the squeezed vacuum as their dark state.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .analysis import preparation_time
from .dynamics import (ArrivalProcess, Trajectory, _refuse_overflow, check_duration, collision_step, run_steps,
                       sample_clock, squeezed_frame)
from .gaussian import GaussianState, gaussian_frame, gaussian_vacuum
from .hilbert import DensityMatrix, SpaceDescriptor, _unchecked, basis_state, is_integer, plain
from .model import (
    DISPERSIVE_LIMIT,
    OCCUPANCY_LIMIT,
    TRANSIT_LIMIT,
    DerivedParams,
    PhysicalParams,
    derive_rates,
    spontaneous_decay_estimate,
)

EPSILON_MATCH_TOL = 1e-12
DETUNING_SUM_TOL = 1e-9
ENGINES = ("fock", "gaussian", "collision")
DECAY_BUDGET = 0.1


@dataclass(frozen=True)
class ProtocolStep:
    """One pumping interval: parameters and duration.

    derived is derive_rates(params), computed once at construction for
    everything that reads the step's rates; its rate ordering fixes the
    step's channel and the level its atoms enter in.
    """

    params: PhysicalParams
    duration: float
    derived: DerivedParams = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        check_duration(self.duration)
        object.__setattr__(self, "derived", derive_rates(self.params))

    @property
    def channel(self) -> str:
        return self.derived.channel

    @property
    def atom_state(self) -> str:
        return self.derived.atom_state


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
        if len(trunc) != 2 or not all(map(is_integer, trunc)) or min(trunc) < 1:
            raise ValueError(f"truncation must be two positive integers, got {self.truncation!r}")
        trunc = tuple(int(n) for n in trunc)
        rates = [s.derived for s in steps]
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
        return self.steps[0].derived.epsilon

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


def two_step_schedule(step1: PhysicalParams, durations: Optional[Sequence[float]] = None, n_target: float = 0.1) -> list:
    """The (params, derive_rates(params), duration) of the two steps from the
    step-1 parameter set, as validate_regime reads them.

    Step 2 is mirror_to_b1(step1): the two drive pairs and the detuning
    magnitudes are exchanged, which makes the step-2 rate ordering the exact
    reciprocal of step 1 (same r, same epsilon) and conserves the detuning
    sum.  Durations default to step 1's pump_down_time, which step 2 shares.
    A step1 table of arrays gives one schedule per element, refused if any is.
    """
    d1 = derive_rates(step1)
    if d1.channel != "b1":
        raise ValueError("step 1 must have theta1 > theta2 (channel b1)")
    if durations is None:
        durations = (pump_down_time(d1, n_target),) * 2
    if len(durations) != 2:
        raise ValueError("durations must give one time per step")
    for t in durations:
        check_duration(t)
    step2 = mirror_to_b1(step1)
    return [(step1, d1, durations[0]), (step2, derive_rates(step2), durations[1])]


def build_two_step_protocol(step1: PhysicalParams, durations: Optional[Sequence[float]] = None, engine: str = "fock",
                            seed: int = 0, truncation: tuple = (15, 15), n_target: float = 0.1) -> ProtocolSpec:
    """Construct the two-step protocol of two_step_schedule(step1, durations, n_target)."""
    steps = [_unchecked(ProtocolStep, params=p, duration=float(t), derived=d)
             for p, d, t in two_step_schedule(step1, durations, n_target)]
    return ProtocolSpec(steps=steps, engine=engine, seed=seed, truncation=truncation)


def pump_down_time(d: DerivedParams, n_target: float) -> float:
    """Default duration of a step: the time its pump takes to bring the
    transformed mode down to n_target (0 when it does not pump), per point
    of d's rates."""
    if np.any(d.r == 0.0):
        raise ValueError("zero weak-channel rate (theta2 = 0) sets no pump-down time; "
                         "give explicit durations")
    pumps = d.gamma > 0
    if not np.any(pumps):
        return plain(np.zeros(np.shape(pumps)))
    # a step that does not pump ends at once: ln(n_bar / n_target) / inf = 0
    return preparation_time(d.r, np.where(pumps, d.gamma, math.inf), n_target).t_step


def validate_regime(steps: Sequence[tuple]) -> dict:
    """Check the approximations behind the effective dynamics of a run of
    (params, derive_rates(params), duration) steps.

    Returns {name: {"value", "limit", "passed"}}: dispersive_ratio,
    transit_phase and beam_occupancy at the run's worst step, and
    decay_budget, the run's spontaneous-emission probability, the sum of
    each step's decay rate times its duration (0.0 without decay, inf when a
    step that decays does not pump).  Reports, never raises: deliberately
    running outside the regime is a legitimate numerical experiment.
    """
    limits = {"dispersive_ratio": DISPERSIVE_LIMIT, "transit_phase": TRANSIT_LIMIT,
              "beam_occupancy": OCCUPANCY_LIMIT, "decay_budget": DECAY_BUDGET}
    values = dict.fromkeys(limits, 0.0)
    for p, d, duration in steps:
        # the three per-step checks, in the order of limits
        for name, value in zip(limits, (p.dispersive_ratio, d.theta_b * p.tau, p.r_a * p.tau)):
            values[name] = np.maximum(values[name], value)
        decay_rate = spontaneous_decay_estimate(p).rate
        # a step that does not decay spends nothing, even over an infinite duration
        spent = decay_rate * np.where(decay_rate == 0.0, 0.0, np.where(d.gamma > 0, duration, math.inf))
        values["decay_budget"] = values["decay_budget"] + spent
    return {name: {"value": plain(values[name]), "limit": limit, "passed": plain(values[name] <= limit)}
            for name, limit in limits.items()}


def run_protocol(
    spec: ProtocolSpec,
    initial=None,
    samples_per_step: int = 51,
):
    """Execute the schedule on the chosen engine.

    Returns (Trajectory, SqueezingReport).  initial defaults to vacuum (|0,0>
    of from_state_vector); it must be a DensityMatrix on the spec truncation
    for the fock and collision engines, or a GaussianState for the gaussian
    engine; the final state is rho_b = S rho S+ (ChargeBlocks) or a
    GaussianState.  Every engine pumps in the one squeezed frame the steps
    share, through run_steps (fock and gaussian by their frame's pump,
    collision by transit_map's steps): the samples are all rows of its table
    but the last, the final state's.  The diagnostics have the same keys on
    every engine: engine, steps, regime_failures (the checks validate_regime
    fails on the run's steps, also issued as a warning), max_truncation_leak
    (0.0 on gaussian, which has no truncation), and accepted_arrivals and
    dropped_arrivals (None except on collision).
    Collision step i draws its atoms with seed spec.seed + i.  A known
    limitation: nearby seeds share streams, step i of seed s being step
    i - 1 of seed s + 1.
    """
    if not is_integer(samples_per_step) or samples_per_step < 1:
        raise ValueError(f"samples_per_step must be an integer >= 1, got {samples_per_step!r}")
    regime = validate_regime([(step.params, step.derived, step.duration) for step in spec.steps])
    failures = [f"{name}={c['value']:.3g}" for name, c in regime.items() if not c["passed"]]
    if failures:
        warnings.warn("outside validity regime: " + ", ".join(failures), stacklevel=2)

    clocks = [sample_clock(step.duration, samples=samples_per_step) for step in spec.steps]
    if spec.engine == "collision":
        # drawn before the frame is entered, so a run outside the one-atom regime is refused first
        steps, accepted, dropped = zip(*(
            collision_step(spec.truncation, step.params, step.duration,
                           ArrivalProcess(rate=step.params.r_a, seed=spec.seed + i), times)
            for i, (step, times) in enumerate(zip(spec.steps, clocks))))

    # the steps share epsilon, so every engine runs the whole schedule in one squeezed frame
    if spec.engine == "gaussian":
        if initial is not None and not isinstance(initial, GaussianState):
            raise ValueError("gaussian engine takes a GaussianState initial state")
        entry, pump = gaussian_frame(gaussian_vacuum() if initial is None else initial, spec.epsilon)
    else:
        space = SpaceDescriptor(1, *spec.truncation)
        if initial is None:
            initial = DensityMatrix.from_state_vector(space, basis_state(space, 0, 0, 0))
        elif not isinstance(initial, DensityMatrix):
            raise ValueError(f"{spec.engine} engine takes a DensityMatrix initial state")
        elif initial.space != space:
            raise ValueError(f"initial state space {initial.space} does not match truncation {spec.truncation}")
        entry, pump = squeezed_frame(initial, spec.epsilon)
    if spec.engine != "collision":
        steps = [pump(step.derived, step.duration, times) for step, times in zip(spec.steps, clocks)]

    times, table, state, report, leaks = run_steps(entry, steps)
    _refuse_overflow(report.truncation_leak, sum(step.duration for step in spec.steps))
    diagnostics = {
        "engine": spec.engine,
        "steps": len(steps),
        "regime_failures": failures,
        "max_truncation_leak": float(leaks.max()),
        "accepted_arrivals": sum(accepted) if spec.engine == "collision" else None,
        "dropped_arrivals": sum(dropped) if spec.engine == "collision" else None,
    }
    return Trajectory(times, {key: series[:-1] for key, series in table.items()}, state, diagnostics), report
