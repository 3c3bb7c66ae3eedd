"""The benchmark's four workloads.

Each workload builds its inputs from the workload seed (``setup``), runs one
user-level solve (``op``) and checks that solve's output against a reference
(``check``, which returns a list of failure messages, empty when the output is
correct).  Package functions are looked up as module attributes at call time,
so the traced run's wrappers see every call the workload makes.

Seed scheme.  All seed-drawn inputs come from
``np.random.SeedSequence([seed, stream])`` with one fixed ``stream`` number per
workload, so workloads never share a random stream.  The collision ensemble
seeds trajectory i with ``master ^ i``; the benchmark therefore hands it
masters that are multiples of the trajectory block width 2**b >= K, drawn as
``(word >> b) << b`` from the workload's SeedSequence words.  Each master's
XOR range is then the aligned block [master, master + 2**b), and two ranges
either coincide or are disjoint.  Masters within one run are kept distinct;
two workload seeds share a block only if two 32-bit draws agree in their top
32 - b bits (chance about 2**-29 per pair of ops).
"""

from __future__ import annotations

import dataclasses
import importlib.resources
import json
import math
import os

import numpy as np

FOCK_LEVELS = 25
FOCK_SAMPLES = 51
FOCK_R_RANGE = (0.55, 0.65)
FOCK_DURATION_GAMMAS = 9.0

COLLISION_LEVELS = 12
COLLISION_R = 0.4
COLLISION_DURATION_GAMMAS = 1.5
COLLISION_SAMPLES = 16
COLLISION_TRAJECTORIES = 8
COLLISION_SE_LIMIT = 4.0

SWEEP_POINTS = 400
SWEEP_R_RANGE = (0.35, 0.98)

THREE_LEVEL_CYCLES = 3
THREE_LEVEL_DT = 0.01

FIDELITY_FLOOR = 0.99
LEAK_LIMIT = 1e-3
ENGINE_GAP_LIMIT = 1e-3
OVERLAP_FLOOR = 0.99
TRANSFER_RTOL = 0.05
SWEEP_OCCUPATION_RTOL = 1e-6

MASTER_BLOCK = 64


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, stream]))


def pump_params(r: float, theta_b_tau: float = 0.1, beam_occupancy: float = 0.1):
    """The acceptance tests' pumping parameters: theta_1 = 1, theta_2 = r,
    couplings at 1/20 of the detunings, transit phase theta_b*tau and beam
    occupancy r_a*tau as given."""
    from cavsqueeze import model

    p = model.PhysicalParams(omega1=20.0, omega2=math.sqrt(400.0 * r),
                             g1=20.0, g2=math.sqrt(400.0 * r),
                             delta1=-400.0, delta2=400.0)
    tau = theta_b_tau / model.derive_rates(p).theta_b
    return dataclasses.replace(p, r_a=beam_occupancy / tau, tau=tau)


def ensemble_master_seeds(seed: int, stream: int, count: int, trajectories: int) -> list:
    """Distinct ensemble master seeds whose XOR ranges never overlap (see the
    module docstring).  A longer list extends a shorter one: SeedSequence
    words do not depend on how many are generated."""
    width = max(1, (trajectories - 1).bit_length())
    words = np.random.SeedSequence([seed, stream]).generate_state(4 * count, dtype=np.uint32)
    masters, seen = [], set()
    for word in words:
        master = (int(word) >> width) << width
        if master not in seen:
            seen.add(master)
            masters.append(master)
            if len(masters) == count:
                return masters
    raise RuntimeError("too many repeated seed blocks")


class Workload:
    """Default: one op, in one process, per run at the least."""

    min_ops = 1


class FockPump(Workload):
    name = "fock-pump"
    stream = 1

    @staticmethod
    def setup(seed: int, workdir: str) -> dict:
        from cavsqueeze import hilbert, model, protocol

        r = float(_rng(seed, FockPump.stream).uniform(*FOCK_R_RANGE))
        p = pump_params(r)
        t_step = FOCK_DURATION_GAMMAS / model.derive_rates(p).gamma
        spec = protocol.build_two_step_protocol(
            p, engine="fock", truncation=(FOCK_LEVELS, FOCK_LEVELS), durations=(t_step, t_step)
        )
        space = hilbert.SpaceDescriptor(1, FOCK_LEVELS, FOCK_LEVELS)
        vacuum = hilbert.DensityMatrix.from_state_vector(space, hilbert.basis_state(space, 0, 0, 0))
        return {"r": r, "params": p, "t_step": t_step, "spec": spec, "initial": vacuum}

    @staticmethod
    def op(inputs: dict, j: int) -> dict:
        from cavsqueeze import protocol

        traj, report = protocol.run_protocol(
            inputs["spec"], initial=inputs["initial"], samples_per_step=FOCK_SAMPLES
        )
        return {
            "fidelity": report.fidelity,
            "truncation_leak": report.truncation_leak,
            "duan_sum": report.duan_sum,
            "samples": int(traj.times.size),
        }

    @staticmethod
    def reference(inputs: dict) -> dict:
        """The gaussian engine on the same spec: exact, no truncation."""
        if "gaussian_duan" not in inputs:
            from cavsqueeze import protocol

            t = inputs["t_step"]
            spec = protocol.build_two_step_protocol(inputs["params"], engine="gaussian", durations=(t, t))
            _, report = protocol.run_protocol(spec, samples_per_step=FOCK_SAMPLES)
            inputs["gaussian_duan"] = report.duan_sum
        return {"duan_sum": inputs["gaussian_duan"]}

    @staticmethod
    def check(inputs: dict, out: dict) -> list:
        ref = FockPump.reference(inputs)
        failures = []
        if not out["fidelity"] >= FIDELITY_FLOOR:
            failures.append(f"fidelity {out['fidelity']:.6f} < {FIDELITY_FLOOR}")
        if not out["truncation_leak"] < LEAK_LIMIT:
            failures.append(f"truncation leak {out['truncation_leak']:.3e} >= {LEAK_LIMIT:g}")
        gap = abs(out["duan_sum"] - ref["duan_sum"])
        if not gap < ENGINE_GAP_LIMIT:
            failures.append(f"|duan_sum - gaussian| = {gap:.3e} >= {ENGINE_GAP_LIMIT:g}")
        if out["samples"] != 2 * FOCK_SAMPLES - 1:
            failures.append(f"{out['samples']} samples, want {2 * FOCK_SAMPLES - 1}")
        return failures


class CollisionEnsemble(Workload):
    name = "collision-ensemble"
    stream = 2
    # one op takes about 8 s, so two processes per run at 10 s; fixed so that
    # every run's fastest op is taken from the same number of processes
    min_ops = 2

    @staticmethod
    def setup(seed: int, workdir: str) -> dict:
        from cavsqueeze import hilbert, model

        p = pump_params(COLLISION_R)
        d = model.derive_rates(p)
        space = hilbert.SpaceDescriptor(1, COLLISION_LEVELS, COLLISION_LEVELS)
        # one quantum in the pumped transformed mode, as in the acceptance test
        vac = model.build_squeeze_operator(space, d.epsilon).dagger().matrix @ hilbert.basis_state(space, 0, 0, 0)
        raised = model.b_mode_annihilation(space, d.epsilon, 1).dagger().matrix @ vac
        rho0 = hilbert.DensityMatrix.from_state_vector(space, raised / np.linalg.norm(raised))
        duration = COLLISION_DURATION_GAMMAS / d.gamma
        return {
            "params": p,
            "rho0": rho0,
            "duration": duration,
            "times": np.linspace(0.0, duration, COLLISION_SAMPLES),
            "seed": seed,
            "masters": ensemble_master_seeds(seed, CollisionEnsemble.stream, MASTER_BLOCK, COLLISION_TRAJECTORIES),
        }

    @staticmethod
    def op(inputs: dict, j: int) -> dict:
        from cavsqueeze import dynamics

        if j >= len(inputs["masters"]):
            count = MASTER_BLOCK * (j // MASTER_BLOCK + 1)
            inputs["masters"] = ensemble_master_seeds(
                inputs["seed"], CollisionEnsemble.stream, count, COLLISION_TRAJECTORIES
            )
        ens = dynamics.run_collision_ensemble(
            inputs["rho0"], inputs["params"], inputs["duration"], COLLISION_TRAJECTORIES,
            inputs["masters"][j], sample_times=inputs["times"],
        )
        return {
            "n_b1_final": float(ens.records["n_b1"][-1]),
            "max_truncation_leak": ens.diagnostics["max_truncation_leak"],
        }

    @staticmethod
    def reference(inputs: dict) -> dict:
        """Dead-time-corrected prediction for the final mean n_b1.

        One quantum in b1 survives each accepted atom with probability
        c = cos^2(theta_b tau), so a trajectory with k atoms ends at c^k.  The
        drop policy accepts atoms at rate r_a / (1 + r_a tau); with k Poisson
        of mean lambda, E[c^k] = exp(-lambda (1 - c)).  The standard error
        uses the Poisson variance of c^k, an upper bound for the dead-time
        thinned counts, which are less dispersed than Poisson.
        """
        from cavsqueeze import model

        p = inputs["params"]
        c = math.cos(model.derive_rates(p).theta_b * p.tau) ** 2
        lam = p.r_a * inputs["duration"] / (1.0 + p.r_a * p.tau)
        mean = math.exp(-lam * (1.0 - c))
        var = math.exp(-lam * (1.0 - c * c)) - mean * mean
        return {"n_b1_final": mean, "standard_error": math.sqrt(var / COLLISION_TRAJECTORIES)}

    @staticmethod
    def check(inputs: dict, out: dict) -> list:
        ref = CollisionEnsemble.reference(inputs)
        failures = []
        if not out["max_truncation_leak"] <= LEAK_LIMIT:
            failures.append(f"trajectory leak {out['max_truncation_leak']:.3e} > {LEAK_LIMIT:g}")
        z = (out["n_b1_final"] - ref["n_b1_final"]) / ref["standard_error"]
        if not abs(z) <= COLLISION_SE_LIMIT:
            failures.append(
                f"final n_b1 {out['n_b1_final']:.5f} is {z:+.2f} SE from {ref['n_b1_final']:.5f}"
            )
        return failures


class GaussianSweep(Workload):
    name = "gaussian-sweep"
    stream = 3
    # one op takes about 10 s; two processes per run, as on collision-ensemble
    min_ops = 2

    @staticmethod
    def setup(seed: int, workdir: str) -> dict:
        import cavsqueeze.cli  # noqa: F401  (the op enters through the CLI)

        lo, hi = SWEEP_R_RANGE
        base = np.linspace(lo, hi, SWEEP_POINTS)
        half = 0.25 * (hi - lo) / (SWEEP_POINTS - 1)
        grid = np.clip(base + _rng(seed, GaussianSweep.stream).uniform(-half, half, SWEEP_POINTS), lo, hi)
        text = importlib.resources.files("cavsqueeze").joinpath("data", "microwave_rydberg.json").read_text()
        config = json.loads(text)
        config.update(engine="gaussian", r_grid=[float(r) for r in grid])
        config_path = os.path.join(workdir, "sweep-config.json")
        with open(config_path, "w") as fh:
            json.dump(config, fh)
        return {
            "grid": grid,
            "n_target": float(config.get("n_target", 0.1)),
            "config_path": config_path,
            "workdir": workdir,
        }

    @staticmethod
    def op(inputs: dict, j: int) -> dict:
        from cavsqueeze import cli

        out = os.path.join(inputs["workdir"], f"sweep-{j}.csv")
        code = cli.main(["sweep", "--config", inputs["config_path"], "--out", out])
        return {"exit_code": code, "csv": out}

    @staticmethod
    def check(inputs: dict, out: dict) -> list:
        if out["exit_code"] != 0:
            return [f"sweep exited {out['exit_code']}"]
        with open(out["csv"]) as fh:
            header = fh.readline().strip().split(",")
            rows = [[float(v) for v in line.split(",")] for line in fh if line.strip()]
        os.remove(out["csv"])
        grid = inputs["grid"]
        if len(rows) != grid.size:
            return [f"{len(rows)} sweep rows for {grid.size} grid points"]
        col = {name: np.array([row[i] for row in rows]) for i, name in enumerate(header)}
        failures = []
        if np.max(np.abs(col["r"] - grid)) > 1e-12:
            failures.append("sweep rows do not follow the r grid")
        if not np.all(col["duan_sum"] < 1.0):
            failures.append(f"duan_sum reaches {np.max(col['duan_sum']):.4f} >= 1")
        # both steps end with their transformed mode at n_target, which leaves
        # each bare mode exactly n_target below the target's sinh^2(epsilon)
        sinh2 = np.sinh(np.arctanh(grid)) ** 2
        want = sinh2 - inputs["n_target"]
        for key in ("n1_mean", "n2_mean"):
            err = np.max(np.abs(col[key] - want) / (1.0 + sinh2))
            if not err <= SWEEP_OCCUPATION_RTOL:
                failures.append(f"{key} off sinh^2(eps) - n_target by {err:.3e} (relative)")
        return failures


class ThreeLevel(Workload):
    name = "three-level"
    stream = 4
    # one op takes 5.3 to 7 s in a fast process and up to 12 s in a slow one,
    # and slow processes come in runs; six processes per run make it likely
    # that at least one is fast
    min_ops = 6

    @staticmethod
    def setup(seed: int, workdir: str) -> dict:
        from cavsqueeze import hilbert, model

        # ratios 0.05 on both channels, as in the acceptance test; t = 2 pi m
        # closes whole cycles of both detunings, so there is no micromotion
        p = model.PhysicalParams(omega1=0.15, omega2=0.25, g1=0.15, g2=0.25, delta1=-3.0, delta2=5.0)
        space = hilbert.SpaceDescriptor(3, 5, 5)
        return {
            "params": p,
            "space": space,
            "psi0": hilbert.basis_state(space, space.atom_index("h"), 0, 0),
            "t_end": 2.0 * math.pi * THREE_LEVEL_CYCLES,
            "h_of_t": lambda t: model.build_full_hamiltonian(p, space, t).matrix,
        }

    @staticmethod
    def op(inputs: dict, j: int) -> dict:
        from cavsqueeze import dynamics

        psi = dynamics.propagate_state(inputs["h_of_t"], inputs["psi0"], (0.0, inputs["t_end"]), dt=THREE_LEVEL_DT)
        return {"psi": psi}

    @staticmethod
    def reference(inputs: dict) -> np.ndarray:
        """The dispersive (two-level) model, propagated exactly."""
        if "psi_eff" not in inputs:
            import scipy.linalg
            from cavsqueeze import model

            h_eff = model.build_effective_hamiltonian(inputs["params"], inputs["space"]).matrix
            inputs["psi_eff"] = scipy.linalg.expm(-1j * inputs["t_end"] * h_eff) @ inputs["psi0"]
        return inputs["psi_eff"]

    @staticmethod
    def check(inputs: dict, out: dict) -> list:
        from cavsqueeze import analysis

        psi, psi0 = out["psi"], inputs["psi0"]
        ref = ThreeLevel.reference(inputs)
        overlap = abs(np.vdot(ref, psi)) ** 2
        leak = analysis.truncation_leak(psi, inputs["space"])
        failures = []
        if not overlap >= OVERLAP_FLOOR:
            failures.append(f"overlap with the dispersive model {overlap:.6f} < {OVERLAP_FLOOR}")
        # over 3 detuning cycles only ~2% of the population leaves the start
        # state, so the overlap alone barely tells evolution from none
        moved = 1.0 - abs(np.vdot(psi0, psi)) ** 2
        moved_ref = 1.0 - abs(np.vdot(psi0, ref)) ** 2
        if not abs(moved - moved_ref) <= TRANSFER_RTOL * moved_ref:
            failures.append(f"population moved {moved:.5f}, dispersive model {moved_ref:.5f}")
        if not leak < LEAK_LIMIT:
            failures.append(f"truncation leak {leak:.3e} >= {LEAK_LIMIT:g}")
        return failures


WORKLOADS = {w.name: w for w in (FockPump, CollisionEnsemble, GaussianSweep, ThreeLevel)}
