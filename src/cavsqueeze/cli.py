"""Command line interface: derive rates, run pumping protocols, scan the
squeezing ratio, and execute the numerical self-check battery.

Every command reads a JSON run config (--config PATH); when the flag is
omitted a bundled microwave-cavity parameter set is used.  A handful of
flags override individual config entries.  Exit codes: 0 success, 1 config
error, 2 hard validation failure (degenerate rates, truncation too small),
3 failed self-checks.
"""

import argparse
import json
import math
import os
import sys
import tempfile
import warnings
from dataclasses import dataclass, replace
from importlib import resources
from typing import Optional, Sequence

import numpy as np

from .analysis import epr_variances_fock, preparation_time, tmsv_state_vector
from .dynamics import write_csv
from .gaussian import gaussian_epr_variances, gaussian_tmsv
from .hilbert import SpaceDescriptor, annihilation_op, basis_state
from .model import (
    TWO_PI,
    PhysicalParams,
    build_squeeze_operator,
    derive_rates,
    spontaneous_decay_estimate,
)
from .protocol import (
    ENGINES,
    ProtocolSpec,
    ProtocolStep,
    build_two_step_protocol,
    mirror_to_b1,
    run_protocol,
    validate_regime,
)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_INVALID = 2
EXIT_CHECKS = 3

_BUNDLED_CONFIG = "microwave_rydberg.json"
_CONFIG_KEYS = {
    "params",
    "steps",
    "engine",
    "seed",
    "truncation",
    "n_target",
    "sample_count",
    "durations",
    "output_path",
    "r_grid",
    "r_a_per_s",
    "tau_s",
    "theta1_hz",
}

# Documented rate inputs for the ratio-scan timing curve.  They reproduce
# the millisecond preparation scale; r_a*tau exceeds the one-atom collision
# regime, so the curve is an analytic estimate, not a collision-model run.
FIG2_DEFAULTS = {"r_a_per_s": 1.3e5, "tau_s": 2.5e-5, "theta1_hz": 2000.0}
_DEFAULT_R_GRID = tuple(round(0.05 * i, 10) for i in range(1, 20))

_SVG_COLORS = ("#2c6fbb", "#c23b22", "#3a7d44", "#8e5ba6")


class ConfigError(Exception):
    """Unreadable, unparsable, or inconsistent run configuration."""


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # bad flags are config errors (exit 1), not argparse's default exit 2
    def error(self, message):
        self.print_usage(sys.stderr)
        raise _UsageError(message)


@dataclass(frozen=True)
class RunConfig:
    """Physics parameters plus the run options shared by all commands."""

    params: PhysicalParams
    steps: Optional[tuple] = None
    engine: str = "fock"
    seed: int = 0
    truncation: tuple = (15, 15)
    n_target: float = 0.1
    sample_count: int = 51
    durations: Optional[tuple] = None
    output_path: Optional[str] = None
    r_grid: Optional[tuple] = None
    r_a_per_s: Optional[float] = None
    tau_s: Optional[float] = None
    theta1_hz: Optional[float] = None


def _read_config_data(path: Optional[str]) -> dict:
    if path is None:
        label = "bundled config"
        text = resources.files("cavsqueeze").joinpath("data", _BUNDLED_CONFIG).read_text()
    else:
        label = path
        try:
            with open(path) as fh:
                text = fh.read()
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}")
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{label} is not valid JSON: {exc}")
    if not isinstance(data, dict):
        raise ConfigError(f"{label} must hold a JSON object")
    unknown = sorted(set(data) - _CONFIG_KEYS)
    if unknown:
        raise ConfigError(f"unknown config keys {unknown}")
    return data


def _params_from(data: dict, key: str) -> PhysicalParams:
    if not isinstance(data, dict):
        raise ConfigError(f"{key} must be a mapping of parameter keys")
    try:
        return PhysicalParams.from_hz_dict(data)
    except (ValueError, TypeError) as exc:
        raise ConfigError(str(exc))


def _number(key: str, value):
    try:
        return float(value)
    except (TypeError, ValueError):
        raise ConfigError(f"{key} must be a number, got {value!r}")


def _integer(key: str, value) -> int:
    # whole floats such as 7.0 pass; 2.7, strings, bools and None do not
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise ConfigError(f"{key} must be an integer, got {value!r}")


def _numbers(key: str, value) -> tuple:
    if not isinstance(value, (list, tuple)):
        raise ConfigError(f"{key} must be a list of numbers, got {value!r}")
    return tuple(_number(key, x) for x in value)


def load_run_config(path: Optional[str], args=None) -> RunConfig:
    """Parse a config file (bundled set when path is None) and fold in any
    overriding command-line flags."""
    data = _read_config_data(path)

    steps = None
    if "steps" in data:
        raw = data["steps"]
        if not isinstance(raw, list) or len(raw) != 2:
            raise ConfigError("steps must list exactly two parameter tables")
        steps = tuple(_params_from(item, "steps entry") for item in raw)
    if "params" in data:
        params = _params_from(data["params"], "params")
    elif steps is not None:
        params = steps[0]
    else:
        raise ConfigError("config needs a 'params' table (or a 'steps' pair)")

    engine = data.get("engine", "fock")
    seed = data.get("seed", 0)
    truncation = data.get("truncation", (15, 15))
    n_target = data.get("n_target", 0.1)
    output_path = data.get("output_path")
    r_grid = data.get("r_grid")

    if args is not None:
        if getattr(args, "engine", None) is not None:
            engine = args.engine
        if getattr(args, "seed", None) is not None:
            seed = args.seed
        if getattr(args, "truncation", None) is not None:
            truncation = args.truncation
        if getattr(args, "n_target", None) is not None:
            n_target = args.n_target
        if getattr(args, "out", None) is not None:
            output_path = args.out
        if getattr(args, "r_grid", None) is not None:
            r_grid = args.r_grid

    if engine not in ENGINES:
        raise ConfigError(f"engine must be one of {ENGINES}, got {engine!r}")
    if not isinstance(truncation, (list, tuple)):
        raise ConfigError(f"truncation must be two positive integers, got {truncation!r}")
    truncation = tuple(_integer("truncation", n) for n in truncation)
    if len(truncation) != 2 or min(truncation) < 1:
        raise ConfigError(f"truncation must be two positive integers, got {truncation!r}")
    seed = _integer("seed", seed)
    if seed < 0:
        raise ConfigError(f"seed must be nonnegative, got {seed}")
    n_target = _number("n_target", n_target)
    if not n_target > 0.0:
        raise ConfigError(f"n_target must be positive, got {n_target!r}")
    sample_count = _integer("sample_count", data.get("sample_count", 51))
    if sample_count < 1:
        raise ConfigError(f"sample_count must be at least 1, got {sample_count}")

    durations = data.get("durations")
    if durations is not None:
        durations = _numbers("durations", durations)
        if len(durations) != 2 or min(durations) < 0.0:
            raise ConfigError("durations must give two nonnegative times")

    if r_grid is not None:
        r_grid = _numbers("r_grid", r_grid)
        if not r_grid:
            raise ConfigError("r_grid must not be empty")
        for r in r_grid:
            if not 0.0 < r < 1.0:
                raise ConfigError(f"r values must lie strictly between 0 and 1, got {r:g}")

    extras = {}
    for key in ("r_a_per_s", "tau_s", "theta1_hz"):
        if key in data:
            value = _number(key, data[key])
            if not value > 0.0:
                raise ConfigError(f"{key} must be positive, got {value!r}")
            extras[key] = value

    return RunConfig(
        params=params,
        steps=steps,
        engine=engine,
        seed=seed,
        truncation=truncation,
        n_target=n_target,
        sample_count=sample_count,
        durations=durations,
        output_path=output_path,
        r_grid=r_grid,
        r_a_per_s=extras.get("r_a_per_s"),
        tau_s=extras.get("tau_s"),
        theta1_hz=extras.get("theta1_hz"),
    )


def _default_duration(d, n_target: float) -> float:
    if d.gamma <= 0.0 or d.r <= 0.0:
        return 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return preparation_time(d.r, d.gamma, n_target).t_step


def build_spec(cfg: RunConfig) -> ProtocolSpec:
    """Protocol from the config: an explicit steps pair is taken as-is, a
    single params table goes through the two-step builder (mirrored into
    the step-1 slot when its strong channel is the second one)."""
    if cfg.steps is not None:
        built = []
        for i, p in enumerate(cfg.steps):
            d = derive_rates(p)
            atom = "g" if d.channel == "b1" else "h"
            if cfg.durations is not None:
                duration = cfg.durations[i]
            else:
                duration = _default_duration(d, cfg.n_target)
            built.append(
                ProtocolStep(params=p, atom_state=atom, duration=duration, channel=d.channel)
            )
        return ProtocolSpec(
            steps=built, engine=cfg.engine, seed=cfg.seed, truncation=cfg.truncation
        )
    p = cfg.params
    if derive_rates(p).channel == "b2":
        p = mirror_to_b1(p)
    return build_two_step_protocol(
        p,
        durations=cfg.durations,
        engine=cfg.engine,
        seed=cfg.seed,
        truncation=cfg.truncation,
        n_target=cfg.n_target,
    )


def _json_default(obj):
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj).__name__}")


def _write_json(path: Optional[str], payload: dict) -> None:
    text = json.dumps(payload, indent=2, default=_json_default) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", newline="\n") as fh:
            fh.write(text)
        print(f"wrote {path}")


def cmd_derive(cfg: RunConfig) -> int:
    d = derive_rates(cfg.params)
    report = validate_regime(cfg.params, d)
    payload = {
        "theta1_hz": d.theta1 / TWO_PI,
        "theta2_hz": d.theta2 / TWO_PI,
        "r": d.r,
        "epsilon": d.epsilon,
        "theta_b_hz": d.theta_b / TWO_PI,
        "gamma_per_s": d.gamma,
        "channel": d.channel,
        "n_bar_target": d.r**2 / (1.0 - d.r**2),
        "regime_ok": report.all_passed,
        "regime": report.to_json(),
    }
    if d.gamma > 0.0 and d.r > 0.0:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            prep = preparation_time(d.r, d.gamma, cfg.n_target)
        payload["t_step_s"] = prep.t_step
        payload["t_total_s"] = prep.t_total
    _write_json(cfg.output_path, payload)
    return EXIT_OK


def cmd_simulate(cfg: RunConfig, config_path: Optional[str]) -> int:
    prefix = cfg.output_path if cfg.output_path is not None else "run"
    csv_path = prefix + ".csv"
    json_path = prefix + ".json"
    if config_path is not None:
        config_real = os.path.realpath(config_path)
        for path in (csv_path, json_path):
            if os.path.realpath(path) == config_real:
                raise ConfigError(f"output {path} would overwrite the config {config_path}")
    spec = build_spec(cfg)
    traj, report = run_protocol(spec, samples_per_step=cfg.sample_count)
    traj.to_csv(csv_path)
    _write_json(
        json_path,
        {
            "spec": spec.to_json(),
            "report": report.to_json(),
            "diagnostics": traj.diagnostics,
        },
    )
    print(f"wrote {csv_path}")
    print(
        f"fidelity {report.fidelity:.6g}  duan_sum {report.duan_sum:.6g}  "
        f"n ({report.n1_mean:.6g}, {report.n2_mean:.6g})"
    )
    return EXIT_OK


def cmd_fig2(cfg: RunConfig, svg_path: Optional[str]) -> int:
    r_a = cfg.r_a_per_s if cfg.r_a_per_s is not None else FIG2_DEFAULTS["r_a_per_s"]
    tau = cfg.tau_s if cfg.tau_s is not None else FIG2_DEFAULTS["tau_s"]
    theta1 = TWO_PI * (cfg.theta1_hz if cfg.theta1_hz is not None else FIG2_DEFAULTS["theta1_hz"])
    grid = cfg.r_grid if cfg.r_grid is not None else _DEFAULT_R_GRID

    rows = []
    with warnings.catch_warnings():
        # rows at or below the target have nothing to pump and read 2T = 0
        warnings.simplefilter("ignore")
        for r in grid:
            # theta_b**2 = theta1**2 (1 - r**2) at fixed strong-channel rate
            prep = preparation_time(r, r_a * theta1**2 * (1.0 - r * r) * tau**2, cfg.n_target)
            rows.append((r, prep.n_bar_initial, prep.t_total))

    out = cfg.output_path if cfg.output_path is not None else "fig2.csv"
    write_csv(out, ["r", "n_bar", "total_time_2T"], rows)
    print(f"wrote {out}")
    if svg_path is not None:
        series = {
            "n_bar": [row[1] for row in rows],
            "total_time_2T": [row[2] for row in rows],
        }
        _write_svg(svg_path, [row[0] for row in rows], series, "r")
        print(f"wrote {svg_path}")
    return EXIT_OK


def cmd_sweep(cfg: RunConfig) -> int:
    p = cfg.params
    if derive_rates(p).channel == "b2":
        p = mirror_to_b1(p)
    d0 = derive_rates(p)
    if d0.theta2 == 0.0:
        raise ValueError("sweep needs a nonzero weak-channel rate to rescale")
    grid = cfg.r_grid if cfg.r_grid is not None else _DEFAULT_R_GRID

    rows = []
    # each row carries its point's regime and leak flags, so the warnings of
    # a long scan are not repeated on stderr
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for r in grid:
            scaled = replace(p, omega2=p.omega2 * (r * d0.theta1 / d0.theta2))
            spec = build_two_step_protocol(
                scaled,
                durations=cfg.durations,
                engine=cfg.engine,
                seed=cfg.seed,
                truncation=cfg.truncation,
                n_target=cfg.n_target,
            )
            # a row is the final report, which one sample per step gives exactly
            traj, report = run_protocol(spec, samples_per_step=1)
            d = derive_rates(scaled)
            rows.append((
                r,
                d.epsilon,
                d.gamma,
                sum(s.duration for s in spec.steps),
                report.duan_sum,
                report.n1_mean,
                report.n2_mean,
                report.fidelity,
                0 if traj.diagnostics["regime_failures"] else 1,
                report.truncation_leak,
            ))

    out = cfg.output_path if cfg.output_path is not None else "sweep.csv"
    columns = ["r", "epsilon", "gamma_per_s", "t_total_s", "duan_sum", "n1_mean", "n2_mean", "fidelity",
               "regime_ok", "truncation_leak"]
    write_csv(out, columns, rows)
    print(f"wrote {out}")
    return EXIT_OK


def _battery() -> list:
    """Numerical self-checks: (name, measured value, base tolerance)."""
    checks = []
    bundle = load_run_config(None)

    d = derive_rates(bundle.params)
    checks.append(("raman_rates", abs(d.theta1 / TWO_PI - 2000.0), 1e-9))

    space = SpaceDescriptor(1, 25, 25)
    eps = 0.5
    squeeze = build_squeeze_operator(space, eps).matrix
    a1 = annihilation_op(space, 1).matrix
    a2 = annihilation_op(space, 2).matrix
    conjugated = squeeze.conj().T @ a1 @ squeeze
    closed = math.cosh(eps) * a1 - math.sinh(eps) * a2.conj().T
    # elements between low-lying Fock states; the truncated unitary feels
    # the cutoff well inside the space, so the checked block stays small
    block = [space.index(0, n1, n2) for n1 in range(5) for n2 in range(5)]
    residual = float(np.max(np.abs((conjugated - closed)[np.ix_(block, block)])))
    checks.append(("bogoliubov_action", residual, 1e-6))

    vac = basis_state(space, 0, 0, 0)
    target = tmsv_state_vector(space, eps)
    overlap = float(abs(np.vdot(target, squeeze.conj().T @ vac)) ** 2)
    checks.append(("tmsv_from_squeeze", 1.0 - overlap, 1e-9))

    eps6 = math.atanh(0.6)
    sp20 = SpaceDescriptor(1, 20, 20)
    psi = build_squeeze_operator(sp20, eps6).matrix.conj().T @ basis_state(sp20, 0, 0, 0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        vf = epr_variances_fock(psi, sp20)
    checks.append(("epr_variance_fock", abs(vf.v_x_minus - 0.125), 1e-6))

    vg = gaussian_epr_variances(gaussian_tmsv(eps6))
    checks.append(("epr_variance_gaussian", abs(vg.v_x_minus - 0.125), 1e-12))

    decaying = replace(bundle.params, gamma_e=2.0)
    est = spontaneous_decay_estimate(decaying)
    checks.append(("decay_estimate", abs(est.rate / decaying.gamma_e - 1.6e-3), 1e-12))

    base = PhysicalParams(
        omega1=math.sqrt(50.0),
        omega2=math.sqrt(18.0),
        g1=math.sqrt(50.0),
        g2=math.sqrt(18.0),
        delta1=-100.0,
        delta2=100.0,
        gamma_e=0.0,
        r_a=0.5,
        tau=0.3,
    )
    db = derive_rates(base)
    t_step = preparation_time(db.r, db.gamma, 0.01).t_step
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        spec_f = build_two_step_protocol(
            base, durations=(t_step, t_step), engine="fock", truncation=(12, 12)
        )
        spec_g = build_two_step_protocol(base, durations=(t_step, t_step), engine="gaussian")
        _, rep_f = run_protocol(spec_f, samples_per_step=11)
        _, rep_g = run_protocol(spec_g, samples_per_step=11)
    gap = max(
        abs(rep_f.duan_sum - rep_g.duan_sum),
        abs(rep_f.n1_mean - rep_g.n1_mean),
        abs(rep_f.n2_mean - rep_g.n2_mean),
        abs(rep_f.v_squeezed - rep_g.v_squeezed),
    )
    checks.append(("cross_engine_agreement", gap, 1e-6))

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        spec_c = build_two_step_protocol(
            base, durations=(30.0, 30.0), engine="collision", seed=7, truncation=(6, 6)
        )
        with tempfile.TemporaryDirectory() as tmp:
            paths = [os.path.join(tmp, name) for name in ("a.csv", "b.csv")]
            for path in paths:
                traj, _ = run_protocol(spec_c, samples_per_step=5)
                traj.to_csv(path)
            blobs = [open(path, "rb").read() for path in paths]
    checks.append(("csv_determinism", 0.0 if blobs[0] == blobs[1] else 1.0, 0.5))

    return checks


def cmd_validate(tolerance_scale: float, out: Optional[str]) -> int:
    if not tolerance_scale > 0.0 or not math.isfinite(tolerance_scale):
        raise ConfigError(f"tolerance scale must be positive and finite, got {tolerance_scale!r}")
    checks = _battery()
    rows = []
    all_passed = True
    for name, value, base_tol in checks:
        tol = base_tol * tolerance_scale
        passed = value <= tol
        all_passed = all_passed and passed
        rows.append({"name": name, "value": value, "tolerance": tol, "passed": passed})
        print(f"{'PASS' if passed else 'FAIL'}  {name:24s} value={value:.3e}  tol={tol:.3e}")
    summary = {"all_passed": all_passed, "tolerance_scale": tolerance_scale, "checks": rows}
    if out is not None:
        _write_json(out, summary)
    else:
        print(json.dumps(summary, default=_json_default))
    return EXIT_OK if all_passed else EXIT_CHECKS


def _write_svg(path: str, xs: Sequence[float], series: dict, x_label: str) -> None:
    """Standalone line plot, one polyline per series; each series is scaled
    to the frame on its own axis, so the legend carries the value range."""
    width, height, margin = 640, 400, 60
    x0, x1 = margin, width - margin
    y0, y1 = height - margin, margin
    xmin, xmax = min(xs), max(xs)
    xspan = (xmax - xmin) or 1.0

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{x0}" y1="{y0}" x2="{x1}" y2="{y0}" stroke="black"/>',
        f'<line x1="{x0}" y1="{y0}" x2="{x0}" y2="{y1}" stroke="black"/>',
        f'<text x="{(x0 + x1) / 2:.1f}" y="{height - 20}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13">{x_label}</text>',
        f'<text x="{x0}" y="{y0 + 18}" text-anchor="middle" font-family="sans-serif" '
        f'font-size="11">{xmin:g}</text>',
        f'<text x="{x1}" y="{y0 + 18}" text-anchor="middle" font-family="sans-serif" '
        f'font-size="11">{xmax:g}</text>',
    ]
    for i, (name, values) in enumerate(series.items()):
        color = _SVG_COLORS[i % len(_SVG_COLORS)]
        ymin, ymax = min(values), max(values)
        yspan = (ymax - ymin) or 1.0
        points = " ".join(
            f"{x0 + (x - xmin) / xspan * (x1 - x0):.2f},"
            f"{y0 - (v - ymin) / yspan * (y0 - y1):.2f}"
            for x, v in zip(xs, values)
        )
        parts.append(
            f'<polyline points="{points}" fill="none" stroke="{color}" stroke-width="1.5"/>'
        )
        parts.append(
            f'<text x="{x1 - 4}" y="{y1 + 16 * i + 12}" text-anchor="end" '
            f'font-family="sans-serif" font-size="12" fill="{color}">'
            f"{name} ({ymin:.4g} .. {ymax:.4g})</text>"
        )
    parts.append("</svg>")
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(parts) + "\n")


def _truncation_arg(text: str):
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"truncation must be N1,N2, got {text!r}")
    try:
        pair = tuple(int(x) for x in parts)
    except ValueError:
        raise argparse.ArgumentTypeError(f"truncation must be two integers, got {text!r}")
    if min(pair) < 1:
        raise argparse.ArgumentTypeError(f"truncation levels must be positive, got {text!r}")
    return pair


def _grid_arg(text: str):
    try:
        values = tuple(float(x) for x in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"grid must be comma-separated numbers, got {text!r}")
    if not values:
        raise argparse.ArgumentTypeError("grid must not be empty")
    return values


def _add_common(sp) -> None:
    sp.add_argument("--config", metavar="PATH", help="JSON run config (bundled set when omitted)")
    sp.add_argument("--seed", type=int, metavar="N", help="RNG seed (default 0)")
    sp.add_argument("--engine", choices=ENGINES, help="simulation engine")
    sp.add_argument("--truncation", type=_truncation_arg, metavar="N1,N2", help="Fock levels per mode")
    sp.add_argument("--out", metavar="PATH", help="output path (or prefix for simulate)")
    sp.add_argument("--n-target", type=float, dest="n_target", metavar="X", help="pump-down target occupation")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="cavsqueeze", description="Two-mode squeezed cavity-field protocol toolkit.")
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    sp = sub.add_parser("derive", help="print derived rates and the validity report as JSON")
    _add_common(sp)
    sp = sub.add_parser("simulate", help="run the two-step protocol; write trajectory CSV and report JSON")
    _add_common(sp)
    sp = sub.add_parser("fig2", help="preparation-time and occupation curves versus the squeezing ratio r")
    _add_common(sp)
    sp.add_argument("--r-grid", type=_grid_arg, dest="r_grid", metavar="R1,R2,...", help="ratio grid")
    sp.add_argument("--svg", metavar="PATH", help="also write a line-plot SVG")
    sp = sub.add_parser("validate", help="run the numerical self-check battery")
    _add_common(sp)
    sp.add_argument(
        "--tolerance-scale",
        type=float,
        default=1.0,
        dest="tolerance_scale",
        metavar="S",
        help="multiply every check tolerance by S (default 1)",
    )
    sp = sub.add_parser("sweep", help="scan the ratio r with one protocol run per grid point")
    _add_common(sp)
    sp.add_argument("--r-grid", type=_grid_arg, dest="r_grid", metavar="R1,R2,...", help="ratio grid")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        cfg = load_run_config(args.config, args)
        if args.command == "derive":
            return cmd_derive(cfg)
        if args.command == "simulate":
            return cmd_simulate(cfg, args.config)
        if args.command == "fig2":
            return cmd_fig2(cfg, args.svg)
        if args.command == "validate":
            return cmd_validate(args.tolerance_scale, args.out)
        return cmd_sweep(cfg)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
