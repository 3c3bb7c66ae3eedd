"""Command line interface: derive rates, run pumping protocols, scan the
squeezing ratio, and execute the numerical self-check battery.

Every command reads a JSON run config (--config PATH); when the flag is
omitted a bundled microwave-cavity parameter set is used.  A handful of
flags override individual config entries.  Exit codes: 0 success, 1 config
error, 2 hard validation failure (degenerate rates, truncation too small, or
too large to fit in memory), 3 failed self-checks.
"""

import argparse
import json
import math
import os
import sys
import tempfile
import warnings
from dataclasses import dataclass, fields, replace
from importlib import resources
from typing import Optional, Sequence

import numpy as np

from .analysis import epr_variances_fock, preparation_time, tmsv_state_vector, transmissivities, truncation_leak
from .dynamics import write_csv
from .gaussian import gaussian_epr_variances, gaussian_tmsv, two_step_reports
from .hilbert import SpaceDescriptor, annihilation_op, basis_state, is_integer
from .model import (
    TWO_PI,
    PhysicalParams,
    build_squeeze_operator,
    derive_rates,
    number,
    spontaneous_decay_estimate,
)
from .protocol import (
    ENGINES,
    ProtocolSpec,
    ProtocolStep,
    build_two_step_protocol,
    mirror_to_b1,
    pump_down_time,
    run_protocol,
    two_step_schedule,
    validate_regime,
)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_INVALID = 2
EXIT_CHECKS = 3

_BUNDLED_CONFIG = "microwave_rydberg.json"
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
    """Physics parameters plus the run options shared by all commands.

    The field names are the config keys and the command-line flag dests,
    and the defaults here are the only defaults.  r_a_per_s, tau_s and
    theta1_hz are fig2's rate inputs: they reproduce the millisecond
    preparation scale, but r_a*tau exceeds the one-atom collision regime,
    so the curve is an analytic estimate, not a collision-model run.
    """

    params: PhysicalParams
    steps: Optional[tuple] = None
    engine: str = "fock"
    seed: int = 0
    truncation: tuple = (15, 15)
    n_target: float = 0.1
    sample_count: int = 51
    durations: Optional[tuple] = None
    output_path: Optional[str] = None
    r_grid: tuple = tuple(round(0.05 * i, 10) for i in range(1, 20))
    r_a_per_s: float = 1.3e5
    tau_s: float = 2.5e-5
    theta1_hz: float = 2000.0


_CONFIG_KEYS = frozenset(f.name for f in fields(RunConfig))


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
    return PhysicalParams.from_hz_dict(data)


def _integer(key: str, value) -> int:
    # whole floats such as 7.0 pass; 2.7, strings, bools and None do not
    if is_integer(value) or isinstance(value, float) and value.is_integer():
        return int(value)
    raise ConfigError(f"{key} must be an integer, got {value!r}")


def _numbers(key: str, value) -> tuple:
    if not isinstance(value, (list, tuple)):
        raise ConfigError(f"{key} must be a list of numbers, got {value!r}")
    return tuple(number(key, x) for x in value)


def load_run_config(path: Optional[str], args=None) -> RunConfig:
    """Parse a config file (bundled set when path is None) and fold in any
    overriding command-line flags: a flag that is given replaces the
    config key of its dest.  A value the model refuses is a ConfigError."""
    try:
        data = _read_config_data(path)

        steps = None
        if "steps" in data:
            raw = data.pop("steps")
            if not isinstance(raw, list) or len(raw) != 2:
                raise ConfigError("steps must list exactly two parameter tables")
            steps = tuple(_params_from(item, "steps entry") for item in raw)
        if "params" in data:
            params = _params_from(data.pop("params"), "params")
        elif steps is not None:
            params = steps[0]
        else:
            raise ConfigError("config needs a 'params' table (or a 'steps' pair)")
        if args is not None:
            data.update((k, v) for k, v in vars(args).items() if k in _CONFIG_KEYS and v is not None)
        cfg = replace(RunConfig(params=params, steps=steps), **data)

        if cfg.engine not in ENGINES:
            raise ConfigError(f"engine must be one of {ENGINES}, got {cfg.engine!r}")
        if not isinstance(cfg.output_path, (str, type(None))):
            raise ConfigError(f"output_path must be a string, got {cfg.output_path!r}")
        if not isinstance(cfg.truncation, (list, tuple)):
            raise ConfigError(f"truncation must be two positive integers, got {cfg.truncation!r}")
        truncation = tuple(_integer("truncation", n) for n in cfg.truncation)
        if len(truncation) != 2 or min(truncation) < 1:
            raise ConfigError(f"truncation must be two positive integers, got {truncation!r}")
        seed = _integer("seed", cfg.seed)
        if seed < 0:
            raise ConfigError(f"seed must be nonnegative, got {seed}")
        sample_count = _integer("sample_count", cfg.sample_count)
        if sample_count < 1:
            raise ConfigError(f"sample_count must be at least 1, got {sample_count}")

        durations = cfg.durations
        if durations is not None:
            durations = _numbers("durations", durations)
            if len(durations) != 2 or not all(0.0 <= t < math.inf for t in durations):
                raise ConfigError(f"durations must give two finite nonnegative times, got {list(durations)}")

        r_grid = _numbers("r_grid", cfg.r_grid)
        if not r_grid:
            raise ConfigError("r_grid must not be empty")
        for r in r_grid:
            if not 0.0 < r < 1.0:
                raise ConfigError(f"r values must lie strictly between 0 and 1, got {r:g}")

        positive = {}
        for key in ("n_target", "r_a_per_s", "tau_s", "theta1_hz"):
            positive[key] = number(key, getattr(cfg, key))
            if not 0.0 < positive[key] < math.inf:
                raise ConfigError(f"{key} must be positive and finite, got {positive[key]!r}")

        return replace(cfg, truncation=truncation, seed=seed, sample_count=sample_count, durations=durations,
                       r_grid=r_grid, **positive)
    except ValueError as exc:
        raise ConfigError(str(exc))


def _as_step1(p: PhysicalParams) -> PhysicalParams:
    # a params table whose strong channel is the second one is step 2 of its mirror
    return mirror_to_b1(p) if derive_rates(p).channel == "b2" else p


def _two_step_spec(cfg: RunConfig, step1: PhysicalParams) -> ProtocolSpec:
    return build_two_step_protocol(step1, durations=cfg.durations, engine=cfg.engine, seed=cfg.seed,
                                   truncation=cfg.truncation, n_target=cfg.n_target)


def build_spec(cfg: RunConfig) -> ProtocolSpec:
    """Protocol from the config: an explicit steps pair is taken as-is, a
    single params table goes through the two-step builder (mirrored into
    the step-1 slot when its strong channel is the second one).  Without
    durations each step lasts its pump_down_time."""
    if cfg.steps is not None:
        durations = cfg.durations or [pump_down_time(derive_rates(p), cfg.n_target) for p in cfg.steps]
        steps = [ProtocolStep(p, t) for p, t in zip(cfg.steps, durations)]
        return ProtocolSpec(steps=steps, engine=cfg.engine, seed=cfg.seed, truncation=cfg.truncation)
    return _two_step_spec(cfg, _as_step1(cfg.params))


def _write_json(path: Optional[str], payload: dict) -> None:
    text = json.dumps(payload, indent=2) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", newline="\n") as fh:
            fh.write(text)
        print(f"wrote {path}")


def cmd_derive(cfg: RunConfig) -> int:
    d = derive_rates(cfg.params)
    prep = None
    if d.gamma > 0.0 and d.r > 0.0:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            prep = preparation_time(d.r, d.gamma, cfg.n_target)
    # the regime of the run simulate makes; without a pump-down time that run never ends
    if d.r == 0.0 and cfg.durations is None:
        regime = validate_regime([(cfg.params, d, math.inf)])
    else:
        regime = validate_regime([(step.params, step.derived, step.duration) for step in build_spec(cfg).steps])
    payload = {
        "theta1_hz": d.theta1 / TWO_PI,
        "theta2_hz": d.theta2 / TWO_PI,
        "r": d.r,
        "epsilon": d.epsilon,
        "theta_b_hz": d.theta_b / TWO_PI,
        "gamma_per_s": d.gamma,
        "channel": d.channel,
        "n_bar_target": d.r**2 / (1.0 - d.r**2),
        "regime_ok": all(c["passed"] for c in regime.values()),
        "regime": regime,
    }
    if prep is not None:
        payload["t_step_s"] = prep.t_step
        payload["t_total_s"] = prep.t_total
    _write_json(cfg.output_path, payload)
    return EXIT_OK


def cmd_simulate(cfg: RunConfig, csv_path: str, json_path: str) -> int:
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


def cmd_fig2(cfg: RunConfig, out: str, svg_path: Optional[str]) -> int:
    theta1, r = TWO_PI * cfg.theta1_hz, np.array(cfg.r_grid)
    with warnings.catch_warnings():
        # rows at or below the target have nothing to pump and read 2T = 0
        warnings.simplefilter("ignore")
        # theta_b**2 = theta1**2 (1 - r**2) at fixed strong-channel rate
        prep = preparation_time(r, cfg.r_a_per_s * theta1**2 * (1.0 - r * r) * cfg.tau_s**2, cfg.n_target)

    write_csv(out, ["r", "n_bar", "total_time_2T"], zip(r, prep.n_bar_initial, prep.t_total))
    print(f"wrote {out}")
    if svg_path is not None:
        _write_svg(svg_path, r, {"n_bar": prep.n_bar_initial, "total_time_2T": prep.t_total}, "r")
        print(f"wrote {svg_path}")
    return EXIT_OK


def cmd_sweep(cfg: RunConfig, out: str) -> int:
    if cfg.steps is not None:
        raise ConfigError("sweep rescales one params table; it cannot scan a steps pair")
    p = _as_step1(cfg.params)
    d0 = derive_rates(p)
    if d0.theta2 == 0.0:
        raise ValueError("sweep needs a nonzero weak-channel rate to rescale")

    # each point's weak drive rescales theta2 to r * theta1 (a drive too large to hold is inf, refused)
    omega2 = [p.omega2 * (r * d0.theta1 / d0.theta2) for r in cfg.r_grid]
    # each row carries its point's regime and leak flags, so the warnings of a long scan are not
    # repeated on stderr; the gaussian pass still shows numpy's, which no point of it should raise
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning if cfg.engine == "gaussian" else Warning)
        # a fock or collision row reads its point's final report, which one sample per step gives
        # exactly; the points run before the grid's array pass, so a grid is refused at its first bad point
        reports = [run_protocol(_two_step_spec(cfg, replace(p, omega2=weak)), samples_per_step=1)[1]
                   for weak in omega2] if cfg.engine != "gaussian" else []
        # one params table holds the whole grid, which each rule reads per element
        steps = two_step_schedule(replace(p, omega2=np.array(omega2)), cfg.durations, cfg.n_target)
    (_, d, t1), (_, _, t2) = steps
    r = np.array(cfg.r_grid)
    ok = np.all([np.broadcast_to(c["passed"], r.shape) for c in validate_regime(steps).values()], axis=0)
    if cfg.engine == "gaussian":
        eta1, eta2 = (transmissivities(s.gamma, t, mode) for mode, (_, s, t) in zip((1, 2), steps))
        *finals, leaks = (*two_step_reports(d.epsilon, eta1, eta2), 0.0 * r)
    else:
        *finals, leaks = zip(*((x.duan_sum, x.n1_mean, x.n2_mean, x.fidelity, x.truncation_leak) for x in reports))
    rows = zip(r, d.epsilon, d.gamma, np.broadcast_to(t1 + t2, r.shape), *finals, ok.astype(int), leaks)
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

    space = SpaceDescriptor(1, 30, 30)
    eps = 0.5
    squeeze = build_squeeze_operator(space, eps).matrix
    a1 = annihilation_op(space, 1).matrix
    a2 = annihilation_op(space, 2).matrix
    # elements between low-lying Fock states; the identity holds only while the block's columns
    # S|n1,n2> stay inside the truncation, so a leak above 1e-8 fails it at any tolerance scale
    block = [space.index(0, n1, n2) for n1 in range(5) for n2 in range(5)]
    columns = squeeze[:, block]
    sel = np.ix_(block, block)
    closed = math.cosh(eps) * a1[sel] - math.sinh(eps) * a2.conj().T[sel]
    residual = float(np.max(np.abs(columns.conj().T @ a1 @ columns - closed)))
    contained = max(truncation_leak(column, space) for column in columns.T) <= 1e-8
    checks.append(("bogoliubov_action", residual if contained else math.inf, 1e-6))

    vac = basis_state(space, 0, 0, 0)
    target = tmsv_state_vector(space, eps)
    overlap = float(abs(np.vdot(target, squeeze.conj().T @ vac)) ** 2)
    checks.append(("tmsv_from_squeeze", 1.0 - overlap, 1e-9))

    eps6 = math.atanh(0.6)
    sp20 = SpaceDescriptor(1, 20, 20)
    psi = build_squeeze_operator(sp20, eps6).matrix.conj().T @ basis_state(sp20, 0, 0, 0)
    vf = epr_variances_fock(psi, sp20)
    checks.append(("epr_variance_fock", abs(vf["v_x_minus"] - 0.125), 1e-6))

    vg = gaussian_epr_variances(gaussian_tmsv(eps6))
    checks.append(("epr_variance_gaussian", abs(vg["v_x_minus"] - 0.125), 1e-12))

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
    spec_f = build_two_step_protocol(base, durations=(t_step, t_step), engine="fock", truncation=(12, 12))
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

    spec_c = build_two_step_protocol(base, durations=(30.0, 30.0), engine="collision", seed=7, truncation=(6, 6))
    blobs = []
    with tempfile.TemporaryDirectory() as tmp:
        for name in ("a.csv", "b.csv"):
            path = os.path.join(tmp, name)
            traj, _ = run_protocol(spec_c, samples_per_step=5)
            traj.to_csv(path)
            with open(path, "rb") as fh:
                blobs.append(fh.read())
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
        print(json.dumps(summary))
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


def _list_arg(text: str) -> tuple:
    # the numbers of a list flag; load_run_config checks them as it checks the config's list
    try:
        return tuple(float(x) for x in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated numbers, got {text!r}")


def _add_common(sp) -> None:
    # each dest is a RunConfig field, which the flag overrides
    sp.add_argument("--seed", type=int, metavar="N", help="RNG seed (default 0)")
    sp.add_argument("--engine", choices=ENGINES, help="simulation engine")
    sp.add_argument("--truncation", type=_list_arg, metavar="N1,N2", help="Fock levels per mode")
    sp.add_argument("--out", dest="output_path", metavar="PATH", help="output path (or prefix for simulate)")
    sp.add_argument("--n-target", type=float, dest="n_target", metavar="X", help="pump-down target occupation")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="cavsqueeze", description="Two-mode squeezed cavity-field protocol toolkit.")
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    def command(name: str, text: str):
        sp = sub.add_parser(name, help=text)
        sp.add_argument("--config", metavar="PATH", help="JSON run config (bundled set when omitted)")
        _add_common(sp)
        return sp

    command("derive", "print derived rates and the validity report as JSON")
    command("simulate", "run the two-step protocol; write trajectory CSV and report JSON")
    sp = command("fig2", "preparation-time and occupation curves versus the squeezing ratio r")
    sp.add_argument("--r-grid", type=_list_arg, dest="r_grid", metavar="R1,R2,...", help="ratio grid")
    sp.add_argument("--svg", metavar="PATH", help="also write a line-plot SVG")
    sp = command("validate", "run the numerical self-check battery")
    sp.add_argument("--tolerance-scale", type=float, default=1.0, dest="tolerance_scale", metavar="S",
                    help="multiply every check tolerance by S (default 1)")
    sp = command("sweep", "scan the ratio r with one protocol run per grid point")
    sp.add_argument("--r-grid", type=_list_arg, dest="r_grid", metavar="R1,R2,...", help="ratio grid")
    return parser


def _outputs(args, cfg: RunConfig) -> list:
    """The files the command writes, None where it prints instead."""
    if args.command in ("derive", "validate"):
        return [cfg.output_path]
    if args.command == "simulate":
        prefix = cfg.output_path if cfg.output_path is not None else "run"
        return [prefix + ".csv", prefix + ".json"]
    out = cfg.output_path if cfg.output_path is not None else args.command + ".csv"
    return [out, args.svg] if args.command == "fig2" else [out]


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        cfg = load_run_config(args.config, args)
        outputs = _outputs(args, cfg)
        for path in outputs:
            if None not in (path, args.config) and os.path.realpath(path) == os.path.realpath(args.config):
                raise ConfigError(f"output {path} would overwrite the config {args.config}")
            if path is not None and not os.path.isdir(os.path.dirname(path) or os.curdir):
                raise ConfigError(f"output {path}: directory {os.path.dirname(path)} does not exist")
        if args.command == "derive":
            return cmd_derive(cfg)
        if args.command == "simulate":
            return cmd_simulate(cfg, *outputs)
        if args.command == "fig2":
            return cmd_fig2(cfg, *outputs)
        if args.command == "validate":
            return cmd_validate(args.tolerance_scale, *outputs)
        return cmd_sweep(cfg, *outputs)
    except (ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID if isinstance(exc, ValueError) else EXIT_CONFIG
    except MemoryError as exc:
        print(f"error: {exc}; lower --truncation to fit the run in memory", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
