import argparse
import json
import math
import os
import re
import subprocess
import sys
import warnings
from dataclasses import fields, replace
from importlib import resources

import numpy as np
import pytest
import scipy.linalg

import cavsqueeze
from cavsqueeze.analysis import preparation_time
from cavsqueeze.cli import (
    _CONFIG_KEYS,
    ConfigError,
    RunConfig,
    _add_common,
    _as_step1,
    _two_step_spec,
    build_parser,
    build_spec,
    load_run_config,
    main,
)
from cavsqueeze.dynamics import write_csv
from cavsqueeze.gaussian import two_step_reports
from cavsqueeze.model import TWO_PI, PhysicalParams, derive_rates, spontaneous_decay_estimate
from cavsqueeze.protocol import ENGINES, ProtocolSpec, mirror_to_b1, run_protocol, validate_regime
from oracles import two_step_vacuum_reading


def config_dict(**overrides):
    # r = 0.6 set in config units (Hz): theta1 = 0.5 Hz, theta2 = 0.3 Hz,
    # theta_b*tau = 0.05, r_a*tau = 0.1, gamma = 0.01263 per s
    data = {
        "params": {
            "omega1_hz": math.sqrt(50.0),
            "g1_hz": math.sqrt(50.0),
            "omega2_hz": math.sqrt(30.0),
            "g2_hz": math.sqrt(30.0),
            "delta1_hz": -100.0,
            "delta2_hz": 100.0,
            "gamma_e_hz": 0.0,
            "r_a_hz": 5.0,
            "tau_s": 0.02,
        },
    }
    data.update(overrides)
    return data


def steps_config(data):
    # the params table and its mirror given as an explicit steps pair
    p1 = data.pop("params")
    data["steps"] = [p1, mirror_to_b1(PhysicalParams.from_hz_dict(p1)).to_hz_dict()]
    return data


def collision_config(**overrides):
    # r = 0.36 keeps epsilon small enough for six Fock levels
    data = config_dict(engine="collision", truncation=[6, 6], durations=[80.0, 80.0], sample_count=7)
    data["params"].update(omega2_hz=math.sqrt(18.0), g2_hz=math.sqrt(18.0), tau_s=0.05, r_a_hz=1.0)
    data.update(overrides)
    return data


def write_config(tmp_path, data, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def package_env(**extra):
    # a child process's environment that imports this checkout's package
    src = os.path.dirname(os.path.dirname(cavsqueeze.__file__))
    path = [src, os.environ.get("PYTHONPATH", "")]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)), **extra)


def read_csv(path):
    return np.genfromtxt(path, delimiter=",", names=True)


class TestConfigLoading:
    def test_bundled_default(self):
        cfg = load_run_config(None)
        assert cfg.engine == "gaussian"
        assert cfg.seed == 0
        assert cfg.truncation == (15, 15)
        assert cfg.n_target == 0.1
        d = derive_rates(cfg.params)
        assert d.theta1 / TWO_PI == pytest.approx(2000.0, rel=1e-12)
        assert d.channel == "b2"

    def test_unknown_top_level_key(self, tmp_path):
        path = write_config(tmp_path, config_dict(colour="blue"))
        with pytest.raises(ConfigError, match="unknown config keys.*colour"):
            load_run_config(path)

    def test_unknown_parameter_key(self, tmp_path):
        data = config_dict()
        data["params"]["omega3_hz"] = 1.0
        with pytest.raises(ConfigError, match="omega3_hz"):
            load_run_config(write_config(tmp_path, data))

    def test_missing_params_table(self, tmp_path):
        path = write_config(tmp_path, {"engine": "fock"})
        with pytest.raises(ConfigError, match="params"):
            load_run_config(path)

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="not valid JSON"):
            load_run_config(str(path))

    def test_bad_engine(self, tmp_path):
        path = write_config(tmp_path, config_dict(engine="tensor"))
        with pytest.raises(ConfigError, match="engine"):
            load_run_config(path)

    def test_bad_truncation(self, tmp_path):
        path = write_config(tmp_path, config_dict(truncation=[0, 10]))
        with pytest.raises(ConfigError, match="truncation"):
            load_run_config(path)

    def test_bad_n_target(self, tmp_path):
        path = write_config(tmp_path, config_dict(n_target=-0.1))
        with pytest.raises(ConfigError, match="n_target"):
            load_run_config(path)

    def test_bad_durations(self, tmp_path, capsys):
        path = write_config(tmp_path, config_dict(durations=[1.0]))
        with pytest.raises(ConfigError, match="durations"):
            load_run_config(path)
        # json writes NaN and Infinity, which json.loads reads back as floats
        for bad in (math.nan, math.inf):
            path = write_config(tmp_path, config_dict(durations=[bad, 0.001]))
            with pytest.raises(ConfigError, match="durations must give two finite"):
                load_run_config(path)
            assert main(["simulate", "--config", path, "--out", str(tmp_path / "x")]) == 1
            assert capsys.readouterr().err.startswith("error: durations must give")
            assert not (tmp_path / "x.csv").exists()

    def test_bad_grid(self, tmp_path):
        path = write_config(tmp_path, config_dict(r_grid=[0.5, 1.5]))
        with pytest.raises(ConfigError, match="between 0 and 1"):
            load_run_config(path)

    @pytest.mark.parametrize(
        "key, value",
        [
            ("sample_count", "x"),
            ("seed", "s"),
            ("seed", None),
            ("durations", ["a", 1.0]),
            ("durations", 5.0),
            ("n_target", "x"),
            ("r_grid", [0.5, "x"]),
            ("r_a_per_s", "x"),
            ("tau_s", [1.0]),
            ("theta1_hz", "x"),
            ("sample_count", 2.7),
            ("seed", 1.9),
            ("truncation", [7.5, 7]),
            # float() takes JSON true as 1.0, and a path must be a string
            ("output_path", 5),
            ("output_path", ["x"]),
            ("n_target", True),
            ("durations", [True, 0.001]),
            ("r_a_per_s", True),
            ("gamma_e_hz", True),
            # params values that float() refuses with a line naming no key
            ("g1_hz", [1]),
            ("g1_hz", None),
            ("g1_hz", {"a": 1}),
            ("g1_hz", "x"),
        ],
    )
    def test_type_errors_are_config_errors(self, tmp_path, capsys, key, value):
        data = config_dict()
        # a key that is no config key is set in the params table
        (data if key in _CONFIG_KEYS else data["params"])[key] = value
        path = write_config(tmp_path, data)
        with pytest.raises(ConfigError, match=key):
            load_run_config(path)
        assert main(["derive", "--config", path]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {key} must be")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("command", ["derive", "simulate", "sweep", "fig2", "validate"])
    def test_non_string_output_path_exits_1_on_every_command(self, tmp_path, capsys, monkeypatch, command):
        # the bundled config with "output_path": 5, as the CI console-script step runs it
        path = os.path.join(os.path.dirname(__file__), "data", "mistyped_output_path.json")
        monkeypatch.chdir(tmp_path)
        assert main([command, "--config", path]) == 1
        assert capsys.readouterr().err == "error: output_path must be a string, got 5\n"
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("key", ["n_target", "r_a_per_s", "tau_s", "theta1_hz"])
    def test_infinite_value_is_a_config_error(self, tmp_path, capsys, key):
        # inf passes a plain "> 0" check; json reads Infinity back as a float
        path = write_config(tmp_path, config_dict(**{key: math.inf}))
        with pytest.raises(ConfigError, match=f"{key} must be positive and finite, got inf"):
            load_run_config(path)
        assert main(["derive", "--config", path]) == 1
        assert capsys.readouterr().err == f"error: {key} must be positive and finite, got inf\n"

    def test_infinite_n_target_flag_exits_1(self, capsys):
        assert main(["derive", "--n-target", "inf"]) == 1
        assert capsys.readouterr().err == "error: n_target must be positive and finite, got inf\n"

    @pytest.mark.parametrize("engine", ["fock", "gaussian", "collision"])
    def test_negative_seed_is_a_config_error(self, tmp_path, capsys, engine):
        path = write_config(tmp_path, collision_config(seed=-2))
        with pytest.raises(ConfigError, match="seed must be nonnegative, got -2"):
            load_run_config(path)
        rc = main(["simulate", "--engine", engine, "--seed", "-1", "--out", str(tmp_path / "x")])
        assert rc == 1
        assert capsys.readouterr().err == "error: seed must be nonnegative, got -1\n"
        assert not (tmp_path / "x.csv").exists()

    def test_model_error_in_a_steps_entry_is_a_config_error(self, tmp_path, capsys):
        data = steps_config(config_dict())
        data["steps"][1]["omega1_hz"] = "x"
        path = write_config(tmp_path, data)
        with pytest.raises(ConfigError, match="omega1_hz must be a number"):
            load_run_config(path)
        assert main(["derive", "--config", path]) == 1
        assert capsys.readouterr().err == "error: omega1_hz must be a number, got 'x'\n"

    def test_flag_overrides(self):
        args = build_parser().parse_args(
            ["simulate", "--engine", "fock", "--seed", "3", "--truncation", "8,9",
             "--n-target", "0.05", "--out", "prefix"]
        )
        cfg = load_run_config(None, args)
        assert cfg.engine == "fock"
        assert cfg.seed == 3
        assert cfg.truncation == (8, 9)
        assert cfg.n_target == 0.05
        assert cfg.output_path == "prefix"

    def test_schema_is_run_config(self):
        # one schema: the config keys are RunConfig's fields, and every
        # override flag writes the field of the same name
        names = {f.name for f in fields(RunConfig)}
        assert _CONFIG_KEYS == names
        sp = argparse.ArgumentParser()
        _add_common(sp)
        dests = {a.dest for a in sp._actions} - {"help"}
        assert dests and dests <= names

    def test_defaults_come_from_run_config(self, tmp_path):
        data = config_dict()
        cfg = load_run_config(write_config(tmp_path, data))
        defaults = RunConfig(params=cfg.params)
        assert cfg == defaults
        assert cfg.r_grid == tuple(round(0.05 * i, 10) for i in range(1, 20))
        assert (cfg.r_a_per_s, cfg.tau_s, cfg.theta1_hz) == (1.3e5, 2.5e-5, 2000.0)

    def test_steps_pair_default_durations_match_params(self, tmp_path):
        # a steps pair without durations follows the params pump-down rule
        by_params = build_spec(load_run_config(write_config(tmp_path, config_dict(), "a.json")))
        by_steps = build_spec(load_run_config(write_config(tmp_path, steps_config(config_dict()), "b.json")))
        assert by_steps.to_json() == by_params.to_json()
        assert by_steps.steps[0].duration > 0.0

    def test_steps_pair(self, tmp_path):
        p1 = PhysicalParams.from_hz_dict(config_dict()["params"])
        p2 = mirror_to_b1(p1)  # swapped drive pairs: channel b2, same epsilon
        data = {
            "steps": [config_dict()["params"], p2.to_hz_dict()],
            "engine": "gaussian",
            "durations": [1.0, 2.0],
        }
        cfg = load_run_config(write_config(tmp_path, data))
        spec = build_spec(cfg)
        assert [s.channel for s in spec.steps] == ["b1", "b2"]
        assert [s.atom_state for s in spec.steps] == ["g", "h"]
        assert [s.duration for s in spec.steps] == [1.0, 2.0]


class TestMirror:
    def test_bundle_round_trips_as_step_two(self):
        cfg = load_run_config(None)
        partner = mirror_to_b1(cfg.params)
        assert derive_rates(partner).channel == "b1"
        spec = build_spec(cfg)
        # the given parameter set reappears verbatim in the second slot
        assert spec.steps[1].params == cfg.params
        assert derive_rates(partner).epsilon == derive_rates(cfg.params).epsilon


def bundled_config(**params):
    data = json.loads(resources.files("cavsqueeze").joinpath("data", "microwave_rydberg.json").read_text())
    data["params"].update(params)
    return data


def regime_text(out):
    # derive's JSON text from "regime_ok" through the closing brace of "regime"
    start = out.index('  "regime_ok"')
    return out[start:out.index("\n  }", start) + 4]


# derive's text for the bundled config and for a config that fails transit_phase
BUNDLED_REGIME = '''\
  "regime_ok": true,
  "regime": {
    "dispersive_ratio": {
      "value": 0.08333333333333333,
      "limit": 0.1,
      "passed": true
    },
    "transit_phase": {
      "value": 0.09162978572970207,
      "limit": 0.2,
      "passed": true
    },
    "beam_occupancy": {
      "value": 0.1,
      "limit": 0.2,
      "passed": true
    },
    "decay_budget": {
      "value": 0.0,
      "limit": 0.1,
      "passed": true
    }
  }'''

TRANSIT_REGIME = '''\
  "regime_ok": false,
  "regime": {
    "dispersive_ratio": {
      "value": 0.07071067811865475,
      "limit": 0.1,
      "passed": true
    },
    "transit_phase": {
      "value": 0.25132741228718347,
      "limit": 0.2,
      "passed": false
    },
    "beam_occupancy": {
      "value": 0.1,
      "limit": 0.2,
      "passed": true
    },
    "decay_budget": {
      "value": 0.0,
      "limit": 0.1,
      "passed": true
    }
  }'''


class TestDerive:
    def test_regime_text_is_unchanged(self, tmp_path, capsys):
        # the exact text of regime_ok and regime, key order included
        assert main(["derive"]) == 0
        assert regime_text(capsys.readouterr().out) == BUNDLED_REGIME
        # theta_b*tau = 0.4 Hz * 2 pi * 0.1 s = 0.251 > 0.2
        data = config_dict()
        data["params"].update(tau_s=0.1, r_a_hz=1.0)
        assert main(["derive", "--config", write_config(tmp_path, data)]) == 0
        assert regime_text(capsys.readouterr().out) == TRANSIT_REGIME

    def test_decay_budget_at_the_printed_pumping_time(self, tmp_path, capsys):
        # the printed time is the two steps of the run simulate makes, and
        # each step's decay rate is priced over its own half of it
        data = bundled_config(gamma_e_hz=50.0)
        path = write_config(tmp_path, data)
        assert main(["derive", "--config", path, "--n-target", "0.001"]) == 0
        payload = json.loads(capsys.readouterr().out)
        steps = build_spec(load_run_config(path, build_parser().parse_args(
            ["derive", "--n-target", "0.001"]))).steps
        assert payload["t_total_s"] == pytest.approx(0.558, abs=1e-3)
        assert sum(s.duration for s in steps) == pytest.approx(payload["t_total_s"], rel=1e-12)
        want = sum(spontaneous_decay_estimate(s.params).rate * s.duration for s in steps)
        assert payload["regime"]["decay_budget"]["value"] == want
        assert want == pytest.approx(0.2925, abs=1e-4)

    def test_derive_and_simulate_judge_the_same_run(self, tmp_path, capsys):
        # gamma_e = 34 Hz: the params table alone (step 2) would read 0.0970,
        # but the run, with its mirrored step 1, reads 0.1012 and fails
        path = write_config(tmp_path, bundled_config(gamma_e_hz=34.0))
        assert main(["derive", "--config", path]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["regime_ok"] is False
        assert payload["regime"]["decay_budget"]["value"] == pytest.approx(0.1012, abs=1e-4)
        assert not payload["regime"]["decay_budget"]["passed"]
        with pytest.warns(UserWarning, match="decay_budget=0.101"):
            assert main(["simulate", "--config", path, "--out", str(tmp_path / "run")]) == 0
        diagnostics = json.loads((tmp_path / "run.json").read_text())["diagnostics"]
        assert diagnostics["regime_failures"] == ["decay_budget=0.101"]

    def test_zero_weak_drive_derives_an_unbounded_decay_budget(self, tmp_path, capsys):
        # no pumping time is printed, so the decay budget has no bound
        data = bundled_config(omega2_hz=0.0, gamma_e_hz=50.0)
        assert main(["derive", "--config", write_config(tmp_path, data)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["regime_ok"] is False
        assert payload["regime"]["decay_budget"] == {"value": math.inf, "limit": 0.1, "passed": False}
        assert "t_total_s" not in payload

    def test_bundled_rates(self, capsys):
        assert main(["derive"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["theta1_hz"] == pytest.approx(2000.0, rel=1e-12)
        assert payload["theta2_hz"] == pytest.approx(2083.3333333333, rel=1e-10)
        assert payload["channel"] == "b2"
        assert payload["epsilon"] == pytest.approx(math.atanh(0.96), rel=1e-12)
        assert payload["regime_ok"] is True
        assert set(payload["regime"]) == {
            "dispersive_ratio", "transit_phase", "beam_occupancy", "decay_budget",
        }
        assert payload["t_total_s"] == pytest.approx(2 * payload["t_step_s"], rel=1e-12)

    def test_zero_detuning_exits_one(self, tmp_path, capsys):
        data = config_dict()
        data["params"]["delta1_hz"] = 0.0
        rc = main(["derive", "--config", write_config(tmp_path, data)])
        assert rc == 1
        assert "delta1 must be nonzero" in capsys.readouterr().err

    def test_degenerate_channel_exits_two(self, tmp_path, capsys):
        data = config_dict()
        data["params"].update(omega2_hz=math.sqrt(50.0), g2_hz=math.sqrt(50.0))
        rc = main(["derive", "--config", write_config(tmp_path, data)])
        assert rc == 2
        assert "degenerate channel" in capsys.readouterr().err

    def test_out_file(self, tmp_path, capsys):
        out = tmp_path / "rates.json"
        assert main(["derive", "--out", str(out)]) == 0
        assert "wrote" in capsys.readouterr().out
        assert json.loads(out.read_text())["channel"] == "b2"


class TestSimulate:
    def test_fock_r06_reaches_target(self, tmp_path, capsys):
        data = config_dict(engine="fock")
        gamma = derive_rates(PhysicalParams.from_hz_dict(data["params"])).gamma
        t_step = 9.0 / gamma
        data["durations"] = [t_step, t_step]
        prefix = str(tmp_path / "run")
        rc = main(["simulate", "--config", write_config(tmp_path, data), "--out", prefix])
        assert rc == 0
        payload = json.loads((tmp_path / "run.json").read_text())
        assert payload["report"]["fidelity"] >= 0.99
        assert payload["report"]["duan_sum"] == pytest.approx(0.25, abs=1e-3)
        assert payload["diagnostics"]["engine"] == "fock"
        assert payload["diagnostics"]["regime_failures"] == []
        header = (tmp_path / "run.csv").read_text().splitlines()[0]
        assert header.startswith("t,")
        assert "duan_sum" in header

    def test_bundle_gaussian_report(self, tmp_path, capsys):
        prefix = str(tmp_path / "paperlike")
        assert main(["simulate", "--out", prefix]) == 0
        payload = json.loads((tmp_path / "paperlike.json").read_text())
        # residual transformed occupation 0.1 per mode at the default target
        n_inf = math.sinh(math.atanh(0.96)) ** 2
        assert payload["report"]["n1_mean"] == pytest.approx(n_inf - 0.1, rel=1e-6)
        bundle = json.loads(
            resources.files("cavsqueeze").joinpath("data", "microwave_rydberg.json").read_text()
        )
        assert payload["spec"]["steps"][1]["params"] == bundle["params"]
        assert payload["diagnostics"]["engine"] == "gaussian"

    def test_seed_determinism_collision(self, tmp_path):
        path = write_config(tmp_path, collision_config())
        for tag in ("a", "b"):
            assert main(["simulate", "--config", path, "--seed", "7",
                         "--out", str(tmp_path / tag)]) == 0
        blob_a = (tmp_path / "a.csv").read_bytes()
        assert blob_a == (tmp_path / "b.csv").read_bytes()
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
        assert main(["simulate", "--config", path, "--seed", "8",
                     "--out", str(tmp_path / "c")]) == 0
        assert blob_a != (tmp_path / "c.csv").read_bytes()

    def test_truncation_overflow_exits_two(self, tmp_path, capsys):
        rc = main(["simulate", "--engine", "fock", "--truncation", "5,5",
                   "--out", str(tmp_path / "x")])
        assert rc == 2
        assert "too small" in capsys.readouterr().err

    def test_collision_overflow_exits_two(self, tmp_path, capsys):
        # four levels hold the squeeze unitary but not the pumped state
        rc = main(["simulate", "--config", write_config(tmp_path, collision_config()),
                   "--seed", "7", "--truncation", "4,4", "--out", str(tmp_path / "x")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: truncation overflow")
        assert err.count("\n") == 1

    def test_arrival_rate_refused_before_truncation(self, tmp_path, capsys):
        # r_a*tau = 0.4 and three levels are both refused; the collision
        # arrivals are drawn before the squeezed frame is entered
        data = config_dict(engine="collision", truncation=[3, 3])
        data["params"]["r_a_hz"] = 20.0
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            rc = main(["simulate", "--config", write_config(tmp_path, data), "--out", str(tmp_path / "x")])
        assert rc == 2
        assert capsys.readouterr().err == "error: arrival rate violates the one-atom regime: r_a*tau = 0.4 > 0.2\n"

    @pytest.mark.parametrize("table", ["params", "steps"])
    def test_zero_weak_drive_exits_two(self, tmp_path, capsys, table):
        data = config_dict(engine="gaussian")
        data["params"]["omega2_hz"] = 0.0
        if table == "steps":
            data = steps_config(data)
        rc = main(["simulate", "--config", write_config(tmp_path, data),
                   "--out", str(tmp_path / "z")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: zero weak-channel rate")
        assert "give explicit durations" in err
        assert err.count("\n") == 1
        assert not (tmp_path / "z.csv").exists()

    def test_overflow_exits_two_on_fock_and_collision(self, tmp_path, capsys):
        # r = 0.6 at seven levels: both Fock-space engines stop at the same bound
        path = write_config(tmp_path, config_dict(truncation=[7, 7], durations=[2000.0, 2000.0]))
        for engine in ("fock", "collision"):
            rc = main(["simulate", "--config", path, "--engine", engine,
                       "--out", str(tmp_path / engine)])
            assert rc == 2
            err = capsys.readouterr().err
            assert err.startswith("error: truncation overflow at t=")
            assert err.endswith("> 0.001; increase the Fock truncation\n")
            assert err.count("\n") == 1
            assert not (tmp_path / f"{engine}.csv").exists()

    @pytest.mark.parametrize("engine", ["fock", "collision"])
    def test_oversized_truncation_exits_two_with_one_line(self, tmp_path, engine):
        # the child alone runs under a 512 MiB address-space limit, so numpy's
        # allocation fails at once instead of the run taking several GB
        resource = pytest.importorskip("resource")

        def limit():
            resource.setrlimit(resource.RLIMIT_AS, (512 * 2**20, 512 * 2**20))

        done = subprocess.run([sys.executable, "-m", "cavsqueeze", "simulate", "--engine", engine,
                               "--truncation", "200,200", "--out", str(tmp_path / "run")],
                              env=package_env(OPENBLAS_NUM_THREADS="1"), preexec_fn=limit,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 2, done.stderr
        assert done.stderr.startswith("error: Unable to allocate")
        assert done.stderr.endswith("; lower --truncation to fit the run in memory\n")
        assert done.stderr.count("\n") == 1
        assert "Traceback" not in done.stderr
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("suffix", [".json", ".csv"])
    def test_refuses_to_overwrite_config(self, tmp_path, capsys, suffix):
        path = write_config(tmp_path, config_dict(engine="gaussian"), name="run" + suffix)
        before = (tmp_path / ("run" + suffix)).read_bytes()
        # a different spelling of the same prefix must be caught too
        prefix = str(tmp_path / "sub" / ".." / "run")
        (tmp_path / "sub").mkdir()
        rc = main(["simulate", "--config", path, "--out", prefix])
        assert rc == 1
        assert "overwrite" in capsys.readouterr().err
        assert (tmp_path / ("run" + suffix)).read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["run" + suffix, "sub"]

    def test_missing_output_directory_runs_nothing(self, tmp_path, capsys, monkeypatch):
        calls = []
        monkeypatch.setattr("cavsqueeze.cli.run_protocol",
                            lambda *args, **kwargs: calls.append(args) or run_protocol(*args, **kwargs))
        missing = tmp_path / "missing"
        assert main(["simulate", "--engine", "gaussian", "--out", str(missing / "run")]) == 1
        assert capsys.readouterr().err == f"error: output {missing / 'run'}.csv: directory {missing} does not exist\n"
        assert calls == []
        assert not list(tmp_path.iterdir())

    def test_same_columns_on_every_engine(self, tmp_path):
        data = config_dict(durations=[10.0, 10.0], sample_count=3, truncation=[8, 8])
        path = write_config(tmp_path, data)
        headers = []
        for engine in ("fock", "gaussian", "collision"):
            assert main(["simulate", "--config", path, "--engine", engine,
                         "--out", str(tmp_path / engine)]) == 0
            lines = (tmp_path / f"{engine}.csv").read_text().splitlines()
            headers.append(lines[0])
            # the report is read off the same moments as the last record row
            last = dict(zip(lines[0].split(","), map(float, lines[-1].split(","))))
            report = json.loads((tmp_path / f"{engine}.json").read_text())["report"]
            assert (report["duan_sum"], report["n1_mean"], report["n2_mean"]) == (
                last["duan_sum"], last["n_a1"], last["n_a2"]), engine
        assert headers == [
            "t,n_a1,n_b1,n_a2,n_b2,v_x_minus,v_x_plus,v_p_minus,v_p_plus,duan_sum"
        ] * 3

    def test_same_diagnostics_on_every_engine(self, tmp_path):
        path = write_config(tmp_path, config_dict(durations=[10.0, 10.0], sample_count=3, truncation=[8, 8]))
        schema = {"engine", "steps", "regime_failures", "max_truncation_leak",
                  "accepted_arrivals", "dropped_arrivals"}
        for engine in ENGINES:
            assert main(["simulate", "--config", path, "--engine", engine,
                         "--out", str(tmp_path / engine)]) == 0
            diagnostics = json.loads((tmp_path / f"{engine}.json").read_text())["diagnostics"]
            assert set(diagnostics) == schema, engine
            assert (diagnostics["engine"], diagnostics["steps"], diagnostics["regime_failures"]) == (engine, 2, [])
            arrivals = (diagnostics["accepted_arrivals"], diagnostics["dropped_arrivals"])
            if engine == "collision":
                assert arrivals[0] > 0 and arrivals[1] >= 0
            else:
                assert arrivals == (None, None), engine
            if engine == "gaussian":
                assert diagnostics["max_truncation_leak"] == 0.0
            else:
                assert 0.0 < diagnostics["max_truncation_leak"] < 1e-3, engine

    def test_bundled_fock_run_in_the_paper_regime(self, tmp_path, capsys):
        # r = 0.96, 11.755 frame photons per mode, at 85 levels per mode
        assert main(["simulate", "--engine", "fock", "--truncation", "85,85", "--out", str(tmp_path / "paper")]) == 0
        assert "fidelity 0.834004  duan_sum 0.0286783  n (" in capsys.readouterr().out
        leak = json.loads((tmp_path / "paper.json").read_text())["diagnostics"]["max_truncation_leak"]
        assert f"{leak:.6g}" == "0.0178896"

    def test_regime_warning_does_not_abort(self, tmp_path):
        data = config_dict(engine="gaussian", durations=[0.0, 0.0])
        data["params"]["tau_s"] = 0.2  # transit phase 0.5, outside the limit
        path = write_config(tmp_path, data)
        with pytest.warns(UserWarning, match="outside validity regime"):
            rc = main(["simulate", "--config", path, "--out", str(tmp_path / "w")])
        assert rc == 0
        payload = json.loads((tmp_path / "w.json").read_text())
        assert any("transit_phase" in item
                   for item in payload["diagnostics"]["regime_failures"])


class TestFig2:
    def test_default_curve(self, tmp_path):
        out = tmp_path / "curve.csv"
        assert main(["fig2", "--out", str(out)]) == 0
        data = read_csv(out)
        assert data.dtype.names == ("r", "n_bar", "total_time_2T")
        assert data.shape == (19,)
        # fig2 squares r by C pow (math.pow), as preparation_time does; numpy's r**2 is r*r,
        # which rounds otherwise on some doubles
        square = np.array([math.pow(r, 2.0) for r in data["r"]])
        assert np.all(data["n_bar"] == square / (1.0 - square))
        t2 = data["total_time_2T"]
        assert np.all(np.diff(t2) >= 0.0)
        # below the crossover n_bar < n_target there is nothing to pump
        assert np.all(t2[:6] == 0.0)
        assert np.all(t2[6:] > 0.0)
        assert np.all(np.diff(t2[6:]) > 0.0)
        assert 5e-3 <= t2[-1] <= 9e-3  # documented defaults hit the ms scale

    def test_small_r_row(self, tmp_path):
        out = tmp_path / "curve.csv"
        assert main(["fig2", "--out", str(out), "--r-grid", "0.1"]) == 0
        data = np.genfromtxt(out, delimiter=",", skip_header=1)
        assert data[1] == pytest.approx(0.01 / 0.99, rel=1e-12)

    def test_custom_grid_and_svg(self, tmp_path):
        out = tmp_path / "c.csv"
        svg = tmp_path / "c.svg"
        rc = main(["fig2", "--out", str(out), "--svg", str(svg),
                   "--r-grid", "0.2,0.5,0.8"])
        assert rc == 0
        data = read_csv(out)
        assert list(data["r"]) == [0.2, 0.5, 0.8]
        text = svg.read_text()
        assert text.count("<polyline") == 2
        assert "total_time_2T" in text
        assert text.startswith("<svg")

    def test_svg_in_a_missing_directory_writes_no_csv(self, tmp_path, capsys):
        svg = tmp_path / "missing" / "x.svg"
        assert main(["fig2", "--out", str(tmp_path / "f.csv"), "--svg", str(svg)]) == 1
        assert capsys.readouterr().err == f"error: output {svg}: directory {svg.parent} does not exist\n"
        assert not list(tmp_path.iterdir())

    def test_grid_outside_unit_interval(self, tmp_path, capsys):
        rc = main(["fig2", "--out", str(tmp_path / "x.csv"), "--r-grid", "0.5,1.5"])
        assert rc == 1
        assert "between 0 and 1" in capsys.readouterr().err

    @pytest.mark.parametrize("n_target", [0.1, 0.5])
    def test_rows_are_the_scalar_preparation_times(self, tmp_path, n_target):
        # one call over the grid gives each row exactly, zero-duration rows included
        cfg = load_run_config(None)
        out = tmp_path / "c.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["fig2", "--out", str(out), "--n-target", str(n_target)]) == 0
        rows = read_csv(out)
        assert rows.shape == (len(cfg.r_grid),)
        theta1 = TWO_PI * cfg.theta1_hz
        for row, r in zip(rows, cfg.r_grid):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                prep = preparation_time(r, cfg.r_a_per_s * theta1**2 * (1.0 - r * r) * cfg.tau_s**2, n_target)
            assert (row["r"], row["n_bar"], row["total_time_2T"]) == (r, prep.n_bar_initial, prep.t_total)
        assert rows["total_time_2T"][0] == 0.0

    def test_n_target_moves_crossover(self, tmp_path):
        out = tmp_path / "c.csv"
        assert main(["fig2", "--out", str(out), "--r-grid", "0.5,0.9",
                     "--n-target", "0.5"]) == 0
        data = read_csv(out)
        assert data["total_time_2T"][0] == 0.0  # n_bar(0.5) = 1/3 < 0.5
        assert data["total_time_2T"][1] > 0.0


class TestSweep:
    def test_grid_order_and_trends(self, tmp_path):
        out = tmp_path / "sweep.csv"
        rc = main(["sweep", "--out", str(out), "--r-grid", "0.3,0.6,0.9"])
        assert rc == 0
        data = read_csv(out)
        assert list(data["r"]) == [0.3, 0.6, 0.9]
        for i, r in enumerate((0.3, 0.6, 0.9)):
            assert data["epsilon"][i] == pytest.approx(math.atanh(r), rel=1e-12)
        assert np.all(np.diff(data["n1_mean"]) > 0.0)
        assert np.all(np.diff(data["duan_sum"]) < 0.0)
        assert np.all(data["fidelity"] > 0.8)

    @pytest.mark.parametrize("engine", ["gaussian", "fock"])
    def test_rows_match_simulate_reports(self, tmp_path, engine):
        # rows come from one sample per step, simulate's report from its full
        # sample grid; both end on the same state
        data = config_dict(engine=engine)
        d0 = derive_rates(PhysicalParams.from_hz_dict(data["params"]))
        grid = (0.3, 0.6)
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--config", write_config(tmp_path, data), "--out", str(out),
                     "--r-grid", ",".join(map(str, grid))]) == 0
        rows = read_csv(out)
        for i, r in enumerate(grid):
            point = config_dict(engine=engine)
            point["params"]["omega2_hz"] *= r * d0.theta1 / d0.theta2
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                assert main(["simulate", "--config", write_config(tmp_path, point, f"p{i}.json"),
                             "--out", str(tmp_path / f"sim{i}")]) == 0
            payload = json.loads((tmp_path / f"sim{i}.json").read_text())
            report = payload["report"]
            for key in ("duan_sum", "n1_mean", "n2_mean", "fidelity", "truncation_leak"):
                assert rows[key][i] == pytest.approx(report[key], rel=1e-9)
            assert rows["regime_ok"][i] == (not payload["diagnostics"]["regime_failures"])

    @pytest.mark.parametrize("params, extra", [({}, {}), ({}, {"durations": [0.003, 0.0]}),
                                               ({"gamma_e_hz": 50.0}, {})], ids=["bundled", "durations", "decay"])
    def test_gaussian_rows_equal_per_point_runs(self, tmp_path, params, extra):
        # gaussian rows come from one array pass over the grid; each must be the
        # report of run_protocol on its point at one sample per step, and its rates,
        # time and regime flag those of the point's own spec to the last bit.  On the
        # bundled config r = 0.05 and 0.3 do not pump (n_bar <= n_target, zero
        # durations) and r = 0.4 fails the regime; the durations case leaves step 2 at eta = 1
        data = json.loads(resources.files("cavsqueeze").joinpath("data", "microwave_rydberg.json").read_text())
        data["params"].update(params)
        data.update(extra, engine="gaussian")
        grid = (0.05, 0.3, 0.4, 0.95, 0.999)
        path, out = write_config(tmp_path, data), tmp_path / "sweep.csv"
        assert main(["sweep", "--config", path, "--out", str(out), "--r-grid", ",".join(map(str, grid))]) == 0
        rows = read_csv(out)
        cfg = load_run_config(path)
        p = _as_step1(cfg.params)
        d0 = derive_rates(p)
        exact = lambda value: pytest.approx(value, rel=1e-10, abs=0.0)
        for i, r in enumerate(grid):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                spec = _two_step_spec(cfg, replace(p, omega2=p.omega2 * (r * d0.theta1 / d0.theta2)))
                traj, report = run_protocol(spec, samples_per_step=1)
            want = {"epsilon": spec.epsilon, "gamma_per_s": spec.steps[0].derived.gamma,
                    "t_total_s": sum(s.duration for s in spec.steps), "duan_sum": report.duan_sum,
                    "n1_mean": report.n1_mean, "n2_mean": report.n2_mean, "fidelity": report.fidelity,
                    "regime_ok": 0 if traj.diagnostics["regime_failures"] else 1,
                    "truncation_leak": report.truncation_leak}
            for key, value in want.items():
                same = key in ("epsilon", "gamma_per_s", "t_total_s", "regime_ok")
                assert rows[key][i] == (value if same else exact(value)), (r, key)
        if not params and not extra:
            # the points that do not pump read the vacuum exactly, never -1e-16 photons
            assert list(rows["t_total_s"][:2]) == [0.0, 0.0] and rows["regime_ok"][2] == 0
            assert list(rows["n1_mean"][:2]) == [0.0, 0.0] and list(rows["duan_sum"][:2]) == [1.0, 1.0]

    @pytest.mark.parametrize("config", [None, "sweep_decay.json", "sweep_durations.json"])
    def test_gaussian_rows_are_the_per_point_pass_to_the_bit(self, tmp_path, config):
        # the array pass writes, byte for byte, the CSV of the per-point pass it replaced: each
        # point's own spec and regime, its eta = math.exp(-gamma t) per step, then one
        # two_step_reports over the grid at the steps' attenuate pairs (eta1, 1) and (1, eta2)
        # (numpy's exp differs from math's in the last place)
        path = config and os.path.join(os.path.dirname(__file__), "data", config)
        grid = np.linspace(0.05, 0.9999, 300).tolist()
        out, ref = tmp_path / "sweep.csv", tmp_path / "ref.csv"
        flags = ["--config", path] if path else []
        assert main(["sweep", *flags, "--out", str(out), "--r-grid", ",".join(map(repr, grid))]) == 0
        cfg = load_run_config(path)
        p = _as_step1(cfg.params)
        d0 = derive_rates(p)
        points = []
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for r in grid:
                spec = _two_step_spec(cfg, replace(p, omega2=p.omega2 * (r * d0.theta1 / d0.theta2)))
                regime = validate_regime([(s.params, s.derived, s.duration) for s in spec.steps])
                points.append((r, spec.epsilon, spec.steps[0].derived.gamma, sum(s.duration for s in spec.steps),
                               *(math.exp(-s.derived.gamma * s.duration) for s in spec.steps),
                               all(c["passed"] for c in regime.values())))
        r, epsilon, gamma, t_total, eta1, eta2, ok = map(np.array, zip(*points))
        pairs = np.stack([eta1, np.ones_like(eta1)], -1), np.stack([np.ones_like(eta2), eta2], -1)
        write_csv(ref, read_csv(out).dtype.names, zip(r, epsilon, gamma, t_total,
                                                     *two_step_reports(epsilon, *pairs), ok.astype(int), 0.0 * r))
        assert out.read_bytes() == ref.read_bytes()

    @pytest.mark.parametrize("r", [0.99, 0.999, 0.9999])
    def test_gaussian_rows_keep_their_digits_at_large_epsilon(self, tmp_path, r):
        # the sweep's duan_sum, fidelity and photon numbers against the closed form of the
        # row's own epsilon, rate and step durations at 50 digits; read in the bare frame
        # instead, duan_sum cancels digits as cosh(epsilon)**4 (8e-2 off at r = 0.9999)
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--engine", "gaussian", "--out", str(out), "--r-grid", str(r)]) == 0
        row = read_csv(out)
        t_step = float(row["t_total_s"]) / 2.0
        gamma = float(row["gamma_per_s"])
        want = two_step_vacuum_reading(float(row["epsilon"]), [(gamma, t_step), (gamma, t_step)])
        for key in ("duan_sum", "fidelity", "n1_mean", "n2_mean"):
            assert float(row[key]) == pytest.approx(float(want[key]), rel=1e-8, abs=0.0), key
        assert float(row["n1_mean"]) == pytest.approx(float(row["n2_mean"]), rel=1e-12, abs=0.0)

    def test_gaussian_engine_never_calls_expm(self, tmp_path, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("gaussian engine called expm")

        monkeypatch.setattr(scipy.linalg, "expm", refuse)
        spec = build_spec(load_run_config(None))
        assert run_protocol(spec)[0].times.size > 1
        assert main(["sweep", "--out", str(tmp_path / "s.csv"), "--r-grid", "0.5,0.9"]) == 0

    @staticmethod
    def sweep_counts(tmp_path, monkeypatch, grids, *flags):
        # the derive_rates calls and ProtocolSpec constructions of one sweep per grid
        calls, counts = {"derive_rates": 0, "ProtocolSpec": 0}, []

        def counted(p):
            calls["derive_rates"] += 1
            return derive_rates(p)

        def counted_spec(spec, check=ProtocolSpec.__post_init__):
            calls["ProtocolSpec"] += 1
            check(spec)

        for module in ("cli", "dynamics", "model", "protocol"):
            monkeypatch.setattr(f"cavsqueeze.{module}.derive_rates", counted)
        monkeypatch.setattr(ProtocolSpec, "__post_init__", counted_spec)
        for grid in grids:
            calls.update(dict.fromkeys(calls, 0))
            assert main(["sweep", *flags, "--out", str(tmp_path / "s.csv"), "--r-grid", grid]) == 0
            counts.append(dict(calls))
        return counts

    def test_derives_rates_once_per_step(self, tmp_path, monkeypatch):
        # a fock point derives the rates of its two steps once each, as the
        # schedule builds them, and runs one protocol
        one, three = self.sweep_counts(tmp_path, monkeypatch, ("0.3", "0.3,0.4,0.5"),
                                       "--engine", "fock", "--truncation", "12,12")
        assert (three["derive_rates"] - one["derive_rates"]) / 2 <= 3
        assert three["ProtocolSpec"] - one["ProtocolSpec"] == 2

    def test_gaussian_pass_builds_nothing_per_point(self, tmp_path, monkeypatch):
        # the gaussian rows derive their rates once for the whole grid and build no spec
        one, three = self.sweep_counts(tmp_path, monkeypatch, ("0.5", "0.5,0.7,0.9"), "--engine", "gaussian")
        assert one == three
        assert three["ProtocolSpec"] == 0

    @pytest.mark.parametrize("params, grid, message", [
        ({"omega1_hz": 40884.58450591904}, "0.5,0.9999999999999999", "degenerate channel: r = 1, epsilon diverges"),
        ({"omega1_hz": 45164.60492573635}, "0.5,0.9999999999999999", "step 1 must have theta1 > theta2 (channel b1)"),
        ({"g2_hz": 1e-300}, "0.5,0.9", "omega2 must be finite"),
        ({"tau_s": 1e-160}, "0.5,0.9", "duration must be finite and nonnegative, got inf"),
        ({"omega1_hz": 1e-290, "omega2_hz": 1e-291, "g1_hz": 1.0, "g2_hz": 1.0, "delta1_hz": -1.0, "delta2_hz": 1.0},
         "0.5,1e-40", "zero weak-channel rate (theta2 = 0) sets no pump-down time; give explicit durations"),
    ], ids=["degenerate", "channel", "drive-overflow", "endless-step", "zero-rate"])
    def test_gaussian_pass_refuses_as_a_point_does(self, tmp_path, capsys, params, grid, message):
        # near r = 1 the rescaled weak rate rounds to or past the strong one; a weak rate of
        # 1e-300 rescales to an infinite drive; tau = 1e-160 pumps too slowly for a finite
        # step; theta1 * 1e-40 underflows to a zero weak rate.  Each point's own spec
        # refuses with the message the sweep gives, on one line
        data = json.loads(resources.files("cavsqueeze").joinpath("data", "microwave_rydberg.json").read_text())
        data["params"].update(params)
        path, out = write_config(tmp_path, data), tmp_path / "s.csv"
        cfg = load_run_config(path)
        p = _as_step1(cfg.params)
        d0 = derive_rates(p)
        with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
            for r in map(float, grid.split(",")):
                _two_step_spec(cfg, replace(p, omega2=p.omega2 * (r * d0.theta1 / d0.theta2)))
        assert main(["sweep", "--config", path, "--out", str(out), "--r-grid", grid]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("config", ["sweep_decay.json", "sweep_durations.json"])
    def test_dev_mode_gaussian_pass_writes_nothing_to_stderr(self, tmp_path, config):
        # -X dev shows every warning: a decay budget at zero-duration points, or a step of
        # duration 0 (eta = 1), must not meet a 0 * inf, log or division that warns
        data = os.path.join(os.path.dirname(__file__), "data", config)
        outs = [tmp_path / f"{name}.csv" for name in "ab"]
        for out in outs:
            done = subprocess.run([sys.executable, "-X", "dev", "-m", "cavsqueeze", "sweep", "--config", data,
                                   "--r-grid", "0.05,0.3,0.4,0.95,0.9999", "--out", str(out)],
                                  env=package_env(), capture_output=True, text=True, timeout=120)
            assert (done.returncode, done.stderr) == (0, "")
        assert outs[0].read_bytes() == outs[1].read_bytes()

    def test_refuses_steps_pair(self, tmp_path, capsys):
        # a sweep rescales one params table; a steps pair's second step
        # would be dropped, so it is refused
        data = steps_config(config_dict(engine="gaussian"))
        data["steps"][1]["r_a_hz"] = 8.0
        out = tmp_path / "s.csv"
        assert main(["sweep", "--config", write_config(tmp_path, data), "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: sweep rescales one params table; it cannot scan a steps pair\n"
        assert not out.exists()

    def test_warning_filters_unchanged(self, tmp_path):
        # on the bundled config r = 0.4 is outside the validity regime (its
        # transit phase is above the limit); its row says so, and the sweep
        # leaves the warning filters as it found them
        before = list(warnings.filters)
        out = tmp_path / "s.csv"
        assert main(["sweep", "--out", str(out), "--r-grid", "0.4,0.8,0.95"]) == 0
        assert warnings.filters == before
        data = read_csv(out)
        assert data.dtype.names[-2:] == ("regime_ok", "truncation_leak")
        assert list(data["regime_ok"]) == [0, 1, 1]
        assert list(data["truncation_leak"]) == [0.0, 0.0, 0.0]


class TestValidate:
    EXPECTED = {
        "raman_rates",
        "bogoliubov_action",
        "tmsv_from_squeeze",
        "epr_variance_fock",
        "epr_variance_gaussian",
        "decay_estimate",
        "cross_engine_agreement",
        "csv_determinism",
    }

    def test_battery_passes(self, capsys):
        assert main(["validate"]) == 0
        out = capsys.readouterr().out
        lines = [line for line in out.splitlines() if line.startswith(("PASS", "FAIL"))]
        assert len(lines) == len(self.EXPECTED)
        assert all(line.startswith("PASS") for line in lines)
        summary = json.loads(out.splitlines()[-1])
        assert summary["all_passed"] is True
        assert {c["name"] for c in summary["checks"]} == self.EXPECTED

    def test_half_tolerance_passes(self, capsys):
        # the Bogoliubov check runs where its block is contained, so its
        # residual (1.1e-9) is no truncation artefact
        assert main(["validate", "--tolerance-scale", "0.5"]) == 0
        assert "FAIL" not in capsys.readouterr().out

    def test_uncontained_block_fails_at_any_scale(self, capsys, monkeypatch):
        # past a column leak of 1e-8 the identity no longer holds, whatever the tolerance
        monkeypatch.setattr("cavsqueeze.cli.truncation_leak", lambda state, space: 2e-8)
        assert main(["validate", "--tolerance-scale", "1e9"]) == 3
        summary = json.loads(capsys.readouterr().out.splitlines()[-1])
        failed = [c["name"] for c in summary["checks"] if not c["passed"]]
        assert failed == ["bogoliubov_action"]

    def test_forced_bad_tolerance_exits_three(self, capsys):
        rc = main(["validate", "--tolerance-scale", "1e-9"])
        assert rc == 3
        out = capsys.readouterr().out
        summary = json.loads(out.splitlines()[-1])
        by_name = {c["name"]: c for c in summary["checks"]}
        assert by_name["bogoliubov_action"]["passed"] is False
        assert any(line.startswith("FAIL") for line in out.splitlines())

    def test_dev_mode_run_writes_nothing_to_stderr(self):
        # -X dev shows every warning, unclosed files among them
        done = subprocess.run([sys.executable, "-X", "dev", "-m", "cavsqueeze", "validate"], env=package_env(),
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stdout
        assert done.stderr == ""

    def test_nonpositive_scale_is_config_error(self, capsys):
        assert main(["validate", "--tolerance-scale", "-1"]) == 1
        assert "tolerance scale" in capsys.readouterr().err

    def test_summary_file(self, tmp_path, capsys):
        out = tmp_path / "summary.json"
        assert main(["validate", "--out", str(out)]) == 0
        summary = json.loads(out.read_text())
        assert {c["name"] for c in summary["checks"]} == self.EXPECTED
        assert all(type(c["value"]) is float for c in summary["checks"])

    def test_summary_file_from_config_output_path(self, tmp_path, capsys):
        # the config's output_path, as every other command honours it
        out = tmp_path / "from-config.json"
        path = write_config(tmp_path, config_dict(output_path=str(out)))
        assert main(["validate", "--config", path]) == 0
        summary = json.loads(out.read_text())
        assert summary["all_passed"] is True
        assert {c["name"] for c in summary["checks"]} == self.EXPECTED
        assert f"wrote {out}" in capsys.readouterr().out


class TestParser:
    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 1
        assert "usage" in capsys.readouterr().err

    def test_no_command(self, capsys):
        assert main([]) == 1

    def test_bad_truncation_flag(self, capsys):
        assert main(["derive", "--truncation", "15"]) == 1
        assert "truncation" in capsys.readouterr().err

    def test_bad_grid_flag(self, capsys):
        assert main(["fig2", "--r-grid", "a,b"]) == 1

    @pytest.mark.parametrize("flag, text, key, value, line", [
        ("--truncation", "8,9,10", "truncation", [8, 9, 10],
         "truncation must be two positive integers, got (8, 9, 10)"),
        ("--truncation", "8.5,9", "truncation", [8.5, 9], "truncation must be an integer, got 8.5"),
        ("--r-grid", "0.5,1.5", "r_grid", [0.5, 1.5], "r values must lie strictly between 0 and 1, got 1.5"),
    ], ids=["three-truncations", "fractional-truncation", "grid-above-1"])
    def test_list_flag_gets_the_line_of_its_config_value(self, tmp_path, capsys, flag, text, key, value, line):
        # load_run_config checks a list flag's numbers as it checks the config's list
        path = write_config(tmp_path, config_dict(**{key: value}))
        for args in (["--config", path], [flag, text]):
            assert main(["fig2", *args, "--out", str(tmp_path / "f.csv")]) == 1
            assert capsys.readouterr().err == f"error: {line}\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]


@pytest.mark.parametrize("command, out_flags", [
    (["derive"], ["--out"]),
    (["simulate", "--engine", "gaussian"], ["--out"]),
    (["sweep", "--engine", "gaussian", "--r-grid", "0.3"], ["--out"]),
    (["fig2"], ["--out"]),
    (["fig2", "--out", "curve.csv"], ["--svg"]),
    (["validate"], ["--out"]),
], ids=["derive", "simulate", "sweep", "fig2", "fig2-svg", "validate"])
def test_no_command_overwrites_its_config(tmp_path, monkeypatch, capsys, command, out_flags):
    # simulate's --out is a prefix: its config is named as the CSV it writes
    name = "cfg.csv" if command[0] == "simulate" else "cfg.json"
    path = write_config(tmp_path, config_dict(), name=name)
    before = (tmp_path / name).read_bytes()
    monkeypatch.chdir(tmp_path)
    target = "cfg" if command[0] == "simulate" else path
    rc = main([*command, "--config", path, *out_flags, target])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: output ") and f"would overwrite the config {path}" in err
    assert (tmp_path / name).read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == [name]
