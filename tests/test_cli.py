import json
import math
import warnings
from importlib import resources

import numpy as np
import pytest
import scipy.linalg

from cavsqueeze.cli import (
    ConfigError,
    build_parser,
    build_spec,
    load_run_config,
    main,
)
from cavsqueeze.model import TWO_PI, PhysicalParams, derive_rates
from cavsqueeze.protocol import ENGINES, mirror_to_b1, run_protocol


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

    def test_bad_durations(self, tmp_path):
        path = write_config(tmp_path, config_dict(durations=[1.0]))
        with pytest.raises(ConfigError, match="durations"):
            load_run_config(path)

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
        ],
    )
    def test_type_errors_are_config_errors(self, tmp_path, capsys, key, value):
        path = write_config(tmp_path, config_dict(**{key: value}))
        with pytest.raises(ConfigError, match=key):
            load_run_config(path)
        assert main(["derive", "--config", path]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {key} must be")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("engine", ["fock", "gaussian", "collision"])
    def test_negative_seed_is_a_config_error(self, tmp_path, capsys, engine):
        path = write_config(tmp_path, collision_config(seed=-2))
        with pytest.raises(ConfigError, match="seed must be nonnegative, got -2"):
            load_run_config(path)
        rc = main(["simulate", "--engine", engine, "--seed", "-1", "--out", str(tmp_path / "x")])
        assert rc == 1
        assert capsys.readouterr().err == "error: seed must be nonnegative, got -1\n"
        assert not (tmp_path / "x.csv").exists()

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


class TestDerive:
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

    def test_zero_weak_drive_exits_two(self, tmp_path, capsys):
        data = config_dict(engine="gaussian")
        data["params"]["omega2_hz"] = 0.0
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
        r = data["r"]
        assert np.all(data["n_bar"] == r**2 / (1.0 - r**2))
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

    def test_grid_outside_unit_interval(self, tmp_path, capsys):
        rc = main(["fig2", "--out", str(tmp_path / "x.csv"), "--r-grid", "0.5,1.5"])
        assert rc == 1
        assert "between 0 and 1" in capsys.readouterr().err

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

    def test_gaussian_engine_never_calls_expm(self, tmp_path, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("gaussian engine called expm")

        monkeypatch.setattr(scipy.linalg, "expm", refuse)
        spec = build_spec(load_run_config(None))
        assert run_protocol(spec)[0].times.size > 1
        assert main(["sweep", "--out", str(tmp_path / "s.csv"), "--r-grid", "0.5,0.9"]) == 0

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

    def test_forced_bad_tolerance_exits_three(self, capsys):
        rc = main(["validate", "--tolerance-scale", "1e-9"])
        assert rc == 3
        out = capsys.readouterr().out
        summary = json.loads(out.splitlines()[-1])
        by_name = {c["name"]: c for c in summary["checks"]}
        assert by_name["bogoliubov_action"]["passed"] is False
        assert any(line.startswith("FAIL") for line in out.splitlines())

    def test_nonpositive_scale_is_config_error(self, capsys):
        assert main(["validate", "--tolerance-scale", "-1"]) == 1
        assert "tolerance scale" in capsys.readouterr().err

    def test_summary_file(self, tmp_path, capsys):
        out = tmp_path / "summary.json"
        assert main(["validate", "--out", str(out)]) == 0
        summary = json.loads(out.read_text())
        assert {c["name"] for c in summary["checks"]} == self.EXPECTED


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
