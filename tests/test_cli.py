import dataclasses
import json
import warnings

import numpy as np
import pytest

import flexboom as fb
from flexboom import cli
from flexboom.cli import load_config, main

CUBIC = (-1902.0, 1414.0, -302.7, 20.07)


def read_csv(path):
    lines = path.read_text().strip().splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def small_bode_config(tmp_path, **extra):
    cfg = {"bode": {"grid_points": 200}}
    cfg.update(extra)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def test_equilibrium_curve_default(tmp_path):
    out = tmp_path / "out"
    assert main(["equilibrium", "--out", str(out)]) == 0
    header, rows = read_csv(out / "equilibrium_curve.csv")
    assert header == ["tension_N", "tip_deflection_m", "q_1", "q_2", "q_3"]
    assert len(rows) == 200
    assert float(rows[0][0]) == 0.0 and float(rows[0][1]) == 0.0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["ok"] is True


def test_equilibrium_single_point(tmp_path, capsys):
    assert main(["equilibrium", "--tension", "1.0", "--out", str(tmp_path)]) == 0
    captured = capsys.readouterr()
    assert "1.26855" in captured.out
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["point"]["tension_N"] == 1.0


def test_equilibrium_tension_out_of_range(tmp_path, capsys):
    assert main(["equilibrium", "--tension", "5.0", "--out", str(tmp_path)]) != 0
    assert "outside the verified range" in capsys.readouterr().err


def test_unknown_config_key_rejected(tmp_path, capsys):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"boom": {"lenght": 29.4}}))
    code = main(["equilibrium", "--config", str(cfg), "--out", str(tmp_path)])
    assert code == 2
    assert "boom.lenght" in capsys.readouterr().err


def test_invalid_json_reports_line(tmp_path, capsys):
    cfg = tmp_path / "config.json"
    cfg.write_text('{\n "modes": 3,\n oops\n}')
    code = main(["equilibrium", "--config", str(cfg), "--out", str(tmp_path)])
    assert code == 2
    assert ":3:" in capsys.readouterr().err  # line-precise message


def test_bad_type_rejected(tmp_path, capsys):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"modes": "three"}))
    assert main(["equilibrium", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    assert "modes" in capsys.readouterr().err


def test_bode_nominal_passive(tmp_path):
    out = tmp_path / "out"
    cfg = small_bode_config(tmp_path)
    assert main(["bode", "--teq", "0", "--config", cfg, "--out", str(out)]) == 0
    header, rows = read_csv(out / "bode_teq_0.csv")
    assert header == ["omega_rad_s", "re", "im", "mag_db", "phase_deg"]
    assert len(rows) == 200
    summary = json.loads((out / "summary.json").read_text())
    assert summary["nominal_verdict"] == "passive"
    assert summary["ok"] is True


def test_bode_uncertainty_sweep(tmp_path):
    out = tmp_path / "out"
    cfg = small_bode_config(tmp_path)
    code = main(["bode", "--teq", "1", "--sweep", "uncertainty", "--pct", "20",
                 "--samples", "8", "--config", cfg, "--out", str(out)])
    assert code == 0
    header, rows = read_csv(out / "sweep_uncertainty.csv")
    assert len(rows) == 8
    assert all(row[header.index("verdict")] == "passive" for row in rows)
    summary = json.loads((out / "summary.json").read_text())
    assert summary["uncertainty_sweep"]["all_passive"] is True


def test_bode_mode_sweep(tmp_path):
    out = tmp_path / "out"
    cfg = small_bode_config(tmp_path)
    code = main(["bode", "--teq", "1", "--sweep", "modes", "--modes", "3,4",
                 "--config", cfg, "--out", str(out)])
    assert code == 0
    _, rows = read_csv(out / "sweep_modes.csv")
    assert len(rows) == 2
    summary = json.loads((out / "summary.json").read_text())
    assert summary["mode_sweep"]["all_passive"] is True


def test_bode_dump_state_space(tmp_path):
    out = tmp_path / "out"
    cfg = small_bode_config(tmp_path)
    assert main(["bode", "--teq", "0", "--dump-ss", "ss.csv", "--config", cfg,
                 "--out", str(out)]) == 0
    header, rows = read_csv(out / "ss.csv")
    assert header == ["matrix", "row", "col", "value"]
    names = {row[0] for row in rows}
    assert names == {"A", "B", "C", "D"}
    assert sum(1 for row in rows if row[0] == "A") == 36


def test_simulate_named_scenario(tmp_path):
    out = tmp_path / "out"
    code = main(["simulate", "--scenario", "fig7a", "--duration", "5",
                 "--out", str(out)])
    assert code == 0
    header, rows = read_csv(out / "sim_fig7a.csv")
    assert header == ["t_s", "w_tip_m", "wdot_tip_m_s", "u_N", "T_des_N",
                      "w_des_m", "q_1", "q_2", "q_3", "KE_J", "PE_J"]
    meta = dict(line.split("=", 1)
                for line in (out / "sim_fig7a.meta").read_text().splitlines())
    assert meta["status"] == "completed"
    assert meta["scenario"] == "fig7a"
    control_header, _ = read_csv(out / "sim_fig7a_control.csv")
    assert control_header == ["t_s", "T_des", "w_des", "wdot_des",
                              "u_preclamp", "u"]


def test_simulate_unknown_scenario(capsys):
    with pytest.raises(SystemExit) as err:
        main(["simulate", "--scenario", "fig9"])
    assert err.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


def test_simulate_custom_config(tmp_path):
    out = tmp_path / "out"
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({
        "controller": {
            "gains": {"k_p": 10.0, "k_d": 25.0},
            "feedforward": {"mode": "constant", "tension_final": 1.0},
            "reference": {"mode": "constant"},
        },
        "simulation": {"duration": 2.0},
    }))
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["scenario"] == "custom"
    assert summary["status"] == "completed"


def test_simulate_deterministic_output(tmp_path):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    for out in (out1, out2):
        assert main(["simulate", "--scenario", "fig8", "--duration", "3",
                     "--out", str(out)]) == 0
    assert (out1 / "sim_fig8.csv").read_bytes() == (out2 / "sim_fig8.csv").read_bytes()


def _write_fit_data(path, sigma=0.0):
    rng = np.random.default_rng(5)
    torques = np.linspace(0.15, 0.4, 20)
    deflections = np.polyval(CUBIC, torques)
    if sigma:
        deflections = deflections + rng.normal(0.0, sigma, size=torques.size)
    lines = ["torque_Nm,deflection_mm"]
    lines += [f"{t:.6f},{w:.9f}" for t, w in zip(torques, deflections)]
    path.write_text("\n".join(lines) + "\n")


def test_fit_auto_selects_cubic(tmp_path):
    data = tmp_path / "data.csv"
    _write_fit_data(data)
    out = tmp_path / "out"
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"unit_profile": "prototype-units"}))
    assert main(["fit", str(data), "--config", str(cfg), "--out", str(out)]) == 0
    fragment = json.loads((out / "fit_map.json").read_text())
    assert fragment["map"]["degree"] == 3
    np.testing.assert_allclose(fragment["reference"]["map_coefficients"], CUBIC,
                               rtol=1e-4)
    assert fragment["reference"]["mode"] == "map-composed"


def test_fit_degree_one_has_larger_residual(tmp_path):
    data = tmp_path / "data.csv"
    _write_fit_data(data)
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"unit_profile": "prototype-units"}))
    out_auto = tmp_path / "auto"
    out_line = tmp_path / "line"
    main(["fit", str(data), "--config", str(cfg), "--out", str(out_auto)])
    main(["fit", str(data), "--degree", "1", "--config", str(cfg),
          "--out", str(out_line)])
    best = json.loads((out_auto / "summary.json").read_text())["residual_rms"]
    line = json.loads((out_line / "summary.json").read_text())["residual_rms"]
    assert line > best


def test_fit_fixed_degree_fits_once(tmp_path, monkeypatch):
    data = tmp_path / "data.csv"
    _write_fit_data(data)
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"unit_profile": "prototype-units"}))
    degrees = []

    def counting_fit_map(measurements, degree):
        degrees.append(degree)
        return fb.fit_map(measurements, degree)

    monkeypatch.setattr(cli, "fit_map", counting_fit_map)
    out = tmp_path / "out"
    assert main(["fit", str(data), "--degree", "2", "--config", str(cfg),
                 "--out", str(out)]) == 0
    assert degrees == [2]
    summary = json.loads((out / "summary.json").read_text())
    assert summary["degree"] == 2
    assert list(summary["per_degree_residual_rms"]) == ["2"]


def test_fit_malformed_csv(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("torque,deflection\n0.1,1\n")
    assert main(["fit", str(bad), "--out", str(tmp_path)]) == 1
    assert "torque_<unit>" in capsys.readouterr().err


def test_fit_units_must_match_profile(tmp_path, capsys):
    data = tmp_path / "data.csv"
    _write_fit_data(data)  # Nm / mm
    assert main(["fit", str(data), "--out", str(tmp_path)]) == 2
    assert "unit profile" in capsys.readouterr().err


def test_output_dir_env_override(tmp_path, monkeypatch):
    target = tmp_path / "env_out"
    monkeypatch.setenv("FLEXBOOM_OUT", str(target))
    monkeypatch.chdir(tmp_path)
    assert main(["equilibrium", "--tension", "0.5"]) == 0
    assert (target / "summary.json").exists()
    # an explicit flag wins over the environment
    flag_target = tmp_path / "flag_out"
    assert main(["equilibrium", "--tension", "0.5", "--out", str(flag_target)]) == 0
    assert (flag_target / "summary.json").exists()


def test_default_config_round_trips(tmp_path):
    cfg = tmp_path / "config.json"
    defaults = load_config(None)
    cfg.write_text(json.dumps(defaults))
    assert load_config(cfg) == defaults
    cfg.write_text(json.dumps({"controller": {"reference": {"w_final": None}}}))
    assert load_config(cfg)["controller"]["reference"]["w_final"] is None
    for bad in ({"simulation": {"scenario": 3}},
                {"controller": {"reference": {"w_final": "x"}}}):
        cfg.write_text(json.dumps(bad))
        assert main(["equilibrium", "--config", str(cfg), "--out", str(tmp_path)]) == 2


def test_sweep_failure_is_an_error_line(tmp_path, capsys):
    cfg = small_bode_config(tmp_path)
    code = main(["bode", "--teq", "1", "--sweep", "modes", "--modes", "0",
                 "--config", cfg, "--out", str(tmp_path)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("modes", ["3,x", ","])
def test_malformed_mode_list_is_a_usage_error(tmp_path, capsys, modes):
    # Parsed in cmd_bode, these were one "error: invalid literal for int()"
    # line and exit 1; the parser now refuses them, naming the flag.
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as err:
        main(["bode", "--teq", "1", "--sweep", "modes", "--modes", modes, "--out", str(out)])
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"argument --modes: expected comma-separated integers, got {modes!r}" in captured.err
    assert not out.exists()


def test_equilibrium_curve_past_critical_tension_is_an_error(tmp_path, capsys):
    # A single mode buckles at 0.92 N, inside the default [0, 2] N curve.
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"modes": 1}))
    out = tmp_path / "out"
    code = main(["equilibrium", "--config", str(cfg), "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "critical tension" in err
    assert not (out / "equilibrium_curve.csv").exists()


def test_equilibrium_curve_at_ten_modes(tmp_path, capsys):
    # Ten modes buckle at 11.1 N, far beyond the default [0, 2] N curve.
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"modes": 10}))
    out = tmp_path / "out"
    assert main(["equilibrium", "--config", str(cfg), "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    header, rows = read_csv(out / "equilibrium_curve.csv")
    assert header[2:] == [f"q_{i}" for i in range(1, 11)]
    assert len(rows) == 200


def test_simulate_non_finite_duration_is_an_error_line(tmp_path, capsys):
    code = main(["simulate", "--duration", "inf", "--out", str(tmp_path)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "duration" in err and "Traceback" not in err


def test_simulate_duration_whose_step_count_overflows_is_an_error_line(tmp_path, capsys):
    # 1e308 s in 1 ms steps overflows the step count; it used to raise
    # OverflowError out of round().
    out = tmp_path / "out"
    code = main(["simulate", "--scenario", "fig7a", "--duration", "1e308",
                 "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "duration" in err and "1e+308" in err
    assert not out.exists() or not any(out.iterdir())


def test_simulate_run_past_the_step_ceiling_is_an_error_line(tmp_path, capsys):
    # 1e12 s in 1 ms steps is 1e15 steps, about 950 years of run.
    out = tmp_path / "out"
    code = main(["simulate", "--scenario", "fig7a", "--duration", "1e12",
                 "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err == ("error: a run of 1000000000000000 steps exceeds "
                                       "the ceiling of 1000000000 steps\n")
    assert not out.exists()


def _no_constant(name):
    raise ValueError(f"{name} is not JSON")


def test_simulate_overflowing_run_writes_strict_json_and_no_warnings(tmp_path, capsys):
    # 1e60 s steps overflow the state at once: the run diverges, which is a status.
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["simulate", "--scenario", "fig7a", "--dt", "1e60",
                     "--duration", "1e61", "--out", str(out)])
    assert code == 0
    assert capsys.readouterr().err == ""
    summary = json.loads((out / "summary.json").read_text(), parse_constant=_no_constant)
    assert summary["status"] == "diverged" and summary["final_tip_m"] is None


def test_default_custom_simulate_is_fig7a(tmp_path):
    # The default controller and simulation sections are the fig7a scenario.
    custom, fig7a = tmp_path / "custom", tmp_path / "fig7a"
    assert main(["simulate", "--duration", "3", "--out", str(custom)]) == 0
    assert main(["simulate", "--scenario", "fig7a", "--duration", "3",
                 "--out", str(fig7a)]) == 0
    for suffix in (".csv", "_control.csv"):
        assert ((custom / f"sim_custom{suffix}").read_bytes()
                == (fig7a / f"sim_fig7a{suffix}").read_bytes())


def test_non_object_section_names_the_section(tmp_path, capsys):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"boom": 3}))
    assert main(["equilibrium", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == "config error: boom: expected an object, got int\n"


@pytest.mark.parametrize("text", [
    '{"bode": {"omega_max": 1%s}}' % ("0" * 400),
    '{"controller": {"reference": {"map_coefficients": [0.6, -1%s]}}}' % ("0" * 400),
], ids=["leaf", "list_item"])
def test_int_too_large_for_a_float_is_a_config_error(tmp_path, capsys, text):
    cfg = tmp_path / "config.json"
    cfg.write_text(text)
    out = tmp_path / "out"
    assert main(["bode", "--config", str(cfg), "--teq", "0.5", "--out", str(out)]) == 2
    where = "bode.omega_max" if "bode" in text else "controller.reference.map_coefficients[1]"
    assert capsys.readouterr().err == \
        f"config error: {where}: int too large to convert to float\n"
    assert not out.exists()


@pytest.mark.parametrize("bad", ["nan", "inf"])
def test_fit_rejects_non_finite_deflection(tmp_path, capsys, bad):
    data = tmp_path / "data.csv"
    data.write_text(f"torque_N,deflection_m\n0.1,0.5\n0.2,{bad}\n0.3,0.9\n")
    out = tmp_path / "out"
    assert main(["fit", str(data), "--degree", "1", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "deflections must be finite" in err
    assert not (out / "fit_map.json").exists()


@pytest.mark.parametrize("reference", [{"w_final": float("nan")},
                                       {"mode": "quintic-deflection",
                                        "w_initial": float("inf")},
                                       {"mode": "map-composed",
                                        "map_coefficients": [0.6, float("nan")]}],
                         ids=["w_final", "w_initial", "map_coefficient"])
def test_simulate_rejects_non_finite_reference(tmp_path, capsys, reference):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"controller": {"reference": reference}}))
    out = tmp_path / "out"
    code = main(["simulate", "--duration", "1", "--config", str(cfg), "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: controller: ") and "must be finite" in err
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize("controller", [
    {"feedforward": {"mode": "quintic", "duration": float("inf")}},
    {"reference": {"mode": "quintic-deflection", "duration": float("inf")}},
], ids=["feedforward", "reference"])
def test_simulate_rejects_infinite_ramp_duration(tmp_path, capsys, controller):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"controller": controller}))
    out = tmp_path / "out"
    code = main(["simulate", "--duration", "1", "--config", str(cfg), "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert (err.startswith("config error: controller: ")
            and "duration must be finite and > 0" in err)
    assert not out.exists() or not any(out.iterdir())


def test_simulate_empty_map_is_refused_by_the_reference(tmp_path, capsys):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"controller": {"reference": {"mode": "map-composed"}}}))
    out = tmp_path / "out"
    code = main(["simulate", "--duration", "1", "--config", str(cfg), "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert err == "config error: controller: map-composed reference needs map coefficients\n"
    assert not out.exists() or not any(out.iterdir())


def test_simulate_partial_final_step_is_an_error_line(tmp_path, capsys):
    # 1 s is 2.5 steps of 0.4 s; the run used to end silently at 0.8 s.
    out = tmp_path / "out"
    code = main(["simulate", "--scenario", "fig7a", "--duration", "1", "--dt", "0.4",
                 "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "whole number" in err and "Traceback" not in err
    assert not out.exists() or not any(out.iterdir())


# A command writes nothing until it returns; ``main`` then writes its files
# in order and ``summary.json`` last.


@pytest.mark.parametrize("argv, config, code", [
    (["simulate", "--duration", "1"],
     {"controller": {"reference": {"mode": "map-composed"}}}, 2),
    (["equilibrium", "--tension", "5"], {}, 1),
], ids=["map_without_coefficients", "tension_out_of_range"])
def test_refused_command_leaves_no_output_dir(tmp_path, capsys, argv, config, code):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "out"
    assert main(argv + ["--config", str(cfg), "--out", str(out)]) == code
    assert capsys.readouterr().out == ""
    assert not out.exists()


def test_failed_sweep_leaves_no_bode_csv(tmp_path, capsys):
    # The nominal Bode CSV is ready before the sweep refuses zero modes.
    out = tmp_path / "out"
    code = main(["bode", "--teq", "0.5", "--sweep", "modes", "--modes", "0",
                 "--out", str(out)])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["equilibrium"],
    ["equilibrium", "--tension", "0.5"],
    ["bode", "--teq", "0.5", "--dump-ss", "ss.csv", "--sweep", "modes", "--modes", "3,4"],
    ["simulate", "--scenario", "fig7a", "--duration", "1"],
    ["fit", "DATA", "--degree", "1"],
], ids=["equilibrium_curve", "equilibrium_point", "bode", "simulate", "fit"])
def test_summary_outputs_are_the_files_written_in_order(tmp_path, monkeypatch, argv):
    data = tmp_path / "data.csv"
    _write_fit_data(data)
    cfg = small_bode_config(tmp_path, unit_profile="prototype-units")
    out = tmp_path / "out"
    written = []
    replace = cli.os.replace

    def recording_replace(src, dst):
        written.append(dst)
        replace(src, dst)

    monkeypatch.setattr(cli.os, "replace", recording_replace)
    argv = [str(data) if arg == "DATA" else arg for arg in argv]
    assert main(argv + ["--config", cfg, "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert [str(p) for p in written] == [*summary["outputs"], str(out / "summary.json")]
    assert sorted(out.iterdir()) == sorted(written)


def test_not_ok_result_is_still_written(tmp_path, monkeypatch, capsys):
    def failing_check(*args):
        return dataclasses.replace(fb.passivity_check(*args), passive=False)

    monkeypatch.setattr(cli, "passivity_check", failing_check)
    out = tmp_path / "out"
    cfg = small_bode_config(tmp_path)
    assert main(["bode", "--teq", "0.5", "--config", cfg, "--out", str(out)]) == 1
    summary = json.loads((out / "summary.json").read_text())
    assert summary["ok"] is False and summary["nominal_verdict"] == "not-passive"
    assert summary["outputs"] == [str(out / "bode_teq_0.5.csv")]
    assert "not-passive" in capsys.readouterr().out


@pytest.mark.parametrize("sweep, dump", [
    ([], "summary.json"), ([], "bode_teq_0.5.csv"), ([], "sub/x.csv"),
    (["--sweep", "modes", "--modes", "3"], "sweep_modes.csv"), ([], ""),
], ids=["summary", "bode_csv", "subdir", "sweep_csv", "empty"])
def test_dump_ss_cannot_replace_another_output(tmp_path, capsys, sweep, dump):
    out = tmp_path / "out"
    cfg = small_bode_config(tmp_path)
    assert main(["bode", "--teq", "0.5", *sweep, "--dump-ss", dump, "--config", cfg,
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: --dump-ss ") and repr(dump) in err
    assert not out.exists()


@pytest.mark.parametrize("dump", ["summary.json.tmp", "bode_teq_0.5.csv.tmp", "ss.tmp"])
def test_dump_ss_refuses_the_staging_suffix(tmp_path, capsys, dump):
    # ``main`` stages each output as <name>.tmp, so summary.json's staging
    # write would clobber a dump named summary.json.tmp.
    out = tmp_path / "out"
    cfg = small_bode_config(tmp_path)
    assert main(["bode", "--teq", "0.5", "--dump-ss", dump, "--config", cfg,
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: --dump-ss ") and repr(dump) in err
    assert not out.exists()


@pytest.mark.parametrize("t_max", [-1, 0])
def test_equilibrium_curve_needs_a_positive_t_max(tmp_path, capsys, t_max):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"equilibrium": {"t_max": t_max}}))
    out = tmp_path / "out"
    assert main(["equilibrium", "--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "t_max must be finite and > 0" in err
    assert not out.exists()


@pytest.mark.parametrize("bode", [{"omega_min": 0}, {"omega_min": 2e3}, {"grid_points": 0}],
                         ids=["zero_omega_min", "reversed", "no_points"])
def test_bad_frequency_grid_is_one_error_line(tmp_path, capsys, bode):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"bode": bode}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["bode", "--teq", "0.5", "--config", str(cfg),
                     "--out", str(tmp_path / "out")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: frequency grid needs 0 < omega_min < omega_max < inf")
    assert err.count("\n") == 1


def test_frequency_grid_whose_squares_overflow_is_one_error_line(tmp_path, capsys):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"bode": {"omega_max": 1e200, "grid_points": 50}}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["bode", "--teq", "0.5", "--config", str(cfg),
                     "--out", str(tmp_path / "out")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: frequency grid needs 0 < omega_min < omega_max < inf")
    assert "omega_max=1e+200" in err and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


# The CLI boundary: config leaves typed once at load, Bode columns formatted
# by ``bode``, and every library failure one ``error:`` line.


def test_load_config_types_leaves_like_their_defaults(tmp_path):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"modes": 3, "equilibrium": {"t_max": 2},
                               "controller": {"feedforward": {"tension_final": 1}}}))
    config = load_config(cfg)
    assert type(config["modes"]) is int
    assert type(config["equilibrium"]["t_max"]) is float
    assert type(config["controller"]["feedforward"]["tension_final"]) is float


def test_boolean_for_a_float_leaf_is_a_config_error(tmp_path):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"equilibrium": {"t_max": True}}))
    with pytest.raises(cli.ConfigError, match="equilibrium.t_max: boolean"):
        load_config(cfg)


def test_every_exported_exception_is_a_runtime_or_value_error():
    # ``main`` maps library failures by these two families alone.
    exported = ([getattr(fb, name) for name in fb.__all__]
                + [getattr(cli, name) for name in cli.__all__])
    classes = [obj for obj in exported
               if isinstance(obj, type) and issubclass(obj, BaseException)]
    assert len(classes) >= 5
    assert all(issubclass(cls, (RuntimeError, ValueError)) for cls in classes)


def test_flutter_is_one_error_line(tmp_path, capsys):
    # Two modes never reach a critical tension, but at 26 N the eigenvalues
    # of M^-1 K_eff are a complex pair, so linearize refuses the plant.
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"modes": 2, "equilibrium": {"t_max": 40}}))
    out = tmp_path / "out"
    assert main(["bode", "--teq", "26", "--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "complex eigenvalues" in err and "flutter" in err
    assert not out.exists()


@pytest.mark.parametrize("argv", [["equilibrium", "--tension", "0"], ["bode", "--teq", "0"]],
                         ids=["equilibrium_point", "bode"])
def test_point_commands_name_a_bad_t_max(tmp_path, capsys, argv):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"equilibrium": {"t_max": -1}}))
    out = tmp_path / "out"
    assert main(argv + ["--config", str(cfg), "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: t_max must be finite and > 0, got -1.0\n"
    assert not out.exists()


@pytest.mark.parametrize("winding", [False, True], ids=["plant", "winding_phase"])
def test_bode_csv_columns_are_magnitude_and_unwrapped_phase(tmp_path, monkeypatch, winding):
    if winding:  # a phase that wraps several turns, so unwrapping shows
        def wound(ss, grid):
            fr = fb.frequency_response(ss, grid)
            return dataclasses.replace(
                fr, response=fr.response * np.exp(-2j * np.log(fr.omega)))
        monkeypatch.setattr(cli, "frequency_response", wound)
    out = tmp_path / "out"
    cfg = small_bode_config(tmp_path)
    assert main(["bode", "--teq", "0.5", "--config", cfg, "--out", str(out)]) == 0
    header, rows = read_csv(out / "bode_teq_0.5.csv")
    assert header == ["omega_rad_s", "re", "im", "mag_db", "phase_deg"]
    _, re, im, mag_db, phase_deg = np.array(rows, dtype=float).T
    g = re + 1j * im
    np.testing.assert_allclose(mag_db, 20.0 * np.log10(np.abs(g)), rtol=1e-10, atol=1e-9)
    np.testing.assert_allclose(phase_deg, np.degrees(np.unwrap(np.angle(g))), atol=1e-8)
    assert (np.ptp(phase_deg) > 360.0) == winding


# List leaves: each item is checked as a leaf.


@pytest.mark.parametrize("reference, where", [
    ({"map_coefficients": [[1]]}, "map_coefficients[0]: expected float, got list"),
    ({"map_coefficients": [0.6, True]}, "map_coefficients[1]: boolean not allowed here"),
    ({"map_units": ["N", 3]}, "map_units[1]: expected str, got int"),
], ids=["nested_list", "boolean_coefficient", "int_unit"])
def test_bad_list_item_is_a_config_error(tmp_path, capsys, reference, where):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"controller": {"reference": {"mode": "map-composed",
                                                            **reference}}}))
    out = tmp_path / "out"
    assert main(["simulate", "--duration", "1", "--config", str(cfg),
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == f"config error: controller.reference.{where}\n"
    assert not out.exists()


def test_list_items_are_typed_like_leaves(tmp_path):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"controller": {"reference": {
        "map_coefficients": [1, 0.5], "map_units": ["N", "m"]}}}))
    reference = load_config(cfg)["controller"]["reference"]
    assert [type(c) for c in reference["map_coefficients"]] == [float, float]
    assert reference["map_units"] == ["N", "m"]


def test_six_mode_uncertainty_sweep_at_one_newton_gives_a_verdict(tmp_path, capsys):
    # Sample (0.8, 1.0, 0.8) puts a default-grid point 1.75e-6 (relative)
    # above its lowest pole; the sweep nudges it and goes on.
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"modes": 6}))
    out = tmp_path / "out"
    code = main(["bode", "--teq", "1", "--sweep", "uncertainty", "--samples", "27",
                 "--config", str(cfg), "--out", str(out)])
    captured = capsys.readouterr()
    assert captured.err == ""
    assert "uncertainty sweep: 27 samples, " in captured.out
    summary = json.loads((out / "summary.json").read_text())
    assert code == (0 if summary["uncertainty_sweep"]["all_passive"] else 1)
    header, rows = read_csv(out / "sweep_uncertainty.csv")
    assert len(rows) == 27
    nudged = {tuple(row[:3]): int(row[header.index("nudged_points")]) for row in rows}
    assert nudged[("0.8", "1", "0.8")] >= 1


def test_diverged_run_prints_its_divergence_time_in_short_form(tmp_path, capsys):
    # A 1e60 s divergence time prints as 1e+60, not as a 61-digit integer.
    code = main(["simulate", "--scenario", "fig7a", "--dt", "1e60",
                 "--duration", "1e61", "--out", str(tmp_path / "out")])
    assert code == 0
    assert capsys.readouterr().out.rstrip().endswith("status=diverged at t=1e+60 s")


def _tree(root):
    return {p.relative_to(root): p.read_bytes() if p.is_file() else None
            for p in root.rglob("*")}


@pytest.mark.parametrize("argv, config, code, message", [
    (["equilibrium"], None, 2, "config error: cannot read config "),
    (["equilibrium"], {"unit_profile": "imperial"}, 2, "config error: unit_profile must be"),
    (["equilibrium"], {"boom": {"length": -1}}, 2, "config error: boom: length must be"),
    (["simulate", "--duration", "1"],
     {"controller": {"reference": {"mode": "map-composed", "map_coefficients": [0.6, 0.5],
                                   "map_units": ["Nm", "mm"]}}},
     2, "config error: controller: map units ['Nm', 'mm'] inconsistent"),
    (["simulate", "--duration", "1"], {"simulation": {"scenario": "fig9"}},
     2, "config error: unknown scenario 'fig9'"),
    (["equilibrium", "--tension", "0.5", "--out", "FILE"], {}, 1, "i/o error: "),
    (["equilibrium"], b"\xff\xfe{}", 2, "config error: cannot read config "),
], ids=["unreadable_config", "unknown_unit_profile", "bad_boom", "map_units_mismatch",
        "unknown_config_scenario", "out_is_a_file", "config_not_utf8"])
def test_config_and_io_errors_are_one_line_and_write_nothing(tmp_path, capsys, argv,
                                                             config, code, message):
    cfg = tmp_path / "config.json"
    if isinstance(config, bytes):  # raw file contents, not a JSON value
        cfg.write_bytes(config)
    elif config is not None:
        cfg.write_text(json.dumps(config))
    taken = tmp_path / "taken"
    taken.write_text("not a directory\n")
    argv = [str(taken) if arg == "FILE" else arg for arg in argv]
    if "--out" not in argv:
        argv += ["--out", str(tmp_path / "out")]
    before = _tree(tmp_path)
    assert main(argv + ["--config", str(cfg)]) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and captured.err.startswith(message)
    assert _tree(tmp_path) == before


def test_map_composed_run_with_matching_units_succeeds(tmp_path, capsys):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"controller": {"reference": {
        "mode": "map-composed", "map_coefficients": [0.6, 0.5, 0.1686],
        "map_units": ["N", "m"]}}}))
    out = tmp_path / "out"
    assert main(["simulate", "--duration", "1", "--config", str(cfg), "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    summary = json.loads((out / "summary.json").read_text())
    assert summary["ok"] is True and summary["scenario"] == "custom"


@pytest.mark.parametrize("modes", [104, 150])
def test_overflowing_mode_count_is_one_error_line(tmp_path, capsys, modes):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"modes": modes}))
    before = _tree(tmp_path)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["equilibrium", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: {modes} modes overflow the closed-form matrices "
                            "of a 29.4 m boom\n")
    assert _tree(tmp_path) == before



@pytest.mark.parametrize("argv, config", [
    (["equilibrium"], {"equilibrium": {"samples": 10 ** 15}}),
    (["bode", "--teq", "0.5"], {"bode": {"grid_points": 10 ** 15}}),
])
def test_size_too_large_to_allocate_is_one_error_line(tmp_path, capsys, argv, config):
    # 8e15 bytes per array: no machine allocates that, so numpy raises MemoryError.
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    before = _tree(tmp_path)
    code = main([*argv, "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "allocate" in captured.err
    assert _tree(tmp_path) == before


@pytest.mark.parametrize("argv", [["equilibrium"], ["bode", "--teq", "0.5"], ["simulate"]])
def test_mode_count_past_the_ceiling_is_one_error_line(tmp_path, capsys, argv):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"modes": 10 ** 6}))
    before = _tree(tmp_path)
    code = main([*argv, "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: mode count must be <= 1000, got 1000000\n"
    assert _tree(tmp_path) == before

def _reference_csv(header, rows) -> str:
    """The per-value formatter the CSV writer replaced: %.12g floats, str the rest."""
    def fmt(value) -> str:
        return format(value, ".12g") if isinstance(value, float) else str(value)
    return "".join(",".join(map(fmt, row)) + "\n" for row in (header, *rows))


def test_csv_matches_the_per_value_formatter():
    floats = [0.0, -0.0, float("inf"), float("-inf"), float("nan"), 5e-324, -5e-324,
              1.7976931348623157e308, 0.1, 1 / 3, -2.5e-17, 123456789012345.0, 1e16]
    rows = [
        floats,
        [np.float64(v) for v in floats],
        [np.float32(0.1), np.float32("nan"), np.float32(-0.0), np.float32(3e38)],
        [np.int64(-7), np.int64(2**62), 3, True, False, None, "a,b", "x%sy%%", ""],
        # The column types change mid-way, and rows may be tuples or arrays.
        (1.5, 2, "three"),
        ("three", 1.5, 2),
        (np.float64(1.5), np.int64(2), None),
        np.array([0.25, -1e-300, 7.0]),
        np.array([1, 2, 3]),
        [],
    ]
    header = ["h", "w_m", "%d"]
    assert cli._csv(header, rows) == _reference_csv(header, rows)
    assert cli._csv(header, iter(rows)) == _reference_csv(header, rows)
    assert cli._csv(header, []) == "h,w_m,%d\n"


def test_csv_formats_a_float_table_as_the_per_value_formatter():
    floats = [0.0, -0.0, float("inf"), float("-inf"), float("nan"), 5e-324, -5e-324,
              1.7976931348623157e308, 0.1, 1 / 3, -2.5e-17, 1e16]
    table = np.array(floats).reshape(4, 3)
    header = ["h", "w_m", "%d"]
    assert cli._csv(header, table) == _reference_csv(header, table.tolist())
    assert cli._csv(header, np.empty((0, 3))) == "h,w_m,%d\n"
    # Other 2-d arrays stay on the per-value path: float32 and ints go through str.
    with np.errstate(over="ignore"):  # 1.797e308 is inf in float32
        narrow = table.astype(np.float32)
    for other in (narrow, np.arange(12).reshape(4, 3)):
        assert cli._csv(header, other) == _reference_csv(header, other)
