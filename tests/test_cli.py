import json
from types import SimpleNamespace

import numpy as np
import pytest

import gridcert as gc
from gridcert import cli, devices, network
from gridcert.cli import main

from _oracles import (
    TABLE1,
    off_flow_load_doc,
    random_system,
    sweep_point,
    three_bus_doc,
    voltage_regular,
)

FIXTURE = str(gc.fixture_path("three_bus.json"))

# bus 3's reactances where the closed-form VSG stationary state misses its 1e-10 residual bound
STATIONARY_FAILURE_X3 = (1e-6, 5e5)

# a bus 2 device whose synchronizing coefficient is negative at the fixture's flow
NEGATIVE_GAMMA_VSG = {"kind": "vsg", "M": 0.2, "D": 1.0, "X_d": 50.0, "X_q": 1.9}

# a droop inverter with the fixture VSG's reactances
DROOP = {"kind": "fdc", "D": 1.0, "X_d": 0.1, "X_q": 0.069}


@pytest.fixture
def three_bus_path(tmp_path):
    path = tmp_path / "three_bus.json"
    path.write_text(json.dumps(three_bus_doc()))
    return str(path)


def write_config(tmp_path, doc, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestPowerflow:
    def test_bundled_fixture_matches_study_table(self, capsys):
        code, out, _ = run(capsys, ["powerflow", "--config", str(gc.fixture_path("three_bus.json")),
                                    "--no-timestamp"])
        assert code == 0
        rows = [line.split() for line in out.strip().splitlines()[1:]]
        values = np.array([[float(c) for c in row[1:]] for row in rows])
        assert np.max(np.abs(values[:, 0] - TABLE1["theta"])) <= 5e-4
        assert np.max(np.abs(values[:, 1] - TABLE1["V"])) <= 5e-4
        assert np.max(np.abs(values[:, 2] - TABLE1["P"])) <= 5e-4
        assert np.max(np.abs(values[:, 3] - TABLE1["Q"])) <= 5e-4

    def test_zero_injection_flat(self, capsys, tmp_path):
        doc = three_bus_doc()
        doc["buses"][0]["spec"] = {"type": "pq", "P": 0.0, "Q": 0.0}
        doc["buses"][1]["spec"] = {"type": "pq", "P": 0.0, "Q": 0.0}
        path = write_config(tmp_path, doc)
        code, out, _ = run(capsys, ["powerflow", "--config", path, "--no-timestamp"])
        assert code == 0
        for line in out.strip().splitlines()[1:]:
            _, theta, v, p, q = line.split()
            assert float(theta) == 0.0 and float(v) == 1.0
            assert float(p) == 0.0 and float(q) == 0.0

    @pytest.mark.parametrize("lines, message", [
        ([{"from": 70, "to": 5, "b": 40.0}], "line graph is disconnected; unreachable buses [9]"),
        ([{"from": 70, "to": 5, "b": 1.7e308}, {"from": 5, "to": 9, "b": 1.7e308}],
         "line susceptances at bus 5 do not sum to a finite value"),
    ])
    def test_network_errors_name_bus_ids(self, capsys, tmp_path, lines, message):
        # the fixture's buses renamed 70, 5 and 9: an error names the id, never the position
        doc = three_bus_doc()
        for bus, bus_id in zip(doc["buses"], (70, 5, 9)):
            bus["id"] = bus_id
        doc["lines"] = lines
        code, out, err = run(capsys, ["powerflow", "--config", write_config(tmp_path, doc),
                                      "--no-timestamp"])
        assert (code, out, err) == (2, "", f"error: config: {message}\n")

    def test_overloaded_network_exits_2(self, capsys, tmp_path):
        doc = three_bus_doc()
        doc["buses"][1]["spec"] = {"type": "pq", "P": -350.0, "Q": -50.0}
        path = write_config(tmp_path, doc)
        code, _, err = run(capsys, ["powerflow", "--config", path])
        assert code == 2
        assert "power flow" in err

    def test_out_file_matches_stdout(self, capsys, tmp_path, three_bus_path):
        out_path = tmp_path / "table.txt"
        code, out, _ = run(capsys, ["powerflow", "--config", three_bus_path,
                                    "--no-timestamp", "--out", str(out_path)])
        assert code == 0
        assert out_path.read_text() == out

    # (path to a value in three_bus_doc, value written there, failure of the Newton power flow)
    FLOW_FAILURES = [
        # B[1, 1] = -(1e300 + 45) rounds to -1e300, so the Jacobian loses bus 3's line
        (("lines", 0, "b"), 1e300, "singular power flow Jacobian at iteration 0"),
        (("buses", 1, "spec", "Q"), 1e306, "power flow diverged at iteration 1 (non-finite residual)"),
    ]

    @pytest.mark.parametrize("command", ["powerflow", "certify", "eigen", "simulate"])
    @pytest.mark.parametrize("path, value, message", FLOW_FAILURES)
    def test_power_flow_failure_exit_2(self, capfd, tmp_path, command, path, value, message):
        doc = three_bus_doc()
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = value
        code = main([command, "--config", write_config(tmp_path, doc), "--no-timestamp"])
        out, err = capfd.readouterr()  # nothing from numpy or LAPACK either
        assert (code, out, err) == (2, "", f"error: power flow failed: {message}\n")

    def test_unwritable_out_exit_2(self, capsys, tmp_path, three_bus_path):
        out_path = tmp_path / "missing" / "table.txt"
        code, out, err = run(capsys, ["powerflow", "--config", three_bus_path,
                                      "--no-timestamp", "--out", str(out_path)])
        assert (code, out) == (2, "")
        assert err == f"error: cannot write {out_path}: No such file or directory\n"
        assert not out_path.parent.exists()


class TestCertify:
    def test_stable_fixture_json_and_exit(self, capsys, three_bus_path):
        code, out, _ = run(capsys, ["certify", "--config", three_bus_path, "--no-timestamp"])
        assert code == 0
        doc = json.loads(out)
        assert doc["verdict"] == "stable"
        assert set(doc["gammas"]) == {"1", "2", "3"}
        assert doc["min_eig"] > 0
        assert "generated" not in doc

    def test_unstable_following_config_exit_1(self, capsys, tmp_path):
        path = write_config(tmp_path, three_bus_doc(x3=(4.0, 4.0)))
        code, out, _ = run(capsys, ["certify", "--config", path,
                                    "--load-mode", "following", "--no-timestamp"])
        assert code == 1
        doc = json.loads(out)
        assert doc["verdict"] == "unstable"
        assert "witness" in doc

    def test_forming_vs_following_at_boundary_point(self, capsys, tmp_path):
        path = write_config(tmp_path, three_bus_doc(x3=(2.0, 1.0)))
        code_forming, _, _ = run(capsys, ["certify", "--config", path, "--load-mode", "forming"])
        code_following, _, _ = run(capsys, ["certify", "--config", path, "--load-mode", "following"])
        assert code_forming == 0
        assert code_following == 1

    def test_capability_violation_exit_2(self, capsys, tmp_path):
        doc = three_bus_doc()
        # X_q so large the consumption bus leaves the capability region
        doc["buses"][1]["device"] = {"kind": "vsg", "M": 0.2, "D": 1.0, "X_d": 5.0, "X_q": 5.0}
        path = write_config(tmp_path, doc)
        code, _, err = run(capsys, ["certify", "--config", path])
        assert code == 2
        assert "capability" in err

    def test_invalid_config_exit_2(self, capsys, tmp_path):
        doc = three_bus_doc()
        doc["buses"][0]["spec"] = {"type": "slack"}  # second slack
        path = write_config(tmp_path, doc)
        code, _, err = run(capsys, ["certify", "--config", path])
        assert code == 2
        assert "slack" in err


    # (path to the number in three_bus_doc, JSON literal written there, message)
    BAD_NUMBERS = [
        (("buses", 2, "device", "X_d"), "Infinity", "buses[2]: X_d must be positive and finite, got inf"),
        (("buses", 1, "device", "D"), "NaN", "buses[1]: D must be positive and finite, got nan"),
        (("lines", 0, "b"), "1e400", "lines[0]: line susceptance must be positive and finite, got b=inf"),
        (("buses", 1, "spec", "P"), "1e400", "buses[1].spec: key 'P' must be finite, got inf"),
        (("omega0",), "-Infinity", "config: key 'omega0' must be finite, got -inf"),
        (("buses", 0, "device", "X_d"), "null", "buses[0]: float() argument must be a string or a "
                                                "real number, not 'NoneType'"),
        (("lines", 1, "b"), "null", "lines[1]: float() argument must be a string or a real number, "
                                    "not 'NoneType'"),
        # float() takes booleans and numeric strings, which the schema does not
        (("omega0",), "true", "config: key 'omega0' must be a number, not bool"),
        (("buses", 0, "device", "M"), "true", "buses[0]: key 'M' must be a number, not bool"),
        (("buses", 1, "spec", "P"), '"-3.5"', "buses[1].spec: key 'P' must be a number, not str"),
        (("lines", 0, "b"), "false", "lines[0]: key 'b' must be a number, not bool"),
        (("lines", 1, "to"), "true", "lines[1]: key 'to' has wrong type bool"),
        (("buses", 0, "id"), "true", "buses[0]: key 'id' has wrong type bool"),
        # "lines" may be absent, but where present it must be a list
        (("lines",), "null", "config: key 'lines' has wrong type NoneType"),
        (("lines",), "5", "config: key 'lines' has wrong type int"),
        (("lines",), '"ab"', "config: key 'lines' has wrong type str"),
        # a slack or pv bus fixes a voltage magnitude, which must be positive
        (("buses", 2, "spec", "V"), "-1", "buses[2].spec: key 'V' must be positive, got -1.0"),
        (("buses", 0, "spec", "V"), "0", "buses[0].spec: key 'V' must be positive, got 0.0"),
    ]

    @pytest.mark.parametrize("path, literal, message", BAD_NUMBERS)
    def test_bad_config_number_exit_2(self, capsys, tmp_path, path, literal, message):
        doc = three_bus_doc()
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = 12345.678
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps(doc).replace("12345.678", literal))
        code, out, err = run(capsys, ["certify", "--config", str(config), "--no-timestamp"])
        assert (code, out, err) == (2, "", f"error: {message}\n")

    # (path to a value in three_bus_doc, value written there, message)
    BAD_STRUCTURE = [
        (("buses",), [], "config: at least one bus required"),
        (("omega0",), 0, "config: omega0 must be positive"),
        (("buses", 1), 5, "buses[1]: must be an object"),
        (("buses", 1, "id"), 1, "buses[1]: duplicate bus id 1"),
        (("buses", 0, "spec"), {"type": "pvq"}, "buses[0].spec: unknown bus spec type 'pvq'"),
        (("lines", 0), 5, "lines[0]: must be an object"),
        (("lines", 1, "to"), 9, "lines[1]: unknown bus id 9"),
        # network errors name bus ids, here one more than their positions
        (("lines",), [{"from": 1, "to": 2, "b": 40.0}],
         "config: line graph is disconnected; unreachable buses [3]"),
        # each line is finite, their sum at bus id 2 is not
        (("lines",), [{"from": 1, "to": 2, "b": 1.7e308}, {"from": 2, "to": 3, "b": 1.7e308}],
         "config: line susceptances at bus 2 do not sum to a finite value"),
        # a key outside the schema is rejected at every level, not dropped
        (("line",), [], "config: unexpected keys ['line']"),
        (("buses", 1, "devcie"), {}, "buses[1]: unexpected keys ['devcie']"),
        (("buses", 0, "spec", "Q"), 0.7, "buses[0].spec: unexpected keys ['Q']"),
        (("buses", 1, "spec", "V"), 1.0, "buses[1].spec: unexpected keys ['V']"),
        (("buses", 2, "spec"), {"P": 9.0, "type": "slack", "Q": 1.0},
         "buses[2].spec: unexpected keys ['P', 'Q']"),
        (("lines", 1, "x"), 0.1, "lines[1]: unexpected keys ['x']"),
    ]

    @pytest.mark.parametrize("path, value, message", BAD_STRUCTURE)
    def test_bad_config_structure_exit_2(self, capsys, tmp_path, path, value, message):
        doc = three_bus_doc()
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = value
        code, out, err = run(capsys, ["certify", "--config", write_config(tmp_path, doc),
                                      "--no-timestamp"])
        assert (code, out, err) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("text, message", [
        ("[1, 2]", "config root must be an object"),
        ("", "config {path} is not valid JSON: Expecting value: line 1 column 1 (char 0)"),
        (None, "cannot read config {path}: [Errno 2] No such file or directory: '{path}'"),
    ])
    def test_unreadable_config_exit_2(self, capsys, tmp_path, text, message):
        path = tmp_path / "cfg.json"
        if text is not None:
            path.write_text(text)
        code, out, err = run(capsys, ["certify", "--config", str(path), "--no-timestamp"])
        assert (code, out, err) == (2, "", f"error: {message.format(path=path)}\n")

    @pytest.mark.parametrize("mode, bus2, message", [
        ("following", {"spec": {"type": "pq", "P": 0.5, "Q": 0.0}},
         "load-mode switching needs exactly one PQ bus with P < 0, found 0"),
        ("forming", {"device": {"kind": "load", "P_ref": -3.5, "Q_ref": -0.5}},
         "grid-forming mode needs an inverter device (vsg/fdc) configured at the load bus"),
    ])
    def test_load_mode_without_its_bus_exit_2(self, capsys, tmp_path, mode, bus2, message):
        doc = three_bus_doc()
        doc["buses"][1].update(bus2)
        code, out, err = run(capsys, ["certify", "--config", write_config(tmp_path, doc),
                                      "--load-mode", mode, "--no-timestamp"])
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_load_off_its_flow_exit_2(self, capsys, tmp_path):
        # certify rejects the load as the eigen oracle's equilibrium does, with its message
        path = write_config(tmp_path, off_flow_load_doc())
        code, out, err = run(capsys, ["certify", "--config", path, "--no-timestamp"])
        code_eig, out_eig, err_eig = run(capsys, ["eigen", "--config", path, "--no-timestamp"])
        assert (code, out) == (code_eig, out_eig) == (2, "")
        cfg = gc.load_config(path)
        flow = gc.solve_power_flow(cfg.system.net, cfg.bus_specs)
        assert err == err_eig == ("error: constant-power load (-0.5, -3.0) cannot realize operating "
                                  f"point (P={float(flow.P[1])}, Q={float(flow.Q[1])})\n")

    def test_non_positive_slack_voltage_rejected_by_powerflow(self, capsys, tmp_path):
        doc = three_bus_doc()
        doc["buses"][2]["spec"]["V"] = -1.0
        code, out, err = run(capsys, ["powerflow", "--config", write_config(tmp_path, doc),
                                      "--no-timestamp"])
        assert (code, out, err) == (2, "", "error: buses[2].spec: key 'V' must be positive, "
                                           "got -1.0\n")

    @pytest.mark.parametrize("path, message", [
        (("buses", 0, "device"), "buses[0]: missing required key 'device'"),
        (("lines", 0, "b"), "lines[0]: missing required key 'b'"),
    ])
    def test_missing_key_named_once(self, capsys, tmp_path, path, message):
        doc = three_bus_doc()
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        del parent[path[-1]]
        code, out, err = run(capsys, ["certify", "--config", write_config(tmp_path, doc),
                                      "--no-timestamp"])
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_coefficient_gate_names_violating_bus(self, capsys, tmp_path):
        doc = three_bus_doc()
        doc["buses"][1]["device"] = NEGATIVE_GAMMA_VSG
        code, out, err = run(capsys, ["certify", "--config", write_config(tmp_path, doc),
                                      "--load-mode", "forming", "--no-timestamp"])
        assert code == 1
        report = json.loads(out)
        assert (report["verdict"], report["min_eig"], report["violating_bus"]) == ("unstable", None, 2)
        assert report["gammas"]["2"] < 0 < min(report["gammas"]["1"], report["gammas"]["3"])
        assert err.splitlines()[-1] == "  positivity condition violated at bus 2"

    def test_non_finite_closed_form_exit_2(self, capfd, tmp_path):
        # at a subnormal X_d bus 3's synchronizing coefficient overflows
        path = write_config(tmp_path, three_bus_doc(x3=(1e-320, 0.069)))
        code = main(["certify", "--config", path, "--load-mode", "forming", "--no-timestamp"])
        out, err = capfd.readouterr()
        assert (code, out) == (2, "")
        assert err.splitlines()[-1] == "error: synchronizing coefficient at bus 3 is not finite (inf)"


class TestEigen:
    def test_non_finite_closed_form_exit_2(self, capfd, tmp_path):
        path = write_config(tmp_path, three_bus_doc(x3=(1e-320, 0.069)))
        code = main(["eigen", "--config", path, "--load-mode", "forming", "--no-timestamp"])
        out, err = capfd.readouterr()
        assert (code, out) == (2, "")  # nothing from LAPACK either
        assert err.splitlines()[-1] == "error: algebraic block is not finite"

    def test_spectrum_csv_and_verdict(self, capsys, three_bus_path):
        code, out, err = run(capsys, ["eigen", "--config", three_bus_path, "--no-timestamp"])
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "re,im"
        values = np.array([[float(c) for c in line.split(",")] for line in lines[1:]])
        assert values.shape[0] == 8  # two-axis machine (4 states) + two vsg (2 each)
        assert "verdict: stable" in err
        # conjugate closure of the exported spectrum
        spectrum = values[:, 0] + 1j * values[:, 1]
        assert np.allclose(sorted(spectrum, key=lambda z: (z.real, z.imag)),
                           sorted(np.conj(spectrum), key=lambda z: (z.real, z.imag)), atol=1e-9)

    @pytest.mark.parametrize("mode", [[], ["--load-mode", "forming"], ["--load-mode", "following"]])
    def test_voltage_regular_fixture_has_no_note(self, capsys, mode):
        code, _, err = run(capsys, ["eigen", "--config", FIXTURE, "--no-timestamp", *mode])
        assert (code, err) == (0, "verdict: stable\n")

    def test_non_voltage_regular_equilibrium_noted(self, capsys, monkeypatch):
        system, flow = random_system(np.random.default_rng(4))
        eq = system.equilibrium(flow)
        assert not voltage_regular(system, eq)
        report = gc.eigenvalue_verdict(system, eq)
        monkeypatch.setattr(cli, "_setup", lambda config, load_mode: (SimpleNamespace(system=system),
                                                                      flow))
        code, out, err = run(capsys, ["eigen", "--config", FIXTURE, "--no-timestamp"])
        assert code == cli._VERDICT_EXIT[report.verdict]
        assert len(out.splitlines()) == 1 + system.n_states
        assert err == (f"verdict: {report.verdict}\n"
                       "note: equilibrium is not voltage-regular (smallest algebraic-block "
                       f"eigenvalue {report.voltage_margin:.6g})\n")

    def test_eigen_agrees_with_certify_exit(self, capsys, tmp_path):
        path = write_config(tmp_path, three_bus_doc(x3=(4.0, 4.0)))
        code_eig, _, _ = run(capsys, ["eigen", "--config", path, "--load-mode", "following"])
        code_cert, _, _ = run(capsys, ["certify", "--config", path, "--load-mode", "following"])
        assert code_eig == code_cert == 1

    def test_stationary_state_failure_exits_2(self, capsys, tmp_path):
        path = write_config(tmp_path, three_bus_doc(x3=STATIONARY_FAILURE_X3))
        code, out, err = run(capsys, ["eigen", "--config", path, "--no-timestamp"])
        assert code == 2
        assert out == ""
        assert err.startswith("error: vsg stationary state residual")


class TestSimulate:
    def test_trajectory_csv_shape(self, capsys, tmp_path):
        path = write_config(tmp_path, three_bus_doc(M=0.05, D=2.0))
        code, out, _ = run(capsys, ["simulate", "--config", path, "--load-mode", "following",
                                    "--dt", "1e-3", "--t-end", "0.02",
                                    "--perturb", "1=0.05", "--no-timestamp"])
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "t,bus,theta,V,P,Q,delta,omega,E_q,E_d,W"
        rows = [line.split(",") for line in lines[1:]]
        assert len(rows) == 21 * 3  # initial sample + 20 steps, 3 buses each
        by_bus = {r[1] for r in rows}
        assert by_bus == {"1", "2", "3"}
        for r in rows:
            if r[1] == "2":  # constant-power load: no internal states
                assert r[6] == "" and r[7] == "" and r[8] == "" and r[9] == ""
                assert float(r[4]) == pytest.approx(-3.5, abs=1e-9)
            if r[1] == "1":  # two-axis machine: full state set recorded
                assert all(r[k] != "" for k in (6, 7, 8, 9))
            if r[1] == "3":  # vsg: angle and frequency only
                assert r[6] != "" and r[7] != ""
                assert r[8] == "" and r[9] == ""
        t = np.array([float(r[0]) for r in rows[::3]])
        assert np.all(np.diff(t) > 0)

    def test_rows_print_the_solved_powers(self, capsys, monkeypatch):
        # each row's (P, Q) comes from the voltage solve behind it, not from a second evaluation
        calls = []
        output_power = devices.Device.output_power
        monkeypatch.setattr(devices.Device, "output_power",
                            lambda *args: calls.append(args) or output_power(*args))
        code, out, _ = run(capsys, ["simulate", "--config", FIXTURE, "--dt", "1e-3",
                                    "--t-end", "0.01", "--no-timestamp"])
        assert code == 0
        assert len(out.splitlines()) == 1 + 11 * 3
        assert calls == []

    def test_stationary_state_failure_exits_2(self, capsys, tmp_path):
        path = write_config(tmp_path, three_bus_doc(x3=STATIONARY_FAILURE_X3))
        code, out, err = run(capsys, ["simulate", "--config", path, "--t-end", "0.01",
                                      "--no-timestamp"])
        assert code == 2
        assert out == ""
        assert err.startswith("error: vsg stationary state residual")

    # step options simulate rejects, and the message naming each: the first five before it
    # loads the config; in the last four --dt and --t-end are positive and finite, but their
    # ratio is no step count a trajectory can hold or that ends at --t-end
    BAD_OPTIONS = [
        (["--dt", "0"], "--dt must be positive and finite, got 0.0"),
        (["--dt", "nan"], "--dt must be positive and finite, got nan"),
        (["--t-end", "inf"], "--t-end must be positive and finite, got inf"),
        (["--t-end", "-1"], "--t-end must be positive and finite, got -1.0"),
        (["--perturb", "1=inf"], "--perturb RAD must be finite, got '1=inf'"),
        (["--dt", "1e-310", "--t-end", "1e10"], "t_end / dt must be finite, got 1e+10 / 1e-310 "
                                                "(a trajectory holds at most 9223372036854775807 steps)"),
        (["--dt", "1e-300"], "t_end / dt must be finite, got 1 / 1e-300 "
                             "(a trajectory holds at most 9223372036854775807 steps)"),
        (["--dt", "1", "--t-end", "0.2"],
         "t_end / dt must be a whole number of steps, got 0.2 / 1"),
        (["--dt", "0.3", "--t-end", "0.2"],
         "t_end / dt must be a whole number of steps, got 0.2 / 0.3"),
    ]

    @pytest.mark.parametrize("options, message", BAD_OPTIONS)
    def test_bad_step_option_exit_2(self, capsys, options, message):
        code, out, err = run(capsys, ["simulate", "--config", FIXTURE, "--no-timestamp", *options])
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_failed_initial_solve_exit_2(self, capsys):
        # a 1 rad kick leaves no bus voltages consistent with the kicked rotor angle
        code, out, err = run(capsys, ["simulate", "--config", FIXTURE, "--perturb", "1=1.0",
                                      "--t-end", "0.01", "--no-timestamp"])
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_load_bus_perturbation_rejected(self, capsys):
        code, out, err = run(capsys, ["simulate", "--config", FIXTURE, "--load-mode", "following",
                                      "--perturb", "2=0.05", "--t-end", "0.01", "--no-timestamp"])
        assert (code, out, err) == (2, "", "error: bus id 2 hosts a load; nothing to perturb\n")

    def test_malformed_perturb_exit_2(self, capsys):
        code, out, err = run(capsys, ["simulate", "--config", FIXTURE, "--perturb", "1:0.1",
                                      "--t-end", "0.01", "--no-timestamp"])
        assert (code, out, err) == (2, "", "error: --perturb expects BUS=RAD, got '1:0.1'\n")

    def test_truncated_run_keeps_whole_samples(self, capsys):
        # a 3 rad kick at bus 3 drives the voltage Newton out of its feasible region mid-run
        code, out, err = run(capsys, ["simulate", "--config", FIXTURE, "--dt", "1e-3",
                                      "--t-end", "0.5", "--perturb", "3=3.0", "--no-timestamp"])
        assert code == 2
        assert err == "truncated at t=0.165s: bus voltage iterate left the feasible region\n"
        rows = [line.split(",") for line in out.splitlines()[1:]]
        assert len(rows) == 166 * 3
        samples = [rows[k:k + 3] for k in range(0, len(rows), 3)]
        for sample in samples:  # every sample holds each bus once, at one time
            assert [r[1] for r in sample] == ["1", "2", "3"]
            assert len({r[0] for r in sample}) == 1
        assert samples[-1][0][0] == "0.165"

    def test_unknown_perturb_bus_rejected(self, capsys, three_bus_path):
        code, _, err = run(capsys, ["simulate", "--config", three_bus_path,
                                    "--perturb", "9=0.05", "--t-end", "0.01"])
        assert code == 2
        assert "unknown bus" in err


class TestSweep:
    def test_grid_rows_and_modes(self, capsys, three_bus_path):
        code, out, _ = run(capsys, ["sweep", "--config", three_bus_path, "--sweep-bus", "3",
                                    "--xd-range", "0.1:4:2", "--xq-range", "0.1:4:2",
                                    "--no-timestamp"])
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "X_d,X_q,load_mode,verdict_certificate,verdict_eigen,min_eig"
        rows = [line.split(",") for line in lines[1:]]
        assert len(rows) == 8  # 2x2 grid, both modes
        assert [r[2] for r in rows] == ["forming"] * 4 + ["following"] * 4
        for r in rows:
            assert r[3] in ("stable", "unstable", "marginal", "infeasible")
            assert r[3] == r[4]

    def test_two_modes_share_one_power_flow(self, capsys, monkeypatch):
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return gc.solve_power_flow(*args, **kwargs)

        monkeypatch.setattr(cli, "solve_power_flow", counting)
        code, out, _ = run(capsys, ["sweep", "--config", FIXTURE, "--sweep-bus", "3",
                                    "--xd-range", "0.1:4:2", "--xq-range", "0.1:4:2",
                                    "--no-timestamp"])
        assert code == 0
        assert len(out.strip().splitlines()) == 9  # header, then 4 points per mode
        assert len(calls) == 1

    def test_single_point_grid_matches_certify(self, capsys, tmp_path, three_bus_path):
        code, out, _ = run(capsys, ["sweep", "--config", three_bus_path, "--sweep-bus", "3",
                                    "--xd-range", "4:4:1", "--xq-range", "4:4:1",
                                    "--load-mode", "following", "--no-timestamp"])
        assert code == 0
        row = out.strip().splitlines()[1].split(",")
        path = write_config(tmp_path, three_bus_doc(x3=(4.0, 4.0)))
        code_cert, cert_out, _ = run(capsys, ["certify", "--config", path,
                                              "--load-mode", "following", "--no-timestamp"])
        doc = json.loads(cert_out)
        assert row[3] == doc["verdict"] == "unstable"
        assert float(row[5]) == pytest.approx(doc["min_eig"], rel=1e-11)  # CSV carries 12 digits

    def test_infeasible_points_recorded(self, capsys, three_bus_path):
        # sweeping the two-axis bus below its transient reactance is impossible
        code, out, _ = run(capsys, ["sweep", "--config", three_bus_path, "--sweep-bus", "1",
                                    "--xd-range", "0.01:0.2:2", "--xq-range", "0.069:0.069:1",
                                    "--load-mode", "forming", "--no-timestamp"])
        assert code == 0
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        assert rows[0][3] == "infeasible"  # X_d = 0.01 < X_d' = 0.05
        assert rows[1][3] in ("stable", "unstable")

    def test_load_bus_rejected_before_output(self, capsys, three_bus_path):
        # in following mode bus 2 hosts a constant-power load: no reactances to sweep
        code, out, err = run(capsys, ["sweep", "--config", three_bus_path, "--sweep-bus", "2",
                                      "--xd-range", "0.1:4:2", "--xq-range", "0.1:4:2",
                                      "--no-timestamp"])
        assert code == 2
        assert out == ""
        assert "sweep bus must host a generator or grid-forming inverter" in err

    def test_deterministic_output_bytes(self, capsys, three_bus_path):
        argv = ["sweep", "--config", three_bus_path, "--sweep-bus", "3",
                "--xd-range", "0.1:8:3", "--xq-range", "0.1:8:3", "--no-timestamp"]
        _, out1, _ = run(capsys, argv)
        _, out2, _ = run(capsys, argv)
        assert out1 == out2

    def test_timestamp_header_present_by_default(self, capsys, three_bus_path):
        _, out, _ = run(capsys, ["sweep", "--config", three_bus_path, "--sweep-bus", "3",
                                 "--xd-range", "0.1:0.1:1", "--xq-range", "0.1:0.1:1",
                                 "--load-mode", "forming"])
        assert out.splitlines()[0].startswith("# generated ")

    def test_threads_variable_ignored(self, capsys, three_bus_path, monkeypatch):
        argv = ["sweep", "--config", three_bus_path, "--sweep-bus", "3",
                "--xd-range", "0.1:4:2", "--xq-range", "0.1:4:2", "--no-timestamp"]
        monkeypatch.delenv("GRIDCERT_THREADS", raising=False)
        code, out, _ = run(capsys, argv)
        monkeypatch.setenv("GRIDCERT_THREADS", "1")
        code_1, out_1, _ = run(capsys, argv)
        assert code == code_1 == 0
        assert len(out.strip().splitlines()) == 9
        assert out_1 == out

    def test_stationary_state_failure_is_infeasible(self, capsys):
        x_d, x_q = STATIONARY_FAILURE_X3
        code, out, err = run(capsys, ["sweep", "--config", FIXTURE, "--sweep-bus", "3",
                                      "--xd-range", f"{x_d}:{x_d}:1", "--xq-range", f"{x_q}:{x_q}:1",
                                      "--load-mode", "forming", "--no-timestamp"])
        assert code == 0
        assert err == ""
        row = out.strip().splitlines()[1].split(",")
        assert row[3:5] == ["stable", "infeasible"]  # certify needs no equilibrium
        assert float(row[5]) == pytest.approx(5.92209511286, rel=1e-11)

    @pytest.mark.parametrize("text", ["0.1:inf:3", "0.1:1e400:3", "nan:1:3"])
    def test_non_finite_range_exit_2(self, capsys, text):
        code, out, err = run(capsys, ["sweep", "--config", FIXTURE, "--sweep-bus", "3",
                                      "--xd-range", text, "--xq-range", "0.1:1:2", "--no-timestamp"])
        assert (code, out, err) == (2, "", f"error: --xd-range endpoints must be positive and finite and n >= 1, got {text!r}\n")

    def test_malformed_range_exit_2(self, capsys):
        code, out, err = run(capsys, ["sweep", "--config", FIXTURE, "--sweep-bus", "3",
                                      "--xd-range", "0.1:12", "--xq-range", "0.1:1:2",
                                      "--no-timestamp"])
        assert (code, out, err) == (2, "", "error: --xd-range must be 'a:b:n', got '0.1:12'\n")

    def test_unknown_sweep_bus_exit_2(self, capsys):
        code, out, err = run(capsys, ["sweep", "--config", FIXTURE, "--sweep-bus", "7",
                                      "--xd-range", "0.1:12:2", "--xq-range", "0.1:1:2",
                                      "--no-timestamp"])
        assert (code, out, err) == (2, "", "error: --sweep-bus references unknown bus id 7\n")

    def test_non_finite_fixed_stiffness_is_certificate_infeasible(self, capsys, tmp_path):
        # bus 1's VSG at a subnormal X_d and P = 0: its synchronizing coefficient is finite, its
        # (V, V) stiffness is not, so every point the coefficients pass is infeasible
        doc = three_bus_doc(kind1="vsg")
        doc["buses"][0]["device"]["X_d"] = 1e-320
        doc["buses"][0]["spec"] = {"type": "pv", "P": 0.0, "V": 1.0}
        path = write_config(tmp_path, doc)
        code, out, err = run(capsys, ["sweep", "--config", path, "--sweep-bus", "3",
                                      "--xd-range", "0.1:1:2", "--xq-range", "0.069:0.5:2",
                                      "--load-mode", "forming", "--no-timestamp"])
        assert (code, err) == (0, "")
        rows = [row.split(",")[3:] for row in out.splitlines()[1:]]
        assert rows == [["infeasible", "infeasible", ""]] * 4
        cfg = gc.apply_load_mode(gc.load_config(path), "forming")
        flow = gc.solve_power_flow(cfg.system.net, cfg.bus_specs)
        assert rows == [list(sweep_point(cfg, flow, 2, x_d, x_q))
                        for x_d in (0.1, 1.0) for x_q in (0.069, 0.5)]

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid:RuntimeWarning")
    def test_overflowing_point_keeps_the_sweep(self, capsys):
        # at a subnormal X_d the swept bus's closed forms overflow
        code, out, _ = run(capsys, ["sweep", "--config", FIXTURE, "--sweep-bus", "3",
                                    "--xd-range", "1e-320:0.1:2", "--xq-range", "0.069:0.069:1",
                                    "--load-mode", "forming", "--no-timestamp"])
        assert code == 0
        rows = out.strip().splitlines()[1:]
        assert rows[0].split(",")[3:] == ["infeasible", "infeasible", ""]
        assert rows[1] == "0.1,0.069,forming,stable,stable,9.15253963684"

    # (bus 2 device or None for the fixture's, sweep bus, load modes, X_d range, X_q range,
    #  row kinds the grid must produce)
    ORACLE_GRIDS = {
        "bus3": (None, 3, ["forming", "following"], (0.1, 12, 12), (0.1, 12, 12),
                 {"stable", "unstable"}),
        # X_d below X_d' = 0.05 cannot build the two-axis machine, whose damping block
        # depends on X_d
        "bus1-two-axis": (None, 1, ["forming", "following"], (0.01, 0.2, 6), (0.069, 0.069, 1),
                          {"infeasible", "stable"}),
        # both transient reactance rules, X_d' = 0.05 < X_d and X_q' = 0.03 < X_q, cut the
        # grid, and the damping block changes along each row
        "bus1-two-axis-2d": (None, 1, ["forming", "following"], (0.01, 0.3, 8), (0.01, 0.2, 8),
                             {"infeasible", "stable"}),
        "bus2-forming": (None, 2, ["forming"], (0.01, 50, 30), (0.01, 1.98, 30),
                         {"infeasible", "gamma", "unstable", "stable"}),
        # bus 2's own synchronizing coefficient is negative, whatever bus 3's reactances
        "bus3-bus2-decides": (NEGATIVE_GAMMA_VSG, 3, ["forming"], (0.1, 12, 4), (0.1, 12, 4),
                              {"gamma"}),
        # the Kron condition limit rejects the X_q = 1e-10 column and the (1e-6, 4) point
        "bus3-kron-rejects": (None, 3, ["forming", "following"], (1e-6, 0.1, 4), (1e-10, 12, 4),
                              {"stable", "infeasible"}),
        # a droop inverter swept at bus 2: one state, no inertia
        "bus2-droop": (DROOP, 2, ["forming"], (0.01, 12, 8), (0.01, 12, 8),
                       {"infeasible", "gamma", "unstable", "stable"}),
    }

    @pytest.mark.parametrize("grid", list(ORACLE_GRIDS))
    def test_rows_equal_per_point_oracle(self, capsys, tmp_path, grid):
        bus2_device, bus_id, modes, xd, xq, kinds = self.ORACLE_GRIDS[grid]
        config = FIXTURE
        if bus2_device is not None:
            doc = three_bus_doc()
            doc["buses"][1]["device"] = bus2_device
            config = write_config(tmp_path, doc)
        argv = ["sweep", "--config", config, "--sweep-bus", str(bus_id),
                "--xd-range", "{}:{}:{}".format(*xd), "--xq-range", "{}:{}:{}".format(*xq),
                "--no-timestamp"]
        if len(modes) == 1:
            argv += ["--load-mode", modes[0]]
        code, out, _ = run(capsys, argv)
        assert code == 0

        expected = []
        for mode in modes:
            cfg = gc.apply_load_mode(gc.load_config(config), mode)
            flow = gc.solve_power_flow(cfg.system.net, cfg.bus_specs)
            bus_index = cfg.bus_ids.index(bus_id)
            for x_d in np.linspace(*xd):
                for x_q in np.linspace(*xq):
                    row = sweep_point(cfg, flow, bus_index, x_d, x_q)
                    expected.append(f"{x_d:.12g},{x_q:.12g},{mode}," + ",".join(row))
        rows = out.splitlines()[1:]
        assert rows == expected

        def kind(row):
            v_cert, v_eig, min_eig = row.split(",")[3:]
            if v_cert == "infeasible":
                return v_cert
            return v_eig if min_eig else "gamma"  # no min_eig: a coefficient decided
        assert {kind(row) for row in rows} == kinds


@pytest.mark.parametrize("argv", [
    ["certify"],
    ["eigen"],
    ["sweep", "--sweep-bus", "3", "--xd-range", "0.1:4:2", "--xq-range", "0.1:4:2"],
])
def test_each_command_builds_the_line_kernel_once(capsys, monkeypatch, argv):
    # the power flow, the certificate, the eigenvalue oracle and both sweep modes evaluate
    # the network through the one line kernel its Network holds
    builds = []
    init = network._Lines.__init__

    def counting(lines, B):
        builds.append(B.shape)
        init(lines, B)

    monkeypatch.setattr(network._Lines, "__init__", counting)
    code, _, _ = run(capsys, [argv[0], "--config", FIXTURE, "--no-timestamp", *argv[1:]])
    assert code == 0
    assert builds == [(3, 3)]
