import json

import numpy as np
import pytest

import gridcert as gc
from gridcert.cli import main

from _oracles import TABLE1, sweep_point, three_bus_doc

FIXTURE = str(gc.fixture_path("three_bus.json"))

# bus 3's reactances where the closed-form VSG stationary state misses its 1e-10 residual bound
STATIONARY_FAILURE_X3 = (1e-6, 5e5)


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


class TestEigen:
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

    def test_stationary_state_failure_exits_2(self, capsys, tmp_path):
        path = write_config(tmp_path, three_bus_doc(x3=STATIONARY_FAILURE_X3))
        code, out, err = run(capsys, ["simulate", "--config", path, "--t-end", "0.01",
                                      "--no-timestamp"])
        assert code == 2
        assert out == ""
        assert err.startswith("error: vsg stationary state residual")

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
        "bus2-forming": (None, 2, ["forming"], (0.01, 50, 30), (0.01, 1.98, 30),
                         {"infeasible", "gamma", "unstable", "stable"}),
        # bus 2's own synchronizing coefficient is negative, whatever bus 3's reactances
        "bus3-bus2-decides": ({"kind": "vsg", "M": 0.2, "D": 1.0, "X_d": 50.0, "X_q": 1.9},
                              3, ["forming"], (0.1, 12, 4), (0.1, 12, 4), {"gamma"}),
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
