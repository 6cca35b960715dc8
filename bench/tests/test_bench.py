"""Tests of the benchmark itself: output checks, tracer, and the no-source exit.

    python3 -m pytest bench/tests -q
"""

import copy
import json
import shutil
import subprocess
import sys
import threading

import numpy as np
import pytest

import layers
import workloads as wl
from run import ROOT, WORK, run_command
from tracer import Tracer, aggregate


@pytest.fixture(scope="module")
def cli():
    from gridcert import cli
    return cli


@pytest.fixture(scope="module")
def sweep_output(cli):
    return run_command(cli, wl.sweep_argv(wl.fixture(ROOT)))[1:]


@pytest.fixture(scope="module")
def simulate_output(cli):
    return run_command(cli, wl.simulate_argv(wl.fixture(ROOT)))[1:]


def test_sweep_matches_reference_and_corruption_fails(sweep_output):
    w = wl.SweepFixture(ROOT, 0, WORK)
    assert w.check("sweep", *sweep_output) == (3200, 0, [])
    ref = list(w.reference)
    row = ref[7].split(",")
    row[3] = "unstable" if row[3] == "stable" else "stable"
    ref[7] = ",".join(row)
    row = ref[9].split(",")
    row[5] = repr(float(row[5]) * (1 + 1e-9))
    ref[9] = ",".join(row)
    w.reference = ref
    attempted, failed, notes = w.check("sweep", *sweep_output)
    assert (attempted, failed) == (3200, 2)
    assert "verdicts" in notes[0] and "min_eig" in notes[1]


def test_sweep_row_disagreement_fails():
    ref = "1,2,forming,stable,stable,0.5".split(",")
    assert wl._sweep_row_problem(list(ref), ref) is None
    bad = "1,2,forming,stable,unstable,0.5".split(",")
    assert "disagree" in wl._sweep_row_problem(bad, bad)
    assert wl._sweep_row_problem("1,2,forming,infeasible,stable,".split(","),
                                 "1,2,forming,infeasible,stable,".split(",")) is None


def test_simulate_matches_reference_and_corruption_fails(simulate_output):
    w = wl.SimulateFixture(ROOT, 0, WORK)
    assert w.check("simulate", *simulate_output) == (1, 0, [])
    good = w.reference

    for k in (1, 17, len(good) - 1):  # the first row, one mid-run and the last
        w.reference = list(good)
        cells = good[k].split(",")
        cells[2] = repr(float(cells[2]) + 1e-9)
        w.reference[k] = ",".join(cells)
        assert w.check("simulate", *simulate_output)[:2] == (1, 1)

    w.reference = good
    rc, out, err = simulate_output
    assert w.check("simulate", 2, out, err)[:2] == (1, 1)
    assert w.check("simulate", rc, "\n".join(out.splitlines()[:-3]), err)[:2] == (1, 1)


def test_simulate_storage_increase_fails(simulate_output):
    rc, out, err = simulate_output
    lines = out.splitlines()
    cells = lines[-3].split(",")  # bus 1 of the last step carries that step's W
    cells[-1] = repr(float(cells[-1]) + 1e-3)
    lines[-3] = ",".join(cells)
    problem = wl._simulate_problem(rc, "\n".join(lines),
                                   wl.SimulateFixture(ROOT, 0, WORK).reference)
    assert problem and "storage" in problem


@pytest.fixture(scope="module")
def mesh(cli):
    w = wl.Mesh500(ROOT, 3, WORK)
    return w, {label: run_command(cli, argv)[1:] for label, argv in w.commands}


def test_mesh_matches_and_corruption_fails(mesh):
    w, outputs = mesh
    assert w.flow_error < wl.FLOW_TOL
    assert w.stored is not None, "seed 3 has a captured reference"
    for label in ("certify", "eigen"):
        assert w.check(label, *outputs[label]) == (1, 0, [])

    stored = w.stored
    w.stored = copy.deepcopy(stored)
    w.stored["certify"]["min_eig"] *= 1 + 1e-6
    w.stored["eigen"]["abscissa"] += 1e-5 * w.stored["eigen"]["radius"]
    assert w.check("certify", *outputs["certify"])[:2] == (1, 1)
    assert w.check("eigen", *outputs["eigen"])[:2] == (1, 1)
    w.stored = stored

    gammas = w.gammas
    w.gammas = dict(gammas)
    key = next(iter(w.gammas))
    w.gammas[key] *= 1 + 1e-6
    assert w.check("certify", *outputs["certify"])[:2] == (1, 1)
    w.gammas = gammas

    eigenvalues = w.eigenvalues
    w.eigenvalues = eigenvalues.copy()
    w.eigenvalues[0] += 1e-5 * np.abs(eigenvalues).max()
    assert w.check("eigen", *outputs["eigen"])[:2] == (1, 1)
    w.eigenvalues = eigenvalues

    w.flow_error = 1e-3
    assert w.check("eigen", *outputs["eigen"])[:2] == (1, 1)


def test_mesh_generator_is_seeded():
    import mesh

    doc_a, point_a = mesh.generate(5, n_bus=30)
    doc_b, point_b = mesh.generate(5, n_bus=30)
    doc_c, _ = mesh.generate(6, n_bus=30)
    assert json.dumps(doc_a) == json.dumps(doc_b) and point_a == point_b
    assert json.dumps(doc_a) != json.dumps(doc_c)
    kinds = [bus["device"]["kind"] for bus in doc_a["buses"]]
    assert kinds.count("load") == 30 // 4 and kinds[0] != "load"
    specs = [bus["spec"]["type"] for bus in doc_a["buses"]]
    assert specs[0] == "slack"
    assert all((s == "pq") == (k == "load") for s, k in zip(specs[1:], kinds[1:]))


def test_tracer_restores_and_counts_per_site():
    import gridcert
    from gridcert import certificate, linearization, simulation, devices

    before = (certificate.network_hessian, simulation.network_hessian,
              linearization.network_hessian, gridcert.network_hessian,
              devices.VsgInverter.__dict__.get("energy"), "output_power" in vars(devices.VsgInverter))
    cfg = gridcert.load_config(wl.fixture(ROOT))
    flow = gridcert.solve_power_flow(cfg.system.net, cfg.bus_specs)
    tracer = Tracer(result_hooks=layers.RESULT_HOOKS)
    with tracer:
        assert simulation.network_hessian is not before[1]
        eq = cfg.system.equilibrium(flow)
        linearization.eigenvalue_verdict(cfg.system, eq)
        gridcert.solve_power_flow(cfg.system.net, cfg.bus_specs)
    after = (certificate.network_hessian, simulation.network_hessian,
             linearization.network_hessian, gridcert.network_hessian,
             devices.VsgInverter.__dict__.get("energy"), "output_power" in vars(devices.VsgInverter))
    assert before == after
    spans, counters = tracer.take()
    stats, site_calls = aggregate(spans)
    assert site_calls[("network_hessian", "linearization")] == 1
    assert ("network_hessian", "simulation") not in site_calls
    assert stats["eigenvalue_verdict"]["calls"] == 1
    assert stats["VsgInverter.energy_hessian"]["calls"] == 2
    assert counters[layers.ITERATIONS] == flow.iterations
    assert tracer.spans == [] and ("network_hessian", "simulation") in tracer.sites


def test_self_time_stays_within_a_thread():
    # (id, name, site, start, end, parent, thread)
    spans = [(1, "outer", "m", 0.0, 10.0, None, 1),
             (2, "inner", "m", 1.0, 4.0, 1, 1),
             (3, "inner", "m", 5.0, 6.0, 1, 1),
             (4, "worker", "m", 2.0, 9.0, None, 2)]
    stats, _ = aggregate(spans)
    assert stats["outer"]["self_s"] == pytest.approx(6.0)
    assert stats["inner"]["calls"] == 2 and stats["inner"]["s"] == pytest.approx(4.0)
    assert stats["worker"]["self_s"] == pytest.approx(7.0)


def test_tracer_parent_links_are_thread_local():
    import gridcert

    cfg = gridcert.load_config(wl.fixture(ROOT))
    flow = gridcert.solve_power_flow(cfg.system.net, cfg.bus_specs)
    tracer = Tracer()
    with tracer:
        t = threading.Thread(target=gridcert.certify, args=(flow, cfg.system))
        t.start()
        t.join(timeout=30)
        assert not t.is_alive()
    spans, _ = tracer.take()
    ids = {s[0]: s for s in spans}
    assert any(s[1] == "certify" and s[5] is None for s in spans)
    assert all(ids[s[5]][6] == s[6] for s in spans if s[5] is not None)


def test_missing_function_is_reported_absent():
    class Installed:
        installed = {"certify", "TwoAxisGenerator.energy"}
        sites = set()

    assert layers._absent("certificate.network_hessian.calls", Installed)
    assert layers._absent(layers.BUILDS, Installed)
    assert not layers._absent("certificate.certify.p50_s", Installed)
    assert not layers._absent("devices.self_s", Installed)


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    done = subprocess.run([sys.executable, "bench/run.py", "--workload", "sweep_fixture",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
