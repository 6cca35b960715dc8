"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

pytest captures the lines by default; run with `--capture=tee-sys` (set in
the project config) or `-s` to see them live.
"""

import time

import numpy as np
import pytest

import gridcert as gc
from gridcert.certificate import certify, load_stiffness_block, network_hessian
from gridcert.cli import main
from gridcert.devices import OMEGA0_DEFAULT, Setpoint, reduced_stiffness_blocks
from gridcert.linearization import (
    assemble_energy_hessian,
    eigenvalue_verdict,
    factorized_voltage_block,
    kron_reduce,
)
from gridcert.simulation import perturbed_state, simulate

from _oracles import (
    TABLE1,
    fd_hessian,
    random_operating_point,
    random_system,
    random_two_axis,
    solved,
    three_bus_doc,
    verdict_margins,
    voltage_regular,
)

W0 = OMEGA0_DEFAULT


def report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num} ({name}): {status}{' -- ' + detail if detail else ''}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def test_criterion_1_table1_regression():
    t0 = time.monotonic()
    cfg = gc.load_config(gc.fixture_path("three_bus.json"))
    flow = solved(cfg)
    elapsed = time.monotonic() - t0
    errs = {k: float(np.max(np.abs(getattr(flow, k) - TABLE1[k])))
            for k in ("theta", "V", "P", "Q")}
    ok = all(e <= 5e-4 for e in errs.values()) and elapsed < 1.0
    report(1, "table-1 regression", ok,
           f"max column error {max(errs.values()):.2e}, {elapsed * 1e3:.0f} ms")


def test_criterion_2_oracle_equivalence():
    t0 = time.monotonic()
    rng = np.random.default_rng(20250809)
    compared = disagreements = attempts = 0
    verdicts = {"stable": 0, "unstable": 0}
    while compared < 500 and attempts < 5000:
        attempts += 1
        scale = 0.35 if rng.random() < 0.6 else 1.1
        out = random_system(rng, angle_scale=scale)
        if out is None:
            continue
        system, flow = out
        eq = system.equilibrium(flow)
        # the equivalence is stated for voltage-regular equilibria: the
        # algebraic (theta, V) block must be positive definite (automatic
        # without loads, an operating-point condition with them)
        if not voltage_regular(system, eq):
            continue
        rep = certify(flow, system)
        er = eigenvalue_verdict(system, eq)
        cert_margin, eig_margin = verdict_margins(rep, er)
        if (rep.verdict == "marginal" or er.verdict == "marginal"
                or cert_margin < 10 * gc.CERT_TOL or eig_margin < 10 * gc.EIG_TOL):
            continue
        compared += 1
        if rep.verdict != er.verdict:
            disagreements += 1
        else:
            verdicts[rep.verdict] += 1
    elapsed = time.monotonic() - t0
    ok = compared >= 500 and disagreements == 0 and elapsed < 60.0
    report(2, "certificate/eigenvalue equivalence", ok,
           f"{compared} samples ({verdicts['stable']} stable, {verdicts['unstable']} unstable), "
           f"{disagreements} disagreements, {elapsed:.1f} s")


def _swap_device(rng, dev):
    """Random generator/GFM model with the same reactances, rescaled dynamics."""
    kind = rng.choice(["two_axis", "vsg", "fdc"])
    M = float(getattr(dev, "M", 0.2) * rng.uniform(0.1, 10))
    D = float(dev.D * rng.uniform(0.1, 10))
    if kind == "two_axis":
        return gc.TwoAxisGenerator(M=M, D=D,
                                   tau_d=float(rng.uniform(0.5, 50)),
                                   tau_q=float(rng.uniform(0.1, 10)),
                                   X_d=dev.X_d, X_q=dev.X_q,
                                   X_d_prime=0.5 * dev.X_d, X_q_prime=0.4 * dev.X_q)
    if kind == "vsg":
        return gc.VsgInverter(M=M, D=D, X_d=dev.X_d, X_q=dev.X_q)
    return gc.DroopInverter(D=D, X_d=dev.X_d, X_q=dev.X_q)


def test_criterion_3_dynamics_independence():
    rng = np.random.default_rng(314)
    systems = 0
    changes = 0
    while systems < 50:
        out = random_system(rng, angle_scale=0.6)
        if out is None:
            continue
        system, flow = out
        eq = system.equilibrium(flow)
        if not voltage_regular(system, eq):
            continue
        rep = certify(flow, system)
        er = eigenvalue_verdict(system, eq)
        cert_margin, eig_margin = verdict_margins(rep, er)
        if (rep.verdict == "marginal" or er.verdict == "marginal"
                or cert_margin < 10 * gc.CERT_TOL or eig_margin < 10 * gc.EIG_TOL):
            continue
        systems += 1
        compared = 0
        while compared < 2:
            devices = [d if isinstance(d, gc.ConstantPowerLoad) else _swap_device(rng, d)
                       for d in system.devices]
            variant = gc.PowerSystem(system.net, devices, system.omega0)
            eq_v = variant.equilibrium(flow)
            # model swaps change the device connection reactances in the
            # algebraic block; the variant must stay voltage-regular too
            if not voltage_regular(variant, eq_v):
                continue
            compared += 1
            if certify(flow, variant).verdict != rep.verdict:
                changes += 1
            if eigenvalue_verdict(variant, eq_v).verdict != er.verdict:
                changes += 1
    report(3, "dynamics-independence", changes == 0,
           f"{systems} systems x2 variants, {changes} verdict changes")


def test_criterion_4_hessians_match_finite_differences():
    rng = np.random.default_rng(4)
    worst = 0.0

    def check(H, f, z):
        nonlocal worst
        rel = np.max(np.abs(H - fd_hessian(f, z))) / max(1.0, np.max(np.abs(H)))
        worst = max(worst, rel)
        return rel < 1e-6

    ok = True
    for _ in range(100):
        dev = random_two_axis(rng)
        sp = Setpoint(P_m=float(rng.normal()), V_fd=float(rng.uniform(0.9, 1.2)))
        z = np.array([rng.normal(0, 0.5), rng.normal(0, 0.02), rng.uniform(0.8, 1.2),
                      rng.normal(0, 0.2), rng.normal(0, 0.5), rng.uniform(0.85, 1.15)])
        ok &= check(dev.energy_hessian(z[:4], z[4], z[5], sp, W0),
                    lambda y: dev.energy(y[:4], y[4], y[5], sp, W0), z)

        vsg = gc.VsgInverter(M=float(rng.uniform(0.05, 0.5)), D=1.0,
                             X_d=dev.X_d, X_q=dev.X_q)
        z4 = np.array([z[0], z[1], z[4], z[5]])
        ok &= check(vsg.energy_hessian(z4[:2], z4[2], z4[3], sp, W0),
                    lambda y: vsg.energy(y[:2], y[2], y[3], sp, W0), z4)

        fdc = gc.DroopInverter(D=1.0, X_d=dev.X_d, X_q=dev.X_q)
        z3 = np.array([z[0], z[4], z[5]])
        ok &= check(fdc.energy_hessian(z3[:1], z3[1], z3[2], sp, W0),
                    lambda y: fdc.energy(y[:1], y[1], y[2], sp, W0), z3)

        load = gc.ConstantPowerLoad(P_ref=float(rng.normal()), Q_ref=float(rng.normal()))
        z2 = np.array([rng.normal(0, 0.5), rng.uniform(0.85, 1.15)])
        ok &= check(load.energy_hessian(np.zeros(0), z2[0], z2[1]),
                    lambda y: load.energy(np.zeros(0), y[0], y[1]), z2)

    net = gc.Network.from_lines(3, [gc.Line(0, 1, 20.0), gc.Line(1, 2, 35.0)])

    def line_energy(z):
        th, vv = z[0::2], z[1::2]
        Dm = np.subtract.outer(th, th)
        return -0.5 * (net.B * np.outer(vv, vv) * np.cos(Dm)).sum()

    for _ in range(100):
        z = np.empty(6)
        z[0::2] = rng.uniform(-1.0, 1.0, 3)
        z[1::2] = rng.uniform(0.9, 1.1, 3)
        ok &= check(network_hessian(z[0::2], z[1::2], net), line_energy, z)

    report(4, "Hessians vs finite differences", ok, f"worst relative error {worst:.2e}")


def test_criterion_5_schur_reduction_chain():
    rng = np.random.default_rng(5)
    worst_chain = worst_gamma = worst_block = 0.0
    for _ in range(100):
        dev2 = random_two_axis(rng)
        x_d, x_q = dev2.X_d, dev2.X_q
        op = random_operating_point(rng, x_q)
        theta = float(rng.uniform(-0.6, 0.6))
        sp = dev2.stationary_setpoint(op)
        vsg = gc.VsgInverter(M=dev2.M, D=dev2.D, X_d=x_d, X_q=x_q)

        H2 = dev2.energy_hessian(dev2.stationary_state(theta, op), theta, op.V, sp, W0)
        Hv = vsg.energy_hessian(vsg.stationary_state(theta, op), theta, op.V, sp, W0)
        keep, elim = np.array([0, 1, 4, 5]), np.array([2, 3])
        schur = (H2[np.ix_(keep, keep)]
                 - H2[np.ix_(keep, elim)] @ np.linalg.solve(H2[np.ix_(elim, elim)],
                                                            H2[np.ix_(elim, keep)]))
        worst_chain = max(worst_chain, float(np.max(np.abs(schur - Hv))))

        h_dd, h_dv, h_vv = reduced_stiffness_blocks(op, x_d, x_q)
        gamma = gc.synchronizing_coefficient(op, x_d, x_q)
        worst_gamma = max(worst_gamma, abs(gamma - h_dd), abs(gamma - Hv[0, 0]))
        if gamma > 1e-6:
            G = gc.bus_stiffness_block(op, x_d, x_q)
            worst_block = max(worst_block,
                              float(np.max(np.abs(G - (h_vv - np.outer(h_dv, h_dv) / h_dd)))))
    ok = worst_chain < 1e-10 and worst_gamma < 1e-10 and worst_block < 1e-10
    report(5, "Schur reduction chain", ok,
           f"chain {worst_chain:.1e}, coefficient {worst_gamma:.1e}, block {worst_block:.1e}")


def _device_only_equilibria(rng, count):
    out = []
    while len(out) < count:
        sample = random_system(rng, angle_scale=0.6, allow_loads=False)
        if sample is None:
            continue
        system, flow = sample
        out.append((system, flow, system.equilibrium(flow)))
    return out


def test_criterion_6_voltage_block_factorization():
    rng = np.random.default_rng(6)
    worst = 0.0
    min_eig = np.inf
    for system, flow, eq in _device_only_equilibria(rng, 100):
        H = assemble_energy_hessian(system, eq)
        F = factorized_voltage_block(system, eq)
        worst = max(worst, float(np.max(np.abs(H.vv - F))))
        min_eig = min(min_eig, float(np.linalg.eigvalsh(H.vv)[0]))
    ok = worst < 1e-12 and min_eig > 0.0
    report(6, "voltage-block factorization", ok,
           f"worst mismatch {worst:.1e}, smallest eigenvalue {min_eig:.3e}")


def test_criterion_7_structural_null_mode():
    rng = np.random.default_rng(7)
    worst_null = 0.0
    zero_counts_ok = True
    checked_null = checked_zero = 0
    equilibria = _device_only_equilibria(rng, 60)
    while len(equilibria) < 100:  # add mixed systems with loads
        sample = random_system(rng, angle_scale=0.5, allow_loads=True)
        if sample is None:
            continue
        system, flow = sample
        equilibria.append((system, flow, system.equilibrium(flow)))
    cfg = gc.load_config(gc.fixture_path("three_bus.json"))
    flow = solved(cfg)
    equilibria.append((cfg.system, flow, cfg.system.equilibrium(flow)))

    for system, flow, eq in equilibria:
        rep = certify(flow, system)
        if rep.null_residual is not None:
            worst_null = max(worst_null, rep.null_residual)
            checked_null += 1
        try:
            er = eigenvalue_verdict(system, eq)
        except Exception:
            zero_counts_ok = False
            continue
        checked_zero += 1
        if int(np.sum(np.abs(er.eigenvalues) <= 1e-7)) != 1:
            zero_counts_ok = False
    ok = worst_null < 1e-10 and zero_counts_ok and checked_null >= 50 and checked_zero >= 100
    report(7, "structural null mode", ok,
           f"max null residual {worst_null:.1e} over {checked_null} certificates, "
           f"single zero mode at {checked_zero}/{len(equilibria)} equilibria")


def test_criterion_8_reactance_sweep_containment(tmp_path):
    t0 = time.monotonic()
    out_path = tmp_path / "sweep.csv"
    code = main(["sweep", "--config", str(gc.fixture_path("three_bus.json")),
                 "--sweep-bus", "3", "--xd-range", "0.1:12:20", "--xq-range", "0.1:12:20",
                 "--no-timestamp", "--out", str(out_path)])
    elapsed = time.monotonic() - t0
    assert code == 0
    rows = [line.split(",") for line in out_path.read_text().strip().splitlines()[1:]]
    verdicts = {}
    agree = True
    for x_d, x_q, mode, v_cert, v_eig, _ in rows:
        verdicts[(mode, x_d, x_q)] = v_cert
        if "marginal" not in (v_cert, v_eig) and "infeasible" not in (v_cert, v_eig):
            agree &= v_cert == v_eig
    points = sorted({(x_d, x_q) for mode, x_d, x_q in verdicts})
    contained = all(verdicts[("forming", *p)] == "stable"
                    for p in points if verdicts[("following", *p)] == "stable")
    strict = sum(1 for p in points
                 if verdicts[("forming", *p)] == "stable"
                 and verdicts[("following", *p)] == "unstable")
    n_stable_forming = sum(1 for p in points if verdicts[("forming", *p)] == "stable")
    n_stable_following = sum(1 for p in points if verdicts[("following", *p)] == "stable")
    ok = (len(points) == 400 and contained and strict >= 1 and agree
          and 0 < n_stable_following < n_stable_forming < 400 and elapsed < 120.0)
    report(8, "reactance-sweep containment", ok,
           f"forming stable {n_stable_forming}/400, following stable {n_stable_following}/400, "
           f"{strict} strictly separating points, oracle agreement {agree}, {elapsed:.1f} s")


STABLE_RUNS = [
    # (bus-3 reactances, load mode, bus-1 model)
    ((0.1, 0.069), "forming", "vsg"),
    ((0.1, 0.069), "following", "two_axis"),
    ((0.4, 0.4), "following", "vsg"),
    ((1.0, 1.0), "forming", "vsg"),
    ((2.0, 1.0), "forming", "vsg"),
]

UNSTABLE_RUNS = [
    ((2.0, 2.0), "following"),
    ((4.0, 4.0), "following"),
    ((8.0, 8.0), "following"),
    ((16.0, 16.0), "following"),
    ((16.0, 8.0), "forming"),
]


def _sim_setup(x3, mode, kind1="vsg"):
    doc = three_bus_doc(x3=x3, M=0.05, D=2.0, tau_d=0.4, tau_q=0.15, kind1=kind1)
    cfg = gc.apply_load_mode(gc.parse_config(doc), mode)
    flow = solved(cfg)
    eq = cfg.system.equilibrium(flow)
    return cfg.system, flow, eq


def test_criterion_9_simulation_corroboration():
    decay_ok = storage_ok = True
    worst_ratio = 0.0
    worst_dW = -np.inf
    for x3, mode, kind1 in STABLE_RUNS:
        system, flow, eq = _sim_setup(x3, mode, kind1)
        assert certify(flow, system).verdict == "stable"
        traj = simulate(system, eq, x0=perturbed_state(eq, 0, 0.05), dt=5e-4, t_end=1.0)
        d = traj.deviations()
        ratio = d[-1] / d[0]
        worst_ratio = max(worst_ratio, ratio)
        decay_ok &= not traj.truncated and ratio < 1e-4
        worst_dW = max(worst_dW, float(np.max(np.diff(traj.W))))
        storage_ok &= np.max(np.diff(traj.W)) <= 1e-6

    growth_ok = True
    worst_growth = np.inf
    for x3, mode in UNSTABLE_RUNS:
        system, flow, eq = _sim_setup(x3, mode)
        assert certify(flow, system).verdict == "unstable"
        traj = simulate(system, eq, x0=perturbed_state(eq, 2, 0.05), dt=5e-4, t_end=4.0)
        d = traj.deviations()
        growth = d.max() / d[0]
        worst_growth = min(worst_growth, growth)
        growth_ok &= growth >= 10.0

    # RK4 order check by step halving
    system, flow, eq = _sim_setup((0.1, 0.069), "forming")
    x0 = perturbed_state(eq, 0, 0.05)
    ref = simulate(system, eq, x0=x0, dt=2.5e-4, t_end=0.1).x[-1]
    e1 = np.linalg.norm(simulate(system, eq, x0=x0, dt=2e-3, t_end=0.1).x[-1] - ref)
    e2 = np.linalg.norm(simulate(system, eq, x0=x0, dt=1e-3, t_end=0.1).x[-1] - ref)
    order_ok = 10.0 < e1 / e2 < 24.0

    ok = decay_ok and storage_ok and growth_ok and order_ok
    report(9, "simulation corroboration", ok,
           f"worst stable decay {worst_ratio:.2e}, worst unstable growth {worst_growth:.1f}x, "
           f"max storage increment {worst_dW:.1e}, step-halving ratio {e1 / e2:.1f}")
