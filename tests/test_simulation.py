import numpy as np
import pytest

import gridcert as gc
from gridcert.simulation import (
    AlgebraicSolveError,
    algebraic_residual,
    bregman_storage,
    dissipation_rate,
    perturbed_state,
    simulate,
    solve_bus_voltages,
)
from gridcert.linearization import assemble_energy_hessian

from _oracles import (
    random_system,
    simulate_reference,
    solve_bus_voltages_reference,
    solved,
    three_bus_doc,
)


def fast_three_bus(x3=(0.1, 0.069), mode=None, kind1="vsg"):
    """3-bus study with light inertia and strong damping for quick settling."""
    doc = three_bus_doc(x3=x3, M=0.05, D=2.0, tau_d=0.4, tau_q=0.15, kind1=kind1)
    cfg = gc.parse_config(doc)
    if mode:
        cfg = gc.apply_load_mode(cfg, mode)
    flow = solved(cfg)
    eq = cfg.system.equilibrium(flow)
    return cfg.system, eq


class TestVoltageSolve:
    def test_equilibrium_fixed_point(self):
        system, eq = fast_three_bus()
        v = solve_bus_voltages(system, eq.x(), eq.v(), eq.setpoints)
        assert np.max(np.abs(v - eq.v())) < 1e-12

    def test_residual_post_condition_after_perturbation(self):
        rng = np.random.default_rng(41)
        system, eq = fast_three_bus()
        for _ in range(10):
            x = eq.x() + rng.normal(0, 0.01, system.n_states)
            v = solve_bus_voltages(system, x, eq.v(), eq.setpoints)
            assert algebraic_residual(system, [x[sl] for sl in system.state_slices()],
                                      v, eq.setpoints) <= 1e-10

    def test_load_buses_keep_constant_power(self):
        system, eq = fast_three_bus(mode="following")
        x = eq.x().copy()
        x[0] += 0.03
        v = solve_bus_voltages(system, x, eq.v(), eq.setpoints)
        theta, V = v[0::2], v[1::2]
        P, Q = gc.power_balance(theta, V, system.net)
        load = system.devices[1]
        assert P[1] == pytest.approx(load.P_ref, abs=1e-9)
        assert Q[1] == pytest.approx(load.Q_ref, abs=1e-9)

    def test_divergence_raises(self):
        system, eq = fast_three_bus()
        x = eq.x().copy()
        x[0] += 40.0  # hopeless rotor angle
        with pytest.raises(AlgebraicSolveError):
            solve_bus_voltages(system, x, eq.v(), eq.setpoints, max_iter=8)


def fixture_system(mode):
    cfg = gc.apply_load_mode(gc.load_config(gc.fixture_path("three_bus.json")), mode)
    flow = solved(cfg)
    return cfg.system, cfg.system.equilibrium(flow)


def two_axis_and_load_system():
    """First random 4-bus draw holding a two-axis machine and a constant-power load.

    With this seed it holds one device of every kind.
    """
    rng = np.random.default_rng(0)
    while True:
        draw = random_system(rng, angle_scale=0.1, n_bus=4)
        if draw is None:
            continue
        system, flow = draw
        kinds = {dev.kind for dev in system.devices}
        if {"two_axis", "load"} <= kinds:
            return system, system.equilibrium(flow)


class TestReferenceEquality:
    """The simulator equals the per-stage reference loops bit for bit."""

    @pytest.mark.parametrize("mode", ["forming", "following"])
    def test_voltage_solve_equals_reference(self, mode):
        rng = np.random.default_rng(7)
        system, eq = fixture_system(mode)
        slices = system.state_slices()
        for _ in range(5):
            x = eq.x() + rng.normal(0, 0.02, system.n_states)
            states = [x[sl] for sl in slices]
            v = solve_bus_voltages(system, states, eq.v(), eq.setpoints)
            ref = solve_bus_voltages_reference(system, states, eq.v(), eq.setpoints)
            assert np.array_equal(v, ref)

    def test_voltage_solve_failure_equals_reference(self):
        system, eq = fast_three_bus()
        x = eq.x().copy()
        x[0] += 40.0
        states = [x[sl] for sl in system.state_slices()]
        errors = []
        for solve in (solve_bus_voltages, solve_bus_voltages_reference):
            with pytest.raises(AlgebraicSolveError) as info:
                solve(system, states, eq.v(), eq.setpoints, max_iter=8)
            errors.append(str(info.value))
        assert errors[0] == errors[1]

    @pytest.mark.parametrize("case", ["forming", "following", "two_axis_load", "record_every",
                                      "truncated"])
    def test_trajectory_equals_reference(self, case):
        kwargs = dict(dt=1e-3, t_end=0.1)
        if case in ("forming", "following", "record_every"):
            system, eq = fixture_system("following" if case == "following" else "forming")
            x0 = perturbed_state(eq, 0, 0.05)
            if case == "record_every":
                kwargs.update(t_end=0.2, record_every=7)  # 200 steps: the last sample is partial
        elif case == "two_axis_load":
            system, eq = two_axis_and_load_system()
            bus = next(i for i, dev in enumerate(system.devices) if dev.kind == "two_axis")
            x0 = perturbed_state(eq, bus, 0.05)
        else:
            system, eq = fast_three_bus(x3=(4.0, 4.0), mode="following")
            x0 = perturbed_state(eq, 2, 0.05)
            kwargs.update(dt=5e-3, t_end=4.0)
        traj = simulate(system, eq, x0=x0, **kwargs)
        ref = simulate_reference(system, eq, x0=x0, **kwargs)
        for name in ("t", "x", "v", "W"):
            assert np.array_equal(getattr(traj, name), getattr(ref, name)), name
        assert (traj.truncated, traj.diagnostic) == (ref.truncated, ref.diagnostic)
        assert traj.truncated == (case == "truncated")


class TestSimulate:
    def test_equilibrium_start_stays_constant(self):
        system, eq = fast_three_bus()
        traj = simulate(system, eq, dt=1e-3, t_end=10.0, record_every=100)
        assert not traj.truncated
        assert traj.deviations().max() < 1e-9
        assert np.max(np.abs(traj.W)) < 1e-12

    def test_time_strictly_increasing_and_residuals_small(self):
        system, eq = fast_three_bus()
        x0 = perturbed_state(eq, 0, 0.05)
        traj = simulate(system, eq, x0=x0, dt=1e-3, t_end=0.2)
        assert np.all(np.diff(traj.t) > 0)
        slices = system.state_slices()
        for k in (1, traj.t.size // 2, traj.t.size - 1):
            states = [traj.x[k][sl] for sl in slices]
            assert algebraic_residual(system, states, traj.v[k], eq.setpoints) < 1e-8

    def test_stable_perturbation_decays(self):
        system, eq = fast_three_bus()
        x0 = perturbed_state(eq, 0, 0.05)
        traj = simulate(system, eq, x0=x0, dt=5e-4, t_end=1.0)
        d = traj.deviations()
        assert d[-1] / d[0] < 1e-4
        assert np.max(np.diff(traj.W)) <= 1e-6

    def test_unstable_perturbation_grows(self):
        system, eq = fast_three_bus(x3=(4.0, 4.0), mode="following")
        x0 = perturbed_state(eq, 2, 0.05)
        traj = simulate(system, eq, x0=x0, dt=5e-4, t_end=4.0)
        d = traj.deviations()
        assert d.max() / d[0] >= 10.0
        assert traj.truncated  # voltage collapse ends the run
        assert "truncated" in traj.diagnostic

    def test_rk4_step_halving_order(self):
        system, eq = fast_three_bus()
        x0 = perturbed_state(eq, 0, 0.05)
        ref = simulate(system, eq, x0=x0, dt=2.5e-4, t_end=0.1).x[-1]
        e1 = np.linalg.norm(simulate(system, eq, x0=x0, dt=2e-3, t_end=0.1).x[-1] - ref)
        e2 = np.linalg.norm(simulate(system, eq, x0=x0, dt=1e-3, t_end=0.1).x[-1] - ref)
        assert 10.0 < e1 / e2 < 24.0  # fourth order: ratio near 16

    def test_frequency_synchronization(self):
        system, eq = fast_three_bus()
        x0 = perturbed_state(eq, 1, 0.05)
        traj = simulate(system, eq, x0=x0, dt=5e-4, t_end=1.5)
        slices = system.state_slices()
        v = traj.v[-1]
        for i, dev in enumerate(system.devices):
            deriv = dev.state_derivative(traj.x[-1][slices[i]], v[2 * i], v[2 * i + 1],
                                         eq.setpoints[i], system.omega0)
            assert abs(deriv[0]) < 1e-6  # d(delta)/dt in the rotating frame


class TestStorage:
    def test_zero_at_equilibrium(self):
        system, eq = fast_three_bus()
        assert bregman_storage(system, eq, eq.x(), eq.v()) == pytest.approx(0.0, abs=1e-14)

    def test_quadratic_expansion_against_hessian(self):
        rng = np.random.default_rng(42)
        system, eq = fast_three_bus()
        H = assemble_energy_hessian(system, eq).matrix
        n_x = system.n_states
        for _ in range(10):
            z = rng.normal(size=H.shape[0])
            z /= np.linalg.norm(z)
            z *= 1e-3
            W = bregman_storage(system, eq, eq.x() + z[:n_x], eq.v() + z[n_x:])
            quad = 0.5 * z @ H @ z
            assert abs(W - quad) / max(abs(quad), 1e-12) < 1e-2

    def test_dissipation_identity_along_trajectory(self):
        # standard inertias keep swing frequencies low enough for the central
        # difference of W to resolve the rate to 1e-4 relative
        cfg = gc.parse_config(three_bus_doc())
        flow = solved(cfg)
        system, eq = cfg.system, cfg.system.equilibrium(flow)
        x0 = perturbed_state(eq, 0, 0.05)
        traj = simulate(system, eq, x0=x0, dt=2e-5, t_end=0.02)
        dt = traj.t[1] - traj.t[0]
        dW = (traj.W[2:] - traj.W[:-2]) / (2 * dt)
        rates = np.array([
            dissipation_rate(system, traj.x[k], traj.v[k], eq.setpoints)
            for k in range(1, traj.t.size - 1)
        ])
        scale = np.max(np.abs(rates))
        assert np.max(np.abs(dW - rates)) / scale < 1e-4
        assert np.all(rates <= 0)
