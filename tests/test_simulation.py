import math

import numpy as np
import pytest

import gridcert as gc
from gridcert import devices, network, simulation
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
            assert algebraic_residual(system, x, v, eq.setpoints) <= 1e-10

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
        # a 1 rad kick of the fixture's two-axis rotor leaves no consistent bus voltages
        system, eq = fixture_system(None)
        x = perturbed_state(eq, 0, 1.0)
        with pytest.raises(AlgebraicSolveError, match="left the feasible region"):
            solve_bus_voltages(system, x, eq.v(), eq.setpoints)

    def test_singular_jacobian_raises(self, monkeypatch):
        # no input is known to make the voltage Hessian singular; LAPACK's report is stood in for
        system, eq = fixture_system(None)
        x = perturbed_state(eq, 0, 0.05)
        monkeypatch.setattr(np.linalg, "solve", singular_after(0))
        with pytest.raises(AlgebraicSolveError) as info:
            solve_bus_voltages(system, x, eq.v(), eq.setpoints)
        assert str(info.value) == "singular voltage Jacobian"


def singular_after(calls):
    """`np.linalg.solve`, raising LinAlgError from call `calls` + 1 on."""
    solve = np.linalg.solve
    count = [0]

    def patched(*args):
        count[0] += 1
        if count[0] > calls:
            raise np.linalg.LinAlgError("Singular matrix")
        return solve(*args)

    patched.count = count
    return patched


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


def twelve_bus_system():
    system, flow = random_system(np.random.default_rng(0), n_bus=12)
    assert {dev.kind for dev in system.devices} == {"two_axis", "vsg", "fdc", "load"}
    return system, system.equilibrium(flow)


def random_bus_system(n_bus):
    """First random draw at `n_bus` buses holding a two-axis machine."""
    rng = np.random.default_rng(0)
    while True:
        draw = random_system(rng, n_bus=n_bus)
        if draw is not None and any(dev.kind == "two_axis" for dev in draw[0].devices):
            system, flow = draw
            return system, system.equilibrium(flow)


# the voltage Newton's last bus count on Python floats and its first on numpy arrays
BOUNDARY_SYSTEMS = {"seven_bus": 7, "eight_bus": 8}


class TestReferenceEquality:
    """The simulator equals the per-stage reference loops bit for bit."""

    @pytest.mark.parametrize("case", ["forming", "following", *BOUNDARY_SYSTEMS])
    def test_voltage_solve_equals_reference(self, case):
        rng = np.random.default_rng(7)
        system, eq = (random_bus_system(BOUNDARY_SYSTEMS[case]) if case in BOUNDARY_SYSTEMS
                      else fixture_system(case))
        for _ in range(5):
            x = eq.x() + rng.normal(0, 0.02, system.n_states)
            v = solve_bus_voltages(system, x, eq.v(), eq.setpoints)
            ref = solve_bus_voltages_reference(system, x, eq.v(), eq.setpoints)
            assert np.array_equal(v, ref)

    def test_voltage_solve_failure_equals_reference(self, monkeypatch):
        kicked = fixture_system(None)
        pulled = fast_three_bus()
        starts = [
            (*kicked, perturbed_state(kicked[1], 0, 1.0), 30),  # leaves the feasible region
            (*pulled, perturbed_state(pulled[1], 0, 40.0), 8),  # converges, but not in 8 iterations
        ]
        errors = []
        for system, eq, x, cap in starts:
            monkeypatch.setattr(simulation, "_NEWTON_MAX_ITER", cap)
            for solve in (solve_bus_voltages, solve_bus_voltages_reference):
                with pytest.raises(AlgebraicSolveError) as info:
                    solve(system, x, eq.v(), eq.setpoints)
                errors.append(str(info.value))
        assert errors[0] == errors[1] == "bus voltage iterate left the feasible region"
        assert errors[2] == errors[3]
        assert errors[2].startswith("voltage Newton did not converge in 8 iterations")

    def test_nan_gradient_never_converges(self, monkeypatch):
        # at the equilibrium every gradient entry is within tolerance but the load's angle
        # entry, made NaN here; Python's max() over the entries would skip it and converge
        system, eq = fixture_system("following")
        monkeypatch.setattr(devices._ConstantPower, "bus_gradient",
                            lambda self: (math.nan, -self.Q / self.V))
        for solve in (solve_bus_voltages, solve_bus_voltages_reference):
            with pytest.raises(AlgebraicSolveError, match="left the feasible region"):
                solve(system, eq.x(), eq.v(), eq.setpoints)

    @pytest.mark.parametrize("case", ["forming", "following", "two_axis_load", "twelve_bus",
                                      *BOUNDARY_SYSTEMS, "truncated"])
    def test_trajectory_equals_reference(self, case, monkeypatch):
        kwargs = dict(dt=1e-3, t_end=0.1)
        if case in ("forming", "following"):
            system, eq = fixture_system(case)
            x0 = perturbed_state(eq, 0, 0.05)
        elif case != "truncated":
            # twelve buses hold every device kind, and their rows reach numpy's pairwise sums
            system, eq = (two_axis_and_load_system() if case == "two_axis_load"
                          else twelve_bus_system() if case == "twelve_bus"
                          else random_bus_system(BOUNDARY_SYSTEMS[case]))
            bus = next(i for i, dev in enumerate(system.devices) if dev.kind == "two_axis")
            x0 = perturbed_state(eq, bus, 0.05)
        else:
            system, eq = fast_three_bus(x3=(4.0, 4.0), mode="following")
            x0 = perturbed_state(eq, 2, 0.05)
            kwargs.update(dt=5e-3, t_end=4.0)
        traj = simulate(system, eq, x0=x0, **kwargs)
        # the reference loop's voltage solves, too, evaluate each piece on its own
        monkeypatch.setattr(gc, "solve_bus_voltages", solve_bus_voltages_reference)
        ref = simulate_reference(system, eq, x0=x0, **kwargs)
        for name in ("t", "x", "v", "W"):
            assert np.array_equal(getattr(traj, name), getattr(ref, name)), name
        assert (traj.truncated, traj.diagnostic) == (ref.truncated, ref.diagnostic)
        assert traj.truncated == (case == "truncated")

    @pytest.mark.parametrize("case", ["following", "twelve_bus"])
    def test_row_powers_equal_output_power(self, case):
        # each row's device (P, Q), as the CLI prints it, is `output_power` at that row
        system, eq = fixture_system(case) if case == "following" else twelve_bus_system()
        bus = next(i for i, dev in enumerate(system.devices) if dev.kind == "two_axis")
        traj = simulate(system, eq, x0=perturbed_state(eq, bus, 0.05), dt=1e-3, t_end=0.02)
        slices = system.state_slices()
        want = [[dev.output_power(x[sl], v[2 * i], v[2 * i + 1], sp)
                 for i, (dev, sl, sp) in enumerate(zip(system.devices, slices, eq.setpoints))]
                for x, v in zip(traj.x.tolist(), traj.v.tolist())]
        assert np.array_equal(traj.powers.view(np.uint64), np.array(want).view(np.uint64))

    def test_nan_mismatch_is_a_nan_residual(self, monkeypatch):
        # Python's max() over the mismatches would skip a NaN that is not its first argument
        system, eq = fixture_system(None)
        x = eq.x()
        x[0] = math.nan  # bus 1's rotor angle
        assert math.isnan(algebraic_residual(system, x, eq.v(), eq.setpoints))
        # the load's gradient stays finite, so the Newton converges; its power does not
        system, eq = fixture_system("following")
        monkeypatch.setattr(devices._ConstantPower, "power", lambda self: (math.nan, self.Q))
        for solve in (solve_bus_voltages, solve_bus_voltages_reference):
            with pytest.raises(AlgebraicSolveError, match="voltage solve residual nan exceeds"):
                solve(system, eq.x(), eq.v(), eq.setpoints)

    def test_power_once_per_converged_source(self, monkeypatch):
        # the fixture's three sources: the residual post-check and the state derivative
        # share each converged source's (P, Q)
        system, eq = fixture_system(None)
        solves, powers = [], []
        newton, power = simulation._voltage_newton, devices._Source.power
        monkeypatch.setattr(simulation, "_voltage_newton",
                            lambda *args: solves.append(args) or newton(*args))
        monkeypatch.setattr(devices._Source, "power",
                            lambda src: powers.append(src) or power(src))
        simulate(system, eq, x0=perturbed_state(eq, 0, 0.05), dt=5e-4, t_end=0.005)
        assert len(solves) == 4 * 10 + 1
        assert len(powers) == len(set(map(id, powers))) == 3 * len(solves)

    def test_evaluations_per_solve(self, monkeypatch):
        # each Newton iterate takes one network evaluation and, unless it converged, one
        # linear solve; each stage's first iterate reuses the evaluation its start ended with.
        # The one other evaluation is the storage's power_balance at the equilibrium
        system, eq = fixture_system(None)
        counts = {"solves": 0, "evaluations": 0, "balances": 0, "linear": 0}

        def counting(key, fn):
            def counted(*args):
                counts[key] += 1
                return fn(*args)
            return counted

        monkeypatch.setattr(simulation, "_voltage_newton",
                            counting("solves", simulation._voltage_newton))
        monkeypatch.setattr(network._Lines, "evaluate",
                            counting("evaluations", network._Lines.evaluate))
        monkeypatch.setattr(simulation, "power_balance",
                            counting("balances", simulation.power_balance))
        monkeypatch.setattr(np.linalg, "solve", counting("linear", np.linalg.solve))
        simulate(system, eq, x0=perturbed_state(eq, 0, 0.05), dt=5e-4, t_end=0.005)
        assert counts == {"solves": 41, "evaluations": 76 + 1, "balances": 1, "linear": 75}


class TestSimulate:
    def test_singular_jacobian_truncates(self, monkeypatch):
        system, eq = fixture_system(None)
        x0 = perturbed_state(eq, 0, 0.05)
        counting = singular_after(math.inf)
        monkeypatch.setattr(np.linalg, "solve", counting)
        solve_bus_voltages(system, x0, eq.v(), eq.setpoints)  # the initial solve's Newton steps
        monkeypatch.setattr(np.linalg, "solve", singular_after(counting.count[0]))
        traj = simulate(system, eq, x0=x0, dt=1e-3, t_end=0.1)
        assert (traj.truncated, traj.t.size) == (True, 1)
        assert traj.diagnostic == "truncated at t=0s: singular voltage Jacobian"

    def test_equilibrium_start_stays_constant(self):
        system, eq = fast_three_bus()
        traj = simulate(system, eq, dt=1e-3, t_end=10.0)
        assert not traj.truncated
        assert traj.deviations().max() < 1e-9
        assert np.max(np.abs(traj.W)) < 1e-12

    def test_time_strictly_increasing_and_residuals_small(self):
        system, eq = fast_three_bus()
        x0 = perturbed_state(eq, 0, 0.05)
        traj = simulate(system, eq, x0=x0, dt=1e-3, t_end=0.2)
        assert np.all(np.diff(traj.t) > 0)
        for k in (1, traj.t.size // 2, traj.t.size - 1):
            assert algebraic_residual(system, traj.x[k], traj.v[k], eq.setpoints) < 1e-8

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

    def test_failed_initial_solve_raises(self):
        # a 1 rad kick of the fixture's two-axis rotor leaves no consistent bus voltages
        cfg = gc.load_config(gc.fixture_path("three_bus.json"))
        eq = cfg.system.equilibrium(solved(cfg))
        with pytest.raises(AlgebraicSolveError):
            simulate(cfg.system, eq, x0=perturbed_state(eq, 0, 1.0), dt=1e-3, t_end=0.01)

    @pytest.mark.parametrize("dt, t_end, name", [(-1e-3, 1.0, "dt"), (math.inf, 1.0, "dt"),
                                                 (0.0, 1.0, "dt"), (math.nan, 1.0, "dt"),
                                                 (1e-3, -1.0, "t_end"), (1e-3, 0.0, "t_end"),
                                                 (1e-3, math.inf, "t_end")])
    def test_step_and_horizon_must_be_positive_and_finite(self, dt, t_end, name, monkeypatch):
        system, eq = fast_three_bus()
        monkeypatch.setattr(simulation, "_voltage_newton", None)  # no solve may start
        with pytest.raises(ValueError, match=f"^{name} must be positive and finite, got "):
            simulate(system, eq, dt=dt, t_end=t_end)

    @pytest.mark.parametrize("dt", [1.0, 0.3])
    def test_horizon_must_be_a_whole_number_of_steps(self, dt, monkeypatch):
        # 0.2 / 1.0 rounds to no step at all, 0.2 / 0.3 to one step that ends at t = 0.3
        system, eq = fast_three_bus()
        monkeypatch.setattr(simulation, "_voltage_newton", None)  # no solve may start
        with pytest.raises(ValueError, match=rf"^t_end / dt must be a whole number of steps, "
                                             rf"got 0\.2 / {dt:g}$"):
            simulate(system, eq, dt=dt, t_end=0.2)

    def test_step_count_overflow_raises(self):
        system, eq = fast_three_bus()
        with pytest.raises(ValueError, match=r"t_end / dt must be finite"):
            simulate(system, eq, dt=1e-310, t_end=1e10)

    def test_load_bus_has_no_angle_to_perturb(self):
        system, eq = fast_three_bus(mode="following")
        with pytest.raises(ValueError, match="bus 1 hosts a load"):
            perturbed_state(eq, 1, 0.05)

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
