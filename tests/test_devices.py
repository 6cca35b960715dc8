import math

import numpy as np
import pytest

import gridcert as gc
from gridcert import devices
from gridcert.devices import (
    OMEGA0_DEFAULT,
    CapabilityError,
    OperatingPoint,
    Setpoint,
    device_from_dict,
    internal_phase,
    reduced_stiffness_blocks,
    stationary_setpoint,
)

from _oracles import (
    fd_gradient,
    fd_hessian,
    random_operating_point,
    random_system,
    random_two_axis,
)

W0 = OMEGA0_DEFAULT
BUS1 = OperatingPoint(V=1.0, P=1.0, Q=0.2886)
BUS3 = OperatingPoint(V=1.0, P=2.5, Q=0.3805)


def default_two_axis(x_d=0.10, x_q=0.069):
    return gc.TwoAxisGenerator(M=0.2, D=1.0, tau_d=5.0, tau_q=1.0,
                               X_d=x_d, X_q=x_q, X_d_prime=0.05, X_q_prime=0.03)


class TestInternalPhase:
    def test_zero_active_power_gives_zero_phase(self):
        assert internal_phase(OperatingPoint(V=1.0, P=0.0, Q=0.4), 0.069) == 0.0

    def test_table1_bus1(self):
        expected = math.atan(1.0 / (0.2886 + 1.0 / 0.069))
        phi = internal_phase(BUS1, 0.069)
        assert phi == pytest.approx(expected, rel=1e-14)
        assert phi == pytest.approx(0.0676, abs=1e-4)

    def test_table1_bus3(self):
        expected = math.atan(2.5 / (0.3805 + 1.0 / 0.069))
        assert internal_phase(BUS3, 0.069) == pytest.approx(expected, rel=1e-14)
        assert internal_phase(BUS3, 0.069) == pytest.approx(0.1665, abs=5e-5)

    def test_capability_domain_error(self):
        with pytest.raises(CapabilityError):
            internal_phase(OperatingPoint(V=1.0, P=1.0, Q=-20.0), 0.069)


class TestStationarySetpoint:
    def test_zero_power_unit_voltage(self):
        sp = stationary_setpoint(OperatingPoint(V=1.0, P=0.0, Q=0.0), 0.10, 0.069)
        assert sp.P_m == 0.0
        assert sp.V_fd == pytest.approx(1.0, abs=1e-15)

    def test_table1_bus1_value(self):
        # independent scalar evaluation of the setpoint formula
        phi = math.atan(1.0 / (0.2886 + 1.0 / 0.069))
        expected = 0.10 * 1.0 * math.sin(phi) + (0.10 * 0.2886 + 1.0) * math.cos(phi)
        sp = stationary_setpoint(BUS1, 0.10, 0.069)
        assert sp.P_m == 1.0
        assert sp.V_fd == pytest.approx(expected, rel=1e-14)
        assert sp.V_fd == pytest.approx(1.0333, abs=5e-5)

    def test_invariant_under_phase_shift(self):
        # the setpoint only sees (V, P, Q); shifting theta* moves delta* alone
        dev = gc.VsgInverter(M=0.2, D=1.0, X_d=0.10, X_q=0.069)
        for c in (0.0, 0.7, -3.0):
            state = dev.stationary_state(0.1 + c, BUS1)
            assert state[0] == pytest.approx(0.1 + c + internal_phase(BUS1, 0.069), abs=1e-14)
        assert dev.stationary_setpoint(BUS1) == dev.stationary_setpoint(BUS1)


class TestStationaryState:
    def test_zero_power_bus_closed_form(self):
        dev = default_two_axis()
        state = dev.stationary_state(0.3, OperatingPoint(V=1.0, P=0.0, Q=0.0))
        delta, omega, e_q, e_d = state
        assert delta == pytest.approx(0.3, abs=1e-15)
        assert omega == 0.0
        assert e_q == pytest.approx(1.0, abs=1e-14)
        assert e_d == pytest.approx(0.0, abs=1e-15)

    def test_two_axis_zero_derivative_posts(self):
        dev = default_two_axis()
        sp = dev.stationary_setpoint(BUS1)
        state = dev.stationary_state(-0.0308, BUS1)
        deriv = dev.state_derivative(state, -0.0308, 1.0, sp, W0)
        assert np.max(np.abs(deriv)) < 1e-10

    def test_droop_single_state(self):
        dev = gc.DroopInverter(D=1.0, X_d=0.10, X_q=0.069)
        state = dev.stationary_state(0.2, BUS3)
        assert state.shape == (1,)
        assert state[0] == pytest.approx(0.2 + internal_phase(BUS3, 0.069), abs=1e-14)

    def test_load_requires_matching_references(self):
        load = gc.ConstantPowerLoad(P_ref=-3.5, Q_ref=-0.5)
        assert load.stationary_state(0.0, OperatingPoint(V=0.99, P=-3.5, Q=-0.5)).size == 0
        with pytest.raises(ValueError):
            load.stationary_state(0.0, OperatingPoint(V=0.99, P=-3.0, Q=-0.5))


    def test_equilibrium_takes_one_stationary_evaluation_per_device(self, monkeypatch):
        # a 12-bus draw holding every device kind; each operating point's internal phase is
        # formed once, for its setpoint and state both, and the equilibrium keeps the bits of
        # a setpoint and a checked state evaluated apart
        system, flow = random_system(np.random.default_rng(0), n_bus=12)
        assert {dev.kind for dev in system.devices} == {"two_axis", "vsg", "fdc", "load"}
        phases = []

        def counting(op, X_q):
            phases.append(op)
            return phase(op, X_q)

        phase = devices.internal_phase
        monkeypatch.setattr(devices, "internal_phase", counting)
        eq = system.equilibrium(flow)
        monkeypatch.undo()
        ops = [system.operating_point(flow, i) for i in range(system.n_bus)]
        for dev, op in zip(system.devices, ops):
            assert phases.count(op) == (0 if dev.kind == "load" else 1)
        for i, (dev, op) in enumerate(zip(system.devices, ops)):
            theta = float(flow.theta[i])
            assert eq.setpoints[i] == dev.stationary_setpoint(op)
            state = dev.stationary_state(theta, op, system.omega0)
            assert np.array_equal(eq.states[i].view(np.uint64), state.view(np.uint64))


class TestOutputPower:
    def test_load_is_voltage_independent(self):
        load = gc.ConstantPowerLoad(P_ref=-3.5, Q_ref=-0.5)
        for theta, v in ((0.0, 1.0), (0.5, 0.85), (-2.0, 1.2)):
            assert load.output_power(np.zeros(0), theta, v) == (-3.5, -0.5)

    def test_vsg_aligned_closed_form(self):
        dev = gc.VsgInverter(M=0.2, D=1.0, X_d=0.10, X_q=0.069)
        sp = Setpoint(P_m=0.0, V_fd=1.05)
        theta, v = 0.4, 0.97
        P, Q = dev.output_power(np.array([theta, 0.0]), theta, v, sp)
        assert P == pytest.approx(0.0, abs=1e-15)
        assert Q == pytest.approx(sp.V_fd * v / 0.10 - v**2 / 0.10, rel=1e-14)

    @pytest.mark.parametrize("kind", ["two_axis", "vsg", "fdc", "load"])
    def test_stationary_consistency_all_models(self, kind):
        rng = np.random.default_rng(hash(kind) % 2**32)
        for _ in range(20):
            op = random_operating_point(rng, 0.069)
            theta_star = float(rng.uniform(-1, 1))
            if kind == "load":
                dev = gc.ConstantPowerLoad(P_ref=op.P, Q_ref=op.Q)
            elif kind == "two_axis":
                dev = default_two_axis()
            elif kind == "vsg":
                dev = gc.VsgInverter(M=0.2, D=1.0, X_d=0.10, X_q=0.069)
            else:
                dev = gc.DroopInverter(D=1.0, X_d=0.10, X_q=0.069)
            sp = dev.stationary_setpoint(op)
            state = dev.stationary_state(theta_star, op)
            P, Q = dev.output_power(state, theta_star, op.V, sp)
            assert abs(P - op.P) < 1e-10
            assert abs(Q - op.Q) < 1e-10


class TestStateDerivative:
    def test_vsg_direct_substitution(self):
        dev = gc.VsgInverter(M=0.25, D=1.7, X_d=0.10, X_q=0.069)
        sp = dev.stationary_setpoint(BUS1)
        state = dev.stationary_state(0.0, BUS1)
        state[1] = 0.01  # output power unchanged, P == P_m still holds
        deriv = dev.state_derivative(state, 0.0, 1.0, sp, W0)
        assert deriv[0] == pytest.approx(W0 * 0.01, rel=1e-14)
        assert deriv[1] == pytest.approx(-1.7 * 0.01 / 0.25, rel=1e-12)

    def test_droop_offset_power(self):
        dev = gc.DroopInverter(D=2.0, X_d=0.10, X_q=0.069)
        state = dev.stationary_state(0.0, BUS3)
        sp = dev.stationary_setpoint(BUS3)
        low = Setpoint(P_m=sp.P_m - 0.1, V_fd=sp.V_fd)  # P - P_m = +0.1
        deriv = dev.state_derivative(state, 0.0, 1.0, low, W0)
        assert deriv[0] == pytest.approx(-0.1 * W0 / 2.0, rel=1e-9)


class TestEnergy:
    def test_vsg_at_rest_is_zero(self):
        dev = gc.VsgInverter(M=0.2, D=1.0, X_d=0.10, X_q=0.069)
        sp = Setpoint(P_m=0.0, V_fd=1.02)
        assert dev.energy(np.array([0.25, 0.0]), 0.25, 1.02, sp, W0) == pytest.approx(0.0, abs=1e-15)

    def test_load_energy_value(self):
        load = gc.ConstantPowerLoad(P_ref=-1.0, Q_ref=0.0)
        assert load.energy(np.zeros(0), 0.5, 1.0) == pytest.approx(0.5, abs=1e-15)

    @pytest.mark.parametrize("kind", ["two_axis", "vsg", "fdc", "load"])
    def test_gradient_finite_difference(self, kind):
        rng = np.random.default_rng(11)
        for _ in range(100):
            dev = random_two_axis(rng)
            if kind == "vsg":
                dev = gc.VsgInverter(M=dev.M, D=dev.D, X_d=dev.X_d, X_q=dev.X_q)
            elif kind == "fdc":
                dev = gc.DroopInverter(D=dev.D, X_d=dev.X_d, X_q=dev.X_q)
            elif kind == "load":
                dev = gc.ConstantPowerLoad(P_ref=float(rng.normal()), Q_ref=float(rng.normal()))
            sp = Setpoint(P_m=float(rng.normal()), V_fd=float(rng.uniform(0.9, 1.2)))
            z = np.array([rng.normal(0, 0.5), rng.normal(0, 0.02), rng.uniform(0.8, 1.2),
                          rng.normal(0, 0.2), rng.normal(0, 0.5), rng.uniform(0.85, 1.15)])
            k = dev.n_states
            z = np.concatenate([z[:k], z[4:]])  # (states..., theta, V)
            g = dev.energy_gradient(z[:k], z[k], z[k + 1], sp, W0)
            gfd = fd_gradient(lambda zz: dev.energy(zz[:k], zz[k], zz[k + 1], sp, W0), z)
            scale = max(1.0, np.max(np.abs(g)))
            assert np.max(np.abs(g - gfd)) / scale < 1e-6
            # the voltage Newton takes the bus entries as the power mismatch (-P, -Q/V)
            P, Q = dev.output_power(z[:k], z[k], z[k + 1], sp)
            assert np.max(np.abs(g[k:] - [-P, -Q / z[k + 1]])) / scale < 1e-12


class TestReducedStiffnessBlocks:
    def test_zero_power_closed_entries(self):
        h_dd, h_dv, h_vv = reduced_stiffness_blocks(OperatingPoint(1.0, 0.0, 0.0), 0.10, 0.069)
        assert h_dd == pytest.approx(1.0 / 0.069, rel=1e-14)
        assert h_dv == pytest.approx([-1.0 / 0.069, 0.0], abs=1e-14)
        assert h_vv[1, 1] == pytest.approx(1.0 / 0.10, rel=1e-14)

    def test_bus1_angle_stiffness(self):
        h_dd, _, _ = reduced_stiffness_blocks(BUS1, 0.10, 0.069)
        phi = math.atan(1.0 / (0.2886 + 1.0 / 0.069))
        expected = 0.2886 + math.cos(phi) ** 2 / 0.069 + math.sin(phi) ** 2 / 0.10
        assert h_dd == pytest.approx(expected, rel=1e-12)
        assert h_dd == pytest.approx(14.76, abs=5e-3)

    def test_blocks_match_numerical_schur_of_vsg_energy(self):
        rng = np.random.default_rng(12)
        for _ in range(30):
            x_d, x_q = float(rng.uniform(0.06, 0.3)), float(rng.uniform(0.05, 0.3))
            op = random_operating_point(rng, x_q)
            dev = gc.VsgInverter(M=0.2, D=1.0, X_d=x_d, X_q=x_q)
            sp = dev.stationary_setpoint(op)
            theta = float(rng.uniform(-0.5, 0.5))
            state = dev.stationary_state(theta, op)
            # numerical Hessian of the VSG energy over (delta, theta, V); omega decouples
            z0 = np.array([state[0], theta, op.V])
            H = fd_hessian(lambda z: dev.energy(np.array([z[0], 0.0]), z[1], z[2], sp, W0),
                           z0, h=1e-3, refine=True)
            h_dd, h_dv, h_vv = reduced_stiffness_blocks(op, x_d, x_q)
            scale = max(1.0, np.max(np.abs(H)))
            assert abs(H[0, 0] - h_dd) / scale < 1e-8
            assert np.max(np.abs(H[0, 1:] - h_dv)) / scale < 1e-8
            assert np.max(np.abs(H[1:, 1:] - h_vv)) / scale < 1e-8


class TestModelReductionChain:
    def test_two_axis_schur_equals_vsg_then_fdc(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            dev2 = random_two_axis(rng)
            vsg = gc.VsgInverter(M=dev2.M, D=dev2.D, X_d=dev2.X_d, X_q=dev2.X_q)
            fdc = gc.DroopInverter(D=dev2.D, X_d=dev2.X_d, X_q=dev2.X_q)
            op = random_operating_point(rng, dev2.X_q)
            theta = float(rng.uniform(-0.6, 0.6))
            sp = dev2.stationary_setpoint(op)
            H2 = dev2.energy_hessian(dev2.stationary_state(theta, op), theta, op.V, sp, W0)
            Hv = vsg.energy_hessian(vsg.stationary_state(theta, op), theta, op.V, sp, W0)
            Hf = fdc.energy_hessian(fdc.stationary_state(theta, op), theta, op.V, sp, W0)
            keep = np.array([0, 1, 4, 5])
            elim = np.array([2, 3])
            A = H2[np.ix_(keep, keep)]
            Bm = H2[np.ix_(keep, elim)]
            C = H2[np.ix_(elim, elim)]
            schur = A - Bm @ np.linalg.solve(C, Bm.T)
            assert np.max(np.abs(schur - Hv)) < 1e-8
            assert np.max(np.abs(Hv[np.ix_([0, 2, 3], [0, 2, 3])] - Hf)) < 1e-12


def test_reactance_ordering_rejected():
    with pytest.raises(ValueError, match="transient"):
        gc.TwoAxisGenerator(M=0.2, D=1.0, tau_d=5.0, tau_q=1.0,
                            X_d=0.05, X_q=0.069, X_d_prime=0.06, X_q_prime=0.03)
    with pytest.raises(ValueError):
        gc.VsgInverter(M=-0.2, D=1.0, X_d=0.1, X_q=0.069)


def test_device_from_dict_roundtrip_and_errors():
    dev = device_from_dict({"kind": "vsg", "M": 0.2, "D": 1.0, "X_d": 0.1, "X_q": 0.069})
    assert isinstance(dev, gc.VsgInverter)
    with pytest.raises(ValueError, match="unknown device kind"):
        device_from_dict({"kind": "pmu"})
    with pytest.raises(ValueError, match="missing"):
        device_from_dict({"kind": "fdc", "D": 1.0})
    with pytest.raises(ValueError, match="unexpected"):
        device_from_dict({"kind": "load", "P_ref": 0.0, "Q_ref": 0.0, "tau": 1.0})
    with pytest.raises(ValueError, match="Q_ref must be finite"):
        device_from_dict({"kind": "load", "P_ref": 0.0, "Q_ref": float("inf")})


class TestRowsOfDevices:
    """Closed forms over arrays of reactances, as the reactance sweep evaluates a grid row.

    numpy's arctan and its squares (x*x) differ from libm's atan and pow, which the float code
    uses, in the last bit on roughly 1 in 500 and 1 in 1,000 inputs; 2,000 draws meet both.
    """

    N = 2000

    @pytest.fixture
    def draws(self):
        rng = np.random.default_rng(7)
        return rng.uniform(0.06, 2.0, self.N), rng.uniform(0.04, 2.0, self.N)

    @pytest.mark.parametrize("dev", [gc.VsgInverter(M=0.2, D=1.0, X_d=0.1, X_q=0.069),
                                     gc.DroopInverter(D=1.0, X_d=0.1, X_q=0.069),
                                     default_two_axis()], ids=lambda dev: dev.kind)
    def test_elementwise_bits_equal_the_float_code(self, dev, draws):
        x_d, x_q = draws
        op, theta = OperatingPoint(V=1.02, P=2.5, Q=0.38), -0.3
        row = dev.with_reactances(x_d, x_q)
        setpoint, state, holds, residual = row.stationary(theta, op)
        hessian = row.energy_hessian(state, theta, op.V, setpoint, W0)
        damping = np.broadcast_to(row.damping_block(W0), (self.N,) + (dev.n_states,) * 2)
        gamma = gc.synchronizing_coefficient(op, x_d, x_q)
        block = gc.bus_stiffness_block(op, x_d, x_q)
        assert state.shape == (dev.n_states, self.N)
        assert hessian.shape == (self.N,) + (dev.n_states + 2,) * 2 and block.shape == (self.N, 2, 2)
        for k in range(self.N):
            point = dev.with_reactances(float(x_d[k]), float(x_q[k]))
            sp, st, h, r = point.stationary(theta, op)
            assert (sp.V_fd, h, r) == (setpoint.V_fd[k], holds[k], residual[k])
            np.testing.assert_array_equal(st, state[:, k])
            np.testing.assert_array_equal(point.energy_hessian(st, theta, op.V, sp, W0), hessian[k])
            np.testing.assert_array_equal(point.damping_block(W0), damping[k])
            assert gc.synchronizing_coefficient(op, point.X_d, point.X_q) == gamma[k]
            np.testing.assert_array_equal(gc.bus_stiffness_block(op, point.X_d, point.X_q), block[k])

    def test_admits_where_the_constructor_builds(self, draws):
        dev = default_two_axis()
        x_d, x_q = draws[0] - 0.03, draws[1] - 0.03  # around X_d' = 0.05 and X_q' = 0.03
        x_q[:3] = (np.inf, np.nan, -1.0)
        admitted = dev.admits(X_d=x_d, X_q=x_q)
        assert 0 < admitted.sum() < self.N
        for k in range(self.N):
            try:
                dev.with_reactances(float(x_d[k]), float(x_q[k]))
                built = True
            except ValueError:
                built = False
            assert built == admitted[k]
