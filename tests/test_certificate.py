import math

import numpy as np
import pytest

import gridcert as gc
from gridcert import certificate
from gridcert.certificate import (
    CertificateError,
    bus_stiffness_block,
    certify,
    deflated_min_eig,
    load_stiffness_block,
    network_hessian,
    structural_null_vector,
    synchronizing_coefficient,
)
from gridcert.devices import OperatingPoint, reduced_stiffness_blocks
from gridcert.linearization import eigenvalue_verdict

from _oracles import (
    certify_reference,
    condition_matrix,
    fd_hessian,
    off_flow_load_doc,
    random_operating_point,
    random_system,
    solved,
    three_bus_doc,
)

BUS1 = OperatingPoint(V=1.0, P=1.0, Q=0.2886)


class TestSynchronizingCoefficient:
    def test_zero_power_bus(self):
        g = synchronizing_coefficient(OperatingPoint(1.0, 0.0, 0.0), 0.10, 0.069)
        assert g == pytest.approx(1.0 / 0.069, rel=1e-14)

    def test_bus1_value(self):
        phi = math.atan(1.0 / (0.2886 + 1.0 / 0.069))
        expected = 0.2886 + math.cos(phi) ** 2 / 0.069 + math.sin(phi) ** 2 / 0.10
        assert synchronizing_coefficient(BUS1, 0.10, 0.069) == pytest.approx(expected, rel=1e-12)
        assert synchronizing_coefficient(BUS1, 0.10, 0.069) == pytest.approx(14.76, abs=5e-3)

    def test_monotone_in_reactive_power(self):
        values = [synchronizing_coefficient(OperatingPoint(1.0, 0.8, q), 0.10, 0.069)
                  for q in (1.0, 0.5, 0.0, -2.0)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_matches_reduced_angle_block(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            x_d, x_q = float(rng.uniform(0.06, 0.3)), float(rng.uniform(0.05, 0.3))
            op = random_operating_point(rng, x_q)
            h_dd, _, _ = reduced_stiffness_blocks(op, x_d, x_q)
            assert synchronizing_coefficient(op, x_d, x_q) == pytest.approx(h_dd, rel=1e-12)


class TestBusStiffnessBlock:
    def test_zero_power_bus(self):
        G = bus_stiffness_block(OperatingPoint(1.0, 0.0, 0.0), 0.10, 0.069)
        assert G[0, 0] == 0.0 and G[0, 1] == 0.0 and G[1, 0] == 0.0
        assert G[1, 1] == pytest.approx(1.0 / 0.10, rel=1e-14)

    def test_bus1_value(self):
        G = bus_stiffness_block(BUS1, 0.10, 0.069)
        assert G[1, 1] == pytest.approx(9.91, abs=5e-3)

    def test_equals_schur_complement_of_reduced_blocks(self):
        rng = np.random.default_rng(22)
        for _ in range(100):
            x_d, x_q = float(rng.uniform(0.06, 0.3)), float(rng.uniform(0.05, 0.3))
            op = random_operating_point(rng, x_q)
            h_dd, h_dv, h_vv = reduced_stiffness_blocks(op, x_d, x_q)
            if h_dd <= 1e-6:
                continue
            G = bus_stiffness_block(op, x_d, x_q)
            schur = h_vv - np.outer(h_dv, h_dv) / h_dd
            assert np.max(np.abs(G - schur)) < 1e-10

    def test_negative_coefficient_rejected(self):
        # gamma < 0 requires X_d >> X_q and strong reactive consumption
        op = OperatingPoint(V=1.0, P=1.0, Q=-9.5)
        assert synchronizing_coefficient(op, 2.0, 0.1) < 0
        with pytest.raises(CertificateError, match="undefined"):
            bus_stiffness_block(op, 2.0, 0.1)


class TestLoadStiffnessBlock:
    def test_table1_load_bus(self):
        G = load_stiffness_block(-0.5, 0.9931)
        assert G[1, 1] == pytest.approx(-0.5070, abs=5e-5)
        assert G[0, 0] == 0.0

    def test_zero_reactive_reference(self):
        assert np.array_equal(load_stiffness_block(0.0, 1.0), np.zeros((2, 2)))

    def test_capacitive_load_is_psd(self):
        assert np.linalg.eigvalsh(load_stiffness_block(0.3, 0.95))[0] >= 0.0


class TestNetworkHessian:
    def test_flat_two_bus(self):
        B = gc.build_susceptance(2, [gc.Line(0, 1, 1.0)])
        L = network_hessian(np.zeros(2), np.ones(2), B)
        expected = np.array([
            [1.0, 0.0, -1.0, 0.0],
            [0.0, 1.0, 0.0, -1.0],
            [-1.0, 0.0, 1.0, 0.0],
            [0.0, -1.0, 0.0, 1.0],
        ])
        assert np.array_equal(L, expected)

    def test_annihilates_phase_shift_direction(self):
        rng = np.random.default_rng(23)
        B = gc.build_susceptance(4, [gc.Line(0, 1, 12.0), gc.Line(1, 2, 30.0),
                                     gc.Line(2, 3, 8.0), gc.Line(0, 2, 20.0)])
        for _ in range(10):
            theta = rng.uniform(-1.0, 1.0, 4)
            V = rng.uniform(0.9, 1.1, 4)
            L = network_hessian(theta, V, B)
            n = structural_null_vector(4)
            assert np.max(np.abs(L @ n)) < 1e-10
            assert np.max(np.abs(L - L.T)) < 1e-12

    def test_matches_numerical_hessian_of_line_energy(self):
        rng = np.random.default_rng(24)
        B = gc.build_susceptance(3, [gc.Line(0, 1, 20.0), gc.Line(1, 2, 35.0)])

        def line_energy(z):
            th, vv = z[0::2], z[1::2]
            D = np.subtract.outer(th, th)
            W = B * np.outer(vv, vv)
            return -0.5 * (W * np.cos(D)).sum()

        for _ in range(10):
            theta = rng.uniform(-1.0, 1.0, 3)
            V = rng.uniform(0.9, 1.1, 3)
            z = np.empty(6)
            z[0::2] = theta
            z[1::2] = V
            L = network_hessian(theta, V, B)
            Lfd = fd_hessian(line_energy, z, h=1e-3, refine=True)
            assert np.max(np.abs(L - Lfd)) / max(1.0, np.max(np.abs(L))) < 1e-8


class TestCertify:
    def test_single_isolated_generator_bus(self):
        net = gc.Network.from_lines(1, [])
        system = gc.PowerSystem(net, [gc.VsgInverter(M=0.2, D=1.0, X_d=0.10, X_q=0.069)])
        flow = gc.PowerFlowSolution(theta=np.zeros(1), V=np.ones(1), P=np.zeros(1),
                                    Q=np.zeros(1), residual=0.0, iterations=0)
        report = certify(flow, system)
        assert report.verdict == "stable"
        assert report.gammas[0] == pytest.approx(1.0 / 0.069, rel=1e-12)
        assert report.min_eig == pytest.approx(1.0 / 0.10, rel=1e-12)

    def test_three_bus_forming_agrees_with_eigen_oracle(self):
        cfg = gc.parse_config(three_bus_doc(x3=(0.10, 0.069)))
        flow = solved(cfg)
        report = certify(flow, cfg.system, bus_ids=cfg.bus_ids)
        eq = cfg.system.equilibrium(flow)
        eig = eigenvalue_verdict(cfg.system, eq)
        assert report.verdict == eig.verdict
        assert set(report.gammas) == {1, 2, 3}

    def test_structural_null_space_and_symmetry(self):
        cfg = gc.parse_config(three_bus_doc())
        for mode in (None, "following"):
            mc = gc.apply_load_mode(cfg, mode) if mode else cfg
            flow = solved(mc)
            report = certify(flow, mc.system)
            M = network_hessian(flow.theta, flow.V, mc.system.net.B)
            for i, dev in enumerate(mc.system.devices):
                op = mc.system.operating_point(flow, i)
                M[2 * i:2 * i + 2, 2 * i:2 * i + 2] += (
                    load_stiffness_block(dev.Q_ref, op.V) if dev.kind == "load"
                    else bus_stiffness_block(op, dev.X_d, dev.X_q))
            assert np.max(np.abs(M - M.T)) < 1e-12
            assert report.null_residual == np.max(np.abs(M @ structural_null_vector(3)))
            assert report.null_residual < 1e-10

    def test_deflation_equals_reference_bit_for_bit(self):
        cfg = gc.apply_load_mode(gc.parse_config(three_bus_doc(x3=(4.0, 4.0))), "following")
        cases = [(solved(cfg), cfg.system)]
        rng = np.random.default_rng(18)
        while len(cases) < 6:
            drawn = random_system(rng, n_bus=12)
            if drawn is not None and certify(drawn[1], drawn[0]).min_eig is not None:
                cases.append(drawn[::-1])
        verdicts = []
        for flow, system in cases:
            M = condition_matrix(system, flow)
            null_unit = structural_null_vector(system.n_bus)
            min_eig, vector = certify_reference(M)
            report = certify(flow, system)
            eig, eigvector = deflated_min_eig(M, null_unit)
            assert report.min_eig == eig == min_eig
            assert np.array_equal(eigvector, vector)
            assert abs(np.linalg.norm(vector) - 1.0) < 1e-12
            assert abs(vector @ null_unit) < 1e-12
            if report.verdict == "unstable":
                assert np.array_equal(report.witness, vector)
            verdicts.append(report.verdict)
        assert set(verdicts) == {"unstable"}  # so every case compared a witness

    def test_phase_shift_invariance_of_verdict(self):
        cfg = gc.parse_config(three_bus_doc())
        flow = solved(cfg)
        base = certify(flow, cfg.system)
        for c in (0.5, -1.8, math.pi):
            shifted = gc.PowerFlowSolution(theta=flow.theta + c, V=flow.V, P=flow.P,
                                           Q=flow.Q, residual=flow.residual,
                                           iterations=flow.iterations)
            rep = certify(shifted, cfg.system)
            assert rep.verdict == base.verdict
            assert rep.min_eig == pytest.approx(base.min_eig, rel=1e-9)

    def test_dynamics_independence_and_model_swaps(self):
        rng = np.random.default_rng(25)
        cfg = gc.parse_config(three_bus_doc(x3=(0.10, 0.069)))
        flow = solved(cfg)
        base = certify(flow, cfg.system).verdict
        for _ in range(10):
            devices = []
            for dev in cfg.system.devices:
                x_d, x_q = dev.X_d, dev.X_q
                kind = rng.choice(["two_axis", "vsg", "fdc"])
                M = float(dev.M * rng.uniform(0.1, 10)) if hasattr(dev, "M") else 0.2
                D = float(dev.D * rng.uniform(0.1, 10))
                if kind == "two_axis":
                    devices.append(gc.TwoAxisGenerator(
                        M=M, D=D, tau_d=float(rng.uniform(0.5, 50)),
                        tau_q=float(rng.uniform(0.1, 10)), X_d=x_d, X_q=x_q,
                        X_d_prime=0.5 * x_d, X_q_prime=0.4 * x_q))
                elif kind == "vsg":
                    devices.append(gc.VsgInverter(M=M, D=D, X_d=x_d, X_q=x_q))
                else:
                    devices.append(gc.DroopInverter(D=D, X_d=x_d, X_q=x_q))
            system = gc.PowerSystem(cfg.system.net, devices, cfg.system.omega0)
            assert certify(flow, system).verdict == base

    def test_positivity_violation_reports_bus(self):
        # strong reactive consumption at bus 0 with X_d >> X_q drives gamma negative
        net = gc.Network.from_lines(2, [gc.Line(0, 1, 45.0)])
        theta = np.array([0.2, 0.0])
        V = np.array([0.9, 1.1])
        P, Q = gc.power_balance(theta, V, net)
        assert Q[0] < -5.0
        devices = [gc.VsgInverter(M=0.2, D=1.0, X_d=1.0, X_q=0.1),
                   gc.VsgInverter(M=0.2, D=1.0, X_d=0.1, X_q=0.069)]
        system = gc.PowerSystem(net, devices)
        flow = gc.PowerFlowSolution(theta=theta, V=V, P=P, Q=Q, residual=0.0, iterations=0)
        assert synchronizing_coefficient(system.operating_point(flow, 0), 1.0, 0.1) < 0
        report = certify(flow, system)
        assert report.verdict == "unstable"
        assert report.violating_bus == 0
        assert report.min_eig is None

    def test_marginal_band_classification(self, monkeypatch):
        cfg = gc.parse_config(three_bus_doc())
        flow = solved(cfg)
        base = certify(flow, cfg.system)
        assert base.verdict == "stable"
        # widen the tolerance band until min_eig falls inside it
        monkeypatch.setattr(certificate, "CERT_TOL", base.min_eig * 1.01)
        wide = certify(flow, cfg.system)
        assert wide.verdict == "marginal"

    def test_inconsistent_flow_rejected(self):
        cfg = gc.parse_config(three_bus_doc())
        flow = solved(cfg)
        bad = gc.PowerFlowSolution(theta=flow.theta, V=flow.V, P=flow.P + 0.5,
                                   Q=flow.Q, residual=0.0, iterations=0)
        with pytest.raises(CertificateError, match="balance"):
            certify(bad, cfg.system)

    def test_load_off_its_flow_rejected(self):
        # the flow is balanced, but no equilibrium realizes it: the load draws another Q
        cfg = gc.parse_config(off_flow_load_doc())
        flow = solved(cfg)
        with pytest.raises(ValueError) as cert_exc:
            certify(flow, cfg.system)
        with pytest.raises(ValueError) as eq_exc:
            cfg.system.equilibrium(flow)
        assert str(cert_exc.value) == str(eq_exc.value) == (
            "constant-power load (-0.5, -3.0) cannot realize operating point "
            f"(P={float(flow.P[1])}, Q={float(flow.Q[1])})")

    @pytest.mark.parametrize("x3, message", [
        ((1e-320, 0.069), "synchronizing coefficient at bus 3 is not finite (inf)"),
        ((1e-299, 1e-10), "(V, V) stiffness at bus 3 is not finite (inf)"),
    ])
    def test_non_finite_closed_form_names_the_bus(self, x3, message):
        cfg = gc.apply_load_mode(gc.parse_config(three_bus_doc(x3=x3)), "forming")
        with pytest.raises(CertificateError) as exc:
            certify(solved(cfg), cfg.system, bus_ids=cfg.bus_ids)
        assert str(exc.value) == message

    def test_certificate_is_pure_static(self):
        # verdict must not read M, D, tau at all: strip them by using droop devices
        out = None
        rng = np.random.default_rng(26)
        for _ in range(20):
            out = random_system(rng, angle_scale=0.3, allow_loads=False)
            if out is not None:
                break
        system, flow = out
        r1 = certify(flow, system)
        scaled = gc.PowerSystem(
            system.net,
            [gc.DroopInverter(D=99.0, X_d=d.X_d, X_q=d.X_q) for d in system.devices],
            system.omega0)
        r2 = certify(flow, scaled)
        assert r1.verdict == r2.verdict
        assert r1.min_eig == pytest.approx(r2.min_eig, rel=1e-12)
