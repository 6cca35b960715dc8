import numpy as np
import pytest

import gridcert as gc
from gridcert import linearization
from gridcert.certificate import certify
from gridcert.linearization import (
    KRON_COND_LIMIT,
    DegenerateEquilibriumError,
    _condition,
    _kron_reduce,
    _spectra,
    _spectrum_verdicts,
    assemble_energy_hessian,
    damping_matrix,
    eigenvalue_verdict,
    factorized_voltage_block,
    kron_reduce,
)

from _oracles import (
    energy_hessian_reference,
    fd_hessian,
    random_system,
    solved,
    three_bus_doc,
    voltage_regular,
)
from test_simulation import fixture_system, two_axis_and_load_system, twelve_bus_system


def single_vsg_bus(M=0.2, D=1.3, x_d=0.10, x_q=0.069):
    net = gc.Network.from_lines(1, [])
    system = gc.PowerSystem(net, [gc.VsgInverter(M=M, D=D, X_d=x_d, X_q=x_q)])
    flow = gc.PowerFlowSolution(theta=np.zeros(1), V=np.ones(1), P=np.zeros(1),
                                Q=np.zeros(1), residual=0.0, iterations=0)
    return system, flow


def total_energy_fn(system, eq):
    n_x = system.n_states
    slices = system.state_slices()

    def U(z):
        x, v = z[:n_x], z[n_x:]
        theta, V = v[0::2], v[1::2]
        D = np.subtract.outer(theta, theta)
        W = system.net.B * np.outer(V, V)
        total = -0.5 * (W * np.cos(D)).sum()
        for i, dev in enumerate(system.devices):
            total += dev.energy(x[slices[i]], theta[i], V[i], eq.setpoints[i], system.omega0)
        return total

    return U


class TestAssembly:
    def test_single_vsg_closed_entries(self):
        system, flow = single_vsg_bus()
        eq = system.equilibrium(flow)
        H = assemble_energy_hessian(system, eq)
        w0, M = system.omega0, 0.2
        expected = np.array([
            [1 / 0.069, 0.0, -1 / 0.069, 0.0],
            [0.0, w0 * M, 0.0, 0.0],
            [-1 / 0.069, 0.0, 1 / 0.069, 0.0],
            [0.0, 0.0, 0.0, 1 / 0.10],
        ])
        assert np.max(np.abs(H.matrix - expected)) < 1e-12

    def test_three_bus_matches_finite_differences(self):
        for mode in (None, "following"):
            cfg = gc.parse_config(three_bus_doc())
            if mode:
                cfg = gc.apply_load_mode(cfg, mode)
            flow = solved(cfg)
            eq = cfg.system.equilibrium(flow)
            H = assemble_energy_hessian(cfg.system, eq)
            assert np.max(np.abs(H.matrix - H.matrix.T)) < 1e-12
            z0 = np.concatenate([eq.x(), eq.v()])
            Hfd = fd_hessian(total_energy_fn(cfg.system, eq), z0)
            rel = np.max(np.abs(H.matrix - Hfd)) / np.max(np.abs(H.matrix))
            assert rel < 1e-6

    def test_voltage_block_factorization_identity(self):
        rng = np.random.default_rng(31)
        checked = 0
        while checked < 25:
            out = random_system(rng, angle_scale=0.5, allow_loads=False)
            if out is None:
                continue
            system, flow = out
            eq = system.equilibrium(flow)
            H = assemble_energy_hessian(system, eq)
            F = factorized_voltage_block(system, eq)
            assert np.max(np.abs(H.vv - F)) < 1e-12
            assert np.linalg.eigvalsh(H.vv)[0] > 0.0
            checked += 1

    def test_factorization_requires_device_buses(self):
        cfg = gc.apply_load_mode(gc.parse_config(three_bus_doc()), "following")
        flow = solved(cfg)
        eq = cfg.system.equilibrium(flow)
        with pytest.raises(ValueError, match="voltage-source"):
            factorized_voltage_block(cfg.system, eq)

    def test_inconsistent_equilibrium_rejected(self):
        cfg = gc.parse_config(three_bus_doc())
        flow = solved(cfg)
        eq = cfg.system.equilibrium(flow)
        states = list(eq.states)
        states[0] = states[0] + np.array([0.2, 0.0, 0.0, 0.0])
        broken = gc.Equilibrium(system=cfg.system, flow=flow,
                                setpoints=eq.setpoints, states=tuple(states))
        with pytest.raises(ValueError, match="residual"):
            assemble_energy_hessian(cfg.system, broken)


class TestKronReduce:
    def test_identity_algebraic_block_returns_state_block(self):
        A = np.array([[3.0, 1.0], [1.0, 5.0]])
        H = np.block([[A, np.zeros((2, 2))], [np.zeros((2, 2)), np.eye(2)]])
        assert np.array_equal(kron_reduce(H, 2), A)

    def test_no_algebraic_block_returns_the_matrix(self):
        H = np.array([[3.0, 1.0], [1.0, 5.0]])
        reduced = kron_reduce(H, H.shape[0])
        assert np.array_equal(reduced, H) and not np.shares_memory(reduced, H)

    def test_scalar_schur(self):
        H = np.array([[4.0, 2.0], [2.0, 8.0]])
        assert kron_reduce(H, 1)[0, 0] == pytest.approx(4.0 - 4.0 / 8.0)

    def test_singular_block_rejected(self):
        H = np.zeros((3, 3))
        H[0, 0] = 1.0
        with pytest.raises(np.linalg.LinAlgError, match="singular"):
            kron_reduce(H, 1)

    @pytest.mark.parametrize("case", ["forming", "following", "two_axis_load", "twelve_bus"])
    def test_block_kernel_equals_the_whole_matrix_reduction(self, case):
        system, eq = (two_axis_and_load_system() if case == "two_axis_load"
                      else twelve_bus_system() if case == "twelve_bus"
                      else fixture_system(case))
        reference = energy_hessian_reference(system, eq)
        whole = assemble_energy_hessian(system, eq).matrix
        assert np.array_equal(whole.view(np.uint64), reference.view(np.uint64))  # signed zeros too
        eig = _spectra(damping_matrix(system)[None],
                       kron_reduce(reference, system.n_states)[None])[0]
        eig = eig[np.lexsort((eig.imag, eig.real))]
        spectrum = eigenvalue_verdict(system, eq).eigenvalues
        assert np.array_equal(spectrum.view(np.uint64), eig.view(np.uint64))

    def test_reduced_definiteness_matches_certificate(self):
        # positive semidefiniteness of the reduced Hessian is equivalent to the
        # closed-form condition (positive coefficients plus PSD condition matrix)
        rng = np.random.default_rng(32)
        checked = 0
        while checked < 40:
            out = random_system(rng, angle_scale=0.7, allow_loads=False)
            if out is None:
                continue
            system, flow = out
            report = certify(flow, system)
            if report.verdict == "marginal" or abs(report.min_eig or 1) < 1e-6:
                continue
            eq = system.equilibrium(flow)
            H = assemble_energy_hessian(system, eq)
            S = kron_reduce(H.matrix, H.n_states)
            null = np.zeros(H.n_states)
            for dev, sl in zip(system.devices, system.state_slices()):
                if dev.n_states:
                    null[sl.start] = 1.0
            null /= np.linalg.norm(null)
            min_eig = gc.deflated_min_eig(S, null)[0]
            cert_psd = report.verdict == "stable"
            assert (min_eig > -1e-8) == cert_psd
            checked += 1


class TestEigenValueVerdict:
    def test_single_vsg_closed_form_spectrum(self):
        system, flow = single_vsg_bus(M=0.2, D=1.3)
        eq = system.equilibrium(flow)
        report = eigenvalue_verdict(system, eq)
        assert report.verdict == "stable"
        eigs = sorted(report.eigenvalues, key=lambda z: z.real)
        assert eigs[1] == pytest.approx(0.0, abs=1e-10)
        assert eigs[0] == pytest.approx(-1.3 / 0.2, rel=1e-10)  # -D/M

    def test_damping_matrix_symmetric_part_psd(self):
        rng = np.random.default_rng(33)
        for _ in range(20):
            out = random_system(rng)
            if out is None:
                continue
            system, _ = out
            R = damping_matrix(system)
            sym = R + R.T
            assert np.linalg.eigvalsh(sym)[0] > -1e-12

    def test_exactly_one_zero_mode_and_conjugate_closure(self):
        rng = np.random.default_rng(34)
        checked = 0
        while checked < 25:
            out = random_system(rng, angle_scale=0.4)
            if out is None:
                continue
            system, flow = out
            eq = system.equilibrium(flow)
            try:
                report = eigenvalue_verdict(system, eq)
            except (DegenerateEquilibriumError, np.linalg.LinAlgError):
                continue
            mods = np.abs(report.eigenvalues)
            assert np.sum(mods <= 1e-7) == 1
            spectrum = sorted(report.eigenvalues, key=lambda z: (z.real, z.imag))
            conj = sorted(np.conj(report.eigenvalues), key=lambda z: (z.real, z.imag))
            assert np.allclose(spectrum, conj, atol=1e-9)
            checked += 1

    def test_parameter_rescaling_preserves_verdict(self):
        rng = np.random.default_rng(35)
        cfg = gc.parse_config(three_bus_doc(x3=(4.0, 4.0)))
        cfg = gc.apply_load_mode(cfg, "following")
        flow = solved(cfg)
        eq = cfg.system.equilibrium(flow)
        base = eigenvalue_verdict(cfg.system, eq).verdict
        assert base == "unstable"
        for _ in range(5):
            devices = []
            for dev in cfg.system.devices:
                if isinstance(dev, gc.ConstantPowerLoad):
                    devices.append(dev)
                else:
                    devices.append(gc.VsgInverter(M=float(dev.M * rng.uniform(0.1, 10)),
                                                  D=float(dev.D * rng.uniform(0.1, 10)),
                                                  X_d=dev.X_d, X_q=dev.X_q))
            system = gc.PowerSystem(cfg.system.net, devices, cfg.system.omega0)
            eq2 = system.equilibrium(flow)
            assert eigenvalue_verdict(system, eq2).verdict == base

    def test_degenerate_band_detection(self, monkeypatch):
        system, flow = single_vsg_bus()
        eq = system.equilibrium(flow)
        monkeypatch.setattr(linearization, "EIG_TOL", 100.0)
        with pytest.raises(DegenerateEquilibriumError):
            eigenvalue_verdict(system, eq)

    def test_no_dynamic_states_rejected(self):
        net = gc.Network.from_lines(1, [])
        system = gc.PowerSystem(net, [gc.ConstantPowerLoad(P_ref=0.0, Q_ref=0.0)])
        flow = gc.PowerFlowSolution(theta=np.zeros(1), V=np.ones(1), P=np.zeros(1),
                                    Q=np.zeros(1), residual=0.0, iterations=0)
        eq = system.equilibrium(flow)
        with pytest.raises(ValueError, match="dynamic states"):
            eigenvalue_verdict(system, eq)


@pytest.fixture
def fixture_matrices():
    """Energy Hessian, damping matrix and state count of the fixture at its equilibrium."""
    cfg = gc.load_config(gc.fixture_path("three_bus.json"))
    system = cfg.system
    eq = system.equilibrium(solved(cfg))
    assert eigenvalue_verdict(system, eq).verdict == "stable"
    return assemble_energy_hessian(system, eq).matrix, damping_matrix(system), system.n_states


class TestStackedKernels:
    """The kernels `eigenvalue_verdict` runs on a stack of one, on stacks of several.

    A kernel raises if it rejects any matrix of its stack, with the error that
    matrix raises on its own.
    """

    def test_kron_reduce_stack_equals_each_matrix(self, fixture_matrices):
        H, _, n_x = fixture_matrices
        rng = np.random.default_rng(36)
        stack = []
        for _ in range(4):
            E = rng.normal(scale=1e-3, size=H.shape)
            stack.append(H + E + E.T)
        S, _ = _kron_reduce(np.stack(stack), n_x)
        for Hk, Sk in zip(stack, S):
            assert np.array_equal(kron_reduce(Hk, n_x), Sk)
        not_finite = H.copy()
        not_finite[n_x + 1, n_x + 2] = np.inf
        singular = H.copy()
        singular[n_x:, n_x + 1] = singular[n_x + 1, n_x:] = 0.0
        messages = []
        for bad in (not_finite, singular):
            with pytest.raises(np.linalg.LinAlgError) as exc:
                kron_reduce(bad, n_x)
            messages.append(str(exc.value))
            with pytest.raises(np.linalg.LinAlgError) as exc:
                _kron_reduce(np.stack([H, bad, H]), n_x)
            assert str(exc.value) == messages[-1]
        assert messages[0] == "algebraic block is not finite"
        assert messages[1].startswith("algebraic block numerically singular")
        S, margins = _kron_reduce(np.stack([H, H]), n_x)
        assert np.array_equal(S, np.stack([kron_reduce(H, n_x)] * 2))
        assert np.array_equal(margins, [np.linalg.eigvalsh(H[n_x:, n_x:])[0]] * 2)

    def test_lapack_failure_stays_with_its_matrix(self, fixture_matrices, monkeypatch):
        H, R, n_x = fixture_matrices
        bad_kron = H.copy()
        bad_kron[n_x, n_x] = np.nan  # screened before LAPACK sees it
        bad_spectrum = H.copy()
        bad_spectrum[0, 0] = np.inf  # the stacked eigvals raises
        eigvalsh, blocks = np.linalg.eigvalsh, []

        def recording_eigvalsh(a):
            blocks.append(a)
            return eigvalsh(a)

        with np.errstate(invalid="ignore"):  # inf times the zeros of R
            with pytest.raises(np.linalg.LinAlgError):
                np.linalg.eigvals(-R @ kron_reduce(bad_spectrum, n_x))
            monkeypatch.setattr(np.linalg, "eigvalsh", recording_eigvalsh)
            with pytest.raises(np.linalg.LinAlgError, match="not finite"):
                _kron_reduce(np.stack([H, bad_kron, bad_spectrum, H]), n_x)
            assert blocks == []
            S, _ = _kron_reduce(np.stack([H, bad_spectrum, H]), n_x)
            with pytest.raises(np.linalg.LinAlgError):
                _spectra(np.stack([R] * 3), S)
        eig = _spectra(np.stack([R] * 2), S[[0, 2]])
        assert np.array_equal(eig, np.stack([np.linalg.eigvals(-R @ kron_reduce(H, n_x))] * 2))
        verdicts, _ = _spectrum_verdicts(eig)
        assert verdicts == ["stable", "stable"]

    def test_kron_condition_limit(self, fixture_matrices):
        H, _, n_x = fixture_matrices
        stack = []
        for scale in (1e-4, 1e-9):  # shrink one voltage row and column of the algebraic block
            Hs = H.copy()
            Hs[n_x + 1, :] *= scale
            Hs[:, n_x + 1] *= scale
            stack.append(Hs)
        conds = [np.linalg.cond(Hs[n_x:, n_x:]) for Hs in stack]
        assert 1e6 < conds[0] < KRON_COND_LIMIT < conds[1] < np.inf
        with pytest.raises(np.linalg.LinAlgError, match="singular"):
            _kron_reduce(np.stack(stack), n_x)
        S, _ = _kron_reduce(np.stack(stack[:1]), n_x)
        assert np.array_equal(S[0], kron_reduce(stack[0], n_x))
        with pytest.raises(np.linalg.LinAlgError, match="singular"):
            kron_reduce(stack[1], n_x)

    def test_condition_is_the_svd_condition(self, fixture_matrices):
        H, _, n_x = fixture_matrices
        Q, _ = np.linalg.qr(np.random.default_rng(12).normal(size=(6, 6)))
        indefinite = (Q * [-5.0, 0.3, 2.0, -0.7, 7.0, 11.0]) @ Q.T  # smallest |eig| is inside
        indefinite = 0.5 * (indefinite + indefinite.T)
        blocks = np.stack([H[n_x:, n_x:], indefinite])
        cond, lam = _condition(blocks)
        assert np.allclose(cond, np.linalg.cond(blocks), rtol=1e-12, atol=0.0)
        assert lam[0, 0] > 0 > lam[1, 0]

    def test_voltage_margin_is_the_smallest_algebraic_eigenvalue(self):
        cfg = gc.load_config(gc.fixture_path("three_bus.json"))
        draw, flow = random_system(np.random.default_rng(4))
        for system, eq in ((cfg.system, cfg.system.equilibrium(solved(cfg))),
                           (draw, draw.equilibrium(flow))):
            lam_min = np.linalg.eigvalsh(assemble_energy_hessian(system, eq).vv)[0]
            margin = eigenvalue_verdict(system, eq).voltage_margin
            assert margin == pytest.approx(lam_min, rel=1e-12)
            assert (margin > 0) == voltage_regular(system, eq)
        assert margin < 0  # the draw is not voltage-regular

    def test_degenerate_equilibrium_messages(self, monkeypatch):
        system, flow = single_vsg_bus()
        with monkeypatch.context() as patch:
            patch.setattr(linearization, "EIG_TOL", 100.0)
            with pytest.raises(DegenerateEquilibriumError) as exc:
                eigenvalue_verdict(system, system.equilibrium(flow))
        assert str(exc.value) == "degenerate equilibrium: 2 eigenvalues within 1.0e+02 of zero"
        degenerate, no_zero = [0.0, 1e-8, -1.0], [-1e-3, -1.0, -2.0]
        messages = []
        for spectra in ([degenerate], [no_zero], [no_zero, degenerate]):
            with pytest.raises(DegenerateEquilibriumError) as exc:
                _spectrum_verdicts(np.array(spectra))
            messages.append(str(exc.value))
        assert messages == [
            "degenerate equilibrium: 2 eigenvalues within 1.0e-07 of zero",
            "no structural zero mode found (smallest |eig| = 1.000e-03)",
            "no structural zero mode found (smallest |eig| = 1.000e-03)",  # the first in the stack
        ]
