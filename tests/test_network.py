import math

import numpy as np
import pytest

import gridcert as gc
from gridcert import network
from gridcert.network import PQ, PV, Line, Network, PowerFlowError, Slack

from _oracles import (
    TABLE1,
    fd_gradient,
    network_hessian_reference,
    network_line_reference,
    power_flow_jacobian_line_reference,
    power_flow_jacobian_reference,
    random_system,
)


def test_susceptance_two_bus():
    B = gc.build_susceptance(2, [Line(0, 1, 1.0)])
    assert np.array_equal(B, np.array([[-1.0, 1.0], [1.0, -1.0]]))


def test_susceptance_three_bus_study_values():
    B = gc.build_susceptance(3, [Line(0, 1, 40.0), Line(1, 2, 45.0)])
    assert np.array_equal(B, np.array([[-40.0, 40.0, 0.0], [40.0, -85.0, 45.0], [0.0, 45.0, -45.0]]))


def test_susceptance_single_bus():
    assert np.array_equal(gc.build_susceptance(1, []), np.zeros((1, 1)))


def test_network_holds_a_read_only_copy_of_b():
    # the line kernel is cached from B on first use, so B must not change under it
    B = gc.build_susceptance(2, [Line(0, 1, 1.0)])
    net = Network(2, B)
    theta, V = np.array([0.1, 0.0]), np.ones(2)
    P = gc.power_balance(theta, V, net)[0]
    B *= 2.0
    with pytest.raises(ValueError, match="read-only"):
        net.B[0, 1] = 2.0
    assert np.array_equal(net.B, B / 2.0)
    assert np.array_equal(gc.power_balance(theta, V, net)[0], P)
    # a read-only view of a writable array is copied too; from_lines's B is held as made
    view = B.view()
    view.flags.writeable = False
    assert not np.shares_memory(Network(2, view).B, B)
    built = Network.from_lines(2, [Line(0, 1, 1.0)])
    with pytest.raises(ValueError, match="read-only"):
        built.B[0, 0] = 0.0


def test_susceptance_parallel_lines_sum():
    B = gc.build_susceptance(2, [Line(0, 1, 1.0), Line(1, 0, 2.5)])
    assert B[0, 1] == pytest.approx(3.5)
    assert B[0, 0] == pytest.approx(-3.5)


def test_susceptance_invariants_random():
    rng = np.random.default_rng(0)
    for _ in range(20):
        n = int(rng.integers(2, 7))
        lines = [Line(int(rng.integers(0, j)), j, float(rng.uniform(0.5, 50))) for j in range(1, n)]
        B = gc.build_susceptance(n, lines)
        assert np.array_equal(B, B.T)
        assert np.max(np.abs(B.sum(axis=1))) < 1e-10
        offdiag = B[~np.eye(n, dtype=bool)]
        assert np.all(offdiag >= 0)
        assert np.linalg.eigvalsh(-B)[0] > -1e-10


def test_line_and_graph_validation():
    with pytest.raises(ValueError):
        Line(1, 1, 2.0)
    with pytest.raises(ValueError):
        Line(0, 1, 0.0)
    with pytest.raises(ValueError, match="disconnected"):
        gc.build_susceptance(3, [Line(0, 1, 1.0)])
    with pytest.raises(ValueError, match="outside"):
        gc.build_susceptance(2, [Line(0, 5, 1.0)])


@pytest.mark.parametrize("lines, message", [
    ([Line(0, 1, 1.0), Line(1, 2, 1.7e308), Line(2, 3, 1.7e308)],
     "line susceptances at bus 2 do not sum to a finite value"),
    # parallel lines overflow the off-diagonal entry itself
    ([Line(0, 1, 1.7e308), Line(1, 0, 1.7e308), Line(1, 2, 1.0), Line(2, 3, 1.0)],
     "line susceptances at bus 0 do not sum to a finite value"),
])
def test_susceptance_sum_overflow_named(lines, message):
    with pytest.raises(ValueError) as info:
        gc.build_susceptance(4, lines)
    assert str(info.value) == message


def test_power_balance_flat_profile_is_zero():
    net = Network.from_lines(3, [Line(0, 1, 40.0), Line(1, 2, 45.0)])
    P, Q = gc.power_balance(np.zeros(3), np.ones(3), net)
    assert np.max(np.abs(P)) < 1e-12
    assert np.max(np.abs(Q)) < 1e-12


def test_power_balance_two_bus_closed_form():
    net = Network.from_lines(2, [Line(0, 1, 1.0)])
    P, Q = gc.power_balance([math.pi / 6, 0.0], [1.0, 1.0], net)
    assert P == pytest.approx([0.5, -0.5], abs=1e-15)
    q = 1.0 - math.cos(math.pi / 6)
    assert Q == pytest.approx([q, q], abs=1e-15)


def test_power_balance_matches_table1():
    # evaluated at the full-precision stationary point the table rounds to;
    # the 4-decimal rounding of theta amplifies through b ~ 85 otherwise
    net = Network.from_lines(3, [Line(0, 1, 40.0), Line(1, 2, 45.0)])
    flow = gc.solve_power_flow(net, _three_bus_specs())
    P, Q = gc.power_balance(flow.theta, flow.V, net)
    assert np.max(np.abs(P - TABLE1["P"])) <= 5e-4
    assert np.max(np.abs(Q - TABLE1["Q"])) <= 5e-4
    P_r, Q_r = gc.power_balance(TABLE1["theta"], TABLE1["V"], net)
    assert np.max(np.abs(P_r - TABLE1["P"])) <= 1e-2
    assert np.max(np.abs(Q_r - TABLE1["Q"])) <= 1e-2


def test_jacobian_matches_finite_differences():
    rng = np.random.default_rng(1)
    net = Network.from_lines(4, [Line(0, 1, 12.0), Line(1, 2, 7.0), Line(2, 3, 20.0), Line(0, 3, 5.0)])
    for _ in range(10):
        theta = rng.uniform(-0.8, 0.8, 4)
        V = rng.uniform(0.9, 1.1, 4)
        J = gc.power_flow_jacobian(theta, V, net)

        def pq(z):
            P, Q = gc.power_balance(z[:4], z[4:], net)
            return np.concatenate([P, Q])

        z = np.concatenate([theta, V])
        Jfd = np.array([fd_gradient(lambda zz, k=k: pq(zz)[k], z) for k in range(8)])
        assert np.max(np.abs(J - Jfd)) / max(1.0, np.max(np.abs(J))) < 1e-6


def test_power_balance_phase_shift_invariance():
    rng = np.random.default_rng(2)
    net = Network.from_lines(3, [Line(0, 1, 40.0), Line(1, 2, 45.0)])
    theta = rng.uniform(-0.5, 0.5, 3)
    V = rng.uniform(0.9, 1.1, 3)
    P0, Q0 = gc.power_balance(theta, V, net)
    for c in (0.3, -2.0, 11.7):
        P, Q = gc.power_balance(theta + c, V, net)
        assert np.max(np.abs(P - P0)) < 1e-10
        assert np.max(np.abs(Q - Q0)) < 1e-10


def _three_bus_specs():
    return [PV(P=1.0, V=1.0), PQ(P=-3.5, Q=-0.5), Slack(theta=0.0, V=1.0)]


def test_solve_reproduces_table1():
    net = Network.from_lines(3, [Line(0, 1, 40.0), Line(1, 2, 45.0)])
    flow = gc.solve_power_flow(net, _three_bus_specs())
    assert flow.residual <= 1e-10
    for key in ("theta", "V", "P", "Q"):
        assert np.max(np.abs(getattr(flow, key) - TABLE1[key])) <= 5e-4, key
    assert abs(flow.P.sum()) < 1e-12


def test_solve_one_angle_pass_per_iterate(monkeypatch):
    calls = []

    def counting(lines, theta, V):
        calls.append(theta)
        return evaluate(lines, theta, V)

    evaluate = network._Lines.evaluate
    monkeypatch.setattr(network._Lines, "evaluate", counting)
    net = Network.from_lines(3, [Line(0, 1, 40.0), Line(1, 2, 45.0)])
    flow = gc.solve_power_flow(net, _three_bus_specs())
    assert flow.iterations == 4
    assert len(calls) == flow.iterations + 1


def test_newton_jacobian_is_the_full_one_restricted(monkeypatch):
    # a 50-bus draw solved with PV and PQ buses: at every iterate the Newton loop's
    # Jacobian is the full one's free rows and columns, and the full one the documented
    # block formula, bit for bit
    system, point = random_system(np.random.default_rng(2), angle_scale=0.05, n_bus=50,
                                  allow_loads=False)
    specs = [Slack(float(point.theta[0]), float(point.V[0]))] + [
        PV(P=float(point.P[i]), V=float(point.V[i])) if i % 3 == 0
        else PQ(P=float(point.P[i]), Q=float(point.Q[i])) for i in range(1, 50)]
    iterates, jacobians = [], []
    evaluate, jacobian = network._Lines.evaluate, network._jacobian

    def recording_evaluate(lines, theta, V):
        iterates.append((np.array(theta), np.array(V)))
        return evaluate(lines, theta, V)

    def recording_jacobian(*args):
        jacobians.append(jacobian(*args))
        return jacobians[-1]

    monkeypatch.setattr(network._Lines, "evaluate", recording_evaluate)
    monkeypatch.setattr(network, "_jacobian", recording_jacobian)
    flow = gc.solve_power_flow(system.net, specs)
    monkeypatch.undo()
    assert flow.iterations == len(jacobians) == len(iterates) - 1 == 5
    assert np.max(np.abs(flow.V - point.V)) < 1e-12
    free_theta = np.arange(1, 50)
    free_V = np.array([i for i in range(1, 50) if i % 3])  # PV buses have a free angle only
    rows = np.concatenate([free_theta, 50 + free_V])
    for (theta, V), J in zip(iterates, jacobians):
        # the documented block formula, assembled as a whole; compared with signs of zeros
        H = gc.network_hessian(theta, V, system.net)
        tt, tv, vv = H[0::2, 0::2], H[0::2, 1::2], H[1::2, 1::2]
        Q = gc.power_balance(theta, V, system.net)[1]
        full = np.block([[tt, tv], [V[:, None] * tv.T, V[:, None] * vv + np.diag(Q / V)]])
        bits = gc.power_flow_jacobian(theta, V, system.net).view(np.uint64)
        assert np.array_equal(bits, full.view(np.uint64))
        assert np.array_equal(J.view(np.uint64), full[np.ix_(rows, rows)].view(np.uint64))


def _meshed_point(rng, n):
    """A random meshed susceptance matrix at n buses and interleaved voltages there."""
    lines = [Line(int(rng.integers(0, j)), j, float(rng.uniform(2.0, 40.0))) for j in range(1, n)]
    lines += [Line(int(i), int(j), float(rng.uniform(2.0, 40.0)))
              for i, j in (rng.choice(n, size=2, replace=False) for _ in range(n // 2))]
    v = np.empty(2 * n)
    v[0::2] = rng.uniform(-0.5, 0.5, n)
    v[1::2] = rng.uniform(0.9, 1.1, n)
    return gc.build_susceptance(n, lines), v


@pytest.mark.parametrize("n", [3, 9, 50, 500])
def test_hessian_kernels_equal_the_reference_formula(n):
    # the line reference's plain loops, at sizes where numpy would sum rows in 8-way pairwise
    # blocks; the angles and magnitudes come as the simulator's strided views of one vector
    B, v = _meshed_point(np.random.default_rng(n), n)
    theta, V = v[0::2], v[1::2]
    net = Network(n, B)
    P_ref, Q_ref, H_ref = network_line_reference(theta, V, B)
    for got, want in zip((*gc.power_balance(theta, V, net),
                          gc.network_hessian(theta, V, net), gc.power_flow_jacobian(theta, V, net)),
                         (P_ref, Q_ref, H_ref, power_flow_jacobian_line_reference(theta, V, B))):
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 9, 50, 500])
def test_line_kernel_agrees_with_the_dense_formula(n):
    # the dense formula over every bus pair, as first written: below 8 buses numpy sums its
    # rows left to right from +0.0, so every sum and nonzero entry keeps its bits; from 8 on
    # its pairwise sums move the last bits, within 1e-13 of each row's scale
    B, v = _meshed_point(np.random.default_rng(200 + n), n)
    theta, V = v[0::2], v[1::2]
    W = np.abs(B) * np.outer(V, V)  # the magnitudes of each row's (P, Q) terms
    dense_H = network_hessian_reference(theta, V, B)
    dense_J = power_flow_jacobian_reference(theta, V, B)
    D = np.subtract.outer(theta, theta)
    dense_P = (np.sin(D) * (B * np.outer(V, V))).sum(axis=1)
    dense_Q = -(np.cos(D) * (B * np.outer(V, V))).sum(axis=1)
    net = Network(n, B)
    P, Q = gc.power_balance(theta, V, net)
    pairs = [(P, dense_P, W.sum(axis=1)), (Q, dense_Q, W.sum(axis=1)),
             (gc.network_hessian(theta, V, net), dense_H, np.abs(dense_H).sum(axis=1)),
             (gc.power_flow_jacobian(theta, V, net), dense_J, np.abs(dense_J).sum(axis=1))]
    for got, want, scale in pairs:
        if n < 8:
            assert np.array_equal(got, want)  # zeros of either sign off the lines
            nonzero = want != 0
            assert np.array_equal(got[nonzero].view(np.uint64), want[nonzero].view(np.uint64))
        else:
            gap = np.abs(got - want)
            assert np.all(gap <= 1e-13 * (scale[:, None] if got.ndim == 2 else scale))


def test_trig_work_scales_with_the_lines(monkeypatch):
    # one cos and one sin per off-diagonal nonzero of B in each evaluation, not per bus pair
    system, point = random_system(np.random.default_rng(5), n_bus=50)
    B = system.net.B
    off_diagonal = np.count_nonzero(B) - np.count_nonzero(np.diag(B))
    assert off_diagonal < 50 * 49 // 4
    counts = {"cos": 0, "sin": 0}
    for name in counts:
        def counting(x, _f=getattr(math, name), _name=name):
            counts[_name] += 1
            return _f(x)
        monkeypatch.setattr(math, name, counting)
    for evaluate in (lambda: gc.power_balance(point.theta, point.V, system.net),
                     lambda: gc.network_hessian(point.theta, point.V, system.net),
                     lambda: gc.power_flow_jacobian(point.theta, point.V, system.net)):
        counts.update(cos=0, sin=0)
        evaluate()
        assert counts == {"cos": off_diagonal, "sin": off_diagonal}


def _kernel_points(rng, n):
    """Susceptance matrices and interleaved voltages at n buses where signed zeros matter.

    Besides a random meshed B with zero entries off its lines, B = 0 (whose
    diagonal's negation is -0.0); besides random angles, equal angles (every
    sine +0.0) and angles of +0.0 and -0.0, whose differences are signed zeros.
    """
    lines = [Line(int(rng.integers(0, j)), j, float(rng.uniform(2.0, 40.0))) for j in range(1, n)]
    lines += [Line(int(i), int(j), float(rng.uniform(2.0, 40.0)))
              for i, j in (rng.choice(n, size=2, replace=False) for _ in range(n // 3))]
    V = rng.uniform(0.9, 1.1, n)
    for B in (gc.build_susceptance(n, lines), np.zeros((n, n))):
        for theta in (rng.uniform(-0.5, 0.5, n), np.full(n, 0.3), rng.choice([0.0, -0.0], n)):
            v = np.empty(2 * n)
            v[0::2], v[1::2] = theta, V
            yield B, v


@pytest.mark.parametrize("n", range(1, 9))
def test_simulator_network_kernel_equals_the_array_kernel(n):
    # the voltage Newton's evaluation, on the lists it passes, gives power_balance and
    # network_hessian, alone and plus the device blocks, and the line reference's bits,
    # signs of zeros included
    rng = np.random.default_rng(100 + n)
    for B, v in _kernel_points(rng, n):
        theta, V = v[0::2], v[1::2]
        # per bus a random block, a load's (zeros but for (V, V)) or zeros
        blocks = [rng.choice([rng.normal(size=3), [0.0, 0.0, rng.normal()], [0.0] * 3]).tolist()
                  for _ in range(n)]
        net = Network(n, B)
        lines = net._lines
        values = v.tolist()
        P, Q, hessian = lines.evaluate(values[0::2], values[1::2])
        P_ref, Q_ref, H_ref = network_line_reference(theta, V, B)
        H = gc.network_hessian(theta, V, net)
        for H_sum in (H, H_ref):
            for j, (h_tt, h_tV, h_VV) in zip(range(0, 2 * n, 2), blocks):
                H_sum[j, j] += h_tt
                H_sum[j, j + 1] += h_tV
                H_sum[j + 1, j] += h_tV
                H_sum[j + 1, j + 1] += h_VV
        P_array, Q_array = gc.power_balance(theta, V, net)
        for got, wants in ((np.array(P), (P_array, P_ref)), (np.array(Q), (Q_array, Q_ref)),
                           (lines.hessian(hessian, blocks), (H, H_ref)),
                           (lines.hessian(hessian), (gc.network_hessian(theta, V, net),
                                                     network_line_reference(theta, V, B)[2]))):
            for want in wants:
                assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_numpy_rounds_like_the_float_kernel():
    # the premises on which the line kernel's Python floats equal the dense formula's numpy
    # arrays below 8 buses, each failure naming the one that broke
    rng = np.random.default_rng(12)
    for k in range(1, 8):
        A = rng.normal(size=(200, k)) * 10.0 ** rng.integers(-6, 7, size=(200, k))
        strided = np.empty((200, 2 * k))
        strided[:, 0::2] = A  # the layout of network_hessian's (theta, theta) view
        want = []
        for row in A.tolist():
            acc = 0.0
            for a in row:
                acc += a
            want.append(acc)
        for got in (A.sum(axis=1), strided[:, 0::2].sum(axis=1)):
            assert np.array_equal(got.view(np.uint64), np.array(want).view(np.uint64)), \
                f"numpy no longer sums a row of {k} entries left to right"
        assert math.copysign(1.0, np.full((1, k), -0.0).sum(axis=1)[0]) == 1.0, \
            f"numpy no longer starts a row sum of {k} entries from +0.0"
    theta = np.concatenate([rng.uniform(-math.pi, math.pi, 150), rng.uniform(-1e3, 1e3, 50),
                            [0.0, -0.0]])
    D = np.subtract.outer(theta, theta).ravel()
    for np_f, math_f in ((np.cos, math.cos), (np.sin, math.sin)):
        want = np.array(list(map(math_f, D.tolist())))
        assert np.array_equal(np_f(D).view(np.uint64), want.view(np.uint64)), \
            f"np.{np_f.__name__} no longer equals math.{math_f.__name__}"


def test_solve_zero_injections_flat():
    net = Network.from_lines(3, [Line(0, 1, 40.0), Line(1, 2, 45.0)])
    flow = gc.solve_power_flow(net, [PQ(0.0, 0.0), PQ(0.0, 0.0), Slack()])
    assert flow.iterations == 0
    assert np.max(np.abs(flow.theta)) == 0.0
    assert np.max(np.abs(flow.V - 1.0)) == 0.0


def test_solve_two_bus_recovers_known_point():
    # hand inversion of the closed form: P2 = V2 sin(theta2), Q2 = V2^2 - V2 cos(theta2)
    net = Network.from_lines(2, [Line(0, 1, 1.0)])
    q2 = 1.0 - math.cos(math.pi / 6)
    flow = gc.solve_power_flow(net, [Slack(0.0, 1.0), PQ(P=-0.5, Q=q2)])
    assert flow.theta[1] == pytest.approx(-math.pi / 6, abs=1e-10)
    assert flow.V[1] == pytest.approx(1.0, abs=1e-10)


def test_solve_conservation_on_random_networks():
    rng = np.random.default_rng(3)
    for _ in range(10):
        n = int(rng.integers(2, 5))
        lines = [Line(int(rng.integers(0, j)), j, float(rng.uniform(5, 40))) for j in range(1, n)]
        net = Network.from_lines(n, lines)
        specs = [Slack()] + [PQ(P=float(rng.uniform(-1, 1)), Q=float(rng.uniform(-0.3, 0.3)))
                             for _ in range(n - 1)]
        flow = gc.solve_power_flow(net, specs)
        assert abs(flow.P.sum()) < 1e-12


def test_solve_divergence_reports_error():
    net = Network.from_lines(3, [Line(0, 1, 40.0), Line(1, 2, 45.0)])
    overloaded = [PV(P=100.0, V=1.0), PQ(P=-350.0, Q=-50.0), Slack()]
    with pytest.raises(PowerFlowError, match=r"did not converge in 50 iterations .* tol 1\.0e-10\)"):
        gc.solve_power_flow(net, overloaded)


def test_solve_requires_exactly_one_slack():
    net = Network.from_lines(2, [Line(0, 1, 1.0)])
    with pytest.raises(ValueError, match="slack"):
        gc.solve_power_flow(net, [PQ(0, 0), PQ(0, 0)])
    with pytest.raises(ValueError, match="slack"):
        gc.solve_power_flow(net, [Slack(), Slack()])


def test_normalize_angle_reporting_interval():
    vals = gc.normalize_angle([0.0, math.pi, -math.pi, 3 * math.pi / 2, -7.0])
    assert vals[0] == pytest.approx(0.0)
    assert vals[1] == pytest.approx(math.pi)
    assert vals[2] == pytest.approx(math.pi)  # -pi maps to the closed end +pi
    assert vals[3] == pytest.approx(-math.pi / 2)
    assert -math.pi < vals[4] <= math.pi
