"""Shared test oracles: finite differences, random system sampling, fixtures.

Everything here is independent of the closed-form implementations it checks:
finite differences approximate gradients/Hessians from energy values alone,
and random operating points are built by evaluating the power balance at
sampled voltages so they satisfy it by construction.
"""

import dataclasses

import numpy as np

import gridcert as gc
from gridcert import simulation
from gridcert.certificate import _complement_basis
from gridcert.linearization import assemble_energy_hessian
from gridcert.network import network_hessian
from gridcert.simulation import algebraic_residual


def fd_gradient(f, x, h=1e-6):
    x = np.asarray(x, dtype=float)
    g = np.zeros_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h / 2
        g[i] = (f(x + e) - f(x - e)) / h
    return g


def fd_hessian(f, x, h=2e-4, refine=False):
    """Central-difference Hessian; `refine` adds one Richardson step (O(h^4))."""
    if refine:
        return (4.0 * fd_hessian(f, x, h / 2) - fd_hessian(f, x, h)) / 3.0
    x = np.asarray(x, dtype=float)
    n = x.size
    H = np.zeros((n, n))
    E = np.eye(n) * (h / 2)
    f0 = f(x)
    for i in range(n):
        for j in range(i, n):
            if i == j:
                H[i, i] = (f(x + 2 * E[i]) - 2 * f0 + f(x - 2 * E[i])) / h**2
            else:
                p = (f(x + E[i] + E[j]) - f(x + E[i] - E[j])
                     - f(x - E[i] + E[j]) + f(x - E[i] - E[j]))
                H[i, j] = H[j, i] = p / h**2
    return H


def random_reactances(rng):
    return float(rng.uniform(0.05, 0.35)), float(rng.uniform(0.05, 0.35))


def random_operating_point(rng, x_q, margin=0.1):
    """Valid operating point for a device with the given q-axis reactance."""
    for _ in range(200):
        V = float(rng.uniform(0.9, 1.1))
        P = float(rng.uniform(-2.0, 2.0))
        Q = float(rng.uniform(-0.5, 2.0))
        if Q + V**2 / x_q > margin:
            return gc.OperatingPoint(V=V, P=P, Q=Q)
    raise AssertionError("could not sample a valid operating point")


def random_two_axis(rng, x_d=None, x_q=None):
    if x_d is None:
        x_d, x_q = random_reactances(rng)
    return gc.TwoAxisGenerator(
        M=float(rng.uniform(0.05, 0.5)), D=float(rng.uniform(0.5, 5.0)),
        tau_d=float(rng.uniform(1.0, 8.0)), tau_q=float(rng.uniform(0.3, 3.0)),
        X_d=x_d, X_q=x_q,
        X_d_prime=x_d * float(rng.uniform(0.3, 0.7)),
        X_q_prime=x_q * float(rng.uniform(0.3, 0.7)),
    )


def random_system(rng, angle_scale=0.35, n_bus=None, allow_loads=True):
    """Random connected system at an exact stationary power flow.

    Angles and voltages are sampled, (P, Q) computed from the balance, and a
    device drawn per bus; operating points outside a device's capability
    region trigger a resample of its reactances. Returns (system, flow) or
    None when no valid draw was found.
    """
    n = int(rng.integers(2, 5)) if n_bus is None else n_bus
    lines = []
    for j in range(1, n):
        i = int(rng.integers(0, j))
        lines.append(gc.Line(i, j, float(rng.uniform(2.0, 40.0))))
    for _ in range(int(rng.integers(0, n))):
        i, j = rng.choice(n, size=2, replace=False)
        lines.append(gc.Line(int(i), int(j), float(rng.uniform(2.0, 40.0))))
    net = gc.Network.from_lines(n, lines)

    theta = rng.uniform(-angle_scale, angle_scale, n)
    V = rng.uniform(0.95, 1.05, n)
    P, Q = gc.power_balance(theta, V, net)

    kinds = ["two_axis", "vsg", "fdc"] + (["load"] if allow_loads else [])
    devices = []
    n_dev = 0
    for i in range(n):
        kind = str(rng.choice(kinds))
        if kind == "load" and n_dev == 0 and i == n - 1:
            kind = "vsg"  # keep at least one device with an internal angle
        if kind == "load":
            devices.append(gc.ConstantPowerLoad(P_ref=float(P[i]), Q_ref=float(Q[i])))
            continue
        op = None
        for _ in range(40):
            x_d, x_q = random_reactances(rng)
            if Q[i] + V[i] ** 2 / x_q > 0.05:
                op = (x_d, x_q)
                break
        if op is None:
            return None
        x_d, x_q = op
        n_dev += 1
        M = float(rng.uniform(0.05, 0.5))
        D = float(rng.uniform(0.5, 5.0))
        if kind == "two_axis":
            devices.append(random_two_axis(rng, x_d, x_q))
        elif kind == "vsg":
            devices.append(gc.VsgInverter(M=M, D=D, X_d=x_d, X_q=x_q))
        else:
            devices.append(gc.DroopInverter(D=D, X_d=x_d, X_q=x_q))
    if n_dev == 0:
        return None
    system = gc.PowerSystem(net, devices)
    flow = gc.PowerFlowSolution(theta=theta, V=V, P=P, Q=Q, residual=0.0, iterations=0)
    return system, flow


def energy_hessian_reference(system, eq):
    """The total energy Hessian assembled as one matrix, as first written.

    Each device's Hessian over (states..., theta, V) is added, block by
    block, into a zero matrix holding the network Hessian;
    `assemble_energy_hessian(...).matrix` must reproduce these bits.
    """
    n, n_x = system.n_bus, system.n_states
    H = np.zeros((n_x + 2 * n, n_x + 2 * n))
    H[n_x:, n_x:] = network_hessian(eq.flow.theta, eq.flow.V, system.net.B)
    for i, (dev, states) in enumerate(zip(system.devices, system.state_slices())):
        Hd = dev.energy_hessian(eq.states[i], float(eq.flow.theta[i]), float(eq.flow.V[i]),
                                eq.setpoints[i], system.omega0)
        k = states.stop - states.start
        bus = slice(n_x + 2 * i, n_x + 2 * i + 2)
        H[states, states] += Hd[:k, :k]
        H[states, bus] += Hd[:k, k:]
        H[bus, states] += Hd[k:, :k]
        H[bus, bus] += Hd[k:, k:]
    return H


def condition_matrix(system, flow):
    """The certificate's condition matrix: the network Hessian plus each bus's stiffness block."""
    M = network_hessian(flow.theta, flow.V, system.net.B)
    for i, dev in enumerate(system.devices):
        op = system.operating_point(flow, i)
        M[2 * i:2 * i + 2, 2 * i:2 * i + 2] += (
            gc.load_stiffness_block(dev.Q_ref, op.V) if dev.kind == "load"
            else gc.bus_stiffness_block(op, dev.X_d, dev.X_q))
    return M


def certify_reference(M):
    """Smallest eigenvalue and eigenvector of M off the uniform phase shift, as first written.

    One expression forms Z^T M Z with every array alive; `certify`'s min_eig
    and witness, and `deflated_min_eig`, must reproduce these bits.
    """
    Z = _complement_basis(gc.structural_null_vector(M.shape[0] // 2))
    vals, vecs = np.linalg.eigh(Z.T @ M @ Z)
    return float(vals[0]), Z @ vecs[:, 0]


def voltage_regular(system, eq, margin=1e-6):
    """True when the algebraic (theta, V) block of the energy Hessian is positive definite.

    The closed-form certificate and the eigenvalue oracle are provably
    equivalent on this set; constant-power loads at heavily stressed
    operating points can leave it.
    """
    H = assemble_energy_hessian(system, eq)
    return float(np.linalg.eigvalsh(H.vv)[0]) > margin


def verdict_margins(report, eig_report):
    """Distance of each verdict from its marginal boundary."""
    cert_vals = [abs(g) for g in report.gammas.values()]
    if report.min_eig is not None:
        cert_vals.append(abs(report.min_eig))
    rest = [ev for ev in eig_report.eigenvalues if ev != eig_report.zero_eigenvalue]
    eig_margin = min((abs(ev.real) for ev in rest), default=np.inf)
    return min(cert_vals), eig_margin


def sweep_point(cfg, flow, bus_index, x_d, x_q):
    """One sweep point evaluated on its own: (certificate verdict, eigen verdict, min_eig text).

    Rebuilds the swept device and the system, then runs the full `certify`
    and `eigenvalue_verdict`; the reference the batched sweep must equal.
    """
    devices = list(cfg.system.devices)
    try:
        devices[bus_index] = dataclasses.replace(devices[bus_index], X_d=x_d, X_q=x_q)
    except ValueError:
        return "infeasible", "infeasible", ""
    system = gc.PowerSystem(cfg.system.net, devices, cfg.system.omega0)
    try:
        report = gc.certify(flow, system, bus_ids=cfg.bus_ids)
        v_cert = report.verdict
        min_eig = f"{report.min_eig:.12g}" if report.min_eig is not None else ""
    except (ValueError, gc.CertificateError):  # CapabilityError, or a load off its flow
        return "infeasible", "infeasible", ""
    try:
        eq = system.equilibrium(flow)
        v_eig = gc.eigenvalue_verdict(system, eq).verdict
    except (gc.CapabilityError, gc.DegenerateEquilibriumError, ValueError, np.linalg.LinAlgError):
        v_eig = "infeasible"
    return v_cert, v_eig, min_eig


def network_hessian_blocks_reference(theta, V, B):
    """The network Hessian's (theta, theta), (theta, V) and (V, V) blocks as first written.

    Each block is a new array from whole-matrix products, with its diagonal
    written last; `network_hessian` and `power_flow_jacobian` must reproduce
    these bits, signs of zeros included.
    """
    theta = np.asarray(theta, dtype=float)
    V = np.asarray(V, dtype=float)
    D = np.subtract.outer(theta, theta)
    C, S, W = np.cos(D), np.sin(D), B * np.outer(V, V)

    tt = -W * C
    np.fill_diagonal(tt, 0.0)
    np.fill_diagonal(tt, -tt.sum(axis=1))

    BS = B * S
    tv = BS * V[:, None]
    np.fill_diagonal(tv, (BS * V[None, :]).sum(axis=1))

    vv = -B * C
    np.fill_diagonal(vv, -np.diag(B))
    return tt, tv, vv


def network_hessian_reference(theta, V, B):
    """The reference blocks interleaved over (theta_i, V_i) by four strided copies."""
    tt, tv, vv = network_hessian_blocks_reference(theta, V, B)
    n = tt.shape[0]
    L = np.empty((2 * n, 2 * n))
    L[0::2, 0::2] = tt
    L[0::2, 1::2] = tv
    L[1::2, 0::2] = tv.T
    L[1::2, 1::2] = vv
    return L


def power_flow_jacobian_reference(theta, V, B):
    """[[H_tt, H_tv], [V H_vt, V H_vv + diag(Q/V)]] from the reference blocks."""
    V = np.asarray(V, dtype=float)
    tt, tv, vv = network_hessian_blocks_reference(theta, V, B)
    Q = -(np.cos(np.subtract.outer(theta, theta)) * (B * np.outer(V, V))).sum(axis=1)
    n = V.size
    J = np.empty((2 * n, 2 * n))
    J[:n, :n] = tt
    J[:n, n:] = tv
    J[n:, :n] = V[:, None] * tv.T
    J[n:, n:] = V[:, None] * vv + np.diag(Q / V)
    return J


def solve_bus_voltages_reference(system, x, v_guess, setpoints):
    """`solve_bus_voltages` with each piece of an iterate evaluated on its own.

    The gradient comes from `power_balance` and each device's
    `energy_gradient`, the Hessian from `network_hessian` and each device's
    `energy_hessian`, the post-check from `algebraic_residual`. The reference
    the simulator's single evaluation per iterate must equal bit for bit; it
    reads the simulator's tolerance and iteration cap when called.
    """
    tol, max_iter = simulation._NEWTON_TOL, simulation._NEWTON_MAX_ITER
    states = [x[sl] for sl in system.state_slices()]
    v = np.array(v_guess, dtype=float)
    for _ in range(max_iter):
        if np.any(v[1::2] <= 0) or not np.all(np.isfinite(v)):
            raise gc.AlgebraicSolveError("bus voltage iterate left the feasible region")
        theta, V = v[0::2], v[1::2]
        P_net, Q_net = gc.power_balance(theta, V, system.net)
        g = np.empty_like(v)
        g[0::2] = P_net
        g[1::2] = Q_net / V
        H = gc.network_hessian(theta, V, system.net.B)
        for i, dev in enumerate(system.devices):
            args = (states[i], theta[i], V[i], setpoints[i], system.omega0)
            g[2 * i:2 * i + 2] += dev.energy_gradient(*args)[-2:]
            H[2 * i:2 * i + 2, 2 * i:2 * i + 2] += dev.energy_hessian(*args)[-2:, -2:]
        if np.max(np.abs(g)) <= 0.1 * tol:
            break
        try:
            step = np.linalg.solve(H, g)
        except np.linalg.LinAlgError as exc:
            raise gc.AlgebraicSolveError("singular voltage Jacobian") from exc
        v = v - step
    else:
        raise gc.AlgebraicSolveError(
            f"voltage Newton did not converge in {max_iter} iterations "
            f"(residual {np.max(np.abs(g)):.3e})"
        )
    res = algebraic_residual(system, x, v, setpoints)
    if not res <= tol:
        raise gc.AlgebraicSolveError(f"voltage solve residual {res:.3e} exceeds {tol:.1e}")
    return v


def simulate_reference(system, eq, x0=None, dt=1e-3, t_end=1.0):
    """`simulate` as one RK4 loop over the public per-stage pieces.

    Every stage, the first included, re-solves the bus voltages with
    `solve_bus_voltages` and takes the derivative from each device's
    `state_derivative`; samples are recorded with `bregman_storage`. The
    reference the simulator's trajectories must equal bit for bit.
    """
    setpoints = eq.setpoints
    slices = system.state_slices()
    x = np.array(x0 if x0 is not None else eq.x(), dtype=float)
    n_steps = int(round(t_end / dt))

    def rhs(x_stage, v_warm):
        states = [x_stage[sl] for sl in slices]
        v_stage = gc.solve_bus_voltages(system, x_stage, v_warm, setpoints)
        parts = [dev.state_derivative(states[i], v_stage[2 * i], v_stage[2 * i + 1],
                                      setpoints[i], system.omega0)
                 for i, dev in enumerate(system.devices)]
        return np.concatenate(parts), v_stage

    v = gc.solve_bus_voltages(system, x, eq.v(), setpoints)
    ts, xs, vs = [0.0], [x.copy()], [v.copy()]
    Ws = [gc.bregman_storage(system, eq, x, v)]
    truncated, diagnostic = False, None
    for k in range(n_steps):
        try:
            k1, v1 = rhs(x, v)
            k2, v2 = rhs(x + 0.5 * dt * k1, v1)
            k3, v3 = rhs(x + 0.5 * dt * k2, v2)
            k4, v4 = rhs(x + dt * k3, v3)
            x = x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            v = gc.solve_bus_voltages(system, x, v4, setpoints)
        except gc.AlgebraicSolveError as exc:
            truncated = True
            diagnostic = f"truncated at t={ts[-1]:.6g}s: {exc}"
            break
        ts.append((k + 1) * dt)
        xs.append(x.copy())
        vs.append(v.copy())
        Ws.append(gc.bregman_storage(system, eq, x, v))
    return gc.Trajectory(t=np.array(ts), x=np.array(xs), v=np.array(vs), W=np.array(Ws),
                         truncated=truncated, diagnostic=diagnostic)


def three_bus_doc(x3=(0.1, 0.069), M=0.2, D=1.0, tau_d=5.0, tau_q=1.0,
                  kind1="two_axis", kind3="vsg"):
    """Config document for the bundled 3-bus study with adjustable bus-3 reactances."""
    if kind1 == "two_axis":
        dev1 = {"kind": "two_axis", "M": M, "D": D, "tau_d": tau_d, "tau_q": tau_q,
                "X_d": 0.1, "X_q": 0.069, "X_d_prime": 0.05, "X_q_prime": 0.03}
    else:
        dev1 = {"kind": kind1, "M": M, "D": D, "X_d": 0.1, "X_q": 0.069}
    dev3 = {"kind": kind3, "M": M, "D": D, "X_d": x3[0], "X_q": x3[1]}
    if kind3 == "fdc":
        dev3 = {"kind": "fdc", "D": D, "X_d": x3[0], "X_q": x3[1]}
    return {
        "omega0": 376.99111843077515,
        "buses": [
            {"id": 1, "device": dev1, "spec": {"type": "pv", "P": 1.0, "V": 1.0}},
            {"id": 2, "device": {"kind": "vsg", "M": M, "D": D, "X_d": 0.1, "X_q": 0.069},
             "spec": {"type": "pq", "P": -3.5, "Q": -0.5}},
            {"id": 3, "device": dev3, "spec": {"type": "slack", "theta": 0.0, "V": 1.0}},
        ],
        "lines": [{"from": 1, "to": 2, "b": 40.0}, {"from": 2, "to": 3, "b": 45.0}],
    }


def off_flow_load_doc():
    """Two-bus config whose bus 2 load draws Q = -3.0 where the flow leaves Q near 0.0125."""
    return {
        "buses": [
            {"id": 1, "device": {"kind": "vsg", "M": 0.2, "D": 1.0, "X_d": 0.1, "X_q": 0.069},
             "spec": {"type": "slack"}},
            {"id": 2, "device": {"kind": "load", "P_ref": -0.5, "Q_ref": -3.0},
             "spec": {"type": "pv", "P": -0.5, "V": 1.0}},
        ],
        "lines": [{"from": 1, "to": 2, "b": 10.0}],
    }


def solved(cfg):
    return gc.solve_power_flow(cfg.system.net, cfg.bus_specs)


TABLE1 = {
    "theta": np.array([-0.0308, -0.0560, 0.0]),
    "V": np.array([1.0000, 0.9931, 1.0000]),
    "P": np.array([1.0000, -3.5000, 2.5000]),
    "Q": np.array([0.2886, -0.5000, 0.3805]),
}
