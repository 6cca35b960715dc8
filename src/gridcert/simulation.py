"""Nonlinear time-domain integration of the differential-algebraic power system.

Semi-explicit index-1 treatment: device states advance with classical
fixed-step RK4 while the bus voltages (theta_i, V_i) are re-solved by Newton
at every stage so that device outputs match the network power balance.

Each Newton iterate is evaluated once: one pass of the network's angle terms
and one voltage source per device give the energy gradient and, while the
iterate has not converged, the voltage Hessian. At the converged iterate the
same network (P, Q) and sources give the residual post-check and the stage's
state derivative. The solve that ends an RK4 step is at the next step's
starting point, so it also supplies that step's first stage.

Along trajectories the total Bregman storage (relative to a chosen
equilibrium) is tracked; for exact solutions it decays at the analytic
dissipation rate.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .network import _angle_terms, _balance, network_hessian, power_balance
from .system import Equilibrium, PowerSystem

__all__ = [
    "AlgebraicSolveError",
    "solve_bus_voltages",
    "algebraic_residual",
    "bregman_storage",
    "dissipation_rate",
    "Trajectory",
    "perturbed_state",
    "simulate",
]


class AlgebraicSolveError(RuntimeError):
    """Per-stage Newton solve of the bus voltages failed to converge."""


def _split_states(x, slices):
    return [np.asarray(x[sl], dtype=float) for sl in slices]


def _mismatch(powers, P_net, Q_net):
    """Infinity norm of the (P, Q) mismatch between device outputs and network balance."""
    worst = 0.0
    for i, (P, Q) in enumerate(powers):
        worst = max(worst, abs(P - P_net[i]), abs(Q - Q_net[i]))
    return worst


def _voltage_newton(system, states, v_guess, setpoints, tol=1e-10, max_iter=30):
    """`solve_bus_voltages`, also returning each device's source at the solution."""
    B = system.net.B
    v = np.array(v_guess, dtype=float)
    for _ in range(max_iter):
        if (v[1::2] <= 0).any() or not np.isfinite(v).all():
            raise AlgebraicSolveError("bus voltage iterate left the feasible region")
        theta = v[0::2]
        V = v[1::2]
        terms = _angle_terms(theta, V, B)
        P_net, Q_net = _balance(*terms)
        sources = [dev._source(states[i], theta[i], V[i], setpoints[i])
                   for i, dev in enumerate(system.devices)]
        # gradient of the total energy over interleaved (theta, V)
        g = np.empty_like(v)
        g[0::2] = P_net
        g[1::2] = Q_net / V
        for i, src in enumerate(sources):
            g_theta, g_V = src.bus_gradient()
            g[2 * i] += g_theta
            g[2 * i + 1] += g_V
        if np.abs(g).max() <= 0.1 * tol:
            break
        H = network_hessian(theta, V, B, terms)
        for i, src in enumerate(sources):
            H[2 * i:2 * i + 2, 2 * i:2 * i + 2] += src.bus_block()
        try:
            step = np.linalg.solve(H, g)
        except np.linalg.LinAlgError as exc:
            raise AlgebraicSolveError("singular voltage Jacobian") from exc
        v = v - step
    else:
        raise AlgebraicSolveError(
            f"voltage Newton did not converge in {max_iter} iterations "
            f"(residual {np.abs(g).max():.3e})"
        )
    res = _mismatch([src.power() for src in sources], P_net, Q_net)
    if res > tol:
        raise AlgebraicSolveError(f"voltage solve residual {res:.3e} exceeds {tol:.1e}")
    return v, sources


def algebraic_residual(system, states, v, setpoints):
    """Infinity norm of the (P, Q) mismatch between device outputs and network balance."""
    theta = v[0::2]
    V = v[1::2]
    P_net, Q_net = power_balance(theta, V, system.net)
    powers = [dev.output_power(states[i], theta[i], V[i], setpoints[i])
              for i, dev in enumerate(system.devices)]
    return _mismatch(powers, P_net, Q_net)


def solve_bus_voltages(system, states, v_guess, setpoints, tol=1e-10, max_iter=30):
    """Newton solve of the bus voltages for fixed device states.

    The residual is the gradient of the total energy in the bus variables
    (equivalently the device/network power mismatch with Q scaled by 1/V);
    the Jacobian is the corresponding voltage Hessian. Converges from the
    previous step's voltages during integration. Raises AlgebraicSolveError
    on divergence, which simulate() treats as a step rejection.
    """
    if isinstance(states, np.ndarray):
        states = _split_states(states, system.state_slices())
    return _voltage_newton(system, states, v_guess, setpoints, tol, max_iter)[0]


def _storage(system, eq: Equilibrium):
    """`bregman_storage` against `eq` as a function of (states, v).

    The equilibrium-side terms are formed once, here.
    """
    omega0 = system.omega0
    theta_s = np.asarray(eq.flow.theta, dtype=float)
    V_s = np.asarray(eq.flow.V, dtype=float)
    _, Q_net_s = power_balance(theta_s, V_s, system.net)
    Q_sum_s = Q_net_s.sum()
    dV_s = Q_net_s / V_s  # network gradient at the equilibrium: (P*, Q*/V*) per bus
    device_s = [
        (dev, sp, xs,
         dev.energy(xs, theta_s[i], V_s[i], sp, omega0),
         dev.energy_gradient(xs, theta_s[i], V_s[i], sp, omega0))
        for i, (dev, sp, xs) in enumerate(zip(system.devices, eq.setpoints, eq.states))
    ]

    def storage(states, v):
        theta = v[0::2]
        V = v[1::2]
        # the network energy -1/2 sum_ij B_ij V_i V_j cos(theta_i - theta_j) is sum(Q)/2
        _, Q_net = power_balance(theta, V, system.net)
        W = 0.5 * float(Q_net.sum() - Q_sum_s)
        W -= float(np.dot(eq.flow.P, theta - theta_s) + np.dot(dV_s, V - V_s))
        for i, (dev, sp, xs, U_s, gs) in enumerate(device_s):
            W += dev.energy(states[i], theta[i], V[i], sp, omega0)
            W -= U_s
            dz = np.concatenate([states[i] - xs, [theta[i] - theta_s[i], V[i] - V_s[i]]])
            W -= float(np.dot(gs, dz))
        return float(W)

    return storage


def bregman_storage(system, eq: Equilibrium, states, v):
    """Total storage: energy minus its first-order expansion at the equilibrium.

    Zero with zero gradient at the equilibrium itself; serves as the Lyapunov
    function along simulated trajectories.
    """
    if isinstance(states, np.ndarray):
        states = _split_states(states, system.state_slices())
    return _storage(system, eq)(states, v)


def dissipation_rate(system, states, v, setpoints):
    """Analytic storage decay rate: -sum D ddelta^2/omega0 - sum tau dE^2/(X - X')."""
    if isinstance(states, np.ndarray):
        states = _split_states(states, system.state_slices())
    theta = v[0::2]
    V = v[1::2]
    rate = 0.0
    for i, dev in enumerate(system.devices):
        deriv = dev.state_derivative(states[i], theta[i], V[i], setpoints[i], system.omega0)
        rate += dev.dissipation_rate(deriv, system.omega0)
    return rate


@dataclass
class Trajectory:
    """Sampled states of one simulation run.

    x rows are concatenated device states, v rows interleaved (theta, V),
    W the Bregman storage per sample. `diagnostic` is set when the run was
    truncated by an algebraic solve failure.
    """

    t: np.ndarray
    x: np.ndarray
    v: np.ndarray
    W: np.ndarray
    truncated: bool = False
    diagnostic: str | None = None
    system: PowerSystem | None = field(default=None, repr=False)
    equilibrium: Equilibrium | None = field(default=None, repr=False)

    def deviations(self):
        """Per-sample 2-norm distance to the reference stationary set.

        Stationarity is defined up to a uniform phase shift of all angles, so
        the distance is minimized over that shift: the mean deviation of the
        angle coordinates (device deltas and bus thetas) is projected out.
        """
        system = self.system
        x_s = self.equilibrium.x()
        v_s = self.equilibrium.v()
        n_x = x_s.size
        angle_mask = np.zeros(n_x + v_s.size, dtype=bool)
        for dev, sl in zip(system.devices, system.state_slices()):
            if dev.n_states:
                angle_mask[sl.start] = True
        angle_mask[n_x::2] = True
        dz = np.hstack([self.x - x_s, self.v - v_s])
        shift = dz[:, angle_mask].mean(axis=1)
        dz[:, angle_mask] -= shift[:, None]
        return np.linalg.norm(dz, axis=1)


def perturbed_state(eq: Equilibrium, bus, delta_shift):
    """Equilibrium device states with one rotor angle shifted by `delta_shift` radians."""
    dev = eq.system.devices[bus]
    if dev.n_states == 0:
        raise ValueError(f"bus {bus} hosts a load; it has no angle to perturb")
    x0 = eq.x().copy()
    sl = eq.system.state_slices()[bus]
    x0[sl.start] += delta_shift
    return x0


def simulate(system, eq: Equilibrium, x0=None, dt=1e-3, t_end=1.0, record_every=1):
    """Fixed-step RK4 integration with a Newton voltage solve at every stage.

    Starts from device states `x0` (default: the equilibrium itself) with the
    bus voltages re-solved for consistency. On an algebraic solve failure the
    trajectory is truncated and returned with a diagnostic instead of raising.
    """
    setpoints = eq.setpoints
    slices = system.state_slices()
    storage = _storage(system, eq)
    x = np.array(x0 if x0 is not None else eq.x(), dtype=float)
    n_steps = int(round(t_end / dt))

    def rhs(x_stage, v_warm):
        """State derivative at `x_stage`, with the bus voltages solved there."""
        states = _split_states(x_stage, slices)
        v_stage, sources = _voltage_newton(system, states, v_warm, setpoints)
        parts = [dev._state_derivative(states[i], src, setpoints[i], system.omega0)
                 for i, (dev, src) in enumerate(zip(system.devices, sources))]
        return (np.concatenate(parts) if parts else np.zeros(0)), v_stage

    k1, v = rhs(x, eq.v())

    ts = [0.0]
    xs = [x.copy()]
    vs = [v.copy()]
    Ws = [storage(_split_states(x, slices), v)]
    truncated = False
    diagnostic = None

    for k in range(n_steps):
        try:
            k2, v2 = rhs(x + 0.5 * dt * k1, v)
            k3, v3 = rhs(x + 0.5 * dt * k2, v2)
            k4, v4 = rhs(x + dt * k3, v3)
            x = x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            k1, v = rhs(x, v4)  # the next step's first stage
        except AlgebraicSolveError as exc:
            truncated = True
            diagnostic = f"truncated at t={ts[-1]:.6g}s: {exc}"
            break
        if (k + 1) % record_every == 0 or k == n_steps - 1:
            ts.append((k + 1) * dt)
            xs.append(x.copy())
            vs.append(v.copy())
            Ws.append(storage(_split_states(x, slices), v))

    return Trajectory(
        t=np.array(ts),
        x=np.array(xs),
        v=np.array(vs),
        W=np.array(Ws),
        truncated=truncated,
        diagnostic=diagnostic,
        system=system,
        equilibrium=eq,
    )
